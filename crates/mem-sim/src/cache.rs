//! Set-associative LRU cache model.
//!
//! Tracks *which lines are resident*, not their contents — the simulators
//! keep real data in backing stores and consult the cache model purely for
//! timing. This is the standard functional/timing split and keeps the hot
//! path to a handful of integer operations per access.

use serde::{Deserialize, Serialize};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: u32,
    /// Ways per set; `size_bytes / line_bytes` must be divisible by it.
    pub associativity: u32,
}

impl CacheConfig {
    /// Validate the geometry, returning a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes {} must be a nonzero power of two",
                self.line_bytes
            ));
        }
        if self.associativity == 0 {
            return Err("associativity must be at least 1".into());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err(format!(
                "size_bytes {} must be a nonzero multiple of line_bytes {}",
                self.size_bytes, self.line_bytes
            ));
        }
        let lines = self.size_bytes / self.line_bytes;
        if !lines.is_multiple_of(self.associativity) {
            return Err(format!(
                "line count {lines} not divisible by associativity {}",
                self.associativity
            ));
        }
        if !(lines / self.associativity).is_power_of_two() {
            return Err(format!(
                "set count {} must be a power of two for address hashing",
                lines / self.associativity
            ));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / self.line_bytes / self.associativity
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line was resident.
    Hit,
    /// Line was not resident; it is now, possibly after evicting another.
    Miss {
        /// Base address of the evicted line, if a valid line was displaced.
        evicted: Option<u64>,
    },
}

impl CacheOutcome {
    /// True for [`CacheOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated).
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 1.0 for an untouched cache so ratios stay sane.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Per-set counters, collected only after [`Cache::enable_set_profile`].
///
/// Observability only: profiling never changes outcomes, timing inputs, or
/// the aggregate [`CacheStats`]. When enabled, the per-set sums are exact:
/// Σ`accesses` = `CacheStats::accesses`, Σ`hits` = `CacheStats::hits`, and
/// Σ`evictions` ≤ `CacheStats::misses` (cold fills evict nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetStats {
    /// Accesses that indexed this set.
    pub accesses: u64,
    /// Accesses that hit in this set.
    pub hits: u64,
    /// Valid lines displaced from this set.
    pub evictions: u64,
}

/// The cache proper. One `u64` tag and one LRU stamp per line.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Per-line tag (full line base address), `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Per-line last-use stamp for LRU.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
    /// Per-set counters; `None` unless an introspector enabled them.
    set_profile: Option<Vec<SetStats>>,
}

impl Cache {
    /// Create an empty cache.
    ///
    /// # Panics
    /// Panics if the config is invalid — cache geometry is a programming
    /// error, not a runtime condition (use [`CacheConfig::validate`] first
    /// if the geometry comes from user input).
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let lines = (cfg.size_bytes / cfg.line_bytes) as usize;
        Cache {
            cfg,
            tags: vec![u64::MAX; lines],
            stamps: vec![0; lines],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: (cfg.sets() - 1) as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_profile: None,
        }
    }

    /// Start collecting per-set counters ([`SetStats`]). Idempotent: calling
    /// it again keeps the counters already accumulated.
    pub fn enable_set_profile(&mut self) {
        if self.set_profile.is_none() {
            self.set_profile = Some(vec![SetStats::default(); self.cfg.sets() as usize]);
        }
    }

    /// Per-set counters accumulated since [`Cache::enable_set_profile`];
    /// `None` when profiling was never enabled. Indexed by set number.
    pub fn set_profile(&self) -> Option<&[SetStats]> {
        self.set_profile.as_deref()
    }

    /// Base addresses of every currently-resident line (a residency
    /// snapshot for heatmaps). Counter-free, like [`Cache::contains`].
    pub fn resident_lines(&self) -> Vec<u64> {
        self.tags
            .iter()
            .filter(|&&t| t != u64::MAX)
            .map(|&t| t << self.line_shift)
            .collect()
    }

    /// Access the byte at `addr`; the whole containing line is allocated on
    /// miss (read-allocate; the simulators model read-only caches — texture
    /// cache, instruction-like STT walks — so no dirty/writeback state).
    ///
    /// Exact LRU: a hit refreshes its way; a miss fills the first invalid
    /// way, else the first least-recently-used one. The lookup is
    /// specialised for the associativities the shipped devices use, so its
    /// way loop has a fixed trip count; any other associativity takes the
    /// same routine with a runtime count.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        match self.cfg.associativity {
            2 => self.access_ways::<2>(addr),
            4 => self.access_ways::<4>(addr),
            8 => self.access_ways::<8>(addr),
            12 => self.access_ways::<12>(addr),
            16 => self.access_ways::<16>(addr),
            24 => self.access_ways::<24>(addr),
            _ => self.access_ways::<0>(addr),
        }
    }

    /// [`Cache::access`] on sets of `W` ways; `W = 0` reads the
    /// associativity from the config.
    #[inline(always)]
    fn access_ways<const W: usize>(&mut self, addr: u64) -> CacheOutcome {
        let ways = if W == 0 {
            self.cfg.associativity as usize
        } else {
            W
        };
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        // Each scan visits every way with no early exit. Tags in a set are
        // distinct, so at most one way matches.
        let mut hit = usize::MAX;
        for (w, &tag) in tags.iter().enumerate() {
            if tag == line_addr {
                hit = w;
            }
        }
        let profile = self.set_profile.as_mut().map(|p| &mut p[set]);
        if hit != usize::MAX {
            stamps[hit] = self.clock;
            self.stats.hits += 1;
            if let Some(p) = profile {
                p.accesses += 1;
                p.hits += 1;
            }
            return CacheOutcome::Hit;
        }
        // Invalid ways carry stamp 0 and valid ones a stamp ≥ 1 (the clock
        // ticks before any fill), so the first smallest stamp is the first
        // invalid way when there is one, else the least recently used.
        let mut victim = 0;
        for w in 1..ways {
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        self.stats.misses += 1;
        let old = tags[victim];
        tags[victim] = line_addr;
        stamps[victim] = self.clock;
        let evicted = (old != u64::MAX).then_some(old << self.line_shift);
        if let Some(p) = profile {
            p.accesses += 1;
            p.evictions += u64::from(evicted.is_some());
        }
        CacheOutcome::Miss { evicted }
    }

    /// Probe residency without touching LRU state or counters.
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let ways = self.cfg.associativity as usize;
        self.tags[set * ways..set * ways + ways].contains(&line_addr)
    }

    /// Invalidate everything (e.g. between kernel launches). Cumulative
    /// statistics — aggregate and per-set alike — are preserved; only
    /// residency is dropped.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (aggregate and per-set), keeping residency.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        if let Some(p) = self.set_profile.as_mut() {
            p.fill(SetStats::default());
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(matches!(
            c.access(0x40),
            CacheOutcome::Miss { evicted: None }
        ));
        assert!(c.access(0x40).is_hit());
        assert!(c.access(0x4F).is_hit()); // same 16-byte line
        assert!(!c.access(0x50).is_hit()); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set index = (addr/16) & 3. Addresses 0x00, 0x40, 0x80 all map to
        // set 0 (line addrs 0, 4, 8).
        c.access(0x00);
        c.access(0x40);
        c.access(0x00); // refresh line 0 → line 4 is LRU
        match c.access(0x80) {
            CacheOutcome::Miss { evicted: Some(a) } => assert_eq!(a, 0x40),
            other => panic!("expected eviction of 0x40, got {other:?}"),
        }
        assert!(c.contains(0x00));
        assert!(!c.contains(0x40));
    }

    #[test]
    fn flush_clears_residency_not_stats() {
        let mut c = small();
        c.access(0x0);
        c.flush();
        assert!(!c.contains(0x0));
        assert_eq!(c.stats().accesses, 1);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(CacheConfig {
            size_bytes: 0,
            line_bytes: 16,
            associativity: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 128,
            line_bytes: 10,
            associativity: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 0
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 96,
            line_bytes: 16,
            associativity: 2
        }
        .validate()
        .is_err()); // 3 sets, not a power of two
        assert!(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn new_panics_on_bad_geometry() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 16,
            associativity: 1,
        });
    }

    #[test]
    fn hit_rate_of_fresh_cache_is_one() {
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8192,
            line_bytes: 64,
            associativity: 4,
        });
        let addrs: Vec<u64> = (0..128).map(|i| i * 64).collect(); // exactly capacity
        for &a in &addrs {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &addrs {
                assert!(c.access(a).is_hit());
            }
        }
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn set_profile_disabled_by_default_and_tracks_sets() {
        let mut c = small();
        c.access(0x00);
        assert!(c.set_profile().is_none());

        c.enable_set_profile();
        c.access(0x00); // set 0: hit
        c.access(0x40); // set 0: miss
        c.access(0x10); // set 1: miss
        let p = c.set_profile().unwrap();
        assert_eq!(p[0].accesses, 2);
        assert_eq!(p[0].hits, 1);
        assert_eq!(p[1].accesses, 1);
        assert_eq!(p[1].hits, 0);
        // Third distinct line in set 0 evicts (2 ways).
        c.access(0x80);
        assert_eq!(c.set_profile().unwrap()[0].evictions, 1);
    }

    #[test]
    fn resident_lines_snapshot() {
        let mut c = small();
        assert!(c.resident_lines().is_empty());
        c.access(0x00);
        c.access(0x53);
        let mut lines = c.resident_lines();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x00, 0x50]);
        c.flush();
        assert!(c.resident_lines().is_empty());
    }

    /// The LRU rule written plainly: an early-exit hit search, then the
    /// first invalid way or else the first least-recent stamp.
    struct Reference {
        ways: usize,
        set_mask: u64,
        line_shift: u32,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: CacheStats,
        sets: Option<Vec<SetStats>>,
    }

    impl Reference {
        fn new(cfg: CacheConfig, profile: bool) -> Self {
            let lines = (cfg.size_bytes / cfg.line_bytes) as usize;
            Reference {
                ways: cfg.associativity as usize,
                set_mask: (cfg.sets() - 1) as u64,
                line_shift: cfg.line_bytes.trailing_zeros(),
                tags: vec![u64::MAX; lines],
                stamps: vec![0; lines],
                clock: 0,
                stats: CacheStats::default(),
                sets: profile.then(|| vec![SetStats::default(); cfg.sets() as usize]),
            }
        }

        fn access(&mut self, addr: u64) -> CacheOutcome {
            self.clock += 1;
            self.stats.accesses += 1;
            let line = addr >> self.line_shift;
            let set = (line & self.set_mask) as usize;
            let base = set * self.ways;
            if let Some(p) = self.sets.as_mut() {
                p[set].accesses += 1;
            }
            for w in base..base + self.ways {
                if self.tags[w] == line {
                    self.stamps[w] = self.clock;
                    self.stats.hits += 1;
                    if let Some(p) = self.sets.as_mut() {
                        p[set].hits += 1;
                    }
                    return CacheOutcome::Hit;
                }
            }
            self.stats.misses += 1;
            let mut victim = base;
            for w in base..base + self.ways {
                if self.tags[w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.stamps[w] < self.stamps[victim] {
                    victim = w;
                }
            }
            let evicted =
                (self.tags[victim] != u64::MAX).then(|| self.tags[victim] << self.line_shift);
            if evicted.is_some() {
                if let Some(p) = self.sets.as_mut() {
                    p[set].evictions += 1;
                }
            }
            self.tags[victim] = line;
            self.stamps[victim] = self.clock;
            CacheOutcome::Miss { evicted }
        }

        fn resident_lines(&self) -> Vec<u64> {
            self.tags
                .iter()
                .filter(|&&t| t != u64::MAX)
                .map(|&t| t << self.line_shift)
                .collect()
        }
    }

    /// Every associativity the lookup is specialised for, the runtime-count
    /// ones in between, and a flush in the middle of the stream.
    #[test]
    fn lookup_equals_the_reference_lru_at_every_associativity() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let addrs: Vec<u64> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A small address space so sets fill, evict and hit.
                x % (64 * 16 * 40)
            })
            .collect();
        for ways in (1..=16).chain([24]) {
            for profile in [false, true] {
                let cfg = CacheConfig {
                    size_bytes: 4 * ways * 16,
                    line_bytes: 16,
                    associativity: ways,
                };
                let mut cache = Cache::new(cfg);
                if profile {
                    cache.enable_set_profile();
                }
                let mut reference = Reference::new(cfg, profile);
                for (i, &a) in addrs.iter().enumerate() {
                    if i == addrs.len() / 2 {
                        cache.flush();
                        reference.tags.fill(u64::MAX);
                        reference.stamps.fill(0);
                    }
                    assert_eq!(
                        cache.access(a),
                        reference.access(a),
                        "{ways} ways, access {i}"
                    );
                }
                assert_eq!(cache.stats(), reference.stats, "{ways} ways");
                assert_eq!(
                    cache.set_profile(),
                    reference.sets.as_deref(),
                    "{ways} ways"
                );
                assert_eq!(
                    cache.resident_lines(),
                    reference.resident_lines(),
                    "{ways} ways"
                );
            }
        }
    }

    proptest! {
        /// Accesses never under- or over-count: hits + misses = accesses.
        #[test]
        fn counters_are_consistent(addrs in proptest::collection::vec(any::<u32>(), 1..500)) {
            let mut c = small();
            for a in addrs {
                c.access(a as u64);
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, s.accesses);
        }

        /// Immediately repeating an access always hits (temporal locality
        /// sanity).
        #[test]
        fn repeat_access_hits(addr in any::<u32>()) {
            let mut c = small();
            c.access(addr as u64);
            prop_assert!(c.access(addr as u64).is_hit());
        }

        /// A just-accessed line is resident.
        #[test]
        fn contains_after_access_holds(addr in any::<u32>()) {
            let mut c = small();
            c.access(addr as u64);
            prop_assert!(c.contains(addr as u64));
        }

        /// Per-set counters sum exactly to the aggregate totals, and
        /// evictions never exceed misses.
        #[test]
        fn set_profile_sums_to_aggregate_stats(
            addrs in proptest::collection::vec(any::<u32>(), 1..500),
        ) {
            let mut c = small();
            c.enable_set_profile();
            for a in addrs {
                c.access(a as u64);
            }
            let s = c.stats();
            let p = c.set_profile().unwrap();
            prop_assert_eq!(p.iter().map(|x| x.accesses).sum::<u64>(), s.accesses);
            prop_assert_eq!(p.iter().map(|x| x.hits).sum::<u64>(), s.hits);
            prop_assert!(p.iter().map(|x| x.evictions).sum::<u64>() <= s.misses);
        }

        /// Random streams at random associativities agree with the
        /// reference on every outcome, counter and resident line.
        #[test]
        fn lookup_equals_the_reference_lru(
            ways in proptest::sample::select(vec![1u32, 2, 3, 4, 5, 7, 8, 12, 16, 24]),
            profile in any::<bool>(),
            addrs in proptest::collection::vec(0u64..4096, 1..400),
        ) {
            let cfg = CacheConfig { size_bytes: 2 * ways * 16, line_bytes: 16, associativity: ways };
            let mut cache = Cache::new(cfg);
            if profile {
                cache.enable_set_profile();
            }
            let mut reference = Reference::new(cfg, profile);
            for &a in &addrs {
                prop_assert_eq!(cache.access(a), reference.access(a));
            }
            prop_assert_eq!(cache.stats(), reference.stats);
            prop_assert_eq!(cache.set_profile(), reference.sets.as_deref());
            prop_assert_eq!(cache.resident_lines(), reference.resident_lines());
        }

        /// Profiling is pure observation: outcomes and aggregate stats are
        /// identical with and without the set profile enabled.
        #[test]
        fn set_profile_never_changes_outcomes(
            addrs in proptest::collection::vec(any::<u32>(), 1..300),
        ) {
            let mut plain = small();
            let mut profiled = small();
            profiled.enable_set_profile();
            for &a in &addrs {
                prop_assert_eq!(plain.access(a as u64), profiled.access(a as u64));
            }
            prop_assert_eq!(plain.stats(), profiled.stats());
        }

        /// `flush` zeroes residency but preserves cumulative statistics,
        /// per-set counters included.
        #[test]
        fn flush_zeroes_residency_preserves_stats(
            addrs in proptest::collection::vec(any::<u32>(), 1..200),
        ) {
            let mut c = small();
            c.enable_set_profile();
            for &a in &addrs {
                c.access(a as u64);
            }
            let stats_before = c.stats();
            let profile_before = c.set_profile().unwrap().to_vec();
            c.flush();
            prop_assert!(c.resident_lines().is_empty());
            prop_assert!(!c.contains(addrs[0] as u64));
            prop_assert_eq!(c.stats(), stats_before);
            prop_assert_eq!(c.set_profile().unwrap(), &profile_before[..]);
        }
    }
}
