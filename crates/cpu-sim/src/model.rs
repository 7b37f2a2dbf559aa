//! The serial-matcher timing walk.

use crate::config::CpuConfig;
use ac_core::stt::STT_COLUMNS;
use ac_core::Stt;
use mem_sim::{Cache, CacheStats};
use serde::{Deserialize, Serialize};

/// Result of simulating the serial matcher over one input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuRunReport {
    /// Total modelled cycles.
    pub cycles: u64,
    /// Input length in bytes.
    pub bytes: usize,
    /// Matching states entered (output-expansion work indicator).
    pub match_states: u64,
    /// L1D statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
}

impl CpuRunReport {
    /// Modelled wall time in seconds.
    pub fn seconds(&self, cfg: &CpuConfig) -> f64 {
        cfg.cycles_to_seconds(self.cycles)
    }

    /// Modelled throughput in Gbit/s.
    pub fn gbps(&self, cfg: &CpuConfig) -> f64 {
        cfg.gbps(self.bytes, self.cycles)
    }
}

/// Address-space layout of the modelled process: the input buffer starts at
/// a large offset so it never aliases STT lines in the set-indexed caches.
const STT_BASE: u64 = 0;
const INPUT_BASE: u64 = 1 << 40;

/// Bytes per batch of DFA states handed from the walking thread to the
/// cache model. One batch of states is 64 KiB.
pub(crate) const WALK_CHUNK: usize = 16 * 1024;

/// Batches the walking thread may run ahead of the cache model.
const WALK_AHEAD: usize = 4;

/// A state's match flag rides in the top bit of the walk's output.
const MATCH_BIT: u32 = 1 << 31;

/// Simulate the paper's serial matcher (single core) over `text`.
///
/// Walks the *real* DFA over the *real* input, feeding every memory
/// reference through the modelled L1/L2:
///
/// * one sequential input-byte read per position,
/// * one STT entry read per position at `(state_row, 1 + symbol)` —
///   the next-state lookup of paper Fig. 2,
/// * one STT match-flag read per position at `(next_row, 0)`.
///
/// Cost per byte = `base_cycles_per_byte` + miss penalties.
///
/// On the host, a helper thread walks the DFA a few [`WALK_CHUNK`]-byte
/// batches ahead while this thread runs the cache model over the states it
/// sends, in input order; the report is the same as one thread doing
/// both. Inputs of one batch or less run on this thread alone.
pub fn simulate_serial(cfg: &CpuConfig, stt: &Stt, text: &[u8]) -> CpuRunReport {
    assert!(
        stt.state_count() <= MATCH_BIT as usize,
        "state ids must leave the top bit free"
    );
    let mut model = CacheWalk::new(cfg);
    if text.len() <= WALK_CHUNK {
        model.feed(text, &walk(stt, &mut 0, text));
        return model.report(text.len());
    }
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel(WALK_AHEAD);
        let walker = scope.spawn(move || {
            let mut state = 0;
            for chunk in text.chunks(WALK_CHUNK) {
                if tx.send(walk(stt, &mut state, chunk)).is_err() {
                    return;
                }
            }
        });
        for (chunk, states) in text.chunks(WALK_CHUNK).zip(rx) {
            model.feed(chunk, &states);
        }
        if let Err(payload) = walker.join() {
            std::panic::resume_unwind(payload);
        }
    });
    model.report(text.len())
}

/// Run the DFA from `*state` over `chunk`, returning each state entered
/// with its match flag in [`MATCH_BIT`], and leave `*state` at the last.
fn walk(stt: &Stt, state: &mut u32, chunk: &[u8]) -> Vec<u32> {
    chunk
        .iter()
        .map(|&b| {
            *state = stt.next(*state, b);
            *state | if stt.is_match(*state) { MATCH_BIT } else { 0 }
        })
        .collect()
}

/// The cache model and cycle count of the serial walk, fed the walk's
/// states in input order.
struct CacheWalk<'a> {
    cfg: &'a CpuConfig,
    l1: Cache,
    l2: Cache,
    cycles: u64,
    match_states: u64,
    /// Input offset of the next byte fed.
    pos: u64,
    /// The state the next byte is read in.
    state: u32,
}

impl<'a> CacheWalk<'a> {
    fn new(cfg: &'a CpuConfig) -> Self {
        CacheWalk {
            cfg,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            cycles: 0,
            match_states: 0,
            pos: 0,
            state: 0,
        }
    }

    fn touch(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr).is_hit() {
            0
        } else if self.l2.access(addr).is_hit() {
            self.cfg.l1_miss_cycles as u64
        } else {
            (self.cfg.l1_miss_cycles + self.cfg.l2_miss_cycles) as u64
        }
    }

    /// Charge `bytes`, whose walk entered `states`.
    fn feed(&mut self, bytes: &[u8], states: &[u32]) {
        debug_assert_eq!(bytes.len(), states.len());
        for (&b, &entered) in bytes.iter().zip(states) {
            self.cycles += self.cfg.base_cycles_per_byte as u64;
            // Input byte (sequential; one miss per line).
            self.cycles += self.touch(INPUT_BASE + self.pos);
            // Next-state entry.
            let entry = STT_BASE + (self.state as u64 * STT_COLUMNS as u64 + 1 + b as u64) * 4;
            self.cycles += self.touch(entry);
            self.state = entered & !MATCH_BIT;
            // Match flag of the state just entered (column 0).
            let flag = STT_BASE + self.state as u64 * STT_COLUMNS as u64 * 4;
            self.cycles += self.touch(flag);
            if entered & MATCH_BIT != 0 {
                self.match_states += 1;
                // Output expansion: short, mostly-cached work.
                self.cycles += 8;
            }
            self.pos += 1;
        }
    }

    fn report(self, bytes: usize) -> CpuRunReport {
        CpuRunReport {
            cycles: self.cycles,
            bytes,
            match_states: self.match_states,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_core::{AcAutomaton, PatternSet};

    fn stt_for(pats: &[&str]) -> Stt {
        AcAutomaton::build(&PatternSet::from_strs(pats).unwrap())
            .stt()
            .clone()
    }

    fn text(n: usize) -> Vec<u8> {
        // Deterministic English-ish junk.
        let sample = b"the quick brown fox hers he she his ";
        (0..n).map(|i| sample[i % sample.len()]).collect()
    }

    #[test]
    fn empty_text_costs_nothing() {
        let cfg = CpuConfig::core2duo_2_2ghz();
        let r = simulate_serial(&cfg, &stt_for(&["he"]), b"");
        assert_eq!(r.cycles, 0);
        assert_eq!(r.bytes, 0);
        assert_eq!(r.gbps(&cfg), 0.0);
    }

    #[test]
    fn cycles_scale_roughly_linearly_with_input() {
        let cfg = CpuConfig::core2duo_2_2ghz();
        let stt = stt_for(&["he", "she", "his", "hers"]);
        let r1 = simulate_serial(&cfg, &stt, &text(10_000));
        let r2 = simulate_serial(&cfg, &stt, &text(20_000));
        let ratio = r2.cycles as f64 / r1.cycles as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn small_automaton_is_cache_resident() {
        // 10 states × ~1 KB of rows fits easily in L1: after warmup the
        // hit rate must be very high and per-byte cost near base.
        let cfg = CpuConfig::core2duo_2_2ghz();
        let stt = stt_for(&["he", "she", "his", "hers"]);
        let t = text(200_000);
        let r = simulate_serial(&cfg, &stt, &t);
        assert!(r.l1.hit_rate() > 0.98, "hit rate {}", r.l1.hit_rate());
        // Per-byte cost ≈ base + match-expansion work (this sample text is
        // match-dense) + a small miss term; nowhere near the miss-dominated
        // regime of a large automaton.
        let per_byte = r.cycles as f64 / t.len() as f64;
        assert!(
            per_byte < cfg.base_cycles_per_byte as f64 + 6.0,
            "per byte {per_byte}"
        );
    }

    #[test]
    fn large_automaton_degrades_throughput() {
        // The paper's mechanism: more patterns → bigger STT → more cache
        // misses → lower serial throughput (Figs. 13/16).
        let cfg = CpuConfig::core2duo_2_2ghz();
        let small = stt_for(&["qq", "zz"]);
        let many: Vec<String> = (0..3000)
            .map(|i| format!("{:04x}{:03}", i * 2654435761u64 % 65536, i % 971))
            .collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let big = stt_for(&refs);
        assert!(
            big.size_bytes() > 4 * 1024 * 1024,
            "table only {} bytes",
            big.size_bytes()
        );
        let t = text(300_000);
        let fast = simulate_serial(&cfg, &small, &t);
        let slow = simulate_serial(&cfg, &big, &t);
        assert!(
            slow.cycles > fast.cycles,
            "big-table walk not slower: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn match_states_counted() {
        let cfg = CpuConfig::core2duo_2_2ghz();
        let stt = stt_for(&["he"]);
        let r = simulate_serial(&cfg, &stt, b"he he he");
        assert_eq!(r.match_states, 3);
    }

    /// The serial walk in one loop on one thread: the reference the
    /// pipelined [`simulate_serial`] must equal.
    fn reference_walk(cfg: &CpuConfig, stt: &Stt, text: &[u8]) -> CpuRunReport {
        let mut l1 = Cache::new(cfg.l1);
        let mut l2 = Cache::new(cfg.l2);
        let mut touch = |addr: u64| -> u64 {
            if l1.access(addr).is_hit() {
                0
            } else if l2.access(addr).is_hit() {
                cfg.l1_miss_cycles as u64
            } else {
                (cfg.l1_miss_cycles + cfg.l2_miss_cycles) as u64
            }
        };
        let (mut cycles, mut match_states, mut state) = (0u64, 0u64, 0u32);
        for (i, &b) in text.iter().enumerate() {
            cycles += cfg.base_cycles_per_byte as u64;
            cycles += touch(INPUT_BASE + i as u64);
            cycles += touch(STT_BASE + (state as u64 * STT_COLUMNS as u64 + 1 + b as u64) * 4);
            state = stt.next(state, b);
            cycles += touch(STT_BASE + state as u64 * STT_COLUMNS as u64 * 4);
            if stt.is_match(state) {
                match_states += 1;
                cycles += 8;
            }
        }
        CpuRunReport {
            cycles,
            bytes: text.len(),
            match_states,
            l1: l1.stats(),
            l2: l2.stats(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Pipelined == one-thread walk, below, at and across the batch
        /// size: cycles, matches and both caches' counters.
        #[test]
        fn pipelined_walk_equals_reference(
            pats in proptest::collection::vec("[a-d]{1,4}", 1..8),
            len in proptest::sample::select(vec![
                0,
                1,
                WALK_CHUNK / 3,
                WALK_CHUNK - 1,
                WALK_CHUNK,
                WALK_CHUNK + 1,
                2 * WALK_CHUNK,
                3 * WALK_CHUNK + 777,
            ]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let stt = stt_for(&refs);
            let mut x = seed | 1;
            let text: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    b"abcde"[(x % 5) as usize]
                })
                .collect();
            let cfg = CpuConfig::core2duo_2_2ghz();
            proptest::prop_assert_eq!(
                simulate_serial(&cfg, &stt, &text),
                reference_walk(&cfg, &stt, &text)
            );
        }
    }

    #[test]
    fn report_units() {
        let cfg = CpuConfig::core2duo_2_2ghz();
        let r = CpuRunReport {
            cycles: 2_200_000_000,
            bytes: 440_000_000,
            match_states: 0,
            l1: CacheStats::default(),
            l2: CacheStats::default(),
        };
        assert!((r.seconds(&cfg) - 1.0).abs() < 1e-9);
        assert!((r.gbps(&cfg) - 3.52).abs() < 0.01);
    }
}
