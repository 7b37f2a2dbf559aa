//! Per-block shared memory with the GT200 bank-conflict model.
//!
//! Shared memory is divided into `shared_banks` banks of 32-bit words;
//! successive words live in successive banks (paper §IV.B.3). Accesses are
//! evaluated per half-warp: if k active lanes touch k *distinct word
//! addresses* in the same bank, the access serializes into k passes. All
//! lanes reading the *same* word is a broadcast and costs one pass — the
//! GT200 special case.

use crate::config::GpuConfig;
use crate::global::MAX_HALF_WARP;
use mem_sim::BankHistogram;

/// A block's shared memory: functional byte store sized at launch.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<u8>,
    banks: u32,
}

impl SharedMemory {
    /// Allocate `size` zeroed bytes with the device's bank count.
    pub fn new(size: u32, banks: u32) -> Self {
        SharedMemory {
            data: vec![0; size as usize],
            banks,
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bank holding byte address `addr` (bank of its containing word).
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u32 {
        ((addr / 4) % self.banks as u64) as u32
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.data[addr as usize]
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.data[addr as usize] = value;
    }

    /// Read a little-endian 32-bit word.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("u32 read in bounds"))
    }

    /// Write a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Zero the contents (block retirement reuse).
    pub fn clear(&mut self) {
        self.data.fill(0);
    }
}

/// Serialization passes needed by one half-warp's shared access.
///
/// `addrs` are the byte addresses of the *active* lanes. Returns ≥ 1 for a
/// non-empty access: the maximum, over banks, of the number of distinct
/// words addressed in that bank (conflict degree). Identical words count
/// once (broadcast).
pub fn conflict_passes(cfg: &GpuConfig, addrs: &[u64]) -> u32 {
    if addrs.is_empty() {
        return 0;
    }
    // The common case, every lane in a bank of its own (the paper's
    // diagonal layout), is one pass with nothing to de-duplicate.
    let mut banks = 0u32;
    for &a in addrs {
        let bank = 1 << bank_of_word(cfg, a / 4);
        if banks & bank != 0 {
            let counts = bank_word_counts(cfg, addrs);
            return counts.iter().copied().max().unwrap_or(0).max(1);
        }
        banks |= bank;
    }
    1
}

/// As [`conflict_passes`], additionally recording the per-bank distinct-word
/// distribution into `hist`. Called only on the armed-introspection path:
/// the return value is byte-for-byte the same as [`conflict_passes`], so
/// timing cannot drift, and the extra scan never runs disarmed.
pub fn conflict_passes_profiled(cfg: &GpuConfig, addrs: &[u64], hist: &mut BankHistogram) -> u32 {
    if addrs.is_empty() {
        return 0;
    }
    let counts = bank_word_counts(cfg, addrs);
    let passes = counts.iter().copied().max().unwrap_or(0).max(1);
    hist.record(&counts[..cfg.shared_banks as usize], passes);
    passes
}

/// Distinct words addressed per bank by one half-warp (indices past
/// `shared_banks` stay zero).
fn bank_word_counts(cfg: &GpuConfig, addrs: &[u64]) -> [u32; 32] {
    // Half-warps are ≤16 lanes: de-duplicate the words on a stack array,
    // then count each distinct word once in its bank.
    debug_assert!(addrs.len() <= MAX_HALF_WARP);
    let mut words = [0u64; MAX_HALF_WARP];
    let mut n = 0;
    for &a in addrs {
        let word = a / 4;
        if !words[..n].contains(&word) {
            words[n] = word;
            n += 1;
        }
    }
    let mut counts = [0u32; 32];
    for &word in &words[..n] {
        counts[bank_of_word(cfg, word) as usize] += 1;
    }
    counts
}

/// Bank of shared-memory word `word`.
#[inline]
fn bank_of_word(cfg: &GpuConfig, word: u64) -> u32 {
    let banks = cfg.shared_banks as u64;
    let bank = if banks.is_power_of_two() {
        word & (banks - 1)
    } else {
        word % banks
    };
    bank as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> GpuConfig {
        GpuConfig::gtx285() // 16 banks
    }

    #[test]
    fn consecutive_words_are_conflict_free() {
        // Lane l touches word l → 16 lanes, 16 distinct banks → 1 pass.
        let addrs: Vec<u64> = (0..16).map(|l| l * 4).collect();
        assert_eq!(conflict_passes(&cfg(), &addrs), 1);
    }

    #[test]
    fn stride_16_words_fully_serializes() {
        // Lane l touches word l*16 → all in bank 0 → 16 passes. This is
        // exactly the naive chunk layout the paper's Fig. 23 baseline
        // suffers from (chunk size = 64 bytes = 16 words).
        let addrs: Vec<u64> = (0..16).map(|l| l * 16 * 4).collect();
        assert_eq!(conflict_passes(&cfg(), &addrs), 16);
    }

    #[test]
    fn broadcast_is_one_pass() {
        let addrs = vec![100; 16];
        assert_eq!(conflict_passes(&cfg(), &addrs), 1);
    }

    #[test]
    fn same_word_different_bytes_is_broadcast() {
        // Bytes 0..3 live in word 0: one distinct word → broadcast.
        let addrs = vec![0, 1, 2, 3];
        assert_eq!(conflict_passes(&cfg(), &addrs), 1);
    }

    #[test]
    fn two_way_conflict() {
        // Lanes split between word 0 and word 16 (both bank 0) → 2 passes.
        let addrs = vec![0, 16 * 4, 4, 8]; // banks 0,0,1,2
        assert_eq!(conflict_passes(&cfg(), &addrs), 2);
    }

    #[test]
    fn empty_access_is_zero_passes() {
        assert_eq!(conflict_passes(&cfg(), &[]), 0);
    }

    #[test]
    fn diagonal_mapping_is_conflict_free_for_any_column() {
        // The paper's store scheme (Fig. 11): thread c's word j lives at
        // word index j*16 + (c + j) % 16. For any fixed j, the 16 lanes
        // must hit 16 distinct banks.
        for j in 0..64u64 {
            let addrs: Vec<u64> = (0..16u64).map(|c| (j * 16 + (c + j) % 16) * 4).collect();
            assert_eq!(conflict_passes(&cfg(), &addrs), 1, "column {j}");
        }
    }

    #[test]
    fn functional_store_and_load() {
        let mut s = SharedMemory::new(64, 16);
        s.write_u32(8, 0xCAFEBABE);
        assert_eq!(s.read_u32(8), 0xCAFEBABE);
        s.write_u8(0, 42);
        assert_eq!(s.read_u8(0), 42);
        assert_eq!(s.bank_of(8), 2);
        assert_eq!(s.bank_of(16 * 4), 0);
        s.clear();
        assert_eq!(s.read_u32(8), 0);
        assert_eq!(s.len(), 64);
        assert!(!s.is_empty());
    }

    #[test]
    fn profiled_passes_fill_histogram() {
        let mut hist = BankHistogram::new(16);
        // Lane l touches word l*16 → all in bank 0 → 16 passes.
        let addrs: Vec<u64> = (0..16).map(|l| l * 16 * 4).collect();
        assert_eq!(conflict_passes_profiled(&cfg(), &addrs, &mut hist), 16);
        assert_eq!(hist.bank_words[0], 16);
        assert_eq!(hist.bank_words[1..].iter().sum::<u64>(), 0);
        assert_eq!(hist.degree_counts[16], 1);
        assert_eq!(hist.conflicted_ops(), 1);
        // Empty access records nothing.
        assert_eq!(conflict_passes_profiled(&cfg(), &[], &mut hist), 0);
        assert_eq!(hist.ops(), 1);
    }

    /// Per-bank arrays of the distinct words seen so far: the counting
    /// rule written without de-duplicating first.
    fn reference_bank_word_counts(banks: u32, addrs: &[u64]) -> [u32; 32] {
        let mut per_bank_words = [[u64::MAX; 16]; 32];
        let mut per_bank_count = [0u32; 32];
        for &a in addrs {
            let word = a / 4;
            let bank = (word % banks as u64) as usize;
            let count = &mut per_bank_count[bank];
            if !per_bank_words[bank][..*count as usize].contains(&word) {
                per_bank_words[bank][*count as usize] = word;
                *count += 1;
            }
        }
        per_bank_count
    }

    proptest! {
        /// Passes are bounded by [1, active lanes] and by the number of
        /// distinct words.
        #[test]
        fn passes_bounds(addrs in proptest::collection::vec(0u64..4096, 1..16)) {
            let p = conflict_passes(&cfg(), &addrs);
            prop_assert!(p >= 1);
            prop_assert!(p as usize <= addrs.len());
            let mut words: Vec<u64> = addrs.iter().map(|a| a / 4).collect();
            words.sort_unstable();
            words.dedup();
            prop_assert!(p as usize <= words.len());
        }

        /// De-duplicating then counting per bank equals the per-bank
        /// arrays, for every bank count the model allows, and the passes
        /// are their largest count.
        #[test]
        fn bank_word_counts_equal_the_per_bank_arrays(
            banks in 1u32..=32,
            addrs in proptest::collection::vec(0u64..1024, 0..=16),
        ) {
            let cfg = GpuConfig { shared_banks: banks, ..cfg() };
            let reference = reference_bank_word_counts(banks, &addrs);
            prop_assert_eq!(bank_word_counts(&cfg, &addrs), reference);
            let passes = if addrs.is_empty() { 0 } else { reference.iter().copied().max().unwrap().max(1) };
            prop_assert_eq!(conflict_passes(&cfg, &addrs), passes);
        }

        /// The profiled variant returns exactly what the plain one does —
        /// introspection can never perturb serialization.
        #[test]
        fn profiled_matches_plain(addrs in proptest::collection::vec(0u64..4096, 0..16)) {
            let mut hist = BankHistogram::new(16);
            prop_assert_eq!(
                conflict_passes_profiled(&cfg(), &addrs, &mut hist),
                conflict_passes(&cfg(), &addrs)
            );
        }
    }
}
