//! Global (device) memory: the functional byte store plus the GT200
//! per-half-warp coalescing analyzer.
//!
//! The paper (§IV.B.3): "Multiple global memory loads whose addresses fall
//! within 128-bytes range are combined into one request to be sent to the
//! global memory." The analyzer below implements the GT200 rule set:
//! active lane addresses of a half-warp are grouped by 128-byte segment;
//! each group becomes a single transaction whose size is the group's span
//! rounded up to 32, 64 or 128 bytes.

use crate::config::GpuConfig;

/// The device's linear global memory. Purely functional — timing is
/// computed by the scheduler from the transaction list the analyzer
/// produces.
#[derive(Debug, Clone, Default)]
pub struct GlobalMemory {
    data: Vec<u8>,
}

impl GlobalMemory {
    /// Allocate `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        GlobalMemory {
            data: vec![0; size],
        }
    }

    /// Allocate and initialize from host data (the `cudaMemcpy` of the
    /// paper's phase 2 setup; its time is excluded from measurements just
    /// as the paper excludes its copies).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        GlobalMemory { data }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.data[addr as usize]
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

    /// Borrow the raw bytes (host-side result readback).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Copy host bytes in at `addr`, in place.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let a = addr as usize;
        self.data[a..a + bytes.len()].copy_from_slice(bytes);
    }

    /// Grow to at least `len` bytes; new bytes read as zero.
    pub fn grow(&mut self, len: usize) {
        if len > self.data.len() {
            self.data.resize(len, 0);
        }
    }
}

/// Bytes per page of a [`StoreLog`].
const STORE_PAGE: usize = 4096;

/// One SM's global stores during a launch, kept as written bytes over the
/// launch-start image. The SM's own loads see the image overlaid with
/// these stores; other SMs see them only when the device applies every
/// SM's log, in SM order, at the end of the launch. Within an SM the last
/// store to a byte wins, so applying the logs in SM order leaves memory
/// exactly as running the SMs one after another would.
///
/// Memory is bounded by the pages written, not by the number of stores:
/// the AC kernels rewrite one result word per thread many times over.
#[derive(Debug, Default)]
pub(crate) struct StoreLog {
    /// Written pages, sorted by page number.
    pages: Vec<(u64, Box<StorePage>)>,
    /// Index into `pages` of the page touched last; stores cluster.
    last: usize,
    /// Byte range `[lo, hi)` spanning every store. Loads outside it read
    /// the image directly, which is every input load of the AC kernels.
    lo: u64,
    hi: u64,
}

#[derive(Debug)]
struct StorePage {
    bytes: [u8; STORE_PAGE],
    written: [u64; STORE_PAGE / 64],
}

impl StoreLog {
    /// Log a little-endian 32-bit store. Panics when it falls past the end
    /// of `image`, as a store straight into device memory would.
    pub(crate) fn write_u32(&mut self, image: &GlobalMemory, addr: u64, value: u32) {
        let end = addr + 4;
        assert!(
            end <= image.len() as u64,
            "global store at {addr:#x} past the end of device memory ({} bytes)",
            image.len()
        );
        if self.lo == self.hi {
            (self.lo, self.hi) = (addr, end);
        } else {
            (self.lo, self.hi) = (self.lo.min(addr), self.hi.max(end));
        }
        let off = addr as usize % STORE_PAGE;
        if off % 64 <= 60 {
            // The word sits in one page and one written-bit word.
            let page = self.page_mut(addr / STORE_PAGE as u64);
            page.bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
            page.written[off / 64] |= 0xF << (off % 64);
            return;
        }
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            let a = addr + i as u64;
            let off = a as usize % STORE_PAGE;
            let page = self.page_mut(a / STORE_PAGE as u64);
            page.bytes[off] = b;
            page.written[off / 64] |= 1 << (off % 64);
        }
    }

    fn page_mut(&mut self, page: u64) -> &mut StorePage {
        if self.pages.get(self.last).is_none_or(|(p, _)| *p != page) {
            self.last = match self.pages.binary_search_by_key(&page, |(p, _)| *p) {
                Ok(i) => i,
                Err(i) => {
                    let fresh = StorePage {
                        bytes: [0; STORE_PAGE],
                        written: [0; STORE_PAGE / 64],
                    };
                    self.pages.insert(i, (page, Box::new(fresh)));
                    i
                }
            };
        }
        &mut self.pages[self.last].1
    }

    fn written_u8(&self, addr: u64) -> Option<u8> {
        if addr < self.lo || addr >= self.hi {
            return None;
        }
        let off = addr as usize % STORE_PAGE;
        let i = self
            .pages
            .binary_search_by_key(&(addr / STORE_PAGE as u64), |(p, _)| *p)
            .ok()?;
        let page = &self.pages[i].1;
        (page.written[off / 64] >> (off % 64) & 1 == 1).then_some(page.bytes[off])
    }

    /// Read one byte as this SM sees it.
    #[inline]
    pub(crate) fn read_u8(&self, image: &GlobalMemory, addr: u64) -> u8 {
        self.written_u8(addr).unwrap_or_else(|| image.read_u8(addr))
    }

    /// Read a little-endian 32-bit word as this SM sees it.
    #[inline]
    pub(crate) fn read_u32(&self, image: &GlobalMemory, addr: u64) -> u32 {
        if addr + 4 <= self.lo || addr >= self.hi {
            return image.read_u32(addr);
        }
        u32::from_le_bytes(std::array::from_fn(|i| {
            self.read_u8(image, addr + i as u64)
        }))
    }

    /// Write every logged byte into `mem`.
    pub(crate) fn apply(self, mem: &mut GlobalMemory) {
        for (page, p) in self.pages {
            let base = page as usize * STORE_PAGE;
            for (w, &bits) in p.written.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let off = w * 64 + bits.trailing_zeros() as usize;
                    mem.data[base + off] = p.bytes[off];
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// One coalesced DRAM transaction: `(segment base address, size in bytes)`.
pub type Transaction = (u64, u32);

/// Most lanes in a half-warp: [`GpuConfig::validate`] caps warps at 32.
pub const MAX_HALF_WARP: usize = 16;

/// Coalesce the active lanes of one half-warp.
///
/// `accesses` holds `(address, width)` pairs for the active lanes
/// (inactive lanes are simply omitted). Returns one transaction per
/// distinct `coalesce_segment`-sized segment, sized to the 32/64/128-byte
/// granule covering the group's span — the GT200 memory controller's
/// behaviour that rewards the paper's cooperative staging loop and
/// punishes the global-only kernel's strided reads.
pub fn coalesce_halfwarp(cfg: &GpuConfig, accesses: &[(u64, u32)]) -> Vec<Transaction> {
    let mut txns = [(0, 0); MAX_HALF_WARP];
    let n = coalesce_halfwarp_into(cfg, accesses, &mut txns);
    txns[..n].to_vec()
}

/// [`coalesce_halfwarp`] into a caller-owned buffer, for the simulator's
/// hot path: writes the transactions to `out[..n]` and returns `n`.
/// At most [`MAX_HALF_WARP`] accesses; `cfg` must be valid (its segment a
/// power of two).
pub fn coalesce_halfwarp_into(
    cfg: &GpuConfig,
    accesses: &[(u64, u32)],
    out: &mut [Transaction; MAX_HALF_WARP],
) -> usize {
    debug_assert!(cfg.coalesce_segment.is_power_of_two());
    let seg_mask = !(cfg.coalesce_segment as u64 - 1);
    // Half-warps are ≤16 lanes: a sort-free O(n²) merge on stack arrays.
    // `out[g].0` is group g's segment base, `spans[g]` its byte range.
    let mut spans = [(0u64, 0u64); MAX_HALF_WARP];
    let mut n = 0;
    for &(addr, width) in accesses {
        let base = addr & seg_mask;
        let (lo, hi) = (addr, addr + width as u64);
        match out[..n].iter().position(|t| t.0 == base) {
            Some(g) => {
                spans[g].0 = spans[g].0.min(lo);
                spans[g].1 = spans[g].1.max(hi);
            }
            None => {
                out[n].0 = base;
                spans[n] = (lo, hi);
                n += 1;
            }
        }
    }
    for (t, &(lo, hi)) in out.iter_mut().zip(&spans).take(n) {
        // Round the span up to the smallest GT200 granule that covers it:
        // 32, 64, or the full segment (128).
        let span = hi - lo;
        t.1 = if span <= 32 {
            32
        } else if span <= 64 {
            64
        } else {
            cfg.coalesce_segment
        };
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::gtx285() // 128-byte segments
    }

    #[test]
    fn contiguous_words_fuse_into_one_transaction() {
        // 16 lanes × 4 bytes contiguous = 64 bytes in one segment — the
        // paper's Fig. 9 staging pattern.
        let accesses: Vec<(u64, u32)> = (0..16).map(|l| (l * 4, 4)).collect();
        let txns = coalesce_halfwarp(&cfg(), &accesses);
        assert_eq!(txns, vec![(0, 64)]);
    }

    #[test]
    fn strided_bytes_explode_into_many_transactions() {
        // 16 lanes reading 1 byte each, 1 KB apart (the global-only
        // kernel's per-thread chunk walk): 16 separate 32-byte requests.
        let accesses: Vec<(u64, u32)> = (0..16).map(|l| (l * 1024, 1)).collect();
        let txns = coalesce_halfwarp(&cfg(), &accesses);
        assert_eq!(txns.len(), 16);
        assert!(txns.iter().all(|&(_, s)| s == 32));
    }

    #[test]
    fn span_rounds_to_granules() {
        // Two lanes 40 bytes apart within one segment → 64-byte granule.
        let txns = coalesce_halfwarp(&cfg(), &[(0, 4), (40, 4)]);
        assert_eq!(txns, vec![(0, 64)]);
        // Span > 64 → full 128-byte segment.
        let txns = coalesce_halfwarp(&cfg(), &[(0, 4), (100, 4)]);
        assert_eq!(txns, vec![(0, 128)]);
    }

    #[test]
    fn segment_straddling_pair_costs_two() {
        // Addresses in different 128-byte segments never merge even if
        // adjacent.
        let txns = coalesce_halfwarp(&cfg(), &[(124, 4), (128, 4)]);
        assert_eq!(txns.len(), 2);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let txns = coalesce_halfwarp(&cfg(), &[(64, 4), (64, 4), (64, 4)]);
        assert_eq!(txns, vec![(0, 32)]);
    }

    #[test]
    fn empty_halfwarp_no_transactions() {
        assert!(coalesce_halfwarp(&cfg(), &[]).is_empty());
    }

    /// The coalescing rule as first written: a growable group list and
    /// division to find each segment.
    fn reference_coalesce(cfg: &GpuConfig, accesses: &[(u64, u32)]) -> Vec<Transaction> {
        let seg = cfg.coalesce_segment as u64;
        let mut groups: Vec<(u64, u64, u64)> = Vec::new();
        for &(addr, width) in accesses {
            let base = addr / seg * seg;
            let hi = addr + width as u64;
            match groups.iter_mut().find(|g| g.0 == base) {
                Some(g) => {
                    g.1 = g.1.min(addr);
                    g.2 = g.2.max(hi);
                }
                None => groups.push((base, addr, hi)),
            }
        }
        groups
            .into_iter()
            .map(|(base, lo, hi)| {
                let size = match hi - lo {
                    0..=32 => 32,
                    33..=64 => 64,
                    _ => cfg.coalesce_segment,
                };
                (base, size)
            })
            .collect()
    }

    /// A store as four independent byte stores into a plain overlay.
    fn reference_store(bytes: &mut [Option<u8>], addr: u64, value: u32) {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            bytes[addr as usize + i] = Some(b);
        }
    }

    proptest::proptest! {
        /// Coalescing invariants: one transaction per distinct segment,
        /// never more transactions than accesses, every granule legal,
        /// and each access covered by a transaction in its segment.
        #[test]
        fn coalesce_invariants(
            accesses in proptest::collection::vec((0u64..1u64 << 20, proptest::sample::select(vec![1u32, 4])), 1..16)
        ) {
            let cfg = cfg();
            let txns = coalesce_halfwarp(&cfg, &accesses);
            proptest::prop_assert!(txns.len() <= accesses.len());
            let mut segs: Vec<u64> = accesses.iter().map(|&(a, _)| a / 128).collect();
            segs.sort_unstable();
            segs.dedup();
            proptest::prop_assert_eq!(txns.len(), segs.len());
            for &(base, size) in &txns {
                proptest::prop_assert_eq!(base % 128, 0);
                proptest::prop_assert!(matches!(size, 32 | 64 | 128));
            }
            for &(a, w) in &accesses {
                let seg = a / 128 * 128;
                let t = txns.iter().find(|&&(b, _)| b == seg).expect("segment served");
                // The transaction's granule must reach the access (spans
                // are measured from the segment's low accessed byte, so
                // coverage is relative to the group's span).
                let lo = accesses.iter().filter(|&&(x, _)| x / 128 == a / 128).map(|&(x, _)| x).min().unwrap();
                proptest::prop_assert!(a + w as u64 - lo <= t.1 as u64);
            }
        }
    }

    proptest::proptest! {
        /// The in-place coalescer equals the first-written rule, on every
        /// segment size a device may use.
        #[test]
        fn coalesce_into_equals_the_reference(
            seg_pow in 5u32..9,
            accesses in proptest::collection::vec((0u64..1u64 << 12, proptest::sample::select(vec![1u32, 2, 4])), 0..=16)
        ) {
            let cfg = GpuConfig { coalesce_segment: 1 << seg_pow, ..cfg() };
            let mut out = [(0, 0); MAX_HALF_WARP];
            let n = coalesce_halfwarp_into(&cfg, &accesses, &mut out);
            proptest::prop_assert_eq!(&out[..n], &reference_coalesce(&cfg, &accesses)[..]);
            proptest::prop_assert_eq!(coalesce_halfwarp(&cfg, &accesses), reference_coalesce(&cfg, &accesses));
        }

        /// Word stores equal byte-wise stores, including words that
        /// straddle a written-bit word (64 bytes) or a page: every byte
        /// reads back the same, and applying the log leaves the same image.
        #[test]
        fn store_log_words_equal_byte_stores(
            stores in proptest::collection::vec(
                (0u64..3 * STORE_PAGE as u64 - 4, proptest::sample::select(vec![0u64, 1, 2, 3, 59, 60, 61, 62, 63]), proptest::prelude::any::<u32>()),
                1..60,
            )
        ) {
            let len = 3 * STORE_PAGE;
            let image = GlobalMemory::from_bytes((0..len).map(|i| (i * 7) as u8).collect());
            let mut log = StoreLog::default();
            let mut overlay = vec![None; len];
            for &(addr, edge, value) in &stores {
                // Half the stores are pulled to an offset near the end of
                // a 64-byte group, where a word can straddle it.
                let addr = if edge == 0 { addr } else { (addr & !63) + edge };
                let addr = addr.min(len as u64 - 4);
                log.write_u32(&image, addr, value);
                reference_store(&mut overlay, addr, value);
            }
            for (a, o) in overlay.iter().enumerate() {
                proptest::prop_assert_eq!(log.read_u8(&image, a as u64), o.unwrap_or(image.read_u8(a as u64)));
            }
            let mut applied = image.clone();
            log.apply(&mut applied);
            for (a, o) in overlay.iter().enumerate() {
                proptest::prop_assert_eq!(applied.read_u8(a as u64), o.unwrap_or(image.read_u8(a as u64)));
            }
        }
    }

    #[test]
    fn functional_reads_and_writes() {
        let mut g = GlobalMemory::new(64);
        g.write_u32(8, 0xDEADBEEF);
        assert_eq!(g.read_u32(8), 0xDEADBEEF);
        assert_eq!(g.read_u8(8), 0xEF); // little endian
        assert_eq!(g.len(), 64);
        assert!(!g.is_empty());
        let g2 = GlobalMemory::from_bytes(vec![7, 8]);
        assert_eq!(g2.read_u8(1), 8);
    }

    #[test]
    fn store_log_overlays_the_image_until_applied() {
        let mut image =
            GlobalMemory::from_bytes((0..=255u8).cycle().take(3 * STORE_PAGE).collect());
        let mut log = StoreLog::default();
        // A word straddling a page boundary, then an overwrite of its
        // upper half: the last store to a byte wins.
        let edge = STORE_PAGE as u64 - 2;
        log.write_u32(&image, edge, 0x0403_0201);
        log.write_u32(&image, edge + 2, 0xBBAA);
        assert_eq!(log.read_u32(&image, edge), 0xBBAA_0201);
        assert_eq!(log.read_u8(&image, edge + 5), 0);
        assert_eq!(log.read_u8(&image, edge + 6), image.read_u8(edge + 6));
        // Outside the written range the image shows through.
        assert_eq!(log.read_u32(&image, 8), image.read_u32(8));
        assert_eq!(image.read_u32(edge), u32::from_le_bytes([254, 255, 0, 1]));
        log.apply(&mut image);
        assert_eq!(image.read_u32(edge), 0xBBAA_0201);
        assert_eq!(image.read_u32(edge + 2), 0xBBAA);
        assert_eq!(image.read_u8(edge - 1), 253);
    }

    #[test]
    #[should_panic(expected = "past the end of device memory")]
    fn store_log_rejects_out_of_bounds_stores() {
        let image = GlobalMemory::new(8);
        StoreLog::default().write_u32(&image, 6, 1);
    }
}
