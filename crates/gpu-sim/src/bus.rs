//! Host-side PCIe bus arbitration for a multi-device fleet.
//!
//! One simulated GPU owns its PCIe link outright: [`crate::stream`]
//! charges each copy `latency + bytes / link_bandwidth` on the device's
//! single DMA engine and nothing else contends for the wire. A fleet of
//! N devices is different — every `h2d`/`d2h` crosses shared host-side
//! resources (the root-complex links, the host memory channels feeding
//! pinned staging buffers), and those do *not* scale with N. This module
//! models that shared segment as one resource with an aggregate
//! bandwidth: before a device-level copy is released, the host must
//! *acquire* the bus for `bytes / aggregate_bandwidth` seconds.
//!
//! The arbiter keeps the booked `[start, end)` intervals and grants each
//! copy the earliest gap at or after its `ready` time that is long
//! enough for its occupancy. Bookings therefore need not arrive in time
//! order: a readback booked for a kernel that ends in the future does
//! not hold back an upload from another device that is ready now — the
//! upload takes the idle gap in front of the booking, as the root
//! complex would on real hardware. When `ready` times arrive
//! non-decreasing there is never a usable gap before the last booking,
//! and the grants are exactly those of a FIFO.
//!
//! Two deliberate asymmetries keep the single-device schedule exact:
//!
//! * the per-copy setup latency (link training, doorbells) is per-device
//!   hardware and is **not** charged to the shared bus;
//! * the aggregate bandwidth is at least one device's link bandwidth, so
//!   a lone device's bus occupancy always ends before its own DMA engine
//!   finishes the same copy — the arbiter never delays it.
//!
//! With several devices the occupancies serialize, which is exactly the
//! sublinear-scaling knee the fleet benchmarks measure.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Shared host-side transfer segment for a device fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Aggregate bytes/second the shared segment sustains across all
    /// devices' concurrent copies.
    pub aggregate_bytes_per_sec: f64,
}

impl BusConfig {
    /// Shared-segment defaults for PCIe gen2 hosts: the host-memory
    /// channels feeding the pinned staging buffers top out around
    /// 16 GB/s, i.e. between two and three concurrent full-rate x16
    /// copies (6 GB/s effective each) regardless of how many devices
    /// are plugged in.
    pub fn gen2_host() -> Self {
        BusConfig {
            aggregate_bytes_per_sec: 16.0e9,
        }
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::gen2_host()
    }
}

/// Cumulative arbiter statistics for a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BusStats {
    /// Copies granted bus time.
    pub grants: u64,
    /// Grants that had to wait behind another device's transfer.
    pub contended: u64,
    /// Total seconds grants spent waiting for the bus.
    pub waited_seconds: f64,
    /// Total seconds the bus spent moving bytes.
    pub busy_seconds: f64,
    /// Total bytes moved.
    pub bytes: u64,
}

impl BusStats {
    /// Busy fraction of the bus over `makespan` seconds, in [0, 1].
    pub fn utilisation(&self, makespan: f64) -> f64 {
        if makespan <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / makespan).min(1.0)
        }
    }
}

/// A simulated instant, totally ordered so it can key the booking map.
#[derive(Debug, Clone, Copy, PartialEq)]
struct At(f64);

impl Eq for At {}

impl PartialOrd for At {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for At {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Deterministic gap-filling arbiter over the shared transfer segment:
/// each grant is the earliest instant at or after the copy's `ready`
/// time where `bytes / aggregate_bytes_per_sec` of bus time is free.
#[derive(Debug, Clone)]
pub struct PcieBusArbiter {
    cfg: BusConfig,
    /// Disjoint busy blocks, start → end. Touching bookings are merged,
    /// so a FIFO-ordered stream of grants stays one block.
    busy: BTreeMap<At, f64>,
    stats: BusStats,
}

impl PcieBusArbiter {
    /// An idle bus.
    pub fn new(cfg: BusConfig) -> Self {
        PcieBusArbiter {
            cfg,
            busy: BTreeMap::new(),
            stats: BusStats::default(),
        }
    }

    /// Acquire the bus for a `bytes`-sized copy that is otherwise ready
    /// at `ready` seconds. Returns the instant the device-level copy may
    /// be released: `ready` when the bus is idle for the copy's whole
    /// occupancy from then on, else the start of the first idle gap
    /// after `ready` that is long enough.
    pub fn acquire(&mut self, ready: f64, bytes: u64) -> f64 {
        let occupancy = if self.cfg.aggregate_bytes_per_sec > 0.0 {
            bytes as f64 / self.cfg.aggregate_bytes_per_sec
        } else {
            0.0
        };
        // A zero-length copy books nothing but still cannot start inside
        // another copy's occupancy.
        let granted = self.earliest_gap(ready, occupancy);
        if occupancy > 0.0 {
            self.book(granted, granted + occupancy);
        }
        self.stats.grants += 1;
        if granted > ready {
            self.stats.contended += 1;
            self.stats.waited_seconds += granted - ready;
        }
        self.stats.busy_seconds += occupancy;
        self.stats.bytes += bytes;
        granted
    }

    /// First instant `>= ready` with `occupancy` seconds of idle bus.
    fn earliest_gap(&self, ready: f64, occupancy: f64) -> f64 {
        let mut start = ready;
        // The last block starting at or before `ready` may still cover it.
        if let Some((_, &end)) = self.busy.range(..=At(ready)).next_back() {
            start = start.max(end);
        }
        for (&At(block_start), &block_end) in self.busy.range((Excluded(At(ready)), Unbounded)) {
            if block_start >= start + occupancy {
                break;
            }
            start = start.max(block_end);
        }
        start
    }

    /// Book `[start, end)`, merging with blocks it exactly touches.
    fn book(&mut self, mut start: f64, mut end: f64) {
        if let Some((&At(prev_start), &prev_end)) = self.busy.range(..=At(start)).next_back() {
            if prev_end == start {
                self.busy.remove(&At(prev_start));
                start = prev_start;
            }
        }
        if let Some(next_end) = self.busy.remove(&At(end)) {
            end = next_end;
        }
        self.busy.insert(At(start), end);
    }

    /// When the bus goes idle after its last booking.
    pub fn free_at(&self) -> f64 {
        self.busy.values().next_back().copied().unwrap_or(0.0)
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_bus_grants_at_ready_time() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        });
        assert_eq!(bus.acquire(5.0, 1_000_000_000), 5.0);
        assert_eq!(bus.free_at(), 6.0);
        let s = bus.stats();
        assert_eq!(s.grants, 1);
        assert_eq!(s.contended, 0);
        assert_eq!(s.busy_seconds, 1.0);
    }

    #[test]
    fn concurrent_copies_serialize_and_count_contention() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        });
        assert_eq!(bus.acquire(0.0, 2_000_000_000), 0.0);
        // Second device ready mid-transfer: pushed to the bus-free edge.
        assert_eq!(bus.acquire(1.0, 1_000_000_000), 2.0);
        let s = bus.stats();
        assert_eq!(s.contended, 1);
        assert_eq!(s.waited_seconds, 1.0);
        assert_eq!(s.bytes, 3_000_000_000);
    }

    #[test]
    fn lone_device_is_never_delayed_when_aggregate_covers_its_link() {
        // Device link 6 GB/s, shared segment 16 GB/s: the bus occupancy
        // of any copy ends before the device's own DMA engine would, so
        // back-to-back copies from one device always find the bus idle.
        let mut bus = PcieBusArbiter::new(BusConfig::gen2_host());
        let bytes = 1_000_000u64;
        let device_copy_seconds = bytes as f64 / 6.0e9;
        let mut ready = 0.0;
        for _ in 0..16 {
            let granted = bus.acquire(ready, bytes);
            assert_eq!(granted, ready, "lone device delayed by its own bus");
            ready = granted + device_copy_seconds;
        }
        assert_eq!(bus.stats().contended, 0);
    }

    #[test]
    fn zero_bandwidth_degrades_to_a_pass_through() {
        let mut bus = PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 0.0,
        });
        assert_eq!(bus.acquire(3.0, 1 << 20), 3.0);
        assert_eq!(bus.acquire(3.0, 1 << 20), 3.0);
        assert_eq!(bus.stats().busy_seconds, 0.0);
    }

    fn one_gbps() -> PcieBusArbiter {
        PcieBusArbiter::new(BusConfig {
            aggregate_bytes_per_sec: 1.0e9,
        })
    }

    #[test]
    fn later_acquired_copy_ready_earlier_fills_the_gap_ahead() {
        let mut bus = one_gbps();
        // A readback booked for a kernel that ends at t = 10 s …
        assert_eq!(bus.acquire(10.0, 1_000_000_000), 10.0);
        // … does not hold back an upload that is ready now.
        assert_eq!(bus.acquire(2.0, 3_000_000_000), 2.0);
        let s = bus.stats();
        assert_eq!(s.contended, 0);
        assert_eq!(s.waited_seconds, 0.0);
        assert_eq!(bus.free_at(), 11.0);
    }

    #[test]
    fn copy_that_fits_a_gap_exactly_is_granted_in_it() {
        let mut bus = one_gbps();
        // Book [0, 1) and [3, 4).
        assert_eq!(bus.acquire(0.0, 1_000_000_000), 0.0);
        assert_eq!(bus.acquire(3.0, 1_000_000_000), 3.0);
        // Ready mid-block: pushed to 1, and [1, 3) is exactly 2 s long.
        assert_eq!(bus.acquire(0.5, 2_000_000_000), 1.0);
        // The bus is now solid from 0 to 4: the next copy queues at 4.
        assert_eq!(bus.acquire(0.0, 500_000_000), 4.0);
        assert_eq!(bus.free_at(), 4.5);
    }

    #[test]
    fn copy_too_long_for_a_gap_skips_past_it() {
        let mut bus = one_gbps();
        // Book [0, 1) and [2, 3).
        assert_eq!(bus.acquire(0.0, 1_000_000_000), 0.0);
        assert_eq!(bus.acquire(2.0, 1_000_000_000), 2.0);
        // [1, 2) is only 1 s long; a 1.5 s copy waits for the bus at 3.
        assert_eq!(bus.acquire(1.0, 1_500_000_000), 3.0);
        let s = bus.stats();
        assert_eq!(s.contended, 1);
        assert_eq!(s.waited_seconds, 2.0);
    }

    #[test]
    fn contention_counts_only_real_overlap() {
        let mut bus = one_gbps();
        // Book [5, 6).
        assert_eq!(bus.acquire(5.0, 1_000_000_000), 5.0);
        // Ends exactly where the booking starts: no overlap, no wait.
        assert_eq!(bus.acquire(4.0, 1_000_000_000), 4.0);
        // Starts exactly where the bus goes idle: no overlap either.
        assert_eq!(bus.acquire(6.0, 1_000_000_000), 6.0);
        assert_eq!(bus.stats().contended, 0);
        assert_eq!(bus.stats().waited_seconds, 0.0);
        // Overlaps [4, 7) by 0.25 s: waits exactly until 7.
        assert_eq!(bus.acquire(6.75, 1_000_000_000), 7.0);
        let s = bus.stats();
        assert_eq!(s.grants, 4);
        assert_eq!(s.contended, 1);
        assert_eq!(s.waited_seconds, 0.25);
        assert_eq!(s.busy_seconds, 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn grants_never_overlap_and_never_precede_ready(
            copies in proptest::collection::vec((0u32..2_000, 1u64..5_000), 1..80),
        ) {
            let mut bus = one_gbps();
            let mut booked: Vec<(f64, f64)> = Vec::new();
            for &(ready_us, bytes) in &copies {
                let ready = ready_us as f64 * 1.0e-6;
                let granted = bus.acquire(ready, bytes * 1_000);
                prop_assert!(granted >= ready);
                booked.push((granted, granted + (bytes * 1_000) as f64 / 1.0e9));
            }
            booked.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in booked.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
            }
        }

        #[test]
        fn non_decreasing_ready_reproduces_fifo_grants_exactly(
            copies in proptest::collection::vec((0u32..400, 0u64..5_000), 1..80),
        ) {
            let mut bus = one_gbps();
            let (mut ready, mut free) = (0.0f64, 0.0f64);
            let (mut contended, mut waited) = (0u64, 0.0f64);
            for &(step_us, bytes) in &copies {
                ready += step_us as f64 * 1.0e-6;
                let bytes = bytes * 1_000;
                // The single-`free`-mark FIFO this arbiter replaces.
                let fifo = ready.max(free);
                free = fifo + bytes as f64 / 1.0e9;
                if fifo > ready {
                    contended += 1;
                    waited += fifo - ready;
                }
                prop_assert_eq!(bus.acquire(ready, bytes), fifo);
            }
            prop_assert_eq!(bus.stats().contended, contended);
            prop_assert_eq!(bus.stats().waited_seconds, waited);
        }
    }
}
