//! The host-visible device: global-memory allocation, texture binding, and
//! kernel launches.

use crate::alloc::{AllocStats, DeviceAllocator};
use crate::attrib::{Attribution, AttributionConfig, AttributionState};
use crate::config::GpuConfig;
use crate::constant::{ConstId, ConstantBuffer};
use crate::error::{DeviceError, LaunchError};
use crate::fault::{FaultState, InjectedFault, LaunchFault, HANG_CYCLES};
use crate::global::GlobalMemory;
use crate::introspect::{IntrospectConfig, IntrospectState, Introspection};
use crate::kernel::{WarpGeometry, WarpProgram};
use crate::scheduler::{run_sm, SmHooks};
use crate::stats::{LaunchStats, SmStats};
use crate::texture::{TexId, Texture2d};
use serde::{Deserialize, Serialize};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use trace::{TraceBuffer, TraceConfig};

/// Busy SMs a launch needs per host thread; with fewer it uses fewer
/// threads. Every thread that joins a launch is a cross-core hand-off,
/// and the launch waits for its slowest thread. A launch with a few busy
/// SMs (a 16 KB serving job fills two or three, each about 1 ms of host
/// time) has no other SMs to even out a thread that stalls, so on a
/// shared host its time swings with whether the other core is free. The
/// large scans, with all 30 SMs busy, still use two cores or more.
const MIN_SMS_PER_WORKER: usize = 8;

/// Grid/block geometry of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block; must be a multiple of the warp size.
    pub threads_per_block: u32,
    /// Shared memory per block in bytes. The paper uses 8–12 KB of the
    /// 16 KB for staged input, "the remaining 4~8KB reserved for other
    /// works".
    pub shared_bytes_per_block: u32,
    /// Optional cap on blocks resident per SM, below the hardware limits.
    /// Used to express launches whose effective occupancy is lower than
    /// the occupancy calculator would grant — e.g. a kernel written with
    /// tiny logical blocks (the paper's global-only kernel assigns chunks
    /// per *thread processor*, ~64 threads per SM).
    #[serde(default)]
    pub resident_blocks_cap: Option<u32>,
}

impl LaunchConfig {
    /// Validate against a device.
    pub fn validate(&self, cfg: &GpuConfig) -> Result<(), LaunchError> {
        if self.grid_blocks == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if self.threads_per_block == 0 || !self.threads_per_block.is_multiple_of(cfg.warp_size) {
            return Err(LaunchError::BadThreadsPerBlock {
                threads: self.threads_per_block,
                warp_size: cfg.warp_size,
            });
        }
        let warps = self.threads_per_block / cfg.warp_size;
        if warps > cfg.max_warps_per_sm {
            return Err(LaunchError::TooManyWarps {
                warps,
                limit: cfg.max_warps_per_sm,
            });
        }
        if self.shared_bytes_per_block > cfg.shared_mem_bytes {
            return Err(LaunchError::SharedMemExceeded {
                requested: self.shared_bytes_per_block,
                available: cfg.shared_mem_bytes,
            });
        }
        Ok(())
    }

    /// Blocks that can be resident on one SM simultaneously: limited by the
    /// hardware block slots, the warp budget, and shared-memory capacity —
    /// the standard CUDA occupancy computation.
    pub fn resident_blocks_per_sm(&self, cfg: &GpuConfig) -> u32 {
        let warps = self.threads_per_block / cfg.warp_size;
        let by_warps = cfg.max_warps_per_sm / warps.max(1);
        let by_shared = cfg
            .shared_mem_bytes
            .checked_div(self.shared_bytes_per_block)
            .unwrap_or(u32::MAX);
        let cap = self.resident_blocks_cap.unwrap_or(u32::MAX).max(1);
        cfg.max_blocks_per_sm
            .min(by_warps)
            .min(by_shared)
            .min(cap)
            .max(1)
    }
}

/// Outcome of a launch: timing/statistics plus the finished warp programs
/// (which carry whatever per-lane results the kernel accumulated), sorted
/// by `(block, warp)`.
#[derive(Debug)]
pub struct Launched<P> {
    /// Aggregate statistics and cycle time.
    pub stats: LaunchStats,
    /// Finished programs in `(block_id, warp_in_block)` order.
    pub programs: Vec<(WarpGeometry, P)>,
}

/// The simulated board.
#[derive(Debug)]
pub struct GpuDevice {
    cfg: GpuConfig,
    global: GlobalMemory,
    alloc: DeviceAllocator,
    textures: Vec<Texture2d>,
    constants: Vec<ConstantBuffer>,
    constant_bytes: usize,
    /// Armed fault-injection state, if any. `None` (the default) keeps
    /// every hook a single branch on the host side; simulated timing is
    /// computed from kernel memory traffic alone either way.
    fault: Option<Box<FaultState>>,
    /// Cycle budget enforced after each launch; a kernel exceeding it
    /// (injected hang or genuine runaway) fails with
    /// [`DeviceError::Watchdog`].
    watchdog: Option<u64>,
    /// Armed trace recorder, if any. Same zero-cost-when-disabled pattern
    /// as `fault`: `None` (the default) keeps every probe a single branch,
    /// and recording never feeds back into simulated timing, so armed and
    /// disarmed launches produce bit-identical statistics.
    trace: Option<Box<TraceBuffer>>,
    /// Armed spatial introspection (per-set cache counters, bank
    /// histograms, DRAM busy intervals, hot-row fetch counts), if any.
    /// Same zero-cost-when-disabled contract as `fault` and `trace`.
    introspect: Option<Box<IntrospectState>>,
    /// Armed workload attribution (per-label cycle/fetch ledgers fed by
    /// kernel `WarpCtx::attribute_with` calls), if any. Same
    /// zero-cost-when-disabled contract as `fault`, `trace`, `introspect`.
    attribution: Option<Box<AttributionState>>,
}

impl GpuDevice {
    /// Bring up a device.
    pub fn new(cfg: GpuConfig) -> Result<Self, DeviceError> {
        cfg.validate()?;
        let alloc = DeviceAllocator::new(cfg.device_mem_bytes);
        Ok(GpuDevice {
            cfg,
            global: GlobalMemory::new(0),
            alloc,
            textures: Vec::new(),
            constants: Vec::new(),
            constant_bytes: 0,
            fault: None,
            watchdog: None,
            trace: None,
            introspect: None,
            attribution: None,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Arm fault injection. Counters continue from wherever `state` left
    /// off, so a supervisor can move one [`FaultState`] across device
    /// instances and retried operations see fresh operation indices.
    pub fn arm_faults(&mut self, state: FaultState) {
        self.fault = Some(Box::new(state));
    }

    /// Disarm fault injection, returning the state (with its advanced
    /// counters and injection log) to the caller.
    pub fn disarm_faults(&mut self) -> Option<FaultState> {
        self.fault.take().map(|b| *b)
    }

    /// Whether fault injection is currently armed.
    pub fn faults_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Arm (or clear, with `None`) the launch watchdog: any launch whose
    /// simulated cycle count exceeds `budget` fails with
    /// [`DeviceError::Watchdog`] instead of returning results.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// Arm trace recording: subsequent launches append scheduler/DRAM
    /// events to a fresh buffer configured by `cfg`. Recording is
    /// observation-only — armed and disarmed launches produce bit-identical
    /// [`LaunchStats`].
    pub fn arm_trace(&mut self, cfg: TraceConfig) {
        self.trace = Some(Box::new(TraceBuffer::new(cfg)));
    }

    /// Disarm tracing, returning whatever was recorded since [`arm_trace`].
    ///
    /// [`arm_trace`]: GpuDevice::arm_trace
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take().map(|b| *b)
    }

    /// Whether trace recording is currently armed.
    pub fn trace_armed(&self) -> bool {
        self.trace.is_some()
    }

    /// Arm spatial introspection: subsequent launches collect per-set
    /// texture-cache counters, shared-bank histograms, DRAM busy intervals,
    /// and per-row texture fetch counts into one [`Introspection`] per
    /// device. Observation-only — armed and disarmed launches produce
    /// bit-identical [`LaunchStats`].
    pub fn arm_introspection(&mut self, cfg: IntrospectConfig) {
        self.introspect = Some(Box::new(IntrospectState::new(cfg)));
    }

    /// Disarm introspection, returning whatever was collected since
    /// [`arm_introspection`].
    ///
    /// [`arm_introspection`]: GpuDevice::arm_introspection
    pub fn take_introspection(&mut self) -> Option<Introspection> {
        self.introspect.take().map(|b| b.result)
    }

    /// Whether spatial introspection is currently armed.
    pub fn introspection_armed(&self) -> bool {
        self.introspect.is_some()
    }

    /// Arm workload attribution: subsequent launches charge every issue
    /// slot and idle gap to the per-lane labels kernels declare through
    /// [`crate::WarpCtx::attribute_with`], into one [`Attribution`] per device.
    /// Observation-only — armed and disarmed launches produce bit-identical
    /// [`LaunchStats`].
    pub fn arm_attribution(&mut self, cfg: AttributionConfig) {
        self.attribution = Some(Box::new(AttributionState::new(cfg)));
    }

    /// Disarm attribution, returning whatever was collected since
    /// [`arm_attribution`].
    ///
    /// [`arm_attribution`]: GpuDevice::arm_attribution
    pub fn take_attribution(&mut self) -> Option<Attribution> {
        self.attribution.take().map(|b| b.result)
    }

    /// Whether workload attribution is currently armed.
    pub fn attribution_armed(&self) -> bool {
        self.attribution.is_some()
    }

    /// Copy a device→host readback buffer "across the bus": counts one
    /// readback operation and applies any scheduled bit-flip to `buf` in
    /// place. Returns the fault that fired, if any. With no fault state
    /// armed this is a no-op.
    pub fn dma_to_host(&mut self, buf: &mut [u8]) -> Option<InjectedFault> {
        self.fault.as_mut()?.on_readback(buf)
    }

    /// Allocate `bytes` of global memory (256-byte aligned, like CUDA),
    /// returning the device address. Freed blocks are reused first-fit
    /// before the capacity frontier grows; fails when no contiguous
    /// region fits.
    pub fn alloc_global(&mut self, bytes: u64) -> Result<u64, DeviceError> {
        let base = self.reserve(bytes)?;
        self.global.grow((base + bytes) as usize);
        Ok(base)
    }

    /// Claim `bytes` of the device's address space without backing them in
    /// the functional byte store: the allocation path, fault hook
    /// included, minus the bytes.
    fn reserve(&mut self, bytes: u64) -> Result<u64, DeviceError> {
        if let Some(fault) = self.fault.as_mut().and_then(|f| f.on_alloc()) {
            return Err(DeviceError::Fault(fault));
        }
        self.alloc.alloc(bytes)
    }

    /// Release a block obtained from [`alloc_global`], making its space
    /// reusable (with coalescing of adjacent free blocks). Fails with
    /// [`DeviceError::InvalidFree`] on a double free or an address that
    /// was never allocated. The backing bytes are left in place, exactly
    /// like real device frees — reuse sees stale contents, not zeroes.
    ///
    /// [`alloc_global`]: GpuDevice::alloc_global
    pub fn free_global(&mut self, addr: u64) -> Result<(), DeviceError> {
        self.alloc.free(addr)
    }

    /// Cumulative allocator statistics: live bytes/blocks, high-water
    /// footprint, and the host cycles charged to alloc/free driver calls.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    /// Copy host bytes into global memory at `addr` (the `cudaMemcpy`
    /// host→device of the paper; excluded from kernel timing, as in §V).
    pub fn write_global(&mut self, addr: u64, data: &[u8]) {
        self.global.write(addr, data);
    }

    /// Read back a global-memory range (device→host result copy).
    pub fn read_global(&self, addr: u64, len: usize) -> &[u8] {
        &self.global.bytes()[addr as usize..addr as usize + len]
    }

    /// Bind a read-only 2-D texture of `u32` texels. The data is shared,
    /// not copied, but its size still counts against device memory.
    pub fn bind_texture_2d(
        &mut self,
        data: Arc<Vec<u32>>,
        rows: u32,
        cols: u32,
    ) -> Result<TexId, DeviceError> {
        // Account for capacity without materializing a copy.
        self.reserve(data.len() as u64 * 4)?;
        self.textures.push(Texture2d::new(data, rows, cols));
        Ok(TexId(self.textures.len() - 1))
    }

    /// Bind a constant-memory buffer (≤ 64 KB total across buffers, the
    /// CUDA constant segment of this device generation).
    pub fn bind_constant(&mut self, data: Arc<Vec<u32>>) -> Result<ConstId, DeviceError> {
        let bytes = data.len() * 4;
        if self.constant_bytes + bytes > crate::constant::CONSTANT_MEMORY_BYTES {
            return Err(DeviceError::ConstantExhausted {
                used: self.constant_bytes,
                requested: bytes,
                capacity: crate::constant::CONSTANT_MEMORY_BYTES,
            });
        }
        self.constants
            .push(ConstantBuffer::new(data).map_err(DeviceError::ConstantInvalid)?);
        self.constant_bytes += bytes;
        Ok(ConstId(self.constants.len() - 1))
    }

    /// Launch a kernel: `factory` builds the [`WarpProgram`] for each warp
    /// of the grid. Blocks are distributed round-robin over the SMs, each
    /// SM is simulated independently with its own texture cache and DRAM
    /// bandwidth slice, and the launch time is the slowest SM.
    ///
    /// SMs share nothing during a launch, so the host simulates them on up
    /// to [`std::thread::available_parallelism`] threads (asked once per
    /// process), the calling thread included, each thread having at least 8 busy SMs to claim;
    /// a launch with fewer than 16 busy SMs runs on the calling thread.
    /// Results are merged in SM order and do not depend on the thread
    /// count: an SM's loads see global memory as it stood at launch start
    /// plus its own stores, and every SM's stores land, in SM order, when
    /// the launch ends. CUDA orders nothing between blocks of one launch
    /// without fences or atomics, which this device does not model.
    /// `factory` runs on the calling thread, SM by SM in block order,
    /// before any SM starts.
    pub fn launch<P, F>(&mut self, lc: LaunchConfig, factory: F) -> Result<Launched<P>, DeviceError>
    where
        P: WarpProgram + Send,
        F: FnMut(WarpGeometry) -> P,
    {
        let busy = self.cfg.num_sms.min(lc.grid_blocks) as usize;
        self.launch_on(lc, factory, launch_workers(host_cores(), busy))
    }

    /// [`launch`](GpuDevice::launch) on at most `workers` host threads.
    pub(crate) fn launch_on<P, F>(
        &mut self,
        lc: LaunchConfig,
        mut factory: F,
        workers: usize,
    ) -> Result<Launched<P>, DeviceError>
    where
        P: WarpProgram + Send,
        F: FnMut(WarpGeometry) -> P,
    {
        lc.validate(&self.cfg)?;
        // An injected launch fault fires before the kernel executes — a
        // transient failure aborts here; a hang runs the kernel but
        // inflates its reported time past any sane watchdog budget.
        let launch_fault = self.fault.as_mut().and_then(|f| f.on_launch());
        if let Some(LaunchFault::Transient(fault)) = launch_fault {
            return Err(DeviceError::Fault(fault));
        }
        let hooks = SmHooks {
            trace: self.trace.as_deref().map(|tb| {
                let cfg = *tb.config();
                (cfg, cfg.max_events.saturating_sub(tb.len()))
            }),
            introspect: self.introspect.as_deref().map(|st| st.cfg),
            attribution: self.attribution.as_deref().map(|st| st.cfg),
        };
        // Block b runs on SM b % num_sms, so SMs 0..busy have blocks. Their
        // programs are built here rather than on the workers: state that
        // outlives an SM is then allocated by the thread that frees it,
        // which keeps the workers' malloc arenas small.
        let (num_sms, warp_size) = (self.cfg.num_sms, self.cfg.warp_size);
        let busy = num_sms.min(lc.grid_blocks);
        let warps_per_block = lc.threads_per_block / warp_size;
        let sm_warps: Vec<Vec<(WarpGeometry, P)>> = (0..busy)
            .map(|sm| {
                (sm..lc.grid_blocks)
                    .step_by(num_sms as usize)
                    .flat_map(|block_id| {
                        (0..warps_per_block).map(move |warp_in_block| WarpGeometry {
                            block_id,
                            warp_in_block,
                            warp_size,
                            threads_per_block: lc.threads_per_block,
                            grid_blocks: lc.grid_blocks,
                        })
                    })
                    .map(|geom| (geom, factory(geom)))
                    .collect()
            })
            .collect();
        let (cfg, global) = (&self.cfg, &self.global);
        let (textures, constants) = (&self.textures, &self.constants);
        // Trace events SM k keeps are the device buffer's room minus every
        // event SMs 0..k make. Events lower SMs have made so far bound that
        // from above, so an SM stops building events no merge would keep.
        // Relaxed is enough: any value read is a valid bound.
        let made: Vec<AtomicUsize> = (0..busy).map(|_| AtomicUsize::new(0)).collect();
        let runs = run_in_order(sm_warps, workers, |sm, warps| {
            let mut hooks = hooks;
            if let Some((_, room)) = hooks.trace.as_mut() {
                let below: usize = made[..sm].iter().map(|m| m.load(Ordering::Relaxed)).sum();
                *room = room.saturating_sub(below);
            }
            let run = run_sm(
                cfg, global, textures, constants, &lc, sm as u32, warps, hooks,
            );
            if let Some(tb) = &run.trace {
                made[sm].store(tb.len() + tb.dropped() as usize, Ordering::Relaxed);
            }
            run
        });

        let mut retired = Vec::with_capacity(runs.iter().map(|r| r.retired.len()).sum());
        let mut totals = SmStats::default();
        let mut per_sm_cycles = Vec::with_capacity(self.cfg.num_sms as usize);
        let mut per_sm = Vec::with_capacity(self.cfg.num_sms as usize);
        let mut runs = runs.into_iter();
        for _ in 0..self.cfg.num_sms {
            let sm_stats = match runs.next() {
                Some(run) => {
                    retired.extend(run.retired);
                    run.stores.apply(&mut self.global);
                    if let (Some(tb), Some(sm_tb)) = (self.trace.as_deref_mut(), run.trace) {
                        tb.append(sm_tb);
                    }
                    if let (Some(st), Some(snap)) =
                        (self.introspect.as_deref_mut(), run.introspection)
                    {
                        st.result.per_sm.push(snap);
                    }
                    if let (Some(st), Some(ledger)) =
                        (self.attribution.as_deref_mut(), run.attribution)
                    {
                        st.result.per_sm.push(ledger);
                    }
                    run.stats
                }
                None => SmStats::default(),
            };
            per_sm_cycles.push(sm_stats.cycles);
            totals.merge(&sm_stats);
            per_sm.push(sm_stats);
        }
        retired.sort_by_key(|(g, _)| (g.block_id, g.warp_in_block));
        let mut cycles = per_sm_cycles.iter().copied().max().unwrap_or(0);
        if matches!(launch_fault, Some(LaunchFault::Hang(_))) {
            // The kernel "never returns": model it as an absurd completion
            // time. Without a watchdog the launch still completes (with
            // that time on the clock); with one it fails below.
            cycles += HANG_CYCLES;
        }
        if let Some(budget) = self.watchdog {
            if cycles > budget {
                return Err(DeviceError::Watchdog { cycles, budget });
            }
        }
        Ok(Launched {
            stats: LaunchStats {
                cycles,
                per_sm_cycles,
                per_sm,
                totals,
                blocks: lc.grid_blocks,
                warps: lc.grid_blocks * (lc.threads_per_block / self.cfg.warp_size),
                device_mem_high_water: self.alloc.stats().high_water_bytes,
            },
            programs: retired,
        })
    }
}

/// Host threads for a launch with `busy` busy SMs on a host with `cores`
/// cores: at most one per `MIN_SMS_PER_WORKER` busy SMs, and at least
/// the caller.
/// The host's [`std::thread::available_parallelism`], asked once per
/// process: on Linux each query reads cgroup files, which cost a small
/// launch a quarter of its host time.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn launch_workers(cores: usize, busy: usize) -> usize {
    cores.min(busy / MIN_SMS_PER_WORKER).max(1)
}

/// Run `task(i, inputs[i])` for every input on up to `workers` threads,
/// the caller being one of them, and return the results in input order.
/// Threads claim inputs in index order from one counter. A panicking task
/// is re-raised on the caller with its own payload; when several panic,
/// the lowest index wins, which is the panic running the tasks one after
/// another would raise.
fn run_in_order<I: Send, T: Send>(
    inputs: Vec<I>,
    workers: usize,
    task: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let count = inputs.len();
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    // Relaxed is enough: the counter only hands out indices, and each
    // input reaches its worker through its own mutex.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            let input = inputs[i]
                .lock()
                .expect("input slots are never poisoned")
                .take()
                .expect("each index is claimed once");
            let result = panic::catch_unwind(AssertUnwindSafe(|| task(i, input)));
            let failed = result.is_err();
            done.push((i, result));
            if failed {
                // Every lower index is already claimed and will finish.
                next.store(count, Ordering::Relaxed);
                return done;
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(count)).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().expect("workers catch their tasks' panics"));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, r)| r.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{StepOutcome, WarpCtx};

    /// A warp program that stages its lanes' global bytes into shared
    /// memory, synchronizes, reads them back, and writes lane+byte sums to
    /// an output region — touching every context facility once.
    struct RoundTrip {
        geom: WarpGeometry,
        in_base: u64,
        out_base: u64,
        phase: u32,
        bytes: Vec<u8>,
    }

    impl WarpProgram for RoundTrip {
        fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
            let n = self.geom.warp_size as usize;
            match self.phase {
                0 => {
                    let addrs: Vec<Option<u64>> = (0..n)
                        .map(|l| Some(self.in_base + self.geom.global_thread(l as u32)))
                        .collect();
                    self.bytes = vec![0; n];
                    ctx.global_read_u8(&addrs, &mut self.bytes);
                    self.phase = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let writes: Vec<Option<(u64, u32)>> = (0..n)
                        .map(|l| {
                            Some((
                                self.geom.block_thread(l as u32) as u64 * 4,
                                self.bytes[l] as u32,
                            ))
                        })
                        .collect();
                    ctx.shared_write_u32(&writes);
                    self.phase = 2;
                    StepOutcome::Continue
                }
                2 => {
                    self.phase = 3;
                    StepOutcome::Barrier
                }
                3 => {
                    let addrs: Vec<Option<u64>> = (0..n)
                        .map(|l| Some(self.geom.block_thread(l as u32) as u64 * 4))
                        .collect();
                    let mut back = vec![0u8; n];
                    ctx.shared_read_u8(&addrs, &mut back);
                    self.bytes = back;
                    self.phase = 4;
                    StepOutcome::Continue
                }
                4 => {
                    let writes: Vec<Option<(u64, u32)>> = (0..n)
                        .map(|l| {
                            Some((
                                self.out_base + self.geom.global_thread(l as u32) * 4,
                                self.bytes[l] as u32 + 1,
                            ))
                        })
                        .collect();
                    ctx.global_write_u32(&writes);
                    self.phase = 5;
                    StepOutcome::Finished
                }
                _ => unreachable!("stepped after Finished"),
            }
        }
    }

    #[test]
    fn end_to_end_roundtrip_kernel() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let total_threads = 4 * 8; // 4 blocks × 8 threads (2 warps of 4)
        let in_base = dev.alloc_global(total_threads as u64).unwrap();
        let out_base = dev.alloc_global(total_threads as u64 * 4).unwrap();
        let input: Vec<u8> = (0..total_threads as u8).collect();
        dev.write_global(in_base, &input);

        let lc = LaunchConfig {
            grid_blocks: 4,
            threads_per_block: 8,
            shared_bytes_per_block: 64,
            resident_blocks_cap: None,
        };
        let launched = dev
            .launch(lc, |geom| RoundTrip {
                geom,
                in_base,
                out_base,
                phase: 0,
                bytes: Vec::new(),
            })
            .unwrap();

        assert!(launched.stats.cycles > 0);
        assert_eq!(launched.stats.blocks, 4);
        assert_eq!(launched.stats.warps, 8);
        assert_eq!(launched.programs.len(), 8);
        // Programs sorted by (block, warp).
        let order: Vec<(u32, u32)> = launched
            .programs
            .iter()
            .map(|(g, _)| (g.block_id, g.warp_in_block))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        // Output = input + 1, element-wise.
        for t in 0..total_threads as u64 {
            let got = u32::from_le_bytes(dev.read_global(out_base + t * 4, 4).try_into().unwrap());
            assert_eq!(got, t as u32 + 1, "thread {t}");
        }
        // Barriers: one per block.
        assert_eq!(launched.stats.totals.barriers, 4);
    }

    #[test]
    fn launch_validation() {
        let cfg = GpuConfig::tiny_test();
        let mut dev = GpuDevice::new(cfg).unwrap();
        let bad = LaunchConfig {
            grid_blocks: 0,
            threads_per_block: 8,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(dev.launch(bad, |_| Noop).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 3,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 8,
            shared_bytes_per_block: 4096,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
        let bad = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4 * 8 * 100,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        assert!(bad.validate(&cfg).is_err());
    }

    #[derive(Debug)]
    struct Noop;
    impl WarpProgram for Noop {
        fn step(&mut self, _ctx: &mut WarpCtx<'_>) -> StepOutcome {
            StepOutcome::Finished
        }
    }

    #[test]
    fn occupancy_computation() {
        let cfg = GpuConfig::gtx285(); // 32 warps, 8 blocks, 16 KB shared
        let lc = LaunchConfig {
            grid_blocks: 100,
            threads_per_block: 128, // 4 warps
            shared_bytes_per_block: 8 * 1024,
            resident_blocks_cap: None,
        };
        // shared limits to 2 resident blocks.
        assert_eq!(lc.resident_blocks_per_sm(&cfg), 2);
        let lc0 = LaunchConfig {
            grid_blocks: 100,
            threads_per_block: 128,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        // warps limit: 32/4 = 8, block slots 8 → 8.
        assert_eq!(lc0.resident_blocks_per_sm(&cfg), 8);
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let a = dev.alloc_global(512 * 1024).unwrap();
        assert_eq!(a, 0);
        let b = dev.alloc_global(256 * 1024).unwrap();
        assert!(b >= 512 * 1024);
        assert!(dev.alloc_global(512 * 1024).is_err());
    }

    #[test]
    fn global_write_read_roundtrip() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let a = dev.alloc_global(16).unwrap();
        dev.write_global(a, &[1, 2, 3, 4]);
        assert_eq!(dev.read_global(a, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn texture_binding_counts_against_memory() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let data = Arc::new(vec![0u32; 200_000]); // 800 KB
        dev.bind_texture_2d(data.clone(), 1000, 200).unwrap();
        // The texels are shared, not copied into the byte store.
        assert_eq!(dev.global.len(), 0);
        assert_eq!(dev.alloc_stats().live_bytes, 800_000);
        assert!(dev.bind_texture_2d(data, 1000, 200).is_err());
    }

    #[test]
    fn injected_alloc_failure_is_transient() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_alloc_fail(0)));
        let err = dev.alloc_global(64).unwrap_err();
        assert!(
            matches!(err, DeviceError::Fault(f) if f.kind == crate::fault::FaultKind::AllocFail)
        );
        // The retry is a new operation index and succeeds.
        assert!(dev.alloc_global(64).is_ok());
        let state = dev.disarm_faults().unwrap();
        assert_eq!(state.log().len(), 1);
        assert!(!dev.faults_armed());
    }

    #[test]
    fn injected_launch_transient_then_retry_succeeds() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_launch_transient(0)));
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let err = dev.launch(lc, |_| Noop).unwrap_err();
        assert!(matches!(err, DeviceError::Fault(_)));
        assert!(dev.launch(lc, |_| Noop).is_ok());
    }

    #[test]
    fn hang_trips_watchdog_when_armed() {
        use crate::fault::FaultPlan;
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        // Without a watchdog, the hang "completes" with an absurd time.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_kernel_hang(0)));
        let launched = dev.launch(lc, |_| Noop).unwrap();
        assert!(launched.stats.cycles >= HANG_CYCLES);
        // With one, the same hang is a typed watchdog error.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.arm_faults(FaultState::new(FaultPlan::none().with_kernel_hang(0)));
        dev.set_watchdog(Some(1_000_000));
        let err = dev.launch(lc, |_| Noop).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Watchdog {
                budget: 1_000_000,
                ..
            }
        ));
    }

    #[test]
    fn dma_to_host_flips_only_when_scheduled() {
        use crate::fault::FaultPlan;
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let mut buf = vec![0u8; 8];
        // Unarmed: no-op.
        assert!(dev.dma_to_host(&mut buf).is_none());
        assert_eq!(buf, vec![0u8; 8]);
        dev.arm_faults(FaultState::new(FaultPlan::none().with_readback_flip(0, 3)));
        assert!(dev.dma_to_host(&mut buf).is_some());
        assert_eq!(buf[0], 1 << 3);
    }

    #[test]
    fn oom_error_reports_requested_and_available() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        dev.alloc_global(1 << 19).unwrap();
        let err = dev.alloc_global(1 << 20).unwrap_err();
        match err {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
                capacity,
            } => {
                assert_eq!(requested, 1 << 20);
                assert_eq!(capacity, 1 << 20);
                assert_eq!(available, (1 << 20) - (1 << 19));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_global_recycles_capacity_and_tracks_stats() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap(); // 1 MB
        let a = dev.alloc_global(512 * 1024).unwrap();
        let b = dev.alloc_global(256 * 1024).unwrap();
        // The bump model is full past here; freeing `a` opens a hole that
        // a same-size allocation reuses.
        dev.free_global(a).unwrap();
        let c = dev.alloc_global(512 * 1024).unwrap();
        assert_eq!(c, a);
        // Freed contents are stale, not zeroed (like a real device).
        dev.write_global(c, &[9, 9, 9, 9]);
        dev.free_global(c).unwrap();
        let d = dev.alloc_global(16).unwrap();
        assert_eq!(d, c);
        assert_eq!(dev.read_global(d, 4), &[9, 9, 9, 9]);
        // Double free is a typed error.
        dev.free_global(b).unwrap();
        assert!(matches!(
            dev.free_global(b),
            Err(DeviceError::InvalidFree { .. })
        ));
        dev.free_global(d).unwrap();
        let s = dev.alloc_stats();
        assert_eq!(s.live_blocks, 0);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.allocs, 4);
        assert_eq!(s.frees, 4);
        assert_eq!(s.high_water_bytes, (512 + 256) * 1024);
    }

    #[test]
    fn launch_stats_carry_the_device_mem_high_water() {
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        dev.alloc_global(4096).unwrap();
        let lc = LaunchConfig {
            grid_blocks: 1,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let launched = dev.launch(lc, |_| Noop).unwrap();
        assert_eq!(launched.stats.device_mem_high_water, 4096);
    }

    #[test]
    fn more_blocks_than_slots_executes_all() {
        // 16 blocks on a 1-SM device with 2 block slots: blocks must cycle
        // through residency.
        let mut dev = GpuDevice::new(GpuConfig::tiny_test()).unwrap();
        let out = dev.alloc_global(16 * 4).unwrap();
        struct WriteOne {
            geom: WarpGeometry,
            out: u64,
        }
        impl WarpProgram for WriteOne {
            fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
                let mut writes = vec![None; self.geom.warp_size as usize];
                writes[0] = Some((self.out + self.geom.block_id as u64 * 4, self.geom.block_id));
                ctx.global_write_u32(&writes);
                StepOutcome::Finished
            }
        }
        let lc = LaunchConfig {
            grid_blocks: 16,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let launched = dev.launch(lc, |geom| WriteOne { geom, out }).unwrap();
        assert_eq!(launched.programs.len(), 16);
        for b in 0..16u64 {
            let got = u32::from_le_bytes(dev.read_global(out + b * 4, 4).try_into().unwrap());
            assert_eq!(got, b as u32);
        }
    }

    /// Four SMs of the tiny test device: enough for SMs to run on
    /// different workers and for blocks to cycle through residency.
    fn four_sm_device() -> GpuDevice {
        GpuDevice::new(GpuConfig {
            num_sms: 4,
            ..GpuConfig::tiny_test()
        })
        .unwrap()
    }

    /// Per lane: label itself, fetch a texel chosen by its thread, read a
    /// global byte, then store texel + byte. Touches the texture caches,
    /// DRAM, attribution labels and the store log in one kernel.
    struct TexWalk {
        geom: WarpGeometry,
        tex: TexId,
        in_base: u64,
        out_base: u64,
        phase: u32,
        texels: Vec<u32>,
        bytes: Vec<u8>,
    }

    impl WarpProgram for TexWalk {
        fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
            let n = self.geom.warp_size as usize;
            let thread = |l: usize| self.geom.global_thread(l as u32);
            match self.phase {
                0 => {
                    ctx.attribute_with(|labels| {
                        for (l, label) in labels.iter_mut().enumerate() {
                            *label = Some(crate::LaneAttr::state((thread(l) % 5) as u32));
                        }
                    });
                    let coords: Vec<Option<(u32, u32)>> = (0..n)
                        .map(|l| Some(((thread(l) * 7 % 64) as u32, (thread(l) % 16) as u32)))
                        .collect();
                    self.texels = vec![0; n];
                    ctx.tex_fetch(self.tex, &coords, &mut self.texels);
                }
                1 => {
                    let addrs: Vec<Option<u64>> =
                        (0..n).map(|l| Some(self.in_base + thread(l))).collect();
                    self.bytes = vec![0; n];
                    ctx.global_read_u8(&addrs, &mut self.bytes);
                }
                _ => {
                    let writes: Vec<Option<(u64, u32)>> = (0..n)
                        .map(|l| {
                            let v = self.texels[l] + self.bytes[l] as u32;
                            Some((self.out_base + thread(l) * 4, v))
                        })
                        .collect();
                    ctx.global_write_u32(&writes);
                    return StepOutcome::Finished;
                }
            }
            self.phase += 1;
            StepOutcome::Continue
        }
    }

    /// One fully hooked launch of each test kernel on `workers` threads:
    /// stats, program order, global bytes and every hook's output.
    fn hooked_launches(workers: usize) -> Vec<String> {
        let lc = LaunchConfig {
            grid_blocks: 11,
            threads_per_block: 8,
            shared_bytes_per_block: 64,
            resident_blocks_cap: None,
        };
        let threads = 11 * 8;
        let mut dev = four_sm_device();
        dev.arm_trace(TraceConfig {
            issues: true,
            ..TraceConfig::default()
        });
        dev.arm_introspection(IntrospectConfig::default());
        dev.arm_attribution(AttributionConfig::default());
        let in_base = dev.alloc_global(threads).unwrap();
        let out_base = dev.alloc_global(threads * 4).unwrap();
        let input: Vec<u8> = (0..threads).map(|i| (i * 37 % 251) as u8).collect();
        dev.write_global(in_base, &input);
        let tex = dev
            .bind_texture_2d(Arc::new((0..64 * 16).map(|i| i * 3).collect()), 64, 16)
            .unwrap();
        let mut out = Vec::new();
        let round_trip = dev
            .launch_on(
                lc,
                |geom| RoundTrip {
                    geom,
                    in_base,
                    out_base,
                    phase: 0,
                    bytes: Vec::new(),
                },
                workers,
            )
            .unwrap();
        out.push(format!("{:?}", round_trip.stats));
        out.push(format!(
            "{:?}",
            round_trip
                .programs
                .iter()
                .map(|(g, p)| (g.block_id, g.warp_in_block, p.bytes.clone()))
                .collect::<Vec<_>>()
        ));
        let walk = dev
            .launch_on(
                lc,
                |geom| TexWalk {
                    geom,
                    tex,
                    in_base,
                    out_base,
                    phase: 0,
                    texels: Vec::new(),
                    bytes: Vec::new(),
                },
                workers,
            )
            .unwrap();
        out.push(format!("{:?}", walk.stats));
        out.push(format!(
            "{:?}",
            walk.programs
                .iter()
                .map(|(g, p)| (g.block_id, g.warp_in_block, p.texels.clone()))
                .collect::<Vec<_>>()
        ));
        out.push(format!("{:?}", dev.read_global(0, dev.global.len())));
        let trace = dev.take_trace().unwrap();
        assert!(!trace.is_empty());
        out.push(format!("{trace:?}"));
        let introspection = dev.take_introspection().unwrap();
        assert_eq!(introspection.per_sm.len(), 8, "4 busy SMs × 2 launches");
        out.push(format!("{introspection:?}"));
        let attribution = dev.take_attribution().unwrap();
        assert!(attribution.state_cycles().iter().any(|&c| c > 0));
        out.push(format!("{attribution:?}"));
        out
    }

    #[test]
    fn worker_count_changes_nothing_with_every_hook_armed() {
        let one = hooked_launches(1);
        for workers in [2, 3, 4, 8] {
            let many = hooked_launches(workers);
            for (what, (a, b)) in [
                "round-trip stats",
                "round-trip programs",
                "tex-walk stats",
                "tex-walk programs",
                "global bytes",
                "trace",
                "introspection",
                "attribution",
            ]
            .iter()
            .zip(one.iter().zip(&many))
            {
                assert_eq!(a, b, "{what} differs with {workers} workers");
            }
        }
    }

    #[test]
    fn trace_overflow_drops_the_same_events_on_any_worker_count() {
        let run = |workers| {
            let mut dev = four_sm_device();
            dev.arm_trace(TraceConfig {
                max_events: 40,
                issues: true,
                ..TraceConfig::default()
            });
            let lc = LaunchConfig {
                grid_blocks: 9,
                threads_per_block: 4,
                shared_bytes_per_block: 0,
                resident_blocks_cap: None,
            };
            for _ in 0..2 {
                dev.launch_on(lc, |_| Noop, workers).unwrap();
            }
            dev.take_trace().unwrap()
        };
        let one = run(1);
        assert!(one.dropped() > 0, "the bound must bite");
        assert_eq!(run(4), one);
    }

    /// Stores `42 + block` to a per-block word, then loads it back.
    struct StoreThenLoad {
        geom: WarpGeometry,
        out: u64,
        seen: Option<u32>,
    }

    impl WarpProgram for StoreThenLoad {
        fn step(&mut self, ctx: &mut WarpCtx<'_>) -> StepOutcome {
            let n = self.geom.warp_size as usize;
            let addr = self.out + self.geom.block_id as u64 * 4;
            let mut lane0 = vec![None; n];
            if self.seen.is_none() && self.geom.warp_in_block == 0 {
                lane0[0] = Some((addr, 42 + self.geom.block_id));
                ctx.global_write_u32(&lane0);
                self.seen = Some(u32::MAX);
                return StepOutcome::Continue;
            }
            let mut lane0 = vec![None; n];
            lane0[0] = Some(addr);
            let mut word = vec![0u32; n];
            ctx.global_read_u32(&lane0, &mut word);
            self.seen = Some(word[0]);
            StepOutcome::Finished
        }
    }

    #[test]
    fn an_sm_reads_back_its_own_stores_within_a_launch() {
        let mut dev = four_sm_device();
        let out = dev.alloc_global(8 * 4).unwrap();
        let lc = LaunchConfig {
            grid_blocks: 8,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        let launched = dev
            .launch_on(
                lc,
                |geom| StoreThenLoad {
                    geom,
                    out,
                    seen: None,
                },
                4,
            )
            .unwrap();
        for (geom, p) in &launched.programs {
            assert_eq!(p.seen, Some(42 + geom.block_id), "block {}", geom.block_id);
            let stored = dev.read_global(out + geom.block_id as u64 * 4, 4);
            assert_eq!(stored, (42 + geom.block_id).to_le_bytes());
        }
    }

    /// Panics in its first step on the listed blocks.
    struct PanicOn {
        geom: WarpGeometry,
        blocks: &'static [u32],
    }

    impl WarpProgram for PanicOn {
        fn step(&mut self, _ctx: &mut WarpCtx<'_>) -> StepOutcome {
            if self.blocks.contains(&self.geom.block_id) {
                panic!("kernel bug on block {}", self.geom.block_id);
            }
            StepOutcome::Finished
        }
    }

    /// A panicking SM reaches the caller with its own message, and with
    /// several, the lowest SM's — what running them in order would raise.
    /// (The scheduler's own "SM deadlock" panic cannot be provoked by a
    /// well-formed program: a warp that exits counts toward its block's
    /// barrier, so the test panics inside a kernel step instead; both
    /// travel the same path.)
    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let lc = LaunchConfig {
            grid_blocks: 8,
            threads_per_block: 4,
            shared_bytes_per_block: 0,
            resident_blocks_cap: None,
        };
        for (blocks, message) in [
            (&[2u32][..], "kernel bug on block 2"),
            (&[3, 1][..], "kernel bug on block 1"),
            (&[7, 2][..], "kernel bug on block 2"),
        ] {
            for workers in [1, 4] {
                let mut dev = four_sm_device();
                let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    dev.launch_on(lc, |geom| PanicOn { geom, blocks }, workers)
                })) else {
                    panic!("the kernel panics");
                };
                let got = payload
                    .downcast_ref::<String>()
                    .expect("panic! with arguments carries a String");
                assert_eq!(got, message, "{workers} workers, panics on {blocks:?}");
            }
        }
    }

    /// Per-task "finished" flags that a task can wait on, to force which
    /// worker runs what.
    struct Finished(Mutex<Vec<bool>>, std::sync::Condvar);

    impl Finished {
        fn new(n: usize) -> Self {
            Finished(Mutex::new(vec![false; n]), std::sync::Condvar::new())
        }
        fn set(&self, i: usize) {
            self.0.lock().expect("test lock")[i] = true;
            self.1.notify_all();
        }
        fn wait(&self, i: usize) {
            let mut done = self.0.lock().expect("test lock");
            while !done[i] {
                done = self.1.wait(done).expect("test lock");
            }
        }
    }

    #[test]
    fn small_launches_run_on_the_calling_thread() {
        // (cores, busy SMs) -> threads.
        for (cores, busy, want) in [
            (2, 0, 1),
            (2, 1, 1),
            (2, 3, 1),
            (2, 12, 1),
            (2, 16, 2),
            (2, 30, 2),
            (1, 30, 1),
            (4, 30, 3),
            (64, 30, 3),
        ] {
            assert_eq!(
                launch_workers(cores, busy),
                want,
                "{cores} cores, {busy} SMs"
            );
        }
    }

    #[test]
    fn run_in_order_returns_results_in_input_order() {
        // Task 0 waits for task 1 and task 2 for task 0, so two workers
        // each finish tasks out of input order.
        for workers in [2, 3] {
            let finished = Finished::new(12);
            let out = run_in_order((0..12u32).collect(), workers, |i, x| {
                match i {
                    0 => finished.wait(1),
                    2 => finished.wait(0),
                    _ => {}
                }
                finished.set(i);
                (i, x * 2)
            });
            let want: Vec<(usize, u32)> = (0..12).map(|i| (i as usize, i as u32 * 2)).collect();
            assert_eq!(out, want, "{workers} workers");
        }
    }

    #[test]
    fn run_in_order_reraises_the_lowest_panic_with_its_payload() {
        // Task 5 panics first; task 3 waits for it, then panics too.
        let finished = Finished::new(12);
        let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_in_order((0..12).collect(), 2, |i, x: u32| {
                if i == 3 {
                    finished.wait(5);
                }
                finished.set(i);
                assert!(i != 3 && i != 5, "task {i} failed");
                x
            })
        })) else {
            panic!("tasks 3 and 5 panic");
        };
        let got = payload.downcast_ref::<String>().expect("formatted payload");
        assert_eq!(got, "task 3 failed");
    }
}
