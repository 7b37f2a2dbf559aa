//! The per-SM warp scheduler.
//!
//! Each SM owns an instruction issue port, a texture cache and a slice of
//! the board's DRAM bandwidth. Resident warps are issued round-robin: a
//! warp whose last instruction is still waiting on memory is skipped and
//! other warps run in the meantime — the multithreaded latency hiding of
//! paper Fig. 19(a). When *every* resident warp is waiting on memory the
//! SM sits idle (`idle_cycles`), which is exactly the saturation regime of
//! Fig. 19(b): more texture misses → more parked warps → more empty issue
//! slots.
//!
//! Blocks are resident up to the occupancy limits (block count, warp
//! count, shared-memory capacity); when a block's warps all finish, the
//! next pending block is activated in its place, reusing the hardware the
//! way a real GT200 does.

use crate::attrib::{AttributionConfig, LaneAttr, SmAttrSink, SmAttribution};
use crate::config::GpuConfig;
use crate::constant::ConstantBuffer;
use crate::device::LaunchConfig;
use crate::global::{GlobalMemory, StoreLog};
use crate::introspect::{IntrospectConfig, SmIntrospection, SmProbe};
use crate::kernel::{StepOutcome, WarpCtx, WarpGeometry, WarpProgram};
use crate::shared::SharedMemory;
use crate::stats::SmStats;
use crate::texture::Texture2d;
use mem_sim::{Cache, Cycle, DramChannel};
use trace::{ArgValue, StallReason, TraceBuffer, TraceConfig, PID_DEVICE};

/// Trace track offset separating each SM's DRAM-channel events from its
/// scheduler events (same pid, distinct tid lane).
const DRAM_TID_BASE: u32 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpRun {
    Ready,
    AtBarrier,
    Finished,
}

struct WarpSlot<P> {
    program: Option<P>,
    geom: WarpGeometry,
    ready_at: Cycle,
    run: WarpRun,
    /// Index into the SM's active-block table.
    block_slot: usize,
    /// Why the warp is waiting until `ready_at` (None = issue-bound). An
    /// idle gap ending at this warp's wake-up is charged to this reason.
    wait: Option<StallReason>,
    /// Armed-attribution only: the labels of this warp's last step; an
    /// idle gap ending at this warp's wake-up is charged to these labels.
    attr_last: Vec<LaneAttr>,
}

struct ActiveBlock {
    shared: SharedMemory,
    alive_warps: u32,
    at_barrier: u32,
}

/// The observation hooks armed on the device, as one SM needs them. Each
/// SM records into sinks of its own; the device merges them in SM order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmHooks {
    /// The device's trace filters, and how many more events its buffer
    /// takes before it drops.
    pub trace: Option<(TraceConfig, usize)>,
    pub introspect: Option<IntrospectConfig>,
    pub attribution: Option<AttributionConfig>,
}

/// Everything one SM produced in a launch. Nothing here is shared with
/// another SM, so SMs can run on different host threads.
pub(crate) struct SmRun<P> {
    pub stats: SmStats,
    /// Finished warp programs, in retirement order.
    pub retired: Vec<(WarpGeometry, P)>,
    /// Global stores, applied by the device when the launch ends.
    pub stores: StoreLog,
    pub trace: Option<TraceBuffer>,
    pub introspection: Option<SmIntrospection>,
    pub attribution: Option<SmAttribution>,
}

/// Simulate SM `sm_id` executing its share of the launch. `warps` holds
/// the programs of its blocks (at least one), block after block in
/// activation order, each block's warps in order. Loads see `global` as
/// it stood at launch start plus this SM's own stores. Armed hooks record
/// against SM `sm_id`'s tracks — recording never feeds back into timing,
/// so hooked and unhooked runs produce identical stats.
#[allow(clippy::too_many_arguments)] // the SM's full memory system is threaded through explicitly
pub(crate) fn run_sm<P: WarpProgram>(
    cfg: &GpuConfig,
    global: &GlobalMemory,
    textures: &[Texture2d],
    constants: &[ConstantBuffer],
    lc: &LaunchConfig,
    sm_id: u32,
    warps: Vec<(WarpGeometry, P)>,
    hooks: SmHooks,
) -> SmRun<P> {
    let warps_per_block = (lc.threads_per_block / cfg.warp_size) as usize;
    let block_count = warps.len() / warps_per_block;
    debug_assert!(block_count > 0, "SM {sm_id} has no blocks");
    let mut stats = SmStats::default();
    let mut retired = Vec::with_capacity(warps.len());
    let mut stores = StoreLog::default();
    let resident_blocks = (lc.resident_blocks_per_sm(cfg) as usize).min(block_count);

    let mut tex_cache = Cache::new(cfg.tex_cache);
    let mut tex_l2 = Cache::new(cfg.tex_l2);
    let mut const_cache = Cache::new(cfg.const_cache);
    let mut dram = DramChannel::new(cfg.dram);
    let mut trace = hooks.trace.map(|(tcfg, room)| {
        if tcfg.dram {
            dram.enable_log(tcfg.max_events);
        }
        TraceBuffer::new(TraceConfig {
            max_events: room,
            ..tcfg
        })
    });
    // Armed introspection: turn on the spatial collectors. None of them
    // feeds back into timing (pure counters/logs), so the disarmed path
    // stays the bit-identical baseline.
    let mut probe = hooks.introspect.map(|icfg| {
        tex_cache.enable_set_profile();
        tex_l2.enable_set_profile();
        dram.enable_busy_tracking(icfg.max_busy_intervals);
        SmProbe::new(cfg, textures)
    });
    // Armed attribution: the per-SM ledger the kernel labels feed. Like
    // the probe, it observes without feeding back into timing.
    let mut attr_sink = hooks
        .attribution
        .map(|acfg| SmAttrSink::new(&acfg, cfg.warp_size));

    let mut pending = warps.into_iter();
    let mut blocks: Vec<ActiveBlock> = Vec::with_capacity(resident_blocks);
    let mut slots: Vec<WarpSlot<P>> = Vec::new();
    // Indices of live (not finished) slots, scanned round-robin.
    let mut live: Vec<usize> = Vec::new();

    // Make the next pending block resident in `block_slot`; None when
    // every block has been activated.
    let activate = |block_slot: usize,
                    pending: &mut std::vec::IntoIter<(WarpGeometry, P)>,
                    slots: &mut Vec<WarpSlot<P>>,
                    live: &mut Vec<usize>,
                    now: Cycle,
                    trace: Option<&mut TraceBuffer>|
     -> Option<ActiveBlock> {
        let mut block_id = None;
        for (geom, program) in pending.by_ref().take(warps_per_block) {
            block_id = Some(geom.block_id);
            slots.push(WarpSlot {
                program: Some(program),
                geom,
                ready_at: now,
                run: WarpRun::Ready,
                block_slot,
                wait: None,
                attr_last: Vec::new(),
            });
            live.push(slots.len() - 1);
        }
        let block_id = block_id?;
        if let Some(tb) = trace {
            if tb.config().scheduler {
                tb.instant(
                    "block-activate",
                    "sched",
                    PID_DEVICE,
                    sm_id,
                    now,
                    vec![("block".to_string(), ArgValue::U64(block_id as u64))],
                );
            }
        }
        Some(ActiveBlock {
            shared: SharedMemory::new(lc.shared_bytes_per_block, cfg.shared_banks),
            alive_warps: warps_per_block as u32,
            at_barrier: 0,
        })
    };

    for slot in 0..resident_blocks {
        let ab = activate(slot, &mut pending, &mut slots, &mut live, 0, trace.as_mut())
            .expect("resident_blocks bounded by block count");
        blocks.push(ab);
    }

    let mut now: Cycle = 0;
    let mut issue_free: Cycle = 0;
    let mut rr: usize = 0; // round-robin cursor into `live`

    while !live.is_empty() {
        now = now.max(issue_free);
        // Pick the next ready warp at `now`, round-robin from `rr`.
        let mut chosen: Option<usize> = None; // index into `live`
        for k in 0..live.len() {
            let li = (rr + k) % live.len();
            let s = &slots[live[li]];
            if s.run == WarpRun::Ready && s.ready_at <= now {
                chosen = Some(li);
                break;
            }
        }
        let Some(li) = chosen else {
            // Nothing issueable: jump to the earliest wake-up. The idle gap
            // is charged to the wait reason of the warp that ends it (the
            // first live warp with the minimal wake-up cycle — deterministic
            // because `live` scan order is deterministic).
            let mut next: Option<(Cycle, usize)> = None;
            for &i in &live {
                if slots[i].run == WarpRun::Ready {
                    let t = slots[i].ready_at;
                    if next.is_none_or(|(best, _)| t < best) {
                        next = Some((t, i));
                    }
                }
            }
            match next {
                Some((t, ender)) => {
                    debug_assert!(t > now);
                    let gap = t - now;
                    let reason = slots[ender].wait.unwrap_or(StallReason::NoReadyWarp);
                    stats.idle_cycles += gap;
                    stats.stalls.add(reason, gap);
                    if let Some(sink) = attr_sink.as_mut() {
                        // The gap is the fault of whatever the ender's last
                        // step was working on.
                        sink.charge_labels(&slots[ender].attr_last, gap);
                    }
                    if let Some(tb) = trace.as_mut() {
                        if tb.config().scheduler {
                            tb.stall(sm_id, now, gap, reason);
                        }
                    }
                    now = t;
                    continue;
                }
                None => {
                    // All live warps are parked at a barrier that will
                    // never release — a kernel bug (mismatched barriers).
                    panic!(
                        "SM deadlock: all live warps are at a barrier; \
                         kernel has mismatched __syncthreads()"
                    );
                }
            }
        };

        let slot_idx = live[li];
        rr = (li + 1) % live.len();
        let block_slot = slots[slot_idx].block_slot;

        // Step the warp.
        let (outcome, cost) = {
            if let Some(sink) = attr_sink.as_mut() {
                sink.begin_step();
            }
            let block = &mut blocks[block_slot];
            let mut ctx = WarpCtx::new(
                cfg,
                global,
                &mut stores,
                &mut block.shared,
                textures,
                constants,
                &mut tex_cache,
                &mut tex_l2,
                &mut const_cache,
                &mut dram,
                &mut stats,
                probe.as_mut(),
                attr_sink.as_mut(),
                now,
            );
            let program = slots[slot_idx]
                .program
                .as_mut()
                .expect("live warp has a program");
            let outcome = program.step(&mut ctx);
            (outcome, ctx.into_cost())
        };
        stats.instructions += 1;
        if let Some(sink) = attr_sink.as_mut() {
            sink.charge_step(cost.issue as u64);
            let last = &mut slots[slot_idx].attr_last;
            last.clear();
            last.extend(sink.step_labels());
        }
        issue_free = now + cost.issue as Cycle;
        slots[slot_idx].ready_at = cost.ready_at.max(issue_free);
        slots[slot_idx].wait = cost.stall;
        if let Some(tb) = trace.as_mut() {
            if tb.config().issues {
                let geom = slots[slot_idx].geom;
                tb.instant(
                    "issue",
                    "sched",
                    PID_DEVICE,
                    sm_id,
                    now,
                    vec![
                        ("block".to_string(), ArgValue::U64(geom.block_id as u64)),
                        ("warp".to_string(), ArgValue::U64(geom.warp_in_block as u64)),
                    ],
                );
            }
        }

        match outcome {
            StepOutcome::Continue => {}
            StepOutcome::Barrier => {
                slots[slot_idx].run = WarpRun::AtBarrier;
                blocks[block_slot].at_barrier += 1;
                maybe_release_barrier(
                    &mut blocks[block_slot],
                    &mut slots,
                    &live,
                    block_slot,
                    &mut stats,
                );
            }
            StepOutcome::Finished => {
                slots[slot_idx].run = WarpRun::Finished;
                let geom = slots[slot_idx].geom;
                if let Some(p) = slots[slot_idx].program.take() {
                    retired.push((geom, p));
                }
                // Swap-remove from the live list.
                live.swap_remove(li);
                if li < rr {
                    rr = rr.saturating_sub(1);
                }
                if !live.is_empty() {
                    rr %= live.len();
                } else {
                    rr = 0;
                }
                let block = &mut blocks[block_slot];
                block.alive_warps -= 1;
                if block.alive_warps == 0 {
                    // Retire the block; activate the next pending one in
                    // this residency slot.
                    if let Some(ab) = activate(
                        block_slot,
                        &mut pending,
                        &mut slots,
                        &mut live,
                        now,
                        trace.as_mut(),
                    ) {
                        blocks[block_slot] = ab;
                    }
                } else {
                    // A warp finishing can complete a pending barrier.
                    maybe_release_barrier(block, &mut slots, &live, block_slot, &mut stats);
                }
            }
        }
    }

    stats.cycles = now.max(issue_free).max(
        // Account for in-flight memory of the final instructions.
        slots.iter().map(|s| s.ready_at).max().unwrap_or(0),
    );
    if let Some(tb) = trace.as_mut() {
        if tb.config().scheduler {
            tb.span(
                "sm",
                "sched",
                PID_DEVICE,
                sm_id,
                0,
                stats.cycles,
                vec![
                    ("blocks".to_string(), ArgValue::U64(block_count as u64)),
                    (
                        "instructions".to_string(),
                        ArgValue::U64(stats.instructions),
                    ),
                    ("idle_cycles".to_string(), ArgValue::U64(stats.idle_cycles)),
                ],
            );
        }
        if tb.config().dram {
            for txn in dram.take_log() {
                tb.span(
                    "dram-txn",
                    "mem",
                    PID_DEVICE,
                    DRAM_TID_BASE + sm_id,
                    txn.start,
                    txn.done - txn.start,
                    vec![
                        ("bytes".to_string(), ArgValue::U64(txn.bytes as u64)),
                        (
                            "queue_cycles".to_string(),
                            ArgValue::U64(txn.start - txn.issued),
                        ),
                    ],
                );
            }
        }
    }
    // Every advance of the clock was either an issue slot (charged at step
    // time) or an idle gap (charged at jump time); what remains is the
    // in-flight memory drain past the final issue.
    let busy = now.max(issue_free);
    let attribution = attr_sink.map(|sink| sink.finish(sm_id, stats.cycles - busy, stats.cycles));
    let introspection = probe.map(|probe| SmIntrospection {
        sm: sm_id,
        tex_l1: tex_cache.stats(),
        tex_l1_sets: tex_cache.set_profile().unwrap_or_default().to_vec(),
        tex_l2: tex_l2.stats(),
        tex_l2_sets: tex_l2.set_profile().unwrap_or_default().to_vec(),
        tex_resident_lines: tex_cache.resident_lines(),
        banks: probe.banks,
        dram_busy: dram.take_busy_intervals(),
        row_fetches: probe.row_fetches,
        tex_fetches: probe.tex_fetches,
        tex_l1_hits: probe.tex_l1_hits,
        tex_l2_hits: probe.tex_l2_hits,
    });
    SmRun {
        stats,
        retired,
        stores,
        trace,
        introspection,
        attribution,
    }
}

fn maybe_release_barrier<P>(
    block: &mut ActiveBlock,
    slots: &mut [WarpSlot<P>],
    live: &[usize],
    block_slot: usize,
    stats: &mut SmStats,
) {
    if block.alive_warps > 0 && block.at_barrier == block.alive_warps {
        // Release: the barrier completes when its last participant
        // arrives; each warp resumes no earlier than its own memory
        // readiness.
        let release_at = live
            .iter()
            .filter(|&&i| slots[i].block_slot == block_slot && slots[i].run == WarpRun::AtBarrier)
            .map(|&i| slots[i].ready_at)
            .max()
            .unwrap_or(0);
        for &i in live {
            if slots[i].block_slot == block_slot && slots[i].run == WarpRun::AtBarrier {
                slots[i].run = WarpRun::Ready;
                if release_at > slots[i].ready_at {
                    // The barrier, not this warp's own memory, is what it
                    // resumes behind.
                    slots[i].wait = Some(StallReason::Barrier);
                }
                slots[i].ready_at = slots[i].ready_at.max(release_at);
            }
        }
        block.at_barrier = 0;
        stats.barriers += 1;
    }
}
