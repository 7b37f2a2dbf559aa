//! Multi-device fleet dispatch: sharding, cost routing, scaled-out serving.
//!
//! One host drives `N` independent simulated GPUs, each with its own
//! [`StreamEngine`], supervised execution, circuit breaker and telemetry
//! pid plane, behind a single [`serve_fleet`] entry point. Three
//! mechanisms make the fleet more than N copies of [`crate::serve`]:
//!
//! * **Sharded dispatch** ([`plan_shards`]) — a job whose payload is at
//!   least `shard_bytes` is split into overlap-padded segments, one per
//!   device. Each segment *owns* a half-open byte range and scans
//!   `required_overlap()` extra bytes past its owned end, so a match
//!   starting inside the owned range always fits entirely in the scanned
//!   window. Keeping exactly the matches whose start lies in the owned
//!   range makes the merged result equal to a single-device scan — no
//!   duplicates, no losses (pinned by proptest in `tests/`).
//!
//! * **Calibrated cost routing** ([`CostModel`]) — each tier (every GPU,
//!   plus the CPU ladder as the final tier) gets a fitted latency model
//!   `t(bytes) = setup + bytes / bandwidth`, learned from a two-point
//!   warmup probe run off the simulated clock and refined online from
//!   observed service times (EWMA on the setup term). Arrivals are routed
//!   to the tier with the earliest predicted completion given its queued
//!   backlog: small jobs land on the CPU (no PCIe or launch setup), large
//!   jobs on the least-loaded GPU.
//!
//! * **Shared-bus contention** ([`PcieBusArbiter`]) — every `h2d`/`d2h`
//!   issued by any device first acquires the host's PCIe bus arbiter, so
//!   concurrent transfers serialise against the aggregate host bandwidth
//!   and device scaling is realistically sublinear. The arbiter grants
//!   the earliest idle gap at or after a copy's ready time, so a sharded
//!   job's readback booked for a kernel that ends later never holds back
//!   another device's upload that is ready now. With one device the
//!   arbiter provably never delays anything (its aggregate bandwidth is
//!   at least the per-device link bandwidth, and it charges no setup), so
//!   a 1-device fleet in parity mode is bit-identical to [`crate::serve`].
//!
//! Readbacks follow the [`crate::serve`] rule fleet-wide: at every GPU
//! dispatch instant, on any device, each held `d2h` whose kernel has
//! ended by then is issued, in kernel-end order (ties by device, then
//! stream); the end of the run flushes the rest the same way.
//!
//! **Parity mode** (`routing: None`) disables the router entirely: one
//! shared queue, the exact [`crate::serve`] loop replayed against
//! whichever device frees up first. At `devices = 1` every schedule,
//! outcome, rejection (including the aggregate drain-rate
//! `retry_after_us` hint, which degenerates to the single-device rate)
//! and timeline is bit-identical to `serve()` — the fleet layer is a
//! zero-cost hook, pinned in `tests/zero_cost_hook.rs`.

use crate::batch::assemble_batch;
use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker, Route};
use crate::job::{check_jobs, JobExpiry, JobOutcome, ScanJob, ServedBy};
use crate::queue::BoundedQueue;
use crate::report::{percentile, BatchBucket, PoolStatsReport, ServeReport};
use crate::sim::{
    lease_batch_buffers, rate, record_gpu_outcomes, run_cpu_batch, shed, tally, HeldReadbacks,
    PendingReadback, ServeConfig, ServeRun,
};
use crate::slo::AdmissionController;
use crate::telemetry::ServeTelemetry;
use ac_core::Match;
use ac_gpu::multistream::readback_bytes;
use ac_gpu::{run_supervised, DevicePool, GpuAcMatcher, GpuError};
use cpu_sim::simulate_multicore;
use gpu_sim::{
    BusConfig, BusStats, EngineKind, PcieBusArbiter, StreamEngine, StreamOpKind, StreamTimeline,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One device's slice of a sharded corpus.
///
/// The segment *owns* `[owned_start, owned_end)` and *scans*
/// `[scan_start, scan_end)`, where `scan_start == owned_start` and
/// `scan_end` extends `overlap` bytes past `owned_end` (clamped to the
/// corpus). A match belongs to the segment iff its start offset lies in
/// the owned range — the exactly-once rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSegment {
    /// Device the segment is dispatched to.
    pub device: u32,
    /// First byte this segment owns.
    pub owned_start: usize,
    /// One past the last byte this segment owns.
    pub owned_end: usize,
    /// First byte this segment scans (== `owned_start`).
    pub scan_start: usize,
    /// One past the last byte this segment scans (`owned_end + overlap`,
    /// clamped to the corpus length).
    pub scan_end: usize,
}

/// Split `len` bytes into at most `shards` contiguous owned ranges, each
/// scanning `overlap` bytes past its owned end. Segments cover the corpus
/// exactly; trailing shards that would own nothing are dropped.
pub fn plan_shards(len: usize, shards: u32, overlap: usize) -> Vec<ShardSegment> {
    if len == 0 {
        return Vec::new();
    }
    let shards = (shards.max(1) as usize).min(len);
    let chunk = len.div_ceil(shards);
    (0..shards)
        .filter_map(|d| {
            let owned_start = d * chunk;
            if owned_start >= len {
                return None;
            }
            let owned_end = ((d + 1) * chunk).min(len);
            Some(ShardSegment {
                device: d as u32,
                owned_start,
                owned_end,
                scan_start: owned_start,
                scan_end: (owned_end + overlap).min(len),
            })
        })
        .collect()
}

/// Re-base each segment's window-relative matches to corpus offsets and
/// keep exactly those whose start lies in the segment's owned range.
/// With windows scanned by the same automaton, the merged (sorted) result
/// equals a single scan of the whole corpus.
pub fn merge_shard_matches(segments: &[ShardSegment], per_segment: &[Vec<Match>]) -> Vec<Match> {
    let mut merged = Vec::new();
    for (seg, matches) in segments.iter().zip(per_segment) {
        for m in matches {
            let start = m.start + seg.scan_start;
            if start >= seg.owned_start && start < seg.owned_end {
                merged.push(Match {
                    start,
                    end: m.end + seg.scan_start,
                    pattern: m.pattern,
                });
            }
        }
    }
    merged.sort();
    merged
}

/// A fitted affine latency model for one execution tier:
/// `t(bytes) = setup_seconds + bytes / bytes_per_sec`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-dispatch overhead (PCIe latency, kernel launch, …).
    pub setup_seconds: f64,
    /// Marginal streaming bandwidth.
    pub bytes_per_sec: f64,
}

impl CostModel {
    /// Fit from two probe points `(b1, t1)`, `(b2, t2)` with `b2 > b1`.
    /// Degenerate probes (no measurable slope) fall back to a pure-setup
    /// model so `predict` stays finite.
    pub fn fit(b1: usize, t1: f64, b2: usize, t2: f64) -> CostModel {
        if b2 <= b1 || t2 <= t1 {
            return CostModel {
                setup_seconds: t1.max(t2).max(0.0),
                bytes_per_sec: f64::INFINITY,
            };
        }
        let bytes_per_sec = (b2 - b1) as f64 / (t2 - t1);
        CostModel {
            setup_seconds: (t1 - b1 as f64 / bytes_per_sec).max(0.0),
            bytes_per_sec,
        }
    }

    /// Predicted service time for a `bytes`-long dispatch.
    pub fn predict(&self, bytes: usize) -> f64 {
        let streamed = if self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0 {
            bytes as f64 / self.bytes_per_sec
        } else {
            0.0
        };
        self.setup_seconds + streamed
    }

    /// Refine the setup term from one observed service time (EWMA with
    /// weight `alpha`); the bandwidth term keeps its fitted value so one
    /// anomalous batch cannot poison the slope.
    pub fn observe(&mut self, bytes: usize, seconds: f64, alpha: f64) {
        if !(self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0) {
            self.setup_seconds = (1.0 - alpha) * self.setup_seconds + alpha * seconds.max(0.0);
            return;
        }
        let implied = (seconds - bytes as f64 / self.bytes_per_sec).max(0.0);
        self.setup_seconds = (1.0 - alpha) * self.setup_seconds + alpha * implied;
    }
}

/// Cost-routing knobs (present = routing on, absent = parity mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Small warmup-probe payload, bytes.
    pub probe_small_bytes: usize,
    /// Large warmup-probe payload, bytes (must exceed the small probe).
    pub probe_large_bytes: usize,
    /// EWMA weight for online refinement of each tier's setup term.
    pub refine_alpha: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            probe_small_bytes: 4 << 10,
            probe_large_bytes: 64 << 10,
            refine_alpha: 0.2,
        }
    }
}

/// Fleet-level policy: device count, the per-device server policy, the
/// router, the shared host bus, and the sharding threshold.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Devices in the fleet (min 1).
    pub devices: u32,
    /// Per-device serving policy (streams, limits, breaker, …). The
    /// `slo` and `telemetry` hooks arm one *shared* controller/recorder.
    pub device: ServeConfig,
    /// Calibrated cost routing; `None` = parity mode (one shared queue,
    /// exact [`crate::serve`] loop semantics).
    pub routing: Option<RouterConfig>,
    /// Shared host-side PCIe bus model.
    pub bus: BusConfig,
    /// Jobs at least this large are sharded across every device instead
    /// of batched onto one (`None` disables; requires routing and more
    /// than one device to engage).
    pub shard_bytes: Option<usize>,
}

impl FleetConfig {
    /// A routed fleet of `devices` copies of `device` on a default host bus.
    pub fn new(devices: u32, device: ServeConfig) -> Self {
        FleetConfig {
            devices: devices.max(1),
            device,
            routing: Some(RouterConfig::default()),
            bus: BusConfig::default(),
            shard_bytes: None,
        }
    }

    /// Disable cost routing: one shared queue, serve-loop parity.
    pub fn parity(mut self) -> Self {
        self.routing = None;
        self
    }
}

/// Per-device activity rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device index.
    pub device: u32,
    /// Batches (and shard segments) launched on this device's GPU.
    pub batches: u64,
    /// Jobs whose GPU outcome was recorded on this device.
    pub jobs: u64,
    /// Times this device's breaker opened.
    pub breaker_opens: u64,
    /// Copy-engine busy fraction of the device's own makespan.
    pub copy_utilisation: f64,
    /// Compute-engine busy fraction of the device's own makespan.
    pub compute_utilisation: f64,
    /// Total engine-busy seconds (copy + compute).
    pub busy_seconds: f64,
}

/// Routed traffic per tier (one row per GPU, one for the CPU ladder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierCounts {
    /// Tier label (`"gpu0"`, `"gpu1"`, …, `"cpu"`).
    pub tier: String,
    /// Jobs the router queued to this tier.
    pub jobs: u64,
    /// Payload bytes the router queued to this tier.
    pub bytes: u64,
    /// SLO sheds attributed to this tier (the tier the job would have
    /// routed to).
    pub shed: u64,
    /// Deadline expiries out of this tier's queue.
    pub expired: u64,
}

/// A tier's cost model after the run (fitted + online-refined).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModelSnapshot {
    /// Tier label (`"gpu0"`, …, `"cpu"`).
    pub tier: String,
    /// Final setup term, seconds.
    pub setup_seconds: f64,
    /// Fitted bandwidth term, bytes/second.
    pub bytes_per_sec: f64,
}

/// Fleet-level summary: the aggregate [`ServeReport`] plus per-device,
/// routing, cost-model and bus breakdowns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Devices in the fleet.
    pub devices: u32,
    /// Aggregate serve summary over the merged timeline.
    pub serve: ServeReport,
    /// Per-device rollups, indexed by device.
    pub per_device: Vec<DeviceReport>,
    /// Routing table (empty in parity mode).
    pub routing: Vec<TierCounts>,
    /// Final per-tier cost models (empty in parity mode).
    pub cost_models: Vec<CostModelSnapshot>,
    /// Shared-bus transfer statistics.
    pub bus: BusStats,
    /// Bus busy fraction of the fleet makespan.
    pub bus_utilisation: f64,
    /// Jobs served by sharding across every device.
    pub scattered_jobs: u64,
}

impl FleetReport {
    /// Serialize to pretty JSON (for `acsim fleet-sim --report`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }

    /// Parse a report back from [`FleetReport::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Everything a fleet run produced: the fleet report, the aggregate
/// [`ServeRun`] (merged timeline, outcomes in completion order), and the
/// per-device timelines.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Fleet-level summary.
    pub report: FleetReport,
    /// Aggregate run with device streams remapped to fleet-global ids
    /// (`device * streams_per_device + local`).
    pub serve: ServeRun,
    /// One timeline per device, in device order.
    pub timelines: Vec<StreamTimeline>,
}

/// Mutable per-fleet state shared by the parity and routed loops.
struct FleetState {
    engines: Vec<StreamEngine>,
    breakers: Vec<CircuitBreaker>,
    held: HeldReadbacks,
    /// One device-memory pool per device when the per-device config arms
    /// one (`None` entries otherwise — the legacy untracked path).
    pools: Vec<Option<DevicePool>>,
    /// Per-device cursor of pool driver cycles already converted into
    /// upload delay.
    pool_charged: Vec<u64>,
    arbiter: PcieBusArbiter,
    outcomes: Vec<JobOutcome>,
    slo: Option<AdmissionController>,
    tel: Option<ServeTelemetry>,
    cpu_free: f64,
    gpu_retries: u64,
    cpu_fallback_batches: u64,
    faults_fired: u64,
    batches: u64,
    payload_bytes: u64,
    histogram: BTreeMap<usize, u64>,
    per_dev_batches: Vec<u64>,
    per_dev_jobs: Vec<u64>,
    scattered_jobs: u64,
}

impl FleetState {
    /// Submit an `h2d`/`d2h` through the shared bus: the transfer starts
    /// no earlier than the bus grants it. With one device the grant is
    /// always the engine's own earliest start (the arbiter's aggregate
    /// bandwidth covers the link and it charges no setup), so the
    /// schedule is bit-identical to an un-arbitrated submit.
    #[allow(clippy::too_many_arguments)]
    fn submit_copy(
        &mut self,
        device: usize,
        stream: u32,
        kind: StreamOpKind,
        label: &str,
        seconds: f64,
        bytes: u64,
        not_before: f64,
    ) {
        let earliest = self.engines[device].earliest_start(stream, kind, not_before);
        let release = self.arbiter.acquire(earliest, bytes);
        self.engines[device].submit_at(stream, kind, label, seconds, bytes, release);
    }

    /// Flush every held readback, on any device, whose kernel has ended
    /// by `until`, in kernel-end order (ties by device, then stream) —
    /// the single-device [`crate::serve`] rule at `devices = 1`. Each
    /// `d2h` crosses the bus and its outcomes are recorded under the
    /// fleet-global stream id.
    fn flush_ready(&mut self, until: f64, streams_per_device: u32) {
        for (device, p) in self.held.take_ready(until) {
            if let Some(t) = self.tel.as_mut() {
                t.set_device(Some(device as u32));
            }
            let local = p.stream;
            self.submit_copy(
                device,
                local,
                StreamOpKind::CopyD2H,
                &p.label,
                p.d2h_seconds,
                p.bus_rb_bytes,
                0.0,
            );
            let done = self.engines[device].stream_ready(local);
            self.per_dev_jobs[device] += p.batch.len() as u64;
            record_gpu_outcomes(
                done,
                device as u32 * streams_per_device + local,
                p.batch,
                p.per_job,
                p.dispatch_seconds,
                p.retries,
                &mut self.outcomes,
                &mut self.slo,
                &mut self.tel,
            );
        }
    }

    /// The most severe breaker state across the fleet (for control-plane
    /// ticks taken on the CPU tier, which has no breaker of its own).
    fn worst_breaker_state(&self) -> BreakerState {
        let mut worst = BreakerState::Closed;
        for b in &self.breakers {
            worst = match (worst, b.state()) {
                (_, BreakerState::Open) | (BreakerState::Open, _) => BreakerState::Open,
                (_, BreakerState::HalfOpen) | (BreakerState::HalfOpen, _) => BreakerState::HalfOpen,
                _ => BreakerState::Closed,
            };
        }
        worst
    }
}

/// Serve `jobs` through a fleet of `cfg.devices` simulated GPUs plus the
/// CPU ladder. Device 0 runs on `matcher` itself (so armed fault plans
/// behave exactly as under [`crate::serve`]); devices 1.. run on
/// [`GpuAcMatcher::replicate`] clones with independent fault state.
///
/// Fails with [`GpuError::InvalidParams`], before any work, when an
/// arrival is not a finite non-negative time or a job id repeats.
pub fn serve_fleet(
    matcher: &GpuAcMatcher,
    mut jobs: Vec<ScanJob>,
    cfg: &FleetConfig,
) -> Result<FleetRun, GpuError> {
    check_jobs(&jobs)?;
    cfg.device.effective_pcie().validate()?;
    jobs.sort_by(|a, b| {
        a.arrival_seconds
            .partial_cmp(&b.arrival_seconds)
            .expect("check_jobs admits finite arrivals only")
            .then(a.id.cmp(&b.id))
    });
    let devices = cfg.devices.max(1) as usize;
    let dcfg = &cfg.device;
    let submitted = jobs.len() as u64;
    let gap = matcher.automaton().required_overlap();
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let clock_hz = matcher.config().clock_hz;
    let streams_per_device = dcfg.streams.max(1);

    // Calibrate tier cost models before cloning, so the replicas inherit
    // the probe-warmed lazy device tables instead of re-deriving them.
    let models = cfg
        .routing
        .as_ref()
        .map(|r| fit_tier_models(matcher, dcfg, r, devices));
    let replicas: Vec<GpuAcMatcher> = (1..devices).map(|_| matcher.replicate()).collect();
    let matcher_for = |d: usize| -> &GpuAcMatcher {
        if d == 0 {
            matcher
        } else {
            &replicas[d - 1]
        }
    };

    let mut st = FleetState {
        engines: (0..devices)
            .map(|_| StreamEngine::new(dcfg.streams))
            .collect(),
        breakers: (0..devices)
            .map(|_| CircuitBreaker::new(dcfg.breaker))
            .collect(),
        held: HeldReadbacks::default(),
        pools: (0..devices)
            .map(|_| dcfg.pool.map(|p| DevicePool::new(p.device_pool_config())))
            .collect(),
        pool_charged: vec![0; devices],
        arbiter: PcieBusArbiter::new(cfg.bus),
        outcomes: Vec::with_capacity(jobs.len()),
        slo: dcfg.slo.map(|s| AdmissionController::new(s, base_max_jobs)),
        tel: dcfg.telemetry.map(|t| ServeTelemetry::new(t, clock_hz)),
        cpu_free: 0.0,
        gpu_retries: 0,
        cpu_fallback_batches: 0,
        faults_fired: 0,
        batches: 0,
        payload_bytes: 0,
        histogram: BTreeMap::new(),
        per_dev_batches: vec![0; devices],
        per_dev_jobs: vec![0; devices],
        scattered_jobs: 0,
    };

    let (rejections, expiries, routing, cost_models) = match (cfg.routing, models) {
        (Some(router), Some(models)) => {
            let (rej, exp, tiers, final_models) = run_routed(
                &mut st,
                &jobs,
                cfg,
                gap,
                clock_hz,
                &router,
                models,
                &matcher_for,
            );
            (rej, exp, tiers, final_models)
        }
        _ => {
            let (rej, exp) = run_parity(&mut st, &jobs, dcfg, gap, clock_hz, devices, &matcher_for);
            (rej, exp, Vec::new(), Vec::new())
        }
    };

    st.flush_ready(f64::INFINITY, streams_per_device);

    // Drain every device's pool: all leases were released with their
    // readbacks, so a live block here is a dispatcher leak (panics).
    let mut pool_report: Option<PoolStatsReport> = None;
    for pool in st.pools.iter().flatten() {
        pool.drain();
        let stats = PoolStatsReport::from_stats(pool.stats());
        match pool_report.as_mut() {
            Some(agg) => agg.merge(&stats),
            None => pool_report = Some(stats),
        }
    }

    let timelines: Vec<StreamTimeline> = st.engines.drain(..).map(|e| e.finish()).collect();
    // Aggregate timeline: per-device ops with streams remapped onto one
    // fleet-global id space (identity when devices == 1).
    let mut merged = StreamTimeline::default();
    let mut stream_base = 0u32;
    for t in &timelines {
        for op in &t.ops {
            let mut op = op.clone();
            op.stream += stream_base;
            merged.ops.push(op);
        }
        stream_base += t.streams;
    }
    merged.streams = stream_base;

    let makespan = st
        .outcomes
        .iter()
        .fold(merged.total_seconds(), |m, o| m.max(o.completed_seconds));
    let latencies_us: Vec<f64> = st
        .outcomes
        .iter()
        .map(|o| o.latency_seconds * 1.0e6)
        .collect();

    let mut transitions: Vec<BreakerTransition> = Vec::new();
    for b in &st.breakers {
        transitions.extend(b.transitions().iter().cloned());
    }
    transitions.sort_by(|a, b| {
        a.at_seconds
            .partial_cmp(&b.at_seconds)
            .expect("sim times are finite")
    });

    let worst_state = st.worst_breaker_state();
    let batch_window = st
        .slo
        .as_ref()
        .map(|c| c.batch_jobs())
        .unwrap_or(base_max_jobs);
    let telemetry = st.tel.take().map(|mut t| {
        t.set_device(None);
        t.tick(makespan, 0, batch_window, worst_state);
        let per_device: Vec<(Vec<BreakerTransition>, StreamTimeline)> = st
            .breakers
            .iter()
            .zip(&timelines)
            .map(|(b, tl)| (b.transitions().to_vec(), tl.clone()))
            .collect();
        let mut run = t.finish_fleet(&per_device);
        run.attribute_pattern_costs(matcher, dcfg.approach, makespan);
        if let Some(ps) = pool_report {
            run.record_pool_stats(&ps, makespan);
        }
        run
    });
    let sheds = st
        .slo
        .as_ref()
        .map(|c| c.sheds().to_vec())
        .unwrap_or_default();

    let report = ServeReport {
        streams: merged.streams,
        batched: base_max_jobs > 1,
        jobs_submitted: submitted,
        jobs_completed: st.outcomes.len() as u64,
        jobs_rejected: rejections.len() as u64,
        jobs_expired: expiries.len() as u64,
        jobs_shed: sheds.len() as u64,
        batches: st.batches,
        breaker_opens: st.breakers.iter().map(|b| b.opens()).sum(),
        cpu_fallback_batches: st.cpu_fallback_batches,
        gpu_retries: st.gpu_retries,
        faults_fired: st.faults_fired,
        makespan_seconds: makespan,
        p50_latency_us: percentile(&latencies_us, 50.0),
        p99_latency_us: percentile(&latencies_us, 99.0),
        mean_latency_us: if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us.iter().sum::<f64>() / latencies_us.len() as f64
        },
        jobs_per_sec: rate(st.outcomes.len() as f64, makespan),
        effective_gbps: rate(st.payload_bytes as f64 * 8.0 / 1.0e9, makespan),
        payload_bytes: st.payload_bytes,
        copy_utilisation: merged.utilisation(EngineKind::Copy),
        compute_utilisation: merged.utilisation(EngineKind::Compute),
        batch_histogram: std::mem::take(&mut st.histogram)
            .into_iter()
            .map(|(jobs, count)| BatchBucket { jobs, count })
            .collect(),
        pool: pool_report,
    };

    let per_device: Vec<DeviceReport> = (0..devices)
        .map(|d| DeviceReport {
            device: d as u32,
            batches: st.per_dev_batches[d],
            jobs: st.per_dev_jobs[d],
            breaker_opens: st.breakers[d].opens(),
            copy_utilisation: timelines[d].utilisation(EngineKind::Copy),
            compute_utilisation: timelines[d].utilisation(EngineKind::Compute),
            busy_seconds: timelines[d].busy_seconds(EngineKind::Copy)
                + timelines[d].busy_seconds(EngineKind::Compute),
        })
        .collect();

    let bus = st.arbiter.stats();
    let fleet_report = FleetReport {
        devices: devices as u32,
        serve: report.clone(),
        per_device,
        routing,
        cost_models,
        bus,
        bus_utilisation: if makespan > 0.0 {
            bus.busy_seconds / makespan
        } else {
            0.0
        },
        scattered_jobs: st.scattered_jobs,
    };

    Ok(FleetRun {
        report: fleet_report,
        serve: ServeRun {
            report,
            outcomes: st.outcomes,
            rejections,
            expiries,
            sheds,
            breaker_transitions: transitions,
            timeline: merged,
            telemetry,
        },
        timelines,
    })
}

/// Warmup calibration: probe each tier with two payload sizes *off the
/// simulated clock* and fit one [`CostModel`] per tier (each GPU starts
/// from the same fit; online refinement then specialises them).
fn fit_tier_models(
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    router: &RouterConfig,
    devices: usize,
) -> Vec<CostModel> {
    let small = router.probe_small_bytes.max(1);
    let large = router.probe_large_bytes.max(small + 1);
    let pcie = dcfg.effective_pcie();
    let gpu_probe = |bytes: usize| -> Option<f64> {
        let payload = vec![b'a'; bytes];
        let sup = run_supervised(matcher, &payload, dcfg.approach, &dcfg.supervise).ok()?;
        let h2d = pcie.copy_seconds(bytes);
        let d2h = pcie.copy_seconds(readback_bytes(sup.run.match_events) as usize);
        Some(h2d + sup.run.seconds() + d2h)
    };
    let gpu_model = match (gpu_probe(small), gpu_probe(large)) {
        (Some(t1), Some(t2)) => CostModel::fit(small, t1, large, t2),
        // A faulting probe leaves a pessimistic default; online
        // refinement repairs it from real service times.
        _ => CostModel {
            setup_seconds: 100.0e-6,
            bytes_per_sec: 1.0e9,
        },
    };
    let ac = matcher.automaton();
    let cpu_probe = |bytes: usize| -> f64 {
        let payload = vec![b'a'; bytes];
        let timing = simulate_multicore(
            &dcfg.cpu,
            ac.stt(),
            &payload,
            dcfg.cpu_cores.max(1),
            ac.required_overlap(),
        );
        timing.seconds(&dcfg.cpu)
    };
    let cpu_model = CostModel::fit(small, cpu_probe(small), large, cpu_probe(large));
    let mut models = vec![gpu_model; devices];
    models.push(cpu_model);
    models
}

/// Parity mode: the exact [`crate::serve`] loop over one shared queue,
/// dispatching each turn on whichever device frees up first. At
/// `devices = 1` this is bit-identical to `serve()`.
fn run_parity<'a>(
    st: &mut FleetState,
    jobs: &[ScanJob],
    dcfg: &ServeConfig,
    gap: usize,
    clock_hz: f64,
    devices: usize,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> (Vec<crate::queue::Overloaded>, Vec<JobExpiry>) {
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let streams_per_device = dcfg.streams.max(1);
    let mut queue = BoundedQueue::new(dcfg.queue_capacity);
    let mut rejections = Vec::new();
    let mut expiries: Vec<JobExpiry> = Vec::new();
    let mut next = 0usize;

    loop {
        if queue.is_empty() {
            if next >= jobs.len() {
                break;
            }
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut st.slo, &job) {
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            queue.push(job).expect("empty queue admits one job");
        }
        // The fleet's next free stream: argmin over devices, lowest
        // device on ties (degenerates to `next_free_stream()` at d=1).
        let (dev, stream, gpu_free) = (0..devices)
            .map(|d| {
                let (s, f) = st.engines[d].next_free_stream();
                (d, s, f)
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("sim times are finite"))
            .expect("fleet has at least one device");
        let head = queue.head_arrival().expect("queue is non-empty");
        let gpu_dispatch = gpu_free.max(head);
        let route = st.breakers[dev].route_at(gpu_dispatch);
        let dispatch = match route {
            Route::Gpu => gpu_dispatch,
            Route::Cpu => st.cpu_free.max(head),
        };
        if route == Route::Gpu {
            st.flush_ready(dispatch, streams_per_device);
        }
        // Aggregate fleet drain rate: completions across *every* device
        // divided by elapsed time — the whole-fleet `retry_after_us`
        // basis (identical to the per-device rate when devices == 1).
        let drain_rate = if dispatch > 0.0 {
            st.outcomes.len() as f64 / dispatch
        } else {
            0.0
        };
        while next < jobs.len() && jobs[next].arrival_seconds <= dispatch {
            let job = jobs[next].clone();
            next += 1;
            if let Some(s) = shed(&mut st.slo, &job) {
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
                continue;
            }
            let (priority, arrival) = (job.priority, job.arrival_seconds);
            if let Err(mut e) = queue.push(job) {
                if drain_rate > 0.0 {
                    e.retry_after_us = e.capacity as f64 / drain_rate * 1.0e6;
                }
                if let Some(t) = st.tel.as_mut() {
                    t.job_rejected(&e, priority, arrival);
                }
                rejections.push(e);
            }
        }
        let newly_expired = queue.expire_overdue(dispatch);
        if !newly_expired.is_empty() {
            if let Some(t) = st.tel.as_mut() {
                for e in &newly_expired {
                    t.job_expired(e);
                }
            }
            expiries.extend(newly_expired);
            continue;
        }

        let max_jobs_now = st
            .slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        if let Some(t) = st.tel.as_mut() {
            t.set_device(Some(dev as u32));
            t.tick(
                dispatch,
                queue.len(),
                max_jobs_now,
                st.breakers[dev].state(),
            );
        }
        let mut batch = vec![queue.pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queue.head_payload_len() {
                Some(len) if batch_bytes + len <= dcfg.limits.max_bytes => {
                    batch_bytes += len;
                    batch.push(queue.pop().expect("head exists"));
                }
                _ => break,
            }
        }
        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{}", st.batches);
        st.batches += 1;
        st.payload_bytes += batch_bytes as u64;
        *st.histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = st.tel.as_mut() {
            let route_label = match route {
                Route::Gpu => "gpu",
                Route::Cpu => "cpu",
            };
            t.batch_formed(&label, &batch, dispatch, route_label);
        }

        match route {
            Route::Cpu => {
                st.cpu_free = run_cpu_batch(
                    matcher_for(dev),
                    dcfg,
                    &assembled,
                    batch,
                    dispatch,
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    0,
                );
                st.cpu_fallback_batches += 1;
            }
            Route::Gpu => {
                dispatch_gpu_batch(
                    st,
                    dev,
                    stream,
                    matcher_for(dev),
                    dcfg,
                    clock_hz,
                    assembled,
                    batch,
                    label,
                    dispatch,
                    None,
                );
            }
        }
    }
    (rejections, expiries)
}

/// Dispatch one assembled batch on `dev`'s GPU under supervision: charge
/// the `h2d` through the bus, charge the kernel (plus retry penalty),
/// stage the readback, or fail over to the shared CPU executor. When
/// `refine` is set the tier's cost model observes the realised service
/// time. Returns the device's per-batch bookkeeping via `st`.
#[allow(clippy::too_many_arguments)]
fn dispatch_gpu_batch(
    st: &mut FleetState,
    dev: usize,
    stream: u32,
    matcher: &GpuAcMatcher,
    dcfg: &ServeConfig,
    clock_hz: f64,
    assembled: crate::batch::AssembledBatch,
    batch: Vec<ScanJob>,
    label: String,
    dispatch: f64,
    refine: Option<(&mut CostModel, f64)>,
) {
    use crate::batch::demux_matches;
    st.per_dev_batches[dev] += 1;
    let pcie = dcfg.effective_pcie();
    match run_supervised(matcher, &assembled.data, dcfg.approach, &dcfg.supervise) {
        Ok(sup) => {
            tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
            let penalty =
                sup.report.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
            let per_job = demux_matches(&sup.run.matches, &assembled.spans);
            let h2d = pcie.copy_seconds(assembled.data.len());
            let rb_bytes = readback_bytes(sup.run.match_events);
            let d2h = pcie.copy_seconds(rb_bytes as usize);
            let (lease, setup) = lease_batch_buffers(
                st.pools[dev].as_ref(),
                &mut st.pool_charged[dev],
                assembled.data.len() as u64,
                Some(rb_bytes),
                clock_hz,
            )
            .expect("fleet device pool sized for its batches");
            st.submit_copy(
                dev,
                stream,
                StreamOpKind::CopyH2D,
                &label,
                h2d,
                pcie.bus_bytes(assembled.data.len() as u64),
                dispatch + setup,
            );
            st.engines[dev].submit(
                stream,
                StreamOpKind::Kernel,
                &label,
                sup.run.seconds() + penalty,
                0,
            );
            let kernel_end = st.engines[dev].stream_ready(stream);
            st.breakers[dev].record_success(kernel_end);
            if let Some((model, alpha)) = refine {
                model.observe(
                    assembled.data.len(),
                    h2d + sup.run.seconds() + penalty + d2h,
                    alpha,
                );
            }
            st.held.hold(
                dev,
                PendingReadback {
                    stream,
                    kernel_end,
                    label,
                    d2h_seconds: d2h,
                    rb_bytes,
                    bus_rb_bytes: pcie.bus_bytes(rb_bytes),
                    batch,
                    per_job,
                    dispatch_seconds: dispatch,
                    retries: sup.report.retries as u64,
                    _lease: lease,
                },
            );
        }
        Err((err, rep)) => {
            tally(&rep, &mut st.gpu_retries, &mut st.faults_fired);
            let penalty = rep.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
            let h2d = pcie.copy_seconds(assembled.data.len());
            let (lease, setup) = lease_batch_buffers(
                st.pools[dev].as_ref(),
                &mut st.pool_charged[dev],
                assembled.data.len() as u64,
                None,
                clock_hz,
            )
            .expect("fleet device pool sized for its batches");
            st.submit_copy(
                dev,
                stream,
                StreamOpKind::CopyH2D,
                &format!("{label}-failed"),
                h2d,
                pcie.bus_bytes(assembled.data.len() as u64),
                dispatch + setup,
            );
            drop(lease);
            if penalty > 0.0 {
                st.engines[dev].submit(
                    stream,
                    StreamOpKind::Kernel,
                    &format!("{label}-failed"),
                    penalty,
                    0,
                );
            }
            let failed_at = st.engines[dev].stream_ready(stream);
            st.breakers[dev].record_failure(failed_at, &err.to_string());
            st.cpu_free = run_cpu_batch(
                matcher,
                dcfg,
                &assembled,
                batch,
                st.cpu_free.max(failed_at),
                &mut st.outcomes,
                &mut st.slo,
                &mut st.tel,
                rep.retries as u64,
            );
            st.cpu_fallback_batches += 1;
        }
    }
}

/// Routed mode: per-device GPU queues plus one CPU-ladder queue, each
/// arrival routed to the tier with the earliest predicted completion
/// under its calibrated cost model; oversized jobs scatter across every
/// device as overlap-padded shards.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_routed<'a>(
    st: &mut FleetState,
    jobs: &[ScanJob],
    cfg: &FleetConfig,
    gap: usize,
    clock_hz: f64,
    router: &RouterConfig,
    mut models: Vec<CostModel>,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) -> (
    Vec<crate::queue::Overloaded>,
    Vec<JobExpiry>,
    Vec<TierCounts>,
    Vec<CostModelSnapshot>,
) {
    let dcfg = &cfg.device;
    let devices = st.engines.len();
    let cpu_tier = devices; // tier index of the CPU ladder
    let base_max_jobs = dcfg.limits.max_jobs.max(1);
    let streams_per_device = dcfg.streams.max(1);
    let scatter_min = match cfg.shard_bytes {
        Some(b) if devices > 1 => Some(b.max(1)),
        _ => None,
    };

    let mut queues: Vec<BoundedQueue> = (0..=devices)
        .map(|_| BoundedQueue::new(dcfg.queue_capacity))
        .collect();
    let tier_label = |t: usize| -> String {
        if t == cpu_tier {
            "cpu".to_string()
        } else {
            format!("gpu{t}")
        }
    };
    let mut tiers: Vec<TierCounts> = (0..=devices)
        .map(|t| TierCounts {
            tier: tier_label(t),
            jobs: 0,
            bytes: 0,
            shed: 0,
            expired: 0,
        })
        .collect();
    let mut rejections = Vec::new();
    let mut expiries: Vec<JobExpiry> = Vec::new();
    let mut next = 0usize;

    macro_rules! admit_one {
        ($job:expr, $now:expr) => {{
            let job: ScanJob = $job;
            let now: f64 = $now;
            // Scatter-eligible jobs always stage on tier 0; everything
            // else goes to the tier predicting the earliest completion.
            let tier = if scatter_min.is_some_and(|m| job.payload.len() >= m) {
                0
            } else {
                (0..=devices)
                    .map(|t| {
                        let tier_free = if t == cpu_tier {
                            st.cpu_free
                        } else {
                            st.engines[t].next_free_stream().1
                        };
                        let backlog = queues[t].queued_bytes() + job.payload.len();
                        (
                            t,
                            tier_free.max(job.arrival_seconds) + models[t].predict(backlog),
                        )
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("predictions are finite"))
                    .expect("at least one tier")
                    .0
            };
            if let Some(s) = shed(&mut st.slo, &job) {
                tiers[tier].shed += 1;
                if let Some(t) = st.tel.as_mut() {
                    t.job_shed(&s);
                }
            } else {
                let (priority, arrival, bytes) =
                    (job.priority, job.arrival_seconds, job.payload.len());
                match queues[tier].push(job) {
                    Ok(()) => {
                        tiers[tier].jobs += 1;
                        tiers[tier].bytes += bytes as u64;
                    }
                    Err(mut e) => {
                        let drain_rate = if now > 0.0 {
                            st.outcomes.len() as f64 / now
                        } else {
                            0.0
                        };
                        if drain_rate > 0.0 {
                            e.retry_after_us = e.capacity as f64 / drain_rate * 1.0e6;
                        }
                        if let Some(t) = st.tel.as_mut() {
                            t.job_rejected(&e, priority, arrival);
                        }
                        rejections.push(e);
                    }
                }
            }
        }};
    }

    loop {
        // Pick the tier whose head job can dispatch earliest; GPU tiers
        // win ties over the CPU (and lower devices over higher).
        let turn = (0..=devices)
            .filter(|&t| !queues[t].is_empty())
            .map(|t| {
                let free = if t == cpu_tier {
                    st.cpu_free
                } else {
                    st.engines[t].next_free_stream().1
                };
                (t, free.max(queues[t].head_arrival().expect("non-empty")))
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("sim times are finite")
                    .then(a.0.cmp(&b.0))
            });
        let (tier, mut dispatch) = match turn {
            Some(t) => t,
            None => {
                if next >= jobs.len() {
                    break;
                }
                let job = jobs[next].clone();
                next += 1;
                let now = job.arrival_seconds;
                admit_one!(job, now);
                continue;
            }
        };

        // GPU tiers consult their breaker; an open breaker fails the
        // batch over to the shared CPU executor.
        let mut gpu_arm: Option<(usize, u32)> = None;
        let mut route = Route::Cpu;
        if tier != cpu_tier {
            let (stream, _) = st.engines[tier].next_free_stream();
            route = st.breakers[tier].route_at(dispatch);
            match route {
                Route::Gpu => {
                    st.flush_ready(dispatch, streams_per_device);
                    gpu_arm = Some((tier, stream));
                }
                Route::Cpu => {
                    dispatch = st
                        .cpu_free
                        .max(queues[tier].head_arrival().expect("non-empty"));
                }
            }
        }

        while next < jobs.len() && jobs[next].arrival_seconds <= dispatch {
            let job = jobs[next].clone();
            next += 1;
            admit_one!(job, dispatch);
        }

        // Expire every tier's overdue jobs at this dispatch instant;
        // any expiry may have changed a head, so re-plan from the top.
        let mut any_expired = false;
        for (t, q) in queues.iter_mut().enumerate() {
            let newly = q.expire_overdue(dispatch);
            if !newly.is_empty() {
                any_expired = true;
                tiers[t].expired += newly.len() as u64;
                if let Some(tel) = st.tel.as_mut() {
                    for e in &newly {
                        tel.job_expired(e);
                    }
                }
                expiries.extend(newly);
            }
        }
        if any_expired {
            continue;
        }

        let max_jobs_now = st
            .slo
            .as_ref()
            .map(|c| c.batch_jobs())
            .unwrap_or(base_max_jobs);
        let queued_total: usize = queues.iter().map(|q| q.len()).sum();
        let tick_state = match gpu_arm {
            Some((d, _)) => st.breakers[d].state(),
            None => st.worst_breaker_state(),
        };
        if let Some(t) = st.tel.as_mut() {
            t.set_device(gpu_arm.map(|(d, _)| d as u32));
            t.tick(dispatch, queued_total, max_jobs_now, tick_state);
        }

        // Oversized head on a GPU tier: scatter it across the fleet.
        if let Some(min) = scatter_min {
            if tier != cpu_tier
                && route == Route::Gpu
                && queues[tier].head_payload_len().is_some_and(|l| l >= min)
            {
                let job = queues[tier].pop().expect("head exists");
                scatter_job(
                    st,
                    job,
                    dispatch,
                    gap,
                    clock_hz,
                    dcfg,
                    streams_per_device,
                    matcher_for,
                );
                continue;
            }
        }

        let mut batch = vec![queues[tier].pop().expect("queue is non-empty")];
        let mut batch_bytes = batch[0].payload.len();
        while batch.len() < max_jobs_now {
            match queues[tier].head_payload_len() {
                Some(len)
                    if batch_bytes + len <= dcfg.limits.max_bytes
                        && scatter_min.is_none_or(|m| len < m) =>
                {
                    batch_bytes += len;
                    batch.push(queues[tier].pop().expect("head exists"));
                }
                _ => break,
            }
        }
        let assembled = assemble_batch(&batch, gap);
        let label = format!("batch{}", st.batches);
        st.batches += 1;
        st.payload_bytes += batch_bytes as u64;
        *st.histogram.entry(batch.len()).or_insert(0) += 1;
        if let Some(t) = st.tel.as_mut() {
            let route_label = if gpu_arm.is_some() { "gpu" } else { "cpu" };
            t.batch_formed(&label, &batch, dispatch, route_label);
        }

        match gpu_arm {
            Some((dev, stream)) => {
                dispatch_gpu_batch(
                    st,
                    dev,
                    stream,
                    matcher_for(dev),
                    dcfg,
                    clock_hz,
                    assembled,
                    batch,
                    label,
                    dispatch,
                    Some((&mut models[dev], router.refine_alpha)),
                );
            }
            None => {
                let start = dispatch;
                let done = run_cpu_batch(
                    matcher_for(0),
                    dcfg,
                    &assembled,
                    batch,
                    start,
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    0,
                );
                models[cpu_tier].observe(assembled.data.len(), done - start, router.refine_alpha);
                st.cpu_free = done;
                if tier != cpu_tier {
                    // Breaker-open failover, not a routed CPU batch.
                    st.cpu_fallback_batches += 1;
                }
            }
        }
    }

    let cost_models = models
        .iter()
        .enumerate()
        .map(|(t, m)| CostModelSnapshot {
            tier: tier_label(t),
            setup_seconds: m.setup_seconds,
            bytes_per_sec: m.bytes_per_sec,
        })
        .collect();
    (rejections, expiries, tiers, cost_models)
}

/// Serve one oversized job by sharding it across every device: each
/// segment's `h2d`/kernel/`d2h` chain runs on its device's next free
/// stream (transfers arbitrated on the shared bus), and the job completes
/// when the slowest segment does. Any segment failure fails the whole job
/// over to the CPU ladder — shard results are all-or-nothing.
#[allow(clippy::too_many_arguments)]
fn scatter_job<'a>(
    st: &mut FleetState,
    job: ScanJob,
    dispatch: f64,
    gap: usize,
    clock_hz: f64,
    dcfg: &ServeConfig,
    streams_per_device: u32,
    matcher_for: &dyn Fn(usize) -> &'a GpuAcMatcher,
) {
    let devices = st.engines.len();
    let segments = plan_shards(job.payload.len(), devices as u32, gap);
    let label_base = format!("scatter{}", st.batches);
    st.batches += 1;
    st.payload_bytes += job.payload.len() as u64;
    *st.histogram.entry(1).or_insert(0) += 1;
    if let Some(t) = st.tel.as_mut() {
        t.set_device(None);
        t.batch_formed(&label_base, std::slice::from_ref(&job), dispatch, "scatter");
    }

    // Functional pass first: if any segment's supervised run exhausts its
    // retries the whole job falls back to the CPU before any timing is
    // charged (the failure is still charged to that device's breaker).
    let mut runs = Vec::with_capacity(segments.len());
    for seg in &segments {
        let window = &job.payload[seg.scan_start..seg.scan_end];
        match run_supervised(
            matcher_for(seg.device as usize),
            window,
            dcfg.approach,
            &dcfg.supervise,
        ) {
            Ok(sup) => {
                tally(&sup.report, &mut st.gpu_retries, &mut st.faults_fired);
                runs.push(sup);
            }
            Err((err, rep)) => {
                tally(&rep, &mut st.gpu_retries, &mut st.faults_fired);
                let d = seg.device as usize;
                let failed_at = st.engines[d].next_free_stream().1.max(dispatch);
                st.breakers[d].record_failure(failed_at, &err.to_string());
                let assembled = assemble_batch(std::slice::from_ref(&job), gap);
                st.cpu_free = run_cpu_batch(
                    matcher_for(0),
                    dcfg,
                    &assembled,
                    vec![job],
                    st.cpu_free.max(failed_at),
                    &mut st.outcomes,
                    &mut st.slo,
                    &mut st.tel,
                    rep.retries as u64,
                );
                st.cpu_fallback_batches += 1;
                return;
            }
        }
    }

    let mut done_max = dispatch;
    let mut first_stream = 0u32;
    let per_segment: Vec<Vec<Match>> = runs.iter().map(|sup| sup.run.matches.clone()).collect();
    for (i, (seg, sup)) in segments.iter().zip(&runs).enumerate() {
        let d = seg.device as usize;
        let (stream, free) = st.engines[d].next_free_stream();
        if i == 0 {
            first_stream = d as u32 * streams_per_device + stream;
        }
        // The segment dispatches once its stream frees up; everything
        // whose kernel has ended by then (that stream's too) reads back
        // first.
        st.flush_ready(dispatch.max(free), streams_per_device);
        if let Some(t) = st.tel.as_mut() {
            t.set_device(Some(d as u32));
        }
        let label = format!("{label_base}-d{d}");
        let bytes = seg.scan_end - seg.scan_start;
        let penalty = sup.report.penalty_cycles(dcfg.supervise.watchdog_cycles) as f64 / clock_hz;
        let pcie = dcfg.effective_pcie();
        let rb_bytes = readback_bytes(sup.run.match_events);
        let (lease, setup) = lease_batch_buffers(
            st.pools[d].as_ref(),
            &mut st.pool_charged[d],
            bytes as u64,
            Some(rb_bytes),
            clock_hz,
        )
        .expect("fleet device pool sized for its shards");
        st.submit_copy(
            d,
            stream,
            StreamOpKind::CopyH2D,
            &label,
            pcie.copy_seconds(bytes),
            pcie.bus_bytes(bytes as u64),
            dispatch + setup,
        );
        st.engines[d].submit(
            stream,
            StreamOpKind::Kernel,
            &label,
            sup.run.seconds() + penalty,
            0,
        );
        // Scatter readbacks are not staged: the job is latency-bound on
        // its slowest segment, so the `d2h` goes straight onto the bus.
        st.submit_copy(
            d,
            stream,
            StreamOpKind::CopyD2H,
            &label,
            pcie.copy_seconds(rb_bytes as usize),
            pcie.bus_bytes(rb_bytes),
            0.0,
        );
        drop(lease);
        let done = st.engines[d].stream_ready(stream);
        st.breakers[d].record_success(done);
        st.per_dev_batches[d] += 1;
        done_max = done_max.max(done);
    }

    let matches = merge_shard_matches(&segments, &per_segment);
    let latency = done_max - job.arrival_seconds;
    if let Some(c) = st.slo.as_mut() {
        c.observe(latency);
    }
    let outcome = JobOutcome {
        id: job.id,
        matches,
        completed_seconds: done_max,
        latency_seconds: latency,
        batch_jobs: 1,
        stream: first_stream,
        served_by: ServedBy::Gpu,
    };
    if !segments.is_empty() {
        st.per_dev_jobs[segments[0].device as usize] += 1;
    }
    if let Some(t) = st.tel.as_mut() {
        t.set_device(None);
        t.job_completed(&job, &outcome, dispatch, 0);
    }
    st.outcomes.push(outcome);
    st.scattered_jobs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
    use crate::{serve, ServedBy, DEFAULT_POOL_CAPACITY};
    use ac_gpu::KernelParams;
    use gpu_sim::GpuConfig;

    fn matcher() -> GpuAcMatcher {
        let cfg = GpuConfig::gtx285();
        let ac = serve_automaton(DEFAULT_PATTERNS, 0);
        GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
    }

    fn workload(jobs: u64) -> Vec<ScanJob> {
        synthetic_workload(&WorkloadConfig {
            jobs,
            arrival_rate_per_sec: 100_000,
            job_bytes: 2048,
            seed: 11,
            ..WorkloadConfig::defaults()
        })
    }

    #[test]
    fn bad_arrivals_and_duplicate_ids_are_typed_errors() {
        let m = matcher();
        for (jobs, names) in crate::job::bad_workloads() {
            let err = serve_fleet(&m, jobs, &FleetConfig::new(2, ServeConfig::new(1)))
                .expect_err("a bad workload is refused");
            assert!(
                matches!(&err, GpuError::InvalidParams(msg) if msg.contains(names)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn shard_plan_covers_and_overlaps_exactly() {
        let segs = plan_shards(1000, 4, 7);
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].owned_start, 0);
        assert_eq!(segs.last().unwrap().owned_end, 1000);
        for w in segs.windows(2) {
            assert_eq!(w[0].owned_end, w[1].owned_start);
            // Adjacent scan windows overlap by exactly the gap.
            assert_eq!(w[0].scan_end - w[1].scan_start, 7);
        }
        // Last segment's scan is clamped to the corpus.
        assert_eq!(segs.last().unwrap().scan_end, 1000);
    }

    #[test]
    fn shard_plan_drops_empty_tails() {
        // 3 bytes over 8 shards: only 3 single-byte owners.
        let segs = plan_shards(3, 8, 2);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.owned_end > s.owned_start));
        assert!(plan_shards(0, 4, 3).is_empty());
    }

    #[test]
    fn merged_shard_matches_equal_serial_scan() {
        let m = matcher();
        let ac = m.automaton();
        let data: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let overlap = ac.required_overlap();
        for shards in [1u32, 2, 3, 4, 7] {
            let segs = plan_shards(data.len(), shards, overlap);
            let per_seg: Vec<Vec<Match>> = segs
                .iter()
                .map(|s| ac.find_all(&data[s.scan_start..s.scan_end]))
                .collect();
            let merged = merge_shard_matches(&segs, &per_seg);
            let mut serial = ac.find_all(&data);
            serial.sort();
            assert_eq!(merged, serial, "shards={shards}");
        }
    }

    #[test]
    fn cost_model_fit_predict_observe() {
        // t(b) = 10us + b / 1e9.
        let m = CostModel::fit(1000, 10.0e-6 + 1.0e-6, 2000, 10.0e-6 + 2.0e-6);
        assert!((m.bytes_per_sec - 1.0e9).abs() / 1.0e9 < 1e-9);
        assert!((m.setup_seconds - 10.0e-6).abs() < 1e-12);
        assert!((m.predict(5000) - (10.0e-6 + 5.0e-6)).abs() < 1e-12);
        // Online refinement moves the setup term toward the implied one.
        let mut m2 = m;
        m2.observe(1000, 30.0e-6 + 1.0e-6, 0.5);
        assert!((m2.setup_seconds - 20.0e-6).abs() < 1e-12);
        // Degenerate probe: flat model, finite predictions.
        let flat = CostModel::fit(1000, 5.0e-6, 2000, 5.0e-6);
        assert!(flat.predict(1 << 20).is_finite());
    }

    #[test]
    fn parity_fleet_of_one_matches_serve_exactly() {
        let m = matcher();
        let jobs = workload(48);
        let scfg = ServeConfig::new(2);
        let single = serve(&m, jobs.clone(), &scfg).unwrap();
        let fleet = serve_fleet(&m, jobs, &FleetConfig::new(1, scfg).parity()).unwrap();
        assert_eq!(fleet.report.devices, 1);
        assert_eq!(fleet.serve.report, single.report);
        assert_eq!(fleet.serve.outcomes.len(), single.outcomes.len());
        for (a, b) in fleet.serve.outcomes.iter().zip(&single.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.matches, b.matches);
            assert_eq!(a.completed_seconds, b.completed_seconds);
            assert_eq!(a.stream, b.stream);
        }
        assert_eq!(fleet.serve.timeline, single.timeline);
        assert!(fleet.report.routing.is_empty());
        assert!(fleet.report.cost_models.is_empty());
    }

    #[test]
    fn pooled_parity_fleet_of_one_matches_pooled_serve() {
        // The parity contract survives arming the device pool: a pinned
        // pool leases the same buffer sequence on both paths, so the
        // reports — pool stats included — stay identical.
        let m = matcher();
        let jobs = workload(48);
        let scfg =
            ServeConfig::new(2).with_pool(crate::ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
        let single = serve(&m, jobs.clone(), &scfg).unwrap();
        let fleet = serve_fleet(&m, jobs, &FleetConfig::new(1, scfg).parity()).unwrap();
        assert_eq!(fleet.serve.report, single.report);
        assert!(fleet.serve.report.pool.is_some());
        for (a, b) in fleet.serve.outcomes.iter().zip(&single.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.completed_seconds, b.completed_seconds);
        }
    }

    #[test]
    fn pooled_fleet_merges_per_device_stats_and_stays_correct() {
        let m = matcher();
        let jobs = workload(64);
        let scfg =
            ServeConfig::new(1).with_pool(crate::ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
        let fleet = serve_fleet(&m, jobs.clone(), &FleetConfig::new(4, scfg).parity()).unwrap();
        assert_eq!(fleet.serve.report.jobs_completed, jobs.len() as u64);
        let pool = fleet.serve.report.pool.expect("merged pool stats");
        // Every GPU batch on every device leases corpus + result, and the
        // per-device drains would have panicked on any leak.
        assert_eq!(pool.acquires, 2 * fleet.serve.report.batches);
        assert_eq!(pool.releases, pool.acquires);
        assert_eq!(pool.hits + pool.misses, pool.acquires);
        assert!(pool.high_water_bytes > 0);
        for job in &jobs {
            let out = fleet
                .serve
                .outcomes
                .iter()
                .find(|o| o.id == job.id)
                .unwrap();
            let mut expect = m.automaton().find_all(&job.payload);
            expect.sort();
            let mut got = out.matches.clone();
            got.sort();
            assert_eq!(got, expect, "job {}", job.id);
        }
    }

    #[test]
    fn parity_fleet_scales_throughput_and_stays_correct() {
        let m = matcher();
        let jobs = workload(64);
        let scfg = ServeConfig::new(1);
        let d1 = serve_fleet(&m, jobs.clone(), &FleetConfig::new(1, scfg).parity()).unwrap();
        let d4 = serve_fleet(&m, jobs.clone(), &FleetConfig::new(4, scfg).parity()).unwrap();
        assert_eq!(d4.serve.report.jobs_completed, jobs.len() as u64);
        assert!(
            d4.serve.report.makespan_seconds < d1.serve.report.makespan_seconds,
            "4 devices must beat 1: {} vs {}",
            d4.serve.report.makespan_seconds,
            d1.serve.report.makespan_seconds
        );
        // Work actually spread across devices.
        let active = d4
            .report
            .per_device
            .iter()
            .filter(|d| d.batches > 0)
            .count();
        assert!(active >= 2, "only {active} devices saw work");
        // Matches stay oracle-exact on every device.
        for job in &jobs {
            let out = d4.serve.outcomes.iter().find(|o| o.id == job.id).unwrap();
            let mut expect = m.automaton().find_all(&job.payload);
            expect.sort();
            let mut got = out.matches.clone();
            got.sort();
            assert_eq!(got, expect, "job {}", job.id);
        }
        // The shared bus saw every transfer.
        assert!(d4.report.bus.grants > 0);
        assert!(d4.report.bus.bytes >= d4.serve.report.payload_bytes);
    }

    #[test]
    fn routed_fleet_sends_small_jobs_to_cpu_and_large_to_gpu() {
        let m = matcher();
        // Tiny jobs (CPU-friendly: no PCIe/launch setup) interleaved
        // with large ones (GPU-friendly: bandwidth-bound).
        let mut jobs = Vec::new();
        for i in 0..12u64 {
            let (bytes, arrival) = if i % 2 == 0 {
                (64usize, i as f64 * 50.0e-6)
            } else {
                (256 * 1024, i as f64 * 50.0e-6)
            };
            jobs.push(ScanJob::new(i, vec![b't'; bytes], arrival));
        }
        let fleet = serve_fleet(&m, jobs, &FleetConfig::new(2, ServeConfig::new(1))).unwrap();
        assert_eq!(fleet.serve.report.jobs_completed, 12);
        let cpu_jobs = fleet
            .serve
            .outcomes
            .iter()
            .filter(|o| o.served_by == ServedBy::CpuLadder)
            .count();
        let gpu_jobs = fleet
            .serve
            .outcomes
            .iter()
            .filter(|o| o.served_by == ServedBy::Gpu)
            .count();
        assert!(cpu_jobs > 0, "router never used the CPU tier");
        assert!(gpu_jobs > 0, "router never used the GPU tier");
        // Routed CPU batches are not failover.
        assert_eq!(fleet.serve.report.cpu_fallback_batches, 0);
        assert_eq!(fleet.serve.report.breaker_opens, 0);
        // The routing table accounts for every queued job.
        let routed: u64 = fleet.report.routing.iter().map(|t| t.jobs).sum();
        assert_eq!(routed, 12);
        let cpu_row = fleet
            .report
            .routing
            .iter()
            .find(|t| t.tier == "cpu")
            .unwrap();
        assert!(cpu_row.jobs > 0);
        // Cost models were fitted and published.
        assert_eq!(fleet.report.cost_models.len(), 3);
        assert!(fleet
            .report
            .cost_models
            .iter()
            .all(|c| c.setup_seconds >= 0.0 && c.bytes_per_sec > 0.0));
    }

    #[test]
    fn scatter_path_shards_large_jobs_exactly() {
        let m = matcher();
        let payload: Vec<u8> = b"the king and her mother were singing a motion "
            .iter()
            .cycle()
            .take(512 * 1024)
            .copied()
            .collect();
        let jobs = vec![
            ScanJob::new(0, payload.clone(), 0.0),
            ScanJob::new(1, vec![b't'; 64], 10.0e-6),
        ];
        let mut fcfg = FleetConfig::new(4, ServeConfig::new(1));
        fcfg.shard_bytes = Some(128 * 1024);
        let fleet = serve_fleet(&m, jobs, &fcfg).unwrap();
        assert_eq!(fleet.report.scattered_jobs, 1);
        assert_eq!(fleet.serve.report.jobs_completed, 2);
        let big = fleet.serve.outcomes.iter().find(|o| o.id == 0).unwrap();
        assert_eq!(big.served_by, ServedBy::Gpu);
        let mut expect = m.automaton().find_all(&payload);
        expect.sort();
        assert_eq!(big.matches, expect, "sharded matches must equal serial");
        // Every device launched a segment.
        assert!(fleet.report.per_device.iter().all(|d| d.batches > 0));
    }

    #[test]
    fn retry_hints_derive_from_aggregate_fleet_drain_rate() {
        use crate::telemetry::TelemetryConfig;

        let m = matcher();
        // Calibrate one job's service time, then arrive 4× faster than a
        // single device drains so the queue overflows for the whole run
        // on both fleet sizes.
        let probe = serve(
            &m,
            vec![ScanJob::new(0, vec![b't'; 32 * 1024], 0.0)],
            &ServeConfig::new(1).per_job(),
        )
        .unwrap();
        let t_service = probe.report.makespan_seconds;
        assert!(t_service > 0.0);
        let spacing = t_service / 4.0;
        let burst = |n: u64| -> Vec<ScanJob> {
            (0..n)
                .map(|id| ScanJob::new(id, vec![b't'; 32 * 1024], id as f64 * spacing))
                .collect()
        };
        let mut scfg = ServeConfig::new(1).per_job();
        scfg.queue_capacity = 2;
        scfg.telemetry = Some(TelemetryConfig {
            sample_interval_seconds: t_service / 2.0,
            ..TelemetryConfig::default()
        });

        let d1 = serve_fleet(&m, burst(40), &FleetConfig::new(1, scfg).parity()).unwrap();
        let d2 = serve_fleet(&m, burst(40), &FleetConfig::new(2, scfg).parity()).unwrap();
        let last_hint = |run: &FleetRun| {
            *run.serve
                .rejections
                .iter()
                .rev()
                .find(|r| r.retry_after_us > 0.0)
                .expect("overloaded run must emit hinted rejections")
        };
        let (h1, h2) = (last_hint(&d1), last_hint(&d2));
        // Twice the devices drain roughly twice as fast, so the same
        // capacity empties in roughly half the time: the aggregate-rate
        // hint must shrink materially, not stay per-device.
        assert!(
            h2.retry_after_us < 0.8 * h1.retry_after_us,
            "d2 hint {} not below d1 hint {}",
            h2.retry_after_us,
            h1.retry_after_us
        );

        // Pin the hint against the telemetry registry's sampled rate:
        // capacity / hint must agree with the cumulative completion rate
        // at the nearest sample (the loop derives both from the same
        // outcomes-over-time aggregate).
        let tel = d2.serve.telemetry.as_ref().expect("telemetry armed");
        let arrival = h2.job_id as f64 * spacing;
        let sample = tel
            .samples
            .iter()
            .filter(|s| s.t_seconds > 0.0 && s.completed > 0)
            .min_by(|a, b| {
                (a.t_seconds - arrival)
                    .abs()
                    .partial_cmp(&(b.t_seconds - arrival).abs())
                    .unwrap()
            })
            .expect("registry produced samples");
        let sampled_rate = sample.completed as f64 / sample.t_seconds;
        let implied_rate = h2.capacity as f64 / h2.retry_after_us * 1.0e6;
        assert!(
            implied_rate > 0.5 * sampled_rate && implied_rate < 2.0 * sampled_rate,
            "hint-implied rate {implied_rate} disagrees with sampled rate {sampled_rate}"
        );
    }

    #[test]
    fn fleet_report_round_trips_json() {
        let m = matcher();
        let fleet =
            serve_fleet(&m, workload(16), &FleetConfig::new(2, ServeConfig::new(1))).unwrap();
        let back = FleetReport::from_json(&fleet.report.to_json()).unwrap();
        assert_eq!(back, fleet.report);
    }
}
