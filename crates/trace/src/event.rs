//! Cycle-stamped span/event recorder.
//!
//! [`TraceBuffer`] is a bounded, append-only log of [`TraceEvent`]s. It is
//! deliberately dumb: producers push fully-formed events stamped with the
//! simulated cycle at which they occurred; exporters ([`crate::chrome`],
//! [`crate::summary`]) interpret them. Determinism matters more than
//! richness here — two runs with identical inputs must produce identical
//! buffers, so nothing in this module reads wall-clock time or allocates
//! based on host state.
//!
//! The buffer is bounded by [`TraceConfig::max_events`]; once full, new
//! events are counted in [`TraceBuffer::dropped`] instead of recorded, so a
//! pathological run cannot exhaust host memory.

use crate::stall::StallReason;
use crate::Cycle;

/// Process-id used for host-side phases (upload/launch/readback/retry).
pub const PID_HOST: u32 = 0;
/// Process-id used for device-side activity (SMs, DRAM channel).
pub const PID_DEVICE: u32 = 1;
/// Process-id used for per-job serving lifecycle spans (queue wait,
/// service) and admission instants (shed/rejected/expired); `tid` is the
/// job's priority class.
pub const PID_SERVE_JOBS: u32 = 2;
/// Process-id used for the serving control plane: breaker transitions
/// and cadence-sampled metrics counters (queue depth, windowed p99).
pub const PID_SERVE_CONTROL: u32 = 3;
/// Process-id used for SLO flight-recorder exemplars (the worst-latency
/// jobs per window); `tid` is the window index.
pub const PID_SERVE_SLO: u32 = 4;
/// One past the highest reserved serve pid. Per-stream rows
/// (`gpu_sim::PID_STREAM_BASE`) must start at or above this so a
/// stitched serving trace keeps job lifecycle tracks and stream-op
/// tracks in disjoint pid ranges.
pub const PID_SERVE_LIMIT: u32 = 5;

/// Trace-event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A span with a duration (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter,
}

impl Phase {
    /// The single-character Chrome trace-event phase code.
    pub fn code(&self) -> &'static str {
        match self {
            Phase::Complete => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }

    /// Parse a Chrome phase code back into a [`Phase`].
    pub fn from_code(code: &str) -> Option<Phase> {
        match code {
            "X" => Some(Phase::Complete),
            "i" => Some(Phase::Instant),
            "C" => Some(Phase::Counter),
            _ => None,
        }
    }
}

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (cycle counts, byte counts, ids).
    U64(u64),
    /// Floating-point payload (rates, fractions).
    F64(f64),
    /// String payload (labels, stall reasons, error classes).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// One recorded event. Timestamps and durations are in device cycles; the
/// Chrome exporter converts to microseconds at export time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `"warp-stall"`, `"kernel"`, `"dram-txn"`).
    pub name: String,
    /// Category (e.g. `"sched"`, `"mem"`, `"host"`, `"ladder"`).
    pub cat: String,
    /// Phase kind.
    pub ph: Phase,
    /// Start cycle.
    pub ts: Cycle,
    /// Duration in cycles (0 for instants/counters).
    pub dur: Cycle,
    /// Track group: [`PID_HOST`] or [`PID_DEVICE`].
    pub pid: u32,
    /// Track within the group (SM index, DRAM channel, ladder tier, ...).
    pub tid: u32,
    /// Typed key/value arguments.
    pub args: Vec<(String, ArgValue)>,
}

/// What to record. `Copy` so callers can stash it in run options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Upper bound on recorded events; overflow increments `dropped`.
    pub max_events: usize,
    /// Record scheduler events (warp stalls, block lifecycle, SM spans).
    pub scheduler: bool,
    /// Record DRAM transaction events.
    pub dram: bool,
    /// Record per-issue events (very high volume; off by default).
    pub issues: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            max_events: 1 << 20,
            scheduler: true,
            dram: true,
            issues: false,
        }
    }
}

/// A bounded, deterministic event log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    cfg: TraceConfig,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new(TraceConfig::default())
    }
}

impl TraceBuffer {
    /// Create an empty buffer with the given bounds/filters.
    pub fn new(cfg: TraceConfig) -> TraceBuffer {
        TraceBuffer {
            cfg,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The configuration this buffer records under.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Recorded events, in push order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Push a fully-formed event, honouring the buffer bound.
    pub fn push(&mut self, ev: TraceEvent) {
        if !self.drop_if_full() {
            self.events.push(ev);
        }
    }

    /// Count one dropped event when the buffer is full. The helpers below
    /// check this before building an event, so a full buffer costs no
    /// allocation.
    fn drop_if_full(&mut self) -> bool {
        let full = self.events.len() >= self.cfg.max_events;
        if full {
            self.dropped += 1;
        }
        full
    }

    /// Record a duration span.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts: Cycle,
        dur: Cycle,
        args: Vec<(String, ArgValue)>,
    ) {
        if self.drop_if_full() {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: Phase::Complete,
            ts,
            dur,
            pid,
            tid,
            args,
        });
    }

    /// Record a point-in-time marker.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        ts: Cycle,
        args: Vec<(String, ArgValue)>,
    ) {
        if self.drop_if_full() {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: Phase::Instant,
            ts,
            dur: 0,
            pid,
            tid,
            args,
        });
    }

    /// Record a sampled counter value.
    pub fn counter(&mut self, name: &str, cat: &str, pid: u32, tid: u32, ts: Cycle, value: u64) {
        if self.drop_if_full() {
            return;
        }
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: Phase::Counter,
            ts,
            dur: 0,
            pid,
            tid,
            args: vec![("value".to_string(), ArgValue::U64(value))],
        });
    }

    /// Record an idle gap attributed to `reason` on SM `sm`.
    pub fn stall(&mut self, sm: u32, ts: Cycle, dur: Cycle, reason: StallReason) {
        if self.drop_if_full() {
            return;
        }
        self.span(
            "warp-stall",
            "sched",
            PID_DEVICE,
            sm,
            ts,
            dur,
            vec![(
                "reason".to_string(),
                ArgValue::Str(reason.label().to_string()),
            )],
        );
    }

    /// Move `other`'s events onto the end of this buffer, honouring this
    /// buffer's bound. `other`'s drop count carries over, so appending
    /// per-producer buffers in order records and drops exactly what
    /// pushing every event here in that order would have.
    pub fn append(&mut self, mut other: TraceBuffer) {
        let room = self.cfg.max_events.saturating_sub(self.events.len());
        let kept = other.events.len().min(room);
        self.dropped += (other.events.len() - kept) as u64 + other.dropped;
        other.events.truncate(kept);
        if self.events.is_empty() {
            self.events = other.events;
        } else {
            self.events.append(&mut other.events);
        }
    }

    /// Append `other`'s events shifted forward by `offset` cycles. Used by
    /// the supervisor to stitch per-attempt device traces into one
    /// retry-aware timeline. `other`'s drop count carries over.
    pub fn merge_shifted(&mut self, other: &TraceBuffer, offset: Cycle) {
        for ev in &other.events {
            let mut shifted = ev.clone();
            shifted.ts = shifted.ts.saturating_add(offset);
            self.push(shifted);
        }
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_respects_bound_and_counts_drops() {
        let mut buf = TraceBuffer::new(TraceConfig {
            max_events: 2,
            ..Default::default()
        });
        for i in 0..5 {
            buf.instant("e", "t", PID_HOST, 0, i, Vec::new());
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
    }

    #[test]
    fn span_instant_counter_shapes() {
        let mut buf = TraceBuffer::default();
        buf.span(
            "k",
            "host",
            PID_HOST,
            0,
            10,
            90,
            vec![("b".into(), ArgValue::U64(7))],
        );
        buf.instant("m", "host", PID_HOST, 0, 100, Vec::new());
        buf.counter("q", "mem", PID_DEVICE, 3, 50, 42);
        let evs = buf.events();
        assert_eq!(evs[0].ph, Phase::Complete);
        assert_eq!(evs[0].dur, 90);
        assert_eq!(evs[1].ph, Phase::Instant);
        assert_eq!(evs[1].dur, 0);
        assert_eq!(evs[2].ph, Phase::Counter);
        assert_eq!(evs[2].args, vec![("value".to_string(), ArgValue::U64(42))]);
    }

    #[test]
    fn stall_helper_labels_reason() {
        let mut buf = TraceBuffer::default();
        buf.stall(5, 200, 30, StallReason::TexMiss);
        let ev = &buf.events()[0];
        assert_eq!(ev.name, "warp-stall");
        assert_eq!(ev.pid, PID_DEVICE);
        assert_eq!(ev.tid, 5);
        assert_eq!(ev.args[0].1, ArgValue::Str("tex-miss".to_string()));
    }

    #[test]
    fn merge_shifted_offsets_timestamps_and_carries_drops() {
        let mut a = TraceBuffer::default();
        a.instant("a", "t", PID_HOST, 0, 5, Vec::new());
        let mut b = TraceBuffer::new(TraceConfig {
            max_events: 1,
            ..Default::default()
        });
        b.instant("b1", "t", PID_HOST, 0, 10, Vec::new());
        b.instant("b2", "t", PID_HOST, 0, 11, Vec::new()); // dropped
        a.merge_shifted(&b, 100);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[1].ts, 110);
        assert_eq!(a.dropped(), 1);
    }

    #[test]
    fn append_in_order_equals_pushing_in_order() {
        let cfg = TraceConfig {
            max_events: 4,
            ..Default::default()
        };
        let mut direct = TraceBuffer::new(cfg);
        direct.instant("pre", "t", PID_HOST, 0, 0, Vec::new());
        let mut merged = direct.clone();
        let room = cfg.max_events - merged.len();
        for producer in 0..3u64 {
            let mut part = TraceBuffer::new(TraceConfig {
                max_events: room,
                ..cfg
            });
            for ts in 0..producer + 1 {
                direct.instant("e", "t", PID_HOST, producer as u32, ts, Vec::new());
                part.instant("e", "t", PID_HOST, producer as u32, ts, Vec::new());
            }
            merged.append(part);
        }
        assert_eq!(merged, direct);
        assert_eq!(merged.dropped(), 3);
    }

    #[test]
    fn phase_codes_roundtrip() {
        for ph in [Phase::Complete, Phase::Instant, Phase::Counter] {
            assert_eq!(Phase::from_code(ph.code()), Some(ph));
        }
        assert_eq!(Phase::from_code("Z"), None);
    }
}
