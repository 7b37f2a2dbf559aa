//! Host-time spans recorded around every call the benchmark makes into
//! the program. Spans stay in memory; a traced run writes them out once,
//! at exit.

use crate::stats::Plane;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    /// One id per call, unique within the run.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The public function called, e.g. `ac_gpu::GpuAcMatcher::run`.
    pub name: &'static str,
    pub plane: Plane,
    /// Ladder rung the call served, if any.
    pub rung: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Simulated input bytes the call consumed.
    pub bytes: u64,
    /// Host speed when the call started, relative to the reference
    /// machine (see [`reference_seconds`]), sampled by root spans and
    /// inherited by their children.
    pub speed: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Host seconds the call would have taken on the reference machine.
    pub fn calibrated_seconds(&self) -> f64 {
        self.seconds() * self.speed
    }
}

/// Host time of the calibration loop on the reference machine.
pub const REFERENCE_SECONDS: f64 = 0.010;

/// Time a fixed integer loop that calls nothing in the program. A shared
/// host's speed can drift by up to 2x over tens of seconds; the ratio of
/// [`REFERENCE_SECONDS`] to this sample rescales the host time of the
/// calls that follow it, so drift between runs cancels while a change in
/// the program's own speed does not.
pub fn reference_seconds() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..REFERENCE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Loop iterations that take about [`REFERENCE_SECONDS`] on the
/// reference machine (one vCPU of a 2 GHz x86-64 VM).
const REFERENCE_ITERS: u64 = 4_000_000;

/// Re-measure host speed at most this often.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Latest host speed sample and when it was taken.
    speed: Option<(Instant, f64)>,
    /// Rung stamped on spans started from now on.
    pub rung: Option<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            speed: None,
            rung: None,
        }
    }

    /// Host speed relative to the reference machine, re-measured when the
    /// last sample is stale. Only root spans sample, so no call's own
    /// time includes a calibration loop.
    fn speed(&mut self) -> f64 {
        match self.speed {
            Some((at, s)) if at.elapsed() < CALIBRATE_EVERY => s,
            _ => {
                let s = REFERENCE_SECONDS / reference_seconds();
                self.speed = Some((Instant::now(), s));
                s
            }
        }
    }

    /// Time `f` as a span named `name`, nested under whichever span is
    /// open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        plane: Plane,
        bytes: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let speed = match self.open.last() {
            None => self.speed(),
            Some(&p) => self.spans[p].speed,
        };
        let start = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            plane,
            rung: self.rung,
            start,
            end: start,
            bytes,
            speed,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        // A long root call outlives its speed sample: average it with a
        // fresh one taken at the end, for the call and everything in it.
        if self.open.is_empty() && self.spans[id].end - start >= CALIBRATE_EVERY {
            self.speed = None;
            let speed = (speed + self.speed()) / 2.0;
            for s in &mut self.spans[id..] {
                s.speed = speed;
            }
        }
        out
    }

    /// Position to slice the spans recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    pub fn spans_in(&self, range: &std::ops::Range<usize>) -> &[Span] {
        &self.spans[range.clone()]
    }

    /// Every span, as JSON: one object per span with times in µs from
    /// the run's start.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"plane\":\"{:?}\",\"rung\":{},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"bytes\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                opt(s.parent),
                s.name,
                s.plane,
                opt(s.rung),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.bytes
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Root spans of a window as `(plane, bytes, calibrated seconds)`, the
/// shape [`crate::stats::host_mbps`] takes. A root's parent lies outside
/// the window (or does not exist).
pub fn roots(window: &[Span]) -> impl Iterator<Item = (Plane, u64, f64)> + '_ {
    let first = window.first().map_or(0, |s| s.id);
    window
        .iter()
        .filter(move |s| s.parent.is_none_or(|p| p < first))
        .map(|s| (s.plane, s.bytes, s.calibrated_seconds()))
}

/// Calibrated host seconds of the named spans minus the time their
/// direct children cover: the layer's self time.
pub fn self_seconds(window: &[Span], names: &[&str]) -> f64 {
    let first = window.first().map_or(0, |s| s.id);
    let mut child = vec![0.0f64; window.len()];
    for s in window {
        if let Some(p) = s.parent.filter(|&p| p >= first) {
            child[p - first] += s.calibrated_seconds();
        }
    }
    window
        .iter()
        .zip(&child)
        .filter(|(s, _)| names.contains(&s.name))
        .map(|(s, c)| s.calibrated_seconds() - c)
        .sum()
}

/// Simulated bytes of the named spans.
pub fn bytes_of(window: &[Span], names: &[&str]) -> u64 {
    window
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new();
        rec.span("outer", Plane::Setup, 0, |rec| {
            rec.span("inner", Plane::Setup, 0, |rec| {
                rec.span("leaf", Plane::Setup, 0, |_| {
                    std::thread::sleep(Duration::from_millis(4))
                })
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let w = rec.since(0);
        let outer = self_seconds(w, &["outer"]);
        let inner = self_seconds(w, &["inner"]);
        let leaf = self_seconds(w, &["leaf"]);
        let k = w[0].speed;
        assert!(outer >= 0.002 * k && outer < (w[0].seconds() - 0.004) * k);
        assert!(inner >= 0.0 && inner < 0.004 * k);
        assert!(leaf >= 0.004 * k);
        let total = outer + inner + leaf;
        assert!(
            (total - w[0].calibrated_seconds()).abs() < 1e-9,
            "self times partition the root"
        );
    }

    #[test]
    fn roots_of_a_window_skip_nested_spans() {
        let mut rec = Recorder::new();
        rec.span("setup", Plane::Setup, 0, |_| ());
        let mark = rec.mark();
        rec.span("scan", Plane::Timed, 10, |rec| {
            rec.span("nested", Plane::Timed, 10, |_| ())
        });
        let r: Vec<_> = roots(rec.since(mark)).collect();
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].0, r[0].1), (Plane::Timed, 10));
    }
}
