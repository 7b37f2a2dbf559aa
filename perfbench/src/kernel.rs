//! The kernel plane: one resident input scanned by the paper's
//! shared-diagonal kernel, the banded layout and the cpu-sim serial
//! model, plus the per-packet view of the same kernel.

use crate::spans::Recorder;
use crate::stats::Plane;
use ac_core::{AcAutomaton, Match};
use ac_gpu::{Approach, GpuAcMatcher, GpuRun, KernelParams, RunOptions, TraceConfig};
use corpus::{extract_patterns, ExtractConfig, TextGenerator};
use cpu_sim::{simulate_serial, CpuConfig, CpuRunReport};
use gpu_sim::{GpuConfig, LaunchStats};
use std::collections::VecDeque;

pub const GPU_RUN: &str = "ac_gpu::GpuAcMatcher::run";
pub const CPU_SIM: &str = "cpu_sim::simulate_serial";
pub const FIND_ALL: &str = "ac_core::AcAutomaton::find_all";
pub const TEXT_GEN: &str = "corpus::TextGenerator::generate";
pub const EXTRACT: &str = "corpus::extract_patterns";
pub const BUILD: &str = "ac_core::AcAutomaton::build";
pub const PREPARE: &str = "ac_gpu::GpuAcMatcher::new";

/// The two GPU layouts every throughput scan runs, by metric suffix.
pub const LAYOUTS: [(&str, Approach); 2] = [
    ("diag", Approach::SharedDiagonal),
    ("banded", Approach::SharedBanded),
];

/// Device events kept per traced launch: enough to exercise the hook,
/// bounded so a multi-MB scan does not hold a million events.
const TRACE_EVENTS: usize = 4096;

/// A dictionary prepared for the device. `role` ("small" or "large")
/// suffixes its per-layer metrics.
pub struct Dict {
    pub role: &'static str,
    pub patterns: usize,
    pub matcher: GpuAcMatcher,
}

/// Seeded English-like text.
pub fn text(rec: &mut Recorder, seed: u64, bytes: usize) -> Vec<u8> {
    rec.span(TEXT_GEN, Plane::Setup, 0, |_| {
        TextGenerator::new(seed).generate(bytes)
    })
}

/// Extract `count` patterns from `source`, build the automaton and
/// prepare it for a GTX 285, including the banded table the matcher
/// otherwise builds lazily on its first banded launch.
pub fn dictionary(
    rec: &mut Recorder,
    role: &'static str,
    source: &[u8],
    count: usize,
    seed: u64,
) -> Result<Dict, String> {
    let patterns = rec.span(EXTRACT, Plane::Setup, 0, |_| {
        extract_patterns(source, &ExtractConfig::paper_default(count, seed))
    });
    let ac = rec.span(BUILD, Plane::Setup, 0, |_| AcAutomaton::build(&patterns));
    let gpu = GpuConfig::gtx285();
    let matcher = rec
        .span(PREPARE, Plane::Setup, 0, |_| {
            GpuAcMatcher::new(gpu, KernelParams::defaults_for(&gpu), ac)
        })
        .map_err(|e| format!("{role} dictionary: {e}"))?;
    let warm = &source[..source.len().min(4096)];
    rec.span(GPU_RUN, Plane::Setup, warm.len() as u64, |_| {
        matcher.run(warm, Approach::SharedBanded)
    })
    .map_err(|e| format!("{role} dictionary banded warm-up: {e}"))?;
    Ok(Dict {
        role,
        patterns: count,
        matcher,
    })
}

/// The serial matcher's answer, sorted: what every scan must equal.
pub fn oracle(rec: &mut Recorder, dict: &Dict, text: &[u8]) -> Vec<Match> {
    rec.span(FIND_ALL, Plane::Oracle, text.len() as u64, |_| {
        let mut m = dict.matcher.automaton().find_all(text);
        m.sort_unstable();
        m
    })
}

pub fn check(what: &str, mut got: Vec<Match>, expected: &[Match]) -> Result<(), String> {
    got.sort_unstable();
    if got == expected {
        return Ok(());
    }
    let first = got
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "oracle mismatch on {what}: {} matches, serial find_all has {} (first difference at #{first})",
        got.len(),
        expected.len()
    ))
}

/// One timed GPU launch, checked against the oracle.
fn launch(
    rec: &mut Recorder,
    dict: &Dict,
    input: &[u8],
    approach: Approach,
    traced: bool,
    what: &str,
    expected: &[Match],
) -> Result<GpuRun, String> {
    let opts = RunOptions {
        record: true,
        trace: traced.then_some(TraceConfig {
            max_events: TRACE_EVENTS,
            ..TraceConfig::default()
        }),
        ..RunOptions::default()
    };
    let mut run = rec
        .span(GPU_RUN, Plane::Timed, input.len() as u64, |_| {
            dict.matcher.run_opts(input, approach, opts)
        })
        .map_err(|e| format!("{what}: scan failed: {e}"))?;
    if traced && run.trace.is_none() {
        return Err(format!("{what}: trace hook armed but no trace returned"));
    }
    let matches = std::mem::take(&mut run.matches);
    rec.span("oracle::compare", Plane::Oracle, 0, |_| {
        check(what, matches, expected)
    })?;
    Ok(run)
}

/// One modeled launch's counters.
pub struct Scan {
    pub layout: &'static str,
    pub role: &'static str,
    pub bytes: u64,
    pub seconds: f64,
    pub stats: LaunchStats,
}

/// Everything one pass over the throughput input modeled.
pub struct ThroughputRound {
    pub scans: Vec<Scan>,
    pub cpu: Vec<CpuRunReport>,
    pub cpu_seconds: f64,
}

impl ThroughputRound {
    pub fn instructions(&self) -> u64 {
        self.scans.iter().map(|s| s.stats.totals.instructions).sum()
    }

    /// Bits over modeled seconds across every scan of `layout`.
    pub fn gbps(&self, layout: &str) -> f64 {
        let (bits, secs) = self
            .scans
            .iter()
            .filter(|s| s.layout == layout)
            .fold((0.0, 0.0), |(b, t), s| {
                (b + s.bytes as f64 * 8.0, t + s.seconds)
            });
        bits / secs / 1e9
    }

    /// cpu-sim serial seconds over shared-diagonal seconds, same scans.
    pub fn speedup(&self) -> f64 {
        let diag: f64 = self
            .scans
            .iter()
            .filter(|s| s.layout == "diag")
            .map(|s| s.seconds)
            .sum();
        self.cpu_seconds / diag
    }
}

/// Scan `input` with every dictionary: both GPU layouts and the cpu-sim
/// serial model. `expected[i]` is dictionary `i`'s oracle answer.
pub fn throughput_round(
    rec: &mut Recorder,
    dicts: &[Dict],
    input: &[u8],
    expected: &[Vec<Match>],
    traced: bool,
) -> Result<ThroughputRound, String> {
    let cpu_cfg = CpuConfig::core2duo_2_2ghz();
    let mut out = ThroughputRound {
        scans: Vec::new(),
        cpu: Vec::new(),
        cpu_seconds: 0.0,
    };
    for (dict, expected) in dicts.iter().zip(expected) {
        for (layout, approach) in LAYOUTS {
            let what = format!("{layout} scan, {} patterns", dict.patterns);
            let run = launch(rec, dict, input, approach, traced, &what, expected)?;
            out.scans.push(Scan {
                layout,
                role: dict.role,
                bytes: input.len() as u64,
                seconds: run.seconds(),
                stats: run.stats,
            });
        }
        let cpu = rec.span(CPU_SIM, Plane::Timed, input.len() as u64, |_| {
            simulate_serial(&cpu_cfg, dict.matcher.automaton().stt(), input)
        });
        out.cpu_seconds += cpu.seconds(&cpu_cfg);
        out.cpu.push(cpu);
    }
    Ok(out)
}

/// Scan each packet on its own with the shared-diagonal kernel. Returns
/// the modeled seconds of each launch and the warp instructions issued.
pub fn packet_round(
    rec: &mut Recorder,
    dict: &Dict,
    packets: &[&[u8]],
    expected: &[Vec<Match>],
    traced: bool,
) -> Result<(Vec<f64>, u64), String> {
    let mut seconds = Vec::with_capacity(packets.len());
    let mut instructions = 0;
    for (i, (p, e)) in packets.iter().zip(expected).enumerate() {
        let what = format!("packet {i}");
        let run = launch(rec, dict, p, Approach::SharedDiagonal, traced, &what, e)?;
        seconds.push(run.seconds());
        instructions += run.stats.totals.instructions;
    }
    Ok((seconds, instructions))
}

/// An open-loop rung served by one unbatched device in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct FifoRung {
    pub latencies_us: Vec<f64>,
    pub refused: u64,
    /// Completed jobs per modeled second, first arrival to last completion.
    pub jobs_per_sec: f64,
}

/// Offer `service.len()` packets at `rate` per second, evenly spaced,
/// to a device that runs one launch at a time and holds at most
/// `capacity` packets waiting; a packet arriving to a full queue is
/// refused. Latency runs from each packet's due time.
pub fn fifo(service: &[f64], rate: f64, capacity: usize) -> FifoRung {
    let mut in_system: VecDeque<f64> = VecDeque::new();
    let mut free = 0.0f64;
    let mut latencies_us = Vec::with_capacity(service.len());
    let mut refused = 0;
    for (i, &s) in service.iter().enumerate() {
        let due = i as f64 / rate;
        while in_system.front().is_some_and(|&end| end <= due) {
            in_system.pop_front();
        }
        // One packet in service plus `capacity` waiting.
        if in_system.len() > capacity {
            refused += 1;
            continue;
        }
        free = free.max(due) + s;
        in_system.push_back(free);
        latencies_us.push((free - due) * 1e6);
    }
    let jobs_per_sec = if free > 0.0 {
        latencies_us.len() as f64 / free
    } else {
        0.0
    };
    FifoRung {
        latencies_us,
        refused,
        jobs_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_below_saturation_never_queues() {
        let r = fifo(&[1e-3; 100], 500.0, 4);
        assert_eq!(r.refused, 0);
        assert!(r.latencies_us.iter().all(|&l| (l - 1000.0).abs() < 1e-6));
    }

    #[test]
    fn fifo_past_saturation_queues_then_refuses() {
        // 1 ms service offered every 0.5 ms: the backlog grows by one
        // packet per millisecond until the queue of 2 is full.
        let r = fifo(&[1e-3; 20], 2000.0, 2);
        assert!(r.refused > 0);
        assert_eq!(r.latencies_us.len() as u64 + r.refused, 20);
        assert!(r.latencies_us[1] > r.latencies_us[0]);
        assert!((r.jobs_per_sec - 1000.0).abs() < 100.0);
    }
}
