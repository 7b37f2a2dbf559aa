//! Per-layer metrics of the traced run. Every name is emitted on every
//! workload; a layer a workload never enters reads 0.

use crate::kernel::{self, Dict};
use crate::serving::{SERVE, SERVE_FLEET, SYNTHETIC};
use crate::spans::{bytes_of, self_seconds, Span};
use crate::stats::{failed_frac, median, percentile};
use crate::workloads::Round;
use gpu_sim::{LaunchStats, StreamOpKind};
use std::collections::BTreeMap;

/// Per-launch counters reported for each `(layout, dictionary)` pair,
/// with their units.
const SCAN_METRICS: [(&str, &str); 12] = [
    ("gpu_sim.cycles", "cycles"),
    ("gpu_sim.ipc", "instr/cycle"),
    ("gpu_sim.idle_frac", "ratio"),
    ("gpu_sim.load_imbalance", "ratio"),
    ("gpu_sim.stall.tex_miss", "cycles"),
    ("gpu_sim.stall.global_latency", "cycles"),
    ("gpu_sim.stall.shared_bank", "cycles"),
    ("gpu_sim.stall.no_ready_warp", "cycles"),
    ("mem_sim.tex_hit_rate", "ratio"),
    ("mem_sim.shared_conflicts", "count"),
    ("mem_sim.coalescing_ratio", "req/txn"),
    ("mem_sim.global_mb", "MB"),
];

const ROLES: [&str; 2] = ["small", "large"];

/// Layer metrics that are not per launch, with their units.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("corpus.gen_s", "s"),
    ("ac_core.build_s", "s"),
    ("ac_core.states", "count"),
    ("ac_gpu.prepare_s", "s"),
    ("ac_gpu.table_mb.dense", "MB"),
    ("ac_gpu.table_mb.banded", "MB"),
    ("ac_gpu.run_host_s", "s"),
    ("cpu_sim.host_s", "s"),
    ("gpu_sim.host_ns_per_instr", "ns"),
    ("ac_serve.host_us_per_job", "us"),
    ("ac_cpu.par_find_all_mbps", "MB/s"),
    ("ac_core.find_all_mbps", "MB/s"),
    ("cpu_sim.gbps", "Gb/s"),
    ("cpu_sim.l2_hit_rate", "ratio"),
    ("gpu_sim.stream.copy_busy", "ratio"),
    ("gpu_sim.stream.compute_busy", "ratio"),
    ("gpu_sim.stream.h2d_us_per_job", "us"),
    ("gpu_sim.stream.kernel_us_per_job", "us"),
    ("gpu_sim.stream.d2h_us_per_job", "us"),
    ("ac_serve.batches", "count"),
    ("ac_serve.mean_batch_jobs", "count"),
    ("ac_serve.queue_wait_p50_us", "us"),
    ("ac_serve.queue_wait_p99_us", "us"),
    ("ac_serve.service_p99_us", "us"),
    ("ac_gpu.pool.hit_rate", "ratio"),
    ("ac_gpu.pool.driver_us_per_batch", "us"),
    ("gpu_sim.bus.busy_frac", "ratio"),
    ("gpu_sim.bus.contended_frac", "ratio"),
    ("gpu_sim.bus.wait_us_per_grant", "us"),
    ("ac_serve.fleet.cpu_tier_frac", "ratio"),
    ("ac_serve.fleet.device_skew", "ratio"),
    ("ac_serve.fleet.scattered_jobs", "count"),
    ("ac_serve.fleet.d1_p99_ratio", "ratio"),
    ("ac_serve.refused", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (layout, _) in kernel::LAYOUTS {
        for role in ROLES {
            for (m, unit) in SCAN_METRICS {
                out.push((format!("{m}.{layout}.{role}"), unit));
            }
        }
    }
    out
}

/// Probes the traced run makes outside the measured rounds.
pub struct Probes {
    pub par_find_all_mbps: f64,
    pub dense_mb: f64,
    pub banded_mb: f64,
    pub d1_p99_ratio: f64,
    pub overhead_frac: f64,
}

/// What the per-layer metrics are computed from.
pub struct Inputs<'a> {
    pub dicts: &'a [Dict],
    pub setups: Vec<&'a [Span]>,
    pub rounds: Vec<&'a [Span]>,
    pub oracle: &'a [Span],
    pub first: &'a Round,
    pub traced: &'a Round,
    pub probes: Probes,
}

fn scan_values(s: &LaunchStats) -> [f64; 12] {
    let t = &s.totals;
    let sm_cycles: u64 = s.per_sm_cycles.iter().sum();
    let per_sm = |v: u64| {
        if sm_cycles == 0 {
            0.0
        } else {
            v as f64 / sm_cycles as f64
        }
    };
    [
        s.cycles as f64,
        per_sm(t.instructions),
        per_sm(t.idle_cycles),
        s.load_imbalance().ratio(),
        t.stalls.tex_miss as f64,
        t.stalls.global_latency as f64,
        t.stalls.shared_bank as f64,
        t.stalls.no_ready_warp as f64,
        t.tex_hit_rate(),
        t.shared_conflicts as f64,
        t.coalescing_ratio(),
        t.global_bytes as f64 / 1e6,
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over windows of `f(window)`.
fn med(windows: &[&[Span]], f: impl Fn(&[Span]) -> f64) -> f64 {
    let v: Vec<f64> = windows.iter().map(|w| f(w)).collect();
    median(&v).unwrap_or(0.0)
}

pub fn compute(x: &Inputs) -> Vec<(String, &'static str, f64)> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    // Set-up, median over the repeats.
    let gen = [kernel::TEXT_GEN, kernel::EXTRACT, SYNTHETIC];
    set("corpus.gen_s", med(&x.setups, |w| self_seconds(w, &gen)));
    set(
        "ac_core.build_s",
        med(&x.setups, |w| self_seconds(w, &[kernel::BUILD])),
    );
    set(
        "ac_gpu.prepare_s",
        med(&x.setups, |w| {
            self_seconds(w, &[kernel::PREPARE, kernel::GPU_RUN])
        }),
    );
    let states: usize = x
        .dicts
        .iter()
        .map(|d| d.matcher.automaton().state_count())
        .sum();
    set("ac_core.states", states as f64);
    set("ac_gpu.table_mb.dense", x.probes.dense_mb);
    set("ac_gpu.table_mb.banded", x.probes.banded_mb);

    // Host time of the untraced rounds, median over rounds.
    let run_s = med(&x.rounds, |w| self_seconds(w, &[kernel::GPU_RUN]));
    set("ac_gpu.run_host_s", run_s);
    set(
        "cpu_sim.host_s",
        med(&x.rounds, |w| self_seconds(w, &[kernel::CPU_SIM])),
    );
    set(
        "gpu_sim.host_ns_per_instr",
        ratio(run_s * 1e9, x.first.instructions as f64),
    );
    let submitted: u64 = x.first.rungs.iter().map(|r| r.submitted).sum();
    if x.first.nominal.is_some() {
        let serve_s = med(&x.rounds, |w| self_seconds(w, &[SERVE, SERVE_FLEET]));
        set(
            "ac_serve.host_us_per_job",
            ratio(serve_s * 1e6, submitted as f64),
        );
        set("ac_serve.refused", x.first.lost() as f64);
    }
    set(
        "failed_frac",
        failed_frac(0, x.first.lost(), x.first.attempted()),
    );
    set("ac_cpu.par_find_all_mbps", x.probes.par_find_all_mbps);
    set(
        "ac_core.find_all_mbps",
        ratio(
            bytes_of(x.oracle, &[kernel::FIND_ALL]) as f64 / 1e6,
            self_seconds(x.oracle, &[kernel::FIND_ALL]),
        ),
    );

    // The modeled kernel plane.
    let t = &x.first.throughput;
    let cpu_cfg = cpu_sim::CpuConfig::core2duo_2_2ghz();
    let cpu_bytes: usize = t.cpu.iter().map(|c| c.bytes).sum();
    let cpu_cycles: u64 = t.cpu.iter().map(|c| c.cycles).sum();
    set("cpu_sim.gbps", cpu_cfg.gbps(cpu_bytes, cpu_cycles));
    let (hits, accesses) = t
        .cpu
        .iter()
        .fold((0, 0), |(h, a), c| (h + c.l2.hits, a + c.l2.accesses));
    set("cpu_sim.l2_hit_rate", ratio(hits as f64, accesses as f64));
    for scan in &t.scans {
        for ((name, _), v) in SCAN_METRICS.iter().zip(scan_values(&scan.stats)) {
            set(&format!("{name}.{}.{}", scan.layout, scan.role), v);
        }
    }

    // The nominal serving rung, from the traced round: its telemetry
    // carries the per-job spans, and its modeled counters equal the
    // untraced round's (the run checks that before getting here).
    if let Some(r) = &x.traced.nominal {
        let clock_hz = x.dicts[0].matcher.config().clock_hz;
        let rep = &r.report;
        let completed = r.latencies_us.len() as f64;
        // A fleet's merged timeline overlaps its devices' engines, so the
        // busy share is the per-device mean there.
        let (copy, compute) = match &r.fleet {
            Some(f) => {
                let n = f.per_device.len().max(1) as f64;
                let sum = |g: fn(&ac_serve::DeviceReport) -> f64| {
                    f.per_device.iter().map(g).sum::<f64>() / n
                };
                (sum(|d| d.copy_utilisation), sum(|d| d.compute_utilisation))
            }
            None => (rep.copy_utilisation, rep.compute_utilisation),
        };
        set("gpu_sim.stream.copy_busy", copy);
        set("gpu_sim.stream.compute_busy", compute);
        set(
            "gpu_sim.stream.h2d_us_per_job",
            r.op_us_per_job(StreamOpKind::CopyH2D),
        );
        set(
            "gpu_sim.stream.kernel_us_per_job",
            r.op_us_per_job(StreamOpKind::Kernel),
        );
        set(
            "gpu_sim.stream.d2h_us_per_job",
            r.op_us_per_job(StreamOpKind::CopyD2H),
        );
        set("ac_serve.batches", rep.batches as f64);
        let batched: u64 = rep
            .batch_histogram
            .iter()
            .map(|b| b.jobs as u64 * b.count)
            .sum();
        set(
            "ac_serve.mean_batch_jobs",
            ratio(batched as f64, rep.batches as f64),
        );
        if let Some(tel) = &r.telemetry {
            let clock = tel.clock_hz;
            let spans = |name: &str| -> Vec<f64> {
                tel.trace
                    .events()
                    .iter()
                    .filter(|e| e.pid == trace::PID_SERVE_JOBS && e.name == name)
                    .map(|e| e.dur as f64 / clock * 1e6)
                    .collect()
            };
            let p = |v: &[f64], q: f64| percentile(v, q).map_or(0.0, |p| p.value);
            let wait = spans("queue-wait");
            let service = spans("service");
            set("ac_serve.queue_wait_p50_us", p(&wait, 50.0));
            set("ac_serve.queue_wait_p99_us", p(&wait, 99.0));
            set("ac_serve.service_p99_us", p(&service, 99.0));
        }
        if let Some(pool) = &rep.pool {
            set("ac_gpu.pool.hit_rate", pool.hit_rate);
            set(
                "ac_gpu.pool.driver_us_per_batch",
                ratio(pool.host_cycles as f64 / clock_hz * 1e6, rep.batches as f64),
            );
        }
        if let Some(f) = &r.fleet {
            let bus = &f.bus;
            set("gpu_sim.bus.busy_frac", f.bus_utilisation);
            set(
                "gpu_sim.bus.contended_frac",
                ratio(bus.contended as f64, bus.grants as f64),
            );
            set(
                "gpu_sim.bus.wait_us_per_grant",
                ratio(bus.waited_seconds * 1e6, bus.grants as f64),
            );
            let cpu_jobs: u64 = f
                .routing
                .iter()
                .filter(|t| t.tier == "cpu")
                .map(|t| t.jobs)
                .sum();
            set(
                "ac_serve.fleet.cpu_tier_frac",
                ratio(cpu_jobs as f64, completed),
            );
            let per_dev: Vec<f64> = f.per_device.iter().map(|d| d.jobs as f64).collect();
            let mean = per_dev.iter().sum::<f64>() / per_dev.len().max(1) as f64;
            let max = per_dev.iter().copied().fold(0.0, f64::max);
            set("ac_serve.fleet.device_skew", ratio(max, mean));
            set("ac_serve.fleet.scattered_jobs", f.scattered_jobs as f64);
            set("ac_serve.fleet.d1_p99_ratio", x.probes.d1_p99_ratio);
        }
    }
    set("trace.overhead_frac", x.probes.overhead_frac);

    let out = names()
        .into_iter()
        .map(|(name, unit)| {
            let v = m.remove(&name).unwrap_or(0.0);
            (name, unit, v)
        })
        .collect();
    assert!(m.is_empty(), "layer metrics missing from names(): {m:?}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric list in BENCHMARK.json and the one this file emits must
    /// not drift apart: a run whose output lacks a listed name is invalid.
    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer section")..];
        for (name, unit) in names() {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\":").count(), names().len());
    }
}
