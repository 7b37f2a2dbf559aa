//! perfbench — the repository's two-plane benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates one workload's inputs from the seed, sets the program up
//! several times, then repeats measured rounds for the given seconds.
//! Every scan and every served job is checked against the serial oracle;
//! any mismatch or broken job accounting exits 1 without a result. The
//! last stdout line is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See README.md.

mod kernel;
mod layers;
mod serving;
mod spans;
mod stats;
mod workloads;

use spans::{roots, Recorder, Span};
use stats::{host_mbps, host_mbps_per_call, median, percentile, Plane};
use std::ops::Range;
use std::time::Instant;
use workloads::{Modeled, Round, Workload, WORKLOADS};

/// The seed used when `--seed` is absent, and the one tuning used.
const DEFAULT_SEED: u64 = 1;
/// Kept out of all tuning: claims are re-checked on it.
const HELD_OUT_SEED: u64 = 7_919;
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}, held out: \
         {HELD_OUT_SEED})] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1e3)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One printed metric: name, unit, value, and the samples behind it.
struct Line {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn e2e_unit(name: &str) -> &'static str {
    match name {
        "sim_gbps" | "banded_sim_gbps" => "Gb/s",
        "sim_speedup" => "x",
        "p50_us" | "p99_us" => "us",
        _ => "1/s",
    }
}

fn emit(lines: &[Line], attempted: u64) -> Result<(), String> {
    for l in lines {
        if !l.value.is_finite() {
            return Err(format!("{} is not finite ({})", l.name, l.value));
        }
        println!("{:<44} {:>16.6} {:<12} {}", l.name, l.value, l.unit, l.note);
    }
    let metrics: Vec<String> = lines
        .iter()
        .map(|l| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                l.name, l.value, l.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

/// Modeled values must repeat bit for bit: across rounds, and between
/// an untraced round and a traced one (the zero-cost-hook contract).
fn same_model(what: &str, a: &[Modeled], b: &[Modeled]) -> Result<(), String> {
    for (x, y) in a.iter().zip(b) {
        if x.value.to_bits() != y.value.to_bits() {
            return Err(format!(
                "{what}: modeled {} changed from {} to {}",
                x.name, x.value, y.value
            ));
        }
    }
    Ok(())
}

fn timed_seconds(window: &[Span]) -> f64 {
    roots(window)
        .filter(|(p, _, _)| *p == Plane::Timed)
        .map(|(_, _, s)| s)
        .sum()
}

fn run(a: &Args) -> Result<(), String> {
    let wl = a.workload;
    let ladder = wl.ladder();
    let mut rec = Recorder::new();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        a.name, a.seed, a.seconds, a.trace as u8
    );

    // Set-up, repeated; the previous state is dropped first so peak RSS
    // holds one copy.
    let mut setups: Vec<Range<usize>> = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let m = rec.mark();
        state = Some(rec.span("setup", Plane::Setup, 0, |rec| wl.setup(rec, a.seed))?);
        setups.push(m..rec.mark());
    }
    let st = state.expect("SETUP_REPEATS > 0");
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|r| rec.since(r.start)[0].calibrated_seconds())
        .collect();

    let m = rec.mark();
    let exp = rec.span("oracle", Plane::Oracle, 0, |rec| wl.oracle(rec, &st));
    let oracle = m..rec.mark();

    // Measured rounds, until the time is spent.
    let start = Instant::now();
    let mut windows: Vec<Range<usize>> = Vec::new();
    let mut first: Option<(Round, Vec<Modeled>)> = None;
    let mut attempted = 0;
    loop {
        let m = rec.mark();
        let round = wl.round(&mut rec, &st, &exp, false)?;
        windows.push(m..rec.mark());
        attempted += round.attempted();
        let modeled = round.modeled(ladder)?;
        match &first {
            None => first = Some((round, modeled)),
            Some((_, f)) => same_model("round repeat", f, &modeled)?,
        }
        if start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    let (first, modeled) = first.expect("at least one round");
    for r in &first.rungs {
        let p = |q| percentile(&r.latencies_us, q).map_or(f64::NAN, |p| p.value);
        println!(
            "rung {:>9} jobs/s: n={:<5} p50={:>10.1} us  p99={:>10.1} us  lost={:<5} completed {:.0} jobs/s",
            r.rate,
            r.latencies_us.len(),
            p(50.0),
            p(99.0),
            r.lost,
            r.jobs_per_sec
        );
    }
    let round_roots: Vec<Vec<_>> = windows
        .iter()
        .map(|w| roots(rec.spans_in(w)).collect())
        .collect();
    let round_mbps: Vec<f64> = round_roots
        .iter()
        .map(|r| host_mbps(r.iter().copied()))
        .collect();
    let rounds = round_mbps.len();

    if !a.trace {
        let mut lines: Vec<Line> = modeled
            .into_iter()
            .map(|m| Line {
                name: m.name.to_string(),
                unit: e2e_unit(m.name),
                value: m.value,
                note: m.note,
            })
            .collect();
        lines.push(Line {
            name: "host_mbps".into(),
            unit: "MB/s",
            value: host_mbps_per_call(&round_roots).ok_or("rounds made different timed calls")?,
            note: format!(
                "per-call medians over {rounds} rounds (rounds {:.3}..{:.3})",
                round_mbps.iter().copied().fold(f64::INFINITY, f64::min),
                round_mbps.iter().copied().fold(0.0, f64::max)
            ),
        });
        lines.push(Line {
            name: "setup_s".into(),
            unit: "s",
            value: median(&setup_s).expect("SETUP_REPEATS > 0"),
            note: format!("median of {SETUP_REPEATS} set-ups"),
        });
        lines.push(Line {
            name: "peak_rss_mb".into(),
            unit: "MB",
            value: peak_rss_mb()?,
            note: "VmHWM".into(),
        });
        return emit(&lines, attempted);
    }

    // The traced round: program hooks armed, modeled numbers unchanged.
    let m = rec.mark();
    let traced = wl.round(&mut rec, &st, &exp, true)?;
    let traced_window = m..rec.mark();
    attempted += traced.attempted();
    same_model("traced vs untraced", &modeled, &traced.modeled(ladder)?)?;
    let untraced_s: Vec<f64> = windows
        .iter()
        .map(|w| timed_seconds(rec.spans_in(w)))
        .collect();
    let overhead_frac = timed_seconds(rec.spans_in(&traced_window))
        / median(&untraced_s).expect("at least one round")
        - 1.0;
    let probes = workloads::probes(wl, &mut rec, &st, &exp, &first, overhead_frac)?;

    let spans_path = format!(
        "{}/out/spans-{}-seed{}.json",
        env!("CARGO_MANIFEST_DIR"),
        a.name,
        a.seed
    );
    let spans_json = rec.to_json(&a.name, a.seed);
    let inputs = layers::Inputs {
        dicts: &st.dicts,
        setups: setups.iter().map(|r| rec.spans_in(r)).collect(),
        rounds: windows.iter().map(|r| rec.spans_in(r)).collect(),
        oracle: rec.spans_in(&oracle),
        first: &first,
        traced: &traced,
        probes,
    };
    let lines: Vec<Line> = layers::compute(&inputs)
        .into_iter()
        .map(|(name, unit, value)| Line {
            name,
            unit,
            value,
            note: String::new(),
        })
        .collect();
    std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&spans_path, spans_json))
        .map_err(|e| format!("writing {spans_path}: {e}"))?;
    eprintln!("spans written to {spans_path}");
    emit(&lines, attempted)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {} seed {}: {e}", args.name, args.seed);
        std::process::exit(1);
    }
}
