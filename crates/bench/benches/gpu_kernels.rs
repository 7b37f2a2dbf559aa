//! Simulated-kernel micro-benches behind Figs. 14/15/17/18: one small
//! grid point per approach, reporting simulated cycles to the log while
//! criterion pins the simulator's own wall-time. A serving-sized group
//! times the launches a serving batch makes: few busy SMs, simulated on
//! the calling thread, so the simulator's per-warp-step cost is what it
//! measures.

use ac_gpu::{Approach, GpuAcMatcher, KernelParams};
use ac_serve::{serve_automaton, synthetic_workload, WorkloadConfig, DEFAULT_PATTERNS};
use bench::workload::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::GpuConfig;

fn bench_approaches(c: &mut Criterion) {
    let w = Workload::prepare(256 * 1024, 51);
    let text = w.input(256 * 1024);
    let cfg = GpuConfig::gtx285();
    let params = KernelParams::defaults_for(&cfg);
    for patterns in [100usize, 1_000] {
        let matcher = GpuAcMatcher::new(cfg, params, w.automaton(patterns))
            .expect("matcher construction succeeds");
        for approach in [
            Approach::GlobalOnly,
            Approach::SharedDiagonal,
            Approach::Pfac,
        ] {
            let run = matcher
                .run_counting(text, approach)
                .expect("kernel run succeeds");
            eprintln!(
                "[gpu_kernels] {:>15} @ {patterns:>5} patterns: {:8.2} simulated Gbps \
                 ({} cycles, tex hit {:.3})",
                approach.label(),
                run.gbps(),
                run.stats.cycles,
                run.stats.totals.tex_hit_rate()
            );
        }
        let mut g = c.benchmark_group(format!("gpu_sim_256KB_{patterns}pat"));
        g.sample_size(10);
        g.throughput(Throughput::Bytes(text.len() as u64));
        for approach in [Approach::GlobalOnly, Approach::SharedDiagonal] {
            g.bench_with_input(
                BenchmarkId::new("approach", approach.label()),
                &approach,
                |b, &a| b.iter(|| matcher.run_counting(std::hint::black_box(text), a).unwrap()),
            );
        }
        g.finish();
    }
}

/// One 2 KB launch (a single serving job) and one 40 KB launch (a batch of
/// about twenty) of the 50-pattern serving dictionary, shared-diagonal.
fn bench_serving_launches(c: &mut Criterion) {
    let cfg = GpuConfig::gtx285();
    let matcher = GpuAcMatcher::new(
        cfg,
        KernelParams::defaults_for(&cfg),
        serve_automaton(DEFAULT_PATTERNS, 42),
    )
    .expect("matcher construction succeeds");
    // Serving payloads back to back, cut to the exact launch sizes.
    let text: Vec<u8> = synthetic_workload(&WorkloadConfig {
        jobs: 64,
        ..WorkloadConfig::defaults()
    })
    .into_iter()
    .flat_map(|job| job.payload)
    .collect();
    let mut g = c.benchmark_group(format!("gpu_sim_serving_{DEFAULT_PATTERNS}pat"));
    g.sample_size(20);
    for bytes in [2 << 10, 40 << 10] {
        let job = &text[..bytes];
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_with_input(
            BenchmarkId::new(
                Approach::SharedDiagonal.label(),
                format!("{}KB", bytes >> 10),
            ),
            job,
            |b, job| {
                b.iter(|| {
                    matcher
                        .run_counting(std::hint::black_box(job), Approach::SharedDiagonal)
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_approaches, bench_serving_launches);
criterion_main!(benches);
