//! Light-load latency: a held readback must not wait for its stream to
//! be reused, and adding devices must not make a lightly loaded routed
//! fleet slower than one device.
//!
//! Readbacks are issued at the first dispatch instant by which their
//! kernel has ended, and the shared bus grants each copy the earliest
//! idle gap at or after its ready time. Without either, an idle server
//! answers a job only when another job reuses its stream, and a sharded
//! job's future readbacks hold every other device's uploads back.

use ac_gpu::{GpuAcMatcher, KernelParams};
use ac_serve::{
    serve, serve_fleet, synthetic_workload, FleetConfig, ScanJob, ServeConfig, ServePoolConfig,
    WorkloadConfig, DEFAULT_POOL_CAPACITY,
};
use gpu_sim::{GpuConfig, StreamOpKind};

fn matcher() -> GpuAcMatcher {
    let cfg = GpuConfig::gtx285();
    let ac = ac_serve::serve_automaton(ac_serve::DEFAULT_PATTERNS, 11);
    GpuAcMatcher::new(cfg, KernelParams::defaults_for(&cfg), ac).unwrap()
}

fn workload(jobs: u64, rate: u64, job_bytes: usize, seed: u64) -> Vec<ScanJob> {
    synthetic_workload(&WorkloadConfig {
        jobs,
        arrival_rate_per_sec: rate,
        job_bytes,
        seed,
        ..WorkloadConfig::defaults()
    })
}

fn p99(run: &ac_serve::ServeRun) -> f64 {
    run.report.p99_latency_us
}

#[test]
fn idle_server_answers_a_job_in_its_own_transfer_and_kernel_time() {
    let m = matcher();
    let mut jobs = workload(2, 1_000, 2048, 3);
    jobs[0].arrival_seconds = 0.0;
    jobs[1].arrival_seconds = 1.0e-3;
    for pool in [None, Some(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY))] {
        let mut cfg = ServeConfig::new(4);
        cfg.pool = pool;
        let run = serve(&m, jobs.clone(), &cfg).unwrap();
        let op = |kind: StreamOpKind| {
            run.timeline
                .ops
                .iter()
                .find(|o| o.label == "batch0" && o.kind == kind)
                .expect("batch0 ran on the GPU")
                .clone()
        };
        let (h2d, kernel, d2h) = (
            op(StreamOpKind::CopyH2D),
            op(StreamOpKind::Kernel),
            op(StreamOpKind::CopyD2H),
        );
        // The only delay before the upload is the pool's driver time.
        let setup = h2d.start - jobs[0].arrival_seconds;
        if pool.is_none() {
            assert_eq!(setup, 0.0);
        }
        // The chain runs back to back: nothing waits for job 1.
        assert_eq!(kernel.start, h2d.end, "pool={pool:?}");
        assert_eq!(d2h.start, kernel.end, "pool={pool:?}");
        let first = run.outcomes.iter().find(|o| o.id == 0).unwrap();
        let own = setup + h2d.seconds() + kernel.seconds() + d2h.seconds();
        assert!(
            (first.latency_seconds - own).abs() < 1e-12,
            "pool={pool:?}: latency {} s, own chain {} s",
            first.latency_seconds,
            own
        );
        assert!(first.completed_seconds < jobs[1].arrival_seconds);
    }
}

#[test]
fn lightly_loaded_fleet_is_no_slower_than_one_device() {
    // 10k jobs/s of ~4 KB jobs, every 20th one 128 KB and sharded across
    // the fleet: light load for four devices on a shared bus.
    let m = matcher();
    let mut jobs = workload(200, 10_000, 4 << 10, 5);
    let big = workload(10, 10_000, 128 << 10, 6);
    for (job, b) in jobs.iter_mut().skip(19).step_by(20).zip(big) {
        job.payload = b.payload;
    }
    let device = ServeConfig::new(4).with_pool(ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY));
    let mut fleet_cfg = FleetConfig::new(4, device);
    fleet_cfg.shard_bytes = Some(64 << 10);
    let mut one_cfg = fleet_cfg;
    one_cfg.devices = 1;

    let four = serve_fleet(&m, jobs.clone(), &fleet_cfg).unwrap();
    let one = serve_fleet(&m, jobs, &one_cfg).unwrap();
    assert_eq!(four.report.scattered_jobs, 10);
    assert_eq!(four.serve.outcomes.len(), 200);
    assert_eq!(one.serve.outcomes.len(), 200);
    assert!(
        p99(&four.serve) <= p99(&one.serve),
        "4 devices p99 {:.1} us > 1 device p99 {:.1} us",
        p99(&four.serve),
        p99(&one.serve)
    );
}
