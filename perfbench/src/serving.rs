//! The serving plane: an open-loop rate ladder through `ac_serve::serve`
//! or `ac_serve::serve_fleet`, every outcome checked against the serial
//! oracle and every rung's job accounting closed.

use crate::kernel::check;
use crate::spans::Recorder;
use crate::stats::Plane;
use ac_core::Match;
use ac_gpu::GpuAcMatcher;
use ac_serve::{
    serve, serve_fleet, synthetic_workload, FleetConfig, FleetReport, ScanJob, ServeConfig,
    ServeReport, TelemetryConfig, TelemetryRun, WorkloadConfig,
};
use gpu_sim::{StreamOpKind, StreamTimeline};

pub const SERVE: &str = "ac_serve::serve";
pub const SERVE_FLEET: &str = "ac_serve::serve_fleet";
pub const SYNTHETIC: &str = "ac_serve::synthetic_workload";

/// Which server a ladder drives.
#[derive(Clone, Copy)]
pub enum Server {
    Single(ServeConfig),
    Fleet(FleetConfig),
}

impl Server {
    pub fn with_telemetry(self, on: bool) -> Server {
        // Every job's spans fit; the post-run attribution replay is not
        // part of serving, so it stays off.
        let tel = on.then_some(TelemetryConfig {
            attribution_sample_bytes: 0,
            ..TelemetryConfig::default()
        });
        match self {
            Server::Single(mut c) => {
                c.telemetry = tel;
                Server::Single(c)
            }
            Server::Fleet(mut f) => {
                f.device.telemetry = tel;
                Server::Fleet(f)
            }
        }
    }
}

/// Open-loop arrivals at `rate` jobs/s. Payloads and sizes come from the
/// seeded RNG stream alone, so every rung of one seed carries the same
/// jobs and only their spacing changes.
pub fn jobs(
    rec: &mut Recorder,
    seed: u64,
    count: usize,
    rate: u64,
    job_bytes: usize,
) -> Vec<ScanJob> {
    rec.span(SYNTHETIC, Plane::Setup, 0, |_| {
        synthetic_workload(&WorkloadConfig {
            jobs: count as u64,
            arrival_rate_per_sec: rate,
            job_bytes,
            seed,
            deadline_us: None,
            priority_classes: 1,
        })
    })
}

/// What one rung produced.
pub struct Rung {
    pub submitted: u64,
    pub latencies_us: Vec<f64>,
    /// Refused, shed or expired.
    pub lost: u64,
    pub report: ServeReport,
    pub fleet: Option<FleetReport>,
    pub timeline: StreamTimeline,
    pub telemetry: Option<TelemetryRun>,
}

impl Rung {
    /// Modeled seconds per completed job spent in ops of `kind`.
    pub fn op_us_per_job(&self, kind: StreamOpKind) -> f64 {
        let secs: f64 = self
            .timeline
            .ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.seconds())
            .sum();
        secs * 1e6 / self.latencies_us.len().max(1) as f64
    }
}

/// Serve `jobs` once and check every outcome and the rung's accounting.
/// `expected[id]` is job `id`'s sorted oracle answer.
pub fn run_rung(
    rec: &mut Recorder,
    matcher: &GpuAcMatcher,
    server: Server,
    jobs: Vec<ScanJob>,
    expected: &[Vec<Match>],
    label: &str,
) -> Result<Rung, String> {
    let submitted = jobs.len() as u64;
    let bytes: u64 = jobs.iter().map(|j| j.payload.len() as u64).sum();
    let (run, fleet) = match server {
        Server::Single(cfg) => {
            let run = rec
                .span(SERVE, Plane::Timed, bytes, |_| serve(matcher, jobs, &cfg))
                .map_err(|e| format!("{label}: serve failed: {e}"))?;
            (run, None)
        }
        Server::Fleet(cfg) => {
            let f = rec
                .span(SERVE_FLEET, Plane::Timed, bytes, |_| {
                    serve_fleet(matcher, jobs, &cfg)
                })
                .map_err(|e| format!("{label}: serve_fleet failed: {e}"))?;
            (f.serve, Some(f.report))
        }
    };
    let r = &run.report;
    let lost = r.jobs_rejected + r.jobs_expired + r.jobs_shed;
    if r.jobs_submitted != submitted || r.jobs_completed + lost != submitted {
        return Err(format!(
            "{label}: accounting broken: submitted {submitted}, report says submitted {} = \
             completed {} + rejected {} + expired {} + shed {}",
            r.jobs_submitted, r.jobs_completed, r.jobs_rejected, r.jobs_expired, r.jobs_shed
        ));
    }
    if run.outcomes.len() as u64 != r.jobs_completed {
        return Err(format!(
            "{label}: {} outcomes for {} completed jobs",
            run.outcomes.len(),
            r.jobs_completed
        ));
    }
    let mut seen = vec![false; expected.len()];
    rec.span("oracle::compare", Plane::Oracle, 0, |_| {
        for o in &run.outcomes {
            let id = o.id as usize;
            if id >= expected.len() || std::mem::replace(&mut seen[id], true) {
                return Err(format!(
                    "{label}: job {id} completed twice or never submitted"
                ));
            }
            check(
                &format!("{label}, job {id}"),
                o.matches.clone(),
                &expected[id],
            )?;
        }
        Ok(())
    })?;
    Ok(Rung {
        submitted,
        latencies_us: run
            .outcomes
            .iter()
            .map(|o| o.latency_seconds * 1e6)
            .collect(),
        lost,
        report: run.report,
        fleet,
        timeline: run.timeline,
        telemetry: run.telemetry,
    })
}
