//! The three workloads: what each sets up, what one measured round runs,
//! and the modeled end-to-end numbers a round yields.

use crate::kernel::{self, Dict, ThroughputRound};
use crate::layers::Probes;
use crate::serving::{self, Rung, Server};
use crate::spans::Recorder;
use crate::stats::{max_rate_rung, percentile, Plane, RungOutcome};
use ac_core::Match;
use ac_cpu::{par_find_all, ParallelConfig};
use ac_gpu::{layout_footprints, SttLayout};
use ac_serve::{FleetConfig, ScanJob, ServeConfig, ServePoolConfig, DEFAULT_POOL_CAPACITY};
use std::time::Instant;

/// An open-loop rate ladder: `(jobs/s offered, jobs)` per rung, the rung
/// whose latency is reported, and the p99 limit of the max-rate rule.
pub struct Ladder {
    pub rungs: &'static [(u64, usize)],
    pub nominal: usize,
    pub limit_us: f64,
}

impl Ladder {
    fn nominal_rate(&self) -> u64 {
        self.rungs[self.nominal].0
    }

    fn max_jobs(&self) -> usize {
        self.rungs.iter().map(|r| r.1).max().unwrap_or(0)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperKernel,
    ServeSteady,
    FleetLarge,
}

pub const WORKLOADS: [(&str, Workload); 3] = [
    ("paper-kernel", Workload::PaperKernel),
    ("serve-steady", Workload::ServeSteady),
    ("fleet-large", Workload::FleetLarge),
];

const PAR_FIND_ALL: &str = "ac_cpu::par_find_all";

// paper-kernel: the §V method on one seeded corpus. The 100-pattern STT
// fits the texture cache and the 20 000-pattern one does not.
const CORPUS_BYTES: usize = 2 << 20;
const PATTERN_SOURCE_BYTES: usize = 4 << 20;
const PAPER_DICTS: [(&str, usize); 2] = [("small", 100), ("large", 20_000)];
// The per-packet view: IDS-sized packets cut from the same corpus, each
// one launch of the small dictionary on an unbatched device.
const PACKET_BYTES: usize = 1536;
const PACKETS: usize = 1200;
const PACKET_QUEUE: usize = 256;
const PAPER_LADDER: Ladder = Ladder {
    rungs: &[
        (5_000, PACKETS),
        (10_000, PACKETS),
        (15_000, PACKETS),
        (20_000, PACKETS),
        (25_000, PACKETS),
        (30_000, PACKETS),
        (35_000, PACKETS),
        (40_000, PACKETS),
        (50_000, PACKETS),
    ],
    nominal: 3,
    limit_us: 1_000.0,
};

// Serving workloads share one dictionary: a service's patterns are its
// configuration, not its traffic, so the seed varies traffic only.
const SERVE_DICT_SEED: u64 = 42;
const SERVE_SOURCE_BYTES: usize = 1 << 20;
// Their kernel plane scans the nominal rung's payloads as one input.
const SERVE_THROUGHPUT_BYTES: usize = 1 << 20;

const STEADY_JOBS: usize = 2_000;
const STEADY_JOB_BYTES: usize = 2048;
const STEADY_LADDER: Ladder = Ladder {
    rungs: &[
        (200_000, STEADY_JOBS),
        (400_000, STEADY_JOBS),
        (600_000, STEADY_JOBS),
        (700_000, STEADY_JOBS),
        (800_000, STEADY_JOBS),
        (900_000, STEADY_JOBS),
        (1_000_000, STEADY_JOBS),
        (1_250_000, STEADY_JOBS),
    ],
    nominal: 2,
    limit_us: 1_000.0,
};

const FLEET_DEVICES: u32 = 4;
const FLEET_JOB_BYTES: usize = 16 << 10;
/// Every 20th job (5 %) is large, above the shard threshold. A fixed
/// stride, not a coin flip: the tail's share and spacing are part of the
/// workload, which keeps p99 from hinging on how the seed clusters them.
const FLEET_BIG_EVERY: usize = 20;
const FLEET_BIG_BYTES: usize = 256 << 10;
const FLEET_SHARD_BYTES: usize = 64 << 10;
/// Light load to just past saturation (about 68k jobs/s completed at the
/// top rung). Deeper overload makes this fleet's completion rate and
/// refusals swing by a fifth from seed to seed, so the top rung stops
/// where its numbers repeat. No rung meets 1 ms today; 2 ms separates the
/// nominal rung (p99 1.3-1.5 ms) from the top one (above 2 ms).
const FLEET_LADDER: Ladder = Ladder {
    rungs: &[
        (10_000, 1_000),
        (20_000, 1_000),
        (40_000, 3_000),
        (80_000, 2_000),
    ],
    nominal: 2,
    limit_us: 2_000.0,
};

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    pub fn ladder(self) -> &'static Ladder {
        match self {
            Workload::PaperKernel => &PAPER_LADDER,
            Workload::ServeSteady => &STEADY_LADDER,
            Workload::FleetLarge => &FLEET_LADDER,
        }
    }

    fn server(self) -> Server {
        let pooled = ServePoolConfig::pooled(DEFAULT_POOL_CAPACITY);
        match self {
            Workload::FleetLarge => {
                let device = ServeConfig::new(4).with_pool(pooled);
                let mut f = FleetConfig::new(FLEET_DEVICES, device);
                f.shard_bytes = Some(FLEET_SHARD_BYTES);
                Server::Fleet(f)
            }
            _ => Server::Single(ServeConfig::new(4).with_pool(pooled)),
        }
    }

    /// Generate every input from `seed` and prepare the program for it.
    pub fn setup(self, rec: &mut Recorder, seed: u64) -> Result<State, String> {
        if self == Workload::PaperKernel {
            let corpus = kernel::text(rec, seed, CORPUS_BYTES);
            let source = kernel::text(rec, seed ^ 0x9E37_79B9_7F4A_7C15, PATTERN_SOURCE_BYTES);
            let dicts = PAPER_DICTS
                .iter()
                .map(|&(role, n)| {
                    kernel::dictionary(rec, role, &source, n, seed.wrapping_add(n as u64))
                })
                .collect::<Result<_, _>>()?;
            return Ok(State {
                dicts,
                input: corpus,
                jobs: Vec::new(),
            });
        }
        let source = kernel::text(rec, SERVE_DICT_SEED, SERVE_SOURCE_BYTES);
        let patterns = ac_serve::DEFAULT_PATTERNS;
        let dict = kernel::dictionary(rec, "small", &source, patterns, SERVE_DICT_SEED)?;
        let ladder = self.ladder();
        let (rate, count) = (ladder.nominal_rate(), ladder.max_jobs());
        let jobs = match self {
            Workload::ServeSteady => serving::jobs(rec, seed, count, rate, STEADY_JOB_BYTES),
            _ => {
                let mut jobs = serving::jobs(rec, seed, count, rate, FLEET_JOB_BYTES);
                let big = count / FLEET_BIG_EVERY;
                let tail = serving::jobs(rec, seed ^ 0xB16, big, rate, FLEET_BIG_BYTES);
                for (job, t) in jobs
                    .iter_mut()
                    .skip(FLEET_BIG_EVERY - 1)
                    .step_by(FLEET_BIG_EVERY)
                    .zip(tail)
                {
                    job.payload = t.payload;
                }
                jobs
            }
        };
        let input = jobs
            .iter()
            .flat_map(|j| j.payload.iter().copied())
            .take(SERVE_THROUGHPUT_BYTES)
            .collect();
        Ok(State {
            dicts: vec![dict],
            input,
            jobs,
        })
    }

    /// The serial matcher's answer for every scan and job the rounds run.
    pub fn oracle(self, rec: &mut Recorder, st: &State) -> Expected {
        let throughput = st
            .dicts
            .iter()
            .map(|d| kernel::oracle(rec, d, &st.input))
            .collect();
        let per_op = match self {
            Workload::PaperKernel => st
                .packets()
                .iter()
                .map(|p| kernel::oracle(rec, &st.dicts[0], p))
                .collect(),
            _ => st
                .jobs
                .iter()
                .map(|j| kernel::oracle(rec, &st.dicts[0], &j.payload))
                .collect(),
        };
        Expected { throughput, per_op }
    }

    /// One measured pass: the throughput scans, then the rate ladder.
    /// `traced` arms the program's own hooks.
    pub fn round(
        self,
        rec: &mut Recorder,
        st: &State,
        exp: &Expected,
        traced: bool,
    ) -> Result<Round, String> {
        let throughput =
            kernel::throughput_round(rec, &st.dicts, &st.input, &exp.throughput, traced)?;
        let scans = (st.dicts.len() * (kernel::LAYOUTS.len() + 1)) as u64;
        let ladder = self.ladder();
        if self == Workload::PaperKernel {
            let packets = st.packets();
            let (service, packet_instructions) =
                kernel::packet_round(rec, &st.dicts[0], &packets, &exp.per_op, traced)?;
            let rungs = ladder
                .rungs
                .iter()
                .map(|&(rate, _)| {
                    let r = kernel::fifo(&service, rate as f64, PACKET_QUEUE);
                    RungSummary {
                        rate,
                        submitted: service.len() as u64,
                        lost: r.refused,
                        jobs_per_sec: r.jobs_per_sec,
                        latencies_us: r.latencies_us,
                    }
                })
                .collect();
            return Ok(Round {
                instructions: throughput.instructions() + packet_instructions,
                throughput,
                scans: scans + packets.len() as u64,
                rungs,
                nominal: None,
            });
        }
        let server = self.server().with_telemetry(traced);
        let mut rungs = Vec::new();
        let mut nominal = None;
        for (i, &(rate, count)) in ladder.rungs.iter().enumerate() {
            rec.rung = Some(i);
            let label = format!("rung {i} ({rate} jobs/s)");
            let jobs = at_rate(&st.jobs[..count], ladder.nominal_rate(), rate);
            let rung =
                serving::run_rung(rec, &st.dicts[0].matcher, server, jobs, &exp.per_op, &label);
            rec.rung = None;
            let rung = rung?;
            rungs.push(RungSummary {
                rate,
                submitted: rung.submitted,
                lost: rung.lost,
                jobs_per_sec: rung.report.jobs_per_sec,
                latencies_us: rung.latencies_us.clone(),
            });
            if i == ladder.nominal {
                nominal = Some(rung);
            }
        }
        Ok(Round {
            instructions: throughput.instructions(),
            throughput,
            scans,
            rungs,
            nominal,
        })
    }
}

/// Layer probes of the traced run, outside the measured rounds: the
/// real parallel matcher's host throughput on the throughput input, the
/// dense and banded table footprints, and for the fleet the nominal
/// rung's p99 (from `first`) over the same jobs' p99 on one device.
pub fn probes(
    wl: Workload,
    rec: &mut Recorder,
    st: &State,
    exp: &Expected,
    first: &Round,
    overhead_frac: f64,
) -> Result<Probes, String> {
    let par = ParallelConfig::default_for_host();
    let mut par_s = 0.0;
    let mut par_bytes = 0;
    let (mut dense, mut banded) = (0, 0);
    for (d, expected) in st.dicts.iter().zip(&exp.throughput) {
        let ac = d.matcher.automaton();
        let t = Instant::now();
        let found = rec
            .span(PAR_FIND_ALL, Plane::Probe, st.input.len() as u64, |_| {
                par_find_all(ac, &st.input, &par)
            })
            .map_err(|e| format!("par_find_all: {e}"))?;
        par_s += t.elapsed().as_secs_f64();
        par_bytes += st.input.len();
        kernel::check("par_find_all probe", found, expected)?;
        for f in layout_footprints(ac, d.matcher.config()) {
            match f.layout {
                SttLayout::Dense => dense += f.bytes,
                SttLayout::Banded => banded += f.bytes,
                _ => {}
            }
        }
    }
    let mut d1_p99_ratio = 0.0;
    if let Server::Fleet(mut cfg) = wl.server() {
        let ladder = wl.ladder();
        let count = ladder.rungs[ladder.nominal].1;
        let p99 = |lat: &[f64]| percentile(lat, 99.0).map_or(0.0, |p| p.value);
        cfg.devices = 1;
        let one = serving::run_rung(
            rec,
            &st.dicts[0].matcher,
            Server::Fleet(cfg),
            st.jobs[..count].to_vec(),
            &exp.per_op,
            "one-device probe",
        )?;
        d1_p99_ratio = p99(&first.rungs[ladder.nominal].latencies_us) / p99(&one.latencies_us);
    }
    Ok(Probes {
        par_find_all_mbps: par_bytes as f64 / 1e6 / par_s,
        dense_mb: dense as f64 / 1e6,
        banded_mb: banded as f64 / 1e6,
        d1_p99_ratio,
        overhead_frac,
    })
}

/// `jobs` (generated at `from` jobs/s) re-spaced to `to` jobs/s: the same
/// payloads in the same order, every gap scaled by `from / to`.
fn at_rate(jobs: &[ScanJob], from: u64, to: u64) -> Vec<ScanJob> {
    let scale = from as f64 / to as f64;
    jobs.iter()
        .map(|j| ScanJob::new(j.id, j.payload.clone(), j.arrival_seconds * scale))
        .collect()
}

/// Everything set-up produced.
pub struct State {
    pub dicts: Vec<Dict>,
    /// The throughput scans' input.
    pub input: Vec<u8>,
    /// Serving workloads' jobs, spaced for the nominal rung.
    pub jobs: Vec<ScanJob>,
}

impl State {
    fn packets(&self) -> Vec<&[u8]> {
        self.input.chunks(PACKET_BYTES).take(PACKETS).collect()
    }
}

/// Oracle answers: one per throughput dictionary, one per packet or job.
pub struct Expected {
    pub throughput: Vec<Vec<Match>>,
    pub per_op: Vec<Vec<Match>>,
}

pub struct RungSummary {
    pub rate: u64,
    pub submitted: u64,
    pub lost: u64,
    pub jobs_per_sec: f64,
    pub latencies_us: Vec<f64>,
}

pub struct Round {
    pub throughput: ThroughputRound,
    /// Warp instructions of every timed GPU launch.
    pub instructions: u64,
    /// GPU launches and cpu-sim calls issued.
    pub scans: u64,
    pub rungs: Vec<RungSummary>,
    /// The nominal rung in full, for serving workloads' layer metrics.
    pub nominal: Option<Rung>,
}

/// A modeled end-to-end value with the sample note printed beside it.
pub struct Modeled {
    pub name: &'static str,
    pub value: f64,
    pub note: String,
}

impl Round {
    pub fn attempted(&self) -> u64 {
        self.scans + self.rungs.iter().map(|r| r.submitted).sum::<u64>()
    }

    pub fn lost(&self) -> u64 {
        self.rungs.iter().map(|r| r.lost).sum()
    }

    /// The modeled end-to-end metrics. Fails when the nominal rung has
    /// too few samples for a p99.
    pub fn modeled(&self, ladder: &Ladder) -> Result<Vec<Modeled>, String> {
        let t = &self.throughput;
        let scans = format!(
            "{} dictionaries x {:.1} MB",
            t.scans.len() / kernel::LAYOUTS.len(),
            t.scans[0].bytes as f64 / 1e6
        );
        let nominal = &self.rungs[ladder.nominal];
        let lat = &nominal.latencies_us;
        let p50 = percentile(lat, 50.0).ok_or("nominal rung completed no job")?;
        let p99 = percentile(lat, 99.0).ok_or("nominal rung completed no job")?;
        let p99_value = p99.reportable().ok_or_else(|| {
            format!(
                "nominal rung p99 not reportable: {} samples, {} beyond",
                p99.samples, p99.beyond
            )
        })?;
        let outcomes: Vec<RungOutcome> = self
            .rungs
            .iter()
            .map(|r| RungOutcome {
                rate: r.rate as f64,
                p99_us: percentile(&r.latencies_us, 99.0).and_then(|p| p.reportable()),
                lost: r.lost,
            })
            .collect();
        let top = self.rungs.last().expect("ladders are non-empty");
        let best = max_rate_rung(&outcomes, ladder.limit_us).map(|i| &self.rungs[i]);
        let at = |r: &RungSummary| format!("{} jobs/s", r.rate);
        Ok(vec![
            Modeled {
                name: "sim_gbps",
                value: t.gbps("diag"),
                note: scans.clone(),
            },
            Modeled {
                name: "banded_sim_gbps",
                value: t.gbps("banded"),
                note: scans.clone(),
            },
            Modeled {
                name: "sim_speedup",
                value: t.speedup(),
                note: scans.clone(),
            },
            Modeled {
                name: "p50_us",
                value: p50.value,
                note: format!("n={} at {}", p50.samples, at(nominal)),
            },
            Modeled {
                name: "p99_us",
                value: p99_value,
                note: format!(
                    "n={}, {} beyond, at {}",
                    p99.samples,
                    p99.beyond,
                    at(nominal)
                ),
            },
            Modeled {
                name: "sat_jobs_per_s",
                value: top.jobs_per_sec,
                note: format!("n={} completed at {}", top.latencies_us.len(), at(top)),
            },
            Modeled {
                name: "max_rate_jobs_per_s",
                value: best.map_or(0.0, |r| r.jobs_per_sec),
                note: match best {
                    Some(r) => format!(
                        "completed at {}, p99 <= {} us, none lost",
                        at(r),
                        ladder.limit_us
                    ),
                    None => format!("no rung met p99 <= {} us with none lost", ladder.limit_us),
                },
            },
        ])
    }
}
