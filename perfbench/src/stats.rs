//! The benchmark's metric arithmetic, kept apart from the workloads so
//! its rules are unit-tested on their own.

/// A timing percentile is reported only when at least this many samples
/// lie beyond it; below that it is an anecdote, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the sample accounting printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// The value, if enough samples lie beyond it to trust it.
    pub fn reportable(&self) -> Option<f64> {
        (self.beyond >= MIN_BEYOND).then_some(self.value)
    }
}

/// Nearest-rank percentile `p` (in (0, 100]) of `samples`: the smallest
/// sample with at least `p`% of all samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|p| p.value)
}

/// One rung of an open-loop rate ladder, as the max-rate rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungOutcome {
    /// Offered load, jobs per modeled second.
    pub rate: f64,
    /// Arrival-to-outcome p99 of the completed jobs, if reportable.
    pub p99_us: Option<f64>,
    /// Jobs refused, shed or expired on this rung.
    pub lost: u64,
}

/// Index of the fastest rung whose p99 is reportable, within `limit_us`,
/// and lost no job. Rungs are judged independently: a rung that misses
/// does not disqualify a faster one that meets the limit.
pub fn max_rate_rung(rungs: &[RungOutcome], limit_us: f64) -> Option<usize> {
    rungs
        .iter()
        .enumerate()
        .filter(|(_, r)| r.lost == 0 && r.p99_us.is_some_and(|p| p <= limit_us))
        .max_by(|(_, a), (_, b)| a.rate.total_cmp(&b.rate))
        .map(|(i, _)| i)
}

/// Operations that errored plus jobs refused, shed or expired, over all
/// operations attempted.
pub fn failed_frac(errored: u64, lost: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (errored + lost) as f64 / attempted as f64
}

/// What a span of host time was spent on. Only `Timed` spans count
/// toward host throughput: set-up and the oracle are paid once per
/// workload, not per unit of simulated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Setup,
    Timed,
    Oracle,
    Probe,
}

/// Simulated input megabytes per host second over the top-level timed
/// spans, given as `(plane, simulated bytes, host seconds)` triples.
/// Nested spans must not be passed twice: callers hand over roots only.
pub fn host_mbps(spans: impl IntoIterator<Item = (Plane, u64, f64)>) -> f64 {
    let (bytes, secs) = timed(spans).fold((0u64, 0.0f64), |(b, s), (bytes, secs)| {
        (b + bytes, s + secs)
    });
    mbps(bytes, secs)
}

/// [`host_mbps`] over rounds that repeat the same calls: each timed call
/// counts with its median host time across rounds, so a slow spell that
/// hits one round's call does not count. `None` if the rounds did not
/// make the same timed calls.
pub fn host_mbps_per_call(rounds: &[Vec<(Plane, u64, f64)>]) -> Option<f64> {
    let calls: Vec<Vec<(u64, f64)>> = rounds
        .iter()
        .map(|r| timed(r.iter().copied()).collect())
        .collect();
    let first = calls.first()?;
    if calls
        .iter()
        .any(|c| c.len() != first.len() || c.iter().zip(first).any(|(a, b)| a.0 != b.0))
    {
        return None;
    }
    let mut secs = 0.0;
    for k in 0..first.len() {
        let t: Vec<f64> = calls.iter().map(|c| c[k].1).collect();
        secs += median(&t)?;
    }
    Some(mbps(first.iter().map(|c| c.0).sum(), secs))
}

fn timed(spans: impl IntoIterator<Item = (Plane, u64, f64)>) -> impl Iterator<Item = (u64, f64)> {
    spans
        .into_iter()
        .filter(|(plane, _, _)| *plane == Plane::Timed)
        .map(|(_, bytes, secs)| (bytes, secs))
}

fn mbps(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0).unwrap().value, 5.0);
        assert_eq!(percentile(&s, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&s, 91.0).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 100.0).unwrap().value, 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&thousand, 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 10));
        assert_eq!(p.reportable(), Some(990.0));

        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let p = percentile(&short, 99.0).unwrap();
        assert_eq!(p.beyond, 9, "rank ceil(989.01) = 990 leaves 9 above");
        assert_eq!(p.reportable(), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&a, 80.0).unwrap().value, 4.0);
    }

    #[test]
    fn max_rate_takes_the_fastest_rung_that_meets_every_condition() {
        let rung = |rate, p99_us, lost| RungOutcome { rate, p99_us, lost };
        let ladder = [
            rung(10.0, Some(1500.0), 0), // over the limit
            rung(20.0, Some(400.0), 0),  // meets it
            rung(40.0, Some(900.0), 0),  // meets it: the answer
            rung(80.0, Some(300.0), 3),  // lost jobs
            rung(160.0, None, 0),        // p99 not reportable
        ];
        assert_eq!(max_rate_rung(&ladder, 1000.0), Some(2));
        assert_eq!(max_rate_rung(&ladder, 100.0), None);
        assert_eq!(
            max_rate_rung(&[rung(5.0, Some(1000.0), 0)], 1000.0),
            Some(0)
        );
    }

    #[test]
    fn failed_frac_counts_errors_and_lost_jobs_against_attempts() {
        assert_eq!(failed_frac(0, 0, 100), 0.0);
        assert_eq!(failed_frac(1, 3, 100), 0.04);
        assert_eq!(failed_frac(0, 5, 0), 0.0);
    }

    #[test]
    fn host_mbps_excludes_setup_oracle_and_probes() {
        let spans = [
            (Plane::Setup, 0, 9.0),
            (Plane::Timed, 2_000_000, 1.0),
            (Plane::Oracle, 2_000_000, 5.0),
            (Plane::Timed, 2_000_000, 1.0),
            (Plane::Probe, 1_000_000, 3.0),
        ];
        assert_eq!(host_mbps(spans), 2.0);
        assert_eq!(host_mbps([(Plane::Setup, 1, 1.0)]), 0.0);
    }

    #[test]
    fn per_call_medians_drop_a_slow_spell_in_one_round() {
        let round = |a: f64, b: f64| {
            vec![
                (Plane::Setup, 0, 5.0),
                (Plane::Timed, 1_000_000, a),
                (Plane::Oracle, 0, 5.0),
                (Plane::Timed, 3_000_000, b),
            ]
        };
        // Call 0 is slow in round 0, call 1 in round 2: medians are 1 s each.
        let rounds = [round(9.0, 1.0), round(1.0, 1.0), round(1.0, 9.0)];
        assert_eq!(host_mbps_per_call(&rounds), Some(2.0));
        assert_eq!(host_mbps_per_call(&rounds[..1]), Some(0.4));
        let odd = vec![round(1.0, 1.0), vec![(Plane::Timed, 1_000_000, 1.0)]];
        assert_eq!(
            host_mbps_per_call(&odd),
            None,
            "rounds made different calls"
        );
    }
}
