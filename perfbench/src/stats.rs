//! Summary statistics behind every reported metric: medians, the
//! tail-percentile rule, geometric means and failure shares.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A percentile picked from a sample set, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pick {
    /// The percentile reported (1–99).
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken from.
    pub n: usize,
}

/// Index of the nearest-rank `pct` percentile in `n` sorted samples.
fn rank_index(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1) - 1
}

/// The highest percentile, at most `want`, that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the
/// median lacks them.
pub fn tail(samples: &[f64], want: u32) -> Option<Pick> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (50..=want.min(99)).rev().find_map(|pct| {
        let ix = rank_index(n, pct);
        (n >= 1 && n - 1 - ix >= TAIL_MIN_BEYOND).then(|| Pick {
            pct,
            value: sorted[ix],
            n,
        })
    })
}

/// The lowest of the per-slice [`tail`] picks.
///
/// On a shared virtual machine the host can stall the process for
/// milliseconds, at a rate that drifts between runs; a sub-millisecond
/// operation that meets a stall reads 5–20x slow. A tail caused by the program shows in every
/// slice of a run, a tail caused by stalls only in some, so the
/// quietest slice's tail is the program's.
pub fn quietest(slices: &[Vec<f64>], want: u32) -> Option<Pick> {
    slices
        .iter()
        .filter_map(|s| tail(s, want))
        .min_by(|a, b| a.value.total_cmp(&b.value))
}

/// Merges consecutive slices into windows of at least `min` samples
/// each; a short remainder joins the last window.
pub fn windows(slices: &[Vec<f64>], min: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for s in slices {
        open.extend_from_slice(s);
        if open.len() >= min {
            out.push(std::mem::take(&mut open));
        }
    }
    match out.last_mut() {
        Some(last) => last.extend(open),
        None if !open.is_empty() => out.push(open),
        None => {}
    }
    out
}

/// The median (mean of the two middle samples for an even count);
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values; `NaN` for none, or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Outcome counts of the operations a run attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations that completed with a correct result.
    pub ok: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    /// Operations the system refused to accept.
    pub refused: u64,
}

impl Tally {
    /// Every operation tried, refused ones included.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed + self.refused
    }

    /// Failed and refused operations, which both count as failures.
    pub fn failures(&self) -> u64 {
        self.failed + self.refused
    }

    /// Failures as a share of everything attempted (0 when nothing
    /// was attempted).
    pub fn failed_share(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failures() as f64 / n as f64,
        }
    }

    /// Adds another tally's counts to this one.
    pub fn add(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // descending, so the helpers must sort
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond_it() {
        let p = tail(&ramp(1000), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99, 989.0, 1000));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 999 samples: p99 sits at rank 990, with only 9 beyond it
        let p = tail(&ramp(999), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (98, 979.0, 999));
        // 100 samples: p90 is rank 90, with exactly 10 beyond
        let p = tail(&ramp(100), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (90, 89.0, 100));
        // 20 samples: only the median keeps 10 beyond
        let p = tail(&ramp(20), 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (50, 9.0, 20));
    }

    #[test]
    fn tail_refuses_when_even_the_median_lacks_support() {
        assert_eq!(tail(&ramp(19), 99), None);
        assert_eq!(tail(&[], 99), None);
    }

    #[test]
    fn tail_never_exceeds_the_requested_percentile() {
        let p = tail(&ramp(100_000), 50).unwrap();
        assert_eq!((p.pct, p.value), (50, 49_999.0));
    }

    #[test]
    fn quietest_picks_the_slice_with_the_lowest_tail() {
        let calm = ramp(1000);
        let mut stalled = ramp(1000);
        stalled[..30].iter_mut().for_each(|x| *x += 10_000.0);
        let short = ramp(15);
        let p = quietest(&[stalled, calm, short], 99).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99, 989.0, 1000));
        assert_eq!(quietest(&[ramp(5)], 99), None);
    }

    #[test]
    fn windows_reach_their_minimum_size() {
        let slices = vec![ramp(400), ramp(700), ramp(1200), ramp(300)];
        let w = windows(&slices, 1000);
        assert_eq!(w.iter().map(Vec::len).collect::<Vec<_>>(), vec![1100, 1500]);
        assert_eq!(windows(&[ramp(3), ramp(4)], 1000)[0].len(), 7);
        assert!(windows(&[], 1000).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_matches_the_closed_form() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_and_non_positive_input() {
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, -2.0]).is_nan());
    }

    #[test]
    fn failed_share_counts_refused_and_failed_as_attempted() {
        let t = Tally {
            ok: 6,
            failed: 1,
            refused: 3,
        };
        assert_eq!(t.attempted(), 10);
        assert_eq!(t.failures(), 4);
        assert!((t.failed_share() - 0.4).abs() < 1e-12);
        let refused_only = Tally {
            ok: 0,
            failed: 0,
            refused: 2,
        };
        assert_eq!(refused_only.failed_share(), 1.0);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn tallies_add_up() {
        let mut t = Tally {
            ok: 1,
            failed: 2,
            refused: 3,
        };
        t.add(t);
        assert_eq!((t.ok, t.failed, t.refused, t.attempted()), (2, 4, 6, 12));
    }
}
