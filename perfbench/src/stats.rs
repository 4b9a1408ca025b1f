//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 · n)`. A workload's
//! *tail* percentile is fixed in advance (see `tail_percentile`) so that
//! every run reports the same statistic; each run collects at least the
//! sample count that leaves ten samples beyond it.

/// Samples beyond the tail percentile that a run must collect.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile a run of at least `min_samples` samples reports:
/// the highest percentile that still has [`TAIL_BEYOND`] samples beyond it.
pub fn tail_percentile(min_samples: usize) -> f64 {
    assert!(min_samples > TAIL_BEYOND, "a tail needs more than {TAIL_BEYOND} samples");
    100.0 * (1.0 - TAIL_BEYOND as f64 / min_samples as f64)
}

/// A percentile as it appears in a metric name (`75`, `93.3`).
pub fn label(p: f64) -> String {
    let text = format!("{p:.1}");
    text.trim_end_matches(".0").to_string()
}

/// Nearest-rank percentile of unsorted samples (`p` in `0..=100`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Largest sample (0 for none).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Smallest sample (0 for none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(median(&s), 20.0);
        assert_eq!(percentile(&s, 75.0), 30.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn the_tail_leaves_ten_samples_beyond_it() {
        for n in [20usize, 40, 100, 200, 1000] {
            let p = tail_percentile(n);
            let s: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let beyond = s.iter().filter(|&&v| v > percentile(&s, p)).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
    }
}
