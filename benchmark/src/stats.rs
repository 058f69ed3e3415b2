//! Order statistics for the report: percentiles, the "highest
//! percentile the sample supports" rule, and the quartile spread the
//! acceptance gate uses.

/// The value at quantile `q` (0..=1) of an ascending-sorted sample,
/// nearest-rank on `floor(n·q)` clamped to the last element — the same
/// rule `server_load` prints with. Empty samples give 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (sorted.len() as f64 * q) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts `values` and returns the value at quantile `q`.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// The ladder of percentiles a report may quote, in per mille (whole
/// numbers, so that "ten samples beyond" is exact arithmetic).
const LADDER_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of the ladder (p50, p90, p95, p99, p99.9)
/// that still has at least ten samples beyond it in a sample of `n` —
/// quoting p99 from 300 requests would be quoting the third-slowest
/// one. `None` below 20 samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .rfind(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: positions at `(n+1)·k/4`, linear interpolation). Needs two
/// values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the gate compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentiles_pick_by_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 51.0);
        assert_eq!(percentile_sorted(&v, 0.95), 96.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
