//! Order statistics for the report.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `sorted`, which must
/// be sorted ascending and non-empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples,
/// in integer per-mille arithmetic so that, say, p99.9 of 10 000
/// samples is rank 9990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The tail percentiles a timing may report, highest first.
pub const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// The highest tail percentile with at least ten samples beyond it
/// among `n` samples, or `None` when even p90 has fewer (under 100
/// samples). A percentile with fewer samples beyond it is one outlier
/// away from a different value.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= 10)
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) computes them.
///
/// # Panics
///
/// Panics with fewer than two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}
