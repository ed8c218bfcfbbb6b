//! Order statistics of the measured samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every workload reports (`op_p80_ms`). At the
/// 80th percentile 50 samples leave 10 beyond it: one `fig9` pass
/// (75 cells), or two passes of a 28-cell grid, within one run.
pub const TAIL_Q: f64 = 0.8;

/// Median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above that rank — a tail percentile
/// resting on a handful of samples is noise, not a measurement.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    tail_rank(v.len(), q).map(|rank| v[rank - 1])
}

/// The 1-based nearest rank of the `q`-quantile of `n` samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
