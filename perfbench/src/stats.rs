//! Order statistics shared by every workload.

/// Nearest-rank quantile `q` (in `0..=1`) of an ascending slice.
///
/// # Panics
/// On an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle two for an even count);
/// 0 for no values.
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

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A tail latency: which percentile was taken, its value, and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile taken (99, 95 or 90).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples strictly after its rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99, p95 and p90 that has at least [`MIN_BEYOND`]
/// samples beyond its rank. With too few samples for any of them, p90 is
/// reported and `beyond` shows the shortfall.
///
/// # Panics
/// On an empty slice.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let at = |p: u32| {
        let rank = ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Tail {
            percentile: p,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        }
    };
    [99, 95, 90]
        .into_iter()
        .map(at)
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| at(90))
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Each latency replaced by the fastest latency of the same op:
/// `positions[i]` names the op that took `latencies[i]`.
pub fn at_fastest(latencies: &[f64], positions: &[usize]) -> Vec<f64> {
    let mut fastest = std::collections::HashMap::new();
    for (&l, &p) in latencies.iter().zip(positions) {
        let f = fastest.entry(p).or_insert(l);
        *f = f64::min(*f, l);
    }
    positions.iter().map(|p| fastest[p]).collect()
}
