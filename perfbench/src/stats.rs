//! Summary statistics: latency quantiles interpolated inside the program's
//! log₂ histogram buckets, and median/quartile summaries over repetitions.

use blunt_obs::HistogramSnapshot;

/// The `q`-quantile of a log₂-bucketed histogram, interpolated linearly
/// *within* the bucket that holds rank `q · count`.
///
/// Bucket `[lo, 2·lo)` is narrowed to the recorded `[min, max]` range, so a
/// histogram whose samples all share one value returns that value exactly.
/// The result is monotone in `q` and continuous across the edge between two
/// adjacent non-empty buckets (the upper end of one bucket is the lower end
/// of the next). Returns 0 for an empty histogram; `q` is clamped to
/// `[0, 1]`.
#[must_use]
pub fn interp_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.count as f64;
    let (min, max) = (h.min as f64, h.max as f64);
    let mut below = 0u64;
    for &(lo, c) in &h.buckets {
        let upto = below + c;
        if rank <= upto as f64 {
            // Bucket 0 holds only the sample 0; bucket `lo ≥ 1` spans
            // `[lo, 2·lo)`.
            let hi = if lo == 0 { 0.0 } else { 2.0 * lo as f64 };
            let lo = (lo as f64).max(min);
            let hi = hi.min(max).max(lo);
            let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return lo + frac * (hi - lo);
        }
        below = upto;
    }
    max
}

/// How many samples lie beyond the `q`-quantile: `(1 − q) · count`,
/// rounded down.
#[must_use]
pub fn beyond(h: &HistogramSnapshot, q: f64) -> u64 {
    ((1.0 - q.clamp(0.0, 1.0)) * h.count as f64).floor() as u64
}

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Median and quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a reader recomputes there. A
/// single value is its own median and quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive": m = n + 1.
        let m = (n + 1) as f64;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        median,
        q1: cut(1),
        q3: cut(3),
        n,
    }
}
