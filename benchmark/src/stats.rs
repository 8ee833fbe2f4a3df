//! Order statistics used by every report: medians over repeats, tail
//! percentiles that know their own sample count, and the quartile spread
//! the acceptance rule is written in.

use std::fmt;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts in place with a total order (`+∞` for an undelivered request
/// sorts last, which is how it "counts as missing any latency limit").
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice so a missing metric cannot pass as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max − min) / median`: the run-to-run spread recorded beside every
/// median of repeats.
pub fn range_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 || !m.is_finite() {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / m.abs()
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// because that is the function the acceptance rule names.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m.is_finite() && m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an already sorted slice, by the
/// nearest-rank rule: the smallest value with at least `q·n` samples at or
/// below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Why a tail percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples offered.
    pub samples: usize,
    /// Samples that would lie beyond the requested rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile; at least {MIN_SAMPLES_BEYOND} are required",
            self.samples, self.beyond
        )
    }
}

/// The `q`-quantile of `sorted`, refused unless at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a p99 of 200 samples is
/// the second-largest value, which is an anecdote, not a percentile.
pub fn tail(sorted: &[f64], q: f64) -> Result<Tail, TooFewSamples> {
    let samples = sorted.len();
    let rank = ((q * samples as f64).ceil() as usize).clamp(1, samples.max(1));
    let beyond = samples.saturating_sub(rank);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(TooFewSamples { samples, beyond });
    }
    Ok(Tail {
        value: sorted[rank - 1],
        samples,
        beyond,
    })
}

/// The highest of p99 / p95 / p90 that `sorted` supports, falling back to
/// the median — used by the per-layer tables, where a short traced repeat
/// must still print a number and says which percentile it really is.
pub fn best_tail(sorted: &[f64]) -> (f64, f64) {
    for q in [0.99, 0.95, 0.90] {
        if let Ok(t) = tail(sorted, q) {
            return (q, t.value);
        }
    }
    (0.5, quantile_sorted(sorted, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(range_spread(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), Some((3.0, 7.0)));
        assert_eq!(quartile_spread(&v), 1.0);
    }

    #[test]
    fn tail_reports_its_sample_count_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=3000).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (2970.0, 3000, 30));
        let thin: Vec<f64> = (1..=900).map(f64::from).collect();
        assert_eq!(
            tail(&thin, 0.99),
            Err(TooFewSamples {
                samples: 900,
                beyond: 9
            })
        );
        assert_eq!(best_tail(&thin).0, 0.95);
    }

    #[test]
    fn an_undelivered_request_is_the_worst_latency() {
        let mut v = vec![1.0, f64::INFINITY, 0.5];
        sort(&mut v);
        assert_eq!(quantile_sorted(&v, 1.0), f64::INFINITY);
    }
}
