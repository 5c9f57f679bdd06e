//! Latency quantiles through the shared obs histogram.
//!
//! The bench harness used to sort each cell's latency samples and index
//! into the sorted vector, with two slightly different nearest-rank
//! formulas. The `fanout` and `stall` gates now go through
//! [`genclus_obs::Histogram`], the same log-bucketed structure the
//! serving layer's `{"op":"metrics"}` op reports from, so a bench p99
//! and a served p99 are computed by the same code with the same bounded
//! representation error (bucket midpoint, ≤ 1/64 relative; the maximum
//! is exact). The test below pins the histogram path against the old
//! sort-based computation.

use genclus_obs::{Histogram, HistogramSnapshot};

/// Builds a histogram over latency samples given in **seconds**,
/// recorded at nanosecond resolution (the serving layer's unit).
pub fn latency_histogram(samples_seconds: &[f64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &s in samples_seconds {
        h.record((s.max(0.0) * 1e9).round() as u64);
    }
    h.snapshot()
}

/// Nearest-rank quantile in seconds; `q >= 1.0` is the exact maximum.
/// Returns 0 when no samples were recorded.
pub fn quantile_seconds(snap: &HistogramSnapshot, q: f64) -> f64 {
    snap.quantile(q) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The formula `ServeMeasurement::percentile` used before the
    /// histogram: sort, index `floor(q·n)` clamped to the last sample.
    fn sort_based(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q * s.len() as f64) as usize).min(s.len() - 1);
        s[idx]
    }

    #[test]
    fn histogram_quantiles_match_the_old_sort_based_math() {
        // 997 samples (prime, so q·n is never an integer and the old
        // floor rank and the histogram's ceil rank pick the same order
        // statistic), spanning the µs-to-ms range a serve cell produces.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<f64> = (0..997)
            .map(|_| 1e-6 + (next() % 1_000_000) as f64 * 1e-8)
            .collect();
        let snap = latency_histogram(&samples);
        for q in [0.5, 0.9, 0.99] {
            let want = sort_based(&samples, q);
            let got = quantile_seconds(&snap, q);
            let tol = want / 64.0 + 2e-9;
            assert!(
                (got - want).abs() <= tol,
                "q={q}: histogram {got} vs sorted {want} (tol {tol:e})"
            );
        }
        // q = 1.0 reports the recorded maximum exactly, not a bucket.
        let want = sort_based(&samples, 1.0);
        let got = quantile_seconds(&snap, 1.0);
        assert!((got - want).abs() <= 1e-9, "max {got} vs {want}");
    }

    #[test]
    fn degenerate_sample_sets_behave() {
        assert_eq!(quantile_seconds(&latency_histogram(&[]), 0.5), 0.0);
        let one = latency_histogram(&[0.25]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = quantile_seconds(&one, q);
            assert!((got - 0.25).abs() <= 0.25 / 64.0, "q={q}: {got}");
        }
        // Negative wall-clock artifacts clamp to zero instead of wrapping.
        assert_eq!(quantile_seconds(&latency_histogram(&[-1.0]), 1.0), 0.0);
    }
}
