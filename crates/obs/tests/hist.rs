//! Exactness of histogram quantiles against sort-based quantiles.
//!
//! The bench harness used to sort its latency vectors and index into
//! them; it now records into the shared [`Histogram`]. These tests pin the contract that made the swap safe:
//! for any sample set, a histogram quantile is within `1/32` relative
//! error of the nearest-rank quantile of the sorted samples (and exact
//! below 32).

use genclus_obs::Histogram;
use rand::{Rng, SeedableRng};

/// Nearest-rank quantile on a sorted slice — the definition the histogram
/// implements, and the one the bench harness's ad-hoc math approximated.
fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    if q >= 1.0 {
        return *sorted.last().unwrap();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_close(h: &Histogram, sorted: &[u64], q: f64, label: &str) {
    let got = h.quantile(q);
    let want = sorted_quantile(sorted, q);
    let tol = (want as f64) / 32.0 + 0.5;
    assert!(
        (got as f64 - want as f64).abs() <= tol,
        "{label} q={q}: histogram {got} vs sorted {want} (tol {tol:.2})"
    );
}

fn check_distribution(label: &str, samples: Vec<u64>) {
    let h = Histogram::new();
    for &v in &samples {
        h.record(v);
    }
    let mut sorted = samples;
    sorted.sort_unstable();
    for &q in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
        assert_close(&h, &sorted, q, label);
    }
    assert_eq!(
        h.max(),
        *sorted.last().unwrap(),
        "{label}: max must be exact"
    );
    assert_eq!(h.count(), sorted.len() as u64, "{label}: count");
}

#[test]
fn uniform_latencies_match_sorted_quantiles() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    check_distribution(
        "uniform",
        (0..20_000)
            .map(|_| rng.gen_range(0u64..5_000_000))
            .collect(),
    );
}

#[test]
fn heavy_tailed_latencies_match_sorted_quantiles() {
    // Serving latency shape: a tight body with a long fsync-ish tail.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let samples = (0..20_000)
        .map(|_| {
            let body = rng.gen_range(8_000u64..40_000);
            if rng.gen_range(0u32..100) < 3 {
                body * rng.gen_range(50u64..400)
            } else {
                body
            }
        })
        .collect();
    check_distribution("heavy-tail", samples);
}

#[test]
fn tiny_sample_sets_match_sorted_quantiles() {
    check_distribution("single", vec![12_345]);
    check_distribution("pair", vec![5, 1_000_000]);
    check_distribution("small", vec![3, 3, 3, 9, 27, 81, 243]);
}

#[test]
fn constant_distribution_is_tight() {
    let h = Histogram::new();
    for _ in 0..1000 {
        h.record(100_000);
    }
    for &q in &[0.5, 0.9, 0.99] {
        let got = h.quantile(q) as f64;
        assert!((got - 100_000.0).abs() <= 100_000.0 / 32.0);
    }
    assert_eq!(h.quantile(1.0), 100_000);
}
