//! Order statistics over samples, and the run's result ledger.

use std::collections::BTreeMap;

/// Median (mean of the two middle values for an even count); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything one run produces: attempt/failure counts, the metric values,
/// and diagnostics printed beside the result line.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub problems: Vec<String>,
    /// End-to-end metrics as reported (README, *Calibration*, says which
    /// are normalised).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Each timing in its other form (raw or normalised) and other
    /// diagnostics.
    pub diag: BTreeMap<String, f64>,
}

impl Ledger {
    /// Counts one attempted operation; a failed one is recorded with `what`.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a correctness mismatch found in an already-attempted output.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Records a count that must come out identical each time it is
    /// computed in this run (same inputs, same code): a difference means
    /// nondeterminism and is a failure.
    pub fn exact_count(&mut self, name: &'static str, value: f64) {
        let key = format!("count.{name}");
        match self.diag.get(&key) {
            Some(&prev) if prev != value => self.fail(format!(
                "count {name} is not reproducible: {prev} then {value}"
            )),
            _ => {
                self.diag.insert(key, value);
            }
        }
    }
}
