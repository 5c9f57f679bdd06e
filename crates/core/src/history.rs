//! Per-outer-iteration run history.
//!
//! Fig. 10 of the paper tracks clustering accuracy and the strength vector
//! across the outer iterations ("a typical running case"); the history makes
//! that data available without re-instrumenting the algorithm, and doubles
//! as the timing source for the efficiency study (Fig. 11).

/// Snapshot of one outer iteration.
#[derive(Debug, Clone)]
pub struct OuterIterationRecord {
    /// 1-based outer iteration index.
    pub iteration: usize,
    /// Strength vector *after* this iteration's strength-learning step.
    pub gamma: Vec<f64>,
    /// `g₁(Θ, β)` after the cluster-optimization step.
    pub g1: f64,
    /// `g₂'(γ)` after the strength-learning step.
    pub g2: f64,
    /// EM iterations used by the cluster-optimization step.
    pub em_iterations: usize,
    /// Wall-clock seconds of the cluster-optimization step.
    pub em_seconds: f64,
    /// Wall-clock seconds of the strength-learning step.
    pub strength_seconds: f64,
    /// Projected-Newton iterations of the strength-learning step.
    pub newton_iterations: usize,
    /// Wall-clock seconds of the `g₁` evaluation after the
    /// cluster-optimization step.
    pub objective_seconds: f64,
}

/// History of a full [`crate::algorithm::GenClus::fit`] run.
#[derive(Debug, Clone, Default)]
pub struct RunHistory {
    /// One record per executed outer iteration.
    pub records: Vec<OuterIterationRecord>,
}

impl RunHistory {
    /// Number of outer iterations executed.
    pub fn n_iterations(&self) -> usize {
        self.records.len()
    }

    /// The trajectory of one relation's strength across iterations.
    pub fn gamma_trajectory(&self, relation: usize) -> Vec<f64> {
        self.records.iter().map(|r| r.gamma[relation]).collect()
    }

    /// Total EM iterations summed over every outer iteration — the
    /// convergence currency the warm-start refresh bench and the serving
    /// layer's refresh op both report.
    pub fn total_em_iterations(&self) -> usize {
        self.records.iter().map(|r| r.em_iterations).sum()
    }

    /// Mean EM wall-clock seconds per *inner* iteration, the quantity
    /// Fig. 11 plots.
    pub fn mean_em_seconds_per_inner_iteration(&self) -> f64 {
        let total_secs: f64 = self.records.iter().map(|r| r.em_seconds).sum();
        let total_iters = self.total_em_iterations();
        if total_iters == 0 {
            0.0
        } else {
            total_secs / total_iters as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, g: f64, em_iters: usize, em_secs: f64) -> OuterIterationRecord {
        OuterIterationRecord {
            iteration: i,
            gamma: vec![g, 2.0 * g],
            g1: -1.0,
            g2: -2.0,
            em_iterations: em_iters,
            em_seconds: em_secs,
            strength_seconds: 0.01,
            newton_iterations: 3,
            objective_seconds: 0.002,
        }
    }

    #[test]
    fn trajectory_extracts_per_relation_series() {
        let h = RunHistory {
            records: vec![record(1, 1.0, 5, 0.5), record(2, 1.5, 4, 0.4)],
        };
        assert_eq!(h.n_iterations(), 2);
        assert_eq!(h.gamma_trajectory(0), vec![1.0, 1.5]);
        assert_eq!(h.gamma_trajectory(1), vec![2.0, 3.0]);
        assert_eq!(h.total_em_iterations(), 9);
    }

    #[test]
    fn per_inner_iteration_timing() {
        let h = RunHistory {
            records: vec![record(1, 1.0, 5, 0.5), record(2, 1.0, 5, 0.5)],
        };
        assert!((h.mean_em_seconds_per_inner_iteration() - 0.1).abs() < 1e-12);
        assert_eq!(
            RunHistory::default().mean_em_seconds_per_inner_iteration(),
            0.0
        );
    }
}
