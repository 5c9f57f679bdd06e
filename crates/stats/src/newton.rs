//! Damped projected Newton–Raphson maximization under `x ≥ 0`.
//!
//! Algorithm 1 of the paper optimizes the strength vector `γ` by iterating
//! `γ ← γ − H⁻¹∇` followed by clamping negative coordinates to zero. The
//! pseudo-log-likelihood `g₂'` is concave (Appendix B), so the plain step is
//! usually safe; this implementation adds two inexpensive guards for the edge
//! cases that arise with degenerate networks:
//!
//! * backtracking — the step is halved until the objective does not
//!   decrease, so a badly scaled Hessian cannot diverge;
//! * gradient fallback — if the Hessian solve fails (e.g. an empty relation
//!   makes it singular), a projected gradient-ascent step is taken instead.
//!
//! Each iteration asks the problem for its gradient and Hessian in one
//! call ([`NewtonProblem::gradient_hessian`]), so a problem whose two
//! derivatives share per-term work (like `g₂'`'s `α`, `ψ`, `ψ′`) computes
//! it once. A projected Newton step that moves no coordinate by `tol` —
//! the full step, or one halved by the line search — ends the solve at the
//! current iterate without evaluating the candidate. For an objective of
//! magnitude ~1e6 such a candidate's value differs from the current one
//! only by rounding noise, and each noisy rejection would halve the step
//! again, up to `max_backtracks` times, each time at the cost of a full
//! objective pass. Gradient-fallback steps are always evaluated: they are
//! small by design.
//!
//! A candidate counts as "not worse" when its value is at most
//! `value_noise(value)` below the current one: `256·ε·|value|`, at least
//! 1e-12. An objective summed over many per-object terms carries rounding
//! noise that grows with its magnitude — `g₂'` ≈ 6.4e5 at 100k objects
//! came back 5.8e-9 (~41·ε·|value|) lower for a 1.58e-6 step whose true
//! gain was far smaller. An absolute slack rejected such a step and paid
//! another objective pass for each halving still above `tol`; a slack
//! relative to the magnitude, ~6× that observed noise and still only
//! ~6e-14 of the value, accepts it at the first evaluation.

use crate::matrix::Matrix;

/// How far below the current value a line-search candidate may land and
/// still be accepted: the rounding noise of an objective of this
/// magnitude, see the module docs.
fn value_noise(value: f64) -> f64 {
    (256.0 * f64::EPSILON * value.abs()).max(1e-12)
}

/// Behavioural knobs for [`ProjectedNewton`].
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOptions {
    /// Maximum number of Newton iterations.
    pub max_iters: usize,
    /// Convergence threshold on the max-norm of the iterate change.
    pub tol: f64,
    /// Maximum number of step halvings per iteration.
    pub max_backtracks: usize,
    /// Initial step size for the gradient-ascent fallback.
    pub fallback_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iters: 50,
            tol: 1e-6,
            max_backtracks: 30,
            fallback_step: 1e-3,
        }
    }
}

/// A concave maximization problem over the non-negative orthant.
pub trait NewtonProblem {
    /// Objective value at `x`.
    fn value(&self, x: &[f64]) -> f64;
    /// Gradient at `x` into `grad` (same length as `x`) and Hessian at `x`
    /// into the square matrix `hess`, in one call.
    fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix);
    /// Gradient alone (diagnostics and tests; the solver uses
    /// [`Self::gradient_hessian`]).
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let mut hess = Matrix::zeros(x.len(), x.len());
        self.gradient_hessian(x, out, &mut hess);
    }
    /// Hessian alone (diagnostics and tests).
    fn hessian(&self, x: &[f64], out: &mut Matrix) {
        let mut grad = vec![0.0; x.len()];
        self.gradient_hessian(x, &mut grad, out);
    }
}

/// Result of a [`ProjectedNewton::maximize`] run.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// Final iterate (projected onto `x ≥ 0`).
    pub x: Vec<f64>,
    /// Objective at the final iterate.
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iters`.
    pub converged: bool,
    /// Whether any iteration fell back to projected gradient ascent.
    pub used_gradient_fallback: bool,
}

/// The solver. Stateless apart from its options; reusable across calls.
#[derive(Debug, Clone, Default)]
pub struct ProjectedNewton {
    /// Solver options.
    pub options: NewtonOptions,
}

impl ProjectedNewton {
    /// Creates a solver with the given options.
    pub fn new(options: NewtonOptions) -> Self {
        Self { options }
    }

    /// Maximizes `problem` starting from `x0` (clamped to `≥ 0` first).
    pub fn maximize<P: NewtonProblem>(&self, x0: &[f64], problem: &P) -> NewtonOutcome {
        let n = x0.len();
        let mut x: Vec<f64> = x0.iter().map(|&v| v.max(0.0)).collect();
        let mut value = problem.value(&x);
        let mut grad = vec![0.0; n];
        let mut hess = Matrix::zeros(n, n);
        let mut used_fallback = false;
        let mut converged = false;
        let mut iterations = 0;

        for _ in 0..self.options.max_iters {
            iterations += 1;
            problem.gradient_hessian(&x, &mut grad, &mut hess);

            // Newton direction d solves H d = ∇; the ascent step is x − d
            // because H is negative definite for concave objectives.
            let direction = hess.solve(&grad);
            let (step_dir, sign, newton_step) = match direction {
                Some(d) => (d, -1.0, true),
                None => {
                    used_fallback = true;
                    (
                        grad.iter()
                            .map(|&g| g * self.options.fallback_step)
                            .collect(),
                        1.0,
                        false,
                    )
                }
            };

            // Backtracking line search on the (projected) step.
            let mut t = 1.0;
            let mut accepted = false;
            for _ in 0..=self.options.max_backtracks {
                let candidate: Vec<f64> = x
                    .iter()
                    .zip(&step_dir)
                    .map(|(&xi, &di)| (xi + sign * t * di).max(0.0))
                    .collect();
                let delta = max_abs_delta(&x, &candidate);
                if newton_step && delta < self.options.tol {
                    // A Newton step this small, full or halved, is
                    // convergence at `x`: its value would only measure the
                    // objective's rounding noise.
                    converged = true;
                    break;
                }
                let cand_value = problem.value(&candidate);
                if cand_value.is_finite() && cand_value >= value - value_noise(value) {
                    x = candidate;
                    value = cand_value;
                    accepted = true;
                    if delta < self.options.tol {
                        converged = true;
                    }
                    break;
                }
                t *= 0.5;
            }
            if !accepted {
                // No step improved the objective: treat current iterate as
                // converged (we are at a constrained stationary point up to
                // line-search resolution).
                converged = true;
            }
            if converged {
                break;
            }
        }

        NewtonOutcome {
            x,
            value,
            iterations,
            converged,
            used_gradient_fallback: used_fallback,
        }
    }
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = −Σ (x_k − c_k)², maximum at the projection of c onto x ≥ 0.
    struct Quadratic {
        c: Vec<f64>,
    }

    impl NewtonProblem for Quadratic {
        fn value(&self, x: &[f64]) -> f64 {
            -x.iter()
                .zip(&self.c)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        }
        fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) {
            for ((o, &xi), &ci) in grad.iter_mut().zip(x).zip(&self.c) {
                *o = -2.0 * (xi - ci);
            }
            let n = hess.rows();
            for i in 0..n {
                for j in 0..n {
                    hess[(i, j)] = if i == j { -2.0 } else { 0.0 };
                }
            }
        }
    }

    #[test]
    fn quadratic_interior_maximum_in_one_step() {
        let p = Quadratic {
            c: vec![1.5, 0.3, 4.0],
        };
        let out = ProjectedNewton::default().maximize(&[0.0, 0.0, 0.0], &p);
        assert!(out.converged);
        for (got, want) in out.x.iter().zip(&p.c) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        assert!(out.iterations <= 3);
    }

    #[test]
    fn quadratic_boundary_maximum_is_projected() {
        // Unconstrained max at (−2, 3): the constrained max is (0, 3).
        let p = Quadratic { c: vec![-2.0, 3.0] };
        let out = ProjectedNewton::default().maximize(&[1.0, 1.0], &p);
        assert!((out.x[0] - 0.0).abs() < 1e-8);
        assert!((out.x[1] - 3.0).abs() < 1e-8);
    }

    /// Concave but non-quadratic: f(x) = Σ [ln(1 + x_k) − x_k/2], max at x = 1.
    struct LogProblem {
        n: usize,
    }

    impl NewtonProblem for LogProblem {
        fn value(&self, x: &[f64]) -> f64 {
            x.iter().map(|&v| (1.0 + v).ln() - 0.5 * v).sum()
        }
        fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) {
            for (o, &v) in grad.iter_mut().zip(x) {
                *o = 1.0 / (1.0 + v) - 0.5;
            }
            for i in 0..self.n {
                for j in 0..self.n {
                    hess[(i, j)] = if i == j {
                        -1.0 / ((1.0 + x[i]) * (1.0 + x[i]))
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    #[test]
    fn non_quadratic_concave_converges_to_analytic_max() {
        let p = LogProblem { n: 4 };
        let out = ProjectedNewton::default().maximize(&[0.1, 2.0, 0.5, 3.0], &p);
        assert!(out.converged);
        for &v in &out.x {
            assert!((v - 1.0).abs() < 1e-6, "expected 1.0, got {v}");
        }
    }

    /// `1e6 + 1e5·Σ_k [ln(1 + x_k) − x_k/2]`, summed in 64 slices of
    /// rising and falling terms, the way a large objective sums many
    /// per-object terms. Every partial sum is ~1e6, so each addition rounds
    /// at ~1e-10, and the computed value carries noise of that size that
    /// does not follow the true objective.
    /// Counts its value calls.
    struct OffsetLogProblem {
        n: usize,
        values: std::cell::Cell<usize>,
    }

    impl OffsetLogProblem {
        const SCALE: f64 = 1e5;
    }

    impl NewtonProblem for OffsetLogProblem {
        fn value(&self, x: &[f64]) -> f64 {
            self.values.set(self.values.get() + 1);
            let slice = Self::SCALE / 64.0;
            let mut total = 0.0;
            for _ in 0..64 {
                total += 1e6 / 64.0;
                for &v in x {
                    total += slice * (1.0 + v).ln();
                    total -= slice * 0.5 * v;
                }
            }
            total
        }
        fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) {
            for (o, &v) in grad.iter_mut().zip(x) {
                *o = Self::SCALE * (1.0 / (1.0 + v) - 0.5);
            }
            for i in 0..self.n {
                for j in 0..self.n {
                    hess[(i, j)] = if i == j {
                        -Self::SCALE / ((1.0 + x[i]) * (1.0 + x[i]))
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    #[test]
    fn converged_step_costs_no_line_search_on_a_large_objective() {
        // Near the optimum a Newton step's true gain is far below the
        // objective's rounding noise. Evaluating such a step can reject it
        // and halve it up to `max_backtracks` times; a step under `tol`
        // must end the solve instead, so each iteration costs at most one
        // value call.
        for start in 0..16 {
            let x0: Vec<f64> = (0..3)
                .map(|c| 0.05 + 0.37 * ((start * 3 + c) % 11) as f64)
                .collect();
            let p = OffsetLogProblem {
                n: 3,
                values: std::cell::Cell::new(0),
            };
            let out = ProjectedNewton::default().maximize(&x0, &p);
            assert!(out.converged, "start {x0:?}");
            for &v in &out.x {
                assert!((v - 1.0).abs() < 1e-6, "start {x0:?}: {v}");
            }
            assert!(
                p.values.get() <= out.iterations + 1,
                "start {x0:?}: {} value calls in {} iterations",
                p.values.get(),
                out.iterations
            );
        }
    }

    /// `6e5 + Σ_k [ln(1 + x_k) − x_k/2] − jitter(x)`: a large, nearly flat
    /// objective whose computed value carries a deterministic pseudo-random
    /// error of up to 32·ε·6e5 ≈ 4.3e-9 — the size of the rounding noise a
    /// sum of many per-object terms shows at this magnitude. Near the
    /// optimum a Newton step of a few `tol` gains ~1e-12, far below it.
    /// Counts its value calls.
    struct NoisyPlateau {
        n: usize,
        values: std::cell::Cell<usize>,
    }

    impl NoisyPlateau {
        const OFFSET: f64 = 6e5;

        fn jitter(x: &[f64]) -> f64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for v in x {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
                h ^= h >> 29;
            }
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            unit * 32.0 * f64::EPSILON * Self::OFFSET
        }
    }

    impl NewtonProblem for NoisyPlateau {
        fn value(&self, x: &[f64]) -> f64 {
            self.values.set(self.values.get() + 1);
            let true_value: f64 = x.iter().map(|&v| (1.0 + v).ln() - 0.5 * v).sum();
            Self::OFFSET + true_value - Self::jitter(x)
        }
        fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) {
            LogProblem { n: self.n }.gradient_hessian(x, grad, hess);
        }
    }

    #[test]
    fn step_with_gain_below_the_noise_costs_no_extra_value_call() {
        // A step of a few `tol` whose true gain is below the value's
        // rounding noise must be accepted at its first evaluation. Under an
        // absolute slack the noise rejected it about half the time, and
        // each halving still above `tol` cost another objective pass.
        for start in 0..32 {
            let x0: Vec<f64> = (0..3)
                .map(|c| 0.05 + 0.29 * ((start * 3 + c) % 13) as f64)
                .collect();
            let p = NoisyPlateau {
                n: 3,
                values: std::cell::Cell::new(0),
            };
            let out = ProjectedNewton::default().maximize(&x0, &p);
            assert!(out.converged, "start {x0:?}");
            for &v in &out.x {
                assert!((v - 1.0).abs() < 1e-5, "start {x0:?}: {v}");
            }
            assert!(
                p.values.get() <= out.iterations + 1,
                "start {x0:?}: {} value calls in {} iterations",
                p.values.get(),
                out.iterations
            );
        }
    }

    #[test]
    fn value_noise_is_relative_with_an_absolute_floor() {
        assert_eq!(value_noise(0.0), 1e-12);
        assert_eq!(value_noise(-3.0), 1e-12);
        let big = 6.4e5;
        assert_eq!(value_noise(big), 256.0 * f64::EPSILON * big);
        assert_eq!(value_noise(-big), value_noise(big));
        // Above the ~5.8e-9 seen on g₂' at this magnitude, yet ~2e-13 of it.
        assert!(value_noise(big) > 5.8e-9 && value_noise(big) < 1e-12 * big);
    }

    /// Objective whose Hessian is singular: forces the gradient fallback.
    struct SingularHessian;

    impl NewtonProblem for SingularHessian {
        fn value(&self, x: &[f64]) -> f64 {
            -(x[0] + x[1] - 1.0).powi(2)
        }
        fn gradient_hessian(&self, x: &[f64], grad: &mut [f64], hess: &mut Matrix) {
            let g = -2.0 * (x[0] + x[1] - 1.0);
            grad[0] = g;
            grad[1] = g;
            for i in 0..2 {
                for j in 0..2 {
                    hess[(i, j)] = -2.0; // rank 1 → singular
                }
            }
        }
    }

    #[test]
    fn singular_hessian_falls_back_to_gradient_and_improves() {
        let p = SingularHessian;
        let start = [3.0, 3.0];
        let out = ProjectedNewton::new(NewtonOptions {
            max_iters: 500,
            fallback_step: 0.1,
            ..NewtonOptions::default()
        })
        .maximize(&start, &p);
        assert!(out.used_gradient_fallback);
        assert!(out.value > p.value(&start));
        assert!((out.x[0] + out.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn never_leaves_the_nonnegative_orthant() {
        let p = Quadratic {
            c: vec![-5.0, -1.0, 2.0],
        };
        let out = ProjectedNewton::default().maximize(&[0.5, 0.5, 0.5], &p);
        assert!(out.x.iter().all(|&v| v >= 0.0));
    }
}
