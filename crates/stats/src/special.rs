//! Special functions: `ln Γ(x)`, digamma `ψ(x)` and trigamma `ψ'(x)`.
//!
//! The strength-learning step of GenClus evaluates the gradient (Eq. 16) and
//! Hessian (Eq. 17) of the pseudo-log-likelihood, both of which are sums of
//! digamma/trigamma terms of Dirichlet parameters `α_ik ≥ 1`. The
//! implementations below are the standard ones (Lanczos approximation for
//! `ln Γ`, upward recurrence + asymptotic series for `ψ` and `ψ'`) and are
//! accurate to ~1e-12 on the positive axis, far tighter than the optimizer
//! needs.

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey's table).
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the Gamma function for `x > 0`.
///
/// Uses the Lanczos approximation; relative error is below `1e-13` over the
/// range exercised by GenClus (`x ≥ 1`).
///
/// # Panics
/// Panics in debug builds if `x <= 0` (the reflection formula is not needed
/// by any caller in this workspace).
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos is formulated for Γ(z + 1); shift accordingly.
    let z = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (z + i as f64);
    }
    let t = z + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + acc.ln()
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Applies the recurrence `ψ(x) = ψ(x + 1) − 1/x` until `x ≥ 10`, then an
/// eight-term asymptotic (Stirling) series.
pub fn digamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < RECURRENCE_TO {
        result -= 1.0 / x;
        x += 1.0;
    }
    result + digamma_series(x)
}

/// Trigamma function `ψ'(x) = d²/dx² ln Γ(x)` for `x > 0`.
///
/// Same scheme as [`digamma`]: recurrence `ψ'(x) = ψ'(x + 1) + 1/x²` until
/// `x ≥ 10`, then the asymptotic series.
pub fn trigamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < RECURRENCE_TO {
        let inv = 1.0 / x;
        result += inv * inv;
        x += 1.0;
    }
    result + trigamma_series(x)
}

/// `(ψ(x), ψ'(x))` in one pass: both recurrences step `x` alike, so they
/// share the loop and its reciprocals. Bit-identical to
/// `(digamma(x), trigamma(x))`.
pub fn digamma_trigamma(x: f64) -> (f64, f64) {
    debug_assert!(x > 0.0, "digamma_trigamma requires x > 0, got {x}");
    let mut x = x;
    let (mut psi, mut psi1) = (0.0, 0.0);
    while x < RECURRENCE_TO {
        let inv = 1.0 / x;
        psi -= inv;
        psi1 += inv * inv;
        x += 1.0;
    }
    (psi + digamma_series(x), psi1 + trigamma_series(x))
}

/// Where the recurrences hand over to the asymptotic series.
const RECURRENCE_TO: f64 = 10.0;

/// The asymptotic series of `ψ(x)` for `x ≥ 10`.
#[inline]
fn digamma_series(x: f64) -> f64 {
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ(x) ~ ln x − 1/(2x) − Σ B_{2n} / (2n x^{2n})
    x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2
                    * (1.0 / 120.0
                        - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
}

/// The asymptotic series of `ψ'(x)` for `x ≥ 10`.
#[inline]
fn trigamma_series(x: f64) -> f64 {
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ'(x) ~ 1/x + 1/(2x²) + Σ B_{2n} / x^{2n+1}
    // with B_2 = 1/6, B_4 = −1/30, B_6 = 1/42, B_8 = −1/30, B_10 = 5/66.
    inv * (1.0
        + inv
            * (0.5
                + inv
                    * (1.0 / 6.0
                        - inv2
                            * (1.0 / 30.0
                                - inv2
                                    * (1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * (5.0 / 66.0)))))))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let x = (n + 1) as f64;
            assert!(
                (ln_gamma(x) - f64::ln(f)).abs() < TOL,
                "ln_gamma({x}) = {} != ln({f})",
                ln_gamma(x)
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let expected = 0.5 * std::f64::consts::PI.ln();
        assert!((ln_gamma(0.5) - expected).abs() < TOL);
        // Γ(3/2) = √π / 2
        let expected = 0.5 * std::f64::consts::PI.ln() - std::f64::consts::LN_2;
        assert!((ln_gamma(1.5) - expected).abs() < TOL);
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni)
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        assert!((digamma(1.0) + EULER_GAMMA).abs() < TOL);
        // ψ(1/2) = −γ − 2 ln 2
        assert!((digamma(0.5) + EULER_GAMMA + 2.0 * std::f64::consts::LN_2).abs() < TOL);
        // ψ(2) = 1 − γ
        assert!((digamma(2.0) - (1.0 - EULER_GAMMA)).abs() < TOL);
    }

    #[test]
    fn trigamma_known_values() {
        // ψ'(1) = π²/6
        let expected = std::f64::consts::PI.powi(2) / 6.0;
        assert!((trigamma(1.0) - expected).abs() < TOL);
        // ψ'(1/2) = π²/2
        let expected = std::f64::consts::PI.powi(2) / 2.0;
        assert!((trigamma(0.5) - expected).abs() < TOL);
    }

    #[test]
    fn digamma_is_derivative_of_ln_gamma() {
        for &x in &[0.7, 1.3, 2.9, 5.5, 11.0, 53.7] {
            let h = 1e-6;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!(
                (digamma(x) - numeric).abs() < 1e-6,
                "digamma({x}) = {} vs numeric {numeric}",
                digamma(x)
            );
        }
    }

    #[test]
    fn trigamma_is_derivative_of_digamma() {
        for &x in &[0.7, 1.3, 2.9, 5.5, 11.0, 53.7] {
            let h = 1e-6;
            let numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
            assert!(
                (trigamma(x) - numeric).abs() < 1e-5,
                "trigamma({x}) = {} vs numeric {numeric}",
                trigamma(x)
            );
        }
    }

    #[test]
    fn fused_digamma_trigamma_is_bit_identical_to_the_separate_functions() {
        for &x in &[1e-3, 0.5, 1.0, 1.7, 6.0, 9.999, 10.0, 10.5, 123.4, 1e6] {
            let (psi, psi1) = digamma_trigamma(x);
            assert_eq!(psi.to_bits(), digamma(x).to_bits(), "ψ({x})");
            assert_eq!(psi1.to_bits(), trigamma(x).to_bits(), "ψ'({x})");
        }
    }

    #[test]
    fn trigamma_positive_and_decreasing() {
        let mut prev = f64::INFINITY;
        for i in 1..200 {
            let x = i as f64 * 0.25;
            let t = trigamma(x);
            assert!(t > 0.0, "trigamma({x}) = {t} must be positive");
            assert!(t < prev, "trigamma must decrease on (0, ∞)");
            prev = t;
        }
    }
}
