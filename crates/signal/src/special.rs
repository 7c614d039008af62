//! Special functions: `ln Γ` and the regularized incomplete beta
//! function, the Beta distribution's CDF.
//!
//! The implementations follow the classical Lanczos approximation and
//! the Lentz continued-fraction evaluation described in *Numerical
//! Recipes*, re-derived here without any external dependency.

/// Lanczos coefficients (g = 7, n = 9), good to ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)] // published constants, kept verbatim
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0` or `x` is not finite — the callers in this workspace
/// only ever need the positive real line, and a silent NaN would corrupt
/// reputation scores downstream.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(
        x.is_finite() && x > 0.0,
        "ln_gamma requires a positive finite argument, got {x}"
    );
    if x < 0.5 {
        // Reflection formula keeps the Lanczos series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]`.
///
/// `I_x(a, b)` is the CDF of the Beta(a, b) distribution at `x`.
///
/// # Panics
///
/// Panics if `a` or `b` is non-positive, or `x` lies outside `[0, 1]`.
#[must_use]
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must lie in [0, 1], got {x}");
    // lint:allow(float-eq): exact endpoint of the regularized incomplete beta's domain
    if x == 0.0 {
        return 0.0;
    }
    // lint:allow(float-eq): exact endpoint of the regularized incomplete beta's domain
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Evaluates the continued fraction for the incomplete beta function by the
/// modified Lentz method.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{prop_assert, props};

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let x = (n + 1) as f64;
            assert!(
                (ln_gamma(x) - f64::ln(f)).abs() < 1e-10,
                "ln_gamma({x}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // Beta(1, 1) is the uniform distribution: I_x(1,1) = x.
        for x in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert!((reg_inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a, b) = 1 − I_{1−x}(b, a)
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (5.0, 1.5, 0.7), (0.5, 0.5, 0.2)] {
            let lhs = reg_inc_beta(a, b, x);
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12, "symmetry failed at {a},{b},{x}");
        }
    }

    #[test]
    fn inc_beta_known_values() {
        // I_{0.5}(2, 2) = 0.5 by symmetry.
        assert!((reg_inc_beta(2.0, 2.0, 0.5) - 0.5).abs() < 1e-12);
        // Beta(2,1): CDF is x^2.
        assert!((reg_inc_beta(2.0, 1.0, 0.6) - 0.36).abs() < 1e-12);
        // Beta(1,2): CDF is 1-(1-x)^2.
        assert!((reg_inc_beta(1.0, 2.0, 0.6) - 0.84).abs() < 1e-12);
    }

    props! {
        #[test]
        fn inc_beta_is_monotone(a in 0.2f64..20.0, b in 0.2f64..20.0, x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(reg_inc_beta(a, b, lo) <= reg_inc_beta(a, b, hi) + 1e-12);
        }

        #[test]
        fn inc_beta_in_unit_interval(a in 0.2f64..30.0, b in 0.2f64..30.0, x in 0.0f64..1.0) {
            let v = reg_inc_beta(a, b, x);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        }
    }
}
