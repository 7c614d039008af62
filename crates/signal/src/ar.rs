//! Autoregressive (AR) modeling by the covariance method.
//!
//! The signal-model-change detector of the paper (Section IV-E, following
//! Yang et al. 2007) fits an AR model to the ratings in a window and
//! examines the prediction error: honest ratings behave like white noise
//! around the product quality (high error), while collaborative unfair
//! ratings introduce structure an AR model can lock onto (low error).
//!
//! The covariance method (Hayes, *Statistical DSP and Modeling*) minimizes
//! the forward-prediction error over the window without windowing the data,
//! solving the normal equations
//!
//! `Σ_k w_k c(j,k) = c(j,0)`, `j = 1..p`,
//!
//! with `c(j,k) = Σ_{n=p}^{N−1} x[n−j]·x[n−k]`.

use crate::linalg::Matrix;
use crate::stats;
use std::error::Error;
use std::fmt;

/// Errors from AR fitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArError {
    /// The window holds too few samples for the requested order.
    TooShort {
        /// Minimum number of samples needed.
        needed: usize,
        /// Number of samples provided.
        got: usize,
    },
    /// The normal equations were singular (e.g. a constant signal).
    Singular,
    /// A zero model order was requested.
    ZeroOrder,
}

impl fmt::Display for ArError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArError::TooShort { needed, got } => {
                write!(
                    f,
                    "window of {got} samples is too short for AR fit (need {needed})"
                )
            }
            ArError::Singular => write!(f, "normal equations are singular"),
            ArError::ZeroOrder => write!(f, "model order must be at least 1"),
        }
    }
}

impl Error for ArError {}

/// A fitted AR model and its prediction-error diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ArModel {
    coeffs: Vec<f64>,
    normalized_error: f64,
}

impl ArModel {
    /// Returns the prediction coefficients `w_1..w_p` (the model predicts
    /// `x̂[n] = Σ w_k·x[n−k]` on mean-removed data).
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Returns the model order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns the prediction error normalized by the window variance.
    ///
    /// This is the scale-free "model error" the ME detector thresholds:
    /// ≈ 1 for white noise (honest ratings), ≪ 1 for structured signals
    /// (collusion), and defined as 0 for a constant window — a run of
    /// identical values is maximally predictable.
    #[must_use]
    pub const fn normalized_error(&self) -> f64 {
        self.normalized_error
    }
}

/// Fits an AR model of order `order` to `x` by the covariance method.
///
/// The window mean is removed before fitting so that the DC level of the
/// ratings (≈ 4 for popular products) does not masquerade as signal
/// structure.
///
/// # Errors
///
/// * [`ArError::ZeroOrder`] if `order == 0`.
/// * [`ArError::TooShort`] if `x.len() < 2·order + 2`.
/// * [`ArError::Singular`] if the normal equations cannot be solved.
pub fn fit_ar(x: &[f64], order: usize) -> Result<ArModel, ArError> {
    if order == 0 {
        return Err(ArError::ZeroOrder);
    }
    let needed = 2 * order + 2;
    if x.len() < needed {
        return Err(ArError::TooShort {
            needed,
            got: x.len(),
        });
    }
    let mean = stats::mean(x).expect("length checked above");
    let var = stats::variance(x).expect("length checked above");
    let xs: Vec<f64> = x.iter().map(|v| v - mean).collect();

    // A (numerically) constant window is perfectly predictable; report it
    // as such instead of failing on singular equations.
    if var < 1e-12 {
        return Ok(ArModel {
            coeffs: vec![0.0; order],
            normalized_error: 0.0,
        });
    }

    let n = xs.len();
    let p = order;
    // c(j, k) = sum_{t=p}^{n-1} xs[t-j] * xs[t-k]. Each entry is one
    // bounds-check-free zip pass in ascending t — the same additions in
    // the same order as the naive indexed loop, so every value is
    // bit-identical to it; c is symmetric (multiplication commutes), so
    // only the upper triangle is computed.
    let m = p + 1;
    let mut lagged = vec![0.0f64; m * m];
    for j in 0..m {
        for k in j..m {
            lagged[j * m + k] = xs[p - j..n - j]
                .iter()
                .zip(&xs[p - k..n - k])
                .map(|(a, b)| a * b)
                .sum();
        }
    }
    let c = |j: usize, k: usize| -> f64 {
        if j <= k {
            lagged[j * m + k]
        } else {
            lagged[k * m + j]
        }
    };
    // Ridge term: a signal that satisfies an exact lower-order recurrence
    // (e.g. a pure sinusoid is exactly AR(2)) makes the order-p normal
    // equations rank-deficient; a tiny diagonal load keeps them solvable
    // without measurably biasing the error estimate.
    let ridge = 1e-9 * c(0, 0).max(f64::MIN_POSITIVE);
    let mut matrix = Matrix::zeros(p);
    for j in 1..=p {
        for k in 1..=p {
            matrix[(j - 1, k - 1)] = c(j, k) + if j == k { ridge } else { 0.0 };
        }
    }
    let rhs: Vec<f64> = (1..=p).map(|j| c(j, 0)).collect();
    let coeffs = matrix.solve(&rhs).map_err(|_| ArError::Singular)?;

    // Residual energy: c(0,0) − Σ w_k c(0,k).
    let residual: f64 = c(0, 0)
        - coeffs
            .iter()
            .enumerate()
            .map(|(i, w)| w * c(0, i + 1))
            .sum::<f64>();
    let mse = (residual / (n - p) as f64).max(0.0);
    Ok(ArModel {
        normalized_error: (mse / var).max(0.0),
        coeffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| 4.0 + rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn zero_order_rejected() {
        assert_eq!(fit_ar(&[1.0; 10], 0), Err(ArError::ZeroOrder));
    }

    #[test]
    fn too_short_rejected() {
        let e = fit_ar(&[1.0; 5], 4).unwrap_err();
        assert!(matches!(e, ArError::TooShort { needed: 10, got: 5 }));
    }

    #[test]
    fn constant_signal_is_perfectly_predictable() {
        let m = fit_ar(&[3.0; 40], 4).unwrap();
        assert_eq!(m.normalized_error(), 0.0);
        assert_eq!(m.order(), 4);
    }

    #[test]
    fn white_noise_has_high_normalized_error() {
        let x = white_noise(200, 42);
        let m = fit_ar(&x, 4).unwrap();
        assert!(
            m.normalized_error() > 0.7,
            "white noise should be unpredictable, got {}",
            m.normalized_error()
        );
    }

    #[test]
    fn strong_ar1_signal_has_low_normalized_error() {
        // x[n] = 0.95 x[n-1] + small noise: highly predictable.
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut x = vec![0.0f64; 300];
        for i in 1..300 {
            x[i] = 0.95 * x[i - 1] + 0.05 * rng.gen_range(-1.0..1.0);
        }
        let m = fit_ar(&x, 4).unwrap();
        assert!(
            m.normalized_error() < 0.3,
            "AR(1) signal should be predictable, got {}",
            m.normalized_error()
        );
        // First coefficient should be near 0.95.
        assert!((m.coeffs()[0] - 0.95).abs() < 0.3);
    }

    #[test]
    fn sinusoid_is_predictable() {
        let x: Vec<f64> = (0..100).map(|i| 4.0 + (f64::from(i) * 0.3).sin()).collect();
        let m = fit_ar(&x, 4).unwrap();
        assert!(m.normalized_error() < 0.05, "got {}", m.normalized_error());
    }

    #[test]
    fn collusion_block_lowers_error_vs_pure_noise() {
        // Fair noise with an embedded run of identical unfair values: the
        // window is more predictable than pure noise.
        let mut x = white_noise(60, 3);
        for v in x.iter_mut().skip(20).take(20) {
            *v = 1.0;
        }
        let noise_err = fit_ar(&white_noise(60, 4), 4).unwrap().normalized_error();
        let attack_err = fit_ar(&x, 4).unwrap().normalized_error();
        assert!(
            attack_err < noise_err,
            "attack window {attack_err} should be more predictable than noise {noise_err}"
        );
    }

    #[test]
    fn mean_shift_does_not_change_error() {
        let x = white_noise(120, 11);
        let shifted: Vec<f64> = x.iter().map(|v| v + 100.0).collect();
        let a = fit_ar(&x, 3).unwrap().normalized_error();
        let b = fit_ar(&shifted, 3).unwrap().normalized_error();
        assert!((a - b).abs() < 1e-6);
    }
}
