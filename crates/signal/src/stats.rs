//! Descriptive statistics over `f64` slices.
//!
//! All functions treat the input as a finite sample. Empty-input behavior
//! is documented per function rather than panicking, because detectors
//! routinely probe empty windows at the stream edges.

/// Arithmetic mean, or `None` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divides by `n`), or `None` for an empty slice.
///
/// The paper's GLRT (Eq. 1) models both window halves as i.i.d. Gaussian
/// with a shared variance estimated from the data; the maximum-likelihood
/// (population) estimator is the natural companion.
#[must_use]
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation, or `None` for an empty slice.
#[must_use]
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Minimum of the **finite** values in the slice, or `None` if the slice
/// is empty or holds no finite value.
///
/// Non-finite inputs (NaN, ±∞) are skipped rather than compared: under
/// `total_cmp` a NaN with the sign bit set sorts *below* every real
/// number, so a single poisoned sample would otherwise become the
/// minimum and silently skew every threshold derived from it.
#[must_use]
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| x.is_finite())
        .min_by(|a, b| a.total_cmp(b))
}

/// Maximum of the **finite** values in the slice, or `None` if the slice
/// is empty or holds no finite value. Non-finite inputs are skipped, for
/// the same reason as [`min`] (positive NaN sorts above +∞ under
/// `total_cmp`).
#[must_use]
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| x.is_finite())
        .max_by(|a, b| a.total_cmp(b))
}

/// Median via sorting a copy, or `None` if empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        Some(v[mid])
    } else {
        Some((v[mid - 1] + v[mid]) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, props};

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn variance_basic() {
        assert_eq!(variance(&[]), None);
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        // Population variance of {1, 3} is 1.
        assert_eq!(variance(&[1.0, 3.0]), Some(1.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[3.0, -1.0, 2.0]), Some(-1.0));
        assert_eq!(max(&[3.0, -1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn min_max_skip_non_finite() {
        // Regression: under plain `total_cmp`, -NaN sorted below every
        // real and +NaN above +∞, so one poisoned sample hijacked the
        // extremum. Non-finite values must be ignored instead.
        assert_eq!(max(&[1.0, f64::NAN]), Some(1.0));
        assert_eq!(min(&[f64::NAN, 1.0]), Some(1.0));
        assert_eq!(min(&[-f64::NAN, 2.0, 5.0]), Some(2.0));
        assert_eq!(max(&[2.0, f64::INFINITY]), Some(2.0));
        assert_eq!(min(&[f64::NEG_INFINITY, 2.0]), Some(2.0));
        assert_eq!(min(&[f64::NAN, f64::INFINITY]), None);
        assert_eq!(max(&[f64::NAN]), None);
    }

    props! {
        #[test]
        fn variance_nonnegative(xs in vec_of(-100.0f64..100.0, 1..50)) {
            prop_assert!(variance(&xs).unwrap() >= 0.0);
        }

        #[test]
        fn mean_bounded_by_min_max(xs in vec_of(-100.0f64..100.0, 1..50)) {
            let m = mean(&xs).unwrap();
            prop_assert!(m >= min(&xs).unwrap() - 1e-9);
            prop_assert!(m <= max(&xs).unwrap() + 1e-9);
        }
    }
}
