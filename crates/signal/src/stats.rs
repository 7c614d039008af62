//! Descriptive statistics over `f64` slices.
//!
//! All functions treat the input as a finite sample; none allocate except
//! [`histogram`]. Empty-input behavior is documented per function rather
//! than panicking, because detectors routinely probe empty windows at the
//! stream edges.

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

/// Sample variance (divides by `n − 1`), or `None` for fewer than two
/// samples.
#[must_use]
pub fn sample_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
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

/// Pooled population variance of two samples sharing an unknown common
/// variance, or `None` if both are empty.
#[must_use]
pub fn pooled_variance(a: &[f64], b: &[f64]) -> Option<f64> {
    let n = a.len() + b.len();
    if n == 0 {
        return None;
    }
    let all_mean_a = mean(a);
    let all_mean_b = mean(b);
    let ssq = |xs: &[f64], m: Option<f64>| -> f64 {
        m.map_or(0.0, |m| xs.iter().map(|x| (x - m).powi(2)).sum())
    };
    Some((ssq(a, all_mean_a) + ssq(b, all_mean_b)) / n as f64)
}

/// A fixed-width histogram over a closed range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<usize>,
    lo: f64,
    hi: f64,
}

impl Histogram {
    /// Returns the per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Returns the total number of counted samples.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Returns the `[lo, hi]` range the histogram covers.
    #[must_use]
    pub const fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// Builds a histogram of `xs` over `[lo, hi]` with `bins` equal-width bins.
///
/// Finite samples outside the range are clamped into the end bins; `hi`
/// itself lands in the last bin. Non-finite samples (NaN, ±∞) are
/// skipped, for the same reason as [`min`]/[`max`]: `(NaN - lo) / width`
/// is NaN, which fails the `< 0` test and then saturates to 0 under
/// `as usize`, so a poisoned sample would silently inflate bin 0.
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
#[must_use]
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Histogram {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram range must be non-degenerate");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        if let Some(idx) = bin_index(x, lo, width, bins) {
            counts[idx] += 1;
        }
    }
    Histogram { counts, lo, hi }
}

/// Maps a sample to its bin, clamping finite out-of-range values into the
/// end bins and rejecting non-finite ones.
fn bin_index(x: f64, lo: f64, width: f64, bins: usize) -> Option<usize> {
    if !x.is_finite() {
        return None;
    }
    let idx = ((x - lo) / width).floor();
    Some(if idx < 0.0 {
        0
    } else if idx as usize >= bins {
        bins - 1
    } else {
        idx as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, prop_assert_eq, props};

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
        // Sample variance of {1, 3} is 2.
        assert_eq!(sample_variance(&[1.0, 3.0]), Some(2.0));
        assert_eq!(sample_variance(&[1.0]), None);
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

    #[test]
    fn pooled_variance_matches_manual() {
        let a = [1.0, 3.0]; // mean 2, ssq 2
        let b = [10.0, 14.0]; // mean 12, ssq 8
        assert_eq!(pooled_variance(&a, &b), Some(10.0 / 4.0));
        assert_eq!(pooled_variance(&[], &[]), None);
        // One side empty degrades to the other's population variance.
        assert_eq!(pooled_variance(&a, &[]), variance(&a));
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = histogram(&[0.0, 0.9, 1.5, 5.0, -2.0, 7.0], 0.0, 5.0, 5);
        assert_eq!(h.counts(), &[3, 1, 0, 0, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    #[should_panic(expected = "bin")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[], 0.0, 1.0, 0);
    }

    #[test]
    fn histogram_skips_non_finite() {
        // Regression: `(NaN - lo) / width` is NaN, which fails the `< 0`
        // test and then saturates to 0 under `as usize`, so every NaN
        // sample was silently counted into bin 0. ±∞ likewise belongs in
        // no bin. Non-finite samples must be ignored, as in min/max.
        let h = histogram(
            &[f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5],
            0.0,
            5.0,
            5,
        );
        assert_eq!(h.counts(), &[1, 0, 0, 0, 0]);
        assert_eq!(h.total(), 1);
        let empty = histogram(&[f64::NAN], 0.0, 5.0, 5);
        assert_eq!(empty.total(), 0);
    }

    props! {
        #[test]
        fn variance_nonnegative(xs in vec_of(-100.0f64..100.0, 1..50)) {
            prop_assert!(variance(&xs).unwrap() >= 0.0);
        }

        #[test]
        fn histogram_total_counts_everything(xs in vec_of(-10.0f64..10.0, 0..100)) {
            let h = histogram(&xs, 0.0, 5.0, 10);
            prop_assert_eq!(h.total(), xs.len());
        }

        #[test]
        fn mean_bounded_by_min_max(xs in vec_of(-100.0f64..100.0, 1..50)) {
            let m = mean(&xs).unwrap();
            prop_assert!(m >= min(&xs).unwrap() - 1e-9);
            prop_assert!(m <= max(&xs).unwrap() + 1e-9);
        }
    }
}
