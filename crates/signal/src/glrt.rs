//! Generalized likelihood ratio tests used by the detectors.
//!
//! The Poisson arrival-rate change test of the paper (Section IV-C,
//! Eq. 5): daily rating counts are Poisson; the statistic is
//! `(a/2D)·Ȳ₁ ln Ȳ₁ + (b/2D)·Ȳ₂ ln Ȳ₂ − Ȳ ln Ȳ`. The Gaussian
//! mean-change test of Eq. 1 is computed by the MC detector itself
//! (`rrs_detectors::mc`), from prefix sums over a product's value column.

/// `x ln x`, continuously extended with `0 ln 0 = 0`.
fn xlnx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

/// The Poisson arrival-rate-change GLRT statistic (paper Eq. 5).
///
/// `y1` and `y2` are daily rating counts left and right of the candidate
/// change day. Returns the left-hand side of Eq. 5:
///
/// `(a / 2D)·Ȳ₁ ln Ȳ₁ + (b / 2D)·Ȳ₂ ln Ȳ₂ − Ȳ ln Ȳ`
///
/// where `a = |y1|`, `b = |y2|`, `2D = a + b`, and `Ȳ` is the overall
/// mean. The statistic is non-negative (it is a scaled KL divergence
/// between the split model and the pooled model) and zero when both rates
/// agree. Returns `None` if either side is empty.
#[must_use]
pub fn arrival_rate_glrt(y1: &[u32], y2: &[u32]) -> Option<f64> {
    let sum1: f64 = y1.iter().map(|&v| f64::from(v)).sum();
    let sum2: f64 = y2.iter().map(|&v| f64::from(v)).sum();
    arrival_rate_glrt_from_sums(y1.len() as f64, sum1, y2.len() as f64, sum2)
}

/// [`arrival_rate_glrt`] evaluated from precomputed window lengths and
/// count sums.
///
/// Daily counts are integers, so a left-to-right `f64` sum of a count
/// window is exact as long as it stays below 2⁵³; a prefix-sum difference
/// therefore reproduces the slice sum bit for bit. This is what lets the
/// online ARC path evaluate each curve point in O(1) from a prefix-sum
/// table while remaining bit-identical to the batch slice-based oracle.
///
/// Returns `None` if either window is empty (`a <= 0` or `b <= 0`),
/// matching the empty-slice behavior of [`arrival_rate_glrt`].
#[must_use]
pub fn arrival_rate_glrt_from_sums(a: f64, sum1: f64, b: f64, sum2: f64) -> Option<f64> {
    if a <= 0.0 || b <= 0.0 {
        return None;
    }
    let mean1 = sum1 / a;
    let mean2 = sum2 / b;
    let total = a + b;
    let mean_all = (sum1 + sum2) / total;
    Some((a / total) * xlnx(mean1) + (b / total) * xlnx(mean2) - xlnx(mean_all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, props};

    #[test]
    fn arrival_rate_zero_when_rates_equal() {
        let y = [3u32; 10];
        let v = arrival_rate_glrt(&y, &y).unwrap();
        assert!(v.abs() < 1e-12);
    }

    #[test]
    fn arrival_rate_positive_on_change() {
        let y1 = [2u32; 15];
        let y2 = [10u32; 15];
        let v = arrival_rate_glrt(&y1, &y2).unwrap();
        assert!(v > 0.5, "expected a clear detection, got {v}");
    }

    #[test]
    fn arrival_rate_handles_zero_counts() {
        let y1 = [0u32; 10];
        let y2 = [5u32; 10];
        let v = arrival_rate_glrt(&y1, &y2).unwrap();
        assert!(v.is_finite());
        assert!(v > 0.0);
    }

    #[test]
    fn arrival_rate_empty_side_is_none() {
        assert_eq!(arrival_rate_glrt(&[], &[1]), None);
        assert_eq!(arrival_rate_glrt(&[1], &[]), None);
    }

    #[test]
    fn arrival_rate_matches_hand_computation() {
        // a = b = 2, means 1 and 3, overall 2.
        // stat = 0.5*1*ln1 + 0.5*3*ln3 - 2*ln2
        let y1 = [1u32, 1];
        let y2 = [3u32, 3];
        let expected = 0.5 * 3.0 * 3.0f64.ln() - 2.0 * 2.0f64.ln();
        let v = arrival_rate_glrt(&y1, &y2).unwrap();
        assert!((v - expected).abs() < 1e-12);
    }

    props! {
        #[test]
        fn arrival_rate_nonnegative(
            y1 in vec_of(0u32..20, 1..30),
            y2 in vec_of(0u32..20, 1..30),
        ) {
            prop_assert!(arrival_rate_glrt(&y1, &y2).unwrap() >= -1e-12);
        }

        #[test]
        fn arrival_rate_from_prefix_sums_is_bitwise_identical(
            counts in vec_of(0u32..5000, 2..60),
            split_num in 1u32..100,
        ) {
            // Window sums recovered as prefix-sum differences must give the
            // exact statistic the slice-based form computes: count sums are
            // integers below 2^53, so both paths see identical f64 sums.
            let split = 1 + (split_num as usize) % (counts.len() - 1);
            let mut prefix = vec![0u64; counts.len() + 1];
            for (i, &c) in counts.iter().enumerate() {
                prefix[i + 1] = prefix[i] + u64::from(c);
            }
            let (y1, y2) = counts.split_at(split);
            let slow = arrival_rate_glrt(y1, y2).unwrap();
            let sum1 = (prefix[split] - prefix[0]) as f64;
            let sum2 = (prefix[counts.len()] - prefix[split]) as f64;
            let fast = arrival_rate_glrt_from_sums(
                y1.len() as f64, sum1, y2.len() as f64, sum2,
            ).unwrap();
            prop_assert!(
                fast.to_bits() == slow.to_bits(),
                "prefix-sum GLRT diverged: {fast} vs {slow}"
            );
        }
    }
}
