//! Indicator curves and their geometry: peaks, valleys, and U-shapes.
//!
//! Every detector in the paper produces a curve over time — the MC
//! indicator curve, the ARC curve, the HC curve, the model-error curve —
//! and then reasons about its shape: *peaks* locate change points,
//! adjacent peak pairs with a deep valley between them (*U-shapes*) frame
//! a suspicious interval, and peaks cut the rating stream into segments
//! for per-segment judgment.

use std::ops::Range;
use std::sync::Arc;

/// One sample of an indicator curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Index into the underlying rating (or day) stream.
    pub index: usize,
    /// Wall-clock time of the sample, in days.
    pub time: f64,
    /// Indicator value.
    pub value: f64,
}

/// A detected local maximum of a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Position of the peak within the curve's point list.
    pub position: usize,
    /// The peak sample itself.
    pub point: CurvePoint,
}

/// A U-shape: two peaks framing a valley, marking a suspicious interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UShape {
    /// The left framing peak.
    pub left: Peak,
    /// The right framing peak.
    pub right: Peak,
    /// The minimum curve value between the peaks.
    pub valley: f64,
}

impl UShape {
    /// The stream-index interval framed by the two peaks (inclusive of the
    /// left peak index, exclusive of the right).
    #[must_use]
    pub fn index_range(&self) -> Range<usize> {
        self.left.point.index..self.right.point.index
    }

    /// The time interval `[left peak, right peak]` in days.
    #[must_use]
    pub const fn time_range(&self) -> (f64, f64) {
        (self.left.point.time, self.right.point.time)
    }
}

/// An indicator curve: a sequence of samples ordered by stream index.
///
/// The samples sit behind an [`Arc`], so cloning a curve shares them.
/// The online detectors rely on this: they keep one buffer per detector
/// and hand each epoch's curve out as another reference to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Curve {
    points: Arc<Vec<CurvePoint>>,
}

impl Curve {
    /// Creates a curve from points.
    ///
    /// # Panics
    ///
    /// Panics if the points are not strictly increasing in `index` — a
    /// curve with duplicate or shuffled samples indicates a detector bug.
    #[must_use]
    pub fn new(points: Vec<CurvePoint>) -> Self {
        Curve::shared(Arc::new(points))
    }

    /// Creates a curve over a shared point buffer without copying it.
    ///
    /// Nothing can change the points while the curve holds its
    /// reference: an owner that appends to the buffer later goes through
    /// [`Arc::make_mut`], which copies while this curve still shares it.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as [`Curve::new`].
    #[must_use]
    pub fn shared(points: Arc<Vec<CurvePoint>>) -> Self {
        for pair in points.windows(2) {
            assert!(
                pair[0].index < pair[1].index,
                "curve points must be strictly increasing in index"
            );
        }
        Curve { points }
    }

    /// Returns the samples.
    #[must_use]
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Returns the number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the curve has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Finds local maxima with value at least `min_height`, keeping only
    /// peaks separated by at least `min_separation` positions (greedy by
    /// height).
    ///
    /// Plateaus count as a single peak at their first sample. The curve
    /// endpoints can be peaks if they dominate their single neighbor.
    #[must_use]
    pub fn find_peaks(&self, min_height: f64, min_separation: usize) -> Vec<Peak> {
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        let v = |i: usize| self.points[i].value;
        let mut candidates: Vec<Peak> = Vec::new();
        let mut i = 0;
        while i < n {
            // A sample below the bar cannot be a candidate, and neither
            // can the rest of its plateau (equal values), so step past it
            // without the plateau and neighbour tests. NaN on either side
            // compares false and takes the full test.
            if v(i) < min_height {
                i += 1;
                continue;
            }
            // Extend over a plateau.
            let mut j = i;
            while j + 1 < n && v(j + 1) == v(i) {
                j += 1;
            }
            let left_ok = i == 0 || v(i - 1) < v(i);
            let right_ok = j + 1 >= n || v(j + 1) < v(i);
            if left_ok && right_ok && v(i) >= min_height {
                candidates.push(Peak {
                    position: i,
                    point: self.points[i],
                });
            }
            i = j + 1;
        }
        // Greedy non-maximum suppression by height.
        candidates.sort_by(|a, b| b.point.value.total_cmp(&a.point.value));
        let mut kept: Vec<Peak> = Vec::new();
        for c in candidates {
            if kept
                .iter()
                .all(|k| k.position.abs_diff(c.position) >= min_separation)
            {
                kept.push(c);
            }
        }
        kept.sort_by_key(|p| p.position);
        kept
    }

    /// Finds U-shapes: consecutive pairs of `peaks` (as returned by
    /// [`Curve::find_peaks`]) whose valley dips below `valley_ratio`
    /// times the smaller framing peak.
    #[must_use]
    pub fn u_shapes_between(&self, peaks: &[Peak], valley_ratio: f64) -> Vec<UShape> {
        let mut out = Vec::new();
        for pair in peaks.windows(2) {
            let (l, r) = (pair[0], pair[1]);
            let valley = self.points[l.position..=r.position]
                .iter()
                .map(|p| p.value)
                .fold(f64::INFINITY, f64::min);
            let smaller_peak = l.point.value.min(r.point.value);
            if valley <= valley_ratio * smaller_peak {
                out.push(UShape {
                    left: l,
                    right: r,
                    valley,
                });
            }
        }
        out
    }

    /// Returns the stream indices of the given peaks, convenient for
    /// segmentation via [`rrs_core::stream::split_at_peaks`].
    #[must_use]
    pub fn peak_stream_indices(peaks: &[Peak]) -> Vec<usize> {
        peaks.iter().map(|p| p.point.index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::{RrsRng, Xoshiro256pp};
    use rrs_core::{prop_assert_eq, props};

    /// The peak scan before it stepped past samples below the bar: every
    /// plateau start takes the plateau and neighbour tests. Kept as the
    /// oracle for [`Curve::find_peaks`].
    fn find_peaks_reference(curve: &Curve, min_height: f64, min_separation: usize) -> Vec<Peak> {
        let points = curve.points();
        let n = points.len();
        let v = |i: usize| points[i].value;
        let mut candidates: Vec<Peak> = Vec::new();
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && v(j + 1) == v(i) {
                j += 1;
            }
            let left_ok = i == 0 || v(i - 1) < v(i);
            let right_ok = j + 1 >= n || v(j + 1) < v(i);
            if left_ok && right_ok && v(i) >= min_height {
                candidates.push(Peak {
                    position: i,
                    point: points[i],
                });
            }
            i = j + 1;
        }
        candidates.sort_by(|a, b| b.point.value.total_cmp(&a.point.value));
        let mut kept: Vec<Peak> = Vec::new();
        for c in candidates {
            if kept
                .iter()
                .all(|k| k.position.abs_diff(c.position) >= min_separation)
            {
                kept.push(c);
            }
        }
        kept.sort_by_key(|p| p.position);
        kept
    }

    /// Peaks as bit patterns, so NaN-free equality is not assumed.
    fn peak_bits(peaks: &[Peak]) -> Vec<(usize, usize, u64)> {
        peaks
            .iter()
            .map(|p| (p.position, p.point.index, p.point.value.to_bits()))
            .collect()
    }

    fn u_shape_bits(shapes: &[UShape]) -> Vec<(usize, usize, u64)> {
        shapes
            .iter()
            .map(|u| (u.left.position, u.right.position, u.valley.to_bits()))
            .collect()
    }

    props! {
        #![cases(512)]
        #[test]
        fn find_peaks_equals_the_full_scan(
            seed in 0u64..1_000_000,
            len in 0usize..48,
            threshold_pick in 0usize..9,
            min_separation in 1usize..5,
            valley_ratio in 0.0f64..1.2,
        ) {
            // A small alphabet makes plateaus and equal neighbours common;
            // NaN, ±0 and ±inf ride along.
            const ALPHABET: [f64; 10] = [
                0.0, -0.0, 1.0, 1.0, 2.0, 3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5,
            ];
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut index = 0usize;
            let points: Vec<CurvePoint> = (0..len)
                .map(|_| {
                    index += 1 + rng.gen_range(0..3usize);
                    let value = if rng.gen_range(0..4u32) == 0 {
                        rng.gen_range(-1.0..4.0)
                    } else {
                        ALPHABET[rng.gen_range(0..ALPHABET.len())]
                    };
                    CurvePoint {
                        index,
                        time: index as f64,
                        value,
                    }
                })
                .collect();
            let curve = Curve::new(points);
            let min_height = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                1.0,
                1.5,
                2.0,
                rng.gen_range(-1.0..4.0),
            ][threshold_pick];
            let peaks = curve.find_peaks(min_height, min_separation);
            let reference = find_peaks_reference(&curve, min_height, min_separation);
            prop_assert_eq!(peak_bits(&peaks), peak_bits(&reference));
            prop_assert_eq!(
                u_shape_bits(&curve.u_shapes_between(&peaks, valley_ratio)),
                u_shape_bits(&curve.u_shapes_between(&reference, valley_ratio))
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn shared_unsorted_points_panic() {
        let p = CurvePoint {
            index: 3,
            time: 0.0,
            value: 0.0,
        };
        let _ = Curve::shared(Arc::new(vec![p, p]));
    }

    fn curve_from(values: &[f64]) -> Curve {
        Curve::new(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| CurvePoint {
                    index: i,
                    time: i as f64,
                    value: v,
                })
                .collect(),
        )
    }

    #[test]
    fn empty_curve() {
        let c = Curve::default();
        assert!(c.is_empty());
        assert!(c.find_peaks(0.0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_points_panic() {
        let p = CurvePoint {
            index: 1,
            time: 0.0,
            value: 0.0,
        };
        let _ = Curve::new(vec![p, p]);
    }

    #[test]
    fn single_interior_peak() {
        let c = curve_from(&[0.0, 1.0, 5.0, 1.0, 0.0]);
        let peaks = c.find_peaks(0.5, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].position, 2);
        assert_eq!(peaks[0].point.value, 5.0);
    }

    #[test]
    fn endpoint_peaks_detected() {
        let c = curve_from(&[5.0, 1.0, 0.0, 1.0, 6.0]);
        let peaks = c.find_peaks(0.5, 1);
        let positions: Vec<usize> = peaks.iter().map(|p| p.position).collect();
        assert_eq!(positions, vec![0, 4]);
    }

    #[test]
    fn min_height_filters() {
        let c = curve_from(&[0.0, 1.0, 0.0, 3.0, 0.0]);
        let peaks = c.find_peaks(2.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].point.value, 3.0);
    }

    #[test]
    fn plateau_is_one_peak() {
        let c = curve_from(&[0.0, 2.0, 2.0, 2.0, 0.0]);
        let peaks = c.find_peaks(1.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].position, 1);
    }

    #[test]
    fn separation_suppresses_lesser_peak() {
        let c = curve_from(&[0.0, 4.0, 1.0, 3.0, 0.0]);
        // With separation 3, only the taller peak at 1 survives.
        let peaks = c.find_peaks(0.5, 3);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].position, 1);
        // With separation 1, both survive.
        assert_eq!(c.find_peaks(0.5, 1).len(), 2);
    }

    #[test]
    fn u_shape_between_two_peaks() {
        let c = curve_from(&[0.0, 5.0, 0.5, 0.2, 0.5, 6.0, 0.0]);
        let us = c.u_shapes_between(&c.find_peaks(1.0, 1), 0.5);
        assert_eq!(us.len(), 1);
        let u = us[0];
        assert_eq!(u.left.position, 1);
        assert_eq!(u.right.position, 5);
        assert_eq!(u.valley, 0.2);
        assert_eq!(u.index_range(), 1..5);
        assert_eq!(u.time_range(), (1.0, 5.0));
    }

    #[test]
    fn shallow_valley_is_not_a_u_shape() {
        let c = curve_from(&[0.0, 5.0, 4.8, 5.0, 0.0]);
        let us = c.u_shapes_between(&c.find_peaks(1.0, 1), 0.5);
        assert!(us.is_empty());
    }

    #[test]
    fn peak_stream_indices_extracts() {
        let c = curve_from(&[0.0, 5.0, 0.0, 5.0, 0.0]);
        let peaks = c.find_peaks(1.0, 1);
        assert_eq!(Curve::peak_stream_indices(&peaks), vec![1, 3]);
    }
}
