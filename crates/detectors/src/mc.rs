//! The mean-change (MC) detector (paper Section IV-B).
//!
//! A sliding two-sided window computes the GLRT indicator
//! `MC(k) = W·(Â₁ − Â₂)²` at every rating. Peaks of the indicator curve
//! locate candidate change points; the stream is cut at the peaks and each
//! segment's mean is compared against the overall mean. A segment is
//! MC-suspicious when the deviation is large outright, or moderate *and*
//! contributed by raters whose average trust falls below the population's
//! (the paper's two-threshold rule).

use crate::suspicion::{SuspicionKind, SuspiciousInterval};
use rrs_core::stream::split_at_peaks;
use rrs_core::{RaterId, TimeWindow, TimelineView, Timestamp};
use rrs_signal::curve::{Curve, CurvePoint, Peak, UShape};
use std::ops::Range;

/// Half-width of the sliding window in days (paper: 30-day window,
/// i.e. 15 days per half).
pub(crate) const HALF_WINDOW_DAYS: f64 = 15.0;
/// Minimum ratings required in each half for a test to run.
pub(crate) const MIN_HALF_RATINGS: usize = 4;
/// Minimum curve-sample separation between retained peaks.
pub(crate) const PEAK_SEPARATION: usize = 8;
/// Valley-to-peak ratio below which two peaks frame a U-shape.
pub(crate) const VALLEY_RATIO: f64 = 0.5;
/// `threshold1`: a segment mean deviating this much from the overall
/// mean is suspicious outright (rating units).
pub(crate) const THRESHOLD1: f64 = 0.8;
/// `threshold2 < threshold1`: a moderate deviation is suspicious when
/// the segment's raters are comparatively untrusted.
pub(crate) const THRESHOLD2: f64 = 0.35;
/// A segment is "less trustworthy" when its average rater trust over
/// the stream average falls below this ratio.
pub(crate) const TRUST_RATIO: f64 = 0.95;

/// Configuration of the MC detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// GLRT decision factor γ: the peak threshold is `γ · 2σ̂²` where σ̂²
    /// is the stream's value variance, so peaks correspond to
    /// `2 ln L_G(x) > γ` (paper Eq. 1).
    pub glrt_gamma: f64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { glrt_gamma: 8.0 }
    }
}

/// One segment of the stream between MC peaks, with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct McSegment {
    /// Rating-index range of the segment.
    pub index_range: Range<usize>,
    /// Time window covered by the segment.
    pub window: TimeWindow,
    /// Segment mean `B_j`.
    pub mean: f64,
    /// `|B_j − B_avg|`.
    pub mean_deviation: f64,
    /// Average trust of the raters in the segment.
    pub avg_trust: f64,
    /// Whether the segment was flagged MC-suspicious.
    pub flagged: bool,
}

/// The full output of the MC detector on one product.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct McOutcome {
    /// The MC indicator curve.
    pub curve: Curve,
    /// Retained peaks of the curve.
    pub peaks: Vec<Peak>,
    /// U-shapes (peak pairs framing a valley).
    pub u_shapes: Vec<UShape>,
    /// Per-segment verdicts.
    pub segments: Vec<McSegment>,
    /// Flagged segments as suspicious intervals.
    pub suspicious: Vec<SuspiciousInterval>,
}

impl McOutcome {
    /// Returns `true` if any segment was flagged.
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        !self.suspicious.is_empty()
    }
}

/// Computes the MC indicator point at rating `k`: `X₁` spans the ratings
/// in `[t_k − h, t_k)` and `X₂` spans `[t_k, t_k + h)`. Returns `None`
/// when either half holds fewer than [`MIN_HALF_RATINGS`] ratings.
///
/// The point is *final* once the horizon has passed `t_k + h`: every
/// later arrival carries a time at or beyond the horizon end, so both
/// `partition_point` results and the prefix-sum differences are frozen.
/// The online path caches settled points on exactly this argument.
pub(crate) fn indicator_point(times: &[f64], prefix: &[f64], k: usize) -> Option<CurvePoint> {
    let t = times[k];
    let lo = times.partition_point(|&x| x < t - HALF_WINDOW_DAYS);
    let hi = times.partition_point(|&x| x < t + HALF_WINDOW_DAYS);
    indicator_point_with_bounds(times, prefix, k, lo, hi)
}

/// [`indicator_point`] with the window bounds already resolved: `lo` and
/// `hi` must equal the two `partition_point` results above. The bounds
/// are integers, so any method that produces the same indices — the
/// online path advances them as monotone two-pointers across a scan —
/// yields a bit-identical point.
pub(crate) fn indicator_point_with_bounds(
    times: &[f64],
    prefix: &[f64],
    k: usize,
    lo: usize,
    hi: usize,
) -> Option<CurvePoint> {
    let t = times[k];
    let left = lo..k;
    let right = k..hi;
    if left.len() < MIN_HALF_RATINGS || right.len() < MIN_HALF_RATINGS {
        return None;
    }
    let a1 = (prefix[left.end] - prefix[left.start]) / left.len() as f64;
    let a2 = (prefix[right.end] - prefix[right.start]) / right.len() as f64;
    let n1 = left.len() as f64;
    let n2 = right.len() as f64;
    let w_eff = 2.0 * n1 * n2 / (n1 + n2);
    Some(CurvePoint {
        index: k,
        time: t,
        value: w_eff * (a1 - a2).powi(2),
    })
}

/// Runs the MC detector over one product's timeline.
///
/// `trust` supplies the current trust value of each rater (use
/// `|_| 0.5` when no trust information exists yet).
#[must_use]
pub fn detect<F>(timeline: TimelineView<'_>, config: &McConfig, trust: F) -> McOutcome
where
    F: Fn(RaterId) -> f64,
{
    let trust = trust_column(timeline, trust);
    detect_with_trust(timeline, config, &trust)
}

/// The per-rating trust column of a timeline, one `trust` call per
/// rating: `column[i]` is the trust of `timeline.rater_at(i)`. This is
/// the batch path's form of what the online path resolves once per
/// rater.
pub(crate) fn trust_column<F>(timeline: TimelineView<'_>, trust: F) -> Vec<f64>
where
    F: Fn(RaterId) -> f64,
{
    (0..timeline.len())
        .map(|i| trust(timeline.rater_at(i)))
        .collect()
}

/// [`detect`] with the trust column already resolved (see
/// [`trust_column`]).
pub(crate) fn detect_with_trust(
    timeline: TimelineView<'_>,
    config: &McConfig,
    trust: &[f64],
) -> McOutcome {
    let n = timeline.len();
    if n < 2 * MIN_HALF_RATINGS {
        return McOutcome::default();
    }
    // Contiguous column walks on the columnar engine.
    let values = timeline.values();
    let times: Vec<f64> = timeline.times().iter().map(|t| t.as_days()).collect();

    // Prefix sums make every windowed mean O(1).
    let mut prefix = vec![0.0f64; n + 1];
    for (i, &v) in values.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }

    // Indicator curve: for rating k, X1 = ratings in [t_k − h, t_k),
    // X2 = [t_k, t_k + h).
    let signal_span = rrs_obs::trace::span("signal.mc");
    let mut points = Vec::with_capacity(n);
    for k in 0..n {
        if let Some(p) = indicator_point(&times, &prefix, k) {
            points.push(p);
        }
    }
    let curve = Curve::new(points);

    let sigma2 = rrs_signal::stats::variance(values).unwrap_or(0.0).max(1e-6);
    let peak_threshold = config.glrt_gamma * 2.0 * sigma2;
    let peaks = curve.find_peaks(peak_threshold, PEAK_SEPARATION);
    let u_shapes = curve.u_shapes_between(&peaks, VALLEY_RATIO);
    drop(signal_span);

    let overall_mean = rrs_signal::stats::median(values).expect("n > 0");
    judge_segments(&times, &prefix, curve, peaks, u_shapes, overall_mean, trust)
}

/// Segments the stream at the peaks and judges each segment — shared
/// verbatim by the batch and online paths so their verdicts are
/// bit-identical. `overall_mean` is the stream's reference level (the
/// *median* rating value; see the comment inside on why not the mean).
/// `trust[i]` is the trust of the stream's `i`-th rater.
pub(crate) fn judge_segments(
    times: &[f64],
    prefix: &[f64],
    curve: Curve,
    peaks: Vec<Peak>,
    u_shapes: Vec<UShape>,
    overall_mean: f64,
    trust: &[f64],
) -> McOutcome {
    let _detect_span = rrs_obs::trace::span("detect.mc");
    let n = times.len();
    let range_mean = |r: Range<usize>| -> Option<f64> {
        if r.is_empty() {
            None
        } else {
            Some((prefix[r.end] - prefix[r.start]) / r.len() as f64)
        }
    };

    // Segment the stream at the peaks and judge each segment. The
    // reference level `B_avg` is the *median* rating value rather than
    // the mean: a long attack drags the mean toward itself, which would
    // make the fair segments look deviant and the attacked segment look
    // normal (the reference the paper uses is safe only while unfair
    // ratings are a small minority of the stream).
    let peak_indices = Curve::peak_stream_indices(&peaks);
    let overall_trust: f64 = trust.iter().sum::<f64>() / n as f64;

    let mut segments = Vec::new();
    let mut suspicious = Vec::new();
    let end_time = Timestamp::saturating(times[n - 1] + 1e-9);
    for index_range in split_at_peaks(n, &peak_indices) {
        let mean = range_mean(index_range.clone()).expect("segments are non-empty");
        let mean_deviation = (mean - overall_mean).abs();
        let avg_trust: f64 =
            trust[index_range.clone()].iter().sum::<f64>() / index_range.len() as f64;
        let less_trusted = overall_trust > 0.0 && avg_trust / overall_trust < TRUST_RATIO;
        let flagged = mean_deviation > THRESHOLD1 || (mean_deviation > THRESHOLD2 && less_trusted);
        let start = Timestamp::saturating(times[index_range.start]);
        let end = if index_range.end < n {
            Timestamp::saturating(times[index_range.end])
        } else {
            end_time
        };
        let window = TimeWindow::ordered(start, end);
        if flagged {
            suspicious.push(SuspiciousInterval::new(
                window,
                SuspicionKind::MeanChange,
                mean_deviation,
            ));
        }
        segments.push(McSegment {
            index_range,
            window,
            mean,
            mean_deviation,
            avg_trust,
            flagged,
        });
    }

    McOutcome {
        curve,
        peaks,
        u_shapes,
        segments,
        suspicious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{ProductId, Rating, RatingDataset, RatingSource, RatingValue};

    /// Fair stream: `per_day` ratings/day for `days` days at mean 4.0 ± noise.
    fn fair_timeline(days: usize, per_day: usize, seed: u64) -> RatingDataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut d = RatingDataset::new();
        let mut rater = 0u32;
        for day in 0..days {
            for slot in 0..per_day {
                let t = day as f64 + slot as f64 / per_day as f64;
                let v = (4.0 + rng.gen_range(-0.8f64..0.8)).clamp(0.0, 5.0);
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        Timestamp::new(t).unwrap(),
                        RatingValue::new_clamped(v),
                    ),
                    RatingSource::Fair,
                );
                rater += 1;
            }
        }
        d
    }

    fn with_attack(
        mut d: RatingDataset,
        from: f64,
        to: f64,
        per_day: usize,
        value: f64,
    ) -> RatingDataset {
        let mut rater = 10_000u32;
        let mut day = from;
        while day < to {
            for slot in 0..per_day {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        Timestamp::new(day + slot as f64 / per_day as f64).unwrap(),
                        RatingValue::new_clamped(value),
                    ),
                    RatingSource::Unfair,
                );
                rater += 1;
            }
            day += 1.0;
        }
        d
    }

    fn timeline(d: &RatingDataset) -> TimelineView<'_> {
        d.product(ProductId::new(0)).unwrap()
    }

    #[test]
    fn empty_stream_yields_default() {
        let d = fair_timeline(1, 1, 1);
        let empty = timeline(&d).in_window(TimeWindow::ordered(
            Timestamp::new(5.0).unwrap(),
            Timestamp::new(6.0).unwrap(),
        ));
        let out = detect(empty, &McConfig::default(), |_| 0.5);
        assert!(out.curve.is_empty());
        assert!(!out.is_suspicious());
    }

    #[test]
    fn fair_stream_not_flagged() {
        let d = fair_timeline(90, 4, 1);
        let out = detect(timeline(&d), &McConfig::default(), |_| 0.5);
        assert!(
            !out.is_suspicious(),
            "fair data flagged: {:?}",
            out.suspicious
        );
    }

    #[test]
    fn strong_downgrade_attack_is_flagged() {
        let d = fair_timeline(90, 4, 2);
        let d = with_attack(d, 40.0, 55.0, 4, 0.5);
        let out = detect(timeline(&d), &McConfig::default(), |_| 0.5);
        assert!(out.is_suspicious(), "attack not flagged");
        // The flagged interval should overlap the attack window.
        let attack =
            TimeWindow::new(Timestamp::new(40.0).unwrap(), Timestamp::new(55.0).unwrap()).unwrap();
        assert!(
            out.suspicious.iter().any(|s| s.overlaps(attack)),
            "flagged intervals {:?} miss the attack",
            out.suspicious
        );
    }

    #[test]
    fn strong_attack_produces_u_shape() {
        let d = fair_timeline(90, 4, 3);
        let d = with_attack(d, 40.0, 55.0, 6, 0.5);
        let out = detect(timeline(&d), &McConfig::default(), |_| 0.5);
        assert!(
            !out.u_shapes.is_empty(),
            "expected a U-shape framing the attack; peaks: {:?}",
            out.peaks.len()
        );
        // The indicator dips to ~0 at the attack midpoint (both window
        // halves see the same fair/unfair mix), so the U-shape's peaks sit
        // just inside the attack boundaries and frame its center.
        let (lo, hi) = out.u_shapes[0].time_range();
        assert!(
            lo >= 35.0 && hi <= 60.0 && lo < 47.5 && hi > 47.5,
            "u-shape [{lo}, {hi}] does not frame the attack center"
        );
    }

    #[test]
    fn moderate_attack_flagged_only_with_low_trust() {
        // A moderate shift: the attacked segments deviate from the
        // median by more than THRESHOLD2 but less than THRESHOLD1.
        let d = fair_timeline(90, 4, 4);
        let d = with_attack(d, 40.0, 55.0, 4, 2.6);
        let cfg = McConfig::default();
        // With neutral trust everywhere, nothing can satisfy the
        // trust-ratio condition.
        let neutral = detect(timeline(&d), &cfg, |_| 0.5);
        assert!(!neutral.is_suspicious());
        // With attackers (rater ids >= 10_000) at low trust, the moderate
        // deviation becomes suspicious.
        let informed = detect(timeline(&d), &cfg, |r| {
            if r.value() >= 10_000 {
                0.1
            } else {
                0.9
            }
        });
        assert!(informed.is_suspicious(), "trust-assisted rule never fired");
        for segment in informed.segments.iter().filter(|s| s.flagged) {
            assert!(
                segment.mean_deviation > THRESHOLD2 && segment.mean_deviation < THRESHOLD1,
                "deviation {} is not moderate",
                segment.mean_deviation
            );
        }
    }

    #[test]
    fn segments_partition_stream() {
        let d = fair_timeline(60, 3, 5);
        let out = detect(timeline(&d), &McConfig::default(), |_| 0.5);
        let n = timeline(&d).len();
        assert_eq!(out.segments.first().unwrap().index_range.start, 0);
        assert_eq!(out.segments.last().unwrap().index_range.end, n);
        for pair in out.segments.windows(2) {
            assert_eq!(pair[0].index_range.end, pair[1].index_range.start);
        }
    }

    #[test]
    fn short_stream_is_silent() {
        let d = fair_timeline(2, 1, 6);
        let out = detect(timeline(&d), &McConfig::default(), |_| 0.5);
        assert!(out.curve.is_empty());
        assert!(out.peaks.is_empty());
    }
}
