//! The arrival-rate-change (ARC) detector and its H-ARC / L-ARC variants
//! (paper Section IV-C).
//!
//! Daily rating counts `y(n)` are modeled as Poisson; a GLRT over a
//! sliding `2D`-day window produces the ARC curve. Peaks cut the day axis
//! into segments, and a segment whose arrival rate *increased* over its
//! predecessor by more than a threshold is ARC-suspicious.
//!
//! Practical rating data rarely shows the full-stream rate change the
//! plain detector wants, so the paper adds H-ARC (count only ratings above
//! `threshold_a`) and L-ARC (below `threshold_b`): an unfair-rating burst
//! concentrates in one value band even when the total arrival rate barely
//! moves.

use crate::suspicion::{SuspicionKind, SuspiciousInterval};
use rrs_core::stream::split_at_peaks;
use rrs_core::{TimeWindow, TimelineView, Timestamp};
use rrs_signal::curve::{Curve, CurvePoint, Peak, UShape};
use rrs_signal::glrt::{arrival_rate_glrt, arrival_rate_glrt_from_sums};
use std::ops::Range;

/// Which value band the detector counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArcVariant {
    /// Count every rating (plain ARC).
    All,
    /// Count ratings with value above `threshold_a` (H-ARC).
    High,
    /// Count ratings with value below `threshold_b` (L-ARC).
    Low,
}

impl ArcVariant {
    /// The suspicion kind this variant reports.
    #[must_use]
    pub const fn kind(self) -> SuspicionKind {
        match self {
            // Plain ARC reports as "high" — an overall rate surge is the
            // classic ballot-stuffing signature.
            ArcVariant::All | ArcVariant::High => SuspicionKind::HighArrivalRate,
            ArcVariant::Low => SuspicionKind::LowArrivalRate,
        }
    }
}

/// Half-window `D` in days (paper: 30-day window, `D = 15`).
pub(crate) const HALF_WINDOW_DAYS: usize = 15;
/// Minimum days per half at the stream edges.
pub(crate) const MIN_HALF_DAYS: usize = 4;
/// Decision threshold on the GLRT statistic of Eq. 5. It corresponds to
/// 2 ln Λ ≈ 2·(2D)·0.05 = 3 at D = 15 — deliberately permissive
/// (χ²₁ p ≈ 0.08) so that even a diluted low-band drip (~0.3 extra
/// ratings/day on a near-zero base) raises peaks. False peaks merely
/// split the day axis; the segment-flag rule (rate increase above the
/// threshold) and the two-path integration reject the noise.
pub(crate) const GLRT_THRESHOLD: f64 = 0.05;
/// Minimum day separation between retained peaks.
pub(crate) const PEAK_SEPARATION: usize = 6;
/// Valley-to-peak ratio below which two peaks frame a U-shape.
pub(crate) const VALLEY_RATIO: f64 = 0.5;
/// Scale-aware guard: a rate increase must also exceed this many
/// standard deviations of the *difference* between the segment-rate
/// estimate and the baseline estimate
/// (`√(base/segment_days + base/baseline_days)` under the Poisson
/// model), so that ordinary sampling noise on busy streams — or a
/// baseline that was itself estimated from a short segment — never
/// flags.
pub(crate) const RATE_NOISE_FACTOR: f64 = 4.0;

/// Configuration of the ARC detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcConfig {
    /// A segment is suspicious when its rate exceeds the previous
    /// segment's by more than this many ratings/day.
    pub rate_increase_threshold: f64,
}

impl Default for ArcConfig {
    fn default() -> Self {
        ArcConfig {
            rate_increase_threshold: 0.25,
        }
    }
}

/// One day-axis segment between ARC peaks, with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcSegment {
    /// Day-index range of the segment (relative to the horizon start).
    pub day_range: Range<usize>,
    /// Time window covered by the segment.
    pub window: TimeWindow,
    /// Mean arrival rate over the segment (ratings/day).
    pub rate: f64,
    /// Whether the segment was flagged ARC-suspicious.
    pub flagged: bool,
}

/// The full output of an ARC-family detector on one product.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcOutcome {
    /// Which variant produced this outcome.
    pub variant: ArcVariant,
    /// The ARC curve (one sample per day index tested).
    pub curve: Curve,
    /// Retained peaks.
    pub peaks: Vec<Peak>,
    /// U-shapes (peak pairs framing a valley).
    pub u_shapes: Vec<UShape>,
    /// Per-segment verdicts.
    pub segments: Vec<ArcSegment>,
    /// Flagged segments as suspicious intervals.
    pub suspicious: Vec<SuspiciousInterval>,
}

impl ArcOutcome {
    pub(crate) fn empty(variant: ArcVariant) -> Self {
        ArcOutcome {
            variant,
            curve: Curve::default(),
            peaks: Vec::new(),
            u_shapes: Vec::new(),
            segments: Vec::new(),
            suspicious: Vec::new(),
        }
    }

    /// Returns `true` if any segment was flagged.
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        !self.suspicious.is_empty()
    }
}

/// Computes the ARC curve point at day index `k`, with the window halves
/// clipped to the series edges. Returns `None` when the clipped half
/// `w = min(D, k, n − k)` falls below [`MIN_HALF_DAYS`] or the GLRT is
/// undefined (both halves all-zero).
///
/// The point is *final* once `k + min(D, k)` days are complete: every
/// later arrival lands in a strictly later day bin, so both count slices
/// are frozen (`min(D, k) ≤ n − k` already holds for such `k`, hence the
/// edge clip no longer binds). The online path caches settled points on
/// exactly this argument.
pub(crate) fn curve_point(counts: &[u32], day0: Timestamp, k: usize) -> Option<CurvePoint> {
    let n = counts.len();
    let w = HALF_WINDOW_DAYS.min(k).min(n - k);
    if w < MIN_HALF_DAYS {
        return None;
    }
    arrival_rate_glrt(&counts[k - w..k], &counts[k..k + w]).map(|stat| CurvePoint {
        index: k,
        time: day0.as_days() + k as f64,
        value: stat,
    })
}

/// [`curve_point`] evaluated in O(1) from a count prefix-sum table
/// (`prefix[i] = counts[..i].sum()`, so `prefix.len() == counts.len() + 1`).
///
/// Bit-identical to [`curve_point`]: the window sums are sums of integer
/// counts, exact in `f64` below 2⁵³, so the prefix-sum differences equal
/// the slice sums bit for bit (see
/// [`rrs_signal::glrt::arrival_rate_glrt_from_sums`]).
pub(crate) fn curve_point_from_prefix(
    prefix: &[u64],
    day0: Timestamp,
    k: usize,
) -> Option<CurvePoint> {
    let n = prefix.len() - 1;
    let w = HALF_WINDOW_DAYS.min(k).min(n - k);
    if w < MIN_HALF_DAYS {
        return None;
    }
    let sum1 = (prefix[k] - prefix[k - w]) as f64;
    let sum2 = (prefix[k + w] - prefix[k]) as f64;
    arrival_rate_glrt_from_sums(w as f64, sum1, w as f64, sum2).map(|stat| CurvePoint {
        index: k,
        time: day0.as_days() + k as f64,
        value: stat,
    })
}

/// Runs an ARC-family detector from a pre-computed daily count series.
///
/// `day0` is the timestamp of day index 0.
#[must_use]
pub fn detect_counts(
    counts: &[u32],
    day0: Timestamp,
    variant: ArcVariant,
    config: &ArcConfig,
) -> ArcOutcome {
    let n = counts.len();
    if n < 2 * MIN_HALF_DAYS {
        return ArcOutcome::empty(variant);
    }

    let signal_span = rrs_obs::trace::span("signal.arc");
    let mut points = Vec::with_capacity(n);
    for k in MIN_HALF_DAYS..=(n - MIN_HALF_DAYS) {
        if let Some(p) = curve_point(counts, day0, k) {
            points.push(p);
        }
    }
    let curve = Curve::new(points);
    let peaks = curve.find_peaks(GLRT_THRESHOLD, PEAK_SEPARATION);
    let u_shapes = curve.u_shapes_between(&peaks, VALLEY_RATIO);
    drop(signal_span);
    judge_counts(counts, day0, variant, config, curve, peaks, u_shapes)
}

/// Segments the day axis at the peaks and judges each segment against
/// the ratcheting baseline — shared verbatim by the batch and online
/// paths so their verdicts are bit-identical.
pub(crate) fn judge_counts(
    counts: &[u32],
    day0: Timestamp,
    variant: ArcVariant,
    config: &ArcConfig,
    curve: Curve,
    peaks: Vec<Peak>,
    u_shapes: Vec<UShape>,
) -> ArcOutcome {
    let n = counts.len();
    let _detect_span = rrs_obs::trace::span("detect.arc");

    // Segment the day axis at the peaks. Adjacent segments whose rates
    // differ by less than the decision threshold are merged first — a
    // spurious peak inside a stationary burst would otherwise split the
    // burst into pieces that each fail the "higher than the previous
    // segment" rule.
    let peak_days = Curve::peak_stream_indices(&peaks);
    let mut ranges: Vec<(Range<usize>, f64)> = split_at_peaks(n, &peak_days)
        .into_iter()
        .map(|r| {
            let total: u32 = counts[r.clone()].iter().sum();
            let rate = f64::from(total) / r.len() as f64;
            (r, rate)
        })
        .collect();
    let mut i = 0;
    while i + 1 < ranges.len() {
        if (ranges[i].1 - ranges[i + 1].1).abs() < config.rate_increase_threshold {
            let (next, _) = ranges.remove(i + 1);
            let merged = ranges[i].0.start..next.end;
            let total: u32 = counts[merged.clone()].iter().sum();
            ranges[i].1 = f64::from(total) / merged.len() as f64;
            ranges[i].0 = merged;
            // Re-examine the same index: the merged segment may now also
            // be within threshold of its new right neighbor.
        } else {
            i += 1;
        }
    }

    // Flag segments against a carried *baseline*: the rate of the last
    // segment judged normal. Comparing only against the immediately
    // previous segment (the paper's literal wording) lets a long burst
    // that got split by a spurious interior peak launder its second half
    // — the second piece is "not higher than the previous segment"
    // because the previous segment is itself part of the attack.
    let mut segments: Vec<ArcSegment> = Vec::new();
    let mut suspicious = Vec::new();
    // Baseline rate plus the day-length of the segment that set it: the
    // baseline is itself a noisy Poisson estimate, and a short quiet
    // opening segment would otherwise anchor an over-tight baseline whose
    // estimation error the guard never sees.
    let mut baseline: Option<(f64, usize)> = None;
    for (day_range, rate) in ranges {
        let flagged = baseline.is_some_and(|(base, base_days)| {
            let var = base / day_range.len().max(1) as f64 + base / base_days.max(1) as f64;
            rate > base
                && rate - base
                    > config
                        .rate_increase_threshold
                        .max(RATE_NOISE_FACTOR * var.sqrt())
        });
        let window = TimeWindow::ordered(
            Timestamp::saturating(day0.as_days() + day_range.start as f64),
            Timestamp::saturating(day0.as_days() + day_range.end as f64),
        );
        if flagged {
            suspicious.push(SuspiciousInterval::new(window, variant.kind(), rate));
        } else {
            // The baseline only ratchets *down*: a gradually ramping
            // attack would otherwise walk the baseline up with it
            // segment by segment and never trip the threshold.
            baseline = Some(match baseline {
                Some((b, days)) if b <= rate => (b, days),
                _ => (rate, day_range.len()),
            });
        }
        segments.push(ArcSegment {
            day_range,
            window,
            rate,
            flagged,
        });
    }

    ArcOutcome {
        variant,
        curve,
        peaks,
        u_shapes,
        segments,
        suspicious,
    }
}

/// Runs an ARC-family detector over one product's timeline.
///
/// The value thresholds follow the paper: `threshold_a = 0.5·m` and
/// `threshold_b = 0.5·m + 0.5`, with `m` the *median* rating value of
/// the timeline. The paper computes `m` per window from the mean; the
/// stream-level median holds its level while an attack is in progress,
/// where the mean is dragged toward the unfair ratings.
#[must_use]
pub fn detect(
    timeline: TimelineView<'_>,
    horizon: TimeWindow,
    variant: ArcVariant,
    config: &ArcConfig,
) -> ArcOutcome {
    detect_at_level(timeline, horizon, variant, config, robust_level(timeline))
}

/// [`detect`] at a central level `m` the caller has already taken with
/// [`robust_level`], so joint detection sorts the values once for both
/// bands and its own use of `m`.
pub(crate) fn detect_at_level(
    timeline: TimelineView<'_>,
    horizon: TimeWindow,
    variant: ArcVariant,
    config: &ArcConfig,
    m: f64,
) -> ArcOutcome {
    let (threshold_a, threshold_b) = band_thresholds(m);
    let counts = match variant {
        ArcVariant::All => timeline.daily_counts(horizon),
        ArcVariant::High => timeline.daily_counts_filtered(horizon, |v| v > threshold_a),
        ArcVariant::Low => timeline.daily_counts_filtered(horizon, |v| v < threshold_b),
    };
    detect_counts(&counts, horizon.start(), variant, config)
}

/// The paper's band thresholds `(threshold_a, threshold_b)` =
/// `(0.5·m, 0.5·m + 0.5)` for a central level `m`: every path that
/// bands ratings derives them here, so the bands agree bit for bit.
pub(crate) fn band_thresholds(m: f64) -> (f64, f64) {
    (0.5 * m, 0.5 * m + 0.5)
}

/// The robust central level `m` of a timeline's rating values.
///
/// `m` is the *median* rating value rather than the paper's mean: the
/// mean of an attacked stream is dragged toward the unfair ratings, which
/// would shift the band thresholds in the attacker's favor; the median
/// holds its level while unfair ratings are a minority.
pub(crate) fn robust_level(timeline: TimelineView<'_>) -> f64 {
    rrs_signal::stats::median(timeline.values()).unwrap_or(2.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{prop_assert, props};
    use rrs_signal::sampling::poisson;

    fn ts(d: f64) -> Timestamp {
        Timestamp::new(d).unwrap()
    }

    fn poisson_counts(days: usize, lambda: f64, seed: u64) -> Vec<u32> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..days)
            .map(|_| poisson(&mut rng, lambda) as u32)
            .collect()
    }

    #[test]
    fn stationary_counts_not_flagged() {
        let counts = poisson_counts(120, 4.0, 1);
        let out = detect_counts(&counts, ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(!out.is_suspicious(), "flagged: {:?}", out.suspicious);
    }

    #[test]
    fn rate_burst_is_flagged() {
        let mut counts = poisson_counts(120, 4.0, 2);
        for c in counts.iter_mut().skip(50).take(15) {
            *c += 8;
        }
        let out = detect_counts(&counts, ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(out.is_suspicious(), "burst not flagged");
        let burst = TimeWindow::new(ts(50.0), ts(65.0)).unwrap();
        assert!(out.suspicious.iter().any(|s| s.overlaps(burst)));
    }

    #[test]
    fn burst_produces_u_shape() {
        let mut counts = poisson_counts(120, 4.0, 3);
        for c in counts.iter_mut().skip(50).take(20) {
            *c += 10;
        }
        let out = detect_counts(&counts, ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(
            !out.u_shapes.is_empty(),
            "no U-shape; peaks at {:?}",
            out.peaks.iter().map(|p| p.point.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gradually_ramping_rate_cannot_walk_the_baseline_up() {
        // Rate climbs 2 -> 10 in four gentle steps: each step is small,
        // but the ratcheting baseline keeps comparing against the
        // original level, so the later segments are still flagged.
        let mut counts = vec![2u32; 40];
        counts.extend(vec![4u32; 20]);
        counts.extend(vec![6u32; 20]);
        counts.extend(vec![8u32; 20]);
        counts.extend(vec![10u32; 20]);
        let out = detect_counts(&counts, ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(
            out.is_suspicious(),
            "ramp never flagged: {:?}",
            out.segments
                .iter()
                .map(|s| (s.rate, s.flagged))
                .collect::<Vec<_>>()
        );
        // The flagged mass is in the later (high-rate) part.
        assert!(out
            .suspicious
            .iter()
            .any(|s| s.window.start().as_days() >= 40.0));
    }

    #[test]
    fn too_short_series_is_silent() {
        let out = detect_counts(&[1, 2], ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(out.curve.is_empty());
        assert!(out.peaks.is_empty());
    }

    #[test]
    fn variant_kinds() {
        assert_eq!(ArcVariant::High.kind(), SuspicionKind::HighArrivalRate);
        assert_eq!(ArcVariant::Low.kind(), SuspicionKind::LowArrivalRate);
        assert_eq!(ArcVariant::All.kind(), SuspicionKind::HighArrivalRate);
    }

    #[test]
    fn rate_decrease_is_not_flagged() {
        // Start high, drop: the paper only flags *increases* (unfair
        // ratings add traffic; they do not remove it).
        let mut counts = vec![10u32; 60];
        counts.extend(vec![3u32; 60]);
        let out = detect_counts(&counts, ts(0.0), ArcVariant::All, &ArcConfig::default());
        assert!(
            !out.is_suspicious(),
            "decrease wrongly flagged: {:?}",
            out.suspicious
        );
    }

    #[test]
    fn low_variant_counts_only_low_ratings() {
        use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue};
        let mut d = RatingDataset::new();
        let mut rater = 0u32;
        // 60 days of fair 4-star ratings, then a burst of 1-star ratings.
        for day in 0..60 {
            for _ in 0..3 {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(f64::from(day)),
                        RatingValue::new(4.0).unwrap(),
                    ),
                    RatingSource::Fair,
                );
                rater += 1;
            }
        }
        for day in 30..42 {
            for _ in 0..5 {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(f64::from(day) + 0.5),
                        RatingValue::new(1.0).unwrap(),
                    ),
                    RatingSource::Unfair,
                );
                rater += 1;
            }
        }
        let tl = d.product(ProductId::new(0)).unwrap();
        let horizon = TimeWindow::new(ts(0.0), ts(60.0)).unwrap();
        let low = detect(tl, horizon, ArcVariant::Low, &ArcConfig::default());
        assert!(low.is_suspicious(), "L-ARC missed the low-value burst");
        // The high-band counts never changed, so H-ARC stays quiet.
        let high = detect(tl, horizon, ArcVariant::High, &ArcConfig::default());
        assert!(!high.is_suspicious(), "H-ARC false alarm");
    }

    props! {
        #[test]
        fn prefix_curve_point_is_bitwise_identical(
            days in 2usize..80,
            lambda in 0.5f64..12.0,
            seed in 0u64..1_000_000,
        ) {
            let counts = poisson_counts(days, lambda, seed);
            let mut prefix = vec![0u64; counts.len() + 1];
            for (i, &c) in counts.iter().enumerate() {
                prefix[i + 1] = prefix[i] + u64::from(c);
            }
            for k in 0..=counts.len() {
                let slow = curve_point(&counts, ts(0.0), k);
                let fast = curve_point_from_prefix(&prefix, ts(0.0), k);
                match (slow, fast) {
                    (None, None) => {}
                    (Some(s), Some(f)) => {
                        prop_assert!(s.index == f.index);
                        prop_assert!(s.time.to_bits() == f.time.to_bits());
                        prop_assert!(
                            s.value.to_bits() == f.value.to_bits(),
                            "k={k}: {} vs {}", f.value, s.value
                        );
                    }
                    (s, f) => prop_assert!(false, "k={k}: {s:?} vs {f:?}"),
                }
            }
        }
    }

    #[test]
    fn thresholds_follow_paper_formulas() {
        use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue};
        let mut d = RatingDataset::new();
        d.insert(
            Rating::new(
                RaterId::new(0),
                ProductId::new(0),
                ts(0.0),
                RatingValue::new(4.0).unwrap(),
            ),
            RatingSource::Fair,
        );
        let tl = d.product(ProductId::new(0)).unwrap();
        let (a, b) = band_thresholds(robust_level(tl));
        assert_eq!(a, 2.0);
        assert_eq!(b, 2.5);
    }
}
