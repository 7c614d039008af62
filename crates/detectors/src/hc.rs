//! The histogram-change (HC) detector (paper Section IV-D).
//!
//! Collaborative unfair ratings pile probability mass at a value the fair
//! ratings rarely take, turning the in-window histogram bimodal. The
//! detector splits each window's values into two single-linkage clusters
//! and reports `HC(k) = min(n₁/n₂, n₂/n₁)`: near 0 for unimodal data
//! (the second "cluster" is a couple of stragglers), approaching 1 when
//! two genuinely balanced modes exist.
//!
//! One hardening beyond the paper's two-line description: the two clusters
//! must also be *separated* by a minimum value gap, otherwise any noisy
//! unimodal window can split into two balanced halves at a hairline gap
//! and fire a false alarm.

use crate::suspicion::{SuspicionKind, SuspiciousInterval};
use rrs_core::{TimeWindow, TimelineView, Timestamp};
use rrs_signal::curve::{Curve, CurvePoint};

/// Window length in ratings (paper: 40).
pub(crate) const WINDOW_RATINGS: usize = 40;
/// Step between window starts, in ratings.
pub(crate) const STEP: usize = 5;
/// Minimum value gap between the two clusters for the split to count as
/// bimodality (rating units). A gap of 0.45 rating units separates a
/// coordinated value cluster (e.g. a run of identical extreme ratings)
/// from the continuum of noisy fair values.
pub(crate) const MIN_CLUSTER_GAP: f64 = 0.45;

/// Configuration of the HC detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HcConfig {
    /// HC ratio above which a window is suspicious.
    pub threshold: f64,
}

impl Default for HcConfig {
    fn default() -> Self {
        // The ratio threshold of 0.25 flags a minority mode of ~10
        // ratings against a 30-rating majority.
        HcConfig { threshold: 0.25 }
    }
}

/// The output of the HC detector on one product.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HcOutcome {
    /// The HC curve (one sample per evaluated window center).
    pub curve: Curve,
    /// Maximal runs of above-threshold windows, as time intervals.
    pub suspicious: Vec<SuspiciousInterval>,
}

impl HcOutcome {
    /// Returns `true` if any window crossed the threshold.
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        !self.suspicious.is_empty()
    }
}

/// Computes the HC ratio of one window of values.
///
/// Returns 0 when the window is too small to split, when one cluster is
/// empty, or when the clusters are not separated by `min_gap`.
///
/// Two-cluster single linkage in 1-D is exactly "cut the largest gap in
/// sorted order", so this sorts a copy of the window and scans the gaps
/// directly instead of running the general clustering machinery — same
/// result (the clustering path is kept as the oracle in this module's
/// property tests), a fraction of the allocations.
#[must_use]
pub fn hc_ratio(values: &[f64], min_gap: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    hc_ratio_sorted(&sorted, min_gap)
}

/// [`hc_ratio`] on values already sorted by `total_cmp` — the online
/// path's sliding sorted window calls this directly and skips the sort.
pub(crate) fn hc_ratio_sorted(sorted: &[f64], min_gap: f64) -> f64 {
    if sorted.len() < 4 {
        return 0.0;
    }
    // Largest gap between sorted neighbors; first index wins ties, which
    // matches single_linkage_1d's (descending gap, ascending index) cut
    // ordering. total_cmp ranks a NaN gap above every finite one, exactly
    // like the clustering path, where a top-ranked NaN gap fails its
    // `> 0` cut test and leaves the window unsplit.
    let mut best_gap = f64::NEG_INFINITY;
    let mut cut = 0usize;
    for (i, pair) in sorted.windows(2).enumerate() {
        let gap = pair[1] - pair[0];
        if gap.total_cmp(&best_gap).is_gt() {
            best_gap = gap;
            cut = i;
        }
    }
    // No positive gap means one cluster; a sub-min_gap split is noise.
    if best_gap.is_nan() || best_gap <= 0.0 || best_gap < min_gap {
        return 0.0;
    }
    let n1 = (cut + 1) as f64;
    let n2 = (sorted.len() - cut - 1) as f64;
    (n1 / n2).min(n2 / n1)
}

/// Computes the HC curve point for the window starting at `start`
/// (requires `start + WINDOW_RATINGS ≤ values.len()`).
///
/// The point only reads the frozen prefix
/// `values[start..start + WINDOW_RATINGS]` and `times[center]`, so it is
/// final as soon as the window fits — the online path appends each new
/// window's point exactly once.
fn window_point(values: &[f64], times: &[f64], start: usize) -> CurvePoint {
    let center = start + WINDOW_RATINGS / 2;
    CurvePoint {
        index: center,
        time: times[center],
        value: hc_ratio(&values[start..start + WINDOW_RATINGS], MIN_CLUSTER_GAP),
    }
}

/// [`window_point`] from an already-sorted copy of the window's values.
///
/// `sorted` must hold exactly the multiset
/// `values[start..start + WINDOW_RATINGS]` in `total_cmp` order; the
/// result is then bit-identical to [`window_point`], which sorts the same
/// multiset before the gap scan.
/// The online path maintains `sorted` as a sliding multiset so each
/// window costs O(w) insert/remove instead of an O(w log w) sort.
pub(crate) fn window_point_presorted(sorted: &[f64], times: &[f64], start: usize) -> CurvePoint {
    let center = start + WINDOW_RATINGS / 2;
    CurvePoint {
        index: center,
        time: times[center],
        value: hc_ratio_sorted(sorted, MIN_CLUSTER_GAP),
    }
}

/// Merges consecutive above-threshold curve samples into suspicious
/// intervals, stretching each to cover the full windows involved (not
/// just centers) — shared verbatim by the batch and online paths.
pub(crate) fn suspicious_runs(
    curve: &Curve,
    times: &[f64],
    config: &HcConfig,
) -> Vec<SuspiciousInterval> {
    let mut suspicious = Vec::new();
    let pts = curve.points();
    let mut run_start: Option<usize> = None;
    for (i, p) in pts.iter().enumerate() {
        let above = p.value >= config.threshold;
        match (above, run_start) {
            (true, None) => run_start = Some(i),
            (false, Some(s)) => {
                suspicious.push(run_interval(pts, s, i - 1, times));
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        suspicious.push(run_interval(pts, s, pts.len() - 1, times));
    }
    suspicious
}

/// Runs the HC detector over one product's timeline.
#[must_use]
pub fn detect(timeline: TimelineView<'_>, config: &HcConfig) -> HcOutcome {
    let n = timeline.len();
    if n < WINDOW_RATINGS {
        return HcOutcome::default();
    }
    // Contiguous column walks on the columnar engine.
    let values = timeline.values();
    let times: Vec<f64> = timeline.times().iter().map(|t| t.as_days()).collect();

    let signal_span = rrs_obs::trace::span("signal.hc");
    let mut points = Vec::new();
    let mut start = 0usize;
    while start + WINDOW_RATINGS <= n {
        points.push(window_point(values, &times, start));
        start += STEP;
    }
    let curve = Curve::new(points);
    drop(signal_span);
    let _detect_span = rrs_obs::trace::span("detect.hc");

    let suspicious = suspicious_runs(&curve, &times, config);
    HcOutcome { curve, suspicious }
}

fn run_interval(
    pts: &[CurvePoint],
    first: usize,
    last: usize,
    times: &[f64],
) -> SuspiciousInterval {
    let n = times.len();
    let start_idx = pts[first].index.saturating_sub(WINDOW_RATINGS / 2);
    let end_idx = (pts[last].index + WINDOW_RATINGS / 2).min(n - 1);
    let strength = pts[first..=last]
        .iter()
        .map(|p| p.value)
        .fold(0.0f64, f64::max);
    let window = TimeWindow::ordered(
        Timestamp::saturating(times[start_idx]),
        Timestamp::saturating(times[end_idx] + 1e-9),
    );
    SuspiciousInterval::new(window, SuspicionKind::Histogram, strength)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{
        prop_assert, props, ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue,
    };

    fn dataset(values_by_day: impl Iterator<Item = (f64, f64)>) -> RatingDataset {
        let mut d = RatingDataset::new();
        for (i, (t, v)) in values_by_day.enumerate() {
            d.insert(
                Rating::new(
                    RaterId::new(i as u32),
                    ProductId::new(0),
                    Timestamp::new(t).unwrap(),
                    RatingValue::new_clamped(v),
                ),
                RatingSource::Fair,
            );
        }
        d
    }

    #[test]
    fn hc_ratio_unimodal_is_low() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let values: Vec<f64> = (0..40).map(|_| 4.0 + rng.gen_range(-0.6..0.6)).collect();
        assert_eq!(hc_ratio(&values, 0.8), 0.0);
    }

    #[test]
    fn hc_ratio_balanced_bimodal_is_high() {
        let mut values = vec![4.0; 20];
        values.extend(vec![1.0; 20]);
        let r = hc_ratio(&values, 0.8);
        assert!((r - 1.0).abs() < 1e-12, "got {r}");
    }

    #[test]
    fn hc_ratio_imbalanced_bimodal_is_moderate() {
        let mut values = vec![4.0; 30];
        values.extend(vec![1.0; 10]);
        let r = hc_ratio(&values, 0.8);
        assert!((r - 1.0 / 3.0).abs() < 1e-12, "got {r}");
    }

    #[test]
    fn hc_ratio_tiny_window_is_zero() {
        assert_eq!(hc_ratio(&[1.0, 4.0], 0.5), 0.0);
    }

    #[test]
    fn fair_stream_quiet() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let d = dataset((0..300).map(|i| (f64::from(i) * 0.25, 4.0 + rng.gen_range(-0.7..0.7))));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &HcConfig::default());
        assert!(!out.is_suspicious(), "{:?}", out.suspicious);
    }

    #[test]
    fn injected_mode_is_flagged_in_place() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // 300 fair ratings at 4.0; ratings 120..170 replaced by a 1.0 mode.
        let d = dataset((0..300).map(|i| {
            let v = if (120..170).contains(&i) {
                1.0 + rng.gen_range(-0.2..0.2)
            } else {
                4.0 + rng.gen_range(-0.7..0.7)
            };
            (f64::from(i) * 0.25, v)
        }));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &HcConfig::default());
        assert!(out.is_suspicious());
        // Attack spans times 30..42.5; the flagged interval must overlap.
        let attack =
            TimeWindow::new(Timestamp::new(30.0).unwrap(), Timestamp::new(42.5).unwrap()).unwrap();
        assert!(out.suspicious.iter().any(|s| s.overlaps(attack)));
    }

    #[test]
    fn short_stream_is_silent() {
        let d = dataset((0..10).map(|i| (f64::from(i), 4.0)));
        let out = detect(d.product(ProductId::new(0)).unwrap(), &HcConfig::default());
        assert!(out.curve.is_empty());
    }

    /// The clustering-based reference implementation `hc_ratio` replaced:
    /// full single-linkage labels, sizes, and a member scan for the gap.
    fn hc_ratio_via_clustering(values: &[f64], min_gap: f64) -> f64 {
        use rrs_signal::cluster::{cluster_sizes, single_linkage_1d};
        if values.len() < 4 {
            return 0.0;
        }
        let labels = single_linkage_1d(values, 2);
        let sizes = cluster_sizes(&labels);
        if sizes.len() < 2 || sizes[0] == 0 || sizes[1] == 0 {
            return 0.0;
        }
        let max0 = values
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == 0)
            .map(|(v, _)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        let min1 = values
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == 1)
            .map(|(v, _)| *v)
            .fold(f64::INFINITY, f64::min);
        if min1 - max0 < min_gap {
            return 0.0;
        }
        let (n1, n2) = (sizes[0] as f64, sizes[1] as f64);
        (n1 / n2).min(n2 / n1)
    }

    props! {
        #[test]
        fn gap_scan_matches_clustering_oracle(
            values in rrs_core::check::vec_of(-1.0f64..6.0, 0..60),
            min_gap in 0.0f64..1.5,
        ) {
            let fast = hc_ratio(&values, min_gap);
            let slow = hc_ratio_via_clustering(&values, min_gap);
            prop_assert!(
                fast.to_bits() == slow.to_bits(),
                "gap-scan hc_ratio {fast} != clustering oracle {slow} on {values:?}"
            );
        }

        #[test]
        fn duplicate_heavy_windows_match_clustering_oracle(
            raw in rrs_core::check::vec_of(0u8..8, 4..50),
            min_gap in 0.0f64..1.5,
        ) {
            // Quantized values force ties in both the values and the gaps.
            let values: Vec<f64> = raw.iter().map(|&v| f64::from(v) * 0.7).collect();
            let fast = hc_ratio(&values, min_gap);
            let slow = hc_ratio_via_clustering(&values, min_gap);
            prop_assert!(
                fast.to_bits() == slow.to_bits(),
                "gap-scan hc_ratio {fast} != clustering oracle {slow} on {values:?}"
            );
        }
    }
}
