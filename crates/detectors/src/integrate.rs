//! Joint detection of suspicious ratings (paper Section IV-F, Figure 1).
//!
//! Single detectors false-alarm too often because fair ratings are not
//! stationary, so verdicts are combined along two parallel paths:
//!
//! * **Path 1 — strong attacks.** When an MC-suspicious segment and an
//!   H-ARC (resp. L-ARC) suspicious segment coincide in time, the ratings
//!   above `threshold_a` (resp. below `threshold_b`) inside the overlap
//!   are marked suspicious.
//! * **Path 2 — subtler attacks.** When H-ARC (resp. L-ARC) sees a rate
//!   change that Path 1 did not consume — an *alarm* — the ME (resp. HC)
//!   detector adjudicates: if its own suspicious interval overlaps the
//!   alarmed segment, the high (resp. low) ratings in the overlap are
//!   marked.
//!
//! Both paths run on every product, since a product may suffer several
//! attacks.

use crate::arc::{self, ArcConfig, ArcOutcome, ArcVariant};
use crate::config::{AblatedDetector, DetectorConfig};
use crate::hc::{self, HcConfig, HcOutcome};
use crate::mc::{self, McConfig, McOutcome};
use crate::me::{self, MeConfig, MeOutcome};
use crate::suspicion::SuspiciousInterval;
use rrs_core::{DatasetView, ProductId, RaterId, RatingId, TimeWindow, TimelineView};
use std::collections::BTreeSet;

// Metric names, declared as constants per the `metric-name` lint rule.
const METRIC_PATH1_HITS: &str = "detect.path1_hits";
const METRIC_PATH2_HITS: &str = "detect.path2_hits";
const METRIC_MARKED_RATINGS: &str = "detect.marked_ratings";
const METRIC_FIRED_MC: &str = "detect.fired.mc";
const METRIC_FIRED_HARC: &str = "detect.fired.harc";
const METRIC_FIRED_LARC: &str = "detect.fired.larc";
const METRIC_FIRED_HC: &str = "detect.fired.hc";
const METRIC_FIRED_ME: &str = "detect.fired.me";
const METRIC_MARKED_PER_PRODUCT: &str = "detect.marked_per_product";

/// Which value band a path hit marked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Ratings above `threshold_a`.
    High,
    /// Ratings below `threshold_b`.
    Low,
}

/// One firing of a detection path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathHit {
    /// 1 for the strong-attack path, 2 for the alarm path.
    pub path: u8,
    /// The time overlap within which ratings were marked.
    pub window: TimeWindow,
    /// Which value band was marked.
    pub band: Band,
    /// How many ratings the hit marked.
    pub marked: usize,
}

/// Combined detection output for one product.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// All ratings marked suspicious by either path.
    pub suspicious: BTreeSet<RatingId>,
    /// Mean-change outcome.
    pub mc: McOutcome,
    /// H-ARC outcome.
    pub harc: ArcOutcome,
    /// L-ARC outcome.
    pub larc: ArcOutcome,
    /// Histogram-change outcome.
    pub hc: HcOutcome,
    /// Model-error outcome.
    pub me: MeOutcome,
    /// Path firings, in detection order.
    pub hits: Vec<PathHit>,
}

/// One detector's contribution to a decision, reduced to a single
/// comparable statistic: the raw value the detector thresholded, the
/// threshold it used, and whether it fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorVerdictSummary {
    /// Detector name: `"mc"`, `"h-arc"`, `"l-arc"`, `"hc"`, or `"me"`.
    pub name: &'static str,
    /// The detector's headline statistic for this product.
    pub statistic: f64,
    /// The threshold the statistic was judged against.
    pub threshold: f64,
    /// Whether the detector reported any suspicious interval.
    pub fired: bool,
}

impl DetectionResult {
    /// Returns every suspicious interval reported by any detector.
    #[must_use]
    pub fn all_intervals(&self) -> Vec<SuspiciousInterval> {
        let mut out = Vec::new();
        out.extend(self.mc.suspicious.iter().copied());
        out.extend(self.harc.suspicious.iter().copied());
        out.extend(self.larc.suspicious.iter().copied());
        out.extend(self.hc.suspicious.iter().copied());
        out.extend(self.me.suspicious.iter().copied());
        out
    }

    /// Reduces each detector's outcome to one [`DetectorVerdictSummary`],
    /// in the fixed order mc, h-arc, l-arc, hc, me.
    ///
    /// Headline statistics: MC reports its largest segment mean
    /// deviation; the ARC variants report the largest rate increase
    /// between consecutive segments; HC reports its peak histogram
    /// ratio; ME reports its *minimum* model error (it fires on values
    /// at or below the threshold, so 1.0 is the neutral value for an
    /// empty curve).
    #[must_use]
    pub fn verdict_summaries(&self) -> Vec<DetectorVerdictSummary> {
        let mc_stat = self
            .mc
            .segments
            .iter()
            .map(|s| s.mean_deviation)
            .fold(0.0f64, f64::max);
        let arc_stat = |out: &ArcOutcome| {
            out.segments
                .windows(2)
                .map(|pair| pair[1].rate - pair[0].rate)
                .fold(0.0f64, f64::max)
        };
        let hc_stat = self
            .hc
            .curve
            .points()
            .iter()
            .map(|p| p.value)
            .fold(0.0f64, f64::max);
        let me_stat = self
            .me
            .curve
            .points()
            .iter()
            .map(|p| p.value)
            .fold(1.0f64, f64::min);
        vec![
            DetectorVerdictSummary {
                name: "mc",
                statistic: mc_stat,
                threshold: mc::THRESHOLD1,
                fired: !self.mc.suspicious.is_empty(),
            },
            DetectorVerdictSummary {
                name: "h-arc",
                statistic: arc_stat(&self.harc),
                threshold: ArcConfig::default().rate_increase_threshold,
                fired: !self.harc.suspicious.is_empty(),
            },
            DetectorVerdictSummary {
                name: "l-arc",
                statistic: arc_stat(&self.larc),
                threshold: ArcConfig::default().rate_increase_threshold,
                fired: !self.larc.suspicious.is_empty(),
            },
            DetectorVerdictSummary {
                name: "hc",
                statistic: hc_stat,
                threshold: HcConfig::default().threshold,
                fired: !self.hc.suspicious.is_empty(),
            },
            DetectorVerdictSummary {
                name: "me",
                statistic: me_stat,
                threshold: MeConfig::default().threshold,
                fired: !self.me.suspicious.is_empty(),
            },
        ]
    }
}

/// The joint detector of the P-scheme: four detectors plus the Fig. 1
/// two-path integration.
#[derive(Debug, Clone, Default)]
pub struct JointDetector {
    config: DetectorConfig,
}

impl JointDetector {
    /// Creates a joint detector with the given configuration.
    #[must_use]
    pub fn new(config: DetectorConfig) -> Self {
        JointDetector { config }
    }

    /// Returns the configuration.
    #[must_use]
    pub const fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs joint detection over one product.
    ///
    /// `horizon` bounds the daily-count axis for the arrival-rate
    /// detectors; `trust` supplies current rater trust (use `|_| 0.5`
    /// before any trust has been established).
    pub fn detect_product<F>(
        &self,
        timeline: TimelineView<'_>,
        horizon: TimeWindow,
        trust: F,
    ) -> DetectionResult
    where
        F: Fn(RaterId) -> f64,
    {
        let trust = mc::trust_column(timeline, trust);
        let config = &self.config;
        let mc_out = if config.runs(AblatedDetector::MeanChange) {
            mc::detect_with_trust(timeline, &McConfig::default(), &trust)
        } else {
            McOutcome::default()
        };
        let stream_median = arc::robust_level(timeline);
        let (harc_out, larc_out) = if config.runs(AblatedDetector::ArrivalRate) {
            let arc_config = ArcConfig::default();
            let band = |v| arc::detect_at_level(timeline, horizon, v, &arc_config, stream_median);
            (band(ArcVariant::High), band(ArcVariant::Low))
        } else {
            (
                ArcOutcome::empty(ArcVariant::High),
                ArcOutcome::empty(ArcVariant::Low),
            )
        };
        let hc_out = if config.runs(AblatedDetector::Histogram) {
            hc::detect(timeline, &HcConfig::default())
        } else {
            HcOutcome::default()
        };
        let me_out = if config.runs(AblatedDetector::ModelError) {
            me::detect(timeline, &MeConfig::default())
        } else {
            MeOutcome::default()
        };

        integrate_outcomes(
            timeline,
            mc_out,
            harc_out,
            larc_out,
            hc_out,
            me_out,
            stream_median,
            &trust,
        )
    }

    /// Runs joint detection over every product of a dataset (accepts
    /// `&RatingDataset` or a borrowed [`DatasetView`]) and returns the
    /// union of suspicious marks plus the per-product results.
    ///
    /// Products are independent, so they are detected in parallel via
    /// [`rrs_core::par::par_map`]; results come back in product order and
    /// the mark union is a `BTreeSet`, so the output is identical at any
    /// thread count.
    pub fn detect_all<'a, D, F>(
        &self,
        dataset: D,
        horizon: TimeWindow,
        trust: F,
    ) -> (BTreeSet<RatingId>, Vec<(ProductId, DetectionResult)>)
    where
        D: Into<DatasetView<'a>>,
        F: Fn(RaterId) -> f64 + Sync,
    {
        let view = dataset.into();
        let trust = &trust;
        let per_product = rrs_core::par::par_map(view.products(), |_, &(pid, timeline)| {
            (pid, self.detect_product(timeline, horizon, trust))
        });
        (union_of_marks(&per_product), per_product)
    }
}

/// The union of every product's marks. Collecting into a `BTreeSet`
/// gathers the ids into a `Vec`, sorts it once (a merge of the products'
/// sorted runs) and bulk-builds the set, where `extend` would insert the
/// ids one by one.
pub(crate) fn union_of_marks(per_product: &[(ProductId, DetectionResult)]) -> BTreeSet<RatingId> {
    per_product
        .iter()
        .flat_map(|(_, result)| result.suspicious.iter().copied())
        .collect()
}

/// The two-path integration of Fig. 1 over pre-computed detector
/// outcomes — shared verbatim by the batch and online paths so their
/// marks are bit-identical.
///
/// `stream_median` is the robust central level `m` of the timeline's
/// values; the paper's band thresholds derive from it through
/// [`arc::band_thresholds`], and the Path-2 mean-deviation adjudicator
/// uses it as the reference level with MC's segment thresholds.
/// `trust[i]` is the trust of `timeline.rater_at(i)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn integrate_outcomes(
    timeline: TimelineView<'_>,
    mc_out: McOutcome,
    harc_out: ArcOutcome,
    larc_out: ArcOutcome,
    hc_out: HcOutcome,
    me_out: MeOutcome,
    stream_median: f64,
    trust: &[f64],
) -> DetectionResult {
    let _integrate_span = rrs_obs::trace::span("detect.integrate");
    let (threshold_a, threshold_b) = arc::band_thresholds(stream_median);
    let mut marks = Marks::default();
    let mut hits = Vec::new();

    // Path 1: strong attacks. Candidate intervals on the MC side are
    // its U-shapes (the paper's wording) plus its flagged segments
    // (Section IV-B.3); on the ARC side likewise. A coincidence marks
    // the band inside the overlap.
    let mc_candidates = candidate_windows(&mc_out.u_shapes, &mc_out.suspicious);
    let mut path1_consumed_high: Vec<TimeWindow> = Vec::new();
    let mut path1_consumed_low: Vec<TimeWindow> = Vec::new();
    for mc_window in &mc_candidates {
        for (arc_out, band, consumed) in [
            (&harc_out, Band::High, &mut path1_consumed_high),
            (&larc_out, Band::Low, &mut path1_consumed_low),
        ] {
            for arc_window in candidate_windows(&arc_out.u_shapes, &arc_out.suspicious) {
                if let Some(overlap) = mc_window.intersect(arc_window) {
                    let marked = marks.mark_band(timeline, overlap, band, threshold_a, threshold_b);
                    consumed.push(arc_window);
                    hits.push(PathHit {
                        path: 1,
                        window: overlap,
                        band,
                        marked,
                    });
                }
            }
        }
    }

    // Path 2: un-consumed ARC alarms adjudicated by ME (high band) or
    // HC (low band), or by a direct mean-deviation check of the
    // alarmed interval. The last adjudicator covers diluted attacks:
    // their gradual onset raises no MC peaks, so the MC detector
    // never delimits a segment for Path 1 — but the alarmed interval
    // itself, once the arrival-rate evidence has drawn its
    // boundaries, shows the mean shift plainly.
    let me_intervals: Vec<TimeWindow> = me_out.suspicious.iter().map(|s| s.window).collect();
    let hc_intervals: Vec<TimeWindow> = hc_out.suspicious.iter().map(|s| s.window).collect();
    let overall_trust = if timeline.is_empty() {
        0.5
    } else {
        trust.iter().sum::<f64>() / timeline.len() as f64
    };
    let mean_dev_confirms = |window: TimeWindow| -> bool {
        let range = timeline.window_range(window);
        if range.is_empty() {
            return false;
        }
        let len = range.len() as f64;
        let mean = range.clone().map(|i| timeline.value_at(i)).sum::<f64>() / len;
        let dev = (mean - stream_median).abs();
        let slice_trust = trust[range].iter().sum::<f64>() / len;
        let less_trusted = overall_trust > 0.0 && slice_trust / overall_trust < mc::TRUST_RATIO;
        dev > mc::THRESHOLD1 || (dev > mc::THRESHOLD2 && less_trusted)
    };
    for (arc_out, band, consumed, adjudicator) in [
        (&harc_out, Band::High, &path1_consumed_high, &me_intervals),
        (&larc_out, Band::Low, &path1_consumed_low, &hc_intervals),
    ] {
        for arc_interval in &arc_out.suspicious {
            if consumed.contains(&arc_interval.window) {
                continue;
            }
            let mut confirmed: Vec<TimeWindow> = adjudicator
                .iter()
                .filter_map(|adj| arc_interval.window.intersect(*adj))
                .collect();
            if confirmed.is_empty() && mean_dev_confirms(arc_interval.window) {
                confirmed.push(arc_interval.window);
            }
            for overlap in confirmed {
                let marked = marks.mark_band(timeline, overlap, band, threshold_a, threshold_b);
                hits.push(PathHit {
                    path: 2,
                    window: overlap,
                    band,
                    marked,
                });
            }
        }
    }

    let suspicious: BTreeSet<RatingId> = marks.ids.into_iter().collect();
    if rrs_obs::enabled() {
        for hit in &hits {
            let name = match hit.path {
                1 => METRIC_PATH1_HITS,
                _ => METRIC_PATH2_HITS,
            };
            rrs_obs::metrics::counter_add(name, 1);
        }
        rrs_obs::metrics::counter_add(METRIC_MARKED_RATINGS, suspicious.len() as u64);
        // Detector-health telemetry. This block runs inside `par_map`
        // workers, so only commuting writes are allowed here: counter
        // adds and sketch observations, never gauges.
        for (fired, name) in [
            (!mc_out.suspicious.is_empty(), METRIC_FIRED_MC),
            (!harc_out.suspicious.is_empty(), METRIC_FIRED_HARC),
            (!larc_out.suspicious.is_empty(), METRIC_FIRED_LARC),
            (!hc_out.suspicious.is_empty(), METRIC_FIRED_HC),
            (!me_out.suspicious.is_empty(), METRIC_FIRED_ME),
        ] {
            if fired {
                rrs_obs::metrics::counter_add(name, 1);
            }
        }
        rrs_obs::metrics::observe_quantile(METRIC_MARKED_PER_PRODUCT, suspicious.len() as f64);
    }

    DetectionResult {
        suspicious,
        mc: mc_out,
        harc: harc_out,
        larc: larc_out,
        hc: hc_out,
        me: me_out,
        hits,
    }
}

/// Collects the time windows a detector considers suspicious: its
/// U-shapes (peak-pair frames) plus its flagged segments.
fn candidate_windows(
    u_shapes: &[rrs_signal::curve::UShape],
    suspicious: &[SuspiciousInterval],
) -> Vec<TimeWindow> {
    let mut out: Vec<TimeWindow> = Vec::with_capacity(u_shapes.len() + suspicious.len());
    for u in u_shapes {
        let (lo, hi) = u.time_range();
        if let (Ok(start), Ok(end)) = (rrs_core::Timestamp::new(lo), rrs_core::Timestamp::new(hi)) {
            if let Ok(window) = TimeWindow::new(start, end) {
                out.push(window);
            }
        }
    }
    out.extend(suspicious.iter().map(|s| s.window));
    out
}

/// One product's marks while the two paths run: a bitmap over timeline
/// positions, so a rating marked by several hits costs one bit test per
/// hit, and the ids in marking order, from which the product's set is
/// built once.
#[derive(Default)]
struct Marks {
    /// `marked[i]` for timeline position `i`; sized on the first hit.
    marked: Vec<bool>,
    ids: Vec<RatingId>,
}

impl Marks {
    /// Marks ratings of the given band inside `window`; returns how many
    /// were newly marked.
    fn mark_band(
        &mut self,
        timeline: TimelineView<'_>,
        window: TimeWindow,
        band: Band,
        threshold_a: f64,
        threshold_b: f64,
    ) -> usize {
        let range = timeline.window_range(window);
        if range.is_empty() {
            return 0;
        }
        if self.marked.is_empty() {
            self.marked = vec![false; timeline.len()];
        }
        let before = self.ids.len();
        for i in range {
            let value = timeline.value_at(i);
            let hit = match band {
                Band::High => value > threshold_a,
                Band::Low => value < threshold_b,
            };
            if hit && !self.marked[i] {
                self.marked[i] = true;
                self.ids.push(timeline.id_at(i));
            }
        }
        self.ids.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{GroundTruth, Rating, RatingDataset, RatingSource, RatingValue, Timestamp};

    fn ts(d: f64) -> Timestamp {
        Timestamp::new(d).unwrap()
    }

    /// 90 days of fair ratings at ~4/day, mean 4.0.
    fn fair_dataset(seed: u64) -> RatingDataset {
        let mut d = RatingDataset::new();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut rater = 0u32;
        for day in 0..90 {
            let n = 3 + (rng.gen::<u8>() % 3) as usize;
            for slot in 0..n {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(f64::from(day) + slot as f64 / n as f64),
                        RatingValue::new_clamped(4.0 + rng.gen_range(-0.8..0.8)),
                    ),
                    RatingSource::Fair,
                );
                rater += 1;
            }
        }
        d
    }

    fn add_downgrade_burst(
        d: &mut RatingDataset,
        from: f64,
        days: usize,
        per_day: usize,
        value: f64,
    ) {
        let mut rater = 50_000u32;
        for day in 0..days {
            for slot in 0..per_day {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(from + day as f64 + slot as f64 / per_day as f64),
                        RatingValue::new_clamped(value),
                    ),
                    RatingSource::Unfair,
                );
                rater += 1;
            }
        }
    }

    fn horizon() -> TimeWindow {
        TimeWindow::new(ts(0.0), ts(90.0)).unwrap()
    }

    #[test]
    fn fair_data_produces_no_marks() {
        let d = fair_dataset(1);
        let det = JointDetector::default();
        let (marks, results) = det.detect_all(&d, horizon(), |_| 0.5);
        assert!(marks.is_empty(), "false alarms: {} marks", marks.len());
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn strong_downgrade_attack_is_caught_by_path1() {
        let mut d = fair_dataset(2);
        add_downgrade_burst(&mut d, 40.0, 12, 5, 0.8);
        let det = JointDetector::default();
        let tl = d.product(ProductId::new(0)).unwrap();
        let result = det.detect_product(tl, horizon(), |_| 0.5);
        assert!(!result.suspicious.is_empty(), "attack not marked at all");
        assert!(
            result
                .hits
                .iter()
                .any(|h| h.path == 1 && h.band == Band::Low),
            "expected a path-1 low-band hit, got {:?}",
            result.hits
        );
        // Detection quality: most marks should be true unfair ratings.
        let truth = GroundTruth::from_dataset(&d);
        let confusion = truth.score(&result.suspicious);
        assert!(confusion.recall() > 0.5, "recall too low: {confusion}");
        assert!(
            confusion.false_alarm_rate() < 0.2,
            "false alarms too high: {confusion}"
        );
    }

    #[test]
    fn disabling_arc_silences_both_paths() {
        let mut d = fair_dataset(4);
        add_downgrade_burst(&mut d, 40.0, 12, 5, 0.8);
        let det = JointDetector::new(DetectorConfig {
            ablated: Some(AblatedDetector::ArrivalRate),
        });
        let tl = d.product(ProductId::new(0)).unwrap();
        let result = det.detect_product(tl, horizon(), |_| 0.5);
        // Without ARC there is no band evidence, so no marks can be made.
        assert!(result.suspicious.is_empty());
    }

    #[test]
    fn all_intervals_reports_every_detector() {
        let mut d = fair_dataset(5);
        add_downgrade_burst(&mut d, 40.0, 12, 5, 0.8);
        let det = JointDetector::default();
        let tl = d.product(ProductId::new(0)).unwrap();
        let result = det.detect_product(tl, horizon(), |_| 0.5);
        assert!(!result.all_intervals().is_empty());
    }

    #[test]
    fn diluted_extreme_attack_is_adjudicated_by_mean_deviation() {
        // A 40-day drip of near-zeros: no sharp onset for MC peaks, but
        // the L-ARC alarm plus the mean-deviation check on the alarmed
        // interval must still mark it (path 2).
        let mut d = fair_dataset(31);
        for i in 0..50u32 {
            d.insert(
                Rating::new(
                    RaterId::new(70_000 + i),
                    ProductId::new(0),
                    ts(20.0 + f64::from(i) * 0.8),
                    RatingValue::new(0.2).unwrap(),
                ),
                RatingSource::Unfair,
            );
        }
        let det = JointDetector::default();
        let tl = d.product(ProductId::new(0)).unwrap();
        let result = det.detect_product(tl, horizon(), |_| 0.5);
        let truth = GroundTruth::from_dataset(&d);
        let confusion = truth.score(&result.suspicious);
        assert!(
            confusion.recall() > 0.4,
            "diluted drip mostly escaped: {confusion}"
        );
    }

    #[test]
    fn boost_attack_marks_high_band() {
        let mut d = fair_dataset(6);
        // Boost with perfect 5.0s — note fair mean is already 4, so the
        // mean moves little; the arrival + model-error evidence must carry.
        let mut rater = 60_000u32;
        for day in 0..12 {
            for slot in 0..6 {
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        ProductId::new(0),
                        ts(40.0 + f64::from(day) + f64::from(slot) / 6.0),
                        RatingValue::new(5.0).unwrap(),
                    ),
                    RatingSource::Unfair,
                );
                rater += 1;
            }
        }
        let det = JointDetector::default();
        let tl = d.product(ProductId::new(0)).unwrap();
        let result = det.detect_product(tl, horizon(), |_| 0.5);
        assert!(
            result.hits.iter().all(|h| h.band == Band::High) || result.hits.is_empty(),
            "boost attack should only ever mark the high band: {:?}",
            result.hits
        );
    }

    rrs_core::props! {
        #[test]
        fn detection_results_are_thread_count_invariant(
            seed in 0u64..32,
            burst_days in 0usize..12,
            burst_per_day in 3usize..7,
            burst_value in 0.0f64..2.0,
        ) {
            // Detection must reproduce its DetectionResult bit for bit
            // serially and under the full worker pool.
            let mut d = fair_dataset(seed);
            if burst_days > 0 {
                add_downgrade_burst(&mut d, 40.0, burst_days, burst_per_day, burst_value);
            }
            let det = JointDetector::default();
            let trust = |r: RaterId| if r.value() >= 50_000 { 0.2 } else { 0.7 };
            let (serial_marks, serial_results) =
                rrs_core::par::with_threads(1, || det.detect_all(&d, horizon(), trust));
            let (wide_marks, wide_results) =
                rrs_core::par::with_threads(8, || det.detect_all(&d, horizon(), trust));
            rrs_core::prop_assert!(
                serial_marks == wide_marks && serial_results == wide_results,
                "detection diverged between 1 and 8 threads"
            );
        }
    }
}
