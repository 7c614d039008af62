//! The P-scheme: the paper's signal-based reliable rating-aggregation
//! system (Section IV).
//!
//! The pipeline runs **online**, one scoring period (trust epoch) at a
//! time:
//!
//! 1. **Detect** — the joint detector (four detectors, two paths,
//!    Fig. 1) runs over all data seen so far, using the trust values from
//!    the previous epoch for the MC detector's trust-assisted rule.
//! 2. **Update trust** — Procedure 1: each rater's beta record absorbs
//!    the epoch's (ratings, suspicious-ratings) counts.
//! 3. **Filter** — highly suspicious ratings (marked *and* from raters
//!    whose updated trust is below a threshold) are removed from the
//!    epoch's ratings.
//! 4. **Aggregate** — Eq. 7 combines the survivors, weighting each rating
//!    by `max(T − 0.5, 0)`.
//!
//! [`PSchemeState`] runs steps 1–2 per period and 3–4 per product, for
//! [`PScheme::evaluate`] and for the serving engine (`rrs-serve`) alike.
//! Only the trust records and the suspicion set carry from one epoch to
//! the next: step 1 re-detects over all data seen so far, so the
//! detector's rolling state is a cache, rebuilt from the data by the
//! first step after a restore.

use crate::filter::filter_ratings;
use crate::weighted::weighted_aggregate;
use rrs_core::{
    AggregationScheme, DatasetView, EvalContext, ProductId, RaterId, RatingDataset, RatingEntry,
    RatingId, SchemeOutcome, TimeWindow, TimelineView, Timestamp,
};
use rrs_detectors::{Band, DetectionResult, DetectorConfig, JointDetector, OnlineState};
use rrs_trust::{TrustManager, TrustUpdate};
use std::collections::{BTreeMap, BTreeSet};

// Metric names, declared as constants per the `metric-name` lint rule.
const METRIC_SUSPICIOUS_SET: &str = "scheme.suspicious_set_size";
const METRIC_EPOCH_SUSPICIOUS: &str = "scheme.epoch_suspicious";

/// Configuration of the P-scheme pipeline. The default is
/// [`PSchemeConfig::paper`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PSchemeConfig {
    /// Detector settings (windows, thresholds, enable switches).
    pub detectors: DetectorConfig,
    /// Marked ratings from raters below this trust are removed by the
    /// filter (0.5 = the neutral initial trust).
    pub filter_trust_threshold: f64,
    /// Optional per-epoch exponential forgetting of trust evidence
    /// (1.0 or `None` = the paper's no-forgetting Procedure 1; smaller
    /// values let a reformed rater recover faster at the cost of longer
    /// attacker memory).
    pub trust_discount: Option<f64>,
}

impl PSchemeConfig {
    /// The paper's Rating Challenge configuration.
    #[must_use]
    pub fn paper() -> Self {
        PSchemeConfig {
            detectors: DetectorConfig::paper(),
            filter_trust_threshold: 0.5,
            trust_discount: None,
        }
    }
}

impl Default for PSchemeConfig {
    fn default() -> Self {
        PSchemeConfig::paper()
    }
}

/// The signal-based reliable rating-aggregation system.
#[derive(Debug, Clone, Default)]
pub struct PScheme {
    config: PSchemeConfig,
}

impl PScheme {
    /// Creates the scheme with the paper's configuration.
    #[must_use]
    pub fn new() -> Self {
        PScheme {
            config: PSchemeConfig::paper(),
        }
    }

    /// Creates the scheme with an explicit configuration.
    #[must_use]
    pub fn with_config(config: PSchemeConfig) -> Self {
        PScheme { config }
    }

    /// Returns the configuration.
    #[must_use]
    pub const fn config(&self) -> &PSchemeConfig {
        &self.config
    }
}

impl AggregationScheme for PScheme {
    fn name(&self) -> &str {
        "P-scheme"
    }

    fn evaluate(&self, dataset: &RatingDataset, ctx: &EvalContext) -> SchemeOutcome {
        let mut state = PSchemeState::new(self.config);
        let mut out = SchemeOutcome::new();
        let mut scores: BTreeMap<ProductId, Vec<Option<f64>>> = BTreeMap::new();

        for period in ctx.periods() {
            // The epoch span is the root of this epoch's span tree: the
            // detect/trust/aggregate spans below open while it is live,
            // so (in serial execution) they record it as their parent
            // and flamegraph exports show the full hierarchy.
            let _epoch_span = rrs_obs::trace::span("scheme.epoch");
            state.step(dataset, ctx.horizon().start(), period);
            out.mark_suspicious_all(state.suspicious().iter().copied());
            state.trust().publish_gauges();
            for (pid, timeline) in dataset.products() {
                let slice = timeline.in_window(ctx.scoring_window(period));
                scores.entry(pid).or_default().push(state.score(slice));
            }
        }

        for (pid, s) in scores {
            out.insert_scores(pid, s);
        }
        for (rater, record) in state.trust().records() {
            out.set_trust(rater, record.trust());
        }
        out
    }
}

/// The P-scheme between epochs: the trust records and the last epoch's
/// suspicion set, which carry the scheme from one epoch to the next, and
/// the joint detector's rolling state, a cache of the detection over the
/// data seen so far. The accessors and [`PSchemeState::restore`] take the
/// records and the set out and put them back; the cache is never taken
/// out, and a restored state rebuilds it in its first step.
#[derive(Debug)]
pub struct PSchemeState {
    config: PSchemeConfig,
    detector: JointDetector,
    trust: TrustManager,
    online: OnlineState,
    marks: BTreeSet<RatingId>,
}

impl PSchemeState {
    /// A state before its first epoch: no trust evidence, no detector
    /// history, nothing marked.
    #[must_use]
    pub fn new(config: PSchemeConfig) -> Self {
        PSchemeState::restore(config, TrustManager::new(), BTreeSet::new())
    }

    /// A state rebuilt from the trust records and the suspicion set its
    /// accessors returned. The detector cache starts empty: the first
    /// step rebuilds it from the dataset in one full pass, and detects
    /// exactly what the state that saw every earlier epoch would.
    #[must_use]
    pub fn restore(config: PSchemeConfig, trust: TrustManager, marks: BTreeSet<RatingId>) -> Self {
        PSchemeState {
            config,
            detector: JointDetector::new(config.detectors),
            trust,
            online: OnlineState::new(),
            marks,
        }
    }

    /// Runs one epoch: online detection over `[origin, period end)` with
    /// the previous epoch's trust, the optional discount, then Procedure 1
    /// over `period` with the fresh marks, which become the suspicion set.
    /// Records the `scheme.*` series when metrics are on and one decision
    /// record per product when tracing is.
    pub fn step(
        &mut self,
        dataset: &RatingDataset,
        origin: Timestamp,
        period: TimeWindow,
    ) -> TrustUpdate {
        let prefix_window = TimeWindow::ordered(origin, period.end());
        let prefix = dataset.prefix_view(prefix_window);
        // Nothing updates the trust records until detection returns.
        let trust = &self.trust;
        let (marks, per_product) = self.detector.detect_all_online(
            &prefix,
            prefix_window,
            |r: RaterId| trust.trust_of(r),
            &mut self.online,
        );
        if let Some(factor) = self.config.trust_discount {
            self.trust.discount_all(factor);
        }
        let update = self.trust.update_epoch(&prefix, period, &marks);
        // Procedure 1 wrote only the touched records, so the next
        // detection re-reads only their trust. A discount rewrote every
        // record: declare nothing and let it resolve them all.
        if self.config.trust_discount.is_none() {
            self.online
                .declare_trust_changes(update.touched.iter().copied());
        }
        if rrs_obs::enabled() {
            // Written serially from the epoch loop, so the values are
            // thread-count independent.
            rrs_obs::metrics::gauge_set(METRIC_SUSPICIOUS_SET, marks.len() as f64);
            rrs_obs::metrics::observe_quantile(METRIC_EPOCH_SUSPICIOUS, update.suspicious as f64);
        }
        if rrs_obs::tracing() {
            record_decisions(&prefix, period, &per_product, &marks, &update);
        }
        self.marks = marks;
        update
    }

    /// The filtered Eq. 7 score of one product's scoring window, or
    /// `None` for an empty one. If the filter removed everything, the raw
    /// slice is scored: a deployed system never shows "no rating" for a
    /// rated product.
    #[must_use]
    pub fn score(&self, slice: TimelineView<'_>) -> Option<f64> {
        if slice.is_empty() {
            return None;
        }
        let filter_span = rrs_obs::trace::span("aggregate.filter");
        let kept = filter_ratings(
            slice,
            &self.marks,
            |r| self.trust.trust_of(r),
            self.config.filter_trust_threshold,
        );
        drop(filter_span);
        let _weighted_span = rrs_obs::trace::span("aggregate.weighted");
        self.weigh(kept.into_iter())
            .or_else(|| self.weigh(slice.iter()))
    }

    /// Eq. 7 over `entries`, each weighted by its rater's trust.
    fn weigh(&self, entries: impl Iterator<Item = RatingEntry>) -> Option<f64> {
        let pairs: Vec<(f64, f64)> = entries
            .map(|e| (e.value(), self.trust.trust_of(e.rater())))
            .collect();
        weighted_aggregate(&pairs)
    }

    /// The trust records.
    #[must_use]
    pub const fn trust(&self) -> &TrustManager {
        &self.trust
    }

    /// The ratings the last step marked.
    #[must_use]
    pub const fn suspicious(&self) -> &BTreeSet<RatingId> {
        &self.marks
    }
}

/// Builds one [`rrs_obs::decision::DecisionRecord`] per product for the
/// just-finished scoring period and pushes it into the trace buffer.
///
/// Quiet products are recorded too — a trace that only shows alarms
/// cannot answer "why did nothing fire here?".
fn record_decisions(
    prefix: &DatasetView<'_>,
    period: TimeWindow,
    per_product: &[(ProductId, DetectionResult)],
    marks: &BTreeSet<RatingId>,
    update: &TrustUpdate,
) {
    for (pid, result) in per_product {
        let Some(timeline) = prefix.product(*pid) else {
            continue;
        };
        let mut suspicious: Vec<u64> = Vec::new();
        let mut raters: BTreeSet<RaterId> = BTreeSet::new();
        for entry in timeline.in_window(period).iter() {
            if marks.contains(&entry.id()) {
                suspicious.push(entry.id().value());
                raters.insert(entry.rater());
            }
        }
        let trust = raters
            .iter()
            .filter_map(|r| {
                let at = update.deltas.binary_search_by_key(r, |d| d.rater).ok()?;
                Some(&update.deltas[at])
            })
            .map(|d| rrs_obs::decision::TrustTrajectory {
                rater: u64::from(d.rater.value()),
                alpha_before: d.successes_before + 1.0,
                beta_before: d.failures_before + 1.0,
                alpha_after: d.successes_after + 1.0,
                beta_after: d.failures_after + 1.0,
            })
            .collect();
        let detectors = result
            .verdict_summaries()
            .into_iter()
            .map(|v| rrs_obs::decision::DetectorVerdict {
                name: v.name,
                statistic: v.statistic,
                threshold: v.threshold,
                fired: v.fired,
            })
            .collect();
        let paths = result
            .hits
            .iter()
            .map(|h| rrs_obs::decision::PathDecision {
                path: h.path,
                band: match h.band {
                    Band::High => "high",
                    Band::Low => "low",
                },
                start_day: h.window.start().as_days(),
                end_day: h.window.end().as_days(),
                marked: h.marked,
            })
            .collect();
        rrs_obs::decision::record(rrs_obs::decision::DecisionRecord {
            product: u64::from(pid.value()),
            start_day: period.start().as_days(),
            end_day: period.end().as_days(),
            detectors,
            paths,
            suspicious,
            trust,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::rng::RrsRng;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{
        prop_assert, props, Days, GroundTruth, ProductId, RaterId, Rating, RatingSource,
        RatingValue, Timestamp,
    };
    use rrs_detectors::AblatedDetector;

    /// The pre-refactor reference implementation of
    /// [`PScheme::evaluate`]: every epoch materializes its prefix with
    /// `RatingDataset::restricted` (a full copy) instead of the zero-copy
    /// [`RatingDataset::prefix_view`], and re-detects it from scratch with
    /// batch [`JointDetector::detect_all`] over a trust snapshot instead
    /// of carrying online state. Kept behind `#[cfg(test)]` as the oracle
    /// `evaluate` is property-tested against.
    fn evaluate_with_restricted_copies(
        scheme: &PScheme,
        dataset: &RatingDataset,
        ctx: &EvalContext,
    ) -> SchemeOutcome {
        let detector = JointDetector::new(scheme.config.detectors);
        let mut trust = TrustManager::new();
        let mut out = SchemeOutcome::new();
        let mut scores: BTreeMap<ProductId, Vec<Option<f64>>> = BTreeMap::new();
        for period in ctx.periods() {
            let prefix_window = TimeWindow::new(ctx.horizon().start(), period.end())
                .expect("period lies inside the horizon");
            let prefix = dataset.restricted(prefix_window);
            let snapshot = trust.snapshot();
            let (marks, _per_product) = detector.detect_all(&prefix, prefix_window, |r| {
                snapshot.get(&r).copied().unwrap_or(0.5)
            });
            out.mark_suspicious_all(marks.iter().copied());
            if let Some(factor) = scheme.config.trust_discount {
                trust.discount_all(factor);
            }
            trust.update_epoch(&prefix, period, &marks);
            for (pid, timeline) in dataset.products() {
                let slice = timeline.in_window(ctx.scoring_window(period));
                let entry = scores.entry(pid).or_default();
                if slice.is_empty() {
                    entry.push(None);
                    continue;
                }
                let kept = filter_ratings(
                    slice,
                    &marks,
                    |r| trust.trust_of(r),
                    scheme.config.filter_trust_threshold,
                );
                let pairs: Vec<(f64, f64)> = kept
                    .iter()
                    .map(|e| (e.value(), trust.trust_of(e.rater())))
                    .collect();
                let score = weighted_aggregate(&pairs).or_else(|| {
                    let pairs: Vec<(f64, f64)> = slice
                        .iter()
                        .map(|e| (e.value(), trust.trust_of(e.rater())))
                        .collect();
                    weighted_aggregate(&pairs)
                });
                entry.push(score);
            }
        }
        for (pid, s) in scores {
            out.insert_scores(pid, s);
        }
        for (rater, value) in trust.snapshot() {
            out.set_trust(rater, value);
        }
        out
    }

    fn ts(d: f64) -> Timestamp {
        Timestamp::new(d).unwrap()
    }

    /// 90 days of fair data, ~4 ratings/day at mean 4.0, raters recur.
    fn fair_dataset(seed: u64) -> RatingDataset {
        let mut d = RatingDataset::new();
        fill_fair(&mut d, seed, ProductId::new(0));
        d
    }

    /// Appends a fair stream for `product` drawn from a pool of 200
    /// recurring raters, so products filled with different seeds share
    /// raters.
    fn fill_fair(d: &mut RatingDataset, seed: u64, product: ProductId) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for day in 0..90 {
            let n = 3 + (rng.gen::<u8>() % 3) as u32;
            for slot in 0..n {
                // A pool of 200 recurring raters.
                let rater = rng.gen_range(0..200u32);
                d.insert(
                    Rating::new(
                        RaterId::new(rater),
                        product,
                        ts(f64::from(day) + f64::from(slot) / f64::from(n)),
                        RatingValue::new_clamped(4.0 + rng.gen_range(-0.8..0.8)),
                    ),
                    RatingSource::Fair,
                );
            }
        }
    }

    fn add_burst(d: &mut RatingDataset, from: f64, days: usize, per_day: usize, value: f64) {
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

    fn ctx(d: &RatingDataset) -> EvalContext {
        EvalContext::from_dataset(d, Days::new(30.0).unwrap()).unwrap()
    }

    #[test]
    fn fair_data_scores_track_the_mean() {
        let d = fair_dataset(1);
        let out = PScheme::new().evaluate(&d, &ctx(&d));
        let scores = out.scores(ProductId::new(0)).unwrap();
        assert_eq!(scores.len(), 3);
        for s in scores {
            let s = s.expect("every period has fair data");
            assert!((s - 4.0).abs() < 0.25, "score {s} strays from the mean");
        }
        assert!(
            out.suspicious().len() < 10,
            "too many false marks on fair data: {}",
            out.suspicious().len()
        );
    }

    #[test]
    fn naive_downgrade_attack_is_neutralized() {
        let clean = fair_dataset(2);
        let mut attacked = clean.clone();
        add_burst(&mut attacked, 35.0, 12, 5, 0.5);

        let scheme = PScheme::new();
        let context = ctx(&attacked);
        let clean_out = scheme.evaluate(&clean, &context);
        let attacked_out = scheme.evaluate(&attacked, &context);
        let c1 = clean_out.scores(ProductId::new(0)).unwrap()[1].unwrap();
        let a1 = attacked_out.scores(ProductId::new(0)).unwrap()[1].unwrap();

        // The attacked period-1 raw mean would drop by ~1.6; the P-scheme
        // must hold the damage far below that.
        let damage = (a1 - c1).abs();
        assert!(
            damage < 0.8,
            "P-scheme failed to contain a naive burst: damage {damage:.3}"
        );

        // And it should actually detect the attackers.
        let truth = GroundTruth::from_dataset(&attacked);
        let confusion = truth.score(attacked_out.suspicious());
        assert!(confusion.recall() > 0.5, "recall too low: {confusion}");
    }

    #[test]
    fn attacker_trust_collapses() {
        let mut attacked = fair_dataset(3);
        add_burst(&mut attacked, 35.0, 12, 5, 0.5);
        let out = PScheme::new().evaluate(&attacked, &ctx(&attacked));
        // Attackers are rater ids >= 50_000.
        let mut attacker_trust = Vec::new();
        let mut honest_trust = Vec::new();
        for (rater, trust) in out.trust_map() {
            if rater.value() >= 50_000 {
                attacker_trust.push(*trust);
            } else {
                honest_trust.push(*trust);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&attacker_trust) < avg(&honest_trust),
            "attacker trust {:.3} not below honest {:.3}",
            avg(&attacker_trust),
            avg(&honest_trust)
        );
    }

    #[test]
    fn name_and_config() {
        let s = PScheme::new();
        assert_eq!(s.name(), "P-scheme");
        assert_eq!(s.config().filter_trust_threshold, 0.5);
        assert_eq!(s.config().trust_discount, None);
    }

    #[test]
    fn default_scheme_is_the_paper_scheme() {
        // A zeroed default would disable the filter: `filter_ratings`
        // drops only trust strictly below the threshold.
        assert_eq!(PScheme::default().config(), PScheme::new().config());
        assert_eq!(PSchemeConfig::default(), PSchemeConfig::paper());
    }

    props! {
        // `evaluate` (prefix views, online detection, declared trust
        // changes) against the copy-prefix, batch-detection oracle, with
        // and without forgetting, under every single-detector ablation
        // `rrs-eval` runs, and with a second fair product whose raters
        // overlap the first's.
        #[test]
        fn prefix_view_path_equals_restricted_copy_oracle(
            seed in 0u64..64,
            burst in (31.0f64..55.0, 0usize..10, 0.0f64..2.0),
            variant in (0usize..2, 0usize..5),
            second_product in 0usize..2,
        ) {
            let (burst_start, burst_days, burst_value) = burst;
            let (discount, ablated) = variant;
            let mut d = fair_dataset(seed);
            if second_product == 1 {
                fill_fair(&mut d, seed + 1_000, ProductId::new(1));
            }
            if burst_days > 0 {
                add_burst(&mut d, burst_start, burst_days, 4, burst_value);
            }
            let ablated = [
                None,
                Some(AblatedDetector::MeanChange),
                Some(AblatedDetector::ArrivalRate),
                Some(AblatedDetector::Histogram),
                Some(AblatedDetector::ModelError),
            ][ablated];
            let scheme = PScheme::with_config(PSchemeConfig {
                detectors: DetectorConfig { ablated },
                trust_discount: [None, Some(0.8)][discount],
                ..PSchemeConfig::paper()
            });
            let context = ctx(&d);
            let via_view = scheme.evaluate(&d, &context);
            let via_copy = evaluate_with_restricted_copies(&scheme, &d, &context);
            prop_assert!(
                via_view == via_copy,
                "evaluate diverged from the restricted-copy batch oracle"
            );
        }

        #[test]
        fn scheme_outcomes_are_thread_count_invariant(
            seed in 0u64..32,
            burst_start in 31.0f64..55.0,
            burst_days in 0usize..10,
            burst_value in 0.0f64..2.0,
        ) {
            // The full P-scheme pipeline must produce a bit-identical
            // SchemeOutcome serially and under the full worker pool.
            let mut d = fair_dataset(seed);
            if burst_days > 0 {
                add_burst(&mut d, burst_start, burst_days, 4, burst_value);
            }
            let context = ctx(&d);
            let scheme = PScheme::new();
            let serial = rrs_core::par::with_threads(1, || scheme.evaluate(&d, &context));
            let wide = rrs_core::par::with_threads(8, || scheme.evaluate(&d, &context));
            prop_assert!(
                serial == wide,
                "P-scheme diverged between 1 and 8 threads"
            );
        }
    }

    #[test]
    fn forgetting_softens_old_verdicts() {
        // An attacker who only misbehaved in the first epochs ends with
        // higher trust under forgetting than under plain Procedure 1.
        let mut attacked = fair_dataset(9);
        add_burst(&mut attacked, 32.0, 8, 6, 0.5);
        let context = ctx(&attacked);
        let plain = PScheme::new().evaluate(&attacked, &context);
        let forgiving = PScheme::with_config(PSchemeConfig {
            trust_discount: Some(0.5),
            ..PSchemeConfig::paper()
        })
        .evaluate(&attacked, &context);
        let avg_attacker = |o: &rrs_core::SchemeOutcome| {
            let v: Vec<f64> = o
                .trust_map()
                .iter()
                .filter(|(r, _)| r.value() >= 50_000)
                .map(|(_, t)| *t)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(
            avg_attacker(&forgiving) >= avg_attacker(&plain),
            "forgetting should not deepen old distrust: {} vs {}",
            avg_attacker(&forgiving),
            avg_attacker(&plain)
        );
    }
}
