//! The BF-scheme: beta-function filtering (paper Section V-A, after
//! Whitby, Jøsang & Indulska 2004).
//!
//! The representative majority-rule baseline. Per product and scoring
//! checkpoint:
//!
//! 1. Normalize rating values to `[0, 1]` and locate the majority
//!    opinion — the median of the window's values (the median resists
//!    the drag an attack exerts on the mean).
//! 2. Exclude every rater whose (mean) rating value is *far from the
//!    majority's opinion*: farther than `K` times the window's value
//!    spread. The spread-scaled radius is the paper's own account of why
//!    this family fails — "when the overall rating values have a large
//!    variation, it is difficult to judge whether some specific rating
//!    values are far from the majority's opinion" — so unfair-rating
//!    variance inflates the radius and buys evasion (Fig. 4).
//! 3. Aggregate the surviving ratings by their plain mean; excluded
//!    ratings count as failures in the rater's beta-function trust
//!    `(S + 1)/(S + F + 2)`, exactly the trust form the paper gives for
//!    this scheme.
//!
//! One exclusion round per window: iterating to a fixpoint with
//! single-rating raters is an unstable cascade (each exclusion moves the
//! majority, which excludes the next band of honest raters).

use rrs_core::{
    AggregationScheme, EvalContext, RaterId, RatingDataset, SchemeOutcome, TimelineView,
};
use std::collections::{BTreeMap, BTreeSet};

/// Exclusion radius in units of the window's robust value spread
/// (1.4826 × MAD): a rater is excluded when their mean value sits more
/// than `K × spread` from the majority opinion.
///
/// K = 2.8 keeps the filter just sharp enough to cut the zero-variance
/// extreme corner (distance ~0.72 normalized vs a bimodality-inflated
/// spread of ~0.3) while anything with moderate variance widens the
/// radius past its own distance — the Fig. 4 behavior.
const K: f64 = 2.8;

/// Lower bound on the spread (normalized units), so a freakishly quiet
/// window cannot exclude everyone.
const SPREAD_FLOOR: f64 = 0.1;

/// Beta-function filtering aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BfScheme;

impl BfScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        BfScheme
    }
}

impl AggregationScheme for BfScheme {
    fn name(&self) -> &str {
        "BF-scheme"
    }

    fn evaluate(&self, dataset: &RatingDataset, ctx: &EvalContext) -> SchemeOutcome {
        let mut out = SchemeOutcome::new();
        let periods = ctx.periods();
        // Global (S, F) counts per rater, accumulated across products and
        // periods in time order.
        let mut successes: BTreeMap<RaterId, u64> = BTreeMap::new();
        let mut failures: BTreeMap<RaterId, u64> = BTreeMap::new();
        let mut scores: BTreeMap<rrs_core::ProductId, Vec<Option<f64>>> = BTreeMap::new();

        for period in &periods {
            for (pid, timeline) in dataset.products() {
                let slice = timeline.in_window(ctx.scoring_window(*period));
                let entry = scores.entry(pid).or_default();
                if slice.is_empty() {
                    entry.push(None);
                    continue;
                }
                let (score, excluded) = self.filter_window(slice);
                entry.push(Some(score));
                // (S, F) counts accumulate from the ratings that are new
                // in this period, judged by the current filter verdict —
                // otherwise cumulative windows would recount every rating
                // each month.
                for e in timeline.in_window(*period).iter() {
                    if excluded.contains(&e.rater()) {
                        *failures.entry(e.rater()).or_insert(0) += 1;
                        out.mark_suspicious(e.id());
                    } else {
                        *successes.entry(e.rater()).or_insert(0) += 1;
                    }
                }
            }
        }
        for (pid, s) in scores {
            out.insert_scores(pid, s);
        }
        let raters: BTreeSet<RaterId> = successes.keys().chain(failures.keys()).copied().collect();
        for rater in raters {
            let s = *successes.get(&rater).unwrap_or(&0) as f64;
            let f = *failures.get(&rater).unwrap_or(&0) as f64;
            out.set_trust(rater, (s + 1.0) / (s + f + 2.0));
        }
        out
    }
}

impl BfScheme {
    /// Runs one exclusion round on one window of ratings. Returns the
    /// aggregated (raw-scale) score and the set of excluded raters.
    fn filter_window(&self, slice: TimelineView<'_>) -> (f64, BTreeSet<RaterId>) {
        // Group normalized values per rater.
        let mut per_rater: BTreeMap<RaterId, Vec<f64>> = BTreeMap::new();
        for e in slice.iter() {
            per_rater
                .entry(e.rater())
                .or_default()
                .push(e.rating().value().normalized());
        }
        let mut excluded: BTreeSet<RaterId> = BTreeSet::new();

        let all_values: Vec<f64> = slice
            .iter()
            .map(|e| e.rating().value().normalized())
            .collect();
        let majority = rrs_signal::stats::median(&all_values).unwrap_or(0.5);
        // Robust spread: 1.4826 x MAD estimates sigma for Gaussian data
        // but, unlike the raw standard deviation, is not inflated by the
        // attack's own bimodal mass — otherwise a large enough attack
        // would widen its own acceptance radius.
        let deviations: Vec<f64> = all_values.iter().map(|v| (v - majority).abs()).collect();
        let spread =
            (1.4826 * rrs_signal::stats::median(&deviations).unwrap_or(0.0)).max(SPREAD_FLOOR);
        let radius = K * spread;
        for (rater, values) in &per_rater {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            if (mean - majority).abs() > radius {
                excluded.insert(*rater);
            }
        }

        // Aggregate surviving ratings on the raw scale; if everyone was
        // excluded (pathological window) fall back to the plain mean.
        let survivors: Vec<f64> = slice
            .iter()
            .filter(|e| !excluded.contains(&e.rater()))
            .map(|e| e.value())
            .collect();
        let score = if survivors.is_empty() {
            slice.iter().map(|e| e.value()).sum::<f64>() / slice.len() as f64
        } else {
            survivors.iter().sum::<f64>() / survivors.len() as f64
        };
        (score, excluded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::{Days, ProductId, Rating, RatingSource, RatingValue, Timestamp};

    fn rating(rater: u32, day: f64, value: f64) -> Rating {
        Rating::new(
            RaterId::new(rater),
            ProductId::new(0),
            Timestamp::new(day).unwrap(),
            RatingValue::new_clamped(value),
        )
    }

    fn ctx(d: &RatingDataset) -> EvalContext {
        EvalContext::from_dataset(d, Days::new(30.0).unwrap()).unwrap()
    }

    #[test]
    fn honest_window_keeps_everyone() {
        let mut d = RatingDataset::new();
        for i in 0..20u32 {
            d.insert(rating(i, f64::from(i), 4.0), RatingSource::Fair);
        }
        let out = BfScheme::new().evaluate(&d, &ctx(&d));
        assert!(out.suspicious().is_empty());
        let scores = out.scores(ProductId::new(0)).unwrap();
        assert!((scores[0].unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_minority_is_filtered() {
        let mut d = RatingDataset::new();
        for i in 0..20u32 {
            d.insert(rating(i, f64::from(i), 4.0), RatingSource::Fair);
        }
        // Five attackers rating 0 with zero variance.
        for i in 100..105u32 {
            d.insert(rating(i, 15.0, 0.0), RatingSource::Unfair);
        }
        let out = BfScheme::new().evaluate(&d, &ctx(&d));
        assert_eq!(out.suspicious().len(), 5, "attackers not all filtered");
        let scores = out.scores(ProductId::new(0)).unwrap();
        assert!(
            (scores[0].unwrap() - 4.0).abs() < 0.05,
            "score {:?} still biased",
            scores[0]
        );
        // Attacker trust collapses, honest trust rises.
        assert!(out.trust(RaterId::new(100)).unwrap() < 0.5);
        assert!(out.trust(RaterId::new(0)).unwrap() > 0.5);
    }

    #[test]
    fn moderate_variance_attack_slips_through() {
        // The paper's key observation about majority-rule filters: unfair
        // ratings with moderate bias evade the quantile test.
        let mut d = RatingDataset::new();
        for i in 0..20u32 {
            d.insert(rating(i, f64::from(i), 4.0), RatingSource::Fair);
        }
        // Attackers rate 3.2 — biased but not extreme.
        for i in 100..110u32 {
            d.insert(rating(i, 15.0, 3.2), RatingSource::Unfair);
        }
        let out = BfScheme::new().evaluate(&d, &ctx(&d));
        let scores = out.scores(ProductId::new(0)).unwrap();
        assert!(
            scores[0].unwrap() < 3.95,
            "moderate attack should move the BF score, got {:?}",
            scores[0]
        );
    }

    #[test]
    fn scheme_name() {
        assert_eq!(BfScheme::new().name(), "BF-scheme");
    }

    #[test]
    fn empty_period_scores_none() {
        let mut d = RatingDataset::new();
        d.insert(rating(0, 40.0, 4.0), RatingSource::Fair);
        let out = BfScheme::new().evaluate(&d, &ctx(&d));
        let scores = out.scores(ProductId::new(0)).unwrap();
        assert_eq!(scores[0], None);
        assert!(scores[1].is_some());
    }
}
