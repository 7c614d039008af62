//! The Rating Challenge harness.

use crate::fairgen::{generate_fair_data, horizon_of, FairDataConfig, BIASED_RATER_BASE};
use crate::products::ProductCatalog;
use crate::submission::{validate_submission, SubmissionError};
use rrs_attack::{AttackContext, AttackSequence, Direction, FairView};
use rrs_core::{
    manipulation_power, AggregationScheme, CoreError, EvalContext, MpParams, MpReport, ProductId,
    RaterId, RatingDataset, RatingSource, TimeWindow,
};
use std::collections::BTreeMap;

/// Configuration of a Rating Challenge instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChallengeConfig {
    /// The products being rated.
    pub catalog: ProductCatalog,
    /// Fair-data generation parameters.
    pub fair: FairDataConfig,
    /// Number of biased raters a participant controls.
    pub biased_raters: usize,
    /// Products participants must boost.
    pub boost_targets: Vec<ProductId>,
    /// Products participants must downgrade.
    pub downgrade_targets: Vec<ProductId>,
    /// MP scoring parameters.
    pub mp: MpParams,
    /// The sub-window of the horizon in which unfair ratings may be
    /// inserted, as `(start fraction, end fraction)` of the horizon.
    ///
    /// The paper's challenge ran April 25 – July 15, 2007, *inside* a
    /// longer fair rating history — participants insert ratings "now",
    /// they cannot back-date them to before the challenge opened. This
    /// embedding is what guarantees every attack creates a change point
    /// the detectors can see.
    pub attack_window_frac: (f64, f64),
}

impl ChallengeConfig {
    /// The paper's challenge: nine TVs, 50 biased raters, boost two
    /// products and downgrade two others, monthly MP with the top two
    /// periods counted.
    #[must_use]
    pub fn paper() -> Self {
        ChallengeConfig {
            catalog: ProductCatalog::paper_tvs(),
            fair: FairDataConfig::paper(),
            biased_raters: 50,
            boost_targets: vec![ProductId::new(0), ProductId::new(1)],
            downgrade_targets: vec![ProductId::new(2), ProductId::new(3)],
            mp: MpParams::paper(),
            // Days 60..150 of the 180-day history: ~90 days of attack
            // surface, like the paper's ~82-day challenge.
            attack_window_frac: (1.0 / 3.0, 5.0 / 6.0),
        }
    }

    /// A reduced configuration for fast tests: three products, 90 days.
    #[must_use]
    pub fn small() -> Self {
        ChallengeConfig {
            catalog: ProductCatalog::small(),
            fair: FairDataConfig::small(),
            biased_raters: 50,
            boost_targets: vec![ProductId::new(0)],
            downgrade_targets: vec![ProductId::new(2)],
            mp: MpParams::paper(),
            attack_window_frac: (1.0 / 3.0, 5.0 / 6.0),
        }
    }
}

/// A generated Rating Challenge: fair data plus the rules.
#[derive(Debug, Clone)]
pub struct RatingChallenge {
    config: ChallengeConfig,
    fair: RatingDataset,
    horizon: TimeWindow,
    raters: Vec<RaterId>,
}

impl RatingChallenge {
    /// Generates a challenge instance (fair data) from a configuration
    /// and seed.
    #[must_use]
    pub fn generate(config: &ChallengeConfig, seed: u64) -> Self {
        let _span = rrs_obs::trace::span("challenge.generate");
        let fair = generate_fair_data(&config.catalog, &config.fair, seed);
        let horizon = horizon_of(&config.fair);
        let raters = (0..config.biased_raters as u32)
            .map(|i| RaterId::new(BIASED_RATER_BASE + i))
            .collect();
        RatingChallenge {
            config: config.clone(),
            fair,
            horizon,
            raters,
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub const fn config(&self) -> &ChallengeConfig {
        &self.config
    }

    /// Returns the fair dataset participants download.
    #[must_use]
    pub const fn fair_dataset(&self) -> &RatingDataset {
        &self.fair
    }

    /// Returns the challenge horizon (the full fair-data window MP is
    /// scored over).
    #[must_use]
    pub const fn horizon(&self) -> TimeWindow {
        self.horizon
    }

    /// Returns the window in which unfair ratings may be inserted.
    #[must_use]
    pub fn attack_window(&self) -> TimeWindow {
        let len = self.horizon.length().get();
        let (lo, hi) = self.config.attack_window_frac;
        let start = self.horizon.start().as_days() + len * lo;
        let end = self.horizon.start().as_days() + len * hi;
        TimeWindow::ordered(
            rrs_core::Timestamp::saturating(start),
            rrs_core::Timestamp::saturating(end),
        )
    }

    /// Returns the biased rater ids a participant controls.
    #[must_use]
    pub fn raters(&self) -> &[RaterId] {
        &self.raters
    }

    /// Returns the scoring context shared by every evaluation.
    #[must_use]
    pub fn eval_context(&self) -> EvalContext {
        EvalContext::new(self.horizon, self.config.mp.period).with_scoring(self.config.mp.scoring)
    }

    /// Builds the attacker's view: fair histories, controlled raters,
    /// targets.
    #[must_use]
    pub fn attack_context(&self) -> AttackContext {
        let mut fair = BTreeMap::new();
        for (pid, timeline) in self.fair.products() {
            let points: Vec<(f64, f64)> = timeline
                .iter()
                .map(|e| (e.time().as_days(), e.value()))
                .collect();
            fair.insert(pid, FairView::new(points));
        }
        let mut targets: Vec<(ProductId, Direction)> = Vec::new();
        for &p in &self.config.boost_targets {
            targets.push((p, Direction::Boost));
        }
        for &p in &self.config.downgrade_targets {
            targets.push((p, Direction::Downgrade));
        }
        AttackContext {
            // The attacker's placement window is the attack window, not
            // the full horizon: ratings cannot be back-dated.
            horizon: self.attack_window(),
            raters: self.raters.clone(),
            targets,
            fair,
        }
    }

    /// Validates a submission against the challenge rules.
    ///
    /// # Errors
    ///
    /// Returns the first [`SubmissionError`] found.
    pub fn validate(&self, sequence: &AttackSequence) -> Result<(), SubmissionError> {
        validate_submission(sequence, &self.raters, self.attack_window())
    }

    /// Builds the attacked dataset: fair data plus the submission's
    /// unfair ratings (ground-truth labeled).
    #[must_use]
    pub fn attacked_dataset(&self, sequence: &AttackSequence) -> RatingDataset {
        let mut attacked = self.fair.clone();
        for &rating in &sequence.ratings {
            attacked.insert(rating, RatingSource::Unfair);
        }
        attacked
    }

    /// Scores a submission's MP against a defense scheme.
    ///
    /// Evaluates the scheme on the clean data and on the attacked data;
    /// for scoring many submissions against one scheme use
    /// [`crate::ScoringSession`], which caches the clean evaluation.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the MP computation (empty datasets).
    pub fn score(
        &self,
        scheme: &dyn AggregationScheme,
        sequence: &AttackSequence,
    ) -> Result<MpReport, CoreError> {
        let _span = rrs_obs::trace::span("challenge.score");
        let attacked = self.attacked_dataset(sequence);
        manipulation_power(scheme, &self.fair, &attacked, &self.config.mp)
    }

    /// Scores an arbitrary labeled dataset against the scheme (used for
    /// the zero-attack sanity check and for externally constructed
    /// attacks).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the MP computation.
    pub fn score_dataset(
        &self,
        scheme: &dyn AggregationScheme,
        attacked: &RatingDataset,
    ) -> Result<MpReport, CoreError> {
        manipulation_power(scheme, &self.fair, attacked, &self.config.mp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_attack::AttackStrategy;
    use rrs_core::rng::Xoshiro256pp;

    struct MeanScheme;
    impl AggregationScheme for MeanScheme {
        fn name(&self) -> &str {
            "mean"
        }
        fn evaluate(&self, dataset: &RatingDataset, ctx: &EvalContext) -> rrs_core::SchemeOutcome {
            let mut out = rrs_core::SchemeOutcome::new();
            for (pid, tl) in dataset.products() {
                let scores = ctx
                    .periods()
                    .iter()
                    .map(|w| {
                        let s = tl.in_window(*w);
                        if s.is_empty() {
                            None
                        } else {
                            Some(s.iter().map(|e| e.value()).sum::<f64>() / s.len() as f64)
                        }
                    })
                    .collect();
                out.insert_scores(pid, scores);
            }
            out
        }
    }

    #[test]
    fn generated_challenge_is_consistent() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 1);
        assert_eq!(c.raters().len(), 50);
        assert_eq!(c.fair_dataset().product_ids().len(), 3);
        assert!(c.eval_context().periods().len() >= 3);
    }

    #[test]
    fn attack_context_mirrors_config() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 2);
        let ctx = c.attack_context();
        assert_eq!(ctx.targets.len(), 2);
        assert_eq!(ctx.raters.len(), 50);
        assert!(ctx.fair.contains_key(&ProductId::new(0)));
    }

    #[test]
    fn zero_attack_scores_zero() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 3);
        let empty = AttackSequence::new("empty", Vec::new());
        let report = c.score(&MeanScheme, &empty).unwrap();
        assert_eq!(report.total(), 0.0);
    }

    #[test]
    fn naive_attack_hurts_undefended_mean() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 4);
        let ctx = c.attack_context();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let seq = AttackStrategy::NaiveExtreme {
            start_day: 35.0,
            duration_days: 10.0,
        }
        .build(&ctx, &mut rng);
        c.validate(&seq).unwrap();
        let report = c.score(&MeanScheme, &seq).unwrap();
        assert!(
            report.total() > 1.0,
            "naive attack should devastate plain averaging, MP = {}",
            report.total()
        );
    }

    #[test]
    fn attacked_dataset_labels_ground_truth() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 6);
        let ctx = c.attack_context();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let seq = AttackStrategy::UniformSpread.build(&ctx, &mut rng);
        let attacked = c.attacked_dataset(&seq);
        assert_eq!(attacked.unfair_ids().len(), seq.len());
        assert_eq!(attacked.len(), c.fair_dataset().len() + seq.len());
    }

    #[test]
    fn submissions_from_strategies_validate() {
        let c = RatingChallenge::generate(&ChallengeConfig::small(), 8);
        let ctx = c.attack_context();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for strategy in rrs_attack::strategies::catalog() {
            let seq = strategy.build(&ctx, &mut rng);
            assert_eq!(
                c.validate(&seq),
                Ok(()),
                "{} violates challenge rules",
                strategy.name()
            );
        }
    }
}
