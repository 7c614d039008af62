//! Efficient scoring of submission populations.
//!
//! The MP metric needs the defense scheme's outcome on both the clean and
//! the attacked dataset. The clean outcome depends only on the scheme and
//! the challenge, so [`ScoringSession`] computes it once and reuses it
//! for every submission — this is what makes scoring a 251-submission
//! population (×3 schemes) and the Procedure-2 search affordable.

use crate::challenge::RatingChallenge;
use rrs_attack::{AttackSequence, SubmissionSpec};
use rrs_core::{
    mp_from_outcomes, AggregationScheme, EvalContext, GroundTruth, MpReport, SchemeOutcome,
};

/// One submission's score under one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredSubmission {
    /// Population index of the submission.
    pub id: usize,
    /// Strategy name.
    pub strategy: &'static str,
    /// Whether the strategy is straightforward.
    pub straightforward: bool,
    /// The MP report.
    pub report: MpReport,
}

/// A reusable scoring context for one `(challenge, scheme)` pair.
pub struct ScoringSession<'a> {
    challenge: &'a RatingChallenge,
    scheme: &'a dyn AggregationScheme,
    ctx: EvalContext,
    clean_outcome: SchemeOutcome,
}

impl<'a> ScoringSession<'a> {
    /// Creates a session, evaluating the scheme once on the clean data.
    #[must_use]
    pub fn new(challenge: &'a RatingChallenge, scheme: &'a dyn AggregationScheme) -> Self {
        let ctx = challenge.eval_context();
        let clean_outcome = scheme.evaluate(challenge.fair_dataset(), &ctx);
        ScoringSession {
            challenge,
            scheme,
            ctx,
            clean_outcome,
        }
    }

    /// Scores one submission.
    #[must_use]
    pub fn score(&self, sequence: &AttackSequence) -> MpReport {
        self.score_detailed(sequence).0
    }

    /// Scores one submission and also returns the scheme outcome on the
    /// attacked dataset plus the ground truth — for detection-quality
    /// analysis.
    #[must_use]
    pub fn score_detailed(
        &self,
        sequence: &AttackSequence,
    ) -> (MpReport, SchemeOutcome, GroundTruth) {
        let attacked = self.challenge.attacked_dataset(sequence);
        let attacked_outcome = self.scheme.evaluate(&attacked, &self.ctx);
        let truth = GroundTruth::from_dataset(&attacked);
        let report = mp_from_outcomes(
            self.challenge.fair_dataset(),
            &self.clean_outcome,
            &attacked,
            &attacked_outcome,
            &self.challenge.config().mp,
        );
        (report, attacked_outcome, truth)
    }

    /// Scores a whole population.
    ///
    /// Submissions are independent, so they are scored across the worker
    /// threads of [`rrs_core::par::par_map`]; results keep population
    /// order and are bit-identical to a serial pass (set `RRS_THREADS=1`
    /// to force one).
    #[must_use]
    pub fn score_population(&self, population: &[SubmissionSpec]) -> Vec<ScoredSubmission> {
        rrs_core::par::par_map(population, |_, spec| ScoredSubmission {
            id: spec.id,
            strategy: spec.strategy,
            straightforward: spec.straightforward,
            report: self.score(&spec.sequence),
        })
    }
}

impl std::fmt::Debug for ScoringSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringSession")
            .field("scheme", &self.scheme.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::ChallengeConfig;
    use rrs_aggregation::SaScheme;
    use rrs_attack::AttackStrategy;
    use rrs_core::rng::Xoshiro256pp;

    #[test]
    fn session_matches_direct_scoring() {
        let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 1);
        let scheme = SaScheme::new();
        let session = ScoringSession::new(&challenge, &scheme);
        let ctx = challenge.attack_context();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let seq = AttackStrategy::NaiveExtreme {
            start_day: 35.0,
            duration_days: 10.0,
        }
        .build(&ctx, &mut rng);
        let via_session = session.score(&seq);
        let direct = challenge.score(&scheme, &seq).unwrap();
        assert_eq!(via_session, direct);
        assert_eq!(session.scheme.name(), "SA-scheme");
    }

    #[test]
    fn detailed_score_exposes_ground_truth() {
        let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 3);
        let scheme = SaScheme::new();
        let session = ScoringSession::new(&challenge, &scheme);
        let ctx = challenge.attack_context();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let seq = AttackStrategy::UniformSpread.build(&ctx, &mut rng);
        let (report, _outcome, truth) = session.score_detailed(&seq);
        assert!(report.total() > 0.0);
        assert_eq!(truth.unfair_count(), seq.len());
    }
}
