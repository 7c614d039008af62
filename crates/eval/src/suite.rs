//! Experiment suite wiring: the setup every experiment shares.

use rrs_attack::{generate_population, AttackContext, PopulationConfig, SubmissionSpec};
use rrs_challenge::{ChallengeConfig, RatingChallenge};
use std::path::PathBuf;

/// How big the experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for tests and quick iteration: 3 products, 90 days,
    /// a 60-submission population.
    Small,
    /// The paper's sizes: 9 products, 180 days, 251 submissions.
    Paper,
}

/// Suite configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed (fair data, population, and per-experiment RNGs
    /// derive from it).
    pub seed: u64,
    /// Where to write CSVs and summaries (`None` = don't write).
    pub out_dir: Option<PathBuf>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            scale: Scale::Paper,
            seed: 42,
            out_dir: None,
        }
    }
}

/// Shared setup every experiment consumes: the challenge, the attacker
/// context, and the synthetic submission population.
#[derive(Debug)]
pub struct Workbench {
    /// Suite configuration.
    pub config: SuiteConfig,
    /// The generated challenge.
    pub challenge: RatingChallenge,
    /// The attacker's view of it.
    pub attack_ctx: AttackContext,
    /// The synthetic submission population.
    pub population: Vec<SubmissionSpec>,
}

impl Workbench {
    /// Builds the workbench for a configuration (kept by internal clone:
    /// callers reuse their `SuiteConfig` for reporting and reruns).
    #[must_use]
    pub fn build(config: &SuiteConfig) -> Self {
        let _span = rrs_obs::trace::span("eval.workbench_build");
        let challenge_config = match config.scale {
            Scale::Small => ChallengeConfig::small(),
            Scale::Paper => ChallengeConfig::paper(),
        };
        let challenge = RatingChallenge::generate(&challenge_config, config.seed);
        let attack_ctx = challenge.attack_context();
        let population_config = PopulationConfig {
            size: match config.scale {
                Scale::Small => 60,
                Scale::Paper => 251,
            },
            seed: config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        };
        let population = generate_population(&attack_ctx, &population_config);
        Workbench {
            config: config.clone(),
            challenge,
            attack_ctx,
            population,
        }
    }

    /// The downgrade target the per-product figures focus on (the paper
    /// reports "product 1", a downgraded product; results for other
    /// products are similar). `None` when the challenge configuration
    /// defines no downgrade target.
    #[must_use]
    pub fn focus_product(&self) -> Option<rrs_core::ProductId> {
        self.challenge.config().downgrade_targets.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_builds_at_small_scale() {
        let wb = Workbench::build(&SuiteConfig {
            scale: Scale::Small,
            seed: 1,
            out_dir: None,
        });
        assert_eq!(wb.population.len(), 60);
        assert_eq!(wb.challenge.fair_dataset().product_ids().len(), 3);
        assert_eq!(wb.focus_product(), Some(rrs_core::ProductId::new(2)));
    }
}
