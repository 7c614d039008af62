//! The composed attack generator (paper Fig. 8).
//!
//! `AttackGenerator` wires the three stages together: the value-set
//! generator (bias, variance), the time-set generator (arrival model,
//! duration), and the value–time mapper (correlation strategy). Feeding
//! it an [`AttackContext`] and per-product [`AttackConfig`]s yields the
//! unfair ratings of one challenge submission.

use crate::mapper::{map_values_to_times, MappingStrategy};
use crate::time_gen::{generate_times, ArrivalModel};
use crate::types::{AttackContext, AttackSequence, Direction};
use crate::value_gen::generate_values;
use rrs_core::rng::RrsRng;
use rrs_core::{Days, ProductId, Rating, Timestamp};

/// Parameters of the attack on one product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Magnitude of the bias; the sign comes from the target's
    /// [`Direction`].
    pub bias_magnitude: f64,
    /// Standard deviation of the unfair values.
    pub std_dev: f64,
    /// When the attack starts.
    pub start: Timestamp,
    /// How long the attack lasts.
    pub duration: Days,
    /// Number of unfair ratings (capped at the number of controlled
    /// raters — one rating per rater per product).
    pub count: usize,
    /// Temporal arrival model.
    pub arrival: ArrivalModel,
    /// Value-to-time mapping strategy.
    pub mapping: MappingStrategy,
    /// Calibrate the value generator so the *realized* mean (after
    /// truncation to the rating scale) hits the requested bias. Parameter
    /// sweeps over the variance-bias plane should set this; human-like
    /// strategies leave it off.
    pub calibrated: bool,
}

#[cfg(test)]
impl AttackConfig {
    /// A ten-day burst of 50 maximally biased ratings starting at
    /// `start` — the classic naive attack, as a test fixture.
    fn naive_burst(start: Timestamp) -> Self {
        AttackConfig {
            bias_magnitude: 5.0,
            std_dev: 0.0,
            start,
            duration: Days::new_saturating(10.0),
            count: 50,
            arrival: ArrivalModel::Even,
            mapping: MappingStrategy::InOrder,
            calibrated: false,
        }
    }
}

/// The unfair-rating generator of paper Fig. 8.
#[derive(Debug, Clone, Default)]
pub struct AttackGenerator;

impl AttackGenerator {
    /// Creates a generator.
    #[must_use]
    pub fn new() -> Self {
        AttackGenerator
    }

    /// Generates the unfair ratings for one product.
    ///
    /// The per-rating rater identities are taken from
    /// `ctx.raters` in order; `config.count` is capped at the number of
    /// available raters so the "one rating per rater per object"
    /// challenge rule always holds.
    pub fn generate_product<R: RrsRng + ?Sized>(
        &self,
        rng: &mut R,
        ctx: &AttackContext,
        product: ProductId,
        direction: Direction,
        config: &AttackConfig,
    ) -> Vec<Rating> {
        let fair = ctx.fair_view(product);
        let count = config.count.min(ctx.raters.len());
        let bias = direction.sign() * config.bias_magnitude;
        let values = if config.calibrated {
            crate::value_gen::generate_values_calibrated(
                rng,
                fair.mean,
                bias,
                config.std_dev,
                count,
            )
        } else {
            generate_values(rng, fair.mean, bias, config.std_dev, count)
        };
        let times = generate_times(
            rng,
            config.start,
            config.duration,
            count,
            config.arrival,
            ctx.horizon,
        );
        let pairs = map_values_to_times(rng, &values, &times, config.mapping, fair);
        pairs
            .into_iter()
            .zip(ctx.raters.iter())
            .map(|((time, value), &rater)| Rating::new(rater, product, time, value))
            .collect()
    }

    /// Generates a full submission: the same config applied to every
    /// target of the context (signs per target direction).
    pub fn generate<R: RrsRng + ?Sized>(
        &self,
        rng: &mut R,
        ctx: &AttackContext,
        label: impl Into<String>,
        config: &AttackConfig,
    ) -> AttackSequence {
        let mut ratings = Vec::new();
        for &(product, direction) in &ctx.targets {
            ratings.extend(self.generate_product(rng, ctx, product, direction, config));
        }
        AttackSequence::new(label, ratings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FairView;
    use rrs_core::rng::Xoshiro256pp;
    use rrs_core::{RaterId, TimeWindow};
    use std::collections::BTreeMap;

    fn context() -> AttackContext {
        let fair_points: Vec<(f64, f64)> = (0..180).map(|i| (f64::from(i), 4.0)).collect();
        let mut fair = BTreeMap::new();
        for p in 0..4u16 {
            fair.insert(ProductId::new(p), FairView::new(fair_points.clone()));
        }
        AttackContext {
            horizon: TimeWindow::new(Timestamp::new(0.0).unwrap(), Timestamp::new(180.0).unwrap())
                .unwrap(),
            raters: (0..50).map(RaterId::new).collect(),
            targets: vec![
                (ProductId::new(0), Direction::Boost),
                (ProductId::new(1), Direction::Boost),
                (ProductId::new(2), Direction::Downgrade),
                (ProductId::new(3), Direction::Downgrade),
            ],
            fair,
        }
    }

    #[test]
    fn generates_one_rating_per_rater_per_product() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let ctx = context();
        let seq = AttackGenerator::new().generate(
            &mut rng,
            &ctx,
            "naive",
            &AttackConfig::naive_burst(Timestamp::new(30.0).unwrap()),
        );
        assert_eq!(seq.len(), 200); // 50 raters x 4 products
        for &(product, _) in &ctx.targets {
            let rs = seq.for_product(product);
            assert_eq!(rs.len(), 50);
            let mut raters: Vec<u32> = rs.iter().map(|r| r.rater().value()).collect();
            raters.sort_unstable();
            raters.dedup();
            assert_eq!(raters.len(), 50, "duplicate rater on {product}");
        }
    }

    #[test]
    fn direction_controls_value_side() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let ctx = context();
        let config = AttackConfig {
            bias_magnitude: 3.0,
            std_dev: 0.0,
            ..AttackConfig::naive_burst(Timestamp::new(10.0).unwrap())
        };
        let seq = AttackGenerator::new().generate(&mut rng, &ctx, "directional", &config);
        for r in seq.for_product(ProductId::new(0)) {
            assert_eq!(r.value().get(), 5.0); // boost: 4 + 3 clamped
        }
        for r in seq.for_product(ProductId::new(2)) {
            assert_eq!(r.value().get(), 1.0); // downgrade: 4 - 3
        }
    }

    #[test]
    fn count_is_capped_by_rater_pool() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut ctx = context();
        ctx.raters.truncate(10);
        let config = AttackConfig {
            count: 50,
            ..AttackConfig::naive_burst(Timestamp::new(10.0).unwrap())
        };
        let ratings = AttackGenerator::new().generate_product(
            &mut rng,
            &ctx,
            ProductId::new(0),
            Direction::Boost,
            &config,
        );
        assert_eq!(ratings.len(), 10);
    }

    #[test]
    fn times_respect_attack_window() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let ctx = context();
        let config = AttackConfig {
            start: Timestamp::new(60.0).unwrap(),
            duration: Days::new(15.0).unwrap(),
            arrival: ArrivalModel::Uniform,
            ..AttackConfig::naive_burst(Timestamp::new(60.0).unwrap())
        };
        let ratings = AttackGenerator::new().generate_product(
            &mut rng,
            &ctx,
            ProductId::new(2),
            Direction::Downgrade,
            &config,
        );
        for r in &ratings {
            assert!((60.0..75.0).contains(&r.time().as_days()), "{r}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = context();
        let config = AttackConfig::naive_burst(Timestamp::new(30.0).unwrap());
        let a = AttackGenerator::new().generate(
            &mut Xoshiro256pp::seed_from_u64(42),
            &ctx,
            "a",
            &config,
        );
        let b = AttackGenerator::new().generate(
            &mut Xoshiro256pp::seed_from_u64(42),
            &ctx,
            "b",
            &config,
        );
        assert_eq!(a.ratings, b.ratings);
    }
}
