//! The input stream: N paper Rating Challenge instances laid side by side.
//!
//! Instance `i` owns products `9i .. 9i+8`, its own 800 honest raters and
//! its own 50 attacker ids, so the trust table grows with the population
//! (to tens of thousands of raters on `epoch`). Each instance is attacked by one
//! strategy from the `rrs-attack` catalog, so detectors fire at varied
//! rates. Strategies are dealt round-robin from a seeded offset: a large
//! population then holds nearly the same mix of strategies under every
//! seed, which keeps detection cost from swinging between seeds. The
//! merged stream is ordered by day.

use rrs_attack::strategies::catalog;
use rrs_challenge::fairgen::BIASED_RATER_BASE;
use rrs_challenge::{ChallengeConfig, RatingChallenge};
use rrs_core::rng::{derive_seed, RrsRng, Xoshiro256pp};
use rrs_core::{ProductId, RaterId, Rating, RatingSource};
use rrs_serve::RatingSubmission;
use std::collections::BTreeSet;

/// A generated, day-ordered submission stream.
pub struct Stream {
    /// Every submission, ordered by day.
    pub ratings: Vec<RatingSubmission>,
    /// Products targeted by an attack.
    pub targets: Vec<ProductId>,
    /// Attacker rater ids.
    pub attackers: Vec<RaterId>,
    /// The strategy drawn for each instance.
    pub strategies: Vec<&'static str>,
    /// Distinct products.
    pub products: usize,
    /// Distinct raters.
    pub raters: usize,
}

/// Generates `instances` attacked paper instances from `seed`.
pub fn generate(instances: usize, seed: u64) -> Stream {
    let config = ChallengeConfig::paper();
    let products_per_instance = config.catalog.len() as u16;
    let pool = config.fair.rater_pool;
    let attackers_per_instance = config.biased_raters as u32;
    let strategies = catalog();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let offset = rng.gen_range(0..strategies.len());

    let mut tagged: Vec<(f64, RatingSubmission)> = Vec::new();
    let mut targets = Vec::new();
    let mut attackers = Vec::new();
    let mut drawn = Vec::new();
    for i in 0..instances {
        let challenge = RatingChallenge::generate(&config, derive_seed(seed, i as u64));
        let strategy = &strategies[(offset + i) % strategies.len()];
        let attack = strategy.build(&challenge.attack_context(), &mut rng);
        drawn.push(strategy.name());

        let product_base = i as u16 * products_per_instance;
        let honest_base = i as u32 * pool;
        let attacker_base = BIASED_RATER_BASE + i as u32 * attackers_per_instance;
        let remap = |rating: &Rating, source: RatingSource| {
            let rater = rating.rater().value();
            let rater = if rater >= BIASED_RATER_BASE {
                attacker_base + (rater - BIASED_RATER_BASE)
            } else {
                honest_base + rater
            };
            RatingSubmission {
                rater: RaterId::new(rater),
                product: ProductId::new(product_base + rating.product().value()),
                day: rating.time(),
                value: rating.value(),
                source,
            }
        };
        for entry in challenge.fair_dataset().iter() {
            let s = remap(entry.rating(), RatingSource::Fair);
            tagged.push((s.day.as_days(), s));
        }
        for rating in &attack.ratings {
            let s = remap(rating, RatingSource::Unfair);
            tagged.push((s.day.as_days(), s));
        }
        for &p in challenge
            .config()
            .boost_targets
            .iter()
            .chain(&challenge.config().downgrade_targets)
        {
            targets.push(ProductId::new(product_base + p.value()));
        }
        attackers.extend((0..attackers_per_instance).map(|k| RaterId::new(attacker_base + k)));
    }
    // A stable sort keeps instance order, then generation order, on ties.
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ratings: Vec<RatingSubmission> = tagged.into_iter().map(|(_, s)| s).collect();
    let products = ratings
        .iter()
        .map(|s| s.product)
        .collect::<BTreeSet<_>>()
        .len();
    let raters = ratings
        .iter()
        .map(|s| s.rater)
        .collect::<BTreeSet<_>>()
        .len();
    Stream {
        ratings,
        targets,
        attackers,
        strategies: drawn,
        products,
        raters,
    }
}
