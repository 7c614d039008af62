//! The fair-rating data generator.
//!
//! Substitutes for the paper's scraped TV-rating data (see DESIGN.md).
//! The generator reproduces the properties the detectors are sensitive
//! to, including the *non-stationarity of honest ratings* the paper
//! stresses ("even without unfair ratings, fair ratings can have
//! variation such as in mean and arrival rate"):
//!
//! * Poisson daily arrivals at a per-product base rate;
//! * weekly modulation (weekend shopping traffic);
//! * occasional promotion bursts that raise the arrival rate — natural
//!   events a naive rate detector would false-alarm on;
//! * truncated-Gaussian values around the product quality, with
//!   per-rater leniency offsets;
//! * a recurring rater pool, so trust in honest raters can accumulate.

use crate::products::ProductCatalog;
use rrs_core::rng::RrsRng;
use rrs_core::rng::Xoshiro256pp;
use rrs_core::{
    Days, RaterId, Rating, RatingDataset, RatingSource, RatingValue, TimeWindow, Timestamp,
};
use rrs_signal::sampling::{gaussian, poisson, truncated_gaussian};

/// Configuration of the fair-rating generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairDataConfig {
    /// Length of the rating history in days.
    pub horizon_days: f64,
    /// Size of the honest rater pool.
    pub rater_pool: u32,
    /// Weekend arrival multiplier (1.0 = no weekly pattern).
    pub weekend_factor: f64,
    /// Expected number of promotion bursts per product over the horizon.
    pub bursts_per_product: f64,
    /// Arrival multiplier during a promotion burst.
    pub burst_factor: f64,
    /// Duration of a promotion burst in days.
    pub burst_days: f64,
    /// Standard deviation of per-rater leniency offsets.
    pub rater_leniency_std: f64,
    /// Round values to the nearest half star (real sites use discrete
    /// scales; continuous values are the default because the paper's
    /// bias/variance analysis is continuous).
    pub discretize_half_stars: bool,
}

impl FairDataConfig {
    /// The default 180-day challenge configuration.
    #[must_use]
    pub fn paper() -> Self {
        FairDataConfig {
            horizon_days: 180.0,
            rater_pool: 800,
            weekend_factor: 1.35,
            bursts_per_product: 1.5,
            burst_factor: 1.8,
            burst_days: 5.0,
            rater_leniency_std: 0.25,
            discretize_half_stars: false,
        }
    }

    /// A fast 90-day configuration for tests.
    #[must_use]
    pub fn small() -> Self {
        FairDataConfig {
            horizon_days: 90.0,
            rater_pool: 250,
            ..FairDataConfig::paper()
        }
    }
}

impl Default for FairDataConfig {
    fn default() -> Self {
        FairDataConfig::paper()
    }
}

/// Generates the fair rating dataset for a catalog.
///
/// Deterministic given `seed`. Honest rater ids are drawn from
/// `0..config.rater_pool`; attack code should use ids at or above
/// [`BIASED_RATER_BASE`] to stay disjoint.
#[must_use]
pub fn generate_fair_data(
    catalog: &ProductCatalog,
    config: &FairDataConfig,
    seed: u64,
) -> RatingDataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut dataset = RatingDataset::new();

    // Per-rater leniency: some honest raters are systematically generous
    // or harsh. Sampled lazily and cached.
    let mut leniency = vec![f64::NAN; config.rater_pool as usize];

    for product in catalog.products() {
        // Promotion burst windows for this product.
        let n_bursts = poisson(&mut rng, config.bursts_per_product) as usize;
        let bursts: Vec<(f64, f64)> = (0..n_bursts)
            .map(|_| {
                let start = rng.gen_range(0.0..(config.horizon_days - config.burst_days).max(1.0));
                (start, start + config.burst_days)
            })
            .collect();

        let days = config.horizon_days.ceil() as usize;
        for day in 0..days {
            let day_f = day as f64;
            let weekly = if day % 7 >= 5 {
                config.weekend_factor
            } else {
                1.0
            };
            let burst = if bursts.iter().any(|&(s, e)| day_f >= s && day_f < e) {
                config.burst_factor
            } else {
                1.0
            };
            let rate = product.daily_rate * weekly * burst;
            let count = poisson(&mut rng, rate);
            for _ in 0..count {
                let rater_idx = rng.gen_range(0..config.rater_pool) as usize;
                if leniency[rater_idx].is_nan() {
                    leniency[rater_idx] = gaussian(&mut rng, 0.0, config.rater_leniency_std);
                }
                let t = day_f + rng.gen_range(0.0..1.0);
                let mut value = truncated_gaussian(
                    &mut rng,
                    product.quality + leniency[rater_idx],
                    product.noise,
                    RatingValue::SCALE_MIN,
                    RatingValue::SCALE_MAX,
                );
                if config.discretize_half_stars {
                    value = (value * 2.0).round() / 2.0;
                }
                dataset.insert(
                    Rating::new(
                        RaterId::new(rater_idx as u32),
                        product.id,
                        Timestamp::saturating(t.min(config.horizon_days - 1e-6)),
                        RatingValue::new_clamped(value),
                    ),
                    RatingSource::Fair,
                );
            }
        }
    }
    dataset
}

/// First rater id reserved for biased (attacker-controlled) raters.
pub const BIASED_RATER_BASE: u32 = 1_000_000;

/// Returns the time window `[0, horizon_days)` of a fair configuration.
#[must_use]
pub fn horizon_of(config: &FairDataConfig) -> TimeWindow {
    TimeWindow::with_length(
        Timestamp::ZERO,
        Days::new(config.horizon_days).expect("config horizon is valid"),
    )
    .expect("horizon is a valid window")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_products_within_horizon() {
        let catalog = ProductCatalog::paper_tvs();
        let config = FairDataConfig::small();
        let d = generate_fair_data(&catalog, &config, 1);
        assert_eq!(d.product_ids().len(), 9);
        let (lo, hi) = d.time_span().unwrap();
        assert!(lo.as_days() >= 0.0);
        assert!(hi.as_days() < config.horizon_days);
    }

    #[test]
    fn volume_matches_rates_roughly() {
        let catalog = ProductCatalog::small();
        let config = FairDataConfig::small();
        let d = generate_fair_data(&catalog, &config, 2);
        for p in catalog.products() {
            let n = d.product(p.id).unwrap().len() as f64;
            let expected = p.daily_rate * config.horizon_days;
            // Weekly/burst modulation inflates the base rate somewhat.
            assert!(
                n > expected * 0.8 && n < expected * 2.0,
                "{}: {n} ratings vs base expectation {expected}",
                p.name
            );
        }
    }

    #[test]
    fn means_track_quality() {
        let catalog = ProductCatalog::paper_tvs();
        let d = generate_fair_data(&catalog, &FairDataConfig::paper(), 3);
        for p in catalog.products() {
            let mean = d.product(p.id).unwrap().mean_value().unwrap();
            // Truncation to the 0-5 scale clips the upper tail, so the
            // realized mean sits below the quality parameter by up to
            // ~0.45 at realistic noise levels; the paper only requires
            // the fair mean to be "around 4".
            assert!(
                mean < p.quality + 0.1 && mean > p.quality - 0.65,
                "{}: mean {mean} vs quality {}",
                p.name,
                p.quality
            );
            assert!((3.5..=4.5).contains(&mean), "{}: mean {mean}", p.name);
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let catalog = ProductCatalog::small();
        let config = FairDataConfig::small();
        let a = generate_fair_data(&catalog, &config, 7);
        let b = generate_fair_data(&catalog, &config, 7);
        let c = generate_fair_data(&catalog, &config, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_fair_sources_and_pool_raters() {
        let catalog = ProductCatalog::small();
        let config = FairDataConfig::small();
        let d = generate_fair_data(&catalog, &config, 4);
        assert!(d.unfair_ids().is_empty());
        for r in d.raters() {
            assert!(r.value() < config.rater_pool);
            assert!(r.value() < BIASED_RATER_BASE);
        }
    }

    #[test]
    fn discretization_rounds_to_half_stars() {
        let catalog = ProductCatalog::small();
        let config = FairDataConfig {
            discretize_half_stars: true,
            ..FairDataConfig::small()
        };
        let d = generate_fair_data(&catalog, &config, 5);
        for e in d.iter() {
            let doubled = e.value() * 2.0;
            assert!(
                (doubled - doubled.round()).abs() < 1e-9,
                "value {} not a half star",
                e.value()
            );
        }
    }

    #[test]
    fn horizon_helper() {
        let config = FairDataConfig::small();
        let h = horizon_of(&config);
        assert_eq!(h.start(), Timestamp::ZERO);
        assert_eq!(h.length().get(), 90.0);
    }

    #[test]
    fn fair_values_look_like_white_noise() {
        // The paper's ME detector rests on honest ratings being close to
        // white noise; the generator must not accidentally introduce
        // serial structure.
        let catalog = ProductCatalog::paper_tvs();
        let d = generate_fair_data(&catalog, &FairDataConfig::paper(), 9);
        for p in catalog.products().iter().take(3) {
            let values = d.product(p.id).unwrap().values();
            assert!(
                rrs_signal::autocorr::looks_white(values, 10),
                "{}: fair stream fails the whiteness check (Q = {:?})",
                p.name,
                rrs_signal::autocorr::ljung_box(values, 10)
            );
        }
    }

    #[test]
    fn raters_recur_for_trust_accumulation() {
        let catalog = ProductCatalog::paper_tvs();
        let config = FairDataConfig::small();
        let d = generate_fair_data(&catalog, &config, 6);
        let total = d.len();
        let distinct = d.raters().len();
        assert!(
            distinct < total,
            "no rater ever recurs: {distinct} raters for {total} ratings"
        );
    }
}
