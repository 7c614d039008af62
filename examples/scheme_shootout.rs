//! Scheme shootout: every attack strategy family against every defense,
//! in one table — the condensed story of the paper.
//!
//! ```text
//! cargo run --release --example scheme_shootout
//! ```

use rrs::aggregation::{BfScheme, PScheme, SaScheme};
use rrs::attack::strategies;
use rrs::challenge::{ChallengeConfig, RatingChallenge, ScoringSession};
use rrs::signal::autocorr;
use rrs::AggregationScheme;
use rrs_core::rng::Xoshiro256pp;

fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), 7);
    let ctx = challenge.attack_context();

    // Sanity-check the paper's premise before the shootout: honest
    // ratings behave like white noise around the product quality.
    let fair_values = challenge
        .fair_dataset()
        .product(challenge.config().downgrade_targets[0])
        .expect("fair data exists")
        .values();
    println!(
        "fair ratings white-noise check (Ljung-Box, 10 lags): Q = {:.1}, looks white: {}\n",
        autocorr::ljung_box(fair_values, 10).unwrap_or(0.0),
        autocorr::looks_white(fair_values, 10),
    );

    let p = PScheme::new();
    let sa = SaScheme::new();
    let bf = BfScheme::new();
    let schemes: Vec<(&str, &dyn AggregationScheme)> = vec![("SA", &sa), ("BF", &bf), ("P", &p)];
    let sessions: Vec<(&str, ScoringSession<'_>)> = schemes
        .iter()
        .map(|(name, scheme)| (*name, ScoringSession::new(&challenge, *scheme)))
        .collect();

    println!(
        "{:<20} {:>8} {:>8} {:>8}   (manipulation power; lower = better defense)",
        "strategy", "SA", "BF", "P"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    for strategy in strategies::catalog() {
        let attack = strategy.build(&ctx, &mut rng);
        print!("{:<20}", strategy.name());
        for (_, session) in &sessions {
            print!(" {:>8.4}", session.score(&attack).total());
        }
        println!(
            "   {}",
            if strategy.is_straightforward() {
                ""
            } else {
                "(smart)"
            }
        );
    }
    println!(
        "\nthe P-scheme column should be smallest almost everywhere; the BF\n\
         column should match SA except against zero-variance extremes —\n\
         the paper's Figs. 2-4 in one table."
    );
}
