//! Attack lab: the paper's Fig.-8 generator with its learning loop
//! closed — the Procedure-2 heuristic search zooms in on the strongest
//! region of the variance–bias plane against a chosen defense.
//!
//! ```text
//! cargo run --release --example attack_lab [p|sa|bf]
//! ```

use rrs::aggregation::{BfScheme, PScheme, SaScheme};
use rrs::attack::search::optimize;
use rrs::challenge::{ChallengeConfig, RatingChallenge, ScoringSession};
use rrs::AggregationScheme;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "p".into());
    let p = PScheme::new();
    let sa = SaScheme::new();
    let bf = BfScheme::new();
    let scheme: &dyn AggregationScheme = match which.as_str() {
        "sa" => &sa,
        "bf" => &bf,
        _ => &p,
    };

    let seed = 7;
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), seed);
    let session = ScoringSession::new(&challenge, scheme);
    let ctx = challenge.attack_context();
    println!(
        "Procedure 2 learning the variance-bias plane against {} ...\n",
        scheme.name()
    );

    let outcome = optimize(&ctx, seed, |seq| session.score(seq).total());

    for (i, round) in outcome.rounds.iter().enumerate() {
        println!(
            "round {i}: area bias [{:.2}, {:.2}] x std [{:.2}, {:.2}]",
            round.area.bias.0, round.area.bias.1, round.area.std_dev.0, round.area.std_dev.1
        );
        for (sub, mp) in &round.probes {
            let (b, s) = sub.center();
            println!("  probe ({b:>6.2}, {s:>5.2})  max MP {mp:.4}");
        }
    }
    let (bias, std) = outcome.final_area.center();
    println!(
        "\nconverged: bias {bias:.2}, std {std:.2}; best MP {:.4} against {}",
        outcome.best_mp,
        scheme.name(),
    );
    println!("(the paper's Fig. 5 run against its P-scheme ended near (-2.3, 1.6))");
}
