//! Trust dynamics: watch Procedure 1 separate honest raters from
//! dishonest ones, month by month.
//!
//! ```text
//! cargo run --release --example trust_dynamics
//! ```

use rrs::aggregation::{PSchemeConfig, PSchemeState};
use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::{Days, EvalContext};
use rrs_core::rng::Xoshiro256pp;

fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::paper(), 3);
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let attack = AttackStrategy::Burst {
        bias: 3.2,
        std_dev: 0.4,
        start_day: 10.0,
        duration_days: 14.0,
    }
    .build(&ctx, &mut rng);
    let attacked = challenge.attacked_dataset(&attack);

    let eval_ctx = EvalContext::new(challenge.horizon(), Days::new(30.0).expect("constant"));
    // The P-scheme's own epoch stepper: detect, then Procedure 1.
    let mut scheme = PSchemeState::new(PSchemeConfig::paper());

    println!("epoch | avg honest trust | avg attacker trust | suspicious marks");
    for (epoch, period) in eval_ctx.periods().into_iter().enumerate() {
        let update = scheme.step(&attacked, eval_ctx.horizon().start(), period);
        // Attackers' rater ids start at 1,000,000.
        let avg = |attacker: bool| {
            let v: Vec<f64> = scheme
                .trust()
                .records()
                .filter(|(rater, _)| (rater.value() >= 1_000_000) == attacker)
                .map(|(_, record)| record.trust())
                .collect();
            if v.is_empty() {
                0.5
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        println!(
            "{epoch:>5} | {:>16.3} | {:>18.3} | {} marks on {} ratings",
            avg(false),
            avg(true),
            update.suspicious,
            update.ratings,
        );
    }
    println!("\nhonest raters drift up with every clean epoch; the attackers'");
    println!("burst is marked in its epoch and their beta trust collapses,");
    println!("which zeroes their weight in Eq. 7 and trips the rating filter.");
}
