//! Detector tour: feed a crafted rating stream — fair data with one
//! embedded camouflage burst — through each of the four detectors and
//! print their indicator curves as ASCII, plus the joint two-path
//! verdict.
//!
//! ```text
//! cargo run --release --example detector_tour
//! ```

use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::GroundTruth;
use rrs::detectors::{
    arc, hc, mc, me, ArcConfig, ArcVariant, HcConfig, JointDetector, McConfig, MeConfig,
};
use rrs::eval::report::ascii_scatter;
use rrs_core::rng::Xoshiro256pp;

fn main() {
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 11);
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let attack = AttackStrategy::Burst {
        bias: 3.0,
        std_dev: 0.6,
        start_day: 15.0,
        duration_days: 12.0,
    }
    .build(&ctx, &mut rng);
    let attacked = challenge.attacked_dataset(&attack);
    let product = challenge.config().downgrade_targets[0];
    let timeline = attacked.product(product).expect("attacked product exists");
    let horizon = challenge.horizon();
    println!(
        "stream: {} ratings on {product}; attack of {} unfair ratings at days {:.0}..{:.0}\n",
        timeline.len(),
        attack.for_product(product).len(),
        ctx.horizon.start().as_days() + 15.0,
        ctx.horizon.start().as_days() + 27.0,
    );

    let plot = |name: &str, points: Vec<(f64, f64)>| {
        let pts: Vec<(f64, f64, char)> = points.into_iter().map(|(x, y)| (x, y, '*')).collect();
        println!("--- {name} ---");
        println!("{}", ascii_scatter(&pts, "day", name, 72, 12));
    };

    let mc_out = mc::detect(timeline, &McConfig::default(), |_| 0.5);
    plot(
        "MC indicator  W*(A1-A2)^2",
        mc_out
            .curve
            .points()
            .iter()
            .map(|p| (p.time, p.value))
            .collect(),
    );
    println!(
        "MC flagged segments: {:?}\n",
        mc_out
            .suspicious
            .iter()
            .map(|s| s.window.to_string())
            .collect::<Vec<_>>()
    );

    let larc = arc::detect(timeline, horizon, ArcVariant::Low, &ArcConfig::default());
    plot(
        "L-ARC GLRT",
        larc.curve
            .points()
            .iter()
            .map(|p| (p.time, p.value))
            .collect(),
    );
    println!(
        "L-ARC flagged segments: {:?}\n",
        larc.suspicious
            .iter()
            .map(|s| s.window.to_string())
            .collect::<Vec<_>>()
    );

    let hc_out = hc::detect(timeline, &HcConfig::default());
    plot(
        "HC ratio min(n1/n2, n2/n1)",
        hc_out
            .curve
            .points()
            .iter()
            .map(|p| (p.time, p.value))
            .collect(),
    );

    let me_out = me::detect(timeline, &MeConfig::default());
    plot(
        "ME normalized model error",
        me_out
            .curve
            .points()
            .iter()
            .map(|p| (p.time, p.value))
            .collect(),
    );

    let joint = JointDetector::default();
    let result = joint.detect_product(timeline, horizon, |_| 0.5);
    println!("--- joint verdict (Fig. 1 two-path integration) ---");
    for hit in &result.hits {
        println!(
            "path {} marked {} ratings in {} ({:?} band)",
            hit.path, hit.marked, hit.window, hit.band
        );
    }
    let truth = GroundTruth::from_dataset(&attacked);
    println!("detection quality: {}", truth.score(&result.suspicious));
}
