//! Detection-pipeline integration: the joint detector, trust manager,
//! and ablation switches behave coherently end to end.

use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::GroundTruth;
use rrs::detectors::{AblatedDetector, DetectorConfig, JointDetector};
use rrs_core::rng::Xoshiro256pp;
use std::collections::BTreeSet;

fn attacked_fixture(seed: u64) -> (RatingChallenge, rrs::RatingDataset) {
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), seed);
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xABCD);
    let attack = AttackStrategy::Burst {
        bias: 3.0,
        std_dev: 0.5,
        start_day: 8.0,
        duration_days: 12.0,
    }
    .build(&ctx, &mut rng);
    let attacked = challenge.attacked_dataset(&attack);
    (challenge, attacked)
}

#[test]
fn joint_detector_finds_a_burst_with_neutral_trust() {
    let (challenge, attacked) = attacked_fixture(21);
    let detector = JointDetector::default();
    let (marks, per_product) = detector.detect_all(&attacked, challenge.horizon(), |_| 0.5);
    assert!(!marks.is_empty());
    let truth = GroundTruth::from_dataset(&attacked);
    let confusion = truth.score(&marks);
    assert!(confusion.recall() > 0.5, "{confusion}");
    // Per-product results union to the total mark set.
    let union: BTreeSet<_> = per_product
        .iter()
        .flat_map(|(_, r)| r.suspicious.iter().copied())
        .collect();
    assert_eq!(union, marks);
}

#[test]
fn each_single_ablation_degrades_or_preserves_but_never_panics() {
    let (challenge, attacked) = attacked_fixture(22);
    let truth = GroundTruth::from_dataset(&attacked);
    let full = JointDetector::default()
        .detect_all(&attacked, challenge.horizon(), |_| 0.5)
        .0;
    let full_recall = truth.score(&full).recall();
    for ablated in [
        AblatedDetector::MeanChange,
        AblatedDetector::ArrivalRate,
        AblatedDetector::Histogram,
        AblatedDetector::ModelError,
    ] {
        let config = DetectorConfig {
            ablated: Some(ablated),
        };
        let (marks, _) =
            JointDetector::new(config).detect_all(&attacked, challenge.horizon(), |_| 0.5);
        let recall = truth.score(&marks).recall();
        assert!(
            recall <= full_recall + 1e-9,
            "removing {ablated:?} should not improve recall ({recall} vs {full_recall})"
        );
    }
}

#[test]
fn arrival_rate_ablation_silences_the_pipeline() {
    let (challenge, attacked) = attacked_fixture(23);
    let config = DetectorConfig {
        ablated: Some(AblatedDetector::ArrivalRate),
    };
    let (marks, _) = JointDetector::new(config).detect_all(&attacked, challenge.horizon(), |_| 0.5);
    // Both marking paths require ARC band evidence.
    assert!(marks.is_empty());
}

#[test]
fn low_trust_raters_are_easier_to_flag() {
    // The MC detector's trust-assisted rule: a moderate shift passes with
    // neutral trust but is flagged when its raters are known-shady.
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), 24);
    let ctx = challenge.attack_context();
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let attack = AttackStrategy::MajoritySneak {
        bias: 1.1,
        start_day: 8.0,
        duration_days: 20.0,
    }
    .build(&ctx, &mut rng);
    let attacked = challenge.attacked_dataset(&attack);
    let detector = JointDetector::default();

    let (neutral_marks, _) = detector.detect_all(&attacked, challenge.horizon(), |_| 0.5);
    let (informed_marks, _) = detector.detect_all(&attacked, challenge.horizon(), |r| {
        if r.value() >= 1_000_000 {
            0.05
        } else {
            0.95
        }
    });
    assert!(
        informed_marks.len() >= neutral_marks.len(),
        "knowing the attackers should never reduce marking ({} vs {})",
        informed_marks.len(),
        neutral_marks.len()
    );
}

#[test]
fn detection_is_deterministic() {
    let (challenge, attacked) = attacked_fixture(25);
    let detector = JointDetector::default();
    let a = detector
        .detect_all(&attacked, challenge.horizon(), |_| 0.5)
        .0;
    let b = detector
        .detect_all(&attacked, challenge.horizon(), |_| 0.5)
        .0;
    assert_eq!(a, b);
}
