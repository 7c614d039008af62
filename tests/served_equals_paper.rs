//! Served = paper: the serving engine computes what the paper's scheme
//! computes.
//!
//! A small Rating Challenge stream, attacked, is fed to an `Engine` one
//! scoring period per batch, each batch followed by an epoch — what a
//! client does with `POST /ratings` and `POST /epochs`. The same ratings,
//! in the same insertion order, go through `PScheme::evaluate` with
//! cumulative scoring and the same period. The scheme runs its own
//! online detection state and trust manager, so it shares no state with
//! the engine. That the scheme's online detection equals batch
//! re-detection over copied prefixes is proven separately, by
//! `prefix_view_path_equals_restricted_copy_oracle` in
//! `crates/aggregation/src/p_scheme.rs` and by
//! `crates/aggregation/tests/declared_trust.rs`. Then:
//!
//! * after every epoch, each product's served score equals that period's
//!   paper score bit for bit;
//! * the union of the engine's per-epoch suspicion sets equals the
//!   scheme's suspicion set;
//! * the final trust values are equal bit for bit.
//!
//! Each case runs with `trust_discount` unset, where the engine declares
//! the raters its trust update wrote and detection patches its trust
//! column, and set, where every epoch resolves every rater. The other
//! serving gates compare the server only with a replay of its own
//! handler, so they cannot see it drift from the paper's scheme.
//!
//! Both sides step the same `PSchemeState`, so a change that stopped all
//! marking would still leave them equal. A drawn attack may legitimately
//! mark nothing (slow poison over 15-day periods often does), so the
//! property does not require marks; a fixed table of cells, one or more
//! per strategy and period, does. A last case feeds decimal days at a
//! 0.1-day period, where a period boundary summed step by step and one
//! multiplied out differ in the last bit.

use rrs::aggregation::{PScheme, PSchemeConfig};
use rrs::attack::AttackStrategy;
use rrs::challenge::{ChallengeConfig, RatingChallenge};
use rrs::core::rng::Xoshiro256pp;
use rrs::core::{
    prop_assert, props, AggregationScheme, Days, EvalContext, ProductId, RaterId, RatingDataset,
    RatingId, RatingSource, RatingValue, TimeWindow, Timestamp,
};
use rrs::detectors::DetectorConfig;
use rrs::serve::{Engine, EngineConfig, RatingSubmission};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The attacked challenge stream, ordered by scoring period and, within
/// a period, by original insertion order.
fn stream(seed: u64, strategy: usize, period_days: f64) -> Vec<(usize, RatingSubmission)> {
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), seed);
    let attack = match strategy {
        0 => AttackStrategy::NaiveExtreme {
            start_day: 35.0,
            duration_days: 10.0,
        },
        1 => AttackStrategy::Camouflage {
            bias: 2.0,
            std_dev: 0.8,
            start_day: 35.0,
            duration_days: 15.0,
        },
        _ => AttackStrategy::SlowPoison {
            bias: 2.0,
            std_dev: 0.6,
        },
    };
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let sequence = attack.build(&challenge.attack_context(), &mut rng);
    let attacked = challenge.attacked_dataset(&sequence);
    let mut entries: Vec<_> = attacked.iter().collect();
    entries.sort_by_key(|e| ((e.time().as_days() / period_days).floor() as usize, e.id()));
    entries
        .into_iter()
        .map(|e| {
            let period = (e.time().as_days() / period_days).floor() as usize;
            let rating = e.rating();
            let submission = RatingSubmission {
                rater: rating.rater(),
                product: rating.product(),
                day: rating.time(),
                value: rating.value(),
                source: e.source(),
            };
            (period, submission)
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("served-paper-{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

/// Runs one case and returns the union of the served suspicion sets.
fn check(
    seed: u64,
    strategy: usize,
    period_days: f64,
    trust_discount: Option<f64>,
) -> BTreeSet<RatingId> {
    let horizon_days = ChallengeConfig::small().fair.horizon_days;
    let periods = (horizon_days / period_days).round() as usize;
    let stream = stream(seed, strategy, period_days);
    assert!(
        stream.iter().all(|(p, _)| *p < periods),
        "a rating lies past the horizon"
    );

    // The paper's scheme over the same ratings in the same order.
    let mut dataset = RatingDataset::new();
    for (_, s) in &stream {
        dataset.insert(s.rating(), s.source);
    }
    let horizon = TimeWindow::new(
        Timestamp::ZERO,
        Timestamp::new(horizon_days).expect("valid horizon"),
    )
    .expect("valid horizon");
    let ctx = EvalContext::new(horizon, Days::new(period_days).expect("valid period"));
    assert_eq!(ctx.periods().len(), periods);
    let paper = PScheme::with_config(PSchemeConfig {
        trust_discount,
        ..PSchemeConfig::paper()
    })
    .evaluate(&dataset, &ctx);

    // The engine, one period per batch, an epoch after each.
    let dir = scratch(&format!(
        "{seed}-{strategy}-{period_days}-{}",
        trust_discount.is_some()
    ));
    let config = EngineConfig {
        detectors: DetectorConfig::paper(),
        filter_trust_threshold: 0.5,
        trust_discount,
        ..EngineConfig::paper(period_days)
    };
    let mut engine = Engine::open(&dir, config).expect("open engine");
    let mut served_marks = BTreeSet::new();
    for period in 0..periods {
        let batch: Vec<RatingSubmission> = stream
            .iter()
            .filter(|(p, _)| *p == period)
            .map(|(_, s)| *s)
            .collect();
        engine.submit(&batch).expect("submit");
        engine.advance_epoch().expect("epoch");
        served_marks.extend(engine.suspicious().iter().copied());
        for (product, scores) in paper.iter_scores() {
            let served = engine.score_of(product).and_then(|r| r.score);
            prop_assert!(
                served.map(f64::to_bits) == scores[period].map(f64::to_bits),
                "product {} at epoch {period}: served {served:?}, paper {:?}",
                product.value(),
                scores[period]
            );
        }
    }
    prop_assert!(
        &served_marks == paper.suspicious(),
        "suspicion sets differ: served {}, paper {}",
        served_marks.len(),
        paper.suspicious().len()
    );
    let served_trust: Vec<(u32, u64)> = engine
        .trust_table()
        .iter()
        .map(|v| (v.rater.value(), v.trust.to_bits()))
        .collect();
    let paper_trust: Vec<(u32, u64)> = paper
        .trust_map()
        .iter()
        .map(|(r, t)| (r.value(), t.to_bits()))
        .collect();
    prop_assert!(served_trust == paper_trust, "final trust tables differ");
    drop(engine);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    served_marks
}

props! {
    #![cases(3)]
    #[test]
    fn served_epochs_equal_the_paper_scheme(
        seed in 0u64..1_000,
        strategy in 0usize..3,
        period_choice in 0usize..2,
    ) {
        let period_days = [10.0, 15.0][period_choice];
        check(seed, strategy, period_days, None);
        check(seed, strategy, period_days, Some(0.8));
    }
}

/// Cells known to mark, `(seed, strategy, period)`: every strategy at
/// both periods, each required to mark, with and without a discount.
const MARKING_CELLS: [(u64, usize, f64); 6] = [
    (0, 0, 10.0),
    (1, 0, 15.0),
    (2, 1, 10.0),
    (3, 1, 15.0),
    (4, 2, 10.0),
    (5, 2, 15.0),
];

#[test]
fn served_marks_equal_the_paper_marks_on_cells_that_mark() {
    for (seed, strategy, period_days) in MARKING_CELLS {
        for trust_discount in [None, Some(0.8)] {
            let marks = check(seed, strategy, period_days, trust_discount);
            assert!(
                !marks.is_empty(),
                "seed {seed}, strategy {strategy}, period {period_days}, \
                 discount {trust_discount:?} marked nothing"
            );
        }
    }
}

#[test]
fn decimal_day_periods_serve_the_paper_scores() {
    // One rating a decimal day, 0.0 to 5.9, at a 0.1-day period. The
    // rating at day 0.6 lies before boundary 6 multiplied out
    // (0.6000000000000001) but not before 0.1 summed six times (0.6).
    let period = Days::new(0.1).expect("valid period");
    let product = ProductId::new(0);
    let submissions: Vec<RatingSubmission> = (0..60u32)
        .map(|k| RatingSubmission {
            rater: RaterId::new(k),
            product,
            day: Timestamp::new(f64::from(k) / 10.0).expect("finite day"),
            value: RatingValue::new(f64::from(1 + k % 5)).expect("on the scale"),
            source: RatingSource::Fair,
        })
        .collect();
    let mut dataset = RatingDataset::new();
    for s in &submissions {
        dataset.insert(s.rating(), s.source);
    }
    let horizon = TimeWindow::new(Timestamp::ZERO, Timestamp::new(6.0).expect("finite"))
        .expect("valid horizon");
    let ctx = EvalContext::new(horizon, period);
    let paper = PScheme::new().evaluate(&dataset, &ctx);
    let scores = paper.scores(product).expect("the product is scored");
    assert_eq!(scores.len(), 60);

    let dir = scratch("decimal-days");
    let mut engine = Engine::open(&dir, EngineConfig::paper(period.get())).expect("open engine");
    let mut pending = submissions.as_slice();
    for (epoch, expected) in scores.iter().enumerate() {
        // What a client does: submit everything before the epoch's end.
        let end = Timestamp::period_boundary(Timestamp::ZERO, period, epoch as u64 + 1);
        let due = pending.iter().take_while(|s| s.day < end).count();
        engine.submit(&pending[..due]).expect("submit");
        pending = &pending[due..];
        engine.advance_epoch().expect("epoch");
        let served = engine.score_of(product).and_then(|r| r.score);
        assert_eq!(
            served.map(f64::to_bits),
            expected.map(f64::to_bits),
            "epoch {epoch}: served {served:?}, paper {expected:?}"
        );
    }
    drop(engine);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
