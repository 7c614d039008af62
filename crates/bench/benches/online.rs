//! The incremental-detection suite: the same attacked small-scale
//! challenge as the `detection` suite, evaluated with the P-scheme's
//! online epoch loop, plus the raw detector-only comparison of batch and
//! online detection without trust/aggregation around it.
//!
//! Emits `BENCH_online.json`. The `"stage_breakdown"` section comes from
//! one traced **online** run, so its `signal` stage shows the
//! incremental per-epoch cost (compare with the same stage in
//! `BENCH_detection.json` history for the batch-era numbers).

use rrs_aggregation::PScheme;
use rrs_attack::AttackStrategy;
use rrs_bench::{bench_workbench, Harness};
use rrs_core::rng::Xoshiro256pp;
use rrs_core::{AggregationScheme, TimeWindow};
use rrs_detectors::{JointDetector, OnlineState};

fn main() {
    let mut h = Harness::new("online");

    let workbench = bench_workbench(13);
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let seq = AttackStrategy::NaiveExtreme {
        start_day: 35.0,
        duration_days: 10.0,
    }
    .build(&workbench.attack_ctx, &mut rng);
    let attacked = workbench.challenge.attacked_dataset(&seq);
    let ctx = workbench.challenge.eval_context();

    let scheme = PScheme::new();

    rrs_obs::disable();

    // The full pipeline: detection, trust and aggregation per epoch.
    h.bench("epoch_loop_online", || {
        scheme.evaluate(&attacked, &ctx).suspicious().len()
    });

    // Detector-only epoch loops (no trust/aggregation), isolating what
    // the rolling state actually saves.
    let detector = JointDetector::default();
    h.bench("detect_epochs_batch", || {
        let mut total = 0usize;
        for period in ctx.periods() {
            let window = TimeWindow::ordered(ctx.horizon().start(), period.end());
            let prefix = attacked.prefix_view(window);
            let (marks, _) = detector.detect_all(&prefix, window, |_| 0.5);
            total += marks.len();
        }
        total
    });
    h.bench("detect_epochs_online", || {
        let mut state = OnlineState::new();
        let mut total = 0usize;
        for period in ctx.periods() {
            let window = TimeWindow::ordered(ctx.horizon().start(), period.end());
            let prefix = attacked.prefix_view(window);
            let (marks, _) = detector.detect_all_online(&prefix, window, |_| 0.5, &mut state);
            total += marks.len();
        }
        total
    });

    // One traced online run feeding the per-stage breakdown: `signal` is
    // now the incremental absorb/settle cost, not a full re-derivation.
    h.trace_stages(|| scheme.evaluate(&attacked, &ctx));
    rrs_obs::reset();

    h.finish();
}
