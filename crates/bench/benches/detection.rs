//! The detection-pipeline suite: one full P-scheme run over an attacked
//! small-scale challenge, measured with the observability sink disabled
//! and enabled, plus the primitive costs of the disabled-path hooks.
//!
//! Emits `BENCH_detection.json`, whose `"stage_breakdown"` section
//! reports per-stage (signal / detect / trust / aggregate) span totals
//! from one traced run.

use rrs_aggregation::PScheme;
use rrs_attack::AttackStrategy;
use rrs_bench::{bench_workbench, Harness};
use rrs_core::rng::Xoshiro256pp;
use rrs_core::AggregationScheme;

fn main() {
    let mut h = Harness::new("detection");

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

    // The production configuration: sink disabled, hooks compiled in.
    rrs_obs::disable();
    h.bench("p_scheme_detection_disabled", || {
        scheme.evaluate(&attacked, &ctx).suspicious().len()
    });

    // Same run with every span, counter, and decision record collected.
    // The body drains the sinks each iteration so the buffers cannot
    // grow across calibration batches.
    h.bench("p_scheme_detection_traced", || {
        rrs_obs::enable();
        let marks = scheme.evaluate(&attacked, &ctx).suspicious().len();
        rrs_obs::reset();
        rrs_obs::disable();
        marks
    });

    // One traced run feeding the per-stage breakdown in the JSON.
    h.trace_stages(|| scheme.evaluate(&attacked, &ctx));
    rrs_obs::reset();

    // Primitive costs of the disabled path: these are the numbers the
    // "zero-cost when off" claim rests on.
    rrs_obs::disable();
    h.bench("obs_span_disabled", || rrs_obs::trace::span("bench.noop"));
    h.bench("obs_counter_disabled", || {
        rrs_obs::metrics::counter_add("bench.noop", 1);
    });

    h.finish();
}
