//! The telemetry-pipeline suite: primitive costs of every obs facility
//! in both switch states — spans (flat and nested), quantile-sketch
//! observation and quantiles, flight-recorder feeds, and snapshot
//! rendering (JSON and Prometheus).
//!
//! Emits `BENCH_obs.json`. The `*_disabled` entries are the numbers the
//! "one relaxed atomic load when off" claim rests on; the enabled
//! entries price what a traced run actually pays per call.

use rrs_bench::Harness;
use rrs_obs::sketch::QuantileSketch;

fn main() {
    let mut h = Harness::new("obs");

    // Disabled path: every hook must be a single atomic load.
    rrs_obs::disable();
    h.bench("span_disabled", || rrs_obs::trace::span("bench.noop"));
    h.bench("sketch_observe_disabled", || {
        rrs_obs::metrics::observe_quantile("bench.noop", 1.5);
    });
    h.bench("recorder_note_span_disabled", || {
        let record = rrs_obs::trace::SpanRecord {
            name: "bench.noop",
            nanos: 1,
            id: 0,
            parent: 0,
        };
        rrs_obs::recorder::note_span(&record);
    });

    // Enabled path: collection costs, drained between batches so the
    // sinks cannot grow without bound.
    rrs_obs::enable();
    h.bench("span_enabled", || rrs_obs::trace::span("bench.noop"));
    h.bench("span_nested_enabled", || {
        let _outer = rrs_obs::trace::span("bench.outer");
        rrs_obs::trace::span("bench.inner")
    });
    rrs_obs::reset();
    h.bench("sketch_observe_enabled", || {
        rrs_obs::metrics::observe_quantile("bench.sizes", 12.0);
    });
    rrs_obs::reset();

    // Sketch primitives on their own, off the registry.
    let mut filled = QuantileSketch::new();
    for i in 0..10_000u32 {
        filled.observe(f64::from(i) * 0.37 - 1_000.0);
    }
    h.bench("sketch_quantile_p99", || filled.quantile(0.99));

    // Snapshot rendering: a registry with one of everything, its sketch
    // holding the same 10k observations as `filled`.
    rrs_obs::reset();
    rrs_obs::metrics::counter_add("bench.calls", 7);
    rrs_obs::metrics::gauge_set("bench.level", 0.25);
    for i in 0..10_000u32 {
        rrs_obs::metrics::observe_quantile("bench.sizes", f64::from(i) * 0.37 - 1_000.0);
    }
    let snap = rrs_obs::metrics::snapshot();
    h.bench("snapshot_to_json", || snap.to_json().len());
    h.bench("snapshot_to_prometheus", || snap.to_prometheus().len());

    rrs_obs::reset();
    rrs_obs::disable();
    h.finish();
}
