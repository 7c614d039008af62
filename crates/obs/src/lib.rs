//! # rrs-obs — observability for the rrs detection pipeline
//!
//! Hermetic, zero-external-dependency tracing, metrics, and decision
//! traces for the P-scheme pipeline (signal → detectors → joint decision
//! → trust → aggregation). Four cooperating facilities:
//!
//! * [`trace`] — a span tracer with monotonic timing, a thread-safe
//!   in-memory sink, and parent/child structure from a thread-local
//!   span stack. Span names are dotted `stage.detail`
//!   strings (`"signal.mc"`, `"detect.integrate"`,
//!   `"trust.update_epoch"`, `"aggregate.filter"`); the stage prefix is
//!   what per-stage breakdowns group by, and
//!   [`trace::collapsed_stacks`] renders a batch as flamegraph input.
//! * [`metrics`] — a registry of counters, gauges and
//!   [`sketch::QuantileSketch`]es, written only through
//!   [`metrics::counter_add`], [`metrics::gauge_set`] and
//!   [`metrics::observe_quantile`], with a [`metrics::snapshot`] API
//!   that renders as JSON or Prometheus text exposition.
//! * [`decision`] — structured decision-trace records: per (product,
//!   interval), every detector's raw statistic, threshold and verdict,
//!   the two-path joint-decision outcome, the suspicion set, and each
//!   affected rater's α/β trust trajectory. Exported as JSONL via
//!   [`export`].
//! * [`recorder`] — a bounded anomaly flight recorder: per-product
//!   rings of recent decision records plus span context, snapshotted
//!   into a dump whenever a detector fires.
//! * [`log`] — a leveled logger (error/warn/info) for CLI output,
//!   controlled by `--quiet`/`--verbosity`.
//!
//! # Enablement and cost
//!
//! One global [`Collection`] level gates every sink. At
//! [`Collection::Metrics`] only the [`metrics`] registry records; at
//! [`Collection::Full`] the tracer's spans, the decision buffer and the
//! flight recorder record as well. [`enable`] and
//! [`disable`] switch between `Full` and `Off`, [`set_collection`]
//! picks any level, and [`init_from_env`] turns `Full` on from the
//! `RRS_TRACE` environment variable. [`enabled`] answers "are metrics
//! on", [`tracing`] "are spans and decision records on".
//!
//! Every command enables `Full` under `RRS_TRACE=1` except `rrs serve`,
//! which runs at `Metrics` whatever the environment says: a live server
//! reports through `GET /metrics`, and nothing in it ever drains the
//! span sink, so it would grow with every epoch.
//!
//! When a sink is off, every instrumentation call into it is a single
//! relaxed atomic load — no clock reads, no locks, no allocation — so
//! instrumented hot paths run at full speed.
//! `crates/bench/tests/overhead.rs` holds a bound on that disabled-mode
//! cost.
//!
//! The logger is independent of the level: it is always "on" and only
//! gated by its verbosity level, because CLI output must work without
//! tracing.
//!
//! # Determinism
//!
//! Decision-trace *bodies* contain no wall-clock values — only data
//! derived deterministically from the dataset and configuration — so a
//! trace of a seeded scenario is byte-for-byte reproducible and can be
//! golden-tested. Timing lives exclusively in span records and metric
//! values, which are reported separately (bench JSON, debug output) and
//! never enter a golden-tested trace body.
//!
//! # Example
//!
//! ```
//! rrs_obs::enable();
//! {
//!     let _span = rrs_obs::trace::span("detect.example");
//!     rrs_obs::metrics::counter_add("example.calls", 1);
//! }
//! let spans = rrs_obs::trace::drain_spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].name, "detect.example");
//! let snap = rrs_obs::metrics::snapshot();
//! assert_eq!(snap.counters.get("example.calls"), Some(&1));
//! rrs_obs::reset();
//! rrs_obs::disable();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decision;
pub mod export;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod sketch;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};

/// Which sinks record.
///
/// Each level records everything the one before it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collection {
    /// Nothing records.
    Off,
    /// Only the metrics registry records: counters, gauges and
    /// sketches. Spans, decision records and the flight recorder stay
    /// empty, so memory stays bounded however long the process runs.
    Metrics,
    /// Every sink records.
    Full,
}

static LEVEL: AtomicU8 = AtomicU8::new(Collection::Off as u8);

#[inline]
fn level() -> u8 {
    LEVEL.load(Ordering::Relaxed)
}

/// Returns `true` when the metrics registry records (at
/// [`Collection::Metrics`] and above).
///
/// This is the only cost instrumented code pays when collection is off:
/// a single relaxed atomic load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    level() >= Collection::Metrics as u8
}

/// Returns `true` when spans, decision records and the flight recorder
/// record (at [`Collection::Full`] only).
#[inline]
#[must_use]
pub fn tracing() -> bool {
    level() == Collection::Full as u8
}

/// Sets the collection level.
///
/// Already-collected data stays in the sinks until [`reset`] or a drain.
pub fn set_collection(collection: Collection) {
    LEVEL.store(collection as u8, Ordering::Relaxed);
}

/// Turns every sink on ([`Collection::Full`]).
pub fn enable() {
    set_collection(Collection::Full);
}

/// Turns every sink off ([`Collection::Off`]).
///
/// Already-collected data stays in the sinks until [`reset`] or a drain.
pub fn disable() {
    set_collection(Collection::Off);
}

/// Initialises the level from the environment: `RRS_TRACE` set to
/// anything but `0` or the empty string enables [`Collection::Full`].
pub fn init_from_env() {
    match std::env::var("RRS_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => enable(),
        _ => {}
    }
}

/// Clears every sink: spans, metrics, decision records, and the flight
/// recorder.
///
/// Call before a run whose trace you want in isolation.
pub fn reset() {
    trace::drain_spans();
    metrics::reset();
    decision::drain();
    recorder::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_round_trips() {
        // Serialized against other obs tests by the trace-module lock.
        let _guard = trace::tests_lock();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn metrics_level_records_metrics_but_no_spans() {
        let _guard = trace::tests_lock();
        reset();
        set_collection(Collection::Metrics);
        assert!(enabled() && !tracing());
        {
            let _span = trace::span("stage.metrics_only");
            metrics::counter_add("example.calls", 1);
        }
        let spans = trace::drain_spans();
        let snapshot = metrics::snapshot();
        reset();
        disable();
        assert!(spans.is_empty());
        assert_eq!(snapshot.counters.get("example.calls"), Some(&1));
    }
}
