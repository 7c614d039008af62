//! The anomaly flight recorder: bounded black-box context for detector
//! firings.
//!
//! Streaming ingest cannot afford to keep every decision trace, but an
//! operator investigating a suspicion verdict needs what led up to it.
//! The recorder keeps, per product, a ring of the last
//! [`DEFAULT_CAPACITY`] decision-trace records (as rendered JSONL
//! bodies) plus one small global ring of recently completed spans. When
//! a record with a fired detector arrives, the product's current ring —
//! the firing record and the records that preceded it — is snapshotted
//! into a bounded dump list, which [`dump_jsonl`] renders one JSON
//! object per firing.
//!
//! Memory is bounded on every axis: per-product window, span ring, and
//! the dump list itself (overflow is counted, not stored). Everything
//! is gated on the global [tracing level](crate::tracing), so the off-mode
//! cost of an append is a single relaxed atomic load.
//!
//! Dump bodies embed decision records, which are deterministic, and the
//! span context ring, which carries wall-clock nanoseconds — dumps are
//! operator forensics, not golden-testable artifacts.

use crate::decision::DecisionRecord;
use crate::trace::SpanRecord;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// The per-product window: the firing record plus up to 7 before it.
pub const DEFAULT_CAPACITY: usize = 8;
/// How many recently completed spans the context ring retains.
const SPAN_RING: usize = 32;
/// Upper bound on retained dumps; later firings only bump a counter.
const MAX_DUMPS: usize = 256;

static RECORDER: Mutex<Option<Inner>> = Mutex::new(None);

struct Inner {
    rings: BTreeMap<u64, VecDeque<String>>,
    spans: VecDeque<(&'static str, u64)>,
    dumps: Vec<String>,
    dropped_dumps: u64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            rings: BTreeMap::new(),
            spans: VecDeque::new(),
            dumps: Vec::new(),
            dropped_dumps: 0,
        }
    }
}

fn with_inner<T>(f: impl FnOnce(&mut Inner) -> T) -> Option<T> {
    let mut slot = RECORDER.lock().ok()?;
    Some(f(slot.get_or_insert_with(Inner::new)))
}

/// Appends a completed span to the context ring. Called by the tracer
/// on span drop; a no-op (one atomic load) while tracing is off.
#[inline]
pub fn note_span(record: &SpanRecord) {
    if !crate::tracing() {
        return;
    }
    with_inner(|inner| {
        if inner.spans.len() == SPAN_RING {
            inner.spans.pop_front();
        }
        inner.spans.push_back((record.name, record.nanos));
    });
}

/// Feeds one decision record through the recorder: appends it to its
/// product's ring and, if any detector fired, snapshots the ring (plus
/// the span context) into the dump list. A no-op while tracing is off.
pub fn record_decision(record: &DecisionRecord) {
    if !crate::tracing() {
        return;
    }
    let body = record.to_json();
    let fired = record.any_fired();
    let product = record.product;
    with_inner(|inner| {
        let ring = inner.rings.entry(product).or_default();
        if ring.len() == DEFAULT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(body);
        if !fired {
            return;
        }
        if inner.dumps.len() >= MAX_DUMPS {
            inner.dropped_dumps += 1;
            return;
        }
        let window: Vec<&str> = inner.rings[&product].iter().map(String::as_str).collect();
        let spans: Vec<String> = inner
            .spans
            .iter()
            .map(|(name, ns)| {
                format!(
                    "{{\"name\":{},\"ns\":{ns}}}",
                    rrs_core::io::json_string(name)
                )
            })
            .collect();
        inner.dumps.push(format!(
            "{{\"product\":{product},\"window\":[{}],\"recent_spans\":[{}]}}",
            window.join(","),
            spans.join(","),
        ));
    });
}

/// Renders every retained dump as JSONL (one firing per line); empty
/// string when nothing has fired.
#[must_use]
pub fn dump_jsonl() -> String {
    with_inner(|inner| {
        let mut out = String::new();
        for dump in &inner.dumps {
            out.push_str(dump);
            out.push('\n');
        }
        out
    })
    .unwrap_or_default()
}

/// How many firing dumps are currently retained.
#[must_use]
pub fn dump_count() -> usize {
    with_inner(|inner| inner.dumps.len()).unwrap_or(0)
}

/// How many firings were dropped because the dump list was full.
#[must_use]
pub fn dropped_dumps() -> u64 {
    with_inner(|inner| inner.dropped_dumps).unwrap_or(0)
}

/// Clears rings, span context, and dumps.
pub fn reset() {
    if let Ok(mut slot) = RECORDER.lock() {
        *slot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{DecisionRecord, DetectorVerdict};
    use crate::trace::tests_lock;

    fn record(product: u64, day: f64, fired: bool) -> DecisionRecord {
        DecisionRecord {
            product,
            start_day: day,
            end_day: day + 30.0,
            detectors: vec![DetectorVerdict {
                name: "mc",
                statistic: if fired { 2.0 } else { 0.1 },
                threshold: 0.8,
                fired,
            }],
            paths: vec![],
            suspicious: vec![],
            trust: vec![],
        }
    }

    #[test]
    fn disabled_appends_are_dropped() {
        let _guard = tests_lock();
        crate::disable();
        reset();
        record_decision(&record(1, 0.0, true));
        note_span(&crate::trace::SpanRecord {
            name: "stage.x",
            nanos: 5,
            id: 1,
            parent: 0,
        });
        assert_eq!(dump_count(), 0);
        assert!(dump_jsonl().is_empty());
    }

    #[test]
    fn firing_snapshots_the_preceding_window() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        record_decision(&record(3, 0.0, false));
        record_decision(&record(3, 30.0, false));
        record_decision(&record(3, 60.0, true));
        let dumps = dump_jsonl();
        crate::disable();
        reset();
        assert_eq!(dumps.lines().count(), 1);
        let line = dumps.lines().next().unwrap();
        assert!(line.starts_with("{\"product\":3,\"window\":["));
        // All three records — the firing one and the two before it —
        // are in the window.
        assert_eq!(line.matches("\"start_day\":").count(), 3);
        assert!(line.contains("\"recent_spans\":["));
    }

    #[test]
    fn ring_is_bounded_per_product() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        for i in 0..DEFAULT_CAPACITY + 2 {
            record_decision(&record(7, i as f64, false));
        }
        record_decision(&record(7, 99.0, true));
        let dumps = dump_jsonl();
        crate::disable();
        reset();
        // Window is the firing record plus DEFAULT_CAPACITY - 1
        // predecessors; the oldest quiet records were trimmed.
        assert_eq!(dumps.matches("\"start_day\":").count(), DEFAULT_CAPACITY);
    }

    #[test]
    fn products_have_independent_windows() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        record_decision(&record(1, 0.0, false));
        record_decision(&record(2, 0.0, true));
        let dumps = dump_jsonl();
        crate::disable();
        reset();
        assert_eq!(dumps.lines().count(), 1);
        // Product 1's quiet record must not leak into product 2's dump.
        assert_eq!(dumps.matches("\"start_day\":").count(), 1);
        assert!(dumps.starts_with("{\"product\":2,"));
    }

    #[test]
    fn span_context_rides_along_in_dumps() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        {
            let _s = crate::trace::span("stage.before_firing");
        }
        crate::trace::drain_spans();
        record_decision(&record(4, 0.0, true));
        let dumps = dump_jsonl();
        crate::disable();
        reset();
        assert!(dumps.contains("\"name\":\"stage.before_firing\""));
    }

    #[test]
    fn dump_list_is_bounded_and_counts_overflow() {
        let _guard = tests_lock();
        crate::enable();
        reset();
        for i in 0..(MAX_DUMPS + 3) {
            record_decision(&record(i as u64, 0.0, true));
        }
        let count = dump_count();
        let dropped = dropped_dumps();
        crate::disable();
        reset();
        assert_eq!(count, MAX_DUMPS);
        assert_eq!(dropped, 3);
    }
}
