//! The span tracer: monotonic timing into a thread-safe in-memory sink,
//! with parent/child structure.
//!
//! A *span* measures one region of code: [`span`] starts the clock (only
//! when [tracing](crate::tracing) is on) and the returned guard
//! records elapsed nanoseconds into the sink on drop. Span names are
//! dotted `stage.detail` strings; [`stage_totals`] folds them into
//! per-stage totals for bench breakdowns.
//!
//! Spans are *hierarchical*: each live span pushes its id onto a
//! thread-local stack, so a span opened while another is live on the
//! same thread records that span as its parent. The innermost live id is
//! also kept in the `rrs_core::par` context word, which the pool copies
//! into its workers: a span opened on a worker whose own stack is empty
//! takes the fanning-out caller's span as its parent, so the tree is the
//! same at any pool width. [`collapsed_stacks`] renders a span batch in
//! the collapsed-stack text format flamegraph tools consume: one line per
//! `;`-joined name chain from root to leaf, with self-time (own
//! nanoseconds minus direct children) as the sample value.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Monotonic span-id source. Ids are unique per process, never reused,
/// and carry no timing or ordering guarantees across threads — they
/// exist only to link children to parents.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The ids of this thread's live spans, outermost first. A span's
    /// parent is whatever id is on top of the stack when it opens.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dotted `stage.detail` span name.
    pub name: &'static str,
    /// Elapsed monotonic nanoseconds.
    pub nanos: u64,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
}

/// An in-flight span; records itself into the sink when dropped.
///
/// Inert (no clock was read, no id allocated) when tracing was off at
/// creation.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    id: u64,
    parent: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Pop this span off its thread's stack. Guards normally drop
            // LIFO, but a span moved across threads or dropped out of
            // order must not corrupt the stack, so remove by id (from
            // the end, where it almost always is).
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                    stack.remove(pos);
                }
            });
            rrs_core::par::set_context(self.parent);
            let record = SpanRecord {
                name: self.name,
                nanos,
                id: self.id,
                parent: self.parent,
            };
            crate::recorder::note_span(&record);
            if let Ok(mut sink) = SPANS.lock() {
                sink.push(record);
            }
        }
    }
}

/// Opens a span. Bind the guard (`let _span = ...`) so it covers the
/// intended region; when tracing is off this is a single atomic
/// load and no clock is read.
#[inline]
#[must_use]
pub fn span(name: &'static str) -> Span {
    if !crate::tracing() {
        return Span {
            name,
            start: None,
            id: 0,
            parent: 0,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // An empty stack on a pool worker falls back to the caller's
        // innermost span, carried in over the context word.
        let parent = stack.last().copied().unwrap_or_else(rrs_core::par::context);
        stack.push(id);
        parent
    });
    rrs_core::par::set_context(id);
    Span {
        name,
        start: Some(Instant::now()),
        id,
        parent,
    }
}

/// Takes every completed span out of the sink, in completion order.
pub fn drain_spans() -> Vec<SpanRecord> {
    SPANS
        .lock()
        .map(|mut v| std::mem::take(&mut *v))
        .unwrap_or_default()
}

/// Aggregate statistics of all spans sharing one stage (see
/// [`stage_totals`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// The stage name.
    pub name: String,
    /// How many spans completed under this name.
    pub count: u64,
    /// Summed elapsed nanoseconds.
    pub total_ns: u64,
}

/// Folds span records into per-stage totals, where the stage is the name
/// prefix before the first `.` (`"signal.mc"` → `"signal"`). Sorted by
/// stage name.
#[must_use]
pub fn stage_totals(records: &[SpanRecord]) -> Vec<SpanAgg> {
    let mut by_stage: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for r in records {
        let stage = r.name.split('.').next().unwrap_or(r.name);
        let slot = by_stage.entry(stage).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += r.nanos;
    }
    by_stage
        .into_iter()
        .map(|(name, (count, total_ns))| SpanAgg {
            name: name.to_string(),
            count,
            total_ns,
        })
        .collect()
}

/// Resolves each record's root-to-leaf name path through the parent
/// links. A record whose parent is missing from the batch (e.g. the
/// parent has not closed yet) is treated as a root.
fn resolve_paths(records: &[SpanRecord]) -> Vec<String> {
    let by_id: std::collections::BTreeMap<u64, &SpanRecord> =
        records.iter().map(|r| (r.id, r)).collect();
    records
        .iter()
        .map(|r| {
            let mut chain = vec![r.name];
            let mut parent = r.parent;
            // Parent chains are acyclic by construction (ids are
            // allocated monotonically and a child's parent always has a
            // smaller id), so this walk terminates.
            while parent != 0 {
                match by_id.get(&parent) {
                    Some(p) => {
                        chain.push(p.name);
                        parent = p.parent;
                    }
                    None => break,
                }
            }
            chain.reverse();
            chain.join(";")
        })
        .collect()
}

/// Renders span records in the collapsed-stack text format flamegraph
/// tools consume: one `root;child;leaf <value>` line per distinct path,
/// sorted by path, where the value is the path's summed *self* time
/// (own nanoseconds minus time attributed to direct children,
/// saturating at zero).
///
/// Every observed path is emitted, even at zero self-time, so the line
/// *structure* of the output depends only on which spans ran — not on
/// how their time happened to split — and can be golden-tested.
#[must_use]
pub fn collapsed_stacks(records: &[SpanRecord]) -> String {
    // Children's inclusive time, keyed by parent id.
    let mut child_ns: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for r in records {
        if r.parent != 0 {
            *child_ns.entry(r.parent).or_insert(0) += r.nanos;
        }
    }
    let paths = resolve_paths(records);
    let mut by_path: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (r, path) in records.iter().zip(paths) {
        let own = child_ns.get(&r.id).copied().unwrap_or(0);
        let self_ns = r.nanos.saturating_sub(own);
        *by_path.entry(path).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (path, self_ns) in by_path {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Serializes tests that toggle the global switch or drain the global
/// sinks. Only meaningful inside this workspace's test suites.
#[doc(hidden)]
pub fn tests_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, nanos: u64, id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            name,
            nanos,
            id,
            parent,
        }
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = tests_lock();
        crate::disable();
        drain_spans();
        {
            let _s = span("stage.noop");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn enabled_span_lands_in_sink_with_timing() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        {
            let _s = span("stage.work");
            std::hint::black_box((0..500).sum::<u64>());
        }
        let spans = drain_spans();
        crate::disable();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "stage.work");
        assert_ne!(spans[0].id, 0);
    }

    #[test]
    fn nested_spans_link_child_to_parent() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        {
            let _outer = span("stage.outer");
            {
                let _inner = span("stage.inner");
            }
        }
        let spans = drain_spans();
        crate::disable();
        // Inner closes (and records) first.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "stage.inner");
        assert_eq!(spans[1].name, "stage.outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        {
            let _outer = span("stage.outer");
            {
                let _a = span("stage.a");
            }
            {
                let _b = span("stage.b");
            }
        }
        let spans = drain_spans();
        crate::disable();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "stage.outer").unwrap();
        for name in ["stage.a", "stage.b"] {
            let child = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(child.parent, outer.id);
        }
    }

    #[test]
    fn spans_on_fresh_threads_are_roots() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        {
            let _outer = span("stage.outer");
            std::thread::spawn(|| {
                let _worker = span("stage.worker");
            })
            .join()
            .unwrap();
        }
        let spans = drain_spans();
        crate::disable();
        let worker = spans.iter().find(|s| s.name == "stage.worker").unwrap();
        // The stack is thread-local: the worker thread's stack starts
        // empty, so its span has no parent even though stage.outer was
        // live on the spawning thread.
        assert_eq!(worker.parent, 0);
    }

    #[test]
    fn spans_on_pool_workers_nest_under_the_caller() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        let items: Vec<usize> = (0..16).collect();
        {
            let _outer = span("stage.outer");
            rrs_core::par::with_threads(4, || {
                rrs_core::par::par_map(&items, |_, _| {
                    let _worker = span("stage.worker");
                    let _leaf = span("stage.leaf");
                })
            });
        }
        {
            let _after = span("stage.after");
        }
        let spans = drain_spans();
        crate::disable();
        let outer = spans.iter().find(|s| s.name == "stage.outer").unwrap();
        let workers: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "stage.worker").collect();
        assert_eq!(workers.len(), items.len());
        assert!(workers.iter().all(|w| w.parent == outer.id));
        // Below the worker span, the worker's own stack takes over.
        for leaf in spans.iter().filter(|s| s.name == "stage.leaf") {
            assert!(workers.iter().any(|w| w.id == leaf.parent));
        }
        // Closing the outer span restored the caller's word, so the next
        // span on this thread is a root again.
        let after = spans.iter().find(|s| s.name == "stage.after").unwrap();
        assert_eq!(after.parent, 0);
    }

    #[test]
    fn stage_totals_group_by_prefix() {
        let records = vec![
            rec("signal.mc", 4, 1, 0),
            rec("signal.hc", 6, 2, 0),
            rec("detect.integrate", 9, 3, 0),
        ];
        let stages = stage_totals(&records);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "detect");
        assert_eq!(stages[0].total_ns, 9);
        assert_eq!(stages[1].name, "signal");
        assert_eq!(stages[1].total_ns, 10);
        assert_eq!(stages[1].count, 2);
    }

    #[test]
    fn collapsed_stacks_resolve_paths_through_parents() {
        // epoch(10) -> detect(1, 6) with detect(6) -> mc(2); one root
        // orphan whose parent is absent from the batch.
        let records = vec![
            rec("scheme.epoch", 10, 1, 0),
            rec("detect.run", 1, 2, 1),
            rec("detect.run", 6, 3, 1),
            rec("signal.mc", 2, 4, 3),
            rec("signal.mc", 5, 5, 99),
        ];
        // epoch self = 10-7; the two detect spans share one path and sum
        // their self times (1 + 6-2); the orphan is a root of its own.
        assert_eq!(
            collapsed_stacks(&records),
            "scheme.epoch 3\n\
             scheme.epoch;detect.run 5\n\
             scheme.epoch;detect.run;signal.mc 2\n\
             signal.mc 5\n"
        );
    }

    #[test]
    fn collapsed_stacks_use_self_time_and_keep_zero_lines() {
        let records = vec![
            rec("scheme.epoch", 10, 1, 0),
            rec("detect.run", 7, 2, 1),
            rec("signal.mc", 7, 3, 2),
        ];
        // epoch self = 10-7 = 3; detect self = 7-7 = 0 (kept); mc = 7.
        assert_eq!(
            collapsed_stacks(&records),
            "scheme.epoch 3\n\
             scheme.epoch;detect.run 0\n\
             scheme.epoch;detect.run;signal.mc 7\n"
        );
    }

    #[test]
    fn collapsed_stack_self_time_saturates() {
        // A child that (through clock skew) claims more time than its
        // parent must clamp the parent's self-time to zero, not wrap.
        let records = vec![rec("a.x", 5, 1, 0), rec("b.y", 9, 2, 1)];
        assert_eq!(collapsed_stacks(&records), "a.x 0\na.x;b.y 9\n");
    }

    #[test]
    fn spans_from_threads_all_arrive() {
        let _guard = tests_lock();
        crate::enable();
        drain_spans();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("stage.threaded");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans = drain_spans();
        crate::disable();
        assert_eq!(spans.len(), 4);
    }
}
