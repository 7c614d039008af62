//! Deterministic parallel execution substrate.
//!
//! Every parallel fan-out in the workspace goes through [`par_map`]: a
//! `std::thread::scope`-based bounded worker pool whose results are
//! returned **in input order** regardless of completion order. Combined
//! with per-cell seed derivation ([`crate::rng::derive_seed`]) this makes
//! thread count a pure throughput knob: `RRS_THREADS=1` and
//! `RRS_THREADS=8` produce bit-identical outputs.
//!
//! Guarantees:
//!
//! * **Ordering** — `par_map(items, f)[i] == f(i, &items[i])` always; the
//!   merge step reorders worker results by input index.
//! * **Serial equivalence** — with one thread (or one item) the exact
//!   sequential iterator path runs; no threads are spawned.
//! * **No nested explosion** — a `par_map` issued from inside a worker
//!   runs serially on that worker, so recursive fan-outs (a parallel
//!   suite whose experiments themselves call `par_map`) are bounded by a
//!   single pool rather than multiplying.
//! * **No shared mutable state** — workers communicate only through the
//!   atomic work index and their private result buffers.
//!
//! Thread count resolution order: test/bench override ([`with_threads`])
//! → the `RRS_THREADS` environment variable → `min(available cores, 8)`.
//!
//! The pool also carries one opaque **context word** from the caller into
//! every worker ([`context`] / [`set_context`]). The pool never reads it;
//! it exists so a layer above (the `rrs-obs` span tracer keeps the
//! innermost live span id there) can link work done on a worker to the
//! caller's state without this crate knowing that layer.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound applied to the auto-detected core count. Keeps the default
/// pool modest on many-core machines; raise explicitly via `RRS_THREADS`.
const DEFAULT_MAX_THREADS: usize = 8;

/// Process-wide thread-count override installed by [`with_threads`].
/// Zero means "no override"; reads are relaxed because the value is a
/// pure tuning knob — results are identical at any thread count.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] callers so concurrent tests cannot
/// interleave their overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set inside pool workers so nested [`par_map`] calls degrade to the
    /// serial path instead of spawning a second generation of threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while this thread holds [`OVERRIDE_LOCK`], so a nested
    /// [`with_threads`] on the same thread does not deadlock on it.
    static HOLDS_OVERRIDE: Cell<bool> = const { Cell::new(false) };
    /// The context word: copied from the caller into each pool worker.
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// Returns this thread's context word (0 unless set).
///
/// Inside a [`par_map`] / [`par_map_owned`] worker it starts as the
/// word the calling thread held when it fanned out; threads spawned any
/// other way start at 0.
#[must_use]
pub fn context() -> u64 {
    CONTEXT.with(Cell::get)
}

/// Replaces this thread's context word and returns the previous one.
pub fn set_context(word: u64) -> u64 {
    CONTEXT.with(|cell| cell.replace(word))
}

/// Marks the current thread as a pool worker carrying `context`.
fn enter_worker(context: u64) {
    IN_WORKER.with(|flag| flag.set(true));
    CONTEXT.with(|cell| cell.set(context));
}

/// Returns the worker-pool size [`par_map`] will use.
///
/// Resolution order: the [`with_threads`] override, then the
/// `RRS_THREADS` environment variable (values `< 1` or unparsable fall
/// through), then `min(available_parallelism, 8)`.
#[must_use]
pub fn thread_count() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("RRS_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(DEFAULT_MAX_THREADS))
}

/// Runs `f` with the pool size forced to `threads` (minimum 1), then
/// restores the previous setting.
///
/// This exists for tests and benches that compare serial against parallel
/// execution in-process without mutating the environment; `RRS_THREADS`
/// remains the user-facing knob. Callers on different threads are
/// serialized by a global lock; a nested call on the thread that already
/// holds it just overrides again. The previous override is restored even
/// if `f` panics.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _serialize = if HOLDS_OVERRIDE.with(Cell::get) {
        None
    } else {
        Some(
            OVERRIDE_LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    };
    struct Restore(usize, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
            HOLDS_OVERRIDE.with(|flag| flag.set(self.1));
        }
    }
    let _restore = Restore(
        OVERRIDE.swap(threads.max(1), Ordering::Relaxed),
        HOLDS_OVERRIDE.with(|flag| flag.replace(true)),
    );
    f()
}

/// Maps `f` over `items` on a bounded scoped-thread pool, returning the
/// results in input order.
///
/// `f` receives `(index, &item)` so each cell can derive its own seed
/// from the index (see [`crate::rng::derive_seed`]). Work is handed out
/// through a shared atomic counter, so threads stay busy regardless of
/// per-item cost; each worker buffers `(index, result)` pairs privately
/// and the merge step writes them back by index after all workers join.
///
/// With one thread, one item, or when called from inside another
/// `par_map` worker, the exact serial path runs instead. Each worker
/// starts with the caller's [`context`] word.
///
/// # Panics
///
/// If a worker panics, the panic payload is re-raised on the calling
/// thread after the remaining workers finish.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let caller_context = context();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                enter_worker(caller_context);
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    local.push((index, f(index, item)));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (index, value) in local {
                        slots[index] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let out: Vec<U> = slots.into_iter().flatten().collect();
    assert_eq!(out.len(), items.len(), "par_map merge lost a result slot");
    out
}

/// Like [`par_map`], but consumes `items` and hands each one to `f`
/// **by value** — for pipelines that move per-item state through the
/// pool (e.g. the online detectors advancing one owned `ProductState`
/// per product) without interior mutability at the call site.
///
/// The [`par_map`] guarantees carry over: results come back in input
/// order, one thread (or a nested call) runs the exact serial
/// `into_iter` path, and each item is consumed exactly once because the
/// atomic dispenser hands every index to exactly one worker.
///
/// # Panics
///
/// If a worker panics, the panic payload is re-raised on the calling
/// thread after the remaining workers finish.
pub fn par_map_owned<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Each item waits in its own cell until the index dispenser hands
    // its slot to exactly one worker, which takes the value out. The
    // per-cell Mutex is uncontended by construction — it only makes the
    // ownership handoff expressible without `unsafe`.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    let caller_context = context();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            let cells = &cells;
            handles.push(scope.spawn(move || {
                enter_worker(caller_context);
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(index) else { break };
                    let Some(item) = cell
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                    else {
                        break;
                    };
                    local.push((index, f(index, item)));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (index, value) in local {
                        slots[index] = Some(value);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let expected = slots.len();
    let out: Vec<U> = slots.into_iter().flatten().collect();
    assert_eq!(
        out.len(),
        expected,
        "par_map_owned merge lost a result slot"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = with_threads(8, || par_map(&items, |i, &x| (i as u64, x * 3)));
        for (i, (idx, tripled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*tripled, items[i] * 3);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let items: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let work = |i: usize, x: &f64| (x.sin() * x.cos()).mul_add(i as f64, *x);
        let serial = with_threads(1, || par_map(&items, work));
        let parallel = with_threads(8, || par_map(&items, work));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |_, &x| x).is_empty());
        assert_eq!(with_threads(8, || par_map(&[41], |_, &x| x + 1)), vec![42]);
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let outer: Vec<usize> = (0..8).collect();
        let out = with_threads(4, || {
            par_map(&outer, |_, &i| {
                let inner: Vec<usize> = (0..16).collect();
                par_map(&inner, |_, &j| i * 100 + j).iter().sum::<usize>()
            })
        });
        let expected: Vec<usize> = outer.iter().map(|&i| 16 * i * 100 + 120).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn override_takes_priority_and_restores() {
        // The outer override holds the lock, so no concurrently running
        // test can move the setting between the two reads.
        with_threads(5, || {
            let before = thread_count();
            let inside = with_threads(3, thread_count);
            assert_eq!(inside, 3);
            assert_eq!(thread_count(), before);
        });
    }

    #[test]
    fn workers_start_with_the_callers_context_word() {
        let items: Vec<usize> = (0..64).collect();
        let previous = set_context(0xfeed);
        let seen = with_threads(4, || par_map(&items, |_, _| context()));
        let owned = with_threads(4, || par_map_owned(items.clone(), |_, _| context()));
        assert_eq!(set_context(previous), 0xfeed);
        assert!(seen.iter().chain(&owned).all(|&word| word == 0xfeed));
    }

    #[test]
    fn raw_threads_start_without_a_context_word() {
        let previous = set_context(7);
        let word = std::thread::spawn(context).join().expect("thread runs");
        set_context(previous);
        assert_eq!(word, 0);
    }

    #[test]
    fn owned_map_moves_each_item_exactly_once_in_order() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let expected = items.clone();
        let out = with_threads(8, || {
            par_map_owned(items, |i, s| {
                // `s` is owned: mutate and return it to prove the move.
                assert_eq!(s, format!("item-{i}"));
                s
            })
        });
        assert_eq!(out, expected);
    }

    #[test]
    fn owned_map_parallel_matches_serial_exactly() {
        let make = || (0..100u64).map(|i| vec![i, i * 2]).collect::<Vec<_>>();
        let work = |i: usize, v: Vec<u64>| v.iter().sum::<u64>() + i as u64;
        let serial = with_threads(1, || par_map_owned(make(), work));
        let parallel = with_threads(8, || par_map_owned(make(), work));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |_, &x| {
                    assert!(x != 17, "boom");
                    x
                })
            })
        });
        assert!(result.is_err());
    }
}
