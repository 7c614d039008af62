//! Crash-replay equivalence: an engine that dies without warning and
//! recovers from its WAL (+ optional checkpoint) must be bit-identical
//! to an engine that never crashed — trust table, suspicion set and
//! product scores — and must stay so when both run on. Every scenario
//! feeds both engines a fourth batch and one more epoch after the
//! comparison and compares again. The checkpoint holds no detector
//! cache, so the first epoch after a restart rebuilds it from the
//! dataset, during WAL replay or, when the checkpoint covers the whole
//! log, live; the continuation checks that epoch and the one after it.
//!
//! Determinism makes this test cheap: there is exactly one correct
//! final state, so equality is `assert_eq!` on bit patterns, not a
//! tolerance band. Every scenario runs at `RRS_THREADS = 1` and `8` —
//! the detector fan-out inside an epoch is parallel, and recovery must
//! not depend on the pool width of either the crashed or the recovered
//! process (a recovery at 8 threads must reproduce a crash at 1).
//!
//! The in-process "crash" is dropping the engine with no shutdown or
//! checkpoint call: the WAL is fsynced at every acknowledged batch, so
//! everything an HTTP client was told succeeded is on disk, and
//! nothing else matters — exactly the post-SIGKILL disk state. The real
//! SIGKILL (kill -9 on a live server mid-ingest) runs in `verify.sh`.

use rrs_core::par::with_threads;
use rrs_core::ProductId;
use rrs_serve::dto::parse_submission;
use rrs_serve::{Engine, EngineConfig, RatingSubmission};
use std::path::{Path, PathBuf};

fn scratch(name: &str, threads: usize) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("crash-replay-{name}-t{threads}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

fn sub(rater: u32, product: u16, day: f64, value: f64) -> RatingSubmission {
    parse_submission(&format!(
        "{{\"rater\":{rater},\"product\":{product},\"day\":{day},\"value\":{value}}}"
    ))
    .expect("valid submission")
}

/// A deterministic workload with enough texture to exercise the
/// detectors: two products, a fair majority, and a late unfair-looking
/// push of low ratings onto product 0.
fn batches() -> [Vec<RatingSubmission>; 3] {
    let mut first = Vec::new();
    for i in 0..12u32 {
        first.push(sub(i, 0, f64::from(i) * 2.0, 4.0 + f64::from(i % 3) * 0.25));
        first.push(sub(i, 1, f64::from(i) * 2.0 + 0.5, 3.0 + f64::from(i % 2)));
    }
    let mut second = Vec::new();
    for i in 0..12u32 {
        second.push(sub(i, 0, 30.0 + f64::from(i) * 2.0, 4.25));
        second.push(sub(i, 1, 31.0 + f64::from(i) * 2.0, 3.5));
    }
    // The push: raters 50..58 slam product 0 with 0.5s in a tight burst.
    let mut third = Vec::new();
    for i in 0..8u32 {
        third.push(sub(50 + i, 0, 62.0 + f64::from(i) * 0.25, 0.5));
    }
    for i in 0..12u32 {
        third.push(sub(i, 0, 60.0 + f64::from(i), 4.0));
    }
    [first, second, third]
}

/// The batch every scenario continues with, inside the 30-day epoch
/// that starts on day `start`: fair ratings of product 1 and a burst of
/// 0.5s onto it from raters 70..78, so that epoch marks new ratings.
fn fourth(start: f64) -> Vec<RatingSubmission> {
    let mut batch = Vec::new();
    for i in 0..12u32 {
        batch.push(sub(i, 1, start + f64::from(i), 3.5));
    }
    for i in 0..8u32 {
        batch.push(sub(70 + i, 1, start + 2.0 + f64::from(i) * 0.25, 0.5));
    }
    batch
}

/// Every observable the API serves, in bit-exact form.
#[derive(Debug, PartialEq, Eq)]
struct StateImage {
    epochs: u64,
    wal_events: u64,
    trust: Vec<(u32, u64, u64)>,
    marks: Vec<u64>,
    scores: Vec<(u16, Option<u64>)>,
}

fn image(engine: &Engine) -> StateImage {
    StateImage {
        epochs: engine.epochs(),
        wal_events: engine.wal_events(),
        trust: engine
            .trust_table()
            .iter()
            .map(|v| (v.rater.value(), v.successes.to_bits(), v.failures.to_bits()))
            .collect(),
        marks: engine.suspicious().iter().map(|id| id.value()).collect(),
        scores: [0u16, 1]
            .iter()
            .map(|&p| {
                let score = engine
                    .score_of(ProductId::new(p))
                    .and_then(|r| r.score)
                    .map(f64::to_bits);
                (p, score)
            })
            .collect(),
    }
}

/// The uninterrupted oracle: all three batches, an epoch after each.
fn uninterrupted(dir: &Path) -> Engine {
    let mut engine = Engine::open(dir, EngineConfig::paper(30.0)).expect("open");
    for batch in batches() {
        engine.submit(&batch).expect("submit");
        engine.advance_epoch().expect("epoch");
    }
    engine
}

/// Feeds both engines the fourth batch inside their next epoch and runs
/// that epoch, then requires equal images. The epoch must change the
/// suspicion set, so the comparison covers fresh detector output.
fn assert_continue_identically(recovered: &mut Engine, oracle: &mut Engine, context: &str) {
    let before = image(oracle);
    for engine in [&mut *recovered, &mut *oracle] {
        let start = engine.epochs() as f64 * 30.0;
        engine.submit(&fourth(start)).expect("submit");
        engine.advance_epoch().expect("epoch");
    }
    let after = image(oracle);
    assert_ne!(
        after.marks, before.marks,
        "the fourth batch's epoch left the suspicion set unchanged ({context})"
    );
    assert_eq!(
        image(recovered),
        after,
        "after the fourth batch ({context})"
    );
}

#[test]
fn recovery_without_checkpoint_matches_uninterrupted() {
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let crash_dir = scratch("wal-only-crash", threads);
            let oracle_dir = scratch("wal-only-oracle", threads);
            {
                let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
                for batch in batches() {
                    engine.submit(&batch).expect("submit");
                    engine.advance_epoch().expect("epoch");
                }
                // Crash: dropped with no checkpoint, no shutdown.
            }
            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
            let mut oracle = uninterrupted(&oracle_dir);
            let oracle_image = image(&oracle);
            // Equality must not be vacuous: the workload's low-value
            // burst trips the detectors and populates the trust table.
            assert!(!oracle_image.trust.is_empty(), "trust table is empty");
            assert!(!oracle_image.marks.is_empty(), "suspicion set is empty");
            assert_eq!(image(&recovered), oracle_image, "threads={threads}");
            assert_continue_identically(&mut recovered, &mut oracle, &format!("threads={threads}"));
        });
    }
}

#[test]
fn recovery_from_checkpoint_plus_wal_suffix_matches_uninterrupted() {
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let crash_dir = scratch("ckpt-crash", threads);
            let oracle_dir = scratch("ckpt-oracle", threads);
            let [first, second, third] = batches();
            {
                let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
                engine.submit(&first).expect("submit");
                engine.advance_epoch().expect("epoch");
                engine.checkpoint().expect("checkpoint");
                // Everything after the checkpoint lives only in the WAL;
                // its first replayed epoch rebuilds the detector cache.
                engine.submit(&second).expect("submit");
                engine.advance_epoch().expect("epoch");
                engine.submit(&third).expect("submit");
                engine.advance_epoch().expect("epoch");
                // Crash.
            }
            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
            let mut oracle = uninterrupted(&oracle_dir);
            assert_eq!(image(&recovered), image(&oracle), "threads={threads}");
            assert_continue_identically(&mut recovered, &mut oracle, &format!("threads={threads}"));
        });
    }
}

#[test]
fn a_checkpoint_after_the_last_epoch_rebuilds_the_cache_in_a_live_epoch() {
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let crash_dir = scratch("ckpt-last-crash", threads);
            let oracle_dir = scratch("ckpt-last-oracle", threads);
            {
                let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
                for batch in batches() {
                    engine.submit(&batch).expect("submit");
                    engine.advance_epoch().expect("epoch");
                }
                engine.checkpoint().expect("checkpoint");
                // Crash: the checkpoint covers the whole WAL, so
                // recovery replays no epoch and the detector cache is
                // still empty when the next live epoch runs.
            }
            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
            let mut oracle = uninterrupted(&oracle_dir);
            let oracle_image = image(&oracle);
            assert!(!oracle_image.marks.is_empty(), "suspicion set is empty");
            assert_eq!(image(&recovered), oracle_image, "threads={threads}");
            assert_continue_identically(&mut recovered, &mut oracle, &format!("threads={threads}"));
        });
    }
}

#[test]
fn recovery_at_a_different_thread_count_is_identical() {
    // Crash at 1 thread, recover at 8 — and the other way around.
    for (crash_threads, recover_threads) in [(1usize, 8usize), (8, 1)] {
        let crash_dir = scratch("cross-crash", crash_threads * 10 + recover_threads);
        let oracle_dir = scratch("cross-oracle", crash_threads * 10 + recover_threads);
        with_threads(crash_threads, || {
            let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
            for batch in batches() {
                engine.submit(&batch).expect("submit");
                engine.advance_epoch().expect("epoch");
            }
        });
        with_threads(recover_threads, || {
            let context = format!("crash at {crash_threads}, recover at {recover_threads}");
            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
            let mut oracle = uninterrupted(&oracle_dir);
            assert_eq!(image(&recovered), image(&oracle), "{context}");
            assert_continue_identically(&mut recovered, &mut oracle, &context);
        });
    }
}

#[test]
fn a_torn_wal_tail_recovers_to_the_acknowledged_prefix() {
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let crash_dir = scratch("torn-crash", threads);
            let oracle_dir = scratch("torn-oracle", threads);
            let [first, second, _] = batches();
            {
                let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
                engine.submit(&first).expect("submit");
                engine.advance_epoch().expect("epoch");
                engine.submit(&second).expect("submit");
            }
            // The power cut tore the last append mid-line: that rating
            // was never acknowledged, so recovery must drop it.
            use std::io::Write;
            let mut wal = std::fs::OpenOptions::new()
                .append(true)
                .open(crash_dir.join("wal.jsonl"))
                .expect("reopen WAL");
            wal.write_all(b"{\"event\":\"rating\",\"rater\":99,\"prod")
                .expect("tear");
            drop(wal);

            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
            let mut oracle = {
                let mut engine =
                    Engine::open(&oracle_dir, EngineConfig::paper(30.0)).expect("open");
                engine.submit(&first).expect("submit");
                engine.advance_epoch().expect("epoch");
                engine.submit(&second).expect("submit");
                engine
            };
            assert_eq!(image(&recovered), image(&oracle), "threads={threads}");
            assert_continue_identically(&mut recovered, &mut oracle, &format!("threads={threads}"));
        });
    }
}

#[test]
fn appends_after_a_torn_tail_survive_the_next_crash() {
    // Tear → recover → append → crash → recover: the batch acknowledged
    // after the first recovery must not be glued onto the torn fragment.
    for threads in [1usize, 8] {
        with_threads(threads, || {
            let crash_dir = scratch("torn-append-crash", threads);
            let oracle_dir = scratch("torn-append-oracle", threads);
            let [first, second, third] = batches();
            {
                let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
                engine.submit(&first).expect("submit");
                engine.advance_epoch().expect("epoch");
                engine.submit(&second).expect("submit");
            }
            use std::io::Write;
            let mut wal = std::fs::OpenOptions::new()
                .append(true)
                .open(crash_dir.join("wal.jsonl"))
                .expect("reopen WAL");
            wal.write_all(b"{\"event\":\"rating\",\"rater\":99,\"prod")
                .expect("tear");
            drop(wal);
            {
                let mut engine =
                    Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
                engine.advance_epoch().expect("epoch");
                engine.submit(&third).expect("submit");
                engine.advance_epoch().expect("epoch");
                // Crash again, right after the acknowledged epoch.
            }

            let mut recovered =
                Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover again");
            let mut oracle = uninterrupted(&oracle_dir);
            let oracle_image = image(&oracle);
            assert!(!oracle_image.marks.is_empty(), "suspicion set is empty");
            assert_eq!(image(&recovered), oracle_image, "threads={threads}");
            assert_continue_identically(&mut recovered, &mut oracle, &format!("threads={threads}"));
        });
    }
}

#[test]
fn double_recovery_is_stable() {
    // Recovering, crashing again immediately, and recovering again must
    // land on the same state (recovery is idempotent).
    let crash_dir = scratch("double", 0);
    let oracle_dir = scratch("double-oracle", 0);
    {
        let mut engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("open");
        for batch in batches() {
            engine.submit(&batch).expect("submit");
            engine.advance_epoch().expect("epoch");
        }
    }
    let first = {
        let engine = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
        image(&engine)
    };
    let mut recovered = Engine::open(&crash_dir, EngineConfig::paper(30.0)).expect("recover");
    assert_eq!(first, image(&recovered));
    let mut oracle = uninterrupted(&oracle_dir);
    assert_eq!(first, image(&oracle));
    assert_continue_identically(&mut recovered, &mut oracle, "second recovery");
}

#[test]
fn a_checkpoint_with_detector_cache_records_still_opens() {
    // `fixtures/detector-cache-checkpoint` was written in process by the
    // engine at commit 0815782, the last whose checkpoints stored the
    // detector cache (format version 1 then too), fed this file's
    // batches: the first batch and an epoch, the second batch and an
    // epoch, `Engine::checkpoint`, and the third batch with no epoch.
    // So the checkpoint holds `product`, `cursor` and `band` records
    // after the trust records, and the WAL runs 20 ratings past it.
    // Recovery opens a copy, since opening may truncate a torn tail and
    // continuing appends to the WAL.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/detector-cache-checkpoint");
    let text = std::fs::read_to_string(fixture.join("checkpoint.jsonl")).expect("fixture");
    assert!(text.contains("{\"record\":\"product\","));
    let dir = scratch("detector-cache-fixture", 0);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for file in ["checkpoint.jsonl", "wal.jsonl"] {
        std::fs::copy(fixture.join(file), dir.join(file)).expect("copy fixture");
    }
    let mut recovered = Engine::open(&dir, EngineConfig::paper(30.0)).expect("recover");
    let mut oracle = {
        let [first, second, third] = batches();
        let mut engine = Engine::open(
            &scratch("detector-cache-oracle", 0),
            EngineConfig::paper(30.0),
        )
        .expect("open");
        engine.submit(&first).expect("submit");
        engine.advance_epoch().expect("epoch");
        engine.submit(&second).expect("submit");
        engine.advance_epoch().expect("epoch");
        engine.submit(&third).expect("submit");
        engine
    };
    let oracle_image = image(&oracle);
    assert!(!oracle_image.trust.is_empty(), "trust table is empty");
    assert_eq!(image(&recovered), oracle_image);
    assert_continue_identically(&mut recovered, &mut oracle, "earlier-format fixture");

    // What the engine writes now holds no detector cache records.
    recovered.checkpoint().expect("checkpoint");
    let written = std::fs::read_to_string(dir.join("checkpoint.jsonl")).expect("read");
    for line in written.lines() {
        let kind = line
            .strip_prefix("{\"record\":\"")
            .and_then(|rest| rest.split('"').next());
        assert!(
            matches!(kind, Some("checkpoint" | "trust" | "mark" | "end")),
            "unexpected record {line}"
        );
    }
    assert!(written.contains("{\"record\":\"mark\","));
}
