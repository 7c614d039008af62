//! The served JSONL codec: what a rating costs to parse at the HTTP door,
//! to encode into the write-ahead log, to read back at a restart, and to
//! make durable at each batch size.
//!
//! Emits `BENCH_codec.json`, every row per item:
//!
//! * `parse_body_per_rating` — `parse_submission_body` over a
//!   1,000-rating `POST /ratings` body;
//! * `encode_wal_per_event` — 1,000 rating events rendered into one
//!   buffer, the rendering `WalWriter::append_batch` writes;
//! * `read_wal_per_line` and `read_checkpoint_per_line` — a restart's
//!   two reads over a directory the size of the serving benchmark's
//!   `epoch` workload at its end (~170k WAL events, ~47k checkpoint
//!   records);
//! * `engine_submit_batch_<n>_per_rating` — `Engine::submit` at batch
//!   sizes 1, 16, 256 and 4,096: one WAL fsync per call, spread over the
//!   batch, which prices fsync amortisation.
//!
//! The ratings are the paper challenge's fair ratings, one instance per
//! product block with disjoint raters, as the serving benchmark streams
//! them. The fsync figures are the filesystem's under the bench, not a
//! storage device's.

use rrs_bench::Harness;
use rrs_challenge::{ChallengeConfig, RatingChallenge};
use rrs_core::{ProductId, RaterId, RatingSource};
use rrs_serve::checkpoint::{read_checkpoint, write_checkpoint};
use rrs_serve::wal::read_wal;
use rrs_serve::{
    parse_submission_body, Checkpoint, Engine, EngineConfig, RatingSubmission, WalEvent, WalWriter,
};
use std::path::{Path, PathBuf};

/// WAL events at the end of the `epoch` workload (ratings plus epochs).
const WAL_EVENTS: usize = 170_000;
/// One epoch event per this many ratings (the workload's ~1k-rating days).
const RATINGS_PER_EPOCH: usize = 1_000;
/// Trust records and marks in the `epoch` workload's final checkpoint.
const TRUST_RECORDS: u32 = 34_000;
const MARKS: u64 = 13_000;

/// `count` fair ratings from successive paper challenge instances,
/// ordered by day.
fn submissions(count: usize) -> Vec<RatingSubmission> {
    let config = ChallengeConfig::paper();
    let products = config.catalog.len() as u16;
    let mut out = Vec::with_capacity(count);
    let mut instance = 0u32;
    while out.len() < count {
        let challenge = RatingChallenge::generate(&config, 7 + u64::from(instance));
        for entry in challenge.fair_dataset().iter() {
            let rating = entry.rating();
            out.push(RatingSubmission {
                rater: RaterId::new(instance * config.fair.rater_pool + rating.rater().value()),
                product: ProductId::new(instance as u16 * products + rating.product().value()),
                day: rating.time(),
                value: rating.value(),
                source: RatingSource::Fair,
            });
        }
        instance += 1;
    }
    out.truncate(count);
    out.sort_by(|a, b| a.day.as_days().total_cmp(&b.day.as_days()));
    out
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrs-bench-codec-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes the end-of-`epoch`-sized WAL and checkpoint into `dir`.
fn restart_directory(dir: &Path, ratings: &[RatingSubmission]) {
    let mut events = Vec::with_capacity(WAL_EVENTS);
    for chunk in ratings.chunks(RATINGS_PER_EPOCH) {
        events.extend(chunk.iter().map(|s| WalEvent::Rating(*s)));
        events.push(WalEvent::Epoch);
    }
    events.truncate(WAL_EVENTS);
    let mut wal = WalWriter::open(dir, 0).expect("open WAL");
    wal.append_batch(&events).expect("write WAL");
    let checkpoint = Checkpoint {
        epochs: (events.len() / (RATINGS_PER_EPOCH + 1)) as u64,
        wal_events: events.len() as u64,
        trust: (0..TRUST_RECORDS)
            .map(|rater| {
                let s = f64::from(rater % 97) * 0.75;
                (rater * 3, s.to_bits(), (s / 7.0).to_bits())
            })
            .collect(),
        marks: (0..MARKS).map(|i| i * 13).collect(),
    };
    write_checkpoint(dir, &checkpoint).expect("write checkpoint");
}

fn main() {
    let mut h = Harness::new("codec");
    let ratings = submissions(WAL_EVENTS);

    let batch = &ratings[..1_000];
    let body: String = batch.iter().map(|s| s.to_jsonl() + "\n").collect();
    h.bench_per("parse_body_per_rating", 1_000, || {
        parse_submission_body(&body).expect("valid body").len()
    });
    let events: Vec<WalEvent> = batch.iter().map(|s| WalEvent::Rating(*s)).collect();
    h.bench_per("encode_wal_per_event", 1_000, || {
        let mut buf = String::new();
        for event in &events {
            event.push_jsonl(&mut buf);
            buf.push('\n');
        }
        buf.len()
    });

    let dir = scratch("restart");
    restart_directory(&dir, &ratings);
    let lines = read_wal(&dir).expect("read WAL").events.len() as u64;
    h.bench_per("read_wal_per_line", lines, || {
        read_wal(&dir).expect("read WAL").events.len()
    });
    let records = TRUST_RECORDS as u64 + MARKS + 2;
    h.bench_per("read_checkpoint_per_line", records, || {
        read_checkpoint(&dir).expect("read checkpoint").is_some()
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");

    for size in [1usize, 16, 256, 4_096] {
        let dir = scratch(&format!("submit-{size}"));
        let mut engine = Engine::open(&dir, EngineConfig::default()).expect("open engine");
        let mut next = ratings.chunks(size).cycle();
        h.bench_per(
            &format!("engine_submit_batch_{size}_per_rating"),
            size as u64,
            || {
                let chunk = next.next().expect("cycle never ends");
                engine.submit(chunk).expect("submit").len()
            },
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    h.finish();
}
