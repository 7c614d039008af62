//! Ingest-at-scale benchmark: whole-corpus ingest and full-scan
//! throughput over millions of synthetic ratings, plus per-rating
//! append-latency quantiles. Every rating goes through
//! `RatingDataset::insert`, the store's only write path.
//!
//! Unlike the other suites this one emits a purpose-built
//! `BENCH_ingest.json`: the quantities of interest are **rates**
//! (ratings/sec) and **tail latencies** (p50/p90/p99 ns per append, via
//! the `rrs-obs` [`QuantileSketch`]), not per-iteration means, so the
//! generic ns/iter table of `rrs_bench::Harness` would bury the numbers
//! the README points at.
//!
//! Environment knobs:
//!
//! * `RRS_BENCH_INGEST_RATINGS` — total synthetic ratings (default
//!   10,000,000; CI runs at 1,000,000).
//! * `RRS_BENCH_OUT` — output directory for the JSON (default `.`).

use rrs_bench::harness::machine_json;
use rrs_core::rng::{RrsRng, Xoshiro256pp};
use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue, Timestamp};
use rrs_obs::sketch::QuantileSketch;
use std::time::Instant;

/// Default corpus size: ISSUE 9's 10M-rating scale target.
const DEFAULT_RATINGS: usize = 10_000_000;

/// Products the corpus spreads over: at the default scale each
/// timeline holds ~19.5k ratings, so its `f64` value column is ~156 KB.
const PRODUCTS: u16 = 512;

/// How many ratings are individually timed to measure per-append
/// latency. Bounded separately so the latency section stays cheap even
/// at the 10M corpus scale.
const APPEND_SAMPLE: usize = 1_000_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Synthesizes `count` ratings over [`PRODUCTS`] products with
/// per-product non-decreasing times — the arrival order a real feed
/// would deliver, and the append fast-path the columnar store optimizes.
fn synthesize(count: usize, seed: u64) -> Vec<Rating> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let per_product = count.div_ceil(PRODUCTS as usize);
    for product in 0..PRODUCTS {
        let n = per_product.min(count - out.len());
        for k in 0..n {
            out.push(Rating::new(
                RaterId::new(rng.gen_range(0..1_000_000u32)),
                ProductId::new(product),
                Timestamp::saturating(k as f64 * 0.01),
                RatingValue::new_clamped(2.5 + rng.gen_range(-2.0..2.0)),
            ));
        }
        if out.len() == count {
            break;
        }
    }
    out
}

/// One timed ingest of the whole corpus into a fresh dataset, one
/// `insert` per rating; returns the dataset and the elapsed nanoseconds.
fn timed_bulk_ingest(ratings: &[Rating]) -> (RatingDataset, u128) {
    let mut dataset = RatingDataset::new();
    let start = Instant::now();
    for &rating in ratings {
        dataset.insert(rating, RatingSource::Fair);
    }
    let elapsed = start.elapsed().as_nanos();
    assert_eq!(dataset.len(), ratings.len());
    (dataset, elapsed)
}

/// One timed full scan: every product's contiguous value column walked
/// once (the detector hot loop's memory access pattern).
fn timed_full_scan(dataset: &RatingDataset) -> (f64, u128) {
    let start = Instant::now();
    let mut acc = 0.0f64;
    for (_, timeline) in dataset.products() {
        for v in timeline.values() {
            acc += v;
        }
    }
    let elapsed = start.elapsed().as_nanos();
    (acc, elapsed)
}

/// Appends through `RatingDataset::insert`, each individually timed
/// into the quantile sketch.
fn append_latency(ratings: &[Rating]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    let mut dataset = RatingDataset::new();
    for rating in ratings.iter().take(APPEND_SAMPLE) {
        let start = Instant::now();
        dataset.insert(*rating, RatingSource::Fair);
        sketch.observe(start.elapsed().as_nanos() as f64);
    }
    sketch
}

fn ratings_per_sec(count: usize, total_ns: u128) -> f64 {
    count as f64 * 1e9 / total_ns.max(1) as f64
}

fn quantile_entry(sketch: &QuantileSketch, q: f64) -> f64 {
    sketch.quantile(q).unwrap_or(0.0)
}

fn main() {
    let count = env_usize("RRS_BENCH_INGEST_RATINGS", DEFAULT_RATINGS);
    let ratings = synthesize(count, 42);
    rrs_obs::rrs_info!("ingest bench: {} synthetic ratings", ratings.len());

    // Warm-up ingest (page in allocations), then one measured run each.
    let _ = timed_bulk_ingest(&ratings[..ratings.len().min(100_000)]);
    let (dataset, ingest_ns) = timed_bulk_ingest(&ratings);
    let (scan_acc, scan_ns) = timed_full_scan(&dataset);
    let sketch = append_latency(&ratings);

    let ingest_rate = ratings_per_sec(ratings.len(), ingest_ns);
    let scan_rate = ratings_per_sec(dataset.len(), scan_ns);
    rrs_obs::rrs_info!(
        "bulk ingest  {:>14.0} ratings/sec ({} ratings in {:.2} s)",
        ingest_rate,
        ratings.len(),
        ingest_ns as f64 / 1e9,
    );
    rrs_obs::rrs_info!(
        "full scan    {:>14.0} ratings/sec (checksum {:.3})",
        scan_rate,
        scan_acc,
    );
    rrs_obs::rrs_info!(
        "append p50 {:.0} ns, p90 {:.0} ns, p99 {:.0} ns over {} serial inserts",
        quantile_entry(&sketch, 0.50),
        quantile_entry(&sketch, 0.90),
        quantile_entry(&sketch, 0.99),
        sketch.count(),
    );

    let dir = std::env::var("RRS_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = format!("{dir}/BENCH_ingest.json");
    let json = format!(
        "{{\n  \"suite\": \"ingest\",\n{}  \"ratings\": {},\n  \"products\": {},\n  \
         \"bulk_ingest\": {{\"total_ns\": {}, \"ratings_per_sec\": {:.0}}},\n  \
         \"full_scan\": {{\"total_ns\": {}, \"ratings_per_sec\": {:.0}}},\n  \
         \"append_latency_ns\": {{\"inserts\": {}, \"p50\": {:.0}, \"p90\": {:.0}, \
         \"p99\": {:.0}}}\n}}\n",
        machine_json(),
        ratings.len(),
        PRODUCTS,
        ingest_ns,
        ingest_rate,
        scan_ns,
        scan_rate,
        sketch.count(),
        quantile_entry(&sketch, 0.50),
        quantile_entry(&sketch, 0.90),
        quantile_entry(&sketch, 0.99),
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    rrs_obs::rrs_info!("wrote {path}");
}
