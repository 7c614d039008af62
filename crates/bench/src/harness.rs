//! A minimal wall-clock timing harness replacing Criterion.
//!
//! Design goals, in order: **zero dependencies**, **stable JSON output**
//! (`BENCH_<suite>.json`, one file per suite, append-friendly for
//! trajectory tracking across commits), and **bounded runtime** (a suite
//! of a dozen benches finishes in seconds, not minutes).
//!
//! Each file also names its machine: `"cores"` (available parallelism)
//! and `"threads"` (the `rrs_core::par` pool width the run used).
//!
//! Methodology: each bench body is first calibrated — run repeatedly until
//! one batch takes at least [`TARGET_BATCH_NANOS`] — then timed for a
//! fixed number of batches. The JSON records mean/median/min/max/std-dev
//! nanoseconds **per iteration**, so numbers are comparable across
//! machines regardless of the calibrated batch size.
//!
//! Environment knobs:
//!
//! * `RRS_BENCH_SAMPLES` — batches per bench (default 10).
//! * `RRS_BENCH_OUT` — output directory for `BENCH_*.json` (default `.`;
//!   `cargo bench` runs bench binaries from the package root, so the
//!   files land in `crates/bench/` unless overridden).

use std::hint::black_box;
use std::time::Instant;

/// Calibration target: one measured batch should take at least this long.
const TARGET_BATCH_NANOS: u128 = 20_000_000; // 20 ms

/// Default number of measured batches per bench.
const DEFAULT_SAMPLES: usize = 10;

/// Summary statistics for one bench, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Bench name as shown in output and JSON.
    pub name: String,
    /// Iterations per measured batch (set by calibration).
    pub iters_per_sample: u64,
    /// Number of measured batches.
    pub samples: usize,
    /// Mean ns/iter across batches.
    pub mean_ns: f64,
    /// Median ns/iter across batches.
    pub median_ns: f64,
    /// Fastest batch, ns/iter.
    pub min_ns: f64,
    /// Slowest batch, ns/iter.
    pub max_ns: f64,
    /// Population standard deviation of ns/iter across batches.
    pub std_dev_ns: f64,
}

/// Collects [`BenchResult`]s for one suite and writes `BENCH_<suite>.json`
/// when [`finish`](Harness::finish)ed.
pub struct Harness {
    suite: String,
    samples: usize,
    results: Vec<BenchResult>,
    stages: Vec<rrs_obs::trace::SpanAgg>,
}

/// The `"cores"` and `"threads"` lines every `BENCH_<suite>.json`
/// carries: the machine's available parallelism and the `rrs_core::par`
/// pool width the run used (`RRS_THREADS`, default `min(cores, 8)`).
#[must_use]
pub fn machine_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "  \"cores\": {cores},\n  \"threads\": {},\n",
        rrs_core::par::thread_count()
    )
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl Harness {
    /// Creates a harness for the named suite (e.g. `"figures"`).
    #[must_use]
    pub fn new(suite: &str) -> Self {
        Self {
            suite: suite.to_string(),
            samples: env_usize("RRS_BENCH_SAMPLES", DEFAULT_SAMPLES),
            results: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Runs `body` once with span tracing enabled and folds the spans it
    /// emits into the suite's per-stage breakdown (the
    /// `"stage_breakdown"` section of `BENCH_<suite>.json`). Repeated
    /// calls accumulate. The tracing switch is restored afterwards, so
    /// surrounding [`bench`](Harness::bench) calls keep measuring the
    /// disabled path.
    pub fn trace_stages<T>(&mut self, body: impl FnOnce() -> T) -> T {
        let was_enabled = rrs_obs::enabled();
        rrs_obs::enable();
        rrs_obs::trace::drain_spans();
        let out = body();
        let spans = rrs_obs::trace::drain_spans();
        if !was_enabled {
            rrs_obs::disable();
        }
        let mut merged: std::collections::BTreeMap<String, (u64, u64)> = self
            .stages
            .drain(..)
            .map(|s| (s.name, (s.count, s.total_ns)))
            .collect();
        for s in rrs_obs::trace::stage_totals(&spans) {
            let slot = merged.entry(s.name).or_insert((0, 0));
            slot.0 += s.count;
            slot.1 += s.total_ns;
        }
        self.stages = merged
            .into_iter()
            .map(|(name, (count, total_ns))| rrs_obs::trace::SpanAgg {
                name,
                count,
                total_ns,
            })
            .collect();
        out
    }

    /// Times `body`, printing a one-line summary and recording the result.
    ///
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot elide the work.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut body: F) {
        // Calibrate: grow the batch until it costs ≥ TARGET_BATCH_NANOS.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= TARGET_BATCH_NANOS || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the target with 2x headroom, at least doubling.
            let scale = (TARGET_BATCH_NANOS * 2 / elapsed.max(1)) as u64;
            iters = iters.saturating_mul(scale.clamp(2, 1024));
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(body());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);

        let n = per_iter.len() as f64;
        let mean = per_iter.iter().sum::<f64>() / n;
        let median = if per_iter.len() % 2 == 1 {
            per_iter[per_iter.len() / 2]
        } else {
            (per_iter[per_iter.len() / 2 - 1] + per_iter[per_iter.len() / 2]) / 2.0
        };
        let var = per_iter.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: per_iter.len(),
            mean_ns: mean,
            median_ns: median,
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            std_dev_ns: var.sqrt(),
        };
        rrs_obs::rrs_info!(
            "{:<32} {:>12.1} ns/iter (median {:.1}, ±{:.1}, {} iters × {} samples)",
            result.name,
            result.mean_ns,
            result.median_ns,
            result.std_dev_ns,
            result.iters_per_sample,
            result.samples,
        );
        self.results.push(result);
    }

    /// Writes `BENCH_<suite>.json` into `RRS_BENCH_OUT` (default `.`) and
    /// prints the path. Call exactly once, after the last bench.
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written — a bench run that
    /// silently loses its trajectory is worse than one that fails.
    pub fn finish(self) {
        let dir = std::env::var("RRS_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_{}.json", self.suite);
        let json = self.to_json();
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        rrs_obs::rrs_info!("wrote {path} ({} benches)", self.results.len());
    }

    /// Renders the suite as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", self.suite));
        out.push_str(&format!("  \"samples_per_bench\": {},\n", self.samples));
        out.push_str("  \"unit\": \"ns_per_iter\",\n");
        out.push_str(&machine_json());
        if !self.stages.is_empty() {
            out.push_str("  \"stage_breakdown\": [\n");
            for (i, s) in self.stages.iter().enumerate() {
                let comma = if i + 1 < self.stages.len() { "," } else { "" };
                out.push_str(&format!(
                    "    {{\"stage\": \"{}\", \"spans\": {}, \"total_ns\": {}}}{comma}\n",
                    s.name, s.count, s.total_ns,
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"max_ns\": {:.1}, \"std_dev_ns\": {:.1}}}{comma}\n",
                r.name,
                r.iters_per_sample,
                r.samples,
                r.mean_ns,
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.std_dev_ns,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_statistics() {
        let mut h = Harness::new("selftest");
        h.samples = 4;
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let r = &h.results[0];
        assert_eq!(r.samples, 4);
        assert!(r.iters_per_sample >= 1);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.mean_ns > 0.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut h = Harness::new("shape");
        h.samples = 2;
        h.bench("noop", || 1u64);
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"shape\""));
        assert!(json.contains("\"unit\": \"ns_per_iter\""));
        assert!(json.contains("\n  \"cores\": "));
        assert!(json.contains("\n  \"threads\": "));
        assert!(json.contains("\"name\": \"noop\""));
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn stage_breakdown_lands_in_json() {
        let _guard = rrs_obs::trace::tests_lock();
        rrs_obs::disable();
        let mut h = Harness::new("stages");
        h.samples = 2;
        h.trace_stages(|| {
            let _a = rrs_obs::trace::span("signal.fake");
            let _b = rrs_obs::trace::span("detect.fake");
        });
        assert!(!rrs_obs::enabled(), "switch must be restored");
        let json = h.to_json();
        assert!(json.contains("\"stage_breakdown\""));
        assert!(json.contains("\"stage\": \"signal\""));
        assert!(json.contains("\"stage\": \"detect\""));
        assert!(json.ends_with("]\n}\n"));
    }
}
