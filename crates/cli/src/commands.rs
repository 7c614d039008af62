//! The `rrs` subcommands. Each returns its report as a `String`.

use crate::args::Args;
use rrs_aggregation::{BfScheme, PScheme, SaScheme};
use rrs_attack::{AttackContext, AttackStrategy, Direction, FairView};
use rrs_challenge::{ChallengeConfig, RatingChallenge};
use rrs_core::io::{read_csv, to_csv_string};
use rrs_core::rng::Xoshiro256pp;
use rrs_core::{
    manipulation_power, AggregationScheme, Days, EvalContext, GroundTruth, MpParams, ProductId,
    RaterId, RatingDataset, RatingSource, TimeWindow, Timestamp,
};
use rrs_detectors::JointDetector;
use rrs_obs::log::Level;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A boxed error for command results.
pub type CommandError = Box<dyn Error + Send + Sync>;

/// Dispatches a subcommand.
///
/// # Errors
///
/// Returns a human-readable error for unknown commands, argument
/// problems, unreadable files, or malformed datasets.
pub fn run(command: &str, tokens: &[String]) -> Result<String, CommandError> {
    let tokens = apply_global_flags(tokens)?;
    // The scenario commands take a leading positional scenario name,
    // which the flag-only parser would reject — handle them before
    // Args::parse.
    match command {
        "trace" => return trace(&tokens),
        "metrics" => return metrics(&tokens),
        "dump" => return dump(&tokens),
        _ => {}
    }
    let args = Args::parse(tokens.iter().cloned())?;
    match command {
        "generate" => generate(&args),
        "attack" => attack(&args),
        "evaluate" => evaluate(&args),
        "detect" => detect(&args),
        "mp" => mp(&args),
        "lint" => lint(&args),
        "serve" => serve(&args),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage()).into()),
    }
}

/// Consumes the global output flags (`--quiet`, `--verbosity N`),
/// applying them to the [`rrs_obs::log`] level, and returns the
/// remaining tokens for the subcommand parser.
///
/// [`run`] already applies this to its tokens; the binary additionally
/// calls it on the full argument list so the flags are accepted both
/// before and after the subcommand name.
///
/// # Errors
///
/// Returns an error when `--verbosity` is missing its value or the
/// value is not a number.
pub fn apply_global_flags(tokens: &[String]) -> Result<Vec<String>, CommandError> {
    let mut rest = Vec::with_capacity(tokens.len());
    let mut iter = tokens.iter();
    while let Some(token) = iter.next() {
        match token.as_str() {
            "--quiet" | "-q" => rrs_obs::log::set_verbosity(Level::Error),
            "--verbosity" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| String::from("--verbosity needs a value (0-2)"))?;
                let v: u8 = raw
                    .parse()
                    .map_err(|e| format!("--verbosity {raw:?}: {e}"))?;
                rrs_obs::log::set_verbosity(Level::from_verbosity(v));
            }
            _ => rest.push(token.clone()),
        }
    }
    Ok(rest)
}

/// The CLI usage text.
#[must_use]
pub const fn usage() -> &'static str {
    "rrs — rating-system attack & defense toolkit

USAGE:
  rrs generate --out FILE [--seed N] [--scale paper|small]
  rrs attack   --data FILE --out FILE [--strategy NAME] [--seed N]
               [--bias X] [--std X] [--start DAY] [--duration DAYS]
               [--boost P,P] [--downgrade P,P] [--raters N]
  rrs evaluate --data FILE [--scheme p|sa|bf] [--period DAYS]
  rrs detect   --data FILE [--period DAYS]
  rrs mp       --clean FILE --attacked FILE [--scheme p|sa|bf] [--period DAYS]
  rrs trace    [SCENARIO] [--out FILE] [--flamegraph FILE] [--seed N]
               [--period DAYS]
  rrs metrics  [SCENARIO] [--out FILE] [--seed N] [--period DAYS]
  rrs dump     [SCENARIO] [--out FILE] [--seed N] [--period DAYS]
  rrs lint     [--root DIR] [--jsonl FILE]
  rrs serve    --dir DIR [--addr HOST:PORT] [--addr-file FILE]
               [--period DAYS] [--threshold X] [--discount X]

GLOBAL FLAGS (any command):
  --quiet          errors only
  --verbosity N    0 = errors .. 2 = info (default 2)
Setting RRS_TRACE=1 enables span/metric collection in any command
except `serve`, which always collects metrics only.

Datasets are CSV: rater,product,day,value[,source]. Strategies:
naive-extreme, uniform-spread, camouflage, burst, slow-poison,
majority-sneak, interval-tuned, mimic-shift, correlated (see docs for
the full list); or omit --strategy and give --bias/--std directly.
Scenarios (trace/metrics/dump): downgrade-burst (default), boost-burst,
camouflage, slow-poison. `trace` writes the decision trace as JSONL and
can export a collapsed-stack flamegraph; `metrics` prints the run's
metrics in Prometheus text exposition format; `dump` writes the anomaly
flight recorder's dumps as JSONL. `serve` runs the durable HTTP API
(write-ahead logged, checkpointed) over a serving directory; see the
README's \"Running the server\" walkthrough."
}

fn check_flags(args: &Args, known: &[&str]) -> Result<(), CommandError> {
    let unknown = args.unknown_flags(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!("unknown flags: {}", unknown.join(", ")).into())
    }
}

fn load(path: &str) -> Result<RatingDataset, CommandError> {
    let file = fs::File::open(Path::new(path)).map_err(|e| format!("cannot open {path}: {e}"))?;
    Ok(read_csv(file).map_err(|e| format!("{path}: {e}"))?)
}

fn scheme_by_name(name: &str) -> Result<Box<dyn AggregationScheme>, CommandError> {
    match name {
        "p" | "P" | "p-scheme" => Ok(Box::new(PScheme::new())),
        "sa" | "SA" | "sa-scheme" => Ok(Box::new(SaScheme::new())),
        "bf" | "BF" | "bf-scheme" => Ok(Box::new(BfScheme::new())),
        other => Err(format!("unknown scheme {other:?} (use p, sa, or bf)").into()),
    }
}

fn eval_context(dataset: &RatingDataset, period_days: f64) -> Result<EvalContext, CommandError> {
    Ok(EvalContext::from_dataset(dataset, Days::new(period_days)?)?)
}

/// `rrs generate` — synthesize challenge data.
fn generate(args: &Args) -> Result<String, CommandError> {
    check_flags(args, &["out", "seed", "scale"])?;
    let out = args.required("out")?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let config = match args.get("scale").unwrap_or("paper") {
        "small" => ChallengeConfig::small(),
        "paper" => ChallengeConfig::paper(),
        other => return Err(format!("unknown scale {other:?} (use paper|small)").into()),
    };
    let challenge = RatingChallenge::generate(&config, seed);
    fs::write(out, to_csv_string(challenge.fair_dataset()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {} fair ratings for {} products to {out} (attack window {})",
        challenge.fair_dataset().len(),
        challenge.fair_dataset().product_ids().len(),
        challenge.attack_window(),
    ))
}

fn parse_product_list(raw: &str) -> Result<Vec<ProductId>, CommandError> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<u16>()
                .map(ProductId::new)
                .map_err(|e| format!("bad product id {s:?}: {e}").into())
        })
        .collect()
}

/// Builds an attacker's view of an arbitrary imported dataset.
fn attack_context_for(
    dataset: &RatingDataset,
    boost: &[ProductId],
    downgrade: &[ProductId],
    raters: usize,
) -> Result<AttackContext, CommandError> {
    let (lo, hi) = dataset.time_span()?;
    let horizon = TimeWindow::new(lo, Timestamp::new(hi.as_days() + 1e-6)?)?;
    let max_rater = dataset
        .raters()
        .iter()
        .map(|r| r.value())
        .max()
        .unwrap_or(0);
    let base = max_rater + 1_000_000;
    let mut fair = BTreeMap::new();
    for (pid, timeline) in dataset.products() {
        let points: Vec<(f64, f64)> = timeline
            .iter()
            .map(|e| (e.time().as_days(), e.value()))
            .collect();
        fair.insert(pid, FairView::new(points));
    }
    let mut targets: Vec<(ProductId, Direction)> = Vec::new();
    for &p in boost {
        if !fair.contains_key(&p) {
            return Err(format!("boost target {p} has no ratings in the dataset").into());
        }
        targets.push((p, Direction::Boost));
    }
    for &p in downgrade {
        if !fair.contains_key(&p) {
            return Err(format!("downgrade target {p} has no ratings in the dataset").into());
        }
        targets.push((p, Direction::Downgrade));
    }
    if targets.is_empty() {
        return Err("no attack targets: give --boost and/or --downgrade".into());
    }
    Ok(AttackContext {
        horizon,
        raters: (0..raters as u32).map(|i| RaterId::new(base + i)).collect(),
        targets,
        fair,
    })
}

fn strategy_by_name(
    name: &str,
    bias: f64,
    std_dev: f64,
    start: f64,
    duration: f64,
) -> Result<AttackStrategy, CommandError> {
    Ok(match name {
        "naive-extreme" => AttackStrategy::NaiveExtreme {
            start_day: start,
            duration_days: duration,
        },
        "uniform-spread" => AttackStrategy::UniformSpread,
        "conservative-shift" => AttackStrategy::ConservativeShift { bias },
        "camouflage" => AttackStrategy::Camouflage {
            bias,
            std_dev,
            start_day: start,
            duration_days: duration,
        },
        "burst" => AttackStrategy::Burst {
            bias,
            std_dev,
            start_day: start,
            duration_days: duration,
        },
        "slow-poison" => AttackStrategy::SlowPoison { bias, std_dev },
        "oscillator" => AttackStrategy::Oscillator {
            bias,
            amplitude: std_dev.max(0.5),
            start_day: start,
            duration_days: duration,
        },
        "ramp" => AttackStrategy::Ramp {
            max_bias: bias,
            start_day: start,
            duration_days: duration,
        },
        "mimic-shift" => AttackStrategy::MimicShift {
            bias,
            start_day: start,
            duration_days: duration,
        },
        "interval-tuned" => AttackStrategy::IntervalTuned {
            interval_days: (duration / 50.0).max(0.1),
            bias,
            std_dev,
            start_day: start,
        },
        "random-noise" => AttackStrategy::RandomNoise,
        "correlated" => AttackStrategy::Correlated {
            bias,
            std_dev,
            start_day: start,
            duration_days: duration,
        },
        "majority-sneak" => AttackStrategy::MajoritySneak {
            bias,
            start_day: start,
            duration_days: duration,
        },
        "extreme-wide" => AttackStrategy::ExtremeWide {
            std_dev,
            start_day: start,
            duration_days: duration,
        },
        "anti-correlated" => AttackStrategy::AntiCorrelated {
            bias,
            std_dev,
            start_day: start,
            duration_days: duration,
        },
        other => return Err(format!("unknown strategy {other:?}").into()),
    })
}

/// `rrs attack` — inject unfair ratings into a dataset.
fn attack(args: &Args) -> Result<String, CommandError> {
    check_flags(
        args,
        &[
            "data",
            "out",
            "strategy",
            "seed",
            "bias",
            "std",
            "start",
            "duration",
            "boost",
            "downgrade",
            "raters",
        ],
    )?;
    let data = args.required("data")?;
    let out = args.required("out")?;
    let dataset = load(data)?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    let bias: f64 = args.parsed_or("bias", 2.2)?;
    let std_dev: f64 = args.parsed_or("std", 1.0)?;
    let start: f64 = args.parsed_or("start", 5.0)?;
    let duration: f64 = args.parsed_or("duration", 25.0)?;
    let raters: usize = args.parsed_or("raters", 50)?;

    let products = dataset.product_ids();
    let boost = match args.get("boost") {
        Some(raw) => parse_product_list(raw)?,
        None => products.iter().take(2).copied().collect(),
    };
    let downgrade = match args.get("downgrade") {
        Some(raw) => parse_product_list(raw)?,
        None => products.iter().skip(2).take(2).copied().collect(),
    };

    let ctx = attack_context_for(&dataset, &boost, &downgrade, raters)?;
    let strategy = strategy_by_name(
        args.get("strategy").unwrap_or("camouflage"),
        bias,
        std_dev,
        start,
        duration,
    )?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let sequence = strategy.build(&ctx, &mut rng);

    let mut attacked = dataset;
    for &rating in &sequence.ratings {
        attacked.insert(rating, RatingSource::Unfair);
    }
    fs::write(out, to_csv_string(&attacked)).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "injected {} unfair ratings ({}) into {} -> {out}",
        sequence.len(),
        sequence.label,
        data,
    ))
}

/// `rrs evaluate` — run a defense scheme and report checkpoint scores.
fn evaluate(args: &Args) -> Result<String, CommandError> {
    check_flags(args, &["data", "scheme", "period"])?;
    let dataset = load(args.required("data")?)?;
    let scheme = scheme_by_name(args.get("scheme").unwrap_or("p"))?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let ctx = eval_context(&dataset, period)?;
    let outcome = scheme.evaluate(&dataset, &ctx);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} over {} ratings, {} checkpoints of {period} days",
        scheme.name(),
        dataset.len(),
        ctx.periods().len()
    );
    for (product, scores) in outcome.iter_scores() {
        let rendered: Vec<String> = scores
            .iter()
            .map(|s| s.map_or("-".to_string(), |v| format!("{v:.2}")))
            .collect();
        let _ = writeln!(out, "  {product}: {}", rendered.join("  "));
    }
    let _ = writeln!(
        out,
        "suspicious ratings marked: {}",
        outcome.suspicious().len()
    );
    let mut distrusted: Vec<(&RaterId, &f64)> = outcome
        .trust_map()
        .iter()
        .filter(|(_, t)| **t < 0.5)
        .collect();
    distrusted.sort_by(|a, b| a.1.total_cmp(b.1));
    if !distrusted.is_empty() {
        let _ = writeln!(out, "most distrusted raters:");
        for (rater, trust) in distrusted.iter().take(10) {
            let _ = writeln!(out, "  {rater}: trust {trust:.3}");
        }
    }
    // If the dataset carries ground truth, score the marks.
    let truth = GroundTruth::from_dataset(&dataset);
    if truth.unfair_count() > 0 {
        let _ = writeln!(
            out,
            "vs ground truth: {}",
            truth.score(outcome.suspicious())
        );
    }
    Ok(out)
}

/// `rrs detect` — run the joint detector and report what it sees.
fn detect(args: &Args) -> Result<String, CommandError> {
    check_flags(args, &["data", "period"])?;
    let dataset = load(args.required("data")?)?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let ctx = eval_context(&dataset, period)?;
    let detector = JointDetector::default();
    let (marks, per_product) = detector.detect_all(&dataset, ctx.horizon(), |_| 0.5);

    let mut out = String::new();
    let _ = writeln!(out, "joint detection over {} ratings", dataset.len());
    for (product, result) in &per_product {
        if result.hits.is_empty() && result.all_intervals().is_empty() {
            continue;
        }
        let _ = writeln!(out, "{product}:");
        for interval in result.all_intervals() {
            let _ = writeln!(out, "  {interval}");
        }
        for hit in &result.hits {
            let _ = writeln!(
                out,
                "  path {} marked {} ratings in {} ({:?} band)",
                hit.path, hit.marked, hit.window, hit.band
            );
        }
    }
    let _ = writeln!(out, "total suspicious ratings: {}", marks.len());
    let truth = GroundTruth::from_dataset(&dataset);
    if truth.unfair_count() > 0 {
        let _ = writeln!(out, "vs ground truth: {}", truth.score(&marks));
    }
    Ok(out)
}

/// `rrs mp` — manipulation power of an attacked dataset vs its clean base.
fn mp(args: &Args) -> Result<String, CommandError> {
    check_flags(args, &["clean", "attacked", "scheme", "period"])?;
    let clean_path = args.required("clean")?;
    let attacked_path = args.required("attacked")?;
    let clean = load(clean_path)?;
    let attacked = load(attacked_path)?;
    let scheme = scheme_by_name(args.get("scheme").unwrap_or("p"))?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let params = MpParams {
        period: Days::new(period)?,
        ..MpParams::paper()
    };
    let report = manipulation_power(scheme.as_ref(), &clean, &attacked, &params)?;
    let mut out = String::new();
    let _ = writeln!(out, "{} {report}", scheme.name());
    for (product, detail) in report.iter() {
        let deltas: Vec<String> = detail.deltas().iter().map(|d| format!("{d:.3}")).collect();
        let _ = writeln!(out, "  {product} deltas: {}", deltas.join("  "));
    }
    Ok(out)
}

/// `rrs lint` — run the workspace's static analysis pass.
///
/// Clean trees return the summary line; any finding is an error (so
/// the process exits nonzero), carrying the full findings list.
fn lint(args: &Args) -> Result<String, CommandError> {
    check_flags(args, &["root", "jsonl"])?;
    let root = Path::new(args.get("root").unwrap_or("."));
    let report = rrs_lint::scan_root(root).map_err(|e| format!("{}: {e}", root.display()))?;
    if let Some(path) = args.get("jsonl") {
        fs::write(path, report.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if report.is_clean() {
        Ok(report.render())
    } else {
        Err(report.render().into())
    }
}

/// `rrs serve` — open (or recover) a durable serving directory and run
/// the HTTP API on it until a `POST /shutdown`.
///
/// The server collects metrics only ([`rrs_serve::COLLECTION`]), whatever
/// `RRS_TRACE` says: `GET /metrics` reports live counters, while the
/// span sink, which nothing in a server drains, stays empty.
/// With `--addr 127.0.0.1:0` the OS picks a free port and `--addr-file`
/// advertises the bound address for scripts to discover.
fn serve(args: &Args) -> Result<String, CommandError> {
    check_flags(
        args,
        &[
            "dir",
            "addr",
            "addr-file",
            "period",
            "threshold",
            "discount",
        ],
    )?;
    let dir = args.required("dir")?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let threshold: f64 = args.parsed_or("threshold", 0.5)?;
    let discount = match args.get("discount") {
        Some(raw) => Some(
            raw.parse::<f64>()
                .map_err(|e| format!("--discount {raw:?}: {e}"))?,
        ),
        None => None,
    };
    let config = rrs_serve::EngineConfig {
        period_days: period,
        filter_trust_threshold: threshold,
        trust_discount: discount,
        ..rrs_serve::EngineConfig::paper(period)
    };
    // The metrics endpoint serves the live registry; spans stay off.
    rrs_obs::set_collection(rrs_serve::COLLECTION);
    let engine = rrs_serve::Engine::open(Path::new(dir), config)
        .map_err(|e| format!("cannot open serving directory {dir}: {e}"))?;
    let server_config = rrs_serve::ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        addr_file: args.get("addr-file").map(std::path::PathBuf::from),
    };
    let mut server = rrs_serve::Server::new(engine);
    server
        .run(&server_config)
        .map_err(|e| format!("server failed: {e}"))?;
    Ok(format!(
        "server stopped: {} epochs, {} ratings, {} WAL events in {dir}\n",
        server.engine().epochs(),
        server.engine().ratings(),
        server.engine().wal_events(),
    ))
}

/// Splits a leading positional scenario name off a token list, falling
/// back to the default scenario when the first token is a flag.
fn split_scenario(tokens: &[String]) -> (&str, &[String]) {
    match tokens.split_first() {
        Some((s, rest)) if !s.starts_with("--") => (s.as_str(), rest),
        _ => ("downgrade-burst", tokens),
    }
}

/// The canned attack scenarios shared by `trace`, `metrics`, and `dump`.
fn scenario_strategy(scenario: &str) -> Result<AttackStrategy, CommandError> {
    Ok(match scenario {
        "downgrade-burst" => AttackStrategy::NaiveExtreme {
            start_day: 35.0,
            duration_days: 10.0,
        },
        "boost-burst" => AttackStrategy::Burst {
            bias: 2.5,
            std_dev: 0.4,
            start_day: 40.0,
            duration_days: 10.0,
        },
        "camouflage" => AttackStrategy::Camouflage {
            bias: 2.0,
            std_dev: 0.8,
            start_day: 35.0,
            duration_days: 15.0,
        },
        "slow-poison" => AttackStrategy::SlowPoison {
            bias: 2.0,
            std_dev: 0.6,
        },
        other => {
            return Err(format!(
                "unknown scenario {other:?} \
                 (use downgrade-burst, boost-burst, camouflage, or slow-poison)"
            )
            .into())
        }
    })
}

/// Everything one instrumented scenario run produces.
struct ScenarioRun {
    /// Unfair ratings the attack injected.
    injected: usize,
    /// Ratings the P-scheme marked suspicious.
    suspicious: usize,
    /// Drained decision records, in record order.
    records: Vec<rrs_obs::decision::DecisionRecord>,
    /// Drained spans, in completion order.
    spans: Vec<rrs_obs::trace::SpanRecord>,
    /// The run's metric registry snapshot.
    metrics: rrs_obs::metrics::MetricsSnapshot,
    /// The flight recorder's dumps, rendered as JSONL.
    recorder_dump: String,
    /// How many dumps the recorder captured.
    dump_count: usize,
}

/// Runs a canned seeded scenario through the P-scheme with every
/// telemetry sink on and initially empty, then captures them all.
///
/// The obs switch is restored to its prior state afterwards, but the
/// sinks are left cleared: a scenario run's telemetry is only
/// meaningful in isolation.
fn run_scenario(scenario: &str, seed: u64, period: f64) -> Result<ScenarioRun, CommandError> {
    let strategy = scenario_strategy(scenario)?;
    let challenge = RatingChallenge::generate(&ChallengeConfig::small(), seed);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let sequence = strategy.build(&challenge.attack_context(), &mut rng);
    let attacked = challenge.attacked_dataset(&sequence);
    let ctx = eval_context(&attacked, period)?;

    let was_enabled = rrs_obs::enabled();
    rrs_obs::enable();
    rrs_obs::reset();
    let outcome = PScheme::new().evaluate(&attacked, &ctx);
    let records = rrs_obs::decision::drain();
    let spans = rrs_obs::trace::drain_spans();
    let metrics = rrs_obs::metrics::snapshot();
    let recorder_dump = rrs_obs::recorder::dump_jsonl();
    let dump_count = rrs_obs::recorder::dump_count();
    rrs_obs::reset();
    if !was_enabled {
        rrs_obs::disable();
    }
    Ok(ScenarioRun {
        injected: sequence.len(),
        suspicious: outcome.suspicious().len(),
        records,
        spans,
        metrics,
        recorder_dump,
        dump_count,
    })
}

/// `rrs trace` — run a seeded attack scenario through the P-scheme with
/// decision-trace collection on and write the trace as JSONL.
///
/// The trace body contains no wall-clock values, so the same scenario
/// and seed produce a byte-identical file on every run. With
/// `--flamegraph FILE` the run's span tree is additionally written in
/// collapsed-stack format (`root;child;leaf self_ns`, one line per
/// stack, sorted) — the input format flamegraph renderers consume.
fn trace(tokens: &[String]) -> Result<String, CommandError> {
    let (scenario, rest) = split_scenario(tokens);
    let args = Args::parse(rest.iter().cloned())?;
    check_flags(&args, &["out", "flamegraph", "seed", "period"])?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let default_out = format!("trace_{scenario}.jsonl");
    let out_path = args.get("out").unwrap_or(&default_out);

    let run = run_scenario(scenario, seed, period)?;
    rrs_obs::export::write_trace_file(Path::new(out_path), &run.records)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;

    let flagged = run.records.iter().filter(|r| r.any_fired()).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {scenario}: {} unfair ratings injected (seed {seed})",
        run.injected
    );
    let _ = writeln!(
        out,
        "decision trace: {} records ({flagged} with detector activity) -> {out_path}",
        run.records.len()
    );
    let _ = writeln!(out, "suspicious ratings marked: {}", run.suspicious);
    if let Some(fg_path) = args.get("flamegraph") {
        let stacks = rrs_obs::trace::collapsed_stacks(&run.spans);
        fs::write(fg_path, &stacks).map_err(|e| format!("cannot write {fg_path}: {e}"))?;
        let _ = writeln!(
            out,
            "flamegraph: {} collapsed stacks -> {fg_path}",
            stacks.lines().count()
        );
    }
    let _ = writeln!(out, "stage timings (this run, not in the trace file):");
    for s in rrs_obs::trace::stage_totals(&run.spans) {
        let _ = writeln!(
            out,
            "  {:<10} {:>6} spans  {:>12.3} ms",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6
        );
    }
    Ok(out)
}

/// `rrs metrics` — run a seeded scenario with full telemetry and render
/// the run's metric registry in Prometheus text exposition format.
///
/// The registry holds no wall-clock values on this path — counters,
/// gauges, and quantile sketches all derive from the dataset — so the
/// output is byte-identical for a fixed scenario and seed, at any
/// thread count.
fn metrics(tokens: &[String]) -> Result<String, CommandError> {
    let (scenario, rest) = split_scenario(tokens);
    let args = Args::parse(rest.iter().cloned())?;
    check_flags(&args, &["out", "seed", "period"])?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let period: f64 = args.parsed_or("period", 30.0)?;

    let run = run_scenario(scenario, seed, period)?;
    let body = run.metrics.to_prometheus();
    match args.get("out") {
        Some(path) => {
            fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!(
                "scenario {scenario}: {} metric lines -> {path}\n",
                body.lines().count()
            ))
        }
        None => Ok(body),
    }
}

/// `rrs dump` — run a seeded scenario and write the anomaly flight
/// recorder's dumps as JSONL.
///
/// Each line is one detector firing: the product, its recent decision
/// window, and the spans that led up to the firing. Span timings are
/// wall-clock, so dumps are operator forensics, not golden-test
/// material.
fn dump(tokens: &[String]) -> Result<String, CommandError> {
    let (scenario, rest) = split_scenario(tokens);
    let args = Args::parse(rest.iter().cloned())?;
    check_flags(&args, &["out", "seed", "period"])?;
    let seed: u64 = args.parsed_or("seed", 7)?;
    let period: f64 = args.parsed_or("period", 30.0)?;
    let default_out = format!("dump_{scenario}.jsonl");
    let out_path = args.get("out").unwrap_or(&default_out);

    let run = run_scenario(scenario, seed, period)?;
    fs::write(out_path, &run.recorder_dump).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(format!(
        "scenario {scenario}: {} flight-recorder dump(s) ({} suspicious ratings) -> {out_path}\n",
        run.dump_count, run.suspicious
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("rrs_cli_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn run_ok(command: &str, tokens: &[&str]) -> String {
        run(
            command,
            &tokens.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
        )
        .unwrap_or_else(|e| panic!("{command} failed: {e}"))
    }

    #[test]
    fn full_cli_workflow() {
        let fair = tmp("fair.csv");
        let attacked = tmp("attacked.csv");

        let msg = run_ok(
            "generate",
            &["--out", &fair, "--seed", "3", "--scale", "small"],
        );
        assert!(msg.contains("fair ratings"), "{msg}");

        let msg = run_ok(
            "attack",
            &[
                "--data",
                &fair,
                "--out",
                &attacked,
                "--strategy",
                "burst",
                "--bias",
                "3.0",
                "--std",
                "0.4",
                "--start",
                "40",
                "--duration",
                "10",
                "--seed",
                "5",
                "--boost",
                "0",
                "--downgrade",
                "2",
            ],
        );
        assert!(msg.contains("injected"), "{msg}");

        let msg = run_ok("evaluate", &["--data", &attacked, "--scheme", "p"]);
        assert!(msg.contains("P-scheme"), "{msg}");
        assert!(msg.contains("ground truth"), "{msg}");

        let msg = run_ok("detect", &["--data", &attacked]);
        assert!(msg.contains("suspicious"), "{msg}");

        let msg = run_ok(
            "mp",
            &["--clean", &fair, "--attacked", &attacked, "--scheme", "sa"],
        );
        assert!(msg.contains("MP ="), "{msg}");

        std::fs::remove_file(&fair).ok();
        std::fs::remove_file(&attacked).ok();
    }

    #[test]
    fn trace_writes_decision_jsonl() {
        let _guard = rrs_obs::trace::tests_lock();
        let out = tmp("trace.jsonl");
        let msg = run_ok("trace", &["downgrade-burst", "--out", &out, "--seed", "7"]);
        assert!(msg.contains("decision trace"), "{msg}");
        let body = std::fs::read_to_string(&out).expect("trace file written");
        std::fs::remove_file(&out).ok();
        assert!(!body.is_empty());
        for key in [
            "\"product\"",
            "\"detectors\"",
            "\"paths\"",
            "\"suspicious\"",
            "\"trust\"",
        ] {
            assert!(body.contains(key), "trace body missing {key}: {body}");
        }
        // The scenario is a real attack: at least one record must show a
        // fired detector.
        assert!(body.contains("\"fired\":true"), "no detector fired");
        // The switch must be restored after the command.
        assert!(!rrs_obs::enabled());
    }

    #[test]
    fn trace_writes_flamegraph_stacks() {
        let _guard = rrs_obs::trace::tests_lock();
        let out = tmp("trace_fg.jsonl");
        let fg = tmp("trace.folded");
        let msg = run_ok(
            "trace",
            &["downgrade-burst", "--out", &out, "--flamegraph", &fg],
        );
        assert!(msg.contains("flamegraph"), "{msg}");
        let body = std::fs::read_to_string(&fg).expect("flamegraph written");
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&fg).ok();
        assert!(!body.is_empty());
        for line in body.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("line has a self-time");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            ns.parse::<u64>()
                .unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
        // The epoch loop is the root of the scheme's span tree, so
        // detector work must appear as a nested stack under it.
        assert!(
            body.lines().any(|l| l.starts_with("scheme.epoch;")),
            "no stacks nested under scheme.epoch:\n{body}"
        );
    }

    #[test]
    fn metrics_renders_prometheus_exposition() {
        let _guard = rrs_obs::trace::tests_lock();
        let body = run_ok("metrics", &["downgrade-burst", "--seed", "7"]);
        assert!(body.contains("# TYPE"), "{body}");
        assert!(body.contains("trust_epochs"), "{body}");
        assert!(body.contains("scheme_suspicious_set_size"), "{body}");
        // The sketch renders as a quantile summary.
        assert!(body.contains("quantile=\"0.5\""), "{body}");
        assert!(!rrs_obs::enabled());

        // Same scenario and seed must render byte-identically: nothing
        // on this path may put wall-clock values into the registry.
        let again = run_ok("metrics", &["downgrade-burst", "--seed", "7"]);
        assert_eq!(body, again, "metrics output is not reproducible");
    }

    #[test]
    fn metrics_writes_to_file() {
        let _guard = rrs_obs::trace::tests_lock();
        let out = tmp("metrics.prom");
        let msg = run_ok("metrics", &["--out", &out]);
        assert!(msg.contains("metric lines"), "{msg}");
        let body = std::fs::read_to_string(&out).expect("metrics written");
        std::fs::remove_file(&out).ok();
        assert!(body.contains("# TYPE"), "{body}");
    }

    #[test]
    fn dump_writes_flight_recorder_jsonl() {
        let _guard = rrs_obs::trace::tests_lock();
        let out = tmp("dump.jsonl");
        let msg = run_ok("dump", &["downgrade-burst", "--out", &out]);
        assert!(msg.contains("flight-recorder"), "{msg}");
        let body = std::fs::read_to_string(&out).expect("dump written");
        std::fs::remove_file(&out).ok();
        // The scenario is a real attack, so at least one detector fired
        // and produced a dump carrying its decision window.
        assert!(!body.is_empty(), "no flight-recorder dumps");
        for key in ["\"product\"", "\"window\"", "\"recent_spans\""] {
            assert!(body.contains(key), "dump missing {key}: {body}");
        }
        assert!(!rrs_obs::enabled());
    }

    #[test]
    fn trace_rejects_unknown_scenario() {
        let _guard = rrs_obs::trace::tests_lock();
        let err = run("trace", &["made-up".into()]).unwrap_err().to_string();
        assert!(err.contains("made-up"), "{err}");
    }

    #[test]
    fn global_flags_are_stripped_and_applied() {
        let _guard = rrs_obs::trace::tests_lock();
        let err = run(
            "generate",
            &["--quiet".into(), "--verbosity".into(), "1".into()],
        )
        .unwrap_err()
        .to_string();
        // --quiet and --verbosity must not reach the subcommand parser;
        // the failure is the missing --out, nothing else.
        assert!(err.contains("--out"), "{err}");
        assert_eq!(rrs_obs::log::verbosity(), Level::Warn);
        rrs_obs::log::set_verbosity(Level::Info);
    }

    #[test]
    fn verbosity_without_value_is_an_error() {
        let _guard = rrs_obs::trace::tests_lock();
        let err = run("detect", &["--verbosity".into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--verbosity"), "{err}");
    }

    #[test]
    fn lint_subcommand_reports_clean_and_dirty_trees() {
        let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let msg = run_ok("lint", &["--root", repo_root]);
        assert!(msg.contains("0 finding(s)"), "{msg}");

        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../lint/fixtures/output");
        let err = run("lint", &["--root".into(), fixture.into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("[print]"), "{err}");
    }

    #[test]
    fn lint_subcommand_writes_jsonl() {
        let out = tmp("lint.jsonl");
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../lint/fixtures/float_eq");
        let _ = run(
            "lint",
            &[
                "--root".into(),
                fixture.into(),
                "--jsonl".into(),
                out.clone(),
            ],
        );
        let body = std::fs::read_to_string(&out).expect("jsonl written");
        std::fs::remove_file(&out).ok();
        assert!(body.contains("\"rule\":\"float-eq\""), "{body}");
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = run("frobnicate", &[]).unwrap_err().to_string();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = run("generate", &["--oot".into(), "x".into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--oot"), "{err}");
    }

    #[test]
    fn missing_required_flag() {
        let err = run("mp", &["--clean".into(), "x".into()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--attacked"), "{err}");
    }

    #[test]
    fn bad_scheme_name() {
        let err = match scheme_by_name("zz") {
            Err(e) => e.to_string(),
            Ok(_) => panic!("bogus scheme accepted"),
        };
        assert!(err.contains("zz"));
    }

    #[test]
    fn every_cli_strategy_name_resolves() {
        for name in [
            "naive-extreme",
            "uniform-spread",
            "conservative-shift",
            "camouflage",
            "burst",
            "slow-poison",
            "oscillator",
            "ramp",
            "mimic-shift",
            "interval-tuned",
            "random-noise",
            "correlated",
            "majority-sneak",
            "extreme-wide",
            "anti-correlated",
        ] {
            strategy_by_name(name, 2.0, 1.0, 5.0, 20.0).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(strategy_by_name("bogus", 0.0, 0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn attack_rejects_missing_target_product() {
        let fair = tmp("fair2.csv");
        run_ok(
            "generate",
            &["--out", &fair, "--seed", "3", "--scale", "small"],
        );
        let err = run(
            "attack",
            &[
                "--data".into(),
                fair.clone(),
                "--out".into(),
                tmp("x.csv"),
                "--downgrade".into(),
                "99".into(),
                "--boost".into(),
                "0".into(),
            ],
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("99"), "{err}");
        std::fs::remove_file(&fair).ok();
    }
}
