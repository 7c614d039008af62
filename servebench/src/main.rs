//! `servebench` — the end-to-end serving benchmark.
//!
//! ```text
//! servebench --server PATH --workload ingest|epoch|read-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts a real `rrs serve` on `127.0.0.1:0`, drives it over one
//! keep-alive connection in a closed loop, checks the served trust table
//! and suspicion set against an in-process replay of the same requests,
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced replay (`--trace 1`). The last line of standard
//! output is the JSON result. See `README.md` for the metrics and
//! workloads.

mod client;
mod gate;
mod plan;
mod replay;
mod report;
mod stream;

use client::{Conn, Server};
use plan::{Class, Plan, Request, Workload};
use replay::Replay;
use report::{mean, median, sample_median, Metrics};
use rrs_serve::checkpoint::read_checkpoint;
use rrs_serve::wal::read_wal;
use rrs_serve::{Engine, EngineConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Crash-restarts after the timed phase in the traced run; the fastest is
/// `recovery.restart_s`. An untraced run restarts once, for the gate.
const RESTARTS: usize = 7;
/// Idle time between restarts, so they sample several seconds of a shared
/// host's contention rather than one stretch of it.
const RESTART_GAP: Duration = Duration::from_millis(500);
/// Repetitions of each in-process recovery call in the traced run.
const RECOVERY_REPEATS: usize = 3;
/// Where the benchmark works and writes its records, under the checkout.
const STATE_DIR: &str = ".servebench";

struct Args {
    server: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut tokens = std::env::args().skip(1);
    let (mut server, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = tokens.next() {
        let value = tokens
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(plan::workload(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (use ingest, epoch or read-mix)")
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let work = PathBuf::from(STATE_DIR).join(format!("work-{}", std::process::id()));
        let outcome = run(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        outcome
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed request as the client saw it.
struct Sample {
    route: plan::Route,
    ttfb_ms: f64,
    total_ms: f64,
}

/// What one set-up left running.
struct Setup {
    server: Server,
    dir: PathBuf,
    plan: Plan,
    inputs: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn send_all(conn: &mut Conn, requests: &[Request]) -> Result<(), String> {
    for request in requests {
        let reply = conn.send(&request.bytes)?;
        if reply.status != 200 {
            return Err(format!(
                "set-up request {:?} answered {}: {}",
                request.route,
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
    }
    Ok(())
}

/// Stream generation, server start, preload, checkpoint, suffix, SIGKILL
/// and restart.
fn set_up(args: &Args, work: &Path, round: usize) -> Result<Setup, String> {
    let w = args.workload;
    let stream = stream::generate(w.instances, args.seed);
    let plan = plan::build(w, &stream, args.seed);
    let dir = work.join(format!("server-{round}"));
    let (server, _) = Server::start(&args.server, &dir, w.period_days)?;
    let mut conn = Conn::open(server.addr)?;
    send_all(&mut conn, &plan.preload)?;
    send_all(&mut conn, &plan.suffix)?;
    drop(conn);
    server.kill();
    let (server, _) = Server::start(&args.server, &dir, w.period_days)?;
    let inputs = format!(
        "ratings={} products={} raters={} instances={} strategies={}",
        stream.ratings.len(),
        stream.products,
        stream.raters,
        w.instances,
        stream.strategies.join(",")
    );
    Ok(Setup {
        server,
        dir,
        plan,
        inputs,
    })
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;

    // Set up several times; keep the last server, report the medians.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for round in 0..SETUPS {
        let started = Instant::now();
        let setup = set_up(args, work, round)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(setup) {
            old.server.kill();
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let setup = kept.ok_or("no set-up ran")?;

    // The timed phase: a closed loop on one keep-alive connection. The
    // whole plan is sent; `--seconds` is a hard limit, not a cut-off, so
    // a slower program cannot report better figures from a shorter run.
    let mut conn = Conn::open(setup.server.addr)?;
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut acked_ratings = 0usize;
    let mut applied = Vec::new();
    let mut problems = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    for (index, request) in setup.plan.timed.iter().enumerate() {
        if started.elapsed() >= budget {
            problems.push(format!(
                "the timed plan did not finish within {} s: {index} of {} requests sent",
                args.seconds,
                setup.plan.timed.len()
            ));
            break;
        }
        attempted += 1;
        match conn.send(&request.bytes) {
            Ok(reply) if reply.status == 200 => {
                samples.push(Sample {
                    route: request.route,
                    ttfb_ms: ms(reply.ttfb),
                    total_ms: ms(reply.total),
                });
                if let plan::Route::Ingest(n) = request.route {
                    acked_ratings += n;
                }
                applied.push(index);
            }
            Ok(reply) => {
                failed += 1;
                eprintln!("servebench: {:?} answered {}", request.route, reply.status);
            }
            Err(e) => {
                failed += 1;
                eprintln!("servebench: {:?} failed: {e}", request.route);
                conn = Conn::open(setup.server.addr)?;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (rss_mb, rss_peak_mb) = setup.server.memory_mb()?;

    // Checkpoint, crash and recover the workload's directory: recovery
    // loads the checkpoint and re-parses every rating in the WAL.
    attempted += 1;
    let checkpoint =
        conn.send(b"POST /checkpoint HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n")?;
    if checkpoint.status != 200 {
        return Err(format!("final checkpoint answered {}", checkpoint.status));
    }
    drop(conn);
    let mut server = setup.server;
    let mut restarts_s = Vec::new();
    for _ in 0..if args.trace { RESTARTS } else { 1 } {
        server.kill();
        std::thread::sleep(RESTART_GAP);
        let (live, took) = Server::start(&args.server, &setup.dir, w.period_days)?;
        restarts_s.push(took.as_secs_f64());
        server = live;
    }

    // The correctness gate: the recovered server's state against the
    // in-process replay.
    let mut conn = Conn::open(server.addr)?;
    attempted += 2;
    let served_trust = conn.send(b"GET /trust HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")?;
    let served_suspicious = conn.send(b"GET /suspicious HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")?;
    drop(conn);
    server.kill();

    let mut replay = Replay::open(&work.join("replay"), w.period_days, args.trace)?;
    for request in setup.plan.preload.iter().chain(&setup.plan.suffix) {
        replay.apply(request, None)?;
    }
    for (position, &index) in applied.iter().enumerate() {
        replay.apply(&setup.plan.timed[index], Some(position))?;
    }
    let expected_trust = replay.engine().trust_table();
    let expected_suspicious = replay.engine().suspicious_details();
    let mut mismatches = Vec::new();
    if let Err(e) = gate::check_trust(served_trust.status, &served_trust.body, &expected_trust) {
        mismatches.push(format!("/trust: {e}"));
    }
    if let Err(e) = gate::check_suspicious(
        served_suspicious.status,
        &served_suspicious.body,
        &expected_suspicious,
    ) {
        mismatches.push(format!("/suspicious: {e}"));
    }
    if w.name != "ingest" && (expected_trust.is_empty() || expected_suspicious.is_empty()) {
        mismatches.push("trust table or suspicion set is empty; the check would be vacuous".into());
    }
    if !replay.mirror_matches_engine() {
        mismatches.push("the traced mirror diverged from the engine".into());
    }
    failed += mismatches.len() as u64;
    for m in &mismatches {
        eprintln!("servebench: correctness gate: {m}");
    }

    if args.trace {
        let (dir, config) = (&setup.dir, EngineConfig::paper(w.period_days));
        for _ in 0..RECOVERY_REPEATS {
            replay
                .time("recovery.read_checkpoint", || read_checkpoint(dir))
                .map_err(|e| format!("read_checkpoint: {e}"))?;
            replay
                .time("recovery.read_wal", || read_wal(dir))
                .map_err(|e| format!("read_wal: {e}"))?;
            replay
                .time("recovery.open", || Engine::open(dir, config))
                .map_err(|e| format!("Engine::open: {e}"))?;
        }
    }

    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("RRS_THREADS").unwrap_or_else(|_| "unset".to_string());
    // The final suspicion-set and trust-table sizes: context for the epoch
    // timings. A change in them is a change in behaviour, not a gain.
    let header = format!(
        "servebench workload={} seed={} trace={} seconds={} nproc={nproc} RRS_THREADS={threads} commit={commit} {} marked={} trust_raters={} timed_requests={}/{} elapsed_s={elapsed:.3}",
        w.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        setup.inputs,
        expected_suspicious.len(),
        expected_trust.len(),
        samples.len(),
        setup.plan.timed.len(),
    );

    let metrics = if args.trace {
        let (metrics, drift) = layer_metrics(&replay, &samples, &applied, &setup.plan, &restarts_s);
        problems.extend(drift);
        metrics
    } else {
        end_to_end_metrics(
            &samples,
            elapsed,
            acked_ratings,
            &setup_s,
            rss_mb,
            rss_peak_mb,
        )?
    };
    for p in &problems {
        eprintln!("servebench: {p}");
    }
    let correct = mismatches.is_empty() && problems.is_empty() && failed == 0;

    println!("{header}");
    for m in &metrics.0 {
        println!(
            "  {:<36} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let out = PathBuf::from(STATE_DIR).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let mut record =
        format!("{header}\nsetup_s samples {setup_s:?}\nrestart_s samples {restarts_s:?}\n");
    for m in &metrics.0 {
        record.push_str(&format!(
            "{} {} {} n={}\n",
            m.name,
            report::number(m.value),
            m.unit,
            m.samples
        ));
    }
    std::fs::write(out.join(format!("{stem}.txt")), record)
        .map_err(|e| format!("write result: {e}"))?;
    let mut requests = String::from("route\tttfb_ms\ttotal_ms\n");
    for s in &samples {
        requests.push_str(&format!(
            "{}\t{}\t{}\n",
            s.route.label(),
            s.ttfb_ms,
            s.total_ms
        ));
    }
    std::fs::write(out.join(format!("{stem}.requests.tsv")), requests)
        .map_err(|e| format!("write request samples: {e}"))?;
    if args.trace {
        std::fs::write(
            out.join(format!("{stem}.spans.jsonl")),
            replay.tracer.to_jsonl(),
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    ))
}

fn class_values(samples: &[Sample], class: Class, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.route.class() == class)
        .map(f)
        .collect()
}

fn end_to_end_metrics(
    samples: &[Sample],
    elapsed: f64,
    acked_ratings: usize,
    setup_s: &[f64],
    rss_mb: f64,
    rss_peak_mb: f64,
) -> Result<Metrics, String> {
    let total = |class| class_values(samples, class, |s| s.total_ms);
    let mut m = Metrics::default();
    m.sample_median("setup_s", setup_s, "s")?;
    m.put(
        "req_per_s",
        samples.len() as f64 / elapsed,
        "1/s",
        samples.len(),
    );
    m.put(
        "ingest_ratings_per_s",
        acked_ratings as f64 / elapsed,
        "1/s",
        acked_ratings,
    );
    m.percentile("ingest_p50_ms", &total(Class::Ingest), 0.5, "ms")?;
    m.percentile("ingest_p90_ms", &total(Class::Ingest), 0.9, "ms")?;
    m.percentile("epoch_p50_ms", &total(Class::Epoch), 0.5, "ms")?;
    m.percentile("epoch_p90_ms", &total(Class::Epoch), 0.9, "ms")?;
    m.percentile("read_p50_ms", &total(Class::Read), 0.5, "ms")?;
    m.percentile("read_p90_ms", &total(Class::Read), 0.9, "ms")?;
    m.put("rss_mb", rss_mb, "MB", 1);
    m.put("rss_peak_mb", rss_peak_mb, "MB", 1);
    Ok(m)
}

/// The mirrored layer calls each request class is accounted to. They are
/// leaf spans, so each one's self time is its duration.
const LAYERS: [(Class, &[&str]); 4] = [
    (
        Class::Ingest,
        &["http.parse", "dto.parse", "wal.append", "store.insert"],
    ),
    (
        Class::Epoch,
        &[
            "http.parse",
            "wal.append",
            "trust.snapshot",
            "detect.epoch",
            "trust.update",
        ],
    ),
    (
        Class::Read,
        &["http.parse", "engine.score", "engine.trust_record"],
    ),
    (
        Class::Scan,
        &["http.parse", "engine.suspicious", "engine.trust_table"],
    ),
];

/// The range the mirrored layers' median per-request share of the
/// program's own time must stay in, for the classes whose layer calls the
/// mirror rebuilds from the engine's internals. Outside it, the mirror no
/// longer makes the program's calls, and the run fails until it is
/// brought back in line. It is this wide because an ingest request is
/// mostly one fsync, whose cost varies by tens of per cent from call to
/// call; smaller drift shows in `acct.<class>.other_ms`.
const MIRROR_SHARE: std::ops::RangeInclusive<f64> = 0.75..=1.33;

/// Per-call medians of timed spans: metric, span, class filter, scale
/// from milliseconds, unit.
const SPAN_MEDIANS: [(&str, &str, Option<Class>, f64, &str); 10] = [
    ("http.parse_us", "http.parse", None, 1e3, "us"),
    (
        "wal.append_ms",
        "wal.append",
        Some(Class::Ingest),
        1.0,
        "ms",
    ),
    ("detect.epoch_ms", "detect.epoch", None, 1.0, "ms"),
    ("trust.snapshot_ms", "trust.snapshot", None, 1.0, "ms"),
    ("trust.update_ms", "trust.update", None, 1.0, "ms"),
    ("engine.epoch_ms", "program.epoch", None, 1.0, "ms"),
    ("engine.score_us", "engine.score", None, 1e3, "us"),
    (
        "engine.trust_record_us",
        "engine.trust_record",
        None,
        1e3,
        "us",
    ),
    ("engine.suspicious_ms", "engine.suspicious", None, 1.0, "ms"),
    (
        "engine.trust_table_ms",
        "engine.trust_table",
        None,
        1.0,
        "ms",
    ),
];

/// Medians of the recovery calls: metric, span, scale, unit.
const RECOVERY_MEDIANS: [(&str, &str, f64, &str); 3] = [
    (
        "recovery.read_checkpoint_ms",
        "recovery.read_checkpoint",
        1.0,
        "ms",
    ),
    ("recovery.read_wal_s", "recovery.read_wal", 1e-3, "s"),
    ("recovery.open_s", "recovery.open", 1e-3, "s"),
];

fn layer_metrics(
    replay: &Replay,
    samples: &[Sample],
    applied: &[usize],
    plan: &Plan,
    restarts_s: &[f64],
) -> (Metrics, Vec<String>) {
    let spans = &replay.tracer.spans;
    let class_of = |position: usize| plan.timed[applied[position]].route.class();
    // Durations (ms) of timed spans named `name`, optionally by class.
    let durations = |name: &str, class: Option<Class>| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                s.request
                    .is_some_and(|r| class.is_none_or(|c| class_of(r) == c))
            })
            .map(replay::Span::ms)
            .collect()
    };
    let total = |name: &str| durations(name, None).iter().sum::<f64>();
    let mut m = Metrics::default();
    let put_median = |m: &mut Metrics, name: &str, values: Vec<f64>, scale: f64, unit| {
        let value = median(&values).map_or(0.0, |v| v * scale);
        m.put(name, value, unit, values.len());
    };

    // Client side: the transport split.
    put_median(
        &mut m,
        "http.ttfb_ms",
        samples.iter().map(|s| s.ttfb_ms).collect(),
        1.0,
        "ms",
    );
    put_median(
        &mut m,
        "http.tail_ms",
        samples.iter().map(|s| s.total_ms - s.ttfb_ms).collect(),
        1.0,
        "ms",
    );
    for class in Class::TIMED {
        let name = class.name();
        put_median(
            &mut m,
            &format!("http.ttfb_ms.{name}"),
            class_values(samples, class, |s| s.ttfb_ms),
            1.0,
            "ms",
        );
        put_median(
            &mut m,
            &format!("http.tail_ms.{name}"),
            class_values(samples, class, |s| s.total_ms - s.ttfb_ms),
            1.0,
            "ms",
        );
    }

    // Per-call layer costs.
    for (metric, span, class, scale, unit) in SPAN_MEDIANS {
        put_median(&mut m, metric, durations(span, class), scale, unit);
    }
    for (metric, span, scale, unit) in RECOVERY_MEDIANS {
        let calls = spans
            .iter()
            .filter(|s| s.name == span)
            .map(replay::Span::ms);
        put_median(&mut m, metric, calls.collect(), scale, unit);
    }
    // A restart's start-up runs single-threaded and lands on a fast or a
    // slow vCPU of a shared host (~1.65x apart for one directory); the
    // fastest of several restarts is the one that repeats.
    let fastest = restarts_s.iter().copied().fold(f64::INFINITY, f64::min);
    m.put("recovery.restart_s", fastest, "s", restarts_s.len());
    let counts = &replay.counts;
    let (ratings, events) = (counts.ratings.max(1) as f64, counts.events.max(1) as f64);
    let n_ratings = counts.ratings as usize;
    let per_rating = |span: &str, scale: f64| total(span) * scale / ratings;
    m.put(
        "dto.parse_us_per_rating",
        per_rating("dto.parse", 1e3),
        "us",
        n_ratings,
    );
    m.put(
        "store.insert_ns",
        per_rating("store.insert", 1e6),
        "ns",
        n_ratings,
    );
    let encode = total("probe.wal.encode") * 1e3 / events;
    m.put(
        "wal.encode_us_per_event",
        encode,
        "us",
        counts.events as usize,
    );
    let bytes = counts.rating_wal_bytes as f64 / ratings;
    m.put("wal.bytes_per_rating", bytes, "B", n_ratings);
    m.put("wal.fsyncs", counts.fsyncs as f64, "count", 1);

    // Accounting, per class, in means (which add up exactly): the client's
    // time splits into tail + TTFB; TTFB into the program's own time
    // (`Server::handle` in memory) and what the socket adds; and the
    // program's time into the mirrored layers and what they do not cover.
    let mut drift = Vec::new();
    for (class, layers) in LAYERS {
        let name = class.name();
        let requests = (0..applied.len()).filter(|&p| class_of(p) == class).count();
        let n = requests.max(1) as f64;
        let per_request = |span: &str| durations(span, Some(class)).iter().sum::<f64>() / n;
        // Each request's mirrored layer time and the program's own time.
        let mut split = vec![(0.0, 0.0); applied.len()];
        for s in spans {
            let Some(r) = s.request.filter(|&r| class_of(r) == class) else {
                continue;
            };
            if s.name == replay::program_name(class) {
                split[r].1 += s.ms();
            } else if layers.contains(&s.name) {
                split[r].0 += s.ms();
            }
        }
        let mut layered = 0.0;
        for layer in layers {
            let own = per_request(layer);
            layered += own;
            m.put(format!("self.{name}.{layer}_ms"), own, "ms", requests);
        }
        let server = per_request(replay::program_name(class));
        let ttfb = mean(&class_values(samples, class, |s| s.ttfb_ms));
        let client = mean(&class_values(samples, class, |s| s.total_ms));
        for (part, value) in [
            ("client", client),
            ("tail", client - ttfb),
            ("ttfb", ttfb),
            ("server", server),
            ("layers", layered),
            ("other", server - layered),
            ("unaccounted", ttfb - server),
        ] {
            m.put(format!("acct.{name}.{part}_ms"), value, "ms", requests);
        }
        // Per-request shares, so that one slow fsync cannot move the check.
        let shares: Vec<f64> = split
            .iter()
            .filter(|(_, program)| *program > 0.0)
            .map(|(layers, program)| layers / program)
            .collect();
        let share = sample_median(&shares).unwrap_or(f64::NAN);
        if matches!(class, Class::Ingest | Class::Epoch) && !MIRROR_SHARE.contains(&share) {
            drift.push(format!(
                "the mirrored {name} layers take a median {share:.3} of the program's own time per request, outside {MIRROR_SHARE:?}: the mirror no longer makes the program's calls"
            ));
        }
    }
    (m, drift)
}
