//! The metrics snapshot must be byte-identical at any thread count.
//!
//! Worker threads may only make commuting registry writes (counter
//! adds, integer-bucket sketch observations); gauges are written from
//! serial points of the epoch loop. This test drives the full
//! `rrs metrics` pipeline — scenario, P-scheme, renderer — at 1 thread
//! and at 8 and compares the rendered bytes.

fn run_command(command: &str, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    rrs_cli::commands::run(command, &args).expect("command succeeds")
}

fn run_metrics() -> String {
    run_command("metrics", &["downgrade-burst", "--seed", "7"])
}

#[test]
fn metrics_exposition_is_thread_count_invariant() {
    let serial = rrs_core::par::with_threads(1, run_metrics);
    let wide = rrs_core::par::with_threads(8, run_metrics);
    assert_eq!(
        serial, wide,
        "metrics snapshot differs between 1 and 8 threads"
    );

    // Detector-health wiring sanity: the scenario is a real attack, so
    // the per-detector fire counters and suspicion telemetry are live.
    for metric in [
        "detect_fired_mc",
        "detect_marked_per_product",
        "trust_mass_total",
        "scheme_suspicious_set_size",
    ] {
        assert!(serial.contains(metric), "missing {metric}:\n{serial}");
    }

    // Each product is detected once per epoch, so the marked-per-product
    // sketch holds one observation per decision record the same scenario
    // traces. A second detection pass over the same prefix would count
    // every product twice.
    let trace = std::env::temp_dir().join("rrs_metrics_determinism_trace.jsonl");
    run_command(
        "trace",
        &[
            "downgrade-burst",
            "--seed",
            "7",
            "--out",
            trace.to_str().expect("utf-8 temp path"),
        ],
    );
    let records = std::fs::read_to_string(&trace)
        .expect("trace written")
        .lines()
        .count();
    std::fs::remove_file(&trace).ok();
    assert!(records > 0, "the trace holds no decision records");
    let observed: usize = serial
        .lines()
        .find_map(|l| l.strip_prefix("detect_marked_per_product_count "))
        .expect("the sketch renders a count")
        .parse()
        .expect("the count is an integer");
    assert_eq!(
        observed, records,
        "detections counted {observed} times for {records} product-epochs"
    );
}
