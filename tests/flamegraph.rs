//! Golden integration test for the `rrs trace --flamegraph` export.
//!
//! Runs in its own process (the global trace switch and sinks are not
//! shared with other test binaries). Self-times are wall-clock and
//! change run to run, but the *structure* — which stacks exist, in
//! which order — is a pure function of the dataset and seed, so the
//! lines minus their trailing sample values are golden-testable.

use std::fs;

fn run_flamegraph(out: &std::path::Path, fg: &std::path::Path) -> String {
    let args: Vec<String> = [
        "downgrade-burst",
        "--out",
        out.to_str().unwrap(),
        "--flamegraph",
        fg.to_str().unwrap(),
        "--seed",
        "7",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    rrs_cli::commands::run("trace", &args).expect("trace command succeeds")
}

/// Strips the trailing self-time from each collapsed-stack line,
/// leaving only the `;`-joined span path.
fn stack_structure(body: &str) -> Vec<String> {
    body.lines()
        .map(|line| {
            let (stack, ns) = line.rsplit_once(' ').expect("line has a sample value");
            ns.parse::<u64>()
                .unwrap_or_else(|e| panic!("self-time of {line:?} is not a u64: {e}"));
            stack.to_string()
        })
        .collect()
}

#[test]
fn flamegraph_structure_is_deterministic_across_thread_counts() {
    let dir = std::env::temp_dir().join("rrs_flamegraph_test");
    fs::create_dir_all(&dir).unwrap();
    let trace_a = dir.join("a.jsonl");
    let trace_b = dir.join("b.jsonl");
    let fg_a = dir.join("a.folded");
    let fg_b = dir.join("b.folded");

    // One serial run, one run on a four-worker pool: which stacks appear
    // must not depend on the thread count. The width is explicit so a
    // runner with a single core still exercises the parallel path.
    let report = rrs_core::par::with_threads(1, || run_flamegraph(&trace_a, &fg_a));
    rrs_core::par::with_threads(4, || run_flamegraph(&trace_b, &fg_b));
    assert!(report.contains("flamegraph"), "report: {report}");

    let body_a = fs::read_to_string(&fg_a).unwrap();
    let body_b = fs::read_to_string(&fg_b).unwrap();
    let stacks_a = stack_structure(&body_a);
    let stacks_b = stack_structure(&body_b);
    assert!(!stacks_a.is_empty(), "flamegraph has at least one stack");
    assert_eq!(
        stacks_a, stacks_b,
        "stack structure must be identical at 1 and 4 threads"
    );

    // The collapsed-stack format is sorted and duplicate-free, so
    // renderers can diff it.
    let mut sorted = stacks_a.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(stacks_a, sorted, "stacks are emitted sorted and unique");

    // The span hierarchy the scheme promises: the epoch span is the
    // root, with detection and trust stages nested under it.
    assert!(
        stacks_a.iter().any(|s| s == "scheme.epoch"),
        "missing root stack scheme.epoch: {stacks_a:?}"
    );
    for nested in [
        "scheme.epoch;detect.integrate",
        "scheme.epoch;trust.update_epoch",
    ] {
        assert!(
            stacks_a.iter().any(|s| s.starts_with(nested)),
            "missing nested stack {nested}: {stacks_a:?}"
        );
    }
    // Span names are dotted stage.detail identifiers; paths join them
    // with `;` and never contain spaces.
    for stack in &stacks_a {
        assert!(
            stack
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == ';'),
            "malformed stack path {stack:?}"
        );
    }

    for f in [&trace_a, &trace_b, &fg_a, &fg_b] {
        fs::remove_file(f).ok();
    }
}
