//! Golden tests over the seeded violation fixtures in `fixtures/`.
//!
//! Each directory holds one class of violation; the scan must report
//! exactly the expected `(rule, line)` pairs — no more, no fewer. The
//! `clean` fixture is the negative control: a file full of lexer bait
//! (violations quoted in comments, strings, and `#[cfg(test)]` code)
//! that must produce zero findings.

use rrs_lint::rules;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Scans a fixture and returns its findings as `(rule, line)` pairs,
/// in the report's deterministic order.
fn findings(name: &str) -> Vec<(&'static str, usize)> {
    let report = rrs_lint::scan_root(&fixture(name)).expect("fixture directory scans");
    report.findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn wallclock_fixture() {
    assert_eq!(
        findings("wallclock"),
        vec![
            (rules::RULE_WALLCLOCK, 1),
            (rules::RULE_WALLCLOCK, 2),
            (rules::RULE_WALLCLOCK, 3),
        ]
    );
}

#[test]
fn hashed_fixture() {
    assert_eq!(
        findings("hashed"),
        vec![
            (rules::RULE_DEFAULT_HASHER, 1),
            (rules::RULE_DEFAULT_HASHER, 3),
            (rules::RULE_DEFAULT_HASHER, 4),
        ]
    );
}

#[test]
fn entropy_fixture() {
    assert_eq!(findings("entropy"), vec![(rules::RULE_ENTROPY, 2)]);
}

#[test]
fn float_eq_fixture() {
    assert_eq!(
        findings("float_eq"),
        vec![(rules::RULE_FLOAT_EQ, 2), (rules::RULE_FLOAT_EQ, 6)]
    );
}

#[test]
fn partial_cmp_fixture() {
    assert_eq!(
        findings("partial_cmp"),
        vec![(rules::RULE_PARTIAL_CMP, 2), (rules::RULE_PARTIAL_CMP, 9)]
    );
}

#[test]
fn output_fixture() {
    assert_eq!(
        findings("output"),
        vec![
            (rules::RULE_PRINT, 2),
            (rules::RULE_PRINT, 3),
            (rules::RULE_PRINT, 4),
        ]
    );
}

#[test]
fn budget_fixture_exceeds_its_lock() {
    let got = findings("budget");
    assert_eq!(got, vec![(rules::RULE_BUDGET, 0)]);
    let report = rrs_lint::scan_root(&fixture("budget")).unwrap();
    assert!(
        report.findings[0].message.contains("unwrap"),
        "budget finding names the counter: {}",
        report.findings[0].message
    );
}

#[test]
fn allow_fixture_flags_reasonless_directive() {
    // The malformed directive is itself a finding, and it does NOT
    // waive the violation on the next line.
    assert_eq!(
        findings("allow"),
        vec![(rules::RULE_BAD_ALLOW, 2), (rules::RULE_FLOAT_EQ, 3)]
    );
}

#[test]
fn metric_name_fixture() {
    assert_eq!(
        findings("metric_name"),
        vec![
            (rules::RULE_METRIC_NAME, 1),
            (rules::RULE_METRIC_NAME, 2),
            (rules::RULE_METRIC_NAME, 4),
            (rules::RULE_METRIC_NAME, 5),
        ]
    );
}

#[test]
fn clean_fixture_is_clean() {
    let report = rrs_lint::scan_root(&fixture("clean")).expect("clean fixture scans");
    assert!(
        report.is_clean(),
        "negative control tripped: {:?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 4);
}

#[test]
fn sync_fixture() {
    assert_eq!(
        findings("sync"),
        vec![
            (rules::RULE_SYNC, 1),
            (rules::RULE_SYNC, 2),
            (rules::RULE_SYNC, 3),
            (rules::RULE_SYNC, 4),
            (rules::RULE_SYNC, 5),
        ]
    );
}

#[test]
fn relaxed_fixture() {
    assert_eq!(findings("relaxed"), vec![(rules::RULE_RELAXED, 4)]);
}

#[test]
fn hash_iter_fixture() {
    assert_eq!(
        findings("hash_iter"),
        vec![(rules::RULE_DEFAULT_HASHER, 1), (rules::RULE_HASH_ITER, 3)]
    );
}

#[test]
fn stale_allow_fixture() {
    // The directive parses fine but shields nothing, so the unused
    // waiver is itself reported — at the directive's own line.
    assert_eq!(findings("stale_allow"), vec![(rules::RULE_UNUSED_ALLOW, 2)]);
}

#[test]
fn layering_fixture_reports_the_uncommitted_edge() {
    // The fixture workspace has upper depending on base, but its
    // layers.lock omits the edge; the pass pins the finding to the
    // offending crate's manifest.
    let report = rrs_lint::scan_root(&fixture("layering")).unwrap();
    let got: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, vec![(rules::RULE_LAYERING, 0)]);
    let f = &report.findings[0];
    assert!(
        f.file.ends_with("crates/upper/Cargo.toml"),
        "finding pinned to the dependent crate's manifest: {}",
        f.file
    );
    assert!(
        f.message.contains("upper") && f.message.contains("base"),
        "message names both endpoints: {}",
        f.message
    );
}

#[test]
fn api_drift_fixture_reports_both_directions() {
    // widget exports alpha + beta; the lock records alpha + gamma.
    // beta is new (pinned to its declaration), gamma has vanished
    // (pinned to the lock file).
    let report = rrs_lint::scan_root(&fixture("api_drift")).unwrap();
    let got: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, vec![(rules::RULE_API, 0), (rules::RULE_API, 7)]);
    assert!(report.findings[0].message.contains("gamma"));
    assert!(report.findings[1].message.contains("beta"));
}

#[test]
fn dead_pub_fixture_reports_the_uncalled_item_and_the_stale_waiver() {
    // widget's items are called from the crate's tests/, from a macro
    // body and from servebench/src, and one is waived. Dead are
    // `orphan`, named by its doc comment and its own test module;
    // `Gadget::spin`, a method of a type re-exported from the private
    // module `hidden`; and `only_reexported`, named only by the `pub use`
    // that re-exports it (whose `parts::` segment keeps `pub mod parts`
    // alive). The waiver above the called `from_tests` is stale.
    let report = rrs_lint::scan_root(&fixture("dead_pub")).unwrap();
    let got: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/widget/src/hidden.rs", rules::RULE_DEAD_PUB, 14),
            ("crates/widget/src/lib.rs", rules::RULE_DEAD_PUB, 4),
            ("crates/widget/src/lib.rs", rules::RULE_UNUSED_ALLOW, 8),
            ("crates/widget/src/parts.rs", rules::RULE_DEAD_PUB, 4),
        ]
    );
    assert!(report.findings[0]
        .message
        .contains("`fn hidden::Gadget::spin`"));
    assert!(report.findings[1].message.contains("`fn orphan`"));
    assert!(report.findings[3]
        .message
        .contains("`fn parts::only_reexported`"));
}

#[test]
fn fixtures_use_the_bare_policy() {
    // Fixture directories have no Cargo.toml, so the strict policy
    // (every crate denied everything) applies.
    let report = rrs_lint::scan_root(&fixture("wallclock")).unwrap();
    assert_eq!(report.manifests_audited, 0);
}
