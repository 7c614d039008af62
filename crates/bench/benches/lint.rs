//! Prices the static analyzer itself: a full workspace scan (walk +
//! lex + line rules + item model + determinism/layering/API/dead-item
//! passes)
//! and the item-model parse of the largest source file, so a pass that
//! goes accidentally quadratic shows up as a regression here.
//!
//! Emits `BENCH_lint.json`.

use rrs_bench::Harness;
use std::path::Path;

fn main() {
    let mut h = Harness::new("lint");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    h.bench("workspace_scan", || {
        let report = rrs_lint::scan_root(&root).expect("workspace scans");
        report.findings.len() + report.files_scanned
    });

    // The heaviest single-file path: lex + parse the analyzer's own
    // largest module into the item model.
    let biggest = std::fs::read_to_string(root.join("crates/detectors/src/online.rs"))
        .expect("online.rs is part of the tree");
    h.bench("item_model_parse", || {
        let scrubbed = rrs_lint::lexer::Scrubbed::new(&biggest);
        rrs_lint::items::parse(&scrubbed).len()
    });

    h.finish();
}
