//! The determinism sanitizer: workspace-level shared-state hygiene.
//!
//! The repo's core guarantee is bit-identical output at any thread
//! count. Three hazards slip past the per-line rules:
//!
//! * **Shared mutable state** (`Mutex`, `RwLock`, `Atomic*`,
//!   `static mut`, `thread_local!`) anywhere outside the sanctioned
//!   concurrency sites — the `rrs-obs` sinks and the `rrs_core::par`
//!   pool — reintroduces scheduling-order dependence
//!   ([`crate::rules::RULE_SYNC`]).
//! * **Relaxed atomic loads** feeding result-producing crates: a
//!   `Ordering::Relaxed` read is allowed to return stale values, so a
//!   result that consumes one can differ between runs
//!   ([`crate::rules::RULE_RELAXED`]).
//! * **Iteration over default-hasher collections**: the hasher rule
//!   bans `HashMap`/`HashSet` *types* in result crates, but a map that
//!   is merely iterated leaks its randomized order into whatever
//!   consumes the loop ([`crate::rules::RULE_HASH_ITER`]). This check
//!   runs in every crate — observability output must be deterministic
//!   too, or the CI byte-diffs flake.
//!
//! All three honor `lint:allow` waivers, like every line rule.

use crate::lexer::{idents, is_ident_char};
use crate::report::Finding;
use crate::rules::{emit_waivable, squeeze, Config, RULE_HASH_ITER, RULE_RELAXED, RULE_SYNC};
use crate::walk::FileClass;
use crate::FileModel;
use std::collections::BTreeSet;

/// Runs the sanitizer over every non-test file, appending findings.
pub fn run(config: &Config, models: &mut [FileModel], findings: &mut Vec<Finding>) {
    for model in models {
        if model.file.class == FileClass::Test {
            continue;
        }
        sync_primitives(config, model, findings);
        relaxed_ordering(config, model, findings);
        hash_iteration(model, findings);
    }
}

/// The identifier ending exactly at the end of `s` (the receiver of a
/// method call whose `.` follows), or `""`.
fn trailing_ident(s: &str) -> &str {
    let s = s.trim_end();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map_or(s.len(), |(i, _)| i);
    &s[start..]
}

/// Flags shared-mutable-state primitives outside the sanction tables.
fn sync_primitives(config: &Config, model: &mut FileModel, findings: &mut Vec<Finding>) {
    if config.sync_allowed_crates.contains(&model.file.crate_name)
        || config.sync_allowed_files.contains(&model.file.rel)
    {
        return;
    }
    for (idx, line) in model.scrubbed.lines.iter().enumerate() {
        if model.scrubbed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let toks = idents(line);
        let mut hit: Option<String> = None;
        for (k, tok) in toks.iter().enumerate() {
            if matches!(*tok, "Mutex" | "RwLock" | "Condvar" | "thread_local")
                || tok.starts_with("Atomic")
            {
                hit = Some((*tok).to_string());
                break;
            }
            if *tok == "static" && toks.get(k + 1) == Some(&"mut") {
                hit = Some("static mut".to_string());
                break;
            }
        }
        if let Some(tok) = hit {
            emit_waivable(
                &model.file,
                &mut model.waivers,
                findings,
                RULE_SYNC,
                idx + 1,
                format!(
                    "`{tok}` is shared mutable state outside the sanctioned \
                     concurrency sites ({}; {}) — results must not depend on \
                     scheduling order; route the parallelism through \
                     `rrs_core::par` or extend the sanction table in review",
                    join_or_none(&config.sync_allowed_crates),
                    join_or_none(&config.sync_allowed_files),
                ),
            );
        }
    }
}

/// Flags `Ordering::Relaxed` in result-producing crates.
fn relaxed_ordering(config: &Config, model: &mut FileModel, findings: &mut Vec<Finding>) {
    let denied = config.hashed_denied_crates.iter().any(|c| c == "*")
        || config.hashed_denied_crates.contains(&model.file.crate_name);
    if !denied || config.sync_allowed_files.contains(&model.file.rel) {
        return;
    }
    for (idx, line) in model.scrubbed.lines.iter().enumerate() {
        if model.scrubbed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        if squeeze(line).contains("Ordering::Relaxed") {
            emit_waivable(
                &model.file,
                &mut model.waivers,
                findings,
                RULE_RELAXED,
                idx + 1,
                "`Ordering::Relaxed` read in a result-producing crate — a relaxed \
                 load may observe stale values, so anything downstream of it can \
                 differ between runs; use the `rrs_core::par` substrate, or a \
                 stronger ordering inside a sanctioned file"
                    .to_string(),
            );
        }
    }
}

/// The iteration entry points whose order is hasher-randomized.
const ITER_CALLS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Two-phase per-file check: collect identifiers bound or typed as
/// `HashMap`/`HashSet`, then flag any iteration over them.
fn hash_iteration(model: &mut FileModel, findings: &mut Vec<Finding>) {
    let names = hash_bound_names(model);
    if names.is_empty() {
        return;
    }
    for idx in 0..model.scrubbed.lines.len() {
        if model.scrubbed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line = model.scrubbed.lines[idx].clone();
        let mut hit: Option<String> = None;
        for call in ITER_CALLS {
            for (pos, _) in line.match_indices(call) {
                let receiver = trailing_ident(&line[..pos]);
                if names.contains(receiver) {
                    hit = Some(receiver.to_string());
                }
            }
        }
        if hit.is_none() {
            hit = for_loop_over(&line, &names);
        }
        if let Some(name) = hit {
            emit_waivable(
                &model.file,
                &mut model.waivers,
                findings,
                RULE_HASH_ITER,
                idx + 1,
                format!(
                    "iterating `{name}`, a default-hasher collection, yields a \
                     randomized order that leaks into everything downstream — \
                     use `BTreeMap`/`BTreeSet`, or collect and sort before \
                     iterating"
                ),
            );
        }
    }
}

/// Collects identifiers this file binds or types as `HashMap`/`HashSet`
/// on non-test lines (`let m: HashMap<…>`, `m = HashSet::new()`, struct
/// fields, fn parameters).
fn hash_bound_names(model: &FileModel) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (idx, line) in model.scrubbed.lines.iter().enumerate() {
        if model.scrubbed.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            for (pos, _) in line.match_indices(tok) {
                // Token boundaries: reject `MyHashMap` and `HashMapExt`.
                if pos > 0 && line[..pos].chars().next_back().is_some_and(is_ident_char) {
                    continue;
                }
                if line[pos + tok.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
                {
                    continue;
                }
                let mut before = line[..pos].trim_end();
                // `name: &HashMap<…>` and `name: &mut HashMap<…>`.
                before = before.strip_suffix("mut").unwrap_or(before).trim_end();
                before = before.strip_suffix('&').unwrap_or(before).trim_end();
                let binder = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix('='))
                    .map(trailing_ident)
                    .unwrap_or("");
                if !binder.is_empty() && binder != "mut" {
                    names.insert(binder.to_string());
                }
            }
        }
    }
    names
}

/// Detects `for … in [&[mut ]]name` where `name` is a tracked
/// collection, returning the name.
fn for_loop_over(line: &str, names: &BTreeSet<String>) -> Option<String> {
    let toks = idents(line);
    if !toks.contains(&"for") {
        return None;
    }
    // Find the ` in ` keyword as a real token, then read the iterated
    // expression's leading identifier.
    let mut search = 0;
    while let Some(pos) = line[search..].find("in") {
        let at = search + pos;
        search = at + 2;
        let before_ok = at == 0 || !line[..at].chars().next_back().is_some_and(is_ident_char);
        let after = &line[at + 2..];
        if !before_ok || after.chars().next().is_some_and(is_ident_char) {
            continue;
        }
        let mut rest = after.trim_start();
        rest = rest.strip_prefix('&').unwrap_or(rest);
        rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let lead: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if names.contains(&lead) {
            return Some(lead);
        }
    }
    None
}

/// Renders a sanction list for messages.
fn join_or_none(items: &[String]) -> String {
    if items.is_empty() {
        "none sanctioned".to_string()
    } else {
        items.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Scrubbed;
    use crate::walk::SourceFile;
    use std::path::PathBuf;

    fn model(text: &str) -> FileModel {
        let scrubbed = Scrubbed::new(text);
        let items = crate::items::parse(&scrubbed);
        FileModel {
            file: SourceFile {
                path: PathBuf::from("x.rs"),
                rel: "x.rs".into(),
                crate_name: "fixture".into(),
                class: FileClass::Lib,
            },
            scrubbed,
            items,
            waivers: Vec::new(),
        }
    }

    fn run_on(text: &str) -> Vec<(&'static str, usize)> {
        let config = Config::bare(PathBuf::from("."));
        let mut models = vec![model(text)];
        let mut findings = Vec::new();
        run(&config, &mut models, &mut findings);
        findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn flags_every_sync_primitive_kind() {
        let got = run_on(
            "use std::sync::Mutex;\n\
             use std::sync::RwLock;\n\
             use std::sync::atomic::AtomicU64;\n\
             static mut RAW: u32 = 0;\n\
             thread_local! { static TL: u32 = 0; }",
        );
        assert_eq!(
            got,
            vec![
                (RULE_SYNC, 1),
                (RULE_SYNC, 2),
                (RULE_SYNC, 3),
                (RULE_SYNC, 4),
                (RULE_SYNC, 5),
            ]
        );
    }

    #[test]
    fn sanctioned_crates_and_files_are_exempt() {
        let config = Config::bare(PathBuf::from("."));
        let mut sanctioned_crate = Config::bare(PathBuf::from("."));
        sanctioned_crate.sync_allowed_crates.push("fixture".into());
        let mut sanctioned_file = Config::bare(PathBuf::from("."));
        sanctioned_file.sync_allowed_files.push("x.rs".into());

        let text = "use std::sync::Mutex;";
        for (cfg, expect_findings) in [
            (&config, true),
            (&sanctioned_crate, false),
            (&sanctioned_file, false),
        ] {
            let mut models = vec![model(text)];
            let mut findings = Vec::new();
            run(cfg, &mut models, &mut findings);
            assert_eq!(!findings.is_empty(), expect_findings);
        }
    }

    #[test]
    fn sync_tokens_in_tests_strings_and_comments_are_ignored() {
        let got = run_on(
            "// Mutex in a comment\n\
             let s = \"RwLock AtomicU64\";\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::sync::Mutex;\n\
             }",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn relaxed_ordering_is_flagged_in_denied_crates() {
        let got = run_on("let v = counter.load(Ordering::Relaxed);");
        assert_eq!(got, vec![(RULE_RELAXED, 1)]);
        // `std::cmp::Ordering` in sort code never matches.
        let got = run_on("let o = a.cmp(&b); matches!(o, Ordering::Less);");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn hash_iteration_is_flagged_per_binding() {
        let got = run_on(
            "use std::collections::HashMap;\n\
             pub fn leak(counts: &HashMap<u8, usize>) -> Vec<u8> {\n\
                 let mut out = Vec::new();\n\
                 for (k, _) in counts.iter() {\n\
                     out.push(*k);\n\
                 }\n\
                 out\n\
             }",
        );
        assert_eq!(got, vec![(RULE_HASH_ITER, 4)]);
    }

    #[test]
    fn for_loop_over_a_hash_set_is_flagged() {
        let got = run_on(
            "let seen: HashSet<u32> = HashSet::new();\n\
             for x in &seen {\n\
                 use_it(x);\n\
             }",
        );
        assert_eq!(got, vec![(RULE_HASH_ITER, 2)]);
    }

    #[test]
    fn iterating_non_hash_collections_is_fine() {
        let got = run_on(
            "let m: BTreeMap<u8, u8> = BTreeMap::new();\n\
             for (k, v) in m.iter() { f(k, v); }\n\
             let v: Vec<u8> = Vec::new();\n\
             for x in &v { g(x); }",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn keys_values_and_drain_count_as_iteration() {
        let src = "let mut m: HashMap<u8, u8> = HashMap::new();\n";
        for (call, should_flag) in [
            ("let ks: Vec<u8> = m.keys().copied().collect();", true),
            ("let vs: Vec<u8> = m.values().copied().collect();", true),
            ("for (k, v) in m.drain() { f(k, v); }", true),
            ("let one = m.get(&1);", false),
            ("m.insert(1, 2);", false),
        ] {
            let got = run_on(&format!("{src}{call}"));
            let flagged = got.iter().any(|&(r, _)| r == RULE_HASH_ITER);
            assert_eq!(flagged, should_flag, "{call}: {got:?}");
        }
    }

    #[test]
    fn waivers_shield_sanitizer_findings() {
        let text = "// lint:allow(sync-primitive): fixture exercises the waiver path\n\
                    use std::sync::Mutex;";
        let config = Config::bare(PathBuf::from("."));
        let scrubbed = Scrubbed::new(text);
        let mut m = model(text);
        // Waivers normally come from rules::scan_file; parse them here.
        let (waivers, _) = crate::rules::parse_waivers(&m.file, &scrubbed);
        m.waivers = waivers;
        let mut models = vec![m];
        let mut findings = Vec::new();
        run(&config, &mut models, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(models[0].waivers[0].used, "waiver consumed");
    }
}
