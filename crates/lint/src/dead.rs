//! The dead-public-item pass.
//!
//! A `pub` item that nothing calls still costs its readers, its tests
//! and an `api.lock` entry, and it invites the next caller to build on
//! code no path runs. The pass flags every [`crate::api::surface`] item
//! whose name appears, as an identifier in code, nowhere but on its own
//! declaration line and in its own file's `#[cfg(test)]` code
//! ([`crate::rules::RULE_DEAD_PUB`]).
//!
//! The check is by name over the scrubbed text the scan already holds,
//! so comments and doc prose never count as uses, while every walked
//! file does: other crates' `tests/`, examples, benches and binaries,
//! test modules in other files, and the bodies of `macro_rules!`
//! definitions, whose tokens expand at their call sites. The sources
//! under `servebench/src`, a package outside the workspace, are read as
//! callers but never linted. Any identifier sharing the name counts as
//! a use, so the pass can miss a dead item but never flags one that
//! code names. Re-exports (`pub use`) name items declared elsewhere and
//! are skipped. An item that should stay takes
//! `// lint:allow(dead-pub): reason` on the line above its declaring
//! keyword.

use crate::api::SurfaceItem;
use crate::lexer::{idents, Scrubbed};
use crate::report::Finding;
use crate::rules::{emit_waivable, RULE_DEAD_PUB};
use crate::FileModel;
use std::collections::{BTreeMap, HashSet};

/// Flags the surface items nothing names, appending findings at their
/// declaration lines. `callers` are scrubbed sources that count as uses
/// but are not part of `models`.
pub fn run(
    models: &mut [FileModel],
    surface: &[SurfaceItem],
    callers: &[Scrubbed],
    findings: &mut Vec<Finding>,
) {
    let dead = dead_items(models, surface, callers);
    for (idx, item) in dead {
        let model = &mut models[idx];
        emit_waivable(
            &model.file,
            &mut model.waivers,
            findings,
            RULE_DEAD_PUB,
            item.line,
            format!(
                "public item `{}` is named by no code outside its declaration and \
                 its own file's tests — delete it, move it under #[cfg(test)], or \
                 waive it with `lint:allow({RULE_DEAD_PUB}): reason`",
                item.entry
            ),
        );
    }
}

/// The dead surface items, each with the index of its declaring model.
fn dead_items<'s>(
    models: &[FileModel],
    surface: &'s [SurfaceItem],
    callers: &[Scrubbed],
) -> Vec<(usize, &'s SurfaceItem)> {
    // A hash set: nearly every token of the tree is looked up here.
    let names: HashSet<&str> = surface.iter().filter_map(|s| item_name(&s.entry)).collect();
    // Occurrences of each surface name in all code, and per model in its
    // own test code.
    let mut code: BTreeMap<&str, usize> = BTreeMap::new();
    let mut own_tests: BTreeMap<(usize, &str), usize> = BTreeMap::new();
    let files = models.iter().map(|m| &m.scrubbed).chain(callers);
    for (idx, scrubbed) in files.enumerate() {
        for (line, &masked) in scrubbed.lines.iter().zip(&scrubbed.test_mask) {
            for tok in idents(line) {
                if let Some(&name) = names.get(tok) {
                    *code.entry(name).or_insert(0) += 1;
                    if masked {
                        *own_tests.entry((idx, name)).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let mut dead = Vec::new();
    for (idx, model) in models.iter().enumerate() {
        for item in surface.iter().filter(|s| s.file == model.file.rel) {
            let Some(name) = item_name(&item.entry) else {
                continue;
            };
            let on_decl = model.scrubbed.lines.get(item.line - 1).map_or(0, |line| {
                idents(line).iter().filter(|t| **t == name).count()
            });
            let own = on_decl + own_tests.get(&(idx, name)).copied().unwrap_or(0);
            if code.get(name).copied().unwrap_or(0) <= own {
                dead.push((idx, item));
            }
        }
    }
    dead
}

/// The declared name of a lock entry (`fn S::make` → `make`), or `None`
/// for a re-export.
fn item_name(entry: &str) -> Option<&str> {
    let (kind, path) = entry.split_once(' ')?;
    (kind != "use").then(|| path.rsplit("::").next().unwrap_or(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{FileClass, SourceFile};
    use std::path::PathBuf;

    fn model(rel: &str, class: FileClass, text: &str) -> FileModel {
        let scrubbed = Scrubbed::new(text);
        let file = SourceFile {
            path: PathBuf::from(rel),
            rel: rel.to_string(),
            crate_name: format!("rrs-{}", rel.split('/').nth(1).unwrap_or("demo")),
            class,
        };
        let (waivers, _) = crate::rules::parse_waivers(&file, &scrubbed);
        let items = crate::items::parse(&scrubbed);
        FileModel {
            file,
            scrubbed,
            items,
            waivers,
        }
    }

    /// Runs the pass over `crates/demo/src/lib.rs` holding `lib`, plus
    /// `others` and `callers`; returns the dead entries and the models.
    fn dead(
        lib: &str,
        others: &[(&str, FileClass, &str)],
        callers: &[&str],
    ) -> (Vec<String>, Vec<FileModel>) {
        let mut models = vec![model("crates/demo/src/lib.rs", FileClass::Lib, lib)];
        models.extend(
            others
                .iter()
                .map(|&(rel, class, text)| model(rel, class, text)),
        );
        let surface = crate::api::surface(&models);
        let callers: Vec<Scrubbed> = callers.iter().map(|t| Scrubbed::new(t)).collect();
        let mut findings = Vec::new();
        run(&mut models, &surface, &callers, &mut findings);
        let entries = findings
            .iter()
            .map(|f| {
                assert_eq!(f.rule, RULE_DEAD_PUB);
                f.message.split('`').nth(1).unwrap_or_default().to_string()
            })
            .collect();
        (entries, models)
    }

    #[test]
    fn names_only_in_docs_strings_or_own_tests_are_dead() {
        let lib = "\
/// `lonely` is named in this doc comment and in a string below.
pub fn lonely() -> &'static str { \"lonely\" }
pub fn used() {}
fn private_caller() { used() }
pub use std::cmp::Ordering;
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::lonely(); }
}
";
        let (dead, _) = dead(lib, &[], &[]);
        assert_eq!(dead, vec!["fn lonely"]);
    }

    #[test]
    fn other_targets_macro_bodies_and_servebench_are_callers() {
        let lib = "\
pub fn from_tests() {}
pub fn from_macro() {}
pub fn from_bench() {}
pub fn nobody() {}
#[macro_export]
macro_rules! wrap { () => { $crate::from_macro() }; }
";
        let other_crate_tests = (
            "crates/other/tests/it.rs",
            FileClass::Test,
            "#[test]\nfn t() { demo::from_tests(); demo::wrap!(); }\n",
        );
        let servebench = "fn main() { demo::from_bench(); }\n";
        let (dead, _) = dead(lib, &[other_crate_tests], &[servebench]);
        assert_eq!(dead, vec!["fn nobody"]);
    }

    #[test]
    fn waivers_silence_dead_items_and_stay_unused_on_live_ones() {
        let lib = "\
// lint:allow(dead-pub): kept on purpose
pub fn kept() {}
// lint:allow(dead-pub): but this one has a caller
pub fn called() {}
fn private_caller() { called() }
";
        let (dead, models) = dead(lib, &[], &[]);
        assert!(dead.is_empty(), "{dead:?}");
        // The scan's unused-allow sweep reports the second, unused
        // waiver as stale (see the `dead_pub` fixture).
        let used: Vec<bool> = models[0].waivers.iter().map(|w| w.used).collect();
        assert_eq!(used, vec![true, false]);
    }
}
