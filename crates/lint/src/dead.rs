//! The dead-public-item pass.
//!
//! A `pub` item that nothing calls still costs its readers, its tests
//! and often an `api.lock` entry, and it invites the next caller to
//! build on code no path runs. The pass flags every public item whose
//! name appears, as an identifier in code, nowhere but on its own
//! declaration line and in its own file's `#[cfg(test)]` code
//! ([`crate::rules::RULE_DEAD_PUB`]). Public items are the
//! [`crate::api::surface`] plus what api.lock cannot see: the `pub`
//! items of a private module that the crate re-exports, and the `pub`
//! associated items of the types it re-exports that way (the methods of
//! `rrs_core::RatingDataset`, declared in the private `dataset`
//! module). rustc's own dead-code lint covers the remaining `pub` items
//! of private modules.
//!
//! The check is by name over the scrubbed text the scan already holds,
//! so comments and doc prose never count as uses, while every walked
//! file does: other crates' `tests/`, examples, benches and binaries,
//! test modules in other files, and the bodies of `macro_rules!`
//! definitions, whose tokens expand at their call sites. The sources
//! under `servebench/src`, a package outside the workspace, are read as
//! callers but never linted. Any identifier sharing the name counts as
//! a use, so the pass can miss a dead item but never flags one that
//! code names — with one exception: a `pub use` re-exports names
//! rather than using them, so the names it imports do not count, while
//! the module segments of its path do (`pub use p_scheme::PScheme`
//! keeps `pub mod p_scheme` alive, not `PScheme`). Re-exports are not
//! candidates themselves. An item that should stay takes
//! `// lint:allow(dead-pub): reason` on the line above its declaring
//! keyword.

use crate::api::{entry_text, file_module, SurfaceItem};
use crate::items::{ItemKind, Vis};
use crate::lexer::{idents, is_ident_char, Scrubbed};
use crate::report::Finding;
use crate::rules::{emit_waivable, RULE_DEAD_PUB};
use crate::walk::FileClass;
use crate::FileModel;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Flags the public items nothing names (the `surface` plus the items
/// re-exported from private modules), appending findings at their
/// declaration lines. `callers` are scrubbed sources that count as uses
/// but are not part of `models`.
pub fn run(
    models: &mut [FileModel],
    surface: &[SurfaceItem],
    callers: &[Scrubbed],
    findings: &mut Vec<Finding>,
) {
    let mut candidates = surface.to_vec();
    candidates.extend(reexported_from_private_modules(models, surface));
    let dead = dead_items(models, &candidates, callers);
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

/// The dead candidates, each with the index of its declaring model.
fn dead_items<'s>(
    models: &[FileModel],
    candidates: &'s [SurfaceItem],
    callers: &[Scrubbed],
) -> Vec<(usize, &'s SurfaceItem)> {
    // A hash set: nearly every token of the tree is looked up here.
    let names: HashSet<&str> = candidates
        .iter()
        .filter_map(|s| item_name(&s.entry))
        .collect();
    // Occurrences of each candidate name in all code, and per model in its
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
    // Take back what the `pub use` lines counted for the names they
    // import: a re-export is not a use.
    let reexports = models
        .iter()
        .flat_map(|m| &m.items)
        .filter(|item| item.vis == Vis::Pub && !item.in_test);
    for item in reexports {
        if let ItemKind::Use { path } = &item.kind {
            for name in imported_names(path) {
                if let Some(count) = code.get_mut(name) {
                    *count = count.saturating_sub(1);
                }
            }
        }
    }
    let mut dead = Vec::new();
    for (idx, model) in models.iter().enumerate() {
        for item in candidates.iter().filter(|s| s.file == model.file.rel) {
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

/// The `pub` items of private file modules that the crate re-exports by
/// name, and the `pub` associated items of the types it re-exports that
/// way. These are public API that api.lock, which follows `pub mod`
/// chains only, cannot see.
fn reexported_from_private_modules(
    models: &[FileModel],
    surface: &[SurfaceItem],
) -> Vec<SurfaceItem> {
    let mut reexported: BTreeSet<(&str, &str)> = BTreeSet::new();
    for item in surface {
        if let Some(path) = item.entry.strip_prefix("use ") {
            for name in imported_names(path) {
                reexported.insert((&item.crate_name, name));
            }
        }
    }
    let on_surface: BTreeSet<(&str, usize)> =
        surface.iter().map(|s| (s.file.as_str(), s.line)).collect();
    let mut out = Vec::new();
    for model in models.iter().filter(|m| m.file.class == FileClass::Lib) {
        let crate_name = model.file.crate_name.as_str();
        let fm = file_module(&model.file.rel);
        for item in &model.items {
            let named = |name: &str| reexported.contains(&(crate_name, name));
            if !item.is_surface()
                || matches!(item.kind, ItemKind::Use { .. })
                || on_surface.contains(&(model.file.rel.as_str(), item.line))
                || !(named(&item.name) || item.owner.as_deref().is_some_and(named))
            {
                continue;
            }
            if let Some(entry) = entry_text(&fm, item) {
                out.push(SurfaceItem {
                    crate_name: crate_name.to_string(),
                    entry,
                    file: model.file.rel.clone(),
                    line: item.line,
                });
            }
        }
    }
    out
}

/// The names a squeezed `use` path imports: every identifier not
/// followed by `::` (`a::{b::C,D as E}` → `C`, `D`, `as`, `E`; the
/// keyword never matches an item name).
fn imported_names(path: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = path;
    while let Some(start) = rest.find(is_ident_char) {
        let tail = &rest[start..];
        let end = tail.find(|c| !is_ident_char(c)).unwrap_or(tail.len());
        let (name, after) = tail.split_at(end);
        if !after.starts_with("::") {
            out.push(name);
        }
        rest = after;
    }
    out
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
