//! The public-API surface lock.
//!
//! Every crate's `pub` items — functions, types, constants, re-exports,
//! exported macros — are snapshotted into a committed `api.lock`, so a
//! surface change is always a visible, reviewed diff instead of an
//! accident noticed three PRs later. The pass compares the item model's
//! view of the live tree against the lock in both directions: an
//! unlocked new item and a locked-but-vanished item are both findings
//! ([`crate::rules::RULE_API`]). Intentional changes regenerate the
//! lock with `--write-api-lock` and ship the diff in the PR.

use crate::items::{Item, ItemKind, Vis};
use crate::report::Finding;
use crate::rules::RULE_API;
use crate::walk::FileClass;
use crate::FileModel;
use std::collections::{BTreeMap, BTreeSet};

/// The lock file's name at the workspace root.
pub const API_FILE: &str = "api.lock";

/// Crate name → rendered surface entries.
pub type Surface = BTreeMap<String, BTreeSet<String>>;

/// One public item with the location that declares it.
#[derive(Debug, Clone)]
pub struct SurfaceItem {
    /// Owning crate.
    pub crate_name: String,
    /// Rendered lock entry, e.g. `fn par::par_map`.
    pub entry: String,
    /// Root-relative file of the declaration.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Computes the live public surface from the item models.
///
/// Only `Lib`-class files contribute (binaries and tests have no
/// library surface), and an item counts only when it is `pub` through
/// its whole module chain — inline modules are resolved by the item
/// model, file modules (`mod sketch;` in a `lib.rs`) are resolved here
/// across the crate's files. Duplicate entries (e.g. a re-export
/// shadowing pattern) keep their first location in file order.
#[must_use]
pub fn surface(models: &[FileModel]) -> Vec<SurfaceItem> {
    // Pass 1: module visibility across files. Key: (crate, full module
    // path); value: whether the declaration itself is `pub` and not
    // test-gated.
    let mut mod_pub: BTreeMap<(String, Vec<String>), bool> = BTreeMap::new();
    for model in lib_models(models) {
        let fm = file_module(&model.file.rel);
        for item in &model.items {
            if let ItemKind::Mod { .. } = item.kind {
                let mut path = fm.clone();
                path.extend(item.module.iter().cloned());
                path.push(item.name.clone());
                let ok = item.vis == Vis::Pub && item.reachable && !item.in_test;
                let key = (model.file.crate_name.clone(), path);
                // `mod m;` and an inline redeclaration never coexist in
                // valid Rust; keep the most permissive verdict anyway.
                let slot = mod_pub.entry(key).or_insert(ok);
                *slot = *slot || ok;
            }
        }
    }
    let reach = |crate_name: &str, chain: &[String]| -> bool {
        (1..=chain.len()).all(|n| {
            mod_pub
                .get(&(crate_name.to_string(), chain[..n].to_vec()))
                .copied()
                .unwrap_or(false)
        })
    };

    // Pass 2: surface items whose file-module chain is pub all the way
    // down from the crate root.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut out = Vec::new();
    for model in lib_models(models) {
        let fm = file_module(&model.file.rel);
        for item in &model.items {
            if !item.is_surface() || !reach(&model.file.crate_name, &fm) {
                continue;
            }
            let Some(entry) = entry_text(&fm, item) else {
                continue;
            };
            if seen.insert((model.file.crate_name.clone(), entry.clone())) {
                out.push(SurfaceItem {
                    crate_name: model.file.crate_name.clone(),
                    entry,
                    file: model.file.rel.clone(),
                    line: item.line,
                });
            }
        }
    }
    out
}

fn lib_models(models: &[FileModel]) -> impl Iterator<Item = &FileModel> {
    models.iter().filter(|m| m.file.class == FileClass::Lib)
}

/// The module chain a file's items live under, derived from its path:
/// `crates/obs/src/lib.rs` → `[]`, `crates/core/src/par.rs` → `[par]`,
/// `src/a/mod.rs` → `[a]`, `src/a/b.rs` → `[a, b]`. Bare-mode files
/// (no `src/` segment) sit at the crate root.
#[must_use]
pub fn file_module(rel: &str) -> Vec<String> {
    let inner = rel
        .find("src/")
        .map(|p| &rel[p + "src/".len()..])
        .unwrap_or(rel);
    let inner = inner.strip_suffix(".rs").unwrap_or(inner);
    let mut parts: Vec<String> = inner.split('/').map(str::to_string).collect();
    if parts.last().is_some_and(|l| l == "mod") {
        parts.pop();
    }
    if parts.len() == 1 && (parts[0] == "lib" || parts[0] == "main") {
        parts.pop();
    }
    parts
}

/// Renders one item as its lock entry, or `None` for kinds that are
/// not surface units themselves (`impl` blocks, `extern crate`).
pub(crate) fn entry_text(fm: &[String], item: &Item) -> Option<String> {
    let kind = match item.kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::TypeAlias => "type",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::Mod { .. } => "mod",
        // Exported macros always land at the crate root.
        ItemKind::MacroRules => return Some(format!("macro {}", item.name)),
        ItemKind::Use { ref path } => {
            let mut chain: Vec<&str> = fm.iter().map(String::as_str).collect();
            chain.extend(item.module.iter().map(String::as_str));
            let prefix = if chain.is_empty() {
                String::new()
            } else {
                format!("{}::", chain.join("::"))
            };
            return Some(format!("use {prefix}{path}"));
        }
        ItemKind::Impl { .. } | ItemKind::ExternCrate => return None,
    };
    let mut chain: Vec<&str> = fm.iter().map(String::as_str).collect();
    chain.extend(item.module.iter().map(String::as_str));
    if let Some(owner) = &item.owner {
        chain.push(owner.as_str());
    }
    chain.push(&item.name);
    Some(format!("{kind} {}", chain.join("::")))
}

/// Groups surface items into the lock's crate → entries map.
#[must_use]
pub fn to_map(items: &[SurfaceItem]) -> Surface {
    let mut map = Surface::new();
    for item in items {
        map.entry(item.crate_name.clone())
            .or_default()
            .insert(item.entry.clone());
    }
    map
}

/// The lock-file header comment.
const HEADER: &str = "\
# rrs-lint API-surface lock: every crate's `pub` items as seen by the
# item model, one `[crate]` section per crate. A surface change fails
# the lint until this file is regenerated with
# `cargo run -p rrs-lint -- --write-api-lock`
# so API drift is always a reviewed diff, never an accident.";

/// Renders the surface map in lock format.
#[must_use]
pub fn render_lock(surface: &Surface) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (crate_name, entries) in surface {
        if entries.is_empty() {
            continue;
        }
        out.push('\n');
        out.push('[');
        out.push_str(crate_name);
        out.push_str("]\n");
        for entry in entries {
            out.push_str(entry);
            out.push('\n');
        }
    }
    out
}

/// Parses a lock file.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_lock(text: &str) -> Result<Surface, String> {
    let mut out = Surface::new();
    let mut current: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if name.is_empty() {
                return Err(format!("line {}: empty crate section", idx + 1));
            }
            out.entry(name.to_string()).or_default();
            current = Some(name.to_string());
            continue;
        }
        match current.as_ref().and_then(|c| out.get_mut(c)) {
            Some(entries) => {
                entries.insert(line.to_string());
            }
            None => {
                return Err(format!(
                    "line {}: entry before any [crate] section",
                    idx + 1
                ));
            }
        }
    }
    Ok(out)
}

/// Compares the live surface against the lock: new public items are
/// findings at their declaration site, vanished locked items are
/// findings on the lock file.
#[must_use]
pub fn check(lock_rel: &str, locked: &Surface, actual: &[SurfaceItem]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let empty = BTreeSet::new();
    for item in actual {
        let entries = locked.get(&item.crate_name).unwrap_or(&empty);
        if !entries.contains(&item.entry) {
            findings.push(Finding {
                rule: RULE_API,
                file: item.file.clone(),
                line: item.line,
                crate_name: item.crate_name.clone(),
                message: format!(
                    "public item `{}` is not in {lock_rel} — if the surface \
                     change is intentional, regenerate with --write-api-lock \
                     and review the diff",
                    item.entry
                ),
            });
        }
    }
    let live = to_map(actual);
    for (crate_name, entries) in locked {
        let live_entries = live.get(crate_name).unwrap_or(&empty);
        for entry in entries.difference(live_entries) {
            findings.push(Finding {
                rule: RULE_API,
                file: lock_rel.to_string(),
                line: 0,
                crate_name: crate_name.clone(),
                message: format!(
                    "locked public item `{entry}` of {crate_name} no longer \
                     exists — regenerate {lock_rel} with --write-api-lock"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Scrubbed;
    use crate::walk::SourceFile;
    use std::path::PathBuf;

    fn model(rel: &str, text: &str) -> FileModel {
        let scrubbed = Scrubbed::new(text);
        let items = crate::items::parse(&scrubbed);
        FileModel {
            file: SourceFile {
                path: PathBuf::from("x.rs"),
                rel: rel.to_string(),
                crate_name: "rrs-demo".into(),
                class: FileClass::Lib,
            },
            scrubbed,
            items,
            waivers: Vec::new(),
        }
    }

    fn entries(models: &[FileModel]) -> Vec<String> {
        surface(models).into_iter().map(|s| s.entry).collect()
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module("crates/obs/src/lib.rs").is_empty());
        assert_eq!(file_module("crates/core/src/par.rs"), vec!["par"]);
        assert_eq!(file_module("src/a/mod.rs"), vec!["a"]);
        assert_eq!(file_module("src/a/b.rs"), vec!["a", "b"]);
        assert!(file_module("lib.rs").is_empty());
    }

    #[test]
    fn pub_items_form_the_surface() {
        let models = vec![model(
            "crates/demo/src/lib.rs",
            "pub fn go() {}\nfn helper() {}\npub struct S;\npub(crate) struct Hidden;\n\
             pub use std::cmp::Ordering;\npub const MAX: u32 = 9;\n",
        )];
        assert_eq!(
            entries(&models),
            vec!["fn go", "struct S", "use std::cmp::Ordering", "const MAX"]
        );
    }

    #[test]
    fn file_module_visibility_gates_the_surface() {
        let lib = model("crates/demo/src/lib.rs", "pub mod open;\nmod sealed;\n");
        let open = model("crates/demo/src/open.rs", "pub fn visible() {}\n");
        let sealed = model("crates/demo/src/sealed.rs", "pub fn hidden() {}\n");
        let got = entries(&[lib, open, sealed]);
        assert_eq!(got, vec!["mod open", "fn open::visible"]);
    }

    #[test]
    fn associated_items_carry_their_owner() {
        let models = vec![model(
            "crates/demo/src/lib.rs",
            "pub struct S;\nimpl S {\n    pub fn make() -> S { S }\n    fn private() {}\n}\n",
        )];
        assert_eq!(entries(&models), vec!["struct S", "fn S::make"]);
    }

    #[test]
    fn exported_macros_are_surface_without_pub() {
        let models = vec![model(
            "crates/demo/src/lib.rs",
            "#[macro_export]\nmacro_rules! loud { () => {}; }\nmacro_rules! quiet { () => {}; }\n",
        )];
        assert_eq!(entries(&models), vec!["macro loud"]);
    }

    #[test]
    fn test_and_bin_code_is_not_surface() {
        let mut bin = model("crates/demo/src/main.rs", "pub fn run() {}\n");
        bin.file.class = FileClass::Bin;
        let lib = model(
            "crates/demo/src/lib.rs",
            "#[cfg(test)]\npub fn oracle() {}\n",
        );
        assert!(entries(&[lib, bin]).is_empty());
    }

    #[test]
    fn lock_round_trips() {
        let models = vec![model(
            "crates/demo/src/lib.rs",
            "pub fn a() {}\npub mod m { pub fn b() {} }\n",
        )];
        let map = to_map(&surface(&models));
        let parsed = parse_lock(&render_lock(&map)).unwrap();
        assert_eq!(parsed, map);
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let models = vec![model(
            "crates/demo/src/lib.rs",
            "pub fn a() {}\npub fn b() {}\n",
        )];
        let live = surface(&models);
        let locked = parse_lock("[rrs-demo]\nfn a\nfn gone\n").unwrap();
        let f = check("api.lock", &locked, &live);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("`fn b`"), "{}", f[0].message);
        assert_eq!(f[0].file, "crates/demo/src/lib.rs");
        assert!(f[1].message.contains("`fn gone`"), "{}", f[1].message);
        assert_eq!(f[1].file, "api.lock");
    }

    #[test]
    fn malformed_locks_are_rejected() {
        assert!(parse_lock("fn orphan\n").is_err());
        assert!(parse_lock("[]\n").is_err());
    }
}
