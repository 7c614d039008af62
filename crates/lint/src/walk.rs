//! Workspace file discovery and classification.
//!
//! The walker understands exactly the layout this workspace uses: a
//! root facade package (`src/`, `tests/`, `examples/`) plus member
//! crates under `crates/<dir>/` with optional `tests/` and `benches/`
//! directories. For directories that are *not* a workspace (the lint
//! fixtures, ad-hoc scans), every `.rs` file is treated as library
//! code of a synthetic crate named `fixture`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a source file participates in the build, which decides the rule
/// scope applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: `src/**` minus binary roots. Budgeted.
    Lib,
    /// Binary roots (`src/main.rs`, `src/bin/**`). Linted, not budgeted.
    Bin,
    /// Tests, benches, and examples. Only a few rules apply.
    Test,
}

/// One discovered Rust source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute (or root-relative) path for reading.
    pub path: PathBuf,
    /// Root-relative path with `/` separators, for reports.
    pub rel: String,
    /// Package name owning the file (e.g. `rrs-core`).
    pub crate_name: String,
    /// Build role of the file.
    pub class: FileClass,
}

/// A discovered `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct ManifestFile {
    /// Path for reading.
    pub path: PathBuf,
    /// Root-relative path for reports.
    pub rel: String,
}

/// Everything the scanner needs to know about a tree.
#[derive(Debug)]
pub struct Workspace {
    /// All Rust sources, classified.
    pub sources: Vec<SourceFile>,
    /// All manifests to audit.
    pub manifests: Vec<ManifestFile>,
    /// `lib.rs` files that must carry `#![forbid(unsafe_code)]`,
    /// as root-relative paths.
    pub lib_roots: Vec<String>,
    /// Whether `root` looked like the real workspace (crates/ + Cargo.toml).
    pub is_workspace: bool,
    /// Sources under [`CALLER_DIR`]: read as callers by the dead-item
    /// pass, never linted.
    pub callers: Vec<PathBuf>,
}

/// The root-relative directory outside the workspace whose sources call
/// into it: servebench is its own package, so the walk does not lint
/// it, but what it calls is live.
const CALLER_DIR: &str = "servebench/src";

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", ".github"];

/// Walks `root` and classifies what it finds.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn discover(root: &Path) -> io::Result<Workspace> {
    let is_workspace = root.join("Cargo.toml").is_file() && root.join("crates").is_dir();
    if is_workspace {
        discover_workspace(root)
    } else {
        discover_bare(root)
    }
}

fn discover_workspace(root: &Path) -> io::Result<Workspace> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    let mut lib_roots = Vec::new();

    let mut add_package = |pkg_root: &Path, name: &str| -> io::Result<()> {
        for (dir, class) in [
            ("src", FileClass::Lib),
            ("tests", FileClass::Test),
            ("examples", FileClass::Test),
            ("benches", FileClass::Test),
        ] {
            let base = pkg_root.join(dir);
            if !base.is_dir() {
                continue;
            }
            for path in rust_files(&base)? {
                let rel = relative(root, &path);
                let class = if class == FileClass::Lib && is_binary_root(&rel) {
                    FileClass::Bin
                } else {
                    class
                };
                sources.push(SourceFile {
                    path,
                    rel,
                    crate_name: name.to_string(),
                    class,
                });
            }
        }
        let manifest = pkg_root.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(ManifestFile {
                rel: relative(root, &manifest),
                path: manifest,
            });
        }
        let lib = pkg_root.join("src/lib.rs");
        if lib.is_file() {
            lib_roots.push(relative(root, &lib));
        }
        Ok(())
    };

    add_package(
        root,
        &package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "rrs".into()),
    )?;
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        let name = package_name(&member.join("Cargo.toml"))
            .unwrap_or_else(|| relative(root, &member).replace('/', "-"));
        add_package(&member, &name)?;
    }
    let caller_dir = root.join(CALLER_DIR);
    let callers = if caller_dir.is_dir() {
        rust_files(&caller_dir)?
    } else {
        Vec::new()
    };
    Ok(Workspace {
        sources,
        manifests,
        lib_roots,
        is_workspace: true,
        callers,
    })
}

fn discover_bare(root: &Path) -> io::Result<Workspace> {
    let mut sources = Vec::new();
    for path in rust_files(root)? {
        let rel = relative(root, &path);
        sources.push(SourceFile {
            path,
            rel,
            crate_name: "fixture".to_string(),
            class: FileClass::Lib,
        });
    }
    let mut manifests = Vec::new();
    let manifest = root.join("Cargo.toml");
    if manifest.is_file() {
        manifests.push(ManifestFile {
            rel: relative(root, &manifest),
            path: manifest,
        });
    }
    Ok(Workspace {
        sources,
        manifests,
        lib_roots: Vec::new(),
        is_workspace: false,
        callers: Vec::new(),
    })
}

/// Recursively collects `.rs` files under `base`, skipping
/// [`SKIP_DIRS`], in sorted order for deterministic reports.
fn rust_files(base: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Is this `src/` file a binary root rather than library code?
fn is_binary_root(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") || rel == "src/main.rs"
}

/// Extracts `name = "..."` from the `[package]` section of a manifest.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Root-relative display path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn discovers_the_real_workspace() {
        let ws = discover(&repo_root()).unwrap();
        assert!(ws.is_workspace);
        assert!(ws.sources.len() > 50, "found {}", ws.sources.len());
        assert!(ws.manifests.len() >= 10);
        let names: Vec<&str> = ws.lib_roots.iter().map(String::as_str).collect();
        assert!(names.contains(&"src/lib.rs"));
        assert!(names.contains(&"crates/core/src/lib.rs"));
        // Fixture directories must never be scanned as workspace
        // sources (tests/fixtures.rs, the harness, is fine).
        assert!(ws.sources.iter().all(|s| !s.rel.contains("fixtures/")));
        // servebench is read as a caller, not walked as a source.
        assert!(ws
            .callers
            .iter()
            .any(|p| p.ends_with("servebench/src/main.rs")));
        assert!(ws.sources.iter().all(|s| !s.rel.starts_with("servebench/")));
    }

    #[test]
    fn classifies_bin_and_test_roles() {
        let ws = discover(&repo_root()).unwrap();
        let class_of = |rel: &str| {
            ws.sources
                .iter()
                .find(|s| s.rel == rel)
                .unwrap_or_else(|| panic!("missing {rel}"))
                .class
        };
        assert_eq!(class_of("crates/cli/src/main.rs"), FileClass::Bin);
        assert_eq!(
            class_of("crates/eval/src/bin/experiments.rs"),
            FileClass::Bin
        );
        assert_eq!(class_of("crates/core/src/rng.rs"), FileClass::Lib);
        assert_eq!(class_of("tests/hermetic.rs"), FileClass::Test);
        assert_eq!(class_of("examples/quickstart.rs"), FileClass::Test);
    }

    #[test]
    fn crate_names_come_from_manifests() {
        let ws = discover(&repo_root()).unwrap();
        let core = ws
            .sources
            .iter()
            .find(|s| s.rel == "crates/core/src/rng.rs")
            .unwrap();
        assert_eq!(core.crate_name, "rrs-core");
        let root = ws.sources.iter().find(|s| s.rel == "src/lib.rs").unwrap();
        assert_eq!(root.crate_name, "rrs");
    }

    #[test]
    fn bare_mode_treats_everything_as_fixture_lib_code() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        for entry in fs::read_dir(&fixtures).unwrap().filter_map(Result::ok) {
            if !entry.path().is_dir() {
                continue;
            }
            if entry.path().join("Cargo.toml").is_file() {
                // Workspace-shaped fixtures (layering, api_drift) opt
                // into the full workspace policy instead.
                continue;
            }
            let ws = discover(&entry.path()).unwrap();
            assert!(!ws.is_workspace);
            for s in &ws.sources {
                assert_eq!(s.crate_name, "fixture");
                assert_eq!(s.class, FileClass::Lib);
            }
        }
    }
}
