//! # rrs-lint — static enforcement of the workspace's invariants
//!
//! A zero-dependency static analysis pass that keeps the properties
//! the reproduction's verdicts depend on from rotting:
//!
//! * **Determinism** — no wall-clock reads ([`rules::RULE_WALLCLOCK`])
//!   or ambient entropy ([`rules::RULE_ENTROPY`]) outside their
//!   sanctioned homes, and no randomized-iteration-order collections
//!   in result-producing crates ([`rules::RULE_DEFAULT_HASHER`]). The
//!   golden trace tests and `EXPERIMENTS.md` verdicts compare exact
//!   numeric outcomes; a stray `HashMap` iteration breaks them
//!   silently.
//! * **Numeric safety** — exact float-literal comparisons
//!   ([`rules::RULE_FLOAT_EQ`]) and NaN-panicking
//!   `partial_cmp().unwrap()` chains ([`rules::RULE_PARTIAL_CMP`]),
//!   steering to `total_cmp`.
//! * **Robustness budgets** — per-crate `unwrap`/`expect`/`panic!`
//!   counts in non-test library code, ratcheted downward through the
//!   committed `lint.lock` ([`budget`]).
//! * **Output discipline** — all terminal output flows through the
//!   `rrs-obs` logger ([`rules::RULE_PRINT`]).
//! * **Hermeticity** — every manifest stays free of external
//!   dependencies ([`manifest`]), and every library root carries
//!   `#![forbid(unsafe_code)]` ([`rules::RULE_FORBID_UNSAFE`]).
//! * **Least code** — no public item outlives its last caller
//!   ([`dead`]).
//!
//! Run it as `cargo run -p rrs-lint` or `rrs lint`; findings are also
//! exportable as machine-readable JSONL. Individual sites are waived
//! in-source with `// lint:allow(rule): justification`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod budget;
pub mod dead;
pub mod determinism;
pub mod items;
pub mod layers;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod walk;

use budget::Budgets;
use report::{Finding, Report};
use rules::{Config, RULE_FORBID_UNSAFE};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// The lock file's name at the workspace root.
pub const LOCK_FILE: &str = "lint.lock";

/// One source file's full analysis state: the scrubbed text, the item
/// model parsed from it, and the waivers the per-line rules have not
/// yet consumed. The workspace passes ([`determinism`], [`layers`],
/// [`api`], [`dead`]) all read from this shared view so each file is
/// lexed and parsed exactly once.
#[derive(Debug)]
pub struct FileModel {
    /// The discovered source file.
    pub file: walk::SourceFile,
    /// The scrubbed (comment/literal-blanked) text.
    pub scrubbed: lexer::Scrubbed,
    /// Declarations parsed by the item model.
    pub items: Vec<items::Item>,
    /// `lint:allow` waivers with their consumption state.
    pub waivers: Vec<rules::Waiver>,
}

/// Scans the tree under `config.root` and returns the full report.
///
/// Budget findings are produced only when a `lint.lock` exists at the
/// root (always the case for the real workspace; fixture directories
/// opt in by shipping one).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn scan(config: &Config) -> io::Result<Report> {
    let ws = walk::discover(&config.root)?;
    let mut findings = Vec::new();
    let mut budgets = Budgets::new();
    let mut models: Vec<FileModel> = Vec::with_capacity(ws.sources.len());

    for file in &ws.sources {
        let text = fs::read_to_string(&file.path)?;
        let scanned = rules::scan_file(config, file, &text);
        findings.extend(scanned.findings);
        let entry = budgets.entry(file.crate_name.clone()).or_default();
        entry.unwrap += scanned.panic_sites.unwrap;
        entry.expect += scanned.panic_sites.expect;
        entry.panic += scanned.panic_sites.panic;
        if ws.lib_roots.contains(&file.rel) && !scanned.has_forbid_unsafe {
            findings.push(Finding {
                rule: RULE_FORBID_UNSAFE,
                file: file.rel.clone(),
                line: 0,
                crate_name: file.crate_name.clone(),
                message: "library root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
        let items = items::parse(&scanned.scrubbed);
        models.push(FileModel {
            file: file.clone(),
            scrubbed: scanned.scrubbed,
            items,
            waivers: scanned.waivers,
        });
    }

    let mut manifest_texts: Vec<(String, String)> = Vec::with_capacity(ws.manifests.len());
    for m in &ws.manifests {
        let text = fs::read_to_string(&m.path)?;
        findings.extend(manifest::audit(&m.rel, &text));
        manifest_texts.push((m.rel.clone(), text));
    }

    let lock_path = config.root.join(LOCK_FILE);
    if lock_path.is_file() {
        let text = fs::read_to_string(&lock_path)?;
        match budget::parse_lock(&text) {
            Ok(locked) => findings.extend(budget::check(LOCK_FILE, &locked, &budgets)),
            Err(e) => findings.push(Finding {
                rule: rules::RULE_BUDGET,
                file: LOCK_FILE.to_string(),
                line: 0,
                crate_name: String::new(),
                message: format!("malformed lock file: {e}"),
            }),
        }
    } else if ws.is_workspace {
        findings.push(Finding {
            rule: rules::RULE_BUDGET,
            file: LOCK_FILE.to_string(),
            line: 0,
            crate_name: String::new(),
            message: "missing lint.lock at the workspace root — generate it with --write-lock"
                .to_string(),
        });
    }

    // Workspace pass 1: the determinism sanitizer.
    determinism::run(config, &mut models, &mut findings);

    // Workspace pass 2: the layering DAG against layers.lock.
    let actual_layers = layers::actual_graph(&manifest_texts, &models);
    let layers_path = config.root.join(layers::LAYERS_FILE);
    if ws.is_workspace || layers_path.is_file() {
        if let Some(cycle) = layers::find_cycle(&actual_layers) {
            findings.push(Finding {
                rule: rules::RULE_LAYERING,
                file: layers::LAYERS_FILE.to_string(),
                line: 0,
                crate_name: cycle.first().cloned().unwrap_or_default(),
                message: format!("dependency cycle: {}", cycle.join(" → ")),
            });
        }
        if layers_path.is_file() {
            let manifest_of: BTreeMap<String, String> = manifest_texts
                .iter()
                .filter_map(|(rel, text)| {
                    layers::package_name(text).map(|name| (name, rel.clone()))
                })
                .collect();
            let text = fs::read_to_string(&layers_path)?;
            match layers::parse_lock(&text) {
                Ok(locked) => findings.extend(layers::check(
                    layers::LAYERS_FILE,
                    &locked,
                    &actual_layers,
                    &manifest_of,
                )),
                Err(e) => findings.push(Finding {
                    rule: rules::RULE_LAYERING,
                    file: layers::LAYERS_FILE.to_string(),
                    line: 0,
                    crate_name: String::new(),
                    message: format!("malformed lock file: {e}"),
                }),
            }
        } else {
            findings.push(Finding {
                rule: rules::RULE_LAYERING,
                file: layers::LAYERS_FILE.to_string(),
                line: 0,
                crate_name: String::new(),
                message: "missing layers.lock at the workspace root — generate it with \
                          --write-layers-lock"
                    .to_string(),
            });
        }
    }

    // Workspace pass 3: the public-API surface against api.lock.
    let surface = api::surface(&models);
    let api_path = config.root.join(api::API_FILE);
    if api_path.is_file() {
        let text = fs::read_to_string(&api_path)?;
        match api::parse_lock(&text) {
            Ok(locked) => findings.extend(api::check(api::API_FILE, &locked, &surface)),
            Err(e) => findings.push(Finding {
                rule: rules::RULE_API,
                file: api::API_FILE.to_string(),
                line: 0,
                crate_name: String::new(),
                message: format!("malformed lock file: {e}"),
            }),
        }
    } else if ws.is_workspace {
        findings.push(Finding {
            rule: rules::RULE_API,
            file: api::API_FILE.to_string(),
            line: 0,
            crate_name: String::new(),
            message: "missing api.lock at the workspace root — generate it with --write-api-lock"
                .to_string(),
        });
    }

    // Workspace pass 4: public items that nothing names.
    if ws.is_workspace {
        let mut callers = Vec::with_capacity(ws.callers.len());
        for path in &ws.callers {
            callers.push(lexer::Scrubbed::new(&fs::read_to_string(path)?));
        }
        dead::run(&mut models, &surface, &callers, &mut findings);
    }

    // Every waiver must shield something: a stale directive is noise
    // that silently re-arms the next real violation on its line.
    for model in &models {
        for w in &model.waivers {
            if !w.used {
                findings.push(Finding {
                    rule: rules::RULE_UNUSED_ALLOW,
                    file: model.file.rel.clone(),
                    line: w.directive_line,
                    crate_name: model.file.crate_name.clone(),
                    message: format!(
                        "lint:allow({}) waives nothing — the finding it shielded \
                         is gone; remove the stale directive",
                        w.rule
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
            .then(a.message.cmp(&b.message))
    });

    Ok(Report {
        findings,
        budgets,
        files_scanned: ws.sources.len(),
        manifests_audited: ws.manifests.len(),
        layers: actual_layers,
        api: api::to_map(&surface),
    })
}

/// Scans and then rewrites `lint.lock` with the current counts,
/// enforcing the downward ratchet.
///
/// Returns the scan report (whose budget findings reflect the state
/// *before* the rewrite).
///
/// # Errors
///
/// Returns an I/O error for unreadable trees, or an
/// [`io::ErrorKind::InvalidData`] error when a count would increase.
pub fn scan_and_write_lock(config: &Config) -> io::Result<Report> {
    let report = scan(config)?;
    let lock_path = config.root.join(LOCK_FILE);
    let previous = if lock_path.is_file() {
        let text = fs::read_to_string(&lock_path)?;
        Some(budget::parse_lock(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?)
    } else {
        None
    };
    let new_lock = budget::write_lock(previous.as_ref(), &report.budgets)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(&lock_path, new_lock)?;
    Ok(report)
}

/// Scans and rewrites `layers.lock` with the live dependency graph.
/// There is no ratchet direction here — both added and removed edges
/// are architecture changes that land as reviewed lock diffs — but a
/// dependency *cycle* still blocks: it survives as a finding in the
/// returned report no matter what the lock says.
///
/// # Errors
///
/// Propagates I/O errors from the scan or the lock write.
pub fn scan_and_write_layers_lock(config: &Config) -> io::Result<Report> {
    let report = scan(config)?;
    fs::write(
        config.root.join(layers::LAYERS_FILE),
        layers::render_lock(&report.layers),
    )?;
    Ok(report)
}

/// Scans and rewrites `api.lock` with the live public surface, making
/// the current API the committed one.
///
/// # Errors
///
/// Propagates I/O errors from the scan or the lock write.
pub fn scan_and_write_api_lock(config: &Config) -> io::Result<Report> {
    let report = scan(config)?;
    fs::write(
        config.root.join(api::API_FILE),
        api::render_lock(&report.api),
    )?;
    Ok(report)
}

/// Scans `root`, auto-selecting workspace or bare policy based on the
/// tree's layout (the `rrs lint` subcommand's entry point).
///
/// # Errors
///
/// Propagates I/O errors from the scan.
pub fn scan_root(root: &Path) -> io::Result<Report> {
    scan(&config_for(root))
}

/// Chooses the policy for `root`: the full workspace policy when the
/// tree looks like this repository, maximal strictness otherwise.
#[must_use]
pub fn config_for(root: &Path) -> Config {
    if root.join("Cargo.toml").is_file() && root.join("crates").is_dir() {
        Config::workspace(root.to_path_buf())
    } else {
        Config::bare(root.to_path_buf())
    }
}
