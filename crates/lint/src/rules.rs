//! The rule catalog and per-line checks.
//!
//! Every rule works on *scrubbed* lines ([`crate::lexer`]), so tokens
//! inside comments or string literals never fire. Rules are scoped by
//! crate and [`FileClass`](crate::walk::FileClass), and individual
//! findings can be waived with an in-source directive carrying a
//! mandatory justification:
//!
//! ```text
//! // lint:allow(float-eq): comparing against an exact sentinel value
//! if std_dev == 0.0 {
//! ```
//!
//! A directive on its own comment line applies to the next source
//! line; a trailing directive applies to its own line.

use crate::lexer::{is_ident_char, Scrubbed};
use crate::report::Finding;
use crate::walk::{FileClass, SourceFile};
use std::path::PathBuf;

/// Determinism: wall-clock reads outside the observability/bench crates.
pub const RULE_WALLCLOCK: &str = "wallclock";
/// Determinism: iteration-order-unstable default-hasher collections.
pub const RULE_DEFAULT_HASHER: &str = "default-hasher";
/// Determinism: ambient entropy sources outside `rrs_core::rng`.
pub const RULE_ENTROPY: &str = "entropy";
/// Numeric safety: exact `==`/`!=` against floating-point literals.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// Numeric safety: NaN-panicking `partial_cmp().unwrap()` chains.
pub const RULE_PARTIAL_CMP: &str = "partial-cmp-unwrap";
/// Output discipline: raw stdout/stderr writes outside the logger.
pub const RULE_PRINT: &str = "print";
/// Determinism: raw thread spawns outside the `rrs_core::par` pool.
pub const RULE_THREAD: &str = "thread-spawn";
/// Robustness: missing `#![forbid(unsafe_code)]` on a library root.
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
/// Robustness: per-crate panic-site budgets (see `lint.lock`).
pub const RULE_BUDGET: &str = "budget";
/// Hermeticity: non-path dependencies in a manifest.
pub const RULE_MANIFEST: &str = "manifest";
/// Observability: metric names must be dotted snake_case constants.
pub const RULE_METRIC_NAME: &str = "metric-name";
/// A `lint:allow` directive without a justification.
pub const RULE_BAD_ALLOW: &str = "allow-missing-reason";
/// A `lint:allow` directive that shields no finding.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";
/// Determinism: shared-mutable-state primitives outside sanctioned
/// concurrency sites ([`crate::determinism`]).
pub const RULE_SYNC: &str = "sync-primitive";
/// Determinism: `Ordering::Relaxed` loads in result-producing crates.
pub const RULE_RELAXED: &str = "relaxed-ordering";
/// Determinism: iteration over default-hasher collections.
pub const RULE_HASH_ITER: &str = "hash-iteration";
/// Architecture: the crate-dependency DAG must match `layers.lock`
/// ([`crate::layers`]).
pub const RULE_LAYERING: &str = "layering";
/// API stability: public surfaces must match `api.lock`
/// ([`crate::api`]).
pub const RULE_API: &str = "api-surface";
/// Simplicity: a public item that no code outside its own declaration
/// and its own file's tests names ([`crate::dead`]).
pub const RULE_DEAD_PUB: &str = "dead-pub";

/// All waivable rule identifiers (`lint:allow(...)` targets).
pub const WAIVABLE: &[&str] = &[
    RULE_WALLCLOCK,
    RULE_DEFAULT_HASHER,
    RULE_ENTROPY,
    RULE_FLOAT_EQ,
    RULE_PARTIAL_CMP,
    RULE_PRINT,
    RULE_THREAD,
    RULE_METRIC_NAME,
    RULE_SYNC,
    RULE_RELAXED,
    RULE_HASH_ITER,
    RULE_DEAD_PUB,
];

/// Scanner configuration: the scoping tables for every rule.
#[derive(Debug, Clone)]
pub struct Config {
    /// Tree to scan.
    pub root: PathBuf,
    /// Crates allowed to read wall clocks (`Instant`/`SystemTime`).
    pub wallclock_allowed_crates: Vec<String>,
    /// Result-producing crates where default-hasher collections are
    /// banned. `*` means every crate.
    pub hashed_denied_crates: Vec<String>,
    /// Files (root-relative) allowed to print, with a justification
    /// that the report echoes.
    pub print_allowed_files: Vec<(String, String)>,
    /// Files allowed to define entropy primitives.
    pub entropy_allowed_files: Vec<String>,
    /// Files (root-relative) allowed to spawn threads directly.
    pub thread_allowed_files: Vec<String>,
    /// Crates allowed to hold shared mutable state (sync primitives).
    pub sync_allowed_crates: Vec<String>,
    /// Files (root-relative) allowed to hold shared mutable state.
    pub sync_allowed_files: Vec<String>,
}

impl Config {
    /// The scoping policy for this repository's workspace.
    #[must_use]
    pub fn workspace(root: PathBuf) -> Self {
        Config {
            root,
            // rrs-obs owns spans (timing is its purpose); rrs-bench
            // measures wall time by definition. Everything else must
            // be a pure function of its inputs and seeds.
            wallclock_allowed_crates: vec!["rrs-obs".into(), "rrs-bench".into()],
            hashed_denied_crates: vec![
                "rrs".into(),
                "rrs-core".into(),
                "rrs-signal".into(),
                "rrs-detectors".into(),
                "rrs-trust".into(),
                "rrs-aggregation".into(),
                "rrs-attack".into(),
                "rrs-challenge".into(),
                "rrs-eval".into(),
                "rrs-serve".into(),
            ],
            print_allowed_files: vec![(
                "crates/obs/src/log.rs".into(),
                "the logger's terminal sink — every other crate goes through it".into(),
            )],
            entropy_allowed_files: vec!["crates/core/src/rng.rs".into()],
            // The deterministic pool is the only place threads may be
            // born: RRS_THREADS=1 must recover the exact serial run.
            thread_allowed_files: vec!["crates/core/src/par.rs".into()],
            // Shared mutable state lives in exactly three places: the
            // observability sinks (rrs-obs), the thread pool, and the
            // deterministic-assertion counters in check.rs. Everything
            // else flows data through `par_map` return values.
            sync_allowed_crates: vec!["rrs-obs".into()],
            sync_allowed_files: vec![
                "crates/core/src/par.rs".into(),
                "crates/core/src/check.rs".into(),
            ],
        }
    }

    /// Maximal strictness for bare directories (lint fixtures): no
    /// crate or file is exempt from anything.
    #[must_use]
    pub fn bare(root: PathBuf) -> Self {
        Config {
            root,
            wallclock_allowed_crates: Vec::new(),
            hashed_denied_crates: vec!["*".into()],
            print_allowed_files: Vec::new(),
            entropy_allowed_files: Vec::new(),
            thread_allowed_files: Vec::new(),
            sync_allowed_crates: Vec::new(),
            sync_allowed_files: Vec::new(),
        }
    }
}

/// A parsed `lint:allow(rule): reason` directive, with the consumption
/// state the unused-waiver sweep inspects after every pass has run.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 0-based line the waiver applies to.
    pub target: usize,
    /// 1-based line of the directive itself, for unused-waiver reports.
    pub directive_line: usize,
    /// The rule identifier being waived.
    pub rule: String,
    /// Whether any finding has consumed this waiver.
    pub used: bool,
}

/// Extracts waivers (and malformed-directive findings) from the
/// non-doc comment text of each line. Directives live in comments;
/// string literals and doc prose that merely mention the syntax are
/// not directives.
pub(crate) fn parse_waivers(file: &SourceFile, scrubbed: &Scrubbed) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for (idx, comment) in scrubbed.comments.iter().enumerate() {
        let Some(pos) = comment.find("lint:allow(") else {
            continue;
        };
        let rest = &comment[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                RULE_BAD_ALLOW,
                file,
                idx + 1,
                "unterminated lint:allow directive".to_string(),
            ));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if !WAIVABLE.contains(&rule.as_str()) {
            findings.push(Finding::new(
                RULE_BAD_ALLOW,
                file,
                idx + 1,
                format!(
                    "lint:allow({rule}) names no waivable rule (one of: {})",
                    WAIVABLE.join(", ")
                ),
            ));
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding::new(
                RULE_BAD_ALLOW,
                file,
                idx + 1,
                format!("lint:allow({rule}) needs a justification: `lint:allow({rule}): why`"),
            ));
            continue;
        }
        // A directive-only comment line shields the next line;
        // a trailing directive shields its own line. The scrubbed
        // line holds only code text, so blank means comment-only.
        let code = scrubbed.lines.get(idx).map(String::as_str).unwrap_or("");
        let target = if code.trim().is_empty() { idx + 1 } else { idx };
        waivers.push(Waiver {
            target,
            directive_line: idx + 1,
            rule,
            used: false,
        });
    }
    (waivers, findings)
}

/// Counts of panic-capable call sites on one line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PanicSites {
    /// `.unwrap()` calls.
    pub unwrap: usize,
    /// `.expect(` calls.
    pub expect: usize,
    /// `panic!` invocations.
    pub panic: usize,
}

/// Everything found in one source file.
#[derive(Debug)]
pub struct FileScan {
    /// Rule findings (waived ones already removed).
    pub findings: Vec<Finding>,
    /// Panic-site totals over non-test library lines.
    pub panic_sites: PanicSites,
    /// Whether a scrubbed `#![forbid(unsafe_code)]` is present.
    pub has_forbid_unsafe: bool,
    /// The scrubbed view, handed on to the workspace passes.
    pub scrubbed: Scrubbed,
    /// Parsed waivers with their per-line consumption state; the
    /// workspace passes consume more of them, and whatever is left
    /// unused at the end becomes [`RULE_UNUSED_ALLOW`] findings.
    pub waivers: Vec<Waiver>,
}

/// Emits a finding for `rule` at 1-based `lineno`, unless an unused
/// waiver for that (line, rule) pair absorbs it. Shared by the line
/// rules and every workspace pass so waiver semantics stay identical.
pub(crate) fn emit_waivable(
    file: &SourceFile,
    waivers: &mut [Waiver],
    findings: &mut Vec<Finding>,
    rule: &'static str,
    lineno: usize,
    message: String,
) {
    if let Some(w) = waivers
        .iter_mut()
        .find(|w| w.target + 1 == lineno && w.rule == rule && !w.used)
    {
        w.used = true;
        return;
    }
    findings.push(Finding::new(rule, file, lineno, message));
}

/// Scans one file's text against every line rule.
#[must_use]
pub fn scan_file(config: &Config, file: &SourceFile, text: &str) -> FileScan {
    let scrubbed = Scrubbed::new(text);
    let (mut waivers, mut findings) = parse_waivers(file, &scrubbed);
    // The metric-name checks need the raw text: scrubbing blanks the
    // very literals they inspect, and positions line up because the
    // scrubber replaces characters one for one.
    let raw_lines: Vec<&str> = text.split('\n').collect();

    let wallclock_scoped = !config.wallclock_allowed_crates.contains(&file.crate_name)
        && file.class != FileClass::Test;
    let hasher_scoped = (config.hashed_denied_crates.iter().any(|c| c == "*")
        || config.hashed_denied_crates.contains(&file.crate_name))
        && file.class != FileClass::Test;
    let entropy_scoped = !config.entropy_allowed_files.contains(&file.rel);
    let thread_scoped = !config.thread_allowed_files.contains(&file.rel);
    let print_allowed = config
        .print_allowed_files
        .iter()
        .any(|(rel, _)| rel == &file.rel);
    let print_scoped = !print_allowed && file.class != FileClass::Test;
    let metric_scoped = file.class != FileClass::Test;

    let mut panic_sites = PanicSites::default();

    for (idx, line) in scrubbed.lines.iter().enumerate() {
        let in_test = scrubbed.test_mask.get(idx).copied().unwrap_or(false);
        let lineno = idx + 1;
        let mut emit = |rule: &'static str, message: String| {
            emit_waivable(file, &mut waivers, &mut findings, rule, lineno, message);
        };

        if !in_test {
            if wallclock_scoped {
                for tok in ["Instant", "SystemTime"] {
                    if has_token(line, tok) {
                        emit(
                            RULE_WALLCLOCK,
                            format!(
                                "`{tok}` read outside the observability/bench crates — \
                                 detection must be a pure function of the dataset and seed"
                            ),
                        );
                    }
                }
            }
            if hasher_scoped {
                for tok in ["HashMap", "HashSet"] {
                    if has_token(line, tok) {
                        emit(
                            RULE_DEFAULT_HASHER,
                            format!(
                                "`{tok}` iterates in randomized order in a result-producing \
                                 crate — use `BTreeMap`/`BTreeSet` (or an explicit \
                                 deterministic hasher)"
                            ),
                        );
                    }
                }
            }
            if entropy_scoped {
                for tok in [
                    "thread_rng",
                    "from_entropy",
                    "OsRng",
                    "getrandom",
                    "RandomState",
                    "DefaultHasher",
                ] {
                    if has_token(line, tok) {
                        emit(
                            RULE_ENTROPY,
                            format!(
                                "`{tok}` draws ambient entropy — all randomness flows from \
                                 seeded `rrs_core::rng` generators"
                            ),
                        );
                    }
                }
            }
            if thread_scoped && has_token(line, "spawn") {
                emit(
                    RULE_THREAD,
                    "raw thread spawn outside `rrs_core::par` — all parallelism \
                     goes through the deterministic pool so `RRS_THREADS=1` \
                     recovers the exact serial run"
                        .to_string(),
                );
            }
            if let Some(op) = float_literal_comparison(line) {
                emit(
                    RULE_FLOAT_EQ,
                    format!(
                        "exact `{op}` against a floating-point literal — use a tolerance, \
                         `total_cmp`, or waive with a justification if the value is an \
                         exact sentinel"
                    ),
                );
            }
            if line.contains("partial_cmp") {
                // Join up to two continuation lines: the idiom
                // `.partial_cmp(b)\n.unwrap()` spans lines after rustfmt.
                let joined: String =
                    scrubbed.lines[idx..(idx + 3).min(scrubbed.lines.len())].join(" ");
                if joined.contains(".unwrap()") || joined.contains(".expect(") {
                    emit(
                        RULE_PARTIAL_CMP,
                        "`partial_cmp(..).unwrap()` panics on NaN — use `total_cmp` \
                         for sorts and extrema over floats"
                            .to_string(),
                    );
                }
            }
            if print_scoped {
                for tok in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                    if has_token(line, tok) {
                        emit(
                            RULE_PRINT,
                            format!(
                                "raw `{tok}` bypasses the `rrs-obs` logger — use \
                                 `rrs_info!`/`rrs_error!` (or add this file to the print \
                                 allowlist with a justification)"
                            ),
                        );
                    }
                }
            }
            if metric_scoped {
                let raw = raw_lines.get(idx).copied().unwrap_or("");
                if let Some(tok) = inline_metric_call(line, raw) {
                    emit(
                        RULE_METRIC_NAME,
                        format!(
                            "metric name passed to `{tok}` as an inline string literal — \
                             declare it as a `METRIC_*` constant so names stay greppable \
                             and renameable in one place"
                        ),
                    );
                }
                if let Some(lit) = invalid_metric_const(line, raw) {
                    emit(
                        RULE_METRIC_NAME,
                        format!(
                            "metric-name constant holds {lit:?} — metric names are dotted \
                             snake_case (`stage.detail`, segments of `[a-z0-9_]`)"
                        ),
                    );
                }
            }
        }

        if file.class == FileClass::Lib && !in_test {
            panic_sites.unwrap += count_occurrences(line, ".unwrap()");
            panic_sites.expect += count_occurrences(line, ".expect(");
            panic_sites.panic += count_token(line, "panic!");
        }
    }

    let has_forbid_unsafe = scrubbed
        .lines
        .iter()
        .any(|l| squeeze(l).contains("#![forbid(unsafe_code)]"));

    FileScan {
        findings,
        panic_sites,
        has_forbid_unsafe,
        scrubbed,
        waivers,
    }
}

/// Does `tok` occur in `line` delimited by non-identifier characters?
fn has_token(line: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(tok) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        let after = line[at + tok.len()..].chars().next();
        // Macro tokens end in `!`, which is its own boundary.
        let after_ok = tok.ends_with('!') || !after.is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = at + tok.len();
    }
    false
}

/// Counts plain substring occurrences (used for method-call patterns
/// whose leading `.` is already a boundary).
fn count_occurrences(line: &str, pat: &str) -> usize {
    line.match_indices(pat).count()
}

/// Counts boundary-checked token occurrences.
fn count_token(line: &str, tok: &str) -> usize {
    let mut n = 0;
    let mut start = 0;
    while let Some(pos) = line[start..].find(tok) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap_or(' '));
        if before_ok {
            n += 1;
        }
        start = at + tok.len();
    }
    n
}

/// Detects `==`/`!=` where either operand is a floating-point literal
/// (`0.0`, `1e-9`, `2.5f64`, …). Returns the operator for the message.
fn float_literal_comparison(line: &str) -> Option<&'static str> {
    let b: Vec<char> = line.chars().collect();
    let n = b.len();
    let mut i = 0;
    while i < n {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // Skip digits that are the tail of an identifier (`x2`).
        if i > 0 && is_ident_char(b[i - 1]) {
            while i < n && is_ident_char(b[i]) {
                i += 1;
            }
            continue;
        }
        let start = i;
        let mut is_float = false;
        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
            i += 1;
        }
        // Fractional part: a `.` followed by a digit or a non-identifier
        // (so `1.max(2)` and tuple access `t.0` stay integers).
        if i < n
            && b[i] == '.'
            && !(i + 1 < n && is_ident_char(b[i + 1]) && !b[i + 1].is_ascii_digit())
        {
            is_float = true;
            i += 1;
            while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                i += 1;
            }
        }
        // Exponent: e/E with optional sign.
        if i < n && (b[i] == 'e' || b[i] == 'E') {
            let mut j = i + 1;
            if j < n && (b[j] == '+' || b[j] == '-') {
                j += 1;
            }
            if j < n && b[j].is_ascii_digit() {
                is_float = true;
                i = j;
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
            }
        }
        // Suffix: `1f64` is a float even without a dot.
        if b[i..].starts_with(&['f', '6', '4']) || b[i..].starts_with(&['f', '3', '2']) {
            is_float = true;
            i += 3;
        }
        if !is_float {
            continue;
        }
        if let Some(op) = eq_operator_beside(&b, start, i) {
            return Some(op);
        }
    }
    None
}

/// Is the literal spanning `[start, end)` an operand of `==`/`!=`?
fn eq_operator_beside(b: &[char], start: usize, end: usize) -> Option<&'static str> {
    // Left neighbor: optional sign, then the operator.
    let mut j = start;
    while j > 0 && b[j - 1].is_whitespace() {
        j -= 1;
    }
    if j > 0 && (b[j - 1] == '-' || b[j - 1] == '+') {
        j -= 1;
        while j > 0 && b[j - 1].is_whitespace() {
            j -= 1;
        }
    }
    if j >= 2 && b[j - 1] == '=' && (b[j - 2] == '=' || b[j - 2] == '!') {
        // Exclude `<=`, `>=`, `=>`-adjacent shapes: the char before the
        // pair must not extend the operator.
        let before = if j >= 3 { Some(b[j - 3]) } else { None };
        if !matches!(before, Some('<' | '>' | '=' | '!')) {
            return Some(if b[j - 2] == '=' { "==" } else { "!=" });
        }
    }
    // Right neighbor.
    let mut k = end;
    while k < b.len() && b[k].is_whitespace() {
        k += 1;
    }
    if k + 1 < b.len() && b[k + 1] == '=' && (b[k] == '=' || b[k] == '!') {
        let after = b.get(k + 2);
        if !matches!(after, Some('=')) {
            return Some(if b[k] == '=' { "==" } else { "!=" });
        }
    }
    None
}

/// The metric-registry entry points whose first argument is a name.
const REGISTRY_CALLS: &[&str] = &["counter_add", "gauge_set", "observe_quantile"];

/// Detects a metric-emitting call whose name argument is an inline
/// string literal (`counter_add("x.y", 1)`), returning the call token.
///
/// The scrubbed line proves the token is code and locates the opening
/// parenthesis; the raw line (scrubbing is position-preserving) reveals
/// whether a string literal follows it.
fn inline_metric_call(scrubbed: &str, raw: &str) -> Option<&'static str> {
    let s: Vec<char> = scrubbed.chars().collect();
    let r: Vec<char> = raw.chars().collect();
    for &tok in REGISTRY_CALLS {
        let tlen = tok.len();
        let mut i = 0;
        while i + tlen <= s.len() {
            let matches = s[i..i + tlen].iter().copied().eq(tok.chars())
                && (i == 0 || !is_ident_char(s[i - 1]))
                && !s.get(i + tlen).copied().is_some_and(is_ident_char);
            if matches {
                let mut j = i + tlen;
                while j < s.len() && s[j].is_whitespace() {
                    j += 1;
                }
                if s.get(j) == Some(&'(') {
                    let mut k = j + 1;
                    while k < r.len() && r[k].is_whitespace() {
                        k += 1;
                    }
                    if r.get(k) == Some(&'"') {
                        return Some(tok);
                    }
                }
            }
            i += 1;
        }
    }
    None
}

/// Validates a `const METRIC_*: &str = "...";` declaration, returning
/// the literal when it is not a dotted snake_case metric name. Only a
/// constant of type `&str` or `&'static str` names a metric; one of any
/// other type (a list of call names, say) is out of scope.
fn invalid_metric_const(scrubbed: &str, raw: &str) -> Option<String> {
    let after_const = scrubbed.find("const ").map(|p| &scrubbed[p + 6..])?;
    let (name, rest) = after_const.split_once(':')?;
    if !name.trim_start().starts_with("METRIC") {
        return None;
    }
    let ty = squeeze(rest.split_once('=')?.0);
    if ty != "&str" && ty != "&'staticstr" {
        return None;
    }
    let open = raw.find('"')?;
    let rest = &raw[open + 1..];
    let close = rest.find('"')?;
    let name = &rest[..close];
    if valid_metric_name(name) {
        None
    } else {
        Some(name.to_string())
    }
}

/// Is `name` a dotted snake_case metric name — two or more nonempty
/// `[a-z0-9_]` segments joined by `.`?
fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Removes all whitespace (attribute matching helper).
pub(crate) fn squeeze(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file() -> SourceFile {
        SourceFile {
            path: PathBuf::from("x.rs"),
            rel: "x.rs".into(),
            crate_name: "fixture".into(),
            class: FileClass::Lib,
        }
    }

    fn scan(text: &str) -> FileScan {
        scan_file(&Config::bare(PathBuf::from(".")), &lib_file(), text)
    }

    fn rules(scan: &FileScan) -> Vec<&str> {
        scan.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_wallclock_and_hashmap_and_entropy() {
        let s =
            scan("use std::time::Instant;\nlet m: HashMap<u8, u8> = f();\nlet r = thread_rng();");
        assert_eq!(
            rules(&s),
            vec![RULE_WALLCLOCK, RULE_DEFAULT_HASHER, RULE_ENTROPY]
        );
    }

    #[test]
    fn ignores_tokens_in_strings_and_comments() {
        let s = scan("let a = \"HashMap Instant println!\"; // SystemTime dbg!\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn ignores_prefixed_identifiers() {
        let s = scan("struct MyHashMap; let x = InstantReplay::new();");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn flags_float_literal_comparisons_but_not_integer_ones() {
        let s = scan("if x == 0.0 { }\nif n == 3 { }\nif y != 1e-9 { }");
        assert_eq!(rules(&s), vec![RULE_FLOAT_EQ, RULE_FLOAT_EQ]);
    }

    #[test]
    fn does_not_flag_le_ge_or_fat_arrow() {
        let s = scan("if x <= 0.5 { }\nif x >= 0.5 { }\nmatch x { _ => 0.5 };\nlet c = a <= b;");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn flags_partial_cmp_unwrap_even_across_lines() {
        let s = scan("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(rules(&s), vec![RULE_PARTIAL_CMP]);
        let s =
            scan("let m = xs.iter().max_by(|a, b| {\n    a.partial_cmp(b)\n        .unwrap()\n});");
        assert_eq!(rules(&s), vec![RULE_PARTIAL_CMP]);
    }

    #[test]
    fn partial_cmp_without_unwrap_is_fine() {
        let s = scan("impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { Some(self.cmp(o)) } }");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn flags_raw_thread_spawns() {
        let s = scan("let h = std::thread::spawn(|| work());");
        assert_eq!(rules(&s), vec![RULE_THREAD]);
        let s = scan("scope.spawn(|| work());");
        assert_eq!(rules(&s), vec![RULE_THREAD]);
        // Prefixed identifiers and comments/strings stay silent.
        let s = scan("fn respawn() {} // thread::spawn bait\nlet m = \"spawn\";");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn thread_spawn_allowed_in_listed_files() {
        let mut config = Config::bare(PathBuf::from("."));
        config.thread_allowed_files.push("x.rs".into());
        let s = scan_file(&config, &lib_file(), "scope.spawn(|| work());");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn flags_raw_prints() {
        let s = scan("println!(\"hello\");\ndbg!(x);");
        assert_eq!(rules(&s), vec![RULE_PRINT, RULE_PRINT]);
    }

    #[test]
    fn budget_counts_only_non_test_lib_code() {
        let s = scan(
            "fn f() { a.unwrap(); b.expect(\"m\"); panic!(\"x\"); }\n\
             #[cfg(test)]\nmod tests { fn t() { c.unwrap(); } }",
        );
        assert_eq!(s.panic_sites.unwrap, 1);
        assert_eq!(s.panic_sites.expect, 1);
        assert_eq!(s.panic_sites.panic, 1);
    }

    #[test]
    fn unwrap_inside_string_literal_does_not_count() {
        let s = scan("let msg = \"please call .unwrap() later\";");
        assert_eq!(s.panic_sites.unwrap, 0);
    }

    #[test]
    fn unwrap_or_variants_do_not_count() {
        let s = scan(
            "let x = o.unwrap_or(0); let y = o.unwrap_or_else(f); let z = o.unwrap_or_default();",
        );
        assert_eq!(s.panic_sites.unwrap, 0);
    }

    #[test]
    fn waiver_with_reason_suppresses_same_line() {
        let s =
            scan("if x == 0.0 { } // lint:allow(float-eq): exact sentinel from the constructor\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn waiver_on_own_line_suppresses_next_line() {
        let s =
            scan("// lint:allow(float-eq): exact sentinel from the constructor\nif x == 0.0 { }\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn waiver_without_reason_is_itself_a_finding() {
        let s = scan("if x == 0.0 { } // lint:allow(float-eq)\n");
        assert_eq!(rules(&s), vec![RULE_BAD_ALLOW, RULE_FLOAT_EQ]);
    }

    #[test]
    fn waiver_for_unknown_rule_is_a_finding() {
        let s = scan("// lint:allow(everything): because\nlet x = 1;\n");
        assert_eq!(rules(&s), vec![RULE_BAD_ALLOW]);
    }

    #[test]
    fn waiver_does_not_leak_to_other_lines_or_rules() {
        let s = scan("// lint:allow(float-eq): sentinel\nif x == 0.0 { }\nif y == 0.0 { }\n");
        assert_eq!(rules(&s), vec![RULE_FLOAT_EQ]);
        assert_eq!(s.findings[0].line, 3);
    }

    #[test]
    fn directives_in_strings_and_doc_comments_are_not_directives() {
        // A string literal mentioning the syntax parses as nothing.
        let s = scan("let msg = \"use lint:allow(bogus) here\";\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        // Doc prose mentioning the syntax parses as nothing either.
        let s = scan("/// Waive with `lint:allow(bogus): why`.\nfn f() {}\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        let s = scan("//! Waive with `lint:allow(bogus): why`.\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        // ...but a real comment directive with a bad rule still fires.
        let s = scan("// lint:allow(bogus): why\nlet x = 1;\n");
        assert_eq!(rules(&s), vec![RULE_BAD_ALLOW]);
    }

    #[test]
    fn block_comment_waiver_suppresses_same_line() {
        let s = scan("if x == 0.0 { } /* lint:allow(float-eq): exact sentinel */\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn forbid_unsafe_attribute_is_detected() {
        assert!(scan("#![forbid(unsafe_code)]\nfn f() {}").has_forbid_unsafe);
        assert!(scan("#![forbid( unsafe_code )]").has_forbid_unsafe);
        assert!(!scan("fn f() {}").has_forbid_unsafe);
        // In a comment it does not count.
        assert!(!scan("// #![forbid(unsafe_code)]").has_forbid_unsafe);
    }

    #[test]
    fn flags_inline_metric_name_literals() {
        let s = scan("rrs_obs::metrics::counter_add(\"detect.hits\", 1);");
        assert_eq!(rules(&s), vec![RULE_METRIC_NAME]);
        let s = scan("rrs_obs::metrics::observe_quantile(\"detect.sizes\", 2.0);");
        assert_eq!(rules(&s), vec![RULE_METRIC_NAME]);
        // A constant reference is the required form.
        let s = scan("rrs_obs::metrics::counter_add(METRIC_HITS, 1);");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        // A sketch's own `observe` is not a registry call.
        let s = scan("sketch.observe(1.5); t.observe(x, y);");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn validates_metric_constant_names() {
        let s = scan("const METRIC_OK: &str = \"stage.detail_2\";");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        for bad in ["Flat.Case", "flat", "a..b", "trust.Mass", "x.y z"] {
            let s = scan(&format!("const METRIC_BAD: &str = \"{bad}\";"));
            assert_eq!(rules(&s), vec![RULE_METRIC_NAME], "{bad} not flagged");
        }
        // Constants without the METRIC_ prefix are out of scope.
        let s = scan("const LABEL: &str = \"Whatever Goes\";");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        // So are METRIC_ constants that are not strings.
        let s = scan("const METRIC_CALLS: &[&str] = &[\"counter_add\", \"gauge_set\"];");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        let s = scan("pub const METRIC_LIMIT: usize = 3;");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        // A `&'static str` constant is a metric name like a `&str` one.
        let s = scan("const METRIC_BAD: &'static str = \"Flat\";");
        assert_eq!(rules(&s), vec![RULE_METRIC_NAME]);
        let s = scan("const METRIC_OK: &'static str = \"stage.detail\";");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn metric_name_in_comment_or_string_is_ignored() {
        let s = scan("// counter_add(\"x.y\", 1)\nlet m = \"counter_add(\\\"x.y\\\", 1)\";");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }

    #[test]
    fn test_code_is_exempt_from_line_rules() {
        let s = scan("#[cfg(test)]\nmod tests {\n    fn t() { println!(\"x\"); let m: HashMap<u8,u8> = f(); }\n}");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
    }
}
