//! `fusion3d-lint` — workspace-aware static analysis for the
//! Fusion-3D reproduction.
//!
//! The cycle-accurate simulator's headline guarantee is that its
//! numbers are reproducible: bitwise-identical across runs, machines,
//! and worker counts. That guarantee is cheap to break silently — one
//! `HashMap` iteration in a result path, one `thread_rng()`, one
//! narrowing cast in an energy total — so this crate machine-checks
//! the discipline on every change. It lexes the workspace's Rust
//! sources with a small hand-rolled tokenizer (no `syn`; the repo
//! builds offline), recovers the item skeleton (fns, impls, modules)
//! with a lightweight parser, builds a conservative workspace call
//! graph, and enforces twelve repo-specific rules — token-local
//! (D1–D3, P1, A1, H1, O1), interprocedural (P2, H2), parallel-closure
//! (D4, D5), and suppression hygiene (U1). The full catalogue with
//! rationale and examples lives in `docs/LINTS.md`.
//!
//! Legitimate exceptions carry a per-line escape hatch **with a
//! mandatory reason** (U1 reports reasonless or unused suppressions):
//!
//! ```text
//! let forced = std::env::var(THREADS_ENV); // lint: allow(d2): worker count never affects results
//! ```
//!
//! The directive suppresses the named rule(s) on its own line and the
//! line directly below, so it can trail the offending expression or
//! sit above a rustfmt-wrapped statement. Plain `//` comment lines
//! directly below a directive extend its coverage to the line after
//! them, so a reason that needs two comment lines still guards the
//! code underneath. The catalogue in `docs/LINTS.md` documents the
//! full syntax.
//!
//! Known over-approximations, by design: any attribute containing the
//! identifier `test` (e.g. `#[cfg(test)]`, `#[test]`) marks its item
//! as test code and exempts it from every rule; `cfg(not(test))` is
//! unused in this workspace and would be exempted too. Out-of-line
//! `#[cfg(test)] mod x;` declarations are not followed — test modules
//! live inline or under `tests/`, which is never scanned. The call
//! graph resolves names without type inference, so reachability is an
//! over-approximation (see [`graph`]).

#![warn(missing_docs)]

mod absint;
pub mod graph;
mod interproc;
pub mod intervals;
pub mod lexer;
pub mod parse;
mod rules;
pub mod scope;
mod tokens;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lexed + parsed source file of the workspace under analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Token stream and allow directives.
    pub lexed: lexer::LexedFile,
    /// Item skeleton (fns, uses, statics) and test-code mask.
    pub parsed: parse::ParsedFile,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`"D1"`, …, `"U1"`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The one sink every rule engine reports through. It consults each
/// file's `// lint: allow(…)` directives and records which ones fired,
/// which U1 reads once every other rule has run.
pub(crate) struct Reporter<'a> {
    files: &'a [SourceFile],
    /// Per file: `(directive line, lowercase rule)` of every
    /// suppression that fired.
    used: Vec<BTreeSet<(u32, String)>>,
    findings: Vec<Finding>,
}

impl<'a> Reporter<'a> {
    fn new(files: &'a [SourceFile]) -> Self {
        Reporter {
            files,
            used: files.iter().map(|_| BTreeSet::new()).collect(),
            findings: Vec::new(),
        }
    }

    /// Reports `message` at `line` of `files[file]` under `rules[0]`,
    /// unless a directive naming any of `rules` covers the line; that
    /// directive is then recorded as used.
    pub(crate) fn report(
        &mut self,
        file: usize,
        rules: &[&'static str],
        line: u32,
        message: String,
    ) {
        let lexed = &self.files[file].lexed;
        for rule in rules {
            if let Some(directive_line) = lexed.allow_line(rule, line) {
                self.used[file].insert((directive_line, rule.to_ascii_lowercase()));
                return;
            }
        }
        self.findings.push(Finding {
            rule: rules[0],
            path: self.files[file].path.clone(),
            line,
            message,
        });
    }

    /// U1 — suppression hygiene. Every `// lint: allow(…)` must carry
    /// a reason (`): why` or `) -- why`), and every suppressed rule
    /// must actually suppress something; stale allows are reported so
    /// the escape-hatch inventory stays honest. A directive listing
    /// `u1` opts out of the unused check (for deliberately
    /// prophylactic allows) but still needs a reason. No directive
    /// suppresses U1 itself.
    fn check_unused(&mut self) {
        for (idx, file) in self.files.iter().enumerate() {
            for (&line, directive) in &file.lexed.allows {
                let rules = directive.rules.join(", ");
                let message = if !directive.has_reason {
                    format!(
                        "suppression of `{rules}` carries no reason; write \
                         `// lint: allow({rules}): why` so the exception is auditable"
                    )
                } else if directive.rules.iter().any(|r| r == "u1") {
                    continue;
                } else {
                    let unused: Vec<&str> = directive
                        .rules
                        .iter()
                        .filter(|r| !self.used[idx].contains(&(line, (*r).clone())))
                        .map(String::as_str)
                        .collect();
                    if unused.is_empty() {
                        continue;
                    }
                    format!(
                        "unused suppression of `{}`: no finding of that rule is \
                         suppressed here — delete the allow or add `u1` to mark it \
                         deliberately prophylactic",
                        unused.join(", ")
                    )
                };
                self.findings.push(Finding { rule: "U1", path: file.path.clone(), line, message });
            }
        }
    }
}

/// Lints a set of in-memory sources as one workspace: token-local
/// rules per file, then the call-graph rules (P2/H2/D4/D5) and the
/// abstract interpreter (A2/A3/A4) across all of them, then U1 over
/// the accumulated suppression usage. Findings come back sorted by
/// (path, line, rule), one per (path, line, rule) — several patterns
/// can fire on one construct (`std::time::Instant` trips D2 twice),
/// and the first reported wins.
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let mut files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, source)| {
            let lexed = lexer::lex(source);
            let parsed = parse::parse_file(&lexed);
            SourceFile { path: path.clone(), lexed, parsed }
        })
        .collect();
    let mut parsed: Vec<&mut parse::ParsedFile> = files.iter_mut().map(|f| &mut f.parsed).collect();
    parse::resolve_array_aliases(&mut parsed);
    let files = files;

    let mut out = Reporter::new(&files);
    rules::check(&files, &mut out);
    let graph = graph::CallGraph::build(&files);
    interproc::check(&files, &graph, &mut out);
    absint::check(&files, &graph, &mut out);
    out.check_unused();

    let mut findings = out.findings;
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
    Report { findings, files_scanned: files.len() }
}

/// Lints a single source string as if it lived at `rel_path`
/// (workspace-relative, forward slashes). The path determines which
/// rules apply — `crates/core/src/energy.rs` is in A1 scope,
/// `crates/bench/src/lib.rs` is exempt from D2, and so on. The
/// interprocedural rules run over the one-file "workspace".
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), source.to_string())]).findings
}

/// Lints every library source tree in the workspace rooted at `root`:
/// `crates/*/src/**/*.rs` plus the façade crate's `src/`. Test
/// directories (`tests/`, `benches/`, `examples/`) are intentionally
/// out of scope, as is `vendor/`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_sources(&workspace_sources(root)?))
}

/// The `(workspace-relative path, source)` pairs [`lint_workspace`]
/// scans, in sorted path order.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_entries(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs_files(&root_src, &mut files)?;
    }

    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let source = fs::read_to_string(&path)?;
        sources.push((relative_path(root, &path), source));
    }
    Ok(sources)
}

/// Locates the workspace root at or above `start` by looking for the
/// directory that contains both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize to forward slashes so scopes match on every platform.
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}
