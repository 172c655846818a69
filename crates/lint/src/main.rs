//! CLI for `fusion3d-lint`.
//!
//! ```text
//! fusion3d-lint [--root <dir>] [--json]
//! ```
//!
//! Human mode prints one `path:line [RULE] message` row per finding
//! plus a summary; `--json` prints one JSON object per finding (JSON
//! Lines, stable field order) so CI can diff findings across commits.
//!
//! Exit status is 0 when the workspace is clean, 1 when any finding
//! exists, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use fusion3d_lint::{find_workspace_root, lint_workspace, Finding};

struct Options {
    root: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options { root: None, json: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = true,
            "--root" => {
                let value = args.next().ok_or("--root requires a path argument")?;
                options.root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                return Err("usage: fusion3d-lint [--root <dir>] [--json]".to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"schema\":3,\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
        f.rule,
        json_escape(&f.path),
        f.line,
        json_escape(&f.message)
    )
}

/// `"3 A2, 1 U1"`-style per-rule tally for the summary line.
fn rule_counts(findings: &[Finding]) -> String {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    counts.iter().map(|(rule, n)| format!("{n} {rule}")).collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let root = match options.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("fusion3d-lint: no workspace root at or above the current directory");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("fusion3d-lint: {err}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.findings {
        if options.json {
            println!("{}", finding_json(finding));
        } else {
            println!("{}:{} [{}] {}", finding.path, finding.line, finding.rule, finding.message);
        }
    }
    let by_rule = rule_counts(&report.findings);
    eprintln!(
        "fusion3d-lint: {} finding(s){} across {} file(s)",
        report.findings.len(),
        if by_rule.is_empty() { String::new() } else { format!(" ({by_rule})") },
        report.files_scanned
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
