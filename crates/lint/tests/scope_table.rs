//! The rule-scope table must name only files and functions the
//! workspace has. A stale entry drops coverage silently: an H2 entry
//! that names no function checks nothing, and a moved file leaves its
//! A2 proofs unchecked, while the lint still reports zero findings.

use std::path::{Path, PathBuf};

use fusion3d_lint::scope::{
    crate_of, names_fn, A2_FILES, A4_FILES, ACCOUNTING_FILES, H2_ENTRIES, HOT_PATH_FILES,
    PAR_COMBINATORS, PRINTING_CRATES, RESULT_BEARING_CRATES,
};
use fusion3d_lint::{lexer, parse, workspace_sources};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_scoped_file_and_crate_exists() {
    let root = root();
    let files = [ACCOUNTING_FILES, HOT_PATH_FILES, A2_FILES, A4_FILES].concat();
    let missing_files: Vec<&str> =
        files.into_iter().filter(|path| !root.join(path).is_file()).collect();
    assert!(missing_files.is_empty(), "scope table names missing files: {missing_files:?}");
    let crates = [RESULT_BEARING_CRATES, PRINTING_CRATES].concat();
    let missing_crates: Vec<&str> = crates
        .into_iter()
        .filter(|krate| !root.join("crates").join(krate).join("src").is_dir())
        .collect();
    assert!(missing_crates.is_empty(), "scope table names missing crates: {missing_crates:?}");
}

#[test]
fn every_entry_name_resolves_to_a_workspace_fn() {
    let sources = match workspace_sources(&root()) {
        Ok(sources) => sources,
        Err(err) => panic!("failed to read workspace: {err}"),
    };
    // (crate, fn) for every non-test fn in the workspace.
    let fns: Vec<(String, parse::FnItem)> = sources
        .iter()
        .flat_map(|(path, source)| {
            let krate = crate_of(path).unwrap_or("").to_string();
            let parsed = parse::parse_file(&lexer::lex(source));
            parsed.fns.into_iter().filter(|f| !f.is_test).map(move |f| (krate.clone(), f))
        })
        .collect();
    let resolves = |krate: &str, entry: &str| {
        fns.iter().any(|(k, item)| k.as_str() == krate && names_fn(entry, item))
    };
    let entries =
        H2_ENTRIES.iter().copied().chain(PAR_COMBINATORS.iter().map(|&name| ("par", name)));
    let stale: Vec<(&str, &str)> =
        entries.filter(|&(krate, entry)| !resolves(krate, entry)).collect();
    assert!(stale.is_empty(), "scope entries name no non-test fn in their crate: {stale:?}");
}
