//! Every manifest entry is used: each workspace package's `[dependencies]`
//! must be named somewhere under its `src/`, and each `[dev-dependencies]`
//! entry somewhere under its `src/`, `tests/`, `examples/` or `benches/`.
//! A package is named when its library name (the package name with `-` as
//! `_`) appears in a `.rs` file as a whole identifier.

use std::fs;
use std::path::{Path, PathBuf};

/// `(table, package)` for each entry of `[dependencies]` and
/// `[dev-dependencies]`.
fn entries(manifest: &str) -> Vec<(&'static str, String)> {
    let mut table = None;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = match line {
                "[dependencies]" => Some("dependencies"),
                "[dev-dependencies]" => Some("dev-dependencies"),
                _ => None,
            };
        } else if let Some(table) = table {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name = line.split(['=', '.']).next().unwrap_or(line).trim();
            out.push((table, name.to_string()));
        }
    }
    out
}

/// Appends the text of every `.rs` file under `dir` (if it exists).
fn sources(dir: &Path, out: &mut Vec<String>) {
    let Ok(listing) = fs::read_dir(dir) else {
        return;
    };
    for entry in listing {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).expect("readable source file"));
        }
    }
}

/// Whether `ident` occurs in any of `texts` as a whole identifier.
fn names(texts: &[String], ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    texts.iter().any(|text| {
        text.match_indices(ident).any(|(at, _)| {
            !text[..at].chars().next_back().is_some_and(is_ident)
                && !text[at + ident.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident)
        })
    })
}

/// The root package and every package under `crates/` and `vendor/`.
fn packages(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        let mut members: Vec<PathBuf> = fs::read_dir(root.join(group))
            .expect("workspace member directory")
            .map(|e| e.expect("readable directory entry").path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        dirs.extend(members);
    }
    dirs
}

#[test]
fn every_manifest_entry_is_named_by_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unused = Vec::new();
    for dir in packages(root) {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        let mut lib = Vec::new();
        sources(&dir.join("src"), &mut lib);
        let mut all = lib.clone();
        for extra in ["tests", "examples", "benches"] {
            sources(&dir.join(extra), &mut all);
        }
        for (table, name) in entries(&manifest) {
            let texts = if table == "dependencies" { &lib } else { &all };
            if !names(texts, &name.replace('-', "_")) {
                let package = dir.strip_prefix(root).expect("member under the root");
                unused.push(format!("./{}: [{table}] {name}", package.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "manifest entries no source names:\n{}",
        unused.join("\n")
    );
}
