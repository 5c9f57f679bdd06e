//! Workspace walking and reporting: finds the workspace root, collects
//! `.rs` sources, runs the rule engine over each, and formats findings as
//! `path:line:col: [rule] message` lines.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{check_file, Diagnostic};

/// Directory names never descended into. `fixtures` holds the seeded
/// violation corpus — those files *must* fail the lint, so the workspace
/// walk skips them and the test suite checks them explicitly.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// The pinned metrics key order (rule 5). One key per line; blank lines
/// and `#` comments ignored.
const METRICS_MANIFEST: &str = include_str!("metrics_keys.txt");

/// Parses the embedded manifest into the key list rule 5 diffs against.
pub fn metrics_manifest() -> Vec<String> {
    METRICS_MANIFEST
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Walks up from `start` to the enclosing Cargo workspace root (the
/// directory whose `Cargo.toml` has a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under `root`, skipping `SKIP_DIRS`, sorted
/// for deterministic output.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
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

/// One finding bound to the file it came from.
#[derive(Debug)]
pub struct FileDiagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub diag: Diagnostic,
}

impl std::fmt::Display for FileDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.diag.line, self.diag.col, self.diag.rule, self.diag.message
        )
    }
}

/// Workspace-relative `/`-separated form of `path`.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

/// Runs every rule over `files`, returning findings in path order.
pub fn run(root: &Path, files: &[PathBuf]) -> io::Result<Vec<FileDiagnostic>> {
    let manifest = metrics_manifest();
    let mut out = Vec::new();
    for path in files {
        let src = fs::read(path)?;
        let rel = rel_path(root, path);
        for diag in check_file(&rel, &src, &manifest) {
            out.push(FileDiagnostic {
                path: rel.clone(),
                diag,
            });
        }
    }
    Ok(out)
}

/// Convenience: lint the whole workspace rooted at (or above) `start`.
/// Returns `(files_checked, findings)`.
pub fn run_workspace(start: &Path) -> io::Result<(usize, Vec<FileDiagnostic>)> {
    let root = find_workspace_root(start).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "no enclosing Cargo workspace (Cargo.toml with [workspace]) found",
        )
    })?;
    let files = collect_rs_files(&root)?;
    let findings = run(&root, &files)?;
    Ok((files.len(), findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_nonempty_and_starts_with_ops() {
        let m = metrics_manifest();
        assert!(m.len() > 20, "manifest should pin the full schema");
        assert_eq!(m[0], "membership");
    }

    #[test]
    fn display_format_is_path_line_col_rule() {
        let fd = FileDiagnostic {
            path: "crates/serve/src/net.rs".to_string(),
            diag: Diagnostic {
                line: 7,
                col: 3,
                rule: "no-panic-in-serve",
                message: "msg".to_string(),
            },
        };
        assert_eq!(
            fd.to_string(),
            "crates/serve/src/net.rs:7:3: [no-panic-in-serve] msg"
        );
    }
}
