//! Integration-test package. Its tests live under `tests/tests/`; this
//! library holds the source rules that clippy has no lint for, and
//! [`lints`], which runs `clippy-driver` on planted code under the
//! workspace lint table.
//!
//! Each rule maps a workspace-relative path and a file's text to its
//! violations; `tests/self_check.rs` runs them over the workspace and plants
//! a violation for each. The modules are named after the passes of the
//! hand-written analyzer they replace, whose tests they keep:
//!
//! - [`lexer`]: `//` comments stripped line by line; library code ends at a
//!   file's first `#[cfg(test)]`;
//! - [`metrics`]: the metric registry against `docs/METRICS.md`;
//! - [`passes`]: `SAFETY:` contracts, and the pool's checkout discipline;
//! - [`rules`]: panic hygiene, the lint table, and the clippy lints that
//!   replace the line rules;
//! - [`graph`]: `#[target_feature]` confined to `mmhand-kernels`;
//! - [`marker`]: clock and thread waivers only at the sanctioned sites.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

pub mod graph;
pub mod lexer;
pub mod marker;
pub mod metrics;
pub mod passes;
pub mod rules;

/// The workspace root.
pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the root").into()
}

/// The text of a workspace file.
pub fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).expect("readable workspace file")
}

/// `file` relative to `root`, with `/` separators on every platform.
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).expect("under the root");
    rel.to_str().expect("UTF-8 path").replace('\\', "/")
}

/// `(workspace-relative path, text)` of every `.rs` file, build output and
/// `vendor/` skipped.
pub fn rust_sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if path.is_dir() && !["target", "vendor"].contains(&name) && !name.starts_with('.') {
                walk(root, &path, out);
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(&path).expect("readable source");
                out.push((relative_path(root, &path), text));
            }
        }
    }
    let mut out = Vec::new();
    walk(&root(), &root(), &mut out);
    out.sort();
    out
}

/// The diagnostics `clippy-driver` reports for `src` built as a library
/// crate under the workspace lint table and `clippy.toml`, as `line: code`
/// sorted by line: `2: clippy::unwrap_used`, `4: E0624`. With `test` the
/// crate builds as a test harness, so its `#[cfg(test)]` code compiles;
/// `externs` name dependencies of this package that `src` uses.
pub fn lints(src: &str, test: bool, externs: &[&str]) -> Vec<String> {
    // One run at a time: each is a compiler process.
    static RUNS: Mutex<usize> = Mutex::new(0);
    let mut runs = RUNS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    *runs += 1;
    let dir = std::env::temp_dir().join(format!("mmhand-lints-{}-{runs}", std::process::id()));
    fs::create_dir_all(&dir).expect("temporary directory");
    fs::write(dir.join("lib.rs"), src).expect("temporary source file");
    let cargo = std::env::var_os("CARGO").map(PathBuf::from).unwrap_or_default();
    let driver = cargo.with_file_name("clippy-driver");
    let mut cmd = Command::new(if driver.exists() { driver } else { "clippy-driver".into() });
    cmd.current_dir(&dir).env("CLIPPY_CONF_DIR", root());
    cmd.args(["lib.rs", "--edition=2021", "--crate-type=lib", "--emit=metadata"]);
    cmd.args(["--error-format=json", "--out-dir=."]);
    let workspace = read("Cargo.toml");
    for entry in rules::toml_table(&workspace, "[workspace.lints.clippy]").unwrap_or_default() {
        let (lint, level) = entry.split_once('=').expect("`lint = \"level\"`");
        let flag = match level.trim() {
            "\"allow\"" => "-A",
            "\"deny\"" => "-D",
            _ => "-W",
        };
        cmd.args([flag, &format!("clippy::{}", lint.trim())]);
    }
    if test {
        cmd.arg("--test");
    }
    let deps = std::env::current_exe().expect("test binary").with_file_name("");
    for name in externs {
        cmd.arg(format!("-Ldependency={}", deps.display()));
        cmd.arg(format!("--extern={name}={}", newest_rlib(&deps, name).display()));
    }
    let out = cmd.output().expect("clippy-driver runs");
    fs::remove_dir_all(&dir).expect("temporary directory removed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.lines().all(|l| l.starts_with('{')), "clippy-driver failed:\n{stderr}");
    let mut found: Vec<(usize, String)> = stderr.lines().filter_map(diagnostic).collect();
    found.sort();
    found.into_iter().map(|(line, code)| format!("{line}: {code}")).collect()
}

/// `(line, code)` of one JSON diagnostic that points into the source: its
/// lint or error code, else its level.
fn diagnostic(json: &str) -> Option<(usize, String)> {
    let after = |key: &str| json.split_once(key).map(|(_, rest)| rest);
    let digits = after("\"line_start\":")?.split(|c: char| !c.is_ascii_digit()).next()?;
    let code = after("\"code\":{\"code\":\"").or_else(|| after("\"level\":\""))?;
    Some((digits.parse().ok()?, code.split('"').next()?.to_string()))
}

/// The newest `lib<name>-*.rlib` in `deps`, the crate as this build made it.
fn newest_rlib(deps: &Path, name: &str) -> PathBuf {
    let prefix = format!("lib{name}-");
    let rlibs = fs::read_dir(deps).expect("dependency directory").map(|e| e.expect("entry").path());
    let rlibs = rlibs.filter(|p| {
        let file = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        file.starts_with(&prefix) && file.ends_with(".rlib")
    });
    let modified = |p: &PathBuf| fs::metadata(p).and_then(|m| m.modified()).ok();
    rlibs.max_by_key(modified).expect("a dependency of this package")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        assert_eq!(
            relative_path(root, Path::new("/ws/crates/x/src/lib.rs")),
            "crates/x/src/lib.rs"
        );
        assert!(rust_sources().iter().any(|(path, _)| path == "tests/src/lib.rs"));
    }

    #[test]
    fn used_markers_are_not_stale() {
        let src = "#[expect(clippy::unwrap_used, reason = \"justified\")]\n\
                   pub fn f(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n";
        assert_eq!(lints(src, false, &[]), [""; 0]);
    }
}
