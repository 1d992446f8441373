//! Line rules. Clippy lints hold most of them; the tests below plant
//! violations of each and check that the workspace lint table and
//! `clippy.toml` catch them. What clippy has no lint for is checked here:
//! no `.expect("")`, no `assert!` family on the serving surface, and every
//! package on the workspace lint table.

use crate::lexer::{library_code, line_of, word_matches};
use crate::root;
use std::fs;

/// `expect("")` in library code, and `assert!`, `assert_eq!` or
/// `assert_ne!` on the serving surface, which returns typed errors:
/// `mmhand-serve`'s library and the two core modules its ingress runs
/// through. `debug_assert!` stays legal.
pub fn panic_hygiene(path: &str, src: &str) -> Vec<String> {
    let serving = (path.starts_with("crates/serve/src/") && !path.contains("/src/bin/"))
        || ["crates/core/src/cube.rs", "crates/core/src/pipeline.rs"].contains(&path);
    let banned = ["expect(\"\")", "assert!", "assert_eq!", "assert_ne!"];
    let code = library_code(path, src);
    let mut out = Vec::new();
    for pat in &banned[..if serving { 4 } else { 1 }] {
        let site = |at| format!("{path}:{}: `{pat}`", line_of(&code, at));
        out.extend(word_matches(&code, pat).map(site));
    }
    out
}

/// The non-empty, non-comment lines of the TOML table `[header]`.
pub fn toml_table<'a>(toml: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = toml.lines().map(str::trim);
    lines.by_ref().find(|l| *l == header)?;
    let entry = |l: &&str| !l.is_empty() && !l.starts_with('#');
    Some(lines.take_while(|l| !l.starts_with('[')).filter(entry).collect())
}

/// A package manifest that neither inherits the workspace lint table nor,
/// for `tests/`, names a subset of it.
pub fn lint_table_violations(path: &str, manifest: &str, workspace: &str) -> Vec<String> {
    if toml_table(manifest, "[lints]").is_some_and(|t| t.contains(&"workspace = true")) {
        return Vec::new();
    }
    let table = toml_table(workspace, "[workspace.lints.clippy]").unwrap_or_default();
    match toml_table(manifest, "[lints.clippy]") {
        Some(own) if path == "tests/Cargo.toml" && own.iter().all(|l| table.contains(l)) => {
            Vec::new()
        }
        _ => vec![format!("{path}: does not inherit `[workspace.lints.clippy]`")],
    }
}

/// Workspace-relative paths of the member packages' manifests.
pub fn member_manifests(workspace: &str) -> Vec<String> {
    let members = workspace.lines().find(|l| l.starts_with("members")).expect("members");
    let mut out = Vec::new();
    for member in members.split('"').skip(1).step_by(2) {
        let Some(parent) = member.strip_suffix("/*") else {
            out.push(format!("{member}/Cargo.toml"));
            continue;
        };
        for entry in fs::read_dir(root().join(parent)).expect("member directory") {
            let dir = entry.expect("directory entry").file_name();
            out.push(format!("{parent}/{}/Cargo.toml", dir.to_str().expect("UTF-8 name")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marker::determinism_waivers;
    use crate::{lints, read};

    const LIB: &str = "crates/x/src/lib.rs";
    const SERVE: &str = "crates/serve/src/engine.rs";

    fn lib(src: &str) -> Vec<String> {
        lints(src, false, &[])
    }

    /// `src` under the crate-level `#![deny(clippy::expect_used, …)]` that
    /// `file` opens with.
    fn serving(file: &str, src: &str) -> Vec<String> {
        let text = read(file);
        let deny = text.lines().find(|l| l.starts_with("#![deny(clippy::expect_used"));
        lib(&format!("{}\n{src}", deny.expect("the serving lint attribute")))
    }

    fn hygiene(path: &str, src: &str) -> usize {
        panic_hygiene(path, src).len()
    }

    const UNSAFE_FN: &str = "unsafe fn g() {}\n\npub fn f() -> u8 {\n";

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = format!("{UNSAFE_FN}    unsafe {{ g() }};\n    0\n}}\n");
        assert_eq!(lib(&src), ["4: clippy::undocumented_unsafe_blocks"]);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = format!(
            "{UNSAFE_FN}    // SAFETY: g has no preconditions\n    unsafe {{ g() }};\n    0\n}}\n"
        );
        assert_eq!(lib(&src), [""; 0]);
    }

    #[test]
    fn safety_comment_lookback_window() {
        let src = format!(
            "{UNSAFE_FN}    // SAFETY: invariant\n    let a = 1;\n    unsafe {{ g() }};\n    \
             a\n}}\n"
        );
        assert_eq!(lib(&src), ["6: clippy::undocumented_unsafe_blocks"]);
    }

    #[test]
    fn long_contiguous_safety_block_passes() {
        let bullets: String = (0..12).map(|i| format!("    // * invariant {i} holds\n")).collect();
        let src = format!(
            "{UNSAFE_FN}    // SAFETY: sound because:\n{bullets}    unsafe {{ g() }};\n    0\n}}\n"
        );
        assert_eq!(lib(&src), [""; 0]);
    }

    #[test]
    fn interrupted_comment_block_does_not_carry_safety() {
        let comments = "    // unrelated commentary\n".repeat(12);
        let src = format!(
            "{UNSAFE_FN}    // SAFETY: stale justification\n    let a = 1;\n{comments}    \
             unsafe {{ g() }};\n    a\n}}\n"
        );
        assert_eq!(lib(&src), ["18: clippy::undocumented_unsafe_blocks"]);
    }

    #[test]
    fn unwind_safe_is_not_unsafe() {
        let src = "pub fn f() -> i32 {\n    \
                   std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| 1)).unwrap_or(0)\n}\n";
        assert_eq!(lib(src), [""; 0]);
    }

    #[test]
    fn unwrap_flagged_and_allow_marker_accepted() {
        let src = "pub fn f(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n";
        assert_eq!(lib(src), ["2: clippy::unwrap_used"]);
        let waiver = "#[expect(clippy::unwrap_used, reason = \"provably non-empty\")]\n";
        assert_eq!(lib(&format!("{waiver}{src}")), [""; 0]);
        let same_line = "pub fn f(y: Option<u8>) -> u8 {\n    #[expect(clippy::unwrap_used, \
                         reason = \"checked\")] let x = y.unwrap();\n    x\n}\n";
        assert_eq!(lib(same_line), [""; 0]);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "pub fn lib(z: Option<u8>) -> u8 {\n    z.unwrap()\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    fn helper(y: Option<u8>) -> u8 {\n        \
                   y.unwrap()\n    }\n\n    #[test]\n    fn t() {\n        \
                   let y = \"1\".parse().ok();\n        \
                   assert_eq!(helper(y), y.unwrap());\n    }\n}\n";
        assert_eq!(lints(src, true, &[]), ["2: clippy::unwrap_used"]);
    }

    #[test]
    fn unwrap_in_string_literal_is_ignored() {
        assert_eq!(lib("pub fn f() -> &'static str {\n    \"don't .unwrap() me\"\n}\n"), [""; 0]);
    }

    #[test]
    fn empty_expect_flagged_descriptive_expect_passes() {
        assert_eq!(panic_hygiene(LIB, "y.expect(\"\");"), [format!("{LIB}:1: `expect(\"\")`")]);
        assert_eq!(hygiene(LIB, "y.expect(\"queue lock poisoned\");"), 0);
        assert_eq!(hygiene(LIB, "// y.expect(\"\")\nlet s = \"//\"; y.expect(\"why\");\n"), 0);
    }

    #[test]
    fn panic_rule() {
        let src = "pub fn f() {\n    panic!(\"boom\");\n}\n// panic! only in a comment\n";
        assert_eq!(lib(src), ["2: clippy::panic"]);
    }

    #[test]
    fn determinism_rule_and_exemptions() {
        let src = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n\n\
                   pub fn g() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n\n\
                   pub fn h() {\n    std::thread::spawn(|| ());\n}\n\n\
                   pub fn pool() -> std::io::Result<std::thread::JoinHandle<()>> {\n    \
                   std::thread::Builder::new().spawn(|| ())\n}\n";
        let disallowed = |line| format!("{line}: clippy::disallowed_methods");
        assert_eq!(lib(src), [2, 6, 10].map(disallowed));
        let waiver = "#[expect(clippy::disallowed_methods, reason = \"times the run\")]\n";
        assert_eq!(lib(&format!("{waiver}{}", &src[..src.find("\n\n").expect("f")])), [""; 0]);
        // Only the clock module of the telemetry crate may waive the rule;
        // the rest of the crate stays clock-free.
        assert_eq!(determinism_waivers("crates/telemetry/src/clock.rs", waiver), [""; 0]);
        assert_eq!(determinism_waivers("crates/bench/src/bin/exp.rs", waiver), [""; 0]);
        let found = determinism_waivers("crates/telemetry/src/lib.rs", waiver);
        assert_eq!(found, ["crates/telemetry/src/lib.rs:1: clock or thread waiver"]);
        assert_eq!(determinism_waivers("crates/parallel/src/lib.rs", waiver).len(), 1);
    }

    #[test]
    fn float_eq_rule() {
        let src =
            "pub fn f(x: f64, y: f32, i: i32, a: &[u8], b: &[u8]) -> [bool; 7] {\n    [\n        \
                   x == 1.0,\n        0.5f32 != y,\n        x == 1e-3,\n        i == 1,\n        \
                   x <= 1.0,\n        x >= 1.0,\n        a.len() == b.len(),\n    ]\n}\n";
        assert_eq!(
            lib(src),
            ["3: clippy::float_cmp", "4: clippy::float_cmp", "5: clippy::float_cmp"]
        );
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\npub use std::mem::swap;\n\n\
                   pub fn lib(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n";
        assert_eq!(lints(src, true, &[]), ["5: clippy::unwrap_used"]);
    }

    #[test]
    fn serve_hygiene_bans_expect_and_asserts_in_serve_lib_code() {
        let src = "pub fn a(x: Option<u8>) -> u8 {\n    x.expect(\"queue lock poisoned\")\n}\n\n\
                   pub fn b() {\n    unreachable!()\n}\n\npub fn c() {\n    todo!()\n}\n";
        let found = serving("crates/serve/src/lib.rs", src);
        assert_eq!(found, ["3: clippy::expect_used", "7: clippy::unreachable", "11: clippy::todo"]);
        for banned in ["assert!", "assert_eq!", "assert_ne!"] {
            let found = panic_hygiene(SERVE, &format!("{banned}(a, b);"));
            assert_eq!(found, [format!("{SERVE}:1: `{banned}`")]);
        }
        // Debug assertions compile out of release builds and stay legal.
        assert_eq!(hygiene(SERVE, "debug_assert!(ok);"), 0);
    }

    #[test]
    fn serve_hygiene_bans_expect_and_asserts_in_core_entry_points() {
        let cube = "crates/core/src/cube.rs";
        assert_eq!(hygiene(cube, "assert_eq!(a, b);"), 1);
        assert_eq!(hygiene("crates/core/src/pipeline.rs", "assert!(ok);"), 1);
        // The entry points have one fallible form each: even a descriptive
        // expect is a finding.
        let src = "pub fn a() {\n    unimplemented!()\n}\n\n\
                   pub fn b(c: Option<u8>) -> u8 {\n    \
                   c.expect(\"invalid cube configuration\")\n}\n";
        assert_eq!(serving(cube, src), ["3: clippy::unimplemented", "7: clippy::expect_used"]);
        assert_eq!(serving("crates/core/src/pipeline.rs", src).len(), 2);
        // Other core files are governed by the workspace-wide rules only.
        assert_eq!(hygiene("crates/core/src/train.rs", "assert!(ok);"), 0);
    }

    #[test]
    fn serve_hygiene_exemptions_and_markers() {
        // Test modules inside serve files stay free to assert.
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(1, 1); }\n}";
        assert_eq!(hygiene(SERVE, src), 0);
        // The driver binary is demo code, like the bench binaries.
        assert_eq!(hygiene("crates/serve/src/bin/mmhand-serve.rs", "assert!(ok);"), 0);
        // A justified waiver silences the rule per site.
        let marked = "#[expect(clippy::expect_used, reason = \"cfg(test)-gated helper module\")]\n\
                      pub fn f(x: Option<u8>) -> u8 {\n    x.expect(\"m\")\n}\n";
        assert_eq!(serving("crates/serve/src/lib.rs", marked), [""; 0]);
    }

    #[test]
    fn manifests_inherit_the_workspace_lint_table() {
        let workspace = "[workspace.lints.clippy]\npanic = \"warn\"\nfloat_cmp = \"warn\"\n";
        let check = |path, manifest| lint_table_violations(path, manifest, workspace).len();
        assert_eq!(check("crates/x/Cargo.toml", "[package]\n\n[lints]\nworkspace = true\n"), 0);
        assert_eq!(check("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"), 1);
        let subset = "[package]\n\n[lints.clippy]\npanic = \"warn\"\n";
        assert_eq!(check("tests/Cargo.toml", subset), 0);
        assert_eq!(check("crates/x/Cargo.toml", subset), 1);
        assert_eq!(check("tests/Cargo.toml", "[lints.clippy]\nunwrap_used = \"allow\"\n"), 1);
    }
}
