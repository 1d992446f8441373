//! The audit rule set: line rules and the shared finding model.
//!
//! Each line rule inspects the *code* channel of the lexed source (comments
//! and string contents already blanked by [`crate::lexer`]), so a `panic!`
//! inside a doc string or an `unwrap()` mentioned in a comment never
//! triggers. Every rule can be silenced per-site with a justification
//! marker on the same line or the line directly above:
//!
//! ```text
//! // audit: allow(no_unwrap) — index proven in bounds by the loop above
//! let v = xs.get(i).unwrap();
//! ```
//!
//! A suppressed finding is not dropped: it is recorded as a [`Waiver`] so
//! the baseline ratchet (see [`crate::baseline`]) can hold the total
//! finding+waiver count per `(rule, file)` monotonically non-increasing —
//! allow-marker debt can only go down.
//!
//! Rule catalogue (see `DESIGN.md` §14 for the analyzer architecture):
//!
//! | rule | requirement |
//! |---|---|
//! | `safety_comment` | every `unsafe` keyword is preceded by a `// SAFETY:` comment |
//! | `unsafe_contract` | the `// SAFETY:` contract must be structured: it names at least one concrete invariant (bounds, lifetime, aliasing, CPU-feature detection, …) |
//! | `no_unwrap` | no `.unwrap()` in non-test library code |
//! | `empty_expect` | no `.expect("")` — messages must describe the invariant |
//! | `no_panic` | no `panic!` in non-test library code |
//! | `determinism` | no `thread::spawn` / wall-clock reads / ad-hoc RNG seeding outside the sanctioned modules |
//! | `float_eq` | no `==`/`!=` against floating-point literals |
//! | `serve_hygiene` | the serve ingress surface must return typed errors: no `.expect(…)`/assertion macros in `crates/serve` lib code or the public core entry points (`cube.rs`, `pipeline.rs`) |
//! | `hot_path_alloc` | no fresh allocations (`vec![…]`, `Vec::with_capacity`, `.to_vec()`) in the designated zero-allocation hot paths; use a `ScratchPool` or justify with `// audit: pool-exempt` |
//! | `simd_dispatch` | every `#[target_feature]` fn lives in `crates/kernels` and is called only from other `#[target_feature]` fns, the cpuid guard, or methods of types constructed solely behind the guard |
//! | `pool_lifecycle` | `ScratchPool` checkouts in the designated files are returned exactly once per function, or justified with `// audit: pool-escape(<reason>)` |
//! | `metric_registry` | telemetry metric names are unique per kind, free of distance-1 typos, and documented in `docs/METRICS.md` |
//! | `stale_marker` | an audit marker that suppresses zero findings is dead and must be removed (warn) |

use crate::lexer::{contains_word, lex, Line};
use crate::marker::MarkerSet;

/// Finding severity. `--deny-all` fails the run only on [`Severity::Deny`];
/// warn findings are advisory (they still count toward the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, never fails `--deny-all`.
    Warn,
    /// Blocking under `--deny-all`.
    Deny,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Severity under `--deny-all`.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// A finding that was suppressed by a justification marker. Waivers keep
/// suppressed debt visible to the baseline ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule that would have fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number of the suppressed site.
    pub line: usize,
}

/// Accumulates findings and waivers across rules and passes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations that survived marker suppression.
    pub findings: Vec<Finding>,
    /// Violations suppressed by a marker.
    pub waivers: Vec<Waiver>,
}

impl Outcome {
    /// Emits a deny-level finding at line index `idx`, unless an
    /// `audit: allow(<rule>)` marker waives it (recorded as a waiver).
    pub fn deny(
        &mut self,
        markers: &MarkerSet,
        rule: &'static str,
        file: &str,
        idx: usize,
        number: usize,
        message: String,
    ) {
        if markers.allow(idx, rule) {
            self.waivers.push(Waiver { rule, file: file.to_string(), line: number });
        } else {
            self.findings.push(Finding {
                rule,
                severity: Severity::Deny,
                file: file.to_string(),
                line: number,
                message,
            });
        }
    }

    /// Emits a warn-level finding (not marker-suppressible — warns are
    /// themselves about markers or documentation drift).
    pub fn warn(&mut self, rule: &'static str, file: &str, number: usize, message: String) {
        self.findings.push(Finding {
            rule,
            severity: Severity::Warn,
            file: file.to_string(),
            line: number,
            message,
        });
    }
}

/// `(name, summary)` for every rule, in report order.
pub const RULES: &[(&str, &str)] = &[
    ("safety_comment", "unsafe blocks must carry a `// SAFETY:` comment stating the upheld invariants"),
    ("unsafe_contract", "the `// SAFETY:` contract must be structured: name at least one concrete invariant (bounds, lifetime, aliasing, CPU-feature detection, …)"),
    ("no_unwrap", "no `.unwrap()` in non-test library code; use typed errors or a descriptive `expect`"),
    ("empty_expect", "`expect(\"\")` hides the invariant; the message must say why the value exists"),
    ("no_panic", "no `panic!` in non-test library code; return errors or document via audit allow"),
    ("determinism", "no thread spawning, wall-clock reads, or RNG seeding outside mmhand-parallel, mmhand-math::rng, mmhand-telemetry::clock, and bench binaries"),
    ("float_eq", "no `==`/`!=` comparison against float literals; use an epsilon or restructure"),
    ("serve_hygiene", "serve ingress returns typed errors: no `.expect(`/assertion macros in crates/serve lib code or the core entry points it is built on (core/src/cube.rs, core/src/pipeline.rs)"),
    ("hot_path_alloc", "no fresh allocations (`vec![`, `Vec::with_capacity`, `.to_vec()`) in the designated zero-allocation hot paths; check buffers out of a ScratchPool or justify with `// audit: pool-exempt`"),
    ("simd_dispatch", "`#[target_feature]` fns live in crates/kernels and are reachable only through the cpuid-guarded dispatch: callers must be target_feature fns, the guard fn itself, or methods of guard-constructed types"),
    ("pool_lifecycle", "ScratchPool checkouts in the designated files are returned exactly once per function; an intentional escape needs `// audit: pool-escape(<reason>)`"),
    ("metric_registry", "telemetry metric names are unique per kind, free of distance-1 near-miss typos, and documented in docs/METRICS.md"),
    ("stale_marker", "an audit marker that suppresses zero findings is dead and must be removed"),
];

/// How many lines above an `unsafe` keyword a `// SAFETY:` comment may sit.
pub(crate) const SAFETY_LOOKBACK: usize = 6;

/// Path-derived lint context for one file.
#[derive(Debug, Clone, Copy)]
pub struct FileKind {
    /// Whole file is test code (`tests/`, `benches/` trees).
    pub test_file: bool,
    /// Exempt from the panic-hygiene rules (examples are demo code).
    pub panic_exempt: bool,
    /// Exempt from the determinism rule (sanctioned nondeterminism).
    pub determinism_exempt: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileKind {
    let test_file = path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/");
    let is_example = path.starts_with("examples/");
    let is_bench_bin = path.contains("/src/bin/");
    FileKind {
        test_file,
        panic_exempt: is_example || is_bench_bin,
        determinism_exempt: path.starts_with("crates/parallel/")
            || path == "crates/math/src/rng.rs"
            // The telemetry clock module is the one sanctioned wall-clock
            // boundary: `MonotonicClock` wraps `Instant::now` there so every
            // other crate can time spans without touching the clock itself.
            || path == "crates/telemetry/src/clock.rs"
            || is_bench_bin
            || is_example
            || test_file,
    }
}

/// Runs the per-line rules over one file's source. Convenience wrapper
/// used by unit tests; the workspace scan drives [`line_rules`] directly
/// so passes can share the lexed lines and marker set.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    let lines = lex(source);
    let markers = MarkerSet::collect(&lines);
    let mut out = Outcome::default();
    line_rules(path, &lines, &markers, &mut out);
    out.findings
}

/// Runs every per-line rule over one lexed file, emitting into `out`.
pub fn line_rules(path: &str, lines: &[Line], markers: &MarkerSet, out: &mut Outcome) {
    let kind = classify(path);
    let test_lines = test_regions(lines);

    for (idx, line) in lines.iter().enumerate() {
        let in_test = kind.test_file || test_lines[idx];
        let code = &line.code;
        let n = line.number;

        // safety_comment — applies everywhere, including tests.
        if contains_word(code, "unsafe") && safety_comment_line(lines, idx).is_none() {
            out.deny(
                markers,
                "safety_comment",
                path,
                idx,
                n,
                "`unsafe` without a `// SAFETY:` comment in the preceding lines".into(),
            );
        }

        if in_test {
            continue;
        }

        if !kind.panic_exempt {
            if code.contains(".unwrap()") {
                out.deny(
                    markers,
                    "no_unwrap",
                    path,
                    idx,
                    n,
                    "`.unwrap()` in non-test library code".into(),
                );
            }
            if code.contains(".expect(\"\")") {
                out.deny(
                    markers,
                    "empty_expect",
                    path,
                    idx,
                    n,
                    "`.expect(\"\")` with an empty justification message".into(),
                );
            }
            if code.contains("panic!") {
                out.deny(
                    markers,
                    "no_panic",
                    path,
                    idx,
                    n,
                    "`panic!` in non-test library code".into(),
                );
            }

            // serve_hygiene — the streaming service guarantees that no
            // malformed input reaching its ingress can panic, so its lib
            // code and the two core entry-point files it is built on are
            // held to a stricter standard than the workspace-wide panic
            // rules: even a descriptive `.expect` is out, and every
            // fallible step must surface as a typed error (`ServeError`
            // in serve, `PipelineError` in core).
            if serve_strict(path) {
                if code.contains(".expect(") {
                    out.deny(
                        markers,
                        "serve_hygiene",
                        path,
                        idx,
                        n,
                        "`.expect(…)` on the serve ingress surface; return a typed error instead".into(),
                    );
                }
                for mac in [
                    "assert!",
                    "assert_eq!",
                    "assert_ne!",
                    "unreachable!",
                    "todo!",
                    "unimplemented!",
                ] {
                    if contains_macro(code, mac) {
                        out.deny(
                            markers,
                            "serve_hygiene",
                            path,
                            idx,
                            n,
                            format!(
                                "`{mac}` on the panic-free serving surface; return a typed error instead"
                            ),
                        );
                    }
                }
            }
        }

        // hot_path_alloc — the per-frame kernels were moved onto scratch
        // pools and cached plans; this rule keeps fresh allocations from
        // creeping back into them. The exemption marker is deliberately
        // distinct from `audit: allow(…)`: a pool-exempt site is not a
        // silenced violation but a documented owned-return or one-time
        // allocation.
        if hot_path(path) {
            for pat in ["vec![", "Vec::with_capacity", ".to_vec()"] {
                if code.contains(pat) {
                    if markers.pool_exempt(idx) {
                        out.waivers.push(Waiver {
                            rule: "hot_path_alloc",
                            file: path.to_string(),
                            line: n,
                        });
                    } else {
                        out.findings.push(Finding {
                            rule: "hot_path_alloc",
                            severity: Severity::Deny,
                            file: path.to_string(),
                            line: n,
                            message: format!(
                                "`{pat}` in a designated zero-allocation hot path; check out of a `ScratchPool` or mark `// audit: pool-exempt`"
                            ),
                        });
                    }
                }
            }
        }

        if !kind.determinism_exempt {
            for pat in [
                "thread::spawn",
                "SystemTime::now",
                "Instant::now",
                "thread_rng",
                "from_entropy",
            ] {
                if code.contains(pat) {
                    out.deny(
                        markers,
                        "determinism",
                        path,
                        idx,
                        n,
                        format!("`{pat}` outside the sanctioned nondeterminism boundary"),
                    );
                }
            }
        }

        if let Some(op) = float_literal_comparison(code) {
            out.deny(
                markers,
                "float_eq",
                path,
                idx,
                n,
                format!("`{op}` comparison against a float literal"),
            );
        }
    }
}

/// Marks which lines sit inside `#[cfg(test)]` item bodies.
///
/// The tracker is brace-depth based: a `#[cfg(test)]` attribute arms a
/// pending region at the current depth; the next `{` opened at that depth
/// starts the region, which ends when the matching `}` closes. An
/// intervening `;` at the same depth (the attribute decorated a braceless
/// item such as a `use`) disarms it.
pub(crate) fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut pending: Option<i32> = None;
    // Depths whose open brace started a test region.
    let mut regions: Vec<i32> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if is_test_attribute(code) {
            pending = Some(depth);
        }
        let mut in_region_here = !regions.is_empty();
        for c in code.chars() {
            match c {
                '{' => {
                    if pending == Some(depth) {
                        regions.push(depth);
                        pending = None;
                        in_region_here = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                ';' if pending == Some(depth) && regions.is_empty() => {
                    pending = None;
                }
                _ => {}
            }
        }
        out[idx] = in_region_here || !regions.is_empty();
    }
    out
}

/// `#[cfg(test)]`, `#[cfg(any(test, …))]`, or a `#[test]`-style attribute.
fn is_test_attribute(code: &str) -> bool {
    let trimmed = code.trim_start();
    if let Some(pos) = trimmed.find("#[") {
        let attr = &trimmed[pos..];
        let end = attr.find(']').map(|e| e + 1).unwrap_or(attr.len());
        let attr = &attr[..end];
        return (attr.contains("cfg") && contains_word(attr, "test"))
            || attr == "#[test]"
            || attr.starts_with("#[test]");
    }
    false
}

/// Locates the `// SAFETY:` comment covering the `unsafe` keyword at line
/// `idx`: on the same line, within the previous few lines, or anywhere in
/// the contiguous comment-only block sitting directly above — a thorough
/// justification can push the `SAFETY:` header well past any fixed window.
/// Returns the 0-based index of the line carrying `SAFETY:`.
pub(crate) fn safety_comment_line(lines: &[Line], idx: usize) -> Option<usize> {
    let lo = idx.saturating_sub(SAFETY_LOOKBACK);
    for i in (lo..=idx).rev() {
        if lines[i].comment.contains("SAFETY:") {
            return Some(i);
        }
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        // Only a code line interrupts the block — bare `//` separators and
        // blank lines inside the justification keep it contiguous.
        if !l.code.trim().is_empty() {
            break;
        }
        if l.comment.contains("SAFETY:") {
            return Some(i);
        }
    }
    None
}

/// Files on the panic-free serving surface: the whole `mmhand-serve`
/// library plus the two core entry-point files its ingress path runs
/// through.
fn serve_strict(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path == "crates/core/src/cube.rs"
        || path == "crates/core/src/pipeline.rs"
}

/// The designated zero-allocation hot paths: the FFT kernels, the conv
/// im2col/col2im kernels, the GEMM kernels (moved out of `tensor.rs` into
/// their own module) and the serve step loop. Steady-state work in these
/// files draws from `ScratchPool`s / cached plans; every remaining
/// allocation site carries a `// audit: pool-exempt` justification.
pub(crate) fn hot_path(path: &str) -> bool {
    matches!(
        path,
        "crates/dsp/src/fft.rs"
            | "crates/nn/src/conv.rs"
            | "crates/nn/src/gemm.rs"
            | "crates/serve/src/engine.rs"
    )
}

/// `mac` present as a macro invocation of its own name — an occurrence
/// whose preceding character is part of an identifier (e.g. the `assert!`
/// inside `debug_assert!`) does not count.
fn contains_macro(code: &str, mac: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(mac) {
        let at = start + pos;
        let prev = if at > 0 { bytes[at - 1] } else { b' ' };
        if !prev.is_ascii_alphanumeric() && prev != b'_' {
            return true;
        }
        start = at + mac.len();
    }
    false
}

/// Detects `== LITERAL` / `LITERAL ==` (and `!=`) where the literal is a
/// floating-point constant. Returns the offending operator.
fn float_literal_comparison(code: &str) -> Option<&'static str> {
    for (op, name) in [("==", "=="), ("!=", "!=")] {
        let bytes = code.as_bytes();
        let mut start = 0;
        while let Some(pos) = code[start..].find(op) {
            let at = start + pos;
            // Skip `<=`, `>=`, `=>`-adjacent digraphs and `===`-like runs.
            let prev = if at > 0 { bytes[at - 1] } else { b' ' };
            let next = bytes.get(at + 2).copied().unwrap_or(b' ');
            if prev != b'=' && prev != b'<' && prev != b'>' && prev != b'!' && next != b'=' {
                let left = token_before(code, at);
                let right = token_after(code, at + 2);
                if is_float_literal(&left) || is_float_literal(&right) {
                    return Some(name);
                }
            }
            start = at + 2;
        }
    }
    None
}

fn token_before(code: &str, end: usize) -> String {
    code[..end]
        .trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

fn token_after(code: &str, start: usize) -> String {
    code[start..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
        .collect()
}

/// `1.0`, `0.5f32`, `1e-3`, `2.`, `3f64` — but not `1`, `x.len`, `a.b`.
fn is_float_literal(tok: &str) -> bool {
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let body = tok
        .strip_suffix("f32")
        .or_else(|| tok.strip_suffix("f64"))
        .map(|b| (b, true))
        .unwrap_or((tok, false));
    let (digits, had_suffix) = body;
    if digits.is_empty() {
        return false;
    }
    let has_dot = digits.contains('.');
    let has_exp = digits.contains('e') || digits.contains('E');
    let valid = digits
        .chars()
        .all(|c| c.is_ascii_digit() || c == '.' || c == '_' || c == 'e' || c == 'E' || c == '-');
    valid && (has_dot || has_exp || had_suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, src).into_iter().map(|f| f.rule).collect()
    }

    const LIB: &str = "crates/x/src/lib.rs";

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        assert_eq!(rules_hit(LIB, "unsafe { f() }"), vec!["safety_comment"]);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "// SAFETY: ptr is valid for the scope lifetime\nunsafe { f() }";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn safety_comment_lookback_window() {
        let mut src = String::from("// SAFETY: invariant\n");
        for _ in 0..SAFETY_LOOKBACK {
            src.push_str("let a = 1;\n");
        }
        src.push_str("unsafe { f() }\n");
        assert_eq!(rules_hit(LIB, &src), vec!["safety_comment"]);
    }

    #[test]
    fn long_contiguous_safety_block_passes() {
        // The SAFETY header may sit far above the `unsafe` keyword as long
        // as the comment block in between is unbroken.
        let mut src = String::from("// SAFETY: erasing the lifetime is sound because:\n");
        for i in 0..2 * SAFETY_LOOKBACK {
            src.push_str(&format!("// * invariant {i} holds\n"));
        }
        src.push_str("unsafe { f() }\n");
        assert!(rules_hit(LIB, &src).is_empty());
    }

    #[test]
    fn interrupted_comment_block_does_not_carry_safety() {
        let mut src = String::from("// SAFETY: stale justification\n");
        src.push_str("let a = 1;\n");
        for _ in 0..2 * SAFETY_LOOKBACK {
            src.push_str("// unrelated commentary\n");
        }
        src.push_str("unsafe { f() }\n");
        assert_eq!(rules_hit(LIB, &src), vec!["safety_comment"]);
    }

    #[test]
    fn unwind_safe_is_not_unsafe() {
        assert!(rules_hit(LIB, "catch_unwind(AssertUnwindSafe(|| 1));").is_empty());
    }

    #[test]
    fn unwrap_flagged_and_allow_marker_accepted() {
        assert_eq!(rules_hit(LIB, "let x = y.unwrap();"), vec!["no_unwrap"]);
        let with_marker =
            "// audit: allow(no_unwrap) — provably non-empty\nlet x = y.unwrap();";
        assert!(rules_hit(LIB, with_marker).is_empty());
        let same_line = "let x = y.unwrap(); // audit: allow(no_unwrap) reason";
        assert!(rules_hit(LIB, same_line).is_empty());
    }

    #[test]
    fn suppressed_findings_are_recorded_as_waivers() {
        let src = "// audit: allow(no_unwrap) — provably non-empty\nlet x = y.unwrap();";
        let lines = lex(src);
        let markers = MarkerSet::collect(&lines);
        let mut out = Outcome::default();
        line_rules(LIB, &lines, &markers, &mut out);
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers, vec![Waiver { rule: "no_unwrap", file: LIB.into(), line: 2 }]);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib() { z.unwrap(); }";
        let found = check_file(LIB, src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 5);
        assert_eq!(found[0].severity, Severity::Deny);
    }

    #[test]
    fn unwrap_in_tests_tree_is_exempt() {
        assert!(rules_hit("crates/x/tests/it.rs", "y.unwrap();").is_empty());
        assert!(rules_hit("tests/tests/e2e.rs", "y.unwrap();").is_empty());
    }

    #[test]
    fn unwrap_in_string_literal_is_ignored() {
        assert!(rules_hit(LIB, r#"let s = "don't .unwrap() me";"#).is_empty());
    }

    #[test]
    fn empty_expect_flagged_descriptive_expect_passes() {
        assert_eq!(rules_hit(LIB, r#"y.expect("");"#), vec!["empty_expect"]);
        assert!(rules_hit(LIB, r#"y.expect("queue lock poisoned");"#).is_empty());
    }

    #[test]
    fn panic_rule() {
        assert_eq!(rules_hit(LIB, r#"panic!("boom");"#), vec!["no_panic"]);
        assert!(rules_hit(LIB, r#"// panic! only in a comment"#).is_empty());
    }

    #[test]
    fn determinism_rule_and_exemptions() {
        let src = "let t = Instant::now();";
        assert_eq!(rules_hit(LIB, src), vec!["determinism"]);
        assert!(rules_hit("crates/parallel/src/lib.rs", "std::thread::spawn(f);").is_empty());
        assert!(rules_hit("crates/math/src/rng.rs", "thread_rng()").is_empty());
        assert!(rules_hit("crates/bench/src/bin/exp.rs", src).is_empty());
        // Only the clock module of the telemetry crate is exempt; the rest
        // of the crate must stay clock-free.
        assert!(rules_hit("crates/telemetry/src/clock.rs", src).is_empty());
        assert_eq!(rules_hit("crates/telemetry/src/lib.rs", src), vec!["determinism"]);
    }

    #[test]
    fn float_eq_rule() {
        assert_eq!(rules_hit(LIB, "if x == 1.0 {"), vec!["float_eq"]);
        assert_eq!(rules_hit(LIB, "if 0.5f32 != y {"), vec!["float_eq"]);
        assert_eq!(rules_hit(LIB, "if x == 1e-3 {"), vec!["float_eq"]);
        assert!(rules_hit(LIB, "if x == 1 {").is_empty());
        assert!(rules_hit(LIB, "if x <= 1.0 {").is_empty());
        assert!(rules_hit(LIB, "if x >= 1.0 {").is_empty());
        assert!(rules_hit(LIB, "if a.len() == b.len() {").is_empty());
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn lib() { y.unwrap(); }";
        assert_eq!(rules_hit(LIB, src), vec!["no_unwrap"]);
    }

    #[test]
    fn cfg_any_test_region_is_exempt() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod support {\n    fn t() { y.unwrap(); }\n}";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn serve_hygiene_bans_expect_and_asserts_in_serve_lib_code() {
        let serve = "crates/serve/src/engine.rs";
        assert_eq!(rules_hit(serve, r#"x.expect("queue lock poisoned");"#), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(serve, "assert!(ok);"), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(serve, "assert_eq!(a, b);"), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(serve, "assert_ne!(a, b);"), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(serve, "unreachable!()"), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(serve, "todo!()"), vec!["serve_hygiene"]);
        // Debug assertions compile out of release builds and stay legal.
        assert!(rules_hit(serve, "debug_assert!(ok);").is_empty());
    }

    #[test]
    fn serve_hygiene_bans_expect_and_asserts_in_core_entry_points() {
        let cube = "crates/core/src/cube.rs";
        assert_eq!(rules_hit(cube, "assert_eq!(a, b);"), vec!["serve_hygiene"]);
        assert_eq!(rules_hit(cube, "unimplemented!()"), vec!["serve_hygiene"]);
        // The entry points have one fallible form each: even a descriptive
        // expect is a finding.
        assert_eq!(
            rules_hit(cube, r#"self.try_new(c).expect("invalid cube configuration")"#),
            vec!["serve_hygiene"]
        );
        // Other core files are governed by the workspace-wide rules only.
        assert!(rules_hit("crates/core/src/train.rs", "assert!(ok);").is_empty());
    }

    #[test]
    fn serve_hygiene_exemptions_and_markers() {
        let serve = "crates/serve/src/engine.rs";
        // Test modules inside serve files stay free to assert.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { assert_eq!(1, 1); }\n}";
        assert!(rules_hit(serve, src).is_empty());
        // The driver binary is demo code, like the bench binaries.
        assert!(rules_hit("crates/serve/src/bin/mmhand-serve.rs", "assert!(ok);").is_empty());
        // A justified marker silences the rule per-site.
        let marked =
            "// audit: allow(serve_hygiene) — cfg(test)-gated helper module\nx.expect(\"m\");";
        assert!(rules_hit(serve, marked).is_empty());
    }

    #[test]
    fn hot_path_alloc_flags_allocations_in_designated_files() {
        let hot = "crates/nn/src/gemm.rs";
        assert_eq!(rules_hit(hot, "let b = vec![0.0; n];"), vec!["hot_path_alloc"]);
        assert_eq!(rules_hit(hot, "let b = Vec::with_capacity(n);"), vec!["hot_path_alloc"]);
        assert_eq!(rules_hit(hot, "let b = x.to_vec();"), vec!["hot_path_alloc"]);
        // Non-designated files may allocate freely.
        assert!(rules_hit(LIB, "let b = vec![0.0; n];").is_empty());
        assert!(rules_hit("crates/nn/src/tensor.rs", "let b = x.to_vec();").is_empty());
    }

    #[test]
    fn hot_path_alloc_exemptions() {
        let hot = "crates/dsp/src/fft.rs";
        // The pool-exempt marker justifies a site, above or on the line.
        let above = "// audit: pool-exempt — owned return value\nlet b = vec![0.0; n];";
        assert!(rules_hit(hot, above).is_empty());
        let same_line = "let s = x.to_vec(); // audit: pool-exempt — tiny shape vector";
        assert!(rules_hit(hot, same_line).is_empty());
        // A marker two lines up is out of range.
        let far = "// audit: pool-exempt\nlet a = 1;\nlet b = vec![0.0; n];";
        assert_eq!(rules_hit(hot, far), vec!["hot_path_alloc"]);
        // Test modules inside hot-path files stay free to allocate.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; }\n}";
        assert!(rules_hit(hot, test_src).is_empty());
        // An allocation mentioned in a comment is not a finding.
        assert!(rules_hit(hot, "// replaces the old vec![0.0; n] buffer").is_empty());
    }

    #[test]
    fn examples_are_panic_exempt_but_safety_checked() {
        assert!(rules_hit("examples/demo.rs", "y.unwrap();").is_empty());
        assert_eq!(
            rules_hit("examples/demo.rs", "unsafe { f() }"),
            vec!["safety_comment"]
        );
    }
}
