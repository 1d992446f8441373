//! Waivers are `#[expect(clippy::…, reason = "…")]` attributes: rustc
//! checks that each still suppresses something (`unfulfilled_lint_expectations`),
//! and this module that the clock and thread waivers stay where the
//! determinism boundary allows them.

use crate::lexer::{library_code, line_of, word_matches};

/// Library code that may read the wall clock or spawn threads, each site
/// under a `clippy::disallowed_methods` waiver: telemetry's clock module
/// and the experiment and load-generator binaries. Test code may too.
const CLOCK_AND_THREAD_SITES: &[&str] =
    &["crates/telemetry/src/clock.rs", "crates/bench/src/bin/", "crates/loadgen/src/bin/"];

/// A `clippy::disallowed_methods` waiver in library code outside the
/// clock module and the experiment and load-generator binaries.
pub fn determinism_waivers(path: &str, src: &str) -> Vec<String> {
    if CLOCK_AND_THREAD_SITES.iter().any(|site| path.starts_with(site)) {
        return Vec::new();
    }
    let code = library_code(path, src);
    let waivers = word_matches(&code, "clippy::disallowed_methods");
    waivers.map(|at| format!("{path}:{}: clock or thread waiver", line_of(&code, at))).collect()
}

#[cfg(test)]
mod tests {
    use crate::lints;

    #[test]
    fn allow_marker_is_parsed_with_rule_name() {
        let src = "#[expect(clippy::unwrap_used, reason = \"checked above\")]\n\
                   pub fn f(y: Option<u8>) -> u8 {\n    if y.is_none() {\n        \
                   panic!()\n    }\n    y.unwrap()\n}\n";
        assert_eq!(lints(src, false, &[]), ["4: clippy::panic"]);
    }

    #[test]
    fn same_line_and_line_above_both_grant() {
        let waiver = "#[expect(clippy::unwrap_used, reason = \"non-empty\")]";
        let above = format!("{waiver}\npub fn f(y: Option<u8>) -> u8 {{\n    y.unwrap()\n}}\n");
        assert_eq!(lints(&above, false, &[]), [""; 0]);
        let same_line = format!(
            "pub fn f(y: Option<u8>) -> u8 {{\n    {waiver} let x = y.unwrap();\n    x\n}}\n"
        );
        assert_eq!(lints(&same_line, false, &[]), [""; 0]);
        // A waiver holds for its own item or statement only.
        let elsewhere = format!(
            "pub fn f(y: Option<u8>) -> u8 {{\n    {waiver} let a = 1;\n    y.unwrap() + a\n}}\n"
        );
        assert_eq!(
            lints(&elsewhere, false, &[]),
            ["2: unfulfilled_lint_expectations", "3: clippy::unwrap_used"]
        );
    }

    #[test]
    fn doc_comment_examples_are_not_markers() {
        let src = "//! `#[expect(clippy::panic)]` waives a panic.\n\n\
                   /// #[expect(clippy::unwrap_used, reason = \"quoted\")]\n\
                   pub fn f(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n";
        assert_eq!(lints(src, false, &[]), ["5: clippy::unwrap_used"]);
    }

    #[test]
    fn usage_tracking_feeds_stale_detection() {
        let src = "#[expect(clippy::unwrap_used, reason = \"non-empty\")]\n\
                   pub fn f(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n\n\
                   #[expect(clippy::panic, reason = \"nothing here panics\")]\npub fn g() {}\n";
        assert_eq!(lints(src, false, &[]), ["6: unfulfilled_lint_expectations"]);
    }
}
