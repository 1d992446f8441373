//! Line-level reading of Rust text for the source rules: `//` comments are
//! stripped and string literals kept as they are. There are no tokens;
//! block comments and raw strings read as code, which no rule here trips on.

/// One line without its `//` comment; a `//` inside a string stays, and
/// the char literal `'"'` opens no string.
pub fn strip_comment(line: &str) -> &str {
    let (mut in_str, mut escaped, mut prev) = (false, false, ' ');
    for (i, c) in line.char_indices() {
        match c {
            '"' if escaped || (prev == '\'' && line[i + 1..].starts_with('\'')) => {}
            '"' => in_str = !in_str,
            '/' if !in_str && prev == '/' => return &line[..i - 1],
            _ => {}
        }
        escaped = c == '\\' && !escaped;
        prev = c;
    }
    line
}

/// `src` without `//` comments, line for line.
pub fn code(src: &str) -> String {
    src.lines().map(strip_comment).collect::<Vec<_>>().join("\n")
}

/// [`code`] cut at the first `#[cfg(test)]`, where every file keeps its
/// unit tests; empty for the test trees (`tests/`, `benches/`).
pub fn library_code(path: &str, src: &str) -> String {
    if path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/") {
        return String::new();
    }
    let mut code = code(src);
    code.truncate(code.find("#[cfg(test)]").unwrap_or(code.len()));
    code
}

/// Byte offsets of `pat` in `text` where it is a whole word: `assert!`
/// does not match inside `debug_assert!`, nor `unsafe` inside `unsafely`.
pub fn word_matches<'a>(text: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let open_end = pat.ends_with(ident);
    text.match_indices(pat).map(|(at, _)| at).filter(move |&at| {
        let joined_after = open_end && text[at + pat.len()..].starts_with(ident);
        !(text[..at].ends_with(ident) || joined_after)
    })
}

/// The 1-based line of byte offset `at`.
pub fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_stripped() {
        let src = "let x = 1; // trailing note\n// full line\nlet y = 2;";
        let lines: Vec<&str> = src.lines().collect();
        assert_eq!(strip_comment(lines[0]).trim_end(), "let x = 1;");
        assert_eq!(&lines[0][strip_comment(lines[0]).len()..], "// trailing note");
        assert_eq!(strip_comment(lines[1]).trim(), "");
        assert_eq!(code(src), "let x = 1; \n\nlet y = 2;");
    }

    #[test]
    fn empty_string_is_visible_to_rules() {
        assert!(code(r#"x.expect("");"#).contains(r#"expect("")"#));
    }

    #[test]
    fn escaped_quote_does_not_terminate_string() {
        let line = r#"let s = "a\"b // c"; let t = 1; // note"#;
        assert_eq!(strip_comment(line), r#"let s = "a\"b // c"; let t = 1; "#);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_derail_lexing() {
        let line = r"let c = '\''; let next = 1; // note";
        assert!(strip_comment(line).contains("let next = 1;"));
        assert_eq!(&line[strip_comment(line).len()..], "// note");
    }

    #[test]
    fn comment_markers_inside_strings_stay_strings() {
        let line = r#"let s = "// not a comment /* nor this */"; f();"#;
        assert_eq!(strip_comment(line), line);
        assert!(code(line).contains("f();"));
    }

    #[test]
    fn char_literal_with_quote_and_slashes() {
        // The quote inside the char literal must not open a string.
        let line = "let q = '\"'; let s = '/'; y.unwrap(); // c";
        assert!(strip_comment(line).contains("unwrap"));
        assert_eq!(&line[strip_comment(line).len()..], "// c");
    }

    #[test]
    fn identifier_ending_in_b_is_not_byte_string() {
        let line = r#"grab"text"; y.unwrap(); // c"#;
        assert!(strip_comment(line).contains("grab"));
        assert!(strip_comment(line).contains("unwrap"));
        assert_eq!(&line[strip_comment(line).len()..], "// c");
    }

    #[test]
    fn identifier_starting_with_r_is_not_raw_string() {
        let code = code("let rate = r2d2 + r; unwrap() // c");
        assert!(code.contains("unwrap"));
        assert!(code.contains("rate"));
        assert!(!code.contains("// c"));
    }

    #[test]
    fn word_boundary_matching() {
        let found = |text, pat| word_matches(text, pat).next().is_some();
        assert!(found("unsafe {", "unsafe"));
        assert!(found("x = unsafe{f()}", "unsafe"));
        assert!(!found("AssertUnwindSafe", "unsafe"));
        assert!(!found("my_unsafe_helper", "unsafe"));
        assert!(!found("unsafely", "unsafe"));
        assert!(!found("debug_assert!(ok)", "assert!"));
        assert!(found("unsafe fn fast()", "unsafe fn "));
    }

    #[test]
    fn cfg_test_attribute_survives_in_code() {
        let src = "fn lib() {}\n#[cfg(test)] // unit tests\nmod tests {";
        let lines: Vec<String> = code(src).lines().map(String::from).collect();
        assert_eq!(lines[1].trim_end(), "#[cfg(test)]");
        assert!(lines[2].contains("mod tests"));
        assert_eq!(library_code("crates/x/src/lib.rs", src), "fn lib() {}\n");
        assert_eq!(library_code("crates/x/tests/it.rs", src), "");
    }
}
