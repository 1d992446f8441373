//! Unsafe contracts: every `SAFETY:` comment names the invariant that makes
//! its `unsafe` sound, and every `unsafe fn` in library code has one.
//! Clippy's `undocumented_unsafe_blocks` wants the comment on blocks but
//! reads no word of it, and does not look at `unsafe fn`.
//!
//! The scratch pool's checkout discipline is rustc's: `ScratchPool::take`
//! and `put` are private, so `with` is the only checkout. The tests below
//! compile planted checkouts against `mmhand-parallel` to keep it so.

use crate::lexer::{library_code, strip_comment, word_matches};

/// Words a `SAFETY:` comment draws on to name what makes it sound: a bound,
/// a length, a lifetime, aliasing, alignment, initialisation or a detected
/// CPU feature, rather than "this is fine".
#[rustfmt::skip]
const INVARIANT_VOCABULARY: &[&str] = &[
    "caller must", "callers must", "bound", "in range", "length", "len()", "capacity", "valid",
    "lifetime", "alias", "align", "initial", "null", "exclusive", "no other", "detect",
    "baseline", "cpu", "feature", "sound", "invariant", "exact",
];

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The comment on `line` when its text starts with `SAFETY:`.
fn contract(line: &str) -> Option<&str> {
    let comment = &line[strip_comment(line).len()..];
    comment.trim_start_matches(['/', '!']).trim_start().starts_with("SAFETY:").then_some(comment)
}

/// Every safety contract names an invariant from the vocabulary, and every
/// `unsafe fn` in library code has one among the comment and attribute
/// lines directly above it.
pub fn safety_contracts(path: &str, src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, comment) in lines.iter().enumerate().filter_map(|(i, l)| Some((i, contract(l)?))) {
        let rest = lines[i + 1..].iter().take_while(|l| is_comment(l));
        let block: String = [comment].iter().chain(rest).map(|l| l.to_lowercase()).collect();
        if !INVARIANT_VOCABULARY.iter().any(|w| block.contains(w)) {
            out.push(format!("{path}:{}: `SAFETY:` names no invariant", i + 1));
        }
    }
    for (i, line) in library_code(path, src).lines().enumerate() {
        let header = |l: &&&str| is_comment(l) || l.trim_start().starts_with("#[");
        if word_matches(line, "unsafe fn ").next().is_some()
            && !lines[..i].iter().rev().take_while(header).any(|l| contract(l).is_some())
        {
            out.push(format!("{path}:{}: `unsafe fn` without a `SAFETY:` contract", i + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints;

    const LIB: &str = "crates/x/src/lib.rs";
    const SIMD: &str = "crates/kernels/src/simd.rs";

    fn pool_lints(body: &str) -> Vec<String> {
        let src = format!(
            "use mmhand_parallel::ScratchPool;\n\npub fn f(pool: &ScratchPool<f32>) {{\n{body}}}\n"
        );
        lints(&src, false, &["mmhand_parallel"])
    }

    #[test]
    fn structured_safety_contract_passes() {
        let src = "// SAFETY: caller must ensure `i < len`, so the access is in bounds\n\
                   unsafe { *p.add(i) }";
        assert_eq!(safety_contracts(LIB, src), [""; 0]);
        let kernel = "/// SAFETY: caller must detect AVX2.\n#[target_feature(enable = \"avx2\")]\n\
                      unsafe fn fast() {}\n";
        assert_eq!(safety_contracts(SIMD, kernel), [""; 0]);
    }

    #[test]
    fn unstructured_safety_contract_is_flagged() {
        let src = "// SAFETY: this is fine, trust me\nunsafe { *p.add(i) }";
        assert_eq!(safety_contracts(LIB, src), [format!("{LIB}:1: `SAFETY:` names no invariant")]);
        let kernel =
            "/// Doubles `x`.\n#[target_feature(enable = \"avx2\")]\nunsafe fn fast() {}\n";
        let found = safety_contracts(SIMD, kernel);
        assert_eq!(found, [format!("{SIMD}:3: `unsafe fn` without a `SAFETY:` contract")]);
    }

    #[test]
    fn missing_safety_comment_is_not_doubled_here() {
        // Clippy's `undocumented_unsafe_blocks` owns the missing comment.
        assert_eq!(safety_contracts(LIB, "unsafe { f() }"), [""; 0]);
    }

    #[test]
    fn cpu_feature_contract_is_structured() {
        let src = "// SAFETY: AVX2 detection succeeded before this value was built\n\
                   unsafe { gemm_4xn_avx2(a, b) }";
        assert_eq!(safety_contracts(LIB, src), [""; 0]);
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    unsafe fn helper() {}\n}\n";
        assert_eq!(safety_contracts(SIMD, src), [""; 0]);
        assert_eq!(safety_contracts("crates/x/tests/it.rs", "unsafe fn helper() {}\n"), [""; 0]);
    }

    #[test]
    fn balanced_pool_usage_passes() {
        assert_eq!(pool_lints("    pool.with(64, |buf| buf[0] = 1.0);\n"), [""; 0]);
    }

    #[test]
    fn leaked_checkout_is_flagged() {
        let found = pool_lints("    let buf = pool.take(64);\n    drop(buf);\n");
        assert_eq!(found, ["4: E0624"]);
    }

    #[test]
    fn double_return_is_flagged() {
        let body = "    let buf = pool.take(64);\n    pool.put(buf.clone());\n    pool.put(buf);\n";
        assert_eq!(pool_lints(body), ["4: E0624", "5: E0624", "6: E0624"]);
    }
}
