//! SIMD dispatch: `#[target_feature]` fns live only in `mmhand-kernels`.
//! Inside it, rustc's privacy keeps them behind the AVX2 check: they are
//! private to `simd.rs`, and `SimdKernels` has a private field, so only
//! `SimdKernels::detect`, after it has seen AVX2, builds one.

use crate::lexer::code;

/// `#[target_feature]` outside `crates/kernels/`.
pub fn target_feature_outside_kernels(path: &str, src: &str) -> Vec<String> {
    let code = if path.starts_with("crates/kernels/") { String::new() } else { code(src) };
    let lines = code.lines().enumerate();
    let lines = lines.filter(|(_, l)| l.trim_start().starts_with("#[target_feature"));
    lines.map(|(i, _)| format!("{path}:{}: `#[target_feature]` outside kernels", i + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lints, read};

    const SIMD: &str =
        "#[target_feature(enable = \"avx2\")]\nunsafe fn kern_avx2(x: &mut [f32]) {}\n";

    #[test]
    fn tf_outside_kernels_is_flagged() {
        let found = target_feature_outside_kernels("crates/dsp/src/fft.rs", SIMD);
        assert_eq!(found, ["crates/dsp/src/fft.rs:1: `#[target_feature]` outside kernels"]);
        assert_eq!(target_feature_outside_kernels("crates/kernels/src/simd.rs", SIMD), [""; 0]);
        let quoted = "// #[target_feature(enable = \"avx2\")]\n";
        assert_eq!(target_feature_outside_kernels("crates/dsp/src/fft.rs", quoted), [""; 0]);
    }

    #[test]
    fn unguarded_construction_of_guarded_type_is_flagged() {
        // The struct as simd.rs declares it, built outside its module.
        let simd = read("crates/kernels/src/simd.rs");
        let decl = &simd[simd.find("pub(crate) struct SimdKernels {").expect("SimdKernels")..];
        let decl = &decl[..=decl.find('}').expect("a braced struct")];
        assert_eq!(decl.lines().count(), 3, "one field, private:\n{decl}");
        let field = decl.lines().nth(1).expect("the field").trim();
        let src = format!(
            "mod simd {{\n{decl}\n}}\n\npub fn sneaky() {{\n    \
             let _k = simd::SimdKernels {{ {field} }};\n}}\n"
        );
        assert_eq!(lints(&src, false, &[]), ["8: E0451"]);
    }
}
