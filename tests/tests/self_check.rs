//! The source rules hold on the workspace that ships them, and a planted
//! violation of each rule is caught: by a source rule, by clippy under the
//! workspace lint table, or by rustc.
//! Clippy's and rustc's verdicts on the workspace itself are CI's clippy
//! job (`cargo clippy --workspace --all-targets -- -D warnings`).

use mmhand_integration::metrics::{metric_sites, registry_violations, Site};
use mmhand_integration::{graph, lints, marker, passes, read, rules, rust_sources};

#[test]
fn workspace_is_clean_under_every_rule() {
    let sources = rust_sources();
    assert!(sources.len() > 100, "only {} Rust files found: wrong root?", sources.len());
    let (mut violations, mut sites) = (Vec::new(), Vec::new());
    for (path, src) in &sources {
        sites.extend(metric_sites(path, src));
        violations.extend(passes::safety_contracts(path, src));
        violations.extend(graph::target_feature_outside_kernels(path, src));
        violations.extend(rules::panic_hygiene(path, src));
        violations.extend(marker::determinism_waivers(path, src));
    }
    assert!(sites.len() > 50, "only {} metric sites found", sites.len());
    violations.extend(registry_violations(&sites, &read("docs/METRICS.md")));
    let workspace = read("Cargo.toml");
    let manifests = rules::member_manifests(&workspace);
    assert!(manifests.len() > 10, "only {} member manifests found", manifests.len());
    for path in &manifests {
        violations.extend(rules::lint_table_violations(path, &read(path), &workspace));
    }
    assert!(violations.is_empty(), "source rule violations:\n{}", violations.join("\n"));
}

#[test]
fn a_clean_report_is_not_vacuous() {
    let bad = "pub fn f(x: Option<u32>) -> u32 { if 0.1f32 == 0.2 { panic!() } x.unwrap() }\n";
    let found = lints(bad, false, &[]);
    assert_eq!(found, ["1: clippy::float_cmp", "1: clippy::panic", "1: clippy::unwrap_used"]);
}

const FAKE: &str = "crates/fake/src/lib.rs";

#[test]
fn injected_unstructured_safety_comment_is_caught() {
    let src = "fn f(p: *const u32) -> u32 {\n    // SAFETY: trust me, this always works\n\
               \x20   unsafe { *p }\n}\n";
    let found = passes::safety_contracts(FAKE, src);
    assert_eq!(found, [format!("{FAKE}:2: `SAFETY:` names no invariant")]);
}

#[test]
fn injected_target_feature_fn_outside_kernels_is_caught() {
    let src =
        "#[target_feature(enable = \"avx2\")]\nunsafe fn fast(x: &mut [f32]) { x[0] = 1.0; }\n";
    let found = graph::target_feature_outside_kernels(FAKE, src);
    assert_eq!(found, [format!("{FAKE}:1: `#[target_feature]` outside kernels")]);
}

#[test]
fn injected_unguarded_call_into_simd_kernel_is_caught() {
    // simd.rs's kernels are private to it, so another module of the
    // kernels crate cannot reach one past `SimdKernels::detect`.
    let src = "mod simd {\n    #[cfg_attr(target_arch = \"x86_64\", \
               target_feature(enable = \"avx2\"))]\n    unsafe fn fast(x: &mut [f32]) {\n        \
               x[0] = 1.0;\n    }\n}\n\npub fn sneaky(x: &mut [f32]) {\n    \
               // SAFETY: caller must have checked AVX2 (it did not)\n    \
               unsafe { simd::fast(x) };\n}\n";
    assert_eq!(lints(src, false, &[]), ["10: E0603"]);
}

#[test]
fn injected_leaked_pool_checkout_is_caught() {
    let src = "pub fn run(pool: &mmhand_parallel::ScratchPool<f32>) -> usize {\n    \
               let buf = pool.take(64);\n    buf.len()\n}\n";
    assert_eq!(lints(src, false, &["mmhand_parallel"]), ["2: E0624"]);
}

fn registry(files: &[(&str, &str)], docs: &str) -> Vec<String> {
    let sites: Vec<Site> = files.iter().flat_map(|(path, src)| metric_sites(path, src)).collect();
    registry_violations(&sites, docs)
}

#[test]
fn injected_undocumented_metric_is_caught() {
    let src = "fn f() { mmhand_telemetry::counter(\"fake.requests\").inc(); }\n";
    assert_eq!(
        registry(&[(FAKE, src)], "# Metrics\n\n`some.other.metric`\n"),
        [
            format!("{FAKE}:1: `fake.requests` is missing from docs/METRICS.md"),
            "docs/METRICS.md: `some.other.metric` is recorded by no code".into(),
        ]
    );
}

#[test]
fn injected_near_miss_metric_names_are_caught() {
    let a = "fn f() { mmhand_telemetry::counter(\"fake.request\").inc(); }\n";
    let b = "fn g() { mmhand_telemetry::counter(\"fake.requests\").inc(); }\n";
    let found = registry(
        &[("crates/fake/src/a.rs", a), ("crates/fake/src/b.rs", b)],
        "`fake.request` `fake.requests`\n",
    );
    assert_eq!(
        found,
        ["crates/fake/src/b.rs:1: `fake.requests` is one edit from `fake.request`, a typo?"]
    );
}

#[test]
fn injected_stale_marker_is_caught() {
    let src = "#[expect(clippy::unwrap_used, reason = \"nothing here unwraps\")]\npub fn f() {}\n";
    assert_eq!(lints(src, false, &[]), ["1: unfulfilled_lint_expectations"]);
}
