//! The metric registry: every name the library code registers is unique
//! per kind, free of distance-1 near misses, and listed in
//! `docs/METRICS.md`, which lists nothing else.

use crate::lexer::{library_code, line_of, word_matches};
use std::collections::{BTreeMap, BTreeSet};

/// Calls that register a metric by name, with its kind. A span records
/// into a histogram of its name, so it shares that namespace.
const RESOLVERS: &[(&str, &str)] = &[
    ("counter(", "counter"),
    ("gauge(", "gauge"),
    ("histogram_with(", "histogram"),
    ("size_histogram(", "histogram"),
    ("span(", "histogram"),
];

/// `(name, kind, "path:line")` of one metric registration.
pub type Site = (String, &'static str, String);

/// A metric name with each `{…}` format segment read as `*`, if it is one:
/// dot-separated segments of lowercase letters, digits, `_` and `*`.
fn metric_name(raw: &str) -> Option<String> {
    let mut name = String::new();
    for (i, part) in raw.split('{').enumerate() {
        if i > 0 {
            name.push('*');
        }
        name.push_str(if i > 0 { part.split_once('}')?.1 } else { part });
    }
    let segment = |s: &str| {
        !s.is_empty() && s.chars().all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_' | '*'))
    };
    (name.contains('.') && name.split('.').all(segment)).then_some(name)
}

/// Every metric the library code of one file registers by a literal name
/// or a `&format!` template, which may start on the next line. The
/// telemetry crate's own calls are the resolvers themselves.
pub fn metric_sites(path: &str, src: &str) -> Vec<Site> {
    if path.starts_with("crates/telemetry/") {
        return Vec::new();
    }
    let code = library_code(path, src);
    let mut out = Vec::new();
    for &(pat, kind) in RESOLVERS {
        for at in word_matches(&code, pat) {
            let rest = code[at + pat.len()..].trim_start();
            let rest = rest.strip_prefix("&format!(").map_or(rest, str::trim_start);
            let Some(literal) = rest.strip_prefix('"') else { continue };
            if let Some(name) = literal.split('"').next().and_then(metric_name) {
                out.push((name, kind, format!("{path}:{}", line_of(&code, at))));
            }
        }
    }
    out
}

/// `true` when one substitution, insertion or deletion turns `a` into `b`.
fn distance_one(a: &str, b: &str) -> bool {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > 1 || short == long {
        return false;
    }
    let p = short.iter().zip(&long).take_while(|(x, y)| x == y).count();
    short[p + usize::from(short.len() == long.len())..] == long[p + 1..]
}

/// Kind conflicts, near-miss pairs and mismatches with the docs, both ways.
pub fn registry_violations(sites: &[Site], docs: &str) -> Vec<String> {
    let mut registry: BTreeMap<&str, (&str, &str)> = BTreeMap::new();
    let mut out = Vec::new();
    for (name, kind, site) in sites {
        let (first_kind, first) = *registry.entry(name).or_insert((kind, site));
        if first_kind != *kind {
            out.push(format!("{site}: `{name}` is a {kind} here but a {first_kind} at {first}"));
        }
    }
    let names: Vec<&str> = registry.keys().copied().collect();
    for (i, a) in names.iter().enumerate() {
        for b in names[i + 1..].iter().filter(|b| distance_one(a, b)) {
            out.push(format!("{}: `{b}` is one edit from `{a}`, a typo?", registry[b].1));
        }
    }
    let documented: BTreeSet<String> = docs
        .lines()
        .flat_map(|l| l.split('`').skip(1).step_by(2))
        .filter_map(metric_name)
        .collect();
    for (name, (_, site)) in registry.iter().filter(|(n, _)| !documented.contains(**n)) {
        out.push(format!("{site}: `{name}` is missing from docs/METRICS.md"));
    }
    for name in documented.iter().filter(|n| !registry.contains_key(n.as_str())) {
        out.push(format!("docs/METRICS.md: `{name}` is recorded by no code"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/x/src/lib.rs";

    fn check(src: &str, docs: &str) -> Vec<String> {
        registry_violations(&metric_sites(LIB, src), docs)
    }

    #[test]
    fn direct_names_are_extracted_with_kinds() {
        let src = "fn f() {\n    telemetry::counter(\"pool.hits\").inc();\n    \
                   telemetry::gauge(\"pool.hit_rate\").set(0.5);\n    \
                   telemetry::span(\"serve.step\");\n}";
        let got: Vec<(String, &str)> =
            metric_sites(LIB, src).into_iter().map(|(name, kind, _)| (name, kind)).collect();
        let want =
            [("pool.hits", "counter"), ("pool.hit_rate", "gauge"), ("serve.step", "histogram")];
        assert_eq!(got, want.map(|(n, k)| (n.to_string(), k)));
    }

    #[test]
    fn format_templates_normalize_to_star() {
        let src = "fn f(i: usize) {\n    t::counter(&format!(\"parallel.worker.{i}.tasks\"));\n}";
        assert_eq!(metric_sites(LIB, src)[0].0, "parallel.worker.*.tasks");
    }

    #[test]
    fn multi_line_format_call_is_resolved() {
        // The one template that spans lines today, at dsp/src/fft.rs.
        let src = "fn f() {\n    t::size_histogram(&format!(\n        \"dsp.fft.points.{}\",\n\
                   \x20       backend()\n    ));\n}";
        let site = ("dsp.fft.points.*".into(), "histogram", format!("{LIB}:2"));
        assert_eq!(metric_sites(LIB, src), [site]);
    }

    #[test]
    fn test_regions_and_non_metric_strings_are_skipped() {
        let src = "// counter(\"a.comment\")\nfn f(n: &str) { other(\"not a metric\"); \
                   drop_span(\"a.b\"); t::counter(\"Not.A.Metric\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { t::counter(\"test.only\"); }\n}\n";
        assert!(metric_sites(LIB, src).is_empty());
        let tests_tree = "fn f() { t::counter(\"it.only\"); }\n";
        assert!(metric_sites("tests/tests/it.rs", tests_tree).is_empty());
    }

    #[test]
    fn pass_through_variables_are_unresolvable_not_wrong() {
        assert!(metric_sites(LIB, "fn f(name: &str) {\n    t::counter(name);\n}").is_empty());
    }

    #[test]
    fn kind_conflict_is_flagged() {
        let src = "fn f() {\n    t::counter(\"a.b\");\n    t::gauge(\"a.b\");\n}";
        assert_eq!(
            check(src, "- `a.b`"),
            [format!("{LIB}:3: `a.b` is a gauge here but a counter at {LIB}:2")]
        );
    }

    #[test]
    fn near_miss_typo_is_flagged() {
        let src = "fn f() {\n    t::counter(\"pool.hits\");\n    t::counter(\"pool.hitz\");\n}";
        let found = check(src, "- `pool.hits`\n- `pool.hitz`");
        assert_eq!(found, [format!("{LIB}:3: `pool.hitz` is one edit from `pool.hits`, a typo?")]);
    }

    #[test]
    fn undocumented_and_stale_doc_entries() {
        let found = check("fn f() {\n    t::counter(\"a.fresh\");\n}", "- `a.stale` — a gauge\n");
        assert_eq!(
            found,
            [
                format!("{LIB}:2: `a.fresh` is missing from docs/METRICS.md"),
                "docs/METRICS.md: `a.stale` is recorded by no code".into(),
            ]
        );
    }

    #[test]
    fn levenshtein_distance_one() {
        assert!(distance_one("pool.hits", "pool.hitz"));
        assert!(distance_one("pool.hits", "pool.hit"));
        assert!(distance_one("pool.hit", "pool.hits"));
        assert!(!distance_one("pool.hits", "pool.hits"));
        assert!(!distance_one("pool.hits", "pool.misses"));
        assert!(!distance_one("a.b", "a.bcd"));
    }
}
