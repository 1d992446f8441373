//! # mmhand-telemetry
//!
//! A dependency-free observability substrate for the workspace: scoped
//! [`Span`]s (monotonic timing with an injectable [`Clock`]), [`Counter`]s,
//! [`Gauge`]s, and fixed-bucket [`Histogram`]s, all registered in one
//! process-global registry and exportable as JSON or Prometheus text
//! exposition.
//!
//! Design points:
//!
//! * **One global registry, cheap handles.** [`counter`], [`gauge`],
//!   [`histogram_with`] resolve a name to a shared handle once; the handle is a
//!   reference-counted pointer whose operations are single atomic
//!   instructions. Hot paths resolve their handles outside the loop.
//! * **No-op mode.** [`set_enabled`]`(false)` turns every *recording*
//!   operation into a single relaxed atomic load and branch, so
//!   instrumented code runs at effectively full speed with telemetry off.
//!   Spans still measure time when disabled — callers such as
//!   `MmHandPipeline` consume span durations as data (the `StageTiming`
//!   view) — but nothing is recorded into histograms.
//! * **Injectable clock.** Span timing reads the global [`Clock`], which
//!   defaults to [`clock::MonotonicClock`] and can be swapped for a
//!   [`clock::ManualClock`] in tests, keeping the workspace's determinism
//!   audit satisfied: wall-clock access lives in exactly one sanctioned
//!   module and durations never feed computation results.
//! * **Deterministic exposition.** [`snapshot`] returns metrics sorted by
//!   name, so the JSON and Prometheus dumps are stable across runs given
//!   the same recorded values.
//!
//! # Example
//!
//! ```
//! use mmhand_telemetry as telemetry;
//!
//! let calls = telemetry::counter("example.calls");
//! calls.inc();
//! let sp = telemetry::span("example.work");
//! // ... do work ...
//! let elapsed_ns = sp.finish();
//! let dump = telemetry::snapshot().to_json();
//! assert!(dump.contains("example.calls"));
//! let _ = elapsed_ns;
//! ```

pub mod clock;

use clock::Clock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

// ---------------------------------------------------------------------------
// Global switches: enabled flag and clock.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns metric recording on or off process-wide. Disabled telemetry is the
/// "no-op mode": every record path reduces to one relaxed load and a branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn global_clock() -> &'static RwLock<Arc<dyn Clock>> {
    static CLOCK: OnceLock<RwLock<Arc<dyn Clock>>> = OnceLock::new();
    CLOCK.get_or_init(|| RwLock::new(Arc::new(clock::MonotonicClock::new())))
}

/// Installs a custom clock (e.g. a [`clock::ManualClock`] in tests).
pub fn set_clock(c: Arc<dyn Clock>) {
    *global_clock().write().expect("telemetry clock lock") = c;
}

/// Restores the default monotonic clock.
pub fn use_monotonic_clock() {
    set_clock(Arc::new(clock::MonotonicClock::new()));
}

/// The current clock reading in nanoseconds.
#[inline]
pub fn now_ns() -> u64 {
    global_clock().read().expect("telemetry clock lock").now_ns()
}

// ---------------------------------------------------------------------------
// Metric handles.
// ---------------------------------------------------------------------------

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge. A no-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Bucket upper bounds, strictly increasing. An implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits and updated via CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Default span-duration buckets, in milliseconds.
pub const DURATION_MS_BUCKETS: &[f64] = &[
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
];

/// Default buckets for batch / fan-out sizes (powers of two).
pub const SIZE_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0,
];

impl Histogram {
    /// Records one observation. A no-op while telemetry is disabled.
    pub fn observe(&self, v: f64) {
        if !enabled() {
            return;
        }
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// A scoped timer. Created by [`span`]; on [`Span::finish`] (or drop) the
/// elapsed wall time is recorded, in milliseconds, into the histogram
/// registered under the span's name.
///
/// Spans always measure time — even in no-op mode — because callers consume
/// the duration as data (e.g. the pipeline's `StageTiming`); only the
/// histogram recording is suppressed when telemetry is disabled.
pub struct Span {
    hist: Histogram,
    start_ns: u64,
    finished: bool,
}

impl Span {
    /// Ends the span, records its duration, and returns the elapsed
    /// nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.finished = true;
        let elapsed = now_ns().saturating_sub(self.start_ns);
        self.hist.observe(elapsed as f64 / 1e6);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            let elapsed = now_ns().saturating_sub(self.start_ns);
            self.hist.observe(elapsed as f64 / 1e6);
        }
    }
}

/// Starts a [`Span`] whose duration is recorded into a
/// [`DURATION_MS_BUCKETS`] histogram named `name`.
pub fn span(name: &str) -> Span {
    let hist = histogram_with(name, DURATION_MS_BUCKETS);
    Span { hist, start_ns: now_ns(), finished: false }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Resolves (registering on first use) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().expect("telemetry counter registry");
    match map.get(name) {
        Some(c) => c.clone(),
        None => {
            let c = Counter(Arc::new(AtomicU64::new(0)));
            map.insert(name.to_string(), c.clone());
            c
        }
    }
}

/// Resolves (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().expect("telemetry gauge registry");
    match map.get(name) {
        Some(g) => g.clone(),
        None => {
            let g = Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())));
            map.insert(name.to_string(), g.clone());
            g
        }
    }
}

/// Resolves (registering on first use) the histogram named `name` with the
/// given bucket upper bounds. Bounds are fixed at registration: a later call
/// with different bounds returns the existing histogram unchanged.
pub fn histogram_with(name: &str, bounds: &[f64]) -> Histogram {
    let mut map = registry().histograms.lock().expect("telemetry histogram registry");
    match map.get(name) {
        Some(h) => h.clone(),
        None => {
            let n = bounds.len() + 1;
            let mut counts = Vec::with_capacity(n);
            counts.resize_with(n, || AtomicU64::new(0));
            let h = Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            }));
            map.insert(name.to_string(), h.clone());
            h
        }
    }
}

/// Resolves a histogram with the default [`SIZE_BUCKETS`] bounds.
pub fn size_histogram(name: &str) -> Histogram {
    histogram_with(name, SIZE_BUCKETS)
}

/// Zeroes every registered metric value (registrations are kept). Intended
/// for tests and for the bench runner to scope a dump to one experiment.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("telemetry counter registry").values() {
        c.0.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().expect("telemetry gauge registry").values() {
        g.0.store(0.0_f64.to_bits(), Ordering::Relaxed);
    }
    for h in reg.histograms.lock().expect("telemetry histogram registry").values() {
        for b in &h.0.counts {
            b.store(0, Ordering::Relaxed);
        }
        h.0.count.store(0, Ordering::Relaxed);
        h.0.sum_bits.store(0.0_f64.to_bits(), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Snapshots and exposition.
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts.len() == bounds.len()+1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the bucket counts: the upper bound of the
    /// bucket holding the `q`-th observation (`q` in `[0, 1]`). An
    /// observation in the overflow bucket reports the last finite bound.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let last = self.bounds.last().copied().unwrap_or(f64::INFINITY);
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(last);
            }
        }
        last
    }
}

/// Point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter rows.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge rows.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` histogram rows.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("telemetry counter registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("telemetry gauge registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("telemetry histogram registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.snapshot()))
        .collect();
    MetricsSnapshot { counters, gauges, histograms }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable representation.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Sanitizes a metric name into the Prometheus charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_';
        let ok_first = c.is_ascii_alphabetic() || c == '_';
        if (i == 0 && ok_first) || (i > 0 && ok) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl MetricsSnapshot {
    /// Serialises the snapshot as a JSON object with `counters`, `gauges`
    /// and `histograms` sections.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{}\": {}", json_escape(name), json_num(*v)));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_num(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            s.push_str(&format!(
                "\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {}}}",
                json_escape(name),
                bounds.join(", "),
                counts.join(", "),
                h.count,
                json_num(h.sum)
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Serialises the snapshot in the Prometheus text exposition format
    /// (cumulative `_bucket{le=…}` rows, `_sum`, `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", json_num(*v)));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds.iter().zip(&h.counts) {
                cumulative += count;
                s.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cumulative}\n", json_num(*bound)));
            }
            cumulative += h.counts.last().copied().unwrap_or(0);
            s.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            s.push_str(&format!("{n}_sum {}\n", json_num(h.sum)));
            s.push_str(&format!("{n}_count {}\n", h.count));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock::ManualClock;

    /// The registry and enabled flag are process-global; every test that
    /// mutates them runs under this lock to stay order-independent.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn histogram_quantiles_report_bucket_bounds() {
        let snap = HistogramSnapshot {
            bounds: vec![1.0, 5.0, 10.0],
            counts: vec![5, 4, 0, 1], // 10 observations, one in +Inf
            count: 10,
            sum: 40.0,
        };
        assert!((snap.quantile(0.5) - 1.0).abs() < 1e-12);
        assert!((snap.quantile(0.9) - 5.0).abs() < 1e-12);
        // The overflow observation reports the last finite bound.
        assert!((snap.quantile(0.99) - 10.0).abs() < 1e-12);
        let empty = HistogramSnapshot { bounds: vec![1.0], counts: vec![0, 0], count: 0, sum: 0.0 };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        let c = counter("t.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(counter("t.counter").get(), 5, "same handle by name");
        let g = gauge("t.gauge");
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = test_lock();
        reset();
        set_enabled(false);
        let c = counter("t.noop");
        c.inc();
        let g = gauge("t.noop_gauge");
        g.set(9.0);
        let h = histogram_with("t.noop_hist", &[1.0, 2.0]);
        h.observe(1.5);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert!(g.get().abs() < 1e-12);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        let h = histogram_with("t.hist", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 5.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 560.5).abs() < 1e-9);
        assert!((snap.mean() - 112.1).abs() < 1e-9);
    }

    #[test]
    fn span_durations_come_from_the_injected_clock() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        let manual = Arc::new(ManualClock::new(0));
        set_clock(manual.clone());
        let sp = span("t.span");
        manual.advance_ns(3_000_000); // 3 ms
        let elapsed = sp.finish();
        use_monotonic_clock();
        assert_eq!(elapsed, 3_000_000);
        let snap = snapshot();
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "t.span")
            .expect("span histogram registered");
        assert_eq!(h.count, 1);
        assert!((h.sum - 3.0).abs() < 1e-9, "3 ms recorded, got {}", h.sum);
    }

    #[test]
    fn span_records_on_drop() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        let manual = Arc::new(ManualClock::new(0));
        set_clock(manual.clone());
        {
            let _sp = span("t.drop_span");
            manual.advance_ns(1_000_000);
        }
        use_monotonic_clock();
        let h = histogram_with("t.drop_span", DURATION_MS_BUCKETS);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_still_times_when_disabled() {
        let _g = test_lock();
        reset();
        set_enabled(false);
        let manual = Arc::new(ManualClock::new(0));
        set_clock(manual.clone());
        let sp = span("t.disabled_span");
        manual.advance_ns(2_000_000);
        let elapsed = sp.finish();
        use_monotonic_clock();
        set_enabled(true);
        assert_eq!(elapsed, 2_000_000, "duration is still measured");
        let h = histogram_with("t.disabled_span", DURATION_MS_BUCKETS);
        assert_eq!(h.count(), 0, "but nothing is recorded");
    }

    #[test]
    fn json_exposition_is_valid_and_sorted() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        counter("t.json.b").inc();
        counter("t.json.a").add(2);
        gauge("t.json.g").set(1.25);
        histogram_with("t.json.h", &[1.0]).observe(0.5);
        let snap = snapshot();
        let a = snap.counters.iter().position(|(n, _)| n == "t.json.a");
        let b = snap.counters.iter().position(|(n, _)| n == "t.json.b");
        assert!(a < b, "counters sorted by name");
        let json = snap.to_json();
        assert!(json.contains("\"t.json.a\": 2"));
        assert!(json.contains("\"t.json.g\": 1.25"));
        assert!(json.contains("\"count\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        let h = histogram_with("t.prom.h", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        counter("t.prom.c").add(7);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE t_prom_h histogram"));
        assert!(text.contains("t_prom_h_bucket{le=\"1\"} 1"));
        assert!(text.contains("t_prom_h_bucket{le=\"10\"} 2"));
        assert!(text.contains("t_prom_h_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("t_prom_h_count 3"));
        assert!(text.contains("# TYPE t_prom_c counter"));
        assert!(text.contains("t_prom_c 7"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn prom_name_sanitises() {
        assert_eq!(prom_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(prom_name("9lives"), "_lives");
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _g = test_lock();
        reset();
        set_enabled(true);
        counter("t.reset.c").add(3);
        reset();
        assert_eq!(counter("t.reset.c").get(), 0);
        assert!(snapshot().counters.iter().any(|(n, _)| n == "t.reset.c"));
    }
}
