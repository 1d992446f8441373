//! The result of one run: named metrics with units, the correctness verdict,
//! the environment stamp, and their rendering.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (printed by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed by traced runs).
    pub per_layer: Vec<Metric>,
    /// Work units attempted in the measured window.
    pub attempted: u64,
    /// Work units that failed (rejected, lost, or an error).
    pub failed: u64,
    /// Failed correctness checks, empty when the outputs were right.
    pub check_failures: Vec<String>,
    /// Output hashes, recorded but not gated.
    pub output_hashes: Vec<(&'static str, u64)>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final result line: `correct`, `attempted`, `failed`, and the
    /// traced or untraced metric set.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(body, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// FNV-1a over f32 bit patterns: a cheap, order-sensitive output hash.
pub fn hash_f32s<'a>(h: &mut u64, values: impl IntoIterator<Item = &'a f32>) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The FNV-1a offset basis, the starting value for [`hash_f32s`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was built from, read from `.git` when present.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// The environment stamp printed with every result.
pub fn environment(workload: &str, seed: u64, precision: &str, frames_per_window: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"commit\": \"{}\", \"cpu\": \"{}\", \
         \"nproc\": {nproc}, \"mmhand_threads\": {}, \"kernel_backend\": \"{}\", \
         \"precision\": \"{precision}\", \"frames_per_window\": {frames_per_window}}}",
        commit(),
        cpu_model().replace('"', "'"),
        mmhand_parallel::num_threads(),
        mmhand_kernels::backend_name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.e2e("latency_ms_p50", 1.25, "ms");
        r.layer("cube.frame_ms", 0.5, "ms");
        r.attempted = 10;
        let line = r.result_json(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, "bad");
        assert!(r.result_json(true).starts_with("{\"correct\": false"));
        assert!(r.result_json(true).contains("cube.frame_ms"));
    }
}
