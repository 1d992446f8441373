//! mmHand benchmark: three single-process workloads on the full-scale cube
//! and model, each with an untraced run for end-to-end metrics and a traced
//! run for per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live|serve|train --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). A failed correctness check exits 1.

mod fixtures;
mod live;
mod report;
mod serve;
mod stats;
mod train;

use mmhand_telemetry as telemetry;
use report::Report;
use std::process::ExitCode;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// End-to-end metrics every untraced run prints, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [&str; 6] =
    ["setup_s", "latency_ms_p50", "latency_ms_tail", "throughput_per_s", "on_time_ratio", "peak_rss_mb"];

/// Per-layer metrics every traced run prints, as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 34] = [
    "cube.frame_ms",
    "cube.segment_ms",
    "dsp.filter_ms",
    "dsp.range_fft_ms",
    "dsp.doppler_fft_ms",
    "dsp.zoom_dft_ms",
    "model.spacenet_ms",
    "model.temporal_ms",
    "model.predict_ms",
    "model.tape_overhead_ms",
    "model.param_bytes",
    "mesh.reconstruct_ms",
    "mesh.lbs_ms",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p99",
    "serve.poll_ms",
    "serve.batch_occupancy",
    "serve.frames_rejected_ratio",
    "serve.idle_poll_ratio",
    "serve.generator_lag_ms_p99",
    "serve.miss_ratio",
    "wire.bytes_per_frame",
    "wire.client_encode_ms",
    "wire.client_decode_ms",
    "net.poll_overhead_ms",
    "train.forward_ms",
    "train.backward_ms",
    "train.optimizer_ms",
    "train.fwd_bwd_span_ms",
    "train.optimizer_span_ms",
    "parallel.offload_ratio",
    "pool.misses_per_frame",
    "layer_coverage",
    "tracing_overhead_pct",
];

/// Parsed command line.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["live", "serve", "train"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (live, serve, train)"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(RunConfig { workload, seed, seconds, trace })
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeps the last state, and reports
/// the median wall time as `setup_s`.
fn timed_setup<T>(r: &mut Report, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = fixtures::now_ms();
        state = Some(setup()?);
        times.push(fixtures::ms_since(t) / 1e3);
    }
    r.e2e("setup_s", stats::median(&times), "s");
    state.ok_or_else(|| "no set-up ran".to_string())
}

/// Pool-level per-layer metrics from the traced phase's telemetry.
pub fn parallel_metrics(r: &mut Report, snap: &telemetry::MetricsSnapshot) {
    let count = |name: &str| {
        snap.counters.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v as f64)
    };
    let worker_tasks: f64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("parallel.worker.") && n.ends_with(".tasks"))
        .map(|(_, v)| *v as f64)
        .sum();
    let spawned = count("parallel.tasks_spawned");
    r.layer("parallel.offload_ratio", if spawned > 0.0 { worker_tasks / spawned } else { 0.0 }, "ratio");
    let frames = count("core.frames_processed");
    r.layer("pool.misses_per_frame", if frames > 0.0 { count("pool.misses") / frames } else { 0.0 }, "count");
}

/// Mean milliseconds of a telemetry span over the traced phase.
pub fn span_mean_ms(snap: &telemetry::MetricsSnapshot, name: &str) -> f64 {
    snap.histograms.iter().find(|(n, _)| n == name).map_or(0.0, |(_, h)| h.mean())
}

/// Sum of milliseconds of a telemetry span over the traced phase.
pub fn span_total_ms(snap: &telemetry::MetricsSnapshot, name: &str) -> f64 {
    snap.histograms.iter().find(|(n, _)| n == name).map_or(0.0, |(_, h)| h.sum)
}

/// The per-frame DSP stage replays.
pub fn dsp_layers(r: &mut Report, dsp: &fixtures::DspReplay) {
    r.layer("dsp.filter_ms", dsp.filter.mean(), "ms");
    r.layer("dsp.range_fft_ms", dsp.range_fft.mean(), "ms");
    r.layer("dsp.doppler_fft_ms", dsp.doppler_fft.mean(), "ms");
    r.layer("dsp.zoom_dft_ms", dsp.zoom_dft.mean(), "ms");
}

/// Serve, wire and net layers on a workload without a server: zero.
pub fn absent_serve_layers(r: &mut Report) {
    for (name, unit) in [
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p99", "ms"),
        ("serve.poll_ms", "ms"),
        ("serve.batch_occupancy", "count"),
        ("serve.frames_rejected_ratio", "ratio"),
        ("serve.idle_poll_ratio", "ratio"),
        ("serve.generator_lag_ms_p99", "ms"),
        ("serve.miss_ratio", "ratio"),
        ("wire.bytes_per_frame", "bytes"),
        ("wire.client_encode_ms", "ms"),
        ("wire.client_decode_ms", "ms"),
        ("net.poll_overhead_ms", "ms"),
    ] {
        r.layer(name, 0.0, unit);
    }
}

/// Training layers on a workload that does not train: zero.
pub fn absent_train_layers(r: &mut Report) {
    for name in [
        "train.forward_ms",
        "train.backward_ms",
        "train.optimizer_ms",
        "train.fwd_bwd_span_ms",
        "train.optimizer_span_ms",
    ] {
        r.layer(name, 0.0, "ms");
    }
}

/// Mesh layers on a workload that reconstructs no meshes: zero.
pub fn absent_mesh_layers(r: &mut Report) {
    r.layer("mesh.reconstruct_ms", 0.0, "ms");
    r.layer("mesh.lbs_ms", 0.0, "ms");
}

fn run(cfg: &RunConfig) -> Result<(Report, &'static str, usize), String> {
    let mut r = Report::default();
    // Timed work never records telemetry; traced phases switch it on.
    telemetry::set_enabled(false);
    let stamp = match cfg.workload.as_str() {
        "live" => {
            let windows = live::inputs(cfg.seed);
            let mut state = timed_setup(&mut r, || live::setup(cfg.seed))?;
            live::run(cfg, &mut state, &windows, &mut r)?;
            ("f32", fixtures::FRAMES_PER_WINDOW)
        }
        "serve" => {
            let inputs = serve::inputs(cfg.seed);
            let mut state = timed_setup(&mut r, || serve::setup(cfg.seed, &inputs))?;
            serve::run(cfg, &mut state, &inputs, &mut r)?;
            ("int8", serve::FRAMES_PER_SEGMENT)
        }
        _ => {
            let inputs = train::inputs(cfg.seed);
            let mut state = timed_setup(&mut r, || train::setup(cfg.seed, &inputs))?;
            train::run(cfg, &mut state, &inputs, &mut r)?;
            ("f32", train::FRAMES_PER_SEQUENCE)
        }
    };
    r.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    Ok((r, stamp.0, stamp.1))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mmhand-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pin_threads() {
        eprintln!("mmhand-perfbench: {e}");
        return ExitCode::from(2);
    }
    let (mut r, precision, frames) = match run(&cfg) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("mmhand-perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    println!("env {}", report::environment(&cfg.workload, cfg.seed, precision, frames));
    for line in &r.notes {
        println!("{line}");
    }
    for (name, h) in &r.output_hashes {
        println!("hash {name} {h:#018x}");
    }
    let (shown, expected) =
        if cfg.trace { (&r.per_layer, &PER_LAYER[..]) } else { (&r.end_to_end, &END_TO_END[..]) };
    for m in shown {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut names: Vec<&str> = shown.iter().map(|m| m.name).collect();
    let mut want = expected.to_vec();
    names.sort_unstable();
    want.sort_unstable();
    let finite = shown.iter().all(|m| m.value.is_finite());
    r.check(names == want, "the metric names differ from BENCHMARK.json");
    r.check(finite, "a reported metric is not finite");
    for f in &r.check_failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", r.result_json(cfg.trace));
    if r.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Sizes the global pool from `MMHAND_THREADS`, never wider than the
/// machine (`nproc`).
fn pin_threads() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = match std::env::var("MMHAND_THREADS") {
        Ok(v) => v.trim().parse::<usize>().map_err(|e| format!("MMHAND_THREADS={v}: {e}"))?,
        Err(_) => nproc,
    };
    let threads = requested.clamp(1, nproc);
    mmhand_parallel::configure_threads(threads)
        .map_err(|got| format!("thread pool already running at width {got}"))
}

#[cfg(test)]
mod tests {
    /// The metric names of one section of `BENCHMARK.json`, in order.
    fn names_in(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = text.split(&format!("\"{section}\"")).nth(1).expect("section present");
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').expect("name closes")].to_string()).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(names_in("end_to_end"), super::END_TO_END);
        assert_eq!(names_in("per_layer"), super::PER_LAYER);
    }
}
