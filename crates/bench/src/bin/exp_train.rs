//! Scalar-vs-SIMD training throughput with a machine-readable verdict.
//!
//! The kernel backend is a process-global selection (`OnceLock` in
//! `mmhand-kernels`), so one process cannot train under both backends. The
//! parent therefore re-spawns itself twice as `--child` with
//! `MMHAND_KERNEL_BACKEND` forced to `scalar` and `simd`; each child trains
//! the standard cohort at the ambient scale (`MMHAND_QUICK=1` for the CI
//! gate, unset for the full-scale measurement) and reports throughput,
//! the backward/optimizer span split, and an order-sensitive hash of the
//! final parameters. The parent then
//!
//! * verifies the two parameter hashes are identical — training is bitwise
//!   backend-independent end to end, not just kernel by kernel;
//! * writes `BENCH_train.json` (into `MMHAND_BENCH_DIR`, default
//!   `benchmarks/`) with both sides and the `train.seq_per_s` ratio;
//! * with `--min-ratio <f>`, fails unless simd/scalar throughput ≥ `f`.

use mmhand_bench::config::ExperimentConfig;
use mmhand_bench::data::try_build_training_cohort;
use mmhand_core::train::Trainer;
use mmhand_telemetry as telemetry;
use std::process::ExitCode;
use std::time::Instant;

/// Order-sensitive FNV-1a over `f32` bit patterns (the repo's golden-bit
/// idiom): any single-ULP difference in any parameter changes the hash.
fn bits(xs: &[f32]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
    }
    h
}

/// One backend's measurement, as reported by a `--child` run.
#[derive(Clone, Debug)]
struct ChildReport {
    backend: String,
    seq_per_s: f64,
    train_s: f64,
    backward_ms: f64,
    optimizer_ms: f64,
    params_hash: u32,
}

/// Sum of a histogram's recorded durations, in milliseconds.
fn span_total_ms(snap: &telemetry::MetricsSnapshot, name: &str) -> f64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.sum)
        .unwrap_or(0.0)
}

/// Trains on the standard cohort under the process backend and prints the
/// measurement as `key=value` lines on stdout.
fn run_child(cfg: &ExperimentConfig) -> ExitCode {
    let backend = mmhand_kernels::backend_name();
    let sequences = match try_build_training_cohort(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exp_train: building cohort failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    #[expect(clippy::disallowed_methods, reason = "the training benchmark times the run")]
    let t0 = Instant::now();
    let trained =
        match Trainer::new(cfg.model.clone(), cfg.train.clone()).try_train(&sequences) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("exp_train: training failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let train_s = t0.elapsed().as_secs_f64();
    let snap = telemetry::snapshot();
    let total_seqs = (cfg.train.epochs * sequences.len()) as f64;
    println!("backend={backend}");
    println!("seq_per_s={:.4}", total_seqs / train_s);
    println!("train_s={train_s:.4}");
    println!("backward_ms={:.3}", span_total_ms(&snap, "train.backward"));
    println!("optimizer_ms={:.3}", span_total_ms(&snap, "train.optimizer"));
    println!("params_hash={:#010x}", bits(&trained.store.snapshot()));
    ExitCode::SUCCESS
}

/// Re-spawns this binary as `--child` with the backend forced via env.
fn spawn_child(backend: &str) -> Option<ChildReport> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--child")
        .env("MMHAND_KERNEL_BACKEND", backend)
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "exp_train: {backend} child failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Option<String> {
        stdout.lines().find_map(|l| l.strip_prefix(&format!("{key}="))).map(str::to_string)
    };
    Some(ChildReport {
        backend: field("backend")?,
        seq_per_s: field("seq_per_s")?.parse().ok()?,
        train_s: field("train_s")?.parse().ok()?,
        backward_ms: field("backward_ms")?.parse().ok()?,
        optimizer_ms: field("optimizer_ms")?.parse().ok()?,
        params_hash: u32::from_str_radix(field("params_hash")?.trim_start_matches("0x"), 16)
            .ok()?,
    })
}

fn write_json(scalar: &ChildReport, simd: &ChildReport, ratio: f64) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("MMHAND_BENCH_DIR").unwrap_or_else(|_| "benchmarks".to_string());
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_train.json");
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"quick_scale\": {},\n",
        std::env::var("MMHAND_QUICK").map(|v| v == "1").unwrap_or(false)
    ));
    for r in [scalar, simd] {
        s.push_str(&format!(
            "  \"{}\": {{\"seq_per_s\": {:.4}, \"train_s\": {:.4}, \
             \"backward_ms\": {:.3}, \"optimizer_ms\": {:.3}, \
             \"params_hash\": \"{:#010x}\"}},\n",
            r.backend, r.seq_per_s, r.train_s, r.backward_ms, r.optimizer_ms, r.params_hash
        ));
    }
    s.push_str(&format!("  \"simd_over_scalar\": {ratio:.3}\n}}\n"));
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ExperimentConfig::from_env();
    if args.iter().any(|a| a == "--child") {
        return run_child(&cfg);
    }
    let min_ratio: Option<f64> = args
        .iter()
        .position(|a| a == "--min-ratio")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    if mmhand_kernels::simd_kernels().is_none() {
        eprintln!("exp_train: no SIMD backend on this host; nothing to compare");
        return ExitCode::FAILURE;
    }
    let (Some(scalar), Some(simd)) = (spawn_child("scalar"), spawn_child("simd")) else {
        return ExitCode::FAILURE;
    };

    let ratio = simd.seq_per_s / scalar.seq_per_s;
    println!("{:<8} {:>10} {:>9} {:>12} {:>13} {:>12}", "backend", "seq_per_s", "train_s", "backward_ms", "optimizer_ms", "params_hash");
    for r in [&scalar, &simd] {
        println!(
            "{:<8} {:>10.3} {:>9.2} {:>12.1} {:>13.1} {:>#12x}",
            r.backend, r.seq_per_s, r.train_s, r.backward_ms, r.optimizer_ms, r.params_hash
        );
    }
    println!("train.seq_per_s simd/scalar ratio: {ratio:.3}x");

    if scalar.params_hash != simd.params_hash {
        eprintln!(
            "exp_train: final parameters diverge across backends \
             ({:#010x} vs {:#010x}) — the bitwise training contract is broken",
            scalar.params_hash, simd.params_hash
        );
        return ExitCode::FAILURE;
    }
    println!("final parameters bitwise identical across backends");

    match write_json(&scalar, &simd, ratio) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("exp_train: writing BENCH_train.json failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(min) = min_ratio {
        if ratio < min {
            eprintln!("exp_train: simd/scalar throughput {ratio:.3}x is below the {min:.2}x floor");
            return ExitCode::FAILURE;
        }
        println!("throughput ratio at or above the {min:.2}x floor");
    }
    ExitCode::SUCCESS
}
