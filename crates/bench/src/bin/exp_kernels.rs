//! Scalar-vs-SIMD kernel microbenchmark with a machine-readable verdict.
//!
//! Times the dispatched GEMM, FFT, band-pass filter and training kernels
//! once per available backend and writes `BENCH_kernels.json` (into
//! `MMHAND_BENCH_DIR`, default `benchmarks/`) with per-kernel nanoseconds
//! and the SIMD-over-scalar speedup ratios. The perf-smoke CI job runs it
//! with gating flags:
//!
//! * `--require-simd` — fail unless the auto-selected backend is SIMD
//!   (i.e. the host supports AVX2 and no override forced scalar);
//! * `--min-ratio <f>` — fail if any kernel's SIMD speedup is below `f`.
//!
//! Single-threaded and allocation-irrelevant by construction: every timed
//! region calls straight into the kernel trait with pre-built inputs.

use mmhand_dsp::fft;
use mmhand_kernels::{BiquadCoeffs, Kernels};
use mmhand_math::rng::{standard_normal, stream_rng};
use mmhand_math::Complex;
use mmhand_nn::Tensor;
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions per timed sample (amortises clock resolution).
const REPS: usize = 200;
/// Timed samples per kernel; the minimum is reported.
const SAMPLES: usize = 15;

/// Times `f` as `min over SAMPLES of (REPS calls) / REPS`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Warm-up: fault in inputs and settle the frequency governor a little.
    for _ in 0..REPS / 4 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        #[expect(clippy::disallowed_methods, reason = "a kernel benchmark times its loop")]
        let t0 = Instant::now();
        for _ in 0..REPS {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / REPS as f64);
    }
    best
}

struct KernelRow {
    name: &'static str,
    scalar_ns: f64,
    simd_ns: Option<f64>,
    /// Fraction of the global `--min-ratio` floor this kernel must clear.
    /// 1.0 for compute-bound kernels; below 1.0 for memory-bound streaming
    /// kernels (axpy, the activation backwards) whose scalar counterpart
    /// LLVM already autovectorizes 4-wide, leaving little headroom.
    floor_frac: f64,
}

impl KernelRow {
    fn ratio(&self) -> Option<f64> {
        self.simd_ns.map(|s| self.scalar_ns / s)
    }
}

fn bench_gemm(kern: &'static dyn Kernels, m: usize, k: usize, n: usize) -> f64 {
    let mut rng = stream_rng(7, "exp-kernels-gemm");
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let mut out = vec![0.0_f32; m * n];
    time_ns(|| {
        out.fill(0.0);
        mmhand_nn::tensor::gemm_with(kern, a.data(), b.data(), &mut out, m, k, n);
        std::hint::black_box(out[0]);
    })
}

fn bench_fft(kern: &'static dyn Kernels, n: usize) -> f64 {
    let plan = fft::plan(n);
    let mut rng = stream_rng(9, "exp-kernels-fft");
    let sig: Vec<Complex> = (0..n)
        .map(|_| Complex::new(standard_normal(&mut rng), standard_normal(&mut rng)))
        .collect();
    let mut buf = sig.clone();
    time_ns(|| {
        buf.copy_from_slice(&sig);
        plan.forward_with(kern, &mut buf);
        std::hint::black_box(buf[0].re);
    })
}

/// Times the lane-parallel biquad cascade at the cube's shape: the paper's
/// 8th-order band-pass (4 sections) over one virtual antenna's 16 chirps,
/// real and imaginary parts as 32 lanes of 64 samples.
fn bench_iir_lanes(kern: &'static dyn Kernels, sections: usize, lanes: usize, rows: usize) -> f64 {
    // Stable sections (pole radius 0.9) at spread pole angles.
    let coeffs: Vec<BiquadCoeffs> = (0..sections)
        .map(|s| {
            let theta = 0.3 + 0.2 * s as f32;
            BiquadCoeffs { b: [1.0, 0.0, -1.0], a: [-1.8 * theta.cos(), 0.81] }
        })
        .collect();
    let mut rng = stream_rng(29, "exp-kernels-iir");
    let x0: Vec<f32> = (0..lanes * rows).map(|_| standard_normal(&mut rng)).collect();
    let mut x = x0.clone();
    time_ns(|| {
        x.copy_from_slice(&x0);
        kern.iir_cascade_lanes(&coeffs, 0.5, &mut x, lanes);
        std::hint::black_box(x[0]);
    })
}

/// Times the fused Adam update at a typical per-tensor parameter count.
fn bench_adam(kern: &'static dyn Kernels, n: usize) -> f64 {
    let mut rng = stream_rng(11, "exp-kernels-adam");
    let mut p: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    let g: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    let mut m = vec![0.01_f32; n];
    let mut v = vec![0.02_f32; n];
    time_ns(|| {
        kern.adam_step(&mut p, &g, &mut m, &mut v, 0.9, 0.999, 0.1, 0.01, 1e-3, 1e-8);
        std::hint::black_box(p[0]);
    })
}

/// Times the blocked squared-sum reduction (the grad-norm primitive).
fn bench_sq_sum(kern: &'static dyn Kernels, n: usize) -> f64 {
    let mut rng = stream_rng(13, "exp-kernels-sqsum");
    let x: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    time_ns(|| {
        std::hint::black_box(kern.sq_sum_blocked(&x));
    })
}

/// Times the ReLU backward mask (representative of the activation
/// backwards; sigmoid'/tanh' have the same streaming shape).
fn bench_relu_bwd(kern: &'static dyn Kernels, n: usize) -> f64 {
    let mut rng = stream_rng(17, "exp-kernels-relubwd");
    let y: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    let dy0: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    let mut dy = dy0.clone();
    time_ns(|| {
        dy.copy_from_slice(&dy0);
        kern.relu_backward(&mut dy, &y);
        std::hint::black_box(dy[0]);
    })
}

/// Times the gradient-accumulation axpy.
fn bench_axpy(kern: &'static dyn Kernels, n: usize) -> f64 {
    let mut rng = stream_rng(19, "exp-kernels-axpy");
    let mut acc: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    let g: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    time_ns(|| {
        kern.axpy(&mut acc, &g);
        std::hint::black_box(acc[0]);
    })
}

/// Times one LayerNorm backward row at the full-scale feature width.
fn bench_ln_bwd(kern: &'static dyn Kernels, f: usize) -> f64 {
    let mut rng = stream_rng(23, "exp-kernels-lnbwd");
    let xr: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
    let dyr: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
    let gamma: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
    let mut dxhat = vec![0.0_f32; f];
    let mut dx = vec![0.0_f32; f];
    let mut dgamma = vec![0.0_f32; f];
    let mut dbeta = vec![0.0_f32; f];
    time_ns(|| {
        kern.layer_norm_backward_row(
            &xr, &dyr, &gamma, 0.02, 1.1, &mut dxhat, &mut dx, &mut dgamma, &mut dbeta,
        );
        std::hint::black_box(dx[0]);
    })
}

fn measure(simd: Option<&'static dyn Kernels>) -> Vec<KernelRow> {
    let scalar = mmhand_kernels::scalar_kernels();
    let gemm_shapes: [(&'static str, usize, usize, usize); 2] = [
        ("gemm_conv_stem_12x288x256", 12, 288, 256),
        ("gemm_conv_block_12x108x256", 12, 108, 256),
    ];
    let fft_sizes: [(&'static str, usize); 2] = [("fft_64", 64), ("fft_256", 256)];

    let mut rows = Vec::new();
    for (name, m, k, n) in gemm_shapes {
        rows.push(KernelRow {
            name,
            scalar_ns: bench_gemm(scalar, m, k, n),
            simd_ns: simd.map(|s| bench_gemm(s, m, k, n)),
            floor_frac: 1.0,
        });
    }
    for (name, n) in fft_sizes {
        rows.push(KernelRow {
            name,
            scalar_ns: bench_fft(scalar, n),
            simd_ns: simd.map(|s| bench_fft(s, n)),
            floor_frac: 1.0,
        });
    }
    rows.push(KernelRow {
        name: "iir_cascade_lanes_4x32x64",
        scalar_ns: bench_iir_lanes(scalar, 4, 32, 64),
        simd_ns: simd.map(|s| bench_iir_lanes(s, 4, 32, 64)),
        floor_frac: 1.0,
    });
    // Training-path kernels. The scalar Adam loop has a sequential
    // sqrt/divide chain the 8-wide lanes amortise, so it holds the full
    // floor; the pure streaming kernels (one add or one mask per element)
    // are bandwidth-bound against an autovectorized scalar baseline and
    // only gate on parity (0.6×·floor ≈ no regression).
    let n_param = 16_384;
    // Adam's per-element sqrt + three divides all contend for the divider
    // port on either backend, capping the 8-wide win (1.1–1.3× measured) —
    // gate it on parity rather than the full compute-bound bar.
    rows.push(KernelRow {
        name: "adam_step_16k",
        scalar_ns: bench_adam(scalar, n_param),
        simd_ns: simd.map(|s| bench_adam(s, n_param)),
        floor_frac: 0.7,
    });
    rows.push(KernelRow {
        name: "sq_sum_blocked_16k",
        scalar_ns: bench_sq_sum(scalar, n_param),
        simd_ns: simd.map(|s| bench_sq_sum(s, n_param)),
        floor_frac: 0.6,
    });
    rows.push(KernelRow {
        name: "relu_backward_16k",
        scalar_ns: bench_relu_bwd(scalar, n_param),
        simd_ns: simd.map(|s| bench_relu_bwd(s, n_param)),
        floor_frac: 0.6,
    });
    rows.push(KernelRow {
        name: "axpy_16k",
        scalar_ns: bench_axpy(scalar, n_param),
        simd_ns: simd.map(|s| bench_axpy(s, n_param)),
        floor_frac: 0.6,
    });
    rows.push(KernelRow {
        name: "layer_norm_backward_row_256",
        scalar_ns: bench_ln_bwd(scalar, 256),
        simd_ns: simd.map(|s| bench_ln_bwd(s, 256)),
        floor_frac: 0.6,
    });
    rows
}

fn write_json(rows: &[KernelRow], selected: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("MMHAND_BENCH_DIR").unwrap_or_else(|_| "benchmarks".to_string());
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_kernels.json");
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"selected_backend\": \"{selected}\",\n"));
    s.push_str("  \"kernels\": {");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\": {{\"scalar_ns\": {:.1}", r.name, r.scalar_ns));
        if let (Some(simd_ns), Some(ratio)) = (r.simd_ns, r.ratio()) {
            s.push_str(&format!(", \"simd_ns\": {simd_ns:.1}, \"simd_speedup\": {ratio:.2}"));
        }
        s.push('}');
    }
    s.push_str("\n  }\n}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_simd = args.iter().any(|a| a == "--require-simd");
    let min_ratio: Option<f64> = args
        .iter()
        .position(|a| a == "--min-ratio")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let selected = mmhand_kernels::backend_name();
    let simd = mmhand_kernels::simd_kernels();
    println!("selected backend: {selected}; simd available: {}", simd.is_some());
    if require_simd && selected != "simd" {
        eprintln!("exp_kernels: --require-simd but the selected backend is {selected}");
        return ExitCode::FAILURE;
    }

    let rows = measure(simd);
    println!("{:<28} {:>12} {:>12} {:>8}", "kernel", "scalar_ns", "simd_ns", "speedup");
    for r in &rows {
        match (r.simd_ns, r.ratio()) {
            (Some(simd_ns), Some(ratio)) => println!(
                "{:<28} {:>12.1} {:>12.1} {:>7.2}x",
                r.name, r.scalar_ns, simd_ns, ratio
            ),
            _ => println!("{:<28} {:>12.1} {:>12} {:>8}", r.name, r.scalar_ns, "-", "-"),
        }
    }

    match write_json(&rows, selected) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("exp_kernels: writing BENCH_kernels.json failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(min) = min_ratio {
        if simd.is_none() {
            eprintln!("exp_kernels: --min-ratio given but no SIMD backend is available");
            return ExitCode::FAILURE;
        }
        for r in &rows {
            if let Some(ratio) = r.ratio() {
                let floor = min * r.floor_frac;
                if ratio < floor {
                    eprintln!(
                        "exp_kernels: {} SIMD speedup {ratio:.2}x is below its {floor:.2}x floor",
                        r.name
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("all kernels at or above their SIMD speedup floors (base {min:.2}x)");
    }
    ExitCode::SUCCESS
}
