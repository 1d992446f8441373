//! Per-backend criterion microbenches of the dispatched compute kernels.
//!
//! Each hot primitive (the convolution GEMM at its real shapes, the planned
//! range/Doppler FFT, the band-pass biquad cascade at the cube's shape) is
//! timed once per available kernel backend, so a single run reports the
//! scalar/SIMD ratio on this host. `exp_kernels` is the scripted
//! (JSON-emitting) counterpart used by the perf-smoke CI job.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mmhand_dsp::fft;
use mmhand_kernels::{BiquadCoeffs, Kernels};
use mmhand_math::rng::{standard_normal, stream_rng};
use mmhand_math::Complex;
use mmhand_nn::Tensor;

/// Every backend available on this host, always including scalar.
fn backends() -> Vec<&'static dyn Kernels> {
    let mut all = vec![mmhand_kernels::scalar_kernels()];
    if let Some(simd) = mmhand_kernels::simd_kernels() {
        all.push(simd);
    }
    all
}

fn bench_gemm_backends(c: &mut Criterion) {
    let mut rng = stream_rng(7, "kernels-bench-gemm");
    // The default model's two convolution GEMM shapes (per sample).
    for (label, m, k, n) in [
        ("conv_stem_12x288x256", 12usize, 288usize, 256usize),
        ("conv_block_12x108x256", 12, 108, 256),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut out = vec![0.0_f32; m * n];
        for kern in backends() {
            c.bench_function(&format!("gemm_{label}_{}", kern.name()), |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    mmhand_nn::tensor::gemm_with(kern, a.data(), b.data(), &mut out, m, k, n);
                    black_box(out[0])
                })
            });
        }
    }
}

fn bench_fft_backends(c: &mut Criterion) {
    // Pipeline transform sizes: range FFT (64), a Doppler-sized 256, and a
    // larger 1024 where the SIMD stages dominate bit-reversal overhead.
    for n in [64usize, 256, 1024] {
        let plan = fft::plan(n);
        let mut rng = stream_rng(9, "kernels-bench-fft");
        let sig: Vec<Complex> = (0..n)
            .map(|_| Complex::new(standard_normal(&mut rng), standard_normal(&mut rng)))
            .collect();
        let mut buf = sig.clone();
        for kern in backends() {
            c.bench_function(&format!("fft_{n}_{}", kern.name()), |b| {
                b.iter(|| {
                    buf.copy_from_slice(&sig);
                    plan.forward_with(kern, &mut buf);
                    black_box(buf[0].re)
                })
            });
        }
    }
}

fn bench_filter_backends(c: &mut Criterion) {
    // The cube's shape: 4 biquad sections (the paper's 8th-order band-pass)
    // over one virtual antenna's 16 chirps as 32 lanes of 64 samples.
    let (lanes, rows) = (32usize, 64usize);
    let coeffs: Vec<BiquadCoeffs> = (0..4)
        .map(|s| {
            let theta = 0.3 + 0.2 * s as f32;
            BiquadCoeffs { b: [1.0, 0.0, -1.0], a: [-1.8 * theta.cos(), 0.81] }
        })
        .collect();
    let mut rng = stream_rng(29, "kernels-bench-iir");
    let x0: Vec<f32> = (0..lanes * rows).map(|_| standard_normal(&mut rng)).collect();
    let mut x = x0.clone();
    for kern in backends() {
        c.bench_function(&format!("iir_cascade_lanes_4x32x64_{}", kern.name()), |b| {
            b.iter(|| {
                x.copy_from_slice(&x0);
                kern.iir_cascade_lanes(&coeffs, 0.5, &mut x, lanes);
                black_box(x[0])
            })
        });
    }
}

fn bench_train_backends(c: &mut Criterion) {
    let mut rng = stream_rng(11, "kernels-bench-train");
    let n = 16_384;
    let g: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
    for kern in backends() {
        // Fused Adam update at a typical per-tensor parameter count.
        let mut p: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mut m = vec![0.01_f32; n];
        let mut v = vec![0.02_f32; n];
        c.bench_function(&format!("adam_step_16k_{}", kern.name()), |b| {
            b.iter(|| {
                kern.adam_step(&mut p, &g, &mut m, &mut v, 0.9, 0.999, 0.1, 0.01, 1e-3, 1e-8);
                black_box(p[0])
            })
        });
        // Blocked squared-sum (the grad-norm primitive).
        c.bench_function(&format!("sq_sum_blocked_16k_{}", kern.name()), |b| {
            b.iter(|| black_box(kern.sq_sum_blocked(&g)))
        });
        // Gradient-accumulation axpy.
        let mut acc: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        c.bench_function(&format!("axpy_16k_{}", kern.name()), |b| {
            b.iter(|| {
                kern.axpy(&mut acc, &g);
                black_box(acc[0])
            })
        });
        // One LayerNorm backward row at the full-scale feature width.
        let f = 256;
        let xr: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
        let dyr: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
        let gamma: Vec<f32> = (0..f).map(|_| standard_normal(&mut rng)).collect();
        let mut dxhat = vec![0.0_f32; f];
        let mut dx = vec![0.0_f32; f];
        let mut dgamma = vec![0.0_f32; f];
        let mut dbeta = vec![0.0_f32; f];
        c.bench_function(&format!("layer_norm_backward_row_256_{}", kern.name()), |b| {
            b.iter(|| {
                kern.layer_norm_backward_row(
                    &xr, &dyr, &gamma, 0.02, 1.1, &mut dxhat, &mut dx, &mut dgamma, &mut dbeta,
                );
                black_box(dx[0])
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_gemm_backends, bench_fft_backends, bench_filter_backends, bench_train_backends
}
criterion_main!(benches);
