//! Runtime-dispatched compute-kernel backends.
//!
//! Every hot inner loop in the workspace — the packed GEMM microkernel
//! (`mmhand-nn`), the radix-2 FFT butterfly stages and the cascaded
//! Butterworth biquads (`mmhand-dsp`), and linear blend skinning
//! (`mmhand-hand`) — runs through the [`Kernels`] trait defined here. Two
//! implementations exist:
//!
//! * [`scalar_kernels`] — the pre-dispatch scalar code, moved here verbatim.
//!   Always available, and the reference every other backend is tested
//!   against.
//! * [`simd_kernels`] — explicit AVX2/SSE2 intrinsics (x86_64 only, selected
//!   when the CPU reports AVX2 at runtime).
//!
//! One backend is chosen once per process by [`kernels`], in this order:
//!
//! 1. `MMHAND_KERNEL_BACKEND=scalar|simd|auto` env override (`simd` falls
//!    back to scalar, with a warning, when the CPU lacks AVX2);
//! 2. runtime CPU-feature detection: AVX2 on x86_64 → SIMD;
//! 3. otherwise scalar (aarch64/NEON is a future backend; today non-x86_64
//!    always runs the scalar reference).
//!
//! The selection is recorded as the `kernel.backend` telemetry gauge
//! (0 = scalar, 1 = simd) and one startup log line on stderr.
//!
//! # Determinism contract
//!
//! The SIMD backend is **bitwise identical** to the scalar reference, not
//! merely close: it uses no FMA and never reassociates a reduction. Each
//! output element accumulates the same products in the same order as the
//! scalar loop; SIMD only evaluates independent output elements (GEMM
//! columns, FFT butterflies, filter lanes, vector components) in
//! parallel lanes. The cross-backend property tests in this crate and in
//! `nn`/`dsp` therefore assert a ULP distance of exactly zero, and the
//! pinned-scalar mode (`MMHAND_KERNEL_BACKEND=scalar`) is an oracle, not a
//! different answer.

use mmhand_math::{Complex, Quaternion, Vec3};
use std::sync::OnceLock;

mod scalar;
// Miri interprets no vendor intrinsics; the SIMD backend is compiled out
// there and `simd_kernels()` reports `None`, so the whole suite runs on
// the scalar reference under `cargo miri test`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod simd;

/// Register rows of the GEMM microkernel: every backend computes 4 rows of
/// `C` per pass over a `B` row. Callers pack `A` quads at this stride.
pub const GEMM_MR: usize = 4;

/// Upper bound on [`Kernels::abt_panel_width`] across backends, so callers
/// can use a fixed-size stack buffer for panel dot results.
pub const ABT_PANEL_MAX: usize = 8;

/// Upper bound on the biquad cascade length [`Kernels::iir_cascade_lanes`]
/// accepts (both backends keep section state in stack arrays). A
/// 32nd-order Butterworth band-pass fits; the paper's filter is 8th order
/// (4 sections).
pub const MAX_BIQUADS: usize = 16;

/// Lane count of the blocked squared-sum reduction
/// [`Kernels::sq_sum_blocked`]: both backends accumulate this many
/// independent partial sums (element `i` goes to lane `i % SQ_SUM_LANES`
/// over full blocks) and combine them in ascending lane order, so the
/// accumulation order — and therefore the result bits — is identical in
/// scalar and SIMD. Sixteen lanes give the AVX2 backend two independent
/// 8-wide accumulator chains (hiding add latency) and the autovectorized
/// scalar backend four 4-wide ones.
pub const SQ_SUM_LANES: usize = 16;

/// Coefficients of one normalised direct-form-II-transposed biquad, with
/// the same convention as `mmhand-dsp`'s `Biquad`:
/// `y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BiquadCoeffs {
    /// Feed-forward coefficients `[b0, b1, b2]`.
    pub b: [f32; 3],
    /// Feedback coefficients `[a1, a2]` (a0 normalised to 1).
    pub a: [f32; 2],
}

/// Per-vertex skinning attachment: up to two joints with blend weights.
/// Unused slots carry an exact `0.0` weight.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkinAttachment {
    /// Joint indices into the rest/posed joint arrays.
    pub joints: [u32; 2],
    /// Blend weights; weights of used slots sum to 1.
    pub weights: [f32; 2],
}

/// The dispatched kernel surface. One `&'static dyn Kernels` is selected
/// per process by [`kernels`]; tests and benches can also drive a specific
/// backend directly via [`scalar_kernels`] / [`simd_kernels`].
///
/// All methods are allocation-free: callers pass scratch (pack panels,
/// filter lanes) checked out of their own pools.
pub trait Kernels: Send + Sync {
    /// Backend name for logs and metric suffixes (`"scalar"`, `"simd"`).
    fn name(&self) -> &'static str;

    /// 4-row GEMM microkernel: accumulates the packed k-tile panel `apack`
    /// (quads interleaved per k-step, [`GEMM_MR`] stride) against `B` rows
    /// `[kb, kend)` into four `C` rows of length `n`.
    ///
    /// Each `C` element accumulates its products in ascending-k order.
    #[allow(clippy::too_many_arguments)]
    fn gemm_4xn(
        &self,
        apack: &[f32],
        b: &[f32],
        c0: &mut [f32],
        c1: &mut [f32],
        c2: &mut [f32],
        c3: &mut [f32],
        kb: usize,
        kend: usize,
        n: usize,
    );

    /// Column-panel width of the `A·Bᵀ` packed kernel (≤ [`ABT_PANEL_MAX`]).
    fn abt_panel_width(&self) -> usize;

    /// Packs `abt_panel_width()` columns of `B` (`(n, k)` row-major layout)
    /// starting at column `j` into `bpack`, interleaved by k-step:
    /// `bpack[kk·w + l] = b[(j + l)·k + kk]`.
    fn abt_pack_panel(&self, b: &[f32], j: usize, k: usize, bpack: &mut [f32]);

    /// Dots one `A` row against a packed column panel:
    /// `out[l] = Σ_kk a_row[kk] · bpack[kk·w + l]`, each lane accumulated
    /// independently in ascending-k order from `0.0`.
    fn abt_dot_panel(&self, a_row: &[f32], bpack: &[f32], out: &mut [f32]);

    /// One radix-2 Danielson–Lanczos stage of span `len` over the whole
    /// (bit-reversed) buffer: for every block of `len` elements, butterfly
    /// pairs `(x[i+j], x[i+j+len/2])` with twiddles `tw[j]`.
    fn fft_stage(&self, x: &mut [Complex], tw: &[Complex], len: usize);

    /// Cascaded-biquad filtering of `lanes` independent signals stored
    /// sample by sample — `x[t·lanes + l]` is sample `t` of lane `l` — each
    /// lane starting from cleared state: `y = gain·x` then through every
    /// section in order. `coeffs.len()` must be ≤ [`MAX_BIQUADS`] and
    /// `x.len()` a multiple of `lanes`.
    fn iir_cascade_lanes(&self, coeffs: &[BiquadCoeffs], gain: f32, x: &mut [f32], lanes: usize);

    /// Linear blend skinning: for each vertex `v` with attachment `w`,
    /// `out[v] = Σ_k w_k · (posed[j_k] + R[j_k]·(v − rest[j_k]))`, skipping
    /// exact-zero weights. `out` is cleared and refilled.
    fn lbs_skin(
        &self,
        verts: &[Vec3],
        attachments: &[SkinAttachment],
        rest_joints: &[Vec3],
        posed_joints: &[Vec3],
        global_rot: &[Quaternion],
        out: &mut Vec<Vec3>,
    );

    /// Quantized int8 GEMM row kernel: `out[j] = Σ_kk x[kk] · wt[j·k + kk]`
    /// (overwrite, not accumulate), with `x` one quantized input row of
    /// length `k` and `wt` the transposed weight matrix (`n` output
    /// channels × `k`, row-major, so every dot product is contiguous).
    ///
    /// Accumulation is exact in i32 — i8×i8 products are ≤ 16129, so any
    /// `k` below ~133 000 cannot overflow — which makes every backend
    /// bitwise identical by construction: integer addition is associative,
    /// so lane order does not matter (unlike the f32 kernels, which must
    /// preserve ascending-k order).
    fn qgemm_row_i8(&self, x: &[i8], wt: &[i8], out: &mut [i32], k: usize, n: usize);

    /// ReLU backward: zeroes `dy[i]` wherever the forward output
    /// `y[i] ≤ 0`, element-wise over `min(dy.len(), y.len())`.
    fn relu_backward(&self, dy: &mut [f32], y: &[f32]);

    /// Sigmoid backward: `dy[i] *= y[i] · (1 − y[i])` with `y` the forward
    /// output, element-wise over `min(dy.len(), y.len())`.
    fn sigmoid_backward(&self, dy: &mut [f32], y: &[f32]);

    /// Tanh backward: `dy[i] *= 1 − y[i]²` with `y` the forward output,
    /// element-wise over `min(dy.len(), y.len())`.
    fn tanh_backward(&self, dy: &mut [f32], y: &[f32]);

    /// Gradient accumulation: `acc[i] += g[i]` over
    /// `min(acc.len(), g.len())` — the tape's `add_grad` merge and the
    /// parameter store's shard-gradient reduce.
    fn axpy(&self, acc: &mut [f32], g: &[f32]);

    /// One feature row of the LayerNorm backward. With
    /// `x̂ᵢ = (xrᵢ − mean)·rstd` and `dᵢ = dyrᵢ·gammaᵢ`, fills
    /// `dxhat` with `d`, accumulates `dgammaᵢ += dyrᵢ·x̂ᵢ` and
    /// `dbetaᵢ += dyrᵢ`, and writes
    /// `dxᵢ = rstd·(dᵢ − Σd/f − x̂ᵢ·Σ(d·x̂)/f)`. The two row sums
    /// accumulate sequentially in ascending `i` on every backend (SIMD only
    /// vectorises the lane-independent element-wise parts), keeping the
    /// result bitwise identical to the scalar reference. `f = xr.len()`;
    /// every other slice must hold at least `f` elements.
    #[allow(clippy::too_many_arguments)]
    fn layer_norm_backward_row(
        &self,
        xr: &[f32],
        dyr: &[f32],
        gamma: &[f32],
        mean: f32,
        rstd: f32,
        dxhat: &mut [f32],
        dx: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    );

    /// Fused Adam update over one parameter tensor: for every element,
    /// `mᵢ ← β₁·mᵢ + (1−β₁)·gᵢ`, `vᵢ ← β₂·vᵢ + (1−β₂)·gᵢ·gᵢ`, then
    /// `valueᵢ −= lr·(mᵢ/bias1) / (√(vᵢ/bias2) + eps)` — one pass instead
    /// of the historical dual-indexed loop. `bias1`/`bias2` are the
    /// per-step corrections `1 − βᵗ`, hoisted by the caller. Every lane is
    /// an independent element and the arithmetic is mul/add/sub/div/sqrt
    /// only (all IEEE correctly rounded), so SIMD is bitwise identical to
    /// scalar. All four slices must share `value.len()`.
    #[allow(clippy::too_many_arguments)]
    fn adam_step(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        beta1: f32,
        beta2: f32,
        bias1: f32,
        bias2: f32,
        lr: f32,
        eps: f32,
    );

    /// Blocked squared-sum reduction `Σ xᵢ²` in the fixed
    /// [`SQ_SUM_LANES`]-lane order: lane `l` accumulates elements
    /// `l, l+8, l+16, …` over full 8-blocks, lanes combine in ascending
    /// lane order, then the ragged tail adds sequentially. Both backends
    /// implement exactly this order, so the reduction is deterministic
    /// across backends (unlike a flat sequential sum, which SIMD could not
    /// reproduce without running scalar).
    fn sq_sum_blocked(&self, x: &[f32]) -> f32;
}

/// Which backend [`kernels`] selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference.
    Scalar,
    /// Explicit SIMD (AVX2/SSE2 on x86_64).
    Simd,
}

impl Backend {
    /// Stable lowercase name, matching [`Kernels::name`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }
}

/// A caller's typed *request* for a backend, as carried by serve's
/// `InferenceProfile`. Unlike [`Backend`] (the resolved selection), a
/// request may ask for [`BackendChoice::Auto`] — defer to the documented
/// `MMHAND_KERNEL_BACKEND` env fallback, then CPU detection — or for a
/// backend the CPU cannot deliver, in which case resolution falls back to
/// scalar with a warning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Env fallback (`MMHAND_KERNEL_BACKEND`), then CPU detection.
    #[default]
    Auto,
    /// Pin the portable scalar reference.
    Scalar,
    /// Pin the SIMD backend (falls back to scalar when unsupported).
    Simd,
}

impl BackendChoice {
    /// Stable lowercase name (`"auto"`, `"scalar"`, `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Scalar => "scalar",
            BackendChoice::Simd => "simd",
        }
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" | "" => Ok(BackendChoice::Auto),
            "scalar" => Ok(BackendChoice::Scalar),
            "simd" => Ok(BackendChoice::Simd),
            other => Err(format!("unknown kernel backend {other:?} (expected scalar|simd|auto)")),
        }
    }
}

/// The always-available scalar reference backend.
pub fn scalar_kernels() -> &'static dyn Kernels {
    static SCALAR: scalar::ScalarKernels = scalar::ScalarKernels;
    &SCALAR
}

/// The SIMD backend, when this CPU supports it (`None` otherwise — on
/// x86_64 without AVX2 and on every other architecture today).
pub fn simd_kernels() -> Option<&'static dyn Kernels> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        simd::SimdKernels::detect().map(|k| k as &'static dyn Kernels)
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    None
}

struct Selected {
    kern: &'static dyn Kernels,
    backend: Backend,
}

static ACTIVE: OnceLock<Selected> = OnceLock::new();

/// Records the resolved selection in telemetry and on stderr.
fn record(kern: &'static dyn Kernels, backend: Backend, why: &str) -> Selected {
    mmhand_telemetry::gauge("kernel.backend").set(match backend {
        Backend::Scalar => 0.0,
        Backend::Simd => 1.0,
    });
    eprintln!("mmhand-kernels: backend={} ({why})", kern.name());
    Selected { kern, backend }
}

fn selected() -> &'static Selected {
    ACTIVE.get_or_init(|| {
        let (kern, backend, why) = choose();
        record(kern, backend, &why)
    })
}

/// Resolves and pins the process-wide backend from an explicit, typed
/// request (serve's `InferenceProfile` routes through here). The backend is
/// process-global and the first resolver — this call or the first implicit
/// [`kernels`] use — wins; the returned [`Backend`] is therefore the
/// **actual** selection, which can differ from the request when another
/// component selected first or the CPU lacks SIMD support.
/// [`BackendChoice::Auto`] defers to the documented `MMHAND_KERNEL_BACKEND`
/// env fallback, then CPU detection.
pub fn request_backend(choice: BackendChoice) -> Backend {
    ACTIVE
        .get_or_init(|| {
            let (kern, backend, why) = match choice {
                BackendChoice::Auto => choose(),
                BackendChoice::Scalar => {
                    (scalar_kernels(), Backend::Scalar, "pinned by inference profile".into())
                }
                BackendChoice::Simd => match simd_kernels() {
                    Some(k) => (k, Backend::Simd, "pinned by inference profile".into()),
                    None => {
                        eprintln!(
                            "mmhand-kernels: inference profile requested simd but this CPU has \
                             no supported SIMD backend; falling back to scalar"
                        );
                        (
                            scalar_kernels(),
                            Backend::Scalar,
                            "profile requested simd but unavailable".into(),
                        )
                    }
                },
            };
            record(kern, backend, &why)
        })
        .backend
}

/// Resolves the backend: env override first, then CPU detection.
fn choose() -> (&'static dyn Kernels, Backend, String) {
    let request = std::env::var("MMHAND_KERNEL_BACKEND").unwrap_or_default();
    match request.as_str() {
        "scalar" => {
            return (scalar_kernels(), Backend::Scalar, "pinned by MMHAND_KERNEL_BACKEND".into());
        }
        "simd" => match simd_kernels() {
            Some(k) => {
                return (k, Backend::Simd, "pinned by MMHAND_KERNEL_BACKEND".into());
            }
            None => {
                eprintln!(
                    "mmhand-kernels: MMHAND_KERNEL_BACKEND=simd but this CPU has no supported \
                     SIMD backend; falling back to scalar"
                );
                return (
                    scalar_kernels(),
                    Backend::Scalar,
                    "simd requested but unavailable".into(),
                );
            }
        },
        "" | "auto" => {}
        other => {
            eprintln!(
                "mmhand-kernels: unknown MMHAND_KERNEL_BACKEND={other:?} (expected \
                 scalar|simd|auto); auto-detecting"
            );
        }
    }
    match simd_kernels() {
        Some(k) => (k, Backend::Simd, "auto-detected avx2".into()),
        None => (scalar_kernels(), Backend::Scalar, "no SIMD support detected".into()),
    }
}

/// The process-wide kernel backend, selected on first call (env override,
/// then CPU detection — see the module docs) and fixed thereafter.
pub fn kernels() -> &'static dyn Kernels {
    selected().kern
}

/// Which [`Backend`] the process-wide selection resolved to.
pub fn active_backend() -> Backend {
    selected().backend
}

/// Name of the process-wide backend (`"scalar"` or `"simd"`), for logs and
/// per-backend metric names.
pub fn backend_name() -> &'static str {
    selected().kern.name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::{standard_normal, stream_rng};
    use proptest::prelude::*;

    /// Drives a cross-backend comparison when SIMD exists on this machine;
    /// silently passes (scalar-only CPU) otherwise.
    fn both() -> Option<(&'static dyn Kernels, &'static dyn Kernels)> {
        simd_kernels().map(|s| (scalar_kernels(), s))
    }

    fn randn(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| standard_normal(rng)).collect()
    }

    #[test]
    fn selection_is_stable_and_named() {
        let a = kernels().name();
        let b = kernels().name();
        assert_eq!(a, b);
        assert!(a == "scalar" || a == "simd");
        assert_eq!(backend_name(), a);
        assert_eq!(active_backend().name(), a);
    }

    #[test]
    fn qgemm_row_i8_semantics() {
        // k=3, n=2, wt transposed (n, k) row-major; out is overwritten.
        let x = [1i8, -2, 3];
        let wt = [10i8, 20, 30, -1, -2, -3];
        let mut out = [99i32; 2];
        scalar_kernels().qgemm_row_i8(&x, &wt, &mut out, 3, 2);
        assert_eq!(out, [10 - 40 + 90, -1 + 4 - 9]);
    }

    #[test]
    fn backend_choice_parses_and_names() {
        for (s, c) in [
            ("auto", BackendChoice::Auto),
            ("scalar", BackendChoice::Scalar),
            ("simd", BackendChoice::Simd),
        ] {
            assert_eq!(s.parse::<BackendChoice>().unwrap(), c);
            assert_eq!(c.name(), s);
        }
        assert_eq!("".parse::<BackendChoice>().unwrap(), BackendChoice::Auto);
        assert!("avx512".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn request_backend_returns_the_process_selection() {
        // Whatever was pinned first in this process, a request must report
        // the same selection the implicit path sees, and stay stable.
        let b = request_backend(BackendChoice::Auto);
        assert_eq!(b, active_backend());
        assert_eq!(request_backend(BackendChoice::Scalar), b);
    }

    #[test]
    fn scalar_backend_is_always_available() {
        assert_eq!(scalar_kernels().name(), "scalar");
        assert!(scalar_kernels().abt_panel_width() <= ABT_PANEL_MAX);
        if let Some(s) = simd_kernels() {
            assert_eq!(s.name(), "simd");
            assert!(s.abt_panel_width() <= ABT_PANEL_MAX);
        }
    }

    /// The scalar `adam_step` kernel is the pre-refactor optimizer loop
    /// moved verbatim — pin it bitwise against that original dual-indexed
    /// formulation so the move can never drift.
    #[test]
    fn scalar_adam_step_matches_pre_refactor_loop() {
        let mut rng = stream_rng(7, "adam-pin");
        let n = 37;
        let p0 = randn(&mut rng, n);
        let g = randn(&mut rng, n);
        let m0: Vec<f32> = randn(&mut rng, n).iter().map(|v| 0.1 * v).collect();
        let v0: Vec<f32> = randn(&mut rng, n).iter().map(|v| v * v).collect();
        let (beta1, beta2, lr, eps) = (0.9f32, 0.999f32, 3e-4f32, 1e-8f32);
        let t = 17u32;
        let bias1 = 1.0 - beta1.powi(t as i32);
        let bias2 = 1.0 - beta2.powi(t as i32);

        // The original `Adam::step_with_lr` inner loop, exactly as it was.
        let (mut p_ref, mut m_ref, mut v_ref) = (p0.clone(), m0.clone(), v0.clone());
        for i in 0..n {
            let gi = g[i];
            m_ref[i] = beta1 * m_ref[i] + (1.0 - beta1) * gi;
            v_ref[i] = beta2 * v_ref[i] + (1.0 - beta2) * gi * gi;
            let m_hat = m_ref[i] / (1.0 - beta1.powi(t as i32));
            let v_hat = v_ref[i] / (1.0 - beta2.powi(t as i32));
            p_ref[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }

        let (mut p, mut m, mut v) = (p0, m0, v0);
        scalar_kernels().adam_step(&mut p, &g, &mut m, &mut v, beta1, beta2, bias1, bias2, lr, eps);
        for i in 0..n {
            assert_eq!(p[i].to_bits(), p_ref[i].to_bits(), "p[{i}]");
            assert_eq!(m[i].to_bits(), m_ref[i].to_bits(), "m[{i}]");
            assert_eq!(v[i].to_bits(), v_ref[i].to_bits(), "v[{i}]");
        }
    }

    /// Lane `l` of a sample-by-sample buffer filters exactly as the same
    /// signal does alone, on every backend — pinning the lane layout.
    #[test]
    fn iir_cascade_lanes_filters_each_lane_on_its_own() {
        let coeffs = [
            BiquadCoeffs { b: [1.0, 0.4, -1.0], a: [-1.2, 0.5] },
            BiquadCoeffs { b: [0.7, -0.3, 0.2], a: [0.3, 0.2] },
        ];
        let (lanes, rows) = (11, 30);
        let mut rng = stream_rng(5, "iir-lanes-layout");
        let x = randn(&mut rng, lanes * rows);
        for kern in [Some(scalar_kernels()), simd_kernels()].into_iter().flatten() {
            let mut all = x.clone();
            kern.iir_cascade_lanes(&coeffs, 0.5, &mut all, lanes);
            for lane in 0..lanes {
                let mut one: Vec<f32> = x.iter().skip(lane).step_by(lanes).copied().collect();
                scalar_kernels().iir_cascade_lanes(&coeffs, 0.5, &mut one, 1);
                for (t, y) in one.iter().enumerate() {
                    assert_eq!(
                        all[t * lanes + lane].to_bits(),
                        y.to_bits(),
                        "{}: sample {t} of lane {lane}",
                        kern.name()
                    );
                }
            }
        }
    }

    /// The blocked reduction is a reassociation of the flat squared sum: the
    /// value must agree with the sequential sum to float tolerance (the bits
    /// legitimately differ — that is the point of freezing the new order).
    #[test]
    fn sq_sum_blocked_approximates_flat_sum() {
        let mut rng = stream_rng(11, "sqsum-sanity");
        for n in [0usize, 1, 7, 8, 9, 64, 257] {
            let x = randn(&mut rng, n);
            let flat: f32 = x.iter().map(|v| v * v).sum();
            let blocked = scalar_kernels().sq_sum_blocked(&x);
            assert!(
                (blocked - flat).abs() <= 1e-4 * flat.max(1.0),
                "n={n}: blocked {blocked} vs flat {flat}"
            );
        }
    }

    proptest! {
        /// SIMD microkernel output must be bitwise identical (0 ULP) to the
        /// scalar reference, including ragged tails — under either
        /// `sanitize-numerics` feature state (the suite runs in both CI jobs).
        #[test]
        fn gemm_4xn_backends_bitwise_identical(
            kt in 1usize..40, n in 1usize..35, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-gemm");
            let apack = randn(&mut rng, kt * GEMM_MR);
            let b = randn(&mut rng, kt * n);
            let init = randn(&mut rng, 4 * n);
            let mut c_sc = init.clone();
            let mut c_sd = init;
            {
                let (c0, rest) = c_sc.split_at_mut(n);
                let (c1, rest) = rest.split_at_mut(n);
                let (c2, c3) = rest.split_at_mut(n);
                sc.gemm_4xn(&apack, &b, c0, c1, c2, c3, 0, kt, n);
            }
            {
                let (c0, rest) = c_sd.split_at_mut(n);
                let (c1, rest) = rest.split_at_mut(n);
                let (c2, c3) = rest.split_at_mut(n);
                sd.gemm_4xn(&apack, &b, c0, c1, c2, c3, 0, kt, n);
            }
            for (i, (x, y)) in c_sc.iter().zip(&c_sd).enumerate() {
                prop_assert!(x.to_bits() == y.to_bits(), "element {i}: {x} != {y}");
            }
        }

        /// Panel pack+dot must agree bitwise across backends and panel
        /// widths: each output is an independent ascending-k dot product.
        #[test]
        fn abt_panel_backends_bitwise_identical(
            k in 1usize..50, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-abt");
            let wmax = sc.abt_panel_width().max(sd.abt_panel_width());
            let b = randn(&mut rng, wmax * k);
            let a_row = randn(&mut rng, k);
            let mut outs: Vec<Vec<f32>> = Vec::new();
            for kern in [sc, sd] {
                let w = kern.abt_panel_width();
                let mut bpack = vec![0.0f32; w * k];
                // Feed a (wmax, k) B so column j=0..w exists for both widths.
                kern.abt_pack_panel(&b, 0, k, &mut bpack);
                for (kk, chunk) in bpack.chunks(w).enumerate() {
                    for (l, &v) in chunk.iter().enumerate() {
                        prop_assert!(v.to_bits() == b[l * k + kk].to_bits(), "pack {kk},{l}");
                    }
                }
                let mut out = vec![0.0f32; w];
                kern.abt_dot_panel(&a_row, &bpack, &mut out);
                outs.push(out);
            }
            let common = outs[0].len().min(outs[1].len());
            for (l, &v) in outs[0].iter().take(common).enumerate() {
                prop_assert!(
                    v.to_bits() == outs[1][l].to_bits(),
                    "lane {l}: {} != {}", v, outs[1][l]
                );
            }
        }

        /// The int8 GEMM is exact integer arithmetic: backends must agree
        /// exactly (not just bitwise-as-floats) for any shape, including
        /// ragged tails shorter than one 16-lane step.
        #[test]
        fn qgemm_row_i8_backends_exact(
            k in 1usize..80, n in 1usize..20, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-qgemm");
            let mut ri8 = |len: usize| -> Vec<i8> {
                (0..len)
                    .map(|_| (standard_normal(&mut rng) * 64.0).clamp(-127.0, 127.0) as i8)
                    .collect()
            };
            let x = ri8(k);
            let wt = ri8(k * n);
            let mut out_sc = vec![0i32; n];
            let mut out_sd = vec![-1i32; n]; // overwrite semantics: prefill differs
            sc.qgemm_row_i8(&x, &wt, &mut out_sc, k, n);
            sd.qgemm_row_i8(&x, &wt, &mut out_sd, k, n);
            prop_assert_eq!(&out_sc, &out_sd);
        }

        /// A full FFT stage sweep (all stages of a transform) must be
        /// bitwise identical across backends.
        #[test]
        fn fft_stage_backends_bitwise_identical(
            log_n in 1u32..10, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let n = 1usize << log_n;
            let mut rng = stream_rng(seed, "kern-fft");
            let sig: Vec<Complex> = (0..n)
                .map(|_| Complex::new(standard_normal(&mut rng), standard_normal(&mut rng)))
                .collect();
            // Twiddles with the same recurrence the dsp plan uses.
            let mut x_sc = sig.clone();
            let mut x_sd = sig;
            let mut len = 2;
            while len <= n {
                let half = len / 2;
                let ang = -2.0 * std::f32::consts::PI / len as f32;
                let wlen = Complex::from_angle(ang);
                let mut tw = Vec::with_capacity(half);
                let mut w = Complex::ONE;
                for _ in 0..half {
                    tw.push(w);
                    w *= wlen;
                }
                sc.fft_stage(&mut x_sc, &tw, len);
                sd.fft_stage(&mut x_sd, &tw, len);
                len <<= 1;
            }
            for (i, (a, b)) in x_sc.iter().zip(&x_sd).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "bin {i}: {a:?} != {b:?}"
                );
            }
        }

        /// Lane-parallel IIR cascades must be bitwise identical (0 ULP)
        /// across backends for lane counts 1–40 — full 8-lane registers,
        /// multi-register passes and ragged tails — and any section count
        /// up to the cap.
        #[test]
        fn iir_cascade_backends_bitwise_identical(
            lanes in 1usize..41, rows in 0usize..80, sections in 1usize..=MAX_BIQUADS,
            seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-iir");
            // Random but stable-ish sections: poles well inside the circle,
            // and every feed-forward tap non-trivial (with the band-pass's
            // b1 = 0 a reordered `b1·y − a1·out + s2` keeps its bits).
            let coeffs: Vec<BiquadCoeffs> = (0..sections)
                .map(|_| {
                    let r = 0.9 * (0.5 + 0.5 * standard_normal(&mut rng).tanh());
                    let th = standard_normal(&mut rng);
                    let b = [0; 3].map(|_| standard_normal(&mut rng));
                    BiquadCoeffs { b, a: [-2.0 * r * th.cos(), r * r] }
                })
                .collect();
            let gain = 0.25;
            let x = randn(&mut rng, rows * lanes);
            let mut x_sc = x.clone();
            let mut x_sd = x;
            sc.iir_cascade_lanes(&coeffs, gain, &mut x_sc, lanes);
            sd.iir_cascade_lanes(&coeffs, gain, &mut x_sd, lanes);
            for (i, (a, b)) in x_sc.iter().zip(&x_sd).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "sample {} of lane {}: {a} != {b}", i / lanes, i % lanes
                );
            }
        }

        /// Elementwise activation backward kernels must be bitwise identical
        /// across backends, including ragged tails and ReLU's NaN-keeping
        /// `y <= 0` branch semantics (exercised via injected specials).
        #[test]
        fn activation_backward_backends_bitwise_identical(
            n in 1usize..70, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-act-bwd");
            let mut y = randn(&mut rng, n);
            // Exact zeros, negative zero, and NaN are the branch edge cases.
            if n > 2 {
                y[0] = 0.0;
                y[1] = -0.0;
                y[2] = f32::NAN;
            }
            let dy = randn(&mut rng, n);
            for apply in [Kernels::relu_backward, Kernels::sigmoid_backward, Kernels::tanh_backward]
            {
                let mut g_sc = dy.clone();
                let mut g_sd = dy.clone();
                apply(sc, &mut g_sc, &y);
                apply(sd, &mut g_sd, &y);
                for (i, (a, b)) in g_sc.iter().zip(&g_sd).enumerate() {
                    prop_assert!(a.to_bits() == b.to_bits(), "element {i}: {a} != {b}");
                }
            }
        }

        /// Gradient accumulation must be bitwise identical across backends.
        #[test]
        fn axpy_backends_bitwise_identical(n in 1usize..80, seed in 0u64..500) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-axpy");
            let acc = randn(&mut rng, n);
            let g = randn(&mut rng, n);
            let mut a_sc = acc.clone();
            let mut a_sd = acc;
            sc.axpy(&mut a_sc, &g);
            sd.axpy(&mut a_sd, &g);
            for (i, (a, b)) in a_sc.iter().zip(&a_sd).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "element {i}: {a} != {b}");
            }
        }

        /// One LayerNorm backward row must be bitwise identical across
        /// backends in all four outputs, for any feature width (vector body
        /// plus ragged tail) — the row sums are sequential on both paths.
        #[test]
        fn layer_norm_backward_backends_bitwise_identical(
            f in 1usize..70, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-ln-bwd");
            let xr = randn(&mut rng, f);
            let dyr = randn(&mut rng, f);
            let gamma = randn(&mut rng, f);
            let mean = xr.iter().sum::<f32>() / f as f32;
            let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let rstd = 1.0 / (var + 1e-5).sqrt();
            let dg0 = randn(&mut rng, f);
            let db0 = randn(&mut rng, f);
            let run = |kern: &dyn Kernels| {
                let mut dxhat = vec![0.0f32; f];
                let mut dx = vec![0.0f32; f];
                let mut dgamma = dg0.clone();
                let mut dbeta = db0.clone();
                kern.layer_norm_backward_row(
                    &xr, &dyr, &gamma, mean, rstd, &mut dxhat, &mut dx, &mut dgamma,
                    &mut dbeta,
                );
                (dxhat, dx, dgamma, dbeta)
            };
            let (xh_sc, dx_sc, dg_sc, db_sc) = run(sc);
            let (xh_sd, dx_sd, dg_sd, db_sd) = run(sd);
            for (name, a, b) in [
                ("dxhat", &xh_sc, &xh_sd),
                ("dx", &dx_sc, &dx_sd),
                ("dgamma", &dg_sc, &dg_sd),
                ("dbeta", &db_sc, &db_sd),
            ] {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert!(x.to_bits() == y.to_bits(), "{name}[{i}]: {x} != {y}");
                }
            }
        }

        /// The fused Adam update must be bitwise identical across backends
        /// in params and both moments — `sqrt`/`div` are correctly rounded,
        /// so the vector lanes reproduce the scalar sequence exactly.
        #[test]
        fn adam_step_backends_bitwise_identical(
            n in 1usize..80, step in 1u32..200, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-adam");
            let p0 = randn(&mut rng, n);
            let g = randn(&mut rng, n);
            let m0: Vec<f32> = randn(&mut rng, n).iter().map(|v| 0.1 * v).collect();
            let v0: Vec<f32> = randn(&mut rng, n).iter().map(|v| v * v).collect();
            let (beta1, beta2, lr, eps) = (0.9f32, 0.999f32, 1e-3f32, 1e-8f32);
            let bias1 = 1.0 - beta1.powi(step as i32);
            let bias2 = 1.0 - beta2.powi(step as i32);
            let run = |kern: &dyn Kernels| {
                let (mut p, mut m, mut v) = (p0.clone(), m0.clone(), v0.clone());
                kern.adam_step(&mut p, &g, &mut m, &mut v, beta1, beta2, bias1, bias2, lr, eps);
                (p, m, v)
            };
            let (p_sc, m_sc, v_sc) = run(sc);
            let (p_sd, m_sd, v_sd) = run(sd);
            for (name, a, b) in
                [("p", &p_sc, &p_sd), ("m", &m_sc, &m_sd), ("v", &v_sc, &v_sd)]
            {
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    prop_assert!(x.to_bits() == y.to_bits(), "{name}[{i}]: {x} != {y}");
                }
            }
        }

        /// The blocked squared-sum reduction must be bitwise identical across
        /// backends for every length (full blocks plus any ragged tail).
        #[test]
        fn sq_sum_blocked_backends_bitwise_identical(
            n in 0usize..200, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-sqsum");
            let x = randn(&mut rng, n);
            let a = sc.sq_sum_blocked(&x);
            let b = sd.sq_sum_blocked(&x);
            prop_assert!(a.to_bits() == b.to_bits(), "{a} != {b}");
        }

        /// LBS skinning must be bitwise identical across backends: the SIMD
        /// path evaluates the same quaternion-rotation formula lanewise.
        #[test]
        fn lbs_backends_bitwise_identical(
            nverts in 1usize..60, njoints in 2usize..21, seed in 0u64..500,
        ) {
            let Some((sc, sd)) = both() else { return Ok(()); };
            let mut rng = stream_rng(seed, "kern-lbs");
            let v3 = |rng: &mut rand::rngs::StdRng| {
                Vec3::new(
                    0.1 * standard_normal(rng),
                    0.1 * standard_normal(rng),
                    0.1 * standard_normal(rng),
                )
            };
            let verts: Vec<Vec3> = (0..nverts).map(|_| v3(&mut rng)).collect();
            let rest: Vec<Vec3> = (0..njoints).map(|_| v3(&mut rng)).collect();
            let posed: Vec<Vec3> = (0..njoints).map(|_| v3(&mut rng)).collect();
            let rot: Vec<Quaternion> = (0..njoints)
                .map(|_| Quaternion::from_rotation_vector(v3(&mut rng) * 10.0))
                .collect();
            let attach: Vec<SkinAttachment> = (0..nverts)
                .map(|i| {
                    let j0 = (i * 7) % njoints;
                    let j1 = (i * 13 + 1) % njoints;
                    let lone = i % 3 == 0;
                    SkinAttachment {
                        joints: [j0 as u32, j1 as u32],
                        weights: if lone { [1.0, 0.0] } else { [0.7, 0.3] },
                    }
                })
                .collect();
            let mut out_sc = Vec::new();
            let mut out_sd = vec![Vec3::ZERO; 3]; // must be replaced
            sc.lbs_skin(&verts, &attach, &rest, &posed, &rot, &mut out_sc);
            sd.lbs_skin(&verts, &attach, &rest, &posed, &rot, &mut out_sd);
            prop_assert_eq!(out_sc.len(), nverts);
            prop_assert_eq!(out_sd.len(), nverts);
            for (i, (a, b)) in out_sc.iter().zip(&out_sd).enumerate() {
                prop_assert!(
                    a.x.to_bits() == b.x.to_bits()
                        && a.y.to_bits() == b.y.to_bits()
                        && a.z.to_bits() == b.z.to_bits(),
                    "vertex {i}: {a} != {b}"
                );
            }
        }
    }
}
