//! Explicit SIMD backend for x86_64: AVX2 for the throughput kernels
//! (GEMM, FFT, the lane-parallel IIR cascade), SSE2 for LBS.
//!
//! **Bitwise contract with the scalar reference:** no FMA, no reduction
//! reassociation. Vector lanes only evaluate *independent* output elements
//! (GEMM columns, FFT butterflies, independent filter signals, the x/y/z
//! vertex components) in parallel; each element sees exactly the
//! scalar operation sequence. The one tolerated difference — the FFT
//! butterfly's imaginary part sums its two products in swapped order — is
//! still bitwise identical because IEEE-754 addition of finite values is
//! commutative. The cross-backend proptests in `lib.rs` pin all of this at
//! a ULP distance of zero.

use crate::scalar::ScalarKernels;
use crate::{BiquadCoeffs, Kernels, SkinAttachment, GEMM_MR, MAX_BIQUADS, SQ_SUM_LANES};
use mmhand_math::{Complex, Quaternion, Vec3};
use std::arch::x86_64::*;

/// AVX2/SSE2 implementation of every dispatched kernel. The private field
/// keeps every other module from building one, so a value exists only
/// after [`SimdKernels::detect`] has seen AVX2 on this CPU.
pub(crate) struct SimdKernels {
    _avx2_detected: (),
}

impl SimdKernels {
    /// The backend, when this CPU supports AVX2 (which implies every SSE
    /// level the narrow kernels use).
    pub(crate) fn detect() -> Option<&'static SimdKernels> {
        static SIMD: SimdKernels = SimdKernels { _avx2_detected: () };
        std::arch::is_x86_feature_detected!("avx2").then_some(&SIMD)
    }
}

/// Width of the AVX2 `A·Bᵀ` column panel: one `f32x8` register.
const ABT_W: usize = 8;

impl Kernels for SimdKernels {
    fn name(&self) -> &'static str {
        "simd"
    }

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
    ) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { gemm_4xn_avx2(apack, b, c0, c1, c2, c3, kb, kend, n) }
    }

    fn abt_panel_width(&self) -> usize {
        ABT_W
    }

    fn abt_pack_panel(&self, b: &[f32], j: usize, k: usize, bpack: &mut [f32]) {
        // Strided gather — no SIMD win; plain scalar copy at width 8.
        for kk in 0..k {
            let oct = &mut bpack[kk * ABT_W..kk * ABT_W + ABT_W];
            for (l, dst) in oct.iter_mut().enumerate() {
                *dst = b[(j + l) * k + kk];
            }
        }
    }

    fn abt_dot_panel(&self, a_row: &[f32], bpack: &[f32], out: &mut [f32]) {
        debug_assert!(out.len() >= ABT_W);
        debug_assert!(bpack.len() >= a_row.len() * ABT_W);
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { abt_dot_panel_avx2(a_row, bpack, out) }
    }

    fn fft_stage(&self, x: &mut [Complex], tw: &[Complex], len: usize) {
        match len / 2 {
            // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
            // succeeded (see `SimdKernels::detect`).
            half if half >= 4 => unsafe { fft_stage_avx2(x, tw, len) },
            // SAFETY: AVX2 detection succeeded before this value was built,
            // and AVX2 implies the SSE3 this 4-point stage uses.
            2 => unsafe { fft_stage2_sse3(x, tw) },
            // SAFETY: AVX2 detection succeeded before this value was built,
            // and AVX2 implies the SSE3 this 2-point stage uses.
            1 => unsafe { fft_stage1_sse3(x, tw) },
            _ => ScalarKernels.fft_stage(x, tw, len),
        }
    }

    fn iir_cascade_lanes(&self, coeffs: &[BiquadCoeffs], gain: f32, x: &mut [f32], lanes: usize) {
        debug_assert!(coeffs.len() <= MAX_BIQUADS);
        debug_assert!(x.len().is_multiple_of(lanes), "x must hold whole rows of {lanes} lanes");
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`); the kernel bounds every
        // access by the whole rows of `x` itself.
        unsafe { iir_cascade_lanes_avx2(coeffs, gain, x, lanes) }
    }

    fn lbs_skin(
        &self,
        verts: &[Vec3],
        attachments: &[SkinAttachment],
        rest_joints: &[Vec3],
        posed_joints: &[Vec3],
        global_rot: &[Quaternion],
        out: &mut Vec<Vec3>,
    ) {
        // SAFETY: SSE2 is part of the x86_64 baseline, unconditionally
        // present on any CPU this module compiles for.
        unsafe { lbs_skin_sse2(verts, attachments, rest_joints, posed_joints, global_rot, out) }
    }

    fn qgemm_row_i8(&self, x: &[i8], wt: &[i8], out: &mut [i32], k: usize, n: usize) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { qgemm_row_i8_avx2(x, wt, out, k, n) }
    }

    fn relu_backward(&self, dy: &mut [f32], y: &[f32]) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { relu_backward_avx2(dy, y) }
    }

    fn sigmoid_backward(&self, dy: &mut [f32], y: &[f32]) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { sigmoid_backward_avx2(dy, y) }
    }

    fn tanh_backward(&self, dy: &mut [f32], y: &[f32]) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { tanh_backward_avx2(dy, y) }
    }

    fn axpy(&self, acc: &mut [f32], g: &[f32]) {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { axpy_avx2(acc, g) }
    }

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
    ) {
        debug_assert!(
            dyr.len() >= xr.len()
                && gamma.len() >= xr.len()
                && dxhat.len() >= xr.len()
                && dx.len() >= xr.len()
                && dgamma.len() >= xr.len()
                && dbeta.len() >= xr.len()
        );
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`); the slice-length
        // preconditions are debug-asserted above.
        unsafe {
            layer_norm_backward_row_avx2(xr, dyr, gamma, mean, rstd, dxhat, dx, dgamma, dbeta)
        }
    }

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
    ) {
        debug_assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len()
        );
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`); the equal-length
        // precondition is debug-asserted above.
        unsafe { adam_step_avx2(value, grad, m, v, beta1, beta2, bias1, bias2, lr, eps) }
    }

    fn sq_sum_blocked(&self, x: &[f32]) -> f32 {
        // SAFETY: `SimdKernels` exists only on CPUs where AVX2 detection
        // succeeded (see `SimdKernels::detect`).
        unsafe { sq_sum_blocked_avx2(x) }
    }
}

/// Register-tiled 4×8 GEMM microkernel: four `C`-row accumulators live in
/// ymm registers across the whole k-tile, so each `C` element is loaded and
/// stored once per tile instead of once per k-step. Per element the
/// accumulation is still `acc += a·b` in ascending-k order (separate
/// multiply and add — never fused), bitwise matching the scalar kernel.
///
/// SAFETY: caller must ensure the CPU supports AVX2; slice lengths must
/// satisfy the packed-GEMM layout (`apack` ≥ `(kend-kb)·GEMM_MR`, `b` ≥
/// `kend·n`, each `C` row ≥ `n`), which the debug asserts spot-check.
#[allow(clippy::too_many_arguments)] // mirrors the trait method's signature
#[target_feature(enable = "avx2")]
unsafe fn gemm_4xn_avx2(
    apack: &[f32],
    b: &[f32],
    c0: &mut [f32],
    c1: &mut [f32],
    c2: &mut [f32],
    c3: &mut [f32],
    kb: usize,
    kend: usize,
    n: usize,
) {
    let kt = kend - kb;
    debug_assert!(apack.len() >= kt * GEMM_MR);
    debug_assert!(b.len() >= kend * n);
    debug_assert!(c0.len() >= n && c1.len() >= n && c2.len() >= n && c3.len() >= n);
    let ap = apack.as_ptr();
    let bp = b.as_ptr();
    let mut j = 0;
    while j + 8 <= n {
        let mut acc0 = _mm256_loadu_ps(c0.as_ptr().add(j));
        let mut acc1 = _mm256_loadu_ps(c1.as_ptr().add(j));
        let mut acc2 = _mm256_loadu_ps(c2.as_ptr().add(j));
        let mut acc3 = _mm256_loadu_ps(c3.as_ptr().add(j));
        for t in 0..kt {
            let aq = ap.add(t * GEMM_MR);
            let bv = _mm256_loadu_ps(bp.add((kb + t) * n + j));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*aq), bv));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*aq.add(1)), bv));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*aq.add(2)), bv));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*aq.add(3)), bv));
        }
        _mm256_storeu_ps(c0.as_mut_ptr().add(j), acc0);
        _mm256_storeu_ps(c1.as_mut_ptr().add(j), acc1);
        _mm256_storeu_ps(c2.as_mut_ptr().add(j), acc2);
        _mm256_storeu_ps(c3.as_mut_ptr().add(j), acc3);
        j += 8;
    }
    // Ragged tail columns: scalar, per-element ascending-k.
    for jj in j..n {
        let (mut s0, mut s1, mut s2, mut s3) = (c0[jj], c1[jj], c2[jj], c3[jj]);
        for t in 0..kt {
            let aq = &apack[t * GEMM_MR..t * GEMM_MR + GEMM_MR];
            let bv = b[(kb + t) * n + jj];
            s0 += aq[0] * bv;
            s1 += aq[1] * bv;
            s2 += aq[2] * bv;
            s3 += aq[3] * bv;
        }
        c0[jj] = s0;
        c1[jj] = s1;
        c2[jj] = s2;
        c3[jj] = s3;
    }
}

/// Eight independent dot products, one per lane of a single accumulator:
/// lane `l` sums `a[kk]·panel[kk][l]` in ascending-k order from zero.
///
/// SAFETY: caller must ensure AVX2 plus `bpack.len() ≥ a_row.len()·8` and
/// `out.len() ≥ 8` (debug-asserted at the call site).
#[target_feature(enable = "avx2")]
unsafe fn abt_dot_panel_avx2(a_row: &[f32], bpack: &[f32], out: &mut [f32]) {
    let pp = bpack.as_ptr();
    let mut acc = _mm256_setzero_ps();
    for (kk, &av) in a_row.iter().enumerate() {
        let pv = _mm256_loadu_ps(pp.add(kk * ABT_W));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), pv));
    }
    _mm256_storeu_ps(out.as_mut_ptr(), acc);
}

/// Radix-2 butterfly stage, four butterflies per iteration on interleaved
/// complex data (`Complex` is `repr(C)`, so a `[Complex]` is `[re, im]`
/// pairs). The twiddle product uses the dup/swap/addsub idiom:
/// even lanes compute `v.re·t.re − v.im·t.im`, odd lanes
/// `v.im·t.re + v.re·t.im` — the same two products as `Complex::mul`,
/// summed with IEEE-commutative addition, hence bitwise identical.
///
/// SAFETY: caller must ensure AVX2, `x.len()` a multiple of `len`,
/// `tw.len() ≥ len/2`, and `len/2 ≥ 4`.
#[target_feature(enable = "avx2")]
unsafe fn fft_stage_avx2(x: &mut [Complex], tw: &[Complex], len: usize) {
    let n = x.len();
    let half = len / 2;
    debug_assert!(half >= 4 && tw.len() >= half && n.is_multiple_of(len));
    let xf = x.as_mut_ptr() as *mut f32;
    let twf = tw.as_ptr() as *const f32;
    let mut i = 0;
    while i < n {
        let mut j = 0;
        while j < half {
            let u = _mm256_loadu_ps(xf.add(2 * (i + j)));
            let v = _mm256_loadu_ps(xf.add(2 * (i + j + half)));
            let t = _mm256_loadu_ps(twf.add(2 * j));
            let tre = _mm256_moveldup_ps(t);
            let tim = _mm256_movehdup_ps(t);
            let vswap = _mm256_permute_ps::<0b1011_0001>(v);
            let prod = _mm256_addsub_ps(_mm256_mul_ps(v, tre), _mm256_mul_ps(vswap, tim));
            _mm256_storeu_ps(xf.add(2 * (i + j)), _mm256_add_ps(u, prod));
            _mm256_storeu_ps(xf.add(2 * (i + j + half)), _mm256_sub_ps(u, prod));
            j += 4;
        }
        i += len;
    }
}

/// The `len == 4` stage (two butterflies per block): one 128-bit lane pair
/// per block, same dup/swap/addsub twiddle product as the AVX2 stage.
///
/// SAFETY: caller must ensure SSE3 (implied by the AVX2 detection gating
/// this backend), `x.len()` a multiple of 4 and `tw.len() ≥ 2`.
#[target_feature(enable = "sse3")]
unsafe fn fft_stage2_sse3(x: &mut [Complex], tw: &[Complex]) {
    let n = x.len();
    debug_assert!(tw.len() >= 2 && n.is_multiple_of(4));
    let xf = x.as_mut_ptr() as *mut f32;
    let twf = tw.as_ptr() as *const f32;
    let t = _mm_loadu_ps(twf);
    let tre = _mm_moveldup_ps(t);
    let tim = _mm_movehdup_ps(t);
    let mut i = 0;
    while i < n {
        let u = _mm_loadu_ps(xf.add(2 * i));
        let v = _mm_loadu_ps(xf.add(2 * (i + 2)));
        let vswap = _mm_shuffle_ps::<0b10_11_00_01>(v, v);
        let prod = _mm_addsub_ps(_mm_mul_ps(v, tre), _mm_mul_ps(vswap, tim));
        _mm_storeu_ps(xf.add(2 * i), _mm_add_ps(u, prod));
        _mm_storeu_ps(xf.add(2 * (i + 2)), _mm_sub_ps(u, prod));
        i += 4;
    }
}

/// The `len == 2` stage (one butterfly per block): a whole block — `u` and
/// `v` interleaved — fits one 128-bit load. The twiddle product runs over
/// both halves (the `u` half is discarded), then `u ± v·t` is assembled
/// with a single cross-half shuffle.
///
/// SAFETY: caller must ensure SSE3 (implied by the AVX2 detection gating
/// this backend), `x.len()` a multiple of 2 and `tw.len() ≥ 1`.
#[target_feature(enable = "sse3")]
unsafe fn fft_stage1_sse3(x: &mut [Complex], tw: &[Complex]) {
    let n = x.len();
    debug_assert!(!tw.is_empty() && n.is_multiple_of(2));
    let xf = x.as_mut_ptr() as *mut f32;
    let t = _mm_setr_ps(tw[0].re, tw[0].im, tw[0].re, tw[0].im);
    let tre = _mm_moveldup_ps(t);
    let tim = _mm_movehdup_ps(t);
    let mut i = 0;
    while i < n {
        let a = _mm_loadu_ps(xf.add(2 * i));
        let aswap = _mm_shuffle_ps::<0b10_11_00_01>(a, a);
        let prod = _mm_addsub_ps(_mm_mul_ps(a, tre), _mm_mul_ps(aswap, tim));
        let u = _mm_movelh_ps(a, a);
        let p = _mm_movehl_ps(prod, prod);
        let res = _mm_shuffle_ps::<0b11_10_01_00>(_mm_add_ps(u, p), _mm_sub_ps(u, p));
        _mm_storeu_ps(xf.add(2 * i), res);
        i += 2;
    }
}

/// Full 8-lane groups filtered per pass: four registers (32 lanes, one
/// virtual antenna's chirps in the cube) give four independent recurrences
/// per section to overlap the mul→add latency.
const IIR_REGS: usize = 4;

/// Rows of a masked tail (fewer than 8 lanes) loaded ahead of their stores.
const IIR_TAIL_ROWS: usize = 16;

/// Lane-parallel biquad cascade over a sample-by-sample buffer: each ymm
/// lane is one independent signal running the exact scalar per-sample,
/// per-section operation sequence (separate multiply and add/sub — never
/// fused). Full 8-lane groups go up to [`IIR_REGS`] registers per pass; a
/// ragged group of fewer than 8 lanes runs masked, its idle lanes filtering
/// zeros that are never stored.
///
/// SAFETY: caller must ensure AVX2. Every access stays below
/// `rows · lanes ≤ x.len()`, and the section state is indexed with bounds
/// checks, so an over-long cascade panics instead of overrunning.
#[target_feature(enable = "avx2")]
unsafe fn iir_cascade_lanes_avx2(coeffs: &[BiquadCoeffs], gain: f32, x: &mut [f32], lanes: usize) {
    let rows = x.len().checked_div(lanes).unwrap_or(0);
    let xp = x.as_mut_ptr();
    let g = _mm256_set1_ps(gain);
    let mut l0 = 0;
    while lanes - l0 >= 8 {
        let regs = ((lanes - l0) / 8).min(IIR_REGS);
        match regs {
            4 => iir_lanes_avx2::<4>(coeffs, g, xp, rows, lanes, l0),
            3 => iir_lanes_avx2::<3>(coeffs, g, xp, rows, lanes, l0),
            2 => iir_lanes_avx2::<2>(coeffs, g, xp, rows, lanes, l0),
            _ => iir_lanes_avx2::<1>(coeffs, g, xp, rows, lanes, l0),
        }
        l0 += 8 * regs;
    }
    if l0 < lanes {
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((lanes - l0) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut s1 = [[_mm256_setzero_ps(); 1]; MAX_BIQUADS];
        let mut s2 = [[_mm256_setzero_ps(); 1]; MAX_BIQUADS];
        let mut stage = [[_mm256_setzero_ps(); 1]; IIR_TAIL_ROWS];
        let mut t0 = 0;
        while t0 < rows {
            let chunk = &mut stage[..(rows - t0).min(IIR_TAIL_ROWS)];
            // Load a chunk of rows before storing any: with fewer than 8
            // lanes a row's masked store window overlaps the next rows'
            // load windows, and storing row by row would chain every
            // sample's cascade through memory.
            for (i, y) in chunk.iter_mut().enumerate() {
                y[0] = _mm256_mul_ps(_mm256_maskload_ps(xp.add((t0 + i) * lanes + l0), live), g);
            }
            for y in chunk.iter_mut() {
                iir_sections_avx2(coeffs, y, &mut s1, &mut s2);
            }
            for (i, y) in chunk.iter().enumerate() {
                _mm256_maskstore_ps(xp.add((t0 + i) * lanes + l0), live, y[0]);
            }
            t0 += chunk.len();
        }
    }
}

/// Lanes `[l0, l0 + 8·R)` of every row through the whole cascade, `R`
/// registers at a time.
///
/// SAFETY: caller must ensure AVX2, `l0 + 8·R ≤ lanes` and
/// `rows · lanes` within the buffer behind `xp`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn iir_lanes_avx2<const R: usize>(
    coeffs: &[BiquadCoeffs],
    g: __m256,
    xp: *mut f32,
    rows: usize,
    lanes: usize,
    l0: usize,
) {
    let mut s1 = [[_mm256_setzero_ps(); R]; MAX_BIQUADS];
    let mut s2 = [[_mm256_setzero_ps(); R]; MAX_BIQUADS];
    for t in 0..rows {
        let p = xp.add(t * lanes + l0);
        let mut y = [_mm256_setzero_ps(); R];
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = _mm256_mul_ps(_mm256_loadu_ps(p.add(8 * r)), g);
        }
        iir_sections_avx2(coeffs, &mut y, &mut s1, &mut s2);
        for (r, yr) in y.iter().enumerate() {
            _mm256_storeu_ps(p.add(8 * r), *yr);
        }
    }
}

/// One sample of `R` registers through every section, in the scalar
/// order: `out = b0·y + s1`, `s1 = b1·y − a1·out + s2`, `s2 = b2·y − a2·out`.
///
/// SAFETY: caller must ensure AVX2; `coeffs.len() > MAX_BIQUADS` panics on
/// the bounds-checked state index.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn iir_sections_avx2<const R: usize>(
    coeffs: &[BiquadCoeffs],
    y: &mut [__m256; R],
    s1: &mut [[__m256; R]; MAX_BIQUADS],
    s2: &mut [[__m256; R]; MAX_BIQUADS],
) {
    for (s, c) in coeffs.iter().enumerate() {
        let (b0, b1, b2) = (_mm256_set1_ps(c.b[0]), _mm256_set1_ps(c.b[1]), _mm256_set1_ps(c.b[2]));
        let (a1, a2) = (_mm256_set1_ps(c.a[0]), _mm256_set1_ps(c.a[1]));
        for r in 0..R {
            let out = _mm256_add_ps(_mm256_mul_ps(b0, y[r]), s1[s][r]);
            s1[s][r] = _mm256_add_ps(
                _mm256_sub_ps(_mm256_mul_ps(b1, y[r]), _mm256_mul_ps(a1, out)),
                s2[s][r],
            );
            s2[s][r] = _mm256_sub_ps(_mm256_mul_ps(b2, y[r]), _mm256_mul_ps(a2, out));
            y[r] = out;
        }
    }
}

/// Quantized int8 dot-product rows: 16 k-steps per iteration, each i8 pair
/// sign-extended to i16 (`vpmovsxbw`) and multiply-accumulated pairwise
/// into 8 i32 lanes (`vpmaddwd` — products ≤ 127², so the pairwise i32 sum
/// is exact), then a horizontal add and a scalar ragged tail. All
/// arithmetic is exact integer arithmetic, so lane order is free and the
/// result is bitwise identical to the scalar reference by construction.
///
/// SAFETY: caller must ensure AVX2 plus `x.len() ≥ k`, `wt.len() ≥ k·n`,
/// `out.len() ≥ n` (debug-asserted).
#[target_feature(enable = "avx2")]
unsafe fn qgemm_row_i8_avx2(x: &[i8], wt: &[i8], out: &mut [i32], k: usize, n: usize) {
    debug_assert!(x.len() >= k && wt.len() >= k * n && out.len() >= n);
    let xp = x.as_ptr();
    for (j, o) in out.iter_mut().take(n).enumerate() {
        let wp = wt.as_ptr().add(j * k);
        let mut acc = _mm256_setzero_si256();
        let mut kk = 0;
        while kk + 16 <= k {
            let xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(xp.add(kk) as *const __m128i));
            let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(wp.add(kk) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, wv));
            kk += 16;
        }
        // Horizontal sum of the 8 i32 lanes.
        let s = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
        let mut sum = _mm_cvtsi128_si32(s);
        for t in kk..k {
            sum += x[t] as i32 * wt[j * k + t] as i32;
        }
        *o = sum;
    }
}

/// ReLU backward, eight elements per iteration: `dy` is kept where the
/// forward output is strictly positive and zeroed where `y ≤ 0`. The mask
/// is `NLE` (not-less-or-equal, unordered) so a NaN forward output keeps
/// its upstream gradient — exactly the scalar branch `if y <= 0.0`, which
/// is false for NaN.
///
/// SAFETY: caller must ensure the CPU supports AVX2. Operates on
/// `min(dy.len(), y.len())` elements, matching the scalar zip.
#[target_feature(enable = "avx2")]
unsafe fn relu_backward_avx2(dy: &mut [f32], y: &[f32]) {
    let n = dy.len().min(y.len());
    let dp = dy.as_mut_ptr();
    let yp = y.as_ptr();
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let yv = _mm256_loadu_ps(yp.add(i));
        let dv = _mm256_loadu_ps(dp.add(i));
        let keep = _mm256_cmp_ps::<_CMP_NLE_UQ>(yv, zero);
        _mm256_storeu_ps(dp.add(i), _mm256_and_ps(dv, keep));
        i += 8;
    }
    for j in i..n {
        if y[j] <= 0.0 {
            dy[j] = 0.0;
        }
    }
}

/// Sigmoid backward, eight independent elements per iteration:
/// `dy *= y·(1 − y)` with the scalar operation order (`1 − y` first, then
/// the two multiplies).
///
/// SAFETY: caller must ensure the CPU supports AVX2. Operates on
/// `min(dy.len(), y.len())` elements, matching the scalar zip.
#[target_feature(enable = "avx2")]
unsafe fn sigmoid_backward_avx2(dy: &mut [f32], y: &[f32]) {
    let n = dy.len().min(y.len());
    let dp = dy.as_mut_ptr();
    let yp = y.as_ptr();
    let one = _mm256_set1_ps(1.0);
    let mut i = 0;
    while i + 8 <= n {
        let yv = _mm256_loadu_ps(yp.add(i));
        let dv = _mm256_loadu_ps(dp.add(i));
        let deriv = _mm256_mul_ps(yv, _mm256_sub_ps(one, yv));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(dv, deriv));
        i += 8;
    }
    for j in i..n {
        dy[j] *= y[j] * (1.0 - y[j]);
    }
}

/// Tanh backward, eight independent elements per iteration:
/// `dy *= 1 − y²` with the scalar operation order (square first, then the
/// subtraction and the multiply).
///
/// SAFETY: caller must ensure the CPU supports AVX2. Operates on
/// `min(dy.len(), y.len())` elements, matching the scalar zip.
#[target_feature(enable = "avx2")]
unsafe fn tanh_backward_avx2(dy: &mut [f32], y: &[f32]) {
    let n = dy.len().min(y.len());
    let dp = dy.as_mut_ptr();
    let yp = y.as_ptr();
    let one = _mm256_set1_ps(1.0);
    let mut i = 0;
    while i + 8 <= n {
        let yv = _mm256_loadu_ps(yp.add(i));
        let dv = _mm256_loadu_ps(dp.add(i));
        let deriv = _mm256_sub_ps(one, _mm256_mul_ps(yv, yv));
        _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(dv, deriv));
        i += 8;
    }
    for j in i..n {
        dy[j] *= 1.0 - y[j] * y[j];
    }
}

/// Gradient accumulation `acc += g`, eight independent elements per
/// iteration — one IEEE addition per element, same as scalar.
///
/// SAFETY: caller must ensure the CPU supports AVX2. Operates on
/// `min(acc.len(), g.len())` elements, matching the scalar zip.
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(acc: &mut [f32], g: &[f32]) {
    let n = acc.len().min(g.len());
    let ap = acc.as_mut_ptr();
    let gp = g.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let av = _mm256_loadu_ps(ap.add(i));
        let gv = _mm256_loadu_ps(gp.add(i));
        _mm256_storeu_ps(ap.add(i), _mm256_add_ps(av, gv));
        i += 8;
    }
    for j in i..n {
        acc[j] += g[j];
    }
}

/// One LayerNorm backward row in three passes: the element-wise work
/// (`dxhat`, `dgamma`, `dbeta`, and the final `dx`) runs eight lanes wide,
/// while the two row reductions (`Σd`, `Σd·x̂`) stay a sequential scalar
/// loop in ascending `i` — reassociating them would break the bitwise
/// contract. The scalar reference computes `x̂` and `d` once per element;
/// recomputing `x̂` in the reduction pass reruns the identical `sub`/`mul`
/// pair on identical inputs, so the bits cannot differ.
///
/// SAFETY: caller must ensure the CPU supports AVX2 and that every slice
/// holds at least `xr.len()` elements (debug-asserted at the call site).
#[allow(clippy::too_many_arguments)] // mirrors the trait method's signature
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_backward_row_avx2(
    xr: &[f32],
    dyr: &[f32],
    gamma: &[f32],
    mean: f32,
    rstd: f32,
    dxhat: &mut [f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let f = xr.len();
    let meanv = _mm256_set1_ps(mean);
    let rstdv = _mm256_set1_ps(rstd);
    let xp = xr.as_ptr();
    let dyp = dyr.as_ptr();
    let gp = gamma.as_ptr();
    let dxhp = dxhat.as_mut_ptr();
    let dgp = dgamma.as_mut_ptr();
    let dbp = dbeta.as_mut_ptr();
    // Pass 1: dxhat = dy·γ, dgamma += dy·x̂, dbeta += dy (lane-independent).
    let mut i = 0;
    while i + 8 <= f {
        let xv = _mm256_loadu_ps(xp.add(i));
        let dyv = _mm256_loadu_ps(dyp.add(i));
        let gv = _mm256_loadu_ps(gp.add(i));
        let xhat = _mm256_mul_ps(_mm256_sub_ps(xv, meanv), rstdv);
        _mm256_storeu_ps(dxhp.add(i), _mm256_mul_ps(dyv, gv));
        let dg = _mm256_add_ps(_mm256_loadu_ps(dgp.add(i)), _mm256_mul_ps(dyv, xhat));
        _mm256_storeu_ps(dgp.add(i), dg);
        let db = _mm256_add_ps(_mm256_loadu_ps(dbp.add(i)), dyv);
        _mm256_storeu_ps(dbp.add(i), db);
        i += 8;
    }
    for j in i..f {
        let xhat = (xr[j] - mean) * rstd;
        dxhat[j] = dyr[j] * gamma[j];
        dgamma[j] += dyr[j] * xhat;
        dbeta[j] += dyr[j];
    }
    // Pass 2: the two row sums, sequential ascending-i like the scalar
    // reference (never vectorised — reduction order is part of the
    // contract).
    let mut sum_dxhat = 0.0f32;
    let mut sum_dxhat_xhat = 0.0f32;
    for j in 0..f {
        let xhat = (xr[j] - mean) * rstd;
        let d = dxhat[j];
        sum_dxhat += d;
        sum_dxhat_xhat += d * xhat;
    }
    // Pass 3: dx = rstd·(d − Σd/f − (x̂·Σdx̂)/f) (lane-independent). The
    // scalar loop's `sum_dxhat / f` term is a loop-invariant expression, so
    // hoisting it reuses the identical bits; the second term associates as
    // (x̂·Σdx̂)/f per element and must stay a per-lane multiply-then-divide.
    let s1 = sum_dxhat / f as f32;
    let s1v = _mm256_set1_ps(s1);
    let sdxv = _mm256_set1_ps(sum_dxhat_xhat);
    let fv = _mm256_set1_ps(f as f32);
    let dxp = dx.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= f {
        let xv = _mm256_loadu_ps(xp.add(i));
        let xhat = _mm256_mul_ps(_mm256_sub_ps(xv, meanv), rstdv);
        let d = _mm256_loadu_ps(dxhp.add(i));
        let t2 = _mm256_div_ps(_mm256_mul_ps(xhat, sdxv), fv);
        let inner = _mm256_sub_ps(_mm256_sub_ps(d, s1v), t2);
        _mm256_storeu_ps(dxp.add(i), _mm256_mul_ps(rstdv, inner));
        i += 8;
    }
    for j in i..f {
        let xhat = (xr[j] - mean) * rstd;
        dx[j] = rstd * (dxhat[j] - s1 - xhat * sum_dxhat_xhat / f as f32);
    }
}

/// Fused Adam update, eight independent elements per iteration. Per lane
/// the operation sequence is exactly the scalar kernel's: two moment
/// blends (separate multiply and add — never fused), two bias-correcting
/// divides, `sqrt`, `+eps`, and the final `value −= (lr·m̂)/denom`.
/// `_mm256_sqrt_ps`/`_mm256_div_ps` are IEEE correctly rounded, so every
/// lane reproduces the scalar bits.
///
/// SAFETY: caller must ensure the CPU supports AVX2 and that `grad`, `m`,
/// `v` each hold `value.len()` elements (debug-asserted at the call site).
#[allow(clippy::too_many_arguments)] // mirrors the trait method's signature
#[target_feature(enable = "avx2")]
unsafe fn adam_step_avx2(
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
) {
    let n = value.len();
    let pp = value.as_mut_ptr();
    let gp = grad.as_ptr();
    let mp = m.as_mut_ptr();
    let vp = v.as_mut_ptr();
    let b1 = _mm256_set1_ps(beta1);
    let b2 = _mm256_set1_ps(beta2);
    let omb1 = _mm256_set1_ps(1.0 - beta1);
    let omb2 = _mm256_set1_ps(1.0 - beta2);
    let bias1v = _mm256_set1_ps(bias1);
    let bias2v = _mm256_set1_ps(bias2);
    let lrv = _mm256_set1_ps(lr);
    let epsv = _mm256_set1_ps(eps);
    let mut i = 0;
    while i + 8 <= n {
        let gv = _mm256_loadu_ps(gp.add(i));
        let mv = _mm256_loadu_ps(mp.add(i));
        let vv = _mm256_loadu_ps(vp.add(i));
        // mi = β₁·m + (1−β₁)·g ; vi = β₂·v + ((1−β₂)·g)·g — the scalar
        // kernel's left-to-right association.
        let mi = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, gv));
        let vi = _mm256_add_ps(
            _mm256_mul_ps(b2, vv),
            _mm256_mul_ps(_mm256_mul_ps(omb2, gv), gv),
        );
        _mm256_storeu_ps(mp.add(i), mi);
        _mm256_storeu_ps(vp.add(i), vi);
        let m_hat = _mm256_div_ps(mi, bias1v);
        let v_hat = _mm256_div_ps(vi, bias2v);
        let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
        let upd = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
        let pv = _mm256_loadu_ps(pp.add(i));
        _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(pv, upd));
        i += 8;
    }
    for j in i..n {
        let g = grad[j];
        let mi = beta1 * m[j] + (1.0 - beta1) * g;
        let vi = beta2 * v[j] + (1.0 - beta2) * g * g;
        m[j] = mi;
        v[j] = vi;
        let m_hat = mi / bias1;
        let v_hat = vi / bias2;
        value[j] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// Blocked squared-sum: two `f32x8` accumulators covering the 16 canonical
/// lanes (lane `l` sums `x[16k+l]²` — exactly the scalar kernel's
/// [`SQ_SUM_LANES`] partial sums; two registers keep the add chains
/// independent and latency-hidden), then the lanes combine in ascending
/// lane order and the ragged tail adds sequentially, reproducing the
/// scalar combine bit for bit.
///
/// SAFETY: caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
unsafe fn sq_sum_blocked_avx2(x: &[f32]) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let mut acc_lo = _mm256_setzero_ps();
    let mut acc_hi = _mm256_setzero_ps();
    let mut i = 0;
    while i + SQ_SUM_LANES <= n {
        let v0 = _mm256_loadu_ps(xp.add(i));
        let v1 = _mm256_loadu_ps(xp.add(i + 8));
        acc_lo = _mm256_add_ps(acc_lo, _mm256_mul_ps(v0, v0));
        acc_hi = _mm256_add_ps(acc_hi, _mm256_mul_ps(v1, v1));
        i += SQ_SUM_LANES;
    }
    let mut lanes = [0.0f32; SQ_SUM_LANES];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc_lo);
    _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc_hi);
    let mut total = 0.0f32;
    for &lane in &lanes {
        total += lane;
    }
    for &v in &x[i..] {
        total += v * v;
    }
    total
}

/// Loads a `Vec3` into lanes 0–2 of an `__m128` (lane 3 zero).
///
/// SAFETY: caller must ensure SSE2 (x86_64 baseline).
#[target_feature(enable = "sse2")]
unsafe fn load3(v: Vec3) -> __m128 {
    _mm_set_ps(0.0, v.z, v.y, v.x)
}

/// Lanewise right-handed cross product for x/y/z in lanes 0–2: each lane
/// computes exactly the two products and one subtraction of `Vec3::cross`.
///
/// SAFETY: caller must ensure SSE2 (x86_64 baseline).
#[target_feature(enable = "sse2")]
unsafe fn cross3(a: __m128, b: __m128) -> __m128 {
    // `_MM_SHUFFLE(3, 0, 2, 1)` / `(3, 1, 0, 2)`, spelled out because the
    // helper is not yet a stable const fn: dst[i] = src[imm >> 2i & 3].
    const YZX: i32 = 0b11_00_10_01;
    const ZXY: i32 = 0b11_01_00_10;
    let a_yzx = _mm_shuffle_ps::<YZX>(a, a);
    let b_yzx = _mm_shuffle_ps::<YZX>(b, b);
    let a_zxy = _mm_shuffle_ps::<ZXY>(a, a);
    let b_zxy = _mm_shuffle_ps::<ZXY>(b, b);
    _mm_sub_ps(_mm_mul_ps(a_yzx, b_zxy), _mm_mul_ps(a_zxy, b_yzx))
}

/// Linear blend skinning with x/y/z in SSE lanes: the quaternion rotation
/// `v' = v + 2w·(u×v) + u×(2(u×v))` is evaluated with the scalar formula's
/// exact operation order, componentwise per lane.
///
/// SAFETY: caller must ensure SSE2 (x86_64 baseline); every attachment's
/// joint indices must be in range for the joint arrays.
#[target_feature(enable = "sse2")]
unsafe fn lbs_skin_sse2(
    verts: &[Vec3],
    attachments: &[SkinAttachment],
    rest_joints: &[Vec3],
    posed_joints: &[Vec3],
    global_rot: &[Quaternion],
    out: &mut Vec<Vec3>,
) {
    out.clear();
    out.reserve(verts.len());
    let two = _mm_set1_ps(2.0);
    for (v, w) in verts.iter().zip(attachments) {
        let vv = load3(*v);
        let mut acc = _mm_setzero_ps();
        for k in 0..2 {
            let j = w.joints[k] as usize;
            let wk = w.weights[k];
            // Skinning weights are constructed as exact 0.0 for unused slots.
            if wk == 0.0 {
                continue;
            }
            let local = _mm_sub_ps(vv, load3(rest_joints[j]));
            let q = global_rot[j];
            let u = _mm_set_ps(0.0, q.z, q.y, q.x);
            let t = _mm_mul_ps(cross3(u, local), two);
            let rotated = _mm_add_ps(
                _mm_add_ps(local, _mm_mul_ps(t, _mm_set1_ps(q.w))),
                cross3(u, t),
            );
            let contrib = _mm_mul_ps(_mm_add_ps(load3(posed_joints[j]), rotated), _mm_set1_ps(wk));
            acc = _mm_add_ps(acc, contrib);
        }
        out.push(Vec3::new(
            _mm_cvtss_f32(acc),
            _mm_cvtss_f32(_mm_shuffle_ps::<0b01>(acc, acc)),
            _mm_cvtss_f32(_mm_shuffle_ps::<0b10>(acc, acc)),
        ));
    }
}
