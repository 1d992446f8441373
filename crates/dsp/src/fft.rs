//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! This is the workhorse behind the range-FFT, Doppler-FFT and angle-FFT of
//! the pre-processing pipeline. Sizes must be powers of two; callers that
//! have other lengths zero-pad with [`zero_pad_pow2`].
//!
//! Transforms execute against an [`FftPlan`]: twiddle factors and the
//! bit-reverse permutation are computed once per size and cached in a
//! process-wide table ([`plan`]), so the per-call cost is butterflies only.
//! The twiddle tables are generated with the exact multiply recurrence the
//! original on-the-fly loop used, which keeps planned transforms bitwise
//! identical to the unplanned reference (asserted by proptest below).
//!
//! The butterfly stages themselves execute through the process-wide
//! [`mmhand_kernels`] backend (scalar or SIMD). Both backends are bitwise
//! identical — the SIMD stage evaluates the same per-butterfly op sequence
//! in parallel lanes — so backend choice never changes a single output bit
//! (asserted by proptest below). Tests and benches can pin a backend with
//! [`FftPlan::forward_with`] / [`FftPlan::inverse_with`].

use mmhand_kernels::Kernels;
use mmhand_math::Complex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Returns the smallest power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Zero-pads `x` to the next power-of-two length.
pub fn zero_pad_pow2(x: &[Complex]) -> Vec<Complex> {
    // Not pooled: owned return value; hot callers use zero_pad_pow2_into
    let mut out = Vec::with_capacity(next_pow2(x.len()));
    out.extend_from_slice(x);
    out.resize(out.capacity(), Complex::ZERO);
    out
}

/// Zero-pads `x` to the next power-of-two length into a caller-provided
/// (typically pooled) buffer, replacing its contents.
pub fn zero_pad_pow2_into(x: &[Complex], out: &mut Vec<Complex>) {
    out.clear();
    out.extend_from_slice(x);
    out.resize(next_pow2(x.len()), Complex::ZERO);
}

/// With `sanitize-numerics`, panics if an FFT output bin is non-finite —
/// which (since the butterflies are finite arithmetic) means the *input*
/// carried NaN/Inf, caught here at the first transform instead of after it
/// has smeared across the whole spectrum.
#[cfg(feature = "sanitize-numerics")]
#[expect(clippy::panic, reason = "the sanitizer traps numeric poison at the transform")]
fn check_finite(context: &str, x: &[Complex]) {
    for (i, c) in x.iter().enumerate() {
        if !c.re.is_finite() || !c.im.is_finite() {
            panic!("numeric poison in {context}: bin {i} is {}+{}i", c.re, c.im);
        }
    }
}

#[cfg(not(feature = "sanitize-numerics"))]
#[inline(always)]
fn check_finite(_context: &str, _x: &[Complex]) {}

/// A precomputed radix-2 FFT of one size: bit-reverse swap pairs plus
/// per-stage twiddle tables for both transform directions.
///
/// Forward and inverse twiddles are stored separately (not conjugated from
/// one table) and each table is filled by the same `w *= wlen` recurrence
/// the reference transform iterates, so a planned transform applies
/// bit-for-bit the same factors in the same order.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// `(i, j)` index pairs with `j > i`, applied as swaps.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, stages concatenated: `len/2` entries per stage.
    fwd: Vec<Complex>,
    /// Inverse twiddles, same layout.
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two. Prefer [`plan`], which caches.
    pub fn new(n: usize) -> Self {
        assert!(is_pow2(n), "FFT length {n} is not a power of two");
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        FftPlan { n, swaps, fwd: twiddles(n, false), inv: twiddles(n, true) }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the trivial length-1 plan (kept for the
    /// conventional `len`/`is_empty` pairing; length 0 is not planable).
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward FFT via the process-selected kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn forward(&self, x: &mut [Complex]) {
        fft_points_histogram().observe(self.n as f64);
        self.forward_with(mmhand_kernels::kernels(), x);
    }

    /// In-place inverse FFT (including the `1/N` normalisation) via the
    /// process-selected kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn inverse(&self, x: &mut [Complex]) {
        fft_points_histogram().observe(self.n as f64);
        self.inverse_with(mmhand_kernels::kernels(), x);
    }

    /// [`forward`](Self::forward) pinned to an explicit kernel backend —
    /// bitwise identical for every backend; used by cross-backend tests and
    /// per-backend microbenches.
    pub fn forward_with(&self, kern: &dyn Kernels, x: &mut [Complex]) {
        self.run(kern, x, &self.fwd);
        check_finite("forward FFT output", x);
    }

    /// [`inverse`](Self::inverse) pinned to an explicit kernel backend.
    pub fn inverse_with(&self, kern: &dyn Kernels, x: &mut [Complex]) {
        self.run(kern, x, &self.inv);
        let n = x.len() as f32;
        for v in x.iter_mut() {
            *v = *v / n;
        }
        check_finite("inverse FFT output", x);
    }

    fn run(&self, kern: &dyn Kernels, x: &mut [Complex], table: &[Complex]) {
        let n = self.n;
        assert!(x.len() == n, "FFT buffer length {} does not match plan length {n}", x.len());
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            x.swap(i as usize, j as usize);
        }
        let mut len = 2;
        let mut offset = 0;
        while len <= n {
            let half = len / 2;
            kern.fft_stage(x, &table[offset..offset + half], len);
            offset += half;
            len <<= 1;
        }
    }
}

/// Transform-size histogram suffixed with the active kernel backend
/// (`dsp.fft.points.scalar` / `dsp.fft.points.simd`), cached so the hot
/// path never formats a metric name.
fn fft_points_histogram() -> &'static mmhand_telemetry::Histogram {
    static H: OnceLock<mmhand_telemetry::Histogram> = OnceLock::new();
    H.get_or_init(|| {
        mmhand_telemetry::size_histogram(&format!(
            "dsp.fft.points.{}",
            mmhand_kernels::backend_name()
        ))
    })
}

/// Concatenated per-stage twiddle tables for length `n`, filled with the
/// reference transform's exact recurrence (`w = ONE; w *= wlen; …`).
fn twiddles(n: usize, inverse: bool) -> Vec<Complex> {
    // Not pooled: one-time plan construction, cached per size
    let mut table = Vec::with_capacity(n.saturating_sub(1));
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex::from_angle(ang);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table
}

/// Returns the cached plan for length `n`, building it on first use.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn plan(n: usize) -> Arc<FftPlan> {
    static CACHE: OnceLock<RwLock<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(p) = cache.read().expect("FFT plan cache lock").get(&n) {
        plan_cache_metrics().hits.inc();
        return p.clone();
    }
    plan_cache_metrics().misses.inc();
    let built = Arc::new(FftPlan::new(n));
    let mut map = cache.write().expect("FFT plan cache lock");
    map.entry(n).or_insert(built).clone()
}

struct PlanCacheMetrics {
    hits: mmhand_telemetry::Counter,
    misses: mmhand_telemetry::Counter,
}

fn plan_cache_metrics() -> &'static PlanCacheMetrics {
    static METRICS: OnceLock<PlanCacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PlanCacheMetrics {
        hits: mmhand_telemetry::counter("dsp.fft.plan_cache.hits"),
        misses: mmhand_telemetry::counter("dsp.fft.plan_cache.misses"),
    })
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft_inplace(x: &mut [Complex]) {
    plan(x.len()).forward(x);
}

/// In-place inverse FFT (including the `1/N` normalisation).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn ifft_inplace(x: &mut [Complex]) {
    plan(x.len()).inverse(x);
}

/// Forward FFT into a caller-provided (typically pooled) buffer, replacing
/// its contents; the input is left untouched.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft_into(x: &[Complex], out: &mut Vec<Complex>) {
    out.clear();
    out.extend_from_slice(x);
    fft_inplace(out);
}

/// Inverse FFT into a caller-provided (typically pooled) buffer, replacing
/// its contents; the input is left untouched.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn ifft_into(x: &[Complex], out: &mut Vec<Complex>) {
    out.clear();
    out.extend_from_slice(x);
    ifft_inplace(out);
}

/// Forward FFT returning a new vector.
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut out = Vec::new();
    fft_into(x, &mut out);
    out
}

/// Inverse FFT returning a new vector (including the `1/N` normalisation).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let mut out = Vec::new();
    ifft_into(x, &mut out);
    out
}

/// FFT of a real-valued signal (converts to complex then transforms).
///
/// # Panics
///
/// Panics if `x.len()` is not a power of two.
pub fn fft_real(x: &[f32]) -> Vec<Complex> {
    let mut buf: Vec<Complex> = x.iter().map(|&re| Complex::new(re, 0.0)).collect();
    fft_inplace(&mut buf);
    buf
}

/// Swaps the two halves of a spectrum so DC moves to the centre — the usual
/// presentation for Doppler and angle spectra where negative frequencies
/// (approaching motion / negative angles) sit to the left.
pub fn fft_shift<T: Copy>(x: &[T]) -> Vec<T> {
    let n = x.len();
    let half = n.div_ceil(2);
    // Not pooled: owned return value; hot callers use fft_shift_inplace
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[half..]);
    out.extend_from_slice(&x[..half]);
    out
}

/// [`fft_shift`] as a pure in-place permutation (a `rotate_left` by
/// `⌈n/2⌉`), for hot paths that shift a pooled buffer.
pub fn fft_shift_inplace<T>(x: &mut [T]) {
    let half = x.len().div_ceil(2);
    x.rotate_left(half);
}

/// Magnitude of each bin.
pub fn magnitude(x: &[Complex]) -> Vec<f32> {
    x.iter().map(|c| c.abs()).collect()
}

/// Power (squared magnitude) of each bin.
pub fn power(x: &[Complex]) -> Vec<f32> {
    x.iter().map(|c| c.norm_sqr()).collect()
}

/// The original unplanned transform, kept as the bitwise reference the
/// plan-identity tests compare against.
#[cfg(test)]
fn transform(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    assert!(is_pow2(n), "FFT length {n} is not a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            x.swap(i, j);
        }
    }

    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f32::consts::PI / len as f32;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = x[i + j];
                let v = x[i + j + len / 2] * w;
                x[i + j] = u + v;
                x[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TAU: f32 = 2.0 * std::f32::consts::PI;

    fn tone(n: usize, k: f32, amp: f32) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_polar(amp, TAU * k * i as f32 / n as f32))
            .collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let spec = fft(&x);
        for bin in spec {
            assert!((bin - Complex::ONE).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_of_dc_concentrates_in_bin_zero() {
        let x = vec![Complex::ONE; 16];
        let spec = fft(&x);
        assert!((spec[0].re - 16.0).abs() < 1e-4);
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-4);
        }
    }

    #[test]
    fn tone_lands_in_expected_bin() {
        let n = 128;
        for k in [1usize, 7, 31, 64, 100] {
            let spec = fft(&tone(n, k as f32, 2.0));
            let peak = (0..n)
                .max_by(|&a, &b| spec[a].abs().total_cmp(&spec[b].abs()))
                .unwrap();
            assert_eq!(peak, k, "tone bin {k}");
            assert!((spec[k].abs() - 2.0 * n as f32).abs() < 1e-2);
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = tone(n, 3.0, 1.0);
        let b = tone(n, 9.0, 0.5);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fs = fft(&sum);
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn fft_shift_even_and_odd() {
        assert_eq!(fft_shift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fft_shift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn fft_shift_inplace_matches_copying_shift() {
        for n in 0..9usize {
            let src: Vec<usize> = (0..n).collect();
            let mut inplace = src.clone();
            fft_shift_inplace(&mut inplace);
            assert_eq!(inplace, fft_shift(&src), "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft_inplace(&mut x);
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn plan_rejects_mismatched_buffer() {
        let p = FftPlan::new(8);
        let mut x = vec![Complex::ZERO; 4];
        p.forward(&mut x);
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let a = plan(64);
        let b = plan(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn zero_pad_reaches_pow2() {
        let x = vec![Complex::ONE; 12];
        let padded = zero_pad_pow2(&x);
        assert_eq!(padded.len(), 16);
        assert_eq!(&padded[..12], &x[..]);
        assert!(padded[12..].iter().all(|c| *c == Complex::ZERO));

        let mut reused = vec![Complex::ONE; 3];
        zero_pad_pow2_into(&x, &mut reused);
        assert_eq!(reused, padded);
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        let xs: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let a = fft_real(&xs);
        let b = fft(&xs.iter().map(|&r| Complex::new(r, 0.0)).collect::<Vec<_>>());
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-6);
        }
    }

    #[cfg(not(feature = "sanitize-numerics"))]
    #[test]
    fn without_the_sanitizer_poison_propagates_silently() {
        let mut sig = tone(16, 3.0, 1.0);
        sig[5].re = f32::NAN;
        let spec = fft(&sig);
        assert!(spec.iter().any(|c| c.re.is_nan() || c.im.is_nan()));
    }

    proptest! {
        #[test]
        fn round_trip_recovers_signal(
            xs in proptest::collection::vec((-10f32..10.0, -10f32..10.0), 1..6usize)
        ) {
            // Build a power-of-two signal from arbitrary complex samples.
            let sig: Vec<Complex> = xs.iter().map(|&(r, i)| Complex::new(r, i)).collect();
            let sig = zero_pad_pow2(&sig);
            let back = ifft(&fft(&sig));
            for (a, b) in sig.iter().zip(&back) {
                prop_assert!((*a - *b).abs() < 1e-3);
            }
        }

        /// Planned transforms (twiddle tables + cached permutation) must be
        /// *bitwise* identical to the unplanned reference loop, both
        /// directions, all pooled-era sizes — under either
        /// `sanitize-numerics` state (the suite runs in both CI jobs).
        #[test]
        fn planned_fft_is_bitwise_identical_to_reference(
            log_n in 0u32..9,
            xs in proptest::collection::vec((-10f32..10.0, -10f32..10.0), 256usize),
            inverse_flag in 0usize..2,
        ) {
            let n = 1usize << log_n;
            let inverse = inverse_flag == 1;
            let sig: Vec<Complex> = xs[..n].iter().map(|&(r, i)| Complex::new(r, i)).collect();

            let mut reference = sig.clone();
            transform(&mut reference, inverse);

            let mut planned = sig;
            let p = plan(n);
            if inverse {
                p.inverse(&mut planned);
                let scale = n as f32;
                // The public path normalises; undo with the same op order.
                for v in reference.iter_mut() {
                    *v = *v / scale;
                }
            } else {
                p.forward(&mut planned);
            }

            for (i, (a, b)) in planned.iter().zip(&reference).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "bin {i}: planned {a:?} != reference {b:?}"
                );
            }
        }

        /// Scalar and SIMD butterfly stages must agree *bitwise* (a ULP
        /// distance of exactly zero) on whole transforms, both directions,
        /// under either `sanitize-numerics` state. Passes trivially on CPUs
        /// without a SIMD backend.
        #[test]
        fn fft_backends_are_bitwise_identical(
            log_n in 0u32..10,
            xs in proptest::collection::vec((-10f32..10.0, -10f32..10.0), 512usize),
            inverse_flag in 0usize..2,
        ) {
            let Some(simd) = mmhand_kernels::simd_kernels() else { return Ok(()); };
            let scalar = mmhand_kernels::scalar_kernels();
            let n = 1usize << log_n;
            let sig: Vec<Complex> = xs[..n].iter().map(|&(r, i)| Complex::new(r, i)).collect();
            let p = plan(n);
            let mut a = sig.clone();
            let mut b = sig;
            if inverse_flag == 1 {
                p.inverse_with(scalar, &mut a);
                p.inverse_with(simd, &mut b);
            } else {
                p.forward_with(scalar, &mut a);
                p.forward_with(simd, &mut b);
            }
            for (i, (u, v)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits(),
                    "bin {i}: scalar {u:?} != simd {v:?}"
                );
            }
        }

        #[test]
        fn fft_into_matches_owned_fft(
            xs in proptest::collection::vec((-10f32..10.0, -10f32..10.0), 16usize),
        ) {
            let sig: Vec<Complex> = xs.iter().map(|&(r, i)| Complex::new(r, i)).collect();
            let owned = fft(&sig);
            let mut reused = vec![Complex::ONE; 3];
            fft_into(&sig, &mut reused);
            prop_assert_eq!(&owned, &reused);
            let owned_inv = ifft(&owned);
            ifft_into(&owned, &mut reused);
            prop_assert_eq!(owned_inv, reused);
        }

        #[cfg(feature = "sanitize-numerics")]
        #[test]
        fn poisoned_input_is_trapped_at_the_transform(
            bin in 0usize..16,
            inf in 0usize..2,
            imag in 0usize..2,
        ) {
            let mut sig = tone(16, 3.0, 1.0);
            let poison = if inf == 1 { f32::INFINITY } else { f32::NAN };
            if imag == 1 {
                sig[bin].im = poison;
            } else {
                sig[bin].re = poison;
            }
            let trapped =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fft(&sig)));
            prop_assert!(trapped.is_err(), "poison at bin {bin} was not trapped");
        }

        #[test]
        fn parseval_energy_is_preserved(
            xs in proptest::collection::vec((-5f32..5.0, -5f32..5.0), 8usize)
        ) {
            let sig: Vec<Complex> = xs.iter().map(|&(r, i)| Complex::new(r, i)).collect();
            let spec = fft(&sig);
            let time_energy: f32 = sig.iter().map(|c| c.norm_sqr()).sum();
            let freq_energy: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / sig.len() as f32;
            prop_assert!((time_energy - freq_energy).abs() < 1e-2 * (1.0 + time_energy));
        }
    }
}
