//! IIR Butterworth band-pass filtering.
//!
//! The paper removes environmental interference by running the raw IF signal
//! through an **8th-order band-pass Butterworth filter** that keeps only the
//! IF frequencies corresponding to the hand's range band (§III). This module
//! implements the classic design chain — analog low-pass prototype →
//! low-pass-to-band-pass transform → bilinear transform with pre-warping —
//! and realises the result as cascaded direct-form-II-transposed biquads.
//!
//! Design math runs in `f64` for numerical robustness; filtering runs in
//! `f32` to match the rest of the pipeline.
//!
//! Batch filtering — many signals stored sample by sample
//! ([`BandpassFilter::filter_lanes`]), and a complex signal as its two-lane
//! case — executes through the process-wide [`mmhand_kernels`] backend: the
//! SIMD backend runs independent signals in parallel lanes with the exact
//! scalar op sequence per sample, so backend choice never changes a single
//! output bit (asserted by proptest below).

use mmhand_kernels::{BiquadCoeffs, Kernels, MAX_BIQUADS};
use std::fmt;
use std::sync::OnceLock;

/// The `dsp.filter.batch_samples` histogram, resolved once so a filter call
/// never takes the telemetry registry lock.
fn batch_samples() -> &'static mmhand_telemetry::Histogram {
    static H: OnceLock<mmhand_telemetry::Histogram> = OnceLock::new();
    H.get_or_init(|| mmhand_telemetry::size_histogram("dsp.filter.batch_samples"))
}

/// Error returned by [`ButterworthDesign::design`] for invalid parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignFilterError {
    message: String,
}

impl fmt::Display for DesignFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter design: {}", self.message)
    }
}

impl std::error::Error for DesignFilterError {}

/// f64 complex number used only during filter design.
#[derive(Clone, Copy, Debug, Default)]
struct C64 {
    re: f64,
    im: f64,
}

impl C64 {
    const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    fn from_angle(theta: f64) -> Self {
        C64::new(theta.cos(), theta.sin())
    }

    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }

    fn mul(self, o: C64) -> C64 {
        C64::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }

    fn scale(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }

    fn div(self, o: C64) -> C64 {
        let n = o.re * o.re + o.im * o.im;
        C64::new(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )
    }

    fn sqrt(self) -> C64 {
        let r = (self.re * self.re + self.im * self.im).sqrt();
        let theta = self.im.atan2(self.re) * 0.5;
        C64::new(r.sqrt() * theta.cos(), r.sqrt() * theta.sin())
    }

    fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

/// One second-order IIR section with direct-form-II-transposed state.
///
/// Coefficients follow the convention
/// `y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] − a1·y[n-1] − a2·y[n-2]`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f32; 3],
    /// Feedback coefficients `[a1, a2]` (a0 is normalised to 1).
    pub a: [f32; 2],
    s1: f32,
    s2: f32,
}

impl Biquad {
    /// Creates a section from normalised coefficients.
    pub fn new(b: [f32; 3], a: [f32; 2]) -> Self {
        Biquad { b, a, s1: 0.0, s2: 0.0 }
    }

    /// Processes one sample.
    #[inline]
    pub fn process(&mut self, x: f32) -> f32 {
        let y = self.b[0] * x + self.s1;
        self.s1 = self.b[1] * x - self.a[0] * y + self.s2;
        self.s2 = self.b[2] * x - self.a[1] * y;
        y
    }

    /// Clears the internal delay state.
    pub fn reset(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
    }

    /// Returns `true` when both poles are strictly inside the unit circle.
    pub fn is_stable(&self) -> bool {
        // Jury stability criterion for a quadratic: |a2| < 1 and |a1| < 1 + a2.
        let (a1, a2) = (self.a[0], self.a[1]);
        a2.abs() < 1.0 && a1.abs() < 1.0 + a2
    }
}

/// Butterworth band-pass design parameters.
///
/// # Examples
///
/// ```
/// use mmhand_dsp::filter::ButterworthDesign;
///
/// // The paper's hand-isolation filter: 8th order, pass 20–60 cm of range
/// // expressed as IF frequencies; here in plain Hz for illustration.
/// let filt = ButterworthDesign {
///     order: 8,
///     low_hz: 1_000.0,
///     high_hz: 4_000.0,
///     sample_rate_hz: 20_000.0,
/// }
/// .design()?;
/// assert!(filt.is_stable());
/// # Ok::<(), mmhand_dsp::filter::DesignFilterError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ButterworthDesign {
    /// Total band-pass filter order; must be even (prototype order is half).
    pub order: usize,
    /// Lower pass-band edge in Hz.
    pub low_hz: f64,
    /// Upper pass-band edge in Hz.
    pub high_hz: f64,
    /// Sampling rate in Hz.
    pub sample_rate_hz: f64,
}

impl ButterworthDesign {
    /// Designs the band-pass filter.
    ///
    /// # Errors
    ///
    /// Returns an error when the order is zero or odd, the band edges are
    /// not strictly increasing, or an edge is at/above Nyquist.
    pub fn design(self) -> Result<BandpassFilter, DesignFilterError> {
        let err = |m: &str| Err(DesignFilterError { message: m.to_string() });
        if self.order == 0 || !self.order.is_multiple_of(2) {
            return err("band-pass order must be a positive even number");
        }
        if !(self.low_hz > 0.0 && self.high_hz > self.low_hz) {
            return err("band edges must satisfy 0 < low < high");
        }
        let nyquist = self.sample_rate_hz / 2.0;
        if self.high_hz >= nyquist {
            return err("upper band edge must be below Nyquist");
        }

        let n = self.order / 2; // analog prototype order
        let fs = self.sample_rate_hz;
        // Pre-warped analog band edges.
        let warp = |f: f64| 2.0 * fs * (std::f64::consts::PI * f / fs).tan();
        let w1 = warp(self.low_hz);
        let w2 = warp(self.high_hz);
        let w0 = (w1 * w2).sqrt();
        let bw = w2 - w1;

        // Analog low-pass prototype poles on the unit circle's left half.
        let mut bp_poles: Vec<C64> = Vec::with_capacity(2 * n);
        for k in 0..n {
            let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * n as f64)
                + std::f64::consts::FRAC_PI_2;
            let p = C64::from_angle(theta);
            // Low-pass → band-pass: s_lp = p maps to two band-pass poles.
            let half_bw_p = p.scale(bw * 0.5);
            let disc = half_bw_p.mul(half_bw_p).sub(C64::new(w0 * w0, 0.0)).sqrt();
            bp_poles.push(half_bw_p.add(disc));
            bp_poles.push(half_bw_p.sub(disc));
        }

        // Bilinear transform: z = (1 + s/(2 fs)) / (1 - s/(2 fs)).
        let two_fs = 2.0 * fs;
        let z_poles: Vec<C64> = bp_poles
            .iter()
            .map(|&s| {
                C64::ONE
                    .add(s.scale(1.0 / two_fs))
                    .div(C64::ONE.sub(s.scale(1.0 / two_fs)))
            })
            .collect();

        // Pair conjugate poles into biquads; each biquad takes numerator
        // (z - 1)(z + 1) = z² - 1 (one zero from the n zeros at z = 1, one
        // from the n at z = -1, coming from the s-plane zeros at 0 and ∞).
        let sections = pair_into_biquads(&z_poles)?;

        let coeffs = sections
            .iter()
            .map(|s| BiquadCoeffs { b: s.b, a: s.a })
            .collect();
        let mut filter = BandpassFilter { sections, coeffs, gain: 1.0 };
        // Normalise |H| = 1 at the geometric-centre frequency.
        let f_center = (self.low_hz * self.high_hz).sqrt();
        let resp = filter.frequency_response(f_center, fs);
        if resp <= 0.0 || !resp.is_finite() {
            return err("degenerate centre-frequency response");
        }
        filter.gain = (1.0 / resp) as f32;
        if !filter.is_stable() {
            return err("designed filter is unstable (band too narrow for sample rate)");
        }
        Ok(filter)
    }
}

fn pair_into_biquads(z_poles: &[C64]) -> Result<Vec<Biquad>, DesignFilterError> {
    let mut upper: Vec<C64> = z_poles.iter().copied().filter(|p| p.im > 1e-9).collect();
    let mut reals: Vec<f64> = z_poles
        .iter()
        .copied()
        .filter(|p| p.im.abs() <= 1e-9)
        .map(|p| p.re)
        .collect();
    // Conjugates are implicit: each upper-half pole pairs with its mirror.
    let mut sections = Vec::new();
    for p in upper.drain(..) {
        let a1 = -2.0 * p.re;
        let a2 = p.re * p.re + p.im * p.im;
        sections.push(Biquad::new([1.0, 0.0, -1.0], [a1 as f32, a2 as f32]));
    }
    // Real poles pair among themselves (possible for very wide bands).
    while reals.len() >= 2 {
        let p1 = reals.pop().expect("loop condition guarantees len >= 2");
        let p2 = reals.pop().expect("loop condition guarantees len >= 2");
        sections.push(Biquad::new(
            [1.0, 0.0, -1.0],
            [(-(p1 + p2)) as f32, (p1 * p2) as f32],
        ));
    }
    if !reals.is_empty() {
        return Err(DesignFilterError {
            message: "odd number of real poles; cannot form biquads".to_string(),
        });
    }
    Ok(sections)
}

/// A designed band-pass filter: cascaded biquads plus an overall gain.
#[derive(Clone, Debug)]
pub struct BandpassFilter {
    sections: Vec<Biquad>,
    /// The sections' coefficients in kernel-backend form, mirrored at
    /// design time so batch filtering can dispatch without re-packing.
    coeffs: Vec<BiquadCoeffs>,
    gain: f32,
}

impl BandpassFilter {
    /// Number of biquad sections (order / 2).
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Returns `true` when every section is stable.
    pub fn is_stable(&self) -> bool {
        self.sections.iter().all(Biquad::is_stable)
    }

    /// Processes one sample through the cascade.
    #[inline]
    pub fn process(&mut self, x: f32) -> f32 {
        let mut y = x * self.gain;
        for s in &mut self.sections {
            y = s.process(y);
        }
        y
    }

    /// Clears all internal state.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Filters a whole real signal, starting from cleared state.
    pub fn filter_signal(&mut self, xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        self.filter_signal_inplace(&mut out);
        out
    }

    /// Filters a whole real signal in place, starting from cleared state.
    ///
    /// Bitwise identical to [`filter_signal`](Self::filter_signal): the
    /// cascade reads each sample before overwriting it, so filtering a
    /// pooled buffer in place changes nothing but the allocation.
    pub fn filter_signal_inplace(&mut self, xs: &mut [f32]) {
        batch_samples().observe(xs.len() as f64);
        self.reset();
        for x in xs.iter_mut() {
            *x = self.process(*x);
        }
    }

    /// Filters a complex signal by running the real and imaginary parts
    /// through identical cascades (the IF signal is complex after IQ mixing).
    pub fn filter_complex(&mut self, xs: &[mmhand_math::Complex]) -> Vec<mmhand_math::Complex> {
        let mut out = Vec::with_capacity(xs.len());
        let mut scratch = Vec::new();
        self.filter_complex_into(xs, &mut scratch, &mut out);
        out
    }

    /// [`filter_complex`](Self::filter_complex) into caller-provided
    /// (typically pooled) buffers: `scratch` holds the signal as two lanes
    /// (`[re, im]` per sample, `2 · xs.len()` floats), `out` receives the
    /// filtered signal. Both are replaced, and the processing — dispatched
    /// to the kernel backend — is bitwise identical to running the real
    /// plane then the imaginary plane through
    /// [`filter_signal_inplace`](Self::filter_signal_inplace), whichever
    /// backend is active.
    pub fn filter_complex_into(
        &mut self,
        xs: &[mmhand_math::Complex],
        scratch: &mut Vec<f32>,
        out: &mut Vec<mmhand_math::Complex>,
    ) {
        self.filter_complex_into_with(mmhand_kernels::kernels(), xs, scratch, out);
    }

    /// [`filter_complex_into`](Self::filter_complex_into) pinned to an
    /// explicit kernel backend — bitwise identical for every backend; used
    /// by cross-backend tests and per-backend microbenches.
    pub fn filter_complex_into_with(
        &mut self,
        kern: &dyn Kernels,
        xs: &[mmhand_math::Complex],
        scratch: &mut Vec<f32>,
        out: &mut Vec<mmhand_math::Complex>,
    ) {
        scratch.clear();
        scratch.resize(2 * xs.len(), 0.0);
        for (p, c) in scratch.chunks_exact_mut(2).zip(xs) {
            p[0] = c.re;
            p[1] = c.im;
        }
        self.filter_lanes_with(kern, scratch, 2);
        out.clear();
        out.extend(scratch.chunks_exact(2).map(|p| mmhand_math::Complex::new(p[0], p[1])));
    }

    /// Filters `lanes` independent real signals stored sample by sample —
    /// `x[t·lanes + l]` is sample `t` of lane `l` — in one kernel call,
    /// each lane from cleared state. Lane `l` comes out bitwise identical
    /// to that signal alone through
    /// [`filter_signal_inplace`](Self::filter_signal_inplace), whichever
    /// backend is active. The kernel keeps the cascade state on its own
    /// stack, so a shared filter serves every thread without a clone.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold whole rows of `lanes` samples.
    pub fn filter_lanes(&self, x: &mut [f32], lanes: usize) {
        self.filter_lanes_with(mmhand_kernels::kernels(), x, lanes);
    }

    fn filter_lanes_with(&self, kern: &dyn Kernels, x: &mut [f32], lanes: usize) {
        assert!(
            x.len().is_multiple_of(lanes),
            "{} samples do not fill whole rows of {lanes} lanes",
            x.len()
        );
        batch_samples().observe(x.len() as f64);
        // A cascade deeper than the kernel's MAX_BIQUADS (a >32nd-order
        // band-pass; never produced by the paper pipeline) runs as
        // consecutive passes over section blocks. Each section's output
        // depends only on its input sequence, and a later block's unit gain
        // returns every sample unchanged, so the passes reproduce the
        // per-sample cascade bit for bit.
        let mut gain = self.gain;
        for block in self.coeffs.chunks(MAX_BIQUADS) {
            kern.iir_cascade_lanes(block, gain, x, lanes);
            gain = 1.0;
        }
    }

    /// Magnitude response at `freq_hz` for sampling rate `fs`.
    pub fn frequency_response(&self, freq_hz: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * freq_hz / fs;
        let z_inv = C64::from_angle(-w);
        let z_inv2 = z_inv.mul(z_inv);
        let mut h = C64::new(self.gain as f64, 0.0);
        for s in &self.sections {
            let num = C64::new(s.b[0] as f64, 0.0)
                .add(z_inv.scale(s.b[1] as f64))
                .add(z_inv2.scale(s.b[2] as f64));
            let den = C64::ONE
                .add(z_inv.scale(s.a[0] as f64))
                .add(z_inv2.scale(s.a[1] as f64));
            h = h.mul(num.div(den));
        }
        h.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_like_filter() -> BandpassFilter {
        ButterworthDesign {
            order: 8,
            low_hz: 1_000.0,
            high_hz: 4_000.0,
            sample_rate_hz: 20_000.0,
        }
        .design()
        .unwrap()
    }

    /// A cascade deeper than the kernel's `MAX_BIQUADS`: the paper-like
    /// filter's four stable sections repeated five times.
    fn deep_filter() -> BandpassFilter {
        let base = paper_like_filter();
        let sections: Vec<Biquad> = base.sections.iter().cycle().take(20).copied().collect();
        let coeffs = sections.iter().map(|s| BiquadCoeffs { b: s.b, a: s.a }).collect();
        BandpassFilter { sections, coeffs, gain: base.gain }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn filter_lanes_rejects_ragged_rows() {
        paper_like_filter().filter_lanes(&mut [0.0; 7], 2);
    }

    #[test]
    fn eighth_order_yields_four_sections() {
        assert_eq!(paper_like_filter().section_count(), 4);
    }

    #[test]
    fn pooled_filter_paths_are_bitwise_identical() {
        let mut f = paper_like_filter();
        let xs: Vec<f32> = (0..256).map(|i| (i as f32 * 0.21).sin()).collect();
        let owned = f.filter_signal(&xs);
        let mut inplace = xs.clone();
        f.filter_signal_inplace(&mut inplace);
        assert_eq!(owned, inplace);

        let cxs: Vec<mmhand_math::Complex> = xs
            .iter()
            .zip(xs.iter().rev())
            .map(|(&r, &i)| mmhand_math::Complex::new(r, i))
            .collect();
        let owned_c = f.filter_complex(&cxs);
        let mut scratch = vec![9.0_f32; 3];
        let mut out = Vec::new();
        f.filter_complex_into(&cxs, &mut scratch, &mut out);
        assert_eq!(owned_c, out);
    }

    #[test]
    fn passband_is_near_unity() {
        let f = paper_like_filter();
        let fs = 20_000.0;
        for freq in [1_800.0, 2_000.0, 2_500.0, 3_000.0] {
            let h = f.frequency_response(freq, fs);
            assert!(h > 0.7 && h < 1.2, "passband gain {h} at {freq} Hz");
        }
    }

    #[test]
    fn stopband_is_attenuated() {
        let f = paper_like_filter();
        let fs = 20_000.0;
        for freq in [50.0, 200.0, 8_000.0, 9_500.0] {
            let h = f.frequency_response(freq, fs);
            assert!(h < 0.05, "stopband gain {h} at {freq} Hz");
        }
    }

    #[test]
    fn dc_and_nyquist_are_blocked() {
        let mut f = paper_like_filter();
        // DC input settles to ~zero output.
        let y = f.filter_signal(&vec![1.0; 4000]);
        let tail_mean: f32 = y[3000..].iter().sum::<f32>() / 1000.0;
        assert!(tail_mean.abs() < 1e-3, "DC leak {tail_mean}");
        assert!(f.frequency_response(10_000.0 - 1e-6, 20_000.0) < 1e-3);
    }

    #[test]
    fn passband_tone_survives_stopband_tone_dies() {
        let mut f = paper_like_filter();
        let fs = 20_000.0_f32;
        let n = 4000;
        let tone = |freq: f32| -> Vec<f32> {
            (0..n)
                .map(|i| (2.0 * std::f32::consts::PI * freq * i as f32 / fs).sin())
                .collect()
        };
        let rms_tail = |xs: &[f32]| -> f32 {
            let tail = &xs[n / 2..];
            (tail.iter().map(|x| x * x).sum::<f32>() / tail.len() as f32).sqrt()
        };
        let pass = f.filter_signal(&tone(2_000.0));
        let stop = f.filter_signal(&tone(8_000.0));
        assert!(rms_tail(&pass) > 0.5, "passband rms {}", rms_tail(&pass));
        assert!(rms_tail(&stop) < 0.02, "stopband rms {}", rms_tail(&stop));
    }

    #[test]
    fn filter_is_stable_and_impulse_decays() {
        let mut f = paper_like_filter();
        assert!(f.is_stable());
        let mut impulse = vec![0.0_f32; 6000];
        impulse[0] = 1.0;
        let y = f.filter_signal(&impulse);
        let early: f32 = y[..100].iter().map(|x| x.abs()).sum();
        let late: f32 = y[5000..].iter().map(|x| x.abs()).sum();
        assert!(late < early * 1e-4, "impulse response does not decay");
    }

    #[test]
    fn invalid_designs_are_rejected() {
        let base = ButterworthDesign {
            order: 8,
            low_hz: 1000.0,
            high_hz: 4000.0,
            sample_rate_hz: 20_000.0,
        };
        assert!(ButterworthDesign { order: 7, ..base }.design().is_err());
        assert!(ButterworthDesign { order: 0, ..base }.design().is_err());
        assert!(ButterworthDesign { low_hz: 5000.0, ..base }.design().is_err());
        assert!(ButterworthDesign { high_hz: 11_000.0, ..base }.design().is_err());
        assert!(ButterworthDesign { low_hz: -3.0, ..base }.design().is_err());
    }

    #[test]
    fn complex_filtering_matches_componentwise() {
        use mmhand_math::Complex;
        let mut f = paper_like_filter();
        let xs: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f32 * 0.3).sin(), (i as f32 * 0.7).cos()))
            .collect();
        let y = f.filter_complex(&xs);
        let re: Vec<f32> = xs.iter().map(|c| c.re).collect();
        let expected_re = f.filter_signal(&re);
        for (a, b) in y.iter().zip(&expected_re) {
            assert!((a.re - b).abs() < 1e-6);
        }
    }

    #[test]
    fn kernel_batch_path_matches_per_plane_filtering() {
        use mmhand_math::Complex;
        let mut f = paper_like_filter();
        let xs: Vec<Complex> = (0..300)
            .map(|i| Complex::new((i as f32 * 0.13).sin(), (i as f32 * 0.41).cos()))
            .collect();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        f.filter_complex_into(&xs, &mut scratch, &mut out);

        // Reference: the pre-dispatch path — each plane through the
        // per-sample scalar cascade, real plane first.
        let mut re: Vec<f32> = xs.iter().map(|c| c.re).collect();
        let mut im: Vec<f32> = xs.iter().map(|c| c.im).collect();
        f.filter_signal_inplace(&mut re);
        f.filter_signal_inplace(&mut im);
        for (k, c) in out.iter().enumerate() {
            assert!(
                c.re.to_bits() == re[k].to_bits() && c.im.to_bits() == im[k].to_bits(),
                "sample {k}: batch {c:?} != per-plane ({}, {})",
                re[k],
                im[k]
            );
        }
    }

    proptest! {
        /// Scalar and SIMD cascades must agree *bitwise* (a ULP distance of
        /// exactly zero) on complex batch filtering, under either
        /// `sanitize-numerics` state. Passes trivially on CPUs without a
        /// SIMD backend.
        #[test]
        fn filter_backends_are_bitwise_identical(
            order in 1usize..5,
            xs in proptest::collection::vec((-3f32..3.0, -3f32..3.0), 0..200usize),
        ) {
            let Some(simd) = mmhand_kernels::simd_kernels() else { return Ok(()); };
            let scalar = mmhand_kernels::scalar_kernels();
            let mut f = ButterworthDesign {
                order: order * 2,
                low_hz: 1_000.0,
                high_hz: 4_000.0,
                sample_rate_hz: 20_000.0,
            }
            .design()
            .unwrap();
            let sig: Vec<mmhand_math::Complex> = xs
                .iter()
                .map(|&(r, i)| mmhand_math::Complex::new(r, i))
                .collect();
            let mut scratch = Vec::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            f.filter_complex_into_with(scalar, &sig, &mut scratch, &mut a);
            f.filter_complex_into_with(simd, &sig, &mut scratch, &mut b);
            for (k, (u, v)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits(),
                    "sample {k}: scalar {u:?} != simd {v:?}"
                );
            }
        }

        /// Lane `l` of a batched `filter_lanes` call must equal that signal
        /// alone through the per-sample cascade bit for bit — for lane
        /// counts spanning whole registers, multi-register passes and
        /// ragged tails, and for a cascade deeper than `MAX_BIQUADS`.
        #[test]
        fn filter_lanes_matches_per_signal_filtering(
            lanes in 1usize..41,
            rows in 0usize..100,
            deep in 0u8..2,
            seed in 0u64..1000,
        ) {
            let deep = deep == 1;
            let mut f = if deep { deep_filter() } else { paper_like_filter() };
            prop_assert_eq!(f.section_count() > MAX_BIQUADS, deep);
            let x: Vec<f32> = (0..rows * lanes)
                .map(|i| ((i as u64 * 7919 + seed) as f32 * 0.013).sin() * 3.0)
                .collect();
            let mut batched = x.clone();
            f.filter_lanes(&mut batched, lanes);
            for lane in 0..lanes {
                let mut alone: Vec<f32> = x.iter().skip(lane).step_by(lanes).copied().collect();
                f.filter_signal_inplace(&mut alone);
                for (t, y) in alone.iter().enumerate() {
                    let b = batched[t * lanes + lane];
                    prop_assert!(
                        b.to_bits() == y.to_bits(),
                        "sample {t} of lane {lane}: batched {b} != alone {y}"
                    );
                }
            }
        }

        // Any valid even-order design in a sane band must be stable with
        // bounded passband gain.
        #[test]
        fn designs_are_stable(order in 1usize..5, lo in 500f64..2000.0, width in 500f64..4000.0) {
            let d = ButterworthDesign {
                order: order * 2,
                low_hz: lo,
                high_hz: lo + width,
                sample_rate_hz: 20_000.0,
            };
            let f = d.design().unwrap();
            prop_assert!(f.is_stable());
            let centre = (d.low_hz * d.high_hz).sqrt();
            let h = f.frequency_response(centre, d.sample_rate_hz);
            prop_assert!((h - 1.0).abs() < 1e-6, "centre gain {h}");
        }
    }
}
