//! Window functions applied before FFTs to control spectral leakage.
//!
//! The radar cube builder windows each chirp (range dimension) and each
//! slow-time sequence (Doppler dimension) before transforming.

/// A window function shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Window {
    /// No tapering (all ones).
    Rectangular,
    /// Hann window — the default for the range/Doppler FFTs.
    #[default]
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window (wider main lobe, lower sidelobes).
    Blackman,
}

impl Window {
    /// Evaluates the window coefficient at sample `i` of an `n`-point window.
    ///
    /// Returns `1.0` when `n < 2` (degenerate windows are all-pass).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` and `n >= 2`.
    pub fn coefficient(self, i: usize, n: usize) -> f32 {
        if n < 2 {
            return 1.0;
        }
        assert!(i < n, "window index {i} out of range for length {n}");
        let x = i as f32 / (n - 1) as f32;
        let tau = 2.0 * std::f32::consts::PI;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => {
                0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos()
            }
        }
    }

    /// Returns the full `n`-point window as a vector. Scaling sample `i` by
    /// entry `i` is bitwise [`apply_inplace`](Self::apply_inplace), so hot
    /// paths cache this table instead of evaluating `cos` per sample.
    pub fn coefficients(self, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// Multiplies `signal` by the window in place.
    pub fn apply_inplace(self, signal: &mut [mmhand_math::Complex]) {
        let n = signal.len();
        for (i, s) in signal.iter_mut().enumerate() {
            *s = s.scale(self.coefficient(i, n));
        }
    }

    /// Coherent gain: the mean window coefficient, used to renormalise peak
    /// magnitudes after windowing.
    pub fn coherent_gain(self, n: usize) -> f32 {
        if n == 0 {
            return 1.0;
        }
        self.coefficients(n).iter().sum::<f32>() / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::Complex;
    use proptest::prelude::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(16)
            .iter()
            .all(|&c| c == 1.0));
    }

    #[test]
    fn hann_endpoints_are_zero_and_centre_is_one() {
        let w = Window::Hann.coefficients(65);
        assert!(w[0].abs() < 1e-6);
        assert!(w[64].abs() < 1e-6);
        assert!((w[32] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [Window::Hann, Window::Hamming, Window::Blackman] {
            let w = win.coefficients(33);
            for i in 0..w.len() {
                assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-6, "{win:?} not symmetric");
            }
        }
    }

    #[test]
    fn degenerate_lengths_are_all_pass() {
        assert_eq!(Window::Hann.coefficient(0, 1), 1.0);
        assert_eq!(Window::Blackman.coefficient(0, 0), 1.0);
    }

    #[test]
    fn two_point_hann_is_identically_zero() {
        // Both samples of a 2-point Hann window are endpoints, so the
        // window (and its coherent gain) is zero — callers must not window
        // 2-sample signals with Hann.
        assert_eq!(Window::Hann.coefficients(2), vec![0.0, 0.0]);
        assert_eq!(Window::Hann.coherent_gain(2), 0.0);
    }

    #[test]
    fn apply_inplace_scales_signal() {
        let mut sig = vec![Complex::ONE; 8];
        Window::Hann.apply_inplace(&mut sig);
        let w = Window::Hann.coefficients(8);
        for (s, c) in sig.iter().zip(&w) {
            assert!((s.re - c).abs() < 1e-6);
            assert!(s.im.abs() < 1e-6);
        }
    }

    #[test]
    fn coefficient_table_scaling_matches_apply_inplace_bitwise() {
        // Callers that cache `coefficients(n)` and scale by table must get
        // the same bits as the per-call `cos` evaluation.
        for n in [1usize, 2, 16, 64, 65] {
            let sig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos()))
                .collect();
            for win in [Window::Rectangular, Window::Hann, Window::Hamming, Window::Blackman] {
                let mut applied = sig.clone();
                win.apply_inplace(&mut applied);
                let table = win.coefficients(n);
                for (k, (a, (s, &w))) in applied.iter().zip(sig.iter().zip(&table)).enumerate() {
                    let t = s.scale(w);
                    assert!(
                        a.re.to_bits() == t.re.to_bits() && a.im.to_bits() == t.im.to_bits(),
                        "{win:?} n={n} sample {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn hann_reduces_leakage_versus_rectangular() {
        // An off-grid tone leaks less into distant bins when Hann-windowed.
        use crate::fft::fft;
        let n = 64;
        let k = 10.37_f32; // deliberately between bins
        let tau = 2.0 * std::f32::consts::PI;
        let tone: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(tau * k * i as f32 / n as f32))
            .collect();
        let rect = fft(&tone);
        let mut hann_sig = tone.clone();
        Window::Hann.apply_inplace(&mut hann_sig);
        let hann = fft(&hann_sig);
        // Compare energy far from the tone (bins 30..50).
        let far = |spec: &[Complex]| -> f32 { (30..50).map(|i| spec[i].norm_sqr()).sum() };
        assert!(far(&hann) < far(&rect) / 10.0);
    }

    proptest! {
        #[test]
        fn coefficients_bounded(n in 2usize..256, idx in 0usize..255) {
            prop_assume!(idx < n);
            for win in [Window::Rectangular, Window::Hann, Window::Hamming, Window::Blackman] {
                let c = win.coefficient(idx, n);
                prop_assert!((-0.01..=1.01).contains(&c), "{win:?} coefficient {c}");
            }
        }

        #[test]
        fn coherent_gain_in_unit_interval(n in 3usize..512) {
            // n = 2 is excluded: a 2-point Hann window is identically zero
            // (both samples are endpoints); see the unit test below.
            for win in [Window::Hann, Window::Hamming, Window::Blackman] {
                let g = win.coherent_gain(n);
                prop_assert!(g > 0.0 && g <= 1.0);
            }
        }
    }
}
