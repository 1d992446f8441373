//! # mmhand-dsp
//!
//! The digital-signal-processing substrate of the mmHand reproduction.
//! Everything the paper's *Signal Pre-processing* section (§III) needs is
//! implemented here from scratch:
//!
//! * [`mod@fft`] — iterative radix-2 complex FFT/IFFT plus helpers
//!   (`fft_shift`, zero-padding, real-input transform),
//! * [`window`] — Hann / Hamming / Blackman / rectangular windows,
//! * [`filter`] — IIR Butterworth band-pass design (the paper's 8th-order
//!   filter that isolates the hand's range band) as cascaded biquads,
//! * [`zoom`] — zoom-FFT / refined DFT used for angle estimation with a
//!   refinement factor of 2 over the ±30° field of view,
//! * [`spectrum`] — range-FFT, Doppler-FFT and angle-FFT wrappers, peak
//!   finding and spectrum utilities.
//!
//! # Examples
//!
//! Recovering a tone frequency with the FFT:
//!
//! ```
//! use mmhand_dsp::fft::fft;
//! use mmhand_math::Complex;
//!
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|i| Complex::from_angle(2.0 * std::f32::consts::PI * 5.0 * i as f32 / n as f32))
//!     .collect();
//! let spec = fft(&tone);
//! let peak = (0..n).max_by(|&a, &b| spec[a].abs().total_cmp(&spec[b].abs())).unwrap();
//! assert_eq!(peak, 5);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod error;
pub mod fft;
pub mod filter;
pub mod spectrum;
pub mod window;
pub mod zoom;

pub use error::DspError;
pub use fft::{fft, fft_inplace, ifft};
pub use filter::{BandpassFilter, ButterworthDesign};
pub use window::Window;
