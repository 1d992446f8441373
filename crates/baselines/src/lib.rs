//! # mmhand-baselines
//!
//! Comparison methods for the mmHand evaluation:
//!
//! * [`literature`] — the fixed Table I numbers (vision methods on
//!   MSRA/ICVL; mm4Arm and HandFi on self-collected data),
//! * [`ablations`] — single-mechanism ablations of the mmHand model
//!   (attention stages, LSTM, kinematic loss),
//! * [`geometric`] — a non-learning peak-localisation baseline,
//! * [`surrogates`] — runnable stand-ins for the wireless baselines
//!   (mm4Arm-like per-frame regressor, HandFi-like coarse-channel model).

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod ablations;
pub mod geometric;
pub mod literature;
pub mod surrogates;

pub use ablations::{suite, Ablation};
pub use geometric::GeometricEstimator;
pub use literature::{TableEntry, TABLE1};
