//! # mmhand-radar
//!
//! Physics-based FMCW mmWave radar simulator — the synthetic stand-in for
//! the paper's TI IWR1443 + DCA1000EVM capture rig.
//!
//! * [`config`] — chirp/frame parameters (77–81 GHz, 80 µs chirps,
//!   3 TX × 4 RX TDM-MIMO),
//! * [`mod@array`] — the IWR1443-style virtual antenna array,
//! * [`scene`] — point-target scenes: hand scatterers, body clutter,
//!   environments (playground / corridor / classroom),
//! * [`impairments`] — gloves, handheld objects, line-of-sight obstacles,
//! * [`synth`] — IF ADC-sample synthesis per paper Eq. 1,
//! * [`capture`] — end-to-end session recording with ground-truth labels.
//!
//! # Examples
//!
//! ```
//! use mmhand_radar::capture::{record_session, CaptureConfig};
//! use mmhand_hand::trajectory::GestureTrack;
//! use mmhand_hand::gesture::Gesture;
//! use mmhand_hand::user::UserProfile;
//! use mmhand_math::Vec3;
//!
//! let user = UserProfile::generate(1, 42);
//! let track = GestureTrack::from_gestures(
//!     &[Gesture::OpenPalm, Gesture::Fist],
//!     Vec3::new(0.0, 0.3, 0.0),
//!     0.4,
//!     0.4,
//! );
//! let session = record_session(&user, &track, 4, &CaptureConfig::default());
//! assert_eq!(session.len(), 4);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod array;
pub mod capture;
pub mod config;
pub mod error;
pub mod impairments;
pub mod scene;
pub mod synth;

pub use array::VirtualArray;
pub use capture::{record_session, CaptureConfig, CaptureSession};
pub use config::ChirpConfig;
pub use error::RadarError;
pub use scene::{BodyPlacement, Environment, PointTarget, Scene};
pub use synth::RawFrame;
