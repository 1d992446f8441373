//! # mmhand-math
//!
//! Small, dependency-light math foundation shared by every crate in the
//! mmHand reproduction workspace:
//!
//! * [`Complex`] — complex arithmetic used throughout the DSP stack,
//! * [`Vec3`] / [`Mat3`] — 3-D geometry for hand kinematics and radar scenes,
//! * [`Quaternion`] / [`AxisAngle`] — rotation representations used by the
//!   MANO-style mesh model and the pose-regression head,
//! * [`stats`] — the statistics behind the paper's metrics (means,
//!   percentiles, empirical CDFs, trapezoidal AUC),
//! * [`rng`] — seeded RNG helpers so every experiment is reproducible.
//!
//! # Examples
//!
//! ```
//! use mmhand_math::{Vec3, Quaternion};
//!
//! let axis = Vec3::new(0.0, 0.0, 1.0);
//! let q = Quaternion::from_axis_angle(axis, std::f32::consts::FRAC_PI_2);
//! let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
//! assert!((v - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-6);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod complex;
pub mod mat3;
pub mod quaternion;
pub mod rng;
pub mod stats;
pub mod vec3;

pub use complex::Complex;
pub use mat3::Mat3;
pub use quaternion::{AxisAngle, Quaternion};
pub use vec3::Vec3;

/// Speed of light in metres per second, used by FMCW range equations.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Converts degrees to radians (`f32`).
#[inline]
pub fn deg_to_rad(deg: f32) -> f32 {
    deg * std::f32::consts::PI / 180.0
}

/// Converts radians to degrees (`f32`).
#[inline]
pub fn rad_to_deg(rad: f32) -> f32 {
    rad * 180.0 / std::f32::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_radian_round_trip() {
        for d in [-180.0_f32, -45.0, 0.0, 30.0, 90.0, 360.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-4);
        }
    }

    #[test]
    fn speed_of_light_is_physical() {
        assert!((SPEED_OF_LIGHT - 2.998e8).abs() < 1e6);
    }
}
