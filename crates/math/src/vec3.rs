//! 3-D vectors used for joint positions, scatterer locations, and mesh
//! vertices. Units throughout the workspace are metres unless a function
//! documents otherwise.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component `f32` vector.
///
/// # Examples
///
/// ```
/// use mmhand_math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.norm(), 3.0);
/// assert_eq!(a.dot(Vec3::X), 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    /// X component (radar convention: right, metres).
    pub x: f32,
    /// Y component (radar convention: boresight/forward, metres).
    pub y: f32,
    /// Z component (radar convention: up, metres).
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.dot(self)
    }

    /// Returns the unit vector in the same direction, or `Vec3::ZERO` when
    /// the norm is below `1e-12` (degenerate input).
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n < 1e-12 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f32 {
        (self - rhs).norm()
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f32) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Returns `true` when all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Returns the components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Azimuth angle in radians in the radar frame: the angle between the
    /// projection onto the XY plane and the +Y boresight, positive toward +X.
    #[inline]
    pub fn azimuth(self) -> f32 {
        self.x.atan2(self.y)
    }

    /// Elevation angle in radians in the radar frame: the angle above the
    /// XY plane, positive toward +Z.
    #[inline]
    pub fn elevation(self) -> f32 {
        self.z.atan2((self.x * self.x + self.y * self.y).sqrt())
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            #[expect(clippy::panic, reason = "std's `Index` contract panics out of bounds")]
            _ => panic!("Vec3 index {index} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        match index {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            #[expect(clippy::panic, reason = "std's `IndexMut` contract panics out of bounds")]
            _ => panic!("Vec3 index {index} out of range"),
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_products_follow_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn azimuth_elevation_of_boresight_are_zero() {
        let p = Vec3::new(0.0, 1.0, 0.0);
        assert!(p.azimuth().abs() < 1e-6);
        assert!(p.elevation().abs() < 1e-6);
    }

    #[test]
    fn azimuth_positive_toward_plus_x() {
        let p = Vec3::new(1.0, 1.0, 0.0);
        assert!((p.azimuth() - std::f32::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn elevation_positive_toward_plus_z() {
        let p = Vec3::new(0.0, 1.0, 1.0);
        assert!((p.elevation() - std::f32::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.0, 9.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    proptest! {
        #[test]
        fn cross_is_orthogonal(ax in -10f32..10.0, ay in -10f32..10.0, az in -10f32..10.0,
                               bx in -10f32..10.0, by in -10f32..10.0, bz in -10f32..10.0) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            prop_assert!(c.dot(a).abs() < 1e-2);
            prop_assert!(c.dot(b).abs() < 1e-2);
        }

        #[test]
        fn normalized_has_unit_norm(ax in -10f32..10.0, ay in -10f32..10.0, az in -10f32..10.0) {
            let a = Vec3::new(ax, ay, az);
            prop_assume!(a.norm() > 1e-3);
            prop_assert!((a.normalized().norm() - 1.0).abs() < 1e-5);
        }

        #[test]
        fn triangle_inequality(ax in -10f32..10.0, ay in -10f32..10.0, az in -10f32..10.0,
                               bx in -10f32..10.0, by in -10f32..10.0, bz in -10f32..10.0) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-4);
        }
    }
}
