//! 3×3 matrices for rotations and the linear-blend-skinning math in the
//! MANO-style mesh model.

use crate::Vec3;
use std::ops::{Add, Mul};

/// A row-major 3×3 `f32` matrix.
///
/// # Examples
///
/// ```
/// use mmhand_math::{Mat3, Vec3};
///
/// let r = Mat3::rotation_z(std::f32::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat3 {
    /// Rows in row-major order: `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// Creates a matrix from rows.
    #[inline]
    pub const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Mat3 { m: [r0, r1, r2] }
    }

    /// Rotation about the X axis by `theta` radians.
    pub fn rotation_x(theta: f32) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c])
    }

    /// Rotation about the Y axis by `theta` radians.
    pub fn rotation_y(theta: f32) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c])
    }

    /// Rotation about the Z axis by `theta` radians.
    pub fn rotation_z(theta: f32) -> Self {
        let (s, c) = theta.sin_cos();
        Mat3::from_rows([c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0])
    }

    /// Rotation about an arbitrary unit `axis` by `theta` radians
    /// (Rodrigues' formula).
    ///
    /// `axis` is normalised internally; a zero axis yields the identity.
    pub fn rotation_axis_angle(axis: Vec3, theta: f32) -> Self {
        let a = axis.normalized();
        if a == Vec3::ZERO {
            return Mat3::IDENTITY;
        }
        let (s, c) = theta.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (a.x, a.y, a.z);
        Mat3::from_rows(
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        )
    }

    /// Matrix transpose.
    #[inline]
    pub fn transpose(self) -> Self {
        let m = self.m;
        Mat3::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Matrix determinant.
    pub fn det(self) -> f32 {
        let m = self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix trace (sum of diagonal entries).
    #[inline]
    pub fn trace(self) -> f32 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Returns the inverse, or `None` when the determinant's magnitude is
    /// below `1e-12`.
    pub fn inverse(self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let m = self.m;
        let inv_d = 1.0 / d;
        Some(Mat3::from_rows(
            [
                (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d,
                (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d,
                (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d,
            ],
            [
                (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d,
                (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d,
                (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d,
            ],
            [
                (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d,
                (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d,
                (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d,
            ],
        ))
    }

    /// Scales every entry by `s`.
    pub fn scale(self, s: f32) -> Mat3 {
        let mut out = self;
        for row in &mut out.m {
            for v in row {
                *v *= s;
            }
        }
        out
    }

    /// Returns the row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    #[inline]
    pub fn row(self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for (k, rhs_row) in rhs.m.iter().enumerate() {
                    acc += self.m[i][k] * rhs_row[j];
                }
                out.m[i][j] = acc;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] = self.m[i][j] + rhs.m[i][j];
            }
        }
        out
    }
}

impl Mul<f32> for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: f32) -> Mat3 {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat_close(a: Mat3, b: Mat3, eps: f32) -> bool {
        a.m.iter()
            .flatten()
            .zip(b.m.iter().flatten())
            .all(|(x, y)| (x - y).abs() <= eps)
    }

    #[test]
    fn identity_is_neutral() {
        let r = Mat3::rotation_axis_angle(Vec3::new(1.0, 2.0, 3.0), 0.8);
        assert!(mat_close(r * Mat3::IDENTITY, r, 1e-6));
        assert!(mat_close(Mat3::IDENTITY * r, r, 1e-6));
    }

    #[test]
    fn axis_angle_matches_basis_rotations() {
        for theta in [-1.0_f32, 0.3, 2.0] {
            assert!(mat_close(
                Mat3::rotation_axis_angle(Vec3::X, theta),
                Mat3::rotation_x(theta),
                1e-6
            ));
            assert!(mat_close(
                Mat3::rotation_axis_angle(Vec3::Y, theta),
                Mat3::rotation_y(theta),
                1e-6
            ));
            assert!(mat_close(
                Mat3::rotation_axis_angle(Vec3::Z, theta),
                Mat3::rotation_z(theta),
                1e-6
            ));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let s = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]);
        assert!(s.inverse().is_none());
    }

    #[test]
    fn zero_axis_rotation_is_identity() {
        assert!(mat_close(
            Mat3::rotation_axis_angle(Vec3::ZERO, 1.0),
            Mat3::IDENTITY,
            0.0
        ));
    }

    proptest! {
        #[test]
        fn rotation_is_orthonormal(ax in -1f32..1.0, ay in -1f32..1.0, az in -1f32..1.0,
                                   theta in -6f32..6.0) {
            prop_assume!(Vec3::new(ax, ay, az).norm() > 1e-2);
            let r = Mat3::rotation_axis_angle(Vec3::new(ax, ay, az), theta);
            prop_assert!(mat_close(r * r.transpose(), Mat3::IDENTITY, 1e-4));
            prop_assert!((r.det() - 1.0).abs() < 1e-4);
        }

        #[test]
        fn inverse_times_self_is_identity(theta in -3f32..3.0, s in 0.5f32..2.0) {
            let a = Mat3::rotation_y(theta).scale(s);
            let inv = a.inverse().unwrap();
            prop_assert!(mat_close(a * inv, Mat3::IDENTITY, 1e-3));
        }

        #[test]
        fn rotation_preserves_norm(theta in -6f32..6.0,
                                   vx in -5f32..5.0, vy in -5f32..5.0, vz in -5f32..5.0) {
            let v = Vec3::new(vx, vy, vz);
            let r = Mat3::rotation_axis_angle(Vec3::new(0.3, -0.5, 0.8), theta);
            prop_assert!(((r * v).norm() - v.norm()).abs() < 1e-3);
        }
    }
}
