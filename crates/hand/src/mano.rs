//! MANO-style parametric hand mesh (paper §V, Eqs. 10–11).
//!
//! MANO models a hand mesh as `M(β, θ) = W(T_p(β, θ), J(β), θ, W)`:
//! a template mesh deformed by shape (`B_s(β)`) and pose (`B_p(θ)`) blend
//! shapes, then posed by linear blend skinning `W(·)` against the joints
//! `J(β)`.
//!
//! The real MANO template and PCA shape basis are learned from laser scans
//! we do not have; this module keeps the *mathematical structure* identical
//! while sourcing the geometry procedurally:
//!
//! * the template `T̄` is a procedural hand surface (finger tubes + palm
//!   slab) generated from [`HandShape::default`] in the open rest pose,
//! * the shape blend `B_s(β)` is computed exactly by re-generating the
//!   template under [`HandShape::from_beta`] (our generator is parametric,
//!   so we do not need a first-order PCA approximation),
//! * the pose blend `B_p(θ)` is a small corrective bulge at bent joints,
//! * `J(β)` comes from the same forward kinematics the simulator uses,
//! * `W` is classic linear blend skinning with distance-derived weights.

use crate::pose::HandPose;
use crate::shape::HandShape;
use crate::skeleton::{self, Finger, JOINT_COUNT, PARENTS};
use mmhand_kernels::SkinAttachment;
use mmhand_math::{Quaternion, Vec3};

/// Ring vertices per finger cross-section.
const RING: usize = 6;
/// Cross-section rings per finger (one at each joint).
const RINGS_PER_FINGER: usize = 4;
/// Palm grid resolution per side.
const PALM_N: usize = 4;

/// A triangle mesh.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Mesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Triangles as vertex-index triples (counter-clockwise outward).
    pub faces: Vec<[u32; 3]>,
}

impl Mesh {
    /// Axis-aligned bounding box `(min, max)`; zeros for an empty mesh.
    pub fn bounds(&self) -> (Vec3, Vec3) {
        let mut lo = Vec3::splat(f32::INFINITY);
        let mut hi = Vec3::splat(f32::NEG_INFINITY);
        for v in &self.vertices {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        if self.vertices.is_empty() {
            (Vec3::ZERO, Vec3::ZERO)
        } else {
            (lo, hi)
        }
    }

    /// Serialises to Wavefront OBJ text.
    pub fn to_obj(&self) -> String {
        let mut s = String::with_capacity(self.vertices.len() * 32);
        for v in &self.vertices {
            s.push_str(&format!("v {} {} {}\n", v.x, v.y, v.z));
        }
        for f in &self.faces {
            s.push_str(&format!("f {} {} {}\n", f[0] + 1, f[1] + 1, f[2] + 1));
        }
        s
    }
}

/// The MANO-style hand model.
///
/// # Examples
///
/// ```
/// use mmhand_hand::mano::ManoModel;
///
/// let model = ManoModel::new();
/// let beta = [0.0_f32; 10];
/// let theta = [mmhand_math::Vec3::ZERO; 21];
/// let mesh = model.mesh(&beta, &theta);
/// assert!(!mesh.vertices.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ManoModel {
    /// Template vertices in the rest (open-hand, local-frame) pose.
    template: Vec<Vec3>,
    faces: Vec<[u32; 3]>,
    /// Per-vertex skinning attachments in kernel-backend form (up to two
    /// joints with blend weights; unused slots carry an exact `0.0`).
    weights: Vec<SkinAttachment>,
    /// Rest-pose joint locations for the default shape.
    rest_joints: [Vec3; JOINT_COUNT],
    /// Pose-blend-shape gain (0 disables `B_p`).
    pose_blend_gain: f32,
}

impl Default for ManoModel {
    fn default() -> Self {
        ManoModel::new()
    }
}

impl ManoModel {
    /// Builds the model with the default template.
    pub fn new() -> Self {
        let shape = HandShape::default();
        let rest_joints = HandPose::open().joints(&shape);
        let (template, faces) = build_template(&shape, &rest_joints);
        let weights = compute_weights(&template, &rest_joints);
        ManoModel { template, faces, weights, rest_joints, pose_blend_gain: 0.2 }
    }

    /// Number of template vertices.
    pub fn vertex_count(&self) -> usize {
        self.template.len()
    }

    /// Number of faces.
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Evaluates the deformed template `T_p(β, θ) = T̄ + B_s(β) + B_p(θ)`
    /// (Eq. 11) *without* posing — vertices remain in the rest pose.
    pub fn deformed_template(&self, beta: &[f32], theta: &[Vec3; JOINT_COUNT]) -> Vec<Vec3> {
        let shape = HandShape::from_beta(beta);
        let shaped_joints = HandPose::open().joints(&shape);
        // Exact shape blend: regenerate the template under the new shape.
        let (mut verts, _) = build_template(&shape, &shaped_joints);
        // Pose blend: bulge vertices near bent joints along the palm normal
        // (-Y in the local frame), proportional to the bend magnitude.
        if self.pose_blend_gain > 0.0 {
            for (v, w) in verts.iter_mut().zip(&self.weights) {
                let mut bend = 0.0;
                for k in 0..2 {
                    bend += w.weights[k] * theta[w.joints[k] as usize].norm();
                }
                let bulge = self.pose_blend_gain * 0.004 * bend.min(2.0);
                v.y -= bulge;
            }
        }
        verts
    }

    /// Full MANO forward pass `M(β, θ)` (Eq. 10): deform the template, then
    /// apply linear blend skinning with per-joint rotations `θ` (rotation
    /// vectors, one per joint; fingertip entries are ignored).
    ///
    /// The returned mesh is in the hand-local frame; apply the global wrist
    /// rotation via `theta[0]` and translate externally for world placement.
    pub fn mesh(&self, beta: &[f32], theta: &[Vec3; JOINT_COUNT]) -> Mesh {
        let shape = HandShape::from_beta(beta);
        let rest_joints = HandPose::open().joints(&shape);
        let verts = self.deformed_template(beta, theta);

        // Global transform per joint: G_j = G_parent · [R(θ_j) about J_j].
        let mut global_rot = [Quaternion::IDENTITY; JOINT_COUNT];
        let mut posed_joints = rest_joints;
        for j in 0..JOINT_COUNT {
            let local = Quaternion::from_rotation_vector(theta[j]);
            match PARENTS[j] {
                None => {
                    global_rot[j] = local;
                    posed_joints[j] = rest_joints[j];
                }
                Some(p) => {
                    global_rot[j] = global_rot[p] * local;
                    let offset = rest_joints[j] - rest_joints[p];
                    posed_joints[j] = posed_joints[p] + global_rot[p].rotate(offset);
                }
            }
        }

        // Linear blend skinning relative to the rest pose, dispatched to the
        // kernel backend (bitwise identical whichever backend is active).
        let mut out = Vec::new();
        mmhand_kernels::kernels().lbs_skin(
            &verts,
            &self.weights,
            &rest_joints,
            &posed_joints,
            &global_rot,
            &mut out,
        );
        Mesh { vertices: out, faces: self.faces.clone() }
    }

    /// Skeleton joints after posing with `θ` (useful for checking that the
    /// mesh and skeleton agree).
    pub fn posed_joints(&self, beta: &[f32], theta: &[Vec3; JOINT_COUNT]) -> [Vec3; JOINT_COUNT] {
        let rest_joints = HandPose::open().joints(&HandShape::from_beta(beta));
        let mut global_rot = [Quaternion::IDENTITY; JOINT_COUNT];
        let mut posed = rest_joints;
        for j in 0..JOINT_COUNT {
            let local = Quaternion::from_rotation_vector(theta[j]);
            match PARENTS[j] {
                None => global_rot[j] = local,
                Some(p) => {
                    global_rot[j] = global_rot[p] * local;
                    let offset = rest_joints[j] - rest_joints[p];
                    posed[j] = posed[p] + global_rot[p].rotate(offset);
                }
            }
        }
        posed
    }

    /// Rest-pose joints of the default-shape template.
    pub fn rest_joints(&self) -> &[Vec3; JOINT_COUNT] {
        &self.rest_joints
    }
}

/// Builds the procedural template mesh for `shape` in the rest pose.
fn build_template(shape: &HandShape, joints: &[Vec3; JOINT_COUNT]) -> (Vec<Vec3>, Vec<[u32; 3]>) {
    let mut vertices: Vec<Vec3> = Vec::new();
    let mut faces: Vec<[u32; 3]> = Vec::new();

    // --- Fingers: tubes of RING-gon cross-sections at each joint. ---
    for finger in Finger::ALL {
        let fj = finger.joints();
        let radius0 = shape.finger_radius[finger.index()] * shape.scale;
        let base_idx = vertices.len() as u32;
        for (ri, &j) in fj.iter().enumerate() {
            // Bone direction at this ring (incoming for tip).
            let dir = if ri + 1 < fj.len() {
                (joints[fj[ri + 1]] - joints[j]).normalized()
            } else {
                (joints[j] - joints[fj[ri - 1]]).normalized()
            };
            // Perpendicular basis.
            let up = if dir.z.abs() < 0.9 { Vec3::Z } else { Vec3::X };
            let e1 = dir.cross(up).normalized();
            let e2 = dir.cross(e1).normalized();
            let r = radius0 * (1.0 - 0.12 * ri as f32);
            for k in 0..RING {
                let a = 2.0 * std::f32::consts::PI * k as f32 / RING as f32;
                vertices.push(joints[j] + e1 * (r * a.cos()) + e2 * (r * a.sin()));
            }
        }
        // Tip apex.
        let tip_dir = (joints[fj[3]] - joints[fj[2]]).normalized();
        let apex = joints[fj[3]] + tip_dir * (radius0 * 0.8);
        let apex_idx = vertices.len() as u32;
        vertices.push(apex);

        // Side quads between consecutive rings.
        for ri in 0..RINGS_PER_FINGER - 1 {
            for k in 0..RING {
                let k2 = (k + 1) % RING;
                let a = base_idx + (ri * RING + k) as u32;
                let b = base_idx + (ri * RING + k2) as u32;
                let c = base_idx + ((ri + 1) * RING + k) as u32;
                let d = base_idx + ((ri + 1) * RING + k2) as u32;
                faces.push([a, b, c]);
                faces.push([b, d, c]);
            }
        }
        // Tip fan.
        let last_ring = base_idx + ((RINGS_PER_FINGER - 1) * RING) as u32;
        for k in 0..RING {
            let k2 = (k + 1) % RING;
            faces.push([last_ring + k as u32, last_ring + k2 as u32, apex_idx]);
        }
    }

    // --- Palm: front and back grids between the wrist and knuckle row. ---
    let wrist = joints[0];
    let index_mcp = joints[Finger::Index.base()];
    let pinky_mcp = joints[Finger::Pinky.base()];
    let half_t = shape.palm_thickness * 0.5 * shape.scale;
    // Palm normal in the rest local frame is -Y.
    let normal = Vec3::new(0.0, -1.0, 0.0);
    let palm_base = vertices.len() as u32;
    for side in 0..2 {
        let off = if side == 0 { normal * half_t } else { normal * (-half_t) };
        for i in 0..PALM_N {
            for j in 0..PALM_N {
                let u = i as f32 / (PALM_N - 1) as f32;
                let v = j as f32 / (PALM_N - 1) as f32;
                // Slightly widen the wrist end for a natural silhouette.
                let row = pinky_mcp.lerp(index_mcp, v);
                let p = wrist.lerp(row, u) + off;
                vertices.push(p);
            }
        }
    }
    let idx = |side: usize, i: usize, j: usize| -> u32 {
        palm_base + (side * PALM_N * PALM_N + i * PALM_N + j) as u32
    };
    for side in 0..2 {
        for i in 0..PALM_N - 1 {
            for j in 0..PALM_N - 1 {
                let (a, b, c, d) = (
                    idx(side, i, j),
                    idx(side, i, j + 1),
                    idx(side, i + 1, j),
                    idx(side, i + 1, j + 1),
                );
                if side == 0 {
                    faces.push([a, b, c]);
                    faces.push([b, d, c]);
                } else {
                    faces.push([a, c, b]);
                    faces.push([b, c, d]);
                }
            }
        }
    }
    // Side walls stitching front and back along the border.
    for i in 0..PALM_N - 1 {
        for (j0, j1) in [(0usize, 0usize), (PALM_N - 1, PALM_N - 1)] {
            let a = idx(0, i, j0);
            let b = idx(0, i + 1, j1);
            let c = idx(1, i, j0);
            let d = idx(1, i + 1, j1);
            faces.push([a, c, b]);
            faces.push([b, c, d]);
        }
    }
    for j in 0..PALM_N - 1 {
        for (i0, i1) in [(0usize, 0usize), (PALM_N - 1, PALM_N - 1)] {
            let a = idx(0, i0, j);
            let b = idx(0, i1, j + 1);
            let c = idx(1, i0, j);
            let d = idx(1, i1, j + 1);
            faces.push([a, b, c]);
            faces.push([b, d, c]);
        }
    }

    (vertices, faces)
}

/// Distance-based skinning weights: each vertex binds to its two nearest
/// bones (weighted by inverse squared distance), attributed to the bone's
/// parent joint — the joint whose rotation moves that bone.
fn compute_weights(vertices: &[Vec3], joints: &[Vec3; JOINT_COUNT]) -> Vec<SkinAttachment> {
    let bones: Vec<(usize, usize)> = skeleton::bones().collect();
    vertices
        .iter()
        .map(|&v| {
            let mut best: [(usize, f32); 2] = [(0, f32::INFINITY); 2];
            for &(p, c) in &bones {
                let d = point_segment_distance(v, joints[p], joints[c]);
                if d < best[0].1 {
                    best[1] = best[0];
                    best[0] = (p, d);
                } else if d < best[1].1 {
                    best[1] = (p, d);
                }
            }
            let eps = 1e-4;
            let w0 = 1.0 / (best[0].1 * best[0].1 + eps);
            let w1 = 1.0 / (best[1].1 * best[1].1 + eps);
            // Harden the weights: a vertex clearly closest to one bone
            // should follow it almost rigidly.
            let (w0, w1) = if best[0].1 * 2.0 < best[1].1 { (1.0, 0.0) } else { (w0, w1) };
            let sum = w0 + w1;
            SkinAttachment {
                joints: [best[0].0 as u32, best[1].0 as u32],
                weights: [w0 / sum, w1 / sum],
            }
        })
        .collect()
}

fn point_segment_distance(p: Vec3, a: Vec3, b: Vec3) -> f32 {
    let ab = b - a;
    let t = ((p - a).dot(ab) / ab.norm_sqr().max(1e-12)).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn zero_theta() -> [Vec3; JOINT_COUNT] {
        [Vec3::ZERO; JOINT_COUNT]
    }

    #[test]
    fn template_has_reasonable_size() {
        let m = ManoModel::new();
        assert!(m.vertex_count() > 100, "{} vertices", m.vertex_count());
        assert!(m.face_count() > 200, "{} faces", m.face_count());
    }

    #[test]
    fn rest_pose_mesh_equals_template_bounds() {
        let m = ManoModel::new();
        let mesh = m.mesh(&[0.0; 10], &zero_theta());
        assert_eq!(mesh.vertices.len(), m.vertex_count());
        let (lo, hi) = mesh.bounds();
        // A hand is roughly 20 cm tall in the local frame, fingers up.
        assert!(hi.z - lo.z > 0.12 && hi.z - lo.z < 0.30, "height {}", hi.z - lo.z);
        assert!(hi.x - lo.x > 0.05 && hi.x - lo.x < 0.20, "width {}", hi.x - lo.x);
    }

    #[test]
    fn faces_index_valid_vertices() {
        let m = ManoModel::new();
        let mesh = m.mesh(&[0.0; 10], &zero_theta());
        let n = mesh.vertices.len() as u32;
        for f in &mesh.faces {
            for &i in f {
                assert!(i < n);
            }
        }
    }

    #[test]
    fn identity_pose_keeps_vertices_near_template() {
        let m = ManoModel::new();
        let mesh = m.mesh(&[0.0; 10], &zero_theta());
        // With zero pose-blend bend, skinning must reproduce the template.
        let template = m.deformed_template(&[0.0; 10], &zero_theta());
        for (a, b) in mesh.vertices.iter().zip(&template) {
            assert!(a.distance(*b) < 1e-5);
        }
    }

    #[test]
    fn curling_index_moves_its_tip_vertices() {
        let m = ManoModel::new();
        let rest = m.mesh(&[0.0; 10], &zero_theta());
        let mut theta = zero_theta();
        // Bend the index PIP (joint 6) by 1 rad about local X.
        theta[5] = Vec3::new(1.0, 0.0, 0.0);
        theta[6] = Vec3::new(0.8, 0.0, 0.0);
        let bent = m.mesh(&[0.0; 10], &theta);
        // Vertices near the index tip must move a lot; palm vertices barely.
        let tip = m.rest_joints()[Finger::Index.tip()];
        let wrist = m.rest_joints()[0];
        let mut tip_move = 0.0_f32;
        let mut palm_move = 0.0_f32;
        for i in 0..rest.vertices.len() {
            let d = rest.vertices[i].distance(bent.vertices[i]);
            if rest.vertices[i].distance(tip) < 0.02 {
                tip_move = tip_move.max(d);
            }
            if rest.vertices[i].distance(wrist) < 0.02 {
                palm_move = palm_move.max(d);
            }
        }
        assert!(tip_move > 0.03, "tip moved {tip_move}");
        assert!(palm_move < 0.01, "palm moved {palm_move}");
    }

    #[test]
    fn posed_joints_follow_theta_chain() {
        let m = ManoModel::new();
        let mut theta = zero_theta();
        theta[9] = Vec3::new(std::f32::consts::FRAC_PI_2, 0.0, 0.0); // middle MCP
        let posed = m.posed_joints(&[0.0; 10], &theta);
        let rest = m.rest_joints();
        // Middle-finger tip should drop toward -Y (palm side).
        assert!(posed[Finger::Middle.tip()].y < rest[Finger::Middle.tip()].y - 0.03);
        // Wrist unchanged.
        assert!(posed[0].distance(rest[0]) < 1e-6);
    }

    #[test]
    fn beta_scales_mesh() {
        let m = ManoModel::new();
        let small = m.mesh(&[-2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &zero_theta());
        let large = m.mesh(&[2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], &zero_theta());
        let size = |mesh: &Mesh| {
            let (lo, hi) = mesh.bounds();
            (hi - lo).norm()
        };
        assert!(size(&large) > size(&small) * 1.1);
    }

    #[test]
    fn obj_export_round_trips_counts() {
        let m = ManoModel::new();
        let mesh = m.mesh(&[0.0; 10], &zero_theta());
        let obj = mesh.to_obj();
        let v_lines = obj.lines().filter(|l| l.starts_with("v ")).count();
        let f_lines = obj.lines().filter(|l| l.starts_with("f ")).count();
        assert_eq!(v_lines, mesh.vertices.len());
        assert_eq!(f_lines, mesh.faces.len());
    }

    #[test]
    fn global_rotation_via_wrist_theta() {
        let m = ManoModel::new();
        let mut theta = zero_theta();
        theta[0] = Vec3::new(0.0, 0.0, std::f32::consts::FRAC_PI_2);
        let posed = m.posed_joints(&[0.0; 10], &theta);
        let rest = m.rest_joints();
        // The whole skeleton rotates about Z at the wrist: middle tip X/Y swap.
        let tip_rest = rest[Finger::Middle.tip()];
        let tip_posed = posed[Finger::Middle.tip()];
        assert!((tip_posed.norm() - tip_rest.norm()).abs() < 1e-5);
        assert!(tip_posed.distance(tip_rest) > 0.01);
    }

    /// Scalar and SIMD skinning must agree *bitwise* (a ULP distance of
    /// exactly zero) on the real model's attachments and a bent pose.
    /// Passes trivially on CPUs without a SIMD backend.
    #[test]
    fn lbs_backends_are_bitwise_identical_on_model_data() {
        let Some(simd) = mmhand_kernels::simd_kernels() else { return };
        let scalar = mmhand_kernels::scalar_kernels();
        let m = ManoModel::new();
        let mut theta = zero_theta();
        theta[5] = Vec3::new(0.9, 0.1, -0.2);
        theta[6] = Vec3::new(0.7, 0.0, 0.0);
        theta[9] = Vec3::new(0.5, -0.1, 0.0);
        let beta = [0.3, -0.2, 0.1, 0.0, 0.0, 0.4, 0.0, 0.0, -0.3, 0.0];
        let verts = m.deformed_template(&beta, &theta);
        let rest = *m.rest_joints();
        let posed = m.posed_joints(&beta, &theta);
        let mut rot = [Quaternion::IDENTITY; JOINT_COUNT];
        for j in 0..JOINT_COUNT {
            let local = Quaternion::from_rotation_vector(theta[j]);
            rot[j] = match PARENTS[j] {
                None => local,
                Some(p) => rot[p] * local,
            };
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.lbs_skin(&verts, &m.weights, &rest, &posed, &rot, &mut a);
        simd.lbs_skin(&verts, &m.weights, &rest, &posed, &rot, &mut b);
        assert_eq!(a.len(), b.len());
        for (i, (u, v)) in a.iter().zip(&b).enumerate() {
            assert!(
                u.x.to_bits() == v.x.to_bits()
                    && u.y.to_bits() == v.y.to_bits()
                    && u.z.to_bits() == v.z.to_bits(),
                "vertex {i}: scalar {u:?} != simd {v:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn mesh_is_bounded_for_bounded_params(
            b in proptest::collection::vec(-2.5f32..2.5, 10),
            bend in 0f32..1.5,
        ) {
            let m = ManoModel::new();
            let mut theta = zero_theta();
            for f in Finger::ALL {
                for &j in &f.joints()[..3] {
                    theta[j] = Vec3::new(bend, 0.0, 0.0);
                }
            }
            let mesh = m.mesh(&b, &theta);
            for v in &mesh.vertices {
                prop_assert!(v.is_finite());
                prop_assert!(v.norm() < 0.5, "vertex {v} outside bound");
            }
        }
    }
}
