//! Hand-mesh reconstruction (paper §V, Fig. 8).
//!
//! From a regressed 21-joint skeleton, mmHand fits the MANO parameters:
//!
//! * a **shape network** — fully connected layers with layer normalisation
//!   mapping the skeleton to the shape coefficients `β ∈ R¹⁰`,
//! * a **pose network** — fully connected layers with layer normalisation
//!   mapping the skeleton plus the 20 phalange direction vectors
//!   `D_p ∈ R^{20×3}` to per-joint rotation quaternions `Q ∈ R^{21×4}`,
//!   which are normalised and converted to the axis-angle `θ ∈ R^{21×3}`.
//!
//! Both networks are trained on synthetic `(β, θ) → joints` pairs from the
//! hand model — the end-to-end inverse-kinematics learning of the paper —
//! with the analytic solver ([`mmhand_hand::ik`]) providing the quaternion
//! targets. [`MeshReconstructor::try_reconstruct_analytic`] exposes the purely
//! analytic path as a deterministic fallback/baseline.

use crate::error::PipelineError;
use mmhand_hand::ik::solve_ik;
use mmhand_hand::mano::{ManoModel, Mesh};
use mmhand_hand::pose::HandPose;
use mmhand_hand::shape::{HandShape, BETA_DIM};
use mmhand_hand::skeleton::JOINT_COUNT;
use mmhand_math::rng::{stream_rng, normal};
use mmhand_math::{Quaternion, Vec3};
use mmhand_nn::{Adam, LayerNorm, Linear, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// Input dimension of the pose network: 63 joint coords + 60 bone dirs.
const POSE_IN: usize = 63 + 60;
/// Output dimension of the pose network: 21 quaternions.
const POSE_OUT: usize = JOINT_COUNT * 4;

/// A reconstructed hand.
#[derive(Clone, Debug)]
pub struct ReconstructedHand {
    /// MANO shape coefficients.
    pub beta: [f32; BETA_DIM],
    /// MANO pose: rotation vector per joint.
    pub theta: [Vec3; JOINT_COUNT],
    /// The posed surface mesh (world frame).
    pub mesh: Mesh,
    /// The mesh model's joints under `(β, θ)` (world frame).
    pub joints: [Vec3; JOINT_COUNT],
}

/// Configuration for the mesh-fitting networks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeshFitConfig {
    /// Training steps for the networks.
    pub steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MeshFitConfig {
    fn default() -> Self {
        MeshFitConfig { steps: 600, batch: 32, lr: 2e-3, seed: 0 }
    }
}

#[derive(Clone)]
struct MlpHead {
    fc1: Linear,
    ln1: LayerNorm,
    fc2: Linear,
    ln2: LayerNorm,
    fc3: Linear,
}

impl MlpHead {
    fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        dims: [usize; 4],
        rng: &mut R,
    ) -> Self {
        MlpHead {
            fc1: Linear::new(store, &format!("{name}.fc1"), dims[0], dims[1], rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dims[1]),
            fc2: Linear::new(store, &format!("{name}.fc2"), dims[1], dims[2], rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dims[2]),
            fc3: Linear::new(store, &format!("{name}.fc3"), dims[2], dims[3], rng),
        }
    }

    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.fc1.forward(tape, store, x);
        let h = self.ln1.forward(tape, store, h);
        let h = tape.relu(h);
        let h = self.fc2.forward(tape, store, h);
        let h = self.ln2.forward(tape, store, h);
        let h = tape.relu(h);
        self.fc3.forward(tape, store, h)
    }
}

/// The mesh-reconstruction module: shape net + pose net + MANO.
#[derive(Clone)]
pub struct MeshReconstructor {
    mano: ManoModel,
    store: ParamStore,
    shape_net: MlpHead,
    pose_net: MlpHead,
    fitted: bool,
}

impl MeshReconstructor {
    /// Creates an untrained reconstructor (call [`MeshReconstructor::fit`],
    /// or use the analytic path).
    pub fn new(seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(seed, "mesh-init");
        let shape_net =
            MlpHead::new(&mut store, "shape", [63, 128, 64, BETA_DIM], &mut rng);
        let pose_net =
            MlpHead::new(&mut store, "pose", [POSE_IN, 256, 128, POSE_OUT], &mut rng);
        MeshReconstructor {
            mano: ManoModel::new(),
            store,
            shape_net,
            pose_net,
            fitted: false,
        }
    }

    /// `true` once [`MeshReconstructor::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// The underlying MANO-style model.
    pub fn mano(&self) -> &ManoModel {
        &self.mano
    }

    /// Builds the `(63,)` and `(123,)` network inputs from wrist-centred
    /// joints.
    fn network_inputs(joints: &[Vec3; JOINT_COUNT]) -> (Vec<f32>, Vec<f32>) {
        let skeleton: Vec<f32> = joints.iter().flat_map(|v| v.to_array()).collect();
        let dirs = mmhand_hand::pose::bone_directions(joints);
        let mut pose_in = skeleton.clone();
        pose_in.extend(dirs.iter().flat_map(|v| v.to_array()));
        (skeleton, pose_in)
    }

    /// Generates one synthetic training sample: `(joints, β, target quats)`.
    fn sample<R: Rng + ?Sized>(rng: &mut R, mano: &ManoModel) -> ([Vec3; JOINT_COUNT], Vec<f32>, Vec<f32>) {
        let mut beta = [0.0_f32; BETA_DIM];
        for b in &mut beta {
            *b = normal(rng, 0.0, 1.0).clamp(-2.5, 2.5);
        }
        let shape = HandShape::from_beta(&beta);
        let mut pose = HandPose::default();
        for f in 0..5 {
            let base_curl: f32 = rng.gen_range(0.0..1.5);
            for k in 0..3 {
                pose.curls[f][k] = (base_curl + normal(rng, 0.0, 0.2)).clamp(0.0, 1.6);
            }
            pose.spreads[f] = rng.gen_range(-0.25..0.25);
        }
        pose.orientation = Quaternion::from_axis_angle(
            Vec3::new(normal(rng, 0.0, 1.0), normal(rng, 0.0, 1.0), normal(rng, 0.0, 1.0)),
            normal(rng, 0.0, 0.35),
        );
        let joints = pose.joints(&shape); // wrist at origin
        let ik = solve_ik(mano.rest_joints(), &joints);
        let mut quats = Vec::with_capacity(POSE_OUT);
        for theta in ik.theta {
            let mut q = Quaternion::from_rotation_vector(theta);
            if q.w < 0.0 {
                q = Quaternion::new(-q.w, -q.x, -q.y, -q.z);
            }
            quats.extend_from_slice(&[q.w, q.x, q.y, q.z]);
        }
        (joints, beta.to_vec(), quats)
    }

    /// Trains the shape and pose networks on synthetic data from the hand
    /// model (the paper's end-to-end IK learning). Returns the final
    /// combined MSE.
    pub fn fit(&mut self, config: &MeshFitConfig) -> f32 {
        let mut rng = stream_rng(config.seed, "mesh-fit");
        let mut adam = Adam::new(config.lr);
        let mut last = f32::INFINITY;
        for _ in 0..config.steps {
            // Assemble a batch.
            let n = config.batch;
            let mut skel = Vec::with_capacity(n * 63);
            let mut pose_in = Vec::with_capacity(n * POSE_IN);
            let mut beta_t = Vec::with_capacity(n * BETA_DIM);
            let mut quat_t = Vec::with_capacity(n * POSE_OUT);
            for _ in 0..n {
                let (joints, beta, quats) = Self::sample(&mut rng, &self.mano);
                let (s, p) = Self::network_inputs(&joints);
                skel.extend(s);
                pose_in.extend(p);
                beta_t.extend(beta);
                quat_t.extend(quats);
            }
            self.store.zero_grad();
            let mut tape = Tape::new();
            let xs = tape.leaf(Tensor::from_vec(&[n, 63], skel));
            let xp = tape.leaf(Tensor::from_vec(&[n, POSE_IN], pose_in));
            let beta_pred = self.shape_net.forward(&mut tape, &self.store, xs);
            let quat_pred = self.pose_net.forward(&mut tape, &self.store, xp);
            let bt = tape.leaf(Tensor::from_vec(&[n, BETA_DIM], beta_t));
            let qt = tape.leaf(Tensor::from_vec(&[n, POSE_OUT], quat_t));
            let db = tape.sub(beta_pred, bt);
            let db2 = tape.mul(db, db);
            let lb = tape.mean_all(db2);
            let dq = tape.sub(quat_pred, qt);
            let dq2 = tape.mul(dq, dq);
            let lq = tape.mean_all(dq2);
            let lq5 = tape.scale(lq, 5.0);
            let loss = tape.add(lb, lq5);
            tape.backward(loss, &mut self.store);
            last = tape.value(loss).data()[0];
            // The tape shares the parameter values; dropping it first lets
            // Adam update them in place instead of copying each one.
            drop(tape);
            adam.step(&mut self.store);
        }
        self.fitted = true;
        last
    }

    /// Runs the networks on a predicted skeleton (flat 63 floats, radar
    /// frame, metres) and reconstructs the mesh, translated back to the
    /// skeleton's wrist position.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::SkeletonLength`] for a malformed skeleton
    /// and [`PipelineError::NotFitted`] when [`MeshReconstructor::fit`] has
    /// not run.
    pub fn try_reconstruct(
        &self,
        skeleton: &[f32],
    ) -> Result<ReconstructedHand, PipelineError> {
        if skeleton.len() != 63 {
            return Err(PipelineError::SkeletonLength {
                expected: 63,
                got: skeleton.len(),
            });
        }
        if !self.fitted {
            return Err(PipelineError::NotFitted {
                what: "MeshReconstructor",
            });
        }
        Ok(self.reconstruct_validated(skeleton))
    }

    fn reconstruct_validated(&self, skeleton: &[f32]) -> ReconstructedHand {
        let wrist = Vec3::new(skeleton[0], skeleton[1], skeleton[2]);
        let mut joints = [Vec3::ZERO; JOINT_COUNT];
        for (j, slot) in joints.iter_mut().enumerate() {
            *slot = Vec3::new(
                skeleton[3 * j] - wrist.x,
                skeleton[3 * j + 1] - wrist.y,
                skeleton[3 * j + 2] - wrist.z,
            );
        }
        let (skel_in, pose_in) = Self::network_inputs(&joints);
        let mut tape = Tape::new();
        let xs = tape.leaf(Tensor::from_vec(&[1, 63], skel_in));
        let xp = tape.leaf(Tensor::from_vec(&[1, POSE_IN], pose_in));
        let beta_v = self.shape_net.forward(&mut tape, &self.store, xs);
        let quat_v = self.pose_net.forward(&mut tape, &self.store, xp);
        let mut beta = [0.0_f32; BETA_DIM];
        beta.copy_from_slice(tape.value(beta_v).data());
        let q = tape.value(quat_v).data();
        let mut theta = [Vec3::ZERO; JOINT_COUNT];
        for (j, t) in theta.iter_mut().enumerate() {
            let quat =
                Quaternion::new(q[4 * j], q[4 * j + 1], q[4 * j + 2], q[4 * j + 3]).normalized();
            *t = quat.to_rotation_vector();
        }
        self.assemble(beta, theta, wrist)
    }

    /// Deterministic reconstruction through the analytic IK solver (default
    /// shape) — the fallback path and the baseline the networks must match.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::SkeletonLength`] for a malformed skeleton.
    pub fn try_reconstruct_analytic(
        &self,
        skeleton: &[f32],
    ) -> Result<ReconstructedHand, PipelineError> {
        if skeleton.len() != 63 {
            return Err(PipelineError::SkeletonLength {
                expected: 63,
                got: skeleton.len(),
            });
        }
        let wrist = Vec3::new(skeleton[0], skeleton[1], skeleton[2]);
        let mut joints = [Vec3::ZERO; JOINT_COUNT];
        for (j, slot) in joints.iter_mut().enumerate() {
            *slot = Vec3::new(
                skeleton[3 * j] - wrist.x,
                skeleton[3 * j + 1] - wrist.y,
                skeleton[3 * j + 2] - wrist.z,
            );
        }
        let ik = solve_ik(self.mano.rest_joints(), &joints);
        Ok(self.assemble([0.0; BETA_DIM], ik.theta, wrist))
    }

    fn assemble(
        &self,
        beta: [f32; BETA_DIM],
        theta: [Vec3; JOINT_COUNT],
        wrist: Vec3,
    ) -> ReconstructedHand {
        let mut mesh = self.mano.mesh(&beta, &theta);
        for v in &mut mesh.vertices {
            *v += wrist;
        }
        let mut joints = self.mano.posed_joints(&beta, &theta);
        for j in &mut joints {
            *j += wrist;
        }
        ReconstructedHand { beta, theta, mesh, joints }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_hand::gesture::Gesture;

    fn skeleton_for(gesture: Gesture, offset: Vec3) -> Vec<f32> {
        let mut pose = gesture.pose();
        pose.position = offset;
        pose.joints(&HandShape::default())
            .iter()
            .flat_map(|v| v.to_array())
            .collect()
    }

    fn mean_joint_error(rec: &ReconstructedHand, skeleton: &[f32]) -> f32 {
        let mut total = 0.0;
        for j in 0..JOINT_COUNT {
            let t = Vec3::new(skeleton[3 * j], skeleton[3 * j + 1], skeleton[3 * j + 2]);
            total += rec.joints[j].distance(t);
        }
        total / JOINT_COUNT as f32
    }

    #[test]
    fn analytic_reconstruction_matches_skeleton() {
        let r = MeshReconstructor::new(1);
        for g in [Gesture::OpenPalm, Gesture::Fist, Gesture::Point] {
            let skel = skeleton_for(g, Vec3::new(0.05, 0.3, -0.02));
            let rec = r.try_reconstruct_analytic(&skel).unwrap();
            let err = mean_joint_error(&rec, &skel);
            assert!(err < 0.006, "{g:?} error {err}");
            assert!(!rec.mesh.vertices.is_empty());
        }
    }

    #[test]
    fn mesh_is_positioned_at_the_hand() {
        let r = MeshReconstructor::new(2);
        let offset = Vec3::new(0.1, 0.35, 0.05);
        let skel = skeleton_for(Gesture::OpenPalm, offset);
        let rec = r.try_reconstruct_analytic(&skel).unwrap();
        let (lo, hi) = rec.mesh.bounds();
        let centre = (lo + hi) * 0.5;
        assert!(centre.distance(offset) < 0.15, "mesh centre {centre}");
    }

    #[test]
    fn try_reconstruct_returns_typed_errors() {
        use crate::error::PipelineError;
        let r = MeshReconstructor::new(3);
        let skel = skeleton_for(Gesture::OpenPalm, Vec3::ZERO);
        assert!(matches!(
            r.try_reconstruct(&skel),
            Err(PipelineError::NotFitted { .. })
        ));
        assert!(matches!(
            r.try_reconstruct(&skel[..10]),
            Err(PipelineError::SkeletonLength { expected: 63, got: 10 })
        ));
        assert!(matches!(
            r.try_reconstruct_analytic(&[]),
            Err(PipelineError::SkeletonLength { expected: 63, got: 0 })
        ));
        assert!(r.try_reconstruct_analytic(&skel).is_ok());
    }

    #[test]
    fn fitting_converges_and_reconstructs() {
        let mut r = MeshReconstructor::new(4);
        let cfg = MeshFitConfig { steps: 400, batch: 24, ..Default::default() };
        let final_loss = r.fit(&cfg);
        // β is only identifiable up to a global-scale ambiguity, so the MSE
        // plateaus near 1; what matters is the reconstruction error below.
        assert!(final_loss < 1.4, "mesh fit loss {final_loss}");
        assert!(r.is_fitted());
        // Network reconstruction should track the skeleton reasonably and
        // not be wildly worse than the analytic path.
        for g in [Gesture::OpenPalm, Gesture::Count(2)] {
            let skel = skeleton_for(g, Vec3::new(0.0, 0.3, 0.0));
            let rec = r.try_reconstruct(&skel).unwrap();
            let err = mean_joint_error(&rec, &skel);
            assert!(err < 0.025, "{g:?} network reconstruction error {err}");
            assert!(rec.beta.iter().all(|b| b.is_finite()));
        }
    }

    #[test]
    fn bent_gesture_produces_bent_theta() {
        let r = MeshReconstructor::new(5);
        let skel = skeleton_for(Gesture::Fist, Vec3::new(0.0, 0.3, 0.0));
        let rec = r.try_reconstruct_analytic(&skel).unwrap();
        // Finger joints should carry substantial rotations for a fist.
        let total_rotation: f32 = rec.theta.iter().map(|t| t.norm()).sum();
        assert!(total_rotation > 3.0, "total rotation {total_rotation}");
    }
}
