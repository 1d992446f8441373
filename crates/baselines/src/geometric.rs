//! A non-learning geometric baseline.
//!
//! Classic radar processing without deep learning: find the dominant
//! range–angle–Doppler peak of the cube, convert it to a 3-D hand-centroid
//! estimate, and attach the mean training articulation to it. Any learned
//! model must beat this to demonstrate that it extracts *pose* information
//! rather than just localising the hand.

use mmhand_core::cube::CubeConfig;
use mmhand_core::dataset::SegmentSequence;
use mmhand_core::metrics::JointErrors;
use mmhand_core::model::OUTPUT_DIM;
use mmhand_math::Vec3;
use mmhand_nn::Tensor;

/// The fitted geometric estimator.
#[derive(Clone, Debug)]
pub struct GeometricEstimator {
    cube: CubeConfig,
    /// Mean wrist-relative articulation from the training labels.
    mean_relative: Vec<f32>,
    /// Calibration from the cube's peak position to the wrist.
    centroid_to_wrist: Vec3,
}

impl GeometricEstimator {
    /// Fits the estimator: learns the mean articulation and the constant
    /// peak→wrist offset from training sequences.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(cube: &CubeConfig, train: &[SegmentSequence]) -> Self {
        assert!(!train.is_empty(), "geometric baseline needs training data");
        let mut mean_relative = vec![0.0_f32; OUTPUT_DIM];
        let mut offset = Vec3::ZERO;
        let mut count = 0_usize;
        for seq in train {
            for (seg, label) in seq.segments.iter().zip(&seq.labels) {
                let peak = peak_position(cube, seg);
                let wrist = Vec3::new(label[0], label[1], label[2]);
                offset += wrist - peak;
                for j in 1..21 {
                    for k in 0..3 {
                        mean_relative[3 * j + k] += label[3 * j + k] - label[k];
                    }
                }
                count += 1;
            }
        }
        let n = count as f32;
        for v in &mut mean_relative {
            *v /= n;
        }
        GeometricEstimator {
            cube: cube.clone(),
            mean_relative,
            centroid_to_wrist: offset / n,
        }
    }

    /// Predicts a skeleton for one segment tensor.
    pub fn predict(&self, segment: &Tensor) -> Vec<f32> {
        let wrist = peak_position(&self.cube, segment) + self.centroid_to_wrist;
        let mut out = self.mean_relative.clone();
        out[0] = wrist.x;
        out[1] = wrist.y;
        out[2] = wrist.z;
        for j in 1..21 {
            out[3 * j] += wrist.x;
            out[3 * j + 1] += wrist.y;
            out[3 * j + 2] += wrist.z;
        }
        out
    }

    /// Evaluates on sequences.
    pub fn evaluate(&self, sequences: &[SegmentSequence]) -> JointErrors {
        let mut errors = JointErrors::new();
        for seq in sequences {
            for (seg, label) in seq.segments.iter().zip(&seq.labels) {
                errors.push_flat(&self.predict(seg), label);
            }
        }
        errors
    }
}

/// Converts the strongest cube cell into a 3-D position estimate.
///
/// The segment tensor is `(st·V, D, A)` with `A` split into azimuth and
/// elevation halves; range comes from the `D` peak, azimuth/elevation from
/// the per-half angle peaks at that range.
pub fn peak_position(cube: &CubeConfig, segment: &Tensor) -> Vec3 {
    let shape = segment.shape();
    let (c, d_bins, a_bins) = (shape[0], shape[1], shape[2]);
    let az_bins = cube.azimuth_bins;
    let data = segment.data();

    // Accumulate energy per (d, a) over all channels (frames × velocities).
    let mut energy = vec![0.0_f32; d_bins * a_bins];
    for ch in 0..c {
        for i in 0..d_bins * a_bins {
            // Standardised tensors can be negative; energy uses squares.
            let v = data[ch * d_bins * a_bins + i];
            energy[i] += v * v;
        }
    }
    // Range: strongest row (summed over angle).
    let best_d = (0..d_bins)
        .max_by(|&x, &y| {
            let ex: f32 = energy[x * a_bins..(x + 1) * a_bins].iter().sum();
            let ey: f32 = energy[y * a_bins..(y + 1) * a_bins].iter().sum();
            ex.total_cmp(&ey)
        })
        .unwrap_or(0);
    let row = &energy[best_d * a_bins..(best_d + 1) * a_bins];
    let best_az = (0..az_bins)
        .max_by(|&x, &y| row[x].total_cmp(&row[y]))
        .unwrap_or(0);
    let best_el = (az_bins..a_bins)
        .max_by(|&x, &y| row[x].total_cmp(&row[y]))
        .unwrap_or(az_bins)
        - az_bins;

    let r = cube.range_of_bin(best_d) as f32;
    let grid = |bins: usize, idx: usize| -> f32 {
        let s_max = cube.max_angle_rad.sin();
        let step = if bins <= 1 { 0.0 } else { 2.0 * s_max / (bins - 1) as f32 };
        (-s_max + step * idx as f32).asin()
    };
    let az = grid(az_bins, best_az);
    let el = grid(a_bins - az_bins, best_el);
    Vec3::new(
        r * az.sin() * el.cos(),
        r * az.cos() * el.cos(),
        r * el.sin(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_core::cube::CubeBuilder;
    use mmhand_core::dataset::try_session_to_sequences;
    use mmhand_core::metrics::JointGroup;
    use mmhand_core::tiny;
    use mmhand_hand::gesture::Gesture;
    use mmhand_hand::trajectory::GestureTrack;
    use mmhand_hand::user::UserProfile;
    use mmhand_radar::capture::record_session;

    fn tiny_setup() -> (CubeConfig, Vec<SegmentSequence>) {
        let data = tiny::data(0);
        let user = UserProfile::generate(1, 21);
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm, Gesture::Fist],
            mmhand_math::Vec3::new(0.0, 0.3, 0.0),
            0.3,
            0.3,
        );
        let session = record_session(&user, &track, 24, &data.capture);
        let builder = CubeBuilder::try_new(data.cube.clone()).unwrap();
        let seqs = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
        (data.cube, seqs)
    }

    #[test]
    fn peak_position_is_near_the_hand() {
        let (cube, seqs) = tiny_setup();
        let p = peak_position(&cube, &seqs[0].segments[0]);
        // The hand was at (0, 0.3, 0): peak within 15 cm of it.
        assert!(p.distance(Vec3::new(0.0, 0.3, 0.0)) < 0.15, "peak {p}");
    }

    #[test]
    fn fitted_estimator_localises_hand() {
        let (cube, seqs) = tiny_setup();
        let est = GeometricEstimator::fit(&cube, &seqs);
        let errors = est.evaluate(&seqs);
        // With a static hand position, the geometric baseline should land
        // within a few cm — and importantly not at zero error (it cannot
        // track articulation).
        let mpjpe = errors.mpjpe(JointGroup::Overall);
        assert!(mpjpe < 80.0, "geometric baseline {mpjpe} mm");
        assert!(mpjpe > 1.0, "implausibly perfect baseline {mpjpe} mm");
    }

    #[test]
    fn prediction_has_valid_structure() {
        let (cube, seqs) = tiny_setup();
        let est = GeometricEstimator::fit(&cube, &seqs);
        let p = est.predict(&seqs[0].segments[0]);
        assert_eq!(p.len(), OUTPUT_DIM);
        assert!(p.iter().all(|v| v.is_finite()));
        // The skeleton should span a hand-sized extent.
        let wrist = Vec3::new(p[0], p[1], p[2]);
        let tip = Vec3::new(p[3 * 12], p[3 * 12 + 1], p[3 * 12 + 2]);
        let span = wrist.distance(tip);
        assert!(span > 0.1 && span < 0.3, "span {span}");
    }

    #[test]
    #[should_panic(expected = "training data")]
    fn empty_training_panics() {
        let (cube, _) = tiny_setup();
        GeometricEstimator::fit(&cube, &[]);
    }
}
