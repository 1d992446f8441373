//! Gesture recognition on top of regressed skeletons — the user-interface
//! application layer the paper's introduction motivates (interface control,
//! sign-language understanding).
//!
//! Classification is template-based and deliberately simple: the predicted
//! skeleton is converted to a translation/scale-invariant articulation
//! descriptor and matched to the gesture library's descriptors by nearest
//! neighbour. This keeps the recogniser independent of the regression
//! network (any skeleton source works) and fully deterministic.

use mmhand_hand::gesture::Gesture;
use mmhand_hand::shape::HandShape;
use mmhand_hand::skeleton::{Finger, JOINT_COUNT};
use mmhand_math::Vec3;

/// A translation/scale-invariant articulation descriptor.
///
/// Per finger: normalised tip-to-wrist extension, tip-to-palm-centre
/// distance, and total bend (straightness deficit) — 15 numbers that
/// separate the gesture library well while ignoring global pose.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoseDescriptor {
    values: [f32; 15],
}

impl PoseDescriptor {
    /// Builds the descriptor from 21 joint positions.
    pub fn from_joints(joints: &[Vec3; JOINT_COUNT]) -> Self {
        let wrist = joints[0];
        let palm_centre = (joints[Finger::Index.base()]
            + joints[Finger::Middle.base()]
            + joints[Finger::Pinky.base()]
            + wrist)
            / 4.0;
        // Scale normaliser: wrist → middle knuckle (palm length proxy).
        let scale = wrist.distance(joints[Finger::Middle.base()]).max(1e-6);
        let mut values = [0.0_f32; 15];
        for finger in Finger::ALL {
            let i = finger.index();
            let [a, b, c, d] = finger.joints();
            let tip = joints[d];
            values[3 * i] = wrist.distance(tip) / scale;
            values[3 * i + 1] = palm_centre.distance(tip) / scale;
            let chain = joints[a].distance(joints[b])
                + joints[b].distance(joints[c])
                + joints[c].distance(joints[d]);
            let direct = joints[a].distance(joints[d]).max(1e-6);
            values[3 * i + 2] = chain / direct - 1.0; // 0 = straight
        }
        PoseDescriptor { values }
    }

    /// Builds the descriptor from a flat 63-float skeleton.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != 63`.
    pub fn from_flat(flat: &[f32]) -> Self {
        assert_eq!(flat.len(), 63, "skeleton length");
        let mut joints = [Vec3::ZERO; JOINT_COUNT];
        for (j, slot) in joints.iter_mut().enumerate() {
            *slot = Vec3::new(flat[3 * j], flat[3 * j + 1], flat[3 * j + 2]);
        }
        PoseDescriptor::from_joints(&joints)
    }

    /// Euclidean distance between descriptors.
    pub fn distance(&self, other: &PoseDescriptor) -> f32 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }
}

/// A gesture classification result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recognition {
    /// The best-matching gesture.
    pub gesture: Gesture,
    /// Descriptor distance to that gesture's template (smaller = closer).
    pub distance: f32,
    /// Margin to the runner-up (larger = more confident).
    pub margin: f32,
}

/// A template-based gesture recogniser.
#[derive(Clone, Debug)]
pub struct GestureRecognizer {
    templates: Vec<(Gesture, PoseDescriptor)>,
}

impl Default for GestureRecognizer {
    fn default() -> Self {
        GestureRecognizer::new()
    }
}

impl GestureRecognizer {
    /// Builds templates for the full gesture library with the default
    /// hand shape (descriptors are scale-invariant, so one shape suffices).
    pub fn new() -> Self {
        GestureRecognizer::with_gestures(&Gesture::all())
    }

    /// Builds templates for a chosen gesture vocabulary.
    pub fn with_gestures(gestures: &[Gesture]) -> Self {
        let shape = HandShape::default();
        let templates = gestures
            .iter()
            .map(|&g| {
                let joints = g.pose().joints(&shape);
                (g, PoseDescriptor::from_joints(&joints))
            })
            .collect();
        GestureRecognizer { templates }
    }

    /// Classifies a flat 63-float skeleton.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary is empty or the skeleton is not 63 floats.
    pub fn recognize(&self, skeleton: &[f32]) -> Recognition {
        assert!(!self.templates.is_empty(), "empty gesture vocabulary");
        let d = PoseDescriptor::from_flat(skeleton);
        let mut best: Option<(Gesture, f32)> = None;
        let mut second = f32::INFINITY;
        for (g, t) in &self.templates {
            let dist = d.distance(t);
            match best {
                None => best = Some((*g, dist)),
                Some((_, bd)) if dist < bd => {
                    second = bd;
                    best = Some((*g, dist));
                }
                Some(_) => second = second.min(dist),
            }
        }
        let (gesture, distance) = best.expect("non-empty vocabulary");
        Recognition { gesture, distance, margin: second - distance }
    }

    /// Classifies a sequence of skeletons by majority vote, breaking ties
    /// toward the smallest mean distance. Returns `None` for empty input.
    pub fn recognize_sequence(&self, skeletons: &[Vec<f32>]) -> Option<Recognition> {
        if skeletons.is_empty() {
            return None;
        }
        let recs: Vec<Recognition> =
            skeletons.iter().map(|s| self.recognize(s)).collect();
        // Majority vote by gesture name.
        let mut best: Option<(Gesture, usize, f32)> = None;
        for r in &recs {
            let votes = recs.iter().filter(|x| x.gesture == r.gesture).count();
            let mean_d = recs
                .iter()
                .filter(|x| x.gesture == r.gesture)
                .map(|x| x.distance)
                .sum::<f32>()
                / votes as f32;
            let better = match &best {
                None => true,
                Some((_, v, d)) => votes > *v || (votes == *v && mean_d < *d),
            };
            if better {
                best = Some((r.gesture, votes, mean_d));
            }
        }
        let (gesture, _, distance) = best?;
        Some(Recognition { gesture, distance, margin: 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::Quaternion;

    fn flat(gesture: Gesture, shape: &HandShape) -> Vec<f32> {
        gesture
            .pose()
            .joints(shape)
            .iter()
            .flat_map(|v| v.to_array())
            .collect()
    }

    #[test]
    fn recognises_every_library_gesture_exactly() {
        let rec = GestureRecognizer::new();
        let shape = HandShape::default();
        // Count(0) and Fist are the same articulation by construction —
        // they are semantic aliases, so either answer is correct for both.
        let aliases = |a: Gesture, b: Gesture| {
            (a == Gesture::Fist && b == Gesture::Count(0))
                || (a == Gesture::Count(0) && b == Gesture::Fist)
        };
        for g in Gesture::all() {
            let r = rec.recognize(&flat(g, &shape));
            assert!(
                r.gesture == g || aliases(r.gesture, g),
                "misclassified {g:?} as {:?}",
                r.gesture
            );
            assert!(r.distance < 1e-4);
        }
    }

    #[test]
    fn invariant_to_translation_rotation_and_hand_size() {
        let rec = GestureRecognizer::new();
        let big = HandShape::from_beta(&[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut pose = Gesture::Victory.pose();
        pose.position = Vec3::new(0.2, 0.5, -0.1);
        pose.orientation = Quaternion::from_axis_angle(Vec3::new(1.0, 0.5, 0.2), 0.7);
        let skeleton: Vec<f32> =
            pose.joints(&big).iter().flat_map(|v| v.to_array()).collect();
        let r = rec.recognize(&skeleton);
        assert_eq!(r.gesture, Gesture::Victory);
    }

    #[test]
    fn tolerates_moderate_joint_noise() {
        use mmhand_math::rng::{normal, stream_rng};
        let rec = GestureRecognizer::with_gestures(&[
            Gesture::OpenPalm,
            Gesture::Fist,
            Gesture::Point,
        ]);
        let shape = HandShape::default();
        let mut rng = stream_rng(4, "noise");
        let mut correct = 0;
        let trials = 30;
        for k in 0..trials {
            let g = [Gesture::OpenPalm, Gesture::Fist, Gesture::Point][k % 3];
            let mut s = flat(g, &shape);
            for v in &mut s {
                *v += normal(&mut rng, 0.0, 0.008); // 8 mm joint noise
            }
            if rec.recognize(&s).gesture == g {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / trials as f32 > 0.8,
            "only {correct}/{trials} correct under noise"
        );
    }

    #[test]
    fn sequence_vote_smooths_outliers() {
        let rec = GestureRecognizer::with_gestures(&[Gesture::OpenPalm, Gesture::Fist]);
        let shape = HandShape::default();
        let mut frames = vec![flat(Gesture::Fist, &shape); 4];
        frames.push(flat(Gesture::OpenPalm, &shape)); // one outlier
        let r = rec.recognize_sequence(&frames).unwrap();
        assert_eq!(r.gesture, Gesture::Fist);
        assert!(rec.recognize_sequence(&[]).is_none());
    }

    #[test]
    fn margin_reflects_ambiguity() {
        let rec = GestureRecognizer::new();
        let shape = HandShape::default();
        // count_2 and victory are intentionally similar gestures.
        let clear = rec.recognize(&flat(Gesture::Fist, &shape));
        let ambiguous = rec.recognize(&flat(Gesture::Victory, &shape));
        assert!(clear.margin >= 0.0 && ambiguous.margin >= 0.0);
    }

    #[test]
    #[should_panic(expected = "skeleton length")]
    fn wrong_length_panics() {
        GestureRecognizer::new().recognize(&[0.0; 10]);
    }
}
