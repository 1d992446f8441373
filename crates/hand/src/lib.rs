//! # mmhand-hand
//!
//! The articulated-hand substrate of the mmHand reproduction: everything
//! the paper obtains from human volunteers and the MANO model, rebuilt as a
//! deterministic simulator.
//!
//! * [`skeleton`] — the 21-joint hand model of paper Fig. 4,
//! * [`shape`] — per-user anatomy and the MANO shape vector `β`,
//! * [`pose`] — articulation parameters and forward kinematics,
//! * [`gesture`] — the interaction/counting gesture library,
//! * [`trajectory`] — continuous keyframed motion with tremor,
//! * [`user`] — seeded volunteer profiles (the paper's 10 participants),
//! * [`surface`] — radar scatterer sampling on the hand surface,
//! * [`mano`] — the MANO-style parametric mesh `M(β, θ)` (Eqs. 10–11),
//! * [`ik`] — analytic inverse kinematics from 21 joints to `θ`.
//!
//! # Examples
//!
//! ```
//! use mmhand_hand::gesture::Gesture;
//! use mmhand_hand::shape::HandShape;
//!
//! let joints = Gesture::Point.pose().joints(&HandShape::default());
//! assert_eq!(joints.len(), 21);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod gesture;
pub mod ik;
pub mod mano;
pub mod pose;
pub mod shape;
pub mod skeleton;
pub mod surface;
pub mod trajectory;
pub mod user;

pub use gesture::Gesture;
pub use pose::HandPose;
pub use shape::HandShape;
pub use skeleton::{Finger, JOINT_COUNT};
pub use surface::Scatterer;
pub use user::UserProfile;
