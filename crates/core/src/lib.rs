//! # mmhand-core
//!
//! The mmHand system itself (Kong et al., ICDCS 2024): 3-D hand-pose
//! estimation from mmWave radar, comprising
//!
//! * [`cube`] — signal pre-processing into the Radar Cube (§III:
//!   Butterworth hand-band isolation, range/Doppler FFTs, zoom-FFT angle
//!   spectra),
//! * [`model`] — the `mmSpaceNet` attention hourglass + LSTM temporal model
//!   (§IV, Figs. 5–6),
//! * [`loss`] — the combined 3-D + kinematic loss (Eqs. 8–9),
//! * [`dataset`] / [`train`] — segment/sequence assembly and the Adam +
//!   cosine-decay training loop (§VI-A),
//! * [`metrics`] — MPJPE, 3D-PCK, AUC, error CDFs with palm/finger splits,
//! * [`mesh`] — MANO parameter fitting (shape & pose networks, §V) and mesh
//!   reconstruction,
//! * [`eval`] — cohort generation and 5-fold leave-two-users-out
//!   cross-validation,
//! * [`pipeline`] — the end-to-end frames → skeletons → meshes estimator
//!   with stage timing (Fig. 26),
//! * [`recognize`] — template-based gesture classification on predicted
//!   skeletons (the interface-control application layer).
//!
//! # Examples
//!
//! Building radar cubes from a simulated capture:
//!
//! ```
//! use mmhand_core::cube::{CubeBuilder, CubeConfig};
//! use mmhand_radar::capture::{record_session, CaptureConfig};
//! use mmhand_hand::{gesture::Gesture, trajectory::GestureTrack, user::UserProfile};
//! use mmhand_math::Vec3;
//!
//! let user = UserProfile::generate(1, 7);
//! let track = GestureTrack::from_gestures(
//!     &[Gesture::OpenPalm],
//!     Vec3::new(0.0, 0.3, 0.0),
//!     0.5,
//!     0.2,
//! );
//! let session = record_session(&user, &track, 4, &CaptureConfig::default());
//! let builder = CubeBuilder::try_new(CubeConfig::default())?;
//! let cube = builder.try_process_frame(&session.frames[0])?;
//! assert_eq!(cube.shape, [8, 16, 16]);
//! # Ok::<(), mmhand_core::PipelineError>(())
//! ```

pub mod cube;
pub mod dataset;
pub mod error;
pub mod eval;
pub mod loss;
pub mod mesh;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod precision;
pub mod recognize;
pub mod train;

pub use cube::{CubeBuilder, CubeConfig, CubeFrame};
pub use dataset::{Batch, SegmentSequence};
pub use error::PipelineError;
pub use eval::{try_build_cohort, try_cross_validate, CrossValidation, DataConfig};
pub use loss::LossWeights;
pub use mesh::{MeshReconstructor, ReconstructedHand};
pub use metrics::{JointErrors, JointGroup};
pub use model::{MmHandModel, ModelConfig};
pub use mmhand_nn::QuantizedParamStore;
pub use pipeline::{MmHandPipeline, PipelineBuilder, PipelineOutput, StageTiming};
pub use precision::Precision;
pub use recognize::{GestureRecognizer, Recognition};
pub use train::{TrainConfig, TrainedModel, Trainer};
