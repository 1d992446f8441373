//! The tiny reference stack: one scaled-down copy of the paper's chain
//! (FMCW cube → mmSpaceNet → LSTM → MANO) that trains in a fraction of a
//! second.
//!
//! The unit tests, the integration suites and the `mmhand-serve` and
//! `mmhand-loadgen` binaries all run this one stack. A site that needs a
//! different value overrides that field with struct-update syntax, e.g.
//! `DataConfig { frames_per_user: 48, ..tiny::data(1234) }`, and keeps its
//! own seed; it never writes out a copy of the stack.

use crate::cube::CubeConfig;
use crate::error::PipelineError;
use crate::eval::{try_build_cohort, DataConfig};
use crate::model::ModelConfig;
use crate::pipeline::MmHandPipeline;
use crate::precision::Precision;
use crate::train::{TrainConfig, Trainer};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::{ChirpConfig, Environment, RawFrame};

/// 8 chirps × 32 samples into an 8 × 4 × 4 × 4 cube (range × Doppler ×
/// azimuth × elevation), 2 frames per segment, ranges up to 0.55 m.
pub fn cube() -> CubeConfig {
    CubeConfig {
        chirp: ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() },
        range_bins: 8,
        doppler_bins: 4,
        azimuth_bins: 4,
        elevation_bins: 4,
        frames_per_segment: 2,
        range_max_m: 0.55,
        ..Default::default()
    }
}

/// Two users × 16 frames of 2-gesture tracks captured in the playground
/// (noise σ 0.005) over [`cube`], cut into 2-segment sequences.
pub fn data(seed: u64) -> DataConfig {
    let cube = cube();
    DataConfig {
        users: 2,
        frames_per_user: 16,
        gestures_per_track: 2,
        seq_len: 2,
        capture: CaptureConfig {
            chirp: cube.chirp,
            environment: Environment::Playground,
            noise_sigma: 0.005,
            ..Default::default()
        },
        cube,
        seed,
        ..Default::default()
    }
}

/// A 6-channel, one-block model with 24-wide features and LSTM state over
/// `data`'s geometry.
pub fn model(data: &DataConfig) -> ModelConfig {
    ModelConfig { channels: 6, blocks: 1, feature_dim: 24, lstm_hidden: 24, ..data.model_config() }
}

/// Two epochs at batch 4.
pub fn train_config() -> TrainConfig {
    TrainConfig { epochs: 2, batch_size: 4, ..Default::default() }
}

/// `frames` frames of user `user` (drawn from `seed`) gesturing
/// OpenPalm → Victory → Fist at (0, 0.3, 0), recorded over [`cube`]'s
/// chirp with noise σ 0.005 and capture seed `seed`.
pub fn stream(user: usize, seed: u64, frames: usize) -> Vec<RawFrame> {
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Victory, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    let capture =
        CaptureConfig { chirp: cube().chirp, noise_sigma: 0.005, seed, ..Default::default() };
    record_session(&UserProfile::generate(user, seed), &track, frames, &capture).frames
}

/// Trains [`model`] on the cohort of [`data`]`(seed)` with
/// [`train_config`] and assembles its pipeline over [`cube`].
///
/// Calibration segments, cut from `calibration_frames` by a probe
/// pipeline, are always supplied, so `precision` alone picks the path:
/// f32 leaves them unused, int8 quantizes on them. `None` leaves the
/// choice to the documented `MMHAND_PRECISION` fallback, which is how
/// CI's precision matrix drives whole suites through both paths.
///
/// # Errors
///
/// Returns the first cohort, training, frame-geometry or assembly error.
pub fn pipeline(
    seed: u64,
    calibration_frames: &[RawFrame],
    precision: Option<Precision>,
) -> Result<MmHandPipeline, PipelineError> {
    let data = data(seed);
    let trained =
        Trainer::new(model(&data), train_config()).try_train(&try_build_cohort(&data)?)?;
    let mut probe = MmHandPipeline::builder_for(trained.clone())
        .cube_config(data.cube.clone())
        .precision(Precision::F32)
        .build()?;
    let builder = MmHandPipeline::builder_for(trained)
        .cube_config(data.cube)
        .calibration_segments(probe.try_frames_to_segments(calibration_frames)?);
    match precision {
        Some(p) => builder.precision(p).build(),
        None => builder.build(),
    }
}
