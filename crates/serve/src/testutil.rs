//! Shared fixtures for the unit tests: a tiny trained pipeline plus a
//! fresh capture to stream through it.

use mmhand_core::cube::CubeConfig;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::model::ModelConfig;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_core::{MmHandPipeline, PipelineError};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::{ChirpConfig, Environment, RawFrame};

/// The small-but-real radar geometry shared by the serve tests.
pub(crate) fn tiny_chirp() -> ChirpConfig {
    ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() }
}

/// The cube geometry matching [`tiny_chirp`].
pub(crate) fn tiny_cube() -> CubeConfig {
    CubeConfig {
        chirp: tiny_chirp(),
        range_bins: 8,
        doppler_bins: 4,
        azimuth_bins: 4,
        elevation_bins: 4,
        frames_per_segment: 2,
        range_max_m: 0.55,
        ..Default::default()
    }
}

/// Trains a tiny pipeline and records a fresh stream of frames for it.
pub(crate) fn tiny_engine_parts() -> Result<(MmHandPipeline, Vec<RawFrame>), PipelineError> {
    let cube = tiny_cube();
    let data = DataConfig {
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
        cube: cube.clone(),
        seed: 11,
        ..Default::default()
    };
    let model_cfg = ModelConfig {
        channels: 6,
        blocks: 1,
        feature_dim: 24,
        lstm_hidden: 24,
        ..data.model_config()
    };
    let seqs = try_build_cohort(&data)?;
    let train_cfg = TrainConfig { epochs: 2, batch_size: 4, ..Default::default() };
    let model = Trainer::new(model_cfg, train_cfg).try_train(&seqs)?;
    let frames = tiny_stream(12, 21);
    // Always supply calibration material, leaving the precision to the
    // documented MMHAND_PRECISION fallback: under f32 the calibration is
    // simply unused, under int8 the pipeline quantizes — which is what
    // lets CI's precision matrix run this whole suite on both paths.
    let mut probe = MmHandPipeline::builder_for(model.clone()).cube_config(cube.clone()).build()?;
    let calibration = probe.try_frames_to_segments(&frames)?;
    let pipeline = MmHandPipeline::builder_for(model)
        .cube_config(cube.clone())
        .calibration_segments(calibration)
        .build()?;
    Ok((pipeline, frames))
}

/// Records a fresh capture stream with the tiny geometry.
pub(crate) fn tiny_stream(n_frames: usize, seed: u64) -> Vec<RawFrame> {
    let user = UserProfile::generate(1, seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Victory],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    let session = record_session(
        &user,
        &track,
        n_frames,
        &CaptureConfig { chirp: tiny_chirp(), noise_sigma: 0.005, seed, ..Default::default() },
    );
    session.frames
}
