//! Cross-precision integration tests for the int8 inference path.
//!
//! Two properties anchor the typed `Precision` API (DESIGN.md §16):
//!
//! 1. **Serving identity** — an eight-session sharded int8 engine produces,
//!    per session, bitwise the same skeletons as a dedicated single-session
//!    int8 pipeline. Integer accumulation is exactly associative, so
//!    batching and shard placement must not perturb quantized results any
//!    more than they do f32 ones.
//! 2. **Accuracy epsilon** — int8 skeletons track the f32 skeletons of the
//!    same trained model within a small tolerance on seeded captures, i.e.
//!    quantization is a compression decision, not a different model.

use mmhand_core::cube::CubeConfig;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::model::ModelConfig;
use mmhand_core::train::{TrainConfig, TrainedModel, Trainer};
use mmhand_core::{MmHandPipeline, Precision};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::{ChirpConfig, Environment, RawFrame};
use mmhand_serve::{FrameResult, InferenceProfile, MeshPolicy, ServeConfig, ShardedServe};

fn tiny_chirp() -> ChirpConfig {
    ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() }
}

fn tiny_cube() -> CubeConfig {
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

fn tiny_model() -> TrainedModel {
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
        seed: 31,
        ..Default::default()
    };
    let model_cfg = ModelConfig {
        channels: 6,
        blocks: 1,
        feature_dim: 24,
        lstm_hidden: 24,
        ..data.model_config()
    };
    let seqs = try_build_cohort(&data).unwrap();
    let train_cfg = TrainConfig { epochs: 2, batch_size: 4, ..Default::default() };
    Trainer::new(model_cfg, train_cfg).try_train(&seqs).unwrap()
}

fn stream(seed: u64, frames: usize) -> Vec<RawFrame> {
    let user = UserProfile::generate(seed as usize + 1, seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Victory, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    record_session(
        &user,
        &track,
        frames,
        &CaptureConfig { chirp: tiny_chirp(), noise_sigma: 0.005, seed, ..Default::default() },
    )
    .frames
}

/// Builds a pipeline at the requested precision, calibrating the int8 one
/// on a capture none of the test sessions replays.
fn pipeline_at(model: TrainedModel, precision: Precision) -> MmHandPipeline {
    let cube = tiny_cube();
    let mut builder =
        MmHandPipeline::builder_for(model.clone()).cube_config(cube.clone()).precision(precision);
    if precision == Precision::Int8 {
        let mut probe = MmHandPipeline::builder_for(model)
            .cube_config(cube)
            .build()
            .expect("probe pipeline assembles");
        let calibration = probe.try_frames_to_segments(&stream(97, 12)).unwrap();
        builder = builder.calibration_segments(calibration);
    }
    builder.build().expect("pipeline assembles")
}

/// Eight concurrent int8 sessions on a four-shard engine produce bitwise
/// the same skeletons as the dedicated single-session int8 pipeline.
#[test]
fn sharded_int8_serve_matches_sequential_int8_bitwise() {
    let n_sessions = 8;
    let frames_per_session = 8;
    let model = tiny_model();
    let pipeline = pipeline_at(model, Precision::Int8);
    assert_eq!(pipeline.precision(), Precision::Int8);
    let st = pipeline.builder().config().frames_per_segment;
    let segments = frames_per_session / st;
    let streams: Vec<Vec<RawFrame>> =
        (0..n_sessions).map(|k| stream(60 + k as u64, frames_per_session)).collect();

    let reference: Vec<Vec<Vec<f32>>> = streams
        .iter()
        .map(|s| {
            let mut p = pipeline.clone();
            p.try_estimate_skeletons(s).expect("reference estimate").0
        })
        .collect();

    let mut serve = ShardedServe::new(
        pipeline,
        4,
        ServeConfig::new()
            .max_sessions(n_sessions)
            .max_batch(n_sessions)
            .queue_capacity(frames_per_session)
            .profile(
                InferenceProfile::default()
                    .precision(Precision::Int8)
                    .mesh_policy(MeshPolicy::Never),
            ),
    )
    .expect("int8 sharded serve builds");
    assert_eq!(serve.precision(), Precision::Int8);

    let ids: Vec<u64> =
        (0..n_sessions).map(|_| serve.open_session().expect("session opens")).collect();
    for (k, &sid) in ids.iter().enumerate() {
        for f in &streams[k] {
            serve.push_frame(sid, f.clone()).expect("frame accepted");
        }
    }
    let mut collected: Vec<Vec<FrameResult>> = (0..n_sessions).map(|_| Vec::new()).collect();
    for _ in 0..(segments * 4) {
        serve.step().expect("step runs");
        for (k, &sid) in ids.iter().enumerate() {
            collected[k].extend(serve.take_results(sid).expect("results drain"));
        }
        if collected.iter().all(|c| c.len() == segments) {
            break;
        }
    }

    for (k, results) in collected.iter().enumerate() {
        assert_eq!(results.len(), reference[k].len(), "session {k} segment count");
        for (r, ref_skel) in results.iter().zip(&reference[k]) {
            assert_eq!(
                r.skeleton, *ref_skel,
                "session {k} segment {}: sharded int8 skeleton diverged from \
                 the sequential int8 pipeline",
                r.segment_index
            );
        }
    }
}

/// Int8 skeletons track the f32 skeletons of the same model within a small
/// epsilon: quantization noise stays millimetric, it never relocates the
/// hand.
#[test]
fn int8_skeletons_track_f32_within_epsilon() {
    let model = tiny_model();
    let mut f32_pipe = pipeline_at(model.clone(), Precision::F32);
    let mut int8_pipe = pipeline_at(model, Precision::Int8);

    let mut count = 0usize;
    let mut sum_abs = 0.0f64;
    let mut worst = 0.0f32;
    for seed in [71u64, 72, 73] {
        let frames = stream(seed, 8);
        let (f32_skels, _) = f32_pipe.try_estimate_skeletons(&frames).expect("f32 estimate");
        let (int8_skels, _) = int8_pipe.try_estimate_skeletons(&frames).expect("int8 estimate");
        assert_eq!(f32_skels.len(), int8_skels.len(), "seed {seed}: segment counts match");
        for (a, b) in f32_skels.iter().zip(&int8_skels) {
            for (x, y) in a.iter().zip(b) {
                let d = (x - y).abs();
                sum_abs += f64::from(d);
                worst = worst.max(d);
                count += 1;
            }
        }
    }
    assert!(count > 0, "captures produced segments");
    let mean = sum_abs / count as f64;
    // Coordinates are metres. The 2-epoch tiny model amplifies
    // quantization noise through the LSTM recurrence more than the real
    // reference model does, so the mean envelope is 1cm here (the
    // bench-level exp_quant gate holds the trained model to a far
    // tighter epsilon); worst-case stays under 10cm.
    assert!(mean < 0.01, "mean |int8 - f32| coordinate drift {mean:.6}m exceeds 1cm");
    assert!(worst < 0.10, "worst |int8 - f32| coordinate drift {worst:.6}m exceeds 10cm");
}
