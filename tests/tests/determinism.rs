//! Regression tests for thread-count independence: the parallel execution
//! layer must not change any numeric result. Training, dataset synthesis,
//! cross-validation and end-to-end inference all shard work in
//! thread-count-independent units and reduce in fixed order, so running
//! with the pool engaged must match a forced-sequential run exactly (we
//! assert a 1e-4 tolerance as the contract for training predictions and
//! cross-validation, though the design delivers bitwise equality).
//!
//! This binary configures a 4-thread pool up front — deliberately wider
//! than the single-CPU CI runner — so the parallel code paths (task
//! splitting, cross-thread reduction) are genuinely exercised even there.

use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_core::dataset::try_session_to_sequences;
use mmhand_core::eval::{try_build_cohort, try_cross_validate, DataConfig};
use mmhand_core::metrics::JointGroup;
use mmhand_core::model::ModelConfig;
use mmhand_core::train::{TrainConfig, TrainedModel, Trainer};
use mmhand_core::{MmHandPipeline, PipelineError, Precision};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::{ChirpConfig, Environment, RadarError, RawFrame};

/// Forces the pool to 4 threads for every test in this binary (first call
/// wins; later calls are no-ops, which is fine — any >1 width does).
fn ensure_pool() {
    let _ = mmhand_parallel::configure_threads(4);
}

fn tiny_data_config() -> DataConfig {
    let chirp = ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() };
    let cube = CubeConfig {
        chirp,
        range_bins: 8,
        doppler_bins: 4,
        azimuth_bins: 4,
        elevation_bins: 4,
        frames_per_segment: 2,
        range_max_m: 0.45,
        ..Default::default()
    };
    DataConfig {
        users: 2,
        frames_per_user: 24,
        gestures_per_track: 3,
        seq_len: 2,
        capture: CaptureConfig {
            chirp,
            environment: Environment::Playground,
            noise_sigma: 0.005,
            ..Default::default()
        },
        cube,
        seed: 77,
        ..Default::default()
    }
}

fn tiny_model(data: &DataConfig) -> ModelConfig {
    ModelConfig {
        channels: 6,
        blocks: 1,
        feature_dim: 24,
        lstm_hidden: 24,
        ..data.model_config()
    }
}

fn train_tiny(data: &DataConfig) -> (TrainedModel, Vec<Vec<Vec<f32>>>) {
    let sequences = try_build_cohort(data).unwrap();
    assert!(!sequences.is_empty());
    let trained = Trainer::new(
        tiny_model(data),
        TrainConfig { epochs: 6, batch_size: 4, ..Default::default() },
    )
    .try_train(&sequences)
    .unwrap();
    let preds = sequences
        .iter()
        .map(|s| trained.predict_sequence(&s.segments))
        .collect();
    (trained, preds)
}

#[test]
fn training_is_identical_across_thread_counts() {
    ensure_pool();
    let data = tiny_data_config();
    let (par_model, par_preds) = train_tiny(&data);
    let (seq_model, seq_preds) =
        mmhand_parallel::sequential_scope(|| train_tiny(&data));

    // The contract from ISSUE/DESIGN: joint predictions agree within 1e-4.
    for (p, s) in par_preds.iter().zip(&seq_preds) {
        for (pf, sf) in p.iter().zip(s) {
            for (a, b) in pf.iter().zip(sf) {
                assert!(
                    (a - b).abs() <= 1e-4,
                    "prediction diverged across thread counts: {a} vs {b}"
                );
            }
        }
    }
    // The implementation actually guarantees bitwise-equal parameters
    // (fixed shard size + fixed-order reduction); hold it to that.
    assert_eq!(
        par_model.store.snapshot(),
        seq_model.store.snapshot(),
        "trained parameters are not bitwise identical across thread counts"
    );
}

#[test]
fn cube_processing_is_identical_across_thread_counts() {
    ensure_pool();
    let data = tiny_data_config();
    let user = UserProfile::generate(1, data.seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Pinch],
        Vec3::new(0.0, 0.3, 0.0),
        1.0,
        0.1,
    );
    let session = record_session(&user, &track, 8, &data.capture);
    let builder = CubeBuilder::try_new(data.cube.clone()).unwrap();

    let par = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
    let seq = mmhand_parallel::sequential_scope(|| {
        try_session_to_sequences(&builder, &session, 2, 1).unwrap()
    });
    assert_eq!(par.len(), seq.len());
    for (a, b) in par.iter().zip(&seq) {
        for (ta, tb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(ta.data(), tb.data(), "cube tensors differ across thread counts");
        }
    }
}

#[test]
fn cross_validation_is_identical_across_thread_counts() {
    ensure_pool();
    let data = tiny_data_config();
    let data = DataConfig { users: 4, ..data };
    let sequences = try_build_cohort(&data).unwrap();
    let model_cfg = tiny_model(&data);
    let train_cfg = TrainConfig { epochs: 2, batch_size: 4, ..Default::default() };

    let par = try_cross_validate(&sequences, &model_cfg, &train_cfg, 2).unwrap();
    let seq = mmhand_parallel::sequential_scope(|| {
        try_cross_validate(&sequences, &model_cfg, &train_cfg, 2).unwrap()
    });
    assert_eq!(par.per_user.len(), seq.per_user.len());
    let pm = par.overall.mpjpe(JointGroup::Overall);
    let sm = seq.overall.mpjpe(JointGroup::Overall);
    assert!(
        (pm - sm).abs() <= 1e-4,
        "cross-validation MPJPE diverged: {pm} vs {sm}"
    );
}

/// An f32 and an int8 pipeline over one briefly trained tiny model (the
/// int8 one calibrated on the training cohort), plus a 12-frame window of
/// a fresh capture to run them on.
fn tiny_pipelines(data: &DataConfig) -> (Vec<MmHandPipeline>, Vec<RawFrame>) {
    let sequences = try_build_cohort(data).unwrap();
    let trained = Trainer::new(
        tiny_model(data),
        TrainConfig { epochs: 2, batch_size: 4, ..Default::default() },
    )
    .try_train(&sequences)
    .unwrap();
    let calibration: Vec<_> =
        sequences.iter().flat_map(|s| s.segments.iter().cloned()).collect();
    let pipelines = [Precision::F32, Precision::Int8]
        .into_iter()
        .map(|precision| {
            let pipeline = MmHandPipeline::builder_for(trained.clone())
                .cube_config(data.cube.clone())
                .precision(precision)
                .calibration_segments(calibration.clone())
                .build()
                .expect("tiny pipeline builds");
            assert_eq!(pipeline.precision(), precision);
            pipeline
        })
        .collect();
    let user = UserProfile::generate(2, data.seed + 1);
    let track = GestureTrack::from_gestures(
        &[Gesture::Victory, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.6,
        0.1,
    );
    let session = record_session(&user, &track, 12, &data.capture);
    (pipelines, session.frames)
}

#[test]
fn pipeline_estimate_is_identical_across_thread_counts() {
    ensure_pool();
    let data = tiny_data_config();
    let (pipelines, frames) = tiny_pipelines(&data);
    for mut pipeline in pipelines {
        let precision = pipeline.precision();
        let par = pipeline.try_estimate(&frames).expect("valid window");
        let seq = mmhand_parallel::sequential_scope(|| pipeline.try_estimate(&frames))
            .expect("valid window");
        assert_eq!(par.skeletons.len(), frames.len() / data.cube.frames_per_segment);
        assert!(
            par.skeletons == seq.skeletons,
            "{precision:?} skeletons differ across thread counts"
        );
        assert_eq!(par.hands.len(), seq.hands.len());
        for (a, b) in par.hands.iter().zip(&seq.hands) {
            assert!(
                a.mesh.vertices == b.mesh.vertices,
                "{precision:?} mesh vertices differ across thread counts"
            );
        }
    }
}

#[test]
fn pipeline_reports_the_first_faulty_frame_at_every_thread_count() {
    ensure_pool();
    let data = tiny_data_config();
    let (pipelines, mut frames) = tiny_pipelines(&data);
    let chirp = data.capture.chirp;
    // Two different geometry faults; frame order, not completion order,
    // decides which one the window reports.
    frames[2] =
        RawFrame::zeroed(&ChirpConfig { samples_per_chirp: chirp.samples_per_chirp / 2, ..chirp });
    frames[5] = RawFrame::zeroed(&ChirpConfig { chirps_per_tx: chirp.chirps_per_tx / 2, ..chirp });
    let expected = RadarError::FrameGeometry {
        axis: "samples_per_chirp",
        expected: chirp.samples_per_chirp,
        got: chirp.samples_per_chirp / 2,
    };
    for mut pipeline in pipelines {
        let par = pipeline.try_estimate(&frames);
        let seq = mmhand_parallel::sequential_scope(|| pipeline.try_estimate(&frames));
        for (width, result) in [("pool", par), ("sequential", seq)] {
            match result {
                Err(PipelineError::Radar(err)) => assert_eq!(err, expected, "{width}"),
                Err(other) => panic!("{width}: expected frame 2's geometry error, got {other:?}"),
                Ok(_) => panic!("{width}: a window with faulty frames must not estimate"),
            }
        }
    }
}
