//! Integration tests of the streaming inference service: bitwise identity
//! between micro-batched serving and the single-session pipeline, load
//! behaviour (zero rejects at nominal load, typed rejects at overload),
//! and property tests proving that malformed input through the full serve
//! ingress path produces `Err`, never a panic. The whole suite also runs
//! under `--features sanitize-numerics` in CI's sanitize job.

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
use mmhand_serve::{FrameResult, MeshPolicy, ServeConfig, ServeEngine, ServeError};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

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

/// Trains the reference model deterministically — two calls produce
/// bitwise-identical parameters, which lets the identity test hold one
/// pipeline inside the engine and one outside.
fn tiny_pipeline() -> MmHandPipeline {
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
        seed: 29,
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
    let model = Trainer::new(model_cfg, train_cfg).try_train(&seqs).unwrap();
    // Calibration is always supplied; the precision itself follows the
    // documented MMHAND_PRECISION fallback so CI's precision matrix can
    // drive this suite through both the f32 and int8 paths.
    let mut probe = MmHandPipeline::builder_for(model.clone())
        .cube_config(cube.clone())
        .build()
        .expect("tiny probe pipeline assembles");
    let calibration = probe.try_frames_to_segments(&stream(97, 12)).unwrap();
    MmHandPipeline::builder_for(model)
        .cube_config(cube)
        .calibration_segments(calibration)
        .build()
        .expect("tiny pipeline assembles")
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

/// Micro-batched concurrent sessions must produce, per session, bitwise
/// the same skeletons as the dedicated single-session pipeline fed the
/// same frames in one call.
#[test]
fn concurrent_sessions_match_sequential_pipeline_bitwise() {
    let n_sessions = 3;
    let frames_per_session = 12;
    let streams: Vec<Vec<RawFrame>> =
        (0..n_sessions).map(|k| stream(50 + k as u64, frames_per_session)).collect();

    // Serve path: interleaved pushes, shared micro-batched forward passes.
    let mut engine = ServeEngine::new(
        tiny_pipeline(),
        ServeConfig::new().max_batch(n_sessions).queue_capacity(frames_per_session),
    )
    .expect("engine builds");
    let ids: Vec<u64> =
        (0..n_sessions).map(|_| engine.open_session().expect("session opens")).collect();
    let st = engine.pipeline().builder().config().frames_per_segment;
    for round in 0..frames_per_session / st {
        for (k, &sid) in ids.iter().enumerate() {
            for f in &streams[k][round * st..(round + 1) * st] {
                engine.push_frame(sid, f.clone()).expect("frame accepted");
            }
        }
        let report = engine.step().expect("step runs");
        assert_eq!(report.batched, n_sessions, "all sessions batch together");
    }
    let served: Vec<Vec<FrameResult>> = ids
        .iter()
        .map(|&sid| engine.take_results(sid).expect("results drain"))
        .collect();

    // Reference path: one dedicated pipeline per session, whole stream in
    // one estimate call (the LSTM runs the same zero-state sequence).
    for (k, results) in served.iter().enumerate() {
        let mut reference = tiny_pipeline();
        let out = reference.try_estimate(&streams[k]).expect("reference estimate");
        assert_eq!(results.len(), out.skeletons.len());
        for (r, (ref_skel, ref_hand)) in
            results.iter().zip(out.skeletons.iter().zip(&out.hands))
        {
            assert_eq!(
                r.skeleton, *ref_skel,
                "session {k} segment {} diverged from the sequential pipeline",
                r.segment_index
            );
            let hand = r.hand.as_ref().expect("mesh policy Always reconstructs");
            assert_eq!(
                hand.mesh.vertices, ref_hand.mesh.vertices,
                "session {k} segment {} mesh diverged",
                r.segment_index
            );
        }
    }
}

/// At nominal load (a queue sized for the stream), 8 concurrent sessions
/// stream to completion with zero rejected frames.
#[test]
fn nominal_load_eight_sessions_zero_rejects() {
    let n_sessions = 8;
    let frames_per_session = 8;
    let mut engine = ServeEngine::new(
        tiny_pipeline(),
        ServeConfig::new()
            .max_sessions(n_sessions)
            .max_batch(n_sessions)
            .queue_capacity(frames_per_session)
            .mesh_policy(MeshPolicy::Never),
    )
    .expect("engine builds");
    let ids: Vec<u64> =
        (0..n_sessions).map(|_| engine.open_session().expect("session opens")).collect();
    for (k, &sid) in ids.iter().enumerate() {
        for f in stream(80 + k as u64, frames_per_session) {
            engine.push_frame(sid, f).expect("nominal load never rejects");
        }
    }
    let st = engine.pipeline().builder().config().frames_per_segment;
    let mut results = 0;
    for _ in 0..frames_per_session / st {
        results += engine.step().expect("step runs").results_produced;
    }
    assert_eq!(results, n_sessions * frames_per_session / st);
}

/// At 10× overload the bounded queues reject with a typed error — and
/// nothing panics.
#[test]
fn overload_rejects_with_typed_errors() {
    let queue = 4;
    let mut engine = ServeEngine::new(
        tiny_pipeline(),
        ServeConfig::new().queue_capacity(queue).mesh_policy(MeshPolicy::Never),
    )
    .expect("engine builds");
    let sid = engine.open_session().expect("session opens");
    let frames = stream(99, 40); // 10× the queue capacity
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for f in frames {
        match engine.push_frame(sid, f) {
            Ok(()) => accepted += 1,
            Err(ServeError::QueueFull { capacity, .. }) => {
                assert_eq!(capacity, queue);
                rejected += 1;
            }
            Err(other) => panic!("unexpected error under overload: {other:?}"),
        }
    }
    assert_eq!(accepted as usize, queue);
    assert!(rejected > 0, "overload must surface as rejections");
    // The engine still serves what it accepted.
    let report = engine.step().expect("step still runs");
    assert_eq!(report.batched, 1);
}

/// Sessions that stop sending are evicted and later pushes get the
/// dedicated eviction error.
#[test]
fn idle_sessions_are_evicted_with_typed_error() {
    let mut engine = ServeEngine::new(
        tiny_pipeline(),
        ServeConfig::new().evict_after_idle_steps(2).mesh_policy(MeshPolicy::Never),
    )
    .expect("engine builds");
    let sid = engine.open_session().expect("session opens");
    assert!(engine.step().expect("step 1").evicted.is_empty());
    assert_eq!(engine.step().expect("step 2").evicted, vec![sid]);
    let frame = stream(7, 1).remove(0);
    assert!(matches!(
        engine.push_frame(sid, frame),
        Err(ServeError::SessionEvicted { session }) if session == sid
    ));
}

/// Shared engine for the property tests — training once instead of once
/// per proptest case.
fn shared_engine() -> &'static Mutex<ServeEngine> {
    static ENGINE: OnceLock<Mutex<ServeEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Mutex::new(
            ServeEngine::new(
                tiny_pipeline(),
                ServeConfig::new()
                    .max_sessions(usize::MAX >> 1)
                    .mesh_policy(MeshPolicy::Never),
            )
            .expect("engine builds"),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frames with arbitrary wrong geometry (antenna counts, chirp counts,
    /// sample counts) pushed through the full serve ingress path produce a
    /// typed radar-geometry error — never a panic, and never silent
    /// acceptance.
    #[test]
    fn malformed_frames_error_through_serve_ingress(
        tx in 1usize..4,
        rx in 1usize..6,
        chirps in 1usize..12,
        samples in 1usize..48,
    ) {
        let good = tiny_chirp();
        prop_assume!(
            tx != good.tx_count
                || rx != good.rx_count
                || chirps != good.chirps_per_tx
                || samples != good.samples_per_chirp
        );
        let bad_chirp = ChirpConfig {
            tx_count: tx,
            rx_count: rx,
            chirps_per_tx: chirps,
            samples_per_chirp: samples,
            ..good
        };
        let frame = RawFrame::zeroed(&bad_chirp);
        let mut engine = shared_engine().lock().expect("engine lock");
        let sid = engine.open_session().expect("session opens");
        let outcome = engine.push_frame(sid, frame);
        prop_assert!(
            matches!(outcome, Err(ServeError::Pipeline(PipelineError::Radar(_)))),
            "expected a typed radar geometry error, got {outcome:?}"
        );
        // The malformed frame must not have been queued.
        prop_assert_eq!(engine.queued_frames(sid).expect("session still open"), 0);
        engine.close_session(sid).expect("session closes");
    }

    /// Stepping with zero-length ingress (no frames, hence no segment) is
    /// always safe: no panic, no results, no eviction surprises.
    #[test]
    fn zero_length_segments_are_safe(extra_sessions in 0usize..4) {
        let mut engine = shared_engine().lock().expect("engine lock");
        let ids: Vec<u64> = (0..=extra_sessions)
            .map(|_| engine.open_session().expect("session opens"))
            .collect();
        let report = engine.step().expect("empty step runs");
        prop_assert_eq!(report.batched, 0);
        prop_assert_eq!(report.results_produced, 0);
        for sid in ids {
            prop_assert!(engine.take_results(sid).expect("no results").is_empty());
            engine.close_session(sid).expect("session closes");
        }
    }
}
