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

use mmhand_core::{tiny, MmHandPipeline, Precision};
use mmhand_radar::RawFrame;
use mmhand_serve::{FrameResult, InferenceProfile, MeshPolicy, ServeConfig, ShardedServe};

fn stream(seed: u64, frames: usize) -> Vec<RawFrame> {
    tiny::stream(seed as usize + 1, seed, frames)
}

/// The tiny pipeline at int8, calibrated on a capture none of the test
/// sessions replays.
fn int8_pipeline() -> MmHandPipeline {
    tiny::pipeline(31, &stream(97, 12), Some(Precision::Int8)).expect("pipeline assembles")
}

/// Eight concurrent int8 sessions on a four-shard engine produce bitwise
/// the same skeletons as the dedicated single-session int8 pipeline.
#[test]
fn sharded_int8_serve_matches_sequential_int8_bitwise() {
    let n_sessions = 8;
    let frames_per_session = 26;
    let pipeline = int8_pipeline();
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
    let mut int8_pipe = int8_pipeline();
    let mut f32_pipe = MmHandPipeline::builder_for(int8_pipe.model().clone())
        .cube_config(int8_pipe.builder().config().clone())
        .precision(Precision::F32)
        .build()
        .expect("pipeline assembles");

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
