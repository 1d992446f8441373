//! Integration tests of the sharded serving router: bitwise identity
//! between sharded serving (widths 1/2/4) and the dedicated
//! single-session pipeline, and a long-run churn test proving that
//! engine-side memory — eviction tombstones, scratch-pool checkouts,
//! active session count — stays bounded under unbounded session turnover.

use mmhand_core::{tiny, MmHandPipeline};
use mmhand_radar::RawFrame;
use mmhand_serve::{
    FrameResult, InferenceProfile, MeshPolicy, ServeConfig, ServeError, ShardedServe,
};
use mmhand_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises this file's tests: `long_run_churn_keeps_memory_bounded`
/// asserts on the process-global `pool.outstanding` gauge, which a sibling
/// test moves while it holds scratch. Poison-tolerant, so one failing test
/// does not fail the others.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Trains the reference model once; shards and reference paths clone it,
/// which is exactly how the sharded router materialises per-shard engines.
fn tiny_pipeline() -> MmHandPipeline {
    tiny::pipeline(29, &stream(97, 12), None).expect("tiny pipeline assembles")
}

fn stream(seed: u64, frames: usize) -> Vec<RawFrame> {
    tiny::stream(seed as usize + 1, seed, frames)
}

/// Eight concurrent sessions served at shard widths 1, 2, and 4 must all
/// produce, per session, bitwise the same skeletons and mesh vertices as
/// the dedicated single-session pipeline — sharding relocates sessions,
/// it never changes their arithmetic.
#[test]
fn shard_widths_match_sequential_pipeline_bitwise() {
    let _lock = telemetry_lock();
    let n_sessions = 8;
    let frames_per_session = 26;
    let pipeline = tiny_pipeline();
    let st = pipeline.builder().config().frames_per_segment;
    let segments = frames_per_session / st;
    let streams: Vec<Vec<RawFrame>> =
        (0..n_sessions).map(|k| stream(50 + k as u64, frames_per_session)).collect();

    // Reference skeletons + meshes from the sequential pipeline.
    let reference: Vec<_> = streams
        .iter()
        .map(|s| {
            let mut p = pipeline.clone();
            p.try_estimate(s).expect("reference estimate")
        })
        .collect();

    for width in [1usize, 2, 4] {
        let mut serve = ShardedServe::new(
            pipeline.clone(),
            width,
            ServeConfig::new()
                .max_sessions(n_sessions)
                .max_batch(n_sessions)
                .queue_capacity(frames_per_session),
        )
        .expect("sharded serve builds");
        let ids: Vec<u64> =
            (0..n_sessions).map(|_| serve.open_session().expect("session opens")).collect();
        for (k, &sid) in ids.iter().enumerate() {
            for f in &streams[k] {
                serve.push_frame(sid, f.clone()).expect("frame accepted");
            }
        }
        // Independent shards can drain at different rates; step until all
        // sessions produced their full segment count (bounded by a cap).
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
            assert_eq!(
                results.len(),
                reference[k].skeletons.len(),
                "width {width}: session {k} segment count"
            );
            for (r, (ref_skel, ref_hand)) in
                results.iter().zip(reference[k].skeletons.iter().zip(&reference[k].hands))
            {
                assert_eq!(
                    r.skeleton, *ref_skel,
                    "width {width}: session {k} segment {} skeleton diverged",
                    r.segment_index
                );
                let hand = r.hand.as_ref().expect("mesh policy Always reconstructs");
                assert_eq!(
                    hand.mesh.vertices, ref_hand.mesh.vertices,
                    "width {width}: session {k} segment {} mesh diverged",
                    r.segment_index
                );
            }
        }
    }
}

/// Unbounded session churn — generations of sessions opening, streaming,
/// idling into eviction — must leave every engine-side memory axis
/// bounded: the tombstone ring at its configured capacity, no leaked
/// scratch-pool checkouts, and no residual active sessions. The old
/// unbounded `BTreeSet` tombstone store fails the tombstone assertion
/// (it retains one entry per evicted session forever).
#[test]
fn long_run_churn_keeps_memory_bounded() {
    let _lock = telemetry_lock();
    let shards = 2;
    let tombstone_capacity = 16;
    let mut serve = ShardedServe::new(
        tiny_pipeline(),
        shards,
        ServeConfig::new()
            .max_sessions(8)
            .max_batch(4)
            .queue_capacity(8)
            .evict_after_idle_steps(1)
            .tombstone_capacity(tombstone_capacity)
            .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
    )
    .expect("sharded serve builds");

    let frames = stream(7, 2); // one segment's worth
    let generations = 300;
    let mut evicted_total = 0usize;
    let mut served_total = 0usize;
    for gen in 0..generations {
        let sid = serve.open_session().expect("session opens");
        if gen % 2 == 0 {
            // Half the generations stream a segment and close cleanly.
            for f in &frames {
                serve.push_frame(sid, f.clone()).expect("frame accepted");
            }
            serve.step().expect("step runs");
            served_total += serve.take_results(sid).expect("results drain").len();
            serve.close_session(sid).expect("clean close");
        } else {
            // The other half go silent and are evicted by the idle budget.
            let report = serve.step().expect("step runs");
            evicted_total += report.evicted.len();
            // A post-eviction push gets the typed eviction error while the
            // tombstone is fresh.
            if let Err(e) = serve.push_frame(sid, frames[0].clone()) {
                assert!(
                    matches!(
                        e,
                        ServeError::SessionEvicted { .. } | ServeError::UnknownSession { .. }
                    ),
                    "unexpected post-eviction error: {e:?}"
                );
            }
        }
    }

    assert!(evicted_total > 2 * shards * tombstone_capacity, "churn must overflow the ring");
    assert!(served_total > 0, "serving generations must produce results");

    // Tombstone memory: bounded by the per-shard ring capacity, not by
    // the number of evictions ever performed.
    assert!(
        serve.evicted_tombstones() <= shards * tombstone_capacity,
        "tombstones leaked: {} retained after {evicted_total} evictions (bound {})",
        serve.evicted_tombstones(),
        shards * tombstone_capacity
    );

    // Session memory: nothing left active.
    assert_eq!(serve.active_sessions(), 0, "sessions leaked across churn");

    // Scratch-pool memory: every checkout the serve path took was
    // returned (outstanding is a process-global gauge; it must be zero
    // between steps regardless of what earlier tests ran).
    let snap = telemetry::snapshot();
    if let Some((_, v)) = snap.gauges.iter().find(|(n, _)| n == "pool.outstanding") {
        assert_eq!(*v, 0.0, "scratch-pool checkouts leaked across churn");
    }

    // The oldest tombstones degraded to UnknownSession; a session id from
    // the first generations is no longer remembered as evicted.
    // (Recently evicted ids keep the distinct error — covered above.)
    let old_sessions: Vec<u64> = (0..4).collect();
    for old in old_sessions {
        match serve.push_frame(old, frames[0].clone()) {
            Err(ServeError::UnknownSession { .. }) | Err(ServeError::SessionEvicted { .. }) => {}
            other => panic!("expected a typed miss for stale id {old}, got {other:?}"),
        }
    }
}

/// The sharded router's admission control spans shards: the global limit
/// is the per-shard limit times the width, and rejections surface as the
/// same typed error the single engine raises.
#[test]
fn sharded_admission_is_global_and_typed() {
    let _lock = telemetry_lock();
    let mut serve = ShardedServe::new(
        tiny_pipeline(),
        4,
        ServeConfig::new()
            .max_sessions(2)
            .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
    )
    .expect("sharded serve builds");
    assert_eq!(serve.max_sessions(), 8);
    let mut opened = Vec::new();
    loop {
        match serve.open_session() {
            Ok(id) => opened.push(id),
            Err(ServeError::SessionLimit { max_sessions }) => {
                assert_eq!(max_sessions, 8);
                break;
            }
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    }
    assert_eq!(opened.len(), 8, "the global limit is width × per-shard limit");
    for id in opened {
        serve.close_session(id).expect("session closes");
    }
}
