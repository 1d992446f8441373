//! Integration tests of the sharded serving router: bitwise identity
//! between sharded serving (widths 1/2/4) and the dedicated
//! single-session pipeline, both with whole segments pushed ahead and with
//! one frame pushed per step; the pool tasks of one step; ingress
//! rejections that never reach the cube builder; and a long-run churn test
//! proving that engine-side memory — eviction tombstones, scratch-pool
//! checkouts, active session count — stays bounded under unbounded session
//! turnover.

use mmhand_core::{tiny, MmHandPipeline, PipelineError};
use mmhand_radar::{ChirpConfig, RawFrame};
use mmhand_serve::{
    FrameResult, InferenceProfile, MeshPolicy, ServeConfig, ServeError, ShardedServe,
};
use mmhand_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises this file's tests: `long_run_churn_keeps_memory_bounded`
/// asserts on the process-global `pool.outstanding` gauge, which a sibling
/// test moves while it holds scratch, and two tests count the
/// process-global `parallel.tasks_spawned` and `core.frames_processed`
/// counters. Poison-tolerant, so one failing test does not fail the others.
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

/// Frames pushed one per step, the way `ServeServer::poll_once` feeds the
/// router at radar frame rates. Session `k` starts `k mod (st + 1)` steps
/// late, so segment ends fall on different steps. Each step builds only
/// the frames pushed since the previous one, and a session's segment must
/// be batched in the very step that receives its last frame. At shard
/// widths 1, 2 and 4, and with every helper inline (`sequential_scope`,
/// what `MMHAND_THREADS=1` does process-wide), skeletons and meshes match
/// the sequential pipeline bit for bit.
#[test]
fn one_frame_per_step_matches_sequential_pipeline_bitwise() {
    let _lock = telemetry_lock();
    let n_sessions = 6;
    let frames_per_session = 26;
    let pipeline = tiny_pipeline();
    let st = pipeline.builder().config().frames_per_segment;
    let streams: Vec<Vec<RawFrame>> =
        (0..n_sessions).map(|k| stream(60 + k as u64, frames_per_session)).collect();
    let reference: Vec<_> = streams
        .iter()
        .map(|s| {
            let mut p = pipeline.clone();
            p.try_estimate(s).expect("reference estimate")
        })
        .collect();
    let delay = |k: usize| k % (st + 1);
    let steps = frames_per_session + delay(n_sessions - 1).max(st);

    for (width, inline) in [(1usize, false), (2, false), (4, false), (2, true)] {
        let run = || {
            let mut serve = ShardedServe::new(
                pipeline.clone(),
                width,
                ServeConfig::new().max_sessions(n_sessions).max_batch(n_sessions),
            )
            .expect("sharded serve builds");
            let ids: Vec<u64> =
                (0..n_sessions).map(|_| serve.open_session().expect("session opens")).collect();
            let mut collected: Vec<Vec<FrameResult>> =
                (0..n_sessions).map(|_| Vec::new()).collect();
            for t in 0..steps {
                // Which sessions receive the last frame of a segment now.
                let mut completes = vec![false; n_sessions];
                for (k, &sid) in ids.iter().enumerate() {
                    let Some(j) = t.checked_sub(delay(k)).filter(|&j| j < frames_per_session)
                    else {
                        continue;
                    };
                    serve.push_frame(sid, streams[k][j].clone()).expect("frame accepted");
                    completes[k] = (j + 1) % st == 0;
                }
                let report = serve.step().expect("step runs");
                let due = completes.iter().filter(|&&c| c).count();
                assert_eq!(report.batched, due, "width {width}, step {t}: batched sessions");
                for (k, &sid) in ids.iter().enumerate() {
                    let got = serve.take_results(sid).expect("results drain");
                    let want = usize::from(completes[k]);
                    assert_eq!(got.len(), want, "width {width}, step {t}: session {k} results");
                    collected[k].extend(got);
                }
            }
            collected
        };
        let collected = if inline { mmhand_parallel::sequential_scope(run) } else { run() };

        for (k, results) in collected.iter().enumerate() {
            assert_eq!(results.len(), reference[k].skeletons.len(), "session {k} segment count");
            for (g, (r, (ref_skel, ref_hand))) in results
                .iter()
                .zip(reference[k].skeletons.iter().zip(&reference[k].hands))
                .enumerate()
            {
                assert_eq!(r.segment_index, g as u64);
                assert_eq!(
                    r.skeleton, *ref_skel,
                    "width {width}, inline {inline}: session {k} segment {g} skeleton diverged"
                );
                let hand = r.hand.as_ref().expect("mesh policy Always reconstructs");
                assert_eq!(
                    hand.mesh.vertices, ref_hand.mesh.vertices,
                    "width {width}, inline {inline}: session {k} segment {g} mesh diverged"
                );
            }
        }
    }
}

/// With at least as many shards as lanes, each shard step runs under one
/// lane (`lanes / shards`, at least 1), so its cube builds, GEMM row bands
/// and mesh fits run inline: one `ShardedServe::step` reaches the pool
/// with exactly its shard steps and nothing nested, as
/// `sched_gradients.rs` pins for the trainer's shards. With a one-lane pool
/// (`MMHAND_THREADS=1`) the whole step runs inline.
#[test]
fn shards_that_fill_the_lanes_step_inline() {
    let _lock = telemetry_lock();
    let pipeline = tiny_pipeline();
    let st = pipeline.builder().config().frames_per_segment;
    let frames = stream(31, st);
    let spawned = telemetry::counter("parallel.tasks_spawned");
    for shards in [2usize, 4] {
        let mut serve = ShardedServe::new(
            pipeline.clone(),
            shards,
            ServeConfig::new()
                .max_batch(8)
                .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Always)),
        )
        .expect("sharded serve builds");
        let ids: Vec<u64> = (0..4 * shards).map(|_| serve.open_session().expect("opens")).collect();
        for &sid in &ids {
            for f in &frames {
                serve.push_frame(sid, f.clone()).expect("frame accepted");
            }
        }
        let (lanes, before, report) = mmhand_parallel::with_thread_cap(2, || {
            let before = spawned.get();
            (mmhand_parallel::num_threads(), before, serve.step().expect("step runs"))
        });
        let tasks = spawned.get() - before;
        assert!(
            report.per_shard.iter().all(|r| r.batched > 0),
            "{shards} shards: every shard must build and batch, got {:?}",
            report.per_shard
        );
        let want = if lanes > 1 { shards } else { 0 };
        assert_eq!(
            tasks, want as u64,
            "{shards} shards on {lanes} lanes: only the shard steps may reach the pool"
        );
    }
}

/// A push rejected at ingress, for a full queue or for bad geometry, never
/// reaches the cube builder, and the queue bound counts frames still
/// pending together with frames already built into cubes.
#[test]
fn rejected_pushes_never_reach_the_cube_builder() {
    let _lock = telemetry_lock();
    let pipeline = tiny_pipeline();
    let st = pipeline.builder().config().frames_per_segment;
    let capacity = 2 * st + 1;
    let mut serve = ShardedServe::new(
        pipeline,
        1,
        ServeConfig::new()
            .queue_capacity(capacity)
            .result_capacity(1)
            .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
    )
    .expect("sharded serve builds");
    let sid = serve.open_session().expect("session opens");
    let frames = stream(41, st + capacity + 1);
    let built = telemetry::counter("core.frames_processed");
    let before = built.get();

    // One segment batched (its result fills the one-slot buffer), then one
    // segment built that cannot be scheduled until the result is taken.
    for f in &frames[..st] {
        serve.push_frame(sid, f.clone()).expect("frame accepted");
    }
    assert_eq!(serve.step().expect("step runs").batched, 1);
    for f in &frames[st..2 * st] {
        serve.push_frame(sid, f.clone()).expect("frame accepted");
    }
    assert_eq!(serve.step().expect("step runs").batched, 0);
    assert_eq!(serve.queued_frames(sid).expect("queued"), st, "built cubes stay queued");

    // Fill the queue with pending frames on top of the built ones.
    for f in &frames[2 * st..st + capacity] {
        serve.push_frame(sid, f.clone()).expect("frame accepted");
    }
    assert_eq!(serve.queued_frames(sid).expect("queued"), capacity);
    match serve.push_frame(sid, frames[st + capacity].clone()) {
        Err(ServeError::QueueFull { session, capacity: c }) => {
            assert_eq!((session, c), (sid, capacity));
        }
        other => panic!("expected QueueFull counting built cubes, got {other:?}"),
    }
    let bad = RawFrame::zeroed(&ChirpConfig::default());
    assert!(matches!(
        serve.push_frame(sid, bad),
        Err(ServeError::Pipeline(PipelineError::Radar(_)))
    ));

    assert_eq!(serve.step().expect("step runs").batched, 0, "result buffer still full");
    assert_eq!(
        built.get() - before,
        (st + capacity) as u64,
        "exactly the accepted frames were built into cubes"
    );
    assert_eq!(serve.take_results(sid).expect("results drain").len(), 1);
    assert_eq!(serve.step().expect("step runs").batched, 1);
    assert_eq!(serve.queued_frames(sid).expect("queued"), capacity - st);
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
