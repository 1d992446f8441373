//! Telemetry smoke tests: the no-op (disabled) mode must be cheap enough
//! to leave always-instrumented code paths in the hot pipeline, and the
//! global enable flag must actually gate recording.
//!
//! This file is its own test binary so it can toggle the process-global
//! telemetry switch without racing other integration tests, and its tests
//! hold [`telemetry_lock`] so they do not race each other.

use mmhand_core::cube::CubeConfig;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::tiny;
use mmhand_core::train::Trainer;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::record_session;
use mmhand_telemetry as telemetry;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Serialises the tests that toggle or read the process-global enabled
/// flag and registry. Poison-tolerant, so one failing test does not fail
/// the other.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn noop_telemetry_overhead_is_under_two_percent_of_pipeline() {
    // Run the end-to-end flow (training + estimation) with telemetry in
    // its default enabled state, counting how many recording operations it
    // actually performs. Then replay at least that many operations in
    // no-op (disabled) mode and demand they cost < 2 % of the end-to-end
    // wall-clock: the price of leaving instrumentation compiled into the
    // hot paths when a deployment turns telemetry off.
    let _lock = telemetry_lock();
    telemetry::reset();
    telemetry::set_enabled(true);
    let data = DataConfig {
        users: 1,
        frames_per_user: 24,
        cube: CubeConfig { range_max_m: 0.45, ..tiny::cube() },
        ..tiny::data(1234)
    };

    #[expect(clippy::disallowed_methods, reason = "the smoke test compares wall times")]
    let t0 = Instant::now();
    let sequences = try_build_cohort(&data).unwrap();
    let trained =
        Trainer::new(tiny::model(&data), tiny::train_config()).try_train(&sequences).unwrap();
    let user = UserProfile::generate(1, data.seed);
    let track = user.random_track(Vec3::new(0.0, 0.3, 0.0), 2, 7);
    let session = record_session(&user, &track, 8, &data.capture);
    let mut pipeline = MmHandPipeline::builder_for(trained)
        .cube_config(data.cube.clone())
        .mesh(MeshReconstructor::new(0))
        .build()
        .unwrap();
    let out = pipeline.try_estimate(&session.frames).unwrap();
    assert!(!out.skeletons.is_empty());
    let end_to_end_ns = t0.elapsed().as_nanos();

    // Upper bound on recording ops the flow performed: every counter
    // increment contributes at least 1 to its value and every histogram /
    // span observation exactly 1 to its count, so value+count sums
    // overcount the true op count (counters may add more than 1 per op).
    // Byte-valued counters (`pool.bytes_reused`) are excluded: they add
    // buffer *sizes*, overcounting their one op per update by orders of
    // magnitude, and that op is already covered by the paired `pool.hits`
    // increment plus the 2× replay margin below.
    let snap = telemetry::snapshot();
    let counter_ops: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| !n.contains("bytes"))
        .map(|(_, v)| *v)
        .sum();
    let observe_ops: u64 = snap.histograms.iter().map(|(_, h)| h.count).sum();
    let ops = (counter_ops + observe_ops).max(1_000);

    telemetry::set_enabled(false);
    let c = telemetry::counter("smoke.noop.counter");
    let h = telemetry::size_histogram("smoke.noop.hist");
    #[expect(clippy::disallowed_methods, reason = "the smoke test compares wall times")]
    let t1 = Instant::now();
    for i in 0..ops {
        // Each iteration performs two gated ops, doubling the replayed
        // op budget over the measured upper bound for extra margin.
        c.inc();
        h.observe(i as f64);
    }
    let noop_ns = t1.elapsed().as_nanos();
    telemetry::set_enabled(true);

    assert!(
        (noop_ns as f64) < 0.02 * end_to_end_ns as f64,
        "no-op telemetry too expensive: {ops} op-pairs took {noop_ns}ns \
         vs end-to-end pipeline {end_to_end_ns}ns"
    );
}

#[test]
fn disabled_mode_records_nothing_enabled_mode_records() {
    let _lock = telemetry_lock();
    telemetry::reset();
    telemetry::set_enabled(false);
    let c = telemetry::counter("smoke.gate.counter");
    let h = telemetry::size_histogram("smoke.gate.hist");
    c.add(5);
    h.observe(3.0);
    let sp = telemetry::span("smoke.gate.span");
    // Spans still measure time (callers consume durations as data)…
    let _elapsed = sp.finish();
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counters.iter().find(|(n, _)| n == "smoke.gate.counter").map(|(_, v)| *v),
        Some(0),
        "disabled counter must stay at zero"
    );
    let hist_count: u64 = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("smoke.gate."))
        .map(|(_, s)| s.count)
        .sum();
    // …but nothing lands in the registry while disabled.
    assert_eq!(hist_count, 0, "disabled histograms must record nothing");

    telemetry::set_enabled(true);
    c.add(5);
    h.observe(3.0);
    let sp = telemetry::span("smoke.gate.span");
    let _ = sp.finish();
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counters.iter().find(|(n, _)| n == "smoke.gate.counter").map(|(_, v)| *v),
        Some(5)
    );
    let hist_count: u64 = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with("smoke.gate."))
        .map(|(_, s)| s.count)
        .sum();
    assert_eq!(hist_count, 2, "enabled histogram + span must both record");
}
