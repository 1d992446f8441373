//! Sharded serving: N independent [`ServeEngine`]s behind one router.
//!
//! A single engine is one micro-batching loop — its step latency bounds
//! how many sessions one process can serve. [`ShardedServe`] scales that
//! out: sessions are placed on one of `N` shards by an affinity hash of
//! their allocation sequence number, every shard owns a full pipeline
//! (cloned from one training run), and [`ShardedServe::step`] runs all
//! shard steps concurrently over the `mmhand-parallel` pool. Per-session
//! results are bitwise identical to the single-engine path (and therefore
//! to the dedicated sequential pipeline): a session's stream only ever
//! touches its own shard's engine, whose batch composition provably does
//! not affect per-row results.
//!
//! # Session ids and affinity
//!
//! The router allocates globally unique session ids and encodes the
//! placement into the id itself: `id = (seq << 8) | shard`. Routing a
//! frame is then a pure function of the id — no routing table exists, so
//! router memory does not grow with session churn (the per-shard eviction
//! tombstones are themselves bounded rings). The shard index is chosen by
//! a Fibonacci hash of the allocation sequence number, which spreads
//! arrivals uniformly while keeping placement deterministic: the same
//! open/push sequence always lands on the same shards.
//!
//! # Cross-shard admission and eviction
//!
//! Admission control is two-layered: the router enforces the global bound
//! (`shards × per_shard.max_sessions`) and each shard enforces its local
//! bound, so a pathological placement can reject before the global limit
//! is reached — both surface as [`ServeError::SessionLimit`] and count in
//! `serve.shard.admission_rejected`. Idle eviction runs inside every
//! shard step; the aggregated [`ShardStepReport::evicted`] lists evicted
//! ids across all shards in shard order.

use crate::config::ServeConfig;
use crate::engine::{ServeEngine, StepReport};
use crate::error::ServeError;
use crate::session::{FrameResult, SessionStats};
use mmhand_core::MmHandPipeline;
use mmhand_radar::RawFrame;
use mmhand_telemetry as telemetry;

/// Bits of the session id reserved for the shard index.
const SHARD_BITS: u32 = 8;
/// Maximum shard count representable in the id encoding.
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// What one [`ShardedServe::step`] did, aggregated across shards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStepReport {
    /// Sessions micro-batched this step, summed over shards.
    pub batched: usize,
    /// Results produced this step, summed over shards.
    pub results_produced: usize,
    /// Sessions evicted this step, in shard order.
    pub evicted: Vec<u64>,
    /// The per-shard reports, indexed by shard.
    pub per_shard: Vec<StepReport>,
}

/// One shard: the engine plus the slot its parallel step writes into.
struct ShardCell {
    engine: ServeEngine,
    report: Option<Result<StepReport, ServeError>>,
}

/// N independent serve engines behind an affinity-hashed session router.
/// See the [module docs](self) for the placement and admission model.
pub struct ShardedServe {
    shards: Vec<ShardCell>,
    /// Next session allocation sequence number (not the session id).
    next_seq: u64,
    /// Global admission bound: `shards × per_shard.max_sessions`.
    max_sessions: usize,
}

impl ShardedServe {
    /// Builds `shards` engines, each around a clone of `pipeline`, and the
    /// router in front of them.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `shards` is zero or
    /// exceeds [`MAX_SHARDS`], or when `per_shard` fails validation.
    pub fn new(
        pipeline: MmHandPipeline,
        shards: usize,
        per_shard: ServeConfig,
    ) -> Result<Self, ServeError> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(ServeError::InvalidConfig {
                field: "shards",
                reason: format!("shard count must be in 1..={MAX_SHARDS}, got {shards}"),
            });
        }
        let max_sessions = per_shard.max_sessions.saturating_mul(shards);
        // The router is the single admission authority: each shard engine
        // gets the *global* session cap so affinity-hash imbalance can
        // never trip a shard-local rejection while global capacity remains
        // (placement is a pure hash, not load-aware).
        let engine_cfg = per_shard.max_sessions(max_sessions);
        let mut cells = Vec::with_capacity(shards);
        for _ in 0..shards.saturating_sub(1) {
            let engine = ServeEngine::new(pipeline.clone(), engine_cfg.clone())?;
            cells.push(ShardCell { engine, report: None });
        }
        // The last shard takes the original pipeline instead of a clone.
        cells.push(ShardCell { engine: ServeEngine::new(pipeline, engine_cfg)?, report: None });
        telemetry::gauge("serve.shard.count").set(shards as f64);
        telemetry::gauge("serve.shard.sessions_active").set(0.0);
        Ok(ShardedServe { shards: cells, next_seq: 1, max_sessions })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The global admission limit (`shards × per_shard.max_sessions`).
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Open sessions summed over shards.
    pub fn active_sessions(&self) -> usize {
        self.shards.iter().map(|c| c.engine.active_sessions()).sum()
    }

    /// Eviction tombstones remembered, summed over shards (each shard's
    /// store is a bounded ring, so this is bounded too).
    pub fn evicted_tombstones(&self) -> usize {
        self.shards.iter().map(|c| c.engine.evicted_tombstones()).sum()
    }

    /// Name of the process-wide kernel backend the shard engines run on.
    pub fn kernel_backend(&self) -> &'static str {
        self.shards[0].engine.kernel_backend()
    }

    /// Numeric precision every shard serves (shards share one profile and
    /// one pipeline, so this is uniform by construction).
    pub fn precision(&self) -> mmhand_core::Precision {
        self.shards[0].engine.precision()
    }

    /// The per-shard serving configuration.
    pub fn config(&self) -> &ServeConfig {
        self.shards[0].engine.config()
    }

    /// The shard a session id routes to.
    fn shard_index(&self, session: u64) -> Result<usize, ServeError> {
        let shard = (session & (MAX_SHARDS as u64 - 1)) as usize;
        if session >> SHARD_BITS == 0 || shard >= self.shards.len() {
            return Err(ServeError::UnknownSession { session });
        }
        Ok(shard)
    }

    /// Deterministic affinity placement for an allocation sequence number:
    /// a Fibonacci (multiplicative) hash spread over the shard count.
    fn place(&self, seq: u64) -> usize {
        (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    /// Opens a session on its affinity shard and returns the global id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SessionLimit`] at the global bound (the
    /// aggregate `shards × per_shard.max_sessions` limit); admission is
    /// decided here, never by an individual shard.
    pub fn open_session(&mut self) -> Result<u64, ServeError> {
        if self.active_sessions() >= self.max_sessions {
            telemetry::counter("serve.shard.admission_rejected").inc();
            telemetry::counter("serve.sessions_rejected").inc();
            return Err(ServeError::SessionLimit { max_sessions: self.max_sessions });
        }
        let seq = self.next_seq;
        let shard = self.place(seq);
        let id = (seq << SHARD_BITS) | shard as u64;
        match self.shards[shard].engine.open_session_with_id(id) {
            Ok(()) => {
                self.next_seq += 1;
                telemetry::gauge("serve.shard.sessions_active")
                    .set(self.active_sessions() as f64);
                Ok(id)
            }
            Err(e) => {
                if matches!(e, ServeError::SessionLimit { .. }) {
                    telemetry::counter("serve.shard.admission_rejected").inc();
                }
                Err(e)
            }
        }
    }

    /// Pushes one raw frame to the session's shard.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::push_frame`]; ids that decode to no shard are
    /// [`ServeError::UnknownSession`].
    pub fn push_frame(&mut self, session: u64, frame: RawFrame) -> Result<(), ServeError> {
        let shard = self.shard_index(session)?;
        self.shards[shard].engine.push_frame(session, frame)
    }

    /// Frames currently queued for a session.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::queued_frames`].
    pub fn queued_frames(&self, session: u64) -> Result<usize, ServeError> {
        let shard = self.shard_index(session)?;
        self.shards[shard].engine.queued_frames(session)
    }

    /// Drains buffered results for a session (oldest first).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::take_results`].
    pub fn take_results(&mut self, session: u64) -> Result<Vec<FrameResult>, ServeError> {
        let shard = self.shard_index(session)?;
        self.shards[shard].engine.take_results(session)
    }

    /// Closes a session, returning its lifetime stats.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::close_session`].
    pub fn close_session(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        let shard = self.shard_index(session)?;
        let stats = self.shards[shard].engine.close_session(session)?;
        telemetry::gauge("serve.shard.sessions_active").set(self.active_sessions() as f64);
        Ok(stats)
    }

    /// Runs one scheduling round on every shard, concurrently over the
    /// `mmhand-parallel` pool, and aggregates the reports. Each shard's
    /// step is the unchanged single-engine step (fairness cursor, bounded
    /// tombstones, micro-batched forward pass), so per-session results do
    /// not depend on the shard count.
    ///
    /// Each shard runs under `lanes / shards` lanes (at least one), the
    /// trainer's rule for a fan-out that fills the pool: with at least as
    /// many shards as lanes, a shard's cube builds, GEMM row bands and mesh
    /// fits run inline, and the shard steps are the step's only pool tasks.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed shard's error if any shard step failed;
    /// the other shards' completed work (buffered results, evictions)
    /// remains intact.
    pub fn step(&mut self) -> Result<ShardStepReport, ServeError> {
        let sp = telemetry::span("serve.shard.step");
        let inner = (mmhand_parallel::num_threads() / self.shards.len()).max(1);
        mmhand_parallel::par_chunks_mut(&mut self.shards, 1, |_, cell| {
            mmhand_parallel::with_thread_cap(inner, || {
                for c in cell {
                    c.report = Some(c.engine.step());
                }
            });
        });
        let mut agg = ShardStepReport {
            per_shard: Vec::with_capacity(self.shards.len()),
            ..ShardStepReport::default()
        };
        let mut first_err = None;
        for cell in &mut self.shards {
            match cell.report.take() {
                Some(Ok(report)) => {
                    agg.batched += report.batched;
                    agg.results_produced += report.results_produced;
                    agg.evicted.extend_from_slice(&report.evicted);
                    agg.per_shard.push(report);
                }
                Some(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    agg.per_shard.push(StepReport::default());
                }
                None => agg.per_shard.push(StepReport::default()),
            }
        }
        let (min, max) = self.shards.iter().fold((usize::MAX, 0), |(lo, hi), c| {
            let n = c.engine.active_sessions();
            (lo.min(n), hi.max(n))
        });
        telemetry::gauge("serve.shard.imbalance").set(max.saturating_sub(min) as f64);
        telemetry::gauge("serve.shard.sessions_active").set(self.active_sessions() as f64);
        sp.finish();
        match first_err {
            Some(e) => Err(e),
            None => Ok(agg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InferenceProfile, MeshPolicy};
    use mmhand_core::tiny;

    fn tiny_pipeline() -> MmHandPipeline {
        tiny::pipeline(11, &tiny::stream(1, 21, 12), None).expect("tiny fixture builds")
    }

    fn sharded(shards: usize, cfg: ServeConfig) -> ShardedServe {
        ShardedServe::new(tiny_pipeline(), shards, cfg).expect("valid config")
    }

    #[test]
    fn shard_count_bounds_are_typed_errors() {
        let pipeline = tiny_pipeline();
        for bad in [0, MAX_SHARDS + 1] {
            match ShardedServe::new(pipeline.clone(), bad, ServeConfig::new()) {
                Err(ServeError::InvalidConfig { field: "shards", .. }) => {}
                Err(other) => panic!("expected InvalidConfig for {bad} shards, got {other:?}"),
                Ok(_) => panic!("expected InvalidConfig for {bad} shards, got Ok"),
            }
        }
    }

    #[test]
    fn global_admission_limit_spans_shards() {
        let mut s = sharded(2, ServeConfig::new().max_sessions(2));
        let mut opened = 0;
        let mut rejected = 0;
        for _ in 0..6 {
            match s.open_session() {
                Ok(_) => opened += 1,
                Err(ServeError::SessionLimit { .. }) => rejected += 1,
                other => panic!("unexpected admission outcome {other:?}"),
            }
        }
        // 2 shards × 2 sessions global capacity; hash imbalance may reject
        // earlier at a full shard, never later than the global bound.
        assert!(opened <= 4, "opened {opened} past the global bound");
        assert!(rejected >= 2);
        assert_eq!(s.active_sessions(), opened);
    }

    #[test]
    fn ids_route_to_their_shard_and_bogus_ids_are_unknown() {
        let mut s = sharded(4, ServeConfig::new());
        let a = s.open_session().expect("opens");
        let b = s.open_session().expect("opens");
        assert_ne!(a, b);
        // Decodable but never-allocated ids and undecodable ids both fail.
        for bogus in [0u64, 7, (999 << 8) | 3, (1 << 8) | 200] {
            assert!(
                matches!(
                    s.take_results(bogus),
                    Err(ServeError::UnknownSession { .. } | ServeError::SessionEvicted { .. })
                ),
                "bogus id {bogus} must not resolve"
            );
        }
        assert!(s.take_results(a).expect("routes").is_empty());
        assert!(s.take_results(b).expect("routes").is_empty());
    }

    #[test]
    fn cross_shard_eviction_aggregates_and_tombstones_stay_bounded() {
        let mut s = sharded(
            4,
            ServeConfig::new().evict_after_idle_steps(1).tombstone_capacity(2),
        );
        let ids: Vec<u64> = (0..8).map(|_| s.open_session().expect("opens")).collect();
        let report = s.step().expect("step runs");
        let mut evicted = report.evicted.clone();
        evicted.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(evicted, want, "all idle sessions evicted across shards");
        assert!(
            s.evicted_tombstones() <= 4 * 2,
            "tombstones bounded by shards × capacity"
        );
        assert_eq!(s.active_sessions(), 0);
    }

    #[test]
    fn sharded_streams_produce_results() {
        let mut s = sharded(
            2,
            ServeConfig::new().profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
        );
        let frames = tiny::stream(1, 77, 4);
        let seg = 2; // frames_per_segment of the tiny cube geometry
        let a = s.open_session().expect("opens");
        let b = s.open_session().expect("opens");
        for f in frames.iter().take(2 * seg) {
            s.push_frame(a, f.clone()).expect("accepted");
            s.push_frame(b, f.clone()).expect("accepted");
        }
        let mut produced = 0;
        for _ in 0..2 {
            produced += s.step().expect("step runs").results_produced;
        }
        assert_eq!(produced, 4);
        assert_eq!(s.take_results(a).expect("drain").len(), 2);
        assert_eq!(s.take_results(b).expect("drain").len(), 2);
        s.close_session(a).expect("closes");
        s.close_session(b).expect("closes");
    }
}
