//! The session-oriented streaming inference engine.
//!
//! [`ServeEngine`] owns an [`MmHandPipeline`] and any number of client
//! sessions. Clients push raw radar frames into bounded per-session
//! queues. Each [`ServeEngine::step`] first builds the cube slice of every
//! frame pushed since the previous step. A segment's earlier frames are
//! thus built before its last one arrives, and a queued frame waits as a
//! cube slice (8 KB at the default geometry) instead of its raw samples
//! (98 KB). The step then drains up to one segment of cubes per ready
//! session, folds the drained segments into **one** micro-batched forward
//! pass, advances each session's streaming LSTM state, and buffers one
//! [`FrameResult`] per segment for the client to take.
//!
//! # Determinism
//!
//! The engine is synchronous and pull-based — no background threads:
//! concurrency happens only inside [`mmhand_parallel`] (cube building, the
//! batched GEMMs of the forward pass, mesh reconstruction), all of which
//! are deterministic at any thread count. A cube is a pure function of its
//! frame, so building it at an earlier step changes no bit. Because every
//! op in the forward pass treats batch rows independently and accumulates
//! in an order independent of the batch size, a session's result stream is
//! bitwise identical to running the same frames through a dedicated
//! single-session pipeline.
//!
//! # Backpressure
//!
//! Two bounds propagate load back to clients as typed errors, never
//! panics: the ingress queue ([`ServeError::QueueFull`]) and the admission
//! limit ([`ServeError::SessionLimit`]). A session whose result buffer is
//! full is simply not scheduled, which in turn fills its ingress queue.

use crate::config::{MeshPolicy, ServeConfig};
use crate::error::ServeError;
use crate::session::{FrameResult, Session, SessionStats};
use mmhand_core::{MmHandPipeline, PipelineError, Precision};
use mmhand_nn::Tensor;
use mmhand_radar::RawFrame;
use mmhand_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What one [`ServeEngine::step`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Sessions folded into this step's micro-batch.
    pub batched: usize,
    /// Results produced this step (one per batched session).
    pub results_produced: usize,
    /// Sessions evicted at the end of this step.
    pub evicted: Vec<u64>,
}

/// One drained segment's worth of work for a session.
struct Job {
    session: u64,
    /// The segment tensor `(st·V, D, A)` stacked from the session's cubes.
    segment: Tensor,
    skip_mesh: bool,
}

/// Bounded memory of recently evicted session ids.
///
/// A long-running server evicts sessions forever, so an unbounded
/// tombstone set is a memory leak. This ring remembers the most recent
/// `capacity` evictions (insertion order); inserting past the bound
/// forgets the oldest tombstone, whose id thereafter reports as the
/// generic [`ServeError::UnknownSession`] instead of the more precise
/// [`ServeError::SessionEvicted`]. That degradation is deliberate and
/// documented: the distinct eviction error is a *recency* courtesy to
/// clients that missed an eviction, not a permanent ledger.
pub(crate) struct Tombstones {
    capacity: usize,
    /// Eviction order, oldest at the front.
    ring: VecDeque<u64>,
    /// Same ids, indexed for O(log n) membership checks.
    set: BTreeSet<u64>,
}

impl Tombstones {
    pub(crate) fn new(capacity: usize) -> Self {
        Tombstones { capacity, ring: VecDeque::new(), set: BTreeSet::new() }
    }

    /// Records an eviction, forgetting the oldest tombstone at capacity.
    pub(crate) fn insert(&mut self, id: u64) {
        if !self.set.insert(id) {
            return;
        }
        self.ring.push_back(id);
        while self.ring.len() > self.capacity {
            if let Some(old) = self.ring.pop_front() {
                self.set.remove(&old);
            }
        }
    }

    pub(crate) fn contains(&self, id: u64) -> bool {
        self.set.contains(&id)
    }

    /// Tombstones currently remembered (bounded by the capacity).
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }
}

/// The streaming inference engine. See the [module docs](self) for the
/// execution model.
pub struct ServeEngine {
    pipeline: MmHandPipeline,
    config: ServeConfig,
    sessions: BTreeMap<u64, Session>,
    /// Bounded tombstones so a pushed-to recently-evicted session gets a
    /// distinct error (see [`Tombstones`] for the forgetting semantics).
    evicted: Tombstones,
    next_id: u64,
    /// Fairness cursor: the highest session id scheduled last step.
    /// Scheduling starts from the first ready id *after* it (wrapping),
    /// so when more sessions are ready than `max_batch` can take, low
    /// ids cannot starve high ids — every ready session is scheduled
    /// within `ceil(ready / max_batch)` steps.
    fair_cursor: u64,
    /// Kernel backend resolved when the engine was built (`"scalar"` /
    /// `"simd"`), recorded so operators can see which inner loops served
    /// a given process.
    kernel_backend: &'static str,
    /// Numeric precision every forward pass of this engine runs on;
    /// checked against the pipeline at construction.
    precision: Precision,
}

impl ServeEngine {
    /// Builds an engine around an assembled pipeline.
    ///
    /// The config's [`InferenceProfile`](crate::InferenceProfile) is
    /// applied here: the kernel-backend request is resolved (and
    /// process-pinned) through `mmhand_kernels::request_backend`, and the
    /// profile's precision is cross-checked against the pipeline's — the
    /// pipeline carries the calibration state, so a profile the pipeline
    /// cannot honour is a construction-time error, never a silent
    /// mid-serving downgrade.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for out-of-range bounds or a
    /// precision the pipeline was not built for.
    pub fn new(pipeline: MmHandPipeline, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let backend = mmhand_kernels::request_backend(config.profile.kernel_backend);
        let precision = config.profile.precision;
        if precision != pipeline.precision() {
            return Err(ServeError::InvalidConfig {
                field: "profile.precision",
                reason: format!(
                    "profile requests {} but the pipeline was built for {}; build the \
                     pipeline with .precision(..) (int8 needs calibration) to match",
                    precision.name(),
                    pipeline.precision().name()
                ),
            });
        }
        let tombstones = Tombstones::new(config.tombstone_capacity);
        Ok(ServeEngine {
            pipeline,
            config,
            sessions: BTreeMap::new(),
            evicted: tombstones,
            next_id: 1,
            fair_cursor: 0,
            kernel_backend: backend.name(),
            precision,
        })
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &MmHandPipeline {
        &self.pipeline
    }

    /// Name of the process-wide kernel backend (`"scalar"` / `"simd"`)
    /// this engine's inner loops run on.
    pub fn kernel_backend(&self) -> &'static str {
        self.kernel_backend
    }

    /// Numeric precision every forward pass of this engine runs on.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of currently open sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Frames currently queued for a session: pushed since the last step
    /// plus built into cubes and not yet inferred.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] / [`ServeError::SessionEvicted`].
    pub fn queued_frames(&self, session: u64) -> Result<usize, ServeError> {
        match self.sessions.get(&session) {
            Some(s) => Ok(s.queued()),
            None => Err(self.gone(session)),
        }
    }

    /// Opens a session and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SessionLimit`] when the engine is at its
    /// admission limit.
    pub fn open_session(&mut self) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.open_session_with_id(id)?;
        self.next_id += 1;
        Ok(id)
    }

    /// Opens a session under an externally assigned id — the shard router
    /// allocates globally unique ids and routes by them, so shard-local
    /// engines must not mint their own.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SessionLimit`] at the admission limit, or
    /// [`ServeError::InvalidConfig`] if the id is already open (router
    /// invariant violation).
    pub(crate) fn open_session_with_id(&mut self, id: u64) -> Result<(), ServeError> {
        if self.sessions.len() >= self.config.max_sessions {
            telemetry::counter("serve.sessions_rejected").inc();
            return Err(ServeError::SessionLimit { max_sessions: self.config.max_sessions });
        }
        if self.sessions.contains_key(&id) {
            return Err(ServeError::InvalidConfig {
                field: "session_id",
                reason: format!("session id {id} is already open"),
            });
        }
        let hidden = self.pipeline.model().lstm_hidden();
        self.sessions.insert(id, Session::new(id, hidden));
        telemetry::counter("serve.sessions_opened").inc();
        telemetry::gauge("serve.sessions_active").set(self.sessions.len() as f64);
        Ok(())
    }

    /// Number of eviction tombstones currently remembered. Bounded by
    /// [`ServeConfig::tombstone_capacity`] — the churn regression test
    /// asserts this stays flat while evictions keep counting up.
    pub fn evicted_tombstones(&self) -> usize {
        self.evicted.len()
    }

    /// Pushes one raw frame into a session's ingress queue.
    ///
    /// The frame's geometry is validated against the pipeline's chirp
    /// configuration *here*, so nothing past the queue can fail on
    /// malformed client input. The push does no signal processing: the
    /// next [`ServeEngine::step`] builds the frame's cube. The queue's
    /// capacity counts frames still pending and frames already built.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] / [`ServeError::SessionEvicted`] for
    /// a bad id, [`ServeError::Pipeline`] for mismatched frame geometry,
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity.
    pub fn push_frame(&mut self, session: u64, frame: RawFrame) -> Result<(), ServeError> {
        telemetry::counter("serve.frames_in").inc();
        let capacity = self.config.queue_capacity;
        let chirp = self.pipeline.builder().config().chirp;
        let Some(s) = self.sessions.get_mut(&session) else {
            telemetry::counter("serve.frames_rejected").inc();
            return Err(self.gone(session));
        };
        if let Err(e) = chirp.validate_frame(&frame) {
            telemetry::counter("serve.frames_rejected").inc();
            return Err(ServeError::Pipeline(PipelineError::from(e)));
        }
        if s.queued() >= capacity {
            telemetry::counter("serve.frames_rejected").inc();
            return Err(ServeError::QueueFull { session, capacity });
        }
        s.pending.push(frame);
        s.stats.frames_in += 1;
        Ok(())
    }

    /// Runs one scheduling round. It first builds the cube of every frame
    /// pushed since the previous step: one pool task per frame, in
    /// ascending session id, then frame order. It then drains up to one
    /// segment of cubes from each of up to `max_batch` ready sessions, runs
    /// the shared micro-batched forward pass, advances per-session LSTM
    /// state, and buffers results. Sessions idle past the eviction budget
    /// are removed. A segment is therefore batched in the step that
    /// follows the push of its last frame, and only that frame's cube is
    /// built on the way to its result.
    ///
    /// Scheduling is round-robin over ascending session ids via a rotating
    /// fairness cursor: selection starts at the first ready id after the
    /// last id scheduled in the previous step and wraps. A plain
    /// lowest-id-first scan (the pre-cursor behaviour) starves high ids
    /// indefinitely whenever more sessions stay ready than `max_batch`
    /// admits per step.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Pipeline`] only on an internal invariant
    /// violation (frames are geometry-checked at ingress); the step stops
    /// at the first cube or segment that fails to build, dropping the
    /// frames it was building for that session.
    pub fn step(&mut self) -> Result<StepReport, ServeError> {
        let sp = telemetry::span("serve.step");
        self.build_pending()?;
        let builder = self.pipeline.builder();
        let st = builder.config().frames_per_segment;
        let mut ready: Vec<u64> = self
            .sessions
            .values()
            .filter(|s| s.ready(st, self.config.result_capacity))
            .map(|s| s.id)
            .collect();
        // Rotate the ascending id list so it starts just past the fairness
        // cursor, then take the batch; the cursor advances to the last id
        // actually scheduled.
        let pivot = ready.partition_point(|&id| id <= self.fair_cursor);
        ready.rotate_left(pivot);
        ready.truncate(self.config.max_batch);
        if let Some(&last) = ready.last() {
            self.fair_cursor = last;
        }

        // Not pooled: per-step job staging, bounded by max_batch
        let mut jobs = Vec::with_capacity(ready.len());
        for &id in &ready {
            if let Some(s) = self.sessions.get_mut(&id) {
                let segment = builder.try_segment_tensor(&s.cubes.make_contiguous()[..st]);
                s.cubes.drain(..st);
                let backlog_segments = s.cubes.len() / st;
                let skip_mesh = match self.config.profile.mesh_policy {
                    MeshPolicy::Always => false,
                    MeshPolicy::Never => true,
                    MeshPolicy::SkipWhenBacklogged { segments } => backlog_segments >= segments,
                };
                jobs.push(Job { session: id, segment: segment?, skip_mesh });
            }
        }

        let results_produced = if jobs.is_empty() { 0 } else { self.run_batch(&jobs)? };

        // Idle accounting + eviction for sessions that were not scheduled.
        let mut evicted = Vec::new();
        let budget = self.config.evict_after_idle_steps;
        for (id, s) in self.sessions.iter_mut() {
            if jobs.iter().any(|j| j.session == *id) {
                s.idle_steps = 0;
            } else {
                s.idle_steps += 1;
                if budget > 0 && s.idle_steps >= budget {
                    evicted.push(*id);
                }
            }
        }
        for id in &evicted {
            self.sessions.remove(id);
            self.evicted.insert(*id);
            telemetry::counter("serve.sessions_evicted").inc();
        }

        let depth: usize = self.sessions.values().map(Session::queued).sum();
        telemetry::gauge("serve.queue_depth").set(depth as f64);
        telemetry::gauge("serve.sessions_active").set(self.sessions.len() as f64);
        sp.finish();
        Ok(StepReport { batched: jobs.len(), results_produced, evicted })
    }

    /// Drains buffered results for a session (oldest first).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] / [`ServeError::SessionEvicted`].
    pub fn take_results(&mut self, session: u64) -> Result<Vec<FrameResult>, ServeError> {
        match self.sessions.get_mut(&session) {
            Some(s) => Ok(s.results.drain(..).collect()),
            None => Err(self.gone(session)),
        }
    }

    /// Closes a session, returning its lifetime stats. Queued frames and
    /// untaken results are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] / [`ServeError::SessionEvicted`].
    pub fn close_session(&mut self, session: u64) -> Result<SessionStats, ServeError> {
        match self.sessions.remove(&session) {
            Some(s) => {
                telemetry::counter("serve.sessions_closed").inc();
                telemetry::gauge("serve.sessions_active").set(self.sessions.len() as f64);
                Ok(s.stats)
            }
            None => Err(self.gone(session)),
        }
    }

    /// The error for a session id that is not open.
    fn gone(&self, session: u64) -> ServeError {
        if self.evicted.contains(session) {
            ServeError::SessionEvicted { session }
        } else {
            ServeError::UnknownSession { session }
        }
    }

    /// Builds the cube of every frame pushed since the previous step and
    /// queues it behind the session's earlier cubes. One pool task per
    /// frame, in ascending session id, then frame order, so a lone
    /// session's frames still spread over the pool.
    fn build_pending(&mut self) -> Result<(), ServeError> {
        let builder = self.pipeline.builder();
        // Not pooled: per-step staging, bounded by sessions × queue_capacity
        let frames: Vec<&RawFrame> = self.sessions.values().flat_map(|s| &s.pending).collect();
        if frames.is_empty() {
            return Ok(());
        }
        let mut cubes =
            mmhand_parallel::par_map(&frames, |f| builder.try_process_frame(f)).into_iter();
        for s in self.sessions.values_mut() {
            let n = s.pending.len();
            s.pending.clear();
            for cube in cubes.by_ref().take(n) {
                s.cubes.push_back(cube?);
            }
        }
        Ok(())
    }

    /// Stacks the jobs' prebuilt segment tensors into one batch, runs the
    /// micro-batched forward pass, reconstructs meshes, and buffers
    /// per-session results.
    fn run_batch(&mut self, jobs: &[Job]) -> Result<usize, ServeError> {
        // Stack segments along the batch axis: (N, st·V, D, A). Segment
        // tensors are always rank 3, so the batch shape fits a fixed array.
        let n = jobs.len();
        let seg = jobs[0].segment.shape();
        let shape = [n, seg[0], seg[1], seg[2]];
        // Not pooled: becomes the owned batch tensor via from_vec
        let mut data = Vec::with_capacity(n * jobs[0].segment.len());
        for job in jobs {
            data.extend_from_slice(job.segment.data());
        }
        let batch = Tensor::from_vec(&shape, data);

        // Stack LSTM state the same way: (N, hidden).
        let hidden = self.pipeline.model().lstm_hidden();
        // Not pooled: become the owned state tensors via from_vec
        let mut h_data = Vec::with_capacity(n * hidden);
        let mut c_data = Vec::with_capacity(n * hidden); // Not pooled: as above
        for job in jobs {
            if let Some(s) = self.sessions.get(&job.session) {
                h_data.extend_from_slice(s.h.data());
                c_data.extend_from_slice(s.c.data());
            }
        }
        let h = Tensor::from_vec(&[n, hidden], h_data);
        let c = Tensor::from_vec(&[n, hidden], c_data);

        let infer_sp = telemetry::span("serve.infer");
        // Pipeline-level dispatch: the pipeline routes to its precision's
        // forward path (f32 reference or calibrated int8), so sessions
        // inherit the engine's InferenceProfile with no per-call choice.
        let (skeletons, h_new, c_new) = self.pipeline.predict_step(&batch, &h, &c);
        infer_sp.finish();
        telemetry::histogram_with("serve.batch_occupancy", telemetry::SIZE_BUCKETS)
            .observe(n as f64);

        // Mesh reconstruction per batch row, on the pool, order-preserving.
        let mesh_sp = telemetry::span("serve.mesh");
        let mesh = self.pipeline.mesh_reconstructor();
        let rows: Vec<(usize, bool)> =
            jobs.iter().enumerate().map(|(k, j)| (k, j.skip_mesh)).collect();
        let hands = mmhand_parallel::par_map(&rows, |&(k, skip)| {
            if skip {
                return Ok(None);
            }
            let skeleton = &skeletons[k];
            let hand = if mesh.is_fitted() {
                mesh.try_reconstruct(skeleton)?
            } else {
                mesh.try_reconstruct_analytic(skeleton)?
            };
            Ok::<_, PipelineError>(Some(hand))
        });
        mesh_sp.finish();

        // Write back per-session state and results, in batch-row order.
        let mut produced = 0;
        for (k, (job, (skeleton, hand))) in
            jobs.iter().zip(skeletons.into_iter().zip(hands)).enumerate()
        {
            let hand = hand?;
            if let Some(s) = self.sessions.get_mut(&job.session) {
                // The session state tensors are already (1, hidden): copy the
                // batch row in place instead of allocating fresh tensors.
                s.h.data_mut().copy_from_slice(&h_new.data()[k * hidden..(k + 1) * hidden]);
                s.c.data_mut().copy_from_slice(&c_new.data()[k * hidden..(k + 1) * hidden]);
                if job.skip_mesh {
                    s.stats.meshes_skipped += 1;
                    telemetry::counter("serve.mesh_skipped").inc();
                }
                s.results.push_back(FrameResult {
                    session: job.session,
                    segment_index: s.segment_index,
                    skeleton,
                    hand,
                });
                s.segment_index += 1;
                s.stats.segments_out += 1;
                produced += 1;
            }
        }
        telemetry::counter("serve.segments_out").add(produced as u64);
        Ok(produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InferenceProfile;
    use mmhand_core::tiny;

    /// The tiny pipeline and the stream it was calibrated on.
    fn tiny_parts() -> (MmHandPipeline, Vec<RawFrame>) {
        let frames = tiny::stream(1, 21, 12);
        (tiny::pipeline(11, &frames, None).expect("tiny fixture builds"), frames)
    }

    fn engine(cfg: ServeConfig) -> ServeEngine {
        let (pipeline, _frames) = tiny_parts();
        ServeEngine::new(pipeline, cfg).expect("valid config")
    }

    #[test]
    fn admission_control_rejects_past_the_limit() {
        let mut e = engine(ServeConfig::new().max_sessions(2));
        e.open_session().expect("first session");
        e.open_session().expect("second session");
        match e.open_session() {
            Err(ServeError::SessionLimit { max_sessions: 2 }) => {}
            other => panic!("expected SessionLimit, got {other:?}"),
        }
    }

    #[test]
    fn queue_full_is_typed_backpressure() {
        let (pipeline, frames) = tiny_parts();
        let mut e = ServeEngine::new(pipeline, ServeConfig::new().queue_capacity(2))
            .expect("valid config");
        let sid = e.open_session().expect("session opens");
        e.push_frame(sid, frames[0].clone()).expect("frame 1 fits");
        e.push_frame(sid, frames[1].clone()).expect("frame 2 fits");
        match e.push_frame(sid, frames[2].clone()) {
            Err(ServeError::QueueFull { session, capacity: 2 }) => assert_eq!(session, sid),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn unknown_and_evicted_sessions_are_distinguished() {
        let (pipeline, frames) = tiny_parts();
        let mut e =
            ServeEngine::new(pipeline, ServeConfig::new().evict_after_idle_steps(1))
                .expect("valid config");
        assert!(matches!(
            e.push_frame(99, frames[0].clone()),
            Err(ServeError::UnknownSession { session: 99 })
        ));
        let sid = e.open_session().expect("session opens");
        // No frames queued → the first step idles the session past budget 1.
        let report = e.step().expect("step runs");
        assert_eq!(report.evicted, vec![sid]);
        assert!(matches!(
            e.push_frame(sid, frames[0].clone()),
            Err(ServeError::SessionEvicted { session }) if session == sid
        ));
        assert!(matches!(
            e.take_results(sid),
            Err(ServeError::SessionEvicted { .. })
        ));
    }

    #[test]
    fn streams_produce_results_and_close_reports_stats() {
        let (pipeline, frames) = tiny_parts();
        let st = pipeline.builder().config().frames_per_segment;
        let mut e = ServeEngine::new(
            pipeline,
            ServeConfig::new().profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
        )
        .expect("valid config");
        let sid = e.open_session().expect("session opens");
        for f in frames.iter().take(2 * st) {
            e.push_frame(sid, f.clone()).expect("frame accepted");
        }
        let r1 = e.step().expect("step 1");
        assert_eq!(r1.batched, 1);
        let r2 = e.step().expect("step 2");
        assert_eq!(r2.batched, 1);
        let results = e.take_results(sid).expect("results drain");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].segment_index, 0);
        assert_eq!(results[1].segment_index, 1);
        for r in &results {
            assert_eq!(r.skeleton.len(), 63);
            assert!(r.hand.is_none(), "MeshPolicy::Never skips meshes");
        }
        let stats = e.close_session(sid).expect("close");
        assert_eq!(stats.frames_in, (2 * st) as u64);
        assert_eq!(stats.segments_out, 2);
        assert_eq!(stats.meshes_skipped, 2);
    }

    #[test]
    fn profile_precision_must_match_the_pipeline() {
        let (pipeline, _frames) = tiny_parts();
        // Request the opposite precision of whatever the pipeline resolved
        // to; the mismatch must be a typed construction-time error.
        let other = match pipeline.precision() {
            Precision::F32 => Precision::Int8,
            Precision::Int8 => Precision::F32,
        };
        let cfg = ServeConfig::new().profile(InferenceProfile::from_env().precision(other));
        match ServeEngine::new(pipeline, cfg) {
            Err(ServeError::InvalidConfig { field: "profile.precision", reason }) => {
                assert!(reason.contains(other.name()), "{reason}");
            }
            Ok(_) => panic!("mismatched precision must not build"),
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn engine_reports_its_profile() {
        let (pipeline, _frames) = tiny_parts();
        let expected = pipeline.precision();
        let e = engine(ServeConfig::new());
        assert_eq!(e.precision(), expected);
        assert!(matches!(e.kernel_backend(), "scalar" | "simd"));
    }

    #[test]
    fn tombstones_are_a_bounded_ring() {
        let mut t = Tombstones::new(3);
        for id in 1..=5 {
            t.insert(id);
        }
        assert_eq!(t.len(), 3, "ring never exceeds capacity");
        assert!(!t.contains(1) && !t.contains(2), "oldest tombstones are forgotten");
        assert!(t.contains(3) && t.contains(4) && t.contains(5));
        t.insert(4); // re-inserting a remembered id must not churn the ring
        assert_eq!(t.len(), 3);
        assert!(t.contains(3));
    }

    #[test]
    fn eviction_tombstones_stay_bounded_and_degrade_oldest_to_unknown() {
        let (pipeline, frames) = tiny_parts();
        let mut e = ServeEngine::new(
            pipeline,
            ServeConfig::new().evict_after_idle_steps(1).tombstone_capacity(2),
        )
        .expect("valid config");
        let ids: Vec<u64> = (0..3).map(|_| e.open_session().expect("session opens")).collect();
        let report = e.step().expect("step evicts all idle sessions");
        assert_eq!(report.evicted, ids);
        assert_eq!(e.evicted_tombstones(), 2, "ring capped below the eviction count");
        // The two most recent evictions keep the precise error; the oldest
        // degrades to the generic unknown-session error.
        assert!(matches!(
            e.push_frame(ids[0], frames[0].clone()),
            Err(ServeError::UnknownSession { session }) if session == ids[0]
        ));
        for &sid in &ids[1..] {
            assert!(matches!(
                e.push_frame(sid, frames[0].clone()),
                Err(ServeError::SessionEvicted { session }) if session == sid
            ));
        }
    }

    /// Regression test for the low-id scheduling bias: with `max_batch: 1`
    /// and three sessions that are permanently ready, the pre-cursor
    /// scheduler (ascending ids, `take(max_batch)`) served session 1 on
    /// every step and starved 2 and 3 indefinitely. The rotating cursor
    /// must serve all three within three steps.
    #[test]
    fn rotating_cursor_prevents_low_id_starvation() {
        let (pipeline, frames) = tiny_parts();
        let st = pipeline.builder().config().frames_per_segment;
        let mut e = ServeEngine::new(
            pipeline,
            ServeConfig::new()
                .max_batch(1)
                .queue_capacity(8 * st)
                .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
        )
        .expect("valid config");
        let ids: Vec<u64> = (0..3).map(|_| e.open_session().expect("session opens")).collect();
        for _ in 0..3 {
            // Keep every queue topped up with a fresh segment, so all three
            // sessions stay ready on every step.
            for &sid in &ids {
                for f in frames.iter().take(st) {
                    e.push_frame(sid, f.clone()).expect("queue has room");
                }
            }
            assert_eq!(e.step().expect("step runs").batched, 1);
        }
        for (k, &sid) in ids.iter().enumerate() {
            let got = e.take_results(sid).expect("results drain").len();
            assert_eq!(got, 1, "session {k} must be scheduled exactly once in 3 steps");
        }
    }

    #[test]
    fn malformed_frame_geometry_is_a_typed_error() {
        let (pipeline, _frames) = tiny_parts();
        let mut e = ServeEngine::new(pipeline, ServeConfig::new()).expect("valid config");
        let sid = e.open_session().expect("session opens");
        let bad = RawFrame::zeroed(&mmhand_radar::ChirpConfig::default());
        match e.push_frame(sid, bad) {
            Err(ServeError::Pipeline(PipelineError::Radar(_))) => {}
            other => panic!("expected a radar geometry error, got {other:?}"),
        }
    }

    #[test]
    fn full_result_buffer_stalls_scheduling() {
        let (pipeline, frames) = tiny_parts();
        let st = pipeline.builder().config().frames_per_segment;
        let mut e = ServeEngine::new(
            pipeline,
            ServeConfig::new()
                .result_capacity(1)
                .profile(InferenceProfile::from_env().mesh_policy(MeshPolicy::Never)),
        )
        .expect("valid config");
        let sid = e.open_session().expect("session opens");
        for f in frames.iter().take(2 * st) {
            e.push_frame(sid, f.clone()).expect("frame accepted");
        }
        assert_eq!(e.step().expect("step 1").batched, 1);
        // Result buffer now full → session not ready.
        assert_eq!(e.step().expect("step 2").batched, 0);
        assert_eq!(e.take_results(sid).expect("drain").len(), 1);
        assert_eq!(e.step().expect("step 3").batched, 1);
    }
}
