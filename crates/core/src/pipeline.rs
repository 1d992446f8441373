//! The end-to-end mmHand pipeline (paper Fig. 2): raw radar frames →
//! pre-processing → 3-D skeletons → MANO meshes, with the stage timing
//! instrumentation behind the paper's Fig. 26.

use crate::cube::{CubeBuilder, CubeConfig};
use crate::error::PipelineError;
use crate::mesh::{MeshReconstructor, ReconstructedHand};
use crate::precision::Precision;
use crate::train::TrainedModel;
use mmhand_nn::{QuantizedParamStore, Tensor};
use mmhand_radar::RawFrame;
use mmhand_telemetry as telemetry;
use std::sync::Arc;

/// Wall-clock timing of one pipeline invocation.
///
/// This is a thin view derived from the pipeline's telemetry spans
/// (`pipeline.cube_build`, `pipeline.regression`, `pipeline.mesh`): the
/// span durations returned by [`mmhand_telemetry::Span::finish`] are the
/// single source of truth, and the same measurements land in the global
/// metrics registry for the bench runner's exports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTiming {
    /// Radar-cube construction time (pre-processing), ms.
    pub cube_ms: f64,
    /// Joint-regression (network forward) time, ms.
    pub regress_ms: f64,
    /// Pre-processing + joint regression time (skeleton stage), ms.
    pub skeleton_ms: f64,
    /// Mesh-reconstruction time, ms.
    pub mesh_ms: f64,
}

impl StageTiming {
    /// Builds the view from span durations in nanoseconds.
    pub fn from_span_ns(cube_ns: u64, regress_ns: u64, mesh_ns: u64) -> Self {
        let cube_ms = cube_ns as f64 / 1e6;
        let regress_ms = regress_ns as f64 / 1e6;
        StageTiming {
            cube_ms,
            regress_ms,
            skeleton_ms: cube_ms + regress_ms,
            mesh_ms: mesh_ns as f64 / 1e6,
        }
    }

    /// Total pipeline time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.skeleton_ms + self.mesh_ms
    }
}

/// One pipeline result: skeletons and meshes for a window of frames.
#[derive(Debug)]
pub struct PipelineOutput {
    /// One flat 63-float skeleton per segment in the window.
    pub skeletons: Vec<Vec<f32>>,
    /// One reconstructed hand per skeleton.
    pub hands: Vec<ReconstructedHand>,
    /// Stage timings for this invocation.
    pub timing: StageTiming,
}

/// The full estimator: cube builder + trained regressor + mesh module.
///
/// Cloning deep-copies the trained parameters and mesh module and shares
/// the cube builder's cached FFT/zoom plans (they are `Arc`-backed), which
/// is how `mmhand-serve` materialises one independent pipeline per shard
/// from a single training run.
#[derive(Clone)]
pub struct MmHandPipeline {
    builder: CubeBuilder,
    model: TrainedModel,
    mesh: MeshReconstructor,
    /// Numeric path of the forward pass; [`Precision::Int8`] requires
    /// `quant` to be populated (enforced by [`PipelineBuilder::build`]).
    precision: Precision,
    /// Int8 parameter copies, shared (`Arc`) across pipeline clones —
    /// serve shards quantize once, not per shard.
    quant: Option<Arc<QuantizedParamStore>>,
}

impl MmHandPipeline {
    /// Starts a [`PipelineBuilder`], the one way to assemble a pipeline.
    pub fn builder_for(model: TrainedModel) -> PipelineBuilder {
        PipelineBuilder {
            model,
            cube: None,
            mesh: None,
            mesh_seed: 0,
            precision: None,
            quant: None,
            calibration: Vec::new(),
        }
    }

    /// The cube builder (e.g. to inspect configuration).
    pub fn builder(&self) -> &CubeBuilder {
        &self.builder
    }

    /// The trained regressor.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The mesh reconstructor.
    pub fn mesh_reconstructor(&self) -> &MeshReconstructor {
        &self.mesh
    }

    /// The numeric path this pipeline's forward passes run on.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The int8 parameter store, when this pipeline was calibrated.
    pub fn quantized(&self) -> Option<&Arc<QuantizedParamStore>> {
        self.quant.as_ref()
    }

    /// Predicts joints for a sequence of segments on this pipeline's
    /// [`Precision`] — the precision-dispatching counterpart of
    /// [`TrainedModel::predict_sequence`].
    pub fn predict_sequence(&self, segments: &[Tensor]) -> Vec<Vec<f32>> {
        match (self.precision, &self.quant) {
            (Precision::Int8, Some(q)) => {
                self.model.predict_sequence_quantized(q.clone(), segments)
            }
            _ => self.model.predict_sequence(segments),
        }
    }

    /// Predicts one streamed segment batch from explicit LSTM state on this
    /// pipeline's [`Precision`] — the precision-dispatching counterpart of
    /// [`TrainedModel::predict_step`]; `mmhand-serve` micro-batches through
    /// this so every session inherits the pipeline's precision.
    pub fn predict_step(
        &self,
        segment: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Vec<Vec<f32>>, Tensor, Tensor) {
        match (self.precision, &self.quant) {
            (Precision::Int8, Some(q)) => {
                self.model.predict_step_quantized(q.clone(), segment, h, c)
            }
            _ => self.model.predict_step(segment, h, c),
        }
    }

    /// Converts raw frames into per-segment input tensors. Frames that do
    /// not fill a whole segment are dropped.
    ///
    /// The window's frames are independent, so their cubes are built one
    /// task per frame on the `mmhand-parallel` pool; `par_map` keeps frame
    /// order, so the segments are identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first frame-geometry violation in frame order.
    pub fn try_frames_to_segments(
        &mut self,
        frames: &[RawFrame],
    ) -> Result<Vec<Tensor>, PipelineError> {
        let builder = &self.builder;
        let st = builder.config().frames_per_segment;
        let whole = &frames[..frames.len() / st * st];
        let cubes = mmhand_parallel::par_map(whole, |f| builder.try_process_frame(f))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        cubes.chunks_exact(st).map(|seg| builder.try_segment_tensor(seg)).collect()
    }

    /// Regresses skeletons only (no meshes) with timing.
    ///
    /// Timing comes from telemetry spans (`pipeline.cube_build`,
    /// `pipeline.regression`); the same durations are recorded into the
    /// global metrics registry.
    ///
    /// # Errors
    ///
    /// Returns the first frame-geometry violation.
    pub fn try_estimate_skeletons(
        &mut self,
        frames: &[RawFrame],
    ) -> Result<(Vec<Vec<f32>>, StageTiming), PipelineError> {
        telemetry::counter("pipeline.invocations").inc();
        let sp = telemetry::span("pipeline.cube_build");
        let segments = self.try_frames_to_segments(frames)?;
        let cube_ns = sp.finish();
        let sp = telemetry::span("pipeline.regression");
        let skeletons = if segments.is_empty() {
            Vec::new()
        } else {
            self.predict_sequence(&segments)
        };
        let regress_ns = sp.finish();
        telemetry::counter("pipeline.segments").add(skeletons.len() as u64);
        Ok((skeletons, StageTiming::from_span_ns(cube_ns, regress_ns, 0)))
    }

    /// Full pipeline: skeletons plus reconstructed meshes.
    ///
    /// Uses the fitted mesh networks when available, the analytic IK path
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the first frame-geometry or skeleton-shape violation.
    pub fn try_estimate(&mut self, frames: &[RawFrame]) -> Result<PipelineOutput, PipelineError> {
        let (skeletons, timing) = self.try_estimate_skeletons(frames)?;
        let sp = telemetry::span("pipeline.mesh");
        let hands = skeletons
            .iter()
            .map(|s| {
                if self.mesh.is_fitted() {
                    self.mesh.try_reconstruct(s)
                } else {
                    self.mesh.try_reconstruct_analytic(s)
                }
            })
            .collect::<Result<Vec<ReconstructedHand>, _>>()?;
        let mesh_ns = sp.finish();
        let mut timing = timing;
        timing.mesh_ms = mesh_ns as f64 / 1e6;
        Ok(PipelineOutput { skeletons, hands, timing })
    }
}

/// The one way to assemble an [`MmHandPipeline`]: fallible and validating.
///
/// The builder cross-checks that the cube geometry and the trained model's
/// architecture agree (segment channels, range bins, angle bins), so a
/// mismatched pairing is rejected at build time instead of panicking deep
/// inside the first forward pass. This is the one check of graph shapes
/// against the input geometry: the tape's graph builders have no fallible
/// form and panic on a shape mismatch, which a built pipeline cannot meet.
///
/// # Examples
///
/// ```no_run
/// # fn doc(model: mmhand_core::TrainedModel) -> Result<(), mmhand_core::PipelineError> {
/// use mmhand_core::{CubeConfig, MmHandPipeline};
///
/// let pipeline = MmHandPipeline::builder_for(model)
///     .cube_config(CubeConfig::default())
///     .mesh_seed(0)
///     .build()?;
/// # let _ = pipeline; Ok(())
/// # }
/// ```
pub struct PipelineBuilder {
    model: TrainedModel,
    cube: Option<CubeConfig>,
    mesh: Option<MeshReconstructor>,
    mesh_seed: u64,
    precision: Option<Precision>,
    quant: Option<Arc<QuantizedParamStore>>,
    calibration: Vec<Tensor>,
}

impl PipelineBuilder {
    /// Sets the cube geometry (defaults to [`CubeConfig::default`]).
    pub fn cube_config(mut self, cube: CubeConfig) -> Self {
        self.cube = Some(cube);
        self
    }

    /// Supplies an already-constructed (possibly fitted) mesh
    /// reconstructor.
    pub fn mesh(mut self, mesh: MeshReconstructor) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Seed for the default (unfitted, analytic-path) mesh reconstructor;
    /// ignored when [`PipelineBuilder::mesh`] was called.
    pub fn mesh_seed(mut self, seed: u64) -> Self {
        self.mesh_seed = seed;
        self
    }

    /// Pins the inference precision explicitly. When not called, the
    /// documented `MMHAND_PRECISION` env fallback fills the default.
    ///
    /// An **explicit** [`Precision::Int8`] requires calibration material —
    /// [`PipelineBuilder::quantized`] or
    /// [`PipelineBuilder::calibration_segments`] — and
    /// [`PipelineBuilder::build`] rejects the configuration otherwise. An
    /// env-requested int8 without calibration instead downgrades to f32
    /// with a note on stderr, so blanket `MMHAND_PRECISION=int8` test runs
    /// don't break pipelines that never calibrated.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = Some(p);
        self
    }

    /// Supplies an already-built int8 parameter store (e.g. shared with
    /// another pipeline over the same trained model).
    pub fn quantized(mut self, q: Arc<QuantizedParamStore>) -> Self {
        self.quant = Some(q);
        self
    }

    /// Supplies calibration segments; [`PipelineBuilder::build`] runs
    /// [`TrainedModel::calibrate_int8`] over them when the resolved
    /// precision is [`Precision::Int8`] and no store was supplied via
    /// [`PipelineBuilder::quantized`].
    pub fn calibration_segments(mut self, segments: Vec<Tensor>) -> Self {
        self.calibration = segments;
        self
    }

    /// Validates the configuration and assembles the pipeline.
    ///
    /// # Errors
    ///
    /// Returns the first cube-configuration violation, or
    /// [`PipelineError::InvalidConfig`] when the cube geometry and the
    /// model architecture disagree.
    pub fn build(self) -> Result<MmHandPipeline, PipelineError> {
        let cube_cfg = self.cube.unwrap_or_default();
        let builder = CubeBuilder::try_new(cube_cfg)?;
        let cfg = builder.config();
        let model_cfg = &self.model.model.config;
        let invalid = |field: &'static str, reason: String| {
            Err(PipelineError::InvalidConfig { field, reason })
        };
        if model_cfg.input_channels() != cfg.segment_channels() {
            return invalid(
                "model.input_channels",
                format!(
                    "model expects {} segment channels, cube produces {}",
                    model_cfg.input_channels(),
                    cfg.segment_channels()
                ),
            );
        }
        if model_cfg.range_bins != cfg.range_bins {
            return invalid(
                "model.range_bins",
                format!("model expects {}, cube produces {}", model_cfg.range_bins, cfg.range_bins),
            );
        }
        if model_cfg.angle_bins != cfg.angle_bins() {
            return invalid(
                "model.angle_bins",
                format!("model expects {}, cube produces {}", model_cfg.angle_bins, cfg.angle_bins()),
            );
        }
        let mesh = match self.mesh {
            Some(m) => m,
            None => MeshReconstructor::new(self.mesh_seed),
        };
        // Precision: explicit setting wins; the documented MMHAND_PRECISION
        // env fallback fills the default otherwise.
        let explicit = self.precision.is_some();
        let requested = self.precision.unwrap_or_else(Precision::env_fallback);
        let (precision, quant) = match requested {
            Precision::F32 => (Precision::F32, None),
            Precision::Int8 => {
                let store = match self.quant {
                    Some(q) => Some(q),
                    None if !self.calibration.is_empty() => {
                        Some(Arc::new(self.model.calibrate_int8(&self.calibration)))
                    }
                    None => None,
                };
                match store {
                    Some(q) if !q.is_empty() => (Precision::Int8, Some(q)),
                    _ if explicit => {
                        return invalid(
                            "precision",
                            "int8 requires calibration: supply a quantized store or \
                             calibration segments"
                                .to_string(),
                        );
                    }
                    _ => {
                        eprintln!(
                            "mmhand-core: MMHAND_PRECISION=int8 but the pipeline has no \
                             calibration material; running f32"
                        );
                        (Precision::F32, None)
                    }
                }
            }
        };
        Ok(MmHandPipeline { builder, model: self.model, mesh, precision, quant })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeConfig;
    use crate::eval::{try_build_cohort, DataConfig};
    use crate::model::ModelConfig;
    use crate::train::{TrainConfig, Trainer};
    use mmhand_hand::gesture::Gesture;
    use mmhand_hand::trajectory::GestureTrack;
    use mmhand_hand::user::UserProfile;
    use mmhand_math::Vec3;
    use mmhand_radar::capture::{record_session, CaptureConfig};
    use mmhand_radar::{ChirpConfig, Environment};

    fn tiny_pipeline() -> (MmHandPipeline, Vec<mmhand_radar::RawFrame>) {
        let chirp = ChirpConfig { chirps_per_tx: 8, samples_per_chirp: 32, ..Default::default() };
        let cube = CubeConfig {
            chirp,
            range_bins: 8,
            doppler_bins: 4,
            azimuth_bins: 4,
            elevation_bins: 4,
            frames_per_segment: 2,
            range_max_m: 0.55,
            ..Default::default()
        };
        let data = DataConfig {
            users: 2,
            frames_per_user: 16,
            gestures_per_track: 2,
            seq_len: 2,
            capture: CaptureConfig {
                chirp,
                environment: Environment::Playground,
                noise_sigma: 0.005,
                ..Default::default()
            },
            cube: cube.clone(),
            seed: 3,
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
        let pipeline = MmHandPipeline::builder_for(model)
            .cube_config(cube)
            .mesh(crate::mesh::MeshReconstructor::new(0))
            .build()
            .unwrap();
        // A fresh capture to run inference on.
        let user = UserProfile::generate(1, 3);
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm, Gesture::Victory],
            Vec3::new(0.0, 0.3, 0.0),
            0.3,
            0.3,
        );
        let session = record_session(
            &user,
            &track,
            8,
            &CaptureConfig { chirp, noise_sigma: 0.005, ..Default::default() },
        );
        (pipeline, session.frames)
    }

    #[test]
    fn pipeline_produces_skeletons_and_meshes() {
        let (mut pipeline, frames) = tiny_pipeline();
        let out = pipeline.try_estimate(&frames).unwrap();
        assert_eq!(out.skeletons.len(), 4); // 8 frames / 2 per segment
        assert_eq!(out.hands.len(), 4);
        for s in &out.skeletons {
            assert_eq!(s.len(), 63);
            assert!(s.iter().all(|v| v.is_finite()));
        }
        for h in &out.hands {
            assert!(!h.mesh.vertices.is_empty());
        }
        assert!(out.timing.skeleton_ms > 0.0);
        assert!(out.timing.mesh_ms > 0.0);
        assert!(out.timing.total_ms() >= out.timing.skeleton_ms);
    }

    #[test]
    fn skeleton_only_path_skips_mesh_time() {
        let (mut pipeline, frames) = tiny_pipeline();
        let (skeletons, timing) = pipeline.try_estimate_skeletons(&frames).unwrap();
        assert_eq!(skeletons.len(), 4);
        assert_eq!(timing.mesh_ms, 0.0);
    }

    #[test]
    fn empty_input_is_safe() {
        let (mut pipeline, _) = tiny_pipeline();
        let out = pipeline.try_estimate(&[]).unwrap();
        assert!(out.skeletons.is_empty());
        assert!(out.hands.is_empty());
    }

    #[test]
    fn stage_timing_is_a_view_over_spans() {
        let (mut pipeline, frames) = tiny_pipeline();
        let out = pipeline.try_estimate(&frames).unwrap();
        let t = out.timing;
        // The skeleton stage is exactly the sum of its two spans.
        assert!((t.cube_ms + t.regress_ms - t.skeleton_ms).abs() < 1e-9);
        assert!(t.cube_ms > 0.0 && t.regress_ms > 0.0);
        // The same spans landed in the global registry.
        let snap = mmhand_telemetry::snapshot();
        for name in ["pipeline.cube_build", "pipeline.regression", "pipeline.mesh"] {
            let h = snap
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h)
                .expect("span histogram registered");
            assert!(h.count >= 1, "{name} recorded at least one span");
            assert!(h.sum >= 0.0);
        }
    }

    #[test]
    fn from_span_ns_converts_to_ms() {
        let t = StageTiming::from_span_ns(1_500_000, 500_000, 3_000_000);
        assert!((t.cube_ms - 1.5).abs() < 1e-12);
        assert!((t.regress_ms - 0.5).abs() < 1e-12);
        assert!((t.skeleton_ms - 2.0).abs() < 1e-12);
        assert!((t.mesh_ms - 3.0).abs() < 1e-12);
        assert!((t.total_ms() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn partial_segment_is_dropped() {
        let (mut pipeline, frames) = tiny_pipeline();
        let out = pipeline.try_estimate(&frames[..3]).unwrap(); // 1.5 segments
        assert_eq!(out.skeletons.len(), 1);
    }

    /// Rebuilds `pipeline`'s parts through the builder at int8, calibrated
    /// on its own inference segments.
    fn quantize_pipeline(
        pipeline: &mut MmHandPipeline,
        frames: &[mmhand_radar::RawFrame],
    ) -> MmHandPipeline {
        let segments = pipeline.try_frames_to_segments(frames).unwrap();
        MmHandPipeline::builder_for(pipeline.model().clone())
            .cube_config(pipeline.builder().config().clone())
            .precision(crate::precision::Precision::Int8)
            .calibration_segments(segments)
            .build()
            .expect("calibrated int8 pipeline builds")
    }

    #[test]
    fn quantized_pipeline_tracks_f32() {
        let (mut pipeline, frames) = tiny_pipeline();
        let mut quantized = quantize_pipeline(&mut pipeline, &frames);
        assert_eq!(quantized.precision(), crate::precision::Precision::Int8);
        assert!(quantized.quantized().is_some());

        let (f32_out, _) = pipeline.try_estimate_skeletons(&frames).unwrap();
        let (int8_out, _) = quantized.try_estimate_skeletons(&frames).unwrap();
        assert_eq!(f32_out.len(), int8_out.len());
        let mut worst = 0.0f32;
        let (mut sum, mut count) = (0.0f64, 0u64);
        for (a, b) in f32_out.iter().zip(&int8_out) {
            assert!(b.iter().all(|v| v.is_finite()));
            for (x, y) in a.iter().zip(b) {
                let d = (x - y).abs();
                worst = worst.max(d);
                sum += d as f64;
                count += 1;
            }
        }
        // Joint coordinates are metres. On this deliberately tiny, barely
        // trained model the LSTM recurrence amplifies quantization noise,
        // so the bound here is coarse; the tight mean-joint-error epsilon
        // against the reference model is `exp_quant`'s accuracy gate.
        let mean = sum / count as f64;
        assert!(mean < 0.005, "mean joint deviation {mean} m");
        assert!(worst < 0.05, "worst joint deviation {worst} m");
    }

    /// Asserts that stepping `pipeline` segment by segment from zero LSTM
    /// state reproduces its whole-sequence prediction bit for bit. The
    /// sequence path runs one tape per segment plus one for the temporal
    /// model; the step path runs one tape per step.
    fn assert_step_matches_sequence(pipeline: &MmHandPipeline, segments: &[Tensor]) {
        let batch = pipeline.predict_sequence(segments);
        let hidden = pipeline.model().lstm_hidden();
        let mut h = Tensor::zeros(&[1, hidden]);
        let mut c = Tensor::zeros(&[1, hidden]);
        for (t, seg) in segments.iter().enumerate() {
            let mut shape = vec![1];
            shape.extend_from_slice(seg.shape());
            let stepped = seg.reshaped(&shape);
            let (skels, h2, c2) = pipeline.predict_step(&stepped, &h, &c);
            h = h2;
            c = c2;
            for (a, b) in batch[t].iter().zip(&skels[0]) {
                assert_eq!(a.to_bits(), b.to_bits(), "step {t}");
            }
        }
    }

    #[test]
    fn quantized_step_matches_quantized_sequence_bitwise() {
        // The serve identity contract, per precision: streaming step-wise
        // int8 inference equals batch int8 inference bitwise.
        let (mut pipeline, frames) = tiny_pipeline();
        let quantized = quantize_pipeline(&mut pipeline, &frames);
        let segments = pipeline.try_frames_to_segments(&frames).unwrap();
        assert_step_matches_sequence(&quantized, &segments);
    }

    #[test]
    fn f32_step_matches_f32_sequence_bitwise() {
        let (mut pipeline, frames) = tiny_pipeline();
        assert_eq!(pipeline.precision(), crate::precision::Precision::F32);
        let segments = pipeline.try_frames_to_segments(&frames).unwrap();
        assert_step_matches_sequence(&pipeline, &segments);
    }

    #[test]
    fn explicit_int8_without_calibration_is_a_typed_error() {
        let (pipeline, _) = tiny_pipeline();
        let Err(err) = MmHandPipeline::builder_for(pipeline.model().clone())
            .cube_config(pipeline.builder().config().clone())
            .precision(crate::precision::Precision::Int8)
            .build()
        else {
            panic!("uncalibrated explicit int8 must not build");
        };
        match err {
            PipelineError::InvalidConfig { field, reason } => {
                assert_eq!(field, "precision");
                assert!(reason.contains("calibration"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
