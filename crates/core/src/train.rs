//! Training and inference for the joint-regression model.
//!
//! [`Trainer`] reproduces the paper's §VI-A training configuration — Adam
//! at 1e-3 with cosine decay — scaled to the CPU-sized datasets of this
//! reproduction (epoch counts are configurable).

use crate::dataset::{make_batches, SegmentSequence};
use crate::error::PipelineError;
use crate::loss::{combined_loss, LossWeights};
use crate::metrics::JointErrors;
use crate::model::{MmHandModel, ModelConfig, OUTPUT_DIM};
use mmhand_math::rng::stream_rng;
use mmhand_nn::{
    Adam, Calibrator, CosineSchedule, ParamStore, QuantizedParamStore, Tape, Tensor, Var,
};
use mmhand_telemetry as telemetry;
use std::sync::Arc;

/// Training hyper-parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Training epochs (the paper uses 500 on GPU; scaled defaults here).
    pub epochs: usize,
    /// Mini-batch size (the paper's is 16).
    pub batch_size: usize,
    /// Initial learning rate (the paper uses 1e-3 on GPU-scale batches;
    /// our CPU-scale runs default higher to converge in fewer epochs).
    pub base_lr: f32,
    /// Loss weights β, γ.
    pub weights: LossWeights,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            batch_size: 8,
            base_lr: 3e-3,
            weights: LossWeights::default(),
            clip_norm: 5.0,
            seed: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Mean total loss over the epoch.
    pub loss: f32,
    /// Mean 3-D loss component.
    pub l3d: f32,
    /// Mean kinematic loss component.
    pub lkine: f32,
    /// Learning rate used.
    pub lr: f32,
}

/// Converts a flat 63-float skeleton to wrist-relative encoding in place:
/// joints 1..20 become offsets from the wrist (joint 0 stays absolute).
///
/// The network learns articulation much faster in this encoding because the
/// hand's global position variance no longer couples into every finger
/// dimension; [`to_absolute`] inverts it. The kinematic loss is invariant
/// to the choice (it only uses differences between non-wrist joints).
pub fn to_relative(flat: &mut [f32]) {
    let (wx, wy, wz) = (flat[0], flat[1], flat[2]);
    for j in 1..21 {
        flat[3 * j] -= wx;
        flat[3 * j + 1] -= wy;
        flat[3 * j + 2] -= wz;
    }
}

/// Inverse of [`to_relative`].
pub fn to_absolute(flat: &mut [f32]) {
    let (wx, wy, wz) = (flat[0], flat[1], flat[2]);
    for j in 1..21 {
        flat[3 * j] += wx;
        flat[3 * j + 1] += wy;
        flat[3 * j + 2] += wz;
    }
}

/// A trained mmHand joint regressor.
#[derive(Clone)]
pub struct TrainedModel {
    /// The network definition.
    pub model: MmHandModel,
    /// Its parameters.
    pub store: ParamStore,
    /// Loss history, one entry per epoch.
    pub history: Vec<EpochStats>,
}

impl TrainedModel {
    /// Predicts joints for a sequence of `(st·V, D, A)` segments.
    /// Returns one flat 63-float skeleton (metres) per step.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn predict_sequence(&self, segments: &[Tensor]) -> Vec<Vec<f32>> {
        self.predict_sequence_on(None, segments)
    }

    /// [`predict_sequence`](Self::predict_sequence) on the int8 path: the
    /// same graph, but matmuls against parameters present in `q` run
    /// quantized (i8×i8→i32, dequantized at the output).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn predict_sequence_quantized(
        &self,
        q: Arc<QuantizedParamStore>,
        segments: &[Tensor],
    ) -> Vec<Vec<f32>> {
        self.predict_sequence_on(Some(q), segments)
    }

    /// The sequence forward pass of [`MmHandModel::forward`], split at the
    /// spatial features: the segments' mmSpaceNet passes are independent,
    /// so each runs on its own tape as one `mmhand-parallel` task (int8
    /// tapes share `q`). The features come back in segment order and enter
    /// the temporal model's tape as leaves holding the same values, so the
    /// LSTM and head see exactly the inputs of the one-tape graph and the
    /// skeletons are bitwise equal to it at any thread count.
    fn predict_sequence_on(
        &self,
        q: Option<Arc<QuantizedParamStore>>,
        segments: &[Tensor],
    ) -> Vec<Vec<f32>> {
        assert!(!segments.is_empty(), "need at least one segment");
        let new_tape = || q.clone().map_or_else(Tape::new, Tape::with_quantized);
        let features = mmhand_parallel::par_map(segments, |s| {
            let mut tape = new_tape();
            let mut shape = vec![1];
            shape.extend_from_slice(s.shape());
            let x = tape.leaf(s.reshaped(&shape));
            let feature = self.model.spacenet.forward(&mut tape, &self.store, x);
            tape.value(feature).clone()
        });
        let mut tape = new_tape();
        let feats: Vec<Var> = features.into_iter().map(|f| tape.leaf(f)).collect();
        let outs = self.model.temporal.forward(&mut tape, &self.store, &feats);
        outs.into_iter()
            .map(|o| {
                let mut flat = tape.value(o).data().to_vec();
                to_absolute(&mut flat);
                flat
            })
            .collect()
    }

    /// Predicts joints for one streamed segment batch from explicit LSTM
    /// state. `segment` is `(N, st·V, D, A)`; `h`/`c` are `(N, hidden)`
    /// state tensors (zeros at stream start). Returns one flat 63-float
    /// skeleton per batch row plus the advanced state.
    ///
    /// Every op in the forward pass treats batch rows independently and
    /// accumulates in an order that does not depend on `N`, so micro-batching
    /// concurrent streams through this reproduces each stream's solo
    /// [`predict_sequence`](Self::predict_sequence) output bitwise.
    pub fn predict_step(
        &self,
        segment: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Vec<Vec<f32>>, Tensor, Tensor) {
        self.predict_step_on(Tape::new(), segment, h, c)
    }

    /// [`predict_step`](Self::predict_step) on the int8 path. Quantization
    /// is element-wise and row-independent, so the batched-vs-sequential
    /// bitwise identity holds on this path exactly as on f32 — *within* a
    /// precision, never across.
    pub fn predict_step_quantized(
        &self,
        q: Arc<QuantizedParamStore>,
        segment: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Vec<Vec<f32>>, Tensor, Tensor) {
        self.predict_step_on(Tape::with_quantized(q), segment, h, c)
    }

    fn predict_step_on(
        &self,
        mut tape: Tape,
        segment: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Vec<Vec<f32>>, Tensor, Tensor) {
        let hv = tape.leaf(h.clone());
        let cv = tape.leaf(c.clone());
        let (out, h_new, c_new) =
            self.model.forward_step(&mut tape, &self.store, segment, hv, cv);
        let n = segment.shape()[0];
        let flat = tape.value(out).data();
        let skeletons = (0..n)
            .map(|k| {
                let mut row = flat[k * OUTPUT_DIM..(k + 1) * OUTPUT_DIM].to_vec();
                to_absolute(&mut row);
                row
            })
            .collect();
        (skeletons, tape.value(h_new).clone(), tape.value(c_new).clone())
    }

    /// LSTM hidden size, for allocating stream state.
    pub fn lstm_hidden(&self) -> usize {
        self.model.config.lstm_hidden
    }

    /// Builds the post-training int8 parameter store from calibration
    /// segments: runs one f32 forward pass shaped exactly like
    /// [`predict_sequence`](Self::predict_sequence), harvests the
    /// activations every matmul weight saw, and quantizes those weights
    /// with per-channel scales (see `mmhand_nn::quant` for the scheme).
    /// Returns an empty store when `segments` is empty — callers treat
    /// that as "not calibrated".
    pub fn calibrate_int8(&self, segments: &[Tensor]) -> QuantizedParamStore {
        let mut cal = Calibrator::new();
        if !segments.is_empty() {
            let batched: Vec<Tensor> = segments
                .iter()
                .map(|s| {
                    let mut shape = vec![1];
                    shape.extend_from_slice(s.shape());
                    s.reshaped(&shape)
                })
                .collect();
            let mut tape = Tape::new();
            let _ = self.model.forward(&mut tape, &self.store, &batched);
            tape.observe_param_matmuls(|id, x| cal.observe(id, x));
        }
        cal.finish(&self.store)
    }

    /// Evaluates on sequences, accumulating per-joint errors.
    pub fn evaluate(&self, sequences: &[SegmentSequence]) -> JointErrors {
        let mut errors = JointErrors::new();
        for seq in sequences {
            let preds = self.predict_sequence(&seq.segments);
            for (pred, truth) in preds.iter().zip(&seq.labels) {
                errors.push_flat(pred, truth);
            }
        }
        errors
    }

    /// [`evaluate`](Self::evaluate) on the int8 path — the accuracy oracle
    /// for the quantization gate: int8 joint errors on a seeded eval set
    /// must stay within a fixed epsilon of the f32 numbers.
    pub fn evaluate_quantized(
        &self,
        q: &Arc<QuantizedParamStore>,
        sequences: &[SegmentSequence],
    ) -> JointErrors {
        let mut errors = JointErrors::new();
        for seq in sequences {
            let preds = self.predict_sequence_quantized(q.clone(), &seq.segments);
            for (pred, truth) in preds.iter().zip(&seq.labels) {
                errors.push_flat(pred, truth);
            }
        }
        errors
    }

    /// Evaluates with root alignment: the predicted wrist is translated
    /// onto the ground-truth wrist before scoring, isolating articulation
    /// error from absolute localisation error (the standard root-aligned
    /// MPJPE protocol). Useful for sweeps where localisation saturates.
    pub fn evaluate_root_aligned(&self, sequences: &[SegmentSequence]) -> JointErrors {
        let mut errors = JointErrors::new();
        for seq in sequences {
            let preds = self.predict_sequence(&seq.segments);
            for (pred, truth) in preds.iter().zip(&seq.labels) {
                let mut aligned = pred.clone();
                let (dx, dy, dz) = (
                    truth[0] - pred[0],
                    truth[1] - pred[1],
                    truth[2] - pred[2],
                );
                for j in 0..21 {
                    aligned[3 * j] += dx;
                    aligned[3 * j + 1] += dy;
                    aligned[3 * j + 2] += dz;
                }
                errors.push_flat(&aligned, truth);
            }
        }
        errors
    }

    /// Evaluates per user id, returning `(user_id, errors)` pairs sorted by
    /// user id.
    pub fn evaluate_per_user(&self, sequences: &[SegmentSequence]) -> Vec<(usize, JointErrors)> {
        let mut users: Vec<usize> = sequences.iter().map(|s| s.user_id).collect();
        users.sort_unstable();
        users.dedup();
        users
            .into_iter()
            .map(|u| {
                let subset: Vec<SegmentSequence> = sequences
                    .iter()
                    .filter(|s| s.user_id == u)
                    .cloned()
                    .collect();
                (u, self.evaluate(&subset))
            })
            .collect()
    }
}

/// Samples per data-parallel training micro-shard.
///
/// Each mini-batch is split along the sample axis into shards of this fixed
/// size, which run forward/backward concurrently on the [`mmhand_parallel`]
/// pool. The shard size is deliberately independent of the thread count and
/// the per-shard gradients are reduced in ascending shard order, so training
/// results are identical for any `MMHAND_THREADS` setting.
const TRAIN_SHARD: usize = 2;

/// Copies rows `lo..hi` (along the leading axis) of a batched tensor.
fn slice_rows(t: &Tensor, lo: usize, hi: usize) -> Tensor {
    let mut shape = t.shape().to_vec();
    let row: usize = shape[1..].iter().product();
    shape[0] = hi - lo;
    Tensor::from_vec(&shape, t.data()[lo * row..hi * row].to_vec())
}

/// Per-shard result of a forward/backward pass: the shard's mean loss and
/// component values plus its parameter gradients in tape order.
struct ShardGrad {
    loss: f32,
    l3d: f32,
    lkine: f32,
    grads: Vec<(mmhand_nn::ParamId, Tensor)>,
}

/// Trains an [`MmHandModel`] on a set of sequences.
pub struct Trainer {
    /// Architecture configuration.
    pub model_config: ModelConfig,
    /// Optimisation configuration.
    pub train_config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(model_config: ModelConfig, train_config: TrainConfig) -> Self {
        Trainer { model_config, train_config }
    }

    /// Runs training and returns the fitted model.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::EmptyInput`] when the dataset is empty or
    /// any sequence holds zero segments — the silent-truncation hazard
    /// where an undersized frame window drops every segment and a sweep
    /// would otherwise abort mid-run — and
    /// [`PipelineError::MismatchedSequenceLength`] when the sequences do not
    /// all share one length (batches stack them step by step).
    pub fn try_train(&self, sequences: &[SegmentSequence]) -> Result<TrainedModel, PipelineError> {
        if sequences.is_empty() {
            return Err(PipelineError::EmptyInput { what: "training sequences" });
        }
        if sequences.iter().any(|s| s.is_empty()) {
            return Err(PipelineError::EmptyInput { what: "segments in a training sequence" });
        }
        let seq_len = sequences[0].len();
        if let Some(s) = sequences.iter().find(|s| s.len() != seq_len) {
            let got = s.len();
            return Err(PipelineError::MismatchedSequenceLength { expected: seq_len, got });
        }
        let tc = &self.train_config;
        // Train in the wrist-relative label encoding (see [`to_relative`]).
        let sequences: Vec<SegmentSequence> = sequences
            .iter()
            .map(|s| {
                let mut s = s.clone();
                for l in &mut s.labels {
                    to_relative(l);
                }
                s
            })
            .collect();
        let sequences = &sequences[..];
        let mut init_rng = stream_rng(tc.seed, "model-init");
        let mut store = ParamStore::new();
        let model = MmHandModel::new(&mut store, self.model_config.clone(), &mut init_rng);

        // Start the output heads at the mean training pose: the labels sit
        // tens of centimetres from the origin, and learning that DC offset
        // through the trunk would waste most of a short training budget.
        let mean_pose = mean_pose_baseline(sequences);
        for id in model.temporal.head_bias_ids() {
            store.value_mut(id).data_mut().copy_from_slice(&mean_pose);
        }

        let steps_per_epoch =
            sequences.len().div_ceil(tc.batch_size).max(1) as u64;
        let schedule = CosineSchedule::new(tc.base_lr, steps_per_epoch * tc.epochs as u64);
        let mut adam = Adam::new(tc.base_lr);
        let mut shuffle_rng = stream_rng(tc.seed, "shuffle");
        let mut history = Vec::with_capacity(tc.epochs);
        let mut step: u64 = 0;

        // Telemetry handles resolved once, outside the hot loop. Values only
        // flow *into* the metrics registry, never back into training, so the
        // run stays bit-for-bit deterministic.
        let m_epochs = telemetry::counter("train.epochs");
        let m_sequences = telemetry::counter("train.sequences");
        let m_loss = telemetry::gauge("train.loss");
        let m_l3d = telemetry::gauge("train.loss_3d");
        let m_lkine = telemetry::gauge("train.loss_kine");
        let m_grad_norm = telemetry::gauge("train.grad_norm");
        let m_lr = telemetry::gauge("train.lr");
        let m_throughput = telemetry::gauge("train.seq_per_s");

        for _epoch in 0..tc.epochs {
            let epoch_span = telemetry::span("train.epoch_time");
            let batches = make_batches(sequences, tc.batch_size, &mut shuffle_rng);
            let mut epoch_loss = 0.0;
            let mut epoch_l3d = 0.0;
            let mut epoch_lk = 0.0;
            let mut lr_used = tc.base_lr;
            let mut last_grad_norm = 0.0_f32;
            let mut epoch_sequences = 0u64;
            for batch in &batches {
                store.zero_grad();
                // Split the batch along the sample axis into fixed-size
                // micro-shards and run forward/backward for each shard on
                // the pool. The per-sample loss terms are row-independent
                // (the mean over the batch is a weighted mean of per-shard
                // means), so sharding only reassociates the reduction.
                let n = batch.batch_size();
                let bounds: Vec<(usize, usize)> = (0..n)
                    .step_by(TRAIN_SHARD)
                    .map(|lo| (lo, (lo + TRAIN_SHARD).min(n)))
                    .collect();
                let backward_span = telemetry::span("train.backward");
                let shard_results = mmhand_parallel::par_map(&bounds, |&(lo, hi)| {
                    let segments: Vec<Tensor> =
                        batch.segments.iter().map(|s| slice_rows(s, lo, hi)).collect();
                    let mut tape = Tape::new();
                    let outs = model.forward(&mut tape, &store, &segments);
                    // Sum the per-step combined losses, then average.
                    let mut total = None;
                    let mut l3d_sum = 0.0;
                    let mut lk_sum = 0.0;
                    for (out, label) in outs.iter().zip(&batch.labels) {
                        let label = slice_rows(label, lo, hi);
                        let (l, l3d, lk) = combined_loss(&mut tape, *out, &label, tc.weights);
                        l3d_sum += l3d;
                        lk_sum += lk;
                        total = Some(match total {
                            None => l,
                            Some(acc) => tape.add(acc, l),
                        });
                    }
                    let steps = outs.len() as f32;
                    let loss = tape.scale(total.expect("non-empty sequence"), 1.0 / steps);
                    // Weight the shard by its share of the batch so the
                    // reduced gradient matches the full-batch mean loss.
                    let weight = (hi - lo) as f32 / n as f32;
                    let loss_value = tape.value(loss).data()[0];
                    // Single-shard batches keep the unscaled loss node
                    // (weight is exactly 1 when the shard spans the batch).
                    let root = if hi - lo == n { loss } else { tape.scale(loss, weight) };
                    let mut grads = Vec::new();
                    tape.backward_with(root, |id, g| grads.push((id, g.clone())));
                    ShardGrad {
                        loss: weight * loss_value,
                        l3d: weight * l3d_sum / steps,
                        lkine: weight * lk_sum / steps,
                        grads,
                    }
                });
                // Reduce in ascending shard order for determinism across
                // thread counts.
                let mut batch_loss = 0.0;
                for shard in &shard_results {
                    batch_loss += shard.loss;
                    epoch_l3d += shard.l3d;
                    epoch_lk += shard.lkine;
                    for (id, g) in &shard.grads {
                        store.accumulate_grad(*id, g);
                    }
                }
                backward_span.finish();
                epoch_loss += batch_loss;
                // With sanitize-numerics, verify gradient flow reached every
                // parameter after the first backward pass: a silent zero-grad
                // parameter is almost always a detached subgraph. The
                // inactive temporal head (mlp_head with the LSTM on,
                // lstm/head without it) is exempt by construction.
                #[cfg(feature = "sanitize-numerics")]
                if step == 0 {
                    let expected_dead: &[&str] = if self.model_config.use_lstm {
                        &["temporal.mlp_head"]
                    } else {
                        &["temporal.lstm", "temporal.head"]
                    };
                    let dead: Vec<String> = mmhand_nn::sanitize::dead_params(&store)
                        .into_iter()
                        .filter(|n| !expected_dead.iter().any(|e| n.starts_with(e)))
                        .collect();
                    assert!(
                        dead.is_empty(),
                        "parameters with zero gradient flow after first backward: {dead:?}"
                    );
                }
                epoch_sequences += batch.batch_size() as u64;
                // Pre-clip gradient norm; computed only when telemetry is
                // recording since it costs a pass over every parameter.
                let optimizer_span = telemetry::span("train.optimizer");
                if telemetry::enabled() {
                    last_grad_norm = store.grad_norm();
                }
                if tc.clip_norm > 0.0 {
                    store.clip_grad_norm(tc.clip_norm);
                }
                lr_used = schedule.lr_at(step);
                adam.step_with_lr(&mut store, lr_used);
                optimizer_span.finish();
                step += 1;
            }
            let nb = batches.len().max(1) as f32;
            let stats = EpochStats {
                loss: epoch_loss / nb,
                l3d: epoch_l3d / nb,
                lkine: epoch_lk / nb,
                lr: lr_used,
            };
            history.push(stats);
            m_epochs.inc();
            m_sequences.add(epoch_sequences);
            m_loss.set(stats.loss as f64);
            m_l3d.set(stats.l3d as f64);
            m_lkine.set(stats.lkine as f64);
            m_grad_norm.set(last_grad_norm as f64);
            m_lr.set(stats.lr as f64);
            let epoch_ns = epoch_span.finish();
            if epoch_ns > 0 {
                m_throughput.set(epoch_sequences as f64 / (epoch_ns as f64 / 1e9));
            }
        }

        Ok(TrainedModel { model, store, history })
    }
}

/// A trivial predictor that always outputs the mean training label — the
/// floor any learned model must beat.
pub fn mean_pose_baseline(sequences: &[SegmentSequence]) -> Vec<f32> {
    let mut mean = vec![0.0_f32; OUTPUT_DIM];
    let mut count = 0;
    for s in sequences {
        for l in &s.labels {
            for (m, v) in mean.iter_mut().zip(l) {
                *m += v;
            }
            count += 1;
        }
    }
    if count > 0 {
        for m in &mut mean {
            *m /= count as f32;
        }
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{CubeBuilder, CubeConfig};
    use crate::dataset::try_session_to_sequences;
    use mmhand_hand::gesture::Gesture;
    use mmhand_hand::trajectory::GestureTrack;
    use mmhand_hand::user::UserProfile;
    use mmhand_math::Vec3;
    use mmhand_radar::capture::{record_session, CaptureConfig};
    use mmhand_radar::{ChirpConfig, Environment};

    /// A tiny radar/cube/model stack that trains in seconds.
    fn tiny_stack() -> (CubeConfig, ModelConfig) {
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
        let model = ModelConfig {
            frames_per_segment: 2,
            doppler_bins: 4,
            range_bins: 8,
            angle_bins: 8,
            channels: 6,
            blocks: 1,
            feature_dim: 24,
            lstm_hidden: 24,
            ..ModelConfig::default()
        };
        (cube, model)
    }

    fn tiny_sequences(cube_cfg: &CubeConfig, n_frames: usize, user_seed: u64) -> Vec<SegmentSequence> {
        let user = UserProfile::generate(1, user_seed);
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm, Gesture::Fist, Gesture::Point],
            Vec3::new(0.0, 0.3, 0.0),
            0.3,
            0.3,
        );
        let capture = CaptureConfig {
            chirp: cube_cfg.chirp,
            environment: Environment::Playground,
            noise_sigma: 0.005,
            seed: user_seed,
            ..Default::default()
        };
        let session = record_session(&user, &track, n_frames, &capture);
        let builder = CubeBuilder::try_new(cube_cfg.clone()).unwrap();
        try_session_to_sequences(&builder, &session, 2, 1).unwrap()
    }

    #[test]
    fn training_reduces_loss() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let seqs = tiny_sequences(&cube_cfg, 40, 3);
        assert!(!seqs.is_empty());
        let trainer = Trainer::new(
            model_cfg,
            TrainConfig { epochs: 160, batch_size: 4, ..Default::default() },
        );
        let trained = trainer.try_train(&seqs).unwrap();
        let first = trained.history.first().unwrap().loss;
        let last = trained.history.last().unwrap().loss;
        assert!(
            last < first * 0.6,
            "loss did not drop: {first} → {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn trained_model_beats_mean_pose_baseline() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let seqs = tiny_sequences(&cube_cfg, 48, 4);
        let trainer = Trainer::new(
            model_cfg,
            TrainConfig { epochs: 160, batch_size: 4, ..Default::default() },
        );
        let trained = trainer.try_train(&seqs).unwrap();
        let model_err = trained.evaluate(&seqs).mpjpe(crate::metrics::JointGroup::Overall);

        let mean = mean_pose_baseline(&seqs);
        let mut base_err = JointErrors::new();
        for s in &seqs {
            for l in &s.labels {
                base_err.push_flat(&mean, l);
            }
        }
        let baseline = base_err.mpjpe(crate::metrics::JointGroup::Overall);
        assert!(
            model_err < baseline,
            "model {model_err} mm vs mean-pose {baseline} mm"
        );
    }

    #[test]
    fn predictions_have_joint_structure() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let seqs = tiny_sequences(&cube_cfg, 24, 5);
        let trainer = Trainer::new(
            model_cfg,
            TrainConfig { epochs: 160, batch_size: 4, ..Default::default() },
        );
        let trained = trainer.try_train(&seqs).unwrap();
        let preds = trained.predict_sequence(&seqs[0].segments);
        assert_eq!(preds.len(), seqs[0].len());
        for p in preds {
            assert_eq!(p.len(), OUTPUT_DIM);
            assert!(p.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn per_user_evaluation_splits_by_user() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let mut seqs = tiny_sequences(&cube_cfg, 24, 6);
        let mut other = tiny_sequences(&cube_cfg, 24, 7);
        for s in &mut other {
            s.user_id = 2;
        }
        seqs.extend(other);
        let trainer = Trainer::new(
            model_cfg,
            TrainConfig { epochs: 160, batch_size: 4, ..Default::default() },
        );
        let trained = trainer.try_train(&seqs).unwrap();
        let per_user = trained.evaluate_per_user(&seqs);
        assert_eq!(per_user.len(), 2);
        assert_eq!(per_user[0].0, 1);
        assert_eq!(per_user[1].0, 2);
        assert!(!per_user[0].1.is_empty());
    }

    #[test]
    fn training_records_telemetry() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let seqs = tiny_sequences(&cube_cfg, 24, 8);
        let epochs_before = mmhand_telemetry::counter("train.epochs").get();
        let trainer = Trainer::new(
            model_cfg,
            TrainConfig { epochs: 3, batch_size: 4, ..Default::default() },
        );
        let _ = trainer.try_train(&seqs).unwrap();
        // Counters are process-global and other tests train concurrently,
        // so assert growth, not exact values.
        let epochs_after = mmhand_telemetry::counter("train.epochs").get();
        assert!(epochs_after >= epochs_before + 3, "per-epoch counter advanced");
        assert!(mmhand_telemetry::counter("train.sequences").get() > 0);
        assert!(mmhand_telemetry::gauge("train.loss").get().is_finite());
        assert!(mmhand_telemetry::gauge("train.grad_norm").get() >= 0.0);
        let snap = mmhand_telemetry::snapshot();
        let epoch_hist = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "train.epoch_time")
            .map(|(_, h)| h)
            .expect("epoch span histogram registered");
        assert!(epoch_hist.count >= 3);
    }

    #[test]
    fn try_train_surfaces_empty_windows_as_typed_errors() {
        use crate::error::PipelineError;
        let (_, model_cfg) = tiny_stack();
        let trainer = Trainer::new(model_cfg, TrainConfig::default());
        assert!(matches!(
            trainer.try_train(&[]),
            Err(PipelineError::EmptyInput { what: "training sequences" })
        ));
        // A sequence whose frame window truncated to zero segments must be
        // rejected up front, not explode mid-epoch.
        let hollow = SegmentSequence { segments: Vec::new(), labels: Vec::new(), user_id: 1 };
        assert!(matches!(
            trainer.try_train(&[hollow]),
            Err(PipelineError::EmptyInput { what: "segments in a training sequence" })
        ));
    }

    #[test]
    fn try_train_rejects_ragged_sequences_with_typed_error() {
        let (cube_cfg, model_cfg) = tiny_stack();
        let mut seqs = tiny_sequences(&cube_cfg, 8, 9);
        assert_eq!(seqs.len(), 2);
        // A truncated sequence makes the dataset ragged: batches could not
        // stack it, so training must refuse it before the first epoch.
        seqs[1].segments.pop();
        seqs[1].labels.pop();
        let trainer = Trainer::new(model_cfg, TrainConfig { epochs: 1, ..Default::default() });
        assert!(matches!(
            trainer.try_train(&seqs),
            Err(PipelineError::MismatchedSequenceLength { expected: 2, got: 1 })
        ));
    }
}
