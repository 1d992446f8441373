//! The mmHand joint-regression network (paper §IV, Fig. 5).
//!
//! * [`MmSpaceNet`] — the attention-based hourglass spatial feature
//!   extractor: a stem that mixes the segment's `st·V` channels, followed
//!   by attention residual blocks. Each block combines
//!     * a 1×1 branch that preserves the current level's features,
//!     * a downsample-conv / upsample-deconv branch for fine-grained
//!       multi-scale features,
//!     * the two-stage channel attention of Eqs. 2–5 (frame channels, then
//!       velocity channels), and
//!     * the 3-D spatial attention of Eqs. 6–7 over the range–angle maps.
//! * [`TemporalModel`] — the LSTM over consecutive segment features.
//! * [`MmHandModel`] — the full regressor producing 21 × 3 joint
//!   coordinates per segment.
//!
//! Ablation switches in [`ModelConfig`] turn each mechanism off for the
//! comparison experiments.

use mmhand_nn::{
    Conv2d, ConvSpec, ConvTranspose2d, Linear, Lstm, ParamStore, Tape, Tensor, Var,
};
use rand::Rng;

/// Joint count × 3 coordinates.
pub const OUTPUT_DIM: usize = 63;

/// Architecture hyper-parameters and ablation switches.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Frames per segment `st`.
    pub frames_per_segment: usize,
    /// Doppler bins `V` per frame.
    pub doppler_bins: usize,
    /// Range bins `D`.
    pub range_bins: usize,
    /// Angle bins `A`.
    pub angle_bins: usize,
    /// Trunk channels inside the hourglass blocks.
    pub channels: usize,
    /// Number of attention residual blocks.
    pub blocks: usize,
    /// Feature dimension fed to the LSTM.
    pub feature_dim: usize,
    /// LSTM hidden size.
    pub lstm_hidden: usize,
    /// Enable the first-stage (frame) channel attention.
    pub frame_attention: bool,
    /// Enable the second-stage (velocity) channel attention.
    pub channel_attention: bool,
    /// Enable the spatial attention.
    pub spatial_attention: bool,
    /// Enable the LSTM (off ⇒ per-segment MLP on the spatial feature).
    pub use_lstm: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            frames_per_segment: 4,
            doppler_bins: 8,
            range_bins: 16,
            angle_bins: 16,
            channels: 12,
            blocks: 2,
            feature_dim: 96,
            lstm_hidden: 96,
            frame_attention: true,
            channel_attention: true,
            spatial_attention: true,
            use_lstm: true,
        }
    }
}

impl ModelConfig {
    /// Input channels of a segment tensor (`st · V`).
    pub fn input_channels(&self) -> usize {
        self.frames_per_segment * self.doppler_bins
    }
}

/// One attention residual block of mmSpaceNet.
#[derive(Clone)]
struct AttentionBlock {
    // Attention parameters.
    frame_fc1: Linear,
    frame_fc2: Linear,
    chan_fc: Linear,
    spatial_conv: Conv2d,
    // Hourglass branches.
    skip_1x1: Conv2d,
    down: Conv2d,
    up: ConvTranspose2d,
}

impl AttentionBlock {
    fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        cfg: &ModelConfig,
        rng: &mut R,
    ) -> Self {
        let c = cfg.channels;
        let st = cfg.frames_per_segment;
        AttentionBlock {
            // "Conv1": a small two-layer block over the pooled frame vector.
            frame_fc1: Linear::new(store, &format!("{name}.frame_fc1"), st, st * 2, rng),
            frame_fc2: Linear::new(store, &format!("{name}.frame_fc2"), st * 2, st, rng),
            // Stage-2 FC over concatenated [GAP, GMP] channel features.
            chan_fc: Linear::new(store, &format!("{name}.chan_fc"), 2 * c, c, rng),
            // "Conv2": 2 → 1 channel map over [MEAN, MAX].
            spatial_conv: Conv2d::new(
                store,
                &format!("{name}.spatial_conv"),
                ConvSpec { in_channels: 2, out_channels: 1, kernel: 5, stride: 1, pad: 2 },
                rng,
            ),
            skip_1x1: Conv2d::new(
                store,
                &format!("{name}.skip"),
                ConvSpec { in_channels: c, out_channels: c, kernel: 1, stride: 1, pad: 0 },
                rng,
            ),
            down: Conv2d::new(
                store,
                &format!("{name}.down"),
                ConvSpec { in_channels: c, out_channels: c, kernel: 3, stride: 2, pad: 1 },
                rng,
            ),
            up: ConvTranspose2d::new(
                store,
                &format!("{name}.up"),
                ConvSpec { in_channels: c, out_channels: c, kernel: 4, stride: 2, pad: 1 },
                rng,
            ),
        }
    }

    /// Two-stage channel attention (Eqs. 2–5) followed by spatial attention
    /// (Eqs. 6–7) followed by the hourglass residual combination.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        cfg: &ModelConfig,
    ) -> Var {
        let mut cur = x;

        // Stage 1 — frame channel attention: a_i = σ(Conv1(TGAP + TGMP)).
        // Channels are grouped as st frames × V velocity bins, so pooling a
        // frame's group is the 3-D global pooling over its V×D×A volume.
        if cfg.frame_attention {
            let gap = tape.group_avg_pool(cur, cfg.frames_per_segment);
            let gmp = tape.group_max_pool(cur, cfg.frames_per_segment);
            let pooled = tape.add(gap, gmp);
            let h = self.frame_fc1.forward(tape, store, pooled);
            let h = tape.relu(h);
            let h = self.frame_fc2.forward(tape, store, h);
            let a = tape.sigmoid(h);
            cur = tape.mul_group(cur, a, cfg.frames_per_segment);
        }

        // Stage 2 — velocity channel attention:
        // b = σ(FC([GAP(Y), GMP(Y)])) applied per channel. Runs after the
        // trunk has mixed frames into `channels` feature maps, so it weights
        // those velocity-derived channels (Eq. 4–5).
        if cfg.channel_attention {
            let gap = tape.channel_avg_pool(cur);
            let gmp = tape.channel_max_pool(cur);
            let cat = tape.concat_cols(gap, gmp);
            let b = self.chan_fc.forward(tape, store, cat);
            let b = tape.sigmoid(b);
            cur = tape.mul_channel(cur, b);
        }

        // 3-D spatial attention: C = σ(Conv2([MEAN(Z), MAX(Z)])).
        if cfg.spatial_attention {
            let mean = tape.mean_over_channels(cur);
            let max = tape.max_over_channels(cur);
            let cat = tape.concat_channels(mean, max);
            let m = self.spatial_conv.forward(tape, store, cat);
            let m = tape.sigmoid(m);
            cur = tape.mul_spatial(cur, m);
        }

        // Hourglass residual: 1×1 skip + down/up multiscale branch.
        let skip = self.skip_1x1.forward(tape, store, cur);
        let d = self.down.forward(tape, store, cur);
        let d = tape.relu(d);
        let u = self.up.forward(tape, store, d);
        let u = tape.relu(u);
        let sum = tape.add(skip, u);
        tape.relu(sum)
    }
}

/// The attention-based hourglass spatial feature extractor.
#[derive(Clone)]
pub struct MmSpaceNet {
    stem: Conv2d,
    blocks: Vec<AttentionBlock>,
    reduce: Conv2d,
    to_feature: Linear,
    cfg: ModelConfig,
}

impl MmSpaceNet {
    /// Builds the network, registering parameters in `store`.
    pub fn new<R: Rng + ?Sized>(store: &mut ParamStore, cfg: &ModelConfig, rng: &mut R) -> Self {
        let stem = Conv2d::new(
            store,
            "spacenet.stem",
            ConvSpec {
                in_channels: cfg.input_channels(),
                out_channels: cfg.channels,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            rng,
        );
        let blocks = (0..cfg.blocks)
            .map(|i| AttentionBlock::new(store, &format!("spacenet.block{i}"), cfg, rng))
            .collect();
        let reduce = Conv2d::new(
            store,
            "spacenet.reduce",
            ConvSpec { in_channels: cfg.channels, out_channels: 4, kernel: 1, stride: 1, pad: 0 },
            rng,
        );
        let flat = 4 * cfg.range_bins * cfg.angle_bins;
        let to_feature = Linear::new(store, "spacenet.feature", flat, cfg.feature_dim, rng);
        MmSpaceNet { stem, blocks, reduce, to_feature, cfg: cfg.clone() }
    }

    /// Extracts the per-segment feature vector `(N, feature_dim)` from a
    /// batch of segments `(N, st·V, D, A)`.
    ///
    /// The first block sees the raw frame grouping, so frame attention runs
    /// on the *input* (before the stem mixes frames), matching the paper's
    /// ordering where Eq. 2 applies to X.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        // Frame attention on the raw segment (stage 1 of block 0 semantics).
        let mut cur = x;
        if self.cfg.frame_attention {
            let gap = tape.group_avg_pool(cur, self.cfg.frames_per_segment);
            let gmp = tape.group_max_pool(cur, self.cfg.frames_per_segment);
            let pooled = tape.add(gap, gmp);
            let h = self.blocks[0].frame_fc1.forward(tape, store, pooled);
            let h = tape.relu(h);
            let h = self.blocks[0].frame_fc2.forward(tape, store, h);
            let a = tape.sigmoid(h);
            cur = tape.mul_group(cur, a, self.cfg.frames_per_segment);
        }
        cur = self.stem.forward(tape, store, cur);
        cur = tape.relu(cur);
        // Inside the trunk, frame groups no longer exist (channels are
        // mixed), so blocks run with frame attention disabled.
        let inner_cfg = ModelConfig { frame_attention: false, ..self.cfg.clone() };
        for block in &self.blocks {
            cur = block.forward(tape, store, cur, &inner_cfg);
        }
        let reduced = self.reduce.forward(tape, store, cur);
        let reduced = tape.relu(reduced);
        let n = tape.value(reduced).shape()[0];
        let flat_len = tape.value(reduced).len() / n;
        let flat = tape.reshape(reduced, &[n, flat_len]);
        let feat = self.to_feature.forward(tape, store, flat);
        tape.relu(feat)
    }
}

/// The temporal model: LSTM over segment features (paper §IV-A).
#[derive(Clone)]
pub struct TemporalModel {
    lstm: Lstm,
    head: Linear,
    mlp_head: Linear,
    use_lstm: bool,
}

impl TemporalModel {
    /// Builds the temporal model.
    pub fn new<R: Rng + ?Sized>(store: &mut ParamStore, cfg: &ModelConfig, rng: &mut R) -> Self {
        TemporalModel {
            lstm: Lstm::new(store, "temporal.lstm", cfg.feature_dim, cfg.lstm_hidden, rng),
            head: Linear::new(store, "temporal.head", cfg.lstm_hidden, OUTPUT_DIM, rng),
            mlp_head: Linear::new(store, "temporal.mlp_head", cfg.feature_dim, OUTPUT_DIM, rng),
            use_lstm: cfg.use_lstm,
        }
    }

    /// Parameter handles of the two output heads' biases, for initialising
    /// them to the mean training pose (removes the DC offset the network
    /// would otherwise have to learn).
    pub fn head_bias_ids(&self) -> [mmhand_nn::ParamId; 2] {
        [self.head.bias_id(), self.mlp_head.bias_id()]
    }

    /// Regresses joints for one feature step from explicit LSTM state,
    /// returning `(output, h, c)` with the advanced state.
    ///
    /// The op sequence matches one iteration of [`forward`](Self::forward),
    /// so stepping a stream segment-by-segment from zero state reproduces
    /// the whole-sequence forward bitwise. With the LSTM ablated the state
    /// passes through untouched and the MLP head runs stateless.
    pub fn forward_step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        feature: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var, Var) {
        if self.use_lstm {
            let (h_new, c_new) = self.lstm.step(tape, store, feature, h, c);
            let out = self.head.forward(tape, store, h_new);
            (out, h_new, c_new)
        } else {
            (self.mlp_head.forward(tape, store, feature), h, c)
        }
    }

    /// Regresses joints for each step of a feature sequence.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, features: &[Var]) -> Vec<Var> {
        if self.use_lstm {
            let hs = self.lstm.forward_sequence(tape, store, features);
            hs.into_iter()
                .map(|h| self.head.forward(tape, store, h))
                .collect()
        } else {
            // Ablation: single-segment regression without temporal context.
            features
                .iter()
                .map(|&f| self.mlp_head.forward(tape, store, f))
                .collect()
        }
    }
}

/// The full mmHand joint-regression model.
#[derive(Clone)]
pub struct MmHandModel {
    /// The spatial feature extractor.
    pub spacenet: MmSpaceNet,
    /// The temporal regressor.
    pub temporal: TemporalModel,
    /// Architecture configuration.
    pub config: ModelConfig,
}

impl MmHandModel {
    /// Builds the model, registering all parameters in `store`.
    pub fn new<R: Rng + ?Sized>(store: &mut ParamStore, cfg: ModelConfig, rng: &mut R) -> Self {
        let spacenet = MmSpaceNet::new(store, &cfg, rng);
        let temporal = TemporalModel::new(store, &cfg, rng);
        MmHandModel { spacenet, temporal, config: cfg }
    }

    /// Forward pass over a sequence of segment batches.
    ///
    /// `segments[t]` is the `(N, st·V, D, A)` tensor of sequence step `t`;
    /// the result holds the `(N, 63)` joint regression per step.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        segments: &[Tensor],
    ) -> Vec<Var> {
        assert!(!segments.is_empty(), "need at least one segment");
        let feats: Vec<Var> = segments
            .iter()
            .map(|s| {
                let x = tape.leaf(s.clone());
                self.spacenet.forward(tape, store, x)
            })
            .collect();
        self.temporal.forward(tape, store, &feats)
    }

    /// Forward pass for one streamed segment batch from explicit LSTM
    /// state, returning `(output, h, c)`.
    ///
    /// `segment` is a `(N, st·V, D, A)` tensor; `h`/`c` are `(N, hidden)`
    /// state leaves (zeros at stream start). Stepping a stream through this
    /// reproduces [`forward`](Self::forward) over the same segments bitwise.
    pub fn forward_step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        segment: &Tensor,
        h: Var,
        c: Var,
    ) -> (Var, Var, Var) {
        let x = tape.leaf(segment.clone());
        let feat = self.spacenet.forward(tape, store, x);
        self.temporal.forward_step(tape, store, feat, h, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::stream_rng;

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            frames_per_segment: 2,
            doppler_bins: 4,
            range_bins: 8,
            angle_bins: 8,
            channels: 6,
            blocks: 1,
            feature_dim: 16,
            lstm_hidden: 16,
            ..ModelConfig::default()
        }
    }

    fn batch(cfg: &ModelConfig, n: usize, seed: u64) -> Tensor {
        let mut rng = stream_rng(seed, "x");
        Tensor::randn(&[n, cfg.input_channels(), cfg.range_bins, cfg.angle_bins], 1.0, &mut rng)
    }

    #[test]
    fn forward_shapes_match_contract() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = stream_rng(1, "m");
        let model = MmHandModel::new(&mut store, cfg.clone(), &mut rng);
        let mut tape = Tape::new();
        let segs = vec![batch(&cfg, 3, 1), batch(&cfg, 3, 2)];
        let outs = model.forward(&mut tape, &store, &segs);
        assert_eq!(outs.len(), 2);
        for o in outs {
            assert_eq!(tape.value(o).shape(), &[3, OUTPUT_DIM]);
            assert!(!tape.value(o).has_non_finite());
        }
    }

    #[test]
    fn ablations_change_parameter_usage_not_shapes() {
        for (fa, ca, sa, lstm) in [
            (false, true, true, true),
            (true, false, true, true),
            (true, true, false, true),
            (true, true, true, false),
            (false, false, false, false),
        ] {
            let cfg = ModelConfig {
                frame_attention: fa,
                channel_attention: ca,
                spatial_attention: sa,
                use_lstm: lstm,
                ..tiny_config()
            };
            let mut store = ParamStore::new();
            let mut rng = stream_rng(2, "a");
            let model = MmHandModel::new(&mut store, cfg.clone(), &mut rng);
            let mut tape = Tape::new();
            let outs = model.forward(&mut tape, &store, &[batch(&cfg, 2, 3)]);
            assert_eq!(tape.value(outs[0]).shape(), &[2, OUTPUT_DIM]);
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = stream_rng(3, "g");
        let model = MmHandModel::new(&mut store, cfg.clone(), &mut rng);
        let mut tape = Tape::new();
        let outs = model.forward(&mut tape, &store, &[batch(&cfg, 2, 4), batch(&cfg, 2, 5)]);
        // Sum both step outputs into a scalar loss.
        let joined = tape.add(outs[0], outs[1]);
        let sq = tape.mul(joined, joined);
        let loss = tape.mean_all(sq);
        tape.backward(loss, &mut store);
        let mut dead = Vec::new();
        for id in store.ids() {
            let g = store.grad(id);
            if g.data().iter().all(|&x| x == 0.0) {
                let name = store.name(id).to_string();
                // The MLP head is unused when the LSTM is active.
                if !name.contains("mlp_head") {
                    dead.push(name);
                }
            }
        }
        assert!(dead.is_empty(), "parameters without gradient: {dead:?}");
    }

    #[test]
    fn attention_gates_modulate_output() {
        // Scaling one frame group must change the output more when frame
        // attention is enabled than it biases an identical-input model —
        // a smoke check that the gates are wired to the input grouping.
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = stream_rng(4, "w");
        let model = MmHandModel::new(&mut store, cfg.clone(), &mut rng);
        let x1 = batch(&cfg, 1, 6);
        let mut x2 = x1.clone();
        // Zero out the second frame group.
        let per_group = x2.len() / cfg.frames_per_segment;
        for v in &mut x2.data_mut()[per_group..2 * per_group] {
            *v = 0.0;
        }
        let mut tape = Tape::new();
        let o1 = model.forward(&mut tape, &store, &[x1]);
        let mut tape2 = Tape::new();
        let o2 = model.forward(&mut tape2, &store, &[x2]);
        let d: f32 = tape
            .value(o1[0])
            .data()
            .iter()
            .zip(tape2.value(o2[0]).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-4, "output insensitive to input change");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_sequence_panics() {
        let cfg = tiny_config();
        let mut store = ParamStore::new();
        let mut rng = stream_rng(5, "e");
        let model = MmHandModel::new(&mut store, cfg, &mut rng);
        let mut tape = Tape::new();
        model.forward(&mut tape, &store, &[]);
    }

    #[test]
    fn default_model_size_is_modest() {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(6, "s");
        let _model = MmHandModel::new(&mut store, ModelConfig::default(), &mut rng);
        let n = store.scalar_count();
        // CPU-trainable budget: under a million parameters.
        assert!(n < 1_000_000, "parameter count {n}");
        assert!(n > 50_000, "suspiciously small model: {n}");
    }
}
