//! Layer building blocks: parameter containers with `forward` methods that
//! record onto a [`Tape`].
//!
//! Layers own [`ParamId`] handles into a shared [`ParamStore`]; the same
//! layer can therefore run on many tapes (one per training step) without
//! copying weights around.

use crate::conv::ConvSpec;
use crate::param::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Fully connected layer `y = x·W + b`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
}

impl Linear {
    /// Creates a layer with He-style initialisation.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let w = store.add(
            &format!("{name}.w"),
            Tensor::randn(&[in_features, out_features], std, rng),
        );
        let b = store.add(&format!("{name}.b"), Tensor::zeros(&[out_features]));
        Linear { w, b, in_features, out_features }
    }

    /// Applies the layer to an `(N, in)` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let y = tape.matmul(x, w);
        tape.add_row_bias(y, b)
    }

    /// Handle of the bias parameter (useful for output-bias initialisation).
    pub fn bias_id(&self) -> ParamId {
        self.b
    }
}

/// 2-D convolution layer.
#[derive(Clone, Copy, Debug)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    /// Geometry of the convolution.
    pub spec: ConvSpec,
}

impl Conv2d {
    /// Creates a layer with He-style initialisation.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        spec: ConvSpec,
        rng: &mut R,
    ) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let w = store.add(
            &format!("{name}.w"),
            Tensor::randn(
                &[spec.out_channels, spec.in_channels, spec.kernel, spec.kernel],
                std,
                rng,
            ),
        );
        let b = store.add(&format!("{name}.b"), Tensor::zeros(&[spec.out_channels]));
        Conv2d { w, b, spec }
    }

    /// Applies the convolution to an `(N, C, H, W)` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.conv2d(x, w, Some(b), self.spec)
    }
}

/// 2-D transposed-convolution (deconvolution) layer.
#[derive(Clone, Copy, Debug)]
pub struct ConvTranspose2d {
    w: ParamId,
    b: ParamId,
    /// Geometry; `in_channels`/`out_channels` refer to this layer's
    /// input/output.
    pub spec: ConvSpec,
}

impl ConvTranspose2d {
    /// Creates a layer with He-style initialisation.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        spec: ConvSpec,
        rng: &mut R,
    ) -> Self {
        let fan_in = spec.in_channels * spec.kernel * spec.kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let w = store.add(
            &format!("{name}.w"),
            Tensor::randn(
                &[spec.in_channels, spec.out_channels, spec.kernel, spec.kernel],
                std,
                rng,
            ),
        );
        let b = store.add(&format!("{name}.b"), Tensor::zeros(&[spec.out_channels]));
        ConvTranspose2d { w, b, spec }
    }

    /// Applies the transposed convolution to an `(N, C, H, W)` input.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.conv_transpose2d(x, w, Some(b), self.spec)
    }
}

/// Layer normalisation with learned affine parameters.
#[derive(Clone, Copy, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    /// Normalised (last-dimension) feature count.
    pub features: usize,
}

impl LayerNorm {
    /// Creates a layer with γ = 1, β = 0.
    pub fn new(store: &mut ParamStore, name: &str, features: usize) -> Self {
        let gamma = store.add(&format!("{name}.gamma"), Tensor::full(&[features], 1.0));
        let beta = store.add(&format!("{name}.beta"), Tensor::zeros(&[features]));
        LayerNorm { gamma, beta, features }
    }

    /// Normalises the last dimension of `x`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let gamma = tape.param(store, self.gamma);
        let beta = tape.param(store, self.beta);
        tape.layer_norm(x, gamma, beta)
    }
}

/// A single-layer LSTM, the temporal model of the paper's hand-joint
/// regression (§IV-A, "Extracting Temporal Features based on LSTM").
///
/// Gates follow the standard formulation; the input/hidden projections are
/// fused into `(in+hidden, 4·hidden)` weight matrices ordered `[i, f, g, o]`.
#[derive(Clone, Copy, Debug)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    /// Input feature count.
    pub in_features: usize,
    /// Hidden-state size.
    pub hidden: usize,
}

impl Lstm {
    /// Creates an LSTM with Xavier-style initialisation and forget-gate
    /// bias 1 (a standard trick for gradient flow).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let std_x = (1.0 / in_features as f32).sqrt();
        let std_h = (1.0 / hidden as f32).sqrt();
        let wx = store.add(
            &format!("{name}.wx"),
            Tensor::randn(&[in_features, 4 * hidden], std_x, rng),
        );
        let wh = store.add(
            &format!("{name}.wh"),
            Tensor::randn(&[hidden, 4 * hidden], std_h, rng),
        );
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for i in hidden..2 * hidden {
            bias.data_mut()[i] = 1.0;
        }
        let b = store.add(&format!("{name}.b"), bias);
        Lstm { wx, wh, b, in_features, hidden }
    }

    /// Runs the LSTM over a sequence of `(N, in)` inputs, returning the
    /// hidden state after each step.
    pub fn forward_sequence(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[Var],
    ) -> Vec<Var> {
        assert!(!inputs.is_empty(), "LSTM needs at least one step");
        let n = tape.value(inputs[0]).shape()[0];
        let h0 = tape.leaf(Tensor::zeros(&[n, self.hidden]));
        let c0 = tape.leaf(Tensor::zeros(&[n, self.hidden]));
        let wx = tape.param(store, self.wx);
        let wh = tape.param(store, self.wh);
        let b = tape.param(store, self.b);

        let mut h = h0;
        let mut c = c0;
        let mut outputs = Vec::with_capacity(inputs.len());
        for &x in inputs {
            (h, c) = self.step_with(tape, x, h, c, (wx, wh, b));
            outputs.push(h);
        }
        outputs
    }

    /// Advances the LSTM by one step from explicit `(h, c)` state, returning
    /// the new `(h, c)`.
    ///
    /// The op sequence is identical to one iteration of
    /// [`forward_sequence`](Self::forward_sequence), so stepping a stream
    /// frame-by-frame from zero state reproduces the whole-sequence forward
    /// bitwise.
    pub fn step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h: Var,
        c: Var,
    ) -> (Var, Var) {
        let wx = tape.param(store, self.wx);
        let wh = tape.param(store, self.wh);
        let b = tape.param(store, self.b);
        self.step_with(tape, x, h, c, (wx, wh, b))
    }

    fn step_with(
        &self,
        tape: &mut Tape,
        x: Var,
        h: Var,
        c: Var,
        (wx, wh, b): (Var, Var, Var),
    ) -> (Var, Var) {
        let zx = tape.matmul(x, wx);
        let zh = tape.matmul(h, wh);
        let z0 = tape.add(zx, zh);
        let z = tape.add_row_bias(z0, b);
        let hsz = self.hidden;
        let i_raw = tape.slice_cols(z, 0, hsz);
        let f_raw = tape.slice_cols(z, hsz, hsz);
        let g_raw = tape.slice_cols(z, 2 * hsz, hsz);
        let o_raw = tape.slice_cols(z, 3 * hsz, hsz);
        let i = tape.sigmoid(i_raw);
        let f = tape.sigmoid(f_raw);
        let g = tape.tanh(g_raw);
        let o = tape.sigmoid(o_raw);
        let fc = tape.mul(f, c);
        let ig = tape.mul(i, g);
        let c_new = tape.add(fc, ig);
        let ct = tape.tanh(c_new);
        let h_new = tape.mul(o, ct);
        (h_new, c_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use mmhand_math::rng::stream_rng;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(1, "l");
        let lin = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 4]));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), &[2, 3]);
        // Zero input → output equals bias (zeros initially).
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conv_layers_compose_hourglass_shapes() {
        // stride-2 conv then stride-2 deconv restores 16×16 — the shape
        // contract of the paper's hourglass branch.
        let mut store = ParamStore::new();
        let mut rng = stream_rng(2, "c");
        let down = Conv2d::new(
            &mut store,
            "down",
            ConvSpec { in_channels: 4, out_channels: 8, kernel: 3, stride: 2, pad: 1 },
            &mut rng,
        );
        let up = ConvTranspose2d::new(
            &mut store,
            "up",
            ConvSpec { in_channels: 8, out_channels: 4, kernel: 4, stride: 2, pad: 1 },
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::randn(&[1, 4, 16, 16], 1.0, &mut rng));
        let mid = down.forward(&mut tape, &store, x);
        assert_eq!(tape.value(mid).shape(), &[1, 8, 8, 8]);
        let out = up.forward(&mut tape, &store, mid);
        assert_eq!(tape.value(out).shape(), &[1, 4, 16, 16]);
    }

    #[test]
    fn layer_norm_learns_affine() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]));
        let y = ln.forward(&mut tape, &store, x);
        let mean: f32 = tape.value(y).data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn lstm_shapes_and_state_propagation() {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(3, "s");
        let lstm = Lstm::new(&mut store, "lstm", 6, 5, &mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..3)
            .map(|_| tape.leaf(Tensor::randn(&[2, 6], 1.0, &mut rng)))
            .collect();
        let hs = lstm.forward_sequence(&mut tape, &store, &xs);
        assert_eq!(hs.len(), 3);
        for h in &hs {
            assert_eq!(tape.value(*h).shape(), &[2, 5]);
        }
        // Hidden states must evolve step to step.
        let h0 = tape.value(hs[0]).clone();
        let h2 = tape.value(hs[2]).clone();
        assert!(h0.sub(&h2).data().iter().any(|&d| d.abs() > 1e-4));
    }

    #[test]
    fn lstm_step_reproduces_forward_sequence_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(11, "step");
        let lstm = Lstm::new(&mut store, "lstm", 6, 5, &mut rng);
        let seq: Vec<Tensor> =
            (0..4).map(|_| Tensor::randn(&[3, 6], 1.0, &mut rng)).collect();

        let mut tape = Tape::new();
        let xs: Vec<Var> = seq.iter().map(|t| tape.leaf(t.clone())).collect();
        let whole: Vec<Tensor> =
            lstm.forward_sequence(&mut tape, &store, &xs).iter().map(|&h| tape.value(h).clone()).collect();

        // Re-run step-by-step on fresh tapes, carrying state as tensors.
        let mut h_state = Tensor::zeros(&[3, 5]);
        let mut c_state = Tensor::zeros(&[3, 5]);
        for (k, x) in seq.iter().enumerate() {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let hv = t.leaf(h_state.clone());
            let cv = t.leaf(c_state.clone());
            let (h_new, c_new) = lstm.step(&mut t, &store, xv, hv, cv);
            h_state = t.value(h_new).clone();
            c_state = t.value(c_new).clone();
            assert_eq!(h_state.data(), whole[k].data(), "step {k} diverged");
        }
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Tiny task: predict the mean of a 3-step scalar sequence. Checks
        // end-to-end gradient flow through time.
        let mut store = ParamStore::new();
        let mut rng = stream_rng(4, "t");
        let lstm = Lstm::new(&mut store, "lstm", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let mut adam = Adam::new(0.02);
        let mut final_loss = f32::INFINITY;
        for step in 0..150 {
            store.zero_grad();
            let mut tape = Tape::new();
            // Deterministic mini-dataset regenerated per step.
            let mut data_rng = stream_rng(step as u64 % 10, "data");
            let seq: Vec<Tensor> =
                (0..3).map(|_| Tensor::randn(&[4, 1], 1.0, &mut data_rng)).collect();
            let mut target = Tensor::zeros(&[4, 1]);
            for s in &seq {
                target.add_assign(s);
            }
            let target = target.scale(1.0 / 3.0);
            let xs: Vec<Var> = seq.into_iter().map(|t| tape.leaf(t)).collect();
            let hs = lstm.forward_sequence(&mut tape, &store, &xs);
            let y = head.forward(&mut tape, &store, *hs.last().unwrap());
            let t = tape.leaf(target);
            let d = tape.sub(y, t);
            let sq = tape.mul(d, d);
            let loss = tape.mean_all(sq);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
            final_loss = tape.value(loss).data()[0];
        }
        assert!(final_loss < 0.05, "LSTM failed to learn: loss {final_loss}");
    }

    #[test]
    fn conv_layer_trains_to_detect_pattern() {
        // A 1-channel conv should learn to amplify a fixed template.
        let mut store = ParamStore::new();
        let mut rng = stream_rng(5, "p");
        let conv = Conv2d::new(
            &mut store,
            "c",
            ConvSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, pad: 1 },
            &mut rng,
        );
        let template = Tensor::randn(&[1, 1, 6, 6], 1.0, &mut rng);
        let mut adam = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            store.zero_grad();
            let mut tape = Tape::new();
            let x = tape.leaf(template.clone());
            let y = conv.forward(&mut tape, &store, x);
            // Target: reproduce the input (learn an identity-ish kernel).
            let t = tape.leaf(template.clone());
            let d = tape.sub(y, t);
            let sq = tape.mul(d, d);
            let loss = tape.mean_all(sq);
            tape.backward(loss, &mut store);
            adam.step(&mut store);
            last = tape.value(loss).data()[0];
        }
        assert!(last < 0.01, "conv failed to fit: {last}");
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_sequence_panics() {
        let mut store = ParamStore::new();
        let mut rng = stream_rng(6, "e");
        let lstm = Lstm::new(&mut store, "lstm", 2, 2, &mut rng);
        let mut tape = Tape::new();
        lstm.forward_sequence(&mut tape, &store, &[]);
    }
}
