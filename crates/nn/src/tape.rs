//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation applied to [`Var`] handles during a
//! forward pass; [`Tape::backward`] replays the record in reverse, routing
//! gradients to every [`crate::param::ParamStore`] parameter that took
//! part. The op set is exactly what the mmHand architecture needs: dense
//! and convolutional linear algebra, the pooling/broadcast ops behind the
//! paper's two-stage channel attention and 3-D spatial attention, and the
//! point-wise nonlinearities.
//!
//! # Examples
//!
//! ```
//! use mmhand_nn::param::ParamStore;
//! use mmhand_nn::tape::Tape;
//! use mmhand_nn::tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let w_id = store.add("w", Tensor::full(&[1, 1], 3.0));
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::full(&[1, 1], 2.0));
//! let w = tape.param(&store, w_id);
//! let y = tape.matmul(x, w); // y = 6
//! let loss = tape.mean_all(y);
//! tape.backward(loss, &mut store);
//! assert_eq!(store.grad(w_id).data(), &[2.0]); // dy/dw = x
//! ```

use crate::conv::{
    conv2d_backward, conv2d_forward, conv_transpose2d_backward, conv_transpose2d_forward,
    dims4, ConvSpec,
};
use crate::param::{ParamId, ParamStore};
use crate::quant::QuantizedParamStore;
use crate::shape::{self, ShapeError};
use crate::tensor::{gemm_a_bt, gemm_at_b, Tensor};
use mmhand_kernels::kernels;
use std::ops::Deref;
use std::sync::Arc;

/// Applies an op's [`shape`] rule before the op runs. Graph shapes follow
/// from the model configuration, which the pipeline builder checks against
/// the radar cube once, so a rejected graph is a programming error: the
/// builder panics at construction with the [`ShapeError`], which names the
/// op, instead of deep inside a kernel.
fn check(rule: Result<Vec<usize>, ShapeError>) {
    rule.expect("graph rejected at construction");
}

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Matmul(Var, Var),
    AddRowBias { x: Var, bias: Var },
    Conv2d { x: Var, w: Var, bias: Option<Var>, spec: ConvSpec },
    ConvT2d { x: Var, w: Var, bias: Option<Var>, spec: ConvSpec },
    ChannelAvgPool(Var),
    ChannelMaxPool { x: Var, argmax: Vec<usize> },
    GroupAvgPool(Var),
    GroupMaxPool { x: Var, argmax: Vec<usize> },
    MeanOverChannels(Var),
    MaxOverChannels { x: Var, argmax: Vec<usize> },
    MulChannel { x: Var, w: Var },
    MulGroup { x: Var, w: Var },
    MulSpatial { x: Var, w: Var },
    ConcatCols(Var, Var),
    ConcatChannels(Var, Var),
    SliceCols { x: Var, start: usize, len: usize },
    Reshape(Var),
    MeanAll(Var),
    LayerNorm { x: Var, gamma: Var, beta: Var, mean: Vec<f32>, rstd: Vec<f32> },
    External { x: Var, grad: Tensor },
}

#[cfg(feature = "sanitize-numerics")]
impl Op {
    /// The op's name as used in sanitizer diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Param(_) => "param",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::MulElem(..) => "mul",
            Op::Scale(..) => "scale",
            Op::Relu(_) => "relu",
            Op::Sigmoid(_) => "sigmoid",
            Op::Tanh(_) => "tanh",
            Op::Matmul(..) => "matmul",
            Op::AddRowBias { .. } => "add_row_bias",
            Op::Conv2d { .. } => "conv2d",
            Op::ConvT2d { .. } => "conv_transpose2d",
            Op::ChannelAvgPool(_) => "channel_avg_pool",
            Op::ChannelMaxPool { .. } => "channel_max_pool",
            Op::GroupAvgPool(_) => "group_avg_pool",
            Op::GroupMaxPool { .. } => "group_max_pool",
            Op::MeanOverChannels(_) => "mean_over_channels",
            Op::MaxOverChannels { .. } => "max_over_channels",
            Op::MulChannel { .. } => "mul_channel",
            Op::MulGroup { .. } => "mul_group",
            Op::MulSpatial { .. } => "mul_spatial",
            Op::ConcatCols(..) => "concat_cols",
            Op::ConcatChannels(..) => "concat_channels",
            Op::SliceCols { .. } => "slice_cols",
            Op::Reshape(_) => "reshape",
            Op::MeanAll(_) => "mean_all",
            Op::LayerNorm { .. } => "layer_norm",
            Op::External { .. } => "external_loss",
        }
    }
}

/// A node's value: computed by its op, or a parameter's value shared with
/// the [`ParamStore`] it was registered from (see [`Tape::param`]).
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

struct Node {
    op: Op,
    value: Value,
    grad: Option<Tensor>,
}

/// The autodiff tape. Create one per forward/backward step.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// When set, matmuls whose right-hand side is a quantized parameter run
    /// through the int8 kernel path (see [`Tape::with_quantized`]).
    qstore: Option<Arc<QuantizedParamStore>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Creates a tape that evaluates matmuls against parameters present in
    /// `q` through the int8 path: quantize the input row-wise, multiply
    /// through the dispatched i8 kernel with exact i32 accumulation, and
    /// dequantize the output. Everything else — graph recording, every
    /// other op, and `backward` — is unchanged, so the same model code runs
    /// quantized with no edits; this is inference-only by construction
    /// (training tapes are built with [`Tape::new`] and never see `q`).
    pub fn with_quantized(q: Arc<QuantizedParamStore>) -> Self {
        Tape { nodes: Vec::new(), qstore: Some(q) }
    }

    /// Walks the finished graph and yields, for every matmul whose
    /// right-hand operand is a parameter, the parameter's id and the
    /// left-hand input's value. Calibration runs ordinary f32 forward
    /// passes and harvests activation ranges from the tapes through this
    /// observer — exactly the matmul-weight set the quantized path will
    /// later intercept.
    pub fn observe_param_matmuls(&self, mut f: impl FnMut(ParamId, &Tensor)) {
        for node in &self.nodes {
            if let Op::Matmul(a, b) = node.op {
                if let Op::Param(id) = self.nodes[b.0].op {
                    f(id, &self.nodes[a.0].value);
                }
            }
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.push_value(op, Value::Owned(value))
    }

    fn push_value(&mut self, op: Op, value: Value) -> Var {
        #[cfg(feature = "sanitize-numerics")]
        crate::sanitize::check_finite(
            &format!("output of tape op `{}`", op.name()),
            value.data(),
        );
        self.nodes.push(Node { op, value, grad: None });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The shape of a variable (shorthand used by the shape checks).
    fn shape_of(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.shape()
    }

    /// The accumulated gradient of a leaf ([`Tape::leaf`]) after
    /// [`Tape::backward`] (`None` if the leaf did not influence the loss).
    ///
    /// Only leaves keep their gradient. Every other node reads `None` after
    /// backward: an op's gradient moves on to its inputs, and a parameter
    /// node's ([`Tape::param`]) moves to the store or the
    /// [`Tape::backward_with`] sink.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Registers a constant input (no gradient is propagated past it,
    /// but its gradient is still *recorded* and can be read back).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// Registers a trainable parameter from `store`. The node shares the
    /// store's value rather than copying it; a later write to the store
    /// copies the value first (see [`ParamStore`]), so the node keeps the
    /// bits it was registered with.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push_value(Op::Param(id), Value::Shared(Arc::clone(store.shared_value(id))))
    }

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        check(shape::elementwise("add", self.shape_of(a), self.shape_of(b)));
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), v)
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        check(shape::elementwise("sub", self.shape_of(a), self.shape_of(b)));
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        check(shape::elementwise("mul", self.shape_of(a), self.shape_of(b)));
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(Op::MulElem(a, b), v)
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.scale(s);
        self.push(Op::Scale(a, s), v)
    }

    /// Rectified linear unit. Negative inputs become `+0.0`; everything
    /// else, `−0.0` and NaN included, passes through with its bits.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        // A select rather than a conditional store, so the loop vectorises.
        for x in v.data_mut() {
            *x = if *x < 0.0 { 0.0 } else { *x };
        }
        self.push(Op::Relu(a), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.data_mut() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        for x in v.data_mut() {
            *x = x.tanh();
        }
        self.push(Op::Tanh(a), v)
    }

    /// 2-D matrix product `(m, k)·(k, n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        check(shape::matmul(self.shape_of(a), self.shape_of(b)));
        // Quantized interception: on tapes built with `with_quantized`, a
        // matmul against a quantized parameter runs i8×i8→i32 and
        // dequantizes at the output. The node is recorded as an ordinary
        // `Matmul` — the graph shape is identical either way, and
        // inference tapes never run `backward`.
        let quantized = match (&self.qstore, &self.nodes[b.0].op) {
            (Some(q), Op::Param(id)) => q
                .get(*id)
                .map(|qp| crate::quant::matmul_i8(qp, &self.nodes[a.0].value)),
            _ => None,
        };
        let v = match quantized {
            Some(v) => v,
            None => self.nodes[a.0].value.matmul(&self.nodes[b.0].value),
        };
        self.push(Op::Matmul(a, b), v)
    }

    /// Adds a length-`F` bias row-wise to an `(N, F)` matrix.
    pub fn add_row_bias(&mut self, x: Var, bias: Var) -> Var {
        check(shape::add_row_bias(self.shape_of(x), self.shape_of(bias)));
        let xv = self.value(x);
        let bv = self.value(bias);
        let (n, f) = (xv.shape()[0], xv.shape()[1]);
        let mut out = xv.clone();
        for row in 0..n {
            for (o, b) in out.data_mut()[row * f..(row + 1) * f]
                .iter_mut()
                .zip(bv.data())
            {
                *o += b;
            }
        }
        self.push(Op::AddRowBias { x, bias }, out)
    }

    /// 2-D convolution. `x` is `(N, C, H, W)`, `w` `(O, C, k, k)`.
    pub fn conv2d(&mut self, x: Var, w: Var, bias: Option<Var>, spec: ConvSpec) -> Var {
        let bias_len = bias.map(|b| self.nodes[b.0].value.len());
        check(shape::conv2d(self.shape_of(x), self.shape_of(w), bias_len, &spec));
        let bias_data = bias.map_or(&[][..], |b| self.nodes[b.0].value.data());
        let v = conv2d_forward(&self.nodes[x.0].value, &self.nodes[w.0].value, bias_data, &spec);
        self.push(Op::Conv2d { x, w, bias, spec }, v)
    }

    /// 2-D transposed convolution. `x` is `(N, C_in, H, W)`,
    /// `w` `(C_in, C_out, k, k)`.
    pub fn conv_transpose2d(
        &mut self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        spec: ConvSpec,
    ) -> Var {
        let bias_len = bias.map(|b| self.nodes[b.0].value.len());
        check(shape::conv_transpose2d(self.shape_of(x), self.shape_of(w), bias_len, &spec));
        let bias_data = bias.map_or(&[][..], |b| self.nodes[b.0].value.data());
        let v = conv_transpose2d_forward(
            &self.nodes[x.0].value,
            &self.nodes[w.0].value,
            bias_data,
            &spec,
        );
        self.push(Op::ConvT2d { x, w, bias, spec }, v)
    }

    /// Global average pool over the spatial dims: `(N, C, H, W) → (N, C)`.
    pub fn channel_avg_pool(&mut self, x: Var) -> Var {
        check(shape::channel_pool("channel_avg_pool", self.shape_of(x)));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let hw = h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, c]);
        for i in 0..n * c {
            out.data_mut()[i] = xd[i * hw..(i + 1) * hw].iter().sum::<f32>() / hw as f32;
        }
        self.push(Op::ChannelAvgPool(x), out)
    }

    /// Global max pool over the spatial dims: `(N, C, H, W) → (N, C)`.
    pub fn channel_max_pool(&mut self, x: Var) -> Var {
        check(shape::channel_pool("channel_max_pool", self.shape_of(x)));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let hw = h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, c]);
        let mut argmax = vec![0usize; n * c];
        for i in 0..n * c {
            let slice = &xd[i * hw..(i + 1) * hw];
            let (best, &val) = slice
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty spatial extent");
            out.data_mut()[i] = val;
            argmax[i] = i * hw + best;
        }
        self.push(Op::ChannelMaxPool { x, argmax }, out)
    }

    /// Average pool over channel groups and space:
    /// `(N, G·Cg, H, W) → (N, G)`. This is the paper's TGAP — the
    /// three-dimensional global average pooling over each frame's
    /// `V × D × A` sub-volume when frames are packed into channel groups.
    pub fn group_avg_pool(&mut self, x: Var, groups: usize) -> Var {
        check(shape::group_pool("group_avg_pool", self.shape_of(x), groups));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let per = (c / groups) * h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, groups]);
        for i in 0..n * groups {
            out.data_mut()[i] = xd[i * per..(i + 1) * per].iter().sum::<f32>() / per as f32;
        }
        self.push(Op::GroupAvgPool(x), out)
    }

    /// Max pool over channel groups and space (the paper's TGMP):
    /// `(N, G·Cg, H, W) → (N, G)`.
    pub fn group_max_pool(&mut self, x: Var, groups: usize) -> Var {
        check(shape::group_pool("group_max_pool", self.shape_of(x), groups));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let per = (c / groups) * h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, groups]);
        let mut argmax = vec![0usize; n * groups];
        for i in 0..n * groups {
            let slice = &xd[i * per..(i + 1) * per];
            let (best, &val) = slice
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty group");
            out.data_mut()[i] = val;
            argmax[i] = i * per + best;
        }
        self.push(Op::GroupMaxPool { x, argmax }, out)
    }

    /// Mean across channels: `(N, C, H, W) → (N, 1, H, W)` (the MEAN of the
    /// paper's spatial attention, Eq. 6).
    pub fn mean_over_channels(&mut self, x: Var) -> Var {
        check(shape::over_channels("mean_over_channels", self.shape_of(x)));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let hw = h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, 1, h, w]);
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hw;
                for p in 0..hw {
                    out.data_mut()[s * hw + p] += xd[base + p];
                }
            }
        }
        let inv = 1.0 / c as f32;
        for v in out.data_mut() {
            *v *= inv;
        }
        self.push(Op::MeanOverChannels(x), out)
    }

    /// Max across channels: `(N, C, H, W) → (N, 1, H, W)` (the MAX of
    /// Eq. 6).
    pub fn max_over_channels(&mut self, x: Var) -> Var {
        check(shape::over_channels("max_over_channels", self.shape_of(x)));
        let [n, c, h, w] = dims4(&self.nodes[x.0].value);
        let hw = h * w;
        let xd = self.nodes[x.0].value.data();
        let mut out = Tensor::zeros(&[n, 1, h, w]);
        let mut argmax = vec![0usize; n * hw];
        for s in 0..n {
            for p in 0..hw {
                let mut best_c = 0;
                let mut best = f32::NEG_INFINITY;
                for ch in 0..c {
                    let v = xd[(s * c + ch) * hw + p];
                    if v > best {
                        best = v;
                        best_c = ch;
                    }
                }
                out.data_mut()[s * hw + p] = best;
                argmax[s * hw + p] = (s * c + best_c) * hw + p;
            }
        }
        self.push(Op::MaxOverChannels { x, argmax }, out)
    }

    /// Broadcast-multiplies `(N, C, H, W)` by per-channel weights `(N, C)`.
    pub fn mul_channel(&mut self, x: Var, w: Var) -> Var {
        check(shape::mul_channel(self.shape_of(x), self.shape_of(w)));
        let [n, c, h, wd] = dims4(&self.nodes[x.0].value);
        let hw = h * wd;
        let mut out = self.nodes[x.0].value.clone();
        let wv = self.nodes[w.0].value.data();
        for (i, &s) in wv.iter().enumerate().take(n * c) {
            for v in &mut out.data_mut()[i * hw..(i + 1) * hw] {
                *v *= s;
            }
        }
        self.push(Op::MulChannel { x, w }, out)
    }

    /// Broadcast-multiplies channel *groups* by weights `(N, G)` — the
    /// frame-channel weighting of the first attention stage (Eq. 3).
    pub fn mul_group(&mut self, x: Var, w: Var, groups: usize) -> Var {
        check(shape::mul_group(self.shape_of(x), self.shape_of(w), groups));
        let [n, c, h, wd] = dims4(&self.nodes[x.0].value);
        let per = (c / groups) * h * wd;
        let mut out = self.nodes[x.0].value.clone();
        let wv = self.nodes[w.0].value.data();
        for (i, &s) in wv.iter().enumerate().take(n * groups) {
            for v in &mut out.data_mut()[i * per..(i + 1) * per] {
                *v *= s;
            }
        }
        self.push(Op::MulGroup { x, w }, out)
    }

    /// Broadcast-multiplies `(N, C, H, W)` by a spatial map `(N, 1, H, W)`
    /// — the application of the spatial attention mask (Eq. 7).
    pub fn mul_spatial(&mut self, x: Var, w: Var) -> Var {
        check(shape::mul_spatial(self.shape_of(x), self.shape_of(w)));
        let [n, c, h, wd] = dims4(&self.nodes[x.0].value);
        let hw = h * wd;
        let mut out = self.nodes[x.0].value.clone();
        let wv = self.nodes[w.0].value.data();
        for s in 0..n {
            for ch in 0..c {
                let o = &mut out.data_mut()[(s * c + ch) * hw..(s * c + ch + 1) * hw];
                for (v, m) in o.iter_mut().zip(&wv[s * hw..(s + 1) * hw]) {
                    *v *= m;
                }
            }
        }
        self.push(Op::MulSpatial { x, w }, out)
    }

    /// Concatenates two `(N, A)` / `(N, B)` matrices into `(N, A+B)`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        check(shape::concat_cols(self.shape_of(a), self.shape_of(b)));
        let av = self.value(a);
        let bv = self.value(b);
        let (n, fa) = (av.shape()[0], av.shape()[1]);
        let fb = bv.shape()[1];
        let mut out = Tensor::zeros(&[n, fa + fb]);
        for row in 0..n {
            out.data_mut()[row * (fa + fb)..row * (fa + fb) + fa]
                .copy_from_slice(&av.data()[row * fa..(row + 1) * fa]);
            out.data_mut()[row * (fa + fb) + fa..(row + 1) * (fa + fb)]
                .copy_from_slice(&bv.data()[row * fb..(row + 1) * fb]);
        }
        self.push(Op::ConcatCols(a, b), out)
    }

    /// Concatenates two 4-D tensors along the channel axis.
    pub fn concat_channels(&mut self, a: Var, b: Var) -> Var {
        check(shape::concat_channels(self.shape_of(a), self.shape_of(b)));
        let [n, ca, h, w] = dims4(&self.nodes[a.0].value);
        let cb = self.nodes[b.0].value.shape()[1];
        let hw = h * w;
        let mut out = Tensor::zeros(&[n, ca + cb, h, w]);
        for s in 0..n {
            let dst = &mut out.data_mut()[s * (ca + cb) * hw..(s + 1) * (ca + cb) * hw];
            dst[..ca * hw]
                .copy_from_slice(&self.nodes[a.0].value.data()[s * ca * hw..(s + 1) * ca * hw]);
            dst[ca * hw..]
                .copy_from_slice(&self.nodes[b.0].value.data()[s * cb * hw..(s + 1) * cb * hw]);
        }
        self.push(Op::ConcatChannels(a, b), out)
    }

    /// Takes columns `[start, start+len)` of an `(N, F)` matrix.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        check(shape::slice_cols(self.shape_of(x), start, len));
        let xv = self.value(x);
        let (n, f) = (xv.shape()[0], xv.shape()[1]);
        let mut out = Tensor::zeros(&[n, len]);
        for row in 0..n {
            out.data_mut()[row * len..(row + 1) * len]
                .copy_from_slice(&xv.data()[row * f + start..row * f + start + len]);
        }
        self.push(Op::SliceCols { x, start, len }, out)
    }

    /// Reshapes without copying semantics (gradient reshapes back).
    pub fn reshape(&mut self, x: Var, new_shape: &[usize]) -> Var {
        check(shape::reshape(self.shape_of(x), new_shape));
        let v = self.nodes[x.0].value.reshaped(new_shape);
        self.push(Op::Reshape(x), v)
    }

    /// Mean of all elements → a `[1]`-shaped scalar (loss reduction).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let m = self.nodes[x.0].value.mean();
        self.push(Op::MeanAll(x), Tensor::from_vec(&[1], vec![m]))
    }

    /// Layer normalisation over the last dimension with affine parameters
    /// `gamma`/`beta` of that dimension's length.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        check(shape::layer_norm(self.shape_of(x), self.shape_of(gamma), self.shape_of(beta)));
        let xv = self.value(x);
        let shape = xv.shape().to_vec();
        let f = shape[shape.len() - 1];
        let rows = xv.len() / f;
        let gv = self.nodes[gamma.0].value.data();
        let bv = self.nodes[beta.0].value.data();
        let mut out = xv.clone();
        let mut means = vec![0.0_f32; rows];
        let mut rstds = vec![0.0_f32; rows];
        for r in 0..rows {
            let row = &mut out.data_mut()[r * f..(r + 1) * f];
            let mean = row.iter().sum::<f32>() / f as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let rstd = 1.0 / (var + 1e-5).sqrt();
            means[r] = mean;
            rstds[r] = rstd;
            for (i, v) in row.iter_mut().enumerate() {
                *v = (*v - mean) * rstd * gv[i] + bv[i];
            }
        }
        self.push(Op::LayerNorm { x, gamma, beta, mean: means, rstd: rstds }, out)
    }

    /// Injects an externally computed loss: `value` is the loss value and
    /// `grad` its gradient with respect to `x` (same shape as `x`). Used by
    /// the kinematic loss, whose analytic gradient is computed outside the
    /// tape.
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s shape differs from `x`'s.
    pub fn external_loss(&mut self, x: Var, value: f32, grad: Tensor) -> Var {
        check(shape::external_loss(self.shape_of(x), grad.shape()));
        self.push(Op::External { x, grad }, Tensor::from_vec(&[1], vec![value]))
    }

    fn add_grad(&mut self, v: Var, g: Tensor) {
        #[cfg(feature = "sanitize-numerics")]
        crate::sanitize::check_finite(
            &format!("gradient flowing into tape op `{}`", self.nodes[v.0].op.name()),
            g.data(),
        );
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs reverse-mode differentiation from `loss`, accumulating parameter
    /// gradients into `store`.
    ///
    /// The loss is seeded with a gradient of ones (it is normally a `[1]`
    /// scalar from [`Tape::mean_all`] or [`Tape::external_loss`]).
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_with(loss, |id, g| store.accumulate_grad(id, &g));
    }

    /// Like [`Tape::backward`], but routes each parameter gradient through
    /// `sink` instead of a [`ParamStore`]. This lets data-parallel training
    /// shards run backward on tapes that only hold a shared `&ParamStore`,
    /// collecting gradients locally for a deterministic fixed-order reduce.
    ///
    /// The sink receives one owned gradient per parameter node, in node
    /// order; a parameter registered twice on the tape arrives twice.
    /// Gradients are moved through the tape, not copied: each op's gradient
    /// moves on to its inputs and each parameter node's to the sink, so
    /// afterwards only leaves keep their gradient and [`Tape::grad`] reads
    /// `None` for every other node.
    pub fn backward_with(&mut self, loss: Var, mut sink: impl FnMut(ParamId, Tensor)) {
        let seed = Tensor::full(self.nodes[loss.0].value.shape(), 1.0);
        self.add_grad(loss, seed);

        for i in (0..self.nodes.len()).rev() {
            // Leaves keep their gradients; parameters' leave after the walk.
            if matches!(self.nodes[i].op, Op::Leaf | Op::Param(_)) {
                continue;
            }
            let Some(dy) = self.nodes[i].grad.take() else { continue };
            // Each arm reads the values it needs in place, then routes
            // gradients; an input's gradient reuses `dy` where the shapes
            // match.
            match &self.nodes[i].op {
                Op::Leaf | Op::Param(_) => {} // skipped above
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.add_grad(a, dy.clone());
                    self.add_grad(b, dy);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    let db = dy.scale(-1.0);
                    self.add_grad(a, dy);
                    self.add_grad(b, db);
                }
                Op::MulElem(a, b) => {
                    let (a, b) = (*a, *b);
                    let db = dy.mul(&self.nodes[a.0].value);
                    let mut da = dy;
                    for (g, bv) in da.data_mut().iter_mut().zip(self.nodes[b.0].value.data()) {
                        *g *= bv;
                    }
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut dx = dy;
                    for g in dx.data_mut() {
                        *g *= s;
                    }
                    self.add_grad(a, dx);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let mut dx = dy;
                    kernels().relu_backward(dx.data_mut(), self.nodes[i].value.data());
                    self.add_grad(a, dx);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    let mut dx = dy;
                    kernels().sigmoid_backward(dx.data_mut(), self.nodes[i].value.data());
                    self.add_grad(a, dx);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let mut dx = dy;
                    kernels().tanh_backward(dx.data_mut(), self.nodes[i].value.data());
                    self.add_grad(a, dx);
                }
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    let av = self.value(a);
                    let bv = self.value(b);
                    let (m, k) = (av.shape()[0], av.shape()[1]);
                    let n = bv.shape()[1];
                    // dA = dY · Bᵀ ; dB = Aᵀ · dY
                    let mut da = Tensor::zeros(&[m, k]);
                    gemm_a_bt(dy.data(), bv.data(), da.data_mut(), m, n, k);
                    let mut db = Tensor::zeros(&[k, n]);
                    gemm_at_b(av.data(), dy.data(), db.data_mut(), k, m, n);
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::AddRowBias { x, bias } => {
                    let (x, bias) = (*x, *bias);
                    let f = self.nodes[bias.0].value.len();
                    let n = dy.len() / f;
                    let mut db = Tensor::zeros(&[f]);
                    for row in 0..n {
                        for (g, d) in db.data_mut().iter_mut().zip(&dy.data()[row * f..]) {
                            *g += d;
                        }
                    }
                    self.add_grad(x, dy);
                    self.add_grad(bias, db);
                }
                Op::Conv2d { x, w, bias, spec } => {
                    let (x, w, bias, spec) = (*x, *w, *bias, *spec);
                    let (dx, dw, db) = conv2d_backward(
                        &self.nodes[x.0].value,
                        &self.nodes[w.0].value,
                        &dy,
                        &spec,
                    );
                    self.add_grad(x, dx);
                    self.add_grad(w, dw);
                    if let Some(b) = bias {
                        let len = db.len();
                        self.add_grad(b, Tensor::from_vec(&[len], db));
                    }
                }
                Op::ConvT2d { x, w, bias, spec } => {
                    let (x, w, bias, spec) = (*x, *w, *bias, *spec);
                    let (dx, dw, db) = conv_transpose2d_backward(
                        &self.nodes[x.0].value,
                        &self.nodes[w.0].value,
                        &dy,
                        &spec,
                    );
                    self.add_grad(x, dx);
                    self.add_grad(w, dw);
                    if let Some(b) = bias {
                        let len = db.len();
                        self.add_grad(b, Tensor::from_vec(&[len], db));
                    }
                }
                // Both average pools spread each output's gradient evenly
                // over the `per` inputs it averaged.
                Op::ChannelAvgPool(x) | Op::GroupAvgPool(x) => {
                    let x = *x;
                    // An empty batch has no outputs and so no `per`.
                    let per = self.nodes[x.0].value.len().checked_div(dy.len()).unwrap_or(0);
                    let mut dx = Tensor::zeros(self.nodes[x.0].value.shape());
                    for (j, &d) in dy.data().iter().enumerate() {
                        let g = d / per as f32;
                        for v in &mut dx.data_mut()[j * per..(j + 1) * per] {
                            *v = g;
                        }
                    }
                    self.add_grad(x, dx);
                }
                Op::ChannelMaxPool { x, argmax }
                | Op::GroupMaxPool { x, argmax }
                | Op::MaxOverChannels { x, argmax } => {
                    let x = *x;
                    let mut dx = Tensor::zeros(self.nodes[x.0].value.shape());
                    for (j, &flat) in argmax.iter().enumerate() {
                        dx.data_mut()[flat] += dy.data()[j];
                    }
                    self.add_grad(x, dx);
                }
                Op::MeanOverChannels(x) => {
                    let x = *x;
                    let [n, c, h, w] = dims4(&self.nodes[x.0].value);
                    let hw = h * w;
                    let inv = 1.0 / c as f32;
                    let mut dx = Tensor::zeros(&[n, c, h, w]);
                    for s in 0..n {
                        for ch in 0..c {
                            let dst = &mut dx.data_mut()[(s * c + ch) * hw..(s * c + ch + 1) * hw];
                            for (v, g) in dst.iter_mut().zip(&dy.data()[s * hw..(s + 1) * hw]) {
                                *v = g * inv;
                            }
                        }
                    }
                    self.add_grad(x, dx);
                }
                // A channel weight is a group weight with one channel per
                // group: each weight scales a run of `per` contiguous inputs.
                Op::MulChannel { x, w } | Op::MulGroup { x, w } => {
                    let (x, w) = (*x, *w);
                    let xv = self.nodes[x.0].value.data();
                    let wv = self.nodes[w.0].value.data();
                    let per = xv.len().checked_div(wv.len()).unwrap_or(0);
                    let mut dx = dy;
                    let mut dw = Tensor::zeros(self.nodes[w.0].value.shape());
                    for (j, &s) in wv.iter().enumerate() {
                        let mut acc = 0.0;
                        for (g, xval) in dx.data_mut()[j * per..(j + 1) * per]
                            .iter_mut()
                            .zip(&xv[j * per..(j + 1) * per])
                        {
                            acc += *g * xval;
                            *g *= s;
                        }
                        dw.data_mut()[j] = acc;
                    }
                    self.add_grad(x, dx);
                    self.add_grad(w, dw);
                }
                Op::MulSpatial { x, w } => {
                    let (x, w) = (*x, *w);
                    let [n, c, h, wd] = dims4(&self.nodes[x.0].value);
                    let hw = h * wd;
                    let xv = self.nodes[x.0].value.data();
                    let wv = self.nodes[w.0].value.data();
                    let mut dx = dy;
                    let mut dw = Tensor::zeros(&[n, 1, h, wd]);
                    for s in 0..n {
                        for ch in 0..c {
                            let base = (s * c + ch) * hw;
                            for p in 0..hw {
                                let g = dx.data()[base + p];
                                dw.data_mut()[s * hw + p] += g * xv[base + p];
                                dx.data_mut()[base + p] = g * wv[s * hw + p];
                            }
                        }
                    }
                    self.add_grad(x, dx);
                    self.add_grad(w, dw);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let fa = self.nodes[a.0].value.shape()[1];
                    let fb = self.nodes[b.0].value.shape()[1];
                    let n = self.nodes[a.0].value.shape()[0];
                    let mut da = Tensor::zeros(&[n, fa]);
                    let mut db = Tensor::zeros(&[n, fb]);
                    for row in 0..n {
                        da.data_mut()[row * fa..(row + 1) * fa]
                            .copy_from_slice(&dy.data()[row * (fa + fb)..row * (fa + fb) + fa]);
                        db.data_mut()[row * fb..(row + 1) * fb].copy_from_slice(
                            &dy.data()[row * (fa + fb) + fa..(row + 1) * (fa + fb)],
                        );
                    }
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::ConcatChannels(a, b) => {
                    let (a, b) = (*a, *b);
                    let [n, ca, h, w] = dims4(&self.nodes[a.0].value);
                    let cb = self.nodes[b.0].value.shape()[1];
                    let hw = h * w;
                    let mut da = Tensor::zeros(&[n, ca, h, w]);
                    let mut db = Tensor::zeros(&[n, cb, h, w]);
                    for s in 0..n {
                        let src = &dy.data()[s * (ca + cb) * hw..(s + 1) * (ca + cb) * hw];
                        da.data_mut()[s * ca * hw..(s + 1) * ca * hw]
                            .copy_from_slice(&src[..ca * hw]);
                        db.data_mut()[s * cb * hw..(s + 1) * cb * hw]
                            .copy_from_slice(&src[ca * hw..]);
                    }
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::SliceCols { x, start, len } => {
                    let (x, start, len) = (*x, *start, *len);
                    let f = self.nodes[x.0].value.shape()[1];
                    let n = self.nodes[x.0].value.shape()[0];
                    let mut dx = Tensor::zeros(&[n, f]);
                    for row in 0..n {
                        dx.data_mut()[row * f + start..row * f + start + len]
                            .copy_from_slice(&dy.data()[row * len..(row + 1) * len]);
                    }
                    self.add_grad(x, dx);
                }
                Op::Reshape(x) => {
                    let x = *x;
                    let dx = dy.into_reshaped(self.nodes[x.0].value.shape());
                    self.add_grad(x, dx);
                }
                Op::MeanAll(x) => {
                    let x = *x;
                    let n = self.nodes[x.0].value.len();
                    let g = dy.data()[0] / n as f32;
                    self.add_grad(x, Tensor::full(self.nodes[x.0].value.shape(), g));
                }
                Op::LayerNorm { x, gamma, beta, mean, rstd } => {
                    let (x, gamma, beta) = (*x, *gamma, *beta);
                    let xv = self.value(x);
                    let gv = self.nodes[gamma.0].value.data();
                    let f = gv.len();
                    let rows = xv.len() / f;
                    let mut dx = Tensor::zeros(xv.shape());
                    let mut dgamma = Tensor::zeros(&[f]);
                    let mut dbeta = Tensor::zeros(&[f]);
                    let mut dxhat = vec![0.0_f32; f];
                    let kern = kernels();
                    for r in 0..rows {
                        let xr = &xv.data()[r * f..(r + 1) * f];
                        let dyr = &dy.data()[r * f..(r + 1) * f];
                        kern.layer_norm_backward_row(
                            xr,
                            dyr,
                            gv,
                            mean[r],
                            rstd[r],
                            &mut dxhat,
                            &mut dx.data_mut()[r * f..(r + 1) * f],
                            dgamma.data_mut(),
                            dbeta.data_mut(),
                        );
                    }
                    self.add_grad(x, dx);
                    self.add_grad(gamma, dgamma);
                    self.add_grad(beta, dbeta);
                }
                Op::External { x, grad } => {
                    let x = *x;
                    let g = grad.scale(dy.data()[0]);
                    self.add_grad(x, g);
                }
            }
        }

        // Move parameter gradients to the sink in node order.
        for node in &mut self.nodes {
            if let Op::Param(id) = node.op {
                if let Some(g) = node.grad.take() {
                    sink(id, g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::stream_rng;

    /// Numeric gradient of `f` with respect to element `idx` of `x0`.
    fn numeric_grad(
        x0: &Tensor,
        idx: usize,
        f: impl Fn(&Tensor) -> f32,
    ) -> f32 {
        let eps = 1e-2;
        let mut xp = x0.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x0.clone();
        xm.data_mut()[idx] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    }

    /// Checks the tape gradient of a scalar function built by `build`
    /// against finite differences at a handful of coordinates.
    fn grad_check(x0: Tensor, build: impl Fn(&mut Tape, Var) -> Var) {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        assert_eq!(tape.value(loss).len(), 1, "loss must be scalar");
        tape.backward(loss, &mut store);
        let analytic = tape.grad(x).expect("input grad").clone();
        let eval = |xt: &Tensor| {
            let mut t = Tape::new();
            let v = t.leaf(xt.clone());
            let l = build(&mut t, v);
            t.value(l).data()[0]
        };
        let step = (x0.len() / 7).max(1);
        for idx in (0..x0.len()).step_by(step) {
            let num = numeric_grad(&x0, idx, eval);
            let ana = analytic.data()[idx];
            assert!(
                (ana - num).abs() < 3e-2 * (1.0 + num.abs()),
                "idx {idx}: analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn add_mul_scale_grads() {
        let mut rng = stream_rng(1, "g");
        let x0 = Tensor::randn(&[2, 3], 1.0, &mut rng);
        grad_check(x0, |t, x| {
            let y = t.mul(x, x); // x²
            let z = t.scale(y, 3.0);
            let w = t.add(z, x);
            t.mean_all(w)
        });
    }

    #[test]
    fn activation_grads() {
        let mut rng = stream_rng(2, "g");
        let x0 = Tensor::randn(&[3, 4], 1.0, &mut rng);
        grad_check(x0.clone(), |t, x| {
            let y = t.sigmoid(x);
            t.mean_all(y)
        });
        grad_check(x0.clone(), |t, x| {
            let y = t.tanh(x);
            t.mean_all(y)
        });
        grad_check(x0, |t, x| {
            let y = t.relu(x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn matmul_grads() {
        let mut rng = stream_rng(3, "g");
        let x0 = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 2], 1.0, &mut rng);
        grad_check(x0, move |t, x| {
            let wv = t.leaf(w.clone());
            let y = t.matmul(x, wv);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn pooling_grads() {
        let mut rng = stream_rng(4, "g");
        let x0 = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        grad_check(x0.clone(), |t, x| {
            let y = t.channel_avg_pool(x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
        grad_check(x0.clone(), |t, x| {
            let y = t.channel_max_pool(x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
        grad_check(x0.clone(), |t, x| {
            let y = t.group_avg_pool(x, 2);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
        grad_check(x0, |t, x| {
            let y = t.group_max_pool(x, 2);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn channel_reduction_grads() {
        let mut rng = stream_rng(5, "g");
        let x0 = Tensor::randn(&[2, 3, 2, 2], 1.0, &mut rng);
        grad_check(x0.clone(), |t, x| {
            let y = t.mean_over_channels(x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
        grad_check(x0, |t, x| {
            let y = t.max_over_channels(x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn broadcast_mul_grads() {
        let mut rng = stream_rng(6, "g");
        let x0 = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        grad_check(x0.clone(), |t, x| {
            let w = t.channel_avg_pool(x);
            let ws = t.sigmoid(w);
            let y = t.mul_channel(x, ws);
            t.mean_all(y)
        });
        grad_check(x0.clone(), |t, x| {
            let w = t.group_avg_pool(x, 2);
            let ws = t.sigmoid(w);
            let y = t.mul_group(x, ws, 2);
            t.mean_all(y)
        });
        grad_check(x0, |t, x| {
            let m = t.mean_over_channels(x);
            let ms = t.sigmoid(m);
            let y = t.mul_spatial(x, ms);
            t.mean_all(y)
        });
    }

    #[test]
    fn conv_op_grads() {
        let mut rng = stream_rng(7, "g");
        let x0 = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.4, &mut rng);
        grad_check(x0.clone(), move |t, x| {
            let wv = t.leaf(w.clone());
            let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, pad: 1 };
            let y = t.conv2d(x, wv, None, spec);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
        let wt = Tensor::randn(&[2, 3, 4, 4], 0.3, &mut rng);
        grad_check(x0, move |t, x| {
            let wv = t.leaf(wt.clone());
            let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 4, stride: 2, pad: 1 };
            let y = t.conv_transpose2d(x, wv, None, spec);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn concat_slice_reshape_grads() {
        let mut rng = stream_rng(8, "g");
        let x0 = Tensor::randn(&[2, 6], 1.0, &mut rng);
        grad_check(x0.clone(), |t, x| {
            let a = t.slice_cols(x, 0, 3);
            let b = t.slice_cols(x, 3, 3);
            let ab = t.mul(a, b);
            let cat = t.concat_cols(ab, a);
            let sq = t.mul(cat, cat);
            t.mean_all(sq)
        });
        grad_check(x0.clone(), |t, x| {
            let r = t.reshape(x, &[2, 1, 2, 3]);
            let r2 = t.mul(r, r);
            t.mean_all(r2)
        });
        let x4 = Tensor::randn(&[1, 2, 2, 2], 1.0, &mut rng);
        grad_check(x4, |t, x| {
            let y = t.concat_channels(x, x);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn layer_norm_grads() {
        let mut rng = stream_rng(9, "g");
        let x0 = Tensor::randn(&[3, 5], 1.0, &mut rng);
        grad_check(x0, |t, x| {
            let gamma = t.leaf(Tensor::full(&[5], 1.3));
            let beta = t.leaf(Tensor::full(&[5], -0.2));
            let y = t.layer_norm(x, gamma, beta);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]));
        let gamma = tape.leaf(Tensor::full(&[4], 1.0));
        let beta = tape.leaf(Tensor::full(&[4], 0.0));
        let y = tape.layer_norm(x, gamma, beta);
        let data = tape.value(y).data();
        let mean: f32 = data.iter().sum::<f32>() / 4.0;
        let var: f32 = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn external_loss_injects_gradient() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[2], vec![1.0, 2.0]));
        let g = Tensor::from_vec(&[2], vec![0.5, -1.5]);
        let loss = tape.external_loss(x, 7.0, g.clone());
        assert_eq!(tape.value(loss).data(), &[7.0]);
        let scaled = tape.scale(loss, 2.0);
        tape.backward(scaled, &mut store);
        let dx = tape.grad(x).unwrap();
        assert_eq!(dx.data(), &[1.0, -3.0]);
    }

    #[test]
    fn param_gradients_accumulate_into_store() {
        let mut store = ParamStore::new();
        let w_id = store.add("w", Tensor::from_vec(&[2, 1], vec![1.0, -1.0]));
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 2], vec![3.0, 4.0]));
        let w = tape.param(&store, w_id);
        let y = tape.matmul(x, w);
        let loss = tape.mean_all(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(w_id).data(), &[3.0, 4.0]);
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        // y = x + x ⇒ dy/dx = 2.
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1], vec![5.0]));
        let y = tape.add(x, x);
        let loss = tape.mean_all(y);
        tape.backward(loss, &mut store);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn relu_keeps_the_bits_of_the_branchy_definition() {
        // The old form: `if *x < 0.0 { *x = 0.0 }`.
        let branchy = |x: f32| if x < 0.0 { 0.0 } else { x };
        let nan_with_payload = f32::from_bits(0x7fc0_1234);
        let mut inputs = vec![-1.0, -0.0, 0.0, 1.0, f32::from_bits(1), -f32::from_bits(1)];
        // The numeric sanitizer traps a non-finite leaf by design, so only
        // builds without it can push these through the op.
        if !cfg!(feature = "sanitize-numerics") {
            inputs.extend([f32::INFINITY, f32::NEG_INFINITY, nan_with_payload, -nan_with_payload]);
        }
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[inputs.len()], inputs.clone()));
        let y = tape.relu(x);
        let got: Vec<u32> = tape.value(y).data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = inputs.iter().map(|&v| branchy(v).to_bits()).collect();
        assert_eq!(got, want);
        // Spelled out: −0.0 and NaN payloads pass through, negatives clamp
        // to +0.0.
        assert_eq!(got[1], (-0.0_f32).to_bits());
        assert_eq!(got[5], 0);
        if let Some(&nan) = got.get(8) {
            assert_eq!(nan, 0x7fc0_1234);
        }
    }

    /// A graph that registers `w` twice and `b` once, around a leaf `x`.
    fn two_use_graph(store: &ParamStore, w_id: ParamId, b_id: ParamId) -> (Tape, Var, [Var; 4]) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 2], vec![3.0, -4.0]));
        let w1 = tape.param(store, w_id);
        let b = tape.param(store, b_id);
        let w2 = tape.param(store, w_id);
        let h = tape.matmul(x, w1);
        let h = tape.add_row_bias(h, b);
        let h = tape.tanh(h);
        let y = tape.matmul(h, w2);
        let loss = tape.mean_all(y);
        (tape, loss, [x, w1, b, w2])
    }

    fn two_use_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w_id = store.add("w", Tensor::from_vec(&[2, 2], vec![0.5, -1.0, 0.25, 2.0]));
        let b_id = store.add("b", Tensor::from_vec(&[2], vec![0.1, -0.2]));
        (store, w_id, b_id)
    }

    #[test]
    fn backward_with_moves_one_gradient_per_parameter_node_in_node_order() {
        let (store, w_id, b_id) = two_use_store();
        let (mut tape, loss, [x, w1, b, w2]) = two_use_graph(&store, w_id, b_id);
        let mut delivered = Vec::new();
        tape.backward_with(loss, |id, g| delivered.push((id, g)));
        let ids: Vec<ParamId> = delivered.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [w_id, b_id, w_id], "node order; w arrives once per use");
        for ((_, g), id) in delivered.iter().zip(ids) {
            assert_eq!(g.shape(), store.value(id).shape());
        }
        // The two uses of w see different gradients.
        assert_ne!(delivered[0].1.data(), delivered[2].1.data());
        // The gradients left the tape; the leaf's stays readable.
        for v in [w1, b, w2] {
            assert!(tape.grad(v).is_none(), "parameter node keeps no gradient");
        }
        assert!(tape.grad(loss).is_none(), "interior node keeps no gradient");
        assert!(tape.grad(x).is_some());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn empty_batch_backward_routes_empty_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[0, 4, 2, 2]));
        let c = tape.channel_avg_pool(x);
        let y = tape.mul_channel(x, c);
        let g = tape.group_avg_pool(y, 2);
        let y = tape.mul_group(y, g, 2);
        let loss = tape.mean_all(y);
        tape.backward(loss, &mut ParamStore::new());
        assert_eq!(tape.grad(x).expect("leaf gradient").shape(), &[0, 4, 2, 2]);
    }

    #[test]
    fn param_nodes_share_the_store_value() {
        let (store, w_id, b_id) = two_use_store();
        let (tape, _, [_, w1, b, w2]) = two_use_graph(&store, w_id, b_id);
        for (v, id) in [(w1, w_id), (b, b_id), (w2, w_id)] {
            assert_eq!(tape.value(v).data().as_ptr(), store.value(id).data().as_ptr());
        }
    }

    /// Registers `w` on a tape, lets `write` change it in the store, and
    /// checks that the tape's nodes still read the bits they registered.
    fn assert_tape_keeps_bits(writer: &str, write: impl FnOnce(&mut ParamStore, ParamId)) {
        let (mut store, w_id, b_id) = two_use_store();
        let (tape, _, [_, w1, _, w2]) = two_use_graph(&store, w_id, b_id);
        let before = bits(store.value(w_id));
        write(&mut store, w_id);
        assert_ne!(bits(store.value(w_id)), before, "{writer} must write the store");
        for v in [w1, w2] {
            assert_eq!(bits(tape.value(v)), before, "{writer} reached a tape node");
        }
    }

    #[test]
    fn param_nodes_keep_their_bits_when_the_store_is_written() {
        assert_tape_keeps_bits("Adam::step", |store, id| {
            store.accumulate_grad(id, &Tensor::full(store.value(id).shape(), 1.0));
            crate::optim::Adam::new(0.1).step(store);
        });
        assert_tape_keeps_bits("value_mut", |store, id| store.value_mut(id).data_mut()[0] = 42.0);
        assert_tape_keeps_bits("restore", |store, _| {
            store.restore(&vec![7.0; store.scalar_count()]);
        });
    }

    #[test]
    fn backward_accumulates_the_moved_gradients_bitwise() {
        // `backward` into a store with non-zero accumulators must equal
        // adding the sink's gradients one by one in delivery order.
        let (mut store, w_id, b_id) = two_use_store();
        store.accumulate_grad(w_id, &Tensor::from_vec(&[2, 2], vec![1e-3, -0.0, 7.5, -2.25]));
        store.accumulate_grad(b_id, &Tensor::from_vec(&[2], vec![-0.0, 0.125]));
        let mut expected = store.clone();

        let (mut tape, loss, _) = two_use_graph(&store, w_id, b_id);
        tape.backward(loss, &mut store);

        let (mut tape, loss, _) = two_use_graph(&expected, w_id, b_id);
        let mut delivered = Vec::new();
        tape.backward_with(loss, |id, g| delivered.push((id, g)));
        for (id, g) in &delivered {
            expected.accumulate_grad(*id, g);
        }
        for id in [w_id, b_id] {
            let got: Vec<u32> = store.grad(id).data().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = expected.grad(id).data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{}", store.name(id));
        }
    }

    #[test]
    #[should_panic(expected = "external_loss")]
    fn external_loss_shape_checked() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[3]));
        tape.external_loss(x, 0.0, Tensor::zeros(&[2]));
    }

    #[test]
    fn mismatched_graph_rejected_at_construction() {
        // Each builder runs its shape rule first and panics naming the op;
        // the rejected op pushes no node, so the tape stays usable.
        fn rejection(build: impl FnOnce()) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
                .expect_err("mismatched graph must be rejected");
            payload.downcast_ref::<String>().cloned().unwrap_or_default()
        }
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3, 4]));
        let b = tape.leaf(Tensor::zeros(&[5, 2]));
        let e = rejection(|| {
            tape.matmul(a, b);
        });
        assert!(e.contains("\"matmul\"") && e.contains("inner dimensions"), "{e}");
        let e = rejection(|| {
            tape.add(a, b);
        });
        assert!(e.contains("\"add\""), "{e}");

        let x = tape.leaf(Tensor::zeros(&[1, 2, 4, 4]));
        let w = tape.leaf(Tensor::zeros(&[3, 2, 3, 3]));
        let bad_spec =
            ConvSpec { in_channels: 4, out_channels: 3, kernel: 3, stride: 1, pad: 1 };
        let e = rejection(|| {
            tape.conv2d(x, w, None, bad_spec);
        });
        assert!(e.contains("\"conv2d\""), "{e}");

        // A good graph still builds on the same tape after rejections.
        let ok_spec =
            ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, pad: 1 };
        let y = tape.conv2d(x, w, None, ok_spec);
        assert_eq!(tape.value(y).shape(), &[1, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn infallible_builder_panics_with_op_name() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3, 4]));
        let b = tape.leaf(Tensor::zeros(&[5, 2]));
        tape.matmul(a, b);
    }
}
