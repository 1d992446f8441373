//! # mmhand-nn
//!
//! A small, pure-Rust deep-learning framework — the substrate replacing the
//! paper's PyTorch/GPU training stack. It provides exactly what the mmHand
//! architecture needs:
//!
//! * [`tensor`] — dense row-major `f32` tensors and GEMM kernels,
//! * [`tape`] — define-by-run reverse-mode autodiff over an op set covering
//!   convolutions, the attention pooling/broadcast primitives, LSTM
//!   building blocks and layer norm,
//! * [`conv`] — im2col-based convolution/transposed-convolution kernels,
//! * [`param`] — parameter storage with gradient accumulation and
//!   checkpointing,
//! * [`layers`] — `Linear`, `Conv2d`, `ConvTranspose2d`, `LayerNorm`,
//!   `Lstm`,
//! * [`optim`] — Adam with cosine learning-rate decay (the paper's §VI-A
//!   training configuration).
//!
//! Every differentiable op is verified against finite differences in its
//! module tests.
//!
//! # Examples
//!
//! ```
//! use mmhand_nn::param::ParamStore;
//! use mmhand_nn::tape::Tape;
//! use mmhand_nn::tensor::Tensor;
//!
//! // Minimise (w − 2)² by hand.
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(&[1], vec![0.0]));
//! for _ in 0..100 {
//!     store.zero_grad();
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&store, w);
//!     let t = tape.leaf(Tensor::from_vec(&[1], vec![2.0]));
//!     let d = tape.sub(wv, t);
//!     let sq = tape.mul(d, d);
//!     let loss = tape.mean_all(sq);
//!     tape.backward(loss, &mut store);
//!     let g = store.grad(w).data()[0];
//!     store.value_mut(w).data_mut()[0] -= 0.1 * g;
//! }
//! assert!((store.value(w).data()[0] - 2.0).abs() < 0.05);
//! ```

// Unit tests pin exact values; library code keeps `clippy::float_cmp`.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod conv;
pub mod gemm;
pub mod layers;
pub mod optim;
pub mod param;
pub mod quant;
pub mod sanitize;
pub mod shape;
pub mod tape;
pub mod tensor;

pub use conv::ConvSpec;
pub use layers::{Conv2d, ConvTranspose2d, LayerNorm, Linear, Lstm};
pub use optim::{Adam, CosineSchedule};
pub use param::{ParamId, ParamStore};
pub use quant::{Calibrator, QuantizedParamStore};
pub use shape::ShapeError;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
