//! Post-training int8 quantization of matmul parameters.
//!
//! The inference-only counterpart of [`crate::param::ParamStore`]:
//! a [`QuantizedParamStore`] holds, for every parameter that appears as
//! the right-hand side of a [`crate::tape::Tape`] matmul (the `Linear`
//! weights and the LSTM input/recurrent kernels — never biases or conv
//! filters), a transposed int8 copy of the weights plus the scales needed
//! to run the product as `i8×i8→i32` and dequantize the output.
//!
//! # Scheme
//!
//! * **Weights** — per-output-channel symmetric scales: column `o` of a
//!   `(k, n)` weight gets `sw[o] = absmax(col o) / 127`, and the column is
//!   stored transposed (`(n, k)` row-major) so each output's dot product
//!   reads contiguous i8.
//! * **Activations** — one per-tensor symmetric scale from calibration:
//!   `sx = p99.9(|x|) / 127` over every activation the parameter saw during
//!   the calibration pass. Using the 99.9th percentile instead of the max
//!   trades the extreme tail (counted by `quant.calibration.clips`) for
//!   resolution over the bulk of the distribution.
//! * **Accumulation** — exact `i32`: `i8×i8` products are ≤ 127² = 16129,
//!   so tens of thousands of k-steps fit without overflow. Exactness is
//!   what makes the int8 path deterministic across kernel backends and
//!   batch shapes — integer addition is associative.
//! * **Dequantization** — at the matmul output: `y[o] = acc[o] · sx·sw[o]`,
//!   with the combined scale precomputed per channel. Everything downstream
//!   (biases, gates, the regression and mesh heads) stays f32.
//!
//! Activations that land outside ±127 at inference time are clamped and
//! counted in `quant.saturations`.
//!
//! Training never touches this module: quantization is computed once from
//! a trained store ([`Calibrator::finish`]) and consumed by inference tapes
//! built with [`crate::tape::Tape::with_quantized`].

use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use mmhand_parallel::ScratchPool;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread scratch for one quantized activation row.
    static QUANT_X: ScratchPool<i8> = const { ScratchPool::new("nn.quant.x") };
    /// Per-thread scratch for one row of i32 accumulators.
    static QUANT_ACC: ScratchPool<i32> = const { ScratchPool::new("nn.quant.acc") };
}

/// Quantization telemetry, resolved once: activation values clipped by the
/// calibration percentile, and runtime activations clamped to ±127.
fn quant_metrics() -> &'static (mmhand_telemetry::Counter, mmhand_telemetry::Counter) {
    static METRICS: OnceLock<(mmhand_telemetry::Counter, mmhand_telemetry::Counter)> =
        OnceLock::new();
    METRICS.get_or_init(|| {
        (
            mmhand_telemetry::counter("quant.calibration.clips"),
            mmhand_telemetry::counter("quant.saturations"),
        )
    })
}

/// Rounds to the nearest integer (half away from zero), clamps to ±127,
/// and reports whether the value saturated.
#[inline]
fn quantize_one(v: f32) -> (i8, bool) {
    let r = v.round();
    let sat = !(-127.0..=127.0).contains(&r);
    (r.clamp(-127.0, 127.0) as i8, sat)
}

/// One quantized parameter: transposed int8 weights plus dequant scales.
pub struct QuantizedParam {
    /// `(n, k)` row-major int8 weights — output channel `o`'s column stored
    /// contiguously at `wt[o·k .. (o+1)·k]`.
    wt: Vec<i8>,
    /// Inner (input) dimension.
    k: usize,
    /// Output channels.
    n: usize,
    /// Per-channel dequant scale `sx · sw[o]`.
    combined: Vec<f32>,
    /// `1 / sx` — multiplies activations before rounding to i8.
    inv_act_scale: f32,
}

/// Int8 copies of a model's matmul parameters, indexed by [`ParamId`].
///
/// Built once from a trained [`ParamStore`] by a [`Calibrator`]; shared
/// (behind an `Arc`) by every inference tape of a quantized pipeline.
#[derive(Default)]
pub struct QuantizedParamStore {
    /// Indexed by the parameter's store slot; `None` for parameters that
    /// were not observed as a matmul right-hand side.
    entries: Vec<Option<QuantizedParam>>,
}

impl QuantizedParamStore {
    /// `true` if `id` has a quantized copy.
    pub fn contains(&self, id: ParamId) -> bool {
        self.entries.get(id.0).is_some_and(Option::is_some)
    }

    pub(crate) fn get(&self, id: ParamId) -> Option<&QuantizedParam> {
        self.entries.get(id.0).and_then(Option::as_ref)
    }

    /// Number of parameters with a quantized copy.
    pub fn quantized_params(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// `true` when no parameter was quantized.
    pub fn is_empty(&self) -> bool {
        self.quantized_params() == 0
    }

    /// Bytes held by the quantized copies (i8 weights + f32 scales).
    pub fn quantized_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|q| q.wt.len() + (q.combined.len() + 1) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Bytes the same parameters occupy in f32 — the memory the int8 path
    /// saves is `f32_bytes() − quantized_bytes()`.
    pub fn f32_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|q| q.wt.len() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Collects per-parameter activation ranges during a calibration pass and
/// builds the [`QuantizedParamStore`].
///
/// Run a few representative forward passes on ordinary f32 tapes, harvest
/// each finished tape with [`crate::tape::Tape::observe_param_matmuls`]
/// into [`Calibrator::observe`], then call [`Calibrator::finish`].
#[derive(Default)]
pub struct Calibrator {
    /// `|x|` of every activation element each parameter saw, by store slot.
    samples: Vec<Vec<f32>>,
}

/// Calibration percentile for the per-tensor activation scale.
const ACT_PERCENTILE: f64 = 0.999;

impl Calibrator {
    /// Creates an empty calibrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the activations `x` fed to parameter `id` as a matmul
    /// left-hand side.
    pub fn observe(&mut self, id: ParamId, x: &Tensor) {
        if self.samples.len() <= id.0 {
            self.samples.resize_with(id.0 + 1, Vec::new);
        }
        self.samples[id.0].extend(x.data().iter().map(|v| v.abs()));
    }

    /// `true` if no activations have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.iter().all(Vec::is_empty)
    }

    /// Computes activation and per-channel weight scales and quantizes
    /// every observed parameter from `store`.
    ///
    /// # Panics
    ///
    /// Panics if an observed parameter is not a 2-D `(k, n)` matrix (only
    /// matmul right-hand sides are observable, so this indicates misuse of
    /// [`Calibrator::observe`]).
    pub fn finish(self, store: &ParamStore) -> QuantizedParamStore {
        let (clips, _) = quant_metrics();
        let mut entries: Vec<Option<QuantizedParam>> = Vec::with_capacity(self.samples.len());
        for (slot, mut abs) in self.samples.into_iter().enumerate() {
            if abs.is_empty() {
                entries.push(None);
                continue;
            }
            // Per-tensor activation scale from the calibration percentile.
            abs.sort_by(f32::total_cmp);
            let idx = (((abs.len() as f64) * ACT_PERCENTILE).ceil() as usize)
                .clamp(1, abs.len())
                - 1;
            let threshold = abs[idx];
            let clipped = abs.iter().skip(idx + 1).filter(|&&v| v > threshold).count();
            clips.add(clipped as u64);
            let sx = if threshold > 0.0 { threshold / 127.0 } else { 1.0 };

            // Per-output-channel symmetric weight scales, stored transposed.
            let id = ParamId(slot);
            let w = store.value(id);
            let (k, n) = match *w.shape() {
                [k, n] => (k, n),
                #[expect(clippy::panic, reason = "the tape only observes 2-D matmul weights")]
                ref s => panic!(
                    "calibrated parameter `{}` has shape {s:?}; matmul weights are 2-D",
                    store.name(id)
                ),
            };
            let wd = w.data();
            let mut wt = vec![0i8; n * k];
            let mut combined = vec![0.0f32; n];
            for o in 0..n {
                let absmax = (0..k).map(|kk| wd[kk * n + o].abs()).fold(0.0f32, f32::max);
                let sw = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
                for kk in 0..k {
                    // absmax/sw == 127 exactly, so weights never saturate.
                    let (q, _) = quantize_one(wd[kk * n + o] / sw);
                    wt[o * k + kk] = q;
                }
                combined[o] = sx * sw;
            }
            entries.push(Some(QuantizedParam {
                wt,
                k,
                n,
                combined,
                inv_act_scale: 1.0 / sx,
            }));
        }
        QuantizedParamStore { entries }
    }
}

/// `(m, k) · (k, n)` matmul through the int8 path: each activation row is
/// quantized with the per-tensor scale, multiplied through the dispatched
/// [`mmhand_kernels::Kernels::qgemm_row_i8`] kernel with exact i32
/// accumulation, and dequantized with the per-channel combined scales.
pub(crate) fn matmul_i8(qp: &QuantizedParam, x: &Tensor) -> Tensor {
    let m = x.shape()[0];
    debug_assert_eq!(x.shape()[1], qp.k, "quantized matmul inner dimension");
    let kern = mmhand_kernels::kernels();
    let mut out = Tensor::zeros(&[m, qp.n]);
    let xs = x.data();
    let od = out.data_mut();
    let mut saturated = 0u64;
    QUANT_X.with(|xq_pool| {
        QUANT_ACC.with(|acc_pool| {
            xq_pool.with(qp.k, |xq| {
                acc_pool.with(qp.n, |acc| {
                    for i in 0..m {
                        let row = &xs[i * qp.k..(i + 1) * qp.k];
                        for (dst, &v) in xq.iter_mut().zip(row) {
                            let (q, sat) = quantize_one(v * qp.inv_act_scale);
                            saturated += sat as u64;
                            *dst = q;
                        }
                        kern.qgemm_row_i8(xq, &qp.wt, acc, qp.k, qp.n);
                        let orow = &mut od[i * qp.n..(i + 1) * qp.n];
                        for ((o, &a), &c) in orow.iter_mut().zip(acc.iter()).zip(&qp.combined) {
                            *o = a as f32 * c;
                        }
                    }
                })
            })
        })
    });
    if saturated > 0 {
        let (_, saturations) = quant_metrics();
        saturations.add(saturated);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhand_math::rng::{standard_normal, stream_rng};

    fn randn(rng: &mut rand::rngs::StdRng, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| standard_normal(rng)).collect())
    }

    /// Builds a store with one (k, n) weight and a calibrator that saw `x`.
    fn quantize_single(w: Tensor, x: &Tensor) -> (ParamStore, ParamId, QuantizedParamStore) {
        let mut store = ParamStore::new();
        let id = store.add("w", w);
        let mut cal = Calibrator::new();
        cal.observe(id, x);
        let q = cal.finish(&store);
        (store, id, q)
    }

    #[test]
    fn quantize_one_rounds_half_away_and_saturates() {
        assert_eq!(quantize_one(0.5), (1, false));
        assert_eq!(quantize_one(-0.5), (-1, false));
        assert_eq!(quantize_one(126.4), (126, false));
        assert_eq!(quantize_one(127.0), (127, false));
        assert_eq!(quantize_one(127.6), (127, true));
        assert_eq!(quantize_one(-300.0), (-127, true));
    }

    #[test]
    fn small_known_case_tracks_f32() {
        let w = Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(&[1, 2], vec![2.0, -1.0]);
        let (store, id, q) = quantize_single(w, &x);
        let exact = x.matmul(store.value(id));
        let got = matmul_i8(q.get(id).unwrap(), &x);
        // One quantization step is sx·sw ≤ (2/127)·(4/127); with k=2 and
        // rounding the worst case stays well inside 0.1 here.
        for (a, b) in exact.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_matmul_tracks_f32_within_quantization_error() {
        let mut rng = stream_rng(7, "quant");
        let w = randn(&mut rng, &[24, 16]);
        let x = randn(&mut rng, &[5, 24]);
        let (store, id, q) = quantize_single(w, &x);
        let exact = x.matmul(store.value(id));
        let got = matmul_i8(q.get(id).unwrap(), &x);
        // Error budget: ~k·(sx·sw)/2 per output in the worst case; with
        // standard-normal data the observed error is far smaller.
        let mut max_err = 0.0f32;
        let mut scale = 0.0f32;
        for (a, b) in exact.data().iter().zip(got.data()) {
            max_err = max_err.max((a - b).abs());
            scale = scale.max(a.abs());
        }
        assert!(max_err < 0.05 * scale.max(1.0), "max_err={max_err} scale={scale}");
    }

    #[test]
    fn batched_rows_match_single_rows_bitwise() {
        // Row independence: quantizing and multiplying a batch must equal
        // running each row alone — the serve batched-vs-sequential identity
        // for the int8 path rests on this.
        let mut rng = stream_rng(11, "quant-rows");
        let w = randn(&mut rng, &[10, 6]);
        let batch = randn(&mut rng, &[4, 10]);
        let (_store, id, q) = quantize_single(w, &batch);
        let qp = q.get(id).unwrap();
        let full = matmul_i8(qp, &batch);
        for i in 0..4 {
            let row =
                Tensor::from_vec(&[1, 10], batch.data()[i * 10..(i + 1) * 10].to_vec());
            let alone = matmul_i8(qp, &row);
            for (a, b) in full.data()[i * 6..(i + 1) * 6].iter().zip(alone.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn unobserved_params_are_not_quantized() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(&[2, 2]));
        let b = store.add("b", Tensor::from_vec(&[1, 1], vec![1.0]));
        let mut cal = Calibrator::new();
        cal.observe(b, &Tensor::from_vec(&[1, 1], vec![1.0]));
        let q = cal.finish(&store);
        assert!(!q.contains(a));
        assert!(q.contains(b));
        assert_eq!(q.quantized_params(), 1);
        assert!(q.quantized_bytes() < q.f32_bytes() * 4);
    }

    #[test]
    fn zero_weight_column_is_safe() {
        // An all-zero output channel must quantize to zeros with a guarded
        // scale, not divide by zero.
        let w = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 1.0, 0.0]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let (_store, id, q) = quantize_single(w, &x);
        let got = matmul_i8(q.get(id).unwrap(), &x);
        assert!(got.data()[1].abs() < 1e-6);
        assert!(got.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tape_intercepts_quantized_matmuls() {
        // End to end through the tape: calibrate via the observer, then a
        // `with_quantized` tape must produce exactly the int8-helper result
        // while tracking the f32 tape within quantization error.
        let mut store = ParamStore::new();
        let mut rng = stream_rng(5, "quant-tape");
        let w = store.add("w", randn(&mut rng, &[8, 4]));
        let x = randn(&mut rng, &[3, 8]);
        let mut tape = crate::tape::Tape::new();
        let xv = tape.leaf(x.clone());
        let wv = tape.param(&store, w);
        let y = tape.matmul(xv, wv);
        let f32_out = tape.value(y).clone();

        let mut cal = Calibrator::new();
        tape.observe_param_matmuls(|id, t| cal.observe(id, t));
        let q = std::sync::Arc::new(cal.finish(&store));
        assert!(q.contains(w));

        let mut qtape = crate::tape::Tape::with_quantized(q.clone());
        let xv = qtape.leaf(x.clone());
        let wv = qtape.param(&store, w);
        let y = qtape.matmul(xv, wv);
        let q_out = qtape.value(y).clone();

        let direct = matmul_i8(q.get(w).unwrap(), &x);
        for (a, b) in q_out.data().iter().zip(direct.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let worst = f32_out
            .data()
            .iter()
            .zip(q_out.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst < 0.2, "worst={worst}");
    }

    #[test]
    fn memory_win_is_roughly_4x() {
        let mut rng = stream_rng(3, "quant-mem");
        let w = randn(&mut rng, &[64, 32]);
        let x = randn(&mut rng, &[1, 64]);
        let (_store, _id, q) = quantize_single(w, &x);
        let ratio = q.f32_bytes() as f64 / q.quantized_bytes() as f64;
        assert!(ratio > 3.5, "ratio={ratio}");
    }
}
