//! Convolution primitives: im2col/col2im and the forward/backward kernels
//! shared by `Conv2d` and `ConvTranspose2d` tape ops.
//!
//! All functions operate on row-major `(N, C, H, W)` buffers. Transposed
//! convolution is implemented through the classic duality: its forward pass
//! is the data-gradient of a convolution and vice versa.

use crate::tensor::{gemm, gemm_a_bt, gemm_at_b, Tensor};
use mmhand_parallel::ScratchPool;

thread_local! {
    /// Per-thread scratch for im2col/col2im column matrices and gradient
    /// partials. Every worker (or the caller, when tasks run inline) reuses
    /// one steady-state buffer per shape across the per-sample loops, and
    /// pooled buffers come back zero-filled — exactly the state the old
    /// `vec![0.0; …]` allocations provided — so results are unchanged.
    static CONV_SCRATCH: ScratchPool<f32> = const { ScratchPool::new("nn.conv") };
}

/// Geometry of a 2-D convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvSpec {
    /// Output spatial size for an input of `h` (or `w`) pixels.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.pad;
        assert!(padded >= self.kernel, "kernel {} larger than padded input {padded}", self.kernel);
        (padded - self.kernel) / self.stride + 1
    }

    /// Input spatial size a transposed convolution produces from `h` pixels:
    /// `(h − 1)·stride − 2·pad + kernel`.
    pub fn transpose_out_size(&self, h: usize) -> usize {
        (h - 1) * self.stride + self.kernel - 2 * self.pad
    }

    /// `true` for a 1×1, stride-1, unpadded convolution, whose column
    /// matrix is the `(C, H·W)` sample itself.
    fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.pad == 0
    }
}

/// The output indices `o < out` whose input index `o·stride + tap − pad`
/// lies inside `0..extent`, as a half-open range (empty when none does).
fn valid_range(tap: usize, pad: usize, stride: usize, extent: usize, out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = if extent + pad > tap { (extent + pad - tap - 1) / stride + 1 } else { 0 };
    let hi = hi.min(out);
    (lo.min(hi), hi)
}

/// Unfolds one sample `(C, H, W)` into a `(C·k·k, Ho·Wo)` column matrix.
///
/// Works a row at a time: each `(channel, ky, kx)` tap's valid output rows
/// and columns are computed once, rows outside them are zero-filled whole,
/// and each valid row is one slice copy at stride 1 or one strided copy
/// otherwise. Every element of `cols` is written, with the input's exact
/// bits or `0.0`.
#[allow(clippy::too_many_arguments)] // hot inner kernel; a struct would obscure it
fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    ho: usize,
    wo: usize,
    cols: &mut [f32],
) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.pad);
    debug_assert_eq!(cols.len(), c * k * k * ho * wo);
    for ch in 0..c {
        let plane = &x[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            let (oy_lo, oy_hi) = valid_range(ky, pad, s, h, ho);
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * (ho * wo);
                let tap = &mut cols[row..row + ho * wo];
                let (ox_lo, ox_hi) = valid_range(kx, pad, s, w, wo);
                if ox_lo == ox_hi {
                    tap.fill(0.0);
                    continue;
                }
                tap[..oy_lo * wo].fill(0.0);
                tap[oy_hi * wo..].fill(0.0);
                let ix0 = ox_lo * s + kx - pad;
                for oy in oy_lo..oy_hi {
                    let iy = oy * s + ky - pad;
                    let src = &plane[iy * w + ix0..(iy + 1) * w];
                    let dst = &mut tap[oy * wo..(oy + 1) * wo];
                    dst[..ox_lo].fill(0.0);
                    dst[ox_hi..].fill(0.0);
                    let dst = &mut dst[ox_lo..ox_hi];
                    if s == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                            *d = *v;
                        }
                    }
                }
            }
        }
    }
}

/// Folds a `(C·k·k, Ho·Wo)` column matrix back into `(C, H, W)`,
/// accumulating overlapping contributions.
///
/// Taps run in ascending `(channel, ky, kx)` order and each tap touches a
/// pixel at most once, so every pixel sums its contributions in ascending
/// `(ky, kx)` order. Within a tap only the valid output rows and columns
/// are visited, one contiguous (stride 1) or strided (otherwise) run per
/// row.
#[allow(clippy::too_many_arguments)] // hot inner kernel; a struct would obscure it
fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &ConvSpec,
    ho: usize,
    wo: usize,
    x: &mut [f32],
) {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.pad);
    for ch in 0..c {
        let plane = &mut x[ch * h * w..(ch + 1) * h * w];
        for ky in 0..k {
            let (oy_lo, oy_hi) = valid_range(ky, pad, s, h, ho);
            for kx in 0..k {
                let row = ((ch * k + ky) * k + kx) * (ho * wo);
                let tap = &cols[row..row + ho * wo];
                let (ox_lo, ox_hi) = valid_range(kx, pad, s, w, wo);
                if ox_lo == ox_hi {
                    continue;
                }
                let ix0 = ox_lo * s + kx - pad;
                for oy in oy_lo..oy_hi {
                    let iy = oy * s + ky - pad;
                    let src = &tap[oy * wo + ox_lo..oy * wo + ox_hi];
                    let dst = &mut plane[iy * w + ix0..(iy + 1) * w];
                    if s == 1 {
                        for (d, v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, v) in dst.iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Convolution forward pass.
///
/// `x` is `(N, C, H, W)`, `weight` `(O, C, k, k)`, `bias` length `O` (or
/// empty for no bias). Returns `(N, O, Ho, Wo)`.
pub fn conv2d_forward(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &ConvSpec) -> Tensor {
    let [n, c, h, w] = dims4(x);
    assert_eq!(c, spec.in_channels, "input channels");
    let (o, k) = (spec.out_channels, spec.kernel);
    assert_eq!(weight.shape(), &[o, c, k, k], "weight shape");
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let mut out = Tensor::zeros(&[n, o, ho, wo]);
    let x_data = x.data();
    // One task per batch sample; each owns its output slice and scratch
    // column buffer, so samples are fully independent. A pointwise conv's
    // column matrix would be a copy of the sample, so it multiplies the
    // sample directly.
    mmhand_parallel::par_chunks_mut(out.data_mut(), o * ho * wo, |s, out_s| {
        let xs = &x_data[s * c * h * w..(s + 1) * c * h * w];
        if spec.is_pointwise() {
            gemm(weight.data(), xs, out_s, o, c, h * w);
        } else {
            CONV_SCRATCH.with(|pool| {
                pool.with(c * k * k * ho * wo, |cols| {
                    im2col(xs, c, h, w, spec, ho, wo, cols);
                    gemm(weight.data(), cols, out_s, o, c * k * k, ho * wo);
                });
            });
        }
        if !bias.is_empty() {
            for (oc, &b) in bias.iter().enumerate() {
                for v in &mut out_s[oc * ho * wo..(oc + 1) * ho * wo] {
                    *v += b;
                }
            }
        }
    });
    out
}

/// Convolution backward pass.
///
/// Returns `(dx, dweight, dbias)` for upstream gradient `dy`
/// of shape `(N, O, Ho, Wo)`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor, Vec<f32>) {
    let [n, c, h, w] = dims4(x);
    let (o, k) = (spec.out_channels, spec.kernel);
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    assert_eq!(dy.shape(), &[n, o, ho, wo], "dy shape");

    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let mut dw = Tensor::zeros(&[o, c, k, k]);
    // Not pooled: owned return value
    let mut db = vec![0.0_f32; o];

    // Each sample task owns its dx slice plus a private dW/db partial
    // stripe of one pooled buffer; partials are reduced on the caller in
    // ascending sample order, which reproduces the sequential accumulation
    // order exactly. Column scratch comes from the per-thread pool, so the
    // per-sample loop reuses one steady-state im2col buffer per worker
    // instead of allocating inside every task.
    let stripe = o * c * k * k + o;
    let x_data = x.data();
    let dy_data = dy.data();
    CONV_SCRATCH.with(|pool| {
        pool.with(n * stripe, |partials| {
            mmhand_parallel::scope(|sc| {
                for (s, (dxs, part)) in dx
                    .data_mut()
                    .chunks_mut(c * h * w)
                    .zip(partials.chunks_mut(stripe))
                    .enumerate()
                {
                    sc.spawn(move || {
                        let (dw_part, db_part) = part.split_at_mut(o * c * k * k);
                        let xs = &x_data[s * c * h * w..(s + 1) * c * h * w];
                        let dys = &dy_data[s * o * ho * wo..(s + 1) * o * ho * wo];
                        if spec.is_pointwise() {
                            // The columns are the sample itself, so
                            // dW_s = dY_s · xsᵀ. dx_s starts zeroed and
                            // col2im would add dcols onto it; a sum started
                            // at +0.0 is never −0.0, so 0 + dcols = dcols and
                            // Wᵀ · dY_s accumulates straight into dx_s.
                            gemm_a_bt(dys, xs, dw_part, o, ho * wo, c);
                            gemm_at_b(weight.data(), dys, dxs, c, o, ho * wo);
                        } else {
                            CONV_SCRATCH.with(|pool| {
                                pool.with(c * k * k * ho * wo, |cols| {
                                    im2col(xs, c, h, w, spec, ho, wo, cols);
                                    // dW_s = dY_s · colsᵀ  — (o, hw)·(hw, ckk)
                                    gemm_a_bt(dys, cols, dw_part, o, ho * wo, c * k * k);
                                });
                                // dcols = Wᵀ · dY_s — (ckk, o)·(o, hw)
                                pool.with(c * k * k * ho * wo, |dcols| {
                                    gemm_at_b(weight.data(), dys, dcols, c * k * k, o, ho * wo);
                                    col2im(dcols, c, h, w, spec, ho, wo, dxs);
                                });
                            });
                        }
                        for oc in 0..o {
                            db_part[oc] +=
                                dys[oc * ho * wo..(oc + 1) * ho * wo].iter().sum::<f32>();
                        }
                    });
                }
            });
            for part in partials.chunks(stripe) {
                let (dw_part, db_part) = part.split_at(o * c * k * k);
                for (acc, v) in dw.data_mut().iter_mut().zip(dw_part) {
                    *acc += v;
                }
                for (acc, v) in db.iter_mut().zip(db_part) {
                    *acc += v;
                }
            }
        });
    });
    (dx, dw, db)
}

/// Transposed-convolution forward pass.
///
/// `x` is `(N, C_in, H, W)`; `weight` is `(C_in, C_out, k, k)` (the PyTorch
/// `ConvTranspose2d` layout); output is `(N, C_out, Ho, Wo)` with
/// `Ho = (H−1)·stride + k − 2·pad`. `spec.in_channels`/`out_channels` refer
/// to the *transposed* op's input/output.
pub fn conv_transpose2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    spec: &ConvSpec,
) -> Tensor {
    let [n, c_in, h, w] = dims4(x);
    assert_eq!(c_in, spec.in_channels, "input channels");
    let c_out = spec.out_channels;
    let k = spec.kernel;
    assert_eq!(weight.shape(), &[c_in, c_out, k, k], "weight shape");
    let (ho, wo) = (spec.transpose_out_size(h), spec.transpose_out_size(w));
    // Duality: convT forward == data-gradient of a conv mapping
    // (c_out → c_in) evaluated at dy = x.
    let dual = ConvSpec {
        in_channels: c_out,
        out_channels: c_in,
        kernel: k,
        stride: spec.stride,
        pad: spec.pad,
    };
    let mut out = Tensor::zeros(&[n, c_out, ho, wo]);
    let x_data = x.data();
    mmhand_parallel::par_chunks_mut(out.data_mut(), c_out * ho * wo, |s, out_s| {
        let xs = &x_data[s * c_in * h * w..(s + 1) * c_in * h * w];
        // dcols = Wᵀ·x with W viewed as (c_in, c_out·k·k).
        CONV_SCRATCH.with(|pool| {
            pool.with(c_out * k * k * h * w, |dcols| {
                gemm_at_b(weight.data(), xs, dcols, c_out * k * k, c_in, h * w);
                col2im(dcols, c_out, ho, wo, &dual, h, w, out_s);
            });
        });
        if !bias.is_empty() {
            for (oc, &b) in bias.iter().enumerate() {
                for v in &mut out_s[oc * ho * wo..(oc + 1) * ho * wo] {
                    *v += b;
                }
            }
        }
    });
    out
}

/// Transposed-convolution backward pass; returns `(dx, dweight, dbias)`.
pub fn conv_transpose2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &ConvSpec,
) -> (Tensor, Tensor, Vec<f32>) {
    let [n, c_in, h, w] = dims4(x);
    let c_out = spec.out_channels;
    let k = spec.kernel;
    let (ho, wo) = (spec.transpose_out_size(h), spec.transpose_out_size(w));
    assert_eq!(dy.shape(), &[n, c_out, ho, wo], "dy shape");
    let dual = ConvSpec {
        in_channels: c_out,
        out_channels: c_in,
        kernel: k,
        stride: spec.stride,
        pad: spec.pad,
    };

    let mut dx = Tensor::zeros(&[n, c_in, h, w]);
    let mut dw = Tensor::zeros(&[c_in, c_out, k, k]);
    // Not pooled: owned return value
    let mut db = vec![0.0_f32; c_out];

    // Same shape as conv2d_backward: per-sample tasks with private dW/db
    // partial stripes of one pooled buffer, reduced in ascending sample
    // order for determinism; column scratch from the per-thread pool.
    let stripe = c_in * c_out * k * k + c_out;
    let x_data = x.data();
    let dy_data = dy.data();
    CONV_SCRATCH.with(|pool| {
        pool.with(n * stripe, |partials| {
            mmhand_parallel::scope(|sc| {
                for (s, (dxs, part)) in dx
                    .data_mut()
                    .chunks_mut(c_in * h * w)
                    .zip(partials.chunks_mut(stripe))
                    .enumerate()
                {
                    sc.spawn(move || {
                        let (dw_part, db_part) = part.split_at_mut(c_in * c_out * k * k);
                        let dys = &dy_data[s * c_out * ho * wo..(s + 1) * c_out * ho * wo];
                        let xs = &x_data[s * c_in * h * w..(s + 1) * c_in * h * w];
                        // dx = conv_forward(dy) with the dual spec and weight
                        // (c_in, c_out·k·k).
                        CONV_SCRATCH.with(|pool| {
                            pool.with(c_out * k * k * h * w, |cols| {
                                im2col(dys, c_out, ho, wo, &dual, h, w, cols);
                                gemm(weight.data(), cols, dxs, c_in, c_out * k * k, h * w);
                                // dW_s = xs · colsᵀ  — (c_in, hw)·(hw, c_out·k·k).
                                gemm_a_bt(xs, cols, dw_part, c_in, h * w, c_out * k * k);
                            });
                        });
                        for oc in 0..c_out {
                            db_part[oc] +=
                                dys[oc * ho * wo..(oc + 1) * ho * wo].iter().sum::<f32>();
                        }
                    });
                }
            });
            for part in partials.chunks(stripe) {
                let (dw_part, db_part) = part.split_at(c_in * c_out * k * k);
                for (acc, v) in dw.data_mut().iter_mut().zip(dw_part) {
                    *acc += v;
                }
                for (acc, v) in db.iter_mut().zip(db_part) {
                    *acc += v;
                }
            }
        });
    });
    (dx, dw, db)
}

/// Extracts the 4 dimensions of an `(N, C, H, W)` tensor.
///
/// # Panics
///
/// Panics unless the tensor is 4-D.
pub fn dims4(x: &Tensor) -> [usize; 4] {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected 4-D tensor, got {s:?}");
    [s[0], s[1], s[2], s[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{gemm_a_bt_naive, gemm_at_b_naive, gemm_naive};
    use mmhand_math::rng::stream_rng;
    use proptest::prelude::*;

    fn finite_diff_conv(
        x: &Tensor,
        w: &Tensor,
        b: &[f32],
        spec: &ConvSpec,
        loss: impl Fn(&Tensor) -> f32,
        wrt_x: bool,
        idx: usize,
    ) -> f32 {
        let eps = 1e-2;
        let eval = |xp: &Tensor, wp: &Tensor| loss(&conv2d_forward(xp, wp, b, spec));
        if wrt_x {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            (eval(&xp, w) - eval(&xm, w)) / (2.0 * eps)
        } else {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            (eval(x, &wp) - eval(x, &wm)) / (2.0 * eps)
        }
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // 1×1 kernel of value 1 with a single channel is identity.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 1, stride: 1, pad: 0 };
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d_forward(&x, &w, &[], &spec);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_values_with_padding() {
        // 3×3 averaging kernel over a 3×3 input of ones, pad 1:
        // centre sees 9 ones, corners see 4.
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, pad: 1 };
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv2d_forward(&x, &w, &[], &spec);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.data()[4], 9.0);
        assert_eq!(y.data()[0], 4.0);
        assert_eq!(y.data()[1], 6.0);
    }

    #[test]
    fn conv_stride_two_halves_spatial_size() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, pad: 1 };
        let mut rng = stream_rng(1, "c");
        let x = Tensor::randn(&[2, 2, 16, 16], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.1, &mut rng);
        let y = conv2d_forward(&x, &w, &[0.5, -0.5, 0.0], &spec);
        assert_eq!(y.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn bias_shifts_every_output() {
        let spec = ConvSpec { in_channels: 1, out_channels: 1, kernel: 1, stride: 1, pad: 0 };
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d_forward(&x, &w, &[2.5], &spec);
        assert!(y.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let spec = ConvSpec { in_channels: 2, out_channels: 2, kernel: 3, stride: 2, pad: 1 };
        let mut rng = stream_rng(2, "g");
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.5, &mut rng);
        let b = vec![0.1, -0.2];
        let y = conv2d_forward(&x, &w, &b, &spec);
        // Loss = sum(y²)/2 so dy = y.
        let (dx, dw, db) = conv2d_backward(&x, &w, &y, &spec);
        let loss = |y: &Tensor| 0.5 * y.data().iter().map(|v| v * v).sum::<f32>();
        for idx in [0usize, 7, 35, 71] {
            let num = finite_diff_conv(&x, &w, &b, &spec, loss, true, idx);
            assert!(
                (dx.data()[idx] - num).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{idx}] {} vs {num}",
                dx.data()[idx]
            );
        }
        for idx in [0usize, 5, 17, 35] {
            let num = finite_diff_conv(&x, &w, &b, &spec, loss, false, idx);
            assert!(
                (dw.data()[idx] - num).abs() < 2e-2 * (1.0 + num.abs()),
                "dw[{idx}] {} vs {num}",
                dw.data()[idx]
            );
        }
        // Bias gradient equals the sum of dy per channel.
        let hw = y.shape()[2] * y.shape()[3];
        let expect_db0: f32 = y.data()[..hw].iter().sum();
        assert!((db[0] - expect_db0).abs() < 1e-3);
    }

    #[test]
    fn transpose_conv_upsamples() {
        let spec = ConvSpec { in_channels: 3, out_channels: 2, kernel: 4, stride: 2, pad: 1 };
        let mut rng = stream_rng(3, "t");
        let x = Tensor::randn(&[1, 3, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 4, 4], 0.1, &mut rng);
        let y = conv_transpose2d_forward(&x, &w, &[], &spec);
        assert_eq!(y.shape(), &[1, 2, 16, 16]);
    }

    #[test]
    fn transpose_conv_is_adjoint_of_conv() {
        // <conv(x), y> == <x, convT(y)> when they share a weight.
        let mut rng = stream_rng(4, "adj");
        // 7×7 round-trips exactly under k = 3, s = 2, p = 1:
        // (7+2−3)/2+1 = 4 and (4−1)·2+3−2 = 7.
        let conv_spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2, pad: 1 };
        let x = Tensor::randn(&[1, 2, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.3, &mut rng);
        let cx = conv2d_forward(&x, &w, &[], &conv_spec);
        let y = Tensor::randn(cx.shape(), 1.0, &mut rng);
        // convT with the dual layout: weight (3, 2, k, k) viewed as
        // (c_in=3 → c_out=2).
        let t_spec = ConvSpec { in_channels: 3, out_channels: 2, kernel: 3, stride: 2, pad: 1 };
        let ty = conv_transpose2d_forward(&y, &w, &[], &t_spec);
        let lhs: f32 = cx.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(ty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn transpose_conv_gradients_match_finite_differences() {
        let spec = ConvSpec { in_channels: 2, out_channels: 2, kernel: 4, stride: 2, pad: 1 };
        let mut rng = stream_rng(5, "tg");
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 2, 4, 4], 0.3, &mut rng);
        let y = conv_transpose2d_forward(&x, &w, &[], &spec);
        let (dx, dw, _db) = conv_transpose2d_backward(&x, &w, &y, &spec);
        let eps = 1e-2;
        let loss =
            |t: &Tensor| 0.5 * t.data().iter().map(|v| v * v).sum::<f32>();
        for idx in [0usize, 9, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&conv_transpose2d_forward(&xp, &w, &[], &spec))
                - loss(&conv_transpose2d_forward(&xm, &w, &[], &spec)))
                / (2.0 * eps);
            assert!(
                (dx.data()[idx] - num).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{idx}] {} vs {num}",
                dx.data()[idx]
            );
        }
        for idx in [0usize, 15, 40] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&conv_transpose2d_forward(&x, &wp, &[], &spec))
                - loss(&conv_transpose2d_forward(&x, &wm, &[], &spec)))
                / (2.0 * eps);
            assert!(
                (dw.data()[idx] - num).abs() < 3e-2 * (1.0 + num.abs()),
                "dw[{idx}] {} vs {num}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn out_size_formulas() {
        let s = ConvSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 2, pad: 1 };
        assert_eq!(s.out_size(16), 8);
        let t = ConvSpec { in_channels: 1, out_channels: 1, kernel: 4, stride: 2, pad: 1 };
        assert_eq!(t.transpose_out_size(8), 16);
        // Round trip: down then up restores 16.
    }

    /// The per-element `im2col` the row-wise one replaced: a bounds test on
    /// every output element. Reference for the bitwise tests below.
    #[allow(clippy::too_many_arguments)]
    fn im2col_ref(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        spec: &ConvSpec,
        ho: usize,
        wo: usize,
        cols: &mut [f32],
    ) {
        let k = spec.kernel;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ch * k + ky) * k + kx) * (ho * wo);
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        for ox in 0..wo {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                x[(ch * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                            cols[row + oy * wo + ox] = v;
                        }
                    }
                }
            }
        }
    }

    /// The per-element `col2im` the row-wise one replaced.
    #[allow(clippy::too_many_arguments)]
    fn col2im_ref(
        cols: &[f32],
        c: usize,
        h: usize,
        w: usize,
        spec: &ConvSpec,
        ho: usize,
        wo: usize,
        x: &mut [f32],
    ) {
        let k = spec.kernel;
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ch * k + ky) * k + kx) * (ho * wo);
                    for oy in 0..ho {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            x[(ch * h + iy as usize) * w + ix as usize] +=
                                cols[row + oy * wo + ox];
                        }
                    }
                }
            }
        }
    }

    /// `len` values mixing signed zeros with seeded normals: every third
    /// element is `+0.0` or `−0.0`, so padding, copies and sums all meet
    /// both zeros.
    fn with_signed_zeros(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = stream_rng(seed, "signed-zeros");
        let normals = Tensor::randn(&[len], 1.0, &mut rng);
        normals
            .data()
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 6 {
                0 => 0.0,
                3 => -0.0,
                _ => v,
            })
            .collect()
    }

    fn to_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_wise_unfolding_matches_per_element_reference_bitwise() {
        // Every geometry of a small grid, including taps whose rows or
        // columns lie wholly in the padding (pad up to the kernel size).
        let c = 2;
        let mut cases = 0;
        for k in 1..=5 {
            for stride in 1..=3 {
                for pad in 0..=k {
                    for h in 1..=7 {
                        for w in 1..=7 {
                            if h + 2 * pad < k || w + 2 * pad < k {
                                continue;
                            }
                            let spec =
                                ConvSpec { in_channels: c, out_channels: 1, kernel: k, stride, pad };
                            let (ho, wo) = (spec.out_size(h), spec.out_size(w));
                            let seed = (((k * 4 + stride) * 8 + pad) * 8 + h) as u64 * 8 + w as u64;
                            let x = with_signed_zeros(c * h * w, seed);
                            let n_cols = c * k * k * ho * wo;

                            let mut want = vec![f32::NAN; n_cols];
                            im2col_ref(&x, c, h, w, &spec, ho, wo, &mut want);
                            // A NaN-filled buffer proves every element is written.
                            let mut got = vec![f32::NAN; n_cols];
                            im2col(&x, c, h, w, &spec, ho, wo, &mut got);
                            assert_eq!(to_bits(&got), to_bits(&want), "im2col {spec:?} {h}x{w}");

                            let cols = with_signed_zeros(n_cols, seed + 1);
                            let base = with_signed_zeros(c * h * w, seed + 2);
                            let mut want = base.clone();
                            col2im_ref(&cols, c, h, w, &spec, ho, wo, &mut want);
                            let mut got = base;
                            col2im(&cols, c, h, w, &spec, ho, wo, &mut got);
                            assert_eq!(to_bits(&got), to_bits(&want), "col2im {spec:?} {h}x{w}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 2000, "grid covered {cases} geometries");
    }

    /// The pre-pool forward pass: sequential per-sample loop with fresh
    /// `vec!` scratch, per-element unfolding and naive GEMM — the
    /// allocating reference the pooled path must match bit for bit.
    fn conv2d_forward_alloc(x: &Tensor, weight: &Tensor, bias: &[f32], spec: &ConvSpec) -> Tensor {
        let [n, c, h, w] = dims4(x);
        let (o, k) = (spec.out_channels, spec.kernel);
        let (ho, wo) = (spec.out_size(h), spec.out_size(w));
        let mut out = Tensor::zeros(&[n, o, ho, wo]);
        for (s, out_s) in out.data_mut().chunks_mut(o * ho * wo).enumerate() {
            let mut cols = vec![0.0_f32; c * k * k * ho * wo];
            let xs = &x.data()[s * c * h * w..(s + 1) * c * h * w];
            im2col_ref(xs, c, h, w, spec, ho, wo, &mut cols);
            gemm_naive(weight.data(), &cols, out_s, o, c * k * k, ho * wo);
            if !bias.is_empty() {
                for (oc, &b) in bias.iter().enumerate() {
                    for v in &mut out_s[oc * ho * wo..(oc + 1) * ho * wo] {
                        *v += b;
                    }
                }
            }
        }
        out
    }

    /// The pre-pool backward pass (fresh allocations, per-element
    /// unfolding, naive GEMMs, sequential ascending-sample reduction). Every
    /// shape goes through columns, the 1×1 one included.
    fn conv2d_backward_alloc(
        x: &Tensor,
        weight: &Tensor,
        dy: &Tensor,
        spec: &ConvSpec,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let [n, c, h, w] = dims4(x);
        let (o, k) = (spec.out_channels, spec.kernel);
        let (ho, wo) = (spec.out_size(h), spec.out_size(w));
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let mut dw = Tensor::zeros(&[o, c, k, k]);
        let mut db = vec![0.0_f32; o];
        for (s, dxs) in dx.data_mut().chunks_mut(c * h * w).enumerate() {
            let xs = &x.data()[s * c * h * w..(s + 1) * c * h * w];
            let dys = &dy.data()[s * o * ho * wo..(s + 1) * o * ho * wo];
            let mut cols = vec![0.0_f32; c * k * k * ho * wo];
            im2col_ref(xs, c, h, w, spec, ho, wo, &mut cols);
            gemm_a_bt_naive(dys, &cols, dw.data_mut(), o, ho * wo, c * k * k);
            let mut dcols = vec![0.0_f32; c * k * k * ho * wo];
            gemm_at_b_naive(weight.data(), dys, &mut dcols, c * k * k, o, ho * wo);
            col2im_ref(&dcols, c, h, w, spec, ho, wo, dxs);
            for oc in 0..o {
                db[oc] += dys[oc * ho * wo..(oc + 1) * ho * wo].iter().sum::<f32>();
            }
        }
        (dx, dw, db)
    }

    /// The transposed-convolution forward pass as a sequential per-sample
    /// loop: fresh scratch, naive GEMM, per-element folding.
    fn conv_transpose2d_forward_alloc(
        x: &Tensor,
        weight: &Tensor,
        bias: &[f32],
        spec: &ConvSpec,
    ) -> Tensor {
        let [n, c_in, h, w] = dims4(x);
        let (c_out, k) = (spec.out_channels, spec.kernel);
        let (ho, wo) = (spec.transpose_out_size(h), spec.transpose_out_size(w));
        let dual = ConvSpec { in_channels: c_out, out_channels: c_in, ..*spec };
        let mut out = Tensor::zeros(&[n, c_out, ho, wo]);
        for (s, out_s) in out.data_mut().chunks_mut(c_out * ho * wo).enumerate() {
            let xs = &x.data()[s * c_in * h * w..(s + 1) * c_in * h * w];
            let mut dcols = vec![0.0_f32; c_out * k * k * h * w];
            gemm_at_b_naive(weight.data(), xs, &mut dcols, c_out * k * k, c_in, h * w);
            col2im_ref(&dcols, c_out, ho, wo, &dual, h, w, out_s);
            for (oc, &b) in bias.iter().enumerate() {
                for v in &mut out_s[oc * ho * wo..(oc + 1) * ho * wo] {
                    *v += b;
                }
            }
        }
        out
    }

    /// The transposed-convolution backward pass as a sequential per-sample
    /// loop with fresh scratch, naive GEMMs and per-element unfolding.
    fn conv_transpose2d_backward_alloc(
        x: &Tensor,
        weight: &Tensor,
        dy: &Tensor,
        spec: &ConvSpec,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let [n, c_in, h, w] = dims4(x);
        let (c_out, k) = (spec.out_channels, spec.kernel);
        let (ho, wo) = (spec.transpose_out_size(h), spec.transpose_out_size(w));
        let dual = ConvSpec { in_channels: c_out, out_channels: c_in, ..*spec };
        let mut dx = Tensor::zeros(&[n, c_in, h, w]);
        let mut dw = Tensor::zeros(&[c_in, c_out, k, k]);
        let mut db = vec![0.0_f32; c_out];
        for (s, dxs) in dx.data_mut().chunks_mut(c_in * h * w).enumerate() {
            let xs = &x.data()[s * c_in * h * w..(s + 1) * c_in * h * w];
            let dys = &dy.data()[s * c_out * ho * wo..(s + 1) * c_out * ho * wo];
            let mut cols = vec![0.0_f32; c_out * k * k * h * w];
            im2col_ref(dys, c_out, ho, wo, &dual, h, w, &mut cols);
            gemm_naive(weight.data(), &cols, dxs, c_in, c_out * k * k, h * w);
            gemm_a_bt_naive(xs, &cols, dw.data_mut(), c_in, h * w, c_out * k * k);
            for oc in 0..c_out {
                db[oc] += dys[oc * ho * wo..(oc + 1) * ho * wo].iter().sum::<f32>();
            }
        }
        (dx, dw, db)
    }

    proptest! {
        // Pooled-scratch conv vs the allocating reference, bitwise, over
        // random shapes — run twice so the second pass exercises buffer
        // *reuse*, not just first-checkout allocation. The same suite runs
        // under both `sanitize-numerics` feature states in CI.
        #[test]
        fn pooled_conv_forward_is_bitwise_identical_to_allocating_path(
            n in 1usize..3, c in 1usize..4, o in 1usize..6,
            hw in 3usize..9, k in 1usize..4, stride in 1usize..3,
            seed in 0u64..200,
        ) {
            let pad = k / 2;
            let spec = ConvSpec { in_channels: c, out_channels: o, kernel: k, stride, pad };
            let mut rng = stream_rng(seed, "pconv");
            let x = Tensor::randn(&[n, c, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[o, c, k, k], 0.5, &mut rng);
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1 - 0.2).collect();
            let reference = conv2d_forward_alloc(&x, &w, &bias, &spec);
            for pass in 0..2 {
                let pooled = conv2d_forward(&x, &w, &bias, &spec);
                prop_assert_eq!(pooled.data(), reference.data(), "pass {}", pass);
            }
        }

        #[test]
        fn pooled_conv_backward_is_bitwise_identical_to_allocating_path(
            n in 1usize..3, c in 1usize..4, o in 1usize..5,
            hw in 3usize..8, k in 1usize..4, stride in 1usize..3,
            seed in 0u64..200,
        ) {
            let pad = k / 2;
            let spec = ConvSpec { in_channels: c, out_channels: o, kernel: k, stride, pad };
            let mut rng = stream_rng(seed, "pconvb");
            let x = Tensor::randn(&[n, c, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[o, c, k, k], 0.5, &mut rng);
            let y = conv2d_forward(&x, &w, &[], &spec);
            let (dx_ref, dw_ref, db_ref) = conv2d_backward_alloc(&x, &w, &y, &spec);
            for pass in 0..2 {
                let (dx, dw, db) = conv2d_backward(&x, &w, &y, &spec);
                prop_assert_eq!(dx.data(), dx_ref.data(), "dx pass {}", pass);
                prop_assert_eq!(dw.data(), dw_ref.data(), "dw pass {}", pass);
                prop_assert_eq!(&db, &db_ref, "db pass {}", pass);
            }
        }

        // The 1×1, stride-1, unpadded conv skips the column matrix: its
        // forward multiplies the sample, and its dx accumulates straight
        // into the zeroed gradient instead of through col2im. Signed zeros
        // in x and dy exercise the +0.0 start of every sum.
        #[test]
        fn pointwise_conv_is_bitwise_identical_to_column_path(
            n in 1usize..3, c in 1usize..6, o in 1usize..6,
            h in 1usize..7, w in 1usize..7,
            seed in 0u64..200,
        ) {
            let spec = ConvSpec { in_channels: c, out_channels: o, kernel: 1, stride: 1, pad: 0 };
            let x = Tensor::from_vec(&[n, c, h, w], with_signed_zeros(n * c * h * w, seed));
            let wt = Tensor::from_vec(&[o, c, 1, 1], with_signed_zeros(o * c, seed + 1));
            let dy = Tensor::from_vec(&[n, o, h, w], with_signed_zeros(n * o * h * w, seed + 2));
            let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.25 - 0.5).collect();
            let y = conv2d_forward(&x, &wt, &bias, &spec);
            let y_ref = conv2d_forward_alloc(&x, &wt, &bias, &spec);
            prop_assert_eq!(to_bits(y.data()), to_bits(y_ref.data()));
            let (dx, dw, db) = conv2d_backward(&x, &wt, &dy, &spec);
            let (dx_ref, dw_ref, db_ref) = conv2d_backward_alloc(&x, &wt, &dy, &spec);
            prop_assert_eq!(to_bits(dx.data()), to_bits(dx_ref.data()));
            prop_assert_eq!(to_bits(dw.data()), to_bits(dw_ref.data()));
            prop_assert_eq!(to_bits(&db), to_bits(&db_ref));
        }

        #[test]
        fn pooled_transpose_conv_forward_is_bitwise_identical_to_allocating_path(
            n in 1usize..3, c_in in 1usize..4, c_out in 1usize..4,
            hw in 2usize..7, k in 1usize..5, stride in 1usize..3,
            seed in 0u64..200,
        ) {
            let pad = k / 2;
            let spec = ConvSpec { in_channels: c_in, out_channels: c_out, kernel: k, stride, pad };
            let mut rng = stream_rng(seed, "ptconv");
            let x = Tensor::randn(&[n, c_in, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[c_in, c_out, k, k], 0.5, &mut rng);
            let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.1 - 0.1).collect();
            let reference = conv_transpose2d_forward_alloc(&x, &w, &bias, &spec);
            for pass in 0..2 {
                let pooled = conv_transpose2d_forward(&x, &w, &bias, &spec);
                prop_assert_eq!(to_bits(pooled.data()), to_bits(reference.data()), "pass {}", pass);
            }
        }

        #[test]
        fn pooled_transpose_conv_backward_is_bitwise_identical_to_allocating_path(
            n in 1usize..3, c_in in 1usize..4, c_out in 1usize..4,
            hw in 2usize..7, k in 1usize..5, stride in 1usize..3,
            seed in 0u64..200,
        ) {
            let pad = k / 2;
            let spec = ConvSpec { in_channels: c_in, out_channels: c_out, kernel: k, stride, pad };
            let mut rng = stream_rng(seed, "ptconvb");
            let x = Tensor::randn(&[n, c_in, hw, hw], 1.0, &mut rng);
            let w = Tensor::randn(&[c_in, c_out, k, k], 0.5, &mut rng);
            let y = conv_transpose2d_forward(&x, &w, &[], &spec);
            let (dx_ref, dw_ref, db_ref) = conv_transpose2d_backward_alloc(&x, &w, &y, &spec);
            for pass in 0..2 {
                let (dx, dw, db) = conv_transpose2d_backward(&x, &w, &y, &spec);
                prop_assert_eq!(to_bits(dx.data()), to_bits(dx_ref.data()), "dx pass {}", pass);
                prop_assert_eq!(to_bits(dw.data()), to_bits(dw_ref.data()), "dw pass {}", pass);
                prop_assert_eq!(to_bits(&db), to_bits(&db_ref), "db pass {}", pass);
            }
        }
    }
}
