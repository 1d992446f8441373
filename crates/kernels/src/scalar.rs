//! The scalar reference backend: the workspace's pre-dispatch inner loops,
//! moved here verbatim. Always available on every architecture, and the
//! bitwise oracle the SIMD backend is property-tested against.

use crate::{BiquadCoeffs, Kernels, SkinAttachment, GEMM_MR, MAX_BIQUADS, SQ_SUM_LANES};
use mmhand_math::{Complex, Quaternion, Vec3};

/// Portable scalar implementation of every dispatched kernel.
pub(crate) struct ScalarKernels;

impl Kernels for ScalarKernels {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_4xn(
        &self,
        apack: &[f32],
        b: &[f32],
        c0: &mut [f32],
        c1: &mut [f32],
        c2: &mut [f32],
        c3: &mut [f32],
        kb: usize,
        kend: usize,
        n: usize,
    ) {
        for kk in kb..kend {
            let aq = &apack[(kk - kb) * GEMM_MR..(kk - kb) * GEMM_MR + GEMM_MR];
            let (x0, x1, x2, x3) = (aq[0], aq[1], aq[2], aq[3]);
            let b_row = &b[kk * n..(kk + 1) * n];
            for (j, &bv) in b_row.iter().enumerate() {
                c0[j] += x0 * bv;
                c1[j] += x1 * bv;
                c2[j] += x2 * bv;
                c3[j] += x3 * bv;
            }
        }
    }

    fn abt_panel_width(&self) -> usize {
        4
    }

    fn abt_pack_panel(&self, b: &[f32], j: usize, k: usize, bpack: &mut [f32]) {
        for kk in 0..k {
            let quad = &mut bpack[kk * 4..kk * 4 + 4];
            quad[0] = b[j * k + kk];
            quad[1] = b[(j + 1) * k + kk];
            quad[2] = b[(j + 2) * k + kk];
            quad[3] = b[(j + 3) * k + kk];
        }
    }

    fn abt_dot_panel(&self, a_row: &[f32], bpack: &[f32], out: &mut [f32]) {
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (kk, &av) in a_row.iter().enumerate() {
            let quad = &bpack[kk * 4..kk * 4 + 4];
            s0 += av * quad[0];
            s1 += av * quad[1];
            s2 += av * quad[2];
            s3 += av * quad[3];
        }
        out[0] = s0;
        out[1] = s1;
        out[2] = s2;
        out[3] = s3;
    }

    fn fft_stage(&self, x: &mut [Complex], tw: &[Complex], len: usize) {
        let n = x.len();
        let half = len / 2;
        let mut i = 0;
        while i < n {
            for j in 0..half {
                let u = x[i + j];
                let v = x[i + j + half] * tw[j];
                x[i + j] = u + v;
                x[i + j + half] = u - v;
            }
            i += len;
        }
    }

    fn iir_cascade_lanes(&self, coeffs: &[BiquadCoeffs], gain: f32, x: &mut [f32], lanes: usize) {
        debug_assert!(coeffs.len() <= MAX_BIQUADS);
        debug_assert!(x.len().is_multiple_of(lanes), "x must hold whole rows of {lanes} lanes");
        let rows = x.len().checked_div(lanes).unwrap_or(0);
        // One whole lane after another — the same order as filtering each
        // signal on its own through the per-sample cascade.
        for lane in 0..lanes {
            let mut s1 = [0.0f32; MAX_BIQUADS];
            let mut s2 = [0.0f32; MAX_BIQUADS];
            for v in x[..rows * lanes].iter_mut().skip(lane).step_by(lanes) {
                let mut y = *v * gain;
                for (s, c) in coeffs.iter().enumerate() {
                    let out = c.b[0] * y + s1[s];
                    s1[s] = c.b[1] * y - c.a[0] * out + s2[s];
                    s2[s] = c.b[2] * y - c.a[1] * out;
                    y = out;
                }
                *v = y;
            }
        }
    }

    fn lbs_skin(
        &self,
        verts: &[Vec3],
        attachments: &[SkinAttachment],
        rest_joints: &[Vec3],
        posed_joints: &[Vec3],
        global_rot: &[Quaternion],
        out: &mut Vec<Vec3>,
    ) {
        out.clear();
        out.reserve(verts.len());
        for (v, w) in verts.iter().zip(attachments) {
            let mut acc = Vec3::ZERO;
            for k in 0..2 {
                let j = w.joints[k] as usize;
                let wk = w.weights[k];
                // Skinning weights are constructed as exact 0.0 for unused slots.
                if wk == 0.0 {
                    continue;
                }
                let local = *v - rest_joints[j];
                acc += (posed_joints[j] + global_rot[j].rotate(local)) * wk;
            }
            out.push(acc);
        }
    }

    fn qgemm_row_i8(&self, x: &[i8], wt: &[i8], out: &mut [i32], k: usize, n: usize) {
        debug_assert!(x.len() >= k && wt.len() >= k * n && out.len() >= n);
        for (j, o) in out.iter_mut().take(n).enumerate() {
            let row = &wt[j * k..j * k + k];
            let mut acc = 0i32;
            for (&xv, &wv) in x[..k].iter().zip(row) {
                acc += xv as i32 * wv as i32;
            }
            *o = acc;
        }
    }

    fn relu_backward(&self, dy: &mut [f32], y: &[f32]) {
        for (g, &y) in dy.iter_mut().zip(y) {
            if y <= 0.0 {
                *g = 0.0;
            }
        }
    }

    fn sigmoid_backward(&self, dy: &mut [f32], y: &[f32]) {
        for (g, &y) in dy.iter_mut().zip(y) {
            *g *= y * (1.0 - y);
        }
    }

    fn tanh_backward(&self, dy: &mut [f32], y: &[f32]) {
        for (g, &y) in dy.iter_mut().zip(y) {
            *g *= 1.0 - y * y;
        }
    }

    fn axpy(&self, acc: &mut [f32], g: &[f32]) {
        for (a, b) in acc.iter_mut().zip(g) {
            *a += b;
        }
    }

    fn layer_norm_backward_row(
        &self,
        xr: &[f32],
        dyr: &[f32],
        gamma: &[f32],
        mean: f32,
        rstd: f32,
        dxhat: &mut [f32],
        dx: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let f = xr.len();
        debug_assert!(
            dyr.len() >= f
                && gamma.len() >= f
                && dxhat.len() >= f
                && dx.len() >= f
                && dgamma.len() >= f
                && dbeta.len() >= f
        );
        // x̂ = (x − μ)·rstd; dL/dx follows the standard layer-norm backward.
        let mut sum_dxhat = 0.0;
        let mut sum_dxhat_xhat = 0.0;
        for i in 0..f {
            let xhat = (xr[i] - mean) * rstd;
            let d = dyr[i] * gamma[i];
            dxhat[i] = d;
            sum_dxhat += d;
            sum_dxhat_xhat += d * xhat;
            dgamma[i] += dyr[i] * xhat;
            dbeta[i] += dyr[i];
        }
        for i in 0..f {
            let xhat = (xr[i] - mean) * rstd;
            dx[i] = rstd
                * (dxhat[i] - sum_dxhat / f as f32 - xhat * sum_dxhat_xhat / f as f32);
        }
    }

    fn adam_step(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        beta1: f32,
        beta2: f32,
        bias1: f32,
        bias2: f32,
        lr: f32,
        eps: f32,
    ) {
        debug_assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len()
        );
        for (((p, &g), m), v) in
            value.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut())
        {
            let mi = beta1 * *m + (1.0 - beta1) * g;
            let vi = beta2 * *v + (1.0 - beta2) * g * g;
            *m = mi;
            *v = vi;
            let m_hat = mi / bias1;
            let v_hat = vi / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn sq_sum_blocked(&self, x: &[f32]) -> f32 {
        let mut lanes = [0.0f32; SQ_SUM_LANES];
        let mut blocks = x.chunks_exact(SQ_SUM_LANES);
        for block in blocks.by_ref() {
            for (lane, &v) in lanes.iter_mut().zip(block) {
                *lane += v * v;
            }
        }
        let mut total = 0.0f32;
        for &lane in &lanes {
            total += lane;
        }
        for &v in blocks.remainder() {
            total += v * v;
        }
        total
    }
}
