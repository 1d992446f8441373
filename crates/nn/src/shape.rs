//! Graph-time shape inference for the autodiff tape.
//!
//! Every [`crate::tape::Tape`] op validates its operand shapes through the
//! rules in this module *before* executing the kernel, so a mismatched
//! graph is rejected at construction — as an immediate panic carrying the
//! [`ShapeError`] that names the offending op — instead of surfacing as an
//! index panic deep inside a GEMM band or an im2col loop at epoch 40 of a
//! sweep.
//!
//! Backward coverage: every backward rule on the tape computes gradient
//! shapes as a pure function of the forward operand shapes validated here
//! (`dA = dY·Bᵀ` for a checked `(m,k)·(k,n)` matmul, col2im of a checked
//! conv, …), so validating each op at push time validates the *entire*
//! forward/backward graph — there is no backward-only shape failure mode.

use std::error::Error;
use std::fmt;

use crate::conv::ConvSpec;

/// A shape mismatch detected while building the graph.
///
/// Carries the name of the offending op and a description of the violated
/// rule, with the operand shapes embedded in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    message: String,
}

impl ShapeError {
    /// Creates an error for `op` with the given description.
    pub fn new(op: &'static str, message: impl Into<String>) -> Self {
        ShapeError { op, message: message.into() }
    }

    /// The tape op that rejected its operands (e.g. `"matmul"`).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The violated rule, with the operand shapes.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error in op `{}`: {}", self.op, self.message)
    }
}

impl Error for ShapeError {}

type Result2 = Result<Vec<usize>, ShapeError>;

fn err(op: &'static str, message: String) -> ShapeError {
    ShapeError { op, message }
}

/// Element-wise binary op: shapes must match exactly.
pub fn elementwise(op: &'static str, a: &[usize], b: &[usize]) -> Result2 {
    if a != b {
        return Err(err(op, format!("operand shapes {a:?} and {b:?} differ")));
    }
    Ok(a.to_vec())
}

/// `(m, k) · (k, n) → (m, n)`.
pub fn matmul(a: &[usize], b: &[usize]) -> Result2 {
    if a.len() != 2 || b.len() != 2 {
        return Err(err(
            "matmul",
            format!("operands must be 2-D, got {a:?} and {b:?}"),
        ));
    }
    if a[1] != b[0] {
        return Err(err(
            "matmul",
            format!("inner dimensions disagree: {a:?} · {b:?}"),
        ));
    }
    Ok(vec![a[0], b[1]])
}

/// `(N, F) + bias of F elements → (N, F)`.
pub fn add_row_bias(x: &[usize], bias: &[usize]) -> Result2 {
    if x.len() != 2 {
        return Err(err("add_row_bias", format!("input must be 2-D, got {x:?}")));
    }
    let blen: usize = bias.iter().product();
    if blen != x[1] {
        return Err(err(
            "add_row_bias",
            format!("bias of {blen} elements does not match row width of {x:?}"),
        ));
    }
    Ok(x.to_vec())
}

fn dims4(op: &'static str, x: &[usize]) -> Result<[usize; 4], ShapeError> {
    if x.len() != 4 {
        return Err(err(op, format!("input must be 4-D (N, C, H, W), got {x:?}")));
    }
    Ok([x[0], x[1], x[2], x[3]])
}

/// `(N, C, H, W) conv (O, C, k, k) → (N, O, Ho, Wo)`.
pub fn conv2d(x: &[usize], w: &[usize], bias_len: Option<usize>, spec: &ConvSpec) -> Result2 {
    const OP: &str = "conv2d";
    let [n, c, h, wd] = dims4(OP, x)?;
    if c != spec.in_channels {
        return Err(err(
            OP,
            format!("input {x:?} has {c} channels, spec expects {}", spec.in_channels),
        ));
    }
    let expect_w = [spec.out_channels, spec.in_channels, spec.kernel, spec.kernel];
    if w != expect_w {
        return Err(err(
            OP,
            format!("weight shape {w:?} does not match spec {expect_w:?}"),
        ));
    }
    if let Some(blen) = bias_len {
        if blen != spec.out_channels {
            return Err(err(
                OP,
                format!("bias of {blen} elements, spec has {} output channels", spec.out_channels),
            ));
        }
    }
    let (ho, wo) = (conv_out(OP, h, spec)?, conv_out(OP, wd, spec)?);
    Ok(vec![n, spec.out_channels, ho, wo])
}

fn conv_out(op: &'static str, h: usize, spec: &ConvSpec) -> Result<usize, ShapeError> {
    let padded = h + 2 * spec.pad;
    if spec.kernel == 0 || spec.stride == 0 {
        return Err(err(op, format!("kernel/stride must be positive, got {spec:?}")));
    }
    if padded < spec.kernel {
        return Err(err(
            op,
            format!("kernel {} does not fit padded extent {padded}", spec.kernel),
        ));
    }
    Ok((padded - spec.kernel) / spec.stride + 1)
}

/// `(N, C_in, H, W) convT (C_in, C_out, k, k) → (N, C_out, Ho, Wo)`.
pub fn conv_transpose2d(
    x: &[usize],
    w: &[usize],
    bias_len: Option<usize>,
    spec: &ConvSpec,
) -> Result2 {
    const OP: &str = "conv_transpose2d";
    let [n, c_in, h, wd] = dims4(OP, x)?;
    if c_in != spec.in_channels {
        return Err(err(
            OP,
            format!("input {x:?} has {c_in} channels, spec expects {}", spec.in_channels),
        ));
    }
    let expect_w = [spec.in_channels, spec.out_channels, spec.kernel, spec.kernel];
    if w != expect_w {
        return Err(err(
            OP,
            format!("weight shape {w:?} does not match spec {expect_w:?}"),
        ));
    }
    if let Some(blen) = bias_len {
        if blen != spec.out_channels {
            return Err(err(
                OP,
                format!("bias of {blen} elements, spec has {} output channels", spec.out_channels),
            ));
        }
    }
    let (ho, wo) = (
        transpose_out(OP, h, spec)?,
        transpose_out(OP, wd, spec)?,
    );
    Ok(vec![n, spec.out_channels, ho, wo])
}

fn transpose_out(op: &'static str, h: usize, spec: &ConvSpec) -> Result<usize, ShapeError> {
    if h == 0 {
        return Err(err(op, "input spatial extent is zero".to_string()));
    }
    let grown = (h - 1) * spec.stride + spec.kernel;
    if grown <= 2 * spec.pad {
        return Err(err(
            op,
            format!("padding {} swallows the whole {grown}-pixel output", spec.pad),
        ));
    }
    Ok(grown - 2 * spec.pad)
}

/// Global spatial pool `(N, C, H, W) → (N, C)`.
pub fn channel_pool(op: &'static str, x: &[usize]) -> Result2 {
    let [n, c, h, w] = dims4(op, x)?;
    if h * w == 0 {
        return Err(err(op, format!("cannot pool over empty spatial extent {x:?}")));
    }
    Ok(vec![n, c])
}

/// Grouped pool `(N, G·Cg, H, W) → (N, G)`.
pub fn group_pool(op: &'static str, x: &[usize], groups: usize) -> Result2 {
    let [n, c, h, w] = dims4(op, x)?;
    if groups == 0 {
        return Err(err(op, "group count must be positive".to_string()));
    }
    if c % groups != 0 {
        return Err(err(op, format!("channels {c} not divisible by groups {groups}")));
    }
    if (c / groups) * h * w == 0 {
        return Err(err(op, format!("cannot pool over empty group extent {x:?}")));
    }
    Ok(vec![n, groups])
}

/// Channel reduction `(N, C, H, W) → (N, 1, H, W)`.
pub fn over_channels(op: &'static str, x: &[usize]) -> Result2 {
    let [n, c, h, w] = dims4(op, x)?;
    if c == 0 {
        return Err(err(op, format!("cannot reduce over zero channels {x:?}")));
    }
    Ok(vec![n, 1, h, w])
}

/// Broadcast `(N, C, H, W) × (N, C) → (N, C, H, W)`.
pub fn mul_channel(x: &[usize], w: &[usize]) -> Result2 {
    const OP: &str = "mul_channel";
    let [n, c, _, _] = dims4(OP, x)?;
    if w != [n, c] {
        return Err(err(
            OP,
            format!("weights {w:?} do not match per-channel shape [{n}, {c}] of input {x:?}"),
        ));
    }
    Ok(x.to_vec())
}

/// Broadcast `(N, G·Cg, H, W) × (N, G) → (N, G·Cg, H, W)`.
pub fn mul_group(x: &[usize], w: &[usize], groups: usize) -> Result2 {
    const OP: &str = "mul_group";
    let [n, c, _, _] = dims4(OP, x)?;
    if groups == 0 || c % groups != 0 {
        return Err(err(OP, format!("channels {c} not divisible by groups {groups}")));
    }
    if w != [n, groups] {
        return Err(err(
            OP,
            format!("weights {w:?} do not match group shape [{n}, {groups}]"),
        ));
    }
    Ok(x.to_vec())
}

/// Broadcast `(N, C, H, W) × (N, 1, H, W) → (N, C, H, W)`.
pub fn mul_spatial(x: &[usize], w: &[usize]) -> Result2 {
    const OP: &str = "mul_spatial";
    let [n, _, h, wd] = dims4(OP, x)?;
    if w != [n, 1, h, wd] {
        return Err(err(
            OP,
            format!("spatial map {w:?} does not match [{n}, 1, {h}, {wd}] of input {x:?}"),
        ));
    }
    Ok(x.to_vec())
}

/// `(N, A) ⧺ (N, B) → (N, A+B)`.
pub fn concat_cols(a: &[usize], b: &[usize]) -> Result2 {
    const OP: &str = "concat_cols";
    if a.len() != 2 || b.len() != 2 {
        return Err(err(OP, format!("operands must be 2-D, got {a:?} and {b:?}")));
    }
    if a[0] != b[0] {
        return Err(err(OP, format!("row counts differ: {a:?} vs {b:?}")));
    }
    Ok(vec![a[0], a[1] + b[1]])
}

/// `(N, Ca, H, W) ⧺ (N, Cb, H, W) → (N, Ca+Cb, H, W)`.
pub fn concat_channels(a: &[usize], b: &[usize]) -> Result2 {
    const OP: &str = "concat_channels";
    let [n, ca, h, w] = dims4(OP, a)?;
    let [nb, cb, hb, wb] = dims4(OP, b)?;
    if (n, h, w) != (nb, hb, wb) {
        return Err(err(OP, format!("batch/spatial dims differ: {a:?} vs {b:?}")));
    }
    Ok(vec![n, ca + cb, h, w])
}

/// Columns `[start, start+len)` of `(N, F) → (N, len)`.
pub fn slice_cols(x: &[usize], start: usize, len: usize) -> Result2 {
    const OP: &str = "slice_cols";
    if x.len() != 2 {
        return Err(err(OP, format!("input must be 2-D, got {x:?}")));
    }
    if start + len > x[1] {
        return Err(err(
            OP,
            format!("slice {start}..{} exceeds row width of {x:?}", start + len),
        ));
    }
    Ok(vec![x[0], len])
}

/// Reshape: element counts must agree.
pub fn reshape(x: &[usize], new: &[usize]) -> Result2 {
    let from: usize = x.iter().product();
    let to: usize = new.iter().product();
    if from != to {
        return Err(err(
            "reshape",
            format!("cannot reshape {x:?} ({from} elements) to {new:?} ({to} elements)"),
        ));
    }
    Ok(new.to_vec())
}

/// Layer norm over the last dimension with affine params of that length.
pub fn layer_norm(x: &[usize], gamma: &[usize], beta: &[usize]) -> Result2 {
    const OP: &str = "layer_norm";
    let Some(&f) = x.last() else {
        return Err(err(OP, "input must be at least 1-D".to_string()));
    };
    let glen: usize = gamma.iter().product();
    let blen: usize = beta.iter().product();
    if glen != f || blen != f {
        return Err(err(
            OP,
            format!("gamma ({glen}) / beta ({blen}) do not match last dim {f} of {x:?}"),
        ));
    }
    Ok(x.to_vec())
}

/// External loss: the injected gradient must match the input's shape.
pub fn external_loss(x: &[usize], grad: &[usize]) -> Result2 {
    if x != grad {
        return Err(err(
            "external_loss",
            format!("gradient shape {grad:?} does not match input {x:?}"),
        ));
    }
    Ok(vec![1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_rules() {
        assert_eq!(matmul(&[3, 4], &[4, 2]).unwrap(), vec![3, 2]);
        let e = matmul(&[3, 4], &[5, 2]).unwrap_err();
        assert_eq!(e.op(), "matmul");
        assert!(e.to_string().contains("inner dimensions"));
        assert!(matmul(&[3], &[3, 2]).is_err());
    }

    #[test]
    fn conv_rules() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, pad: 1 };
        assert_eq!(
            conv2d(&[1, 2, 8, 8], &[3, 2, 3, 3], None, &spec).unwrap(),
            vec![1, 3, 8, 8]
        );
        // Wrong channel count names the op.
        let e = conv2d(&[1, 4, 8, 8], &[3, 2, 3, 3], None, &spec).unwrap_err();
        assert_eq!(e.op(), "conv2d");
        // Kernel larger than padded input.
        let tiny = ConvSpec { in_channels: 2, out_channels: 3, kernel: 9, stride: 1, pad: 0 };
        assert!(conv2d(&[1, 2, 4, 4], &[3, 2, 9, 9], None, &tiny).is_err());
        // Bias length mismatch.
        assert!(conv2d(&[1, 2, 8, 8], &[3, 2, 3, 3], Some(4), &spec).is_err());
    }

    #[test]
    fn conv_transpose_rules() {
        let spec = ConvSpec { in_channels: 2, out_channels: 3, kernel: 4, stride: 2, pad: 1 };
        assert_eq!(
            conv_transpose2d(&[1, 2, 4, 4], &[2, 3, 4, 4], None, &spec).unwrap(),
            vec![1, 3, 8, 8]
        );
        let e = conv_transpose2d(&[1, 2, 4, 4], &[3, 2, 4, 4], None, &spec).unwrap_err();
        assert_eq!(e.op(), "conv_transpose2d");
        // Padding that swallows the output is rejected, not underflowed.
        let bad = ConvSpec { in_channels: 2, out_channels: 3, kernel: 1, stride: 1, pad: 4 };
        assert!(conv_transpose2d(&[1, 2, 1, 1], &[2, 3, 1, 1], None, &bad).is_err());
    }

    #[test]
    fn pool_and_broadcast_rules() {
        assert_eq!(channel_pool("channel_avg_pool", &[2, 4, 3, 3]).unwrap(), vec![2, 4]);
        assert!(channel_pool("channel_avg_pool", &[2, 4]).is_err());
        assert_eq!(group_pool("group_avg_pool", &[2, 6, 3, 3], 2).unwrap(), vec![2, 2]);
        assert!(group_pool("group_avg_pool", &[2, 6, 3, 3], 4).is_err());
        assert!(group_pool("group_avg_pool", &[2, 6, 3, 3], 0).is_err());
        assert_eq!(over_channels("mean_over_channels", &[2, 3, 4, 5]).unwrap(), vec![2, 1, 4, 5]);
        assert_eq!(mul_channel(&[2, 4, 3, 3], &[2, 4]).unwrap(), vec![2, 4, 3, 3]);
        assert!(mul_channel(&[2, 4, 3, 3], &[2, 3]).is_err());
        assert!(mul_group(&[2, 6, 3, 3], &[2, 3], 2).is_err());
        assert!(mul_spatial(&[2, 4, 3, 3], &[2, 1, 3, 4]).is_err());
    }

    #[test]
    fn concat_slice_reshape_rules() {
        assert_eq!(concat_cols(&[2, 3], &[2, 5]).unwrap(), vec![2, 8]);
        assert!(concat_cols(&[2, 3], &[3, 5]).is_err());
        assert_eq!(concat_channels(&[1, 2, 4, 4], &[1, 3, 4, 4]).unwrap(), vec![1, 5, 4, 4]);
        assert!(concat_channels(&[1, 2, 4, 4], &[1, 3, 4, 5]).is_err());
        assert_eq!(slice_cols(&[2, 6], 2, 3).unwrap(), vec![2, 3]);
        assert!(slice_cols(&[2, 6], 4, 3).is_err());
        assert_eq!(reshape(&[2, 6], &[3, 4]).unwrap(), vec![3, 4]);
        assert!(reshape(&[2, 6], &[3, 5]).is_err());
    }

    #[test]
    fn layer_norm_and_external_rules() {
        assert_eq!(layer_norm(&[3, 5], &[5], &[5]).unwrap(), vec![3, 5]);
        assert!(layer_norm(&[3, 5], &[4], &[5]).is_err());
        assert!(layer_norm(&[], &[1], &[1]).is_err());
        assert_eq!(external_loss(&[2, 3], &[2, 3]).unwrap(), vec![1]);
        assert!(external_loss(&[2, 3], &[3, 2]).is_err());
    }

    #[test]
    fn elementwise_rule() {
        assert_eq!(elementwise("add", &[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
        let e = elementwise("mul", &[2, 3], &[3, 2]).unwrap_err();
        assert_eq!(e.op(), "mul");
    }

    #[test]
    fn display_names_the_op() {
        let e = ShapeError::new("conv2d", "kernel misfit");
        assert_eq!(e.to_string(), "shape error in op `conv2d`: kernel misfit");
        assert_eq!(e.message(), "kernel misfit");
    }
}
