//! Trainable-parameter storage.
//!
//! [`ParamStore`] owns every parameter tensor of a model together with its
//! gradient accumulator and Adam moment buffers. Layers hold [`ParamId`]
//! handles; the [`crate::tape::Tape`] routes gradients here during
//! `backward`, and [`crate::optim::Adam`] consumes them.

use crate::tensor::Tensor;
use std::sync::Arc;

/// Handle to one parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone)]
struct Param {
    name: String,
    /// Shared with every tape node that registered it and every clone of
    /// the store; a write copies it first when it is shared.
    value: Arc<Tensor>,
    /// The gradient accumulator and the Adam moments, shared with every
    /// clone of the store and written the same way.
    grad: Arc<Tensor>,
    m: Arc<Tensor>,
    v: Arc<Tensor>,
}

/// Storage for all parameters of a model.
///
/// Parameter values are copy-on-write: a clone of the store, and every
/// [`crate::tape::Tape`] node that registered a parameter, shares the value
/// until one side writes it ([`ParamStore::value_mut`], an Adam step,
/// [`ParamStore::restore`]), and the writer copies it first. Gradients and
/// Adam moments are copy-on-write the same way, shared by a clone until
/// [`ParamStore::accumulate_grad`], [`ParamStore::zero_grad`],
/// [`ParamStore::clip_grad_norm`] or an Adam step writes them. A cloned
/// model still evolves independently — serve shards clone one trained
/// store per shard and share one copy of its weights, gradients and
/// moments, none of which serving writes.
#[derive(Clone, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Registers a parameter initialised to `value`; returns its handle.
    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        let shape = value.shape().to_vec();
        self.params.push(Param {
            name: name.to_string(),
            value: Arc::new(value),
            grad: Arc::new(Tensor::zeros(&shape)),
            m: Arc::new(Tensor::zeros(&shape)),
            v: Arc::new(Tensor::zeros(&shape)),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The parameter's current value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// The parameter's value as the shared handle a tape node holds.
    pub(crate) fn shared_value(&self, id: ParamId) -> &Arc<Tensor> {
        &self.params[id.0].value
    }

    /// Mutable access to the parameter's value (e.g. for loading weights).
    /// A value still shared with a tape or a store clone is copied first.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// The parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Adds `g` into the parameter's gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        #[cfg(feature = "sanitize-numerics")]
        crate::sanitize::check_finite(
            &format!("gradient of parameter `{}`", self.params[id.0].name),
            g.data(),
        );
        Arc::make_mut(&mut self.params[id.0].grad).add_assign(g);
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            for g in Arc::make_mut(&mut p.grad).data_mut() {
                *g = 0.0;
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping / monitoring).
    ///
    /// Each tensor's squared sum uses the dispatched blocked reduction
    /// (`sq_sum_blocked`), and the per-tensor partials combine sequentially
    /// in registration order — the same bits on every backend.
    pub fn grad_norm(&self) -> f32 {
        let kern = mmhand_kernels::kernels();
        let mut total = 0.0f32;
        for p in &self.params {
            total += kern.sq_sum_blocked(p.grad.data());
        }
        total.sqrt()
    }

    /// Scales all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                for g in Arc::make_mut(&mut p.grad).data_mut() {
                    *g *= s;
                }
            }
        }
    }

    /// All parameter handles.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.params.len()).map(ParamId).collect()
    }

    pub(crate) fn adam_buffers(
        &mut self,
        id: ParamId,
    ) -> (&mut Tensor, &Tensor, &mut Tensor, &mut Tensor) {
        let p = &mut self.params[id.0];
        (Arc::make_mut(&mut p.value), &p.grad, Arc::make_mut(&mut p.m), Arc::make_mut(&mut p.v))
    }

    /// Serialises all parameter values into a flat byte-free `Vec<f32>`
    /// (concatenated in registration order) — a minimal checkpoint format.
    pub fn snapshot(&self) -> Vec<f32> {
        self.params.iter().flat_map(|p| p.value.data().iter().copied()).collect()
    }

    /// Restores values from a [`ParamStore::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` has the wrong total length.
    pub fn restore(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.scalar_count(), "snapshot length");
        let mut off = 0;
        for p in &mut self.params {
            let n = p.value.len();
            Arc::make_mut(&mut p.value).data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn add_and_access() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::from_vec(&[2], vec![1.0, 2.0]));
        assert_eq!(s.value(id).data(), &[1.0, 2.0]);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.len(), 1);
        assert_eq!(s.scalar_count(), 2);
    }

    #[test]
    fn gradient_accumulation_and_zero() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros(&[2]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![1.0, -1.0]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![0.5, 0.5]));
        assert_eq!(s.grad(id).data(), &[1.5, -0.5]);
        s.zero_grad();
        assert_eq!(s.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros(&[2]));
        s.accumulate_grad(id, &Tensor::from_vec(&[2], vec![3.0, 4.0]));
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        s.clip_grad_norm(10.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::from_vec(&[2], vec![1.0, 2.0]));
        let b = s.add("b", Tensor::from_vec(&[1], vec![3.0]));
        let snap = s.snapshot();
        s.value_mut(a).data_mut()[0] = 99.0;
        s.value_mut(b).data_mut()[0] = 99.0;
        s.restore(&snap);
        assert_eq!(s.value(a).data(), &[1.0, 2.0]);
        assert_eq!(s.value(b).data(), &[3.0]);
    }

    /// The bits of a parameter's value, gradient and both Adam moments.
    fn state(s: &ParamStore, id: ParamId) -> [Vec<u32>; 4] {
        let p = &s.params[id.0];
        [&p.value, &p.grad, &p.m, &p.v].map(|t| t.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn clones_stay_independent_after_either_side_writes() {
        // A store whose gradient and moments are all non-zero, so every
        // write below changes some bit of the side it writes.
        let mut source = ParamStore::new();
        let id = source.add("w", Tensor::from_vec(&[3], vec![1.0, -0.0, 2.0]));
        source.accumulate_grad(id, &Tensor::from_vec(&[3], vec![0.5, -1.0, 0.25]));
        Adam::new(0.1).step(&mut source);

        let clone = source.clone();
        let [ours, theirs] = [&source, &clone].map(|s| {
            let p = &s.params[id.0];
            [&p.value, &p.grad, &p.m, &p.v].map(|t| t.data().as_ptr())
        });
        assert_eq!(ours, theirs, "a clone shares the value, gradient and both moments");

        type Write = fn(&mut ParamStore, ParamId);
        let writes: [(&str, Write); 6] = [
            ("value_mut", |s, id| s.value_mut(id).data_mut()[1] = 0.0),
            ("restore", |s, _| s.restore(&[3.0, 4.0, 5.0])),
            ("accumulate_grad", |s, id| {
                s.accumulate_grad(id, &Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]))
            }),
            ("zero_grad", |s, _| s.zero_grad()),
            ("clip_grad_norm", |s, _| s.clip_grad_norm(0.01)),
            ("an Adam step", |s, _| Adam::new(0.1).step(s)),
        ];
        for (what, write) in writes {
            for clone_writes in [true, false] {
                let mut a = source.clone();
                let mut b = a.clone();
                let (written, other) = if clone_writes { (&mut b, &a) } else { (&mut a, &b) };
                let before = state(other, id);
                let was = state(written, id);
                write(written, id);
                assert_ne!(state(written, id), was, "{what} must change the side it writes");
                assert_eq!(state(other, id), before, "{what} leaked into the other side");
            }
        }
        assert_eq!(state(&clone, id), state(&source, id));
    }

    #[test]
    #[should_panic(expected = "snapshot length")]
    fn restore_checks_length() {
        let mut s = ParamStore::new();
        s.add("a", Tensor::zeros(&[3]));
        s.restore(&[0.0; 2]);
    }
}
