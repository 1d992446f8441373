//! NaN/Inf poison detection for the training stack.
//!
//! With the `sanitize-numerics` cargo feature enabled, every tensor written
//! to the autodiff tape, every gradient routed through it, and every
//! gradient accumulated into a [`crate::param::ParamStore`] is scanned for
//! non-finite values; the first poisoned write panics naming the op or
//! parameter it came from, so a NaN is caught where it is *born* rather
//! than three layers later in an optimiser step. Without the feature,
//! [`check_finite`] compiles to a no-op and the release binaries pay
//! nothing.
//!
//! [`dead_params`] is the complementary structural check: after the first
//! backward pass it reports parameters that received no gradient flow at
//! all — usually a detached subgraph or a head that was wired up but never
//! reached by the loss.

use crate::param::ParamStore;

/// Panics if `data` contains a NaN or infinity, naming `context` and the
/// offending element. Compiled to a no-op without `sanitize-numerics`.
#[cfg(feature = "sanitize-numerics")]
#[expect(clippy::panic, reason = "the sanitizer traps numeric poison at the write site")]
pub fn check_finite(context: &str, data: &[f32]) {
    if let Some((i, v)) = data.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        panic!("numeric poison in {context}: element {i} is {v}");
    }
}

/// No-op stand-in compiled without the `sanitize-numerics` feature.
#[cfg(not(feature = "sanitize-numerics"))]
#[inline(always)]
pub fn check_finite(_context: &str, _data: &[f32]) {}

/// Names of parameters whose gradient accumulator is identically zero.
///
/// Run after the first backward pass of a fresh step: a parameter that
/// received no gradient at all is usually a detached subgraph (a head
/// that exists in the store but is never reached by the loss). Callers
/// decide whether a hit is expected (e.g. an alternative head disabled by
/// configuration) or a wiring bug.
pub fn dead_params(store: &ParamStore) -> Vec<String> {
    store
        .ids()
        .into_iter()
        // An accumulator no backward rule touched holds exact 0.0.
        .filter(|&id| store.grad(id).data().iter().all(|&g| g == 0.0))
        .map(|id| store.name(id).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn dead_params_reports_untouched_parameters() {
        let mut store = ParamStore::new();
        let live = store.add("live", Tensor::zeros(&[2]));
        store.add("dead", Tensor::zeros(&[2]));
        store.accumulate_grad(live, &Tensor::from_vec(&[2], vec![0.5, 0.0]));
        assert_eq!(dead_params(&store), vec!["dead".to_string()]);
    }

    #[cfg(feature = "sanitize-numerics")]
    #[test]
    #[should_panic(expected = "numeric poison in test-buffer: element 1")]
    fn check_finite_traps_nan() {
        check_finite("test-buffer", &[1.0, f32::NAN, 3.0]);
    }

    #[cfg(feature = "sanitize-numerics")]
    #[test]
    #[should_panic(expected = "numeric poison")]
    fn check_finite_traps_infinity() {
        check_finite("test-buffer", &[f32::INFINITY]);
    }

    #[test]
    fn check_finite_accepts_finite_data() {
        check_finite("test-buffer", &[0.0, -1.5, f32::MAX, f32::MIN_POSITIVE]);
    }

    #[cfg(feature = "sanitize-numerics")]
    mod poison_properties {
        use crate::tape::Tape;
        use crate::tensor::Tensor;
        use proptest::prelude::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        proptest! {
            /// Wherever the poison lands in a tensor written to the tape,
            /// the write itself traps — not some later op.
            #[test]
            fn poisoned_tape_write_is_trapped_at_the_write(
                rows in 1usize..5,
                cols in 1usize..9,
                frac in 0.0f64..1.0,
                inf in 0usize..2,
            ) {
                let len = rows * cols;
                let pos = ((len - 1) as f64 * frac) as usize;
                let mut data = vec![0.25f32; len];
                data[pos] = if inf == 1 { f32::INFINITY } else { f32::NAN };
                let trapped = catch_unwind(AssertUnwindSafe(|| {
                    let mut tape = Tape::new();
                    tape.leaf(Tensor::from_vec(&[rows, cols], data.clone()));
                }));
                prop_assert!(trapped.is_err(), "poison at {pos}/{len} was not trapped");
            }

            /// A clean graph never trips the sanitizer.
            #[test]
            fn finite_graphs_pass_the_sanitizer(
                xs in proptest::collection::vec(-100.0f32..100.0, 4usize),
            ) {
                let mut tape = Tape::new();
                let a = tape.leaf(Tensor::from_vec(&[2, 2], xs.clone()));
                let b = tape.mul(a, a);
                let loss = tape.mean_all(b);
                let mut store = crate::param::ParamStore::new();
                tape.backward(loss, &mut store);
            }
        }
    }

    #[cfg(not(feature = "sanitize-numerics"))]
    #[test]
    fn without_the_sanitizer_poison_propagates_silently() {
        use crate::tape::Tape;

        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(&[1, 2], vec![f32::NAN, 1.0]));
        let y = tape.mul(x, x);
        let loss = tape.mean_all(y);
        assert!(tape.value(loss).data()[0].is_nan());
    }
}
