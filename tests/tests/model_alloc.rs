//! Large heap allocations of the full-scale model's warm forward passes.
//!
//! A tape node registered from a `ParamStore` shares the parameter's value
//! instead of copying it, so a forward pass allocates only its activations.
//! The full-scale model's activations stay well under 128 KiB apiece, while
//! its largest parameters (the 384 KiB feature projection and the LSTM
//! kernels) do not: a block of at least 128 KiB inside a warm forward pass
//! means a parameter was copied. A counting global allocator sees every
//! allocation the test thread makes, and each pass runs inside
//! `mmhand_parallel::sequential_scope`, so its work stays on that thread.

use mmhand_core::loss::{combined_loss, LossWeights};
use mmhand_core::model::{MmHandModel, OUTPUT_DIM};
use mmhand_core::train::TrainedModel;
use mmhand_core::DataConfig;
use mmhand_math::rng::stream_rng;
use mmhand_nn::{ParamStore, Tape, Tensor, Var};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The smallest allocation counted as a large block.
const LARGE: usize = 128 * 1024;

/// What a thread allocated while it counted.
#[derive(Clone, Copy, Default)]
struct Allocated {
    allocations: usize,
    bytes: usize,
    large_blocks: usize,
}

/// Forwards to the system allocator, tallying the allocations a thread
/// makes while its `COUNTS` is set. The tally is per thread, so tests
/// running side by side do not mix their counts.
struct Counting;

thread_local! {
    static COUNTS: Cell<Option<Allocated>> = const { Cell::new(None) };
}

fn note_allocation(size: usize) {
    let _ = COUNTS.try_with(|c| {
        if let Some(a) = c.get() {
            c.set(Some(Allocated {
                allocations: a.allocations + 1,
                bytes: a.bytes + size,
                large_blocks: a.large_blocks + usize::from(size >= LARGE),
            }));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's layout and pointer contracts are exactly the ones `System`
// requires; the tally is a const-initialised thread-local `Cell`, which
// does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller must pass a valid non-zero-size layout,
        // forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller must pass a valid non-zero-size layout,
        // forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: the caller must pass a pointer this allocator returned
        // with `layout`, forwarded unchanged to the same `System` allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller must pass a pointer this allocator returned
        // with `layout`, forwarded unchanged to the same `System` allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` once to warm the scratch pools and cached handles (kernel
/// backend, telemetry, plans), then again tallying what it allocates. Both
/// runs stay on this thread.
fn warm_allocations<R>(mut f: impl FnMut() -> R) -> Allocated {
    mmhand_parallel::sequential_scope(|| {
        drop(f());
        COUNTS.with(|c| c.set(Some(Allocated::default())));
        let r = f();
        let got = COUNTS.with(|c| c.take()).expect("counting");
        drop(r);
        got
    })
}

/// The full-scale model of the default data geometry, with seeded weights.
fn full_scale() -> TrainedModel {
    let mut store = ParamStore::new();
    let cfg = DataConfig::default().model_config();
    let model = MmHandModel::new(&mut store, cfg, &mut stream_rng(2021, "model-alloc"));
    TrainedModel { model, store, history: Vec::new() }
}

/// `steps` seeded `(n, st·V, D, A)` segment batches.
fn segments(trained: &TrainedModel, n: usize, steps: usize) -> Vec<Tensor> {
    let cfg = &trained.model.config;
    let shape = [n, cfg.input_channels(), cfg.range_bins, cfg.angle_bins];
    let mut rng = stream_rng(2021, "model-alloc-segments");
    (0..steps).map(|_| Tensor::randn(&shape, 1.0, &mut rng)).collect()
}

/// Batch-1 segments with the batch axis dropped, as `predict_sequence`
/// takes them.
fn unbatched(segments: Vec<Tensor>) -> Vec<Tensor> {
    segments.into_iter().map(|s| s.reshaped(&s.shape()[1..])).collect()
}

fn assert_no_large_block(what: &str, got: Allocated) {
    assert_eq!(
        got.large_blocks,
        0,
        "{what} copied a parameter: {} of its {} allocations ({} bytes) were of at least 128 KiB",
        got.large_blocks,
        got.allocations,
        got.bytes
    );
}

#[test]
fn warm_predict_sequence_copies_no_parameter() {
    let trained = full_scale();
    let segments = unbatched(segments(&trained, 1, 3));
    let got = warm_allocations(|| trained.predict_sequence(&segments));
    assert_no_large_block("a batch-1, 3-segment predict_sequence", got);
}

#[test]
fn warm_f32_predict_step_copies_no_parameter() {
    let trained = full_scale();
    let segment = segments(&trained, 1, 1).remove(0);
    let state = Tensor::zeros(&[1, trained.lstm_hidden()]);
    let got = warm_allocations(|| trained.predict_step(&segment, &state, &state));
    assert_no_large_block("a batch-1 f32 predict_step", got);
}

#[test]
fn warm_int8_predict_step_copies_no_parameter() {
    let trained = full_scale();
    let q = Arc::new(trained.calibrate_int8(&unbatched(segments(&trained, 1, 3))));
    assert!(!q.is_empty(), "calibration quantized no matmul");
    let segment = segments(&trained, 1, 1).remove(0);
    let state = Tensor::zeros(&[1, trained.lstm_hidden()]);
    let got =
        warm_allocations(|| trained.predict_step_quantized(q.clone(), &segment, &state, &state));
    assert_no_large_block("a batch-1 int8 predict_step", got);
}

#[test]
fn warm_training_shard_forward_copies_no_parameter() {
    // The forward-and-loss half of one 2-sample, 3-segment training shard,
    // built as the trainer builds it.
    let trained = full_scale();
    let segments = segments(&trained, 2, 3);
    let mut rng = stream_rng(2021, "model-alloc-labels");
    let labels: Vec<Tensor> =
        (0..3).map(|_| Tensor::randn(&[2, OUTPUT_DIM], 0.1, &mut rng)).collect();
    let got = warm_allocations(|| {
        let mut tape = Tape::new();
        let outs = trained.model.forward(&mut tape, &trained.store, &segments);
        let mut total: Option<Var> = None;
        for (out, label) in outs.iter().zip(&labels) {
            let (l, _, _) = combined_loss(&mut tape, *out, label, LossWeights::default());
            total = Some(match total {
                None => l,
                Some(acc) => tape.add(acc, l),
            });
        }
        let loss = tape.scale(total.expect("three steps"), 1.0 / 3.0);
        (tape, loss)
    });
    assert_no_large_block("a 2-sample, 3-segment training shard's forward and loss", got);
}
