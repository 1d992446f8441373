//! Heap allocations of warm hot paths, counted per thread.
//!
//! A counting global allocator sees every allocation the test thread
//! makes, including those inside callees that no scratch-pool counter sees
//! (a clone, a `Vec` grown outside a pool, a boxed pool task). Each pass
//! runs once to warm the scratch pools, plans and cached handles, then
//! once more while counting, inside `mmhand_parallel::sequential_scope` so
//! its work stays on this thread.
//!
//! - The FFT and GEMM kernels allocate nothing, and a conv forward only the
//!   output it returns; a scratch buffer added inside any of them fails
//!   here.
//! - A served step stays within its measured allocation budget.
//! - The full-scale model's forward passes copy no parameter. A tape node
//!   registered from a `ParamStore` shares the parameter's value, so a
//!   forward pass allocates only its activations. Those stay well under
//!   128 KiB apiece, while the largest parameters (the 384 KiB feature
//!   projection and the LSTM kernels) do not: a block of at least 128 KiB
//!   inside a warm forward pass means a parameter was copied.
//! - A full-scale model clone copies no parameter-sized buffer: the clone
//!   shares each parameter's value, gradient and Adam moments.

use mmhand_core::loss::{combined_loss, LossWeights};
use mmhand_core::model::{MmHandModel, OUTPUT_DIM};
use mmhand_core::train::TrainedModel;
use mmhand_core::{tiny, DataConfig, Precision};
use mmhand_dsp::fft_inplace;
use mmhand_math::rng::stream_rng;
use mmhand_math::Complex;
use mmhand_nn::conv::conv2d_forward;
use mmhand_nn::gemm::gemm;
use mmhand_nn::{ConvSpec, ParamStore, Tape, Tensor, Var};
use mmhand_serve::{InferenceProfile, ServeConfig, ServeEngine};
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

/// Tallies what `f` allocates on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Allocated) {
    COUNTS.with(|c| c.set(Some(Allocated::default())));
    let r = f();
    (r, COUNTS.with(|c| c.take()).expect("counting"))
}

/// Runs `f` once to warm the scratch pools and cached handles (kernel
/// backend, telemetry, plans), then again tallying what it allocates. Both
/// runs stay on this thread.
fn warm_allocations<R>(mut f: impl FnMut() -> R) -> Allocated {
    mmhand_parallel::sequential_scope(|| {
        drop(f());
        counted(f).1
    })
}

fn assert_allocations(what: &str, got: Allocated, expected: usize) {
    assert_eq!(
        got.allocations, expected,
        "{what} made {} allocations ({} bytes), expected {expected}",
        got.allocations, got.bytes
    );
}

#[test]
fn warm_fft_allocates_nothing() {
    let mut x: Vec<Complex> = (0..64).map(|i| Complex::new(i as f32, 0.5)).collect();
    let got = warm_allocations(|| fft_inplace(&mut x));
    assert_allocations("a 64-point fft_inplace", got, 0);
}

#[test]
fn warm_gemm_allocates_nothing() {
    // The GEMM of a 3×3 conv over 12 channels of a 16×16 map.
    let (m, k, n) = (12, 108, 256);
    let mut rng = stream_rng(2021, "alloc-gemm");
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let mut c = vec![0.0; m * n];
    let got = warm_allocations(|| gemm(a.data(), b.data(), &mut c, m, k, n));
    assert_allocations("a 12×108×256 gemm into a caller buffer", got, 0);
}

#[test]
fn warm_conv_forward_allocates_only_its_output() {
    let mut rng = stream_rng(2021, "alloc-conv");
    let x = Tensor::randn(&[1, 12, 16, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[12, 12, 3, 3], 0.1, &mut rng);
    let bias = vec![0.1; 12];
    for stride in [1, 2] {
        let spec = ConvSpec { in_channels: 12, out_channels: 12, kernel: 3, stride, pad: 1 };
        let got = warm_allocations(|| conv2d_forward(&x, &w, &bias, &spec));
        // The output tensor's data and its shape.
        assert_allocations(&format!("a 3×3 stride-{stride} conv2d_forward"), got, 2);
    }
}

/// Allocations of one warm `ServeEngine::step` that batches three tiny-stack
/// sessions at f32, as measured when this budget was set. Of the 255, 9
/// build the six cubes pushed since the previous step, and 246 stage the
/// batch, run `predict_step` (179 of them), reconstruct the meshes and
/// buffer the results. A step that allocates more fails; one that
/// allocates less should lower it.
const SERVE_STEP_BUDGET: usize = 255;

#[test]
fn warm_serve_step_stays_within_its_budget() {
    let (sessions, rounds) = (3, 20);
    let pipeline = tiny::pipeline(29, &tiny::stream(98, 97, 12), Some(Precision::F32))
        .expect("tiny pipeline assembles");
    let st = pipeline.builder().config().frames_per_segment;
    let profile = InferenceProfile::default().precision(Precision::F32);
    let mut engine =
        ServeEngine::new(pipeline, ServeConfig::new().max_batch(sessions).profile(profile))
            .expect("engine builds");
    let ids: Vec<u64> = (0..sessions).map(|_| engine.open_session().expect("opens")).collect();
    let streams: Vec<_> =
        (0..sessions).map(|k| tiny::stream(51 + k, 50 + k as u64, rounds * st)).collect();
    for round in 0..rounds {
        for (&sid, stream) in ids.iter().zip(&streams) {
            for frame in &stream[round * st..(round + 1) * st] {
                engine.push_frame(sid, frame.clone()).expect("frame accepted");
            }
        }
        let (report, got) =
            mmhand_parallel::sequential_scope(|| counted(|| engine.step().expect("step runs")));
        assert_eq!(report.batched, sessions, "all sessions batch together");
        for &sid in &ids {
            engine.take_results(sid).expect("results drain");
        }
        // Round 0 warms the pools and plans.
        if round > 0 {
            let (n, bytes) = (got.allocations, got.bytes);
            assert!(
                n <= SERVE_STEP_BUDGET,
                "warm round {round}: {n} allocations ({bytes} bytes), budget {SERVE_STEP_BUDGET}"
            );
        }
    }
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
fn warm_trained_model_clone_copies_no_buffer() {
    // A serve shard's pipeline is such a clone: it shares the values,
    // gradients and Adam moments of the source store.
    let trained = full_scale();
    let got = warm_allocations(|| trained.clone());
    assert_no_large_block("a full-scale TrainedModel clone", got);
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
