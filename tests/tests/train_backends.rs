//! Golden bitwise regression for the training path across kernel backends.
//!
//! The training-side kernels (backward GEMM, fused elementwise backward,
//! the fused Adam update, the blocked gradient-norm reduction) run through
//! the same dispatch layer as inference. The contract mirrors
//! `kernel_backends.rs`: every backend reproduces the frozen pre-refactor
//! training trajectory bit for bit. The suite runs on the process-selected
//! backend; CI re-runs it under `MMHAND_KERNEL_BACKEND=scalar` and `=simd`,
//! so both selections are held to the same bits.
//!
//! The loss-trajectory and final-parameter hashes were captured from the
//! pre-dispatch (scalar-only) training loop on fixed seeds and must never
//! change. `grad_norm` is the one monitored value whose accumulation order
//! was redefined by the dispatch refactor (flat sequential sum → blocked
//! 16-lane reduction, identical in scalar and SIMD — see DESIGN.md §17);
//! its frozen hash pins the *new* canonical order on every backend. The
//! clip threshold sits ~70x above any norm this workload produces, so the
//! reduction-order change cannot reach the weights — which the unchanged
//! parameter hash proves.
//!
//! The tiny stack never runs the full-scale shapes (32 input channels, a
//! 12-channel trunk, 2 blocks, 16×16 maps), so a second pair of goldens
//! pins one seeded full-scale training shard — outputs, loss and every
//! parameter gradient in sink order — and one full-scale
//! `predict_sequence`. Their constants were captured before the
//! convolution data path was rewritten row by row and must never change.

use mmhand_core::cube::CubeConfig;
use mmhand_core::dataset::SegmentSequence;
use mmhand_core::loss::{combined_loss, LossWeights};
use mmhand_core::model::{MmHandModel, ModelConfig, OUTPUT_DIM};
use mmhand_core::tiny;
use mmhand_core::train::{to_relative, TrainConfig, TrainedModel, Trainer};
use mmhand_core::DataConfig;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::shape::HandShape;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::rng::stream_rng;
use mmhand_math::Vec3;
use mmhand_nn::{ParamStore, Tape, Tensor};
use mmhand_radar::capture::{record_session, CaptureConfig};

/// FNV-1a offset basis.
const FNV_BASIS: u32 = 0x811c9dc5;

/// Folds `bytes` into the running FNV-1a hash `h`.
fn fnv(mut h: u32, bytes: impl IntoIterator<Item = u8>) -> u32 {
    for b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    h
}

/// Folds the bit patterns of `xs` into the running hash `h`.
fn fold_bits(h: u32, xs: &[f32]) -> u32 {
    fnv(h, xs.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Order-sensitive FNV-1a over `f32` bit patterns: any single-ULP change in
/// any element changes the hash.
fn bits(xs: &[f32]) -> u32 {
    fold_bits(FNV_BASIS, xs)
}

/// The quick-scale training fixture: the tiny radar/cube/model stack,
/// seeded identically to the `mmhand-core` training tests.
fn tiny_stack() -> (CubeConfig, ModelConfig) {
    (tiny::cube(), tiny::model(&tiny::data(0)))
}

fn tiny_sequences(cube_cfg: &CubeConfig, n_frames: usize, user_seed: u64) -> Vec<SegmentSequence> {
    let user = UserProfile::generate(1, user_seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Fist, Gesture::Point],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    let capture = CaptureConfig { seed: user_seed, ..tiny::data(0).capture };
    let session = record_session(&user, &track, n_frames, &capture);
    let builder = mmhand_core::cube::CubeBuilder::try_new(cube_cfg.clone()).unwrap();
    mmhand_core::dataset::try_session_to_sequences(&builder, &session, 2, 1).unwrap()
}

/// Frozen pre-refactor hash of the 5-epoch `(loss, l3d, lkine)` trajectory.
const GOLDEN_TRAJECTORY: u32 = 0x1eefd26a;
/// Frozen pre-refactor hash of the final parameter snapshot.
const GOLDEN_PARAMS: u32 = 0x5a0eb259;
/// Frozen bits of the final pre-clip gradient norm (the blocked reduction's
/// canonical order; see the module docs). The pre-refactor flat sequential
/// sum produced `0x3cd9a87a` — the same value to 6 significant digits.
const GOLDEN_GRAD_NORM: u32 = 0x3cd9a898;

#[test]
fn five_epoch_training_reproduces_frozen_bits() {
    let (cube_cfg, model_cfg) = tiny_stack();
    let seqs = tiny_sequences(&cube_cfg, 40, 3);
    assert!(!seqs.is_empty());
    let trainer = Trainer::new(
        model_cfg,
        TrainConfig { epochs: 5, batch_size: 4, ..Default::default() },
    );
    let trained = trainer.try_train(&seqs).unwrap();

    let traj: Vec<f32> = trained
        .history
        .iter()
        .flat_map(|e| [e.loss, e.l3d, e.lkine])
        .collect();
    assert_eq!(trained.history.len(), 5);
    let snapshot = trained.store.snapshot();
    let grad_norm = trained.store.grad_norm();

    let backend = mmhand_kernels::backend_name();
    assert_eq!(
        bits(&traj),
        GOLDEN_TRAJECTORY,
        "loss trajectory hash ({backend}); actual traj {traj:?}"
    );
    assert_eq!(
        bits(&snapshot),
        GOLDEN_PARAMS,
        "final parameter hash ({backend}); first params {:?}",
        &snapshot[..4]
    );
    assert_eq!(
        grad_norm.to_bits(),
        GOLDEN_GRAD_NORM,
        "final grad_norm bits ({backend}); actual {grad_norm} = {:#010x}",
        grad_norm.to_bits()
    );
}

/// The full-scale model of the default data geometry, with seeded weights.
fn full_scale_model() -> (MmHandModel, ParamStore) {
    let cfg = DataConfig::default().model_config();
    let geometry = (cfg.input_channels(), cfg.channels, cfg.blocks, cfg.range_bins, cfg.angle_bins);
    assert_eq!(geometry, (32, 12, 2, 16, 16), "full-scale geometry");
    let mut store = ParamStore::new();
    let model = MmHandModel::new(&mut store, cfg, &mut stream_rng(2020, "full-scale-weights"));
    (model, store)
}

/// `steps` seeded `(n, st·V, D, A)` segment batches for `model`.
fn full_scale_segments(model: &MmHandModel, n: usize, steps: usize, label: &str) -> Vec<Tensor> {
    let cfg = &model.config;
    let shape = [n, cfg.input_channels(), cfg.range_bins, cfg.angle_bins];
    let mut rng = stream_rng(2020, label);
    (0..steps).map(|_| Tensor::randn(&shape, 1.0, &mut rng)).collect()
}

/// Frozen hash of the full-scale shard's per-step outputs and mean loss.
const GOLDEN_FULL_OUTPUTS: u32 = 0x11b21131;
/// Frozen hash of the full-scale shard's parameter names and gradients, in
/// the order `backward_with` delivers them.
const GOLDEN_FULL_GRADS: u32 = 0x44556b8d;
/// Frozen hash of a full-scale 3-segment `predict_sequence`.
const GOLDEN_FULL_SKELETONS: u32 = 0x3da21391;

#[test]
fn full_scale_shard_reproduces_frozen_bits() {
    // One 2-sample, 3-segment training shard, built as the trainer builds
    // it: forward, one combined loss per step, their mean, then backward.
    let (model, store) = full_scale_model();
    let segments = full_scale_segments(&model, 2, 3, "full-scale-shard");
    let poses = [Gesture::OpenPalm, Gesture::Fist, Gesture::Point, Gesture::Pinch];
    let labels: Vec<Tensor> = (0..3)
        .map(|t| {
            let mut flat = Vec::with_capacity(2 * OUTPUT_DIM);
            for s in 0..2 {
                let joints = poses[(t + s) % poses.len()].pose().joints(&HandShape::default());
                let mut row: Vec<f32> = joints.iter().flat_map(|j| j.to_array()).collect();
                to_relative(&mut row);
                flat.extend(row);
            }
            Tensor::from_vec(&[2, OUTPUT_DIM], flat)
        })
        .collect();
    let mut tape = Tape::new();
    let outs = model.forward(&mut tape, &store, &segments);
    let mut total = None;
    for (out, label) in outs.iter().zip(&labels) {
        let (l, _, _) = combined_loss(&mut tape, *out, label, LossWeights::default());
        total = Some(match total {
            None => l,
            Some(acc) => tape.add(acc, l),
        });
    }
    let loss = tape.scale(total.expect("three steps"), 1.0 / 3.0);
    let outputs = outs
        .iter()
        .chain([&loss])
        .fold(FNV_BASIS, |h, v| fold_bits(h, tape.value(*v).data()));

    // Each parameter node's name folds in ahead of its gradient, so the
    // hash also pins how many gradients arrive and in what order.
    let mut grads = FNV_BASIS;
    tape.backward_with(loss, |id, g| {
        grads = fold_bits(fnv(grads, store.name(id).bytes()), g.data());
    });

    let backend = mmhand_kernels::backend_name();
    assert_eq!(outputs, GOLDEN_FULL_OUTPUTS, "full-scale outputs hash ({backend}): {outputs:#010x}");
    assert_eq!(grads, GOLDEN_FULL_GRADS, "full-scale gradients hash ({backend}): {grads:#010x}");
}

#[test]
fn full_scale_predict_sequence_reproduces_frozen_bits() {
    let (model, store) = full_scale_model();
    let segments: Vec<Tensor> = full_scale_segments(&model, 1, 3, "full-scale-predict")
        .into_iter()
        .map(|s| {
            let shape = s.shape()[1..].to_vec();
            s.reshaped(&shape)
        })
        .collect();
    let trained = TrainedModel { model, store, history: Vec::new() };
    let skeletons = trained.predict_sequence(&segments);
    assert_eq!(skeletons.len(), 3);
    let hash = skeletons.iter().fold(FNV_BASIS, |h, s| fold_bits(h, s));
    let backend = mmhand_kernels::backend_name();
    assert_eq!(hash, GOLDEN_FULL_SKELETONS, "full-scale skeletons hash ({backend}): {hash:#010x}");
}
