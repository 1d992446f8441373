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

use mmhand_core::cube::CubeConfig;
use mmhand_core::dataset::SegmentSequence;
use mmhand_core::model::ModelConfig;
use mmhand_core::tiny;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

/// Order-sensitive FNV-1a over `f32` bit patterns: any single-ULP change in
/// any element changes the hash.
fn bits(xs: &[f32]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(16777619);
        }
    }
    h
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
