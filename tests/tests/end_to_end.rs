//! End-to-end integration tests spanning the whole workspace: radar
//! simulation → signal pre-processing → network training → joint
//! regression → mesh reconstruction.

use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_core::dataset::try_session_to_sequences;
use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::metrics::{JointErrors, JointGroup};
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::tiny;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

fn tiny_data_config() -> DataConfig {
    DataConfig {
        frames_per_user: 48,
        gestures_per_track: 4,
        cube: CubeConfig { range_max_m: 0.45, ..tiny::cube() },
        ..tiny::data(1234)
    }
}

#[test]
fn full_pipeline_learns_and_estimates() {
    let data = tiny_data_config();
    let sequences = try_build_cohort(&data).unwrap();
    assert!(!sequences.is_empty());

    let trained = Trainer::new(
        tiny::model(&data),
        TrainConfig { epochs: 30, batch_size: 4, ..Default::default() },
    )
    .try_train(&sequences)
    .unwrap();

    // Loss must fall substantially.
    let first = trained.history.first().unwrap().loss;
    let last = trained.history.last().unwrap().loss;
    assert!(last < first * 0.5, "loss {first} → {last}");

    // Pipeline on fresh frames.
    let user = UserProfile::generate(1, data.seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    let session = record_session(&user, &track, 8, &data.capture);
    let mut pipeline = MmHandPipeline::builder_for(trained)
        .cube_config(data.cube.clone())
        .mesh(MeshReconstructor::new(0))
        .build()
        .unwrap();
    let out = pipeline.try_estimate(&session.frames).unwrap();
    assert_eq!(out.skeletons.len(), 4);
    assert_eq!(out.hands.len(), 4);
    for (skel, hand) in out.skeletons.iter().zip(&out.hands) {
        assert!(skel.iter().all(|v| v.is_finite()));
        assert!(!hand.mesh.vertices.is_empty());
        // The mesh must sit near the predicted wrist.
        let wrist = Vec3::new(skel[0], skel[1], skel[2]);
        let (lo, hi) = hand.mesh.bounds();
        let centre = (lo + hi) * 0.5;
        assert!(centre.distance(wrist) < 0.25, "mesh far from wrist");
    }
}

#[test]
fn trained_model_tracks_hand_position_changes() {
    // The network must recover gross hand position from radar alone:
    // captures at two different positions must yield different wrists.
    // Training data must cover both ranges, as in the paper's 20-40 cm
    // collection protocol.
    let data = tiny_data_config();
    let mut sequences = try_build_cohort(&data).unwrap();
    let far = DataConfig { hand_position: Vec3::new(0.0, 0.38, 0.0), seed: 77, ..data.clone() };
    sequences.extend(try_build_cohort(&far).unwrap());
    // γ = 0: at this smoke scale the kinematic regulariser makes the
    // constant straight-hand pose (which minimises L_kine exactly) the
    // training attractor, collapsing position output to the cohort mean
    // (see EXPERIMENTS.md ablation: γ must shrink with dataset size).
    let trained = Trainer::new(
        tiny::model(&data),
        TrainConfig {
            epochs: 60,
            batch_size: 4,
            weights: mmhand_core::loss::LossWeights { beta: 1.0, gamma: 0.0 },
            ..Default::default()
        },
    )
    .try_train(&sequences)
    .unwrap();

    let user = UserProfile::generate(1, data.seed);
    let builder = CubeBuilder::try_new(data.cube.clone()).unwrap();
    let mut wrists = Vec::new();
    for y in [0.25_f32, 0.38] {
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm],
            Vec3::new(0.0, y, 0.0),
            1.0,
            0.1,
        );
        let session = record_session(&user, &track, 4, &data.capture);
        let seqs = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
        let preds = trained.predict_sequence(&seqs[0].segments);
        wrists.push(preds[0][1]); // wrist y
    }
    // The tiny smoke-scale model resolves range coarsely; assert the
    // ordering and a clear margin rather than full separation (the
    // full-scale experiments achieve ~10mm palm error).
    assert!(
        wrists[1] > wrists[0] + 0.005,
        "predicted wrist y did not move with range: {wrists:?}"
    );
}

#[test]
fn cross_crate_determinism() {
    // The same seeds must yield bit-identical data and training outcomes.
    let data = tiny_data_config();
    let a = try_build_cohort(&data).unwrap();
    let b = try_build_cohort(&data).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.labels, y.labels);
        for (sx, sy) in x.segments.iter().zip(&y.segments) {
            assert_eq!(sx.data(), sy.data());
        }
    }
    let t1 = Trainer::new(
        tiny::model(&data),
        TrainConfig { epochs: 3, batch_size: 4, ..Default::default() },
    )
    .try_train(&a)
    .unwrap();
    let t2 = Trainer::new(
        tiny::model(&data),
        TrainConfig { epochs: 3, batch_size: 4, ..Default::default() },
    )
    .try_train(&b)
    .unwrap();
    assert_eq!(t1.store.snapshot(), t2.store.snapshot());
}

#[test]
fn obstacle_degrades_accuracy_relative_to_clear_path() {
    // Train clean, test clean vs through a wooden board: the board must
    // hurt (paper Fig. 25's mechanism).
    use mmhand_radar::impairments::ObstacleMaterial;
    let data = tiny_data_config();
    let sequences = try_build_cohort(&data).unwrap();
    let trained = Trainer::new(
        tiny::model(&data),
        TrainConfig { epochs: 30, batch_size: 4, ..Default::default() },
    )
    .try_train(&sequences)
    .unwrap();

    let user = UserProfile::generate(1, data.seed);
    let track = user.random_track(Vec3::new(0.0, 0.3, 0.0), 4, 99);
    let builder = CubeBuilder::try_new(data.cube.clone()).unwrap();
    let eval_with = |obstacle: Option<(ObstacleMaterial, f32)>| -> f32 {
        let capture = CaptureConfig { obstacle, ..data.capture.clone() };
        let session = record_session(&user, &track, 24, &capture);
        let seqs = try_session_to_sequences(&builder, &session, 2, 1).unwrap();
        let mut errors = JointErrors::new();
        for s in &seqs {
            let preds = trained.predict_sequence(&s.segments);
            for (p, t) in preds.iter().zip(&s.labels) {
                errors.push_flat(p, t);
            }
        }
        errors.mpjpe(JointGroup::Overall)
    };
    let clear = eval_with(None);
    let blocked = eval_with(Some((ObstacleMaterial::WoodBoard, 0.1)));
    assert!(
        blocked > clear * 0.9,
        "wood board unexpectedly improved accuracy: {clear} vs {blocked}"
    );
    assert!(clear.is_finite() && blocked.is_finite());
}
