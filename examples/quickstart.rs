//! Quickstart: simulate a gesture capture, train a small mmHand model, and
//! estimate 3-D hand skeletons plus a MANO mesh — the complete pipeline in
//! one file.
//!
//! ```sh
//! cargo run --release -p mmhand-examples --example quickstart
//! ```

use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::metrics::JointGroup;
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_core::PipelineError;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

fn main() -> Result<(), PipelineError> {
    // 1. Generate a small training cohort with the radar simulator.
    println!("simulating training data…");
    let data = DataConfig { users: 3, frames_per_user: 96, ..Default::default() };
    let sequences = try_build_cohort(&data)?;
    println!("  {} training sequences", sequences.len());

    // 2. Train the mmHand joint regressor (scaled-down schedule).
    println!("training mmSpaceNet + LSTM…");
    let trainer = Trainer::new(
        data.model_config(),
        TrainConfig { epochs: 25, ..Default::default() },
    );
    let model = trainer.try_train(&sequences)?;
    let last = model.history.last().expect("history");
    println!("  final loss {:.5} (L3D {:.5}, Lkine {:.4})", last.loss, last.l3d, last.lkine);

    // 3. Record a fresh capture of a new gesture performance.
    let user = UserProfile::generate(1, data.seed);
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Victory, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.4,
        0.4,
    );
    let session = record_session(&user, &track, 24, &CaptureConfig::default());

    // 4. Run the full pipeline: frames → skeletons → meshes.
    let mut pipeline = MmHandPipeline::builder_for(model)
        .cube_config(data.cube.clone())
        .mesh(MeshReconstructor::new(0)) // analytic IK path (no mesh-net training)
        .build()?;
    let out = pipeline.try_estimate(&session.frames)?;
    println!(
        "estimated {} skeletons + meshes in {:.0}ms",
        out.skeletons.len(),
        out.timing.total_ms()
    );

    // 5. Score against the simulator's ground truth.
    let mut errors = mmhand_core::metrics::JointErrors::new();
    let st = data.cube.frames_per_segment;
    for (i, skel) in out.skeletons.iter().enumerate() {
        let truth = &session.truth[i * st + st - 1];
        let flat: Vec<f32> = truth.iter().flat_map(|v| v.to_array()).collect();
        errors.push_flat(skel, &flat);
    }
    println!(
        "MPJPE {:.1}mm | palm {:.1}mm | fingers {:.1}mm | PCK@40 {:.1}%",
        errors.mpjpe(JointGroup::Overall),
        errors.mpjpe(JointGroup::Palm),
        errors.mpjpe(JointGroup::Fingers),
        100.0 * errors.pck(JointGroup::Overall, 40.0),
    );
    let hand = &out.hands[out.hands.len() - 1];
    println!(
        "last mesh: {} vertices, {} faces, β[0] = {:.2}",
        hand.mesh.vertices.len(),
        hand.mesh.faces.len(),
        hand.beta[0]
    );
    Ok(())
}
