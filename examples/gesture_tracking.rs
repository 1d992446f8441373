//! Continuous gesture tracking — the user-interface-control scenario the
//! paper's introduction motivates: follow a hand through a grab–release
//! cycle and report per-frame fingertip kinematics.
//!
//! ```sh
//! cargo run --release -p mmhand-examples --example gesture_tracking
//! ```

use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_core::PipelineError;
use mmhand_hand::skeleton::Finger;
use mmhand_hand::trajectory::grab_track;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

fn main() -> Result<(), PipelineError> {
    // Train a compact model on simulated data.
    println!("preparing model…");
    let data = DataConfig { users: 3, frames_per_user: 192, ..Default::default() };
    let sequences = try_build_cohort(&data)?;
    let model = Trainer::new(
        data.model_config(),
        TrainConfig { epochs: 60, ..Default::default() },
    )
    .try_train(&sequences)?;
    let mut pipeline = MmHandPipeline::builder_for(model)
        .cube_config(data.cube.clone())
        .mesh(MeshReconstructor::new(0))
        .build()?;

    // Record a continuous grab–release cycle.
    let user = UserProfile::generate(1, data.seed);
    let track = grab_track(Vec3::new(0.0, 0.3, 0.0), 1.5, 2);
    let n_frames = 40;
    let session = record_session(&user, &track, n_frames, &CaptureConfig::default());

    let out = pipeline.try_estimate(&session.frames)?;
    println!("tracking {} pipeline outputs:", out.skeletons.len());
    println!("segment  grip_aperture_mm  (thumb-index distance; small = closed fist)");
    let st = data.cube.frames_per_segment;
    for (i, skel) in out.skeletons.iter().enumerate() {
        let joint = |j: usize| Vec3::new(skel[3 * j], skel[3 * j + 1], skel[3 * j + 2]);
        let aperture = joint(Finger::Thumb.tip()).distance(joint(Finger::Index.tip())) * 1000.0;
        let truth = &session.truth[i * st + st - 1];
        let truth_aperture =
            truth[Finger::Thumb.tip()].distance(truth[Finger::Index.tip()]) * 1000.0;
        let bar_len = (aperture / 6.0) as usize;
        println!(
            "{i:>7}  est {aperture:>5.0}  true {truth_aperture:>5.0}  {}",
            "#".repeat(bar_len.min(40))
        );
    }
    println!("the aperture should oscillate as the hand grabs and releases");
    Ok(())
}
