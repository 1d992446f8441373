//! Figs. 10 & 11: qualitative skeleton and mesh examples.
//!
//! Renders skeleton CSVs and OBJ meshes for a set of static gestures plus a
//! continuous grab sequence into `target/mmhand-out/`, mirroring the
//! paper's example figures (view the OBJ files in any mesh viewer).

use crate::config::ExperimentConfig;
use crate::data::TestCondition;
use crate::report;
use crate::runner;
use mmhand_core::mesh::{MeshFitConfig, MeshReconstructor};
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::PipelineError;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::{grab_track, GestureTrack};
use mmhand_hand::user::UserProfile;
use mmhand_radar::capture::{record_session, CaptureConfig};
use std::fs;
use std::path::PathBuf;

/// Output directory for qualitative artefacts.
pub fn out_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(base).join("mmhand-out")
}

/// Runs the experiment, writing artefacts and printing their paths.
///
/// # Errors
///
/// Returns [`PipelineError`] when the model, cube configuration, or an
/// estimate fails.
pub fn run(cfg: &ExperimentConfig) -> Result<(), PipelineError> {
    report::section("Fig. 10 & 11: qualitative skeletons and meshes");
    let model = runner::try_reference_model(cfg)?;
    let mut mesh = MeshReconstructor::new(cfg.data.seed);
    mesh.fit(&MeshFitConfig {
        steps: if matches!(cfg.scale, crate::config::Scale::Quick) { 60 } else { 600 },
        ..Default::default()
    });
    let mut pipeline = MmHandPipeline::builder_for(model)
        .cube_config(cfg.data.cube.clone())
        .mesh(mesh)
        .build()?;
    let dir = out_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("cannot create {dir:?}: {e}");
        return Ok(());
    }

    let user = UserProfile::generate(1, cfg.data.seed);
    let cond = TestCondition::nominal();
    let frames_needed = cfg.data.cube.frames_per_segment * cfg.data.seq_len;

    // Static gestures (Fig. 10).
    for gesture in [
        Gesture::OpenPalm,
        Gesture::Fist,
        Gesture::Point,
        Gesture::Victory,
        Gesture::Count(3),
        Gesture::Pinch,
    ] {
        let track = GestureTrack::from_gestures(&[gesture], cond.position, 2.0, 0.1);
        let session = record_session(
            &user,
            &track,
            frames_needed,
            &CaptureConfig { chirp: cfg.data.cube.chirp, ..cfg.data.capture.clone() },
        );
        let out = pipeline.try_estimate(&session.frames)?;
        if let (Some(skel), Some(hand)) = (out.skeletons.last(), out.hands.last()) {
            let name = gesture.name();
            let obj_path = dir.join(format!("{name}.obj"));
            let csv_path = dir.join(format!("{name}_skeleton.csv"));
            let _ = fs::write(&obj_path, hand.mesh.to_obj());
            let _ = fs::write(&csv_path, skeleton_csv(skel, &session.truth[frames_needed - 1]));
            report::data_row(&name, format!("{} + {}", obj_path.display(), csv_path.display()));
        }
    }

    // Continuous gesture (Fig. 11): a grab cycle rendered frame by frame.
    let track = grab_track(cond.position, 1.2, 1);
    let n = frames_needed * 3;
    let session = record_session(
        &user,
        &track,
        n,
        &CaptureConfig { chirp: cfg.data.cube.chirp, ..cfg.data.capture.clone() },
    );
    let out = pipeline.try_estimate(&session.frames)?;
    for (i, hand) in out.hands.iter().enumerate() {
        let path = dir.join(format!("grab_seq_{i:02}.obj"));
        let _ = fs::write(&path, hand.mesh.to_obj());
    }
    report::data_row(
        "continuous grab sequence",
        format!("{} meshes in {}", out.hands.len(), dir.display()),
    );
    Ok(())
}

fn skeleton_csv(pred: &[f32], truth: &[mmhand_math::Vec3; 21]) -> String {
    let mut s = String::from("joint,pred_x,pred_y,pred_z,true_x,true_y,true_z\n");
    for j in 0..21 {
        s.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            mmhand_hand::skeleton::joint_name(j),
            pred[3 * j],
            pred[3 * j + 1],
            pred[3 * j + 2],
            truth[j].x,
            truth[j].y,
            truth[j].z,
        ));
    }
    s
}
