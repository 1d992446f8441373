//! Fig. 26: CDF of the pipeline's time consumption.
//!
//! Paper reference (desktop CPU + RTX 3090 Ti): skeleton stage 459.6 ms,
//! mesh stage 353.1 ms, overall 812.7 ms on average; 90 % of runs complete
//! within 810 ms. Our absolute numbers reflect this reproduction's CPU
//! implementation; the *relationship* the paper highlights — mesh
//! reconstruction adds less time than the skeleton stage — is what this
//! experiment verifies.

use crate::config::ExperimentConfig;
use crate::data::TestCondition;
use crate::report;
use crate::runner;
use mmhand_core::mesh::{MeshFitConfig, MeshReconstructor};
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::PipelineError;
use mmhand_hand::user::UserProfile;
use mmhand_math::stats;
use mmhand_radar::capture::{record_session, CaptureConfig};

/// Number of timed pipeline invocations.
pub fn runs_for(cfg: &ExperimentConfig) -> usize {
    match cfg.scale {
        crate::config::Scale::Full => 40,
        crate::config::Scale::Quick => 6,
    }
}

/// Runs the experiment and prints the Fig. 26 series.
///
/// # Errors
///
/// Returns [`PipelineError`] when the model, cube configuration, or an
/// estimate fails.
pub fn run(cfg: &ExperimentConfig) -> Result<(), PipelineError> {
    report::section("Fig. 26: pipeline time consumption");
    let model = runner::try_reference_model(cfg)?;
    let mut mesh = MeshReconstructor::new(cfg.data.seed);
    let fit_steps = match cfg.scale {
        crate::config::Scale::Full => 600,
        crate::config::Scale::Quick => 60,
    };
    mesh.fit(&MeshFitConfig { steps: fit_steps, ..Default::default() });
    let mut pipeline = MmHandPipeline::builder_for(model)
        .cube_config(cfg.data.cube.clone())
        .mesh(mesh)
        .build()?;

    // One sequence-worth of frames per invocation.
    let frames_per_run = cfg.data.cube.frames_per_segment * cfg.data.seq_len;
    let user = UserProfile::generate(1, cfg.data.seed);
    let cond = TestCondition::nominal();
    let track = user.random_track(cond.position, cfg.data.gestures_per_track, 77);
    let capture = CaptureConfig { chirp: cfg.data.cube.chirp, ..cfg.data.capture.clone() };

    let n = runs_for(cfg);
    let mut cube_ms = Vec::with_capacity(n);
    let mut regress_ms = Vec::with_capacity(n);
    let mut skeleton_ms = Vec::with_capacity(n);
    let mut mesh_ms = Vec::with_capacity(n);
    let mut total_ms = Vec::with_capacity(n);
    for run_idx in 0..n {
        let session = record_session(
            &user,
            &track,
            frames_per_run,
            &CaptureConfig { seed: run_idx as u64, ..capture.clone() },
        );
        let out = pipeline.try_estimate(&session.frames)?;
        cube_ms.push(out.timing.cube_ms as f32);
        regress_ms.push(out.timing.regress_ms as f32);
        skeleton_ms.push(out.timing.skeleton_ms as f32);
        mesh_ms.push(out.timing.mesh_ms as f32);
        total_ms.push(out.timing.total_ms() as f32);
    }

    report::row(
        "mean skeleton stage",
        format!("{:.1}ms", stats::mean(&skeleton_ms)),
        "459.6ms",
    );
    report::data_row(
        "  cube build / regression split",
        format!(
            "{:.1}ms / {:.1}ms",
            stats::mean(&cube_ms),
            stats::mean(&regress_ms)
        ),
    );
    report::row("mean mesh stage", format!("{:.1}ms", stats::mean(&mesh_ms)), "353.1ms");
    report::row("mean overall", format!("{:.1}ms", stats::mean(&total_ms)), "812.7ms");
    report::row(
        "p90 overall",
        format!("{:.1}ms", stats::percentile(&total_ms, 90.0)),
        "<810ms",
    );
    report::row(
        "mesh adds less than skeleton stage",
        format!("{}", stats::mean(&mesh_ms) < stats::mean(&skeleton_ms)),
        "true",
    );

    println!("percentile skeleton_ms mesh_ms total_ms");
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        println!(
            "{p:>9.0} {:>10.1} {:>8.1} {:>8.1}",
            stats::percentile(&skeleton_ms, p),
            stats::percentile(&mesh_ms, p),
            stats::percentile(&total_ms, p),
        );
    }
    Ok(())
}
