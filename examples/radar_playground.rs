//! Radar playground: inspect what the FMCW front end actually sees —
//! range profiles, Doppler signatures, and angle spectra of a moving hand,
//! printed as ASCII heat-strips. Useful for understanding the signal
//! pre-processing stage (paper §III) without any deep learning.
//!
//! ```sh
//! cargo run --release -p mmhand-examples --example radar_playground
//! ```

use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_core::PipelineError;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::swipe_track;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

fn strip(values: &[f32]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    let max = values.iter().cloned().fold(f32::MIN, f32::max).max(1e-9);
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (LEVELS.len() - 1) as f32).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

fn main() -> Result<(), PipelineError> {
    let cube_cfg = CubeConfig::default();
    let builder = CubeBuilder::try_new(cube_cfg.clone())?;
    let user = UserProfile::generate(1, 5);

    // A hand swiping left-to-right at 30 cm.
    let track = swipe_track(Vec3::new(0.0, 0.3, 0.0), 0.25, 1.6, 3);
    let session = record_session(&user, &track, 24, &CaptureConfig::default());

    println!("range resolution: {:.1} cm | max velocity ±{:.1} m/s | band 12-85 cm",
        cube_cfg.chirp.range_resolution_m() * 100.0,
        cube_cfg.chirp.max_velocity_mps());
    println!();
    println!("frame | range profile (near→far)   | azimuth spectrum (left→right)");
    for (i, frame) in session.frames.iter().enumerate().step_by(2) {
        let cube = builder.try_process_frame(frame)?;
        let range = cube.range_profile();
        // Azimuth profile: sum over velocity and range for the azimuth half.
        let [v_bins, d_bins, _] = cube.shape;
        let mut azimuth = vec![0.0_f32; cube_cfg.azimuth_bins];
        for v in 0..v_bins {
            for d in 0..d_bins {
                for (a, item) in azimuth.iter_mut().enumerate() {
                    *item += cube.at(v, d, a);
                }
            }
        }
        let wrist = session.truth[i][0];
        println!(
            "{i:>5} | {} | {}   (hand truly at x={:+.2}m)",
            strip(&range),
            strip(&azimuth),
            wrist.x
        );
    }
    println!();
    println!("the azimuth hot-spot should sweep with the hand; the range peak stays ~bin 5");

    // Show how a fist vs open palm changes the scatterer spread.
    println!();
    println!("gesture comparison at fixed position:");
    for gesture in [Gesture::OpenPalm, Gesture::Fist] {
        let track = mmhand_hand::trajectory::GestureTrack::from_gestures(
            &[gesture],
            Vec3::new(0.0, 0.3, 0.0),
            1.0,
            0.1,
        );
        let session = record_session(&user, &track, 1, &CaptureConfig::default());
        let cube = builder.try_process_frame(&session.frames[0])?;
        println!("{:<10} range: {}", gesture.name(), strip(&cube.range_profile()));
    }
    Ok(())
}
