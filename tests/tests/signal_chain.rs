//! Integration tests of the signal chain: articulated hand → scatterers →
//! FMCW synthesis → DSP → radar cube, verifying that physical ground truth
//! survives the whole chain (the property every downstream experiment
//! relies on).

use mmhand_core::cube::{CubeBuilder, CubeConfig};
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::{swipe_track, GestureTrack};
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::scene::Environment;

fn capture(track: &GestureTrack, frames: usize, seed: u64) -> mmhand_radar::CaptureSession {
    let user = UserProfile::generate(1, seed);
    let cfg = CaptureConfig {
        environment: Environment::Playground,
        noise_sigma: 0.01,
        seed,
        ..Default::default()
    };
    record_session(&user, track, frames, &cfg)
}

fn cube_peak_range(builder: &mut CubeBuilder, frame: &mmhand_radar::RawFrame) -> f64 {
    let cube = builder.try_process_frame(frame).unwrap();
    let profile = cube.range_profile();
    let best = (0..profile.len())
        .max_by(|&a, &b| profile[a].total_cmp(&profile[b]))
        .unwrap();
    builder.config().range_of_bin(best)
}

#[test]
fn cube_range_tracks_true_hand_range() {
    let mut builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    for y in [0.25_f32, 0.35, 0.5] {
        let track = GestureTrack::from_gestures(
            &[Gesture::OpenPalm],
            Vec3::new(0.0, y, 0.0),
            1.0,
            0.1,
        );
        let session = capture(&track, 1, 7);
        let est = cube_peak_range(&mut builder, &session.frames[0]);
        assert!(
            (est - y as f64).abs() < 0.08,
            "estimated range {est} for hand at {y}"
        );
    }
}

#[test]
fn cube_azimuth_tracks_swipe() {
    // During a swipe the azimuth energy centroid must move with the hand.
    let mut builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    let track = swipe_track(Vec3::new(0.0, 0.3, 0.0), 0.24, 2.0, 1);
    let session = capture(&track, 24, 8);
    let az_centroid = |frame: &mmhand_radar::RawFrame, b: &mut CubeBuilder| -> f32 {
        let cube = b.try_process_frame(frame).unwrap();
        let [v_bins, d_bins, _] = cube.shape;
        let az_bins = b.config().azimuth_bins;
        let mut num = 0.0;
        let mut den = 0.0;
        for v in 0..v_bins {
            for d in 0..d_bins {
                for a in 0..az_bins {
                    let e = cube.at(v, d, a);
                    num += e * a as f32;
                    den += e;
                }
            }
        }
        num / den.max(1e-9)
    };
    // Sample when the hand is at the left and right extremes.
    let left = az_centroid(&session.frames[0], &mut builder);
    let right = az_centroid(&session.frames[20], &mut builder);
    let (lx, rx) = (session.truth[0][0].x, session.truth[20][0].x);
    assert!(rx > lx + 0.1, "track should have moved the hand: {lx} vs {rx}");
    assert!(
        right > left + 0.5,
        "azimuth centroid did not follow the hand: {left} vs {right}"
    );
}

#[test]
fn gesture_changes_are_visible_in_the_cube() {
    // Different gestures at the same position must produce measurably
    // different cubes — the information the network learns from.
    let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    let pos = Vec3::new(0.0, 0.3, 0.0);
    let mut cubes = Vec::new();
    for g in [Gesture::OpenPalm, Gesture::Fist] {
        let track = GestureTrack::from_gestures(&[g], pos, 1.0, 0.1);
        let session = capture(&track, 1, 9);
        let st = builder.config().frames_per_segment;
        let frames: Vec<_> = (0..st)
            .map(|_| builder.try_process_frame(&session.frames[0]).unwrap())
            .collect();
        cubes.push(builder.try_segment_tensor(&frames).unwrap());
    }
    let diff: f32 = cubes[0]
        .data()
        .iter()
        .zip(cubes[1].data())
        .map(|(a, b)| (a - b).abs())
        .sum::<f32>()
        / cubes[0].len() as f32;
    assert!(diff > 0.05, "open palm and fist cubes nearly identical: {diff}");
}

#[test]
fn environment_clutter_barely_leaks_into_the_hand_band() {
    // The Butterworth band-pass is what makes mmHand environment-robust
    // (paper Fig. 24): classroom clutter must change the cube far less
    // than the hand itself does.
    let pos = Vec3::new(0.0, 0.3, 0.0);
    let track = GestureTrack::from_gestures(&[Gesture::OpenPalm], pos, 1.0, 0.1);
    let user = UserProfile::generate(1, 3);
    let builder = CubeBuilder::try_new(CubeConfig::default()).unwrap();
    let cube_for = |env: Environment| {
        let cfg = CaptureConfig { environment: env, noise_sigma: 0.0, seed: 3, ..Default::default() };
        let session = record_session(&user, &track, 1, &cfg);
        builder.try_process_frame(&session.frames[0]).unwrap()
    };
    let playground = cube_for(Environment::Playground);
    let classroom = cube_for(Environment::Classroom);
    let total: f32 = playground.data.iter().sum();
    let env_delta: f32 = playground
        .data
        .iter()
        .zip(&classroom.data)
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(
        env_delta < total * 0.25,
        "environment changed the hand band by {:.1}% of total energy",
        100.0 * env_delta / total
    );
}

#[test]
fn ground_truth_is_consistent_with_kinematics() {
    // Capture-session labels must satisfy the same rigidity invariants the
    // hand model guarantees.
    let track = GestureTrack::from_gestures(
        &[Gesture::OpenPalm, Gesture::Fist],
        Vec3::new(0.0, 0.3, 0.0),
        0.3,
        0.3,
    );
    let session = capture(&track, 12, 11);
    let user = UserProfile::generate(1, 11);
    let rest = mmhand_hand::pose::bone_lengths(
        &mmhand_hand::HandPose::open().joints(&user.shape),
    );
    for truth in &session.truth {
        let lens = mmhand_hand::pose::bone_lengths(truth);
        for (a, b) in lens.iter().zip(&rest) {
            assert!((a - b).abs() < 1e-4, "bone stretched: {a} vs {b}");
        }
    }
}
