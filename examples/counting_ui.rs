//! Counting-gesture user interface: the interface-control application the
//! paper's introduction motivates. A user shows counting digits to the
//! radar; the pipeline regresses skeletons and the template recogniser
//! turns them into digit "commands".
//!
//! ```sh
//! cargo run --release -p mmhand-examples --example counting_ui
//! ```

use mmhand_core::eval::{try_build_cohort, DataConfig};
use mmhand_core::mesh::MeshReconstructor;
use mmhand_core::pipeline::MmHandPipeline;
use mmhand_core::recognize::GestureRecognizer;
use mmhand_core::loss::LossWeights;
use mmhand_core::train::{TrainConfig, Trainer};
use mmhand_core::PipelineError;
use mmhand_hand::gesture::Gesture;
use mmhand_hand::trajectory::GestureTrack;
use mmhand_hand::user::UserProfile;
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};

fn main() -> Result<(), PipelineError> {
    println!("training the joint regressor…");
    let data = DataConfig { users: 3, frames_per_user: 192, ..Default::default() };
    let sequences = try_build_cohort(&data)?;
    let model = Trainer::new(
        data.model_config(),
        // γ = 0: at demo scale the kinematic constraint over-smooths the
        // fingers (see the ablation study in EXPERIMENTS.md).
        TrainConfig {
            epochs: 80,
            weights: LossWeights { beta: 1.0, gamma: 0.0 },
            ..Default::default()
        },
    )
    .try_train(&sequences)?;
    let mut pipeline = MmHandPipeline::builder_for(model)
        .cube_config(data.cube.clone())
        .mesh(MeshReconstructor::new(0))
        .build()?;

    // Recognise over a small counting vocabulary (0, 1, 2, 5 are the most
    // separable digits at radar resolution).
    let vocabulary = [
        Gesture::Count(0),
        Gesture::Count(1),
        Gesture::Count(2),
        Gesture::Count(5),
    ];
    let recognizer = GestureRecognizer::with_gestures(&vocabulary);

    // The user "enters" a PIN by holding digits in sequence.
    let pin = [Gesture::Count(1), Gesture::Count(5), Gesture::Count(2), Gesture::Count(0)];
    let user = UserProfile::generate(1, data.seed);
    println!("user enters digit sequence: 1 5 2 0");
    println!();
    println!("digit  recognised  (per-segment votes)");

    let frames_per_digit = data.cube.frames_per_segment * data.seq_len * 2;
    let mut recognised = Vec::new();
    for (i, &digit) in pin.iter().enumerate() {
        let track = GestureTrack::from_gestures(
            &[digit],
            Vec3::new(0.0, 0.3, 0.0),
            3.0,
            0.1,
        );
        let session = record_session(
            &user,
            &track,
            frames_per_digit,
            &CaptureConfig { seed: 100 + i as u64, ..Default::default() },
        );
        let out = pipeline.try_estimate(&session.frames)?;
        let votes: Vec<String> = out
            .skeletons
            .iter()
            .map(|s| recognizer.recognize(s).gesture.name())
            .collect();
        let verdict = recognizer
            .recognize_sequence(&out.skeletons)
            .map(|r| r.gesture.name())
            .unwrap_or_else(|| "?".to_string());
        println!("{:<6} {:<11} {}", digit.name(), verdict, votes.join(" "));
        recognised.push(verdict);
    }

    let target: Vec<String> = pin.iter().map(|g| g.name()).collect();
    let correct = recognised.iter().zip(&target).filter(|(a, b)| *a == *b).count();
    println!();
    println!("{correct}/{} digits recognised correctly", pin.len());
    println!("(accuracy depends on the tiny demo model; the exp_* suite evaluates properly)");
    Ok(())
}
