//! Evaluation harness: dataset generation for the 10-user cohort and the
//! paper's 5-fold leave-two-users-out cross-validation (§VI-A).

use crate::cube::{CubeBuilder, CubeConfig};
use crate::dataset::SegmentSequence;
use crate::error::PipelineError;
use crate::metrics::JointErrors;
use crate::model::ModelConfig;
use crate::train::{TrainConfig, Trainer};
use mmhand_math::Vec3;
use mmhand_radar::capture::{record_session, CaptureConfig};
use mmhand_radar::CaptureSession;
use mmhand_hand::user::UserProfile;

/// Dataset-generation parameters for one experiment.
#[derive(Clone, Debug)]
pub struct DataConfig {
    /// Number of study participants.
    pub users: usize,
    /// Frames recorded per user.
    pub frames_per_user: usize,
    /// Gestures per continuous track.
    pub gestures_per_track: usize,
    /// Nominal hand position in the radar frame (paper: 20–40 cm range).
    pub hand_position: Vec3,
    /// LSTM sequence length in segments.
    pub seq_len: usize,
    /// Capture conditions (environment, impairments, noise, …).
    pub capture: CaptureConfig,
    /// Cube geometry.
    pub cube: CubeConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for DataConfig {
    fn default() -> Self {
        DataConfig {
            users: 10,
            frames_per_user: 160,
            gestures_per_track: 8,
            hand_position: Vec3::new(0.0, 0.3, 0.0),
            seq_len: 3,
            capture: CaptureConfig::default(),
            cube: CubeConfig::default(),
            seed: 42,
        }
    }
}

impl DataConfig {
    /// The model configuration matching this data geometry.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            frames_per_segment: self.cube.frames_per_segment,
            doppler_bins: self.cube.doppler_bins,
            range_bins: self.cube.range_bins,
            angle_bins: self.cube.angle_bins(),
            ..ModelConfig::default()
        }
    }
}

/// Records one user's capture session under this configuration.
pub fn record_user_session(config: &DataConfig, user: &UserProfile, session_tag: u64) -> CaptureSession {
    let track = user.random_track(config.hand_position, config.gestures_per_track, session_tag);
    let capture = CaptureConfig {
        chirp: config.cube.chirp,
        seed: config.seed ^ (user.id as u64) << 16 ^ session_tag,
        ..config.capture.clone()
    };
    record_session(user, &track, config.frames_per_user, &capture)
}

/// Generates the full cohort dataset: sequences tagged per user.
///
/// Users are recorded and cube-processed concurrently on the
/// [`mmhand_parallel`] pool; results are concatenated in user order, so the
/// output is identical at any thread count.
///
/// # Errors
///
/// Returns the first cube-configuration or sequence-assembly violation.
pub fn try_build_cohort(config: &DataConfig) -> Result<Vec<SegmentSequence>, PipelineError> {
    let users = UserProfile::cohort(config.users, config.seed);
    let builder = CubeBuilder::try_new(config.cube.clone())?;
    let per_user = mmhand_parallel::par_map(&users, |user| {
        let session = record_user_session(config, user, 0);
        crate::dataset::try_session_to_sequences(&builder, &session, config.seq_len, user.id)
    });
    let mut out = Vec::new();
    for seqs in per_user {
        out.extend(seqs?);
    }
    Ok(out)
}

/// Result of one cross-validation run.
#[derive(Debug)]
pub struct CrossValidation {
    /// Errors of each user, measured when that user was in the test fold.
    pub per_user: Vec<(usize, JointErrors)>,
    /// Pooled errors across all folds.
    pub overall: JointErrors,
}

/// Runs the paper's 5-fold leave-two-users-out protocol: users are split
/// into `folds` groups in id order; each fold trains on the remaining
/// groups and tests on its own.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for `folds < 2` (one fold
/// would leave nothing to train on), [`PipelineError::EmptyInput`] for an
/// empty dataset, [`PipelineError::TooFewUsers`] when the cohort has fewer
/// distinct users than folds, and the first fold's training error in fold
/// order.
pub fn try_cross_validate(
    sequences: &[SegmentSequence],
    model_cfg: &ModelConfig,
    train_cfg: &TrainConfig,
    folds: usize,
) -> Result<CrossValidation, PipelineError> {
    if folds < 2 {
        return Err(PipelineError::InvalidConfig {
            field: "folds",
            reason: format!("cross-validation needs at least 2 folds, got {folds}"),
        });
    }
    if sequences.is_empty() {
        return Err(PipelineError::EmptyInput { what: "cross-validation sequences" });
    }
    let mut users: Vec<usize> = sequences.iter().map(|s| s.user_id).collect();
    users.sort_unstable();
    users.dedup();
    if users.len() < folds {
        return Err(PipelineError::TooFewUsers { folds, users: users.len() });
    }
    let per_fold = users.len().div_ceil(folds);

    // Folds are fully independent (each trains its own model from its own
    // seed), so run them concurrently and merge in fold order afterwards —
    // the result is identical at any thread count.
    let fold_ids: Vec<usize> = (0..folds).collect();
    let fold_results = mmhand_parallel::par_map(&fold_ids, |&fold| {
        let test_users: Vec<usize> =
            users.iter().copied().skip(fold * per_fold).take(per_fold).collect();
        let train_set: Vec<SegmentSequence> = sequences
            .iter()
            .filter(|s| !test_users.contains(&s.user_id))
            .cloned()
            .collect();
        let test_set: Vec<SegmentSequence> = sequences
            .iter()
            .filter(|s| test_users.contains(&s.user_id))
            .cloned()
            .collect();
        let trainer = Trainer::new(
            model_cfg.clone(),
            TrainConfig { seed: train_cfg.seed ^ fold as u64, ..train_cfg.clone() },
        );
        let model = trainer.try_train(&train_set)?;
        Ok::<_, PipelineError>(model.evaluate_per_user(&test_set))
    });

    let mut per_user: Vec<(usize, JointErrors)> = Vec::new();
    let mut overall = JointErrors::new();
    for fold_users in fold_results {
        for (user, errs) in fold_users? {
            overall.merge(&errs);
            per_user.push((user, errs));
        }
    }
    per_user.sort_by_key(|(u, _)| *u);
    Ok(CrossValidation { per_user, overall })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny;

    fn tiny_data_config() -> DataConfig {
        DataConfig { users: 4, frames_per_user: 24, gestures_per_track: 3, ..tiny::data(9) }
    }

    #[test]
    fn cohort_covers_all_users() {
        let cfg = tiny_data_config();
        let seqs = try_build_cohort(&cfg).unwrap();
        let mut users: Vec<usize> = seqs.iter().map(|s| s.user_id).collect();
        users.sort_unstable();
        users.dedup();
        assert_eq!(users, vec![1, 2, 3, 4]);
    }

    #[test]
    fn cross_validation_tests_every_user_out_of_fold() {
        let cfg = tiny_data_config();
        let seqs = try_build_cohort(&cfg).unwrap();
        let cv = try_cross_validate(&seqs, &tiny::model(&cfg), &tiny::train_config(), 2).unwrap();
        let tested: Vec<usize> = cv.per_user.iter().map(|(u, _)| *u).collect();
        assert_eq!(tested, vec![1, 2, 3, 4]);
        assert!(!cv.overall.is_empty());
        for (_, e) in &cv.per_user {
            assert!(e.mpjpe(crate::metrics::JointGroup::Overall).is_finite());
        }
    }

    #[test]
    fn too_few_folds_or_users_are_typed_errors() {
        // Zero folds would divide by zero and one fold would train on
        // nothing: both are rejected before any training starts.
        let cfg = tiny_data_config();
        let seqs = try_build_cohort(&cfg).unwrap();
        let model_cfg = tiny::model(&cfg);
        let train_cfg = TrainConfig { epochs: 1, ..Default::default() };
        for folds in [0, 1] {
            assert!(matches!(
                try_cross_validate(&seqs, &model_cfg, &train_cfg, folds),
                Err(PipelineError::InvalidConfig { field: "folds", .. })
            ));
        }
        assert!(matches!(
            try_cross_validate(&seqs, &model_cfg, &train_cfg, 9),
            Err(PipelineError::TooFewUsers { folds: 9, users: 4 })
        ));
    }

    #[test]
    fn sessions_differ_between_users() {
        let cfg = tiny_data_config();
        let users = UserProfile::cohort(2, cfg.seed);
        let a = record_user_session(&cfg, &users[0], 0);
        let b = record_user_session(&cfg, &users[1], 0);
        assert_ne!(a.truth[5], b.truth[5]);
    }
}
