//! One module per paper figure/table. Every module exposes
//! `run(&ExperimentConfig) -> Result<(), PipelineError>` and is listed in
//! [`SUITE`], so `exp_all` can execute any selection of experiments in one
//! process (sharing the cached model) while surfacing a failed experiment
//! as a typed error instead of aborting the remaining sweep.

pub mod ablation;
pub mod angle;
pub mod body;
pub mod distance;
pub mod environment;
pub mod error_cdf;
pub mod gloves;
pub mod objects;
pub mod obstacle;
pub mod pck_curve;
pub mod per_user;
pub mod qualitative;
pub mod quant;
pub mod table1;
pub mod timing;

use crate::config::ExperimentConfig;
use crate::data::{try_build_test_set, TestCondition};
use mmhand_core::metrics::JointErrors;
use mmhand_core::train::TrainedModel;
use mmhand_core::PipelineError;

/// One experiment's entry point.
pub type Experiment = fn(&ExperimentConfig) -> Result<(), PipelineError>;

/// Every experiment, by name, in the order a full `exp_all` run takes them.
pub const SUITE: [(&str, Experiment); 15] = [
    ("per_user", per_user::run),
    ("pck_curve", pck_curve::run),
    ("error_cdf", error_cdf::run),
    ("table1", table1::run),
    ("distance", distance::run),
    ("angle", angle::run),
    ("body", body::run),
    ("gloves", gloves::run),
    ("objects", objects::run),
    ("environment", environment::run),
    ("obstacle", obstacle::run),
    ("ablation", ablation::run),
    ("qualitative", qualitative::run),
    ("timing", timing::run),
    ("quant", quant::run),
];

/// The experiments named in `names`, in the order given, or the whole
/// [`SUITE`] when `names` is empty.
///
/// # Errors
///
/// Returns a message naming the first unknown name and listing the valid
/// ones, before any experiment runs.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if names.is_empty() {
        return Ok(SUITE.to_vec());
    }
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            SUITE.iter().find(|(n, _)| *n == name).copied().ok_or_else(|| {
                let valid: Vec<&str> = SUITE.iter().map(|(n, _)| *n).collect();
                format!("unknown experiment {name:?}; valid names: {}", valid.join(", "))
            })
        })
        .collect()
}

/// Evaluates a trained model on a freshly generated test condition.
///
/// # Errors
///
/// Returns [`PipelineError`] when the condition's test set cannot be
/// synthesised (invalid cube configuration, empty segmentation windows).
pub fn evaluate_condition(
    model: &TrainedModel,
    cfg: &ExperimentConfig,
    condition: &TestCondition,
) -> Result<JointErrors, PipelineError> {
    let test = try_build_test_set(cfg, condition)?;
    Ok(model.evaluate(&test))
}

/// Like [`evaluate_condition`] but also returns the root-aligned errors
/// (articulation only, wrist translated onto the ground truth) — used by
/// the distance/angle sweeps where absolute localisation saturates outside
/// the training envelope.
///
/// # Errors
///
/// Returns [`PipelineError`] when the condition's test set cannot be
/// synthesised.
pub fn evaluate_condition_both(
    model: &TrainedModel,
    cfg: &ExperimentConfig,
    condition: &TestCondition,
) -> Result<(JointErrors, JointErrors), PipelineError> {
    let test = try_build_test_set(cfg, condition)?;
    Ok((model.evaluate(&test), model.evaluate_root_aligned(&test)))
}

/// Evaluates a whole condition sweep concurrently on the
/// [`mmhand_parallel`] pool, returning one [`JointErrors`] per condition in
/// input order. Sweep points are independent (each synthesises its own test
/// set), so this parallelises the dominant cost of the `exp_*` binaries.
///
/// # Errors
///
/// Returns the first sweep point's [`PipelineError`], in input order.
pub fn evaluate_conditions(
    model: &TrainedModel,
    cfg: &ExperimentConfig,
    conditions: &[TestCondition],
) -> Result<Vec<JointErrors>, PipelineError> {
    mmhand_parallel::par_map(conditions, |cond| evaluate_condition(model, cfg, cond))
        .into_iter()
        .collect()
}

/// Batch form of [`evaluate_condition_both`]: evaluates every condition
/// concurrently, returning `(absolute, root_aligned)` pairs in input order.
///
/// # Errors
///
/// Returns the first sweep point's [`PipelineError`], in input order.
pub fn evaluate_conditions_both(
    model: &TrainedModel,
    cfg: &ExperimentConfig,
    conditions: &[TestCondition],
) -> Result<Vec<(JointErrors, JointErrors)>, PipelineError> {
    mmhand_parallel::par_map(conditions, |cond| evaluate_condition_both(model, cfg, cond))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(picked: &[(&'static str, Experiment)]) -> Vec<&'static str> {
        picked.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn select_takes_names_in_order_and_defaults_to_the_whole_suite() {
        let none: [&str; 0] = [];
        assert_eq!(names(&select(&none).unwrap()), names(&SUITE));
        let picked = select(&["timing", "angle", "timing"]).unwrap();
        assert_eq!(names(&picked), ["timing", "angle", "timing"]);
    }

    #[test]
    fn select_rejects_an_unknown_name_and_lists_the_valid_ones() {
        let err = select(&["angle", "fig99"]).unwrap_err();
        assert!(err.contains("\"fig99\""), "{err}");
        for (name, _) in SUITE {
            assert!(err.contains(name), "{err} must list {name}");
        }
    }
}
