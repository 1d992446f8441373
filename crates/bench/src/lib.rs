//! # mmhand-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§VI). `exp_all <name>` reproduces one figure or
//! table and `exp_all` alone runs the full suite; `exp_timing`,
//! `exp_quant`, `exp_train` and `exp_kernels` add gate flags of their own.
//! Shared infrastructure lives here:
//!
//! * [`config`] — the standard experiment scale (full vs `MMHAND_QUICK=1`),
//! * [`data`] — cohort/test-session generation with position variation,
//! * [`cache`] — on-disk caching of trained models and error sets so
//!   separate experiment runs can share one expensive training run,
//! * [`runner`] — the reference model and cross-validation entry points,
//! * [`report`] — uniform printing of measured-vs-paper rows,
//! * [`metrics`] — telemetry dumps (JSON + Prometheus text) written next
//!   to the experiment outputs.

pub mod cache;
pub mod experiments;
pub mod config;
pub mod data;
pub mod metrics;
pub mod report;
pub mod runner;
