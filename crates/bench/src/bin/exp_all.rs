//! Runs the paper's evaluation experiments, one per table or figure,
//! sharing one cached reference model and one cross-validation run. Set
//! `MMHAND_QUICK=1` for a smoke-scale pass.
//!
//! ```text
//! exp_all [name ...]
//! ```
//!
//! With names (`exp_all distance angle`) it runs those experiments in the
//! order given; with none it runs the whole suite. The names are the keys
//! of `mmhand_bench::experiments::SUITE`; an unknown one is rejected,
//! with the valid names listed, before any experiment runs. Only the
//! full suite dumps its telemetry (`BENCH_all_metrics.{json,prom}`).
//!
//! A failed experiment is reported as a typed error and the sweep moves on
//! to the next one; the exit code is non-zero when any experiment failed.

use mmhand_bench::config::ExperimentConfig;
use mmhand_bench::experiments as exp;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let suite = match exp::select(&names) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("exp_all: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = ExperimentConfig::from_env();
    println!("mmHand experiment suite (scale: {:?})", cfg.scale);
    #[expect(clippy::disallowed_methods, reason = "an experiment binary reports its wall time")]
    let t0 = std::time::Instant::now();
    let mut failures = Vec::new();
    for (name, run) in suite {
        if let Err(e) = run(&cfg) {
            eprintln!("[exp_all] experiment {name} failed: {e}");
            failures.push(name);
        }
    }
    println!();
    println!("suite finished in {:.0}s", t0.elapsed().as_secs_f64());
    // Only a full-suite run writes the `all` dump; a selection would
    // overwrite it with a partial one.
    if names.is_empty() {
        match mmhand_bench::metrics::export_metrics("all") {
            Ok((json, prom)) => {
                println!("metrics dump: {} and {}", json.display(), prom.display());
            }
            Err(e) => eprintln!("metrics dump failed: {e}"),
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("[exp_all] {} experiment(s) failed: {}", failures.len(), failures.join(", "));
        ExitCode::FAILURE
    }
}
