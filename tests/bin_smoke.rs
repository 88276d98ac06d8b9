//! Smoke tests: every figure/table/ablation experiment that used to
//! ship as its own binary runs to completion through `carma run
//! <name>` with the scale taken from `CARMA_SCALE=quick` (no `--scale`
//! flag), the environment leg of the scale resolver.
//! `tests/scenario_api.rs::cli_runs_every_experiment_at_quick_scale`
//! covers the `--scale` flag leg for the whole registry.
//!
//! Each run gets its own scratch directory so artifacts
//! (`BENCH_parallel.json`, …) never land in the repository.

use std::path::PathBuf;
use std::process::Command;

fn run_quick_from_env(name: &str) {
    let dir = scratch_dir(name);
    let output = Command::new(env!("CARGO_BIN_EXE_carma"))
        .args(["run", name])
        .current_dir(&dir)
        .env("CARMA_SCALE", "quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `carma run {name}`: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "`carma run {name}` exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("CARMA experiment") && stdout.contains("(scale: Quick)"),
        "`carma run {name}` printed no quick-scale experiment banner:\n{stdout}"
    );
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carma_bin_smoke_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn fig2_runs_to_completion() {
    run_quick_from_env("fig2");
}

#[test]
fn fig3_runs_to_completion() {
    run_quick_from_env("fig3");
}

#[test]
fn table1_runs_to_completion() {
    run_quick_from_env("table1");
}

#[test]
fn ablation_family_runs_to_completion() {
    run_quick_from_env("ablation_family");
}

#[test]
fn ablation_grid_runs_to_completion() {
    run_quick_from_env("ablation_grid");
}

#[test]
fn ablation_metric_runs_to_completion() {
    run_quick_from_env("ablation_metric");
}

#[test]
fn ablation_search_runs_to_completion() {
    run_quick_from_env("ablation_search");
}

#[test]
fn ablation_yield_runs_to_completion() {
    run_quick_from_env("ablation_yield");
}

#[test]
fn bench_parallel_runs_to_completion() {
    run_quick_from_env("bench_parallel");
}
