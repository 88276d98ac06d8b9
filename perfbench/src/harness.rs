//! What every workload shares: options, the metric record, operation
//! bookkeeping, reference reports, and checked scenario runs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use carma_core::{ExperimentRegistry, RunEnv, ScenarioSpec};

use crate::stats;

/// Each workload sets up this many times per run and reports the
/// median set-up time.
pub const SETUP_REPS: usize = 2;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for timings.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn timed(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, value, unit)
        }
    }
}

/// Attempted and failed operations. A failure is an error, a panic, a
/// non-200 response or a report that differs from its reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.add(u64::from(ok), u64::from(!ok));
    }

    pub fn add(&mut self, ok: u64, failed: u64) {
        self.attempted += ok + failed;
        self.failed += failed;
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result (extra
    /// statistics, provenance).
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last state, with
/// every set-up's seconds. Each earlier set-up's memo-off references
/// must equal the kept one's (the reference itself is deterministic);
/// each comparison counts in `tally`.
pub fn repeat_setup<S>(
    tally: &mut Tally,
    mut setup: impl FnMut() -> Result<S, String>,
    references: impl Fn(&S) -> &[String],
) -> Result<(S, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut earlier: Vec<Vec<String>> = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() == SETUP_REPS {
            for refs in &earlier {
                check_references(tally, references(&state), refs);
            }
            return Ok((state, secs));
        }
        earlier.push(references(&state).to_vec());
    }
}

/// Runs `pass` until `seconds` have gone by, at least once; returns each
/// pass's wall seconds.
pub fn passes(seconds: f64, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// `setup_s`: the median over the run's set-ups.
pub fn setup_metric(secs: &[f64]) -> Metric {
    Metric::timed("setup_s", stats::median(secs), "s", secs.len())
}

/// Runs `spec` in `env`, catching panics. The report's JSON, or the
/// failure as text.
pub fn run_spec(
    registry: &ExperimentRegistry,
    spec: &ScenarioSpec,
    env: &RunEnv,
) -> Result<String, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        registry.run_with_env(spec, None, None, env)
    })) {
        Ok(Ok(report)) => Ok(report.to_json()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err(format!("panic running {}", spec.experiment)),
    }
}

/// The memo-off reference report of every spec, computed across the
/// `carma-exec` pool.
pub fn bare_references(
    registry: &ExperimentRegistry,
    specs: &[ScenarioSpec],
) -> Result<Vec<String>, String> {
    carma_exec::par_map(specs, |spec| run_spec(registry, spec, &RunEnv::bare()))
        .into_iter()
        .collect()
}

fn check_references(tally: &mut Tally, kept: &[String], earlier: &[String]) {
    for (a, b) in earlier.iter().zip(kept) {
        tally.record(a == b);
    }
}

/// Per-scenario latency samples, in milliseconds.
#[derive(Default)]
pub struct Samples {
    by_label: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, label: &str, ms: f64) {
        self.by_label.entry(label.to_string()).or_default().push(ms);
    }

    pub fn count(&self) -> usize {
        self.by_label.values().map(Vec::len).sum()
    }

    fn medians(&self) -> Vec<f64> {
        self.by_label.values().map(|v| stats::median(v)).collect()
    }

    /// The suite's p50: the median across scenarios of each scenario's
    /// median latency, so every scenario weighs the same however many
    /// times it ran.
    pub fn suite_p50(&self) -> f64 {
        stats::median(&self.medians())
    }

    /// Sum of each scenario's median latency: one pass over the suite.
    pub fn suite_ms(&self) -> f64 {
        self.medians().iter().sum()
    }

    pub fn scenarios(&self) -> usize {
        self.by_label.len()
    }

    pub fn lines(&self, kind: &str) -> Vec<String> {
        self.by_label
            .iter()
            .map(|(label, v)| {
                let (lo, hi) = v.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                format!(
                    "  {kind:<5} {label:<22} median {:>10.3} ms  min {lo:>10.3}  max {hi:>10.3}  (n={})",
                    stats::median(v),
                    v.len()
                )
            })
            .collect()
    }
}

/// `peak_rss_mb`: the process's `VmHWM`.
pub fn peak_rss_metric() -> Metric {
    let bytes = stats::self_status_bytes("VmHWM").unwrap_or(0);
    Metric::new("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0), "MB")
}

/// A directory of this run's own inside the working directory,
/// removed on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
