//! The CARMA benchmark: one command per workload, every output checked
//! against its memo-off reference, every metric printed by name with
//! its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. With `--trace 0` the last line of
//! standard output is a JSON object carrying the end-to-end metrics;
//! with `--trace 1` the run adds a traced replay and the layer probes
//! and carries the per-layer metrics instead.

mod cold;
mod harness;
mod layers;
mod serve;
mod stats;

use harness::{Metric, Opts, Outcome};

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(
                    value
                        .parse::<u8>()
                        .map_err(|e| format!("--trace {value}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("  {:<36} {:>18.6} {}{samples}", m.name, m.value, m.unit);
    }
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                serde::json::to_string(&m.name),
                json_number(m.value),
                serde::json::to_string(m.unit)
            )
        })
        .collect();
    let t = &outcome.tally;
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        body.join(",")
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !std::path::Path::new(cold::IMPORTED_LIBRARY).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            cold::IMPORTED_LIBRARY
        );
        std::process::exit(2);
    }
    let outcome = match opts.workload.as_str() {
        "cold" => cold::run(&opts),
        "serve" => serve::run(&opts),
        other => Err(format!("unknown workload {other} (cold, serve)")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let t = &outcome.tally;
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={} exec_width={} build={:?}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        carma_exec::current_threads(),
        carma_trace::build_info()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "failed_frac: {:.6} ratio  ({} failed of {} attempted)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    print_metrics("end-to-end", &outcome.end_to_end);
    if opts.trace {
        print_metrics("per-layer (traced run and probes)", &outcome.per_layer);
    }
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!("{}", result_line(&outcome, reported));
}
