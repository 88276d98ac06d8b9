//! Trace-layer invariants: tracing must observe the pipeline without
//! perturbing it.
//!
//! - the *structure* of a traced run (span name-paths and their
//!   counts) is identical at every execution width — parallelism moves
//!   spans across threads, never adds or removes them;
//! - a traced run's report is byte-identical to an untraced one
//!   (tracing is pure observation; `provenance` is attached by the CLI,
//!   never by the registry, and is excluded from every report sink);
//! - the memo stages annotate their spans with hit/miss outcomes.

use std::sync::Arc;

use carma_core::scenario::{ExperimentRegistry, RunEnv, Scale, ScenarioSpec};
use carma_trace::Collector;

/// A small fig2 variant: same stages and span structure as the paper
/// run, a fraction of the cost.
fn small_fig2() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("fig2").with_scale(Scale::Quick);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(32);
    spec
}

/// One cold traced run at the given width; returns the trace and the
/// rendered report.
fn traced_run(threads: usize) -> (carma_trace::Trace, String) {
    let collector = Arc::new(Collector::new());
    let env = RunEnv::standard();
    let report = carma_trace::with_collector(&collector, || {
        ExperimentRegistry::standard()
            .run_with_env(&small_fig2(), None, Some(threads), &env)
            .expect("scenario runs")
    });
    (collector.snapshot(), report.to_json())
}

#[test]
fn span_structure_is_thread_invariant() {
    let (serial, serial_report) = traced_run(1);
    let (wide, wide_report) = traced_run(8);
    assert_eq!(
        serial_report, wide_report,
        "thread width changed the report"
    );
    assert_eq!(
        serial.structure_signature(),
        wide.structure_signature(),
        "thread width changed the span structure"
    );
}

#[test]
fn tracing_never_changes_the_report() {
    let plain = ExperimentRegistry::standard()
        .run_with_env(&small_fig2(), None, Some(2), &RunEnv::standard())
        .expect("scenario runs");
    let (_, traced_report) = traced_run(2);
    assert_eq!(
        plain.to_json(),
        traced_report,
        "tracing changed the report bytes"
    );
}

#[test]
fn memo_spans_carry_hit_and_miss_annotations() {
    let collector = Arc::new(Collector::new());
    let env = RunEnv::standard();
    let registry = ExperimentRegistry::standard();
    carma_trace::with_collector(&collector, || {
        // Cold run: every memo stage misses. Repeat: everything hits.
        for _ in 0..2 {
            registry
                .run_with_env(&small_fig2(), None, Some(1), &env)
                .expect("scenario runs");
        }
    });
    let trace = collector.snapshot();
    for stage in ["memo.library", "memo.context", "memo.cell"] {
        assert!(
            trace.spans.iter().any(|s| s.name == stage),
            "no `{stage}` span recorded"
        );
    }
    let annotations: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("memo."))
        .filter_map(|s| s.annotation)
        .collect();
    assert!(
        annotations.contains(&"miss"),
        "cold memo stages must record `miss`: {annotations:?}"
    );
    assert!(
        annotations.contains(&"hit"),
        "repeat memo stages must record `hit`: {annotations:?}"
    );
}

#[test]
fn accuracy_work_is_labelled_and_counted() {
    let (trace, _) = traced_run(2);
    let work = |name: &str| -> Vec<u64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let label = s.label.as_deref().expect("work spans carry a label");
                label
                    .split(' ')
                    .find_map(|part| part.strip_prefix("n=")?.parse().ok())
                    .unwrap_or_else(|| panic!("`{name}` label without n=: {label}"))
            })
            .collect()
    };
    assert!(trace.spans.iter().any(|s| s.name == "memo.accuracy"));
    let entries = work("accuracy.entry");
    let reference = work("accuracy.reference");
    assert!(!entries.is_empty() && reference.len() == 1);
    assert!(trace
        .spans
        .iter()
        .filter(|s| s.name == "accuracy.entry")
        .all(|s| s.label.as_deref().is_some_and(|l| l.starts_with("mult="))));
    // Every emulated MAC sits in exactly one labelled span, and the
    // counters agree with the labels.
    let counter = |name: &str| {
        trace
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no `{name}` counter"))
    };
    let labelled: u64 = entries.iter().chain(&reference).sum();
    assert_eq!(counter("dnn.macs"), labelled);
    assert_eq!(
        counter("dnn.samples"),
        32 * (entries.len() as u64 + 1),
        "32 samples per run"
    );
}
