//! Per-layer numbers: what a traced run's spans say about each stage,
//! and probes that time direct calls into each crate on the workload's
//! own inputs. A probe's work count (vectors, MACs, evaluations,
//! bytes) is computed from its input sizes; its time is the duration
//! of the benchmark's own span around the calls.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use carma_core::scenario::ResolvedScenario;
use carma_core::space::{DesignPoint, GB_SIZES, PE_LOG2_RANGE, RF_SIZES};
use carma_core::{CarmaContext, MemoStats};
use carma_dataflow::PerfModel;
use carma_dnn::{AccuracyEvaluator, DnnModel, EvaluatorConfig};
use carma_multiplier::{ErrorProfile, LutMultiplier, MultiplierLibrary};
use carma_netlist::LaneSim;
use carma_serve::http::{try_parse_request, TryParse};
use carma_trace::{Collector, Trace};

use crate::harness::Metric;
use crate::stats::derive;

/// A stage whose self time exceeds this share of the traced time and
/// that carries no work counter counts as opaque.
const OPAQUE_SHARE: f64 = 0.10;

/// Each throughput probe loops over its inputs for at least this long.
const PROBE_MIN_S: f64 = 0.15;

/// Library entries the DNN probe emulates.
const DNN_PROBE_ENTRIES: usize = 4;

/// Design points the dataflow and carbon probes evaluate.
const PROBE_POINTS: usize = 48;

/// Span statistics by span name.
#[derive(Default)]
pub struct SpanView {
    pub self_s: HashMap<&'static str, f64>,
    pub total_s: HashMap<&'static str, f64>,
    pub count: HashMap<&'static str, u64>,
    /// Sum of the `n=` work counts in the spans' labels.
    pub work: HashMap<&'static str, u64>,
    /// Durations of `memo.context` lookups served from disk, ms.
    pub context_disk_hit_ms: Vec<f64>,
}

fn label_work(label: Option<&str>) -> Option<u64> {
    label?
        .split(' ')
        .find_map(|part| part.strip_prefix("n=")?.parse().ok())
}

impl SpanView {
    /// Exact self times from the parent links of a collector's trace.
    pub fn from_trace(trace: &Trace) -> SpanView {
        let mut view = SpanView::default();
        for row in trace.profile() {
            *view.self_s.entry(row.name).or_default() += row.self_ns as f64 / 1e9;
            *view.total_s.entry(row.name).or_default() += row.total_ns as f64 / 1e9;
            *view.count.entry(row.name).or_default() += row.count;
        }
        for span in &trace.spans {
            if let Some(n) = label_work(span.label.as_deref()) {
                *view.work.entry(span.name).or_default() += n;
            }
            if span.name == "memo.context" && span.annotation == Some("disk_hit") {
                view.context_disk_hit_ms.push(span.dur_ns as f64 / 1e6);
            }
        }
        view
    }

    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    fn per_instance_ms(&self, name: &str) -> f64 {
        match self.count.get(name) {
            Some(&n) if n > 0 => 1e3 * self.total_of(name) / n as f64,
            _ => 0.0,
        }
    }

    fn rate(&self, name: &str) -> f64 {
        let t = self.total_of(name);
        if t > 0.0 {
            self.work.get(name).copied().unwrap_or(0) as f64 / t
        } else {
            0.0
        }
    }

    fn traced_s(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// Share of the traced time in stages above [`OPAQUE_SHARE`] of it
    /// that carry no work counter.
    pub fn opaque_self_frac(&self) -> f64 {
        let traced = self.traced_s();
        if traced <= 0.0 {
            return 0.0;
        }
        let opaque: f64 = self
            .self_s
            .iter()
            .filter(|(name, &s)| s / traced > OPAQUE_SHARE && !self.work.contains_key(*name))
            .fold(0.0, |acc, (_, s)| acc + s);
        opaque / traced
    }
}

/// The `carma-core` stage, import and trace metrics of a traced run.
pub fn stage_metrics(view: &SpanView) -> Vec<Metric> {
    let traced = view.traced_s();
    let disk = &view.context_disk_hit_ms;
    vec![
        Metric::new("core.context_self_s", view.self_of("memo.context"), "s"),
        Metric::new("core.library_self_s", view.self_of("memo.library"), "s"),
        Metric::new("core.cell_self_s", view.self_of("memo.cell"), "s"),
        Metric::new("core.resolve_s", view.total_of("resolve"), "s"),
        Metric::new(
            "core.context_share",
            if traced > 0.0 {
                view.self_of("memo.context") / traced
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("import.admission_s", view.total_of("import.admission"), "s"),
        Metric::timed(
            "memo.context.disk_hit_ms",
            if disk.is_empty() {
                0.0
            } else {
                disk.iter().sum::<f64>() / disk.len() as f64
            },
            "ms",
            disk.len(),
        ),
        Metric::new("trace.opaque_self_frac", view.opaque_self_frac(), "ratio"),
    ]
}

/// The `carma-ga` metrics, from the spans the GA and NSGA-II loops
/// emit (`ga.eval_batch` labels carry the genome count).
pub fn ga_metrics(view: &SpanView) -> Vec<Metric> {
    let count = |name: &str| view.count.get(name).copied().unwrap_or(0) as usize;
    vec![
        Metric::timed(
            "ga.generation_ms",
            view.per_instance_ms("ga.generation"),
            "ms",
            count("ga.generation"),
        ),
        Metric::new("ga.evals_per_s", view.rate("ga.eval_batch"), "1/s"),
        Metric::timed(
            "nsga2.generation_ms",
            view.per_instance_ms("nsga2.generation"),
            "ms",
            count("nsga2.generation"),
        ),
    ]
}

/// `memo.<stage>.{hits,misses,disk_hits,hit_ratio}`.
pub fn memo_metrics(stats: &MemoStats) -> Vec<Metric> {
    let mut out = Vec::new();
    for (stage, c) in [
        ("library", stats.library),
        ("context", stats.context),
        ("cell", stats.cell),
    ] {
        let lookups = c.hits + c.misses;
        out.push(Metric::new(
            format!("memo.{stage}.hits"),
            c.hits as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("memo.{stage}.misses"),
            c.misses as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("memo.{stage}.disk_hits"),
            c.disk_hits as f64,
            "count",
        ));
        out.push(Metric::new(
            format!("memo.{stage}.hit_ratio"),
            if lookups == 0 {
                0.0
            } else {
                c.hits as f64 / lookups as f64
            },
            "ratio",
        ));
    }
    out
}

/// Adds two memo snapshots stage by stage.
pub fn add_memo(a: &mut MemoStats, b: &MemoStats) {
    for (x, y) in [
        (&mut a.library, b.library),
        (&mut a.context, b.context),
        (&mut a.cell, b.cell),
    ] {
        x.hits += y.hits;
        x.misses += y.misses;
        x.disk_hits += y.disk_hits;
    }
}

/// `trace.overhead_frac`: traced wall over untraced wall, minus one.
pub fn overhead_metric(traced_s: f64, untraced_s: f64) -> Metric {
    Metric::new("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio")
}

/// The serve metrics a workload without a server reports as zero.
pub fn no_server_metrics() -> Vec<Metric> {
    vec![
        Metric::new("serve.cache_hit_ratio", 0.0, "ratio"),
        Metric::new("serve.rejected", 0.0, "count"),
        Metric::new("serve.rss_bytes_per_cached_spec", 0.0, "bytes"),
    ]
}

/// The bytes an HTTP/1.1 client sends for `POST /run` with `body`.
pub fn run_request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The workload's own inputs to the probes.
pub struct ProbeInputs {
    /// Distinct multiplier libraries the workload's scenarios use.
    pub libraries: Vec<Arc<MultiplierLibrary>>,
    /// The evaluator configuration of the workload's first scenario.
    pub evaluator: EvaluatorConfig,
    /// A context of the workload's first scenario.
    pub ctx: CarmaContext,
    /// The first scenario, resolved.
    pub scenario: ResolvedScenario,
    /// Every DNN model the workload's scenarios use.
    pub models: Vec<DnnModel>,
    /// `POST /run` bodies (scenario specs).
    pub spec_bodies: Vec<String>,
    /// Further JSON documents the workload parses (memo payloads).
    pub json_docs: Vec<String>,
    /// Whether to run a GA search probe (when the pipeline's own GA
    /// spans are out of reach, inside the server).
    pub ga_probe: bool,
}

/// Runs `body` in a loop for at least [`PROBE_MIN_S`] inside a span
/// named `name`; `body` returns the work one call did.
fn probe_loop(name: &'static str, mut body: impl FnMut() -> u64) -> u64 {
    let _span = carma_trace::SpanGuard::enter(name, || None);
    let start = Instant::now();
    let mut work = 0;
    while start.elapsed().as_secs_f64() < PROBE_MIN_S {
        work += body();
    }
    work
}

fn design_points(seed: u64, library_len: usize) -> Vec<DesignPoint> {
    let pick = |i: u64, n: usize| (derive(seed, i) % n as u64) as u8;
    let pe_lo = *PE_LOG2_RANGE.start();
    let pe_n = usize::from(*PE_LOG2_RANGE.end() - pe_lo + 1);
    (0..PROBE_POINTS as u64)
        .map(|k| DesignPoint {
            pe_width_log2: pe_lo + pick(5 * k, pe_n),
            pe_height_log2: pe_lo + pick(5 * k + 1, pe_n),
            rf_code: pick(5 * k + 2, RF_SIZES.len()),
            gb_code: pick(5 * k + 3, GB_SIZES.len()),
            mult_idx: (derive(seed, 5 * k + 4) % library_len as u64) as u16,
        })
        .collect()
}

/// Runs every probe under a collector of its own; returns the metrics
/// and the probe trace.
pub fn run_probes(inputs: &ProbeInputs, seed: u64) -> (Vec<Metric>, Trace) {
    let collector = Arc::new(Collector::new());
    let mut work: HashMap<&'static str, u64> = HashMap::new();
    carma_trace::with_collector(&collector, || {
        let entries: Vec<_> = inputs
            .libraries
            .iter()
            .flat_map(|lib| lib.entries())
            .collect();

        // carma-netlist: 64-lane simulation of every entry's circuit.
        let sims: Vec<(LaneSim, Vec<u64>)> = entries
            .iter()
            .enumerate()
            .map(|(e, entry)| {
                let netlist = entry.circuit.netlist();
                let words = (0..netlist.input_count() as u64)
                    .map(|i| derive(seed, (e as u64) << 32 | i))
                    .collect();
                (LaneSim::new(netlist), words)
            })
            .collect();
        let lanes = carma_netlist::WORD_LANES as u64;
        work.insert(
            "probe.netlist",
            probe_loop("probe.netlist", || {
                for (sim, words) in &sims {
                    std::hint::black_box(sim.eval(words));
                }
                sims.len() as u64 * lanes
            }),
        );

        // carma-multiplier: exhaustive error profiles and LUT compiles.
        work.insert(
            "probe.error_profile",
            probe_loop("probe.error_profile", || {
                for entry in &entries {
                    std::hint::black_box(ErrorProfile::exhaustive(&entry.circuit));
                }
                entries.len() as u64
            }),
        );
        work.insert(
            "probe.lut_compile",
            probe_loop("probe.lut_compile", || {
                for entry in &entries {
                    std::hint::black_box(LutMultiplier::compile(&entry.circuit));
                }
                entries.len() as u64
            }),
        );

        // carma-dnn: behavioural accuracy emulation of approximate
        // entries of the first library.
        let evaluator = {
            let _span = carma_trace::span!("probe.dnn_setup");
            AccuracyEvaluator::new(inputs.evaluator)
        };
        let luts: Vec<LutMultiplier> = inputs.libraries[0]
            .entries()
            .iter()
            .filter(|e| e.profile.error_rate > 0.0)
            .take(DNN_PROBE_ENTRIES)
            .map(|e| LutMultiplier::compile(&e.circuit))
            .collect();
        {
            let _span = carma_trace::span!("probe.dnn");
            for lut in &luts {
                std::hint::black_box(evaluator.accuracy_drop(lut));
            }
        }
        work.insert("probe.dnn_entries", luts.len() as u64);
        work.insert(
            "probe.dnn",
            inputs.evaluator.samples as u64
                * luts.len() as u64
                * evaluator.network().macs_per_inference(),
        );

        // carma-dataflow and carma-carbon on random design points.
        let points = design_points(seed, inputs.ctx.library().len());
        let node = inputs.ctx.node();
        let perf = PerfModel::new();
        let accels: Vec<_> = points.iter().map(|p| p.to_accelerator(node)).collect();
        work.insert(
            "probe.perf",
            probe_loop("probe.perf", || {
                for accel in &accels {
                    for model in &inputs.models {
                        std::hint::black_box(perf.evaluate(accel, model));
                    }
                }
                (accels.len() * inputs.models.len()) as u64
            }),
        );
        let evals: Vec<_> = points
            .iter()
            .map(|p| inputs.ctx.evaluate(p, &inputs.models[0]))
            .collect();
        let profile = &inputs.scenario.deployment;
        work.insert(
            "probe.footprint",
            probe_loop("probe.footprint", || {
                for eval in &evals {
                    std::hint::black_box(eval.footprint(profile));
                }
                evals.len() as u64
            }),
        );

        // carma-serve HTTP parsing and the vendored JSON parser.
        let requests: Vec<Vec<u8>> = inputs
            .spec_bodies
            .iter()
            .map(|b| run_request_bytes(b))
            .collect();
        work.insert(
            "probe.http_parse",
            probe_loop("probe.http_parse", || {
                for bytes in &requests {
                    let mut scanned = 0;
                    let parsed = try_parse_request(bytes, &mut scanned);
                    assert!(
                        matches!(parsed, TryParse::Request { .. }),
                        "benchmark request must parse"
                    );
                }
                requests.len() as u64
            }),
        );
        let docs: Vec<&String> = inputs.spec_bodies.iter().chain(&inputs.json_docs).collect();
        work.insert(
            "probe.json_parse",
            probe_loop("probe.json_parse", || {
                for doc in &docs {
                    std::hint::black_box(serde::json::parse(doc).expect("workload JSON parses"));
                }
                docs.iter().map(|d| d.len() as u64).sum()
            }),
        );

        // carma-ga: the scenario's GA search on the context.
        if inputs.ga_probe {
            let r = &inputs.scenario;
            for k in 0..2 {
                let config = carma_ga::GaConfig {
                    seed: derive(seed, 1 << 40 | k),
                    ..r.ga
                };
                std::hint::black_box(carma_core::flow::ga_cdp(
                    &inputs.ctx,
                    &inputs.models[0],
                    r.constraints,
                    config,
                ));
            }
        }
    });
    let trace = collector.snapshot();
    let secs = |name: &str| -> f64 {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    };
    let rate = |name: &'static str| work[name] as f64 / secs(name);
    let dnn_s = secs("probe.dnn");
    let metrics = vec![
        Metric::new("dnn.macs_per_s", rate("probe.dnn"), "1/s"),
        Metric::timed(
            "dnn.entry_ms",
            1e3 * dnn_s / work["probe.dnn_entries"].max(1) as f64,
            "ms",
            work["probe.dnn_entries"] as usize,
        ),
        Metric::new("netlist.sim_vectors_per_s", rate("probe.netlist"), "1/s"),
        Metric::new(
            "multiplier.error_profiles_per_s",
            rate("probe.error_profile"),
            "1/s",
        ),
        Metric::new(
            "multiplier.lut_compiles_per_s",
            rate("probe.lut_compile"),
            "1/s",
        ),
        Metric::new("dataflow.perf_evals_per_s", rate("probe.perf"), "1/s"),
        Metric::new(
            "carbon.footprint_evals_per_s",
            rate("probe.footprint"),
            "1/s",
        ),
        Metric::new("serve.parse_ns", 1e9 / rate("probe.http_parse"), "ns"),
        Metric::new(
            "json.parse_mb_per_s",
            rate("probe.json_parse") / 1e6,
            "MB/s",
        ),
    ];
    (metrics, trace)
}

/// Gathers the probe inputs of a workload's `specs`, building the
/// libraries and the context in a fresh in-memory environment.
pub fn probe_inputs(
    registry: &carma_core::ExperimentRegistry,
    specs: &[carma_core::ScenarioSpec],
    json_docs: Vec<String>,
    ga_probe: bool,
) -> Result<ProbeInputs, String> {
    let resolved = specs
        .iter()
        .map(|s| s.resolve(registry, None, None).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let env = carma_core::RunEnv::standard();
    let mut library_keys = Vec::new();
    let mut libraries = Vec::new();
    let mut models: Vec<DnnModel> = Vec::new();
    for r in &resolved {
        let source = r.library_source();
        let key = carma_core::memo::library_source_canon(r, &source);
        if !library_keys.contains(&key) {
            library_keys.push(key);
            libraries.push(env.library_from(r, &source));
        }
        for model in r.models() {
            if !models.iter().any(|m| m.name() == model.name()) {
                models.push(model);
            }
        }
    }
    let scenario = resolved.into_iter().next().ok_or("no scenarios")?;
    Ok(ProbeInputs {
        libraries,
        evaluator: scenario.evaluator(),
        ctx: env.context_for(&scenario, scenario.node),
        models,
        spec_bodies: specs
            .iter()
            .map(carma_core::ScenarioSpec::to_json)
            .collect(),
        json_docs,
        ga_probe,
        scenario,
    })
}
