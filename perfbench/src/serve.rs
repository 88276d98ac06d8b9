//! `serve`: an in-process `carma-serve` server on loopback, driven by a
//! closed loop of keep-alive `POST /run` requests over a pool of specs
//! that differ in seed. New specs arrive at a fixed rate; the first
//! request for a spec is a miss (a GA cell on a warm context). Every
//! other request repeats a spec already answered, drawn zipf-skewed,
//! and is a hit in the result cache.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use carma_core::{ExperimentRegistry, MemoStats, Scale, ScenarioSpec};
use carma_serve::http::{http_request, HttpClient};
use carma_serve::{Server, ServerConfig, ServerHandle};
use carma_trace::{Collector, Trace};

use crate::harness::{self, Metric, Opts, Outcome, Tally};
use crate::layers::{self, SpanView};
use crate::stats::{self, derive, ga_seed, Zipf};

/// Experiments of the pool, assigned round-robin by rank.
const KINDS: [&str; 3] = ["fig2", "deployment", "ablation_metric"];
/// Leading pool ranks set-up sends, one per experiment: they warm the
/// contexts and are answered before the timed phase starts.
const WARM: usize = KINDS.len();
/// Specs in the pool: the warm-up ranks, then the specs that arrive in
/// the timed phase, 120 at the registered 30 s run.
const POOL: usize = WARM + 120;
/// New specs (first requests, so misses) per second of the timed
/// phase. An assumption, as are [`POOL`] and [`ZIPF_S`]: no measured
/// traffic of the server exists. The rate is fixed, so the hit:miss
/// mix does not follow `--seconds`; it spreads the misses over the
/// run, so a slow stretch of the host moves few of them.
const NEW_SPECS_PER_S: f64 = 4.0;
/// Zipf exponent of the repeats' draw over the answered specs, ranked
/// by arrival.
const ZIPF_S: f64 = 1.0;
/// Client threads, one keep-alive connection each.
const CLIENTS: usize = 2;
/// Accuracy samples of the pool's specs. The contexts are warm before
/// the timed phase, so this sets only the cost of set-up (the memo-off
/// references recompute a context per spec), not of a request.
const ACCURACY_SAMPLES: u32 = 8;
/// Width of the windows the run-level serve figures are medians over.
const WINDOW_S: f64 = 1.0;
/// Fewest hits a window needs to contribute a hit median.
const MIN_WINDOW_HITS: usize = 100;
/// Hit latencies a client keeps per window: a uniform sample of the
/// window's hits, so the benchmark's own memory, which counts in
/// `peak_rss_mb`, does not grow with the hit rate.
const HIT_SAMPLE: usize = 4096;
/// Stream of the workload seed the zipf draws come from.
const DRAW_STREAM: u64 = 1 << 32;

fn spec(kind: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named(kind)
        .with_scale(Scale::Quick)
        .with_seed(seed);
    spec.accuracy_samples = Some(ACCURACY_SAMPLES);
    spec
}

/// Pool rank `k` runs `KINDS[k % 3]` with GA seed `ga_seed(seed, k)`.
fn pool(seed: u64) -> Vec<ScenarioSpec> {
    (0..POOL)
        .map(|k| spec(KINDS[k % KINDS.len()], ga_seed(seed, k as u64)))
        .collect()
}

fn envelope(cache: &str, fingerprint: &str, report: &str) -> String {
    format!("{{\"cache\":\"{cache}\",\"fingerprint\":\"{fingerprint}\",\"report\":{report}}}")
}

/// A running server whose contexts are warm.
struct Live {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
}

impl Live {
    /// Binds with the default configuration and sends the warm-up
    /// bodies; returns the server and each warm-up's response body.
    fn start(warm: &[String]) -> Result<(Live, Vec<Option<String>>), String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let live = Live {
            addr: handle.addr(),
            handle: Some(handle),
        };
        let bodies = warm
            .iter()
            .map(|body| {
                http_request(live.addr, "POST", "/run", Some(body))
                    .ok()
                    .filter(|r| r.status == 200)
                    .map(|r| r.body)
            })
            .collect();
        Ok((live, bodies))
    }

    /// `GET /metrics`, by series (labels included).
    fn metrics(&self) -> HashMap<String, f64> {
        let Ok(response) = http_request(self.addr, "GET", "/metrics", None) else {
            return HashMap::new();
        };
        response
            .body
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect()
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

struct Serve {
    registry: ExperimentRegistry,
    pool: Vec<ScenarioSpec>,
    bodies: Vec<String>,
    expected_hit: Vec<String>,
    expected_miss: Vec<String>,
    references: Vec<String>,
    live: Live,
    /// Whether each warm-up answer was the expected miss.
    warm_ok: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Answer {
    Hit,
    Miss,
    Failed,
}

/// The requests of one timed or traced phase, kept in a size that does
/// not depend on the request rate: the benchmark runs in the server's
/// process, so its own bookkeeping counts in `peak_rss_mb`.
#[derive(Default)]
struct Phase {
    /// A uniform sample (reservoir) of at most [`HIT_SAMPLE`] hit
    /// latencies per client, in nanoseconds, by the [`WINDOW_S`]
    /// window each hit completed in.
    hit_ns: Vec<Vec<u32>>,
    /// Hits by window.
    hits: Vec<usize>,
    /// Answered requests by window.
    answered: Vec<usize>,
    /// Miss latencies in seconds, by the spec's experiment (index into
    /// [`KINDS`]).
    miss_s: [Vec<f64>; KINDS.len()],
    failed: u64,
    wall_s: f64,
}

impl Phase {
    fn window(&mut self, end_s: f64) -> usize {
        let w = (end_s / WINDOW_S) as usize;
        if self.answered.len() <= w {
            self.answered.resize(w + 1, 0);
            self.hits.resize(w + 1, 0);
            self.hit_ns.resize_with(w + 1, Vec::new);
        }
        w
    }

    fn record(&mut self, answer: Answer, rank: usize, end_s: f64, latency: Duration) {
        let w = self.window(end_s);
        match answer {
            Answer::Hit => {
                let ns = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
                self.hits[w] += 1;
                let seen = self.hits[w] as u64;
                let sample = &mut self.hit_ns[w];
                if sample.len() < HIT_SAMPLE {
                    sample.push(ns);
                } else if let Some(slot) = sample.get_mut((derive(w as u64, seen) % seen) as usize)
                {
                    *slot = ns;
                }
            }
            Answer::Miss => self.miss_s[rank % KINDS.len()].push(latency.as_secs_f64()),
            Answer::Failed => {
                self.failed += 1;
                return;
            }
        }
        self.answered[w] += 1;
    }

    fn merge(&mut self, other: Phase) {
        if let Some(last) = other.answered.len().checked_sub(1) {
            self.window(last as f64 * WINDOW_S);
        }
        for (w, ((sample, hits), answered)) in other
            .hit_ns
            .into_iter()
            .zip(other.hits)
            .zip(other.answered)
            .enumerate()
        {
            self.hit_ns[w].extend(sample);
            self.hits[w] += hits;
            self.answered[w] += answered;
        }
        for (mine, theirs) in self.miss_s.iter_mut().zip(other.miss_s) {
            mine.extend(theirs);
        }
        self.failed += other.failed;
    }

    fn answered(&self) -> usize {
        self.answered.iter().sum()
    }

    fn requests(&self) -> usize {
        self.answered() + self.failed as usize
    }

    /// The sampled hit latencies of every window, in seconds.
    fn hit_s(&self) -> Vec<f64> {
        self.hit_ns
            .iter()
            .flatten()
            .map(|&ns| f64::from(ns) / 1e9)
            .collect()
    }

    /// Every miss latency, in seconds.
    fn all_miss_s(&self) -> Vec<f64> {
        self.miss_s.concat()
    }

    /// The median across experiments of each experiment's median miss
    /// latency (seconds), so the run's figure does not hinge on where
    /// the experiments' cost levels meet in the pooled order.
    fn miss_p50_s(&self) -> Option<f64> {
        let medians: Vec<f64> = self
            .miss_s
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        (!medians.is_empty()).then(|| stats::median(&medians))
    }

    /// Per whole [`WINDOW_S`] window: answered requests per second,
    /// and the median sampled hit latency (seconds) of each window with
    /// at least [`MIN_WINDOW_HITS`] hits. The host slows down for seconds
    /// at a time; medians over windows keep such stretches from moving
    /// a run's figure unless they fill half of it.
    fn windows(&self) -> (Vec<f64>, Vec<f64>) {
        let full = ((self.wall_s / WINDOW_S) as usize).min(self.answered.len());
        let rates = self.answered[..full]
            .iter()
            .map(|&c| c as f64 / WINDOW_S)
            .collect();
        let medians = self.hit_ns[..full]
            .iter()
            .zip(&self.hits)
            .filter(|&(_, &hits)| hits >= MIN_WINDOW_HITS)
            .map(|(w, _)| {
                stats::median(&w.iter().map(|&ns| f64::from(ns) / 1e9).collect::<Vec<_>>())
            })
            .collect();
        (rates, medians)
    }
}

impl Serve {
    fn setup(seed: u64) -> Result<Serve, String> {
        let registry = ExperimentRegistry::standard();
        let pool = pool(seed);
        let references = harness::bare_references(&registry, &pool)?;
        let fingerprints = pool
            .iter()
            .map(|s| {
                s.resolve(&registry, None, None)
                    .map(|r| r.fingerprint())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let expected = |cache: &str| -> Vec<String> {
            fingerprints
                .iter()
                .zip(&references)
                .map(|(fingerprint, report)| envelope(cache, fingerprint, report))
                .collect()
        };
        let expected_hit = expected("hit");
        let expected_miss = expected("miss");
        let bodies: Vec<String> = pool.iter().map(ScenarioSpec::to_json).collect();
        let (live, answers) = Live::start(&bodies[..WARM])?;
        let warm_ok = answers
            .iter()
            .zip(&expected_miss)
            .map(|(got, want)| got.as_ref() == Some(want))
            .collect();
        Ok(Serve {
            registry,
            pool,
            bodies,
            expected_hit,
            expected_miss,
            references,
            live,
            warm_ok,
        })
    }

    /// A fresh server, warmed like set-up's; each warm-up answer counts
    /// in `tally`.
    fn start_replay(&self, tally: &mut Tally) -> Result<Live, String> {
        let (live, answers) = Live::start(&self.bodies[..WARM])?;
        for (got, want) in answers.iter().zip(&self.expected_miss) {
            tally.record(got.as_ref() == Some(want));
        }
        Ok(live)
    }

    /// The response to the request for rank `k` must be a `miss` if it
    /// was the first request for `k`, else a `hit`, by its
    /// `X-Carma-Cache` header; the body must equal that answer's
    /// envelope byte for byte.
    fn answer(
        &self,
        k: usize,
        first: bool,
        response: std::io::Result<carma_serve::http::HttpResponse>,
    ) -> Answer {
        let (answer, cache, body) = if first {
            (Answer::Miss, "miss", &self.expected_miss[k])
        } else {
            (Answer::Hit, "hit", &self.expected_hit[k])
        };
        match response {
            Ok(r)
                if r.status == 200
                    && r.headers
                        .iter()
                        .any(|(name, value)| name == "x-carma-cache" && value == cache)
                    && r.body == *body =>
            {
                answer
            }
            _ => Answer::Failed,
        }
    }

    /// The closed loop: `CLIENTS` threads send until `seconds` pass.
    /// A request takes the next pool rank that is due ([`WARM`] + 1 at
    /// the start, one more every `1 / NEW_SPECS_PER_S` seconds), else
    /// repeats a rank already answered: draw `i` of the zipf sequence
    /// over the ranks requested so far, skipping a rank whose first
    /// response has not come back. Each request is a span when a
    /// collector is given.
    fn drive(
        &self,
        addr: SocketAddr,
        seed: u64,
        seconds: f64,
        collector: Option<&Arc<Collector>>,
    ) -> Phase {
        let zipf = Zipf::new(POOL, ZIPF_S);
        let draw_seed = derive(seed, DRAW_STREAM);
        let next_draw = AtomicU64::new(0);
        // Counters and flags only; they publish no other data, so
        // `Relaxed` suffices.
        let requested = AtomicUsize::new(WARM);
        let answered: Vec<AtomicBool> = (0..POOL).map(|k| AtomicBool::new(k < WARM)).collect();
        let start = Instant::now();
        let per_client: Vec<Phase> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let run = || {
                            let mut out = Phase::default();
                            let mut client = HttpClient::connect(addr).ok();
                            while start.elapsed().as_secs_f64() < seconds {
                                let due = (WARM
                                    + 1
                                    + (NEW_SPECS_PER_S * start.elapsed().as_secs_f64()) as usize)
                                    .min(POOL);
                                let (k, first) = match requested.fetch_update(
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                    |n| (n < due).then_some(n + 1),
                                ) {
                                    Ok(k) => (k, true),
                                    // Terminates: the warm-up ranks are answered.
                                    Err(n) => (
                                        std::iter::repeat_with(|| {
                                            let i = next_draw.fetch_add(1, Ordering::Relaxed);
                                            zipf.draw(draw_seed, i, n)
                                        })
                                        .find(|&k| answered[k].load(Ordering::Relaxed))
                                        .expect("an endless draw sequence"),
                                        false,
                                    ),
                                };
                                let span = carma_trace::span!("bench.request", "rank={k}");
                                let t = Instant::now();
                                let response = match client.as_mut() {
                                    Some(c) => c.request("POST", "/run", Some(&self.bodies[k])),
                                    None => Err(std::io::Error::other("not connected")),
                                };
                                let answer = self.answer(k, first, response);
                                out.record(answer, k, start.elapsed().as_secs_f64(), t.elapsed());
                                if first {
                                    answered[k].store(true, Ordering::Relaxed);
                                }
                                span.annotate(match answer {
                                    Answer::Hit => "hit",
                                    Answer::Miss => "miss",
                                    Answer::Failed => "failed",
                                });
                                if answer == Answer::Failed {
                                    client = HttpClient::connect(addr).ok();
                                }
                            }
                            out
                        };
                        match collector {
                            Some(c) => carma_trace::with_collector(c, run),
                            None => run(),
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        let mut phase = Phase {
            wall_s: start.elapsed().as_secs_f64(),
            ..Phase::default()
        };
        for client in per_client {
            phase.merge(client);
        }
        phase
    }
}

/// Share of GA eval-batch time spent outside a generation (the initial
/// population), from the parent links of the GA probe's spans.
fn direct_eval_share(trace: &Trace) -> f64 {
    let names: HashMap<u64, &str> = trace.spans.iter().map(|s| (s.id, s.name)).collect();
    let (mut direct, mut all) = (0u64, 0u64);
    for s in trace.spans.iter().filter(|s| s.name == "ga.eval_batch") {
        all += s.dur_ns;
        if names.get(&s.parent) != Some(&"ga.generation") {
            direct += s.dur_ns;
        }
    }
    if all == 0 {
        0.0
    } else {
        direct as f64 / all as f64
    }
}

/// The stage view of a server-side interval, from the deltas of its
/// cumulative `carma_stage_seconds_total` series. `memo.context` and
/// `memo.library` are leaves here; the cell's self time subtracts its
/// GA children, splitting eval batches by `direct_share`.
fn server_view(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    direct_share: f64,
) -> SpanView {
    let delta = |stage: &str| {
        let key = format!("carma_stage_seconds_total{{stage=\"{stage}\"}}");
        after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0)
    };
    let ga = delta("ga.generation") + direct_share * delta("ga.eval_batch");
    let mut view = SpanView::default();
    let parts = [
        ("memo.context", delta("memo.context")),
        ("memo.library", delta("memo.library")),
        ("memo.cell", (delta("memo.cell") - ga).max(0.0)),
        ("resolve", delta("resolve")),
        ("ga", ga),
    ];
    let accounted: f64 = parts.iter().map(|&(_, s)| s).sum();
    for (name, s) in parts
        .into_iter()
        .chain([("run", (delta("run") - accounted).max(0.0))])
    {
        view.self_s.insert(name, s);
        view.total_s.insert(name, s);
    }
    view.total_s
        .insert("import.admission", delta("import.admission"));
    view.work.insert("ga", 1);
    view
}

fn server_memo(before: &HashMap<String, f64>, after: &HashMap<String, f64>) -> MemoStats {
    let delta = |series: &str, stage: &str| {
        let key = format!("{series}{{stage=\"{stage}\"}}");
        (after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0)) as u64
    };
    let mut memo = MemoStats::default();
    for (counts, stage) in [
        (&mut memo.library, "library"),
        (&mut memo.context, "context"),
        (&mut memo.cell, "cell"),
    ] {
        counts.hits = delta("carma_memo_hits_total", stage);
        counts.misses = delta("carma_memo_misses_total", stage);
    }
    memo
}

fn tail_note(name: &str, values: &[f64], q: f64, unit: &str, scale: f64) -> String {
    match stats::percentile(values, q) {
        Some(v) => format!(
            "  {name:<14} {:>12.3} {unit}  (n={})",
            v * scale,
            values.len()
        ),
        None => format!(
            "  {name:<14} refused: fewer than {} of n={} samples beyond it",
            stats::MIN_SAMPLES_BEYOND,
            values.len()
        ),
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (bench, setup_secs) =
        harness::repeat_setup(&mut tally, || Serve::setup(opts.seed), |s| &s.references)?;
    for &ok in &bench.warm_ok {
        tally.record(ok);
    }

    let rss_before = stats::self_status_bytes("VmRSS").unwrap_or(0);
    let entries_before = bench
        .live
        .metrics()
        .get("carma_cache_entries")
        .copied()
        .unwrap_or(0.0);
    let timed = bench.drive(bench.live.addr, opts.seed, opts.seconds, None);
    let rss_after = stats::self_status_bytes("VmRSS").unwrap_or(0);
    let scraped = bench.live.metrics();
    tally.add(timed.answered() as u64, timed.failed);

    let miss_s = timed.all_miss_s();
    let (rates, hit_medians) = timed.windows();
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let end_to_end = vec![
        harness::setup_metric(&setup_secs),
        Metric::timed(
            "scenarios_per_s",
            median_or_zero(&rates),
            "1/s",
            rates.len(),
        ),
        Metric::timed(
            "hit_p50_ms",
            1e3 * median_or_zero(&hit_medians),
            "ms",
            hit_medians.len(),
        ),
        Metric::timed(
            "miss_p50_ms",
            1e3 * timed.miss_p50_s().unwrap_or(0.0),
            "ms",
            miss_s.len(),
        ),
        harness::peak_rss_metric(),
    ];
    // After the peak RSS reading: the flattened copy is the benchmark's.
    let hit_s = timed.hit_s();
    let mut notes = vec![
        format!(
            "serve: {} requests over {CLIENTS} keep-alive connections in {:.3} s ({} hits, {} misses, {} failed); pool {POOL} specs, {NEW_SPECS_PER_S} new/s, repeats zipf s={ZIPF_S}; hit percentiles over a sample of {} hits",
            timed.requests(),
            timed.wall_s,
            timed.hits.iter().sum::<usize>(),
            miss_s.len(),
            timed.failed,
            hit_s.len()
        ),
        format!("  requests_per_s {:>12.3} 1/s  (n={})", timed.requests() as f64 / timed.wall_s, timed.requests()),
        tail_note("hit_p50_us", &hit_s, 0.50, "us", 1e6),
        tail_note("hit_p99_us", &hit_s, 0.99, "us", 1e6),
        tail_note("miss_p90_ms", &miss_s, 0.90, "ms", 1e3),
    ];
    for (kind, v) in KINDS.iter().zip(&timed.miss_s) {
        if !v.is_empty() {
            notes.push(format!(
                "  miss {kind:<16} median {:>10.3} ms  (n={})",
                1e3 * stats::median(v),
                v.len()
            ));
        }
    }

    let mut per_layer = Vec::new();
    if opts.trace {
        let cached = scraped.get("carma_cache_entries").copied().unwrap_or(0.0) - entries_before;
        let scraped_or_zero = |k: &str| scraped.get(k).copied().unwrap_or(0.0);
        per_layer.push(Metric::new(
            "serve.cache_hit_ratio",
            scraped_or_zero("carma_cache_hit_ratio"),
            "ratio",
        ));
        per_layer.push(Metric::new(
            "serve.rejected",
            scraped_or_zero("carma_connections_shed_total")
                + scraped_or_zero("carma_queue_shed_total"),
            "count",
        ));
        per_layer.push(Metric::new(
            "serve.rss_bytes_per_cached_spec",
            (rss_after as f64 - rss_before as f64) / cached.max(1.0),
            "bytes",
        ));

        // The traced replay: the same schedule on a fresh server, each
        // request a client span; the server's own collector times its
        // stages.
        let replay = bench.start_replay(&mut tally)?;
        let collector = Arc::new(Collector::new());
        let before = replay.metrics();
        let traced = bench.drive(replay.addr, opts.seed, opts.seconds, Some(&collector));
        let after = replay.metrics();
        drop(replay);
        tally.add(traced.answered() as u64, traced.failed);

        let inputs = layers::probe_inputs(&bench.registry, &bench.pool, Vec::new(), true)?;
        let (probes, probe_trace) = layers::run_probes(&inputs, opts.seed);
        let view = server_view(&before, &after, direct_eval_share(&probe_trace));
        per_layer.extend(layers::stage_metrics(&view));
        per_layer.extend(layers::ga_metrics(&SpanView::from_trace(&probe_trace)));
        per_layer.extend(layers::memo_metrics(&server_memo(&before, &after)));
        per_layer.push(Metric::new("memo.context.payload_bytes", 0.0, "bytes"));
        // Both phases are time-bounded: compare wall per request.
        per_layer.push(layers::overhead_metric(
            traced.wall_s / traced.requests().max(1) as f64,
            timed.wall_s / timed.requests().max(1) as f64,
        ));
        per_layer.extend(probes);
    }
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
        notes,
    })
}
