//! # carma-trace
//!
//! Dependency-free hierarchical span tracing and profiling for the
//! CARMA pipeline: thread-aware spans with parent links, named
//! counters, a lock-sharded in-memory buffer, and three sinks — a
//! text profile tree, Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto), and machine-readable span totals
//! that `carma-core` folds into the report `provenance` block.
//!
//! ## Subscriber model
//!
//! A [`Collector`] is installed **ambiently per thread** with
//! [`with_collector`]; nothing is process-global, so parallel tests
//! cannot cross-contaminate each other's traces. When no collector is
//! installed, [`span!`] is strictly a no-op: one thread-local read,
//! no allocation, no lock — the label closure is never even called.
//!
//! Worker threads do not inherit thread-locals, so `carma-exec`
//! captures the spawning thread's context with [`ambient`] and
//! re-installs it on each pool thread with [`with_ambient`]; spans
//! opened inside workers parent correctly across the thread boundary.
//!
//! ## Spans
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(carma_trace::Collector::new());
//! carma_trace::with_collector(&collector, || {
//!     let _run = carma_trace::span!("run");
//!     {
//!         let stage = carma_trace::span!("memo.library", "depth={}", 3);
//!         stage.annotate("miss");
//!     }
//! });
//! let trace = collector.snapshot();
//! assert_eq!(trace.spans.len(), 2);
//! println!("{}", trace.text_profile());
//! ```
//!
//! ## Diagnostics
//!
//! [`diag`] is the one sanctioned stderr writer: a global lock makes
//! every diagnostic line atomic, so warnings no longer interleave
//! with worker output under parallel runs.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Number of buffer shards; recording locks exactly one, chosen by
/// span id, so concurrent workers rarely contend.
const SHARDS: usize = 16;

/// One completed span, as stored in the collector buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (1-based; 0 is reserved for "no parent").
    pub id: u64,
    /// Id of the enclosing span, 0 for roots.
    pub parent: u64,
    /// Static span name (`"memo.library"`, `"ga.generation"`, …).
    pub name: &'static str,
    /// Optional dynamic label (`"gen=12"`), built lazily — the
    /// format arguments of [`span!`] are only evaluated when a
    /// collector is installed.
    pub label: Option<String>,
    /// Optional outcome annotation (`"hit"`, `"miss"`, `"disk_hit"`).
    pub annotation: Option<&'static str>,
    /// Small per-process ordinal of the recording thread.
    pub thread: u64,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// The span's work count: the `n=<count>` part of its label
    /// (vectors, MACs, evaluations…), if it carries one.
    pub fn work(&self) -> Option<u64> {
        self.label
            .as_deref()?
            .split(' ')
            .find_map(|part| part.strip_prefix("n=")?.parse().ok())
    }
}

#[derive(Default)]
struct Shard {
    /// Recent spans, oldest first; bounded by the ring capacity.
    spans: std::collections::VecDeque<SpanRecord>,
    /// Spans evicted from the ring (the cumulative aggregates below
    /// still include them).
    dropped: u64,
    /// Cumulative per-name (count, total_ns) — never evicted, so
    /// `/metrics`-style totals stay monotonic on a bounded ring.
    aggregates: HashMap<&'static str, (u64, u64)>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The in-memory span buffer: lock-sharded, optionally bounded
/// (serve keeps a ring of recent spans; the CLI keeps everything).
pub struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    /// Max spans kept **per shard**.
    ring_capacity: usize,
    /// When set, closing a span at nesting depth ≤ 1 emits a
    /// [`diag`] progress line (the `carma run --verbose` feed).
    verbose: bool,
    counters: Mutex<HashMap<&'static str, u64>>,
}

impl Collector {
    /// An unbounded collector (one CLI run's worth of spans).
    pub fn new() -> Collector {
        Collector::with_capacity(usize::MAX)
    }

    /// A collector that additionally prints a [`diag`] progress line
    /// whenever a top-level pipeline stage finishes.
    pub fn new_verbose() -> Collector {
        let mut c = Collector::new();
        c.verbose = true;
        c
    }

    /// A bounded collector keeping roughly the `capacity` most recent
    /// spans (serve's always-on request ring). Cumulative aggregates
    /// are unaffected by eviction.
    pub fn bounded(capacity: usize) -> Collector {
        Collector::with_capacity(capacity.div_ceil(SHARDS).max(1))
    }

    fn with_capacity(per_shard: usize) -> Collector {
        Collector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            ring_capacity: per_shard,
            verbose: false,
            counters: Mutex::new(HashMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord, depth: u32) {
        if self.verbose && depth <= 1 {
            let label = record
                .label
                .as_deref()
                .map(|l| format!(" {l}"))
                .unwrap_or_default();
            diag(&format!(
                "[carma] {}{label} … {:.3}s",
                record.name,
                record.dur_ns as f64 / 1e9
            ));
        }
        let shard = &self.shards[(record.id as usize) % SHARDS];
        let mut s = lock(shard);
        let agg = s.aggregates.entry(record.name).or_insert((0, 0));
        agg.0 += 1;
        agg.1 += record.dur_ns;
        if s.spans.len() >= self.ring_capacity {
            s.spans.pop_front();
            s.dropped += 1;
        }
        s.spans.push_back(record);
    }

    /// Records an already-measured root span (no guard): the serve
    /// event loop times requests itself and stamps them in on
    /// completion.
    pub fn record_complete(
        &self,
        name: &'static str,
        label: Option<String>,
        dur: Duration,
        annotation: Option<&'static str>,
    ) {
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let end_ns = self.now_ns();
        self.push(
            SpanRecord {
                id: self.next_id(),
                parent: 0,
                name,
                label,
                annotation,
                thread: thread_ordinal(),
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
            },
            u32::MAX, // never a --verbose progress line
        );
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += delta;
    }

    /// Cumulative per-span-name `(name, count, total_ns)`, sorted by
    /// name. Monotonic even on a bounded ring — this feeds the
    /// `carma_stage_seconds_total` metrics series.
    pub fn aggregates(&self) -> Vec<(&'static str, u64, u64)> {
        let mut merged: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for shard in &self.shards {
            for (name, (count, total)) in &lock(shard).aggregates {
                let e = merged.entry(name).or_insert((0, 0));
                e.0 += count;
                e.1 += total;
            }
        }
        let mut out: Vec<_> = merged.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
        out.sort_unstable_by_key(|&(n, _, _)| n);
        out
    }

    /// Total spans ever recorded (including ring-evicted ones).
    pub fn span_count(&self) -> u64 {
        self.aggregates().iter().map(|&(_, c, _)| c).sum()
    }

    /// Snapshots the buffered spans and counters into a [`Trace`]
    /// (non-destructive; spans come back sorted by start time).
    pub fn snapshot(&self) -> Trace {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for shard in &self.shards {
            let s = lock(shard);
            spans.extend(s.spans.iter().cloned());
            dropped += s.dropped;
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut counters: Vec<(&'static str, u64)> =
            lock(&self.counters).iter().map(|(&n, &v)| (n, v)).collect();
        counters.sort_unstable_by_key(|&(n, _)| n);
        Trace {
            spans,
            counters,
            dropped,
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

/// The ambient tracing context of the current thread: which collector
/// records, and which span id new spans parent under. Opaque —
/// obtained from [`ambient`] and handed to [`with_ambient`] when
/// crossing a thread boundary.
#[derive(Clone)]
pub struct Ctx {
    collector: Arc<Collector>,
    parent: u64,
    depth: u32,
}

thread_local! {
    static AMBIENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// Restores the previous ambient context on scope exit (also on
/// panic, so a poisoned run cannot leak its collector into later
/// work on the same thread).
struct RestoreAmbient(Option<Ctx>);

impl Drop for RestoreAmbient {
    fn drop(&mut self) {
        let prev = self.0.take();
        AMBIENT.with(|a| *a.borrow_mut() = prev);
    }
}

/// Installs `collector` as the current thread's subscriber for the
/// duration of `f`. Nestable; the previous subscriber is restored on
/// exit.
pub fn with_collector<R>(collector: &Arc<Collector>, f: impl FnOnce() -> R) -> R {
    let ctx = Ctx {
        collector: Arc::clone(collector),
        parent: 0,
        depth: 0,
    };
    with_ambient(Some(ctx), f)
}

/// Snapshot of the current thread's tracing context, for re-install
/// on a worker thread via [`with_ambient`]. `None` when tracing is
/// off — propagating `None` is free.
pub fn ambient() -> Option<Ctx> {
    AMBIENT.with(|a| a.borrow().clone())
}

/// Runs `f` with the given ambient context installed (the worker-side
/// half of cross-thread propagation). The previous context is
/// restored afterwards.
pub fn with_ambient<R>(ctx: Option<Ctx>, f: impl FnOnce() -> R) -> R {
    let prev = AMBIENT.with(|a| a.borrow_mut().take());
    AMBIENT.with(|a| *a.borrow_mut() = ctx);
    let _restore = RestoreAmbient(prev);
    f()
}

/// Whether a collector is installed on this thread (one TLS read).
pub fn enabled() -> bool {
    AMBIENT.with(|a| a.borrow().is_some())
}

/// Adds `delta` to the named counter of the installed collector;
/// no-op when tracing is off.
pub fn counter(name: &'static str, delta: u64) {
    AMBIENT.with(|a| {
        if let Some(ctx) = a.borrow().as_ref() {
            ctx.collector.add_counter(name, delta);
        }
    });
}

struct ActiveSpan {
    /// The context to restore on drop: the span's own parent and
    /// depth (`ctx.parent` is the *enclosing* span's id).
    ctx: Ctx,
    id: u64,
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
}

/// RAII span guard: created by [`span!`], records on drop. When no
/// collector is installed the guard is inert (`active: None`) and
/// drop does nothing.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    annotation: Cell<Option<&'static str>>,
}

impl SpanGuard {
    /// Opens a span under the current ambient context. `label` is
    /// only invoked when a collector is installed — [`span!`] routes
    /// its format arguments through here so the disabled path never
    /// allocates.
    pub fn enter(name: &'static str, label: impl FnOnce() -> Option<String>) -> SpanGuard {
        // Claim an id and redirect the ambient parent while holding
        // the TLS borrow, but evaluate the label (arbitrary user
        // format code) only after releasing it.
        let opened = AMBIENT.with(|a| {
            let mut slot = a.borrow_mut();
            let ctx = slot.as_mut()?;
            let id = ctx.collector.next_id();
            let span_ctx = Ctx {
                collector: Arc::clone(&ctx.collector),
                parent: ctx.parent,
                depth: ctx.depth,
            };
            // New spans on this thread parent under this one.
            ctx.parent = id;
            ctx.depth += 1;
            Some((span_ctx, id))
        });
        let active = opened.map(|(span_ctx, id)| {
            let start_ns = span_ctx.collector.now_ns();
            ActiveSpan {
                ctx: span_ctx,
                id,
                name,
                label: label(),
                start_ns,
            }
        });
        SpanGuard {
            active,
            annotation: Cell::new(None),
        }
    }

    /// Attaches an outcome annotation (`"hit"`, `"miss"`, …) recorded
    /// with the span.
    pub fn annotate(&self, annotation: &'static str) {
        if self.active.is_some() {
            self.annotation.set(Some(annotation));
        }
    }

    /// Replaces the span's label, for a work count known only once the
    /// work is done. `label` only runs when a collector is installed.
    pub fn relabel(&mut self, label: impl FnOnce() -> String) {
        if let Some(active) = self.active.as_mut() {
            active.label = Some(label());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = active.ctx.collector.now_ns();
        // Restore this thread's parent/depth to the enclosing span.
        AMBIENT.with(|a| {
            if let Some(ctx) = a.borrow_mut().as_mut() {
                ctx.parent = active.ctx.parent;
                ctx.depth = active.ctx.depth;
            }
        });
        let collector = Arc::clone(&active.ctx.collector);
        collector.push(
            SpanRecord {
                id: active.id,
                parent: active.ctx.parent,
                name: active.name,
                label: active.label,
                annotation: self.annotation.get(),
                thread: thread_ordinal(),
                start_ns: active.start_ns,
                dur_ns: end_ns.saturating_sub(active.start_ns),
            },
            active.ctx.depth,
        );
    }
}

/// Opens a hierarchical span: `span!("name")` or
/// `span!("name", "fmt", args…)` for a dynamic label. Binds to a
/// guard; the span closes (and records) when the guard drops. With no
/// collector installed this is a no-op and the format arguments are
/// never evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, || None)
    };
    ($name:expr, $($fmt:tt)+) => {
        $crate::SpanGuard::enter($name, || Some(format!($($fmt)+)))
    };
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A drained view of a collector: spans (start-ordered), counters,
/// and how many spans a bounded ring evicted.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All buffered spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Named counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Spans evicted from a bounded ring before this snapshot.
    pub dropped: u64,
}

/// One aggregated row of the text profile (and the provenance span
/// table): spans grouped by their name-path from the root.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// `/`-joined span-name path from the root (`run/runner/ga.generation`).
    pub path: String,
    /// Nesting depth (number of ancestors).
    pub depth: usize,
    /// Leaf span name.
    pub name: &'static str,
    /// Instances at this path.
    pub count: u64,
    /// Total nanoseconds across instances.
    pub total_ns: u64,
    /// Total minus time attributed to child spans.
    pub self_ns: u64,
    /// Median instance duration.
    pub p50_ns: u64,
    /// 99th-percentile instance duration (nearest-rank).
    pub p99_ns: u64,
    /// Summed work counts of the instances that carry one
    /// ([`SpanRecord::work`]).
    pub work: Option<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Trace {
    /// Aggregates spans by name-path: one row per distinct path, with
    /// count/total/self/p50/p99. Rows come back in lexicographic path
    /// order, which is exactly depth-first tree order.
    pub fn profile(&self) -> Vec<ProfileRow> {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        // Time attributed to children, per parent instance.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns;
            }
        }
        let mut paths: HashMap<u64, String> = HashMap::new();
        fn path_of(
            id: u64,
            by_id: &HashMap<u64, &SpanRecord>,
            paths: &mut HashMap<u64, String>,
        ) -> String {
            if let Some(p) = paths.get(&id) {
                return p.clone();
            }
            let span = by_id[&id];
            let path = match by_id.get(&span.parent) {
                Some(_) => format!("{}/{}", path_of(span.parent, by_id, paths), span.name),
                None => span.name.to_string(),
            };
            paths.insert(id, path.clone());
            path
        }
        type Row = (&'static str, Vec<u64>, u64, Option<u64>);
        let mut rows: std::collections::BTreeMap<String, Row> = std::collections::BTreeMap::new();
        for s in &self.spans {
            let path = path_of(s.id, &by_id, &mut paths);
            let own = s.dur_ns - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns);
            let row = rows
                .entry(path)
                .or_insert_with(|| (s.name, Vec::new(), 0, None));
            row.1.push(s.dur_ns);
            row.2 += own;
            if let Some(n) = s.work() {
                row.3 = Some(row.3.unwrap_or(0) + n);
            }
        }
        rows.into_iter()
            .map(|(path, (name, mut durs, self_ns, work))| {
                durs.sort_unstable();
                ProfileRow {
                    depth: path.matches('/').count(),
                    name,
                    count: durs.len() as u64,
                    total_ns: durs.iter().sum(),
                    self_ns,
                    p50_ns: percentile(&durs, 0.50),
                    p99_ns: percentile(&durs, 0.99),
                    work,
                    path,
                }
            })
            .collect()
    }

    /// The text profile tree: one indented row per span path with
    /// count, total, self time, and p50/p99 instance latencies, plus
    /// `n=<work>` on rows whose spans carry a work count.
    pub fn text_profile(&self) -> String {
        let rows = self.profile();
        let total_roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_ns)
            .sum();
        let name_width = rows
            .iter()
            .map(|r| 2 * r.depth + r.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = format!(
            "trace profile: {} spans, {:.3}s traced{}\n{:<name_width$}  {:>7}  {:>12}  {:>12}  {:>10}  {:>10}\n",
            self.spans.len(),
            total_roots as f64 / 1e9,
            if self.dropped > 0 {
                format!(" ({} dropped from ring)", self.dropped)
            } else {
                String::new()
            },
            "span",
            "count",
            "total_ms",
            "self_ms",
            "p50_ms",
            "p99_ms",
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<name_width$}  {:>7}  {:>12.3}  {:>12.3}  {:>10.3}  {:>10.3}{}\n",
                format!("{}{}", "  ".repeat(r.depth), r.name),
                r.count,
                ms(r.total_ns),
                ms(r.self_ns),
                ms(r.p50_ns),
                ms(r.p99_ns),
                r.work.map(|n| format!("  n={n}")).unwrap_or_default(),
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name} = {value}\n"));
            }
        }
        out
    }

    fn chrome_event(s: &SpanRecord) -> String {
        let mut args = String::new();
        if let Some(label) = &s.label {
            args.push_str(&format!("\"label\":\"{}\"", json_escape(label)));
        }
        if let Some(annotation) = s.annotation {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("\"annotation\":\"{annotation}\""));
        }
        format!(
            "{{\"name\":\"{}\",\"cat\":\"carma\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
            json_escape(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.thread,
        )
    }

    fn chrome_json_of(spans: &[&SpanRecord]) -> String {
        let events: Vec<String> = spans.iter().map(|s| Trace::chrome_event(s)).collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",")
        )
    }

    /// The whole trace as Chrome `trace_event` JSON — load the file
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_json(&self) -> String {
        Trace::chrome_json_of(&self.spans.iter().collect::<Vec<_>>())
    }

    /// Chrome JSON restricted to the `last` most recent root spans
    /// plus their descendants (the `GET /trace?last=N` payload).
    pub fn chrome_json_recent(&self, last: usize) -> String {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 || !by_id.contains_key(&s.parent))
            .collect();
        roots.sort_by_key(|s| (s.start_ns, s.id));
        let keep: std::collections::HashSet<u64> =
            roots.iter().rev().take(last).map(|s| s.id).collect();
        let root_of = |s: &SpanRecord| {
            let mut id = s.id;
            while let Some(span) = by_id.get(&id) {
                if span.parent == 0 || !by_id.contains_key(&span.parent) {
                    break;
                }
                id = span.parent;
            }
            id
        };
        let selected: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| keep.contains(&root_of(s)))
            .collect();
        Trace::chrome_json_of(&selected)
    }

    /// Per-span-name `(name, count, total_ns)` totals, sorted by
    /// name — the machine-readable summary the report `provenance`
    /// block carries.
    pub fn span_totals(&self) -> Vec<(&'static str, u64, u64)> {
        let mut merged: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = merged.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        let mut out: Vec<_> = merged.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
        out.sort_unstable_by_key(|&(n, _, _)| n);
        out
    }

    /// The thread- and timing-independent shape of the trace: sorted
    /// `(path, count)` pairs. Two runs of the same scenario must
    /// produce identical signatures at any `CARMA_THREADS` width.
    pub fn structure_signature(&self) -> Vec<(String, u64)> {
        self.profile()
            .into_iter()
            .map(|r| (r.path, r.count))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Diagnostics and build info
// ---------------------------------------------------------------------------

static DIAG_LOCK: Mutex<()> = Mutex::new(());

/// Writes one diagnostic message to stderr atomically (the message
/// may span lines; no other [`diag`] caller can interleave). All
/// CARMA stderr diagnostics route through here so parallel workers
/// cannot shred each other's warnings.
pub fn diag(message: &str) {
    let _guard = lock(&DIAG_LOCK);
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{message}");
}

/// Git-describe-style build identity for provenance blocks:
/// `carma <version>` plus the commit if the build stamped
/// `CARMA_BUILD_GIT` into the environment.
pub fn build_info() -> String {
    match option_env!("CARMA_BUILD_GIT") {
        Some(git) => format!("carma {} ({git})", env!("CARGO_PKG_VERSION")),
        None => format!("carma {}", env!("CARGO_PKG_VERSION")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert_and_skip_label_formatting() {
        assert!(!enabled());
        let evaluated = std::cell::Cell::new(false);
        {
            let mut guard = SpanGuard::enter("idle", || {
                evaluated.set(true);
                Some("x".to_string())
            });
            guard.annotate("ignored");
            guard.relabel(|| {
                evaluated.set(true);
                "y".to_string()
            });
        }
        assert!(!evaluated.get(), "label closure must not run when off");
        counter("noop", 3); // must not panic
    }

    #[test]
    fn spans_nest_and_record_parent_links() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            let _root = span!("run");
            {
                let stage = span!("memo.library", "depth={}", 2);
                stage.annotate("miss");
            }
            let mut stage2 = span!("runner", "pending");
            stage2.relabel(|| "n=7".to_string());
        });
        let trace = collector.snapshot();
        assert_eq!(trace.spans.len(), 3);
        let root = trace.spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(root.parent, 0);
        let lib = trace
            .spans
            .iter()
            .find(|s| s.name == "memo.library")
            .unwrap();
        assert_eq!(lib.parent, root.id);
        assert_eq!(lib.label.as_deref(), Some("depth=2"));
        assert_eq!(lib.annotation, Some("miss"));
        let runner = trace.spans.iter().find(|s| s.name == "runner").unwrap();
        assert_eq!(runner.parent, root.id, "siblings share the parent");
        assert_eq!(
            runner.label.as_deref(),
            Some("n=7"),
            "relabel replaces the label"
        );
    }

    #[test]
    fn ambient_propagates_across_threads() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            let _root = span!("run");
            let ctx = ambient();
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_ambient(ctx.clone(), || {
                        let _w = span!("worker");
                    });
                });
            });
        });
        let trace = collector.snapshot();
        let root = trace.spans.iter().find(|s| s.name == "run").unwrap();
        let worker = trace.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, root.id, "worker span parents across threads");
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn ambient_is_restored_after_with_collector() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || assert!(enabled()));
        assert!(!enabled());
        // Nested: inner collector wins, outer restored.
        let outer = Arc::new(Collector::new());
        with_collector(&outer, || {
            let inner = Arc::new(Collector::new());
            with_collector(&inner, || {
                let _s = span!("inner_span");
            });
            let _s = span!("outer_span");
        });
        assert_eq!(outer.snapshot().spans.len(), 1);
        assert_eq!(outer.snapshot().spans[0].name, "outer_span");
    }

    #[test]
    fn bounded_ring_evicts_but_aggregates_stay_cumulative() {
        let collector = Arc::new(Collector::bounded(SHARDS)); // 1 span per shard
        with_collector(&collector, || {
            for _ in 0..100 {
                let _s = span!("request");
            }
        });
        let trace = collector.snapshot();
        assert!(trace.spans.len() < 100);
        assert!(trace.dropped > 0);
        let aggregates = collector.aggregates();
        assert_eq!(aggregates, vec![("request", 100, aggregates[0].2)]);
        assert_eq!(collector.span_count(), 100);
    }

    #[test]
    fn profile_attributes_self_time_and_percentiles() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            let _root = span!("run");
            for _ in 0..4 {
                let _child = span!("stage");
            }
        });
        let rows = collector.snapshot().profile();
        assert_eq!(rows.len(), 2);
        let root = rows.iter().find(|r| r.path == "run").unwrap();
        let stage = rows.iter().find(|r| r.path == "run/stage").unwrap();
        assert_eq!(stage.count, 4);
        assert_eq!(stage.depth, 1);
        assert!(root.self_ns <= root.total_ns);
        assert!(stage.p50_ns <= stage.p99_ns);
        // Self time telescopes: root self + child totals = root total.
        assert_eq!(root.self_ns + stage.total_ns, root.total_ns);
    }

    #[test]
    fn structure_signature_ignores_threads_and_timing() {
        let run = || {
            let collector = Arc::new(Collector::new());
            with_collector(&collector, || {
                let _root = span!("run");
                let ctx = ambient();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        with_ambient(ctx.clone(), || {
                            let _a = span!("eval");
                        });
                    });
                });
                let _b = span!("eval");
            });
            collector.snapshot().structure_signature()
        };
        assert_eq!(run(), run());
        assert_eq!(
            run(),
            vec![("run".to_string(), 1), ("run/eval".to_string(), 2)]
        );
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            let s = span!("memo.cell", "weird \"label\"\n");
            s.annotate("hit");
        });
        let json = collector.snapshot().chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(
            json.contains("\\\"label\\\"\\n"),
            "label is escaped: {json}"
        );
        assert!(json.contains("\"annotation\":\"hit\""));
    }

    #[test]
    fn chrome_json_recent_keeps_only_last_roots_with_descendants() {
        let collector = Arc::new(Collector::new());
        for i in 0..5 {
            with_collector(&collector, || {
                let _root = span!("request", "{i}");
                let _child = span!("inner");
            });
        }
        let trace = collector.snapshot();
        let json = trace.chrome_json_recent(2);
        assert_eq!(json.matches("\"request\"").count(), 2);
        assert_eq!(json.matches("\"inner\"").count(), 2);
        assert!(json.contains("\"label\":\"4\""));
        assert!(!json.contains("\"label\":\"0\""));
    }

    #[test]
    fn counters_accumulate_per_collector() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            counter("cells", 2);
            counter("cells", 3);
        });
        assert_eq!(collector.snapshot().counters, vec![("cells", 5)]);
    }

    #[test]
    fn text_profile_mentions_spans_and_counters() {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || {
            let _root = span!("run");
            let _child = span!("memo.library");
            counter("hits", 1);
            for n in [3, 4] {
                let _batch = span!("ga.eval_batch", "gen=0 n={n}");
            }
        });
        let text = collector.snapshot().text_profile();
        assert!(text.contains("memo.library"));
        let batch = text.lines().find(|l| l.contains("ga.eval_batch")).unwrap();
        assert!(batch.ends_with("  n=7"), "work counts sum per row: {batch}");
        assert!(text.contains("p99_ms"));
        assert!(text.contains("hits = 1"));
    }

    #[test]
    fn record_complete_stamps_a_root_span() {
        let collector = Collector::new();
        collector.record_complete(
            "request",
            Some("/run".to_string()),
            Duration::from_millis(2),
            Some("hit"),
        );
        let trace = collector.snapshot();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].parent, 0);
        assert_eq!(trace.spans[0].dur_ns, 2_000_000);
    }

    #[test]
    fn build_info_names_the_crate_version() {
        assert!(build_info().starts_with("carma "));
    }
}
