//! Service counters and a fixed-bucket latency histogram for
//! `GET /metrics`.
//!
//! Everything on the hot path is a relaxed atomic bump into
//! preallocated storage — recording a request latency is one
//! `leading_zeros` plus two `fetch_add`s, no locks, no allocation.
//! The exposition format is Prometheus text (`# TYPE` lines plus
//! `name value`), which is trivially greppable from shell tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets. Bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds, so 32 buckets span sub-microsecond
/// to ~35 minutes — beyond both ends everything clamps into the
/// first/last bucket.
pub const LATENCY_BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Quantile estimates report the *upper bound* of the bucket the
/// quantile falls in (a ≤2× overestimate by construction) — plenty for
/// dashboards distinguishing microsecond cache hits from multi-second
/// GA misses.
#[derive(Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_for(us: u64) -> usize {
        // log₂(us), clamped: 0µs and 1µs share bucket 0.
        (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The latency at quantile `q` (0.0–1.0), in seconds: the upper
    /// bound of the bucket holding the `⌈q·count⌉`-th observation.
    /// `None` with no observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) µs.
                return Some((1u64 << (bucket + 1).min(63)) as f64 / 1e6);
            }
        }
        None
    }
}

/// All service-level counters, shared by the event loop and the
/// `/metrics` / `/healthz` handlers.
#[derive(Default)]
pub struct Metrics {
    /// Requests fully parsed (any route).
    pub requests: AtomicU64,
    /// Connections accepted (lifetime total).
    pub connections_opened: AtomicU64,
    /// Connections closed (lifetime total).
    pub connections_closed: AtomicU64,
    /// Connections answered 503 by the max-connections guard.
    pub connections_shed: AtomicU64,
    /// `POST /run` submissions answered 503 by the bounded queue.
    pub queue_shed: AtomicU64,
    /// Request latency (request fully parsed → response bytes staged).
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently open connections (opened − closed).
    pub fn connections_open(&self) -> u64 {
        self.connections_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.connections_closed.load(Ordering::Relaxed))
    }
}

/// Renders the Prometheus text exposition for `GET /metrics`.
///
/// `cache` is `(hits, misses, entries)`, `queue` is
/// `(queued, running, completed, failed)`, `memo` is the stage-level
/// memo counters (library/accuracy/context/cell hits and misses).
pub fn render(
    metrics: &Metrics,
    cache: (u64, u64, usize),
    queue: (usize, usize, u64, u64),
    memo: carma_core::MemoStats,
) -> String {
    let (hits, misses, entries) = cache;
    let (queued, running, completed, failed) = queue;
    let lookups = hits + misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let p50 = metrics.latency.quantile(0.50).unwrap_or(0.0);
    let p99 = metrics.latency.quantile(0.99).unwrap_or(0.0);
    let mut text = format!(
        "# TYPE carma_requests_total counter\n\
         carma_requests_total {requests}\n\
         # TYPE carma_connections_total counter\n\
         carma_connections_total {opened}\n\
         # TYPE carma_connections_open gauge\n\
         carma_connections_open {open}\n\
         # TYPE carma_connections_shed_total counter\n\
         carma_connections_shed_total {conn_shed}\n\
         # TYPE carma_queue_shed_total counter\n\
         carma_queue_shed_total {queue_shed}\n\
         # TYPE carma_cache_hits_total counter\n\
         carma_cache_hits_total {hits}\n\
         # TYPE carma_cache_misses_total counter\n\
         carma_cache_misses_total {misses}\n\
         # TYPE carma_cache_hit_ratio gauge\n\
         carma_cache_hit_ratio {hit_ratio:.6}\n\
         # TYPE carma_cache_entries gauge\n\
         carma_cache_entries {entries}\n\
         # TYPE carma_queue_depth gauge\n\
         carma_queue_depth {queued}\n\
         # TYPE carma_jobs_running gauge\n\
         carma_jobs_running {running}\n\
         # TYPE carma_jobs_completed_total counter\n\
         carma_jobs_completed_total {completed}\n\
         # TYPE carma_jobs_failed_total counter\n\
         carma_jobs_failed_total {failed}\n\
         # TYPE carma_request_latency_seconds summary\n\
         carma_request_latency_seconds{{quantile=\"0.5\"}} {p50:.6}\n\
         carma_request_latency_seconds{{quantile=\"0.99\"}} {p99:.6}\n\
         carma_request_latency_seconds_sum {sum:.6}\n\
         carma_request_latency_seconds_count {count}\n",
        requests = metrics.requests.load(Ordering::Relaxed),
        opened = metrics.connections_opened.load(Ordering::Relaxed),
        open = metrics.connections_open(),
        conn_shed = metrics.connections_shed.load(Ordering::Relaxed),
        queue_shed = metrics.queue_shed.load(Ordering::Relaxed),
        sum = metrics.latency.sum_seconds(),
        count = metrics.latency.count(),
    );
    text.push_str("# TYPE carma_memo_hits_total counter\n");
    for stage in carma_core::MemoStage::ALL {
        let c = memo.stage(stage);
        text.push_str(&format!(
            "carma_memo_hits_total{{stage=\"{}\"}} {}\n",
            stage.as_str(),
            c.hits
        ));
    }
    text.push_str("# TYPE carma_memo_misses_total counter\n");
    for stage in carma_core::MemoStage::ALL {
        let c = memo.stage(stage);
        text.push_str(&format!(
            "carma_memo_misses_total{{stage=\"{}\"}} {}\n",
            stage.as_str(),
            c.misses
        ));
    }
    text
}

/// Renders the trace-derived series appended after [`render`]:
/// cumulative per-span-name seconds plus the total span count from the
/// server's always-on trace collector. `aggregates` is
/// `(name, count, total_ns)` as produced by
/// `carma_trace::Collector::aggregates` — cumulative, so both series
/// stay monotonic even though the span *ring* is bounded.
pub fn render_spans(aggregates: &[(&'static str, u64, u64)], span_count: u64) -> String {
    let mut text = String::from("# TYPE carma_stage_seconds_total counter\n");
    for &(name, _count, total_ns) in aggregates {
        text.push_str(&format!(
            "carma_stage_seconds_total{{stage=\"{name}\"}} {:.6}\n",
            total_ns as f64 / 1e9
        ));
    }
    text.push_str(&format!(
        "# TYPE carma_span_count_total counter\ncarma_span_count_total {span_count}\n"
    ));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        assert_eq!(LatencyHistogram::bucket_for(0), 0);
        assert_eq!(LatencyHistogram::bucket_for(1), 0);
        assert_eq!(LatencyHistogram::bucket_for(2), 1);
        assert_eq!(LatencyHistogram::bucket_for(3), 1);
        assert_eq!(LatencyHistogram::bucket_for(4), 2);
        assert_eq!(LatencyHistogram::bucket_for(1023), 9);
        assert_eq!(LatencyHistogram::bucket_for(1024), 10);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        // 99 fast (≈100µs) + 1 slow (≈1s): p50 fast, p99 still fast
        // (rank 99 of 100), p100 slow.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_secs(1));
        let p50 = h.quantile(0.5).expect("observations exist");
        assert!(p50 <= 256e-6, "p50 {p50} should sit in the fast bucket");
        let p99 = h.quantile(0.99).expect("observations exist");
        assert!(p99 <= 256e-6, "p99 {p99} is the 99th of 100 observations");
        let p100 = h.quantile(1.0).expect("observations exist");
        assert!(p100 >= 1.0, "p100 {p100} must reach the slow bucket");
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn render_exposes_the_required_series() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(50));
        let mut memo = carma_core::MemoStats::default();
        memo.library.hits = 4;
        memo.context.misses = 2;
        let text = render(&m, (2, 1, 1), (0, 0, 1, 0), memo);
        for needle in [
            "carma_requests_total 3",
            "carma_cache_hits_total 2",
            "carma_cache_misses_total 1",
            "carma_cache_hit_ratio 0.666667",
            "carma_queue_depth 0",
            "carma_jobs_completed_total 1",
            "carma_memo_hits_total{stage=\"library\"} 4",
            "carma_memo_hits_total{stage=\"cell\"} 0",
            "carma_memo_misses_total{stage=\"context\"} 2",
            "carma_request_latency_seconds{quantile=\"0.5\"}",
            "carma_request_latency_seconds{quantile=\"0.99\"}",
            "carma_request_latency_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn render_spans_exposes_stage_seconds_and_span_count() {
        let aggregates = [
            ("memo.library", 2u64, 1_500_000_000u64),
            ("request", 5, 250_000),
        ];
        let text = render_spans(&aggregates, 7);
        for needle in [
            "# TYPE carma_stage_seconds_total counter",
            "carma_stage_seconds_total{stage=\"memo.library\"} 1.500000",
            "carma_stage_seconds_total{stage=\"request\"} 0.000250",
            "# TYPE carma_span_count_total counter",
            "carma_span_count_total 7",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
