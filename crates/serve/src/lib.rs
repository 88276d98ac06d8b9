//! # carma-serve
//!
//! An embedded HTTP scenario service over the CARMA experiment
//! registry: `carma run` as a long-lived endpoint instead of a cold
//! single-shot process. Design-space studies re-evaluate heavily
//! overlapping scenario grids; with results stored in a
//! content-addressed cache keyed by the resolved scenario's
//! [`fingerprint`](carma_core::scenario::ResolvedScenario::fingerprint),
//! a repeated sweep turns from minutes of GA into microsecond cache
//! hits — across server restarts too, with the optional disk store.
//!
//! The connection engine is **event-driven** (the `event` module): one
//! thread,
//! `poll(2)` readiness, a state machine per connection, HTTP/1.1
//! keep-alive and pipelining. Scenario computation never blocks the
//! loop — misses suspend their connection on the [`jobs`] worker
//! queue and the response is re-armed when the job retires, so
//! `carma serve` requires a unix host. Everything is hand-rolled on
//! `std::net` (the build is offline; no HTTP dependency exists in the
//! workspace) and the JSON layer is the vendored `serde` shim the
//! scenario API already uses.
//!
//! ## Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + queue/cache/connection counters |
//! | `GET /experiments` | the experiment registry as JSON |
//! | `POST /run` | run a [`ScenarioSpec`] body; `?async=true` enqueues and returns a job id |
//! | `POST /run` (array body) | batch: per-element results, deduplicated against cache and in-flight jobs |
//! | `GET /jobs/:id` | job status; carries the report when done |
//! | `GET /metrics` | Prometheus text: cache hit ratio, queue depth, p50/p99 latency, per-stage `carma_stage_seconds_total`, … |
//! | `GET /trace?last=N` | the `N` most recent request/run traces as Chrome `trace_event` JSON |
//! | `POST /shutdown` | drain and stop the server |
//!
//! A `POST /run` response wraps the report as
//! `{"cache":"hit"|"miss","fingerprint":"…","report":…}` where
//! `report` is **byte-identical** to `carma run <spec> --out json`.
//! The fingerprint covers everything that determines results —
//! experiment, effective scale/model/nodes, constraint grid, library
//! family/depth, GA budget and seed, objective, deployment profile —
//! and deliberately excludes the thread count, which never changes
//! results under the `carma-exec` determinism contract. A JSON-array
//! body runs as a batch: `{"results":[…]}` in element order, with
//! identical elements coalesced onto one computation.
//!
//! Load shedding is two-level: the bounded job queue answers `503` +
//! `Retry-After` when full, and connections over
//! [`ServerConfig::max_conns`] are answered `503` and closed before
//! they cost a table slot.
//!
//! ## Embedding
//!
//! ```no_run
//! use carma_serve::{http, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let handle = server.spawn().unwrap();
//! let health = http::http_request(handle.addr(), "GET", "/healthz", None).unwrap();
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! ```
//!
//! [`ScenarioSpec`]: carma_core::scenario::ScenarioSpec
//! [`ServerConfig::max_conns`]: server::ServerConfig::max_conns

pub mod cache;
mod event;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use cache::{CacheTier, ResultCache, CACHE_SHARDS};
pub use jobs::{JobQueue, JobSnapshot, JobStatus, QueueStats, Submit, SubmitOutcome};
pub use metrics::{LatencyHistogram, Metrics};
pub use server::{Server, ServerConfig, ServerHandle};
