//! `csq-obs` — unified telemetry for the CSQ reproduction.
//!
//! Four pieces, all off by default so the quiet path stays bit-exact
//! and allocation-free:
//!
//! - [`registry`]: named counters / gauges / geometric histograms /
//!   time series behind lock-free handles, with mergeable snapshots
//!   rendered as JSON or Prometheus text. The histogram
//!   ([`hist::GeoHistogram`]) is the one implementation shared by the
//!   serve engine and the training metrics (both re-export it from
//!   their old paths).
//! - [`trace`]: the [`span!`] / [`event!`] structured-tracing facade.
//!   Disabled, a call is one relaxed atomic load; enabled (`CSQ_TRACE`
//!   or [`trace::set_enabled`]) events carry monotonic microsecond
//!   timestamps, thread ordinals, and span depth, and feed the flight
//!   recorder plus an optional JSONL sink.
//! - [`profiler`]: per-op-kind / per-shape kernel wall-time and
//!   bytes-touched aggregation, flipped on by benches to produce
//!   per-layer cost breakdowns.
//! - [`flight`]: a bounded ring of recent events dumped as a
//!   timestamped JSONL postmortem when a worker panics, a NaN storm
//!   triggers a rewind, or chaos kills something.
//!
//! Besides telemetry, [`json`] holds the one JSON decode path: the
//! [`json::FromJson`] trait that every type read back from disk
//! implements next to its definition.
//!
//! Environment knobs (all optional): `CSQ_TRACE` (`1`/`ring`/file
//! path), `CSQ_POSTMORTEM_DIR`, and — read by the trainer, not here —
//! `CSQ_TELEMETRY`.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flight;
pub mod hist;
pub mod json;
pub mod profiler;
pub mod registry;
pub mod trace;

pub use hist::{GeoHistogram, HistogramSnapshot, RunningMean};
pub use registry::{
    global as global_registry, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Series,
};
pub use trace::{SpanGuard, TraceEvent, TraceSink};
