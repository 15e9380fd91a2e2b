//! `csq-serve`: deployment subsystem for CSQ-quantized models.
//!
//! Training (in `csq-core`) produces a mixed-precision model whose
//! weights live on per-layer fixed-point grids. This crate turns that
//! into something a serving process can actually run, with zero
//! training-side code on the load path:
//!
//! * [`ModelArtifact`] — the versioned `.csqm` on-disk format: exported
//!   inference op plan (folded BatchNorm constants, activation
//!   quantizer settings), packed fixed-point weights, the precision
//!   scheme for provenance, and calibrated activation grids — all
//!   wrapped in the workspace's checksummed atomic container.
//! * [`calibrate`](fn@calibrate) — fixes each weighted op's activation
//!   quantization step by observing a small sample set on the float
//!   reference path, so every request shares one grid and batching is
//!   bit-deterministic.
//! * [`CompiledModel`] — an immutable executor over the artifact: each
//!   weighted op, the stem on the signed image included, runs the one
//!   exact integer kernel (signed activation codes in ±255 in a
//!   channels-last `i16` plane against `i16` weight panels, `i32` partial
//!   sums added up in `i64`).
//! * [`Engine`] — a micro-batching server: bounded submission queue,
//!   worker threads that fuse up to `max_batch` requests (or whatever
//!   arrives within `batch_window`) into one forward, per-worker
//!   scratch pools, and metrics in a per-engine `csq-obs` registry,
//!   read through the typed [`EngineStats`] view.
//!
//! The engine is hardened for hostile, bursty, failing conditions:
//! per-request deadlines ([`SubmitOptions`]) that yield typed
//! `DeadlineExceeded` errors instead of blocking forever, queue-full
//! load shedding (visible in [`EngineStats`], with per-tenant
//! [`TenantStats`] breakdowns), `catch_unwind` panic containment so a
//! poisoned batch fails only its own tickets, a supervisor that
//! restarts dead workers, and [`Engine::swap_model`] for zero-downtime
//! hot-swaps of a new `.csqm` version under live traffic. A seeded
//! `ChaosPlan` (`csq_core::fault`) drives all of it deterministically
//! in `tests/serve_chaos.rs`. Per-tenant quotas ([`TenantQuota`]) are
//! enforced by `csq-fleet`'s router, which can front a single engine
//! as a one-model, one-replica fleet.
//!
//! The end-to-end guarantee, asserted by tests: a batched engine answer
//! is bit-identical to running the same sample alone, at any worker
//! count — even while workers are being killed, batches poisoned, and
//! models swapped — and a `.csqm` reloaded in a fresh process
//! reproduces the exporting process's outputs exactly. Every request
//! the engine cannot answer gets a typed [`ServeError`]; none hangs.

#![deny(missing_docs)]
// Library code must surface failures as structured errors (or documented
// contract panics via `panic!`/`assert!`), never ad-hoc unwraps. Tests and
// doctests are exempt. Worker threads additionally run kernels under
// `catch_unwind`, so even a contract panic fails one batch, not the server.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod calibrate;
pub mod engine;
pub mod exec;
pub mod metrics;

pub use artifact::{ArtifactError, ModelArtifact, PlaneProfileEntry, CSQM_FORMAT_VERSION};
pub use calibrate::{calibrate, CalibrationEntry};
pub use engine::{Engine, EngineConfig, SubmitOptions, TenantQuota, Ticket};
pub use exec::{BindError, CompiledModel, KernelPlanEntry, ServeError};
pub use metrics::{EngineStats, TenantStats};
