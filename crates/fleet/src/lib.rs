//! `csq-fleet`: multi-model serving above `csq-serve`'s single-model
//! [`Engine`].
//!
//! One engine serves one compiled model. A production deployment
//! serves *many* models — several precision variants of the same
//! network, several networks — each with redundant replicas, shared
//! tenants, rolling version upgrades, and operators who need one
//! answer to "how is the fleet doing". This crate is that layer, built
//! strictly on `csq-serve`'s public API:
//!
//! * [`ModelRegistry`] — scans a directory of versioned
//!   `<model_id>-v<version>.csqm` artifacts into per-model lineages.
//!   Every file passes the container checksum, the format-version
//!   gate, the schema decode, and a cross-version serving-contract
//!   check; damage becomes a typed [`RegistryFault`] and the newest
//!   *healthy* version keeps serving.
//! * [`Router`] — owns a replica group of engines per model and routes
//!   [`Router::submit`] with deterministic rendezvous hashing
//!   (FNV-1a), a least-loaded refinement, and queue-full failover down
//!   the ranked list. Per-tenant token buckets gate admission before
//!   routing — the workspace's only quota layer — so one tenant's
//!   overload sheds *their* traffic, not their neighbours'.
//! * [`rollout()`] — replica-by-replica version upgrades through
//!   `Engine::swap_model`, with a bit-exactness canary on a pinned
//!   probe batch after every swap and automatic rollback to the
//!   incumbent version on any mismatch or contract refusal.
//! * [`FleetStats`] — per-model, per-tenant, and router-level rollups
//!   built by merging the replicas' `csq-obs` registry snapshots
//!   (latency histograms merge bucket-wise, so percentiles are
//!   re-derived, never averaged), exported as one snapshot for JSON or
//!   Prometheus.
//!
//! Failure semantics are inherited, not reinvented: every error a
//! caller sees is a [`FleetError`] wrapping either a routing fault or
//! the engine's own typed `ServeError`, requests never hang, and the
//! fleet-level chaos entries in `csq_core::fault::ChaosPlan` (replica
//! group kills, registry file corruption) drive deterministic drills
//! over all of it.
//!
//! [`Engine`]: csq_serve::Engine

#![deny(missing_docs)]
// Same contract as csq-serve: failures surface as typed errors, never
// ad-hoc unwraps (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod registry;
pub mod rollout;
pub mod router;
pub mod stats;

pub use registry::{ModelRegistry, ModelVersion, RegistryError, RegistryFault};
pub use rollout::{rollout, rollout_with_expected, RolloutOutcome, RolloutReport};
pub use router::{FleetConfig, FleetError, Router};
pub use stats::{FleetStats, ModelStats, RouterStats, RouterTenantDrops};
