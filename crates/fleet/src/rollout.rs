//! Canaried, replica-by-replica version rollouts.
//!
//! [`rollout`] deploys a new artifact version to a live replica group
//! one engine at a time, with a bit-exactness canary between steps:
//! after each [`Engine::swap_model`], a pinned probe batch is pushed
//! through the freshly swapped replica (the full queue/batch/kernel
//! serving path, not a shortcut forward) and every answer must be
//! *bit-identical* to the expected outputs — by default the offline
//! compile of the same artifact, or expectations recorded at export
//! time via [`rollout_with_expected`]. The serving stack's
//! bit-determinism guarantee makes equality the only acceptable
//! outcome: any drift means the deployed bits are not the bits that
//! were validated, and the rollout must not proceed.
//!
//! On a failed canary — or a contract refusal
//! ([`ServeError::SwapIncompatible`]) from any replica — every replica
//! already moved is swapped back to the incumbent version
//! automatically, and the report says so; traffic never sees a
//! half-validated fleet. Requests keep flowing throughout: swaps
//! happen between batches, and un-swapped replicas serve the old
//! version while the canary runs.
//!
//! [`Engine::swap_model`]: csq_serve::Engine::swap_model
//! [`ServeError::SwapIncompatible`]: csq_serve::ServeError::SwapIncompatible

use crate::registry::ModelVersion;
use crate::router::{FleetError, Router};
use csq_serve::ServeError;
use csq_tensor::par::ScratchPool;
use csq_tensor::Tensor;

/// How a rollout ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every replica serves the new version; the canary passed on each.
    Completed,
    /// The rollout was aborted and every swapped replica restored to
    /// the incumbent version.
    RolledBack {
        /// What aborted it (canary mismatch detail or swap refusal).
        reason: String,
    },
}

/// What a rollout did, step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutReport {
    /// The model rolled out.
    pub model_id: String,
    /// Registry version the group served before.
    pub from_version: u32,
    /// Registry version the rollout tried to deploy.
    pub to_version: u32,
    /// Replicas that were swapped forward (on `Completed`, all of
    /// them; on `RolledBack`, how many had moved before the abort —
    /// all restored).
    pub replicas_swapped: usize,
    /// Probe samples checked per swapped replica.
    pub probes_per_replica: usize,
    /// The outcome.
    pub outcome: RolloutOutcome,
}

/// Rolls `target` out to `model_id`'s replica group, canarying each
/// swap against the offline compile of `target` on `probe` (shape
/// `[S, input_dims...]`, `S ≥ 1`).
///
/// # Errors
///
/// [`FleetError::UnknownModel`] / [`FleetError::ModelDown`] when there
/// is no live group, [`FleetError::Compile`] when `target` cannot
/// compile, [`FleetError::Serve`] on a malformed probe. A failed
/// canary or refused swap is *not* an `Err`: it returns `Ok` with
/// [`RolloutOutcome::RolledBack`], because the fleet was left healthy
/// on the incumbent version.
pub fn rollout(
    router: &Router,
    model_id: &str,
    target: &ModelVersion,
    probe: &Tensor,
) -> Result<RolloutReport, FleetError> {
    let compile_err = |error| FleetError::Compile {
        model_id: model_id.to_string(),
        error,
    };
    let reference = target.artifact.compile().map_err(compile_err)?;
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let expected = reference
        .forward_batch(probe, &scratch)
        .map_err(FleetError::Serve)?;
    rollout_with_expected(router, model_id, target, probe, &expected)
}

/// [`rollout`] with externally pinned expectations: `expected` is the
/// `[S, num_classes]` logits the probe batch must reproduce bit-for-
/// bit on every swapped replica (e.g. outputs recorded when the
/// artifact was exported). This is the hook chaos tests use to force
/// a canary failure, and deployers use to catch a serving stack that
/// disagrees with the training side.
pub fn rollout_with_expected(
    router: &Router,
    model_id: &str,
    target: &ModelVersion,
    probe: &Tensor,
    expected: &Tensor,
) -> Result<RolloutReport, FleetError> {
    let compile_err = |error| FleetError::Compile {
        model_id: model_id.to_string(),
        error,
    };
    let (from_version, replica_count) = router
        .with_group(model_id, |g| (g.deployed.version, g.replicas.len()))
        .ok_or_else(|| FleetError::UnknownModel {
            model_id: model_id.to_string(),
        })?;
    if replica_count == 0 {
        return Err(FleetError::ModelDown {
            model_id: model_id.to_string(),
        });
    }
    let probes = probe_samples(probe, &target.artifact.input_dims)?;
    if expected.dims().first() != Some(&probes.len()) {
        return Err(FleetError::Serve(ServeError::BadInput {
            expected: vec![probes.len(), target.artifact.num_classes],
            actual: expected.dims().to_vec(),
        }));
    }
    let mut report = RolloutReport {
        model_id: model_id.to_string(),
        from_version,
        to_version: target.version,
        replicas_swapped: 0,
        probes_per_replica: probes.len(),
        outcome: RolloutOutcome::Completed,
    };

    for replica in 0..replica_count {
        // Compile outside the group lock; each engine needs its own
        // executor instance.
        let compiled = target.artifact.compile().map_err(compile_err)?;
        let swap: Option<Result<u64, ServeError>> =
            router.with_group(model_id, |g| g.replicas[replica].swap_model(compiled));
        match swap {
            Some(Ok(_)) => {}
            Some(Err(e)) => {
                // SwapIncompatible (or any other refusal): the replica
                // kept the old model; restore the ones already moved.
                roll_back(router, model_id, report.replicas_swapped);
                report.outcome = RolloutOutcome::RolledBack {
                    reason: format!("replica {replica} refused the swap: {e}"),
                };
                return Ok(report);
            }
            None => {
                return Err(FleetError::UnknownModel {
                    model_id: model_id.to_string(),
                })
            }
        }
        report.replicas_swapped += 1;

        if let Some(mismatch) = canary(router, model_id, replica, &probes, expected) {
            roll_back(router, model_id, report.replicas_swapped);
            report.outcome = RolloutOutcome::RolledBack { reason: mismatch };
            return Ok(report);
        }
    }
    router.commit_deployed(model_id, target);
    Ok(report)
}

/// Splits the pinned probe batch `[S, input_dims...]` into per-sample
/// tensors an engine accepts.
fn probe_samples(probe: &Tensor, input_dims: &[usize]) -> Result<Vec<Tensor>, FleetError> {
    let dims = probe.dims();
    let ok = dims.len() == input_dims.len() + 1 && dims[1..] == input_dims[..] && dims[0] > 0;
    if !ok {
        return Err(FleetError::Serve(ServeError::BadInput {
            expected: input_dims.to_vec(),
            actual: dims.to_vec(),
        }));
    }
    let per = probe.numel() / dims[0];
    Ok(probe
        .data()
        .chunks_exact(per)
        .map(|row| Tensor::from_vec(row.to_vec(), input_dims))
        .collect())
}

/// Pushes every probe through the swapped replica's full serving path
/// and bit-compares against the expected logits. Returns a mismatch
/// description, or `None` when all probes reproduce exactly.
fn canary(
    router: &Router,
    model_id: &str,
    replica: usize,
    probes: &[Tensor],
    expected: &Tensor,
) -> Option<String> {
    let classes = expected.numel() / probes.len().max(1);
    for (s, sample) in probes.iter().enumerate() {
        let answer = router.with_group(model_id, |g| g.replicas[replica].infer(sample.clone()))?;
        let want = &expected.data()[s * classes..(s + 1) * classes];
        match answer {
            Ok(got) if got.data() == want => {}
            Ok(got) => {
                return Some(format!(
                "canary mismatch on replica {replica}, probe {s}: served {:?}, expected {want:?}",
                got.data()
            ))
            }
            Err(e) => return Some(format!("canary probe {s} failed on replica {replica}: {e}")),
        }
    }
    None
}

/// Best-effort restore of the incumbent version onto the first
/// `swapped` replicas (the ones the aborted rollout had moved).
fn roll_back(router: &Router, model_id: &str, swapped: usize) {
    for replica in 0..swapped {
        let incumbent = router.with_group(model_id, |g| g.deployed.artifact.clone());
        let Some(artifact) = incumbent else { return };
        let Ok(compiled) = artifact.compile() else {
            // The incumbent compiled when it was deployed; if it no
            // longer does there is nothing safer to restore to.
            return;
        };
        router.with_group(model_id, |g| {
            let _ = g.replicas[replica].swap_model(compiled);
        });
    }
}
