//! Crash-safe training snapshots.
//!
//! A [`TrainSnapshot`] captures everything Algorithm 1 needs to continue
//! mid-run as if it had never stopped:
//!
//! * model parameters keyed by their stable hierarchical path — for CSQ
//!   sources that includes the scales `s` and the gate logits `m_p`,
//!   `m_n`, `m_B` (the whole bi-level relaxation state),
//! * non-parameter layer state ([`csq_nn::Layer::visit_state_named`]),
//!   also keyed by path: BatchNorm running statistics and
//!   activation-range EMAs,
//! * optimizer moments ([`csq_nn::OptimState`]),
//! * the phase ([`TrainPhase`]), epochs completed within it, and the full
//!   [`EpochStats`](crate::EpochStats) history so far,
//! * the recovery learning-rate scale and the loader seed,
//! * the worker-thread count of the writing process (informational:
//!   the deterministic parallel runtime makes resuming under a
//!   different `CSQ_THREADS` bit-exact, so a mismatch only warns).
//!
//! Deliberately *not* stored (recomputed deterministically instead):
//! the temperature β (a pure function of the epoch index via
//! [`crate::TemperatureSchedule`]), the frozen bit mask (recomputed from
//! the `m_B` logits by `freeze_mask`), and the data loader RNG position
//! (replayed with [`csq_data::DataLoader::fast_forward`]).
//!
//! Snapshots are persisted through [`csq_nn::persist`]: an atomic
//! temp-file → fsync → rename write framed with a CRC32 header, so a
//! crash mid-save leaves the previous snapshot intact and a truncated or
//! bit-flipped file is rejected with a checksum error instead of being
//! deserialized into garbage.
//!
//! # Format history
//!
//! * **v3** (current, the only version read): parameters, optimizer
//!   buffers and layer state are keyed by parameter path (e.g.
//!   `"0.weight.m_b"`), and the writer's thread count is recorded;
//!   restore validates paths and shapes and names both sides on a
//!   mismatch.
//! * **v1 and v2** (older writers): keyed by visitation order, or
//!   without the thread count. Nothing writes them any more; loading one
//!   fails with [`SnapshotError::VersionMismatch`].

use crate::trainer::EpochStats;
use csq_nn::checkpoint::RestoreError;
use csq_nn::optim::OptimStateError;
use csq_nn::persist::{self, PersistError};
use csq_nn::{Checkpoint, Layer, OptimState};
use csq_obs::json::{field, variant, FromJson, Value};
use serde::Serialize;
use std::path::Path;

/// Which phase of Algorithm 1 a snapshot was taken in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TrainPhase {
    /// Phase 1: CSQ training with β scheduling and the budget regularizer.
    Csq,
    /// Phase 2: mask-frozen finetuning with the temperature rewound.
    Finetune,
}

impl FromJson for TrainPhase {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        match variant(v, ctx)?.0 {
            "Csq" => Ok(TrainPhase::Csq),
            "Finetune" => Ok(TrainPhase::Finetune),
            other => Err(format!("{ctx}: unknown phase `{other}`")),
        }
    }
}

/// Error saving, loading or restoring a [`TrainSnapshot`].
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem or integrity (checksum/truncation) failure.
    Persist(PersistError),
    /// The payload is not a valid snapshot document; the message starts
    /// with the offending field's path (`snapshot.history[2].loss`).
    Json(String),
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The snapshot does not fit the model architecture.
    Restore(RestoreError),
    /// The snapshot's non-parameter layer state does not fit the model.
    StateMismatch {
        /// State buffers in the snapshot.
        expected: usize,
        /// State buffers in the model.
        actual: usize,
    },
    /// The snapshot's optimizer state does not fit the configured
    /// optimizer.
    Optim(OptimStateError),
    /// The snapshot belongs to a different training configuration.
    ConfigMismatch {
        /// Human-readable description of the disagreeing field.
        what: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Persist(e) => write!(f, "snapshot file error: {e}"),
            SnapshotError::Json(e) => write!(f, "snapshot payload is not valid: {e}"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Restore(e) => write!(f, "snapshot does not fit the model: {e}"),
            SnapshotError::StateMismatch { expected, actual } => write!(
                f,
                "snapshot has {expected} layer-state buffers but the model has {actual}"
            ),
            SnapshotError::Optim(e) => write!(f, "snapshot optimizer state mismatch: {e}"),
            SnapshotError::ConfigMismatch { what } => {
                write!(
                    f,
                    "snapshot was taken under a different configuration: {what}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Persist(e) => Some(e),
            SnapshotError::Restore(e) => Some(e),
            SnapshotError::Optim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for SnapshotError {
    fn from(e: PersistError) -> Self {
        SnapshotError::Persist(e)
    }
}

impl From<RestoreError> for SnapshotError {
    fn from(e: RestoreError) -> Self {
        SnapshotError::Restore(e)
    }
}

impl From<OptimStateError> for SnapshotError {
    fn from(e: OptimStateError) -> Self {
        SnapshotError::Optim(e)
    }
}

/// A versioned, self-contained capture of a training run in flight.
///
/// See the module docs for what is stored versus recomputed. Snapshots
/// round-trip bit-exactly: every field is either an integer or an `f32`
/// whose JSON encoding (via `f64`) is lossless, so a resumed run
/// reproduces the interrupted run's trajectory exactly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainSnapshot {
    /// Format version ([`TrainSnapshot::VERSION`]).
    pub version: u32,
    /// Phase the run was in.
    pub phase: TrainPhase,
    /// Epochs completed *within this phase*.
    pub epochs_done: usize,
    /// Total epochs configured for this phase.
    pub total_epochs: usize,
    /// Temperature β of the last completed epoch (informational — β is
    /// recomputed from the schedule on resume).
    pub beta: f32,
    /// Recovery learning-rate scale in effect (1.0 unless a NaN storm
    /// forced a backoff).
    pub lr_scale: f32,
    /// Loader shuffle seed of this phase.
    pub seed: u64,
    /// Whether the bit mask was frozen (true from the finetune phase on).
    pub mask_frozen: bool,
    /// Budget regularizer strength λ, when the phase uses one.
    pub lambda: Option<f32>,
    /// Budget target precision, when the phase uses one.
    pub target_bits: Option<f32>,
    /// Full per-epoch history up to the snapshot (all phases).
    pub history: Vec<EpochStats>,
    /// Model parameters keyed by path (includes quantizer scales and
    /// gate logits).
    pub params: Checkpoint,
    /// Non-parameter layer state keyed by path (BatchNorm running
    /// statistics, activation-range EMAs).
    pub layer_state: Vec<(String, Vec<f32>)>,
    /// Optimizer moments.
    pub optim: OptimState,
    /// Worker-thread count of the writing process. Informational: the
    /// parallel runtime is deterministic, so resuming under a different
    /// count is safe and only triggers a warning.
    pub threads: usize,
}

impl FromJson for TrainSnapshot {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(TrainSnapshot {
            version: field(v, ctx, "version")?,
            phase: field(v, ctx, "phase")?,
            epochs_done: field(v, ctx, "epochs_done")?,
            total_epochs: field(v, ctx, "total_epochs")?,
            beta: field(v, ctx, "beta")?,
            lr_scale: field(v, ctx, "lr_scale")?,
            seed: field(v, ctx, "seed")?,
            mask_frozen: field(v, ctx, "mask_frozen")?,
            lambda: field(v, ctx, "lambda")?,
            target_bits: field(v, ctx, "target_bits")?,
            history: field(v, ctx, "history")?,
            params: field(v, ctx, "params")?,
            layer_state: field(v, ctx, "layer_state")?,
            optim: field(v, ctx, "optim")?,
            threads: field(v, ctx, "threads")?,
        })
    }
}

/// Collects every non-parameter state buffer of `model`, keyed by its
/// stable parameter path (e.g. `"1.running_mean"`).
pub fn capture_layer_state(model: &mut dyn Layer) -> Vec<(String, Vec<f32>)> {
    let mut out = Vec::new();
    model.visit_state_named(&mut csq_nn::ParamPath::root(), &mut |path, s| {
        out.push((path.to_string(), s.to_vec()));
    });
    out
}

/// Writes `state` (captured by [`capture_layer_state`]) back into
/// `model`. Buffers are applied in visitation order, and each saved
/// entry's path must match the model's path at that position, so a
/// renamed or reordered architecture is rejected by name.
///
/// # Errors
///
/// [`SnapshotError::StateMismatch`] when the buffer count or any buffer
/// length disagrees; [`SnapshotError::ConfigMismatch`] when a named
/// buffer's path disagrees with the model. The model is left unchanged
/// in either case.
pub fn restore_layer_state(
    model: &mut dyn Layer,
    state: &[(String, Vec<f32>)],
) -> Result<(), SnapshotError> {
    // Validate first so a failed restore never half-applies.
    let mut count = 0usize;
    let mut bad_len = false;
    let mut bad_path: Option<(String, String)> = None;
    model.visit_state_named(&mut csq_nn::ParamPath::root(), &mut |path, s| {
        if let Some((name, saved)) = state.get(count) {
            if saved.len() != s.len() {
                bad_len = true;
            }
            if name != path && bad_path.is_none() {
                bad_path = Some((name.clone(), path.to_string()));
            }
        }
        count += 1;
    });
    if count != state.len() || bad_len {
        return Err(SnapshotError::StateMismatch {
            expected: state.len(),
            actual: count,
        });
    }
    if let Some((saved, model_path)) = bad_path {
        return Err(SnapshotError::ConfigMismatch {
            what: format!(
                "layer state buffer is `{saved}` in the snapshot but `{model_path}` in the model"
            ),
        });
    }
    let mut idx = 0usize;
    model.visit_state(&mut |s| {
        s.copy_from_slice(&state[idx].1);
        idx += 1;
    });
    Ok(())
}

impl TrainSnapshot {
    /// The snapshot format version this build writes and reads.
    pub const VERSION: u32 = 3;

    /// Restores the snapshot's parameters and layer state into `model`.
    /// Does *not* re-freeze the bit mask — the trainer does that from the
    /// restored `m_B` logits when [`TrainSnapshot::mask_frozen`] says so.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the snapshot does not fit the model.
    pub fn restore_model(&self, model: &mut dyn Layer) -> Result<(), SnapshotError> {
        self.params.restore(model)?;
        restore_layer_state(model, &self.layer_state)
    }

    /// Serializes and writes the snapshot to `path` atomically with a
    /// CRC32 integrity header.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on serialization or filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let payload = serde_json::to_vec(self).map_err(|e| SnapshotError::Json(e.to_string()))?;
        persist::write_checksummed(path, &payload).map_err(PersistError::Io)?;
        Ok(())
    }

    /// Reads, verifies and parses a snapshot written by
    /// [`TrainSnapshot::save`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Persist`] on i/o failure, missing framing,
    /// truncation or checksum mismatch; [`SnapshotError::Json`] on a
    /// malformed payload; [`SnapshotError::VersionMismatch`] on any
    /// other format version.
    pub fn load(path: &Path) -> Result<TrainSnapshot, SnapshotError> {
        let payload = persist::read_checksummed(path)?;
        let doc: Value = serde_json::from_slice(&payload)
            .map_err(|e| SnapshotError::Json(format!("snapshot: {e}")))?;
        // Check the version before decoding the fields, so a file from
        // another format version gets a version error, not a schema one.
        let found: u64 = field(&doc, "snapshot", "version").map_err(SnapshotError::Json)?;
        if found != u64::from(Self::VERSION) {
            return Err(SnapshotError::VersionMismatch {
                found: u32::try_from(found).unwrap_or(u32::MAX),
                supported: Self::VERSION,
            });
        }
        TrainSnapshot::from_json(&doc, "snapshot").map_err(SnapshotError::Json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_nn::{BatchNorm2d, Layer, Linear, Sequential};
    use csq_tensor::Tensor;

    fn model() -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::with_float_weights(3, 4, 0)) as Box<dyn Layer>,
            Box::new(Linear::with_float_weights(4, 2, 1)),
        ])
    }

    fn snapshot_for(m: &mut dyn Layer) -> TrainSnapshot {
        TrainSnapshot {
            version: TrainSnapshot::VERSION,
            phase: TrainPhase::Csq,
            epochs_done: 3,
            total_epochs: 10,
            beta: 4.5,
            lr_scale: 1.0,
            seed: 7,
            mask_frozen: false,
            lambda: Some(0.3),
            target_bits: Some(3.0),
            history: Vec::new(),
            params: Checkpoint::capture(m),
            layer_state: capture_layer_state(m),
            optim: OptimState::Sgd { buffers: vec![] },
            threads: 1,
        }
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let mut m = model();
        let snap = snapshot_for(&mut m);
        let path = std::env::temp_dir().join("csq_resume_roundtrip.snap");
        snap.save(&path).unwrap();
        let back = TrainSnapshot::load(&path).unwrap();
        assert_eq!(back, snap, "bit-exact round trip");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut m = model();
        let snap = snapshot_for(&mut m);
        let path = std::env::temp_dir().join("csq_resume_corrupt.snap");
        snap.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = TrainSnapshot::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Persist(PersistError::ChecksumMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut m = model();
        let snap = snapshot_for(&mut m);
        let path = std::env::temp_dir().join("csq_resume_trunc.snap");
        snap.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let err = TrainSnapshot::load(&path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Persist(PersistError::Truncated { .. })),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let mut m = model();
        let path = std::env::temp_dir().join("csq_resume_version.snap");
        // Older writers' versions are rejected the same way.
        for version in [1, 2, 99] {
            let mut snap = snapshot_for(&mut m);
            snap.version = version;
            snap.save(&path).unwrap();
            let err = TrainSnapshot::load(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::VersionMismatch { found, supported: 3 } if found == version
                ),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn layer_state_round_trips_running_stats() {
        let mut bn = Sequential::new(vec![Box::new(BatchNorm2d::new(2)) as Box<dyn Layer>]);
        bn.forward(&Tensor::ones(&[2, 2, 3, 3]), true);
        let state = capture_layer_state(&mut bn);
        assert_eq!(state.len(), 2, "running mean + running var");
        assert_eq!(state[0].0, "0.running_mean");
        assert_eq!(state[1].0, "0.running_var");
        let mut fresh = Sequential::new(vec![Box::new(BatchNorm2d::new(2)) as Box<dyn Layer>]);
        restore_layer_state(&mut fresh, &state).unwrap();
        assert_eq!(capture_layer_state(&mut fresh), state);
    }

    #[test]
    fn layer_state_restore_rejects_mismatch() {
        let mut bn = Sequential::new(vec![Box::new(BatchNorm2d::new(2)) as Box<dyn Layer>]);
        let err = restore_layer_state(&mut bn, &[("0.running_mean".to_string(), vec![0.0; 2])])
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::StateMismatch {
                    expected: 1,
                    actual: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn layer_state_restore_rejects_wrong_path() {
        let mut bn = Sequential::new(vec![Box::new(BatchNorm2d::new(2)) as Box<dyn Layer>]);
        let err = restore_layer_state(
            &mut bn,
            &[
                ("0.running_var".to_string(), vec![0.0; 2]),
                ("0.running_mean".to_string(), vec![0.0; 2]),
            ],
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{msg}");
        assert!(
            msg.contains("0.running_var") && msg.contains("0.running_mean"),
            "mismatch names both sides: {msg}"
        );
    }

    #[test]
    fn restore_model_applies_params() {
        let mut a = model();
        let snap = snapshot_for(&mut a);
        let mut b = model();
        // Perturb b so restore has something to do.
        b.visit_params(&mut |p| p.value.fill(0.123));
        snap.restore_model(&mut b).unwrap();
        assert_eq!(Checkpoint::capture(&mut b), snap.params);
    }
}
