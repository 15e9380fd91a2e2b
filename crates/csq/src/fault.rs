//! Deterministic fault injection for exercising the recovery paths.
//!
//! A [`FaultPlan`] is a reproducible schedule of failures the
//! trainer consults at fixed points in its loop:
//!
//! * **NaN loss at step k** — the batch loss is replaced with NaN just
//!   before the finiteness check, modelling a numerically exploding
//!   forward pass.
//! * **NaN gradients at step k** — every parameter gradient is poisoned
//!   after backward/regularization but before the optimizer step,
//!   modelling a corrupted backward pass whose damage only shows up in
//!   *later* losses (a NaN storm).
//! * **Crash at epoch e** — training aborts right after the epoch-end
//!   snapshot write, modelling a process kill at an epoch boundary.
//!
//! A [`ChaosPlan`] is the serving-side counterpart, consulted by the
//! `csq-serve` engine at batch boundaries:
//!
//! * **Kill worker w at its batch b** — the worker thread dies abruptly
//!   (unwinds past the batch it holds), exercising worker supervision
//!   and the `WorkerFailed` ticket path.
//! * **Poison global batch k** — the kernel panics *inside* the
//!   containment boundary, so only that batch's tickets fail.
//! * **Delay global batch k** — injected latency, for driving requests
//!   past their deadlines deterministically.
//! * **Burst at tick t / corrupt artifact** — schedule entries consumed
//!   by the test harness itself (overload generators, pre-swap file
//!   corruption via [`flip_bit`]) so a whole chaos scenario lives in
//!   one seeded plan.
//! * **Fleet-level entries** — kill the entire replica group of one
//!   model ([`ChaosPlan::kill_replica_group`]) and corrupt a specific
//!   registry artifact before the scan
//!   ([`ChaosPlan::corrupt_registry_entry`]), consumed by the
//!   `csq-fleet` chaos harness.
//!
//! Each injection fires exactly once and is then spent, so a rewound
//! epoch replays cleanly. File-corruption helpers ([`truncate_file`],
//! [`flip_bit`]) complete the kit for testing snapshot integrity
//! checking.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Duration;

/// A reproducible schedule of injected training faults.
///
/// Build one with [`FaultPlan::new`] plus the `*_at` setters. Injection
/// points are *global* batch-step indices (counted across epochs from
/// the start of the phase) or phase-local epoch indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    nan_loss_steps: Vec<u64>,
    nan_grad_steps: Vec<u64>,
    crash_epochs: Vec<usize>,
}

impl FaultPlan {
    /// An empty plan that injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects a NaN loss at global batch step `step`.
    #[must_use]
    pub fn nan_loss_at(mut self, step: u64) -> FaultPlan {
        self.nan_loss_steps.push(step);
        self
    }

    /// Injects NaN gradients at global batch step `step`.
    #[must_use]
    pub fn nan_grads_at(mut self, step: u64) -> FaultPlan {
        self.nan_grad_steps.push(step);
        self
    }

    /// Simulates a crash right after epoch `epoch` completes (and after
    /// its snapshot, if due, has been written).
    #[must_use]
    pub fn crash_at_epoch(mut self, epoch: usize) -> FaultPlan {
        self.crash_epochs.push(epoch);
        self
    }

    /// True when nothing is left to inject.
    pub fn is_spent(&self) -> bool {
        self.nan_loss_steps.is_empty()
            && self.nan_grad_steps.is_empty()
            && self.crash_epochs.is_empty()
    }

    /// Consumes a pending NaN-loss injection for `step`, if any.
    pub fn take_nan_loss(&mut self, step: u64) -> bool {
        take(&mut self.nan_loss_steps, &step)
    }

    /// Consumes a pending NaN-gradient injection for `step`, if any.
    pub fn take_nan_grads(&mut self, step: u64) -> bool {
        take(&mut self.nan_grad_steps, &step)
    }

    /// Consumes a pending crash injection for `epoch`, if any.
    pub fn take_crash(&mut self, epoch: usize) -> bool {
        take(&mut self.crash_epochs, &epoch)
    }
}

/// A reproducible schedule of injected *serving* faults.
///
/// The engine consults the plan at batch boundaries (worker kills,
/// batch poisoning, injected latency); the chaos test harness consumes
/// the remaining entries itself (overload bursts, artifact corruption).
/// Like [`FaultPlan`], every injection fires exactly once: a consumed
/// entry is spent, so a restarted worker replays cleanly.
///
/// Worker kills are keyed by `(worker id, per-worker batch ordinal)` —
/// each worker counts its own batches from 0 (and again from 0 after a
/// restart), which keeps the schedule deterministic regardless of how
/// batches interleave across workers. Poison and delay entries are
/// keyed by the engine's global batch sequence number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    worker_kills: Vec<(usize, u64)>,
    poison_batches: Vec<u64>,
    batch_delays: Vec<(u64, Duration)>,
    overload_bursts: Vec<(u64, usize)>,
    artifact_flips: Vec<(u64, u8)>,
    replica_group_kills: Vec<String>,
    registry_corruptions: Vec<(usize, u64, u8)>,
}

impl ChaosPlan {
    /// An empty plan that injects nothing.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Kills worker `worker` just before it runs its `batch`-th batch
    /// (0-based, counted per worker since that worker thread started).
    #[must_use]
    pub fn kill_worker_at(mut self, worker: usize, batch: u64) -> ChaosPlan {
        self.worker_kills.push((worker, batch));
        self
    }

    /// Panics the kernel *inside* the containment boundary on global
    /// batch `batch`, failing only that batch's tickets.
    #[must_use]
    pub fn poison_batch_at(mut self, batch: u64) -> ChaosPlan {
        self.poison_batches.push(batch);
        self
    }

    /// Sleeps for `delay` before running global batch `batch`,
    /// modelling a stalled kernel or an overloaded machine.
    #[must_use]
    pub fn delay_batch_at(mut self, batch: u64, delay: Duration) -> ChaosPlan {
        self.batch_delays.push((batch, delay));
        self
    }

    /// Schedules `extra` additional submissions at load-generator tick
    /// `tick` (consumed by the harness, not the engine).
    #[must_use]
    pub fn burst_at(mut self, tick: u64, extra: usize) -> ChaosPlan {
        self.overload_bursts.push((tick, extra));
        self
    }

    /// Schedules one artifact bit flip (byte `byte_index`, bit `bit`)
    /// to apply with [`flip_bit`] before a hot-swap (consumed by the
    /// harness, not the engine).
    #[must_use]
    pub fn corrupt_artifact_at(mut self, byte_index: u64, bit: u8) -> ChaosPlan {
        self.artifact_flips.push((byte_index, bit));
        self
    }

    /// Schedules the fleet harness to kill the entire replica group
    /// serving `model_id` (every engine in the group goes down at
    /// once), exercising the router's group-down typed-error path and
    /// its restart-from-artifact recovery. Consumed by the harness, not
    /// the engine.
    #[must_use]
    pub fn kill_replica_group(mut self, model_id: impl Into<String>) -> ChaosPlan {
        self.replica_group_kills.push(model_id.into());
        self
    }

    /// Schedules one registry-artifact bit flip: the `entry`-th `.csqm`
    /// file of a registry directory in deterministic scan order gets
    /// bit `bit` of byte `byte_index` flipped with [`flip_bit`] before
    /// the registry scan. Consumed by the harness, not the engine.
    #[must_use]
    pub fn corrupt_registry_entry(mut self, entry: usize, byte_index: u64, bit: u8) -> ChaosPlan {
        self.registry_corruptions.push((entry, byte_index, bit));
        self
    }

    /// A seeded schedule: `kills` worker kills spread over `workers`
    /// workers and per-worker batch ordinals in `[0, batch_span)`, plus
    /// `delays` injected latencies of up to `max_delay` on global
    /// batches in the same span. Deterministic for a given seed.
    pub fn seeded(
        seed: u64,
        workers: usize,
        batch_span: u64,
        kills: usize,
        delays: usize,
        max_delay: Duration,
    ) -> ChaosPlan {
        assert!(workers > 0, "seeded chaos requires at least one worker");
        assert!(
            batch_span > 0,
            "seeded chaos requires a non-empty batch range"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = ChaosPlan::new();
        for _ in 0..kills {
            let kill = (rng.gen_range(0..workers), rng.gen_range(0..batch_span));
            if !plan.worker_kills.contains(&kill) {
                plan.worker_kills.push(kill);
            }
        }
        let delay_nanos = max_delay.as_nanos().max(1) as u64;
        for _ in 0..delays {
            let batch = rng.gen_range(0..batch_span);
            if plan.batch_delays.iter().all(|(b, _)| *b != batch) {
                let d = Duration::from_nanos(rng.gen_range(0..=delay_nanos));
                plan.batch_delays.push((batch, d));
            }
        }
        plan
    }

    /// True when nothing is left to inject.
    pub fn is_spent(&self) -> bool {
        self.worker_kills.is_empty()
            && self.poison_batches.is_empty()
            && self.batch_delays.is_empty()
            && self.overload_bursts.is_empty()
            && self.artifact_flips.is_empty()
            && self.replica_group_kills.is_empty()
            && self.registry_corruptions.is_empty()
    }

    /// Consumes a pending kill for worker `worker` at its per-worker
    /// batch ordinal `batch`, if any.
    pub fn take_worker_kill(&mut self, worker: usize, batch: u64) -> bool {
        take(&mut self.worker_kills, &(worker, batch))
    }

    /// Consumes a pending poison injection for global batch `batch`.
    pub fn take_batch_poison(&mut self, batch: u64) -> bool {
        take(&mut self.poison_batches, &batch)
    }

    /// Consumes a pending latency injection for global batch `batch`.
    pub fn take_batch_delay(&mut self, batch: u64) -> Option<Duration> {
        take_keyed(&mut self.batch_delays, batch)
    }

    /// Consumes a pending overload burst for load-generator tick
    /// `tick`, returning the number of extra submissions to fire.
    pub fn take_burst(&mut self, tick: u64) -> Option<usize> {
        take_keyed(&mut self.overload_bursts, tick)
    }

    /// Consumes the next scheduled artifact bit flip, in insertion
    /// order: `(byte_index, bit)` for [`flip_bit`].
    pub fn take_artifact_flip(&mut self) -> Option<(u64, u8)> {
        if self.artifact_flips.is_empty() {
            None
        } else {
            Some(self.artifact_flips.remove(0))
        }
    }

    /// Consumes a pending replica-group kill for `model_id`, if any.
    pub fn take_replica_group_kill(&mut self, model_id: &str) -> bool {
        match self.replica_group_kills.iter().position(|m| m == model_id) {
            Some(i) => {
                self.replica_group_kills.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes the next scheduled registry corruption, in insertion
    /// order: `(entry, byte_index, bit)` — flip the given bit of the
    /// `entry`-th registry file (deterministic scan order) with
    /// [`flip_bit`].
    pub fn take_registry_corruption(&mut self) -> Option<(usize, u64, u8)> {
        if self.registry_corruptions.is_empty() {
            None
        } else {
            Some(self.registry_corruptions.remove(0))
        }
    }
}

fn take_keyed<K: PartialEq, V>(pending: &mut Vec<(K, V)>, key: K) -> Option<V> {
    pending
        .iter()
        .position(|(k, _)| *k == key)
        .map(|i| pending.remove(i).1)
}

fn take<T: PartialEq>(pending: &mut Vec<T>, key: &T) -> bool {
    match pending.iter().position(|p| p == key) {
        Some(i) => {
            pending.remove(i);
            true
        }
        None => false,
    }
}

/// Truncates the file at `path` by `bytes` bytes (to empty if it is
/// shorter), simulating a write cut short by a crash.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_file(path: &Path, bytes: u64) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len.saturating_sub(bytes))?;
    file.sync_all()
}

/// Flips one bit of the file at `path` (bit `bit` of byte `byte_index`),
/// simulating silent on-disk corruption.
///
/// # Errors
///
/// Propagates filesystem errors; fails with `InvalidInput` when
/// `byte_index` is out of range or `bit > 7`.
pub fn flip_bit(path: &Path, byte_index: u64, bit: u8) -> std::io::Result<()> {
    if bit > 7 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("bit index {bit} out of range (0..=7)"),
        ));
    }
    let mut bytes = std::fs::read(path)?;
    let idx = usize::try_from(byte_index).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "byte index does not fit usize",
        )
    })?;
    match bytes.get_mut(idx) {
        Some(b) => *b ^= 1u8 << bit,
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("byte index {byte_index} beyond file length {}", bytes.len()),
            ))
        }
    }
    std::fs::write(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injections_fire_once() {
        let mut plan = FaultPlan::new()
            .nan_loss_at(3)
            .nan_grads_at(5)
            .crash_at_epoch(1);
        assert!(!plan.take_nan_loss(2));
        assert!(plan.take_nan_loss(3));
        assert!(!plan.take_nan_loss(3), "spent after first hit");
        assert!(plan.take_nan_grads(5));
        assert!(plan.take_crash(1));
        assert!(plan.is_spent());
    }

    #[test]
    fn chaos_injections_fire_once() {
        let mut plan = ChaosPlan::new()
            .kill_worker_at(1, 3)
            .poison_batch_at(5)
            .delay_batch_at(7, Duration::from_millis(2))
            .burst_at(4, 16)
            .corrupt_artifact_at(10, 3)
            .kill_replica_group("alpha")
            .corrupt_registry_entry(2, 64, 5);
        assert!(!plan.take_worker_kill(0, 3), "wrong worker must not match");
        assert!(!plan.take_worker_kill(1, 2), "wrong batch must not match");
        assert!(plan.take_worker_kill(1, 3));
        assert!(!plan.take_worker_kill(1, 3), "spent after first hit");
        assert!(plan.take_batch_poison(5));
        assert!(!plan.take_batch_poison(5));
        assert_eq!(plan.take_batch_delay(7), Some(Duration::from_millis(2)));
        assert_eq!(plan.take_batch_delay(7), None);
        assert_eq!(plan.take_burst(4), Some(16));
        assert_eq!(plan.take_artifact_flip(), Some((10, 3)));
        assert_eq!(plan.take_artifact_flip(), None);
        assert!(!plan.take_replica_group_kill("beta"), "wrong group");
        assert!(plan.take_replica_group_kill("alpha"));
        assert!(!plan.take_replica_group_kill("alpha"), "spent");
        assert_eq!(plan.take_registry_corruption(), Some((2, 64, 5)));
        assert_eq!(plan.take_registry_corruption(), None);
        assert!(plan.is_spent());
    }

    #[test]
    fn seeded_chaos_is_deterministic() {
        let a = ChaosPlan::seeded(11, 4, 32, 3, 2, Duration::from_millis(5));
        let b = ChaosPlan::seeded(11, 4, 32, 3, 2, Duration::from_millis(5));
        assert_eq!(a, b);
        assert!(!a.is_spent());
        let c = ChaosPlan::seeded(12, 4, 32, 3, 2, Duration::from_millis(5));
        assert_ne!(a, c, "different seeds must give different schedules");
    }

    #[test]
    fn truncate_and_flip_corrupt_files() {
        let path = std::env::temp_dir().join("csq_fault_corrupt.bin");
        std::fs::write(&path, b"hello world").unwrap();
        flip_bit(&path, 0, 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[0], b'h' ^ 1);
        truncate_file(&path, 6).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 5);
        truncate_file(&path, 100).unwrap();
        assert!(std::fs::read(&path).unwrap().is_empty());
        assert!(flip_bit(&path, 0, 0).is_err(), "empty file has no byte 0");
        std::fs::remove_file(&path).ok();
    }
}
