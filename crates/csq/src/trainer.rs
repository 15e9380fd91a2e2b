//! Training loops: the generic quantization-aware `fit` routine shared by
//! all methods, and [`CsqTrainer`] implementing the paper's Algorithm 1
//! (CSQ training + optional mask-frozen finetuning with temperature
//! rewind).
//!
//! Both loops are fault tolerant. A non-finite batch loss no longer
//! aborts the process: a configurable [`RecoveryPolicy`] skips the bad
//! batch, rewinds to the last known-good epoch with a learning-rate
//! backoff when a NaN storm sets in, and returns a structured
//! [`TrainError`] only after the retry budget is exhausted. A
//! [`SnapshotPolicy`] persists a [`TrainSnapshot`] every k epochs so an
//! interrupted run can continue via [`CsqTrainer::resume_from`] with a
//! trajectory identical to an uninterrupted run.

use crate::budget::{model_precision, BudgetRegularizer};
use crate::fault::FaultPlan;
use crate::gate::TemperatureSchedule;
use crate::resume::{
    capture_layer_state, restore_layer_state, SnapshotError, TrainPhase, TrainSnapshot,
};
use crate::scheme::QuantScheme;
use csq_data::{DataLoader, Dataset, Split};
use csq_nn::{
    accuracy, softmax_cross_entropy, Adam, Checkpoint, CosineSchedule, Layer, OptimState,
    OptimStateError, ParamRole, Sgd,
};
use csq_obs::json::{field, FromJson, Value};
use std::path::{Path, PathBuf};

/// Which optimizer a training phase uses.
///
/// The paper uses SGD with momentum throughout; the reduced-scale
/// configurations default to [`OptimKind::Adam`] because the bit-level
/// logit gradients are orders of magnitude smaller than float weight
/// gradients and SGD cannot traverse the logit space in a few hundred
/// steps (see `csq_nn::Adam` and DESIGN.md §2). Every method in a
/// comparison uses the same optimizer, so rankings remain fair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimKind {
    /// SGD with momentum (the paper's optimizer).
    Sgd,
    /// Adam (reduced-scale default).
    Adam,
}

#[derive(Debug)]
enum Optimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl Optimizer {
    fn new(kind: OptimKind, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        match kind {
            OptimKind::Sgd => Optimizer::Sgd(Sgd::new(lr, momentum, weight_decay)),
            OptimKind::Adam => Optimizer::Adam(Adam::new(lr, weight_decay)),
        }
    }

    fn set_lr(&mut self, lr: f32) {
        match self {
            Optimizer::Sgd(o) => o.set_lr(lr),
            Optimizer::Adam(o) => o.set_lr(lr),
        }
    }

    fn step(&mut self, model: &mut dyn Layer, frozen: &[ParamRole]) {
        match self {
            Optimizer::Sgd(o) => o.step_with_frozen(model, frozen),
            Optimizer::Adam(o) => o.step_with_frozen(model, frozen),
        }
    }

    fn export_state(&self) -> OptimState {
        match self {
            Optimizer::Sgd(o) => o.export_state(),
            Optimizer::Adam(o) => o.export_state(),
        }
    }

    fn import_state(&mut self, state: OptimState) -> Result<(), OptimStateError> {
        match self {
            Optimizer::Sgd(o) => o.import_state(state),
            Optimizer::Adam(o) => o.import_state(state),
        }
    }
}

/// Per-epoch training telemetry (the series behind Figures 2–3).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EpochStats {
    /// 0-based epoch index within its phase.
    pub epoch: usize,
    /// Whether this epoch belongs to the finetuning phase.
    pub finetune: bool,
    /// Mean training loss (cross entropy + nothing else; the budget
    /// regularizer acts through gradients).
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub train_acc: f32,
    /// Held-out accuracy after the epoch.
    pub test_acc: f32,
    /// Element-weighted average precision, hard-counted (`Σ_b [m_B ≥ 0]`).
    pub avg_bits: f32,
    /// Gate temperature β used this epoch.
    pub beta: f32,
    /// Learning rate used this epoch (after any recovery backoff).
    pub lr: f32,
    /// Budget gap Δ_S at the end of the epoch (0 when no budget is set).
    pub delta_s: f32,
    /// Batches skipped this epoch because their loss was non-finite.
    pub skipped: usize,
}

impl FromJson for EpochStats {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(EpochStats {
            epoch: field(v, ctx, "epoch")?,
            finetune: field(v, ctx, "finetune")?,
            loss: field(v, ctx, "loss")?,
            train_acc: field(v, ctx, "train_acc")?,
            test_acc: field(v, ctx, "test_acc")?,
            avg_bits: field(v, ctx, "avg_bits")?,
            beta: field(v, ctx, "beta")?,
            lr: field(v, ctx, "lr")?,
            delta_s: field(v, ctx, "delta_s")?,
            skipped: field(v, ctx, "skipped")?,
        })
    }
}

/// Structured training failure. Replaces the panics the loops used to
/// raise, so callers (benches, long campaigns) can handle divergence and
/// interruption without losing the process.
#[derive(Debug)]
pub enum TrainError {
    /// A phase was configured with zero epochs.
    ZeroEpochs,
    /// Training kept producing non-finite losses after exhausting the
    /// [`RecoveryPolicy`] retry budget.
    Diverged {
        /// Phase-local epoch in which the final storm hit.
        epoch: usize,
        /// Rewinds spent before giving up.
        rewinds: usize,
    },
    /// A [`FaultPlan`] crash injection fired (tests only).
    InjectedCrash {
        /// Phase-local epoch after which the simulated crash occurred.
        epoch: usize,
    },
    /// Saving, loading or applying a [`TrainSnapshot`] failed.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::ZeroEpochs => write!(f, "training phase requires at least one epoch"),
            TrainError::Diverged { epoch, rewinds } => write!(
                f,
                "training diverged at epoch {epoch}: non-finite losses persisted after {rewinds} rewind(s)"
            ),
            TrainError::InjectedCrash { epoch } => {
                write!(f, "injected crash after epoch {epoch}")
            }
            TrainError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for TrainError {
    fn from(e: SnapshotError) -> Self {
        TrainError::Snapshot(e)
    }
}

/// How the training loop reacts to non-finite losses.
///
/// A batch whose loss is not finite is *skipped* (no backward, no
/// optimizer step). When more than `max_bad_steps` consecutive batches
/// are skipped — or an epoch ends with no good step at all — the run is
/// in a NaN storm: parameters, optimizer moments, layer state and the
/// loader are rewound to the last epoch that ended cleanly, the learning
/// rate is scaled by `lr_backoff`, and the epoch is retried. After
/// `max_rewinds` rewinds the loop gives up with [`TrainError::Diverged`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Consecutive skipped batches tolerated before declaring a storm.
    pub max_bad_steps: usize,
    /// Rewind-and-retry attempts before giving up.
    pub max_rewinds: usize,
    /// Multiplier applied to the learning rate at each rewind.
    pub lr_backoff: f32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_bad_steps: 2,
            max_rewinds: 2,
            lr_backoff: 0.5,
        }
    }
}

impl RecoveryPolicy {
    /// Zero tolerance: the first non-finite loss fails the run. This is
    /// the old `assert!`-and-abort behaviour, minus the process kill.
    pub fn strict() -> Self {
        RecoveryPolicy {
            max_bad_steps: 0,
            max_rewinds: 0,
            lr_backoff: 1.0,
        }
    }
}

/// When and where to persist [`TrainSnapshot`]s.
///
/// The snapshot file is rewritten (atomically) after every `every`-th
/// completed epoch of a phase and after the final epoch of each phase,
/// so at most one epoch of work is lost to a crash when `every == 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPolicy {
    /// Snapshot after every `every` completed epochs (≥ 1).
    pub every: usize,
    /// File the snapshot is written to.
    pub path: PathBuf,
}

impl SnapshotPolicy {
    /// Snapshots every `every` epochs into `path`.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero.
    pub fn every_epochs(every: usize, path: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "snapshot interval must be at least one epoch");
        SnapshotPolicy {
            every,
            path: path.into(),
        }
    }

    fn due(&self, completed: usize, total: usize) -> bool {
        completed.is_multiple_of(self.every) || completed == total
    }
}

/// Extended controls for [`fit_with`]: recovery, fault injection,
/// snapshotting and mid-phase resume. [`FitOptions::default`] reproduces
/// plain [`fit`].
#[derive(Debug)]
pub struct FitOptions<'a> {
    /// Reaction to non-finite losses.
    pub recovery: RecoveryPolicy,
    /// Deterministic fault injector (tests only).
    pub fault: Option<&'a mut FaultPlan>,
    /// Epoch-boundary snapshot persistence.
    pub snapshot: Option<&'a SnapshotPolicy>,
    /// Which Algorithm-1 phase this is; recorded in snapshots.
    pub phase: TrainPhase,
    /// First epoch to run (non-zero when resuming; the loader is
    /// fast-forwarded past the completed epochs).
    pub start_epoch: usize,
    /// Optimizer moments to restore before the first step (resume).
    pub init_optim: Option<OptimState>,
    /// Initial recovery learning-rate scale (resume; 1.0 otherwise).
    pub lr_scale: f32,
    /// History of epochs that precede `start_epoch` (earlier phases and
    /// the completed part of this one); embedded into snapshots so a
    /// resumed run's snapshot is indistinguishable from a straight run's.
    pub prior_history: &'a [EpochStats],
    /// Parameter roles the optimizer must not update this phase. The CSQ
    /// finetune phase freezes [`ParamRole::GateLogit`] so the discovered
    /// bit scheme cannot drift, complementing the hard mask freeze.
    pub frozen_roles: &'a [ParamRole],
}

impl Default for FitOptions<'_> {
    fn default() -> Self {
        FitOptions {
            recovery: RecoveryPolicy::default(),
            fault: None,
            snapshot: None,
            phase: TrainPhase::Csq,
            start_epoch: 0,
            init_optim: None,
            lr_scale: 1.0,
            prior_history: &[],
            frozen_roles: &[],
        }
    }
}

/// Everything needed to rewind training to the end of a known-good epoch.
#[derive(Debug)]
struct GoodState {
    params: Checkpoint,
    layer_state: Vec<(String, Vec<f32>)>,
    optim: OptimState,
    loader: DataLoader,
    /// Next epoch to run after restoring.
    epoch: usize,
    /// Phase-local history length at capture time.
    hist_len: usize,
}

impl GoodState {
    fn capture(
        model: &mut dyn Layer,
        opt: &Optimizer,
        loader: &DataLoader,
        epoch: usize,
        hist_len: usize,
    ) -> GoodState {
        GoodState {
            params: Checkpoint::capture(model),
            layer_state: capture_layer_state(model),
            optim: opt.export_state(),
            loader: loader.clone(),
            epoch,
            hist_len,
        }
    }

    /// Restores the captured state. The target is the very model/optimizer
    /// the state was captured from, so a mismatch is a logic bug, not a
    /// recoverable condition.
    fn restore(&self, model: &mut dyn Layer, opt: &mut Optimizer, loader: &mut DataLoader) {
        if let Err(e) = self.params.restore(model) {
            panic!("rewind failed to restore parameters: {e}");
        }
        if let Err(e) = restore_layer_state(model, &self.layer_state) {
            panic!("rewind failed to restore layer state: {e}");
        }
        if let Err(e) = opt.import_state(self.optim.clone()) {
            panic!("rewind failed to restore optimizer state: {e}");
        }
        *loader = self.loader.clone();
    }
}

/// True when every parameter and every non-parameter state buffer of
/// `model` is finite. Guards good-state captures and snapshot writes so a
/// late-epoch NaN injection cannot poison the rewind target.
fn model_is_finite(model: &mut dyn Layer) -> bool {
    let mut ok = true;
    model.visit_params(&mut |p| {
        if ok && !p.value.all_finite() {
            ok = false;
        }
    });
    model.visit_state(&mut |s| {
        if ok && !s.iter().all(|v| v.is_finite()) {
            ok = false;
        }
    });
    ok
}

/// Evaluates mean loss and accuracy of `model` over a data split.
pub fn evaluate(model: &mut dyn Layer, split: &Split, batch_size: usize) -> (f32, f32) {
    let mut loader = DataLoader::new(batch_size, false, 0);
    let mut loss_acc = 0.0f64;
    let mut correct = 0.0f64;
    let mut n = 0usize;
    for batch in loader.epoch(split) {
        let logits = model.forward(&batch.images, false);
        let (loss, _) = softmax_cross_entropy(&logits, &batch.labels);
        let acc = accuracy(&logits, &batch.labels);
        let b = batch.labels.len();
        loss_acc += loss as f64 * b as f64;
        correct += acc as f64 * b as f64;
        n += b;
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        ((loss_acc / n as f64) as f32, (correct / n as f64) as f32)
    }
}

/// Runs one training phase: SGD with cosine LR, optional temperature
/// scheduling and optional budget regularization. Returns per-epoch
/// statistics.
///
/// Equivalent to [`fit_with`] with [`FitOptions::default`]: default
/// recovery, no fault injection, no snapshots.
///
/// # Errors
///
/// [`TrainError::ZeroEpochs`] on a zero-epoch config;
/// [`TrainError::Diverged`] when losses stay non-finite past the default
/// [`RecoveryPolicy`] budget.
pub fn fit(
    model: &mut dyn Layer,
    data: &Dataset,
    cfg: &FitConfig,
    finetune_phase: bool,
) -> Result<Vec<EpochStats>, TrainError> {
    fit_with(model, data, cfg, finetune_phase, FitOptions::default())
}

/// [`fit`] with explicit fault-tolerance controls: recovery policy, fault
/// injection, snapshot persistence and mid-phase resume.
///
/// Returns the stats of the epochs *this call* ran
/// (`opts.start_epoch..cfg.epochs`); on resume the caller prepends the
/// already-completed history.
///
/// # Errors
///
/// See [`TrainError`].
///
/// # Panics
///
/// Panics when `opts.start_epoch` exceeds `cfg.epochs` (caller bug).
pub fn fit_with(
    model: &mut dyn Layer,
    data: &Dataset,
    cfg: &FitConfig,
    finetune_phase: bool,
    opts: FitOptions<'_>,
) -> Result<Vec<EpochStats>, TrainError> {
    if cfg.epochs == 0 {
        return Err(TrainError::ZeroEpochs);
    }
    assert!(
        opts.start_epoch <= cfg.epochs,
        "resume start epoch {} beyond configured epochs {}",
        opts.start_epoch,
        cfg.epochs
    );
    let lr_schedule = CosineSchedule::new(cfg.base_lr, cfg.warmup_epochs, cfg.epochs);
    let mut opt = Optimizer::new(cfg.optim, cfg.base_lr, cfg.momentum, cfg.weight_decay);
    if let Some(state) = opts.init_optim {
        opt.import_state(state).map_err(SnapshotError::Optim)?;
    }
    let mut loader = DataLoader::new(cfg.batch_size, true, cfg.seed);
    loader.fast_forward(opts.start_epoch as u64, data.train.len());

    let recovery = opts.recovery;
    let frozen = opts.frozen_roles;
    let mut fault = opts.fault;
    let mut lr_scale = opts.lr_scale;
    let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.epochs - opts.start_epoch);
    let mut good = GoodState::capture(model, &opt, &loader, opts.start_epoch, 0);
    let mut rewinds = 0usize;
    let mut consecutive_bad = 0usize;
    let mut global_step = 0u64;

    let phase_name = match opts.phase {
        TrainPhase::Csq => "csq",
        TrainPhase::Finetune => "finetune",
    };
    let _phase_span = csq_obs::span!(
        "train",
        "phase",
        "phase" => phase_name,
        "epochs" => cfg.epochs,
        "start" => opts.start_epoch,
    );

    let mut epoch = opts.start_epoch;
    while epoch < cfg.epochs {
        let _epoch_span = csq_obs::span!(
            "train",
            "epoch",
            "epoch" => epoch,
            "phase" => phase_name,
        );
        let lr = lr_schedule.lr_at(epoch) * lr_scale;
        opt.set_lr(lr);
        let beta = match &cfg.beta {
            Some(s) => {
                let b = s.beta_at(epoch);
                model.visit_weight_sources(&mut |src| src.set_beta(b));
                b
            }
            None => 1.0,
        };

        let mut loss_sum = 0.0f64;
        let mut acc_sum = 0.0f64;
        let mut seen = 0usize;
        let mut skipped = 0usize;
        let mut last_delta = 0.0f32;
        let mut storm = false;
        for batch in loader.epoch(&data.train) {
            let step = global_step;
            global_step += 1;
            model.zero_grads();
            let logits = model.forward(&batch.images, true);
            let (mut loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
            if fault.as_deref_mut().is_some_and(|f| f.take_nan_loss(step)) {
                loss = f32::NAN;
            }
            if !loss.is_finite() {
                // Skip the batch: no backward, no step. Repeated skips
                // mean the parameters themselves are bad — storm.
                skipped += 1;
                consecutive_bad += 1;
                if consecutive_bad > recovery.max_bad_steps {
                    storm = true;
                    break;
                }
                continue;
            }
            consecutive_bad = 0;
            let acc = accuracy(&logits, &batch.labels);
            model.backward(&grad);
            if let Some(budget) = &cfg.budget {
                last_delta = budget.apply(model);
            }
            if fault.as_deref_mut().is_some_and(|f| f.take_nan_grads(step)) {
                model.visit_params(&mut |p| p.grad.fill(f32::NAN));
            }
            opt.step(model, frozen);
            let b = batch.labels.len();
            loss_sum += loss as f64 * b as f64;
            acc_sum += acc as f64 * b as f64;
            seen += b;
        }
        if !storm && seen == 0 {
            // Every batch was skipped: nothing was learned and the model
            // is almost certainly corrupt.
            storm = true;
        }
        if storm {
            if rewinds >= recovery.max_rewinds {
                csq_obs::event!(
                    "train",
                    "diverged",
                    "phase" => phase_name,
                    "epoch" => epoch,
                    "rewinds" => rewinds,
                );
                let _ = csq_obs::flight::dump_global("train_diverged");
                return Err(TrainError::Diverged { epoch, rewinds });
            }
            rewinds += 1;
            lr_scale *= recovery.lr_backoff;
            consecutive_bad = 0;
            csq_obs::event!(
                "train",
                "nan_rewind",
                "phase" => phase_name,
                "storm_epoch" => epoch,
                "rewind_to" => good.epoch,
                "rewinds" => rewinds,
                "lr_scale" => lr_scale,
            );
            let _ = csq_obs::flight::dump_global("nan_rewind");
            good.restore(model, &mut opt, &mut loader);
            history.truncate(good.hist_len);
            epoch = good.epoch;
            continue;
        }
        model.visit_weight_sources(&mut |src| src.on_epoch_end(epoch));

        let (_, test_acc) = evaluate(model, &data.test, cfg.batch_size);
        let stats = model_precision(model);
        let row = EpochStats {
            epoch,
            finetune: finetune_phase,
            loss: (loss_sum / seen.max(1) as f64) as f32,
            train_acc: (acc_sum / seen.max(1) as f64) as f32,
            test_acc,
            avg_bits: stats.avg_bits,
            beta,
            lr,
            delta_s: last_delta,
            skipped,
        };
        history.push(row);
        crate::telemetry::record_epoch(
            model,
            &row,
            (opts.prior_history.len() + history.len() - 1) as u64,
        );

        let completed = epoch + 1;
        // Advance the rewind target only past epochs that ended cleanly
        // on a finite model — a tail of skipped batches (or an injected
        // late NaN) must not poison the recovery point.
        let clean = consecutive_bad == 0 && model_is_finite(model);
        if clean {
            good = GoodState::capture(model, &opt, &loader, completed, history.len());
        }
        if let Some(policy) = opts.snapshot {
            if clean && policy.due(completed, cfg.epochs) {
                let snap = TrainSnapshot {
                    version: TrainSnapshot::VERSION,
                    phase: opts.phase,
                    epochs_done: completed,
                    total_epochs: cfg.epochs,
                    beta,
                    lr_scale,
                    seed: cfg.seed,
                    mask_frozen: opts.phase == TrainPhase::Finetune,
                    lambda: cfg.budget.map(|b| b.lambda),
                    target_bits: cfg.budget.map(|b| b.target_bits),
                    history: opts
                        .prior_history
                        .iter()
                        .chain(history.iter())
                        .copied()
                        .collect(),
                    params: Checkpoint::capture(model),
                    layer_state: capture_layer_state(model),
                    optim: opt.export_state(),
                    threads: csq_tensor::par::current_threads(),
                };
                snap.save(&policy.path)?;
            }
        }
        if fault.as_deref_mut().is_some_and(|f| f.take_crash(epoch)) {
            return Err(TrainError::InjectedCrash { epoch });
        }
        epoch += 1;
    }
    Ok(history)
}

/// Configuration of one [`fit`] phase.
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (cosine-annealed to zero).
    pub base_lr: f32,
    /// Linear warmup epochs (paper: 5 on ImageNet, 0 on CIFAR).
    pub warmup_epochs: usize,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay applied to decaying parameters (paper: 5e-4 CIFAR,
    /// 1e-4 ImageNet).
    pub weight_decay: f32,
    /// Gate-temperature schedule, applied to all weight sources each
    /// epoch. `None` leaves temperatures untouched (float/STE baselines).
    pub beta: Option<TemperatureSchedule>,
    /// Budget-aware regularizer, applied every optimization step.
    pub budget: Option<BudgetRegularizer>,
    /// Shuffle seed for the data loader.
    pub seed: u64,
    /// Optimizer used for this phase.
    pub optim: OptimKind,
}

impl FitConfig {
    /// A reasonable default for the reduced-scale experiments.
    pub fn fast(epochs: usize) -> Self {
        FitConfig {
            epochs,
            batch_size: 32,
            base_lr: 2e-2,
            warmup_epochs: 0,
            momentum: 0.9,
            weight_decay: 5e-4,
            beta: None,
            budget: None,
            seed: 0,
            optim: OptimKind::Adam,
        }
    }
}

/// Configuration of the full CSQ pipeline (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct CsqConfig {
    /// CSQ training epochs `T`.
    pub epochs: usize,
    /// Finetuning epochs `T'` (0 disables the finetuning phase; the paper
    /// uses 0 on CIFAR-10 and 100 on ImageNet).
    pub finetune_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (paper: 0.1).
    pub base_lr: f32,
    /// Linear LR warmup epochs (paper: 5 on ImageNet).
    pub warmup_epochs: usize,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay (paper: 5e-4 CIFAR / 1e-4 ImageNet).
    pub weight_decay: f32,
    /// Base regularization strength λ (paper: 0.01).
    pub lambda: f32,
    /// Target element-weighted average precision in bits.
    pub target_bits: f32,
    /// Initial gate temperature β₀ (paper: 1).
    pub beta0: f32,
    /// Maximum temperature β_max (paper: 200).
    pub beta_max: f32,
    /// Fraction of the epochs after which β_max is reached and held
    /// (paper: 1.0 = reached in the last epoch; reduced-scale default
    /// 0.75 so the model settles in the near-discrete regime).
    pub beta_saturate: f32,
    /// Loader shuffle seed.
    pub seed: u64,
    /// Optimizer for both phases (see [`OptimKind`]).
    pub optim: OptimKind,
}

impl CsqConfig {
    /// Reduced-scale defaults suitable for single-core runs.
    ///
    /// λ is set to 0.3 rather than the paper's 0.01: the paper shows the
    /// final precision is insensitive to λ across `[1e-3, 1]` (Figure 2)
    /// *given hundreds of thousands of optimizer steps*; at the reduced
    /// scale of this reproduction (hundreds of steps) a value near the
    /// top of that insensitive range is needed for the mask logits to
    /// traverse the gate boundary at all. The fig2 bench sweeps λ and
    /// reproduces the paper's sensitivity shape at this scale.
    pub fn fast(target_bits: f32) -> Self {
        CsqConfig {
            epochs: 20,
            finetune_epochs: 0,
            batch_size: 32,
            base_lr: 2e-2,
            warmup_epochs: 0,
            momentum: 0.9,
            weight_decay: 5e-4,
            lambda: 0.3,
            target_bits,
            beta0: 1.0,
            beta_max: 200.0,
            beta_saturate: 0.75,
            seed: 0,
            optim: OptimKind::Adam,
        }
    }

    /// The paper's CIFAR-10 hyperparameters (600 epochs for ResNet-20).
    pub fn paper_cifar(target_bits: f32, epochs: usize) -> Self {
        CsqConfig {
            epochs,
            finetune_epochs: 0,
            batch_size: 128,
            base_lr: 0.1,
            warmup_epochs: 0,
            momentum: 0.9,
            weight_decay: 5e-4,
            lambda: 0.01,
            target_bits,
            beta0: 1.0,
            beta_max: 200.0,
            beta_saturate: 1.0,
            seed: 0,
            optim: OptimKind::Sgd,
        }
    }

    /// The paper's ImageNet hyperparameters (200 + 100 epochs).
    pub fn paper_imagenet(target_bits: f32, epochs: usize, finetune_epochs: usize) -> Self {
        CsqConfig {
            epochs,
            finetune_epochs,
            batch_size: 128,
            base_lr: 0.1,
            warmup_epochs: 5,
            momentum: 0.9,
            weight_decay: 1e-4,
            lambda: 0.01,
            target_bits,
            beta0: 1.0,
            beta_max: 200.0,
            beta_saturate: 1.0,
            seed: 0,
            optim: OptimKind::Sgd,
        }
    }

    /// Builder-style override of the training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style override of the finetuning epochs.
    pub fn with_finetune(mut self, finetune_epochs: usize) -> Self {
        self.finetune_epochs = finetune_epochs;
        self
    }

    /// Builder-style override of λ.
    pub fn with_lambda(mut self, lambda: f32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of a full training pipeline.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch telemetry, CSQ phase followed by the finetune phase.
    pub history: Vec<EpochStats>,
    /// Held-out accuracy of the *finalized* (exactly quantized) model.
    pub final_test_accuracy: f32,
    /// Final element-weighted average precision.
    pub final_avg_bits: f32,
    /// Final weight compression versus FP32.
    pub final_compression: f32,
    /// The discovered quantization scheme.
    pub scheme: QuantScheme,
}

/// Algorithm 1 of the paper: bi-level continuous sparsification training,
/// hard finalization, and the optional mask-frozen finetuning phase with
/// temperature rewind — with optional crash-safe snapshots, resume, and
/// NaN recovery.
#[derive(Debug, Clone)]
pub struct CsqTrainer {
    cfg: CsqConfig,
    snapshot: Option<SnapshotPolicy>,
    recovery: RecoveryPolicy,
    resume: Option<PathBuf>,
    fault: Option<FaultPlan>,
}

impl CsqTrainer {
    /// Creates a trainer from a config.
    pub fn new(cfg: CsqConfig) -> Self {
        CsqTrainer {
            cfg,
            snapshot: None,
            recovery: RecoveryPolicy::default(),
            resume: None,
            fault: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CsqConfig {
        &self.cfg
    }

    /// Persists a [`TrainSnapshot`] per `policy` at epoch boundaries.
    #[must_use]
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        self.snapshot = Some(policy);
        self
    }

    /// Overrides the non-finite-loss [`RecoveryPolicy`].
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Resumes from the snapshot at `path` if it exists; starts fresh
    /// otherwise (so a first run and a restart share one command line).
    /// The snapshot must come from the same configuration — a mismatch
    /// fails with [`SnapshotError::ConfigMismatch`].
    #[must_use]
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Injects deterministic faults while training (tests only).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Checks that `snap` belongs to the phase of `cfg` it claims.
    fn validate_snapshot(snap: &TrainSnapshot, cfg: &CsqConfig) -> Result<(), TrainError> {
        let mismatch =
            |what: String| Err(TrainError::Snapshot(SnapshotError::ConfigMismatch { what }));
        let (total, seed) = match snap.phase {
            TrainPhase::Csq => (cfg.epochs, cfg.seed),
            TrainPhase::Finetune => (cfg.finetune_epochs, cfg.seed.wrapping_add(1)),
        };
        if snap.total_epochs != total {
            return mismatch(format!(
                "snapshot phase has {} epochs, config has {total}",
                snap.total_epochs
            ));
        }
        if snap.epochs_done > total {
            return mismatch(format!(
                "snapshot claims {} completed epochs of {total}",
                snap.epochs_done
            ));
        }
        if snap.seed != seed {
            return mismatch(format!(
                "snapshot seed {} differs from config seed {seed}",
                snap.seed
            ));
        }
        if snap.phase == TrainPhase::Csq {
            if snap.lambda != Some(cfg.lambda) {
                return mismatch(format!(
                    "snapshot lambda {:?} differs from config lambda {}",
                    snap.lambda, cfg.lambda
                ));
            }
            if snap.target_bits != Some(cfg.target_bits) {
                return mismatch(format!(
                    "snapshot target {:?} differs from config target {}",
                    snap.target_bits, cfg.target_bits
                ));
            }
        }
        Ok(())
    }

    /// Runs the full pipeline on `model` (whose weight sources should be
    /// [`crate::BitQuantizer`]s) and returns the report.
    ///
    /// # Errors
    ///
    /// See [`TrainError`]. Zero-epoch configs return
    /// [`TrainError::ZeroEpochs`]; persistent non-finite losses return
    /// [`TrainError::Diverged`]; snapshot i/o or mismatch problems return
    /// [`TrainError::Snapshot`].
    pub fn train(&self, model: &mut dyn Layer, data: &Dataset) -> Result<TrainReport, TrainError> {
        let cfg = &self.cfg;
        if cfg.epochs == 0 {
            return Err(TrainError::ZeroEpochs);
        }

        // Load and apply a resume snapshot, if one is present on disk.
        let mut history: Vec<EpochStats> = Vec::new();
        let mut p1_start = 0usize;
        let mut p1_optim: Option<OptimState> = None;
        let mut p1_scale = 1.0f32;
        let mut p2_start = 0usize;
        let mut p2_optim: Option<OptimState> = None;
        let mut p2_scale = 1.0f32;
        if let Some(path) = self.resume.as_deref().filter(|p: &&Path| p.exists()) {
            let snap = TrainSnapshot::load(path)?;
            Self::validate_snapshot(&snap, cfg)?;
            // Thread-count drift is safe (the parallel runtime is
            // bit-deterministic at any width) — warn, don't fail.
            if snap.threads != 0 {
                let now = csq_tensor::par::current_threads();
                if snap.threads != now {
                    eprintln!(
                        "warning: snapshot was written with {} worker thread(s), resuming with \
                         {now}; trajectories remain bit-identical under the deterministic \
                         parallel runtime",
                        snap.threads
                    );
                }
            }
            snap.restore_model(model)?;
            history = snap.history.clone();
            match snap.phase {
                TrainPhase::Csq => {
                    p1_start = snap.epochs_done;
                    p1_optim = Some(snap.optim);
                    p1_scale = snap.lr_scale;
                }
                TrainPhase::Finetune => {
                    p1_start = cfg.epochs;
                    p2_start = snap.epochs_done;
                    p2_optim = Some(snap.optim);
                    p2_scale = snap.lr_scale;
                }
            }
        }
        let mut fault = self.fault.clone();

        // Phase 1: CSQ training with β scheduling and budget regularization.
        if p1_start < cfg.epochs {
            let phase1 = FitConfig {
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                base_lr: cfg.base_lr,
                warmup_epochs: cfg.warmup_epochs,
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                beta: Some(
                    TemperatureSchedule::new(cfg.beta0, cfg.beta_max, cfg.epochs)
                        .with_saturation(cfg.beta_saturate),
                ),
                budget: Some(BudgetRegularizer::new(cfg.lambda, cfg.target_bits)),
                seed: cfg.seed,
                optim: cfg.optim,
            };
            let ran = fit_with(
                model,
                data,
                &phase1,
                false,
                FitOptions {
                    recovery: self.recovery,
                    fault: fault.as_mut(),
                    snapshot: self.snapshot.as_ref(),
                    phase: TrainPhase::Csq,
                    start_epoch: p1_start,
                    init_optim: p1_optim,
                    lr_scale: p1_scale,
                    prior_history: &history,
                    frozen_roles: &[],
                },
            )?;
            history.extend(ran);
        }

        // Fix the bit selection q_B = I(m_B ≥ 0). On a finetune-phase
        // resume this recomputes the same mask from the restored m_B.
        model.visit_weight_sources(&mut |src| src.freeze_mask());

        // Phase 2 (optional): finetune bit representations with the
        // temperature rewound to β₀ and re-annealed over T' epochs. No
        // budget regularization — the scheme is frozen, and the gate
        // logits (`ParamRole::GateLogit`) are excluded from optimizer
        // updates by role so the mask freeze cannot be undone.
        if cfg.finetune_epochs > 0 && p2_start < cfg.finetune_epochs {
            let phase2 = FitConfig {
                epochs: cfg.finetune_epochs,
                batch_size: cfg.batch_size,
                base_lr: cfg.base_lr,
                warmup_epochs: 0,
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                beta: Some(
                    TemperatureSchedule::new(cfg.beta0, cfg.beta_max, cfg.finetune_epochs)
                        .with_saturation(cfg.beta_saturate),
                ),
                budget: None,
                seed: cfg.seed.wrapping_add(1),
                optim: cfg.optim,
            };
            let ran = fit_with(
                model,
                data,
                &phase2,
                true,
                FitOptions {
                    recovery: self.recovery,
                    fault: fault.as_mut(),
                    snapshot: self.snapshot.as_ref(),
                    phase: TrainPhase::Finetune,
                    start_epoch: p2_start,
                    init_optim: p2_optim,
                    lr_scale: p2_scale,
                    prior_history: &history,
                    frozen_roles: &[ParamRole::GateLogit],
                },
            )?;
            history.extend(ran);
        }

        // Final hard quantization before validation ("we set all gate
        // functions to the unit-step function before the final
        // validation").
        model.visit_weight_sources(&mut |src| src.finalize());
        let (_, final_acc) = evaluate(model, &data.test, cfg.batch_size);
        let stats = model_precision(model);
        let scheme = QuantScheme::extract(model);
        Ok(TrainReport {
            history,
            final_test_accuracy: final_acc,
            final_avg_bits: stats.avg_bits,
            final_compression: stats.compression_ratio(),
            scheme,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrep::csq_factory;
    use csq_data::SyntheticSpec;
    use csq_nn::models::{resnet_cifar, ModelConfig};
    use csq_nn::weight::float_factory;

    fn tiny_data() -> Dataset {
        Dataset::synthetic(
            &SyntheticSpec::cifar_like(0)
                .with_samples(16, 8)
                .with_classes(4),
        )
    }

    /// Fast config with enough optimizer steps for the mask logits to
    /// traverse the gate boundary on the tiny dataset.
    fn tiny_csq_cfg(target: f32, epochs: usize) -> CsqConfig {
        let mut cfg = CsqConfig::fast(target).with_epochs(epochs);
        cfg.batch_size = 8;
        cfg
    }

    #[test]
    fn fit_improves_float_model() {
        let data = tiny_data();
        let mut fac = float_factory();
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = FitConfig::fast(6);
        let history = fit(&mut model, &data, &cfg, false).unwrap();
        assert_eq!(history.len(), 6);
        let first = history.first().unwrap().loss;
        let last = history.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last}");
        assert!(!history.iter().any(|h| h.finetune));
        assert!(history.iter().all(|h| h.skipped == 0));
    }

    #[test]
    fn zero_epoch_fit_is_a_structured_error() {
        let data = tiny_data();
        let mut fac = float_factory();
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = FitConfig::fast(0);
        assert!(matches!(
            fit(&mut model, &data, &cfg, false),
            Err(TrainError::ZeroEpochs)
        ));
        let csq = tiny_csq_cfg(3.0, 5).with_epochs(0);
        assert!(matches!(
            CsqTrainer::new(csq).train(&mut model, &data),
            Err(TrainError::ZeroEpochs)
        ));
    }

    #[test]
    fn csq_training_converges_to_target_precision() {
        let data = tiny_data();
        let mut fac = csq_factory(8);
        let mut cfg_m = ModelConfig::cifar_like(4, Some(3), 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = tiny_csq_cfg(3.0, 15);
        let report = CsqTrainer::new(cfg).train(&mut model, &data).unwrap();
        assert!(
            (report.final_avg_bits - 3.0).abs() <= 1.0,
            "avg bits {} should be near the 3-bit target",
            report.final_avg_bits
        );
        assert!(report.final_compression > 8.0);
        assert_eq!(report.history.len(), 15);
    }

    #[test]
    fn finalized_model_is_exactly_quantized() {
        let data = tiny_data();
        let mut fac = csq_factory(8);
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = tiny_csq_cfg(4.0, 4);
        let _ = CsqTrainer::new(cfg).train(&mut model, &data).unwrap();
        // Every weight source must now be hard: materialized weights on
        // the quantization grid.
        model.visit_weight_sources(&mut |src| {
            let step = src.quant_step().expect("CSQ sources expose a grid step");
            let w = src.materialize();
            for &v in w.iter() {
                let k = v / step;
                assert!(
                    (k - k.round()).abs() < 1e-2,
                    "weight {v} not on grid of step {step}"
                );
            }
        });
    }

    #[test]
    fn finetune_phase_keeps_scheme_fixed() {
        let data = tiny_data();
        let mut fac = csq_factory(8);
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = tiny_csq_cfg(3.0, 6).with_finetune(4);
        let report = CsqTrainer::new(cfg).train(&mut model, &data).unwrap();
        assert_eq!(report.history.len(), 10);
        let ft: Vec<_> = report.history.iter().filter(|h| h.finetune).collect();
        assert_eq!(ft.len(), 4);
        // Precision must not change during finetuning.
        let bits_at_freeze = ft.first().unwrap().avg_bits;
        for h in &ft {
            assert_eq!(h.avg_bits, bits_at_freeze, "scheme drifted in finetune");
        }
    }

    #[test]
    fn beta_schedule_reaches_max_in_last_epoch() {
        let data = tiny_data();
        let mut fac = csq_factory(8);
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = tiny_csq_cfg(4.0, 5);
        let report = CsqTrainer::new(cfg).train(&mut model, &data).unwrap();
        assert!((report.history[0].beta - 1.0).abs() < 1e-5);
        assert!((report.history[4].beta - 200.0).abs() < 1e-2);
    }

    #[test]
    fn evaluate_handles_empty_split() {
        let data = tiny_data();
        let mut fac = float_factory();
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let empty = csq_data::Split {
            images: csq_tensor::Tensor::zeros(&[0, 3, 16, 16]),
            labels: vec![],
        };
        let (loss, acc) = evaluate(&mut model, &empty, 8);
        assert_eq!(loss, 0.0);
        assert_eq!(acc, 0.0);
        let _ = data;
    }

    #[test]
    fn skipped_batch_does_not_abort_training() {
        let data = tiny_data();
        let mut fac = float_factory();
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = FitConfig::fast(3);
        let mut plan = FaultPlan::new().nan_loss_at(1);
        let history = fit_with(
            &mut model,
            &data,
            &cfg,
            false,
            FitOptions {
                fault: Some(&mut plan),
                ..FitOptions::default()
            },
        )
        .unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(history[0].skipped, 1, "one batch skipped in epoch 0");
        assert_eq!(history[1].skipped + history[2].skipped, 0);
        assert!(plan.is_spent());
    }

    #[test]
    fn strict_recovery_fails_fast_on_nan() {
        let data = tiny_data();
        let mut fac = float_factory();
        let mut cfg_m = ModelConfig::cifar_like(4, None, 0);
        cfg_m.num_classes = 4;
        let mut model = resnet_cifar(cfg_m, &mut fac, 1);
        let cfg = FitConfig::fast(3);
        let mut plan = FaultPlan::new().nan_loss_at(0);
        let err = fit_with(
            &mut model,
            &data,
            &cfg,
            false,
            FitOptions {
                recovery: RecoveryPolicy::strict(),
                fault: Some(&mut plan),
                ..FitOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Diverged {
                    epoch: 0,
                    rewinds: 0
                }
            ),
            "{err}"
        );
    }
}
