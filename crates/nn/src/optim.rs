//! Optimizers and learning-rate schedules.

use crate::layer::{Layer, ParamRole};
use csq_obs::json::{field, variant, FromJson, Value};
use csq_tensor::Tensor;
use serde::Serialize;

/// A serializable snapshot of an optimizer's internal state (momentum
/// buffers / Adam moments), keyed — like the live state — by parameter
/// path. Captured into `TrainSnapshot`s so a resumed run continues with
/// the exact optimizer trajectory of the original.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum OptimState {
    /// SGD momentum buffers.
    Sgd {
        /// One `(path, velocity)` entry per parameter, in visitation
        /// order.
        buffers: Vec<(String, Tensor)>,
    },
    /// Adam first/second moments and the bias-correction step counter.
    Adam {
        /// Number of steps taken so far (drives bias correction).
        step_count: u64,
        /// First-moment estimates, one `(path, tensor)` per parameter.
        m: Vec<(String, Tensor)>,
        /// Second-moment estimates, one `(path, tensor)` per parameter.
        v: Vec<(String, Tensor)>,
    },
}

impl FromJson for OptimState {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        let (name, body) = variant(v, ctx)?;
        let c = &format!("{ctx}.{name}");
        match name {
            "Sgd" => Ok(OptimState::Sgd {
                buffers: field(body, c, "buffers")?,
            }),
            "Adam" => Ok(OptimState::Adam {
                step_count: field(body, c, "step_count")?,
                m: field(body, c, "m")?,
                v: field(body, c, "v")?,
            }),
            other => Err(format!("{ctx}: unknown optimizer `{other}`")),
        }
    }
}

impl OptimState {
    /// Short label of the optimizer family this state belongs to.
    pub fn kind(&self) -> &'static str {
        match self {
            OptimState::Sgd { .. } => "sgd",
            OptimState::Adam { .. } => "adam",
        }
    }
}

/// Error importing an [`OptimState`] into an optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimStateError {
    /// The state belongs to a different optimizer family.
    KindMismatch {
        /// Family of the state being imported.
        state: &'static str,
        /// Family of the optimizer importing it.
        optimizer: &'static str,
    },
    /// A buffer's shape differs from the one already allocated for the
    /// same parameter (the model structure changed between capture and
    /// import).
    ShapeMismatch {
        /// Path of the parameter the buffer belongs to.
        path: String,
        /// Shape already allocated in the optimizer.
        existing: Vec<usize>,
        /// Shape carried by the imported state.
        imported: Vec<usize>,
    },
    /// The parameter path recorded at a buffer position differs from the
    /// one already allocated there (the model structure changed).
    PathMismatch {
        /// Buffer index (visitation order).
        index: usize,
        /// Path already allocated in the optimizer.
        existing: String,
        /// Path carried by the imported state.
        imported: String,
    },
}

impl std::fmt::Display for OptimStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimStateError::KindMismatch { state, optimizer } => write!(
                f,
                "optimizer state is for {state} but the optimizer is {optimizer}"
            ),
            OptimStateError::ShapeMismatch {
                path,
                existing,
                imported,
            } => write!(
                f,
                "optimizer buffer for `{path}` has shape {imported:?} in the imported state \
                 but {existing:?} in the optimizer"
            ),
            OptimStateError::PathMismatch {
                index,
                existing,
                imported,
            } => write!(
                f,
                "optimizer buffer {index} belongs to `{existing}` in the optimizer but \
                 `{imported}` in the imported state"
            ),
        }
    }
}

impl std::error::Error for OptimStateError {}

/// Validates that every restored buffer matches the path and shape already
/// allocated at its position (no-op when the optimizer has not stepped
/// yet — buffers are lazily allocated on first step).
fn check_buffers(
    existing: &[(String, Tensor)],
    incoming: &[(String, Tensor)],
) -> Result<(), OptimStateError> {
    for (index, ((name_a, a), (name_b, b))) in existing.iter().zip(incoming.iter()).enumerate() {
        if name_a != name_b {
            return Err(OptimStateError::PathMismatch {
                index,
                existing: name_a.clone(),
                imported: name_b.clone(),
            });
        }
        if a.dims() != b.dims() {
            return Err(OptimStateError::ShapeMismatch {
                path: name_b.clone(),
                existing: a.dims().to_vec(),
                imported: b.dims().to_vec(),
            });
        }
    }
    Ok(())
}

/// SGD with momentum and (selective) weight decay — the optimizer used for
/// every experiment in the paper (§IV-A: momentum 0.9, weight decay 5e-4
/// on CIFAR-10 / 1e-4 on ImageNet).
///
/// Momentum buffers are keyed by parameter path, validated against the
/// visited parameter on every step so a model edit is reported by name
/// instead of silently corrupting state. Weight decay only applies to
/// parameters whose [`ParamMut::decay`](crate::ParamMut) flag is set —
/// derived from the parameter's [`ParamRole`] (weights yes; biases, BN
/// affine parameters and quantizer gates no).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    buffers: Vec<(String, Tensor)>,
}

impl Sgd {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics on negative hyperparameters.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr >= 0.0 && momentum >= 0.0 && weight_decay >= 0.0);
        Sgd {
            lr,
            momentum,
            weight_decay,
            buffers: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (called once per epoch by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }

    /// Applies one update to every parameter of `model`, consuming the
    /// accumulated gradients (gradients are *not* cleared; call
    /// [`Layer::zero_grads`] before the next accumulation).
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.step_with_frozen(model, &[]);
    }

    /// Like [`Sgd::step`], but parameters whose role appears in `frozen`
    /// are left untouched (value and momentum buffer alike). The CSQ
    /// finetune phase freezes [`ParamRole::GateLogit`] this way.
    pub fn step_with_frozen(&mut self, model: &mut dyn Layer, frozen: &[ParamRole]) {
        let mut idx = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let buffers = &mut self.buffers;
        model.visit_params(&mut |p| {
            if idx == buffers.len() {
                buffers.push((p.path.to_string(), Tensor::zeros(p.value.dims())));
            }
            let (name, buf) = &mut buffers[idx];
            assert_eq!(
                name.as_str(),
                p.path,
                "parameter order changed between steps (buffer {idx})"
            );
            assert_eq!(
                buf.dims(),
                p.value.dims(),
                "parameter `{}` changed shape between steps",
                p.path
            );
            idx += 1;
            if frozen.contains(&p.role) {
                return;
            }
            let decay = if p.decay { wd } else { 0.0 };
            for ((v, g), b) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data().iter())
                .zip(buf.data_mut().iter_mut())
            {
                let eff = g + decay * *v;
                *b = momentum * *b + eff;
                *v -= lr * *b;
            }
        });
    }

    /// Captures the momentum buffers for persistence in a snapshot.
    pub fn export_state(&self) -> OptimState {
        OptimState::Sgd {
            buffers: self.buffers.clone(),
        }
    }

    /// Restores momentum buffers captured by [`Sgd::export_state`].
    ///
    /// # Errors
    ///
    /// [`OptimStateError`] when the state is for a different optimizer
    /// family, or a buffer's path or shape disagrees with ones already
    /// allocated.
    pub fn import_state(&mut self, state: OptimState) -> Result<(), OptimStateError> {
        match state {
            OptimState::Sgd { buffers } => {
                check_buffers(&self.buffers, &buffers)?;
                self.buffers = buffers;
                Ok(())
            }
            other => Err(OptimStateError::KindMismatch {
                state: other.kind(),
                optimizer: "sgd",
            }),
        }
    }
}

/// Adam optimizer (Kingma & Ba 2015) with decoupled-style selective
/// weight decay.
///
/// The CSQ paper trains with SGD over hundreds of thousands of steps; at
/// the reduced scale of this reproduction the bit-level logit gradients
/// (`∂W/∂m ∝ s·2^b/(2^n−1)`) are orders of magnitude smaller than float
/// weight gradients, and plain SGD cannot traverse the logit space in a
/// few hundred steps. Adam's per-parameter normalization removes that
/// scale disparity, so the fast benchmark configurations use Adam for
/// *every* method (FP, CSQ and all baselines alike — comparisons stay
/// fair). See DESIGN.md §2 for the substitution note.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    m: Vec<(String, Tensor)>,
    v: Vec<(String, Tensor)>,
}

impl Adam {
    /// Creates the optimizer with standard β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    ///
    /// Panics on negative hyperparameters.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr >= 0.0 && weight_decay >= 0.0);
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }

    /// Applies one Adam update to every parameter of `model`.
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.step_with_frozen(model, &[]);
    }

    /// Like [`Adam::step`], but parameters whose role appears in `frozen`
    /// are left untouched (value and moment buffers alike). The CSQ
    /// finetune phase freezes [`ParamRole::GateLogit`] this way.
    pub fn step_with_frozen(&mut self, model: &mut dyn Layer, frozen: &[ParamRole]) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if idx == ms.len() {
                ms.push((p.path.to_string(), Tensor::zeros(p.value.dims())));
                vs.push((p.path.to_string(), Tensor::zeros(p.value.dims())));
            }
            {
                let (name, buf) = &ms[idx];
                assert_eq!(
                    name.as_str(),
                    p.path,
                    "parameter order changed between steps (buffer {idx})"
                );
                assert_eq!(
                    buf.dims(),
                    p.value.dims(),
                    "parameter `{}` changed shape between steps",
                    p.path
                );
            }
            let cur = idx;
            idx += 1;
            if frozen.contains(&p.role) {
                return;
            }
            let decay = if p.decay { wd } else { 0.0 };
            let m = ms[cur].1.data_mut();
            let v = vs[cur].1.data_mut();
            for ((w, &g0), (mi, vi)) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data().iter())
                .zip(m.iter_mut().zip(v.iter_mut()))
            {
                let g = g0 + decay * *w;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }

    /// Captures the moments and step counter for persistence in a
    /// snapshot.
    pub fn export_state(&self) -> OptimState {
        OptimState::Adam {
            step_count: self.step_count,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`Adam::export_state`].
    ///
    /// # Errors
    ///
    /// [`OptimStateError`] when the state is for a different optimizer
    /// family, or a buffer's path or shape disagrees with ones already
    /// allocated.
    pub fn import_state(&mut self, state: OptimState) -> Result<(), OptimStateError> {
        match state {
            OptimState::Adam { step_count, m, v } => {
                check_buffers(&self.m, &m)?;
                check_buffers(&self.v, &v)?;
                self.step_count = step_count;
                self.m = m;
                self.v = v;
                Ok(())
            }
            other => Err(OptimStateError::KindMismatch {
                state: other.kind(),
                optimizer: "adam",
            }),
        }
    }
}

/// Cosine-annealing learning-rate schedule with optional linear warmup —
/// the schedule the paper uses for all experiments (initial LR 0.1,
/// 5-epoch linear warmup on ImageNet).
#[derive(Debug, Clone, Copy)]
pub struct CosineSchedule {
    base_lr: f32,
    warmup_epochs: usize,
    total_epochs: usize,
    min_lr: f32,
}

impl CosineSchedule {
    /// Creates a schedule annealing from `base_lr` to `min_lr = 0` over
    /// `total_epochs`, with `warmup_epochs` of linear ramp-up first.
    ///
    /// # Panics
    ///
    /// Panics if `total_epochs == 0` or `warmup_epochs >= total_epochs`.
    pub fn new(base_lr: f32, warmup_epochs: usize, total_epochs: usize) -> Self {
        assert!(total_epochs > 0, "schedule needs at least one epoch");
        assert!(
            warmup_epochs < total_epochs,
            "warmup must be shorter than the schedule"
        );
        CosineSchedule {
            base_lr,
            warmup_epochs,
            total_epochs,
            min_lr: 0.0,
        }
    }

    /// Learning rate for `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        if epoch < self.warmup_epochs {
            // Linear ramp from base_lr / warmup to base_lr.
            return self.base_lr * (epoch + 1) as f32 / self.warmup_epochs as f32;
        }
        let t =
            (epoch - self.warmup_epochs) as f32 / (self.total_epochs - self.warmup_epochs) as f32;
        self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::loss::softmax_cross_entropy;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimize ||W x - 0||² style objective through a Linear layer:
        // loss decreases monotonically-ish under plain SGD.
        let mut layer = Linear::with_float_weights(4, 3, 0);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::uniform(&[8, 4], -1.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..200 {
            let logits = layer.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            if it == 0 {
                first = loss;
            }
            last = loss;
            layer.zero_grads();
            layer.backward(&grad);
            opt.step(&mut layer);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn weight_decay_shrinks_weights_only() {
        let mut layer = Linear::with_float_weights(2, 2, 1);
        // Set bias to a known value; with zero grads and decay, weights
        // shrink but bias stays.
        layer.visit_params(&mut |p| {
            p.value.fill(1.0);
            p.grad.fill(0.0);
        });
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        opt.step(&mut layer);
        let mut vals = Vec::new();
        let mut decays = Vec::new();
        layer.visit_params(&mut |p| {
            vals.push(p.value.data()[0]);
            decays.push(p.decay);
        });
        assert!(decays[0]);
        assert!(!decays[1]);
        assert!((vals[0] - 0.95).abs() < 1e-6, "weight decayed");
        assert!((vals[1] - 1.0).abs() < 1e-6, "bias untouched");
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut layer = Linear::with_float_weights(1, 1, 2);
        layer.visit_params(&mut |p| {
            p.value.fill(0.0);
            p.grad.fill(1.0);
        });
        let mut opt = Sgd::new(1.0, 0.9, 0.0);
        opt.step(&mut layer); // v = 1, w = -1
        layer.visit_params(&mut |p| p.grad.fill(1.0));
        opt.step(&mut layer); // v = 1.9, w = -2.9
        let mut w = 0.0;
        let mut first = true;
        layer.visit_params(&mut |p| {
            if first {
                w = p.value.data()[0];
                first = false;
            }
        });
        assert!((w + 2.9).abs() < 1e-5, "w = {w}");
    }

    #[test]
    fn adam_descends() {
        let mut layer = Linear::with_float_weights(4, 3, 3);
        let mut opt = Adam::new(0.02, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = init::uniform(&[8, 4], -1.0, 1.0, &mut rng);
        let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..100 {
            let logits = layer.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            if it == 0 {
                first = loss;
            }
            last = loss;
            layer.zero_grads();
            layer.backward(&grad);
            opt.step(&mut layer);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn adam_normalizes_gradient_scales() {
        // Two parameters whose gradients differ by 1000x should move
        // nearly the same distance under Adam (unlike SGD).
        let mut layer = Linear::with_float_weights(2, 1, 5);
        layer.visit_params(&mut |p| p.value.fill(0.0));
        let mut opt = Adam::new(0.1, 0.0);
        for _ in 0..5 {
            let mut first = true;
            layer.visit_params(&mut |p| {
                if first {
                    p.grad.data_mut()[0] = 1000.0;
                    p.grad.data_mut()[1] = 1.0;
                    first = false;
                }
            });
            opt.step(&mut layer);
            layer.zero_grads();
        }
        let mut w = Vec::new();
        let mut first = true;
        layer.visit_params(&mut |p| {
            if first {
                w.extend_from_slice(p.value.data());
                first = false;
            }
        });
        let ratio = w[0] / w[1];
        assert!((ratio - 1.0).abs() < 0.1, "moves {w:?} should match");
    }

    #[test]
    fn adam_decay_only_on_decaying_params() {
        let mut layer = Linear::with_float_weights(2, 2, 6);
        layer.visit_params(&mut |p| {
            p.value.fill(1.0);
            p.grad.fill(0.0);
        });
        let mut opt = Adam::new(0.0, 0.5); // lr 0 => only decay path runs, but lr 0 means no movement
        opt.step(&mut layer);
        let mut vals = Vec::new();
        layer.visit_params(&mut |p| vals.push(p.value.data()[0]));
        // lr = 0 -> nothing moves even with decay.
        assert!((vals[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_schedule_shape() {
        let s = CosineSchedule::new(0.1, 0, 100);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-6);
        assert!(s.lr_at(50) < 0.06 && s.lr_at(50) > 0.04);
        assert!(s.lr_at(99) < 0.001);
        // Monotone decreasing without warmup.
        for e in 1..100 {
            assert!(s.lr_at(e) <= s.lr_at(e - 1) + 1e-7);
        }
    }

    #[test]
    fn warmup_ramps_linearly() {
        let s = CosineSchedule::new(0.1, 5, 100);
        assert!((s.lr_at(0) - 0.02).abs() < 1e-6);
        assert!((s.lr_at(4) - 0.1).abs() < 1e-6);
        assert!(s.lr_at(5) <= 0.1 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "warmup must be shorter")]
    fn bad_warmup_panics() {
        CosineSchedule::new(0.1, 10, 10);
    }

    #[test]
    fn optim_state_round_trips_sgd_and_adam() {
        // Two models stepped identically diverge unless the second one
        // imports the first one's optimizer state after a desync.
        let mut layer = Linear::with_float_weights(3, 2, 7);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        layer.visit_params(&mut |p| p.grad.fill(1.0));
        opt.step(&mut layer);
        let state = opt.export_state();
        let mut fresh = Sgd::new(0.1, 0.9, 0.0);
        fresh.import_state(state.clone()).unwrap();
        assert_eq!(fresh.export_state(), state);

        let mut adam = Adam::new(0.01, 0.0);
        layer.visit_params(&mut |p| p.grad.fill(1.0));
        adam.step(&mut layer);
        let astate = adam.export_state();
        let mut fresh_adam = Adam::new(0.01, 0.0);
        fresh_adam.import_state(astate.clone()).unwrap();
        assert_eq!(fresh_adam.export_state(), astate);

        // Cross-family import is rejected.
        let err = fresh_adam.import_state(state).unwrap_err();
        assert!(matches!(err, OptimStateError::KindMismatch { .. }));
        assert!(err.to_string().contains("sgd"));
    }

    #[test]
    fn optim_state_import_rejects_shape_mismatch() {
        let mut small = Linear::with_float_weights(2, 2, 8);
        let mut big = Linear::with_float_weights(5, 5, 9);
        let mut opt_small = Sgd::new(0.1, 0.9, 0.0);
        let mut opt_big = Sgd::new(0.1, 0.9, 0.0);
        small.visit_params(&mut |p| p.grad.fill(1.0));
        big.visit_params(&mut |p| p.grad.fill(1.0));
        opt_small.step(&mut small);
        opt_big.step(&mut big);
        let err = opt_small.import_state(opt_big.export_state()).unwrap_err();
        assert_eq!(
            err,
            OptimStateError::ShapeMismatch {
                path: "weight".to_string(),
                existing: vec![2, 2],
                imported: vec![5, 5],
            }
        );
    }

    #[test]
    fn shape_mismatch_display_names_parameter_and_both_shapes() {
        let err = OptimStateError::ShapeMismatch {
            path: "4.main.0.weight".to_string(),
            existing: vec![16, 16, 3, 3],
            imported: vec![32, 16, 3, 3],
        };
        let msg = err.to_string();
        assert!(msg.contains("4.main.0.weight"), "{msg}");
        assert!(msg.contains("[16, 16, 3, 3]"), "{msg}");
        assert!(msg.contains("[32, 16, 3, 3]"), "{msg}");
    }

    #[test]
    fn path_mismatch_display_names_both_paths() {
        let err = OptimStateError::PathMismatch {
            index: 3,
            existing: "0.weight".to_string(),
            imported: "0.bias".to_string(),
        };
        let msg = err.to_string();
        assert!(msg.contains("0.weight") && msg.contains("0.bias"), "{msg}");
    }

    #[test]
    fn optim_state_import_rejects_path_mismatch() {
        let mut a = Linear::with_float_weights(2, 2, 8);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        a.visit_params(&mut |p| p.grad.fill(1.0));
        opt.step(&mut a);
        let mut renamed = opt.export_state();
        if let OptimState::Sgd { buffers } = &mut renamed {
            buffers[0].0 = "somewhere.else".to_string();
        }
        let err = opt.import_state(renamed).unwrap_err();
        assert!(matches!(
            err,
            OptimStateError::PathMismatch { index: 0, .. }
        ));
    }

    #[test]
    fn frozen_roles_are_skipped_by_step() {
        use crate::layer::ParamRole;
        let mut layer = Linear::with_float_weights(2, 2, 10);
        layer.visit_params(&mut |p| {
            p.value.fill(1.0);
            p.grad.fill(1.0);
        });
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        // Bias frozen: weight moves, bias stays put.
        opt.step_with_frozen(&mut layer, &[ParamRole::Bias]);
        let mut vals = Vec::new();
        layer.visit_params(&mut |p| vals.push((p.role, p.value.data()[0])));
        for (role, v) in vals {
            if role == ParamRole::Bias {
                assert!((v - 1.0).abs() < 1e-6, "frozen bias moved to {v}");
            } else {
                assert!((v - 0.9).abs() < 1e-6, "weight should step to 0.9, got {v}");
            }
        }
    }
}
