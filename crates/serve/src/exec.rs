//! Compiled inference executor: binds an exported op plan to packed
//! weights and calibrated activation steps, then runs batched forwards.
//!
//! A [`CompiledModel`] is immutable after construction, so a serving
//! engine can share one instance across worker threads behind an `Arc`.
//! Two execution modes exist over the same plan:
//!
//! * **Integer mode** ([`CompiledModel::forward_batch`]) — the deployment
//!   path. The input to each weighted op is quantized to signed codes in
//!   ±255 with that op's *calibrated* step, and every conv (dense,
//!   grouped or depthwise) and linear op, the stem included, runs the one
//!   exact integer kernel: each sample's codes are copied once into a
//!   channels-last `i16` plane, read at every tap against weight panels
//!   packed once at bind time as an [`IntegerWeight`] (8 output channels
//!   per vector), exact `i32`/`i64` sums, one float scale per output.
//!   Nothing is selected per op or per request.
//! * **Float mode** ([`CompiledModel::forward_float`]) — the reference
//!   path used by calibration and accuracy-parity checks: identical
//!   dataflow, unpacked (bit-exact) weights, no activation quantization.
//!
//! Every kernel in both modes processes samples independently with a
//! fixed accumulation order, and the calibrated steps are constants, so
//! a batched forward is bit-identical to running each sample alone —
//! the property the engine's micro-batching relies on.

use csq_core::qinfer::{
    conv2d_integer, linear_integer, uniform_act_quant, IntegerWeight, QinferError,
    QuantizedActivations,
};
use csq_core::PackedWeight;
use csq_nn::InferOp;
use csq_tensor::conv::{conv2d, ConvSpec};
use csq_tensor::par::ScratchPool;
use csq_tensor::{pool, Tensor};
use std::collections::HashMap;
use std::time::Instant;

/// Why a serving request could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Request tensor shape does not match the model's input shape.
    BadInput {
        /// Shape the model expects (per sample, no batch axis).
        expected: Vec<usize>,
        /// Shape actually submitted.
        actual: Vec<usize>,
    },
    /// The bounded submission queue is at capacity; the request was
    /// load-shed. Retry with backoff.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request ran out of time: its deadline passed before the
    /// engine produced an answer (either while waiting in the queue —
    /// workers skip already-expired requests before running the kernel
    /// — or while the caller blocked in `Ticket::wait`).
    DeadlineExceeded,
    /// Admission control turned the request away: the tenant's
    /// token-bucket quota is exhausted. Retry after the bucket refills.
    RateLimited {
        /// The tenant whose quota was exhausted.
        tenant: String,
    },
    /// The worker executing this request's batch panicked or died.
    /// Only the tickets of that batch fail; the supervisor restarts the
    /// worker and the engine keeps serving. Distinct from [`Closed`]:
    /// the engine is still running and the request may be resubmitted.
    ///
    /// [`Closed`]: ServeError::Closed
    WorkerFailed {
        /// Human-readable description of the failure (panic payload,
        /// or a note that the reply channel disconnected).
        detail: String,
    },
    /// A replacement model offered to `Engine::swap_model` does not
    /// match the serving contract of the model currently deployed.
    SwapIncompatible {
        /// Input shape and class count the engine is serving.
        expected: (Vec<usize>, usize),
        /// Input shape and class count of the rejected replacement.
        actual: (Vec<usize>, usize),
    },
    /// The engine has shut down and no longer accepts or answers work.
    Closed,
    /// An integer kernel rejected its operands (plan/weight corruption —
    /// cannot happen for a well-formed artifact).
    Kernel(QinferError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadInput { expected, actual } => {
                write!(
                    f,
                    "input shape {actual:?} does not match model input {expected:?}"
                )
            }
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} pending requests)")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before an answer was produced")
            }
            ServeError::RateLimited { tenant } => {
                write!(f, "tenant `{tenant}` is over its admission quota")
            }
            ServeError::WorkerFailed { detail } => {
                write!(f, "worker executing the batch failed: {detail}")
            }
            ServeError::SwapIncompatible { expected, actual } => write!(
                f,
                "replacement model (input {:?}, {} classes) does not match the serving \
                 contract (input {:?}, {} classes)",
                actual.0, actual.1, expected.0, expected.1
            ),
            ServeError::Closed => write!(f, "engine is shut down"),
            ServeError::Kernel(e) => write!(f, "integer kernel error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QinferError> for ServeError {
    fn from(e: QinferError) -> Self {
        ServeError::Kernel(e)
    }
}

/// One executable op bound to its weight slot.
#[derive(Debug, Clone)]
enum BoundOp {
    /// A conv whose `[OC, IC/G, K, K]` weight and input `bind` checked
    /// against each other; the kernels read the group count `G` off the
    /// dims.
    Conv {
        widx: usize,
        spec: ConvSpec,
        bias: Option<Tensor>,
        step: f32,
    },
    Linear {
        widx: usize,
        bias: Option<Tensor>,
        step: f32,
    },
    ChannelAffine {
        scale: Vec<f32>,
        shift: Vec<f32>,
    },
    Relu,
    UniformActQuant {
        range: f32,
        levels: f32,
    },
    MaxPool {
        window: usize,
        stride: usize,
    },
    AvgPool {
        window: usize,
        stride: usize,
    },
    GlobalAvgPool,
    Flatten,
    Identity,
    Residual {
        main: Vec<BoundOp>,
        shortcut: Vec<BoundOp>,
        post: Vec<BoundOp>,
    },
}

/// A packed weight plus its exact float reconstruction (for the float
/// reference path) and its integer-kernel panels, both built once at
/// bind time.
#[derive(Debug, Clone)]
struct BoundWeight {
    packed: PackedWeight,
    float: Tensor,
    integer: IntegerWeight,
}

/// Why an op plan could not be bound to weights/calibration.
#[derive(Debug, Clone, PartialEq)]
pub enum BindError {
    /// A weighted op references a path with no packed weight.
    MissingWeight {
        /// The weight path the op referenced.
        path: String,
    },
    /// A weighted op has no calibration entry (artifact assembled
    /// without running calibration).
    MissingCalibration {
        /// The weight path of the uncalibrated op.
        path: String,
    },
    /// A weight's codes cannot be bound: their count disagrees with the
    /// dims, the weight has no reduction axis, or a code is wider than
    /// the integer kernel's `i16` operand.
    Codes {
        /// The weight path.
        path: String,
        /// Why binding failed.
        error: QinferError,
    },
    /// An op does not fit the dims one sample reaches it with, its
    /// weight or its own fields, or the plan does not end in
    /// `[num_classes]`: found by walking one sample's dims from
    /// `input_dims` through the plan.
    Shape {
        /// The op's plan path, e.g. `ops[5].Residual.main[0]` (`ops` for
        /// an empty plan).
        op: String,
        /// A conv's or linear op's weight path; a residual block's first
        /// main-branch weight.
        weight: Option<String>,
        /// What does not fit.
        reason: String,
    },
    /// An op's own value is one no kernel takes: a calibration step, or
    /// an act-quant range or level count, that is not positive and
    /// finite, or a conv padding not smaller than its kernel. The
    /// `.csqm` decoders refuse the same values in a file; this catches
    /// an artifact built in memory.
    Field {
        /// The op's plan path, e.g. `ops[2]`.
        op: String,
        /// A conv's or linear op's weight path.
        weight: Option<String>,
        /// Which value, and why it is refused.
        reason: String,
    },
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::MissingWeight { path } => {
                write!(
                    f,
                    "op references weight `{path}` but the artifact has no such tensor"
                )
            }
            BindError::MissingCalibration { path } => {
                write!(f, "weighted op `{path}` has no calibrated activation step")
            }
            BindError::Codes { path, error } => {
                write!(f, "weight `{path}` cannot be bound: {error}")
            }
            BindError::Shape { op, weight, reason } | BindError::Field { op, weight, reason } => {
                match weight {
                    Some(w) => write!(f, "op `{op}` (weight `{w}`): {reason}"),
                    None => write!(f, "op `{op}`: {reason}"),
                }
            }
        }
    }
}

impl std::error::Error for BindError {}

/// An immutable, executable model: exported op plan bound to packed
/// weights and calibrated activation steps. Shareable across threads
/// (`Arc<CompiledModel>`); all forwards take `&self`.
#[derive(Debug)]
pub struct CompiledModel {
    name: String,
    input_dims: Vec<usize>,
    num_classes: usize,
    plan: Vec<BoundOp>,
    weights: Vec<BoundWeight>,
}

impl CompiledModel {
    /// Binds `ops` to `weights`, with per-weighted-op activation steps
    /// looked up in `calibration` (weight path → step).
    /// `calibration = None` binds every step to 1: an *uncalibrated*
    /// model whose integer forward would answer on the wrong grids.
    /// [`crate::ModelArtifact::export`] binds one for calibration's float
    /// pass and drops it; nothing serves it.
    ///
    /// Binding is where a plan's shapes are checked
    /// ([`BindError::Shape`]); the request path trusts them.
    pub(crate) fn bind(
        name: String,
        input_dims: Vec<usize>,
        num_classes: usize,
        ops: &[InferOp],
        packed: &[PackedWeight],
        calibration: Option<&HashMap<String, f32>>,
    ) -> Result<CompiledModel, BindError> {
        let mut weights = Vec::with_capacity(packed.len());
        for p in packed {
            let codes_error = |error| BindError::Codes {
                path: p.path.clone(),
                error,
            };
            // A damaged artifact can carry a code count that disagrees
            // with the dims; `unpack` requires them to agree.
            let expected = p.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if expected != Some(p.codes.len()) {
                return Err(codes_error(QinferError::CodeCountMismatch {
                    what: "weights",
                    expected: expected.unwrap_or(usize::MAX),
                    actual: p.codes.len(),
                }));
            }
            // Packed into its GEMM form once, here — never on the
            // request path.
            weights.push(BoundWeight {
                integer: IntegerWeight::from_packed(p).map_err(codes_error)?,
                float: p.unpack(),
                packed: p.clone(),
            });
        }
        let by_path: HashMap<&str, (usize, &[usize])> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (w.packed.path.as_str(), (i, &w.packed.dims[..])))
            .collect();
        let (plan, out) = bind_ops(ops, "ops", input_dims.clone(), &by_path, calibration)?;
        if num_classes == 0 || out != [num_classes] {
            let last = ops.len().checked_sub(1);
            return Err(BindError::Shape {
                op: last.map_or("ops".to_string(), |i| format!("ops[{i}]")),
                weight: ops.last().and_then(weight_of).map(str::to_string),
                reason: format!("the plan gives {out:?} per sample, not the {num_classes} classes"),
            });
        }
        Ok(CompiledModel {
            name,
            input_dims,
            num_classes,
            plan,
            weights,
        })
    }

    /// Model name recorded in the artifact.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-sample input shape (no batch axis), e.g. `[3, 16, 16]`.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Number of output classes (length of each returned logit row).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The kernel class of every weighted op, in execution order: the
    /// integer kernel, at every batch size.
    pub fn kernel_plan(&self, _batch: usize) -> Vec<KernelPlanEntry> {
        weighted_ops(&self.plan)
            .into_iter()
            .map(|(op, widx)| KernelPlanEntry {
                path: self.weights[widx].packed.path.clone(),
                op,
                class: "integer",
            })
            .collect()
    }

    /// Validates a batched input `[N, C, H, W]` against the model's
    /// per-sample shape.
    fn check_batch(&self, x: &Tensor) -> Result<(), ServeError> {
        let ok = x.rank() == self.input_dims.len() + 1
            && x.dims()[1..] == self.input_dims[..]
            && x.dims()[0] > 0;
        if ok {
            Ok(())
        } else {
            Err(ServeError::BadInput {
                expected: self.input_dims.clone(),
                actual: x.dims().to_vec(),
            })
        }
    }

    /// Deployment forward: every weighted op on the integer kernel with
    /// its calibrated activation grid. `x` is `[N, C, H, W]`; returns
    /// logits `[N, num_classes]`. `scratch` recycles the activation-code
    /// buffers and the integer conv's planes — engine workers own one
    /// pool each.
    ///
    /// Per-sample kernels plus fixed calibrated grids make the result
    /// bit-identical for any batching of the same samples.
    pub fn forward_batch(
        &self,
        x: &Tensor,
        scratch: &ScratchPool<i16>,
    ) -> Result<Tensor, ServeError> {
        self.run(x, scratch, true, None)
    }

    /// Reference forward: identical dataflow on unpacked weights with no
    /// activation quantization. Used by calibration and accuracy-parity
    /// checks.
    pub fn forward_float(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        self.run(x, &ScratchPool::new(), false, None)
    }

    /// Float forward that also reports, for every weighted op, the
    /// minimum and maximum of the activation tensor entering it
    /// (`observer(weight_path, lo, hi)`). The calibration pass drives
    /// this over a sample set.
    pub(crate) fn forward_observe(
        &self,
        x: &Tensor,
        observer: &mut dyn FnMut(&str, f32, f32),
    ) -> Result<Tensor, ServeError> {
        let weights = &self.weights;
        let mut by_index = |widx: usize, lo: f32, hi: f32| {
            observer(&weights[widx].packed.path, lo, hi);
        };
        self.run(x, &ScratchPool::new(), false, Some(&mut by_index))
    }

    /// Checks `x` against the input shape and runs the plan on it.
    fn run(
        &self,
        x: &Tensor,
        scratch: &ScratchPool<i16>,
        integer: bool,
        observer: Option<&mut Observer<'_>>,
    ) -> Result<Tensor, ServeError> {
        self.check_batch(x)?;
        let weights = &self.weights;
        let ctx = ExecCtx {
            weights,
            scratch,
            integer,
        };
        run_ops(&ctx, &self.plan, x.clone(), observer)
    }
}

/// One weighted op's kernel class, as reported by
/// [`CompiledModel::kernel_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlanEntry {
    /// Stable weight path of the op.
    pub path: String,
    /// Op kind: `conv2d` (dense, grouped or depthwise) or `linear`.
    pub op: &'static str,
    /// Kernel class: `integer`, the integer kernel, for every op.
    pub class: &'static str,
}

/// Every weighted op of a plan in execution order (a residual block's
/// main branch, then its shortcut, then its post ops): op kind and
/// weight index.
fn weighted_ops(plan: &[BoundOp]) -> Vec<(&'static str, usize)> {
    let mut out = Vec::new();
    for op in plan {
        match op {
            BoundOp::Conv { widx, .. } => out.push(("conv2d", *widx)),
            BoundOp::Linear { widx, .. } => out.push(("linear", *widx)),
            BoundOp::Residual {
                main,
                shortcut,
                post,
            } => {
                out.extend(weighted_ops(main));
                out.extend(weighted_ops(shortcut));
                out.extend(weighted_ops(post));
            }
            _ => {}
        }
    }
    out
}

fn lookup_step(path: &str, calibration: Option<&HashMap<String, f32>>) -> Result<f32, BindError> {
    match calibration {
        None => Ok(1.0),
        Some(table) => table
            .get(path)
            .copied()
            .ok_or_else(|| BindError::MissingCalibration {
                path: path.to_string(),
            }),
    }
}

/// Whether a conv weight of `dims` is `[out_c, in_c/G, kernel, kernel]`
/// for a group count `G = in_c / dims[1]` that divides both channel
/// counts.
fn conv_fits(dims: &[usize], in_c: usize, out_c: usize, kernel: usize) -> bool {
    let &[oc, group_in, kh, kw] = dims else {
        return false;
    };
    let groups = in_c.checked_div(group_in).unwrap_or(0);
    groups > 0
        && groups * group_in == in_c
        && oc == out_c
        && out_c.is_multiple_of(groups)
        && kh == kernel
        && kw == kernel
}

/// The weight path of a conv or linear op.
fn weight_of(op: &InferOp) -> Option<&str> {
    match op {
        InferOp::Conv2d { weight, .. } | InferOp::Linear { weight, .. } => Some(weight),
        _ => None,
    }
}

/// Binds the op list at plan path `at` (`ops`, `ops[5].Residual.main`),
/// walking one sample's dims through it: `dims` enter the list, and the
/// dims leaving it come back with the bound ops.
fn bind_ops(
    ops: &[InferOp],
    at: &str,
    mut dims: Vec<usize>,
    by_path: &HashMap<&str, (usize, &[usize])>,
    steps: Option<&HashMap<String, f32>>,
) -> Result<(Vec<BoundOp>, Vec<usize>), BindError> {
    let mut plan = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let path = format!("{at}[{i}]");
        let weight = match op {
            InferOp::Residual { main, .. } => main.iter().find_map(weight_of),
            _ => weight_of(op),
        };
        let misfit = |reason| BindError::Shape {
            op: path.clone(),
            weight: weight.map(str::to_string),
            reason,
        };
        let refused = |reason| BindError::Field {
            op: path.clone(),
            weight: weight.map(str::to_string),
            reason,
        };
        let positive = |v: f32| v.is_finite() && v > 0.0;
        // A weighted op's calibrated step, one the codes can use.
        let step = |w: &str| match lookup_step(w, steps)? {
            s if positive(s) => Ok(s),
            s => Err(refused(format!(
                "calibration step {s} must be positive and finite"
            ))),
        };
        if dims.contains(&0) {
            return Err(misfit(format!("it is reached by {dims:?}, a zero dim")));
        }
        let (widx, wdims) = match weight_of(op) {
            Some(w) => *by_path.get(w).ok_or_else(|| BindError::MissingWeight {
                path: w.to_string(),
            })?,
            None => (0, &[][..]),
        };
        // The extents of a `k`-wide window at stride `s` over `h` and `w`
        // padded by `p`, checked before `ConvSpec::new` sees `k` and `s`.
        let slide = |h: usize, w: usize, k: usize, s: usize, p: usize| {
            let out = |n: usize| {
                let n = n.saturating_add(p.saturating_mul(2));
                (k > 0 && s > 0 && n >= k).then(|| (n - k) / s + 1)
            };
            let why = || misfit(format!("window {k}, stride {s}, pad {p} misses {dims:?}"));
            out(h).zip(out(w)).ok_or_else(why)
        };
        let bias = |b: &Option<Vec<f32>>, n: usize| match b {
            Some(b) if b.len() != n => Err(misfit(format!("{} bias values for {n}", b.len()))),
            _ => Ok(b.as_ref().map(|b| Tensor::from_vec(b.clone(), &[n]))),
        };
        let branch = |ops, name, dims| {
            let at = format!("{path}.Residual.{name}");
            bind_ops(ops, &at, dims, by_path, steps)
        };
        let (bound, out) = match op {
            &InferOp::Conv2d {
                kernel, padding, ..
            } if padding >= kernel => {
                let why = format!("padding {padding} must be smaller than the kernel ({kernel})");
                return Err(refused(why));
            }
            InferOp::Conv2d {
                in_channels: ic,
                out_channels: oc,
                kernel: k,
                ..
            } if !conv_fits(wdims, *ic, *oc, *k) => {
                return Err(misfit(format!(
                    "weight dims {wdims:?} fit no grouping of {ic} input and {oc} output \
                     channels with a {k}x{k} kernel"
                )));
            }
            InferOp::Conv2d {
                weight,
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                bias: b,
            } if dims.len() == 3 && dims[0] == *in_channels => {
                let (oh, ow) = slide(dims[1], dims[2], *kernel, *stride, *padding)?;
                let bound = BoundOp::Conv {
                    widx,
                    spec: ConvSpec::new(*kernel, *stride, *padding),
                    bias: bias(b, *out_channels)?,
                    step: step(weight)?,
                };
                (bound, vec![*out_channels, oh, ow])
            }
            InferOp::Linear {
                in_features: i,
                out_features: o,
                ..
            } if wdims != [*o, *i] => {
                return Err(misfit(format!("weight dims {wdims:?} are not [{o}, {i}]")));
            }
            InferOp::Linear {
                weight,
                in_features,
                out_features,
                bias: b,
            } if dims == [*in_features] => {
                let (bias, step) = (bias(b, *out_features)?, step(weight)?);
                (BoundOp::Linear { widx, bias, step }, vec![*out_features])
            }
            InferOp::ChannelAffine { scale, shift } if scale.len() != shift.len() => {
                let (a, b) = (scale.len(), shift.len());
                return Err(misfit(format!("{a} scales and {b} shifts")));
            }
            InferOp::ChannelAffine { scale, shift }
                if dims.len() == 3 && dims[0] == scale.len() =>
            {
                let (scale, shift) = (scale.clone(), shift.clone());
                (BoundOp::ChannelAffine { scale, shift }, dims.clone())
            }
            InferOp::Relu => (BoundOp::Relu, dims.clone()),
            &InferOp::UniformActQuant { range, levels }
                if !(positive(range) && positive(levels)) =>
            {
                let why = format!(
                    "act-quant range {range} and levels {levels} must be positive and finite"
                );
                return Err(refused(why));
            }
            &InferOp::UniformActQuant { range, levels } => {
                (BoundOp::UniformActQuant { range, levels }, dims.clone())
            }
            &InferOp::MaxPool { window, stride } if dims.len() == 3 => {
                let (oh, ow) = slide(dims[1], dims[2], window, stride, 0)?;
                (BoundOp::MaxPool { window, stride }, vec![dims[0], oh, ow])
            }
            &InferOp::AvgPool { window, stride } if dims.len() == 3 => {
                let (oh, ow) = slide(dims[1], dims[2], window, stride, 0)?;
                (BoundOp::AvgPool { window, stride }, vec![dims[0], oh, ow])
            }
            InferOp::GlobalAvgPool if dims.len() == 3 => (BoundOp::GlobalAvgPool, vec![dims[0]]),
            InferOp::Flatten => {
                let n = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                let n = n.ok_or_else(|| misfit(format!("{dims:?} has too many values")))?;
                (BoundOp::Flatten, vec![n])
            }
            InferOp::Identity => (BoundOp::Identity, dims.clone()),
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => {
                let (main, m) = branch(main, "main", dims.clone())?;
                let (shortcut, s) = branch(shortcut, "shortcut", dims.clone())?;
                if m != s {
                    return Err(misfit(format!("main branch gives {m:?}, shortcut {s:?}")));
                }
                let (post, out) = branch(post, "post", m)?;
                let bound = BoundOp::Residual {
                    main,
                    shortcut,
                    post,
                };
                (bound, out)
            }
            _ => return Err(misfit(format!("it does not take {dims:?}"))),
        };
        plan.push(bound);
        dims = out;
    }
    Ok((plan, dims))
}

/// Reports the minimum and maximum of the activation tensor entering
/// weighted op `widx` to the calibration observer. Request-path forwards
/// pass no observer and skip the scan.
fn observe(observer: &mut Option<&mut Observer<'_>>, widx: usize, x: &Tensor) {
    if let Some(obs) = observer {
        let (lo, hi) = x
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        obs(widx, lo, hi);
    }
}

/// The calibration observer: `(weight index, input min, input max)` per
/// weighted op.
type Observer<'a> = dyn FnMut(usize, f32, f32) + 'a;

/// Profiler metadata for one op: the kind label, the kernel class, and
/// the bytes of weight data it reads. `None` for ops that cost nothing
/// worth attributing (`Flatten`, `Identity`) and for `Residual`, whose
/// inner ops are recorded individually by the recursive [`run_ops`]
/// calls.
fn profile_meta(
    op: &BoundOp,
    weights: &[BoundWeight],
    integer: bool,
) -> Option<(&'static str, &'static str, u64)> {
    // Weight bytes actually read: the integer kernel its `i16` panels, the
    // float reference the unpacked `f32` weight.
    let weighted = |kind: &'static str, widx: &usize| {
        let w = &weights[*widx];
        Some(if integer {
            (kind, "integer", w.integer.code_bytes() as u64)
        } else {
            (kind, "float", (w.float.numel() * size_of::<f32>()) as u64)
        })
    };
    let float = |kind: &'static str| Some((kind, "float", 0));
    match op {
        BoundOp::Conv { widx, .. } => weighted("conv2d", widx),
        BoundOp::Linear { widx, .. } => weighted("linear", widx),
        BoundOp::ChannelAffine { .. } => float("channel_affine"),
        BoundOp::Relu => float("relu"),
        BoundOp::UniformActQuant { .. } => float("act_quant"),
        BoundOp::MaxPool { .. } => float("maxpool2d"),
        BoundOp::AvgPool { .. } => float("avgpool2d"),
        BoundOp::GlobalAvgPool => float("global_avgpool"),
        BoundOp::Flatten | BoundOp::Identity | BoundOp::Residual { .. } => None,
    }
}

/// Quantizes `x` onto the op's calibrated grid, runs the integer kernel
/// `kernel` on the codes with the weight's panels, and recycles the
/// code buffer.
fn on_codes(
    x: &Tensor,
    step: f32,
    w: &BoundWeight,
    scratch: &ScratchPool<i16>,
    kernel: impl FnOnce(&QuantizedActivations, &IntegerWeight) -> Result<Tensor, QinferError>,
) -> Result<Tensor, ServeError> {
    let q = QuantizedActivations::quantize_with_step_into(x, step, scratch.take(x.numel()))?;
    let y = kernel(&q, &w.integer);
    scratch.give(q.codes);
    Ok(y?)
}

/// Everything a forward pass threads through the op loop unchanged:
/// the bound weights, the caller's scratch pool (code buffers and conv
/// planes), and whether weighted ops run on the integer kernel (`false`
/// = the float reference path).
struct ExecCtx<'a> {
    weights: &'a [BoundWeight],
    scratch: &'a ScratchPool<i16>,
    integer: bool,
}

/// Runs a plan: each weighted op takes the integer kernel in an integer
/// forward, else the exact float path on the unpacked weight.
fn run_ops(
    ctx: &ExecCtx<'_>,
    plan: &[BoundOp],
    mut x: Tensor,
    mut observer: Option<&mut Observer<'_>>,
) -> Result<Tensor, ServeError> {
    let profiler = csq_obs::profiler::global();
    let (weights, scratch, integer) = (ctx.weights, ctx.scratch, ctx.integer);
    for op in plan {
        // Kernel profiling (off by default; the disabled check is one
        // relaxed atomic load). Input shape is captured before the op
        // consumes `x`; bytes = input + output activations + weights.
        let prof = if profiler.enabled() {
            profile_meta(op, weights, integer).map(|(kind, class, wbytes)| {
                (
                    kind,
                    class,
                    wbytes,
                    x.dims().to_vec(),
                    x.numel(),
                    Instant::now(),
                )
            })
        } else {
            None
        };
        x = match op {
            BoundOp::Conv {
                widx,
                spec,
                bias,
                step,
            } => {
                observe(&mut observer, *widx, &x);
                let w = &weights[*widx];
                let y = if integer {
                    on_codes(&x, *step, w, scratch, |q, iw| {
                        conv2d_integer(q, iw, *spec, scratch)
                    })?
                } else {
                    conv2d(&x, &w.float, *spec)
                };
                match bias {
                    Some(b) => y.add_channel_bias(b),
                    None => y,
                }
            }
            BoundOp::Linear { widx, bias, step } => {
                observe(&mut observer, *widx, &x);
                let w = &weights[*widx];
                let y = if integer {
                    on_codes(&x, *step, w, scratch, linear_integer)?
                } else {
                    x.matmul_nt(&w.float)
                };
                match bias {
                    Some(b) => y.add_row_bias(b),
                    None => y,
                }
            }
            BoundOp::ChannelAffine { scale, shift } => {
                let (c, hw) = (scale.len(), x.dims()[2] * x.dims()[3]);
                let mut y = x;
                for (i, chunk) in y.data_mut().chunks_mut(hw).enumerate() {
                    let ci = i % c;
                    let (s, b) = (scale[ci], shift[ci]);
                    for v in chunk.iter_mut() {
                        *v = *v * s + b;
                    }
                }
                y
            }
            BoundOp::Relu => {
                let mut y = x;
                y.map_inplace(|v| v.max(0.0));
                y
            }
            BoundOp::UniformActQuant { range, levels } => {
                let mut y = x;
                uniform_act_quant(&mut y, *range, *levels)?;
                y
            }
            BoundOp::MaxPool { window, stride } => pool::maxpool2d(&x, *window, *stride).output,
            BoundOp::AvgPool { window, stride } => pool::avgpool2d(&x, *window, *stride),
            BoundOp::GlobalAvgPool => pool::global_avgpool(&x),
            BoundOp::Flatten => {
                let n = x.dims()[0];
                let rest = x.numel() / n.max(1);
                x.reshape(&[n, rest])
            }
            BoundOp::Identity => x,
            BoundOp::Residual {
                main,
                shortcut,
                post,
            } => {
                let m = run_ops(ctx, main, x.clone(), observer.as_deref_mut())?;
                let s = if shortcut.is_empty() {
                    x
                } else {
                    run_ops(ctx, shortcut, x, observer.as_deref_mut())?
                };
                let mut merged = m;
                merged.add_assign_t(&s);
                run_ops(ctx, post, merged, observer.as_deref_mut())?
            }
        };
        if let Some((kind, class, wbytes, in_dims, in_numel, start)) = prof {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let act_bytes = ((in_numel + x.numel()) * std::mem::size_of::<f32>()) as u64;
            profiler.record(
                kind,
                class,
                "dense",
                &csq_obs::profiler::shape_key(&in_dims),
                wall_ns,
                act_bytes + wbytes,
            );
        }
    }
    Ok(x)
}
