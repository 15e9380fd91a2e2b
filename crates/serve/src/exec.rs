//! Compiled inference executor: binds an exported op plan to packed
//! weights and calibrated activation steps, then runs batched forwards.
//!
//! A [`CompiledModel`] is immutable after construction, so a serving
//! engine can share one instance across worker threads behind an `Arc`.
//! Two execution modes exist over the same plan:
//!
//! * **Integer mode** ([`CompiledModel::forward_batch`]) — the deployment
//!   path. Binding compiles every conv (dense, grouped or depthwise) and
//!   linear op, the stem included, into one [`IntegerOp`]: its weight
//!   packed into panels for the one exact integer kernel (8 output
//!   channels per vector), the per-sample dims that reach it, its plane
//!   layout and its *calibrated* step. A request then only quantizes each
//!   op's input to signed codes in ±255, copies each sample's codes once
//!   into a channels-last `i16` plane and runs the kernel: exact
//!   `i32`/`i64` sums, one float scale per output. Nothing is checked,
//!   planned or selected per op or per request.
//! * **Float mode** ([`CompiledModel::forward_float`]) — the reference
//!   path used by calibration and accuracy-parity checks: identical
//!   dataflow, unpacked (bit-exact) weights, no activation quantization.
//!
//! Every kernel in both modes processes samples independently with a
//! fixed accumulation order, and the calibrated steps are constants, so
//! a batched forward is bit-identical to running each sample alone —
//! the property the engine's micro-batching relies on.

use csq_core::qinfer::{uniform_act_quant, IntegerOp, IntegerWeight, QinferError};
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
        }
    }
}

impl std::error::Error for ServeError {}

/// One executable op, as `bind` checked it.
#[derive(Debug)]
enum BoundOp {
    /// A conv, dense, grouped or depthwise; the float reference reads its
    /// spec.
    Conv(Weighted, ConvSpec),
    Linear(Weighted),
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

/// A conv's or linear op's weight in the form each forward reads, built
/// once, at bind, and its bias.
#[derive(Debug)]
struct Weighted {
    /// The weight's path in the artifact.
    path: String,
    /// The op compiled for the integer kernel, on the dims that reach it.
    integer: IntegerOp,
    /// The weight's grid values `code·step`, for the float reference.
    float: Tensor,
    bias: Option<Tensor>,
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
    /// ([`BindError::Shape`]) and where each conv and linear op is
    /// compiled for the integer kernel on the dims that reach it; the
    /// request path trusts them.
    pub(crate) fn bind(
        name: String,
        input_dims: Vec<usize>,
        num_classes: usize,
        ops: &[InferOp],
        packed: &[PackedWeight],
        calibration: Option<&HashMap<String, f32>>,
    ) -> Result<CompiledModel, BindError> {
        // Every weight in the artifact is packed, and so checked, here,
        // whether an op reads it or not.
        let mut by_path = HashMap::with_capacity(packed.len());
        for p in packed {
            let integer = IntegerWeight::from_packed(p).map_err(|error| BindError::Codes {
                path: p.path.clone(),
                error,
            })?;
            by_path.insert(p.path.as_str(), (p, integer));
        }
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
            .map(|(op, path)| KernelPlanEntry {
                path: path.to_string(),
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

    /// Deployment forward: every weighted op on its compiled integer op,
    /// with its calibrated activation grid. `x` is `[N, C, H, W]`;
    /// returns logits `[N, num_classes]`. Fails only with
    /// [`ServeError::BadInput`]. `scratch` recycles the activation-code
    /// buffers and the planes — engine workers own one pool each.
    ///
    /// Per-sample kernels plus fixed calibrated grids make the result
    /// bit-identical for any batching of the same samples.
    pub fn forward_batch(
        &self,
        x: &Tensor,
        scratch: &ScratchPool<i16>,
    ) -> Result<Tensor, ServeError> {
        self.run(x, Some(scratch), None)
    }

    /// Reference forward: identical dataflow on unpacked weights with no
    /// activation quantization. Used by calibration and accuracy-parity
    /// checks.
    pub fn forward_float(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        self.run(x, None, None)
    }

    /// Float forward that also reports, for every weighted op, the
    /// minimum and maximum of the activation tensor entering it
    /// (`observer(weight_path, lo, hi)`). The calibration pass drives
    /// this over a sample set.
    pub(crate) fn forward_observe(
        &self,
        x: &Tensor,
        observer: &mut Observer<'_>,
    ) -> Result<Tensor, ServeError> {
        self.run(x, None, Some(observer))
    }

    /// Checks `x` against the input shape and runs the plan on it: on the
    /// integer kernel with a scratch pool, else the float reference.
    fn run(
        &self,
        x: &Tensor,
        scratch: Option<&ScratchPool<i16>>,
        observer: Option<&mut Observer<'_>>,
    ) -> Result<Tensor, ServeError> {
        self.check_batch(x)?;
        Ok(run_ops(&self.plan, x.clone(), scratch, observer))
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
/// weight path.
fn weighted_ops(plan: &[BoundOp]) -> Vec<(&'static str, &str)> {
    let mut out = Vec::new();
    for op in plan {
        match op {
            BoundOp::Conv(w, _) => out.push(("conv2d", w.path.as_str())),
            BoundOp::Linear(w) => out.push(("linear", w.path.as_str())),
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
/// dims leaving it come back with the bound ops. `by_path` holds each
/// weight and its packed panels.
fn bind_ops(
    ops: &[InferOp],
    at: &str,
    mut dims: Vec<usize>,
    by_path: &HashMap<&str, (&PackedWeight, IntegerWeight)>,
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
        let found = match weight_of(op) {
            Some(w) => Some(by_path.get(w).ok_or_else(|| BindError::MissingWeight {
                path: w.to_string(),
            })?),
            None => None,
        };
        let wdims = found.map_or(&[][..], |(p, _)| &p.dims[..]);
        // A conv's or linear op's weight, compiled by `compile` for the
        // integer forward once the walk has checked it, and unpacked for
        // the float reference.
        let weighted = |compile: &dyn Fn(IntegerWeight) -> Result<IntegerOp, QinferError>, bias| {
            let (p, integer) = found.ok_or_else(|| misfit("it reads no weight".to_string()))?;
            Ok(Weighted {
                path: p.path.clone(),
                integer: compile(integer.clone()).map_err(|e| misfit(e.to_string()))?,
                float: p.unpack(),
                bias,
            })
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
                let spec = ConvSpec::new(*kernel, *stride, *padding);
                let (bias, step) = (bias(b, *out_channels)?, step(weight)?);
                let w = weighted(&|w| IntegerOp::conv(w, &dims, spec, step), bias)?;
                (BoundOp::Conv(w, spec), vec![*out_channels, oh, ow])
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
                let w = weighted(&|w| IntegerOp::linear(w, step), bias)?;
                (BoundOp::Linear(w), vec![*out_features])
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

/// Reports the minimum and maximum of the activation tensor entering the
/// weighted op of weight `path` to the calibration observer.
/// Request-path forwards pass no observer and skip the scan.
fn observe(observer: &mut Option<&mut Observer<'_>>, path: &str, x: &Tensor) {
    if let Some(obs) = observer {
        let (lo, hi) = x
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        obs(path, lo, hi);
    }
}

/// The calibration observer: `(weight path, input min, input max)` per
/// weighted op.
type Observer<'a> = dyn FnMut(&str, f32, f32) + 'a;

/// Profiler metadata for one op: the kind label, the kernel class, and
/// the bytes of weight data it reads. `None` for ops that cost nothing
/// worth attributing (`Flatten`, `Identity`) and for `Residual`, whose
/// inner ops are recorded individually by the recursive [`run_ops`]
/// calls.
fn profile_meta(op: &BoundOp, integer: bool) -> Option<(&'static str, &'static str, u64)> {
    // Weight bytes actually read: the integer kernel its `i16` panels, the
    // float reference the unpacked `f32` weight.
    let weighted = |kind: &'static str, w: &Weighted| {
        Some(if integer {
            (kind, "integer", w.integer.code_bytes() as u64)
        } else {
            (kind, "float", (w.float.numel() * size_of::<f32>()) as u64)
        })
    };
    let float = |kind: &'static str| Some((kind, "float", 0));
    match op {
        BoundOp::Conv(w, _) => weighted("conv2d", w),
        BoundOp::Linear(w) => weighted("linear", w),
        BoundOp::ChannelAffine { .. } => float("channel_affine"),
        BoundOp::Relu => float("relu"),
        BoundOp::UniformActQuant { .. } => float("act_quant"),
        BoundOp::MaxPool { .. } => float("maxpool2d"),
        BoundOp::AvgPool { .. } => float("avgpool2d"),
        BoundOp::GlobalAvgPool => float("global_avgpool"),
        BoundOp::Flatten | BoundOp::Identity | BoundOp::Residual { .. } => None,
    }
}

/// Runs a plan: with a scratch pool (the integer forward) each weighted
/// op runs its compiled integer op, which recycles its buffers through
/// the pool; without one, the float reference on the unpacked weight.
fn run_ops(
    plan: &[BoundOp],
    mut x: Tensor,
    scratch: Option<&ScratchPool<i16>>,
    mut observer: Option<&mut Observer<'_>>,
) -> Tensor {
    let profiler = csq_obs::profiler::global();
    for op in plan {
        // Kernel profiling (off by default; the disabled check is one
        // relaxed atomic load). Input shape is captured before the op
        // consumes `x`; bytes = input + output activations + weights.
        let prof = if profiler.enabled() {
            profile_meta(op, scratch.is_some()).map(|(kind, class, wbytes)| {
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
            BoundOp::Conv(w, spec) => {
                observe(&mut observer, &w.path, &x);
                let y = match scratch {
                    Some(scratch) => w.integer.forward(&x, scratch),
                    None => conv2d(&x, &w.float, *spec),
                };
                match &w.bias {
                    Some(b) => y.add_channel_bias(b),
                    None => y,
                }
            }
            BoundOp::Linear(w) => {
                observe(&mut observer, &w.path, &x);
                let y = match scratch {
                    Some(scratch) => w.integer.forward(&x, scratch),
                    None => x.matmul_nt(&w.float),
                };
                match &w.bias {
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
                uniform_act_quant(&mut y, *range, *levels);
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
                let m = run_ops(main, x.clone(), scratch, observer.as_deref_mut());
                let s = if shortcut.is_empty() {
                    x
                } else {
                    run_ops(shortcut, x, scratch, observer.as_deref_mut())
                };
                let mut merged = m;
                merged.add_assign_t(&s);
                run_ops(post, merged, scratch, observer.as_deref_mut())
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
    x
}
