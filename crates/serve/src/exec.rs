//! Compiled inference executor: binds an exported op plan to packed
//! weights and calibrated activation steps, then runs batched forwards.
//!
//! A [`CompiledModel`] is immutable after construction, so a serving
//! engine can share one instance across worker threads behind an `Arc`.
//! Two execution modes exist over the same plan:
//!
//! * **Integer mode** ([`CompiledModel::forward_batch`]) — the deployment
//!   path. Inputs to each weighted op are quantized to 8-bit codes with
//!   that op's *calibrated* step, and every conv (dense, grouped or
//!   depthwise) and linear op runs the one exact integer GEMM: im2col u8
//!   patch rows
//!   against `i16` weight rows packed once at bind time as an
//!   [`IntegerWeight`], exact `i32`/`i64` sums, one float scale per
//!   output. Nothing is selected per request. Ops whose calibrated input
//!   range dips below zero (the raw-image stem) fall back to exact float
//!   arithmetic on the unpacked weights — the standard "keep the first
//!   layer in higher precision" deployment practice.
//! * **Float mode** ([`CompiledModel::forward_float`]) — the reference
//!   path used by calibration and accuracy-parity checks: identical
//!   dataflow, unpacked (bit-exact) weights, no activation quantization.
//!
//! Every kernel in both modes processes samples independently with a
//! fixed accumulation order, and the calibrated steps are constants, so
//! a batched forward is bit-identical to running each sample alone —
//! the property the engine's micro-batching relies on.

use csq_core::qinfer::{
    conv2d_integer, linear_integer, IntegerWeight, QinferError, QuantizedActivations,
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
    /// The compiled plan is internally inconsistent (e.g. a channel
    /// affine whose constants disagree with the activation shape).
    Plan {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
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
            ServeError::Plan { detail } => write!(f, "inconsistent inference plan: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QinferError> for ServeError {
    fn from(e: QinferError) -> Self {
        ServeError::Kernel(e)
    }
}

/// Per-weighted-op activation quantization decided by calibration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActGrid {
    /// Calibrated quantization step (`code = round(clamp(v,0,255·step)/step)`).
    pub(crate) step: f32,
    /// Whether the op runs on the integer kernels (`false` = float
    /// fallback because the calibrated input range includes negatives,
    /// or the model is not calibrated yet).
    pub(crate) integer: bool,
}

impl ActGrid {
    fn uncalibrated() -> Self {
        ActGrid {
            step: 1.0,
            integer: false,
        }
    }
}

/// One executable op bound to its weight slot.
#[derive(Debug, Clone)]
enum BoundOp {
    /// A conv whose weight `[OC, IC/G, K, K]` `bind` checked against
    /// `in_channels`; the kernels read the group count `G` off the dims.
    Conv {
        widx: usize,
        in_channels: usize,
        spec: ConvSpec,
        bias: Option<Tensor>,
        grid: ActGrid,
    },
    Linear {
        widx: usize,
        bias: Option<Tensor>,
        grid: ActGrid,
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
/// reference path and fallback ops) and, for integer-grid ops, the
/// integer GEMM form built once at bind time.
#[derive(Debug, Clone)]
struct BoundWeight {
    packed: PackedWeight,
    float: Tensor,
    /// `i16` code rows for the integer GEMM, present when some conv or
    /// linear op runs this weight on the integer grid.
    integer: Option<IntegerWeight>,
}

/// The kernel class one weighted op runs in one forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathChoice {
    /// Exact float arithmetic on the unpacked weight.
    Float,
    /// The integer GEMM on quantized codes.
    Integer,
}

impl PathChoice {
    /// The integer GEMM for an integer-grid op of an integer forward,
    /// exact float arithmetic otherwise.
    fn of(grid: &ActGrid, integer: bool) -> PathChoice {
        if integer && grid.integer {
            PathChoice::Integer
        } else {
            PathChoice::Float
        }
    }

    fn class(self) -> &'static str {
        match self {
            PathChoice::Float => "float",
            PathChoice::Integer => "integer",
        }
    }
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
    /// dims, or an integer-grid op's weight has a code wider than the
    /// integer GEMM's `i16` operand.
    Codes {
        /// The weight path.
        path: String,
        /// Why binding failed.
        error: QinferError,
    },
    /// A conv's weight is not `[out_channels, in_channels/G, kernel,
    /// kernel]` for any group count `G` dividing both channel counts.
    ConvShape {
        /// The weight path.
        path: String,
        /// The packed weight's dims.
        dims: Vec<usize>,
        /// The op's input channels.
        in_channels: usize,
        /// The op's output channels.
        out_channels: usize,
        /// The op's kernel extent.
        kernel: usize,
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
            BindError::ConvShape {
                path,
                dims,
                in_channels,
                out_channels,
                kernel,
            } => write!(
                f,
                "conv weight `{path}` has dims {dims:?}, which fit no grouping of \
                 {in_channels} input and {out_channels} output channels with a \
                 {kernel}x{kernel} kernel"
            ),
        }
    }
}

impl std::error::Error for BindError {}

/// An immutable, executable model: exported op plan bound to packed
/// weights and calibrated activation grids. Shareable across threads
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
    /// Binds `ops` to `weights`, with per-weighted-op grids looked up in
    /// `calibration` (path → `ActGrid`). `calibration = None` builds an
    /// *uncalibrated* model in which every weighted op runs the float
    /// fallback — the executor the calibration pass itself uses.
    pub(crate) fn bind(
        name: String,
        input_dims: Vec<usize>,
        num_classes: usize,
        ops: &[InferOp],
        packed: &[PackedWeight],
        calibration: Option<&HashMap<String, ActGrid>>,
    ) -> Result<CompiledModel, BindError> {
        let mut weights = Vec::with_capacity(packed.len());
        for p in packed {
            // A damaged artifact can carry a code count that disagrees
            // with the dims; `unpack` requires them to agree.
            let expected = p.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if expected != Some(p.codes.len()) {
                return Err(BindError::Codes {
                    path: p.path.clone(),
                    error: QinferError::CodeCountMismatch {
                        what: "weights",
                        expected: expected.unwrap_or(usize::MAX),
                        actual: p.codes.len(),
                    },
                });
            }
            weights.push(BoundWeight {
                float: p.unpack(),
                packed: p.clone(),
                integer: None,
            });
        }
        let by_path: HashMap<&str, (usize, &[usize])> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (w.packed.path.as_str(), (i, &w.packed.dims[..])))
            .collect();
        let plan = bind_ops(ops, &by_path, calibration)?;
        // Pack integer-grid weights into their GEMM form once, here —
        // never on the request path. A weight the integer GEMM cannot
        // hold is a typed error.
        for (_, widx, grid) in weighted_ops(&plan) {
            let w = &mut weights[widx];
            if grid.integer && w.integer.is_none() {
                let form =
                    IntegerWeight::from_packed(&w.packed).map_err(|error| BindError::Codes {
                        path: w.packed.path.clone(),
                        error,
                    })?;
                w.integer = Some(form);
            }
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

    /// Number of weighted ops that run on the integer kernels.
    pub fn integer_op_count(&self) -> usize {
        count_weighted(&self.plan, true)
    }

    /// Number of weighted ops that fall back to float arithmetic
    /// (calibrated input range included negatives — typically the stem).
    pub fn float_fallback_count(&self) -> usize {
        count_weighted(&self.plan, false)
    }

    /// The kernel class of every weighted op, in execution order. The
    /// class depends on calibration only, so the plan is the same at
    /// every batch size.
    pub fn kernel_plan(&self, _batch: usize) -> Vec<KernelPlanEntry> {
        weighted_ops(&self.plan)
            .into_iter()
            .map(|(op, widx, grid)| {
                let choice = PathChoice::of(&grid, true);
                KernelPlanEntry {
                    path: self.weights[widx].packed.path.clone(),
                    op,
                    class: choice.class(),
                }
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

    /// Deployment forward: integer kernels with calibrated activation
    /// grids (float fallback where calibration demanded it). `x` is
    /// `[N, C, H, W]`; returns logits `[N, num_classes]`. `scratch`
    /// recycles activation-code buffers — engine workers own one pool
    /// each.
    ///
    /// Per-sample kernels plus fixed calibrated grids make the result
    /// bit-identical for any batching of the same samples.
    pub fn forward_batch(
        &self,
        x: &Tensor,
        scratch: &ScratchPool<u8>,
    ) -> Result<Tensor, ServeError> {
        self.check_batch(x)?;
        let ctx = ExecCtx {
            weights: &self.weights,
            scratch,
            integer: true,
        };
        run_ops(&ctx, &self.plan, x.clone(), None)
    }

    /// Reference forward: identical dataflow on unpacked weights with no
    /// activation quantization. Used by calibration and accuracy-parity
    /// checks.
    pub fn forward_float(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        self.check_batch(x)?;
        let ctx = ExecCtx {
            weights: &self.weights,
            scratch: &ScratchPool::new(),
            integer: false,
        };
        run_ops(&ctx, &self.plan, x.clone(), None)
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
        self.check_batch(x)?;
        let weights = &self.weights;
        let ctx = ExecCtx {
            weights,
            scratch: &ScratchPool::new(),
            integer: false,
        };
        let mut by_index = |widx: usize, lo: f32, hi: f32| {
            observer(&weights[widx].packed.path, lo, hi);
        };
        run_ops(&ctx, &self.plan, x.clone(), Some(&mut by_index))
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
    /// Kernel class: `integer` (the integer GEMM) or `float` (the exact
    /// float fallback).
    pub class: &'static str,
}

/// Every weighted op of a plan in execution order (a residual block's
/// main branch, then its shortcut, then its post ops): op kind, weight
/// index and activation grid.
fn weighted_ops(plan: &[BoundOp]) -> Vec<(&'static str, usize, ActGrid)> {
    let mut out = Vec::new();
    for op in plan {
        match op {
            BoundOp::Conv { widx, grid, .. } => out.push(("conv2d", *widx, *grid)),
            BoundOp::Linear { widx, grid, .. } => out.push(("linear", *widx, *grid)),
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

fn count_weighted(plan: &[BoundOp], integer: bool) -> usize {
    weighted_ops(plan)
        .iter()
        .filter(|(_, _, grid)| grid.integer == integer)
        .count()
}

fn lookup_grid(
    path: &str,
    calibration: Option<&HashMap<String, ActGrid>>,
) -> Result<ActGrid, BindError> {
    match calibration {
        None => Ok(ActGrid::uncalibrated()),
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

fn bind_ops(
    ops: &[InferOp],
    by_path: &HashMap<&str, (usize, &[usize])>,
    calibration: Option<&HashMap<String, ActGrid>>,
) -> Result<Vec<BoundOp>, BindError> {
    let resolve = |path: &str| -> Result<(usize, &[usize]), BindError> {
        by_path
            .get(path)
            .copied()
            .ok_or_else(|| BindError::MissingWeight {
                path: path.to_string(),
            })
    };
    let mut plan = Vec::with_capacity(ops.len());
    for op in ops {
        let bound = match op {
            InferOp::Conv2d {
                weight,
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                bias,
            } => {
                let (widx, dims) = resolve(weight)?;
                if !conv_fits(dims, *in_channels, *out_channels, *kernel) {
                    return Err(BindError::ConvShape {
                        path: weight.clone(),
                        dims: dims.to_vec(),
                        in_channels: *in_channels,
                        out_channels: *out_channels,
                        kernel: *kernel,
                    });
                }
                BoundOp::Conv {
                    widx,
                    in_channels: *in_channels,
                    spec: ConvSpec::new(*kernel, *stride, *padding),
                    bias: bias
                        .as_ref()
                        .map(|b| Tensor::from_vec(b.clone(), &[b.len()])),
                    grid: lookup_grid(weight, calibration)?,
                }
            }
            InferOp::Linear { weight, bias, .. } => BoundOp::Linear {
                widx: resolve(weight)?.0,
                bias: bias
                    .as_ref()
                    .map(|b| Tensor::from_vec(b.clone(), &[b.len()])),
                grid: lookup_grid(weight, calibration)?,
            },
            InferOp::ChannelAffine { scale, shift } => BoundOp::ChannelAffine {
                scale: scale.clone(),
                shift: shift.clone(),
            },
            InferOp::Relu => BoundOp::Relu,
            InferOp::UniformActQuant { range, levels } => BoundOp::UniformActQuant {
                range: *range,
                levels: *levels,
            },
            InferOp::MaxPool { window, stride } => BoundOp::MaxPool {
                window: *window,
                stride: *stride,
            },
            InferOp::AvgPool { window, stride } => BoundOp::AvgPool {
                window: *window,
                stride: *stride,
            },
            InferOp::GlobalAvgPool => BoundOp::GlobalAvgPool,
            InferOp::Flatten => BoundOp::Flatten,
            InferOp::Identity => BoundOp::Identity,
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => BoundOp::Residual {
                main: bind_ops(main, by_path, calibration)?,
                shortcut: bind_ops(shortcut, by_path, calibration)?,
                post: bind_ops(post, by_path, calibration)?,
            },
        };
        plan.push(bound);
    }
    Ok(plan)
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
) -> Option<(&'static str, PathChoice, u64)> {
    // Weight bytes actually read: the integer GEMM its `i16` rows, the
    // float path the unpacked `f32` weight.
    let weighted = |kind: &'static str, widx: &usize, grid: &ActGrid| {
        let w = &weights[*widx];
        let choice = PathChoice::of(grid, integer);
        let bytes = match (choice, &w.integer) {
            (PathChoice::Integer, Some(iw)) => iw.code_bytes(),
            _ => w.float.numel() * std::mem::size_of::<f32>(),
        };
        Some((kind, choice, bytes as u64))
    };
    let float = |kind: &'static str| Some((kind, PathChoice::Float, 0));
    match op {
        BoundOp::Conv { widx, grid, .. } => weighted("conv2d", widx, grid),
        BoundOp::Linear { widx, grid, .. } => weighted("linear", widx, grid),
        BoundOp::ChannelAffine { .. } => float("channel_affine"),
        BoundOp::Relu => float("relu"),
        BoundOp::UniformActQuant { .. } => float("act_quant"),
        BoundOp::MaxPool { .. } => float("maxpool2d"),
        BoundOp::AvgPool { .. } => float("avgpool2d"),
        BoundOp::GlobalAvgPool => float("global_avgpool"),
        BoundOp::Flatten | BoundOp::Identity | BoundOp::Residual { .. } => None,
    }
}

/// Quantizes `x` onto the op's calibrated grid, runs the integer GEMM
/// `kernel` on the codes with the weight's GEMM form, and recycles the
/// code buffer.
fn on_codes(
    x: &Tensor,
    grid: &ActGrid,
    w: &BoundWeight,
    scratch: &ScratchPool<u8>,
    kernel: impl FnOnce(&QuantizedActivations, &IntegerWeight) -> Result<Tensor, QinferError>,
) -> Result<Tensor, ServeError> {
    // `bind` builds the GEMM form for every integer-grid op, so its
    // absence is a plan bug.
    let iw = w.integer.as_ref().ok_or_else(|| ServeError::Plan {
        detail: format!("weight `{}` has no integer GEMM form", w.packed.path),
    })?;
    let q = QuantizedActivations::quantize_with_step_into(x, grid.step, scratch.take(x.numel()))?;
    let y = kernel(&q, iw);
    scratch.give(q.codes);
    Ok(y?)
}

/// Everything a forward pass threads through the op loop unchanged:
/// the bound weights, the code scratch pool, and whether integer-grid
/// ops run on the integer GEMM (`false` = the float reference path).
struct ExecCtx<'a> {
    weights: &'a [BoundWeight],
    scratch: &'a ScratchPool<u8>,
    integer: bool,
}

/// Runs a plan: each weighted op takes the integer GEMM in an integer
/// forward where calibration allows, else the exact float path on the
/// unpacked weight.
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
            profile_meta(op, weights, integer).map(|(kind, choice, wbytes)| {
                (
                    kind,
                    choice,
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
                in_channels,
                spec,
                bias,
                grid,
            } => {
                // The group count follows from the activation's channels,
                // so they must be the ones `bind` checked the weight for.
                if x.rank() != 4 || x.dims()[1] != *in_channels {
                    return Err(ServeError::Plan {
                        detail: format!(
                            "conv with {in_channels} input channels applied to activations {:?}",
                            x.dims()
                        ),
                    });
                }
                observe(&mut observer, *widx, &x);
                let w = &weights[*widx];
                let y = match PathChoice::of(grid, integer) {
                    PathChoice::Integer => on_codes(&x, grid, w, scratch, |q, iw| {
                        conv2d_integer(q, iw, *spec, scratch)
                    })?,
                    PathChoice::Float => conv2d(&x, &w.float, *spec),
                };
                match bias {
                    Some(b) => y.add_channel_bias(b),
                    None => y,
                }
            }
            BoundOp::Linear { widx, bias, grid } => {
                observe(&mut observer, *widx, &x);
                let w = &weights[*widx];
                let y = match PathChoice::of(grid, integer) {
                    PathChoice::Integer => on_codes(&x, grid, w, scratch, linear_integer)?,
                    PathChoice::Float => x.matmul_nt(&w.float),
                };
                match bias {
                    Some(b) => y.add_row_bias(b),
                    None => y,
                }
            }
            BoundOp::ChannelAffine { scale, shift } => {
                let dims = x.dims().to_vec();
                if dims.len() != 4 || dims[1] != scale.len() {
                    return Err(ServeError::Plan {
                        detail: format!(
                            "channel affine with {} channels applied to activations {dims:?}",
                            scale.len()
                        ),
                    });
                }
                let c = dims[1];
                let hw = dims[2] * dims[3];
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
            BoundOp::Relu => x.map(|v| v.max(0.0)),
            BoundOp::UniformActQuant { range, levels } => {
                // Exact replica of the training layers' eval forward.
                let step = *range / *levels;
                let r = *range;
                x.map(|v| {
                    let c = v.clamp(0.0, r);
                    (c / step).round() * step
                })
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
                let merged = m.add(&s);
                run_ops(ctx, post, merged, observer.as_deref_mut())?
            }
        };
        if let Some((kind, choice, wbytes, in_dims, in_numel, start)) = prof {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let act_bytes = ((in_numel + x.numel()) * std::mem::size_of::<f32>()) as u64;
            profiler.record(
                kind,
                choice.class(),
                "dense",
                &csq_obs::profiler::shape_key(&in_dims),
                wall_ns,
                act_bytes + wbytes,
            );
        }
    }
    Ok(x)
}
