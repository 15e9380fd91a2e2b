//! Inference-plan export: a serializable description of a model's
//! evaluation-mode dataflow.
//!
//! Serving a trained model must not require the training-side layer
//! objects (weight sources, gradient buffers, caches). This module
//! defines [`InferOp`], a flat, serde-serializable description of what a
//! model *computes* at evaluation time, and
//! [`Layer::export_infer_ops`](crate::Layer::export_infer_ops), which
//! every servable layer implements to emit its ops.
//!
//! Key properties:
//!
//! * **Weights by path, not by value.** Weighted ops ([`InferOp::Conv2d`],
//!   [`InferOp::Linear`]) reference their weight tensor by the same
//!   stable hierarchical path the parameter registry uses (e.g.
//!   `4.main.0.weight`). The serving artifact pairs the op list with
//!   packed weights keyed by those paths, so this crate stays
//!   independent of the quantizer's packed format. A grouped or
//!   depthwise conv is a [`InferOp::Conv2d`] like any other: its weight
//!   is `[OC, IC/G, K, K]`, and the executor reads `G` off those dims.
//! * **Folded constants.** BatchNorm exports as a per-channel affine
//!   ([`InferOp::ChannelAffine`]) computed from its *running* statistics
//!   (`scale = γ/√(var+ε)`, `shift = β − mean·scale`), and biases are
//!   embedded as plain `f32` vectors — evaluation-mode semantics with no
//!   training state left.
//! * **Exact eval formulas.** Activation quantizers export their frozen
//!   range and level count ([`InferOp::UniformActQuant`]) so an executor
//!   can reproduce the evaluation forward bit-for-bit.
//!
//! Layers that have no evaluation-time effect (passthrough activation
//! quantizers) export [`InferOp::Identity`]. Layers that make
//! no sense in a serving plan (none in this workspace's model builders)
//! fall back to the trait default, which reports
//! [`ExportError::Unsupported`] with the offending layer's path and kind.

use csq_obs::json::{field, variant, FromJson, Value};
use serde::Serialize;

/// One evaluation-mode operation in an exported inference plan.
///
/// Ops are executed in order, each consuming the previous op's output;
/// [`InferOp::Residual`] nests three sub-plans. Plans are persisted in
/// `.csqm` artifacts and read back by this type's [`FromJson`] decoder.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum InferOp {
    /// 2-D convolution; weight referenced by registry path. The weight
    /// is `[OC, IC/G, K, K]`: `G = 1` for a dense conv, `G = C` for a
    /// depthwise one (`in_channels = out_channels = C`).
    Conv2d {
        /// Hierarchical path of the weight tensor (e.g. `0.weight`).
        weight: String,
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Per-output-channel bias, if the layer has one.
        bias: Option<Vec<f32>>,
    },
    /// Fully-connected layer; weight referenced by registry path.
    Linear {
        /// Hierarchical path of the weight tensor.
        weight: String,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Per-output bias, if the layer has one.
        bias: Option<Vec<f32>>,
    },
    /// Per-channel affine `y[c] = x[c]·scale[c] + shift[c]` over NCHW
    /// activations — folded BatchNorm running statistics.
    ChannelAffine {
        /// Per-channel multiplier `γ/√(var+ε)`.
        scale: Vec<f32>,
        /// Per-channel offset `β − mean·scale`.
        shift: Vec<f32>,
    },
    /// Rectified linear unit.
    Relu,
    /// Uniform activation quantization on `[0, range]` with `levels`
    /// steps: `y = round(clamp(x, 0, range)/step)·step`,
    /// `step = range/levels`. Exported by `ActQuant` (frozen running
    /// range) and `Pact` (learned α).
    UniformActQuant {
        /// Upper clip boundary (already floored at the layer's 1e-6).
        range: f32,
        /// Number of quantization steps, `2^bits − 1`.
        levels: f32,
    },
    /// Max pooling with a square window.
    MaxPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling with a square window.
    AvgPool {
        /// Window size.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling `[N, C, H, W] → [N, C]`.
    GlobalAvgPool,
    /// Flatten trailing dimensions: `[N, ...] → [N, prod]`.
    Flatten,
    /// Evaluation-mode no-op (passthrough quantizers).
    Identity,
    /// Residual block `y = post(main(x) + shortcut(x))`; an empty
    /// `shortcut` is the identity.
    Residual {
        /// Main branch sub-plan.
        main: Vec<InferOp>,
        /// Shortcut branch sub-plan (empty = identity).
        shortcut: Vec<InferOp>,
        /// Post-merge sub-plan (activation after the add).
        post: Vec<InferOp>,
    },
}

/// A kernel, window or stride extent: zero is meaningless and would fail
/// when the op is bound or run.
fn positive(v: &Value, ctx: &str, name: &str) -> Result<usize, String> {
    match field(v, ctx, name)? {
        0 => Err(format!("{ctx}.{name}: must be positive")),
        n => Ok(n),
    }
}

/// A conv's zero padding: every exporter writes `kernel / 2`, and a
/// border as wide as the kernel would only size the first forward's
/// buffers from a bogus extent.
fn padding(v: &Value, ctx: &str, kernel: usize) -> Result<usize, String> {
    match field(v, ctx, "padding")? {
        p if p < kernel => Ok(p),
        p => Err(format!(
            "{ctx}.padding: {p} must be smaller than the kernel ({kernel})"
        )),
    }
}

/// A quantizer's range or level count: a zero, negative or non-finite
/// value would turn every activation into NaN or fail the first forward.
fn positive_finite(v: &Value, ctx: &str, name: &str) -> Result<f32, String> {
    match field::<f32>(v, ctx, name)? {
        x if x.is_finite() && x > 0.0 => Ok(x),
        x => Err(format!(
            "{ctx}.{name}: must be positive and finite, got {x}"
        )),
    }
}

/// Reads the externally tagged form `Serialize` writes: unit ops are
/// bare strings, the others single-member objects.
impl FromJson for InferOp {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        let (name, body) = variant(v, ctx)?;
        let c = &format!("{ctx}.{name}");
        Ok(match name {
            "Conv2d" => {
                let kernel = positive(body, c, "kernel")?;
                InferOp::Conv2d {
                    weight: field(body, c, "weight")?,
                    in_channels: field(body, c, "in_channels")?,
                    out_channels: field(body, c, "out_channels")?,
                    kernel,
                    stride: positive(body, c, "stride")?,
                    padding: padding(body, c, kernel)?,
                    bias: field(body, c, "bias")?,
                }
            }
            "Linear" => InferOp::Linear {
                weight: field(body, c, "weight")?,
                in_features: field(body, c, "in_features")?,
                out_features: field(body, c, "out_features")?,
                bias: field(body, c, "bias")?,
            },
            "ChannelAffine" => InferOp::ChannelAffine {
                scale: field(body, c, "scale")?,
                shift: field(body, c, "shift")?,
            },
            "UniformActQuant" => InferOp::UniformActQuant {
                range: positive_finite(body, c, "range")?,
                levels: positive_finite(body, c, "levels")?,
            },
            "MaxPool" => InferOp::MaxPool {
                window: positive(body, c, "window")?,
                stride: positive(body, c, "stride")?,
            },
            "AvgPool" => InferOp::AvgPool {
                window: positive(body, c, "window")?,
                stride: positive(body, c, "stride")?,
            },
            "Residual" => InferOp::Residual {
                main: field(body, c, "main")?,
                shortcut: field(body, c, "shortcut")?,
                post: field(body, c, "post")?,
            },
            "Relu" => InferOp::Relu,
            "GlobalAvgPool" => InferOp::GlobalAvgPool,
            "Flatten" => InferOp::Flatten,
            "Identity" => InferOp::Identity,
            other => return Err(format!("{ctx}: unknown op `{other}`")),
        })
    }
}

/// Why a model could not be exported as an inference plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// A layer kind has no inference-plan representation.
    Unsupported {
        /// Hierarchical path of the offending layer.
        path: String,
        /// The layer's `kind()` tag.
        kind: String,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Unsupported { path, kind } => write!(
                f,
                "layer `{path}` of kind `{kind}` cannot be exported as an inference op"
            ),
        }
    }
}

impl std::error::Error for ExportError {}

/// Exports a model's evaluation-mode dataflow as a flat op list
/// (path-agnostic wrapper over
/// [`Layer::export_infer_ops`](crate::Layer::export_infer_ops); weight
/// paths start at the model root, matching the parameter registry).
pub fn export_model(model: &dyn crate::Layer) -> Result<Vec<InferOp>, ExportError> {
    let mut path = crate::ParamPath::root();
    let mut ops = Vec::new();
    model.export_infer_ops(&mut path, &mut ops)?;
    Ok(ops)
}

/// Counts ops in a plan, recursing into residual branches
/// (diagnostics/reporting).
pub fn count_ops(ops: &[InferOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => 1 + count_ops(main) + count_ops(shortcut) + count_ops(post),
            _ => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, Relu, Residual, Sequential};
    use csq_tensor::conv::ConvSpec;

    #[test]
    fn sequential_model_exports_ops_with_registry_paths() {
        let model = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(
                3,
                4,
                ConvSpec::new(3, 1, 1),
                false,
                0,
            )),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::with_float_weights(4, 10, 1)),
        ]);
        let ops = export_model(&model).unwrap();
        assert_eq!(ops.len(), 6);
        match &ops[0] {
            InferOp::Conv2d {
                weight,
                in_channels,
                out_channels,
                bias,
                ..
            } => {
                assert_eq!(weight, "0.weight");
                assert_eq!((*in_channels, *out_channels), (3, 4));
                assert!(bias.is_none());
            }
            other => panic!("expected conv, got {other:?}"),
        }
        match &ops[1] {
            InferOp::ChannelAffine { scale, shift } => {
                // Fresh BN: γ = 1, var = 1, mean = 0, β = 0 → scale ≈ 1,
                // shift = 0.
                assert_eq!(scale.len(), 4);
                assert!(scale.iter().all(|s| (s - 1.0).abs() < 1e-4));
                assert!(shift.iter().all(|s| s.abs() < 1e-6));
            }
            other => panic!("expected channel affine, got {other:?}"),
        }
        assert_eq!(ops[2], InferOp::Relu);
        assert_eq!(ops[3], InferOp::GlobalAvgPool);
        assert_eq!(ops[4], InferOp::Flatten);
        match &ops[5] {
            InferOp::Linear { weight, bias, .. } => {
                assert_eq!(weight, "5.weight");
                assert!(bias.is_some());
            }
            other => panic!("expected linear, got {other:?}"),
        }
    }

    #[test]
    fn residual_export_scopes_branch_weight_paths() {
        let main = Sequential::new(vec![Box::new(Conv2d::with_float_weights(
            4,
            4,
            ConvSpec::new(3, 1, 1),
            false,
            0,
        ))]);
        let post = Sequential::new(vec![Box::new(Relu::new())]);
        let model = Sequential::new(vec![Box::new(Residual::new(main, None, post))]);
        let ops = export_model(&model).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(count_ops(&ops), 3);
        match &ops[0] {
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => {
                assert!(shortcut.is_empty());
                assert_eq!(post.as_slice(), &[InferOp::Relu]);
                match &main[0] {
                    InferOp::Conv2d { weight, .. } => assert_eq!(weight, "0.main.0.weight"),
                    other => panic!("expected conv, got {other:?}"),
                }
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }
}
