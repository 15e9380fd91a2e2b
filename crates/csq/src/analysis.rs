//! Training diagnostics: how discrete the relaxed model currently is.
//!
//! Figure 1(a) of the paper illustrates the temperature sigmoid
//! sharpening toward a step function; this module measures the same
//! phenomenon on a live model — how close every gate's output is to
//! {0, 1} — which is the quantity that determines how much accuracy the
//! final hard snap can cost. The trainer's `beta_saturate` knob exists
//! precisely to drive these statistics toward 1 before finalization.

use crate::gate::temp_sigmoid;
use csq_nn::{Layer, ParamPath, ParamRole};

/// Discreteness statistics of a set of gates.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct GateStats {
    /// Number of gate values inspected.
    pub count: usize,
    /// Mean distance of gate outputs from the nearer of {0, 1}
    /// (0 = perfectly discrete, 0.5 = maximally soft).
    pub mean_softness: f32,
    /// Worst-case distance from {0, 1}.
    pub max_softness: f32,
    /// Fraction of gates within 0.01 of {0, 1}.
    pub frac_discrete: f32,
}

impl GateStats {
    fn from_values(values: impl Iterator<Item = f32>) -> GateStats {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut max = 0.0f32;
        let mut discrete = 0usize;
        for g in values {
            let d = g.min(1.0 - g).max(0.0);
            count += 1;
            sum += d as f64;
            max = max.max(d);
            if d <= 0.01 {
                discrete += 1;
            }
        }
        GateStats {
            count,
            mean_softness: if count == 0 {
                0.0
            } else {
                (sum / count as f64) as f32
            },
            max_softness: max,
            frac_discrete: if count == 0 {
                1.0
            } else {
                discrete as f32 / count as f32
            },
        }
    }
}

/// Gate-discreteness statistics of every `BitQuantizer`-style weight
/// source in a model, measured at the given temperature on the bit-mask
/// logits (the level-2 gates that decide layer precision).
///
/// Sources without a searched mask contribute nothing.
pub fn mask_gate_stats(model: &mut dyn Layer, beta: f32) -> GateStats {
    let mut values = Vec::new();
    model.visit_weight_sources(&mut |src| {
        if let Some(soft) = src.soft_precision() {
            // Reconstruct per-bit gate values only when the source also
            // exposes a mask; otherwise use the aggregate as one sample.
            if let Some(mask) = src.bit_mask() {
                if !mask.is_empty() {
                    // soft_precision is the sum of the mask gates; the
                    // per-bit values are not individually exposed through
                    // the trait, so sample the aggregate softness:
                    // distance between the soft sum and the hard count.
                    let hard = mask.iter().filter(|&&m| m).count() as f32;
                    let spread = (soft - hard).abs() / mask.len() as f32;
                    values.push(0.5 - (0.5 - spread).abs());
                }
            }
        }
    });
    let _ = beta;
    GateStats::from_values(values.into_iter())
}

/// Discreteness of a standalone logit set under `f_β` — the exact curve
/// of Figure 1(a): the same logits become arbitrarily discrete as β
/// grows.
pub fn logit_gate_stats(logits: &[f32], beta: f32) -> GateStats {
    GateStats::from_values(logits.iter().map(|&m| temp_sigmoid(m, beta)))
}

/// One row of a [`ModelSummary`]: a leaf layer, its parameters broken
/// down by role, and its current precision when it owns a weight source.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Stable hierarchical path of the layer (e.g. `"4.main.0"`; empty
    /// when the model is a single bare layer).
    pub path: String,
    /// Layer kind label ([`Layer::kind`]).
    pub kind: &'static str,
    /// Total trainable parameter elements owned by this layer.
    pub params: usize,
    /// Parameter element counts per role, in visitation order.
    pub roles: Vec<(ParamRole, usize)>,
    /// Hard-counted precision of the layer's weight source in bits
    /// (`None` for layers without one, or full-precision sources).
    pub bits: Option<f32>,
}

/// A per-layer map of a model: every leaf layer with its path, kind,
/// parameter/role breakdown and current hard-counted precision.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// One row per leaf layer, in model order.
    pub layers: Vec<LayerSummary>,
    /// Total trainable parameter elements.
    pub total_params: usize,
}

/// Index of the leaf in `layers` whose path owns `path` (the longest
/// leaf path that is a dot-prefix of it).
fn owning_leaf(layers: &[LayerSummary], path: &str) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, l) in layers.iter().enumerate() {
        let owns = l.path.is_empty()
            || path == l.path
            || (path.starts_with(l.path.as_str())
                && path.as_bytes().get(l.path.len()) == Some(&b'.'));
        if owns && best.is_none_or(|(_, len)| l.path.len() >= len) {
            best = Some((i, l.path.len()));
        }
    }
    best.map(|(i, _)| i)
}

/// Builds a per-layer summary of `model`: leaf layers with their paths,
/// kinds, per-role parameter counts and current hard-counted precision.
///
/// This is the table behind the bench bins' `--summary` flag; it lets a
/// scheme be discussed by layer name (`"4.main.0"`) instead of by
/// visitation index.
pub fn model_summary(model: &mut dyn Layer) -> ModelSummary {
    // Every layer (containers included) reports its kind; a leaf is an
    // entry no other entry nests under.
    let mut kinds: Vec<(String, &'static str)> = Vec::new();
    model.visit_kinds(&mut ParamPath::root(), &mut |path, kind| {
        kinds.push((path.to_string(), kind));
    });
    let is_leaf = |candidate: &str| {
        !kinds.iter().any(|(other, _)| {
            other != candidate
                && (candidate.is_empty()
                    || (other.starts_with(candidate)
                        && other.as_bytes().get(candidate.len()) == Some(&b'.')))
        })
    };
    let mut layers: Vec<LayerSummary> = kinds
        .iter()
        .filter(|(path, _)| is_leaf(path))
        .map(|(path, kind)| LayerSummary {
            path: path.clone(),
            kind,
            params: 0,
            roles: Vec::new(),
            bits: None,
        })
        .collect();

    let mut total = 0usize;
    model.visit_params(&mut |p| {
        total += p.value.numel();
        if let Some(i) = owning_leaf(&layers, p.path) {
            let row = &mut layers[i];
            row.params += p.value.numel();
            match row.roles.iter_mut().find(|(role, _)| *role == p.role) {
                Some((_, n)) => *n += p.value.numel(),
                None => row.roles.push((p.role, p.value.numel())),
            }
        }
    });
    model.visit_weight_sources_named(&mut ParamPath::root(), &mut |path, src| {
        if let Some(i) = owning_leaf(&layers, path) {
            layers[i].bits = src.precision();
        }
    });
    ModelSummary {
        layers,
        total_params: total,
    }
}

impl std::fmt::Display for ModelSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path_w = self
            .layers
            .iter()
            .map(|l| l.path.len())
            .max()
            .unwrap_or(0)
            .max("layer".len());
        let kind_w = self
            .layers
            .iter()
            .map(|l| l.kind.len())
            .max()
            .unwrap_or(0)
            .max("kind".len());
        writeln!(
            f,
            "{:<path_w$}  {:<kind_w$}  {:>9}  {:>5}  roles",
            "layer", "kind", "params", "bits"
        )?;
        for l in &self.layers {
            let bits = match l.bits {
                Some(b) => format!("{b:.1}"),
                None => "-".to_string(),
            };
            let roles = l
                .roles
                .iter()
                .map(|(role, n)| format!("{} {n}", role.label()))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "{:<path_w$}  {:<kind_w$}  {:>9}  {bits:>5}  {roles}",
                l.path, l.kind, l.params
            )?;
        }
        write!(
            f,
            "total: {} layers, {} params",
            self.layers.len(),
            self.total_params
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrep::csq_factory;
    use csq_nn::models::{resnet_cifar, ModelConfig};

    #[test]
    fn logits_sharpen_with_temperature() {
        let logits = [-0.5f32, -0.1, 0.05, 0.3, 1.0];
        let cold = logit_gate_stats(&logits, 1.0);
        let warm = logit_gate_stats(&logits, 20.0);
        let hot = logit_gate_stats(&logits, 500.0);
        assert_eq!(cold.count, 5);
        assert!(cold.mean_softness > warm.mean_softness);
        assert!(warm.mean_softness > hot.mean_softness);
        assert!(hot.frac_discrete > 0.9, "{hot:?}");
        assert!(cold.frac_discrete < 0.5, "{cold:?}");
    }

    #[test]
    fn empty_logits_are_trivially_discrete() {
        let s = logit_gate_stats(&[], 10.0);
        assert_eq!(s.count, 0);
        assert_eq!(s.frac_discrete, 1.0);
    }

    #[test]
    fn model_mask_stats_shrink_as_beta_grows() {
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        m.visit_weight_sources(&mut |src| src.set_beta(1.0));
        let soft = mask_gate_stats(&mut m, 1.0);
        m.visit_weight_sources(&mut |src| src.set_beta(500.0));
        let hard = mask_gate_stats(&mut m, 500.0);
        assert!(soft.count > 0);
        assert!(
            hard.mean_softness < soft.mean_softness,
            "{soft:?} vs {hard:?}"
        );
    }

    #[test]
    fn finalized_model_is_fully_discrete() {
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        m.visit_weight_sources(&mut |src| src.finalize());
        let s = mask_gate_stats(&mut m, 200.0);
        assert!(s.frac_discrete > 0.99, "{s:?}");
    }

    #[test]
    fn model_summary_names_layers_and_roles() {
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        let summary = model_summary(&mut m);
        assert!(summary.layers.len() > 10, "{summary}");
        // Rows are leaf layers with unique paths.
        let mut paths: Vec<&str> = summary.layers.iter().map(|l| l.path.as_str()).collect();
        let n = paths.len();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), n, "duplicate leaf paths");

        let stem = summary
            .layers
            .iter()
            .find(|l| l.path == "0")
            .expect("stem conv row");
        assert_eq!(stem.kind, "conv2d");
        assert_eq!(stem.bits, Some(8.0), "8-bit CSQ source, hard-counted");
        // A CSQ source's parameters are its scale and bit/gate logits.
        assert!(stem.roles.iter().any(|(r, _)| *r == ParamRole::QuantScale));
        assert!(stem.roles.iter().any(|(r, _)| *r == ParamRole::BitLogit));
        assert!(stem.roles.iter().any(|(r, _)| *r == ParamRole::GateLogit));
        // Residual-block convs appear under their branch path.
        assert!(summary.layers.iter().any(|l| l.path.contains(".main.")));

        // Role counts sum to the per-layer totals, and the grand total
        // matches the model's parameter count.
        for l in &summary.layers {
            let by_role: usize = l.roles.iter().map(|(_, n)| n).sum();
            assert_eq!(by_role, l.params, "role breakdown of `{}`", l.path);
        }
        assert_eq!(
            summary.total_params,
            csq_nn::layer::count_params(&mut m),
            "summary covers every parameter"
        );
    }

    #[test]
    fn model_summary_display_is_a_table() {
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        let text = model_summary(&mut m).to_string();
        assert!(text.contains("layer"), "{text}");
        assert!(text.contains("conv2d"), "{text}");
        assert!(text.contains("bit_logit"), "{text}");
        assert!(text.contains("total:"), "{text}");
    }

    #[test]
    fn model_summary_of_float_model_has_no_bits() {
        let mut fac = csq_nn::weight::float_factory();
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        let summary = model_summary(&mut m);
        assert!(summary.layers.iter().all(|l| l.bits.is_none()));
    }
}
