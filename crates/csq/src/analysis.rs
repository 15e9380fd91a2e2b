//! Model diagnostics: a per-layer map of a model.
//!
//! [`model_summary`] lists every leaf layer with its stable path, its
//! kind, its parameters broken down by role and its hard-counted
//! precision, so a mixed-precision scheme can be discussed by layer name
//! (`"4.main.0"`) instead of by visitation index. The bench bins'
//! `--summary` flag prints it.

use csq_nn::{Layer, ParamPath, ParamRole};

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
