//! Extraction and serialization of mixed-precision quantization schemes
//! (the per-layer precision assignments of Figure 4 and the `Comp(×)`
//! columns of every table).

use crate::budget::model_precision;
use csq_nn::Layer;
use csq_obs::json::{self, field, FromJson, Value};
use serde::Serialize;

/// The quantization state of one weight tensor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerScheme {
    /// Position among the model's weight tensors (construction order).
    pub index: usize,
    /// Stable hierarchical path of the weight tensor (e.g.
    /// `"4.main.0.weight"`).
    pub path: String,
    /// Number of weight elements.
    pub numel: usize,
    /// Assigned precision in bits.
    pub bits: f32,
    /// Per-bit keep mask, LSB first (absent for methods without one).
    pub mask: Option<Vec<bool>>,
}

impl FromJson for LayerScheme {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(LayerScheme {
            index: field(v, ctx, "index")?,
            path: field(v, ctx, "path")?,
            numel: field(v, ctx, "numel")?,
            bits: field(v, ctx, "bits")?,
            mask: field(v, ctx, "mask")?,
        })
    }
}

/// A full mixed-precision quantization scheme.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantScheme {
    /// Per-layer assignments in model order.
    pub layers: Vec<LayerScheme>,
    /// Element-weighted average precision.
    pub avg_bits: f32,
    /// Weight compression versus FP32.
    pub compression: f32,
}

impl FromJson for QuantScheme {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(QuantScheme {
            layers: field(v, ctx, "layers")?,
            avg_bits: field(v, ctx, "avg_bits")?,
            compression: field(v, ctx, "compression")?,
        })
    }
}

impl QuantScheme {
    /// Extracts the scheme currently encoded in `model`'s weight sources.
    pub fn extract(model: &mut dyn Layer) -> QuantScheme {
        let mut layers = Vec::new();
        let mut index = 0usize;
        model.visit_weight_sources_named(&mut csq_nn::ParamPath::root(), &mut |path, src| {
            layers.push(LayerScheme {
                index,
                path: path.to_string(),
                numel: src.numel(),
                bits: src.precision().unwrap_or(32.0),
                mask: src.bit_mask(),
            });
            index += 1;
        });
        let stats = model_precision(model);
        QuantScheme {
            layers,
            avg_bits: stats.avg_bits,
            compression: stats.compression_ratio(),
        }
    }

    /// Per-layer precisions in model order (the series plotted in
    /// Figure 4).
    pub fn layer_bits(&self) -> Vec<f32> {
        self.layers.iter().map(|l| l.bits).collect()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice (the type is plain data).
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(s) => s,
            // Unreachable for this plain-data type; kept explicit so a
            // failure would be loud rather than silently truncated.
            Err(e) => panic!("scheme serialization failed: {e}"),
        }
    }

    /// Parses a scheme from the JSON text [`QuantScheme::to_json`]
    /// writes.
    ///
    /// # Errors
    ///
    /// A message naming the offending field (`scheme.layers[2].bits`)
    /// on malformed input.
    pub fn from_json(s: &str) -> Result<QuantScheme, String> {
        json::parse(s, "scheme")
    }
}

impl std::fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scheme: avg {:.2} bits, compression {:.2}x, {} layers",
            self.avg_bits,
            self.compression,
            self.layers.len()
        )?;
        let width = self
            .layers
            .iter()
            .map(|l| l.path.len())
            .max()
            .unwrap_or(0)
            .max(8);
        for l in &self.layers {
            writeln!(
                f,
                "  {:<width$}  {:>5.1} bits  ({} params)",
                l.path, l.bits, l.numel
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrep::csq_factory;
    use csq_nn::models::{resnet_cifar, ModelConfig};

    fn tiny_model() -> csq_nn::Sequential {
        let mut fac = csq_factory(8);
        resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1)
    }

    #[test]
    fn extract_covers_every_weight_source() {
        let mut m = tiny_model();
        let scheme = QuantScheme::extract(&mut m);
        // ResNet-8: stem + 6 block convs + 2 shortcuts + fc = 10.
        assert_eq!(scheme.layers.len(), 10);
        assert!(scheme.layers.iter().all(|l| l.bits == 8.0));
        assert!((scheme.avg_bits - 8.0).abs() < 1e-6);
        assert!((scheme.compression - 4.0).abs() < 1e-6);
    }

    #[test]
    fn json_round_trip() {
        let mut m = tiny_model();
        let scheme = QuantScheme::extract(&mut m);
        let json = scheme.to_json();
        let back = QuantScheme::from_json(&json).unwrap();
        assert_eq!(scheme, back);
    }

    #[test]
    fn layer_bits_in_model_order() {
        let mut m = tiny_model();
        let scheme = QuantScheme::extract(&mut m);
        assert_eq!(scheme.layer_bits().len(), 10);
        let indices: Vec<usize> = scheme.layers.iter().map(|l| l.index).collect();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn display_is_nonempty() {
        let mut m = tiny_model();
        let s = QuantScheme::extract(&mut m).to_string();
        assert!(s.contains("compression"));
        assert!(s.lines().count() > 5);
    }

    #[test]
    fn extract_records_layer_paths() {
        let mut m = tiny_model();
        let scheme = QuantScheme::extract(&mut m);
        assert!(scheme.layers.iter().all(|l| !l.path.is_empty()));
        assert_eq!(scheme.layers[0].path, "0.weight", "stem conv");
        // Residual-block convs carry their branch in the path.
        assert!(
            scheme.layers.iter().any(|l| l.path.contains(".main.")),
            "{:?}",
            scheme.layers.iter().map(|l| &l.path).collect::<Vec<_>>()
        );
        let display = scheme.to_string();
        assert!(display.contains("0.weight"), "{display}");
    }
}
