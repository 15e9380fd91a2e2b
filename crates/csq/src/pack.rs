//! Fixed-point packing of finalized quantized models.
//!
//! The paper's motivation (§I) for linear quantization is that the
//! resulting fixed-point representation "enables the use of fixed-point
//! arithmetic units". This module performs that last step: it converts a
//! finalized model's weights into integer codes plus one scale per layer,
//! verifying exactness on the way, and accounts the deployed model size
//! that the `Comp(×)` columns of the paper promise.

use csq_nn::Layer;
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

/// Error produced when a model cannot be packed.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// A weight source exposes no quantization grid (e.g. a float layer).
    NotQuantized {
        /// Path of the offending weight tensor (e.g. `"4.main.0.weight"`).
        layer: String,
    },
    /// A weight source still has soft (β-relaxed) gates: the model is
    /// mid-training and has not been finalized, so its materialized
    /// weights do not lie on the quantization grid yet.
    GatesNotHard {
        /// Path of the offending weight tensor.
        layer: String,
    },
    /// A weight is not an exact integer multiple of the grid step — the
    /// model was not finalized.
    OffGrid {
        /// Path of the offending weight tensor.
        layer: String,
        /// The offending value.
        value: f32,
        /// The layer's grid step.
        step: f32,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::NotQuantized { layer } => {
                write!(
                    f,
                    "layer `{layer}` has no quantization grid (finalize the model first)"
                )
            }
            PackError::GatesNotHard { layer } => write!(
                f,
                "layer `{layer}` still has soft gates (mid-training); finalize the model before packing"
            ),
            PackError::OffGrid { layer, value, step } => write!(
                f,
                "layer `{layer}` weight {value} is not a multiple of step {step}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// One layer's weights in fixed-point form: integer codes and the scale
/// that reconstructs floats as `code · step`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PackedWeight {
    /// Stable path of the source weight tensor.
    pub path: String,
    /// Signed integer codes, one per weight element (row-major).
    pub codes: Vec<i32>,
    /// Grid step: `float = code · step`.
    pub step: f32,
    /// Weight tensor shape.
    pub dims: Vec<usize>,
    /// Assigned precision in bits (mask-selected bit count).
    pub bits: f32,
}

impl FromJson for PackedWeight {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(PackedWeight {
            path: field(v, ctx, "path")?,
            codes: field(v, ctx, "codes")?,
            step: field(v, ctx, "step")?,
            dims: field(v, ctx, "dims")?,
            bits: field(v, ctx, "bits")?,
        })
    }
}

impl PackedWeight {
    /// The weight's grid values `code·step`, within about an ulp of the
    /// trained weight (which `materialize` computes as `bs·s/levels`).
    pub fn unpack(&self) -> csq_tensor::Tensor {
        csq_tensor::Tensor::from_vec(
            self.codes.iter().map(|&c| c as f32 * self.step).collect(),
            &self.dims,
        )
    }

    /// Storage for this layer's codes at its assigned precision, in
    /// bytes (bit-packed, rounded up, plus one f32 scale). Sign bits are
    /// part of the paper's signed-digit budget, so `bits` already covers
    /// them.
    pub fn size_bytes(&self) -> usize {
        let bits_total = (self.codes.len() as f32 * self.bits).ceil() as usize;
        bits_total.div_ceil(8) + std::mem::size_of::<f32>()
    }
}

/// A fully packed model: every quantized weight tensor as fixed-point
/// codes.
///
/// # Example
///
/// ```
/// use csq_core::{csq_factory, PackedModel};
/// use csq_nn::models::{resnet_cifar, ModelConfig};
/// use csq_nn::Layer;
///
/// let mut factory = csq_factory(8);
/// let mut model = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut factory, 1);
/// model.visit_weight_sources(&mut |s| s.finalize());
/// let packed = PackedModel::pack(&mut model)?;
/// assert!(packed.size_bytes() < packed.fp32_size_bytes());
/// # Ok::<(), csq_core::pack::PackError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModel {
    /// Per-layer packed weights, in model order.
    pub layers: Vec<PackedWeight>,
}

impl PackedModel {
    /// Packs every weight source of a *finalized* model.
    ///
    /// # Errors
    ///
    /// [`PackError::NotQuantized`] if a layer exposes no grid step;
    /// [`PackError::GatesNotHard`] if a quantized layer's gates are still
    /// soft (a mid-training pack attempt — call `finalize` first);
    /// [`PackError::OffGrid`] if any weight is nonetheless not exactly on
    /// its grid.
    pub fn pack(model: &mut dyn Layer) -> Result<PackedModel, PackError> {
        let mut layers = Vec::new();
        let mut failure: Option<PackError> = None;
        model.visit_weight_sources_named(&mut csq_nn::ParamPath::root(), &mut |path, src| {
            if failure.is_some() {
                return;
            }
            let Some(step) = src.quant_step() else {
                failure = Some(PackError::NotQuantized {
                    layer: path.to_string(),
                });
                return;
            };
            if !src.is_finalized() {
                failure = Some(PackError::GatesNotHard {
                    layer: path.to_string(),
                });
                return;
            }
            let bits = src.precision().unwrap_or(32.0);
            let w = src.materialize();
            let mut codes = Vec::with_capacity(w.numel());
            for &v in w.iter() {
                let k = v / step;
                if (k - k.round()).abs() > 1e-2 {
                    failure = Some(PackError::OffGrid {
                        layer: path.to_string(),
                        value: v,
                        step,
                    });
                    return;
                }
                codes.push(k.round() as i32);
            }
            layers.push(PackedWeight {
                path: path.to_string(),
                codes,
                step,
                dims: w.dims().to_vec(),
                bits,
            });
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(PackedModel { layers }),
        }
    }

    /// Total deployed weight storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.layers.iter().map(PackedWeight::size_bytes).sum()
    }

    /// Storage of the same weights at FP32, in bytes.
    pub fn fp32_size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.codes.len() * 4).sum()
    }

    /// Achieved compression versus FP32 storage (scales included). An
    /// empty model reports 1.0 (no storage either way) rather than a
    /// degenerate 0/0.
    pub fn compression(&self) -> f32 {
        let fp32 = self.fp32_size_bytes();
        if fp32 == 0 {
            return 1.0;
        }
        fp32 as f32 / self.size_bytes().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrep::{csq_factory, BitQuantizer, QuantMode};
    use csq_nn::models::{resnet_cifar, ModelConfig};
    use csq_nn::weight::float_factory;
    use csq_nn::{Linear, WeightSource};
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn finalized_model() -> csq_nn::Sequential {
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        m.visit_weight_sources(&mut |src| src.finalize());
        m
    }

    #[test]
    fn pack_unpack_is_exact() {
        let mut m = finalized_model();
        let packed = PackedModel::pack(&mut m).unwrap();
        let mut idx = 0usize;
        m.visit_weight_sources(&mut |src| {
            let w = src.materialize();
            let back = packed.layers[idx].unpack();
            assert!(back.approx_eq(&w, 1e-6), "layer {idx} reconstruction");
            idx += 1;
        });
        assert_eq!(idx, packed.layers.len());
    }

    #[test]
    fn packed_size_beats_fp32() {
        let mut m = finalized_model();
        let packed = PackedModel::pack(&mut m).unwrap();
        assert!(packed.size_bytes() < packed.fp32_size_bytes());
        // 8-bit planes everywhere -> roughly 4x, minus scale overhead.
        let comp = packed.compression();
        assert!(comp > 3.0 && comp <= 4.1, "compression {comp}");
    }

    #[test]
    fn float_model_is_rejected() {
        let mut fac = float_factory();
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        let err = PackedModel::pack(&mut m).unwrap_err();
        assert!(matches!(
            err,
            PackError::NotQuantized { ref layer } if layer == "0.weight"
        ));
        assert!(err.to_string().contains("finalize"));
        assert!(err.to_string().contains("0.weight"), "{err}");
    }

    #[test]
    fn unfinalized_quantizer_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let w = init::uniform(&[6, 6], -1.0, 1.0, &mut rng);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        q.set_beta(2.0); // soft gates: mid-training state
        let mut layer = Linear::new(Box::new(q), 6, 6, false);
        let err = PackedModel::pack(&mut layer).unwrap_err();
        assert!(matches!(
            err,
            PackError::GatesNotHard { ref layer } if layer == "weight"
        ));
        assert!(err.to_string().contains("finalize"), "{err}");
    }

    #[test]
    fn empty_model_compression_is_one() {
        let empty = PackedModel { layers: Vec::new() };
        assert_eq!(empty.size_bytes(), 0);
        assert_eq!(empty.fp32_size_bytes(), 0);
        assert_eq!(empty.compression(), 1.0);
    }

    #[test]
    fn packed_layers_carry_paths() {
        let mut m = finalized_model();
        let packed = PackedModel::pack(&mut m).unwrap();
        assert!(packed.layers.iter().all(|l| !l.path.is_empty()));
        assert_eq!(packed.layers[0].path, "0.weight");
    }

    #[test]
    fn size_accounting_matches_bit_math() {
        let pw = PackedWeight {
            path: "0.weight".to_string(),
            codes: vec![0; 100],
            step: 0.1,
            dims: vec![100],
            bits: 3.0,
        };
        // 300 bits -> 38 bytes + 4 scale.
        assert_eq!(pw.size_bytes(), 42);
        assert_eq!(PackedModel { layers: vec![pw] }.fp32_size_bytes(), 400);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = finalized_model();
        let packed = PackedModel::pack(&mut m).unwrap();
        for (i, w) in packed.layers.iter().enumerate() {
            let json = serde_json::to_string(w).unwrap();
            let back: PackedWeight = csq_obs::json::parse(&json, "weight").unwrap();
            assert_eq!(&back, w, "layer {i}");
        }
    }

    #[test]
    fn masked_bits_shrink_deployed_size() {
        // Prune the top 5 planes of every layer -> 3-bit codes.
        let mut fac = csq_factory(8);
        let mut m = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac, 1);
        m.visit_weight_sources(&mut |src| {
            src.apply_precision_reg(0.0); // no-op, just exercises the path
        });
        // Reach in through a fresh model at lower precision instead:
        // build uniform 3-bit and compare sizes.
        let mut fac3 = crate::bitrep::csq_uniform_factory(3);
        let mut m3 = resnet_cifar(ModelConfig::cifar_like(4, None, 0), &mut fac3, 1);
        m.visit_weight_sources(&mut |src| src.finalize());
        m3.visit_weight_sources(&mut |src| src.finalize());
        let p8 = PackedModel::pack(&mut m).unwrap();
        let p3 = PackedModel::pack(&mut m3).unwrap();
        assert!(p3.size_bytes() < p8.size_bytes());
    }
}
