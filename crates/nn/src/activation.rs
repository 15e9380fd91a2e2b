//! Activation functions and uniform activation fake-quantization.

use crate::layer::{Layer, ParamMut, ParamPath, ParamRole};
use csq_tensor::Tensor;

/// One activation on the uniform grid of `step` over `[0, range]`:
/// `round(clamp(v, 0, range)/step)·step`. [`ActQuant`], [`Pact`] and
/// the serving plan's act-quant op all compute this one expression, so
/// training's eval forward and a served answer agree bit for bit.
/// Forced inline so that every caller's loop, a vector body included,
/// compiles it in place.
#[inline(always)]
pub fn quantize_activation(v: f32, range: f32, step: f32) -> f32 {
    (v.clamp(0.0, range) / step).round() * step
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.iter().map(|&v| v > 0.0).collect());
        } else {
            self.mask = None;
        }
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = crate::layer::take_cache(
            &mut self.mask,
            "Relu::backward called before a training forward",
        );
        assert_eq!(mask.len(), grad_output.numel(), "grad shape mismatch");
        let mut g = grad_output.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::Relu);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "relu"
    }
}

/// Uniform activation fake-quantization with a straight-through backward.
///
/// The CSQ paper does not search activation precision: *"we quantize the
/// activation uniformly throughout the training process"* (§IV-A). This
/// layer implements that fixed scheme. Activations (assumed non-negative,
/// i.e. placed after ReLU) are clamped to `[0, r]` and rounded to
/// `bits`-bit levels; `r` is an exponential moving average of the batch
/// maximum, frozen at evaluation time. The backward pass is the clipped
/// straight-through estimator: gradients pass where `0 ≤ x ≤ r`.
///
/// With `bits = None` the layer is an exact passthrough (the "A-Bits = 32"
/// rows of the paper's tables).
#[derive(Debug)]
pub struct ActQuant {
    bits: Option<u32>,
    range: f32,
    range_momentum: f32,
    initialized: bool,
    pass_mask: Option<Vec<bool>>,
}

impl ActQuant {
    /// Creates an activation quantizer. `bits = None` disables
    /// quantization entirely.
    ///
    /// # Panics
    ///
    /// Panics if `bits == Some(0)` or `bits > Some(16)`.
    pub fn new(bits: Option<u32>) -> Self {
        if let Some(b) = bits {
            assert!((1..=16).contains(&b), "activation bits must be in 1..=16");
        }
        ActQuant {
            bits,
            range: 1.0,
            range_momentum: 0.99,
            initialized: false,
            pass_mask: None,
        }
    }

    /// The configured precision (None = passthrough).
    pub fn bits(&self) -> Option<u32> {
        self.bits
    }

    /// Current clipping range estimate.
    pub fn range(&self) -> f32 {
        self.range
    }
}

impl Layer for ActQuant {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some(bits) = self.bits else {
            if train {
                // Passthrough still needs a mask-free backward.
                self.pass_mask = None;
            }
            return input.clone();
        };
        if train {
            let batch_max = input.max_abs().max(1e-6);
            if self.initialized {
                self.range =
                    self.range_momentum * self.range + (1.0 - self.range_momentum) * batch_max;
            } else {
                self.range = batch_max;
                self.initialized = true;
            }
        }
        let r = self.range.max(1e-6);
        let levels = (2u32.pow(bits) - 1) as f32;
        let step = r / levels;
        let out = input.map(|v| quantize_activation(v, r, step));
        if train {
            self.pass_mask = Some(input.iter().map(|&v| (0.0..=r).contains(&v)).collect());
        } else {
            self.pass_mask = None;
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        if self.bits.is_none() {
            return grad_output.clone();
        }
        let mask = crate::layer::take_cache(
            &mut self.pass_mask,
            "ActQuant::backward called before a training forward",
        );
        assert_eq!(mask.len(), grad_output.numel(), "grad shape mismatch");
        let mut g = grad_output.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }

    fn visit_state_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &mut [f32])) {
        // Copy-in/copy-out so the initialization flag rides along with the
        // range EMA: a resumed run must not re-seed the range from its
        // first batch.
        let mut buf = [self.range, if self.initialized { 1.0 } else { 0.0 }];
        path.scoped("act_range", |p| f(p.as_str(), &mut buf));
        self.range = buf[0];
        self.initialized = buf[1] != 0.0;
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(match self.bits {
            None => crate::export::InferOp::Identity,
            Some(bits) => crate::export::InferOp::UniformActQuant {
                range: self.range.max(1e-6),
                levels: (2u32.pow(bits) - 1) as f32,
            },
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "act_quant"
    }
}

/// Which activation quantizer the model builders insert after each ReLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActMode {
    /// Running-max uniform quantization with STE ([`ActQuant`]); the
    /// paper's fixed uniform activation scheme.
    #[default]
    Uniform,
    /// PACT learnable-clip quantization ([`Pact`]); used by the PACT
    /// baseline rows.
    Pact,
}

/// PACT activation quantization (Choi et al. 2018): a *learnable*
/// clipping threshold α replaces the running-max range of [`ActQuant`].
///
/// Forward: `y = quantize(clamp(x, 0, α))` on a `bits`-bit uniform grid.
/// Backward: straight-through inside the clip; the gradient with respect
/// to α is `Σ dy over elements with x ≥ α` (the exact gradient of the
/// clip's upper boundary). α is trained with weight decay like the PACT
/// paper (decay keeps the range tight).
#[derive(Debug)]
pub struct Pact {
    bits: u32,
    alpha: Tensor,
    grad_alpha: Tensor,
    cache: Option<PactCache>,
}

#[derive(Debug)]
struct PactCache {
    /// 0 = below 0, 1 = inside [0, α), 2 = at/above α.
    region: Vec<u8>,
}

impl Pact {
    /// Creates a PACT quantizer with `bits` precision and initial α.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` or `alpha0` is not positive.
    pub fn new(bits: u32, alpha0: f32) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "activation bits must be in 1..=16"
        );
        assert!(alpha0 > 0.0, "initial alpha must be positive");
        Pact {
            bits,
            alpha: Tensor::from_vec(vec![alpha0], &[1]),
            grad_alpha: Tensor::zeros(&[1]),
            cache: None,
        }
    }

    /// Current clipping threshold α.
    pub fn alpha(&self) -> f32 {
        self.alpha.data()[0]
    }
}

impl Layer for Pact {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let a = self.alpha.data()[0].max(1e-6);
        let levels = (2u32.pow(self.bits) - 1) as f32;
        let step = a / levels;
        let out = input.map(|v| quantize_activation(v, a, step));
        if train {
            self.cache = Some(PactCache {
                region: input
                    .iter()
                    .map(|&v| {
                        if v < 0.0 {
                            0
                        } else if v < a {
                            1
                        } else {
                            2
                        }
                    })
                    .collect(),
            });
        } else {
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = crate::layer::take_cache(
            &mut self.cache,
            "Pact::backward called before a training forward",
        );
        assert_eq!(
            cache.region.len(),
            grad_output.numel(),
            "grad shape mismatch"
        );
        let mut g = grad_output.clone();
        let mut ga = 0.0f32;
        for (v, &r) in g.data_mut().iter_mut().zip(cache.region.iter()) {
            match r {
                0 => *v = 0.0,
                1 => {}
                _ => {
                    ga += *v;
                    *v = 0.0;
                }
            }
        }
        self.grad_alpha.data_mut()[0] += ga;
        g
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        // PACT decays α even though it is a scale, not a weight — the
        // documented exception to the role-derived decay policy.
        path.scoped("alpha", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::QuantScale,
                &mut self.alpha,
                &mut self.grad_alpha,
            )
            .with_decay(true))
        });
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::UniformActQuant {
            range: self.alpha.data()[0].max(1e-6),
            levels: (2u32.pow(self.bits) - 1) as f32,
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "pact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_negatives_and_masks_grads() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn act_quant_none_is_identity() {
        let mut q = ActQuant::new(None);
        let x = Tensor::from_vec(vec![-3.0, 0.5, 100.0], &[3]);
        assert!(q.forward(&x, true).approx_eq(&x, 0.0));
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert!(q.backward(&g).approx_eq(&g, 0.0));
    }

    #[test]
    fn act_quant_output_on_grid() {
        let mut q = ActQuant::new(Some(2));
        let x = Tensor::from_vec(vec![0.0, 0.3, 0.6, 1.0], &[4]);
        let y = q.forward(&x, true);
        // range = 1.0 (batch max), 2 bits -> levels {0, 1/3, 2/3, 1}.
        let step = 1.0 / 3.0;
        for &v in y.iter() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-5, "{v} not on grid");
        }
    }

    #[test]
    fn act_quant_ste_masks_out_of_range() {
        let mut q = ActQuant::new(Some(3));
        let x = Tensor::from_vec(vec![-0.5, 0.5, 0.9], &[3]);
        q.forward(&x, true);
        let g = q.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data()[0], 0.0, "negative input gets no gradient");
        assert_eq!(g.data()[1], 1.0);
        assert_eq!(g.data()[2], 1.0);
    }

    #[test]
    fn act_quant_range_freezes_at_eval() {
        let mut q = ActQuant::new(Some(4));
        q.forward(&Tensor::full(&[4], 2.0), true);
        let r = q.range();
        q.forward(&Tensor::full(&[4], 100.0), false);
        assert_eq!(q.range(), r, "eval must not update the range");
    }

    #[test]
    fn act_quant_range_tracks_ema() {
        let mut q = ActQuant::new(Some(4));
        q.forward(&Tensor::full(&[2], 1.0), true);
        assert!((q.range() - 1.0).abs() < 1e-6);
        q.forward(&Tensor::full(&[2], 2.0), true);
        assert!(q.range() > 1.0 && q.range() < 1.1, "EMA moves slowly");
    }

    #[test]
    #[should_panic(expected = "activation bits must be in 1..=16")]
    fn zero_bits_rejected() {
        ActQuant::new(Some(0));
    }

    #[test]
    fn pact_clips_at_alpha_and_quantizes() {
        let mut p = Pact::new(2, 1.0);
        let x = Tensor::from_vec(vec![-0.5, 0.3, 0.7, 2.0], &[4]);
        let y = p.forward(&x, false);
        assert_eq!(y.data()[0], 0.0, "negative clipped to zero");
        assert!(
            (y.data()[3] - 1.0).abs() < 1e-6,
            "above alpha clipped to alpha"
        );
        // 2 bits -> grid {0, 1/3, 2/3, 1}.
        for &v in y.iter() {
            let k = v * 3.0;
            assert!((k - k.round()).abs() < 1e-5, "{v} off grid");
        }
    }

    #[test]
    fn pact_alpha_gradient_counts_clipped_elements() {
        let mut p = Pact::new(4, 1.0);
        let x = Tensor::from_vec(vec![-1.0, 0.5, 1.5, 2.0], &[4]);
        p.forward(&x, true);
        let g = p.backward(&Tensor::ones(&[4]));
        // Gradient passes only inside [0, alpha).
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
        // d/dalpha accumulates one unit per clipped-above element.
        let mut grad_alpha = 0.0;
        p.visit_params(&mut |pm| grad_alpha = pm.grad.data()[0]);
        assert!((grad_alpha - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pact_alpha_is_trainable_with_decay() {
        let mut p = Pact::new(4, 2.0);
        let mut decays = Vec::new();
        p.visit_params(&mut |pm| decays.push(pm.decay));
        assert_eq!(decays, vec![true], "PACT decays alpha (keeps range tight)");
        assert_eq!(p.alpha(), 2.0);
    }

    #[test]
    fn pact_matches_finite_difference_on_alpha() {
        let mut p = Pact::new(8, 0.8);
        let x = Tensor::from_vec(vec![0.2, 0.9, 1.5], &[3]);
        let gy = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        p.forward(&x, true);
        p.backward(&gy);
        let mut ana = 0.0;
        p.visit_params(&mut |pm| ana = pm.grad.data()[0]);
        // Finite difference on alpha. With 8 bits the grid error is small
        // but nonzero, so allow a loose tolerance.
        let eps = 1e-2f32;
        let mut pp = Pact::new(8, 0.8 + eps);
        let lp = pp.forward(&x, false).dot(&gy);
        let mut pm_ = Pact::new(8, 0.8 - eps);
        let lm = pm_.forward(&x, false).dot(&gy);
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - ana).abs() < 0.3,
            "alpha grad: numeric {num} vs {ana}"
        );
    }

    #[test]
    #[should_panic(expected = "initial alpha must be positive")]
    fn pact_rejects_bad_alpha() {
        Pact::new(4, 0.0);
    }
}
