//! Fully-connected layer with a pluggable weight parameterization.

use crate::layer::{Layer, ParamMut, ParamPath, ParamRole};
use crate::weight::{FloatWeight, WeightSource};
use csq_tensor::{init, reduce, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fully-connected layer `y = x · Wᵀ + b` with weight shape
/// `[out_features, in_features]`, produced by a [`WeightSource`].
#[derive(Debug)]
pub struct Linear {
    weight: Box<dyn WeightSource>,
    bias: Option<(Tensor, Tensor)>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    cached_weight: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer from an already-constructed weight source.
    ///
    /// # Panics
    ///
    /// Panics if the source's element count mismatches
    /// `out_features * in_features`.
    pub fn new(
        weight: Box<dyn WeightSource>,
        in_features: usize,
        out_features: usize,
        bias: bool,
    ) -> Self {
        assert_eq!(
            weight.numel(),
            in_features * out_features,
            "weight source element count mismatch"
        );
        Linear {
            weight,
            bias: bias.then(|| {
                (
                    Tensor::zeros(&[out_features]),
                    Tensor::zeros(&[out_features]),
                )
            }),
            in_features,
            out_features,
            cached_input: None,
            cached_weight: None,
        }
    }

    /// Creates a float-weight layer with Kaiming-uniform init and a bias.
    pub fn with_float_weights(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = init::kaiming_uniform(&[out_features, in_features], &mut rng);
        Self::new(
            Box::new(FloatWeight::new(w)),
            in_features,
            out_features,
            true,
        )
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 2, "linear input must be [batch, features]");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "linear input feature mismatch"
        );
        let w = self.weight.materialize();
        let mut y = input.matmul_nt(&w);
        if let Some((b, _)) = &self.bias {
            y = y.add_row_bias(b);
        }
        if train {
            self.cached_input = Some(input.clone());
            self.cached_weight = Some(w);
        } else {
            self.cached_input = None;
            self.cached_weight = None;
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = crate::layer::take_cache(
            &mut self.cached_input,
            "Linear::backward called before a training forward",
        );
        let w = crate::layer::take_cache(
            &mut self.cached_weight,
            "Linear::backward missing cached weight",
        );
        // dW = dYᵀ · X ; dX = dY · W ; db = Σ_batch dY
        // The two matmuls are independent — run them as a deterministic
        // fork/join pair (each side is itself row-parallel).
        let (grad_w, grad_input) =
            csq_tensor::par::par_join(|| grad_output.matmul_tn(&input), || grad_output.matmul(&w));
        self.weight.backward(&grad_w);
        if let Some((_, gb)) = &mut self.bias {
            gb.add_assign_t(&reduce::sum_rows(grad_output));
        }
        grad_input
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        path.scoped("weight", |p| self.weight.visit_params_named(p, &mut *f));
        if let Some((b, gb)) = &mut self.bias {
            path.scoped("bias", |p| {
                f(ParamMut::new(p.as_str(), ParamRole::Bias, b, gb))
            });
        }
    }

    fn visit_weight_sources_named(
        &mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &mut dyn WeightSource),
    ) {
        path.scoped("weight", |p| f(p.as_str(), self.weight.as_mut()));
    }

    fn export_infer_ops(
        &self,
        path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        ops.push(crate::export::InferOp::Linear {
            weight: path.scoped("weight", |p| p.as_str().to_string()),
            in_features: self.in_features,
            out_features: self.out_features,
            bias: self.bias.as_ref().map(|(b, _)| b.data().to_vec()),
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::collect_grads;

    #[test]
    fn forward_matches_manual_matmul() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut layer = Linear::new(Box::new(FloatWeight::new(w)), 3, 2, false);
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[1.0 - 3.0, 4.0 - 6.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut layer = Linear::with_float_weights(3, 2, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let gy = init::uniform(&[4, 2], -1.0, 1.0, &mut rng);

        layer.forward(&x, true);
        let gx = layer.backward(&gy);
        let analytic = collect_grads(&mut layer);

        fn bump(layer: &mut Linear, pi: usize, delta: f32) {
            let mut seen = 0usize;
            layer.visit_params(&mut |p| {
                let n = p.value.numel();
                if pi >= seen && pi < seen + n {
                    p.value.data_mut()[pi - seen] += delta;
                }
                seen += n;
            });
        }
        let eps = 1e-2f32;
        let mut max_err = 0.0f32;
        for (pi, &grad) in analytic.iter().enumerate() {
            bump(&mut layer, pi, eps);
            let lp = layer.forward(&x, false).dot(&gy);
            bump(&mut layer, pi, -2.0 * eps);
            let lm = layer.forward(&x, false).dot(&gy);
            bump(&mut layer, pi, eps);
            max_err = max_err.max(((lp - lm) / (2.0 * eps) - grad).abs());
        }
        assert!(max_err < 5e-2, "max param-grad error {max_err}");

        // Input gradient via directional finite difference.
        let dx = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
        let mut xp = x.clone();
        xp.axpy(eps, &dx);
        let mut xm = x.clone();
        xm.axpy(-eps, &dx);
        let num =
            (layer.forward(&xp, false).dot(&gy) - layer.forward(&xm, false).dot(&gy)) / (2.0 * eps);
        assert!((num - gx.dot(&dx)).abs() < 5e-2);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn wrong_input_width_panics() {
        let mut layer = Linear::with_float_weights(3, 2, 0);
        layer.forward(&Tensor::zeros(&[1, 4]), false);
    }
}
