//! 2-D convolution layer with a pluggable weight parameterization.

use crate::layer::{Layer, ParamMut, ParamPath, ParamRole};
use crate::weight::{FloatWeight, WeightSource};
use csq_tensor::conv::{conv2d_backward_with_scratch, conv2d_with_scratch, ConvSpec};
use csq_tensor::par::ScratchPool;
use csq_tensor::{init, reduce, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 2-D convolution whose weight tensor is produced by a
/// [`WeightSource`] — a float tensor, the CSQ bit-level parameterization,
/// or any baseline quantizer.
///
/// The weight is `[OC, IC/G, K, K]`, and the group count `G` follows
/// from its size: a dense conv holds `OC·IC·K²` elements (`G = 1`), and
/// a depthwise conv over `C` channels (MobileNetV2) holds a
/// `[C, 1, K, K]` weight (`G = C`). Every group's filters are quantized
/// the same way, by the same source.
///
/// Bias is optional; the paper's models use BatchNorm after every
/// convolution, so conv biases are disabled there.
#[derive(Debug)]
pub struct Conv2d {
    weight: Box<dyn WeightSource>,
    bias: Option<(Tensor, Tensor)>,
    spec: ConvSpec,
    in_channels: usize,
    out_channels: usize,
    cached_input: Option<Tensor>,
    cached_weight: Option<Tensor>,
    // im2col / gradient workspaces, reused across training steps.
    scratch: ScratchPool,
}

impl Conv2d {
    /// Creates a convolution from an already-constructed weight source
    /// of `OC·(IC/G)·K²` elements.
    ///
    /// # Panics
    ///
    /// Panics if no group count `G` dividing both `in_channels` and
    /// `out_channels` fits the source's element count.
    pub fn new(
        weight: Box<dyn WeightSource>,
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
        bias: bool,
    ) -> Self {
        // The source holds OC·(IC/G)·K² elements, and G = IC / (IC/G).
        let taps = out_channels * spec.kernel * spec.kernel;
        let group_in = weight.numel().checked_div(taps).unwrap_or(0);
        let groups = in_channels.checked_div(group_in).unwrap_or(0);
        assert!(
            groups > 0
                && group_in * taps == weight.numel()
                && groups * group_in == in_channels
                && out_channels.is_multiple_of(groups),
            "weight source element count mismatch"
        );
        Conv2d {
            weight,
            bias: bias.then(|| {
                (
                    Tensor::zeros(&[out_channels]),
                    Tensor::zeros(&[out_channels]),
                )
            }),
            spec,
            in_channels,
            out_channels,
            cached_input: None,
            cached_weight: None,
            scratch: ScratchPool::new(),
        }
    }

    /// Creates a float-weight convolution with Kaiming-normal init
    /// (convenience for tests and examples).
    pub fn with_float_weights(
        in_channels: usize,
        out_channels: usize,
        spec: ConvSpec,
        bias: bool,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = init::kaiming_normal(
            &[out_channels, in_channels, spec.kernel, spec.kernel],
            &mut rng,
        );
        Self::new(
            Box::new(FloatWeight::new(w)),
            in_channels,
            out_channels,
            spec,
            bias,
        )
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.dims()[1],
            self.in_channels,
            "conv input channel mismatch"
        );
        let w = self.weight.materialize();
        let mut y = conv2d_with_scratch(input, &w, self.spec, &self.scratch);
        if let Some((b, _)) = &self.bias {
            y = y.add_channel_bias(b);
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
            "Conv2d::backward called before a training forward",
        );
        let w = crate::layer::take_cache(
            &mut self.cached_weight,
            "Conv2d::backward missing cached weight",
        );
        let (grad_input, grad_w) =
            conv2d_backward_with_scratch(&input, &w, grad_output, self.spec, &self.scratch);
        self.weight.backward(&grad_w);
        if let Some((_, gb)) = &mut self.bias {
            gb.add_assign_t(&reduce::sum_channels(grad_output));
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
        ops.push(crate::export::InferOp::Conv2d {
            weight: path.scoped("weight", |p| p.as_str().to_string()),
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.spec.kernel,
            stride: self.spec.stride,
            padding: self.spec.padding,
            bias: self.bias.as_ref().map(|(b, _)| b.data().to_vec()),
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::collect_grads;

    fn fd_check_conv(bias: bool) {
        let layer = Conv2d::with_float_weights(2, 3, ConvSpec::new(3, 1, 1), bias, 42);
        fd_check(layer, 2, 3);
    }

    /// Finite differences on every parameter of `layer`, a 3×3 "same"
    /// conv from `ic` to `oc` channels.
    fn fd_check(mut layer: Conv2d, ic: usize, oc: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = init::uniform(&[1, ic, 4, 4], -1.0, 1.0, &mut rng);
        let gy_template = init::uniform(&[1, oc, 4, 4], -1.0, 1.0, &mut rng);

        let y = layer.forward(&x, true);
        let _gx = layer.backward(&gy_template);
        let analytic = collect_grads(&mut layer);

        // Finite differences on every parameter.
        fn bump(layer: &mut Conv2d, pi: usize, delta: f32) {
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
            let lp = layer.forward(&x, false).dot(&gy_template);
            bump(&mut layer, pi, -2.0 * eps);
            let lm = layer.forward(&x, false).dot(&gy_template);
            bump(&mut layer, pi, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            max_err = max_err.max((numeric - grad).abs());
        }
        assert!(max_err < 5e-2, "max param-grad error {max_err}");
        let _ = y;
    }

    #[test]
    fn gradients_match_finite_difference_no_bias() {
        fd_check_conv(false);
    }

    #[test]
    fn gradients_match_finite_difference_with_bias() {
        fd_check_conv(true);
    }

    /// A depthwise conv is a `Conv2d` whose `[C, 1, K, K]` weight makes
    /// `G = C`; its weight gradient reaches the source.
    #[test]
    fn depthwise_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let w = FloatWeight::new(init::kaiming_normal(&[3, 1, 3, 3], &mut rng));
        let layer = Conv2d::new(Box::new(w), 3, 3, ConvSpec::new(3, 1, 1), false);
        fd_check(layer, 3, 3);
    }

    #[test]
    #[should_panic(expected = "weight source element count mismatch")]
    fn weight_that_fits_no_group_count_panics() {
        // 4·2·9 elements over 3 input channels: IC/G = 2 does not divide 3.
        let w = FloatWeight::new(Tensor::zeros(&[4, 2, 3, 3]));
        Conv2d::new(Box::new(w), 3, 4, ConvSpec::new(3, 1, 1), false);
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut layer = Conv2d::with_float_weights(1, 1, ConvSpec::new(3, 1, 1), false, 0);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        layer.forward(&x, false);
        assert!(layer.cached_input.is_none());
    }

    #[test]
    #[should_panic(expected = "backward called before a training forward")]
    fn backward_without_forward_panics() {
        let mut layer = Conv2d::with_float_weights(1, 1, ConvSpec::new(3, 1, 1), false, 0);
        layer.backward(&Tensor::zeros(&[1, 1, 4, 4]));
    }

    #[test]
    fn bias_changes_output_by_constant() {
        let mut layer = Conv2d::with_float_weights(1, 2, ConvSpec::new(1, 1, 0), true, 3);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y0 = layer.forward(&x, false);
        layer.visit_params(&mut |p| {
            if p.value.dims() == [2] {
                p.value.fill(5.0);
            }
        });
        let y1 = layer.forward(&x, false);
        assert!(y1.sub(&y0).iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }
}
