//! Residual connection container (ResNet basic and bottleneck blocks).

use crate::layer::{Layer, ParamMut, ParamPath};
use crate::sequential::Sequential;
use crate::weight::WeightSource;
use csq_tensor::Tensor;

/// A residual block: `y = post(main(x) + shortcut(x))`.
///
/// The `main` path holds the block's convolutions (two 3×3 convs for a
/// basic block, a 1×1/3×3/1×1 stack for a bottleneck); the optional
/// `shortcut` is the projection used when shape changes (stride > 1 or a
/// channel change); `post` is the final ReLU (plus activation
/// quantization when configured). The actual ResNet block contents are
/// assembled by [`crate::models`].
#[derive(Debug)]
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    post: Sequential,
}

impl Residual {
    /// Creates a residual block from its three parts. Pass
    /// `shortcut = None` for an identity skip connection.
    pub fn new(main: Sequential, shortcut: Option<Sequential>, post: Sequential) -> Self {
        Residual {
            main,
            shortcut,
            post,
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let m = self.main.forward(input, train);
        let s = match &mut self.shortcut {
            Some(sc) => sc.forward(input, train),
            None => input.clone(),
        };
        assert_eq!(
            m.dims(),
            s.dims(),
            "residual main/shortcut shape mismatch — block misconfigured"
        );
        self.post.forward(&m.add(&s), train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.post.backward(grad_output);
        let g_main = self.main.backward(&g);
        let g_short = match &mut self.shortcut {
            Some(sc) => sc.backward(&g),
            None => g,
        };
        g_main.add(&g_short)
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        path.scoped("main", |p| self.main.visit_params_named(p, &mut *f));
        if let Some(sc) = &mut self.shortcut {
            path.scoped("shortcut", |p| sc.visit_params_named(p, &mut *f));
        }
        path.scoped("post", |p| self.post.visit_params_named(p, &mut *f));
    }

    fn visit_weight_sources_named(
        &mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &mut dyn WeightSource),
    ) {
        path.scoped("main", |p| self.main.visit_weight_sources_named(p, &mut *f));
        if let Some(sc) = &mut self.shortcut {
            path.scoped("shortcut", |p| sc.visit_weight_sources_named(p, &mut *f));
        }
        path.scoped("post", |p| self.post.visit_weight_sources_named(p, &mut *f));
    }

    fn visit_state_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &mut [f32])) {
        path.scoped("main", |p| self.main.visit_state_named(p, &mut *f));
        if let Some(sc) = &mut self.shortcut {
            path.scoped("shortcut", |p| sc.visit_state_named(p, &mut *f));
        }
        path.scoped("post", |p| self.post.visit_state_named(p, &mut *f));
    }

    fn visit_kinds(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'static str)) {
        f(path.as_str(), self.kind());
        path.scoped("main", |p| self.main.visit_kinds(p, &mut *f));
        if let Some(sc) = &mut self.shortcut {
            path.scoped("shortcut", |p| sc.visit_kinds(p, &mut *f));
        }
        path.scoped("post", |p| self.post.visit_kinds(p, &mut *f));
    }

    fn export_infer_ops(
        &self,
        path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        let mut main = Vec::new();
        path.scoped("main", |p| self.main.export_infer_ops(p, &mut main))?;
        let mut shortcut = Vec::new();
        if let Some(s) = &self.shortcut {
            path.scoped("shortcut", |p| s.export_infer_ops(p, &mut shortcut))?;
        }
        let mut post = Vec::new();
        path.scoped("post", |p| self.post.export_infer_ops(p, &mut post))?;
        ops.push(crate::export::InferOp::Residual {
            main,
            shortcut,
            post,
        });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::batchnorm::BatchNorm2d;
    use crate::conv::Conv2d;
    use csq_tensor::conv::ConvSpec;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_block() -> Residual {
        let spec = ConvSpec::new(3, 1, 1);
        let main = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(2, 2, spec, false, 1)),
            Box::new(BatchNorm2d::new(2)),
            Box::new(Relu::new()),
            Box::new(Conv2d::with_float_weights(2, 2, spec, false, 2)),
            Box::new(BatchNorm2d::new(2)),
        ]);
        let post = Sequential::new(vec![Box::new(Relu::new()) as Box<dyn Layer>]);
        Residual::new(main, None, post)
    }

    #[test]
    fn identity_skip_preserves_shape() {
        let mut block = tiny_block();
        let x = Tensor::ones(&[2, 2, 4, 4]);
        let y = block.forward(&x, false);
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn backward_adds_skip_gradient() {
        let mut block = tiny_block();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = init::uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, true);
        let gy = init::uniform(y.dims(), -1.0, 1.0, &mut rng);
        let gx = block.backward(&gy);

        // Directional finite-difference check through the whole block.
        let eps = 1e-2f32;
        let dx = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
        let mut block2 = tiny_block();
        let mut xp = x.clone();
        xp.axpy(eps, &dx);
        let mut xm = x.clone();
        xm.axpy(-eps, &dx);
        let lp = block2.forward(&xp, true).dot(&gy);
        let lm = block2.forward(&xm, true).dot(&gy);
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - gx.dot(&dx)).abs() < 5e-2 * (1.0 + num.abs()),
            "numeric {num} vs analytic {}",
            gx.dot(&dx)
        );
    }

    #[test]
    fn projection_shortcut_changes_channels() {
        let spec = ConvSpec::new(3, 2, 1);
        let main = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(2, 4, spec, false, 1)) as Box<dyn Layer>,
            Box::new(BatchNorm2d::new(4)),
        ]);
        let shortcut = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(
                2,
                4,
                ConvSpec::new(1, 2, 0),
                false,
                2,
            )) as Box<dyn Layer>,
            Box::new(BatchNorm2d::new(4)),
        ]);
        let post = Sequential::new(vec![Box::new(Relu::new()) as Box<dyn Layer>]);
        let mut block = Residual::new(main, Some(shortcut), post);
        let y = block.forward(&Tensor::ones(&[1, 2, 8, 8]), false);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn param_paths_name_branches() {
        let mut block = tiny_block();
        let paths = crate::layer::collect_param_paths(&mut block);
        assert_eq!(
            paths,
            vec![
                "main.0.weight",
                "main.1.gamma",
                "main.1.beta",
                "main.3.weight",
                "main.4.gamma",
                "main.4.beta",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn misconfigured_block_panics() {
        let spec = ConvSpec::new(3, 2, 1); // stride 2 but identity skip
        let main = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(2, 2, spec, false, 1)) as Box<dyn Layer>,
        ]);
        let post = Sequential::empty();
        let mut block = Residual::new(main, None, post);
        block.forward(&Tensor::ones(&[1, 2, 8, 8]), false);
    }
}
