//! Faithful builders for the paper's model families.
//!
//! Every builder takes a *weight factory* that converts a Kaiming-
//! initialized float tensor into a [`WeightSource`](crate::weight::WeightSource), so the identical
//! architecture (and identical initialization stream) can be trained in
//! full precision, with CSQ, or with any baseline quantizer — matching the
//! paper's setup where all methods train the same model from scratch.
//!
//! Architectures:
//!
//! * [`resnet20`] — the CIFAR-10 ResNet of He et al.: 3×3 stem, three
//!   stages of three basic blocks at widths `w, 2w, 4w` (paper width
//!   `w = 16`), global average pooling, linear classifier.
//! * [`resnet18`] / [`resnet50`] — stages `[2,2,2,2]` of basic blocks /
//!   `[3,4,6,3]` of bottleneck blocks at widths `w..8w` (paper `w = 64`).
//!   Because this reproduction trains on small synthetic images, the stem
//!   is the 3×3 CIFAR-style stem rather than 7×7/stride-2 + maxpool; the
//!   depth, block structure and channel progression are unchanged (see
//!   DESIGN.md §2).
//! * [`vgg19bn`] — the 16-conv + classifier VGG-19 with batch norm;
//!   max-pools are skipped once the spatial extent reaches 1 so the same
//!   architecture runs on reduced image sizes.
//!
//! The `width` knob scales every channel count proportionally; paper-scale
//! widths reproduce the original parameter counts exactly.

use crate::activation::{ActMode, ActQuant, Pact, Relu};
use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::layer::Layer;
use crate::linear::Linear;
use crate::pool::{Flatten, GlobalAvgPool, MaxPool2d};
use crate::residual::Residual;
use crate::sequential::Sequential;
use crate::weight::WeightFactory;
use csq_tensor::conv::ConvSpec;
use csq_tensor::init;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration shared by all model builders.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Number of output classes.
    pub num_classes: usize,
    /// Base width (first-stage channel count). Paper scale: 16 for
    /// ResNet-20, 64 for ResNet-18/50 and VGG19BN.
    pub width: usize,
    /// Input image channels (3 for the synthetic datasets).
    pub input_channels: usize,
    /// Input spatial extent (square images).
    pub input_size: usize,
    /// Activation quantization precision (`None` = full precision).
    pub act_bits: Option<u32>,
    /// Which activation quantizer to insert (ignored when `act_bits` is
    /// `None`).
    pub act_mode: ActMode,
    /// Seed for the weight-initialization stream.
    pub seed: u64,
}

impl ModelConfig {
    /// A small CIFAR-like default: 10 classes, 3×16×16 input.
    pub fn cifar_like(width: usize, act_bits: Option<u32>, seed: u64) -> Self {
        ModelConfig {
            num_classes: 10,
            width,
            input_channels: 3,
            input_size: 16,
            act_bits,
            act_mode: ActMode::Uniform,
            seed,
        }
    }

    /// Builder-style override of the activation quantizer kind.
    pub fn with_act_mode(mut self, act_mode: ActMode) -> Self {
        self.act_mode = act_mode;
        self
    }

    /// A small ImageNet-like default: 100 classes, 3×24×24 input.
    pub fn imagenet_like(width: usize, act_bits: Option<u32>, seed: u64) -> Self {
        ModelConfig {
            num_classes: 100,
            width,
            input_channels: 3,
            input_size: 24,
            act_bits,
            act_mode: ActMode::Uniform,
            seed,
        }
    }
}

/// Internal helper carrying the init RNG and factory through construction.
struct Builder<'a> {
    rng: ChaCha8Rng,
    factory: &'a mut WeightFactory<'a>,
    act_bits: Option<u32>,
    act_mode: ActMode,
}

impl<'a> Builder<'a> {
    fn conv(&mut self, in_c: usize, out_c: usize, spec: ConvSpec) -> Box<dyn Layer> {
        let w0 = init::kaiming_normal(&[out_c, in_c, spec.kernel, spec.kernel], &mut self.rng);
        Box::new(Conv2d::new((self.factory)(w0), in_c, out_c, spec, false))
    }

    fn linear(&mut self, in_f: usize, out_f: usize) -> Box<dyn Layer> {
        let w0 = init::kaiming_uniform(&[out_f, in_f], &mut self.rng);
        Box::new(Linear::new((self.factory)(w0), in_f, out_f, true))
    }

    /// conv → BN → ReLU → (activation quant)
    fn conv_bn_relu(&mut self, in_c: usize, out_c: usize, spec: ConvSpec) -> Vec<Box<dyn Layer>> {
        let mut v: Vec<Box<dyn Layer>> = vec![
            self.conv(in_c, out_c, spec),
            Box::new(BatchNorm2d::new(out_c)),
            Box::new(Relu::new()),
        ];
        if let Some(bits) = self.act_bits {
            v.push(self.act_quant(bits));
        }
        v
    }

    fn act_quant(&self, bits: u32) -> Box<dyn Layer> {
        match self.act_mode {
            ActMode::Uniform => Box::new(ActQuant::new(Some(bits))),
            ActMode::Pact => Box::new(Pact::new(bits, 4.0)),
        }
    }

    /// ReLU → (activation quant), the `post` path of residual blocks.
    fn post(&mut self) -> Sequential {
        let mut v: Vec<Box<dyn Layer>> = vec![Box::new(Relu::new())];
        if let Some(bits) = self.act_bits {
            v.push(self.act_quant(bits));
        }
        Sequential::new(v)
    }

    fn basic_block(&mut self, in_c: usize, out_c: usize, stride: usize) -> Box<dyn Layer> {
        let mut main: Vec<Box<dyn Layer>> =
            self.conv_bn_relu(in_c, out_c, ConvSpec::new(3, stride, 1));
        main.push(self.conv(out_c, out_c, ConvSpec::new(3, 1, 1)));
        main.push(Box::new(BatchNorm2d::new(out_c)));
        let shortcut = (stride != 1 || in_c != out_c).then(|| {
            Sequential::new(vec![
                self.conv(in_c, out_c, ConvSpec::new(1, stride, 0)),
                Box::new(BatchNorm2d::new(out_c)),
            ])
        });
        let post = self.post();
        Box::new(Residual::new(Sequential::new(main), shortcut, post))
    }

    fn bottleneck_block(
        &mut self,
        in_c: usize,
        mid_c: usize,
        stride: usize,
        expansion: usize,
    ) -> Box<dyn Layer> {
        let out_c = mid_c * expansion;
        let mut main: Vec<Box<dyn Layer>> = self.conv_bn_relu(in_c, mid_c, ConvSpec::new(1, 1, 0));
        main.extend(self.conv_bn_relu(mid_c, mid_c, ConvSpec::new(3, stride, 1)));
        main.push(self.conv(mid_c, out_c, ConvSpec::new(1, 1, 0)));
        main.push(Box::new(BatchNorm2d::new(out_c)));
        let shortcut = (stride != 1 || in_c != out_c).then(|| {
            Sequential::new(vec![
                self.conv(in_c, out_c, ConvSpec::new(1, stride, 0)),
                Box::new(BatchNorm2d::new(out_c)),
            ])
        });
        let post = self.post();
        Box::new(Residual::new(Sequential::new(main), shortcut, post))
    }
}

/// Builds the CIFAR-style ResNet-20.
///
/// # Panics
///
/// Panics when the configuration is degenerate (zero width or classes).
pub fn resnet20(cfg: ModelConfig, factory: &mut WeightFactory<'_>) -> Sequential {
    resnet_cifar(cfg, factory, 3)
}

/// The CIFAR ResNet family: `6n + 2` layers with `n` blocks per stage
/// (ResNet-20 is `n = 3`). Exposed so tests can build the smaller
/// ResNet-8 (`n = 1`) quickly.
///
/// # Panics
///
/// Panics when the configuration is degenerate.
pub fn resnet_cifar(
    cfg: ModelConfig,
    factory: &mut WeightFactory<'_>,
    blocks_per_stage: usize,
) -> Sequential {
    assert!(cfg.width > 0 && cfg.num_classes > 0, "degenerate config");
    let mut b = Builder {
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        factory,
        act_bits: cfg.act_bits,
        act_mode: cfg.act_mode,
    };
    let w = cfg.width;
    let mut layers: Vec<Box<dyn Layer>> =
        b.conv_bn_relu(cfg.input_channels, w, ConvSpec::new(3, 1, 1));
    let widths = [w, 2 * w, 4 * w];
    let mut in_c = w;
    for (stage, &out_c) in widths.iter().enumerate() {
        for block in 0..blocks_per_stage {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            layers.push(b.basic_block(in_c, out_c, stride));
            in_c = out_c;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(b.linear(in_c, cfg.num_classes));
    Sequential::new(layers)
}

/// Builds ResNet-18 (basic blocks, stages `[2, 2, 2, 2]`).
///
/// # Panics
///
/// Panics when the configuration is degenerate.
pub fn resnet18(cfg: ModelConfig, factory: &mut WeightFactory<'_>) -> Sequential {
    assert!(cfg.width > 0 && cfg.num_classes > 0, "degenerate config");
    let mut b = Builder {
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        factory,
        act_bits: cfg.act_bits,
        act_mode: cfg.act_mode,
    };
    let w = cfg.width;
    let mut layers: Vec<Box<dyn Layer>> =
        b.conv_bn_relu(cfg.input_channels, w, ConvSpec::new(3, 1, 1));
    let widths = [w, 2 * w, 4 * w, 8 * w];
    let mut in_c = w;
    for (stage, &out_c) in widths.iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            layers.push(b.basic_block(in_c, out_c, stride));
            in_c = out_c;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(b.linear(in_c, cfg.num_classes));
    Sequential::new(layers)
}

/// Builds ResNet-50 (bottleneck blocks, stages `[3, 4, 6, 3]`,
/// expansion 4).
///
/// # Panics
///
/// Panics when the configuration is degenerate.
pub fn resnet50(cfg: ModelConfig, factory: &mut WeightFactory<'_>) -> Sequential {
    assert!(cfg.width > 0 && cfg.num_classes > 0, "degenerate config");
    let mut b = Builder {
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        factory,
        act_bits: cfg.act_bits,
        act_mode: cfg.act_mode,
    };
    let w = cfg.width;
    const EXPANSION: usize = 4;
    let mut layers: Vec<Box<dyn Layer>> =
        b.conv_bn_relu(cfg.input_channels, w, ConvSpec::new(3, 1, 1));
    let stage_blocks = [3usize, 4, 6, 3];
    let widths = [w, 2 * w, 4 * w, 8 * w];
    let mut in_c = w;
    for (stage, (&mid_c, &n_blocks)) in widths.iter().zip(stage_blocks.iter()).enumerate() {
        for block in 0..n_blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            layers.push(b.bottleneck_block(in_c, mid_c, stride, EXPANSION));
            in_c = mid_c * EXPANSION;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(b.linear(in_c, cfg.num_classes));
    Sequential::new(layers)
}

/// Builds VGG-19 with batch normalization.
///
/// Channel plan `[64,64,M,128,128,M,256×4,M,512×4,M,512×4,M]` scaled by
/// `cfg.width / 64`; a trailing global-average-pool + linear classifier
/// (the common CIFAR adaptation). Max-pools that would reduce the spatial
/// extent below 1 are skipped so reduced input sizes remain valid.
///
/// # Panics
///
/// Panics when the configuration is degenerate.
pub fn vgg19bn(cfg: ModelConfig, factory: &mut WeightFactory<'_>) -> Sequential {
    assert!(cfg.width > 0 && cfg.num_classes > 0, "degenerate config");
    let mut b = Builder {
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        factory,
        act_bits: cfg.act_bits,
        act_mode: cfg.act_mode,
    };
    let scale = |c: usize| -> usize { ((c * cfg.width) / 64).max(1) };
    // '0' encodes a max-pool in the classic VGG config string.
    let plan: [usize; 21] = [
        64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512, 512, 0,
    ];
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut in_c = cfg.input_channels;
    let mut spatial = cfg.input_size;
    for &entry in &plan {
        if entry == 0 {
            if spatial >= 2 {
                layers.push(Box::new(MaxPool2d::new(2, 2)));
                spatial /= 2;
            }
        } else {
            let out_c = scale(entry);
            layers.extend(b.conv_bn_relu(in_c, out_c, ConvSpec::new(3, 1, 1)));
            in_c = out_c;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Flatten::new()));
    layers.push(b.linear(in_c, cfg.num_classes));
    Sequential::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::count_params;
    use crate::weight::float_factory;
    use csq_tensor::Tensor;

    fn build<F>(f: F, cfg: ModelConfig) -> Sequential
    where
        F: Fn(ModelConfig, &mut WeightFactory<'_>) -> Sequential,
    {
        let mut fac = float_factory();
        f(cfg, &mut fac)
    }

    #[test]
    fn resnet20_forward_shape() {
        let cfg = ModelConfig::cifar_like(4, None, 0);
        let mut m = build(resnet20, cfg);
        let y = m.forward(&Tensor::ones(&[2, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn resnet20_paper_scale_param_count() {
        // The real ResNet-20 has ~272k parameters (0.27M).
        let cfg = ModelConfig {
            num_classes: 10,
            width: 16,
            input_channels: 3,
            input_size: 32,
            act_bits: None,
            act_mode: ActMode::Uniform,
            seed: 0,
        };
        let mut m = build(resnet20, cfg);
        let n = count_params(&mut m);
        assert!(
            (260_000..290_000).contains(&n),
            "ResNet-20 param count {n} outside expected range"
        );
    }

    #[test]
    fn resnet18_forward_shape() {
        let cfg = ModelConfig::imagenet_like(4, Some(4), 0);
        let mut m = build(resnet18, cfg);
        let y = m.forward(&Tensor::ones(&[1, 3, 24, 24]), false);
        assert_eq!(y.dims(), &[1, 100]);
    }

    #[test]
    fn resnet50_forward_shape() {
        let cfg = ModelConfig {
            num_classes: 7,
            width: 4,
            input_channels: 3,
            input_size: 16,
            act_bits: None,
            act_mode: ActMode::Uniform,
            seed: 0,
        };
        let mut m = build(resnet50, cfg);
        let y = m.forward(&Tensor::ones(&[1, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[1, 7]);
    }

    #[test]
    fn vgg19bn_forward_shape_small_input() {
        let cfg = ModelConfig::cifar_like(8, Some(8), 0);
        let mut m = build(vgg19bn, cfg);
        let y = m.forward(&Tensor::ones(&[1, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn quantized_layer_counts() {
        // ResNet-20 has 19 convs + 3 shortcut convs? No: stage transitions
        // at stages 2 and 3 -> 2 projection shortcuts. Total weight
        // sources: 1 stem + 18 block convs + 2 shortcuts + 1 fc = 22.
        let cfg = ModelConfig::cifar_like(4, None, 0);
        let mut m = build(resnet20, cfg);
        let mut count = 0;
        m.visit_weight_sources(&mut |_| count += 1);
        assert_eq!(count, 22);
    }

    #[test]
    fn vgg_has_16_convs_and_a_classifier() {
        let cfg = ModelConfig::cifar_like(8, None, 0);
        let mut m = build(vgg19bn, cfg);
        let mut count = 0;
        m.visit_weight_sources(&mut |_| count += 1);
        assert_eq!(count, 17);
    }

    #[test]
    fn same_seed_same_model() {
        let cfg = ModelConfig::cifar_like(4, None, 9);
        let mut a = build(resnet20, cfg);
        let mut b = build(resnet20, cfg);
        let x = Tensor::ones(&[1, 3, 16, 16]);
        assert!(a.forward(&x, false).approx_eq(&b.forward(&x, false), 0.0));
    }

    #[test]
    fn act_bits_inserts_quantizers() {
        let cfg = ModelConfig::cifar_like(4, Some(4), 0);
        let mut m = build(resnet20, cfg);
        // Train-mode forward then backward must work end to end.
        let x = Tensor::ones(&[2, 3, 16, 16]);
        let y = m.forward(&x, true);
        let g = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }
}

/// Builds MobileNetV2 (Sandler et al. 2018) — the mobile architecture the
/// paper's introduction motivates quantization with.
///
/// Inverted residual blocks: 1×1 expansion (ratio 6) → 3×3 depthwise →
/// 1×1 linear projection, with an identity skip when the shape is
/// preserved. The stage plan follows the original
/// `(t, c, n, s)` table scaled by `cfg.width / 32` (the original stem
/// width); spatial strides are halved-down only while the feature map
/// stays ≥ 2 px so reduced input sizes remain valid.
///
/// # Panics
///
/// Panics when the configuration is degenerate.
pub fn mobilenet_v2(cfg: ModelConfig, factory: &mut WeightFactory<'_>) -> Sequential {
    assert!(cfg.width > 0 && cfg.num_classes > 0, "degenerate config");
    let mut b = Builder {
        rng: ChaCha8Rng::seed_from_u64(cfg.seed),
        factory,
        act_bits: cfg.act_bits,
        act_mode: cfg.act_mode,
    };
    let scale = |c: usize| -> usize { ((c * cfg.width) / 32).max(2) };
    // (expansion t, channels c, repeats n, stride s) from the paper.
    let plan: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut spatial = cfg.input_size;
    let stem_c = scale(32);
    let mut layers: Vec<Box<dyn Layer>> =
        b.conv_bn_relu(cfg.input_channels, stem_c, ConvSpec::new(3, 1, 1));
    let mut in_c = stem_c;
    for &(t, c, n, s) in &plan {
        let out_c = scale(c);
        for rep in 0..n {
            // Only downsample while the map is big enough to halve.
            let stride = if rep == 0 && s == 2 && spatial >= 4 {
                spatial /= 2;
                2
            } else {
                1
            };
            layers.push(b.inverted_residual(in_c, out_c, t, stride));
            in_c = out_c;
        }
    }
    let head_c = scale(1280).min(in_c * 4);
    layers.extend(b.conv_bn_relu(in_c, head_c, ConvSpec::new(1, 1, 0)));
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(b.linear(head_c, cfg.num_classes));
    Sequential::new(layers)
}

impl<'a> Builder<'a> {
    /// MobileNetV2 inverted residual: expand → depthwise → project, with
    /// an identity skip when shape-preserving. The projection is
    /// *linear* (no ReLU), per the original design.
    fn inverted_residual(
        &mut self,
        in_c: usize,
        out_c: usize,
        expansion: usize,
        stride: usize,
    ) -> Box<dyn Layer> {
        let mid_c = in_c * expansion;
        let mut main: Vec<Box<dyn Layer>> = Vec::new();
        if expansion != 1 {
            main.extend(self.conv_bn_relu(in_c, mid_c, ConvSpec::new(1, 1, 0)));
        }
        // Depthwise 3x3: a [C, 1, 3, 3] weight, one group per channel.
        let w0 = init::kaiming_normal(&[mid_c, 1, 3, 3], &mut self.rng);
        main.push(Box::new(Conv2d::new(
            (self.factory)(w0),
            mid_c,
            mid_c,
            ConvSpec::new(3, stride, 1),
            false,
        )));
        main.push(Box::new(BatchNorm2d::new(mid_c)));
        main.push(Box::new(Relu::new()));
        if let Some(bits) = self.act_bits {
            main.push(self.act_quant(bits));
        }
        // Linear projection.
        main.push(self.conv(mid_c, out_c, ConvSpec::new(1, 1, 0)));
        main.push(Box::new(BatchNorm2d::new(out_c)));

        let identity_skip = stride == 1 && in_c == out_c;
        let shortcut = (!identity_skip).then(|| {
            Sequential::new(vec![
                self.conv(in_c, out_c, ConvSpec::new(1, stride, 0)),
                Box::new(BatchNorm2d::new(out_c)),
            ])
        });
        // Post is empty: the block output is the linear projection (+skip).
        Box::new(Residual::new(
            Sequential::new(main),
            shortcut,
            Sequential::empty(),
        ))
    }
}

#[cfg(test)]
mod mobilenet_tests {
    use super::*;
    use crate::layer::count_params;
    use crate::weight::float_factory;
    use csq_tensor::Tensor;

    #[test]
    fn mobilenet_v2_forward_shape() {
        let cfg = ModelConfig::cifar_like(8, None, 0);
        let mut fac = float_factory();
        let mut m = mobilenet_v2(cfg, &mut fac);
        let y = m.forward(&Tensor::ones(&[1, 3, 16, 16]), false);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn mobilenet_v2_trains_end_to_end() {
        let cfg = ModelConfig::cifar_like(8, Some(4), 0);
        let mut fac = float_factory();
        let mut m = mobilenet_v2(cfg, &mut fac);
        let x = Tensor::ones(&[2, 3, 16, 16]);
        let y = m.forward(&x, true);
        let g = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert!(g.all_finite());
    }

    #[test]
    fn mobilenet_v2_has_depthwise_sources() {
        let cfg = ModelConfig::cifar_like(8, None, 0);
        let mut fac = float_factory();
        let mut m = mobilenet_v2(cfg, &mut fac);
        let (mut sources, mut depthwise) = (0, 0);
        m.visit_weight_sources(&mut |s| {
            sources += 1;
            depthwise += usize::from(s.materialize().dims()[1..] == [1, 3, 3]);
        });
        // Stem + 17 blocks (up to 3 convs each + shortcuts) + head + fc:
        // exact count depends on skip structure; just require plenty.
        assert!(sources > 40, "found {sources} weight sources");
        assert_eq!(depthwise, 17, "one [C, 1, 3, 3] conv weight per block");
        assert!(count_params(&mut m) > 10_000);
    }

    #[test]
    fn mobilenet_paper_scale_param_count() {
        // At width 32 (the original stem) and 1000 classes, MobileNetV2
        // has ~3.4M parameters. Our builder uses projection shortcuts
        // instead of plain identity-drop and a capped head, so allow a
        // generous band around the original.
        let cfg = ModelConfig {
            num_classes: 1000,
            width: 32,
            input_channels: 3,
            input_size: 32,
            act_bits: None,
            act_mode: crate::activation::ActMode::Uniform,
            seed: 0,
        };
        let mut fac = float_factory();
        let mut m = mobilenet_v2(cfg, &mut fac);
        let n = count_params(&mut m);
        assert!(
            (2_000_000..6_000_000).contains(&n),
            "MobileNetV2 param count {n} far from the ~3.4M original"
        );
    }
}
