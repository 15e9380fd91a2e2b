//! Fixed-point deployment demo: finalize a CSQ model, pack its weights
//! into integer codes, and run a convolution with pure integer
//! arithmetic — the path the paper's introduction motivates ("fixed-point
//! arithmetic units ... significant speedup").
//!
//! ```text
//! cargo run --example integer_inference --release
//! ```

use csq_repro::csq::prelude::*;
use csq_repro::csq::qinfer::{IntegerOp, IntegerWeight};
use csq_repro::csq::PackedModel;
use csq_repro::nn::models::{resnet_cifar, ModelConfig};
use csq_repro::nn::Layer;
use csq_repro::tensor::conv::{conv2d, ConvSpec};
use csq_repro::tensor::init;
use csq_repro::tensor::par::ScratchPool;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A CSQ-parameterized model, finalized straight away (in practice it
    // would be trained first — see the quickstart).
    let mut factory = csq_factory(8);
    let mut model = resnet_cifar(ModelConfig::cifar_like(8, None, 0), &mut factory, 1);
    model.visit_weight_sources(&mut |s| s.finalize());

    // Pack every weight tensor into integer codes + one scale per layer.
    let packed = PackedModel::pack(&mut model)?;
    println!(
        "packed {} layers: {} bytes (FP32 would be {} bytes, {:.1}x larger)",
        packed.layers.len(),
        packed.size_bytes(),
        packed.fp32_size_bytes(),
        packed.compression(),
    );

    // Run the stem convolution two ways: float reference vs integer
    // arithmetic on signed activation codes in ±255, whose step holds the
    // image's largest magnitude (a served model calibrates it once). The
    // integer op is compiled once, for a `[3, 16, 16]` image and that
    // step; its forward only emits codes and runs the kernel.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let x = init::uniform(&[1, 3, 16, 16], -1.0, 1.0, &mut rng);
    let stem = &packed.layers[0];
    let (spec, step) = (ConvSpec::new(3, 1, 1), x.max_abs() / 255.0);

    let stem_op = IntegerOp::conv(IntegerWeight::from_packed(stem)?, &[3, 16, 16], spec, step)?;
    let y_int = stem_op.forward(&x, &ScratchPool::new());
    let y_float = conv2d(&x, &stem.unpack(), spec);

    let max_err = y_int
        .iter()
        .zip(y_float.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "stem conv: integer vs float max deviation {:.5} (activation step {:.5})",
        max_err, step
    );
    assert!(max_err < 0.1, "integer path should track the float path");

    // The packed codes give the grid values `code·step`, within about an
    // ulp of the trained weights.
    let back = stem.unpack();
    println!(
        "stem weights reconstruct from {}-bit codes as code·step: max |w| = {:.4}",
        stem.bits,
        back.max_abs()
    );
    Ok(())
}
