//! Whole-network gradient checks: the composition of every layer kind is
//! verified against central finite differences, parameter by parameter.
//! (Individual layers have their own checks in unit tests; this guards
//! the chain rule across the composition, including loss.)

use csq_nn::{
    softmax_cross_entropy, AvgPool2d, BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear,
    MaxPool2d, Relu, Sequential,
};
use csq_tensor::conv::ConvSpec;
use csq_tensor::{init, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn composite_model() -> Sequential {
    Sequential::new(vec![
        Box::new(Conv2d::with_float_weights(
            2,
            4,
            ConvSpec::new(3, 1, 1),
            true,
            1,
        )),
        Box::new(BatchNorm2d::new(4)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::with_float_weights(
            4,
            4,
            ConvSpec::new(3, 1, 1),
            false,
            2,
        )),
        Box::new(Relu::new()),
        Box::new(AvgPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Linear::with_float_weights(4 * 2 * 2, 3, 3)),
    ])
}

fn loss_of(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> f32 {
    // Training-mode forward so batch statistics match the backward pass,
    // but with running stats restored afterwards so repeated evaluations
    // are consistent.
    let logits = model.forward(x, true);
    softmax_cross_entropy(&logits, labels).0
}

#[test]
fn composite_network_parameter_gradients_match_finite_difference() {
    let mut model = composite_model();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let x = init::uniform(&[2, 2, 8, 8], -1.0, 1.0, &mut rng);
    let labels = [0usize, 2];

    // Analytic gradients.
    model.zero_grads();
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    model.backward(&grad);
    let mut analytic = Vec::new();
    model.visit_params(&mut |p| analytic.extend_from_slice(p.grad.data()));

    // Sample parameters across the whole network (checking all ~700 is
    // slow; a strided sample still covers every layer).
    let n_params = analytic.len();
    let stride = (n_params / 60).max(1);
    let eps = 1e-2f32;
    let mut checked = 0;
    let mut max_rel = 0.0f32;
    for pi in (0..n_params).step_by(stride) {
        let bump = |model: &mut Sequential, delta: f32| {
            let mut seen = 0usize;
            model.visit_params(&mut |p| {
                let n = p.value.numel();
                if pi >= seen && pi < seen + n {
                    p.value.data_mut()[pi - seen] += delta;
                }
                seen += n;
            });
        };
        bump(&mut model, eps);
        let lp = loss_of(&mut model, &x, &labels);
        bump(&mut model, -2.0 * eps);
        let lm = loss_of(&mut model, &x, &labels);
        bump(&mut model, eps);
        let numeric = (lp - lm) / (2.0 * eps);
        let err = (numeric - analytic[pi]).abs();
        max_rel = max_rel.max(err / (1.0 + numeric.abs()));
        checked += 1;
    }
    assert!(checked >= 50, "sampled {checked} parameters");
    assert!(
        max_rel < 0.05,
        "max relative parameter-gradient error {max_rel}"
    );
}

#[test]
fn composite_network_input_gradient_matches_finite_difference() {
    let mut model = composite_model();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = init::uniform(&[2, 2, 8, 8], -1.0, 1.0, &mut rng);
    let labels = [1usize, 0];

    model.zero_grads();
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    let gx = model.backward(&grad);

    let eps = 1e-2f32;
    let dx = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
    let mut xp = x.clone();
    xp.axpy(eps, &dx);
    let mut xm = x.clone();
    xm.axpy(-eps, &dx);
    let num = (loss_of(&mut model, &xp, &labels) - loss_of(&mut model, &xm, &labels)) / (2.0 * eps);
    let ana = gx.dot(&dx);
    assert!(
        (num - ana).abs() < 0.05 * (1.0 + num.abs()),
        "input grad: numeric {num} vs analytic {ana}"
    );
}

#[test]
fn global_avgpool_in_composition() {
    let mut model = Sequential::new(vec![
        Box::new(Conv2d::with_float_weights(
            1,
            3,
            ConvSpec::new(3, 1, 1),
            false,
            4,
        )) as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::with_float_weights(3, 2, 5)),
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let x = init::uniform(&[3, 1, 5, 5], -1.0, 1.0, &mut rng);
    let labels = [0usize, 1, 0];
    model.zero_grads();
    let logits = model.forward(&x, true);
    let (_, grad) = softmax_cross_entropy(&logits, &labels);
    let gx = model.backward(&grad);
    assert_eq!(gx.dims(), x.dims());
    assert!(gx.all_finite());

    let eps = 1e-2f32;
    let dx = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
    let mut xp = x.clone();
    xp.axpy(eps, &dx);
    let mut xm = x.clone();
    xm.axpy(-eps, &dx);
    let num =
        (loss_of2(&mut model, &xp, &labels) - loss_of2(&mut model, &xm, &labels)) / (2.0 * eps);
    assert!((num - gx.dot(&dx)).abs() < 0.05 * (1.0 + num.abs()));

    fn loss_of2(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = model.forward(x, true);
        softmax_cross_entropy(&logits, labels).0
    }
}
