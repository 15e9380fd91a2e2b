//! End-to-end integration tests spanning every crate: dataset → model →
//! CSQ training → exact quantized scheme.

use csq_repro::csq::prelude::*;
use csq_repro::data::{Dataset, SyntheticSpec};
use csq_repro::nn::models::{resnet_cifar, ModelConfig};
use csq_repro::nn::weight::float_factory;
use csq_repro::nn::Layer;

fn tiny_data() -> Dataset {
    Dataset::synthetic(
        &SyntheticSpec::cifar_like(0)
            .with_samples(16, 8)
            .with_classes(4)
            .with_noise(0.5),
    )
}

fn tiny_cfg(target: f32, epochs: usize) -> CsqConfig {
    let mut cfg = CsqConfig::fast(target).with_epochs(epochs);
    cfg.batch_size = 8;
    cfg
}

#[test]
fn fp_model_learns_the_synthetic_task() {
    let data = tiny_data();
    let mut factory = float_factory();
    let mut model_cfg = ModelConfig::cifar_like(6, None, 0);
    model_cfg.num_classes = 4;
    let mut model = resnet_cifar(model_cfg, &mut factory, 1);
    let mut fit_cfg = FitConfig::fast(12);
    fit_cfg.batch_size = 8;
    let history = fit(&mut model, &data, &fit_cfg, false).unwrap();
    let final_acc = history.last().unwrap().test_acc;
    assert!(
        final_acc > 0.6,
        "FP model should clearly beat 25% chance; got {final_acc}"
    );
}

#[test]
fn csq_pipeline_reaches_target_and_quantizes_exactly() {
    let data = tiny_data();
    let mut factory = csq_factory(8);
    let mut model_cfg = ModelConfig::cifar_like(6, Some(3), 0);
    model_cfg.num_classes = 4;
    let mut model = resnet_cifar(model_cfg, &mut factory, 1);
    let report = CsqTrainer::new(tiny_cfg(3.0, 15))
        .train(&mut model, &data)
        .unwrap();

    // Budget reached: within 0.1 bit of the 3-bit target.
    assert!(
        (report.final_avg_bits - 3.0).abs() <= 0.1,
        "avg bits {} should be within 0.1 of target 3",
        report.final_avg_bits
    );
    // Model exactly quantized: every weight an integer multiple of the
    // layer's grid step.
    model.visit_weight_sources(&mut |src| {
        let step = src.quant_step().expect("CSQ sources expose a step");
        let w = src.materialize();
        for &v in w.iter() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-4, "{v} off grid {step}");
        }
    });
    // Scheme bookkeeping is consistent.
    let total: usize = report.scheme.layers.iter().map(|l| l.numel).sum();
    assert!(total > 0);
    assert!((report.scheme.compression - 32.0 / report.scheme.avg_bits).abs() < 1e-3);
}

#[test]
fn finetune_improves_or_preserves_accuracy_with_fixed_scheme() {
    let data = tiny_data();
    let mut model_cfg = ModelConfig::cifar_like(6, Some(3), 0);
    model_cfg.num_classes = 4;

    let mut factory = csq_factory(8);
    let mut model = resnet_cifar(model_cfg, &mut factory, 1);
    let report = CsqTrainer::new(tiny_cfg(2.0, 10).with_finetune(6))
        .train(&mut model, &data)
        .unwrap();

    let csq_phase_bits: Vec<f32> = report
        .history
        .iter()
        .filter(|h| h.finetune)
        .map(|h| h.avg_bits)
        .collect();
    assert_eq!(csq_phase_bits.len(), 6);
    // Scheme frozen through the finetune phase.
    for w in csq_phase_bits.windows(2) {
        assert_eq!(w[0], w[1], "precision changed during finetuning");
    }
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let data = tiny_data();
        let mut factory = csq_factory(8);
        let mut model_cfg = ModelConfig::cifar_like(6, None, 0);
        model_cfg.num_classes = 4;
        let mut model = resnet_cifar(model_cfg, &mut factory, 1);
        CsqTrainer::new(tiny_cfg(3.0, 6))
            .train(&mut model, &data)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_test_accuracy, b.final_test_accuracy);
    assert_eq!(a.final_avg_bits, b.final_avg_bits);
    for (ha, hb) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(
            ha.loss, hb.loss,
            "training must be bit-for-bit reproducible"
        );
    }
}

#[test]
fn scheme_json_round_trip_through_disk() {
    let data = tiny_data();
    let mut factory = csq_factory(8);
    let mut model_cfg = ModelConfig::cifar_like(6, None, 0);
    model_cfg.num_classes = 4;
    let mut model = resnet_cifar(model_cfg, &mut factory, 1);
    let report = CsqTrainer::new(tiny_cfg(3.0, 5))
        .train(&mut model, &data)
        .unwrap();

    let path = std::env::temp_dir().join("csq_e2e_scheme.json");
    std::fs::write(&path, report.scheme.to_json()).unwrap();
    let loaded = QuantScheme::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, report.scheme);
    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_grows_precision_from_below() {
    // Start from an aggressive scheme (mask init low), target above the
    // start: the regularizer must *grow* bits — the "growing" in the
    // paper's title.
    use csq_repro::csq::bitrep::csq_factory_with_mask_init;
    let data = tiny_data();
    // All mask logits slightly negative: initial hard precision 0.
    let mut factory = csq_factory_with_mask_init(8, -0.1, 0.01);
    let mut model_cfg = ModelConfig::cifar_like(6, None, 0);
    model_cfg.num_classes = 4;
    let mut model = resnet_cifar(model_cfg, &mut factory, 1);
    let start_bits = model_precision(&mut model).avg_bits;
    assert!(start_bits < 1.0, "starts below one bit, got {start_bits}");
    let report = CsqTrainer::new(tiny_cfg(4.0, 12))
        .train(&mut model, &data)
        .unwrap();
    assert!(
        report.final_avg_bits > start_bits + 1.0,
        "budget regularizer should grow precision: {start_bits} -> {}",
        report.final_avg_bits
    );
}

#[test]
fn csq_quantizes_mobilenet_v2() {
    // The paper's intro motivates quantization with mobile architectures;
    // CSQ must work unchanged on depthwise-separable models.
    use csq_repro::nn::models::mobilenet_v2;
    let data = tiny_data();
    let mut factory = csq_factory(8);
    let mut model_cfg = ModelConfig::cifar_like(8, Some(4), 0);
    model_cfg.num_classes = 4;
    let mut model = mobilenet_v2(model_cfg, &mut factory);
    let report = CsqTrainer::new(tiny_cfg(3.0, 6))
        .train(&mut model, &data)
        .unwrap();
    assert!(report.final_avg_bits <= 8.0);
    assert!(
        (report.final_avg_bits - 3.0).abs() <= 2.0,
        "budget steers MobileNet too: {}",
        report.final_avg_bits
    );
    // Depthwise weight sources are exactly quantized as well.
    model.visit_weight_sources(&mut |src| {
        let step = src.quant_step().expect("grid step");
        let w = src.materialize();
        for &v in w.iter() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-4);
        }
    });
}
