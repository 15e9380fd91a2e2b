//! Tracing and telemetry must be *observers*: with `CSQ_TRACE` (here:
//! the programmatic override) and per-epoch telemetry both on, the
//! training trajectory — every loss, precision, accuracy and final
//! parameter — stays bit-identical to the untraced quiet path, at any
//! worker-thread count.

use csq_repro::csq::prelude::*;
use csq_repro::data::{Dataset, SyntheticSpec};
use csq_repro::nn::models::{resnet_cifar, ModelConfig};
use csq_repro::nn::Checkpoint;
use csq_repro::tensor::par;

fn tiny_data() -> Dataset {
    Dataset::synthetic(
        &SyntheticSpec::cifar_like(0)
            .with_samples(16, 8)
            .with_classes(4)
            .with_noise(0.5),
    )
}

fn tiny_csq_model() -> csq_repro::nn::Sequential {
    let mut factory = csq_factory(8);
    let mut cfg = ModelConfig::cifar_like(4, Some(3), 0);
    cfg.num_classes = 4;
    resnet_cifar(cfg, &mut factory, 1)
}

fn tiny_csq_cfg(epochs: usize) -> CsqConfig {
    let mut cfg = CsqConfig::fast(3.0).with_epochs(epochs);
    cfg.batch_size = 8;
    cfg
}

/// Trains a fresh tiny CSQ model under `threads` workers and returns
/// the report plus every final parameter.
fn train_with_threads(threads: usize, epochs: usize) -> (TrainReport, Checkpoint) {
    par::with_threads(threads, || {
        let data = tiny_data();
        let mut model = tiny_csq_model();
        let report = CsqTrainer::new(tiny_csq_cfg(epochs))
            .train(&mut model, &data)
            .unwrap();
        let ckpt = Checkpoint::capture(&mut model);
        (report, ckpt)
    })
}

fn assert_trajectories_identical(a: &TrainReport, b: &TrainReport, what: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{what}: epoch count");
    for (s, p) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(s, p, "{what}: epoch {} diverged", s.epoch);
    }
    assert_eq!(a.final_avg_bits, b.final_avg_bits, "{what}: final bits");
    assert_eq!(
        a.final_test_accuracy, b.final_test_accuracy,
        "{what}: final accuracy"
    );
}

/// The headline observer test: quiet 1-thread run vs traced+telemetry
/// runs at 1 and 4 threads — all three bit-identical.
#[test]
fn traced_training_is_bit_identical_to_untraced_at_any_thread_count() {
    let epochs = 3;
    let (quiet, quiet_ckpt) = train_with_threads(1, epochs);

    csq_repro::obs::trace::set_enabled(true);
    csq_repro::csq::set_telemetry(true);
    let (traced_1, ckpt_1) = train_with_threads(1, epochs);
    let (traced_4, ckpt_4) = train_with_threads(4, epochs);
    csq_repro::csq::set_telemetry(false);
    csq_repro::obs::trace::set_enabled(false);

    assert_trajectories_identical(&quiet, &traced_1, "traced 1-thread vs quiet");
    assert_trajectories_identical(&quiet, &traced_4, "traced 4-thread vs quiet");
    assert_eq!(quiet_ckpt, ckpt_1, "traced 1-thread parameters diverged");
    assert_eq!(quiet_ckpt, ckpt_4, "traced 4-thread parameters diverged");

    // The traced runs actually traced: epoch/phase spans reached the
    // flight ring, and telemetry reached the global registry.
    let events = csq_repro::obs::flight::global().recent();
    assert!(
        events
            .iter()
            .any(|e| e.target == "train" && e.name == "epoch"),
        "traced runs must record epoch spans"
    );
    let snap = csq_repro::obs::global_registry().snapshot();
    assert!(
        snap.series.contains_key("train.loss"),
        "telemetry must publish the loss series"
    );
    assert!(
        snap.series
            .keys()
            .any(|k| k.starts_with("train.layer_bits.")),
        "telemetry must publish per-layer bit series"
    );
}
