//! Failure-injection tests: corrupted parameters, degenerate configs,
//! malformed inputs, simulated crashes and damaged snapshot files must
//! fail loudly with actionable errors — or recover deterministically —
//! never silently produce garbage.

use csq_repro::csq::fault::{flip_bit, truncate_file};
use csq_repro::csq::prelude::*;
use csq_repro::csq::resume::{capture_layer_state, SnapshotError};
use csq_repro::data::{Dataset, Split, SyntheticSpec};
use csq_repro::nn::models::{resnet_cifar, ModelConfig};
use csq_repro::nn::weight::float_factory;
use csq_repro::nn::{Checkpoint, Layer};
use csq_repro::tensor::Tensor;
use std::path::PathBuf;

fn tiny_data() -> Dataset {
    Dataset::synthetic(
        &SyntheticSpec::cifar_like(0)
            .with_samples(16, 8)
            .with_classes(4)
            .with_noise(0.5),
    )
}

fn tiny_model() -> csq_repro::nn::Sequential {
    let mut factory = float_factory();
    let mut cfg = ModelConfig::cifar_like(4, None, 0);
    cfg.num_classes = 4;
    resnet_cifar(cfg, &mut factory, 1)
}

/// A fresh, deterministically initialized CSQ model — two calls produce
/// bit-identical models, which the resume-equivalence test relies on.
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

fn temp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csq_fi_{name}_{}.snap", std::process::id()))
}

#[test]
fn nan_parameters_yield_structured_divergence_error() {
    let data = tiny_data();
    let mut model = tiny_model();
    // Corrupt the classifier weight (the last parameters visited). A NaN
    // in an earlier layer would be silently absorbed by ReLU's
    // `max(NaN, 0) == 0` semantics; the classifier feeds the loss
    // directly.
    let mut n_params = 0;
    model.visit_params(&mut |_| n_params += 1);
    let mut idx = 0;
    model.visit_params(&mut |p| {
        idx += 1;
        if idx == n_params - 1 {
            p.value.fill(f32::NAN);
        }
    });
    let mut cfg = FitConfig::fast(1);
    cfg.batch_size = 8;
    // Every batch produces a non-finite loss; rewinding restores the same
    // broken parameters, so the retry budget runs out and `fit` reports
    // divergence instead of panicking.
    let err = fit(&mut model, &data, &cfg, false).unwrap_err();
    assert!(
        matches!(err, TrainError::Diverged { epoch: 0, .. }),
        "expected divergence at epoch 0, got: {err}"
    );
}

#[test]
fn strict_recovery_fails_on_first_bad_batch() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let err = CsqTrainer::new(tiny_csq_cfg(4))
        .with_recovery(RecoveryPolicy::strict())
        .with_faults(FaultPlan::default().nan_loss_at(0))
        .train(&mut model, &data)
        .unwrap_err();
    assert!(
        matches!(
            err,
            TrainError::Diverged {
                epoch: 0,
                rewinds: 0
            }
        ),
        "strict policy must fail fast, got: {err}"
    );
}

#[test]
fn zero_epochs_rejected() {
    let data = tiny_data();
    let mut model = tiny_model();
    let mut cfg = FitConfig::fast(1);
    cfg.epochs = 0;
    assert!(matches!(
        fit(&mut model, &data, &cfg, false),
        Err(TrainError::ZeroEpochs)
    ));
}

#[test]
fn transient_nan_loss_is_skipped_and_training_completes() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let report = CsqTrainer::new(tiny_csq_cfg(4))
        .with_faults(FaultPlan::default().nan_loss_at(1))
        .train(&mut model, &data)
        .unwrap();
    assert_eq!(report.history.len(), 4);
    assert_eq!(
        report.history[0].skipped, 1,
        "the poisoned batch is skipped, not averaged in"
    );
    assert!(report.final_avg_bits.is_finite());
}

#[test]
fn nan_grad_storm_rewinds_and_recovers() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    // NaN gradients at step 0 poison the parameters; every later batch
    // then skips, which the recovery policy classifies as a storm. The
    // rewind restores the initial state and — the injection now spent —
    // the retry trains through cleanly with a backed-off learning rate.
    let report = CsqTrainer::new(tiny_csq_cfg(6))
        .with_faults(FaultPlan::default().nan_grads_at(0))
        .train(&mut model, &data)
        .unwrap();
    assert_eq!(report.history.len(), 6);
    assert!(
        report.history.iter().all(|h| h.skipped == 0),
        "post-rewind history contains only clean epochs"
    );
    assert!(report.final_avg_bits.is_finite());
}

/// Every parameter and layer-state buffer of `model`, keyed by path, as
/// raw bits.
fn state_bits(model: &mut dyn Layer) -> Vec<(String, Vec<u32>)> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let params = Checkpoint::capture(model);
    let params = params
        .entries()
        .iter()
        .map(|(p, t)| (p.clone(), bits(t.data())));
    let state = capture_layer_state(model);
    let state = state.iter().map(|(p, s)| (p.clone(), bits(s)));
    params.chain(state).collect()
}

/// Trains `cfg` once uninterrupted, and once with a snapshot every epoch
/// and a simulated crash after phase-local epoch `crash_at`. Restarts
/// the crashed run from its snapshot on a freshly built model (the
/// crashed process is gone; only the file survives) and checks that its
/// final parameters and layer state equal the uninterrupted run's bit
/// for bit. Returns both reports and the phase the crash hit.
fn crash_and_resume(
    cfg: CsqConfig,
    crash_at: usize,
    name: &str,
) -> (TrainReport, TrainReport, TrainPhase) {
    let data = tiny_data();
    let path = temp_snapshot(name);

    let mut straight_model = tiny_csq_model();
    let straight = CsqTrainer::new(cfg)
        .train(&mut straight_model, &data)
        .unwrap();

    let mut crashed_model = tiny_csq_model();
    let err = CsqTrainer::new(cfg)
        .with_snapshots(SnapshotPolicy::every_epochs(1, &path))
        .with_faults(FaultPlan::default().crash_at_epoch(crash_at))
        .train(&mut crashed_model, &data)
        .unwrap_err();
    assert!(
        matches!(err, TrainError::InjectedCrash { epoch } if epoch == crash_at),
        "{err}"
    );
    let phase = TrainSnapshot::load(&path).unwrap().phase;

    let mut resumed_model = tiny_csq_model();
    let resumed = CsqTrainer::new(cfg)
        .resume_from(&path)
        .train(&mut resumed_model, &data)
        .unwrap();
    std::fs::remove_file(&path).ok();
    let (want, got) = (
        state_bits(&mut straight_model),
        state_bits(&mut resumed_model),
    );
    assert_eq!(want.len(), got.len());
    for ((path, w), (resumed_path, g)) in want.iter().zip(&got) {
        assert_eq!(path, resumed_path);
        assert!(w == g, "`{path}` is not bit-exact after resume");
    }
    (straight, resumed, phase)
}

#[test]
fn resume_after_crash_matches_uninterrupted_run() {
    let (straight, resumed, phase) = crash_and_resume(tiny_csq_cfg(10), 4, "equivalence");
    assert_eq!(phase, TrainPhase::Csq);
    assert_eq!(straight.history.len(), resumed.history.len());
    for (s, r) in straight.history.iter().zip(resumed.history.iter()) {
        assert_eq!(s.epoch, r.epoch);
        assert_eq!(s.loss, r.loss, "epoch {} loss must be bit-exact", s.epoch);
        assert_eq!(s.avg_bits, r.avg_bits, "epoch {} precision", s.epoch);
        assert_eq!(s.beta, r.beta, "epoch {} temperature", s.epoch);
        assert_eq!(s.test_acc, r.test_acc, "epoch {} test accuracy", s.epoch);
    }
    assert_eq!(straight.final_avg_bits, resumed.final_avg_bits);
    assert_eq!(straight.final_test_accuracy, resumed.final_test_accuracy);
}

#[test]
fn finetune_resume_after_crash_matches_uninterrupted_run() {
    // Phase 1 runs epochs 0..3 and never reaches epoch 4, so the crash
    // lands in the finetune phase and the resume takes its branch.
    let cfg = tiny_csq_cfg(3).with_finetune(6);
    let (straight, resumed, phase) = crash_and_resume(cfg, 4, "finetune");
    assert_eq!(phase, TrainPhase::Finetune);
    assert_eq!(straight.history.len(), 9);
    assert_eq!(straight.history, resumed.history);
    assert_eq!(straight.final_avg_bits, resumed.final_avg_bits);
    assert_eq!(straight.final_test_accuracy, resumed.final_test_accuracy);
}

#[test]
fn resume_from_missing_snapshot_starts_fresh() {
    // A first run and a restart share one command line: when the
    // snapshot file does not exist yet, `resume_from` trains from
    // scratch instead of erroring.
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let path = temp_snapshot("missing");
    std::fs::remove_file(&path).ok();
    let report = CsqTrainer::new(tiny_csq_cfg(3))
        .resume_from(&path)
        .train(&mut model, &data)
        .unwrap();
    assert_eq!(report.history.len(), 3);
}

#[test]
fn bit_flipped_snapshot_is_rejected_on_resume() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let path = temp_snapshot("bitflip");
    CsqTrainer::new(tiny_csq_cfg(2))
        .with_snapshots(SnapshotPolicy::every_epochs(1, &path))
        .train(&mut model, &data)
        .unwrap();

    // Flip one bit somewhere in the payload: the checksum must catch it.
    let len = std::fs::metadata(&path).unwrap().len();
    flip_bit(&path, len / 2, 3).unwrap();

    let mut fresh = tiny_csq_model();
    let err = CsqTrainer::new(tiny_csq_cfg(2))
        .resume_from(&path)
        .train(&mut fresh, &data)
        .unwrap_err();
    assert!(
        matches!(err, TrainError::Snapshot(_)),
        "corruption must surface as a snapshot error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_rejected_on_resume() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let path = temp_snapshot("truncate");
    CsqTrainer::new(tiny_csq_cfg(2))
        .with_snapshots(SnapshotPolicy::every_epochs(1, &path))
        .train(&mut model, &data)
        .unwrap();

    // Simulate a partial write (e.g. disk-full during a non-atomic copy).
    truncate_file(&path, 37).unwrap();

    let mut fresh = tiny_csq_model();
    let err = CsqTrainer::new(tiny_csq_cfg(2))
        .resume_from(&path)
        .train(&mut fresh, &data)
        .unwrap_err();
    assert!(
        matches!(err, TrainError::Snapshot(_)),
        "truncation must surface as a snapshot error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_from_mismatched_config_is_rejected() {
    let data = tiny_data();
    let mut model = tiny_csq_model();
    let path = temp_snapshot("mismatch");
    CsqTrainer::new(tiny_csq_cfg(4))
        .with_snapshots(SnapshotPolicy::every_epochs(1, &path))
        .train(&mut model, &data)
        .unwrap();

    // Same snapshot, different schedule length: silently mixing the two
    // would corrupt the β schedule, so it must be refused.
    let mut fresh = tiny_csq_model();
    let err = CsqTrainer::new(tiny_csq_cfg(7))
        .resume_from(&path)
        .train(&mut fresh, &data)
        .unwrap_err();
    assert!(
        matches!(
            err,
            TrainError::Snapshot(SnapshotError::ConfigMismatch { .. })
        ),
        "config drift must be a structured mismatch, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
#[should_panic(expected = "lambda must be non-negative")]
fn negative_lambda_rejected() {
    BudgetRegularizer::new(-0.1, 3.0);
}

#[test]
#[should_panic(expected = "target precision must be positive")]
fn zero_target_rejected() {
    BudgetRegularizer::new(0.1, 0.0);
}

#[test]
#[should_panic(expected = "conv input channel mismatch")]
fn wrong_channel_count_rejected() {
    let mut model = tiny_model();
    model.forward(&Tensor::zeros(&[1, 5, 16, 16]), false);
}

#[test]
fn scheme_parser_rejects_malformed_json() {
    assert!(QuantScheme::from_json("{not json").is_err());
    assert!(QuantScheme::from_json("{\"layers\": 3}").is_err());
}

#[test]
fn evaluate_on_mismatched_split_panics_cleanly() {
    // A split whose image geometry doesn't match the model must panic
    // with the conv shape message, not produce silent nonsense.
    let mut model = tiny_model();
    let bad = Split {
        images: Tensor::zeros(&[2, 3, 7, 7]),
        labels: vec![0, 1],
    };
    // 7x7 input still works through GlobalAvgPool (size-agnostic model),
    // so this should NOT panic — documenting the flexible behaviour.
    let (_, acc) = csq_repro::csq::trainer::evaluate(&mut model, &bad, 2);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn pack_reports_layer_of_failure() {
    use csq_repro::csq::PackedModel;
    let mut model = tiny_model(); // float weights: no grid
    let err = PackedModel::pack(&mut model).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("0.weight") && msg.contains("finalize"),
        "error names the failing layer by path: {msg}"
    );
}
