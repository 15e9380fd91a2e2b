//! End-to-end deployment tests: train → pack → calibrate → save `.csqm`
//! → reload in (effectively) a fresh process → serve.
//!
//! The load path deliberately uses only `csq_serve` public API plus the
//! artifact bytes, proving a server needs zero training-side code.

use csq_core::prelude::*;
use csq_data::{Dataset, SyntheticSpec};
use csq_nn::models::{mobilenet_v2, resnet_cifar, ModelConfig};
use csq_nn::{PersistError, Sequential};
use csq_serve::{
    calibrate, ArtifactError, CompiledModel, Engine, EngineConfig, ModelArtifact,
    CSQM_FORMAT_VERSION,
};
use csq_tensor::par::ScratchPool;
use csq_tensor::reduce::argmax_rows;
use std::sync::OnceLock;
use std::time::Duration;

struct Fixture {
    artifact: ModelArtifact,
    data: Dataset,
}

/// Trains one small CSQ model and exports it once for the whole test
/// binary (training dominates the suite's wall clock).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let spec = SyntheticSpec::cifar_like(7)
            .with_samples(3, 2)
            .with_noise(0.5);
        let data = Dataset::synthetic(&spec);
        let mut factory = csq_factory(8);
        let mut model = resnet_cifar(ModelConfig::cifar_like(4, Some(4), 7), &mut factory, 1);
        let cfg = CsqConfig::fast(4.0).with_epochs(2).with_seed(7);
        CsqTrainer::new(cfg)
            .train(&mut model, &data)
            .expect("training");
        let input_dims = data.test.images.dims()[1..].to_vec();
        let calib = data.train.images.slice_axis0(0, data.train.len().min(8));
        let artifact = ModelArtifact::export(
            &mut model,
            "test-model",
            &input_dims,
            data.spec.num_classes,
            &calib,
        )
        .expect("export");
        Fixture { artifact, data }
    })
}

/// A second artifact trained at a uniform 2-bit width: the low-bit end
/// of the precisions CSQ assigns, served on the same integer kernel.
fn lowbit_fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let spec = SyntheticSpec::cifar_like(7)
            .with_samples(3, 2)
            .with_noise(0.5);
        let data = Dataset::synthetic(&spec);
        let mut factory = csq_uniform_factory(2);
        let mut model = resnet_cifar(ModelConfig::cifar_like(4, Some(4), 7), &mut factory, 1);
        let cfg = CsqConfig::fast(4.0).with_epochs(2).with_seed(7);
        CsqTrainer::new(cfg)
            .train(&mut model, &data)
            .expect("training");
        let input_dims = data.test.images.dims()[1..].to_vec();
        let calib = data.train.images.slice_axis0(0, data.train.len().min(8));
        let artifact = ModelArtifact::export(
            &mut model,
            "test-model-2bit",
            &input_dims,
            data.spec.num_classes,
            &calib,
        )
        .expect("export");
        Fixture { artifact, data }
    })
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("csq-serve-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn artifact_round_trips_through_disk() {
    let fix = fixture();
    let path = temp_path("round-trip.csqm");
    fix.artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    assert_eq!(loaded, fix.artifact, "artifact must round-trip bit-exactly");

    // The reloaded copy serves the same answers as the in-memory one.
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let a = fix.artifact.compile().expect("compile original");
    let b = loaded.compile().expect("compile reloaded");
    let x = &fix.data.test.images;
    let ya = a.forward_batch(x, &scratch).expect("forward original");
    let yb = b.forward_batch(x, &scratch).expect("forward reloaded");
    assert_eq!(ya.data(), yb.data());
    std::fs::remove_file(&path).ok();
}

#[test]
fn compiled_model_serves_every_weighted_op_on_the_integer_kernel() {
    let fix = fixture();
    let compiled = fix.artifact.compile().expect("compile");
    // Synthetic images are signed, and the signed activation grid holds
    // them: the stem runs the integer kernel like every later op.
    assert_eq!(fix.artifact.calibration[0].weight_path, "0.weight");
    assert!(fix.artifact.calibration[0].observed_lo < 0.0);
    let plan = compiled.kernel_plan(1);
    assert_eq!(plan.len(), fix.artifact.weights.len());
    assert_eq!(plan[0].path, "0.weight");
    for entry in &plan {
        assert_eq!(entry.class, "integer", "{entry:?}");
    }
    // Provenance rides along.
    assert_eq!(fix.artifact.scheme.layers.len(), fix.artifact.weights.len());
    assert!(fix.artifact.packed_weight_bytes() > 0);
}

#[test]
fn batched_engine_is_bit_identical_to_single_requests_at_1_and_4_workers() {
    let fix = fixture();
    let compiled = fix.artifact.compile().expect("compile");
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let images = &fix.data.test.images;
    let n = fix.data.test.len();
    let input_dims = fix.artifact.input_dims.clone();

    let reference: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            compiled
                .forward_batch(&images.slice_axis0(i, i + 1), &scratch)
                .expect("reference forward")
                .data()
                .to_vec()
        })
        .collect();

    for workers in [1usize, 4] {
        let engine = Engine::start(
            fix.artifact.compile().expect("compile"),
            EngineConfig {
                workers,
                max_batch: 4,
                batch_window: Duration::from_millis(4),
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<_> = (0..n)
            .map(|i| {
                engine
                    .submit(images.slice_axis0(i, i + 1).reshape(&input_dims))
                    .expect("submit")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().expect("answer");
            assert_eq!(
                got.data(),
                &reference[i][..],
                "workers={workers} sample {i} not bit-identical"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.completed as usize, n, "workers={workers}");
        assert_eq!(stats.failed, 0);
    }
}

#[test]
fn forward_batch_is_bit_identical_at_1_and_4_threads_and_to_single_samples() {
    let fix = lowbit_fixture();
    let compiled = fix.artifact.compile().expect("compile");
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let images = &fix.data.test.images;
    let n = images.dims()[0];
    let k = compiled.num_classes();

    // Every weighted op runs the integer kernel, the stem included.
    let plan = compiled.kernel_plan(n);
    assert_eq!(plan.len(), fix.artifact.weights.len());
    assert_eq!(plan[0].path, "0.weight");
    for entry in &plan {
        assert_eq!(entry.class, "integer", "{entry:?}");
    }

    let forward = |threads: usize, x: &csq_tensor::Tensor| {
        csq_tensor::par::with_threads(threads, || {
            compiled.forward_batch(x, &scratch).expect("forward")
        })
    };
    let want = forward(1, images);
    assert_eq!(
        forward(4, images).data(),
        want.data(),
        "batched forward differs between 1 and 4 threads"
    );
    for threads in [1usize, 4] {
        for i in 0..n {
            let one = forward(threads, &images.slice_axis0(i, i + 1));
            assert_eq!(
                one.data(),
                &want.data()[i * k..(i + 1) * k],
                "sample {i} alone differs from its batched row at {threads} threads"
            );
        }
    }
}

/// The held-out task of the accuracy oracle: 4 classes at noise 0.5, 16
/// training and 50 held-out images per class.
fn held_out_task() -> Dataset {
    let spec = SyntheticSpec::cifar_like(0)
        .with_samples(16, 50)
        .with_classes(4)
        .with_noise(0.5);
    Dataset::synthetic(&spec)
}

/// Trains `model` with CSQ (3-bit target, 12 epochs, batch 8) on `data`,
/// exports it calibrated on the first 16 training images, and reloads
/// the `.csqm` from disk.
fn train_and_export(model: &mut Sequential, name: &str, data: &Dataset) -> ModelArtifact {
    let mut cfg = CsqConfig::fast(3.0).with_epochs(12);
    cfg.batch_size = 8;
    CsqTrainer::new(cfg).train(model, data).expect("training");
    let input_dims = data.test.images.dims()[1..].to_vec();
    let calib = data.train.images.slice_axis0(0, 16);
    let artifact = ModelArtifact::export(model, name, &input_dims, 4, &calib).expect("export");
    let path = temp_path(&format!("{name}.csqm"));
    artifact.save(&path).expect("save");
    let loaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, artifact);
    loaded
}

/// The accuracy oracle of the served path: on `data`'s held-out split,
/// `forward_batch` labels at most 5 points fewer images correctly than
/// `forward_float`, agrees with its argmax on at least 80% of them, and
/// answers only finite logits. Prints the counts and the largest logit
/// gap.
fn served_answers_track_the_float_reference(model: &CompiledModel, data: &Dataset) {
    let x = &data.test.images;
    let served = model
        .forward_batch(x, &ScratchPool::new())
        .expect("forward_batch");
    let float = model.forward_float(x).expect("forward_float");
    assert!(
        served.iter().chain(float.iter()).all(|v| v.is_finite()),
        "non-finite logits"
    );
    let (s, f) = (argmax_rows(&served), argmax_rows(&float));
    let correct = |pred: &[usize]| {
        pred.iter()
            .zip(&data.test.labels)
            .filter(|(p, l)| p == l)
            .count()
    };
    let n = data.test.len();
    let (served_ok, float_ok) = (correct(&s), correct(&f));
    let agree = s.iter().zip(&f).filter(|(a, b)| a == b).count();
    let gap = served
        .iter()
        .zip(float.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let what = format!(
        "{}: served {served_ok}/{n} correct, float {float_ok}/{n}, agreement {agree}/{n}, \
         largest logit gap {gap}",
        model.name()
    );
    println!("{what}");
    assert!(100 * served_ok + 5 * n >= 100 * float_ok, "{what}");
    assert!(5 * agree >= 4 * n, "{what}");
}

/// A CSQ ResNet-20 served from a `.csqm` that went through disk: all 22
/// weighted ops, the stem on the signed image included, run the integer
/// kernel, and its answers on 200 held-out images track `forward_float`
/// (see [`served_answers_track_the_float_reference`]). Measured: served
/// 177/200 correct against the float reference's 175/200, argmax
/// agreement 195/200, largest logit gap 2.03.
#[test]
fn resnet20_served_answers_track_the_float_reference() {
    let data = held_out_task();
    let mut model_cfg = ModelConfig::cifar_like(8, Some(4), 0);
    model_cfg.num_classes = 4;
    let mut model = resnet_cifar(model_cfg, &mut csq_factory(8), 3);
    let artifact = train_and_export(&mut model, "resnet20", &data);
    let compiled = artifact.compile().expect("compile");
    let plan = compiled.kernel_plan(data.test.len());
    assert_eq!(plan.len(), 22);
    for entry in &plan {
        assert_eq!(entry.class, "integer", "{entry:?}");
    }
    served_answers_track_the_float_reference(&compiled, &data);
}

/// A CSQ MobileNetV2, whose depthwise convs are grouped convs with a
/// `[C, 1, 3, 3]` weight, served from a `.csqm` that went through disk:
/// all 60 weighted ops run the integer kernel, `forward_batch` is
/// bit-identical at 1 and 4 threads and to each sample served alone,
/// and its answers on 200 held-out images track `forward_float` (see
/// [`served_answers_track_the_float_reference`]). A block's output is its
/// linear projection plus the skip, never rectified, so the next block's
/// expand and shortcut convs and the head read signed values, as the
/// stem does; the signed activation grid holds them. Measured: served
/// 159/200 correct against the float reference's 164/200, argmax
/// agreement 172/200, largest logit gap 2.82.
#[test]
fn grouped_conv_model_serves_bit_identically_from_disk() {
    let data = held_out_task();
    let mut model_cfg = ModelConfig::cifar_like(8, Some(4), 0);
    model_cfg.num_classes = 4;
    let mut model = mobilenet_v2(model_cfg, &mut csq_factory(8));
    let artifact = train_and_export(&mut model, "mobilenet", &data);
    let compiled = artifact.compile().expect("compile");

    let images = &data.test.images;
    let (n, k) = (images.dims()[0], compiled.num_classes());
    let plan = compiled.kernel_plan(n);
    assert_eq!(plan.len(), artifact.weights.len());
    assert_eq!(plan.len(), 60);
    let mut grouped = 0;
    for entry in &plan {
        assert_eq!(entry.class, "integer", "{entry:?}");
        let w = artifact.weights.iter().find(|w| w.path == entry.path);
        if w.expect("packed weight").dims[1..] == [1, 3, 3] {
            grouped += 1;
            assert_eq!(entry.op, "conv2d", "{entry:?}");
        }
    }
    assert_eq!(
        grouped, 17,
        "one depthwise conv per inverted residual block"
    );
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let forward = |threads: usize, x: &csq_tensor::Tensor| {
        csq_tensor::par::with_threads(threads, || {
            compiled.forward_batch(x, &scratch).expect("forward")
        })
    };
    let want = forward(1, images);
    assert_eq!(
        forward(4, images).data(),
        want.data(),
        "batched forward differs between 1 and 4 threads"
    );
    for threads in [1usize, 4] {
        for i in 0..n {
            let one = forward(threads, &images.slice_axis0(i, i + 1));
            assert_eq!(
                one.data(),
                &want.data()[i * k..(i + 1) * k],
                "sample {i} alone differs from its batched row at {threads} threads"
            );
        }
    }
    served_answers_track_the_float_reference(&compiled, &data);
}

#[test]
fn plane_profile_reports_bitplane_structure() {
    let fix = fixture();
    let profile = fix.artifact.plane_profile();
    assert_eq!(profile.len(), fix.artifact.weights.len());
    assert!(
        profile.iter().any(|e| e.active_passes >= 1),
        "a trained model must have at least one non-empty plane"
    );
    for entry in &profile {
        assert_eq!(
            entry.active_passes + entry.skipped_passes,
            2 * entry.total_planes,
            "{}: every plane has a positive and a negative pass",
            entry.path
        );
    }
}

#[test]
fn trained_artifact_hot_swaps_into_a_live_engine() {
    let fix = fixture();
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let images = &fix.data.test.images;
    let input_dims = fix.artifact.input_dims.clone();
    let x = || images.slice_axis0(0, 1).reshape(&input_dims);
    let want = fix
        .artifact
        .compile()
        .expect("compile")
        .forward_batch(&images.slice_axis0(0, 1), &scratch)
        .expect("reference forward");

    let engine = Engine::start(
        fix.artifact.compile().expect("compile"),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    assert_eq!(engine.model_version(), 1);
    assert_eq!(engine.infer(x()).expect("serve v1").data(), want.data());

    // "Redeploy" the same trained artifact, as a rolling update of a
    // compatible model would: the version bumps, answers stay exact.
    let replacement = fix.artifact.compile().expect("compile replacement");
    assert_eq!(engine.swap_model(replacement).expect("swap"), 2);
    assert_eq!(engine.model_version(), 2);
    assert_eq!(engine.infer(x()).expect("serve v2").data(), want.data());
    let stats = engine.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.model_version, 2);
    assert_eq!(stats.failed, 0);
}

#[test]
fn corrupted_artifact_is_rejected_on_load() {
    let fix = fixture();
    let path = temp_path("corrupt.csqm");
    fix.artifact.save(&path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");
    match ModelArtifact::load(&path) {
        Err(ArtifactError::Persist(PersistError::ChecksumMismatch { .. })) => {}
        other => panic!("bit flip must fail the checksum, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn future_format_version_is_rejected() {
    let fix = fixture();
    let mut future = fix.artifact.clone();
    future.format_version = CSQM_FORMAT_VERSION + 1;
    let path = temp_path("future.csqm");
    future.save(&path).expect("save");
    match ModelArtifact::load(&path) {
        Err(ArtifactError::UnsupportedVersion {
            path: p,
            found,
            supported,
        }) => {
            assert_eq!(p.as_deref(), Some(path.as_path()));
            assert_eq!(found, CSQM_FORMAT_VERSION + 1);
            assert_eq!(supported, CSQM_FORMAT_VERSION);
        }
        other => panic!("future version must be rejected, got {other:?}"),
    }
    assert!(matches!(
        future.compile(),
        Err(ArtifactError::UnsupportedVersion { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn artifact_missing_calibration_cannot_compile() {
    let fix = fixture();
    let mut broken = fix.artifact.clone();
    broken.calibration.clear();
    assert!(matches!(broken.compile(), Err(ArtifactError::Bind(_))));
}

#[test]
fn calibration_is_deterministic_and_matches_the_artifact() {
    let fix = fixture();
    let compiled = fix.artifact.compile().expect("compile");
    let m = fix.data.train.len().min(8);
    let samples = fix.data.train.images.slice_axis0(0, m);
    let a = calibrate(&compiled, &samples).expect("calibrate");
    let b = calibrate(&compiled, &samples).expect("calibrate again");
    assert_eq!(a, b, "calibration must be deterministic");
    // Same samples as the export used -> identical frozen grids.
    assert_eq!(a, fix.artifact.calibration);
}

#[test]
fn export_rejects_mismatched_calibration_samples() {
    let fix = fixture();
    // Wrong spatial size for this model.
    let bad = csq_tensor::Tensor::zeros(&[2, 3, 8, 8]);
    let spec = SyntheticSpec::cifar_like(9)
        .with_samples(2, 1)
        .with_noise(0.5);
    let data = Dataset::synthetic(&spec);
    let mut factory = csq_factory(8);
    let mut model = resnet_cifar(ModelConfig::cifar_like(4, Some(4), 9), &mut factory, 1);
    // No training needed: sample validation fires before packing.
    let err = ModelArtifact::export(
        &mut model,
        "bad",
        &fix.artifact.input_dims,
        data.spec.num_classes,
        &bad,
    )
    .expect_err("mismatched samples must be rejected");
    assert!(matches!(err, ArtifactError::BadSamples { .. }));
}
