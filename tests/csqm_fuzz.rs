//! Mutation fuzz of the two file decoders, `.csqm` artifacts and
//! training snapshots, and of a decoded `.csqm` plan. A file's JSON
//! payload is damaged — a flipped bit, a truncation, or a numeric field
//! set to 0, −1 or 2^40 — and re-framed with a valid checksum, so the
//! decoder sees the damage instead of the container rejecting it.
//! `ModelArtifact::load` followed by `compile`, and `TrainSnapshot::load`
//! followed by `restore_model`, must then return `Ok` or a typed error,
//! and must never panic. A second pass changes the decoded plan's
//! structure: it removes, duplicates or swaps ops at any depth, drops a
//! bias, scale or shift value, or moves a channel, feature or class
//! count or an input dim by one. In both passes a model that compiles
//! must answer `forward_batch` and `forward_float` with `Ok`: finite
//! logits, one row of `num_classes` per sample.

use csq_repro::csq::prelude::*;
use csq_repro::data::{Dataset, SyntheticSpec};
use csq_repro::nn::models::{resnet_cifar, ModelConfig};
use csq_repro::nn::persist::{read_checksummed, write_checksummed};
use csq_repro::nn::InferOp;
use csq_repro::serve::{ArtifactError, BindError, CompiledModel, ModelArtifact};
use csq_repro::tensor::par::ScratchPool;
use csq_repro::tensor::prop::for_all;
use csq_repro::tensor::Tensor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// ResNet-8 at 4 bits: 10 packed weights, residual blocks, calibration.
const SOURCE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/bench_results/fleet_registry/resnet4b-v1.csqm"
);

/// Values a mutated numeric field is set to: 0, −1 and 2^40.
const NUMBERS: [&str; 3] = ["0", "-1", "1099511627776"];

/// The artifact payload and the byte spans of its numbers, split into
/// object field values (`"stride":1`) and array elements (codes, dims).
struct Payload {
    bytes: Vec<u8>,
    fields: Vec<(usize, usize)>,
    elements: Vec<(usize, usize)>,
}

impl Payload {
    fn read(path: &Path) -> Payload {
        let bytes = read_checksummed(path).expect("committed artifact must load");
        let (mut fields, mut elements) = (Vec::new(), Vec::new());
        // The last non-space byte outside a string: `:` before a field
        // value, `[` or `,` before an array element.
        let (mut i, mut in_string, mut prev) = (0, false, b' ');
        while i < bytes.len() {
            let b = bytes[i];
            if in_string {
                match b {
                    b'\\' => i += 1,
                    b'"' => in_string = false,
                    _ => {}
                }
            } else if b == b'-' || b.is_ascii_digit() {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                let span = (start, i);
                if prev == b':' {
                    fields.push(span)
                } else {
                    elements.push(span)
                }
                prev = b'0';
                continue;
            } else if b == b'"' {
                in_string = true;
            }
            if !b.is_ascii_whitespace() {
                prev = b;
            }
            i += 1;
        }
        Payload {
            bytes,
            fields,
            elements,
        }
    }

    /// One random mutation of the payload.
    fn mutate(&self, rng: &mut ChaCha8Rng) -> Vec<u8> {
        let mut out = self.bytes.clone();
        match rng.gen_range(0..3) {
            0 => {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8);
            }
            1 => out.truncate(rng.gen_range(0..out.len())),
            _ => {
                let spans = if rng.gen_range(0..2) == 0 {
                    &self.fields
                } else {
                    &self.elements
                };
                let (start, end) = spans[rng.gen_range(0..spans.len())];
                let value = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                out.splice(start..end, value.bytes());
            }
        }
        out
    }
}

/// One sample of a compiled model's input shape, `[1, ...]`, with
/// values in `[-1, 1]` so that the stem sees negatives.
fn probe_input(model: &CompiledModel) -> Tensor {
    let dims = model.input_dims();
    let n: usize = dims.iter().product();
    let values = (0..n).map(|i| (i % 17) as f32 / 8.0 - 1.0).collect();
    Tensor::from_vec(values, &[&[1][..], dims].concat())
}

/// Both forwards of a compiled model must answer one probe sample with
/// `Ok`: finite logits, one row of `num_classes`. A typed error fails
/// the test as a panic does.
fn answers(model: &CompiledModel) {
    let x = probe_input(model);
    for (forward, out) in [
        (
            "forward_batch",
            model.forward_batch(&x, &ScratchPool::new()),
        ),
        ("forward_float", model.forward_float(&x)),
    ] {
        let y = out.unwrap_or_else(|e| panic!("{forward} of a compiled model failed: {e}"));
        assert_eq!(y.dims(), [1, model.num_classes()], "{forward}");
        assert!(
            y.iter().all(|v| v.is_finite()),
            "{forward}: non-finite logits"
        );
    }
}

#[test]
fn mutated_csqm_payloads_load_and_compile_without_panicking() {
    let payload = Payload::read(Path::new(SOURCE));
    assert!(payload.fields.len() > 50 && payload.elements.len() > 1000);
    let path = std::env::temp_dir().join(format!("csq-fuzz-{}.csqm", std::process::id()));
    let (mut compiled, mut rejected) = (0, 0);
    for_all(256, 0, |rng| {
        write_checksummed(&path, &payload.mutate(rng)).unwrap();
        match ModelArtifact::load(&path).and_then(|a| a.compile()) {
            Ok(model) => {
                compiled += 1;
                answers(&model);
            }
            Err(_) => rejected += 1,
        }
    });
    std::fs::remove_file(&path).ok();
    // Both outcomes occur: the mutations reach `compile`, and the
    // decoder and binder do reject damage.
    assert!(
        compiled > 0 && rejected > 0,
        "{compiled} compiled, {rejected} rejected"
    );
}

/// Calls `f` on every op list of a plan: the top level, then each
/// residual block's main, shortcut and post lists, at any depth.
fn each_list(ops: &mut Vec<InferOp>, f: &mut dyn FnMut(&mut Vec<InferOp>)) {
    f(ops);
    for op in ops.iter_mut() {
        if let InferOp::Residual {
            main,
            shortcut,
            post,
        } = op
        {
            for list in [main, shortcut, post] {
                each_list(list, f);
            }
        }
    }
}

/// Every bias, scale and shift of a plan, at any depth.
fn vectors(ops: &mut [InferOp]) -> Vec<&mut Vec<f32>> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            InferOp::Conv2d { bias: Some(b), .. } | InferOp::Linear { bias: Some(b), .. } => {
                out.push(b)
            }
            InferOp::ChannelAffine { scale, shift } => out.extend([scale, shift]),
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => {
                for list in [main, shortcut, post] {
                    out.extend(vectors(list));
                }
            }
            _ => {}
        }
    }
    out
}

/// Every channel and feature count of a plan, at any depth.
fn counts(ops: &mut [InferOp]) -> Vec<&mut usize> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            InferOp::Conv2d {
                in_channels,
                out_channels,
                ..
            } => out.extend([in_channels, out_channels]),
            InferOp::Linear {
                in_features,
                out_features,
                ..
            } => out.extend([in_features, out_features]),
            InferOp::Residual {
                main,
                shortcut,
                post,
            } => {
                for list in [main, shortcut, post] {
                    out.extend(counts(list));
                }
            }
            _ => {}
        }
    }
    out
}

/// One structural mutation of a decoded artifact: remove, duplicate or
/// swap adjacent ops in one op list, drop one value of a bias, scale or
/// shift, move one channel or feature count by one, or move one input
/// dim or the class count by one.
fn mutate_plan(artifact: &mut ModelArtifact, rng: &mut ChaCha8Rng) {
    let kind = rng.gen_range(0..6);
    match kind {
        0..=2 => {
            // A swap needs two ops in the list, a removal or a copy one.
            let need = 1 + usize::from(kind == 2);
            let mut lists = 0;
            each_list(&mut artifact.ops, &mut |ops| {
                lists += usize::from(ops.len() >= need)
            });
            let mut pick = rng.gen_range(0..lists);
            each_list(&mut artifact.ops, &mut |ops| {
                if ops.len() < need {
                    return;
                }
                if pick == 0 {
                    let i = rng.gen_range(0..=ops.len() - need);
                    match kind {
                        0 => drop(ops.remove(i)),
                        1 => ops.insert(i, ops[i].clone()),
                        _ => ops.swap(i, i + 1),
                    }
                }
                pick = pick.wrapping_sub(1);
            });
        }
        3 => {
            let mut vectors = vectors(&mut artifact.ops);
            let at = rng.gen_range(0..vectors.len());
            let v = &mut vectors[at];
            v.remove(rng.gen_range(0..v.len()));
        }
        _ => {
            let mut sites = if kind == 4 {
                counts(&mut artifact.ops)
            } else {
                let mut dims: Vec<&mut usize> = artifact.input_dims.iter_mut().collect();
                dims.push(&mut artifact.num_classes);
                dims
            };
            let at = rng.gen_range(0..sites.len());
            let n = &mut *sites[at];
            *n = if *n == 0 || rng.gen_range(0..2) == 0 {
                *n + 1
            } else {
                *n - 1
            };
        }
    }
}

#[test]
fn structurally_mutated_plans_compile_only_if_they_answer() {
    let source = ModelArtifact::load(Path::new(SOURCE)).unwrap();
    let (mut compiled, mut rejected) = (0, 0);
    for_all(256, 0, |rng| {
        let mut artifact = source.clone();
        mutate_plan(&mut artifact, rng);
        match artifact.compile() {
            Ok(model) => {
                compiled += 1;
                answers(&model);
            }
            Err(ArtifactError::Bind(_)) => rejected += 1,
            Err(other) => panic!("a plan edit must fail to bind, not {other:?}"),
        }
    });
    // Some edits keep the plan consistent (a duplicated ReLU, an input
    // one pixel wider), and the binder rejects the others.
    assert!(
        compiled > 0 && rejected > 0,
        "{compiled} compiled, {rejected} rejected"
    );
}

/// Two damaged fields that once compiled into a model that could not
/// answer: a calibration step of 0, which now fails to load, and
/// `5.main.0`'s padding cut from 1 to 0, whose residual branches then
/// disagree in size and which now fails to compile instead of panicking
/// in the residual add. Both errors name the op.
#[test]
fn zero_step_and_mismatched_residual_are_typed_errors_naming_the_op() {
    let text = String::from_utf8(read_checksummed(Path::new(SOURCE)).unwrap()).unwrap();
    let edit = |from: &str, to: &str| {
        let edited = text.replacen(from, to, 1);
        assert_ne!(edited, text, "{from} not found");
        let path = std::env::temp_dir().join(format!("csq-fuzz-fixed-{}.csqm", std::process::id()));
        write_checksummed(&path, edited.as_bytes()).unwrap();
        let loaded = ModelArtifact::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    };
    // `5.main.0`'s calibration entry ends with its step and its path.
    let path = ",\"weight_path\":\"5.main.0.weight\"";
    let at = text.find(path).expect("5.main.0's calibration entry");
    let step = &text[text[..at].rfind("\"step\":").expect("its step")..at + path.len()];
    match edit(step, &format!("\"step\":0{path}")) {
        Err(ArtifactError::Json(msg)) => assert!(
            msg.contains("artifact.calibration[")
                && msg.contains("].step")
                && msg.contains("5.main.0.weight"),
            "{msg}"
        ),
        other => panic!("expected a decode error, got {other:?}"),
    }
    let padding = "\"padding\":1,\"stride\":2,\"weight\":\"5.main.0.weight\"";
    match edit(padding, &padding.replace("\"padding\":1", "\"padding\":0"))
        .and_then(|a| a.compile())
    {
        Err(ArtifactError::Bind(BindError::Shape { op, weight, reason })) => {
            assert_eq!(op, "ops[5]", "{reason}");
            assert_eq!(weight.as_deref(), Some("5.main.0.weight"), "{reason}");
            assert!(reason.contains("main branch gives"), "{reason}");
        }
        other => panic!("expected a shape error, got {other:?}"),
    }
}

/// A CSQ ResNet-8 at width 2, built deterministically.
fn tiny_csq_model() -> csq_repro::nn::Sequential {
    let mut cfg = ModelConfig::cifar_like(2, Some(3), 0);
    cfg.num_classes = 4;
    resnet_cifar(cfg, &mut csq_factory(8), 1)
}

#[test]
fn mutated_snapshot_payloads_load_and_restore_without_panicking() {
    let dir = std::env::temp_dir();
    let source = dir.join(format!("csq-fuzz-source-{}.snap", std::process::id()));
    let data = Dataset::synthetic(
        &SyntheticSpec::cifar_like(0)
            .with_samples(4, 2)
            .with_classes(4),
    );
    let mut cfg = CsqConfig::fast(3.0).with_epochs(1);
    cfg.batch_size = 8;
    CsqTrainer::new(cfg)
        .with_snapshots(SnapshotPolicy::every_epochs(1, &source))
        .train(&mut tiny_csq_model(), &data)
        .unwrap();
    let payload = Payload::read(&source);
    std::fs::remove_file(&source).ok();
    assert!(payload.fields.len() > 10 && payload.elements.len() > 1000);

    let path = dir.join(format!("csq-fuzz-{}.snap", std::process::id()));
    let (mut restored, mut rejected) = (0, 0);
    for_all(256, 0, |rng| {
        write_checksummed(&path, &payload.mutate(rng)).unwrap();
        match TrainSnapshot::load(&path).and_then(|s| s.restore_model(&mut tiny_csq_model())) {
            Ok(()) => restored += 1,
            Err(_) => rejected += 1,
        }
    });
    std::fs::remove_file(&path).ok();
    assert!(
        restored > 0 && rejected > 0,
        "{restored} restored, {rejected} rejected"
    );
}
