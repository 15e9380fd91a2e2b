//! Pins the answers of the five committed `.csqm` artifacts.
//!
//! Each artifact is loaded and compiled, then run on 8 inputs built by
//! integer arithmetic alone (no RNG, no libm), so the inputs are the
//! same bits on every host. The integer path (`forward_batch`, at 1 and
//! 4 threads) and the float reference path (`forward_float`) must give
//! the logit bits whose FNV-1a-64 hashes are recorded below.
//!
//! A change that must keep served answers bit-identical keeps these
//! hashes. Regenerating the fixtures (`cargo run -p csq-bench --release
//! --bin artifacts`) changes them, and updates this table in the same
//! commit.

use csq_repro::serve::ModelArtifact;
use csq_repro::tensor::par::{self, ScratchPool};
use csq_repro::tensor::Tensor;

/// `(artifact, forward_batch hash, forward_float hash)`.
const PINNED: [(&str, u64, u64); 5] = [
    ("resnet-csq.csqm", 0xfa4e96e3f0ef0837, 0x7b5c78ed94f43c94),
    (
        "fleet_registry/resnet8b-v1.csqm",
        0xcad819c7c4bb5d19,
        0xf09a20bae2797f87,
    ),
    (
        "fleet_registry/resnet4b-v1.csqm",
        0x9d179b9d467403ce,
        0x34c9ed42dfe5c4aa,
    ),
    (
        "fleet_registry/resnet3b-v1.csqm",
        0xbe646e2a8fde5d6d,
        0x74d4c27293883c7a,
    ),
    (
        "fleet_registry/resnet2b-v1.csqm",
        0xc7313ffc9bf427ec,
        0x0b7cfea0e7175f8e,
    ),
];

const SAMPLES: usize = 8;

/// Sample `s`, element `i`: an integer hash of `(s, i)` mapped onto
/// `[-2, 2]` in steps of 1/500. One exact int-to-float conversion and
/// one correctly rounded division per element.
fn inputs(dims: &[usize]) -> Tensor {
    let per_sample: usize = dims.iter().product();
    let data = (0..SAMPLES * per_sample)
        .map(|j| {
            let (s, i) = (j / per_sample, j % per_sample);
            let h = (s * 7919 + i * 104_729 + (i * i) % 997) % 2001;
            (h as f32 - 1000.0) / 500.0
        })
        .collect();
    Tensor::from_vec(data, &[&[SAMPLES], dims].concat())
}

fn fnv1a(values: &[f32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn committed_artifacts_answer_as_pinned() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_results");
    let mut got = Vec::new();
    for (file, _, _) in PINNED {
        let path = dir.join(file);
        let model = match ModelArtifact::load(&path).map(|a| a.compile()) {
            Ok(Ok(model)) => model,
            Ok(Err(e)) => panic!("{} does not compile: {e}", path.display()),
            Err(e) => panic!("{} does not load: {e}", path.display()),
        };
        let x = inputs(model.input_dims());
        let scratch: ScratchPool<i16> = ScratchPool::new();
        let forward = |threads| {
            par::with_threads(threads, || model.forward_batch(&x, &scratch))
                .unwrap_or_else(|e| panic!("{file}: forward_batch failed: {e}"))
        };
        let integer = forward(1);
        assert_eq!(integer.dims(), [SAMPLES, model.num_classes()]);
        assert_eq!(
            forward(4).data(),
            integer.data(),
            "{file}: forward_batch differs between 1 and 4 threads"
        );
        let float = model
            .forward_float(&x)
            .unwrap_or_else(|e| panic!("{file}: forward_float failed: {e}"));
        got.push((file, fnv1a(integer.data()), fnv1a(float.data())));
    }
    if got != PINNED {
        let table: String = got
            .iter()
            .map(|(file, int, float)| format!("    ({file:?}, {int:#018x}, {float:#018x}),\n"))
            .collect();
        panic!("the committed artifacts answer differently; their hashes now read:\n{table}");
    }
}
