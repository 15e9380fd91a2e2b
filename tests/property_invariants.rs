//! Property-based tests of the core quantization invariants, across
//! crates.

use csq_repro::baselines::{BsqWeight, DorefaWeight, LqWeight, SteUniformWeight};
use csq_repro::csq::{
    temp_sigmoid, BitQuantizer, PackedModel, PackedWeight, QuantMode, TemperatureSchedule,
};
use csq_repro::nn::{Linear, WeightSource};
use csq_repro::tensor::prop::for_all;
use csq_repro::tensor::Tensor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// `n` values in `-2..2`.
fn values(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// A weight vector of 4..64 elements in `-2..2`.
fn weights(rng: &mut ChaCha8Rng) -> Vec<f32> {
    let n = rng.gen_range(4usize..64);
    values(rng, n)
}

/// Random packed weights across precisions 1..=8 and 1–3-axis shapes:
/// codes bounded by the precision's signed range, arbitrary grid step.
fn packed_weight(rng: &mut ChaCha8Rng) -> PackedWeight {
    let bits = rng.gen_range(1u32..=8);
    let dims: Vec<usize> = (0..rng.gen_range(1usize..4))
        .map(|_| rng.gen_range(1usize..6))
        .collect();
    let step = rng.gen_range(1e-4f32..0.5);
    let hi = (1i32 << bits) - 1;
    let n: usize = dims.iter().product();
    PackedWeight {
        path: "weight".to_string(),
        codes: (0..n).map(|_| rng.gen_range(-hi..=hi)).collect(),
        step,
        dims,
        bits: bits as f32,
    }
}

/// Finalized CSQ weights lie exactly on the quantization grid for any
/// input weight tensor.
#[test]
fn finalized_csq_weights_on_grid() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = BitQuantizer::from_float(&t, 8, QuantMode::Csq);
        q.finalize();
        let step = q.quant_step().unwrap();
        let m = q.materialize();
        for &v in m.iter() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-2, "{} off grid {}", v, step);
        }
    });
}

/// The hard precision count is always within [0, bits], soft precision
/// within (0, bits), and both agree after finalization.
#[test]
fn precision_counts_bounded() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let bits = rng.gen_range(1usize..9);
        let mut q = BitQuantizer::from_float(&t, bits, QuantMode::Csq);
        let hard = q.precision().unwrap();
        let soft = q.soft_precision().unwrap();
        assert!((0.0..=bits as f32).contains(&hard));
        assert!(soft > 0.0 && soft < bits as f32 + 1e-3);
        q.finalize();
        assert_eq!(q.precision().unwrap(), q.soft_precision().unwrap());
    });
}

/// Materialization never produces NaN/Inf at any temperature.
#[test]
fn materialization_always_finite() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = BitQuantizer::from_float(&t, 8, QuantMode::Csq);
        q.set_beta(rng.gen_range(0.1f32..500.0));
        assert!(q.materialize().all_finite());
    });
}

/// The materialized magnitude is bounded by the scale: |W| ≤ s for every
/// gate configuration (the bit sum is at most 2^n − 1).
#[test]
fn materialized_magnitude_bounded_by_scale() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = BitQuantizer::from_float(&t, 8, QuantMode::Csq);
        let s = q.scale();
        let m = q.materialize();
        assert!(m.max_abs() <= s + 1e-5);
    });
}

/// STE-Uniform quantization error is bounded by half a grid step per
/// element (for values inside the clip range).
#[test]
fn ste_quantization_error_bounded() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = SteUniformWeight::from_float(&t, rng.gen_range(2usize..9));
        let m = q.materialize();
        let step = q.quant_step().unwrap();
        for (&orig, &quant) in t.iter().zip(m.iter()) {
            assert!((orig - quant).abs() <= step * 0.5 + 1e-5);
        }
    });
}

/// DoReFa output is always inside [-1, 1].
#[test]
fn dorefa_output_bounded() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = DorefaWeight::from_float(&t, rng.gen_range(1usize..9));
        let m = q.materialize();
        assert!(m.max_abs() <= 1.0 + 1e-5);
    });
}

/// LQ assignment is optimal: no element could move to a different level
/// with lower error.
#[test]
fn lq_assigns_nearest_level() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = LqWeight::from_float(&t, rng.gen_range(1usize..4));
        let m = q.materialize();
        let levels = q.levels();
        for (&orig, &assigned) in t.iter().zip(m.iter()) {
            let err = (orig - assigned).abs();
            for &l in &levels {
                assert!(err <= (orig - l).abs() + 1e-4);
            }
        }
    });
}

/// BSQ's MSB pruning is weight-preserving by construction whenever it
/// fires.
#[test]
fn bsq_pruning_preserves_weights() {
    for_all(64, 0, |rng| {
        let t = Tensor::from_slice(&weights(rng));
        let mut q = BsqWeight::from_float(&t, 8, 0.0, 1);
        let before = q.materialize();
        q.on_epoch_end(0); // prunes only all-zero MSB planes
        let after = q.materialize();
        assert!(after.approx_eq(&before, 1e-5));
    });
}

/// The temperature schedule is monotone non-decreasing and hits its
/// extremes.
#[test]
fn temperature_schedule_monotone() {
    for_all(64, 0, |rng| {
        let total = rng.gen_range(2usize..300);
        let s = TemperatureSchedule::paper_default(total);
        let mut prev = 0.0f32;
        for e in 0..total {
            let b = s.beta_at(e);
            assert!(b >= prev);
            prev = b;
        }
        assert!((s.beta_at(0) - 1.0).abs() < 1e-5);
        assert!((s.beta_at(total - 1) - 200.0).abs() < 0.1);
    });
}

/// σ(βx) is always a valid gate value and symmetric about 0.5.
#[test]
fn gate_is_probability() {
    for_all(64, 0, |rng| {
        let (x, beta) = (
            rng.gen_range(-10.0f32..10.0),
            rng.gen_range(0.01f32..1000.0),
        );
        let g = temp_sigmoid(x, beta);
        assert!((0.0..=1.0).contains(&g));
        let g_neg = temp_sigmoid(-x, beta);
        assert!((g + g_neg - 1.0).abs() < 1e-5);
    });
}

/// PackedWeight codes survive unpack→requantize exactly, for any
/// precision 1..=8, shape, and grid step: `round(unpack/step)` recovers
/// every code bit-for-bit, and the serialized form round-trips without
/// loss.
#[test]
fn packed_weight_codes_round_trip_exactly() {
    for_all(64, 0, |rng| {
        let pw = packed_weight(rng);
        let back = pw.unpack();
        assert_eq!(back.dims(), &pw.dims[..]);
        for (&v, &c) in back.iter().zip(pw.codes.iter()) {
            let k = v / pw.step;
            assert!((k - k.round()).abs() < 1e-3, "{v} off grid {}", pw.step);
            assert_eq!(k.round() as i32, c);
        }
        let json = serde_json::to_string(&pw).unwrap();
        let again: PackedWeight = csq_repro::obs::json::parse(&json, "weight").unwrap();
        assert_eq!(again, pw);
    });
}

/// Model-level pack→unpack reconstructs the finalized weights for any
/// shape and precision, and packing is deterministic (a second pack
/// emits identical codes).
#[test]
fn pack_unpack_reconstructs_finalized_weights() {
    for_all(64, 0, |rng| {
        let (out_f, in_f) = (rng.gen_range(1usize..7), rng.gen_range(1usize..7));
        let t = Tensor::from_vec(values(rng, out_f * in_f), &[out_f, in_f]);
        let mut q = BitQuantizer::from_float(&t, rng.gen_range(1usize..9), QuantMode::Csq);
        q.finalize();
        let want = q.materialize();
        let mut layer = Linear::new(Box::new(q), in_f, out_f, false);
        let packed = PackedModel::pack(&mut layer).unwrap();
        let got = packed.layers[0].unpack();
        assert_eq!(got.dims(), want.dims());
        assert!(got.approx_eq(&want, 1e-6));
        let repacked = PackedModel::pack(&mut layer).unwrap();
        assert_eq!(&repacked, &packed);
    });
}
