//! Bit-exactness of the compiled integer ops (`IntegerOp::conv`,
//! `IntegerOp::linear`) against direct-loop `i64` references kept in this
//! file. Each case feeds the op `code · step`, which its code emission
//! maps back to `code` for every `|code| ≤ 255`.
//!
//! A seeded sweep covers 1×1, 3×3 and 5×5 kernels, strides 1–2, padding
//! 0–2, dense, grouped and depthwise convs, channel and feature counts
//! that are not multiples of the kernel's 8-channel blocks, 8-position
//! strips or channel pairs, batches 1–4 and all-zero filters, on signed
//! activation codes, at 1 and 4 threads; fixed cases drive ±255 × ±255
//! operands (and the widest packable codes) to and past the K-chunk
//! boundary where `i32` partial sums are handed to `i64`, through the
//! linear layer and the conv. Uses only std and the workspace crates, so
//! it builds offline.

use csq_core::pack::PackedWeight;
use csq_core::qinfer::{IntegerOp, IntegerWeight, QinferError, MAX_CODE};
use csq_tensor::conv::ConvSpec;
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::Tensor;

/// xorshift64 generator: the sweep needs no statistical quality, only a
/// fixed stream per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.range(0, xs.len() - 1)]
    }
}

/// Activation codes in `-255..=255` of a batch of `dims`, on the grid
/// of `step`.
struct Acts {
    codes: Vec<i16>,
    step: f32,
    dims: Vec<usize>,
}

impl Acts {
    /// The floats `code · step` an op is fed.
    fn tensor(&self) -> Tensor {
        let x = self.codes.iter().map(|&c| c as f32 * self.step).collect();
        Tensor::from_vec(x, &self.dims)
    }
}

/// Codes in `-255..=255`; post-ReLU codes are often zero, so a quarter
/// of them are.
fn acts(rng: &mut Rng, dims: &[usize]) -> Acts {
    let n: usize = dims.iter().product();
    let codes = (0..n)
        .map(|_| match rng.range(0, 3) {
            0 => 0,
            _ => rng.range(0, 510) as i16 - 255,
        })
        .collect();
    Acts {
        codes,
        step: 0.0123,
        dims: dims.to_vec(),
    }
}

/// Codes in `-max..=max`, with whole output rows zeroed now and then
/// (CSQ's pruned filters).
fn weight(rng: &mut Rng, dims: &[usize], max: i32) -> PackedWeight {
    let per_row: usize = dims[1..].iter().product();
    let mut codes = Vec::with_capacity(dims[0] * per_row);
    for _ in 0..dims[0] {
        let pruned = rng.range(0, 4) == 0;
        for _ in 0..per_row {
            let c = rng.range(0, 2 * max as usize) as i32 - max;
            codes.push(if pruned { 0 } else { c });
        }
    }
    PackedWeight {
        path: "w".to_string(),
        codes,
        step: 0.0071,
        dims: dims.to_vec(),
        bits: 8.0,
    }
}

/// Direct-loop reference convolution, `i64` accumulation. The weight is
/// `[OC, C/G, K, K]`: output channel `o` reads the `C/G` input channels
/// of its group, `o / (OC/G)`.
fn conv_ref(x: &Acts, w: &PackedWeight, spec: ConvSpec) -> Vec<f32> {
    let (n, c, h, wd) = (x.dims[0], x.dims[1], x.dims[2], x.dims[3]);
    let (oc, wc, k) = (w.dims[0], w.dims[1], spec.kernel);
    let group_oc = oc / (c / wc);
    let (oh, ow) = (spec.out_size(h), spec.out_size(wd));
    let scale = w.step * x.step;
    let mut out = Vec::with_capacity(n * oc * oh * ow);
    for ni in 0..n {
        for o in 0..oc {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0i64;
                    for wci in 0..wc {
                        let ci = o / group_oc * wc + wci;
                        for ki in 0..k {
                            for kj in 0..k {
                                let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                                let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                                if ii < 0 || jj < 0 || ii >= h as isize || jj >= wd as isize {
                                    continue;
                                }
                                let xv =
                                    x.codes[((ni * c + ci) * h + ii as usize) * wd + jj as usize];
                                let wv = w.codes[((o * wc + wci) * k + ki) * k + kj];
                                acc += i64::from(xv) * i64::from(wv);
                            }
                        }
                    }
                    out.push(acc as f32 * scale);
                }
            }
        }
    }
    out
}

/// Direct-loop reference fully-connected layer, `i64` accumulation.
fn linear_ref(x: &Acts, w: &PackedWeight) -> Vec<f32> {
    let (b, inf) = (x.dims[0], x.dims[1]);
    let scale = w.step * x.step;
    let mut out = Vec::with_capacity(b * w.dims[0]);
    for bi in 0..b {
        for o in 0..w.dims[0] {
            let acc: i64 = (0..inf)
                .map(|k| i64::from(x.codes[bi * inf + k]) * i64::from(w.codes[o * inf + k]))
                .sum();
            out.push(acc as f32 * scale);
        }
    }
    out
}

fn pack(w: &PackedWeight) -> IntegerWeight {
    IntegerWeight::from_packed(w).expect("packable codes")
}

/// `w` compiled as a conv over `x`'s per-sample dims, on `x`'s grid.
fn conv_op(x: &Acts, w: &PackedWeight, spec: ConvSpec) -> IntegerOp {
    IntegerOp::conv(pack(w), &x.dims[1..], spec, x.step).expect("a fitting conv")
}

/// `w` compiled as a linear op on `x`'s grid.
fn linear_op(x: &Acts, w: &PackedWeight) -> IntegerOp {
    IntegerOp::linear(pack(w), x.step).expect("a linear weight")
}

/// The conv cases the kernel treats apart, which the sweep must meet.
const CLASSES: [&str; 9] = [
    "a lane tail",
    "a depthwise block",
    "lanes spanning groups with 1 < OC/G < 8",
    "an odd channel count per group",
    "a short strip",
    "a 1x1 stride-2 conv",
    "the served 3x3 conv at 8 channels",
    "the served 3x3 conv at 16 channels",
    "the served 3x3 conv at 32 channels",
];

/// Dense (`G = 1`), grouped (`1 < G < IC`) and depthwise (`G = IC`)
/// convs, one in three each; dense convs also draw the 8, 16 and 32
/// channels of the served 3×3 convs. The sweep checks that it met every
/// kind and each case the kernel treats apart: an `OC/G` that is not a
/// multiple of 8 (a block with idle lanes), 8-channel blocks whose lanes
/// span groups (depthwise, and `1 < OC/G < 8`), an odd channel count per
/// group (a pair padded with a zero channel), an output count per sample
/// that leaves a short 8-position strip, a 1×1 stride-2 conv without
/// padding (a plane of only the pixels it reads), and the served 3×3
/// convs at 8, 16 and 32 channels.
#[test]
fn seeded_conv_sweep_matches_direct_loops_at_1_and_4_threads() {
    let scratch = ScratchPool::new();
    let mut seen = [false; 3];
    let mut met = std::collections::BTreeSet::new();
    for case in 0..300u64 {
        let mut rng = Rng::new(case);
        let k = rng.pick(&[1usize, 3, 5]);
        let stride = rng.range(1, 2);
        let padding = rng.range(0, 2);
        let spec = ConvSpec::new(k, stride, padding);
        let n = rng.range(1, 4);
        let kind = rng.range(0, 2);
        seen[kind] = true;
        let (groups, icg, ocg) = match kind {
            0 => (
                1,
                rng.pick(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32]),
                rng.range(1, 18),
            ),
            1 => (rng.range(2, 3), rng.range(2, 4), rng.range(1, 3)),
            _ => (rng.range(2, 10), 1, rng.range(1, 2)),
        };
        let (ic, oc) = (groups * icg, groups * ocg);
        let lo = k.saturating_sub(2 * padding).max(1);
        let (h, wd) = (rng.range(lo, lo + 7), rng.range(lo, lo + 7));
        let max = rng.pick(&[1, 3, 7, 127, 255]);
        let x = acts(&mut rng, &[n, ic, h, wd]);
        let w = weight(&mut rng, &[oc, icg, k, k], max);
        let want = conv_ref(&x, &w, spec);
        let (op, xt) = (conv_op(&x, &w, spec), x.tensor());
        let positions = spec.out_size(h) * spec.out_size(wd);
        let hits = [
            !ocg.is_multiple_of(8),
            groups > 1 && icg == 1 && ocg == 1,
            groups > 1 && (2..8).contains(&ocg),
            !icg.is_multiple_of(2),
            !positions.is_multiple_of(8),
            (k, stride, padding) == (1, 2, 0),
            (k, groups, icg) == (3, 1, 8),
            (k, groups, icg) == (3, 1, 16),
            (k, groups, icg) == (3, 1, 32),
        ];
        met.extend(CLASSES.iter().zip(hits).filter(|c| c.1).map(|c| *c.0));
        for threads in [1usize, 4] {
            let got = par::with_threads(threads, || op.forward(&xt, &scratch));
            assert_eq!(
                got.dims(),
                &[n, oc, spec.out_size(h), spec.out_size(wd)][..]
            );
            assert_eq!(
                got.data(),
                &want[..],
                "case {case}: k={k} s={stride} p={padding} n={n} ic={ic} oc={oc} G={groups} \
                 {h}x{wd} max={max} threads={threads}"
            );
        }
    }
    assert!(seen.iter().all(|&s| s), "sweep missed a grouping: {seen:?}");
    for class in CLASSES {
        assert!(met.contains(class), "sweep met no case of {class}: {met:?}");
    }
}

#[test]
fn seeded_linear_sweep_matches_direct_loops_at_1_and_4_threads() {
    for case in 0..200u64 {
        let mut rng = Rng::new(2000 + case);
        let b = rng.range(1, 4);
        let inf = rng.range(1, 300);
        let outf = rng.range(1, 19);
        let x = acts(&mut rng, &[b, inf]);
        let max = rng.pick(&[1, 15, 255]);
        let w = weight(&mut rng, &[outf, inf], max);
        let want = linear_ref(&x, &w);
        let (op, xt, scratch) = (linear_op(&x, &w), x.tensor(), ScratchPool::new());
        for threads in [1usize, 4] {
            let got = par::with_threads(threads, || op.forward(&xt, &scratch));
            assert_eq!(got.dims(), &[b, outf][..]);
            assert_eq!(got.data(), &want[..], "case {case} threads={threads}");
        }
    }
}

/// `batch` activation rows all `act` against `rows` rows of `code`; a
/// negative `code` alternates sign along each row.
fn extreme(k: usize, rows: usize, batch: usize, code: i32, act: i16) -> (Acts, PackedWeight) {
    let x = Acts {
        codes: vec![act; batch * k],
        step: 1.0,
        dims: vec![batch, k],
    };
    let w = PackedWeight {
        path: "w".to_string(),
        codes: (0..rows * k)
            .map(|i| if i % 2 == 1 && code < 0 { -code } else { code })
            .collect(),
        step: 1.0,
        dims: vec![rows, k],
        bits: 8.0,
    };
    (x, w)
}

#[test]
fn k_chunk_keeps_every_i32_partial_sum_in_range() {
    for max in [1, 255, MAX_CODE] {
        let (_, w) = extreme(4, 1, 1, max, 255);
        let chunk = pack(&w).k_chunk() as i64;
        let per = 255 * i64::from(max);
        // A chunk is whole kernel steps of one channel pair (2 products).
        assert_eq!(chunk % 2, 0, "max={max}");
        assert!(per * chunk <= i64::from(i32::MAX), "max={max}");
        assert!(per * (chunk + 2) > i64::from(i32::MAX), "max={max}");
    }
}

#[test]
fn extreme_operands_stay_exact_at_and_past_the_k_chunk_boundary() {
    for (code, act) in [255, -255, MAX_CODE, -MAX_CODE]
        .into_iter()
        .flat_map(|code| [(code, 255), (code, -255)])
    {
        let (_, probe) = extreme(4, 1, 1, code, act);
        let chunk = pack(&probe).k_chunk();
        for k in [chunk - 1, chunk, chunk + 1, 2 * chunk + 3] {
            // Rows of all `code` (positive) or alternating sign
            // (negative): sums that overflow `i32` unless chunked. Five
            // rows against three activation rows: one 8-channel block
            // with idle lanes, one short strip of positions.
            let (x, w) = extreme(k, 5, 3, code, act);
            let want = linear_ref(&x, &w);
            let (op, xt, scratch) = (linear_op(&x, &w), x.tensor(), ScratchPool::new());
            for threads in [1usize, 4] {
                let got = par::with_threads(threads, || op.forward(&xt, &scratch));
                let what = format!("code={code} act={act} k={k} threads={threads}");
                assert_eq!(got.data(), &want[..], "{what}");
            }
        }
    }
    // The same boundary through the conv path: 3×3 patches whose
    // `IC·9` reduction passes one chunk, with padding; five output
    // channels of alternating sign over nine (odd) output positions, on
    // activations of either sign.
    for (code, act) in [255, MAX_CODE]
        .into_iter()
        .flat_map(|code| [(code, 255), (code, -255)])
    {
        let (_, probe) = extreme(4, 1, 1, code, act);
        let ic = (pack(&probe).k_chunk() + 1).div_ceil(9);
        let spec = ConvSpec::new(3, 1, 1);
        let x = Acts {
            codes: vec![act; ic * 9],
            step: 1.0,
            dims: vec![1, ic, 3, 3],
        };
        let w = PackedWeight {
            path: "w".to_string(),
            codes: (0..5 * ic * 9)
                .map(|i| [code, -code][i / (ic * 9) % 2])
                .collect(),
            step: 1.0,
            dims: vec![5, ic, 3, 3],
            bits: 8.0,
        };
        let want = conv_ref(&x, &w, spec);
        let got = conv_op(&x, &w, spec).forward(&x.tensor(), &ScratchPool::new());
        assert_eq!(got.data(), &want[..], "code=±{code} act={act}");
    }
}

#[test]
fn codes_the_packed_operand_cannot_hold_are_typed_errors() {
    for bad in [MAX_CODE + 1, -MAX_CODE - 1, 40_000, i32::MAX, i32::MIN] {
        let w = PackedWeight {
            path: "w".to_string(),
            codes: vec![0, 1, bad, 2],
            step: 1.0,
            dims: vec![2, 2],
            bits: 8.0,
        };
        assert_eq!(
            IntegerWeight::from_packed(&w),
            Err(QinferError::CodeOutOfRange {
                code: bad,
                max: MAX_CODE
            })
        );
    }
    let short = PackedWeight {
        path: "w".to_string(),
        codes: vec![1; 5],
        step: 1.0,
        dims: vec![2, 3],
        bits: 8.0,
    };
    assert_eq!(
        IntegerWeight::from_packed(&short),
        Err(QinferError::CodeCountMismatch {
            what: "weights",
            expected: 6,
            actual: 5
        })
    );
    // Dims whose product overflows hold no count of codes.
    let huge = PackedWeight {
        dims: vec![usize::MAX, 2],
        ..short
    };
    assert_eq!(
        IntegerWeight::from_packed(&huge),
        Err(QinferError::CodeCountMismatch {
            what: "weights",
            expected: usize::MAX,
            actual: 5
        })
    );
}
