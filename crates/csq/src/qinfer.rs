//! Integer-arithmetic inference kernels for packed weights.
//!
//! The paper's efficiency argument (§I, citing Horowitz's ISSCC analysis)
//! is that linear quantization lets deployment replace floating-point
//! multiplies with fixed-point ones. These kernels are that path for the
//! workspace's packed models: activations are quantized to unsigned 8-bit
//! codes, weights come from [`crate::PackedWeight`] integer codes, and a
//! single float multiply per output element applies the combined scale:
//!
//! ```text
//! y = (Σ_k w_code[k] · x_code[k]) · (w_step · x_step)
//! ```
//!
//! # One integer GEMM
//!
//! Every quantized conv (dense, grouped or depthwise) and linear layer
//! runs as one exact integer GEMM. [`IntegerWeight::from_packed`] packs
//! a weight's codes once, at artifact compile time, into `i16` rows (one
//! per output channel, in the `[C/G, KH, KW]` patch order) with a flag
//! per all-zero row. At run time a convolution lowers its u8 codes to
//! patch rows with im2col (padding is code 0), a linear layer uses its
//! code rows as they are, and each output is the dot product of one
//! weight row with its group's stretch of one patch row (the whole row
//! when `G = 1`): `i32` partial sums over K-chunks short enough
//! that none can overflow ([`IntegerWeight::k_chunk`], derived from the
//! weight's largest |code|), added up in `i64`. The sum is therefore the
//! exact integer dot product however it is chunked, and the final
//! `acc as f32 * scale` is the one conversion to float. Pruned filters
//! (all-zero rows) are skipped and leave exact zeros.
//!
//! Output planes are split into tasks through [`csq_tensor::par`] by
//! shape only, and each output is one exact integer reduction, so results
//! are bit-identical at any thread count and a sample's outputs never
//! depend on which other samples share the batch.
//!
//! Two quantization entry points exist: [`QuantizedActivations::quantize`]
//! derives the range from the tensor's own maximum (fine for one-off
//! analysis, but the grid then varies per request), while
//! [`QuantizedActivations::quantize_with_step`] injects a *calibrated*
//! step so a serving engine can use one fixed grid for every request —
//! which is what makes batched inference bit-identical to single-request
//! inference. All entry points return [`QinferError`] instead of
//! panicking (lib crates are panic-free on user-reachable paths).

use crate::pack::PackedWeight;
use csq_tensor::conv::ConvSpec;
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::Tensor;

/// Why an integer-inference kernel rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum QinferError {
    /// Tried to quantize a tensor with no elements.
    EmptyActivations,
    /// A calibrated quantization step must be positive and finite.
    BadStep {
        /// The offending step value.
        step: f32,
    },
    /// A tensor did not have the rank the kernel requires.
    BadRank {
        /// Which operand was malformed (`"activations"` / `"weights"`).
        what: &'static str,
        /// Required rank.
        expected: usize,
        /// Rank actually supplied.
        actual: usize,
    },
    /// Activation / weight shapes do not agree.
    ShapeMismatch {
        /// What disagreed (`"channels"`, `"features"`, `"kernel"`).
        what: &'static str,
        /// The activation-side extent.
        activation: usize,
        /// The weight-side extent.
        weight: usize,
    },
    /// A code buffer's length disagrees with its dims (corrupt artifact
    /// or hand-built operand).
    CodeCountMismatch {
        /// Which operand (`"activations"` / `"weights"`).
        what: &'static str,
        /// Elements implied by the dims.
        expected: usize,
        /// Codes actually present.
        actual: usize,
    },
    /// A weight code is wider than the packed `i16` operand of the
    /// integer GEMM ([`MAX_CODE`]). No shipped quantizer makes one: CSQ
    /// codes stay within ±255.
    CodeOutOfRange {
        /// The offending code.
        code: i32,
        /// Largest magnitude the packed operand holds.
        max: i32,
    },
}

impl std::fmt::Display for QinferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QinferError::EmptyActivations => {
                write!(f, "cannot quantize an empty activation tensor")
            }
            QinferError::BadStep { step } => {
                write!(f, "activation step must be positive and finite, got {step}")
            }
            QinferError::BadRank {
                what,
                expected,
                actual,
            } => write!(f, "{what} must have rank {expected}, got rank {actual}"),
            QinferError::ShapeMismatch {
                what,
                activation,
                weight,
            } => write!(
                f,
                "{what} mismatch: activations have {activation}, weights expect {weight}"
            ),
            QinferError::CodeCountMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what} dims imply {expected} codes but {actual} are present"
            ),
            QinferError::CodeOutOfRange { code, max } => write!(
                f,
                "weight code {code} is outside the integer kernels' range ±{max}"
            ),
        }
    }
}

impl std::error::Error for QinferError {}

/// An activation tensor quantized to unsigned 8-bit codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedActivations {
    /// Codes in `0..=255`, row-major, same logical shape as the source.
    pub codes: Vec<u8>,
    /// Dequantization step: `float = code · step`.
    pub step: f32,
    /// Logical tensor shape.
    pub dims: Vec<usize>,
}

impl QuantizedActivations {
    /// Quantizes a non-negative activation tensor (post-ReLU) to 8-bit
    /// codes on `[0, max]`, deriving the range from the tensor's own
    /// maximum. Returns [`QinferError::EmptyActivations`] for an empty
    /// tensor.
    pub fn quantize(x: &Tensor) -> Result<QuantizedActivations, QinferError> {
        if x.numel() == 0 {
            return Err(QinferError::EmptyActivations);
        }
        let max = x.max().max(1e-8);
        Self::quantize_with_step(x, max / 255.0)
    }

    /// Quantizes with an externally *calibrated* step: codes are
    /// `round(clamp(v, 0, 255·step)/step)`, so the representable range
    /// is `[0, 255·step]` regardless of this particular tensor's values.
    /// Using one fixed step for every request is what makes a serving
    /// engine's batched results bit-identical to single-request results.
    ///
    /// Returns [`QinferError::EmptyActivations`] for an empty tensor and
    /// [`QinferError::BadStep`] for a non-positive or non-finite step.
    pub fn quantize_with_step(x: &Tensor, step: f32) -> Result<QuantizedActivations, QinferError> {
        Self::quantize_with_step_into(x, step, Vec::new())
    }

    /// [`quantize_with_step`](Self::quantize_with_step) writing into a
    /// caller-supplied buffer (resized to fit), so a serving worker can
    /// recycle code buffers through a
    /// [`csq_tensor::par::ScratchPool<u8>`] instead of allocating per
    /// request.
    pub fn quantize_with_step_into(
        x: &Tensor,
        step: f32,
        mut buf: Vec<u8>,
    ) -> Result<QuantizedActivations, QinferError> {
        if x.numel() == 0 {
            return Err(QinferError::EmptyActivations);
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(QinferError::BadStep { step });
        }
        let hi = 255.0 * step;
        buf.clear();
        buf.extend(
            x.iter()
                .map(|&v| (v.clamp(0.0, hi) / step).round().min(255.0) as u8),
        );
        Ok(QuantizedActivations {
            codes: buf,
            step,
            dims: x.dims().to_vec(),
        })
    }

    /// Reconstructs the float tensor this quantization represents.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.codes.iter().map(|&c| c as f32 * self.step).collect(),
            &self.dims,
        )
    }
}

/// Largest weight-code magnitude the integer GEMM's packed `i16` operand
/// holds. [`IntegerWeight::from_packed`] rejects wider codes with
/// [`QinferError::CodeOutOfRange`].
pub const MAX_CODE: i32 = i16::MAX as i32;

/// Largest activation code (activations are unsigned 8-bit codes).
const MAX_ACT_CODE: u32 = u8::MAX as u32;

/// `i32` lane sums per dot product. Conv weight and patch rows are
/// zero-padded to a multiple of this, so the lane loop has no tail and
/// compiles to packed multiply-adds.
const LANES: usize = 16;

/// A weight's integer codes packed for the integer GEMM. Built once at
/// artifact compile time from a [`PackedWeight`]; immutable afterwards.
///
/// The reduction axis is everything after the first dim: a linear weight
/// `[OUT, IN]` packs `IN` codes per row, and a conv weight
/// `[OC, IC/G, KH, KW]` packs `(IC/G)·KH·KW`, one group's stretch of an
/// im2col patch row (`KH·KW` for a depthwise conv).
#[derive(Debug, Clone, PartialEq)]
pub struct IntegerWeight {
    /// Output rows (dim 0 of the source weight).
    pub rows: usize,
    /// Reduction length per row (product of the remaining dims).
    pub k: usize,
    /// Grid step of the source codes (`float = code · step`).
    pub step: f32,
    /// Source weight dims (kept for kernel shape validation).
    pub dims: Vec<usize>,
    /// Row stride of `codes`: `k` rounded up to a multiple of [`LANES`].
    stride: usize,
    /// `rows × stride` codes, row-major, each row zero-padded past `k`.
    codes: Vec<i16>,
    /// Per row: does it hold any non-zero code? All-zero rows (pruned
    /// filters) are skipped and their outputs stay exactly zero.
    nonzero: Vec<bool>,
    /// Products per `i32` partial sum (see [`IntegerWeight::k_chunk`]).
    k_chunk: usize,
}

impl IntegerWeight {
    /// Packs a weight's codes into `i16` rows.
    ///
    /// # Errors
    ///
    /// [`QinferError::BadRank`] for a weight with no reduction axis,
    /// [`QinferError::CodeCountMismatch`] when the code count disagrees
    /// with the dims (corrupt artifact), and
    /// [`QinferError::CodeOutOfRange`] for a code beyond ±[`MAX_CODE`].
    pub fn from_packed(w: &PackedWeight) -> Result<IntegerWeight, QinferError> {
        if w.dims.len() < 2 {
            return Err(QinferError::BadRank {
                what: "weights",
                expected: 2,
                actual: w.dims.len(),
            });
        }
        let rows = w.dims[0];
        let k: usize = w.dims[1..].iter().product();
        check_len("weights", rows * k, w.codes.len())?;
        let stride = k.next_multiple_of(LANES);
        let mut codes = vec![0i16; rows * stride];
        let mut nonzero = vec![false; rows];
        let mut max_abs = 0u32;
        for (i, &c) in w.codes.iter().enumerate() {
            if c.unsigned_abs() > MAX_CODE as u32 {
                return Err(QinferError::CodeOutOfRange {
                    code: c,
                    max: MAX_CODE,
                });
            }
            max_abs = max_abs.max(c.unsigned_abs());
            codes[(i / k) * stride + i % k] = c as i16;
            nonzero[i / k] |= c != 0;
        }
        // Every product is at most 255·max_abs in magnitude, so a chunk
        // of i32::MAX / (255·max_abs) products cannot overflow `i32`;
        // whole lane blocks keep chunk boundaries off the lane loop.
        let k_chunk = match max_abs {
            0 => stride,
            m => (i32::MAX as u32 / (MAX_ACT_CODE * m)) as usize / LANES * LANES,
        };
        Ok(IntegerWeight {
            rows,
            k,
            step: w.step,
            dims: w.dims.clone(),
            stride,
            codes,
            nonzero,
            k_chunk: k_chunk.max(LANES),
        })
    }

    /// Products summed per `i32` partial sum: the largest multiple of 16
    /// for which `255 · max|code| · k_chunk` still fits in `i32`. Partial
    /// sums are added up in `i64`.
    pub fn k_chunk(&self) -> usize {
        self.k_chunk
    }

    /// Bytes held by the packed codes (diagnostics).
    pub fn code_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<i16>()
    }
}

fn check_len(what: &'static str, expected: usize, actual: usize) -> Result<(), QinferError> {
    if expected == actual {
        Ok(())
    } else {
        Err(QinferError::CodeCountMismatch {
            what,
            expected,
            actual,
        })
    }
}

fn check_rank(what: &'static str, dims: &[usize], expected: usize) -> Result<(), QinferError> {
    if dims.len() == expected {
        Ok(())
    } else {
        Err(QinferError::BadRank {
            what,
            expected,
            actual: dims.len(),
        })
    }
}

/// Validates a conv's operands and returns its output dims
/// `[N, OC, OH, OW]` and its group count `G = C / wdims[1]`. `x` must be
/// `[N, C, H, W]` codes and `wdims` `[OC, C/G, K, K]`, with `G` dividing
/// `OC`.
fn conv_out_dims(
    x: &QuantizedActivations,
    wdims: &[usize],
    spec: ConvSpec,
) -> Result<([usize; 4], usize), QinferError> {
    check_rank("activations", &x.dims, 4)?;
    check_rank("weights", wdims, 4)?;
    check_len("activations", x.dims.iter().product(), x.codes.len())?;
    let (n, c, h, wd) = (x.dims[0], x.dims[1], x.dims[2], x.dims[3]);
    let (oc, wc, kh, kw) = (wdims[0], wdims[1], wdims[2], wdims[3]);
    let groups = c.checked_div(wc).filter(|&g| g * wc == c).unwrap_or(0);
    if groups == 0 || !oc.is_multiple_of(groups) {
        return Err(QinferError::ShapeMismatch {
            what: "channels",
            activation: c,
            weight: wc,
        });
    }
    if kh != spec.kernel || kw != spec.kernel {
        return Err(QinferError::ShapeMismatch {
            what: "kernel",
            activation: spec.kernel,
            weight: kh.max(kw),
        });
    }
    Ok(([n, oc, spec.out_size(h), spec.out_size(wd)], groups))
}

/// Lowers `[N, C, H, W]` activation codes (validated by
/// [`conv_out_dims`]) to patch rows: one row of `C·K·K` codes per output
/// position, `N·OH·OW` rows in sample, then `oh`, then `ow` order. A row
/// is laid out channel, kernel row, kernel column — group `g`'s stretch
/// is the order of a `[OC, C/G, K, K]` weight row — and zero-filled from
/// `C·K·K` up to `row_len`. Padding is code 0, which adds nothing to an
/// integer dot product. The buffer comes from `scratch`; callers give it
/// back.
fn im2col(
    x: &QuantizedActivations,
    spec: ConvSpec,
    row_len: usize,
    scratch: &ScratchPool<u8>,
) -> Vec<u8> {
    let (n, c, h, wd) = (x.dims[0], x.dims[1], x.dims[2], x.dims[3]);
    let (kk, st, pad) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.out_size(h), spec.out_size(wd));
    let kp = row_len.max(c * kk * kk);
    let (ph, pw) = (h + 2 * pad, wd + 2 * pad);
    let mut cols = scratch.take(n * oh * ow * kp);
    // Samples own disjoint contiguous ranges: task index = sample. Each
    // task first copies its sample into a zero-bordered plane, so the
    // gather below needs no bounds tests.
    par::par_chunks_mut(&mut cols, oh * ow * kp, |ni, _start, sample| {
        let mut plane = scratch.take_zeroed(c * ph * pw);
        let xs = &x.codes[ni * c * h * wd..(ni + 1) * c * h * wd];
        for ci in 0..c {
            for i in 0..h {
                let (src, dst) = ((ci * h + i) * wd, (ci * ph + i + pad) * pw + pad);
                plane[dst..dst + wd].copy_from_slice(&xs[src..src + wd]);
            }
        }
        let positions = (0..oh).flat_map(|oi| (0..ow).map(move |oj| (oi, oj)));
        for (row, (oi, oj)) in sample.chunks_exact_mut(kp).zip(positions) {
            let (row, tail) = row.split_at_mut(c * kk * kk);
            tail.fill(0);
            // Segment (ci, ki) is kernel row ki of channel ci: `kk` codes
            // of one bordered line.
            let mut segs = row.chunks_exact_mut(kk);
            for ci in 0..c {
                let mut src = (ci * ph + oi * st) * pw + oj * st;
                for seg in segs.by_ref().take(kk) {
                    copy_seg(seg, &plane[src..]);
                    src += pw;
                }
            }
        }
        scratch.give(plane);
    });
    cols
}

/// Copies one kernel-row segment of an im2col patch. The common kernel
/// widths get fixed-size copies rather than a `memcpy` call per segment.
#[inline(always)]
fn copy_seg(dst: &mut [u8], src: &[u8]) {
    match dst.len() {
        1 => dst[0] = src[0],
        3 => dst.copy_from_slice(&src[..3]),
        5 => dst.copy_from_slice(&src[..5]),
        n => dst.copy_from_slice(&src[..n]),
    }
}

/// Exact dot product of u8 activation codes with `i16` weight codes:
/// `i32` sums over `k_chunk`-long pieces (none can overflow), added up
/// in `i64`. Forced inline, with a one-chunk shortcut, because a call
/// per output cost the served 3×3 convs about a third of their time.
#[inline(always)]
fn dot(x: &[u8], w: &[i16], k_chunk: usize) -> i64 {
    if x.len() <= k_chunk {
        return i64::from(dot_i32(x, w));
    }
    x.chunks(k_chunk)
        .zip(w.chunks(k_chunk))
        .map(|(xc, wc)| i64::from(dot_i32(xc, wc)))
        .sum()
}

/// One `i32` partial sum: [`LANES`] lane sums the compiler keeps in
/// vector registers, then the tail (empty for padded conv rows). No sum
/// can exceed the chunk's total, which [`IntegerWeight::k_chunk`] bounds.
#[inline(always)]
fn dot_i32(x: &[u8], w: &[i16]) -> i32 {
    let (xs, ws) = (x.chunks_exact(LANES), w.chunks_exact(LANES));
    let tail: i32 = xs
        .remainder()
        .iter()
        .zip(ws.remainder())
        .map(|(&a, &b)| i32::from(a) * i32::from(b))
        .sum();
    let mut lanes = [0i32; LANES];
    for (xb, wb) in xs.zip(ws) {
        for ((acc, &a), &b) in lanes.iter_mut().zip(xb).zip(wb) {
            *acc += i32::from(a) * i32::from(b);
        }
    }
    lanes.iter().sum::<i32>() + tail
}

/// The integer GEMM behind every quantized weighted op. `patches` holds
/// `samples · m` rows of `kp` codes; the result is `[samples, w.rows, m]`
/// with `out[n, o, s] = dot(patch (n, s), weight row o) · scale`. With
/// one group, row `o` reduces over the whole patch row; with `groups`
/// groups, over its group's `w.k` columns, starting at
/// `(o / (w.rows / groups))·w.k`.
///
/// Tasks own whole output planes `(n, o)`, sized by shape only.
fn gemm(
    patches: &[u8],
    samples: usize,
    m: usize,
    kp: usize,
    w: &IntegerWeight,
    groups: usize,
    scale: f32,
) -> Vec<f32> {
    let len = if groups == 1 { kp } else { w.k };
    let mut out = vec![0.0f32; samples * w.rows * m];
    if out.is_empty() {
        return out;
    }
    let group_rows = w.rows / groups;
    let planes_per_task = par::chunk_len(samples * w.rows, m * len);
    par::par_chunks_mut(&mut out, planes_per_task * m, |_t, start, chunk| {
        for (i, plane) in chunk.chunks_exact_mut(m).enumerate() {
            let p = start / m + i;
            let (n, o) = (p / w.rows, p % w.rows);
            if !w.nonzero[o] {
                continue;
            }
            let wrow = &w.codes[o * w.stride..o * w.stride + len];
            let off = o / group_rows * w.k;
            for (s, y) in plane.iter_mut().enumerate() {
                let base = (n * m + s) * kp + off;
                *y = dot(&patches[base..base + len], wrow, w.k_chunk) as f32 * scale;
            }
        }
    });
    out
}

/// Integer 2-D convolution: u8 activation codes × packed integer
/// weights as one im2col + integer GEMM, one float scale per output.
///
/// `x` is `[N, IC, H, W]` quantized activations; `w` packs a conv weight
/// `[OC, IC/G, KH, KW]`, whose dims give the group count `G` (`G = IC`
/// for a depthwise conv). Returns float `[N, OC, OH, OW]`. `scratch`
/// recycles the u8 patch buffer.
pub fn conv2d_integer(
    x: &QuantizedActivations,
    w: &IntegerWeight,
    spec: ConvSpec,
    scratch: &ScratchPool<u8>,
) -> Result<Tensor, QinferError> {
    let ([n, oc, oh, ow], groups) = conv_out_dims(x, &w.dims, spec)?;
    // A dense conv's patch rows are padded like its weight rows, so the
    // lane loop has no tail; a grouped conv's rows hold each group's
    // `w.k` columns back to back.
    let kp = if groups == 1 { w.stride } else { groups * w.k };
    let cols = im2col(x, spec, kp, scratch);
    let y = gemm(&cols, n, oh * ow, kp, w, groups, w.step * x.step);
    scratch.give(cols);
    Ok(Tensor::from_vec(y, &[n, oc, oh, ow]))
}

/// Integer fully-connected layer: `y = codes(x) · codes(W)ᵀ · scale`, the
/// integer GEMM with each activation row as its own patch row.
///
/// `x` is `[B, IN]` quantized activations; `w` packs a linear weight
/// `[OUT, IN]`. Returns float `[B, OUT]`.
pub fn linear_integer(x: &QuantizedActivations, w: &IntegerWeight) -> Result<Tensor, QinferError> {
    check_rank("activations", &x.dims, 2)?;
    check_rank("weights", &w.dims, 2)?;
    check_len("activations", x.dims[0] * x.dims[1], x.codes.len())?;
    let (b, inf) = (x.dims[0], x.dims[1]);
    if inf != w.k {
        return Err(QinferError::ShapeMismatch {
            what: "features",
            activation: inf,
            weight: w.k,
        });
    }
    let y = gemm(&x.codes, b, 1, inf, w, 1, w.step * x.step);
    Ok(Tensor::from_vec(y, &[b, w.rows]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrep::{BitQuantizer, QuantMode};
    use crate::pack::PackedModel;
    use csq_nn::{Linear, WeightSource};
    use csq_tensor::conv::conv2d;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn int(pw: &PackedWeight) -> IntegerWeight {
        IntegerWeight::from_packed(pw).unwrap()
    }

    fn packed_weight(dims: &[usize], seed: u64) -> (PackedWeight, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w0 = init::uniform(dims, -0.5, 0.5, &mut rng);
        let mut q = BitQuantizer::from_float(&w0, 8, QuantMode::Csq);
        q.finalize();
        let w = q.materialize();
        let (inf, outf) = (dims.iter().product::<usize>(), 1usize);
        let _ = (inf, outf);
        let mut layer = Linear::new(
            Box::new(q),
            dims[1..].iter().product::<usize>().max(1),
            dims[0],
            false,
        );
        let packed = PackedModel::pack(&mut layer).unwrap();
        (packed.layers[0].clone(), w)
    }

    #[test]
    fn activation_quantization_round_trip_error_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::uniform(&[64], 0.0, 3.0, &mut rng);
        let q = QuantizedActivations::quantize(&x).unwrap();
        let back = q.dequantize();
        let bound = q.step * 0.5 + 1e-6;
        for (&a, &b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_with_step_uses_the_injected_grid() {
        let x = Tensor::from_vec(vec![0.0, 0.5, 1.0, 7.0], &[4]);
        let q = QuantizedActivations::quantize_with_step(&x, 0.01).unwrap();
        assert_eq!(q.step, 0.01);
        assert_eq!(q.codes, vec![0, 50, 100, 255], "7.0 clamps to 255·step");
        // Unlike `quantize`, the grid does not depend on this tensor's
        // own max: a second tensor with a different max shares the grid.
        let y = Tensor::from_vec(vec![0.5], &[1]);
        let qy = QuantizedActivations::quantize_with_step(&y, 0.01).unwrap();
        assert_eq!(qy.codes[0], q.codes[1]);
    }

    #[test]
    fn quantize_rejects_bad_inputs() {
        let empty = Tensor::zeros(&[0]);
        assert_eq!(
            QuantizedActivations::quantize(&empty),
            Err(QinferError::EmptyActivations)
        );
        let x = Tensor::from_vec(vec![1.0], &[1]);
        assert!(matches!(
            QuantizedActivations::quantize_with_step(&x, 0.0),
            Err(QinferError::BadStep { .. })
        ));
        assert!(matches!(
            QuantizedActivations::quantize_with_step(&x, f32::NAN),
            Err(QinferError::BadStep { .. })
        ));
    }

    #[test]
    fn quantize_with_step_into_recycles_the_buffer() {
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]);
        let mut buf = Vec::with_capacity(64);
        buf.push(9u8); // stale contents must be cleared
        let q = QuantizedActivations::quantize_with_step_into(&x, 0.01, buf).unwrap();
        assert_eq!(q.codes.len(), 3);
        assert_eq!(q.codes, vec![10, 20, 30]);
    }

    #[test]
    fn integer_conv_matches_float_conv_within_activation_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Non-negative activations, as after ReLU.
        let x = init::uniform(&[1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let (pw, w) = packed_weight(&[3, 2, 3, 3], 2);
        let spec = ConvSpec::new(3, 1, 1);

        let xq = QuantizedActivations::quantize(&x).unwrap();
        let y_int = conv2d_integer(&xq, &int(&pw), spec, &ScratchPool::new()).unwrap();
        // Reference: float conv on the dequantized activations is
        // *exactly* what the integer path computes.
        let y_ref = conv2d(&xq.dequantize(), &w, spec);
        assert!(
            y_int.approx_eq(&y_ref, 1e-3),
            "integer path must match float path on the same grid"
        );
        // And against the unquantized activations the error is bounded
        // by the activation quantization noise.
        let y_float = conv2d(&x, &w, spec);
        let max_err = y_int
            .iter()
            .zip(y_float.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Worst case: sum over kernel of |w|·(step/2).
        let bound = 2.0 * 9.0 * w.max_abs() * xq.step * 0.5 + 1e-4;
        assert!(max_err <= bound, "err {max_err} > bound {bound}");
    }

    #[test]
    fn integer_depthwise_conv_matches_dequantized_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = init::uniform(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let (pw, w) = packed_weight(&[3, 1, 3, 3], 8);
        let spec = ConvSpec::new(3, 1, 1);
        let xq = QuantizedActivations::quantize(&x).unwrap();
        let y_int = conv2d_integer(&xq, &int(&pw), spec, &ScratchPool::new()).unwrap();
        let y_ref = conv2d(&xq.dequantize(), &w, spec);
        assert!(y_int.approx_eq(&y_ref, 1e-3));
    }

    #[test]
    fn integer_linear_matches_float_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = init::uniform(&[4, 8], 0.0, 2.0, &mut rng);
        let (pw, w) = packed_weight(&[5, 8], 4);
        let xq = QuantizedActivations::quantize(&x).unwrap();
        let y_int = linear_integer(&xq, &int(&pw)).unwrap();
        let y_ref = xq.dequantize().matmul_nt(&w);
        assert!(y_int.approx_eq(&y_ref, 1e-3));
    }

    #[test]
    fn integer_accumulation_is_exact_for_large_sums() {
        // 4096 products of max-magnitude codes must not lose precision
        // (i64 accumulation; f32 would).
        let n = 4096usize;
        let xq = QuantizedActivations {
            codes: vec![255u8; n],
            step: 1.0,
            dims: vec![1, n],
        };
        let pw = PackedWeight {
            path: "weight".to_string(),
            codes: vec![255i32; n],
            step: 1.0,
            dims: vec![1, n],
            bits: 8.0,
        };
        let y = linear_integer(&xq, &int(&pw)).unwrap();
        let expect = 255.0f64 * 255.0 * n as f64;
        assert_eq!(y.data()[0] as f64, expect);
    }

    #[test]
    fn kernels_report_shape_mismatches_as_errors() {
        let xq = QuantizedActivations {
            codes: vec![0; 4],
            step: 1.0,
            dims: vec![1, 4],
        };
        let pw = PackedWeight {
            path: "weight".to_string(),
            codes: vec![0; 6],
            step: 1.0,
            dims: vec![2, 3],
            bits: 8.0,
        };
        assert_eq!(
            linear_integer(&xq, &int(&pw)),
            Err(QinferError::ShapeMismatch {
                what: "features",
                activation: 4,
                weight: 3,
            })
        );
        let bad_rank = conv2d_integer(&xq, &int(&pw), ConvSpec::new(3, 1, 1), &ScratchPool::new());
        assert!(matches!(bad_rank, Err(QinferError::BadRank { .. })));
    }

    #[test]
    fn pruned_filter_fast_paths_stay_bit_exact() {
        // Zero an entire output filter and one input-channel slice of
        // another; the all-zero-row skip must not change a bit of the
        // output (a skipped dot product and a computed-zero dot product
        // are both exactly 0.0).
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let x = init::uniform(&[2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let (mut pw, _) = packed_weight(&[4, 3, 3, 3], 22);
        let flt = 3 * 3 * 3;
        pw.codes[flt..2 * flt].iter_mut().for_each(|c| *c = 0);
        pw.codes[2 * flt + 9..2 * flt + 18]
            .iter_mut()
            .for_each(|c| *c = 0);
        let xq = QuantizedActivations::quantize(&x).unwrap();
        let spec = ConvSpec::new(3, 1, 1);
        let y = conv2d_integer(&xq, &int(&pw), spec, &ScratchPool::new()).unwrap();
        // Dense reference computed without the fast paths: the same
        // accumulation on a weight where "zero" is spelled explicitly.
        let y_ref = csq_tensor::conv::conv2d(&xq.dequantize(), &pw_to_tensor(&pw), spec);
        assert!(y.approx_eq(&y_ref, 1e-4));
        let per = 5 * 5;
        assert!(
            y.data()[per..2 * per].iter().all(|&v| v == 0.0),
            "pruned filter's output plane must be exactly zero"
        );

        // Linear: a zero output row is skipped, not computed.
        let (mut lw, _) = packed_weight(&[4, 8], 23);
        lw.codes[8..16].iter_mut().for_each(|c| *c = 0);
        let xl = init::uniform(&[3, 8], 0.0, 1.0, &mut rng);
        let ql = QuantizedActivations::quantize(&xl).unwrap();
        let yl = linear_integer(&ql, &int(&lw)).unwrap();
        for bi in 0..3 {
            assert_eq!(yl.data()[bi * 4 + 1], 0.0);
        }

        // Depthwise: zero one channel's filter.
        let (mut dw, _) = packed_weight(&[3, 1, 3, 3], 24);
        dw.codes[..9].iter_mut().for_each(|c| *c = 0);
        let xd = init::uniform(&[1, 3, 5, 5], 0.0, 1.0, &mut rng);
        let qd = QuantizedActivations::quantize(&xd).unwrap();
        let yd = conv2d_integer(&qd, &int(&dw), spec, &ScratchPool::new()).unwrap();
        assert!(yd.data()[..per].iter().all(|&v| v == 0.0));
    }

    /// Reconstructs the float tensor a packed weight's codes represent.
    fn pw_to_tensor(w: &PackedWeight) -> Tensor {
        Tensor::from_vec(
            w.codes.iter().map(|&c| c as f32 * w.step).collect(),
            &w.dims,
        )
    }

    #[test]
    fn batched_integer_kernels_equal_concatenated_single_samples() {
        // The serving engine's bit-identity guarantee reduces to this:
        // with one calibrated step, the batch kernel computes each
        // sample exactly as the single-sample kernel would.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| init::uniform(&[1, 2, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let (pw, _) = packed_weight(&[4, 2, 3, 3], 12);
        let spec = ConvSpec::new(3, 1, 1);
        let step = 0.004;

        let batch = Tensor::concat_axis0(&xs.iter().collect::<Vec<_>>());
        let qb = QuantizedActivations::quantize_with_step(&batch, step).unwrap();
        let scratch = ScratchPool::new();
        let yb = conv2d_integer(&qb, &int(&pw), spec, &scratch).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let q1 = QuantizedActivations::quantize_with_step(x, step).unwrap();
            let y1 = conv2d_integer(&q1, &int(&pw), spec, &scratch).unwrap();
            let per = y1.numel();
            assert_eq!(
                &yb.data()[i * per..(i + 1) * per],
                y1.data(),
                "sample {i} differs between batched and single"
            );
        }
    }
}
