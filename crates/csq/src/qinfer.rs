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
//! per output channel, a conv's in `(kh, kw, c)` order) with a flag per
//! all-zero row. At run time a conv gathers patch rows in that order, `K`
//! runs of `K·C/G` codes per group from a zero-bordered channels-last
//! plane (padding is code 0), a linear layer uses its code rows as they
//! are, and each output is the dot product of one weight row with its
//! group's stretch of one patch row (the whole row when `G = 1`), exact
//! in any order: `i32` partial sums over K-chunks that cannot overflow
//! ([`IntegerWeight::k_chunk`], from the weight's largest |code|), added
//! up in `i64`, however chunked. The final `acc as f32 * scale` is the
//! one conversion to float. Pruned filters (all-zero rows) are skipped
//! and leave exact zeros.
//!
//! The GEMM runs a register tile of 4 weight rows × 2 patch rows, so
//! each code it loads feeds 2 or 4 products. Output planes are split
//! into tasks through [`csq_tensor::par`] by shape only, in whole blocks
//! of 4 weight rows, and each output is one exact integer reduction, so
//! results are bit-identical at any thread count and a sample's outputs
//! never depend on which other samples share the batch.
//!
//! # Two bodies, one result
//!
//! The tile and the request path's two rounding passes (code emission
//! in [`QuantizedActivations::quantize_with_step_into`] and
//! [`uniform_act_quant`]) each have a portable body and an AVX2 body,
//! all chosen together by one `is_x86_feature_detected!("avx2")` check;
//! the build still targets baseline x86-64. The AVX2 tile holds its
//! eight outputs in 8-lane `i32` accumulators fed by `vpmaddwd`. Integer
//! sums are exact in any order, and each lane's share of a K-chunk is
//! bounded by the chunk's bound, so it returns the portable body's sums.
//! The AVX2 rounding bodies are the portable Rust expressions compiled
//! once more with AVX2 enabled (vector divides, rounds and code packing
//! instead of a `roundf` call and a saturating convert per element): the
//! same IEEE operations on the same inputs (Rust neither fuses a
//! multiply-add nor reassociates), so the same bits.
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
use csq_nn::activation::quantize_activation;
use csq_tensor::conv::ConvSpec;
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::Tensor;
use std::sync::OnceLock;

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
    /// The zero-padded input is smaller than the conv kernel, so the
    /// conv has no output position.
    InputSmallerThanKernel {
        /// The smaller padded spatial extent, `min(H, W) + 2·padding`.
        padded: usize,
        /// The kernel extent.
        kernel: usize,
    },
    /// An activation quantizer's range and level count must both be
    /// positive and finite.
    BadActQuant {
        /// The clip range.
        range: f32,
        /// The level count.
        levels: f32,
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
            QinferError::InputSmallerThanKernel { padded, kernel } => write!(
                f,
                "padded input extent {padded} is smaller than the {kernel}x{kernel} kernel"
            ),
            QinferError::BadActQuant { range, levels } => write!(
                f,
                "activation quantizer range {range} and levels {levels} must be positive and finite"
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
        // Every code is written below, so stale contents need no clearing.
        buf.resize(x.numel(), 0);
        (bodies().emit_codes)(x.data(), step, &mut buf);
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

/// The serving plan's `UniformActQuant` op, in place: every `v` becomes
/// `round(clamp(v, 0, range)/step)·step` with `step = range/levels`, the
/// eval forward of the training layers' activation quantizer, bit for
/// bit.
///
/// Returns [`QinferError::BadActQuant`] unless `range` and `levels` are
/// both positive and finite.
pub fn uniform_act_quant(x: &mut Tensor, range: f32, levels: f32) -> Result<(), QinferError> {
    let ok = |v: f32| v.is_finite() && v > 0.0;
    if !(ok(range) && ok(levels)) {
        return Err(QinferError::BadActQuant { range, levels });
    }
    (bodies().act_quant)(x.data_mut(), range, range / levels);
    Ok(())
}

/// Code emission: `codes[i] = round(clamp(x[i], 0, 255·step)/step)`,
/// capped at 255. That is a whole number `r` in [0, 255] (NaN becomes
/// 255), so `2²³ + r` is exact and its low byte is `r`: a conversion that
/// vectorizes, unlike `as u8`. Forced inline so that the AVX2 body
/// compiles this same expression with AVX2 enabled.
#[inline(always)]
fn emit_codes(x: &[f32], step: f32, codes: &mut [u8]) {
    let hi = 255.0 * step;
    for (c, &v) in codes.iter_mut().zip(x) {
        *c = ((v.clamp(0.0, hi) / step).round().min(255.0) + 8_388_608.0).to_bits() as u8;
    }
}

/// [`uniform_act_quant`]'s pass, for a checked `range` and its `step`:
/// the training layers' [`quantize_activation`] on every value. Forced
/// inline like [`emit_codes`].
#[inline(always)]
fn act_quant(x: &mut [f32], range: f32, step: f32) {
    for v in x {
        *v = quantize_activation(*v, range, step);
    }
}

/// Exact sums of a tile of [`TILE_ROWS`] weight rows against
/// [`TILE_COLS`] patch rows, all of one length: `acc[r][c] =
/// Σₚ w[r][p]·x[c][p]`, as `i32` sums over `k_chunk`-long pieces added
/// up in `i64`.
type Tile = fn(&[&[u8]; TILE_COLS], &[&[i16]; TILE_ROWS], usize) -> [[i64; TILE_COLS]; TILE_ROWS];

/// The request path's bodies: the GEMM tile and the two rounding
/// passes.
#[derive(Clone, Copy)]
struct Bodies {
    tile: Tile,
    emit_codes: fn(&[f32], f32, &mut [u8]),
    act_quant: fn(&mut [f32], f32, f32),
}

/// The portable bodies: plain Rust.
const PORTABLE: Bodies = Bodies {
    tile,
    emit_codes,
    act_quant,
};

#[cfg(target_arch = "x86_64")]
use avx2::bodies as avx2_bodies;

/// The AVX2 bodies, when this CPU has AVX2 (never, off x86-64).
#[cfg(not(target_arch = "x86_64"))]
fn avx2_bodies() -> Option<Bodies> {
    None
}

/// The bodies this host runs, chosen on first use.
fn bodies() -> &'static Bodies {
    static BODIES: OnceLock<Bodies> = OnceLock::new();
    BODIES.get_or_init(|| avx2_bodies().unwrap_or(PORTABLE))
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

/// Weight rows per GEMM tile.
const TILE_ROWS: usize = 4;

/// Patch rows per GEMM tile.
const TILE_COLS: usize = 2;

/// A weight's integer codes packed for the integer GEMM. Built once at
/// artifact compile time from a [`PackedWeight`]; immutable afterwards.
///
/// The reduction axis is everything after the first dim: a linear weight
/// `[OUT, IN]` packs `IN` codes per row, and a conv weight
/// `[OC, IC/G, KH, KW]` packs `KH·KW·(IC/G)` in `(kh, kw, c)` order, one
/// group's stretch of an im2col patch row (`KH·KW` for a depthwise conv).
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
        // Column p = c·taps + t of a conv row moves to t·(k/taps) + c.
        let taps: usize = w.dims[2..].iter().product();
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
            let p = i % k;
            codes[(i / k) * stride + p % taps * (k / taps) + p / taps] = c as i16;
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
/// `OC` and the padded input at least `K` wide and high.
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
    let padded = h.min(wd) + 2 * spec.padding;
    if padded < spec.kernel {
        return Err(QinferError::InputSmallerThanKernel {
            padded,
            kernel: spec.kernel,
        });
    }
    Ok(([n, oc, spec.out_size(h), spec.out_size(wd)], groups))
}

/// Lowers `[N, C, H, W]` activation codes of a conv with `groups` groups
/// (validated by [`conv_out_dims`]) to patch rows: one row of `C·K·K`
/// codes per output position, `N·OH·OW` rows in sample, then `oh`, then
/// `ow` order, zero-filled up to `kp ≥ C·K·K`. A row holds one stretch
/// per group in `(kh, kw, c)` order, that of a weight row from
/// [`IntegerWeight::from_packed`]. Padding is code 0, which adds nothing
/// to an integer dot product. The buffer comes from `scratch`; callers
/// give it back.
fn im2col(
    x: &QuantizedActivations,
    spec: ConvSpec,
    groups: usize,
    kp: usize,
    scratch: &ScratchPool<u8>,
) -> Vec<u8> {
    let (n, c, h, wd) = (x.dims[0], x.dims[1], x.dims[2], x.dims[3]);
    let (kk, st, pad, cg) = (spec.kernel, spec.stride, spec.padding, c / groups);
    let (oh, ow) = (spec.out_size(h), spec.out_size(wd));
    let (ph, pw) = (h + 2 * pad, wd + 2 * pad);
    let mut cols = scratch.take(n * oh * ow * kp);
    // Task index = sample. Each task copies its sample into a zero-bordered
    // plane `[G, PH, PW, C/G]`, where each kernel row of a stretch is one run.
    par::par_chunks_mut(&mut cols, oh * ow * kp, |ni, _start, sample| {
        let mut plane = scratch.take_zeroed(c * ph * pw);
        let xs = &x.codes[ni * c * h * wd..(ni + 1) * c * h * wd];
        for (g, i) in (0..groups).flat_map(|g| (0..h).map(move |i| (g, i))) {
            let line = &mut plane[((g * ph + i + pad) * pw + pad) * cg..][..wd * cg];
            for (px, j) in line.chunks_exact_mut(cg).zip((g * cg * h + i) * wd..) {
                for (v, &code) in px.iter_mut().zip(xs[j..].iter().step_by(h * wd)) {
                    *v = code;
                }
            }
        }
        let positions = (0..oh).flat_map(|oi| (0..ow).map(move |oj| (oi, oj)));
        for (row, (oi, oj)) in sample.chunks_exact_mut(kp).zip(positions) {
            row[c * kk * kk..].fill(0);
            for (g, stretch) in row.chunks_exact_mut(kk * kk * cg).take(groups).enumerate() {
                for (ki, run) in stretch.chunks_exact_mut(kk * cg).enumerate() {
                    let src = ((g * ph + oi * st + ki) * pw + oj * st) * cg;
                    copy_run(run, &plane[src..src + kk * cg]);
                }
            }
        }
        scratch.give(plane);
    });
    cols
}

/// Copies one run of an im2col patch row. A run of 8 to 63 codes goes as
/// two overlapping fixed-width pieces (the largest power of two that
/// fits) in place of a variable-length `memcpy` call; others go plainly.
#[inline(always)]
fn copy_run(dst: &mut [u8], src: &[u8]) {
    fn pieces<const P: usize>(dst: &mut [u8], src: &[u8]) {
        dst[..P].copy_from_slice(&src[..P]);
        dst[src.len() - P..].copy_from_slice(&src[src.len() - P..]);
    }
    match dst.len() {
        8..16 => pieces::<8>(dst, src),
        16..32 => pieces::<16>(dst, src),
        32..64 => pieces::<32>(dst, src),
        _ => dst.copy_from_slice(src),
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

/// The portable tile body: one [`dot`] per output.
fn tile(
    x: &[&[u8]; TILE_COLS],
    w: &[&[i16]; TILE_ROWS],
    k_chunk: usize,
) -> [[i64; TILE_COLS]; TILE_ROWS] {
    w.map(|wr| x.map(|xc| dot(xc, wr, k_chunk)))
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Bodies, LANES, TILE_COLS, TILE_ROWS};
    use std::arch::x86_64::*;

    // The tile below holds one accumulator per output.
    const _: () = assert!(TILE_ROWS == 4 && TILE_COLS == 2 && LANES == 16);

    pub(super) fn bodies() -> Option<Bodies> {
        is_x86_feature_detected!("avx2").then_some(Bodies {
            tile,
            emit_codes,
            act_quant,
        })
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check.
    fn tile(
        x: &[&[u8]; TILE_COLS],
        w: &[&[i16]; TILE_ROWS],
        k_chunk: usize,
    ) -> [[i64; TILE_COLS]; TILE_ROWS] {
        let len = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == len) && w.iter().all(|r| r.len() == len),
            "tile rows of unequal length"
        );
        assert!(k_chunk > 0, "empty K-chunk");
        // SAFETY: `bodies` hands this function out only after
        // `is_x86_feature_detected!("avx2")` returned true, and the
        // assert above gives every row of `x` and `w` the `len` elements
        // that bound the kernel's loads.
        unsafe { kernel(x, w, len, k_chunk) }
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check.
    fn emit_codes(x: &[f32], step: f32, codes: &mut [u8]) {
        // SAFETY: `bodies` hands this function out only after
        // `is_x86_feature_detected!("avx2")` returned true; the body
        // reads and writes through bounds-checked slices only, so it
        // relies on no length assert.
        unsafe { emit_codes_avx2(x, step, codes) }
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check.
    fn act_quant(x: &mut [f32], range: f32, step: f32) {
        // SAFETY: `bodies` hands this function out only after
        // `is_x86_feature_detected!("avx2")` returned true; the body
        // reads and writes through bounds-checked slices only, so it
        // relies on no length assert.
        unsafe { act_quant_avx2(x, range, step) }
    }

    #[target_feature(enable = "avx2")]
    fn emit_codes_avx2(x: &[f32], step: f32, codes: &mut [u8]) {
        super::emit_codes(x, step, codes)
    }

    #[target_feature(enable = "avx2")]
    fn act_quant_avx2(x: &mut [f32], range: f32, step: f32) {
        super::act_quant(x, range, step)
    }

    /// The tile's sums: per K-chunk, 16-deep steps into eight 8-lane
    /// `i32` accumulators (`acc[2r + c]` for weight row `r` × patch row
    /// `c`), the chunk's last `len % 16` codes through zero-padded
    /// copies, then one horizontal sum per accumulator added into `i64`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every row of `x` and `w` must hold
    /// at least `len` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn kernel(
        x: &[&[u8]; TILE_COLS],
        w: &[&[i16]; TILE_ROWS],
        len: usize,
        k_chunk: usize,
    ) -> [[i64; TILE_COLS]; TILE_ROWS] {
        let mut sums = [[0i64; TILE_COLS]; TILE_ROWS];
        let mut c0 = 0;
        while c0 < len {
            let c1 = len.min(c0 + k_chunk);
            let mut acc = [_mm256_setzero_si256(); TILE_ROWS * TILE_COLS];
            let mut p = c0;
            while p + LANES <= c1 {
                step(
                    &mut acc,
                    x.map(|r| r.as_ptr().add(p)),
                    w.map(|r| r.as_ptr().add(p)),
                );
                p += LANES;
            }
            if p < c1 {
                let mut xt = [[0u8; LANES]; TILE_COLS];
                let mut wt = [[0i16; LANES]; TILE_ROWS];
                for (t, r) in xt.iter_mut().zip(x) {
                    t[..c1 - p].copy_from_slice(&r[p..c1]);
                }
                for (t, r) in wt.iter_mut().zip(w) {
                    t[..c1 - p].copy_from_slice(&r[p..c1]);
                }
                step(
                    &mut acc,
                    xt.each_ref().map(|t| t.as_ptr()),
                    wt.each_ref().map(|t| t.as_ptr()),
                );
            }
            let chunk = lane_sums(&acc);
            for (i, &s) in chunk.iter().enumerate() {
                sums[i / TILE_COLS][i % TILE_COLS] += i64::from(s);
            }
            c0 = c1;
        }
        sums
    }

    /// Adds one 16-deep step into `acc`: two widening `u8 → i16` loads,
    /// four weight loads and eight `vpmaddwd`, each pair sum exact.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every pointer must have 16
    /// readable elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step(
        acc: &mut [__m256i; TILE_ROWS * TILE_COLS],
        x: [*const u8; TILE_COLS],
        w: [*const i16; TILE_ROWS],
    ) {
        let x0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(x[0].cast()));
        let x1 = _mm256_cvtepu8_epi16(_mm_loadu_si128(x[1].cast()));
        for (r, &wr) in w.iter().enumerate() {
            let wv = _mm256_loadu_si256(wr.cast());
            acc[2 * r] = _mm256_add_epi32(acc[2 * r], _mm256_madd_epi16(x0, wv));
            acc[2 * r + 1] = _mm256_add_epi32(acc[2 * r + 1], _mm256_madd_epi16(x1, wv));
        }
    }

    /// The total of each accumulator's eight lanes, in `acc` order: two
    /// rounds of pairwise adds within each 128-bit half, then the halves
    /// added.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_sums(acc: &[__m256i; TILE_ROWS * TILE_COLS]) -> [i32; TILE_ROWS * TILE_COLS] {
        let mut out = [0i32; TILE_ROWS * TILE_COLS];
        for (quad, dst) in acc.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
            let h01 = _mm256_hadd_epi32(quad[0], quad[1]);
            let h23 = _mm256_hadd_epi32(quad[2], quad[3]);
            let q = _mm256_hadd_epi32(h01, h23);
            let total = _mm_add_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            _mm_storeu_si128(dst.as_mut_ptr().cast(), total);
        }
        out
    }
}

/// `rows` patch rows of `len` codes each, the `s`-th at
/// `codes[s·stride..]`.
#[derive(Clone, Copy)]
struct PatchRows<'a> {
    codes: &'a [u8],
    rows: usize,
    stride: usize,
    len: usize,
}

impl<'a> PatchRows<'a> {
    fn row(&self, s: usize) -> &'a [u8] {
        &self.codes[s * self.stride..s * self.stride + self.len]
    }
}

/// Exact sums of the weight rows `rows` (one group's) against every
/// patch row of `x`: `store(o, s, Σₚ w[o][p]·x[s][p])` for each pair.
/// Each block of [`TILE_ROWS`] rows runs `tile` over the patch rows in
/// pairs (a lone last patch row is paired with itself, and one sum
/// kept); the rows of a last, short block run [`dot`].
fn row_sums(
    tile: Tile,
    w: &IntegerWeight,
    mut rows: impl Iterator<Item = usize>,
    x: PatchRows<'_>,
    mut store: impl FnMut(usize, usize, i64),
) {
    let wrow = |o: usize| &w.codes[o * w.stride..o * w.stride + x.len];
    loop {
        let mut block = [0usize; TILE_ROWS];
        let mut filled = 0;
        for (slot, o) in block.iter_mut().zip(rows.by_ref()) {
            *slot = o;
            filled += 1;
        }
        if filled < TILE_ROWS {
            for &o in &block[..filled] {
                for s in 0..x.rows {
                    store(o, s, dot(x.row(s), wrow(o), w.k_chunk));
                }
            }
            return;
        }
        let ws = block.map(wrow);
        for s in (0..x.rows).step_by(TILE_COLS) {
            let s1 = (s + 1).min(x.rows - 1);
            let acc = tile(&[x.row(s), x.row(s1)], &ws, w.k_chunk);
            for (&o, [a, b]) in block.iter().zip(acc) {
                store(o, s, a);
                if s1 > s {
                    store(o, s1, b);
                }
            }
        }
    }
}

/// The integer GEMM behind every quantized weighted op. `patches` holds
/// `samples · m` rows of `kp` codes; the result is `[samples, w.rows, m]`
/// with `out[n, o, s] = dot(patch (n, s), weight row o) · scale`. With
/// one group, row `o` reduces over the whole patch row; with `groups`
/// groups, over its group's `w.k` columns, starting at
/// `(o / (w.rows / groups))·w.k`.
///
/// Tasks own whole output planes `(n, o)`, sized by shape only and
/// rounded up to whole blocks of [`TILE_ROWS`] planes. Within a task,
/// the live (non-pruned) rows of each sample and group run through
/// [`row_sums`]; pruned rows are skipped and stay exactly zero.
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
    let tile = bodies().tile;
    let group_rows = w.rows / groups;
    let planes_per_task = par::chunk_len(samples * w.rows, m * len).next_multiple_of(TILE_ROWS);
    par::par_chunks_mut(&mut out, planes_per_task * m, |_t, start, chunk| {
        let (p0, p1) = (start / m, (start + chunk.len()) / m);
        let mut p = p0;
        while p < p1 {
            // Planes p..end: one sample's rows o.. of one group.
            let (n, o) = (p / w.rows, p % w.rows);
            let end = p1.min(p + group_rows - o % group_rows);
            let x = PatchRows {
                codes: &patches[n * m * kp + o / group_rows * w.k..],
                rows: m,
                stride: kp,
                len,
            };
            let live = (o..o + end - p).filter(|&r| w.nonzero[r]);
            let plane = |r: usize| (n * w.rows + r - p0) * m;
            row_sums(tile, w, live, x, |r, s, acc| {
                chunk[plane(r) + s] = acc as f32 * scale;
            });
            p = end;
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
    let cols = im2col(x, spec, groups, kp, scratch);
    let y = gemm(&cols, n, oh * ow, kp, w, groups, w.step * x.step);
    scratch.give(cols);
    Ok(Tensor::from_vec(y, &[n, oc, oh, ow]))
}

/// Integer fully-connected layer: `y = codes(x) · codes(W)ᵀ · scale`, the
/// integer GEMM with the activation rows as the patch rows of one
/// sample (so that the tile pairs them), its `[OUT, B]` result
/// transposed.
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
    let yt = gemm(&x.codes, 1, b, inf, w, 1, w.step * x.step);
    let mut y = vec![0.0f32; b * w.rows];
    for (o, col) in yt.chunks_exact(b.max(1)).enumerate() {
        for (bi, &v) in col.iter().enumerate() {
            y[bi * w.rows + o] = v;
        }
    }
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
    use rand::{Rng, SeedableRng};
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
        // A 1×1 input cannot hold a 3×3 kernel without padding.
        let pixel = QuantizedActivations {
            codes: vec![7],
            step: 1.0,
            dims: vec![1, 1, 1, 1],
        };
        let pw3 = PackedWeight {
            path: "weight".to_string(),
            codes: vec![1; 9],
            step: 1.0,
            dims: vec![1, 1, 3, 3],
            bits: 8.0,
        };
        assert_eq!(
            conv2d_integer(
                &pixel,
                &int(&pw3),
                ConvSpec::new(3, 1, 0),
                &ScratchPool::new()
            ),
            Err(QinferError::InputSmallerThanKernel {
                padded: 1,
                kernel: 3,
            })
        );
        let mut x = Tensor::from_vec(vec![0.5], &[1]);
        for (range, levels) in [(0.0, 15.0), (-1.0, -15.0), (f32::NAN, 15.0), (1.0, 0.0)] {
            assert!(
                matches!(
                    uniform_act_quant(&mut x, range, levels),
                    Err(QinferError::BadActQuant { .. })
                ),
                "range {range}, levels {levels}"
            );
        }
        assert_eq!(x.data(), &[0.5], "a rejected quantizer leaves its input");
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

    /// `i64` sums of every `k`-long code row of `w` against every `k`-long
    /// row of `x`, `out[o·m + s]`, by direct loops.
    fn direct_sums(w: &PackedWeight, x: &[u8], m: usize) -> Vec<i64> {
        let (rows, k) = (w.dims[0], w.dims[1]);
        let mut out = Vec::with_capacity(rows * m);
        for o in 0..rows {
            for s in 0..m {
                let dot = (0..k).map(|p| i64::from(x[s * k + p]) * i64::from(w.codes[o * k + p]));
                out.push(dot.sum());
            }
        }
        out
    }

    /// The AVX2 and portable tile bodies give the same sums through
    /// [`row_sums`]'s full blocks and tails, over rows 1–9, patch rows
    /// 1–5 and depths around the 16-code step, and at and past the
    /// K-chunk with ±[`MAX_CODE`] rows against all-255 activations; each
    /// body also equals the direct sums.
    #[test]
    fn avx2_and_portable_tile_bodies_agree_bit_for_bit() {
        let avx2 = avx2_bodies();
        if avx2.is_none() {
            println!("no AVX2 on this host: checked only the portable body");
        }
        let check = |w: &PackedWeight, x: &[u8], m: usize, what: &str| {
            let iw = int(w);
            let sums = |tile: Tile| {
                let mut out = vec![0i64; iw.rows * m];
                let x = PatchRows {
                    codes: x,
                    rows: m,
                    stride: iw.k,
                    len: iw.k,
                };
                row_sums(tile, &iw, 0..iw.rows, x, |o, s, acc| out[o * m + s] = acc);
                out
            };
            let want = direct_sums(w, x, m);
            assert_eq!(sums(PORTABLE.tile), want, "portable, {what}");
            if let Some(b) = avx2 {
                assert_eq!(sums(b.tile), want, "AVX2, {what}");
            }
        };
        let weight = |rows: usize, k: usize, codes: Vec<i32>| PackedWeight {
            path: "weight".to_string(),
            codes,
            step: 1.0,
            dims: vec![rows, k],
            bits: 8.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for k in [0usize, 1, 15, 16, 17, 80, 144, 288] {
            for rows in 1..=9 {
                for m in 1..=5 {
                    let codes = (0..rows * k).map(|_| rng.gen_range(-255..=255)).collect();
                    let x: Vec<u8> = (0..m * k).map(|_| rng.gen_range(0..=255u8)).collect();
                    check(&weight(rows, k, codes), &x, m, &format!("k={k} {rows}x{m}"));
                }
            }
        }
        let chunk = int(&weight(1, 1, vec![MAX_CODE])).k_chunk();
        for k in [chunk, chunk + 1, 2 * chunk + 3] {
            for code in [MAX_CODE, -MAX_CODE] {
                // Rows alternate sign, so every tile holds both extremes.
                let codes = (0..5 * k).map(|i| [code, -code][i / k % 2]).collect();
                check(
                    &weight(5, k, codes),
                    &vec![255; 3 * k],
                    3,
                    &format!("k={k} code={code}"),
                );
            }
        }
    }

    /// The AVX2 and portable rounding bodies give the same codes and the
    /// same float bits on NaN, ±inf, −0.0, exact halves `n + 0.5`,
    /// 0.49999997, subnormals, and values just under and over `255·step`
    /// and `range`, each alone and in runs that start at every offset of
    /// an 8-lane vector; the portable body gives the documented answers.
    #[test]
    fn avx2_and_portable_rounding_bodies_agree_bit_for_bit() {
        let avx2 = avx2_bodies();
        if avx2.is_none() {
            println!("no AVX2 on this host: checked only the portable body");
        }
        let bodies: Vec<Bodies> = std::iter::once(PORTABLE).chain(avx2).collect();
        let codes = |b: &Bodies, xs: &[f32], step: f32| {
            let mut c = vec![0u8; xs.len()];
            (b.emit_codes)(xs, step, &mut c);
            c
        };
        let quant = |b: &Bodies, xs: &[f32], range: f32, step: f32| {
            let mut v = xs.to_vec();
            (b.act_quant)(&mut v, range, step);
            v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>()
        };
        for step in [1.0f32, 0.25, 0.0123, 5.395 / 15.0] {
            let range = 15.0 * step;
            let mut xs = vec![
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                0.499_999_97,
                0.499_999_97 * step,
                f32::from_bits(1),
                -f32::from_bits(1),
                f32::MIN_POSITIVE / 2.0,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
                -1.0,
            ];
            for edge in [255.0 * step, range] {
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for n in 0..=256 {
                let half = (n as f32 + 0.5) * step;
                xs.extend([n as f32 * step, half.next_down(), half, half.next_up()]);
            }
            for start in (0..9).chain(xs.len() - 9..xs.len()) {
                for run in [&xs[start..], &xs[start..start + 1]] {
                    for b in &bodies[1..] {
                        assert_eq!(
                            codes(b, run, step),
                            codes(&PORTABLE, run, step),
                            "step {step}"
                        );
                        assert_eq!(
                            quant(b, run, range, step),
                            quant(&PORTABLE, run, range, step),
                            "step {step}"
                        );
                    }
                }
            }
        }
        // The portable body itself: halves round away from zero, NaN and
        // +inf take the top code, and act-quant keeps −0.0 and NaN.
        let xs = [
            0.5,
            1.5,
            2.5,
            254.5,
            300.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ];
        assert_eq!(
            codes(&PORTABLE, &xs, 1.0),
            [1, 2, 3, 255, 255, 255, 255, 0, 0]
        );
        let aq = quant(
            &PORTABLE,
            &[0.5, 14.5, 16.0, -3.0, -0.0, f32::NAN],
            15.0,
            1.0,
        );
        let want = [1.0, 15.0, 15.0, 0.0, -0.0, f32::NAN].map(f32::to_bits);
        assert_eq!(aq, want);
    }
}
