//! Integer-arithmetic inference kernels for packed weights.
//!
//! The paper's efficiency argument (§I, citing Horowitz's ISSCC analysis)
//! is that linear quantization lets deployment replace floating-point
//! multiplies with fixed-point ones. These kernels are that path for the
//! workspace's packed models: activations are quantized to signed codes
//! on a symmetric grid of ±255 steps, weights come from
//! [`crate::PackedWeight`] integer codes, and a single float multiply per
//! output element applies the combined scale:
//!
//! ```text
//! y = (Σ_k w_code[k] · x_code[k]) · (w_step · x_step)
//! ```
//!
//! # One integer kernel
//!
//! Every quantized conv (dense, grouped or depthwise) and linear layer
//! runs one exact integer kernel whose `i32` accumulators hold 8
//! consecutive output channels in their lanes: no patch matrix, no sum
//! across lanes. [`IntegerWeight::from_packed`] packs a weight once, at
//! artifact compile time, into panels of one 16-code step per (8-channel
//! block, tap, input-channel pair). Each sample's codes are copied once
//! into a zero-bordered, channels-last `i16` plane. For a strip of 8
//! output positions the kernel adds, per step, the panel times each
//! position's channel pair at the tap's offset in the plane: one pair
//! broadcast when the block's channels share a group, else each lane its
//! own group's pair (depthwise: one load of 8 pairs). A 1×1 conv without
//! padding gets a plane of only the pixels it reads; a linear layer is
//! the one-tap case with the batch rows as positions. Each lane ends as
//! one output's exact sum: `i32` partial sums over K-chunks that cannot
//! overflow ([`IntegerWeight::k_chunk`]), added up in `i64`, then
//! `sum as f32 * scale`. Tasks split the output planes by shape only
//! ([`csq_tensor::par`]), so results are bit-identical at any thread
//! count and a sample's outputs never depend on its batch.
//!
//! # Compiled once
//!
//! [`IntegerOp::conv`] and [`IntegerOp::linear`] compile a packed weight,
//! the per-sample dims of the op's input and its *calibrated* activation
//! step into one op, at artifact compile time. They are the one place the
//! kernel's operands are checked, with a typed [`QinferError`]. A conv op
//! also fixes its plane layout and the kernel's reads there, as cubek's
//! `Im2colLayout` fixes its convolution parameters when it is built. So
//! [`IntegerOp::forward`] only emits codes, copies planes and runs the
//! kernel, and cannot fail. One fixed step for every request is what
//! makes batched inference bit-identical to single-request inference.
//!
//! # Two bodies, one result
//!
//! The kernel, the plane copy and the two rounding passes (code emission
//! in [`IntegerOp::forward`] and [`uniform_act_quant`]) each have a
//! portable body and an AVX2 body, chosen together by one
//! `is_x86_feature_detected!("avx2")` check; the build still targets
//! baseline x86-64. The AVX2 kernel's `vpmaddwd` sums are exact in any
//! order and `vcvtdq2ps` converts an `i32` as `as f32` does; its plane
//! copy transposes 8 × 8 blocks of the same codes. The AVX2 rounding
//! bodies are the portable Rust expressions compiled again with AVX2
//! enabled: the same IEEE operations on the same inputs (Rust neither
//! fuses a multiply-add nor reassociates). So every body gives the same
//! bits.

use crate::pack::PackedWeight;
use csq_nn::activation::quantize_activation;
use csq_tensor::conv::ConvSpec;
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::Tensor;
use std::sync::OnceLock;

/// Why a weight or an op could not be compiled for the integer kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum QinferError {
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
    /// A weight's code count disagrees with its dims, or their product
    /// overflows (corrupt artifact or hand-built operand).
    CodeCountMismatch {
        /// Which operand (`"weights"`).
        what: &'static str,
        /// Elements implied by the dims.
        expected: usize,
        /// Codes actually present.
        actual: usize,
    },
    /// A weight code is wider than the packed `i16` operand of the
    /// integer kernel ([`MAX_CODE`]). No shipped quantizer makes one: CSQ
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
}

impl std::fmt::Display for QinferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
        }
    }
}

impl std::error::Error for QinferError {}

/// The serving plan's `UniformActQuant` op, in place: every `v` becomes
/// `round(clamp(v, 0, range)/step)·step` with `step = range/levels`, the
/// eval forward of the training layers' activation quantizer, bit for
/// bit.
///
/// # Panics
///
/// Unless `range` and `levels` are both positive and finite: compiling a
/// plan refuses any other.
pub fn uniform_act_quant(x: &mut Tensor, range: f32, levels: f32) {
    let ok = |v: f32| v.is_finite() && v > 0.0;
    assert!(
        ok(range) && ok(levels),
        "act-quant range {range} and levels {levels} must be positive and finite"
    );
    (bodies().act_quant)(x.data_mut(), range, range / levels);
}

/// Code emission: `codes[i] = round(clamp(x[i], −255·step, 255·step)/
/// step)`, kept in ±255, where the clamp's `min` comes first so that NaN
/// becomes `255·step` and takes the top code. That is a whole number `r`
/// in [−255, 255], so `1.5·2²³ + r` is exact and its low 16 bits are `r`:
/// a conversion that vectorizes, unlike `as i16`. Forced inline so that
/// the AVX2 body compiles this same expression with AVX2 enabled.
#[inline(always)]
fn emit_codes(x: &[f32], step: f32, codes: &mut [i16]) {
    let hi = 255.0 * step;
    for (c, &v) in codes.iter_mut().zip(x) {
        let r = (v.min(hi).max(-hi) / step).round().clamp(-255.0, 255.0);
        *c = (r + 12_582_912.0).to_bits() as i16;
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

/// Output channels per kernel block: the `i32` lanes of one 256-bit
/// accumulator.
const LANES: usize = 8;

/// Output positions per kernel strip: one accumulator each.
const STRIP: usize = 8;

/// One strip's outputs, `tile[lane][position]`.
type Tile = [[f32; STRIP]; LANES];

/// The request path's bodies: the kernel block, the plane copy and the
/// two rounding passes.
#[derive(Clone, Copy)]
struct Bodies {
    block: fn(&Block<'_>, &mut [f32]),
    plane: fn(&[i16], &mut [i16], &Plane),
    emit_codes: fn(&[f32], f32, &mut [i16]),
    act_quant: fn(&mut [f32], f32, f32),
}

/// The portable bodies: plain Rust.
const PORTABLE: Bodies = Bodies {
    block,
    plane: fill_plane,
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

/// Largest weight-code magnitude the integer kernel's packed `i16`
/// operand holds. [`IntegerWeight::from_packed`] rejects wider codes with
/// [`QinferError::CodeOutOfRange`].
pub const MAX_CODE: i32 = i16::MAX as i32;

/// Largest activation code magnitude (codes lie in `-255..=255`).
const MAX_ACT_CODE: u32 = 255;

/// A weight's integer codes packed for the integer kernel. Built once at
/// artifact compile time from a [`PackedWeight`]; immutable afterwards.
///
/// The reduction axis is everything after the first dim: a linear weight
/// `[OUT, IN]` is one tap of `IN` channels, a conv weight
/// `[OC, IC/G, KH, KW]` is `KH·KW` taps of `IC/G` channels. Its codes
/// are packed as panels: per block of 8 output rows, one step of 16
/// codes per (tap, channel pair), lane `l` holding row `8b + l`'s codes
/// for the pair (0 past a row's channels and past the last row).
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
    /// Channel pairs per tap: `⌈dims[1] / 2⌉`.
    pairs: usize,
    /// `⌈rows / 8⌉` blocks of `taps · pairs` steps of `2·LANES` codes.
    panels: Vec<i16>,
    /// Products per `i32` partial sum (see [`IntegerWeight::k_chunk`]).
    k_chunk: usize,
}

impl IntegerWeight {
    /// Packs a weight's codes into panels.
    ///
    /// # Errors
    ///
    /// [`QinferError::CodeCountMismatch`] when the code count disagrees
    /// with the dims or their product overflows (corrupt artifact),
    /// [`QinferError::BadRank`] for a weight with no reduction axis, and
    /// [`QinferError::CodeOutOfRange`] for a code beyond ±[`MAX_CODE`].
    pub fn from_packed(w: &PackedWeight) -> Result<IntegerWeight, QinferError> {
        let expected = w.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if expected != Some(w.codes.len()) {
            return Err(QinferError::CodeCountMismatch {
                what: "weights",
                expected: expected.unwrap_or(usize::MAX),
                actual: w.codes.len(),
            });
        }
        if w.dims.len() < 2 {
            return Err(QinferError::BadRank {
                what: "weights",
                expected: 2,
                actual: w.dims.len(),
            });
        }
        let rows = w.dims[0];
        let k: usize = w.dims[1..].iter().product();
        let (taps, pairs) = (w.dims[2..].iter().product::<usize>(), w.dims[1].div_ceil(2));
        let mut panels = vec![0i16; rows.div_ceil(LANES) * taps * pairs * 2 * LANES];
        let mut max_abs = 0u32;
        for (i, &c) in w.codes.iter().enumerate() {
            if c.unsigned_abs() > MAX_CODE as u32 {
                return Err(QinferError::CodeOutOfRange {
                    code: c,
                    max: MAX_CODE,
                });
            }
            max_abs = max_abs.max(c.unsigned_abs());
            // Row o, channel ch, tap t: lane o mod 8 of step (t, ch / 2)
            // of block o / 8, first or second of the pair.
            let (o, ch, t) = (i / k, i % k / taps, i % taps);
            let step = (o / LANES * taps + t) * pairs + ch / 2;
            panels[(step * LANES + o % LANES) * 2 + ch % 2] = c as i16;
        }
        // Every product is at most 255·max_abs in magnitude, so a chunk
        // of i32::MAX / (255·max_abs) products cannot overflow `i32`; an
        // even chunk is whole steps of two products a lane.
        let k_chunk = match max_abs {
            0 => 2 * taps * pairs,
            m => (i32::MAX as u32 / (MAX_ACT_CODE * m)) as usize & !1,
        };
        Ok(IntegerWeight {
            rows,
            k,
            step: w.step,
            dims: w.dims.clone(),
            pairs,
            panels,
            k_chunk: k_chunk.max(2),
        })
    }

    /// Products summed per `i32` partial sum: the largest even count (whole
    /// kernel steps of two products a lane) for which `255 · max|code| ·
    /// k_chunk` still fits in `i32`. Partial sums are added up in `i64`.
    pub fn k_chunk(&self) -> usize {
        self.k_chunk
    }

    /// Bytes held by the packed codes (diagnostics).
    pub fn code_bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<i16>()
    }
}

/// A conv or linear op compiled for the integer kernel: its packed
/// weight, the per-sample dims of its input, its calibrated activation
/// step, and for a conv the plane layout and the kernel's reads there.
/// Built once, when a plan is compiled; immutable afterwards.
#[derive(Debug)]
pub struct IntegerOp {
    weight: IntegerWeight,
    /// One sample's input dims: `[C, H, W]` for a conv, `[IN]` for a
    /// linear op.
    input: Vec<usize>,
    /// Activation step: codes are `round(clamp(v, ±255·step)/step)`.
    step: f32,
    /// A unit sum's value, `weight.step · step`.
    scale: f32,
    /// A conv's output dims `[OC, OH, OW]`, plane and reads; `None` for a
    /// linear op, whose reads depend on the batch.
    conv: Option<([usize; 3], Plane, Reads)>,
}

impl IntegerOp {
    /// Compiles a conv over one sample's `input` dims `[C, H, W]`: the
    /// weight packs `[OC, C/G, K, K]`, whose dims give the group count `G`
    /// (`G = C` for a depthwise conv).
    ///
    /// # Errors
    ///
    /// [`QinferError::BadRank`] unless `input` has rank 3 and the weight
    /// rank 4, [`QinferError::ShapeMismatch`] when the weight fits no
    /// grouping of the `C` channels or its kernel is not `spec`'s,
    /// [`QinferError::InputSmallerThanKernel`] when the padded input is
    /// smaller than the kernel, and [`QinferError::BadStep`] unless `step`
    /// is positive and finite.
    pub fn conv(
        weight: IntegerWeight,
        input: &[usize],
        spec: ConvSpec,
        step: f32,
    ) -> Result<IntegerOp, QinferError> {
        let plan = conv_plan(input, &weight, spec)?;
        IntegerOp::new(weight, input, step, Some(plan))
    }

    /// Compiles a linear op of a weight `[OUT, IN]` over `[IN]` features.
    ///
    /// # Errors
    ///
    /// [`QinferError::BadRank`] unless the weight has rank 2, and
    /// [`QinferError::BadStep`] unless `step` is positive and finite.
    pub fn linear(weight: IntegerWeight, step: f32) -> Result<IntegerOp, QinferError> {
        check_rank("weights", &weight.dims, 2)?;
        let input = [weight.k];
        IntegerOp::new(weight, &input, step, None)
    }

    fn new(
        weight: IntegerWeight,
        input: &[usize],
        step: f32,
        conv: Option<([usize; 3], Plane, Reads)>,
    ) -> Result<IntegerOp, QinferError> {
        if !(step.is_finite() && step > 0.0) {
            return Err(QinferError::BadStep { step });
        }
        Ok(IntegerOp {
            scale: weight.step * step,
            weight,
            input: input.to_vec(),
            step,
            conv,
        })
    }

    /// Runs the op on a batch `x` of `[N, ..input]` floats: emits their
    /// codes on the op's grid, copies each sample's codes into its plane
    /// and runs the kernel. Returns `[N, OC, OH, OW]` for a conv and
    /// `[N, OUT]` for a linear op. `scratch` recycles the code buffer and
    /// the planes.
    ///
    /// # Panics
    ///
    /// If `x` is not a batch of the compiled input dims. A serving
    /// forward checks its batch against the model's input and compiles
    /// each op on the dims that reach it, so it cannot pass one.
    pub fn forward(&self, x: &Tensor, scratch: &ScratchPool<i16>) -> Tensor {
        let dims = x.dims();
        assert!(
            dims.len() == self.input.len() + 1 && dims[1..] == self.input[..],
            "IntegerOp::forward: a {dims:?} batch is not [N, {:?}]",
            self.input
        );
        let (b, n, w) = (bodies(), dims[0], &self.weight);
        let mut codes = scratch.take(x.numel());
        (b.emit_codes)(x.data(), self.step, &mut codes);
        let y = match &self.conv {
            Some(([oc, oh, ow], plane, reads)) => {
                let planes = planes(b, &codes, n, plane, scratch);
                let y = kernel(b, &planes, n, reads, w, self.scale);
                scratch.give(planes);
                Tensor::from_vec(y, &[n, *oc, *oh, *ow])
            }
            // The one-tap case: each batch row one pixel of `IN` codes
            // (padded to even), the rows one sample's positions; the
            // `[OUT, N]` result is transposed.
            None => {
                let pix = 2 * w.pairs;
                let mut plane = vec![0i16; n * pix];
                for (row, codes) in plane
                    .chunks_exact_mut(pix.max(1))
                    .zip(codes.chunks_exact(w.k.max(1)))
                {
                    row[..w.k].copy_from_slice(codes);
                }
                let reads = Reads {
                    pos: (0..n).map(|q| q * pix).collect(),
                    steps: (0..pix).step_by(2).collect(),
                    ocg: w.rows,
                    cgp: 0,
                };
                let yt = kernel(b, &plane, 1, &reads, w, self.scale);
                let y = (0..yt.len())
                    .map(|i| yt[i % w.rows * n + i / w.rows])
                    .collect();
                Tensor::from_vec(y, &[n, w.rows])
            }
        };
        scratch.give(codes);
        y
    }

    /// Bytes held by the packed weight codes (diagnostics).
    pub fn code_bytes(&self) -> usize {
        self.weight.code_bytes()
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

/// Where one sample's `[C, H, W]` codes (`hw = H·W` a channel) sit in its
/// `i16` plane of `pw` pixels a row, `pix` codes a pixel: channel `c` at
/// `c / cg · cgp + c mod cg` (`cgp` even, so a pair is one `i32`), and
/// interior pixel `(iy, ix)` of `ih × iw`, from source pixel `(iy·sub,
/// ix·sub)`, at `(iy + border, ix + border)`; every other code is 0.
#[derive(Debug)]
struct Plane {
    c: usize,
    cg: usize,
    cgp: usize,
    hw: usize,
    w: usize,
    ih: usize,
    iw: usize,
    sub: usize,
    border: usize,
    pw: usize,
    pix: usize,
}

impl Plane {
    /// Codes per plane.
    fn len(&self) -> usize {
        (self.ih + 2 * self.border) * self.pw * self.pix
    }

    /// Plane offset of interior pixel `q`, row-major.
    fn at(&self, q: usize) -> usize {
        ((q / self.iw + self.border) * self.pw + q % self.iw + self.border) * self.pix
    }
}

/// The portable plane body: each channel's interior pixels, a row at a
/// time.
fn fill_plane(src: &[i16], dst: &mut [i16], p: &Plane) {
    for (c, from) in src.chunks_exact(p.hw.max(1)).enumerate() {
        let at = c / p.cg * p.cgp + c % p.cg;
        for iy in 0..p.ih {
            let to = dst[((iy + p.border) * p.pw + p.border) * p.pix + at..].iter_mut();
            let row = from[iy * p.sub * p.w..].iter().step_by(p.sub);
            for (t, &f) in to.step_by(p.pix).zip(row).take(p.iw) {
                *t = f;
            }
        }
    }
}

/// How the kernel reads a plane: the offset of each output position and
/// each step `(tap, pair)`; output row `o`'s group at `o / ocg · cgp`.
#[derive(Debug)]
struct Reads {
    pos: Vec<usize>,
    steps: Vec<usize>,
    ocg: usize,
    cgp: usize,
}

/// Validates a conv and lays out its planes: `input` must be one
/// sample's `[C, H, W]` and the weight `[OC, C/G, K, K]`, with `G`
/// dividing `OC` and the padded input at least `K` wide and high. Returns
/// one sample's output dims `[OC, OH, OW]`, its plane and the kernel's
/// reads. A 1×1 conv without padding reads only every `stride`-th pixel,
/// so its plane holds just those and it runs at stride 1 on it.
fn conv_plan(
    input: &[usize],
    wt: &IntegerWeight,
    spec: ConvSpec,
) -> Result<([usize; 3], Plane, Reads), QinferError> {
    check_rank("activations", input, 3)?;
    check_rank("weights", &wt.dims, 4)?;
    let (c, h, w) = (input[0], input[1], input[2]);
    let (oc, wc, kh, kw) = (wt.dims[0], wt.dims[1], wt.dims[2], wt.dims[3]);
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
    let padded = h.min(w) + 2 * spec.padding;
    if padded < spec.kernel {
        return Err(QinferError::InputSmallerThanKernel {
            padded,
            kernel: spec.kernel,
        });
    }
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let (k, stride, (ih, iw, sub, border)) = if spec.kernel == 1 && spec.padding == 0 {
        (1, 1, (oh, ow, spec.stride, 0))
    } else {
        (spec.kernel, spec.stride, (h, w, 1, spec.padding))
    };
    let (cg, cgp, pw) = (c / groups, 2 * wt.pairs, iw + 2 * border);
    let (hw, pix, ocg) = (h * w, groups * cgp, oc / groups);
    let plane = Plane {
        c,
        cg,
        cgp,
        hw,
        w,
        ih,
        iw,
        sub,
        border,
        pw,
        pix,
    };
    let taps = (0..k * k).map(|t| (t / k * pw + t % k) * pix);
    let steps = taps.flat_map(|t| (t..t + cgp).step_by(2));
    let pos = (0..oh * ow).map(|q| (q / ow * pw + q % ow) * stride * pix);
    let reads = Reads {
        pos: pos.collect(),
        steps: steps.collect(),
        ocg,
        cgp,
    };
    Ok(([oc, oh, ow], plane, reads))
}

/// Copies each of the `n` samples' codes into its zeroed plane, planes
/// back to back in a buffer from `pool`.
fn planes(b: &Bodies, codes: &[i16], n: usize, p: &Plane, pool: &ScratchPool<i16>) -> Vec<i16> {
    let mut planes = pool.take_zeroed(n * p.len());
    par::par_chunks_mut(&mut planes, p.len(), |s, _, dst| {
        (b.plane)(&codes[s * p.c * p.hw..][..p.c * p.hw], dst, p);
    });
    planes
}

/// One call of the kernel's block body: 8 output rows of one sample over
/// all its positions, reading the `panel` (`2·LANES` codes a step) and
/// the planes at `base + pos[q] + steps[s] + lanes[l]` (`base`: the
/// sample's plane at lane 0's group; `lanes`: each lane's group from lane
/// 0's). Live lane `l` stores its outputs at `rows[l]`; `chunk` steps
/// make an `i32` partial sum; a unit sum is worth `scale`.
struct Block<'a> {
    plane: &'a [i16],
    panel: &'a [i16],
    steps: &'a [usize],
    pos: &'a [usize],
    base: usize,
    lanes: [usize; LANES],
    rows: [Option<usize>; LANES],
    chunk: usize,
    scale: f32,
}

/// Runs a block strip by strip: `strip` gives the tile of up to 8
/// positions (a short strip repeats its last); live lanes' rows are kept.
fn strips(b: &Block<'_>, out: &mut [f32], mut strip: impl FnMut([usize; STRIP]) -> Tile) {
    for q0 in (0..b.pos.len()).step_by(STRIP) {
        let valid = STRIP.min(b.pos.len() - q0);
        let pos = std::array::from_fn(|r| b.base + b.pos[q0 + r.min(valid - 1)]);
        let tile = strip(pos);
        for (row, at) in tile.iter().zip(b.rows) {
            match at.map(|at| &mut out[at + q0..]) {
                Some(dst) if valid == STRIP => dst[..STRIP].copy_from_slice(row),
                Some(dst) => dst[..valid].copy_from_slice(&row[..valid]),
                None => {}
            }
        }
    }
}

/// The portable block body: lane `l` at position `p` adds, per step, its
/// two panel codes times the pair at `p + step + lanes[l]`, in `i32` per
/// K-chunk and `i64` across chunks.
fn block(b: &Block<'_>, out: &mut [f32]) {
    strips(b, out, |pos| {
        let mut sums = [[0i64; STRIP]; LANES];
        let panels = b.panel.chunks(2 * LANES * b.chunk);
        for (steps, panel) in b.steps.chunks(b.chunk).zip(panels) {
            let mut acc = [[0i32; STRIP]; LANES];
            for (&off, w) in steps.iter().zip(panel.chunks_exact(2 * LANES)) {
                for ((acc, w), &lane) in acc.iter_mut().zip(w.chunks_exact(2)).zip(&b.lanes) {
                    for (a, &p) in acc.iter_mut().zip(&pos) {
                        let x = &b.plane[p + off + lane..][..2];
                        *a += i32::from(w[0]) * i32::from(x[0]) + i32::from(w[1]) * i32::from(x[1]);
                    }
                }
            }
            for (sum, a) in sums.iter_mut().flatten().zip(acc.iter().flatten()) {
                *sum += i64::from(*a);
            }
        }
        sums.map(|row| row.map(|v| v as f32 * b.scale))
    });
}

/// The integer kernel, `[n, w.rows, pos.len()]`: `out[s, o, q] = scale ·
/// Σ_(i, j) code(o, i, j) · x[s·P + pos[q] + steps[i] + (o / ocg)·cgp +
/// j]` over steps `i` and pairs `j`, `P` one sample's plane. Tasks own
/// whole output planes by shape only, rounded up to 8-row blocks.
fn kernel(b: &Bodies, x: &[i16], n: usize, r: &Reads, w: &IntegerWeight, scale: f32) -> Vec<f32> {
    let (m, rows, span) = (r.pos.len(), w.rows, 2 * LANES * r.steps.len());
    let mut out = vec![0.0f32; n * rows * m];
    let per_task = par::chunk_len(n * rows, m * span / LANES).next_multiple_of(LANES);
    par::par_chunks_mut(&mut out, per_task * m, |_t, start, chunk| {
        let (p0, p1) = (start / m, (start + chunk.len()) / m);
        for s in p0 / rows..p1.div_ceil(rows) {
            let live = p0.max(s * rows) - s * rows..p1.min(s * rows + rows) - s * rows;
            for o0 in (live.start / LANES * LANES..live.end).step_by(LANES) {
                let group = |l: usize| (o0 + l).min(rows - 1) / r.ocg * r.cgp;
                let at = |l| {
                    live.contains(&(o0 + l))
                        .then(|| (s * rows + o0 + l - p0) * m)
                };
                let block = Block {
                    plane: x,
                    panel: &w.panels[o0 / LANES * span..][..span],
                    steps: &r.steps,
                    pos: &r.pos,
                    base: s * (x.len() / n) + group(0),
                    lanes: std::array::from_fn(|l| group(l) - group(0)),
                    rows: std::array::from_fn(at),
                    chunk: w.k_chunk / 2,
                    scale,
                };
                (b.block)(&block, chunk);
            }
        }
    });
    out
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Block, Bodies, Plane, Tile, LANES, STRIP};
    use std::arch::x86_64::*;

    // One 8-lane accumulator per position, transposed as 8 × 8.
    const _: () = assert!(LANES == 8 && STRIP == 8);

    pub(super) fn bodies() -> Option<Bodies> {
        is_x86_feature_detected!("avx2").then_some(Bodies {
            block,
            plane,
            emit_codes,
            act_quant,
        })
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check. A reduction longer than one K-chunk (codes wider than
    /// any shipped quantizer makes) runs the portable body.
    fn block(b: &Block<'_>, out: &mut [f32]) {
        let reach = |xs: &[usize]| xs.iter().copied().max().unwrap_or(0);
        assert_eq!(b.panel.len(), 2 * LANES * b.steps.len(), "panel length");
        let end = b.base + reach(b.pos) + reach(b.steps) + reach(&b.lanes) + 2;
        assert!(b.steps.is_empty() || end <= b.plane.len(), "plane reach");
        assert!(reach(&b.lanes) <= i32::MAX as usize, "lane offset");
        let strip: unsafe fn(&Block<'_>, [usize; STRIP]) -> Tile = match b.lanes {
            _ if b.steps.len() > b.chunk => return super::block(b, out),
            l if l == [0; LANES] => strip::<0>,
            l if l == std::array::from_fn(|l| 2 * l) => strip::<1>,
            _ => strip::<2>,
        };
        super::strips(b, out, |pos| {
            // SAFETY: `bodies` hands this function out only after
            // `is_x86_feature_detected!("avx2")` returned true; the
            // asserts above bound every panel load by the panel's length
            // and every plane read (a pair at `base + pos[q] + step +
            // lanes[l]`, or lane 0's pair and the 7 after it when
            // `lanes[l] = 2l`) by the plane's length.
            unsafe { strip(b, pos) }
        });
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check. Copies 8 × 8 blocks when each source pixel is read
    /// (`sub == 1`) into the same plane channel (`cg == cgp`) and there
    /// are 8 of each; else the portable body.
    fn plane(src: &[i16], dst: &mut [i16], p: &Plane) {
        if !(p.sub == 1 && p.cg == p.cgp && p.c >= 8 && p.hw >= 8) {
            return super::fill_plane(src, dst, p);
        }
        let interior = p.ih * p.iw == p.hw && p.pw == p.iw + 2 * p.border;
        assert!(interior && p.pix == p.c, "plane geometry");
        assert!(src.len() == p.c * p.hw && dst.len() == p.len(), "sizes");
        // SAFETY: `bodies` hands this function out only after
        // `is_x86_feature_detected!("avx2")` returned true. The asserts
        // make the `hw` source pixels the plane's interior and a pixel
        // `c` codes, so each block's loads (8 of `c` channels, 8 of `hw`
        // pixels) lie in `src` and its stores (8 of `c` channels of an
        // interior pixel) in `dst`.
        unsafe { blocks(src, dst, p) }
    }

    /// Only reachable through [`bodies`], which returns it after the
    /// AVX2 check.
    fn emit_codes(x: &[f32], step: f32, codes: &mut [i16]) {
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
    fn emit_codes_avx2(x: &[f32], step: f32, codes: &mut [i16]) {
        super::emit_codes(x, step, codes)
    }

    #[target_feature(enable = "avx2")]
    fn act_quant_avx2(x: &mut [f32], range: f32, step: f32) {
        super::act_quant(x, range, step)
    }

    /// One strip's tile over one K-chunk: per step and position, `vpmaddwd`
    /// of the panel and the lanes' pairs (`MODE` 0: one broadcast, 1: a run
    /// of 8, 2: gathered) into an 8-lane `i32` accumulator; then convert,
    /// scale and transpose the 8 × 8 tile (pairs, quads, halves).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, the panel must hold `2·LANES` codes per
    /// step, and the plane every pair the strip at `pos` reads.
    #[target_feature(enable = "avx2")]
    unsafe fn strip<const MODE: u8>(b: &Block<'_>, pos: [usize; STRIP]) -> Tile {
        let x = pos.map(|p| b.plane.as_ptr().wrapping_add(p));
        let idx = _mm256_loadu_si256(b.lanes.map(|l| l as i32).as_ptr().cast());
        let mut acc = [_mm256_setzero_si256(); STRIP];
        for (i, &off) in b.steps.iter().enumerate() {
            let w = _mm256_loadu_si256(b.panel.as_ptr().add(2 * LANES * i).cast());
            for (a, &p) in acc.iter_mut().zip(&x) {
                let at = p.add(off);
                let v = match MODE {
                    0 => _mm256_set1_epi32(at.cast::<i32>().read_unaligned()),
                    1 => _mm256_loadu_si256(at.cast()),
                    _ => _mm256_i32gather_epi32::<2>(at.cast(), idx),
                };
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(w, v));
            }
        }
        let (scale, mut f) = (_mm256_set1_ps(b.scale), [_mm256_setzero_ps(); STRIP]);
        for (f, a) in f.iter_mut().zip(acc) {
            *f = _mm256_mul_ps(_mm256_cvtepi32_ps(a), scale);
        }
        let mut t = f;
        for i in (0..STRIP).step_by(2) {
            t[i] = _mm256_unpacklo_ps(f[i], f[i + 1]);
            t[i + 1] = _mm256_unpackhi_ps(f[i], f[i + 1]);
        }
        // f[i] and f[i + 4] then hold lanes i and i + 4 of positions 0–3
        // and 4–7.
        for (i, j) in [(0, 0), (2, 1), (4, 4), (6, 5)] {
            f[i] = _mm256_shuffle_ps::<0x44>(t[j], t[j + 2]);
            f[i + 1] = _mm256_shuffle_ps::<0xEE>(t[j], t[j + 2]);
        }
        let mut tile = [[0.0f32; STRIP]; LANES];
        for i in 0..4 {
            let (lo, hi) = (f[i], f[i + 4]);
            _mm256_storeu_ps(tile[i].as_mut_ptr(), _mm256_permute2f128_ps::<0x20>(lo, hi));
            _mm256_storeu_ps(
                tile[i + 4].as_mut_ptr(),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            );
        }
        tile
    }

    /// The plane copy in 8 × 8 blocks of channels and pixels, the last of
    /// each overlapping the one before: 8 loads of 8 codes, an `i16`
    /// transpose (pairs, quads, halves), 8 stores of 8 codes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `src` must hold `c ≥ 8` channels of
    /// `hw ≥ 8` pixels, all interior, and `dst` be `p`'s plane, each pixel
    /// `c` codes.
    #[target_feature(enable = "avx2")]
    unsafe fn blocks(src: &[i16], dst: &mut [i16], p: &Plane) {
        let out = dst.as_mut_ptr();
        for q0 in (0..p.hw).step_by(8).map(|q| q.min(p.hw - 8)) {
            // One division per block unless its pixels span rows.
            let (at0, row) = (p.at(q0), q0 % p.iw + 8 <= p.iw);
            let at = |i| if row { at0 + i * p.pix } else { p.at(q0 + i) };
            for c0 in (0..p.c).step_by(8).map(|c| c.min(p.c - 8)) {
                let mut r = [_mm_setzero_si128(); 8];
                for (i, r) in r.iter_mut().enumerate() {
                    let codes = src.as_ptr().add((c0 + i) * p.hw + q0);
                    *r = _mm_loadu_si128(codes.cast());
                }
                let mut a = r;
                for i in (0..8).step_by(2) {
                    a[i] = _mm_unpacklo_epi16(r[i], r[i + 1]);
                    a[i + 1] = _mm_unpackhi_epi16(r[i], r[i + 1]);
                }
                for (i, j) in [(0, 0), (2, 1), (4, 4), (6, 5)] {
                    r[i] = _mm_unpacklo_epi32(a[j], a[j + 2]);
                    r[i + 1] = _mm_unpackhi_epi32(a[j], a[j + 2]);
                }
                // r[i] and r[i + 4] hold channels 0–3 and 4–7 of pixels
                // 2i and 2i + 1.
                for i in 0..4 {
                    let (lo, hi) = (r[i], r[i + 4]);
                    let to = |px: usize| out.add(at(px) + c0).cast();
                    _mm_storeu_si128(to(2 * i), _mm_unpacklo_epi64(lo, hi));
                    _mm_storeu_si128(to(2 * i + 1), _mm_unpackhi_epi64(lo, hi));
                }
            }
        }
    }
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

    /// The codes this host's emission gives `x` on the grid of `step`.
    fn emit(x: &[f32], step: f32) -> Vec<i16> {
        let mut codes = vec![0; x.len()];
        (bodies().emit_codes)(x, step, &mut codes);
        codes
    }

    /// `x` on the grid of `step`: each value's code times `step`, the
    /// activations the integer kernel multiplies.
    fn on_grid(x: &Tensor, step: f32) -> Tensor {
        let codes = emit(x.data(), step);
        Tensor::from_vec(codes.iter().map(|&c| c as f32 * step).collect(), x.dims())
    }

    /// The step of the grid that just holds `x`'s largest magnitude.
    fn step_of(x: &Tensor) -> f32 {
        x.max_abs() / 255.0
    }

    /// A conv compiled over the per-sample dims of the batch `x`.
    fn conv_op(x: &Tensor, pw: &PackedWeight, spec: ConvSpec, step: f32) -> IntegerOp {
        IntegerOp::conv(int(pw), &x.dims()[1..], spec, step).unwrap()
    }

    fn packed_weight(dims: &[usize], seed: u64) -> (PackedWeight, Tensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w0 = init::uniform(dims, -0.5, 0.5, &mut rng);
        let mut q = BitQuantizer::from_float(&w0, 8, QuantMode::Csq);
        q.finalize();
        let w = q.materialize();
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
        let x = init::uniform(&[64], -3.0, 3.0, &mut rng);
        let step = step_of(&x);
        let back = on_grid(&x, step);
        let bound = step * 0.5 + 1e-6;
        for (&a, &b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn code_emission_uses_the_injected_grid() {
        let codes = emit(&[0.0, 0.5, 1.0, 7.0, -0.5, -7.0], 0.01);
        assert_eq!(
            codes,
            vec![0, 50, 100, 255, -50, -255],
            "±7.0 clamps to ±255·step"
        );
        // The grid does not depend on this tensor's own range: a second
        // tensor with a different maximum shares it.
        assert_eq!(emit(&[0.5], 0.01)[0], codes[1]);
    }

    /// Where format 1 served an op on the integer kernel, format 2 reads
    /// the same codes for the same input: for every input ≥ 0, −0.0 and
    /// NaN the signed grid's code equals format 1's unsigned code (its
    /// expression is kept here). The serving calibration's tests pin the
    /// step.
    #[test]
    fn non_negative_inputs_keep_the_unsigned_grids_codes() {
        let unsigned_code = |v: f32, step: f32| {
            let hi = 255.0 * step;
            ((v.clamp(0.0, hi) / step).round().min(255.0) + 8_388_608.0).to_bits() as u8
        };
        for step in [1e-8, 0.0123, 5.395 / 15.0, 1.0, 3.0e4] {
            let mut xs = vec![
                0.0,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::MAX,
                f32::from_bits(1),
                f32::MIN_POSITIVE,
                0.499_999_97 * step,
            ];
            for n in 0..=300 {
                let (v, half) = (n as f32 * step, (n as f32 + 0.5) * step);
                xs.extend([
                    v.next_down(),
                    v,
                    v.next_up(),
                    half.next_down(),
                    half,
                    half.next_up(),
                ]);
            }
            xs.retain(|v| v.is_nan() || *v >= 0.0);
            for (&v, &code) in xs.iter().zip(&emit(&xs, step)) {
                let want = i16::from(unsigned_code(v, step));
                assert_eq!(code, want, "v = {v:e}, step = {step:e}");
            }
        }
    }

    #[test]
    fn integer_conv_matches_float_conv_within_activation_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Signed activations, as the stem reads.
        let x = init::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let (pw, w) = packed_weight(&[3, 2, 3, 3], 2);
        let (spec, step) = (ConvSpec::new(3, 1, 1), step_of(&x));

        let y_int = conv_op(&x, &pw, spec, step).forward(&x, &ScratchPool::new());
        // Reference: float conv on the activations' grid values is
        // *exactly* what the integer path computes.
        let y_ref = conv2d(&on_grid(&x, step), &w, spec);
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
        let bound = 2.0 * 9.0 * w.max_abs() * step * 0.5 + 1e-4;
        assert!(max_err <= bound, "err {max_err} > bound {bound}");
    }

    #[test]
    fn integer_depthwise_conv_matches_dequantized_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = init::uniform(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let (pw, w) = packed_weight(&[3, 1, 3, 3], 8);
        let (spec, step) = (ConvSpec::new(3, 1, 1), step_of(&x));
        let y_int = conv_op(&x, &pw, spec, step).forward(&x, &ScratchPool::new());
        let y_ref = conv2d(&on_grid(&x, step), &w, spec);
        assert!(y_int.approx_eq(&y_ref, 1e-3));
    }

    #[test]
    fn integer_linear_matches_float_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = init::uniform(&[4, 8], 0.0, 2.0, &mut rng);
        let (pw, w) = packed_weight(&[5, 8], 4);
        let step = step_of(&x);
        let op = IntegerOp::linear(int(&pw), step).unwrap();
        let y_int = op.forward(&x, &ScratchPool::new());
        let y_ref = on_grid(&x, step).matmul_nt(&w);
        assert!(y_int.approx_eq(&y_ref, 1e-3));
    }

    #[test]
    fn integer_accumulation_is_exact_for_large_sums() {
        // 4096 products of max-magnitude codes must not lose precision
        // (i64 accumulation; f32 would).
        let n = 4096usize;
        let x = Tensor::from_vec(vec![255.0; n], &[1, n]);
        let pw = PackedWeight {
            path: "weight".to_string(),
            codes: vec![255i32; n],
            step: 1.0,
            dims: vec![1, n],
            bits: 8.0,
        };
        let op = IntegerOp::linear(int(&pw), 1.0).unwrap();
        let y = op.forward(&x, &ScratchPool::new());
        let expect = 255.0f64 * 255.0 * n as f64;
        assert_eq!(y.data()[0] as f64, expect);
    }

    /// Compiling an op is where its operands are checked, once: ranks,
    /// channels and grouping, the kernel, the padded extent and the step.
    #[test]
    fn compiling_an_op_checks_its_operands() {
        let weight = |dims: &[usize]| {
            int(&PackedWeight {
                path: "weight".to_string(),
                codes: vec![1; dims.iter().product()],
                step: 1.0,
                dims: dims.to_vec(),
                bits: 8.0,
            })
        };
        let spec = ConvSpec::new(3, 1, 1);
        let conv = |wdims: &[usize], input: &[usize], spec, step| {
            IntegerOp::conv(weight(wdims), input, spec, step).map(|_| ())
        };
        let linear = |wdims: &[usize], step| IntegerOp::linear(weight(wdims), step).map(|_| ());
        let rank = |what, expected, actual| {
            Err(QinferError::BadRank {
                what,
                expected,
                actual,
            })
        };
        assert_eq!(conv(&[2, 3], &[3, 4, 4], spec, 1.0), rank("weights", 4, 2));
        assert_eq!(
            conv(&[2, 3, 3, 3], &[3, 4], spec, 1.0),
            rank("activations", 3, 2)
        );
        assert_eq!(linear(&[2, 3, 1, 1], 1.0), rank("weights", 2, 4));
        let mismatch = |what, activation, weight| {
            Err(QinferError::ShapeMismatch {
                what,
                activation,
                weight,
            })
        };
        // 2 channels a group do not divide 3; 2 groups do not divide 3
        // outputs; a 1×1 weight is not a 3×3 kernel.
        assert_eq!(
            conv(&[4, 2, 3, 3], &[3, 4, 4], spec, 1.0),
            mismatch("channels", 3, 2)
        );
        assert_eq!(
            conv(&[3, 2, 3, 3], &[4, 4, 4], spec, 1.0),
            mismatch("channels", 4, 2)
        );
        assert_eq!(
            conv(&[2, 3, 1, 1], &[3, 4, 4], spec, 1.0),
            mismatch("kernel", 3, 1)
        );
        // A 1×1 input cannot hold a 3×3 kernel without padding.
        assert_eq!(
            conv(&[1, 1, 3, 3], &[1, 1, 1], ConvSpec::new(3, 1, 0), 1.0),
            Err(QinferError::InputSmallerThanKernel {
                padded: 1,
                kernel: 3,
            })
        );
        for step in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let bad = |r| matches!(r, Err(QinferError::BadStep { .. }));
            assert!(bad(conv(&[2, 3, 3, 3], &[3, 4, 4], spec, step)), "{step}");
            assert!(bad(linear(&[2, 3], step)), "{step}");
        }
        assert_eq!(conv(&[2, 3, 3, 3], &[3, 4, 4], spec, 1.0), Ok(()));
        assert_eq!(linear(&[2, 3], 1.0), Ok(()));
    }

    #[test]
    #[should_panic(expected = "must be positive and finite")]
    fn act_quant_asserts_a_positive_finite_range() {
        uniform_act_quant(&mut Tensor::from_vec(vec![0.5], &[1]), 0.0, 15.0);
    }

    #[test]
    #[should_panic(expected = "a [1, 2, 5, 6] batch is not [N, [2, 5, 5]]")]
    fn forward_refuses_a_batch_of_other_dims() {
        let (pw, _) = packed_weight(&[4, 2, 3, 3], 12);
        let op = IntegerOp::conv(int(&pw), &[2, 5, 5], ConvSpec::new(3, 1, 1), 0.004).unwrap();
        op.forward(&Tensor::zeros(&[1, 2, 5, 6]), &ScratchPool::new());
    }

    #[test]
    fn pruned_filters_give_exact_zeros() {
        // Zero an entire output filter and one input-channel slice of
        // another: the pruned filter's lanes sum to exactly 0, so its
        // outputs are exactly 0.0, and the rest match the float conv.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let x = init::uniform(&[2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let (mut pw, _) = packed_weight(&[4, 3, 3, 3], 22);
        let flt = 3 * 3 * 3;
        pw.codes[flt..2 * flt].iter_mut().for_each(|c| *c = 0);
        pw.codes[2 * flt + 9..2 * flt + 18]
            .iter_mut()
            .for_each(|c| *c = 0);
        let (spec, step, scratch) = (ConvSpec::new(3, 1, 1), step_of(&x), ScratchPool::new());
        let y = conv_op(&x, &pw, spec, step).forward(&x, &scratch);
        // Float reference on the grid values of the codes and the weight.
        let y_ref = conv2d(&on_grid(&x, step), &pw.unpack(), spec);
        assert!(y.approx_eq(&y_ref, 1e-4));
        let per = 5 * 5;
        assert!(
            y.data()[per..2 * per].iter().all(|&v| v == 0.0),
            "pruned filter's output plane must be exactly zero"
        );

        // Linear: a zero output row gives exact zeros.
        let (mut lw, _) = packed_weight(&[4, 8], 23);
        lw.codes[8..16].iter_mut().for_each(|c| *c = 0);
        let xl = init::uniform(&[3, 8], 0.0, 1.0, &mut rng);
        let linear = IntegerOp::linear(int(&lw), step_of(&xl)).unwrap();
        let yl = linear.forward(&xl, &scratch);
        for bi in 0..3 {
            assert_eq!(yl.data()[bi * 4 + 1], 0.0);
        }

        // Depthwise: zero one channel's filter.
        let (mut dw, _) = packed_weight(&[3, 1, 3, 3], 24);
        dw.codes[..9].iter_mut().for_each(|c| *c = 0);
        let xd = init::uniform(&[1, 3, 5, 5], 0.0, 1.0, &mut rng);
        let yd = conv_op(&xd, &dw, spec, step_of(&xd)).forward(&xd, &scratch);
        assert!(yd.data()[..per].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batched_integer_kernels_equal_concatenated_single_samples() {
        // The serving engine's bit-identity guarantee reduces to this:
        // one compiled op, on its one calibrated step, computes each
        // sample of a batch exactly as it computes that sample alone.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| init::uniform(&[1, 2, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let (pw, _) = packed_weight(&[4, 2, 3, 3], 12);
        let op = IntegerOp::conv(int(&pw), &[2, 5, 5], ConvSpec::new(3, 1, 1), 0.004).unwrap();

        let batch = Tensor::concat_axis0(&xs.iter().collect::<Vec<_>>());
        let scratch = ScratchPool::new();
        let yb = op.forward(&batch, &scratch);
        for (i, x) in xs.iter().enumerate() {
            let y1 = op.forward(x, &scratch);
            let per = y1.numel();
            assert_eq!(
                &yb.data()[i * per..(i + 1) * per],
                y1.data(),
                "sample {i} differs between batched and single"
            );
        }
        assert_eq!(scratch.idle(), 2, "codes and planes go back to the pool");
    }

    /// Activation codes of dims `[N, C, H, W]` on the grid of `step`.
    struct Codes {
        codes: Vec<i16>,
        step: f32,
        dims: Vec<usize>,
    }

    /// A conv by direct loops: `i64` sums of codes times the scale,
    /// `[N, OC, OH, OW]`; output channel `o` reads the channels of its
    /// group `o / (OC/G)`.
    fn direct_conv(x: &Codes, w: &PackedWeight, spec: ConvSpec) -> Vec<f32> {
        let (n, c, h, wd) = (x.dims[0], x.dims[1], x.dims[2], x.dims[3]);
        let (oc, cg, k) = (w.dims[0], w.dims[1], spec.kernel);
        let (oh, ow, ocg) = (spec.out_size(h), spec.out_size(wd), oc / (c / cg));
        let mut out = Vec::with_capacity(n * oc * oh * ow);
        for (ni, o) in (0..n).flat_map(|ni| (0..oc).map(move |o| (ni, o))) {
            for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                let mut acc = 0i64;
                for (ci, t) in (0..cg).flat_map(|ci| (0..k * k).map(move |t| (ci, t))) {
                    let iy = (oy * spec.stride + t / k).checked_sub(spec.padding);
                    let ix = (ox * spec.stride + t % k).checked_sub(spec.padding);
                    if let (Some(iy), Some(ix)) = (iy.filter(|&v| v < h), ix.filter(|&v| v < wd)) {
                        let xc = ((ni * c + o / ocg * cg + ci) * h + iy) * wd + ix;
                        let wc = (o * cg + ci) * k * k + t;
                        acc += i64::from(x.codes[xc]) * i64::from(w.codes[wc]);
                    }
                }
                out.push(acc as f32 * (w.step * x.step));
            }
        }
        out
    }

    /// The AVX2 and portable kernel and plane bodies give the same
    /// planes, and outputs equal to direct loops, on activation codes in
    /// −255..=255: 8-row blocks with a lane tail, blocks whose lanes span
    /// groups (depthwise, `OC/G` of 2 and 5), odd channel counts per
    /// group, position counts that leave a short strip, plane copies with
    /// channel and pixel tails, the 1×1 stride-2 plane, the served 3×3
    /// convs at 8, 16 and 32 channels, linear depths around a pair, and
    /// ±[`MAX_CODE`] codes against all-±255 activations at and past the
    /// K-chunk.
    #[test]
    fn avx2_and_portable_kernel_bodies_agree_bit_for_bit() {
        let avx2 = avx2_bodies();
        if avx2.is_none() {
            println!("no AVX2 on this host: checked only the portable body");
        }
        let bodies: Vec<Bodies> = std::iter::once(PORTABLE).chain(avx2).collect();
        let weight = |dims: &[usize], codes: Vec<i32>| PackedWeight {
            path: "weight".to_string(),
            codes,
            step: 0.5,
            dims: dims.to_vec(),
            bits: 8.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut codes = |len: usize, max: i32| -> Vec<i32> {
            (0..len).map(|_| rng.gen_range(-max..=max)).collect()
        };
        let acts = |dims: &[usize], codes: Vec<i32>| Codes {
            codes: codes.iter().map(|&c| c as i16).collect(),
            step: 0.25,
            dims: dims.to_vec(),
        };
        let scratch = ScratchPool::new();
        // Each body's planes and outputs against the portable planes and
        // direct loops.
        let conv = |x: &Codes, w: &PackedWeight, spec: ConvSpec| {
            let want = direct_conv(x, w, spec);
            let n = x.dims[0];
            let (_, p, reads) = conv_plan(&x.dims[1..], &int(w), spec).unwrap();
            let plane = planes(&PORTABLE, &x.codes, n, &p, &scratch);
            let what = format!("{:?} * {:?}, {spec:?}", x.dims, w.dims);
            for b in &bodies {
                assert_eq!(planes(b, &x.codes, n, &p, &scratch), plane, "plane, {what}");
                let got = kernel(b, &plane, n, &reads, &int(w), w.step * x.step);
                assert_eq!(got, want, "{what}");
            }
        };
        // (N, C, H·W side, OC, C/G, kernel, stride, padding)
        let convs = [
            (2, 3, 5, 5, 3, 3, 1, 1),
            (2, 8, 6, 12, 8, 3, 1, 1),
            (1, 12, 5, 4, 12, 3, 1, 1),
            (2, 10, 5, 10, 1, 3, 1, 1),
            (2, 9, 5, 6, 3, 3, 2, 1),
            (1, 4, 7, 10, 2, 3, 1, 0),
            (2, 5, 4, 7, 5, 5, 1, 2),
            (2, 8, 16, 16, 8, 1, 2, 0),
            (2, 16, 8, 32, 16, 1, 2, 0),
            (2, 8, 16, 8, 8, 3, 1, 1),
            (2, 16, 8, 16, 16, 3, 1, 1),
            (2, 32, 4, 32, 32, 3, 1, 1),
            (2, 8, 16, 16, 8, 3, 2, 1),
        ];
        for (n, c, side, oc, cg, k, stride, pad) in convs {
            let x = acts(&[n, c, side, side], codes(n * c * side * side, 255));
            let w = weight(&[oc, cg, k, k], codes(oc * cg * k * k, 255));
            let spec = ConvSpec::new(k, stride, pad);
            conv(&x, &w, spec);
        }
        // Linear depths as 1×1 convs over one-pixel samples, and an empty
        // reduction through the linear layer.
        let one = ConvSpec::new(1, 1, 0);
        for k in [1usize, 2, 15, 16, 17, 144, 288] {
            for (rows, batch) in [(1, 1), (3, 5), (8, 8), (9, 9), (17, 3)] {
                let w = weight(&[rows, k, 1, 1], codes(rows * k, 255));
                conv(&acts(&[batch, k, 1, 1], codes(batch * k, 255)), &w, one);
            }
        }
        let empty = IntegerOp::linear(int(&weight(&[3, 0], vec![])), 0.25).unwrap();
        let y = empty.forward(&Tensor::zeros(&[2, 0]), &scratch);
        assert_eq!(y.data(), &[0.0; 6]);
        let chunk = int(&weight(&[1, 1], vec![MAX_CODE])).k_chunk();
        let extremes = [MAX_CODE, -MAX_CODE].map(|c| [(c, 255), (c, -255)]);
        for (code, act) in extremes.into_iter().flatten() {
            for k in [chunk, chunk + 1, 2 * chunk + 3] {
                // Rows alternate sign, so every block holds both extremes.
                let w = (0..9 * k).map(|i| [code, -code][i / k % 2]).collect();
                let x = acts(&[3, k, 1, 1], vec![act; 3 * k]);
                conv(&x, &weight(&[9, k, 1, 1], w), one);
            }
            let c = (chunk + 1).div_ceil(9);
            let w = weight(&[5, c, 3, 3], vec![code; 5 * c * 9]);
            conv(
                &acts(&[1, c, 3, 3], vec![act; c * 9]),
                &w,
                ConvSpec::new(3, 1, 1),
            );
        }
    }

    /// Times the integer conv's phases per batch-8 call at the served
    /// ResNet-20 shapes on one thread and prints medians over interleaved
    /// calls: code emission, the plane build, and the kernel with its
    /// store. Each conv is laid out once, as a compiled op is. Run it with
    /// `cargo test --release -p csq-core --lib phase_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn phase_probe() {
        use std::time::Instant;
        // (channels in, out, input side, kernel, stride)
        let shapes = [
            (8, 8, 16, 3, 1),
            (16, 16, 8, 3, 1),
            (32, 32, 4, 3, 1),
            (8, 16, 16, 3, 2),
            (16, 32, 8, 3, 2),
            (8, 16, 16, 1, 2),
            (16, 32, 8, 1, 2),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (pool, calls, step) = (ScratchPool::new(), 400, 0.004);
        println!("phase probe: batch 8, 1 thread, median µs of {calls} calls");
        par::with_threads(1, || {
            for (ic, oc, side, k, stride) in shapes {
                let x = init::uniform(&[8, ic, side, side], 0.0, 1.0, &mut rng);
                let w = int(&packed_weight(&[oc, ic, k, k], 5).0);
                let spec = ConvSpec::new(k, stride, k / 2);
                let (_, plane, reads) = conv_plan(&[ic, side, side], &w, spec).unwrap();
                let mut times = [Vec::new(), Vec::new(), Vec::new()];
                for _ in 0..calls {
                    let t0 = Instant::now();
                    let mut codes = pool.take(x.numel());
                    (bodies().emit_codes)(x.data(), step, &mut codes);
                    let t1 = Instant::now();
                    let p = planes(bodies(), &codes, 8, &plane, &pool);
                    let t2 = Instant::now();
                    let y = kernel(bodies(), &p, 8, &reads, &w, w.step * step);
                    let t3 = Instant::now();
                    std::hint::black_box(y);
                    pool.give(p);
                    pool.give(codes);
                    for (t, (a, b)) in times.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                        t.push((b - a).as_secs_f64() * 1e6);
                    }
                }
                let [emit, plane, kernel] = times.map(|mut t| {
                    t.sort_by(f64::total_cmp);
                    t[t.len() / 2]
                });
                println!(
                    "{k}x{k}/{stride} {ic:>2}->{oc:>2} at {side:>2}²: emission {emit:6.1}  \
                     plane {plane:6.1}  kernel+store {kernel:6.1}  total {:6.1}",
                    emit + plane + kernel
                );
            }
        });
    }

    /// The AVX2 and portable rounding bodies give the same codes and the
    /// same float bits on NaN, ±inf, ±0.0, exact halves `±(n + 0.5)`,
    /// ±0.49999997, subnormals, negative values, and values just under
    /// and over `±255·step` and `range`, each alone and in runs that start
    /// at every offset of an 8-lane vector; the portable body gives the
    /// documented answers.
    #[test]
    fn avx2_and_portable_rounding_bodies_agree_bit_for_bit() {
        let avx2 = avx2_bodies();
        if avx2.is_none() {
            println!("no AVX2 on this host: checked only the portable body");
        }
        let bodies: Vec<Bodies> = std::iter::once(PORTABLE).chain(avx2).collect();
        let codes = |b: &Bodies, xs: &[f32], step: f32| {
            let mut c = vec![0i16; xs.len()];
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
                -0.499_999_97,
                -0.499_999_97 * step,
            ];
            for edge in [255.0 * step, -255.0 * step, range] {
                xs.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for n in -257..=256 {
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
        // +inf take the top code, −inf the bottom one, and act-quant keeps
        // −0.0 and NaN.
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
            -0.5,
            -2.5,
            -254.5,
            -300.0,
        ];
        assert_eq!(
            codes(&PORTABLE, &xs, 1.0),
            [1, 2, 3, 255, 255, 255, 255, -255, 0, -1, -3, -255, -255]
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
