//! 2-D convolution via im2col / col2im, with exact adjoints.
//!
//! Layouts follow the usual deep-learning conventions:
//!
//! * activations: `[N, C, H, W]` (row-major, so `W` is innermost)
//! * weights: `[OC, IC/G, KH, KW]`
//!
//! The group count `G` is read off the shapes, `IC / weight.dims()[1]`:
//! output channels `g·OC/G ..` read only input channels `g·IC/G ..`.
//! A dense conv (ResNet, VGG) is `G = 1`; a depthwise conv (MobileNetV2)
//! is a `[C, 1, K, K]` weight over `C` channels, `G = C`.
//!
//! Each group of each sample is lowered to a `[(IC/G)·KH·KW, OH·OW]`
//! column matrix, and all three products of a conv run on the
//! packed-panel micro-kernel ([`crate::gemm`]), one group at a time:
//!
//! * forward: `Y = W · cols`, with `W` packed once per call;
//! * weight gradient: each sample's `dY · colsᵀ`, the per-sample
//!   partials folded in ascending sample order;
//! * input gradient: `Wᵀ · dY` (`Wᵀ` packed once per call), scattered
//!   back by col2im, the exact transpose of im2col.
//!
//! Gradients are therefore exact to floating-point rounding — there is
//! no approximation anywhere, which is what the CSQ training pipeline
//! requires. One layout map per call drives the three column-matrix
//! walks of every group: for each column-matrix row and output row it
//! holds, as data, the run of output columns that land inside the input
//! and where that run reads, so no walk tests a bound per element.
//!
//! Every output element is a `p`-ascending f32 sum from `0.0`, so
//! results match [`conv2d_naive`] and [`conv2d_backward_naive`] bit for
//! bit. All passes parallelize over samples through [`crate::par`]:
//! each sample writes a disjoint output range and the weight-gradient
//! partials fold in sample order, so results are bit-identical at any
//! thread count. Column matrices, packed operands and gradient partials
//! come from a caller-supplied [`ScratchPool`] so steady-state training
//! allocates nothing per sample ([`conv2d_with_scratch`],
//! [`conv2d_backward_with_scratch`]); the pool-less entry points exist
//! for one-off calls and tests. With the csq-obs kernel profiler on,
//! the forward records a `conv_im2col` row and the backward one
//! `conv_dw` and one `conv_dx` row.

use crate::gemm::{self, cols_len, rows_len};
use crate::par::{self, ScratchPool};
use crate::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
///
/// # Example
///
/// ```
/// use csq_tensor::conv::ConvSpec;
/// let spec = ConvSpec::new(3, 1, 1); // 3x3, stride 1, "same" padding
/// assert_eq!(spec.out_size(32), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl ConvSpec {
    /// Creates a spec with a square kernel.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        ConvSpec {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an input extent.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_size(&self, in_size: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "padded input ({padded}) smaller than kernel ({})",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// The checked extents of one conv call.
struct Geometry {
    n: usize,
    ic: usize,
    h: usize,
    w: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    /// Channel groups, `IC / weight.dims()[1]`.
    groups: usize,
    /// Column-matrix rows of one group, `(IC/G)·KH·KW`.
    kdim: usize,
}

impl Geometry {
    /// Checks `input` and `weight` against each other and `spec`; the
    /// forward and the backward share these checks and their messages.
    fn new(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Self {
        assert_eq!(input.rank(), 4, "conv2d input must be NCHW");
        assert_eq!(weight.rank(), 4, "conv2d weight must be [OC, IC/G, KH, KW]");
        let (x, wt) = (input.dims(), weight.dims());
        assert!(
            wt[1] > 0 && x[1] > 0 && x[1].is_multiple_of(wt[1]),
            "input/weight channel mismatch"
        );
        let groups = x[1] / wt[1];
        assert!(
            wt[0].is_multiple_of(groups),
            "{} output channels do not split into {groups} groups",
            wt[0]
        );
        assert_eq!(
            wt[2], spec.kernel,
            "weight kernel height mismatch with spec"
        );
        assert_eq!(wt[3], spec.kernel, "weight kernel width mismatch with spec");
        Geometry {
            n: x[0],
            ic: x[1],
            h: x[2],
            w: x[3],
            oc: wt[0],
            oh: spec.out_size(x[2]),
            ow: spec.out_size(x[3]),
            groups,
            kdim: wt[1] * wt[2] * wt[3],
        }
    }

    /// Output positions per sample, `OH·OW`.
    fn spatial(&self) -> usize {
        self.oh * self.ow
    }

    /// Output channels per group, `OC/G`.
    fn group_oc(&self) -> usize {
        self.oc / self.groups
    }

    /// Input elements per group of one sample, `(IC/G)·H·W`.
    fn group_in(&self) -> usize {
        self.ic / self.groups * self.h * self.w
    }
}

/// The valid stretch of one column-matrix row within one output row:
/// output columns `lo..hi` read the sample at `src`, `src + stride`, …;
/// the row's other columns fall in the zero padding.
#[derive(Default)]
struct Run {
    lo: usize,
    hi: usize,
    src: usize,
}

/// The im2col layout map of one conv call, as data: one [`Run`] per
/// column-matrix row `kk = (c, kh, kw)` of one group and output row, in
/// that order. Built once per call and shared by every sample and
/// group: a group's walk takes the sample from its first channel on.
///
/// Run `i` covers column-matrix row `i / OH` and output row `i % OH`,
/// so its stretch of a row-major `[kdim, OH·OW]` matrix starts at
/// `i·OW`.
struct Im2colMap {
    runs: Vec<Run>,
    ow: usize,
    stride: usize,
}

impl Im2colMap {
    fn new(g: &Geometry, spec: ConvSpec) -> Self {
        let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding);
        // Output column `x` reads input column `x·stride + kw - pad`,
        // inside the input for `pad <= x·stride + kw < w + pad`.
        let cols: Vec<(usize, usize)> = (0..k)
            .map(|kw| {
                let hi = (g.w + pad).saturating_sub(kw).div_ceil(stride).min(g.ow);
                (pad.saturating_sub(kw).div_ceil(stride).min(hi), hi)
            })
            .collect();
        let mut runs = Vec::with_capacity(g.kdim * g.oh);
        for c in 0..g.ic / g.groups {
            for kh in 0..k {
                for (kw, &(lo, hi)) in cols.iter().enumerate() {
                    for y in 0..g.oh {
                        let iy = (y * stride + kh).checked_sub(pad).filter(|&iy| iy < g.h);
                        runs.push(match iy {
                            Some(iy) if lo < hi => Run {
                                lo,
                                hi,
                                src: (c * g.h + iy) * g.w + lo * stride + kw - pad,
                            },
                            _ => Run::default(),
                        });
                    }
                }
            }
        }
        Im2colMap {
            runs,
            ow: g.ow,
            stride,
        }
    }

    /// Writes one sample's row-major `[kdim, OH·OW]` column matrix,
    /// padding zeros included, to `cols` (im2col).
    fn gather(&self, sample: &[f32], cols: &mut [f32]) {
        cols.fill(0.0);
        for (r, row) in self.runs.iter().zip(cols.chunks_exact_mut(self.ow)) {
            let dst = &mut row[r.lo..r.hi];
            if self.stride == 1 {
                dst.copy_from_slice(&sample[r.src..r.src + dst.len()]);
            } else {
                for (d, &v) in dst
                    .iter_mut()
                    .zip(sample[r.src..].iter().step_by(self.stride))
                {
                    *d = v;
                }
            }
        }
    }

    /// Adds a row-major `[kdim, OH·OW]` column-gradient matrix into one
    /// sample's input gradient (col2im), in `(kk, oh, ow)` order.
    fn scatter_add(&self, cols: &[f32], grad: &mut [f32]) {
        for (r, row) in self.runs.iter().zip(cols.chunks_exact(self.ow)) {
            let src = &row[r.lo..r.hi];
            if self.stride == 1 {
                let dst = &mut grad[r.src..r.src + src.len()];
                for (g, &v) in dst.iter_mut().zip(src) {
                    *g += v;
                }
            } else {
                let dst = grad[r.src..].iter_mut().step_by(self.stride);
                for (g, &v) in dst.zip(src) {
                    *g += v;
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// `input` is `[N, IC, H, W]`, `weight` is `[OC, IC/G, KH, KW]`;
/// returns `[N, OC, OH, OW]`. Allocates its column workspace per call;
/// layers that run every step should use [`conv2d_with_scratch`].
///
/// # Panics
///
/// Panics on rank mismatches, when `weight.dims()[1]` does not divide
/// the input channels into `G` groups or `G` does not divide the output
/// channels, or when the padded input is smaller than the kernel.
pub fn conv2d(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    conv2d_with_scratch(input, weight, spec, &ScratchPool::new())
}

/// [`conv2d`] with a caller-owned [`ScratchPool`] for the packed weight
/// and the per-sample column matrices, so repeated calls (one per
/// training step) reuse the same workspaces instead of reallocating.
/// Samples run in parallel; results are bit-identical at any thread
/// count.
///
/// # Panics
///
/// Same conditions as [`conv2d`].
pub fn conv2d_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &ScratchPool,
) -> Tensor {
    let g = Geometry::new(input, weight, spec);
    let (oc, ocg, kdim, ns) = (g.oc, g.group_oc(), g.kdim, g.spatial());
    let map = Im2colMap::new(&g, spec);
    let (sample_in, group_in) = (g.ic * g.h * g.w, g.group_in());
    let t0 = gemm::prof_start();
    // Each group's OC/G weight rows, packed once per call.
    let wlen = rows_len(ocg, kdim);
    let mut wp = scratch.take(g.groups * wlen);
    for grp in 0..g.groups {
        let (rows, at) = (&weight.data()[grp * ocg * kdim..], grp * wlen);
        gemm::pack_rows(rows, kdim, 1, ocg, kdim, &mut wp[at..at + wlen]);
    }
    let mut out = vec![0.0f32; g.n * oc * ns];
    // One task per sample; each writes its own [oc, ns] block. The
    // inner GEMMs stay serial — the sample fan-out already saturates.
    par::par_chunks_mut(&mut out, oc * ns, |ni, _start, out_s| {
        let sample = &input.data()[ni * sample_in..(ni + 1) * sample_in];
        let mut cols = scratch.take(kdim * ns);
        let mut bp = scratch.take(cols_len(ns, kdim));
        for grp in 0..g.groups {
            map.gather(&sample[grp * group_in..], &mut cols);
            gemm::pack_cols(&cols, ns, 1, kdim, ns, &mut bp);
            let (w, y) = (grp * wlen, grp * ocg * ns);
            let y = &mut out_s[y..y + ocg * ns];
            gemm::gemm_strips(&wp[w..w + wlen], &bp, ocg, kdim, ns, y);
        }
        scratch.give(cols);
        scratch.give(bp);
    });
    scratch.give(wp);
    let bytes = 4 * (g.n * sample_in + oc * kdim + g.n * oc * ns) as u64;
    gemm::prof_record("conv_im2col", &[g.n, oc, kdim, ns], bytes, t0);
    Tensor::from_vec(out, &[g.n, oc, g.oh, g.ow])
}

/// Gradients of [`conv2d`] with respect to its input and weight.
///
/// Returned as `(grad_input, grad_weight)` with the same shapes as `input`
/// and `weight`. Allocates workspaces per call; training layers should
/// use [`conv2d_backward_with_scratch`].
///
/// # Panics
///
/// Panics on the same conditions as [`conv2d`], or when `grad_output`
/// is not `[N, OC, OH, OW]`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor) {
    conv2d_backward_with_scratch(input, weight, grad_output, spec, &ScratchPool::new())
}

/// [`conv2d_backward`] with a caller-owned [`ScratchPool`]. Samples run
/// in parallel: input gradients go to disjoint per-sample ranges, and
/// per-sample weight-gradient partials are folded in ascending sample
/// order — the same accumulation order as a serial loop, hence
/// bit-identical results at any thread count.
///
/// # Panics
///
/// Same conditions as [`conv2d_backward`].
pub fn conv2d_backward_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
    scratch: &ScratchPool,
) -> (Tensor, Tensor) {
    let g = Geometry::new(input, weight, spec);
    let (oc, ocg, kdim, ns) = (g.oc, g.group_oc(), g.kdim, g.spatial());
    assert_eq!(
        grad_output.dims(),
        &[g.n, oc, g.oh, g.ow],
        "grad_output shape mismatch"
    );
    let map = Im2colMap::new(&g, spec);
    let (sample_in, group_in) = (g.ic * g.h * g.w, g.group_in());
    let sample = |ni: usize| &input.data()[ni * sample_in..(ni + 1) * sample_in];
    let dy = |ni: usize| &grad_output.data()[ni * oc * ns..(ni + 1) * oc * ns];
    let dims = [g.n, oc, kdim, ns];
    let bytes = 4 * (g.n * sample_in + oc * kdim + g.n * oc * ns) as u64;

    // dW: each sample's dY · colsᵀ, group by group.
    let t0 = gemm::prof_start();
    let partials = par::par_map_collect(g.n, |ni| {
        let mut cols = scratch.take(kdim * ns);
        let mut bp = scratch.take(cols_len(kdim, ns));
        let mut dyp = scratch.take(rows_len(ocg, ns));
        let mut gw = scratch.take(oc * kdim);
        for grp in 0..g.groups {
            map.gather(&sample(ni)[grp * group_in..], &mut cols);
            gemm::pack_cols(&cols, 1, ns, ns, kdim, &mut bp);
            gemm::pack_rows(&dy(ni)[grp * ocg * ns..], ns, 1, ocg, ns, &mut dyp);
            let at = grp * ocg * kdim;
            gemm::gemm_strips(&dyp, &bp, ocg, ns, kdim, &mut gw[at..at + ocg * kdim]);
        }
        scratch.give(cols);
        scratch.give(bp);
        scratch.give(dyp);
        gw
    });
    // In-order fold: identical accumulation order to the serial loop.
    let mut grad_w = vec![0.0f32; oc * kdim];
    for p in partials {
        for (acc, &v) in grad_w.iter_mut().zip(p.iter()) {
            *acc += v;
        }
        scratch.give(p);
    }
    gemm::prof_record("conv_dw", &dims, bytes, t0);

    // dX: each group's column gradient Wᵀ · dY, scattered back by col2im.
    let t0 = gemm::prof_start();
    let wtlen = rows_len(kdim, ocg);
    let mut wt = scratch.take(g.groups * wtlen);
    for grp in 0..g.groups {
        let (rows, at) = (&weight.data()[grp * ocg * kdim..], grp * wtlen);
        gemm::pack_rows(rows, 1, kdim, kdim, ocg, &mut wt[at..at + wtlen]);
    }
    let mut grad_input = Tensor::zeros(input.dims());
    par::par_chunks_mut(grad_input.data_mut(), sample_in, |ni, _start, gi| {
        let mut dyp = scratch.take(cols_len(ns, ocg));
        let mut dcols = scratch.take(kdim * ns);
        for grp in 0..g.groups {
            gemm::pack_cols(&dy(ni)[grp * ocg * ns..], ns, 1, ocg, ns, &mut dyp);
            let w = &wt[grp * wtlen..(grp + 1) * wtlen];
            gemm::gemm_strips(w, &dyp, kdim, ocg, ns, &mut dcols);
            map.scatter_add(&dcols, &mut gi[grp * group_in..(grp + 1) * group_in]);
        }
        scratch.give(dyp);
        scratch.give(dcols);
    });
    scratch.give(wt);
    gemm::prof_record("conv_dx", &dims, bytes, t0);
    (grad_input, Tensor::from_vec(grad_w, weight.dims()))
}

/// Reference (direct-loop) convolution used to validate the im2col path.
///
/// Quadratically slower than [`conv2d`]; exposed for tests and benchmarks.
///
/// # Panics
///
/// Panics on the same conditions as [`conv2d`].
pub fn conv2d_naive(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    let g = Geometry::new(input, weight, spec);
    let (k, icg, ocg) = (spec.kernel, g.ic / g.groups, g.group_oc());
    let mut out = Tensor::zeros(&[g.n, g.oc, g.oh, g.ow]);
    for ni in 0..g.n {
        for oci in 0..g.oc {
            // The first input channel of output channel `oci`'s group.
            let c0 = oci / ocg * icg;
            for oi in 0..g.oh {
                for oj in 0..g.ow {
                    let mut acc = 0.0f32;
                    for ici in 0..icg {
                        for ki in 0..k {
                            for kj in 0..k {
                                if let Some((ii, jj)) = tap(&g, spec, oi, oj, ki, kj) {
                                    acc += input.at(&[ni, c0 + ici, ii, jj])
                                        * weight.at(&[oci, ici, ki, kj]);
                                }
                            }
                        }
                    }
                    out.set(&[ni, oci, oi, oj], acc);
                }
            }
        }
    }
    out
}

/// Reference (direct-loop) gradients of [`conv2d`], bit-identical to
/// [`conv2d_backward`] by construction of its loop order:
///
/// * each sample's weight-gradient partial sums output positions
///   `(oh, ow)` in ascending order, and the partials fold in sample
///   order from `0.0`;
/// * each column-gradient entry sums its group's output channels in
///   ascending order, then scatters into the input gradient in
///   `(c, kh, kw)`, `oh`, `ow` order.
///
/// Exposed for tests.
///
/// # Panics
///
/// Panics on the same conditions as [`conv2d_backward`].
pub fn conv2d_backward_naive(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: ConvSpec,
) -> (Tensor, Tensor) {
    let g = Geometry::new(input, weight, spec);
    assert_eq!(
        grad_output.dims(),
        &[g.n, g.oc, g.oh, g.ow],
        "grad_output shape mismatch"
    );
    let (k, icg, ocg) = (spec.kernel, g.ic / g.groups, g.group_oc());
    let mut grad_input = Tensor::zeros(input.dims());
    let mut grad_w = Tensor::zeros(weight.dims());
    for ni in 0..g.n {
        let mut partial = Tensor::zeros(weight.dims());
        for o in 0..g.oc {
            let c0 = o / ocg * icg;
            for c in 0..icg {
                for ki in 0..k {
                    for kj in 0..k {
                        let mut acc = 0.0f32;
                        for oi in 0..g.oh {
                            for oj in 0..g.ow {
                                if let Some((ii, jj)) = tap(&g, spec, oi, oj, ki, kj) {
                                    acc += grad_output.at(&[ni, o, oi, oj])
                                        * input.at(&[ni, c0 + c, ii, jj]);
                                }
                            }
                        }
                        partial.set(&[o, c, ki, kj], acc);
                    }
                }
            }
        }
        for (acc, &v) in grad_w.data_mut().iter_mut().zip(partial.data()) {
            *acc += v;
        }
        for c in 0..g.ic {
            // Channel `c` is channel `c % icg` of group `c / icg`.
            let (group, cl) = (c / icg * ocg..(c / icg + 1) * ocg, c % icg);
            for ki in 0..k {
                for kj in 0..k {
                    for oi in 0..g.oh {
                        for oj in 0..g.ow {
                            let mut acc = 0.0f32;
                            for o in group.clone() {
                                acc +=
                                    weight.at(&[o, cl, ki, kj]) * grad_output.at(&[ni, o, oi, oj]);
                            }
                            if let Some((ii, jj)) = tap(&g, spec, oi, oj, ki, kj) {
                                let at = [ni, c, ii, jj];
                                grad_input.set(&at, grad_input.at(&at) + acc);
                            }
                        }
                    }
                }
            }
        }
    }
    (grad_input, grad_w)
}

/// The input position output `(oi, oj)` reads through kernel tap
/// `(ki, kj)`, or `None` in the zero padding.
fn tap(
    g: &Geometry,
    spec: ConvSpec,
    oi: usize,
    oj: usize,
    ki: usize,
    kj: usize,
) -> Option<(usize, usize)> {
    let ii = (oi * spec.stride + ki).checked_sub(spec.padding)?;
    let jj = (oj * spec.stride + kj).checked_sub(spec.padding)?;
    (ii < g.h && jj < g.w).then_some((ii, jj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rand_t(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        init::uniform(dims, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn out_size_math() {
        let s = ConvSpec::new(3, 1, 1);
        assert_eq!(s.out_size(32), 32);
        let s = ConvSpec::new(3, 2, 1);
        assert_eq!(s.out_size(32), 16);
        let s = ConvSpec::new(1, 1, 0);
        assert_eq!(s.out_size(7), 7);
        let s = ConvSpec::new(7, 2, 3);
        assert_eq!(s.out_size(224), 112);
    }

    #[test]
    fn conv_matches_naive_stride1() {
        let x = rand_t(&[2, 3, 8, 8], 1);
        let w = rand_t(&[4, 3, 3, 3], 2);
        let spec = ConvSpec::new(3, 1, 1);
        assert!(conv2d(&x, &w, spec).approx_eq(&conv2d_naive(&x, &w, spec), 1e-4));
    }

    #[test]
    fn conv_matches_naive_stride2_no_pad() {
        let x = rand_t(&[1, 2, 9, 9], 3);
        let w = rand_t(&[3, 2, 3, 3], 4);
        let spec = ConvSpec::new(3, 2, 0);
        assert!(conv2d(&x, &w, spec).approx_eq(&conv2d_naive(&x, &w, spec), 1e-4));
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        let x = rand_t(&[1, 2, 4, 4], 5);
        let w = rand_t(&[3, 2, 1, 1], 6);
        let spec = ConvSpec::new(1, 1, 0);
        assert!(conv2d(&x, &w, spec).approx_eq(&conv2d_naive(&x, &w, spec), 1e-5));
    }

    /// The backward pass must be the exact adjoint of the forward map:
    /// <conv(x, w), gy> == <x, grad_x> + ... checked via directional
    /// finite differences on both arguments, for a dense weight and a
    /// grouped one (two groups of one input and two output channels).
    #[test]
    fn conv_backward_matches_finite_difference() {
        for wdims in [[2, 2, 3, 3], [4, 1, 3, 3]] {
            fd_check(&wdims);
        }
    }

    fn fd_check(wdims: &[usize]) {
        let x = rand_t(&[1, 2, 5, 5], 7);
        let w = rand_t(wdims, 8);
        let spec = ConvSpec::new(3, 1, 1);
        let gy = rand_t(&[1, wdims[0], 5, 5], 9);
        let (gx, gw) = conv2d_backward(&x, &w, &gy, spec);

        let loss = |x: &Tensor, w: &Tensor| conv2d(x, w, spec).dot(&gy);
        let eps = 1e-2f32;
        // Directional derivative along random directions.
        let dx = rand_t(x.dims(), 10);
        let dw = rand_t(w.dims(), 11);
        let mut xp = x.clone();
        xp.axpy(eps, &dx);
        let mut xm = x.clone();
        xm.axpy(-eps, &dx);
        let num_x = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
        assert!((num_x - gx.dot(&dx)).abs() < 2e-2 * (1.0 + num_x.abs()));

        let mut wp = w.clone();
        wp.axpy(eps, &dw);
        let mut wm = w.clone();
        wm.axpy(-eps, &dw);
        let num_w = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
        assert!((num_w - gw.dot(&dw)).abs() < 2e-2 * (1.0 + num_w.abs()));
    }

    #[test]
    fn conv_backward_strided_adjoint_identity() {
        // <A x, y> == <x, Aᵀ y> where A is conv as a linear map in x.
        let x = rand_t(&[2, 2, 7, 7], 12);
        let w = rand_t(&[3, 2, 3, 3], 13);
        let spec = ConvSpec::new(3, 2, 1);
        let y = conv2d(&x, &w, spec);
        let gy = rand_t(y.dims(), 14);
        let (gx, _) = conv2d_backward(&x, &w, &gy, spec);
        let lhs = y.dot(&gy);
        let rhs = x.dot(&gx);
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    /// Forward and backward are bit-identical at 1 and 4 threads, and
    /// scratch reuse across calls does not perturb results.
    #[test]
    fn parallel_and_scratch_reuse_bitexact() {
        let x = rand_t(&[4, 3, 8, 8], 20);
        let w = rand_t(&[5, 3, 3, 3], 21);
        let spec = ConvSpec::new(3, 1, 1);
        let y = conv2d(&x, &w, spec);
        let gy = rand_t(y.dims(), 22);

        let pool = ScratchPool::new();
        let run = || {
            let y = conv2d_with_scratch(&x, &w, spec, &pool);
            let (gx, gw) = conv2d_backward_with_scratch(&x, &w, &gy, spec, &pool);
            (y, gx, gw)
        };
        let serial = par::with_threads(1, run);
        for _ in 0..3 {
            // Repeated calls exercise dirty pooled buffers.
            let parallel = par::with_threads(4, run);
            assert_eq!(serial.0.data(), parallel.0.data());
            assert_eq!(serial.1.data(), parallel.1.data());
            assert_eq!(serial.2.data(), parallel.2.data());
        }
        assert!(pool.idle() > 0, "workspaces returned to the pool");
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 4, 3, 3]);
        conv2d(&x, &w, ConvSpec::new(3, 1, 1));
    }

    /// Runs the backward on `x` and `w` with a zero output gradient of
    /// the shape the forward's geometry would give.
    fn backward(x: &[usize], w: &[usize], spec: ConvSpec) {
        let (h, wd) = (spec.out_size(x[2]), spec.out_size(x[3]));
        let gy = Tensor::zeros(&[x[0], w[0], h, wd]);
        conv2d_backward(&Tensor::zeros(x), &Tensor::zeros(w), &gy, spec);
    }

    #[test]
    #[should_panic(expected = "conv2d input must be NCHW")]
    fn backward_rejects_a_non_nchw_input() {
        let gy = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[2, 1, 3, 3]);
        conv2d_backward(&Tensor::zeros(&[1, 4, 4]), &w, &gy, ConvSpec::new(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "conv2d weight must be [OC, IC/G, KH, KW]")]
    fn backward_rejects_a_non_rank_4_weight() {
        let gy = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[2, 9]);
        conv2d_backward(
            &Tensor::zeros(&[1, 1, 4, 4]),
            &w,
            &gy,
            ConvSpec::new(3, 1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "input/weight channel mismatch")]
    fn backward_rejects_a_channel_mismatch() {
        // The weight holds 9 elements per output channel, as a 1-channel
        // 3×3 weight would, but in a [OC, 9, 1, 1] layout.
        backward(&[1, 1, 4, 4], &[2, 9, 1, 1], ConvSpec::new(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "3 output channels do not split into 2 groups")]
    fn backward_rejects_output_channels_that_do_not_split_into_groups() {
        backward(&[1, 4, 4, 4], &[3, 2, 3, 3], ConvSpec::new(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "weight kernel height mismatch with spec")]
    fn backward_rejects_a_kernel_height_mismatch() {
        backward(&[1, 1, 4, 4], &[2, 1, 1, 3], ConvSpec::new(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "weight kernel width mismatch with spec")]
    fn backward_rejects_a_kernel_width_mismatch() {
        backward(&[1, 1, 4, 4], &[2, 1, 3, 1], ConvSpec::new(3, 1, 1));
    }

    /// One backward call adds exactly one `conv_dw` and one `conv_dx`
    /// profiler row for its shape, each with one call. The shape is
    /// used by no other test, so concurrent tests cannot touch its rows.
    #[test]
    fn backward_records_one_dw_and_one_dx_profiler_row() {
        let (x, w) = (rand_t(&[3, 2, 7, 5], 30), rand_t(&[6, 2, 3, 3], 31));
        let spec = ConvSpec::new(3, 1, 0);
        let gy = rand_t(&[3, 6, 5, 3], 32);
        let shape = csq_obs::profiler::shape_key(&[3, 6, 18, 15]);
        let profiler = csq_obs::profiler::global();
        let rows = || {
            let mut rows: Vec<_> = profiler
                .snapshot()
                .into_iter()
                .filter(|r| r.shape == shape)
                .map(|r| (r.kind, r.calls))
                .collect();
            rows.sort();
            rows
        };
        let before = rows();
        crate::gemm::profiled(|| conv2d_backward(&x, &w, &gy, spec));
        assert!(before.is_empty(), "{before:?}");
        assert_eq!(
            rows(),
            [("conv_dw".to_string(), 1), ("conv_dx".to_string(), 1)]
        );
    }
}
