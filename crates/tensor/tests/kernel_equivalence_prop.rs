//! Property-based kernel-equivalence sweep: random shapes that are
//! deliberately *not* multiples of the micro-kernel's `MR × NR`
//! register block must produce results bit-identical to naive
//! references, for every float matrix product and at any thread count.
//! Complements the fixed-shape sweep in `kernel_equivalence.rs` with
//! randomized coverage.

use csq_tensor::conv::{
    conv2d_backward_naive, conv2d_backward_with_scratch, conv2d_naive, conv2d_with_scratch,
    ConvSpec,
};
use csq_tensor::gemm::{MR, NR};
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::prop::for_all;
use csq_tensor::Tensor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The `[m, n]` product whose element `(i, j)` is `Σₚ a(i, p)·b(p, j)`,
/// summed `p`-ascending from `0.0`: the kernel's documented order.
fn naive(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out.set(&[i, j], acc);
        }
    }
    out
}

fn values(rng: &mut ChaCha8Rng, n: usize, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-hi..hi)).collect()
}

/// `n` values in `-3..3`, one in four an exact zero, whose `±0.0`
/// products must leave the sums unchanged.
fn with_zeros(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4) < 3 {
                rng.gen_range(-3.0f32..3.0)
            } else {
                0.0
            }
        })
        .collect()
}

/// GEMM extents from degenerate (1) through just past the register
/// block, so most fall off multiples of `MR` and `NR`.
fn gemm_dims(rng: &mut ChaCha8Rng) -> (usize, usize, usize) {
    (
        rng.gen_range(1usize..18),
        rng.gen_range(1usize..18),
        rng.gen_range(1usize..18),
    )
}

/// GEMM operands of random [`gemm_dims`], with exact zeros in `a`.
fn gemm_pair(rng: &mut ChaCha8Rng) -> (Tensor, Tensor) {
    let (m, k, n) = gemm_dims(rng);
    (
        Tensor::from_vec(with_zeros(rng, m * k), &[m, k]),
        Tensor::from_vec(values(rng, k * n, 3.0), &[k, n]),
    )
}

/// The three group counts a conv draws from: dense (`G = 1`), a
/// proper divisor of the input channels (`1 < G < IC`) and depthwise
/// (`G = IC`).
#[derive(Clone, Copy)]
enum Grouping {
    Dense,
    Divisor,
    Depthwise,
}

impl Grouping {
    fn draw(rng: &mut ChaCha8Rng) -> Grouping {
        [Grouping::Dense, Grouping::Divisor, Grouping::Depthwise][rng.gen_range(0..3)]
    }

    /// `(G, IC, OC)`, with at most `max_icg` input and `max_ocg` output
    /// channels per dense group.
    fn channels(self, rng: &mut ChaCha8Rng, max_icg: usize, max_ocg: usize) -> [usize; 3] {
        let (groups, icg, ocg) = match self {
            Grouping::Dense => (1, rng.gen_range(1..=max_icg), rng.gen_range(1..=max_ocg)),
            Grouping::Divisor => (
                rng.gen_range(2..4),
                rng.gen_range(2..4),
                rng.gen_range(1..4),
            ),
            Grouping::Depthwise => (rng.gen_range(2..7), 1, rng.gen_range(1..3)),
        };
        [groups, groups * icg, groups * ocg]
    }
}

/// Conv inputs small enough for the naive reference, with kernel,
/// stride and padding varied so output extents hit 1 and non-multiples
/// of the micro-kernel's register block, and a weight of `IC/G` input
/// channels for the drawn grouping.
fn conv_case(rng: &mut ChaCha8Rng, grouping: Grouping) -> (Tensor, Tensor, ConvSpec) {
    let n = rng.gen_range(1usize..3);
    let [groups, ic, oc] = grouping.channels(rng, 3, 4);
    let h = rng.gen_range(3usize..10);
    let w = rng.gen_range(3usize..10);
    let kernel = rng.gen_range(1usize..4).min(h.min(w));
    let stride = rng.gen_range(1usize..3);
    let padding = rng.gen_range(0usize..2);
    (
        Tensor::from_vec(values(rng, n * ic * h * w, 2.0), &[n, ic, h, w]),
        Tensor::from_vec(
            values(rng, oc * ic / groups * kernel * kernel, 2.0),
            &[oc, ic / groups, kernel, kernel],
        ),
        ConvSpec::new(kernel, stride, padding),
    )
}

/// `matmul` equals the naive p-ascending reference bit-for-bit at 1
/// and 4 threads.
#[test]
fn matmul_routines_bit_identical() {
    for_all(48, 0, |rng| {
        let (a, b) = gemm_pair(rng);
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let want = naive((m, k, n), |i, p| a.at(&[i, p]), |p, j| b.at(&[p, j]));
        for threads in [1usize, 4] {
            let got = par::with_threads(threads, || a.matmul(&b));
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}, {threads} threads");
        }
    });
}

/// `matmul_tn` and `matmul_nt` equal the naive p-ascending loop over
/// their stored operands bit for bit at 1 and 4 threads.
#[test]
fn transposed_products_bit_identical() {
    for_all(48, 200, |rng| {
        let dims @ (m, k, n) = gemm_dims(rng);
        let at = Tensor::from_vec(with_zeros(rng, k * m), &[k, m]);
        let b = Tensor::from_vec(with_zeros(rng, k * n), &[k, n]);
        let a = Tensor::from_vec(with_zeros(rng, m * k), &[m, k]);
        let bt = Tensor::from_vec(with_zeros(rng, n * k), &[n, k]);
        let want_tn = naive(dims, |i, p| at.at(&[p, i]), |p, j| b.at(&[p, j]));
        let want_nt = naive(dims, |i, p| a.at(&[i, p]), |p, j| bt.at(&[j, p]));
        for threads in [1usize, 4] {
            let (tn, nt) = par::with_threads(threads, || (at.matmul_tn(&b), a.matmul_nt(&bt)));
            assert_eq!(
                bits(&tn),
                bits(&want_tn),
                "tn {m}x{k}x{n}, {threads} threads"
            );
            assert_eq!(
                bits(&nt),
                bits(&want_nt),
                "nt {m}x{k}x{n}, {threads} threads"
            );
        }
    });
}

/// The conv routine equals `conv2d_naive` bit-for-bit at 1 and 4
/// threads, dense, grouped and depthwise (the sweep checks that it met
/// each).
#[test]
fn conv_routines_bit_identical() {
    let mut seen = [false; 3];
    for_all(60, 0, |rng| {
        let grouping = Grouping::draw(rng);
        seen[grouping as usize] = true;
        let (x, w, spec) = conv_case(rng, grouping);
        let want = conv2d_naive(&x, &w, spec);
        let pool = ScratchPool::new();
        for threads in [1usize, 4] {
            par::with_threads(threads, || {
                let got = conv2d_with_scratch(&x, &w, spec, &pool);
                assert_eq!(bits(&got), bits(&want), "{threads} threads");
            });
        }
    });
    assert!(seen.iter().all(|&s| s), "sweep missed a grouping: {seen:?}");
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Both conv gradients equal `conv2d_backward_naive` bit for bit at 1
/// and 4 threads, over 1×1 and 3×3 kernels, strides 1–2, padding 0–1,
/// dense, grouped and depthwise weights, and per-group `OC/G`,
/// `(IC/G)·K²` and `OH·OW` off the micro-kernel's `MR × NR` register
/// block (the sweep checks that it met each of these).
#[test]
fn conv_backward_bit_identical() {
    let mut seen = [false; 12];
    for_all(60, 100, |rng| {
        let grouping = Grouping::draw(rng);
        let n = rng.gen_range(1usize..4);
        let [groups, ic, oc] = grouping.channels(rng, 5, 10);
        let kernel = [1usize, 3][rng.gen_range(0..2)];
        let spec = ConvSpec::new(kernel, rng.gen_range(1..3), rng.gen_range(0..2));
        let (h, w) = (rng.gen_range(3usize..12), rng.gen_range(3usize..12));
        let x = Tensor::from_vec(values(rng, n * ic * h * w, 2.0), &[n, ic, h, w]);
        let (ocg, kdim) = (oc / groups, ic / groups * kernel * kernel);
        let wt = Tensor::from_vec(
            values(rng, oc * kdim, 2.0),
            &[oc, ic / groups, kernel, kernel],
        );
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        let gy = Tensor::from_vec(values(rng, n * oc * oh * ow, 2.0), &[n, oc, oh, ow]);
        let ns = oh * ow;
        for (flag, hit) in seen.iter_mut().zip([
            kernel == 1,
            kernel == 3,
            spec.stride == 1,
            spec.stride == 2,
            spec.padding == 0,
            spec.padding == 1,
            ocg % MR != 0 && ocg % NR != 0,
            kdim % MR != 0 && kdim % NR != 0,
            ns % MR != 0 && ns % NR != 0,
            matches!(grouping, Grouping::Dense),
            matches!(grouping, Grouping::Divisor),
            matches!(grouping, Grouping::Depthwise),
        ]) {
            *flag |= hit;
        }
        let (want_gx, want_gw) = conv2d_backward_naive(&x, &wt, &gy, spec);
        let pool = ScratchPool::new();
        for threads in [1usize, 4] {
            par::with_threads(threads, || {
                let (gx, gw) = conv2d_backward_with_scratch(&x, &wt, &gy, spec, &pool);
                assert_eq!(bits(&gx), bits(&want_gx), "dX, {threads} threads");
                assert_eq!(bits(&gw), bits(&want_gw), "dW, {threads} threads");
            });
        }
    });
    assert!(seen.iter().all(|&s| s), "sweep missed a case: {seen:?}");
}
