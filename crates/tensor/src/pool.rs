//! Spatial pooling operations with exact adjoints.

use crate::Tensor;

/// Result of a max-pool forward pass: the pooled tensor plus the flat
/// input offset chosen for every output element (needed by the backward
/// pass).
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input that won.
    pub argmax: Vec<usize>,
}

/// 2×2-style max pooling with square window `k` and stride `s` (no padding).
///
/// # Panics
///
/// Panics unless `input` is rank 4 and the window fits.
pub fn maxpool2d(input: &Tensor, k: usize, s: usize) -> MaxPoolOutput {
    assert_eq!(input.rank(), 4, "maxpool2d requires NCHW input");
    assert!(k > 0 && s > 0, "window and stride must be positive");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    assert!(h >= k && w >= k, "pooling window larger than input");
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.data();
    let mut oidx = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = base;
                    for ki in 0..k {
                        for kj in 0..k {
                            let at = base + (oi * s + ki) * w + (oj * s + kj);
                            if data[at] > best {
                                best = data[at];
                                best_at = at;
                            }
                        }
                    }
                    out.data_mut()[oidx] = best;
                    argmax[oidx] = best_at;
                    oidx += 1;
                }
            }
        }
    }
    MaxPoolOutput {
        output: out,
        argmax,
    }
}

/// Backward pass of [`maxpool2d`]: routes each output gradient to the
/// input element that won the max.
///
/// # Panics
///
/// Panics if `grad_output.numel() != argmax.len()`.
pub fn maxpool2d_backward(grad_output: &Tensor, argmax: &[usize], input_dims: &[usize]) -> Tensor {
    assert_eq!(
        grad_output.numel(),
        argmax.len(),
        "grad_output / argmax length mismatch"
    );
    let mut grad_input = Tensor::zeros(input_dims);
    for (g, &at) in grad_output.data().iter().zip(argmax.iter()) {
        grad_input.data_mut()[at] += g;
    }
    grad_input
}

/// Average pooling with square window `k` and stride `s` (no padding).
///
/// # Panics
///
/// Panics unless `input` is rank 4 and the window fits.
pub fn avgpool2d(input: &Tensor, k: usize, s: usize) -> Tensor {
    assert_eq!(input.rank(), 4, "avgpool2d requires NCHW input");
    assert!(k > 0 && s > 0, "window and stride must be positive");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    assert!(h >= k && w >= k, "pooling window larger than input");
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    let norm = 1.0 / (k * k) as f32;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let data = input.data();
    let mut oidx = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = 0.0f32;
                    for ki in 0..k {
                        let row = base + (oi * s + ki) * w + oj * s;
                        for kj in 0..k {
                            acc += data[row + kj];
                        }
                    }
                    out.data_mut()[oidx] = acc * norm;
                    oidx += 1;
                }
            }
        }
    }
    out
}

/// Backward pass of [`avgpool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Panics
///
/// Panics on inconsistent geometry.
pub fn avgpool2d_backward(
    grad_output: &Tensor,
    input_dims: &[usize],
    k: usize,
    s: usize,
) -> Tensor {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    assert_eq!(
        grad_output.dims(),
        &[n, c, oh, ow],
        "grad_output shape mismatch"
    );
    let norm = 1.0 / (k * k) as f32;
    let mut grad_input = Tensor::zeros(input_dims);
    let go = grad_output.data();
    let mut oidx = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = go[oidx] * norm;
                    oidx += 1;
                    for ki in 0..k {
                        let row = base + (oi * s + ki) * w + oj * s;
                        for kj in 0..k {
                            grad_input.data_mut()[row + kj] += g;
                        }
                    }
                }
            }
        }
    }
    grad_input
}

/// Global average pooling: `[N, C, H, W]` → `[N, C]`.
///
/// # Panics
///
/// Panics unless `input` is rank 4.
pub fn global_avgpool(input: &Tensor) -> Tensor {
    assert_eq!(input.rank(), 4, "global_avgpool requires NCHW input");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let hw = (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            let s: f32 = input.data()[base..base + h * w].iter().sum();
            out.data_mut()[ni * c + ci] = s / hw;
        }
    }
    out
}

/// Backward pass of [`global_avgpool`].
///
/// # Panics
///
/// Panics on inconsistent geometry.
pub fn global_avgpool_backward(grad_output: &Tensor, input_dims: &[usize]) -> Tensor {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    assert_eq!(grad_output.dims(), &[n, c], "grad_output shape mismatch");
    let norm = 1.0 / (h * w) as f32;
    let mut grad_input = Tensor::zeros(input_dims);
    for ni in 0..n {
        for ci in 0..c {
            let g = grad_output.data()[ni * c + ci] * norm;
            let base = (ni * c + ci) * h * w;
            for v in &mut grad_input.data_mut()[base..base + h * w] {
                *v = g;
            }
        }
    }
    grad_input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_max_and_routes_grad() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 0.0, //
                3.0, 4.0, 1.0, 1.0, //
                0.0, 0.0, 9.0, 8.0, //
                0.0, 0.0, 7.0, 6.0,
            ],
            &[1, 1, 4, 4],
        );
        let p = maxpool2d(&x, 2, 2);
        assert_eq!(p.output.data(), &[4.0, 5.0, 0.0, 9.0]);
        let gy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let gx = maxpool2d_backward(&gy, &p.argmax, x.dims());
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0); // the 4.0
        assert_eq!(gx.at(&[0, 0, 0, 2]), 2.0); // the 5.0
        assert_eq!(gx.at(&[0, 0, 2, 2]), 4.0); // the 9.0
        assert_eq!(gx.sum(), 10.0);
    }

    #[test]
    fn avgpool_is_uniform_average() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = avgpool2d(&x, 2, 2);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
        let gy = Tensor::ones(&[1, 1, 2, 2]);
        let gx = avgpool2d_backward(&gy, x.dims(), 2, 2);
        assert!(gx.iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn avgpool_adjoint_identity() {
        let x = Tensor::from_vec(
            (0..36).map(|v| v as f32 * 0.3 - 5.0).collect(),
            &[1, 1, 6, 6],
        );
        let y = avgpool2d(&x, 3, 3);
        let gy = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 1, 2, 2]);
        let gx = avgpool2d_backward(&gy, x.dims(), 3, 3);
        assert!((y.dot(&gy) - x.dot(&gx)).abs() < 1e-4);
    }

    #[test]
    fn global_avgpool_matches_mean() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let y = global_avgpool(&x);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let gy = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]);
        let gx = global_avgpool_backward(&gy, x.dims());
        assert!(gx.data()[..4].iter().all(|&v| v == 1.0));
        assert!(gx.data()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "pooling window larger than input")]
    fn window_too_large_panics() {
        maxpool2d(&Tensor::zeros(&[1, 1, 2, 2]), 3, 1);
    }
}
