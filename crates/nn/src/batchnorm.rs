//! 2-D batch normalization with exact backward.

use crate::layer::{Layer, ParamMut, ParamPath, ParamRole};
use csq_tensor::Tensor;

/// Batch normalization over the channel axis of NCHW activations.
///
/// Training mode normalizes with batch statistics and maintains running
/// estimates (PyTorch convention: `running = (1 − m)·running + m·batch`
/// with `m = 0.1`); evaluation mode normalizes with the running
/// estimates. The backward pass is the exact analytic gradient through
/// the batch statistics.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with
    /// `γ = 1`, `β = 0`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            eps: 1e-5,
            momentum: 0.1,
            channels,
            cache: None,
        }
    }

    /// Number of channels this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Running mean estimate (inspection/testing).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance estimate (inspection/testing).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.rank(), 4, "BatchNorm2d requires NCHW input");
        let (n, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(c, self.channels, "channel mismatch");
        let hw = h * w;
        let count = (n * hw) as f32;
        let mut out = Tensor::zeros(input.dims());

        if train {
            assert!(
                n * hw > 1,
                "batch norm needs more than one value per channel"
            );
            let mut x_hat = Tensor::zeros(input.dims());
            let mut inv_stds = vec![0.0f32; c];
            for (ci, inv_std_out) in inv_stds.iter_mut().enumerate() {
                let mut mean = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    mean += input.data()[base..base + hw].iter().sum::<f32>();
                }
                mean /= count;
                let mut var = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    var += input.data()[base..base + hw]
                        .iter()
                        .map(|&v| (v - mean) * (v - mean))
                        .sum::<f32>();
                }
                var /= count;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                *inv_std_out = inv_std;
                let (g, b) = (self.gamma.data()[ci], self.beta.data()[ci]);
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    for k in 0..hw {
                        let xh = (input.data()[base + k] - mean) * inv_std;
                        x_hat.data_mut()[base + k] = xh;
                        out.data_mut()[base + k] = g * xh + b;
                    }
                }
                let m = self.momentum;
                self.running_mean.data_mut()[ci] =
                    (1.0 - m) * self.running_mean.data()[ci] + m * mean;
                // Unbiased variance for the running estimate, as PyTorch does.
                let unbiased = var * count / (count - 1.0);
                self.running_var.data_mut()[ci] =
                    (1.0 - m) * self.running_var.data()[ci] + m * unbiased;
            }
            self.cache = Some(BnCache {
                x_hat,
                inv_std: inv_stds,
                dims: input.dims().to_vec(),
            });
        } else {
            for ci in 0..c {
                let mean = self.running_mean.data()[ci];
                let inv_std = 1.0 / (self.running_var.data()[ci] + self.eps).sqrt();
                let (g, b) = (self.gamma.data()[ci], self.beta.data()[ci]);
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    for k in 0..hw {
                        out.data_mut()[base + k] =
                            g * (input.data()[base + k] - mean) * inv_std + b;
                    }
                }
            }
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = crate::layer::take_cache(
            &mut self.cache,
            "BatchNorm2d::backward called before a training forward",
        );
        assert_eq!(grad_output.dims(), cache.dims.as_slice());
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let hw = h * w;
        let count = (n * hw) as f32;
        let mut grad_input = Tensor::zeros(&cache.dims);

        for ci in 0..c {
            // Channel-wise sums: Σ dy and Σ dy·x̂.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * hw;
                for k in 0..hw {
                    let dy = grad_output.data()[base + k];
                    sum_dy += dy;
                    sum_dy_xhat += dy * cache.x_hat.data()[base + k];
                }
            }
            self.grad_beta.data_mut()[ci] += sum_dy;
            self.grad_gamma.data_mut()[ci] += sum_dy_xhat;

            let g = self.gamma.data()[ci];
            let inv_std = cache.inv_std[ci];
            let mean_dy = sum_dy / count;
            let mean_dy_xhat = sum_dy_xhat / count;
            for ni in 0..n {
                let base = (ni * c + ci) * hw;
                for k in 0..hw {
                    let dy = grad_output.data()[base + k];
                    let xh = cache.x_hat.data()[base + k];
                    grad_input.data_mut()[base + k] =
                        g * inv_std * (dy - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        grad_input
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        path.scoped("gamma", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BnAffine,
                &mut self.gamma,
                &mut self.grad_gamma,
            ))
        });
        path.scoped("beta", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BnAffine,
                &mut self.beta,
                &mut self.grad_beta,
            ))
        });
    }

    fn visit_state_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &mut [f32])) {
        path.scoped("running_mean", |p| {
            f(p.as_str(), self.running_mean.data_mut())
        });
        path.scoped("running_var", |p| {
            f(p.as_str(), self.running_var.data_mut())
        });
    }

    fn export_infer_ops(
        &self,
        _path: &mut ParamPath,
        ops: &mut Vec<crate::export::InferOp>,
    ) -> Result<(), crate::export::ExportError> {
        // Fold the evaluation-mode normalization into one per-channel
        // affine: y = γ·(x − mean)·inv_std + β = x·(γ·inv_std) + (β −
        // mean·γ·inv_std).
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for ci in 0..self.channels {
            let inv_std = 1.0 / (self.running_var.data()[ci] + self.eps).sqrt();
            let g = self.gamma.data()[ci];
            let s = g * inv_std;
            scale.push(s);
            shift.push(self.beta.data()[ci] - self.running_mean.data()[ci] * s);
        }
        ops.push(crate::export::InferOp::ChannelAffine { scale, shift });
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::normal(&[4, 2, 3, 3], 5.0, 2.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        let y = bn.forward(&x, true);
        // Per channel, output should have ~zero mean and ~unit variance.
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for k in 0..9 {
                    vals.push(y.data()[(ni * 2 + ci) * 9 + k]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_input_distribution() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(1);
        for _ in 0..200 {
            let x = init::normal(&[8, 1, 2, 2], 3.0, 1.5, &mut rng);
            bn.forward(&x, true);
        }
        assert!((bn.running_mean().data()[0] - 3.0).abs() < 0.2);
        assert!((bn.running_var().data()[0] - 2.25).abs() < 0.5);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.data_mut()[0] = 2.0;
        bn.running_var.data_mut()[0] = 4.0;
        let x = Tensor::full(&[1, 1, 1, 2], 4.0);
        let y = bn.forward(&x, false);
        // (4 - 2) / sqrt(4 + eps) ≈ 1.0
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = init::uniform(&[3, 2, 2, 2], -2.0, 2.0, &mut rng);
        let gy = init::uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma = init::uniform(&[2], 0.5, 1.5, &mut rng);
        bn.beta = init::uniform(&[2], -0.5, 0.5, &mut rng);

        bn.forward(&x, true);
        let gx = bn.backward(&gy);

        // Input gradient, directional.
        let eps = 1e-2f32;
        let dx = init::uniform(x.dims(), -1.0, 1.0, &mut rng);
        let mut xp = x.clone();
        xp.axpy(eps, &dx);
        let mut xm = x.clone();
        xm.axpy(-eps, &dx);
        // Fresh BN copies so running stats don't drift the comparison.
        let eval = |bn: &mut BatchNorm2d, x: &Tensor| {
            let keep_m = bn.running_mean.clone();
            let keep_v = bn.running_var.clone();
            let y = bn.forward(x, true).dot(&gy);
            bn.running_mean = keep_m;
            bn.running_var = keep_v;
            bn.cache = None;
            y
        };
        let num = (eval(&mut bn, &xp) - eval(&mut bn, &xm)) / (2.0 * eps);
        assert!(
            (num - gx.dot(&dx)).abs() < 3e-2 * (1.0 + num.abs()),
            "input grad: numeric {num} vs analytic {}",
            gx.dot(&dx)
        );

        // Gamma/beta gradients.
        let g_gamma = bn.grad_gamma.clone();
        let g_beta = bn.grad_beta.clone();
        for ci in 0..2 {
            bn.gamma.data_mut()[ci] += eps;
            let lp = eval(&mut bn, &x);
            bn.gamma.data_mut()[ci] -= 2.0 * eps;
            let lm = eval(&mut bn, &x);
            bn.gamma.data_mut()[ci] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - g_gamma.data()[ci]).abs() < 3e-2 * (1.0 + num.abs()));

            bn.beta.data_mut()[ci] += eps;
            let lp = eval(&mut bn, &x);
            bn.beta.data_mut()[ci] -= 2.0 * eps;
            let lm = eval(&mut bn, &x);
            bn.beta.data_mut()[ci] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - g_beta.data()[ci]).abs() < 3e-2 * (1.0 + num.abs()));
        }
    }
}
