//! LQ-Nets-style learned quantization (Zhang et al. 2018), simplified.
//!
//! LQ-Nets represents each quantized weight as `W_i = Σ_j B_ij · v_j`
//! with `B_ij ∈ {−1, +1}` and a per-layer learnable basis `v ∈ R^k`
//! (`k` = bits). Training alternates:
//!
//! 1. **Encoding**: each latent weight is assigned the nearest of the
//!    `2^k` representable levels (exhaustive search; `k ≤ 4` here).
//! 2. **Quantization-error minimization (QEM)**: the basis is refit in
//!    closed form to minimize `Σ_i (w_i − Σ_j B_ij v_j)²`, a `k×k`
//!    least-squares solve.
//!
//! Gradients flow to the latent weights with STE, as in the original.
//! The non-uniform grid is what lets LQ-Nets beat uniform quantizers in
//! the paper's tables.

use csq_nn::{ParamMut, ParamPath, ParamRole, WeightSource};
use csq_tensor::Tensor;

/// LQ-Nets learned-basis weight parameterization.
#[derive(Debug)]
pub struct LqWeight {
    latent: Tensor,
    grad: Tensor,
    bits: usize,
    basis: Vec<f32>,
    /// Refit the basis at most every `qem_every` materializations.
    qem_every: usize,
    step_count: usize,
}

impl LqWeight {
    /// Wraps an initialized float weight. The basis starts as the powers
    /// `max|w| · 2^{j−k} ` scaled so the extreme level matches `max |w|`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=4` (the exhaustive encoder is
    /// exponential in `bits`, and LQ-Nets itself targets ≤ 4 bits).
    pub fn from_float(w: &Tensor, bits: usize) -> Self {
        assert!((1..=4).contains(&bits), "LQ-Nets supports 1..=4 bits");
        let s = w.max_abs().max(1e-8);
        // Geometric init: v_j ∝ 2^j, normalized so Σ v_j = max|w|.
        let total: f32 = (0..bits).map(|j| (1u32 << j) as f32).sum();
        let basis: Vec<f32> = (0..bits).map(|j| s * (1u32 << j) as f32 / total).collect();
        LqWeight {
            grad: Tensor::zeros(w.dims()),
            latent: w.clone(),
            bits,
            basis,
            qem_every: 1,
            step_count: 0,
        }
    }

    /// The current learned basis (inspection/testing).
    pub fn basis(&self) -> &[f32] {
        &self.basis
    }

    /// All representable levels for the current basis (2^bits of them).
    pub fn levels(&self) -> Vec<f32> {
        let k = self.bits;
        (0..(1usize << k))
            .map(|code| {
                (0..k)
                    .map(|j| {
                        if (code >> j) & 1 == 1 {
                            self.basis[j]
                        } else {
                            -self.basis[j]
                        }
                    })
                    .sum()
            })
            .collect()
    }

    /// Encodes every latent weight to its nearest level, returning the
    /// sign matrix column sums needed for QEM plus the quantized values.
    fn encode(&self) -> (Vec<u32>, Vec<f32>) {
        let levels = self.levels();
        let mut codes = Vec::with_capacity(self.latent.numel());
        let mut vals = Vec::with_capacity(self.latent.numel());
        for &w in self.latent.iter() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &l) in levels.iter().enumerate() {
                let d = (w - l).abs();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            codes.push(best as u32);
            vals.push(levels[best]);
        }
        (codes, vals)
    }

    /// One QEM step: closed-form least squares for the basis given the
    /// current encoding. Solves the k×k normal equations `(BᵀB) v = Bᵀw`
    /// by Gaussian elimination.
    fn qem(&mut self, codes: &[u32]) {
        let k = self.bits;
        let mut ata = vec![0.0f64; k * k];
        let mut atb = vec![0.0f64; k];
        for (i, &w) in self.latent.iter().enumerate() {
            let code = codes[i];
            for r in 0..k {
                let br = if (code >> r) & 1 == 1 { 1.0 } else { -1.0 };
                atb[r] += br * w as f64;
                for c in 0..k {
                    let bc = if (code >> c) & 1 == 1 { 1.0 } else { -1.0 };
                    ata[r * k + c] += br * bc;
                }
            }
        }
        // Ridge term for numerical safety when a bit column is constant.
        for r in 0..k {
            ata[r * k + r] += 1e-6;
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..k {
            let mut piv = col;
            for r in col + 1..k {
                if ata[r * k + col].abs() > ata[piv * k + col].abs() {
                    piv = r;
                }
            }
            if piv != col {
                for c in 0..k {
                    ata.swap(col * k + c, piv * k + c);
                }
                atb.swap(col, piv);
            }
            let d = ata[col * k + col];
            if d.abs() < 1e-12 {
                continue;
            }
            for r in 0..k {
                if r == col {
                    continue;
                }
                let f = ata[r * k + col] / d;
                for c in 0..k {
                    ata[r * k + c] -= f * ata[col * k + c];
                }
                atb[r] -= f * atb[col];
            }
        }
        for j in 0..k {
            let d = ata[j * k + j];
            if d.abs() > 1e-12 {
                let v = (atb[j] / d) as f32;
                // Keep basis elements non-negative (sign lives in B).
                self.basis[j] = v.abs().max(1e-8);
            }
        }
    }
}

impl WeightSource for LqWeight {
    fn materialize(&mut self) -> Tensor {
        let (codes, _) = self.encode();
        if self.step_count.is_multiple_of(self.qem_every) {
            self.qem(&codes);
        }
        self.step_count += 1;
        // Re-encode on the updated basis for the actual forward weights.
        let (_, vals) = self.encode();
        Tensor::from_vec(vals, self.latent.dims())
    }

    fn backward(&mut self, grad_weight: &Tensor) {
        // Straight-through to the latent weights.
        self.grad.add_assign_t(grad_weight);
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        f(ParamMut::new(
            path.as_str(),
            ParamRole::Weight,
            &mut self.latent,
            &mut self.grad,
        ));
    }

    fn precision(&self) -> Option<f32> {
        Some(self.bits as f32)
    }

    fn numel(&self) -> usize {
        self.latent.numel()
    }

    fn bit_mask(&self) -> Option<Vec<bool>> {
        Some(vec![true; self.bits])
    }
}

/// Factory producing [`LqWeight`] sources for the model builders.
pub fn lq_factory(bits: usize) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| Box::new(LqWeight::from_float(&w, bits)) as _
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn levels_count_is_two_to_bits() {
        let w = Tensor::ones(&[4]);
        let q = LqWeight::from_float(&w, 3);
        let mut lv = q.levels();
        lv.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(lv.len(), 8);
        // Levels are symmetric about zero for a sign basis.
        for i in 0..4 {
            assert!((lv[i] + lv[7 - i]).abs() < 1e-5, "{lv:?}");
        }
    }

    #[test]
    fn qem_reduces_quantization_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let w = init::normal(&[512], 0.0, 0.5, &mut rng);
        let mut q = LqWeight::from_float(&w, 2);
        let before = {
            let (_, vals) = q.encode();
            Tensor::from_vec(vals, w.dims()).sub(&w).norm()
        };
        // A few QEM rounds.
        for _ in 0..5 {
            let (codes, _) = q.encode();
            q.qem(&codes);
        }
        let after = {
            let (_, vals) = q.encode();
            Tensor::from_vec(vals, w.dims()).sub(&w).norm()
        };
        assert!(
            after <= before + 1e-5,
            "QEM must not increase error: {before} -> {after}"
        );
    }

    #[test]
    fn nonuniform_grid_beats_uniform_on_gaussian() {
        // LQ's fitted grid should out-quantize the uniform grid on
        // normally distributed weights (the reason the paper's LQ rows
        // are strong).
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = init::normal(&[2048], 0.0, 0.3, &mut rng);
        let mut lq = LqWeight::from_float(&w, 2);
        let lq_err = lq.materialize().sub(&w).norm();
        let mut ste = crate::ste_uniform::SteUniformWeight::from_float(&w, 2);
        let ste_err = ste.materialize().sub(&w).norm();
        assert!(lq_err < ste_err, "lq {lq_err} vs uniform {ste_err}");
    }

    #[test]
    fn encode_picks_nearest_level() {
        let w = Tensor::from_vec(vec![10.0, -10.0], &[2]);
        let mut q = LqWeight::from_float(&w, 2);
        let m = q.materialize();
        let levels = q.levels();
        let top = levels.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        assert!((m.data()[0] - top).abs() < 1e-5);
        assert!((m.data()[1] + top).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "1..=4 bits")]
    fn too_many_bits_rejected() {
        LqWeight::from_float(&Tensor::ones(&[2]), 5);
    }
}
