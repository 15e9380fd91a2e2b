//! BSQ: bit-level sparsity quantization (Yang et al. 2021) — the paper's
//! main baseline and the method CSQ directly improves on.
//!
//! BSQ treats each bit of the quantized weight as an independent
//! trainable variable in `[0, 1]` (Eq. 1 of the CSQ paper):
//!
//! ```text
//! W = s / (2^n − 1) · Round[ Σ_b (W_p^(b) − W_n^(b)) · 2^b ]
//! ```
//!
//! with a straight-through estimator across the rounding, an L1
//! regularizer on the bit variables to induce bit-level structural
//! sparsity, and *periodic hard pruning*: every `prune_every` epochs,
//! most-significant bit planes whose variables have all collapsed below
//! 0.5 are removed and the scale is re-normalized so the represented
//! weights are unchanged. The rounding STE and the hard periodic
//! precision adjustment are exactly the two instabilities CSQ's
//! continuous sparsification removes.

use csq_nn::{ParamMut, ParamPath, ParamRole, WeightSource};
use csq_tensor::Tensor;

/// Maximum fraction of set bits a plane may carry and still be pruned
/// (the BSQ paper prunes planes whose variables fall below a threshold,
/// accepting the small perturbation and re-normalizing).
const PRUNE_TOLERANCE: f32 = 0.01;

/// BSQ bit-level weight parameterization.
#[derive(Debug)]
pub struct BsqWeight {
    dims: Vec<usize>,
    numel: usize,
    /// Bit planes configured at construction.
    total_bits: usize,
    /// Bit planes still active (MSB pruning only reduces this).
    active_bits: usize,
    s: Tensor,
    grad_s: Tensor,
    /// Positive/negative bit variables in `[0, 1]`, laid out `[bits][numel]`.
    bp: Tensor,
    grad_bp: Tensor,
    bn: Tensor,
    grad_bn: Tensor,
    /// L1 strength on the bit variables.
    l1: f32,
    /// Prune near-empty MSB planes every this many epochs.
    prune_every: usize,
    /// Rounded bit-sums cached for the scale gradient.
    cache_v: Option<Vec<f32>>,
}

impl BsqWeight {
    /// Builds the parameterization from an initialized float weight,
    /// decomposing it into `bits` binary planes.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` or `prune_every == 0`.
    pub fn from_float(w: &Tensor, bits: usize, l1: f32, prune_every: usize) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        assert!(prune_every > 0, "prune_every must be positive");
        let numel = w.numel();
        let levels = (1u32 << bits) - 1;
        let s = w.max_abs().max(1e-8);
        let mut bp = vec![0.0f32; bits * numel];
        let mut bn = vec![0.0f32; bits * numel];
        for (i, &wi) in w.data().iter().enumerate() {
            let mag = ((wi.abs() / s) * levels as f32).round().min(levels as f32) as u32;
            for b in 0..bits {
                if (mag >> b) & 1 == 1 {
                    if wi >= 0.0 {
                        bp[b * numel + i] = 1.0;
                    } else {
                        bn[b * numel + i] = 1.0;
                    }
                }
            }
        }
        BsqWeight {
            dims: w.dims().to_vec(),
            numel,
            total_bits: bits,
            active_bits: bits,
            s: Tensor::from_vec(vec![s], &[1]),
            grad_s: Tensor::zeros(&[1]),
            bp: Tensor::from_vec(bp, &[bits * numel]),
            grad_bp: Tensor::zeros(&[bits * numel]),
            bn: Tensor::from_vec(bn, &[bits * numel]),
            grad_bn: Tensor::zeros(&[bits * numel]),
            l1,
            prune_every,
            cache_v: None,
        }
    }

    /// Currently active bit planes.
    pub fn active_bits(&self) -> usize {
        self.active_bits
    }

    /// Whether the given plane is prunable: the fraction of its (rounded)
    /// set bit variables is at or below [`PRUNE_TOLERANCE`]. That small
    /// tolerance matches BSQ's threshold-based structural pruning, which
    /// accepts a bounded perturbation from zeroing the stragglers.
    fn plane_is_prunable(&self, b: usize) -> bool {
        let lo = b * self.numel;
        let hi = lo + self.numel;
        let set = self.bp.data()[lo..hi]
            .iter()
            .chain(self.bn.data()[lo..hi].iter())
            .filter(|&&v| v >= 0.5)
            .count();
        (set as f32) <= PRUNE_TOLERANCE * self.numel as f32
    }
}

impl WeightSource for BsqWeight {
    fn materialize(&mut self) -> Tensor {
        // Project the bit variables back into [0, 1] (BSQ clips after
        // each optimizer update; the projection is idempotent, so calling
        // it from evaluation forwards is harmless).
        self.bp.map_inplace(|v| v.clamp(0.0, 1.0));
        self.bn.map_inplace(|v| v.clamp(0.0, 1.0));

        let levels = ((1u32 << self.active_bits) - 1) as f32;
        let q = self.s.data()[0] / levels;
        let mut v = vec![0.0f32; self.numel];
        for b in 0..self.active_bits {
            let pow = (1u32 << b) as f32;
            let bp = &self.bp.data()[b * self.numel..(b + 1) * self.numel];
            let bn = &self.bn.data()[b * self.numel..(b + 1) * self.numel];
            for i in 0..self.numel {
                v[i] += (bp[i] - bn[i]) * pow;
            }
        }
        for vi in v.iter_mut() {
            *vi = vi.round();
        }
        let w: Vec<f32> = v.iter().map(|&vi| vi * q).collect();
        self.cache_v = Some(v);
        Tensor::from_vec(w, &self.dims)
    }

    fn backward(&mut self, grad_weight: &Tensor) {
        let v = self
            .cache_v
            .as_ref()
            .expect("BsqWeight::backward called before materialize");
        let levels = ((1u32 << self.active_bits) - 1) as f32;
        let q = self.s.data()[0] / levels;
        let dw = grad_weight.data();

        // Scale gradient: dW/ds = V / (2^n − 1).
        let ds: f32 = dw.iter().zip(v.iter()).map(|(&g, &vi)| g * vi).sum::<f32>() / levels;
        self.grad_s.data_mut()[0] += ds;

        // Proximal L1 step (soft-thresholding toward zero). Applying the
        // L1 as a proximal operator rather than a subgradient keeps its
        // strength independent of the optimizer's per-parameter
        // normalization (a constant subgradient fed through Adam would be
        // amplified to full-size steps and collapse every bit), and doing
        // it here — backward runs only in training — keeps evaluation
        // side-effect-free.
        let l1 = self.l1;
        self.bp.map_inplace(|v| (v - l1).max(0.0));
        self.bn.map_inplace(|v| (v - l1).max(0.0));

        // STE across Round: dW/dbp[b,i] = q · 2^b.
        for b in 0..self.active_bits {
            let common = q * (1u32 << b) as f32;
            let gp = &mut self.grad_bp.data_mut()[b * self.numel..(b + 1) * self.numel];
            let gn = &mut self.grad_bn.data_mut()[b * self.numel..(b + 1) * self.numel];
            for i in 0..self.numel {
                gp[i] += dw[i] * common;
                gn[i] += -dw[i] * common;
            }
        }
    }

    fn visit_params_named(&mut self, path: &mut ParamPath, f: &mut dyn FnMut(ParamMut<'_>)) {
        path.scoped("s", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::QuantScale,
                &mut self.s,
                &mut self.grad_s,
            ))
        });
        path.scoped("b_p", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BitLogit,
                &mut self.bp,
                &mut self.grad_bp,
            ))
        });
        path.scoped("b_n", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BitLogit,
                &mut self.bn,
                &mut self.grad_bn,
            ))
        });
    }

    fn on_epoch_end(&mut self, epoch: usize) {
        if !(epoch + 1).is_multiple_of(self.prune_every) {
            return;
        }
        // Prune near-empty MSB planes (keep at least one), re-normalizing
        // the scale so weights below the truncation are unchanged:
        // s' = s · (2^n' − 1)/(2^n − 1). Bits inside the tolerance are
        // zeroed (the bounded perturbation BSQ's hard pruning accepts).
        while self.active_bits > 1 && self.plane_is_prunable(self.active_bits - 1) {
            let b = self.active_bits - 1;
            let lo = b * self.numel;
            let hi = lo + self.numel;
            for v in &mut self.bp.data_mut()[lo..hi] {
                *v = 0.0;
            }
            for v in &mut self.bn.data_mut()[lo..hi] {
                *v = 0.0;
            }
            let old_levels = ((1u32 << self.active_bits) - 1) as f32;
            self.active_bits -= 1;
            let new_levels = ((1u32 << self.active_bits) - 1) as f32;
            let s = self.s.data()[0];
            self.s.data_mut()[0] = s * new_levels / old_levels;
        }
    }

    fn precision(&self) -> Option<f32> {
        Some(self.active_bits as f32)
    }

    fn numel(&self) -> usize {
        self.numel
    }

    fn quant_step(&self) -> Option<f32> {
        let levels = ((1u32 << self.active_bits) - 1) as f32;
        Some(self.s.data()[0] / levels)
    }

    fn finalize(&mut self) {
        // Snap to binary bits *through the represented value*: the
        // training forward rounds the bit-weighted sum, so the snap must
        // re-encode that rounded sum rather than threshold each bit
        // variable independently (which would change the weights).
        let levels = ((1u32 << self.active_bits) - 1) as f32;
        let mut v = vec![0.0f32; self.numel];
        for b in 0..self.active_bits {
            let pow = (1u32 << b) as f32;
            let bp = &self.bp.data()[b * self.numel..(b + 1) * self.numel];
            let bn = &self.bn.data()[b * self.numel..(b + 1) * self.numel];
            for i in 0..self.numel {
                v[i] += (bp[i] - bn[i]) * pow;
            }
        }
        self.bp.fill(0.0);
        self.bn.fill(0.0);
        for (i, &vf) in v.iter().enumerate() {
            let vi = vf.round().clamp(-levels, levels) as i32;
            let mag = vi.unsigned_abs();
            for b in 0..self.active_bits {
                if (mag >> b) & 1 == 1 {
                    if vi >= 0 {
                        self.bp.data_mut()[b * self.numel + i] = 1.0;
                    } else {
                        self.bn.data_mut()[b * self.numel + i] = 1.0;
                    }
                }
            }
        }
    }

    fn bit_mask(&self) -> Option<Vec<bool>> {
        Some((0..self.total_bits).map(|b| b < self.active_bits).collect())
    }
}

/// Factory producing [`BsqWeight`] sources with the given L1 strength and
/// pruning period.
pub fn bsq_factory(
    bits: usize,
    l1: f32,
    prune_every: usize,
) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| Box::new(BsqWeight::from_float(&w, bits, l1, prune_every)) as _
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rand_w(seed: u64, n: usize) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        init::uniform(&[n], -1.0, 1.0, &mut rng)
    }

    #[test]
    fn init_reconstructs_8bit_quantization() {
        let w = rand_w(0, 32);
        let mut q = BsqWeight::from_float(&w, 8, 0.0, 1);
        let m = q.materialize();
        let step = q.quant_step().unwrap();
        for (a, b) in w.iter().zip(m.iter()) {
            assert!((a - b).abs() <= step * 0.51, "{a} vs {b}");
        }
    }

    #[test]
    fn pruning_removes_zero_msb_and_preserves_weights() {
        let w = Tensor::from_vec(vec![0.1, -0.05, 0.08, 0.02], &[4]);
        let mut q = BsqWeight::from_float(&w, 8, 0.0, 1);
        // Force the top three planes to zero.
        for b in 5..8 {
            for i in 0..4 {
                q.bp.data_mut()[b * 4 + i] = 0.0;
                q.bn.data_mut()[b * 4 + i] = 0.0;
            }
        }
        let before = q.materialize();
        q.on_epoch_end(0);
        assert_eq!(q.active_bits(), 5);
        let after = q.materialize();
        assert!(
            after.approx_eq(&before, 1e-5),
            "pruning must not change represented weights"
        );
        assert_eq!(
            q.bit_mask().unwrap(),
            vec![true, true, true, true, true, false, false, false]
        );
    }

    #[test]
    fn pruning_respects_period() {
        let w = Tensor::from_vec(vec![0.4], &[1]);
        let mut q = BsqWeight::from_float(&w, 8, 0.0, 3);
        // Empty every plane by hand; pruning should only fire on epochs
        // where (epoch+1) % 3 == 0, and must keep at least one plane.
        q.bp.fill(0.0);
        q.bn.fill(0.0);
        q.on_epoch_end(0);
        assert_eq!(q.active_bits(), 8, "epoch 0 is not a pruning epoch");
        q.on_epoch_end(2);
        assert_eq!(q.active_bits(), 1, "keeps at least one plane");
    }

    #[test]
    fn msb_plane_occupied_at_init() {
        // The scale is max|w|, so the largest element always uses the
        // MSB plane: no plane is prunable immediately after init.
        let w = rand_w(4, 64);
        let mut q = BsqWeight::from_float(&w, 8, 0.0, 1);
        q.on_epoch_end(0);
        assert_eq!(q.active_bits(), 8);
    }

    #[test]
    fn l1_shrinks_bits_toward_zero() {
        let w = rand_w(1, 16);
        let mut q = BsqWeight::from_float(&w, 4, 0.1, 1);
        let before: f32 = q.bp.sum() + q.bn.sum();
        // With zero task gradient, each backward shrinks every active
        // bit variable by l1 (proximal soft-thresholding).
        let zero = Tensor::zeros(&[16]);
        for _ in 0..3 {
            q.materialize();
            q.backward(&zero);
        }
        let after: f32 = q.bp.sum() + q.bn.sum();
        assert!(
            after < before,
            "L1 must shrink bit mass: {before} -> {after}"
        );
        // Ten shrink steps of 0.1 kill every bit.
        for _ in 0..10 {
            q.materialize();
            q.backward(&zero);
        }
        assert_eq!(q.bp.sum() + q.bn.sum(), 0.0);
        // Evaluation-style forwards (no backward) must not mutate bits.
        let mut q2 = BsqWeight::from_float(&w, 4, 0.1, 1);
        let mass: f32 = q2.bp.sum() + q2.bn.sum();
        for _ in 0..5 {
            q2.materialize();
        }
        assert_eq!(
            q2.bp.sum() + q2.bn.sum(),
            mass,
            "eval forwards are side-effect-free"
        );
    }

    #[test]
    fn ste_gradient_scales_with_place_value() {
        let w = Tensor::from_vec(vec![0.5], &[1]);
        let mut q = BsqWeight::from_float(&w, 4, 0.0, 1);
        q.materialize();
        q.backward(&Tensor::ones(&[1]));
        // grad of bit b is q·2^b: plane 3 gets 8x plane 0.
        let g0 = q.grad_bp.data()[0];
        let g3 = q.grad_bp.data()[3];
        assert!((g3 / g0 - 8.0).abs() < 1e-4, "{g0} {g3}");
    }

    #[test]
    fn finalize_preserves_represented_weights() {
        let w = rand_w(2, 8);
        let mut q = BsqWeight::from_float(&w, 4, 0.0, 1);
        // Perturb the bit variables into fractional territory, as
        // training does.
        for v in q.bp.data_mut().iter_mut() {
            *v = (*v + 0.3).clamp(0.0, 1.0);
        }
        let before = q.materialize();
        q.finalize();
        // Bits are now exactly binary…
        assert!(q.bp.iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(q.bn.iter().all(|&v| v == 0.0 || v == 1.0));
        // …and the represented weights are unchanged (the snap encodes
        // the same rounded sum the training forward used).
        let after = q.materialize();
        assert!(
            after.approx_eq(&before, 1e-5),
            "finalize changed weights: {before} vs {after}"
        );
        let step = q.quant_step().unwrap();
        for &v in after.iter() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-4);
        }
    }

    #[test]
    fn materialize_projects_out_of_range_bits() {
        let w = rand_w(3, 4);
        let mut q = BsqWeight::from_float(&w, 4, 0.0, 1);
        q.bp.data_mut()[0] = 1.7;
        q.bn.data_mut()[0] = -0.5;
        q.materialize();
        assert_eq!(q.bp.data()[0], 1.0);
        assert_eq!(q.bn.data()[0], 0.0);
    }
}
