//! The bi-level bit-level weight parameterization (Eqs. 3–5 of the paper).
//!
//! A layer weight `W` with `n` bit planes is materialized as
//!
//! ```text
//! W_i = s / (2^n − 1) · Σ_b ( f_β(m_p[b,i]) − f_β(m_n[b,i]) ) · 2^b · f_β(m_B[b])
//! ```
//!
//! with trainables:
//!
//! * `s` — the per-layer scaling factor,
//! * `m_p, m_n` — per-element, per-bit logits of the positive/negative bit
//!   planes (level 1 of the bi-level sparsification),
//! * `m_B` — per-layer, per-bit selection logits (level 2; determines the
//!   layer precision `Σ_b [m_B^(b) ≥ 0]`).
//!
//! Every factor is smooth, so the gradient of the loss reaches all four
//! groups exactly — no straight-through estimation anywhere. As the
//! temperature β grows, the gates converge to unit steps and the weight
//! converges to an exactly quantized value; [`BitQuantizer::finalize`]
//! snaps the gates to hard steps at the end of training.

use crate::gate::{hard_gate, temp_sigmoid, temp_sigmoid_grad};
use csq_nn::{ParamMut, ParamPath, ParamRole, WeightSource};
use csq_tensor::{par, Tensor};

/// Whether the bit mask is searched (full CSQ) or fixed (the CSQ-Uniform
/// ablation of Table IV, Eq. 3: all configured bits always on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Bi-level CSQ: the per-layer bit mask `m_B` is trainable and the
    /// budget regularizer grows/prunes it (Eq. 5).
    Csq,
    /// Uniform precision: no mask; every configured bit is always
    /// selected (Eq. 3). Used by the CSQ-Uniform ablation rows.
    Uniform,
}

/// Granularity of the learnable scale `s`.
///
/// The paper uses one scalar per layer; per-output-channel scales (as in
/// HAWQ-V3-style deployments) reduce quantization error for layers whose
/// channel magnitudes differ widely, at the cost of one float per
/// channel. Exposed as a design-axis ablation; note that per-channel
/// parameterizations do not expose a single [`WeightSource::quant_step`],
/// so fixed-point packing currently requires per-layer scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleGranularity {
    /// One scale for the whole weight tensor (the paper's choice).
    #[default]
    PerLayer,
    /// One scale per output channel (`dims[0]`).
    PerChannel,
}

#[derive(Debug)]
struct Cache {
    /// Gate values σ(β·m_p), laid out `[bits][numel]`.
    gp: Vec<f32>,
    /// Gate values σ(β·m_n), laid out `[bits][numel]`.
    gn: Vec<f32>,
    /// Mask gate values σ(β·m_B), one per bit.
    gb: Vec<f32>,
    /// Per-element bit sums Σ_b (gp−gn)·2^b·gb (the weight before `s/(2^n−1)`).
    bitsum: Vec<f32>,
}

/// The CSQ weight parameterization, usable anywhere a
/// [`csq_nn::WeightSource`] is expected.
///
/// # Example
///
/// ```
/// use csq_core::{BitQuantizer, QuantMode};
/// use csq_nn::WeightSource;
/// use csq_tensor::Tensor;
///
/// let w0 = Tensor::from_vec(vec![0.5, -0.25, 0.75, -1.0], &[2, 2]);
/// let mut q = BitQuantizer::from_float(&w0, 8, QuantMode::Csq);
/// assert_eq!(q.precision(), Some(8.0)); // starts with all bits selected
///
/// q.finalize(); // gates become unit steps: exactly quantized
/// let step = q.quant_step().unwrap();
/// for &v in q.materialize().iter() {
///     let k = v / step;
///     assert!((k - k.round()).abs() < 1e-3);
/// }
/// ```
#[derive(Debug)]
pub struct BitQuantizer {
    dims: Vec<usize>,
    numel: usize,
    bits: usize,
    mode: QuantMode,
    /// Number of scale groups (1 per-layer; dims[0] per-channel).
    n_scales: usize,
    s: Tensor,
    grad_s: Tensor,
    m_p: Tensor,
    grad_p: Tensor,
    m_n: Tensor,
    grad_n: Tensor,
    m_b: Tensor,
    grad_b: Tensor,
    beta: f32,
    /// Finetune phase: the mask is a hard constant, only `s, m_p, m_n`
    /// receive gradients.
    mask_frozen: bool,
    frozen_mask: Vec<bool>,
    /// Finalized: every gate is a unit step; the weight is exactly
    /// quantized.
    hard: bool,
    cache: Option<Cache>,
}

/// Magnitude of the ± logits used when decomposing an initial float
/// weight into bit-plane logits. At β = 1, σ(±0.3) ≈ 0.57/0.43 — soft
/// enough for early optimization while still encoding the initial bit
/// pattern, and close enough to the gate boundary that training can flip
/// bits within the plastic phase of the temperature schedule.
const INIT_LOGIT: f32 = 0.3;
/// Base value of the initial bit-mask logits: positive, so training
/// starts from the full `n`-bit scheme and the budget regularizer prunes
/// (or re-grows) from there.
const INIT_MASK_BASE: f32 = 0.05;
/// Per-bit stagger of the initial mask logits: the MSB starts slightly
/// higher than the LSB. The budget regularizer applies the *same*
/// gradient to every mask logit of a layer, so without symmetry breaking
/// all bits would cross zero in the same step and the layer precision
/// would collapse 8 → 0 instead of shrinking gradually; the stagger makes
/// low-significance bits (whose removal the task loss defends least)
/// reach the gate boundary first, which is the equilibrium the loss
/// gradients would produce anyway at paper scale.
const INIT_MASK_STAGGER: f32 = 0.03;

impl BitQuantizer {
    /// Builds the parameterization from an initialized float weight: the
    /// scale becomes `max |w|`, the logits encode the `bits`-bit linear
    /// quantization of `w`, and (in [`QuantMode::Csq`]) every mask logit
    /// starts positive (all bits selected).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` or `w` is empty.
    pub fn from_float(w: &Tensor, bits: usize, mode: QuantMode) -> Self {
        Self::with_granularity(w, bits, mode, ScaleGranularity::PerLayer)
    }

    /// Like [`from_float`](BitQuantizer::from_float) with an explicit
    /// scale granularity.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16`, `w` is empty, or a
    /// per-channel granularity is requested for a rank-0 tensor.
    pub fn with_granularity(
        w: &Tensor,
        bits: usize,
        mode: QuantMode,
        granularity: ScaleGranularity,
    ) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        assert!(w.numel() > 0, "cannot quantize an empty weight");
        let numel = w.numel();
        let levels = (1u32 << bits) - 1;
        let n_scales = match granularity {
            ScaleGranularity::PerLayer => 1,
            ScaleGranularity::PerChannel => {
                assert!(w.rank() >= 1, "per-channel scale needs rank >= 1");
                w.dims()[0]
            }
        };
        let chunk = numel / n_scales;
        let mut scales = vec![0.0f32; n_scales];
        for (g, sc) in scales.iter_mut().enumerate() {
            *sc = w.data()[g * chunk..(g + 1) * chunk]
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()))
                .max(1e-8);
        }

        let mut m_p = vec![-INIT_LOGIT; bits * numel];
        let mut m_n = vec![-INIT_LOGIT; bits * numel];
        for (i, &wi) in w.data().iter().enumerate() {
            let s = scales[i / chunk];
            let mag = ((wi.abs() / s) * levels as f32).round().min(levels as f32) as u32;
            for b in 0..bits {
                if (mag >> b) & 1 == 1 {
                    if wi >= 0.0 {
                        m_p[b * numel + i] = INIT_LOGIT;
                    } else {
                        m_n[b * numel + i] = INIT_LOGIT;
                    }
                }
            }
        }

        BitQuantizer {
            dims: w.dims().to_vec(),
            numel,
            bits,
            mode,
            n_scales,
            grad_s: Tensor::zeros(&[n_scales]),
            s: Tensor::from_vec(scales, &[n_scales]),
            m_p: Tensor::from_vec(m_p, &[bits * numel]),
            grad_p: Tensor::zeros(&[bits * numel]),
            m_n: Tensor::from_vec(m_n, &[bits * numel]),
            grad_n: Tensor::zeros(&[bits * numel]),
            m_b: Tensor::from_vec(
                (0..bits)
                    .map(|b| INIT_MASK_BASE + INIT_MASK_STAGGER * b as f32)
                    .collect(),
                &[bits],
            ),
            grad_b: Tensor::zeros(&[bits]),
            beta: 1.0,
            mask_frozen: false,
            frozen_mask: Vec::new(),
            hard: false,
            cache: None,
        }
    }

    /// Number of bit planes configured (the paper uses 8).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The quantization mode.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// Current temperature β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// Current scale `s` (first group for per-channel granularity).
    pub fn scale(&self) -> f32 {
        self.s.data()[0]
    }

    /// All scale groups (length 1 for per-layer granularity).
    pub fn scales(&self) -> &[f32] {
        self.s.data()
    }

    /// Elements covered by each scale group.
    fn scale_chunk(&self) -> usize {
        self.numel / self.n_scales
    }

    /// Whether the mask has been frozen for finetuning.
    pub fn is_mask_frozen(&self) -> bool {
        self.mask_frozen
    }

    /// The raw mask logits (testing/inspection).
    pub fn mask_logits(&self) -> &[f32] {
        self.m_b.data()
    }

    /// Overrides the initial mask logits with `base + stagger·b` for bit
    /// `b`. The default stagger breaks the symmetry between bits (see the
    /// constant documentation); `stagger = 0` reproduces the naive
    /// uniform initialization used by the ablation bench.
    ///
    /// # Panics
    ///
    /// Panics if the mask is already frozen.
    pub fn set_mask_init(&mut self, base: f32, stagger: f32) {
        assert!(!self.mask_frozen, "cannot re-init a frozen mask");
        for (b, v) in self.m_b.data_mut().iter_mut().enumerate() {
            *v = base + stagger * b as f32;
        }
    }

    fn mask_gate(&self, b: usize) -> f32 {
        match self.mode {
            QuantMode::Uniform => 1.0,
            QuantMode::Csq => {
                if self.mask_frozen {
                    if self.frozen_mask[b] {
                        1.0
                    } else {
                        0.0
                    }
                } else if self.hard {
                    hard_gate(self.m_b.data()[b])
                } else {
                    temp_sigmoid(self.m_b.data()[b], self.beta)
                }
            }
        }
    }

    /// Whether mask gradients flow (soft, searched mask).
    fn mask_trainable(&self) -> bool {
        self.mode == QuantMode::Csq && !self.mask_frozen && !self.hard
    }
}

impl WeightSource for BitQuantizer {
    fn materialize(&mut self) -> Tensor {
        let levels = ((1u32 << self.bits) - 1) as f32;
        let chunk = self.scale_chunk();
        let numel = self.numel;
        let bits = self.bits;

        // Reuse the previous step's cache buffers (every element is
        // rewritten below), so steady-state training allocates only the
        // output tensor.
        let (mut gp, mut gn, mut gb, mut bitsum) = match self.cache.take() {
            Some(c) if c.gp.len() == bits * numel => (c.gp, c.gn, c.gb, c.bitsum),
            _ => (
                vec![0.0f32; bits * numel],
                vec![0.0f32; bits * numel],
                vec![0.0f32; bits],
                vec![0.0f32; numel],
            ),
        };
        // Mask gates: one temperature sigmoid per *bit*, hoisted out of
        // the per-element loops below.
        for (b, g) in gb.iter_mut().enumerate() {
            *g = self.mask_gate(b);
        }

        let hard = self.hard;
        let beta = self.beta;
        let mp_all = self.m_p.data();
        let mn_all = self.m_n.data();
        let scales = self.s.data();
        let gb_ro: &[f32] = &gb;

        // Element-chunk × bit-plane partition: each task owns a fixed
        // element range across every bit plane, accumulating its bitsum
        // in ascending-bit order — the serial accumulation order, hence
        // bit-identical results at any thread count.
        let mut w = vec![0.0f32; numel];
        let elem_chunk = par::chunk_len(numel, 8 * bits);
        let n_tasks = numel.div_ceil(elem_chunk);
        let gp_sh = par::SharedSliceMut::new(&mut gp);
        let gn_sh = par::SharedSliceMut::new(&mut gn);
        let bs_sh = par::SharedSliceMut::new(&mut bitsum);
        let w_sh = par::SharedSliceMut::new(&mut w);
        par::for_each_task(n_tasks, |t| {
            let e0 = t * elem_chunk;
            let len = elem_chunk.min(numel - e0);
            // SAFETY: element range e0..e0+len belongs to task t alone,
            // in the flat buffers and in every bit plane.
            let bs = unsafe { bs_sh.slice_mut(e0, len) };
            // SAFETY: the same range of the weight buffer, task t's alone.
            let ws = unsafe { w_sh.slice_mut(e0, len) };
            bs.fill(0.0);
            for (b, &gb) in gb_ro.iter().enumerate() {
                let base = b * numel + e0;
                let mp = &mp_all[base..base + len];
                let mn = &mn_all[base..base + len];
                // SAFETY: same disjoint element range, plane b.
                let gpb = unsafe { gp_sh.slice_mut(base, len) };
                // SAFETY: the same range of the negative-gate planes.
                let gnb = unsafe { gn_sh.slice_mut(base, len) };
                let pow = (1u32 << b) as f32 * gb;
                // The hard/soft gate branch is hoisted out of the
                // element loop (it is constant for a whole step).
                if hard {
                    for i in 0..len {
                        let p = hard_gate(mp[i]);
                        let n = hard_gate(mn[i]);
                        gpb[i] = p;
                        gnb[i] = n;
                        bs[i] += (p - n) * pow;
                    }
                } else {
                    for i in 0..len {
                        let p = temp_sigmoid(mp[i], beta);
                        let n = temp_sigmoid(mn[i], beta);
                        gpb[i] = p;
                        gnb[i] = n;
                        bs[i] += (p - n) * pow;
                    }
                }
            }
            for i in 0..len {
                ws[i] = bs[i] * scales[(e0 + i) / chunk] / levels;
            }
        });
        self.cache = Some(Cache { gp, gn, gb, bitsum });
        Tensor::from_vec(w, &self.dims)
    }

    fn backward(&mut self, grad_weight: &Tensor) {
        assert_eq!(
            grad_weight.dims(),
            self.dims.as_slice(),
            "grad_weight shape mismatch"
        );
        let cache = match self.cache.as_ref() {
            Some(c) => c,
            None => panic!("BitQuantizer::backward called before materialize"),
        };
        let levels = ((1u32 << self.bits) - 1) as f32;
        let chunk = self.scale_chunk();
        let numel = self.numel;
        let dw = grad_weight.data();

        // ds_g = Σ_{i in group g} dW_i · bitsum_i / (2^n − 1)
        for g in 0..self.n_scales {
            let ds: f32 = dw[g * chunk..(g + 1) * chunk]
                .iter()
                .zip(cache.bitsum[g * chunk..(g + 1) * chunk].iter())
                .map(|(&gv, &b)| gv * b)
                .sum::<f32>()
                / levels;
            self.grad_s.data_mut()[g] += ds;
        }

        if self.hard {
            // After finalization only `s` remains meaningfully trainable;
            // hard gates have zero derivative everywhere.
            return;
        }

        let beta = self.beta;
        let mask_trainable = self.mask_trainable();
        let bits = self.bits;
        let scales = self.s.data();
        let grad_p_sh = par::SharedSliceMut::new(self.grad_p.data_mut());
        let grad_n_sh = par::SharedSliceMut::new(self.grad_n.data_mut());

        // Same element-chunk partition as materialize. Logit gradients
        // go to disjoint ranges; each task returns one mask-gradient
        // partial per bit, and the partials are folded in ascending task
        // order — a fixed, thread-count-independent reduction order.
        let elem_chunk = par::chunk_len(numel, 10 * bits);
        let n_tasks = numel.div_ceil(elem_chunk);
        let partials = par::par_map_collect(n_tasks, |t| {
            let e0 = t * elem_chunk;
            let len = elem_chunk.min(numel - e0);
            let mut mask_partial = vec![0.0f32; if mask_trainable { bits } else { 0 }];
            for (b, &gb) in cache.gb.iter().enumerate() {
                let pow = (1u32 << b) as f32;
                let base = b * numel + e0;
                let gpb = &cache.gp[base..base + len];
                let gnb = &cache.gn[base..base + len];
                // SAFETY: element range e0..e0+len of plane b belongs to
                // task t alone.
                let grad_pb = unsafe { grad_p_sh.slice_mut(base, len) };
                // SAFETY: the same range of the negative-logit gradient.
                let grad_nb = unsafe { grad_n_sh.slice_mut(base, len) };
                let mut mask_acc = 0.0f32;
                for i in 0..len {
                    let common = scales[(e0 + i) / chunk] / levels * pow;
                    let g = dw[e0 + i] * common;
                    // d/dm_p: s/(2^n−1)·2^b·gb·β·σ'(m_p)
                    grad_pb[i] += g * gb * temp_sigmoid_grad(gpb[i], beta);
                    grad_nb[i] -= g * gb * temp_sigmoid_grad(gnb[i], beta);
                    if mask_trainable {
                        mask_acc += g * (gpb[i] - gnb[i]);
                    }
                }
                if mask_trainable {
                    mask_partial[b] = mask_acc;
                }
            }
            mask_partial
        });
        if mask_trainable {
            for b in 0..bits {
                let total: f32 = partials.iter().map(|p| p[b]).sum();
                self.grad_b.data_mut()[b] += total * temp_sigmoid_grad(cache.gb[b], beta);
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
        path.scoped("m_p", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BitLogit,
                &mut self.m_p,
                &mut self.grad_p,
            ))
        });
        path.scoped("m_n", |p| {
            f(ParamMut::new(
                p.as_str(),
                ParamRole::BitLogit,
                &mut self.m_n,
                &mut self.grad_n,
            ))
        });
        if self.mode == QuantMode::Csq {
            // Always visited (stable parameter ordering for the
            // optimizer); gradients stay zero once the mask is frozen, so
            // a fresh optimizer leaves the logits untouched.
            path.scoped("m_b", |p| {
                f(ParamMut::new(
                    p.as_str(),
                    ParamRole::GateLogit,
                    &mut self.m_b,
                    &mut self.grad_b,
                ))
            });
        }
    }

    fn set_beta(&mut self, beta: f32) {
        assert!(beta > 0.0, "temperature must be positive");
        self.beta = beta;
    }

    fn precision(&self) -> Option<f32> {
        let p = match self.mode {
            QuantMode::Uniform => self.bits as f32,
            QuantMode::Csq => {
                if self.mask_frozen {
                    self.frozen_mask.iter().filter(|&&m| m).count() as f32
                } else {
                    // Paper's counting rule: Σ_b [m_B^(b) ≥ 0] even while
                    // the gates are soft (§III-B).
                    self.m_b.data().iter().filter(|&&m| m >= 0.0).count() as f32
                }
            }
        };
        Some(p)
    }

    fn numel(&self) -> usize {
        self.numel
    }

    fn finalize(&mut self) {
        self.hard = true;
        if self.mode == QuantMode::Csq && !self.mask_frozen {
            self.frozen_mask = self.m_b.data().iter().map(|&m| m >= 0.0).collect();
            self.mask_frozen = true;
        }
        self.cache = None;
    }

    fn is_finalized(&self) -> bool {
        // Soft (β-relaxed) gates materialize off-grid weights until
        // `finalize` hardens them.
        self.hard
    }

    fn quant_step(&self) -> Option<f32> {
        if self.n_scales != 1 {
            // Per-channel scales have no single grid step; fixed-point
            // packing requires per-layer granularity.
            return None;
        }
        let levels = ((1u32 << self.bits) - 1) as f32;
        Some(self.s.data()[0] / levels)
    }

    fn soft_precision(&self) -> Option<f32> {
        match self.mode {
            QuantMode::Uniform => Some(self.bits as f32),
            QuantMode::Csq => {
                if self.mask_frozen {
                    Some(self.frozen_mask.iter().filter(|&&m| m).count() as f32)
                } else {
                    Some(
                        self.m_b
                            .data()
                            .iter()
                            .map(|&m| temp_sigmoid(m, self.beta))
                            .sum(),
                    )
                }
            }
        }
    }

    fn bit_mask(&self) -> Option<Vec<bool>> {
        Some(match self.mode {
            QuantMode::Uniform => vec![true; self.bits],
            QuantMode::Csq => {
                if self.mask_frozen {
                    self.frozen_mask.clone()
                } else {
                    self.m_b.data().iter().map(|&m| m >= 0.0).collect()
                }
            }
        })
    }

    fn apply_precision_reg(&mut self, strength: f32) {
        if !self.mask_trainable() {
            return;
        }
        // d/dm_B [ strength · Σ_b f_β(m_B^(b)) ] = strength · β σ'(βm_B)
        for b in 0..self.bits {
            let g = temp_sigmoid(self.m_b.data()[b], self.beta);
            self.grad_b.data_mut()[b] += strength * temp_sigmoid_grad(g, self.beta);
        }
    }

    fn freeze_mask(&mut self) {
        if self.mode == QuantMode::Csq && !self.mask_frozen {
            self.frozen_mask = self.m_b.data().iter().map(|&m| m >= 0.0).collect();
            self.mask_frozen = true;
        }
    }
}

/// Factory producing full CSQ (bi-level) weight sources with `bits`
/// planes, for use with the model builders.
///
/// # Example
///
/// ```
/// use csq_core::csq_factory;
/// use csq_nn::models::{resnet_cifar, ModelConfig};
///
/// let mut factory = csq_factory(8);
/// let model = resnet_cifar(ModelConfig::cifar_like(4, Some(3), 0), &mut factory, 1);
/// drop(model);
/// ```
pub fn csq_factory(bits: usize) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| Box::new(BitQuantizer::from_float(&w, bits, QuantMode::Csq)) as _
}

/// Factory producing full CSQ sources with per-output-channel scales
/// (the [`ScaleGranularity::PerChannel`] design-axis ablation).
pub fn csq_factory_per_channel(bits: usize) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| {
        Box::new(BitQuantizer::with_granularity(
            &w,
            bits,
            QuantMode::Csq,
            ScaleGranularity::PerChannel,
        )) as _
    }
}

/// Factory producing CSQ sources whose mask logits are initialized as
/// `base + stagger·b`. Used by the ablation bench to compare the default
/// staggered initialization against the naive uniform one.
pub fn csq_factory_with_mask_init(
    bits: usize,
    base: f32,
    stagger: f32,
) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| {
        let mut q = BitQuantizer::from_float(&w, bits, QuantMode::Csq);
        q.set_mask_init(base, stagger);
        Box::new(q) as _
    }
}

/// Factory producing CSQ-Uniform sources (Eq. 3; fixed `bits`-bit
/// precision, no searched mask) — the CSQ-Uniform ablation of Table IV.
pub fn csq_uniform_factory(bits: usize) -> impl FnMut(Tensor) -> Box<dyn WeightSource> {
    move |w: Tensor| Box::new(BitQuantizer::from_float(&w, bits, QuantMode::Uniform)) as _
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rand_w(seed: u64, dims: &[usize]) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        init::uniform(dims, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn init_scale_is_max_abs() {
        let w = Tensor::from_vec(vec![0.5, -2.0, 1.0], &[3]);
        let q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        assert!((q.scale() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn high_beta_materialization_approximates_source_weight() {
        // With β large, the materialized weight should be close to the
        // 8-bit quantization of the original (mask fully on).
        let w = rand_w(0, &[4, 4]);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        q.set_beta(500.0);
        let m = q.materialize();
        let step = q.scale() / 255.0;
        for (a, b) in w.iter().zip(m.iter()) {
            assert!((a - b).abs() < step * 1.5, "{a} vs {b}");
        }
    }

    #[test]
    fn finalized_weight_lies_exactly_on_grid() {
        let w = rand_w(1, &[3, 5]);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        q.finalize();
        let m = q.materialize();
        let step = q.scale() / 255.0;
        for &v in m.iter() {
            let k = v / step;
            assert!(
                (k - k.round()).abs() < 1e-4,
                "{v} is not an integer multiple of {step}"
            );
        }
    }

    #[test]
    fn uniform_mode_reports_fixed_precision() {
        let w = rand_w(2, &[4]);
        let q = BitQuantizer::from_float(&w, 3, QuantMode::Uniform);
        assert_eq!(q.precision(), Some(3.0));
        assert_eq!(q.bit_mask(), Some(vec![true; 3]));
    }

    #[test]
    fn csq_precision_counts_nonnegative_mask_logits() {
        let w = rand_w(3, &[4]);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        assert_eq!(q.precision(), Some(8.0), "starts with all bits on");
        // Push three mask logits negative.
        q.m_b.data_mut()[5] = -1.0;
        q.m_b.data_mut()[6] = -0.01;
        q.m_b.data_mut()[7] = -2.0;
        assert_eq!(q.precision(), Some(5.0));
        assert_eq!(
            q.bit_mask().unwrap(),
            vec![true, true, true, true, true, false, false, false]
        );
    }

    #[test]
    fn masked_bits_do_not_contribute_after_finalize() {
        let w = rand_w(4, &[16]);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        // Kill the top 5 bits: only bits 0..3 remain -> |W| ≤ s·7/255.
        for b in 3..8 {
            q.m_b.data_mut()[b] = -1.0;
        }
        q.finalize();
        let m = q.materialize();
        let bound = q.scale() * 7.0 / 255.0 + 1e-6;
        assert!(m.max_abs() <= bound, "{} > {bound}", m.max_abs());
    }

    /// The central claim: gradients through the full parameterization are
    /// exact. Check every parameter group against finite differences.
    #[test]
    fn backward_matches_finite_difference() {
        let w = rand_w(5, &[6]);
        let mut q = BitQuantizer::from_float(&w, 4, QuantMode::Csq);
        q.set_beta(3.0);
        let gy = rand_w(6, &[6]);

        q.materialize();
        q.backward(&gy);

        let eps = 1e-3f32;
        // Scale gradient.
        {
            let ana = q.grad_s.data()[0];
            q.s.data_mut()[0] += eps;
            let lp = q.materialize().dot(&gy);
            q.s.data_mut()[0] -= 2.0 * eps;
            let lm = q.materialize().dot(&gy);
            q.s.data_mut()[0] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "s: {num} vs {ana}"
            );
        }
        // m_p gradients (sample a few).
        for &idx in &[0usize, 7, 13, 23] {
            let ana = q.grad_p.data()[idx];
            q.m_p.data_mut()[idx] += eps;
            let lp = q.materialize().dot(&gy);
            q.m_p.data_mut()[idx] -= 2.0 * eps;
            let lm = q.materialize().dot(&gy);
            q.m_p.data_mut()[idx] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "m_p[{idx}]: {num} vs {ana}"
            );
        }
        // m_n gradients.
        for &idx in &[1usize, 11, 17] {
            let ana = q.grad_n.data()[idx];
            q.m_n.data_mut()[idx] += eps;
            let lp = q.materialize().dot(&gy);
            q.m_n.data_mut()[idx] -= 2.0 * eps;
            let lm = q.materialize().dot(&gy);
            q.m_n.data_mut()[idx] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "m_n[{idx}]: {num} vs {ana}"
            );
        }
        // Mask gradients.
        for b in 0..4 {
            let ana = q.grad_b.data()[b];
            q.m_b.data_mut()[b] += eps;
            let lp = q.materialize().dot(&gy);
            q.m_b.data_mut()[b] -= 2.0 * eps;
            let lm = q.materialize().dot(&gy);
            q.m_b.data_mut()[b] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "m_B[{b}]: {num} vs {ana}"
            );
        }
    }

    /// Materialize + backward are bit-identical at 1 and 4 threads, and
    /// cache-buffer reuse across repeated steps does not perturb results.
    #[test]
    fn parallel_matches_serial_bitexact() {
        let w = rand_w(40, &[4, 64]);
        let gy = rand_w(41, &[4, 64]);
        let run = || {
            let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
            q.set_beta(3.0);
            let mut outs = Vec::new();
            for _ in 0..3 {
                outs.push(q.materialize());
                q.backward(&gy);
            }
            (
                outs,
                q.grad_s.data().to_vec(),
                q.grad_p.data().to_vec(),
                q.grad_n.data().to_vec(),
                q.grad_b.data().to_vec(),
            )
        };
        let serial = par::with_threads(1, run);
        let parallel = par::with_threads(4, run);
        for (a, b) in serial.0.iter().zip(parallel.0.iter()) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(serial.1, parallel.1);
        assert_eq!(serial.2, parallel.2);
        assert_eq!(serial.3, parallel.3);
        assert_eq!(serial.4, parallel.4);
    }

    #[test]
    fn precision_reg_gradient_matches_finite_difference() {
        let w = rand_w(7, &[4]);
        let mut q = BitQuantizer::from_float(&w, 4, QuantMode::Csq);
        q.set_beta(2.0);
        let strength = 0.7f32;
        q.apply_precision_reg(strength);
        let reg = |q: &BitQuantizer| -> f32 {
            q.m_b
                .data()
                .iter()
                .map(|&m| strength * temp_sigmoid(m, q.beta))
                .sum()
        };
        let eps = 1e-3;
        for b in 0..4 {
            let ana = q.grad_b.data()[b];
            q.m_b.data_mut()[b] += eps;
            let rp = reg(&q);
            q.m_b.data_mut()[b] -= 2.0 * eps;
            let rm = reg(&q);
            q.m_b.data_mut()[b] += eps;
            let num = (rp - rm) / (2.0 * eps);
            assert!((num - ana).abs() < 1e-3, "bit {b}: {num} vs {ana}");
        }
    }

    #[test]
    fn negative_reg_strength_grows_bits() {
        // Δ_S < 0 (model below budget) must push mask logits upward.
        let w = rand_w(8, &[4]);
        let mut q = BitQuantizer::from_float(&w, 4, QuantMode::Csq);
        q.apply_precision_reg(-1.0);
        assert!(
            q.grad_b.data().iter().all(|&g| g < 0.0),
            "negative gradient on logits = SGD increases them (growth)"
        );
    }

    #[test]
    fn uniform_mode_ignores_reg_and_mask() {
        let w = rand_w(9, &[4]);
        let mut q = BitQuantizer::from_float(&w, 4, QuantMode::Uniform);
        q.apply_precision_reg(5.0);
        assert!(q.grad_b.data().iter().all(|&g| g == 0.0));
        let mut n_params = 0;
        q.visit_params(&mut |_| n_params += 1);
        assert_eq!(n_params, 3, "uniform mode exposes s, m_p, m_n only");
    }

    #[test]
    fn freeze_mask_fixes_precision_and_stops_mask_grads() {
        let w = rand_w(10, &[8]);
        let mut q = BitQuantizer::from_float(&w, 8, QuantMode::Csq);
        q.m_b.data_mut()[6] = -1.0;
        q.m_b.data_mut()[7] = -1.0;
        q.freeze_mask();
        assert!(q.is_mask_frozen());
        assert_eq!(q.precision(), Some(6.0));
        // Mask logits moving afterwards must not change the mask.
        q.m_b.data_mut()[6] = 5.0;
        assert_eq!(q.precision(), Some(6.0));
        // No mask gradient flows.
        q.materialize();
        q.backward(&Tensor::ones(&[8]));
        assert!(q.grad_b.data().iter().all(|&g| g == 0.0));
        // Representations still receive gradients.
        assert!(q.grad_p.data().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn hard_backward_only_updates_scale() {
        let w = rand_w(11, &[4]);
        let mut q = BitQuantizer::from_float(&w, 4, QuantMode::Csq);
        q.finalize();
        q.materialize();
        q.backward(&Tensor::ones(&[4]));
        assert!(q.grad_p.data().iter().all(|&g| g == 0.0));
        assert!(q.grad_n.data().iter().all(|&g| g == 0.0));
        assert!(q.grad_b.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn factories_produce_expected_modes() {
        let w = rand_w(12, &[2, 2]);
        let mut f1 = csq_factory(8);
        let src = f1(w.clone());
        assert_eq!(src.precision(), Some(8.0));
        let mut f2 = csq_uniform_factory(3);
        let src = f2(w);
        assert_eq!(src.precision(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=16")]
    fn zero_bits_rejected() {
        BitQuantizer::from_float(&Tensor::ones(&[2]), 0, QuantMode::Csq);
    }

    #[test]
    fn mask_init_is_staggered_by_default() {
        let q = BitQuantizer::from_float(&rand_w(20, &[4]), 8, QuantMode::Csq);
        let logits = q.mask_logits();
        for b in 1..8 {
            assert!(
                logits[b] > logits[b - 1],
                "MSB logits start above LSB logits: {logits:?}"
            );
        }
        assert!(logits.iter().all(|&m| m > 0.0), "all bits start selected");
    }

    #[test]
    fn set_mask_init_overrides_logits() {
        let mut q = BitQuantizer::from_float(&rand_w(21, &[4]), 4, QuantMode::Csq);
        q.set_mask_init(-0.2, 0.1);
        for (got, want) in q.mask_logits().iter().zip([-0.2f32, -0.1, 0.0, 0.1]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert_eq!(q.precision(), Some(2.0), "two logits are >= 0");
    }

    #[test]
    #[should_panic(expected = "cannot re-init a frozen mask")]
    fn set_mask_init_after_freeze_panics() {
        let mut q = BitQuantizer::from_float(&rand_w(22, &[4]), 4, QuantMode::Csq);
        q.freeze_mask();
        q.set_mask_init(0.1, 0.0);
    }

    #[test]
    fn soft_precision_below_hard_at_small_logits() {
        let mut q = BitQuantizer::from_float(&rand_w(23, &[4]), 8, QuantMode::Csq);
        q.set_beta(1.0);
        let hard = q.precision().unwrap();
        let soft = q.soft_precision().unwrap();
        assert_eq!(hard, 8.0);
        assert!(soft < hard, "soft {soft} < hard {hard} for logits near 0");
        assert!(soft > 4.0, "but above half for positive logits");
        // As beta grows, soft approaches hard.
        q.set_beta(500.0);
        let soft_hot = q.soft_precision().unwrap();
        assert!((soft_hot - hard).abs() < 0.05, "soft {soft_hot} -> hard");
    }

    #[test]
    fn per_channel_scales_follow_channel_maxima() {
        let w = Tensor::from_vec(vec![0.1, -0.2, 2.0, 1.0, 0.01, 0.02], &[3, 2]);
        let q = BitQuantizer::with_granularity(&w, 8, QuantMode::Csq, ScaleGranularity::PerChannel);
        let s = q.scales();
        assert_eq!(s.len(), 3);
        assert!((s[0] - 0.2).abs() < 1e-6);
        assert!((s[1] - 2.0).abs() < 1e-6);
        assert!((s[2] - 0.02).abs() < 1e-6);
        assert!(q.quant_step().is_none(), "no single grid step per layer");
    }

    #[test]
    fn per_channel_reduces_quantization_error_on_skewed_channels() {
        // One channel 100x larger than the other: a shared scale wastes
        // nearly all levels on the big channel.
        let mut data = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        data.extend(csq_tensor::init::uniform(&[32], -1.0, 1.0, &mut rng).into_vec());
        data.extend(csq_tensor::init::uniform(&[32], -0.01, 0.01, &mut rng).into_vec());
        let w = Tensor::from_vec(data, &[2, 32]);

        let mut per_layer = BitQuantizer::from_float(&w, 4, QuantMode::Csq);
        per_layer.finalize();
        let err_layer = per_layer.materialize().sub(&w).norm();

        let mut per_chan =
            BitQuantizer::with_granularity(&w, 4, QuantMode::Csq, ScaleGranularity::PerChannel);
        per_chan.finalize();
        let err_chan = per_chan.materialize().sub(&w).norm();
        assert!(
            err_chan < err_layer,
            "per-channel {err_chan} should beat per-layer {err_layer}"
        );
    }

    #[test]
    fn per_channel_gradients_match_finite_difference() {
        let w = rand_w(31, &[2, 4]);
        let mut q =
            BitQuantizer::with_granularity(&w, 4, QuantMode::Csq, ScaleGranularity::PerChannel);
        q.set_beta(3.0);
        let gy = rand_w(32, &[2, 4]);
        q.materialize();
        q.backward(&gy);
        let eps = 1e-3f32;
        for g in 0..2 {
            let ana = q.grad_s.data()[g];
            q.s.data_mut()[g] += eps;
            let lp = q.materialize().dot(&gy);
            q.s.data_mut()[g] -= 2.0 * eps;
            let lm = q.materialize().dot(&gy);
            q.s.data_mut()[g] += eps;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "scale {g}: {num} vs {ana}"
            );
        }
        // A representation logit in the second channel group.
        let idx = 6; // bit 0, element 6 -> channel 1
        let ana = q.grad_p.data()[idx];
        q.m_p.data_mut()[idx] += eps;
        let lp = q.materialize().dot(&gy);
        q.m_p.data_mut()[idx] -= 2.0 * eps;
        let lm = q.materialize().dot(&gy);
        q.m_p.data_mut()[idx] += eps;
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
            "{num} vs {ana}"
        );
    }

    #[test]
    fn per_channel_finalized_weights_on_channel_grids() {
        let w = rand_w(33, &[3, 8]);
        let mut q =
            BitQuantizer::with_granularity(&w, 8, QuantMode::Csq, ScaleGranularity::PerChannel);
        q.finalize();
        let m = q.materialize();
        for ch in 0..3 {
            let step = q.scales()[ch] / 255.0;
            for i in 0..8 {
                let v = m.data()[ch * 8 + i];
                let k = v / step;
                assert!((k - k.round()).abs() < 1e-2, "ch {ch}: {v} off {step}");
            }
        }
    }

    #[test]
    fn mask_init_factory_produces_requested_scheme() {
        let mut f = csq_factory_with_mask_init(8, -1.0, 0.0);
        let src = f(rand_w(24, &[6]));
        assert_eq!(src.precision(), Some(0.0), "all logits negative");
    }
}
