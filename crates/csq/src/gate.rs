//! The temperature sigmoid gate and its exponential schedule (Eq. 2,
//! Figure 1a of the paper).

/// The continuous-sparsification gate `f_β(x) = σ(βx) = 1/(1 + e^{−βx})`.
///
/// As `β → ∞` this converges pointwise to the unit step `I(x ≥ 0)`
/// (with `f(0) = 0.5`), which is exactly how CSQ anneals its relaxations
/// into discrete bits.
///
/// # Example
///
/// ```
/// use csq_core::temp_sigmoid;
/// assert!((temp_sigmoid(0.0, 1.0) - 0.5).abs() < 1e-6);
/// assert!(temp_sigmoid(0.5, 200.0) > 0.999);
/// assert!(temp_sigmoid(-0.5, 200.0) < 0.001);
/// ```
#[inline]
pub fn temp_sigmoid(x: f32, beta: f32) -> f32 {
    1.0 / (1.0 + (-beta * x).exp())
}

/// Derivative of [`temp_sigmoid`] with respect to `x`:
/// `β·σ(βx)·(1 − σ(βx))`.
///
/// Taking `g = f_β(x)` as input avoids recomputing the sigmoid in hot
/// backward loops.
#[inline]
pub fn temp_sigmoid_grad(gate_value: f32, beta: f32) -> f32 {
    beta * gate_value * (1.0 - gate_value)
}

/// The hard gate `I(x ≥ 0)` that every relaxation converges to.
#[inline]
pub fn hard_gate(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Exponential temperature schedule `β(e) = β₀ · β_max^(e / (T−1))`
/// (Algorithm 1: β₀ = 1, β_max = 200, reached in the last epoch).
///
/// The exponent is normalized by `T − 1` so that `β(T−1) = β₀·β_max`
/// exactly, matching the paper's statement that the maximum temperature
/// "will be reached in the last epoch".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureSchedule {
    beta0: f32,
    beta_max: f32,
    total_epochs: usize,
    saturate: f32,
}

impl TemperatureSchedule {
    /// Creates a schedule over `total_epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `total_epochs == 0`, or either temperature is
    /// non-positive, or `beta_max < 1`.
    pub fn new(beta0: f32, beta_max: f32, total_epochs: usize) -> Self {
        assert!(total_epochs > 0, "schedule needs at least one epoch");
        assert!(beta0 > 0.0, "beta0 must be positive");
        assert!(beta_max >= 1.0, "beta_max must be at least 1");
        TemperatureSchedule {
            beta0,
            beta_max,
            total_epochs,
            saturate: 1.0,
        }
    }

    /// The paper's default schedule: `β₀ = 1`, `β_max = 200`.
    pub fn paper_default(total_epochs: usize) -> Self {
        Self::new(1.0, 200.0, total_epochs)
    }

    /// Reaches `β_max` after `frac` of the epochs and holds it there for
    /// the remainder. The paper's schedule hits β_max exactly in the last
    /// epoch (`frac = 1`); at reduced epoch counts a slightly earlier
    /// saturation (e.g. `frac = 0.75`) gives the model a few epochs to
    /// settle in the near-discrete regime before the hard finalization —
    /// the "proper scheduling of the gate function parameter" the paper
    /// leaves as a knob.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frac ≤ 1`.
    pub fn with_saturation(mut self, frac: f32) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "saturation must be in (0, 1]");
        self.saturate = frac;
        self
    }

    /// Temperature at a (0-based) epoch. Epochs past the end saturate at
    /// `β₀·β_max`.
    pub fn beta_at(&self, epoch: usize) -> f32 {
        if self.total_epochs == 1 {
            return self.beta0 * self.beta_max;
        }
        let span = ((self.total_epochs - 1) as f32 * self.saturate).max(1.0);
        let t = (epoch.min(self.total_epochs - 1) as f32 / span).min(1.0);
        self.beta0 * self.beta_max.powf(t)
    }

    /// Number of epochs the schedule spans.
    pub fn total_epochs(&self) -> usize {
        self.total_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basic_values() {
        assert!((temp_sigmoid(0.0, 7.0) - 0.5).abs() < 1e-7);
        assert!((temp_sigmoid(1.0, 1.0) - 0.731_058_6).abs() < 1e-5);
        // Symmetry: σ(−x) = 1 − σ(x).
        for &x in &[0.1f32, 0.5, 2.0] {
            assert!((temp_sigmoid(-x, 3.0) - (1.0 - temp_sigmoid(x, 3.0))).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_converges_to_step() {
        for &x in &[0.01f32, 0.1, 1.0] {
            assert!(temp_sigmoid(x, 1000.0) > 0.99);
            assert!(temp_sigmoid(-x, 1000.0) < 0.01);
        }
        assert_eq!(hard_gate(0.0), 1.0);
        assert_eq!(hard_gate(-1e-9), 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let beta = 5.0f32;
        for &x in &[-1.0f32, -0.2, 0.0, 0.3, 1.5] {
            let eps = 1e-3;
            let num = (temp_sigmoid(x + eps, beta) - temp_sigmoid(x - eps, beta)) / (2.0 * eps);
            let ana = temp_sigmoid_grad(temp_sigmoid(x, beta), beta);
            assert!((num - ana).abs() < 1e-3, "x={x}: {num} vs {ana}");
        }
    }

    #[test]
    fn gradient_peaks_at_origin() {
        let beta = 10.0;
        let g0 = temp_sigmoid_grad(temp_sigmoid(0.0, beta), beta);
        let g1 = temp_sigmoid_grad(temp_sigmoid(1.0, beta), beta);
        assert!(g0 > g1);
        assert!((g0 - beta / 4.0).abs() < 1e-4);
    }

    #[test]
    fn schedule_is_exponential_and_hits_max() {
        let s = TemperatureSchedule::paper_default(100);
        assert!((s.beta_at(0) - 1.0).abs() < 1e-6);
        assert!((s.beta_at(99) - 200.0).abs() < 1e-3);
        // Mid-point of an exponential: sqrt(200) ≈ 14.14 near epoch 49.5.
        let mid = s.beta_at(50);
        assert!(mid > 10.0 && mid < 20.0, "mid beta {mid}");
        // Monotone increasing.
        for e in 1..100 {
            assert!(s.beta_at(e) > s.beta_at(e - 1));
        }
    }

    #[test]
    fn schedule_saturates_past_end() {
        let s = TemperatureSchedule::paper_default(10);
        // β₀·β_max, with the paper's β₀ = 1 and β_max = 200.
        assert_eq!(s.beta_at(50), 200.0);
    }

    #[test]
    fn one_epoch_schedule_is_max() {
        let s = TemperatureSchedule::new(1.0, 200.0, 1);
        assert_eq!(s.beta_at(0), 200.0);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        TemperatureSchedule::new(1.0, 200.0, 0);
    }

    #[test]
    fn saturation_reaches_max_early_and_holds() {
        let s = TemperatureSchedule::paper_default(20).with_saturation(0.75);
        // ceil(19 * 0.75) ≈ 14.25 -> epoch 15 onward is at beta_max.
        assert!((s.beta_at(15) - 200.0).abs() < 1e-2);
        assert!((s.beta_at(19) - 200.0).abs() < 1e-2);
        // Earlier epochs are still below max and monotone.
        assert!(s.beta_at(7) < 200.0);
        for e in 1..20 {
            assert!(s.beta_at(e) >= s.beta_at(e - 1));
        }
    }

    #[test]
    fn saturation_one_matches_default() {
        let a = TemperatureSchedule::paper_default(50);
        let b = TemperatureSchedule::paper_default(50).with_saturation(1.0);
        for e in 0..50 {
            assert_eq!(a.beta_at(e), b.beta_at(e));
        }
    }

    #[test]
    #[should_panic(expected = "saturation must be in (0, 1]")]
    fn zero_saturation_rejected() {
        TemperatureSchedule::paper_default(10).with_saturation(0.0);
    }
}
