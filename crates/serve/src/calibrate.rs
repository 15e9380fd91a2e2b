//! Post-training activation calibration.
//!
//! The integer kernel quantizes each weighted op's input to signed codes
//! on a symmetric grid, `code = round(clamp(v, −255·step, 255·step)/step)`.
//! If each request derived `step` from its own range, two copies of the
//! same image would produce different codes depending on batch
//! composition, and batched inference would not be bit-identical to
//! single-request inference. Calibration fixes the grid once, offline: a
//! small sample set is run through the *float* reference path and the
//! observed input range `[lo, hi]` of every weighted op is frozen into a
//! per-op `step = max(hi, −lo, 0)/255`, floored at 1e-8. The grid holds
//! negative inputs, such as the image the stem reads, so every weighted
//! op runs the integer kernel.
//!
//! Calibration is deterministic: one serial forward over the sample
//! batch, per-op ranges folded in a fixed order.

use crate::exec::{CompiledModel, ServeError};
use csq_obs::json::{field, FromJson, Value};
use csq_tensor::Tensor;
use serde::Serialize;
use std::collections::HashMap;

/// Smallest permissible calibrated step (guards against an op whose
/// sample inputs were identically zero).
const MIN_STEP: f32 = 1e-8;

/// The frozen activation grid for one weighted op, recorded in the
/// `.csqm` artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CalibrationEntry {
    /// Path of the weight tensor whose op this grid feeds
    /// (e.g. `"4.main.0.weight"`).
    pub weight_path: String,
    /// Calibrated quantization step; codes cover `[−255·step, 255·step]`.
    pub step: f32,
    /// Smallest activation value observed entering the op.
    pub observed_lo: f32,
    /// Largest activation value observed entering the op.
    pub observed_hi: f32,
}

/// Rejects a step that is not positive and finite: [`calibrate`] writes
/// at least 1e-8, and any other step would compile and then fail every
/// request.
impl FromJson for CalibrationEntry {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        let weight_path: String = field(v, ctx, "weight_path")?;
        let step: f32 = field(v, ctx, "step")?;
        if !(step.is_finite() && step > 0.0) {
            return Err(format!(
                "{ctx}.step: {step} for `{weight_path}` must be positive and finite"
            ));
        }
        Ok(CalibrationEntry {
            weight_path,
            step,
            observed_lo: field(v, ctx, "observed_lo")?,
            observed_hi: field(v, ctx, "observed_hi")?,
        })
    }
}

/// The step of the grid that holds `[lo, hi]`: `max(hi, −lo, 0)/255`,
/// at least [`MIN_STEP`].
fn grid_step(lo: f32, hi: f32) -> f32 {
    (hi.max(-lo).max(0.0) / 255.0).max(MIN_STEP)
}

/// Runs the calibration sample batch `[S, C, H, W]` through `model`'s
/// float path and freezes one activation grid per weighted op, in plan
/// order. The float path ignores the grids `model` was bound with, so
/// a compiled model calibrates to the same entries as the reference
/// [`crate::ModelArtifact::export`] binds for this pass. An empty
/// sample batch is rejected as [`ServeError::BadInput`].
pub fn calibrate(
    model: &CompiledModel,
    samples: &Tensor,
) -> Result<Vec<CalibrationEntry>, ServeError> {
    let mut ranges: Vec<(String, f32, f32)> = Vec::new();
    model.forward_observe(samples, &mut |path, lo, hi| {
        ranges.push((path.to_string(), lo, hi));
    })?;
    Ok(ranges
        .into_iter()
        .map(|(weight_path, lo, hi)| CalibrationEntry {
            weight_path,
            step: grid_step(lo, hi),
            observed_lo: lo,
            observed_hi: hi,
        })
        .collect())
}

/// Lowers calibration entries to the executor's lookup table
/// (weight path → activation step).
pub(crate) fn step_table(entries: &[CalibrationEntry]) -> HashMap<String, f32> {
    entries
        .iter()
        .map(|e| (e.weight_path.clone(), e.step))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where format 1 served an op on the integer kernel, format 2 reads
    /// the same grid for the same inputs: for an observed `lo ≥ −1e-6`
    /// (format 1's test for an integer op) the step is format 1's step
    /// (its expression is kept here). `csq_core::qinfer`'s tests pin the
    /// codes.
    #[test]
    fn non_negative_inputs_keep_the_unsigned_grids_step() {
        let unsigned_step = |hi: f32| (hi.max(0.0) / 255.0).max(1e-8);
        let los = [-1e-6, -1e-7, -f32::MIN_POSITIVE, -0.0, 0.0, 1e-9, 0.3, 5.0];
        let his = [
            f32::NEG_INFINITY,
            -1.0,
            0.0,
            1e-9,
            1e-6,
            2.55e-6,
            2.56e-6,
            0.01,
            5.395,
            1e30,
        ];
        for (lo, hi) in los.into_iter().flat_map(|lo| his.map(|hi| (lo, hi))) {
            assert_eq!(grid_step(lo, hi), unsigned_step(hi), "lo {lo:e}, hi {hi:e}");
        }
    }

    /// The grid is symmetric: the step holds the larger of `hi` and
    /// `−lo`.
    #[test]
    fn negative_inputs_set_the_step_by_their_magnitude() {
        let step = grid_step(0.0, 2.55);
        for (lo, hi) in [(-2.55, 1.0), (-1.0, 2.55), (-2.55, -1.0), (-2.55, 2.55)] {
            assert_eq!(grid_step(lo, hi), step, "lo {lo}, hi {hi}");
        }
        assert_eq!(grid_step(-1e-9, 0.0), MIN_STEP);
    }
}
