//! Post-training activation calibration.
//!
//! The integer kernels quantize activations to unsigned 8-bit codes on a
//! uniform grid `[0, 255·step]`. If each request derived `step` from its
//! own maximum, two copies of the same image would produce different
//! codes depending on batch composition, and batched inference would not
//! be bit-identical to single-request inference. Calibration fixes the
//! grid once, offline: a small sample set is run through the *float*
//! reference path and the observed input range of every weighted op is
//! frozen into a per-op step.
//!
//! Ops whose observed input includes negative values (the raw-image stem
//! before the first ReLU) cannot be represented by unsigned codes; they
//! are marked `integer = false` and permanently served by the exact
//! float fallback on the unpacked weights — the usual "first layer stays
//! high precision" deployment compromise.
//!
//! Calibration is deterministic: one serial forward over the sample
//! batch, per-op ranges folded in a fixed order.

use crate::exec::{ActGrid, CompiledModel, ServeError};
use csq_obs::json::{field, FromJson, Value};
use csq_tensor::Tensor;
use serde::Serialize;
use std::collections::HashMap;

/// Margin below zero tolerated before an op is declared non-integer
/// (absorbs float rounding in an otherwise non-negative activation).
const NEGATIVE_TOLERANCE: f32 = 1e-6;

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
    /// Calibrated quantization step; codes cover `[0, 255·step]`.
    pub step: f32,
    /// Smallest activation value observed entering the op.
    pub observed_lo: f32,
    /// Largest activation value observed entering the op.
    pub observed_hi: f32,
    /// Whether the op runs on the integer kernels (`false`: observed
    /// range includes negatives, op is served by the float fallback).
    pub integer: bool,
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
            integer: field(v, ctx, "integer")?,
        })
    }
}

/// Runs the calibration sample batch `[S, C, H, W]` through `model`'s
/// float path and freezes one activation grid per weighted op, in plan
/// order.
///
/// `model` must be an *uncalibrated* [`CompiledModel`] (every weighted
/// op on the float path); [`crate::ModelArtifact::export`] arranges
/// this. An empty sample batch is rejected as
/// [`ServeError::BadInput`].
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
            step: (hi.max(0.0) / 255.0).max(MIN_STEP),
            observed_lo: lo,
            observed_hi: hi,
            integer: lo >= -NEGATIVE_TOLERANCE,
        })
        .collect())
}

/// Lowers calibration entries to the executor's lookup table
/// (weight path → activation grid).
pub(crate) fn grid_table(entries: &[CalibrationEntry]) -> HashMap<String, ActGrid> {
    entries
        .iter()
        .map(|e| {
            (
                e.weight_path.clone(),
                ActGrid {
                    step: e.step,
                    integer: e.integer,
                },
            )
        })
        .collect()
}
