//! Saving and restoring trained parameters.
//!
//! A checkpoint maps each parameter's stable hierarchical path (e.g.
//! `4.main.0.weight`) to its tensor, in visitation order — the same paths
//! the optimizers key their state by — so any architecturally identical
//! model can restore it and any architectural edit is reported by name.
//! A checkpoint is an in-memory capture; it reaches disk only inside a
//! training snapshot (`csq_core::TrainSnapshot`), whose file carries
//! the CRC32 framing of [`crate::persist`]. Weights quantized by CSQ are
//! deployed via fixed-point packing (`csq_core::PackedModel`) instead.

use crate::layer::Layer;
use csq_obs::json::{field, FromJson, Value};
use csq_tensor::Tensor;
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// A serializable snapshot of every trainable parameter of a model,
/// keyed by parameter path.
///
/// # Example
///
/// ```
/// use csq_nn::{Checkpoint, Linear};
///
/// let mut trained = Linear::with_float_weights(4, 2, 0);
/// let ckpt = Checkpoint::capture(&mut trained);
/// let mut fresh = Linear::with_float_weights(4, 2, 99);
/// ckpt.restore(&mut fresh)?;
/// # Ok::<(), csq_nn::checkpoint::RestoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Checkpoint {
    /// `(path, tensor)` entries in visitation order.
    entries: Vec<(String, Tensor)>,
}

impl FromJson for Checkpoint {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(Checkpoint {
            entries: field(v, ctx, "entries")?,
        })
    }
}

/// Error restoring a checkpoint into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint has a different number of parameter tensors.
    CountMismatch {
        /// Tensors in the checkpoint.
        expected: usize,
        /// Parameters in the model.
        actual: usize,
    },
    /// A checkpoint tensor's shape differs from the model parameter with
    /// the same path.
    ShapeMismatch {
        /// Path of the mismatched parameter.
        path: String,
        /// Shape of the parameter in the model.
        model: Vec<usize>,
        /// Shape of the tensor in the checkpoint.
        checkpoint: Vec<usize>,
    },
    /// A model parameter has no entry in the checkpoint.
    MissingInCheckpoint {
        /// Path of the parameter without a checkpoint entry.
        path: String,
    },
    /// A checkpoint entry matches no model parameter.
    UnexpectedInCheckpoint {
        /// Path of the entry without a model parameter.
        path: String,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::CountMismatch { expected, actual } => write!(
                f,
                "checkpoint has {expected} parameter tensors but the model has {actual}"
            ),
            RestoreError::ShapeMismatch {
                path,
                model,
                checkpoint,
            } => write!(
                f,
                "parameter `{path}` has shape {model:?} in the model but {checkpoint:?} \
                 in the checkpoint"
            ),
            RestoreError::MissingInCheckpoint { path } => {
                write!(f, "model parameter `{path}` is missing from the checkpoint")
            }
            RestoreError::UnexpectedInCheckpoint { path } => write!(
                f,
                "checkpoint entry `{path}` does not match any model parameter"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl Checkpoint {
    /// Captures a snapshot of `model`'s parameters, keyed by path.
    ///
    /// # Panics
    ///
    /// Panics if two parameters report the same path — a container or
    /// layer implementation emitting non-unique segments.
    pub fn capture(model: &mut dyn Layer) -> Checkpoint {
        let mut entries: Vec<(String, Tensor)> = Vec::new();
        let mut seen = HashSet::new();
        model.visit_params(&mut |p| {
            assert!(
                seen.insert(p.path.to_string()),
                "duplicate parameter path `{}` — container/layer segments must be unique",
                p.path
            );
            entries.push((p.path.to_string(), p.value.clone()));
        });
        Checkpoint { entries }
    }

    /// The `(path, tensor)` entries, in visitation order.
    pub fn entries(&self) -> &[(String, Tensor)] {
        &self.entries
    }

    /// The parameter tensors in visitation order (path-agnostic view).
    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// Restores the snapshot into `model` (which must have the identical
    /// architecture), matching entries to parameters by path.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] naming the offending parameter on count, path or
    /// shape mismatch; the model is left unchanged in that case.
    pub fn restore(&self, model: &mut dyn Layer) -> Result<(), RestoreError> {
        // Validate first so a failed restore never half-applies.
        let mut model_params: Vec<(String, Vec<usize>)> = Vec::new();
        model.visit_params(&mut |p| {
            model_params.push((p.path.to_string(), p.value.dims().to_vec()));
        });
        if model_params.len() != self.entries.len() {
            return Err(RestoreError::CountMismatch {
                expected: self.entries.len(),
                actual: model_params.len(),
            });
        }

        let by_path: HashMap<&str, &Tensor> =
            self.entries.iter().map(|(n, t)| (n.as_str(), t)).collect();
        for (path, dims) in &model_params {
            match by_path.get(path.as_str()) {
                None => {
                    return Err(RestoreError::MissingInCheckpoint { path: path.clone() });
                }
                Some(t) if t.dims() != dims.as_slice() => {
                    return Err(RestoreError::ShapeMismatch {
                        path: path.clone(),
                        model: dims.clone(),
                        checkpoint: t.dims().to_vec(),
                    });
                }
                Some(_) => {}
            }
        }
        let model_paths: HashSet<&str> = model_params.iter().map(|(p, _)| p.as_str()).collect();
        for (path, _) in &self.entries {
            if !model_paths.contains(path.as_str()) {
                return Err(RestoreError::UnexpectedInCheckpoint { path: path.clone() });
            }
        }

        model.visit_params(&mut |p| {
            if let Some(t) = by_path.get(p.path) {
                *p.value = (*t).clone();
            }
        });
        Ok(())
    }

    /// Total number of scalar parameters in the snapshot.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::sequential::Sequential;
    use csq_tensor::Tensor as T;

    fn model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::with_float_weights(3, 4, seed)),
            Box::new(Linear::with_float_weights(4, 2, seed + 1)),
        ])
    }

    #[test]
    fn capture_restore_round_trip() {
        let mut a = model(0);
        let mut b = model(99); // different init
        let x = T::ones(&[1, 3]);
        assert!(!a.forward(&x, false).approx_eq(&b.forward(&x, false), 1e-6));

        let ckpt = Checkpoint::capture(&mut a);
        ckpt.restore(&mut b).unwrap();
        assert!(a.forward(&x, false).approx_eq(&b.forward(&x, false), 0.0));
    }

    #[test]
    fn capture_keys_entries_by_path() {
        let mut a = model(0);
        let ckpt = Checkpoint::capture(&mut a);
        let paths: Vec<_> = ckpt.entries().iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["0.weight", "0.bias", "1.weight", "1.bias"]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter path")]
    fn capture_rejects_duplicate_paths() {
        // A broken container that visits the same child twice under the
        // same segment produces colliding paths; capture must refuse.
        #[derive(Debug)]
        struct DoubleVisit(Linear);
        impl crate::layer::Layer for DoubleVisit {
            fn forward(&mut self, input: &T, train: bool) -> T {
                self.0.forward(input, train)
            }
            fn backward(&mut self, g: &T) -> T {
                self.0.backward(g)
            }
            fn visit_params_named(
                &mut self,
                path: &mut crate::layer::ParamPath,
                f: &mut dyn FnMut(crate::layer::ParamMut<'_>),
            ) {
                self.0.visit_params_named(path, &mut *f);
                self.0.visit_params_named(path, &mut *f);
            }
            fn kind(&self) -> &'static str {
                "double_visit"
            }
        }
        let mut broken = DoubleVisit(Linear::with_float_weights(2, 2, 0));
        let _ = Checkpoint::capture(&mut broken);
    }

    #[test]
    fn restore_rejects_wrong_architecture() {
        let mut a = model(0);
        let ckpt = Checkpoint::capture(&mut a);
        let mut other = Sequential::new(vec![
            Box::new(Linear::with_float_weights(3, 4, 0)) as Box<dyn crate::layer::Layer>
        ]);
        let err = ckpt.restore(&mut other).unwrap_err();
        assert!(matches!(err, RestoreError::CountMismatch { .. }));

        let mut wrong_shape = Sequential::new(vec![
            Box::new(Linear::with_float_weights(3, 4, 0)) as Box<dyn crate::layer::Layer>,
            Box::new(Linear::with_float_weights(4, 3, 1)),
        ]);
        let err = ckpt.restore(&mut wrong_shape).unwrap_err();
        assert_eq!(
            err,
            RestoreError::ShapeMismatch {
                path: "1.weight".to_string(),
                model: vec![3, 4],
                checkpoint: vec![2, 4],
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("1.weight"), "{msg}");
        assert!(msg.contains("[3, 4]") && msg.contains("[2, 4]"), "{msg}");
    }

    #[test]
    fn restore_reports_missing_and_unexpected_paths() {
        let mut a = model(0);
        let mut ckpt = Checkpoint::capture(&mut a);
        // Rename one entry: the model parameter becomes missing and the
        // renamed entry becomes unexpected.
        ckpt.entries[2].0 = "9.weight".to_string();
        let mut b = model(1);
        let err = ckpt.restore(&mut b).unwrap_err();
        assert_eq!(
            err,
            RestoreError::MissingInCheckpoint {
                path: "1.weight".to_string()
            }
        );
        assert!(err.to_string().contains("1.weight"));

        // Swap two same-shape entries' names: nothing missing, restore
        // goes by name, so values land on the right parameters anyway.
        let ckpt2 = Checkpoint::capture(&mut a);
        let mut reordered = ckpt2.clone();
        reordered.entries.swap(0, 2);
        let mut c = model(2);
        reordered.restore(&mut c).unwrap();
        assert_eq!(Checkpoint::capture(&mut c), ckpt2, "by-name restore");
    }

    #[test]
    fn unexpected_entry_display_names_path() {
        let err = RestoreError::UnexpectedInCheckpoint {
            path: "ghost.weight".to_string(),
        };
        assert!(err.to_string().contains("ghost.weight"));
    }

    #[test]
    fn failed_restore_leaves_model_untouched() {
        let mut a = model(0);
        let ckpt = Checkpoint::capture(&mut a);
        let mut wrong = Sequential::new(vec![
            Box::new(Linear::with_float_weights(3, 4, 7)) as Box<dyn crate::layer::Layer>,
            Box::new(Linear::with_float_weights(4, 3, 8)),
        ]);
        let before = Checkpoint::capture(&mut wrong);
        let _ = ckpt.restore(&mut wrong);
        let after = Checkpoint::capture(&mut wrong);
        assert_eq!(before, after, "no partial application");
    }

    #[test]
    fn numel_counts_everything() {
        let mut a = model(0);
        let ckpt = Checkpoint::capture(&mut a);
        // 4x3 + 4 + 2x4 + 2 = 26
        assert_eq!(ckpt.numel(), 26);
    }
}
