//! Evaluation metrics.

use csq_tensor::reduce::argmax_rows;
use csq_tensor::Tensor;

/// Top-1 classification accuracy in `[0, 1]`.
///
/// # Panics
///
/// Panics when `labels.len()` differs from the batch size.
///
/// # Example
///
/// ```
/// use csq_nn::accuracy;
/// use csq_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]);
/// assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
/// assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.dims()[0], labels.len(), "one label per row required");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = argmax_rows(logits);
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }
}
