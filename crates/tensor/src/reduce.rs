//! Reductions and row-wise transforms used by losses and metrics.
//!
//! The row-wise transforms and the channel reduction fan out over
//! [`crate::par`]; rows (and channels) are independent, so results are
//! bit-identical at any thread count.

use crate::{par, Tensor};

/// Row-wise softmax of a `[rows, cols]` matrix, computed with the usual
/// max-subtraction for numerical stability.
///
/// # Panics
///
/// Panics unless `logits` is rank 2.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax_rows requires a matrix");
    let (r, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = logits.clone();
    if c == 0 {
        return out;
    }
    let rows_per_task = par::chunk_len(r, 4 * c);
    par::par_chunks_mut(out.data_mut(), rows_per_task * c, |_t, _start, chunk| {
        for row in chunk.chunks_exact_mut(c) {
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut z = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
    });
    out
}

/// Row-wise log-softmax of a `[rows, cols]` matrix.
///
/// # Panics
///
/// Panics unless `logits` is rank 2.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "log_softmax_rows requires a matrix");
    let (r, c) = (logits.dims()[0], logits.dims()[1]);
    let mut out = logits.clone();
    if c == 0 {
        return out;
    }
    let rows_per_task = par::chunk_len(r, 4 * c);
    par::par_chunks_mut(out.data_mut(), rows_per_task * c, |_t, _start, chunk| {
        for row in chunk.chunks_exact_mut(c) {
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let z: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            let log_z = z.ln() + m;
            for v in row.iter_mut() {
                *v -= log_z;
            }
        }
    });
    out
}

/// Index of the maximum element in each row of a `[rows, cols]` matrix.
///
/// Ties resolve to the lowest index.
///
/// # Panics
///
/// Panics unless `m` is rank 2 with at least one column.
pub fn argmax_rows(m: &Tensor) -> Vec<usize> {
    assert_eq!(m.rank(), 2, "argmax_rows requires a matrix");
    let (r, c) = (m.dims()[0], m.dims()[1]);
    assert!(c > 0, "argmax over zero columns");
    let mut out = Vec::with_capacity(r);
    for i in 0..r {
        let row = &m.data()[i * c..(i + 1) * c];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        out.push(best);
    }
    out
}

/// Sums a `[rows, cols]` matrix over its rows, producing `[cols]`.
///
/// # Panics
///
/// Panics unless `m` is rank 2.
pub fn sum_rows(m: &Tensor) -> Tensor {
    assert_eq!(m.rank(), 2, "sum_rows requires a matrix");
    let (r, c) = (m.dims()[0], m.dims()[1]);
    let mut out = Tensor::zeros(&[c]);
    for i in 0..r {
        for j in 0..c {
            out.data_mut()[j] += m.data()[i * c + j];
        }
    }
    out
}

/// Per-channel sum of an NCHW tensor, producing `[C]`. This is the adjoint
/// of broadcasting a per-channel bias.
///
/// # Panics
///
/// Panics unless `t` is rank 4.
pub fn sum_channels(t: &Tensor) -> Tensor {
    assert_eq!(t.rank(), 4, "sum_channels requires NCHW input");
    let (n, c, h, w) = (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]);
    let hw = h * w;
    let data = t.data();
    // One task per channel; each folds its per-sample plane sums in
    // ascending sample order — the serial accumulation order exactly.
    let vals = par::par_map_collect(c, |ci| {
        let mut acc = 0.0f32;
        for ni in 0..n {
            let base = (ni * c + ci) * hw;
            let s: f32 = data[base..base + hw].iter().sum();
            acc += s;
        }
        acc
    });
    Tensor::from_vec(vals, &[c])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax_rows(&x);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Larger logit, larger probability.
        assert!(p.at(&[0, 2]) > p.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = x.add_scalar(100.0);
        assert!(softmax_rows(&x).approx_eq(&softmax_rows(&y), 1e-5));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let a = log_softmax_rows(&x);
        let b = softmax_rows(&x).map(f32::ln);
        assert!(a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn softmax_survives_extreme_logits() {
        let x = Tensor::from_vec(vec![1000.0, 0.0, -1000.0], &[1, 3]);
        let p = softmax_rows(&x);
        assert!(p.all_finite());
        assert!((p.at(&[0, 0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_ties_to_lowest() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0, 0.0, 0.0], &[2, 3]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn sum_rows_and_channels() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(sum_rows(&m).data(), &[4.0, 6.0]);
        let t = Tensor::ones(&[2, 3, 2, 2]);
        assert_eq!(sum_channels(&t).data(), &[8.0, 8.0, 8.0]);
    }

    /// Parallel reductions are bit-identical at 1 and 4 threads.
    #[test]
    fn parallel_matches_serial_bitexact() {
        let logits = Tensor::from_vec(
            (0..64 * 10)
                .map(|i| ((i * 37) % 23) as f32 * 0.3 - 3.0)
                .collect(),
            &[64, 10],
        );
        let nchw = Tensor::from_vec(
            (0..4 * 6 * 5 * 5)
                .map(|i| (i as f32) * 0.01 - 1.5)
                .collect(),
            &[4, 6, 5, 5],
        );
        let run = || {
            (
                softmax_rows(&logits),
                log_softmax_rows(&logits),
                sum_channels(&nchw),
            )
        };
        let serial = crate::par::with_threads(1, run);
        let parallel = crate::par::with_threads(4, run);
        assert_eq!(serial.0.data(), parallel.0.data());
        assert_eq!(serial.1.data(), parallel.1.data());
        assert_eq!(serial.2.data(), parallel.2.data());
    }
}
