//! Mini-batch iteration with optional shuffling.

use crate::synth::Split;
use csq_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One mini-batch: stacked images and labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images, `[B, C, H, W]`.
    pub images: Tensor,
    /// Class index per image.
    pub labels: Vec<usize>,
}

/// Deterministic mini-batch loader over a [`Split`].
///
/// Each call to [`DataLoader::epoch`] produces a freshly shuffled set of
/// batches (shuffling is seeded, so runs are reproducible); pass
/// `shuffle = false` for evaluation order.
///
/// The loader is `Clone` (the RNG state clones with it) and records how
/// many epochs it has served, so crash/resume support can reconstruct the
/// exact shuffle position either by cloning a known-good loader or by
/// replaying shuffles with [`DataLoader::fast_forward`].
#[derive(Debug, Clone)]
pub struct DataLoader {
    batch_size: usize,
    shuffle: bool,
    seed: u64,
    epochs_served: u64,
    rng: ChaCha8Rng,
}

impl DataLoader {
    /// Creates a loader.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(batch_size: usize, shuffle: bool, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        DataLoader {
            batch_size,
            shuffle,
            seed,
            epochs_served: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The seed this loader was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of epochs served so far (counted only for splits of
    /// `dataset_len` matching the epochs actually drawn).
    pub fn epochs_served(&self) -> u64 {
        self.epochs_served
    }

    /// Advances the shuffle RNG as if `epochs` epochs over a split of
    /// `dataset_len` samples had already been drawn. Because the RNG is
    /// consumed only by the per-epoch shuffle (a function of the split
    /// length alone), a fresh loader fast-forwarded to epoch *k* produces
    /// byte-identical batches to one that actually served *k* epochs —
    /// the property snapshot resume relies on.
    pub fn fast_forward(&mut self, epochs: u64, dataset_len: usize) {
        for _ in 0..epochs {
            if self.shuffle {
                let mut order: Vec<usize> = (0..dataset_len).collect();
                order.shuffle(&mut self.rng);
            }
            self.epochs_served += 1;
        }
    }

    /// Produces the batches for one epoch over `split`. The final batch
    /// may be smaller than `batch_size`.
    pub fn epoch(&mut self, split: &Split) -> Vec<Batch> {
        let n = split.len();
        let mut order: Vec<usize> = (0..n).collect();
        if self.shuffle {
            order.shuffle(&mut self.rng);
        }
        self.epochs_served += 1;
        let px: usize = split.images.dims()[1..].iter().product();
        let dims_tail = split.images.dims()[1..].to_vec();
        let mut out = Vec::new();
        for chunk in order.chunks(self.batch_size) {
            let mut data = Vec::with_capacity(chunk.len() * px);
            let mut labels = Vec::with_capacity(chunk.len());
            for &i in chunk {
                data.extend_from_slice(&split.images.data()[i * px..(i + 1) * px]);
                labels.push(split.labels[i]);
            }
            let mut dims = vec![chunk.len()];
            dims.extend_from_slice(&dims_tail);
            out.push(Batch {
                images: Tensor::from_vec(data, &dims),
                labels,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{Dataset, SyntheticSpec};

    fn tiny() -> Dataset {
        Dataset::synthetic(&SyntheticSpec::cifar_like(0).with_samples(3, 1))
    }

    #[test]
    fn covers_all_samples_once() {
        let d = tiny();
        let mut loader = DataLoader::new(8, true, 0);
        let batches = loader.epoch(&d.train);
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total, d.train.len());
        // Every class appears the right number of times.
        let mut counts = [0usize; 10];
        for b in &batches {
            for &l in &b.labels {
                counts[l] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn shuffle_changes_order_between_epochs() {
        let d = tiny();
        let mut loader = DataLoader::new(30, true, 1);
        let a: Vec<usize> = loader.epoch(&d.train)[0].labels.clone();
        let b: Vec<usize> = loader.epoch(&d.train)[0].labels.clone();
        assert_ne!(a, b, "two epochs should shuffle differently");
    }

    #[test]
    fn unshuffled_order_is_stable() {
        let d = tiny();
        let mut loader = DataLoader::new(7, false, 0);
        let a: Vec<usize> = loader
            .epoch(&d.test)
            .iter()
            .flat_map(|b| b.labels.clone())
            .collect();
        assert_eq!(a, d.test.labels);
    }

    #[test]
    fn batch_larger_than_dataset_yields_one_batch() {
        let d = tiny();
        let mut loader = DataLoader::new(10_000, false, 0);
        let batches = loader.epoch(&d.train);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].labels.len(), d.train.len());
    }

    #[test]
    fn empty_split_yields_no_batches() {
        let empty = crate::synth::Split {
            images: csq_tensor::Tensor::zeros(&[0, 3, 4, 4]),
            labels: vec![],
        };
        let mut loader = DataLoader::new(8, true, 0);
        assert!(loader.epoch(&empty).is_empty());
    }

    #[test]
    fn fast_forward_matches_served_epochs() {
        let d = tiny();
        let mut served = DataLoader::new(8, true, 42);
        for _ in 0..3 {
            served.epoch(&d.train);
        }
        let mut ffwd = DataLoader::new(8, true, 42);
        ffwd.fast_forward(3, d.train.len());
        assert_eq!(ffwd.epochs_served(), served.epochs_served());
        let a: Vec<Vec<usize>> = served
            .epoch(&d.train)
            .iter()
            .map(|b| b.labels.clone())
            .collect();
        let b: Vec<Vec<usize>> = ffwd
            .epoch(&d.train)
            .iter()
            .map(|b| b.labels.clone())
            .collect();
        assert_eq!(a, b, "epoch 4 must be identical after fast-forward");
    }

    #[test]
    fn cloned_loader_replays_identically() {
        let d = tiny();
        let mut loader = DataLoader::new(8, true, 7);
        loader.epoch(&d.train);
        let mut snap = loader.clone();
        let a: Vec<Vec<usize>> = loader
            .epoch(&d.train)
            .iter()
            .map(|b| b.labels.clone())
            .collect();
        let b: Vec<Vec<usize>> = snap
            .epoch(&d.train)
            .iter()
            .map(|b| b.labels.clone())
            .collect();
        assert_eq!(a, b);
        assert_eq!(loader.seed(), 7);
    }

    #[test]
    fn last_batch_may_be_partial() {
        let d = tiny();
        let mut loader = DataLoader::new(7, false, 0);
        let batches = loader.epoch(&d.train); // 30 samples -> 4×7 + 2
        assert_eq!(batches.last().unwrap().labels.len(), 2);
        assert_eq!(batches.last().unwrap().images.dims()[0], 2);
    }
}
