//! Synthetic image-classification datasets standing in for CIFAR-10 and
//! ImageNet.
//!
//! The CSQ paper evaluates on CIFAR-10 and ImageNet, which are not
//! available in this environment (and would not be trainable at full scale
//! on one CPU core). This crate provides the substitution documented in
//! DESIGN.md §2: a procedural generator that assigns each class a fixed
//! visual *template* — a superposition of class-specific Gaussian blobs
//! and an oriented sinusoidal grating — and renders samples by jittering,
//! scaling and noising that template. The resulting task:
//!
//! * is learnable by the paper's CNN architectures through the same code
//!   path (conv → BN → ReLU stacks trained with SGD and cross entropy),
//! * has tunable difficulty (noise/jitter), so accuracy degrades smoothly
//!   under aggressive quantization — the phenomenon every table of the
//!   paper measures,
//! * is fully deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use csq_data::{Dataset, SyntheticSpec};
//!
//! let spec = SyntheticSpec::cifar_like(0).with_samples(8, 4);
//! let data = Dataset::synthetic(&spec);
//! assert_eq!(data.train.len(), 80);
//! assert_eq!(data.test.len(), 40);
//! ```

#![deny(missing_docs)]
// Library code must surface failures as structured errors (or documented
// contract panics via `panic!`/`assert!`), never ad-hoc unwraps. Tests and
// doctests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod loader;
pub mod synth;

pub use loader::{Batch, DataLoader};
pub use synth::{Dataset, Split, SyntheticSpec};
