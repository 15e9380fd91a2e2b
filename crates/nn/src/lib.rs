//! Neural-network training substrate with exact layer-wise backpropagation.
//!
//! The CSQ paper trains CNNs (ResNet-20/18/50, VGG19BN) with SGD; this
//! crate provides everything that pipeline needs, built on
//! [`csq_tensor`]:
//!
//! * the [`Layer`] trait with hand-derived exact adjoints for every layer
//!   (verified against finite differences in the test suite),
//! * a [`WeightSource`] abstraction that lets a layer's weight tensor be
//!   produced by an arbitrary differentiable parameterization — this is the
//!   hook that the CSQ bit-level parameterization and all baseline
//!   quantizers plug into,
//! * standard layers ([`Conv2d`] — dense, grouped or depthwise —,
//!   [`Linear`], [`BatchNorm2d`], [`Relu`], pooling, [`Sequential`],
//!   residual blocks),
//! * uniform activation fake-quantization with a straight-through backward
//!   ([`ActQuant`]), matching the paper's fixed uniform activation scheme,
//! * losses, metrics, [`Sgd`] with momentum/weight decay and the cosine
//!   learning-rate schedule with linear warmup used by the paper,
//! * faithful model builders in [`models`].
//!
//! # Example
//!
//! ```
//! use csq_nn::{Linear, Layer, Relu, Sequential};
//! use csq_tensor::Tensor;
//!
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::with_float_weights(4, 8, 0)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::with_float_weights(8, 2, 1)),
//! ]);
//! let y = model.forward(&Tensor::ones(&[3, 4]), true);
//! assert_eq!(y.dims(), &[3, 2]);
//! ```

#![deny(missing_docs)]
// Library code must surface failures as structured errors (or documented
// contract panics via `panic!`/`assert!`), never ad-hoc unwraps. Tests and
// doctests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod activation;
pub mod batchnorm;
pub mod checkpoint;
pub mod conv;
pub mod export;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod persist;
pub mod pool;
pub mod residual;
pub mod sequential;
pub mod weight;

pub use activation::Pact;
pub use activation::{ActQuant, Relu};
pub use batchnorm::BatchNorm2d;
pub use checkpoint::Checkpoint;
pub use conv::Conv2d;
pub use export::{count_ops, export_model, ExportError, InferOp};
pub use layer::{Layer, ParamMut, ParamPath, ParamRole};
pub use linear::Linear;
pub use loss::softmax_cross_entropy;
pub use metrics::accuracy;
pub use optim::{Adam, CosineSchedule, OptimState, OptimStateError, Sgd};
pub use persist::PersistError;
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d};
pub use residual::Residual;
pub use sequential::Sequential;
pub use weight::{FloatWeight, WeightFactory, WeightSource};
