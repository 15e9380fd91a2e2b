//! CSQ: growing mixed-precision quantization with bi-level continuous
//! sparsification (DAC 2023).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`gate`] — the temperature sigmoid `f_β(x) = σ(βx)` (Eq. 2) and the
//!   exponential temperature schedule `β = β₀·β_max^(epoch/T)`;
//! * [`bitrep`] — the bi-level bit-level weight parameterization (Eq. 5):
//!   every weight element is a sum of signed bit planes gated by
//!   per-element logits `m_p, m_n` and a per-layer per-bit mask `m_B`,
//!   all relaxed with `f_β` so the whole path is exactly differentiable
//!   (implemented as a [`csq_nn::WeightSource`]);
//! * [`budget`] — the budget-aware model-size regularization (Eqs. 6–7)
//!   with the `Δ_S` scaling that grows or prunes layer precision toward a
//!   target average;
//! * [`trainer`] — Algorithm 1: the CSQ training phase plus the optional
//!   mask-frozen finetuning phase with temperature rewind, along with the
//!   generic QAT training loop shared with the baselines;
//! * [`scheme`] — extraction, accounting and serialization of the final
//!   mixed-precision quantization scheme;
//! * [`resume`] and [`fault`] — fault tolerance: versioned, checksummed
//!   training snapshots with exact resume, NaN-storm recovery policies,
//!   and a deterministic fault injector for testing them;
//! * [`telemetry`] — opt-in (`CSQ_TELEMETRY=1`) per-epoch series — loss,
//!   average bits, gate sparsity, per-layer bit widths — published to the
//!   shared `csq-obs` metrics registry.
//!
//! # Example
//!
//! Train a tiny CNN with CSQ toward a 3-bit average budget:
//!
//! ```no_run
//! use csq_core::prelude::*;
//! use csq_data::{Dataset, SyntheticSpec};
//! use csq_nn::models::{resnet_cifar, ModelConfig};
//!
//! let data = Dataset::synthetic(&SyntheticSpec::cifar_like(0));
//! let cfg = CsqConfig::fast(3.0);
//! let mut factory = csq_factory(8);
//! let model_cfg = ModelConfig::cifar_like(8, Some(3), 0);
//! let mut model = resnet_cifar(model_cfg, &mut factory, 1);
//! let report = CsqTrainer::new(cfg).train(&mut model, &data).unwrap();
//! println!("final accuracy {:.2}%", report.final_test_accuracy * 100.0);
//! ```

#![deny(missing_docs)]
// Library code must surface failures as structured errors (or documented
// contract panics via `panic!`/`assert!`), never ad-hoc unwraps. Tests and
// doctests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod bitrep;
pub mod budget;
pub mod fault;
pub mod gate;
pub mod pack;
pub mod qinfer;
pub mod resume;
pub mod scheme;
pub mod telemetry;
pub mod trainer;

pub use analysis::{
    logit_gate_stats, mask_gate_stats, model_summary, GateStats, LayerSummary, ModelSummary,
};
pub use bitrep::{
    csq_factory, csq_factory_per_channel, csq_uniform_factory, BitQuantizer, QuantMode,
    ScaleGranularity,
};
pub use budget::{model_precision, BudgetRegularizer, PrecisionStats};
pub use fault::{ChaosPlan, FaultPlan};
pub use gate::{temp_sigmoid, temp_sigmoid_grad, TemperatureSchedule};
pub use pack::{PackedModel, PackedWeight};
pub use qinfer::{
    conv2d_integer, linear_integer, IntegerWeight, QinferError, QuantizedActivations,
};
pub use resume::{SnapshotError, TrainPhase, TrainSnapshot};
pub use scheme::{LayerScheme, QuantScheme};
pub use telemetry::{set_telemetry, telemetry_enabled};
pub use trainer::{
    fit, fit_with, CsqConfig, CsqTrainer, EpochStats, FitConfig, FitOptions, RecoveryPolicy,
    SnapshotPolicy, TrainError, TrainReport,
};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::analysis::{model_summary, ModelSummary};
    pub use crate::bitrep::{csq_factory, csq_uniform_factory, BitQuantizer, QuantMode};
    pub use crate::budget::{model_precision, BudgetRegularizer, PrecisionStats};
    pub use crate::fault::FaultPlan;
    pub use crate::gate::{temp_sigmoid, TemperatureSchedule};
    pub use crate::qinfer::{QinferError, QuantizedActivations};
    pub use crate::resume::{TrainPhase, TrainSnapshot};
    pub use crate::scheme::{LayerScheme, QuantScheme};
    pub use crate::trainer::{
        fit, CsqConfig, CsqTrainer, FitConfig, RecoveryPolicy, SnapshotPolicy, TrainError,
        TrainReport,
    };
}
