//! Regenerates **Figure 2** of the CSQ paper: the effect of the base
//! regularization strength λ on the averaged model precision during
//! training (ResNet-20, 3-bit activations, 3-bit target).
//!
//! The paper's shape to reproduce: across a wide λ range the precision
//! trajectory converges to the 3-bit target (marked by the "red star"),
//! while λ that is far too small (1e-6, 1e-4) lacks the strength to pull
//! the model down from 8 bits. Note the reduced step count shifts the
//! usable λ range upward versus the paper's (see DESIGN.md §2); the
//! *shape* — a wide insensitive band plus failure below a threshold — is
//! the claim under test.
//!
//! ```text
//! cargo run -p csq-bench --release --bin fig2 [-- --resume]
//! ```
//!
//! `--resume` reuses completed λ runs from the campaign cache.

use csq_bench::{write_results, Arch, BenchScale, Campaign};
use csq_core::prelude::*;
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct LambdaSeries {
    lambda: f32,
    bits_per_epoch: Vec<f32>,
    final_bits: f32,
    reached_target: bool,
}

impl FromJson for LambdaSeries {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(LambdaSeries {
            lambda: field(v, ctx, "lambda")?,
            bits_per_epoch: field(v, ctx, "bits_per_epoch")?,
            final_bits: field(v, ctx, "final_bits")?,
            reached_target: field(v, ctx, "reached_target")?,
        })
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let campaign = Campaign::from_args("fig2");
    let target = 3.0f32;
    eprintln!("fig2: lambda sweep at target {target}, scale {scale:?}");
    let lambdas = [1e-6f32, 1e-4, 1e-3, 1e-2, 1e-1, 0.3, 1.0];
    let mut series = Vec::new();
    for &lambda in &lambdas {
        let s = campaign.run(&format!("lambda-{lambda}"), || {
            let data = Arch::ResNet20.dataset(&scale);
            let mut factory = csq_factory(8);
            let mut model = Arch::ResNet20.build(
                &scale,
                Some(3),
                csq_nn::activation::ActMode::Uniform,
                &mut factory,
            );
            let cfg = CsqConfig::fast(target)
                .with_epochs(scale.epochs)
                .with_lambda(lambda)
                .with_seed(scale.seed);
            let report = CsqTrainer::new(cfg)
                .train(&mut model, &data)
                .unwrap_or_else(|e| panic!("lambda {lambda} training failed: {e}"));
            let bits: Vec<f32> = report.history.iter().map(|h| h.avg_bits).collect();
            let final_bits = report.final_avg_bits;
            LambdaSeries {
                lambda,
                bits_per_epoch: bits,
                final_bits,
                reached_target: (final_bits - target).abs() <= 0.5,
            }
        });
        println!(
            "lambda={:<8}: final {:.2} bits | {}",
            s.lambda,
            s.final_bits,
            s.bits_per_epoch
                .iter()
                .map(|b| format!("{b:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        series.push(s);
    }
    let reached = series.iter().filter(|s| s.reached_target).count();
    let failed_small: Vec<f32> = series
        .iter()
        .filter(|s| !s.reached_target)
        .map(|s| s.lambda)
        .collect();
    println!(
        "\n{reached}/{} lambdas reach the {target}-bit target; failures: {failed_small:?} \
         (paper shape: only the smallest lambdas fail)",
        series.len()
    );
    write_results("fig2", &series);
}
