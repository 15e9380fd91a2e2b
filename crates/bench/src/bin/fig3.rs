//! Regenerates **Figure 3** of the CSQ paper: averaged model precision
//! during training under different target precisions (1–5 bit),
//! ResNet-20 with 3-bit activations.
//!
//! The paper's shape to reproduce: each trajectory tracks close to its
//! target throughout training and converges to it by the last epoch.
//!
//! ```text
//! cargo run -p csq-bench --release --bin fig3 [-- --resume]
//! ```
//!
//! `--resume` reuses completed target runs from the campaign cache.

use csq_bench::{write_results, Arch, BenchScale, Campaign};
use csq_core::prelude::*;
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TargetSeries {
    target: f32,
    bits_per_epoch: Vec<f32>,
    final_bits: f32,
    final_acc: f32,
}

impl FromJson for TargetSeries {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(TargetSeries {
            target: field(v, ctx, "target")?,
            bits_per_epoch: field(v, ctx, "bits_per_epoch")?,
            final_bits: field(v, ctx, "final_bits")?,
            final_acc: field(v, ctx, "final_acc")?,
        })
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let campaign = Campaign::from_args("fig3");
    eprintln!("fig3: target sweep, scale {scale:?}");
    // Record the per-epoch telemetry series (loss, avg bits, gate
    // sparsity, per-layer bits) through the shared registry; the full
    // snapshot is exported next to the figure data below.
    csq_core::set_telemetry(true);
    let mut series = Vec::new();
    for target in [1.0f32, 2.0, 3.0, 4.0, 5.0] {
        let s = campaign.run(&format!("target-{target}"), || {
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
                .with_seed(scale.seed);
            let report = CsqTrainer::new(cfg)
                .train(&mut model, &data)
                .unwrap_or_else(|e| panic!("target {target} training failed: {e}"));
            TargetSeries {
                target,
                bits_per_epoch: report.history.iter().map(|h| h.avg_bits).collect(),
                final_bits: report.final_avg_bits,
                final_acc: report.final_test_accuracy,
            }
        });
        println!(
            "target={target}: final {:.2} bits, acc {:.2}% | {}",
            s.final_bits,
            s.final_acc * 100.0,
            s.bits_per_epoch
                .iter()
                .map(|b| format!("{b:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        series.push(s);
    }
    let hit = series
        .iter()
        .filter(|s| (s.final_bits - s.target).abs() <= 0.5)
        .count();
    println!("\n{hit}/5 targets hit within 0.5 bit (paper: all converge on target)");
    write_results("fig3", &series);
    write_results("fig3_telemetry", &csq_obs::global_registry().snapshot());
}
