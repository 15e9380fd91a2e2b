//! Regenerates **Figure 4** of the CSQ paper: the layer-wise precision of
//! the mixed-precision schemes CSQ discovers under different target bits
//! (ResNet-20, 3-bit activations).
//!
//! The paper's shapes to reproduce: (1) the per-layer precision profiles
//! are broadly consistent across targets (scaled versions of each other);
//! (2) CSQ's profiles differ from the declining-precision heuristics of
//! HAWQ/BSQ — the paper reports a roughly *rising* trend toward the
//! output layers.
//!
//! ```text
//! cargo run -p csq-bench --release --bin fig4 [-- --resume]
//! ```
//!
//! `--resume` reuses completed target runs from the campaign cache.

use csq_bench::{write_results, Arch, BenchScale, Campaign};
use csq_core::prelude::*;
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct LayerwiseScheme {
    target: f32,
    layer_bits: Vec<f32>,
    /// Layer paths matching `layer_bits` column-for-column.
    layer_paths: Vec<String>,
    avg_bits: f32,
}

impl FromJson for LayerwiseScheme {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(LayerwiseScheme {
            target: field(v, ctx, "target")?,
            layer_bits: field(v, ctx, "layer_bits")?,
            layer_paths: field(v, ctx, "layer_paths")?,
            avg_bits: field(v, ctx, "avg_bits")?,
        })
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let campaign = Campaign::from_args("fig4");
    eprintln!("fig4: layer-wise schemes, scale {scale:?}");
    let mut schemes = Vec::new();
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
            LayerwiseScheme {
                target,
                layer_bits: report.scheme.layer_bits(),
                layer_paths: report
                    .scheme
                    .layers
                    .iter()
                    .map(|l| l.path.clone())
                    .collect(),
                avg_bits: report.final_avg_bits,
            }
        });
        schemes.push(s);
    }

    let n_layers = schemes[0].layer_bits.len();
    println!("\n=== Figure 4: layer-wise precision by target (columns = weight tensors in model order) ===");
    print!("{:<8}", "target");
    for l in 0..n_layers {
        print!("{:>4}", l);
    }
    println!();
    for s in &schemes {
        print!("{:<8}", format!("{}-bit", s.target));
        for &b in &s.layer_bits {
            print!("{:>4.0}", b);
        }
        println!("   (avg {:.2})", s.avg_bits);
    }
    println!("columns:");
    for (i, p) in schemes[0].layer_paths.iter().enumerate() {
        println!("  {i:>3} = {p}");
    }

    // Consistency check across targets: rank correlation between the
    // layer profiles of consecutive targets.
    let spearman_like = |a: &[f32], b: &[f32]| -> f32 {
        let ma = a.iter().sum::<f32>() / a.len() as f32;
        let mb = b.iter().sum::<f32>() / b.len() as f32;
        let cov: f32 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f32 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f32 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        if va <= 0.0 || vb <= 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    };
    for w in schemes.windows(2) {
        println!(
            "profile correlation target {} vs {}: {:.2}",
            w[0].target,
            w[1].target,
            spearman_like(&w[0].layer_bits, &w[1].layer_bits)
        );
    }
    write_results("fig4", &schemes);
}
