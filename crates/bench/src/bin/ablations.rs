//! Design-choice ablations called out in DESIGN.md §5 — the choices this
//! reproduction makes inside the CSQ algorithm, each compared against its
//! alternative on the Table-V workload (ResNet-20, 3-bit activations,
//! 3-bit target):
//!
//! 1. **Staggered vs uniform mask-logit initialization** — without the
//!    stagger all mask logits cross the gate boundary together and layer
//!    precision collapses 8 → 0 before recovering.
//! 2. **Hard vs soft Δ_S counting** — the paper counts precision with
//!    `Σ_b [m_B ≥ 0]` even while gates are soft; the ablation uses the
//!    relaxed sum instead.
//! 3. **β_max sweep** — the shared maximum gate temperature controls how
//!    exactly the soft model matches its hard finalization (the
//!    soft→hard accuracy gap).
//! 4. **Scale granularity** — the paper's per-layer scalar scale versus
//!    per-output-channel scales.
//!
//! ```text
//! cargo run -p csq-bench --release --bin ablations [-- --resume]
//! ```
//!
//! `--resume` reuses completed variants from the campaign cache.

use csq_bench::{write_results, Arch, BenchScale, Campaign};
use csq_core::bitrep::csq_factory_with_mask_init;
use csq_core::prelude::*;
use csq_core::trainer::{evaluate, fit, FitConfig};
use csq_nn::activation::ActMode;
use csq_nn::Layer;
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AblationResult {
    name: String,
    variant: String,
    final_bits: f32,
    final_acc: f32,
    bits_per_epoch: Vec<f32>,
    precision_collapsed: bool,
    soft_acc: Option<f32>,
}

impl FromJson for AblationResult {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(AblationResult {
            name: field(v, ctx, "name")?,
            variant: field(v, ctx, "variant")?,
            final_bits: field(v, ctx, "final_bits")?,
            final_acc: field(v, ctx, "final_acc")?,
            bits_per_epoch: field(v, ctx, "bits_per_epoch")?,
            precision_collapsed: field(v, ctx, "precision_collapsed")?,
            soft_acc: field(v, ctx, "soft_acc")?,
        })
    }
}

fn run_variant(
    scale: &BenchScale,
    factory_stagger: Option<(f32, f32)>,
    soft_counting: bool,
    beta_max: f32,
) -> AblationResult {
    let target = 3.0f32;
    let data = Arch::ResNet20.dataset(scale);
    let (base, stagger) = factory_stagger.unwrap_or((0.05, 0.03));
    let mut factory = csq_factory_with_mask_init(8, base, stagger);
    let mut model = Arch::ResNet20.build(scale, Some(3), ActMode::Uniform, &mut factory);

    let mut budget = BudgetRegularizer::new(0.3, target);
    if soft_counting {
        budget = budget.with_soft_counting();
    }
    let mut cfg = FitConfig::fast(scale.epochs);
    cfg.seed = scale.seed;
    cfg.beta = Some(TemperatureSchedule::new(1.0, beta_max, scale.epochs));
    cfg.budget = Some(budget);
    let history = fit(&mut model, &data, &cfg, false).expect("ablation training failed");
    let (_, soft_acc) = evaluate(&mut model, &data.test, cfg.batch_size);
    model.visit_weight_sources(&mut |src| src.finalize());
    let (_, acc) = evaluate(&mut model, &data.test, cfg.batch_size);
    let stats = model_precision(&mut model);
    let bits: Vec<f32> = history.iter().map(|h| h.avg_bits).collect();
    // "Collapse" = average precision ever dropping more than 2 bits
    // below the target on its way down.
    let collapsed = bits.iter().any(|&b| b < target - 2.0);
    AblationResult {
        name: String::new(),
        variant: String::new(),
        final_bits: stats.avg_bits,
        final_acc: acc,
        bits_per_epoch: bits,
        precision_collapsed: collapsed,
        soft_acc: Some(soft_acc),
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let campaign = Campaign::from_args("ablations");
    eprintln!("ablations: scale {scale:?}");
    let mut results = Vec::new();

    println!("\n--- Ablation 1: mask-logit initialization ---");
    for (variant, stagger) in [
        ("staggered (default)", Some((0.05, 0.03))),
        ("uniform", Some((0.05, 0.0))),
    ] {
        let mut r = campaign.run(&format!("mask-init {variant}"), || {
            run_variant(&scale, stagger, false, 200.0)
        });
        r.name = "mask-init".into();
        r.variant = variant.into();
        println!(
            "{variant:<22} final {:.2} bits, acc {:.2}%, collapsed: {} | {}",
            r.final_bits,
            r.final_acc * 100.0,
            r.precision_collapsed,
            r.bits_per_epoch
                .iter()
                .map(|b| format!("{b:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        results.push(r);
    }

    println!("\n--- Ablation 2: Δ_S counting rule ---");
    for (variant, soft) in [("hard (paper)", false), ("soft", true)] {
        let mut r = campaign.run(&format!("delta-s {variant}"), || {
            run_variant(&scale, None, soft, 200.0)
        });
        r.name = "delta-s-counting".into();
        r.variant = variant.into();
        println!(
            "{variant:<22} final {:.2} bits, acc {:.2}%",
            r.final_bits,
            r.final_acc * 100.0
        );
        results.push(r);
    }

    println!("\n--- Ablation 3: maximum gate temperature ---");
    for beta_max in [20.0f32, 200.0, 1000.0] {
        let mut r = campaign.run(&format!("beta-max-{beta_max}"), || {
            run_variant(&scale, None, false, beta_max)
        });
        r.name = "beta-max".into();
        r.variant = format!("beta_max={beta_max}");
        let gap = (r.soft_acc.unwrap() - r.final_acc) * 100.0;
        println!(
            "beta_max={beta_max:<8} final {:.2} bits, hard acc {:.2}%, soft->hard gap {gap:+.2}pp",
            r.final_bits,
            r.final_acc * 100.0
        );
        results.push(r);
    }

    println!("\n--- Ablation 4: scale granularity ---");
    for (variant, per_channel) in [("per-layer (paper)", false), ("per-channel", true)] {
        let r = campaign.run(&format!("scale-granularity {variant}"), || {
            let target = 3.0f32;
            let data = Arch::ResNet20.dataset(&scale);
            let mut model = if per_channel {
                let mut factory = csq_core::bitrep::csq_factory_per_channel(8);
                Arch::ResNet20.build(&scale, Some(3), ActMode::Uniform, &mut factory)
            } else {
                let mut factory = csq_factory(8);
                Arch::ResNet20.build(&scale, Some(3), ActMode::Uniform, &mut factory)
            };
            let mut cfg = FitConfig::fast(scale.epochs);
            cfg.seed = scale.seed;
            cfg.beta = Some(TemperatureSchedule::paper_default(scale.epochs).with_saturation(0.75));
            cfg.budget = Some(BudgetRegularizer::new(0.3, target));
            fit(&mut model, &data, &cfg, false).expect("ablation training failed");
            model.visit_weight_sources(&mut |src| src.finalize());
            let (_, acc) = evaluate(&mut model, &data.test, cfg.batch_size);
            let bits = model_precision(&mut model).avg_bits;
            AblationResult {
                name: "scale-granularity".into(),
                variant: variant.into(),
                final_bits: bits,
                final_acc: acc,
                bits_per_epoch: vec![],
                precision_collapsed: false,
                soft_acc: None,
            }
        });
        println!(
            "{variant:<22} final {:.2} bits, acc {:.2}%",
            r.final_bits,
            r.final_acc * 100.0
        );
        results.push(r);
    }

    write_results("ablations", &results);
}
