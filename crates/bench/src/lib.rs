//! Experiment harness regenerating every table and figure of the CSQ
//! paper at a single-core-feasible scale.
//!
//! Each `src/bin/*` binary reproduces one table or figure:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — ResNet-20 / CIFAR-10-like |
//! | `table2` | Table II — VGG19BN / CIFAR-10-like |
//! | `table3` | Table III — ResNet-18 & ResNet-50 / ImageNet-like |
//! | `table4` | Table IV — STE vs CSQ-Uniform vs CSQ-MP ablation |
//! | `table5` | Table V — accuracy/size trade-off across targets |
//! | `fig2`   | Figure 2 — λ sweep of precision-vs-epoch |
//! | `fig3`   | Figure 3 — target sweep of precision-vs-epoch |
//! | `fig4`   | Figure 4 — layer-wise precision per target |
//! | `ablations` | design-choice ablations called out in DESIGN.md §5 |
//!
//! Binaries print the paper's rows next to measured values and write
//! JSON/CSV under `bench_results/`. Scale knobs come from environment
//! variables (see [`BenchScale::from_env`]) so the same binaries run in
//! seconds (default), or much longer with more epochs/samples/width.
//! The `artifacts` binary regenerates the committed `.csqm` fixtures
//! from the same variables.

#![deny(missing_docs)]

use csq_baselines::{bsq_factory, dorefa_factory, lq_factory, ste_uniform_factory};
use csq_core::prelude::*;
use csq_core::trainer::{fit, FitConfig, OptimKind};
use csq_data::{Dataset, SyntheticSpec};
use csq_nn::activation::ActMode;
use csq_nn::models::{resnet18, resnet50, resnet_cifar, vgg19bn, ModelConfig};
use csq_nn::weight::float_factory;
use csq_nn::{Layer, Sequential};
use csq_obs::json::{field, FromJson, Value};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Scale parameters shared by every experiment binary.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Training epochs per run.
    pub epochs: usize,
    /// Finetuning epochs for runs that use the finetune phase (Table III).
    pub finetune_epochs: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Model base width.
    pub width: usize,
    /// Dataset noise level.
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
    /// Independent repetitions per table cell (results are averaged;
    /// reduces the single-run variance that dominates at reduced scale).
    pub seeds: usize,
    /// Worker threads of the deterministic parallel runtime (resolved
    /// from `CSQ_THREADS`; results are identical at any value).
    pub threads: usize,
}

impl BenchScale {
    /// Reads the scale from `CSQ_*` environment variables, with
    /// single-core-friendly defaults:
    /// `CSQ_EPOCHS`, `CSQ_FT_EPOCHS`, `CSQ_TRAIN_PER_CLASS`,
    /// `CSQ_TEST_PER_CLASS`, `CSQ_WIDTH`, `CSQ_NOISE`, `CSQ_SEED`,
    /// `CSQ_SEEDS`. `CSQ_THREADS` sets the worker-thread count
    /// (wall-clock only — every result is bit-identical at any thread
    /// count).
    ///
    /// A variable that is set but does not parse ends the process with
    /// a message naming it and its value.
    pub fn from_env() -> Self {
        fn env<T: std::str::FromStr>(key: &str, default: T) -> T {
            let value = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
            parse_var(key, value.as_deref(), default).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
        }
        BenchScale {
            epochs: env("CSQ_EPOCHS", 20),
            finetune_epochs: env("CSQ_FT_EPOCHS", 8),
            train_per_class: env("CSQ_TRAIN_PER_CLASS", 24),
            test_per_class: env("CSQ_TEST_PER_CLASS", 32),
            width: env("CSQ_WIDTH", 8),
            noise: env("CSQ_NOISE", 0.8),
            seed: env("CSQ_SEED", 0),
            seeds: env("CSQ_SEEDS", 2),
            threads: csq_tensor::par::current_threads(),
        }
    }
}

/// Parses the value of the scale variable `key`: unset gives `default`,
/// and a value that does not parse is an error naming the variable and
/// the value.
fn parse_var<T: std::str::FromStr>(
    key: &str,
    value: Option<&str>,
    default: T,
) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key}={v:?} is not a valid value")),
    }
}

/// The model families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// ResNet-20 on the CIFAR-10 stand-in (Tables I, IV, V, figures).
    ResNet20,
    /// VGG19BN on the CIFAR-10 stand-in (Table II).
    Vgg19Bn,
    /// ResNet-18 on the ImageNet stand-in (Table III).
    ResNet18,
    /// ResNet-50 on the ImageNet stand-in (Table III).
    ResNet50,
}

impl Arch {
    /// Builds the dataset this architecture is evaluated on.
    pub fn dataset(&self, scale: &BenchScale) -> Dataset {
        let spec = match self {
            Arch::ResNet20 | Arch::Vgg19Bn => SyntheticSpec::cifar_like(scale.seed),
            Arch::ResNet18 | Arch::ResNet50 => SyntheticSpec::imagenet_like(scale.seed),
        }
        .with_samples(scale.train_per_class, scale.test_per_class)
        .with_noise(scale.noise);
        Dataset::synthetic(&spec)
    }

    /// Builds the model with the given weight factory and activation
    /// precision.
    pub fn build(
        &self,
        scale: &BenchScale,
        act_bits: Option<u32>,
        act_mode: ActMode,
        factory: &mut csq_nn::weight::WeightFactory<'_>,
    ) -> Sequential {
        match self {
            Arch::ResNet20 => {
                let cfg = ModelConfig::cifar_like(scale.width, act_bits, scale.seed)
                    .with_act_mode(act_mode);
                resnet_cifar(cfg, factory, 3)
            }
            Arch::Vgg19Bn => {
                let cfg = ModelConfig::cifar_like(scale.width, act_bits, scale.seed)
                    .with_act_mode(act_mode);
                vgg19bn(cfg, factory)
            }
            Arch::ResNet18 => {
                let cfg = ModelConfig::imagenet_like(scale.width, act_bits, scale.seed)
                    .with_act_mode(act_mode);
                resnet18(cfg, factory)
            }
            Arch::ResNet50 => {
                let cfg = ModelConfig::imagenet_like(scale.width, act_bits, scale.seed)
                    .with_act_mode(act_mode);
                resnet50(cfg, factory)
            }
        }
    }
}

/// A quantization method under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Full-precision reference.
    Fp,
    /// Full CSQ with a target average precision; `finetune` enables the
    /// second phase of Algorithm 1.
    Csq {
        /// Target average weight precision.
        target: f32,
        /// Run the mask-frozen finetuning phase.
        finetune: bool,
    },
    /// CSQ-Uniform ablation (Eq. 3, fixed precision, no mask search).
    CsqUniform {
        /// Fixed weight precision.
        bits: usize,
    },
    /// STE-based uniform QAT (Polino et al. \[27\]).
    SteUniform {
        /// Fixed weight precision.
        bits: usize,
    },
    /// DoReFa-Net weights.
    Dorefa {
        /// Fixed weight precision.
        bits: usize,
    },
    /// PACT: DoReFa weights + learnable-clip activations.
    Pact {
        /// Fixed weight precision.
        bits: usize,
    },
    /// LQ-Nets-style learned quantizer.
    Lq {
        /// Fixed weight precision.
        bits: usize,
    },
    /// BSQ bit-level sparsity with periodic pruning.
    Bsq,
}

impl Method {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Method::Fp => "FP".into(),
            Method::Csq { target, .. } => format!("CSQ T{}", *target as u32),
            Method::CsqUniform { .. } => "CSQ-Uniform".into(),
            Method::SteUniform { .. } => "STE-Uniform".into(),
            Method::Dorefa { .. } => "DoReFa".into(),
            Method::Pact { .. } => "PACT".into(),
            Method::Lq { .. } => "LQ-Nets*".into(),
            Method::Bsq => "BSQ".into(),
        }
    }

    /// The "W-Bits" column entry.
    pub fn w_bits_label(&self) -> String {
        match self {
            Method::Fp => "32".into(),
            Method::Csq { .. } | Method::Bsq => "MP".into(),
            Method::CsqUniform { bits }
            | Method::SteUniform { bits }
            | Method::Dorefa { bits }
            | Method::Pact { bits }
            | Method::Lq { bits } => bits.to_string(),
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// Method label.
    pub method: String,
    /// "W-Bits" column entry.
    pub w_bits: String,
    /// Final element-weighted average weight precision.
    pub avg_bits: f32,
    /// Weight compression versus FP32.
    pub compression: f32,
    /// Final held-out accuracy (fraction).
    pub accuracy: f32,
    /// Per-epoch average precision (for the figures).
    pub bits_history: Vec<f32>,
    /// Per-layer final precision (for Figure 4).
    pub layer_bits: Vec<f32>,
    /// Wall-clock seconds for the run.
    pub seconds: f32,
}

impl FromJson for RunResult {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(RunResult {
            method: field(v, ctx, "method")?,
            w_bits: field(v, ctx, "w_bits")?,
            avg_bits: field(v, ctx, "avg_bits")?,
            compression: field(v, ctx, "compression")?,
            accuracy: field(v, ctx, "accuracy")?,
            bits_history: field(v, ctx, "bits_history")?,
            layer_bits: field(v, ctx, "layer_bits")?,
            seconds: field(v, ctx, "seconds")?,
        })
    }
}

/// True when the binary was launched with `--summary`: table binaries
/// then print a per-layer model map before running their campaign.
pub fn summary_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--summary")
}

/// When `--summary` was passed, prints [`csq_core::model_summary`] — one
/// table per architecture (layer path, kind, parameter count, role
/// breakdown, current hard-counted bits) — at this campaign's scale,
/// using the harness's starting parameterization (8-bit CSQ sources).
pub fn print_model_summaries(archs: &[Arch], scale: &BenchScale) {
    if !summary_requested() {
        return;
    }
    for arch in archs {
        let mut factory = csq_factory(8);
        let mut model = arch.build(scale, None, ActMode::Uniform, &mut factory);
        println!(
            "\n=== {arch:?} per-layer summary (width {}) ===",
            scale.width
        );
        println!("{}", model_summary(&mut model));
    }
}

/// BSQ hyperparameters used by the harness (L1 strength tuned so pruning
/// engages at reduced scale; pruning period from the BSQ paper's spirit).
const BSQ_L1: f32 = 1e-3;
const BSQ_PRUNE_EVERY: usize = 3;

/// Trains `method` on `arch` at the given activation precision,
/// averaging over `scale.seeds` independent repetitions (dataset, init
/// and shuffling all reseeded). All methods share the dataset,
/// architecture, initialization stream and optimizer per repetition
/// (Adam at reduced scale — see DESIGN.md §2).
pub fn run_method(
    arch: Arch,
    method: Method,
    act_bits: Option<u32>,
    scale: &BenchScale,
) -> RunResult {
    let reps = scale.seeds.max(1);
    let start = std::time::Instant::now();
    let mut merged: Option<RunResult> = None;
    for rep in 0..reps {
        let mut s = *scale;
        s.seed = scale.seed + 1000 * rep as u64;
        let r = run_method_once(arch, method, act_bits, &s);
        merged = Some(match merged {
            None => r,
            Some(mut acc) => {
                acc.accuracy += r.accuracy;
                acc.avg_bits += r.avg_bits;
                acc.compression += r.compression;
                acc
            }
        });
    }
    let mut out = merged.expect("at least one repetition");
    out.accuracy /= reps as f32;
    out.avg_bits /= reps as f32;
    out.compression /= reps as f32;
    out.seconds = start.elapsed().as_secs_f32();
    out
}

/// One repetition of [`run_method`].
pub fn run_method_once(
    arch: Arch,
    method: Method,
    act_bits: Option<u32>,
    scale: &BenchScale,
) -> RunResult {
    let start = std::time::Instant::now();
    let data = arch.dataset(scale);
    let act_mode = if matches!(method, Method::Pact { .. }) {
        ActMode::Pact
    } else {
        ActMode::Uniform
    };

    let mut result = match method {
        Method::Csq { target, finetune } => {
            let mut factory = csq_factory(8);
            let mut model = arch.build(scale, act_bits, act_mode, &mut factory);
            let mut cfg = CsqConfig::fast(target)
                .with_epochs(scale.epochs)
                .with_seed(scale.seed);
            if finetune {
                cfg = cfg.with_finetune(scale.finetune_epochs);
            }
            let report = match CsqTrainer::new(cfg).train(&mut model, &data) {
                Ok(r) => r,
                Err(e) => panic!("{} training failed: {e}", method.label()),
            };
            RunResult {
                method: method.label(),
                w_bits: method.w_bits_label(),
                avg_bits: report.final_avg_bits,
                compression: report.final_compression,
                accuracy: report.final_test_accuracy,
                bits_history: report.history.iter().map(|h| h.avg_bits).collect(),
                layer_bits: report.scheme.layer_bits(),
                seconds: 0.0,
            }
        }
        _ => {
            let mut factory: Box<dyn FnMut(csq_tensor::Tensor) -> Box<dyn csq_nn::WeightSource>> =
                match method {
                    Method::Fp => Box::new(float_factory()),
                    Method::CsqUniform { bits } => Box::new(csq_uniform_factory(bits)),
                    Method::SteUniform { bits } => Box::new(ste_uniform_factory(bits)),
                    Method::Dorefa { bits } | Method::Pact { bits } => {
                        Box::new(dorefa_factory(bits))
                    }
                    Method::Lq { bits } => Box::new(lq_factory(bits)),
                    Method::Bsq => Box::new(bsq_factory(8, BSQ_L1, BSQ_PRUNE_EVERY)),
                    Method::Csq { .. } => unreachable!("handled above"),
                };
            let mut model = arch.build(scale, act_bits, act_mode, &mut factory);
            let mut cfg = FitConfig::fast(scale.epochs);
            cfg.seed = scale.seed;
            cfg.optim = OptimKind::Adam;
            // Continuous-sparsification parameterizations need the
            // temperature schedule; STE-based ones ignore it.
            if matches!(method, Method::CsqUniform { .. }) {
                cfg.beta =
                    Some(TemperatureSchedule::paper_default(scale.epochs).with_saturation(0.75));
            }
            let history = match fit(&mut model, &data, &cfg, false) {
                Ok(h) => h,
                Err(e) => panic!("{} training failed: {e}", method.label()),
            };
            model.visit_weight_sources(&mut |src| src.finalize());
            let (_, acc) = csq_core::trainer::evaluate(&mut model, &data.test, cfg.batch_size);
            let stats = model_precision(&mut model);
            let scheme = QuantScheme::extract(&mut model);
            RunResult {
                method: method.label(),
                w_bits: method.w_bits_label(),
                avg_bits: stats.avg_bits,
                compression: stats.compression_ratio(),
                accuracy: acc,
                bits_history: history.iter().map(|h| h.avg_bits).collect(),
                layer_bits: scheme.layer_bits(),
                seconds: 0.0,
            }
        }
    };
    result.seconds = start.elapsed().as_secs_f32();
    result
}

/// One row of a printed table; `paper` columns echo the publication,
/// `measured` columns come from [`run_method`].
#[derive(Debug, Clone, Serialize)]
pub struct TableRow {
    /// "A-Bits" column.
    pub a_bits: String,
    /// Method label.
    pub method: String,
    /// "W-Bits" column.
    pub w_bits: String,
    /// Compression reported by the paper (`None` when not reported).
    pub paper_comp: Option<f32>,
    /// Accuracy (%) reported by the paper (`None` when not reported).
    pub paper_acc: Option<f32>,
    /// Measured compression (`None` for paper-only rows).
    pub meas_comp: Option<f32>,
    /// Measured accuracy (%) (`None` for paper-only rows).
    pub meas_acc: Option<f32>,
    /// `measured` or `paper-reported` (methods whose systems the paper
    /// itself only cites).
    pub source: &'static str,
}

impl TableRow {
    /// A row measured by this harness, annotated with the paper's numbers.
    pub fn measured(
        a_bits: &str,
        result: &RunResult,
        paper_comp: Option<f32>,
        paper_acc: Option<f32>,
    ) -> Self {
        TableRow {
            a_bits: a_bits.into(),
            method: result.method.clone(),
            w_bits: result.w_bits.clone(),
            paper_comp,
            paper_acc,
            meas_comp: Some(result.compression),
            meas_acc: Some(result.accuracy * 100.0),
            source: "measured",
        }
    }

    /// A row the paper only cites (HAWQ-V3, HAQ, ZeroQ, …): echoed, not
    /// rerun.
    pub fn paper_only(
        a_bits: &str,
        method: &str,
        w_bits: &str,
        paper_comp: Option<f32>,
        paper_acc: f32,
    ) -> Self {
        TableRow {
            a_bits: a_bits.into(),
            method: method.into(),
            w_bits: w_bits.into(),
            paper_comp,
            paper_acc: Some(paper_acc),
            meas_comp: None,
            meas_acc: None,
            source: "paper-reported",
        }
    }
}

/// Prints a table to stdout and writes JSON + CSV under `bench_results/`.
pub fn emit_table(name: &str, title: &str, rows: &[TableRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<7} {:<13} {:<7} {:>10} {:>9} {:>10} {:>9}  source",
        "A-Bits", "Method", "W-Bits", "paperComp", "paperAcc", "measComp", "measAcc"
    );
    let fmt = |v: Option<f32>| v.map_or("-".to_string(), |x| format!("{x:.2}"));
    for r in rows {
        println!(
            "{:<7} {:<13} {:<7} {:>10} {:>9} {:>10} {:>9}  {}",
            r.a_bits,
            r.method,
            r.w_bits,
            fmt(r.paper_comp),
            fmt(r.paper_acc),
            fmt(r.meas_comp),
            fmt(r.meas_acc),
            r.source
        );
    }
    write_results(name, &rows.to_vec());
}

/// Writes any serializable result set to `bench_results/<name>.json`.
///
/// # Panics
///
/// Panics, naming the path, if the directory cannot be created or the
/// value cannot be serialized or written.
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    write_json(
        &Path::new("bench_results").join(format!("{name}.json")),
        value,
    );
}

fn write_json<T: Serialize>(path: &Path, value: &T) {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            panic!("cannot create {}: {e}", dir.display());
        }
    }
    let json = match serde_json::to_string_pretty(value) {
        Ok(json) => json,
        Err(e) => panic!("cannot serialize {}: {e}", path.display()),
    };
    if let Err(e) = std::fs::write(path, json) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("[written {}]", path.display());
}

/// Run-granularity resume for experiment campaigns.
///
/// Every completed [`run_method`] result is persisted to
/// `bench_results/.campaign/<binary>/<key>.json` through the same
/// atomic-write + CRC32 framing as training snapshots. When a binary is
/// relaunched with `--resume`, cached runs are returned instantly and
/// only the missing ones are retrained — so a campaign killed after row
/// 7 of 12 restarts at row 8, and a truncated or bit-flipped cache file
/// is silently retrained rather than trusted.
#[derive(Debug, Clone)]
pub struct Campaign {
    dir: PathBuf,
    resume: bool,
}

impl Campaign {
    /// A campaign cache for the binary `name`, resuming when `resume`.
    pub fn new(name: &str, resume: bool) -> Campaign {
        Campaign {
            dir: PathBuf::from("bench_results").join(".campaign").join(name),
            resume,
        }
    }

    /// Builds from the process arguments of the binary `name`: passing
    /// `--resume` reuses cached runs, anything else starts fresh (the
    /// cache is still written either way).
    pub fn from_args(name: &str) -> Campaign {
        let resume = std::env::args().skip(1).any(|a| a == "--resume");
        let c = Campaign::new(name, resume);
        if resume {
            println!("[campaign {name}: resuming from {}]", c.dir.display());
        }
        c
    }

    /// Whether `--resume` (or `new(.., true)`) is in effect.
    pub fn resuming(&self) -> bool {
        self.resume
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}.json"))
    }

    /// Returns the cached value for `key` when resuming, otherwise runs
    /// `f` and caches its result. Cache failures are non-fatal: an entry
    /// that exists but is corrupt or does not decode is reported with
    /// its key and the error, and the run is redone.
    pub fn run<T: Serialize + FromJson>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        let path = self.path_for(key);
        if self.resume && path.exists() {
            match read_entry(&path) {
                Ok(cached) => {
                    println!("[cached {key}]");
                    return cached;
                }
                Err(e) => println!("[cache entry {key} is unusable, rerunning: {e}]"),
            }
        }
        let result = f();
        if std::fs::create_dir_all(&self.dir).is_ok() {
            if let Ok(payload) = serde_json::to_vec(&result) {
                let _ = csq_nn::persist::write_checksummed(&path, &payload);
            }
        }
        result
    }

    /// [`run_method`] through the cache: the common case for table
    /// binaries.
    pub fn method(
        &self,
        key: &str,
        arch: Arch,
        method: Method,
        act_bits: Option<u32>,
        scale: &BenchScale,
    ) -> RunResult {
        self.run(key, || run_method(arch, method, act_bits, scale))
    }
}

/// Reads one checksummed campaign cache entry.
fn read_entry<T: FromJson>(path: &Path) -> Result<T, String> {
    let payload = csq_nn::persist::read_checksummed(path).map_err(|e| e.to_string())?;
    let v: Value = serde_json::from_slice(&payload).map_err(|e| format!("entry: {e}"))?;
    T::from_json(&v, "entry")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_defaults() {
        let s = BenchScale::from_env();
        assert!(s.epochs > 0 && s.width > 0 && s.train_per_class > 0);
    }

    #[test]
    fn scale_vars_parse_or_name_the_bad_value() {
        assert_eq!(parse_var("CSQ_EPOCHS", None, 20usize), Ok(20));
        assert_eq!(parse_var("CSQ_EPOCHS", Some("3"), 20usize), Ok(3));
        assert_eq!(parse_var("CSQ_NOISE", Some("0.25"), 0.8f32), Ok(0.25));
        let err = parse_var("CSQ_EPOCHS", Some("1O"), 20usize).unwrap_err();
        assert!(
            err.contains("CSQ_EPOCHS") && err.contains("\"1O\""),
            "{err}"
        );
        assert!(parse_var("CSQ_WIDTH", Some(""), 8usize).is_err());
        assert!(parse_var("CSQ_SEED", Some("-1"), 0u64).is_err());
    }

    #[test]
    fn write_failures_panic_naming_the_path() {
        let panic_message = |path: &Path| {
            let err = std::panic::catch_unwind(|| write_json(path, &1u32)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        // A directory under a regular file can never be created.
        let file = std::env::temp_dir().join(format!("csq-bench-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let msg = panic_message(&file.join("out.json"));
        std::fs::remove_file(&file).ok();
        assert!(
            msg.starts_with(&format!("cannot create {}", file.display())),
            "{msg}"
        );
        // A directory cannot be written as a file.
        let dir = std::env::temp_dir();
        let msg = panic_message(&dir);
        assert!(
            msg.starts_with(&format!("cannot write {}", dir.display())),
            "{msg}"
        );
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(Method::Fp.label(), "FP");
        assert_eq!(
            Method::Csq {
                target: 2.0,
                finetune: false
            }
            .label(),
            "CSQ T2"
        );
        assert_eq!(Method::Bsq.w_bits_label(), "MP");
        assert_eq!(Method::SteUniform { bits: 3 }.w_bits_label(), "3");
    }

    #[test]
    fn arch_builds_all_models() {
        let scale = BenchScale {
            epochs: 1,
            finetune_epochs: 0,
            train_per_class: 2,
            test_per_class: 1,
            width: 4,
            noise: 0.5,
            seed: 0,
            seeds: 1,
            threads: 1,
        };
        for arch in [
            Arch::ResNet20,
            Arch::Vgg19Bn,
            Arch::ResNet18,
            Arch::ResNet50,
        ] {
            let mut fac = float_factory();
            let mut boxed: Box<dyn FnMut(csq_tensor::Tensor) -> Box<dyn csq_nn::WeightSource>> =
                Box::new(&mut fac);
            let m = arch.build(&scale, None, ActMode::Uniform, &mut boxed);
            drop(m);
            let d = arch.dataset(&scale);
            assert!(!d.train.is_empty());
        }
    }

    #[test]
    fn campaign_cache_round_trips() {
        let name = "test-campaign-cache";
        let mk = |acc: f32| RunResult {
            method: "FP".into(),
            w_bits: "32".into(),
            avg_bits: 32.0,
            compression: 1.0,
            accuracy: acc,
            bits_history: vec![1.0, 2.0],
            layer_bits: vec![8.0],
            seconds: 0.0,
        };
        let c = Campaign::new(name, false);
        assert!(!c.resuming());
        assert_eq!(c.run("row a/b", || mk(0.5)).accuracy, 0.5);
        // Not resuming: the closure runs again and refreshes the cache.
        assert_eq!(c.run("row a/b", || mk(0.7)).accuracy, 0.7);
        // Resuming: the cached value wins over the closure.
        let resumed = Campaign::new(name, true).run("row a/b", || mk(0.9));
        assert_eq!(resumed.accuracy, 0.7);
        assert_eq!(resumed.bits_history, vec![1.0, 2.0]);
        // A corrupted cache entry is retrained, not trusted.
        let path = Campaign::new(name, true).path_for("row a/b");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            Campaign::new(name, true)
                .run("row a/b", || mk(0.9))
                .accuracy,
            0.9
        );
        // So is an intact entry that does not decode, with the field
        // that failed named.
        csq_nn::persist::write_checksummed(&path, br#"{"method": "FP"}"#).unwrap();
        let err = read_entry::<RunResult>(&path).unwrap_err();
        assert_eq!(err, "entry.w_bits: missing");
        assert_eq!(
            Campaign::new(name, true)
                .run("row a/b", || mk(0.8))
                .accuracy,
            0.8
        );
        std::fs::remove_dir_all(PathBuf::from("bench_results").join(".campaign").join(name)).ok();
    }

    #[test]
    fn summary_is_opt_in() {
        // The test harness is never launched with `--summary`, so the
        // helper must be a cheap no-op.
        assert!(!summary_requested());
        let scale = BenchScale {
            epochs: 1,
            finetune_epochs: 0,
            train_per_class: 2,
            test_per_class: 1,
            width: 4,
            noise: 0.5,
            seed: 0,
            seeds: 1,
            threads: 1,
        };
        print_model_summaries(&[Arch::ResNet20], &scale);
    }

    #[test]
    fn model_summary_uses_paths_for_bench_archs() {
        let scale = BenchScale {
            epochs: 1,
            finetune_epochs: 0,
            train_per_class: 2,
            test_per_class: 1,
            width: 4,
            noise: 0.5,
            seed: 0,
            seeds: 1,
            threads: 1,
        };
        let mut factory = csq_factory(8);
        let mut model = Arch::ResNet20.build(&scale, None, ActMode::Uniform, &mut factory);
        let text = model_summary(&mut model).to_string();
        assert!(text.contains("0 "), "stem row: {text}");
        assert!(text.contains(".main."), "block rows keyed by path: {text}");
    }

    #[test]
    fn tiny_fp_run_completes() {
        let scale = BenchScale {
            epochs: 1,
            finetune_epochs: 0,
            train_per_class: 2,
            test_per_class: 1,
            width: 4,
            noise: 0.5,
            seed: 0,
            seeds: 1,
            threads: 1,
        };
        let r = run_method(Arch::ResNet20, Method::Fp, None, &scale);
        assert_eq!(r.method, "FP");
        assert!((r.compression - 1.0).abs() < 1e-5);
        assert_eq!(r.bits_history.len(), 1);
    }
}
