//! The `.csqm` deployable model artifact.
//!
//! A `.csqm` file is everything inference needs and nothing training
//! does: the exported op plan (folded BatchNorm constants, activation
//! quantizer settings, pooling geometry), packed fixed-point weights,
//! the mixed-precision scheme for provenance, and calibrated activation
//! grids. A serving process reconstructs a runnable [`CompiledModel`]
//! from the artifact alone — no weight factories, gates, optimizers, or
//! gradients.
//!
//! # On-disk layout
//!
//! The payload is versioned JSON ([`ModelArtifact`] with
//! [`CSQM_FORMAT_VERSION`]) wrapped in the workspace's checksummed
//! container (`csq_nn::persist`): a magic header, a CRC-32 of the
//! payload, and the payload length, written atomically (temp file,
//! then rename). Truncated or bit-flipped files are rejected on load with a
//! [`PersistError`] instead of being parsed into garbage, and files
//! written by a future incompatible format version are rejected by the
//! explicit version check.
//!
//! These integrity checks are also the first line of defence for
//! zero-downtime deploys: a corrupted replacement artifact fails
//! [`ModelArtifact::load`] (and an incompatible one fails
//! [`ModelArtifact::is_compatible_with`] / `Engine::swap_model`), so it
//! can never reach the serving path — the old version keeps serving.

use crate::calibrate::{calibrate, grid_table, CalibrationEntry};
use crate::exec::{BindError, CompiledModel, ServeError};
use csq_core::pack::{PackError, PackedModel, PackedWeight};
use csq_core::QuantScheme;
use csq_nn::persist::{read_checksummed, write_checksummed, PersistError};
use csq_nn::{export_model, ExportError, InferOp, Layer};
use csq_obs::json::{field, FromJson, Value};
use csq_tensor::Tensor;
use serde::Serialize;
use std::path::Path;

/// Current `.csqm` format version. Bump on any incompatible change to
/// [`ModelArtifact`]'s serialized shape; loaders reject versions they do
/// not understand rather than misinterpreting fields.
pub const CSQM_FORMAT_VERSION: u32 = 1;

/// Why an artifact could not be exported, saved, loaded, or compiled.
#[derive(Debug)]
pub enum ArtifactError {
    /// The checksummed container rejected the file (I/O failure,
    /// missing header, truncation, or checksum mismatch).
    Persist(PersistError),
    /// The payload passed its checksum but is not valid artifact JSON.
    Json(String),
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// File the version came from (`None` for an in-memory
        /// artifact rejected by [`ModelArtifact::compile`]).
        path: Option<std::path::PathBuf>,
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The training model contains a layer with no inference lowering.
    Export(ExportError),
    /// The training model could not be packed to fixed point.
    Pack(PackError),
    /// The op plan references weights or calibration entries the
    /// artifact does not carry.
    Bind(BindError),
    /// The calibration forward pass failed.
    Calibration(ServeError),
    /// The calibration sample tensor does not match the declared input
    /// shape (or is empty).
    BadSamples {
        /// Declared per-sample input shape.
        expected: Vec<usize>,
        /// Shape of the tensor actually supplied.
        actual: Vec<usize>,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Persist(e) => write!(f, "artifact container error: {e}"),
            ArtifactError::Json(e) => write!(f, "artifact payload is not valid JSON: {e}"),
            ArtifactError::UnsupportedVersion {
                path,
                found,
                supported,
            } => match path {
                Some(p) => write!(
                    f,
                    "artifact {} was written with format version {found}, expected {supported} \
                     (this build cannot read it)",
                    p.display()
                ),
                None => write!(
                    f,
                    "artifact format version {found} is not supported (this build reads {supported})"
                ),
            },
            ArtifactError::Export(e) => write!(f, "model cannot be lowered for inference: {e}"),
            ArtifactError::Pack(e) => write!(f, "model cannot be packed: {e}"),
            ArtifactError::Bind(e) => write!(f, "artifact is internally inconsistent: {e}"),
            ArtifactError::Calibration(e) => write!(f, "calibration forward failed: {e}"),
            ArtifactError::BadSamples { expected, actual } => write!(
                f,
                "calibration samples {actual:?} do not match input shape {expected:?}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<PersistError> for ArtifactError {
    fn from(e: PersistError) -> Self {
        ArtifactError::Persist(e)
    }
}

impl From<ExportError> for ArtifactError {
    fn from(e: ExportError) -> Self {
        ArtifactError::Export(e)
    }
}

impl From<PackError> for ArtifactError {
    fn from(e: PackError) -> Self {
        ArtifactError::Pack(e)
    }
}

impl From<BindError> for ArtifactError {
    fn from(e: BindError) -> Self {
        ArtifactError::Bind(e)
    }
}

/// Bit-plane structure of one packed weight, as reported by
/// [`ModelArtifact::plane_profile`]: CSQ's bit-level sparsity, counted
/// from the integer codes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlaneProfileEntry {
    /// Stable weight path.
    pub path: String,
    /// Learned bit-width recorded at pack time.
    pub bits: f32,
    /// Magnitude planes spanned by the codes (`max |code| < 2^planes`).
    pub total_planes: usize,
    /// Plane×sign pairs with at least one set bit: plane `p` of sign `s`
    /// is active when some code of sign `s` has bit `p` of its magnitude.
    pub active_passes: usize,
    /// Plane×sign pairs within `total_planes` that no code uses.
    pub skipped_passes: usize,
}

impl PlaneProfileEntry {
    /// Counts the planes of one packed weight; `None` when the weight
    /// has no output or reduction axis or its code count disagrees with
    /// its dims.
    fn of(w: &PackedWeight) -> Option<PlaneProfileEntry> {
        if w.dims.len() < 2 || w.dims.contains(&0) {
            return None;
        }
        if w.codes.len() != w.dims.iter().product::<usize>() {
            return None;
        }
        // The union of the magnitudes of each sign: bit `p` is set iff
        // plane `p` of that sign is active.
        let (mut pos, mut neg) = (0u32, 0u32);
        for &c in &w.codes {
            if c > 0 {
                pos |= c.unsigned_abs();
            } else {
                neg |= c.unsigned_abs();
            }
        }
        let total_planes = (32 - (pos | neg).leading_zeros()) as usize;
        let active_passes = (pos.count_ones() + neg.count_ones()) as usize;
        Some(PlaneProfileEntry {
            path: w.path.clone(),
            bits: w.bits,
            total_planes,
            active_passes,
            skipped_passes: 2 * total_planes - active_passes,
        })
    }
}

/// A complete deployable model: op plan, packed weights, precision
/// scheme, and calibrated activation grids. Saved to and loaded from the
/// versioned `.csqm` container; loading decodes through the
/// [`FromJson`] decoders of each part, which name the offending field
/// path (`artifact.weights[3].codes`) in every error.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelArtifact {
    /// `.csqm` format version this artifact was written with.
    pub format_version: u32,
    /// Human-readable model name.
    pub name: String,
    /// Per-sample input shape (no batch axis), e.g. `[3, 16, 16]`.
    pub input_dims: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Inference op plan with weights referenced by stable path.
    pub ops: Vec<InferOp>,
    /// Packed fixed-point weights, one per weighted op.
    pub weights: Vec<PackedWeight>,
    /// The mixed-precision scheme the training run arrived at
    /// (provenance: per-layer bits, average precision, compression).
    pub scheme: QuantScheme,
    /// Calibrated activation grids, one per weighted op.
    pub calibration: Vec<CalibrationEntry>,
}

impl FromJson for ModelArtifact {
    fn from_json(v: &Value, ctx: &str) -> Result<Self, String> {
        Ok(ModelArtifact {
            format_version: field(v, ctx, "format_version")?,
            name: field(v, ctx, "name")?,
            input_dims: field(v, ctx, "input_dims")?,
            num_classes: field(v, ctx, "num_classes")?,
            ops: field(v, ctx, "ops")?,
            weights: field(v, ctx, "weights")?,
            scheme: field(v, ctx, "scheme")?,
            calibration: field(v, ctx, "calibration")?,
        })
    }
}

impl ModelArtifact {
    /// Exports a *finalized* training model into a deployable artifact:
    /// packs the weights to fixed point, lowers the layer stack to the
    /// inference op plan, extracts the precision scheme, and calibrates
    /// activation grids by running `calib_samples` (`[S, C, H, W]`,
    /// matching `input_dims`) through the float reference path.
    pub fn export(
        model: &mut dyn Layer,
        name: &str,
        input_dims: &[usize],
        num_classes: usize,
        calib_samples: &Tensor,
    ) -> Result<ModelArtifact, ArtifactError> {
        let sample_dims = calib_samples.dims();
        let samples_ok = sample_dims.len() == input_dims.len() + 1
            && sample_dims[1..] == input_dims[..]
            && sample_dims[0] > 0;
        if !samples_ok {
            return Err(ArtifactError::BadSamples {
                expected: input_dims.to_vec(),
                actual: sample_dims.to_vec(),
            });
        }
        let packed = PackedModel::pack(model)?;
        let ops = export_model(model)?;
        let scheme = QuantScheme::extract(model);
        // Uncalibrated executor: every weighted op on the float path.
        let reference = CompiledModel::bind(
            name.to_string(),
            input_dims.to_vec(),
            num_classes,
            &ops,
            &packed.layers,
            None,
        )?;
        let calibration =
            calibrate(&reference, calib_samples).map_err(ArtifactError::Calibration)?;
        Ok(ModelArtifact {
            format_version: CSQM_FORMAT_VERSION,
            name: name.to_string(),
            input_dims: input_dims.to_vec(),
            num_classes,
            ops,
            weights: packed.layers,
            scheme,
            calibration,
        })
    }

    /// Binds the artifact into an executable [`CompiledModel`] with the
    /// calibrated grids active. This is the zero-training-side loading
    /// path: artifact in, runnable model out.
    pub fn compile(&self) -> Result<CompiledModel, ArtifactError> {
        if self.format_version != CSQM_FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                path: None,
                found: self.format_version,
                supported: CSQM_FORMAT_VERSION,
            });
        }
        let table = grid_table(&self.calibration);
        Ok(CompiledModel::bind(
            self.name.clone(),
            self.input_dims.clone(),
            self.num_classes,
            &self.ops,
            &self.weights,
            Some(&table),
        )?)
    }

    /// Writes the artifact to `path` inside the checksummed container
    /// (atomic temp-file + rename; a crash never leaves a half-written
    /// artifact under the final name).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let payload = serde_json::to_vec(self).map_err(|e| ArtifactError::Json(e.to_string()))?;
        write_checksummed(path, &payload).map_err(|e| ArtifactError::Persist(PersistError::Io(e)))
    }

    /// Reads an artifact back from `path`, verifying the container
    /// checksum and the format version.
    ///
    /// The format version is checked on the parsed JSON tree *before*
    /// the payload is decoded into typed fields: an artifact written by
    /// a future format likely carries fields this build's schema cannot
    /// parse, and the operator-facing error must say "wrong version,
    /// written by a newer build" — not "malformed JSON".
    pub fn load(path: &Path) -> Result<ModelArtifact, ArtifactError> {
        let payload = read_checksummed(path)?;
        let doc: Value =
            serde_json::from_slice(&payload).map_err(|e| ArtifactError::Json(e.to_string()))?;
        let found: u64 = field(&doc, "artifact", "format_version").map_err(ArtifactError::Json)?;
        if found != u64::from(CSQM_FORMAT_VERSION) {
            return Err(ArtifactError::UnsupportedVersion {
                path: Some(path.to_path_buf()),
                found: u32::try_from(found).unwrap_or(u32::MAX),
                supported: CSQM_FORMAT_VERSION,
            });
        }
        ModelArtifact::from_json(&doc, "artifact").map_err(ArtifactError::Json)
    }

    /// Deployed weight payload in bytes (bit-packed codes plus scales).
    pub fn packed_weight_bytes(&self) -> usize {
        self.weights.iter().map(PackedWeight::size_bytes).sum()
    }

    /// Per-weight bit-plane structure without compiling the artifact:
    /// for every packed weight with at least two dims and a matching
    /// code count, how many magnitude planes its codes span and how
    /// many of those plane×sign pairs are used or pruned to empty —
    /// the bit-level sparsity CSQ's training produced.
    pub fn plane_profile(&self) -> Vec<PlaneProfileEntry> {
        self.weights
            .iter()
            .filter_map(PlaneProfileEntry::of)
            .collect()
    }

    /// Whether this artifact can hot-swap into an engine serving models
    /// with the given contract (`Engine::swap_model` re-validates on
    /// the compiled model; checking here lets a deployer reject a
    /// mismatched artifact *before* paying for `compile`).
    pub fn is_compatible_with(&self, input_dims: &[usize], num_classes: usize) -> bool {
        self.input_dims == input_dims && self.num_classes == num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_core::QuantScheme;

    /// The smallest structurally valid artifact: no ops, no weights.
    /// Enough to exercise the container + version gate without any
    /// training-side machinery.
    fn empty_artifact(format_version: u32) -> ModelArtifact {
        ModelArtifact {
            format_version,
            name: "empty".to_string(),
            input_dims: vec![3],
            num_classes: 2,
            ops: Vec::new(),
            weights: Vec::new(),
            scheme: QuantScheme {
                layers: Vec::new(),
                avg_bits: 0.0,
                compression: 0.0,
            },
            calibration: Vec::new(),
        }
    }

    #[test]
    fn load_version_mismatch_names_path_and_both_versions() {
        let path = temp_csqm("future");
        empty_artifact(CSQM_FORMAT_VERSION + 41)
            .save(&path)
            .unwrap();
        let err = ModelArtifact::load(&path).unwrap_err();
        match &err {
            ArtifactError::UnsupportedVersion {
                path: p,
                found,
                supported,
            } => {
                assert_eq!(p.as_deref(), Some(path.as_path()));
                assert_eq!(*found, CSQM_FORMAT_VERSION + 41);
                assert_eq!(*supported, CSQM_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // The rendered message must let an operator find the file and
        // see expected-vs-found at a glance.
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()),
            "message must name the offending file: {msg}"
        );
        assert!(
            msg.contains(&format!("version {}", CSQM_FORMAT_VERSION + 41)),
            "message must name the found version: {msg}"
        );
        assert!(
            msg.contains(&format!("expected {CSQM_FORMAT_VERSION}")),
            "message must name the expected version: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    fn packed(path: &str, dims: &[usize], codes: Vec<i32>) -> PackedWeight {
        PackedWeight {
            path: path.to_string(),
            codes,
            step: 0.1,
            dims: dims.to_vec(),
            bits: 8.0,
        }
    }

    #[test]
    fn plane_profile_counts_planes_from_the_codes() {
        let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
        artifact.weights = vec![
            // Only plane 2 (±4) is used: planes 0 and 1 are pruned for
            // both signs.
            packed(
                "plane2",
                &[2, 8],
                vec![4, -4, 0, 4, 0, 0, -4, 4, 4, 4, -4, 0, 0, 4, 0, -4],
            ),
            // A fully pruned weight spans no plane and has no passes.
            packed("zero", &[3, 70], vec![0; 210]),
            // Positive magnitudes 1 and 3 use planes 0 and 1, negative
            // magnitude 2 only plane 1: plane 0 of the negative sign is
            // skipped.
            packed("mixed", &[1, 2, 2], vec![1, -2, 3, 0]),
            // No reduction axis, and a code count that disagrees with
            // the dims: neither has a plane profile.
            packed("rank1", &[4], vec![1; 4]),
            packed("short", &[2, 3], vec![1; 5]),
        ];
        let profile = artifact.plane_profile();
        let counts: Vec<(&str, usize, usize, usize)> = profile
            .iter()
            .map(|e| {
                let (planes, active, skipped) = (e.total_planes, e.active_passes, e.skipped_passes);
                (e.path.as_str(), planes, active, skipped)
            })
            .collect();
        assert_eq!(
            counts,
            vec![("plane2", 3, 2, 4), ("zero", 0, 0, 0), ("mixed", 2, 3, 1)]
        );
    }

    fn temp_csqm(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("csq-artifact-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}.csqm", std::process::id()))
    }

    #[test]
    fn conv_bias_relu_plan_round_trips_through_disk() {
        use csq_nn::{Conv2d, Relu, Sequential};
        use csq_tensor::conv::ConvSpec;
        let model = Sequential::new(vec![
            Box::new(Conv2d::with_float_weights(
                2,
                2,
                ConvSpec::new(3, 1, 1),
                true,
                7,
            )),
            Box::new(Relu::new()),
        ]);
        let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
        artifact.ops = export_model(&model).unwrap();
        assert!(matches!(
            artifact.ops[0],
            InferOp::Conv2d { bias: Some(_), .. }
        ));
        let path = temp_csqm("conv-relu");
        artifact.save(&path).unwrap();
        assert_eq!(ModelArtifact::load(&path).unwrap(), artifact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_conv_stride_is_rejected_on_load() {
        let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
        artifact.ops = vec![InferOp::Conv2d {
            weight: "w".to_string(),
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 0,
            padding: 0,
            bias: None,
        }];
        let path = temp_csqm("zero-stride");
        artifact.save(&path).unwrap();
        match ModelArtifact::load(&path).unwrap_err() {
            ArtifactError::Json(msg) => {
                assert!(msg.contains("artifact.ops[0].Conv2d.stride"), "{msg}")
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_without_path_is_rejected_on_load() {
        let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
        artifact.weights = vec![
            packed("ok", &[1, 2], vec![1, 2]),
            packed("lost", &[1, 2], vec![1, 2]),
        ];
        let path = temp_csqm("no-path");
        artifact.save(&path).unwrap();
        // Rename the second weight's `path` key and re-frame the payload
        // with a valid checksum, so only the decoder can reject it.
        let payload = String::from_utf8(read_checksummed(&path).unwrap()).unwrap();
        let edited = payload.replace("\"path\":\"lost\"", "\"was\":\"lost\"");
        assert_ne!(edited, payload);
        write_checksummed(&path, edited.as_bytes()).unwrap();
        match ModelArtifact::load(&path).unwrap_err() {
            ArtifactError::Json(msg) => assert!(msg.contains("weights[1].path"), "{msg}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn code_count_mismatch_is_a_bind_error() {
        let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
        artifact.weights = vec![packed("short", &[2, 3], vec![1; 5])];
        match artifact.compile().unwrap_err() {
            ArtifactError::Bind(BindError::Codes { path, error }) => {
                assert_eq!(path, "short");
                assert_eq!(
                    error,
                    csq_core::QinferError::CodeCountMismatch {
                        what: "weights",
                        expected: 6,
                        actual: 5,
                    }
                );
            }
            other => panic!("expected a bind error, got {other:?}"),
        }
    }

    /// A conv's `[OC, IC/G, K, K]` weight must fit its channels for some
    /// group count `G`; one that fits none, a zero dim included, is a
    /// typed bind error, and a depthwise one compiles.
    #[test]
    fn conv_weight_that_fits_no_grouping_is_a_bind_error() {
        let conv = |dims: &[usize], in_channels, out_channels, kernel| {
            let mut artifact = empty_artifact(CSQM_FORMAT_VERSION);
            artifact.ops = vec![InferOp::Conv2d {
                weight: "w".to_string(),
                in_channels,
                out_channels,
                kernel,
                stride: 1,
                padding: 0,
                bias: None,
            }];
            let n = dims.iter().product();
            artifact.weights = vec![packed("w", dims, vec![1; n])];
            artifact.calibration = vec![CalibrationEntry {
                weight_path: "w".to_string(),
                step: 0.01,
                observed_lo: 0.0,
                observed_hi: 2.55,
                integer: true,
            }];
            artifact.compile().map(|_| ())
        };
        for (dims, ic, oc, k) in [
            (&[4, 3, 3, 3][..], 4, 4, 3), // 3 does not divide 4
            (&[3, 2, 3, 3], 4, 3, 3),     // G = 2 does not divide 3
            (&[4, 2, 3, 3], 4, 5, 3),     // OC disagrees
            (&[4, 2, 3, 3], 0, 4, 3),     // G = 0
            (&[4, 0, 3, 3], 4, 4, 3),     // IC/G = 0
            (&[4, 2, 1, 1], 4, 4, 3),     // kernel disagrees
            (&[4, 2, 3], 4, 4, 3),        // rank 3
        ] {
            match conv(dims, ic, oc, k) {
                Err(ArtifactError::Bind(BindError::ConvShape { path, .. })) => {
                    assert_eq!(path, "w")
                }
                other => panic!("{dims:?} {ic}->{oc}: expected ConvShape, got {other:?}"),
            }
        }
        conv(&[4, 1, 3, 3], 4, 4, 3).expect("depthwise conv compiles");
        conv(&[6, 2, 1, 1], 4, 6, 1).expect("two-group conv compiles");
    }

    #[test]
    fn compile_version_mismatch_has_no_path() {
        let err = empty_artifact(CSQM_FORMAT_VERSION + 1)
            .compile()
            .unwrap_err();
        match err {
            ArtifactError::UnsupportedVersion { path, .. } => assert!(path.is_none()),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}
