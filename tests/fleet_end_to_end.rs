//! End-to-end fleet serving: registry → router → rollout.
//!
//! The scenario the fleet layer exists for, asserted bit-for-bit:
//!
//! * a registry directory of versioned `.csqm` artifacts (two models,
//!   three artifact versions) scans into clean per-model lineages;
//! * a router serves two tenants across two models concurrently, and
//!   every fleet answer is bit-identical to a lone engine serving a
//!   single request of the same sample — replication, rendezvous
//!   routing, batching, and tenant multiplexing change *where* a
//!   request runs, never *what* it answers;
//! * a rollout hot-swaps a live replica group to a new version with
//!   the bit-exactness canary passing, under concurrent traffic, and
//!   post-rollout answers are bit-identical to the new version's
//!   reference; a poisoned canary rolls back automatically and leaves
//!   the incumbent serving;
//! * a burst past every replica's queue is shed with typed errors, and
//!   the router counts exactly the sheds its callers saw.

use csq_repro::csq::{PackedWeight, QuantScheme};
use csq_repro::fleet::{
    rollout, rollout_with_expected, FleetConfig, FleetError, FleetStats, ModelRegistry,
    RolloutOutcome, Router,
};
use csq_repro::nn::InferOp;
use csq_repro::serve::{
    CalibrationEntry, EngineConfig, ModelArtifact, ServeError, SubmitOptions, CSQM_FORMAT_VERSION,
};
use csq_repro::tensor::par::ScratchPool;
use csq_repro::tensor::Tensor;
use std::path::Path;
use std::time::Duration;

/// A hand-built deployable 3→2 linear model. No training machinery:
/// the artifact fields are the public contract, and distinct `offset`s
/// give bit-distinguishable versions of the "same" model.
fn toy_artifact(name: &str, offset: i32) -> ModelArtifact {
    ModelArtifact {
        format_version: CSQM_FORMAT_VERSION,
        name: name.to_string(),
        input_dims: vec![3],
        num_classes: 2,
        ops: vec![InferOp::Linear {
            weight: "0.weight".to_string(),
            in_features: 3,
            out_features: 2,
            bias: Some(vec![0.25, -0.25]),
        }],
        weights: vec![PackedWeight {
            path: "0.weight".to_string(),
            codes: vec![10, -20, 30, -40, 50, -60]
                .into_iter()
                .map(|c| c + offset)
                .collect(),
            step: 0.05,
            dims: vec![2, 3],
            bits: 8.0,
        }],
        scheme: QuantScheme {
            layers: vec![],
            avg_bits: 8.0,
            compression: 4.0,
        },
        calibration: vec![CalibrationEntry {
            weight_path: "0.weight".to_string(),
            step: 0.01,
            observed_lo: 0.0,
            observed_hi: 2.55,
        }],
    }
}

fn sample(seed: usize) -> Tensor {
    let base = (seed % 17) as f32 * 0.07;
    Tensor::from_vec(vec![base, base + 0.5, base + 1.0], &[3])
}

/// What a lone engine answers for one sample: the forward of the
/// artifact's offline compile on a batch of exactly that sample.
fn reference_row(artifact: &ModelArtifact, s: &Tensor) -> Vec<f32> {
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let one = s.reshape(&[1, 3]);
    artifact
        .compile()
        .unwrap()
        .forward_batch(&one, &scratch)
        .unwrap()
        .data()
        .to_vec()
}

fn write_registry(dir: &Path) {
    toy_artifact("alpha", 0)
        .save(&dir.join("alpha-v1.csqm"))
        .unwrap();
    toy_artifact("alpha", 7)
        .save(&dir.join("alpha-v2.csqm"))
        .unwrap();
    toy_artifact("beta", -3)
        .save(&dir.join("beta-v1.csqm"))
        .unwrap();
}

fn temp_registry(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csq-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_registry(&dir);
    dir
}

#[test]
fn registry_scans_versioned_lineages() {
    let dir = temp_registry("registry");
    let reg = ModelRegistry::scan(&dir).unwrap();
    assert!(
        reg.faults().is_empty(),
        "clean dir must scan clean: {:?}",
        reg.faults()
    );
    assert_eq!(reg.model_ids(), vec!["alpha", "beta"]);
    assert_eq!(reg.version_count(), 3);
    let alpha: Vec<u32> = reg.lineage("alpha").iter().map(|v| v.version).collect();
    assert_eq!(alpha, vec![1, 2]);
    assert_eq!(reg.latest("alpha").unwrap().version, 2);
    assert_eq!(reg.latest("beta").unwrap().version, 1);
    assert_eq!(
        reg.latest("alpha").unwrap().artifact,
        toy_artifact("alpha", 7)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_tenants_two_models_answers_are_bit_identical_to_single_engine() {
    let dir = temp_registry("router");
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 2,
        engine: EngineConfig {
            workers: 2,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        tenant_quota: None,
    });
    // Serve the *incumbent* alpha (v1) — the rollout test upgrades it.
    let alpha_v1 = &reg.lineage("alpha")[0];
    router.deploy(alpha_v1).unwrap();
    router.deploy(reg.latest("beta").unwrap()).unwrap();

    const PER_LANE: usize = 25;
    let lanes = [
        ("acme", "alpha"),
        ("acme", "beta"),
        ("umbra", "alpha"),
        ("umbra", "beta"),
    ];
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|&(tenant, model)| {
                let router = &router;
                scope.spawn(move || {
                    (0..PER_LANE)
                        .map(|i| {
                            let opts = SubmitOptions::default().with_tenant(tenant);
                            let ticket = router.submit(model, sample(i), opts).unwrap();
                            (i, ticket.wait().unwrap())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (handle, &(tenant, model)) in handles.into_iter().zip(&lanes) {
            let artifact = if model == "alpha" {
                toy_artifact("alpha", 0)
            } else {
                toy_artifact("beta", -3)
            };
            for (i, got) in handle.join().unwrap() {
                assert_eq!(
                    got.data(),
                    reference_row(&artifact, &sample(i)).as_slice(),
                    "tenant {tenant} model {model} sample {i} must be bit-identical \
                     to a lone single-request engine"
                );
            }
        }
    });

    let stats = csq_repro::fleet::FleetStats::collect(&router);
    let total: u64 = stats.models.values().map(|m| m.merged.completed).sum();
    assert_eq!(total, (lanes.len() * PER_LANE) as u64);
    for tenant in ["acme", "umbra"] {
        let t = &stats.tenants[tenant];
        assert_eq!(t.completed, 2 * PER_LANE as u64, "tenant {tenant} rollup");
        assert_eq!(t.latency.total(), 2 * PER_LANE as u64);
    }
    // The exposition rehomes per-model and per-tenant metrics.
    let snap = stats.to_metrics_snapshot();
    assert_eq!(
        snap.counters["fleet.tenant.acme.completed"],
        2 * PER_LANE as u64
    );
    assert!(snap.counters.contains_key("fleet.model.alpha.completed"));
    assert!(snap.hists.contains_key("fleet.tenant.umbra.latency_us"));
    assert!(stats
        .to_prometheus()
        .contains("fleet_model_alpha_completed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rollout_hot_swaps_under_traffic_with_passing_canary() {
    let dir = temp_registry("rollout");
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 3,
        engine: EngineConfig {
            workers: 2,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        tenant_quota: None,
    });
    let (v1, v2) = (&reg.lineage("alpha")[0], &reg.lineage("alpha")[1]);
    router.deploy(v1).unwrap();
    assert_eq!(router.deployed_version("alpha"), Some(1));

    let probe = Tensor::from_vec(
        (0..4).flat_map(|i| sample(i).data().to_vec()).collect(),
        &[4, 3],
    );
    std::thread::scope(|scope| {
        // Concurrent traffic throughout the rollout: every answer must
        // match one of the two versions exactly — never a blend.
        let traffic = scope.spawn(|| {
            let mut answers = Vec::new();
            for i in 0..200 {
                answers.push((i, router.infer("alpha", sample(i)).unwrap()));
            }
            answers
        });
        std::thread::sleep(Duration::from_millis(2));
        let report = rollout(&router, "alpha", v2, &probe).unwrap();
        assert_eq!(
            report.outcome,
            RolloutOutcome::Completed,
            "canary must pass"
        );
        assert_eq!(report.replicas_swapped, 3);
        assert_eq!(report.probes_per_replica, 4);
        assert_eq!((report.from_version, report.to_version), (1, 2));
        for (i, got) in traffic.join().unwrap() {
            let old = reference_row(&v1.artifact, &sample(i));
            let new = reference_row(&v2.artifact, &sample(i));
            assert!(
                got.data() == old.as_slice() || got.data() == new.as_slice(),
                "mid-rollout answer {i} must be exactly one version's bits"
            );
        }
    });
    assert_eq!(router.deployed_version("alpha"), Some(2));
    // Post-rollout, the fleet serves the new version's bits.
    for i in 0..8 {
        let got = router.infer("alpha", sample(i)).unwrap();
        assert_eq!(
            got.data(),
            reference_row(&v2.artifact, &sample(i)).as_slice()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_canary_rolls_back_to_the_incumbent() {
    let dir = temp_registry("rollback");
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 2,
        engine: EngineConfig::default(),
        tenant_quota: None,
    });
    let (v1, v2) = (&reg.lineage("alpha")[0], &reg.lineage("alpha")[1]);
    router.deploy(v1).unwrap();

    let probe = Tensor::from_vec(
        (0..2).flat_map(|i| sample(i).data().to_vec()).collect(),
        &[2, 3],
    );
    // Pin expectations that v2 cannot meet (they are v1's outputs):
    // the canary must catch it on the first replica and roll back.
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let wrong = v1
        .artifact
        .compile()
        .unwrap()
        .forward_batch(&probe, &scratch)
        .unwrap();
    let report = rollout_with_expected(&router, "alpha", v2, &probe, &wrong).unwrap();
    match &report.outcome {
        RolloutOutcome::RolledBack { reason } => {
            assert!(reason.contains("canary mismatch"), "got: {reason}")
        }
        other => panic!("expected rollback, got {other:?}"),
    }
    assert_eq!(report.replicas_swapped, 1, "abort on the first canary");
    assert_eq!(router.deployed_version("alpha"), Some(1));
    // Every replica still serves the incumbent's bits.
    for i in 0..8 {
        let got = router.infer("alpha", sample(i)).unwrap();
        assert_eq!(
            got.data(),
            reference_row(&v1.artifact, &sample(i)).as_slice()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// When every ranked replica's queue is full, `Router::submit` sheds
/// with a typed `QueueFull`. The router's shed counters, fleet-wide and
/// for the tenant, equal the sheds the caller saw, and every admitted
/// request still answers with its reference bits.
#[test]
fn a_burst_past_every_replica_queue_is_shed_and_counted() {
    // A 1024 → 1024 linear model: one forward takes far longer than a
    // submission, so a burst fills both replicas' one-slot queues.
    let n = 1024;
    let mut slow = toy_artifact("slow", 0);
    slow.input_dims = vec![n];
    slow.num_classes = n;
    slow.ops = vec![InferOp::Linear {
        weight: "0.weight".to_string(),
        in_features: n,
        out_features: n,
        bias: None,
    }];
    slow.weights[0].codes = (0..n * n).map(|i| (i % 17) as i32 - 8).collect();
    slow.weights[0].dims = vec![n, n];
    let dir = std::env::temp_dir().join(format!("csq-fleet-e2e-shed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    slow.save(&dir.join("slow-v1.csqm")).unwrap();
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 2,
        engine: EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::ZERO,
            queue_capacity: 1,
        },
        tenant_quota: None,
    });
    router.deploy(reg.latest("slow").unwrap()).unwrap();

    let inputs: Vec<Tensor> = (0..4)
        .map(|k| {
            let x = (0..n).map(|i| ((i + k) % 7) as f32 * 0.25).collect();
            Tensor::from_vec(x, &[n])
        })
        .collect();
    let compiled = slow.compile().unwrap();
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let refs: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| {
            let y = compiled.forward_batch(&x.reshape(&[1, n]), &scratch);
            y.unwrap().data().to_vec()
        })
        .collect();

    // Submit, waiting on no ticket, until the fleet has shed a few.
    let (mut admitted, mut shed) = (Vec::new(), 0u64);
    for i in 0..10_000 {
        if shed == 8 {
            break;
        }
        let opts = SubmitOptions::default().with_tenant("burst");
        match router.submit("slow", inputs[i % 4].clone(), opts) {
            Ok(ticket) => admitted.push((i % 4, ticket)),
            Err(FleetError::Serve(ServeError::QueueFull { capacity })) => {
                assert_eq!(capacity, 1);
                shed += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(
        shed >= 1,
        "{} submissions never found both queues full",
        admitted.len()
    );
    let answered = admitted.len() as u64;
    for (k, ticket) in admitted {
        assert_eq!(ticket.wait().unwrap().data(), refs[k].as_slice());
    }

    let stats = FleetStats::collect(&router);
    assert_eq!(stats.router.shed, shed);
    assert_eq!(stats.router.tenants["burst"].shed, shed);
    assert_eq!(stats.router.rejected, 0);
    assert_eq!(stats.tenants["burst"].completed, answered);
    // Both replicas refused each request the fleet shed.
    assert!(stats.models["slow"].merged.shed >= 2 * shed);
    std::fs::remove_dir_all(&dir).ok();
}
