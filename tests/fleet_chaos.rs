//! Fleet-level chaos drills, driven by the deterministic
//! `csq_core::fault::ChaosPlan` entries the fleet layer consumes:
//! whole-replica-group kills under live multi-tenant load, and
//! registry artifact corruption at scan time.
//!
//! The contract under fire: every affected request gets a *typed*
//! error (never a hang, never a panic), unaffected models keep
//! serving their exact bits (no cross-model contamination), damaged
//! registry entries degrade to the newest healthy version, and
//! redeploying a killed group restores service — with the killed
//! replicas' stats retained in the fleet totals. A killed group drains
//! without holding up the rest of the fleet.

use csq_repro::csq::fault::ChaosPlan;
use csq_repro::csq::{PackedWeight, QuantScheme};
use csq_repro::fleet::{FleetConfig, FleetError, FleetStats, ModelRegistry, RegistryFault, Router};
use csq_repro::nn::InferOp;
use csq_repro::serve::{
    CalibrationEntry, EngineConfig, ModelArtifact, ServeError, SubmitOptions, CSQM_FORMAT_VERSION,
};
use csq_repro::tensor::par::ScratchPool;
use csq_repro::tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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
            bias: None,
        }],
        weights: vec![PackedWeight {
            path: "0.weight".to_string(),
            codes: vec![12, -24, 36, -48, 60, -72]
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

/// An `n → n` linear model: n² MACs per answer, slow enough to build a
/// backlog that takes a while to drain.
fn wide_artifact(name: &str, n: usize) -> ModelArtifact {
    let mut artifact = toy_artifact(name, 0);
    artifact.input_dims = vec![n];
    artifact.num_classes = n;
    artifact.ops = vec![InferOp::Linear {
        weight: "0.weight".to_string(),
        in_features: n,
        out_features: n,
        bias: None,
    }];
    artifact.weights[0].codes = (0..n * n).map(|i| (i % 17) as i32 - 8).collect();
    artifact.weights[0].dims = vec![n, n];
    artifact
}

fn sample(seed: usize) -> Tensor {
    let base = (seed % 13) as f32 * 0.09;
    Tensor::from_vec(vec![base, base + 0.4, base + 0.9], &[3])
}

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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csq-fleet-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replica-group kill under concurrent two-tenant load: in-flight and
/// subsequent requests to the killed model resolve with typed errors,
/// the surviving model's answers stay bit-exact throughout, and a
/// redeploy restores bit-exact service with history intact.
#[test]
fn group_kill_under_load_degrades_typed_and_recovers() {
    let dir = temp_dir("kill");
    let alpha = toy_artifact("alpha", 0);
    let beta = toy_artifact("beta", 5);
    alpha.save(&dir.join("alpha-v1.csqm")).unwrap();
    beta.save(&dir.join("beta-v1.csqm")).unwrap();
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
    let alpha_v = reg.latest("alpha").unwrap();
    router.deploy(alpha_v).unwrap();
    router.deploy(reg.latest("beta").unwrap()).unwrap();

    let stop = AtomicBool::new(false);
    let mut plan = ChaosPlan::new().kill_replica_group("alpha");

    std::thread::scope(|scope| {
        // Tenant lanes hammer both models; alpha requests may fail
        // once the kill lands, but every single one must resolve to an
        // answer or a typed error — no hangs, no panics.
        let alpha_lane = scope.spawn(|| {
            let mut ok = 0usize;
            let mut down = 0usize;
            for i in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let opts = SubmitOptions::default().with_tenant("acme");
                match router.submit("alpha", sample(i), opts) {
                    Ok(ticket) => match ticket.wait() {
                        Ok(got) => {
                            assert_eq!(
                                got.data(),
                                reference_row(&toy_artifact("alpha", 0), &sample(i)).as_slice(),
                                "pre-kill alpha answer {i} must be alpha's bits"
                            );
                            ok += 1;
                        }
                        // A replica dropped mid-flight answers its
                        // drained queue; any error it gives is typed.
                        Err(ServeError::Closed | ServeError::WorkerFailed { .. }) => {}
                        Err(e) => panic!("unexpected serve error: {e}"),
                    },
                    Err(FleetError::ModelDown { model_id }) => {
                        assert_eq!(model_id, "alpha");
                        down += 1;
                        if down > 50 {
                            break;
                        }
                    }
                    Err(FleetError::Serve(ServeError::QueueFull { .. })) => {}
                    Err(e) => panic!("unexpected fleet error: {e}"),
                }
            }
            (ok, down)
        });
        let beta_lane = scope.spawn(|| {
            let mut ok = 0usize;
            for i in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let opts = SubmitOptions::default().with_tenant("umbra");
                match router.submit("beta", sample(i), opts) {
                    Ok(ticket) => {
                        let got = ticket.wait().expect("beta must keep serving");
                        assert_eq!(
                            got.data(),
                            reference_row(&toy_artifact("beta", 5), &sample(i)).as_slice(),
                            "beta answer {i} contaminated while alpha was being killed"
                        );
                        ok += 1;
                    }
                    Err(FleetError::Serve(ServeError::QueueFull { .. })) => {}
                    Err(e) => panic!("beta must not fail: {e}"),
                }
            }
            ok
        });

        std::thread::sleep(Duration::from_millis(10));
        let killed = router.apply_chaos(&mut plan);
        assert_eq!(killed, vec!["alpha".to_string()]);
        assert!(plan.is_spent(), "the kill entry fires exactly once");
        assert_eq!(router.replica_count("alpha"), Some(0));

        // The killed group fails fast and typed.
        match router.submit("alpha", sample(0), SubmitOptions::default()) {
            Err(FleetError::ModelDown { model_id }) => assert_eq!(model_id, "alpha"),
            other => panic!("expected ModelDown, got {:?}", other.map(|_| "ticket")),
        }

        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let (alpha_ok, alpha_down) = alpha_lane.join().unwrap();
        let beta_ok = beta_lane.join().unwrap();
        assert!(alpha_ok > 0, "alpha must have served before the kill");
        assert!(alpha_down > 0, "alpha must have failed fast after the kill");
        assert!(beta_ok > 0, "beta must have served throughout");
    });

    // History survives the kill: the retired replicas' completions are
    // in the fleet rollup even though their engines are gone.
    let stats = FleetStats::collect(&router);
    let alpha_stats = &stats.models["alpha"];
    assert_eq!(alpha_stats.live_replicas, 0);
    assert_eq!(alpha_stats.retired_replicas, 2);
    assert!(alpha_stats.merged.completed > 0, "retired stats retained");

    // Recovery: redeploy from the registry and serve bit-exact again.
    router.deploy(alpha_v).unwrap();
    assert_eq!(router.replica_count("alpha"), Some(2));
    for i in 0..8 {
        let got = router.infer("alpha", sample(i)).unwrap();
        assert_eq!(got.data(), reference_row(&alpha, &sample(i)).as_slice());
    }
    let stats = FleetStats::collect(&router);
    assert!(stats.models["alpha"].merged.completed >= 8);
    std::fs::remove_dir_all(&dir).ok();
}

/// Registry corruption drill: a chaos-flipped bit in the newest
/// version's file surfaces as a typed fault, the lineage falls back
/// to the newest healthy version, and the fleet serves that version's
/// exact bits.
#[test]
fn corrupted_newest_artifact_falls_back_to_prior_version() {
    let dir = temp_dir("corrupt");
    toy_artifact("alpha", 0)
        .save(&dir.join("alpha-v1.csqm"))
        .unwrap();
    toy_artifact("alpha", 9)
        .save(&dir.join("alpha-v2.csqm"))
        .unwrap();
    toy_artifact("beta", 3)
        .save(&dir.join("beta-v1.csqm"))
        .unwrap();

    // Sorted scan order: [alpha-v1, alpha-v2, beta-v1]; corrupt entry
    // 1 (alpha-v2) in the payload, past the container header.
    let mut plan = ChaosPlan::new().corrupt_registry_entry(1, 64, 3);
    let reg = ModelRegistry::scan_with_chaos(&dir, &mut plan).unwrap();
    assert!(plan.is_spent());

    assert_eq!(reg.faults().len(), 1);
    match &reg.faults()[0] {
        RegistryFault::BadArtifact { path, error } => {
            assert!(path.ends_with("alpha-v2.csqm"));
            // The checksummed container catches the flip before any
            // payload bytes are interpreted.
            let msg = error.to_string();
            assert!(
                msg.contains("container"),
                "corruption must be a container-level error: {msg}"
            );
        }
        other => panic!("expected BadArtifact, got {other}"),
    }

    // Lineage degrades to the newest healthy version; beta untouched.
    assert_eq!(reg.latest("alpha").unwrap().version, 1);
    assert_eq!(reg.lineage("alpha").len(), 1);
    assert_eq!(reg.latest("beta").unwrap().version, 1);

    // And that fallback version actually serves, bit-exact.
    let router = Router::new(FleetConfig {
        replicas_per_model: 1,
        engine: EngineConfig::default(),
        tenant_quota: None,
    });
    router.deploy(reg.latest("alpha").unwrap()).unwrap();
    for i in 0..4 {
        let got = router.infer("alpha", sample(i)).unwrap();
        assert_eq!(
            got.data(),
            reference_row(&toy_artifact("alpha", 0), &sample(i)).as_slice()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fleet-level tenant quotas: a fixed budget (rate 0) admits exactly
/// `burst` requests per tenant across every replica and model, then
/// sheds that tenant — and only that tenant — with typed
/// `RateLimited` errors, all visible in the router's drop counters.
/// Tenantless requests bypass the quota, and every admitted answer is
/// bit-exact.
#[test]
fn fleet_quota_sheds_the_noisy_tenant_only() {
    let dir = temp_dir("quota");
    toy_artifact("alpha", 0)
        .save(&dir.join("alpha-v1.csqm"))
        .unwrap();
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 2,
        engine: EngineConfig::default(),
        tenant_quota: Some(csq_repro::serve::TenantQuota {
            rate_per_sec: 0.0,
            burst: 10.0,
        }),
    });
    router.deploy(reg.latest("alpha").unwrap()).unwrap();
    let alpha = toy_artifact("alpha", 0);

    let mut noisy_ok = 0;
    let mut noisy_limited = 0;
    for i in 0..25 {
        let opts = SubmitOptions::default().with_tenant("noisy");
        match router.submit("alpha", sample(i), opts) {
            Ok(t) => {
                let got = t.wait().unwrap();
                assert_eq!(got.data(), reference_row(&alpha, &sample(i)).as_slice());
                noisy_ok += 1;
            }
            Err(FleetError::Serve(ServeError::RateLimited { tenant })) => {
                assert_eq!(tenant, "noisy");
                noisy_limited += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!((noisy_ok, noisy_limited), (10, 15));
    // The polite tenant is untouched by the noisy one's exhaustion.
    for i in 0..10 {
        let opts = SubmitOptions::default().with_tenant("polite");
        let got = router
            .submit("alpha", sample(i), opts)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.data(), reference_row(&alpha, &sample(i)).as_slice());
    }
    // Tenantless traffic never touches a bucket, even an empty one.
    for i in 0..15 {
        let got = router.infer("alpha", sample(i)).unwrap();
        assert_eq!(got.data(), reference_row(&alpha, &sample(i)).as_slice());
    }
    let stats = FleetStats::collect(&router);
    assert_eq!((stats.router.rejected, stats.router.shed), (15, 0));
    let drops = &stats.router.tenants;
    assert_eq!(drops["noisy"].rejected, 15);
    assert!(!drops.contains_key("polite"));
    // Rollups carry both scopes: engine-observed completions and
    // router-level rejections.
    assert_eq!(stats.tenants["noisy"].completed, 10);
    assert_eq!(stats.router.rejected, 15);
    let snap = stats.to_metrics_snapshot();
    assert_eq!(snap.counters["fleet.router.tenant.noisy.rejected"], 15);
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing a group drops its engines outside the router's group lock:
/// a sibling model is served while the killed group's backlog is still
/// draining, and the answers it drains land in the fleet totals.
#[test]
fn sibling_model_serves_while_a_killed_group_drains() {
    let dir = temp_dir("drain");
    let n = 1024;
    wide_artifact("slow", n)
        .save(&dir.join("slow-v1.csqm"))
        .unwrap();
    let beta = toy_artifact("beta", 5);
    beta.save(&dir.join("beta-v1.csqm")).unwrap();
    let reg = ModelRegistry::scan(&dir).unwrap();
    let router = Router::new(FleetConfig {
        replicas_per_model: 1,
        engine: EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::ZERO,
            queue_capacity: 4096,
        },
        tenant_quota: None,
    });
    router.deploy(reg.latest("slow").unwrap()).unwrap();
    router.deploy(reg.latest("beta").unwrap()).unwrap();

    // Queue about two seconds of work on the slow model.
    let x = Tensor::from_vec(vec![0.5; n], &[n]);
    let forward = (0..3)
        .map(|_| {
            let t = Instant::now();
            router.infer("slow", x.clone()).unwrap();
            t.elapsed()
        })
        .min()
        .unwrap();
    let backlog = ((2.0 / forward.as_secs_f64()) as usize).clamp(64, 4000);
    let tickets: Vec<_> = (0..backlog)
        .map(|_| {
            router
                .submit("slow", x.clone(), SubmitOptions::default())
                .unwrap()
        })
        .collect();

    let drained = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for ticket in tickets {
                ticket.wait().expect("a killed group drains its queue");
            }
            drained.store(true, Ordering::SeqCst);
        });
        let killer = scope.spawn(|| router.kill_group("slow"));
        while router.replica_count("slow") != Some(0) {
            std::thread::yield_now();
        }
        let got = router.infer("beta", sample(1)).unwrap();
        assert_eq!(got.data(), reference_row(&beta, &sample(1)).as_slice());
        assert!(
            !drained.load(Ordering::SeqCst),
            "the sibling waited out the killed group's backlog"
        );
        assert_eq!(killer.join().unwrap(), Some(1));
    });
    let slow = &FleetStats::collect(&router).models["slow"];
    assert_eq!(slow.retired_replicas, 1);
    assert_eq!(
        slow.merged.completed,
        backlog as u64 + 3,
        "drained answers count"
    );
    assert_eq!(slow.merged.queue_depth, 0);
    std::fs::remove_dir_all(&dir).ok();
}
