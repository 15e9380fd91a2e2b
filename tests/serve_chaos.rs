//! Deterministic serve-side chaos suite.
//!
//! Every test drives an [`Engine`] under a seeded [`ChaosPlan`] —
//! worker kills, batch poisoning, injected latency, artifact
//! corruption, overload bursts — and asserts the resilience contract:
//!
//! * every request the engine *accepts and answers* returns bits
//!   identical to the quiet-path (no chaos) engine;
//! * every request it cannot answer gets a **typed** [`ServeError`]
//!   (`WorkerFailed`, `DeadlineExceeded`, `QueueFull`, ...), never a
//!   hang and never a wrong answer;
//! * the engine itself survives: workers are restarted, poisoned
//!   batches fail alone, corrupted replacement models never reach the
//!   serving path.
//!
//! The chaos schedules are deterministic data (consumed-once entries
//! keyed by worker/batch ordinals), so these tests do not depend on
//! timing luck for *what* gets injected — only the batch composition
//! varies run to run, and the assertions are written to hold for any
//! composition.

use csq_repro::csq::fault::{flip_bit, ChaosPlan};
use csq_repro::csq::{PackedWeight, QuantScheme};
use csq_repro::nn::InferOp;
use csq_repro::serve::{
    CalibrationEntry, CompiledModel, Engine, EngineConfig, ModelArtifact, ServeError,
    SubmitOptions, CSQM_FORMAT_VERSION,
};
use csq_repro::tensor::par::ScratchPool;
use csq_repro::tensor::Tensor;
use std::path::PathBuf;
use std::time::Duration;

/// A hand-built single-linear-layer artifact (`in_features →
/// out_features`), no training required. `offset` shifts every weight
/// code so different offsets give bit-distinguishable model "versions".
fn linear_artifact(
    name: &str,
    in_features: usize,
    out_features: usize,
    offset: i32,
) -> ModelArtifact {
    let codes: Vec<i32> = (0..in_features * out_features)
        .map(|i| (i as i32 % 9) - 4 + offset)
        .collect();
    ModelArtifact {
        format_version: CSQM_FORMAT_VERSION,
        name: name.to_string(),
        input_dims: vec![in_features],
        num_classes: out_features,
        ops: vec![InferOp::Linear {
            weight: "w".to_string(),
            in_features,
            out_features,
            bias: Some((0..out_features).map(|o| o as f32 * 0.1 - 0.2).collect()),
        }],
        weights: vec![PackedWeight {
            path: "w".to_string(),
            codes,
            step: 0.05,
            dims: vec![out_features, in_features],
            bits: 8.0,
        }],
        scheme: QuantScheme {
            layers: vec![],
            avg_bits: 8.0,
            compression: 4.0,
        },
        calibration: vec![CalibrationEntry {
            weight_path: "w".to_string(),
            step: 0.01,
            observed_lo: 0.0,
            observed_hi: 2.55,
        }],
    }
}

fn tiny(offset: i32) -> CompiledModel {
    linear_artifact("tiny", 3, 2, offset).compile().unwrap()
}

fn sample(i: usize) -> Tensor {
    let base = (i % 8) as f32 * 0.25;
    Tensor::from_vec(vec![base, base + 0.3, base + 0.6], &[3])
}

/// Quiet-path reference: the logits row this model returns for `x`
/// served alone. Bit-determinism of the executor makes this THE answer
/// any chaos-surviving request must reproduce exactly.
fn reference_row(model: &CompiledModel, x: &Tensor) -> Vec<f32> {
    let scratch: ScratchPool<i16> = ScratchPool::new();
    let mut dims = vec![1];
    dims.extend_from_slice(x.dims());
    model
        .forward_batch(&x.reshape(&dims), &scratch)
        .expect("reference forward")
        .data()
        .to_vec()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csq_chaos_{name}_{}.csqm", std::process::id()))
}

/// The headline invariant: under a chaos schedule that kills the worker
/// twice and poisons a batch, every answered request is bit-identical
/// to the quiet path, every failed request carries a typed
/// `WorkerFailed`, the supervisor restarts the dead workers, and
/// retrying the failures on the recovered engine succeeds exactly.
#[test]
fn chaos_survivors_are_bit_identical_and_failures_are_typed() {
    let model = tiny(0);
    let refs: Vec<Vec<f32>> = (0..16).map(|i| reference_row(&model, &sample(i))).collect();

    // One worker, one-sample batches: request i is batch i of whichever
    // worker incarnation serves it. Kill the worker at its 2nd batch,
    // twice (ordinals restart at 0 after a restart, so the replacement
    // is killed at *its* 2nd batch too), and poison global batch 5.
    let chaos = ChaosPlan::new()
        .kill_worker_at(0, 1)
        .kill_worker_at(0, 1)
        .poison_batch_at(5)
        .delay_batch_at(2, Duration::from_millis(2));
    let engine = Engine::start_with_chaos(
        tiny(0),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            queue_capacity: 64,
        },
        chaos,
    );

    let tickets: Vec<_> = (0..16).map(|i| engine.submit(sample(i)).unwrap()).collect();
    let mut failed = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(row) => assert_eq!(row.data(), &refs[i][..], "request {i} answer changed bits"),
            Err(ServeError::WorkerFailed { .. }) => failed.push(i),
            Err(other) => panic!("request {i}: expected WorkerFailed, got {other}"),
        }
    }
    // Two kills take down one request each (their reply senders drop);
    // the poisoned batch fails its one request with a contained panic.
    assert_eq!(
        failed.len(),
        3,
        "exactly the injected faults fail: {failed:?}"
    );

    // The engine recovered: retry every failure and demand exact bits.
    for &i in &failed {
        let row = engine.infer(sample(i)).unwrap();
        assert_eq!(row.data(), &refs[i][..], "retry {i} answer changed bits");
    }

    let stats = engine.stats();
    assert_eq!(stats.worker_restarts, 2, "both kills must be supervised");
    assert_eq!(stats.panics_contained, 1, "poison is contained, not fatal");
    assert_eq!(stats.completed, 16, "13 first-pass + 3 retries");
    assert_eq!(stats.failed, 1, "only the poisoned batch records failed");
}

/// A poisoned batch fails only its own tickets: the worker survives
/// (zero restarts), later requests are answered exactly, and the panic
/// is visible in the stats.
#[test]
fn poisoned_batch_fails_alone_and_worker_survives() {
    let model = tiny(0);
    let engine = Engine::start_with_chaos(
        tiny(0),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            ..EngineConfig::default()
        },
        ChaosPlan::new().poison_batch_at(0),
    );
    let err = engine.infer(sample(0)).unwrap_err();
    match err {
        ServeError::WorkerFailed { detail } => {
            assert!(
                detail.contains("poisoned"),
                "detail names the cause: {detail}"
            )
        }
        other => panic!("expected WorkerFailed, got {other}"),
    }
    let row = engine.infer(sample(1)).unwrap();
    assert_eq!(row.data(), &reference_row(&model, &sample(1))[..]);
    let stats = engine.stats();
    assert_eq!(stats.panics_contained, 1);
    assert_eq!(stats.worker_restarts, 0, "containment means no restart");
    assert_eq!(stats.failed, 1);
}

/// Chaos-injected latency pushes a deadlined request past its budget:
/// the caller gets a typed `DeadlineExceeded` no later than the
/// deadline (never a hang), while an undeadlined request behind it is
/// simply served late — with exact bits.
#[test]
fn injected_latency_expires_deadlined_requests_with_typed_errors() {
    let model = tiny(0);
    let engine = Engine::start_with_chaos(
        tiny(0),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            ..EngineConfig::default()
        },
        ChaosPlan::new().delay_batch_at(0, Duration::from_millis(50)),
    );
    let hurried = engine
        .submit_with(
            sample(0),
            SubmitOptions::default().with_deadline(Duration::from_millis(5)),
        )
        .unwrap();
    let patient = engine.submit(sample(1)).unwrap();
    assert_eq!(hurried.wait().unwrap_err(), ServeError::DeadlineExceeded);
    let row = patient.wait().unwrap();
    assert_eq!(row.data(), &reference_row(&model, &sample(1))[..]);
    assert!(engine.stats().expired >= 1);
}

/// Hot-swap under live traffic: concurrent clients hammer the engine
/// while the model is swapped. Zero requests are dropped, every answer
/// is bit-identical to one of the two versions' quiet paths, and
/// post-swap requests run the new version.
#[test]
fn hot_swap_under_live_traffic_drops_nothing() {
    let model_a = tiny(0);
    let model_b = tiny(9);
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    let refs_a: Vec<Vec<f32>> = (0..8)
        .map(|i| reference_row(&model_a, &sample(i)))
        .collect();
    let refs_b: Vec<Vec<f32>> = (0..8)
        .map(|i| reference_row(&model_b, &sample(i)))
        .collect();

    let engine = Engine::start(
        tiny(0),
        EngineConfig {
            workers: 2,
            max_batch: 4,
            batch_window: Duration::from_millis(1),
            queue_capacity: 512,
        },
    );

    // An incompatible replacement (wrong input width) is refused up
    // front and must not disturb anything.
    let err = engine
        .swap_model(linear_artifact("fat", 5, 2, 0).compile().unwrap())
        .unwrap_err();
    assert!(matches!(err, ServeError::SwapIncompatible { .. }));
    assert_eq!(engine.model_version(), 1);

    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut rows = Vec::with_capacity(PER_CLIENT);
                    for r in 0..PER_CLIENT {
                        let i = (c + r) % 8;
                        rows.push((i, engine.infer(sample(i))));
                    }
                    rows
                })
            })
            .collect();
        // Let the clients get going, then flip the model mid-stream.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(engine.swap_model(tiny(9)).unwrap(), 2);
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect::<Vec<_>>()
    });

    assert_eq!(results.len(), CLIENTS * PER_CLIENT);
    for (i, result) in results {
        let row = result.unwrap_or_else(|e| panic!("request for sample {i} failed: {e}"));
        let bits = row.data();
        assert!(
            bits == &refs_a[i][..] || bits == &refs_b[i][..],
            "sample {i}: answer matches neither version's quiet path"
        );
    }
    // After the swap settles, everything runs the new version exactly.
    let i = 3;
    assert_eq!(engine.infer(sample(i)).unwrap().data(), &refs_b[i][..]);
    let stats = engine.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.model_version, 2);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.completed as usize, CLIENTS * PER_CLIENT + 1);
}

/// A replacement artifact corrupted in transit (chaos flips a payload
/// bit before the swap) fails the checksummed load and never reaches
/// the engine — the old version keeps serving, bit-exact.
#[test]
fn corrupted_replacement_artifact_never_reaches_the_engine() {
    let model_a = tiny(0);
    let engine = Engine::start(
        tiny(0),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );

    let path = temp_path("swap");
    linear_artifact("tiny", 3, 2, 9).save(&path).unwrap();
    let mut chaos = ChaosPlan::new().corrupt_artifact_at(64, 2);
    while let Some((byte, bit)) = chaos.take_artifact_flip() {
        flip_bit(&path, byte, bit).unwrap();
    }

    // The deploy pipeline: load (checksum verify) → compile → swap.
    // Corruption must be caught at the first step.
    let load = ModelArtifact::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(load.is_err(), "bit-flipped artifact must fail its checksum");

    assert_eq!(engine.model_version(), 1, "no swap happened");
    let row = engine.infer(sample(2)).unwrap();
    assert_eq!(row.data(), &reference_row(&model_a, &sample(2))[..]);
    assert_eq!(engine.stats().swaps, 0);
}

/// Overload bursts against a deliberately slow model and a tiny queue:
/// excess load is shed with typed `QueueFull`, the shed is counted (per
/// tenant too), and every request that *was* accepted still returns
/// exact bits — overload degrades capacity, never correctness.
#[test]
fn overload_bursts_shed_typed_and_accepted_work_stays_exact() {
    let n = 1024;
    let artifact = linear_artifact("wide", n, n, 0);
    let model = artifact.compile().unwrap();
    let x = Tensor::from_vec(vec![0.5; n], &[n]);
    let want = reference_row(&model, &x);

    let engine = Engine::start(
        artifact.compile().unwrap(),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            queue_capacity: 2,
        },
    );

    // The burst schedule lives in the chaos plan; the harness (this
    // loop) consumes it, playing the role of a misbehaving client.
    let mut chaos = ChaosPlan::new().burst_at(0, 16).burst_at(2, 16);
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for tick in 0..4u64 {
        let mut wave = 1; // steady background of one request per tick
        if let Some(extra) = chaos.take_burst(tick) {
            wave += extra;
        }
        for _ in 0..wave {
            let opts = SubmitOptions::default().with_tenant("burst");
            match engine.submit_with(x.clone(), opts) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(e) => panic!("overload must shed with QueueFull, got {e}"),
            }
        }
    }
    assert!(chaos.is_spent(), "both bursts fired");
    assert!(shed >= 1, "a 16-deep burst into a 2-slot queue must shed");

    let accepted = tickets.len() as u64;
    for ticket in tickets {
        let row = ticket.wait().unwrap();
        assert_eq!(
            row.data(),
            &want[..],
            "accepted request changed bits under overload"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, accepted);
    let tenant = &stats.tenants["burst"];
    assert_eq!(tenant.submitted, accepted);
    assert_eq!(tenant.shed, shed);
    assert_eq!(tenant.completed, accepted);
}

/// With tracing on, a chaos kill leaves a flight-recorder postmortem on
/// disk that names the killed worker, carries the failed batch's trace
/// ids (the same ids the caller sees on its [`Ticket`]s), and records
/// the supervisor restart — every line well-formed JSON.
#[test]
fn flight_recorder_postmortem_names_worker_trace_ids_and_restart() {
    // `scripts/check.sh` runs this drill with CSQ_POSTMORTEM_DIR set so
    // it can inspect the dump itself; standalone runs use a temp dir.
    let dir = std::env::var_os("CSQ_POSTMORTEM_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("csq_postmortem_{}", std::process::id()))
        });
    std::fs::create_dir_all(&dir).unwrap();
    csq_repro::obs::flight::set_postmortem_dir(Some(dir.clone()));
    csq_repro::obs::trace::set_enabled(true);

    let engine = Engine::start_with_chaos(
        tiny(0),
        EngineConfig {
            workers: 1,
            max_batch: 1,
            batch_window: Duration::from_millis(0),
            queue_capacity: 64,
        },
        ChaosPlan::new().kill_worker_at(0, 1),
    );
    let tickets: Vec<_> = (0..4).map(|i| engine.submit(sample(i)).unwrap()).collect();
    let mut failed_ids = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let id = ticket.trace_id();
        assert_ne!(id, 0, "every request gets a non-zero trace id");
        match ticket.wait() {
            Ok(_) => {}
            Err(ServeError::WorkerFailed { .. }) => failed_ids.push(id),
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    assert_eq!(failed_ids.len(), 1, "exactly the killed batch fails");
    // The engine answering again proves the supervisor restarted the
    // (only) worker — and the restart path dumps before respawning.
    engine.infer(sample(0)).unwrap();
    assert_eq!(engine.stats().worker_restarts, 1);
    csq_repro::obs::trace::set_enabled(false);
    csq_repro::obs::flight::set_postmortem_dir(None);

    // Find the postmortem that covers our failure. Other tests in this
    // binary share the process-global ring, so we search by our own
    // trace id rather than assuming a single file.
    let killed_id = failed_ids[0].to_string();
    let mut saw_kill = false;
    let mut saw_restart = false;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("postmortem-") || !name.ends_with(".jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header: serde_json::Value =
            serde_json::from_str(lines.next().expect("postmortem has a header")).unwrap();
        assert!(
            header.get("postmortem").is_some(),
            "header line names the dump reason: {header}"
        );
        for line in lines {
            let ev: serde_json::Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("bad JSONL line ({e}): {line}"));
            let ev_name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
            let field = |key: &str| -> Option<String> {
                ev.get("fields")
                    .and_then(|f| f.as_array())
                    .and_then(|fields| {
                        fields
                            .iter()
                            .find_map(|kv| match kv.as_array().map(Vec::as_slice) {
                                Some([k, v]) if k.as_str() == Some(key) => {
                                    Some(v.as_str().unwrap_or("").to_string())
                                }
                                _ => None,
                            })
                    })
            };
            if ev_name == "chaos_kill" {
                let ids = field("trace_ids").unwrap_or_default();
                if ids.split(',').any(|id| id == killed_id) {
                    assert_eq!(
                        field("worker").as_deref(),
                        Some("0"),
                        "kill names the worker"
                    );
                    saw_kill = true;
                }
            }
            if ev_name == "worker_restart" {
                saw_restart = true;
            }
        }
    }
    assert!(
        saw_kill,
        "a postmortem records the chaos kill with the failed trace id"
    );
    assert!(saw_restart, "a postmortem records the supervisor restart");
}

/// The seeded chaos generator is deterministic: two plans from the same
/// seed are equal, and a full drain of one leaves it spent. This is
/// what makes a chaos drill reproducible from a single logged seed.
#[test]
fn seeded_chaos_drills_replay_exactly() {
    let a = ChaosPlan::seeded(0xC5A0_5EED, 4, 64, 3, 3, Duration::from_millis(4));
    let b = ChaosPlan::seeded(0xC5A0_5EED, 4, 64, 3, 3, Duration::from_millis(4));
    assert_eq!(a, b, "same seed, same schedule");
    let c = ChaosPlan::seeded(0xC5A0_5EEE, 4, 64, 3, 3, Duration::from_millis(4));
    assert_ne!(a, c, "different seed, different schedule");

    // Run a seeded drill end to end: whatever the schedule injected,
    // the engine must answer-or-type every request and keep serving.
    let model = tiny(0);
    let engine = Engine::start_with_chaos(
        tiny(0),
        EngineConfig {
            workers: 2,
            max_batch: 2,
            batch_window: Duration::from_millis(1),
            queue_capacity: 128,
        },
        a,
    );
    let tickets: Vec<_> = (0..48).map(|i| engine.submit(sample(i)).unwrap()).collect();
    let mut retry = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            Ok(row) => assert_eq!(row.data(), &reference_row(&model, &sample(i))[..]),
            Err(ServeError::WorkerFailed { .. }) => retry.push(i),
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    for i in retry {
        let row = engine.infer(sample(i)).unwrap();
        assert_eq!(
            row.data(),
            &reference_row(&model, &sample(i))[..],
            "retry {i}"
        );
    }
}
