//! Micro-batching inference engine with serve-side resilience.
//!
//! The engine serves one versioned [`CompiledModel`] (hot-swappable via
//! [`Engine::swap_model`]) across a supervised pool of worker threads.
//! Callers [`Engine::submit`] single samples into a bounded queue and
//! receive a [`Ticket`]; a worker pulls the oldest request, then keeps
//! the batch open for up to `batch_window` (or until `max_batch`
//! requests arrived), fuses the batch into one `[B, C, H, W]` tensor,
//! runs a single integer forward, and scatters the logit rows back to
//! the waiting tickets.
//!
//! Batching is *safe* here — not just statistically harmless — because
//! the executor is bit-deterministic with respect to batch composition:
//! calibrated activation grids are constants and every kernel processes
//! samples independently with a fixed accumulation order, so a fused
//! forward returns exactly the rows each request would have gotten
//! alone. Tests assert this equality bit-for-bit.
//!
//! Resilience is layered on four mechanisms:
//!
//! * **Deadlines + cancellation.** [`SubmitOptions::with_deadline`]
//!   bounds a request's total time in the system. Workers skip
//!   already-expired requests before running the kernel (answering them
//!   with [`ServeError::DeadlineExceeded`]) and [`Ticket::wait`] stops
//!   blocking the moment the deadline passes — a ticket can never hang
//!   past its budget.
//! * **Load shedding.** The bounded queue sheds with
//!   [`ServeError::QueueFull`] when it saturates. Shed and expired
//!   counts are in [`EngineStats`], with per-tenant breakdowns, and each
//!   request's outcome is recorded exactly once (see [`crate::metrics`]).
//!   Per-tenant quotas ([`TenantQuota`]) are enforced one layer up, by
//!   `csq-fleet`'s router; a single engine that needs them runs as a
//!   one-model, one-replica fleet.
//! * **Panic containment + supervision.** The kernel runs under
//!   `catch_unwind`, so a poisoned batch fails only its own tickets
//!   ([`ServeError::WorkerFailed`]) and the worker survives. If a
//!   worker thread dies anyway, a supervisor thread joins the corpse,
//!   restarts a replacement under the same id, and counts the restart;
//!   tickets of the batch that died observe `WorkerFailed` through the
//!   dropped reply channel instead of a hang.
//! * **Hot-swap.** [`Engine::swap_model`] atomically replaces the
//!   served model between batches. In-flight batches finish on the
//!   version they started with — no request is dropped — and the
//!   replacement must match the serving contract (input shape and
//!   class count), otherwise [`ServeError::SwapIncompatible`].
//!
//! Deterministic chaos (worker kills, batch poisoning, injected
//! latency) is driven by a seeded [`ChaosPlan`] via
//! [`Engine::start_with_chaos`]; `tests/serve_chaos.rs` asserts that
//! chaos never changes an answered request's bits and never turns an
//! error into a hang.

use crate::exec::{CompiledModel, ServeError};
use crate::metrics::{Account, EngineMetrics, EngineStats};
use csq_core::fault::ChaosPlan;
use csq_obs::registry::MetricsRegistry;
use csq_obs::{event, span};
use csq_tensor::par::{self, ScratchPool};
use csq_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Steady-state admission quota for one tenant: a token bucket holding
/// at most `burst` tokens, refilled at `rate_per_sec`, one token per
/// accepted request. `rate_per_sec = 0` makes the bucket a fixed
/// budget of `burst` requests (useful for deterministic tests).
/// `csq-fleet`'s router enforces it; the engine itself has no quotas.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Tokens added per second (sustained requests/second).
    pub rate_per_sec: f64,
    /// Bucket capacity (largest tolerated burst). Values below 1 admit
    /// nothing.
    pub burst: f64,
}

/// Per-request submission options; the default is no deadline and no
/// tenant (anonymous traffic).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Total time budget measured from submission. When it elapses the
    /// request is answered with [`ServeError::DeadlineExceeded`] —
    /// by a worker skipping the expired request, or by
    /// [`Ticket::wait`] giving up — whichever happens first.
    pub deadline: Option<Duration>,
    /// Tenant this request is accounted to: its per-tenant stats
    /// breakdown, and its quota when submitted through a fleet router.
    pub tenant: Option<String>,
}

impl SubmitOptions {
    /// Options with a deadline of `budget` from submission time.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> SubmitOptions {
        self.deadline = Some(budget);
        self
    }

    /// Options accounted to `tenant`.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> SubmitOptions {
        self.tenant = Some(tenant.into());
        self
    }
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads pulling batches off the queue (minimum 1).
    pub workers: usize,
    /// Largest number of requests fused into one forward (minimum 1).
    pub max_batch: usize,
    /// How long a worker holds a non-full batch open waiting for more
    /// requests before running it anyway.
    pub batch_window: Duration,
    /// Bounded queue size; submissions beyond this are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            queue_capacity: 256,
        }
    }
}

/// One pending request in the submission queue.
struct Request {
    input: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Shared with the [`Ticket`]: whichever side settles first records
    /// the outcome.
    account: Arc<Account>,
    /// Process-unique id propagated through trace events and surfaced
    /// on the caller's [`Ticket`].
    trace_id: u64,
    reply: mpsc::Sender<Result<Tensor, ServeError>>,
}

/// Comma-joined trace ids of a batch, for trace/postmortem payloads.
fn batch_trace_ids(requests: &[Request]) -> String {
    let mut out = String::new();
    for (i, r) in requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.trace_id.to_string());
    }
    out
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The versioned model container workers read through.
struct ModelSlot {
    version: u64,
    model: Arc<CompiledModel>,
}

/// State shared between the submission side, the workers, and the
/// supervisor.
struct Shared {
    /// Serving contract, fixed at start (swaps must match it).
    input_dims: Vec<usize>,
    model: RwLock<ModelSlot>,
    cfg: EngineConfig,
    queue: Mutex<VecDeque<Request>>,
    notify: Condvar,
    shutdown: AtomicBool,
    metrics: EngineMetrics,
    /// Global batch sequence number (keys chaos poison/delay entries).
    batch_seq: AtomicU64,
    /// Deterministic fault schedule, when running under chaos.
    chaos: Option<Mutex<ChaosPlan>>,
}

impl Shared {
    /// The model new batches will run against (in-flight batches keep
    /// the `Arc` they already cloned).
    fn current_model(&self) -> Arc<CompiledModel> {
        match self.model.read() {
            Ok(slot) => Arc::clone(&slot.model),
            Err(poisoned) => Arc::clone(&poisoned.into_inner().model),
        }
    }

    fn model_version(&self) -> u64 {
        match self.model.read() {
            Ok(slot) => slot.version,
            Err(poisoned) => poisoned.into_inner().version,
        }
    }
}

/// Locks the queue, recovering the guard if a worker panicked while
/// holding it (the queue itself is always in a consistent state).
fn lock_queue(shared: &Shared) -> MutexGuard<'_, VecDeque<Request>> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A handle for one in-flight request; redeem it with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<Tensor, ServeError>>,
    enqueued: Instant,
    deadline: Option<Instant>,
    tenant: Option<String>,
    account: Arc<Account>,
    trace_id: u64,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("trace_id", &self.trace_id)
            .field("tenant", &self.tenant)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the engine answers, returning the logits `[K]` for
    /// the submitted sample (or the error the request failed with).
    ///
    /// With a deadline, blocks *at most* until the deadline and then
    /// returns [`ServeError::DeadlineExceeded`] — unless a worker
    /// settled the request first, in which case its answer (already on
    /// the way) is returned. Without one, returns
    /// as soon as the engine answers; if the worker holding this
    /// request died, the dropped reply channel surfaces as
    /// [`ServeError::WorkerFailed`] — never a hang, and never
    /// misreported as a clean [`ServeError::Closed`] shutdown.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        let disconnected = || {
            Err(ServeError::WorkerFailed {
                detail: "reply channel disconnected (worker died mid-batch)".to_string(),
            })
        };
        match self.deadline {
            None => match self.rx.recv() {
                Ok(result) => result,
                Err(_) => disconnected(),
            },
            Some(deadline) => {
                let budget = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(budget) {
                    Ok(result) => result,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let expired = Err(ServeError::DeadlineExceeded);
                        let waited = self.enqueued.elapsed();
                        // The worker may have claimed the request just
                        // now; then its answer is already on the way.
                        if self.shared.metrics.settle(&self.account, &expired, waited) {
                            expired
                        } else {
                            self.rx.recv().unwrap_or_else(|_| disconnected())
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => disconnected(),
                }
            }
        }
    }

    /// Process-unique trace id of this request. Every trace event the
    /// request appears in (submit, batch, reply, chaos postmortems)
    /// carries the same id, so a caller can correlate its answer with
    /// the flight-recorder dump of a failure.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }
}

/// A running micro-batching inference engine over one compiled model.
///
/// Dropping the engine shuts it down: workers drain the queue, answer
/// everything still pending, and are joined (via the supervisor) before
/// `drop` returns.
pub struct Engine {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts worker threads over `model` with the given configuration
    /// (zero-valued knobs are normalized up to 1).
    pub fn start(model: CompiledModel, cfg: EngineConfig) -> Engine {
        Engine::start_inner(model, cfg, None)
    }

    /// Starts an engine that consults a deterministic [`ChaosPlan`] at
    /// batch boundaries (worker kills, batch poisoning, injected
    /// latency). Production code wants [`Engine::start`]; this is the
    /// entry point for resilience tests and chaos drills.
    pub fn start_with_chaos(model: CompiledModel, cfg: EngineConfig, chaos: ChaosPlan) -> Engine {
        Engine::start_inner(model, cfg, Some(chaos))
    }

    fn start_inner(model: CompiledModel, cfg: EngineConfig, chaos: Option<ChaosPlan>) -> Engine {
        let cfg = EngineConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            batch_window: cfg.batch_window,
            queue_capacity: cfg.queue_capacity.max(1),
        };
        let shared = Arc::new(Shared {
            input_dims: model.input_dims().to_vec(),
            metrics: EngineMetrics::new(cfg.max_batch),
            model: RwLock::new(ModelSlot {
                version: 1,
                model: Arc::new(model),
            }),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch_seq: AtomicU64::new(0),
            chaos: chaos.map(Mutex::new),
        });
        let (exit_tx, exit_rx) = mpsc::channel();
        let handles: Vec<Option<JoinHandle<()>>> = (0..shared.cfg.workers)
            .map(|id| Some(spawn_worker(Arc::clone(&shared), id, exit_tx.clone())))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared, &exit_rx, &exit_tx, handles))
        };
        Engine {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueues one sample (shape = the model's per-sample
    /// [`CompiledModel::input_dims`], no batch axis) with default
    /// options (no deadline, no tenant) and returns a [`Ticket`] to
    /// redeem for its logits.
    ///
    /// Fails fast with [`ServeError::BadInput`] on a shape mismatch and
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity.
    pub fn submit(&self, input: Tensor) -> Result<Ticket, ServeError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// Enqueues one sample with explicit [`SubmitOptions`] (deadline,
    /// tenant); fails like [`Engine::submit`].
    pub fn submit_with(&self, input: Tensor, opts: SubmitOptions) -> Result<Ticket, ServeError> {
        if input.dims() != self.shared.input_dims {
            return Err(ServeError::BadInput {
                expected: self.shared.input_dims.clone(),
                actual: input.dims().to_vec(),
            });
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        let enqueued = Instant::now();
        let metrics = &self.shared.metrics;
        let tenant = opts.tenant.as_deref().map(|t| metrics.tenant(t));
        let deadline = opts.deadline.and_then(|d| enqueued.checked_add(d));
        let trace_id = csq_obs::trace::next_trace_id();
        let (tx, rx) = mpsc::channel();
        let account = {
            let mut queue = lock_queue(&self.shared);
            if queue.len() >= self.shared.cfg.queue_capacity {
                metrics.shed(tenant.as_deref());
                return Err(ServeError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                });
            }
            let account = metrics.submitted(tenant);
            queue.push_back(Request {
                input,
                enqueued,
                deadline,
                account: Arc::clone(&account),
                trace_id,
                reply: tx,
            });
            account
        };
        self.shared.notify.notify_one();
        event!(
            "engine",
            "submit",
            "trace_id" => trace_id,
            "tenant" => opts.tenant.as_deref().unwrap_or("-"),
        );
        Ok(Ticket {
            rx,
            enqueued,
            deadline,
            tenant: opts.tenant,
            account,
            trace_id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Convenience blocking call: [`Engine::submit`] + [`Ticket::wait`].
    pub fn infer(&self, input: Tensor) -> Result<Tensor, ServeError> {
        self.submit(input)?.wait()
    }

    /// The compiled model new batches run against.
    pub fn model(&self) -> Arc<CompiledModel> {
        self.shared.current_model()
    }

    /// Version of the currently served model (starts at 1; each
    /// successful [`Engine::swap_model`] bumps it).
    pub fn model_version(&self) -> u64 {
        self.shared.model_version()
    }

    /// The per-sample input shape this engine's serving contract is
    /// fixed to (swaps must match it).
    pub fn input_dims(&self) -> &[usize] {
        &self.shared.input_dims
    }

    /// Requests currently waiting in the bounded queue. A cheap load
    /// signal for routers choosing between replicas.
    pub fn queue_len(&self) -> usize {
        lock_queue(&self.shared).len()
    }

    /// Atomically replaces the served model under live traffic,
    /// returning the new version.
    ///
    /// The swap happens *between* batches: requests already fused into
    /// a forward finish on the model version they started with, queued
    /// requests run on the replacement — no in-flight request is
    /// dropped. The replacement must match the serving contract (input
    /// shape and class count) or the swap is refused with
    /// [`ServeError::SwapIncompatible`] and the old model keeps
    /// serving.
    pub fn swap_model(&self, model: CompiledModel) -> Result<u64, ServeError> {
        let mut slot = match self.shared.model.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let compatible = model.input_dims() == self.shared.input_dims
            && model.num_classes() == slot.model.num_classes();
        if !compatible {
            return Err(ServeError::SwapIncompatible {
                expected: (self.shared.input_dims.clone(), slot.model.num_classes()),
                actual: (model.input_dims().to_vec(), model.num_classes()),
            });
        }
        slot.version += 1;
        slot.model = Arc::new(model);
        self.shared.metrics.swaps.inc();
        self.shared.metrics.model_version.set(slot.version as i64);
        Ok(slot.version)
    }

    /// Snapshot of the serving metrics.
    pub fn stats(&self) -> EngineStats {
        EngineStats::from_snapshot(&self.shared.metrics.registry().snapshot())
    }

    /// The registry holding this engine's metrics. It outlives the
    /// engine, so a holder still sees the answers a dropped engine
    /// drains.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.shared.metrics.registry()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

/// Messages workers send the supervisor when their thread ends.
struct WorkerExit {
    id: usize,
    panicked: bool,
}

/// Spawns one worker thread. The whole worker loop runs under
/// `catch_unwind` so an abrupt death (a panic that escaped batch-level
/// containment, e.g. a chaos kill) is reported to the supervisor
/// instead of silently shrinking the pool.
fn spawn_worker(shared: Arc<Shared>, id: usize, exits: mpsc::Sender<WorkerExit>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, id)));
        let _ = exits.send(WorkerExit {
            id,
            panicked: outcome.is_err(),
        });
    })
}

/// Joins dead workers and restarts the ones that panicked (unless the
/// engine is shutting down), keeping the pool at full strength. Exits
/// once every worker has ended without needing a replacement.
fn supervisor_loop(
    shared: &Arc<Shared>,
    exit_rx: &mpsc::Receiver<WorkerExit>,
    exit_tx: &mpsc::Sender<WorkerExit>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    let mut alive = handles.iter().filter(|h| h.is_some()).count();
    while alive > 0 {
        let exit = match exit_rx.recv() {
            Ok(exit) => exit,
            Err(_) => break,
        };
        if let Some(handle) = handles.get_mut(exit.id).and_then(Option::take) {
            let _ = handle.join();
        }
        if exit.panicked && !shared.shutdown.load(Ordering::Acquire) {
            shared.metrics.worker_restarts.inc();
            event!("engine", "worker_restart", "worker" => exit.id);
            let _ = csq_obs::flight::dump_global("worker_restart");
            if let Some(slot) = handles.get_mut(exit.id) {
                *slot = Some(spawn_worker(Arc::clone(shared), exit.id, exit_tx.clone()));
            }
        } else {
            alive -= 1;
        }
    }
    // A restart racing shutdown can leave stragglers; join them all.
    for handle in handles.iter_mut().filter_map(Option::take) {
        let _ = handle.join();
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let scratch: ScratchPool<i16> = ScratchPool::new();
    // Per-worker batch ordinal; restarts count from 0 again, which is
    // what keys ChaosPlan worker-kill entries deterministically.
    let mut ordinal: u64 = 0;
    while let Some(batch) = collect_batch(shared) {
        run_batch(shared, worker, ordinal, batch, &scratch);
        ordinal += 1;
    }
}

/// Pops the oldest request, then holds the batch open until it is full,
/// the batch window elapses, or shutdown begins. Returns `None` only at
/// shutdown with an empty queue, so pending requests are always drained.
fn collect_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut queue = lock_queue(shared);
    loop {
        if let Some(first) = queue.pop_front() {
            let mut batch = vec![first];
            let deadline = Instant::now() + shared.cfg.batch_window;
            while batch.len() < shared.cfg.max_batch {
                if let Some(next) = queue.pop_front() {
                    batch.push(next);
                    continue;
                }
                let now = Instant::now();
                if now >= deadline || shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let (guard, _timed_out) = match shared.notify.wait_timeout(queue, deadline - now) {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                queue = guard;
            }
            return Some(batch);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        queue = match shared.notify.wait(queue) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
}

/// Best-effort human-readable description of a panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Skips expired requests, fuses the rest into one tensor, runs a
/// single forward under panic containment, and scatters the logit rows
/// back to the tickets.
fn run_batch(
    shared: &Shared,
    worker: usize,
    ordinal: u64,
    batch: Vec<Request>,
    scratch: &ScratchPool<i16>,
) {
    let global = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    shared.metrics.queue_depth.add(-(batch.len() as i64));
    let _batch_span = span!(
        "engine",
        "batch",
        "worker" => worker,
        "ordinal" => ordinal,
        "global" => global,
        "size" => batch.len(),
        "trace_ids" => batch_trace_ids(&batch),
    );

    // Deterministic chaos, consulted once per batch. A kill unwinds
    // *outside* the containment boundary below: the batch's reply
    // senders drop, its tickets observe `WorkerFailed`, and the
    // supervisor restarts the worker.
    let mut poisoned = false;
    if let Some(chaos) = &shared.chaos {
        let (kill, delay, poison) = {
            let mut plan = match chaos.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            (
                plan.take_worker_kill(worker, ordinal),
                plan.take_batch_delay(global),
                plan.take_batch_poison(global),
            )
        };
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        if kill {
            event!(
                "engine",
                "chaos_kill",
                "worker" => worker,
                "ordinal" => ordinal,
                "global" => global,
                "trace_ids" => batch_trace_ids(&batch),
            );
            resume_unwind(Box::new(format!(
                "chaos: worker {worker} killed at its batch {ordinal}"
            )));
        }
        poisoned = poison;
    }

    // Deadline pass: a request that already ran out of time gets its
    // typed error now instead of wasting kernel work.
    let now = Instant::now();
    let (live, expired): (Vec<Request>, Vec<Request>) =
        batch.into_iter().partition(|r| !r.expired(now));
    for request in expired {
        reply(shared, request, Err(ServeError::DeadlineExceeded));
    }
    if live.is_empty() {
        return;
    }

    shared.metrics.batch(live.len());
    // Batches pin the model Arc they start with: a concurrent swap
    // changes what *later* batches run, never this one.
    let model = shared.current_model();
    let per_sample: usize = model.input_dims().iter().product();
    let mut data = Vec::with_capacity(live.len() * per_sample);
    for request in &live {
        data.extend_from_slice(request.input.data());
    }
    let mut dims = Vec::with_capacity(model.input_dims().len() + 1);
    dims.push(live.len());
    dims.extend_from_slice(model.input_dims());
    let x = Tensor::from_vec(data, &dims);

    // Containment boundary: a panicking kernel (or chaos poison) fails
    // only this batch's tickets; the worker thread survives.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if poisoned {
            resume_unwind(Box::new(format!("chaos: poisoned batch {global}")));
        }
        // One thread per fused forward: the workers are the parallelism.
        par::with_threads(1, || model.forward_batch(&x, scratch))
    }));
    match outcome {
        Ok(Ok(y)) => {
            let k = model.num_classes();
            for (i, request) in live.into_iter().enumerate() {
                let row = Tensor::from_vec(y.data()[i * k..(i + 1) * k].to_vec(), &[k]);
                reply(shared, request, Ok(row));
            }
        }
        Ok(Err(e)) => {
            for request in live {
                reply(shared, request, Err(e.clone()));
            }
        }
        Err(payload) => {
            shared.metrics.panics_contained.inc();
            let detail = panic_detail(payload.as_ref());
            event!(
                "engine",
                "panic_contained",
                "worker" => worker,
                "global" => global,
                "detail" => detail,
                "trace_ids" => batch_trace_ids(&live),
            );
            for request in live {
                let detail = detail.clone();
                reply(shared, request, Err(ServeError::WorkerFailed { detail }));
            }
            let _ = csq_obs::flight::dump_global("panic_contained");
        }
    }
}

/// Settles `request` with `result` and answers its ticket, unless the
/// ticket's deadline already expired it. The outcome is recorded
/// *before* the reply: a caller woken by [`Ticket::wait`] must see its
/// own request in the stats. A dropped ticket just discards the answer;
/// the request still counts.
fn reply(shared: &Shared, request: Request, result: Result<Tensor, ServeError>) {
    let outcome = match &result {
        Ok(_) => "completed",
        Err(ServeError::DeadlineExceeded) => "expired",
        Err(_) => "failed",
    };
    let latency = request.enqueued.elapsed();
    let settled = shared.metrics.settle(&request.account, &result, latency);
    if settled {
        let _ = request.reply.send(result);
    }
    event!(
        "engine",
        "reply",
        "trace_id" => request.trace_id,
        "outcome" => if settled { outcome } else { "expired" },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::step_table;
    use crate::CalibrationEntry;
    use csq_core::PackedWeight;
    use csq_nn::InferOp;

    /// A tiny 3→2 linear model with a fixed calibrated grid, built
    /// without any training-side machinery. `offset` shifts every
    /// weight code, giving distinguishable model "versions" for swap
    /// tests.
    fn tiny_model_with(offset: i32) -> CompiledModel {
        let weight = PackedWeight {
            path: "weight".to_string(),
            codes: vec![10, -20, 30, -40, 50, -60]
                .into_iter()
                .map(|c| c + offset)
                .collect(),
            step: 0.05,
            dims: vec![2, 3],
            bits: 8.0,
        };
        let ops = vec![InferOp::Linear {
            weight: "weight".to_string(),
            in_features: 3,
            out_features: 2,
            bias: Some(vec![0.25, -0.25]),
        }];
        let calibration = vec![CalibrationEntry {
            weight_path: "weight".to_string(),
            step: 0.01,
            observed_lo: 0.0,
            observed_hi: 2.55,
        }];
        CompiledModel::bind(
            "tiny".to_string(),
            vec![3],
            2,
            &ops,
            &[weight],
            Some(&step_table(&calibration)),
        )
        .unwrap()
    }

    fn tiny_model() -> CompiledModel {
        tiny_model_with(0)
    }

    fn sample(seed: usize) -> Tensor {
        let base = seed as f32 * 0.07;
        Tensor::from_vec(vec![base, base + 0.5, base + 1.0], &[3])
    }

    #[test]
    fn engine_answers_match_direct_single_sample_forwards() {
        let reference = tiny_model();
        let scratch: ScratchPool<i16> = ScratchPool::new();
        let engine = Engine::start(
            tiny_model(),
            EngineConfig {
                workers: 2,
                max_batch: 4,
                batch_window: Duration::from_millis(5),
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..12).map(|i| engine.submit(sample(i)).unwrap()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().unwrap();
            let single = sample(i).reshape(&[1, 3]);
            let want = reference.forward_batch(&single, &scratch).unwrap();
            assert_eq!(got.data(), want.data(), "request {i}");
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.completed, 12);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.model_version, 1);
        let served: u64 = stats
            .batch_hist
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        assert_eq!(served, 12);
    }

    #[test]
    fn bad_shapes_are_rejected_at_submission() {
        let engine = Engine::start(tiny_model(), EngineConfig::default());
        let err = engine.submit(Tensor::zeros(&[4])).unwrap_err();
        assert!(matches!(err, ServeError::BadInput { .. }));
    }

    #[test]
    fn drop_drains_pending_requests() {
        let engine = Engine::start(
            tiny_model(),
            EngineConfig {
                workers: 1,
                max_batch: 2,
                batch_window: Duration::from_millis(1),
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..6).map(|i| engine.submit(sample(i)).unwrap()).collect();
        drop(engine);
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "pending work must be drained");
        }
    }

    /// A deliberately expensive `n → n` linear model: one forward costs
    /// `n²` integer MACs, so a lone worker drains far slower than a
    /// tight submission loop can flood.
    fn wide_model(n: usize) -> CompiledModel {
        let codes: Vec<i32> = (0..n * n).map(|i| (i % 17) as i32 - 8).collect();
        let weight = PackedWeight {
            path: "weight".to_string(),
            codes,
            step: 0.01,
            dims: vec![n, n],
            bits: 8.0,
        };
        let ops = vec![InferOp::Linear {
            weight: "weight".to_string(),
            in_features: n,
            out_features: n,
            bias: None,
        }];
        let calibration = vec![CalibrationEntry {
            weight_path: "weight".to_string(),
            step: 0.01,
            observed_lo: 0.0,
            observed_hi: 2.55,
        }];
        CompiledModel::bind(
            "wide".to_string(),
            vec![n],
            n,
            &ops,
            &[weight],
            Some(&step_table(&calibration)),
        )
        .unwrap()
    }

    #[test]
    fn queue_capacity_is_enforced_and_counted_as_shed() {
        // One worker running one-sample batches of a ~1M-MAC forward:
        // the flood below finishes submitting long before the worker can
        // drain three requests, so the bounded queue must overflow.
        let n = 1024;
        let engine = Engine::start(
            wide_model(n),
            EngineConfig {
                workers: 1,
                max_batch: 1,
                batch_window: Duration::from_millis(0),
                queue_capacity: 2,
            },
        );
        let mut tickets = Vec::new();
        let mut saw_full = false;
        for _ in 0..64 {
            match engine.submit(Tensor::from_vec(vec![0.5; n], &[n])) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_full, "bounded queue never filled");
        assert!(engine.stats().shed >= 1);
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    }

    #[test]
    fn engine_survives_queue_lock_poisoning() {
        let reference = tiny_model();
        let scratch: ScratchPool<i16> = ScratchPool::new();
        let engine = Engine::start(
            tiny_model(),
            EngineConfig {
                workers: 1,
                batch_window: Duration::from_millis(1),
                ..EngineConfig::default()
            },
        );
        // Poison the queue mutex: panic (quietly, via resume_unwind)
        // while holding the guard.
        let shared = Arc::clone(&engine.shared);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = shared.queue.lock().unwrap();
            resume_unwind(Box::new("poisoning the queue lock"));
        }));
        assert!(shared.queue.lock().is_err(), "mutex must now be poisoned");
        // Both the submit path and the worker path must recover the
        // guard and keep serving.
        let got = engine.infer(sample(3)).unwrap();
        let want = reference
            .forward_batch(&sample(3).reshape(&[1, 3]), &scratch)
            .unwrap();
        assert_eq!(got.data(), want.data());
        drop(engine);
    }

    #[test]
    fn zero_deadline_expires_with_typed_error() {
        let engine = Engine::start(
            tiny_model(),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit_with(
                sample(0),
                SubmitOptions::default().with_deadline(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        // The expiry is recorded once, by whichever of the waiter and
        // the worker's deadline pass settled the request.
        assert_eq!(engine.stats().expired, 1);
        // A fresh request without a deadline still gets served.
        assert!(engine.infer(sample(1)).is_ok());
    }

    /// A request whose deadline passes while its batch is held in the
    /// worker is settled once — expired by its waiter or by the worker's
    /// deadline pass, never also completed — so once the engine is quiet
    /// the outcomes add up to what was submitted, and match what the
    /// callers were told. The chaos plan holds every second batch for
    /// five times its request's budget, so exactly those requests expire
    /// however fast the host runs; the others carry no deadline.
    #[test]
    fn deadline_passing_mid_forward_settles_exactly_once() {
        let budget = Duration::from_millis(20);
        let held = [1usize, 3, 5, 7];
        let chaos = held.iter().fold(ChaosPlan::new(), |plan, &b| {
            plan.delay_batch_at(b as u64, 5 * budget)
        });
        let engine = Engine::start_with_chaos(
            tiny_model(),
            EngineConfig {
                workers: 1,
                max_batch: 1,
                batch_window: Duration::ZERO,
                ..EngineConfig::default()
            },
            chaos,
        );
        // One worker and one-request batches: request `i` is batch `i`.
        let mut expired = 0;
        for i in 0..8 {
            let opts = if held.contains(&i) {
                SubmitOptions::default().with_deadline(budget)
            } else {
                SubmitOptions::default()
            };
            match engine.submit_with(sample(i), opts).unwrap().wait() {
                Ok(_) => assert!(!held.contains(&i), "held request {i} completed"),
                Err(ServeError::DeadlineExceeded) => {
                    assert!(held.contains(&i), "request {i} expired without a deadline");
                    expired += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(expired, held.len());
        let registry = engine.registry();
        drop(engine);
        let s = EngineStats::from_snapshot(&registry.snapshot());
        assert_eq!(s.submitted, 8);
        assert_eq!(s.completed + s.expired + s.failed, s.submitted);
        assert_eq!((s.completed, s.expired), (4, 4));
    }

    /// The fleet view of a single replica is the replica's own view,
    /// field for field — `avg_batch` included, which counts the
    /// requests a poisoned batch served although none completed.
    #[test]
    fn merging_one_replica_is_the_identity() {
        let engine = Engine::start_with_chaos(
            tiny_model(),
            EngineConfig {
                workers: 1,
                max_batch: 4,
                batch_window: Duration::from_millis(20),
                ..EngineConfig::default()
            },
            ChaosPlan::new().poison_batch_at(0),
        );
        let opts = SubmitOptions::default().with_tenant("a.b");
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| engine.submit_with(sample(i), opts.clone()).unwrap())
            .collect();
        let failed = tickets.into_iter().filter_map(|t| t.wait().err()).count();
        let own = engine.stats();
        assert_eq!(own.failed as usize, failed);
        assert!(failed > 0 && own.avg_batch >= 1.0, "{own:?}");
        let merged = crate::metrics::merge_replicas([engine.registry().snapshot()]);
        assert_eq!(EngineStats::from_snapshot(&merged), own);
    }

    /// Satellite drill: hot-swap while several threads are submitting
    /// flat out. No request may hang, none may observe `Closed` (the
    /// engine never shut down), every answer must be bit-identical to
    /// one of the two versions' single-request answers, and once the
    /// swap has happened new submissions must serve the new model.
    #[test]
    fn swap_under_concurrent_submission_load_is_safe() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50;
        const SAMPLES: usize = 8;
        let scratch: ScratchPool<i16> = ScratchPool::new();
        let reference = |offset: i32| -> Vec<Vec<f32>> {
            let model = tiny_model_with(offset);
            (0..SAMPLES)
                .map(|i| {
                    model
                        .forward_batch(&sample(i).reshape(&[1, 3]), &scratch)
                        .unwrap()
                        .data()
                        .to_vec()
                })
                .collect()
        };
        let want_v1 = reference(0);
        let want_v2 = reference(7);

        let engine = Engine::start(
            tiny_model_with(0),
            EngineConfig {
                workers: 2,
                max_batch: 4,
                batch_window: Duration::from_millis(1),
                queue_capacity: 4096,
            },
        );
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let engine = &engine;
                let want_v1 = &want_v1;
                let want_v2 = &want_v2;
                s.spawn(move || {
                    for k in 0..PER_THREAD {
                        let i = (t + k) % SAMPLES;
                        let got = engine
                            .infer(sample(i))
                            .unwrap_or_else(|e| panic!("request {t}/{k} failed mid-swap: {e}"));
                        assert!(
                            got.data() == &want_v1[i][..] || got.data() == &want_v2[i][..],
                            "thread {t} request {k}: answer matches neither version"
                        );
                    }
                });
            }
            // Swap mid-stream, while the submitters above are running.
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(engine.swap_model(tiny_model_with(7)).unwrap(), 2);
        });
        // Post-swap, answers must match the new model's single-request
        // path exactly.
        for (i, want) in want_v2.iter().enumerate() {
            let got = engine.infer(sample(i)).unwrap();
            assert_eq!(got.data(), &want[..], "post-swap sample {i}");
        }
        let stats = engine.stats();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.model_version, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(
            stats.completed,
            (THREADS * PER_THREAD + SAMPLES) as u64,
            "every submitted request must have been answered"
        );
    }

    #[test]
    fn swap_model_serves_new_version_and_validates_contract() {
        let scratch: ScratchPool<i16> = ScratchPool::new();
        let engine = Engine::start(
            tiny_model(),
            EngineConfig {
                workers: 1,
                batch_window: Duration::from_millis(1),
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.model_version(), 1);
        let before = engine.infer(sample(2)).unwrap();
        let want_before = tiny_model()
            .forward_batch(&sample(2).reshape(&[1, 3]), &scratch)
            .unwrap();
        assert_eq!(before.data(), want_before.data());

        // Incompatible replacement (4→4) is refused; v1 keeps serving.
        let err = engine.swap_model(wide_model(4)).unwrap_err();
        assert!(matches!(err, ServeError::SwapIncompatible { .. }));
        assert_eq!(engine.model_version(), 1);

        // Compatible replacement flips atomically to v2.
        assert_eq!(engine.swap_model(tiny_model_with(7)).unwrap(), 2);
        assert_eq!(engine.model_version(), 2);
        let after = engine.infer(sample(2)).unwrap();
        let want_after = tiny_model_with(7)
            .forward_batch(&sample(2).reshape(&[1, 3]), &scratch)
            .unwrap();
        assert_eq!(after.data(), want_after.data());
        assert_eq!(engine.stats().swaps, 1);
        assert_eq!(engine.stats().model_version, 2);
    }
}
