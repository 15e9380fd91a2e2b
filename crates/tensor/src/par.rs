//! Deterministic data-parallel runtime built on scoped threads.
//!
//! Every hot loop in the workspace — matmul, im2col convolution, and the
//! per-element-per-bit gate forward/adjoint in `csq-core` — fans out
//! through this module. The design goal is *bit-exact determinism at any
//! thread count*, which the resume-equivalence guarantee of the trainer
//! depends on:
//!
//! 1. **Fixed partitions.** Work is split into chunks whose boundaries
//!    are a function of the problem shape only (see [`chunk_len`]),
//!    never of the thread count. Threads *steal* tasks dynamically from
//!    a shared atomic counter — scheduling is nondeterministic, but the
//!    task → data mapping is not.
//! 2. **Disjoint writes.** Each task owns a disjoint output range
//!    ([`par_chunks_mut`], [`SharedSliceMut`]), so no write order is
//!    observable.
//! 3. **In-order reduction.** Cross-task reductions collect one partial
//!    per task ([`par_map_collect`] returns them in task-index order)
//!    and fold them serially in ascending task order. Floating-point
//!    accumulation order is therefore identical whether the partials
//!    were computed by 1 thread or 64.
//!
//! The pool size comes from the `CSQ_THREADS` environment variable
//! (default: the machine's available parallelism) and can be overridden
//! for the current thread with [`with_threads`] — which is how the
//! determinism tests run the same training twice at different widths
//! inside one process.
//!
//! No new dependencies: workers are `std::thread::scope` threads spawned
//! per parallel region. Region granularity is controlled by sizing tasks
//! to at least [`TASK_WORK`] scalar operations, so tiny tensors never
//! pay a spawn.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolved global thread count; 0 until first use (then lazily
/// initialized from `CSQ_THREADS` / available parallelism).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = none.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn resolve_from_env() -> usize {
    std::env::var("CSQ_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_threads)
}

/// The worker-thread count parallel regions started from this thread
/// will use.
///
/// Resolution order: a [`with_threads`] override on the current thread,
/// then the global count, resolved on first use from the `CSQ_THREADS`
/// environment variable (default: the machine's available
/// parallelism). Always at least 1.
pub fn current_threads() -> usize {
    let over = THREAD_OVERRIDE.with(|c| c.get());
    if over != 0 {
        return over;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    let resolved = resolve_from_env();
    // Racing first calls may both resolve; they resolve identically.
    GLOBAL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Runs `f` with the thread count overridden to `n` on the current
/// thread (restored afterwards, even on panic). Parallel regions entered
/// inside `f` — including the branches of [`par_join`] — use `n`
/// workers. Because the runtime is deterministic, `f` computes
/// bit-identical results for every `n`; this is the hook the
/// 1-vs-4-thread equivalence tests use.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Target scalar operations per parallel task. Large enough that the
/// per-task scheduling cost (one atomic fetch-add) and the per-region
/// spawn cost are noise; small enough that dynamic stealing can balance
/// uneven progress.
pub const TASK_WORK: usize = 8192;

/// Chunk length (in items) such that one task covers at least
/// [`TASK_WORK`] scalar operations, given `work_per_item` operations per
/// item. Depends only on the problem shape — never on the thread count —
/// so chunked reductions are reproducible on any machine.
pub fn chunk_len(n_items: usize, work_per_item: usize) -> usize {
    let per = work_per_item.max(1);
    TASK_WORK.div_ceil(per).clamp(1, n_items.max(1))
}

/// Executes `f(task_index)` for every index in `0..n_tasks`, fanned out
/// over [`current_threads`] scoped workers. Tasks are claimed from an
/// atomic counter (dynamic load balancing); since each index maps to a
/// fixed piece of work, the claiming order is unobservable. Falls back
/// to a plain serial loop when one thread (or one task) suffices. A
/// panic in any task propagates after all workers have joined.
pub fn for_each_task<F>(n_tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if n_tasks == 0 {
        return;
    }
    let threads = current_threads().min(n_tasks);
    if threads <= 1 {
        for t in 0..n_tasks {
            f(t);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let work = move || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        if t >= n_tasks {
            break;
        }
        f(t);
    };
    // One region-level span (never per-task): while tracing is
    // disabled this is a single relaxed atomic load, and the task →
    // data mapping below is unaffected either way, so the determinism
    // contract holds with tracing on or off.
    let _region = csq_obs::span!(
        "par",
        "dispatch",
        "tasks" => n_tasks,
        "threads" => threads,
    );
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
}

/// Raw-pointer view of a mutable slice that tasks may carve disjoint
/// sub-slices from concurrently. The safe constructor borrows the slice
/// mutably for the view's lifetime, so no other access can exist; the
/// burden of disjointness is on [`slice_mut`](SharedSliceMut::slice_mut)
/// callers.
pub struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the view only hands out sub-slices through an `unsafe` method
// whose contract requires disjoint ranges; with that upheld, concurrent
// use from multiple threads is data-race free for T: Send.
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    /// Wraps `slice` for disjoint concurrent sub-slicing.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrows `start..start + len` mutably.
    ///
    /// # Safety
    ///
    /// Concurrent callers must request pairwise-disjoint ranges, and the
    /// range must lie within the slice (checked only in debug builds).
    // `&mut` out of `&self` is this type's entire purpose: the safe
    // constructor holds the unique borrow, and the safety contract above
    // makes concurrent sub-borrows disjoint.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len, "disjoint range out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Splits `data` into fixed chunks of `chunk` items and runs
/// `f(chunk_index, start_offset, chunk_slice)` for each, in parallel.
/// The last chunk may be short. Chunk boundaries depend only on
/// `data.len()` and `chunk`, so any cross-chunk reduction the caller
/// performs afterwards (in chunk order) is thread-count independent.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let n_tasks = len.div_ceil(chunk);
    let shared = SharedSliceMut::new(data);
    for_each_task(n_tasks, move |t| {
        let start = t * chunk;
        let clen = chunk.min(len - start);
        // SAFETY: task t owns exactly start..start+clen; tasks are
        // pairwise disjoint by construction.
        let s = unsafe { shared.slice_mut(start, clen) };
        f(t, start, s);
    });
}

struct SharedPtr<T>(*mut T);
// SAFETY: used only to write pairwise-distinct slots from distinct tasks.
unsafe impl<T: Send> Sync for SharedPtr<T> {}

/// Runs `f(task_index)` for every index in parallel and returns the
/// results **in task-index order** — the deterministic-reduction
/// primitive: fold the returned partials left-to-right and the
/// accumulation order matches a serial run exactly.
pub fn par_map_collect<T, F>(n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n_tasks);
    slots.resize_with(n_tasks, || None);
    let ptr = SharedPtr(slots.as_mut_ptr());
    let ptr = &ptr;
    for_each_task(n_tasks, move |t| {
        // SAFETY: each task index writes exactly one distinct slot, and
        // the Vec outlives the scoped region.
        unsafe { *ptr.0.add(t) = Some(f(t)) };
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index ran exactly once"))
        .collect()
}

/// Runs two independent closures, concurrently when more than one thread
/// is configured. The spawned branch inherits the caller's effective
/// thread count, so nested parallel regions behave identically either
/// way. Results are `(a, b)` regardless of which finished first.
pub fn par_join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    let threads = current_threads();
    if threads <= 1 {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    std::thread::scope(|s| {
        let handle = s.spawn(move || with_threads(threads, fb));
        let a = fa();
        let b = match handle.join() {
            Ok(b) => b,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (a, b)
    })
}

/// A reusable arena of scratch buffers, shared across parallel tasks
/// and across training steps.
///
/// Layers keep one pool alive for their whole lifetime so per-batch
/// workspaces (im2col column matrices, per-sample gradient partials) are
/// allocated once and recycled instead of reallocated every step. `take`
/// hands out a buffer of exactly the requested length with unspecified
/// contents; `take_zeroed` additionally resets every element to
/// `T::default()`; `give` returns a buffer for reuse. The pool is `Sync`
/// (a mutex guards the free list), and buffer identity never affects
/// results — only allocation traffic.
///
/// The element type defaults to `f32` (the training workspaces); the
/// serving path pools `u8` activation-code buffers through the same
/// type.
#[derive(Debug, Default)]
pub struct ScratchPool<T = f32> {
    bufs: Mutex<Vec<Vec<T>>>,
}

impl<T: Copy + Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    fn pop(&self) -> Vec<T> {
        match self.bufs.lock() {
            Ok(mut g) => g.pop().unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    /// A buffer of exactly `len` elements with **unspecified contents**
    /// (callers must fully overwrite it).
    pub fn take(&self, len: usize) -> Vec<T> {
        let mut buf = self.pop();
        buf.resize(len, T::default());
        buf
    }

    /// A buffer of exactly `len` default-valued (zero) elements.
    pub fn take_zeroed(&self, len: usize) -> Vec<T> {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&self, buf: Vec<T>) {
        if let Ok(mut g) = self.bufs.lock() {
            g.push(buf);
        }
    }

    /// Number of idle buffers currently pooled (diagnostics/tests).
    pub fn idle(&self) -> usize {
        self.bufs.lock().map(|g| g.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_threads_is_at_least_one() {
        assert!(current_threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, current_threads)
        });
        assert_eq!(outer, 7);
        // Override gone after the closures return.
        let over = THREAD_OVERRIDE.with(|c| c.get());
        assert_eq!(over, 0);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(with_threads(0, current_threads), 1);
    }

    #[test]
    fn chunk_len_is_shape_only_and_bounded() {
        assert_eq!(chunk_len(10, TASK_WORK), 1, "heavy items: one per task");
        assert_eq!(chunk_len(10, 1), 10, "light items: one chunk");
        assert_eq!(chunk_len(0, 5), 1, "degenerate: still positive");
        let big = chunk_len(1_000_000, 8);
        assert_eq!(big, TASK_WORK / 8);
    }

    #[test]
    fn for_each_task_visits_every_index_once() {
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
                for_each_task(37, |t| {
                    hits[t].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn par_chunks_mut_partitions_exactly() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let mut data = vec![0.0f32; 103];
                par_chunks_mut(&mut data, 10, |t, start, chunk| {
                    assert_eq!(start, t * 10);
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (start + i) as f32;
                    }
                });
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(v, i as f32);
                }
            });
        }
    }

    #[test]
    fn par_map_collect_returns_in_task_order() {
        for threads in [1, 2, 4] {
            let out = with_threads(threads, || par_map_collect(25, |t| t * t));
            assert_eq!(out, (0..25).map(|t| t * t).collect::<Vec<_>>());
        }
    }

    /// The determinism contract end to end: a chunked float reduction
    /// folded in task order is bit-identical at every thread count.
    #[test]
    fn chunked_reduction_is_bit_identical_across_thread_counts() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 * 1e-3 - 0.5)
            .collect();
        let chunk = 97; // shape-only choice, deliberately odd
        let reduce = || {
            let n_tasks = data.len().div_ceil(chunk);
            let partials = par_map_collect(n_tasks, |t| {
                let start = t * chunk;
                let end = (start + chunk).min(data.len());
                data[start..end].iter().fold(0.0f32, |a, &v| a + v * v)
            });
            partials.iter().fold(0.0f32, |a, &p| a + p)
        };
        let serial = with_threads(1, reduce);
        for threads in [2, 3, 4, 8] {
            let par = with_threads(threads, reduce);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn par_join_returns_both_in_order() {
        for threads in [1, 4] {
            let (a, b) = with_threads(threads, || par_join(|| 1 + 1, || "two"));
            assert_eq!((a, b), (2, "two"));
        }
    }

    #[test]
    fn par_join_propagates_thread_count_to_spawned_branch() {
        let inner = with_threads(4, || par_join(current_threads, current_threads));
        assert_eq!(inner, (4, 4));
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool: ScratchPool<f32> = ScratchPool::new();
        let b1 = pool.take(64);
        assert_eq!(b1.len(), 64);
        pool.give(b1);
        assert_eq!(pool.idle(), 1);
        let b2 = pool.take_zeroed(32);
        assert_eq!(b2.len(), 32);
        assert!(b2.iter().all(|&v| v == 0.0));
        assert_eq!(pool.idle(), 0, "reused the pooled buffer");
    }

    #[test]
    fn scratch_pool_is_generic_over_element_type() {
        let pool: ScratchPool<u8> = ScratchPool::new();
        let mut b = pool.take_zeroed(16);
        assert!(b.iter().all(|&v| v == 0));
        b[0] = 255;
        pool.give(b);
        let b2 = pool.take_zeroed(8);
        assert!(b2.iter().all(|&v| v == 0), "take_zeroed resets contents");
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                for_each_task(16, |t| {
                    if t == 7 {
                        panic!("task 7 failed");
                    }
                });
            })
        });
        assert!(result.is_err());
    }
}
