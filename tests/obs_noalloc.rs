//! The quiet-path contract of the tracing facade: while tracing is
//! disabled (the default null sink), `span!` and `event!` must cost one
//! relaxed atomic load and **zero heap allocations** — these macros sit
//! on the serve engine's submit and batch hot paths.
//!
//! A counting global allocator makes the claim checkable, which is why
//! this lives in its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; counting has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_span_and_event_macros_allocate_nothing() {
    csq_repro::obs::trace::set_enabled(false);

    // Warm up: first use may lazily initialize thread-locals.
    {
        let _g = csq_repro::obs::span!("warmup", "span", "k" => 0);
        csq_repro::obs::event!("warmup", "event", "k" => 0);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        // The exact macro shapes the engine hot path uses: spans with
        // formatted fields and instant events. Disabled, the field
        // expressions must not even be evaluated.
        let _g = csq_repro::obs::span!(
            "engine",
            "batch",
            "worker" => 0,
            "size" => i,
        );
        csq_repro::obs::event!("engine", "submit", "trace_id" => i);
        csq_repro::obs::event!("engine", "reply", "trace_id" => i, "outcome" => "completed");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled tracing macros must not allocate on the hot path"
    );
}
