//! Zero-dependency structured span tracing.
//!
//! The [`span!`](crate::span) / [`event!`](crate::event) macros are a
//! facade over a process-wide dispatcher. When tracing is **disabled**
//! (the default) the macros cost one relaxed atomic load and allocate
//! nothing — field expressions are not even evaluated — so the serve
//! and training hot paths keep their quiet-path throughput and
//! bit-exactness. When **enabled** (via `CSQ_TRACE` or
//! [`set_enabled`]) every event carries a monotonic microsecond
//! timestamp, a small per-process thread ordinal, and the current
//! per-thread span depth; events always feed the in-memory
//! [flight recorder](crate::flight) and optionally an installed
//! [`TraceSink`] (e.g. a JSONL file).
//!
//! `CSQ_TRACE` values: unset or `0` → disabled; `1` or `ring` →
//! enabled, ring buffer only; any other value is treated as a file
//! path and events are appended there as JSON lines.

use serde::Serialize;
use std::cell::Cell;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[serde(tag = "kind")]
pub enum EventKind {
    /// A span was entered.
    Enter,
    /// A span was exited after `dur_us` microseconds.
    Exit {
        /// Wall time spent inside the span, in microseconds.
        dur_us: u64,
    },
    /// A point-in-time event with no duration.
    Instant,
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Microseconds since the process-wide trace clock started.
    pub ts_us: u64,
    /// Small per-process ordinal of the emitting thread.
    pub thread: u64,
    /// Span nesting depth on the emitting thread at emission time.
    pub depth: usize,
    /// Enter / Exit / Instant.
    #[serde(flatten)]
    pub kind: EventKind,
    /// Subsystem that emitted the event (e.g. `engine`, `trainer`).
    pub target: String,
    /// Event or span name (e.g. `batch`, `epoch`).
    pub name: String,
    /// Structured key/value payload.
    pub fields: Vec<(String, String)>,
}

/// Receives every trace event when tracing is enabled. Implementations
/// must be cheap and must never panic across the boundary.
pub trait TraceSink: Send + Sync {
    /// Called once per event, possibly from many threads.
    fn record(&self, event: &TraceEvent);
}

/// A [`TraceSink`] that appends one JSON object per line to a file.
#[derive(Debug)]
pub struct JsonlSink {
    file: Mutex<std::fs::File>,
}

impl JsonlSink {
    /// Opens (creating / appending) `path` for event output.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            file: Mutex::new(file),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            let _ = writeln!(file, "{line}");
        }
    }
}

// 0 = uninitialized (consult CSQ_TRACE), 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

static SINK: RwLock<Option<Box<dyn TraceSink>>> = RwLock::new(None);

static TRACE_IDS: AtomicU64 = AtomicU64::new(0);

static THREAD_ORDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ORD: Cell<u64> = const { Cell::new(u64::MAX) };
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn clock() -> &'static Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now)
}

/// Microseconds since the process trace clock started (monotonic).
pub fn now_us() -> u64 {
    clock().elapsed().as_micros() as u64
}

/// Whether tracing is currently enabled. The fast path — after the
/// one-time `CSQ_TRACE` lookup — is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("CSQ_TRACE") {
        Ok(v) if v == "0" || v.is_empty() => false,
        Ok(v) if v == "1" || v == "ring" => true,
        Ok(path) => {
            if let Ok(sink) = JsonlSink::create(&path) {
                install_sink(Box::new(sink));
            }
            true
        }
        Err(_) => false,
    };
    // Another thread may have raced us (or called set_enabled); only
    // the first writer wins so an explicit override is never undone.
    let new = if on { 2 } else { 1 };
    match STATE.compare_exchange(0, new, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(current) => current == 2,
    }
}

/// Programmatically enables or disables tracing, overriding
/// `CSQ_TRACE`. Tests use this to avoid process-global env mutation.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Installs (or replaces) the extra sink that receives every event in
/// addition to the flight-recorder ring.
pub fn install_sink(sink: Box<dyn TraceSink>) {
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = Some(sink);
}

/// Allocates a fresh process-unique trace id (never 0).
pub fn next_trace_id() -> u64 {
    TRACE_IDS.fetch_add(1, Ordering::Relaxed) + 1
}

/// Small stable ordinal for the calling thread.
pub fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|c| {
        let cur = c.get();
        if cur != u64::MAX {
            return cur;
        }
        let ord = THREAD_ORDS.fetch_add(1, Ordering::Relaxed);
        c.set(ord);
        ord
    })
}

fn dispatch(event: TraceEvent) {
    if let Some(sink) = SINK.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
        sink.record(&event);
    }
    crate::flight::global().push(event);
}

/// Emits an [`EventKind::Instant`] event (no-op while disabled). The
/// macros are the usual entry point; this is the non-macro escape
/// hatch.
pub fn emit_instant(target: &'static str, name: &'static str, fields: Vec<(String, String)>) {
    if !enabled() {
        return;
    }
    dispatch(TraceEvent {
        ts_us: now_us(),
        thread: thread_ordinal(),
        depth: SPAN_DEPTH.with(Cell::get),
        kind: EventKind::Instant,
        target: target.to_string(),
        name: name.to_string(),
        fields,
    });
}

/// RAII guard for an entered span; emits the Exit event (with
/// duration) when dropped. Obtained from the
/// [`span!`](crate::span) macro.
#[derive(Debug)]
pub struct SpanGuard {
    target: &'static str,
    name: &'static str,
    start_us: u64,
    /// False when tracing was disabled at entry: the whole guard is a
    /// no-op and nothing was allocated.
    active: bool,
}

impl SpanGuard {
    /// Enters a span (records Enter, pushes the per-thread depth).
    /// Returns an inert guard when tracing is disabled.
    pub fn enter(
        target: &'static str,
        name: &'static str,
        fields: Vec<(String, String)>,
    ) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                target,
                name,
                start_us: 0,
                active: false,
            };
        }
        let depth = SPAN_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        let start_us = now_us();
        dispatch(TraceEvent {
            ts_us: start_us,
            thread: thread_ordinal(),
            depth,
            kind: EventKind::Enter,
            target: target.to_string(),
            name: name.to_string(),
            fields,
        });
        SpanGuard {
            target,
            name,
            start_us,
            active: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let depth = SPAN_DEPTH.with(|d| {
            let cur = d.get().saturating_sub(1);
            d.set(cur);
            cur
        });
        let now = now_us();
        dispatch(TraceEvent {
            ts_us: now,
            thread: thread_ordinal(),
            depth,
            kind: EventKind::Exit {
                dur_us: now.saturating_sub(self.start_us),
            },
            target: self.target.to_string(),
            name: self.name.to_string(),
            fields: Vec::new(),
        });
    }
}

/// Enters a span scoped to the returned guard.
///
/// ```
/// let _g = csq_obs::span!("engine", "batch", "worker" => 3);
/// // ... work ...
/// // Exit (with duration) is recorded when `_g` drops.
/// ```
///
/// Field expressions are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr) => {
        $crate::trace::SpanGuard::enter($target, $name, ::std::vec::Vec::new())
    };
    ($target:expr, $name:expr, $($k:literal => $v:expr),+ $(,)?) => {{
        let fields = if $crate::trace::enabled() {
            ::std::vec![$((::std::string::String::from($k), ::std::format!("{}", $v))),+]
        } else {
            ::std::vec::Vec::new()
        };
        $crate::trace::SpanGuard::enter($target, $name, fields)
    }};
}

/// Emits a point-in-time event.
///
/// ```
/// csq_obs::event!("engine", "submit", "trace_id" => 42);
/// ```
///
/// Field expressions are only evaluated when tracing is enabled; while
/// disabled the whole call is one relaxed atomic load.
#[macro_export]
macro_rules! event {
    ($target:expr, $name:expr) => {
        if $crate::trace::enabled() {
            $crate::trace::emit_instant($target, $name, ::std::vec::Vec::new());
        }
    };
    ($target:expr, $name:expr, $($k:literal => $v:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::emit_instant(
                $target,
                $name,
                ::std::vec![$((::std::string::String::from($k), ::std::format!("{}", $v))),+],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; every test here runs with the
    // programmatic override and restores "disabled" when done. They
    // share one #[test] body to avoid interleaving with each other.
    #[test]
    fn spans_events_and_ids() {
        // Trace ids are unique and never zero.
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);

        // Disabled: guards are inert, nothing reaches the ring.
        set_enabled(false);
        crate::flight::global().clear();
        {
            let _g = crate::span!("test", "quiet", "k" => 1);
            crate::event!("test", "quiet_event");
        }
        assert!(crate::flight::global().recent().is_empty());

        // Enabled: enter/exit pair with nested depth, instant events.
        set_enabled(true);
        {
            let _outer = crate::span!("test", "outer");
            let _inner = crate::span!("test", "inner", "step" => 7);
            crate::event!("test", "tick", "v" => "x");
        }
        set_enabled(false);
        let events = crate::flight::global().recent();
        crate::flight::global().clear();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "tick", "inner", "outer"]);
        assert_eq!(events[0].kind, EventKind::Enter);
        assert_eq!(events[1].depth, 1);
        assert_eq!(events[2].kind, EventKind::Instant);
        assert_eq!(
            events[2].fields,
            vec![(String::from("v"), String::from("x"))]
        );
        assert!(matches!(events[4].kind, EventKind::Exit { .. }));
        // Timestamps are monotonic within the thread.
        for pair in events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }

    #[test]
    fn event_json_roundtrip() {
        let ev = TraceEvent {
            ts_us: 12,
            thread: 0,
            depth: 1,
            kind: EventKind::Exit { dur_us: 5 },
            target: String::from("t"),
            name: String::from("n"),
            fields: vec![(String::from("k"), String::from("v"))],
        };
        let line = serde_json::to_string(&ev).unwrap_or_default();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        // `kind` is flattened into the event next to its `dur_us`.
        let num = |k: &str| v.get(k).and_then(serde_json::Value::as_u64);
        let text = |k: &str| v.get(k).and_then(serde_json::Value::as_str);
        assert_eq!(text("kind"), Some("Exit"));
        assert_eq!(
            (num("ts_us"), num("thread"), num("depth"), num("dur_us")),
            (Some(12), Some(0), Some(1), Some(5))
        );
        assert_eq!((text("target"), text("name")), (Some("t"), Some("n")));
        let fields = v.get("fields").and_then(serde_json::Value::as_array);
        assert_eq!(fields.map(|f| f.len()), Some(1));
        assert_eq!(
            fields
                .and_then(|f| f[0].as_array())
                .map(|kv| (kv[0].as_str(), kv[1].as_str())),
            Some((Some("k"), Some("v")))
        );
    }
}
