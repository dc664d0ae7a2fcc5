//! The benchmark's own spans, recorded around the calls it makes into
//! each layer of the library (the library's internals are not touched).
//!
//! A span has a name (the layer), start, end, parent and the id of the
//! operation it belongs to. Spans stay in memory until the run ends,
//! then become a per-layer table (calls, busy time, self time) and a
//! Chrome trace. With tracing off, [`span`] records nothing.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use multicore_matmul::sim::ChromeTraceBuilder;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique id.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The operation this span belongs to (0 outside any operation).
    pub op: u64,
    /// Layer name.
    pub name: &'static str,
    /// Small per-thread index.
    pub thread: u64,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start a new operation on this thread: spans opened from here on
/// share its id.
pub fn begin_op() {
    OP.with(|o| o.set(NEXT_ID.fetch_add(1, Ordering::Relaxed)));
}

/// An open span; it is recorded when dropped.
pub struct Guard(Option<(u64, Option<u64>, &'static str, u64)>);

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied();
        s.push(id);
        p
    });
    Guard(Some((id, parent, name, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().retain(|&x| x != id));
        let rec = SpanRec {
            id,
            parent,
            op: OP.with(Cell::get),
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Run `f` inside a span named `name` and return its result with the
/// wall time it took, in seconds. The time is measured whether or not
/// tracing is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _g = span(name);
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Every span recorded so far, removed from the recorder.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Layer (span name).
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations, seconds.
    pub busy_s: f64,
    /// Busy time minus the time covered by direct child spans, seconds.
    pub self_s: f64,
}

/// Per-layer calls, busy time and self time, sorted by name.
pub fn layer_table(spans: &[SpanRec]) -> Vec<LayerRow> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            calls: 0,
            busy_s: 0.0,
            self_s: 0.0,
        });
        row.calls += 1;
        row.busy_s += dur as f64 * 1e-9;
        row.self_s += own as f64 * 1e-9;
    }
    rows.into_values().collect()
}

/// Render spans as a Chrome trace (one lane per benchmark thread).
pub fn chrome(spans: &[SpanRec], process: &str) -> String {
    let mut b = ChromeTraceBuilder::new(process);
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        b.thread(t, &format!("bench thread {t}"));
    }
    for s in spans {
        b.span(
            s.thread,
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            &[("op", s.op as f64), ("id", s.id as f64), ("parent", s.parent.unwrap_or(0) as f64)],
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec { id, parent, op: 1, name, thread: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            rec(1, None, "op", 0, 100),
            rec(2, Some(1), "sched", 10, 40),
            rec(3, Some(1), "sched", 50, 70),
            rec(4, Some(2), "kernel", 15, 35),
        ];
        let t = layer_table(&spans);
        let op = t.iter().find(|r| r.name == "op").unwrap();
        let sched = t.iter().find(|r| r.name == "sched").unwrap();
        assert_eq!(op.calls, 1);
        assert!((op.self_s - 50e-9).abs() < 1e-15);
        assert_eq!(sched.calls, 2);
        assert!((sched.busy_s - 50e-9).abs() < 1e-15);
        assert!((sched.self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        set_enabled(true);
        begin_op();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        set_enabled(false);
        let _ignored = span("test.off");
        drop(_ignored);
        let spans: Vec<SpanRec> =
            take().into_iter().filter(|s| s.name.starts_with("test.")).collect();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.op, outer.op);
        assert!(chrome(&spans, "t").contains("test.inner"));
    }
}
