//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a crate of the
//! program in [`span`]; the program itself is not instrumented. Spans
//! carry a name (`<layer>.<call>`), start and end, the enclosing span
//! and the request they serve. They stay in memory until the run ends
//! and are then written as an `ooo_core::trace::Timeline`, which
//! `ooo-trace summarize` and Chrome's trace viewer both read.
//!
//! With tracing off, [`span`] costs one relaxed atomic load.

use ooo_core::trace::{Span, Timeline};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// Enclosing span's id, 0 at the top level.
    pub parent: u64,
    pub name: &'static str,
    /// Request, instance or cell index; -1 outside any.
    pub request: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<i64> = const { Cell::new(-1) };
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn push(rec: SpanRec) {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(rec);
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    push(SpanRec {
        id,
        parent,
        name,
        request: REQUEST.with(Cell::get),
        start_ns: ns(start),
        end_ns: ns(end),
    });
    out
}

/// Runs `f` with `request` as the request id of every span it opens.
pub fn for_request<T>(request: i64, f: impl FnOnce() -> T) -> T {
    let prev = REQUEST.with(|r| r.replace(request));
    let out = f();
    REQUEST.with(|r| r.set(prev));
    out
}

/// Records a span whose bounds were measured elsewhere (a request's due
/// time and the moment its response was written).
pub fn record(name: &'static str, request: i64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    push(SpanRec {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        name,
        request,
        start_ns: ns(start),
        end_ns: ns(end.max(start)),
    });
}

/// Adds `v` to the counter `name` when tracing is on.
pub fn count(name: &'static str, v: f64) {
    if enabled() {
        *COUNTS
            .lock()
            .expect("counter store poisoned by a panicking recorder")
            .entry(name)
            .or_insert(0.0) += v;
    }
}

/// Drains every recorded span and counter.
pub fn take() -> (Vec<SpanRec>, BTreeMap<&'static str, f64>) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    let counts = std::mem::take(&mut *COUNTS.lock().expect("counter store poisoned"));
    (spans, counts)
}

/// Self time of each span: its duration minus the part its direct
/// children cover. Children of one span run on its thread, one after
/// another, so their durations add without overlap.
pub fn self_ns(spans: &[SpanRec]) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = out.get_mut(&s.parent) {
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Lays spans out as a timeline: one lane family per layer (the name's
/// first component), spans packed greedily into the first lane of the
/// family that is free at their start, so no lane holds overlapping
/// spans. Span id, parent and request ride along as span arguments.
pub fn timeline(spans: &[SpanRec], name: &str) -> Timeline {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.id));
    let mut lane_ends: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut placed: Vec<(String, Span)> = Vec::with_capacity(sorted.len());
    for s in sorted {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let ends = lane_ends.entry(layer).or_default();
        let slot = match ends.iter().position(|&e| e <= s.start_ns) {
            Some(i) => i,
            None => {
                ends.push(0);
                ends.len() - 1
            }
        };
        ends[slot] = s.end_ns;
        let mut span = Span::new(s.name, layer, s.start_ns, s.end_ns);
        span.args = vec![
            ("span_id".to_string(), s.id as f64),
            ("parent".to_string(), s.parent as f64),
            ("request".to_string(), s.request as f64),
        ];
        placed.push((format!("{layer}#{slot}"), span));
    }
    let mut t = Timeline::new(name);
    for (lane, span) in placed {
        t.lane_mut(&lane).spans.push(span);
    }
    t
}
