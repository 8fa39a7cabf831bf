//! Static memory-lifetime analysis: the exact multi-lane ledger and the
//! `OM`-series rules behind `ooo-memcheck`.
//!
//! The ledger assigns every tracked buffer one residency interval
//! `[alloc, free)` computed *statically* from a schedule's predicted op
//! intervals (see [`crate::predict`], which matches the simulators at
//! tolerance 0):
//!
//! - **Activations** `act[i]` are carried in from the previous forward
//!   pass: resident from the window start until their last scheduled
//!   keeper (`dO_i`/`dW_i`) finishes. Under pipeline schedules these are
//!   the activation stashes — the interval simply stretches across the
//!   stage that holds them.
//! - **Output gradients** `grad[i]` are defined when their producer
//!   (`Loss` or `dO_{i+1}`) starts and freed when `dO_i` and `dW_i` have
//!   both finished.
//! - **Weight gradients** `wgrad[i]` are defined when `dW_i` starts and
//!   freed when every scheduled consumer — the data-parallel `S[dW_i]`
//!   and the update `U_i` — has finished.
//!
//! A buffer whose producer is outside the window but that a scheduled op
//! accesses is treated as carried in (resident from the start); a buffer
//! with an unscheduled graph consumer is retained to the window end. At
//! equal timestamps frees of buffers resident since before apply first,
//! then allocations, then frees of zero-width residencies, on both the
//! static sweep and the instrumented counter, so the two agree exactly.
//!
//! These rules depend on which ops are scheduled, not on when, so
//! [`PeakSweep`] builds them once for an op set and reads the peak off
//! any timing of it; [`ledger_of_spans`] derives its intervals from the
//! same rules. The carried-in bytes ([`MemLedger::initial`]) are a floor
//! on the peak: every carried-in buffer allocates at `t = 0`, and no
//! free can precede the allocations at `t = 0`, since a free before the
//! allocation phase needs `free > alloc >= 0` (a free at its own alloc
//! time is zero-width and comes after). They are the same for every
//! timing of one op set, so a tuner whose floor already exceeds its
//! memory cap knows every relocation is over the cap without a sweep.
//!
//! [`instrument_timeline`] is the differential twin: an independent
//! event-driven counter over a *simulated* [`Timeline`] that maintains
//! per-buffer keeper countdowns instead of explicit intervals. The
//! conformance suite proves `ledger == counter` at tolerance 0 for every
//! engine.
//!
//! ## The OM rule family
//!
//! - `OM101` use-of-freed (or not-yet-defined) buffer — an op's access
//!   interval falls outside the buffer's residency interval.
//! - `OM201` double-free / conflicting lifetime attribution in an
//!   explicit [`FreePlan`].
//! - `OM301` peak over budget, with the exact witness interval and the
//!   resident set at the peak.
//! - `OM401` retained past last use: a buffer kept to the window end by
//!   an unscheduled consumer, where freeing it after its last scheduled
//!   use is `OM`-clean and strictly lowers the peak (mutation-validated).
//! - `OM501` out-of-order reordering inflates the peak over the in-order
//!   baseline, and a minimal single-`dW` deferral restores the target
//!   (mutation-validated, `OV`-clean).

use crate::access::{accesses, BufferId};
use crate::predict::{predict_makespan, Prediction};
use crate::{Diagnostic, RuleId, Verifier, VerifyConfig};
use ooo_core::cost::CostModel;
use ooo_core::list_scheduling::Timeline;
use ooo_core::memory::{buffer_bytes, buffer_consumers, op_allocations, Buffer};
use ooo_core::op::LayerId;
use ooo_core::schedule::Schedule;
use ooo_core::{Error, Op, SimTime, TrainGraph};
use std::collections::HashMap;

/// One scheduled operation with its (predicted or simulated) interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// The operation.
    pub op: Op,
    /// Start time (ns).
    pub start: SimTime,
    /// Finish time (ns).
    pub end: SimTime,
}

/// The spans of a static prediction, in lane-major schedule order.
pub fn spans_of_prediction(prediction: &Prediction) -> Vec<OpSpan> {
    prediction
        .ops()
        .iter()
        .map(|p| OpSpan {
            op: p.op,
            start: p.start,
            end: p.end,
        })
        .collect()
}

/// The spans of a simulated timeline, in timeline order.
pub fn spans_of_timeline(timeline: &Timeline) -> Vec<OpSpan> {
    timeline
        .entries
        .iter()
        .map(|e| OpSpan {
            op: e.op,
            start: e.start,
            end: e.end,
        })
        .collect()
}

/// An explicit lifetime attribution: free each listed buffer when the
/// paired op finishes, overriding the derived (last-keeper) free point.
///
/// Used to apply `OM401` suggestions and to inject violations in the
/// mutation tests; an inconsistent plan draws `OM201`.
#[derive(Debug, Clone, Default)]
pub struct FreePlan {
    /// `(buffer, op)` pairs: free `buffer` after `op` finishes.
    pub frees: Vec<(Buffer, Op)>,
}

/// One buffer's residency interval in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The buffer.
    pub buf: Buffer,
    /// Its size in bytes.
    pub bytes: u64,
    /// Time the buffer becomes resident.
    pub alloc: SimTime,
    /// Time it is freed; `None` = retained to the window end.
    pub free: Option<SimTime>,
    /// The scheduled op that defines it; `None` = carried in from before
    /// the window.
    pub defined_by: Option<Op>,
}

/// The exact live/peak ledger of one schedule window.
#[derive(Debug, Clone)]
pub struct MemLedger {
    /// Residency intervals, in buffer order.
    pub intervals: Vec<Interval>,
    /// Bytes resident at the window start (carried-in buffers).
    pub initial: u64,
    /// Peak residency over the window.
    pub peak: u64,
    /// First time the peak is attained.
    pub peak_at: SimTime,
    /// End of the witness interval: the next event after `peak_at` (the
    /// resident set below holds throughout `[peak_at, peak_until)`).
    pub peak_until: SimTime,
    /// Buffers resident at the peak, in buffer order.
    pub resident_at_peak: Vec<Buffer>,
    /// Bytes still resident after every scheduled op finished.
    pub final_usage: u64,
    /// Latest finish time across the window.
    pub window_end: SimTime,
    /// Interval position per buffer slot ([`NONE`] when never resident).
    index: Vec<u32>,
}

impl MemLedger {
    /// The residency interval of `buf`, if it is ever resident.
    pub fn interval_of(&self, buf: Buffer) -> Option<&Interval> {
        let slot = buffer_slot(buf, self.index.len() / 3)?;
        match self.index[slot] {
            NONE => None,
            i => Some(&self.intervals[i as usize]),
        }
    }
}

/// The outcome of the instrumented per-op memory counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCounter {
    /// Bytes resident at the window start.
    pub initial: u64,
    /// Peak residency over the window.
    pub peak: u64,
    /// Bytes still resident after the last event.
    pub final_usage: u64,
}

/// The `act[i]`/`grad[i]`/`wgrad[i]` notation shared with [`crate::access`].
pub fn buffer_name(buf: Buffer) -> String {
    match buf {
        Buffer::Activation(i) => format!("act[{i}]"),
        Buffer::OutGrad(i) => format!("grad[{i}]"),
        Buffer::WeightGrad(i) => format!("wgrad[{i}]"),
    }
}

/// Maps an access-model buffer onto a ledger buffer. Weights and
/// next-iteration activations are persistent (not iteration-temporary),
/// so the ledger does not track them.
fn as_ledger_buffer(buf: BufferId) -> Option<Buffer> {
    match buf {
        BufferId::Activation(i) => Some(Buffer::Activation(i)),
        BufferId::OutGrad(i) => Some(Buffer::OutGrad(i)),
        BufferId::WeightGrad(i) => Some(Buffer::WeightGrad(i)),
        BufferId::Weights(_) | BufferId::NextActivation(_) => None,
    }
}

/// The op that defines `buf` inside a window, if any.
fn producer_of(graph: &TrainGraph, buf: Buffer) -> Option<Op> {
    let op = match buf {
        Buffer::Activation(_) => return None,
        Buffer::OutGrad(i) if i == graph.layers() => Op::Loss,
        Buffer::OutGrad(i) => Op::OutputGrad(LayerId(i + 1)),
        Buffer::WeightGrad(i) => Op::WeightGrad(LayerId(i)),
    };
    graph.contains(op).then_some(op)
}

/// Marks an absent entry in the dense per-op and per-buffer tables.
const NONE: u32 = u32::MAX;

/// Dense slot of `buf` among a graph's `3 · layers` buffers, in buffer
/// order (the order of [`all_buffers`]); `None` for a layer outside
/// `1..=layers`.
fn buffer_slot(buf: Buffer, layers: usize) -> Option<usize> {
    let (kind, i) = match buf {
        Buffer::Activation(i) => (0, i),
        Buffer::OutGrad(i) => (1, i),
        Buffer::WeightGrad(i) => (2, i),
    };
    (1..=layers).contains(&i).then(|| kind * layers + i - 1)
}

/// Every buffer of the graph, in buffer order.
fn all_buffers(graph: &TrainGraph) -> Vec<Buffer> {
    let l = graph.layers();
    let mut bufs = Vec::with_capacity(3 * l);
    for i in 1..=l {
        bufs.push(Buffer::Activation(i));
    }
    for i in 1..=l {
        bufs.push(Buffer::OutGrad(i));
    }
    for i in 1..=l {
        bufs.push(Buffer::WeightGrad(i));
    }
    bufs
}

/// The first span of every graph op in `spans`, by op index
/// ([`NONE`] when unscheduled). Ops outside the graph are skipped: they
/// define and keep no graph buffer.
fn first_spans(graph: &TrainGraph, spans: &[OpSpan]) -> Vec<u32> {
    let mut first: Vec<u32> = vec![NONE; graph.len()];
    for (k, span) in spans.iter().enumerate() {
        if let Some(i) = graph.op_index(span.op) {
            if first[i] == NONE {
                first[i] = k as u32;
            }
        }
    }
    first
}

/// Whether some op of `ops` accesses each buffer, by buffer slot.
fn accessed_buffers(graph: &TrainGraph, ops: impl IntoIterator<Item = Op>) -> Vec<bool> {
    let layers = graph.layers();
    let mut accessed = vec![false; 3 * layers];
    for op in ops {
        for (buf, _) in accesses(op, layers) {
            if let Some(slot) = as_ledger_buffer(buf).and_then(|b| buffer_slot(b, layers)) {
                accessed[slot] = true;
            }
        }
    }
    accessed
}

/// Scheduled accessors of every buffer, in span order.
fn accessor_map(graph: &TrainGraph, spans: &[OpSpan]) -> HashMap<Buffer, Vec<OpSpan>> {
    let layers = graph.layers();
    let mut map: HashMap<Buffer, Vec<OpSpan>> = HashMap::new();
    for &span in spans {
        for (buf, _) in accesses(span.op, layers) {
            if let Some(b) = as_ledger_buffer(buf) {
                let entry = map.entry(b).or_default();
                if !entry.iter().any(|s| s.op == span.op) {
                    entry.push(span);
                }
            }
        }
    }
    map
}

/// One tracked buffer's residency rule over a fixed op set: what stays
/// the same however the ops are timed.
#[derive(Debug, Clone, Copy)]
struct Residency {
    buf: Buffer,
    bytes: u64,
    /// Dense op index of the scheduled producer; [`NONE`] when the buffer
    /// is carried in (resident from the window start).
    producer: u32,
    /// Dense op indices of the keepers ([`NONE`]-padded) when every graph
    /// keeper is scheduled; `None` when the buffer is retained to the
    /// window end.
    keepers: Option<[u32; 2]>,
}

impl Residency {
    /// The residency interval `(alloc, free)` under the op times `span`
    /// (start, finish by dense op index): alloc at the producer's start,
    /// or at 0 when carried in; free when the last keeper finishes,
    /// clamped to the alloc (a keeper that finished before the
    /// definition makes the buffer transient); `None` when retained.
    fn interval(&self, span: impl Fn(usize) -> (SimTime, SimTime)) -> (SimTime, Option<SimTime>) {
        let alloc = match self.producer {
            NONE => 0,
            p => span(p as usize).0,
        };
        let free = self.keepers.map(|keepers| {
            keepers
                .iter()
                .filter(|&&k| k != NONE)
                .map(|&k| span(k as usize).1)
                .max()
                .unwrap_or(alloc)
                .max(alloc)
        });
        (alloc, free)
    }
}

/// Queues one residency's events under the ledger's timestamp
/// convention: at equal timestamps, frees of previously-resident buffers
/// (phase 0) apply before allocations (phase 1) — a buffer whose last
/// keeper finishes exactly when the next op starts is released first,
/// the convention of the sequential `memory_profile` — and zero-width
/// residencies (freed the instant they are defined) count momentarily
/// and release after the timestamp's allocations (phase 2). The
/// instrumented counter mirrors the same three phases, so both sides
/// agree exactly.
fn push_events(
    events: &mut Vec<(SimTime, u8, u32)>,
    i: usize,
    alloc: SimTime,
    free: Option<SimTime>,
) {
    events.push((alloc, 1, i as u32));
    if let Some(f) = free {
        let phase = if f == alloc { 2 } else { 0 };
        events.push((f, phase, i as u32));
    }
}

/// Sorts `events` chronologically and sweeps them: `(peak, final usage)`,
/// with `bytes` the size of residency `i`. Within one phase of one
/// timestamp the order does not change either number.
fn sweep_events(events: &mut [(SimTime, u8, u32)], bytes: impl Fn(usize) -> u64) -> (u64, u64) {
    events.sort_unstable();
    let (mut usage, mut peak) = (0u64, 0u64);
    for &(_, phase, i) in events.iter() {
        if phase == 1 {
            usage += bytes(i as usize);
            peak = peak.max(usage);
        } else {
            usage -= bytes(i as usize);
        }
    }
    (peak, usage)
}

/// The ledger's residency rules over one fixed op set, built once to
/// read the peak off many timings of it.
///
/// Which buffers are resident, their sizes, producers and keepers, and
/// whether each is carried in or retained depend only on which ops are
/// scheduled, not on when. Every state of a relocation search schedules
/// the same ops, so a tuner builds one sweep per search and reads each
/// candidate's peak off its probed times ([`PeakSweep::peak`]) instead of
/// building its ledger. [`ledger_of_spans`] derives its intervals from
/// the same rules.
#[derive(Debug, Clone)]
pub struct PeakSweep {
    /// The resident buffers' rules, in buffer order.
    rules: Vec<Residency>,
}

/// A caller-owned event buffer for [`PeakSweep::peak`]; reused across
/// calls, it stops allocating once grown to the op set's size.
#[derive(Debug, Clone, Default)]
pub struct PeakEvents(Vec<(SimTime, u8, u32)>);

impl PeakSweep {
    /// The rules of `schedule`'s op set.
    pub fn new<C: CostModel>(graph: &TrainGraph, cost: &C, schedule: &Schedule) -> Self {
        let ops = schedule
            .lanes
            .iter()
            .flat_map(|lane| lane.ops.iter().copied());
        Self::of_ops(graph, cost, ops)
    }

    /// The rules of the op set `ops` (repeats and ops outside the graph
    /// allowed; those define and keep no graph buffer).
    fn of_ops<C: CostModel>(
        graph: &TrainGraph,
        cost: &C,
        ops: impl Iterator<Item = Op> + Clone,
    ) -> Self {
        let mut scheduled = vec![false; graph.len()];
        for i in ops.clone().filter_map(|op| graph.op_index(op)) {
            scheduled[i] = true;
        }
        let scheduled_index = |op: Op| graph.op_index(op).filter(|&i| scheduled[i]);
        let accessed = accessed_buffers(graph, ops);
        let mut rules = Vec::new();
        for (slot, buf) in all_buffers(graph).into_iter().enumerate() {
            let producer = producer_of(graph, buf).and_then(scheduled_index);
            let carried = matches!(buf, Buffer::Activation(_)) || accessed[slot];
            if producer.is_none() && !carried {
                continue;
            }
            let mut keepers = [NONE; 2];
            let mut freeable = true;
            let consumers = buffer_consumers(graph, buf);
            for (k, &op) in consumers.iter().enumerate() {
                match scheduled_index(op) {
                    Some(i) => keepers[k] = i as u32,
                    None => freeable = false,
                }
            }
            rules.push(Residency {
                buf,
                bytes: buffer_bytes(cost, buf),
                producer: producer.map_or(NONE, |p| p as u32),
                keepers: (freeable && !consumers.is_empty()).then_some(keepers),
            });
        }
        PeakSweep { rules }
    }

    /// The ledger peak of the op set under the op times `span` (start,
    /// finish by dense op index; read only for scheduled ops): exactly
    /// `ledger_of_spans(..).peak` of spans with those times. Fills
    /// `events` and allocates nothing once it has grown.
    pub fn peak(&self, span: impl Fn(usize) -> (SimTime, SimTime), events: &mut PeakEvents) -> u64 {
        let events = &mut events.0;
        events.clear();
        for (i, rule) in self.rules.iter().enumerate() {
            let (alloc, free) = rule.interval(&span);
            push_events(events, i, alloc, free);
        }
        sweep_events(events, |i| self.rules[i].bytes).0
    }
}

/// Builds the exact ledger of a window given its op spans. Returns the
/// ledger plus any `OM201` findings the free plan drew.
pub fn ledger_of_spans<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    spans: &[OpSpan],
    plan: Option<&FreePlan>,
) -> (MemLedger, Vec<Diagnostic>) {
    let layers = graph.layers();
    let first = first_spans(graph, spans);
    // The first span of `op`. An op outside the graph can still be named
    // by a free plan; only then is `spans` searched.
    let scheduled = |op: Op| -> Option<&OpSpan> {
        match graph.op_index(op) {
            Some(i) => (first[i] != NONE).then(|| &spans[first[i] as usize]),
            None => spans.iter().find(|s| s.op == op),
        }
    };
    let window_end = spans.iter().map(|s| s.end).max().unwrap_or(0);

    // Residency intervals, by the rules of `PeakSweep`, read off the
    // first span of each op.
    let sweep = PeakSweep::of_ops(graph, cost, spans.iter().map(|s| s.op));
    let span_at = |v: usize| {
        let span = &spans[first[v] as usize];
        (span.start, span.end)
    };
    let mut index: Vec<u32> = vec![NONE; 3 * layers];
    let mut intervals: Vec<Interval> = Vec::with_capacity(sweep.rules.len());
    for rule in &sweep.rules {
        let (alloc, free) = rule.interval(span_at);
        let slot = buffer_slot(rule.buf, layers).expect("rules cover graph buffers");
        index[slot] = intervals.len() as u32;
        intervals.push(Interval {
            buf: rule.buf,
            bytes: rule.bytes,
            alloc,
            free,
            defined_by: (rule.producer != NONE).then(|| graph.ops()[rule.producer as usize]),
        });
    }

    // Apply the explicit free plan, collecting OM201 findings for
    // inconsistent attributions.
    let mut om201: Vec<Diagnostic> = Vec::new();
    if let Some(plan) = plan {
        let mut planned: Vec<Option<Op>> = vec![None; 3 * layers];
        for &(buf, op) in &plan.frees {
            let name = buffer_name(buf);
            let slot = buffer_slot(buf, layers);
            if let Some(prev) = slot.and_then(|s| planned[s]) {
                om201.push(Diagnostic {
                    rule: RuleId::DoubleFree,
                    ops: vec![prev, op],
                    lanes: Vec::new(),
                    message: format!(
                        "{name} is freed twice: after {prev} and again after {op}; \
                         conflicting lifetime attribution"
                    ),
                });
                continue;
            }
            let Some(slot) = slot.filter(|&s| index[s] != NONE) else {
                om201.push(Diagnostic {
                    rule: RuleId::DoubleFree,
                    ops: vec![op],
                    lanes: Vec::new(),
                    message: format!(
                        "{name} is freed after {op} but is never resident in this window"
                    ),
                });
                continue;
            };
            let Some(span) = scheduled(op) else {
                om201.push(Diagnostic {
                    rule: RuleId::DoubleFree,
                    ops: vec![op],
                    lanes: Vec::new(),
                    message: format!(
                        "{name} is freed after {op}, which is not scheduled in this window"
                    ),
                });
                continue;
            };
            planned[slot] = Some(op);
            let iv = &mut intervals[index[slot] as usize];
            iv.free = Some(span.end.max(iv.alloc));
        }
    }

    let mut events: Vec<(SimTime, u8, u32)> = Vec::with_capacity(2 * intervals.len());
    for (i, iv) in intervals.iter().enumerate() {
        push_events(&mut events, i, iv.alloc, iv.free);
    }
    let (peak, final_usage) = sweep_events(&mut events, |i| intervals[i].bytes);

    // Second pass: locate the first attainment of the peak and snapshot
    // the resident set plus the witness interval.
    let mut usage: u64 = 0;
    let mut live: Vec<bool> = vec![false; intervals.len()];
    let mut peak_at: SimTime = 0;
    let mut peak_until: SimTime = window_end;
    let mut resident_at_peak: Vec<Buffer> = Vec::new();
    let mut found = false;
    for (pos, &(t, phase, i)) in events.iter().enumerate() {
        let i = i as usize;
        if phase == 1 {
            usage += intervals[i].bytes;
            live[i] = true;
        } else {
            usage -= intervals[i].bytes;
            live[i] = false;
        }
        if !found && phase == 1 && usage == peak {
            found = true;
            peak_at = t;
            peak_until = events
                .get(pos + 1)
                .map(|&(t2, _, _)| t2)
                .unwrap_or(window_end);
            resident_at_peak = intervals
                .iter()
                .enumerate()
                .filter(|&(j, _)| live[j])
                .map(|(_, iv)| iv.buf)
                .collect();
            resident_at_peak.sort_unstable();
        }
    }

    let initial = intervals
        .iter()
        .filter(|iv| iv.defined_by.is_none())
        .map(|iv| iv.bytes)
        .sum();
    (
        MemLedger {
            intervals,
            initial,
            peak,
            peak_at,
            peak_until,
            resident_at_peak,
            final_usage,
            window_end,
            index,
        },
        om201,
    )
}

/// Predicts `schedule` and builds its (plan-free) ledger.
///
/// # Errors
///
/// Mirrors [`predict_makespan`] for malformed or deadlocking schedules.
pub fn ledger_of_schedule<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<MemLedger, Error> {
    let pred = predict_makespan(graph, schedule, cost)?;
    let spans = spans_of_prediction(&pred);
    Ok(ledger_of_spans(graph, cost, &spans, None).0)
}

/// The static ledger peak of `schedule` — the quantity the memory-capped
/// tuner objective constrains.
///
/// # Errors
///
/// Mirrors [`predict_makespan`].
pub fn schedule_peak<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<u64, Error> {
    ledger_of_schedule(graph, schedule, cost).map(|l| l.peak)
}

/// The instrumented per-op memory counter: an independent event-driven
/// sweep over a simulated timeline, maintaining keeper countdowns per
/// buffer instead of explicit intervals. Agrees with
/// [`ledger_of_spans`] at tolerance 0 on the same window.
pub fn instrument_timeline<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    timeline: &Timeline,
) -> MemCounter {
    let spans = spans_of_timeline(timeline);
    let layers = graph.layers();
    let first = first_spans(graph, &spans);
    let is_scheduled = |op: Op| graph.op_index(op).is_some_and(|i| first[i] != NONE);
    let accessed = accessed_buffers(graph, spans.iter().map(|s| s.op));

    // Per-buffer bookkeeping by buffer slot: remaining scheduled keepers,
    // whether the buffer is freeable at all (every graph keeper
    // scheduled), and the carried-in set; per op index, the (at most
    // two) buffers the op keeps alive.
    let buffers = 3 * layers;
    let mut bytes: Vec<u64> = vec![0; buffers];
    let mut remaining: Vec<usize> = vec![0; buffers];
    let mut freeable: Vec<bool> = vec![false; buffers];
    let mut kept_by: Vec<[u32; 2]> = vec![[NONE; 2]; graph.len()];
    let mut live: Vec<bool> = vec![false; buffers];
    let mut usage: u64 = 0;
    for (slot, buf) in all_buffers(graph).into_iter().enumerate() {
        let keepers = buffer_consumers(graph, buf);
        let scheduled_keepers = keepers.iter().filter(|&&op| is_scheduled(op)).count();
        bytes[slot] = buffer_bytes(cost, buf);
        remaining[slot] = scheduled_keepers;
        freeable[slot] = !keepers.is_empty() && scheduled_keepers == keepers.len();
        for op in keepers {
            let kept = &mut kept_by[graph.op_index(op).expect("keepers are graph ops")];
            let free = kept.iter().position(|&b| b == NONE);
            kept[free.expect("dO/dW keep act and grad, S[dW]/U keep wgrad")] = slot as u32;
        }
        let carried = producer_of(graph, buf).is_none_or(|p| !is_scheduled(p))
            && (matches!(buf, Buffer::Activation(_)) || accessed[slot]);
        if carried {
            usage += bytes[slot];
            live[slot] = true;
        }
    }
    let initial = usage;
    let mut peak = usage;
    let mut alloc_time: Vec<SimTime> = vec![0; buffers];

    // Chronological sweep with the ledger's timestamp convention: per
    // timestamp, (1) frees of buffers resident since before it, (2)
    // allocations (measuring the peak), (3) frees of zero-width
    // residencies defined at this very timestamp. Within one phase the
    // order of the events does not change the outcome (phase 1 only
    // releases, phase 2 only adds), so ties are broken by op index.
    let mut events: Vec<(SimTime, u8, u32)> = Vec::with_capacity(2 * spans.len());
    for (i, &k) in first.iter().enumerate() {
        if k != NONE {
            let span = spans[k as usize];
            events.push((span.end, 0, i as u32));
            events.push((span.start, 1, i as u32));
        }
    }
    events.sort_unstable();

    let mut deferred: Vec<usize> = Vec::new();
    let mut pos = 0;
    while pos < events.len() {
        let t = events[pos].0;
        let mut end_of_group = pos;
        while end_of_group < events.len() && events[end_of_group].0 == t {
            end_of_group += 1;
        }
        // Phase 1: keeper completions; buffers defined at this very
        // timestamp release after the allocations instead.
        for &(_, phase, i) in &events[pos..end_of_group] {
            if phase != 0 {
                continue;
            }
            for &slot in kept_by[i as usize].iter().filter(|&&b| b != NONE) {
                let slot = slot as usize;
                if remaining[slot] > 0 {
                    remaining[slot] -= 1;
                    if remaining[slot] == 0 && freeable[slot] && live[slot] {
                        if alloc_time[slot] == t {
                            deferred.push(slot);
                        } else {
                            usage -= bytes[slot];
                            live[slot] = false;
                        }
                    }
                }
            }
        }
        // Phase 2: allocations.
        for &(_, phase, i) in &events[pos..end_of_group] {
            if phase != 1 {
                continue;
            }
            for buf in op_allocations(graph, graph.ops()[i as usize]) {
                let slot = buffer_slot(buf, layers).expect("graph ops allocate graph buffers");
                usage += bytes[slot];
                peak = peak.max(usage);
                alloc_time[slot] = t;
                if remaining[slot] == 0 && freeable[slot] {
                    // Every keeper already finished: transient residency,
                    // released in phase 3.
                    deferred.push(slot);
                } else {
                    live[slot] = true;
                }
            }
        }
        // Phase 3: zero-width releases.
        for slot in deferred.drain(..) {
            usage -= bytes[slot];
            live[slot] = false;
        }
        pos = end_of_group;
    }

    MemCounter {
        initial,
        peak,
        final_usage: usage,
    }
}

/// `OM101`: every access of every scheduled op must fall inside the
/// accessed buffer's residency interval.
fn check_om101(graph: &TrainGraph, spans: &[OpSpan], ledger: &MemLedger) -> Vec<Diagnostic> {
    let layers = graph.layers();
    let mut diags = Vec::new();
    let mut seen: HashMap<Op, ()> = HashMap::new();
    for &span in spans {
        if seen.insert(span.op, ()).is_some() {
            continue;
        }
        for (buf, kind) in accesses(span.op, layers) {
            let Some(b) = as_ledger_buffer(buf) else {
                continue;
            };
            let Some(iv) = ledger.interval_of(b) else {
                diags.push(Diagnostic {
                    rule: RuleId::UseOfFreedBuffer,
                    ops: vec![span.op],
                    lanes: Vec::new(),
                    message: format!(
                        "{} {kind}s {} but the buffer is never resident in this window",
                        span.op,
                        buffer_name(b)
                    ),
                });
                continue;
            };
            if iv.defined_by == Some(span.op) {
                continue;
            }
            let free = iv.free.unwrap_or(ledger.window_end);
            if span.start < iv.alloc || span.end > free {
                let origin = match iv.defined_by {
                    Some(p) => format!("defined by {p}"),
                    None => "carried in".to_string(),
                };
                diags.push(Diagnostic {
                    rule: RuleId::UseOfFreedBuffer,
                    ops: iv.defined_by.into_iter().chain([span.op]).collect(),
                    lanes: Vec::new(),
                    message: format!(
                        "{} {kind}s {} during [{}, {}) but the buffer is live only during \
                         [{}, {}) ({origin})",
                        span.op,
                        buffer_name(b),
                        span.start,
                        span.end,
                        iv.alloc,
                        free,
                    ),
                });
            }
        }
    }
    diags
}

/// `OM301`: the ledger peak against an explicit budget, with the witness
/// interval and the resident set at the peak.
fn check_om301(ledger: &MemLedger, budget: u64) -> Vec<Diagnostic> {
    if ledger.peak <= budget {
        return Vec::new();
    }
    let resident: Vec<String> = ledger
        .resident_at_peak
        .iter()
        .map(|&b| {
            let bytes = ledger.interval_of(b).map(|iv| iv.bytes).unwrap_or(0);
            format!("{} ({bytes})", buffer_name(b))
        })
        .collect();
    vec![Diagnostic {
        rule: RuleId::PeakOverBudget,
        ops: Vec::new(),
        lanes: Vec::new(),
        message: format!(
            "peak memory {} bytes exceeds the budget of {budget} bytes during [{}, {}); \
             resident at the peak: {}",
            ledger.peak,
            ledger.peak_at,
            ledger.peak_until,
            resident.join(", ")
        ),
    }]
}

/// `OM401`: buffers retained to the window end by an unscheduled
/// consumer, where freeing after the last scheduled use is clean and
/// strictly lowers the peak.
fn check_om401<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    spans: &[OpSpan],
    ledger: &MemLedger,
) -> Vec<Diagnostic> {
    let scheduled: HashMap<Op, ()> = spans.iter().map(|s| (s.op, ())).collect();
    let accessors = accessor_map(graph, spans);
    let mut diags = Vec::new();
    for iv in &ledger.intervals {
        if iv.free.is_some() {
            continue;
        }
        let keepers = buffer_consumers(graph, iv.buf);
        let (on_window, missing): (Vec<Op>, Vec<Op>) = keepers
            .into_iter()
            .partition(|op| scheduled.contains_key(op));
        // Partially consumed: at least one keeper ran, at least one is
        // outside the window (a fully unconsumed buffer has no "last
        // use" worth freeing after).
        if on_window.is_empty() || missing.is_empty() {
            continue;
        }
        let Some(last) = accessors.get(&iv.buf).and_then(|accs| {
            accs.iter()
                .max_by(|a, b| a.end.cmp(&b.end).then(b.op.cmp(&a.op)))
                .copied()
        }) else {
            continue;
        };
        if last.end >= ledger.window_end {
            continue;
        }
        // Mutation-validate: the applied free must be OM-clean and must
        // strictly lower the peak.
        let plan = FreePlan {
            frees: vec![(iv.buf, last.op)],
        };
        let (mutated, om201) = ledger_of_spans(graph, cost, spans, Some(&plan));
        if !om201.is_empty()
            || !check_om101(graph, spans, &mutated).is_empty()
            || mutated.peak >= ledger.peak
        {
            continue;
        }
        let shown: Vec<String> = missing.iter().map(|op| op.to_string()).collect();
        diags.push(Diagnostic {
            rule: RuleId::RetainedPastLastUse,
            ops: vec![last.op],
            lanes: Vec::new(),
            message: format!(
                "{} is retained to the window end (consumer(s) {} not scheduled) but last \
                 used by {} finishing at {}; freeing it there lowers the peak from {} to \
                 {} bytes",
                buffer_name(iv.buf),
                shown.join(", "),
                last.op,
                last.end,
                ledger.peak,
                mutated.peak
            ),
        });
    }
    diags
}

/// `OM501`: the schedule's peak against the in-order baseline, with a
/// minimal validated single-`dW` deferral restoring the target.
fn check_om501<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    ledger: &MemLedger,
    budget: Option<u64>,
) -> Vec<Diagnostic> {
    // In-order baseline: the conventional order restricted to the
    // scheduled ops, executed sequentially.
    let scheduled: HashMap<Op, ()> = schedule.iter_ops().map(|(_, op)| (op, ())).collect();
    let baseline_order: Vec<Op> = graph
        .conventional_backprop()
        .into_iter()
        .filter(|op| scheduled.contains_key(op))
        .collect();
    let mut t: SimTime = 0;
    let baseline_spans: Vec<OpSpan> = baseline_order
        .iter()
        .map(|&op| {
            let start = t;
            t += cost.duration(op);
            OpSpan { op, start, end: t }
        })
        .collect();
    let baseline = ledger_of_spans(graph, cost, &baseline_spans, None).0;
    let target = budget.unwrap_or(baseline.peak);
    if ledger.peak <= baseline.peak || ledger.peak <= target {
        return Vec::new();
    }

    // Minimal deferral: move one dW later on its own lane (to just
    // before its first same-lane consumer, or to the lane end), keep the
    // move only when it is OV-clean and restores the target.
    let mut best: Option<(u64, usize, usize, usize, Op, u64)> = None;
    for (li, lane) in schedule.lanes.iter().enumerate() {
        for (pos, &op) in lane.ops.iter().enumerate() {
            let Op::WeightGrad(LayerId(layer)) = op else {
                continue;
            };
            let consumer_pos = lane.ops[pos + 1..].iter().position(|o| {
                matches!(o, Op::SyncWeightGrad(LayerId(j)) | Op::Update(LayerId(j)) if *j == layer)
            });
            // Target index after removing `op` from the lane.
            let to = match consumer_pos {
                Some(rel) => pos + rel,
                None => lane.ops.len() - 1,
            };
            if to <= pos {
                continue;
            }
            let mut mutated = schedule.clone();
            let moved = mutated.lanes[li].ops.remove(pos);
            mutated.lanes[li].ops.insert(to, moved);
            let Ok(m_ledger) = ledger_of_schedule(graph, &mutated, cost) else {
                continue;
            };
            if m_ledger.peak > target || m_ledger.peak >= ledger.peak {
                continue;
            }
            let report = Verifier::new(graph)
                .with_config(VerifyConfig {
                    require_complete: false,
                    memory_budget: None,
                    check_legality: true,
                })
                .verify(&mutated);
            if report.has_errors() {
                continue;
            }
            let reduction = ledger.peak - m_ledger.peak;
            let key = (reduction, layer, li);
            let better = match best {
                None => true,
                Some((r, l2, li2, ..)) => {
                    (key.0, std::cmp::Reverse(key.1), std::cmp::Reverse(key.2))
                        > (r, std::cmp::Reverse(l2), std::cmp::Reverse(li2))
                }
            };
            if better {
                best = Some((reduction, layer, li, to, op, m_ledger.peak));
            }
        }
    }
    let Some((_, _, li, to, op, new_peak)) = best else {
        return Vec::new();
    };
    vec![Diagnostic {
        rule: RuleId::ReorderInflatesPeak,
        ops: vec![op],
        lanes: vec![schedule.lanes[li].name.clone()],
        message: format!(
            "out-of-order execution raises peak memory to {} bytes vs {} for the in-order \
             baseline; deferring {op} to position {to} on lane {} restores it to {new_peak} \
             bytes (target {target})",
            ledger.peak, baseline.peak, schedule.lanes[li].name
        ),
    }]
}

/// Options of one [`check_schedule`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemCheckOptions<'a> {
    /// Peak-memory budget for `OM301`/`OM501`; `None` disables `OM301`.
    pub budget: Option<u64>,
    /// Explicit lifetime attributions (validated by `OM201`).
    pub plan: Option<&'a FreePlan>,
    /// Run the in-order baseline comparison (`OM501`).
    pub baseline: bool,
}

/// One full memory analysis: the ledger plus every OM finding.
#[derive(Debug, Clone)]
pub struct MemAnalysis {
    /// The exact ledger of the analyzed window.
    pub ledger: MemLedger,
    /// OM-series findings, in rule-code order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the full OM-series analysis over `schedule`.
///
/// # Errors
///
/// Mirrors [`predict_makespan`] for malformed or deadlocking schedules.
pub fn check_schedule<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    opts: &MemCheckOptions<'_>,
) -> Result<MemAnalysis, Error> {
    let spans = match predict_makespan(graph, schedule, cost) {
        Ok(pred) => spans_of_prediction(&pred),
        Err(Error::DependencyViolation { .. }) => {
            // The schedule cannot execute as ordered (an op precedes its
            // producer). Fall back to naive per-lane sequential timing so
            // the lifetime rules can still attribute the violation: the
            // premature access then falls before the producer's interval
            // and OM101 reports it instead of a bare prediction error.
            let mut spans = Vec::new();
            for lane in &schedule.lanes {
                let mut t: SimTime = 0;
                for &op in &lane.ops {
                    let start = t;
                    t += cost.duration(op);
                    spans.push(OpSpan { op, start, end: t });
                }
            }
            spans
        }
        Err(e) => return Err(e),
    };
    let (ledger, om201) = ledger_of_spans(graph, cost, &spans, opts.plan);
    let mut diagnostics = check_om101(graph, &spans, &ledger);
    diagnostics.extend(om201);
    if let Some(budget) = opts.budget {
        diagnostics.extend(check_om301(&ledger, budget));
    }
    diagnostics.extend(check_om401(graph, cost, &spans, &ledger));
    if opts.baseline {
        diagnostics.extend(check_om501(graph, schedule, cost, &ledger, opts.budget));
    }
    Ok(MemAnalysis {
        ledger,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost, UnitCost};
    use ooo_core::datapar::{simulate_data_parallel, CommPolicy};
    use ooo_core::memory::memory_profile;
    use ooo_core::reverse_k::reverse_first_k;

    fn om_codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn sequential_ledger_matches_memory_profile_peak() {
        // On a strictly sequential single-lane schedule the event ledger
        // and the sequential alloc/free accounting see the same live set
        // at every instant, so the peaks must agree.
        for graph in [TrainGraph::single_gpu(6), TrainGraph::data_parallel(5)] {
            for order in [graph.conventional_backprop(), graph.fast_forward_backprop()] {
                let profile = memory_profile(&graph, &order, &UnitCost).unwrap();
                let s = Schedule::single_lane("gpu", order);
                let ledger = ledger_of_schedule(&graph, &s, &UnitCost).unwrap();
                assert_eq!(ledger.peak, profile.peak);
                assert_eq!(ledger.initial, profile.initial);
                assert_eq!(ledger.final_usage, profile.samples.last().unwrap().1);
            }
        }
    }

    #[test]
    fn ledger_matches_instrumented_counter_on_datapar() {
        let graph = TrainGraph::data_parallel(7);
        let mut cost = TableCost::uniform(
            7,
            LayerCost {
                sync_weight: 3,
                weight_bytes: 2,
                activation_bytes: 4,
                out_grad_bytes: 3,
                ..LayerCost::default()
            },
        );
        cost.layer_mut(LayerId(1)).sync_weight = 9;
        for k in [0, 3, 7] {
            let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
            let timeline =
                simulate_data_parallel(&graph, &order, &cost, CommPolicy::FifoCompletion).unwrap();
            let spans = spans_of_timeline(&timeline);
            let ledger = ledger_of_spans(&graph, &cost, &spans, None).0;
            let counter = instrument_timeline(&graph, &cost, &timeline);
            assert_eq!(ledger.peak, counter.peak, "k={k}");
            assert_eq!(ledger.initial, counter.initial, "k={k}");
            assert_eq!(ledger.final_usage, counter.final_usage, "k={k}");
        }
    }

    #[test]
    fn use_before_definition_is_om101() {
        // dW2 consumes grad[2] before its producer dO3 runs.
        let graph = TrainGraph::single_gpu(3);
        let s = Schedule::single_lane(
            "gpu",
            vec![
                Op::Loss,
                Op::WeightGrad(LayerId(2)),
                Op::OutputGrad(LayerId(3)),
            ],
        );
        let analysis = check_schedule(&graph, &s, &UnitCost, &MemCheckOptions::default()).unwrap();
        assert!(
            om_codes(&analysis.diagnostics).contains(&"OM101"),
            "{:?}",
            analysis.diagnostics
        );
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::UseOfFreedBuffer)
            .unwrap();
        assert!(d.message.contains("grad[2]"), "{}", d.message);
    }

    #[test]
    fn use_after_injected_free_is_om101_and_double_free_is_om201() {
        let graph = TrainGraph::single_gpu(4);
        let s = Schedule::single_lane("gpu", graph.conventional_backprop());
        // Free act[3] after the loss: dO3/dW3 then read a freed buffer.
        let early = FreePlan {
            frees: vec![(Buffer::Activation(3), Op::Loss)],
        };
        let analysis = check_schedule(
            &graph,
            &s,
            &UnitCost,
            &MemCheckOptions {
                plan: Some(&early),
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        assert!(om_codes(&analysis.diagnostics).contains(&"OM101"));

        let double = FreePlan {
            frees: vec![
                (Buffer::Activation(3), Op::OutputGrad(LayerId(3))),
                (Buffer::Activation(3), Op::WeightGrad(LayerId(3))),
            ],
        };
        let analysis = check_schedule(
            &graph,
            &s,
            &UnitCost,
            &MemCheckOptions {
                plan: Some(&double),
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        assert!(om_codes(&analysis.diagnostics).contains(&"OM201"));

        // The untouched schedule is OM-clean.
        let clean = check_schedule(&graph, &s, &UnitCost, &MemCheckOptions::default()).unwrap();
        assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
    }

    #[test]
    fn peak_over_budget_is_om301_with_witness() {
        let graph = TrainGraph::single_gpu(6);
        let s = Schedule::single_lane("gpu", graph.fast_forward_backprop());
        let ledger = ledger_of_schedule(&graph, &s, &UnitCost).unwrap();
        let analysis = check_schedule(
            &graph,
            &s,
            &UnitCost,
            &MemCheckOptions {
                budget: Some(ledger.peak - 1),
                baseline: false,
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        let d = analysis
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::PeakOverBudget)
            .expect("OM301 fires");
        assert!(d.message.contains("resident at the peak"), "{}", d.message);
        assert!(
            d.message.contains(&format!("during [{}, ", ledger.peak_at)),
            "{}",
            d.message
        );
        // Budget met: no OM301.
        let ok = check_schedule(
            &graph,
            &s,
            &UnitCost,
            &MemCheckOptions {
                budget: Some(ledger.peak),
                baseline: false,
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        assert!(ok.diagnostics.is_empty(), "{:?}", ok.diagnostics);
    }

    #[test]
    fn retained_weight_grad_is_om401() {
        // Data-parallel window with S[dW] scheduled but U outside the
        // window: wgrad is retained past its last use. Heavy weight
        // gradients make the retained tail the peak, so the early free
        // strictly lowers it.
        let graph = TrainGraph::data_parallel(4);
        let cost = TableCost::uniform(
            4,
            LayerCost {
                weight_bytes: 10,
                ..LayerCost::default()
            },
        );
        let mut order = graph.conventional_backprop();
        order.retain(|op| !matches!(op, Op::Update(_) | Op::Forward(_)));
        let s = Schedule::single_lane("gpu", order);
        let analysis = check_schedule(&graph, &s, &cost, &MemCheckOptions::default()).unwrap();
        let om401: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::RetainedPastLastUse)
            .collect();
        assert!(!om401.is_empty(), "{:?}", analysis.diagnostics);
        assert!(om401[0].message.contains("wgrad["), "{}", om401[0].message);
        assert!(
            om401[0].message.contains("lowers the peak"),
            "{}",
            om401[0].message
        );
    }

    #[test]
    fn reorder_inflating_peak_is_om501_with_validated_deferral() {
        // A heavy dW1 executed as early as legality allows, with its
        // sync at the very end of the lane: wgrad[1] spans most of the
        // backward pass. In the conventional baseline S[dW1] directly
        // follows dW1, so the buffer is brief there; deferring dW1 to
        // just before its sync restores the in-order peak.
        let graph = TrainGraph::data_parallel(5);
        let mut cost = TableCost::uniform(5, LayerCost::default());
        cost.layer_mut(LayerId(1)).weight_bytes = 50;
        let mut order = vec![Op::Loss];
        for i in (2..=5).rev() {
            order.push(Op::OutputGrad(LayerId(i)));
        }
        order.push(Op::WeightGrad(LayerId(1)));
        for i in (2..=5).rev() {
            order.push(Op::WeightGrad(LayerId(i)));
            order.push(Op::SyncWeightGrad(LayerId(i)));
            order.push(Op::Update(LayerId(i)));
        }
        order.push(Op::SyncWeightGrad(LayerId(1)));
        order.push(Op::Update(LayerId(1)));
        for i in 1..=5 {
            order.push(Op::Forward(LayerId(i)));
        }
        let s = Schedule::single_lane("gpu", order);
        let analysis = check_schedule(
            &graph,
            &s,
            &cost,
            &MemCheckOptions {
                baseline: true,
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        let om501: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::ReorderInflatesPeak)
            .collect();
        assert_eq!(om501.len(), 1, "{:?}", analysis.diagnostics);
        assert!(
            om501[0].message.contains("deferring dW1"),
            "{}",
            om501[0].message
        );
    }

    #[test]
    fn conventional_schedules_are_om_clean_across_families() {
        for graph in [
            TrainGraph::single_gpu(5),
            TrainGraph::data_parallel(5),
            TrainGraph::pipeline_parallel(5),
        ] {
            let s = Schedule::single_lane("gpu", graph.conventional_backprop());
            let analysis = check_schedule(
                &graph,
                &s,
                &UnitCost,
                &MemCheckOptions {
                    baseline: true,
                    ..MemCheckOptions::default()
                },
            )
            .unwrap();
            assert!(
                analysis.diagnostics.is_empty(),
                "{:?}",
                analysis.diagnostics
            );
        }
    }

    #[test]
    fn malformed_schedule_is_an_error_not_a_panic() {
        let graph = TrainGraph::single_gpu(3);
        let s = Schedule::single_lane("gpu", vec![Op::Forward(LayerId(9))]);
        assert!(check_schedule(&graph, &s, &UnitCost, &MemCheckOptions::default()).is_err());
    }
}
