//! Static makespan prediction by cost-model list evaluation.
//!
//! [`predict_makespan`] derives exact start/finish times for every op of
//! a fixed multi-lane [`Schedule`] without running a discrete-event
//! simulation: the union graph (per-lane program order plus the
//! dependency edges between scheduled ops) is evaluated once in
//! topological order with the recurrence
//!
//! ```text
//! start(op) = max(finish(lane predecessor), max over deps finish(dep))
//! finish(op) = start(op) + cost.duration(op)
//! ```
//!
//! which is the same recurrence [`ooo_core::list_scheduling::simulate`]
//! resolves event by event — so for any fixed schedule the prediction
//! matches the simulated timeline **exactly** (tolerance 0). Dependencies
//! outside the schedule are treated as finished at time zero, supporting
//! the partial schedules of reverse first-k scheduling. The pass indexes
//! ops through the graph's dense op ids, so it builds no per-call op map
//! or edge tables.
//!
//! [`DeltaEval`] keeps that timing state for a schedule under edit, plus
//! a topological rank of the union graph. An edit repairs the rank
//! locally (Pearce & Kelly; a repair that closes a cycle is the
//! deadlock, reported as the first dependency edge on it) and re-times
//! events, not cones: from the ops whose inputs the edit changed, in
//! rank order, a successor is re-timed only when a predecessor's finish
//! actually moved. [`DeltaEval::probe`] scores a relocation batch
//! without keeping it, restoring times and ranks from the edit's undo
//! log — the tuner's per-candidate score. [`DeltaEval::keeps_critical_path`]
//! answers, before any probe, whether a batch leaves one critical path
//! of the state untouched — then the batch cannot shorten the schedule —
//! and [`DeltaEval::certainly_deadlocks`] whether a single move or a
//! `[dW_i, U_i]` block closes a cycle through the state's own paths.
//!
//! [`datapar_schedule`] statically reconstructs the two-lane schedule
//! realized by [`ooo_core::datapar::simulate_data_parallel`] for a given
//! backward order and communication policy; predicting it reproduces the
//! data-parallel simulator's makespan exactly (zero latency tail).

use ooo_core::cost::CostModel;
use ooo_core::datapar::CommPolicy;
use ooo_core::op::LayerId;
use ooo_core::schedule::Schedule;
use ooo_core::{Error, Op, SimTime, TrainGraph};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

/// One scheduled operation with its predicted interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedOp {
    /// The operation.
    pub op: Op,
    /// Index of the lane it is placed on.
    pub lane: usize,
    /// Position within the lane.
    pub index: usize,
    /// Predicted start time (ns).
    pub start: SimTime,
    /// Predicted finish time (ns).
    pub end: SimTime,
}

/// The outcome of statically evaluating one schedule.
#[derive(Debug, Clone)]
pub struct Prediction {
    lane_names: Vec<String>,
    ops: Vec<PredictedOp>,
    /// Op → node index, built on the first [`Prediction::start_of`] /
    /// [`Prediction::finish_of`]: scoring callers only read the makespan.
    index: OnceLock<HashMap<Op, usize>>,
    /// For each op (by node index), the node whose finish bound its start
    /// (`None` for ops starting at time zero).
    binding: Vec<Option<usize>>,
    makespan: SimTime,
}

impl Prediction {
    /// The predicted makespan: latest finish across all lanes.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Every op with its predicted interval, in lane-major schedule
    /// order.
    pub fn ops(&self) -> &[PredictedOp] {
        &self.ops
    }

    /// The lane names, in schedule order.
    pub fn lane_names(&self) -> &[String] {
        &self.lane_names
    }

    fn node_of(&self, op: Op) -> Option<&PredictedOp> {
        let index = self.index.get_or_init(|| {
            self.ops
                .iter()
                .enumerate()
                .map(|(i, p)| (p.op, i))
                .collect()
        });
        index.get(&op).map(|&i| &self.ops[i])
    }

    /// Predicted start time of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.start)
    }

    /// Predicted finish time of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.end)
    }

    /// Total predicted busy time of lane `lane`.
    pub fn lane_busy(&self, lane: usize) -> SimTime {
        self.ops
            .iter()
            .filter(|p| p.lane == lane)
            .map(|p| p.end - p.start)
            .sum()
    }

    /// The idle (bubble) fraction across the lanes selected by `select`,
    /// over the full `[0, makespan]` window: `1 - busy / (lanes * makespan)`.
    pub fn idle_fraction(&self, select: impl Fn(&str) -> bool) -> f64 {
        let lanes: Vec<usize> = (0..self.lane_names.len())
            .filter(|&i| select(&self.lane_names[i]))
            .collect();
        if lanes.is_empty() || self.makespan == 0 {
            return 0.0;
        }
        let busy: SimTime = lanes.iter().map(|&i| self.lane_busy(i)).sum();
        1.0 - busy as f64 / (lanes.len() as SimTime * self.makespan) as f64
    }

    /// One predicted critical path: a chain of ops, each starting exactly
    /// when its binding predecessor finishes, ending at the makespan.
    /// Deterministic (ties resolve to the smallest node index).
    pub fn critical_ops(&self) -> Vec<Op> {
        let Some(last) = self
            .ops
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.end.cmp(&b.end).then(ib.cmp(ia)))
            .map(|(i, _)| i)
        else {
            return Vec::new();
        };
        let mut chain = Vec::new();
        let mut cur = Some(last);
        while let Some(i) = cur {
            chain.push(self.ops[i].op);
            cur = self.binding[i];
        }
        chain.reverse();
        chain
    }
}

/// Marks a graph op that is not in the schedule being predicted.
const UNSCHEDULED: usize = usize::MAX;

/// Statically evaluates `schedule` under `cost`: a single topological
/// pass over the union of lane program order and dependency edges.
///
/// Nodes are addressed through the graph's dense op indices
/// ([`TrainGraph::op_index`], [`TrainGraph::dep_indices`]): a node's
/// union-graph predecessors are its lane predecessor and its scheduled
/// dependencies, its successors its lane successor and its scheduled
/// dependents, so the pass needs no per-call op map or edge tables.
///
/// # Errors
///
/// Mirrors [`ooo_core::list_scheduling::simulate`]:
/// [`Error::UnknownOp`] / [`Error::DuplicateOp`] for malformed schedules
/// and [`Error::DependencyViolation`] when the lanes deadlock.
pub fn predict_makespan<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<Prediction, Error> {
    let total: usize = schedule.lanes.iter().map(|l| l.ops.len()).sum();
    // Node index (lane-major) of every scheduled op, by dense op index.
    let mut node_of: Vec<usize> = vec![UNSCHEDULED; graph.len()];
    let mut ids: Vec<usize> = Vec::with_capacity(total);
    let mut nodes: Vec<PredictedOp> = Vec::with_capacity(total);
    for (li, lane) in schedule.lanes.iter().enumerate() {
        for (pos, &op) in lane.ops.iter().enumerate() {
            let v = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
            if node_of[v] != UNSCHEDULED {
                return Err(Error::DuplicateOp(op));
            }
            node_of[v] = nodes.len();
            ids.push(v);
            nodes.push(PredictedOp {
                op,
                lane: li,
                index: pos,
                start: 0,
                end: 0,
            });
        }
    }

    // Union-graph in-degree: the lane predecessor plus every *scheduled*
    // dependency (outside deps are complete at time zero). Nodes are
    // lane-major, so node `i`'s lane predecessor is `i - 1` whenever its
    // position is nonzero.
    let n = nodes.len();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| {
            let scheduled_deps = graph
                .dep_indices(ids[i])
                .iter()
                .filter(|&&d| node_of[d] != UNSCHEDULED)
                .count();
            usize::from(nodes[i].index > 0) + scheduled_deps
        })
        .collect();

    let mut binding: Vec<Option<usize>> = vec![None; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop() {
        done += 1;
        // The first predecessor reaching the maximum finish becomes the
        // binding one (lane predecessor first, then deps in graph order).
        let mut start: SimTime = 0;
        if nodes[i].index > 0 && nodes[i - 1].end > start {
            start = nodes[i - 1].end;
            binding[i] = Some(i - 1);
        }
        for &d in graph.dep_indices(ids[i]) {
            if node_of[d] == UNSCHEDULED {
                continue;
            }
            let p = node_of[d];
            if nodes[p].end > start {
                start = nodes[p].end;
                binding[i] = Some(p);
            }
        }
        nodes[i].start = start;
        nodes[i].end = start + cost.duration(nodes[i].op);
        let lane_succ = (i + 1 < n && nodes[i + 1].index > 0).then_some(i + 1);
        let dependents = graph
            .dependent_indices(ids[i])
            .iter()
            .filter(|&&s| node_of[s] != UNSCHEDULED)
            .map(|&s| node_of[s]);
        for s in lane_succ.into_iter().chain(dependents) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if done < n {
        // The union graph has a cycle: the lanes deadlock. Report one
        // blocked op with a scheduled-but-unfinished dependency, the way
        // the simulator does.
        let blocked = (0..n).find(|&i| indeg[i] > 0).expect("cycle exists");
        let op = nodes[blocked].op;
        let missing = graph
            .dep_indices(ids[blocked])
            .iter()
            .find(|&&d| node_of[d] != UNSCHEDULED && indeg[node_of[d]] > 0)
            .map_or(op, |&d| graph.ops()[d]);
        return Err(Error::DependencyViolation {
            op,
            missing_dep: missing,
        });
    }

    let makespan = nodes.iter().map(|p| p.end).max().unwrap_or(0);
    Ok(Prediction {
        lane_names: schedule.lanes.iter().map(|l| l.name.clone()).collect(),
        ops: nodes,
        index: OnceLock::new(),
        binding,
        makespan,
    })
}

/// Statically reconstructs the two-lane schedule the data-parallel
/// simulator realizes for `backward` under `policy`: the compute lane
/// runs the backward order followed by `U_i`/`F_i` in layer order, the
/// link lane serves each `S[dW_i]` in the order the policy would pick it
/// given the sequential backward finish times.
///
/// Predicting the returned schedule reproduces
/// [`ooo_core::datapar::simulate_data_parallel`]'s timeline exactly
/// (zero latency tail).
///
/// # Errors
///
/// Propagates validation errors when `backward` is not a valid partial
/// order of `graph`.
pub fn datapar_schedule<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<Schedule, Error> {
    ooo_core::schedule::validate_partial_order(graph, backward)?;
    let l = graph.layers();

    // Sequential backward finish times drive the policy's pick order.
    let mut t: SimTime = 0;
    let mut dw_finish: Vec<SimTime> = vec![0; l + 1];
    for &op in backward {
        t += cost.duration(op);
        if let Op::WeightGrad(LayerId(i)) = op {
            dw_finish[i] = t;
        }
    }

    let mut compute: Vec<Op> = backward.to_vec();
    for i in 1..=l {
        let u = Op::Update(LayerId(i));
        if graph.contains(u) {
            compute.push(u);
        }
        compute.push(Op::Forward(LayerId(i)));
    }
    let mut schedule = Schedule::new();
    schedule.add_lane("gpu", compute);

    if graph.contains(Op::SyncWeightGrad(LayerId(1))) {
        // Service order from the shared O(L log L) planner — the pick
        // sequence is provably identical to the old scan-and-retain loop
        // (see `ooo_core::datapar::plan_sync_service`).
        let mut plan = Vec::new();
        ooo_core::datapar::plan_sync_service(
            &dw_finish,
            policy,
            |i| cost.duration(Op::SyncWeightGrad(LayerId(i))),
            &mut BinaryHeap::new(),
            &mut plan,
        );
        let link = plan
            .into_iter()
            .map(|(pick, _, _)| Op::SyncWeightGrad(LayerId(pick)))
            .collect();
        schedule.add_lane("link", link);
    }
    Ok(schedule)
}

/// Per-op placement and timing state inside a [`DeltaEval`], indexed by
/// the op's dense graph index.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    scheduled: bool,
    lane: usize,
    pos: usize,
    start: SimTime,
    end: SimTime,
}

const UNPLACED: NodeState = NodeState {
    scheduled: false,
    lane: 0,
    pos: 0,
    start: 0,
    end: 0,
};

/// The spacing of a [`DeltaEval`]'s committed ranks: every committed
/// rank is a multiple of it, so the `RANK_STRIDE - 1` values between two
/// neighbouring ranks are free for a probe's one-sided repair.
const RANK_STRIDE: u64 = 1 << 16;

/// Reusable work buffers of a [`DeltaEval`]. Marks are epoch-stamped, so
/// starting a search or a pass clears nothing; once the buffers have
/// grown to the largest edit seen, edits and probes run without
/// allocating.
#[derive(Debug, Clone, Default)]
struct Scratch {
    epoch: u32,
    /// Node `v` was reached by the current search or pass iff
    /// `mark[v] == epoch`.
    mark: Vec<u32>,
    /// The node the current forward search first reached `v` from.
    via: Vec<usize>,
    seeds: Vec<usize>,
    stack: Vec<usize>,
    /// The backward search's stack while both searches of a one-sided
    /// repair run.
    back_stack: Vec<usize>,
    /// What a rank repair reorders: the nodes the new edge's head
    /// reaches, and the nodes that reach its tail.
    forward: Vec<usize>,
    backward: Vec<usize>,
    ranks: Vec<u64>,
    /// The stride gaps (`rank / RANK_STRIDE`) a one-sided repair of the
    /// current probe has dealt ranks into: each gap takes one set.
    gaps: Vec<u64>,
    /// How often a probe took each repair path: see [`RepairCounts`].
    #[cfg(test)]
    repairs: RepairCounts,
    /// Nodes due for re-timing, lowest rank first.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// The undo log of the current edit: `(node, start, end)` before the
    /// pass re-timed the node, and `(node, rank)` before a repair moved
    /// it.
    undo: Vec<(usize, SimTime, SimTime)>,
    rank_undo: Vec<(usize, u64)>,
    /// The validated batch: `(node, target lane, target position)`.
    batch: Vec<(usize, usize, usize)>,
    /// Per moved node, before the edit: `(node, lane, lane predecessor,
    /// lane successor)`.
    before: Vec<(usize, usize, Option<usize>, Option<usize>)>,
    /// Structural log of the current edit, `(lane, position, node)`:
    /// removals in the order applied (descending), then insertions in
    /// the order applied (ascending).
    removed: Vec<(usize, usize, usize)>,
    inserted: Vec<(usize, usize, usize)>,
    /// Per touched lane: `(lane, first, last)` positions whose node may
    /// have changed (`last == usize::MAX`: through the end of the lane).
    spans: Vec<(usize, usize, usize)>,
}

/// Test-only tallies of the probe's rank-repair paths, so a randomized
/// test can show it reached each one.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct RepairCounts {
    /// One-sided repairs that re-ranked the forward set (above `x`).
    forward: u32,
    /// One-sided repairs that re-ranked the backward set (below `y`).
    backward: u32,
    /// Multi-edge batches settled by the span re-deal.
    redealt: u32,
    /// Edges whose searches met: a cycle.
    cycle: u32,
    /// Edges whose re-ranked side needed an endpoint off the stride.
    off_stride: u32,
    /// Edges whose re-ranked side needed a gap an earlier repair of the
    /// probe had filled.
    gap_taken: u32,
}

impl Scratch {
    fn sized(n: usize) -> Self {
        Scratch {
            mark: vec![0; n],
            via: vec![0; n],
            ..Scratch::default()
        }
    }

    /// Starts a new search or pass: every mark of the previous ones goes
    /// stale.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` reached, reporting whether it was new to this epoch.
    fn reach(&mut self, v: usize) -> bool {
        let fresh = self.mark[v] != self.epoch;
        self.mark[v] = self.epoch;
        fresh
    }
}

/// Incremental (delta) makespan evaluator over the union graph.
///
/// Maintains the exact [`predict_makespan`] timing state for a mutable
/// multi-lane schedule, but after each edit — [`DeltaEval::place`],
/// [`DeltaEval::unplace_last`] or [`DeltaEval::relocate_many`] — re-times
/// only what the edit changed. The evaluator keeps a topological rank of
/// the union graph for every op. An edit seeds the ops whose inputs it
/// changed structurally (a new lane predecessor, a removed dependency);
/// from there times propagate in rank order, and a successor is
/// re-timed only when a predecessor's finish actually changed. Moving a
/// `dW` — a leaf — shifts its lane's tail until the first slack absorbs
/// the shift, and the pass stops there. For every reachable state the
/// times equal a fresh `predict_makespan` of [`DeltaEval::to_schedule`]
/// at tolerance 0 (the recurrence is identical; only the evaluation
/// order differs, and the recurrence is confluent).
///
/// The rank is repaired locally when an edit adds edges that run against
/// it (Pearce & Kelly, "A dynamic topological sort algorithm for
/// directed acyclic graphs", JEA 2006): for a new edge `x → y` with
/// `rank(x) > rank(y)`, only nodes ranked between the two are searched
/// and reordered. A batch that runs two or more new lane edges against
/// the order, with every op kept on its lane, first deals each touched
/// lane span's own ranks out again in the new lane order, and falls back
/// to the per-edge repair when an edge at the span does not then hold.
/// A forward search from `y` that reaches `x` is a cycle:
/// the lanes deadlock. Edits are all-or-nothing: such an edit is rolled
/// back structurally and rank-wise, and reported as
/// [`Error::DependencyViolation`] naming the first dependency edge `d → v`
/// on the cycle, read from the new edge `x → y` on along the search path
/// (`op` is `v`, `missing_dep` is `d`). Lanes are disjoint chains, so
/// every cycle takes a dependency edge, and both ops never run.
/// [`DeltaEval::new`] reports a deadlocked input by
/// [`predict_makespan`]'s own rule. [`DeltaEval::probe`] scores a
/// relocation batch without keeping it: the undo log of times and ranks
/// restores the prior state exactly.
///
/// Committed ranks are strided: [`DeltaEval::new`], the Kahn pass and
/// [`DeltaEval::place`] hand out multiples of `RANK_STRIDE` (2^16), and
/// the Pearce–Kelly repair and the span re-deal only deal existing values
/// out again, so after every committed edit each rank sits on the stride
/// and the values between two ranks are free. A probe uses them: its
/// per-edge repair searches forward from `y` and backward from `x` in
/// lockstep, one node each in turn, and re-ranks only the side that
/// finishes first — the forward set into the free slots just above
/// `rank(x)`, the backward set into those just below `rank(y)`, each in
/// its old relative order. The forward set holds every node ranked below
/// `rank(x)` that `y` reaches, the backward set every node ranked above
/// `rank(y)` that reaches `x`, so moving either one past the other
/// endpoint keeps every ordered edge ordered; the side that finishes
/// first is never the larger one, and the other is searched no further.
/// Three cases take the two-sided repair instead: the searches meet
/// (a cycle), the endpoint the finished side needs is off the stride
/// (an earlier repair of the same probe moved it) or its gap already
/// holds such a set, and a side reaches half a stride. A probe whose
/// batch closes a cycle then restores its ranks and repairs every edge
/// two-sided from the incumbent's, exactly as a committed edit does, so
/// its error names the same ops. Committed edits never take the
/// one-sided path: their ranks are the same as without it.
///
/// The evaluator also marks one critical path of its state — a chain of
/// tight edges from an op starting at 0 to one finishing at the
/// makespan — built lazily by [`DeltaEval::keeps_critical_path`] and
/// dropped by every committed edit (a probe restores the state, so the
/// path stays valid across probes). A batch that moves no op of that
/// path keeps a path of the same length, so its makespan is at least
/// the current one: the tuner drops such a candidate unprobed when the
/// current makespan already reaches the score it must beat.
///
/// It also keeps per-lane ancestry clocks of its state: for every op and
/// lane, the last lane position of an ancestor-or-self and the first of
/// a descendant-or-self, filled in rank order by
/// [`DeltaEval::certainly_deadlocks`] on first use and dropped by every
/// committed edit, like the critical path. A single move, or a
/// `[dW_i, U_i]` block landing contiguously, closes a cycle when a
/// dependency of its source has an ancestor at or after its new lane
/// successor, or a dependent of its sink has a descendant at or before
/// its new lane predecessor. The path behind such a clock cannot pass
/// through the moved ops — through the source it would close a cycle
/// with the source's own dependency, through the sink with the
/// source → sink dependency — so it survives the move (an op inserted
/// between two lane neighbours only lengthens their edge into a chain)
/// and closes the cycle through the block's new lane edge. For single
/// moves the test is also complete: every cycle the move closes runs
/// through one of those two edges.
///
/// The evaluator keeps two work counters — [`DeltaEval::rescored`]
/// (nodes re-timed: the seeds plus every node with a changed input) and
/// [`DeltaEval::full_equivalent`] (nodes a full re-evaluation would have
/// scored per edit) — whose ratio is the delta-evaluation speedup the
/// certifier reports. Under the branch-and-bound discipline (appends
/// whose dependencies are all placed, undone last-in first-out) an edit
/// re-times exactly its one new node, or nothing, so the counts equal
/// those of a pass over the whole affected cone. Probes count in
/// neither.
#[derive(Debug, Clone)]
pub struct DeltaEval<'g> {
    graph: &'g TrainGraph,
    dur: Vec<SimTime>,
    lane_names: Vec<String>,
    /// Dense op indices per lane, in program order.
    lanes: Vec<Vec<usize>>,
    nodes: Vec<NodeState>,
    /// A topological order of the union graph: `rank[u] < rank[v]` for
    /// every edge `u → v` between scheduled ops. Ranks are distinct over
    /// all ops; an unscheduled op has no edges, so its rank is free.
    rank: Vec<u64>,
    /// The next unused rank: a placed op starts after everything.
    next_rank: u64,
    scheduled: usize,
    makespan: SimTime,
    rescored: u64,
    full_equivalent: u64,
    critical: CriticalPath,
    clocks: LaneClocks,
    scratch: Scratch,
}

/// Per-lane ancestry clocks of a [`DeltaEval`]'s current state, stored
/// row-major by node (`row = v * lanes`). Built on first use after a
/// committed edit; probes restore the state they read, so they leave
/// them valid.
#[derive(Debug, Clone, Default)]
struct LaneClocks {
    fresh: bool,
    /// `anc[v * lanes + l]`: one past the last position on lane `l` of an
    /// ancestor-or-self of `v` (`0`: none).
    anc: Vec<u32>,
    /// `desc[v * lanes + l]`: the first position on lane `l` of a
    /// descendant-or-self of `v` (`u32::MAX`: none).
    desc: Vec<u32>,
    /// The scheduled nodes in rank order.
    order: Vec<usize>,
}

/// One critical path of a [`DeltaEval`]'s current state, marked by node:
/// a chain of union-graph edges, each tight (the predecessor finishes
/// exactly when its successor starts), from an op starting at 0 to a
/// lane-final op finishing at the makespan. Built on first use after a
/// committed edit; probes restore the state they read, so they leave it
/// valid.
#[derive(Debug, Clone, Default)]
struct CriticalPath {
    fresh: bool,
    /// `on[v]` iff node `v` is on the path.
    on: Vec<bool>,
}

impl<'g> DeltaEval<'g> {
    /// An evaluator over `graph` with the given (empty) lanes.
    pub fn empty<C: CostModel>(
        graph: &'g TrainGraph,
        lane_names: impl IntoIterator<Item = impl Into<String>>,
        cost: &C,
    ) -> Self {
        let n = graph.len();
        let names: Vec<String> = lane_names.into_iter().map(Into::into).collect();
        DeltaEval {
            graph,
            dur: graph.ops().iter().map(|&op| cost.duration(op)).collect(),
            lanes: vec![Vec::new(); names.len()],
            lane_names: names,
            nodes: vec![UNPLACED; n],
            rank: (0..n as u64).map(|r| r * RANK_STRIDE).collect(),
            next_rank: n as u64 * RANK_STRIDE,
            scheduled: 0,
            makespan: 0,
            rescored: 0,
            full_equivalent: 0,
            critical: CriticalPath {
                fresh: false,
                on: vec![false; n],
            },
            clocks: LaneClocks::default(),
            scratch: Scratch::sized(n),
        }
    }

    /// An evaluator seeded from an existing (possibly partial) schedule.
    ///
    /// # Errors
    ///
    /// Mirrors [`predict_makespan`]: [`Error::UnknownOp`] /
    /// [`Error::DuplicateOp`] for malformed schedules and
    /// [`Error::DependencyViolation`] when the lanes deadlock, naming the
    /// same ops.
    pub fn new<C: CostModel>(
        graph: &'g TrainGraph,
        schedule: &Schedule,
        cost: &C,
    ) -> Result<Self, Error> {
        let mut de = Self::empty(graph, schedule.lanes.iter().map(|l| l.name.clone()), cost);
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for &op in &lane.ops {
                let v = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
                if de.nodes[v].scheduled {
                    return Err(Error::DuplicateOp(op));
                }
                de.nodes[v] = NodeState {
                    scheduled: true,
                    lane: li,
                    pos: de.lanes[li].len(),
                    start: 0,
                    end: 0,
                };
                de.lanes[li].push(v);
                de.scheduled += 1;
            }
        }
        de.full_equivalent += de.scheduled as u64;
        de.rank_and_time()?;
        #[cfg(test)]
        de.assert_ranked();
        Ok(de)
    }

    /// The current makespan: latest finish across all lanes.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Number of scheduled ops.
    pub fn num_scheduled(&self) -> usize {
        self.scheduled
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of ops currently on lane `lane`.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// Time lane `lane` becomes available: the finish of its last op
    /// (lane times are monotone along program order), `0` when empty.
    pub fn lane_available(&self, lane: usize) -> SimTime {
        self.lanes[lane]
            .last()
            .map(|&v| self.nodes[v].end)
            .unwrap_or(0)
    }

    /// Current `(lane, position)` of `op`, if scheduled.
    pub fn position_of(&self, op: Op) -> Option<(usize, usize)> {
        let v = self.graph.op_index(op)?;
        let st = self.nodes[v];
        st.scheduled.then_some((st.lane, st.pos))
    }

    /// Current start time of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        let v = self.graph.op_index(op)?;
        self.nodes[v].scheduled.then_some(self.nodes[v].start)
    }

    /// Current finish time of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        let v = self.graph.op_index(op)?;
        self.nodes[v].scheduled.then_some(self.nodes[v].end)
    }

    /// Start and finish of the op with dense index `v` (graph op order);
    /// meaningful only while that op is scheduled.
    pub fn span_at(&self, v: usize) -> (SimTime, SimTime) {
        let node = &self.nodes[v];
        (node.start, node.end)
    }

    /// Nodes re-timed by delta evaluation so far.
    pub fn rescored(&self) -> u64 {
        self.rescored
    }

    /// Nodes full re-evaluation would have scored over the same edits.
    pub fn full_equivalent(&self) -> u64 {
        self.full_equivalent
    }

    /// The current placement as a plain [`Schedule`].
    pub fn to_schedule(&self) -> Schedule {
        let mut s = Schedule::new();
        for (li, lane) in self.lanes.iter().enumerate() {
            s.add_lane(
                &self.lane_names[li],
                lane.iter().map(|&v| self.graph.ops()[v]).collect(),
            );
        }
        s
    }

    /// Appends `op` to the end of lane `lane` and re-times what changed.
    /// For the branch-and-bound append discipline (all dependencies
    /// already placed, no dependents placed) that is the single new node
    /// — an O(deps) update. Returns the new makespan.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOp`] if `op` is not in the graph,
    /// [`Error::DuplicateOp`] if already placed,
    /// [`Error::InvalidConfig`] if `lane` is out of range, and
    /// [`Error::DependencyViolation`] (with the placement rolled back)
    /// if the append deadlocks the lanes.
    pub fn place(&mut self, lane: usize, op: Op) -> Result<SimTime, Error> {
        let v = self.graph.op_index(op).ok_or(Error::UnknownOp(op))?;
        if self.nodes[v].scheduled {
            return Err(Error::DuplicateOp(op));
        }
        if lane >= self.lanes.len() {
            return Err(Error::InvalidConfig(format!(
                "lane {lane} out of range ({} lanes)",
                self.lanes.len()
            )));
        }
        self.nodes[v] = NodeState {
            scheduled: true,
            lane,
            pos: self.lanes[lane].len(),
            start: 0,
            end: 0,
        };
        self.lanes[lane].push(v);
        self.scheduled += 1;
        self.full_equivalent += self.scheduled as u64;
        // Ranked after everything, the new node's in-edges (its lane
        // predecessor and dependencies) hold; only edges to dependents
        // placed before it can run against the order.
        self.rank[v] = self.next_rank;
        self.next_rank += RANK_STRIDE;
        self.scratch.rank_undo.clear();
        let graph = self.graph;
        let ordered = graph.dependent_indices(v).iter().try_for_each(|&d| {
            if self.nodes[d].scheduled {
                self.order_edge(v, d)
            } else {
                Ok(())
            }
        });
        if let Err(err) = ordered {
            self.restore_ranks();
            self.lanes[lane].pop();
            self.nodes[v] = UNPLACED;
            self.scheduled -= 1;
            #[cfg(test)]
            self.assert_ranked();
            return Err(err);
        }
        self.scratch.seeds.clear();
        self.scratch.seeds.push(v);
        self.rescored += self.retime() as u64;
        self.refresh_makespan();
        self.critical.fresh = false;
        self.clocks.fresh = false;
        #[cfg(test)]
        self.assert_ranked();
        Ok(self.makespan)
    }

    /// Removes the last op of lane `lane` (the inverse of
    /// [`DeltaEval::place`]) and re-times what the removal relaxed.
    /// Returns the removed op, or `None` when the lane is empty.
    pub fn unplace_last(&mut self, lane: usize) -> Option<Op> {
        let v = self.lanes[lane].pop()?;
        self.nodes[v] = UNPLACED;
        self.scheduled -= 1;
        // Removing a node deletes edges, so the rank order still holds,
        // and only relaxes its union-graph successors; the popped node
        // was last on its lane, so only graph dependents of `v` that are
        // still scheduled can change.
        let nodes = &self.nodes;
        self.scratch.seeds.clear();
        self.scratch.seeds.extend(
            self.graph
                .dependent_indices(v)
                .iter()
                .copied()
                .filter(|&d| nodes[d].scheduled),
        );
        self.full_equivalent += self.scheduled as u64;
        if !self.scratch.seeds.is_empty() {
            self.rescored += self.retime() as u64;
        }
        self.refresh_makespan();
        self.critical.fresh = false;
        self.clocks.fresh = false;
        #[cfg(test)]
        self.assert_ranked();
        Some(self.graph.ops()[v])
    }

    /// Applies a batch of relocations atomically: every `(op, lane, pos)`
    /// is removed from its current slot, then re-inserted at the target
    /// coordinates (interpreted against the final lane contents, applied
    /// in ascending `(lane, pos)` order; positions are clamped to the
    /// lane length). Only the ops whose lane predecessor changed, and
    /// the successors whose inputs then change, are re-timed. Returns the
    /// new makespan.
    ///
    /// Batching matters: block moves such as relocating `[dW_i, U_i]`
    /// together have no legal single-op intermediate state.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownOp`] for ops not in the graph or not scheduled,
    /// [`Error::DuplicateOp`] for an op listed twice,
    /// [`Error::InvalidConfig`] for an out-of-range target lane, and
    /// [`Error::DependencyViolation`] — with the whole batch rolled
    /// back — when the move deadlocks the lanes.
    pub fn relocate_many(&mut self, moves: &[(Op, usize, usize)]) -> Result<SimTime, Error> {
        if moves.is_empty() {
            return Ok(self.makespan);
        }
        self.edit(moves)?;
        self.full_equivalent += self.scheduled as u64;
        if let Err(err) = self.order_seeds(false) {
            self.restore_ranks();
            self.unedit();
            #[cfg(test)]
            self.assert_ranked();
            return Err(err);
        }
        self.rescored += self.retime() as u64;
        self.refresh_makespan();
        self.critical.fresh = false;
        self.clocks.fresh = false;
        #[cfg(test)]
        self.assert_ranked();
        Ok(self.makespan)
    }

    /// Relocates a single op; see [`DeltaEval::relocate_many`].
    pub fn relocate(&mut self, op: Op, lane: usize, pos: usize) -> Result<SimTime, Error> {
        self.relocate_many(&[(op, lane, pos)])
    }

    /// Scores the relocation batch `moves` (the semantics of
    /// [`DeltaEval::relocate_many`]) without keeping it: the batch is
    /// applied, the rank repaired, the changed ops re-timed and the
    /// makespan read off; then the exact prior state — lanes, ranks,
    /// times, makespan, counters — is restored from the undo log, with
    /// no second pass. Returns the makespan the batch would have.
    ///
    /// # Errors
    ///
    /// As [`DeltaEval::relocate_many`].
    pub fn probe(&mut self, moves: &[(Op, usize, usize)]) -> Result<SimTime, Error> {
        self.probe_with(moves, |_, makespan| makespan)
    }

    /// [`DeltaEval::probe`], handing the probed state to `read` before
    /// the restore: `read` sees the batch applied — its lanes, positions
    /// and times ([`DeltaEval::span_at`]) — and its makespan, passed
    /// alongside (the stored [`DeltaEval::makespan`] is not refreshed
    /// for a probe). Returns what `read` returns. The rank is repaired
    /// one-sided where it can be (see [`DeltaEval`]), since the probe's
    /// ranks are restored anyway.
    ///
    /// # Errors
    ///
    /// As [`DeltaEval::relocate_many`]; `read` does not run then.
    pub fn probe_with<R>(
        &mut self,
        moves: &[(Op, usize, usize)],
        read: impl FnOnce(&Self, SimTime) -> R,
    ) -> Result<R, Error> {
        if moves.is_empty() {
            return Ok(read(self, self.makespan));
        }
        self.edit(moves)?;
        let out = self.order_seeds(true).map(|()| {
            self.retime();
            read(self, self.lane_makespan())
        });
        for &(v, start, end) in &self.scratch.undo {
            self.nodes[v].start = start;
            self.nodes[v].end = end;
        }
        self.restore_ranks();
        self.unedit();
        #[cfg(test)]
        self.assert_ranked();
        out
    }

    /// `true` when no op of the relocation batch `moves` lies on the
    /// current state's critical path. The batch then makes at least
    /// [`DeltaEval::makespan`], or does not evaluate at all. The path's
    /// dependency edges are untouched, and each of its lane edges `u → w`
    /// becomes a lane chain from `u` to `w` (unmoved ops keep their
    /// relative order on a lane), so the edited schedule still contains a
    /// path of the same total duration. An op that is not scheduled is not
    /// on the path. The path is built on the first call after a committed
    /// edit ([`DeltaEval::place`], [`DeltaEval::unplace_last`],
    /// [`DeltaEval::relocate_many`]) in O(ops + path length × degree);
    /// each call is then O(batch).
    pub fn keeps_critical_path(&mut self, moves: &[(Op, usize, usize)]) -> bool {
        if !self.critical.fresh {
            self.mark_critical_path();
        }
        let on = &self.critical.on;
        moves
            .iter()
            .all(|&(op, _, _)| self.graph.op_index(op).is_none_or(|v| !on[v]))
    }

    /// Marks one critical path: from the first lane-final op finishing at
    /// the makespan, back through tight predecessors (lane predecessor
    /// first) until an op starts at 0. Every op with a positive start has
    /// a tight predecessor, since its start is its predecessors' latest
    /// finish.
    fn mark_critical_path(&mut self) {
        let mut cp = std::mem::take(&mut self.critical);
        cp.on.fill(false);
        let last = self
            .lanes
            .iter()
            .filter_map(|lane| lane.last().copied())
            .find(|&v| self.nodes[v].end == self.makespan);
        let mut next = last;
        while let Some(v) = next {
            cp.on[v] = true;
            let start = self.nodes[v].start;
            next = (start > 0).then(|| {
                self.preds(v)
                    .find(|&p| self.nodes[p].end == start)
                    .expect("a positive start is some predecessor's finish")
            });
        }
        cp.fresh = true;
        self.critical = cp;
    }

    /// `true` when the relocation batch `moves` certainly deadlocks the
    /// lanes: it is a single move, or a pair `[(u, l, p), (v, l, p + 1)]`
    /// with `v` depending on `u` (a `[dW_i, U_i]` block), and a dependency of the block's source has
    /// an ancestor at or after the block's new lane successor, or a
    /// dependent of its sink has a descendant at or before its new lane
    /// predecessor (see [`DeltaEval`] for why that path survives the
    /// move). Every other batch answers `false`. The clocks are built on
    /// the first call after a committed edit in O((ops + edges) × lanes);
    /// each call is then O(degree).
    pub fn certainly_deadlocks(&mut self, moves: &[(Op, usize, usize)]) -> bool {
        let Some((src, sink, lane, to)) = self.block_of(moves) else {
            return false;
        };
        if !self.clocks.fresh {
            self.build_clocks();
        }
        // The block's new lane neighbours, at their current positions:
        // index `i` of the lane without the block's ops is past every
        // removed position at or before it.
        let mut gone = [src, sink].map(|v| {
            let st = self.nodes[v];
            if st.lane == lane {
                st.pos
            } else {
                usize::MAX
            }
        });
        if src == sink {
            gone[1] = usize::MAX;
        }
        gone.sort_unstable();
        let kept = self.lanes[lane].len() - gone.iter().filter(|&&p| p != usize::MAX).count();
        let current = |i: usize| gone.iter().fold(i, |i, &p| i + usize::from(p <= i)) as u32;
        let slot = to.min(kept);
        let pred = (slot > 0).then(|| current(slot - 1));
        let succ = (slot < kept).then(|| current(slot));
        let k = self.lanes.len();
        let (graph, nodes, clocks) = (self.graph, &self.nodes, &self.clocks);
        let scheduled = |v: &&usize| nodes[**v].scheduled;
        succ.is_some_and(|s| {
            graph
                .dep_indices(src)
                .iter()
                .filter(scheduled)
                .any(|&d| clocks.anc[d * k + lane] > s)
        }) || pred.is_some_and(|p| {
            graph
                .dependent_indices(sink)
                .iter()
                .filter(scheduled)
                .any(|&e| clocks.desc[e * k + lane] <= p)
        })
    }

    /// The batch as a block `(source, sink, lane, position)` landing
    /// contiguously on one lane — one scheduled op (`source == sink`), or
    /// two listed at consecutive target positions of one lane, the second
    /// depending on the first — or `None`.
    fn block_of(&self, moves: &[(Op, usize, usize)]) -> Option<(usize, usize, usize, usize)> {
        let node = |op| self.graph.op_index(op).filter(|&v| self.nodes[v].scheduled);
        let (src, sink, lane, to) = match *moves {
            [(op, lane, to)] => {
                let v = node(op)?;
                (v, v, lane, to)
            }
            [(a, la, pa), (b, lb, pb)] if la == lb && pa.checked_add(1) == Some(pb) => {
                (node(a)?, node(b)?, la, pa)
            }
            _ => return None,
        };
        let pair = src == sink || self.graph.dep_indices(sink).contains(&src);
        (pair && lane < self.lanes.len()).then_some((src, sink, lane, to))
    }

    /// Fills the lane clocks: ancestors in rank order, descendants in
    /// reverse rank order, each row the lane-wise extreme over the node's
    /// union-graph neighbours and its own position.
    fn build_clocks(&mut self) {
        let k = self.lanes.len();
        let mut c = std::mem::take(&mut self.clocks);
        c.order.clear();
        c.order.extend(self.lanes.iter().flatten().copied());
        c.order.sort_unstable_by_key(|&v| self.rank[v]);
        c.anc.resize(self.graph.len() * k, 0);
        c.desc.resize(self.graph.len() * k, u32::MAX);
        for &v in &c.order {
            let row = v * k;
            c.anc[row..row + k].fill(0);
            for p in self.preds(v) {
                for l in 0..k {
                    c.anc[row + l] = c.anc[row + l].max(c.anc[p * k + l]);
                }
            }
            let st = self.nodes[v];
            c.anc[row + st.lane] = st.pos as u32 + 1;
        }
        for &v in c.order.iter().rev() {
            let row = v * k;
            c.desc[row..row + k].fill(u32::MAX);
            for w in self.succs(v) {
                for l in 0..k {
                    c.desc[row + l] = c.desc[row + l].min(c.desc[w * k + l]);
                }
            }
            let st = self.nodes[v];
            c.desc[row + st.lane] = st.pos as u32;
        }
        c.fresh = true;
        self.clocks = c;
    }

    /// Validates `moves` into the scratch batch, applies it structurally
    /// (logged for [`DeltaEval::unedit`]), clears the undo log, and
    /// leaves exactly the ops whose lane predecessor changed in the
    /// scratch seeds.
    fn edit(&mut self, moves: &[(Op, usize, usize)]) -> Result<(), Error> {
        let DeltaEval {
            graph,
            lanes,
            nodes,
            scratch: s,
            ..
        } = self;
        s.batch.clear();
        for &(op, to_lane, to_pos) in moves {
            let v = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
            if !nodes[v].scheduled {
                return Err(Error::UnknownOp(op));
            }
            if s.batch.iter().any(|&(w, _, _)| w == v) {
                return Err(Error::DuplicateOp(op));
            }
            if to_lane >= lanes.len() {
                return Err(Error::InvalidConfig(format!(
                    "lane {to_lane} out of range ({} lanes)",
                    lanes.len()
                )));
            }
            s.batch.push((v, to_lane, to_pos));
        }
        s.undo.clear();
        s.rank_undo.clear();
        s.gaps.clear();

        s.before.clear();
        s.removed.clear();
        for &(v, _, _) in &s.batch {
            let st = nodes[v];
            let lane = &lanes[st.lane];
            let pred = (st.pos > 0).then(|| lane[st.pos - 1]);
            s.before
                .push((v, st.lane, pred, lane.get(st.pos + 1).copied()));
            s.removed.push((st.lane, st.pos, v));
        }
        // Remove from the back so every logged position stays valid,
        // then insert in ascending target order so each requested
        // position addresses the final contents.
        s.removed.sort_unstable_by(|a, b| b.cmp(a));
        for &(l, p, _) in &s.removed {
            lanes[l].remove(p);
        }
        s.batch.sort_unstable_by_key(|&(_, l, p)| (l, p));
        s.inserted.clear();
        for &(v, l, p) in &s.batch {
            let p = p.min(lanes[l].len());
            lanes[l].insert(p, v);
            nodes[v].lane = l;
            s.inserted.push((l, p, v));
        }
        // Per touched lane, the positions whose node may have changed:
        // from the first slot an op left or entered to the last (a later
        // insert at or before an earlier one's slot shifts it right, at
        // most once per insert into the lane), or to the lane's end when
        // its length changed.
        s.spans.clear();
        for &(l, _, _) in s.removed.iter().chain(&s.inserted) {
            if s.spans.iter().any(|span| span.0 == l) {
                continue;
            }
            let removed = s.removed.iter().filter(|r| r.0 == l);
            let inserted = s.inserted.iter().filter(|i| i.0 == l);
            let shift = inserted.clone().count().saturating_sub(1);
            let first = removed.clone().chain(inserted.clone()).map(|r| r.1).min();
            let last = removed
                .clone()
                .map(|r| r.1)
                .chain(inserted.clone().map(|i| i.1 + shift))
                .max();
            let (Some(first), Some(mut last)) = (first, last) else {
                continue;
            };
            if removed.count() != inserted.count() {
                last = usize::MAX;
            }
            s.spans.push((l, first, last));
        }
        renumber(lanes, nodes, &s.spans);

        // A node's lane predecessor can only change if it moved, lost its
        // old predecessor to the batch, or gained a moved one.
        let pred_of = |v: usize| {
            let st = nodes[v];
            (st.pos > 0).then(|| lanes[st.lane][st.pos - 1])
        };
        let moved = |w: usize| s.batch.iter().any(|&(v, _, _)| v == w);
        s.seeds.clear();
        for &(v, lane, pred, _) in &s.before {
            if nodes[v].lane != lane || pred_of(v) != pred {
                s.seeds.push(v);
            }
        }
        for &(m, _, _, succ) in &s.before {
            if let Some(w) = succ.filter(|&w| !moved(w)) {
                if pred_of(w) != Some(m) {
                    s.seeds.push(w);
                }
            }
            let st = nodes[m];
            if let Some(&w) = lanes[st.lane].get(st.pos + 1) {
                let old_pred = s.before.iter().find(|b| b.3 == Some(w)).map(|b| b.0);
                if !moved(w) && (old_pred.is_none() || pred_of(w) != old_pred) {
                    s.seeds.push(w);
                }
            }
        }
        s.seeds.sort_unstable();
        s.seeds.dedup();
        Ok(())
    }

    /// Reverts the structural edit of the last [`DeltaEval::edit`].
    fn unedit(&mut self) {
        let DeltaEval {
            lanes,
            nodes,
            scratch: s,
            ..
        } = self;
        for &(l, p, _) in s.inserted.iter().rev() {
            lanes[l].remove(p);
        }
        for &(l, p, v) in s.removed.iter().rev() {
            lanes[l].insert(p, v);
            nodes[v].lane = l;
        }
        renumber(lanes, nodes, &s.spans);
    }

    fn lane_pred(&self, v: usize) -> Option<usize> {
        let st = self.nodes[v];
        (st.pos > 0).then(|| self.lanes[st.lane][st.pos - 1])
    }

    fn lane_succ(&self, v: usize) -> Option<usize> {
        let st = self.nodes[v];
        self.lanes[st.lane].get(st.pos + 1).copied()
    }

    /// Union-graph predecessors of scheduled `v`: its lane predecessor,
    /// then its scheduled dependencies.
    fn preds(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let deps = self.graph.dep_indices(v).iter().copied();
        self.lane_pred(v)
            .into_iter()
            .chain(deps.filter(|&d| self.nodes[d].scheduled))
    }

    /// Union-graph successors of scheduled `v`: its lane successor, then
    /// its scheduled dependents.
    fn succs(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let deps = self.graph.dependent_indices(v).iter().copied();
        self.lane_succ(v)
            .into_iter()
            .chain(deps.filter(|&d| self.nodes[d].scheduled))
    }

    fn start_bound(&self, v: usize) -> SimTime {
        self.preds(v).map(|p| self.nodes[p].end).max().unwrap_or(0)
    }

    /// Times and ranks every scheduled node in one Kahn pass, earliest
    /// start first, so ranks follow time and a later repair searches
    /// only the ops running between its two endpoints. On a cycle,
    /// reports [`predict_makespan`]'s error: the first blocked node in
    /// lane-major order and its first blocked scheduled dependency.
    fn rank_and_time(&mut self) -> Result<(), Error> {
        let mut indeg: Vec<usize> = vec![0; self.graph.len()];
        let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        for &v in self.lanes.iter().flatten() {
            indeg[v] = self.preds(v).count();
            if indeg[v] == 0 {
                ready.push(Reverse((0, v)));
            }
        }
        let mut done = 0usize;
        while let Some(Reverse((start, v))) = ready.pop() {
            done += 1;
            self.rank[v] = self.next_rank;
            self.next_rank += RANK_STRIDE;
            self.nodes[v].start = start;
            self.nodes[v].end = start + self.dur[v];
            for w in self.succs(v) {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    ready.push(Reverse((self.start_bound(w), w)));
                }
            }
        }
        self.rescored += done as u64;
        if done < self.scheduled {
            let blocked = *self
                .lanes
                .iter()
                .flatten()
                .find(|&&v| indeg[v] > 0)
                .expect("cycle exists");
            let op = self.graph.ops()[blocked];
            let missing = self
                .graph
                .dep_indices(blocked)
                .iter()
                .find(|&&d| self.nodes[d].scheduled && indeg[d] > 0)
                .map_or(op, |&d| self.graph.ops()[d]);
            return Err(Error::DependencyViolation {
                op,
                missing_dep: missing,
            });
        }
        self.refresh_makespan();
        Ok(())
    }

    /// Restores the rank order after [`DeltaEval::edit`]: the only new
    /// edges are those from each seed's new lane predecessor, and each
    /// one that runs against the order is repaired by
    /// [`DeltaEval::order_edge`] — in a probe (`one_sided`) first by
    /// [`DeltaEval::order_edge_one_sided`]. A batch that reorders a lane
    /// in several places (the order tuner's link lane) would search the
    /// same stretch once per such edge, so when there are two or more,
    /// [`DeltaEval::redeal_spans`] is tried first.
    fn order_seeds(&mut self, one_sided: bool) -> Result<(), Error> {
        let against = |y: &usize| {
            self.lane_pred(*y)
                .is_some_and(|x| self.rank[x] > self.rank[*y])
        };
        if self
            .scratch
            .seeds
            .iter()
            .filter(|y| against(y))
            .nth(1)
            .is_some()
            && self.redeal_spans()
        {
            #[cfg(test)]
            {
                self.scratch.repairs.redealt += 1;
            }
            return Ok(());
        }
        self.order_seed_edges(one_sided)
    }

    /// Repairs the rank for each seed's new lane edge in turn. A probe's
    /// batch that closes a cycle is repaired again two-sided from the
    /// restored ranks, so its error is the one a committed edit reports
    /// (whose span re-deal, if tried, failed the same way).
    fn order_seed_edges(&mut self, one_sided: bool) -> Result<(), Error> {
        for i in 0..self.scratch.seeds.len() {
            let y = self.scratch.seeds[i];
            let Some(x) = self.lane_pred(y) else {
                continue;
            };
            if one_sided && self.order_edge_one_sided(x, y) {
                continue;
            }
            if let Err(err) = self.order_edge(x, y) {
                if !one_sided {
                    return Err(err);
                }
                self.restore_ranks();
                return self.order_seed_edges(false);
            }
        }
        Ok(())
    }

    /// When every op of the batch stayed on its lane, each touched span
    /// holds the same ops as before, in a new order: deals the span's own
    /// ranks out again in that order. Keeps the result and returns `true`
    /// iff every union-graph edge at a span op then runs up the order
    /// (edges elsewhere did not change); otherwise restores the ranks and
    /// returns `false`.
    fn redeal_spans(&mut self) -> bool {
        let mut s = std::mem::take(&mut self.scratch);
        if s.before
            .iter()
            .any(|&(v, lane, _, _)| self.nodes[v].lane != lane)
        {
            self.scratch = s;
            return false;
        }
        for &sp in &s.spans {
            let ops = lane_span(&self.lanes, sp);
            s.ranks.clear();
            s.ranks.extend(ops.iter().map(|&v| self.rank[v]));
            s.ranks.sort_unstable();
            for (&v, &r) in ops.iter().zip(&s.ranks) {
                if self.rank[v] != r {
                    s.rank_undo.push((v, self.rank[v]));
                    self.rank[v] = r;
                }
            }
        }
        let ordered = s.spans.iter().all(|&sp| {
            lane_span(&self.lanes, sp).iter().all(|&v| {
                let r = self.rank[v];
                self.preds(v).all(|p| self.rank[p] < r) && self.succs(v).all(|w| self.rank[w] > r)
            })
        });
        self.scratch = s;
        if !ordered {
            self.restore_ranks();
        }
        ordered
    }

    /// Adds the union-graph edge `x → y` to the rank order (Pearce &
    /// Kelly). When `x` already ranks below `y` nothing moves. Otherwise
    /// the search stays between the two ranks, over edges the order
    /// already satisfies (edges of the current edit still to be ordered
    /// run against it and are skipped): forward from `y` below `rank(x)`
    /// — reaching `x` closes a cycle — and backward from `x` above
    /// `rank(y)`. The union of both sets' ranks is dealt out again, the
    /// backward set first, each set keeping its relative order. Every
    /// changed rank is logged in the undo log.
    fn order_edge(&mut self, x: usize, y: usize) -> Result<(), Error> {
        let (lb, ub) = (self.rank[y], self.rank[x]);
        if ub < lb {
            return Ok(());
        }
        let mut s = std::mem::take(&mut self.scratch);
        s.next_epoch();
        s.forward.clear();
        s.stack.clear();
        s.reach(y);
        s.stack.push(y);
        let mut cycle = false;
        'search: while let Some(u) = s.stack.pop() {
            s.forward.push(u);
            for w in self.succs(u) {
                if w == x {
                    s.via[x] = u;
                    cycle = true;
                    break 'search;
                }
                let r = self.rank[w];
                if r < ub && r > self.rank[u] && s.reach(w) {
                    s.via[w] = u;
                    s.stack.push(w);
                }
            }
        }
        if cycle {
            let err = self.cycle_error(&mut s, x, y);
            self.scratch = s;
            return Err(err);
        }
        s.next_epoch();
        s.backward.clear();
        s.reach(x);
        s.stack.push(x);
        while let Some(u) = s.stack.pop() {
            s.backward.push(u);
            for w in self.preds(u) {
                let r = self.rank[w];
                if r > lb && r < self.rank[u] && s.reach(w) {
                    s.stack.push(w);
                }
            }
        }
        let rank = &mut self.rank;
        s.backward.sort_unstable_by_key(|&v| rank[v]);
        s.forward.sort_unstable_by_key(|&v| rank[v]);
        s.ranks.clear();
        s.ranks
            .extend(s.backward.iter().chain(&s.forward).map(|&v| rank[v]));
        s.ranks.sort_unstable();
        for (&v, &r) in s.backward.iter().chain(&s.forward).zip(&s.ranks) {
            if rank[v] != r {
                s.rank_undo.push((v, rank[v]));
                rank[v] = r;
            }
        }
        self.scratch = s;
        Ok(())
    }

    /// A probe's repair of the new edge `x → y` (see [`DeltaEval`]):
    /// searches forward from `y` below `rank(x)` and backward from `x`
    /// above `rank(y)` in lockstep, over edges the order already
    /// satisfies, and deals the side that finishes first into the free
    /// slots next to the other endpoint — the forward set just above
    /// `rank(x)`, the backward set just below `rank(y)` — logging every
    /// changed rank. Returns `false`, with no rank changed, when the edge
    /// needs [`DeltaEval::order_edge`]: the searches meet, a side reaches
    /// half a stride, or the finished side's endpoint is off the stride
    /// or its gap already holds a set of this probe.
    fn order_edge_one_sided(&mut self, x: usize, y: usize) -> bool {
        let (lb, ub) = (self.rank[y], self.rank[x]);
        if ub < lb {
            return true;
        }
        let mut s = std::mem::take(&mut self.scratch);
        s.next_epoch();
        let fwd = s.epoch;
        s.next_epoch();
        let bwd = s.epoch;
        s.mark[y] = fwd;
        s.mark[x] = bwd;
        s.forward.clear();
        s.backward.clear();
        s.stack.clear();
        s.stack.push(y);
        s.back_stack.clear();
        s.back_stack.push(x);
        let half = (RANK_STRIDE / 2) as usize;
        // `Some(true)`: the forward search finished first.
        let finished = 'search: loop {
            if s.forward.len().max(s.backward.len()) >= half {
                break None;
            }
            let Some(u) = s.stack.pop() else {
                break Some(true);
            };
            s.forward.push(u);
            for w in self.succs(u) {
                let r = self.rank[w];
                if r <= self.rank[u] {
                    continue;
                }
                if s.mark[w] == bwd {
                    break 'search None;
                }
                if r < ub && s.mark[w] != fwd {
                    s.mark[w] = fwd;
                    s.stack.push(w);
                }
            }
            let Some(u) = s.back_stack.pop() else {
                break Some(false);
            };
            s.backward.push(u);
            for w in self.preds(u) {
                let r = self.rank[w];
                if r >= self.rank[u] {
                    continue;
                }
                if s.mark[w] == fwd {
                    break 'search None;
                }
                if r > lb && s.mark[w] != bwd {
                    s.mark[w] = bwd;
                    s.back_stack.push(w);
                }
            }
        };
        let Some(forward) = finished else {
            #[cfg(test)]
            {
                s.repairs.cycle += u32::from(s.forward.len().max(s.backward.len()) < half);
            }
            self.scratch = s;
            return false;
        };
        // The endpoint the set moves next to, and the stride gap on that
        // side of it (none below rank 0).
        let (endpoint, gap) = if forward {
            (ub, Some(ub / RANK_STRIDE))
        } else {
            (lb, (lb / RANK_STRIDE).checked_sub(1))
        };
        let Some(gap) = gap.filter(|g| endpoint % RANK_STRIDE == 0 && !s.gaps.contains(g)) else {
            #[cfg(test)]
            {
                if endpoint % RANK_STRIDE != 0 {
                    s.repairs.off_stride += 1;
                } else {
                    s.repairs.gap_taken += 1;
                }
            }
            self.scratch = s;
            return false;
        };
        let (set, base) = if forward {
            (&mut s.forward, ub + 1)
        } else {
            let base = lb - s.backward.len() as u64;
            (&mut s.backward, base)
        };
        let rank = &mut self.rank;
        set.sort_unstable_by_key(|&v| rank[v]);
        for (r, &v) in (base..).zip(set.iter()) {
            s.rank_undo.push((v, rank[v]));
            rank[v] = r;
        }
        s.gaps.push(gap);
        #[cfg(test)]
        {
            if forward {
                s.repairs.forward += 1;
            } else {
                s.repairs.backward += 1;
            }
        }
        self.scratch = s;
        true
    }

    /// The error of the cycle `x → y ⇝ x` a forward search closed: the
    /// first dependency edge `d → v` on it, from the new edge on.
    fn cycle_error(&self, s: &mut Scratch, x: usize, y: usize) -> Error {
        s.stack.clear();
        let mut v = x;
        while v != y {
            s.stack.push(v);
            v = s.via[v];
        }
        s.stack.push(y);
        let mut u = x;
        for &w in s.stack.iter().rev() {
            if self.graph.dep_indices(w).contains(&u) {
                return Error::DependencyViolation {
                    op: self.graph.ops()[w],
                    missing_dep: self.graph.ops()[u],
                };
            }
            u = w;
        }
        unreachable!("lanes are disjoint chains, so a cycle takes a dependency edge")
    }

    /// Undoes the rank changes of the current edit, latest first.
    fn restore_ranks(&mut self) {
        for &(v, r) in self.scratch.rank_undo.iter().rev() {
            self.rank[v] = r;
        }
        self.scratch.rank_undo.clear();
    }

    /// Re-times from the scratch seeds in rank order, logging each
    /// changed node's prior times in the undo log. A node is re-timed
    /// when it is a seed or a predecessor's finish changed; an unchanged
    /// finish (which fixes the start) stops the propagation there.
    /// Returns the number of nodes re-timed.
    fn retime(&mut self) -> usize {
        let mut s = std::mem::take(&mut self.scratch);
        s.next_epoch();
        s.undo.clear();
        s.queue.clear();
        for i in 0..s.seeds.len() {
            let v = s.seeds[i];
            if self.nodes[v].scheduled && s.reach(v) {
                s.queue.push(Reverse((self.rank[v], v)));
            }
        }
        let mut done = 0usize;
        while let Some(Reverse((_, v))) = s.queue.pop() {
            done += 1;
            let start = self.start_bound(v);
            let end = start + self.dur[v];
            let node = &mut self.nodes[v];
            if node.end == end {
                continue;
            }
            s.undo.push((v, node.start, node.end));
            node.start = start;
            node.end = end;
            for w in self.succs(v) {
                if s.reach(w) {
                    s.queue.push(Reverse((self.rank[w], w)));
                }
            }
        }
        self.scratch = s;
        done
    }

    /// Latest finish across all lanes: the last op of each lane carries
    /// the lane's maximum finish.
    fn lane_makespan(&self) -> SimTime {
        self.lanes
            .iter()
            .filter_map(|l| l.last().map(|&v| self.nodes[v].end))
            .max()
            .unwrap_or(0)
    }

    fn refresh_makespan(&mut self) {
        self.makespan = self.lane_makespan();
    }

    /// Panics unless the ranks are distinct and order every union-graph
    /// edge.
    #[cfg(test)]
    fn assert_ranked(&self) {
        let mut ranks = self.rank.clone();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), self.rank.len(), "ranks are not distinct");
        for &v in self.lanes.iter().flatten() {
            for w in self.succs(v) {
                assert!(self.rank[v] < self.rank[w], "edge {v} -> {w} against rank");
            }
        }
    }
}

/// The ops at a lane span's positions (`(lane, first, last)`, `last`
/// clamped to the lane's end).
fn lane_span(lanes: &[Vec<usize>], (l, first, last): (usize, usize, usize)) -> &[usize] {
    let lane = &lanes[l];
    lane.get(first..=last.min(lane.len().saturating_sub(1)))
        .unwrap_or(&[])
}

/// Rewrites the stored position of every node inside the given lane
/// spans.
fn renumber(lanes: &[Vec<usize>], nodes: &mut [NodeState], spans: &[(usize, usize, usize)]) {
    for &span in spans {
        for (p, &w) in (span.1..).zip(lane_span(lanes, span)) {
            nodes[w].pos = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost, UnitCost};
    use ooo_core::datapar::simulate_data_parallel;
    use ooo_core::list_scheduling::simulate;
    use ooo_core::reverse_k::reverse_first_k;

    #[test]
    fn prediction_matches_simulation_exactly_on_multi_lane_schedules() {
        let g = TrainGraph::single_gpu(7);
        let mut main = vec![Op::Loss];
        for i in (2..=7).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=7 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=7).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let sim = simulate(&g, &s, &UnitCost).unwrap();
        let pred = predict_makespan(&g, &s, &UnitCost).unwrap();
        assert_eq!(pred.makespan(), sim.makespan());
        for e in &sim.entries {
            assert_eq!(pred.start_of(e.op), Some(e.start), "{}", e.op);
            assert_eq!(pred.finish_of(e.op), Some(e.end), "{}", e.op);
        }
    }

    #[test]
    fn deadlock_is_an_error_not_a_prediction() {
        let g = TrainGraph::single_gpu(2);
        let mut s = Schedule::new();
        s.add_lane("a", vec![Op::WeightGrad(LayerId(1)), Op::Loss]);
        s.add_lane("b", vec![Op::OutputGrad(LayerId(2))]);
        assert!(matches!(
            predict_makespan(&g, &s, &UnitCost),
            Err(Error::DependencyViolation { .. })
        ));
    }

    #[test]
    fn critical_path_ends_at_makespan_and_is_a_chain() {
        let g = TrainGraph::single_gpu(5);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let p = predict_makespan(&g, &s, &UnitCost).unwrap();
        let chain = p.critical_ops();
        assert!(!chain.is_empty());
        assert_eq!(p.finish_of(*chain.last().unwrap()), Some(p.makespan()));
        for w in chain.windows(2) {
            assert_eq!(p.finish_of(w[0]), p.start_of(w[1]));
        }
    }

    /// Every schedule reachable by `DeltaEval` edits must score exactly
    /// like a fresh full prediction of the same placement.
    fn assert_delta_matches_full(g: &TrainGraph, de: &DeltaEval<'_>) {
        let full = predict_makespan(g, &de.to_schedule(), &UnitCost).unwrap();
        assert_eq!(de.makespan(), full.makespan(), "makespan diverged");
        for p in full.ops() {
            assert_eq!(de.start_of(p.op), Some(p.start), "{} start", p.op);
            assert_eq!(de.finish_of(p.op), Some(p.end), "{} end", p.op);
        }
    }

    #[test]
    fn delta_eval_matches_full_prediction_after_relocations() {
        let g = TrainGraph::single_gpu(6);
        let mut main = vec![Op::Loss];
        for i in (2..=6).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=6 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=6).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let mut de = DeltaEval::new(&g, &s, &UnitCost).unwrap();
        assert_delta_matches_full(&g, &de);

        // A sequence of legal single-op and block relocations, in-lane
        // and cross-lane, each checked against a full re-evaluation.
        de.relocate_many(&[
            (Op::WeightGrad(LayerId(6)), 1, 10),
            (Op::Update(LayerId(6)), 1, 11),
        ])
        .unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate(Op::WeightGrad(LayerId(1)), 0, 6).unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate_many(&[
            (Op::WeightGrad(LayerId(4)), 0, 3),
            (Op::Update(LayerId(4)), 0, 4),
        ])
        .unwrap();
        assert_delta_matches_full(&g, &de);
        de.relocate(Op::WeightGrad(LayerId(6)), 1, 6).unwrap();
        assert_delta_matches_full(&g, &de);

        // Delta evaluation did strictly less work than full passes would.
        assert!(de.rescored() < de.full_equivalent());
    }

    #[test]
    fn delta_eval_place_and_unplace_match_prediction() {
        let g = TrainGraph::single_gpu(5);
        let order = g.conventional_backprop();
        let mut de = DeltaEval::empty(&g, ["gpu"], &UnitCost);
        for &op in &order {
            de.place(0, op).unwrap();
        }
        assert_delta_matches_full(&g, &de);
        let full =
            predict_makespan(&g, &Schedule::single_lane("gpu", order.clone()), &UnitCost).unwrap();
        assert_eq!(de.makespan(), full.makespan());
        assert_eq!(de.unplace_last(0), Some(*order.last().unwrap()));
        assert_delta_matches_full(&g, &de);
    }

    /// The ops of `s` that never run: list scheduling to a fixed point,
    /// where a lane's next op runs once every scheduled dependency ran.
    fn never_running(g: &TrainGraph, s: &Schedule) -> Vec<Op> {
        let scheduled: Vec<Op> = s.lanes.iter().flat_map(|l| l.ops.iter().copied()).collect();
        let mut ran: Vec<Op> = Vec::new();
        let mut heads = vec![0usize; s.lanes.len()];
        let mut progress = true;
        while progress {
            progress = false;
            for (lane, head) in s.lanes.iter().zip(heads.iter_mut()) {
                while let Some(&op) = lane.ops.get(*head) {
                    let deps = g.deps(op).unwrap();
                    if deps
                        .iter()
                        .any(|d| scheduled.contains(d) && !ran.contains(d))
                    {
                        break;
                    }
                    ran.push(op);
                    *head += 1;
                    progress = true;
                }
            }
        }
        scheduled
            .into_iter()
            .filter(|op| !ran.contains(op))
            .collect()
    }

    #[test]
    fn delta_eval_rolls_back_deadlocking_edits() {
        let g = TrainGraph::single_gpu(4);
        let mut s = Schedule::new();
        s.add_lane("main", {
            let mut v = vec![Op::Loss];
            for i in (2..=4).rev() {
                v.push(Op::OutputGrad(LayerId(i)));
            }
            for i in 1..=4 {
                v.push(Op::Forward(LayerId(i)));
            }
            v
        });
        s.add_lane("sub", {
            let mut v = Vec::new();
            for i in (1..=4).rev() {
                v.push(Op::WeightGrad(LayerId(i)));
                v.push(Op::Update(LayerId(i)));
            }
            v
        });
        let mut de = DeltaEval::new(&g, &s, &UnitCost).unwrap();
        let before_schedule = de.to_schedule();
        let before_makespan = de.makespan();
        // Every single relocation, through both the committing and the
        // probing path: a deadlock rolls everything back and names a
        // blocked op and a dependency that is itself blocked.
        let ops: Vec<Op> = s.lanes.iter().flat_map(|l| l.ops.clone()).collect();
        let mut deadlocks = 0;
        for &op in &ops {
            for lane in 0..2 {
                for pos in 0..=s.lanes[lane].ops.len() {
                    let mut moved = s.clone();
                    for l in &mut moved.lanes {
                        l.ops.retain(|&o| o != op);
                    }
                    let target = &mut moved.lanes[lane].ops;
                    target.insert(pos.min(target.len()), op);
                    let stuck = never_running(&g, &moved);
                    let probed = de.probe(&[(op, lane, pos)]);
                    let relocated = de.relocate(op, lane, pos);
                    assert_eq!(probed, relocated, "{op} -> {lane}:{pos}");
                    let Err(err) = relocated else {
                        assert!(stuck.is_empty(), "{op} -> {lane}:{pos} runs {stuck:?}");
                        de.relocate_many(
                            &before_schedule
                                .lanes
                                .iter()
                                .enumerate()
                                .flat_map(|(l, r)| {
                                    r.ops.iter().enumerate().map(move |(p, &o)| (o, l, p))
                                })
                                .collect::<Vec<_>>(),
                        )
                        .unwrap();
                        assert_eq!(de.to_schedule(), before_schedule);
                        continue;
                    };
                    deadlocks += 1;
                    let Error::DependencyViolation {
                        op: blocked,
                        missing_dep,
                    } = err
                    else {
                        panic!("{op} -> {lane}:{pos}: {err}");
                    };
                    assert!(stuck.contains(&blocked), "{op} -> {lane}:{pos}: {err}");
                    assert!(stuck.contains(&missing_dep), "{op} -> {lane}:{pos}: {err}");
                    assert_eq!(
                        de.to_schedule(),
                        before_schedule,
                        "structure not rolled back"
                    );
                    assert_eq!(de.makespan(), before_makespan, "timing not rolled back");
                }
            }
        }
        assert!(deadlocks > 0);
        assert_delta_matches_full(&g, &de);
        // U4 before its own dW4 deadlocks lane "sub".
        let err = de.relocate(Op::Update(LayerId(4)), 1, 0).unwrap_err();
        assert!(matches!(err, Error::DependencyViolation { .. }));
        assert_delta_matches_full(&g, &de);
    }

    /// splitmix64: a dependency-free deterministic stream for the
    /// randomized edit sequences below.
    fn next(seed: &mut u64) -> usize {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }

    /// `schedule` with the relocation batch applied the way
    /// `relocate_many` documents it: every op removed, then inserted at
    /// its target in ascending `(lane, position)` order, clamped.
    fn apply_batch(schedule: &Schedule, batch: &[(Op, usize, usize)]) -> Schedule {
        let mut next = schedule.clone();
        for &(op, _, _) in batch {
            for lane in &mut next.lanes {
                lane.ops.retain(|&o| o != op);
            }
        }
        let mut inserts = batch.to_vec();
        inserts.sort_unstable_by_key(|&(_, l, p)| (l, p));
        for (op, l, p) in inserts {
            let ops = &mut next.lanes[l].ops;
            ops.insert(p.min(ops.len()), op);
        }
        next
    }

    /// Random probes, kept relocations, places and unplaces on three
    /// graph families with many zero-duration ops — where "stop when the
    /// finish is unchanged" meets zero-width ties and zero-duration
    /// cycles. Every result equals a fresh full prediction (errors
    /// included), and every edit, failed edit and probe checks on the
    /// way out that the rank is a valid topological order. Half the
    /// batches reverse a stretch of one lane, which runs several edges
    /// against the order at once: the span re-deal and its fallback.
    #[test]
    fn delta_eval_keeps_a_valid_rank_through_random_edits() {
        let mut seed = 7u64;
        for family in 0..3 {
            let l = 6;
            let mut cost = TableCost::uniform(l, LayerCost::default());
            for i in 1..=l {
                let c = cost.layer_mut(LayerId(i));
                c.forward = (next(&mut seed) % 3) as SimTime;
                c.output_grad = (next(&mut seed) % 3) as SimTime;
                c.weight_grad = (next(&mut seed) % 3) as SimTime;
                c.update = (next(&mut seed) % 2) as SimTime;
                c.sync_weight = (next(&mut seed) % 4) as SimTime;
                c.sync_output = (next(&mut seed) % 2) as SimTime;
            }
            let (g, s0) = match family {
                0 => {
                    let g = TrainGraph::data_parallel(l);
                    let order = reverse_first_k(&g, 2, None::<(u64, &TableCost)>).unwrap();
                    let s = datapar_schedule(&g, &order, &cost, CommPolicy::PriorityByLayer);
                    (g, s.unwrap())
                }
                1 => ooo_core::pipeline::op_level_schedule(
                    l,
                    3,
                    ooo_core::pipeline::Strategy::GPipe,
                    1,
                ),
                _ => {
                    let g = TrainGraph::single_gpu(l);
                    let s = Schedule::single_lane("gpu", g.conventional_backprop());
                    (g, s)
                }
            };
            let mut de = DeltaEval::new(&g, &s0, &cost).unwrap();
            let (mut kept, mut failed) = (0, 0);
            for _ in 0..400 {
                let s = de.to_schedule();
                let lane = next(&mut seed) % s.lanes.len();
                let ops = &s.lanes[lane].ops;
                let batch: Vec<(Op, usize, usize)> =
                    if next(&mut seed).is_multiple_of(2) && ops.len() > 2 {
                        let a = next(&mut seed) % (ops.len() - 1);
                        let b = a + 1 + next(&mut seed) % (ops.len() - 1 - a).min(5);
                        (a..=b).map(|p| (ops[p], lane, a + b - p)).collect()
                    } else {
                        let all: Vec<Op> = s.lanes.iter().flat_map(|l| l.ops.clone()).collect();
                        let mut batch: Vec<(Op, usize, usize)> = Vec::new();
                        for _ in 0..1 + next(&mut seed) % 3 {
                            let op = all[next(&mut seed) % all.len()];
                            let to = next(&mut seed) % s.lanes.len();
                            if batch.iter().all(|&(o, _, _)| o != op) {
                                batch.push((op, to, next(&mut seed) % (s.lanes[to].ops.len() + 2)));
                            }
                        }
                        batch
                    };
                let full = predict_makespan(&g, &apply_batch(&s, &batch), &cost).ok();
                assert_eq!(
                    de.probe(&batch).ok(),
                    full.as_ref().map(Prediction::makespan)
                );
                assert_eq!(de.to_schedule(), s, "probe left the placement changed");
                if next(&mut seed).is_multiple_of(3) {
                    match de.relocate_many(&batch) {
                        Ok(m) => {
                            kept += 1;
                            assert_eq!(Some(m), full.as_ref().map(Prediction::makespan));
                        }
                        Err(_) => {
                            failed += 1;
                            assert!(full.is_none());
                            assert_eq!(de.to_schedule(), s, "failed edit not rolled back");
                        }
                    }
                }
                let now = predict_makespan(&g, &de.to_schedule(), &cost).unwrap();
                assert_eq!(de.makespan(), now.makespan());
                for p in now.ops() {
                    assert_eq!(de.finish_of(p.op), Some(p.end), "{} end", p.op);
                }
            }
            assert!(
                kept > 0 && failed > 0,
                "family {family}: {kept} kept, {failed} failed"
            );

            // Places in random order (some with dependents already
            // placed, some deadlocking) and unplaces, from empty.
            let mut de = DeltaEval::empty(&g, s0.lanes.iter().map(|l| l.name.clone()), &cost);
            for _ in 0..300 {
                let lane = next(&mut seed) % s0.lanes.len();
                if next(&mut seed).is_multiple_of(4) {
                    de.unplace_last(lane);
                } else {
                    let op = g.ops()[next(&mut seed) % g.len()];
                    let _ = de.place(lane, op);
                }
                let full = predict_makespan(&g, &de.to_schedule(), &cost).unwrap();
                assert_eq!(de.makespan(), full.makespan());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// A probe's rank repair — one-sided where it can be, the span
        /// re-deal for a lane reordered in several places, the two-sided
        /// repair on every fallback — over random batches on data-parallel,
        /// GPipe, OOO-Pipe2 and two-lane single-GPU schedules with
        /// durations from 0: the probe scores the full prediction of the
        /// applied schedule (a deadlock as the same error a committed edit
        /// reports), leaves lanes, times and ranks exactly as they were,
        /// and keeps a valid rank throughout (`assert_ranked` runs inside
        /// every probe). Some legal batches are committed, so later probes
        /// start from edited states, whose ranks must stay on the stride.
        /// Every case reaches each repair path.
        #[test]
        fn probe_repairs_restore_the_rank_and_score_exactly(case in 0u64..1_000_000) {
            let mut seed = case;
            let (l, devices) = (5 + next(&mut seed) % 4, 2 + next(&mut seed) % 3);
            let mut cost = TableCost::uniform(l, LayerCost::default());
            for i in 1..=l {
                let c = cost.layer_mut(LayerId(i));
                c.forward = (next(&mut seed) % 3) as SimTime;
                c.output_grad = (next(&mut seed) % 3) as SimTime;
                c.weight_grad = (next(&mut seed) % 3) as SimTime;
                c.update = (next(&mut seed) % 2) as SimTime;
                c.sync_weight = (next(&mut seed) % 4) as SimTime;
                c.sync_output = (next(&mut seed) % 2) as SimTime;
            }
            let mut seen = RepairCounts::default();
            // Families 0-3 under the drawn costs, then the fixed
            // data-parallel schedule of six layers under sync 3, whose
            // link-lane reversals repair one edge whose endpoint an
            // earlier edge re-ranked.
            let sync3 = TableCost::uniform(6, LayerCost { sync_weight: 3, ..LayerCost::default() });
            for family in 0..5 {
                let (g, s0, cost) = if family < 4 {
                    let (g, s0) = probe_family(family, l, devices, &cost);
                    (g, s0, &cost)
                } else {
                    let (g, s0) = probe_family(0, 6, devices, &sync3);
                    (g, s0, &sync3)
                };
                let mut de = DeltaEval::new(&g, &s0, cost).unwrap();
                reversals(&g, cost, &mut de)?;
                for _ in 0..120 {
                    let batch = probe_batch(&g, &de.to_schedule(), &mut seed);
                    let legal = check_probe(&g, cost, &mut de, &batch)?;
                    if legal && next(&mut seed).is_multiple_of(4) {
                        de.relocate_many(&batch).unwrap();
                        proptest::prop_assert!(de.rank.iter().all(|r| r % RANK_STRIDE == 0));
                    }
                }
                reversals(&g, cost, &mut de)?;
                let r = de.scratch.repairs;
                seen.forward += r.forward;
                seen.backward += r.backward;
                seen.redealt += r.redealt;
                seen.cycle += r.cycle;
                seen.off_stride += r.off_stride;
                seen.gap_taken += r.gap_taken;
            }
            let RepairCounts { forward, backward, redealt, cycle, off_stride, .. } = seen;
            proptest::prop_assert!(
                [forward, backward, redealt, cycle, off_stride].iter().all(|&c| c > 0),
                "{seen:?}"
            );
        }
    }

    /// [`check_probe`] on every reversed stretch of two to six ops, on
    /// every lane.
    fn reversals(
        g: &TrainGraph,
        cost: &TableCost,
        de: &mut DeltaEval<'_>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let s = de.to_schedule();
        for (lane, ops) in s.lanes.iter().map(|l| &l.ops).enumerate() {
            for a in 0..ops.len() {
                for b in a + 1..ops.len().min(a + 6) {
                    let batch: Vec<_> = (a..=b).map(|p| (ops[p], lane, a + b - p)).collect();
                    check_probe(g, cost, de, &batch)?;
                }
            }
        }
        Ok(())
    }

    /// Probes `batch` on `de` and checks it against a full prediction of
    /// the applied schedule and against the state before: lanes, times
    /// and ranks restored, a deadlock reported as the committed edit
    /// reports it. Returns whether the batch evaluates.
    fn check_probe(
        g: &TrainGraph,
        cost: &TableCost,
        de: &mut DeltaEval<'_>,
        batch: &[(Op, usize, usize)],
    ) -> Result<bool, proptest::test_runner::TestCaseError> {
        let full = predict_makespan(g, &apply_batch(&de.to_schedule(), batch), cost);
        let before = de.clone();
        let probed = de.probe(batch);
        proptest::prop_assert_eq!(&de.lanes, &before.lanes);
        proptest::prop_assert_eq!(&de.rank, &before.rank);
        proptest::prop_assert!(de.nodes.iter().zip(&before.nodes).all(|(a, b)| (
            a.start, a.end, a.pos
        ) == (
            b.start, b.end, b.pos
        )));
        proptest::prop_assert_eq!(de.makespan, before.makespan);
        match (&probed, full) {
            (Ok(m), Ok(full)) => proptest::prop_assert_eq!(*m, full.makespan()),
            (Err(_), Err(_)) => {
                let committed = before.clone().relocate_many(batch);
                proptest::prop_assert_eq!(probed.clone(), committed);
            }
            (probed, full) => {
                proptest::prop_assert!(false, "{batch:?}: probe {probed:?}, full {full:?}")
            }
        }
        Ok(probed.is_ok())
    }

    /// Schedule family `family` of the probe-repair test: data-parallel
    /// reverse first-k, op-level GPipe, op-level OOO-Pipe2, and a
    /// two-lane single-GPU schedule (backward on one lane, `[dW_i, U_i]`
    /// on the other).
    fn probe_family(
        family: usize,
        l: usize,
        devices: usize,
        cost: &TableCost,
    ) -> (TrainGraph, Schedule) {
        use ooo_core::pipeline::{op_level_schedule, Strategy};
        match family {
            0 => {
                let g = TrainGraph::data_parallel(l);
                let order = reverse_first_k(&g, l / 2, None::<(u64, &TableCost)>).unwrap();
                let s = datapar_schedule(&g, &order, cost, CommPolicy::PriorityByLayer).unwrap();
                (g, s)
            }
            1 => op_level_schedule(l, devices, Strategy::GPipe, 1),
            2 => op_level_schedule(l, devices, Strategy::OooPipe2, 1),
            _ => {
                let g = TrainGraph::single_gpu(l);
                let mut main = vec![Op::Loss];
                main.extend((2..=l).rev().map(|i| Op::OutputGrad(LayerId(i))));
                main.extend((1..=l).map(|i| Op::Forward(LayerId(i))));
                let sub = (1..=l)
                    .rev()
                    .flat_map(|i| [Op::WeightGrad(LayerId(i)), Op::Update(LayerId(i))])
                    .collect();
                let mut s = Schedule::new();
                s.add_lane("main", main);
                s.add_lane("sub", sub);
                (g, s)
            }
        }
    }

    /// A random probe batch over `s`: a single op to any lane and
    /// position, a `[dW_i, U_i]` block, a reversed stretch of one lane
    /// (several new edges against the order at once; with one op of the
    /// stretch sent to another lane, the span re-deal does not apply and
    /// each edge is repaired on its own, so a later edge can find its
    /// endpoint re-ranked by an earlier one) or two or three random ops.
    /// Many deadlock.
    fn probe_batch(g: &TrainGraph, s: &Schedule, seed: &mut u64) -> Vec<(Op, usize, usize)> {
        let busy: Vec<usize> = (0..s.lanes.len())
            .filter(|&l| !s.lanes[l].ops.is_empty())
            .collect();
        let lane = busy[next(seed) % busy.len()];
        let ops = &s.lanes[lane].ops;
        let at = |seed: &mut u64| next(seed) % (ops.len() + 1);
        match next(seed) % 5 {
            0 => vec![(
                ops[next(seed) % ops.len()],
                next(seed) % s.lanes.len(),
                at(seed),
            )],
            1 => {
                let dws: Vec<Op> = ops
                    .iter()
                    .copied()
                    .filter(|op| matches!(op, Op::WeightGrad(i) if ops.contains(&Op::Update(*i))))
                    .collect();
                let Some(&dw) = dws.get(next(seed) % dws.len().max(1)) else {
                    return vec![(ops[0], lane, at(seed))];
                };
                let Op::WeightGrad(i) = dw else {
                    unreachable!()
                };
                let to = at(seed);
                vec![(dw, lane, to), (Op::Update(i), lane, to + 1)]
            }
            kind @ (2 | 3) if ops.len() > 2 => {
                let a = next(seed) % (ops.len() - 1);
                let b = a + 1 + next(seed) % (ops.len() - 1 - a).min(5);
                let mut batch: Vec<_> = (a..=b).map(|p| (ops[p], lane, a + b - p)).collect();
                if kind == 3 {
                    let to = (lane + 1) % s.lanes.len();
                    batch[0] = (batch[0].0, to, at(seed));
                }
                batch
            }
            _ => {
                let mut batch: Vec<(Op, usize, usize)> = Vec::new();
                for _ in 0..2 + next(seed) % 2 {
                    let op = g.ops()[next(seed) % g.len()];
                    let to = next(seed) % s.lanes.len();
                    let scheduled = s.lanes.iter().any(|l| l.ops.contains(&op));
                    if scheduled && batch.iter().all(|&(o, _, _)| o != op) {
                        batch.push((op, to, next(seed) % (s.lanes[to].ops.len() + 2)));
                    }
                }
                batch
            }
        }
    }

    #[test]
    fn datapar_reconstruction_is_exact_for_both_policies() {
        for l in [4usize, 9, 16] {
            for k in [0, l / 3, l] {
                for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                    let g = TrainGraph::data_parallel(l);
                    let mut cost = TableCost::uniform(
                        l,
                        LayerCost {
                            sync_weight: 3,
                            ..LayerCost::default()
                        },
                    );
                    cost.layer_mut(LayerId(1)).sync_weight = 11;
                    let order = reverse_first_k(&g, k, None::<(u64, &TableCost)>).unwrap();
                    let sim = simulate_data_parallel(&g, &order, &cost, policy).unwrap();
                    let s = datapar_schedule(&g, &order, &cost, policy).unwrap();
                    let pred = predict_makespan(&g, &s, &cost).unwrap();
                    assert_eq!(pred.makespan(), sim.makespan(), "l={l} k={k}");
                    for e in &sim.entries {
                        assert_eq!(pred.finish_of(e.op), Some(e.end), "l={l} k={k} {}", e.op);
                    }
                }
            }
        }
    }
}
