//! A deterministic data-parallel iteration simulator.
//!
//! Models one worker's view of a synchronous data-parallel iteration: a
//! single compute resource (the GPU) runs the backward pass in a given
//! order, then updates and the next iteration's forward pass; a single
//! communication resource (the link / parameter-server path) runs the
//! parameter synchronizations `S[dW_i]` under a pluggable policy.
//!
//! The simulator is the evaluation backend for the paper's Figure 4 and
//! for the `k`-search of reverse first-k scheduling; the cluster-level
//! engine in `ooo-cluster` builds on the same structure with full
//! topology-aware synchronization costs from `ooo-netsim`.

use crate::cost::CostModel;
use crate::error::Result;
use crate::graph::TrainGraph;
use crate::list_scheduling::{TimedOp, Timeline};
use crate::op::{LayerId, Op};
use crate::schedule::{validate_partial_order, ResourceId};
use crate::SimTime;

/// Order in which the communication resource serves ready
/// synchronizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPolicy {
    /// First-come-first-served by gradient completion time — the behaviour
    /// of plain wait-free backpropagation.
    FifoCompletion,
    /// Among the ready synchronizations, the lowest layer index goes first
    /// — the prioritized parameter communication of BytePS/ByteScheduler
    /// (layer 1's parameters are needed first by the next forward pass).
    PriorityByLayer,
}

impl CommPolicy {
    /// Stable wire name (inverse of [`CommPolicy::parse`]).
    pub fn wire_name(self) -> &'static str {
        match self {
            CommPolicy::FifoCompletion => "fifo",
            CommPolicy::PriorityByLayer => "bylayer",
        }
    }

    /// Parses a wire name (`fifo` or `bylayer`).
    ///
    /// # Errors
    ///
    /// `unknown policy: "<name>"` for any other name.
    pub fn parse(name: &str) -> std::result::Result<CommPolicy, String> {
        [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer]
            .into_iter()
            .find(|p| p.wire_name() == name)
            .ok_or_else(|| format!("unknown policy: {name:?}"))
    }
}

/// Resource id of the compute lane in the produced timeline.
pub const COMPUTE: ResourceId = ResourceId(0);
/// Resource id of the communication lane in the produced timeline.
pub const LINK: ResourceId = ResourceId(1);

/// The link's service recurrence for the layer synchronizations
/// `S[dW_i]`: a work state that serves one sync per [`SyncPlanner::step`],
/// given each layer's gradient completion time `dw_finish[i]` (1-based;
/// index 0 unused).
///
/// [`SyncPlanner::step`] is the one service-order body behind
/// [`plan_sync_service`] (so [`simulate_data_parallel_with_tail`], the
/// heterogeneous simulator and the static reconstruction in
/// `ooo-verify`'s `datapar_schedule`), [`SyncPlanner::record`] and
/// [`SyncPlanner::resume`] (the order tuner's relocation scorer). Its
/// state before a step is when the link frees, how many arrivals —
/// layers sorted by `(dw_finish, layer)` — have been admitted, and the
/// *ready set* of admitted, unserved layers: a bitset over layers, one
/// 64-bit word per 64 layers. A step serves at `now = link_free` when the
/// ready set is non-empty, else at `max(link_free, next arrival)`, admits
/// every arrival finished by `now`, and picks
///
/// - **FIFO by completion**: the next arrival in `(dw_finish, layer)`
///   order. Every admitted-but-unserved layer finished by `link_free`,
///   so this starts at `max(link_free, dw_finish)` exactly as the
///   original per-pick scan for the pending minimizer of `(dw_finish,
///   layer)` did;
/// - **priority by layer**: the lowest set bit of the ready set — the
///   original filter-then-`min()` over the layers ready at `now`.
///
/// Arrivals are sorted once per plan (O(L log L)); a step costs one
/// admission per arrival it passes plus, for the priority pick, a scan
/// of at most `⌈L / 64⌉` words.
#[derive(Debug, Clone, Default)]
pub struct SyncPlanner {
    /// Layers in arrival order `(dw_finish, layer)`.
    arrivals: Vec<usize>,
    /// The ready set: layer `i` is bit `(i - 1) % 64` of word `(i - 1) / 64`.
    ready: Vec<u64>,
    link_free: SimTime,
    /// Arrivals admitted so far (a cursor into `arrivals`).
    admitted: usize,
    /// Syncs served so far: the index of the next step.
    served: usize,
}

/// A from-scratch link plan with the planner's state before every step
/// ([`SyncPlanner::record`]), so a plan of changed finish times can
/// [`SyncPlanner::resume`] at the first step the change can affect.
#[derive(Debug, Clone, Default)]
pub struct SyncTrail {
    /// `(layer, wire_start, wire_end)` in service order.
    service: Vec<(usize, SimTime, SimTime)>,
    /// The plan's arrival order.
    arrivals: Vec<usize>,
    /// `(link_free, admitted)` before each step.
    states: Vec<(SimTime, usize)>,
    /// The ready set before each step, `words` words per step.
    ready: Vec<u64>,
    words: usize,
}

impl SyncTrail {
    /// The plan: `(layer, wire_start, wire_end)` in service order.
    pub fn service(&self) -> &[(usize, SimTime, SimTime)] {
        &self.service
    }

    /// The first step that starts at or after `t`: every earlier step
    /// admitted only layers that finished before `t`.
    pub fn first_step_at(&self, t: SimTime) -> usize {
        self.service.partition_point(|&(_, start, _)| start < t)
    }
}

impl SyncPlanner {
    /// Resets the planner to step 0 of `dw_finish`: sorts the arrivals
    /// and empties the ready set.
    fn start(&mut self, dw_finish: &[SimTime]) {
        let l = dw_finish.len().saturating_sub(1);
        self.arrivals.clear();
        self.arrivals.extend(1..=l);
        self.arrivals.sort_unstable_by_key(|&i| (dw_finish[i], i));
        self.ready.clear();
        self.ready.resize(l.div_ceil(64), 0);
        (self.link_free, self.admitted, self.served) = (0, 0, 0);
    }

    /// Serves the next synchronization of `dw_finish` under `policy`:
    /// `(layer, wire_start, wire_end)`, with `sync_ns(layer)` the wire
    /// occupancy, or `None` once every layer is served.
    pub fn step(
        &mut self,
        dw_finish: &[SimTime],
        policy: CommPolicy,
        sync_ns: impl FnOnce(usize) -> SimTime,
    ) -> Option<(usize, SimTime, SimTime)> {
        let &next = self.arrivals.get(self.served)?;
        let now = if self.admitted == self.served {
            self.link_free.max(dw_finish[self.arrivals[self.admitted]])
        } else {
            self.link_free
        };
        while let Some(&i) = self.arrivals.get(self.admitted) {
            if dw_finish[i] > now {
                break;
            }
            self.ready[(i - 1) / 64] |= 1 << ((i - 1) % 64);
            self.admitted += 1;
        }
        let pick = match policy {
            CommPolicy::FifoCompletion => next,
            CommPolicy::PriorityByLayer => {
                let (w, word) = (self.ready.iter().enumerate())
                    .find(|(_, &word)| word != 0)
                    .expect("admitted at least one");
                w * 64 + word.trailing_zeros() as usize + 1
            }
        };
        self.ready[(pick - 1) / 64] &= !(1 << ((pick - 1) % 64));
        self.served += 1;
        let end = now + sync_ns(pick);
        self.link_free = end;
        Some((pick, now, end))
    }

    /// Plans `dw_finish` from scratch into `trail`, recording the state
    /// before every step. `trail`'s buffers are reused.
    pub fn record(
        &mut self,
        dw_finish: &[SimTime],
        policy: CommPolicy,
        mut sync_ns: impl FnMut(usize) -> SimTime,
        trail: &mut SyncTrail,
    ) {
        self.start(dw_finish);
        trail.arrivals.clone_from(&self.arrivals);
        trail.words = self.ready.len();
        trail.service.clear();
        trail.states.clear();
        trail.ready.clear();
        loop {
            trail.states.push((self.link_free, self.admitted));
            trail.ready.extend_from_slice(&self.ready);
            let Some(served) = self.step(dw_finish, policy, &mut sync_ns) else {
                break;
            };
            trail.service.push(served);
        }
    }

    /// Sets the planner to the state before step `step` of the recorded
    /// plan, for finish times `dw_finish` that differ from the recorded
    /// ones only in layers whose old and new finishes are both after the
    /// start of every step before `step` — so with `step =
    /// trail.first_step_at(t0)` for any `t0` at or below every changed
    /// finish, old and new. Those steps admitted the same layers and
    /// served the same syncs under either, so their state carries over;
    /// the arrivals not yet admitted are re-sorted by insertion, in time
    /// linear in their number plus the distance the changed layers move.
    pub fn resume(&mut self, trail: &SyncTrail, step: usize, dw_finish: &[SimTime]) {
        let (link_free, admitted) = trail.states[step];
        (self.link_free, self.admitted, self.served) = (link_free, admitted, step);
        self.arrivals.clone_from(&trail.arrivals);
        self.ready.clear();
        self.ready
            .extend_from_slice(&trail.ready[step * trail.words..(step + 1) * trail.words]);
        let rest = &mut self.arrivals[admitted..];
        for j in 1..rest.len() {
            let i = rest[j];
            let mut k = j;
            while k > 0 && (dw_finish[rest[k - 1]], rest[k - 1]) > (dw_finish[i], i) {
                rest[k] = rest[k - 1];
                k -= 1;
            }
            rest[k] = i;
        }
    }
}

/// Plans the order in which the link serves the layer synchronizations
/// `S[dW_i]` from scratch ([`SyncPlanner`]), given each layer's gradient
/// completion time `dw_finish[i]` (1-based; index 0 unused) and per-layer
/// wire occupancy `sync_ns(i)`. Fills `plan` with `(layer, wire_start,
/// wire_end)` in service order; `planner` is the work state. Both are
/// caller-owned and cleared first, so a caller that keeps them plans
/// without allocating.
pub fn plan_sync_service(
    dw_finish: &[SimTime],
    policy: CommPolicy,
    mut sync_ns: impl FnMut(usize) -> SimTime,
    planner: &mut SyncPlanner,
    plan: &mut Vec<(usize, SimTime, SimTime)>,
) {
    planner.start(dw_finish);
    plan.clear();
    while let Some(served) = planner.step(dw_finish, policy, &mut sync_ns) {
        plan.push(served);
    }
}

/// Simulates one data-parallel iteration.
///
/// `backward` is the compute order of the backward pass (loss, `dO`s and
/// `dW`s — e.g. the output of
/// [`crate::reverse_k::reverse_first_k`]); the simulator appends the
/// updates and forward computations in layer order, each gated on its
/// synchronization.
///
/// # Errors
///
/// Propagates validation errors when `backward` is not a valid partial
/// order of `graph`.
pub fn simulate_data_parallel<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<Timeline> {
    simulate_data_parallel_with_tail(graph, backward, cost, policy, 0)
}

/// Like [`simulate_data_parallel`], with a per-synchronization *latency
/// tail*: after a synchronization's link occupancy ends, `tail_ns` more
/// elapse before the updated parameters are usable (aggregation barrier,
/// server round trip). The tail delays dependants but does not occupy the
/// link, so it pipelines across tensors — the mechanism that makes
/// *starting* a critical synchronization earlier (reverse first-k) pay
/// off even when a priority queue already orders the wire optimally.
///
/// # Errors
///
/// Propagates validation errors.
pub fn simulate_data_parallel_with_tail<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
    tail_ns: SimTime,
) -> Result<Timeline> {
    validate_partial_order(graph, backward)?;
    let l = graph.layers();
    let mut entries: Vec<TimedOp> = Vec::with_capacity(graph.len());

    // 1. Backward pass on the compute lane, strictly in the given order.
    //    (Validity was checked above, so sequential execution satisfies
    //    every dependency.)
    let mut t: SimTime = 0;
    let mut dw_finish: Vec<SimTime> = vec![0; l + 1];
    for &op in backward {
        let end = t + cost.duration(op);
        entries.push(TimedOp {
            op,
            resource: COMPUTE,
            start: t,
            end,
        });
        if let Op::WeightGrad(LayerId(i)) = op {
            dw_finish[i] = end;
        }
        t = end;
    }
    let backward_done = t;

    // 2. Synchronizations on the link lane under `policy`. FIFO by
    //    completion = ready-time order with completion sequence as the
    //    tie-break, which equals ready-time order here because each dW
    //    finish time is distinct per compute sequencing (ties broken by
    //    layer for determinism). The service order itself comes from the
    //    shared planner ([`SyncPlanner`]).
    let mut sync_finish: Vec<SimTime> = vec![0; l + 1];
    let mut plan = Vec::new();
    plan_sync_service(
        &dw_finish,
        policy,
        |i| cost.duration(Op::SyncWeightGrad(LayerId(i))),
        &mut SyncPlanner::default(),
        &mut plan,
    );
    for (pick, start, end) in plan {
        let op = Op::SyncWeightGrad(LayerId(pick));
        entries.push(TimedOp {
            op,
            resource: LINK,
            start,
            end: end + tail_ns,
        });
        // Only the wire occupancy blocks the link; the tail pipelines.
        sync_finish[pick] = end + tail_ns;
    }

    // 3. Updates and forward pass on the compute lane, layer order. U_i is
    //    gated on S[dW_i]; F_i on U_i and F_{i-1}.
    let mut t = backward_done;
    #[allow(clippy::needless_range_loop)] // i is the 1-based layer index
    for i in 1..=l {
        let u = Op::Update(LayerId(i));
        let start = t.max(sync_finish[i]);
        let end = start + cost.duration(u);
        if graph.contains(u) {
            entries.push(TimedOp {
                op: u,
                resource: COMPUTE,
                start,
                end,
            });
        }
        t = end;
        let f = Op::Forward(LayerId(i));
        let fe = t + cost.duration(f);
        entries.push(TimedOp {
            op: f,
            resource: COMPUTE,
            start: t,
            end: fe,
        });
        t = fe;
    }

    entries.sort_by_key(|e| (e.start, e.resource.0 as u64, e.end));
    Ok(Timeline { entries })
}

/// A per-worker relative speed, stored as an exact integer percentage
/// (100 = the reference speed, 150 = every compute op takes 1.5x as
/// long). Integer arithmetic keeps the heterogeneous simulator exactly
/// reproducible and makes the uniform case (`percent == 100`) reduce to
/// the homogeneous path *byte for byte*: `ns * 100 / 100 == ns` with no
/// floating-point rounding in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpeedFactor {
    /// Slowdown percentage: 100 is nominal, larger is slower.
    pub percent: u32,
}

impl SpeedFactor {
    /// The reference speed (no scaling).
    pub const UNIT: SpeedFactor = SpeedFactor { percent: 100 };

    /// A factor from a percentage (clamped to at least 1).
    pub fn percent(percent: u32) -> Self {
        SpeedFactor {
            percent: percent.max(1),
        }
    }

    /// Whether this factor leaves durations unchanged.
    pub fn is_unit(self) -> bool {
        self.percent == 100
    }

    /// Scales a duration by this factor with exact integer arithmetic
    /// (round up, so a slow worker is never optimistically fast).
    pub fn scale(self, ns: SimTime) -> SimTime {
        if self.percent == 100 {
            return ns;
        }
        (ns * self.percent as SimTime).div_ceil(100)
    }
}

impl Default for SpeedFactor {
    fn default() -> Self {
        SpeedFactor::UNIT
    }
}

/// The outcome of a heterogeneous data-parallel iteration: one timeline
/// per worker plus the fleet makespan.
#[derive(Debug, Clone)]
pub struct HeteroOutcome {
    /// Per-worker timelines (compute lane `COMPUTE`, shared link lane
    /// `LINK`; the link entries are identical across workers because the
    /// synchronization service is a fleet-level resource).
    pub workers: Vec<Timeline>,
    /// Layer synchronization finish times (1-based; index 0 unused).
    pub sync_finish: Vec<SimTime>,
}

impl HeteroOutcome {
    /// The fleet makespan: the slowest worker's iteration finish.
    pub fn makespan(&self) -> SimTime {
        self.workers
            .iter()
            .map(Timeline::makespan)
            .max()
            .unwrap_or(0)
    }

    /// Index of the worker that finishes last (the straggler).
    pub fn straggler(&self) -> usize {
        (0..self.workers.len())
            .max_by_key(|&w| (self.workers[w].makespan(), std::cmp::Reverse(w)))
            .unwrap_or(0)
    }
}

/// Simulates one synchronous data-parallel iteration over a fleet of
/// workers with per-worker [`SpeedFactor`]s — the heterogeneous
/// generalization of [`simulate_data_parallel_with_tail`].
///
/// Every worker runs the same backward `order` on its own compute lane
/// with its compute durations scaled by its factor. A layer's parameter
/// synchronization becomes ready only when *every* worker has finished
/// that layer's `dW` (the synchronous all-reduce barrier), the link
/// serves the ready synchronizations under `policy`, and each worker's
/// update/forward tail is gated on the shared synchronization finishes.
///
/// With a uniform fleet (`[SpeedFactor::UNIT; n]`) every worker's
/// timeline equals the homogeneous simulator's output exactly — the
/// differential the conformance suite pins byte-for-byte.
///
/// # Errors
///
/// Returns [`crate::error::Error::InvalidConfig`] for an empty fleet and
/// propagates validation errors when `backward` is not a valid partial
/// order of `graph`.
pub fn simulate_data_parallel_hetero<C: CostModel>(
    graph: &TrainGraph,
    backward: &[Op],
    cost: &C,
    policy: CommPolicy,
    tail_ns: SimTime,
    speeds: &[SpeedFactor],
) -> Result<HeteroOutcome> {
    if speeds.is_empty() {
        return Err(crate::error::Error::InvalidConfig(
            "heterogeneous fleet needs at least one worker".into(),
        ));
    }
    validate_partial_order(graph, backward)?;
    let l = graph.layers();

    // 1. Backward pass per worker, scaled durations, strictly sequential.
    let mut per_worker: Vec<Vec<TimedOp>> = Vec::with_capacity(speeds.len());
    let mut backward_done: Vec<SimTime> = Vec::with_capacity(speeds.len());
    let mut dw_finish: Vec<SimTime> = vec![0; l + 1];
    for &s in speeds {
        let mut entries = Vec::with_capacity(graph.len());
        let mut t: SimTime = 0;
        for &op in backward {
            let end = t + s.scale(cost.duration(op));
            entries.push(TimedOp {
                op,
                resource: COMPUTE,
                start: t,
                end,
            });
            if let Op::WeightGrad(LayerId(i)) = op {
                // The all-reduce for layer i waits for the slowest worker.
                dw_finish[i] = dw_finish[i].max(end);
            }
            t = end;
        }
        backward_done.push(t);
        per_worker.push(entries);
    }

    // 2. Synchronizations on the shared link under `policy`, gated on the
    //    fleet-wide dW barriers. The wire is a single fleet resource, so
    //    every worker sees the same link lane.
    let mut sync_finish: Vec<SimTime> = vec![0; l + 1];
    let mut link_entries: Vec<TimedOp> = Vec::with_capacity(l);
    let mut plan = Vec::new();
    plan_sync_service(
        &dw_finish,
        policy,
        |i| cost.duration(Op::SyncWeightGrad(LayerId(i))),
        &mut SyncPlanner::default(),
        &mut plan,
    );
    for (pick, start, end) in plan {
        link_entries.push(TimedOp {
            op: Op::SyncWeightGrad(LayerId(pick)),
            resource: LINK,
            start,
            end: end + tail_ns,
        });
        sync_finish[pick] = end + tail_ns;
    }

    // 3. Update + forward tail per worker, scaled, gated on the shared
    //    synchronization finishes — the same construction as the
    //    homogeneous path.
    let mut workers = Vec::with_capacity(speeds.len());
    for (w, &s) in speeds.iter().enumerate() {
        let mut entries = std::mem::take(&mut per_worker[w]);
        entries.extend(link_entries.iter().copied());
        let mut t = backward_done[w];
        #[allow(clippy::needless_range_loop)] // i is the 1-based layer index
        for i in 1..=l {
            let u = Op::Update(LayerId(i));
            let start = t.max(sync_finish[i]);
            let end = start + s.scale(cost.duration(u));
            if graph.contains(u) {
                entries.push(TimedOp {
                    op: u,
                    resource: COMPUTE,
                    start,
                    end,
                });
            }
            t = end;
            let f = Op::Forward(LayerId(i));
            let fe = t + s.scale(cost.duration(f));
            entries.push(TimedOp {
                op: f,
                resource: COMPUTE,
                start: t,
                end: fe,
            });
            t = fe;
        }
        entries.sort_by_key(|e| (e.start, e.resource.0 as u64, e.end));
        workers.push(Timeline { entries });
    }
    Ok(HeteroOutcome {
        workers,
        sync_finish,
    })
}

/// Convenience: iteration makespan of reverse first-k scheduling under
/// `policy`.
///
/// # Errors
///
/// Propagates errors from schedule construction and simulation.
pub fn reverse_k_makespan<C: CostModel>(
    graph: &TrainGraph,
    k: usize,
    cost: &C,
    policy: CommPolicy,
) -> Result<SimTime> {
    let order = crate::reverse_k::reverse_first_k(graph, k, None::<(u64, &C)>)?;
    Ok(simulate_data_parallel(graph, &order, cost, policy)?.makespan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LayerCost, TableCost};
    use crate::reverse_k::{reverse_first_k, search_optimal_k};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The heap loop [`SyncPlanner`] replaced: arrivals sorted by
    /// `(dw_finish, layer)` and consumed through a cursor, FIFO serving
    /// them in that order and the priority policy popping a min-layer
    /// `BinaryHeap` of the admitted layers. The differential test holds
    /// the planner to it.
    fn heap_plan(
        dw_finish: &[SimTime],
        policy: CommPolicy,
        sync_ns: impl Fn(usize) -> SimTime,
    ) -> Vec<(usize, SimTime, SimTime)> {
        let l = dw_finish.len().saturating_sub(1);
        let mut plan: Vec<(usize, SimTime, SimTime)> = (1..=l).map(|i| (i, 0, 0)).collect();
        plan.sort_unstable_by_key(|&(i, _, _)| (dw_finish[i], i));
        let mut link_free: SimTime = 0;
        match policy {
            CommPolicy::FifoCompletion => {
                for entry in plan.iter_mut() {
                    let i = entry.0;
                    let start = link_free.max(dw_finish[i]);
                    let end = start + sync_ns(i);
                    *entry = (i, start, end);
                    link_free = end;
                }
            }
            CommPolicy::PriorityByLayer => {
                let mut ready = BinaryHeap::new();
                let mut cursor = 0usize;
                for served in 0..l {
                    let now = if ready.is_empty() {
                        link_free.max(dw_finish[plan[cursor].0])
                    } else {
                        link_free
                    };
                    while cursor < l && dw_finish[plan[cursor].0] <= now {
                        ready.push(Reverse(plan[cursor].0));
                        cursor += 1;
                    }
                    let Reverse(pick) = ready.pop().expect("admitted at least one");
                    let end = now + sync_ns(pick);
                    plan[served] = (pick, now, end);
                    link_free = end;
                }
            }
        }
        plan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        /// Over 1–130 layers (so one to three ready-set words), finish
        /// times drawn from a range narrow enough for many ties, and
        /// wire occupancies from 0, under both policies: a plan from
        /// scratch equals the heap loop's, and so does the recorded plan.
        /// Resuming the recording at `first_step_at(t0)` — for `t0` at
        /// every step's start and at random times — after moving random
        /// layers that finish at or after `t0` to random finishes at or
        /// after `t0`, then stepping to the end, gives the recorded
        /// steps before it followed by exactly the from-scratch plan of
        /// the changed finishes. One planner and trail serve every case,
        /// so stale state must not leak.
        #[test]
        fn planner_equals_the_heap_loop_and_resumes_exactly(
            l in 1usize..131,
            spread in 1u64..200,
            seed in 0u64..1_000_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dw_finish = vec![0; l + 1];
            for f in &mut dw_finish[1..] {
                *f = rng.gen_range(0..spread);
            }
            let sync: Vec<SimTime> = (0..=l).map(|_| rng.gen_range(0..4)).collect();
            let sync_ns = |i: usize| sync[i];
            let (mut planner, mut trail, mut plan) =
                (SyncPlanner::default(), SyncTrail::default(), Vec::new());
            for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                plan_sync_service(&dw_finish, policy, sync_ns, &mut planner, &mut plan);
                prop_assert_eq!(&plan, &heap_plan(&dw_finish, policy, sync_ns), "{:?}", policy);
                planner.record(&dw_finish, policy, sync_ns, &mut trail);
                prop_assert_eq!(&trail.service, &plan);
                let starts = trail.service.iter().map(|&(_, start, _)| start);
                let random: Vec<SimTime> = (0..4).map(|_| rng.gen_range(0..spread + 8)).collect();
                for t0 in starts.chain(random) {
                    let mut changed = dw_finish.clone();
                    for f in &mut changed[1..] {
                        if *f >= t0 && rng.gen_bool(0.3) {
                            *f = t0 + rng.gen_range(0..spread);
                        }
                    }
                    let k = trail.first_step_at(t0);
                    planner.resume(&trail, k, &changed);
                    let mut resumed = trail.service[..k].to_vec();
                    while let Some(served) = planner.step(&changed, policy, sync_ns) {
                        resumed.push(served);
                    }
                    prop_assert_eq!(
                        &resumed,
                        &heap_plan(&changed, policy, sync_ns),
                        "{:?} t0 {} resumed at step {}",
                        policy,
                        t0,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            assert_eq!(CommPolicy::parse(p.wire_name()), Ok(p));
        }
        assert_eq!(
            CommPolicy::parse("lifo"),
            Err("unknown policy: \"lifo\"".to_string())
        );
    }

    fn cost(l: usize, sync: SimTime) -> TableCost {
        TableCost::uniform(
            l,
            LayerCost {
                forward: 1,
                output_grad: 1,
                weight_grad: 1,
                sync_weight: sync,
                ..LayerCost::default()
            },
        )
    }

    #[test]
    fn zero_sync_cost_gives_pure_compute_makespan() {
        let g = TrainGraph::data_parallel(5);
        let c = cost(5, 0);
        let m = reverse_k_makespan(&g, 0, &c, CommPolicy::FifoCompletion).unwrap();
        // 4 dO + 5 dW + 5 F = 14 units.
        assert_eq!(m, 14);
    }

    #[test]
    fn priority_no_worse_than_fifo() {
        for l in [5usize, 10, 20] {
            for sync in [1u64, 2, 3, 5] {
                let g = TrainGraph::data_parallel(l);
                let c = cost(l, sync);
                let fifo = reverse_k_makespan(&g, 0, &c, CommPolicy::FifoCompletion).unwrap();
                let prio = reverse_k_makespan(&g, 0, &c, CommPolicy::PriorityByLayer).unwrap();
                assert!(prio <= fifo, "l={l} sync={sync}: {prio} > {fifo}");
            }
        }
    }

    #[test]
    fn reverse_k_beats_plain_priority_when_sync_dominates() {
        // The regime of the paper's Section 8.3 discussion: the first
        // layer's synchronization is large relative to the backward pass
        // (350 ms vs 380 ms for ResNet-50 on 16 GPUs). Hoisting the first
        // layers' dW lets that critical synchronization start much
        // earlier.
        let g = TrainGraph::data_parallel(20);
        let mut c = cost(20, 1);
        c.layer_mut(LayerId(1)).sync_weight = 20;
        let base = reverse_k_makespan(&g, 0, &c, CommPolicy::PriorityByLayer).unwrap();
        let best = (0..=20)
            .map(|k| reverse_k_makespan(&g, k, &c, CommPolicy::PriorityByLayer).unwrap())
            .min()
            .unwrap();
        assert!(best < base, "best {best} vs base {base}");
    }

    #[test]
    fn search_optimal_k_improves_throughput() {
        let g = TrainGraph::data_parallel(30);
        let c = cost(30, 2);
        let tp = |k: usize| {
            let m = reverse_k_makespan(&g, k, &c, CommPolicy::PriorityByLayer).unwrap();
            1.0 / m as f64
        };
        let k = search_optimal_k(30, tp);
        let m_best = reverse_k_makespan(&g, k, &c, CommPolicy::PriorityByLayer).unwrap();
        let m_zero = reverse_k_makespan(&g, 0, &c, CommPolicy::PriorityByLayer).unwrap();
        assert!(m_best <= m_zero);
    }

    #[test]
    fn all_ops_appear_once() {
        let g = TrainGraph::data_parallel(7);
        let c = cost(7, 2);
        let order = reverse_first_k(&g, 3, None::<(u64, &TableCost)>).unwrap();
        let t = simulate_data_parallel(&g, &order, &c, CommPolicy::PriorityByLayer).unwrap();
        assert_eq!(t.entries.len(), g.len());
        let mut ops: Vec<Op> = t.entries.iter().map(|e| e.op).collect();
        ops.sort();
        ops.dedup();
        assert_eq!(ops.len(), g.len());
    }

    #[test]
    fn link_never_overlaps_itself() {
        let g = TrainGraph::data_parallel(9);
        let c = cost(9, 4);
        let order = reverse_first_k(&g, 4, None::<(u64, &TableCost)>).unwrap();
        let t = simulate_data_parallel(&g, &order, &c, CommPolicy::PriorityByLayer).unwrap();
        let mut lanes: Vec<&TimedOp> = t.entries.iter().filter(|e| e.resource == LINK).collect();
        lanes.sort_by_key(|e| e.start);
        for w in lanes.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn forward_gated_by_sync() {
        let g = TrainGraph::data_parallel(3);
        let mut c = cost(3, 10);
        c.layer_mut(LayerId(1)).sync_weight = 50;
        let order = reverse_first_k(&g, 0, None::<(u64, &TableCost)>).unwrap();
        let t = simulate_data_parallel(&g, &order, &c, CommPolicy::PriorityByLayer).unwrap();
        let s1 = t.finish_of(Op::SyncWeightGrad(LayerId(1))).unwrap();
        let f1 = t.start_of(Op::Forward(LayerId(1))).unwrap();
        assert!(f1 >= s1);
    }
}
