//! List scheduling and deterministic schedule evaluation.
//!
//! The paper reduces all three training modes to one job-shop-style
//! optimization problem (Section 2) and solves it with variants of list
//! scheduling. This module provides the generic building blocks:
//!
//! - [`predict_makespan`] — the one evaluator of a fixed multi-lane
//!   [`Schedule`]: a single topological pass over the union of lane
//!   program order and dependency edges with the recurrence
//!
//!   ```text
//!   start(op)  = max(finish(lane predecessor), max over deps finish(dep))
//!   finish(op) = start(op) + cost.duration(op)
//!   ```
//!
//!   Dependencies outside the schedule count as finished at time zero,
//!   supporting the partial schedules of reverse first-k scheduling.
//! - [`simulate`] — the same pass as a [`Timeline`], ops sorted by start.
//! - [`list_schedule`] — the classic greedy list scheduler: repeatedly
//!   dispatch the highest-priority ready operation to the compatible lane
//!   on which it finishes earliest.
//!
//! Nothing else in the workspace evaluates a fixed multi-lane schedule
//! but the tuner's incremental `DeltaEval` (in `ooo-verify`), which keeps
//! the same recurrence's times under edits. The two are written apart,
//! and certification compares them. No independent engine exists for
//! multi-lane or op-level schedules: the event-driven GPU simulator
//! shares SM block slots between streams and charges issue overhead, so
//! it does not compute this recurrence, and the pipeline simulator works
//! on micro-batches, not ops. Data-parallel backward orders do have one,
//! [`crate::datapar::simulate_data_parallel`].

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::graph::TrainGraph;
use crate::op::Op;
use crate::schedule::{ResourceId, Schedule};
use crate::SimTime;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One executed operation with its simulated interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp {
    /// The operation.
    pub op: Op,
    /// Lane it executed on.
    pub resource: ResourceId,
    /// Start time (ns).
    pub start: SimTime,
    /// Finish time (ns).
    pub end: SimTime,
}

/// The result of simulating a schedule: every operation with exact times.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Executed operations, sorted by `(start, resource)`.
    pub entries: Vec<TimedOp>,
}

impl Timeline {
    /// The makespan: latest finish time across all operations.
    pub fn makespan(&self) -> SimTime {
        self.entries.iter().map(|e| e.end).max().unwrap_or(0)
    }

    /// Finish time of `op`, if it was executed.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        self.entries.iter().find(|e| e.op == op).map(|e| e.end)
    }

    /// Start time of `op`, if it was executed.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        self.entries.iter().find(|e| e.op == op).map(|e| e.start)
    }

    /// Total busy time of `resource`.
    pub fn busy_time(&self, resource: ResourceId) -> SimTime {
        self.entries
            .iter()
            .filter(|e| e.resource == resource)
            .map(|e| e.end - e.start)
            .sum()
    }

    /// Busy time of `resource` divided by the makespan, in `[0, 1]`.
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let m = self.makespan();
        if m == 0 {
            return 0.0;
        }
        self.busy_time(resource) as f64 / m as f64
    }

    /// Renders a unit-time ASCII Gantt chart, one row per lane, matching
    /// the style of the paper's Figures 5/6/12. Cells show the layer index
    /// of the op occupying the slot (`.` = idle). Only meaningful for
    /// small unit-cost schedules.
    pub fn render_ascii(&self, lane_names: &[&str]) -> String {
        let makespan = self.makespan();
        let mut rows = vec![vec![String::from("."); makespan as usize]; lane_names.len()];
        for e in &self.entries {
            let row = e.resource.0;
            if row >= rows.len() {
                continue;
            }
            for t in e.start..e.end {
                let label = match e.op {
                    Op::Forward(l) => format!("F{}", l.0),
                    Op::OutputGrad(l) => format!("o{}", l.0),
                    Op::WeightGrad(l) => format!("w{}", l.0),
                    Op::Update(l) => format!("u{}", l.0),
                    Op::SyncWeightGrad(l) => format!("s{}", l.0),
                    Op::SyncOutputGrad(l) => format!("t{}", l.0),
                    Op::Loss => "LL".into(),
                };
                rows[row][t as usize] = label;
            }
        }
        let mut out = String::new();
        for (name, row) in lane_names.iter().zip(rows) {
            out.push_str(&format!("{name:>8} |"));
            for cell in row {
                out.push_str(&format!("{cell:>4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// One scheduled operation with its evaluated interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedOp {
    /// The operation.
    pub op: Op,
    /// Index of the lane it is placed on.
    pub lane: usize,
    /// Position within the lane.
    pub index: usize,
    /// Start time (ns).
    pub start: SimTime,
    /// Finish time (ns).
    pub end: SimTime,
}

/// The outcome of evaluating one schedule with [`predict_makespan`].
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
    /// The makespan: latest finish across all lanes.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Every op with its interval, in lane-major schedule order.
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

    /// Start time of `op`, if scheduled.
    pub fn start_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.start)
    }

    /// Finish time of `op`, if scheduled.
    pub fn finish_of(&self, op: Op) -> Option<SimTime> {
        self.node_of(op).map(|p| p.end)
    }

    /// Total busy time of lane `lane`.
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

    /// The ops as a [`Timeline`], sorted by `(start, lane, end)` (ops
    /// equal in all three keep their lane order).
    pub fn into_timeline(self) -> Timeline {
        let mut entries: Vec<TimedOp> = self
            .ops
            .into_iter()
            .map(|p| TimedOp {
                op: p.op,
                resource: ResourceId(p.lane),
                start: p.start,
                end: p.end,
            })
            .collect();
        entries.sort_by_key(|e| (e.start, e.resource.0, e.end));
        Timeline { entries }
    }

    /// One critical path: a chain of ops, each starting exactly when its
    /// binding predecessor finishes, ending at the makespan.
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

/// Marks a graph op that is not in the schedule being evaluated.
const UNSCHEDULED: usize = usize::MAX;

/// Evaluates a fixed multi-lane schedule under `cost`: a single
/// topological pass over the union of lane program order and dependency
/// edges.
///
/// Each lane executes its operations strictly in issue order; an
/// operation starts at `max(lane predecessor's finish, max(dep finish
/// times))`. Dependencies outside the schedule are treated as finished at
/// time zero (supporting partial schedules). Nodes are addressed through
/// the graph's dense op indices ([`TrainGraph::op_index`],
/// [`TrainGraph::dep_indices`]): a node's union-graph predecessors are
/// its lane predecessor and its scheduled dependencies, its successors
/// its lane successor and its scheduled dependents, so the pass needs no
/// per-call op map or edge tables.
///
/// # Errors
///
/// [`Error::UnknownOp`] / [`Error::DuplicateOp`] for malformed schedules
/// (the first offending op in lane-major order) and
/// [`Error::DependencyViolation`] when the lanes deadlock: `op` is the
/// first op in lane-major order that never runs, `missing_dep` its first
/// scheduled dependency (in graph order) that never finishes.
pub fn predict_makespan<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<Prediction> {
    let total: usize = schedule.num_ops();
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
        // The union graph has a cycle: the lanes deadlock. The ops that
        // never run are exactly those with inputs left, so the first of
        // them heads its lane's unrun suffix.
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

/// Evaluates a fixed multi-lane schedule under `cost` as a [`Timeline`]:
/// [`predict_makespan`]'s pass, then [`Prediction::into_timeline`].
///
/// # Errors
///
/// As [`predict_makespan`]: [`Error::DependencyViolation`] when the
/// lanes deadlock (their orders plus the dependency DAG contain a cycle)
/// and [`Error::DuplicateOp`]/[`Error::UnknownOp`] for malformed
/// schedules.
pub fn simulate<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<Timeline> {
    predict_makespan(graph, schedule, cost).map(Prediction::into_timeline)
}

/// Describes one lane available to [`list_schedule`].
pub struct LaneSpec<'a> {
    /// Lane name (for the produced [`Schedule`]).
    pub name: &'a str,
    /// Predicate selecting which operations may run on this lane.
    pub accepts: Box<dyn Fn(Op) -> bool + 'a>,
}

impl<'a> LaneSpec<'a> {
    /// A lane accepting every compute operation.
    pub fn compute(name: &'a str) -> Self {
        LaneSpec {
            name,
            accepts: Box::new(|op| op.is_compute()),
        }
    }

    /// A lane accepting every synchronization operation.
    pub fn link(name: &'a str) -> Self {
        LaneSpec {
            name,
            accepts: Box::new(|op| op.is_sync()),
        }
    }
}

/// Greedy list scheduling: repeatedly pick the ready operation with the
/// highest `priority` (ties broken by the graph's canonical order) and
/// place it on the accepting lane where it finishes earliest.
///
/// Returns the produced schedule and its [`simulate`]d timeline (the
/// dispatch times are the schedule's own list-evaluation times).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when some operation is accepted by no
/// lane.
pub fn list_schedule<C, P>(
    graph: &TrainGraph,
    cost: &C,
    lanes: &[LaneSpec<'_>],
    priority: P,
) -> Result<(Schedule, Timeline)>
where
    C: CostModel,
    P: Fn(Op) -> i64,
{
    let n = graph.len();
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.dep_indices(i).len()).collect();
    let mut finish: Vec<SimTime> = vec![0; n];
    let mut lane_avail: Vec<SimTime> = vec![0; lanes.len()];
    let mut lane_ops: Vec<Vec<Op>> = vec![Vec::new(); lanes.len()];
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();

    for _ in 0..n {
        if ready.is_empty() {
            return Err(Error::InvalidConfig(
                "dependency graph did not drain".into(),
            ));
        }
        // Highest priority first; canonical index breaks ties for
        // determinism.
        let (pos, &idx) = ready
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| (priority(graph.ops()[i]), std::cmp::Reverse(i)))
            .expect("ready is non-empty");
        ready.swap_remove(pos);
        let op = graph.ops()[idx];
        let deps_done: SimTime = graph
            .dep_indices(idx)
            .iter()
            .map(|&d| finish[d])
            .max()
            .unwrap_or(0);
        let mut best: Option<(SimTime, usize)> = None;
        for (li, lane) in lanes.iter().enumerate() {
            if !(lane.accepts)(op) {
                continue;
            }
            let start = lane_avail[li].max(deps_done);
            if best.is_none_or(|(s, _)| start < s) {
                best = Some((start, li));
            }
        }
        let Some((start, li)) = best else {
            return Err(Error::InvalidConfig(format!(
                "no lane accepts operation {op}"
            )));
        };
        let end = start + cost.duration(op);
        finish[idx] = end;
        lane_avail[li] = end;
        lane_ops[li].push(op);
        for &j in graph.dependent_indices(idx) {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }

    let mut schedule = Schedule::new();
    for (spec, ops) in lanes.iter().zip(lane_ops) {
        schedule.add_lane(spec.name, ops);
    }
    let timeline = simulate(graph, &schedule, cost)?;
    Ok((schedule, timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LayerCost, TableCost, UnitCost};
    use crate::multi_region::{backward_regions, multi_region_joint_schedule, ConstantProfile};
    use crate::op::LayerId;
    use crate::pipeline::{op_level_schedule, Strategy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::result::Result as StdResult;

    #[test]
    fn single_lane_conventional_makespan() {
        // L layers, unit cost: (L-1) dO + L dW + L F = 3L - 1 units.
        let g = TrainGraph::single_gpu(5);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let t = simulate(&g, &s, &UnitCost).unwrap();
        assert_eq!(t.makespan(), 14);
    }

    #[test]
    fn two_streams_overlap_weight_grads() {
        // Weight gradients on a sub-stream overlap the main stream, so the
        // makespan shrinks versus the single-lane case.
        let g = TrainGraph::single_gpu(5);
        let mut main = vec![Op::Loss];
        for i in (2..=5).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=5 {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in (1..=5).rev() {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        let t = simulate(&g, &s, &UnitCost).unwrap();
        assert!(t.makespan() < 14, "got {}", t.makespan());
    }

    #[test]
    fn deadlocked_lanes_are_reported() {
        let g = TrainGraph::single_gpu(2);
        let mut s = Schedule::new();
        // Two lanes whose heads wait on each other's later ops.
        s.add_lane("a", vec![Op::WeightGrad(LayerId(1)), Op::Loss]);
        s.add_lane("b", vec![Op::OutputGrad(LayerId(2))]);
        assert!(matches!(
            simulate(&g, &s, &UnitCost),
            Err(Error::DependencyViolation { .. })
        ));
    }

    #[test]
    fn partial_schedule_assumes_outside_deps_done() {
        let g = TrainGraph::single_gpu(3);
        // Only the weight gradients: their dO dependencies are not part of
        // the schedule and are assumed complete.
        let s = Schedule::single_lane("sub", g.weight_grads());
        let t = simulate(&g, &s, &UnitCost).unwrap();
        assert_eq!(t.makespan(), 3);
    }

    #[test]
    fn list_schedule_covers_all_ops() {
        let g = TrainGraph::data_parallel(6);
        let lanes = [LaneSpec::compute("gpu"), LaneSpec::link("nic")];
        let (s, t) = list_schedule(&g, &UnitCost, &lanes, |_| 0).unwrap();
        assert_eq!(s.num_ops(), g.len());
        crate::schedule::validate_schedule(&g, &s).unwrap();
        assert!(t.makespan() > 0);
    }

    #[test]
    fn list_schedule_priority_is_respected() {
        // Prioritizing dW_1's chain should finish S[dW_1] earlier than a
        // neutral priority does.
        let mut cost = TableCost::uniform(
            8,
            LayerCost {
                sync_weight: 4,
                ..LayerCost::default()
            },
        );
        cost.loss = 0;
        let g = TrainGraph::data_parallel(8);
        let lanes = || [LaneSpec::compute("gpu"), LaneSpec::link("nic")];
        let prio = |op: Op| match op {
            Op::WeightGrad(LayerId(i)) => 100 - i as i64,
            _ => 0,
        };
        let (_, t_prio) = list_schedule(&g, &cost, &lanes(), prio).unwrap();
        let (_, t_neutral) = list_schedule(&g, &cost, &lanes(), |_| 0).unwrap();
        let f_prio = t_prio.finish_of(Op::SyncWeightGrad(LayerId(1))).unwrap();
        let f_neutral = t_neutral.finish_of(Op::SyncWeightGrad(LayerId(1))).unwrap();
        assert!(f_prio <= f_neutral, "{f_prio} vs {f_neutral}");
    }

    #[test]
    fn timeline_utilization() {
        let g = TrainGraph::single_gpu(4);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let t = simulate(&g, &s, &UnitCost).unwrap();
        // A single lane with no gaps is fully utilized.
        assert!((t.utilization(ResourceId(0)) - 1.0).abs() < 1e-9);
        assert_eq!(t.busy_time(ResourceId(0)), t.makespan());
    }

    #[test]
    fn ascii_rendering_mentions_ops() {
        let g = TrainGraph::single_gpu(2);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let t = simulate(&g, &s, &UnitCost).unwrap();
        let art = t.render_ascii(&["gpu"]);
        assert!(art.contains("w1"));
        assert!(art.contains("F2"));
    }

    /// A greedy lane-head commit loop, the differential oracle of
    /// [`predict_makespan`]'s pass: the earliest-starting lane head whose
    /// scheduled dependencies have all committed commits next (ties by
    /// lane id). Committing never changes
    /// another candidate's start time, so the loop reproduces the parallel
    /// execution exactly.
    fn commit_loop<C: CostModel>(g: &TrainGraph, s: &Schedule, cost: &C) -> Result<Timeline> {
        let mut scheduled = vec![false; g.len()];
        let mut lanes: Vec<Vec<usize>> = Vec::new();
        for lane in &s.lanes {
            let mut idxs = Vec::new();
            for &op in &lane.ops {
                let idx = g.op_index(op).ok_or(Error::UnknownOp(op))?;
                if std::mem::replace(&mut scheduled[idx], true) {
                    return Err(Error::DuplicateOp(op));
                }
                idxs.push(idx);
            }
            lanes.push(idxs);
        }
        let (mut cursor, mut lane_avail) = (vec![0; lanes.len()], vec![0; lanes.len()]);
        let mut finish: Vec<Option<SimTime>> = vec![None; g.len()];
        let unfinished = |d: usize, finish: &[Option<SimTime>]| scheduled[d] && finish[d].is_none();
        let mut entries = Vec::new();
        while entries.len() < s.num_ops() {
            let mut best: Option<(SimTime, usize, usize)> = None;
            for (li, lane) in lanes.iter().enumerate() {
                let Some(&idx) = lane.get(cursor[li]) else {
                    continue;
                };
                let deps = g.dep_indices(idx);
                if deps.iter().any(|&d| unfinished(d, &finish)) {
                    continue;
                }
                let ready_at = deps.iter().filter_map(|&d| finish[d]);
                let ready_at = ready_at.fold(lane_avail[li], SimTime::max);
                if best.is_none_or(|(s, _, _)| ready_at < s) {
                    best = Some((ready_at, li, idx));
                }
            }
            let Some((start, li, idx)) = best else {
                // No lane head can make progress: a cross-lane cycle.
                let blocked = (0..lanes.len()).find_map(|li| lanes[li].get(cursor[li]));
                let blocked = *blocked.expect("uncommitted ops remain");
                let deps = g.dep_indices(blocked);
                let missing = deps.iter().find(|&&d| unfinished(d, &finish));
                return Err(Error::DependencyViolation {
                    op: g.ops()[blocked],
                    missing_dep: g.ops()[*missing.unwrap_or(&blocked)],
                });
            };
            let (op, end) = (g.ops()[idx], start + cost.duration(g.ops()[idx]));
            finish[idx] = Some(end);
            entries.push(TimedOp {
                op,
                resource: ResourceId(li),
                start,
                end,
            });
            cursor[li] += 1;
            lane_avail[li] = end;
        }
        entries.sort_by_key(|e| (e.start, e.resource.0, e.end));
        Ok(Timeline { entries })
    }

    /// `simulate` and `predict_makespan` against the commit loop on one
    /// schedule: equal entries and times, or the equal error. Returns
    /// whether the schedule ran.
    fn agrees<C: CostModel>(
        g: &TrainGraph,
        s: &Schedule,
        cost: &C,
    ) -> StdResult<bool, TestCaseError> {
        let want = commit_loop(g, s, cost);
        let sim = simulate(g, s, cost);
        prop_assert_eq!(
            sim.as_ref().map(|t| &t.entries),
            want.as_ref().map(|t| &t.entries)
        );
        match (predict_makespan(g, s, cost), &want) {
            (Ok(p), Ok(t)) => {
                prop_assert_eq!(p.makespan(), t.makespan());
                for e in &t.entries {
                    let times = (p.start_of(e.op), p.finish_of(e.op));
                    prop_assert_eq!(times, (Some(e.start), Some(e.end)));
                }
            }
            (p, t) => prop_assert_eq!(p.err(), t.clone().err()),
        }
        Ok(want.is_ok())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dense pass (`predict_makespan`, and `simulate` over it)
        /// equals the commit loop on every schedule: entries, times and
        /// error values. Under a random cost table (one in four
        /// all-zero), each case deals a random topological order of each
        /// graph kind over 1–4 lanes, then runs it, `list_schedule`'s
        /// timeline under random priorities, a partial copy, a copy
        /// with two ops swapped (often a cross-lane deadlock), one with an
        /// op moved before its dependency (a deadlock), one with an op
        /// repeated and one also holding an op the graph lacks; then every
        /// pipeline strategy's op-level schedule and a multi-region joint
        /// schedule.
        #[test]
        fn dense_pass_equals_the_commit_loop(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = rng.gen_range(2usize..10);
            let max = if rng.gen_bool(0.25) { 1 } else { rng.gen_range(2..8) };
            let mut cost = TableCost::uniform(l, LayerCost::default());
            cost.loss = rng.gen_range(0..max);
            for i in 1..=l {
                let c = cost.layer_mut(LayerId(i));
                for d in [&mut c.forward, &mut c.output_grad, &mut c.weight_grad] {
                    *d = rng.gen_range(0..max);
                }
                for d in [&mut c.update, &mut c.sync_weight, &mut c.sync_output] {
                    *d = rng.gen_range(0..max);
                }
            }
            for g in [
                TrainGraph::single_gpu(l),
                TrainGraph::data_parallel(l),
                TrainGraph::pipeline_parallel(l),
            ] {
                // A random topological order dealt over the lanes runs.
                let mut indeg: Vec<usize> = (0..g.len()).map(|i| g.dep_indices(i).len()).collect();
                let mut ready: Vec<usize> = (0..g.len()).filter(|&i| indeg[i] == 0).collect();
                let mut s = Schedule::new();
                for li in 0..rng.gen_range(1..=4) {
                    s.add_lane(&format!("lane{li}"), Vec::new());
                }
                let lanes = s.lanes.len();
                while !ready.is_empty() {
                    let v = ready.swap_remove(rng.gen_range(0..ready.len()));
                    s.lanes[rng.gen_range(0..lanes)].ops.push(g.ops()[v]);
                    for &w in g.dependent_indices(v) {
                        indeg[w] -= 1;
                        if indeg[w] == 0 {
                            ready.push(w);
                        }
                    }
                }
                prop_assert!(agrees(&g, &s, &cost)?, "a topological deal must run");

                // `list_schedule`'s timeline is its schedule's evaluation.
                let prio: Vec<i64> = (0..g.len()).map(|_| rng.gen_range(0..4)).collect();
                let spec = [LaneSpec::compute("a"), LaneSpec::compute("b"), LaneSpec::link("c")];
                let rank = |op: Op| prio[g.op_index(op).unwrap()];
                let (listed, t) = list_schedule(&g, &cost, &spec, rank).unwrap();
                let want = commit_loop(&g, &listed, &cost).map(|t| t.entries);
                prop_assert_eq!(Ok(t.entries), want);

                let mut partial = s.clone();
                partial.lanes.iter_mut().for_each(|x| x.ops.retain(|_| rng.gen_bool(0.6)));
                agrees(&g, &partial, &cost)?;

                let mut swapped = s.clone();
                let (la, lb) = (rng.gen_range(0..lanes), rng.gen_range(0..lanes));
                let (na, nb) = (s.lanes[la].ops.len(), s.lanes[lb].ops.len());
                if na > 0 && nb > 0 {
                    let (a, b) = (rng.gen_range(0..na), rng.gen_range(0..nb));
                    swapped.lanes[la].ops[a] = s.lanes[lb].ops[b];
                    swapped.lanes[lb].ops[b] = s.lanes[la].ops[a];
                }
                agrees(&g, &swapped, &cost)?;

                // An op with a dependency, moved to just before it.
                let mut early = s.clone();
                let v = (1..g.len()).find(|&i| !g.dep_indices(i).is_empty() && rng.gen_bool(0.3));
                let v = v.unwrap_or(g.len() - 1);
                let (op, dep) = (g.ops()[v], g.ops()[g.dep_indices(v)[0]]);
                early.lanes.iter_mut().for_each(|x| x.ops.retain(|&o| o != op));
                let lane = early.lanes.iter_mut().find(|x| x.ops.contains(&dep)).unwrap();
                let at = lane.ops.iter().position(|&o| o == dep).unwrap();
                lane.ops.insert(at, op);
                prop_assert!(!agrees(&g, &early, &cost)?, "a dependent before its dependency");

                // A repeated op, then also an op the graph lacks, each at
                // a random place.
                for extra in [g.ops()[rng.gen_range(0..g.len())], Op::Forward(LayerId(l + 1))] {
                    let ops = &mut s.lanes[rng.gen_range(0..lanes)].ops;
                    ops.insert(rng.gen_range(0..=ops.len()), extra);
                    prop_assert!(!agrees(&g, &s, &cost)?, "{} must not run", extra);
                }
            }

            let devices = rng.gen_range(1usize..=4);
            for strategy in Strategy::ALL {
                let (g, s) = op_level_schedule(l, devices, strategy, rng.gen_range(1usize..=3));
                prop_assert!(agrees(&g, &s, &cost)?, "{:?} must run", strategy);
            }
            let g = TrainGraph::single_gpu(l);
            let (regions, subs) = backward_regions(&g, &cost, rng.gen_range(1usize..=3));
            let profile = ConstantProfile {
                speedup: 1.0 + rng.gen_range(0..5) as f64 / 10.0,
                sub_time: rng.gen_range(1..5),
            };
            let mrs = multi_region_joint_schedule(&g, &regions, &subs, &profile).unwrap();
            prop_assert!(agrees(&g, &mrs.to_schedule(&regions), &cost)?, "multi-region must run");
        }
    }
}
