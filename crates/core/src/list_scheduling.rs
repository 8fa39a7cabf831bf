//! List scheduling and deterministic schedule simulation.
//!
//! The paper reduces all three training modes to one job-shop-style
//! optimization problem (Section 2) and solves it with variants of list
//! scheduling. This module provides the two generic building blocks:
//!
//! - [`simulate`] — given a fixed multi-lane [`Schedule`], derive exact
//!   start/finish times (lanes execute in issue order; an op starts when
//!   its lane is free and all dependencies have finished) and the
//!   resulting makespan.
//! - [`list_schedule`] — the classic greedy list scheduler: repeatedly
//!   dispatch the highest-priority ready operation to the compatible lane
//!   on which it finishes earliest.

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::graph::TrainGraph;
use crate::op::Op;
use crate::schedule::{ResourceId, Schedule};
use crate::SimTime;

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

/// Simulates a fixed multi-lane schedule under `cost`.
///
/// Each lane executes its operations strictly in issue order; an operation
/// starts at `max(lane_available, max(dep finish times))`. Ops whose
/// dependencies lie outside the schedule treat those dependencies as
/// finished at time zero (supporting partial schedules).
///
/// # Errors
///
/// Returns [`Error::DependencyViolation`] when the lanes deadlock (their
/// orders plus the dependency DAG contain a cycle) and
/// [`Error::DuplicateOp`]/[`Error::UnknownOp`] for malformed schedules.
pub fn simulate<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<Timeline> {
    // Dense op indices per lane, validated in schedule order.
    let mut scheduled: Vec<bool> = vec![false; graph.len()];
    let mut lanes: Vec<Vec<usize>> = Vec::with_capacity(schedule.lanes.len());
    for lane in &schedule.lanes {
        let mut idxs = Vec::with_capacity(lane.ops.len());
        for &op in &lane.ops {
            let idx = graph.op_index(op).ok_or(Error::UnknownOp(op))?;
            if std::mem::replace(&mut scheduled[idx], true) {
                return Err(Error::DuplicateOp(op));
            }
            idxs.push(idx);
        }
        lanes.push(idxs);
    }

    let mut cursor: Vec<usize> = vec![0; lanes.len()];
    let mut lane_avail: Vec<SimTime> = vec![0; lanes.len()];
    let mut finish: Vec<Option<SimTime>> = vec![None; graph.len()];
    let total: usize = schedule.num_ops();
    let mut entries = Vec::with_capacity(total);

    // Commit operations one at a time in nondecreasing start order. A lane
    // head is a candidate once all its dependencies have committed; among
    // candidates the earliest-starting one is committed (ties by lane id).
    // Committing never changes another candidate's start time, so this
    // greedy loop reproduces the true parallel execution exactly.
    while entries.len() < total {
        let mut best: Option<(SimTime, usize, usize)> = None;
        for (li, lane) in lanes.iter().enumerate() {
            let Some(&idx) = lane.get(cursor[li]) else {
                continue;
            };
            let mut ready_at = lane_avail[li];
            let mut ok = true;
            for &dep in graph.dep_indices(idx) {
                if let Some(f) = finish[dep] {
                    ready_at = ready_at.max(f);
                } else if scheduled[dep] {
                    // Dependency scheduled but not yet committed: not a
                    // candidate this round.
                    ok = false;
                    break;
                }
                // Dependencies outside the schedule are assumed complete.
            }
            if ok && best.is_none_or(|(s, _, _)| ready_at < s) {
                best = Some((ready_at, li, idx));
            }
        }
        let Some((start, li, idx)) = best else {
            // No lane head can make progress: cross-lane cycle.
            let blocked = lanes
                .iter()
                .enumerate()
                .find_map(|(li, lane)| lane.get(cursor[li]))
                .copied()
                .expect("uncommitted ops remain");
            let missing = graph
                .dep_indices(blocked)
                .iter()
                .copied()
                .find(|&d| scheduled[d] && finish[d].is_none())
                .unwrap_or(blocked);
            return Err(Error::DependencyViolation {
                op: graph.ops()[blocked],
                missing_dep: graph.ops()[missing],
            });
        };
        let op = graph.ops()[idx];
        let end = start + cost.duration(op);
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
    entries.sort_by_key(|e| (e.start, e.resource.0 as u64, e.end));
    Ok(Timeline { entries })
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
/// Returns the produced schedule and its simulated timeline.
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
    let mut done = 0usize;
    let mut entries = Vec::with_capacity(n);

    while done < n {
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
        entries.push(TimedOp {
            op,
            resource: ResourceId(li),
            start,
            end,
        });
        done += 1;
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
    entries.sort_by_key(|e| (e.start, e.resource.0 as u64, e.end));
    Ok((schedule, Timeline { entries }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LayerCost, TableCost, UnitCost};
    use crate::op::LayerId;

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
}
