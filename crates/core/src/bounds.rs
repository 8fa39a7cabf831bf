//! Lower bounds on iteration makespan.
//!
//! The paper's Section 2 problem is NP-hard, so its schedulers are
//! heuristics; these bounds quantify how close a schedule gets. Two
//! classical bounds apply:
//!
//! - **critical path**: the longest dependency chain through the
//!   iteration (no schedule can beat the chain);
//! - **resource bound**: total work per resource class divided by the
//!   number of lanes of that class;
//! - **class load bound**: the resource bound sharpened with the
//!   earliest time any op of the class can start and the shortest
//!   dependency chain that must still run after the last one finishes —
//!   on `datapar` graphs this accounts for the transfer/compute overlap
//!   the plain work bound ignores.
//!
//! `optimality_gap` compares a simulated makespan against the largest of
//! the three.

use crate::cost::CostModel;
use crate::graph::TrainGraph;
use crate::{Op, Schedule, SimTime};

/// The critical-path lower bound: the longest cost-weighted dependency
/// chain in the graph.
pub fn critical_path<C: CostModel>(graph: &TrainGraph, cost: &C) -> SimTime {
    // Upward ranks already compute exactly this; the maximum rank is the
    // critical path length.
    crate::heft::upward_ranks(graph, cost)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// The resource lower bound: total compute work divided by
/// `compute_lanes`, and total synchronization work divided by
/// `link_lanes`, whichever is larger.
pub fn resource_bound<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    compute_lanes: usize,
    link_lanes: usize,
) -> SimTime {
    let mut compute: SimTime = 0;
    let mut sync: SimTime = 0;
    for &op in graph.ops() {
        if op.is_sync() {
            sync += cost.duration(op);
        } else {
            compute += cost.duration(op);
        }
    }
    let c = compute / compute_lanes.max(1) as SimTime;
    let s = sync / link_lanes.max(1) as SimTime;
    c.max(s)
}

/// Earliest possible start time of every op (by dense graph index)
/// ignoring resource contention: the longest cost-weighted dependency
/// chain ending at the op's start. In any schedule that executes the
/// whole graph, no op can start earlier.
pub fn earliest_starts<C: CostModel>(graph: &TrainGraph, cost: &C) -> Vec<SimTime> {
    let n = graph.len();
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.dep_indices(i).len()).collect();
    let mut est: Vec<SimTime> = vec![0; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = queue.pop() {
        let finish = est[i] + cost.duration(graph.ops()[i]);
        for &s in graph.dependent_indices(i) {
            est[s] = est[s].max(finish);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    est
}

/// The per-class load bound with head and tail slack: for each resource
/// class (compute ops on `compute_lanes`, synchronizations on
/// `link_lanes`),
///
/// ```text
/// min est(op) + ceil(class work / class lanes) + min (rank(op) - dur(op))
/// ```
///
/// over the class's positive-duration ops. The class's work cannot begin
/// before its earliest possible start, needs at least `work / lanes` of
/// wall time on the class's lanes, and whichever class op finishes last
/// still has its remaining critical path (`rank - dur`, at least the
/// class minimum) ahead of it. Unlike [`resource_bound`] this is tight
/// on `datapar` graphs where the link lane can neither start before the
/// first `dW` lands nor finish the iteration by itself.
pub fn class_load_bound<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    compute_lanes: usize,
    link_lanes: usize,
) -> SimTime {
    let est = earliest_starts(graph, cost);
    let ranks = crate::heft::upward_ranks(graph, cost);
    let mut best: SimTime = 0;
    for (class_is_sync, lanes) in [(false, compute_lanes), (true, link_lanes)] {
        let mut work: SimTime = 0;
        let mut head = SimTime::MAX;
        let mut tail = SimTime::MAX;
        for (i, &op) in graph.ops().iter().enumerate() {
            if op.is_sync() != class_is_sync {
                continue;
            }
            let d = cost.duration(op);
            if d == 0 {
                // Zero-duration ops add no load and would only weaken
                // the head/tail slack.
                continue;
            }
            work += d;
            head = head.min(est[i]);
            tail = tail.min(ranks[i] - d);
        }
        if work > 0 {
            best = best.max(head + work.div_ceil(lanes.max(1) as SimTime) + tail);
        }
    }
    best
}

/// The combined lower bound: the largest of the critical path, the
/// plain resource bound, and the head/tail-sharpened class load bound.
pub fn lower_bound<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    compute_lanes: usize,
    link_lanes: usize,
) -> SimTime {
    critical_path(graph, cost)
        .max(resource_bound(graph, cost, compute_lanes, link_lanes))
        .max(class_load_bound(graph, cost, compute_lanes, link_lanes))
}

/// The combined lower bound restricted to the op subset `scheduled`:
/// every schedule that executes exactly these ops on the given lane
/// counts takes at least this long, under the partial-schedule contract
/// that dependencies outside the subset are treated as finished at
/// time 0.
///
/// This is [`lower_bound`] when `scheduled` covers the whole graph; on
/// a proper subset (e.g. the backward-plus-sync realization that
/// [`crate::datapar`] engines run) the whole-graph bound would
/// over-count work the schedule never executes and is *not* a valid
/// bound, while this one is. Ops not in the graph are ignored.
pub fn partial_lower_bound<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    scheduled: &[Op],
    compute_lanes: usize,
    link_lanes: usize,
) -> SimTime {
    let n = graph.len();
    let mut in_set = vec![false; n];
    for &op in scheduled {
        if let Some(i) = graph.op_index(op) {
            in_set[i] = true;
        }
    }
    // Canonical storage order is topological: ascending indices for the
    // forward pass, descending for the backward pass.
    let mut est: Vec<SimTime> = vec![0; n];
    for i in 0..n {
        if !in_set[i] {
            continue;
        }
        for &d in graph.dep_indices(i) {
            if in_set[d] {
                est[i] = est[i].max(est[d] + cost.duration(graph.ops()[d]));
            }
        }
    }
    let mut rank: Vec<SimTime> = vec![0; n];
    for i in (0..n).rev() {
        if !in_set[i] {
            continue;
        }
        let mut below: SimTime = 0;
        for &s in graph.dependent_indices(i) {
            if in_set[s] {
                below = below.max(rank[s]);
            }
        }
        rank[i] = cost.duration(graph.ops()[i]) + below;
    }
    let mut best: SimTime = 0;
    for i in 0..n {
        if in_set[i] {
            best = best.max(est[i] + rank[i]);
        }
    }
    for (class_is_sync, lanes) in [(false, compute_lanes), (true, link_lanes)] {
        let mut work: SimTime = 0;
        let mut head = SimTime::MAX;
        let mut tail = SimTime::MAX;
        for (i, &op) in graph.ops().iter().enumerate() {
            if !in_set[i] || op.is_sync() != class_is_sync {
                continue;
            }
            let d = cost.duration(op);
            if d == 0 {
                continue;
            }
            work += d;
            head = head.min(est[i]);
            tail = tail.min(rank[i] - d);
        }
        if work > 0 {
            best = best.max(head + work.div_ceil(lanes.max(1) as SimTime) + tail);
        }
    }
    best
}

/// The compute and link lane counts of `schedule`: lanes running at
/// least one compute op, and lanes running at least one sync op, each
/// floored at 1.
pub fn lane_counts(schedule: &Schedule) -> (usize, usize) {
    let count = |class: fn(Op) -> bool| {
        schedule
            .lanes
            .iter()
            .filter(|l| l.ops.iter().any(|&o| class(o)))
            .count()
            .max(1)
    };
    (count(Op::is_compute), count(Op::is_sync))
}

/// The certified makespan floor of `schedule`: [`partial_lower_bound`]
/// over exactly the ops it runs, on its own [`lane_counts`]. Moves that
/// reorder or relocate ops without adding lanes or ops cannot beat it,
/// so a schedule that meets it is provably makespan-optimal.
pub fn schedule_lower_bound<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    schedule: &Schedule,
) -> SimTime {
    let scheduled: Vec<Op> = schedule
        .lanes
        .iter()
        .flat_map(|l| l.ops.iter().copied())
        .collect();
    let (compute, link) = lane_counts(schedule);
    partial_lower_bound(graph, cost, &scheduled, compute, link)
}

/// Makespan divided by the lower bound (1.0 = provably optimal).
///
/// A zero lower bound (empty graph or all-zero cost model) is
/// degenerate: any schedule takes at least 0, so a zero makespan is
/// vacuously optimal (gap 1.0) while a positive makespan against a zero
/// bound has an unbounded gap (`f64::INFINITY`), never a garbage ratio
/// or a panic.
pub fn optimality_gap<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    compute_lanes: usize,
    link_lanes: usize,
    makespan: SimTime,
) -> f64 {
    let lb = lower_bound(graph, cost, compute_lanes, link_lanes);
    if lb == 0 {
        return if makespan == 0 { 1.0 } else { f64::INFINITY };
    }
    makespan as f64 / lb as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LayerCost, TableCost, UnitCost};
    use crate::datapar::{reverse_k_makespan, CommPolicy};
    use crate::list_scheduling::{simulate, LaneSpec};
    use crate::reverse_k::search_optimal_k;
    use crate::schedule::Schedule;

    #[test]
    fn critical_path_of_unit_chain() {
        // Single GPU, L layers, unit cost: the chain
        // loss -> dO_L..dO_2 -> dW_1 -> U_1 -> F_1..F_L
        // has (L-1) dO + 1 dW + L F = 2L units.
        let g = TrainGraph::single_gpu(6);
        assert_eq!(critical_path(&g, &UnitCost), 12);
    }

    #[test]
    fn resource_bound_counts_work() {
        let g = TrainGraph::single_gpu(5);
        // Work: 4 dO + 5 dW + 5 F = 14 units on 1 lane; 7 on 2 lanes.
        assert_eq!(resource_bound(&g, &UnitCost, 1, 1), 14);
        assert_eq!(resource_bound(&g, &UnitCost, 2, 1), 7);
    }

    #[test]
    fn single_lane_conventional_is_optimal() {
        // On one lane the conventional schedule meets the resource bound
        // exactly: the gap is 1.0.
        let g = TrainGraph::single_gpu(8);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let t = simulate(&g, &s, &UnitCost).unwrap();
        let gap = optimality_gap(&g, &UnitCost, 1, 1, t.makespan());
        assert!((gap - 1.0).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn two_stream_schedule_approaches_the_bound() {
        // With dW on a sub-stream, the makespan approaches
        // max(critical path, work/2).
        let g = TrainGraph::single_gpu(10);
        let lanes = [LaneSpec::compute("main"), LaneSpec::compute("sub")];
        let (_, t) = crate::heft::heft_schedule(&g, &UnitCost, &lanes).unwrap();
        let gap = optimality_gap(&g, &UnitCost, 2, 1, t.makespan());
        assert!(gap < 1.25, "gap {gap}");
    }

    #[test]
    fn reverse_k_search_lands_near_the_bound() {
        // Data-parallel with moderate syncs: the searched k's makespan is
        // within 1.3x of the lower bound (1 compute lane + 1 link lane).
        let l = 24;
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 1,
                ..LayerCost::default()
            },
        );
        let g = TrainGraph::data_parallel(l);
        let k = search_optimal_k(l, |k| {
            -(reverse_k_makespan(&g, k, &cost, CommPolicy::PriorityByLayer).unwrap() as f64)
        });
        let m = reverse_k_makespan(&g, k, &cost, CommPolicy::PriorityByLayer).unwrap();
        let gap = optimality_gap(&g, &cost, 1, 1, m);
        assert!(gap < 1.3, "gap {gap}");
    }

    #[test]
    fn chain_bounds_hand_computed() {
        // L=1 single-GPU: the whole graph is the chain
        // Loss(3) -> dW_1(5) -> U_1(2) -> F_1(7), total 17.
        let g = TrainGraph::single_gpu(1);
        let mut cost = TableCost::uniform(
            1,
            LayerCost {
                forward: 7,
                weight_grad: 5,
                update: 2,
                ..LayerCost::default()
            },
        );
        cost.loss = 3;
        assert_eq!(critical_path(&g, &cost), 17);
        assert_eq!(resource_bound(&g, &cost, 1, 1), 17);
        // A chain admits no parallelism: more lanes lower the resource
        // bound but the critical path keeps the combined bound at 17.
        assert_eq!(resource_bound(&g, &cost, 2, 1), 8);
        assert_eq!(lower_bound(&g, &cost, 1, 1), 17);
        assert_eq!(lower_bound(&g, &cost, 2, 1), 17);
    }

    #[test]
    fn diamond_bounds_hand_computed() {
        // L=2 single-GPU is a diamond: Loss forks into the dO_2 arm
        // (Loss -> dO_2 -> dW_1 -> U_1 -> F_1 -> F_2, cost 18) and the
        // dW_2 arm (Loss -> dW_2 -> U_2 -> F_2, cost 10), rejoining at
        // F_2.
        let g = TrainGraph::single_gpu(2);
        let mut cost = TableCost::new(vec![
            LayerCost {
                forward: 5,
                weight_grad: 4,
                update: 0,
                ..LayerCost::default()
            },
            LayerCost {
                forward: 6,
                output_grad: 2,
                weight_grad: 3,
                update: 0,
                ..LayerCost::default()
            },
        ]);
        cost.loss = 1;
        assert_eq!(critical_path(&g, &cost), 18);
        // Total work 1+2+4+5 + 3+6 = 21.
        assert_eq!(resource_bound(&g, &cost, 1, 1), 21);
        assert_eq!(resource_bound(&g, &cost, 2, 1), 10);
        assert_eq!(lower_bound(&g, &cost, 1, 1), 21);
        // Two lanes: the long diamond arm dominates the halved work.
        assert_eq!(lower_bound(&g, &cost, 2, 1), 18);
    }

    #[test]
    fn wide_fanout_bounds_hand_computed() {
        // Backward-only graph with free dO ops: all four dW_i(5) fan out
        // from Loss(2) at the same depth — a root with four wide,
        // independent children.
        let config = crate::graph::GraphConfig {
            include_updates: false,
            include_forward: false,
            ..crate::graph::GraphConfig::single_gpu(4)
        };
        let g = TrainGraph::new(config).unwrap();
        let mut cost = TableCost::uniform(
            4,
            LayerCost {
                output_grad: 0,
                weight_grad: 5,
                ..LayerCost::default()
            },
        );
        cost.loss = 2;
        // Longest chain: Loss -> (free dO prefix) -> one dW.
        assert_eq!(critical_path(&g, &cost), 7);
        // Work: 2 + 4*5 = 22 units.
        assert_eq!(resource_bound(&g, &cost, 1, 1), 22);
        assert_eq!(resource_bound(&g, &cost, 4, 1), 5);
        assert_eq!(lower_bound(&g, &cost, 1, 1), 22);
        // Four lanes: the chain through the root dominates.
        assert_eq!(lower_bound(&g, &cost, 4, 1), 7);
    }

    #[test]
    fn class_load_bound_is_strictly_tighter_on_sync_heavy_datapar() {
        // l=4 data-parallel, sync_weight=4, defaults elsewhere.
        // Compute work 11, sync work 16, critical path 12, so the old
        // bound is max(12, 16) = 16. The link lane cannot start before
        // the first dW lands (est(S[dW4]) = 1) and after the last sync
        // at least U+F work (1) remains: 1 + 16 + 1 = 18.
        let g = TrainGraph::data_parallel(4);
        let cost = TableCost::uniform(
            4,
            LayerCost {
                sync_weight: 4,
                ..LayerCost::default()
            },
        );
        let old = critical_path(&g, &cost).max(resource_bound(&g, &cost, 1, 1));
        assert_eq!(old, 16);
        assert_eq!(class_load_bound(&g, &cost, 1, 1), 18);
        assert_eq!(lower_bound(&g, &cost, 1, 1), 18);
        // And no reverse-k realization beats the tightened bound.
        for k in 0..=4 {
            let m = reverse_k_makespan(&g, k, &cost, CommPolicy::FifoCompletion).unwrap();
            assert!(m >= 18, "k={k} makespan {m}");
        }
    }

    #[test]
    fn class_load_bound_never_exceeds_simulated_makespans() {
        // Validity sweep: the tightened bound stays below every
        // realizable data-parallel makespan across layer counts, sync
        // weights, ks, and both communication policies.
        for l in [2usize, 5, 9, 13] {
            for sync in [1, 3, 7] {
                let g = TrainGraph::data_parallel(l);
                let cost = TableCost::uniform(
                    l,
                    LayerCost {
                        sync_weight: sync,
                        ..LayerCost::default()
                    },
                );
                let lb = lower_bound(&g, &cost, 1, 1);
                for k in 0..=l {
                    for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                        let m = reverse_k_makespan(&g, k, &cost, policy).unwrap();
                        assert!(m >= lb, "l={l} sync={sync} k={k} {m} < {lb}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_lower_bound_gap_is_well_defined() {
        // All-zero cost model: the lower bound collapses to 0. A zero
        // makespan is vacuously optimal; a positive one has an unbounded
        // (infinite) gap — never NaN, a panic, or a bogus finite ratio.
        let g = TrainGraph::single_gpu(3);
        let zero = TableCost::uniform(
            3,
            LayerCost {
                forward: 0,
                output_grad: 0,
                weight_grad: 0,
                update: 0,
                ..LayerCost::default()
            },
        );
        assert_eq!(lower_bound(&g, &zero, 1, 1), 0);
        let gap0 = optimality_gap(&g, &zero, 1, 1, 0);
        assert!((gap0 - 1.0).abs() < 1e-12, "zero/zero gap {gap0}");
        let gap_pos = optimality_gap(&g, &zero, 1, 1, 42);
        assert!(gap_pos.is_infinite() && gap_pos > 0.0, "gap {gap_pos}");
        assert!(!gap_pos.is_nan());
    }

    #[test]
    fn partial_bound_matches_full_bound_on_the_whole_graph() {
        for l in [3usize, 6] {
            let g = TrainGraph::data_parallel(l);
            let cost = TableCost::uniform(
                l,
                LayerCost {
                    sync_weight: 3,
                    ..LayerCost::default()
                },
            );
            let all: Vec<crate::Op> = g.ops().to_vec();
            assert_eq!(
                partial_lower_bound(&g, &cost, &all, 1, 1),
                lower_bound(&g, &cost, 1, 1),
                "l={l}"
            );
        }
    }

    #[test]
    fn partial_bound_is_valid_for_backward_only_realizations() {
        // The datapar engines realize only the backward + sync subset;
        // the whole-graph bound over-counts the forward/update work they
        // never run, while the subset bound stays below every
        // realization.
        let l = 6;
        let g = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 2,
                ..LayerCost::default()
            },
        );
        let subset: Vec<crate::Op> = g
            .ops()
            .iter()
            .copied()
            .filter(|o| o.is_backward() || o.is_sync())
            .collect();
        let plb = partial_lower_bound(&g, &cost, &subset, 1, 1);
        assert!(plb > 0);
        for k in 0..=l {
            let order =
                crate::reverse_k::reverse_first_k(&g, k, None::<(u64, &TableCost)>).unwrap();
            let syncs: Vec<crate::Op> = order
                .iter()
                .filter(|o| o.is_weight_grad())
                .map(|o| crate::Op::SyncWeightGrad(o.layer().unwrap()))
                .collect();
            let mut s = Schedule::default();
            s.add_lane("gpu", order);
            s.add_lane("link", syncs);
            let m = simulate(&g, &s, &cost).unwrap().makespan();
            assert!(m >= plb, "k={k} {m} < {plb}");
            // ... while the whole-graph bound over-counts and is NOT a
            // valid bound for this subset.
            assert!(plb < lower_bound(&g, &cost, 1, 1), "k={k}");
        }
    }

    #[test]
    fn makespan_never_beats_the_bound() {
        for l in [3usize, 7, 15] {
            let g = TrainGraph::data_parallel(l);
            let cost = TableCost::uniform(
                l,
                LayerCost {
                    sync_weight: 2,
                    ..LayerCost::default()
                },
            );
            for k in [0, l / 2, l] {
                let m = reverse_k_makespan(&g, k, &cost, CommPolicy::PriorityByLayer).unwrap();
                assert!(m >= lower_bound(&g, &cost, 1, 1), "l={l} k={k}");
            }
        }
    }
}
