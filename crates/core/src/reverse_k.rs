//! Reverse first-k scheduling (the paper's Algorithm 2) and the concave
//! heuristic search for the optimal `k`.
//!
//! In data-parallel training the first layers' parameter synchronizations
//! are the critical operations: they gate the next iteration's forward
//! pass, which consumes layer 1 first. Reverse first-k scheduling hoists
//! the weight-gradient computations of layers `1..=k` to run immediately
//! after the output-gradient chain reaches them — in *ascending* layer
//! order — so their synchronizations start as early as possible and
//! overlap the remaining backward computation.

use crate::cost::{CostModel, LayerCost, TableCost};
use crate::error::{Error, Result};
use crate::graph::TrainGraph;
use crate::memory::reverse_k_peak_estimate;
use crate::op::{LayerId, Op};
use crate::SimTime;

/// The largest `S[dW]` duration an order instance may be asked for, on
/// the command line (`--sync`) or in an `ooo-serve` request (`sync`):
/// it keeps every timing sum of an instance far from overflow.
pub const MAX_SYNC: SimTime = 1 << 20;

/// A reverse-first-k instance: the data-parallel graph, the uniform
/// cost table whose `S[dW]` lasts `sync`, and the Algorithm 2 order.
#[derive(Debug, Clone)]
pub struct OrderInstance {
    /// `reverse-first-k(l=<layers>, k=<k>)`.
    pub name: String,
    /// Data-parallel graph of `layers` layers.
    pub graph: TrainGraph,
    /// Uniform costs with `sync_weight = sync`.
    pub cost: TableCost,
    /// The reverse-first-k backward order.
    pub order: Vec<Op>,
}

/// Builds the instance of an `order` request: `ooo-tune order`,
/// `ooo-cert order`, `ooo-memcheck order` and their `ooo-serve`
/// commands.
///
/// # Errors
///
/// Propagates [`reverse_first_k`] errors.
pub fn order_instance(layers: usize, k: usize, sync: SimTime) -> Result<OrderInstance> {
    let graph = TrainGraph::data_parallel(layers);
    let cost = TableCost::uniform(
        layers,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    );
    let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>)?;
    Ok(OrderInstance {
        name: format!("reverse-first-k(l={layers}, k={k})"),
        graph,
        cost,
        order,
    })
}

/// Builds the backward-pass order of Algorithm 2 for the given `k`.
///
/// The produced order is: the loss; then for each layer `i` from `L` down
/// to `1`, `dW_i` (only when `i > k`) followed by `dO_i`; then
/// `dW_1, dW_2, ..., dW_k` — i.e. the first `k` weight gradients are
/// *reversed* relative to conventional backpropagation, exactly as in the
/// paper's pseudocode.
///
/// When `budget` is given, `k` is first clamped to the largest value whose
/// estimated peak memory (see
/// [`reverse_k_peak_estimate`]) stays
/// below the budget (Algorithm 2, lines 1–2).
///
/// The returned order covers only loss/`dO`/`dW`; synchronizations,
/// updates, and forwards are driven by the data-parallel simulator.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `k > L`.
pub fn reverse_first_k<C: CostModel>(
    graph: &TrainGraph,
    k: usize,
    budget: Option<(u64, &C)>,
) -> Result<Vec<Op>> {
    let l = graph.layers();
    if k > l {
        return Err(Error::InvalidConfig(format!(
            "k = {k} exceeds layer count {l}"
        )));
    }
    let k = match budget {
        Some((max_bytes, cost)) => k.min(max_feasible_k(graph, max_bytes, cost)),
        None => k,
    };
    let mut order = vec![Op::Loss];
    for i in (1..=l).rev() {
        if i > k {
            order.push(Op::WeightGrad(LayerId(i)));
        }
        if graph.contains(Op::OutputGrad(LayerId(i))) {
            order.push(Op::OutputGrad(LayerId(i)));
        }
    }
    for i in 1..=k {
        order.push(Op::WeightGrad(LayerId(i)));
    }
    Ok(order)
}

/// The largest `j` whose reverse-first-`j` peak-memory estimate stays
/// strictly below `max_bytes` (Algorithm 2, line 1). Returns 0 when even
/// `j = 1` would exceed the budget.
pub fn max_feasible_k<C: CostModel>(graph: &TrainGraph, max_bytes: u64, cost: &C) -> usize {
    (0..=graph.layers())
        .rev()
        .find(|&j| reverse_k_peak_estimate(graph, j, cost) < max_bytes)
        .unwrap_or(0)
}

/// The paper's heuristic search for the throughput-optimal `k`, assuming
/// throughput is roughly concave in `k`.
///
/// Starting with a step of `L/10`, the search scans `k = 0, Δk, 2Δk, …`,
/// keeps the best, then repeats within `(k−Δk, k+Δk)` with the step
/// halved, until the step reaches 1. `throughput(k)` is typically a
/// closure running the data-parallel simulator (in the paper it is a live
/// measurement of the training job).
///
/// Results are memoized per `k`: the refinement window
/// `(best_k−Δk, best_k+Δk)` always re-includes values measured in earlier
/// rounds, and each measurement may be a full simulator sweep (or, in a
/// live system, a noisy throughput sample whose re-measurement could move
/// `best_k` between rounds). The closure is therefore invoked **at most
/// once per distinct `k`**.
pub fn search_optimal_k<F>(layers: usize, mut throughput: F) -> usize
where
    F: FnMut(usize) -> f64,
{
    let mut measured: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let mut best_k = 0usize;
    let mut best_t = f64::NEG_INFINITY;
    let mut lo = 0usize;
    let mut hi = layers;
    let mut step = (layers / 10).max(1);
    loop {
        let mut k = lo;
        while k <= hi && k <= layers {
            let t = *measured.entry(k).or_insert_with(|| throughput(k));
            if t > best_t {
                best_t = t;
                best_k = k;
            }
            if k == hi {
                break;
            }
            k = (k + step).min(hi);
        }
        if step == 1 {
            return best_k;
        }
        lo = best_k.saturating_sub(step);
        hi = (best_k + step).min(layers);
        step = (step / 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::schedule::validate_partial_order;

    #[test]
    fn k_zero_is_conventional_with_dw_first() {
        let g = TrainGraph::data_parallel(4);
        let order = reverse_first_k::<UnitCost>(&g, 0, None).unwrap();
        assert_eq!(
            order,
            vec![
                Op::Loss,
                Op::WeightGrad(LayerId(4)),
                Op::OutputGrad(LayerId(4)),
                Op::WeightGrad(LayerId(3)),
                Op::OutputGrad(LayerId(3)),
                Op::WeightGrad(LayerId(2)),
                Op::OutputGrad(LayerId(2)),
                Op::WeightGrad(LayerId(1)),
            ]
        );
    }

    #[test]
    fn first_k_weight_grads_are_ascending_at_the_end() {
        let g = TrainGraph::data_parallel(5);
        let order = reverse_first_k::<UnitCost>(&g, 3, None).unwrap();
        let tail: Vec<Op> = order[order.len() - 3..].to_vec();
        assert_eq!(
            tail,
            vec![
                Op::WeightGrad(LayerId(1)),
                Op::WeightGrad(LayerId(2)),
                Op::WeightGrad(LayerId(3))
            ]
        );
    }

    #[test]
    fn all_k_values_produce_valid_partial_orders() {
        for l in 1..=10 {
            let g = TrainGraph::data_parallel(l);
            for k in 0..=l {
                let order = reverse_first_k::<UnitCost>(&g, k, None).unwrap();
                validate_partial_order(&g, &order).unwrap();
                let dw = order.iter().filter(|o| o.is_weight_grad()).count();
                assert_eq!(dw, l, "every dW scheduled exactly once");
            }
        }
    }

    #[test]
    fn k_beyond_layers_rejected() {
        let g = TrainGraph::data_parallel(3);
        assert!(reverse_first_k::<UnitCost>(&g, 4, None).is_err());
    }

    #[test]
    fn memory_budget_clamps_k() {
        let g = TrainGraph::data_parallel(10);
        let cost = TableCost::uniform(10, LayerCost::default());
        // M_fwd = 10. Estimate for j: 10 - (10 - j) + j = 2j. Budget 9
        // allows j up to 4 (2*4 = 8 < 9).
        assert_eq!(max_feasible_k(&g, 9, &cost), 4);
        let order = reverse_first_k(&g, 8, Some((9, &cost))).unwrap();
        // Clamped to 4: the tail holds dW_1..dW_4 ascending.
        let tail: Vec<Op> = order[order.len() - 4..].to_vec();
        assert_eq!(
            tail,
            vec![
                Op::WeightGrad(LayerId(1)),
                Op::WeightGrad(LayerId(2)),
                Op::WeightGrad(LayerId(3)),
                Op::WeightGrad(LayerId(4)),
            ]
        );
        assert!(order.iter().filter(|o| o.is_weight_grad()).count() == 10);
    }

    #[test]
    fn search_finds_concave_peak() {
        // A strictly concave throughput with its peak at k = 37.
        let f = |k: usize| -((k as f64 - 37.0).powi(2));
        assert_eq!(search_optimal_k(100, f), 37);
    }

    #[test]
    fn search_handles_small_layer_counts() {
        assert_eq!(search_optimal_k(1, |k| k as f64), 1);
        assert_eq!(search_optimal_k(2, |k| -(k as f64)), 0);
    }

    #[test]
    fn search_peak_at_boundaries() {
        assert_eq!(search_optimal_k(50, |k| k as f64), 50);
        assert_eq!(search_optimal_k(50, |k| -(k as f64)), 0);
    }

    #[test]
    fn search_evaluates_each_k_at_most_once() {
        use std::collections::HashMap;
        for layers in [1usize, 2, 7, 10, 50, 100, 137] {
            let mut calls: HashMap<usize, usize> = HashMap::new();
            let best = search_optimal_k(layers, |k| {
                *calls.entry(k).or_insert(0) += 1;
                // Concave with an off-center peak to force refinement rounds.
                -((k as f64) - (layers as f64) * 0.37).powi(2)
            });
            assert!(best <= layers);
            for (k, n) in &calls {
                assert_eq!(
                    *n, 1,
                    "throughput({k}) evaluated {n} times for layers = {layers}"
                );
            }
        }
    }
}
