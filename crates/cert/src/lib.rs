//! # ooo-cert — exact schedule-optimality certification
//!
//! The paper's Section 2 scheduling problem is NP-hard, so everything
//! else in this workspace is a heuristic: the three schedulers
//! approximate, [`ooo_tune`](../ooo_tune/index.html) local-searches, and
//! [`ooo_core::bounds`] brackets the result from below. This crate
//! closes the loop with a static analysis pass that **proves** schedule
//! optimality (or refutes it with a counter-example): a branch-and-bound
//! exact solver over the *union graph* — per-lane program order plus the
//! dependency edges — of the certified operation set.
//!
//! ## How the solver works
//!
//! - **Branching** is chronological semi-active enumeration: a *ready*
//!   op (all in-set dependencies placed) is appended to a lane and
//!   starts at `max(lane available, dependencies finished)`. For
//!   makespan some optimal schedule is always semi-active, and every
//!   semi-active schedule is reached by appending along a topological
//!   order of its union graph, so the enumeration is complete.
//! - **Scoring** is incremental: every partial placement is maintained
//!   by [`ooo_verify::predict::DeltaEval`], which re-times only the
//!   appended op (nothing placed depends on it yet). Every certificate cross-checks the
//!   delta result against a full re-evaluation by the one
//!   list-evaluation pass ([`ooo_verify::predict::predict_makespan`],
//!   written apart from the delta evaluator) with tolerance 0 — a
//!   disagreement aborts with [`Error::DeltaMismatch`] rather than
//!   emitting an unsound proof.
//! - **Pruning** combines a dynamic critical-path bound, the per-class
//!   head/tail load bounds of [`ooo_core::bounds::class_load_bound`]
//!   recomputed against live lane availabilities, lane-symmetry
//!   dominance (interchangeable same-class lanes with equal
//!   availability), and a visited-state memo.
//!
//! ## Certificates
//!
//! [`Certificate`] is three-valued: [`Certificate::Optimal`] (no
//! schedule of the certified space beats the input),
//! [`Certificate::Improvable`] (a strictly better *witness* schedule,
//! itself optimal when the search completed), or
//! [`Certificate::Unknown`] with certified lower/upper bounds when the
//! node budget runs out. The certified space is controlled by
//! [`Placement`]: `ByClass` lets every op move to any lane of its
//! resource class (compute vs. communication link), `Fixed` keeps the
//! input's lane assignment and certifies the per-lane *orderings* only
//! — the right notion for pipeline schedules whose device placement is
//! part of the problem statement.
//!
//! ```
//! use ooo_cert::{certify, Budget, Certificate};
//! use ooo_core::cost::UnitCost;
//! use ooo_core::{Schedule, TrainGraph};
//!
//! let graph = TrainGraph::single_gpu(3);
//! let s = Schedule::single_lane("gpu", graph.conventional_backprop());
//! let solved = certify(&graph, &s, &UnitCost, &Budget::default()).unwrap();
//! assert!(matches!(solved.certificate, Certificate::Optimal { .. }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ooo_core::cost::CostModel;
use ooo_core::datapar::CommPolicy;
use ooo_core::{Op, Schedule, SimTime, TrainGraph};
use std::fmt;

mod bnb;

/// Errors of the certification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input schedule does not evaluate (unknown/duplicate ops,
    /// deadlocked lanes, malformed configuration).
    Core(ooo_core::Error),
    /// The incremental delta evaluation disagreed with a full
    /// re-evaluation — the solver refuses to emit a certificate built
    /// on inconsistent scores.
    DeltaMismatch {
        /// Makespan reported by the incremental evaluator.
        delta: SimTime,
        /// Makespan of the full re-evaluation of the same placement.
        full: SimTime,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::DeltaMismatch { delta, full } => write!(
                f,
                "delta evaluation diverged from full re-evaluation: delta {delta} vs full {full}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::DeltaMismatch { .. } => None,
        }
    }
}

impl From<ooo_core::Error> for Error {
    fn from(e: ooo_core::Error) -> Self {
        Error::Core(e)
    }
}

/// Result alias for certification.
pub type Result<T> = std::result::Result<T, Error>;

/// Which schedule space the certificate quantifies over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Any op may occupy any lane of its resource class: compute ops on
    /// compute lanes, synchronizations on link lanes (a lane carrying
    /// both classes in the input admits both). This is the full
    /// scheduling freedom of the single-GPU and data-parallel engines.
    #[default]
    ByClass,
    /// Every op stays on the lane the input schedule assigns it; only
    /// the per-lane orderings vary. Pipeline schedules certify under
    /// this placement — device assignment is part of the problem
    /// statement, so a cross-device witness would be meaningless.
    Fixed,
}

/// Search budget. The primary limit is the number of branch-and-bound
/// nodes the solver may expand — a *logical* budget, so certificates
/// stay byte-deterministic across machines. An optional wall-clock
/// deadline can back it up for serving contexts; past the deadline the
/// search stops at the next node and reports best-so-far, which trades
/// determinism for latency, so keep `deadline` as a safety net around
/// `max_nodes`, not a substitute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum branch-and-bound nodes to expand before giving up with
    /// [`Certificate::Unknown`].
    pub max_nodes: u64,
    /// Optional wall-clock cutoff, polled cooperatively at every node
    /// expansion. `None` (the default) keeps the search purely logical.
    pub deadline: Option<std::time::Instant>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_nodes: 200_000,
            deadline: None,
        }
    }
}

impl Budget {
    /// A budget capped at `max_nodes` expanded nodes.
    pub fn nodes(max_nodes: u64) -> Self {
        Budget {
            max_nodes,
            ..Budget::default()
        }
    }

    /// The same budget with a wall-clock cutoff attached.
    pub fn with_deadline(self, deadline: std::time::Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..self
        }
    }
}

/// The three-valued outcome of certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The input's makespan is exactly optimal: the exhaustive search
    /// found no schedule in the certified space that beats it.
    Optimal {
        /// The proven-optimal makespan.
        makespan: SimTime,
    },
    /// A strictly better schedule exists; `witness` realizes
    /// `witness_makespan` (cross-checked delta == full). When
    /// `witness_optimal` the search completed and the witness is itself
    /// proven optimal.
    Improvable {
        /// The input schedule's makespan.
        baseline: SimTime,
        /// The witness schedule's makespan (`< baseline`).
        witness_makespan: SimTime,
        /// Whether the witness is proven optimal (search completed).
        witness_optimal: bool,
        /// A concrete schedule realizing `witness_makespan`.
        witness: Schedule,
    },
    /// The node budget ran out before the space was exhausted; the
    /// optimum is certified to lie in `[lower, upper]`.
    Unknown {
        /// Certified lower bound on any schedule of the space.
        lower: SimTime,
        /// Best makespan realized so far (the input's, if nothing
        /// better was found).
        upper: SimTime,
    },
}

impl Certificate {
    /// Short status tag: `"optimal"`, `"improvable"`, or `"unknown"`.
    pub fn status(&self) -> &'static str {
        match self {
            Certificate::Optimal { .. } => "optimal",
            Certificate::Improvable { .. } => "improvable",
            Certificate::Unknown { .. } => "unknown",
        }
    }

    /// The best makespan the certificate vouches for: the proven
    /// optimum, the witness makespan, or the `Unknown` upper bound.
    pub fn best_makespan(&self) -> SimTime {
        match *self {
            Certificate::Optimal { makespan } => makespan,
            Certificate::Improvable {
                witness_makespan, ..
            } => witness_makespan,
            Certificate::Unknown { upper, .. } => upper,
        }
    }

    /// The input schedule's makespan (for `Unknown`, the upper bound —
    /// the input is the best schedule realized when no witness exists).
    pub fn baseline_makespan(&self) -> SimTime {
        match *self {
            Certificate::Optimal { makespan } => makespan,
            Certificate::Improvable { baseline, .. } => baseline,
            Certificate::Unknown { upper, .. } => upper,
        }
    }
}

/// A certificate plus the search statistics that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solved {
    /// The certificate.
    pub certificate: Certificate,
    /// Static lower bound on the certified space (root node bound):
    /// the largest of the in-set critical path and the per-class
    /// head/tail load bounds.
    pub lower_bound: SimTime,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Nodes cut by the visited-state memo.
    pub memo_hits: u64,
    /// Nodes cut by the lower-bound test.
    pub pruned: u64,
    /// Ops re-scored by incremental delta evaluation across the run.
    pub delta_rescored: u64,
    /// Ops a full re-evaluation would have scored over the same edits.
    pub delta_full_equivalent: u64,
    /// Delta-vs-full cross-checks performed (input + every incumbent
    /// improvement); each demanded exact agreement.
    pub delta_checks: u64,
}

impl Solved {
    /// `true` when the input was proven optimal.
    pub fn is_optimal(&self) -> bool {
        matches!(self.certificate, Certificate::Optimal { .. })
    }

    /// How many ops full re-evaluation would have scored per op the
    /// delta evaluator actually re-scored (the measured speedup of
    /// delta evaluation; ≥ 1.0 by construction).
    pub fn delta_speedup(&self) -> f64 {
        if self.delta_rescored == 0 {
            return 1.0;
        }
        self.delta_full_equivalent as f64 / self.delta_rescored as f64
    }
}

/// Certifies `schedule` against all same-class lane placements
/// ([`Placement::ByClass`]) under the default interpretation of its
/// lanes. See [`certify_with`].
///
/// # Errors
///
/// [`Error::Core`] when the input does not evaluate,
/// [`Error::DeltaMismatch`] if incremental and full evaluation ever
/// disagree.
pub fn certify<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    budget: &Budget,
) -> Result<Solved> {
    certify_with(graph, schedule, cost, Placement::ByClass, budget)
}

/// Certifies `schedule` over the space selected by `placement`.
///
/// The certified operation set is exactly the set of ops `schedule`
/// mentions (partial schedules certify against partial-schedule
/// semantics: dependencies outside the set are treated as finished at
/// time zero, matching the predictor and the simulator). Instances
/// larger than 128 ops return [`Certificate::Unknown`] with the static
/// bounds instead of searching.
///
/// # Errors
///
/// [`Error::Core`] when the input does not evaluate,
/// [`Error::DeltaMismatch`] if incremental and full evaluation ever
/// disagree.
pub fn certify_with<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    placement: Placement,
    budget: &Budget,
) -> Result<Solved> {
    bnb::solve(graph, schedule, cost, placement, budget)
}

/// Certifies the data-parallel realization of a backward `order`:
/// builds the two-lane schedule
/// [`ooo_verify::predict::datapar_schedule`] reconstructs for the order
/// under `policy`, certifies it [`Placement::ByClass`], and returns
/// both.
///
/// # Errors
///
/// Propagates [`Error::Core`] when `order` is not a valid partial
/// order of `graph`, plus the [`certify_with`] errors.
pub fn certify_order<C: CostModel>(
    graph: &TrainGraph,
    order: &[Op],
    cost: &C,
    policy: CommPolicy,
    budget: &Budget,
) -> Result<(Schedule, Solved)> {
    let schedule = ooo_verify::predict::datapar_schedule(graph, order, cost, policy)?;
    let solved = certify_with(graph, &schedule, cost, Placement::ByClass, budget)?;
    Ok((schedule, solved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost, UnitCost};
    use ooo_core::op::LayerId;

    /// The tuner's worst-case fixture: all dW/U work piled at the end
    /// of the sub lane.
    fn lazy_two_lane(l: usize) -> (TrainGraph, Schedule) {
        let graph = TrainGraph::single_gpu(l);
        let mut main = vec![Op::Loss];
        for i in (2..=l).rev() {
            main.push(Op::OutputGrad(LayerId(i)));
        }
        for i in 1..=l {
            main.push(Op::Forward(LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in 1..=l {
            sub.push(Op::WeightGrad(LayerId(i)));
            sub.push(Op::Update(LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        (graph, s)
    }

    /// `single_gpu(3)` with a 5-unit `dW_3` queued at the head of the
    /// sub lane: `dW_1` lands at 7 and the forward chain waits, for a
    /// makespan of 10 against an optimum of 7 (move `dW_1`/`dW_2` onto
    /// the main lane between `dO_2` and the forwards).
    fn heavy_dw3() -> (TrainGraph, TableCost, Schedule) {
        let g = TrainGraph::single_gpu(3);
        let mut cost = TableCost::uniform(3, LayerCost::default());
        cost.layer_mut(LayerId(3)).weight_grad = 5;
        let mut s = Schedule::new();
        s.add_lane(
            "main",
            vec![
                Op::Loss,
                Op::OutputGrad(LayerId(3)),
                Op::OutputGrad(LayerId(2)),
                Op::Forward(LayerId(1)),
                Op::Forward(LayerId(2)),
                Op::Forward(LayerId(3)),
            ],
        );
        s.add_lane(
            "sub",
            vec![
                Op::WeightGrad(LayerId(3)),
                Op::Update(LayerId(3)),
                Op::WeightGrad(LayerId(2)),
                Op::Update(LayerId(2)),
                Op::WeightGrad(LayerId(1)),
                Op::Update(LayerId(1)),
            ],
        );
        (g, cost, s)
    }

    #[test]
    fn single_lane_conventional_is_certified_optimal() {
        // On one lane the conventional order meets the work bound, so
        // the root shortcut proves optimality without expanding nodes.
        let g = TrainGraph::single_gpu(4);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let solved = certify(&g, &s, &UnitCost, &Budget::default()).unwrap();
        assert!(solved.is_optimal(), "{:?}", solved.certificate);
        assert_eq!(solved.nodes, 0);
        // 3 dO + 4 dW + 4 F, one unit each.
        assert_eq!(solved.certificate.best_makespan(), 11);
        assert!(solved.delta_checks >= 1);
    }

    #[test]
    fn lazy_two_lane_is_already_optimal_under_unit_cost() {
        // Free updates let the dW chain interleave at no cost: the
        // "lazy" fixture meets its critical path, and the solver proves
        // it rather than guessing from the heuristic's failure to
        // improve it.
        let (g, s) = lazy_two_lane(4);
        let solved = certify(&g, &s, &UnitCost, &Budget::default()).unwrap();
        assert!(solved.is_optimal(), "{:?}", solved.certificate);
        assert_eq!(solved.certificate.best_makespan(), 8);
    }

    #[test]
    fn bad_schedule_is_refuted_with_an_optimal_witness() {
        let (g, cost, s) = heavy_dw3();
        let solved = certify(&g, &s, &cost, &Budget::default()).unwrap();
        match &solved.certificate {
            Certificate::Improvable {
                baseline,
                witness_makespan,
                witness_optimal,
                witness,
            } => {
                assert_eq!(*baseline, 10);
                assert_eq!(*witness_makespan, 7);
                assert!(*witness_optimal);
                assert!(solved.lower_bound <= *witness_makespan);
                // The witness certifies Optimal in its own right.
                let again = certify(&g, witness, &cost, &Budget::default()).unwrap();
                assert!(again.is_optimal(), "{:?}", again.certificate);
                assert_eq!(again.certificate.best_makespan(), *witness_makespan);
            }
            other => panic!("expected Improvable, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_reports_certified_bounds() {
        let (g, cost, s) = heavy_dw3();
        let solved = certify(&g, &s, &cost, &Budget::nodes(1)).unwrap();
        match solved.certificate {
            Certificate::Unknown { lower, upper } => {
                assert!(lower <= upper);
                assert_eq!(lower, solved.lower_bound);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_reports_certified_bounds() {
        // heavy_dw3 needs real search (the root shortcut does not
        // apply), so an already-expired deadline stops it at the first
        // node with a valid bracket instead of a long run.
        let (g, cost, s) = heavy_dw3();
        let budget = Budget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let solved = certify(&g, &s, &cost, &budget).unwrap();
        match solved.certificate {
            Certificate::Unknown { lower, upper } => {
                assert!(lower <= upper);
                assert_eq!(upper, 10);
                assert_eq!(lower, solved.lower_bound);
            }
            Certificate::Improvable {
                witness_optimal, ..
            } => assert!(!witness_optimal),
            other => panic!("expected best-so-far bracket, got {other:?}"),
        }
        // A generous deadline changes nothing about the certificate.
        let relaxed = Budget::default()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(600));
        let solved = certify(&g, &s, &cost, &relaxed).unwrap();
        assert_eq!(solved.certificate.best_makespan(), 7);
    }

    #[test]
    fn fixed_placement_certifies_per_lane_orderings_only() {
        // Under Fixed placement the dW work may not migrate to the main
        // lane, so the best reordering of the sub lane (dW_2, dW_1,
        // then the heavy dW_3) reaches 9, not the cross-lane optimum 7.
        let (g, cost, s) = heavy_dw3();
        let solved = certify_with(&g, &s, &cost, Placement::Fixed, &Budget::default()).unwrap();
        match &solved.certificate {
            Certificate::Improvable {
                baseline,
                witness_makespan,
                witness_optimal,
                witness,
            } => {
                assert_eq!(*baseline, 10);
                assert_eq!(*witness_makespan, 9);
                assert!(*witness_optimal);
                // The witness preserves the input's lane assignment.
                for (li, lane) in witness.lanes.iter().enumerate() {
                    for &op in &lane.ops {
                        assert!(s.lanes[li].ops.contains(&op), "{op:?} moved off lane {li}");
                    }
                }
            }
            other => panic!("expected Improvable, got {other:?}"),
        }
    }

    #[test]
    fn certification_is_deterministic() {
        let (g, s) = lazy_two_lane(3);
        let cost = TableCost::uniform(
            3,
            LayerCost {
                forward: 2,
                weight_grad: 3,
                update: 1,
                ..LayerCost::default()
            },
        );
        let a = certify(&g, &s, &cost, &Budget::default()).unwrap();
        let b = certify(&g, &s, &cost, &Budget::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn certify_order_brackets_the_datapar_realization() {
        let l = 3;
        let g = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 2,
                ..LayerCost::default()
            },
        );
        let order = ooo_core::reverse_k::reverse_first_k(&g, 1, None::<(u64, &TableCost)>).unwrap();
        let (schedule, solved) = certify_order(
            &g,
            &order,
            &cost,
            CommPolicy::FifoCompletion,
            &Budget::default(),
        )
        .unwrap();
        assert!(!schedule.lanes.is_empty());
        let input = ooo_verify::predict::predict_makespan(&g, &schedule, &cost)
            .unwrap()
            .makespan();
        assert!(solved.lower_bound <= solved.certificate.best_makespan());
        assert!(solved.certificate.best_makespan() <= input);
    }

    #[test]
    fn empty_schedule_is_vacuously_optimal() {
        let g = TrainGraph::single_gpu(2);
        let s = Schedule::new();
        let solved = certify(&g, &s, &UnitCost, &Budget::default()).unwrap();
        assert_eq!(solved.certificate, Certificate::Optimal { makespan: 0 });
    }
}
