//! Conformance layer for the `ooo-cert` exact certifier: across seeds
//! and all four engine shapes (single-GPU two-stream, data-parallel,
//! pipeline, hybrid), the branch-and-bound certificate must bracket the
//! tuning trajectory — `lower bound <= optimal <= tuned <= heuristic` —
//! be byte-deterministic across double runs, and exercise incremental
//! delta evaluation (which the solver cross-checks against full
//! re-evaluation at tolerance 0 on every call) on every instance.
//! Two regression seeds pin a provably-optimal and a provably-not
//! instance exactly.

use ooo_backprop::cert::{certify_order, certify_with, Budget, Certificate, Placement, Solved};
use ooo_backprop::core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::CommPolicy;
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{op_level_schedule, Strategy};
use ooo_backprop::core::reverse_k::reverse_first_k;
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::{SimTime, TrainGraph};
use ooo_backprop::tune::order::{tune_backward_order, KFamily};
use ooo_backprop::tune::{tune_schedule, TuneOptions};
use ooo_backprop::verify::predict::{predict_makespan, DeltaEval};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..6);
        c.output_grad = rng.gen_range(1..6);
        c.weight_grad = rng.gen_range(1..8);
        c.update = rng.gen_range(0..2);
        c.sync_weight = rng.gen_range(1..8);
    }
    cost
}

/// The single-GPU engine's lazy two-stream shape: backward and forward
/// on the main stream, every weight gradient and update on the
/// sub-stream, in layer-descending order.
fn lazy_two_stream(l: usize) -> Schedule {
    let mut main = vec![Op::Loss];
    for i in (2..=l).rev() {
        main.push(Op::OutputGrad(LayerId(i)));
    }
    for i in 1..=l {
        main.push(Op::Forward(LayerId(i)));
    }
    let mut sub = Vec::new();
    for i in (1..=l).rev() {
        sub.push(Op::WeightGrad(LayerId(i)));
        sub.push(Op::Update(LayerId(i)));
    }
    let mut s = Schedule::new();
    s.add_lane("main", main);
    s.add_lane("sub", sub);
    s
}

/// Asserts the trajectory bracket on one certified instance and
/// returns whether the certificate is a proof of optimality.
fn assert_bracket(name: &str, heuristic: SimTime, tuned: SimTime, solved: &Solved) -> bool {
    assert!(
        solved.delta_checks >= 1,
        "{name}: delta evaluation not exercised"
    );
    let best = solved.certificate.best_makespan();
    assert!(
        solved.lower_bound <= best,
        "{name}: lower bound {} > best {best}",
        solved.lower_bound
    );
    assert!(best <= tuned, "{name}: best {best} > tuned {tuned}");
    assert!(
        tuned <= heuristic,
        "{name}: tuned {tuned} > heuristic {heuristic}"
    );
    solved.is_optimal()
}

/// Seeds 1-5 on each of the four engine shapes: every certificate
/// brackets the heuristic -> tuned -> optimal trajectory, delta
/// evaluation is exercised on every instance, and at least 10 of the
/// 20 instances are proven optimal outright.
#[test]
fn certificates_bracket_the_tuning_trajectory_across_engines() {
    let budget = Budget::default();
    let mut optimal = 0usize;
    let mut total = 0usize;

    // Single-GPU engine shape: tune the lazy two-stream schedule, then
    // certify the tuned result over all class-legal placements.
    for seed in 1u64..=5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..5);
        let graph = TrainGraph::single_gpu(l);
        let cost = random_cost(l, &mut rng);
        let baseline = lazy_two_stream(l);
        let heuristic = predict_makespan(&graph, &baseline, &cost)
            .unwrap()
            .makespan();
        let tuned = tune_schedule(&graph, &baseline, &cost, &TuneOptions::default()).unwrap();
        let solved =
            certify_with(&graph, &tuned.schedule, &cost, Placement::ByClass, &budget).unwrap();
        total += 1;
        if assert_bracket(
            &format!("single seed {seed}"),
            heuristic,
            tuned.predicted,
            &solved,
        ) {
            optimal += 1;
        }
    }

    // Data-parallel engine shape: tune the conventional (k=0) backward
    // order, then certify its two-lane realization.
    for seed in 1u64..=5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(3usize..5);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let policy = CommPolicy::PriorityByLayer;
        let baseline = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
        let tuned = tune_backward_order(
            &graph,
            &baseline,
            Some(0),
            &cost,
            policy,
            KFamily::ReverseFirstK,
            &TuneOptions::default(),
        )
        .unwrap();
        let (_, solved) = certify_order(&graph, &tuned.order, &cost, policy, &budget).unwrap();
        total += 1;
        if assert_bracket(
            &format!("datapar seed {seed}"),
            tuned.baseline,
            tuned.predicted,
            &solved,
        ) {
            optimal += 1;
        }
    }

    // Pipeline engine shape: certify each strategy's op-level schedule
    // under fixed device placement (stage assignment is the strategy's).
    for (i, strategy) in [
        Strategy::GPipe,
        Strategy::PipeDream,
        Strategy::Dapple,
        Strategy::OooPipe1,
        Strategy::OooPipe2,
    ]
    .into_iter()
    .enumerate()
    {
        let l = 3 + (i % 2);
        let (graph, schedule) = op_level_schedule(l, 2, strategy, 1);
        let heuristic = predict_makespan(&graph, &schedule, &UnitCost)
            .unwrap()
            .makespan();
        let solved = certify_with(&graph, &schedule, &UnitCost, Placement::Fixed, &budget).unwrap();
        total += 1;
        if assert_bracket(
            &format!("pipeline {strategy:?}"),
            heuristic,
            solved.certificate.baseline_makespan(),
            &solved,
        ) {
            optimal += 1;
        }
    }

    // Hybrid engine shape: the predictor-optimal combined split depth's
    // backward order, certified on its data-parallel realization.
    for seed in 1u64..=5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(3usize..5);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let policy = CommPolicy::PriorityByLayer;
        let k0 = ooo_backprop::core::combined::combined_backward_order(&graph, 0).unwrap();
        let heuristic =
            ooo_backprop::tune::order::certify_order(&graph, &k0, &cost, policy).unwrap();
        let combined = |k| ooo_backprop::core::combined::combined_backward_order(&graph, k);
        let (k, predicted) =
            ooo_backprop::tune::order::best_k(&graph, &cost, policy, combined).unwrap();
        let order = combined(k).unwrap();
        let (_, solved) = certify_order(&graph, &order, &cost, policy, &budget).unwrap();
        total += 1;
        if assert_bracket(
            &format!("hybrid seed {seed}"),
            heuristic,
            predicted,
            &solved,
        ) {
            optimal += 1;
        }
    }

    assert_eq!(total, 20);
    assert!(
        optimal >= 10,
        "only {optimal}/{total} instances certified optimal"
    );
}

/// Double runs of the certifier on the same instance return identical
/// `Solved` values — certificate, bounds, node counts, and delta
/// counters included.
#[test]
fn certification_double_runs_are_identical() {
    for seed in 1u64..=5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(3usize..5);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let order = reverse_first_k(&graph, 1, None::<(u64, &TableCost)>).unwrap();
        let policy = CommPolicy::PriorityByLayer;
        let (s1, r1) = certify_order(&graph, &order, &cost, policy, &Budget::default()).unwrap();
        let (s2, r2) = certify_order(&graph, &order, &cost, policy, &Budget::default()).unwrap();
        assert_eq!(s1, s2, "seed {seed}: witness schedules differ");
        assert_eq!(r1, r2, "seed {seed}: certificates differ");
    }
}

/// Regression pin: the sync-free conventional realization is provably
/// optimal — status, makespan, bound, and node count are all exact.
#[test]
fn regression_sync_free_conventional_is_provably_optimal() {
    let graph = TrainGraph::data_parallel(3);
    let cost = TableCost::uniform(
        3,
        LayerCost {
            sync_weight: 0,
            ..LayerCost::default()
        },
    );
    let order = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
    let (_, solved) = certify_order(
        &graph,
        &order,
        &cost,
        CommPolicy::PriorityByLayer,
        &Budget::default(),
    )
    .unwrap();
    assert_eq!(
        solved.certificate,
        Certificate::Optimal { makespan: 8 },
        "certificate changed: {solved:?}"
    );
    assert_eq!(solved.lower_bound, 8);
    assert_eq!(solved.nodes, 0, "root shortcut regressed");
}

/// Regression pin: the eager sub-stream schedule with a heavy `dW_3` is
/// provably NOT optimal — the solver exhibits a strictly better witness
/// and proves the witness itself optimal.
#[test]
fn regression_heavy_dw_lazy_schedule_is_provably_not_optimal() {
    let graph = TrainGraph::single_gpu(3);
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
    let solved = certify_with(&graph, &s, &cost, Placement::ByClass, &Budget::default()).unwrap();
    let Certificate::Improvable {
        baseline,
        witness_makespan,
        witness_optimal,
        ref witness,
    } = solved.certificate
    else {
        panic!("expected Improvable, got {:?}", solved.certificate);
    };
    assert_eq!(baseline, 10);
    assert_eq!(witness_makespan, 7);
    assert!(witness_optimal, "witness not proven optimal");
    // The witness re-certifies as optimal on its own.
    let again = certify_with(
        &graph,
        witness,
        &cost,
        Placement::ByClass,
        &Budget::default(),
    )
    .unwrap();
    assert!(again.is_optimal(), "witness failed re-certification");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After an arbitrary sequence of legal `place`/`unplace_last`
    /// moves, the incremental evaluator's makespan equals a full
    /// from-scratch prediction of the same partial schedule — the
    /// invariant the branch-and-bound solver's bounds stand on.
    #[test]
    fn delta_equals_full_after_arbitrary_move_sequences(seed in 1u64..400, moves in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..6);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let mut de = DeltaEval::empty(&graph, ["gpu", "sub", "link"], &cost);
        for step in 0..moves {
            if rng.gen_range(0u32..4) == 0 {
                let lane = rng.gen_range(0usize..3);
                de.unplace_last(lane);
            } else {
                let unscheduled: Vec<Op> = graph
                    .ops()
                    .iter()
                    .copied()
                    .filter(|&o| de.position_of(o).is_none())
                    .collect();
                if unscheduled.is_empty() {
                    continue;
                }
                let op = unscheduled[rng.gen_range(0..unscheduled.len())];
                let lane = rng.gen_range(0usize..3);
                // Illegal placements (would deadlock the union graph)
                // are rejected and rolled back; legal ones commit.
                let _ = de.place(lane, op);
            }
            let full = predict_makespan(&graph, &de.to_schedule(), &cost)
                .expect("incrementally built schedules always evaluate")
                .makespan();
            prop_assert_eq!(
                de.makespan(),
                full,
                "seed {} step {}: delta {} != full {}",
                seed,
                step,
                de.makespan(),
                full
            );
        }
    }
}

/// The cost model trait object is exercised with zero-duration ops too:
/// a free update never changes the certified optimum. (Keeps the
/// `CostModel` import honest.)
#[test]
fn free_updates_do_not_change_the_certified_optimum() {
    let graph = TrainGraph::single_gpu(2);
    let cost = UnitCost;
    assert_eq!(cost.duration(Op::Update(LayerId(1))), 0);
    let s = Schedule::single_lane("gpu", graph.conventional_backprop());
    let solved = certify_with(&graph, &s, &cost, Placement::ByClass, &Budget::default()).unwrap();
    assert!(solved.is_optimal());
}
