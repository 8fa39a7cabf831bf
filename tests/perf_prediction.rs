//! Differential validation of the static makespan predictor and the
//! `OP`-series performance advisories: for the engines with a simulator
//! of their own (data-parallel, hybrid) the predictor must reproduce the
//! simulated timeline *exactly* (tolerance 0), and every applied
//! advisory fix must stay verify-clean while being strictly faster.
//! Multi-lane and op-level schedules have no independent engine: there
//! the prediction and `simulate`'s timeline are held op by op to the
//! list-evaluation recurrence they solve (`ooo-core`'s `list_scheduling`
//! tests also hold them to a commit-loop oracle).

use ooo_backprop::core::bounds::lower_bound;
use ooo_backprop::core::combined::combined_backward_order;
use ooo_backprop::core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{simulate_data_parallel, CommPolicy};
use ooo_backprop::core::list_scheduling::simulate;
use ooo_backprop::core::multi_region::{
    backward_regions, multi_region_joint_schedule, ConstantProfile,
};
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{op_level_schedule, Strategy};
use ooo_backprop::core::reverse_k::reverse_first_k;
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::TrainGraph;
use ooo_backprop::verify::perf::{advise_pipeline, PerfAdvisor, Suggestion};
use ooo_backprop::verify::predict::{datapar_schedule, predict_makespan};
use ooo_backprop::verify::{RuleId, Verifier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random per-layer cost table: varied compute, sync, and update
/// durations so ties are rare and reconstruction order matters.
fn random_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..6);
        c.output_grad = rng.gen_range(1..6);
        c.weight_grad = rng.gen_range(1..6);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(1..8);
    }
    cost
}

/// Seeds 1–30: the policy-realized data-parallel reconstruction predicts
/// the simulator's timeline exactly — makespan and per-op finish times —
/// for random layer counts, costs, split depths, and both wire policies.
#[test]
fn datapar_prediction_matches_simulation_exactly() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let k = rng.gen_range(0usize..=l);
        for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
            let sim = simulate_data_parallel(&graph, &order, &cost, policy).unwrap();
            let schedule = datapar_schedule(&graph, &order, &cost, policy).unwrap();
            let pred = predict_makespan(&graph, &schedule, &cost).unwrap();
            assert_eq!(
                pred.makespan(),
                sim.makespan(),
                "seed {seed} l={l} k={k} {policy:?}"
            );
            for e in &sim.entries {
                assert_eq!(
                    pred.finish_of(e.op),
                    Some(e.end),
                    "seed {seed} l={l} k={k} {policy:?} {}",
                    e.op
                );
            }
        }
    }
}

/// Holds `predict_makespan` and `simulate` to the list-evaluation
/// recurrence, op by op: every scheduled op starts at the latest finish
/// among its lane predecessor and its scheduled dependencies (those
/// outside the schedule are done at time zero) and ends its cost later,
/// and the makespan is the last finish. A schedule that runs has exactly
/// one solution of the recurrence, so this checks the pass without a
/// second evaluator. `simulate`'s timeline must carry the same times,
/// sorted by `(start, lane, end)`.
fn assert_solves_the_recurrence<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    ctx: &str,
) {
    let pred = predict_makespan(graph, schedule, cost).unwrap();
    let sim = simulate(graph, schedule, cost).unwrap();
    let mut last = 0;
    for lane in &schedule.lanes {
        let mut lane_free = 0;
        for &op in &lane.ops {
            let deps_done = graph.deps(op).unwrap().into_iter();
            let deps_done = deps_done.filter_map(|d| pred.finish_of(d)).max();
            let start = lane_free.max(deps_done.unwrap_or(0));
            let end = start + cost.duration(op);
            assert_eq!(pred.start_of(op), Some(start), "{ctx} {op} start");
            assert_eq!(pred.finish_of(op), Some(end), "{ctx} {op} end");
            lane_free = end;
            last = last.max(end);
        }
    }
    assert_eq!(pred.makespan(), last, "{ctx} makespan");
    assert_eq!(sim.makespan(), last, "{ctx} simulated makespan");
    assert_eq!(sim.entries.len(), schedule.num_ops(), "{ctx} entries");
    for e in &sim.entries {
        let lane = &schedule.lanes[e.resource.0];
        assert!(lane.ops.contains(&e.op), "{ctx} {} lane", e.op);
        assert_eq!(pred.start_of(e.op), Some(e.start), "{ctx} {}", e.op);
        assert_eq!(pred.finish_of(e.op), Some(e.end), "{ctx} {}", e.op);
    }
    let keys: Vec<_> = sim
        .entries
        .iter()
        .map(|e| (e.start, e.resource.0, e.end))
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "{ctx} timeline order"
    );
}

/// Seeds 1–30: every pipeline strategy's op-level schedule is predicted
/// exactly, op for op, at random layer/device counts.
#[test]
fn pipeline_prediction_matches_simulation_exactly() {
    let strategies = [
        Strategy::ModelParallel,
        Strategy::GPipe,
        Strategy::PipeDream,
        Strategy::Dapple,
        Strategy::OooPipe1,
        Strategy::OooPipe2,
    ];
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = rng.gen_range(2usize..12);
        let devices = rng.gen_range(1usize..=4);
        let strategy = strategies[rng.gen_range(0..strategies.len())];
        let (graph, schedule) = op_level_schedule(layers, devices, strategy, 1);
        let ctx = format!("seed {seed} {strategy:?} l={layers} d={devices}");
        assert_solves_the_recurrence(&graph, &schedule, &UnitCost, &ctx);
    }
}

/// Seeds 1–30: the multi-region joint schedule of the single-GPU engine
/// (main stream regions plus sub-stream weight gradients) is predicted
/// exactly.
#[test]
fn multi_region_prediction_matches_simulation_exactly() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..14);
        let graph = TrainGraph::single_gpu(l);
        let cost = random_cost(l, &mut rng);
        let per = rng.gen_range(1usize..=3);
        let (regions, subs) = backward_regions(&graph, &cost, per);
        let profile = ConstantProfile {
            speedup: 1.0 + rng.gen_range(0..5) as f64 / 10.0,
            sub_time: rng.gen_range(1..5),
        };
        let mrs = multi_region_joint_schedule(&graph, &regions, &subs, &profile).unwrap();
        let schedule = mrs.to_schedule(&regions);
        let ctx = format!("seed {seed} l={l} per={per}");
        assert_solves_the_recurrence(&graph, &schedule, &cost, &ctx);
    }
}

/// Seeds 1–30: the hybrid engine's combined reverse-first-k +
/// fast-forwarding orders reconstruct and predict exactly under both
/// policies.
#[test]
fn hybrid_combined_order_prediction_matches_simulation() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let k = rng.gen_range(0usize..=l);
        let order = combined_backward_order(&graph, k).unwrap();
        for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            let sim = simulate_data_parallel(&graph, &order, &cost, policy).unwrap();
            let schedule = datapar_schedule(&graph, &order, &cost, policy).unwrap();
            let pred = predict_makespan(&graph, &schedule, &cost).unwrap();
            assert_eq!(
                pred.makespan(),
                sim.makespan(),
                "seed {seed} l={l} k={k} {policy:?}"
            );
        }
    }
}

/// Every OP101 (deferrable critical dW) suggestion, applied, yields a
/// schedule that the safety analyzer accepts and that simulates strictly
/// faster than the original.
#[test]
fn op101_fixes_are_clean_and_strictly_faster() {
    use ooo_backprop::core::graph::GraphConfig;
    let graph = TrainGraph::new(GraphConfig {
        include_updates: false,
        include_forward: false,
        ..GraphConfig::single_gpu(3)
    })
    .unwrap();
    let mut s = Schedule::new();
    s.add_lane(
        "main",
        vec![
            Op::Loss,
            Op::WeightGrad(LayerId(3)),
            Op::OutputGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
        ],
    );
    s.add_lane(
        "sub",
        vec![Op::WeightGrad(LayerId(2)), Op::WeightGrad(LayerId(1))],
    );
    let advisor = PerfAdvisor::new(&graph);
    let report = advisor.analyze(&s).unwrap();
    let hits = report.by_rule(RuleId::MissedOooOpportunity);
    assert!(!hits.is_empty(), "OP101 must fire on this construction");
    let base = simulate(&graph, &s, &UnitCost).unwrap().makespan();
    for advice in hits {
        let suggestion = advice.suggestion.as_ref().expect("OP101 carries a fix");
        let fixed = suggestion.apply(&s).expect("defer suggestions rebuild");
        assert!(
            Verifier::new(&graph).verify(&fixed).is_clean(),
            "applied fix must stay verify-clean"
        );
        let after = simulate(&graph, &fixed, &UnitCost).unwrap().makespan();
        assert!(
            after < base,
            "fix must be strictly faster: {after} vs {base}"
        );
    }
}

/// The OP301 depth recommendation, adopted, simulates strictly faster
/// than the analyzed order (checked against the real data-parallel
/// simulator, not just the predictor).
#[test]
fn op301_recommended_depth_is_strictly_faster_when_emitted() {
    let l = 8;
    let graph = TrainGraph::data_parallel(l);
    let cost = TableCost::uniform(
        l,
        LayerCost {
            sync_weight: 3,
            ..LayerCost::default()
        },
    );
    let policy = CommPolicy::FifoCompletion;
    let order = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
    let report = PerfAdvisor::new(&graph)
        .with_cost(cost.clone())
        .analyze_order(&order, policy)
        .unwrap();
    let hits = report.by_rule(RuleId::SuboptimalReverseK);
    assert!(!hits.is_empty(), "OP301 must fire at k=0 under these costs");
    let Some(Suggestion::SetK { k }) = hits[0].suggestion else {
        panic!("OP301 carries a SetK suggestion");
    };
    let base = simulate_data_parallel(&graph, &order, &cost, policy)
        .unwrap()
        .makespan();
    let better = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
    let after = simulate_data_parallel(&graph, &better, &cost, policy)
        .unwrap()
        .makespan();
    assert!(after < base, "k={k} must beat k=0: {after} vs {base}");
}

/// `advise_pipeline` across the full strategy matrix never errors and
/// its gap is a valid ratio; OOO-Pipe2 self-analysis draws no advisory.
#[test]
fn advise_pipeline_is_total_and_pipe2_is_advisory_free() {
    for layers in [2usize, 5, 8, 13] {
        for devices in [1usize, 2, 4] {
            for strategy in [
                Strategy::ModelParallel,
                Strategy::GPipe,
                Strategy::PipeDream,
                Strategy::Dapple,
                Strategy::OooPipe1,
                Strategy::OooPipe2,
            ] {
                let report = advise_pipeline(layers, devices, strategy, 1).unwrap();
                if let Some(gap) = report.optimality_gap {
                    assert!(gap >= 1.0 - 1e-9, "{strategy:?} l={layers} d={devices}");
                }
                if strategy == Strategy::OooPipe2 {
                    assert!(
                        !report.has_advice(),
                        "OOO-Pipe2 must be advisory-free at l={layers} d={devices}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The combined lower bound never exceeds the simulated makespan of
    /// any complete single-lane schedule (satellite #3's property, run
    /// against the simulator rather than the predictor).
    #[test]
    fn lower_bound_never_exceeds_simulated_makespan(
        l in 1usize..16,
        seed in 0u64..1000,
        per in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = TrainGraph::single_gpu(l);
        let cost = random_cost(l, &mut rng);
        // The canonical order is complete: backward pass plus the
        // update/forward tail.
        let s = Schedule::single_lane("gpu", graph.conventional_backprop());
        let makespan = simulate(&graph, &s, &cost).unwrap().makespan();
        prop_assert!(lower_bound(&graph, &cost, 1, 1) <= makespan);
        // And on the multi-lane side: the data-parallel realization for a
        // random split depth, against a one-compute-one-link bound.
        let dgraph = TrainGraph::data_parallel(l);
        let k = per.min(l);
        let backward = reverse_first_k(&dgraph, k, None::<(u64, &TableCost)>).unwrap();
        let dmakespan =
            simulate_data_parallel(&dgraph, &backward, &cost, CommPolicy::FifoCompletion)
                .unwrap()
                .makespan();
        prop_assert!(lower_bound(&dgraph, &cost, 1, 1) <= dmakespan);
    }
}
