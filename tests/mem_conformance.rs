//! Conformance layer for the `ooo-verify::mem` static memory-lifetime
//! analyzer: across seeds 1-30 and all four cluster engine shapes
//! (single-GPU multi-region, data-parallel, pipeline, hybrid), the exact
//! static ledger must equal the per-op memory counter instrumented into
//! the discrete-event simulators at tolerance 0; legal tuner outputs
//! must preserve that equality; mutations that break buffer lifetimes
//! must draw the matching OM rule; applying `OM401`'s free-after-sync
//! plan must never raise a zoo model's peak; and memory-capped tuning
//! must land a verifier-clean, OM-clean schedule under each stepped cap
//! on a zoo model, never faster than the uncapped tune.

use ooo_backprop::cluster::mem::{checked_order_memory, checked_schedule_memory};
use ooo_backprop::core::combined::combined_backward_order;
use ooo_backprop::core::cost::{LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{simulate_data_parallel, CommPolicy};
use ooo_backprop::core::memory::Buffer;
use ooo_backprop::core::multi_region::{
    backward_regions, multi_region_joint_schedule, ConstantProfile,
};
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{op_level_schedule, Strategy};
use ooo_backprop::core::reverse_k::reverse_first_k;
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::TrainGraph;
use ooo_backprop::models::cost::to_table_cost;
use ooo_backprop::models::gpu::GpuProfile;
use ooo_backprop::models::zoo;
use ooo_backprop::tune::{tune_schedule, TuneOptions};
use ooo_backprop::verify::mem::{
    check_schedule, instrument_timeline, ledger_of_schedule, ledger_of_spans, schedule_peak,
    spans_of_prediction, FreePlan, MemCheckOptions,
};
use ooo_backprop::verify::predict::{datapar_schedule, predict_makespan};
use ooo_backprop::verify::{Verifier, VerifyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The varied per-layer cost table of the tuner conformance suite, with
/// non-trivial buffer sizes so the ledger has something to disagree on.
fn random_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..6);
        c.output_grad = rng.gen_range(1..6);
        c.weight_grad = rng.gen_range(1..6);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(1..8);
        c.activation_bytes = rng.gen_range(1..9);
        c.out_grad_bytes = rng.gen_range(1..9);
        c.weight_bytes = rng.gen_range(1..17);
    }
    cost
}

/// Seeds 1-30, single-GPU engine: the static ledger of the multi-region
/// joint schedule equals the instrumented simulation counter exactly.
#[test]
fn single_engine_ledger_matches_instrumented_counter_on_seeds_1_to_30() {
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
        let checked = checked_schedule_memory(&graph, &schedule, &cost)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(checked.ledger.peak, checked.counter.peak, "seed {seed}");
    }
}

/// Seeds 1-30, data-parallel engine: the ledger of the *predicted*
/// realization (static, no simulation) equals the counter instrumented
/// into the wire simulator — two fully independent code paths.
#[test]
fn datapar_engine_ledger_matches_instrumented_counter_on_seeds_1_to_30() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let policy = if seed % 2 == 0 {
            CommPolicy::FifoCompletion
        } else {
            CommPolicy::PriorityByLayer
        };
        let k = rng.gen_range(0..=l);
        let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
        let realized = datapar_schedule(&graph, &order, &cost, policy).unwrap();
        let ledger = ledger_of_schedule(&graph, &realized, &cost).unwrap();
        let timeline = simulate_data_parallel(&graph, &order, &cost, policy).unwrap();
        let counter = instrument_timeline(&graph, &cost, &timeline);
        assert_eq!(
            (ledger.initial, ledger.peak, ledger.final_usage),
            (counter.initial, counter.peak, counter.final_usage),
            "seed {seed} k={k}"
        );
        // The cluster entry point reconciles the same run.
        checked_order_memory(&graph, &order, &cost, policy)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Seeds 1-30, pipeline engine: every strategy's op-level schedule
/// reconciles its static ledger against the list-scheduling simulation.
#[test]
fn pipeline_engine_ledger_matches_instrumented_counter_on_seeds_1_to_30() {
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
        let layers = rng.gen_range(2usize..10);
        let devices = rng.gen_range(1usize..=4);
        let strategy = strategies[rng.gen_range(0..strategies.len())];
        let (graph, schedule) = op_level_schedule(layers, devices, strategy, 1);
        let checked = checked_schedule_memory(&graph, &schedule, &UnitCost)
            .unwrap_or_else(|e| panic!("seed {seed} {strategy:?}: {e}"));
        assert_eq!(
            checked.ledger.final_usage, checked.counter.final_usage,
            "seed {seed} {strategy:?}"
        );
    }
}

/// Seeds 1-30, hybrid engine: the combined reverse-first-k +
/// fast-forwarding order reconciles exactly, both via the predicted
/// realization and via the cluster entry point.
#[test]
fn hybrid_engine_ledger_matches_instrumented_counter_on_seeds_1_to_30() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let policy = CommPolicy::PriorityByLayer;
        let k = rng.gen_range(0..=l);
        let order = combined_backward_order(&graph, k).unwrap();
        let realized = datapar_schedule(&graph, &order, &cost, policy).unwrap();
        let ledger = ledger_of_schedule(&graph, &realized, &cost).unwrap();
        let timeline = simulate_data_parallel(&graph, &order, &cost, policy).unwrap();
        let counter = instrument_timeline(&graph, &cost, &timeline);
        assert_eq!(
            (ledger.initial, ledger.peak, ledger.final_usage),
            (counter.initial, counter.peak, counter.final_usage),
            "seed {seed} k={k}"
        );
        checked_order_memory(&graph, &order, &cost, policy)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any schedule the tuner can reach through its legal move sequences
    /// keeps the ledger equal to the instrumented simulation — the
    /// equality is invariant under tuning, not a property of the
    /// heuristic starting points alone.
    #[test]
    fn tuner_outputs_preserve_ledger_simulation_equality(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(3usize..10);
        let graph = TrainGraph::single_gpu(l);
        let cost = random_cost(l, &mut rng);
        let schedule = Schedule::single_lane("gpu", graph.fast_forward_backprop());
        // Half the cases tune under a cap, which changes the accepted
        // move sequence; the equality must hold either way.
        let cap = if seed % 2 == 0 {
            Some(schedule_peak(&graph, &schedule, &cost).unwrap())
        } else {
            None
        };
        let opts = TuneOptions { memory_cap: cap, ..TuneOptions::default() };
        let tuned = tune_schedule(&graph, &schedule, &cost, &opts).unwrap();
        let checked = checked_schedule_memory(&graph, &tuned.schedule, &cost).unwrap();
        prop_assert_eq!(checked.ledger.peak, checked.counter.peak);
        prop_assert_eq!(checked.ledger.initial, checked.counter.initial);
        prop_assert_eq!(checked.ledger.final_usage, checked.counter.final_usage);
    }
}

/// Mutation test: swapping a weight gradient ahead of the output
/// gradient it consumes turns an OM-clean schedule into an `OM101`
/// use-of-undefined error; reverting the swap restores cleanliness.
#[test]
fn dependency_swap_mutation_draws_om101() {
    let graph = TrainGraph::single_gpu(5);
    let clean_order = graph.conventional_backprop();
    let clean = Schedule::single_lane("gpu", clean_order.clone());
    let analysis = check_schedule(&graph, &clean, &UnitCost, &MemCheckOptions::default()).unwrap();
    assert!(
        analysis.diagnostics.is_empty(),
        "{:?}",
        analysis.diagnostics
    );

    // Mutant: move dW3 in front of dO4 (its grad[3] producer is dO4's
    // successor in the chain, so the buffer is not yet defined).
    let mut mutant = clean_order;
    let dw3 = mutant
        .iter()
        .position(|&o| o == Op::WeightGrad(LayerId(3)))
        .unwrap();
    let do4 = mutant
        .iter()
        .position(|&o| o == Op::OutputGrad(LayerId(4)))
        .unwrap();
    assert!(do4 < dw3);
    let op = mutant.remove(dw3);
    mutant.insert(do4, op);
    let s = Schedule::single_lane("gpu", mutant);
    let analysis = check_schedule(&graph, &s, &UnitCost, &MemCheckOptions::default()).unwrap();
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.rule.code() == "OM101"),
        "{:?}",
        analysis.diagnostics
    );
}

/// Mutation test: truncating the update tail of a data-parallel window
/// leaves synced weight gradients resident past their last use — the
/// `OM401` retained-buffer advisory — while the full window stays clean.
#[test]
fn truncated_update_tail_mutation_draws_om401() {
    let graph = TrainGraph::data_parallel(5);
    let cost = TableCost::uniform(
        5,
        LayerCost {
            weight_bytes: 10,
            ..LayerCost::default()
        },
    );
    let full = Schedule::single_lane("gpu", graph.conventional_backprop());
    let analysis = check_schedule(&graph, &full, &cost, &MemCheckOptions::default()).unwrap();
    assert!(
        !analysis
            .diagnostics
            .iter()
            .any(|d| d.rule.code() == "OM401"),
        "{:?}",
        analysis.diagnostics
    );

    let mut order = graph.conventional_backprop();
    order.retain(|op| !matches!(op, Op::Update(_) | Op::Forward(_)));
    let truncated = Schedule::single_lane("gpu", order);
    let analysis = check_schedule(&graph, &truncated, &cost, &MemCheckOptions::default()).unwrap();
    let om401: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.rule.code() == "OM401")
        .collect();
    assert!(!om401.is_empty(), "{:?}", analysis.diagnostics);
    assert!(om401[0].message.contains("wgrad["), "{}", om401[0].message);
}

/// `OM401` at model scale: a data-parallel backward window that leaves
/// its synced weight gradients to an unscheduled update tail retains
/// every `wgrad` to the window end. Freeing each one after its sync
/// never raises the ledger peak on the first four Table 1 models, and
/// strictly lowers it on at least one.
#[test]
fn om401_early_free_never_raises_the_peak_on_zoo_models() {
    let mut saved = 0usize;
    for (model, _, _) in zoo::table1().iter().take(4) {
        let cost = to_table_cost(model, 16, &GpuProfile::v100());
        let l = cost.layers();
        let graph = TrainGraph::data_parallel(l);
        let mut order = graph.conventional_backprop();
        order.retain(|op| !matches!(op, Op::Update(_) | Op::Forward(_)));
        let window = Schedule::single_lane("gpu", order);
        let pred = predict_makespan(&graph, &window, &cost).unwrap();
        let spans = spans_of_prediction(&pred);
        let (retained, _) = ledger_of_spans(&graph, &cost, &spans, None);
        let plan = FreePlan {
            frees: (1..=l)
                .map(|i| (Buffer::WeightGrad(i), Op::SyncWeightGrad(LayerId(i))))
                .collect(),
        };
        let (early, _) = ledger_of_spans(&graph, &cost, &spans, Some(&plan));
        assert!(
            early.peak <= retained.peak,
            "{}: early free raised the peak {} -> {}",
            model.name,
            retained.peak,
            early.peak
        );
        saved += usize::from(early.peak < retained.peak);
    }
    assert!(saved > 0, "no zoo model saved memory from early frees");
}

/// Acceptance: on a zoo model, tuning under caps stepped down from the
/// deferred layout's own ledger peak (100%, then 90%) lands schedules
/// that respect each cap, never beat the uncapped tune's makespan, are
/// OV-clean under the full analyzer, and OM-clean under the same budget.
#[test]
fn capped_tuning_meets_the_cap_on_a_zoo_model() {
    let model = zoo::ffnn16(4_096);
    let cost = to_table_cost(&model, 16, &GpuProfile::v100());
    let l = cost.layers();
    let graph = TrainGraph::single_gpu(l);
    // Deferred-update layout: every wgrad survives until the update
    // tail, stacking the ledger peak well above the conventional order.
    let mut ops = vec![Op::Loss];
    for i in (2..=l).rev() {
        ops.push(Op::OutputGrad(LayerId(i)));
    }
    for i in (1..=l).rev() {
        ops.push(Op::WeightGrad(LayerId(i)));
    }
    for i in 1..=l {
        ops.push(Op::Update(LayerId(i)));
    }
    for i in 1..=l {
        ops.push(Op::Forward(LayerId(i)));
    }
    let baseline = Schedule::single_lane("gpu", ops);
    let base_peak = schedule_peak(&graph, &baseline, &cost).unwrap();
    let uncapped = tune_schedule(&graph, &baseline, &cost, &TuneOptions::default()).unwrap();
    for pct in [100, 90] {
        let cap = base_peak * pct / 100;
        let opts = TuneOptions {
            memory_cap: Some(cap),
            ..TuneOptions::default()
        };
        let tuned = tune_schedule(&graph, &baseline, &cost, &opts).unwrap();
        let peak = tuned.peak.expect("cap set implies a reported peak");
        assert!(
            peak <= cap,
            "{pct}%: tuned peak {peak} exceeds cap {cap} (baseline {base_peak})"
        );
        assert!(
            tuned.predicted >= uncapped.predicted,
            "{pct}%: capped makespan {} beat the uncapped {}",
            tuned.predicted,
            uncapped.predicted
        );
        // OV-clean: the full analyzer draws no diagnostics.
        let report = Verifier::new(&graph)
            .with_config(VerifyConfig::default())
            .with_cost(&cost)
            .verify(&tuned.schedule);
        assert!(report.is_clean(), "{pct}%: {:?}", report.rule_codes());
        // OM-clean at the same budget: no lifetime rule fires either.
        let analysis = check_schedule(
            &graph,
            &tuned.schedule,
            &cost,
            &MemCheckOptions {
                budget: Some(cap),
                ..MemCheckOptions::default()
            },
        )
        .unwrap();
        assert!(
            analysis.diagnostics.is_empty(),
            "{pct}%: {:?}",
            analysis.diagnostics
        );
    }
}
