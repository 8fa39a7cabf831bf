//! Conformance layer for the `ooo-tune` autotuner: across seeds 1-30 and
//! all four cluster engine shapes (single-GPU multi-region, data-parallel,
//! pipeline, hybrid), every tuned schedule must (a) pass the `ooo-verify`
//! safety analyzer with zero diagnostics, (b) certify at tolerance 0 — a
//! backward order against the data-parallel simulator, a multi-lane
//! schedule by a fresh list-evaluation pass against the incremental
//! evaluator — and (c)
//! never be worse than the engine's own heuristic baseline, with a strict
//! improvement on at least one seed per engine.

use ooo_backprop::core::combined::{choose_split_k, combined_backward_order};
use ooo_backprop::core::cost::{LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{simulate_data_parallel, CommPolicy};
use ooo_backprop::core::list_scheduling::simulate;
use ooo_backprop::core::multi_region::{
    backward_regions, multi_region_joint_schedule, ConstantProfile,
};
use ooo_backprop::core::op::LayerId;
use ooo_backprop::core::pipeline::Strategy;
use ooo_backprop::core::reverse_k::{reverse_first_k, search_optimal_k};
use ooo_backprop::core::TrainGraph;
use ooo_backprop::tune::order::{best_k, certify_order, tune_backward_order, KFamily};
use ooo_backprop::tune::pipeline::tune_pipeline;
use ooo_backprop::tune::{certify_schedule, tune_schedule, TuneOptions};
use ooo_backprop::verify::{Verifier, VerifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The same varied per-layer cost table the predictor conformance suite
/// uses: distinct compute, sync, and update durations so ties are rare.
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

/// Seeds 1-30, single-GPU engine: tuning the multi-region joint schedule
/// (main stream + sub-stream weight gradients) stays verify-clean,
/// certifies exactly, and never regresses; at least one seed improves.
#[test]
fn single_engine_tuning_conforms_on_seeds_1_to_30() {
    let opts = TuneOptions {
        require_complete: false,
        ..TuneOptions::default()
    };
    let config = VerifyConfig {
        require_complete: false,
        ..VerifyConfig::default()
    };
    let mut improved = 0usize;
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
        let baseline = mrs.to_schedule(&regions);
        let tuned = tune_schedule(&graph, &baseline, &cost, &opts).unwrap();
        let report = Verifier::new(&graph)
            .with_config(config.clone())
            .with_cost(&cost)
            .verify(&tuned.schedule);
        assert!(
            report.is_clean(),
            "seed {seed}: tuned schedule drew diagnostics {:?}",
            report.rule_codes()
        );
        let certified = certify_schedule(&graph, &tuned.schedule, &cost).unwrap();
        assert_eq!(certified, tuned.predicted, "seed {seed}: certification");
        let base_sim = simulate(&graph, &baseline, &cost).unwrap().makespan();
        assert_eq!(base_sim, tuned.baseline, "seed {seed}: baseline prediction");
        assert!(
            tuned.predicted <= tuned.baseline,
            "seed {seed}: tuned {} worse than heuristic {}",
            tuned.predicted,
            tuned.baseline
        );
        improved += usize::from(tuned.improved());
    }
    assert!(improved >= 1, "no seed improved the multi-region heuristic");
}

/// A per-layer cost table with wide, spiky ranges: sync and compute
/// durations varied enough that the best backward order is usually
/// *outside* the reverse-first-k family, giving the tuner's relocation
/// moves room the depth parameter alone cannot reach.
fn spiky_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..12);
        c.output_grad = rng.gen_range(1..12);
        c.weight_grad = rng.gen_range(1..20);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(0..40);
    }
    cost
}

/// Seeds 1-30, data-parallel engine: tuning from the `search_optimal_k`
/// heuristic baseline stays verify-clean, certifies against the wire
/// simulator exactly, and never regresses; at least one seed improves.
#[test]
fn datapar_engine_tuning_conforms_on_seeds_1_to_30() {
    let opts = TuneOptions::default();
    let mut improved = 0usize;
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = spiky_cost(l, &mut rng);
        let policy = if seed % 2 == 0 {
            CommPolicy::FifoCompletion
        } else {
            CommPolicy::PriorityByLayer
        };
        let sim_k = |k: usize| {
            let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
            simulate_data_parallel(&graph, &order, &cost, policy)
                .unwrap()
                .makespan()
        };
        let k = search_optimal_k(l, |k| 1.0 / sim_k(k) as f64);
        let baseline = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
        let tuned = tune_backward_order(
            &graph,
            &baseline,
            Some(k),
            &cost,
            policy,
            KFamily::ReverseFirstK,
            &opts,
        )
        .unwrap();
        let certified = certify_order(&graph, &tuned.order, &cost, policy).unwrap();
        assert_eq!(certified, tuned.predicted, "seed {seed}: certification");
        assert_eq!(sim_k(k), tuned.baseline, "seed {seed}: baseline prediction");
        assert!(
            tuned.predicted <= tuned.baseline,
            "seed {seed}: tuned {} worse than heuristic k={k} ({})",
            tuned.predicted,
            tuned.baseline
        );
        improved += usize::from(tuned.improved());
    }
    assert!(
        improved >= 1,
        "no seed improved the search_optimal_k heuristic"
    );
}

/// Seeds 1-30, pipeline engine: tuning each strategy's op-level schedule
/// (modulo regrouping + in-lane `dW`/`[dW,U]` moves) stays verify-clean,
/// certifies exactly, and never regresses; at least one seed improves.
#[test]
fn pipeline_engine_tuning_conforms_on_seeds_1_to_30() {
    let strategies = [
        Strategy::ModelParallel,
        Strategy::GPipe,
        Strategy::PipeDream,
        Strategy::Dapple,
        Strategy::OooPipe1,
        Strategy::OooPipe2,
    ];
    let opts = TuneOptions::default();
    let mut improved = 0usize;
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = rng.gen_range(2usize..10);
        let devices = rng.gen_range(1usize..=4);
        let strategy = strategies[rng.gen_range(0..strategies.len())];
        let tuned = tune_pipeline(layers, devices, strategy, 1, &UnitCost, &opts).unwrap();
        let report = Verifier::new(&tuned.graph)
            .with_cost(&UnitCost)
            .verify(&tuned.schedule);
        assert!(
            report.is_clean(),
            "seed {seed} {strategy:?}: diagnostics {:?}",
            report.rule_codes()
        );
        let certified = certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost).unwrap();
        assert_eq!(certified, tuned.predicted, "seed {seed}: certification");
        assert!(
            tuned.predicted <= tuned.baseline,
            "seed {seed} {strategy:?}: tuned {} worse than {}",
            tuned.predicted,
            tuned.baseline
        );
        improved += usize::from(tuned.improved());
    }
    assert!(improved >= 1, "no seed improved any pipeline strategy");
}

/// Seeds 1-30, hybrid engine: tuning the combined reverse-first-k +
/// fast-forwarding order from the `choose_split_k` heuristic stays
/// verify-clean, certifies exactly, and never regresses; at least one
/// seed improves.
#[test]
fn hybrid_engine_tuning_conforms_on_seeds_1_to_30() {
    let opts = TuneOptions::default();
    let mut improved = 0usize;
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = spiky_cost(l, &mut rng);
        let policy = CommPolicy::PriorityByLayer;
        let sim_k = |k: usize| {
            let order = combined_backward_order(&graph, k).unwrap();
            simulate_data_parallel(&graph, &order, &cost, policy)
                .unwrap()
                .makespan()
        };
        let k = choose_split_k(l, |k| 1.0 / sim_k(k) as f64);
        let baseline = combined_backward_order(&graph, k).unwrap();
        let tuned = tune_backward_order(
            &graph,
            &baseline,
            Some(k),
            &cost,
            policy,
            KFamily::Combined,
            &opts,
        )
        .unwrap();
        let certified = certify_order(&graph, &tuned.order, &cost, policy).unwrap();
        assert_eq!(certified, tuned.predicted, "seed {seed}: certification");
        assert_eq!(sim_k(k), tuned.baseline, "seed {seed}: baseline prediction");
        assert!(
            tuned.predicted <= tuned.baseline,
            "seed {seed}: tuned {} worse than split k={k} ({})",
            tuned.predicted,
            tuned.baseline
        );
        improved += usize::from(tuned.improved());
    }
    assert!(
        improved >= 1,
        "no seed improved the choose_split_k heuristic"
    );
}

/// Regression: at 21 layers `search_optimal_k` scans `k` with step 2 and
/// only refines around the coarse winner, so on a non-concave makespan
/// surface it can settle in a local minimum. The tuner's exhaustive
/// k-jump move escapes it: starting *from* the heuristic's chosen depth,
/// tuning reaches the true argmin (or better, via `dW` relocations).
#[test]
fn tuner_k_move_escapes_search_optimal_k_local_minimum() {
    let l = 21usize;
    let mut rng = StdRng::seed_from_u64(13);
    let graph = TrainGraph::data_parallel(l);
    let cost = spiky_cost(l, &mut rng);
    let policy = CommPolicy::FifoCompletion;
    let sim_k = |k: usize| {
        let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
        simulate_data_parallel(&graph, &order, &cost, policy)
            .unwrap()
            .makespan()
    };
    // Brute force over every depth: the surface's true optimum.
    let (true_k, true_ms) = (0..=l)
        .map(|k| (k, sim_k(k)))
        .min_by_key(|&(_, m)| m)
        .unwrap();
    // The concavity-assuming heuristic stops short of it.
    let heuristic_k = search_optimal_k(l, |k| 1.0 / sim_k(k) as f64);
    assert!(
        sim_k(heuristic_k) > true_ms,
        "surface must be non-concave for this regression: heuristic k={heuristic_k} \
         ({}) vs argmin k={true_k} ({true_ms})",
        sim_k(heuristic_k)
    );
    // The tuner's exhaustive sweep agrees with brute force...
    let reverse = |k| reverse_first_k(&graph, k, None::<(u64, &TableCost)>);
    let (swept_k, swept_ms) = best_k(&graph, &cost, policy, reverse).unwrap();
    assert_eq!((swept_k, swept_ms), (true_k, true_ms));
    // ...and tuning *from* the heuristic's local minimum escapes it.
    let baseline = reverse_first_k(&graph, heuristic_k, None::<(u64, &TableCost)>).unwrap();
    let tuned = tune_backward_order(
        &graph,
        &baseline,
        Some(heuristic_k),
        &cost,
        policy,
        KFamily::ReverseFirstK,
        &TuneOptions::default(),
    )
    .unwrap();
    assert!(
        tuned.predicted <= true_ms,
        "tuned {} must reach the global reverse-k optimum {true_ms}",
        tuned.predicted
    );
    let certified = certify_order(&graph, &tuned.order, &cost, policy).unwrap();
    assert_eq!(certified, tuned.predicted);
}
