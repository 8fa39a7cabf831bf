//! Cross-strategy conformance suite for the scheduling-strategy zoo
//! (`ooo_cluster::strategy`): across seeds 1-30 and every engine shape,
//! every applicable strategy's output must (a) pass the `ooo-verify`
//! analyzer with zero diagnostics, (b) certify — a fresh list-evaluation
//! pass equals the incremental evaluator exactly, tolerance 0 — (c)
//! reconcile its static memory ledger against the instrumented
//! per-op counter exactly, and (d) regenerate byte-identically on a
//! second run. The heterogeneous device model is pinned by its own
//! differential: a uniform fleet must reproduce the homogeneous
//! simulator byte for byte, entry lists included. The same contract is
//! held at model scale by a small tournament: zoo networks under a
//! homogeneous and a heterogeneous device mix.

use ooo_backprop::cluster::strategy::{strategy_by_name, zoo, Generated, Shape};
use ooo_backprop::core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{
    simulate_data_parallel_hetero, simulate_data_parallel_with_tail, CommPolicy, SpeedFactor,
};
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::reverse_k::reverse_first_k;
use ooo_backprop::core::schedule::ReadyQueue;
use ooo_backprop::core::{SimTime, TrainGraph};
use ooo_backprop::gpusim::spec::{GpuSpec, WorkerFleet};
use ooo_backprop::models::cost::{to_table_cost, weight_bytes};
use ooo_backprop::models::{zoo as models, GpuProfile, ModelSpec};
use ooo_backprop::netsim::link::{DuplexLink, LinkSpec};
use ooo_backprop::tune::TuneOptions;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The varied per-layer cost table the other conformance suites use:
/// distinct compute, sync, and update durations so ties are rare.
fn random_cost(l: usize, rng: &mut StdRng) -> TableCost {
    let mut cost = TableCost::uniform(l, LayerCost::default());
    for i in 1..=l {
        let c = cost.layer_mut(LayerId(i));
        c.forward = rng.gen_range(1..6);
        c.output_grad = rng.gen_range(1..6);
        c.weight_grad = rng.gen_range(1..6);
        c.update = rng.gen_range(1..4);
        c.sync_weight = rng.gen_range(1..8);
        c.sync_output = rng.gen_range(1..5);
    }
    cost
}

/// Seeds 1-30 × shapes × strategies: the four invariants of the suite.
#[test]
fn strategy_zoo_conforms_on_seeds_1_to_30() {
    let mut checked = 0usize;
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..14);
        let devices = rng.gen_range(2usize..=4);
        let cost = random_cost(l, &mut rng);
        let shapes = [
            Shape::SingleGpu { layers: l },
            Shape::DataParallel { layers: l },
            Shape::Pipeline { layers: l, devices },
        ];
        for shape in shapes {
            for s in zoo() {
                if !s.applicable(shape) {
                    assert!(
                        s.generate(shape, &cost).is_err(),
                        "seed {seed}: {} must reject {} shapes",
                        s.name(),
                        shape.kind()
                    );
                    continue;
                }
                let g = s.generate(shape, &cost).unwrap_or_else(|e| {
                    panic!("seed {seed}: {} on {}: {e}", s.name(), shape.kind())
                });

                // (a) OV-clean: zero diagnostics, legality check on.
                let report = g.verify(&cost, None);
                assert!(
                    report.is_clean(),
                    "seed {seed}: {} on {}: {report}",
                    s.name(),
                    shape.kind()
                );

                // (b) fresh pass == incremental evaluator at tolerance 0.
                g.certified(&cost).unwrap_or_else(|e| {
                    panic!("seed {seed}: {} on {}: {e}", s.name(), shape.kind())
                });

                // (c) static ledger == instrumented counter.
                let (ledger, counter) = g.mem_reconciled(&cost).unwrap();
                assert_eq!(
                    ledger,
                    counter,
                    "seed {seed}: {} on {}: memory ledger diverged",
                    s.name(),
                    shape.kind()
                );

                // (d) double-run byte-identity.
                let g2 = s.generate(shape, &cost).unwrap();
                assert_eq!(
                    g.schedule,
                    g2.schedule,
                    "seed {seed}: {} on {}: regeneration diverged",
                    s.name(),
                    shape.kind()
                );
                checked += 1;
            }
        }
    }
    // 6 single/datapar + 6 datapar-applicable + 4 pipeline-applicable
    // strategies per seed: the suite must actually cover the zoo.
    assert!(checked >= 30 * 14, "only {checked} cells checked");
}

/// The heterogeneous differential: a uniform fleet must reproduce the
/// homogeneous data-parallel simulator byte for byte — every worker's
/// entry list, not just the makespan.
#[test]
fn uniform_fleet_matches_homogeneous_simulator_byte_for_byte() {
    for seed in 1u64..=30 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..14);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let k = rng.gen_range(0..=l);
        let order = reverse_first_k(&graph, k, None::<(u64, &TableCost)>).unwrap();
        let tail = rng.gen_range(0..5);
        let policy = if rng.gen_bool(0.5) {
            CommPolicy::FifoCompletion
        } else {
            CommPolicy::PriorityByLayer
        };
        let fleet = WorkerFleet::homogeneous(GpuSpec::v100(), rng.gen_range(1usize..=4));
        assert!(fleet.is_uniform());
        let homo = simulate_data_parallel_with_tail(&graph, &order, &cost, policy, tail).unwrap();
        let hetero = simulate_data_parallel_hetero(
            &graph,
            &order,
            &cost,
            policy,
            tail,
            &fleet.speed_factors(),
        )
        .unwrap();
        assert_eq!(hetero.makespan(), homo.makespan(), "seed {seed}: makespan");
        for (w, tl) in hetero.workers.iter().enumerate() {
            assert_eq!(
                tl.entries, homo.entries,
                "seed {seed}: worker {w} timeline diverged from the homogeneous path"
            );
        }
    }
}

/// A slowed worker can only lengthen the iteration, and the straggler
/// is the worker carrying the largest speed factor.
#[test]
fn straggler_gates_the_fleet() {
    for seed in 1u64..=10 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..10);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let order = reverse_first_k(&graph, 1, None::<(u64, &TableCost)>).unwrap();
        let policy = CommPolicy::PriorityByLayer;
        let uniform = simulate_data_parallel_hetero(
            &graph,
            &order,
            &cost,
            policy,
            0,
            &[SpeedFactor::UNIT; 3],
        )
        .unwrap();
        let slow = rng.gen_range(1usize..3);
        let mut speeds = [SpeedFactor::UNIT; 3];
        speeds[slow] = SpeedFactor::percent(100 + rng.gen_range(10..100));
        let mixed =
            simulate_data_parallel_hetero(&graph, &order, &cost, policy, 0, &speeds).unwrap();
        assert!(
            mixed.makespan() > uniform.makespan(),
            "seed {seed}: a slowed worker must lengthen the synchronous iteration"
        );
        assert_eq!(mixed.straggler(), slow, "seed {seed}: straggler index");
    }
}

/// A device mix: a (possibly heterogeneous) worker fleet plus the
/// duplex link its synchronizations traverse.
struct Mix {
    name: &'static str,
    fleet: WorkerFleet,
    link: DuplexLink,
}

/// A homogeneous NVLink fleet, and a heterogeneous fleet with
/// per-worker speed factors behind an asymmetric Ethernet uplink/downlink.
fn mixes() -> [Mix; 2] {
    [
        Mix {
            name: "homogeneous",
            fleet: WorkerFleet::homogeneous(GpuSpec::v100(), 4),
            link: DuplexLink::symmetric(LinkSpec::nvlink()),
        },
        Mix {
            name: "heterogeneous",
            fleet: WorkerFleet::with_speeds(GpuSpec::v100(), &[100, 110, 125, 150]),
            link: DuplexLink::asymmetric(LinkSpec::ethernet_25g(), LinkSpec::ethernet_10g()),
        },
    ]
}

/// The per-cell cost table: kernel times from the FLOP model scaled by
/// the fleet's bottleneck factor (the synchronous barrier waits for the
/// slowest worker), sync times from the duplex link's round trip over
/// each layer's parameter bytes. With `scale = false` the kernel times
/// stay unscaled, for the fleet simulator that applies each worker's
/// factor itself.
fn mix_cost(model: &ModelSpec, mix: &Mix, scale: bool) -> TableCost {
    let mut cost = to_table_cost(model, model.default_batch, &GpuProfile::v100());
    let slow = mix.fleet.bottleneck();
    for (i, &wb) in weight_bytes(model).iter().enumerate() {
        let c = cost.layer_mut(LayerId(i + 1));
        if scale {
            c.forward = slow.scale(c.forward);
            c.output_grad = slow.scale(c.output_grad);
            c.weight_grad = slow.scale(c.weight_grad);
            c.update = slow.scale(c.update);
        }
        c.sync_weight = mix.link.sync_ns(wb);
    }
    cost
}

/// One tournament group: every applicable data-parallel strategy on
/// `model` under `mix`. Each cell must be OV-clean, certified at
/// tolerance 0, and memory-reconciled; on a uniform fleet the
/// heterogeneous simulator must reproduce the homogeneous one. Returns
/// each strategy's certified makespan in zoo order.
fn tournament_group(model: &ModelSpec, mix: &Mix) -> Vec<(&'static str, SimTime)> {
    let shape = Shape::DataParallel {
        layers: model.num_layers(),
    };
    let cost = mix_cost(model, mix, true);
    let mut row = Vec::new();
    for s in zoo() {
        if !s.applicable(shape) {
            continue;
        }
        let at = format!("{} on {} ({})", s.name(), model.name, mix.name);
        let g = s
            .generate(shape, &cost)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        let report = g.verify(&cost, None);
        assert!(report.is_clean(), "{at}: {report}");
        let makespan = g.certified(&cost).unwrap_or_else(|e| panic!("{at}: {e}"));
        let (ledger, counter) = g
            .mem_reconciled(&cost)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(ledger, counter, "{at}: memory ledger diverged");
        row.push((s.name(), makespan));
    }

    let graph = shape.graph().unwrap();
    let unscaled = mix_cost(model, mix, false);
    let backward = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
    let policy = CommPolicy::PriorityByLayer;
    let hetero = simulate_data_parallel_hetero(
        &graph,
        &backward,
        &unscaled,
        policy,
        0,
        &mix.fleet.speed_factors(),
    )
    .unwrap();
    if mix.fleet.is_uniform() {
        let homo =
            simulate_data_parallel_with_tail(&graph, &backward, &unscaled, policy, 0).unwrap();
        assert_eq!(
            hetero.makespan(),
            homo.makespan(),
            "{}: uniform fleet diverged from the homogeneous simulator",
            model.name
        );
    }
    row
}

/// The strategy tournament at model scale: two zoo networks × two
/// device mixes × the six data-parallel strategies. Every one of the
/// 24 cells conforms (see `tournament_group`), and a second run of the
/// bracket gives the same makespans.
#[test]
fn tournament_cells_conform_on_zoo_networks_and_device_mixes() {
    let mut cells = 0usize;
    for model in [models::ffnn16(256), models::rnn16(64, 4)] {
        for mix in mixes() {
            let row = tournament_group(&model, &mix);
            assert_eq!(
                row,
                tournament_group(&model, &mix),
                "{} ({}): tournament group is not deterministic",
                model.name,
                mix.name
            );
            cells += row.len();
        }
    }
    assert_eq!(
        cells, 24,
        "2 networks x 2 mixes x 6 data-parallel strategies"
    );
}

/// The heterogeneous mix (slower workers behind asymmetric Ethernet) is
/// strictly slower than the NVLink-homogeneous mix in every cell, on
/// both tournament networks.
#[test]
fn heterogeneous_mix_is_strictly_slower_per_cell() {
    for model in [models::ffnn16(256), models::rnn16(64, 4)] {
        let [homo_mix, hetero_mix] = mixes();
        let homo = tournament_group(&model, &homo_mix);
        let hetero = tournament_group(&model, &hetero_mix);
        assert_eq!(homo.len(), hetero.len());
        for (h, x) in homo.iter().zip(&hetero) {
            assert_eq!(h.0, x.0);
            assert!(
                x.1 > h.1,
                "{} on {}: heterogeneous mix must cost more than NVLink-homogeneous",
                h.0,
                model.name
            );
        }
    }
}

/// Hand-computed fixture for the layerpipe generator: 3 layers, unit
/// cost. The gradient worker pipelines `dW_i, U_i` per layer against
/// the main stream's `dO` chain; updates are free (width 0), so the
/// backward finishes at t = 3 and the forward chain (gated on `U_1` at
/// t = 3) lands the makespan at 6.
#[test]
fn layerpipe_fixture_3_layers_unit_cost() {
    let s = strategy_by_name("layerpipe").unwrap();
    let g = s
        .generate(Shape::SingleGpu { layers: 3 }, &UnitCost)
        .unwrap();
    assert_eq!(
        g.schedule.lanes[0].ops,
        vec![
            Op::Loss,
            Op::OutputGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
            Op::Forward(LayerId(1)),
            Op::Forward(LayerId(2)),
            Op::Forward(LayerId(3)),
        ]
    );
    assert_eq!(
        g.schedule.lanes[1].ops,
        vec![
            Op::WeightGrad(LayerId(3)),
            Op::Update(LayerId(3)),
            Op::WeightGrad(LayerId(2)),
            Op::Update(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
            Op::Update(LayerId(1)),
        ]
    );
    assert_eq!(g.certified(&UnitCost).unwrap(), 6);
}

/// Hand-computed fixture for the twobp generator: 3 data-parallel
/// layers, unit cost. Stage one is the `dO` chain (done at t = 2);
/// stage two computes `dW_1, dW_2, dW_3` ascending (t = 3, 4, 5), syncs
/// and updates are width 0, and the in-order forward tail `F_1..F_3`
/// starts after `U_3` clears at t = 5, landing the makespan at 8.
#[test]
fn twobp_fixture_3_layers_unit_cost() {
    let s = strategy_by_name("twobp").unwrap();
    let g = s
        .generate(Shape::DataParallel { layers: 3 }, &UnitCost)
        .unwrap();
    assert_eq!(
        g.schedule.lanes[0].ops,
        vec![
            Op::Loss,
            Op::OutputGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
            Op::Update(LayerId(1)),
            Op::Update(LayerId(2)),
            Op::Update(LayerId(3)),
            Op::Forward(LayerId(1)),
            Op::Forward(LayerId(2)),
            Op::Forward(LayerId(3)),
        ]
    );
    assert_eq!(
        g.schedule.lanes[1].ops,
        vec![
            Op::WeightGrad(LayerId(1)),
            Op::WeightGrad(LayerId(2)),
            Op::WeightGrad(LayerId(3)),
        ]
    );
    assert_eq!(
        g.schedule.lanes[2].ops,
        vec![
            Op::SyncWeightGrad(LayerId(1)),
            Op::SyncWeightGrad(LayerId(2)),
            Op::SyncWeightGrad(LayerId(3)),
        ]
    );
    assert_eq!(g.certified(&UnitCost).unwrap(), 8);
}

/// Hand-computed fixture for the gradinterleaved generator: 3 layers,
/// unit cost, one stream. Each `dW_i` is issued before `dO_i`, updates
/// (width 0) are deferred past the backward pass, and the serial chain
/// of 3 `dW` + 2 `dO` + 3 `F` unit ops makes the makespan 8.
#[test]
fn gradinterleaved_fixture_3_layers_unit_cost() {
    let s = strategy_by_name("gradinterleaved").unwrap();
    let g = s
        .generate(Shape::SingleGpu { layers: 3 }, &UnitCost)
        .unwrap();
    assert_eq!(
        g.schedule.lanes[0].ops,
        vec![
            Op::Loss,
            Op::WeightGrad(LayerId(3)),
            Op::OutputGrad(LayerId(3)),
            Op::WeightGrad(LayerId(2)),
            Op::OutputGrad(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
            Op::Update(LayerId(3)),
            Op::Update(LayerId(2)),
            Op::Update(LayerId(1)),
            Op::Forward(LayerId(1)),
            Op::Forward(LayerId(2)),
            Op::Forward(LayerId(3)),
        ]
    );
    assert_eq!(g.certified(&UnitCost).unwrap(), 8);
}

/// The repo-wide tie-break key `(priority desc, op id asc)` is a pure
/// function of the pushed set: shuffled insertion orders pop
/// identically, including under duplicate priorities.
#[test]
fn ready_queue_pop_order_is_insertion_invariant() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let n = rng.gen_range(2usize..40);
        let mut items: Vec<(i64, usize)> = (0..n).map(|id| (rng.gen_range(-3i64..3), id)).collect();
        let mut q = ReadyQueue::new();
        for &(p, id) in &items {
            q.push(p, id);
        }
        let mut reference = Vec::new();
        while let Some(x) = q.pop() {
            reference.push(x);
        }
        items.shuffle(&mut rng);
        let mut q = ReadyQueue::new();
        for &(p, id) in &items {
            q.push(p, id);
        }
        let mut shuffled = Vec::new();
        while let Some(x) = q.pop() {
            shuffled.push(x);
        }
        assert_eq!(reference, shuffled);
    }
}

/// Small shapes fit `ooo-cert`'s exact solver: every complete strategy
/// output earns a bracket whose lower bound never exceeds the certified
/// makespan, and an `Optimal` certificate restates that makespan.
#[test]
fn small_strategy_outputs_earn_cert_brackets() {
    use ooo_backprop::cert::Certificate;
    let shapes = [
        Shape::SingleGpu { layers: 2 },
        Shape::DataParallel { layers: 2 },
        Shape::Pipeline {
            layers: 2,
            devices: 2,
        },
    ];
    let mut bracketed = 0usize;
    for shape in shapes {
        for s in zoo() {
            if !s.applicable(shape) || !s.complete() {
                continue;
            }
            let g = s.generate(shape, &UnitCost).unwrap();
            let makespan = g.certified(&UnitCost).unwrap();
            let solved = g
                .cert_bracket(&UnitCost, 50_000)
                .unwrap()
                .expect("2-layer shapes are far under the 128-op ceiling");
            assert!(
                solved.lower_bound <= makespan,
                "{} on {}: bound {} above makespan {makespan}",
                s.name(),
                shape.kind(),
                solved.lower_bound
            );
            match &solved.certificate {
                Certificate::Optimal { makespan: m } => assert_eq!(*m, makespan),
                Certificate::Improvable {
                    baseline,
                    witness_makespan,
                    ..
                } => {
                    assert_eq!(*baseline, makespan);
                    assert!(witness_makespan < baseline);
                }
                Certificate::Unknown { .. } => {}
            }
            bracketed += 1;
        }
    }
    assert!(bracketed >= 10, "only {bracketed} brackets ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Feeding any strategy's output to `ooo-tune` never yields a worse
    /// predicted makespan, and re-tuning the tuned schedule with the
    /// same greedy options is a fixpoint (schedule and makespan).
    #[test]
    fn tuning_strategy_output_never_regresses_and_retune_is_fixpoint(
        seed in 1u64..200,
        strat_idx in 0usize..6,
    ) {
        let names = ["conventional", "fastforward", "reversek", "layerpipe", "twobp", "gradinterleaved"];
        let s = strategy_by_name(names[strat_idx]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..8);
        let cost = random_cost(l, &mut rng);
        let shape = Shape::DataParallel { layers: l };
        prop_assume!(s.applicable(shape));
        let g = s.generate(shape, &cost).unwrap();
        let baseline = g.predicted(&cost).unwrap();
        // Greedy-only options keep the descent deterministic from any
        // start, so a local optimum must re-tune to itself exactly.
        let opts = TuneOptions { restarts: 0, ..TuneOptions::default() };
        let sync_cost: &(dyn CostModel + Sync) = &cost;
        let tuned = g.tuned(sync_cost, &opts).unwrap();
        prop_assert!(tuned.predicted <= baseline,
            "{}: tuned {} worse than strategy {baseline}", s.name(), tuned.predicted);
        let again = Generated {
            graph: g.graph.clone(),
            schedule: tuned.schedule.clone(),
            complete: g.complete,
        }
        .tuned(sync_cost, &opts)
        .unwrap();
        prop_assert_eq!(again.predicted, tuned.predicted);
        prop_assert_eq!(again.schedule, tuned.schedule);
    }

    /// Heterogeneous-spec differential as a property: any uniform fleet
    /// (every factor 100%) over any seed/order/policy reproduces the
    /// homogeneous simulator's makespan and worker-0 timeline exactly.
    #[test]
    fn uniform_speed_factors_are_the_homogeneous_path(
        seed in 1u64..200,
        workers in 1usize..6,
        k_frac in 0.0f64..=1.0,
        fifo in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..12);
        let graph = TrainGraph::data_parallel(l);
        let cost = random_cost(l, &mut rng);
        let k = ((l as f64) * k_frac) as usize;
        let order = reverse_first_k(&graph, k.min(l), None::<(u64, &TableCost)>).unwrap();
        let policy = if fifo == 0 { CommPolicy::FifoCompletion } else { CommPolicy::PriorityByLayer };
        let homo = simulate_data_parallel_with_tail(&graph, &order, &cost, policy, 0).unwrap();
        let hetero = simulate_data_parallel_hetero(
            &graph, &order, &cost, policy, 0, &vec![SpeedFactor::UNIT; workers],
        ).unwrap();
        prop_assert_eq!(hetero.makespan(), homo.makespan());
        prop_assert_eq!(&hetero.workers[0].entries, &homo.entries);
    }
}
