//! Property-based tests on the scheduling core and its numeric
//! counterpart: every algorithm's output must be a valid linearization,
//! schedules must cover all operations exactly once, memory accounting
//! must balance, and simulators must respect conservation laws.

use ooo_backprop::cluster::strategy::{zoo, Shape};
use ooo_backprop::core::cost::{LayerCost, TableCost, UnitCost};
use ooo_backprop::core::datapar::{reverse_k_makespan, CommPolicy};
use ooo_backprop::core::memory::memory_profile;
use ooo_backprop::core::multi_region::{
    backward_regions, multi_region_joint_schedule, ConstantProfile,
};
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::{
    simulate_pipeline, PipeCost, PipelineConfig, Strategy, TaskKind,
};
use ooo_backprop::core::reverse_k::reverse_first_k;
use ooo_backprop::core::schedule::{validate_order, validate_partial_order, Schedule};
use ooo_backprop::core::TrainGraph;
use ooo_backprop::tune::apply_move_batch;
use ooo_backprop::verify::mem::{ledger_of_schedule, PeakEvents, PeakSweep};
use ooo_backprop::verify::predict::{predict_makespan, DeltaEval};
use ooo_backprop::verify::{Verifier, VerifyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reverse first-k always yields a valid partial order covering every
    /// weight gradient exactly once, for every (L, k).
    #[test]
    fn reverse_k_always_valid(l in 1usize..40, k_frac in 0.0f64..=1.0) {
        let k = ((l as f64) * k_frac) as usize;
        let graph = TrainGraph::data_parallel(l);
        let order = reverse_first_k::<UnitCost>(&graph, k.min(l), None).unwrap();
        validate_partial_order(&graph, &order).unwrap();
        let dws = order.iter().filter(|o| o.is_weight_grad()).count();
        prop_assert_eq!(dws, l);
    }

    /// The canonical orders are valid for any graph flavour.
    #[test]
    fn canonical_orders_valid(l in 1usize..30, flavour in 0u8..3) {
        let graph = match flavour {
            0 => TrainGraph::single_gpu(l),
            1 => TrainGraph::data_parallel(l),
            _ => TrainGraph::pipeline_parallel(l),
        };
        validate_order(&graph, &graph.conventional_backprop()).unwrap();
        validate_order(&graph, &graph.fast_forward_backprop()).unwrap();
    }

    /// Memory accounting balances: after a full iteration every
    /// temporary buffer is freed, and the peak is at least the initial
    /// resident set.
    #[test]
    fn memory_balances(l in 1usize..30, act in 1u64..100, w in 1u64..100) {
        let graph = TrainGraph::single_gpu(l);
        let cost = TableCost::uniform(
            l,
            LayerCost { activation_bytes: act, out_grad_bytes: act, weight_bytes: w, ..LayerCost::default() },
        );
        for order in [graph.conventional_backprop(), graph.fast_forward_backprop()] {
            let p = memory_profile(&graph, &order, &cost).unwrap();
            prop_assert_eq!(p.samples.last().unwrap().1, 0);
            prop_assert!(p.peak >= p.initial);
        }
    }

    /// Delaying weight gradients never *reduces* peak memory, and the
    /// fast-forward peak is bounded by initial + all gradient buffers.
    #[test]
    fn ooo_memory_monotone(l in 2usize..25) {
        let graph = TrainGraph::single_gpu(l);
        let conv = memory_profile(&graph, &graph.conventional_backprop(), &UnitCost).unwrap();
        let ooo = memory_profile(&graph, &graph.fast_forward_backprop(), &UnitCost).unwrap();
        prop_assert!(ooo.peak >= conv.peak);
        prop_assert!(ooo.peak <= ooo.initial + 2 * l as u64 + 1);
    }

    /// In the data-parallel simulator, priority communication is never
    /// slower than FIFO, for any sync cost.
    #[test]
    fn priority_never_hurts(l in 2usize..25, sync in 0u64..8) {
        let graph = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(l, LayerCost { sync_weight: sync, ..LayerCost::default() });
        let fifo = reverse_k_makespan(&graph, 0, &cost, CommPolicy::FifoCompletion).unwrap();
        let prio = reverse_k_makespan(&graph, 0, &cost, CommPolicy::PriorityByLayer).unwrap();
        prop_assert!(prio <= fifo);
    }

    /// The iteration makespan is bounded below by total compute and above
    /// by compute plus all synchronization time (work conservation).
    #[test]
    fn datapar_makespan_bounds(l in 2usize..20, sync in 0u64..6, k_frac in 0.0f64..=1.0) {
        let k = ((l as f64) * k_frac) as usize;
        let graph = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(l, LayerCost { sync_weight: sync, ..LayerCost::default() });
        let m = reverse_k_makespan(&graph, k.min(l), &cost, CommPolicy::PriorityByLayer).unwrap();
        let compute = cost.total_backward() + cost.total_forward() - 1; // dO_1 absent
        let total_sync = sync * l as u64;
        prop_assert!(m >= compute, "{m} < {compute}");
        prop_assert!(m <= compute + total_sync, "{m} > {} + {}", compute, total_sync);
    }

    /// Pipeline simulation conservation: every compute task executes
    /// exactly once, devices never self-overlap, and fast-forwarding
    /// never increases the single-iteration makespan relative to the same
    /// strategy without it.
    #[test]
    fn pipeline_conservation(
        layers in 4usize..16,
        devices in 2usize..4,
        micros in 1usize..4,
    ) {
        prop_assume!(devices <= layers);
        for strategy in [Strategy::GPipe, Strategy::OooPipe1, Strategy::OooPipe2] {
            let cfg = PipelineConfig::unit(layers, devices, micros, strategy);
            let r = simulate_pipeline(&cfg).unwrap();
            let compute = r
                .events
                .iter()
                .filter(|e| e.task.kind != TaskKind::Transfer)
                .count();
            // F: layers, dO: layers-1, dW: layers, per micro.
            prop_assert_eq!(compute, micros * (3 * layers - 1));
            for res in 0..2 * devices {
                let mut evs: Vec<_> = r.events.iter().filter(|e| e.resource == res).collect();
                evs.sort_by_key(|e| e.start);
                for w in evs.windows(2) {
                    prop_assert!(w[0].end <= w[1].start);
                }
            }
        }
        let gp = simulate_pipeline(&PipelineConfig::unit(layers, devices, micros, Strategy::GPipe))
            .unwrap()
            .makespan();
        let p1 = simulate_pipeline(&PipelineConfig::unit(layers, devices, micros, Strategy::OooPipe1))
            .unwrap()
            .makespan();
        prop_assert!(p1 <= gp, "ff {p1} > gpipe {gp}");
    }

    /// Pipeline cost scaling: doubling every kernel time doubles the
    /// makespan exactly (linearity of the schedule).
    #[test]
    fn pipeline_time_scales_linearly(layers in 4usize..12, devices in 2usize..4) {
        prop_assume!(devices <= layers);
        let mut cfg = PipelineConfig::unit(layers, devices, 2, Strategy::OooPipe2);
        let m1 = simulate_pipeline(&cfg).unwrap().makespan();
        cfg.cost = PipeCost::uniform(layers, 2, 0);
        let m2 = simulate_pipeline(&cfg).unwrap().makespan();
        prop_assert_eq!(m2, 2 * m1);
    }
}

/// Partial-schedule configuration for the static analyzer: backward-only
/// orders and two-stream assignments omit forwards and updates by design.
fn partial() -> VerifyConfig {
    VerifyConfig {
        require_complete: false,
        ..VerifyConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every reverse-first-k order passes every `ooo-verify` lint, for
    /// every (L, k).
    #[test]
    fn reverse_k_passes_all_lints(l in 1usize..30, k_frac in 0.0f64..=1.0) {
        let k = ((l as f64) * k_frac) as usize;
        let graph = TrainGraph::data_parallel(l);
        let order = reverse_first_k::<UnitCost>(&graph, k.min(l), None).unwrap();
        let report = Verifier::new(&graph).with_config(partial()).verify_order(&order);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Algorithm 1's two-stream (main/sub) schedule passes every lint for
    /// any region granularity and co-run speedup.
    #[test]
    fn multi_region_schedule_passes_all_lints(
        l in 1usize..25,
        per in 1usize..6,
        speedup in 1.0f64..2.0,
    ) {
        let graph = TrainGraph::single_gpu(l);
        let (regions, subs) = backward_regions(&graph, &UnitCost, per);
        let profile = ConstantProfile { speedup, sub_time: 1 };
        let plan = multi_region_joint_schedule(&graph, &regions, &subs, &profile).unwrap();
        let report = Verifier::new(&graph)
            .with_config(partial())
            .verify(&plan.to_schedule(&regions));
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Every pipeline strategy's op-level schedule (device lanes plus the
    /// activation-gradient link lane) passes every lint, complete.
    #[test]
    fn pipeline_op_schedules_pass_all_lints(
        layers in 1usize..20,
        devices in 1usize..5,
        modulo in 1usize..3,
    ) {
        prop_assume!(devices <= layers);
        for strategy in [
            Strategy::ModelParallel,
            Strategy::GPipe,
            Strategy::PipeDream,
            Strategy::OooPipe1,
            Strategy::OooPipe2,
        ] {
            let (graph, schedule) =
                ooo_backprop::cluster::pipeline::op_level_schedule(layers, devices, strategy, modulo);
            let report = Verifier::new(&graph).verify(&schedule);
            prop_assert!(report.is_clean(), "{:?}: {}", strategy, report);
        }
    }

    /// Mutation: swapping two adjacent output gradients inverts a true
    /// dependency — flagged `OV101`, with the `OV401` ooo-legality
    /// warning riding along (dO is not weight-gradient-class).
    #[test]
    fn mutation_swapped_output_grads_flagged(l in 3usize..30) {
        let graph = TrainGraph::single_gpu(l);
        let mut order = graph.conventional_backprop();
        let pos = |ops: &[Op], op: Op| ops.iter().position(|&o| o == op).unwrap();
        let a = pos(&order, Op::OutputGrad(LayerId(l)));
        let b = pos(&order, Op::OutputGrad(LayerId(l - 1)));
        order.swap(a, b);
        let report = Verifier::new(&graph).verify_order(&order);
        prop_assert_eq!(report.rule_codes(), vec!["OV101", "OV401"]);
    }

    /// Mutation: dropping the activation-gradient transfer between two
    /// devices leaves the consumer racing the producer on the gradient
    /// buffer — flagged `OV201`; restoring the link lane is clean.
    #[test]
    fn mutation_dropped_sync_flagged(l in 2usize..20) {
        let graph = TrainGraph::pipeline_parallel(l);
        let upper: Vec<Op> = std::iter::once(Op::Loss)
            .chain((2..=l).rev().map(|i| Op::OutputGrad(LayerId(i))))
            .collect();
        let mut broken = Schedule::new();
        broken.add_lane("gpu1", upper.clone());
        broken.add_lane("gpu0", vec![Op::WeightGrad(LayerId(1))]);
        let report = Verifier::new(&graph).with_config(partial()).verify(&broken);
        prop_assert_eq!(report.rule_codes(), vec!["OV201"]);

        let mut fixed = Schedule::new();
        fixed.add_lane("gpu1", upper);
        fixed.add_lane("gpu0", vec![Op::WeightGrad(LayerId(1))]);
        fixed.add_lane(
            "link",
            (2..=l).rev().map(|i| Op::SyncOutputGrad(LayerId(i))).collect(),
        );
        let report = Verifier::new(&graph).with_config(partial()).verify(&fixed);
        prop_assert!(report.is_clean(), "{}", report);
    }

    /// Mutation: assigning one op to two lanes is a structural duplicate —
    /// flagged `OV002` before any ordering analysis runs.
    #[test]
    fn mutation_double_assignment_flagged(l in 1usize..20) {
        let graph = TrainGraph::single_gpu(l);
        let mut schedule = Schedule::new();
        schedule.add_lane("gpu0", graph.conventional_backprop());
        schedule.add_lane("gpu1", vec![Op::WeightGrad(LayerId(1))]);
        let report = Verifier::new(&graph).with_config(partial()).verify(&schedule);
        prop_assert_eq!(report.rule_codes(), vec!["OV002"]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Numeric invariance: gradients of a random MLP are bitwise equal
    /// between conventional and any reverse-first-k schedule.
    #[test]
    fn numeric_invariance_random_widths(
        hidden in 4usize..24,
        seed in 0u64..1000,
        k in 0usize..4,
    ) {
        use ooo_backprop::nn::layers::{Dense, Relu};
        use ooo_backprop::nn::data::synthetic_classification;
        use ooo_backprop::nn::Sequential;

        let mut net = Sequential::new();
        net.push(Dense::seeded(6, hidden, seed));
        net.push(Relu::new());
        net.push(Dense::seeded(hidden, 3, seed + 1));
        let graph = net.train_graph();
        let (x, y) = synthetic_classification(seed, 8, 6, 3);
        let base = net.grads_with_order(&x, &y, &graph.conventional_backprop()).unwrap();
        let order = reverse_first_k::<UnitCost>(&graph, k.min(net.len()), None).unwrap();
        let (loss, grads) = net.grads_with_order(&x, &y, &order).unwrap();
        prop_assert_eq!(loss.to_bits(), base.0.to_bits());
        for (a, b) in grads.iter().flatten().zip(base.1.iter().flatten()) {
            prop_assert_eq!(a.data(), b.data());
        }
    }
}

/// Everything a probe must leave untouched: the placement, every op's
/// recorded position, start and finish, the makespan and both work
/// counters.
type DeltaState = (
    Schedule,
    Vec<(Option<(usize, usize)>, Option<u64>, Option<u64>)>,
    u64,
    u64,
    u64,
);

fn delta_state(graph: &TrainGraph, de: &DeltaEval<'_>) -> DeltaState {
    let times = graph
        .ops()
        .iter()
        .map(|&op| (de.position_of(op), de.start_of(op), de.finish_of(op)))
        .collect();
    (
        de.to_schedule(),
        times,
        de.makespan(),
        de.rescored(),
        de.full_equivalent(),
    )
}

/// A random relocation batch over `schedule`: one to three distinct ops
/// of any class (so many batches deadlock the lanes), sometimes a
/// `[dW_i, U_i]` block, to random lanes and positions (some past the
/// lane end, which the batch semantics clamp).
fn random_batch(schedule: &Schedule, rng: &mut StdRng) -> Vec<(Op, usize, usize)> {
    let ops: Vec<Op> = schedule.lanes.iter().flat_map(|l| l.ops.clone()).collect();
    let lanes = schedule.lanes.len();
    let mut batch: Vec<(Op, usize, usize)> = Vec::new();
    for _ in 0..rng.gen_range(1usize..=3) {
        let op = ops[rng.gen_range(0..ops.len())];
        if batch.iter().any(|&(o, _, _)| o == op) {
            continue;
        }
        let lane = rng.gen_range(0..lanes);
        let pos = rng.gen_range(0..=schedule.lanes[lane].ops.len() + 1);
        batch.push((op, lane, pos));
        if let Op::WeightGrad(layer) = op {
            let update = Op::Update(layer);
            if rng.gen_bool(0.5)
                && ops.contains(&update)
                && batch.iter().all(|&(o, _, _)| o != update)
            {
                batch.push((update, lane, pos + 1));
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `DeltaEval::probe` over zoo schedules: whatever the batch — legal,
    /// deadlocking, malformed — the evaluator afterwards is exactly as
    /// before (placement, every start and finish, makespan, counters).
    /// A batch that evaluates probes to exactly the full prediction of
    /// the materialized schedule, so it is below any cutoff exactly when
    /// the full score is; a batch that deadlocks the lanes is an error.
    /// Some legal batches are then kept with `relocate_many`, so later
    /// probes start from edited states.
    #[test]
    fn delta_probe_restores_state_and_scores_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..10);
        let devices = rng.gen_range(2usize..=4);
        // Zero durations included: zero-width ties and zero-duration
        // cycles are where stopping at an unchanged finish and repairing
        // the rank order can go wrong.
        let mut cost = TableCost::uniform(l, LayerCost::default());
        for i in 1..=l {
            let c = cost.layer_mut(LayerId(i));
            c.forward = rng.gen_range(0..6);
            c.output_grad = rng.gen_range(0..6);
            c.weight_grad = rng.gen_range(0..6);
            c.update = rng.gen_range(0..4);
            c.sync_weight = rng.gen_range(0..8);
            c.sync_output = rng.gen_range(0..5);
        }
        let shapes = [
            Shape::SingleGpu { layers: l },
            Shape::DataParallel { layers: l },
            Shape::Pipeline { layers: l, devices },
        ];
        let (mut below, mut above, mut deadlocks) = (0usize, 0usize, 0usize);
        for shape in shapes {
            for strategy in zoo() {
                if !strategy.applicable(shape) {
                    continue;
                }
                let g = strategy.generate(shape, &cost).unwrap();
                let mut de = DeltaEval::new(&g.graph, &g.schedule, &cost).unwrap();
                let cutoff = de.makespan();
                for _ in 0..12 {
                    let schedule = de.to_schedule();
                    for (li, lane) in schedule.lanes.iter().enumerate() {
                        for (pi, &op) in lane.ops.iter().enumerate() {
                            prop_assert_eq!(de.position_of(op), Some((li, pi)));
                        }
                    }
                    let batch = random_batch(&schedule, &mut rng);
                    let before = delta_state(&g.graph, &de);
                    let probed = de.probe(&batch);
                    prop_assert_eq!(delta_state(&g.graph, &de), before);
                    let next = apply_move_batch(&de.to_schedule(), &batch);
                    match predict_makespan(&g.graph, &next, &cost) {
                        Ok(full) => {
                            prop_assert_eq!(probed.ok(), Some(full.makespan()));
                            if full.makespan() < cutoff {
                                below += 1;
                            } else {
                                above += 1;
                            }
                            if rng.gen_bool(0.3) {
                                de.relocate_many(&batch).unwrap();
                                prop_assert_eq!(de.to_schedule(), next);
                                prop_assert_eq!(de.makespan(), full.makespan());
                            }
                        }
                        Err(_) => {
                            deadlocks += 1;
                            prop_assert!(probed.is_err(), "a deadlocking batch probed Ok");
                        }
                    }
                }
            }
        }
        prop_assert!(above > 0 && deadlocks > 0, "{below} below, {above} above, {deadlocks} deadlocks");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tuner's critical-path bound is exact: over zoo schedules and
    /// random batches (durations from 0), a batch that keeps
    /// `DeltaEval::keeps_critical_path` makes at least the incumbent's
    /// makespan, or does not evaluate. Some legal batches are kept with
    /// `relocate_many`, so later checks read a path marked again after a
    /// committed edit. Every case meets batches that keep the path and
    /// evaluate.
    #[test]
    fn kept_critical_path_bounds_the_makespan(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = rng.gen_range(2usize..10);
        let devices = rng.gen_range(2usize..=4);
        let mut cost = TableCost::uniform(l, LayerCost::default());
        for i in 1..=l {
            let c = cost.layer_mut(LayerId(i));
            c.forward = rng.gen_range(0..6);
            c.output_grad = rng.gen_range(0..6);
            c.weight_grad = rng.gen_range(0..6);
            c.update = rng.gen_range(0..4);
            c.sync_weight = rng.gen_range(0..8);
            c.sync_output = rng.gen_range(0..5);
        }
        let shapes = [
            Shape::SingleGpu { layers: l },
            Shape::DataParallel { layers: l },
            Shape::Pipeline { layers: l, devices },
        ];
        let mut kept = 0usize;
        for shape in shapes {
            for strategy in zoo() {
                if !strategy.applicable(shape) {
                    continue;
                }
                let g = strategy.generate(shape, &cost).unwrap();
                let mut de = DeltaEval::new(&g.graph, &g.schedule, &cost).unwrap();
                for _ in 0..12 {
                    let schedule = de.to_schedule();
                    let batch = random_batch(&schedule, &mut rng);
                    let keeps = de.keeps_critical_path(&batch);
                    let next = apply_move_batch(&schedule, &batch);
                    let Ok(full) = predict_makespan(&g.graph, &next, &cost) else {
                        continue;
                    };
                    if keeps {
                        let incumbent = de.makespan();
                        prop_assert!(
                            full.makespan() >= incumbent,
                            "{batch:?} keeps the critical path but makes {} < {incumbent}",
                            full.makespan()
                        );
                        kept += 1;
                    }
                    if rng.gen_bool(0.3) {
                        de.relocate_many(&batch).unwrap();
                    }
                }
            }
        }
        prop_assert!(kept > 0, "no evaluating batch keeps the critical path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The peak a capped tuner reads off a probe's own times: over zoo
    /// schedules and random batches, [`PeakSweep::peak`] inside
    /// `DeltaEval::probe_with` equals the full ledger peak of the
    /// materialized schedule, the ledger's carried-in bytes are at most
    /// its peak, and a relocation leaves them unchanged (a batch that
    /// deadlocks probes to an error). Durations and sizes are drawn from
    /// 0, so frees, allocations and zero-width residencies tie at equal
    /// timestamps, which is where the sweep's phase order decides the
    /// peak; every case must meet both kinds of tie.
    #[test]
    fn probed_sweep_peak_equals_the_ledger_peak(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut measured, mut zero_width, mut tied) = (0usize, 0usize, 0usize);
        // Instances are drawn until both kinds of tie have been met.
        for _ in 0..8 {
            if zero_width > 0 && tied > 0 {
                break;
            }
            let l = rng.gen_range(2usize..10);
            let devices = rng.gen_range(2usize..=4);
            // Most durations are 0: a zero-width residency needs its
            // producer and keepers all to take no time.
            let mut cost = TableCost::uniform(l, LayerCost::default());
            let dur = |rng: &mut StdRng, max: u64| {
                if rng.gen_bool(0.75) {
                    0
                } else {
                    rng.gen_range(1..=max)
                }
            };
            for i in 1..=l {
                let c = cost.layer_mut(LayerId(i));
                c.forward = dur(&mut rng, 3);
                c.output_grad = dur(&mut rng, 3);
                c.weight_grad = dur(&mut rng, 3);
                c.update = dur(&mut rng, 2);
                c.sync_weight = dur(&mut rng, 4);
                c.sync_output = dur(&mut rng, 3);
                c.activation_bytes = rng.gen_range(0..4);
                c.out_grad_bytes = rng.gen_range(0..4);
                c.weight_bytes = rng.gen_range(0..4);
            }
            let shapes = [
                Shape::SingleGpu { layers: l },
                Shape::DataParallel { layers: l },
                Shape::Pipeline { layers: l, devices },
            ];
            for shape in shapes {
                for strategy in zoo() {
                    if !strategy.applicable(shape) {
                        continue;
                    }
                    let g = strategy.generate(shape, &cost).unwrap();
                    let base = ledger_of_schedule(&g.graph, &g.schedule, &cost).unwrap();
                    prop_assert!(base.initial <= base.peak);
                    let sweep = PeakSweep::new(&g.graph, &cost, &g.schedule);
                    let mut de = DeltaEval::new(&g.graph, &g.schedule, &cost).unwrap();
                    let mut events = PeakEvents::default();
                    for _ in 0..12 {
                        let schedule = de.to_schedule();
                        let batch = random_batch(&schedule, &mut rng);
                        let swept = de.probe_with(&batch, |de, _| {
                            sweep.peak(|v| de.span_at(v), &mut events)
                        });
                        let next = apply_move_batch(&schedule, &batch);
                        let Ok(ledger) = ledger_of_schedule(&g.graph, &next, &cost) else {
                            prop_assert!(swept.is_err(), "a deadlocking batch probed Ok");
                            continue;
                        };
                        prop_assert_eq!(swept.ok(), Some(ledger.peak));
                        prop_assert!(ledger.initial <= ledger.peak);
                        prop_assert_eq!(ledger.initial, base.initial);
                        measured += 1;
                        let ivs = &ledger.intervals;
                        zero_width += ivs.iter().filter(|iv| iv.free == Some(iv.alloc)).count();
                        tied += ivs
                            .iter()
                            .filter(|a| {
                                ivs.iter().any(|b| a.free == Some(b.alloc) && a.buf != b.buf)
                            })
                            .count();
                        if rng.gen_bool(0.3) {
                            de.relocate_many(&batch).unwrap();
                        }
                    }
                }
            }
        }
        prop_assert!(
            measured > 0 && zero_width > 0 && tied > 0,
            "{measured} measured, {zero_width} zero-width, {tied} tied"
        );
    }
}
