//! Tuning flat backward orders of data-parallel training.
//!
//! The engines hand the data-parallel simulator a *backward order*
//! (loss, `dO`s, `dW`s); updates, forwards, and the link lane are
//! implicit. [`tune_backward_order`] searches that order directly: the
//! moves are `dW` relocations within the flat order plus *k-jumps* —
//! replacing the whole order by the reverse-first-k (or combined
//! split-k) shape for some `k`, which is what lets the tuner escape the
//! local minima the concave [`ooo_core::reverse_k::search_optimal_k`]
//! heuristic can stop at on non-concave cost surfaces.
//!
//! Scoring is the exact predictor on the realized two-lane schedule of
//! [`ooo_verify::predict::datapar_schedule`], which the safety gate
//! verifies too. k-jumps are realized once per run; a relocation is
//! scored in closed form. The compute lane runs the backward order, which
//! never waits, then the `U_i`/`F_i` chain, whose ops wait only on their
//! lane predecessor and on `S[dW_i]`; the link lane is the service plan of
//! the `dW` finish times, each planned `(layer, start, end)` the realized
//! `S[dW_i]` interval. So a candidate's makespan is
//! `max(C, max_i(end_i + tail_i))`, with `C` the compute lane's total
//! duration and `tail_i` the chain's time after `S[dW_i]` finishes, both
//! fixed by the op set; under a memory cap its peak is swept over
//! closed-form op times. The candidate's plan resumes the incumbent's
//! recorded plan ([`SyncTrail`]) at the first step that starts at or
//! after the earliest `dW` finish the move changes, and the move is
//! dropped at the step where its running makespan reaches the score to
//! beat.

use crate::{
    capped_below, local_search, raw_cutoff, AppliedMove, Error, Jump, MemoryCap, Result,
    SearchSpace, TuneOptions,
};
use ooo_core::cost::CostModel;
use ooo_core::datapar::{simulate_data_parallel, CommPolicy, SyncPlanner, SyncTrail};
use ooo_core::op::LayerId;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_verify::mem::{schedule_peak, PeakEvents};
use ooo_verify::predict::{datapar_schedule, predict_makespan};
use ooo_verify::Verifier;
use std::sync::OnceLock;

/// Which family of whole-order jumps the k-move draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KFamily {
    /// No k-jumps: only `dW` relocations.
    None,
    /// [`ooo_core::reverse_k::reverse_first_k`] orders (data-parallel).
    ReverseFirstK,
    /// [`ooo_core::combined::combined_backward_order`] orders (hybrid
    /// data+pipeline parallel).
    Combined,
}

/// The outcome of tuning one flat backward order.
#[derive(Debug, Clone)]
pub struct TunedOrder {
    /// The tuned backward order.
    pub order: Vec<Op>,
    /// The k of the last accepted k-jump, when the final order is still
    /// a pure k-shape (no later relocation touched it).
    pub k: Option<usize>,
    /// Predicted makespan of the input order.
    pub baseline: SimTime,
    /// Predicted makespan of the tuned order.
    pub predicted: SimTime,
    /// Static ledger peak of the tuned order's realized schedule;
    /// populated iff [`TuneOptions::memory_cap`] was set.
    pub peak: Option<u64>,
    /// The accepted move trajectory.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl TunedOrder {
    /// `true` when the tuner strictly beat the baseline.
    pub fn improved(&self) -> bool {
        self.predicted < self.baseline
    }
}

#[derive(Clone)]
struct OrderState {
    order: Vec<Op>,
    k: Option<usize>,
}

/// A candidate move of the order space.
enum OrderMove {
    /// Jump to entry `i` of the k-jump table.
    KJump(usize),
    /// Move the `dW` at position `from` to position `to`.
    Relocate { op: Op, from: usize, to: usize },
}

struct OrderSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    policy: CommPolicy,
    family: KFamily,
    verifier: Verifier<'g, &'g C>,
    window: Option<usize>,
    memory_cap: Option<MemoryCap>,
    k_jumps: OnceLock<Vec<Jump<Vec<Op>>>>,
    /// The realized compute lane after the backward order ([`chain_of`]).
    chain: Vec<(usize, SimTime, Option<usize>)>,
}

/// The incumbent's scoring context: what a relocation's closed-form
/// score starts from.
struct OrderScorer {
    /// Each op's position in the incumbent order, by dense index
    /// (`usize::MAX` off the order).
    pos: Vec<usize>,
    /// Sequential finish time of each backward position.
    finish: Vec<SimTime>,
    /// Sequential finish of each layer's `dW` (index 0 unused).
    dw_finish: Vec<SimTime>,
    /// Per layer `i` (index 0 unused), the compute-lane time after
    /// `S[dW_i]` finishes: the chain from the first op that waits on it,
    /// 0 when none does.
    after_sync: Vec<SimTime>,
    /// The incumbent's link plan, recorded with the planner's state
    /// before every step so a candidate resumes it, when the graph syncs.
    link: Option<SyncTrail>,
    /// `reach[s]`: the largest of `C` and `end + after_sync[layer]` over
    /// the incumbent plan's first `s` steps.
    reach: Vec<SimTime>,
    /// Work state for a candidate: its `dw_finish`, the link planner it
    /// resumes and the steps it plans from there, and under a memory cap
    /// its op times by dense index and the events its peak is swept with.
    buf: Vec<SimTime>,
    planner: SyncPlanner,
    steps: Vec<(usize, SimTime, SimTime)>,
    spans: Vec<(SimTime, SimTime)>,
    events: PeakEvents,
}

impl<C: CostModel> OrderSpace<'_, C> {
    fn family_order(&self, k: usize) -> Option<Vec<Op>> {
        match self.family {
            KFamily::None => None,
            KFamily::ReverseFirstK => {
                ooo_core::reverse_k::reverse_first_k(self.graph, k, None::<(u64, &C)>).ok()
            }
            KFamily::Combined => ooo_core::combined::combined_backward_order(self.graph, k).ok(),
        }
    }

    /// The raw predicted makespan of `order`'s realized two-lane
    /// schedule: the k-jump table's score.
    fn realize(&self, order: &[Op]) -> Option<SimTime> {
        let s = datapar_schedule(self.graph, order, self.cost, self.policy).ok()?;
        Some(predict_makespan(self.graph, &s, self.cost).ok()?.makespan())
    }

    /// The k-jump targets, one per depth, each scored once on the first
    /// neighborhood scan that needs them.
    fn k_jumps(&self) -> &[Jump<Vec<Op>>] {
        self.k_jumps.get_or_init(|| {
            (0..=self.graph.layers())
                .map_while(|k| self.family_order(k).map(|order| (k, order)))
                .map(|(k, order)| {
                    let raw = self.realize(&order);
                    Jump::new(k, order, raw)
                })
                .collect()
        })
    }

    /// The link occupancy of layer `i`'s synchronization.
    fn sync_ns(&self, i: usize) -> SimTime {
        self.cost.duration(Op::SyncWeightGrad(LayerId(i)))
    }

    /// `order` with the `dW` at `from` moved to `to`.
    fn relocated(order: &[Op], from: usize, to: usize) -> Vec<Op> {
        let mut next = order.to_vec();
        let op = next.remove(from);
        next.insert(to, op);
        next
    }

    /// The exact raw makespan of the realized relocated order, unless it
    /// reaches `cutoff` (the [`raw_cutoff`]): `max(C, max_i(end_i +
    /// after_sync_i))` over the candidate's link plan (see the module
    /// docs), `C` without a link lane. The plan runs on the shifted `dW`
    /// finish times, computed from the incumbent's, and its steps are
    /// left in the scorer for [`OrderSpace::relocated_spans`]. A `dW`
    /// moved past one of its own dependencies or dependents is `None`
    /// before any planning: its realization would deadlock.
    ///
    /// The link plan is the incumbent's up to the first step that starts
    /// at or after `t0`, the earliest old or new finish of a `dW` the
    /// move shifts: every earlier step admitted only unshifted layers. So
    /// the candidate [`SyncPlanner::resume`]s the incumbent's recorded
    /// plan there. The running maximum only grows, so the move is dropped
    /// at the first step (the shared steps count as one) where it reaches
    /// `cutoff`.
    fn relocated_makespan(
        &self,
        sc: &mut OrderScorer,
        order: &[Op],
        (op, from, to): (Op, usize, usize),
        cutoff: SimTime,
    ) -> Option<SimTime> {
        let OrderScorer {
            pos,
            finish,
            dw_finish,
            after_sync,
            link,
            reach,
            buf,
            planner,
            steps,
            ..
        } = sc;
        let v = self.graph.op_index(op).expect("movers are in the graph");
        let d = self.cost.duration(op);
        let (shifted, passed, own) = if from < to {
            let deps = self.graph.dependent_indices(v);
            (from + 1..to + 1, deps, finish[to])
        } else {
            let start = to.checked_sub(1).map_or(0, |p| finish[p]);
            (to..from, self.graph.dep_indices(v), start + d)
        };
        if passed.iter().any(|&w| shifted.contains(&pos[w])) {
            return None;
        }
        steps.clear();
        let Some(trail) = link else {
            return (reach[0] < cutoff).then_some(reach[0]);
        };
        buf.clone_from(dw_finish);
        let mut t0 = SimTime::MAX;
        let mut set = |i: usize, f: SimTime| {
            if buf[i] != f {
                t0 = t0.min(buf[i]).min(f);
                buf[i] = f;
            }
        };
        for &o in &order[shifted] {
            if let Op::WeightGrad(LayerId(i)) = o {
                let f = if from < to {
                    dw_finish[i] - d
                } else {
                    dw_finish[i] + d
                };
                set(i, f);
            }
        }
        if let Op::WeightGrad(LayerId(i)) = op {
            set(i, own);
        }
        let first = trail.first_step_at(t0);
        let mut makespan = reach[first];
        if makespan >= cutoff {
            return None;
        }
        planner.resume(trail, first, buf);
        for _ in first..trail.service().len() {
            let step = planner
                .step(buf, self.policy, |i| self.sync_ns(i))
                .expect("one step per layer");
            makespan = makespan.max(step.2 + after_sync[step.0]);
            if makespan >= cutoff {
                return None;
            }
            steps.push(step);
        }
        Some(makespan)
    }

    /// Fills the scorer's `spans` with every op's `(start, finish)` in the
    /// realized schedule of `order` with the `dW` at `from` moved to `to`,
    /// whose makespan [`OrderSpace::relocated_makespan`] just returned:
    /// the backward ops run back to back in the relocated order, each
    /// `S[dW_i]` over its planned interval, and each chain op starts at
    /// its lane predecessor's finish or, when it waits on `S[dW_i]`, at
    /// that sync's end if later.
    fn relocated_spans(&self, sc: &mut OrderScorer, order: &[Op], from: usize, to: usize) {
        let OrderScorer {
            finish,
            link,
            steps,
            spans,
            ..
        } = sc;
        let index = |op| {
            self.graph
                .op_index(op)
                .expect("ordered ops are in the graph")
        };
        spans.resize(self.graph.len(), (0, 0));
        let runs = if from < to {
            [
                0..from,
                from + 1..to + 1,
                from..from + 1,
                to + 1..order.len(),
            ]
        } else {
            [0..to, from..from + 1, to..from, from + 1..order.len()]
        };
        let mut t = 0;
        for p in runs.into_iter().flatten() {
            let start = t;
            t += finish[p] - p.checked_sub(1).map_or(0, |q| finish[q]);
            spans[index(order[p])] = (start, t);
        }
        if let Some(trail) = link {
            let shared = &trail.service()[..trail.service().len() - steps.len()];
            for &(i, start, end) in shared.iter().chain(steps.iter()) {
                spans[index(Op::SyncWeightGrad(LayerId(i)))] = (start, end);
            }
        }
        for &(v, d, wait) in &self.chain {
            let start = wait.map_or(t, |w| t.max(spans[w].1));
            t = start + d;
            spans[v] = (start, t);
        }
    }
}

impl<'g, C: CostModel + Sync> SearchSpace for OrderSpace<'g, C> {
    type State = OrderState;
    type Move = OrderMove;
    type Scorer = OrderScorer;

    fn clean(&self, state: &OrderState) -> bool {
        match datapar_schedule(self.graph, &state.order, self.cost, self.policy) {
            Ok(s) => self.verifier.verify(&s).is_clean(),
            Err(_) => false,
        }
    }

    /// k-jumps to every family order other than the incumbent, then every
    /// `dW` relocation within the flat order, restricted to
    /// [`TuneOptions::window`] around each op's current position.
    fn moves(&self, state: &OrderState) -> Vec<OrderMove> {
        let mut out: Vec<OrderMove> = self
            .k_jumps()
            .iter()
            .enumerate()
            .filter(|(_, j)| j.target != state.order)
            .map(|(i, _)| OrderMove::KJump(i))
            .collect();
        for (from, &op) in state.order.iter().enumerate() {
            if !op.is_weight_grad() {
                continue;
            }
            for to in 0..state.order.len() {
                if to == from || self.window.is_some_and(|w| to.abs_diff(from) > w) {
                    continue;
                }
                out.push(OrderMove::Relocate { op, from, to });
            }
        }
        out
    }

    fn scorer(&self, state: &OrderState) -> OrderScorer {
        let mut pos = vec![usize::MAX; self.graph.len()];
        let mut dw_finish = vec![0; self.graph.layers() + 1];
        let mut t: SimTime = 0;
        let finish: Vec<SimTime> = (state.order.iter().enumerate())
            .map(|(p, &op)| {
                pos[self
                    .graph
                    .op_index(op)
                    .expect("ordered ops are in the graph")] = p;
                t += self.cost.duration(op);
                if let Op::WeightGrad(LayerId(i)) = op {
                    dw_finish[i] = t;
                }
                t
            })
            .collect();
        let (mut after_sync, mut chain_ns) = (vec![0; self.graph.layers() + 1], 0);
        for &(_, d, wait) in self.chain.iter().rev() {
            chain_ns += d;
            if let Some(Op::SyncWeightGrad(LayerId(i))) = wait.map(|w| self.graph.ops()[w]) {
                after_sync[i] = chain_ns;
            }
        }
        let mut planner = SyncPlanner::default();
        let link = (self.graph.contains(Op::SyncWeightGrad(LayerId(1)))).then(|| {
            let mut trail = SyncTrail::default();
            planner.record(&dw_finish, self.policy, |i| self.sync_ns(i), &mut trail);
            trail
        });
        let mut reach = vec![t + chain_ns];
        for &(pick, _, end) in link.iter().flat_map(SyncTrail::service) {
            reach.push(reach[reach.len() - 1].max(end + after_sync[pick]));
        }
        OrderScorer {
            pos,
            finish,
            dw_finish,
            after_sync,
            link,
            reach,
            buf: Vec::new(),
            planner,
            steps: Vec::new(),
            spans: Vec::new(),
            events: PeakEvents::default(),
        }
    }

    /// k-jumps carry their scores from the k-jump table, under a memory
    /// cap realizing a target for its ledger the first time its raw
    /// makespan is below the cutoff; relocations are scored in closed
    /// form ([`OrderSpace::relocated_makespan`]), under a memory cap with
    /// the peak swept over their closed-form times
    /// ([`OrderSpace::relocated_spans`]) when the raw makespan is below
    /// the cutoff.
    fn score(
        &self,
        sc: &mut OrderScorer,
        state: &OrderState,
        mv: &OrderMove,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        let cap = self.memory_cap.as_ref();
        match *mv {
            OrderMove::KJump(i) => {
                self.k_jumps()[i].score(cutoff, cap.map(MemoryCap::bytes), |order| {
                    let s = datapar_schedule(self.graph, order, self.cost, self.policy).ok()?;
                    schedule_peak(self.graph, &s, self.cost).ok()
                })
            }
            OrderMove::Relocate { op, from, to } => {
                let raw = raw_cutoff(cutoff, cap);
                let raw = self.relocated_makespan(sc, &state.order, (op, from, to), raw)?;
                capped_below(raw, cutoff, cap.map(MemoryCap::bytes), || {
                    let cap = cap?;
                    self.relocated_spans(sc, &state.order, from, to);
                    Some(cap.relocated_peak(|v| sc.spans[v], &mut sc.events))
                })
            }
        }
    }

    fn apply(&self, state: &OrderState, mv: &OrderMove) -> (OrderState, String) {
        match *mv {
            OrderMove::KJump(i) => {
                let j = &self.k_jumps()[i];
                let label = match self.family {
                    KFamily::None => unreachable!("no k-jumps without a family"),
                    KFamily::ReverseFirstK => format!("set reverse-first-k k={}", j.label),
                    KFamily::Combined => format!("set combined split k={}", j.label),
                };
                let next = OrderState {
                    order: j.target.clone(),
                    k: Some(j.label),
                };
                (next, label)
            }
            OrderMove::Relocate { op, from, to } => (
                OrderState {
                    order: Self::relocated(&state.order, from, to),
                    k: None,
                },
                format!("move {op} to position {to}"),
            ),
        }
    }
}

/// Tunes a flat backward order for the data-parallel simulator under
/// `policy`. `baseline_k` documents the k-shape of the input, if any.
///
/// # Errors
///
/// [`Error::Unsafe`] when the input's realized schedule already fails
/// the safety gate; [`Error::Core`] when it does not evaluate.
pub fn tune_backward_order<C: CostModel + Sync>(
    graph: &TrainGraph,
    baseline: &[Op],
    baseline_k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    family: KFamily,
    opts: &TuneOptions,
) -> Result<TunedOrder> {
    let verifier = Verifier::new(graph)
        .with_config(opts.verify_config())
        .with_cost(cost);
    let realized = datapar_schedule(graph, baseline, cost, policy)?;
    let report = verifier.verify(&realized);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(graph, &realized, cost)?.makespan();
    let (memory_cap, base_m) =
        MemoryCap::of_baseline(graph, cost, &realized, opts.memory_cap, base_raw)?;
    let space = OrderSpace {
        graph,
        cost,
        policy,
        family,
        verifier,
        window: opts.window,
        memory_cap,
        k_jumps: OnceLock::new(),
        chain: chain_of(graph, cost, &realized, baseline.len()),
    };
    let init = OrderState {
        order: baseline.to_vec(),
        k: baseline_k,
    };
    let (state, predicted, moves, restarts_adopted) = local_search(&space, init, base_m, opts);
    // Capped scores carry the penalty; report the raw makespan (and the
    // winner's exact peak) instead.
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => {
            let s = datapar_schedule(graph, &state.order, cost, policy)?;
            (
                predict_makespan(graph, &s, cost)?.makespan(),
                Some(schedule_peak(graph, &s, cost)?),
            )
        }
    };
    Ok(TunedOrder {
        order: state.order,
        k: state.k,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}

/// Certifies a tuned backward order: runs the data-parallel
/// discrete-event simulator, an engine written apart from the
/// list-evaluation pass, and demands it match the static prediction of
/// the reconstructed schedule exactly. Returns the certified makespan.
///
/// # Errors
///
/// [`Error::Certification`] on any disagreement; [`Error::Core`] when
/// the order does not simulate.
pub fn certify_order<C: CostModel>(
    graph: &TrainGraph,
    order: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<SimTime> {
    let s = datapar_schedule(graph, order, cost, policy)?;
    let predicted = predict_makespan(graph, &s, cost)?.makespan();
    let simulated = simulate_data_parallel(graph, order, cost, policy)?.makespan();
    if predicted != simulated {
        return Err(Error::Certification {
            predicted,
            checked: simulated,
            by: "data-parallel simulation",
        });
    }
    Ok(simulated)
}

/// Exhaustive predictor sweep over the order family `order_of` (say
/// reverse-first-k, or the combined split-k orders of the hybrid engine):
/// the `(k, makespan)` minimizing the predicted makespan of
/// `order_of(k)` over every depth `k`, ties to the smallest `k`. Over the
/// combined family this is the tuner's k-move restricted to it — the
/// exact alternative to the concave
/// [`ooo_core::combined::choose_split_k`] heuristic.
///
/// # Errors
///
/// Propagates order-construction and prediction errors.
pub fn best_k<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    policy: CommPolicy,
    order_of: impl Fn(usize) -> ooo_core::Result<Vec<Op>>,
) -> Result<(usize, SimTime)> {
    let scored = (0..=graph.layers()).map(|k| {
        let s = datapar_schedule(graph, &order_of(k)?, cost, policy)?;
        Ok((predict_makespan(graph, &s, cost)?.makespan(), k))
    });
    let best = scored.collect::<Result<Vec<_>>>()?.into_iter().min();
    let (m, k) = best.expect("graphs have at least one layer");
    Ok((k, m))
}

/// The compute lane of `realized`, the realized schedule of `backward`
/// ops, after those ops — the `U_i`/`F_i` chain, which no relocation
/// moves: each op's dense index and duration, and the dense index of the
/// `S[dW_i]` it waits on.
///
/// # Panics
///
/// When a cross-lane edge is not `dW_i → S[dW_i]` or `S[dW_i] →` a chain
/// op that waits on no other sync: the closed-form score would not be the
/// realized makespan.
fn chain_of<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    realized: &Schedule,
    backward: usize,
) -> Vec<(usize, SimTime, Option<usize>)> {
    let index = |op| graph.op_index(op).expect("realized ops are in the graph");
    for &s in realized.lanes.iter().skip(1).flat_map(|lane| &lane.ops) {
        let Op::SyncWeightGrad(i) = s else {
            panic!("the link lane runs only S[dW], not {s}")
        };
        let own = [index(Op::WeightGrad(i))];
        assert_eq!(
            graph.dep_indices(index(s)),
            own,
            "{s} waits on its dW alone"
        );
    }
    let mut chain = Vec::new();
    for (pos, &op) in realized.lanes[0].ops.iter().enumerate() {
        let deps = graph.dep_indices(index(op)).iter().copied();
        let mut waits = deps.filter(|&w| matches!(graph.ops()[w], Op::SyncWeightGrad(_)));
        let wait = waits.next();
        let once = waits.next().is_none() && (wait.is_none() || pos >= backward);
        assert!(
            once,
            "{op} waits on the link lane before the chain or twice"
        );
        if pos >= backward {
            chain.push((index(op), cost.duration(op), wait));
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::combined::combined_backward_order;
    use ooo_core::cost::{LayerCost, TableCost};
    use ooo_core::reverse_k::reverse_first_k;
    use ooo_verify::mem::{ledger_of_schedule, MemLedger};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sync_heavy(l: usize) -> TableCost {
        TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                ..LayerCost::default()
            },
        )
    }

    /// The relocation tests' instances, each with its start orders:
    /// - the 12-layer sync-3 order from three reverse-first-k states and
    ///   two combined split-k states;
    /// - 70 layers (two ready-set words) with random per-layer `dO`, `dW`
    ///   and sync durations from 0, from three reverse-first-k states and
    ///   one combined split-k state;
    /// - 24 layers with every duration random from 0 and random buffer
    ///   sizes, from three reverse-first-k and two combined split-k states;
    /// - the 12-layer single-GPU graph (no link lane) from three
    ///   reverse-first-k states.
    ///
    /// Each instance also starts from a seeded random walk of up to eight
    /// relocations away from its first start order.
    fn relocation_cases() -> Vec<(TrainGraph, TableCost, Vec<Vec<Op>>)> {
        let mut rng = StdRng::seed_from_u64(22);
        let mut varied = TableCost::uniform(70, LayerCost::default());
        for i in 1..=70 {
            let c = varied.layer_mut(LayerId(i));
            c.output_grad = rng.gen_range(0..3);
            c.weight_grad = rng.gen_range(0..3);
            c.sync_weight = rng.gen_range(0..6);
        }
        let mut spiky = TableCost::uniform(24, LayerCost::default());
        for i in 1..=24 {
            *spiky.layer_mut(LayerId(i)) = LayerCost {
                forward: rng.gen_range(0..4),
                output_grad: rng.gen_range(0..4),
                weight_grad: rng.gen_range(0..3),
                update: rng.gen_range(0..2),
                sync_weight: rng.gen_range(0..8),
                sync_output: 0,
                activation_bytes: rng.gen_range(1..4),
                out_grad_bytes: rng.gen_range(1..4),
                weight_bytes: rng.gen_range(1..12),
            };
        }
        let cases = [
            (
                TrainGraph::data_parallel(12),
                sync_heavy(12),
                [0, 4, 12],
                [3, 8],
            ),
            (TrainGraph::data_parallel(70), varied, [0, 9, 70], [9, 9]),
            (TrainGraph::data_parallel(24), spiky, [0, 6, 24], [6, 12]),
            (
                TrainGraph::single_gpu(12),
                sync_heavy(12),
                [0, 4, 12],
                [0, 0],
            ),
        ];
        let mut out = Vec::new();
        for (graph, cost, ks, splits) in cases {
            let reverse = ks.map(|k| reverse_first_k(&graph, k, None::<(u64, &TableCost)>));
            let mut starts: Vec<Vec<Op>> = reverse.into_iter().map(|o| o.unwrap()).collect();
            if graph.contains(Op::SyncWeightGrad(LayerId(1))) {
                starts.extend(splits.map(|k| combined_backward_order(&graph, k).unwrap()));
                starts.dedup();
            }
            let mut walk = starts[0].clone();
            for _ in 0..8 {
                let (from, to) = (rng.gen_range(0..walk.len()), rng.gen_range(0..walk.len()));
                let next = OrderSpace::<TableCost>::relocated(&walk, from, to);
                let policy = CommPolicy::FifoCompletion;
                if walk[from].is_weight_grad()
                    && datapar_schedule(&graph, &next, &cost, policy).is_ok()
                {
                    walk = next;
                }
            }
            starts.push(walk);
            out.push((graph, cost, starts));
        }
        out
    }

    /// The order space of `graph` under `policy` and `memory_cap`, with no
    /// k-jumps and no window.
    fn space<'g>(
        graph: &'g TrainGraph,
        cost: &'g TableCost,
        policy: CommPolicy,
        memory_cap: Option<MemoryCap>,
    ) -> OrderSpace<'g, TableCost> {
        let order = reverse_first_k(graph, 0, None::<(u64, &TableCost)>).unwrap();
        let realized = datapar_schedule(graph, &order, cost, policy).unwrap();
        OrderSpace {
            graph,
            cost,
            policy,
            family: KFamily::None,
            verifier: Verifier::new(graph).with_cost(cost),
            window: None,
            memory_cap,
            k_jumps: OnceLock::new(),
            chain: chain_of(graph, cost, &realized, order.len()),
        }
    }

    /// Runs `check` on every start state of [`relocation_cases`] under
    /// both policies, with its uncapped space, its realized schedule and
    /// the relocations to check: every one, or with `sample` a seeded
    /// sample of 100 beyond 12 layers.
    fn each_start(
        sample: bool,
        mut check: impl FnMut(&OrderSpace<'_, TableCost>, &OrderState, &Schedule, &[(Op, usize, usize)]),
    ) {
        let mut rng = StdRng::seed_from_u64(26);
        for (graph, cost, starts) in &relocation_cases() {
            for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                let space = space(graph, cost, policy, None);
                for order in starts {
                    let state = OrderState {
                        order: order.clone(),
                        k: None,
                    };
                    let realized = datapar_schedule(graph, order, cost, policy).unwrap();
                    let mut moves: Vec<(Op, usize, usize)> = (space.moves(&state).into_iter())
                        .filter_map(|mv| match mv {
                            OrderMove::Relocate { op, from, to } => Some((op, from, to)),
                            OrderMove::KJump(_) => None,
                        })
                        .collect();
                    if sample && graph.layers() > 12 {
                        moves = (0..100)
                            .map(|_| moves[rng.gen_range(0..moves.len())])
                            .collect();
                    }
                    check(&space, &state, &realized, &moves);
                }
            }
        }
    }

    /// The caps a test tries on a start state whose ledger is `base`:
    /// below the carried-in floor, at it, and through the peaks' range —
    /// every byte of a small range, about 8 steps of a larger one.
    fn caps(base: &MemLedger) -> impl Iterator<Item = u64> {
        let step = ((base.peak + 3 - base.initial) / 8).max(1);
        std::iter::once(base.initial - 1)
            .chain((base.initial..=base.peak + 2).step_by(step as usize))
    }

    /// The full-realization reference of moving the `dW` at `from` to
    /// `to`: the relocated order's realized schedule, its prediction and
    /// its ledger peak, or `None` when it does not realize or evaluate.
    fn realized(
        space: &OrderSpace<'_, TableCost>,
        order: &[Op],
        (from, to): (usize, usize),
    ) -> Option<(Schedule, ooo_verify::predict::Prediction, u64)> {
        let (graph, cost) = (space.graph, space.cost);
        let relocated = OrderSpace::<TableCost>::relocated(order, from, to);
        let s = datapar_schedule(graph, &relocated, cost, space.policy).ok()?;
        let prediction = predict_makespan(graph, &s, cost).ok()?;
        let peak = schedule_peak(graph, &s, cost).ok()?;
        Some((s, prediction, peak))
    }

    #[test]
    fn k_jump_beats_conventional_order_under_heavy_sync() {
        let l = 8;
        let graph = TrainGraph::data_parallel(l);
        let cost = sync_heavy(l);
        let base = reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
        let tuned = tune_backward_order(
            &graph,
            &base,
            Some(0),
            &cost,
            CommPolicy::PriorityByLayer,
            KFamily::ReverseFirstK,
            &TuneOptions::default(),
        )
        .unwrap();
        assert!(tuned.improved(), "sync-heavy k=0 must be improvable");
        let certified =
            certify_order(&graph, &tuned.order, &cost, CommPolicy::PriorityByLayer).unwrap();
        assert_eq!(certified, tuned.predicted);
    }

    /// Every relocation from every start state of [`relocation_cases`]
    /// (a seeded sample on 24 and 70 layers), under both policies: the
    /// closed-form score is exactly the predicted makespan of
    /// `datapar_schedule` of the relocated order, `None` (a deadlock or
    /// an invalid order) included. From every start state some
    /// relocations deadlock and, when the graph syncs, some reorder the
    /// link lane.
    #[test]
    fn relocation_probe_equals_realizing_the_relocated_order() {
        each_start(true, |space, state, incumbent, moves| {
            let mut sc = space.scorer(state);
            let (mut reordered, mut deadlocked) = (0, 0);
            for &(op, from, to) in moves {
                let at = format!(
                    "{:?} l={}: {op} {from} -> {to}",
                    space.policy,
                    space.graph.layers()
                );
                let mv = OrderMove::Relocate { op, from, to };
                let want = realized(space, &state.order, (from, to));
                let m = want.as_ref().map(|(_, p, _)| p.makespan());
                assert_eq!(space.score(&mut sc, state, &mv, SimTime::MAX), m, "{at}");
                let link = |s: &Schedule| s.lanes.get(1).map(|lane| lane.ops.clone());
                reordered += usize::from(want.is_some_and(|(s, ..)| link(&s) != link(incumbent)));
                deadlocked += usize::from(m.is_none());
            }
            let synced = space.graph.contains(Op::SyncWeightGrad(LayerId(1)));
            assert!(
                (reordered > 0) == synced && deadlocked > 0,
                "{:?}: {reordered} reordered, {deadlocked} deadlocked",
                state.order
            );
        });
    }

    /// Every op time a capped search sweeps a relocation's peak over is
    /// exactly the prediction's for the realized relocated order, and the
    /// swept peak ([`ooo_verify::mem::PeakSweep`]) is exactly that
    /// order's ledger peak, over every relocation from every start state
    /// of [`relocation_cases`] (a seeded sample on 24 and 70 layers) under
    /// both policies (a deadlock reads no peak and realizes none). The
    /// capped scores built on that peak are checked, cap by cap, by
    /// `pruned_relocation_scores_equal_the_unpruned_probe`.
    #[test]
    fn relocation_sweep_peak_equals_the_realized_ledger_peak() {
        use ooo_verify::mem::PeakSweep;
        each_start(true, |plain, state, incumbent, moves| {
            let (graph, cost) = (plain.graph, plain.cost);
            let base = schedule_peak(graph, incumbent, cost).unwrap();
            let sweep = PeakSweep::new(graph, cost, incumbent);
            let (mut sc, mut events, mut moved) = (plain.scorer(state), PeakEvents::default(), 0);
            for &(op, from, to) in moves {
                let at = format!(
                    "{:?} l={}: {op} {from} -> {to}",
                    plain.policy,
                    graph.layers()
                );
                let want = realized(plain, &state.order, (from, to));
                let swept =
                    (plain.relocated_makespan(&mut sc, &state.order, (op, from, to), SimTime::MAX))
                        .map(|_| {
                            plain.relocated_spans(&mut sc, &state.order, from, to);
                            sweep.peak(|v| sc.spans[v], &mut events)
                        });
                assert_eq!(swept, want.as_ref().map(|&(.., p)| p), "{at}");
                for o in want.iter().flat_map(|(_, p, _)| p.ops()) {
                    let v = graph.op_index(o.op).unwrap();
                    assert_eq!(sc.spans[v], (o.start, o.end), "{at}: {}", o.op);
                }
                moved += usize::from(want.is_some_and(|(.., p)| p != base));
            }
            assert!(
                moved > 0,
                "{:?}: every relocation keeps the peak",
                state.order
            );
        });
    }

    /// Dropping an order relocation early never changes a score: over
    /// every relocation from every start state of [`relocation_cases`] (a
    /// seeded sample on 24 and 70 layers) under both policies, uncapped
    /// and under every cap from below the carried-in floor through the
    /// peaks, and at cutoffs around the incumbent's score,
    /// [`OrderSpace::score`] equals [`capped_below`] of the relocated
    /// order's realized makespan and ledger peak. Some relocations are
    /// dropped at the incumbent's score.
    #[test]
    fn pruned_relocation_scores_equal_the_unpruned_probe() {
        let mut dropped = 0;
        each_start(true, |plain, state, incumbent, moves| {
            let (graph, cost) = (plain.graph, plain.cost);
            let base = ledger_of_schedule(graph, incumbent, cost).unwrap();
            let raw = predict_makespan(graph, incumbent, cost).unwrap().makespan();
            let mut sc = plain.scorer(state);
            let moves: Vec<_> = (moves.iter())
                .map(|&(op, from, to)| {
                    let want = realized(plain, &state.order, (from, to));
                    (
                        OrderMove::Relocate { op, from, to },
                        want.map(|(_, m, p)| (m.makespan(), p)),
                    )
                })
                .collect();
            for bytes in std::iter::once(None).chain(caps(&base).map(Some)) {
                let (cap, inc) =
                    MemoryCap::of_baseline(graph, cost, incumbent, bytes, raw).unwrap();
                let capped = space(graph, cost, plain.policy, cap);
                for cutoff in [inc - 1, inc, inc + 1, SimTime::MAX] {
                    for (mv, want) in &moves {
                        let pruned = capped.score(&mut sc, state, mv, cutoff);
                        let unpruned =
                            want.and_then(|(m, p)| capped_below(m, cutoff, bytes, || Some(p)));
                        let OrderMove::Relocate { op, from, to } = mv else {
                            unreachable!()
                        };
                        assert_eq!(
                            pruned,
                            unpruned,
                            "{:?} l={} cap {bytes:?} cutoff {cutoff}: {op} {from} -> {to}",
                            plain.policy,
                            graph.layers()
                        );
                        dropped += usize::from(cutoff == raw && pruned.is_none() && want.is_some());
                    }
                }
            }
        });
        assert!(dropped > 0, "no relocation is dropped");
    }

    /// The resumed, early-dropping link plan of
    /// [`OrderSpace::relocated_makespan`] against planning each relocated
    /// order from scratch, on every relocation from every start state of
    /// [`relocation_cases`] under both policies, at random cutoffs around
    /// the makespan read off that plan (`C` without a link lane). A
    /// relocation whose order does not realize is `None`; any other is
    /// dropped exactly when the from-scratch makespan reaches the cutoff,
    /// and otherwise returns it.
    #[test]
    fn resumed_relocation_batches_equal_the_from_scratch_plan() {
        use ooo_core::datapar::plan_sync_service;
        let mut rng = StdRng::seed_from_u64(22);
        let (mut planner, mut plan) = (SyncPlanner::default(), Vec::new());
        let (mut dropped, mut kept) = (0, 0);
        each_start(false, |space, state, incumbent, moves| {
            let (graph, cost) = (space.graph, space.cost);
            let compute = incumbent.lanes[0]
                .ops
                .iter()
                .map(|&o| cost.duration(o))
                .sum();
            let mut sc = space.scorer(state);
            for &(op, from, to) in moves {
                let relocated = OrderSpace::<TableCost>::relocated(&state.order, from, to);
                let (mut t, mut dw) = (0, vec![0; graph.layers() + 1]);
                for &o in &relocated {
                    t += cost.duration(o);
                    if let Op::WeightGrad(LayerId(i)) = o {
                        dw[i] = t;
                    }
                }
                plan.clear();
                if graph.contains(Op::SyncWeightGrad(LayerId(1))) {
                    plan_sync_service(
                        &dw,
                        space.policy,
                        |i| space.sync_ns(i),
                        &mut planner,
                        &mut plan,
                    );
                }
                let ends = plan.iter().map(|&(pick, _, end)| end + sc.after_sync[pick]);
                let makespan = ends.fold(compute, SimTime::max);
                let cutoff = rng.gen_range(makespan.saturating_sub(3)..makespan + 4);
                let got = space.relocated_makespan(&mut sc, &state.order, (op, from, to), cutoff);
                let at = format!(
                    "{:?} l={} cutoff {cutoff}: {op} {from} -> {to}",
                    space.policy,
                    graph.layers()
                );
                if datapar_schedule(graph, &relocated, cost, space.policy).is_err() {
                    assert_eq!(got, None, "{at}");
                } else if makespan >= cutoff {
                    assert_eq!(got, None, "{at}: makespan {makespan}");
                    dropped += 1;
                } else {
                    assert_eq!(got, Some(makespan), "{at}");
                    kept += 1;
                }
            }
        });
        assert!(dropped > 0 && kept > 0, "{dropped} dropped, {kept} kept");
    }

    #[test]
    fn best_reverse_k_matches_brute_force_simulation() {
        let l = 6;
        let graph = TrainGraph::data_parallel(l);
        let cost = sync_heavy(l);
        let reverse = |k| reverse_first_k(&graph, k, None::<(u64, &TableCost)>);
        let (k, m) = best_k(&graph, &cost, CommPolicy::FifoCompletion, reverse).unwrap();
        let mut sim_best = SimTime::MAX;
        for kk in 0..=l {
            let order = reverse_first_k(&graph, kk, None::<(u64, &TableCost)>).unwrap();
            let s = simulate_data_parallel(&graph, &order, &cost, CommPolicy::FifoCompletion)
                .unwrap()
                .makespan();
            sim_best = sim_best.min(s);
        }
        assert_eq!(m, sim_best);
        assert!(k <= l);
    }
}
