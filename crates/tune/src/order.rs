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
//! [`ooo_verify::predict::datapar_schedule`]: a relocation is one
//! [`DeltaEval::probe`] of the incumbent's realization (under a memory
//! cap, its peak is read off the probed times), k-jumps are realized
//! once per run; the safety gate verifies that same reconstruction. A
//! relocation plans its candidate's link service before any probe, and
//! that plan is the realized candidate's exact `S[dW]` times: each
//! sync's finish plus the compute-lane tail that waits on it (never
//! moved by a relocation) bounds the candidate's makespan from below,
//! so a relocation whose bound already reaches the score to beat is
//! dropped unprobed. The plan is not made from scratch: the scorer
//! records the incumbent's plan with the planner's state before every
//! step ([`SyncTrail`]), a relocation resumes it at the first step that
//! starts at or after the earliest `dW` finish it changes, and the
//! running bound drops the move at the step where it reaches the score
//! to beat.

use crate::{
    local_search, probe_capped, raw_cutoff, AppliedMove, Error, Jump, MemoryCap, Result,
    SearchSpace, TuneOptions, SEARCH_STATES_EVALUATE,
};
use ooo_core::cost::CostModel;
use ooo_core::datapar::{simulate_data_parallel, CommPolicy, SyncPlanner, SyncTrail};
use ooo_core::op::LayerId;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_verify::mem::{schedule_peak, PeakEvents};
use ooo_verify::predict::{datapar_schedule, predict_makespan, DeltaEval};
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
    /// Per layer `i`, the compute-lane time after `S[dW_i]` finishes
    /// ([`link_tail`]); no relocation moves it, so it is set on the first
    /// scan.
    link_tail: OnceLock<Vec<SimTime>>,
}

/// The incumbent's scoring context: its realized schedule's evaluator
/// plus what it takes to turn a relocation into one probe batch.
struct OrderScorer<'g> {
    de: DeltaEval<'g>,
    /// Sequential finish time of each backward position.
    finish: Vec<SimTime>,
    /// Sequential finish of each layer's `dW` (index 0 unused).
    dw_finish: Vec<SimTime>,
    /// The link lane and the incumbent's link plan, recorded with the
    /// planner's state before every step so a candidate resumes it, when
    /// the graph syncs.
    link: Option<(usize, SyncTrail)>,
    /// `reach[s]`: the largest `end + tail[layer]` over the incumbent
    /// plan's first `s` steps — a candidate's bound on the steps it
    /// shares (one entry, 0, without a link lane).
    reach: Vec<SimTime>,
    /// The search's [`link_tail`].
    tail: Vec<SimTime>,
    /// Work state for a candidate: its `dw_finish`, the link planner it
    /// resumes, its probe batch, and the events a capped search reads
    /// its peak with.
    buf: Vec<SimTime>,
    planner: SyncPlanner,
    batch: Vec<(Op, usize, usize)>,
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

    /// Fills the scorer's batch with the relocation as one probe batch
    /// on the incumbent's [`DeltaEval`], with no allocation, unless its
    /// link plan's bound reaches `cutoff` (the [`raw_cutoff`]). The
    /// realized schedule of the relocated order runs the incumbent's
    /// compute lane with one `dW` moved, and a link lane planned from the
    /// shifted `dW` finish times, which are computed here from the
    /// incumbent's without realizing the candidate. The batch is that
    /// compute-lane move plus each `S[dW]` whose service position
    /// changed, at its new position: the unmoved syncs keep their slots,
    /// and the batch inserts in ascending position, so the probed link
    /// lane is the candidate's, and probing it gives the exact
    /// predictor's times on the identical realized schedule.
    ///
    /// The link plan is the incumbent's up to the first step that starts
    /// at or after `t0`, the earliest old or new finish of a `dW` the
    /// move shifts: every earlier step admitted only unshifted layers. So
    /// the candidate [`SyncPlanner::resume`]s the incumbent's recorded
    /// plan there and steps on from it.
    ///
    /// Returns a lower bound on the candidate's makespan read off its
    /// link plan: each planned `(layer, start, end)` is the realized
    /// candidate's exact `S[dW_i]` interval, and the compute-lane tail
    /// that waits on it ([`link_tail`]) runs after it, unmoved — so
    /// `max_i(end_i + tail_i)` (0 without a link lane). The running
    /// maximum only grows, so the move is dropped with `None` at the
    /// first step (the incumbent's shared steps count as one) where it
    /// reaches `cutoff`, before the rest of the plan or the batch is
    /// built: exactly the moves whose whole-plan bound reaches it. A `dW`
    /// moved past one of its own dependencies or dependents on its lane
    /// ([`passes_own_edge`]) leaves the batch empty and returns `None`
    /// before any planning: its probe would deadlock.
    fn relocation_batch(
        &self,
        sc: &mut OrderScorer<'_>,
        order: &[Op],
        (op, from, to): (Op, usize, usize),
        cutoff: SimTime,
    ) -> Option<SimTime> {
        let OrderScorer {
            de,
            finish,
            dw_finish,
            link,
            reach,
            tail,
            buf,
            planner,
            batch,
            ..
        } = sc;
        let (lane, _) = de.position_of(op).expect("dW is scheduled");
        batch.clear();
        if passes_own_edge(self.graph, de, op, (lane, from), to) {
            return None;
        }
        batch.push((op, lane, to));
        let Some((link_lane, trail)) = link else {
            // No link lane: the bound is 0.
            return (0 < cutoff).then_some(0);
        };
        let d = self.cost.duration(op);
        let (shifted, own) = if from < to {
            (from + 1..to + 1, finish[to])
        } else {
            (to..from, to.checked_sub(1).map_or(0, |p| finish[p]) + d)
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
        let mut bound = reach[first];
        if bound >= cutoff {
            return None;
        }
        planner.resume(trail, first, buf);
        for (pos, &(old, _, _)) in trail.service().iter().enumerate().skip(first) {
            let (pick, _, end) = planner
                .step(buf, self.policy, |i| self.sync_ns(i))
                .expect("one step per layer");
            bound = bound.max(end + tail[pick]);
            if bound >= cutoff {
                return None;
            }
            if pick != old {
                batch.push((Op::SyncWeightGrad(LayerId(pick)), *link_lane, pos));
            }
        }
        Some(bound)
    }
}

impl<'g, C: CostModel + Sync> SearchSpace for OrderSpace<'g, C> {
    type State = OrderState;
    type Move = OrderMove;
    type Scorer = OrderScorer<'g>;

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

    fn scorer(&self, state: &OrderState) -> OrderScorer<'g> {
        let s0 = datapar_schedule(self.graph, &state.order, self.cost, self.policy)
            .expect(SEARCH_STATES_EVALUATE);
        let tail = self.link_tail.get_or_init(|| {
            let compute = &s0.lanes[0].ops[state.order.len()..];
            link_tail(self.graph, self.cost, compute)
        });
        let de = DeltaEval::new(self.graph, &s0, self.cost).expect(SEARCH_STATES_EVALUATE);
        let mut t: SimTime = 0;
        let finish: Vec<SimTime> = state
            .order
            .iter()
            .map(|&op| {
                t += self.cost.duration(op);
                t
            })
            .collect();
        let mut dw_finish = vec![0; self.graph.layers() + 1];
        for (&op, &f) in state.order.iter().zip(&finish) {
            if let Op::WeightGrad(LayerId(i)) = op {
                dw_finish[i] = f;
            }
        }
        let mut planner = SyncPlanner::default();
        let link = de
            .position_of(Op::SyncWeightGrad(LayerId(1)))
            .map(|(lane, _)| {
                let mut trail = SyncTrail::default();
                planner.record(&dw_finish, self.policy, |i| self.sync_ns(i), &mut trail);
                (lane, trail)
            });
        let mut reach = vec![0];
        for &(pick, _, end) in link.iter().flat_map(|(_, trail)| trail.service()) {
            reach.push(reach[reach.len() - 1].max(end + tail[pick]));
        }
        OrderScorer {
            de,
            finish,
            dw_finish,
            link,
            reach,
            tail: tail.clone(),
            buf: Vec::new(),
            planner,
            batch: Vec::new(),
            events: PeakEvents::default(),
        }
    }

    /// k-jumps carry their scores from the k-jump table, under a memory
    /// cap realizing a target for its ledger the first time its raw
    /// makespan is below the cutoff; relocations are one
    /// [`probe_capped`] batch ([`OrderSpace::relocation_batch`]), unless
    /// the batch's link-plan bound already reaches the [`raw_cutoff`].
    fn score(
        &self,
        sc: &mut OrderScorer<'g>,
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
                self.relocation_batch(sc, &state.order, (op, from, to), raw)?;
                probe_capped(&mut sc.de, &sc.batch, cutoff, cap, &mut sc.events)
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
        link_tail: OnceLock::new(),
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

/// Exhaustive predictor sweep over every combined split depth `k`:
/// returns the `(k, makespan)` minimizing the predicted makespan (ties
/// to the smallest `k`). This is the tuner's k-move restricted to the
/// combined family — the hybrid engine's exact alternative to the
/// concave [`ooo_core::combined::choose_split_k`] heuristic.
///
/// # Errors
///
/// Propagates order-construction and prediction errors.
pub fn best_combined_k<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    policy: CommPolicy,
) -> Result<(usize, SimTime)> {
    let mut best: Option<(SimTime, usize)> = None;
    for k in 0..=graph.layers() {
        let order = ooo_core::combined::combined_backward_order(graph, k)?;
        let s = datapar_schedule(graph, &order, cost, policy)?;
        let m = predict_makespan(graph, &s, cost)?.makespan();
        if best.is_none_or(|(bm, _)| m < bm) {
            best = Some((m, k));
        }
    }
    let (m, k) = best.expect("graphs have at least one layer");
    Ok((k, m))
}

/// Exhaustive predictor sweep over every reverse-first-k depth:
/// returns the `(k, makespan)` minimizing the predicted makespan (ties
/// to the smallest `k`).
///
/// # Errors
///
/// Propagates order-construction and prediction errors.
pub fn best_reverse_k<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    policy: CommPolicy,
) -> Result<(usize, SimTime)> {
    let mut best: Option<(SimTime, usize)> = None;
    for k in 0..=graph.layers() {
        let order = ooo_core::reverse_k::reverse_first_k(graph, k, None::<(u64, &C)>)?;
        let s = datapar_schedule(graph, &order, cost, policy)?;
        let m = predict_makespan(graph, &s, cost)?.makespan();
        if best.is_none_or(|(bm, _)| m < bm) {
            best = Some((m, k));
        }
    }
    let (m, k) = best.expect("graphs have at least one layer");
    Ok((k, m))
}

/// Per layer `i` (index 0 unused), the duration of the realized compute
/// lane from the first op of `compute` — the ops after the backward
/// order — that depends on `S[dW_i]` through the lane's end: the time
/// the lane still runs after `S[dW_i]` finishes, 0 when no op waits on
/// it.
fn link_tail<C: CostModel>(graph: &TrainGraph, cost: &C, compute: &[Op]) -> Vec<SimTime> {
    let mut tail = vec![0; graph.layers() + 1];
    let mut suffix = 0;
    for &op in compute.iter().rev() {
        suffix += cost.duration(op);
        let v = graph.op_index(op).expect("realized ops are in the graph");
        for &d in graph.dep_indices(v) {
            if let Op::SyncWeightGrad(LayerId(i)) = graph.ops()[d] {
                tail[i] = suffix;
            }
        }
    }
    tail
}

/// `true` when moving `op` within its lane from `(lane, from)` to
/// position `to` (remove, then insert at `to`) places it before one of
/// its own dependencies or after one of its own dependents on that lane.
/// Such a move deadlocks the lanes, so its probe would fail; this reads
/// the answer off the evaluator's positions in O(degree).
fn passes_own_edge(
    graph: &TrainGraph,
    de: &DeltaEval<'_>,
    op: Op,
    (lane, from): (usize, usize),
    to: usize,
) -> bool {
    let v = graph.op_index(op).expect("movers are in the graph");
    let (passed, between) = if to < from {
        (graph.dep_indices(v), to..from)
    } else {
        (graph.dependent_indices(v), from + 1..to + 1)
    };
    passed.iter().any(|&w| {
        de.position_of(graph.ops()[w])
            .is_some_and(|(l, p)| l == lane && between.contains(&p))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost};
    use ooo_core::reverse_k::reverse_first_k;

    fn sync_heavy(l: usize) -> TableCost {
        TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                ..LayerCost::default()
            },
        )
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

    /// Every relocation of the 12-layer order under sync 3, from three
    /// reverse-first-k states and under both policies: the one-batch
    /// probe scores exactly what realizing the relocated order and a full
    /// prediction give, `None` (a deadlock or an invalid order) included.
    /// Some relocations reorder the link lane and some deadlock (each of
    /// those is scored out by [`passes_own_edge`] before any probe), so
    /// both halves of the batch and the deadlock rejection are exercised.
    #[test]
    fn relocation_probe_equals_realizing_the_relocated_order() {
        let inst = ooo_core::reverse_k::order_instance(12, 0, 3).unwrap();
        for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            let space = OrderSpace {
                graph: &inst.graph,
                cost: &inst.cost,
                policy,
                family: KFamily::None,
                verifier: Verifier::new(&inst.graph).with_cost(&inst.cost),
                window: None,
                memory_cap: None,
                k_jumps: OnceLock::new(),
                link_tail: OnceLock::new(),
            };
            let (mut reordered, mut unprobed) = (0, 0);
            for k in [0, 4, 12] {
                let state = OrderState {
                    order: reverse_first_k(&inst.graph, k, None::<(u64, &TableCost)>).unwrap(),
                    k: Some(k),
                };
                let mut sc = space.scorer(&state);
                for mv in space.moves(&state) {
                    let OrderMove::Relocate { op, from, to } = mv else {
                        continue;
                    };
                    let probed = space.score(&mut sc, &state, &mv, SimTime::MAX);
                    let relocated = OrderSpace::<TableCost>::relocated(&state.order, from, to);
                    assert_eq!(
                        probed,
                        space.realize(&relocated),
                        "{policy:?} k={k}: {op} {from} -> {to}"
                    );
                    reordered += usize::from(sc.batch.len() > 1);
                    unprobed += usize::from(sc.batch.is_empty());
                }
            }
            assert!(
                reordered > 0 && unprobed > 0,
                "{policy:?}: {reordered} reordered, {unprobed} unprobed"
            );
        }
    }

    /// The peak a capped search reads off a relocation's probed times
    /// ([`ooo_verify::mem::PeakSweep`]) is exactly the ledger peak of the
    /// realized relocated order, over every relocation of the 12-layer
    /// order under sync 3 from three reverse-first-k states and under
    /// both policies (a deadlock reads no peak and realizes none). And a
    /// capped score is the raw makespan plus the penalty exactly when
    /// that peak is over the cap, for caps below the carried-in floor
    /// (settled without a sweep), at it, and through the peaks' range.
    #[test]
    fn relocation_sweep_peak_equals_the_realized_ledger_peak() {
        use ooo_verify::mem::{ledger_of_schedule, PeakSweep};
        let inst = ooo_core::reverse_k::order_instance(12, 0, 3).unwrap();
        let (graph, cost) = (&inst.graph, &inst.cost);
        for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            for k in [0, 4, 12] {
                let order = reverse_first_k(graph, k, None::<(u64, &TableCost)>).unwrap();
                let realized = datapar_schedule(graph, &order, cost, policy).unwrap();
                let base = ledger_of_schedule(graph, &realized, cost).unwrap();
                let raw = predict_makespan(graph, &realized, cost).unwrap().makespan();
                let sweep = PeakSweep::new(graph, cost, &realized);
                let state = OrderState { order, k: Some(k) };
                let space = |memory_cap| OrderSpace {
                    graph,
                    cost,
                    policy,
                    family: KFamily::None,
                    verifier: Verifier::new(graph).with_cost(cost),
                    window: None,
                    memory_cap,
                    k_jumps: OnceLock::new(),
                    link_tail: OnceLock::new(),
                };
                let caps: Vec<(OrderSpace<'_, TableCost>, u64)> = (base.initial - 1
                    ..=base.peak + 2)
                    .map(|bytes| {
                        let cap = MemoryCap::of_baseline(graph, cost, &realized, Some(bytes), raw);
                        (space(cap.unwrap().0), bytes)
                    })
                    .collect();
                let plain = space(None);
                let mut sc = plain.scorer(&state);
                let mut events = PeakEvents::default();
                let mut peaks = Vec::new();
                for mv in plain.moves(&state) {
                    let OrderMove::Relocate { op, from, to } = mv else {
                        continue;
                    };
                    let relocated = OrderSpace::<TableCost>::relocated(&state.order, from, to);
                    let want = datapar_schedule(graph, &relocated, cost, policy)
                        .and_then(|s| schedule_peak(graph, &s, cost))
                        .ok();
                    let batch =
                        plain.relocation_batch(&mut sc, &state.order, (op, from, to), SimTime::MAX);
                    let swept = if batch.is_some() {
                        sc.de
                            .probe_with(&sc.batch, |de, _| {
                                sweep.peak(|v| de.span_at(v), &mut events)
                            })
                            .ok()
                    } else {
                        None
                    };
                    assert_eq!(swept, want, "{policy:?} k={k}: {op} {from} -> {to}");
                    let raw = plain.score(&mut sc, &state, &mv, SimTime::MAX);
                    for (capped, bytes) in &caps {
                        let penalty = |p: u64| {
                            if p > *bytes {
                                crate::MEMORY_CAP_PENALTY
                            } else {
                                0
                            }
                        };
                        assert_eq!(
                            capped.score(&mut sc, &state, &mv, SimTime::MAX),
                            raw.zip(want).map(|(m, p)| m + penalty(p)),
                            "{policy:?} k={k} cap {bytes}: {op} {from} -> {to}"
                        );
                    }
                    peaks.extend(want);
                }
                assert!(
                    peaks.iter().any(|&p| p != base.peak),
                    "{policy:?} k={k}: every relocation keeps the peak"
                );
            }
        }
    }

    /// Dropping an order relocation unprobed never changes a score, and
    /// the link-plan bound never exceeds the probed makespan: over every
    /// relocation of the 12-layer order under sync 3, from three
    /// reverse-first-k states and under both policies, uncapped and under
    /// every cap from below the carried-in floor through the peaks, and at
    /// cutoffs around the incumbent's score, [`OrderSpace::score`] equals
    /// the batch's plain [`crate::probe_score`] with no pre-check. The
    /// link plan drops some relocations at the incumbent's makespan.
    #[test]
    fn pruned_relocation_scores_equal_the_unpruned_probe() {
        use ooo_verify::mem::ledger_of_schedule;
        let inst = ooo_core::reverse_k::order_instance(12, 0, 3).unwrap();
        let (graph, cost) = (&inst.graph, &inst.cost);
        let mut dropped = 0;
        for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
            let space = |memory_cap| OrderSpace {
                graph,
                cost,
                policy,
                family: KFamily::None,
                verifier: Verifier::new(graph).with_cost(cost),
                window: None,
                memory_cap,
                k_jumps: OnceLock::new(),
                link_tail: OnceLock::new(),
            };
            for k in [0, 4, 12] {
                let order = reverse_first_k(graph, k, None::<(u64, &TableCost)>).unwrap();
                let realized = datapar_schedule(graph, &order, cost, policy).unwrap();
                let base = ledger_of_schedule(graph, &realized, cost).unwrap();
                let raw = predict_makespan(graph, &realized, cost).unwrap().makespan();
                let state = OrderState { order, k: Some(k) };
                let plain = space(None);
                let mut sc = plain.scorer(&state);
                let moves: Vec<(Op, usize, usize)> = plain
                    .moves(&state)
                    .into_iter()
                    .filter_map(|mv| match mv {
                        OrderMove::Relocate { op, from, to } => Some((op, from, to)),
                        OrderMove::KJump(_) => None,
                    })
                    .collect();
                for &mv in &moves {
                    let Some(bound) =
                        plain.relocation_batch(&mut sc, &state.order, mv, SimTime::MAX)
                    else {
                        continue;
                    };
                    let probed = sc.de.probe(&sc.batch).unwrap();
                    assert!(
                        bound <= probed,
                        "{policy:?} k={k}: {mv:?}: {bound} > {probed}"
                    );
                    dropped += usize::from(bound >= raw);
                }
                let caps = (base.initial - 1..=base.peak + 2).map(Some);
                for bytes in std::iter::once(None).chain(caps) {
                    let (cap, inc) =
                        MemoryCap::of_baseline(graph, cost, &realized, bytes, raw).unwrap();
                    let capped = space(cap);
                    let mut events = PeakEvents::default();
                    for cutoff in [inc - 1, inc, inc + 1, SimTime::MAX] {
                        for &(op, from, to) in &moves {
                            let mv = OrderMove::Relocate { op, from, to };
                            let pruned = capped.score(&mut sc, &state, &mv, cutoff);
                            let cap = capped.memory_cap.as_ref();
                            let unpruned = capped
                                .relocation_batch(
                                    &mut sc,
                                    &state.order,
                                    (op, from, to),
                                    SimTime::MAX,
                                )
                                .and_then(|_| {
                                    crate::probe_score(
                                        &mut sc.de,
                                        &sc.batch,
                                        cutoff,
                                        cap,
                                        &mut events,
                                    )
                                });
                            assert_eq!(
                                pruned, unpruned,
                                "{policy:?} k={k} cap {bytes:?} cutoff {cutoff}: {op} {from} -> {to}"
                            );
                        }
                    }
                }
            }
        }
        assert!(dropped > 0, "the link plan drops no relocation");
    }

    /// The resumed, early-dropping link plan of
    /// [`OrderSpace::relocation_batch`] against planning each relocated
    /// order from scratch, under both policies, on the 12-layer sync-3
    /// order and on 70 layers (two ready-set words) with random per-layer
    /// `dO`, `dW` and sync durations from 0, from three reverse-first-k
    /// states each, at random cutoffs around each candidate's bound. A
    /// relocation past its own edge is `None` with an empty batch; any
    /// other is dropped exactly when the from-scratch bound reaches the
    /// cutoff, and otherwise returns that bound with the from-scratch
    /// batch: the compute move plus every sync at a changed service
    /// position.
    #[test]
    fn resumed_relocation_batches_equal_the_from_scratch_plan() {
        use ooo_core::datapar::plan_sync_service;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let mut varied = TableCost::uniform(70, LayerCost::default());
        for i in 1..=70 {
            let c = varied.layer_mut(LayerId(i));
            c.output_grad = rng.gen_range(0..3);
            c.weight_grad = rng.gen_range(0..3);
            c.sync_weight = rng.gen_range(0..6);
        }
        let cases = [
            (TrainGraph::data_parallel(12), sync_heavy(12), [0, 4, 12]),
            (TrainGraph::data_parallel(70), varied, [0, 9, 70]),
        ];
        let (mut planner, mut plan) = (SyncPlanner::default(), Vec::new());
        let (mut dropped, mut kept) = (0, 0);
        for (graph, cost, ks) in &cases {
            for policy in [CommPolicy::FifoCompletion, CommPolicy::PriorityByLayer] {
                let space = OrderSpace {
                    graph,
                    cost,
                    policy,
                    family: KFamily::None,
                    verifier: Verifier::new(graph).with_cost(cost),
                    window: None,
                    memory_cap: None,
                    k_jumps: OnceLock::new(),
                    link_tail: OnceLock::new(),
                };
                let sync_ns = |i: usize| space.sync_ns(i);
                for &k in ks {
                    let order = reverse_first_k(graph, k, None::<(u64, &TableCost)>).unwrap();
                    let state = OrderState { order, k: Some(k) };
                    let mut sc = space.scorer(&state);
                    let link_lane = sc.de.position_of(Op::SyncWeightGrad(LayerId(1))).unwrap().0;
                    let dw_of = |order: &[Op]| {
                        let (mut t, mut dw) = (0, vec![0; graph.layers() + 1]);
                        for &op in order {
                            t += cost.duration(op);
                            if let Op::WeightGrad(LayerId(i)) = op {
                                dw[i] = t;
                            }
                        }
                        dw
                    };
                    plan_sync_service(
                        &dw_of(&state.order),
                        policy,
                        sync_ns,
                        &mut planner,
                        &mut plan,
                    );
                    let incumbent: Vec<usize> = plan.iter().map(|&(pick, _, _)| pick).collect();
                    for mv in space.moves(&state) {
                        let OrderMove::Relocate { op, from, to } = mv else {
                            continue;
                        };
                        let relocated = OrderSpace::<TableCost>::relocated(&state.order, from, to);
                        plan_sync_service(
                            &dw_of(&relocated),
                            policy,
                            sync_ns,
                            &mut planner,
                            &mut plan,
                        );
                        let ends = plan.iter().map(|&(pick, _, end)| end + sc.tail[pick]);
                        let bound = ends.max().unwrap();
                        let lane = sc.de.position_of(op).unwrap().0;
                        let mut batch = vec![(op, lane, to)];
                        for (pos, (&(pick, _, _), &old)) in plan.iter().zip(&incumbent).enumerate()
                        {
                            if pick != old {
                                batch.push((Op::SyncWeightGrad(LayerId(pick)), link_lane, pos));
                            }
                        }
                        let cutoff = rng.gen_range(bound.saturating_sub(3)..bound + 4);
                        let got =
                            space.relocation_batch(&mut sc, &state.order, (op, from, to), cutoff);
                        let at = format!(
                            "{policy:?} l={} k={k} cutoff {cutoff}: {op} {from} -> {to}",
                            graph.layers()
                        );
                        if passes_own_edge(graph, &sc.de, op, (lane, from), to) {
                            assert_eq!((got, sc.batch.len()), (None, 0), "{at}");
                        } else if bound >= cutoff {
                            assert_eq!(got, None, "{at}: bound {bound}");
                            dropped += 1;
                        } else {
                            assert_eq!(got, Some(bound), "{at}");
                            assert_eq!(sc.batch, batch, "{at}");
                            kept += 1;
                        }
                    }
                }
            }
        }
        assert!(dropped > 0 && kept > 0, "{dropped} dropped, {kept} kept");
    }

    #[test]
    fn best_reverse_k_matches_brute_force_simulation() {
        let l = 6;
        let graph = TrainGraph::data_parallel(l);
        let cost = sync_heavy(l);
        let (k, m) = best_reverse_k(&graph, &cost, CommPolicy::FifoCompletion).unwrap();
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
