//! Tuning op-level pipeline-parallel schedules.
//!
//! [`tune_pipeline`] starts from a strategy's op-level schedule
//! ([`ooo_core::pipeline::op_level_schedule`]) and searches two move
//! families: `dW`-class relocations *within* a device lane (an op may
//! not change devices — the layer allocation is fixed by the strategy),
//! and *regrouping* — replacing the whole schedule by the same
//! strategy's rendering under a different modulo group, the knob behind
//! OOO-Pipe2's modulo allocation. For strategies whose allocation
//! ignores the group the regroup moves are no-ops and greedy descent
//! simply never accepts them.

use crate::{
    local_search, schedule_relocations, score_relocation, AppliedMove, Error, Jump, MemoryCap,
    Relocation, RelocationScorer, Result, SearchSpace, TuneOptions,
};
use ooo_core::cost::CostModel;
use ooo_core::pipeline::{op_level_schedule, Strategy};
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use ooo_verify::predict::predict_makespan;
use ooo_verify::Verifier;
use std::sync::OnceLock;

/// The outcome of tuning one op-level pipeline schedule.
#[derive(Debug, Clone)]
pub struct TunedPipeline {
    /// The (group-independent) pipeline dependency graph.
    pub graph: TrainGraph,
    /// The tuned schedule.
    pub schedule: Schedule,
    /// The modulo group of the final schedule.
    pub group: usize,
    /// Predicted makespan of the input schedule.
    pub baseline: SimTime,
    /// Predicted makespan of the tuned schedule.
    pub predicted: SimTime,
    /// Static ledger peak of the tuned schedule; populated iff
    /// [`TuneOptions::memory_cap`] was set.
    pub peak: Option<u64>,
    /// The accepted move trajectory.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl TunedPipeline {
    /// `true` when the tuner strictly beat the baseline.
    pub fn improved(&self) -> bool {
        self.predicted < self.baseline
    }
}

#[derive(Clone)]
struct PipeState {
    schedule: Schedule,
    group: usize,
}

/// A candidate move of the pipeline space.
enum PipeMove {
    /// Jump to entry `i` of the regroup table.
    Regroup(usize),
    /// An in-lane `dW`-class relocation.
    Relocate(Relocation),
}

struct PipeSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    verifier: Verifier<'g, &'g C>,
    layers: usize,
    devices: usize,
    strategy: Strategy,
    window: Option<usize>,
    memory_cap: Option<MemoryCap>,
    regroups: OnceLock<Vec<Jump<Schedule>>>,
}

impl<C: CostModel> PipeSpace<'_, C> {
    /// The strategy rendered under every modulo group, each scored once,
    /// on the first neighborhood scan that needs them.
    fn regroups(&self) -> &[Jump<Schedule>] {
        self.regroups.get_or_init(|| {
            (1..=self.layers)
                .map(|group| {
                    let (_, schedule) =
                        op_level_schedule(self.layers, self.devices, self.strategy, group);
                    let raw = predict_makespan(self.graph, &schedule, self.cost)
                        .ok()
                        .map(|p| p.makespan());
                    Jump::new(group, schedule, raw)
                })
                .collect()
        })
    }
}

impl<'g, C: CostModel + Sync> SearchSpace for PipeSpace<'g, C> {
    type State = PipeState;
    type Move = PipeMove;
    type Scorer = RelocationScorer<'g>;

    fn clean(&self, state: &PipeState) -> bool {
        self.verifier.verify(&state.schedule).is_clean()
    }

    /// Regroups to every other modulo group whose rendering differs from
    /// the incumbent, then the in-lane relocations (an op may not change
    /// devices).
    fn moves(&self, state: &PipeState) -> Vec<PipeMove> {
        let mut out: Vec<PipeMove> = self
            .regroups()
            .iter()
            .enumerate()
            .filter(|(_, j)| j.label != state.group && j.target != state.schedule)
            .map(|(i, _)| PipeMove::Regroup(i))
            .collect();
        out.extend(
            schedule_relocations(self.graph, &state.schedule, false, self.window)
                .into_iter()
                .map(PipeMove::Relocate),
        );
        out
    }

    fn scorer(&self, state: &PipeState) -> RelocationScorer<'g> {
        RelocationScorer::new(self.graph, &state.schedule, self.cost)
    }

    /// Regroups replace the whole schedule and carry their scores from
    /// the regroup table; relocations are delta-probed against the
    /// incumbent ([`score_relocation`]).
    fn score(
        &self,
        sc: &mut RelocationScorer<'g>,
        _: &PipeState,
        mv: &PipeMove,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        let cap = self.memory_cap.as_ref();
        match mv {
            PipeMove::Regroup(i) => {
                self.regroups()[*i].score(cutoff, cap.map(MemoryCap::bytes), |s| {
                    ooo_verify::mem::schedule_peak(self.graph, s, self.cost).ok()
                })
            }
            PipeMove::Relocate(r) => score_relocation(cap, sc, r, cutoff),
        }
    }

    fn apply(&self, state: &PipeState, mv: &PipeMove) -> (PipeState, String) {
        match mv {
            PipeMove::Regroup(i) => {
                let j = &self.regroups()[*i];
                (
                    PipeState {
                        schedule: j.target.clone(),
                        group: j.label,
                    },
                    format!("regroup modulo {}", j.label),
                )
            }
            PipeMove::Relocate(r) => (
                PipeState {
                    schedule: r.apply(&state.schedule),
                    group: state.group,
                },
                r.describe(&state.schedule),
            ),
        }
    }
}

/// Tunes the op-level schedule of `strategy` over `layers` layers and
/// `devices` devices, starting from modulo group `group`.
///
/// # Errors
///
/// [`Error::Unsafe`] when the strategy's own schedule fails the safety
/// gate; [`Error::Core`] when it does not evaluate.
pub fn tune_pipeline<C: CostModel + Sync>(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    cost: &C,
    opts: &TuneOptions,
) -> Result<TunedPipeline> {
    let (graph, baseline) = op_level_schedule(layers, devices, strategy, group);
    let verifier = Verifier::new(&graph)
        .with_config(opts.verify_config())
        .with_cost(cost);
    let report = verifier.verify(&baseline);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(&graph, &baseline, cost)?.makespan();
    let (memory_cap, base_m) =
        MemoryCap::of_baseline(&graph, cost, &baseline, opts.memory_cap, base_raw)?;
    let space = PipeSpace {
        graph: &graph,
        cost,
        verifier,
        layers,
        devices,
        strategy,
        window: opts.window,
        memory_cap,
        regroups: OnceLock::new(),
    };
    let init = PipeState {
        schedule: baseline,
        group,
    };
    let (state, predicted, moves, restarts_adopted) = local_search(&space, init, base_m, opts);
    // Capped scores carry the penalty; report the raw makespan (and the
    // winner's exact peak) instead.
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => (
            predict_makespan(&graph, &state.schedule, cost)?.makespan(),
            Some(ooo_verify::mem::schedule_peak(
                &graph,
                &state.schedule,
                cost,
            )?),
        ),
    };
    Ok(TunedPipeline {
        graph: graph.clone(),
        schedule: state.schedule,
        group: state.group,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify_schedule;
    use ooo_core::cost::UnitCost;

    #[test]
    fn gpipe_schedule_is_improvable_by_dw_moves() {
        // GPipe computes dW eagerly inside the backward chain; deferring
        // the [dW, U] blocks (gradient fast-forwarding) shortens the
        // critical path.
        let tuned =
            tune_pipeline(8, 4, Strategy::GPipe, 1, &UnitCost, &TuneOptions::default()).unwrap();
        assert!(
            tuned.improved(),
            "GPipe's eager dW blocks must be hoistable"
        );
        let certified = certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost).unwrap();
        assert_eq!(certified, tuned.predicted);
    }

    #[test]
    fn ooo_pipe2_is_already_near_optimal() {
        let tuned = tune_pipeline(
            8,
            4,
            Strategy::OooPipe2,
            1,
            &UnitCost,
            &TuneOptions::default(),
        )
        .unwrap();
        assert!(tuned.predicted <= tuned.baseline);
        certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost).unwrap();
    }
}
