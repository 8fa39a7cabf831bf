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
//!
//! The search builds the pipeline graph once. The regroup table keeps a
//! score per group, not a schedule: each distinct device map is rendered
//! ([`ooo_core::pipeline::op_level_lanes`]) and predicted on that graph
//! once, and a regroup renders its group again only when it is applied
//! or a memory cap needs its peak.

use crate::{
    bound_relocation, local_search, probe_relocation, schedule_relocations, score_relocation,
    AppliedMove, Bound, Error, Jump, MemoryCap, Relocation, RelocationScorer, Result, SearchSpace,
    TuneOptions,
};
use ooo_core::cost::CostModel;
use ooo_core::pipeline::{op_level_lanes, op_level_schedule, Strategy};
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use ooo_verify::predict::predict_makespan;
use ooo_verify::Verifier;
use std::cell::OnceCell;
use std::collections::HashMap;
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
    regroups: OnceLock<Vec<Jump<usize>>>,
}

impl<C: CostModel> PipeSpace<'_, C> {
    /// The strategy's lanes under modulo group `group`.
    fn render(&self, group: usize) -> Schedule {
        #[cfg(test)]
        tests::RENDERED.with(|r| r.borrow_mut().push(group));
        let map = self.strategy.device_map(self.layers, self.devices, group);
        op_level_lanes(self.strategy, self.devices, &map)
    }

    /// The regroup table, built on the first neighborhood scan that needs
    /// it: entry `g - 1` jumps to group `g` of `1..=layers`, and its
    /// target is a key of the group's device map (equal keys, equal
    /// maps). Each distinct map is rendered and predicted once; every
    /// strategy but OOO-Pipe2 has one map for all groups.
    fn regroups(&self) -> &[Jump<usize>] {
        self.regroups.get_or_init(|| {
            let mut keys: HashMap<DeviceRuns, (usize, Option<SimTime>)> = HashMap::new();
            (1..=self.layers)
                .map(|group| {
                    let map = self.strategy.device_map(self.layers, self.devices, group);
                    let next = keys.len();
                    let (key, raw) = *keys.entry(device_runs(&map)).or_insert_with(|| {
                        let lanes = op_level_lanes(self.strategy, self.devices, &map);
                        let raw = predict_makespan(self.graph, &lanes, self.cost).ok();
                        (next, raw.map(|p| p.makespan()))
                    });
                    Jump::new(group, key, raw)
                })
                .collect()
        })
    }

    /// The regroup table's entry whose device map is `group`'s. Groups
    /// outside `1..=layers` share the map of the nearest group inside
    /// (a modulo group of zero acts as one, and one at least `layers`
    /// puts every layer on device 0).
    fn regroup_of(&self, group: usize) -> &Jump<usize> {
        &self.regroups()[group.clamp(1, self.layers) - 1]
    }
}

/// A device map as its maximal runs, `(first layer index, device)`: two
/// maps are equal iff their runs are, and a modulo group's runs are few.
type DeviceRuns = Vec<(usize, usize)>;

/// The [`DeviceRuns`] of `map`.
fn device_runs(map: &[usize]) -> DeviceRuns {
    let mut runs = DeviceRuns::new();
    for (i, &d) in map.iter().enumerate() {
        if runs.last().is_none_or(|&(_, last)| last != d) {
            runs.push((i, d));
        }
    }
    runs
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
    ///
    /// Relocations never move an op across lanes, so the incumbent's
    /// lanes hold its own group's device map. A group's rendering is
    /// then the incumbent iff the group has that map and the incumbent
    /// is still its own group's rendering: one schedule comparison per
    /// scan, made only when some other group shares the map.
    fn moves(&self, state: &PipeState) -> Vec<PipeMove> {
        let own = self.regroup_of(state.group).target;
        let rendered = OnceCell::new();
        let mut out: Vec<PipeMove> = self
            .regroups()
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                j.label != state.group
                    && !(j.target == own
                        && *rendered.get_or_init(|| state.schedule == self.render(state.group)))
            })
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
    /// the regroup table (a capped one renders its group for the peak
    /// once, and only when its raw score is below the cutoff);
    /// relocations are delta-probed against the incumbent
    /// ([`score_relocation`]).
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
                let j = &self.regroups()[*i];
                j.score(cutoff, cap.map(MemoryCap::bytes), |_| {
                    ooo_verify::mem::schedule_peak(self.graph, &self.render(j.label), self.cost)
                        .ok()
                })
            }
            PipeMove::Relocate(r) => score_relocation(cap, sc, r, cutoff),
        }
    }

    /// Regroups rank by their exact scores; relocations by their floors
    /// ([`bound_relocation`]).
    fn bound(
        &self,
        sc: &mut RelocationScorer<'g>,
        state: &PipeState,
        mv: &PipeMove,
        cutoff: SimTime,
    ) -> Option<Bound> {
        match mv {
            PipeMove::Regroup(_) => self.score(sc, state, mv, cutoff).map(Bound::Exact),
            PipeMove::Relocate(r) => bound_relocation(self.memory_cap.as_ref(), sc, r, cutoff),
        }
    }

    fn settle(
        &self,
        sc: &mut RelocationScorer<'g>,
        state: &PipeState,
        mv: &PipeMove,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        match mv {
            PipeMove::Regroup(_) => self.score(sc, state, mv, cutoff),
            PipeMove::Relocate(r) => probe_relocation(self.memory_cap.as_ref(), sc, r, cutoff),
        }
    }

    fn apply(&self, state: &PipeState, mv: &PipeMove) -> (PipeState, String) {
        match mv {
            PipeMove::Regroup(i) => {
                let j = &self.regroups()[*i];
                (
                    PipeState {
                        schedule: self.render(j.label),
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
        graph,
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
    use crate::{capped_below, certify_schedule};
    use ooo_core::cost::UnitCost;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    thread_local! {
        /// The groups [`PipeSpace::render`] rendered on this thread, in order.
        pub(super) static RENDERED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// The pipeline space of `strategy` over `layers` x `devices` from
    /// group 1 under unit cost, with memory cap `cap`.
    fn space(
        graph: &TrainGraph,
        layers: usize,
        devices: usize,
        strategy: Strategy,
        cap: Option<u64>,
    ) -> PipeSpace<'_, UnitCost> {
        let (_, baseline) = op_level_schedule(layers, devices, strategy, 1);
        let raw = predict_makespan(graph, &baseline, &UnitCost)
            .unwrap()
            .makespan();
        let (memory_cap, _) =
            MemoryCap::of_baseline(graph, &UnitCost, &baseline, cap, raw).unwrap();
        PipeSpace {
            graph,
            cost: &UnitCost,
            verifier: Verifier::new(graph).with_cost(&UnitCost),
            layers,
            devices,
            strategy,
            window: None,
            memory_cap,
            regroups: OnceLock::new(),
        }
    }

    /// The regroup table that stores every group's whole schedule with
    /// its raw makespan: the differential oracle of the score table.
    fn whole_schedule_table(
        graph: &TrainGraph,
        layers: usize,
        devices: usize,
        strategy: Strategy,
    ) -> Vec<(Schedule, Option<SimTime>)> {
        (1..=layers)
            .map(|group| {
                let (_, schedule) = op_level_schedule(layers, devices, strategy, group);
                let raw = predict_makespan(graph, &schedule, &UnitCost)
                    .ok()
                    .map(|p| p.makespan());
                (schedule, raw)
            })
            .collect()
    }

    /// The regroup moves out of `state`, as table indices.
    fn regroup_moves(space: &PipeSpace<'_, UnitCost>, state: &PipeState) -> Vec<usize> {
        space
            .moves(state)
            .into_iter()
            .filter_map(|mv| match mv {
                PipeMove::Regroup(i) => Some(i),
                PipeMove::Relocate(_) => None,
            })
            .collect()
    }

    /// For every strategy at small sizes and every group, the score
    /// table agrees with the whole-schedule table: each group renders its
    /// stored schedule, each entry's raw score is the prediction of that
    /// rendering, and the regroups out of states reached by random
    /// relocations and regroups (from groups inside and outside
    /// `1..=layers`) are those whose stored schedule differs from the
    /// state.
    #[test]
    fn regroup_table_matches_the_whole_schedule_table() {
        let mut rng = StdRng::seed_from_u64(23);
        // States whose filter leaves out a group other than their own.
        let mut shared = 0;
        for strategy in Strategy::ALL {
            for (layers, devices) in [(1, 1), (5, 1), (6, 2), (7, 3), (9, 4)] {
                let graph = TrainGraph::pipeline_parallel(layers);
                let space = space(&graph, layers, devices, strategy, None);
                let oracle = whole_schedule_table(&graph, layers, devices, strategy);
                for (j, (schedule, raw)) in space.regroups().iter().zip(&oracle) {
                    assert_eq!(&space.render(j.label), schedule);
                    let want = predict_makespan(&graph, schedule, &UnitCost)
                        .ok()
                        .map(|p| p.makespan());
                    assert_eq!(*raw, want);
                    assert_eq!(j.score(SimTime::MAX, None, |_| None), want);
                }
                for start in [0, 1, layers, layers + 1] {
                    let mut state = PipeState {
                        schedule: op_level_schedule(layers, devices, strategy, start).1,
                        group: start,
                    };
                    for _ in 0..40 {
                        let want: Vec<usize> = oracle
                            .iter()
                            .enumerate()
                            .filter(|(i, (s, _))| i + 1 != state.group && *s != state.schedule)
                            .map(|(i, _)| i)
                            .collect();
                        let got = regroup_moves(&space, &state);
                        shared += usize::from(got.len() + 1 < layers);
                        assert_eq!(got, want, "{strategy:?} {layers}x{devices} from {start}");
                        let moves = space.moves(&state);
                        if moves.is_empty() {
                            break;
                        }
                        state = space.apply(&state, &moves[rng.gen_range(0..moves.len())]).0;
                    }
                }
            }
        }
        assert!(
            shared > 0,
            "some states must share a device map with other groups"
        );
    }

    /// Under random caps and cutoffs, a capped regroup scores
    /// `capped_below` of its raw makespan and its rendering's peak, and
    /// renders its group for that peak at most once, and only when its
    /// raw score is below a cutoff it was scored against.
    #[test]
    fn capped_regroup_scores_read_each_peak_at_most_once() {
        let mut rng = StdRng::seed_from_u64(11);
        for (strategy, layers, devices) in [
            (Strategy::OooPipe2, 8, 4),
            (Strategy::OooPipe2, 12, 3),
            (Strategy::GPipe, 9, 3),
        ] {
            let graph = TrainGraph::pipeline_parallel(layers);
            let oracle = whole_schedule_table(&graph, layers, devices, strategy);
            for _ in 0..6 {
                let cap = rng.gen_range(0..24u64);
                let space = space(&graph, layers, devices, strategy, Some(cap));
                let state = PipeState {
                    schedule: space.render(1),
                    group: 1,
                };
                let mut sc = space.scorer(&state);
                RENDERED.with(|r| r.borrow_mut().clear());
                let mut below = vec![false; layers];
                for _ in 0..4 * layers {
                    let i = rng.gen_range(0..layers);
                    let (schedule, raw) = &oracle[i];
                    let raw = raw.unwrap();
                    // Just around the raw score, or far above it.
                    let cutoff = raw + rng.gen_range(0..3) - 1 + rng.gen_range(0..2) * 1_000;
                    let want = capped_below(raw, cutoff, Some(cap), || {
                        ooo_verify::mem::schedule_peak(&graph, schedule, &UnitCost).ok()
                    });
                    let got = space.score(&mut sc, &state, &PipeMove::Regroup(i), cutoff);
                    assert_eq!(
                        got,
                        want,
                        "{strategy:?} cap {cap} group {} cutoff {cutoff}",
                        i + 1
                    );
                    below[i] |= raw < cutoff;
                }
                let rendered = RENDERED.with(|r| r.take());
                for (i, &below) in below.iter().enumerate() {
                    let renders = rendered.iter().filter(|&&g| g == i + 1).count();
                    assert_eq!(renders, usize::from(below), "group {}", i + 1);
                }
            }
        }
    }

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
