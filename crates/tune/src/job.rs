//! The request-level tune→certify step, shared by the `ooo-tune` CLI and
//! the `ooo-serve` handlers.
//!
//! Every job builds its instance, computes the certified makespan floor
//! of the starting schedule
//! ([`ooo_core::bounds::schedule_lower_bound`]), tunes toward that
//! floor, certifies the winner at tolerance 0 — a backward order against
//! the data-parallel simulator ([`certify_order`]), a schedule by a fresh
//! list-evaluation pass against the incremental evaluator's
//! ([`certify_schedule`]) — demands the certified makespan equal the
//! search's own score, and returns one [`Outcome`]. The caller supplies
//! the base [`TuneOptions`] — search effort, window, deadline, memory
//! cap; a job sets only `require_complete` and `target`.

use crate::order::{certify_order, tune_backward_order, KFamily};
use crate::pipeline::tune_pipeline;
use crate::{certify_schedule, tune_schedule, AppliedMove, Error, Result, TuneOptions};
use ooo_core::bounds::schedule_lower_bound;
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::{BundleEntry, ScheduleBundle};
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::order_instance;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_verify::predict::datapar_schedule;

/// One tuned and certified input.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Instance name (the bundle entry name for bundle jobs).
    pub name: String,
    /// `"order"`, `"schedule"` or `"pipeline"`.
    pub kind: &'static str,
    /// Predicted makespan of the starting schedule.
    pub baseline: SimTime,
    /// Predicted makespan of the winner.
    pub tuned: SimTime,
    /// Simulated makespan of the winner (equal to `tuned`).
    pub certified: SimTime,
    /// Certified floor of the starting schedule's op subset and lanes;
    /// the tuner's early-exit target.
    pub lower_bound: SimTime,
    /// Exact static ledger peak of the winner; present iff a memory cap
    /// was set.
    pub peak: Option<u64>,
    /// The memory cap the search ran under.
    pub cap: Option<u64>,
    /// Reverse-first-k depth of an order winner that still has one, or
    /// the modulo group of a pipeline winner.
    pub k: Option<usize>,
    /// The accepted move trajectory from input to winner.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl Outcome {
    /// `true` when the certified makespan meets the lower bound: the
    /// winner is provably makespan-optimal for its op set and lanes.
    pub fn proven_optimal(&self) -> bool {
        self.certified == self.lower_bound
    }

    /// The outcome as a JSON object in its fixed key order, with the
    /// caller's rendering of [`Outcome::moves`] (the CLI lists them,
    /// the daemon counts them).
    pub fn to_json(&self, moves: Value) -> Value {
        let opt = |n: Option<u64>| n.map_or(Value::Null, |n| Value::Num(n as f64));
        obj([
            ("name", self.name.as_str().into()),
            ("kind", self.kind.into()),
            ("baseline_makespan", Value::Num(self.baseline as f64)),
            ("tuned_makespan", Value::Num(self.tuned as f64)),
            ("certified_makespan", Value::Num(self.certified as f64)),
            ("lower_bound", Value::Num(self.lower_bound as f64)),
            ("proven_optimal", Value::Bool(self.proven_optimal())),
            ("improved", Value::Bool(self.tuned < self.baseline)),
            ("peak", opt(self.peak)),
            ("memory_cap", opt(self.cap)),
            (
                "cap_met",
                match (self.peak, self.cap) {
                    (Some(p), Some(c)) => Value::Bool(p <= c),
                    _ => Value::Null,
                },
            ),
            ("k", opt(self.k.map(|k| k as u64))),
            ("moves", moves),
            ("restarts_adopted", Value::Num(self.restarts_adopted as f64)),
        ])
    }
}

/// One named job result: a bundle entry's name (or the mode name for
/// single-instance jobs) with its outcome or error.
pub type Named = (String, Result<Outcome>);

/// The caller's options with the floor as target, under a memory cap
/// too. The search stops when its incumbent's score reaches the floor.
/// An over-cap incumbent scores its makespan plus the penalty, above
/// the floor, so it never stops there; an under-cap incumbent at the
/// floor is optimal, since every candidate keeps the op set and lanes
/// the floor covers and none scores below its makespan.
fn with_floor(base: &TuneOptions, require_complete: bool, floor: SimTime) -> TuneOptions {
    TuneOptions {
        require_complete,
        target: Some(floor),
        ..base.clone()
    }
}

/// `certified` when it equals the search's own score of the winner.
fn agreed(certified: SimTime, tuned: SimTime) -> Result<SimTime> {
    if certified != tuned {
        return Err(Error::Certification {
            predicted: certified,
            checked: tuned,
            by: "tuned score",
        });
    }
    Ok(certified)
}

/// Tunes a backward order of a data-parallel graph against the link
/// lane the engine would add.
fn backward_order_job<C: CostModel + Sync>(
    name: String,
    graph: &TrainGraph,
    order: &[Op],
    k: Option<usize>,
    cost: &C,
    policy: CommPolicy,
    base: &TuneOptions,
) -> Result<Outcome> {
    let realized = datapar_schedule(graph, order, cost, policy)?;
    let floor = schedule_lower_bound(graph, cost, &realized);
    let opts = with_floor(base, true, floor);
    let t = tune_backward_order(graph, order, k, cost, policy, KFamily::ReverseFirstK, &opts)?;
    let certified = agreed(certify_order(graph, &t.order, cost, policy)?, t.predicted)?;
    Ok(Outcome {
        name,
        kind: "order",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: t.k,
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

/// Tunes a multi-lane schedule under unit cost. Exported schedules may
/// be partial (engines with implicit updates), so the gate does not
/// demand completeness; the subset floor still covers exactly the ops
/// the schedule runs.
fn schedule_job(
    name: String,
    graph: &TrainGraph,
    schedule: &Schedule,
    base: &TuneOptions,
) -> Result<Outcome> {
    let floor = schedule_lower_bound(graph, &UnitCost, schedule);
    let t = tune_schedule(graph, schedule, &UnitCost, &with_floor(base, false, floor))?;
    let certified = agreed(
        certify_schedule(graph, &t.schedule, &UnitCost)?,
        t.predicted,
    )?;
    Ok(Outcome {
        name,
        kind: "schedule",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: None,
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

/// Tunes and certifies the reverse-first-k order of
/// [`order_instance`]`(layers, k, sync)`.
///
/// # Errors
///
/// [`crate::Error::Unsafe`] when the order fails the safety gate, and
/// the core and certification errors of the tuner.
pub fn order_job(
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    base: &TuneOptions,
) -> Result<Outcome> {
    let inst = order_instance(layers, k, sync)?;
    backward_order_job(
        inst.name,
        &inst.graph,
        &inst.order,
        Some(k),
        &inst.cost,
        policy,
        base,
    )
}

/// Tunes and certifies every entry of `bundle` named `wanted` (all of
/// them when `None`), in [`ScheduleBundle::select`] order, with one
/// result per entry. Orders of a data-parallel graph are tuned as
/// backward orders (their backward subsequence); every other entry as a
/// flat or multi-lane schedule.
///
/// # Errors
///
/// The outer error is an unbuildable graph configuration or a `wanted`
/// name that matches no entry. An empty list is not an error.
pub fn bundle_job(
    bundle: &ScheduleBundle,
    wanted: Option<&str>,
    policy: CommPolicy,
    base: &TuneOptions,
) -> std::result::Result<Vec<Named>, String> {
    let graph = TrainGraph::new(bundle.graph.clone())
        .map_err(|e| format!("invalid graph configuration: {e}"))?;
    let entries = bundle.select(wanted)?;
    Ok(entries
        .iter()
        .map(|entry| {
            let name = entry.name().to_string();
            let outcome = match entry {
                BundleEntry::Order(_, order) if graph.config().sync_weight_grads => {
                    let backward: Vec<Op> =
                        order.iter().copied().filter(|o| o.is_backward()).collect();
                    backward_order_job(
                        name.clone(),
                        &graph,
                        &backward,
                        None,
                        &UnitCost,
                        policy,
                        base,
                    )
                }
                _ => schedule_job(name.clone(), &graph, &entry.to_schedule(), base),
            };
            (name, outcome)
        })
        .collect())
}

/// Tunes and certifies one strategy's op-level pipeline schedule under
/// unit cost, including modulo regrouping. The outcome is named by the
/// strategy's [`Strategy::label`] and its `k` is the winning group.
///
/// # Errors
///
/// As [`order_job`].
pub fn pipeline_job(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    base: &TuneOptions,
) -> Result<Outcome> {
    let (graph, schedule) = ooo_core::pipeline::op_level_schedule(layers, devices, strategy, group);
    let floor = schedule_lower_bound(&graph, &UnitCost, &schedule);
    let opts = with_floor(base, true, floor);
    let t = tune_pipeline(layers, devices, strategy, group, &UnitCost, &opts)?;
    let certified = agreed(
        certify_schedule(&t.graph, &t.schedule, &UnitCost)?,
        t.predicted,
    )?;
    Ok(Outcome {
        name: strategy.label().to_string(),
        kind: "pipeline",
        baseline: t.baseline,
        tuned: t.predicted,
        certified,
        lower_bound: floor,
        peak: t.peak,
        cap: base.memory_cap,
        k: Some(t.group),
        moves: t.moves,
        restarts_adopted: t.restarts_adopted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The floor is the target under a memory cap too. A capped job whose
    /// input already sits at the floor under the cap stops there, proven
    /// optimal, exactly as the uncapped job does; a capped job whose
    /// input is over the cap scores above the floor, so the target cuts
    /// nothing short: it tunes exactly as a search with no target.
    #[test]
    fn floor_is_the_target_under_a_memory_cap() {
        let capped = TuneOptions {
            memory_cap: Some(999_999),
            ..TuneOptions::default()
        };
        assert_eq!(with_floor(&capped, true, 23).target, Some(23));
        let policy = CommPolicy::PriorityByLayer;
        let at_floor = order_job(8, 0, 0, policy, &capped).unwrap();
        let plain = order_job(8, 0, 0, policy, &TuneOptions::default()).unwrap();
        assert!(at_floor.proven_optimal() && at_floor.moves.is_empty());
        assert_eq!(
            at_floor.peak.zip(at_floor.cap).map(|(p, c)| p <= c),
            Some(true)
        );
        assert_eq!(
            (at_floor.tuned, at_floor.lower_bound),
            (plain.tuned, plain.lower_bound)
        );

        let over = TuneOptions {
            memory_cap: Some(1),
            ..TuneOptions::default()
        };
        let job = order_job(6, 2, 3, policy, &over).unwrap();
        assert!(job.peak.is_some_and(|p| p > 1) && job.tuned > job.lower_bound);
        let inst = order_instance(6, 2, 3).unwrap();
        let family = KFamily::ReverseFirstK;
        let untargeted = tune_backward_order(
            &inst.graph,
            &inst.order,
            Some(2),
            &inst.cost,
            policy,
            family,
            &over,
        )
        .unwrap();
        let trajectory = |moves: &[AppliedMove]| -> Vec<String> {
            moves.iter().map(|m| m.description.clone()).collect()
        };
        assert_eq!(trajectory(&job.moves), trajectory(&untargeted.moves));
        assert_eq!(
            (job.tuned, job.peak),
            (untargeted.predicted, untargeted.peak)
        );
    }
}
