//! Ledger-checked memory accounting for the cluster engines.
//!
//! Every entry point computes the peak-memory story of one engine
//! configuration **twice** — the exact static ledger
//! ([`ooo_verify::mem::ledger_of_spans`]) and the per-op counter
//! instrumented into the engine's timeline
//! ([`ooo_verify::mem::instrument_timeline`]) — and refuses to answer
//! unless the two agree at tolerance 0. Both read the same times: one
//! list-evaluation pass for a multi-lane schedule, the data-parallel
//! simulator for a flat order. So the check is of the two accounting
//! paths, not of the times: a disagreement means the lifetime rules
//! mis-attributed a buffer, so it surfaces as [`Error::InvalidConfig`]
//! rather than a silently wrong number.

use crate::{Error, Result};
use ooo_core::cost::CostModel;
use ooo_core::datapar::{simulate_data_parallel, CommPolicy};
use ooo_core::schedule::Schedule;
use ooo_core::{Op, TrainGraph};
use ooo_verify::mem::{
    instrument_timeline, ledger_of_spans, spans_of_prediction, spans_of_timeline, MemCounter,
    MemLedger,
};
use ooo_verify::predict::predict_makespan;

/// The reconciled memory story of one engine run.
#[derive(Debug, Clone)]
pub struct CheckedMemory {
    /// The exact static ledger (intervals, peak witness, residency).
    pub ledger: MemLedger,
    /// The instrumented simulator counter that confirmed it.
    pub counter: MemCounter,
}

fn reconcile(ledger: MemLedger, counter: MemCounter, what: &str) -> Result<CheckedMemory> {
    let same = ledger.initial == counter.initial
        && ledger.peak == counter.peak
        && ledger.final_usage == counter.final_usage;
    if !same {
        return Err(Error::InvalidConfig(format!(
            "{what}: static ledger (initial {}, peak {}, final {}) disagrees with the \
             instrumented simulator (initial {}, peak {}, final {})",
            ledger.initial,
            ledger.peak,
            ledger.final_usage,
            counter.initial,
            counter.peak,
            counter.final_usage
        )));
    }
    Ok(CheckedMemory { ledger, counter })
}

/// The checked memory story of a multi-lane schedule (single-GPU
/// multi-region and pipeline engines): static ledger from the spans of
/// one [`predict_makespan`] pass, counter from its timeline.
///
/// # Errors
///
/// [`Error::Core`] when the schedule does not execute;
/// [`Error::InvalidConfig`] when ledger and counter disagree.
pub fn checked_schedule_memory<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<CheckedMemory> {
    let pass = predict_makespan(graph, schedule, cost)?;
    let (ledger, _) = ledger_of_spans(graph, cost, &spans_of_prediction(&pass), None);
    let counter = instrument_timeline(graph, cost, &pass.into_timeline());
    reconcile(ledger, counter, "schedule")
}

/// The checked memory story of a flat backward order under the
/// data-parallel wire simulator (data-parallel and hybrid engines):
/// static ledger from the simulated spans, counter from
/// [`ooo_core::datapar::simulate_data_parallel`] — the same timeline,
/// accounted through two independent code paths.
///
/// # Errors
///
/// [`Error::Core`] when the order does not execute;
/// [`Error::InvalidConfig`] when ledger and counter disagree.
pub fn checked_order_memory<C: CostModel>(
    graph: &TrainGraph,
    order: &[Op],
    cost: &C,
    policy: CommPolicy,
) -> Result<CheckedMemory> {
    let timeline = simulate_data_parallel(graph, order, cost, policy)?;
    let (ledger, _) = ledger_of_spans(graph, cost, &spans_of_timeline(&timeline), None);
    let counter = instrument_timeline(graph, cost, &timeline);
    reconcile(ledger, counter, "order")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::UnitCost;
    use ooo_core::pipeline::{op_level_schedule, Strategy};
    use ooo_core::reverse_k::reverse_first_k;

    #[test]
    fn pipeline_schedules_reconcile() {
        for strategy in [Strategy::GPipe, Strategy::OooPipe2] {
            let (graph, schedule) = op_level_schedule(6, 3, strategy, 1);
            let checked = checked_schedule_memory(&graph, &schedule, &UnitCost).unwrap();
            assert!(checked.ledger.peak >= checked.ledger.final_usage);
            assert_eq!(checked.ledger.peak, checked.counter.peak);
        }
    }

    #[test]
    fn datapar_orders_reconcile() {
        let graph = TrainGraph::data_parallel(6);
        let order = reverse_first_k(&graph, 2, None::<(u64, &UnitCost)>).unwrap();
        let checked =
            checked_order_memory(&graph, &order, &UnitCost, CommPolicy::PriorityByLayer).unwrap();
        assert_eq!(checked.ledger.initial, checked.counter.initial);
        assert!(checked.ledger.peak > 0);
    }
}
