//! `ooo-cert` — exact schedule-optimality certification.
//!
//! Three modes, mirroring `ooo-tune`:
//!
//! ```text
//! ooo-cert order --layers N [--k K] [--sync NS] [--policy fifo|bylayer]
//!                [--budget NODES] [--json] [--out FILE]
//! ooo-cert bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer]
//!                [--budget NODES] [--json] [--out FILE]
//! ooo-cert pipeline --layers N --devices D --strategy NAME [--group G]
//!                [--budget NODES] [--json] [--out FILE]
//! ```
//!
//! `order` certifies the data-parallel realization of a reverse-first-k
//! backward order; `bundle` certifies every order and schedule of a
//! JSON-exported [`ScheduleBundle`](ooo_core::export::ScheduleBundle); `pipeline` certifies one
//! strategy's op-level schedule under fixed device placement (the lane
//! assignment is part of the problem statement there).
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when every certificate is `Optimal` or `Unknown` (the analysis
//! found nothing wrong within budget), `1` when any input is proven
//! `Improvable` (the analysis found a defect, with a witness), `2` on
//! usage, I/O, or parse problems.

use ooo_cert::{certify_order, certify_with, Budget, Certificate, Placement, Solved};
use ooo_core::cli::{finish, load_bundle, Exit, Job, CERT};
use ooo_core::cost::UnitCost;
use ooo_core::datapar::CommPolicy;
use ooo_core::export::BundleEntry;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::order_instance;
use ooo_core::schedule::Schedule;
use ooo_core::SimTime;
use std::process::ExitCode;

/// One certified input, ready for rendering.
struct Item {
    name: String,
    kind: &'static str,
    placement: Placement,
    solved: Solved,
}

fn witness_to_json(witness: &Schedule) -> Value {
    Value::Arr(
        witness
            .lanes
            .iter()
            .map(|lane| {
                obj([
                    ("lane", lane.name.as_str().into()),
                    (
                        "ops",
                        Value::Arr(lane.ops.iter().map(|op| op.to_string().into()).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

fn item_to_json(item: &Item) -> Value {
    let s = &item.solved;
    let c = &s.certificate;
    let (witness_makespan, witness_optimal, witness) = match c {
        Certificate::Improvable {
            witness_makespan,
            witness_optimal,
            witness,
            ..
        } => (
            Value::Num(*witness_makespan as f64),
            Value::Bool(*witness_optimal),
            witness_to_json(witness),
        ),
        _ => (Value::Null, Value::Null, Value::Null),
    };
    obj([
        ("name", item.name.as_str().into()),
        ("kind", item.kind.into()),
        (
            "placement",
            match item.placement {
                Placement::ByClass => "by-class",
                Placement::Fixed => "fixed",
            }
            .into(),
        ),
        ("status", c.status().into()),
        (
            "baseline_makespan",
            Value::Num(c.baseline_makespan() as f64),
        ),
        ("best_makespan", Value::Num(c.best_makespan() as f64)),
        ("lower_bound", Value::Num(s.lower_bound as f64)),
        ("optimal", Value::Bool(s.is_optimal())),
        ("witness_makespan", witness_makespan),
        ("witness_optimal", witness_optimal),
        ("witness", witness),
        ("nodes", Value::Num(s.nodes as f64)),
        ("memo_hits", Value::Num(s.memo_hits as f64)),
        ("pruned", Value::Num(s.pruned as f64)),
        ("delta_rescored", Value::Num(s.delta_rescored as f64)),
        (
            "delta_full_equivalent",
            Value::Num(s.delta_full_equivalent as f64),
        ),
        ("delta_checks", Value::Num(s.delta_checks as f64)),
    ])
}

fn item_to_human(item: &Item) -> String {
    let s = &item.solved;
    match &s.certificate {
        Certificate::Optimal { makespan } => format!(
            "{}: makespan {makespan} is OPTIMAL (lower bound {}, {} nodes)\n",
            item.name, s.lower_bound, s.nodes
        ),
        Certificate::Improvable {
            baseline,
            witness_makespan,
            witness_optimal,
            witness,
        } => {
            let mut out = format!(
                "{}: makespan {baseline} is IMPROVABLE -> witness {witness_makespan}{} \
                 (lower bound {}, {} nodes)\n",
                item.name,
                if *witness_optimal {
                    " (proven optimal)"
                } else {
                    ""
                },
                s.lower_bound,
                s.nodes
            );
            for lane in &witness.lanes {
                let ops: Vec<String> = lane.ops.iter().map(|op| op.to_string()).collect();
                out.push_str(&format!("  {}: {}\n", lane.name, ops.join(" ")));
            }
            out
        }
        Certificate::Unknown { lower, upper } => format!(
            "{}: budget exhausted, optimum in [{lower}, {upper}] ({} nodes)\n",
            item.name, s.nodes
        ),
    }
}

fn certify_order_instance(
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    budget: &Budget,
) -> Result<Vec<Item>, String> {
    let inst = order_instance(layers, k, sync).map_err(|e| e.to_string())?;
    let (_, solved) = certify_order(&inst.graph, &inst.order, &inst.cost, policy, budget)
        .map_err(|e| e.to_string())?;
    Ok(vec![Item {
        name: inst.name,
        kind: "order",
        placement: Placement::ByClass,
        solved,
    }])
}

fn certify_bundle(
    path: &str,
    wanted: Option<&str>,
    policy: CommPolicy,
    budget: &Budget,
) -> Result<Vec<Item>, String> {
    let (bundle, graph) = load_bundle(path)?;
    let entries = bundle.select(wanted)?;
    if entries.is_empty() {
        return Err("bundle holds no orders or schedules".to_string());
    }
    entries
        .iter()
        .map(|entry| {
            let kind = match entry {
                BundleEntry::Order(..) => "order",
                BundleEntry::Schedule(..) => "schedule",
            };
            // Backward orders of a data-parallel graph certify against
            // the link lane the engine would add; anything else
            // certifies as a flat single-lane schedule.
            let solved = match entry {
                BundleEntry::Order(_, order) if graph.config().sync_weight_grads => {
                    let backward: Vec<_> =
                        order.iter().copied().filter(|o| o.is_backward()).collect();
                    certify_order(&graph, &backward, &UnitCost, policy, budget).map(|(_, s)| s)
                }
                _ => certify_with(
                    &graph,
                    &entry.to_schedule(),
                    &UnitCost,
                    Placement::ByClass,
                    budget,
                ),
            };
            let name = entry.name();
            Ok(Item {
                name: name.to_string(),
                kind,
                placement: Placement::ByClass,
                solved: solved.map_err(|e| format!("{name}: {e}"))?,
            })
        })
        .collect()
}

fn certify_pipeline(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    budget: &Budget,
) -> Result<Vec<Item>, String> {
    let (graph, schedule) = ooo_core::pipeline::op_level_schedule(layers, devices, strategy, group);
    // Device placement is part of the pipeline strategy: certify the
    // per-lane orderings only.
    let solved = certify_with(&graph, &schedule, &UnitCost, Placement::Fixed, budget)
        .map_err(|e| e.to_string())?;
    Ok(vec![Item {
        name: format!("{}(l={layers}, d={devices}, g={group})", strategy.label()),
        kind: "pipeline",
        placement: Placement::Fixed,
        solved,
    }])
}

fn run() -> Result<bool, Exit> {
    let args = CERT.args()?;
    let job = Job::from_args(&args)?;
    let budget = args
        .num("--budget")
        .map_or_else(Budget::default, Budget::nodes);
    let items = match job {
        Job::Order {
            layers,
            k,
            sync,
            policy,
        } => certify_order_instance(layers, k, sync, policy, &budget),
        Job::Bundle {
            path,
            schedule,
            policy,
        } => certify_bundle(&path, schedule.as_deref(), policy, &budget),
        Job::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => certify_pipeline(layers, devices, strategy, group, &budget),
    };
    let items = items.map_err(|e| CERT.fail(2, e))?;
    args.write_report(&items, |i| item_to_json(i).to_pretty(), item_to_human)?;
    // A proven-improvable schedule is a finding; optimal and
    // budget-exhausted certificates are clean runs.
    Ok(items
        .iter()
        .any(|i| matches!(i.solved.certificate, Certificate::Improvable { .. })))
}

fn main() -> ExitCode {
    finish(run())
}
