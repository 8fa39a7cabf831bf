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
//! JSON-exported [`ScheduleBundle`]; `pipeline` certifies one
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
use ooo_core::cost::UnitCost;
use ooo_core::datapar::CommPolicy;
use ooo_core::export::{BundleEntry, ScheduleBundle};
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use ooo_tune::job::order_instance;
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-cert order --layers N [--k K] [--sync NS] \
                     [--policy fifo|bylayer] [--budget NODES] [--json] [--out FILE]\n\
                     \x20      ooo-cert bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--budget NODES] [--json] [--out FILE]\n\
                     \x20      ooo-cert pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--budget NODES] [--json] [--out FILE]";

enum Mode {
    Order {
        layers: usize,
        k: usize,
        sync: SimTime,
        policy: CommPolicy,
    },
    Bundle {
        path: String,
        schedule: Option<String>,
        policy: CommPolicy,
    },
    Pipeline {
        layers: usize,
        devices: usize,
        strategy: Strategy,
        group: usize,
    },
}

struct Args {
    mode: Mode,
    budget: Budget,
    json: bool,
    out: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mode_word = argv.next().ok_or_else(|| USAGE.to_string())?;
    match mode_word.as_str() {
        "order" | "bundle" | "pipeline" => {}
        "--help" | "-h" => return Err(USAGE.to_string()),
        other => return Err(format!("unknown mode: {other:?}\n{USAGE}")),
    }
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_usize = |flag: &str, v: String| {
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a count: {v:?}"))
    };
    let mut budget = Budget::default();
    let mut json = false;
    let mut out = None;
    let mut layers = None;
    let mut k = 0usize;
    let mut sync: SimTime = 3;
    let mut policy = CommPolicy::PriorityByLayer;
    let mut path = String::new();
    let mut schedule = None;
    let mut devices = None;
    let mut strategy = None;
    let mut group = 1usize;
    while let Some(arg) = argv.next() {
        match (mode_word.as_str(), arg.as_str()) {
            (_, "--budget") => {
                budget = Budget::nodes(
                    parse_usize("--budget", need_value(&mut argv, "--budget")?)? as u64
                )
            }
            (_, "--json") => json = true,
            (_, "--out") => out = Some(need_value(&mut argv, "--out")?),
            (_, "--help" | "-h") => return Err(USAGE.to_string()),
            ("order" | "pipeline", "--layers") => {
                layers = Some(parse_usize("--layers", need_value(&mut argv, "--layers")?)?)
            }
            ("order", "--k") => k = parse_usize("--k", need_value(&mut argv, "--k")?)?,
            ("order", "--sync") => {
                sync = parse_usize("--sync", need_value(&mut argv, "--sync")?)? as SimTime
            }
            ("order" | "bundle", "--policy") => {
                policy = CommPolicy::parse(&need_value(&mut argv, "--policy")?)?
            }
            ("bundle", "--schedule") => schedule = Some(need_value(&mut argv, "--schedule")?),
            ("bundle", other) if other.starts_with('-') => {
                return Err(format!("unknown flag: {other}"))
            }
            ("bundle", other) if path.is_empty() => path = other.to_string(),
            ("pipeline", "--devices") => {
                devices = Some(parse_usize(
                    "--devices",
                    need_value(&mut argv, "--devices")?,
                )?)
            }
            ("pipeline", "--strategy") => {
                strategy = Some(Strategy::parse(&need_value(&mut argv, "--strategy")?)?)
            }
            ("pipeline", "--group") => {
                group = parse_usize("--group", need_value(&mut argv, "--group")?)?
            }
            (_, other) => return Err(format!("unexpected argument: {other}")),
        }
    }
    let mode = match (mode_word.as_str(), layers, devices, strategy) {
        ("order", Some(layers), _, _) if layers > 0 && k <= layers => Mode::Order {
            layers,
            k,
            sync,
            policy,
        },
        ("bundle", ..) if !path.is_empty() => Mode::Bundle {
            path,
            schedule,
            policy,
        },
        ("pipeline", Some(layers), Some(devices), Some(strategy))
            if layers > 0 && devices > 0 && group >= 1 =>
        {
            Mode::Pipeline {
                layers,
                devices,
                strategy,
                group,
            }
        }
        _ => return Err(USAGE.to_string()),
    };
    Ok(Args {
        mode,
        budget,
        json,
        out,
    })
}

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

fn run_order_mode(
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    budget: &Budget,
) -> Result<Item, String> {
    let inst = order_instance(layers, k, sync).map_err(|e| e.to_string())?;
    let (_, solved) = certify_order(&inst.graph, &inst.order, &inst.cost, policy, budget)
        .map_err(|e| e.to_string())?;
    Ok(Item {
        name: inst.name,
        kind: "order",
        placement: Placement::ByClass,
        solved,
    })
}

fn run_bundle_mode(
    path: &str,
    wanted: Option<&str>,
    policy: CommPolicy,
    budget: &Budget,
) -> Result<Vec<Item>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bundle = ScheduleBundle::from_json_lenient(&text)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let graph = TrainGraph::new(bundle.graph.clone())
        .map_err(|e| format!("invalid graph configuration: {e}"))?;
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

fn run_pipeline_mode(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    group: usize,
    budget: &Budget,
) -> Result<Item, String> {
    let (graph, schedule) = ooo_core::pipeline::op_level_schedule(layers, devices, strategy, group);
    // Device placement is part of the pipeline strategy: certify the
    // per-lane orderings only.
    let solved = certify_with(&graph, &schedule, &UnitCost, Placement::Fixed, budget)
        .map_err(|e| e.to_string())?;
    Ok(Item {
        name: format!("{}(l={layers}, d={devices}, g={group})", strategy.label()),
        kind: "pipeline",
        placement: Placement::Fixed,
        solved,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let items = match &args.mode {
        Mode::Order {
            layers,
            k,
            sync,
            policy,
        } => run_order_mode(*layers, *k, *sync, *policy, &args.budget).map(|i| vec![i]),
        Mode::Bundle {
            path,
            schedule,
            policy,
        } => run_bundle_mode(path, schedule.as_deref(), *policy, &args.budget),
        Mode::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => run_pipeline_mode(*layers, *devices, *strategy, *group, &args.budget).map(|i| vec![i]),
    };
    let items = match items {
        Ok(items) => items,
        Err(msg) => {
            eprintln!("ooo-cert: {msg}");
            return ExitCode::from(2);
        }
    };

    let json_output = || {
        let docs: Vec<String> = items.iter().map(|i| item_to_json(i).to_pretty()).collect();
        if docs.len() == 1 {
            docs[0].clone()
        } else {
            format!("[\n{}\n]", docs.join(",\n"))
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json_output() + "\n") {
            eprintln!("ooo-cert: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        for i in &items {
            print!("{}", item_to_human(i));
        }
    }

    // A proven-improvable schedule is a finding; optimal and
    // budget-exhausted certificates are clean runs.
    if items
        .iter()
        .any(|i| matches!(i.solved.certificate, Certificate::Improvable { .. }))
    {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
