//! `ooo-memcheck` — static memory-lifetime analysis of schedules.
//!
//! Runs the exact multi-lane live/peak ledger (`ooo_verify::mem`) and
//! the OM-series lifetime rules over every order and schedule of a
//! JSON-exported [`ScheduleBundle`], or over a synthetic reverse-first-k
//! realization built in-process:
//!
//! ```text
//! ooo-memcheck bundle <bundle.json> [--schedule NAME] [--budget BYTES]
//!                     [--baseline] [--json] [--out FILE]
//! ooo-memcheck order --layers N [--k K] [--sync S] [--budget BYTES]
//!                    [--baseline] [--json] [--out FILE]
//! ```
//!
//! `--budget BYTES` arms the `OM301` peak-over-budget rule; `--baseline`
//! arms the `OM501` reorder-inflates-peak comparison against the
//! in-order schedule. Exit status: `0` when no OM rule fired, `1` when
//! any finding (error or advice) fired, `2` on usage or I/O problems.

use ooo_core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use ooo_verify::mem::{buffer_name, check_schedule, MemAnalysis, MemCheckOptions};
use std::process::ExitCode;

enum Mode {
    Bundle {
        path: String,
    },
    Order {
        layers: usize,
        k: usize,
        sync: SimTime,
    },
}

struct Args {
    mode: Mode,
    schedule: Option<String>,
    budget: Option<u64>,
    baseline: bool,
    json: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: ooo-memcheck bundle <bundle.json> [--schedule NAME] \
                     [--budget BYTES] [--baseline] [--json] [--out FILE]\n\
                     \x20      ooo-memcheck order --layers N [--k K] [--sync S] \
                     [--budget BYTES] [--baseline] [--json] [--out FILE]";

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mode_word = argv.next().ok_or_else(|| USAGE.to_string())?;
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a non-negative integer: {v:?}"))
    };
    let mut schedule = None;
    let mut budget = None;
    let mut baseline = false;
    let mut json = false;
    let mut out = None;
    let mut path = String::new();
    let mut layers: Option<usize> = None;
    let mut k = 0usize;
    let mut sync: SimTime = 3;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--schedule" => schedule = Some(need_value(&mut argv, "--schedule")?),
            "--budget" => {
                budget = Some(parse_num("--budget", need_value(&mut argv, "--budget")?)?);
            }
            "--layers" => {
                layers = Some(parse_num("--layers", need_value(&mut argv, "--layers")?)? as usize);
            }
            "--k" => k = parse_num("--k", need_value(&mut argv, "--k")?)? as usize,
            "--sync" => sync = parse_num("--sync", need_value(&mut argv, "--sync")?)? as SimTime,
            "--baseline" => baseline = true,
            "--json" => json = true,
            "--out" => out = Some(need_value(&mut argv, "--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other if mode_word == "bundle" && path.is_empty() => path = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let mode = match mode_word.as_str() {
        "bundle" => {
            if path.is_empty() {
                return Err(USAGE.to_string());
            }
            Mode::Bundle { path }
        }
        "order" => {
            let layers = layers.ok_or("order mode needs --layers")?;
            if layers == 0 {
                return Err("--layers must be at least 1".to_string());
            }
            if k > layers {
                return Err(format!("--k is {k}, above --layers {layers}"));
            }
            Mode::Order { layers, k, sync }
        }
        other => return Err(format!("unknown mode: {other}\n{USAGE}")),
    };
    Ok(Args {
        mode,
        schedule,
        budget,
        baseline,
        json,
        out,
    })
}

/// One analyzed target rendered to the memcheck JSON document: the
/// ledger summary plus every OM finding.
fn analysis_to_json(name: &str, analysis: &MemAnalysis) -> String {
    let ledger = &analysis.ledger;
    let diags: Vec<Value> = analysis
        .diagnostics
        .iter()
        .map(|d| {
            let r = d.to_record();
            obj([
                ("rule", r.rule.as_str().into()),
                ("severity", r.severity.as_str().into()),
                (
                    "ops",
                    Value::Arr(r.ops.iter().map(|o| o.to_string().into()).collect()),
                ),
                (
                    "lanes",
                    Value::Arr(r.lanes.iter().map(|l| l.as_str().into()).collect()),
                ),
                ("message", r.message.as_str().into()),
            ])
        })
        .collect();
    obj([
        ("schedule", name.into()),
        ("initial_bytes", Value::Num(ledger.initial as f64)),
        ("peak_bytes", Value::Num(ledger.peak as f64)),
        ("peak_at", Value::Num(ledger.peak_at as f64)),
        (
            "resident_at_peak",
            Value::Arr(
                ledger
                    .resident_at_peak
                    .iter()
                    .map(|&b| buffer_name(b).into())
                    .collect(),
            ),
        ),
        ("final_bytes", Value::Num(ledger.final_usage as f64)),
        ("diagnostics", Value::Arr(diags)),
    ])
    .to_pretty()
}

fn analysis_to_human(name: &str, analysis: &MemAnalysis) -> String {
    let ledger = &analysis.ledger;
    let mut s = format!(
        "{name}: peak {} bytes at t={} (initial {}, final {})\n",
        ledger.peak, ledger.peak_at, ledger.initial, ledger.final_usage
    );
    if analysis.diagnostics.is_empty() {
        s.push_str("  clean: no findings\n");
    }
    for d in &analysis.diagnostics {
        s.push_str(&format!("  {d}\n"));
    }
    s
}

/// The named analysis targets of one run: flat orders become
/// single-lane schedules, multi-lane schedules are checked as-is.
fn bundle_targets(
    bundle: &ScheduleBundle,
    wanted: Option<&str>,
) -> Result<Vec<(String, Schedule)>, String> {
    Ok(bundle
        .select(wanted)?
        .iter()
        .map(|e| (e.name().to_string(), e.to_schedule()))
        .collect())
}

fn run<C: CostModel>(
    args: &Args,
    graph: &TrainGraph,
    cost: &C,
    targets: &[(String, Schedule)],
) -> ExitCode {
    let opts = MemCheckOptions {
        budget: args.budget,
        plan: None,
        baseline: args.baseline,
    };
    let mut any_finding = false;
    let mut json_docs: Vec<String> = Vec::new();
    let mut human = String::new();
    for (name, schedule) in targets {
        let analysis = match check_schedule(graph, schedule, cost, &opts) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("ooo-memcheck: cannot analyze {name:?}: {e}");
                return ExitCode::from(2);
            }
        };
        any_finding |= !analysis.diagnostics.is_empty();
        if args.json || args.out.is_some() {
            json_docs.push(analysis_to_json(name, &analysis));
        }
        human.push_str(&analysis_to_human(name, &analysis));
    }

    let json_output = || {
        if json_docs.len() == 1 {
            json_docs[0].clone()
        } else {
            format!("[\n{}\n]", json_docs.join(",\n"))
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json_output() + "\n") {
            eprintln!("ooo-memcheck: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        print!("{human}");
    }

    if any_finding {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    match &args.mode {
        Mode::Bundle { path } => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("ooo-memcheck: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Lenient parse: a bundle whose schedule is broken must still
            // load so the lifetime rules can attribute what is wrong.
            let bundle = match ScheduleBundle::from_json_lenient(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("ooo-memcheck: cannot parse {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let graph = match TrainGraph::new(bundle.graph.clone()) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("ooo-memcheck: invalid graph configuration: {e}");
                    return ExitCode::from(2);
                }
            };
            let targets = match bundle_targets(&bundle, args.schedule.as_deref()) {
                Ok(t) => t,
                Err(msg) => {
                    eprintln!("ooo-memcheck: {msg}");
                    return ExitCode::from(2);
                }
            };
            run(&args, &graph, &UnitCost, &targets)
        }
        Mode::Order { layers, k, sync } => {
            let graph = TrainGraph::data_parallel(*layers);
            let cost = TableCost::uniform(
                *layers,
                LayerCost {
                    sync_weight: *sync,
                    ..LayerCost::default()
                },
            );
            let order = match reverse_first_k(&graph, *k, None::<(u64, &TableCost)>) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("ooo-memcheck: cannot build reverse-first-{k}: {e}");
                    return ExitCode::from(2);
                }
            };
            let realized = match ooo_verify::predict::datapar_schedule(
                &graph,
                &order,
                &cost,
                CommPolicy::PriorityByLayer,
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ooo-memcheck: cannot realize the order: {e}");
                    return ExitCode::from(2);
                }
            };
            let name = format!("reverse-first-k(l={layers}, k={k})");
            run(&args, &graph, &cost, &[(name, realized)])
        }
    }
}
