//! `ooo-advise` — static performance analysis of schedules.
//!
//! Two modes:
//!
//! ```text
//! ooo-advise bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer] [--json] [--out FILE]
//! ooo-advise pipeline --layers N --devices D --strategy NAME [--group G] [--json] [--out FILE]
//! ```
//!
//! `bundle` runs the [`ooo_verify::perf::PerfAdvisor`] over every order
//! and schedule in a JSON-exported [`ScheduleBundle`]; flat orders on a
//! data-parallel graph get the full reverse first-k analysis under the
//! chosen link policy. `pipeline` renders one strategy's op-level
//! schedule and evaluates it against the OOO-Pipe2 bubble bound.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when no advisory fired, `1` when at least one did, `2` on usage,
//! I/O, or parse problems.

use ooo_core::datapar::CommPolicy;
use ooo_core::export::{BundleEntry, ScheduleBundle};
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::TrainGraph;
use ooo_verify::perf::{advise_pipeline, PerfAdvisor, PerfReport};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-advise bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--json] [--out FILE]\n\
                     \x20      ooo-advise pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--json] [--out FILE]";

enum Mode {
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
    json: bool,
    out: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mode_word = argv.next().ok_or_else(|| USAGE.to_string())?;
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_usize = |flag: &str, v: String| {
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a count: {v:?}"))
    };
    let mut json = false;
    let mut out = None;

    let mode = match mode_word.as_str() {
        "bundle" => {
            let mut path = String::new();
            let mut schedule = None;
            let mut policy = CommPolicy::PriorityByLayer;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--schedule" => schedule = Some(need_value(&mut argv, "--schedule")?),
                    "--policy" => policy = CommPolicy::parse(&need_value(&mut argv, "--policy")?)?,
                    "--json" => json = true,
                    "--out" => out = Some(need_value(&mut argv, "--out")?),
                    "--help" | "-h" => return Err(USAGE.to_string()),
                    other if other.starts_with('-') => {
                        return Err(format!("unknown flag: {other}"))
                    }
                    other if path.is_empty() => path = other.to_string(),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            if path.is_empty() {
                return Err(USAGE.to_string());
            }
            Mode::Bundle {
                path,
                schedule,
                policy,
            }
        }
        "pipeline" => {
            let mut layers = None;
            let mut devices = None;
            let mut strategy = None;
            let mut group = 1usize;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--layers" => {
                        layers = Some(parse_usize("--layers", need_value(&mut argv, "--layers")?)?)
                    }
                    "--devices" => {
                        devices = Some(parse_usize(
                            "--devices",
                            need_value(&mut argv, "--devices")?,
                        )?)
                    }
                    "--strategy" => {
                        strategy = Some(Strategy::parse(&need_value(&mut argv, "--strategy")?)?)
                    }
                    "--group" => group = parse_usize("--group", need_value(&mut argv, "--group")?)?,
                    "--json" => json = true,
                    "--out" => out = Some(need_value(&mut argv, "--out")?),
                    "--help" | "-h" => return Err(USAGE.to_string()),
                    other => return Err(format!("unexpected argument: {other}")),
                }
            }
            match (layers, devices, strategy) {
                (Some(layers), Some(devices), Some(strategy)) if layers > 0 && devices > 0 => {
                    Mode::Pipeline {
                        layers,
                        devices,
                        strategy,
                        group,
                    }
                }
                _ => return Err(USAGE.to_string()),
            }
        }
        "--help" | "-h" => return Err(USAGE.to_string()),
        other => return Err(format!("unknown mode: {other:?}\n{USAGE}")),
    };
    Ok(Args { mode, json, out })
}

fn gap_value(gap: Option<f64>) -> Value {
    match gap {
        None => Value::Null,
        Some(g) if g.is_infinite() => Value::Str("inf".to_string()),
        // Fixed precision keeps the document byte-stable.
        Some(g) => Value::Str(format!("{g:.3}")),
    }
}

fn report_to_json(name: &str, report: &PerfReport) -> Value {
    let advice: Vec<Value> = report
        .advice
        .iter()
        .map(|a| {
            obj([
                ("rule", a.diagnostic.rule.code().into()),
                ("severity", a.diagnostic.rule.severity().as_str().into()),
                (
                    "ops",
                    Value::Arr(
                        a.diagnostic
                            .ops
                            .iter()
                            .map(|o| Value::Str(o.to_string()))
                            .collect(),
                    ),
                ),
                (
                    "lanes",
                    Value::Arr(
                        a.diagnostic
                            .lanes
                            .iter()
                            .map(|l| l.as_str().into())
                            .collect(),
                    ),
                ),
                ("message", a.diagnostic.message.as_str().into()),
                (
                    "suggestion",
                    match &a.suggestion {
                        Some(s) => Value::Str(s.describe()),
                        None => Value::Null,
                    },
                ),
            ])
        })
        .collect();
    obj([
        ("schedule", name.into()),
        (
            "predicted_makespan",
            Value::Num(report.predicted_makespan as f64),
        ),
        ("lower_bound", Value::Num(report.lower_bound as f64)),
        (
            "scheduled_lower_bound",
            Value::Num(report.scheduled_lower_bound as f64),
        ),
        ("proven_optimal", Value::Bool(report.proven_optimal)),
        ("optimality_gap", gap_value(report.optimality_gap)),
        ("advice", Value::Arr(advice)),
    ])
}

fn report_to_human(name: &str, report: &PerfReport) -> String {
    let gap = match report.optimality_gap {
        None => "n/a (partial)".to_string(),
        Some(g) if g.is_infinite() => "inf".to_string(),
        Some(g) => format!("{g:.3}"),
    };
    let mut s = format!(
        "{name}: predicted makespan {}, lower bound {}, gap {gap}{}\n",
        report.predicted_makespan,
        report.lower_bound,
        if report.proven_optimal {
            " (proven optimal)"
        } else {
            ""
        }
    );
    for a in &report.advice {
        s.push_str(&format!(
            "  {} [{}]: {}\n",
            a.diagnostic.rule.code(),
            a.diagnostic.rule.severity().as_str(),
            a.diagnostic.message
        ));
        if let Some(fix) = &a.suggestion {
            s.push_str(&format!("    fix: {}\n", fix.describe()));
        }
    }
    s
}

fn analyze_bundle(
    path: &str,
    wanted: Option<&str>,
    policy: CommPolicy,
) -> Result<Vec<(String, PerfReport)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bundle = ScheduleBundle::from_json_lenient(&text)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let graph = TrainGraph::new(bundle.graph.clone())
        .map_err(|e| format!("invalid graph configuration: {e}"))?;
    let advisor = PerfAdvisor::new(&graph);

    let entries = bundle.select(wanted)?;
    if entries.is_empty() {
        return Err("bundle holds no orders or schedules".to_string());
    }
    let mut reports = Vec::new();
    for entry in &entries {
        let name = entry.name();
        // Backward orders of a data-parallel graph run against the link
        // lane the engine would add; anything else is a flat schedule.
        // Exported orders may carry the sync/update/forward tail inline
        // (the simulator contract takes the backward pass alone and
        // appends the rest), so reduce to the backward subsequence first.
        let report = match entry {
            BundleEntry::Order(_, order) if graph.config().sync_weight_grads => {
                let backward: Vec<_> = order.iter().copied().filter(|o| o.is_backward()).collect();
                advisor.analyze_order(&backward, policy)
            }
            _ => advisor.analyze(&entry.to_schedule()),
        };
        let kind = match entry {
            BundleEntry::Order(..) => "order",
            BundleEntry::Schedule(..) => "schedule",
        };
        let report = report.map_err(|e| format!("{kind} {name:?}: {e}"))?;
        reports.push((name.to_string(), report));
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let reports = match &args.mode {
        Mode::Bundle {
            path,
            schedule,
            policy,
        } => match analyze_bundle(path, schedule.as_deref(), *policy) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("ooo-advise: {msg}");
                return ExitCode::from(2);
            }
        },
        Mode::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => match advise_pipeline(*layers, *devices, *strategy, *group) {
            Ok(r) => {
                vec![(strategy.label().to_string(), r)]
            }
            Err(e) => {
                eprintln!("ooo-advise: pipeline analysis failed: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let any_advice = reports.iter().any(|(_, r)| r.has_advice());
    let json_output = || {
        let docs: Vec<String> = reports
            .iter()
            .map(|(name, r)| report_to_json(name, r).to_pretty())
            .collect();
        if docs.len() == 1 {
            docs[0].clone()
        } else {
            format!("[\n{}\n]", docs.join(",\n"))
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json_output() + "\n") {
            eprintln!("ooo-advise: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        for (name, report) in &reports {
            print!("{}", report_to_human(name, report));
        }
    }

    if any_advice {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
