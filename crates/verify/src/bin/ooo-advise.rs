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
//! and schedule in a JSON-exported [`ScheduleBundle`](ooo_core::export::ScheduleBundle); flat orders on a
//! data-parallel graph get the full reverse first-k analysis under the
//! chosen link policy. `pipeline` renders one strategy's op-level
//! schedule and evaluates it against the OOO-Pipe2 bubble bound.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when no advisory fired, `1` when at least one did, `2` on usage,
//! I/O, or parse problems.

use ooo_core::cli::{finish, load_bundle, Exit, ADVISE};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::BundleEntry;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_verify::perf::{advise_pipeline, PerfAdvisor, PerfReport};
use std::process::ExitCode;

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
    let (bundle, graph) = load_bundle(path)?;
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

fn run() -> Result<bool, Exit> {
    let args = ADVISE.args()?;
    let usage = || Exit::usage(ADVISE.usage());
    let reports = if args.mode() == "bundle" {
        let path = args
            .positional()
            .filter(|p| !p.is_empty())
            .ok_or_else(usage)?;
        let policy = args
            .text("--policy")
            .map_or(Ok(CommPolicy::PriorityByLayer), CommPolicy::parse);
        analyze_bundle(path, args.text("--schedule"), policy.map_err(Exit::usage)?)
            .map_err(|e| ADVISE.fail(2, e))?
    } else {
        let strategy = args.text("--strategy").map(Strategy::parse).transpose();
        let strategy = strategy.map_err(Exit::usage)?.ok_or_else(usage)?;
        let layers = args
            .count("--layers")
            .filter(|&l| l > 0)
            .ok_or_else(usage)?;
        let devices = args
            .count("--devices")
            .filter(|&d| d > 0)
            .ok_or_else(usage)?;
        let group = args.count("--group").unwrap_or(1);
        let report = advise_pipeline(layers, devices, strategy, group)
            .map_err(|e| ADVISE.fail(2, format!("pipeline analysis failed: {e}")))?;
        vec![(strategy.label().to_string(), report)]
    };
    args.write_report(
        &reports,
        |(name, r)| report_to_json(name, r).to_pretty(),
        |(name, r)| report_to_human(name, r),
    )?;
    Ok(reports.iter().any(|(_, r)| r.has_advice()))
}

fn main() -> ExitCode {
    finish(run())
}
