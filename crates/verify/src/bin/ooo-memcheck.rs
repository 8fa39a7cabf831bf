//! `ooo-memcheck` — static memory-lifetime analysis of schedules.
//!
//! Runs the exact multi-lane live/peak ledger (`ooo_verify::mem`) and
//! the OM-series lifetime rules over every order and schedule of a
//! JSON-exported [`ScheduleBundle`](ooo_core::export::ScheduleBundle), or over a synthetic reverse-first-k
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

use ooo_core::cli::{finish, load_bundle, Args, Exit, MEMCHECK};
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::order_instance;
use ooo_core::schedule::Schedule;
use ooo_core::TrainGraph;
use ooo_verify::mem::{buffer_name, check_schedule, MemAnalysis, MemCheckOptions};
use std::process::ExitCode;

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

fn check<C: CostModel>(
    args: &Args,
    graph: &TrainGraph,
    cost: &C,
    targets: &[(String, Schedule)],
) -> Result<bool, Exit> {
    let opts = MemCheckOptions {
        budget: args.num("--budget"),
        plan: None,
        baseline: args.switch("--baseline"),
    };
    let analyses = targets
        .iter()
        .map(|(name, schedule)| {
            check_schedule(graph, schedule, cost, &opts)
                .map(|a| (name, a))
                .map_err(|e| MEMCHECK.fail(2, format!("cannot analyze {name:?}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    args.write_report(
        &analyses,
        |(name, a)| analysis_to_json(name, a),
        |(name, a)| analysis_to_human(name, a),
    )?;
    Ok(analyses.iter().any(|(_, a)| !a.diagnostics.is_empty()))
}

fn run() -> Result<bool, Exit> {
    let args = MEMCHECK.args()?;
    if args.mode() == "bundle" {
        let path = args.positional().filter(|p| !p.is_empty());
        let path = path.ok_or_else(|| Exit::usage(MEMCHECK.usage()))?;
        let (bundle, graph) = load_bundle(path).map_err(|e| MEMCHECK.fail(2, e))?;
        // Flat orders become single-lane schedules, multi-lane schedules
        // are checked as-is.
        let targets: Vec<(String, Schedule)> = bundle
            .select(args.text("--schedule"))
            .map_err(|e| MEMCHECK.fail(2, e))?
            .iter()
            .map(|e| (e.name().to_string(), e.to_schedule()))
            .collect();
        return check(&args, &graph, &UnitCost, &targets);
    }
    let layers = args.count("--layers");
    let layers = layers.ok_or_else(|| Exit::usage("order mode needs --layers".to_string()))?;
    let k = args.count("--k").unwrap_or(0);
    if layers == 0 {
        return Err(Exit::usage("--layers must be at least 1".to_string()));
    }
    if k > layers {
        return Err(Exit::usage(format!("--k is {k}, above --layers {layers}")));
    }
    let sync = args.num("--sync").unwrap_or(3);
    let inst = order_instance(layers, k, sync)
        .map_err(|e| MEMCHECK.fail(2, format!("cannot build reverse-first-{k}: {e}")))?;
    let realized = ooo_verify::predict::datapar_schedule(
        &inst.graph,
        &inst.order,
        &inst.cost,
        CommPolicy::PriorityByLayer,
    )
    .map_err(|e| MEMCHECK.fail(2, format!("cannot realize the order: {e}")))?;
    check(&args, &inst.graph, &inst.cost, &[(inst.name, realized)])
}

fn main() -> ExitCode {
    finish(run())
}
