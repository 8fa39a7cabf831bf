//! `ooo-lint` — lint JSON-exported schedule bundles.
//!
//! Reads a [`ScheduleBundle`](ooo_core::export::ScheduleBundle) document (see `ooo_core::export`), runs the
//! `ooo-verify` analyzer over every order and schedule in it (or a single
//! named one), and prints the findings — human-readable by default,
//! machine-readable with `--json`.
//!
//! ```text
//! ooo-lint bundle.json [--schedule NAME] [--budget BYTES] [--partial] [--json] [--out FILE]
//! ```
//!
//! Exit status: `0` when every checked schedule is clean (warnings
//! allowed), `1` when any error-severity rule fired, `2` on usage or I/O
//! problems.

use ooo_core::cli::{finish, load_bundle, Exit, LINT};
use ooo_core::export::diagnostics_to_json;
use ooo_verify::{Report, Verifier, VerifyConfig};
use std::process::ExitCode;

fn run() -> Result<bool, Exit> {
    let args = LINT.args()?;
    let path = args.positional().ok_or_else(|| Exit::usage(LINT.usage()))?;
    let (bundle, graph) = load_bundle(path).map_err(|e| LINT.fail(2, e))?;
    let entries = bundle
        .select(args.text("--schedule"))
        .map_err(|e| LINT.fail(2, e))?;
    let verifier = Verifier::new(&graph).with_config(VerifyConfig {
        require_complete: !args.switch("--partial"),
        memory_budget: args.num("--budget"),
        ..VerifyConfig::default()
    });
    // Flat orders become single-lane schedules; multi-lane schedules are
    // checked as-is.
    let reports: Vec<(&str, Report)> = entries
        .iter()
        .map(|e| (e.name(), verifier.verify(&e.to_schedule())))
        .collect();
    args.write_report(
        &reports,
        |(name, report)| diagnostics_to_json(name, &report.to_records()),
        |(name, report)| format!("{name}: {report}"),
    )?;
    Ok(reports.iter().any(|(_, r)| r.has_errors()))
}

fn main() -> ExitCode {
    finish(run())
}
