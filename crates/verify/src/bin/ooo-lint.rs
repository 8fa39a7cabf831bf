//! `ooo-lint` — lint JSON-exported schedule bundles.
//!
//! Reads a [`ScheduleBundle`] document (see `ooo_core::export`), runs the
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

use ooo_core::export::{diagnostics_to_json, ScheduleBundle};
use ooo_core::schedule::Schedule;
use ooo_core::TrainGraph;
use ooo_verify::{Verifier, VerifyConfig};
use std::process::ExitCode;

struct Args {
    bundle_path: String,
    schedule: Option<String>,
    budget: Option<u64>,
    partial: bool,
    json: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: ooo-lint <bundle.json> [--schedule NAME] [--budget BYTES] \
                     [--partial] [--json] [--out FILE]";

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mut args = Args {
        bundle_path: String::new(),
        schedule: None,
        budget: None,
        partial: false,
        json: false,
        out: None,
    };
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--schedule" => args.schedule = Some(need_value(&mut argv, "--schedule")?),
            "--budget" => {
                let v = need_value(&mut argv, "--budget")?;
                args.budget = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--budget: not a byte count: {v:?}"))?,
                );
            }
            "--partial" => args.partial = true,
            "--json" => args.json = true,
            "--out" => args.out = Some(need_value(&mut argv, "--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other if args.bundle_path.is_empty() => args.bundle_path = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if args.bundle_path.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let text = match std::fs::read_to_string(&args.bundle_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ooo-lint: cannot read {}: {e}", args.bundle_path);
            return ExitCode::from(2);
        }
    };
    // Lenient parse: a bundle whose schedule is broken must still load so
    // the analyzer can explain what is wrong with it.
    let bundle = match ScheduleBundle::from_json_lenient(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ooo-lint: cannot parse {}: {e}", args.bundle_path);
            return ExitCode::from(2);
        }
    };
    let graph = match TrainGraph::new(bundle.graph.clone()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ooo-lint: invalid graph configuration: {e}");
            return ExitCode::from(2);
        }
    };

    // Flat orders become single-lane schedules; multi-lane schedules are
    // checked as-is.
    let targets: Vec<(String, Schedule)> = match bundle.select(args.schedule.as_deref()) {
        Ok(entries) => entries
            .iter()
            .map(|e| (e.name().to_string(), e.to_schedule()))
            .collect(),
        Err(msg) => {
            eprintln!("ooo-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    let verifier = Verifier::new(&graph).with_config(VerifyConfig {
        require_complete: !args.partial,
        memory_budget: args.budget,
        ..VerifyConfig::default()
    });

    let mut any_error = false;
    let mut json_docs: Vec<String> = Vec::new();
    let mut human = String::new();
    for (name, schedule) in &targets {
        let report = verifier.verify(schedule);
        any_error |= report.has_errors();
        if args.json || args.out.is_some() {
            json_docs.push(diagnostics_to_json(name, &report.to_records()));
        }
        human.push_str(&format!("{name}: {report}"));
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
            eprintln!("ooo-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        print!("{human}");
    }

    if any_error {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
