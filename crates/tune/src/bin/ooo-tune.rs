//! `ooo-tune` — predictor-guided schedule autotuning.
//!
//! Three modes:
//!
//! ```text
//! ooo-tune order --layers N [--k K] [--sync NS] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune bundle <bundle.json> [--schedule NAME] [--policy fifo|bylayer]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ooo-tune pipeline --layers N --devices D --strategy NAME [--group G]
//!                [--restarts N] [--window W] [--memory-cap BYTES] [--json] [--out FILE]
//! ```
//!
//! `order` tunes a reverse-first-k backward order of a data-parallel
//! graph with uniform per-layer costs (`--sync` sets the `S[dW]`
//! duration). `bundle` tunes every order and schedule of a
//! JSON-exported [`ScheduleBundle`](ooo_core::export::ScheduleBundle). `pipeline` tunes one strategy's
//! op-level schedule under unit cost. `--layers`, `--devices` and
//! `--group` are at most 4096. Every winner is certified at tolerance 0
//! and must equal the search's score: an order against the data-parallel
//! simulator, a schedule (which no engine times independently) by a
//! fresh list-evaluation pass against the incremental evaluator.
//!
//! `--memory-cap BYTES` turns the objective into *min makespan subject
//! to ledger peak <= cap* ([`TuneOptions::memory_cap`]): candidates over
//! the cap are rejected, and the output reports the winner's exact
//! static ledger peak.
//!
//! Output is deterministic: the same input produces byte-identical
//! output (CI runs every invocation twice and compares). Exit status:
//! `0` when every input was tuned and certified (improved or already
//! optimal), `1` when an input schedule fails the `ooo-verify` safety
//! gate (the tuner refuses unsafe starting points), `2` on usage, I/O,
//! or parse problems.

use ooo_core::cli::{finish, load_bundle, Exit, Job, TUNE};
use ooo_core::json::{obj, Value};
use ooo_tune::job::{bundle_job, order_job, pipeline_job, Named, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::process::ExitCode;

/// One tuned (or refused) input, ready for rendering.
enum ItemResult {
    Tuned(Outcome),
    /// The input failed the safety gate; carries the fired rule codes.
    Unsafe {
        name: String,
        codes: Vec<String>,
    },
}

fn item_to_json(r: &ItemResult) -> Value {
    match r {
        ItemResult::Tuned(o) => o.to_json(Value::Arr(
            o.moves
                .iter()
                .map(|m| Value::Str(format!("{}: {}", m.kind.as_str(), m.description)))
                .collect(),
        )),
        ItemResult::Unsafe { name, codes } => obj([
            ("name", name.as_str().into()),
            ("kind", "unsafe".into()),
            (
                "diagnostics",
                Value::Arr(codes.iter().map(|c| c.as_str().into()).collect()),
            ),
        ]),
    }
}

fn item_to_human(r: &ItemResult) -> String {
    match r {
        ItemResult::Tuned(o) => {
            let mut s = format!(
                "{}: baseline {} -> tuned {} (certified {}, lower bound {}, {})\n",
                o.name,
                o.baseline,
                o.tuned,
                o.certified,
                o.lower_bound,
                if o.proven_optimal() {
                    "proven optimal"
                } else if o.tuned < o.baseline {
                    "improved"
                } else {
                    "already optimal under the move set"
                }
            );
            if let (Some(p), Some(c)) = (o.peak, o.cap) {
                s.push_str(&format!(
                    "  ledger peak {p} bytes vs cap {c} ({})\n",
                    if p <= c { "met" } else { "exceeded" }
                ));
            }
            for m in &o.moves {
                s.push_str(&format!(
                    "  {} {} -> {}\n",
                    m.kind.as_str(),
                    m.description,
                    m.predicted
                ));
            }
            s
        }
        ItemResult::Unsafe { name, codes } => {
            format!(
                "{name}: input fails the safety gate ({}), refusing to tune\n",
                codes.join(", ")
            )
        }
    }
}

/// Runs `job`: one named result per input.
fn tune(job: &Job, opts: &TuneOptions) -> Result<Vec<Named>, String> {
    Ok(match job {
        Job::Order {
            layers,
            k,
            sync,
            policy,
        } => vec![(
            "order".to_string(),
            order_job(*layers, *k, *sync, *policy, opts),
        )],
        Job::Bundle {
            path,
            schedule,
            policy,
        } => {
            let (bundle, _) = load_bundle(path)?;
            let results = bundle_job(&bundle, schedule.as_deref(), *policy, opts)?;
            if results.is_empty() {
                return Err("bundle holds no orders or schedules".to_string());
            }
            results
        }
        Job::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => vec![(
            "pipeline".to_string(),
            pipeline_job(*layers, *devices, *strategy, *group, opts),
        )],
    })
}

fn run() -> Result<bool, Exit> {
    let args = TUNE.args()?;
    let job = Job::from_args(&args)?;
    // Search knobs shared by every mode.
    let base = TuneOptions::default();
    let opts = TuneOptions {
        restarts: args.num("--restarts").unwrap_or(base.restarts),
        window: args.count("--window"),
        memory_cap: args.num("--memory-cap"),
        ..base
    };
    // Error split: gate refusals become exit-1 items, everything else
    // aborts with exit 2.
    let mut results = Vec::new();
    for (name, r) in tune(&job, &opts).map_err(|e| TUNE.fail(2, e))? {
        match r {
            Ok(o) => results.push(ItemResult::Tuned(o)),
            Err(Error::Unsafe(report)) => results.push(ItemResult::Unsafe {
                name,
                codes: report.rule_codes().iter().map(|c| c.to_string()).collect(),
            }),
            Err(e) => return Err(TUNE.fail(2, format!("{name}: {e}"))),
        }
    }
    args.write_report(&results, |r| item_to_json(r).to_pretty(), item_to_human)?;
    Ok(results
        .iter()
        .any(|r| matches!(r, ItemResult::Unsafe { .. })))
}

fn main() -> ExitCode {
    finish(run())
}
