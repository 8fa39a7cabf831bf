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
//! JSON-exported [`ScheduleBundle`]. `pipeline` tunes one strategy's
//! op-level schedule under unit cost. Every winner is certified:
//! predicted makespan == simulated makespan, tolerance 0.
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

use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::SimTime;
use ooo_tune::job::{bundle_job, order_job, pipeline_job, Named, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-tune order --layers N [--k K] [--sync NS] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune bundle <bundle.json> [--schedule NAME] \
                     [--policy fifo|bylayer] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]\n\
                     \x20      ooo-tune pipeline --layers N --devices D --strategy NAME \
                     [--group G] [--restarts N] [--window W] \
                     [--memory-cap BYTES] [--json] [--out FILE]";

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
    /// Search knobs shared by every mode: `--restarts`, `--window`
    /// ([`TuneOptions::window`]) and `--memory-cap`
    /// ([`TuneOptions::memory_cap`]).
    opts: TuneOptions,
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
    let mut opts = TuneOptions::default();
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
            (_, "--restarts") => {
                opts.restarts =
                    parse_usize("--restarts", need_value(&mut argv, "--restarts")?)? as u64
            }
            (_, "--window") => {
                opts.window = Some(parse_usize("--window", need_value(&mut argv, "--window")?)?)
            }
            (_, "--memory-cap") => {
                let v = need_value(&mut argv, "--memory-cap")?;
                opts.memory_cap = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--memory-cap: not a byte count: {v:?}"))?,
                );
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
        opts,
        json,
        out,
    })
}

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

/// Runs the job of `mode`: one named result per input.
fn run(mode: &Mode, opts: &TuneOptions) -> Result<Vec<Named>, String> {
    Ok(match mode {
        Mode::Order {
            layers,
            k,
            sync,
            policy,
        } => vec![(
            "order".to_string(),
            order_job(*layers, *k, *sync, *policy, opts),
        )],
        Mode::Bundle {
            path,
            schedule,
            policy,
        } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let bundle = ScheduleBundle::from_json_lenient(&text)
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
            let results = bundle_job(&bundle, schedule.as_deref(), *policy, opts)?;
            if results.is_empty() {
                return Err("bundle holds no orders or schedules".to_string());
            }
            results
        }
        Mode::Pipeline {
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

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let named = match run(&args.mode, &args.opts) {
        Ok(named) => named,
        Err(msg) => {
            eprintln!("ooo-tune: {msg}");
            return ExitCode::from(2);
        }
    };
    // Error split: gate refusals become exit-1 items, everything else
    // aborts with exit 2.
    let mut results = Vec::new();
    for (name, r) in named {
        match r {
            Ok(o) => results.push(ItemResult::Tuned(o)),
            Err(Error::Unsafe(report)) => results.push(ItemResult::Unsafe {
                name,
                codes: report.rule_codes().iter().map(|c| c.to_string()).collect(),
            }),
            Err(e) => {
                eprintln!("ooo-tune: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let any_unsafe = results
        .iter()
        .any(|r| matches!(r, ItemResult::Unsafe { .. }));
    let json_output = || {
        let docs: Vec<String> = results
            .iter()
            .map(|r| item_to_json(r).to_pretty())
            .collect();
        if docs.len() == 1 {
            docs[0].clone()
        } else {
            format!("[\n{}\n]", docs.join(",\n"))
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, json_output() + "\n") {
            eprintln!("ooo-tune: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if args.json {
        println!("{}", json_output());
    } else {
        for r in &results {
            print!("{}", item_to_human(r));
        }
    }

    if any_unsafe {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
