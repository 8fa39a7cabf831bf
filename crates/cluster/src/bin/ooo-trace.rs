//! `ooo-trace` — export and summarize simulator timelines.
//!
//! Runs one simulator configuration, collects its unified timeline
//! (see `ooo_core::trace`), and either exports it as Chrome trace-event
//! JSON — loadable in Perfetto or `chrome://tracing` — or prints the
//! headline metrics: per-lane busy/stall time and utilization plus the
//! time-weighted counter means (e.g. SM occupancy).
//!
//! ```text
//! ooo-trace export --system SYS [options] [--out FILE]
//! ooo-trace summarize (<trace.json> | --system SYS [options])
//!
//! systems and their options:
//!   single    --engine tf|xla|nimble|ooo-xla-opt1|ooo-xla   --batch N
//!   datapar   --comm horovod|byteps|ooo-byteps  --gpus N    --batch N
//!   pipeline  --strategy gpipe|pipedream|dapple|ooo-pipe1|ooo-pipe2
//!             --devices N  --micro N                        --batch N
//!   hybrid    --devices N  --replicas N  --k N  --micro N   --batch N
//!
//! models: resnet50 (default), resnet101, densenet121, mobilenet,
//!         bert24, ffnn16
//! ```
//!
//! Exit status: `0` on success, `1` when the simulation or the trace
//! parse fails, `2` on usage or I/O problems. Never panics.

use ooo_cluster::pipeline::run as run_pipeline;
use ooo_cluster::{datapar, hybrid, single};
use ooo_core::pipeline::Strategy;
use ooo_core::trace::Timeline;
use ooo_models::zoo;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;
use std::process::ExitCode;

const USAGE: &str = "usage: ooo-trace <export|summarize> \
                     [<trace.json>] [--system single|datapar|pipeline|hybrid] \
                     [--model NAME] [--engine NAME] [--comm NAME] [--strategy NAME] \
                     [--batch N] [--micro N] [--gpus N] [--devices N] [--replicas N] \
                     [--k N] [--out FILE]";

#[derive(PartialEq, Eq, Clone, Copy)]
enum Cmd {
    Export,
    Summarize,
}

struct Args {
    cmd: Cmd,
    /// Positional trace file (summarize-from-file mode).
    input: Option<String>,
    system: Option<String>,
    model: String,
    engine: String,
    comm: String,
    strategy: String,
    batch: usize,
    micro: usize,
    gpus: usize,
    devices: usize,
    replicas: usize,
    k: usize,
    out: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let cmd = match argv.next().as_deref() {
        Some("export") => Cmd::Export,
        Some("summarize") => Cmd::Summarize,
        Some("--help") | Some("-h") | None => return Err(USAGE.to_string()),
        Some(other) => return Err(format!("unknown command: {other}\n{USAGE}")),
    };
    let mut args = Args {
        cmd,
        input: None,
        system: None,
        model: "resnet50".to_string(),
        engine: "ooo-xla".to_string(),
        comm: "ooo-byteps".to_string(),
        strategy: "ooo-pipe2".to_string(),
        batch: 64,
        micro: 4,
        gpus: 16,
        devices: 4,
        replicas: 4,
        k: 2,
        out: None,
    };
    let need_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let need_count = |argv: &mut std::env::Args, flag: &str| -> Result<usize, String> {
        let v = need_value(argv, flag)?;
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a count: {v:?}"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--system" => args.system = Some(need_value(&mut argv, "--system")?),
            "--model" => args.model = need_value(&mut argv, "--model")?,
            "--engine" => args.engine = need_value(&mut argv, "--engine")?,
            "--comm" => args.comm = need_value(&mut argv, "--comm")?,
            "--strategy" => args.strategy = need_value(&mut argv, "--strategy")?,
            "--batch" => args.batch = need_count(&mut argv, "--batch")?,
            "--micro" => args.micro = need_count(&mut argv, "--micro")?,
            "--gpus" => args.gpus = need_count(&mut argv, "--gpus")?,
            "--devices" => args.devices = need_count(&mut argv, "--devices")?,
            "--replicas" => args.replicas = need_count(&mut argv, "--replicas")?,
            "--k" => args.k = need_count(&mut argv, "--k")?,
            "--out" => args.out = Some(need_value(&mut argv, "--out")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other if args.input.is_none() => args.input = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    match (args.cmd, &args.input, &args.system) {
        (Cmd::Export, Some(path), _) => Err(format!("export takes no input file, got {path:?}")),
        (Cmd::Export, None, None) => Err("export needs --system".to_string()),
        (Cmd::Summarize, None, None) => Err("summarize needs a trace file or --system".to_string()),
        (Cmd::Summarize, Some(path), Some(_)) => Err(format!(
            "summarize takes a trace file or --system, not both (got {path:?})"
        )),
        _ => Ok(args),
    }
}

fn model_by_name(name: &str) -> Result<ModelSpec, String> {
    Ok(match name {
        "resnet50" => zoo::resnet(50),
        "resnet101" => zoo::resnet(101),
        "densenet121" => zoo::densenet121(12, 32),
        "mobilenet" => zoo::mobilenet_v3_large(1.0),
        "bert24" => zoo::bert(24, 128),
        "ffnn16" => zoo::ffnn16(4096),
        other => return Err(format!("unknown model: {other}")),
    })
}

/// Runs the selected simulator and returns its timeline.
fn build_timeline(args: &Args) -> Result<Timeline, String> {
    let model = model_by_name(&args.model)?;
    let gpu = GpuProfile::v100();
    let system = args.system.as_deref().unwrap_or_default();
    match system {
        "single" => {
            let engine = match args.engine.as_str() {
                "tf" => single::Engine::TensorFlow,
                "xla" => single::Engine::Xla,
                "nimble" => single::Engine::Nimble,
                "ooo-xla-opt1" => single::Engine::OooXlaOpt1,
                "ooo-xla" => single::Engine::OooXla,
                other => return Err(format!("unknown engine: {other}")),
            };
            single::run(&model, args.batch, &gpu, engine)
                .map(|r| {
                    r.trace
                        .to_timeline(&format!("single/{}/{}", engine.name(), model.name))
                })
                .map_err(|e| format!("single-GPU simulation failed: {e}"))
        }
        "datapar" => {
            let comm = match args.comm.as_str() {
                "horovod" => datapar::CommSystem::Horovod,
                "byteps" => datapar::CommSystem::BytePS,
                "ooo-byteps" => datapar::CommSystem::OooBytePS,
                other => return Err(format!("unknown comm system: {other}")),
            };
            datapar::run_fault_injected(
                &model,
                args.batch,
                &gpu,
                &ClusterTopology::pub_a(),
                args.gpus,
                comm,
                &datapar::FaultEnv::none(),
                None,
            )
            .map(|(_, mut tl)| {
                // A fault-free run is not named as faulted.
                tl.name = format!("datapar/{}/{}gpus", comm.name(), args.gpus);
                tl
            })
            .map_err(|e| format!("data-parallel simulation failed: {e}"))
        }
        "pipeline" => {
            let strategy = match args.strategy.as_str() {
                "gpipe" => Strategy::GPipe,
                "pipedream" => Strategy::PipeDream,
                "dapple" => Strategy::Dapple,
                "ooo-pipe1" => Strategy::OooPipe1,
                "ooo-pipe2" => Strategy::OooPipe2,
                other => return Err(format!("unknown strategy: {other}")),
            };
            run_pipeline(
                &model,
                args.batch,
                args.micro,
                &gpu,
                &LinkSpec::nvlink(),
                args.devices,
                strategy,
                1,
                2,
            )
            .map(|r| {
                r.result
                    .to_timeline(&format!("pipeline/{}/{}dev", args.strategy, args.devices))
            })
            .map_err(|e| format!("pipeline simulation failed: {e}"))
        }
        "hybrid" => hybrid::run_combined_traced(
            &model,
            args.batch,
            args.micro,
            &gpu,
            &LinkSpec::nvlink(),
            &LinkSpec::ethernet_10g(),
            args.devices,
            args.replicas,
            args.k,
            2,
        )
        .map(|(_, tl)| tl)
        .map_err(|e| format!("hybrid simulation failed: {e}")),
        other => Err(format!(
            "unknown system: {other:?} (want single|datapar|pipeline|hybrid)"
        )),
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

    let timeline = if let Some(path) = &args.input {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ooo-trace: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match Timeline::from_chrome_json(&text) {
            Ok(tl) => tl,
            Err(e) => {
                eprintln!("ooo-trace: cannot parse {path}: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match build_timeline(&args) {
            Ok(tl) => tl,
            Err(msg) => {
                eprintln!("ooo-trace: {msg}");
                return ExitCode::from(1);
            }
        }
    };

    match args.cmd {
        Cmd::Export => {
            let json = timeline.to_chrome_json();
            match &args.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, json + "\n") {
                        eprintln!("ooo-trace: cannot write {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                None => println!("{json}"),
            }
        }
        Cmd::Summarize => {
            let rendered = timeline.summarize().render();
            match &args.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, rendered) {
                        eprintln!("ooo-trace: cannot write {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                None => print!("{rendered}"),
            }
        }
    }
    ExitCode::SUCCESS
}
