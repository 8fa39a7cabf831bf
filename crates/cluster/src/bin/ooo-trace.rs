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
//!   pipeline  --strategy gpipe|pipedream|dapple|ooo-pipe1|ooo-pipe2|…
//!             --devices N  --micro N                        --batch N
//!             (any name `Strategy::parse` takes: a label or a wire name)
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
use ooo_core::cli::{finish, Args, Exit, TRACE};
use ooo_core::pipeline::Strategy;
use ooo_core::trace::Timeline;
use ooo_models::zoo;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;
use std::process::ExitCode;

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
    let model = model_by_name(args.text("--model").unwrap_or("resnet50"))?;
    let batch = args.count("--batch").unwrap_or(64);
    let micro = args.count("--micro").unwrap_or(4);
    let devices = args.count("--devices").unwrap_or(4);
    let gpu = GpuProfile::v100();
    match args.text("--system").unwrap_or_default() {
        "single" => {
            let engine = match args.text("--engine").unwrap_or("ooo-xla") {
                "tf" => single::Engine::TensorFlow,
                "xla" => single::Engine::Xla,
                "nimble" => single::Engine::Nimble,
                "ooo-xla-opt1" => single::Engine::OooXlaOpt1,
                "ooo-xla" => single::Engine::OooXla,
                other => return Err(format!("unknown engine: {other}")),
            };
            single::run(&model, batch, &gpu, engine)
                .map(|r| {
                    r.trace
                        .to_timeline(&format!("single/{}/{}", engine.name(), model.name))
                })
                .map_err(|e| format!("single-GPU simulation failed: {e}"))
        }
        "datapar" => {
            let comm = match args.text("--comm").unwrap_or("ooo-byteps") {
                "horovod" => datapar::CommSystem::Horovod,
                "byteps" => datapar::CommSystem::BytePS,
                "ooo-byteps" => datapar::CommSystem::OooBytePS,
                other => return Err(format!("unknown comm system: {other}")),
            };
            let gpus = args.count("--gpus").unwrap_or(16);
            datapar::run_fault_injected(
                &model,
                batch,
                &gpu,
                &ClusterTopology::pub_a(),
                gpus,
                comm,
                &datapar::FaultEnv::none(),
                None,
            )
            .map(|(_, mut tl)| {
                // A fault-free run is not named as faulted.
                tl.name = format!("datapar/{}/{gpus}gpus", comm.name());
                tl
            })
            .map_err(|e| format!("data-parallel simulation failed: {e}"))
        }
        "pipeline" => {
            let strategy = Strategy::parse(args.text("--strategy").unwrap_or("ooo-pipe2"))?;
            run_pipeline(
                &model,
                batch,
                micro,
                &gpu,
                &LinkSpec::nvlink(),
                devices,
                strategy,
                1,
                2,
            )
            .map(|r| {
                r.result
                    .to_timeline(&format!("pipeline/{}/{devices}dev", strategy.label()))
            })
            .map_err(|e| format!("pipeline simulation failed: {e}"))
        }
        "hybrid" => hybrid::run_combined_traced(
            &model,
            batch,
            micro,
            &gpu,
            &LinkSpec::nvlink(),
            &LinkSpec::ethernet_10g(),
            devices,
            args.count("--replicas").unwrap_or(4),
            args.count("--k").unwrap_or(2),
            2,
        )
        .map(|(_, tl)| tl)
        .map_err(|e| format!("hybrid simulation failed: {e}")),
        other => Err(format!(
            "unknown system: {other:?} (want single|datapar|pipeline|hybrid)"
        )),
    }
}

fn run() -> Result<bool, Exit> {
    let args = TRACE.args()?;
    let export = args.mode() == "export";
    let timeline = match (args.positional(), args.text("--system")) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| TRACE.fail(2, format!("cannot read {path}: {e}")))?;
            Timeline::from_chrome_json(&text)
                .map_err(|e| TRACE.fail(1, format!("cannot parse {path}: {e}")))?
        }
        (None, Some(_)) => build_timeline(&args).map_err(|e| TRACE.fail(1, e))?,
        (None, None) if export => return Err(Exit::usage("export needs --system".to_string())),
        (None, None) => {
            let msg = "summarize needs a trace file or --system";
            return Err(Exit::usage(msg.to_string()));
        }
        (Some(path), Some(_)) => {
            let msg = format!("summarize takes a trace file or --system, not both (got {path:?})");
            return Err(Exit::usage(msg));
        }
    };
    args.emit(&if export {
        timeline.to_chrome_json() + "\n"
    } else {
        timeline.summarize().render()
    })?;
    Ok(false)
}

fn main() -> ExitCode {
    finish(run())
}
