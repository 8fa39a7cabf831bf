//! `tune_large`: a closed loop over a fixed set of large tuning
//! instances, one at a time, through the handler's own path.
//!
//! Restarts run one after another ([`Restarts::Sequential`]): on a
//! 2-vCPU host, the default three restart threads plus the caller made
//! the instance times drift twice as much between runs, and the result
//! is the same either way. `serve_mix` keeps the threads.

use crate::path::{self, Outcome, Restarts::Sequential};
use crate::probe::Host;
use crate::spans::{for_request, span};
use crate::stats::{median, Rng};
use crate::{setup_sample, Golden, Item, Phase};
use ooo_core::cost::UnitCost;
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::Value;
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::TrainGraph;
use ooo_serve::handlers::handle;
use ooo_serve::protocol::Command;
use ooo_serve::Tier;
use std::time::{Duration, Instant};

/// Latency limit an instance must meet to count as served in time.
const SLO_MS: f64 = 10_000.0;

/// The instance set, in canonical order.
pub const INSTANCES: [&str; 5] = [
    "order-48",
    "order-32-capped",
    "gpipe-48x8",
    "pipe2-128x8-w4",
    "bundle-resnet50",
];

/// Builds the ResNet-50 bundle the `bundle` instance tunes: the
/// conventional order plus reverse first-10, serialized and parsed back
/// as a client's bundle file would be.
fn resnet_bundle() -> Result<ScheduleBundle, String> {
    let model = ooo_models::zoo::resnet(50);
    let graph = TrainGraph::data_parallel(model.num_layers());
    let mut bundle = ScheduleBundle::new(&model.name, &graph);
    bundle
        .add_order("conventional", &graph, graph.conventional_backprop())
        .map_err(|e| e.to_string())?;
    let rk = reverse_first_k::<UnitCost>(&graph, 10, None).map_err(|e| e.to_string())?;
    bundle
        .add_order("reverse_first_10", &graph, rk)
        .map_err(|e| e.to_string())?;
    let text = bundle.to_json().map_err(|e| e.to_string())?;
    span("core.json", || ScheduleBundle::from_json(&text)).map_err(|e| e.to_string())
}

fn run_instance(
    name: &str,
    bundle: &ScheduleBundle,
    clock: &mut Duration,
) -> Result<Vec<Outcome>, String> {
    match name {
        "order-48" => path::order(48, 0, 3, Tier::Full, None, Sequential, clock).map(|o| vec![o]),
        "order-32-capped" => {
            path::order(32, 0, 3, Tier::Full, Some(90), Sequential, clock).map(|o| vec![o])
        }
        "gpipe-48x8" => path::pipeline(48, 8, Strategy::GPipe, Tier::Full, None, Sequential, clock)
            .map(|o| vec![o]),
        "pipe2-128x8-w4" => path::pipeline(
            128,
            8,
            Strategy::OooPipe2,
            Tier::Full,
            Some(4),
            Sequential,
            clock,
        )
        .map(|o| vec![o]),
        "bundle-resnet50" => path::bundle(bundle, Sequential, clock),
        other => Err(format!("unknown instance {other}")),
    }
}

/// Runs whole passes over the instance set, in a seeded order, until
/// `seconds` have elapsed (at least one pass). An instance's time covers
/// the handler-equivalent calls only (see [`path`]) and is scaled by the
/// host probes on either side of it; `throughput_per_s` is the set's
/// size over the sum of each instance's median scaled time, so one slow
/// instance moves it less than a whole slow pass would. Set-up is
/// sampled after each instance, between probes of its own.
pub fn run(seed: u64, seconds: f64, golden: &mut Golden) -> Result<Phase, String> {
    let bundle = resnet_bundle()?;
    let mut rng = Rng::new(seed);
    let mut phase = Phase {
        slo_ms: SLO_MS,
        ..Phase::default()
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); INSTANCES.len()];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); INSTANCES.len()];
    let mut host = Host::new();
    let start = Instant::now();
    while phase.items.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..INSTANCES.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let name = INSTANCES[i];
            let mut clock = Duration::ZERO;
            let outs = for_request(i as i64, || {
                span("bench.instance", || run_instance(name, &bundle, &mut clock))
            });
            let ms = clock.as_secs_f64() * 1e3;
            let scaled_ms = host.scale(ms);
            phase.attempted += 1;
            let outs = match outs {
                Ok(o) => o,
                Err(e) => {
                    phase.fail(format!("tune_large {name}: {e}"));
                    phase.items.push(Item {
                        ms,
                        ..Item::default()
                    });
                    continue;
                }
            };
            let mut ok = true;
            for o in &outs {
                ok &= golden.check(&format!("tune_large/{}", o.name), &o.digest, &mut phase);
            }
            if !ok {
                phase.failed += 1;
            }
            times[i].push(scaled_ms);
            raw[i].push(ms);
            let secs = setup_sample(resnet_bundle);
            phase.push_setup(&mut host, secs);
            phase.items.push(Item {
                ms,
                ok,
                baseline: outs.iter().map(|o| o.baseline as f64).sum(),
                delivered: outs.iter().map(|o| o.certified as f64).sum(),
            });
        }
    }
    let per_s =
        |t: &[Vec<f64>]| INSTANCES.len() as f64 * 1e3 / t.iter().map(|t| median(t)).sum::<f64>();
    phase.throughput.push(per_s(&times));
    phase.raw_throughput.push(per_s(&raw));
    phase.probes = host.probes;
    Ok(phase)
}

/// Records every instance's digest and checks its certified makespans
/// against `handlers::handle` on the same request. `pipe2-128x8-w4` has
/// no request form (the handler takes no window) and is only recorded.
pub fn record(golden: &mut Golden, phase: &mut Phase) -> Result<(), String> {
    let bundle = resnet_bundle()?;
    let policy = CommPolicy::PriorityByLayer;
    for name in INSTANCES {
        let mut clock = Duration::ZERO;
        let outs = match run_instance(name, &bundle, &mut clock) {
            Ok(o) => o,
            Err(e) => {
                phase.fail(format!("tune_large {name}: {e}"));
                continue;
            }
        };
        for o in &outs {
            golden.check(&format!("tune_large/{}", o.name), &o.digest, phase);
        }
        let cmd = match name {
            "order-48" | "order-32-capped" => Command::Order {
                layers: if name == "order-48" { 48 } else { 32 },
                k: 0,
                sync: 3,
                policy,
            },
            "gpipe-48x8" => Command::Pipeline {
                layers: 48,
                devices: 8,
                strategy: Strategy::GPipe,
                group: 1,
            },
            "bundle-resnet50" => Command::Bundle {
                bundle: bundle.clone(),
                schedule: None,
                policy,
                canonical: String::new(),
            },
            _ => continue,
        };
        let payload = handle(&cmd, Tier::Full, None, None, None, outs[0].memory_cap, 0);
        let mut handled = Vec::new();
        if let Ok(v) = Value::parse(&payload.body) {
            certified_makespans(&v, &mut handled);
        }
        let ours: Vec<f64> = outs.iter().map(|o| o.certified as f64).collect();
        if handled != ours {
            phase.fail(format!(
                "tune_large {name}: path certifies {ours:?}, handler says {}",
                payload.body
            ));
        }
    }
    Ok(())
}

/// Every `certified_makespan` in `v`, in document order.
fn certified_makespans(v: &Value, out: &mut Vec<f64>) {
    match v {
        Value::Obj(fields) => {
            for (k, f) in fields {
                match (k.as_str(), f.as_f64()) {
                    ("certified_makespan", Some(m)) => out.push(m),
                    _ => certified_makespans(f, out),
                }
            }
        }
        Value::Arr(items) => items.iter().for_each(|i| certified_makespans(i, out)),
        _ => {}
    }
}
