//! `zoo_sim`: a closed loop over model zoo × strategy zoo × training
//! shape × device mix, plus the four cluster engines per model. No
//! tuning: generators, analyzer, predictor, simulators and memory
//! ledger do all the work.

use crate::probe::Host;
use crate::spans::{for_request, span};
use crate::stats::{digest, Rng};
use crate::{setup_sample, Golden, Item, Phase};
use ooo_cluster::strategy::{zoo, Shape};
use ooo_cluster::{datapar, hybrid, pipeline as cpipe, single};
use ooo_core::cost::TableCost;
use ooo_core::op::LayerId;
use ooo_core::pipeline::Strategy as PipeStrategy;
use ooo_gpusim::spec::{GpuSpec, WorkerFleet};
use ooo_models::cost::{to_table_cost, weight_bytes};
use ooo_models::{zoo as models, GpuProfile, ModelSpec};
use ooo_netsim::link::{DuplexLink, LinkSpec};
use ooo_netsim::topology::ClusterTopology;
use std::time::Instant;

/// Latency limit a cell must meet to count as served in time.
const SLO_MS: f64 = 2_000.0;

/// The two device mixes of the strategy tournament.
fn mixes() -> Vec<(&'static str, WorkerFleet, DuplexLink)> {
    vec![
        (
            "homogeneous",
            WorkerFleet::homogeneous(GpuSpec::v100(), 4),
            DuplexLink::symmetric(LinkSpec::nvlink()),
        ),
        (
            "heterogeneous",
            WorkerFleet::with_speeds(GpuSpec::v100(), &[100, 110, 125, 150]),
            DuplexLink::asymmetric(LinkSpec::ethernet_25g(), LinkSpec::ethernet_10g()),
        ),
    ]
}

/// The tournament's networks, the CNNs first.
fn bracket() -> Vec<ModelSpec> {
    vec![
        models::resnet(50),
        models::densenet121(12, 32),
        models::mobilenet_v3_large(1.0),
        models::bert(24, 128),
        models::ffnn16(4_096),
    ]
}

/// The tournament's cell cost: FLOP-model kernel times scaled by the
/// fleet's slowest worker, sync times from the link's round trip.
fn mix_cost(model: &ModelSpec, fleet: &WorkerFleet, link: &DuplexLink) -> TableCost {
    let mut cost = span("models.cost_table", || {
        to_table_cost(model, model.default_batch, &GpuProfile::v100())
    });
    let slow = fleet.bottleneck();
    for (i, &wb) in weight_bytes(model).iter().enumerate() {
        let c = cost.layer_mut(LayerId(i + 1));
        c.forward = slow.scale(c.forward);
        c.output_grad = slow.scale(c.output_grad);
        c.weight_grad = slow.scale(c.weight_grad);
        c.update = slow.scale(c.update);
        c.sync_weight = link.sync_ns(wb);
    }
    cost
}

#[derive(Clone, Copy)]
enum Work {
    /// `(cost table, shape, strategy)` indices.
    Strategy(usize, Shape, usize),
    /// `(model, engine)` indices.
    Engine(usize, usize),
}

struct Cell {
    key: String,
    work: Work,
    /// The cell whose makespan this one's speedup is taken against: the
    /// group's conventional strategy, or the engine's in-order setting.
    baseline: Option<usize>,
}

/// How many of [`bracket`]'s networks are CNNs.
const CNNS: usize = 3;

/// Engine settings in (in-order, out-of-order) pairs.
const ENGINES: [&str; 8] = [
    "single-xla",
    "single-ooo-xla",
    "datapar-byteps",
    "datapar-ooo-byteps",
    "pipeline-gpipe",
    "pipeline-ooo-pipe2",
    "hybrid-k0",
    "hybrid-kquarter",
];

fn run_engine(model: &ModelSpec, engine: usize) -> Result<(u64, f64), String> {
    let gpu = GpuProfile::v100();
    let batch = model.default_batch;
    let (nv, eth) = (LinkSpec::nvlink(), LinkSpec::ethernet_10g());
    let e = |e: ooo_cluster::Error| e.to_string();
    match ENGINES[engine] {
        "single-xla" | "single-ooo-xla" => {
            let engine = if engine == 0 {
                single::Engine::Xla
            } else {
                single::Engine::OooXla
            };
            let r =
                span("cluster.gpusim", || single::run(model, batch, &gpu, engine)).map_err(e)?;
            Ok((r.iter_ns, r.throughput))
        }
        "datapar-byteps" | "datapar-ooo-byteps" => {
            let system = if engine == 2 {
                datapar::CommSystem::BytePS
            } else {
                datapar::CommSystem::OooBytePS
            };
            let topo = ClusterTopology::pub_a();
            let r = span("cluster.netsim", || {
                datapar::run(model, batch, &gpu, &topo, 8, system)
            })
            .map_err(e)?;
            Ok((r.iter_ns, r.throughput))
        }
        "pipeline-gpipe" | "pipeline-ooo-pipe2" => {
            let strategy = if engine == 4 {
                PipeStrategy::GPipe
            } else {
                PipeStrategy::OooPipe2
            };
            let r = span("cluster.netsim", || {
                cpipe::run(model, batch * 4, 4, &gpu, &nv, 4, strategy, 1, 2)
            })
            .map_err(e)?;
            Ok((r.iter_ns, r.throughput))
        }
        _ => {
            let k = if engine == 6 {
                0
            } else {
                model.num_layers() / 4
            };
            let r = span("cluster.netsim", || {
                hybrid::run_combined(model, batch * 4, 4, &gpu, &nv, &eth, 4, 2, k, 2)
            })
            .map_err(e)?;
            Ok((r.iter_ns, r.throughput))
        }
    }
}

/// Runs one strategy cell: generate → verify → predict → certify →
/// reconcile. Returns the certified makespan and the cell digest.
fn run_strategy(cost: &TableCost, shape: Shape, strategy: usize) -> Result<(u64, String), String> {
    let zoo = zoo();
    let s = &zoo[strategy];
    let g = span("core.generate", || s.generate(shape, cost)).map_err(|e| e.to_string())?;
    let report = span("verify.lint", || g.verify(cost, None));
    if !report.is_clean() {
        return Err(format!("not OV-clean: {report}"));
    }
    let predicted = span("verify.predict", || g.predicted(cost)).map_err(|e| e.to_string())?;
    let certified = span("cluster.certify", || g.certified(cost)).map_err(|e| e.to_string())?;
    if predicted != certified {
        return Err(format!("predicted {predicted} != simulated {certified}"));
    }
    let (ledger, counter) =
        span("verify.mem", || g.mem_reconciled(cost)).map_err(|e| e.to_string())?;
    if ledger != counter {
        return Err(format!("ledger peak {ledger} != counter peak {counter}"));
    }
    Ok((
        certified,
        digest(&format!("{certified}|{ledger}|{}", g.schedule.num_ops())),
    ))
}

/// The networks and one cost table per network and device mix.
fn setup() -> (Vec<ModelSpec>, Vec<TableCost>) {
    let models = span("models.zoo", bracket);
    let costs = models
        .iter()
        .flat_map(|m| mixes().into_iter().map(move |(_, f, l)| (m, f, l)))
        .map(|(m, fleet, link)| mix_cost(m, &fleet, &link))
        .collect();
    (models, costs)
}

/// Runs whole passes over every cell, in a seeded order, until
/// `seconds` have elapsed (at least one pass), and samples set-up after
/// each pass. Each pass and each set-up sample sits between two host
/// probes.
pub fn run(seed: u64, seconds: f64, golden: &mut Golden) -> Result<Phase, String> {
    let (models, costs) = setup();

    let mut cells = Vec::new();
    let mix_names: Vec<&str> = mixes().iter().map(|m| m.0).collect();
    for (mi, model) in models.iter().enumerate() {
        let l = model.num_layers();
        for (xi, mix) in mix_names.iter().enumerate() {
            for shape in [
                Shape::SingleGpu { layers: l },
                Shape::DataParallel { layers: l },
                Shape::Pipeline {
                    layers: l,
                    devices: 4,
                },
            ] {
                let group = format!("{}/{mix}/{}", model.name, shape.kind());
                // `Conventional` leads the zoo and fits every shape.
                let conventional = cells.len();
                for (si, s) in zoo().iter().enumerate() {
                    if s.applicable(shape) {
                        cells.push(Cell {
                            key: format!("{group}/{}", s.name()),
                            work: Work::Strategy(mi * mix_names.len() + xi, shape, si),
                            baseline: (si > 0).then_some(conventional),
                        });
                    }
                }
            }
        }
        for (ei, e) in ENGINES.iter().enumerate() {
            // The single-GPU engines model the paper's CNN evaluation;
            // the out-of-order engine's region plan does not fit the
            // BERT and FFNN layers in memory.
            if ei < 2 && mi >= CNNS {
                continue;
            }
            cells.push(Cell {
                key: format!("{}/engine/{e}", model.name),
                work: Work::Engine(mi, ei),
                baseline: (ei % 2 == 1).then(|| cells.len() - 1),
            });
        }
    }

    let mut rng = Rng::new(seed);
    let mut phase = Phase {
        slo_ms: SLO_MS,
        ..Phase::default()
    };
    let mut host = Host::new();
    let start = Instant::now();
    while phase.throughput.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        let mut makespans: Vec<Option<u64>> = vec![None; cells.len()];
        let mut times = vec![0.0; cells.len()];
        let pass = Instant::now();
        for i in order {
            let cell = &cells[i];
            let t = Instant::now();
            let out = for_request(i as i64, || {
                span("bench.cell", || match cell.work {
                    Work::Strategy(c, shape, s) => run_strategy(&costs[c], shape, s),
                    Work::Engine(m, e) => run_engine(&models[m], e)
                        .map(|(ns, tp)| (ns, digest(&format!("{ns}|{tp:.6e}")))),
                })
            });
            times[i] = t.elapsed().as_secs_f64() * 1e3;
            phase.attempted += 1;
            match out {
                Ok((makespan, d)) => {
                    if golden.check(&format!("zoo_sim/{}", cell.key), &d, &mut phase) {
                        makespans[i] = Some(makespan);
                    } else {
                        phase.failed += 1;
                    }
                }
                Err(e) => phase.fail(format!("zoo_sim {}: {e}", cell.key)),
            }
        }
        phase.push_throughput(&mut host, cells.len(), pass.elapsed().as_secs_f64());
        let secs = setup_sample(setup);
        phase.push_setup(&mut host, secs);
        for (i, cell) in cells.iter().enumerate() {
            let base = cell.baseline.and_then(|b| makespans[b]);
            let (baseline, delivered) = match (base, makespans[i]) {
                (Some(b), Some(m)) => (b as f64, m as f64),
                _ => (0.0, 0.0),
            };
            phase.items.push(Item {
                ms: times[i],
                ok: makespans[i].is_some(),
                baseline,
                delivered,
            });
        }
    }
    phase.probes = host.probes;
    Ok(phase)
}
