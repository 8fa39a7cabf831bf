//! The schedule service's request path, called one crate at a time.
//!
//! `ooo_serve::handlers` runs graph → generate → realize → bound → tune
//! → certify inside one function. To time each crate, the benchmark
//! makes the same public calls itself, in the same order and with the
//! same options, each inside its own span. Every outcome is then
//! checked: the tuned schedule passes the analyzer, the prediction was
//! certified against simulation, and lower bound ≤ certified ≤
//! baseline.
//!
//! Each function adds the wall time of the handler's own calls to a
//! `clock`; the checks after them, which the handler does not make, and
//! the benchmark's own input preparation stay off it.

use crate::spans::{count, span};
use crate::stats::digest;
use ooo_core::cost::{CostModel, LayerCost, TableCost, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, SimTime, TrainGraph};
use ooo_serve::Tier;
use ooo_tune::order::{certify_order, tune_backward_order, KFamily};
use ooo_tune::TuneOptions;
use ooo_verify::{Verifier, VerifyConfig};
use std::time::{Duration, Instant};

/// One tuned and certified result.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub name: String,
    pub baseline: SimTime,
    pub certified: SimTime,
    /// The memory cap tuned under, bytes.
    pub memory_cap: Option<u64>,
    /// Digest of the numbers above plus the tuned schedule's ops.
    pub digest: String,
}

impl Outcome {
    /// Builds the outcome and checks the repository's contract for a
    /// tuned result.
    fn checked(
        name: String,
        t: TunedParts,
        certified: SimTime,
        floor: SimTime,
        ops: String,
    ) -> Result<Self, String> {
        let digest = digest(&format!(
            "{name}|{}|{}|{certified}|{floor}|{}|{}|{:?}|{ops}",
            t.baseline, t.predicted, t.moves, t.restarts_adopted, t.peak
        ));
        count("tune.calls", 1.0);
        count("tune.moves", t.moves as f64);
        count("tune.restarts_adopted", t.restarts_adopted as f64);
        count(
            "tune.improved",
            f64::from(u8::from(t.predicted < t.baseline)),
        );
        if certified != t.predicted {
            return Err(format!(
                "{name}: certified {certified} != tuned prediction {}",
                t.predicted
            ));
        }
        if !(floor <= certified && certified <= t.baseline) {
            return Err(format!(
                "{name}: bracket broken: lower bound {floor} <= certified {certified} <= baseline {} does not hold",
                t.baseline
            ));
        }
        Ok(Outcome {
            name,
            baseline: t.baseline,
            certified,
            memory_cap: None,
            digest,
        })
    }
}

/// The tuner outputs an outcome is built from.
struct TunedParts {
    baseline: SimTime,
    predicted: SimTime,
    moves: usize,
    restarts_adopted: usize,
    peak: Option<u64>,
}

/// How the tuner runs its restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restarts {
    /// On threads of their own, as `ooo-serve` and `ooo-tune` run them.
    Parallel,
    /// One after another on the caller's thread: the same result (the
    /// parallel search adopts the sequential winner), measured as search
    /// work rather than as how the host schedules threads.
    Sequential,
}

/// The search options `ooo-serve` uses for `tier` (mirrors the
/// handler's), plus the CLI's `--window`.
fn tune_opts(
    tier: Tier,
    floor: SimTime,
    memory_cap: Option<u64>,
    window: Option<usize>,
    restarts: Restarts,
) -> TuneOptions {
    let base = TuneOptions {
        require_complete: true,
        target: if memory_cap.is_some() {
            None
        } else {
            Some(floor)
        },
        memory_cap,
        window,
        parallel: restarts == Restarts::Parallel,
        ..TuneOptions::default()
    };
    match tier {
        Tier::Full => base,
        Tier::Greedy => TuneOptions {
            restarts: 0,
            ..base
        },
        Tier::Heuristic => TuneOptions {
            budget: Some(0),
            ..base
        },
    }
}

/// The certified makespan floor of `schedule`'s op subset on its lane
/// structure (the handler's early-termination target).
fn floor_of<C: CostModel>(graph: &TrainGraph, schedule: &Schedule, cost: &C) -> SimTime {
    let ops: Vec<Op> = schedule
        .lanes
        .iter()
        .flat_map(|l| l.ops.iter().copied())
        .collect();
    let lanes_with = |f: fn(&Op) -> bool| -> usize {
        schedule
            .lanes
            .iter()
            .filter(|l| l.ops.iter().any(f))
            .count()
            .max(1)
    };
    let compute = lanes_with(|o| o.is_compute());
    let link = lanes_with(|o| o.is_sync());
    span("core.bounds", || {
        ooo_core::bounds::partial_lower_bound(graph, cost, &ops, compute, link)
    })
}

fn lint<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    require_complete: bool,
) -> Result<(), String> {
    let report = span("verify.lint", || {
        Verifier::new(graph)
            .with_config(VerifyConfig {
                require_complete,
                memory_budget: None,
                check_legality: true,
            })
            .with_cost(cost)
            .verify(schedule)
    });
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("tuned schedule is not OV-clean: {report}"))
    }
}

/// The memory ledger of the tuned schedule must give the peak the tuner
/// reported.
fn check_peak<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    peak: Option<u64>,
) -> Result<(), String> {
    let Some(peak) = peak else { return Ok(()) };
    let ledger = span("verify.mem", || {
        ooo_verify::mem::ledger_of_schedule(graph, schedule, cost)
    })
    .map_err(|e| format!("memory ledger: {e}"))?;
    if ledger.peak != peak {
        return Err(format!("ledger peak {} != tuner peak {peak}", ledger.peak));
    }
    Ok(())
}

fn ops_text(schedule: &Schedule) -> String {
    schedule
        .lanes
        .iter()
        .map(|l| {
            l.ops
                .iter()
                .map(Op::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Tunes a reverse-first-k backward order, as `ooo-serve` answers an
/// `order` request. `cap_percent` sets a memory cap at that share of the
/// heuristic schedule's ledger peak.
pub fn order(
    layers: usize,
    k: usize,
    sync: SimTime,
    tier: Tier,
    cap_percent: Option<u64>,
    restarts: Restarts,
    clock: &mut Duration,
) -> Result<Outcome, String> {
    let policy = CommPolicy::PriorityByLayer;
    let t = Instant::now();
    let graph = span("core.graph", || TrainGraph::data_parallel(layers));
    let cost = TableCost::uniform(
        layers,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    );
    let name = format!("order(l={layers}, k={k}, sync={sync}, {})", tier.as_str());
    let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let baseline = span("core.generate", || {
        reverse_first_k(&graph, k, None::<(u64, &TableCost)>)
    })
    .map_err(|e| err(&e))?;
    let realized = span("verify.predict", || {
        ooo_verify::predict::datapar_schedule(&graph, &baseline, &cost, policy)
    })
    .map_err(|e| err(&e))?;
    let floor = floor_of(&graph, &realized, &cost);
    *clock += t.elapsed();
    // The request's cap in bytes, which a client would send ready-made.
    let memory_cap = match cap_percent {
        None => None,
        Some(p) => {
            let ledger = span("verify.mem", || {
                ooo_verify::mem::ledger_of_schedule(&graph, &realized, &cost)
            })
            .map_err(|e| err(&e))?;
            Some(ledger.peak * p / 100)
        }
    };
    let opts = tune_opts(tier, floor, memory_cap, None, restarts);
    tune_order(&graph, name, &baseline, Some(k), &cost, &opts, floor, clock)
}

/// Tunes and certifies a backward order, as both the `order` and the
/// `bundle` handlers do, then realizes and lints the result.
#[allow(clippy::too_many_arguments)]
fn tune_order<C: CostModel + Sync>(
    graph: &TrainGraph,
    name: String,
    baseline: &[Op],
    k: Option<usize>,
    cost: &C,
    opts: &TuneOptions,
    floor: SimTime,
    clock: &mut Duration,
) -> Result<Outcome, String> {
    let policy = CommPolicy::PriorityByLayer;
    let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let t = Instant::now();
    let tuned = span("tune.order", || {
        tune_backward_order(
            graph,
            baseline,
            k,
            cost,
            policy,
            KFamily::ReverseFirstK,
            opts,
        )
    })
    .map_err(|e| err(&e))?;
    let certified = span("cert.certify", || {
        certify_order(graph, &tuned.order, cost, policy)
    })
    .map_err(|e| err(&e))?;
    *clock += t.elapsed();
    let schedule = span("verify.predict", || {
        ooo_verify::predict::datapar_schedule(graph, &tuned.order, cost, policy)
    })
    .map_err(|e| err(&e))?;
    lint(graph, &schedule, cost, false).map_err(|e| err(&e))?;
    check_peak(graph, &schedule, cost, tuned.peak).map_err(|e| err(&e))?;
    let parts = TunedParts {
        baseline: tuned.baseline,
        predicted: tuned.predicted,
        moves: tuned.moves.len(),
        restarts_adopted: tuned.restarts_adopted,
        peak: tuned.peak,
    };
    let out = Outcome::checked(name, parts, certified, floor, ops_text(&schedule))?;
    Ok(Outcome {
        memory_cap: opts.memory_cap,
        ..out
    })
}

/// Tunes a pipeline schedule, as `ooo-serve` answers a `pipeline`
/// request (`window` as `ooo-tune --window`).
pub fn pipeline(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    tier: Tier,
    window: Option<usize>,
    restarts: Restarts,
    clock: &mut Duration,
) -> Result<Outcome, String> {
    let name = format!(
        "pipeline({}, l={layers}, d={devices}, w={window:?}, {})",
        ooo_serve::protocol::strategy_name(strategy),
        tier.as_str()
    );
    let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let t = Instant::now();
    let (graph, schedule) = span("core.generate", || {
        ooo_core::pipeline::op_level_schedule(layers, devices, strategy, 1)
    });
    let floor = floor_of(&graph, &schedule, &UnitCost);
    let opts = tune_opts(tier, floor, None, window, restarts);
    let tuned = span("tune.pipeline", || {
        ooo_tune::pipeline::tune_pipeline(layers, devices, strategy, 1, &UnitCost, &opts)
    })
    .map_err(|e| err(&e))?;
    let certified = span("cert.certify", || {
        ooo_tune::certify_schedule(&tuned.graph, &tuned.schedule, &UnitCost)
    })
    .map_err(|e| err(&e))?;
    *clock += t.elapsed();
    lint(&tuned.graph, &tuned.schedule, &UnitCost, true).map_err(|e| err(&e))?;
    let parts = TunedParts {
        baseline: tuned.baseline,
        predicted: tuned.predicted,
        moves: tuned.moves.len(),
        restarts_adopted: tuned.restarts_adopted,
        peak: tuned.peak,
    };
    Outcome::checked(name, parts, certified, floor, ops_text(&tuned.schedule))
}

/// Tunes every order of a data-parallel bundle, as `ooo-serve` answers
/// a `bundle` request.
pub fn bundle(
    bundle: &ScheduleBundle,
    restarts: Restarts,
    clock: &mut Duration,
) -> Result<Vec<Outcome>, String> {
    let policy = CommPolicy::PriorityByLayer;
    let t = Instant::now();
    let graph = span("core.graph", || TrainGraph::new(bundle.graph.clone()))
        .map_err(|e| format!("bundle graph: {e}"))?;
    *clock += t.elapsed();
    let mut outs = Vec::new();
    for (name, order) in &bundle.orders {
        let name = format!("{}:{name}", bundle.model);
        let err = |e: &dyn std::fmt::Display| format!("{name}: {e}");
        let t = Instant::now();
        let backward: Vec<Op> = order.iter().copied().filter(|o| o.is_backward()).collect();
        let realized = span("verify.predict", || {
            ooo_verify::predict::datapar_schedule(&graph, &backward, &UnitCost, policy)
        })
        .map_err(|e| err(&e))?;
        let floor = floor_of(&graph, &realized, &UnitCost);
        *clock += t.elapsed();
        let opts = tune_opts(Tier::Full, floor, None, None, restarts);
        let out = tune_order(
            &graph, name, &backward, None, &UnitCost, &opts, floor, clock,
        )?;
        outs.push(out);
    }
    Ok(outs)
}

/// Runs the exact certifier on a reverse-first-k order, as `ooo-serve`
/// answers a `cert` request. Returns the best makespan found.
pub fn cert(layers: usize, k: usize, sync: SimTime, max_nodes: u64) -> Result<SimTime, String> {
    let graph = span("core.graph", || TrainGraph::data_parallel(layers));
    let cost = TableCost::uniform(
        layers,
        LayerCost {
            sync_weight: sync,
            ..LayerCost::default()
        },
    );
    let order = span("core.generate", || {
        reverse_first_k(&graph, k, None::<(u64, &TableCost)>)
    })
    .map_err(|e| e.to_string())?;
    let (_, solved) = span("cert.bnb", || {
        ooo_cert::certify_order(
            &graph,
            &order,
            &cost,
            CommPolicy::PriorityByLayer,
            &ooo_cert::Budget::nodes(max_nodes),
        )
    })
    .map_err(|e| e.to_string())?;
    let c = &solved.certificate;
    count("cert.calls", 1.0);
    count("cert.nodes", solved.nodes as f64);
    count("cert.decided", f64::from(u8::from(c.status() != "unknown")));
    if !(solved.lower_bound <= c.best_makespan() && c.best_makespan() <= c.baseline_makespan()) {
        return Err(format!("cert l={layers} k={k}: certificate bracket broken"));
    }
    Ok(c.best_makespan())
}
