//! Data-parallel training engines (the paper's Section 8.3).
//!
//! One synchronous iteration from a single worker's perspective: the GPU
//! runs the backward pass in a chosen order, gradient tensors are
//! synchronized over the worker's bottleneck link by a chunk-preemptive
//! priority queue (`ooo-netsim`), and the next forward pass is gated
//! per-layer on its parameters being synchronized.
//!
//! Systems:
//!
//! - [`CommSystem::Horovod`] — ring all-reduce wire volume, FIFO tensor
//!   order, heavy per-tensor negotiation;
//! - [`CommSystem::BytePS`] — push+pull wire volume, priority by layer
//!   (ByteScheduler), light coordination;
//! - [`CommSystem::OooBytePS`] — BytePS plus reverse first-k scheduling
//!   with the concave `k`-search.

use crate::{Result, SimTime};
use ooo_core::cost::{CostModel, TableCost};
use ooo_core::graph::TrainGraph;
use ooo_core::op::{LayerId, Op};
use ooo_core::reverse_k::{reverse_first_k, search_optimal_k};
use ooo_core::trace::{Span, Timeline, CAT_STALL};
use ooo_models::cost::to_table_cost;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::collective::{
    worker_bottleneck_bytes_per_sec, BYTEPS_TENSOR_OVERHEAD_NS, HOROVOD_TENSOR_OVERHEAD_NS,
};
use ooo_netsim::commsim::{
    finish_of, intervals_to_lane, simulate_queue_faulty, CommRequest, LinkFault, LossHandling,
    Policy,
};
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;

/// Parameter-communication system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommSystem {
    /// Horovod: ring all-reduce, FIFO, no reordering.
    Horovod,
    /// BytePS with communication prioritization (the baseline).
    BytePS,
    /// BytePS plus reverse first-k scheduling (ours).
    OooBytePS,
}

impl CommSystem {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CommSystem::Horovod => "Horovod",
            CommSystem::BytePS => "BytePS",
            CommSystem::OooBytePS => "OOO-BytePS",
        }
    }
}

/// Result of one data-parallel configuration.
#[derive(Debug, Clone)]
pub struct DataParReport {
    /// Steady-state iteration time.
    pub iter_ns: SimTime,
    /// Global throughput in samples per second.
    pub throughput: f64,
    /// The `k` chosen by reverse first-k (0 for baselines).
    pub k: usize,
    /// Iteration time in excess of pure compute — the exposed
    /// communication the paper's Figure 4 minimizes.
    pub exposed_sync_ns: SimTime,
}

/// Chunk size of the priority transmission queue (ByteScheduler-style
/// tensor partitioning).
const CHUNK_BYTES: u64 = 512 * 1024;

fn effective_link(topology: &ClusterTopology, gpus: usize, overhead_ns: SimTime) -> LinkSpec {
    LinkSpec {
        name: "worker-bottleneck",
        bytes_per_sec: worker_bottleneck_bytes_per_sec(topology, gpus),
        latency_ns: overhead_ns,
    }
}

/// Simulates one iteration with a fixed backward order under `env` and
/// returns its time. With `trace` naming a timeline it also renders the
/// iteration: a `compute` lane (backward ops, sync-gated forward ops,
/// explicit stall spans where the forward pass waits on parameters) and
/// `uplink`/`downlink` lanes carrying the push and pull queues' service
/// intervals. Untraced runs build no spans.
///
/// Parameter-server traffic is full duplex: gradients are *pushed* on the
/// uplink queue and updated parameters *pulled* on the downlink queue;
/// a layer's pull becomes ready when its push (and the server's
/// aggregation) completes. Both queues are chunk-preemptive priority
/// queues keyed by layer index.
fn simulate_iteration(
    s: &Setup,
    order: &[Op],
    env: &FaultEnv,
    trace: Option<&str>,
) -> (SimTime, Option<Timeline>) {
    let l = s.cost.layers();
    let mut compute: Vec<Span> = Vec::new();
    let op_span = |op: Op, start: SimTime, d: SimTime| {
        let mut span = Span::new(op.to_string(), "compute", start, start + d);
        if let Some(layer) = op.layer() {
            span.args.push(("layer".into(), layer.0 as f64));
        }
        span
    };
    // 1. Backward compute, sequential in the given order.
    let mut t: SimTime = 0;
    let mut dw_finish = vec![0u64; l + 1];
    for &op in order {
        let d = s.cost.duration(op);
        if trace.is_some() {
            compute.push(op_span(op, t, d));
        }
        t += d;
        if let Op::WeightGrad(LayerId(i)) = op {
            dw_finish[i] = t;
        }
    }
    let backward_end = t;
    let queue = |ready: &dyn Fn(usize) -> SimTime| {
        let requests: Vec<CommRequest> = (1..=l)
            .map(|i| CommRequest {
                id: i,
                bytes: s.wire_bytes[i - 1],
                ready_ns: ready(i),
                priority: i as i64,
            })
            .collect();
        simulate_queue_faulty(
            &s.link,
            CHUNK_BYTES,
            s.policy,
            &requests,
            &env.link_fault,
            env.loss,
        )
    };
    // 2. Push queue on the uplink.
    let (push_done, push_iv) = queue(&|i| dw_finish[i]);
    // 3. Pull queue on the downlink, gated per layer on the push.
    let (pull_done, pull_iv) = queue(&|i| finish_of(&push_done, i).unwrap_or(0));
    // 4. Forward pass gated per layer on its pulled parameters. Each
    //    synchronization additionally carries the aggregation latency
    //    tail (end-to-end, pipelined across tensors — it delays
    //    completion but does not occupy the wire).
    let mut t = backward_end;
    for i in 1..=l {
        let sync = finish_of(&pull_done, i).unwrap_or(0).saturating_add(s.tau);
        if sync > t {
            if trace.is_some() {
                compute.push(Span::new(format!("wait S[dW{i}]"), CAT_STALL, t, sync));
            }
            t = sync;
        }
        let op = Op::Forward(LayerId(i));
        let d = s.cost.duration(op);
        if trace.is_some() {
            compute.push(op_span(op, t, d));
        }
        t += d;
    }
    let timeline = trace.map(|name| {
        let mut tl = Timeline::new(name);
        tl.lane_mut("compute").spans = compute;
        tl.lanes.push(intervals_to_lane("uplink", &push_iv, |i| {
            format!("push S[dW{i}]")
        }));
        tl.lanes.push(intervals_to_lane("downlink", &pull_iv, |i| {
            format!("pull S[dW{i}]")
        }));
        tl
    });
    (t, timeline)
}

/// Per-tensor aggregation-latency tail: the time between a worker's push
/// completing and the aggregated parameters being available, growing with
/// worker count (barrier over all workers, server queueing, and TCP
/// incast on Ethernet). This is the component the paper's Section 8.3
/// discussion measures as the 350 ms first-layer synchronization on 16
/// V100s — large, and hideable only by *starting* the critical
/// synchronizations earlier, which is exactly what reverse first-k does.
fn aggregation_latency_ns(topology: &ClusterTopology, gpus: usize) -> SimTime {
    if gpus <= 1 {
        0
    } else if topology.single_node(gpus) {
        // NVLink/PCIe aggregation within one machine.
        200_000 * gpus as SimTime
    } else {
        6_000_000 * gpus as SimTime
    }
}

/// The per-configuration state of one run: cost table (stretched by the
/// environment's straggler factor), dependency graph, wire volumes, queue
/// discipline, link (degraded by the environment) and aggregation tail.
struct Setup {
    cost: TableCost,
    graph: TrainGraph,
    wire_bytes: Vec<u64>,
    policy: Policy,
    link: LinkSpec,
    tau: SimTime,
}

fn setup(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    system: CommSystem,
    env: &FaultEnv,
) -> Setup {
    let mut cost = to_table_cost(model, per_gpu_batch, gpu);
    if live(env.compute_factor) {
        stretch(&mut cost, env.compute_factor);
    }
    let l = cost.layers();
    let graph = TrainGraph::data_parallel(l);
    let n = gpus.max(1) as f64;
    // Per-direction wire volume per worker. Every GPU pushes its own
    // gradients and pulls the updated parameters (the push and pull are
    // separate queues in `simulate_iteration`); Horovod's ring moves
    // 2(n-1)/n of the bytes each way.
    let wire_bytes: Vec<u64> = model
        .layers
        .iter()
        .map(|layer| match system {
            _ if gpus <= 1 => 0,
            CommSystem::Horovod => ((n - 1.0) / n * layer.param_bytes as f64) as u64,
            _ => layer.param_bytes,
        })
        .collect();
    let (policy, overhead) = match system {
        CommSystem::Horovod => (Policy::Fifo, HOROVOD_TENSOR_OVERHEAD_NS),
        CommSystem::BytePS | CommSystem::OooBytePS => (Policy::Priority, BYTEPS_TENSOR_OVERHEAD_NS),
    };
    let mut link = effective_link(topology, gpus, overhead);
    if live(env.degrade_factor) {
        link = link.degraded(env.degrade_factor);
    }
    let tau = aggregation_latency_ns(topology, gpus)
        * match system {
            // Horovod's negotiate-then-allreduce protocol roughly doubles
            // the tail.
            CommSystem::Horovod => 2,
            _ => 1,
        };
    Setup {
        cost,
        graph,
        wire_bytes,
        policy,
        link,
        tau,
    }
}

/// Runs one data-parallel configuration.
///
/// # Errors
///
/// Propagates scheduling errors (invalid `k`, malformed orders).
pub fn run(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    system: CommSystem,
) -> Result<DataParReport> {
    let env = FaultEnv::none();
    let (report, _) = iterate(
        model,
        per_gpu_batch,
        gpu,
        topology,
        gpus,
        system,
        &env,
        None,
        None,
    )?;
    Ok(report)
}

/// A deterministic fault environment for one data-parallel run: a
/// whole-worker compute slowdown (GPU straggler), a static bandwidth
/// degradation of the bottleneck link (this is where the
/// [`LinkSpec::degraded`] knob feeds a cluster engine), and a windowed
/// [`LinkFault`] applied to the push/pull queues with a loss-handling
/// strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEnv {
    /// Multiplier on every compute duration (effective only when > 1).
    pub compute_factor: f64,
    /// Divisor on the bottleneck link's bandwidth (effective only
    /// when > 1).
    pub degrade_factor: f64,
    /// Outage/degradation windows on the communication queues.
    pub link_fault: LinkFault,
    /// What a sender does with transfers an outage killed.
    pub loss: LossHandling,
}

impl FaultEnv {
    /// An environment that injects nothing.
    pub fn none() -> Self {
        FaultEnv {
            compute_factor: 1.0,
            degrade_factor: 1.0,
            link_fault: LinkFault::none(),
            loss: LossHandling::RestartTensor,
        }
    }

    /// Whether this environment can perturb a run at all.
    pub fn is_noop(&self) -> bool {
        !live(self.compute_factor) && !live(self.degrade_factor) && self.link_fault.is_noop()
    }
}

/// Whether a slowdown factor perturbs anything: factors ≤ 1 (and
/// non-finite ones) are ignored, so a no-op environment reproduces the
/// fault-free arithmetic exactly.
fn live(factor: f64) -> bool {
    factor > 1.0 && factor.is_finite()
}

/// Stretches every compute duration of `cost` by `factor` (straggler
/// injection).
fn stretch(cost: &mut TableCost, factor: f64) {
    let scale = |t: SimTime| (t as f64 * factor) as SimTime;
    cost.loss = scale(cost.loss);
    for i in 1..=cost.layers() {
        let lc = cost.layer_mut(LayerId(i));
        lc.forward = scale(lc.forward);
        lc.output_grad = scale(lc.output_grad);
        lc.weight_grad = scale(lc.weight_grad);
        lc.update = scale(lc.update);
    }
}

/// Runs one data-parallel configuration under a [`FaultEnv`], returning
/// the report and the traced timeline of the faulted iteration, named
/// `datapar/<system>/<gpus>gpus/faulted`.
///
/// `fixed_k` pins the reverse first-k depth of OOO-BytePS (e.g. the
/// stale `k` tuned on healthy hardware — the no-recovery stance, or one
/// point of a `k` sweep); `None` re-runs `search_optimal_k` against the
/// *faulted* costs, which is the re-tuning recovery policy. Baseline
/// systems always use `k = 0`.
///
/// With `env.is_noop()` and `fixed_k: None` the report equals [`run`]'s
/// and the timeline is the iteration `run` simulated.
///
/// # Errors
///
/// Propagates scheduling errors (invalid `k`, malformed orders).
#[allow(clippy::too_many_arguments)]
pub fn run_fault_injected(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    system: CommSystem,
    env: &FaultEnv,
    fixed_k: Option<usize>,
) -> Result<(DataParReport, Timeline)> {
    let name = format!("datapar/{}/{}gpus/faulted", system.name(), gpus);
    let (report, timeline) = iterate(
        model,
        per_gpu_batch,
        gpu,
        topology,
        gpus,
        system,
        env,
        fixed_k,
        Some(&name),
    )?;
    Ok((
        report,
        timeline.expect("traced iteration returns a timeline"),
    ))
}

/// The one body of both entry points: sets the configuration up under
/// `env`, chooses `k` (0 for the baselines, `fixed_k` or the concave
/// search for OOO-BytePS), and simulates the iteration at that `k` —
/// traced only when `trace` names the timeline.
#[allow(clippy::too_many_arguments)]
fn iterate(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    system: CommSystem,
    env: &FaultEnv,
    fixed_k: Option<usize>,
    trace: Option<&str>,
) -> Result<(DataParReport, Option<Timeline>)> {
    let s = &setup(model, per_gpu_batch, gpu, topology, gpus, system, env);
    let l = s.cost.layers();
    let order_at = |k: usize| -> Result<Vec<Op>> {
        let order = reverse_first_k::<TableCost>(&s.graph, k, None)?;
        // Debug builds re-check the backward order with the static
        // analyzer (partial: the order covers only the backward pass).
        crate::checks::order_lazy(
            || (s.graph.clone(), order.clone()),
            false,
            "reverse first-k order",
        );
        crate::checks::advise_lazy(
            || {
                (
                    s.graph.clone(),
                    ooo_core::Schedule::single_lane("gpu", order.clone()),
                )
            },
            "reverse first-k order",
        );
        Ok(order)
    };
    let k = match (system, fixed_k) {
        (CommSystem::Horovod | CommSystem::BytePS, _) => 0,
        (CommSystem::OooBytePS, Some(k)) => k.min(l),
        (CommSystem::OooBytePS, None) => search_optimal_k(l, |k| {
            order_at(k)
                .map(|order| 1e9 / simulate_iteration(s, &order, env, None).0.max(1) as f64)
                .unwrap_or(f64::NEG_INFINITY)
        }),
    };
    let (iter_ns, timeline) = simulate_iteration(s, &order_at(k)?, env, trace);
    let pure_compute: SimTime = s.cost.total_backward() + s.cost.total_forward();
    let report = DataParReport {
        iter_ns,
        throughput: (per_gpu_batch * gpus) as f64 * 1e9 / iter_ns.max(1) as f64,
        k,
        exposed_sync_ns: iter_ns.saturating_sub(pure_compute),
    };
    Ok((report, timeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::resnet;

    fn v100() -> GpuProfile {
        GpuProfile::v100()
    }

    #[test]
    fn single_gpu_has_no_sync_overhead() {
        let m = resnet(50);
        let r = run(
            &m,
            64,
            &v100(),
            &ClusterTopology::pub_a(),
            1,
            CommSystem::BytePS,
        )
        .unwrap();
        // Per-tensor latency still applies, but no bytes cross the wire;
        // exposure is bounded by coordination only.
        assert!(
            r.exposed_sync_ns < r.iter_ns / 5,
            "exposed {} of {}",
            r.exposed_sync_ns,
            r.iter_ns
        );
    }

    #[test]
    fn systems_rank_byteps_over_horovod() {
        let m = resnet(101);
        let topo = ClusterTopology::priv_b();
        let h = run(&m, 64, &GpuProfile::p100(), &topo, 20, CommSystem::Horovod).unwrap();
        let b = run(&m, 64, &GpuProfile::p100(), &topo, 20, CommSystem::BytePS).unwrap();
        assert!(
            b.throughput > h.throughput,
            "BytePS {} vs Horovod {}",
            b.throughput,
            h.throughput
        );
    }

    #[test]
    fn ooo_byteps_beats_byteps_at_scale() {
        // The paper's headline: 1.10-1.27x over BytePS with 16-48 GPUs.
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let b = run(&m, 128, &v100(), &topo, 16, CommSystem::BytePS).unwrap();
        let o = run(&m, 128, &v100(), &topo, 16, CommSystem::OooBytePS).unwrap();
        let speedup = o.throughput / b.throughput;
        assert!(o.k > 0, "search found k = 0");
        assert!(speedup >= 1.02, "speedup {speedup}");
        assert!(speedup < 1.6, "speedup {speedup} implausibly high");
    }

    #[test]
    fn nvlink_only_jobs_gain_little() {
        // On 2-4 NVLink GPUs the paper measures only 1-5%.
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let b = run(&m, 128, &v100(), &topo, 4, CommSystem::BytePS).unwrap();
        let o = run(&m, 128, &v100(), &topo, 4, CommSystem::OooBytePS).unwrap();
        let speedup = o.throughput / b.throughput;
        assert!((0.99..1.12).contains(&speedup), "NVLink speedup {speedup}");
    }

    #[test]
    fn scaling_efficiency_below_linear() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let t1 = run(&m, 128, &v100(), &topo, 1, CommSystem::BytePS)
            .unwrap()
            .throughput;
        let t16 = run(&m, 128, &v100(), &topo, 16, CommSystem::BytePS)
            .unwrap()
            .throughput;
        assert!(t16 > 4.0 * t1, "no scaling: {t16} vs {t1}");
        assert!(t16 < 16.0 * t1, "super-linear scaling is impossible");
    }

    #[test]
    fn traced_iteration_matches_report() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let (r, tl) = run_fault_injected(
            &m,
            128,
            &v100(),
            &topo,
            16,
            CommSystem::OooBytePS,
            &FaultEnv::none(),
            None,
        )
        .unwrap();
        tl.validate().unwrap();
        // The timeline's horizon is exactly the simulated iteration: the
        // compute lane ends at the last forward op.
        assert_eq!(tl.horizon_ns(), r.iter_ns);
        // The compute lane tiles the whole iteration: backward ops are
        // gapless from t=0 and every forward-pass wait is an explicit
        // stall span.
        let summary = tl.summarize();
        let compute = summary.lane("compute").unwrap();
        assert_eq!(compute.busy_ns + compute.stall_ns, r.iter_ns);
        // With 16 GPUs real bytes cross the wire in both directions.
        for lane in ["uplink", "downlink"] {
            let l = summary.lane(lane).unwrap();
            assert!(l.busy_ns > 0, "{lane} idle");
        }
    }

    #[test]
    fn noop_fault_env_reproduces_run() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let env = FaultEnv::none();
        assert!(env.is_noop());
        for system in [
            CommSystem::Horovod,
            CommSystem::BytePS,
            CommSystem::OooBytePS,
        ] {
            let base = run(&m, 128, &v100(), &topo, 16, system).expect("fault-free run");
            let (faulted, tl) = run_fault_injected(&m, 128, &v100(), &topo, 16, system, &env, None)
                .expect("noop-faulted run");
            assert_eq!(base.iter_ns, faulted.iter_ns, "{}", system.name());
            assert_eq!(base.throughput.to_bits(), faulted.throughput.to_bits());
            assert_eq!(base.k, faulted.k);
            assert_eq!(base.exposed_sync_ns, faulted.exposed_sync_ns);
            assert_eq!(tl.horizon_ns(), base.iter_ns);
        }
    }

    #[test]
    fn baselines_ignore_a_fixed_k() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let base = run(&m, 128, &v100(), &topo, 16, CommSystem::BytePS).unwrap();
        let (pinned, _) = run_fault_injected(
            &m,
            128,
            &v100(),
            &topo,
            16,
            CommSystem::BytePS,
            &FaultEnv::none(),
            Some(5),
        )
        .unwrap();
        assert_eq!(pinned.k, 0);
        assert_eq!(pinned.iter_ns, base.iter_ns);
    }

    #[test]
    fn degraded_link_strictly_increases_iteration_time() {
        // The `LinkSpec::degraded` knob, wired end-to-end through the
        // data-parallel engine.
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let base = run(&m, 128, &v100(), &topo, 16, CommSystem::BytePS).unwrap();
        let env = FaultEnv {
            degrade_factor: 4.0,
            ..FaultEnv::none()
        };
        let (degraded, tl) =
            run_fault_injected(&m, 128, &v100(), &topo, 16, CommSystem::BytePS, &env, None)
                .unwrap();
        assert!(
            degraded.iter_ns > base.iter_ns,
            "degraded {} vs base {}",
            degraded.iter_ns,
            base.iter_ns
        );
        tl.validate().unwrap();
    }

    #[test]
    fn straggler_inflates_compute_and_flap_inflates_sync() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let base = run(&m, 128, &v100(), &topo, 16, CommSystem::OooBytePS).unwrap();
        let straggle = FaultEnv {
            compute_factor: 1.5,
            ..FaultEnv::none()
        };
        let (s, s_tl) = run_fault_injected(
            &m,
            128,
            &v100(),
            &topo,
            16,
            CommSystem::OooBytePS,
            &straggle,
            None,
        )
        .unwrap();
        assert!(s.iter_ns > base.iter_ns);
        s_tl.validate().unwrap();
        let flap = FaultEnv {
            link_fault: LinkFault {
                degraded: vec![],
                outages: vec![(0, 40_000_000), (90_000_000, 120_000_000)],
            },
            loss: LossHandling::ResumeChunks {
                backoff_ns: 1_000_000,
                max_backoff_ns: 16_000_000,
            },
            ..FaultEnv::none()
        };
        let (f, f_tl) = run_fault_injected(
            &m,
            128,
            &v100(),
            &topo,
            16,
            CommSystem::OooBytePS,
            &flap,
            None,
        )
        .unwrap();
        assert!(f.exposed_sync_ns > base.exposed_sync_ns);
        f_tl.validate().unwrap();
    }

    #[test]
    fn throughput_monotone_in_gpus_for_ooo() {
        let m = resnet(101);
        let topo = ClusterTopology::pub_a();
        let mut prev = 0.0;
        for gpus in [1usize, 4, 8, 16] {
            let r = run(&m, 96, &v100(), &topo, gpus, CommSystem::OooBytePS).unwrap();
            assert!(
                r.throughput > prev,
                "{} GPUs: {} <= {prev}",
                gpus,
                r.throughput
            );
            prev = r.throughput;
        }
    }
}
