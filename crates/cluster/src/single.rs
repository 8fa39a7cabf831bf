//! Single-GPU training engines (the paper's Section 8.2).
//!
//! One training iteration is simulated on the `ooo-gpusim` device as
//! `[loss, backward kernels, next forward pass]` — the window the paper's
//! Section 2 formulation optimizes. Two consecutive iterations are
//! simulated and the steady-state time of the second is reported, so that
//! cross-iteration issue pipelining (the masking effect of Figure 2) is
//! captured.
//!
//! Engines:
//!
//! - [`Engine::TensorFlow`] — unfused kernels (separate activation
//!   kernels), slow per-kernel issue;
//! - [`Engine::Xla`] — fused kernels, per-kernel issue;
//! - [`Engine::Nimble`] — fused kernels, pre-compiled issue, single
//!   stream, but an ahead-of-time memory plan that roughly doubles
//!   memory (the paper observes Nimble OOM at batch 64+);
//! - [`Engine::OooXlaOpt1`] — XLA + pre-compiled kernel issue;
//! - [`Engine::OooXla`] — Opt1 + multi-stream out-of-order computation
//!   scheduled by Algorithm 1 with co-run profiles measured on the GPU
//!   simulator.

use crate::{Error, Result, SimTime};
use ooo_core::graph::TrainGraph;
use ooo_core::memory::{memory_profile, MemoryProfile};
use ooo_core::multi_region::{
    merged_order, schedule_with_memory_budget, MultiRegionSchedule, RegionSpec, SpeedupProfile,
};
use ooo_core::op::{LayerId, Op};
use ooo_gpusim::engine::{co_run_speedup, Command, GpuSim, IssueMode, StreamSpec};
use ooo_gpusim::kernel::Kernel;
use ooo_gpusim::spec::GpuSpec;
use ooo_gpusim::trace::Trace;
use ooo_models::cost::{model_kernels, to_table_cost, LayerKernels};
use ooo_models::{GpuProfile, ModelSpec};

/// Single-GPU training engine under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Plain TensorFlow: unfused kernels, slow executor.
    TensorFlow,
    /// TensorFlow XLA: fused kernels, per-kernel issue (the baseline).
    Xla,
    /// Nimble: pre-compiled issue, single stream, 2x memory plan.
    Nimble,
    /// OOO-XLA with only pre-compiled kernel issue (the paper's Opt1).
    OooXlaOpt1,
    /// OOO-XLA with pre-compiled issue and multi-stream out-of-order
    /// computation (Opt1 + Opt2).
    OooXla,
}

impl Engine {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::TensorFlow => "TF",
            Engine::Xla => "XLA",
            Engine::Nimble => "Nimble",
            Engine::OooXlaOpt1 => "OOO-XLA(Opt1)",
            Engine::OooXla => "OOO-XLA",
        }
    }

    /// Memory multiplier relative to the XLA baseline.
    fn memory_factor(self) -> f64 {
        match self {
            // Nimble's ahead-of-time allocation plan; the paper observes
            // OOM at batch 64 where XLA still fits.
            Engine::Nimble => 2.4,
            _ => 1.0,
        }
    }
}

/// Usable GPU memory (bytes): the 16 GB cards keep ~1.5 GB for the
/// driver, CUDA context, and framework reserves.
pub fn gpu_capacity(gpu: &GpuProfile) -> u64 {
    match gpu.name {
        "V100" => 14_500_000_000,
        "P100" => 14_500_000_000,
        _ => 11_000_000_000,
    }
}

/// Result of a single-GPU run.
#[derive(Debug, Clone)]
pub struct SingleGpuReport {
    /// Steady-state time of one training iteration.
    pub iter_ns: SimTime,
    /// Training throughput in samples per second.
    pub throughput: f64,
    /// Peak memory estimate in bytes.
    pub peak_mem: u64,
    /// The kernel-level trace of the simulated iterations.
    pub trace: Trace,
}

fn gpuspec(gpu: &GpuProfile) -> GpuSpec {
    GpuSpec {
        name: gpu.name,
        num_sms: gpu.block_slots,
        blocks_per_sm: 1,
        kernel_setup_ns: gpu.kernel_setup_ns,
        relative_throughput: 1.0,
    }
}

fn to_kernel(p: &ooo_models::cost::KernelProfile, issue_scale: f64) -> Kernel {
    Kernel::new(
        &p.name,
        p.blocks,
        p.block_time_ns,
        (p.issue_ns as f64 * issue_scale) as SimTime,
    )
}

/// Estimated resident memory for training `model` at `batch` (weights +
/// optimizer state + activations/workspace).
pub fn memory_estimate(model: &ModelSpec, batch: usize, engine: Engine) -> u64 {
    let params = model.param_bytes();
    let acts: u64 = model
        .layers
        .iter()
        .map(|l| l.activation_bytes_per_sample * batch as u64)
        .sum();
    // Weights + gradient + two optimizer slots, activations kept for
    // backward plus gradient/workspace headroom.
    let base = params * 4 + (acts as f64 * 2.6) as u64;
    (base as f64 * engine.memory_factor()) as u64
}

struct SimSpeedupProfile<'a> {
    spec: &'a GpuSpec,
    region_kernels: Vec<Vec<Kernel>>,
    dw_kernels: &'a [(Op, Kernel)],
    // Algorithm 1 queries each (kernel, region) pair many times while it
    // fills regions; co-run simulations are memoized to keep planning
    // linear in practice.
    cache: std::cell::RefCell<std::collections::HashMap<(Op, usize), f64>>,
}

impl SpeedupProfile for SimSpeedupProfile<'_> {
    fn speedup(&self, op: Op, region: usize) -> f64 {
        if let Some(&cached) = self.cache.borrow().get(&(op, region)) {
            return cached;
        }
        let Some((_, k)) = self.dw_kernels.iter().find(|(o, _)| *o == op) else {
            return 1.0;
        };
        let s = co_run_speedup(
            self.spec,
            &self.region_kernels[region],
            std::slice::from_ref(k),
        )
        .map(|(_, _, s)| s)
        .unwrap_or(1.0);
        self.cache.borrow_mut().insert((op, region), s);
        s
    }

    fn sub_time(&self, op: Op, _region: usize) -> ooo_core::SimTime {
        self.dw_kernels
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, k)| k.isolated_exec_ns(self.spec.block_slots()) + self.spec.kernel_setup_ns)
            .unwrap_or(1)
    }
}

/// Iterations simulated per run; the steady state is measured across
/// them.
const ITERATIONS: usize = 3;

/// Runs one engine on one model/batch/GPU combination.
///
/// # Errors
///
/// Returns [`Error::OutOfMemory`] when the configuration does not fit the
/// GPU (the paper's "N/A" table entries) and propagates simulator errors.
pub fn run(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
    engine: Engine,
) -> Result<SingleGpuReport> {
    let required = fit(model, batch, gpu, engine)?;
    let spec = gpuspec(gpu);
    let kernels = model_kernels(model, batch, gpu);
    let l = kernels.len();

    let issue_mode = match engine {
        Engine::TensorFlow | Engine::Xla => IssueMode::PerKernel,
        Engine::Nimble | Engine::OooXlaOpt1 | Engine::OooXla => PRECOMPILED,
    };
    // Calibration: the zoo's per-kernel issue costs are TensorFlow-level;
    // XLA's fused clusters dispatch much faster (the paper measures XLA
    // 1.1-3.1x over TF and OOO-XLA 1.03-1.58x over XLA).
    let issue_scale = match engine {
        Engine::TensorFlow => 1.0,
        _ => 0.35,
    };
    // TF additionally issues the unfused elementwise kernels XLA folds
    // into its neighbours.
    let unfused = matches!(engine, Engine::TensorFlow);
    let elementwise = |name: &str, src: &ooo_models::cost::KernelProfile| {
        Kernel::new(name, src.blocks, 400, 18_000)
    };

    let mut plan = None;
    let streams = if engine == Engine::OooXla {
        // Two prioritized streams; the sub-stream order comes from
        // Algorithm 1 with simulator-measured co-run profiles.
        let (regions, schedule) = plan_multi_region(model, &kernels, &spec, batch, gpu)?;
        let sub_order: Vec<Op> = schedule.per_region.iter().flatten().copied().collect();
        plan = Some((regions, schedule));
        build_ooo_streams(&kernels, &sub_order)
    } else {
        let mut cmds: Vec<Command> = Vec::new();
        for _ in 0..ITERATIONS {
            cmds.push(Command::Launch(Kernel::new("loss", 64, 1_000, 0)));
            for i in (1..=l).rev() {
                if i >= 2 {
                    let dout = &kernels[i - 1].output_grad;
                    cmds.push(Command::Launch(to_kernel(dout, issue_scale)));
                    if unfused {
                        let act = elementwise(&format!("{}.act_grad", dout.name), dout);
                        cmds.push(Command::Launch(act));
                    }
                }
                cmds.push(Command::Launch(to_kernel(
                    &kernels[i - 1].weight_grad,
                    issue_scale,
                )));
            }
            for k in &kernels {
                cmds.push(Command::Launch(to_kernel(&k.forward, issue_scale)));
                if unfused {
                    let act = elementwise(&format!("{}.act", k.forward.name), &k.forward);
                    cmds.push(Command::Launch(act));
                }
            }
        }
        vec![StreamSpec {
            priority: 0,
            commands: cmds,
        }]
    };
    let mut report = simulate(spec, issue_mode, streams, &kernels, batch, required)?;
    if let Some((regions, schedule)) = &plan {
        // Peak memory: the engine estimate plus the delayed-dW overhead
        // of the out-of-order schedule over the conventional one
        // (Figure 9's delta; ~0.1% in the paper).
        let (ooo, conv) = memory_profiles(model, batch, gpu, regions, schedule)?;
        report.peak_mem += ooo.peak.saturating_sub(conv.peak);
    }
    Ok(report)
}

/// The pre-compiled kernel issue of Nimble and both OOO-XLA variants.
const PRECOMPILED: IssueMode = IssueMode::PreCompiled { launch_ns: 10_000 };

/// The engine's memory estimate, or [`Error::OutOfMemory`] when it
/// exceeds the GPU's usable capacity.
fn fit(model: &ModelSpec, batch: usize, gpu: &GpuProfile, engine: Engine) -> Result<u64> {
    let required = memory_estimate(model, batch, engine);
    let capacity = gpu_capacity(gpu);
    if required > capacity {
        return Err(Error::OutOfMemory { required, capacity });
    }
    Ok(required)
}

/// Simulates the streams' [`ITERATIONS`] iterations and measures the
/// steady state: every iteration launches the same kernel names, so the
/// mean spacing of the last forward kernel's completions is one
/// iteration.
fn simulate(
    spec: GpuSpec,
    issue_mode: IssueMode,
    streams: Vec<StreamSpec>,
    kernels: &[LayerKernels],
    batch: usize,
    peak_mem: u64,
) -> Result<SingleGpuReport> {
    let trace = GpuSim::new(spec, issue_mode).run(streams)?;
    let marker = &kernels[kernels.len() - 1].forward.name;
    let mut ends: Vec<SimTime> = trace
        .records
        .iter()
        .filter(|r| &r.name == marker)
        .map(|r| r.exec_end)
        .collect();
    ends.sort_unstable();
    let iter_ns = match ends.len() {
        0 | 1 => trace.makespan() / ITERATIONS as SimTime,
        n => (ends[n - 1] - ends[0]) / (n as SimTime - 1),
    };
    Ok(SingleGpuReport {
        iter_ns,
        throughput: batch as f64 * 1e9 / iter_ns.max(1) as f64,
        peak_mem,
        trace,
    })
}

/// Builds the two prioritized GPU streams of the OOO-XLA engine for a
/// given sub-stream weight-gradient order. Events enforce the true
/// dependencies in both directions: a dW kernel waits for its incoming
/// gradient on the main stream, and the next iteration's forward of
/// layer i waits for the previous iteration's dW_i (the weight must be
/// updated before it is used).
fn build_ooo_streams(kernels: &[LayerKernels], sub_order: &[Op]) -> Vec<StreamSpec> {
    let l = kernels.len();
    let mut main: Vec<Command> = Vec::new();
    let mut sub: Vec<Command> = Vec::new();
    for iter in 0..ITERATIONS as u32 {
        let ev = |layer: usize| 1_000_000 * (iter + 1) + layer as u32;
        let ev_dw = |layer: usize| 500_000_000 + 1_000_000 * (iter + 1) + layer as u32;
        let ev_dw_prev = |layer: usize| 500_000_000 + 1_000_000 * iter + layer as u32;
        // Backward critical path: loss then dO_L..dO_2.
        main.push(Command::Launch(Kernel::new("loss", 64, 1_000, 0)));
        main.push(Command::RecordEvent(ev(l + 1)));
        for i in (2..=l).rev() {
            main.push(Command::Launch(to_kernel(&kernels[i - 1].output_grad, 1.0)));
            main.push(Command::RecordEvent(ev(i)));
        }
        for i in 1..=l {
            if iter > 0 {
                main.push(Command::WaitEvent(ev_dw_prev(i)));
            }
            main.push(Command::Launch(to_kernel(&kernels[i - 1].forward, 1.0)));
        }
        for op in sub_order {
            if let Op::WeightGrad(LayerId(i)) = *op {
                sub.push(Command::WaitEvent(ev((i + 1).min(l + 1))));
                sub.push(Command::Launch(to_kernel(&kernels[i - 1].weight_grad, 1.0)));
                sub.push(Command::RecordEvent(ev_dw(i)));
            }
        }
    }
    vec![
        StreamSpec {
            priority: 10,
            commands: main,
        },
        StreamSpec {
            priority: 0,
            commands: sub,
        },
    ]
}

/// Runs the OOO-XLA engine with an explicit sub-stream weight-gradient
/// order instead of Algorithm 1's (for ablation studies). The reported
/// peak memory is the engine estimate alone.
///
/// # Errors
///
/// Returns [`Error::OutOfMemory`] and simulator errors as
/// [`run`] does, plus [`Error::InvalidConfig`] when `sub_order` does not
/// cover every weight gradient exactly once.
pub fn run_ooo_with_sub_order(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
    sub_order: &[Op],
) -> Result<SingleGpuReport> {
    let l = model.num_layers();
    let mut seen = vec![false; l + 1];
    for op in sub_order {
        match *op {
            Op::WeightGrad(LayerId(i)) if i >= 1 && i <= l && !seen[i] => seen[i] = true,
            other => {
                return Err(Error::InvalidConfig(format!(
                    "sub order must list each dW exactly once; got {other}"
                )))
            }
        }
    }
    if !seen[1..].iter().all(|&s| s) {
        return Err(Error::InvalidConfig(
            "sub order misses weight gradients".into(),
        ));
    }
    let required = fit(model, batch, gpu, Engine::OooXla)?;
    let kernels = model_kernels(model, batch, gpu);
    let streams = build_ooo_streams(&kernels, sub_order);
    simulate(
        gpuspec(gpu),
        PRECOMPILED,
        streams,
        &kernels,
        batch,
        required,
    )
}

/// Runs Algorithm 1 for a model and returns its regions with the
/// sub-stream schedule, constrained to 1.1x the conventional schedule's
/// peak memory — the budget the paper uses throughout its single-GPU
/// experiments.
fn plan_multi_region(
    model: &ModelSpec,
    kernels: &[LayerKernels],
    spec: &GpuSpec,
    batch: usize,
    gpu: &GpuProfile,
) -> Result<(Vec<RegionSpec>, MultiRegionSchedule)> {
    let l = kernels.len();
    let graph = TrainGraph::single_gpu(l);
    let (regions, region_kernels) = build_regions(model, kernels, spec);
    let dw_kernels: Vec<(Op, Kernel)> = (1..=l)
        .map(|i| {
            (
                Op::WeightGrad(LayerId(i)),
                to_kernel(&kernels[i - 1].weight_grad, 1.0),
            )
        })
        .collect();
    let profile = SimSpeedupProfile {
        spec,
        region_kernels,
        dw_kernels: &dw_kernels,
        cache: std::cell::RefCell::new(std::collections::HashMap::new()),
    };
    let subs: Vec<Op> = graph.weight_grads();
    let cost = to_table_cost(model, batch, gpu);
    let conv_peak = memory_profile(&graph, &graph.conventional_backprop(), &cost)?.peak;
    let budget = conv_peak + conv_peak / 10;
    let schedule = schedule_with_memory_budget(&graph, &regions, &subs, &profile, &cost, budget)?;
    // Debug builds re-check the two-stream plan with the static analyzer:
    // no race between the streams, no deadlock, within the memory budget,
    // and only dW-class ops moved. Updates are implicit in this engine,
    // so the schedule is partial.
    crate::checks::schedule_lazy(
        || (graph.clone(), schedule.to_schedule(&regions)),
        false,
        "multi-region joint schedule",
    );
    // And the performance advisor: the analysis must hold on every
    // engine-produced schedule (predictor succeeds, gap well-formed).
    crate::checks::advise_lazy(
        || (graph.clone(), schedule.to_schedule(&regions)),
        "multi-region joint schedule",
    );
    Ok((regions, schedule))
}

/// Splits the backward critical path plus the next forward pass into
/// regions following the model's block structure (a DenseBlock per
/// region, as in the paper's Figure 8).
fn build_regions(
    model: &ModelSpec,
    kernels: &[LayerKernels],
    spec: &GpuSpec,
) -> (Vec<RegionSpec>, Vec<Vec<Kernel>>) {
    let l = kernels.len();
    let slots = spec.block_slots();
    let mut regions = Vec::new();
    let mut region_kernels = Vec::new();
    // Backward regions in reverse block order.
    let mut hi = l;
    for (name, count) in model.regions.iter().rev() {
        let lo = hi - count;
        let mut entries = Vec::new();
        let mut kern = Vec::new();
        if hi == l {
            entries.push((Op::Loss, 1_000));
        }
        for i in (lo + 1..=hi).rev() {
            if i >= 2 {
                let k = to_kernel(&kernels[i - 1].output_grad, 1.0);
                entries.push((
                    Op::OutputGrad(LayerId(i)),
                    k.isolated_exec_ns(slots) + spec.kernel_setup_ns,
                ));
                kern.push(k);
            }
        }
        if !entries.is_empty() {
            regions.push(RegionSpec {
                name: format!("bwd.{name}"),
                entries,
            });
            region_kernels.push(kern);
        }
        hi = lo;
    }
    // Forward regions in block order.
    let mut lo = 0;
    for (name, count) in &model.regions {
        let hi = lo + count;
        let mut entries = Vec::new();
        let mut kern = Vec::new();
        for i in lo + 1..=hi {
            let k = to_kernel(&kernels[i - 1].forward, 1.0);
            entries.push((
                Op::Forward(LayerId(i)),
                k.isolated_exec_ns(slots) + spec.kernel_setup_ns,
            ));
            kern.push(k);
        }
        regions.push(RegionSpec {
            name: format!("fwd.{name}"),
            entries,
        });
        region_kernels.push(kern);
        lo = hi;
    }
    (regions, region_kernels)
}

/// Memory profiles of a planned out-of-order schedule and of the
/// conventional one: `(ooo, conventional)`.
fn memory_profiles(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
    regions: &[RegionSpec],
    schedule: &MultiRegionSchedule,
) -> Result<(MemoryProfile, MemoryProfile)> {
    let graph = TrainGraph::single_gpu(model.num_layers());
    let cost = to_table_cost(model, batch, gpu);
    let ooo = memory_profile(&graph, &merged_order(regions, schedule), &cost)?;
    let conv = memory_profile(&graph, &graph.conventional_backprop(), &cost)?;
    Ok((ooo, conv))
}

/// The Figure 8 view: which weight-gradient kernels Algorithm 1 assigns
/// to each region of the main-stream timeline.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn region_plan(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
) -> Result<Vec<(String, Vec<String>)>> {
    let kernels = model_kernels(model, batch, gpu);
    let (regions, schedule) = plan_multi_region(model, &kernels, &gpuspec(gpu), batch, gpu)?;
    Ok(regions
        .iter()
        .zip(&schedule.per_region)
        .map(|(r, ops)| {
            let names = ops
                .iter()
                .filter_map(|op| match op {
                    Op::WeightGrad(LayerId(i)) => Some(kernels[i - 1].weight_grad.name.clone()),
                    _ => None,
                })
                .collect();
            (r.name.clone(), names)
        })
        .collect())
}

/// One memory series: `(layer, bytes-in-use)` at each output-gradient
/// computation.
pub type MemorySeries = Vec<(usize, u64)>;

/// The Figure 9 data series: memory usage at each output-gradient
/// computation for the conventional and the out-of-order schedule.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn memory_series(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
) -> Result<(MemorySeries, MemorySeries)> {
    let kernels = model_kernels(model, batch, gpu);
    let (regions, schedule) = plan_multi_region(model, &kernels, &gpuspec(gpu), batch, gpu)?;
    let (ooo, conv) = memory_profiles(model, batch, gpu, &regions, &schedule)?;
    let series = |p: &MemoryProfile| {
        p.at_output_grads()
            .into_iter()
            .map(|(lid, m)| (lid.0, m))
            .collect::<Vec<_>>()
    };
    Ok((series(&conv), series(&ooo)))
}

/// Per-kernel `(name, issue-gap, exec)` series of the backward+forward
/// window under the XLA engine — the data behind the paper's Figures 1
/// and 2.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn issue_analysis(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
) -> Result<Vec<(String, SimTime, SimTime)>> {
    let report = run(model, batch, gpu, Engine::Xla)?;
    Ok(report.trace.issue_gap_vs_exec(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::{densenet121, mobilenet_v3_large, resnet};

    #[test]
    fn engines_rank_as_in_the_paper() {
        let m = densenet121(12, 32);
        let gpu = GpuProfile::v100();
        let tf = run(&m, 32, &gpu, Engine::TensorFlow).unwrap().throughput;
        let xla = run(&m, 32, &gpu, Engine::Xla).unwrap().throughput;
        let opt1 = run(&m, 32, &gpu, Engine::OooXlaOpt1).unwrap().throughput;
        let full = run(&m, 32, &gpu, Engine::OooXla).unwrap().throughput;
        assert!(xla > tf, "XLA {xla} vs TF {tf}");
        assert!(opt1 > xla, "Opt1 {opt1} vs XLA {xla}");
        assert!(full >= opt1 * 0.99, "full {full} vs opt1 {opt1}");
        // The paper's overall single-GPU band: 1.03-1.58x over XLA.
        let speedup = full / xla;
        assert!((1.02..2.2).contains(&speedup), "OOO/XLA = {speedup}");
    }

    #[test]
    fn traced_single_gpu_timeline_is_well_formed() {
        let m = resnet(50);
        let gpu = GpuProfile::v100();
        let r = run(&m, 64, &gpu, Engine::OooXla).unwrap();
        let tl = r.trace.to_timeline("single/OOO-XLA/ResNet-50");
        tl.validate().unwrap();
        // Two prioritized streams → two lanes, both busy.
        let summary = tl.summarize();
        for lane in ["stream0", "stream1"] {
            assert!(summary.lane(lane).unwrap().busy_ns > 0, "{lane} idle");
        }
        // The horizon covers the simulated iterations.
        assert!(tl.horizon_ns() >= r.iter_ns);
        // The occupancy counter never exceeds the device's block slots.
        let occ = summary.counter("sm_slots_in_use").unwrap();
        assert!(occ.mean > 0.0);
        assert!(occ.mean_fraction.unwrap() <= 1.0);
    }

    #[test]
    fn nimble_matches_opt1_speed_but_ooms_at_64() {
        let m = resnet(50);
        let gpu = GpuProfile::v100();
        let nim = run(&m, 32, &gpu, Engine::Nimble).unwrap();
        let opt1 = run(&m, 32, &gpu, Engine::OooXlaOpt1).unwrap();
        assert_eq!(nim.iter_ns, opt1.iter_ns);
        assert!(matches!(
            run(&m, 64, &gpu, Engine::Nimble),
            Err(Error::OutOfMemory { .. })
        ));
        // XLA itself still fits at 64.
        assert!(run(&m, 64, &gpu, Engine::Xla).is_ok());
    }

    #[test]
    fn mobilenet_small_alpha_gains_most() {
        // The paper's largest single-GPU speedup (1.58x) is MobileNet
        // alpha=0.25 at batch 32: lighter kernels are more issue-bound.
        let gpu = GpuProfile::v100();
        let small = {
            let m = mobilenet_v3_large(0.25);
            run(&m, 32, &gpu, Engine::OooXla).unwrap().throughput
                / run(&m, 32, &gpu, Engine::Xla).unwrap().throughput
        };
        let large = {
            let m = mobilenet_v3_large(1.0);
            run(&m, 32, &gpu, Engine::OooXla).unwrap().throughput
                / run(&m, 32, &gpu, Engine::Xla).unwrap().throughput
        };
        assert!(
            small > large,
            "alpha 0.25 speedup {small} <= alpha 1.0 {large}"
        );
    }

    #[test]
    fn resnet_gains_are_modest() {
        let m = resnet(50);
        let gpu = GpuProfile::v100();
        let xla = run(&m, 64, &gpu, Engine::Xla).unwrap().throughput;
        let full = run(&m, 64, &gpu, Engine::OooXla).unwrap().throughput;
        let speedup = full / xla;
        assert!((1.0..1.35).contains(&speedup), "ResNet speedup {speedup}");
    }

    #[test]
    fn ooo_memory_overhead_is_tiny() {
        let m = densenet121(12, 32);
        let gpu = GpuProfile::v100();
        let xla = run(&m, 32, &gpu, Engine::Xla).unwrap().peak_mem;
        let ooo = run(&m, 32, &gpu, Engine::OooXla).unwrap().peak_mem;
        let overhead = ooo as f64 / xla as f64;
        // The paper observes +0.1% under a 1.1x budget; our coarser
        // buffer model stays within a few percent.
        assert!(overhead < 1.05, "memory overhead {overhead}");
    }

    #[test]
    fn issue_analysis_shows_issue_bound_tail() {
        // Late DenseNet blocks expose substantial issue-induced idle time
        // relative to their execution (Figure 1's regime: overhead up to
        // 4x execution; exposure accumulates once early masking runs
        // out).
        let series = issue_analysis(&densenet121(12, 32), 32, &GpuProfile::v100()).unwrap();
        let late: Vec<&(String, SimTime, SimTime)> = series
            .iter()
            .filter(|(n, _, _)| n.contains("block3") || n.contains("block4"))
            .collect();
        assert!(!late.is_empty());
        let gap: SimTime = late.iter().map(|(_, g, _)| g).sum();
        let exec: SimTime = late.iter().map(|(_, _, e)| e).sum();
        assert!(
            gap * 5 >= exec,
            "late-block exposed gaps {gap} ns vs exec {exec} ns"
        );
    }

    #[test]
    fn batch_128_oom_pattern_matches_paper() {
        // Paper: with 128 batches XLA/OOO-XLA run out of memory for most
        // DenseNet and ResNet models on V100, while MobileNet still fits
        // (OOO-XLA 1.04-1.09x faster there).
        let gpu = GpuProfile::v100();
        assert!(matches!(
            run(&resnet(101), 128, &gpu, Engine::Xla),
            Err(Error::OutOfMemory { .. })
        ));
        let m = mobilenet_v3_large(1.0);
        let xla = run(&m, 128, &gpu, Engine::Xla).unwrap().throughput;
        let ooo = run(&m, 128, &gpu, Engine::OooXla).unwrap().throughput;
        let s = ooo / xla;
        assert!((1.0..1.35).contains(&s), "MobileNet b=128 speedup {s}");
    }

    #[test]
    fn memory_series_has_small_peak_delta() {
        let (conv, ooo) = memory_series(&densenet121(12, 32), 32, &GpuProfile::v100()).unwrap();
        assert!(!conv.is_empty() && !ooo.is_empty());
        let peak = |s: &[(usize, u64)]| s.iter().map(|&(_, m)| m).max().unwrap_or(0);
        let ratio = peak(&ooo) as f64 / peak(&conv) as f64;
        // Algorithm 1 runs under a 1.1x peak budget.
        assert!((0.9..1.2).contains(&ratio), "peak ratio {ratio}");
    }
}
