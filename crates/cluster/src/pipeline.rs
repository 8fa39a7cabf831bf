//! Pipeline-parallel training engine (the paper's Section 8.4).
//!
//! Thin orchestration over `ooo-core`'s pipeline simulator: model costs
//! come from the zoo (scaled to the micro-batch size), transfer times
//! from the interconnect, and multiple iterations are simulated so
//! PipeDream's steady state is measured fairly.

use crate::{Error, Result, SimTime};
use ooo_core::pipeline::{simulate_pipeline, PipelineConfig, PipelineResult, Strategy};
// The op-level schedule builder lives in `ooo_core::pipeline` so the
// static analyzers can evaluate strategies without depending on this
// crate; re-exported here for engine users.
pub use ooo_core::pipeline::op_level_schedule;
use ooo_models::cost::to_pipe_cost;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::link::LinkSpec;

/// One pipeline configuration's outcome.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Steady-state time per mini-batch.
    pub iter_ns: SimTime,
    /// Throughput in samples (sequences) per second.
    pub throughput: f64,
    /// Mean compute utilization across devices.
    pub mean_utilization: f64,
    /// The raw simulation result.
    pub result: PipelineResult,
}

/// Runs one pipeline configuration.
///
/// `batch` is the global mini-batch; it is split into `micro_batches`
/// micro-batches. `modulo_group` configures OOO-Pipe2's allocation
/// granularity (1 = per layer; the paper groups two transformers on
/// 10 GbE).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for batches that do not divide and
/// propagates simulator errors.
#[allow(clippy::too_many_arguments)] // one experiment configuration per argument
pub fn run(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    link: &LinkSpec,
    devices: usize,
    strategy: Strategy,
    modulo_group: usize,
    iterations: usize,
) -> Result<PipelineReport> {
    if micro_batches == 0 || !batch.is_multiple_of(micro_batches) {
        return Err(Error::InvalidConfig(format!(
            "batch {batch} not divisible into {micro_batches} micro-batches"
        )));
    }
    let micro = batch / micro_batches;
    // Debug builds re-check the strategy's op-level schedule (device
    // lanes plus the activation-gradient link lane) with the static
    // analyzer before the micro-batch simulation runs it.
    crate::checks::schedule_lazy(
        || op_level_schedule(model.num_layers(), devices, strategy, modulo_group),
        true,
        "pipeline op-level schedule",
    );
    crate::checks::advise_lazy(
        || op_level_schedule(model.num_layers(), devices, strategy, modulo_group),
        "pipeline op-level schedule",
    );
    let cost = to_pipe_cost(model, micro, gpu, |bytes| link.transfer_ns(bytes));
    let config = PipelineConfig {
        layers: model.num_layers(),
        devices,
        micro_batches,
        iterations,
        strategy,
        modulo_group,
        cost,
    };
    let result = simulate_pipeline(&config)?;
    let iter_ns =
        result.steady_state_iteration_time(iterations.saturating_sub(2).min(1)) as SimTime;
    let throughput = batch as f64 * 1e9 / iter_ns.max(1) as f64;
    let mean_utilization =
        (0..devices).map(|d| result.utilization(d)).sum::<f64>() / devices.max(1) as f64;
    Ok(PipelineReport {
        iter_ns,
        throughput,
        mean_utilization,
        result,
    })
}

/// Single-GPU reference throughput for normalization (Figure 11a's
/// y-axis): the whole model on one device.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn single_gpu_reference(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
    iterations: usize,
) -> Result<PipelineReport> {
    run(
        model,
        batch,
        1,
        gpu,
        &LinkSpec::nvlink(),
        1,
        Strategy::ModelParallel,
        1,
        iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::{bert, ffnn16, rnn16};

    fn v100() -> GpuProfile {
        GpuProfile::v100()
    }

    #[test]
    fn ffnn_strategies_rank_as_figure_11a() {
        let m = ffnn16(4_096);
        let nv = LinkSpec::nvlink();
        let mk = |s: Strategy, micros: usize| {
            run(&m, 1_024, micros, &v100(), &nv, 4, s, 1, 4)
                .unwrap()
                .throughput
        };
        let mp = mk(Strategy::ModelParallel, 1);
        let gpipe = mk(Strategy::GPipe, 4);
        let pipe1 = mk(Strategy::OooPipe1, 4);
        let pipe2 = mk(Strategy::OooPipe2, 4);
        assert!(gpipe > mp, "GPipe {gpipe} vs MP {mp}");
        assert!(pipe1 >= gpipe, "Pipe1 {pipe1} vs GPipe {gpipe}");
        assert!(pipe2 > pipe1, "Pipe2 {pipe2} vs Pipe1 {pipe1}");
        // The paper: OOO-Pipe2 is ~1.5x GPipe for the 16-layer FFNN.
        let speedup = pipe2 / gpipe;
        assert!((1.2..2.2).contains(&speedup), "FFNN Pipe2/GPipe {speedup}");
    }

    #[test]
    fn bert24_speedup_band() {
        // Figure 11a: BERT-24 on 4 GPUs, OOO-Pipe2 ~1.59x GPipe.
        let m = bert(24, 128);
        let nv = LinkSpec::nvlink();
        let gpipe = run(&m, 96, 4, &v100(), &nv, 4, Strategy::GPipe, 1, 4)
            .unwrap()
            .throughput;
        let pipe2 = run(&m, 96, 4, &v100(), &nv, 4, Strategy::OooPipe2, 1, 4)
            .unwrap()
            .throughput;
        let speedup = pipe2 / gpipe;
        assert!((1.15..2.2).contains(&speedup), "BERT Pipe2/GPipe {speedup}");
    }

    #[test]
    fn rnn_without_micro_batches_benefits() {
        // The paper runs the RNN without micro-batches; OOO-Pipe2 is
        // 1.47x cross-layer model parallelism.
        let m = rnn16(1_024, 50);
        let nv = LinkSpec::nvlink();
        let mp = run(&m, 1_024, 1, &v100(), &nv, 4, Strategy::ModelParallel, 1, 4).unwrap();
        let p2 = run(&m, 1_024, 1, &v100(), &nv, 4, Strategy::OooPipe2, 1, 4).unwrap();
        let speedup = p2.throughput / mp.throughput;
        assert!((1.2..2.3).contains(&speedup), "RNN speedup {speedup}");
    }

    #[test]
    fn ethernet_prefers_grouped_modulo() {
        // Figure 11b: at transformer granularity 10 GbE halves OOO-Pipe2's
        // throughput; grouping two transformers recovers it.
        let m = bert(24, 128);
        let eth = LinkSpec::ethernet_10g();
        let fine = run(&m, 96, 4, &v100(), &eth, 4, Strategy::OooPipe2, 1, 4)
            .unwrap()
            .throughput;
        let grouped = run(&m, 96, 4, &v100(), &eth, 4, Strategy::OooPipe2, 2, 4)
            .unwrap()
            .throughput;
        assert!(grouped > fine, "grouped {grouped} vs fine {fine}");
    }

    #[test]
    fn utilization_improves_with_ooo() {
        let m = ffnn16(4_096);
        let nv = LinkSpec::nvlink();
        let gpipe = run(&m, 1_024, 4, &v100(), &nv, 4, Strategy::GPipe, 1, 3).unwrap();
        let pipe2 = run(&m, 1_024, 4, &v100(), &nv, 4, Strategy::OooPipe2, 1, 3).unwrap();
        assert!(pipe2.mean_utilization > gpipe.mean_utilization);
    }

    #[test]
    fn pipedream_reported_as_reference() {
        let m = bert(24, 128);
        let nv = LinkSpec::nvlink();
        let gpipe = run(&m, 96, 4, &v100(), &nv, 4, Strategy::GPipe, 1, 6)
            .unwrap()
            .throughput;
        let pd = run(&m, 96, 4, &v100(), &nv, 4, Strategy::PipeDream, 1, 6)
            .unwrap()
            .throughput;
        // PipeDream's steady state beats GPipe (it avoids the flush), at
        // the cost of staleness the paper excludes from head-to-head
        // comparison.
        assert!(pd >= gpipe * 0.95, "PipeDream {pd} vs GPipe {gpipe}");
    }

    #[test]
    fn indivisible_batch_rejected() {
        let m = ffnn16(128);
        let nv = LinkSpec::nvlink();
        assert!(run(&m, 10, 3, &v100(), &nv, 2, Strategy::GPipe, 1, 2).is_err());
    }

    #[test]
    fn single_gpu_reference_runs() {
        let m = ffnn16(1_024);
        let r = single_gpu_reference(&m, 256, &v100(), 3).unwrap();
        assert!(r.throughput > 0.0);
    }
}
