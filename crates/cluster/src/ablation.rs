//! Ablation studies of the design choices DESIGN.md calls out: how much
//! each mechanism contributes, and where the trade-offs cross over.

use crate::datapar::{self, CommSystem, FaultEnv};
use crate::pipeline::run as run_pipeline;
use crate::single::{self, Engine};
use crate::Result;
use ooo_core::op::{LayerId, Op};
use ooo_core::pipeline::Strategy;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;

/// Throughputs of the three sub-stream ordering policies for multi-stream
/// ooo computation: no sub-stream (Opt1 only), eager in-readiness order
/// (the "without re-ordering" variant the paper notes already gives a
/// decent speedup), and Algorithm 1's jointly scheduled order.
///
/// # Errors
///
/// Propagates engine errors.
pub fn sub_order_ablation(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
) -> Result<SubOrderAblation> {
    let opt1 = single::run(model, batch, gpu, Engine::OooXlaOpt1)?.throughput;
    // Eager: weight gradients in readiness order (dW_L .. dW_1), i.e.
    // multi-stream without multi-region joint scheduling.
    let l = model.num_layers();
    let eager: Vec<Op> = (1..=l).rev().map(|i| Op::WeightGrad(LayerId(i))).collect();
    let eager_tp = single::run_ooo_with_sub_order(model, batch, gpu, &eager)?.throughput;
    let algo1 = single::run(model, batch, gpu, Engine::OooXla)?.throughput;
    Ok(SubOrderAblation {
        opt1_only: opt1,
        eager: eager_tp,
        algorithm1: algo1,
    })
}

/// Result of [`sub_order_ablation`].
#[derive(Debug, Clone, Copy)]
pub struct SubOrderAblation {
    /// Pre-compiled issue, no sub-stream.
    pub opt1_only: f64,
    /// Sub-stream in readiness order (no joint scheduling).
    pub eager: f64,
    /// Algorithm 1's schedule.
    pub algorithm1: f64,
}

/// Sweep of the modulo-allocation group size for OOO-Pipe2 on a given
/// interconnect — the paper's communication/overlap trade-off (fine
/// grouping wins on NVLink, grouping by two transformers wins on 10 GbE).
///
/// # Errors
///
/// Propagates pipeline errors.
#[allow(clippy::too_many_arguments)]
pub fn modulo_group_sweep(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    link: &LinkSpec,
    devices: usize,
    groups: &[usize],
    iterations: usize,
) -> Result<Vec<(usize, f64)>> {
    groups
        .iter()
        .map(|&g| {
            run_pipeline(
                model,
                batch,
                micro_batches,
                gpu,
                link,
                devices,
                Strategy::OooPipe2,
                g,
                iterations,
            )
            .map(|r| (g, r.throughput))
        })
        .collect()
}

/// Throughput as a function of `k` for reverse first-k scheduling — the
/// concavity assumption behind the paper's heuristic search, made
/// visible. Each point runs OOO-BytePS fault-free with `k` pinned (and
/// clamped to the layer count) instead of searched.
///
/// # Errors
///
/// Propagates data-parallel engine errors.
pub fn k_sweep(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    ks: &[usize],
) -> Result<Vec<(usize, f64)>> {
    let env = FaultEnv::none();
    ks.iter()
        .map(|&k| {
            let (r, _) = datapar::run_fault_injected(
                model,
                per_gpu_batch,
                gpu,
                topology,
                gpus,
                CommSystem::OooBytePS,
                &env,
                Some(k),
            )?;
            Ok((k, r.throughput))
        })
        .collect()
}

/// Straggler injection: data-parallel OOO-BytePS gain when the inter-node
/// network degrades by `factor` — reverse first-k should keep (or grow)
/// its advantage as communication gets slower, with the searched `k`
/// moving up.
///
/// # Errors
///
/// Propagates data-parallel engine errors.
pub fn straggler_network(
    model: &ModelSpec,
    per_gpu_batch: usize,
    gpu: &GpuProfile,
    topology: &ClusterTopology,
    gpus: usize,
    factor: f64,
) -> Result<StragglerReport> {
    let mut slow = topology.clone();
    slow.inter = slow.inter.degraded(factor);
    let base = datapar::run(model, per_gpu_batch, gpu, &slow, gpus, CommSystem::BytePS)?;
    let ooo = datapar::run(
        model,
        per_gpu_batch,
        gpu,
        &slow,
        gpus,
        CommSystem::OooBytePS,
    )?;
    Ok(StragglerReport {
        byteps: base.throughput,
        ooo_byteps: ooo.throughput,
        chosen_k: ooo.k,
    })
}

/// Result of [`straggler_network`].
#[derive(Debug, Clone, Copy)]
pub struct StragglerReport {
    /// BytePS throughput on the degraded network.
    pub byteps: f64,
    /// OOO-BytePS throughput on the degraded network.
    pub ooo_byteps: f64,
    /// The `k` the search chose.
    pub chosen_k: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::{bert, densenet121, resnet};

    #[test]
    fn sub_order_ablation_ranks() {
        // Paper: multi-stream without re-ordering already helps (1.39x
        // example); joint scheduling helps at least as much.
        let a = sub_order_ablation(&densenet121(12, 32), 32, &GpuProfile::v100()).unwrap();
        assert!(
            a.eager > a.opt1_only,
            "eager {} vs opt1 {}",
            a.eager,
            a.opt1_only
        );
        assert!(
            a.algorithm1 >= a.eager * 0.97,
            "algo1 {} vs eager {}",
            a.algorithm1,
            a.eager
        );
    }

    #[test]
    fn modulo_sweep_crossover() {
        let m = bert(24, 128);
        let gpu = GpuProfile::v100();
        // NVLink: fine grouping best (or tied); Ethernet: group 2 beats 1.
        let nv =
            modulo_group_sweep(&m, 96, 4, &gpu, &LinkSpec::nvlink(), 4, &[1, 2, 4], 4).unwrap();
        assert!(
            nv[0].1 >= nv[2].1 * 0.98,
            "NVLink fine {} vs coarse {}",
            nv[0].1,
            nv[2].1
        );
        let eth =
            modulo_group_sweep(&m, 96, 4, &gpu, &LinkSpec::ethernet_10g(), 4, &[1, 2], 4).unwrap();
        assert!(
            eth[1].1 > eth[0].1,
            "Ethernet group2 {} vs group1 {}",
            eth[1].1,
            eth[0].1
        );
    }

    #[test]
    fn k_sweep_is_roughly_concave() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let ks = [0usize, 10, 20, 40, 80, 120, 160];
        let sweep = k_sweep(&m, 128, &GpuProfile::v100(), &topo, 16, &ks).unwrap();
        let best = sweep.iter().map(|&(_, t)| t).fold(f64::MIN, f64::max);
        // The best interior point beats both endpoints.
        assert!(best > sweep[0].1, "interior {best} vs k=0 {}", sweep[0].1);
        assert!(best >= sweep.last().unwrap().1, "interior {best} vs k=max");
    }

    #[test]
    fn straggler_increases_k_and_keeps_gain() {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        let gpu = GpuProfile::v100();
        let normal = straggler_network(&m, 128, &gpu, &topo, 16, 1.0).unwrap();
        let slow = straggler_network(&m, 128, &gpu, &topo, 16, 3.0).unwrap();
        assert!(normal.ooo_byteps > normal.byteps);
        assert!(slow.ooo_byteps > slow.byteps);
        // Slower network shifts work toward communication; the schedule
        // still recovers a gain.
        let gain_slow = slow.ooo_byteps / slow.byteps;
        assert!(gain_slow > 1.01, "gain under straggler {gain_slow}");
    }
}
