//! Cost adapters: model specs -> scheduler cost tables and kernel
//! profiles.

use crate::gpu::GpuProfile;
use crate::spec::{LayerSpec, ModelSpec};
use ooo_core::cost::{LayerCost, TableCost};
use ooo_core::pipeline::PipeCost;
use ooo_core::SimTime;

/// A kernel ready for the GPU simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Kernel name.
    pub name: String,
    /// Grid size in thread blocks.
    pub blocks: u32,
    /// Per-block execution time, ns.
    pub block_time_ns: SimTime,
    /// CPU issue cost, ns.
    pub issue_ns: SimTime,
}

/// The three kernels of one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerKernels {
    /// Forward kernel.
    pub forward: KernelProfile,
    /// Output-gradient kernel.
    pub output_grad: KernelProfile,
    /// Weight-gradient kernel.
    pub weight_grad: KernelProfile,
}

fn kernel(
    name: String,
    exec_ns: SimTime,
    blocks: u64,
    issue_ns: SimTime,
    slots: u32,
) -> KernelProfile {
    let blocks = blocks.clamp(1, 16 * slots as u64) as u32;
    let waves = blocks.div_ceil(slots).max(1) as SimTime;
    KernelProfile {
        name,
        blocks,
        block_time_ns: (exec_ns / waves).max(1),
        issue_ns,
    }
}

/// Derives the three kernels of `layer` at the given batch size.
///
/// Grid sizes follow the layer's output volume for the forward and
/// output-gradient kernels; the weight-gradient grid follows the filter
/// count (which is why the paper's DenseBlock-4 `dW` kernels run only 448
/// blocks against the V100's 1,520 slots — exactly the underutilization
/// the sub-stream harvests).
pub fn layer_kernels(layer: &LayerSpec, batch: usize, gpu: &GpuProfile) -> LayerKernels {
    let flops = layer.flops_per_sample * batch as f64;
    let exec = gpu.exec_ns(flops);
    let issue = (layer.kind.issue_ns() as f64 * gpu.issue_scale) as SimTime;
    let out_elems = layer.activation_bytes_per_sample / 4 * batch as u64;
    let act_blocks = out_elems.div_ceil(layer.kind.elems_per_block());
    // Weight-gradient grids scale with both the filter count and the
    // reduction volume (batch x spatial positions): layers with large
    // activations keep the SMs saturated during dW, while late layers
    // with small activations and few filters run a few hundred blocks —
    // the paper's 448-block DenseBlock-4 case.
    let dw_blocks = ((layer.param_bytes / 4).div_ceil(64))
        .max(out_elems.div_ceil(4 * layer.kind.elems_per_block()))
        .max(1);
    LayerKernels {
        forward: kernel(
            format!("{}.fwd", layer.name),
            exec,
            act_blocks,
            issue,
            gpu.block_slots,
        ),
        // The output gradient is the mirror convolution/GEMM: same
        // volume, similar cost.
        output_grad: kernel(
            format!("{}.dO", layer.name),
            exec,
            act_blocks,
            issue,
            gpu.block_slots,
        ),
        weight_grad: kernel(
            format!("{}.dW", layer.name),
            exec,
            dw_blocks,
            issue,
            gpu.block_slots,
        ),
    }
}

/// All kernels of a model at the given batch size.
pub fn model_kernels(model: &ModelSpec, batch: usize, gpu: &GpuProfile) -> Vec<LayerKernels> {
    model
        .layers
        .iter()
        .map(|l| layer_kernels(l, batch, gpu))
        .collect()
}

/// Builds an `ooo-core` [`TableCost`] for the model: execution times from
/// the FLOP model, memory sizes from the tensor shapes. Synchronization
/// fields are zero; the cluster engines fill them from the topology.
pub fn to_table_cost(model: &ModelSpec, batch: usize, gpu: &GpuProfile) -> TableCost {
    let layers = model
        .layers
        .iter()
        .map(|l| {
            let exec = gpu.exec_ns(l.flops_per_sample * batch as f64);
            LayerCost {
                forward: exec,
                output_grad: exec,
                weight_grad: exec,
                update: 0,
                sync_weight: 0,
                sync_output: 0,
                activation_bytes: l.activation_bytes_per_sample * batch as u64,
                out_grad_bytes: l.activation_bytes_per_sample * batch as u64,
                weight_bytes: l.param_bytes,
            }
        })
        .collect();
    TableCost::new(layers)
}

/// Builds a pipeline cost table; `transfer_ns(bytes)` converts boundary
/// activation sizes into link transfer times (supplied by the cluster's
/// topology so this crate stays link-agnostic).
pub fn to_pipe_cost<F>(
    model: &ModelSpec,
    batch: usize,
    gpu: &GpuProfile,
    transfer_ns: F,
) -> PipeCost
where
    F: Fn(u64) -> SimTime,
{
    let n = model.layers.len();
    let mut cost = PipeCost {
        forward: Vec::with_capacity(n),
        output_grad: Vec::with_capacity(n),
        weight_grad: Vec::with_capacity(n),
        transfer: Vec::with_capacity(n),
    };
    for l in &model.layers {
        let exec = gpu.exec_ns(l.flops_per_sample * batch as f64);
        cost.forward.push(exec);
        cost.output_grad.push(exec);
        cost.weight_grad.push(exec);
        cost.transfer
            .push(transfer_ns(l.activation_bytes_per_sample * batch as u64));
    }
    cost
}

/// Per-layer weight bytes (synchronization message sizes for
/// data-parallel training).
pub fn weight_bytes(model: &ModelSpec) -> Vec<u64> {
    model.layers.iter().map(|l| l.param_bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{densenet121, resnet};

    /// At `ooo-trace`'s largest batch ([`ooo_core::cli::MAX_BATCH`]), the
    /// bytes of every buffer a zoo model's cost table holds — each
    /// layer's activation, output gradient and weight gradient, which
    /// bound any ledger peak — sum, plus the 1.1× budget's tenth, to no
    /// more than `u64::MAX`, counted in `u128`.
    #[test]
    fn batch_limit_keeps_every_zoo_models_bytes_in_u64() {
        let batch = u128::from(ooo_core::cli::MAX_BATCH);
        for (model, ..) in crate::zoo::table1() {
            let bytes: u128 = (model.layers.iter())
                .map(|l| 2 * u128::from(l.activation_bytes_per_sample) * batch)
                .chain(model.layers.iter().map(|l| u128::from(l.param_bytes)))
                .sum();
            let budget = bytes + bytes / 10;
            assert!(budget <= u128::from(u64::MAX), "{}: {budget}", model.name);
        }
    }

    #[test]
    fn densenet_late_dw_kernels_underutilize_v100() {
        // The calibration target from the paper's Section 8.2 discussion:
        // DenseBlock-4 weight-gradient kernels run a few hundred blocks
        // against 1,520 slots.
        let m = densenet121(32, 32);
        let gpu = GpuProfile::v100();
        let idx = m
            .layers
            .iter()
            .position(|l| l.name == "block4.l1.conv3x3")
            .unwrap();
        let k = layer_kernels(&m.layers[idx], 32, &gpu);
        assert!(
            k.weight_grad.blocks < gpu.block_slots,
            "dW blocks {} vs slots {}",
            k.weight_grad.blocks,
            gpu.block_slots
        );
        assert!(
            k.weight_grad.blocks > 100,
            "dW blocks {}",
            k.weight_grad.blocks
        );
    }

    #[test]
    fn densenet_late_convs_are_issue_bound() {
        // Figure 1's regime: in DenseBlock-3/4 the issue cost exceeds the
        // execution time.
        let m = densenet121(12, 32);
        let gpu = GpuProfile::v100();
        let idx = m
            .layers
            .iter()
            .position(|l| l.name == "block4.l8.conv3x3")
            .unwrap();
        let k = layer_kernels(&m.layers[idx], 32, &gpu);
        let exec = k.forward.block_time_ns * k.forward.blocks.div_ceil(gpu.block_slots) as u64;
        assert!(
            k.forward.issue_ns > exec,
            "issue {} vs exec {exec}",
            k.forward.issue_ns
        );
    }

    #[test]
    fn resnet_convs_are_compute_bound() {
        let m = resnet(50);
        let gpu = GpuProfile::v100();
        let idx = m
            .layers
            .iter()
            .position(|l| l.name == "stage1.b1.conv2")
            .unwrap();
        let k = layer_kernels(&m.layers[idx], 64, &gpu);
        let exec = k.forward.block_time_ns * k.forward.blocks.div_ceil(gpu.block_slots) as u64;
        assert!(
            exec > k.forward.issue_ns,
            "exec {exec} vs issue {}",
            k.forward.issue_ns
        );
    }

    #[test]
    fn table_cost_covers_all_layers() {
        let m = resnet(50);
        let t = to_table_cost(&m, 64, &GpuProfile::v100());
        assert_eq!(t.layers(), m.num_layers());
        assert!(t.total_forward() > 0);
    }

    #[test]
    fn pipe_cost_transfer_uses_closure() {
        let m = densenet121(12, 32);
        let c = to_pipe_cost(&m, 32, &GpuProfile::v100(), |bytes| bytes / 100);
        assert_eq!(c.layers(), m.num_layers());
        assert!(c.transfer.iter().any(|&t| t > 0));
    }

    #[test]
    fn slower_gpus_run_longer() {
        let m = resnet(50);
        let v = to_table_cost(&m, 64, &GpuProfile::v100());
        let t = to_table_cost(&m, 64, &GpuProfile::titan_xp());
        assert!(t.total_forward() > v.total_forward());
    }
}
