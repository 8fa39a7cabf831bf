//! GPU hardware specifications, including heterogeneous worker fleets.

use ooo_core::datapar::SpeedFactor;

/// Static description of a GPU, reduced to the quantities the simulator
/// needs. The block-slot counts follow the paper's V100 observation that
/// the SMs can hold 1,520 thread blocks of the DenseBlock-4 weight
/// gradient kernels at once.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Resident thread blocks per SM (for the medium-sized blocks typical
    /// of DNN kernels).
    pub blocks_per_sm: u32,
    /// Fixed gap between kernel executions (SM setup), in ns — the paper
    /// measures 1–2 µs.
    pub kernel_setup_ns: u64,
    /// Relative compute throughput (V100 = 1.0); used by the model cost
    /// profiles to scale kernel times across GPUs.
    pub relative_throughput: f64,
}

impl GpuSpec {
    /// Total concurrently resident thread blocks.
    pub fn block_slots(&self) -> u32 {
        self.num_sms * self.blocks_per_sm
    }

    /// NVIDIA V100 (80 SMs; 1,520 block slots as measured in the paper).
    pub fn v100() -> Self {
        GpuSpec {
            name: "V100",
            num_sms: 80,
            blocks_per_sm: 19,
            kernel_setup_ns: 1_500,
            relative_throughput: 1.0,
        }
    }

    /// NVIDIA P100.
    pub fn p100() -> Self {
        GpuSpec {
            name: "P100",
            num_sms: 56,
            blocks_per_sm: 16,
            kernel_setup_ns: 1_800,
            relative_throughput: 0.65,
        }
    }

    /// NVIDIA Titan XP.
    pub fn titan_xp() -> Self {
        GpuSpec {
            name: "TitanXP",
            num_sms: 30,
            blocks_per_sm: 16,
            kernel_setup_ns: 2_000,
            relative_throughput: 0.55,
        }
    }
}

/// One worker of a (possibly heterogeneous) data-parallel fleet: a GPU
/// model plus a per-worker [`SpeedFactor`] on top of it. The factor
/// models everything the spec does not — thermal throttling, a shared
/// host, an older board revision — and is what the heterogeneous
/// cluster engines and the `zoo_sim` workload exercise.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// The GPU model of this worker.
    pub gpu: GpuSpec,
    /// Per-worker slowdown on top of the model's nominal speed.
    pub speed: SpeedFactor,
}

impl WorkerSpec {
    /// A nominal-speed worker.
    pub fn nominal(gpu: GpuSpec) -> Self {
        WorkerSpec {
            gpu,
            speed: SpeedFactor::UNIT,
        }
    }
}

/// A data-parallel fleet with per-worker speed factors.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerFleet {
    /// The fleet members, worker 0 first.
    pub workers: Vec<WorkerSpec>,
}

impl WorkerFleet {
    /// A homogeneous fleet: `n` nominal-speed copies of `gpu`.
    pub fn homogeneous(gpu: GpuSpec, n: usize) -> Self {
        WorkerFleet {
            workers: vec![WorkerSpec::nominal(gpu); n],
        }
    }

    /// A fleet of one GPU model with explicit per-worker speed factors.
    pub fn with_speeds(gpu: GpuSpec, percents: &[u32]) -> Self {
        WorkerFleet {
            workers: percents
                .iter()
                .map(|&p| WorkerSpec {
                    gpu: gpu.clone(),
                    speed: SpeedFactor::percent(p),
                })
                .collect(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the fleet has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The per-worker speed factors in worker order — the argument the
    /// heterogeneous data-parallel simulator takes.
    pub fn speed_factors(&self) -> Vec<SpeedFactor> {
        self.workers.iter().map(|w| w.speed).collect()
    }

    /// Whether every worker runs at nominal speed (the homogeneous case,
    /// which must reproduce the non-fleet code paths byte for byte).
    pub fn is_uniform(&self) -> bool {
        self.workers.iter().all(|w| w.speed.is_unit())
    }

    /// The slowest worker's factor — the fleet bottleneck that gates
    /// every synchronous all-reduce barrier.
    pub fn bottleneck(&self) -> SpeedFactor {
        self.workers
            .iter()
            .map(|w| w.speed)
            .max()
            .unwrap_or(SpeedFactor::UNIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_bottleneck_and_uniformity() {
        let uniform = WorkerFleet::homogeneous(GpuSpec::v100(), 4);
        assert!(uniform.is_uniform());
        assert_eq!(uniform.bottleneck(), SpeedFactor::UNIT);
        let mixed = WorkerFleet::with_speeds(GpuSpec::v100(), &[100, 110, 150, 125]);
        assert!(!mixed.is_uniform());
        assert_eq!(mixed.bottleneck(), SpeedFactor::percent(150));
        assert_eq!(mixed.len(), 4);
        assert_eq!(mixed.speed_factors()[2], SpeedFactor::percent(150));
    }

    #[test]
    fn speed_factor_scaling_is_exact_and_conservative() {
        assert_eq!(SpeedFactor::UNIT.scale(12_345), 12_345);
        assert_eq!(SpeedFactor::percent(150).scale(100), 150);
        // Rounds up: a slow worker is never optimistically fast.
        assert_eq!(SpeedFactor::percent(150).scale(1), 2);
        assert_eq!(SpeedFactor::percent(125).scale(10), 13);
    }

    #[test]
    fn v100_matches_paper_block_capacity() {
        // The paper: "the SMs are capable of running 1,520 of the thread
        // blocks" on V100.
        assert_eq!(GpuSpec::v100().block_slots(), 1_520);
    }

    #[test]
    fn throughput_ordering() {
        assert!(GpuSpec::v100().relative_throughput > GpuSpec::p100().relative_throughput);
        assert!(GpuSpec::p100().relative_throughput > GpuSpec::titan_xp().relative_throughput);
    }
}
