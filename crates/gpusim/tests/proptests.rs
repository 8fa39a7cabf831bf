//! Property-based tests of the GPU simulator's conservation laws.

use ooo_gpusim::engine::{co_run_speedup, Command, GpuSim, IssueMode, StreamSpec};
use ooo_gpusim::kernel::Kernel;
use ooo_gpusim::spec::GpuSpec;
use proptest::prelude::*;

fn spec(slots: u32, setup: u64) -> GpuSpec {
    GpuSpec {
        name: "prop",
        num_sms: slots,
        blocks_per_sm: 1,
        kernel_setup_ns: setup,
        relative_throughput: 1.0,
    }
}

fn kernels_strategy() -> impl Strategy<Value = Vec<Kernel>> {
    proptest::collection::vec((1u32..40, 1u64..500, 0u64..2_000), 1..12).prop_map(|ks| {
        ks.into_iter()
            .enumerate()
            .map(|(i, (blocks, bt, issue))| Kernel::new(&format!("k{i}"), blocks, bt, issue))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work conservation: executed block-time never exceeds
    /// `slots x makespan`, and the makespan is at least the single-kernel
    /// maximum.
    #[test]
    fn work_conservation(kernels in kernels_strategy(), slots in 1u32..64) {
        let sim = GpuSim::new(spec(slots, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let cmds: Vec<Command> = kernels.iter().cloned().map(Command::Launch).collect();
        let trace = sim.run(vec![StreamSpec { priority: 0, commands: cmds }]).unwrap();
        let makespan = trace.makespan();
        let block_time: u64 = kernels.iter().map(|k| k.blocks as u64 * k.block_time_ns).sum();
        prop_assert!(block_time <= slots as u64 * makespan);
        let longest = kernels.iter().map(|k| k.isolated_exec_ns(slots)).max().unwrap_or(0);
        prop_assert!(makespan >= longest);
    }

    /// `co_run_speedup`'s closed-form sequential time equals the makespan
    /// of the one-stream run it replaces, for any split of the kernels
    /// into main and sub lists; with an empty grid among them both the
    /// one-stream run and `co_run_speedup` fail with the same error.
    #[test]
    fn closed_form_sequential_time_equals_one_stream_run(
        shapes in proptest::collection::vec((0u32..40, 1u64..500, 0u64..2_000), 1..12),
        split in 0usize..12,
        slots in 1u32..64,
        setup in 0u64..3_000,
    ) {
        let kernels: Vec<Kernel> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(blocks, bt, issue))| Kernel::new(&format!("k{i}"), blocks, bt, issue))
            .collect();
        let (main, sub) = kernels.split_at(split.min(kernels.len()));
        let one_stream = GpuSim::new(spec(slots, setup), IssueMode::PreCompiled { launch_ns: 0 })
            .run(vec![StreamSpec {
                priority: 0,
                commands: kernels.iter().cloned().map(Command::Launch).collect(),
            }]);
        let profiled = co_run_speedup(&spec(slots, setup), main, sub);
        if kernels.iter().any(|k| k.blocks == 0) {
            prop_assert!(one_stream.is_err());
            prop_assert_eq!(profiled.unwrap_err(), one_stream.unwrap_err());
        } else {
            prop_assert_eq!(profiled.unwrap().0, one_stream.unwrap().makespan());
        }
    }

    /// Single-stream kernels execute strictly in order and without
    /// overlap.
    #[test]
    fn single_stream_in_order(kernels in kernels_strategy(), setup in 0u64..3_000) {
        let sim = GpuSim::new(spec(16, setup), IssueMode::PreCompiled { launch_ns: 0 });
        let cmds: Vec<Command> = kernels.iter().cloned().map(Command::Launch).collect();
        let trace = sim.run(vec![StreamSpec { priority: 0, commands: cmds }]).unwrap();
        let mut recs = trace.records.clone();
        recs.sort_by_key(|r| r.exec_start);
        for w in recs.windows(2) {
            prop_assert!(w[0].exec_end <= w[1].exec_start);
            // Setup gap enforced between kernels.
            prop_assert!(w[1].exec_start - w[0].exec_end >= setup);
        }
    }

    /// Per-kernel issue can only delay execution relative to pre-compiled
    /// launch, never speed it up.
    #[test]
    fn issue_mode_monotone(kernels in kernels_strategy()) {
        let cmds = |ks: &[Kernel]| -> Vec<Command> {
            ks.iter().cloned().map(Command::Launch).collect()
        };
        let pre = GpuSim::new(spec(16, 0), IssueMode::PreCompiled { launch_ns: 0 })
            .run(vec![StreamSpec { priority: 0, commands: cmds(&kernels) }])
            .unwrap()
            .makespan();
        let per = GpuSim::new(spec(16, 0), IssueMode::PerKernel)
            .run(vec![StreamSpec { priority: 0, commands: cmds(&kernels) }])
            .unwrap()
            .makespan();
        prop_assert!(per >= pre, "per-kernel {per} < pre-compiled {pre}");
    }

    /// Two-stream co-run interference is bounded: fragmentation can make
    /// co-running slightly *slower* than sequential (which is exactly why
    /// Algorithm 1 profiles pairs before co-scheduling), but never by
    /// more than the low-priority stream's total per-block time; and the
    /// work bound always holds.
    #[test]
    fn co_run_bounds(a in kernels_strategy(), b in kernels_strategy(), slots in 4u32..64) {
        let gs = spec(slots, 0);
        let seq_cmds: Vec<Command> = a.iter().chain(&b).cloned().map(Command::Launch).collect();
        let seq = GpuSim::new(gs.clone(), IssueMode::PreCompiled { launch_ns: 0 })
            .run(vec![StreamSpec { priority: 0, commands: seq_cmds }])
            .unwrap()
            .makespan();
        let corun = GpuSim::new(gs, IssueMode::PreCompiled { launch_ns: 0 })
            .run(vec![
                StreamSpec { priority: 1, commands: a.iter().cloned().map(Command::Launch).collect() },
                StreamSpec { priority: 0, commands: b.iter().cloned().map(Command::Launch).collect() },
            ])
            .unwrap()
            .makespan();
        let b_interference: u64 = b.iter().map(|k| k.block_time_ns * k.blocks.div_ceil(slots) as u64).sum();
        prop_assert!(corun <= seq + b_interference, "corun {corun} > seq {seq} + {b_interference}");
        let block_time: u64 = a.iter().chain(&b).map(|k| k.blocks as u64 * k.block_time_ns).sum();
        prop_assert!(corun as u128 * slots as u128 >= block_time as u128);
    }

    /// Event-ordered pairs respect the recorded dependency.
    #[test]
    fn events_order_across_streams(
        blocks in 1u32..32,
        bt in 1u64..500,
    ) {
        let sim = GpuSim::new(spec(8, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![
                StreamSpec {
                    priority: 0,
                    commands: vec![
                        Command::Launch(Kernel::new("p", blocks, bt, 0)),
                        Command::RecordEvent(1),
                    ],
                },
                StreamSpec {
                    priority: 5,
                    commands: vec![
                        Command::WaitEvent(1),
                        Command::Launch(Kernel::new("c", blocks, bt, 0)),
                    ],
                },
            ])
            .unwrap();
        let p = trace.records.iter().find(|r| r.name == "p").unwrap();
        let c = trace.records.iter().find(|r| r.name == "c").unwrap();
        prop_assert!(c.exec_start >= p.exec_end);
    }
}
