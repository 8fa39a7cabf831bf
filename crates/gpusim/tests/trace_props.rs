//! Property tests of the unified timeline the GPU simulator emits.
//!
//! For arbitrary multi-stream workloads the rendered
//! [`ooo_core::trace::Timeline`] must be structurally well-formed
//! (ordered, non-overlapping per-lane spans), its per-lane busy time must
//! equal the kernel records' execution time, and the occupancy counter's
//! integral must equal the launched kernels' block-time — the counters
//! may never disagree with the work they summarize.

use ooo_core::trace::counter_integral;
use ooo_gpusim::engine::{Command, GpuSim, IssueMode, StreamSpec};
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

fn streams_strategy() -> impl Strategy<Value = Vec<StreamSpec>> {
    proptest::collection::vec(
        (
            0i32..10,
            proptest::collection::vec((1u32..40, 1u64..500, 0u64..2_000), 1..8),
        ),
        1..4,
    )
    .prop_map(|streams| {
        streams
            .into_iter()
            .enumerate()
            .map(|(si, (priority, ks))| StreamSpec {
                priority,
                commands: ks
                    .into_iter()
                    .enumerate()
                    .map(|(i, (blocks, bt, issue))| {
                        Command::Launch(Kernel::new(&format!("s{si}k{i}"), blocks, bt, issue))
                    })
                    .collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rendered timeline validates, covers every stream, and its
    /// per-lane busy time equals the per-stream execution time of the raw
    /// kernel records.
    #[test]
    fn timeline_is_well_formed(
        streams in streams_strategy(),
        slots in 4u32..64,
        setup in 0u64..2_000,
    ) {
        let n = streams.len();
        let sim = GpuSim::new(spec(slots, setup), IssueMode::PerKernel);
        let trace = sim.run(streams).unwrap();
        let tl = trace.to_timeline("prop");
        tl.validate().unwrap();
        let summary = tl.summarize();
        for si in 0..n {
            let lane = summary.lane(&format!("stream{si}")).unwrap();
            let exec: u64 = trace
                .records
                .iter()
                .filter(|r| r.stream == si)
                .map(|r| r.exec_end - r.exec_start)
                .sum();
            prop_assert_eq!(lane.busy_ns, exec, "stream {} busy mismatch", si);
            // Busy + stall tiles the lane up to its last span.
            let last_end = tl.lanes.iter().find(|l| l.name == format!("stream{si}"))
                .and_then(|l| l.spans.last().map(|s| s.end_ns)).unwrap_or(0);
            let first_start = tl.lanes.iter().find(|l| l.name == format!("stream{si}"))
                .and_then(|l| l.spans.first().map(|s| s.start_ns)).unwrap_or(0);
            prop_assert_eq!(lane.busy_ns + lane.stall_ns, last_end - first_start);
        }
    }

    /// The occupancy counter is consistent with the launched work: its
    /// integral equals `Σ blocks × block_time_ns` over the launched
    /// kernels, tallied from the inputs, and it never exceeds the device's
    /// slot count. Each kernel runs at least its solo `⌈blocks / slots⌉`
    /// waves and at most one wave per block.
    #[test]
    fn occupancy_counter_matches_launched_block_time(
        streams in streams_strategy(),
        slots in 4u32..64,
    ) {
        let launched: f64 = streams
            .iter()
            .flat_map(|s| &s.commands)
            .filter_map(|c| match c {
                Command::Launch(k) => Some(k.blocks as f64 * k.block_time_ns as f64),
                _ => None,
            })
            .sum();
        let sim = GpuSim::new(spec(slots, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim.run(streams).unwrap();
        let tl = trace.to_timeline("prop");
        let horizon = tl.horizon_ns();
        let counter = tl
            .counters
            .iter()
            .find(|c| c.name == "sm_slots_in_use")
            .unwrap();
        prop_assert!(counter.samples.iter().all(|&(_, v)| v <= slots as f64));
        let from_counter = counter_integral(counter, horizon);
        prop_assert!(
            (from_counter - launched).abs() < 1e-6 * launched.max(1.0),
            "counter integral {} != launched block-time {}",
            from_counter,
            launched
        );
        for r in &trace.records {
            prop_assert!(
                r.blocks.div_ceil(slots) <= r.waves && r.waves <= r.blocks,
                "{}: {} waves of {} blocks on {} slots",
                r.name,
                r.waves,
                r.blocks,
                slots
            );
        }
    }

    /// Chrome-JSON round trip is the identity for simulator-produced
    /// timelines, not just hand-built ones.
    #[test]
    fn chrome_round_trip_preserves_simulator_output(
        streams in streams_strategy(),
    ) {
        let sim = GpuSim::new(spec(16, 100), IssueMode::PerKernel);
        let trace = sim.run(streams).unwrap();
        let tl = trace.to_timeline("prop");
        let back = ooo_core::trace::Timeline::from_chrome_json(&tl.to_chrome_json()).unwrap();
        prop_assert_eq!(tl, back);
    }
}
