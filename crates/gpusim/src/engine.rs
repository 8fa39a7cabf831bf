//! The discrete-event simulation engine.
//!
//! Streams are in-order command queues. A launch becomes *ready* once the
//! CPU executor has issued it, every preceding command on its stream has
//! completed, and the per-kernel setup gap has elapsed. Free block slots
//! are granted to the ready kernel of the highest-priority stream; a
//! kernel's tail wave therefore leaves slots that a lower-priority
//! stream's blocks fill immediately — the co-execution effect behind
//! multi-stream out-of-order computation.

use crate::kernel::Kernel;
use crate::spec::GpuSpec;
use crate::trace::{KernelRecord, Trace};
use crate::{Error, Result, SimTime};
use std::collections::{BinaryHeap, HashMap};

/// The blocked event waits of every stalled stream — the evidence
/// reported by [`Error::Deadlock`].
fn blocked_waits(states: &[StreamState], recorded: &HashMap<u32, SimTime>) -> Vec<(usize, u32)> {
    states
        .iter()
        .enumerate()
        .filter_map(|(si, st)| match st.commands.get(st.cmd_idx) {
            Some(Command::WaitEvent(id)) if !recorded.contains_key(id) => Some((si, *id)),
            _ => None,
        })
        .collect()
}

/// One stream command.
#[derive(Debug, Clone)]
pub enum Command {
    /// Launch a kernel.
    Launch(Kernel),
    /// Record an event once all prior commands on this stream completed.
    RecordEvent(u32),
    /// Block the stream until the event has been recorded.
    WaitEvent(u32),
}

/// A stream with its scheduling priority (higher = preferred).
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stream priority; the paper runs the main stream at high priority.
    pub priority: i32,
    /// Commands in issue order.
    pub commands: Vec<Command>,
}

/// How the CPU issues kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// Each kernel launch costs its own `issue_ns` on a single CPU issue
    /// thread (TensorFlow-executor behaviour). Commands of different
    /// streams are issued round-robin by position.
    PerKernel,
    /// CUDA-Graph-style pre-compiled issue: the whole command set is
    /// launched at once for a single small cost.
    PreCompiled {
        /// Cost of launching the captured graph.
        launch_ns: SimTime,
    },
}

struct ActiveKernel {
    kernel_idx: usize, // index into trace records
    blocks_unlaunched: u32,
    blocks_inflight: u32,
    block_time: SimTime,
    ready_at: SimTime,
    started: Option<SimTime>,
}

struct StreamState {
    priority: i32,
    commands: Vec<Command>,
    issue_end: Vec<SimTime>,
    cmd_idx: usize,
    active: Option<ActiveKernel>,
}

/// A whole-device straggler fault: every block wave whose execution
/// starts inside `[start_ns, end_ns)` runs `factor`× slower (thermal
/// throttling, a noisy co-tenant, ECC scrubbing). A factor ≤ 1 or an
/// empty window injects nothing — the simulation is then bit-identical
/// to the fault-free run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Multiplier on block execution time (effective only when > 1).
    pub factor: f64,
    /// Window start (inclusive).
    pub start_ns: SimTime,
    /// Window end (exclusive).
    pub end_ns: SimTime,
}

impl Slowdown {
    /// Slowdown factor in effect for a wave starting at `t`.
    pub fn factor_at(&self, t: SimTime) -> f64 {
        if self.start_ns <= t && t < self.end_ns && self.factor.is_finite() && self.factor > 1.0 {
            self.factor
        } else {
            1.0
        }
    }

    /// Whether this slowdown can perturb a simulation at all.
    pub fn is_noop(&self) -> bool {
        self.end_ns <= self.start_ns || self.factor <= 1.0 || !self.factor.is_finite()
    }
}

/// The simulator.
pub struct GpuSim {
    spec: GpuSpec,
    issue_mode: IssueMode,
    slowdown: Option<Slowdown>,
}

impl GpuSim {
    /// Creates a simulator for `spec` under `issue_mode`.
    pub fn new(spec: GpuSpec, issue_mode: IssueMode) -> Self {
        GpuSim {
            spec,
            issue_mode,
            slowdown: None,
        }
    }

    /// Injects a device [`Slowdown`] into every subsequent [`GpuSim::run`].
    pub fn with_slowdown(mut self, slowdown: Slowdown) -> Self {
        self.slowdown = Some(slowdown);
        self
    }

    /// Runs the streams to completion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEvent`] for waits without a recorder,
    /// [`Error::Deadlock`] for cyclic event waits, and
    /// [`Error::InvalidConfig`] for a zero-slot GPU.
    pub fn run(&self, streams: Vec<StreamSpec>) -> Result<Trace> {
        if self.spec.block_slots() == 0 {
            return Err(Error::InvalidConfig("GPU has no block slots".into()));
        }
        // Validate event wiring.
        let recorded_ids: Vec<u32> = streams
            .iter()
            .flat_map(|s| s.commands.iter())
            .filter_map(|c| match c {
                Command::RecordEvent(id) => Some(*id),
                _ => None,
            })
            .collect();
        for s in &streams {
            for c in &s.commands {
                if let Command::WaitEvent(id) = c {
                    if !recorded_ids.contains(id) {
                        return Err(Error::UnknownEvent(*id));
                    }
                }
            }
        }

        // CPU issue times: round-robin across streams by position, one
        // issue thread, prefix-sum of per-kernel costs (or a single
        // graph-launch cost).
        let mut states: Vec<StreamState> = streams
            .into_iter()
            .map(|s| StreamState {
                priority: s.priority,
                issue_end: vec![0; s.commands.len()],
                commands: s.commands,
                cmd_idx: 0,
                active: None,
            })
            .collect();
        match self.issue_mode {
            IssueMode::PreCompiled { launch_ns } => {
                for st in &mut states {
                    for t in &mut st.issue_end {
                        *t = launch_ns;
                    }
                }
            }
            IssueMode::PerKernel => {
                let max_len = states.iter().map(|s| s.commands.len()).max().unwrap_or(0);
                let mut clock: SimTime = 0;
                for pos in 0..max_len {
                    for st in &mut states {
                        if let Some(cmd) = st.commands.get(pos) {
                            if let Command::Launch(k) = cmd {
                                clock += k.issue_ns;
                            }
                            st.issue_end[pos] = clock;
                        }
                    }
                }
            }
        }

        let slots_total = self.spec.block_slots();
        let mut slots_free = slots_total;
        let mut records: Vec<KernelRecord> = Vec::new();
        // `(time, slots in use)` samples, one per simulated instant at
        // which the in-use count changed.
        let mut occupancy: Vec<(SimTime, u32)> = Vec::new();
        let mut recorded: HashMap<u32, SimTime> = HashMap::new();
        // Completion events: (time, stream, blocks). Wakes: (time).
        let mut completions: BinaryHeap<std::cmp::Reverse<(SimTime, usize, u32)>> =
            BinaryHeap::new();
        let mut wakes: BinaryHeap<std::cmp::Reverse<SimTime>> = BinaryHeap::new();
        wakes.push(std::cmp::Reverse(0));

        let all_done = |states: &[StreamState]| {
            states
                .iter()
                .all(|s| s.cmd_idx == s.commands.len() && s.active.is_none())
        };

        // Allocation order: priority, stable by stream index. Stream
        // priorities are immutable for the whole run, so this is computed
        // once here instead of being re-sorted on every scheduling step.
        let mut alloc_order: Vec<usize> = (0..states.len()).collect();
        alloc_order.sort_by_key(|&i| (std::cmp::Reverse(states[i].priority), i));

        let mut guard = 0u64;
        while !all_done(&states) {
            guard += 1;
            if guard > 10_000_000 {
                return Err(Error::Deadlock {
                    waits: blocked_waits(&states, &recorded),
                });
            }
            // Next event time.
            let tc = completions.peek().map(|std::cmp::Reverse((t, _, _))| *t);
            let tw = wakes.peek().map(|std::cmp::Reverse(t)| *t);
            let t = match (tc, tw) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    return Err(Error::Deadlock {
                        waits: blocked_waits(&states, &recorded),
                    })
                }
            };
            while wakes.peek().is_some_and(|std::cmp::Reverse(w)| *w <= t) {
                wakes.pop();
            }
            // 1. Block completions at time t.
            while completions
                .peek()
                .is_some_and(|std::cmp::Reverse((ct, _, _))| *ct <= t)
            {
                let std::cmp::Reverse((_, si, n)) = completions.pop().expect("peeked");
                slots_free += n;
                let st = &mut states[si];
                let finished = {
                    let active = st
                        .active
                        .as_mut()
                        .expect("completion implies active kernel");
                    active.blocks_inflight -= n;
                    active.blocks_unlaunched == 0 && active.blocks_inflight == 0
                };
                if finished {
                    let active = st.active.take().expect("checked above");
                    records[active.kernel_idx].exec_end = t;
                    st.cmd_idx += 1;
                }
            }
            // 2. Advance stream commands and allocate slots; loop until a
            //    fixed point so same-instant record/wait chains resolve.
            loop {
                let mut changed = false;
                // Command advancement.
                #[allow(clippy::needless_range_loop)] // si is also stored in records
                for si in 0..states.len() {
                    let st = &mut states[si];
                    while st.active.is_none() && st.cmd_idx < st.commands.len() {
                        let idx = st.cmd_idx;
                        let issue_end = st.issue_end[idx];
                        match &st.commands[idx] {
                            Command::RecordEvent(id) => {
                                recorded.entry(*id).or_insert(t);
                                st.cmd_idx += 1;
                                changed = true;
                            }
                            Command::WaitEvent(id) => {
                                if recorded.get(id).is_some_and(|&rt| rt <= t) {
                                    st.cmd_idx += 1;
                                    changed = true;
                                } else {
                                    break;
                                }
                            }
                            Command::Launch(k) => {
                                if issue_end > t {
                                    wakes.push(std::cmp::Reverse(issue_end));
                                    break;
                                }
                                let kernel_idx = records.len();
                                records.push(KernelRecord {
                                    name: k.name.clone(),
                                    stream: si,
                                    blocks: k.blocks,
                                    waves: 0,
                                    issue_end,
                                    exec_start: 0,
                                    exec_end: 0,
                                });
                                st.active = Some(ActiveKernel {
                                    kernel_idx,
                                    blocks_unlaunched: k.blocks,
                                    blocks_inflight: 0,
                                    block_time: k.block_time_ns,
                                    ready_at: t.max(issue_end) + self.spec.kernel_setup_ns,
                                    started: None,
                                });
                                changed = true;
                                break;
                            }
                        }
                    }
                }
                // Slot allocation: priority order, stable by stream index.
                // A higher-priority kernel in its setup window *reserves*
                // the slots it is about to take: lower-priority streams
                // may only use capacity the higher streams genuinely
                // leave over (e.g. a tail wave), matching how the
                // hardware scheduler drains priority streams first.
                for &si in &alloc_order {
                    if slots_free == 0 {
                        break;
                    }
                    let Some(active) = states[si].active.as_mut() else {
                        continue;
                    };
                    if active.blocks_unlaunched == 0 {
                        continue;
                    }
                    if active.ready_at > t {
                        wakes.push(std::cmp::Reverse(active.ready_at));
                        // Reserve the remaining slots for this stream.
                        break;
                    }
                    let n = active.blocks_unlaunched.min(slots_free);
                    active.blocks_unlaunched -= n;
                    active.blocks_inflight += n;
                    slots_free -= n;
                    if active.started.is_none() {
                        active.started = Some(t);
                        records[active.kernel_idx].exec_start = t;
                    }
                    // Straggler injection: waves starting inside the
                    // slowdown window stretch; factor 1 leaves the
                    // arithmetic untouched for exact baseline replay.
                    let factor = self.slowdown.map_or(1.0, |s| s.factor_at(t));
                    let block_time = if factor > 1.0 {
                        (active.block_time as f64 * factor) as SimTime
                    } else {
                        active.block_time
                    };
                    records[active.kernel_idx].waves += 1;
                    completions.push(std::cmp::Reverse((t + block_time, si, n)));
                    changed = true;
                }
                if !changed {
                    break;
                }
            }
            let in_use = slots_total - slots_free;
            match occupancy.last_mut() {
                Some(last) if last.0 == t => last.1 = in_use,
                Some(last) if last.1 == in_use => {}
                _ => occupancy.push((t, in_use)),
            }
            if completions.is_empty() && wakes.is_empty() && !all_done(&states) {
                return Err(Error::Deadlock {
                    waits: blocked_waits(&states, &recorded),
                });
            }
        }

        // Records are reported sorted by `(exec_start, stream)`, ties in
        // launch order (the sort is stable).
        records.sort_by_key(|r| (r.exec_start, r.stream));
        Ok(Trace {
            records,
            slots: slots_total,
            occupancy,
        })
    }
}

/// Measures the co-run speedup of running `sub` kernels on a low-priority
/// stream concurrently with `main` kernels, versus running everything
/// sequentially on one stream — the profiling step feeding the paper's
/// Algorithm 1.
///
/// Only the co-run is simulated. The sequential time is the closed form
/// of the one-stream run under `PreCompiled { launch_ns: 0 }`, `Σ
/// (kernel_setup_ns + isolated_exec_ns)`: each kernel becomes ready one
/// setup gap after its predecessor completes, then runs `⌈blocks /
/// slots⌉` full-device waves, since nothing else holds a slot.
///
/// Returns `(sequential_ns, corun_ns, speedup)`.
///
/// # Errors
///
/// Propagates simulator errors. A kernel with no blocks deadlocks the
/// co-run exactly as it deadlocks the one-stream run (its stream never
/// completes it), so it still yields [`Error::Deadlock`].
pub fn co_run_speedup(
    spec: &GpuSpec,
    main: &[Kernel],
    sub: &[Kernel],
) -> Result<(SimTime, SimTime, f64)> {
    let slots = spec.block_slots();
    let s: SimTime = main
        .iter()
        .chain(sub)
        .map(|k| spec.kernel_setup_ns + k.isolated_exec_ns(slots))
        .sum();
    let corun = GpuSim::new(spec.clone(), IssueMode::PreCompiled { launch_ns: 0 }).run(vec![
        StreamSpec {
            priority: 1,
            commands: main.iter().cloned().map(Command::Launch).collect(),
        },
        StreamSpec {
            priority: 0,
            commands: sub.iter().cloned().map(Command::Launch).collect(),
        },
    ])?;
    let c = corun.makespan();
    let speedup = if c == 0 { 1.0 } else { s as f64 / c as f64 };
    Ok((s, c, speedup))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(slots: u32, setup: SimTime) -> GpuSpec {
        GpuSpec {
            name: "test",
            num_sms: slots,
            blocks_per_sm: 1,
            kernel_setup_ns: setup,
            relative_throughput: 1.0,
        }
    }

    fn launch(name: &str, blocks: u32, bt: SimTime, issue: SimTime) -> Command {
        Command::Launch(Kernel::new(name, blocks, bt, issue))
    }

    #[test]
    fn single_kernel_single_wave() {
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![StreamSpec {
                priority: 0,
                commands: vec![launch("k", 10, 100, 0)],
            }])
            .unwrap();
        assert_eq!(trace.makespan(), 100);
        assert_eq!(trace.records[0].exec_start, 0);
        assert_eq!(trace.records[0].exec_end, 100);
    }

    #[test]
    fn multi_wave_kernel() {
        let sim = GpuSim::new(tiny_spec(4, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![StreamSpec {
                priority: 0,
                commands: vec![launch("k", 10, 100, 0)],
            }])
            .unwrap();
        // Waves of 4, 4, 2 blocks.
        assert_eq!(trace.makespan(), 300);
    }

    #[test]
    fn setup_gap_between_kernels() {
        let sim = GpuSim::new(tiny_spec(10, 50), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![StreamSpec {
                priority: 0,
                commands: vec![launch("a", 10, 100, 0), launch("b", 10, 100, 0)],
            }])
            .unwrap();
        // a: setup 50 + 100; b: setup 50 + 100 after a.
        assert_eq!(trace.makespan(), 300);
        assert_eq!(trace.records[1].exec_start, 200);
    }

    #[test]
    fn issue_overhead_starves_gpu() {
        // Issue costs exceed execution: every kernel waits on the CPU.
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PerKernel);
        let cmds: Vec<Command> = (0..4)
            .map(|i| launch(&format!("k{i}"), 10, 100, 400))
            .collect();
        let trace = sim
            .run(vec![StreamSpec {
                priority: 0,
                commands: cmds,
            }])
            .unwrap();
        // Kernel i is issued at 400*(i+1); exec takes 100 after issue.
        assert_eq!(trace.records[3].exec_start, 1_600);
        assert_eq!(trace.makespan(), 1_700);
        // Pre-compiled issue removes the starvation.
        let sim2 = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 10 });
        let cmds: Vec<Command> = (0..4)
            .map(|i| launch(&format!("k{i}"), 10, 100, 400))
            .collect();
        let t2 = sim2
            .run(vec![StreamSpec {
                priority: 0,
                commands: cmds,
            }])
            .unwrap();
        assert_eq!(t2.makespan(), 410);
    }

    #[test]
    fn tail_wave_filled_by_low_priority_stream() {
        // Main kernel uses 6 of 10 slots; sub kernel's 4 blocks run
        // concurrently in the leftover slots.
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![
                StreamSpec {
                    priority: 1,
                    commands: vec![launch("main", 6, 100, 0)],
                },
                StreamSpec {
                    priority: 0,
                    commands: vec![launch("sub", 4, 100, 0)],
                },
            ])
            .unwrap();
        assert_eq!(trace.makespan(), 100, "full overlap expected");
    }

    #[test]
    fn priority_stream_gets_slots_first() {
        // Both streams want 10 slots on a 10-slot GPU: the high-priority
        // stream runs first.
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![
                StreamSpec {
                    priority: 0,
                    commands: vec![launch("low", 10, 100, 0)],
                },
                StreamSpec {
                    priority: 5,
                    commands: vec![launch("high", 10, 100, 0)],
                },
            ])
            .unwrap();
        let high = trace.records.iter().find(|r| r.name == "high").unwrap();
        let low = trace.records.iter().find(|r| r.name == "low").unwrap();
        assert!(high.exec_start < low.exec_start);
    }

    #[test]
    fn events_enforce_cross_stream_order() {
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim
            .run(vec![
                StreamSpec {
                    priority: 1,
                    commands: vec![launch("producer", 10, 100, 0), Command::RecordEvent(1)],
                },
                StreamSpec {
                    priority: 0,
                    commands: vec![Command::WaitEvent(1), launch("consumer", 10, 100, 0)],
                },
            ])
            .unwrap();
        let p = trace.records.iter().find(|r| r.name == "producer").unwrap();
        let c = trace.records.iter().find(|r| r.name == "consumer").unwrap();
        assert!(c.exec_start >= p.exec_end);
    }

    #[test]
    fn unknown_event_rejected() {
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let r = sim.run(vec![StreamSpec {
            priority: 0,
            commands: vec![Command::WaitEvent(9)],
        }]);
        assert_eq!(r.unwrap_err(), Error::UnknownEvent(9));
    }

    #[test]
    fn cyclic_waits_deadlock() {
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let r = sim.run(vec![
            StreamSpec {
                priority: 0,
                commands: vec![Command::WaitEvent(1), Command::RecordEvent(2)],
            },
            StreamSpec {
                priority: 0,
                commands: vec![Command::WaitEvent(2), Command::RecordEvent(1)],
            },
        ]);
        let err = r.unwrap_err();
        assert_eq!(
            err,
            Error::Deadlock {
                waits: vec![(0, 1), (1, 2)],
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("stream 0 blocked on event 1"), "{msg}");
        assert!(msg.contains("stream 1 blocked on event 2"), "{msg}");
    }

    #[test]
    fn same_stream_wait_before_record_reports_cycle() {
        // A stream waiting on an event that only it records *later* can
        // never make progress: the wait must fail with the same
        // cycle-reporting error as a cross-stream cycle, naming the
        // stream and event, rather than hanging or reporting a generic
        // stall.
        let sim = GpuSim::new(tiny_spec(10, 0), IssueMode::PreCompiled { launch_ns: 0 });
        let r = sim.run(vec![
            StreamSpec {
                priority: 0,
                commands: vec![launch("other", 4, 100, 0)],
            },
            StreamSpec {
                priority: 0,
                commands: vec![
                    Command::WaitEvent(7),
                    launch("gated", 4, 100, 0),
                    Command::RecordEvent(7),
                ],
            },
        ]);
        let err = r.unwrap_err();
        assert_eq!(
            err,
            Error::Deadlock {
                waits: vec![(1, 7)],
            }
        );
        assert!(err.to_string().contains("stream 1 blocked on event 7"));
    }

    #[test]
    fn timeline_occupancy_integral_matches_launched_block_time() {
        // Two streams with partial overlap: the occupancy counter's
        // integral over time must equal the block·time of the launched
        // kernels, `Σ blocks × block_time_ns`, tallied from the inputs
        // (each in-use slot runs exactly one block; no slowdown here).
        let kernels = [
            (1, Kernel::new("main1", 6, 100, 0)),
            (1, Kernel::new("main2", 12, 80, 0)),
            (0, Kernel::new("sub", 5, 120, 0)),
        ];
        let launched: f64 = kernels
            .iter()
            .map(|(_, k)| k.blocks as f64 * k.block_time_ns as f64)
            .sum();
        let stream = |priority: i32| StreamSpec {
            priority,
            commands: kernels
                .iter()
                .filter(|(p, _)| *p == priority)
                .map(|(_, k)| Command::Launch(k.clone()))
                .collect(),
        };
        let sim = GpuSim::new(tiny_spec(8, 10), IssueMode::PreCompiled { launch_ns: 0 });
        let trace = sim.run(vec![stream(1), stream(0)]).unwrap();
        let tl = trace.to_timeline("test");
        tl.validate().unwrap();
        let counter = &tl.counters[0];
        let integral = ooo_core::trace::counter_integral(counter, tl.horizon_ns());
        assert!(
            (integral - launched).abs() < 1e-6,
            "integral {integral} != launched block-time {launched}"
        );
        // Per-record wave counts. main1 runs its 6 blocks in one wave at
        // t=10 and sub takes the 2 slots left over. main2's 12 blocks go
        // out as 6 at 120, 2 when sub's first wave ends at 130, and the
        // last 4 when its first wave ends at 200; sub's remaining 3 blocks
        // run as 2 at 200 and 1 at 210.
        let waves = |name: &str| {
            trace
                .records
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.waves)
                .unwrap()
        };
        assert_eq!([waves("main1"), waves("main2"), waves("sub")], [1, 3, 3]);
        // The timeline's span argument carries the same counts.
        let span_waves: Vec<(String, f64)> = tl
            .lanes
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.cat == "kernel")
            .map(|s| {
                let w = s.args.iter().find(|(k, _)| k == "waves").unwrap().1;
                (s.name.clone(), w)
            })
            .collect();
        for (name, w) in span_waves {
            assert_eq!(w, waves(&name) as f64, "{name}");
        }
    }

    #[test]
    fn solo_kernel_runs_ceil_blocks_over_slots_waves() {
        for (blocks, slots) in [(1, 4), (4, 4), (5, 4), (10, 4), (64, 7), (3, 100)] {
            let sim = GpuSim::new(tiny_spec(slots, 5), IssueMode::PreCompiled { launch_ns: 0 });
            let trace = sim
                .run(vec![StreamSpec {
                    priority: 0,
                    commands: vec![launch("a", blocks, 10, 0), launch("b", blocks, 10, 0)],
                }])
                .unwrap();
            for r in &trace.records {
                assert_eq!(
                    r.waves,
                    blocks.div_ceil(slots),
                    "{blocks} blocks on {slots} slots"
                );
            }
        }
    }

    #[test]
    fn slowdown_window_stretches_covered_waves_only() {
        // Waves of 4/4/2 blocks at t=0/100/200 without fault. A 2×
        // slowdown over [90, 150) catches only the second wave.
        let streams = || {
            vec![StreamSpec {
                priority: 0,
                commands: vec![launch("k", 10, 100, 0)],
            }]
        };
        let base = GpuSim::new(tiny_spec(4, 0), IssueMode::PreCompiled { launch_ns: 0 })
            .run(streams())
            .unwrap();
        assert_eq!(base.makespan(), 300);
        let slow = GpuSim::new(tiny_spec(4, 0), IssueMode::PreCompiled { launch_ns: 0 })
            .with_slowdown(Slowdown {
                factor: 2.0,
                start_ns: 90,
                end_ns: 150,
            })
            .run(streams())
            .unwrap();
        // Second wave takes 200 ns; third starts at 300 and runs clean.
        assert_eq!(slow.makespan(), 400);
        let tl = slow.to_timeline("straggler");
        tl.validate().unwrap();
    }

    #[test]
    fn noop_slowdown_reproduces_baseline_exactly() {
        let streams = || {
            vec![
                StreamSpec {
                    priority: 1,
                    commands: vec![launch("main1", 6, 100, 0), launch("main2", 12, 80, 0)],
                },
                StreamSpec {
                    priority: 0,
                    commands: vec![launch("sub", 5, 120, 0)],
                },
            ]
        };
        let base = GpuSim::new(tiny_spec(8, 10), IssueMode::PreCompiled { launch_ns: 0 })
            .run(streams())
            .unwrap();
        for s in [
            Slowdown {
                factor: 1.0,
                start_ns: 0,
                end_ns: SimTime::MAX,
            },
            Slowdown {
                factor: 4.0,
                start_ns: 50,
                end_ns: 50,
            },
            Slowdown {
                factor: 0.25,
                start_ns: 0,
                end_ns: SimTime::MAX,
            },
        ] {
            assert!(s.is_noop());
            let faulted = GpuSim::new(tiny_spec(8, 10), IssueMode::PreCompiled { launch_ns: 0 })
                .with_slowdown(s)
                .run(streams())
                .unwrap();
            assert_eq!(base.records, faulted.records);
            assert_eq!(base.occupancy, faulted.occupancy);
        }
    }

    #[test]
    fn co_run_speedup_detects_complementary_kernels() {
        let spec = tiny_spec(10, 0);
        // Main kernels underuse the GPU (4 of 10 slots); sub kernels fit
        // in the rest: near-2x from co-running.
        let main: Vec<Kernel> = (0..4)
            .map(|i| Kernel::new(&format!("m{i}"), 4, 100, 0))
            .collect();
        let sub: Vec<Kernel> = (0..4)
            .map(|i| Kernel::new(&format!("s{i}"), 4, 100, 0))
            .collect();
        let (seq, corun, speedup) = co_run_speedup(&spec, &main, &sub).unwrap();
        assert_eq!(seq, 800);
        assert_eq!(corun, 400);
        assert!((speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn saturated_kernels_gain_nothing_from_co_run() {
        let spec = tiny_spec(10, 0);
        let main: Vec<Kernel> = (0..3)
            .map(|i| Kernel::new(&format!("m{i}"), 10, 100, 0))
            .collect();
        let sub: Vec<Kernel> = (0..3)
            .map(|i| Kernel::new(&format!("s{i}"), 10, 100, 0))
            .collect();
        let (seq, corun, speedup) = co_run_speedup(&spec, &main, &sub).unwrap();
        assert_eq!(seq, corun);
        assert!((speedup - 1.0).abs() < 1e-9);
    }
}
