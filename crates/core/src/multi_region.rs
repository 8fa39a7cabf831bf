//! Multi-region joint scheduling (the paper's Algorithm 1).
//!
//! Single-GPU training runs two GPU streams: the *main stream* executes
//! the critical path (forward and output-gradient computations, at high
//! priority) and the *sub stream* executes the weight-gradient
//! computations. Because the GPU assigns SMs dynamically, exact kernel
//! pairing is infeasible; instead the main-stream timeline is split into
//! *regions* of similar compute characteristics (a DenseBlock or ResNet
//! block per region) and each weight-gradient kernel is assigned to the
//! region where profiling says co-running it yields the largest speedup.

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::graph::TrainGraph;
use crate::memory::memory_profile;
use crate::op::{LayerId, Op};
use crate::schedule::Schedule;
use crate::SimTime;

/// A contiguous region of the main-stream schedule.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (e.g. "DenseBlock-3 bwd").
    pub name: String,
    /// Main-stream kernels of the region with their execution times, in
    /// issue order.
    pub entries: Vec<(Op, SimTime)>,
}

impl RegionSpec {
    /// Total main-stream execution time of the region, the paper's
    /// `T_main(R[i])`.
    pub fn main_time(&self) -> SimTime {
        self.entries.iter().map(|&(_, d)| d).sum()
    }
}

/// Profiling results feeding Algorithm 1: for each (sub-stream kernel,
/// region) pair, the speedup of co-running versus sequential execution and
/// the kernel's execution time inside that region.
pub trait SpeedupProfile {
    /// Speedup of co-running `op` with region `region`'s main-stream
    /// kernels, relative to running it sequentially (1.0 = no benefit).
    fn speedup(&self, op: Op, region: usize) -> f64;

    /// Execution time of `op` when run in the sub-stream during `region`
    /// — the paper's `T_sub(k, R[i])` (usually slightly longer than the
    /// isolated time because of SM contention).
    fn sub_time(&self, op: Op, region: usize) -> SimTime;
}

/// A profile with region-independent constants, useful for tests and for
/// models whose kernels are uniform.
#[derive(Debug, Clone, Copy)]
pub struct ConstantProfile {
    /// Uniform co-run speedup.
    pub speedup: f64,
    /// Uniform sub-stream execution time.
    pub sub_time: SimTime,
}

impl SpeedupProfile for ConstantProfile {
    fn speedup(&self, _op: Op, _region: usize) -> f64 {
        self.speedup
    }

    fn sub_time(&self, _op: Op, _region: usize) -> SimTime {
        self.sub_time
    }
}

/// The sub-stream assignment produced by Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRegionSchedule {
    /// Sub-stream kernels per region, in sub-stream issue order
    /// (the paper's `S[1..N]`).
    pub per_region: Vec<Vec<Op>>,
}

impl MultiRegionSchedule {
    /// Flattens the assignment into a two-lane [`Schedule`]: lane 0 is the
    /// main stream (regions concatenated), lane 1 the sub stream.
    pub fn to_schedule(&self, regions: &[RegionSpec]) -> Schedule {
        let mut s = Schedule::new();
        let main: Vec<Op> = regions
            .iter()
            .flat_map(|r| r.entries.iter().map(|&(op, _)| op))
            .collect();
        s.add_lane("main-stream", main);
        let sub: Vec<Op> = self.per_region.iter().flatten().copied().collect();
        s.add_lane("sub-stream", sub);
        s
    }

    /// Total number of assigned sub-stream kernels.
    pub fn num_assigned(&self) -> usize {
        self.per_region.iter().map(Vec::len).sum()
    }
}

/// When each of `ops` becomes runnable: the latest finish, under
/// sequential main-stream execution, of its dependencies among the
/// regions' ops (0 when it has none there). Computed once per schedule,
/// parallel to `ops`.
fn ready_times(graph: &TrainGraph, regions: &[RegionSpec], ops: &[Op]) -> Vec<SimTime> {
    let mut t = 0;
    let mut finishes: Vec<(Op, SimTime)> = Vec::new();
    for r in regions {
        for &(op, d) in &r.entries {
            t += d;
            finishes.push((op, t));
        }
    }
    ops.iter()
        .map(|&op| {
            graph
                .deps(op)
                .unwrap_or_default()
                .iter()
                .filter_map(|d| finishes.iter().find(|(o, _)| o == d).map(|&(_, t)| t))
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// Absolute start time of each region under sequential main-stream
/// execution.
fn region_starts(regions: &[RegionSpec]) -> Vec<SimTime> {
    let mut starts = Vec::with_capacity(regions.len());
    let mut t = 0;
    for r in regions {
        starts.push(t);
        t += r.main_time();
    }
    starts
}

/// The paper's Algorithm 1: assigns each weight-gradient kernel of
/// `sub_kernels` to a region, greedily maximizing co-run speedup, while
/// respecting each kernel's readiness (its incoming gradient must have
/// been produced by the main stream before the kernel's sub-stream slot).
///
/// Kernels that no remaining region has capacity for are appended to the
/// last region (overflowing its nominal main time), so every kernel is
/// always scheduled.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when `regions` is empty and sub
/// kernels exist.
pub fn multi_region_joint_schedule<P: SpeedupProfile>(
    graph: &TrainGraph,
    regions: &[RegionSpec],
    sub_kernels: &[Op],
    profile: &P,
) -> Result<MultiRegionSchedule> {
    if regions.is_empty() {
        if sub_kernels.is_empty() {
            return Ok(MultiRegionSchedule {
                per_region: Vec::new(),
            });
        }
        return Err(Error::InvalidConfig("no regions to schedule into".into()));
    }
    let starts = region_starts(regions);
    let n = regions.len();
    let mut now: Vec<SimTime> = vec![0; n];
    let mut per_region: Vec<Vec<Op>> = vec![Vec::new(); n];
    let mut unscheduled: Vec<Op> = sub_kernels.to_vec();
    // `ready[i]` is when `unscheduled[i]` becomes runnable; the two
    // vectors shrink together.
    let mut ready = ready_times(graph, regions, &unscheduled);
    let mut candidates: Vec<usize> = (0..n).collect();

    while !unscheduled.is_empty() {
        // For each candidate region find the runnable kernel with the best
        // speedup; then commit the globally best (region, kernel) pair
        // (Algorithm 1 lines 4–9).
        let mut best: Option<(f64, usize, usize)> = None; // (speedup, region, kernel idx)
        for &ri in &candidates {
            let slot = starts[ri] + now[ri];
            let mut region_best: Option<(f64, usize)> = None;
            for (ki, &k) in unscheduled.iter().enumerate() {
                if ready[ki] > slot {
                    continue;
                }
                let p = profile.speedup(k, ri);
                if region_best.is_none_or(|(bp, _)| p > bp) {
                    region_best = Some((p, ki));
                }
            }
            if let Some((p, ki)) = region_best {
                if best.is_none_or(|(bp, _, _)| p > bp) {
                    best = Some((p, ri, ki));
                }
            }
        }
        match best {
            Some((_, ri, ki)) => {
                let k = unscheduled.remove(ki);
                ready.remove(ki);
                per_region[ri].push(k);
                now[ri] += profile.sub_time(k, ri);
                if now[ri] >= regions[ri].main_time() {
                    candidates.retain(|&c| c != ri);
                }
            }
            None => {
                if candidates.is_empty() {
                    // All regions exhausted: overflow into the last region
                    // in readiness order so nothing is dropped (a stable
                    // sort: ties keep their sub-kernel order).
                    let mut rest: Vec<(SimTime, Op)> =
                        ready.drain(..).zip(unscheduled.drain(..)).collect();
                    rest.sort_by_key(|&(r, _)| r);
                    per_region[n - 1].extend(rest.into_iter().map(|(_, k)| k));
                } else {
                    // No kernel is runnable yet in any open region: the
                    // earliest-start open region is advanced to the next
                    // readiness point.
                    let next_ready = *ready.iter().min().expect("non-empty");
                    let ri = *candidates
                        .iter()
                        .min_by_key(|&&c| starts[c] + now[c])
                        .expect("candidates non-empty");
                    let slot = starts[ri] + now[ri];
                    if next_ready > slot {
                        now[ri] += next_ready - slot;
                    }
                    if now[ri] >= regions[ri].main_time() {
                        candidates.retain(|&c| c != ri);
                    }
                }
            }
        }
    }
    Ok(MultiRegionSchedule { per_region })
}

/// Memory-aware wrapper: runs Algorithm 1, estimates peak memory of the
/// merged execution, and if it exceeds `budget_bytes` pre-schedules the
/// first `k` regions eagerly (weight gradients as soon as ready, keeping
/// lifetimes short), retrying with growing `k` exactly as the paper
/// describes after Algorithm 1.
///
/// # Errors
///
/// Returns [`Error::MemoryBudgetExceeded`] when even fully eager
/// pre-scheduling cannot meet the budget.
pub fn schedule_with_memory_budget<P, C>(
    graph: &TrainGraph,
    regions: &[RegionSpec],
    sub_kernels: &[Op],
    profile: &P,
    cost: &C,
    budget_bytes: u64,
) -> Result<MultiRegionSchedule>
where
    P: SpeedupProfile,
    C: CostModel,
{
    let n = regions.len();
    for k in 0..=n {
        let schedule = if k == 0 {
            multi_region_joint_schedule(graph, regions, sub_kernels, profile)?
        } else {
            eager_prefix_schedule(graph, regions, sub_kernels, profile, k)?
        };
        let order = merged_order(regions, &schedule);
        let peak = memory_profile(graph, &order, cost)?.peak;
        if peak <= budget_bytes {
            return Ok(schedule);
        }
    }
    let order = merged_order(
        regions,
        &eager_prefix_schedule(graph, regions, sub_kernels, profile, n)?,
    );
    let peak = memory_profile(graph, &order, cost)?.peak;
    Err(Error::MemoryBudgetExceeded {
        peak,
        budget: budget_bytes,
    })
}

/// Pre-schedules weight gradients eagerly in the first `k` regions (each
/// kernel goes to the first region in which it is runnable), then runs
/// Algorithm 1 for the remainder.
fn eager_prefix_schedule<P: SpeedupProfile>(
    graph: &TrainGraph,
    regions: &[RegionSpec],
    sub_kernels: &[Op],
    profile: &P,
    k: usize,
) -> Result<MultiRegionSchedule> {
    let starts = region_starts(regions);
    let k = k.min(regions.len());
    let mut eager: Vec<Vec<Op>> = vec![Vec::new(); k];
    let mut rest: Vec<Op> = Vec::new();
    for (&op, ready) in sub_kernels
        .iter()
        .zip(ready_times(graph, regions, sub_kernels))
    {
        // First of the k prefix regions whose span begins at or after the
        // kernel's readiness (so the kernel runs as soon as possible).
        let region = (0..k).find(|&ri| {
            let end = starts[ri] + regions[ri].main_time();
            ready < end
        });
        match region {
            Some(ri) => eager[ri].push(op),
            // A kernel only ready at (or after) the end of the prefix goes
            // to Algorithm 1 for the tail — unless the prefix covers every
            // region, in which case it overflows into the last one.
            None if k == regions.len() => eager[k - 1].push(op),
            None => rest.push(op),
        }
    }
    let tail = multi_region_joint_schedule(
        graph,
        &regions[k..],
        &rest,
        &ShiftedProfile {
            inner: profile,
            shift: k,
        },
    )?;
    let mut per_region = eager;
    per_region.extend(tail.per_region);
    Ok(MultiRegionSchedule { per_region })
}

/// Adapter shifting region indices for the tail of an eager-prefix run.
struct ShiftedProfile<'a, P> {
    inner: &'a P,
    shift: usize,
}

impl<P: SpeedupProfile> SpeedupProfile for ShiftedProfile<'_, P> {
    fn speedup(&self, op: Op, region: usize) -> f64 {
        self.inner.speedup(op, region + self.shift)
    }

    fn sub_time(&self, op: Op, region: usize) -> SimTime {
        self.inner.sub_time(op, region + self.shift)
    }
}

/// Approximate single-sequence execution order of a two-stream region
/// schedule, used for memory accounting: main-stream ops at their
/// sequential times, sub-stream ops interleaved at their region slots.
pub fn merged_order(regions: &[RegionSpec], schedule: &MultiRegionSchedule) -> Vec<Op> {
    let starts = region_starts(regions);
    let mut timed: Vec<(SimTime, u8, Op)> = Vec::new();
    let mut t = 0;
    for r in regions {
        for &(op, d) in &r.entries {
            timed.push((t, 0, op));
            t += d;
        }
    }
    for (ri, ops) in schedule.per_region.iter().enumerate() {
        let start = starts.get(ri).copied().unwrap_or(t);
        let span = regions
            .get(ri)
            .map(RegionSpec::main_time)
            .unwrap_or(1)
            .max(1);
        let step = (span / (ops.len() as SimTime + 1)).max(1);
        let mut slot = start + step;
        for &op in ops {
            timed.push((slot, 1, op));
            slot += step;
        }
    }
    timed.sort_by_key(|&(time, lane, op)| (time, lane, op));
    timed.into_iter().map(|(_, _, op)| op).collect()
}

/// Builds backward-pass regions from a graph and a cost model by grouping
/// `layers_per_region` consecutive layers (in backward order) into one
/// region each — the "DenseBlock per region" structure of the paper.
///
/// The main stream holds the loss and output-gradient chain; the returned
/// sub-kernel list holds every weight gradient.
pub fn backward_regions<C: CostModel>(
    graph: &TrainGraph,
    cost: &C,
    layers_per_region: usize,
) -> (Vec<RegionSpec>, Vec<Op>) {
    let l = graph.layers();
    let per = layers_per_region.max(1);
    let mut regions: Vec<RegionSpec> = Vec::new();
    let mut current: Vec<(Op, SimTime)> = vec![(Op::Loss, cost.duration(Op::Loss))];
    let mut count = 0;
    for i in (1..=l).rev() {
        let op = Op::OutputGrad(LayerId(i));
        if graph.contains(op) {
            current.push((op, cost.duration(op)));
        }
        count += 1;
        if count == per {
            regions.push(RegionSpec {
                name: format!("R{}", regions.len() + 1),
                entries: std::mem::take(&mut current),
            });
            count = 0;
        }
    }
    if !current.is_empty() {
        regions.push(RegionSpec {
            name: format!("R{}", regions.len() + 1),
            entries: current,
        });
    }
    let subs = graph.weight_grads();
    (regions, subs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::list_scheduling::simulate;

    fn setup(l: usize, per: usize) -> (TrainGraph, Vec<RegionSpec>, Vec<Op>) {
        let g = TrainGraph::single_gpu(l);
        let (regions, subs) = backward_regions(&g, &UnitCost, per);
        (g, regions, subs)
    }

    #[test]
    fn all_sub_kernels_scheduled_exactly_once() {
        let (g, regions, subs) = setup(12, 3);
        let p = ConstantProfile {
            speedup: 1.2,
            sub_time: 1,
        };
        let s = multi_region_joint_schedule(&g, &regions, &subs, &p).unwrap();
        assert_eq!(s.num_assigned(), subs.len());
        let mut all: Vec<Op> = s.per_region.iter().flatten().copied().collect();
        all.sort();
        let mut expect = subs.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn readiness_respected() {
        // dW_1 depends on dO_2, which the main stream finishes last; it
        // must not land in the first region.
        let (g, regions, subs) = setup(8, 2);
        let p = ConstantProfile {
            speedup: 1.5,
            sub_time: 1,
        };
        let s = multi_region_joint_schedule(&g, &regions, &subs, &p).unwrap();
        assert!(!s.per_region[0].contains(&Op::WeightGrad(LayerId(1))));
        // dW_8 only needs the loss and may go anywhere, including region 0.
        let two_lane = s.to_schedule(&regions);
        // The two-lane schedule must simulate without deadlock.
        simulate(&g, &two_lane, &UnitCost).unwrap();
    }

    #[test]
    fn higher_speedup_region_preferred() {
        let (g, regions, subs) = setup(4, 2);
        // Region 1 gives much better speedups than region 0.
        struct P;
        impl SpeedupProfile for P {
            fn speedup(&self, _op: Op, region: usize) -> f64 {
                if region == 1 {
                    2.0
                } else {
                    1.01
                }
            }
            fn sub_time(&self, _op: Op, _region: usize) -> SimTime {
                1
            }
        }
        let s = multi_region_joint_schedule(&g, &regions, &subs, &P).unwrap();
        // Region 1 fills to (at least) its capacity.
        assert!(!s.per_region[1].is_empty());
    }

    #[test]
    fn capacity_exhaustion_overflows_into_last_region() {
        let (g, regions, subs) = setup(6, 3);
        // Sub kernels are so slow that regions exhaust quickly.
        let p = ConstantProfile {
            speedup: 1.1,
            sub_time: 100,
        };
        let s = multi_region_joint_schedule(&g, &regions, &subs, &p).unwrap();
        assert_eq!(s.num_assigned(), subs.len());
    }

    #[test]
    fn empty_regions_with_no_kernels_is_ok() {
        let g = TrainGraph::single_gpu(2);
        let p = ConstantProfile {
            speedup: 1.0,
            sub_time: 1,
        };
        let s = multi_region_joint_schedule(&g, &[], &[], &p).unwrap();
        assert_eq!(s.num_assigned(), 0);
    }

    #[test]
    fn empty_regions_with_kernels_is_error() {
        let g = TrainGraph::single_gpu(2);
        let p = ConstantProfile {
            speedup: 1.0,
            sub_time: 1,
        };
        assert!(multi_region_joint_schedule(&g, &[], &g.weight_grads(), &p).is_err());
    }

    #[test]
    fn memory_budget_falls_back_to_eager_prefix() {
        let (g, regions, subs) = setup(10, 2);
        let p = ConstantProfile {
            speedup: 1.2,
            sub_time: 1,
        };
        // A generous budget succeeds outright.
        let ok = schedule_with_memory_budget(&g, &regions, &subs, &p, &UnitCost, 1_000).unwrap();
        assert_eq!(ok.num_assigned(), subs.len());
        // The tightest possible budget still succeeds with eager
        // scheduling (unit sizes keep the eager peak small) or reports the
        // precise overshoot.
        match schedule_with_memory_budget(&g, &regions, &subs, &p, &UnitCost, 12) {
            Ok(s) => assert_eq!(s.num_assigned(), subs.len()),
            Err(Error::MemoryBudgetExceeded { peak, budget }) => {
                assert!(peak > budget);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn merged_order_contains_everything_once() {
        let (g, regions, subs) = setup(8, 2);
        let p = ConstantProfile {
            speedup: 1.2,
            sub_time: 1,
        };
        let s = multi_region_joint_schedule(&g, &regions, &subs, &p).unwrap();
        let order = merged_order(&regions, &s);
        let mains: usize = regions.iter().map(|r| r.entries.len()).sum();
        assert_eq!(order.len(), mains + subs.len());
        // The merged order must be a valid partial order of the graph.
        crate::schedule::validate_partial_order(&g, &order).unwrap();
    }

    #[test]
    fn two_lane_schedule_reduces_makespan() {
        let (g, regions, subs) = setup(16, 4);
        let p = ConstantProfile {
            speedup: 1.3,
            sub_time: 1,
        };
        let s = multi_region_joint_schedule(&g, &regions, &subs, &p).unwrap();
        let two = s.to_schedule(&regions);
        let t2 = simulate(&g, &two, &UnitCost).unwrap();
        // Sequential single-stream backward: 15 dO + 16 dW + loss = 31.
        let mut single = Vec::new();
        for r in &regions {
            single.extend(r.entries.iter().map(|&(op, _)| op));
        }
        single.extend(subs.iter().copied());
        let t1 = simulate(
            &g,
            &crate::schedule::Schedule::single_lane("gpu", single),
            &UnitCost,
        )
        .unwrap();
        assert!(
            t2.makespan() < t1.makespan(),
            "{} vs {}",
            t2.makespan(),
            t1.makespan()
        );
    }
}
