//! The branch-and-bound exact solver.
//!
//! Search states are partial placements built exclusively through
//! [`DeltaEval::place`] appends (and undone with
//! [`DeltaEval::unplace_last`]), so every node is scored incrementally:
//! an append re-times the single new op, an O(deps) update. The
//! enumeration is *chronological semi-active* — a ready op is appended
//! to a lane and starts as early as its lane and dependencies allow —
//! which covers some optimal schedule for any regular objective, and
//! every reachable schedule exactly once up to append interleaving
//! (the visited-state memo collapses the interleavings).
//!
//! Soundness of the `Optimal` claim rests on three invariants:
//!
//! 1. completeness of the enumeration (above);
//! 2. validity of the node lower bounds — each is a bound on *any*
//!    completion of the partial placement, so pruning at
//!    `bound >= incumbent` never cuts a strict improvement;
//! 3. exact scoring — every incumbent improvement (and the input) is
//!    cross-checked against a full re-evaluation with tolerance 0.

use ooo_core::cost::CostModel;
use ooo_core::{Op, Schedule, SimTime, TrainGraph};
use ooo_verify::predict::{predict_makespan, DeltaEval};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

use crate::{Budget, Certificate, Error, Placement, Result, Solved};

/// Largest certifiable instance: the visited-state memo keys placements
/// as a `u128` bitmask.
const MAX_OPS: usize = 128;

/// Resource class of a lane, inferred from the input schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneClass {
    Compute,
    Link,
    Mixed,
}

impl LaneClass {
    fn admits(self, op: Op) -> bool {
        match self {
            LaneClass::Mixed => true,
            LaneClass::Compute => op.is_compute(),
            LaneClass::Link => op.is_sync(),
        }
    }
}

/// Infers a lane's class from its contents; empty lanes fall back to
/// their name (the workspace convention names communication lanes
/// "link"/"nic").
fn lane_class(name: &str, ops: &[Op]) -> LaneClass {
    if ops.is_empty() {
        let lower = name.to_ascii_lowercase();
        return if lower.contains("link") || lower.contains("nic") {
            LaneClass::Link
        } else {
            LaneClass::Compute
        };
    }
    let sync = ops.iter().filter(|o| o.is_sync()).count();
    if sync == 0 {
        LaneClass::Compute
    } else if sync == ops.len() {
        LaneClass::Link
    } else {
        LaneClass::Mixed
    }
}

/// The certified instance: the op set of the input schedule with its
/// in-set dependency structure and the lane universe, all in dense set
/// indices (graph-index order, which is topological).
struct Instance {
    ops: Vec<Op>,
    dur: Vec<SimTime>,
    /// In-set dependencies / dependents per op.
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
    /// Static in-set earliest start (outside deps finish at time zero,
    /// matching partial-schedule semantics).
    est: Vec<SimTime>,
    /// Longest in-set dependency chain strictly after each op.
    tail: Vec<SimTime>,
    lane_names: Vec<String>,
    /// Symmetry group per lane: lanes of one group are interchangeable
    /// for every op that may occupy them.
    lane_group: Vec<u8>,
    /// Lanes each op may occupy under the chosen placement.
    allowed: Vec<Vec<usize>>,
    /// Capacity groups for the load bounds: `cap_lanes[g]` hold all of
    /// `cap_members[g]`'s work.
    cap_lanes: Vec<Vec<usize>>,
    cap_members: Vec<Vec<usize>>,
}

impl Instance {
    fn build(
        graph: &TrainGraph,
        schedule: &Schedule,
        cost: &impl CostModel,
        placement: Placement,
    ) -> std::result::Result<Instance, ooo_core::Error> {
        // The certified set, keyed by dense graph index.
        let mut in_lane: HashMap<usize, usize> = HashMap::new();
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for &op in &lane.ops {
                let v = graph.op_index(op).ok_or(ooo_core::Error::UnknownOp(op))?;
                if in_lane.insert(v, li).is_some() {
                    return Err(ooo_core::Error::DuplicateOp(op));
                }
            }
        }
        let mut gidx: Vec<usize> = in_lane.keys().copied().collect();
        // Graph-index order is the canonical storage order, which is
        // topological — so ascending set indices are too.
        gidx.sort_unstable();
        let set_of: HashMap<usize, usize> = gidx.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let n = gidx.len();

        let ops: Vec<Op> = gidx.iter().map(|&v| graph.ops()[v]).collect();
        let dur: Vec<SimTime> = ops.iter().map(|&op| cost.duration(op)).collect();
        let mut deps = vec![Vec::new(); n];
        let mut dependents = vec![Vec::new(); n];
        for (i, &v) in gidx.iter().enumerate() {
            for &d in graph.dep_indices(v) {
                if let Some(&j) = set_of.get(&d) {
                    deps[i].push(j);
                    dependents[j].push(i);
                }
            }
        }
        let mut est = vec![0; n];
        for i in 0..n {
            est[i] = deps[i].iter().map(|&d| est[d] + dur[d]).max().unwrap_or(0);
        }
        let mut tail = vec![0; n];
        for i in (0..n).rev() {
            tail[i] = dependents[i]
                .iter()
                .map(|&d| dur[d] + tail[d])
                .max()
                .unwrap_or(0);
        }

        let lane_names: Vec<String> = schedule.lanes.iter().map(|l| l.name.clone()).collect();
        let classes: Vec<LaneClass> = schedule
            .lanes
            .iter()
            .map(|l| lane_class(&l.name, &l.ops))
            .collect();
        let (lane_group, allowed, cap_lanes, cap_members) = match placement {
            Placement::ByClass => {
                let lane_group: Vec<u8> = classes
                    .iter()
                    .map(|c| match c {
                        LaneClass::Compute => 0,
                        LaneClass::Link => 1,
                        LaneClass::Mixed => 2,
                    })
                    .collect();
                let allowed: Vec<Vec<usize>> = ops
                    .iter()
                    .map(|&op| {
                        (0..classes.len())
                            .filter(|&l| classes[l].admits(op))
                            .collect()
                    })
                    .collect();
                // Two capacity groups: compute work on compute-capable
                // lanes, sync work on link-capable lanes. A mixed lane
                // counts toward both — that only adds capacity, so the
                // bounds stay valid.
                let mut cap_lanes = Vec::new();
                let mut cap_members = Vec::new();
                for class_is_sync in [false, true] {
                    let lanes: Vec<usize> = (0..classes.len())
                        .filter(|&l| {
                            matches!(classes[l], LaneClass::Mixed)
                                || (classes[l] == LaneClass::Link) == class_is_sync
                        })
                        .collect();
                    let members: Vec<usize> = (0..n)
                        .filter(|&i| ops[i].is_sync() == class_is_sync)
                        .collect();
                    if !lanes.is_empty() && !members.is_empty() {
                        cap_lanes.push(lanes);
                        cap_members.push(members);
                    }
                }
                (lane_group, allowed, cap_lanes, cap_members)
            }
            Placement::Fixed => {
                // Every lane is its own symmetry and capacity group.
                let lane_group: Vec<u8> = (0..classes.len()).map(|l| l as u8).collect();
                let allowed: Vec<Vec<usize>> = gidx.iter().map(|v| vec![in_lane[v]]).collect();
                let mut cap_lanes = Vec::new();
                let mut cap_members = Vec::new();
                for l in 0..classes.len() {
                    let members: Vec<usize> = (0..n).filter(|&i| in_lane[&gidx[i]] == l).collect();
                    if !members.is_empty() {
                        cap_lanes.push(vec![l]);
                        cap_members.push(members);
                    }
                }
                (lane_group, allowed, cap_lanes, cap_members)
            }
        };

        Ok(Instance {
            ops,
            dur,
            deps,
            dependents,
            est,
            tail,
            lane_names,
            lane_group,
            allowed,
            cap_lanes,
            cap_members,
        })
    }

    /// The root lower bound: the in-set critical path and the static
    /// per-capacity-group head/tail load bounds (the set-restricted
    /// analogue of [`ooo_core::bounds::lower_bound`], valid for partial
    /// schedules where the whole-graph bound is not).
    fn static_lower_bound(&self) -> SimTime {
        let n = self.ops.len();
        let mut lb = 0;
        for i in 0..n {
            lb = lb.max(self.est[i] + self.dur[i] + self.tail[i]);
        }
        for (g, lanes) in self.cap_lanes.iter().enumerate() {
            let m = lanes.len().max(1) as SimTime;
            let mut work: SimTime = 0;
            let mut head = SimTime::MAX;
            let mut tailmin = SimTime::MAX;
            for &i in &self.cap_members[g] {
                let d = self.dur[i];
                if d == 0 {
                    continue;
                }
                work += d;
                head = head.min(self.est[i]);
                tailmin = tailmin.min(self.tail[i]);
            }
            if work > 0 {
                lb = lb.max(head + work.div_ceil(m) + tailmin);
            }
        }
        lb
    }
}

type MemoKey = (u128, Vec<(u8, SimTime)>, Vec<(u32, SimTime)>);

struct Solver<'a, 'g, C: CostModel> {
    inst: &'a Instance,
    graph: &'g TrainGraph,
    cost: &'a C,
    de: DeltaEval<'g>,
    /// Bitmask of placed set indices.
    placed: u128,
    n_placed: usize,
    /// Unplaced in-set dependency count per op (ready when zero).
    remaining: Vec<usize>,
    /// Finish time per placed op.
    ends: Vec<SimTime>,
    incumbent: SimTime,
    witness: Option<Schedule>,
    root_lb: SimTime,
    max_nodes: u64,
    deadline: Option<std::time::Instant>,
    nodes: u64,
    memo: HashSet<MemoKey>,
    memo_hits: u64,
    pruned: u64,
    delta_checks: u64,
    exhausted: bool,
    /// Set when the incumbent meets the root bound: nothing better can
    /// exist, so the search is complete regardless of what remains.
    done: bool,
}

impl<C: CostModel> Solver<'_, '_, C> {
    fn is_placed(&self, i: usize) -> bool {
        self.placed >> i & 1 == 1
    }

    fn dfs(&mut self) -> Result<()> {
        if self.n_placed == self.inst.ops.len() {
            let m = self.de.makespan();
            if m < self.incumbent {
                self.incumbent = m;
                let w = self.de.to_schedule();
                // Exercise the delta == full invariant on every
                // incumbent before trusting it as a witness.
                let full = predict_makespan(self.graph, &w, self.cost)?.makespan();
                self.delta_checks += 1;
                if full != m {
                    return Err(Error::DeltaMismatch { delta: m, full });
                }
                self.witness = Some(w);
                if m <= self.root_lb {
                    self.done = true;
                }
            }
            return Ok(());
        }
        self.nodes += 1;
        // Node cap first (logical, deterministic); the wall-clock
        // deadline is only polled when one is set, so purely logical
        // budgets never touch the clock.
        if self.nodes > self.max_nodes
            || self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
        {
            self.exhausted = true;
            return Ok(());
        }
        if self.lower_bound_here() >= self.incumbent {
            self.pruned += 1;
            return Ok(());
        }
        if !self.memo.insert(self.memo_key()) {
            self.memo_hits += 1;
            return Ok(());
        }
        for (i, lane) in self.children() {
            let op = self.inst.ops[i];
            self.de.place(lane, op).expect(
                "branch-and-bound appends cannot deadlock: all dependencies \
                 are placed and no dependent is",
            );
            self.placed |= 1 << i;
            self.n_placed += 1;
            self.ends[i] = self.de.finish_of(op).expect("op was just placed");
            for &d in &self.inst.dependents[i] {
                self.remaining[d] -= 1;
            }
            let r = self.dfs();
            for &d in &self.inst.dependents[i] {
                self.remaining[d] += 1;
            }
            self.n_placed -= 1;
            self.placed &= !(1 << i);
            let popped = self.de.unplace_last(lane);
            debug_assert_eq!(popped, Some(op));
            r?;
            if self.exhausted || self.done {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Child moves of the current node: every ready op on every allowed
    /// lane, with interchangeable lanes (same symmetry group, same
    /// availability) collapsed to one representative, ordered by
    /// earliest start then longest remaining chain — so depth-first
    /// descent reaches good incumbents early.
    fn children(&self) -> Vec<(usize, usize)> {
        let mut kids: Vec<(SimTime, Reverse<SimTime>, usize, usize)> = Vec::new();
        for i in 0..self.inst.ops.len() {
            if self.is_placed(i) || self.remaining[i] != 0 {
                continue;
            }
            let ready = self.inst.deps[i]
                .iter()
                .map(|&d| self.ends[d])
                .max()
                .unwrap_or(0);
            let mut seen: Vec<(u8, SimTime)> = Vec::new();
            for &l in &self.inst.allowed[i] {
                let avail = self.de.lane_available(l);
                let key = (self.inst.lane_group[l], avail);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                kids.push((
                    ready.max(avail),
                    Reverse(self.inst.dur[i] + self.inst.tail[i]),
                    i,
                    l,
                ));
            }
        }
        kids.sort_unstable();
        kids.into_iter().map(|(_, _, i, l)| (i, l)).collect()
    }

    /// A lower bound on any completion of the current partial
    /// placement: the largest of
    ///
    /// - the placed makespan (appends never shrink it),
    /// - the dynamic critical path — each unplaced op's earliest finish
    ///   (dependencies, least-loaded allowed lane, static est) plus its
    ///   in-set tail,
    /// - per capacity group, the average-load bound
    ///   `ceil((sum of lane availabilities + remaining work) / lanes)`,
    /// - per capacity group, the energetic bound
    ///   `min est + ceil(remaining work / lanes) + min tail` over its
    ///   positive-duration unplaced members.
    fn lower_bound_here(&self) -> SimTime {
        let n = self.inst.ops.len();
        let mut lb = self.de.makespan();
        let mut fin = vec![0; n];
        for i in 0..n {
            if self.is_placed(i) {
                fin[i] = self.ends[i];
            } else {
                let mut est = self.inst.deps[i].iter().map(|&d| fin[d]).max().unwrap_or(0);
                let lane_floor = self.inst.allowed[i]
                    .iter()
                    .map(|&l| self.de.lane_available(l))
                    .min()
                    .unwrap_or(0);
                est = est.max(lane_floor).max(self.inst.est[i]);
                fin[i] = est + self.inst.dur[i];
            }
            lb = lb.max(fin[i] + self.inst.tail[i]);
        }
        for (g, lanes) in self.inst.cap_lanes.iter().enumerate() {
            let m = lanes.len().max(1) as SimTime;
            let sum_avail: SimTime = lanes.iter().map(|&l| self.de.lane_available(l)).sum();
            let mut work: SimTime = 0;
            let mut head = SimTime::MAX;
            let mut tailmin = SimTime::MAX;
            for &i in &self.inst.cap_members[g] {
                if self.is_placed(i) {
                    continue;
                }
                let d = self.inst.dur[i];
                if d == 0 {
                    continue;
                }
                work += d;
                head = head.min(fin[i] - d);
                tailmin = tailmin.min(self.inst.tail[i]);
            }
            if work > 0 {
                lb = lb.max((sum_avail + work).div_ceil(m));
                lb = lb.max(head + work.div_ceil(m) + tailmin);
            }
        }
        lb
    }

    /// Two states with equal keys have identical completion sets: the
    /// placed op set, the availability profile per symmetry group, and
    /// the finish times of *open* placed ops (those an unplaced in-set
    /// dependent still waits on) determine every future start time.
    fn memo_key(&self) -> MemoKey {
        let mut lanes: Vec<(u8, SimTime)> = (0..self.inst.lane_names.len())
            .map(|l| (self.inst.lane_group[l], self.de.lane_available(l)))
            .collect();
        lanes.sort_unstable();
        let mut open: Vec<(u32, SimTime)> = Vec::new();
        for i in 0..self.inst.ops.len() {
            if self.is_placed(i) && self.inst.dependents[i].iter().any(|&d| !self.is_placed(d)) {
                open.push((i as u32, self.ends[i]));
            }
        }
        (self.placed, lanes, open)
    }
}

/// Certifies `schedule` over `placement`'s schedule space. See
/// [`crate::certify_with`].
pub(crate) fn solve<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
    placement: Placement,
    budget: &Budget,
) -> Result<Solved> {
    // Score the input incrementally and cross-check against the full
    // predictor: every certified instance exercises delta == full.
    let input = DeltaEval::new(graph, schedule, cost)?;
    let input_m = input.makespan();
    let full = predict_makespan(graph, schedule, cost)?.makespan();
    if input_m != full {
        return Err(Error::DeltaMismatch {
            delta: input_m,
            full,
        });
    }
    let mut delta_rescored = input.rescored();
    let mut delta_full_equivalent = input.full_equivalent();
    let mut delta_checks = 1;

    let inst = Instance::build(graph, schedule, cost, placement)?;
    let root_lb = inst.static_lower_bound();

    // Root shortcut: a schedule meeting the set's lower bound is
    // optimal without any search.
    if input_m <= root_lb {
        return Ok(Solved {
            certificate: Certificate::Optimal { makespan: input_m },
            lower_bound: root_lb,
            nodes: 0,
            memo_hits: 0,
            pruned: 0,
            delta_rescored,
            delta_full_equivalent,
            delta_checks,
        });
    }
    // The memo keys placements as a u128; larger instances report their
    // static bracket instead of searching.
    if inst.ops.len() > MAX_OPS {
        return Ok(Solved {
            certificate: Certificate::Unknown {
                lower: root_lb,
                upper: input_m,
            },
            lower_bound: root_lb,
            nodes: 0,
            memo_hits: 0,
            pruned: 0,
            delta_rescored,
            delta_full_equivalent,
            delta_checks,
        });
    }

    let n = inst.ops.len();
    let remaining: Vec<usize> = (0..n).map(|i| inst.deps[i].len()).collect();
    let mut solver = Solver {
        de: DeltaEval::empty(graph, inst.lane_names.iter().cloned(), cost),
        inst: &inst,
        graph,
        cost,
        placed: 0,
        n_placed: 0,
        remaining,
        ends: vec![0; n],
        incumbent: input_m,
        witness: None,
        root_lb,
        max_nodes: budget.max_nodes,
        deadline: budget.deadline,
        nodes: 0,
        memo: HashSet::new(),
        memo_hits: 0,
        pruned: 0,
        delta_checks: 0,
        exhausted: false,
        done: false,
    };
    solver.dfs()?;

    delta_rescored += solver.de.rescored();
    delta_full_equivalent += solver.de.full_equivalent();
    delta_checks += solver.delta_checks;

    let complete = solver.done || !solver.exhausted;
    let certificate = match solver.witness {
        // A witness is a proof of improvability no matter how the
        // search ended; completeness upgrades it to proven-optimal.
        Some(witness) => Certificate::Improvable {
            baseline: input_m,
            witness_makespan: solver.incumbent,
            witness_optimal: complete,
            witness,
        },
        None if complete => Certificate::Optimal { makespan: input_m },
        None => Certificate::Unknown {
            lower: root_lb,
            upper: input_m,
        },
    };
    Ok(Solved {
        certificate,
        lower_bound: root_lb,
        nodes: solver.nodes,
        memo_hits: solver.memo_hits,
        pruned: solver.pruned,
        delta_rescored,
        delta_full_equivalent,
        delta_checks,
    })
}
