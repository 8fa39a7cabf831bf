//! Happens-before construction over a multi-lane schedule.
//!
//! The analyzer models a schedule as a set of *events* (the scheduled
//! operations) with two edge families:
//!
//! - **program order**: consecutive operations on the same lane
//!   (resource issue order), and
//! - **data/sync order**: every dependency edge of the
//!   [`TrainGraph`] whose endpoints are both scheduled. Synchronization
//!   operations (`S[dW]`, `S[dO]`) are ordinary events, so the
//!   cross-device ordering they provide is exactly their dependency
//!   edges — dropping a sync op from a schedule removes the only
//!   happens-before path between producer and consumer, which is what
//!   the race rule detects.
//!
//! Dependencies on *unscheduled* operations contribute no edges: a
//! partial schedule assumes those completed beforehand (matching
//! [`ooo_core::schedule::validate_partial_order`]).
//!
//! Every lane is a total order, so the relation is answered exactly by
//! one *vector clock* per event (Mattern 1989): `vc[e][l]` counts the
//! events of lane `l` that happen before `e` or are `e`. The events of
//! lane `l` reaching `e` always form a prefix of the lane (program order
//! carries the earlier ones along), so for `a ≠ b`, `a → b` iff
//! `vc[b][lane(a)] ≥ pos(a) + 1`. The clocks are filled in topological
//! order of the union graph, each as the element-wise maximum of its
//! predecessors' clocks: O((V + E)·L) time and V·L words for V events,
//! E dependency edges and L lanes, with dense event ids and no hashing.
//! Every query is O(1).

use ooo_core::arena::GraphArena;
use ooo_core::schedule::Schedule;
use ooo_core::{Op, TrainGraph};

/// Marks an op index with no scheduled event.
const UNSCHEDULED: u32 = u32::MAX;

/// The happens-before relation over one schedule, or the wait cycle that
/// prevents it from existing.
#[derive(Debug)]
pub enum HbResult {
    /// The union graph is acyclic; queries are available.
    Relation(HbRelation),
    /// The union graph has a cycle: the schedule deadlocks. The cycle is
    /// reported in order (each op waits for the next; the last waits for
    /// the first).
    Cycle(Vec<Op>),
}

/// O(1)-queryable happens-before relation (one vector clock per event).
#[derive(Debug)]
pub struct HbRelation {
    /// The graph's op → index map.
    arena: GraphArena,
    /// Event id per graph op index ([`UNSCHEDULED`] when absent).
    event_of: Vec<u32>,
    /// Lane of each event.
    lane: Vec<u32>,
    /// Position of each event on its lane.
    pos: Vec<u32>,
    /// Clock width: the schedule's lane count.
    width: usize,
    /// `clocks[e * width + l]`: events of lane `l` that happen before
    /// `e` or are `e`.
    clocks: Vec<u32>,
}

impl HbRelation {
    /// Event id of `op`, if it is scheduled.
    fn event(&self, op: Op) -> Option<usize> {
        let idx = self.arena.id_of(op)? as usize;
        match self.event_of[idx] {
            UNSCHEDULED => None,
            e => Some(e as usize),
        }
    }

    /// Returns `true` iff `a` must complete before `b` starts in every
    /// execution of the schedule. Strict: `happens_before(x, x)` is
    /// `false` for any `x` (the union graph is acyclic).
    pub fn happens_before(&self, a: Op, b: Op) -> bool {
        match (self.event(a), self.event(b)) {
            (Some(ea), Some(eb)) if ea != eb => {
                self.clocks[eb * self.width + self.lane[ea] as usize] > self.pos[ea]
            }
            _ => false,
        }
    }

    /// Returns `true` iff the two events are ordered either way.
    pub fn ordered(&self, a: Op, b: Op) -> bool {
        self.happens_before(a, b) || self.happens_before(b, a)
    }
}

/// The union graph's edges over dense event ids (lane-major order): an
/// event's predecessors are its lane predecessor and its scheduled
/// dependencies, its successors the lane successor and its scheduled
/// dependents.
struct Edges<'a> {
    graph: &'a TrainGraph,
    /// Event id per graph op index.
    event_of: &'a [u32],
    /// Graph op index per event.
    op_idx: &'a [u32],
    /// Position of each event on its lane.
    pos: &'a [u32],
}

impl<'a> Edges<'a> {
    fn scheduled(&self, idxs: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let event_of = self.event_of;
        idxs.iter()
            .map(move |&i| event_of[i])
            .filter(|&e| e != UNSCHEDULED)
            .map(|e| e as usize)
    }

    fn preds(&self, e: usize) -> impl Iterator<Item = usize> + 'a {
        let lane_pred = (self.pos[e] > 0).then(|| e - 1);
        let deps = self.graph.dep_indices(self.op_idx[e] as usize);
        lane_pred.into_iter().chain(self.scheduled(deps))
    }

    fn succs(&self, e: usize) -> impl Iterator<Item = usize> + 'a {
        let lane_succ = self.pos.get(e + 1).is_some_and(|&p| p > 0).then(|| e + 1);
        let dependents = self.graph.dependent_indices(self.op_idx[e] as usize);
        lane_succ.into_iter().chain(self.scheduled(dependents))
    }
}

/// Builds the happens-before relation for `schedule`, or extracts a wait
/// cycle. The schedule must contain no unknown or duplicate operations
/// (the analyzer's structural rules run first).
pub fn build(graph: &TrainGraph, schedule: &Schedule) -> HbResult {
    // Dense event ids in lane-major order.
    let m = schedule.num_ops();
    let mut event_of: Vec<u32> = vec![UNSCHEDULED; graph.len()];
    let mut op_idx: Vec<u32> = Vec::with_capacity(m);
    let mut lane: Vec<u32> = Vec::with_capacity(m);
    let mut pos: Vec<u32> = Vec::with_capacity(m);
    for (l, ops) in schedule.lanes.iter().map(|l| &l.ops).enumerate() {
        for (p, &op) in ops.iter().enumerate() {
            let idx = graph.op_index(op).expect("scheduled ops are in the graph");
            event_of[idx] = op_idx.len() as u32;
            op_idx.push(idx as u32);
            lane.push(l as u32);
            pos.push(p as u32);
        }
    }
    let edges = Edges {
        graph,
        event_of: &event_of,
        op_idx: &op_idx,
        pos: &pos,
    };

    // Kahn's toposort.
    let mut remaining: Vec<u32> = (0..m).map(|e| edges.preds(e).count() as u32).collect();
    let mut topo: Vec<u32> = Vec::with_capacity(m);
    let mut ready: Vec<u32> = (0..m as u32)
        .filter(|&e| remaining[e as usize] == 0)
        .collect();
    while let Some(e) = ready.pop() {
        topo.push(e);
        for s in edges.succs(e as usize) {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready.push(s as u32);
            }
        }
    }
    if topo.len() != m {
        let cycle = extract_cycle(&edges, &remaining);
        return HbResult::Cycle(cycle.into_iter().map(|i| graph.ops()[i]).collect());
    }

    // Vector clocks in topological order: the element-wise maximum of
    // the predecessors' clocks, then the event's own lane entry.
    let width = schedule.lanes.len();
    let mut clocks: Vec<u32> = vec![0; m * width];
    let mut row: Vec<u32> = vec![0; width];
    for &e in &topo {
        let e = e as usize;
        row.fill(0);
        for p in edges.preds(e) {
            for (r, &c) in row.iter_mut().zip(&clocks[p * width..(p + 1) * width]) {
                *r = (*r).max(c);
            }
        }
        row[lane[e] as usize] = pos[e] + 1;
        clocks[e * width..(e + 1) * width].copy_from_slice(&row);
    }

    HbResult::Relation(HbRelation {
        arena: graph.arena().clone(),
        event_of,
        lane,
        pos,
        width,
        clocks,
    })
}

/// Finds one cycle among the events that did not drain in the toposort
/// (`remaining[e] > 0`) and returns its graph op indices. Every blocked
/// event has at least one blocked *predecessor* (the one still holding
/// up its in-degree), so walking to the lowest-id blocked predecessor
/// from the lowest-id blocked event must revisit an event; the revisited
/// segment, reversed, is a cycle in edge direction.
fn extract_cycle(edges: &Edges<'_>, remaining: &[u32]) -> Vec<usize> {
    const UNSEEN: usize = usize::MAX;
    let start = (0..remaining.len())
        .find(|&e| remaining[e] > 0)
        .expect("called only when some event is blocked");
    let mut seen_at: Vec<usize> = vec![UNSEEN; remaining.len()];
    let mut path: Vec<usize> = Vec::new();
    let mut cur = start;
    loop {
        if seen_at[cur] != UNSEEN {
            let mut cycle: Vec<usize> = path[seen_at[cur]..]
                .iter()
                .map(|&e| edges.op_idx[e] as usize)
                .collect();
            cycle.reverse();
            return cycle;
        }
        seen_at[cur] = path.len();
        path.push(cur);
        cur = edges
            .preds(cur)
            .filter(|&p| remaining[p] > 0)
            .min()
            .expect("a blocked event always has a blocked predecessor");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The relation as the closure bitset the vector clocks replaced:
    /// `reach[a]` has bit `b` set iff `a` happens-before `b`, built by
    /// reverse-topological accumulation over `HashMap`-keyed events, with
    /// its own cycle walk. The differential tests hold the clocks to it.
    enum Closure {
        Reach(HashMap<Op, u32>, Vec<Vec<u64>>),
        Cycle(Vec<Op>),
    }

    fn closure(graph: &TrainGraph, schedule: &Schedule) -> Closure {
        let mut events: Vec<Op> = Vec::new();
        let mut event_of: HashMap<Op, u32> = HashMap::new();
        for (_, op) in schedule.iter_ops() {
            event_of.insert(op, events.len() as u32);
            events.push(op);
        }
        let m = events.len();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut indeg: Vec<u32> = vec![0; m];
        for lane in &schedule.lanes {
            for w in lane.ops.windows(2) {
                succ[event_of[&w[0]] as usize].push(event_of[&w[1]]);
                indeg[event_of[&w[1]] as usize] += 1;
            }
        }
        for (&op, &e) in &event_of {
            for dep in graph.deps(op).unwrap() {
                if let Some(&d) = event_of.get(&dep) {
                    succ[d as usize].push(e);
                    indeg[e as usize] += 1;
                }
            }
        }
        let mut topo: Vec<u32> = Vec::new();
        let mut remaining = indeg.clone();
        let mut ready: Vec<u32> = (0..m as u32)
            .filter(|&e| remaining[e as usize] == 0)
            .collect();
        while let Some(e) = ready.pop() {
            topo.push(e);
            for &s in &succ[e as usize] {
                remaining[s as usize] -= 1;
                if remaining[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if topo.len() != m {
            let mut pred: Vec<Vec<u32>> = vec![Vec::new(); m];
            for (a, outs) in succ.iter().enumerate() {
                for &b in outs {
                    pred[b as usize].push(a as u32);
                }
            }
            let mut cur = (0..m as u32).find(|&e| remaining[e as usize] > 0).unwrap();
            let mut seen_at: HashMap<u32, usize> = HashMap::new();
            let mut path: Vec<u32> = Vec::new();
            loop {
                if let Some(&i) = seen_at.get(&cur) {
                    let mut cycle: Vec<Op> =
                        path[i..].iter().map(|&e| events[e as usize]).collect();
                    cycle.reverse();
                    return Closure::Cycle(cycle);
                }
                seen_at.insert(cur, path.len());
                path.push(cur);
                cur = *pred[cur as usize]
                    .iter()
                    .find(|&&p| remaining[p as usize] > 0)
                    .unwrap();
            }
        }
        let words = m.div_ceil(64).max(1);
        let mut reach: Vec<Vec<u64>> = vec![vec![0u64; words]; m];
        for &e in topo.iter().rev() {
            let e = e as usize;
            let mut row = std::mem::take(&mut reach[e]);
            for &s in &succ[e] {
                let s = s as usize;
                row[s / 64] |= 1u64 << (s % 64);
                for (w, &bits) in row.iter_mut().zip(&reach[s]) {
                    *w |= bits;
                }
            }
            reach[e] = row;
        }
        Closure::Reach(event_of, reach)
    }

    /// xorshift64*, so the schedules do not depend on a library stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
        }
    }

    /// A random multi-lane schedule: the conventional order dealt to
    /// `lanes` lanes at random, a few ops dropped (a partial schedule)
    /// and a few same-lane swaps, which often deadlock.
    fn random_schedule(graph: &TrainGraph, rng: &mut Rng, lanes: usize) -> Schedule {
        let mut dealt: Vec<Vec<Op>> = vec![Vec::new(); lanes];
        for op in graph.conventional_backprop() {
            if rng.below(10) > 0 {
                dealt[rng.below(lanes)].push(op);
            }
        }
        for _ in 0..rng.below(3) {
            let lane = &mut dealt[rng.below(lanes)];
            if lane.len() > 1 {
                let (a, b) = (rng.below(lane.len()), rng.below(lane.len()));
                lane.swap(a, b);
            }
        }
        let mut s = Schedule::new();
        for (i, ops) in dealt.into_iter().enumerate() {
            s.add_lane(&format!("lane{i}"), ops);
        }
        s
    }

    #[test]
    fn vector_clocks_agree_with_the_closure_bitset() {
        let (mut relations, mut cycles) = (0, 0);
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..600 {
            let layers = 1 + case % 9;
            let graph = match case % 3 {
                0 => TrainGraph::single_gpu(layers),
                1 => TrainGraph::data_parallel(layers),
                _ => TrainGraph::pipeline_parallel(layers),
            };
            let schedule = random_schedule(&graph, &mut rng, 1 + case % 5);
            match (build(&graph, &schedule), closure(&graph, &schedule)) {
                (HbResult::Relation(r), Closure::Reach(event_of, reach)) => {
                    relations += 1;
                    for &a in graph.ops() {
                        for &b in graph.ops() {
                            let want = match (event_of.get(&a), event_of.get(&b)) {
                                (Some(&ea), Some(&eb)) => {
                                    reach[ea as usize][(eb / 64) as usize] >> (eb % 64) & 1 == 1
                                }
                                _ => false,
                            };
                            assert_eq!(r.happens_before(a, b), want, "case {case}: {a} -> {b}");
                        }
                    }
                }
                (HbResult::Cycle(got), Closure::Cycle(want)) => {
                    cycles += 1;
                    assert_eq!(got, want, "case {case}");
                }
                _ => panic!("case {case}: the clocks and the closure disagree on acyclicity"),
            }
        }
        assert!(
            relations > 100 && cycles > 100,
            "{relations} relations, {cycles} cycles"
        );
    }
}
