//! The scheduling-strategy zoo.
//!
//! A [`Strategy`] is a named schedule generator: given a training
//! *shape* (single-GPU, data-parallel, or pipeline-parallel) it emits a
//! complete multi-lane [`Schedule`] over that shape's [`TrainGraph`].
//! The zoo wraps the paper's own schedulers (conventional backprop,
//! gradient fast-forwarding, reverse first-k, multi-region joint
//! scheduling, modulo-allocated OOO-Pipe2) next to three generators
//! reproduced from related work:
//!
//! - **layerpipe** — intra/inter-layer gradient pipelining (arXiv
//!   2108.06629): weight gradients *and* their optimizer updates run on
//!   a dedicated gradient worker, pipelined layer by layer against the
//!   output-gradient chain.
//! - **twobp** — two-stage backpropagation (arXiv 2405.18047): the
//!   backward pass is split into its dX stage (the full output-gradient
//!   chain) and a dW stage scheduled afterwards in *ascending* layer
//!   order, so the parameters the next forward pass needs first are
//!   synchronized and updated first.
//! - **gradinterleaved** — interleaved gradient computation (arXiv
//!   2002.05529): each `dW_i` is issued the moment its incoming
//!   gradient exists — *before* `dO_i` — on a single stream, with all
//!   updates deferred past the backward pass.
//!
//! Every generator funnels through one ready-queue topological emitter,
//! so all of them inherit the repository-wide `(priority desc, op id
//! asc)` tie-break rule ([`ooo_core::schedule::ReadyQueue`]) and are
//! byte-deterministic under shuffled inputs. Generated schedules thread
//! through the full contract stack via [`Generated`]: OV-cleanliness
//! (`ooo-verify`), exact tolerance-0 makespan prediction
//! (`verify::predict`), static-vs-instrumented memory reconciliation
//! (`verify::mem`), tuner seeding (`ooo-tune`), and — where the op count
//! permits — exact optimality brackets (`ooo-cert`).

use crate::{Error, Result};
use ooo_core::cost::CostModel;
use ooo_core::graph::TrainGraph;
use ooo_core::multi_region::{backward_regions, multi_region_joint_schedule, SpeedupProfile};
use ooo_core::op::{LayerId, Op};
use ooo_core::pipeline::op_level_schedule;
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::schedule::{ReadyQueue, Schedule};
use ooo_core::SimTime;
use ooo_verify::predict::predict_makespan;
use ooo_verify::{Verifier, VerifyConfig};

/// A training configuration a strategy can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Single-GPU training: no synchronization operations.
    SingleGpu {
        /// Layer count `L`.
        layers: usize,
    },
    /// Synchronous data-parallel training: `S[dW_i]` on a link lane.
    DataParallel {
        /// Layer count `L`.
        layers: usize,
    },
    /// Pipeline-parallel training: layers spread over `devices` with
    /// `S[dO_i]` transfers between stages.
    Pipeline {
        /// Layer count `L`.
        layers: usize,
        /// Device count.
        devices: usize,
    },
}

impl Shape {
    /// The layer count of the shape.
    pub fn layers(&self) -> usize {
        match *self {
            Shape::SingleGpu { layers }
            | Shape::DataParallel { layers }
            | Shape::Pipeline { layers, .. } => layers,
        }
    }

    /// Short kind tag ("single" / "datapar" / "pipeline").
    pub fn kind(&self) -> &'static str {
        match self {
            Shape::SingleGpu { .. } => "single",
            Shape::DataParallel { .. } => "datapar",
            Shape::Pipeline { .. } => "pipeline",
        }
    }

    /// Builds the shape's dependency graph.
    ///
    /// # Errors
    ///
    /// Propagates [`ooo_core::Error::InvalidConfig`] for zero layers.
    pub fn graph(&self) -> Result<TrainGraph> {
        let config = match *self {
            Shape::SingleGpu { layers } => ooo_core::graph::GraphConfig::single_gpu(layers),
            Shape::DataParallel { layers } => ooo_core::graph::GraphConfig::data_parallel(layers),
            Shape::Pipeline { layers, .. } => {
                ooo_core::graph::GraphConfig::pipeline_parallel(layers)
            }
        };
        Ok(TrainGraph::new(config)?)
    }
}

/// A strategy's output: the shape's graph plus a schedule over it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The dependency graph the schedule targets.
    pub graph: TrainGraph,
    /// The generated multi-lane schedule.
    pub schedule: Schedule,
    /// Whether the schedule covers the whole graph (`false` only for
    /// partial generators such as the multi-region joint scheduler,
    /// which plans the backward pass in isolation).
    pub complete: bool,
}

impl Generated {
    /// Runs the `ooo-verify` analyzer over the schedule: structural
    /// rules, hazard analysis, ooo legality, and (when `memory_budget`
    /// is given) the OV301 liveness bound.
    pub fn verify(&self, cost: &dyn CostModel, memory_budget: Option<u64>) -> ooo_verify::Report {
        Verifier::new(&self.graph)
            .with_config(VerifyConfig {
                require_complete: self.complete,
                memory_budget,
                check_legality: true,
            })
            .with_cost(cost)
            .verify(&self.schedule)
    }

    /// The statically predicted makespan.
    ///
    /// # Errors
    ///
    /// Propagates predictor errors for malformed schedules.
    pub fn predicted(&self, cost: &dyn CostModel) -> Result<SimTime> {
        Ok(predict_makespan(&self.graph, &self.schedule, &cost)?.makespan())
    }

    /// Certifies the makespan at tolerance 0 with
    /// [`ooo_tune::certify_schedule`]: a fresh list-evaluation pass must
    /// equal the incremental evaluator's own pass exactly.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on any disagreement; core errors when
    /// the schedule does not evaluate.
    pub fn certified(&self, cost: &dyn CostModel) -> Result<SimTime> {
        ooo_tune::certify_schedule(&self.graph, &self.schedule, &cost).map_err(|e| match e {
            ooo_tune::Error::Core(e) => Error::Core(e),
            e => Error::InvalidConfig(e.to_string()),
        })
    }

    /// Reconciles the static memory ledger against the instrumented
    /// per-op counter, both over one list-evaluation pass (its spans and
    /// its timeline). Returns `(ledger_peak, counter_peak)`; the
    /// conformance suite demands equality.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn mem_reconciled(&self, cost: &dyn CostModel) -> Result<(u64, u64)> {
        use ooo_verify::mem::{instrument_timeline, ledger_of_spans, spans_of_prediction};
        let pass = predict_makespan(&self.graph, &self.schedule, &cost)?;
        let ledger = ledger_of_spans(&self.graph, &cost, &spans_of_prediction(&pass), None).0;
        let counter = instrument_timeline(&self.graph, &cost, &pass.into_timeline());
        Ok((ledger.peak, counter.peak))
    }

    /// Seeds `ooo-tune` with the generated schedule.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] wrapping the tuner's error when the
    /// seed fails its safety gate or does not evaluate.
    pub fn tuned(
        &self,
        cost: &(dyn CostModel + Sync),
        opts: &ooo_tune::TuneOptions,
    ) -> Result<ooo_tune::Tuned> {
        let mut opts = opts.clone();
        opts.require_complete = self.complete;
        ooo_tune::tune_schedule(&self.graph, &self.schedule, &cost, &opts)
            .map_err(|e| Error::InvalidConfig(format!("tuner rejected strategy output: {e}")))
    }

    /// Runs an `ooo-cert` optimality bracket when the instance fits the
    /// exact solver's 128-op ceiling; `None` for larger instances.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] wrapping solver errors on malformed
    /// schedules (never mere budget exhaustion, which yields an
    /// `Unknown` certificate instead).
    pub fn cert_bracket(
        &self,
        cost: &dyn CostModel,
        node_budget: u64,
    ) -> Result<Option<ooo_cert::Solved>> {
        if self.schedule.num_ops() > 128 {
            return Ok(None);
        }
        ooo_cert::certify(
            &self.graph,
            &self.schedule,
            &cost,
            &ooo_cert::Budget::nodes(node_budget),
        )
        .map(Some)
        .map_err(|e| Error::InvalidConfig(format!("certifier rejected strategy output: {e}")))
    }
}

/// A named schedule generator over training shapes.
pub trait Strategy {
    /// Stable CLI-friendly identifier ("fastforward", "twobp", ...).
    fn name(&self) -> &'static str;

    /// One-line description including the originating paper.
    fn description(&self) -> &'static str;

    /// Whether the strategy can target `shape`.
    fn applicable(&self, shape: Shape) -> bool;

    /// Whether generated schedules cover the whole graph. Partial
    /// generators (multi-region) return `false`; their outputs verify
    /// with `require_complete: false`.
    fn complete(&self) -> bool {
        true
    }

    /// Generates the schedule for `shape`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `shape` is not applicable;
    /// propagated core errors otherwise.
    fn generate(&self, shape: Shape, cost: &dyn CostModel) -> Result<Generated>;
}

/// Rejects non-applicable shapes with a uniform error.
fn require_applicable(s: &dyn Strategy, shape: Shape) -> Result<()> {
    if !s.applicable(shape) {
        return Err(Error::InvalidConfig(format!(
            "strategy {:?} is not applicable to {} shapes",
            s.name(),
            shape.kind()
        )));
    }
    Ok(())
}

/// The shared topological emitter: a Kahn sweep over `graph` driven by
/// the repository's canonical [`ReadyQueue`] pick rule. Each popped op
/// is appended to the lane `lane_of` assigns it; the global pop order
/// is a topological linearization, so its per-lane projections always
/// admit a feasible interleaving (the pop order itself).
///
/// Because the queue breaks priority ties by dense arena id, the result
/// is a pure function of `(graph, lane_of, priority_of)` — independent
/// of insertion order, hash state, or platform.
fn emit(
    graph: &TrainGraph,
    lane_names: &[&str],
    lane_of: impl Fn(Op) -> usize,
    priority_of: impl Fn(Op) -> i64,
) -> Schedule {
    let n = graph.len();
    let mut indegree: Vec<usize> = (0..n).map(|i| graph.dep_indices(i).len()).collect();
    let mut queue = ReadyQueue::new();
    for (i, &op) in graph.ops().iter().enumerate() {
        if indegree[i] == 0 {
            queue.push(priority_of(op), i);
        }
    }
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); lane_names.len()];
    while let Some((_, i)) = queue.pop() {
        let op = graph.ops()[i];
        lanes[lane_of(op)].push(op);
        for &j in graph.dependent_indices(i) {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                queue.push(priority_of(graph.ops()[j]), j);
            }
        }
    }
    let mut schedule = Schedule::new();
    for (name, ops) in lane_names.iter().zip(lanes) {
        schedule.add_lane(name, ops);
    }
    schedule
}

/// Emits a single/data-parallel schedule from per-class priorities:
/// lane layout is `main` (+ `sub` when `sub_of` assigns anything there,
/// + `link` for sync ops on data-parallel shapes).
fn emit_streams(
    graph: &TrainGraph,
    has_sub: bool,
    sub_of: impl Fn(Op) -> bool,
    priority_of: impl Fn(Op) -> i64,
) -> Schedule {
    let has_link = graph.config().sync_weight_grads || graph.config().sync_output_grads;
    let mut names: Vec<&str> = vec!["main"];
    let sub_lane = names.len();
    if has_sub {
        names.push("sub");
    }
    let link_lane = names.len();
    if has_link {
        names.push("link");
    }
    emit(
        graph,
        &names,
        |op| {
            if op.is_sync() {
                link_lane
            } else if has_sub && sub_of(op) {
                sub_lane
            } else {
                0
            }
        },
        priority_of,
    )
}

/// Conventional backprop: the framework baseline. Single-lane canonical
/// order on compute; on data-parallel shapes each `S[dW_i]` is served in
/// layer-descending completion order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Conventional;

impl Strategy for Conventional {
    fn name(&self) -> &'static str {
        "conventional"
    }

    fn description(&self) -> &'static str {
        "conventional per-layer backprop (framework baseline)"
    }

    fn applicable(&self, _shape: Shape) -> bool {
        true
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        match shape {
            Shape::SingleGpu { .. } => {
                let graph = shape.graph()?;
                let schedule = Schedule::single_lane("main", graph.conventional_backprop());
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
            Shape::DataParallel { .. } => {
                let graph = shape.graph()?;
                // Priority = negative arena id reproduces the canonical
                // conventional order exactly (min-id greedy topological
                // order of a topological numbering is that numbering).
                let schedule = emit_streams(
                    &graph,
                    false,
                    |_| false,
                    |op| -(graph.op_index(op).expect("op of graph") as i64),
                );
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
            Shape::Pipeline { layers, devices } => {
                let (graph, schedule) = op_level_schedule(
                    layers,
                    devices,
                    ooo_core::pipeline::Strategy::ModelParallel,
                    1,
                );
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
        }
    }
}

/// Gradient fast-forwarding (the paper's Section 5.2 applied across
/// shapes): the whole `dO` chain first, then per-layer `dW`/`S[dW]`/`U`
/// with weight gradients on a sub stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastForward;

impl Strategy for FastForward {
    fn name(&self) -> &'static str {
        "fastforward"
    }

    fn description(&self) -> &'static str {
        "gradient fast-forwarding: dO chain first, dW tail on a sub stream (this paper)"
    }

    fn applicable(&self, _shape: Shape) -> bool {
        true
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        match shape {
            Shape::SingleGpu { .. } | Shape::DataParallel { .. } => {
                let graph = shape.graph()?;
                let schedule = emit_streams(
                    &graph,
                    true,
                    |op| op.is_weight_grad(),
                    |op| match op {
                        Op::Loss | Op::OutputGrad(_) => 4_000,
                        Op::SyncWeightGrad(_) | Op::SyncOutputGrad(_) => 3_400,
                        Op::Update(_) => 3_200,
                        Op::WeightGrad(_) => 3_000,
                        Op::Forward(_) => 2_000,
                    },
                );
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
            Shape::Pipeline { layers, devices } => {
                let (graph, schedule) =
                    op_level_schedule(layers, devices, ooo_core::pipeline::Strategy::OooPipe1, 1);
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
        }
    }
}

/// Reverse first-k (the paper's data-parallel Algorithm 2): the first
/// `k = max(1, L/4)` layers' weight gradients are deferred past the `dO`
/// chain and then computed in ascending order, starting their critical
/// synchronizations earliest.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReverseK;

impl Strategy for ReverseK {
    fn name(&self) -> &'static str {
        "reversek"
    }

    fn description(&self) -> &'static str {
        "reverse first-k weight-gradient deferral for data-parallel sync (this paper)"
    }

    fn applicable(&self, shape: Shape) -> bool {
        matches!(shape, Shape::DataParallel { .. })
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        let graph = shape.graph()?;
        let l = graph.layers();
        let k = (l / 4).max(1);
        let backward = reverse_first_k(&graph, k, None::<(u64, &ooo_core::cost::UnitCost)>)?;
        let mut compute = backward.clone();
        for i in 1..=l {
            compute.push(Op::Update(LayerId(i)));
        }
        for i in 1..=l {
            compute.push(Op::Forward(LayerId(i)));
        }
        let link: Vec<Op> = backward
            .iter()
            .filter_map(|op| match op {
                Op::WeightGrad(i) => Some(Op::SyncWeightGrad(*i)),
                _ => None,
            })
            .collect();
        let mut schedule = Schedule::new();
        schedule.add_lane("main", compute);
        schedule.add_lane("link", link);
        Ok(Generated {
            graph,
            schedule,
            complete: true,
        })
    }
}

/// Region-independent co-run profile whose sub-stream kernel times come
/// from the cost model (the constant speedup stands in for profiling).
struct CostProfile<'a> {
    speedup: f64,
    cost: &'a dyn CostModel,
}

impl SpeedupProfile for CostProfile<'_> {
    fn speedup(&self, _op: Op, _region: usize) -> f64 {
        self.speedup
    }

    fn sub_time(&self, op: Op, _region: usize) -> SimTime {
        self.cost.duration(op)
    }
}

/// Multi-region joint scheduling (the paper's Algorithm 1): the
/// backward pass only, split into main-stream regions with weight
/// gradients assigned to their best co-run region. The output is a
/// *partial* schedule (updates/forwards implicit).
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiRegion;

impl Strategy for MultiRegion {
    fn name(&self) -> &'static str {
        "multiregion"
    }

    fn description(&self) -> &'static str {
        "multi-region joint main/sub-stream scheduling of the backward pass (this paper)"
    }

    fn applicable(&self, shape: Shape) -> bool {
        matches!(shape, Shape::SingleGpu { .. })
    }

    fn complete(&self) -> bool {
        false
    }

    fn generate(&self, shape: Shape, cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        let graph = shape.graph()?;
        let per_region = (graph.layers() / 4).max(2);
        let (regions, subs) = backward_regions(&graph, &cost, per_region);
        let profile = CostProfile { speedup: 1.3, cost };
        let plan = multi_region_joint_schedule(&graph, &regions, &subs, &profile)?;
        Ok(Generated {
            schedule: plan.to_schedule(&regions),
            graph,
            complete: false,
        })
    }
}

/// OOO-Pipe2 (the paper's Section 5.3): modulo layer allocation plus
/// gradient fast-forwarding across pipeline stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct OooPipe2;

impl Strategy for OooPipe2 {
    fn name(&self) -> &'static str {
        "ooopipe2"
    }

    fn description(&self) -> &'static str {
        "modulo layer allocation with gradient fast-forwarding across stages (this paper)"
    }

    fn applicable(&self, shape: Shape) -> bool {
        matches!(shape, Shape::Pipeline { .. })
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        let Shape::Pipeline { layers, devices } = shape else {
            unreachable!("checked by applicable");
        };
        let (graph, schedule) =
            op_level_schedule(layers, devices, ooo_core::pipeline::Strategy::OooPipe2, 1);
        Ok(Generated {
            graph,
            schedule,
            complete: true,
        })
    }
}

/// Layer-wise gradient pipelining (arXiv 2108.06629): a dedicated
/// gradient worker runs `dW_i` immediately followed by `U_i`, pipelined
/// layer by layer against the main stream's `dO` chain — updates leave
/// the critical path entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerPipe;

impl Strategy for LayerPipe {
    fn name(&self) -> &'static str {
        "layerpipe"
    }

    fn description(&self) -> &'static str {
        "layer-wise gradient/update pipelining on a gradient worker (arXiv 2108.06629)"
    }

    fn applicable(&self, shape: Shape) -> bool {
        matches!(shape, Shape::SingleGpu { .. } | Shape::DataParallel { .. })
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        let graph = shape.graph()?;
        // Updates ride the sub lane with their weight gradient: priority
        // S[dW] > U > dW makes each layer's S/U pop before the next dW.
        let schedule = emit_streams(
            &graph,
            true,
            |op| matches!(op, Op::WeightGrad(_) | Op::Update(_)),
            |op| match op {
                Op::Loss | Op::OutputGrad(_) => 4_000,
                Op::SyncWeightGrad(_) | Op::SyncOutputGrad(_) => 3_150,
                Op::Update(_) => 3_100,
                Op::WeightGrad(_) => 3_000,
                Op::Forward(_) => 2_000,
            },
        );
        Ok(Generated {
            graph,
            schedule,
            complete: true,
        })
    }
}

/// Two-stage backpropagation (arXiv 2405.18047): stage one is the full
/// `dO` chain; stage two computes weight gradients in *ascending* layer
/// order so layer 1's synchronization and update — the ones gating the
/// next forward pass — complete first.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoBp;

impl TwoBp {
    /// Class priorities: `dO` stage strictly above the ascending `dW`
    /// stage, syncs and updates ascending below it.
    fn priority(l: usize, op: Op) -> i64 {
        let asc = |i: LayerId| (l - i.index()) as i64;
        match op {
            Op::Loss | Op::OutputGrad(_) => 9_000,
            Op::SyncOutputGrad(_) => 8_000,
            Op::WeightGrad(i) => 6_000 + asc(i),
            Op::SyncWeightGrad(i) => 4_000 + asc(i),
            Op::Update(i) => 2_000 + asc(i),
            Op::Forward(_) => 0,
        }
    }
}

impl Strategy for TwoBp {
    fn name(&self) -> &'static str {
        "twobp"
    }

    fn description(&self) -> &'static str {
        "two-stage backprop: full dX stage, then ascending dW stage (arXiv 2405.18047)"
    }

    fn applicable(&self, _shape: Shape) -> bool {
        true
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        match shape {
            Shape::SingleGpu { .. } | Shape::DataParallel { .. } => {
                let graph = shape.graph()?;
                let l = graph.layers();
                let schedule = emit_streams(
                    &graph,
                    true,
                    |op| op.is_weight_grad(),
                    |op| TwoBp::priority(l, op),
                );
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
            Shape::Pipeline { layers, devices } => {
                let graph = shape.graph()?;
                let devices = devices.max(1);
                let alloc = ooo_core::pipeline::Allocation::Contiguous;
                let mut names: Vec<String> = (0..devices).map(|d| format!("gpu{d}")).collect();
                names.push("link".to_string());
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let schedule = emit(
                    &graph,
                    &name_refs,
                    |op| {
                        if op.is_sync() {
                            devices
                        } else {
                            let layer = op.layer().map_or(layers, LayerId::index);
                            alloc.device_of(layer, layers, devices)
                        }
                    },
                    |op| TwoBp::priority(layers, op),
                );
                Ok(Generated {
                    graph,
                    schedule,
                    complete: true,
                })
            }
        }
    }
}

/// Interleaved gradient computation (arXiv 2002.05529): on a single
/// stream, each `dW_i` is issued the moment its incoming gradient
/// exists — before `dO_i` — and updates are deferred past the whole
/// backward pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradInterleaved;

impl Strategy for GradInterleaved {
    fn name(&self) -> &'static str {
        "gradinterleaved"
    }

    fn description(&self) -> &'static str {
        "single-stream dW/dO interleaving with deferred updates (arXiv 2002.05529)"
    }

    fn applicable(&self, shape: Shape) -> bool {
        matches!(shape, Shape::SingleGpu { .. } | Shape::DataParallel { .. })
    }

    fn generate(&self, shape: Shape, _cost: &dyn CostModel) -> Result<Generated> {
        require_applicable(self, shape)?;
        let graph = shape.graph()?;
        let schedule = emit_streams(
            &graph,
            false,
            |_| false,
            |op| match op {
                Op::Loss => 5_000,
                Op::SyncWeightGrad(_) | Op::SyncOutputGrad(_) => 4_800,
                Op::WeightGrad(_) => 4_500,
                Op::OutputGrad(_) => 4_000,
                Op::Update(_) => 3_000,
                Op::Forward(_) => 2_000,
            },
        );
        Ok(Generated {
            graph,
            schedule,
            complete: true,
        })
    }
}

/// The full strategy zoo, in presentation order.
pub fn zoo() -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Conventional),
        Box::new(FastForward),
        Box::new(MultiRegion),
        Box::new(ReverseK),
        Box::new(OooPipe2),
        Box::new(LayerPipe),
        Box::new(TwoBp),
        Box::new(GradInterleaved),
    ]
}

/// All zoo strategy names, in presentation order.
pub fn strategy_names() -> Vec<&'static str> {
    zoo().iter().map(|s| s.name()).collect()
}

/// Looks a strategy up by its stable name.
pub fn strategy_by_name(name: &str) -> Option<Box<dyn Strategy>> {
    zoo().into_iter().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::UnitCost;

    fn shapes() -> Vec<Shape> {
        vec![
            Shape::SingleGpu { layers: 6 },
            Shape::DataParallel { layers: 6 },
            Shape::Pipeline {
                layers: 8,
                devices: 2,
            },
        ]
    }

    #[test]
    fn zoo_names_are_unique_and_resolvable() {
        let names = strategy_names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert_eq!(strategy_by_name(n).unwrap().name(), n);
        }
        assert!(strategy_by_name("nonesuch").is_none());
    }

    #[test]
    fn every_applicable_pair_is_clean_and_certified() {
        for shape in shapes() {
            for s in zoo() {
                if !s.applicable(shape) {
                    assert!(s.generate(shape, &UnitCost).is_err());
                    continue;
                }
                let g = s.generate(shape, &UnitCost).unwrap();
                let report = g.verify(&UnitCost, None);
                assert!(
                    report.is_clean(),
                    "{} on {}: {report}",
                    s.name(),
                    shape.kind()
                );
                g.certified(&UnitCost)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", s.name(), shape.kind()));
            }
        }
    }

    #[test]
    fn strategies_produce_distinct_schedules_per_shape() {
        for shape in shapes() {
            let outputs: Vec<(String, Schedule)> = zoo()
                .iter()
                .filter(|s| s.applicable(shape))
                .map(|s| {
                    (
                        s.name().to_string(),
                        s.generate(shape, &UnitCost).unwrap().schedule,
                    )
                })
                .collect();
            for i in 0..outputs.len() {
                for j in i + 1..outputs.len() {
                    assert_ne!(
                        outputs[i].1,
                        outputs[j].1,
                        "{} and {} coincide on {}",
                        outputs[i].0,
                        outputs[j].0,
                        shape.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn conventional_datapar_matches_canonical_projection() {
        let shape = Shape::DataParallel { layers: 4 };
        let g = Conventional.generate(shape, &UnitCost).unwrap();
        let canonical: Vec<Op> = g
            .graph
            .conventional_backprop()
            .into_iter()
            .filter(|op| !op.is_sync())
            .collect();
        assert_eq!(g.schedule.lanes[0].ops, canonical);
        let syncs: Vec<Op> = (1..=4)
            .rev()
            .map(|i| Op::SyncWeightGrad(LayerId(i)))
            .collect();
        assert_eq!(g.schedule.lanes[1].ops, syncs);
    }

    #[test]
    fn gradinterleaved_issues_dw_before_do() {
        let g = GradInterleaved
            .generate(Shape::SingleGpu { layers: 3 }, &UnitCost)
            .unwrap();
        let main = &g.schedule.lanes[0].ops;
        let pos = |op: Op| main.iter().position(|&o| o == op).unwrap();
        assert!(pos(Op::WeightGrad(LayerId(3))) < pos(Op::OutputGrad(LayerId(3))));
        assert!(pos(Op::WeightGrad(LayerId(2))) < pos(Op::OutputGrad(LayerId(2))));
    }

    #[test]
    fn twobp_dw_stage_is_ascending() {
        let g = TwoBp
            .generate(Shape::DataParallel { layers: 5 }, &UnitCost)
            .unwrap();
        let sub: Vec<Op> = g.schedule.lanes[1].ops.clone();
        let expect: Vec<Op> = (1..=5).map(|i| Op::WeightGrad(LayerId(i))).collect();
        assert_eq!(sub, expect);
        let link: Vec<Op> = g.schedule.lanes[2].ops.clone();
        let expect: Vec<Op> = (1..=5).map(|i| Op::SyncWeightGrad(LayerId(i))).collect();
        assert_eq!(link, expect);
    }

    #[test]
    fn layerpipe_pipelines_updates_with_gradients() {
        let g = LayerPipe
            .generate(Shape::SingleGpu { layers: 3 }, &UnitCost)
            .unwrap();
        let sub = &g.schedule.lanes[1].ops;
        let expect = vec![
            Op::WeightGrad(LayerId(3)),
            Op::Update(LayerId(3)),
            Op::WeightGrad(LayerId(2)),
            Op::Update(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
            Op::Update(LayerId(1)),
        ];
        assert_eq!(sub, &expect);
    }

    #[test]
    fn multiregion_is_partial_but_clean() {
        let s = MultiRegion;
        assert!(!s.complete());
        let g = s
            .generate(Shape::SingleGpu { layers: 8 }, &UnitCost)
            .unwrap();
        assert!(g.schedule.num_ops() < g.graph.len());
        assert!(g.verify(&UnitCost, None).is_clean());
        g.certified(&UnitCost).unwrap();
    }
}
