//! Pipeline-parallel schedules: gradient fast-forwarding and modulo layer
//! allocation (the paper's Section 5.2), plus the baseline systems they
//! are compared against.
//!
//! The module models pipeline-parallel training as a task system over
//! `(iteration, micro-batch, layer)` triples with three task kinds
//! (forward, output gradient, weight gradient) and cross-device transfer
//! tasks on per-device egress links. Strategies differ in three
//! dimensions:
//!
//! - **allocation** — which device owns each layer
//!   ([`Allocation::Contiguous`] vs [`Allocation::Modulo`], optionally
//!   grouped);
//! - **coupling** — whether `dW_i` is forced to run right after `dO_i`
//!   (conventional backprop) or may be delayed (gradient fast-forwarding);
//! - **synchronization semantics** — whether the next iteration's forward
//!   waits for the previous iteration's weight gradients (synchronous
//!   flush, as in GPipe/DAPPLE and the paper's OOO-Pipe) or proceeds with
//!   stale weights (PipeDream weight stashing).
//!
//! With unit task times and free communication the simulator reproduces
//! the paper's Figure 5 makespans exactly: 23 units for conventional
//! cross-layer model parallelism, 19 with gradient fast-forwarding, and
//! 16 with modulo allocation.
//!
//! [`op_level_schedule`] renders one iteration at operation level, for
//! the analyzer and the tuner: the group-independent dependency graph
//! plus [`op_level_lanes`], the one renderer of a strategy's lanes. The
//! lanes depend on the modulo group only through the layers' device map
//! ([`Strategy::device_map`]), so a search over groups builds the graph
//! once and renders each device map from it.

use crate::error::{Error, Result};
use crate::graph::TrainGraph;
use crate::op::{LayerId, Op};
use crate::schedule::Schedule;
use crate::SimTime;
use std::collections::HashMap;

/// Which device owns each layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// Consecutive layers are grouped into `devices` equal stages — the
    /// conventional scheme of GPipe/PipeDream.
    Contiguous,
    /// Layer groups of `group` consecutive layers are dealt round-robin:
    /// group `j` goes to device `j mod devices`. `group = 1` is the
    /// paper's per-layer modulo allocation; larger groups trade pipeline
    /// overlap for less communication (the paper groups two transformers
    /// on 10 Gb Ethernet).
    Modulo {
        /// Number of consecutive layers allocated as one unit.
        group: usize,
    },
}

impl Allocation {
    /// Device owning `layer` (1-based) among `devices` devices for a
    /// network of `layers` layers.
    pub fn device_of(self, layer: usize, layers: usize, devices: usize) -> usize {
        debug_assert!(layer >= 1 && layer <= layers);
        match self {
            Allocation::Contiguous => {
                // Equal chunks; remainders spread over the first stages.
                let base = layers / devices;
                let extra = layers % devices;
                let mut l = layer - 1;
                for d in 0..devices {
                    let size = base + usize::from(d < extra);
                    if l < size {
                        return d;
                    }
                    l -= size;
                }
                devices - 1
            }
            Allocation::Modulo { group } => {
                let g = group.max(1);
                ((layer - 1) / g) % devices
            }
        }
    }
}

/// Pipeline training strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Cross-layer model parallelism: a single micro-batch, contiguous
    /// allocation, conventional backprop (Figure 5 (a)).
    ModelParallel,
    /// GPipe: micro-batches, contiguous allocation, conventional
    /// backprop, synchronous flush.
    GPipe,
    /// PipeDream: 1F1B with weight stashing — no flush (stale weights),
    /// bounded in-flight micro-batches. Changes training semantics;
    /// reported as a reference point, as in the paper.
    PipeDream,
    /// DAPPLE: early backward scheduling with a synchronous flush. Its
    /// early-backward benefit is *memory* (activations freed sooner);
    /// throughput-wise it tracks GPipe, which is how it is modelled here
    /// (no in-flight bound).
    Dapple,
    /// Megatron-LM v2 interleaved pipeline: `chunks` virtual stages per
    /// device (modulo allocation at chunk granularity) but conventional
    /// backprop — the paper notes the scheme has limited benefit without
    /// fast-forwarding.
    MegatronInterleaved {
        /// Virtual pipeline stages per device.
        chunks: usize,
    },
    /// OOO-Pipe1: GPipe plus gradient fast-forwarding.
    OooPipe1,
    /// OOO-Pipe2: OOO-Pipe1 plus modulo allocation.
    OooPipe2,
}

impl Strategy {
    /// Every strategy the CLIs and the wire protocol can name
    /// (Megatron with its default two chunks).
    pub const ALL: [Strategy; 7] = [
        Strategy::ModelParallel,
        Strategy::GPipe,
        Strategy::PipeDream,
        Strategy::Dapple,
        Strategy::MegatronInterleaved { chunks: 2 },
        Strategy::OooPipe1,
        Strategy::OooPipe2,
    ];

    /// The name table: `(wire name, label)`. The wire name (`pipe2`) is
    /// what the `ooo-serve` protocol echoes; the label (`ooo-pipe2`)
    /// names the strategy in rendered output. `--strategy` and the
    /// protocol accept both.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Strategy::ModelParallel => ("mp", "model-parallel"),
            Strategy::GPipe => ("gpipe", "gpipe"),
            Strategy::PipeDream => ("pipedream", "pipedream"),
            Strategy::Dapple => ("dapple", "dapple"),
            Strategy::MegatronInterleaved { .. } => ("megatron", "megatron-interleaved"),
            Strategy::OooPipe1 => ("pipe1", "ooo-pipe1"),
            Strategy::OooPipe2 => ("pipe2", "ooo-pipe2"),
        }
    }

    /// Stable wire name (inverse of [`Strategy::parse`]).
    pub fn wire_name(self) -> &'static str {
        self.names().0
    }

    /// Human-readable label used in rendered reports.
    pub fn label(self) -> &'static str {
        self.names().1
    }

    /// Parses a wire name or a label; `modelparallel` is accepted as an
    /// alias of `mp`. Wire names are looked up first: the daemon's
    /// requests use them.
    ///
    /// # Errors
    ///
    /// `unknown strategy: "<name>"` for any other name.
    pub fn parse(name: &str) -> std::result::Result<Strategy, String> {
        let wire = if name == "modelparallel" { "mp" } else { name };
        Strategy::ALL
            .into_iter()
            .find(|s| s.wire_name() == wire)
            .or_else(|| Strategy::ALL.into_iter().find(|s| s.label() == name))
            .ok_or_else(|| format!("unknown strategy: {name:?}"))
    }

    /// Whether weight-gradient computations are decoupled from their
    /// layer's output-gradient computation (gradient fast-forwarding).
    pub fn fast_forwarding(self) -> bool {
        matches!(self, Strategy::OooPipe1 | Strategy::OooPipe2)
    }

    /// Whether the next iteration's forward pass waits for the previous
    /// iteration's weight gradients (synchronous training semantics).
    pub fn synchronous(self) -> bool {
        !matches!(self, Strategy::PipeDream)
    }

    /// The default allocation for this strategy, given the modulo group
    /// size configured for OOO-Pipe2.
    pub fn allocation(self, layers: usize, devices: usize, modulo_group: usize) -> Allocation {
        match self {
            Strategy::OooPipe2 => Allocation::Modulo {
                group: modulo_group,
            },
            Strategy::MegatronInterleaved { chunks } => {
                let per = (layers / (devices * chunks.max(1))).max(1);
                Allocation::Modulo { group: per }
            }
            _ => Allocation::Contiguous,
        }
    }

    /// The owner of every layer under [`Strategy::allocation`]: entry
    /// `i - 1` is layer `i`'s device among `devices` (at least one)
    /// devices. [`op_level_lanes`] renders a strategy from this map alone.
    pub fn device_map(self, layers: usize, devices: usize, modulo_group: usize) -> Vec<usize> {
        let devices = devices.max(1);
        let alloc = self.allocation(layers, devices, modulo_group);
        (1..=layers)
            .map(|i| alloc.device_of(i, layers, devices))
            .collect()
    }

    /// Whether the strategy bounds in-flight micro-batches per device.
    /// Only PipeDream's 1F1B is bounded: its weight-stashing store forces
    /// the cap. DAPPLE and Megatron manage memory via early backward /
    /// chunking, which this throughput model does not need to bound.
    pub fn bounded_in_flight(self) -> bool {
        matches!(self, Strategy::PipeDream)
    }
}

/// Per-layer execution costs for pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipeCost {
    /// Forward time per layer (1-based index at `forward[l-1]`).
    pub forward: Vec<SimTime>,
    /// Output-gradient time per layer.
    pub output_grad: Vec<SimTime>,
    /// Weight-gradient time per layer.
    pub weight_grad: Vec<SimTime>,
    /// Activation/gradient transfer time across the boundary after each
    /// layer (`transfer[l-1]` covers both `F` activations flowing
    /// `l -> l+1` and gradients flowing `l+1 -> l`).
    pub transfer: Vec<SimTime>,
}

impl PipeCost {
    /// Uniform unit-time costs with free communication — the model behind
    /// the paper's Figures 5, 6, and 12.
    pub fn unit(layers: usize) -> Self {
        PipeCost {
            forward: vec![1; layers],
            output_grad: vec![1; layers],
            weight_grad: vec![1; layers],
            transfer: vec![0; layers],
        }
    }

    /// Uniform costs with a fixed transfer time per boundary.
    pub fn uniform(layers: usize, compute: SimTime, transfer: SimTime) -> Self {
        PipeCost {
            forward: vec![compute; layers],
            output_grad: vec![compute; layers],
            weight_grad: vec![compute; layers],
            transfer: vec![transfer; layers],
        }
    }

    /// Number of layers covered.
    pub fn layers(&self) -> usize {
        self.forward.len()
    }
}

/// Full configuration of a pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of layers.
    pub layers: usize,
    /// Number of devices.
    pub devices: usize,
    /// Micro-batches per mini-batch (1 = no micro-batching).
    pub micro_batches: usize,
    /// Training iterations to simulate.
    pub iterations: usize,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Group size used when the strategy selects modulo allocation.
    pub modulo_group: usize,
    /// Per-layer costs.
    pub cost: PipeCost,
}

impl PipelineConfig {
    /// A unit-cost configuration (Figures 5/6/12 style).
    pub fn unit(layers: usize, devices: usize, micro_batches: usize, strategy: Strategy) -> Self {
        PipelineConfig {
            layers,
            devices,
            micro_batches,
            iterations: 1,
            strategy,
            modulo_group: 1,
            cost: PipeCost::unit(layers),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.layers == 0 || self.devices == 0 || self.micro_batches == 0 || self.iterations == 0
        {
            return Err(Error::InvalidConfig(
                "layers, devices, micro_batches, and iterations must all be positive".into(),
            ));
        }
        if self.devices > self.layers {
            return Err(Error::InvalidConfig(format!(
                "{} devices exceed {} layers",
                self.devices, self.layers
            )));
        }
        if self.cost.layers() != self.layers {
            return Err(Error::InvalidConfig(
                "cost table size != layer count".into(),
            ));
        }
        if matches!(self.strategy, Strategy::ModelParallel) && self.micro_batches != 1 {
            return Err(Error::InvalidConfig(
                "model parallelism is defined for a single micro-batch".into(),
            ));
        }
        Ok(())
    }
}

/// Kind of a pipeline task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward computation.
    Forward,
    /// Output-gradient computation.
    OutputGrad,
    /// Weight-gradient computation.
    WeightGrad,
    /// Cross-device tensor transfer (on the sender's egress link).
    Transfer,
}

/// One simulated pipeline task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeTask {
    /// Task kind.
    pub kind: TaskKind,
    /// Training iteration (0-based).
    pub iter: usize,
    /// Micro-batch within the iteration (0-based).
    pub micro: usize,
    /// Layer (1-based); for transfers, the producing layer.
    pub layer: usize,
}

/// A task execution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    /// What ran.
    pub task: PipeTask,
    /// Resource index: `0..devices` are compute devices, `devices..2*devices`
    /// are the devices' egress links.
    pub resource: usize,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

/// Result of a pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// All executed tasks sorted by `(start, resource)`.
    pub events: Vec<PipeEvent>,
    /// Number of compute devices.
    pub devices: usize,
    /// Completion time of each iteration (last weight gradient of the
    /// iteration).
    pub iteration_finish: Vec<SimTime>,
}

impl PipelineResult {
    /// Total makespan.
    pub fn makespan(&self) -> SimTime {
        self.events.iter().map(|e| e.end).max().unwrap_or(0)
    }

    /// Busy time of compute device `d`.
    pub fn busy(&self, d: usize) -> SimTime {
        self.events
            .iter()
            .filter(|e| e.resource == d && e.task.kind != TaskKind::Transfer)
            .map(|e| e.end - e.start)
            .sum()
    }

    /// Compute utilization of device `d` over the makespan.
    pub fn utilization(&self, d: usize) -> f64 {
        let m = self.makespan();
        if m == 0 {
            return 0.0;
        }
        self.busy(d) as f64 / m as f64
    }

    /// Steady-state time per iteration, discarding `warmup` iterations.
    /// Falls back to `makespan / iterations` when too few iterations were
    /// simulated.
    pub fn steady_state_iteration_time(&self, warmup: usize) -> f64 {
        let n = self.iteration_finish.len();
        if n == 0 {
            return 0.0;
        }
        if warmup + 1 >= n {
            return self.makespan() as f64 / n as f64;
        }
        let span = self.iteration_finish[n - 1] - self.iteration_finish[warmup];
        span as f64 / (n - 1 - warmup) as f64
    }

    /// Throughput in mini-batches per second given times in nanoseconds.
    pub fn throughput_per_sec(&self, warmup: usize) -> f64 {
        let t = self.steady_state_iteration_time(warmup);
        if t == 0.0 {
            return 0.0;
        }
        1e9 / t
    }

    /// Renders the run as a structured [`crate::trace::Timeline`]: one
    /// `gpu{d}` lane per compute device and one `link{d}` lane per egress
    /// link, with explicit [`crate::trace::CAT_STALL`] spans filling every
    /// compute-lane gap — the pipeline *bubbles*, so that the summarized
    /// stall fraction of the gpu lanes is exactly the bubble fraction.
    pub fn to_timeline(&self, name: &str) -> crate::trace::Timeline {
        use crate::trace::{Span, Timeline, CAT_STALL};
        let mut tl = Timeline::new(name);
        let makespan = self.makespan();
        for r in 0..2 * self.devices {
            let lane_name = if r < self.devices {
                format!("gpu{r}")
            } else {
                format!("link{}", r - self.devices)
            };
            let mut events: Vec<&PipeEvent> =
                self.events.iter().filter(|e| e.resource == r).collect();
            if r >= self.devices && events.is_empty() {
                continue; // unused link
            }
            events.sort_by_key(|e| e.start);
            let lane = tl.lane_mut(&lane_name);
            let mut prev_end: SimTime = 0;
            for e in events {
                let (prefix, cat) = match e.task.kind {
                    TaskKind::Forward => ("F", "compute"),
                    TaskKind::OutputGrad => ("dO", "compute"),
                    TaskKind::WeightGrad => ("dW", "compute"),
                    TaskKind::Transfer => ("S[dO", "transfer"),
                };
                let suffix = if e.task.kind == TaskKind::Transfer {
                    "]"
                } else {
                    ""
                };
                if r < self.devices && e.start > prev_end {
                    lane.spans
                        .push(Span::new("bubble", CAT_STALL, prev_end, e.start));
                }
                let mut span = Span::new(
                    format!("{prefix}{}{suffix}", e.task.layer),
                    cat,
                    e.start,
                    e.end,
                );
                span.args.push(("iter".into(), e.task.iter as f64));
                span.args.push(("micro".into(), e.task.micro as f64));
                span.args.push(("layer".into(), e.task.layer as f64));
                lane.spans.push(span);
                prev_end = prev_end.max(e.end);
            }
            if r < self.devices && prev_end < makespan {
                lane.spans
                    .push(Span::new("bubble", CAT_STALL, prev_end, makespan));
            }
        }
        tl
    }

    /// Renders a unit-time ASCII chart of the compute devices, Figure 12
    /// style: forward cells show `l`, backward cells `o l`/`w l`, with the
    /// micro-batch letter as suffix.
    pub fn render_ascii(&self) -> String {
        let makespan = self.makespan();
        let mut rows = vec![vec![String::from("."); makespan as usize]; self.devices];
        for e in &self.events {
            if e.resource >= self.devices {
                continue;
            }
            let mb = (b'A' + (e.task.micro % 26) as u8) as char;
            let label = match e.task.kind {
                TaskKind::Forward => format!("{}{}", e.task.layer, mb),
                TaskKind::OutputGrad => format!("o{}{}", e.task.layer, mb),
                TaskKind::WeightGrad => format!("w{}{}", e.task.layer, mb),
                TaskKind::Transfer => continue,
            };
            for t in e.start..e.end {
                rows[e.resource][t as usize] = label.clone();
            }
        }
        let mut out = String::new();
        for (d, row) in rows.iter().enumerate() {
            out.push_str(&format!("GPU{d} |"));
            for cell in row {
                out.push_str(&format!("{cell:>5}"));
            }
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Clone)]
struct TaskNode {
    task: PipeTask,
    resource: usize,
    dur: SimTime,
    deps: Vec<usize>,
    priority: i64,
}

/// Simulates pipeline-parallel training under `config`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for structurally invalid
/// configurations.
pub fn simulate_pipeline(config: &PipelineConfig) -> Result<PipelineResult> {
    config.validate()?;
    let l = config.layers;
    let d = config.devices;
    let m = config.micro_batches;
    let iters = config.iterations;
    let alloc = config.strategy.allocation(l, d, config.modulo_group);
    let dev_of = |layer: usize| alloc.device_of(layer, l, d);
    let ff = config.strategy.fast_forwarding();
    let sync = config.strategy.synchronous();

    let mut nodes: Vec<TaskNode> = Vec::new();
    let mut id_of: HashMap<PipeTask, usize> = HashMap::new();
    let push =
        |nodes: &mut Vec<TaskNode>, id_of: &mut HashMap<PipeTask, usize>, n: TaskNode| -> usize {
            let id = nodes.len();
            id_of.insert(n.task, id);
            nodes.push(n);
            id
        };

    // Priority classes (higher runs first when a device has a choice):
    // conventional coupling: dW(3) > dO(2) > F(1) — the dW->dO coupling
    // dependency makes dW run immediately after its own dO.
    // fast-forwarding:       dO(3) > F(2) > dW(1) — weight gradients fill
    // idle time.
    let class = |kind: TaskKind| -> i64 {
        match (ff, kind) {
            (_, TaskKind::Transfer) => 4,
            (false, TaskKind::WeightGrad) => 3,
            (false, TaskKind::OutputGrad) => 2,
            (false, TaskKind::Forward) => 1,
            (true, TaskKind::OutputGrad) => 3,
            (true, TaskKind::Forward) => 2,
            (true, TaskKind::WeightGrad) => 1,
        }
    };
    let prio = |kind: TaskKind, iter: usize, micro: usize, layer: usize| -> i64 {
        let step = (iter * m + micro) as i64;
        let layer_key = match kind {
            TaskKind::Forward => -(layer as i64),
            _ => layer as i64,
        };
        class(kind) * 1_000_000_000 - step * 100_000 + layer_key
    };

    // In-flight bound for 1F1B schedules: device at pipeline position p
    // admits forward of micro step s only after backward of step
    // s - (num_positions - p) completed on it.
    let positions: Vec<usize> = {
        // Rank devices by their smallest owned layer.
        let mut firsts: Vec<(usize, usize)> = (0..d)
            .map(|dev| ((1..=l).find(|&ly| dev_of(ly) == dev).unwrap_or(l), dev))
            .collect();
        firsts.sort_unstable();
        let mut pos = vec![0usize; d];
        for (rank, &(_, dev)) in firsts.iter().enumerate() {
            pos[dev] = rank;
        }
        pos
    };

    for iter in 0..iters {
        for micro in 0..m {
            // Forward chain.
            for layer in 1..=l {
                let dev = dev_of(layer);
                let mut deps = Vec::new();
                if layer > 1 {
                    let prev_dev = dev_of(layer - 1);
                    let prev = id_of[&PipeTask {
                        kind: TaskKind::Forward,
                        iter,
                        micro,
                        layer: layer - 1,
                    }];
                    if prev_dev != dev && config.cost.transfer[layer - 2] > 0 {
                        let xfer = push(
                            &mut nodes,
                            &mut id_of,
                            TaskNode {
                                task: PipeTask {
                                    kind: TaskKind::Transfer,
                                    iter,
                                    micro,
                                    layer: layer - 1,
                                },
                                resource: d + prev_dev,
                                dur: config.cost.transfer[layer - 2],
                                deps: vec![prev],
                                priority: prio(TaskKind::Transfer, iter, micro, layer - 1),
                            },
                        );
                        deps.push(xfer);
                    } else {
                        deps.push(prev);
                    }
                }
                // Synchronous flush: the forward needs last iteration's
                // weight gradients for this layer (weight update itself is
                // modelled as free).
                if sync && iter > 0 {
                    for m2 in 0..m {
                        deps.push(
                            id_of[&PipeTask {
                                kind: TaskKind::WeightGrad,
                                iter: iter - 1,
                                micro: m2,
                                layer,
                            }],
                        );
                    }
                }
                push(
                    &mut nodes,
                    &mut id_of,
                    TaskNode {
                        task: PipeTask {
                            kind: TaskKind::Forward,
                            iter,
                            micro,
                            layer,
                        },
                        resource: dev,
                        dur: config.cost.forward[layer - 1],
                        deps,
                        priority: prio(TaskKind::Forward, iter, micro, layer),
                    },
                );
            }
            // Backward chain: the incoming gradient of layer `ly` is the
            // output gradient computed by layer `ly+1` (or the loss, free,
            // right after F_L). Under conventional backprop the two
            // gradient computations of a layer form one grouped node
            // (tf.group), so the handoff to layer `ly` additionally waits
            // for `dW_{ly+1}` — removing exactly this false dependency is
            // what out-of-order backprop does.
            for layer in (1..=l).rev() {
                let dev = dev_of(layer);
                let grad_deps: Vec<usize> = if layer == l {
                    vec![
                        id_of[&PipeTask {
                            kind: TaskKind::Forward,
                            iter,
                            micro,
                            layer: l,
                        }],
                    ]
                } else {
                    let src_dev = dev_of(layer + 1);
                    let mut src_deps = vec![
                        id_of[&PipeTask {
                            kind: TaskKind::OutputGrad,
                            iter,
                            micro,
                            layer: layer + 1,
                        }],
                    ];
                    if !ff {
                        // Grouped gradient node: the handoff also waits
                        // for dW of the producing layer.
                        src_deps.push(
                            id_of[&PipeTask {
                                kind: TaskKind::WeightGrad,
                                iter,
                                micro,
                                layer: layer + 1,
                            }],
                        );
                    }
                    if src_dev != dev && config.cost.transfer[layer - 1] > 0 {
                        // Gradient transfers are keyed by `layer + l` so
                        // they never collide with the forward transfer of
                        // the same boundary.
                        let xfer = push(
                            &mut nodes,
                            &mut id_of,
                            TaskNode {
                                task: PipeTask {
                                    kind: TaskKind::Transfer,
                                    iter,
                                    micro,
                                    layer: layer + l,
                                },
                                resource: d + src_dev,
                                dur: config.cost.transfer[layer - 1],
                                deps: src_deps,
                                priority: prio(TaskKind::Transfer, iter, micro, layer),
                            },
                        );
                        vec![xfer]
                    } else {
                        src_deps
                    }
                };
                if layer >= 2 {
                    push(
                        &mut nodes,
                        &mut id_of,
                        TaskNode {
                            task: PipeTask {
                                kind: TaskKind::OutputGrad,
                                iter,
                                micro,
                                layer,
                            },
                            resource: dev,
                            dur: config.cost.output_grad[layer - 1],
                            deps: grad_deps.clone(),
                            priority: prio(TaskKind::OutputGrad, iter, micro, layer),
                        },
                    );
                }
                let mut dw_deps = grad_deps;
                if !ff && layer >= 2 {
                    // Conventional coupling: dW right after the layer's dO.
                    dw_deps.push(
                        id_of[&PipeTask {
                            kind: TaskKind::OutputGrad,
                            iter,
                            micro,
                            layer,
                        }],
                    );
                }
                push(
                    &mut nodes,
                    &mut id_of,
                    TaskNode {
                        task: PipeTask {
                            kind: TaskKind::WeightGrad,
                            iter,
                            micro,
                            layer,
                        },
                        resource: dev,
                        dur: config.cost.weight_grad[layer - 1],
                        deps: dw_deps,
                        priority: prio(TaskKind::WeightGrad, iter, micro, layer),
                    },
                );
            }
        }
    }

    // 1F1B in-flight bounds.
    if config.strategy.bounded_in_flight() {
        let num_positions = d;
        for iter in 0..iters {
            for micro in 0..m {
                let step = iter * m + micro;
                #[allow(clippy::needless_range_loop)] // dev indexes two arrays
                for dev in 0..d {
                    let cap = num_positions - positions[dev];
                    if step < cap {
                        continue;
                    }
                    let gate_step = step - cap;
                    let (g_iter, g_micro) = (gate_step / m, gate_step % m);
                    // Anchor: the device's last backward task for the
                    // gated step (weight gradient of its smallest layer).
                    let Some(first_layer) = (1..=l).find(|&ly| dev_of(ly) == dev) else {
                        continue;
                    };
                    let anchor = id_of[&PipeTask {
                        kind: TaskKind::WeightGrad,
                        iter: g_iter,
                        micro: g_micro,
                        layer: first_layer,
                    }];
                    // Gate the device's first forward task of this step.
                    let gated = id_of[&PipeTask {
                        kind: TaskKind::Forward,
                        iter,
                        micro,
                        layer: first_layer,
                    }];
                    nodes[gated].deps.push(anchor);
                }
            }
        }
    }

    // Greedy earliest-start commit over compute devices and egress links.
    let num_resources = 2 * d;
    let mut indeg: Vec<usize> = nodes.iter().map(|n| n.deps.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        for &dep in &n.deps {
            dependents[dep].push(i);
        }
    }
    let mut ready_time: Vec<SimTime> = vec![0; nodes.len()];
    let mut ready: Vec<Vec<usize>> = vec![Vec::new(); num_resources]; // per-resource ready task ids
    for (i, n) in nodes.iter().enumerate() {
        if indeg[i] == 0 {
            ready[n.resource].push(i);
        }
    }
    let mut res_free: Vec<SimTime> = vec![0; num_resources];
    let mut finish: Vec<SimTime> = vec![0; nodes.len()];
    let mut events: Vec<PipeEvent> = Vec::with_capacity(nodes.len());
    let mut remaining = nodes.len();

    while remaining > 0 {
        // For each resource, the task it would run next: the highest-
        // priority task ready at t0 = max(res_free, earliest readiness).
        let mut best: Option<(SimTime, i64, usize)> = None; // (start, -prio, task)
        for r in 0..num_resources {
            if ready[r].is_empty() {
                continue;
            }
            let earliest = ready[r]
                .iter()
                .map(|&t| ready_time[t])
                .min()
                .expect("non-empty");
            let t0 = res_free[r].max(earliest);
            let &cand = ready[r]
                .iter()
                .filter(|&&t| ready_time[t] <= t0)
                .max_by_key(|&&t| (nodes[t].priority, std::cmp::Reverse(t)))
                .expect("the earliest-ready task qualifies");
            let key = (t0, -nodes[cand].priority, cand);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((start, _, tid)) = best else {
            return Err(Error::InvalidConfig(
                "pipeline task graph did not drain".into(),
            ));
        };
        let node = &nodes[tid];
        let r = node.resource;
        let end = start + node.dur;
        finish[tid] = end;
        res_free[r] = end;
        events.push(PipeEvent {
            task: node.task,
            resource: r,
            start,
            end,
        });
        ready[r].retain(|&t| t != tid);
        remaining -= 1;
        for &dep in &dependents[tid].clone() {
            indeg[dep] -= 1;
            ready_time[dep] = ready_time[dep].max(end);
            if indeg[dep] == 0 {
                ready[nodes[dep].resource].push(dep);
            }
        }
        // Propagate readiness from all deps (max over finishes).
        // (ready_time updated incrementally above as deps finish.)
    }

    let mut iteration_finish = vec![0; iters];
    for e in &events {
        if e.task.kind == TaskKind::WeightGrad {
            let it = e.task.iter;
            iteration_finish[it] = iteration_finish[it].max(e.end);
        }
    }
    events.sort_by_key(|e| (e.start, e.resource, e.end));
    Ok(PipelineResult {
        events,
        devices: d,
        iteration_finish,
    })
}

/// The operation-level rendering of one pipeline iteration under a
/// strategy: the pipeline dependency graph
/// ([`TrainGraph::pipeline_parallel`]) and the strategy's lanes under
/// `modulo_group` ([`op_level_lanes`] of [`Strategy::device_map`]).
///
/// This is the schedule the `ooo-verify` analyzer checks in debug builds
/// — device placement comes from the strategy's allocation, so a
/// placement or ordering bug shows up as a race or cross-lane deadlock
/// here before the micro-batch simulator ever runs it. The static
/// performance analyzer (`ooo-advise`) evaluates the same rendering to
/// compare strategies' bubble fractions.
pub fn op_level_schedule(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    modulo_group: usize,
) -> (TrainGraph, Schedule) {
    let map = strategy.device_map(layers, devices, modulo_group);
    (
        TrainGraph::pipeline_parallel(layers),
        op_level_lanes(strategy, devices, &map),
    )
}

/// The lanes of one pipeline iteration under `strategy`, with layer `i`
/// on device `map[i - 1]`: one lane per device (at least one) holding
/// its layers' computations in issue order, plus a `link` lane carrying
/// the activation-gradient transfers `S[dO_i]` between stages. The lanes
/// are a function of the strategy's coupling and of `map` alone, so two
/// groups with one device map render the same schedule.
///
/// Fast-forwarding strategies (OOO-Pipe1/2) issue the full
/// output-gradient chain before any weight gradient; the others follow
/// conventional per-layer backprop.
pub fn op_level_lanes(strategy: Strategy, devices: usize, map: &[usize]) -> Schedule {
    let layers = map.len();
    let dev_of = |i: usize| map[i - 1];
    let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); devices.max(1)];
    // Backward pass: the loss on the last layer's device, then down the
    // layer chain.
    lanes[dev_of(layers)].push(Op::Loss);
    if strategy.fast_forwarding() {
        // Gradient fast-forwarding: every dO first, the dW tail delayed.
        for i in (2..=layers).rev() {
            lanes[dev_of(i)].push(Op::OutputGrad(LayerId(i)));
        }
        for i in (1..=layers).rev() {
            lanes[dev_of(i)].push(Op::WeightGrad(LayerId(i)));
            lanes[dev_of(i)].push(Op::Update(LayerId(i)));
        }
    } else {
        // Conventional backprop per layer.
        for i in (1..=layers).rev() {
            if i >= 2 {
                lanes[dev_of(i)].push(Op::OutputGrad(LayerId(i)));
            }
            lanes[dev_of(i)].push(Op::WeightGrad(LayerId(i)));
            lanes[dev_of(i)].push(Op::Update(LayerId(i)));
        }
    }
    // Next iteration's forward pass up the chain.
    for i in 1..=layers {
        lanes[dev_of(i)].push(Op::Forward(LayerId(i)));
    }
    let mut schedule = Schedule::new();
    for (d, ops) in lanes.into_iter().enumerate() {
        schedule.add_lane(&format!("gpu{d}"), ops);
    }
    let link: Vec<Op> = (2..=layers)
        .rev()
        .map(|i| Op::SyncOutputGrad(LayerId(i)))
        .collect();
    schedule.add_lane("link", link);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_result(layers: usize, devices: usize, micros: usize, s: Strategy) -> PipelineResult {
        simulate_pipeline(&PipelineConfig::unit(layers, devices, micros, s)).unwrap()
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.wire_name()), Ok(s));
            assert_eq!(Strategy::parse(s.label()), Ok(s));
        }
        assert_eq!(
            Strategy::parse("modelparallel"),
            Ok(Strategy::ModelParallel)
        );
        assert_eq!(Strategy::OooPipe2.label(), "ooo-pipe2");
        assert_eq!(
            Strategy::parse("bogus"),
            Err("unknown strategy: \"bogus\"".to_string())
        );
    }

    #[test]
    fn timeline_stall_fraction_is_the_bubble_fraction() {
        for s in [Strategy::GPipe, Strategy::OooPipe1, Strategy::OooPipe2] {
            let r = unit_result(8, 4, 4, s);
            let tl = r.to_timeline("pipe");
            tl.validate().unwrap();
            let summary = tl.summarize();
            assert_eq!(summary.horizon_ns, r.makespan());
            for d in 0..4 {
                let lane = summary.lane(&format!("gpu{d}")).unwrap();
                // Explicit bubble spans tile every non-busy instant, so
                // busy + stall covers the whole horizon...
                assert_eq!(lane.busy_ns + lane.stall_ns, summary.horizon_ns);
                // ...and the lane utilization matches the simulator's own.
                assert!((lane.utilization - r.utilization(d)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn contiguous_allocation_splits_evenly() {
        let a = Allocation::Contiguous;
        assert_eq!(a.device_of(1, 8, 2), 0);
        assert_eq!(a.device_of(4, 8, 2), 0);
        assert_eq!(a.device_of(5, 8, 2), 1);
        assert_eq!(a.device_of(8, 8, 2), 1);
        // Uneven split: first stages take the remainder.
        assert_eq!(a.device_of(3, 7, 3), 0);
        assert_eq!(a.device_of(4, 7, 3), 1);
    }

    #[test]
    fn modulo_allocation_round_robins() {
        let a = Allocation::Modulo { group: 1 };
        assert_eq!(a.device_of(1, 8, 2), 0);
        assert_eq!(a.device_of(2, 8, 2), 1);
        assert_eq!(a.device_of(3, 8, 2), 0);
        let g2 = Allocation::Modulo { group: 2 };
        assert_eq!(g2.device_of(1, 8, 2), 0);
        assert_eq!(g2.device_of(2, 8, 2), 0);
        assert_eq!(g2.device_of(3, 8, 2), 1);
        assert_eq!(g2.device_of(5, 8, 2), 0);
    }

    #[test]
    fn figure5_conventional_makespan_is_23() {
        let r = unit_result(8, 2, 1, Strategy::ModelParallel);
        assert_eq!(r.makespan(), 23, "\n{}", r.render_ascii());
    }

    #[test]
    fn figure5_fast_forwarding_makespan_is_19() {
        let r = unit_result(8, 2, 1, Strategy::OooPipe1);
        assert_eq!(r.makespan(), 19, "\n{}", r.render_ascii());
    }

    #[test]
    fn figure5_modulo_allocation_makespan_is_16() {
        let r = unit_result(8, 2, 1, Strategy::OooPipe2);
        assert_eq!(r.makespan(), 16, "\n{}", r.render_ascii());
    }

    #[test]
    fn figure5_utilization_over_90_percent_with_modulo() {
        // The paper: "both GPU1 and GPU2 are utilized for more than 90% of
        // the backpropagation" under modulo allocation.
        let r = unit_result(8, 2, 1, Strategy::OooPipe2);
        let backprop_span = r.makespan() - 8; // forward takes 8 units
        for dev in 0..2 {
            let busy_bwd: SimTime = r
                .events
                .iter()
                .filter(|e| {
                    e.resource == dev
                        && e.task.kind != TaskKind::Forward
                        && e.task.kind != TaskKind::Transfer
                })
                .map(|e| e.end - e.start)
                .sum();
            assert!(
                busy_bwd as f64 >= 0.85 * backprop_span as f64,
                "device {dev}: {busy_bwd}/{backprop_span}\n{}",
                r.render_ascii()
            );
        }
    }

    #[test]
    fn micro_batching_improves_on_model_parallelism() {
        // Figure 6: with 2 micro-batches GPipe overlaps backward passes.
        let mp = unit_result(8, 2, 1, Strategy::ModelParallel);
        let gp = unit_result(8, 2, 2, Strategy::GPipe);
        // GPipe processes twice the data; normalize per micro-batch.
        assert!((gp.makespan() as f64 / 2.0) < mp.makespan() as f64);
    }

    #[test]
    fn fast_forwarding_no_worse_than_gpipe() {
        for (l, d, m) in [(8, 2, 2), (8, 4, 2), (16, 4, 4), (12, 3, 4)] {
            let gp = unit_result(l, d, m, Strategy::GPipe);
            let p1 = unit_result(l, d, m, Strategy::OooPipe1);
            assert!(
                p1.makespan() <= gp.makespan(),
                "l={l} d={d} m={m}: {} vs {}",
                p1.makespan(),
                gp.makespan()
            );
        }
    }

    #[test]
    fn modulo_beats_fast_forwarding_alone_with_free_comm() {
        for (l, d, m) in [(8, 2, 2), (16, 4, 4)] {
            let p1 = unit_result(l, d, m, Strategy::OooPipe1);
            let p2 = unit_result(l, d, m, Strategy::OooPipe2);
            assert!(
                p2.makespan() <= p1.makespan(),
                "l={l} d={d} m={m}: {} vs {}",
                p2.makespan(),
                p1.makespan()
            );
        }
    }

    #[test]
    fn expensive_transfers_hurt_fine_modulo_more_than_grouped() {
        // On a slow interconnect, grouping layers reduces transfer count.
        let mk = |group: usize| {
            let mut c = PipelineConfig::unit(16, 4, 4, Strategy::OooPipe2);
            c.modulo_group = group;
            c.cost = PipeCost::uniform(16, 2, 3);
            simulate_pipeline(&c).unwrap().makespan()
        };
        let fine = mk(1);
        let grouped = mk(4);
        assert!(grouped < fine, "grouped {grouped} vs fine {fine}");
    }

    #[test]
    fn pipedream_steady_state_beats_gpipe() {
        let mk = |s: Strategy| {
            let mut c = PipelineConfig::unit(8, 4, 4, s);
            c.iterations = 6;
            simulate_pipeline(&c)
                .unwrap()
                .steady_state_iteration_time(2)
        };
        let gpipe = mk(Strategy::GPipe);
        let pd = mk(Strategy::PipeDream);
        assert!(pd <= gpipe, "pipedream {pd} vs gpipe {gpipe}");
    }

    #[test]
    fn multi_iteration_finishes_are_monotone() {
        let mut c = PipelineConfig::unit(8, 2, 2, Strategy::GPipe);
        c.iterations = 4;
        let r = simulate_pipeline(&c).unwrap();
        for w in r.iteration_finish.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn every_task_executes_exactly_once() {
        let mut c = PipelineConfig::unit(8, 4, 2, Strategy::OooPipe2);
        c.iterations = 2;
        let r = simulate_pipeline(&c).unwrap();
        // Per iteration+micro: 8 F, 7 dO, 8 dW. 2 iters * 2 micros = 4.
        let compute: Vec<&PipeEvent> = r
            .events
            .iter()
            .filter(|e| e.task.kind != TaskKind::Transfer)
            .collect();
        assert_eq!(compute.len(), 4 * (8 + 7 + 8));
    }

    #[test]
    fn devices_never_overlap_themselves() {
        let mut c = PipelineConfig::unit(12, 3, 4, Strategy::Dapple);
        c.iterations = 3;
        let r = simulate_pipeline(&c).unwrap();
        for res in 0..6 {
            let mut evs: Vec<&PipeEvent> = r.events.iter().filter(|e| e.resource == res).collect();
            evs.sort_by_key(|e| e.start);
            for w in evs.windows(2) {
                assert!(w[0].end <= w[1].start, "overlap on resource {res}");
            }
        }
    }

    #[test]
    fn dependencies_respected_in_timeline() {
        let mut c = PipelineConfig::unit(8, 2, 2, Strategy::OooPipe1);
        c.iterations = 2;
        let r = simulate_pipeline(&c).unwrap();
        let finish = |t: PipeTask| {
            r.events
                .iter()
                .find(|e| e.task == t)
                .map(|e| e.end)
                .unwrap()
        };
        let start = |t: PipeTask| {
            r.events
                .iter()
                .find(|e| e.task == t)
                .map(|e| e.start)
                .unwrap()
        };
        // Forward chain order.
        for layer in 2..=8 {
            let f_prev = finish(PipeTask {
                kind: TaskKind::Forward,
                iter: 0,
                micro: 0,
                layer: layer - 1,
            });
            let f = start(PipeTask {
                kind: TaskKind::Forward,
                iter: 0,
                micro: 0,
                layer,
            });
            assert!(f >= f_prev);
        }
        // Synchronous flush: iteration 1's F of layer 1 waits for
        // iteration 0's dW of layer 1 (all micros).
        let dw = finish(PipeTask {
            kind: TaskKind::WeightGrad,
            iter: 0,
            micro: 1,
            layer: 1,
        });
        let f1 = start(PipeTask {
            kind: TaskKind::Forward,
            iter: 1,
            micro: 0,
            layer: 1,
        });
        assert!(f1 >= dw);
    }

    #[test]
    fn pipedream_overlaps_iterations() {
        // With weight stashing, iteration 1's forward may start before
        // iteration 0's backward completes.
        let mut c = PipelineConfig::unit(8, 4, 4, Strategy::PipeDream);
        c.iterations = 3;
        let r = simulate_pipeline(&c).unwrap();
        let f1_start = r
            .events
            .iter()
            .find(|e| {
                e.task
                    == PipeTask {
                        kind: TaskKind::Forward,
                        iter: 1,
                        micro: 0,
                        layer: 1,
                    }
            })
            .unwrap()
            .start;
        assert!(
            f1_start < r.iteration_finish[0],
            "{} vs {}",
            f1_start,
            r.iteration_finish[0]
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(simulate_pipeline(&PipelineConfig::unit(0, 1, 1, Strategy::GPipe)).is_err());
        assert!(simulate_pipeline(&PipelineConfig::unit(2, 4, 1, Strategy::GPipe)).is_err());
        assert!(
            simulate_pipeline(&PipelineConfig::unit(8, 2, 2, Strategy::ModelParallel)).is_err()
        );
        let mut c = PipelineConfig::unit(4, 2, 1, Strategy::GPipe);
        c.cost = PipeCost::unit(5);
        assert!(simulate_pipeline(&c).is_err());
    }

    #[test]
    fn megatron_interleaved_runs_and_is_valid() {
        let mut c = PipelineConfig::unit(16, 4, 4, Strategy::MegatronInterleaved { chunks: 2 });
        c.iterations = 2;
        let r = simulate_pipeline(&c).unwrap();
        assert!(r.makespan() > 0);
        // Interleaved allocation: layer 1 and layer 9 share device 0.
        let a = Strategy::MegatronInterleaved { chunks: 2 }.allocation(16, 4, 1);
        assert_eq!(a.device_of(1, 16, 4), a.device_of(9, 16, 4));
    }

    /// The op-level rendering as one body that builds the graph and the
    /// lanes together from the allocation: the differential oracle of
    /// [`op_level_schedule`].
    fn whole_schedule_oracle(
        layers: usize,
        devices: usize,
        strategy: Strategy,
        modulo_group: usize,
    ) -> (TrainGraph, Schedule) {
        let devices = devices.max(1);
        let graph = TrainGraph::pipeline_parallel(layers);
        let alloc = strategy.allocation(layers, devices, modulo_group);
        let dev_of = |i: usize| alloc.device_of(i, layers, devices);
        let mut lanes: Vec<Vec<Op>> = vec![Vec::new(); devices];
        // Backward pass: the loss on the last layer's device, then down the
        // layer chain.
        lanes[dev_of(layers)].push(Op::Loss);
        if strategy.fast_forwarding() {
            // Gradient fast-forwarding: every dO first, the dW tail delayed.
            for i in (2..=layers).rev() {
                lanes[dev_of(i)].push(Op::OutputGrad(LayerId(i)));
            }
            for i in (1..=layers).rev() {
                lanes[dev_of(i)].push(Op::WeightGrad(LayerId(i)));
                lanes[dev_of(i)].push(Op::Update(LayerId(i)));
            }
        } else {
            // Conventional backprop per layer.
            for i in (1..=layers).rev() {
                if i >= 2 {
                    lanes[dev_of(i)].push(Op::OutputGrad(LayerId(i)));
                }
                lanes[dev_of(i)].push(Op::WeightGrad(LayerId(i)));
                lanes[dev_of(i)].push(Op::Update(LayerId(i)));
            }
        }
        // Next iteration's forward pass up the chain.
        for i in 1..=layers {
            lanes[dev_of(i)].push(Op::Forward(LayerId(i)));
        }
        let mut schedule = Schedule::new();
        for (d, ops) in lanes.into_iter().enumerate() {
            schedule.add_lane(&format!("gpu{d}"), ops);
        }
        let link: Vec<Op> = (2..=layers)
            .rev()
            .map(|i| Op::SyncOutputGrad(LayerId(i)))
            .collect();
        schedule.add_lane("link", link);
        (graph, schedule)
    }

    /// Graph plus lanes renderer equals the one-body rendering for every
    /// strategy, small size and group, including groups outside
    /// `1..=layers`, whose device map is that of the nearest group inside.
    #[test]
    fn split_rendering_equals_the_whole_schedule_oracle() {
        for strategy in Strategy::ALL {
            for layers in 1..=9 {
                for devices in 0..=4 {
                    for group in 0..=layers + 2 {
                        let (graph, schedule) = op_level_schedule(layers, devices, strategy, group);
                        let (want_graph, want) =
                            whole_schedule_oracle(layers, devices, strategy, group);
                        assert_eq!(schedule, want, "{strategy:?} {layers}x{devices} g{group}");
                        assert_eq!(graph.ops(), want_graph.ops());
                        assert_eq!(
                            strategy.device_map(layers, devices, group),
                            strategy.device_map(layers, devices, group.clamp(1, layers)),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ascii_rendering_shows_micro_batches() {
        let r = unit_result(8, 2, 2, Strategy::GPipe);
        let art = r.render_ascii();
        assert!(art.contains("1A"));
        assert!(art.contains("1B"));
        assert!(art.contains("w1A"));
    }
}
