//! The training-iteration dependency graph.
//!
//! One scheduling unit is a whole training iteration, modelled as in the
//! paper's Section 2: the iteration *starts with the backward pass* (the
//! loss gradient is pinned to time zero) and *ends with the next
//! iteration's forward pass*, so the objective `T(F_L) + F_L` is the
//! completion of the last forward computation.
//!
//! The dependency set is exactly the constraint system of the paper:
//!
//! ```text
//! T(dO_{L+1}) = 0
//! {T(dW_i), T(dO_i)} >= T(S[dO_{i+1}]) + S[dO_{i+1}]
//! T(S[dO_i]) >= T(dO_i) + dO_i
//! T(S[dW_i]) >= T(dW_i) + dW_i
//! T(F_i)     >= T(S[dW_i]) + S[dW_i]
//! T(F_{i+1}) >= T(F_i) + F_i
//! ```
//!
//! with `S[..]` collapsing to a no-op when the corresponding
//! synchronization does not exist (single-GPU training has neither; pure
//! data-parallel training has no `S[dO]`; pure pipeline-parallel training
//! has no `S[dW]`).
//!
//! The crucial structural fact exploited by out-of-order backprop is
//! visible directly in the constraints: `dW_i` has *no dependents other
//! than its own synchronization/update*. Nothing in the backward chain
//! waits for it, so it may execute at any point after `dO_{i+1}`.

use crate::arena::GraphArena;
use crate::error::{Error, Result};
use crate::op::{LayerId, Op};

/// The most layers, devices or modulo-group size an instance may be
/// asked for, on the command line (`--layers`, `--devices`, `--group`)
/// or in an `ooo-serve` request: it bounds what a request can make the
/// tools allocate.
pub const MAX_LAYERS: usize = 4096;

/// Configuration for building a [`TrainGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphConfig {
    /// Number of layers `L` (must be at least 1).
    pub layers: usize,
    /// Whether each `dW_i` is followed by a parameter synchronization
    /// `S[dW_i]` (data-parallel training).
    pub sync_weight_grads: bool,
    /// Whether each `dO_i` is followed by an activation-gradient transfer
    /// `S[dO_i]` (pipeline-parallel training across device boundaries).
    pub sync_output_grads: bool,
    /// Whether weight updates `U_i` are modelled as explicit operations.
    pub include_updates: bool,
    /// Whether the next iteration's forward pass `F_1..F_L` is part of the
    /// graph (it is in the paper's formulation; leaving it out is useful
    /// when scheduling the backward pass in isolation).
    pub include_forward: bool,
    /// Whether `dO_1` exists. The first layer has no predecessor to feed,
    /// so frameworks skip its input-gradient kernel; the paper's unit-time
    /// figures (e.g. Figure 5's makespan of 23) assume it is skipped.
    pub compute_first_output_grad: bool,
}

impl GraphConfig {
    /// Configuration for single-GPU training: no synchronizations.
    pub fn single_gpu(layers: usize) -> Self {
        GraphConfig {
            layers,
            sync_weight_grads: false,
            sync_output_grads: false,
            include_updates: true,
            include_forward: true,
            compute_first_output_grad: false,
        }
    }

    /// Configuration for data-parallel training: `S[dW_i]` present,
    /// `S[dO_i]` absent (the paper sets it to a no-op in Section 5.1).
    pub fn data_parallel(layers: usize) -> Self {
        GraphConfig {
            sync_weight_grads: true,
            ..GraphConfig::single_gpu(layers)
        }
    }

    /// Configuration for pipeline-parallel training: `S[dO_i]` present,
    /// `S[dW_i]` absent (the paper sets it to a no-op in Section 5.2).
    pub fn pipeline_parallel(layers: usize) -> Self {
        GraphConfig {
            sync_output_grads: true,
            ..GraphConfig::single_gpu(layers)
        }
    }
}

/// The dependency graph of one training iteration.
///
/// Operations are stored densely; [`TrainGraph::ops`] yields them in a
/// fixed canonical order (not an execution order). Dependencies are the
/// *true* data dependencies only — in particular `dW_i` does **not**
/// depend on `dO_i` having been consumed by layer `i-1`, which is the
/// false dependency conventional frameworks introduce (e.g. through
/// TensorFlow's `tf.group`) and which out-of-order backprop removes.
#[derive(Debug, Clone)]
pub struct TrainGraph {
    config: GraphConfig,
    arena: GraphArena,
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
}

impl TrainGraph {
    /// Builds the graph for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `config.layers == 0`.
    pub fn new(config: GraphConfig) -> Result<Self> {
        if config.layers == 0 {
            return Err(Error::InvalidConfig(
                "layer count must be at least 1".into(),
            ));
        }
        let l = config.layers;
        let mut ops = Vec::new();
        ops.push(Op::Loss);
        let lo = if config.compute_first_output_grad {
            1
        } else {
            2
        };
        // The canonical storage order is: loss, per-layer backward ops from
        // layer L down to 1, then updates, then forwards. Any execution
        // order is a permutation validated against `deps`.
        for i in (1..=l).rev() {
            if i >= lo {
                ops.push(Op::OutputGrad(LayerId(i)));
                if config.sync_output_grads {
                    ops.push(Op::SyncOutputGrad(LayerId(i)));
                }
            }
            ops.push(Op::WeightGrad(LayerId(i)));
            if config.sync_weight_grads {
                ops.push(Op::SyncWeightGrad(LayerId(i)));
            }
            if config.include_updates {
                ops.push(Op::Update(LayerId(i)));
            }
        }
        if config.include_forward {
            for i in 1..=l {
                ops.push(Op::Forward(LayerId(i)));
            }
        }

        // The arena gives every op an O(1) computed slot; ids are the
        // positions in the canonical storage order built above.
        let arena = GraphArena::from_ops(l, &ops);
        let index =
            |op: Op| -> usize { arena.id_of(op).expect("dependency op is in the graph") as usize };
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];

        // The incoming gradient available to layer i's computations: for
        // layer L it is the loss gradient, otherwise layer i+1's output
        // gradient (or its synchronization when one exists).
        let grad_source = |i: usize| -> Op {
            if i == l {
                Op::Loss
            } else if config.sync_output_grads {
                Op::SyncOutputGrad(LayerId(i + 1))
            } else {
                Op::OutputGrad(LayerId(i + 1))
            }
        };

        for (idx, &op) in ops.iter().enumerate() {
            match op {
                Op::Loss => {}
                Op::OutputGrad(LayerId(i)) | Op::WeightGrad(LayerId(i)) => {
                    deps[idx].push(index(grad_source(i)));
                }
                Op::SyncOutputGrad(LayerId(i)) => {
                    deps[idx].push(index(Op::OutputGrad(LayerId(i))));
                }
                Op::SyncWeightGrad(LayerId(i)) => {
                    deps[idx].push(index(Op::WeightGrad(LayerId(i))));
                }
                Op::Update(LayerId(i)) => {
                    let dep = if config.sync_weight_grads {
                        Op::SyncWeightGrad(LayerId(i))
                    } else {
                        Op::WeightGrad(LayerId(i))
                    };
                    deps[idx].push(index(dep));
                }
                Op::Forward(LayerId(i)) => {
                    // The next iteration's forward computation of layer i
                    // needs the layer's updated (and synchronized) weights
                    // and the previous layer's forward output.
                    let weight_ready = if config.include_updates {
                        Op::Update(LayerId(i))
                    } else if config.sync_weight_grads {
                        Op::SyncWeightGrad(LayerId(i))
                    } else {
                        Op::WeightGrad(LayerId(i))
                    };
                    deps[idx].push(index(weight_ready));
                    if i > 1 {
                        deps[idx].push(index(Op::Forward(LayerId(i - 1))));
                    }
                }
            }
        }
        for d in &mut deps {
            d.sort_unstable();
        }
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                dependents[d].push(i);
            }
        }
        Ok(TrainGraph {
            config,
            arena,
            deps,
            dependents,
        })
    }

    /// Builds a single-GPU graph (no synchronizations) for `layers` layers.
    ///
    /// # Panics
    ///
    /// Panics when `layers == 0`; use [`TrainGraph::new`] for fallible
    /// construction.
    pub fn single_gpu(layers: usize) -> Self {
        TrainGraph::new(GraphConfig::single_gpu(layers)).expect("layers >= 1")
    }

    /// Builds a data-parallel graph (`S[dW]` present) for `layers` layers.
    ///
    /// # Panics
    ///
    /// Panics when `layers == 0`.
    pub fn data_parallel(layers: usize) -> Self {
        TrainGraph::new(GraphConfig::data_parallel(layers)).expect("layers >= 1")
    }

    /// Builds a pipeline-parallel graph (`S[dO]` present) for `layers`
    /// layers.
    ///
    /// # Panics
    ///
    /// Panics when `layers == 0`.
    pub fn pipeline_parallel(layers: usize) -> Self {
        TrainGraph::new(GraphConfig::pipeline_parallel(layers)).expect("layers >= 1")
    }

    /// The configuration this graph was built from.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Number of layers `L`.
    pub fn layers(&self) -> usize {
        self.config.layers
    }

    /// All operations in canonical storage order.
    pub fn ops(&self) -> &[Op] {
        self.arena.ops()
    }

    /// The arena mapping ops to dense u32 ids in O(1).
    pub fn arena(&self) -> &GraphArena {
        &self.arena
    }

    /// Number of operations in the graph.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the graph has no operations (never true for a valid graph).
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Whether `op` is part of this graph.
    pub fn contains(&self, op: Op) -> bool {
        self.arena.contains(op)
    }

    /// Dense index of `op`, if present — an O(1) arena slot computation.
    pub fn op_index(&self, op: Op) -> Option<usize> {
        self.arena.id_of(op).map(|id| id as usize)
    }

    /// Direct dependencies of `op`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownOp`] when `op` is not part of the graph.
    pub fn deps(&self, op: Op) -> Result<Vec<Op>> {
        let idx = self.op_index(op).ok_or(Error::UnknownOp(op))?;
        Ok(self.deps[idx]
            .iter()
            .map(|&i| self.arena.op_of(i as u32))
            .collect())
    }

    /// Direct dependents of `op`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownOp`] when `op` is not part of the graph.
    pub fn dependents(&self, op: Op) -> Result<Vec<Op>> {
        let idx = self.op_index(op).ok_or(Error::UnknownOp(op))?;
        Ok(self.dependents[idx]
            .iter()
            .map(|&i| self.arena.op_of(i as u32))
            .collect())
    }

    /// Dependency indices of the op at dense index `idx`.
    pub fn dep_indices(&self, idx: usize) -> &[usize] {
        &self.deps[idx]
    }

    /// Dependent indices of the op at dense index `idx`.
    pub fn dependent_indices(&self, idx: usize) -> &[usize] {
        &self.dependents[idx]
    }

    /// The conventional backpropagation order: for each layer from `L`
    /// down to `1`, compute `dO_i` then `dW_i` (then sync/update), then run
    /// the forward pass — i.e. strictly the reverse of the network layout,
    /// as existing deep-learning systems execute it.
    pub fn conventional_backprop(&self) -> Vec<Op> {
        // The canonical storage order was chosen to be exactly this.
        self.arena.ops().to_vec()
    }

    /// The gradient fast-forwarding order of Section 5.2: all output
    /// gradients first (in reverse layer order), then all weight gradients
    /// (also in reverse layer order), then updates, then the forward pass.
    pub fn fast_forward_backprop(&self) -> Vec<Op> {
        let l = self.config.layers;
        let mut order = vec![Op::Loss];
        for i in (1..=l).rev() {
            if let Some(op) = self.present(Op::OutputGrad(LayerId(i))) {
                order.push(op);
            }
            if let Some(op) = self.present(Op::SyncOutputGrad(LayerId(i))) {
                order.push(op);
            }
        }
        for i in (1..=l).rev() {
            order.push(Op::WeightGrad(LayerId(i)));
            if let Some(op) = self.present(Op::SyncWeightGrad(LayerId(i))) {
                order.push(op);
            }
            if let Some(op) = self.present(Op::Update(LayerId(i))) {
                order.push(op);
            }
        }
        if self.config.include_forward {
            for i in 1..=l {
                order.push(Op::Forward(LayerId(i)));
            }
        }
        order
    }

    /// Returns `Some(op)` when the graph contains `op`.
    fn present(&self, op: Op) -> Option<Op> {
        self.contains(op).then_some(op)
    }

    /// All weight-gradient operations in reverse layer order
    /// (`dW_L, ..., dW_1`) — the set out-of-order backprop may move.
    pub fn weight_grads(&self) -> Vec<Op> {
        (1..=self.config.layers)
            .rev()
            .map(|i| Op::WeightGrad(LayerId(i)))
            .collect()
    }

    /// All output-gradient operations in reverse layer order.
    pub fn output_grads(&self) -> Vec<Op> {
        (1..=self.config.layers)
            .rev()
            .filter_map(|i| self.present(Op::OutputGrad(LayerId(i))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate_order;

    #[test]
    fn op_index_is_the_conventional_position() {
        // The verifier's one-pass OV401 check compares op indices as
        // conventional positions; this is the property it relies on.
        for layers in [1, 2, 7, 64] {
            let mut configs = vec![
                GraphConfig::single_gpu(layers),
                GraphConfig::data_parallel(layers),
                GraphConfig::pipeline_parallel(layers),
            ];
            let mut bare = GraphConfig::single_gpu(layers);
            bare.include_forward = false;
            bare.include_updates = false;
            bare.compute_first_output_grad = !bare.compute_first_output_grad;
            configs.push(bare);
            for config in configs {
                let graph = TrainGraph::new(config.clone()).unwrap();
                let conventional = graph.conventional_backprop();
                assert_eq!(conventional.len(), graph.len());
                for (pos, &op) in conventional.iter().enumerate() {
                    assert_eq!(graph.op_index(op), Some(pos), "{op} in {config:?}");
                }
            }
        }
    }

    #[test]
    fn zero_layers_is_rejected() {
        assert!(matches!(
            TrainGraph::new(GraphConfig::single_gpu(0)),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_gpu_op_count() {
        // L layers: 1 loss + (L-1) dO + L dW + L U + L F.
        let g = TrainGraph::single_gpu(4);
        assert_eq!(g.len(), 1 + 3 + 4 + 4 + 4);
    }

    #[test]
    fn data_parallel_adds_weight_syncs() {
        let g = TrainGraph::data_parallel(4);
        assert!(g.contains(Op::SyncWeightGrad(LayerId(1))));
        assert!(!g.contains(Op::SyncOutputGrad(LayerId(2))));
        assert_eq!(g.len(), 1 + 3 + 4 + 4 + 4 + 4);
    }

    #[test]
    fn pipeline_parallel_adds_output_syncs() {
        let g = TrainGraph::pipeline_parallel(4);
        assert!(g.contains(Op::SyncOutputGrad(LayerId(2))));
        assert!(!g.contains(Op::SyncWeightGrad(LayerId(1))));
    }

    #[test]
    fn first_output_grad_skipped_by_default() {
        let g = TrainGraph::single_gpu(3);
        assert!(!g.contains(Op::OutputGrad(LayerId(1))));
        let cfg = GraphConfig {
            compute_first_output_grad: true,
            ..GraphConfig::single_gpu(3)
        };
        let g2 = TrainGraph::new(cfg).unwrap();
        assert!(g2.contains(Op::OutputGrad(LayerId(1))));
    }

    #[test]
    fn weight_grad_depends_only_on_incoming_gradient() {
        let g = TrainGraph::single_gpu(4);
        // dW_3 depends on dO_4 only; dO_3 does NOT depend on dW_3.
        assert_eq!(
            g.deps(Op::WeightGrad(LayerId(3))).unwrap(),
            vec![Op::OutputGrad(LayerId(4))]
        );
        let deps_do3 = g.deps(Op::OutputGrad(LayerId(3))).unwrap();
        assert!(!deps_do3.contains(&Op::WeightGrad(LayerId(3))));
    }

    #[test]
    fn last_layer_grads_depend_on_loss() {
        let g = TrainGraph::single_gpu(2);
        assert_eq!(g.deps(Op::WeightGrad(LayerId(2))).unwrap(), vec![Op::Loss]);
        assert_eq!(g.deps(Op::OutputGrad(LayerId(2))).unwrap(), vec![Op::Loss]);
    }

    #[test]
    fn forward_depends_on_update_and_previous_forward() {
        let g = TrainGraph::single_gpu(3);
        let deps = g.deps(Op::Forward(LayerId(2))).unwrap();
        assert!(deps.contains(&Op::Update(LayerId(2))));
        assert!(deps.contains(&Op::Forward(LayerId(1))));
    }

    #[test]
    fn data_parallel_forward_gated_by_sync() {
        let g = TrainGraph::data_parallel(3);
        let deps = g.deps(Op::Update(LayerId(2))).unwrap();
        assert_eq!(deps, vec![Op::SyncWeightGrad(LayerId(2))]);
    }

    #[test]
    fn pipeline_grads_depend_on_synced_gradient() {
        let g = TrainGraph::pipeline_parallel(3);
        assert_eq!(
            g.deps(Op::WeightGrad(LayerId(2))).unwrap(),
            vec![Op::SyncOutputGrad(LayerId(3))]
        );
    }

    #[test]
    fn conventional_and_fast_forward_orders_are_valid() {
        for l in 1..=8 {
            for g in [
                TrainGraph::single_gpu(l),
                TrainGraph::data_parallel(l),
                TrainGraph::pipeline_parallel(l),
            ] {
                validate_order(&g, &g.conventional_backprop()).unwrap();
                validate_order(&g, &g.fast_forward_backprop()).unwrap();
            }
        }
    }

    #[test]
    fn unknown_op_is_reported() {
        let g = TrainGraph::single_gpu(2);
        assert_eq!(
            g.deps(Op::Forward(LayerId(9))),
            Err(Error::UnknownOp(Op::Forward(LayerId(9))))
        );
    }

    #[test]
    fn dependents_inverse_of_deps() {
        let g = TrainGraph::data_parallel(4);
        for &op in g.ops() {
            for dep in g.deps(op).unwrap() {
                assert!(g.dependents(dep).unwrap().contains(&op), "{dep} -> {op}");
            }
        }
    }

    #[test]
    fn loss_has_no_deps_and_many_dependents() {
        let g = TrainGraph::single_gpu(5);
        assert!(g.deps(Op::Loss).unwrap().is_empty());
        let deps = g.dependents(Op::Loss).unwrap();
        assert!(deps.contains(&Op::OutputGrad(LayerId(5))));
        assert!(deps.contains(&Op::WeightGrad(LayerId(5))));
    }
}
