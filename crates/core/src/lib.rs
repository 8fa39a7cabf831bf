//! # ooo-core — Out-of-order backprop task graphs and schedulers
//!
//! This crate implements the primary contribution of *"Out-Of-Order
//! BackProp: An Effective Scheduling Technique for Deep Learning"*
//! (EuroSys '22): the observation that weight-gradient computations are
//! leaves of the backward dependency graph and may therefore be reordered
//! freely, plus the three scheduling algorithms the paper builds on top of
//! that freedom.
//!
//! The crate is organized around a [`graph::TrainGraph`] describing one
//! training iteration as a DAG of typed operations ([`op::Op`]):
//! forward computations `F_i`, output-gradient computations `dO_i`,
//! weight-gradient computations `dW_i`, weight updates `U_i`, and the
//! synchronization operations `S[dW_i]` / `S[dO_i]` of distributed training.
//! The dependency set is exactly the constraint system of the paper's
//! Section 2 formulation.
//!
//! On top of the graph the crate provides:
//!
//! - [`schedule`] — schedule representations and validation against the
//!   dependency constraints.
//! - [`list_scheduling`] — a generic list scheduler and the one
//!   evaluator of a fixed multi-lane schedule over devices and links.
//! - [`multi_region`] — the paper's Algorithm 1 (multi-region joint
//!   scheduling) for single-GPU multi-stream execution.
//! - [`reverse_k`] — the paper's Algorithm 2 (reverse first-k scheduling)
//!   for data-parallel training, with the concave heuristic search for `k`.
//! - [`pipeline`] — gradient fast-forwarding and modulo layer allocation
//!   for pipeline-parallel training, along with baseline schedule
//!   generators (cross-layer model parallelism, GPipe, PipeDream-style
//!   1F1B, DAPPLE-style, and Megatron-style interleaved pipelines).
//! - [`combined`] — the Section 6 combination of reverse first-k and
//!   gradient fast-forwarding.
//! - [`memory`] — the memory accounting used by the algorithms to respect
//!   peak-memory constraints.
//!
//! # Example
//!
//! ```
//! use ooo_core::graph::TrainGraph;
//! use ooo_core::schedule::validate_order;
//!
//! // A five-layer network, no distributed synchronization.
//! let graph = TrainGraph::single_gpu(5);
//! let conventional = graph.conventional_backprop();
//! assert!(validate_order(&graph, &conventional).is_ok());
//!
//! // Out-of-order backprop: delaying every weight gradient to the end of
//! // the backward pass is still a valid execution order.
//! let ooo = graph.fast_forward_backprop();
//! assert!(validate_order(&graph, &ooo).is_ok());
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod bounds;
pub mod cli;
pub mod combined;
pub mod cost;
pub mod datapar;
pub mod error;
pub mod export;
pub mod graph;
pub mod hash;
pub mod heft;
pub mod json;
pub mod list_scheduling;
pub mod memory;
pub mod multi_region;
pub mod op;
pub mod pipeline;
pub mod recompute;
pub mod reverse_k;
pub mod schedule;
pub mod trace;

pub use arena::GraphArena;
pub use error::{Error, Result};
pub use graph::TrainGraph;
pub use op::{LayerId, Op};
pub use schedule::Schedule;

/// Simulated time in nanoseconds.
///
/// All simulators in this workspace use integer nanoseconds so that event
/// ordering is exactly deterministic and reproducible across runs.
pub type SimTime = u64;
