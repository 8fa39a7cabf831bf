//! # ooo-faults — deterministic fault injection and recovery
//!
//! Robustness layer for the out-of-order-backprop simulators. The
//! simulators themselves ship the *injection hooks* (a
//! [`Slowdown`](ooo_gpusim::engine::Slowdown) window in the GPU engine,
//! [`LinkFault`](ooo_netsim::commsim::LinkFault) outage/degradation
//! windows in the communication queues, a
//! [`FaultEnv`](ooo_cluster::datapar::FaultEnv) for the cluster
//! engines); this crate supplies the three layers above them:
//!
//! - [`fault`] — a declarative fault taxonomy (straggler, degradation,
//!   flapping, crash, schedule corruption) and a seeded scenario
//!   generator: same seed, same scenarios, always.
//! - [`recovery`] — the [`RecoveryPolicy`]
//!   trait and its implementations: retry with bounded exponential
//!   backoff, checkpoint/rollback, re-running `search_optimal_k` against
//!   the faulted costs, and falling back to the safe in-order schedule
//!   when `ooo-verify` flags a corrupted order.
//! - [`serve`] — seeded protocol-level traffic traces for the
//!   `ooo-serve` daemon: mixed workloads with hostile lines, fault
//!   directives, deterministic timeouts, and hold-gated overload
//!   blocks, replayed by the serve conformance suite.
//! - [`campaign`] — the chaos campaign driver behind the `ooo-chaos`
//!   CLI: every scenario runs once with no recovery and once with its
//!   matched policy under the identical fault trace, three invariants
//!   are asserted (schedule safety, timeline validity, recovery strictly
//!   wins), and the degradation report renders deterministically.
//!
//! Determinism is the design center: discrete-event simulators, a seeded
//! `StdRng`, and `ooo_core::json`'s stable number formatting make the
//! campaign report byte-identical across runs of the same seed — the
//! property the CI smoke test pins.

#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod recovery;
pub mod serve;

pub use campaign::{run_campaign, CampaignReport, ScenarioOutcome};
pub use fault::{generate, Fault, Scenario};
pub use recovery::{
    policy_for, CheckpointRollback, Checkpointing, FallbackInOrder, NoRecovery, RecoveryPolicy,
    RetryBackoff, Retune,
};
pub use serve::{generate_trace, ServeTrace, TraceConfig};
