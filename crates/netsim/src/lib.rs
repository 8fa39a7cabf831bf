//! # ooo-netsim — interconnects and parameter communication
//!
//! Models the communication substrate of the paper's multi-GPU
//! experiments:
//!
//! - [`link`] — link specifications (NVLink, PCIe 3.0, 10/20/25 Gb
//!   Ethernet) with bandwidth/latency transfer costs;
//! - [`topology`] — the four evaluated clusters (Table 2): Priv-A
//!   (8× Titan XP, PCIe + 10 GbE), Priv-B (20× P100, PCIe + 20 GbE),
//!   Pub-A (48× V100, NVLink + 10 GbE), Pub-B (40× V100, NVLink +
//!   25 GbE);
//! - [`commsim`] — a chunk-preemptive priority transmission queue, the
//!   ByteScheduler/BytePS mechanism that lets a late-arriving
//!   high-priority tensor overtake bulk traffic;
//! - [`collective`] — synchronization-cost models for BytePS-style
//!   parameter servers and Horovod-style ring all-reduce.

#![warn(missing_docs)]

pub mod collective;
pub mod commsim;
pub mod flows;
pub mod link;
#[cfg(test)]
mod reference;
pub mod topology;

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Errors from the communication models under degraded conditions.
///
/// The happy-path helpers (`transfer_ns`, `worker_bottleneck_bytes_per_sec`)
/// assume live links and non-empty jobs; their `try_` counterparts return
/// these errors instead of saturating or dividing by zero when fault
/// injection drives a parameter to a degenerate value.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A link has zero (or non-finite) usable bandwidth: no transfer can
    /// ever complete over it.
    DeadLink {
        /// Link name.
        link: String,
        /// The offending bandwidth value.
        bytes_per_sec: f64,
    },
    /// A communication step was requested for a job with no workers (zero
    /// GPUs, or a topology with zero GPUs per node).
    NoWorkers,
    /// A completion lookup referenced a request id the queue never saw.
    UnknownRequest(usize),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DeadLink {
                link,
                bytes_per_sec,
            } => {
                write!(f, "link {link:?} is dead: bandwidth {bytes_per_sec} B/s")
            }
            Error::NoWorkers => write!(f, "communication step requested with zero workers"),
            Error::UnknownRequest(id) => {
                write!(f, "request id {id} was never submitted to the queue")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
