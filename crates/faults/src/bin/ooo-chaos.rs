//! `ooo-chaos` — run a deterministic fault-injection campaign.
//!
//! Generates a seeded scenario set (GPU stragglers, link degradation
//! and flapping, worker crashes, schedule corruption), runs each against
//! the simulators once with no recovery and once with the fault
//! family's matched recovery policy, checks the safety invariants, and
//! prints a degradation report.
//!
//! ```text
//! ooo-chaos run  [--seed N] [--scenarios N] [--json] [--out FILE]
//! ooo-chaos list [--seed N] [--scenarios N]
//! ```
//!
//! `--scenarios` is 1 to 65536 (default 10).
//!
//! `run` exits `0` when every scenario satisfies all invariants
//! (recovered schedule passes ooo-verify, timelines validate, each
//! policy strictly beats no-recovery), `1` when a simulation fails or an
//! invariant is violated, `2` on usage or I/O problems. Never panics.
//! The same seed always produces a byte-identical report.

use ooo_core::cli::{finish, Exit, CHAOS};
use ooo_faults::campaign::run_campaign;
use ooo_faults::fault::generate;
use std::process::ExitCode;

fn run() -> Result<bool, Exit> {
    let args = CHAOS.args()?;
    let seed = args.num("--seed").unwrap_or(42);
    let scenarios = args.count("--scenarios").unwrap_or(10);
    if scenarios == 0 {
        return Err(Exit::usage("--scenarios must be at least 1".to_string()));
    }
    if args.mode() == "list" {
        println!("seed {seed} — {scenarios} scenario(s):");
        for sc in generate(seed, scenarios) {
            println!(
                "{:<4} {:<20} {}",
                sc.id,
                sc.fault.family(),
                sc.fault.detail()
            );
        }
        return Ok(false);
    }
    let report = run_campaign(seed, scenarios).map_err(|e| CHAOS.fail(1, e))?;
    args.emit(&if args.switch("--json") {
        report.to_json().to_pretty() + "\n"
    } else {
        report.render()
    })?;
    if report.all_pass() {
        Ok(false)
    } else {
        Err(CHAOS.fail(1, "invariant violation (see report)"))
    }
}

fn main() -> ExitCode {
    finish(run())
}
