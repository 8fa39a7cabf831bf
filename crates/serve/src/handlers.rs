//! Request handlers: the compute commands, executed on pool workers.
//!
//! The tuning commands run the same [`ooo_tune::job`] as the one-shot
//! `ooo-tune` CLI, and `cert` certifies the same
//! [`ooo_core::reverse_k::order_instance`] as `ooo-cert order`; a handler
//! returns a [`Payload`] instead of printing, and threads the request's
//! degradation tier, logical budget, and wall-clock deadline into the
//! search ([`TuneOptions::budget`] / [`TuneOptions::deadline`] /
//! [`ooo_cert::Budget`]). Every tier returns a certified result —
//! degradation reduces search effort, never correctness.

use crate::protocol::{strategy_name, Command, FaultDirective, Payload, Status, Tier};
use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{obj, Value};
use ooo_core::reverse_k::order_instance;
use ooo_core::SimTime;
use ooo_tune::job::{bundle_job, order_job, pipeline_job, Outcome};
use ooo_tune::{Error, TuneOptions};
use std::time::Instant;

/// Default branch-and-bound node budget for `cert` requests without an
/// explicit `budget` (matches [`ooo_cert::Budget::default`]).
const DEFAULT_CERT_NODES: u64 = 200_000;

/// Search options for one request: tier picks the family, budget and
/// deadline bound the effort. The heuristic tier is a zero-scan tune —
/// the paper's heuristic baseline, still gate-checked and certified.
fn tune_opts(
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
    memory_cap: Option<u64>,
) -> TuneOptions {
    let base = TuneOptions {
        deadline,
        memory_cap,
        ..TuneOptions::default()
    };
    match tier {
        Tier::Full => TuneOptions { budget, ..base },
        Tier::Greedy => TuneOptions {
            restarts: 0,
            budget,
            ..base
        },
        Tier::Heuristic => TuneOptions {
            budget: Some(0),
            ..base
        },
    }
}

/// One tuned result as a response object (fixed key order — the
/// response stream is byte-compared across runs). Responses carry the
/// move count, not the move list.
fn tuned_fields(o: &Outcome) -> Value {
    o.to_json(Value::Num(o.moves.len() as f64))
}

/// A served result at `tier`.
fn ok(tier: Tier, result: Value) -> Payload {
    Payload::new(
        Status::Ok,
        [("tier", tier.as_str().into()), ("result", result)],
    )
}

/// The fired rule codes of a gate refusal.
fn diagnostics(report: &ooo_verify::Report) -> Value {
    Value::Arr(
        report
            .rule_codes()
            .iter()
            .map(|c| c.to_string().into())
            .collect(),
    )
}

/// Maps a tuning job onto a payload: gate refusals become `unsafe`
/// responses with the fired rule codes, other errors a structured
/// `error`.
fn tuned_payload(tier: Tier, r: Result<Outcome, Error>) -> Payload {
    match r {
        Ok(o) => ok(tier, tuned_fields(&o)),
        Err(Error::Unsafe(report)) => {
            Payload::new(Status::Unsafe, [("diagnostics", diagnostics(&report))])
        }
        Err(e) => Payload::error(e.to_string()),
    }
}

/// Tunes every selected bundle entry. Per-entry refusals and errors
/// become items of the result list; the response status is that of
/// the last failed entry (`ok` when none failed).
fn handle_bundle(
    bundle: &ScheduleBundle,
    wanted: Option<&str>,
    policy: CommPolicy,
    tier: Tier,
    opts: &TuneOptions,
) -> Payload {
    let results = match bundle_job(bundle, wanted, policy, opts) {
        Ok(results) if results.is_empty() => {
            return Payload::error("bundle holds no orders or schedules")
        }
        Ok(results) => results,
        Err(msg) => return Payload::error(msg),
    };
    let mut worst = Status::Ok;
    let items = results
        .into_iter()
        .map(|(name, r)| match r {
            Ok(o) => tuned_fields(&o),
            Err(Error::Unsafe(report)) => {
                worst = Status::Unsafe;
                obj([
                    ("name", name.into()),
                    ("kind", "unsafe".into()),
                    ("diagnostics", diagnostics(&report)),
                ])
            }
            Err(e) => {
                worst = Status::Error;
                obj([
                    ("name", name.into()),
                    ("kind", "error".into()),
                    ("error", e.to_string().into()),
                ])
            }
        })
        .collect();
    Payload::new(
        worst,
        [
            ("tier", tier.as_str().into()),
            ("result", Value::Arr(items)),
        ],
    )
}

fn handle_cert(
    layers: usize,
    k: usize,
    sync: SimTime,
    policy: CommPolicy,
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
) -> Payload {
    let inst = match order_instance(layers, k, sync) {
        Ok(inst) => inst,
        Err(e) => return Payload::error(e.to_string()),
    };
    // The heuristic tier skips the search entirely: a zero-node budget
    // reports the static certified bracket.
    let max_nodes = match tier {
        Tier::Heuristic => 0,
        _ => budget.unwrap_or(DEFAULT_CERT_NODES),
    };
    let mut cert_budget = ooo_cert::Budget::nodes(max_nodes);
    if let Some(d) = deadline {
        cert_budget = cert_budget.with_deadline(d);
    }
    match ooo_cert::certify_order(&inst.graph, &inst.order, &inst.cost, policy, &cert_budget) {
        Ok((_, solved)) => {
            let c = &solved.certificate;
            ok(
                tier,
                obj([
                    ("name", inst.name.into()),
                    ("kind", "cert".into()),
                    ("cert_status", c.status().into()),
                    (
                        "baseline_makespan",
                        Value::Num(c.baseline_makespan() as f64),
                    ),
                    ("best_makespan", Value::Num(c.best_makespan() as f64)),
                    ("lower_bound", Value::Num(solved.lower_bound as f64)),
                    ("optimal", Value::Bool(solved.is_optimal())),
                    ("nodes", Value::Num(solved.nodes as f64)),
                ]),
            )
        }
        Err(e) => Payload::error(e.to_string()),
    }
}

/// Executes one compute command at `tier`. Control commands never
/// reach this function.
///
/// The `fault` directive and `attempt` number implement the
/// deterministic chaos contract: `panic` fires on every attempt,
/// `flaky` only on the first (so a retry succeeds).
pub fn handle(
    cmd: &Command,
    tier: Tier,
    budget: Option<u64>,
    deadline: Option<Instant>,
    fault: Option<FaultDirective>,
    memory_cap: Option<u64>,
    attempt: usize,
) -> Payload {
    match fault {
        Some(FaultDirective::Panic) => panic!("injected fault: worker panic"),
        Some(FaultDirective::Flaky) if attempt == 0 => {
            panic!("injected fault: flaky worker panic")
        }
        _ => {}
    }
    let opts = || tune_opts(tier, budget, deadline, memory_cap);
    match cmd {
        Command::Order {
            layers,
            k,
            sync,
            policy,
        } => tuned_payload(tier, order_job(*layers, *k, *sync, *policy, &opts())),
        Command::Bundle {
            bundle,
            schedule,
            policy,
            ..
        } => handle_bundle(bundle, schedule.as_deref(), *policy, tier, &opts()),
        Command::Pipeline {
            layers,
            devices,
            strategy,
            group,
        } => {
            // The wire protocol names strategies by their wire name.
            let r = pipeline_job(*layers, *devices, *strategy, *group, &opts());
            let r = r.map(|o| Outcome {
                name: strategy_name(*strategy).to_string(),
                ..o
            });
            tuned_payload(tier, r)
        }
        Command::Cert {
            layers,
            k,
            sync,
            policy,
        } => handle_cert(*layers, *k, *sync, *policy, tier, budget, deadline),
        Command::Hold | Command::Release | Command::Stats => {
            Payload::error("control command routed to a compute handler")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_handler_serves_all_tiers_deterministically() {
        for tier in [Tier::Full, Tier::Greedy, Tier::Heuristic] {
            let cmd = Command::Order {
                layers: 4,
                k: 1,
                sync: 3,
                policy: CommPolicy::PriorityByLayer,
            };
            let a = handle(&cmd, tier, None, None, None, None, 0);
            let b = handle(&cmd, tier, None, None, None, None, 0);
            assert_eq!(a.body, b.body, "tier {tier:?}");
            assert_eq!(a.status, Status::Ok);
        }
    }

    #[test]
    fn capped_order_requests_report_the_winner_peak() {
        let cmd = Command::Order {
            layers: 6,
            k: 0,
            sync: 3,
            policy: CommPolicy::PriorityByLayer,
        };
        // Uncapped responses carry null peak/cap fields.
        let free = handle(&cmd, Tier::Full, None, None, None, None, 0);
        assert_eq!(free.status, Status::Ok);
        assert!(free.body.contains("\"peak\":null"), "{}", free.body);
        assert!(free.body.contains("\"cap_met\":null"), "{}", free.body);
        // A generous cap is met and the exact ledger peak is reported.
        let capped = handle(&cmd, Tier::Full, None, None, None, Some(1 << 30), 0);
        assert_eq!(capped.status, Status::Ok, "{}", capped.body);
        assert!(capped.body.contains("\"cap_met\":true"), "{}", capped.body);
        assert!(!capped.body.contains("\"peak\":null"), "{}", capped.body);
        // Deterministic under a cap, like every other request.
        let again = handle(&cmd, Tier::Full, None, None, None, Some(1 << 30), 0);
        assert_eq!(capped.body, again.body);
    }

    #[test]
    fn cert_handler_reports_certificates() {
        let cmd = Command::Cert {
            layers: 3,
            k: 1,
            sync: 2,
            policy: CommPolicy::FifoCompletion,
        };
        let p = handle(&cmd, Tier::Full, None, None, None, None, 0);
        assert_eq!(p.status, Status::Ok);
        assert!(p.body.contains("cert_status"), "{}", p.body);
        // Heuristic tier degrades to the static bracket but still
        // answers.
        let h = handle(&cmd, Tier::Heuristic, None, None, None, None, 0);
        assert_eq!(h.status, Status::Ok);
    }

    #[test]
    fn flaky_fault_panics_only_on_the_first_attempt() {
        let cmd = Command::Order {
            layers: 3,
            k: 0,
            sync: 3,
            policy: CommPolicy::PriorityByLayer,
        };
        let caught = std::panic::catch_unwind(|| {
            handle(
                &cmd,
                Tier::Heuristic,
                None,
                None,
                Some(FaultDirective::Flaky),
                None,
                0,
            )
        });
        assert!(caught.is_err());
        let retried = handle(
            &cmd,
            Tier::Heuristic,
            None,
            None,
            Some(FaultDirective::Flaky),
            None,
            1,
        );
        assert_eq!(retried.status, Status::Ok);
    }
}
