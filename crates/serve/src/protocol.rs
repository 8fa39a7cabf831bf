//! The line-delimited JSON request/response protocol.
//!
//! One request per input line, one response per input line, always.
//! A request is a JSON object:
//!
//! ```json
//! {"id": 7, "cmd": "order", "layers": 8, "k": 2, "sync": 3}
//! ```
//!
//! `cmd` selects the work: the compute commands `order`, `bundle`,
//! `pipeline`, and `cert` mirror the one-shot CLIs, while the control
//! commands `hold`, `release`, and `stats` exist for deterministic
//! testing and introspection. Common optional fields:
//!
//! - `id` — any JSON value, echoed verbatim in the response (`null`
//!   when absent). The daemon never interprets it.
//! - `budget` — logical work budget (tuner neighborhood scans /
//!   branch-and-bound nodes). Deterministic: same budget, same result.
//! - `timeout_ms` — wall-clock deadline from admission; expired
//!   requests answer `{"status":"timeout"}` without starting, and
//!   in-flight work past the deadline returns best-so-far.
//! - `tier` — explicit degradation tier (`full` / `greedy` /
//!   `heuristic`), overriding the budget- and load-based selection.
//! - `memory_cap_bytes` — static-ledger peak cap for the tuning
//!   commands: the search minimizes makespan subject to
//!   `peak <= cap` ([`ooo_tune::TuneOptions::memory_cap`]) and the
//!   response reports the winner's exact peak. Ignored by `cert`.
//! - `fault` — deterministic fault injection for the chaos harness:
//!   `panic` (worker panics on every attempt), `flaky` (panics on the
//!   first attempt, succeeds on retry), `kill` (worker thread dies
//!   after answering; the pool respawns it).
//!
//! Responses are single-line objects led by `id` then `status`:
//! `ok`, `error`, `unsafe`, `timeout`, or `overloaded`.

use ooo_core::datapar::CommPolicy;
use ooo_core::export::ScheduleBundle;
use ooo_core::json::{ParseLimits, Value};
use ooo_core::pipeline::Strategy;
use ooo_core::reverse_k::MAX_SYNC;
use ooo_core::SimTime;

/// Per-request resource limits, enforced during admission — the byte
/// cap before the line is even buffered, the structural caps while
/// parsing, the layer cap before any graph is allocated.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum request line length in bytes.
    pub max_request_bytes: usize,
    /// Maximum layer count any request may name.
    pub max_layers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_bytes: 1 << 20,
            max_layers: ooo_core::graph::MAX_LAYERS,
        }
    }
}

impl Limits {
    /// The JSON parser limits implied by the request limits.
    pub fn parse_limits(&self) -> ParseLimits {
        ParseLimits {
            max_bytes: self.max_request_bytes,
            ..ParseLimits::default()
        }
    }
}

/// Degradation tier of one request: what the service still promises
/// when deadlines shrink or the queue is hot. Every tier returns a
/// valid, certified schedule — only the search effort degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Full tuning: greedy descent plus seeded restarts.
    Full,
    /// Greedy-only: descent without restarts.
    Greedy,
    /// Heuristic-only: the paper's heuristic baseline, certified but
    /// not searched (a zero-scan tune).
    Heuristic,
}

impl Tier {
    /// Lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Greedy => "greedy",
            Tier::Heuristic => "heuristic",
        }
    }

    /// One tier down (saturating): the degradation step applied when
    /// the queue is hot.
    pub fn degraded(self) -> Tier {
        match self {
            Tier::Full => Tier::Greedy,
            Tier::Greedy | Tier::Heuristic => Tier::Heuristic,
        }
    }
}

/// Deterministic fault directives for the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// The worker panics on every attempt; retries exhaust and the
    /// request answers a structured error.
    Panic,
    /// The worker panics on the first attempt only — proves the
    /// retry-with-backoff path end to end.
    Flaky,
    /// The worker thread exits after answering; the pool respawns a
    /// replacement at the next admission.
    Kill,
}

/// A parsed compute or control command.
#[derive(Debug, Clone)]
pub enum Command {
    /// Tune a reverse-first-k backward order (mirrors `ooo-tune order`).
    Order {
        /// Layer count of the data-parallel graph.
        layers: usize,
        /// Initial reverse-first-k depth.
        k: usize,
        /// `S[dW]` duration under the uniform cost table.
        sync: SimTime,
        /// Link service policy.
        policy: CommPolicy,
    },
    /// Tune every order/schedule of an inline bundle (mirrors
    /// `ooo-tune bundle`, except the bundle travels in the request).
    Bundle {
        /// The parsed bundle.
        bundle: ScheduleBundle,
        /// Optional single order/schedule name to tune.
        schedule: Option<String>,
        /// Link service policy for data-parallel orders.
        policy: CommPolicy,
        /// Canonical compact encoding of the bundle (cache keying).
        canonical: String,
    },
    /// Tune a pipeline strategy (mirrors `ooo-tune pipeline`).
    Pipeline {
        /// Layer count.
        layers: usize,
        /// Device count.
        devices: usize,
        /// Pipeline strategy.
        strategy: Strategy,
        /// Modulo allocation group.
        group: usize,
    },
    /// Exact optimality certification of a reverse-first-k realization
    /// (mirrors `ooo-cert order`).
    Cert {
        /// Layer count of the data-parallel graph.
        layers: usize,
        /// Reverse-first-k depth.
        k: usize,
        /// `S[dW]` duration under the uniform cost table.
        sync: SimTime,
        /// Link service policy.
        policy: CommPolicy,
    },
    /// Control: occupy one worker until `release` (deterministic
    /// overload testing). Acked with `{"held":true}`.
    Hold,
    /// Control: release every held worker. Handled inline by the
    /// admission loop, so it cannot be stuck behind a full queue.
    Release,
    /// Control: response-stream counters as of this response's
    /// position in the stream (deterministic by construction).
    Stats,
}

/// A fully parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim into the response.
    pub id: Value,
    /// The command.
    pub cmd: Command,
    /// Logical work budget.
    pub budget: Option<u64>,
    /// Wall-clock deadline in milliseconds from admission.
    pub timeout_ms: Option<u64>,
    /// Explicit tier override.
    pub tier: Option<Tier>,
    /// Deterministic fault injection.
    pub fault: Option<FaultDirective>,
    /// Static-ledger peak cap in bytes for the tuning commands.
    pub memory_cap: Option<u64>,
}

/// Response status, used for exit codes and stream statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served.
    Ok,
    /// Malformed request, limit violation, or worker failure.
    Error,
    /// The input schedule failed the safety gate.
    Unsafe,
    /// The request's deadline expired before it could start.
    Timeout,
    /// The bounded queue was full: explicit backpressure.
    Overloaded,
}

impl Status {
    /// Lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Unsafe => "unsafe",
            Status::Timeout => "timeout",
            Status::Overloaded => "overloaded",
        }
    }
}

/// The id-independent part of one response: the status plus the
/// compact serialization of the response object *without* its `id`
/// field. Identical payloads render to byte-identical lines for any
/// fixed id — which is what makes cache hits indistinguishable from
/// cold misses on the wire.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Status, for statistics and oneshot exit codes.
    pub status: Status,
    /// `{"status":...}` — compact JSON without the `id` field.
    pub body: String,
}

impl Payload {
    /// Builds a payload from `(key, value)` pairs; `status` is always
    /// serialized first.
    pub fn new<const N: usize>(status: Status, fields: [(&str, Value); N]) -> Payload {
        let mut pairs = vec![(
            "status".to_string(),
            Value::Str(status.as_str().to_string()),
        )];
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        Payload {
            status,
            body: Value::Obj(pairs).to_compact(),
        }
    }

    /// A bare-status payload.
    pub fn status_only(status: Status) -> Payload {
        Payload::new(status, [])
    }

    /// A structured error.
    pub fn error(message: impl Into<String>) -> Payload {
        Payload::new(Status::Error, [("error", Value::Str(message.into()))])
    }

    /// Renders the full response line for `id` (no trailing newline).
    pub fn render(&self, id: &Value) -> String {
        debug_assert!(self.body.starts_with('{') && self.body.len() > 2);
        format!("{{\"id\":{},{}", id.to_compact(), &self.body[1..])
    }
}

fn policy_of(v: Option<&Value>) -> Result<CommPolicy, String> {
    match v {
        None => Ok(CommPolicy::PriorityByLayer),
        Some(Value::Str(s)) => CommPolicy::parse(s),
        Some(_) => Err("policy must be a string".to_string()),
    }
}

fn strategy_of(v: Option<&Value>) -> Result<Strategy, String> {
    let Some(Value::Str(s)) = v else {
        return Err("pipeline requests need a string \"strategy\"".to_string());
    };
    Strategy::parse(s)
}

/// Stable wire name of a strategy (inverse of the parser).
pub fn strategy_name(strategy: Strategy) -> &'static str {
    strategy.wire_name()
}

fn usize_field(v: &Value, key: &str, default: Option<usize>, max: usize) -> Result<usize, String> {
    match v.get(key) {
        None => default.ok_or_else(|| format!("missing required field {key:?}")),
        Some(n) => {
            let n = n
                .as_usize()
                .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
            if n > max {
                return Err(format!("{key} is {n}, above the limit of {max}"));
            }
            Ok(n)
        }
    }
}

fn u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

/// Parses one request line under `limits`.
///
/// # Errors
///
/// A human-readable message destined for a structured `error`
/// response; parsing never panics on hostile input.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, String> {
    let v = Value::parse_with_limits(line, &limits.parse_limits())
        .map_err(|e| format!("bad request: {e}"))?;
    if v.as_obj().is_none() {
        return Err("bad request: a request must be a JSON object".to_string());
    }
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let cmd_name = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "bad request: missing string \"cmd\"".to_string())?;

    let tier = match v.get("tier") {
        None => None,
        Some(Value::Str(s)) => Some(match s.as_str() {
            "full" => Tier::Full,
            "greedy" => Tier::Greedy,
            "heuristic" => Tier::Heuristic,
            other => return Err(format!("unknown tier: {other:?}")),
        }),
        Some(_) => return Err("tier must be a string".to_string()),
    };
    let fault = match v.get("fault") {
        None => None,
        Some(Value::Str(s)) => Some(match s.as_str() {
            "panic" => FaultDirective::Panic,
            "flaky" => FaultDirective::Flaky,
            "kill" => FaultDirective::Kill,
            other => return Err(format!("unknown fault directive: {other:?}")),
        }),
        Some(_) => return Err("fault must be a string".to_string()),
    };

    let cmd = match cmd_name {
        "order" | "cert" => {
            let layers = usize_field(&v, "layers", None, limits.max_layers)?;
            if layers == 0 {
                return Err("layers must be at least 1".to_string());
            }
            let k = usize_field(&v, "k", Some(0), limits.max_layers)?;
            if k > layers {
                return Err(format!("k is {k}, above layers {layers}"));
            }
            let sync = usize_field(&v, "sync", Some(3), MAX_SYNC as usize)? as SimTime;
            let policy = policy_of(v.get("policy"))?;
            if cmd_name == "order" {
                Command::Order {
                    layers,
                    k,
                    sync,
                    policy,
                }
            } else {
                Command::Cert {
                    layers,
                    k,
                    sync,
                    policy,
                }
            }
        }
        "bundle" => {
            let inline = v
                .get("bundle")
                .ok_or_else(|| "bundle requests need an inline \"bundle\" object".to_string())?;
            let canonical = inline.to_compact();
            let bundle = ScheduleBundle::from_json_lenient(&canonical)
                .map_err(|e| format!("bad bundle: {e}"))?;
            if bundle.graph.layers > limits.max_layers {
                return Err(format!(
                    "bundle names {} layers, above the limit of {}",
                    bundle.graph.layers, limits.max_layers
                ));
            }
            let schedule = match v.get("schedule") {
                None => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("schedule must be a string".to_string()),
            };
            Command::Bundle {
                bundle,
                schedule,
                policy: policy_of(v.get("policy"))?,
                canonical,
            }
        }
        "pipeline" => {
            let layers = usize_field(&v, "layers", None, limits.max_layers)?;
            let devices = usize_field(&v, "devices", None, limits.max_layers)?;
            if layers == 0 || devices == 0 {
                return Err("layers and devices must be at least 1".to_string());
            }
            let group = usize_field(&v, "group", Some(1), limits.max_layers)?;
            if group == 0 {
                return Err("group must be at least 1".to_string());
            }
            Command::Pipeline {
                layers,
                devices,
                strategy: strategy_of(v.get("strategy"))?,
                group,
            }
        }
        "hold" => Command::Hold,
        "release" => Command::Release,
        "stats" => Command::Stats,
        other => return Err(format!("unknown cmd: {other:?}")),
    };

    Ok(Request {
        id,
        cmd,
        budget: u64_field(&v, "budget")?,
        timeout_ms: u64_field(&v, "timeout_ms")?,
        tier,
        fault,
        memory_cap: u64_field(&v, "memory_cap_bytes")?,
    })
}

impl Request {
    /// The canonical content key this request's *work* is addressed by
    /// in the schedule cache, or `None` when the request is not
    /// cacheable: control commands (no work), fault directives (the
    /// response describes the fault, not the work), and wall-clock
    /// deadlines (the result depends on timing, and a cached response
    /// must be byte-identical to a cold one).
    ///
    /// The resolved `tier` is part of the key — a degraded answer must
    /// never satisfy a full-tier request. The `id` is not — two clients
    /// asking for the same work share one entry.
    pub fn cache_key(&self, tier: Tier) -> Option<String> {
        if self.fault.is_some() || self.timeout_ms.is_some() {
            return None;
        }
        let budget = match self.budget {
            Some(b) => b.to_string(),
            None => "none".to_string(),
        };
        let mcap = match self.memory_cap {
            Some(c) => c.to_string(),
            None => "none".to_string(),
        };
        let work = match &self.cmd {
            Command::Order {
                layers,
                k,
                sync,
                policy,
            } => format!(
                "order:v1:layers={layers};k={k};sync={sync};policy={}",
                policy.wire_name()
            ),
            Command::Cert {
                layers,
                k,
                sync,
                policy,
            } => format!(
                "cert:v1:layers={layers};k={k};sync={sync};policy={}",
                policy.wire_name()
            ),
            Command::Pipeline {
                layers,
                devices,
                strategy,
                group,
            } => format!(
                "pipeline:v1:layers={layers};devices={devices};strategy={};group={group}",
                strategy_name(*strategy)
            ),
            Command::Bundle {
                schedule,
                policy,
                canonical,
                ..
            } => format!(
                "bundle:v1:h={:016x};schedule={};policy={}",
                ooo_core::hash::fnv64(canonical.as_bytes()),
                schedule.as_deref().unwrap_or("*"),
                policy.wire_name()
            ),
            Command::Hold | Command::Release | Command::Stats => return None,
        };
        // A capped answer must never satisfy an uncapped request (or
        // one with a different cap) — the cap is part of the work.
        Some(format!(
            "{work};tier={};budget={budget};mcap={mcap}",
            tier.as_str()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_order_request() {
        let r = parse_request(r#"{"id":1,"cmd":"order","layers":4}"#, &Limits::default()).unwrap();
        assert_eq!(r.id, Value::Num(1.0));
        match r.cmd {
            Command::Order {
                layers, k, sync, ..
            } => {
                assert_eq!((layers, k, sync), (4, 0, 3));
            }
            other => panic!("unexpected cmd {other:?}"),
        }
    }

    #[test]
    fn hostile_lines_error_without_panicking() {
        let limits = Limits::default();
        for bad in [
            "",
            "not json",
            "[]",
            "{\"cmd\":42}",
            "{\"cmd\":\"order\"}",
            "{\"cmd\":\"order\",\"layers\":0}",
            "{\"cmd\":\"order\",\"layers\":99999999}",
            "{\"cmd\":\"order\",\"layers\":4,\"k\":9}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"pipeline\",\"layers\":2,\"devices\":2,\"strategy\":\"bogus\"}",
            "{\"cmd\":\"bundle\"}",
            "{\"cmd\":\"order\",\"layers\":4,\"fault\":\"meteor\"}",
        ] {
            assert!(parse_request(bad, &limits).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn cache_key_excludes_id_and_faulty_or_timed_requests() {
        let limits = Limits::default();
        let a = parse_request(r#"{"id":1,"cmd":"order","layers":4}"#, &limits).unwrap();
        let b = parse_request(r#"{"id":"two","cmd":"order","layers":4}"#, &limits).unwrap();
        assert_eq!(a.cache_key(Tier::Full), b.cache_key(Tier::Full));
        assert_ne!(a.cache_key(Tier::Full), a.cache_key(Tier::Greedy));
        let f = parse_request(r#"{"cmd":"order","layers":4,"fault":"panic"}"#, &limits).unwrap();
        assert_eq!(f.cache_key(Tier::Full), None);
        let t = parse_request(r#"{"cmd":"order","layers":4,"timeout_ms":5}"#, &limits).unwrap();
        assert_eq!(t.cache_key(Tier::Full), None);
    }

    #[test]
    fn a_strategy_label_is_the_same_request_as_its_wire_name() {
        let limits = Limits::default();
        let line =
            |s: &str| format!(r#"{{"cmd":"pipeline","layers":4,"devices":2,"strategy":"{s}"}}"#);
        let wire = parse_request(&line("pipe2"), &limits).unwrap();
        let label = parse_request(&line("ooo-pipe2"), &limits).unwrap();
        assert_eq!(format!("{label:?}"), format!("{wire:?}"));
        assert_eq!(label.cache_key(Tier::Full), wire.cache_key(Tier::Full));
    }

    #[test]
    fn memory_cap_is_parsed_and_keys_the_cache() {
        let limits = Limits::default();
        let capped = parse_request(
            r#"{"cmd":"order","layers":4,"memory_cap_bytes":64}"#,
            &limits,
        )
        .unwrap();
        assert_eq!(capped.memory_cap, Some(64));
        let uncapped = parse_request(r#"{"cmd":"order","layers":4}"#, &limits).unwrap();
        assert_eq!(uncapped.memory_cap, None);
        // A capped answer must not be served from an uncapped entry.
        assert_ne!(capped.cache_key(Tier::Full), uncapped.cache_key(Tier::Full));
        assert!(parse_request(
            r#"{"cmd":"order","layers":4,"memory_cap_bytes":"lots"}"#,
            &limits
        )
        .is_err());
    }

    #[test]
    fn payload_renders_with_id_spliced_first() {
        let p = Payload::new(Status::Ok, [("answer", 42u64.into())]);
        assert_eq!(
            p.render(&Value::Str("x".into())),
            r#"{"id":"x","status":"ok","answer":42}"#
        );
        assert_eq!(
            p.render(&Value::Null),
            r#"{"id":null,"status":"ok","answer":42}"#
        );
    }
}
