//! Deterministic traffic traces for the `ooo-serve` daemon.
//!
//! The chaos harness for the serving layer works at the protocol
//! level: a seeded generator produces a request stream mixing normal
//! work, duplicate requests (cache coalescing), hostile lines, fault
//! directives (`panic`/`flaky`/`kill`), zero-deadline timeouts, and —
//! when the pool geometry is known — a hold-gated overload block whose
//! queue overflow is exact. The conformance suite replays each trace
//! through the daemon twice and asserts the stream-level invariants:
//!
//! * one response per request line — none lost, none duplicated;
//! * every response is valid JSON with a recognized `status`;
//! * the two response streams are byte-identical.
//!
//! Everything here is derived from a seeded [`StdRng`], like the
//! simulator campaigns in [`crate::fault`]: same seed, same trace,
//! always.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool geometry and mix switches for one generated trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of mixed-traffic request lines (before the optional
    /// overload block).
    pub len: usize,
    /// Daemon worker count (must match the serving config for the
    /// overload block to be exact).
    pub workers: usize,
    /// Daemon queue depth (same caveat).
    pub queue: usize,
    /// Append a hold-gated overload block: all workers held, the queue
    /// filled exactly, one request bounced with `overloaded`.
    pub overload: bool,
    /// Include fault directives (worker panic / flaky / kill) in the
    /// mix.
    pub chaos: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            len: 12,
            workers: 2,
            queue: 8,
            overload: false,
            chaos: true,
        }
    }
}

/// A generated request stream plus the bookkeeping the conformance
/// harness asserts against.
#[derive(Debug, Clone)]
pub struct ServeTrace {
    /// The generator seed.
    pub seed: u64,
    /// Request lines, newline-free (join with `\n`).
    pub lines: Vec<String>,
    /// The ids issued to well-formed requests, in order. Responses to
    /// these must come back exactly once each.
    pub ids: Vec<String>,
    /// Number of hostile lines: their responses echo `"id":null`.
    pub hostile: usize,
    /// Number of requests expected to answer `overloaded`, all from
    /// the overload block. Exact only when the daemon queue is at
    /// least as deep as the mixed prefix ([`TraceConfig::len`]) — the
    /// ungated prefix must never overflow on its own.
    pub expect_overloaded: usize,
}

impl ServeTrace {
    /// The full daemon input: one request per line, trailing newline.
    pub fn input(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }

    /// Total responses the daemon must emit for this trace.
    pub fn expected_responses(&self) -> usize {
        self.lines.len()
    }
}

/// Hostile lines: unparsable, structurally wrong, or over-limit — each
/// must draw a structured error, never a panic, and never desync the
/// one-response-per-line protocol. The CLI parser's hostile-argument
/// test draws them as flag values too.
pub const HOSTILE: [&str; 8] = [
    "",
    "not json at all",
    "[1,2,3]",
    "{\"cmd\":42}",
    "{\"cmd\":\"order\"}",
    "{\"cmd\":\"order\",\"layers\":0}",
    "{\"cmd\":\"order\",\"layers\":4,\"k\":99}",
    "{\"cmd\":\"pipeline\",\"layers\":4,\"devices\":2,\"strategy\":\"warp\"}",
];

const STRATEGIES: [&str; 4] = ["gpipe", "pipedream", "dapple", "pipe2"];
const TIERS: [&str; 3] = ["heuristic", "heuristic", "greedy"];

/// Generates the seeded request trace for `cfg`. Deterministic: the
/// same `(seed, cfg)` yields the same trace.
pub fn generate_trace(seed: u64, cfg: &TraceConfig) -> ServeTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let mut lines = Vec::new();
    let mut ids = Vec::new();
    let mut hostile = 0usize;
    let mut cacheable: Vec<String> = Vec::new();

    let push = |lines: &mut Vec<String>, ids: &mut Vec<String>, i: usize, body: String| {
        let id = format!("s{seed}-{i}");
        lines.push(format!("{{\"id\":\"{id}\",{body}}}"));
        ids.push(id);
    };

    for i in 0..cfg.len {
        match i % 8 {
            // Small order tunes at fast tiers.
            0 | 3 => {
                let layers = rng.gen_range(3..7usize);
                let k = rng.gen_range(0..=layers.min(2));
                let tier = TIERS[rng.gen_range(0..TIERS.len())];
                let body = format!(
                    "\"cmd\":\"order\",\"layers\":{layers},\"k\":{k},\"sync\":{},\"tier\":\"{tier}\"",
                    rng.gen_range(0..5usize)
                );
                cacheable.push(body.clone());
                push(&mut lines, &mut ids, i, body);
            }
            // Replay an earlier cacheable request under a fresh id:
            // byte-identical answer, whether hit, coalesced, or cold.
            1 => {
                let body = if cacheable.is_empty() {
                    "\"cmd\":\"order\",\"layers\":4,\"tier\":\"heuristic\"".to_string()
                } else {
                    cacheable[rng.gen_range(0..cacheable.len())].clone()
                };
                push(&mut lines, &mut ids, i, body);
            }
            // Exact certification of tiny graphs.
            2 => {
                let layers = rng.gen_range(3..5usize);
                let body = format!(
                    "\"cmd\":\"cert\",\"layers\":{layers},\"k\":{},\"sync\":{}",
                    rng.gen_range(0..2usize),
                    rng.gen_range(0..3usize)
                );
                push(&mut lines, &mut ids, i, body);
            }
            // Hostile input.
            4 => {
                lines.push(HOSTILE[rng.gen_range(0..HOSTILE.len())].to_string());
                hostile += 1;
            }
            // Fault directives (or more orders when chaos is off).
            5 => {
                let fault = if cfg.chaos {
                    ["flaky", "panic", "kill"][rng.gen_range(0..3)]
                } else {
                    ""
                };
                let mut body = format!(
                    "\"cmd\":\"order\",\"layers\":{},\"tier\":\"heuristic\"",
                    rng.gen_range(3..6usize)
                );
                if !fault.is_empty() {
                    body.push_str(&format!(",\"fault\":\"{fault}\""));
                }
                push(&mut lines, &mut ids, i, body);
            }
            // Deterministic timeout: an already-expired deadline.
            6 => {
                let body = format!(
                    "\"cmd\":\"order\",\"layers\":{},\"timeout_ms\":0",
                    rng.gen_range(3..6usize)
                );
                push(&mut lines, &mut ids, i, body);
            }
            // Pipeline tunes and stream statistics.
            _ => {
                if rng.gen_range(0..2) == 0 {
                    let body = format!(
                        "\"cmd\":\"pipeline\",\"layers\":4,\"devices\":2,\"strategy\":\"{}\",\"tier\":\"greedy\"",
                        STRATEGIES[rng.gen_range(0..STRATEGIES.len())]
                    );
                    push(&mut lines, &mut ids, i, body);
                } else {
                    push(&mut lines, &mut ids, i, "\"cmd\":\"stats\"".to_string());
                }
            }
        }
    }

    let mut expect_overloaded = 0;
    if cfg.overload {
        let base = cfg.len;
        let mut n = 0usize;
        // Park every worker; nothing dequeues until the release.
        for _ in 0..cfg.workers {
            push(
                &mut lines,
                &mut ids,
                base + n,
                "\"cmd\":\"hold\"".to_string(),
            );
            n += 1;
        }
        // Fill the queue exactly, then bounce two. Distinct parameters
        // keep these requests out of each other's cache entries, so
        // every one of them really occupies a queue slot.
        for j in 0..cfg.queue + 2 {
            push(
                &mut lines,
                &mut ids,
                base + n,
                format!(
                    "\"cmd\":\"order\",\"layers\":3,\"sync\":{},\"tier\":\"heuristic\"",
                    100 + j
                ),
            );
            n += 1;
        }
        expect_overloaded = 2;
        push(
            &mut lines,
            &mut ids,
            base + n,
            "\"cmd\":\"release\"".to_string(),
        );
    }

    ServeTrace {
        seed,
        lines,
        ids,
        hostile,
        expect_overloaded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seed_deterministic() {
        let cfg = TraceConfig {
            overload: true,
            ..TraceConfig::default()
        };
        let a = generate_trace(7, &cfg);
        let b = generate_trace(7, &cfg);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.ids, b.ids);
        let c = generate_trace(8, &cfg);
        assert_ne!(a.lines, c.lines, "different seeds must differ");
    }

    #[test]
    fn bookkeeping_matches_the_lines() {
        let cfg = TraceConfig {
            len: 24,
            overload: true,
            ..TraceConfig::default()
        };
        let t = generate_trace(3, &cfg);
        assert_eq!(t.lines.len(), t.ids.len() + t.hostile);
        assert_eq!(t.expected_responses(), t.lines.len());
        assert_eq!(t.expect_overloaded, 2);
        // Ids are unique.
        let mut sorted = t.ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), t.ids.len());
        // The overload block is structured hold* compute* release.
        let tail = &t.lines[t.lines.len() - (cfg.workers + cfg.queue + 3)..];
        assert!(tail[..cfg.workers]
            .iter()
            .all(|l| l.contains("\"cmd\":\"hold\"")));
        assert!(tail.last().unwrap().contains("\"cmd\":\"release\""));
    }

    #[test]
    fn chaos_free_traces_carry_no_fault_directives() {
        let cfg = TraceConfig {
            len: 40,
            chaos: false,
            ..TraceConfig::default()
        };
        let t = generate_trace(11, &cfg);
        assert!(t.lines.iter().all(|l| !l.contains("\"fault\"")));
    }
}
