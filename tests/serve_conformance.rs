//! Stream-level conformance for the `ooo-serve` daemon, driven by the
//! seeded traffic traces from `ooo_faults::serve`.
//!
//! Every trace is replayed through the in-process daemon twice and the
//! two response streams are compared byte for byte. On top of that,
//! each stream is checked against the protocol invariants:
//!
//! * exactly one response per request line — none lost, none
//!   duplicated (ids are unique per trace and each must come back
//!   exactly once);
//! * every response is valid JSON with a recognized `status`;
//! * hostile request lines draw `"id":null` structured errors, never a
//!   panic, never a desynchronized stream;
//! * hold-gated overload blocks bounce exactly the predicted number of
//!   requests with `{"status":"overloaded"}`;
//! * caching is invisible on the wire: the same trace served with the
//!   cache disabled produces the identical byte stream;
//! * a replayed request is served from the cache every time after the
//!   first, and plain workloads answer every request `ok`.

use ooo_backprop::core::json::Value;
use ooo_backprop::serve::{serve, ServeConfig, ServeSummary};
use ooo_faults::serve::{generate_trace, ServeTrace, TraceConfig};
use std::collections::BTreeMap;
use std::io::Cursor;

fn run(input: &str, config: &ServeConfig) -> (String, ServeSummary) {
    let mut out = Vec::new();
    let summary = serve(Cursor::new(input.as_bytes()), &mut out, config).expect("serve runs");
    (String::from_utf8(out).expect("utf8 output"), summary)
}

const STATUSES: [&str; 5] = ["ok", "error", "unsafe", "timeout", "overloaded"];

/// The summary fields that are functions of the response stream alone.
/// (`respawned` is bookkeeping about pool internals: how many workers
/// were replaced depends on when the admission loop observed a death,
/// which is timing, not wire state.)
fn wire_counts(sum: &ServeSummary) -> [u64; 7] {
    [
        sum.responses,
        sum.ok,
        sum.errors,
        sum.unsafe_inputs,
        sum.timeouts,
        sum.overloaded,
        sum.cache_served,
    ]
}

/// Asserts the per-stream invariants of `out` against its trace.
fn assert_stream_invariants(trace: &ServeTrace, out: &str, summary: &ServeSummary) {
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.len(),
        trace.expected_responses(),
        "seed {}: one response per request line",
        trace.seed
    );
    assert_eq!(summary.responses as usize, lines.len());

    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut nulls = 0usize;
    for line in &lines {
        let v = Value::parse(line)
            .unwrap_or_else(|e| panic!("seed {}: unparsable response {line:?}: {e}", trace.seed));
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("seed {}: response without status: {line}", trace.seed));
        assert!(
            STATUSES.contains(&status),
            "seed {}: unknown status {status:?}",
            trace.seed
        );
        match v.get("id") {
            Some(Value::Str(id)) => *seen.entry(id.clone()).or_insert(0) += 1,
            Some(Value::Null) | None => nulls += 1,
            Some(other) => panic!("seed {}: unexpected id {other:?}", trace.seed),
        }
    }
    assert_eq!(
        nulls, trace.hostile,
        "seed {}: hostile lines answer with id null",
        trace.seed
    );
    for id in &trace.ids {
        assert_eq!(
            seen.get(id).copied().unwrap_or(0),
            1,
            "seed {}: id {id} must come back exactly once",
            trace.seed
        );
    }
    assert_eq!(
        seen.len(),
        trace.ids.len(),
        "seed {}: no invented ids",
        trace.seed
    );
}

/// Seeds 1–30 of mixed chaos traffic — orders, certs, pipelines,
/// duplicates, hostile lines, panics, flaky workers, kills, and
/// zero-deadline timeouts — each replayed twice, byte-identical.
#[test]
fn chaos_traces_replay_byte_identical_seeds_1_to_30() {
    let cfg = TraceConfig {
        len: 12,
        workers: 2,
        queue: 64,
        overload: false,
        chaos: true,
    };
    let serve_cfg = ServeConfig {
        workers: 2,
        queue: 64,
        cache: 64,
        ..ServeConfig::default()
    };
    for seed in 1..=30u64 {
        let trace = generate_trace(seed, &cfg);
        let input = trace.input();
        let (first, sum1) = run(&input, &serve_cfg);
        let (second, sum2) = run(&input, &serve_cfg);
        assert_eq!(
            first, second,
            "seed {seed}: response stream not deterministic"
        );
        assert_eq!(
            wire_counts(&sum1),
            wire_counts(&sum2),
            "seed {seed}: summaries diverged"
        );
        assert_stream_invariants(&trace, &first, &sum1);
        // The queue is deeper than the trace, so nothing may bounce.
        assert_eq!(sum1.overloaded, 0, "seed {seed}");
    }
}

/// Hold-gated overload: with every worker parked, the queue fills
/// exactly and the surplus bounces — the same two requests, every run.
#[test]
fn overload_blocks_bounce_exactly_the_surplus() {
    for seed in 1..=5u64 {
        // The queue must be at least as deep as the mixed prefix:
        // until the holds park every worker, up to `len` mixed jobs
        // can be outstanding at once, and only the hold-gated block
        // may overflow.
        let cfg = TraceConfig {
            len: 6,
            workers: 2,
            queue: 6,
            overload: true,
            chaos: false,
        };
        let serve_cfg = ServeConfig {
            workers: cfg.workers,
            queue: cfg.queue,
            cache: 64,
            ..ServeConfig::default()
        };
        let trace = generate_trace(seed, &cfg);
        let input = trace.input();
        let (first, sum1) = run(&input, &serve_cfg);
        let (second, _) = run(&input, &serve_cfg);
        assert_eq!(
            first, second,
            "seed {seed}: overload stream not deterministic"
        );
        assert_stream_invariants(&trace, &first, &sum1);
        assert_eq!(
            sum1.overloaded as usize, trace.expect_overloaded,
            "seed {seed}: exact backpressure"
        );
    }
}

/// The cache must be invisible on the wire: serving the same trace
/// with caching disabled yields the identical byte stream, while the
/// cached run actually serves from the cache.
#[test]
fn cache_hits_are_byte_identical_to_cold_misses() {
    let trace = generate_trace(
        17,
        &TraceConfig {
            len: 16,
            workers: 2,
            queue: 64,
            overload: false,
            chaos: false,
        },
    );
    // Stats responses deliberately report cache counters, so they are
    // the one place the cache is *supposed* to show; drop them and
    // compare the work responses.
    let mut input: String = trace
        .lines
        .iter()
        .filter(|l| !l.contains("\"cmd\":\"stats\""))
        .map(|l| format!("{l}\n"))
        .collect();
    if input.is_empty() {
        input.push('\n');
    }
    let cached_cfg = ServeConfig {
        workers: 2,
        queue: 64,
        cache: 64,
        ..ServeConfig::default()
    };
    let cold_cfg = ServeConfig {
        cache: 0,
        ..cached_cfg.clone()
    };
    let (cached, cached_sum) = run(&input, &cached_cfg);
    let (cold, cold_sum) = run(&input, &cold_cfg);
    assert_eq!(cached, cold, "cache visibly changed the response stream");
    assert!(
        cached_sum.cache_served > 0,
        "trace never hit the cache: {cached_sum:?}"
    );
    assert_eq!(cold_sum.cache_served, 0);
}

/// Worker crashes (kill directives) reap threads mid-stream; the pool
/// respawns and every response is still accounted for.
#[test]
fn worker_crashes_lose_no_responses() {
    let mut input = String::new();
    for i in 0..3 {
        input.push_str(&format!(
            "{{\"id\":\"k{i}\",\"cmd\":\"order\",\"layers\":3,\"tier\":\"heuristic\",\"fault\":\"kill\"}}\n"
        ));
    }
    for i in 0..3 {
        input.push_str(&format!(
            "{{\"id\":\"n{i}\",\"cmd\":\"order\",\"layers\":{},\"tier\":\"heuristic\"}}\n",
            4 + i
        ));
    }
    let config = ServeConfig {
        workers: 2,
        queue: 64,
        cache: 0,
        ..ServeConfig::default()
    };
    let (first, sum1) = run(&input, &config);
    let (second, sum2) = run(&input, &config);
    assert_eq!(first, second, "crash recovery not deterministic");
    assert_eq!(sum1.responses, 6);
    assert_eq!(sum1.ok, 6, "{first}");
    assert_eq!(wire_counts(&sum1), wire_counts(&sum2));
}

/// One full-tier tune replayed under fresh ids: the first request runs
/// the tuner, and every one of the N − 1 replays is served from the
/// cache (a hit, or a waiter coalesced onto the in-flight tune).
#[test]
fn replayed_full_tier_request_is_cached_n_minus_1_times() {
    let tune = "{\"id\":0,\"cmd\":\"order\",\"layers\":6,\"k\":2,\"sync\":3,\"tier\":\"full\"}";
    let n = 9;
    let input: String = (0..n)
        .map(|i| tune.replacen("\"id\":0", &format!("\"id\":{i}"), 1) + "\n")
        .collect();
    let config = ServeConfig {
        workers: 4,
        queue: 64,
        cache: 64,
        ..ServeConfig::default()
    };
    let (out, sum) = run(&input, &config);
    assert_eq!(sum.responses, n, "{out}");
    assert_eq!(sum.ok, n, "{out}");
    assert_eq!(
        sum.cache_served,
        n - 1,
        "every replay must come from the cache"
    );
}

/// Every request of a mixed workload is answered `ok`: a burst of
/// distinct heuristic-tier orders with the cache off, and the same
/// instance at each degradation tier.
#[test]
fn every_scenario_answers_every_request_ok() {
    let mut burst = String::new();
    for i in 0..24 {
        burst.push_str(&format!(
            "{{\"id\":{i},\"cmd\":\"order\",\"layers\":{},\"k\":{},\"sync\":{},\"tier\":\"heuristic\"}}\n",
            3 + i % 4,
            i % 3,
            i % 7
        ));
    }
    let mut scenarios = vec![("burst".to_string(), burst, 24u64)];
    for tier in ["full", "greedy", "heuristic"] {
        let input: String = (0..2)
            .map(|i| {
                format!(
                    "{{\"id\":{i},\"cmd\":\"order\",\"layers\":6,\"k\":1,\"sync\":{},\"tier\":\"{tier}\"}}\n",
                    1 + i
                )
            })
            .collect();
        scenarios.push((format!("tier {tier}"), input, 2));
    }
    let config = ServeConfig {
        workers: 4,
        queue: 64,
        cache: 0,
        ..ServeConfig::default()
    };
    for (name, input, requests) in scenarios {
        let (out, sum) = run(&input, &config);
        assert_eq!(sum.responses, requests, "{name}: {out}");
        assert_eq!(sum.ok, requests, "{name}: {out}");
    }
}
