//! Frozen pre-refactor implementations, kept verbatim as differential
//! oracles.
//!
//! The event loops in [`crate::flows`] and [`crate::commsim`] were
//! rewritten from O(n²) pending-list scans (`pending.remove(0)`,
//! per-chunk filter-and-min) to a sorted arrival cursor plus a ready
//! heap. The rewrites are proven output-identical by the arguments in
//! their respective modules; this module preserves the *original*
//! algorithms so the unit tests can keep checking new against old on
//! arbitrary inputs. Compiled for tests only.

use crate::commsim::{CommCompletion, CommRequest, Policy, ServiceInterval};
use crate::flows::{max_min_rates, Capacities, Flow};
use crate::link::LinkSpec;
use crate::SimTime;

/// The pre-cursor [`crate::flows::simulate_flows`]: shifts a `pending`
/// Vec with `remove(0)` per admission — O(n²) element moves over the
/// flow set.
pub fn simulate_flows_naive(flows: &[Flow], capacities: &Capacities) -> Vec<(usize, SimTime)> {
    #[derive(Clone)]
    struct Live {
        flow: Flow,
        remaining: f64,
    }
    let mut pending: Vec<Flow> = flows.to_vec();
    pending.sort_by_key(|f| f.ready_ns);
    let mut live: Vec<Live> = Vec::new();
    let mut done: Vec<(usize, SimTime)> = Vec::new();
    let mut now: SimTime = 0;
    while !pending.is_empty() || !live.is_empty() {
        if live.is_empty() {
            if let Some(f) = pending.first() {
                now = now.max(f.ready_ns);
            }
        }
        while pending.first().is_some_and(|f| f.ready_ns <= now) {
            let f = pending.remove(0);
            live.push(Live {
                flow: f,
                remaining: f.bytes.max(1) as f64,
            });
        }
        let pairs: Vec<(usize, usize)> = live.iter().map(|l| (l.flow.src, l.flow.dst)).collect();
        let rates = max_min_rates(&pairs, capacities);
        let mut dt_ns_f = f64::INFINITY;
        for (l, &r) in live.iter().zip(&rates) {
            if r > 0.0 {
                dt_ns_f = dt_ns_f.min(l.remaining / r * 1e9);
            }
        }
        if let Some(f) = pending.first() {
            dt_ns_f = dt_ns_f.min((f.ready_ns - now) as f64);
        }
        if !dt_ns_f.is_finite() {
            for l in live {
                done.push((l.flow.id, SimTime::MAX));
            }
            break;
        }
        let dt_ns = dt_ns_f.ceil().max(1.0) as SimTime;
        for (l, &r) in live.iter_mut().zip(&rates) {
            l.remaining -= r * dt_ns as f64 / 1e9;
        }
        now += dt_ns;
        let mut i = 0;
        while i < live.len() {
            if live[i].remaining <= 1e-6 {
                done.push((live[i].flow.id, now));
                live.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    done.sort_by_key(|&(_, t)| t);
    done
}

/// The pre-heap [`crate::commsim::simulate_queue_recorded`]: every chunk
/// pick filters the whole pending list and takes a `min_by_key` — O(n)
/// per chunk, O(n²) (or worse, with chunking) per queue.
pub fn simulate_queue_recorded_naive(
    link: &LinkSpec,
    chunk_bytes: u64,
    policy: Policy,
    requests: &[CommRequest],
) -> (Vec<CommCompletion>, Vec<ServiceInterval>) {
    #[derive(Clone)]
    struct Pending {
        req: CommRequest,
        remaining: u64,
        started: Option<SimTime>,
        seq: usize,
    }
    let chunk = chunk_bytes.max(1);
    let mut pending: Vec<Pending> = requests
        .iter()
        .enumerate()
        .map(|(seq, &req)| Pending {
            req,
            remaining: req.bytes.max(1),
            started: None,
            seq,
        })
        .collect();
    let mut done: Vec<CommCompletion> = Vec::with_capacity(pending.len());
    let mut intervals: Vec<ServiceInterval> = Vec::new();
    let mut now: SimTime = 0;

    while !pending.is_empty() {
        let earliest = pending
            .iter()
            .map(|p| p.req.ready_ns)
            .min()
            .expect("non-empty");
        now = now.max(earliest);
        // Pick among ready requests.
        let idx = match policy {
            Policy::Fifo => pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.req.ready_ns <= now)
                .min_by_key(|(_, p)| (p.req.ready_ns, p.seq))
                .map(|(i, _)| i),
            Policy::Priority => pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.req.ready_ns <= now)
                .min_by_key(|(_, p)| (p.req.priority, p.req.ready_ns, p.seq))
                .map(|(i, _)| i),
        };
        let Some(idx) = idx else {
            continue;
        };
        let p = &mut pending[idx];
        let service_start = now;
        if p.started.is_none() {
            p.started = Some(now);
            now += link.latency_ns;
        }
        let send = match policy {
            Policy::Fifo => p.remaining,
            Policy::Priority => p.remaining.min(chunk),
        };
        now += (send as f64 / link.bytes_per_sec * 1e9) as SimTime;
        p.remaining -= send;
        match intervals.last_mut() {
            Some(iv) if iv.id == p.req.id && iv.end_ns == service_start => {
                iv.end_ns = now;
                iv.bytes += send;
            }
            _ => intervals.push(ServiceInterval {
                id: p.req.id,
                start_ns: service_start,
                end_ns: now,
                bytes: send,
            }),
        }
        if p.remaining == 0 {
            let finished = pending.swap_remove(idx);
            done.push(CommCompletion {
                id: finished.req.id,
                start_ns: finished.started.expect("started before finishing"),
                finish_ns: now,
            });
        }
    }
    done.sort_by_key(|c| (c.finish_ns, c.id));
    (done, intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commsim::simulate_queue_recorded;
    use crate::flows::simulate_flows;

    /// Deterministic pseudo-random stream (splitmix64); the differential
    /// inputs must not depend on a seeded RNG's evolution.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn flows_cursor_matches_remove0_reference() {
        // Sizes straddling empty, tiny, and large; arrival patterns with
        // duplicate ready times, zero-byte flows, and self-loops (src == dst).
        for (seed0, n) in [(1u64, 0usize), (2, 1), (3, 7), (4, 100), (5, 1500)] {
            let mut seed = seed0;
            let flows: Vec<Flow> = (0..n)
                .map(|i| Flow {
                    id: i,
                    src: (mix(&mut seed) % 6) as usize,
                    dst: (mix(&mut seed) % 6) as usize,
                    bytes: (mix(&mut seed) % 3_000_000)
                        * u64::from(mix(&mut seed).is_multiple_of(2)),
                    // Duplicated ready times on purpose.
                    ready_ns: ((mix(&mut seed) % 50) * 1_000_000) as SimTime,
                })
                .collect();
            let mut capacities = Capacities::new();
            for r in 0..6 {
                capacities.insert(r, 2e9);
            }
            let fast = simulate_flows(&flows, &capacities);
            let naive = simulate_flows_naive(&flows, &capacities);
            assert_eq!(fast, naive, "flows diverged at n={n} seed={seed0}");
        }
    }

    #[test]
    fn commsim_heap_matches_filter_min_reference() {
        // Both policies, chunk sizes from pathological (1 byte) to
        // whole-tensor, duplicate priorities and ready times.
        let link = LinkSpec::nvlink();
        for policy in [Policy::Fifo, Policy::Priority] {
            // Byte range scales with the chunk size so the 1-byte-chunk
            // pathological case stays at thousands of chunk events, not
            // hundreds of millions through the O(n²) reference.
            for (chunk, byte_range) in [(1u64, 40u64), (40_000, 500_000), (10_000_000, 500_000)] {
                for (seed0, n) in [(11u64, 0usize), (12, 1), (13, 9), (14, 300)] {
                    let mut seed = seed0;
                    let requests: Vec<CommRequest> = (0..n)
                        .map(|i| CommRequest {
                            id: i,
                            bytes: mix(&mut seed) % byte_range,
                            ready_ns: ((mix(&mut seed) % 20) * 25_000) as SimTime,
                            priority: (mix(&mut seed) % 5) as i64,
                        })
                        .collect();
                    let fast = simulate_queue_recorded(&link, chunk, policy, &requests);
                    let naive = simulate_queue_recorded_naive(&link, chunk, policy, &requests);
                    assert_eq!(
                        fast, naive,
                        "commsim diverged: policy={policy:?} chunk={chunk} n={n}"
                    );
                }
            }
        }
    }
}
