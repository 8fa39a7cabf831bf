//! Host-speed probe: rescales wall times to a fixed host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed swings
//! by up to 1.5× within seconds and drifts over minutes, with little of
//! it showing as steal time. Every timing the end-to-end metrics are
//! built from is therefore bracketed by two runs of [`probe`], a fixed
//! kernel of the benchmark's own that calls no program code, and scaled
//! by [`PROBE_NOMINAL_S`] over the mean of the two probe times. A
//! program change cannot move the probe, so it cannot hide in the
//! scaling; a host slowdown moves both and cancels.

use crate::stats::Rng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The probe's time on an idle 2-vCPU reference VM, seconds. Scaled
/// timings read as seconds on that host.
pub const PROBE_NOMINAL_S: f64 = 0.006;

/// Runs the probe once and returns its wall time, seconds.
///
/// Three parts of about equal time stand for the kinds of work the
/// program does: integer arithmetic, an ordered map (pointer-chasing
/// over about 200 KB), and short-lived vectors and hash maps (allocator
/// churn). Each reacts differently to a busy neighbour (frequency, cache
/// and allocator pressure); together they follow the program more
/// closely than any one of them did.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(0x9_0BE);
    let mut acc = 0u64;
    for _ in 0..800_000 {
        acc ^= rng.next_u64();
    }
    let mut map = BTreeMap::new();
    for i in 0..8_000u64 {
        map.insert(rng.next_u64() % 20_000, i);
    }
    for _ in 0..8_000 {
        acc += map
            .range(rng.next_u64() % 20_000..)
            .next()
            .map_or(0, |(_, v)| *v);
    }
    for _ in 0..2_000 {
        let n = 1 + rng.below(64) as u64;
        let v: Vec<u64> = (0..n).collect();
        let m: HashMap<u64, u64> = v.iter().map(|&x| (x, x ^ acc)).collect();
        acc = acc.wrapping_add(m.len() as u64);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// How much faster than the reference host the host ran between two
/// probes: [`PROBE_NOMINAL_S`] over their mean. A wall time taken
/// between them, times this factor, reads as reference-host seconds.
pub fn factor(before: f64, after: f64) -> f64 {
    PROBE_NOMINAL_S / ((before + after) / 2.0)
}

/// A run's probes, taken between the timed pieces of work.
pub struct Host {
    last: f64,
    /// Every probe time, seconds.
    pub probes: Vec<f64>,
}

impl Host {
    /// Takes the first probe.
    pub fn new() -> Host {
        let last = probe();
        Host {
            last,
            probes: vec![last],
        }
    }

    /// Rescales `secs`, measured since the last probe, to the reference
    /// host, by that probe and a fresh one taken now.
    pub fn scale(&mut self, secs: f64) -> f64 {
        let now = probe();
        self.probes.push(now);
        let f = factor(self.last, now);
        self.last = now;
        secs * f
    }
}
