//! `serve_mix`: one in-process daemon (`ooo_serve::serve`) fed a
//! warm-up burst, then seeded Poisson arrivals at one fixed rate (the
//! open loop), then the same mix as bursts to measure capacity.
//!
//! The daemon reads from [`Paced`], which releases each request line at
//! its due time, and writes to [`Stamped`], which timestamps each
//! response line as it is written. A request's latency runs from its due
//! time to its response, so a stall also charges the requests queued
//! behind it. A host probe runs at each drain, so every capacity burst
//! lies between two probes; set-up is sampled with the daemon on one CPU
//! (see [`on_one_cpu`]).

use crate::path::{self, Restarts::Parallel};
use crate::probe::{self, factor, Host};
use crate::spans::{self, count, for_request, span};
use crate::stats::{digest, percentile, pick, zipf_cdf, Rng};
use crate::{setup_sample, Golden, Item, Phase};
use ooo_core::json::Value;
use ooo_core::pipeline::Strategy;
use ooo_serve::handlers::handle;
use ooo_serve::protocol::{parse_request, strategy_name, Limits};
use ooo_serve::{serve, ServeConfig, ServeSummary, Tier};
use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: well below burst
/// capacity, because waits behind in-flight misses in the ordered
/// writer reach the median request long before the workers saturate.
const RATE_PER_S: f64 = 600.0;
/// Latency limit a request must meet to count as served in time: about
/// 2.5 times the open loop's p99 on an idle host (17-22 ms). At 30 ms,
/// the share within the limit fell from 0.998 to 0.95 with the same
/// binary when the host turned busy, a move as large as the metric's
/// bound; at 50 ms it stayed above 0.997 under a busy neighbour.
const SLO_MS: f64 = 50.0;
/// Daemon workers (`nproc` on the reference machine).
const WORKERS: usize = 2;
/// Share of the run spent in the open loop; the rest goes to warm-up
/// and bursts.
const OPEN_SHARE: f64 = 0.6;
/// Capacity bursts per run; capacity is their median. Bursts of one run
/// ranged from 13k to 19k responses per second, so five left the median
/// at the mercy of one or two of them.
const BURSTS: usize = 12;
/// Requests sent at once before the open loop, to fill the cache.
const WARMUP: usize = 3_000;
/// Requests per burst per second of run time.
const BURST_PER_S: f64 = 300.0;
/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);
/// The daemon's node budget for `cert` requests without one.
const CERT_NODES: u64 = 200_000;
/// Set-up samples taken before the session, and again after it.
const SETUP_SAMPLES: usize = 11;
/// Zipf exponent of key popularity within a class.
const ZIPF_S: f64 = 1.2;

/// One distinct unit of work a client can ask for.
#[derive(Debug, Clone, Copy)]
enum Work {
    Order {
        layers: usize,
        k: usize,
        sync: u64,
    },
    Pipeline {
        layers: usize,
        devices: usize,
        strategy: Strategy,
    },
    Cert {
        layers: usize,
        k: usize,
        sync: u64,
    },
}

#[derive(Debug, Clone)]
struct Key {
    work: Work,
    tier: Tier,
    /// Request fields after the id, e.g. `"cmd":"order",...}`.
    tail: String,
}

impl Key {
    fn new(work: Work, tier: Tier) -> Key {
        let body = match work {
            Work::Order { layers, k, sync } => {
                format!("\"cmd\":\"order\",\"layers\":{layers},\"k\":{k},\"sync\":{sync}")
            }
            Work::Pipeline {
                layers,
                devices,
                strategy,
            } => format!(
                "\"cmd\":\"pipeline\",\"layers\":{layers},\"devices\":{devices},\"strategy\":\"{}\"",
                strategy_name(strategy)
            ),
            Work::Cert { layers, k, sync } => {
                format!("\"cmd\":\"cert\",\"layers\":{layers},\"k\":{k},\"sync\":{sync}")
            }
        };
        Key {
            work,
            tier,
            tail: format!("{body},\"tier\":\"{}\"}}", tier.as_str()),
        }
    }

    fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}", self.tail)
    }

    fn cmd(&self) -> &'static str {
        match self.work {
            Work::Order { .. } => "order",
            Work::Pipeline { .. } => "pipeline",
            Work::Cert { .. } => "cert",
        }
    }

    fn golden_key(&self) -> String {
        format!("serve_mix/{:?}/{}", self.work, self.tier.as_str())
    }
}

/// Request classes: share of traffic and a fixed list of distinct keys.
/// Each list is shuffled once with a fixed seed so popular ranks mix
/// sizes; the run's seed only draws from them.
///
/// There are more keys than cache entries: popular keys stay cached,
/// the long tail is evicted between uses and misses again.
fn universe() -> Vec<(f64, Vec<Key>)> {
    let strategies = [
        Strategy::GPipe,
        Strategy::OooPipe2,
        Strategy::Dapple,
        Strategy::PipeDream,
    ];
    let mut heuristic_order = Vec::new();
    for layers in (4..=40).step_by(4) {
        for k in 0..=3 {
            for sync in 1..=6 {
                heuristic_order.push(Key::new(Work::Order { layers, k, sync }, Tier::Heuristic));
            }
        }
    }
    let mut heuristic_pipe = Vec::new();
    for layers in [8, 16, 24, 32, 48] {
        for devices in [2, 4, 8] {
            for strategy in strategies {
                let w = Work::Pipeline {
                    layers,
                    devices,
                    strategy,
                };
                heuristic_pipe.push(Key::new(w, Tier::Heuristic));
            }
        }
    }
    // Each tune or cert key takes at most about 12 ms cold: larger
    // tunes take 20-400 ms, and the few misses of a rare heavy key would
    // decide the latency tail alone.
    let mut greedy = Vec::new();
    for layers in 4..=16 {
        for k in 0..=3 {
            for sync in 1..=6 {
                greedy.push(Key::new(Work::Order { layers, k, sync }, Tier::Greedy));
            }
        }
    }
    let mut full = Vec::new();
    for layers in 4..=8 {
        for k in 0..=1 {
            for sync in 2..=4 {
                full.push(Key::new(Work::Order { layers, k, sync }, Tier::Full));
            }
        }
    }
    for layers in [4, 6, 8] {
        for devices in [2, 4] {
            for strategy in [Strategy::GPipe, Strategy::OooPipe2, Strategy::Dapple] {
                let w = Work::Pipeline {
                    layers,
                    devices,
                    strategy,
                };
                greedy.push(Key::new(w, Tier::Greedy));
                if strategy == Strategy::GPipe && layers <= 6 {
                    full.push(Key::new(w, Tier::Full));
                }
            }
        }
    }
    let mut cert = Vec::new();
    for layers in 3..=6 {
        for k in 0..=2 {
            for sync in 1..=4 {
                cert.push(Key::new(Work::Cert { layers, k, sync }, Tier::Full));
            }
        }
    }
    let mut classes = vec![
        (0.45, heuristic_order),
        (0.20, heuristic_pipe),
        (0.15, greedy),
        (0.12, full),
        (0.08, cert),
    ];
    let mut rng = Rng::new(0x5EED_0F0E);
    for (_, keys) in &mut classes {
        rng.shuffle(keys);
    }
    classes
}

/// Flattened universe plus a seeded draw of `n` key indices.
struct Mix {
    keys: Vec<Key>,
    class_cdf: Vec<f64>,
    /// Per class: (offset into `keys`, Zipf table).
    classes: Vec<(usize, Vec<f64>)>,
}

impl Mix {
    fn new() -> Mix {
        let mut keys = Vec::new();
        let mut class_cdf = Vec::new();
        let mut classes = Vec::new();
        let mut acc = 0.0;
        for (share, class_keys) in universe() {
            acc += share;
            class_cdf.push(acc);
            classes.push((keys.len(), zipf_cdf(class_keys.len(), ZIPF_S)));
            keys.extend(class_keys);
        }
        Mix {
            keys,
            class_cdf,
            classes,
        }
    }

    fn draw(&self, rng: &mut Rng, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                let (offset, zipf) = &self.classes[pick(&self.class_cdf, rng.unit())];
                offset + pick(zipf, rng.unit())
            })
            .collect()
    }
}

/// When a request line may be sent.
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// Wait until every earlier request is answered, then restart the
    /// phase clock.
    drain: bool,
    /// Offset from the phase clock; `None` sends at once.
    due: Option<Duration>,
}

/// Sleeps until shortly before `due`, then spins: a plain sleep wakes
/// 50-100 µs late, a large share of a cache hit's latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A request source that releases each line at its gate.
struct Paced<'a> {
    lines: Vec<Vec<u8>>,
    gates: Vec<Gate>,
    answered: &'a AtomicUsize,
    next: usize,
    pos: usize,
    released: bool,
    phase_start: Instant,
    /// When each line was due (or released, for ungated lines).
    due_at: Vec<Instant>,
    /// How late each due line was released while the reader waited, ms.
    lag_ms: Vec<f64>,
    /// A host probe taken at each drain, with the daemon idle, seconds.
    probes: Vec<f64>,
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.next >= self.lines.len() {
            return Ok(&[]);
        }
        if !self.released {
            let gate = self.gates[self.next];
            if gate.drain {
                // Acquire pairs with the sink's Release increment.
                while self.answered.load(Ordering::Acquire) < self.next {
                    std::thread::sleep(Duration::from_micros(100));
                }
                self.probes.push(probe::probe());
                self.phase_start = Instant::now();
            }
            let at = match gate.due {
                None => Instant::now(),
                Some(offset) => {
                    let due = self.phase_start + offset;
                    let now = Instant::now();
                    let lag = if now < due {
                        wait_until(due);
                        Instant::now().saturating_duration_since(due)
                    } else {
                        Duration::ZERO
                    };
                    self.lag_ms.push(lag.as_secs_f64() * 1e3);
                    due
                }
            };
            self.due_at.push(at);
            self.released = true;
        }
        Ok(&self.lines[self.next][self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        if self.pos >= self.lines[self.next].len() {
            self.next += 1;
            self.pos = 0;
            self.released = false;
        }
    }
}

/// A response sink that timestamps every completed line.
struct Stamped<'a> {
    bytes: Vec<u8>,
    at: Vec<Instant>,
    answered: &'a AtomicUsize,
}

impl Write for Stamped<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let newlines = data.iter().filter(|&&b| b == b'\n').count();
        if newlines > 0 {
            let now = Instant::now();
            self.at.extend(std::iter::repeat_n(now, newlines));
            self.answered.fetch_add(newlines, Ordering::Release);
        }
        self.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
}

/// Runs `f` with this thread, and every thread it spawns, on the CPU it
/// is on now, then restores its CPU set.
///
/// A daemon spawn is a few thread starts and hand-offs. Spread over two
/// vCPUs of a shared host, each hand-off waits for the host to wake the
/// other vCPU: in a busy stretch of the host, spawns took 1.0-1.9 ms
/// against 0.4 ms when it was quiet. On one CPU the hand-offs are local
/// switches, the spawn's own work remains, and the host probe tracks it:
/// under a busy neighbour, five runs spread by 12% pinned against 20%
/// unpinned.
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    const WORDS: usize = 16;
    let size = WORDS * 8;
    let mut saved = [0u64; WORDS];
    // SAFETY: the masks are valid for `size` bytes; pid 0 is this thread.
    let pinned = unsafe {
        let cpu = sched_getcpu();
        let mut one = [0u64; WORDS];
        cpu >= 0
            && (cpu as usize) < WORDS * 64
            && sched_getaffinity(0, size, saved.as_mut_ptr()) == 0
            && {
                one[cpu as usize / 64] = 1 << (cpu as usize % 64);
                sched_setaffinity(0, size, one.as_ptr()) == 0
            }
    };
    let out = f();
    if pinned {
        // SAFETY: as above.
        unsafe { sched_setaffinity(0, size, saved.as_ptr()) };
    }
    out
}

/// The daemon as configured for the run: two workers, the default
/// cache, and a job queue of `queue` (deep enough to admit a whole
/// burst; at the open-loop rate it stays far below the default of 64).
fn config(queue: usize) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue,
        ..ServeConfig::default()
    }
}

/// One daemon session: the request stream (key indices) and each
/// line's gate.
struct Session {
    stream: Vec<usize>,
    gates: Vec<Gate>,
}

/// What one session got back.
struct Answered {
    summary: ServeSummary,
    bytes: Vec<u8>,
    /// Response write time per request.
    at: Vec<Instant>,
    /// Due (or release) time per request.
    due: Vec<Instant>,
    lag_ms: Vec<f64>,
    /// Host probes at the drains, then one after the session.
    probes: Vec<f64>,
}

impl Session {
    fn push(&mut self, keys: &[usize], mut gate: impl FnMut(usize) -> Gate) {
        for (i, &k) in keys.iter().enumerate() {
            self.stream.push(k);
            self.gates.push(gate(i));
        }
    }

    fn run(&self, mix: &Mix, queue: usize) -> Result<Answered, String> {
        let answered = AtomicUsize::new(0);
        let mut input = Paced {
            lines: self
                .stream
                .iter()
                .enumerate()
                .map(|(id, &k)| format!("{}\n", mix.keys[k].line(id)).into_bytes())
                .collect(),
            gates: self.gates.clone(),
            answered: &answered,
            next: 0,
            pos: 0,
            released: false,
            phase_start: Instant::now(),
            due_at: Vec::with_capacity(self.stream.len()),
            lag_ms: Vec::new(),
            probes: Vec::new(),
        };
        let mut sink = Stamped {
            bytes: Vec::new(),
            at: Vec::with_capacity(self.stream.len()),
            answered: &answered,
        };
        let summary = serve(&mut input, &mut sink, &config(queue)).map_err(|e| e.to_string())?;
        if sink.at.len() != self.stream.len() {
            return Err(format!(
                "{} requests but {} response lines",
                self.stream.len(),
                sink.at.len()
            ));
        }
        Ok(Answered {
            summary,
            bytes: sink.bytes,
            at: sink.at,
            due: input.due_at,
            lag_ms: input.lag_ms,
            probes: [input.probes, vec![probe::probe()]].concat(),
        })
    }
}

/// Checks every response line against its request and the recorded
/// digest. Returns per request the `(baseline, delivered)` makespans of
/// a correct `ok` response (see [`makespans`]), `None` otherwise.
fn check_responses(
    mix: &Mix,
    stream: &[usize],
    bytes: &[u8],
    golden: &mut Golden,
    phase: &mut Phase,
) -> Vec<Option<(f64, f64)>> {
    let text = String::from_utf8_lossy(bytes);
    let mut out = Vec::with_capacity(stream.len());
    for (id, (line, &k)) in text.lines().zip(stream).enumerate() {
        let key = &mix.keys[k];
        let prefix = format!("{{\"id\":{id},");
        let Some(rest) = line.strip_prefix(&prefix) else {
            phase.fail(format!("serve_mix response {id} is out of order: {line}"));
            out.push(None);
            continue;
        };
        let body = format!("{{{rest}");
        let status_ok = body.starts_with("{\"status\":\"ok\"");
        let refused = body.starts_with("{\"status\":\"overloaded\"")
            || body.starts_with("{\"status\":\"timeout\"");
        if refused {
            phase.failed += 1;
            out.push(None);
        } else if !status_ok {
            phase.fail(format!(
                "serve_mix request {id} ({}) failed: {body}",
                key.tail
            ));
            out.push(None);
        } else if golden.check(&key.golden_key(), &digest(&body), phase) {
            out.push(Some(
                Value::parse(&body).map_or((0.0, 0.0), |v| makespans(&v)),
            ));
        } else {
            phase.failed += 1;
            out.push(None);
        }
    }
    out
}

/// `(baseline, delivered)` makespans of one ok response.
fn makespans(v: &Value) -> (f64, f64) {
    let r = v.get("result");
    let num = |k: &str| r.and_then(|r| r.get(k)).and_then(Value::as_f64);
    let delivered = num("certified_makespan").or_else(|| num("best_makespan"));
    match (num("baseline_makespan"), delivered) {
        (Some(b), Some(d)) => (b, d),
        _ => (0.0, 0.0),
    }
}

/// One run: a warm-up burst fills the cache, the open loop is measured
/// on the warm daemon, then capacity bursts follow. Each phase starts
/// once the previous one is fully answered.
pub fn run(seed: u64, seconds: f64, golden: &mut Golden) -> Result<Phase, String> {
    let mix = Mix::new();
    let warm = format!("{}\n", mix.keys[0].line(0));
    let spawn = || {
        let answered = AtomicUsize::new(0);
        let mut sink = Stamped {
            bytes: Vec::new(),
            at: Vec::new(),
            answered: &answered,
        };
        serve(warm.as_bytes(), &mut sink, &config(1)).expect("in-memory serve cannot fail");
    };
    let mut phase = Phase {
        slo_ms: SLO_MS,
        ..Phase::default()
    };
    let mut host = Host::new();
    on_one_cpu(|| {
        for _ in 0..SETUP_SAMPLES {
            let secs = setup_sample(spawn);
            phase.push_setup(&mut host, secs);
        }
    });

    let mut rng = Rng::new(seed);
    let n_open = (RATE_PER_S * OPEN_SHARE * seconds).round().max(1.0) as usize;
    let n_burst = (BURST_PER_S * seconds).round().max(1.0) as usize;
    let mut session = Session {
        stream: Vec::new(),
        gates: Vec::new(),
    };
    let now = |_| Gate {
        drain: false,
        due: None,
    };
    session.push(&mix.draw(&mut rng, WARMUP), now);
    let open_from = session.stream.len();
    let mut t = 0.0f64;
    session.push(&mix.draw(&mut rng, n_open), |i| {
        t += -(1.0 - rng.unit()).ln() / RATE_PER_S;
        Gate {
            drain: i == 0,
            due: Some(Duration::from_secs_f64(t)),
        }
    });
    let mut bursts = Vec::new();
    for _ in 0..BURSTS {
        bursts.push(session.stream.len());
        session.push(&mix.draw(&mut rng, n_burst), |i| Gate {
            drain: i == 0,
            due: None,
        });
    }
    let probes_before = host.probes;
    let out = session.run(&mix, n_burst.max(WARMUP))?;
    // A fresh probe: the last one was taken before the session.
    let mut host = Host::new();
    on_one_cpu(|| {
        for _ in 0..SETUP_SAMPLES {
            let secs = setup_sample(spawn);
            phase.push_setup(&mut host, secs);
        }
    });
    phase.probes = [probes_before, host.probes, out.probes.clone()].concat();

    let checked = check_responses(&mix, &session.stream, &out.bytes, golden, &mut phase);
    let mut latency = Vec::with_capacity(n_open);
    for (i, answer) in checked.iter().enumerate().skip(open_from).take(n_open) {
        let ms = out.at[i]
            .saturating_duration_since(out.due[i])
            .as_secs_f64()
            * 1e3;
        spans::record("request.serve", i as i64, out.due[i], out.at[i]);
        latency.push(ms);
        let (baseline, delivered) = answer.unwrap_or((0.0, 0.0));
        phase.items.push(Item {
            ms,
            ok: answer.is_some(),
            baseline,
            delivered,
        });
    }
    phase.attempted = session.stream.len() as u64;
    // `out.probes[0]` was taken at the open loop's drain; burst `j`
    // lies between probes `j + 1` and `j + 2`.
    for (j, &b) in bursts.iter().enumerate() {
        let start = out.due[b];
        let last = out.at[b + n_burst - 1];
        let wall = last
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(1e-9);
        let f = factor(out.probes[j + 1], out.probes[j + 2]);
        phase.raw_throughput.push(n_burst as f64 / wall);
        phase.throughput.push(n_burst as f64 / (wall * f));
    }

    let s = &out.summary;
    let l = &mut phase.layer;
    l.insert(
        "serve.cache.hit_frac",
        s.cache_served as f64 / s.responses.max(1) as f64,
    );
    l.insert("serve.daemon.overloaded", s.overloaded as f64);
    l.insert("serve.daemon.timeouts", s.timeouts as f64);
    l.insert("serve.daemon.errors", s.errors as f64);
    let lag_p99 = percentile(&out.lag_ms, 0.99);
    l.insert("bench.generator_lag_ms_p99", lag_p99);
    if lag_p99 > SLO_MS / 2.0 {
        phase.fail(format!(
            "generator ran {lag_p99:.1} ms late at p99, near the {SLO_MS} ms limit: run invalid"
        ));
    }

    if spans::enabled() {
        let open = &session.stream[open_from..open_from + n_open];
        replay(&mix, open, &latency, &mut phase);
    }
    Ok(phase)
}

/// Sequential replay of the open-loop stream with no daemon: each
/// distinct key is parsed, handled and rendered once (`handle` is
/// deterministic), then its request path is run crate by crate.
/// Service times are charged to every request of that key. The spans of
/// the tune, cert, verify and core layers come from that crate-by-crate
/// run, not from inside the handler.
fn replay(mix: &Mix, stream: &[usize], latency: &[f64], phase: &mut Phase) {
    let limits = Limits::default();
    let mut service: BTreeMap<usize, f64> = BTreeMap::new();
    for (id, &k) in stream.iter().enumerate() {
        if service.contains_key(&k) {
            continue;
        }
        let key = &mix.keys[k];
        let line = key.line(id);
        for_request(id as i64, || {
            span("core.json", || Value::parse(&line).map(|v| v.to_compact())).ok();
            let req = match span("serve.protocol.parse", || parse_request(&line, &limits)) {
                Ok(r) => r,
                Err(e) => {
                    count("serve.protocol.errors", 1.0);
                    phase.fail(format!("replay parse of {line}: {e}"));
                    return;
                }
            };
            // No span: the handler runs tune, cert, verify and core
            // code inside, which would count as serve's own time.
            let t = Instant::now();
            let payload = handle(
                &req.cmd,
                key.tier,
                req.budget,
                None,
                None,
                req.memory_cap,
                0,
            );
            service.insert(k, t.elapsed().as_secs_f64() * 1e3);
            let rendered = span("serve.protocol.render", || payload.render(&req.id));
            span("core.json", || Value::parse(&rendered)).ok();
            let mut clock = Duration::ZERO;
            let cross = match key.work {
                Work::Order { layers, k, sync } => {
                    path::order(layers, k, sync, key.tier, None, Parallel, &mut clock)
                        .map(|o| o.certified)
                }
                Work::Pipeline {
                    layers,
                    devices,
                    strategy,
                } => path::pipeline(
                    layers, devices, strategy, key.tier, None, Parallel, &mut clock,
                )
                .map(|o| o.certified),
                Work::Cert { layers, k, sync } => path::cert(layers, k, sync, CERT_NODES),
            };
            match cross {
                Ok(m) if payload.body.contains(&format!("_makespan\":{m},")) => {}
                Ok(m) => phase.fail(format!(
                    "replay of {}: path gives makespan {m}, handler says {}",
                    key.tail, payload.body
                )),
                Err(e) => phase.fail(format!("replay of {}: {e}", key.tail)),
            }
        });
    }
    let mut all = Vec::new();
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut wait = Vec::new();
    for (i, &k) in stream.iter().enumerate() {
        let s = service[&k];
        all.push(s);
        by.entry(mix.keys[k].tier.as_str()).or_default().push(s);
        by.entry(mix.keys[k].cmd()).or_default().push(s);
        wait.push(latency[i] - s);
    }
    let l = &mut phase.layer;
    l.insert("serve.handle.service_ms_p50", percentile(&all, 0.5));
    l.insert("serve.handle.service_ms_p99", percentile(&all, 0.99));
    for (group, p50, p99) in [
        (
            "full",
            "serve.handle.full.service_ms_p50",
            "serve.handle.full.service_ms_p99",
        ),
        (
            "greedy",
            "serve.handle.greedy.service_ms_p50",
            "serve.handle.greedy.service_ms_p99",
        ),
        (
            "heuristic",
            "serve.handle.heuristic.service_ms_p50",
            "serve.handle.heuristic.service_ms_p99",
        ),
        (
            "order",
            "serve.handle.order.service_ms_p50",
            "serve.handle.order.service_ms_p99",
        ),
        (
            "pipeline",
            "serve.handle.pipeline.service_ms_p50",
            "serve.handle.pipeline.service_ms_p99",
        ),
        (
            "cert",
            "serve.handle.cert.service_ms_p50",
            "serve.handle.cert.service_ms_p99",
        ),
    ] {
        let v = by.get(group).cloned().unwrap_or_default();
        l.insert(p50, percentile(&v, 0.5));
        l.insert(p99, percentile(&v, 0.99));
    }
    l.insert("serve.daemon.wait_ms_p99", percentile(&wait, 0.99));
}

/// Records the digest of every key's response body, handled directly
/// (the daemon's cache hits are byte-identical to these).
pub fn record(golden: &mut Golden, phase: &mut Phase) {
    let limits = Limits::default();
    for key in Mix::new().keys {
        let req = match parse_request(&key.line(0), &limits) {
            Ok(r) => r,
            Err(e) => {
                phase.fail(format!("{}: {e}", key.tail));
                continue;
            }
        };
        let payload = handle(
            &req.cmd,
            key.tier,
            req.budget,
            None,
            None,
            req.memory_cap,
            0,
        );
        if !payload.body.starts_with("{\"status\":\"ok\"") {
            phase.fail(format!("{}: {}", key.tail, payload.body));
        }
        golden.check(&key.golden_key(), &digest(&payload.body), phase);
    }
}
