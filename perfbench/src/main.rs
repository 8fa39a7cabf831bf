//! The schedule service's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix|tune_large|zoo_sim|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the unmodified program in-process through its public
//! functions, checks every output against the digests in
//! `perfbench/golden.json`, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. `--record` rewrites the digest
//! file from the current program. See `perfbench/README.md` for what
//! each metric and workload measures.

mod path;
mod probe;
mod serve_mix;
mod spans;
mod stats;
mod tune_large;
mod zoo_sim;

use ooo_core::json::Value;
use probe::Host;
use stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["serve_mix", "tune_large", "zoo_sim"];

/// Length of one set-up sample (see [`setup_sample`]).
const SETUP_SAMPLE_S: f64 = 0.025;

/// End-to-end metrics, in `BENCHMARK.json` order. Latency percentiles
/// are per-layer figures (see `README.md`): on a shared 2-vCPU host they
/// spread by 22-99% between runs of the same code, past any bound.
/// `throughput_per_s` and `setup_s` are scaled to the reference host by
/// [`probe`].
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("slo_met_frac", "ratio"),
    ("makespan_ratio", "ratio"),
    ("speedup_geomean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// does not call reports 0.
const PER_LAYER: [(&str, &str); 59] = [
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.errors", "count"),
    ("serve.cache.hit_frac", "ratio"),
    ("serve.handle.service_ms_p50", "ms"),
    ("serve.handle.service_ms_p99", "ms"),
    ("serve.handle.full.service_ms_p50", "ms"),
    ("serve.handle.full.service_ms_p99", "ms"),
    ("serve.handle.greedy.service_ms_p50", "ms"),
    ("serve.handle.greedy.service_ms_p99", "ms"),
    ("serve.handle.heuristic.service_ms_p50", "ms"),
    ("serve.handle.heuristic.service_ms_p99", "ms"),
    ("serve.handle.order.service_ms_p50", "ms"),
    ("serve.handle.order.service_ms_p99", "ms"),
    ("serve.handle.pipeline.service_ms_p50", "ms"),
    ("serve.handle.pipeline.service_ms_p99", "ms"),
    ("serve.handle.cert.service_ms_p50", "ms"),
    ("serve.handle.cert.service_ms_p99", "ms"),
    ("serve.daemon.wait_ms_p99", "ms"),
    ("serve.daemon.overloaded", "count"),
    ("serve.daemon.timeouts", "count"),
    ("serve.daemon.errors", "count"),
    ("serve.self_s", "s"),
    ("tune.busy_s", "s"),
    ("tune.calls", "count"),
    ("tune.moves", "count"),
    ("tune.restarts_adopted", "count"),
    ("tune.improved_frac", "ratio"),
    ("verify.lint_ms", "ms"),
    ("verify.predict_ms", "ms"),
    ("verify.mem_ms", "ms"),
    ("verify.self_s", "s"),
    ("cert.certify_ms", "ms"),
    ("cert.bnb_ms", "ms"),
    ("cert.nodes", "count"),
    ("cert.decided_frac", "ratio"),
    ("cert.self_s", "s"),
    ("core.graph_us", "us"),
    ("core.generate_us", "us"),
    ("core.bounds_us", "us"),
    ("core.json_us", "us"),
    ("core.self_s", "s"),
    ("cluster.simulate_ms.gpusim", "ms"),
    ("cluster.simulate_ms.netsim", "ms"),
    ("cluster.certify_ms", "ms"),
    ("cluster.self_s", "s"),
    ("models.cost_table_us", "us"),
    ("models.self_s", "s"),
    ("bench.generator_lag_ms_p99", "ms"),
    ("bench.peak_threads", "count"),
    ("bench.spans", "count"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_pct", "pct"),
    ("bench.traced_p50_ms", "ms"),
    ("bench.traced_items", "count"),
    ("bench.probe_ms", "ms"),
    ("bench.raw_throughput_per_s", "1/s"),
    ("bench.raw_setup_s", "s"),
];

/// One measured unit of work: a request, an instance or a cell.
#[derive(Debug, Clone, Default)]
pub struct Item {
    pub ms: f64,
    /// Completed, correct and (for requests) not refused.
    pub ok: bool,
    /// Heuristic or conventional makespan; 0 when the item has none.
    pub baseline: f64,
    /// Makespan the service delivered for it.
    pub delivered: f64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Seconds per set-up, one per [`setup_sample`], scaled to the
    /// reference host; `setup_s` is their median.
    pub setup: Vec<f64>,
    /// The same samples as measured.
    pub raw_setup: Vec<f64>,
    pub items: Vec<Item>,
    /// Items per second of each back-to-back pass or burst, scaled to
    /// the reference host.
    pub throughput: Vec<f64>,
    /// The same rates as measured.
    pub raw_throughput: Vec<f64>,
    /// Every host probe's time, seconds.
    pub probes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Per-item latency limit, ms.
    pub slo_ms: f64,
    /// Per-layer values the workload computes itself.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Phase {
    /// Records one set-up sample, taken since `host`'s last probe.
    pub fn push_setup(&mut self, host: &mut Host, secs: f64) {
        self.raw_setup.push(secs);
        self.setup.push(host.scale(secs));
    }

    /// Records a pass or burst of `items` that took `secs`, since
    /// `host`'s last probe.
    pub fn push_throughput(&mut self, host: &mut Host, items: usize, secs: f64) {
        let secs = secs.max(1e-9);
        self.raw_throughput.push(items as f64 / secs);
        self.throughput.push(items as f64 / host.scale(secs));
    }

    /// Records a failed item that also breaks the correctness gate.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}

/// Time of one call of `f`, seconds: the median call while `f` is
/// repeated for [`SETUP_SAMPLE_S`]. One set-up takes 0.05-1 ms, where
/// timer and wake-up jitter alone moved a 20-set-up sample by half, and
/// a daemon spawn's calls split into fast ones and a slow tail whose
/// share changed from run to run: over two sets of five or six runs,
/// the mean call spread by 252% and 37%, the median call by 76% and 10%
/// (and, with the daemon on one CPU, by 8-16% over ten runs).
/// Workloads take samples between their passes or around their session,
/// so that the median over samples pools the host's speed over the
/// whole run: within half a second, one host slowed a `zoo_sim` set-up
/// from 45 µs to 70 µs and back, several times. Callers scale each
/// sample with [`Phase::push_setup`].
///
/// Samples are not traced: thousands of set-ups per run would bury the
/// workload's own spans.
pub fn setup_sample<T>(mut f: impl FnMut() -> T) -> f64 {
    let traced = spans::enabled();
    spans::set_enabled(false);
    let t = Instant::now();
    let mut calls = Vec::new();
    while calls.is_empty() || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        let c = Instant::now();
        std::hint::black_box(f());
        calls.push(c.elapsed().as_secs_f64());
    }
    let s = median(&calls);
    spans::set_enabled(traced);
    s
}

/// Recorded output digests, keyed by item.
pub struct Golden {
    digests: BTreeMap<String, String>,
    recording: bool,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

impl Golden {
    fn load() -> Result<Golden, String> {
        let path = golden_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v = Value::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let digests = v
            .as_obj()
            .ok_or("golden digests must be a JSON object")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        Ok(Golden {
            digests,
            recording: false,
        })
    }

    /// Compares `digest` with the recorded one (or records it).
    pub fn check(&mut self, key: &str, digest: &str, phase: &mut Phase) -> bool {
        if self.recording {
            self.digests.insert(key.to_string(), digest.to_string());
            return true;
        }
        match self.digests.get(key) {
            Some(d) if d == digest => true,
            Some(d) => {
                phase
                    .errors
                    .push(format!("{key}: digest {digest} != recorded {d}"));
                false
            }
            None => {
                phase.errors.push(format!("{key}: no recorded digest"));
                false
            }
        }
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64, golden: &mut Golden) -> Result<Phase, String> {
    match name {
        "serve_mix" => serve_mix::run(seed, seconds, golden),
        "tune_large" => tune_large::run(seed, seconds, golden),
        "zoo_sim" => zoo_sim::run(seed, seconds, golden),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn end_to_end(p: &Phase) -> BTreeMap<&'static str, f64> {
    let met = p.items.iter().filter(|i| i.ok && i.ms <= p.slo_ms).count();
    let rated: Vec<&Item> = p.items.iter().filter(|i| i.baseline > 0.0).collect();
    let base: f64 = rated.iter().map(|i| i.baseline).sum();
    let delivered: f64 = rated.iter().map(|i| i.delivered).sum();
    let speedups: Vec<f64> = rated.iter().map(|i| i.baseline / i.delivered).collect();
    BTreeMap::from([
        ("throughput_per_s", median(&p.throughput)),
        ("slo_met_frac", met as f64 / p.items.len().max(1) as f64),
        ("makespan_ratio", delivered / base.max(1.0)),
        ("speedup_geomean", geomean(&speedups)),
        ("setup_s", median(&p.setup)),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ])
}

/// Samples this process's thread count until stopped.
fn sample_threads(stop: &AtomicBool, peak: &AtomicU64) {
    while !stop.load(Ordering::Relaxed) {
        peak.fetch_max(stats::threads(), Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Runs the workload untraced, traced and untraced again, and reduces the
/// spans to per-layer metrics.
fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    golden: &mut Golden,
) -> Result<(Phase, BTreeMap<&'static str, f64>), String> {
    // Untraced, traced, untraced again: the first run in a process also
    // pays for page faults and allocator growth, so the untraced figure
    // pools the runs on both sides of the traced one.
    let third = seconds / 3.0;
    let before = run_workload(name, seed, third, golden)?;
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let mut phase = std::thread::scope(|s| {
        s.spawn(|| sample_threads(&stop, &peak));
        spans::set_enabled(true);
        let phase = run_workload(name, seed, third, golden);
        spans::set_enabled(false);
        stop.store(true, Ordering::Relaxed);
        phase
    })?;
    let after = run_workload(name, seed, third, golden)?;
    let item_ms = |ps: &[&Phase]| -> Vec<f64> {
        ps.iter()
            .flat_map(|p| p.items.iter().map(|i| i.ms))
            .collect()
    };
    let untraced = item_ms(&[&before, &after]);
    let pooled = |f: fn(&Phase) -> &Vec<f64>| -> f64 {
        median(&[f(&before).as_slice(), f(&after)].concat())
    };
    let probe_ms = pooled(|p| &p.probes) * 1e3;
    let raw_throughput = pooled(|p| &p.raw_throughput);
    let raw_setup = pooled(|p| &p.raw_setup);
    let untraced_p50 = percentile(&untraced, 0.5);
    let traced_p50 = percentile(&item_ms(&[&phase]), 0.5);
    for p in [before, after] {
        phase.attempted += p.attempted;
        phase.failed += p.failed;
        phase.errors.extend(p.errors);
    }
    let (recs, counts) = spans::take();

    let mut durs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut self_total: BTreeMap<&str, f64> = BTreeMap::new();
    let self_ns = spans::self_ns(&recs);
    for r in &recs {
        durs.entry(r.name).or_default().push(r.dur_ns() as f64);
        let layer = r.name.split('.').next().unwrap_or(r.name);
        *self_total.entry(layer).or_default() += self_ns[&r.id] as f64 / 1e9;
    }
    let med = |span: &str, scale: f64| durs.get(span).map_or(0.0, |d| median(d) / scale);
    let cnt = |c: &str| counts.get(c).copied().unwrap_or(0.0);
    let (us, ms) = (1e3, 1e6);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("serve.protocol.parse_us", med("serve.protocol.parse", us));
    m.insert("serve.protocol.errors", cnt("serve.protocol.errors"));
    m.insert(
        "tune.busy_s",
        self_total.get("tune").copied().unwrap_or(0.0),
    );
    m.insert("tune.calls", cnt("tune.calls"));
    m.insert("tune.moves", cnt("tune.moves"));
    m.insert("tune.restarts_adopted", cnt("tune.restarts_adopted"));
    m.insert(
        "tune.improved_frac",
        cnt("tune.improved") / cnt("tune.calls").max(1.0),
    );
    m.insert("verify.lint_ms", med("verify.lint", ms));
    m.insert("verify.predict_ms", med("verify.predict", ms));
    m.insert("verify.mem_ms", med("verify.mem", ms));
    m.insert("cert.certify_ms", med("cert.certify", ms));
    m.insert("cert.bnb_ms", med("cert.bnb", ms));
    m.insert("cert.nodes", cnt("cert.nodes"));
    m.insert(
        "cert.decided_frac",
        cnt("cert.decided") / cnt("cert.calls").max(1.0),
    );
    m.insert("core.graph_us", med("core.graph", us));
    m.insert("core.generate_us", med("core.generate", us));
    m.insert("core.bounds_us", med("core.bounds", us));
    m.insert("core.json_us", med("core.json", us));
    m.insert("cluster.simulate_ms.gpusim", med("cluster.gpusim", ms));
    m.insert("cluster.simulate_ms.netsim", med("cluster.netsim", ms));
    m.insert("cluster.certify_ms", med("cluster.certify", ms));
    m.insert("models.cost_table_us", med("models.cost_table", us));
    for (layer, key) in [
        ("serve", "serve.self_s"),
        ("verify", "verify.self_s"),
        ("cert", "cert.self_s"),
        ("core", "core.self_s"),
        ("cluster", "cluster.self_s"),
        ("models", "models.self_s"),
        ("bench", "bench.self_s"),
    ] {
        m.insert(key, self_total.get(layer).copied().unwrap_or(0.0));
    }
    // The sampler thread itself is not part of the workload.
    m.insert(
        "bench.peak_threads",
        peak.load(Ordering::Relaxed).saturating_sub(1) as f64,
    );
    m.insert("bench.spans", recs.len() as f64);
    m.insert("latency.p50_ms", untraced_p50);
    m.insert("latency.p99_ms", percentile(&untraced, 0.99));
    m.insert("bench.traced_p50_ms", traced_p50);
    m.insert("bench.traced_items", phase.items.len() as f64);
    m.insert("bench.probe_ms", probe_ms);
    m.insert("bench.raw_throughput_per_s", raw_throughput);
    m.insert("bench.raw_setup_s", raw_setup);
    m.insert(
        "bench.trace_overhead_pct",
        (traced_p50 / untraced_p50.max(1e-9) - 1.0) * 100.0,
    );
    m.extend(phase.layer.iter().map(|(k, v)| (*k, *v)));

    let timeline = spans::timeline(&recs, &format!("perfbench {name} seed {seed}"));
    timeline
        .validate()
        .map_err(|e| format!("trace timeline invalid: {e}"))?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = dir.join(format!("trace-{name}-{seed}.json"));
    std::fs::write(&file, timeline.to_chrome_json())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    eprintln!("perfbench: trace written to {}", file.display());
    Ok((phase, m))
}

fn result_line(phase: &Phase, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.errors.is_empty(),
        phase.attempted.max(1),
        phase.failed,
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: perfbench --workload serve_mix|tune_large|zoo_sim|all \
--seed N --seconds S --trace 0|1 | perfbench --record";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str()) || args.workload == "all";
    if !(args.record || known) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Rewrites `golden.json` from the current program: every serve key,
/// every tune instance (cross-checked against the handler) and every
/// zoo cell.
fn record() -> Result<(), String> {
    let mut golden = Golden {
        digests: BTreeMap::new(),
        recording: true,
    };
    let mut phase = Phase::default();
    serve_mix::record(&mut golden, &mut phase);
    tune_large::record(&mut golden, &mut phase)?;
    let mut errors = phase.errors;
    errors.extend(zoo_sim::run(1, 0.0, &mut golden)?.errors);
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    let doc = Value::Obj(
        golden
            .digests
            .into_iter()
            .map(|(k, v)| (k, Value::Str(v)))
            .collect(),
    );
    std::fs::write(golden_path(), doc.to_pretty() + "\n").map_err(|e| e.to_string())
}

fn run_one(args: &Args, name: &str, golden: &mut Golden) -> Result<(Phase, String), String> {
    if args.trace {
        let (phase, m) = traced(name, args.seed, args.seconds, golden)?;
        let line = result_line(&phase, &PER_LAYER, &m);
        Ok((phase, line))
    } else {
        let phase = run_workload(name, args.seed, args.seconds, golden)?;
        eprintln!(
            "perfbench: {name}: as measured, before scaling to the reference host: \
             throughput {:.6}/s, set-up {:.9} s; host probe {:.6} ms",
            median(&phase.raw_throughput),
            median(&phase.raw_setup),
            median(&phase.probes) * 1e3
        );
        let line = result_line(&phase, &END_TO_END, &end_to_end(&phase));
        Ok((phase, line))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: record failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut golden = match Golden::load() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        match run_one(&args, name, &mut golden) {
            Ok((phase, line)) => {
                for e in &phase.errors {
                    eprintln!("perfbench: {name}: correctness: {e}");
                }
                correct &= phase.errors.is_empty();
                if args.workload == "all" {
                    eprintln!("perfbench: {name}");
                }
                println!("{line}");
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
