//! The shared CLI contract, asserted in one place for all eight tools
//! (`ooo-lint`, `ooo-advise`, `ooo-memcheck`, `ooo-trace`, `ooo-chaos`,
//! `ooo-tune`, `ooo-cert`, `ooo-serve`):
//!
//! * exit code 0 on success, 1 when findings fire (diagnostics,
//!   advisories, unsafe inputs, unparsable traces), 2 on usage/IO/parse
//!   errors;
//! * graceful failure — never a panic — on malformed, empty, and
//!   deeply-nested JSON inputs;
//! * byte-identical output across double runs of the same invocation;
//! * for `ooo-tune`, `ooo-cert` and `ooo-serve`: golden output bytes
//!   (`tests/fixtures/cli_golden/`), and agreement between each CLI and
//!   the daemon on the same work.
//!
//! `figures` prints every table when run bare, so it gets its own
//! contract test: an unknown id is a usage error (exit 2), `--list`
//! names exactly the ids pinned in `docs/figures_snapshot.txt`, and
//! output is byte-identical across runs. The strategy zoo reaches the
//! advisor through a bundle holding every data-parallel strategy.

use ooo_backprop::cluster::strategy::{zoo, Shape};
use ooo_backprop::core::cli::{Kind, Spec, TOOLS};
use ooo_backprop::core::cost::UnitCost;
use ooo_backprop::core::export::ScheduleBundle;
use ooo_backprop::core::json::Value;
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::Strategy;
use ooo_backprop::core::schedule::Schedule;
use ooo_backprop::core::TrainGraph;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, OnceLock};

/// The eight CLIs under contract, with the package that owns each.
const CLIS: [(&str, &str); 8] = [
    ("ooo-lint", "ooo-verify"),
    ("ooo-advise", "ooo-verify"),
    ("ooo-memcheck", "ooo-verify"),
    ("ooo-trace", "ooo-cluster"),
    ("ooo-chaos", "ooo-faults"),
    ("ooo-tune", "ooo-tune"),
    ("ooo-cert", "ooo-cert"),
    ("ooo-serve", "ooo-serve"),
];

/// The paper-figures binary (a bare run prints everything, so it is
/// not a usage error), with its owning package.
const FIGURES: (&str, &str) = ("figures", "ooo-bench");

/// Path to a CLI binary, built on first use in this test process: the
/// root package's integration tests do not implicitly build other
/// crates' binaries, and an existing binary may predate the sources
/// (cargo rebuilds it only if it is stale, and does nothing otherwise).
fn bin(name: &str) -> PathBuf {
    static BUILT: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let exe = std::env::current_exe().expect("test executable path");
    let debug_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("target/<profile> dir")
        .to_path_buf();
    // Held across the build, so concurrent tests wait for one build of a
    // name instead of racing it. A failed build panics before inserting,
    // so the set is valid even when the lock is poisoned.
    let mut built = BUILT
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if !built.contains(name) {
        let pkg = CLIS
            .iter()
            .chain([FIGURES].iter())
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .expect("known CLI");
        // Build the profile this test runs under, so the binary it
        // returns is the one cargo just checked.
        let profile = if debug_dir.ends_with("release") {
            "--release"
        } else {
            "--profile=dev"
        };
        let status = Command::new(env!("CARGO"))
            .args(["build", "-q", profile, "-p", pkg, "--bin", name])
            .status()
            .expect("cargo build runs");
        assert!(status.success(), "building {name} failed");
        built.insert(name.to_string());
    }
    debug_dir.join(name)
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(bin(name))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"))
}

/// Like [`run`], but feeding `input` on stdin — the `ooo-serve`
/// protocol arrives there rather than via file arguments.
fn run_with_stdin(name: &str, args: &[&str], input: &str) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(bin(name))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"));
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("stdin accepts input");
    child
        .wait_with_output()
        .unwrap_or_else(|e| panic!("{name} failed to finish: {e}"))
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("CLI terminated by signal")
}

fn assert_no_panic(name: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{name} panicked:\n{stderr}");
}

/// Scratch directory for generated inputs, unique per test process.
fn scratch(file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ooo-cli-contracts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(file)
}

/// A well-formed bundle whose only entry is the canonical complete
/// backprop order — every linter and tuner accepts it cleanly.
fn clean_bundle_json() -> String {
    let graph = TrainGraph::single_gpu(4);
    let mut bundle = ScheduleBundle::new("contract-clean", &graph);
    bundle
        .add_order("conventional", &graph, graph.conventional_backprop())
        .expect("canonical order validates");
    bundle.to_json().expect("bundle serializes")
}

/// A structurally valid bundle carrying a schedule that breaks the
/// dependency graph (`dW2` runs before the `dO3` it consumes): parses
/// everywhere, then draws findings from every analysis tool.
fn unsafe_bundle_json() -> String {
    let graph = TrainGraph::single_gpu(3);
    let mut bundle = ScheduleBundle::new("contract-unsafe", &graph);
    let mut s = Schedule::new();
    s.add_lane(
        "gpu",
        vec![
            Op::Loss,
            Op::WeightGrad(LayerId(2)),
            Op::OutputGrad(LayerId(3)),
        ],
    );
    bundle.schedules.insert("broken".to_string(), s);
    bundle.to_json().expect("bundle serializes")
}

/// Bare invocations (and `--help`) are usage errors: exit 2, a usage
/// string on stderr, and no panic — for every CLI.
#[test]
fn bare_invocations_exit_2_with_usage() {
    for (name, _) in CLIS {
        let out = run(name, &[]);
        assert_no_panic(name, &out);
        assert_eq!(code(&out), 2, "{name} bare invocation");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{name} must print usage, got:\n{stderr}"
        );
        let help = run(name, &["--help"]);
        assert_no_panic(name, &help);
        assert_eq!(code(&help), 2, "{name} --help");
    }
}

/// An argument that is not UTF-8 is a usage error for every CLI and for
/// `figures`: exit 2 and no panic.
#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2() {
    use std::os::unix::ffi::OsStrExt;
    let bad = std::ffi::OsStr::from_bytes(b"\xff");
    for (name, _) in CLIS.iter().chain([FIGURES].iter()) {
        let out = Command::new(bin(name))
            .arg(bad)
            .output()
            .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"));
        assert_no_panic(name, &out);
        assert_eq!(code(&out), 2, "{name} with a non-UTF-8 argument");
    }
    let out = Command::new(bin("ooo-tune"))
        .args(["order", "--layers"])
        .arg(bad)
        .output()
        .expect("ooo-tune spawns");
    assert_no_panic("ooo-tune", &out);
    assert_eq!(code(&out), 2, "ooo-tune --layers <non-UTF-8>");
}

/// Words the hostile-argument test draws besides each spec's own modes
/// and flags: empty, dash-only, negative, 2^64 and `--flag=v` words,
/// every tool's flags, and the daemon's hostile request lines as values.
fn hostile_words() -> Vec<String> {
    let numbers = "-1 0 3 256 257 1048577 18446744073709551615 18446744073709551616";
    let others = "- -- -h --layers=3 x.json ooo-pipe2 fifo";
    let mut words: Vec<String> = format!("{numbers} {others}")
        .split(' ')
        .map(String::from)
        .collect();
    words.push(String::new());
    words.extend(ooo_faults::serve::HOSTILE.map(String::from));
    for spec in TOOLS {
        words.extend(spec.modes.iter().map(|m| m.name.to_string()));
        words.extend(spec.flags.iter().map(|f| f.name.to_string()));
    }
    words
}

/// The words a `(class, index)` draw adds for `spec`: one of its
/// modes, one of its flags alone (repeats included), one of its flags
/// with a value of the flag's kind, or a hostile word.
fn words(spec: &Spec, hostile: &[String], (class, i): (u8, usize)) -> Vec<String> {
    let flag = &spec.flags[i % spec.flags.len()];
    let value = match flag.kind {
        Kind::Switch => None,
        Kind::Text => Some(hostile[i % hostile.len()].clone()),
        _ => Some(["0", "3", "255", "256", "257", "1048576", "1048577"][i % 7].to_string()),
    };
    match class {
        0 => vec![spec.modes[i % spec.modes.len()].name.to_string()],
        1 => vec![flag.name.to_string()],
        2..=5 => [flag.name.to_string()].into_iter().chain(value).collect(),
        _ => vec![hostile[i % hostile.len()].clone()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Seeded hostile argument lists against every tool's spec, in
    /// process: the parser never panics, every rejection is an `Err`,
    /// and every accepted list renders to words that parse back to the
    /// same command line.
    #[test]
    fn hostile_argv_is_rejected_or_round_trips(
        tool in 0usize..8,
        lead in 0usize..4,
        draws in proptest::collection::vec((0u8..7, 0usize..1000), 0..6),
    ) {
        let spec = TOOLS[tool];
        let hostile = hostile_words();
        let mut words: Vec<String> = draws.into_iter().flat_map(|d| words(spec, &hostile, d)).collect();
        // Most lists lead with one of the tool's modes.
        if lead > 0 {
            words.insert(0, spec.modes[lead % spec.modes.len()].name.to_string());
        }
        if let Ok(args) = spec.parse(&words) {
            prop_assert_eq!(spec.parse(&args.render()), Ok(args));
        }
    }
}

/// Malformed, empty, and deeply-nested JSON inputs fail gracefully in
/// every file-consuming CLI: the documented nonzero exit code, no panic,
/// no stack overflow from nesting.
#[test]
fn hostile_json_inputs_fail_gracefully() {
    let malformed = scratch("malformed.json");
    std::fs::write(&malformed, "{ this is not json").unwrap();
    let empty = scratch("empty.json");
    std::fs::write(&empty, "").unwrap();
    let nested = scratch("nested.json");
    std::fs::write(&nested, "[".repeat(100_000)).unwrap();

    for hostile in [&malformed, &empty, &nested] {
        let path = hostile.to_str().unwrap();
        // Bundle consumers treat unparsable input as an IO/parse error.
        for (name, args) in [
            ("ooo-lint", vec![path]),
            ("ooo-advise", vec!["bundle", path]),
            ("ooo-memcheck", vec!["bundle", path]),
            ("ooo-tune", vec!["bundle", path]),
            ("ooo-cert", vec!["bundle", path]),
        ] {
            let out = run(name, &args);
            assert_no_panic(name, &out);
            assert_eq!(code(&out), 2, "{name} on {path}");
        }
        // The trace tool diagnoses an unparsable *trace* as a finding.
        let out = run("ooo-trace", &["summarize", path]);
        assert_no_panic("ooo-trace", &out);
        assert_eq!(code(&out), 1, "ooo-trace summarize on {path}");
    }
}

/// Each CLI's success path exits 0 and its findings path exits 1.
#[test]
fn success_and_findings_exit_codes() {
    let clean = scratch("clean.json");
    std::fs::write(&clean, clean_bundle_json()).unwrap();
    let unsafe_b = scratch("unsafe.json");
    std::fs::write(&unsafe_b, unsafe_bundle_json()).unwrap();

    // ooo-lint: clean bundle passes, broken schedule draws diagnostics.
    let out = run("ooo-lint", &[clean.to_str().unwrap()]);
    assert_no_panic("ooo-lint", &out);
    assert_eq!(code(&out), 0, "ooo-lint clean bundle");
    let out = run("ooo-lint", &[unsafe_b.to_str().unwrap()]);
    assert_no_panic("ooo-lint", &out);
    assert_eq!(code(&out), 1, "ooo-lint unsafe bundle");

    // ooo-advise: OOO-Pipe2 is advisory-free; GPipe draws advisories.
    let pipe2 = run(
        "ooo-advise",
        &[
            "pipeline",
            "--layers",
            "8",
            "--devices",
            "2",
            "--strategy",
            "pipe2",
        ],
    );
    assert_no_panic("ooo-advise", &pipe2);
    assert_eq!(code(&pipe2), 0, "ooo-advise pipe2");
    let gpipe = run(
        "ooo-advise",
        &[
            "pipeline",
            "--layers",
            "8",
            "--devices",
            "2",
            "--strategy",
            "gpipe",
        ],
    );
    assert_no_panic("ooo-advise", &gpipe);
    assert_eq!(code(&gpipe), 1, "ooo-advise gpipe");

    // ooo-memcheck: the clean bundle's ledger draws no OM findings; the
    // broken schedule's premature dW2 is a use-of-freed-or-undefined
    // lifetime error, and a starvation budget flags any clean ledger.
    let out = run("ooo-memcheck", &["bundle", clean.to_str().unwrap()]);
    assert_no_panic("ooo-memcheck", &out);
    assert_eq!(code(&out), 0, "ooo-memcheck clean bundle");
    let out = run("ooo-memcheck", &["bundle", unsafe_b.to_str().unwrap()]);
    assert_no_panic("ooo-memcheck", &out);
    assert_eq!(code(&out), 1, "ooo-memcheck unsafe bundle");
    let out = run(
        "ooo-memcheck",
        &["order", "--layers", "6", "--k", "2", "--budget", "1"],
    );
    assert_no_panic("ooo-memcheck", &out);
    assert_eq!(code(&out), 1, "ooo-memcheck over-budget order");

    // ooo-trace: export a pipeline timeline, then summarize it back.
    let trace = scratch("trace.json");
    let out = run(
        "ooo-trace",
        &[
            "export",
            "--system",
            "pipeline",
            "--out",
            trace.to_str().unwrap(),
        ],
    );
    assert_no_panic("ooo-trace", &out);
    assert_eq!(code(&out), 0, "ooo-trace export");
    let out = run("ooo-trace", &["summarize", trace.to_str().unwrap()]);
    assert_no_panic("ooo-trace", &out);
    assert_eq!(code(&out), 0, "ooo-trace summarize");

    // ooo-chaos: a deterministic campaign completes with recovery intact.
    let out = run("ooo-chaos", &["run", "--seed", "42", "--scenarios", "5"]);
    assert_no_panic("ooo-chaos", &out);
    assert_eq!(code(&out), 0, "ooo-chaos run");
    let out = run("ooo-chaos", &["list"]);
    assert_no_panic("ooo-chaos", &out);
    assert_eq!(code(&out), 0, "ooo-chaos list");

    // ooo-tune: a known-improvable depth-0 order tunes successfully; the
    // broken bundle is refused by the safety gate.
    let out = run(
        "ooo-tune",
        &["order", "--layers", "8", "--k", "0", "--sync", "3"],
    );
    assert_no_panic("ooo-tune", &out);
    assert_eq!(code(&out), 0, "ooo-tune order");
    let out = run("ooo-tune", &["bundle", unsafe_b.to_str().unwrap()]);
    assert_no_panic("ooo-tune", &out);
    assert_eq!(code(&out), 1, "ooo-tune unsafe bundle");

    // ooo-cert: a sync-free order realization runs back-to-back and is
    // certified optimal (exit 0); the eager depth-0 order under heavy
    // syncs is refuted with a better witness (exit 1, a finding).
    let out = run(
        "ooo-cert",
        &["order", "--layers", "3", "--k", "0", "--sync", "0"],
    );
    assert_no_panic("ooo-cert", &out);
    assert_eq!(code(&out), 0, "ooo-cert optimal order");
    let out = run(
        "ooo-cert",
        &["order", "--layers", "3", "--k", "0", "--sync", "2"],
    );
    assert_no_panic("ooo-cert", &out);
    assert_eq!(code(&out), 1, "ooo-cert improvable order");
}

/// `figures` under its contract: an unknown id is a usage error (exit
/// 2, usage on stderr, no panic); `--list` prints exactly the ids the
/// snapshot pins, in order; and a figure prints the same bytes twice.
#[test]
fn figures_unknown_id_list_and_determinism() {
    let (name, _) = FIGURES;
    let unknown = run(name, &["fig3", "nonesuch"]);
    assert_no_panic(name, &unknown);
    assert_eq!(code(&unknown), 2, "figures unknown id");
    assert!(
        unknown.stdout.is_empty(),
        "nothing printed before the check"
    );
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        stderr.contains("nonesuch") && stderr.contains("usage:"),
        "unknown-id error should name the offender and print usage:\n{stderr}"
    );

    let list = run(name, &["--list"]);
    assert_eq!(code(&list), 0, "figures --list");
    let pinned: Vec<&str> = include_str!("../docs/figures_snapshot.txt")
        .lines()
        .filter_map(|l| l.strip_prefix("================ "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let listed = String::from_utf8_lossy(&list.stdout);
    assert_eq!(listed.lines().collect::<Vec<_>>(), pinned);

    let first = run(name, &["fig3"]);
    let second = run(name, &["fig3"]);
    assert_eq!(code(&first), 0, "figures fig3");
    assert!(!first.stdout.is_empty());
    assert_eq!(
        first.stdout, second.stdout,
        "figures fig3 not byte-deterministic"
    );
}

/// Every data-parallel strategy of the zoo, exported as one bundle over
/// an 8-layer graph, goes through `ooo-advise bundle --schedule NAME`
/// with a contract exit code (0 or 1) and no panic.
#[test]
fn advise_accepts_every_zoo_strategy_from_a_bundle() {
    let shape = Shape::DataParallel { layers: 8 };
    let graph = shape.graph().expect("8-layer data-parallel graph");
    let mut bundle = ScheduleBundle::new("strategy-zoo", &graph);
    for strat in zoo() {
        if strat.applicable(shape) {
            let generated = strat
                .generate(shape, &UnitCost)
                .expect("strategy generates");
            bundle
                .schedules
                .insert(strat.name().to_string(), generated.schedule);
        }
    }
    assert_eq!(bundle.schedules.len(), 6, "six data-parallel strategies");
    let path = scratch("zoo-bundle.json");
    std::fs::write(&path, bundle.to_json().expect("bundle serializes")).unwrap();
    for name in bundle.schedules.keys() {
        let out = run(
            "ooo-advise",
            &["bundle", path.to_str().unwrap(), "--schedule", name],
        );
        assert_no_panic("ooo-advise", &out);
        assert!(
            code(&out) <= 1,
            "ooo-advise --schedule {name}: exit {}",
            code(&out)
        );
    }
}

/// The daemon's one-shot mode under the shared contract: one request
/// in, one response out, exit 0 on `ok`, 1 on any other response
/// status, 2 on usage errors — and hostile stdin (malformed, empty,
/// bomb-nested) draws a structured error without a panic.
#[test]
fn serve_oneshot_exit_codes_and_hostile_stdin() {
    let ok = run_with_stdin(
        "ooo-serve",
        &["--oneshot"],
        "{\"id\":1,\"cmd\":\"order\",\"layers\":4,\"k\":1,\"tier\":\"heuristic\"}\n",
    );
    assert_no_panic("ooo-serve", &ok);
    assert_eq!(code(&ok), 0, "ooo-serve oneshot success");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(stdout.lines().count(), 1, "one response: {stdout}");
    assert!(
        stdout.starts_with("{\"id\":1,\"status\":\"ok\""),
        "{stdout}"
    );

    // Findings path: a refused request is a structured response and
    // exit 1 (timeouts count — an expired deadline is not a success).
    let timeout = run_with_stdin(
        "ooo-serve",
        &["--oneshot"],
        "{\"cmd\":\"order\",\"layers\":4,\"timeout_ms\":0}\n",
    );
    assert_no_panic("ooo-serve", &timeout);
    assert_eq!(code(&timeout), 1, "ooo-serve oneshot timeout");

    for hostile in [
        "not json\n",
        "{\"cmd\":\"order\"}\n",
        "{\"cmd\":\"nope\"}\n",
        &format!("{}\n", "[".repeat(100_000)),
    ] {
        let out = run_with_stdin("ooo-serve", &["--oneshot"], hostile);
        assert_no_panic("ooo-serve", &out);
        assert_eq!(code(&out), 1, "ooo-serve oneshot on {hostile:.40?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), 1, "one response: {stdout}");
        assert!(
            stdout.contains("\"status\":\"error\""),
            "structured error expected: {stdout}"
        );
    }

    // Empty stdin is zero requests, not a success.
    let empty = run_with_stdin("ooo-serve", &["--oneshot"], "");
    assert_no_panic("ooo-serve", &empty);
    assert_eq!(code(&empty), 1, "ooo-serve oneshot empty stdin");

    // Usage errors stay on the CLI side of the contract.
    let usage = run_with_stdin("ooo-serve", &["--oneshot", "--workers"], "");
    assert_eq!(code(&usage), 2, "ooo-serve dangling flag");
}

/// Double runs of `--oneshot` and `--daemon` invocations over the same
/// stdin are byte-identical — the stream-level determinism the serve
/// conformance suite proves in-process, held at the process boundary.
#[test]
fn serve_double_runs_are_byte_identical() {
    let oneshot = "{\"id\":\"d\",\"cmd\":\"order\",\"layers\":6,\"k\":1,\"sync\":2}\n";
    let daemon = concat!(
        "{\"id\":1,\"cmd\":\"order\",\"layers\":5,\"k\":0,\"sync\":3}\n",
        "{\"id\":2,\"cmd\":\"cert\",\"layers\":3,\"k\":0,\"sync\":2}\n",
        "{\"id\":1,\"cmd\":\"order\",\"layers\":5,\"k\":0,\"sync\":3}\n",
        "bogus line\n",
        "{\"id\":3,\"cmd\":\"stats\"}\n",
    );
    for (args, input) in [
        (vec!["--oneshot"], oneshot),
        (vec!["--daemon", "--workers", "2"], daemon),
    ] {
        let first = run_with_stdin("ooo-serve", &args, input);
        let second = run_with_stdin("ooo-serve", &args, input);
        assert_no_panic("ooo-serve", &first);
        assert_eq!(
            first.stdout, second.stdout,
            "ooo-serve {args:?} not byte-deterministic"
        );
        assert_eq!(code(&first), code(&second), "ooo-serve exit code changed");
    }
}

/// Double runs of the same invocation are byte-identical on stdout —
/// the determinism half of the contract, JSON mode included.
#[test]
fn double_runs_are_byte_identical() {
    let unsafe_b = scratch("unsafe-det.json");
    std::fs::write(&unsafe_b, unsafe_bundle_json()).unwrap();

    let invocations: Vec<(&str, Vec<&str>)> = vec![
        ("ooo-lint", vec![unsafe_b.to_str().unwrap(), "--json"]),
        (
            "ooo-advise",
            vec![
                "pipeline",
                "--layers",
                "8",
                "--devices",
                "2",
                "--strategy",
                "gpipe",
                "--json",
            ],
        ),
        (
            "ooo-memcheck",
            vec!["bundle", unsafe_b.to_str().unwrap(), "--json"],
        ),
        ("ooo-trace", vec!["export", "--system", "single"]),
        ("ooo-trace", vec!["export", "--system", "datapar"]),
        ("ooo-trace", vec!["export", "--system", "pipeline"]),
        ("ooo-trace", vec!["export", "--system", "hybrid"]),
        (
            "ooo-chaos",
            vec!["run", "--seed", "42", "--scenarios", "5", "--json"],
        ),
        (
            "ooo-tune",
            vec![
                "order", "--layers", "8", "--k", "0", "--sync", "3", "--json",
            ],
        ),
        (
            "ooo-cert",
            vec![
                "order", "--layers", "3", "--k", "0", "--sync", "2", "--json",
            ],
        ),
    ];
    for (name, args) in invocations {
        let first = run(name, &args);
        let second = run(name, &args);
        assert_no_panic(name, &first);
        assert_eq!(
            first.stdout, second.stdout,
            "{name} {args:?} not byte-deterministic"
        );
        assert_eq!(code(&first), code(&second), "{name} exit code changed");
    }
}

/// Directory of the golden fixtures and their input bundles.
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cli_golden");

/// Golden outputs of the tune, certify and chaos front ends: `(fixture,
/// invocation, exit code)`. A `.json` fixture holds the invocation's
/// stdout, an `.err` fixture its stderr; `{F}` in an invocation is the
/// fixture directory.
const GOLDEN: [(&str, &str, i32); 35] = [
    (
        "tune_order.json",
        "ooo-tune order --layers 8 --k 0 --sync 3 --json",
        0,
    ),
    (
        "tune_order_cap.json",
        "ooo-tune order --layers 8 --k 0 --sync 3 --memory-cap 999999999 --json",
        0,
    ),
    (
        "tune_order_tight_cap.json",
        "ooo-tune order --layers 6 --k 2 --memory-cap 1 --json",
        0,
    ),
    // The heuristic's own ledger peak: the uncapped tune's first move
    // would raise it, so the cap binds and is still met.
    (
        "tune_order_binding_cap.json",
        "ooo-tune order --layers 12 --k 0 --sync 3 --memory-cap 15 --json",
        0,
    ),
    // The 32-layer heuristic carries 32 bytes in and peaks at 35. A cap
    // of 31 lies below the carried-in floor, so no candidate can meet it.
    (
        "tune_order_floor_cap.json",
        "ooo-tune order --layers 32 --k 0 --sync 3 --memory-cap 31 --json",
        0,
    ),
    // Between the floor (32) and the heuristic's peak (35): every
    // candidate's peak is measured.
    (
        "tune_order_sweep_cap.json",
        "ooo-tune order --layers 32 --k 0 --sync 3 --memory-cap 34 --json",
        0,
    ),
    // The link served first-come-first-served: the order scorer's
    // resumed link plan under the FIFO policy.
    (
        "tune_order_48_fifo.json",
        "ooo-tune order --layers 48 --k 0 --sync 3 --policy fifo --json",
        0,
    ),
    // 80 layers: the link's ready set spans two 64-bit words.
    (
        "tune_order_80.json",
        "ooo-tune order --layers 80 --k 0 --sync 3 --json",
        0,
    ),
    (
        "tune_bundle_clean.json",
        "ooo-tune bundle {F}/clean_bundle.json --json",
        0,
    ),
    (
        "tune_bundle_unsafe.json",
        "ooo-tune bundle {F}/unsafe_bundle.json --json",
        1,
    ),
    (
        "tune_bundle_datapar.json",
        "ooo-tune bundle {F}/datapar_bundle.json --json",
        0,
    ),
    (
        "tune_bundle_datapar_one.json",
        "ooo-tune bundle {F}/datapar_bundle.json --schedule reverse_first_2 --policy fifo --json",
        0,
    ),
    (
        "tune_pipeline_gpipe.json",
        "ooo-tune pipeline --layers 8 --devices 4 --strategy gpipe --json",
        0,
    ),
    (
        "tune_pipeline_pipe2.json",
        "ooo-tune pipeline --layers 8 --devices 4 --strategy pipe2 --json",
        0,
    ),
    (
        "tune_pipeline_megatron.json",
        "ooo-tune pipeline --layers 8 --devices 4 --strategy megatron --json",
        0,
    ),
    (
        "tune_pipeline_pipe2_window.json",
        "ooo-tune pipeline --layers 24 --devices 4 --strategy pipe2 --window 2 --json",
        0,
    ),
    // The sizes of perfbench's `tune_large` workload.
    (
        "tune_order_48.json",
        "ooo-tune order --layers 48 --k 0 --sync 3 --json",
        0,
    ),
    (
        "tune_pipeline_gpipe_48x8.json",
        "ooo-tune pipeline --layers 48 --devices 8 --strategy gpipe --json",
        0,
    ),
    (
        "tune_pipeline_pipe2_128x8_w4.json",
        "ooo-tune pipeline --layers 128 --devices 8 --strategy pipe2 --window 4 --json",
        0,
    ),
    // A cap below gpipe 48x8's carried-in floor: every relocation pays
    // the penalty, so greedy descent ranks penalty-shifted floors.
    (
        "tune_pipeline_gpipe_48x8_cap.json",
        "ooo-tune pipeline --layers 48 --devices 8 --strategy gpipe --memory-cap 1 --json",
        0,
    ),
    (
        "tune_pipeline_megatron_32x4.json",
        "ooo-tune pipeline --layers 32 --devices 4 --strategy megatron --json",
        0,
    ),
    // Binding: the uncapped tune reaches makespan 26 at peak 18.
    (
        "tune_pipeline_gpipe_cap.json",
        "ooo-tune pipeline --layers 12 --devices 4 --strategy gpipe --memory-cap 16 --json",
        0,
    ),
    // Between pipe2 8x4's carried-in floor (8) and its peak (15): the
    // over-cap heuristic descends to a peak of 12 at makespan 21.
    (
        "tune_pipeline_pipe2_cap.json",
        "ooo-tune pipeline --layers 8 --devices 4 --strategy pipe2 --memory-cap 12 --json",
        0,
    ),
    // Greedy descent accepts a regroup: group 3 to modulo 1, then two
    // relocations on the regrouped schedule, down to the floor.
    (
        "tune_pipeline_pipe2_regroup.json",
        "ooo-tune pipeline --layers 16 --devices 4 --strategy pipe2 --group 3 --json",
        0,
    ),
    // As above, but not proven optimal: the restarts perturb from the
    // regrouped state.
    (
        "tune_pipeline_pipe2_regroup_w4.json",
        "ooo-tune pipeline --layers 24 --devices 4 --strategy pipe2 --group 3 --window 4 --json",
        0,
    ),
    (
        "cert_order.json",
        "ooo-cert order --layers 3 --k 0 --sync 2 --json",
        1,
    ),
    (
        "cert_bundle_clean.json",
        "ooo-cert bundle {F}/clean_bundle.json --json",
        0,
    ),
    (
        "cert_bundle_unsafe.err",
        "ooo-cert bundle {F}/unsafe_bundle.json --json",
        2,
    ),
    (
        "cert_bundle_datapar.json",
        "ooo-cert bundle {F}/datapar_bundle.json --json",
        0,
    ),
    (
        "cert_pipeline_gpipe.json",
        "ooo-cert pipeline --layers 4 --devices 2 --strategy gpipe --json",
        1,
    ),
    (
        "tune_unknown_strategy.err",
        "ooo-tune pipeline --layers 4 --devices 2 --strategy bogus",
        2,
    ),
    (
        "cert_unknown_policy.err",
        "ooo-cert order --layers 4 --policy bogus",
        2,
    ),
    (
        "tune_missing_entry.err",
        "ooo-tune bundle {F}/clean_bundle.json --schedule nope",
        2,
    ),
    (
        "cert_missing_entry.err",
        "ooo-cert bundle {F}/clean_bundle.json --schedule nope",
        2,
    ),
    // The seeded fault campaign over the data-parallel engine.
    (
        "chaos_run.json",
        "ooo-chaos run --seed 42 --scenarios 5 --json",
        0,
    ),
];

fn golden(file: &str) -> Vec<u8> {
    std::fs::read(format!("{GOLDEN_DIR}/{file}"))
        .unwrap_or_else(|e| panic!("golden fixture {file}: {e}"))
}

/// The tune and certify front ends reproduce their golden outputs byte
/// for byte: `ooo-tune` and `ooo-cert` in every mode (including gate
/// refusals, memory caps and usage errors), the `ooo-chaos` campaign
/// report, and the `ooo-serve`
/// daemon's response stream for the smoke-test request file of
/// `scripts/check.sh`. The input bundles are the ones this file builds.
#[test]
fn tune_and_cert_outputs_match_golden_bytes() {
    assert_eq!(
        golden("clean_bundle.json"),
        clean_bundle_json().into_bytes()
    );
    assert_eq!(
        golden("unsafe_bundle.json"),
        unsafe_bundle_json().into_bytes()
    );
    for (fixture, invocation, want_code) in GOLDEN {
        let invocation = invocation.replace("{F}", GOLDEN_DIR);
        let mut words = invocation.split_whitespace();
        let name = words.next().expect("tool name");
        let args: Vec<&str> = words.collect();
        let out = run(name, &args);
        assert_no_panic(name, &out);
        assert_eq!(code(&out), want_code, "{invocation}");
        let got = if fixture.ends_with(".err") {
            &out.stderr
        } else {
            &out.stdout
        };
        assert!(
            *got == golden(fixture),
            "{invocation} differs from {fixture}:\n{}",
            String::from_utf8_lossy(got)
        );
    }
    let requests = String::from_utf8(golden("serve_requests.jsonl")).unwrap();
    let out = run_with_stdin("ooo-serve", &["--daemon"], &requests);
    assert_eq!(code(&out), 0, "ooo-serve --daemon");
    assert!(
        out.stdout == golden("serve_daemon.jsonl"),
        "ooo-serve --daemon differs from serve_daemon.jsonl:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Runs a CLI with `--json` and parses its stdout; a single-document
/// output becomes a one-element list.
fn cli_docs(name: &str, args: &[&str]) -> Vec<Value> {
    let out = run(name, args);
    assert_no_panic(name, &out);
    let doc = Value::parse(&String::from_utf8_lossy(&out.stdout))
        .unwrap_or_else(|e| panic!("{name} {args:?}: bad JSON: {e}"));
    match doc {
        Value::Arr(items) => items,
        one => vec![one],
    }
}

/// Sends one request to `ooo-serve --oneshot` and returns its `result`
/// as a list (bundle results already are one).
fn serve_results(request: &str) -> Vec<Value> {
    let out = run_with_stdin("ooo-serve", &["--oneshot"], &format!("{request}\n"));
    assert_no_panic("ooo-serve", &out);
    let doc = Value::parse(&String::from_utf8_lossy(&out.stdout)).expect("serve JSON");
    match doc.get("result") {
        Some(Value::Arr(items)) => items.clone(),
        Some(one) => vec![one.clone()],
        None => panic!("{request}: no result in {}", doc.to_compact()),
    }
}

/// Asserts that a CLI item and a serve item agree on every key they
/// share. The CLI lists the moves where serve counts them, and names a
/// pipeline by its label where serve uses the wire name.
fn assert_agree(what: &str, cli: &Value, serve: &Value) {
    let fields = serve.as_obj().expect("serve result object");
    let mut shared = 0;
    for (key, want) in fields {
        let Some(got) = cli.get(key) else { continue };
        shared += 1;
        match key.as_str() {
            "moves" => assert_eq!(
                got.as_arr().map(<[Value]>::len),
                want.as_usize(),
                "{what}: moves"
            ),
            "name" if cli.get("kind").and_then(Value::as_str) == Some("pipeline") => {
                let strategy = Strategy::parse(want.as_str().unwrap()).unwrap();
                assert_eq!(got.as_str(), Some(strategy.label()), "{what}: name");
            }
            _ => assert_eq!(got, want, "{what}: {key}"),
        }
    }
    assert!(shared >= 3, "{what}: only {shared} shared keys");
}

/// ROADMAP 2(b): the CLI front ends and the daemon agree. At tier
/// `full` with no budget, `ooo-tune … --json` and `ooo-serve --oneshot`
/// return the same order, pipeline and bundle results (including gate
/// refusals and memory caps), and `ooo-cert order` and `{"cmd":"cert"}`
/// the same certificate.
#[test]
fn cli_and_serve_agree() {
    let datapar = String::from_utf8(golden("datapar_bundle.json")).unwrap();
    let datapar = Value::parse(&datapar).unwrap().to_compact();
    let unsafe_b = Value::parse(&unsafe_bundle_json()).unwrap().to_compact();
    let clean_path = format!("{GOLDEN_DIR}/clean_bundle.json");
    let clean = Value::parse(&clean_bundle_json()).unwrap().to_compact();
    let unsafe_path = format!("{GOLDEN_DIR}/unsafe_bundle.json");
    let datapar_path = format!("{GOLDEN_DIR}/datapar_bundle.json");
    let cases: Vec<(Vec<&str>, String)> = vec![
        (
            vec!["order", "--layers", "8", "--k", "0", "--sync", "3"],
            r#"{"cmd":"order","layers":8,"k":0,"sync":3,"tier":"full"}"#.to_string(),
        ),
        (
            vec!["order", "--layers", "6", "--k", "2", "--policy", "fifo"],
            r#"{"cmd":"order","layers":6,"k":2,"policy":"fifo","tier":"full"}"#.to_string(),
        ),
        (
            vec!["order", "--layers", "6", "--k", "2", "--memory-cap", "1"],
            r#"{"cmd":"order","layers":6,"k":2,"memory_cap_bytes":1,"tier":"full"}"#.to_string(),
        ),
        (
            vec![
                "pipeline",
                "--layers",
                "8",
                "--devices",
                "4",
                "--strategy",
                "gpipe",
            ],
            r#"{"cmd":"pipeline","layers":8,"devices":4,"strategy":"gpipe","tier":"full"}"#
                .to_string(),
        ),
        (
            vec![
                "pipeline",
                "--layers",
                "8",
                "--devices",
                "4",
                "--strategy",
                "pipe2",
                "--group",
                "2",
            ],
            r#"{"cmd":"pipeline","layers":8,"devices":4,"strategy":"pipe2","group":2,"tier":"full"}"#
                .to_string(),
        ),
        (
            vec!["bundle", &datapar_path],
            format!(r#"{{"cmd":"bundle","bundle":{datapar},"tier":"full"}}"#),
        ),
        (
            vec!["bundle", &clean_path],
            format!(r#"{{"cmd":"bundle","bundle":{clean},"tier":"full"}}"#),
        ),
        (
            vec!["bundle", &unsafe_path],
            format!(r#"{{"cmd":"bundle","bundle":{unsafe_b},"tier":"full"}}"#),
        ),
    ];
    for (args, request) in &cases {
        let mut args = args.clone();
        args.push("--json");
        let cli = cli_docs("ooo-tune", &args);
        let serve = serve_results(request);
        assert_eq!(cli.len(), serve.len(), "ooo-tune {args:?}: result count");
        for (c, s) in cli.iter().zip(&serve) {
            assert_agree(&format!("ooo-tune {args:?}"), c, s);
        }
    }

    let cli = cli_docs(
        "ooo-cert",
        &[
            "order", "--layers", "3", "--k", "0", "--sync", "2", "--json",
        ],
    );
    let serve = serve_results(r#"{"cmd":"cert","layers":3,"k":0,"sync":2,"tier":"full"}"#);
    let (cli, serve) = (&cli[0], &serve[0]);
    assert_eq!(cli.get("status"), serve.get("cert_status"), "cert status");
    for key in [
        "name",
        "baseline_makespan",
        "best_makespan",
        "lower_bound",
        "optimal",
        "nodes",
    ] {
        assert_eq!(cli.get(key), serve.get(key), "cert {key}");
    }
}
