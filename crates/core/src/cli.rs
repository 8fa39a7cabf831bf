//! The one front end of the workspace's command-line tools: flag
//! syntax, usage text, output and bundle loading.
//!
//! Each tool is a [`Spec`]: its modes and, per flag, its name, whether
//! it takes a value, the modes that accept it and an optional numeric
//! maximum. [`Spec::parse`] reads an argument list against it and
//! [`Spec::usage`] renders the usage text from it. What a value *means*
//! stays with each tool: defaults, `--k` at most `--layers`, which
//! flags a mode needs (for `ooo-tune` and `ooo-cert`, in the [`Job`]
//! they share). [`Args::write_report`], [`Args::emit`] and
//! [`load_bundle`] are the tools' shared output and input.
//!
//! The syntax is the same for every tool:
//!
//! - the mode word comes first (`ooo-tune order …`); a mode spelled as
//!   a flag (`ooo-serve --daemon`) may stand anywhere, last one wins;
//! - a flag that takes a value takes the next word verbatim, and the
//!   last occurrence of a flag wins;
//! - a word starting with `-` is a flag, any other word is the mode's
//!   one positional argument;
//! - no mode, `-h`/`--help` and an argument that is not UTF-8 are usage
//!   errors, like every other rejection: exit 2, message on stderr.

use crate::datapar::CommPolicy;
use crate::export::ScheduleBundle;
use crate::graph::MAX_LAYERS;
use crate::pipeline::Strategy;
use crate::reverse_k::MAX_SYNC;
use crate::{SimTime, TrainGraph};
use std::ffi::OsString;
use std::process::ExitCode;

/// The value a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// None: the flag is a switch.
    Switch,
    /// A count (`usize`).
    Count,
    /// A non-negative 64-bit integer.
    U64,
    /// Any word.
    Text,
}

/// One flag of a tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// Its value.
    pub kind: Kind,
    /// The value's name in the usage text.
    pub meta: &'static str,
    /// The modes that accept it; empty for every mode.
    pub modes: &'static [&'static str],
    /// The largest value a numeric flag accepts.
    pub max: Option<u64>,
}

impl Flag {
    const fn new(name: &'static str, kind: Kind, meta: &'static str) -> Flag {
        Flag {
            name,
            kind,
            meta,
            modes: &[],
            max: None,
        }
    }

    /// A switch.
    const fn switch(name: &'static str) -> Flag {
        Flag::new(name, Kind::Switch, "")
    }

    /// A flag taking a count.
    const fn count(name: &'static str, meta: &'static str) -> Flag {
        Flag::new(name, Kind::Count, meta)
    }

    /// A flag taking a 64-bit integer.
    const fn u64(name: &'static str, meta: &'static str) -> Flag {
        Flag::new(name, Kind::U64, meta)
    }

    /// A flag taking any word.
    const fn text(name: &'static str, meta: &'static str) -> Flag {
        Flag::new(name, Kind::Text, meta)
    }

    /// The flag, accepted only in `modes`.
    const fn only(self, modes: &'static [&'static str]) -> Flag {
        Flag { modes, ..self }
    }

    /// The flag, accepting no value above `max`.
    const fn max(self, max: u64) -> Flag {
        Flag {
            max: Some(max),
            ..self
        }
    }

    fn accepts(&self, mode: &str) -> bool {
        self.modes.is_empty() || self.modes.contains(&mode)
    }

    /// Reads the flag's value, taking the next word for a flag that
    /// takes one.
    fn read<'w>(&self, words: &mut impl Iterator<Item = &'w String>) -> Result<Value, String> {
        if self.kind == Kind::Switch {
            return Ok(Value::On);
        }
        let word = words
            .next()
            .ok_or_else(|| format!("{} needs a value", self.name))?;
        let n = match self.kind {
            Kind::Count => word.parse::<usize>().map(|n| n as u64).ok(),
            Kind::U64 => word.parse::<u64>().ok(),
            _ => return Ok(Value::Text(word.clone())),
        };
        let n = n.ok_or_else(|| format!("{}: not a non-negative integer: {word:?}", self.name))?;
        match self.max {
            Some(max) if n > max => Err(format!("{}: {n} is above the limit of {max}", self.name)),
            _ => Ok(Value::Num(n)),
        }
    }
}

/// One mode of a tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// The mode word; empty for a tool without modes.
    pub name: &'static str,
    /// The name of the mode's one positional argument in the usage
    /// text, if it takes one.
    pub positional: Option<&'static str>,
}

const fn mode(name: &'static str, positional: Option<&'static str>) -> Mode {
    Mode { name, positional }
}

/// A tool's command line.
#[derive(Debug, PartialEq, Eq)]
pub struct Spec {
    /// The tool's name, which leads its runtime error messages.
    pub tool: &'static str,
    /// Its modes.
    pub modes: &'static [Mode],
    /// Its flags.
    pub flags: &'static [Flag],
}

/// A flag's parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    /// A switch that was given.
    On,
    /// A count or an integer.
    Num(u64),
    /// A word.
    Text(String),
}

/// A run that stops early: its exit code and its message on stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exit {
    code: u8,
    message: String,
}

impl Exit {
    /// A usage error: exit 2, `message` as is.
    pub fn usage(message: String) -> Exit {
        Exit { code: 2, message }
    }
}

/// Ends a tool's run: `Ok(false)` exits 0, `Ok(true)` (findings) exits
/// 1, and an [`Exit`] prints its message and exits with its code.
pub fn finish(run: Result<bool, Exit>) -> ExitCode {
    match run {
        Ok(findings) => ExitCode::from(u8::from(findings)),
        Err(exit) => {
            eprintln!("{}", exit.message);
            ExitCode::from(exit.code)
        }
    }
}

/// Converts words to UTF-8 strings, rejecting the first that is not.
fn utf8_words(words: impl IntoIterator<Item = OsString>) -> Result<Vec<String>, String> {
    words
        .into_iter()
        .map(|w| {
            w.into_string()
                .map_err(|w| format!("argument is not valid UTF-8: {:?}", w.to_string_lossy()))
        })
        .collect()
}

/// The process's arguments after the program name, as UTF-8 strings.
///
/// # Errors
///
/// `argument is not valid UTF-8: "…"` for the first that is not, shown
/// lossily.
pub fn argv() -> Result<Vec<String>, String> {
    utf8_words(std::env::args_os().skip(1))
}

impl Spec {
    /// The usage text: one line per mode, listing the flags it accepts.
    pub fn usage(&self) -> String {
        let lines: Vec<String> = self
            .modes
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let lead = if i == 0 { "usage:" } else { "      " };
                let mut line = format!("{lead} {}", self.tool);
                for word in [m.name, m.positional.unwrap_or_default()] {
                    if !word.is_empty() {
                        line = format!("{line} {word}");
                    }
                }
                for f in self.flags.iter().filter(|f| f.accepts(m.name)) {
                    line = match f.kind {
                        Kind::Switch => format!("{line} [{}]", f.name),
                        _ => format!("{line} [{} {}]", f.name, f.meta),
                    };
                }
                line
            })
            .collect();
        lines.join("\n")
    }

    /// Parses `words`, the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message for every word the spec does not accept, and the usage
    /// text when no mode is given or help is asked for.
    pub fn parse(&'static self, words: &[String]) -> Result<Args, String> {
        let usage = || self.usage();
        let mut words = words.iter();
        let flag_modes = self.modes.iter().any(|m| m.name.starts_with('-'));
        let mut mode = match self.modes {
            [only] if only.name.is_empty() => Some(only),
            _ if flag_modes => None,
            _ => match words.next().map(String::as_str) {
                None | Some("-h" | "--help") => return Err(usage()),
                Some(word) => Some(
                    self.modes
                        .iter()
                        .find(|m| m.name == word)
                        .ok_or_else(|| format!("unknown mode: {word:?}\n{}", usage()))?,
                ),
            },
        };
        let mut values = vec![None; self.flags.len()];
        let mut positional = None;
        while let Some(word) = words.next() {
            if let Some(m) = self.modes.iter().find(|m| flag_modes && m.name == word) {
                mode = Some(m);
            } else if matches!(word.as_str(), "-h" | "--help") {
                return Err(usage());
            } else if word.starts_with('-') {
                let i = self
                    .flags
                    .iter()
                    .position(|f| f.name == word)
                    .ok_or_else(|| format!("unknown flag: {word}"))?;
                values[i] = Some(self.flags[i].read(&mut words)?);
            } else if positional.is_none() {
                positional = Some(word.clone());
            } else {
                return Err(format!("unexpected argument: {word}"));
            }
        }
        let mode = mode.ok_or_else(usage)?;
        let title = format!("{} {}", self.tool, mode.name);
        if let (Some(word), None) = (&positional, mode.positional) {
            return Err(format!("unexpected argument: {word}"));
        }
        for (f, _) in self.flags.iter().zip(&values).filter(|(_, v)| v.is_some()) {
            if !f.accepts(mode.name) {
                return Err(format!("{} does not apply to {}", f.name, title.trim_end()));
            }
        }
        Ok(Args {
            spec: self,
            mode: mode.name,
            values,
            positional,
        })
    }

    /// Parses the process's own arguments; every rejection is a usage
    /// error.
    ///
    /// # Errors
    ///
    /// As [`argv`] and [`Spec::parse`], with exit code 2.
    pub fn args(&'static self) -> Result<Args, Exit> {
        argv()
            .and_then(|words| self.parse(&words))
            .map_err(Exit::usage)
    }

    /// A runtime failure: `<tool>: <message>` with exit code `code`.
    pub fn fail(&self, code: u8, message: impl std::fmt::Display) -> Exit {
        Exit {
            code,
            message: format!("{}: {message}", self.tool),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    spec: &'static Spec,
    mode: &'static str,
    values: Vec<Option<Value>>,
    positional: Option<String>,
}

impl Args {
    /// The mode word; empty for a tool without modes.
    pub fn mode(&self) -> &'static str {
        self.mode
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    fn value(&self, name: &str) -> Option<&Value> {
        let i = self.spec.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not a flag of {}", self.spec.tool));
        self.values[i].as_ref()
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of the integer flag `name`.
    pub fn num(&self, name: &str) -> Option<u64> {
        match self.value(name)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of the count flag `name`.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.num(name).map(|n| n as usize)
    }

    /// The value of the word flag `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.value(name)? {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The words that parse back to this command line.
    pub fn render(&self) -> Vec<String> {
        let mut words: Vec<String> = Some(self.mode)
            .filter(|m| !m.is_empty())
            .map(str::to_string)
            .into_iter()
            .collect();
        for (f, v) in self.spec.flags.iter().zip(&self.values) {
            match v {
                None => continue,
                Some(Value::On) => words.push(f.name.to_string()),
                Some(Value::Num(n)) => words.extend([f.name.to_string(), n.to_string()]),
                Some(Value::Text(t)) => words.extend([f.name.to_string(), t.clone()]),
            }
        }
        words.extend(self.positional.clone());
        words
    }

    fn write(&self, path: &str, text: &str) -> Result<(), Exit> {
        std::fs::write(path, text)
            .map_err(|e| self.spec.fail(2, format!("cannot write {path}: {e}")))
    }

    /// Writes `text` to the `--out` file, or to stdout without one.
    ///
    /// # Errors
    ///
    /// `cannot write <path>: …`, exit 2.
    pub fn emit(&self, text: &str) -> Result<(), Exit> {
        match self.text("--out") {
            Some(path) => self.write(path, text),
            None => {
                print!("{text}");
                Ok(())
            }
        }
    }

    /// Writes the report of `items`. Their JSON documents, one, or
    /// several joined as an array, go to the `--out` file with a
    /// trailing newline and, with `--json`, to stdout; without `--json`
    /// stdout gets their human text.
    ///
    /// # Errors
    ///
    /// As [`Args::emit`]; nothing is printed after a failed write.
    pub fn write_report<T>(
        &self,
        items: &[T],
        json: impl Fn(&T) -> String,
        human: impl Fn(&T) -> String,
    ) -> Result<(), Exit> {
        let out = self.text("--out");
        let to_json = self.switch("--json");
        let doc = (to_json || out.is_some()).then(|| {
            let docs: Vec<String> = items.iter().map(json).collect();
            match docs.as_slice() {
                [one] => one.clone(),
                _ => format!("[\n{}\n]", docs.join(",\n")),
            }
        });
        if let (Some(path), Some(doc)) = (out, &doc) {
            self.write(path, &format!("{doc}\n"))?;
        }
        match doc.filter(|_| to_json) {
            Some(doc) => println!("{doc}"),
            None => items.iter().for_each(|i| print!("{}", human(i))),
        }
        Ok(())
    }
}

/// Reads a bundle file and builds its graph. The parse is lenient: a
/// bundle whose schedule is broken still loads, so the analyzers can
/// explain what is wrong with it.
///
/// # Errors
///
/// `cannot read <path>: …`, `cannot parse <path>: …` or `invalid graph
/// configuration: …`.
pub fn load_bundle(path: &str) -> Result<(ScheduleBundle, TrainGraph), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bundle = ScheduleBundle::from_json_lenient(&text)
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    let graph = TrainGraph::new(bundle.graph.clone())
        .map_err(|e| format!("invalid graph configuration: {e}"))?;
    Ok((bundle, graph))
}

/// The instance `ooo-tune` and `ooo-cert` work on, one kind per mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    /// `order`: a reverse-first-k instance
    /// ([`crate::reverse_k::order_instance`]) under a link policy.
    Order {
        /// Layer count, at least 1.
        layers: usize,
        /// Reverse-first-k depth, at most `layers`.
        k: usize,
        /// `S[dW]` duration.
        sync: SimTime,
        /// Link policy.
        policy: CommPolicy,
    },
    /// `bundle`: the entries of a bundle file.
    Bundle {
        /// Bundle file.
        path: String,
        /// The one entry to work on; every entry when `None`.
        schedule: Option<String>,
        /// Link policy for its orders.
        policy: CommPolicy,
    },
    /// `pipeline`: one strategy's op-level schedule.
    Pipeline {
        /// Layer count, at least 1.
        layers: usize,
        /// Device count, at least 1.
        devices: usize,
        /// Pipeline strategy.
        strategy: Strategy,
        /// Modulo group, at least 1.
        group: usize,
    },
}

impl Job {
    /// The job of an `order | bundle | pipeline` command line, with the
    /// defaults `--k 0`, `--sync 3`, `--policy bylayer` and `--group 1`.
    ///
    /// # Errors
    ///
    /// A usage error for an unknown policy or strategy, a missing
    /// required flag or positional, and an out-of-range value.
    pub fn from_args(args: &Args) -> Result<Job, Exit> {
        let usage = || Exit::usage(args.spec.usage());
        let policy = args
            .text("--policy")
            .map_or(Ok(CommPolicy::PriorityByLayer), CommPolicy::parse);
        let strategy = args.text("--strategy").map(Strategy::parse).transpose();
        let (policy, strategy) = (policy.map_err(Exit::usage)?, strategy.map_err(Exit::usage)?);
        let layers = args.count("--layers").filter(|&l| l > 0);
        Ok(match args.mode {
            "order" => {
                let layers = layers.ok_or_else(usage)?;
                let k = args.count("--k").unwrap_or(0);
                if k > layers {
                    return Err(usage());
                }
                let sync = args.num("--sync").unwrap_or(3);
                Job::Order {
                    layers,
                    k,
                    sync,
                    policy,
                }
            }
            "bundle" => Job::Bundle {
                path: args
                    .positional()
                    .filter(|p| !p.is_empty())
                    .ok_or_else(usage)?
                    .to_string(),
                schedule: args.text("--schedule").map(str::to_string),
                policy,
            },
            _ => {
                let group = args.count("--group").unwrap_or(1);
                let devices = args.count("--devices").filter(|&d| d > 0);
                match (layers, devices, strategy) {
                    (Some(layers), Some(devices), Some(strategy)) if group > 0 => Job::Pipeline {
                        layers,
                        devices,
                        strategy,
                        group,
                    },
                    _ => return Err(usage()),
                }
            }
        })
    }
}

/// The most restart seeds (`ooo-tune --restarts`) or daemon workers
/// (`ooo-serve --workers`) a command line may ask for: each is a
/// thread.
const MAX_THREADS: u64 = 256;

/// The most scenarios `ooo-chaos --scenarios` may ask for.
const MAX_SCENARIOS: u64 = 1 << 16;

/// The deepest job queue `ooo-serve --queue` may ask for: the queue's
/// slots are allocated up front.
const MAX_QUEUE: u64 = 1 << 16;

/// The most retries `ooo-serve --retries` may ask for: the daemon counts
/// them in a `u32`.
const MAX_RETRIES: u64 = u32::MAX as u64;

/// The largest batch `ooo-trace --batch` may ask for. The cost tables
/// scale each layer's activation bytes with the batch in `u64`; at this
/// batch no zoo model's buffers, nor the 1.1× memory budget over them,
/// overflow it (a unit test of `ooo-models` checks every zoo model).
pub const MAX_BATCH: u64 = 1 << 20;

/// The most micro-batches `ooo-trace --micro` may ask for: each one is
/// simulated as its own ops, and the simulation's time grows about with
/// their square (`densenet121` at 256 takes ~54 s on 2 vCPUs).
const MAX_MICRO: u64 = 256;

/// The most GPUs or replicas `ooo-trace --gpus` and `--replicas` may ask
/// for: aggregation latencies and global batches grow linearly with them.
const MAX_GPUS: u64 = 1 << 16;

/// The longest request line `ooo-serve --max-request-bytes` may allow: a
/// line is buffered whole up to it.
const MAX_REQUEST_BYTES: u64 = 1 << 30;

const JSON: Flag = Flag::switch("--json");
const OUT: Flag = Flag::text("--out", "FILE");
const BUNDLE: Mode = mode("bundle", Some("<bundle.json>"));
const ORDER_MODES: [Mode; 3] = [mode("order", None), BUNDLE, mode("pipeline", None)];
const POLICY: Flag = Flag::text("--policy", "fifo|bylayer");
const SCHEDULE: Flag = Flag::text("--schedule", "NAME");
const LAYERS: Flag = Flag::count("--layers", "N").max(MAX_LAYERS as u64);
const K: Flag = Flag::count("--k", "K").max(MAX_LAYERS as u64);
const DEVICES: Flag = Flag::count("--devices", "D").max(MAX_LAYERS as u64);
const STRATEGY: Flag = Flag::text("--strategy", "NAME");
const GROUP: Flag = Flag::count("--group", "G").max(MAX_LAYERS as u64);

/// The flags of a [`Job`] command line.
macro_rules! job_flags {
    ($($extra:expr),*) => {
        &[
            LAYERS.only(&["order", "pipeline"]),
            K.only(&["order"]),
            Flag::u64("--sync", "NS").only(&["order"]).max(MAX_SYNC),
            POLICY.only(&["order", "bundle"]),
            SCHEDULE.only(&["bundle"]),
            DEVICES.only(&["pipeline"]),
            STRATEGY.only(&["pipeline"]),
            GROUP.only(&["pipeline"]),
            $($extra,)*
            JSON,
            OUT,
        ]
    };
}

/// `ooo-lint <bundle.json>`.
pub static LINT: Spec = Spec {
    tool: "ooo-lint",
    modes: &[mode("", Some("<bundle.json>"))],
    flags: &[
        SCHEDULE,
        Flag::u64("--budget", "BYTES"),
        Flag::switch("--partial"),
        JSON,
        OUT,
    ],
};

/// `ooo-advise bundle | pipeline`.
pub static ADVISE: Spec = Spec {
    tool: "ooo-advise",
    modes: &[BUNDLE, mode("pipeline", None)],
    flags: &[
        SCHEDULE.only(&["bundle"]),
        POLICY.only(&["bundle"]),
        LAYERS.only(&["pipeline"]),
        DEVICES.only(&["pipeline"]),
        STRATEGY.only(&["pipeline"]),
        GROUP.only(&["pipeline"]),
        JSON,
        OUT,
    ],
};

/// `ooo-memcheck bundle | order`; every flag is accepted in both modes.
pub static MEMCHECK: Spec = Spec {
    tool: "ooo-memcheck",
    modes: &[BUNDLE, mode("order", None)],
    flags: &[
        SCHEDULE,
        Flag::u64("--budget", "BYTES"),
        LAYERS,
        K,
        Flag::u64("--sync", "S").max(MAX_SYNC),
        Flag::switch("--baseline"),
        JSON,
        OUT,
    ],
};

/// `ooo-trace export | summarize`; every flag is accepted in both modes.
pub static TRACE: Spec = Spec {
    tool: "ooo-trace",
    modes: &[
        mode("export", None),
        mode("summarize", Some("[<trace.json>]")),
    ],
    flags: &[
        Flag::text("--system", "single|datapar|pipeline|hybrid"),
        Flag::text("--model", "NAME"),
        Flag::text("--engine", "NAME"),
        Flag::text("--comm", "NAME"),
        STRATEGY,
        Flag::count("--batch", "N").max(MAX_BATCH),
        Flag::count("--micro", "N").max(MAX_MICRO),
        Flag::count("--gpus", "N").max(MAX_GPUS),
        Flag::count("--devices", "N").max(MAX_LAYERS as u64),
        Flag::count("--replicas", "N").max(MAX_GPUS),
        Flag::count("--k", "N").max(MAX_LAYERS as u64),
        OUT,
    ],
};

/// `ooo-chaos run | list`; every flag is accepted in both modes.
pub static CHAOS: Spec = Spec {
    tool: "ooo-chaos",
    modes: &[mode("run", None), mode("list", None)],
    flags: &[
        Flag::u64("--seed", "N"),
        Flag::count("--scenarios", "N").max(MAX_SCENARIOS),
        JSON,
        OUT,
    ],
};

/// `ooo-tune order | bundle | pipeline`.
pub static TUNE: Spec = Spec {
    tool: "ooo-tune",
    modes: &ORDER_MODES,
    flags: job_flags![
        Flag::count("--restarts", "N").max(MAX_THREADS),
        Flag::count("--window", "W"),
        Flag::u64("--memory-cap", "BYTES")
    ],
};

/// `ooo-cert order | bundle | pipeline`.
pub static CERT: Spec = Spec {
    tool: "ooo-cert",
    modes: &ORDER_MODES,
    flags: job_flags![Flag::count("--budget", "NODES")],
};

/// `ooo-serve --daemon | --oneshot`.
pub static SERVE: Spec = Spec {
    tool: "ooo-serve",
    modes: &[mode("--daemon", None), mode("--oneshot", None)],
    flags: &[
        Flag::count("--workers", "N").max(MAX_THREADS),
        Flag::count("--queue", "N").max(MAX_QUEUE),
        Flag::count("--cache", "N"),
        Flag::count("--retries", "N").max(MAX_RETRIES),
        Flag::count("--max-request-bytes", "N").max(MAX_REQUEST_BYTES),
        Flag::count("--max-layers", "N").max(MAX_LAYERS as u64),
        Flag::count("--degrade-hot", "N"),
        Flag::text("--socket", "PATH").only(&["--daemon"]),
    ],
};

/// Every tool's spec.
pub static TOOLS: [&Spec; 8] = [
    &LINT, &ADVISE, &MEMCHECK, &TRACE, &CHAOS, &TUNE, &CERT, &SERVE,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &'static Spec, words: &str) -> Result<Args, String> {
        let words: Vec<String> = words.split_whitespace().map(str::to_string).collect();
        spec.parse(&words)
    }

    #[test]
    fn usage_lists_each_mode_with_the_flags_it_accepts() {
        assert_eq!(
            LINT.usage(),
            "usage: ooo-lint <bundle.json> [--schedule NAME] [--budget BYTES] [--partial] \
             [--json] [--out FILE]"
        );
        let advise = ADVISE.usage();
        let lines: Vec<&str> = advise.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("usage: ooo-advise bundle <bundle.json> [--schedule NAME]"));
        assert!(lines[1].starts_with("       ooo-advise pipeline [--layers N]"));
        assert!(!lines[1].contains("--policy"));
        assert!(SERVE
            .usage()
            .lines()
            .nth(1)
            .unwrap()
            .ends_with("[--degrade-hot N]"));
    }

    #[test]
    fn parse_reads_the_mode_the_last_values_and_the_positional() {
        let a = parse(&TUNE, "bundle x.json --restarts 2 --json --restarts 5").unwrap();
        assert_eq!((a.mode(), a.positional()), ("bundle", Some("x.json")));
        assert_eq!((a.num("--restarts"), a.switch("--json")), (Some(5), true));
        assert_eq!((a.count("--window"), a.text("--out")), (None, None));
        // A mode spelled as a flag stands anywhere; the last one wins.
        let s = parse(&SERVE, "--daemon --workers 3 --oneshot --cache 0").unwrap();
        assert_eq!(s.mode(), "--oneshot");
        let s = parse(&SERVE, "--oneshot --daemon --socket --oneshot").unwrap();
        assert_eq!(
            (s.mode(), s.text("--socket")),
            ("--daemon", Some("--oneshot"))
        );
        assert_eq!(TUNE.parse(&a.render()), Ok(a));
        assert_eq!(SERVE.parse(&s.render()), Ok(s));
    }

    #[test]
    fn every_rejection_is_an_error_naming_its_word() {
        for (spec, words, want) in [
            (&TUNE, "", "usage: ooo-tune order"),
            (&TUNE, "--help", "usage: ooo-tune order"),
            (&TUNE, "order --layers 3 -h", "usage: ooo-tune order"),
            (&SERVE, "--workers 2", "usage: ooo-serve --daemon"),
            (
                &TUNE,
                "warp",
                "unknown mode: \"warp\"\nusage: ooo-tune order",
            ),
            (&LINT, "b.json --bogus", "unknown flag: --bogus"),
            (&LINT, "b.json --layers=3", "unknown flag: --layers=3"),
            (&LINT, "b.json c.json", "unexpected argument: c.json"),
            (&TUNE, "order x.json", "unexpected argument: x.json"),
            (&LINT, "b.json --budget", "--budget needs a value"),
            (
                &LINT,
                "b.json --budget -1",
                "--budget: not a non-negative integer: \"-1\"",
            ),
            (
                &CHAOS,
                "run --seed 18446744073709551616",
                "--seed: not a non-negative",
            ),
            (
                &TUNE,
                "order --layers 18446744073709551615",
                "--layers: 18446744073709551615 is above the limit of 4096",
            ),
            (
                &TUNE,
                "order --devices 2",
                "--devices does not apply to ooo-tune order",
            ),
            (
                &SERVE,
                "--oneshot --socket s",
                "--socket does not apply to ooo-serve --oneshot",
            ),
        ] {
            let err = parse(spec, words).expect_err(words);
            assert!(err.starts_with(want), "{} {words}: {err}", spec.tool);
        }
    }

    /// The `Count` and `U64` flags with no limit, each with why none is
    /// needed: the value is only compared, never allocated, summed or
    /// scaled.
    const UNBOUNDED: [(&str, &str); 8] = [
        ("ooo-lint", "--budget"),       // bytes compared with a ledger peak
        ("ooo-memcheck", "--budget"),   // bytes compared with a ledger peak
        ("ooo-chaos", "--seed"),        // a value, not a size
        ("ooo-tune", "--window"),       // a distance compared with position gaps
        ("ooo-tune", "--memory-cap"),   // bytes compared with a ledger peak
        ("ooo-cert", "--budget"),       // a node count the search stops at
        ("ooo-serve", "--cache"),       // an entry count compared with the cache's
        ("ooo-serve", "--degrade-hot"), // a queue depth compared with the queue's
    ];

    /// Every `Count` and `U64` flag of every tool has a limit or sits on
    /// [`UNBOUNDED`], and every limit parses while one above it is
    /// refused, naming the limit.
    #[test]
    fn every_size_flag_has_a_limit_or_a_reason() {
        let mut unbounded = Vec::new();
        for spec in TOOLS {
            for flag in spec.flags {
                if !matches!(flag.kind, Kind::Count | Kind::U64) {
                    continue;
                }
                let Some(max) = flag.max else {
                    unbounded.push((spec.tool, flag.name));
                    continue;
                };
                let mode = flag.modes.first().copied().unwrap_or(spec.modes[0].name);
                let words = format!("{mode} {} {max}", flag.name);
                assert!(parse(spec, &words).is_ok(), "{} {words}", spec.tool);
                let err = parse(spec, &format!("{mode} {} {}", flag.name, max + 1));
                let want = format!("{}: {} is above the limit of {max}", flag.name, max + 1);
                assert!(err.unwrap_err().starts_with(&want), "{} {words}", spec.tool);
            }
        }
        assert_eq!(unbounded, UNBOUNDED);
    }

    #[cfg(unix)]
    #[test]
    fn a_word_that_is_not_utf8_is_rejected() {
        use std::os::unix::ffi::OsStrExt;
        let bad = std::ffi::OsStr::from_bytes(b"a\xffb").to_os_string();
        assert_eq!(
            utf8_words([OsString::from("order"), bad]),
            Err("argument is not valid UTF-8: \"a\u{fffd}b\"".to_string())
        );
        assert_eq!(utf8_words([OsString::from("x")]), Ok(vec!["x".to_string()]));
    }

    #[test]
    fn jobs_take_their_defaults_and_keep_their_checks() {
        let job = |words: &str| Job::from_args(&parse(&TUNE, words).unwrap());
        assert_eq!(
            job("order --layers 8"),
            Ok(Job::Order {
                layers: 8,
                k: 0,
                sync: 3,
                policy: CommPolicy::PriorityByLayer
            })
        );
        assert_eq!(
            job("pipeline --layers 8 --devices 4 --strategy ooo-pipe2"),
            Ok(Job::Pipeline {
                layers: 8,
                devices: 4,
                strategy: Strategy::OooPipe2,
                group: 1
            })
        );
        let usage = Err(Exit::usage(TUNE.usage()));
        for bad in [
            "order --layers 0",
            "order --layers 3 --k 4",
            "bundle",
            "pipeline --layers 8 --devices 4",
            "pipeline --layers 8 --devices 0 --strategy gpipe",
            "pipeline --layers 8 --devices 4 --strategy gpipe --group 0",
        ] {
            assert_eq!(job(bad), usage, "{bad}");
        }
        let policy = job("order --layers 8 --policy warp");
        assert_eq!(policy, Err(Exit::usage("unknown policy: \"warp\"".into())));
    }
}
