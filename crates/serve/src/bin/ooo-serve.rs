//! `ooo-serve` — the fault-tolerant scheduling daemon.
//!
//! ```text
//! ooo-serve --daemon  [--workers N] [--queue N] [--cache N] [--retries N]
//!                     [--max-request-bytes N] [--max-layers N]
//!                     [--degrade-hot N] [--socket PATH]
//! ooo-serve --oneshot [same flags]
//! ```
//!
//! `--workers` is at most 256, `--queue` at most 65536 (its slots are
//! allocated up front) and `--retries` at most 4294967295.
//!
//! `--daemon` reads line-delimited JSON requests from stdin until EOF
//! and writes one response line per request to stdout, in request
//! order (see `ooo_serve::protocol` for the wire format). With
//! `--socket PATH` it listens on a Unix socket instead, serving
//! connections one at a time. `--oneshot` serves exactly one request
//! from stdin and exits `0` when the response status is `ok`, `1` on
//! any other status (error, unsafe, timeout, overloaded), `2` on usage
//! errors — the same contract as the one-shot CLIs.

use ooo_core::cli::{finish, Exit, SERVE};
use ooo_serve::{serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

/// Serves stdin to stdout until EOF; used by both modes (oneshot
/// simply truncates the input to its first line).
fn serve_stdio(config: &ServeConfig, oneshot: bool) -> std::io::Result<bool> {
    let stdin = std::io::stdin();
    // `StdoutLock` is not `Send` (the writer runs on its own thread),
    // so buffer over the `Send` handle instead.
    let mut out = std::io::BufWriter::new(std::io::stdout());
    let summary = if oneshot {
        let mut line = String::new();
        stdin.lock().read_line(&mut line)?;
        serve(std::io::Cursor::new(line.into_bytes()), &mut out, config)?
    } else {
        serve(stdin.lock(), &mut out, config)?
    };
    out.flush()?;
    // Oneshot exits 1 unless it answered, and answered `ok`.
    Ok(oneshot && (summary.responses == 0 || summary.ok != summary.responses))
}

#[cfg(unix)]
fn serve_socket(config: &ServeConfig, path: &str) -> std::io::Result<bool> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        // A connection-level I/O failure drops that client only.
        let _ = serve(reader, &mut writer, config);
    }
    Ok(false)
}

#[cfg(not(unix))]
fn serve_socket(_config: &ServeConfig, _path: &str) -> std::io::Result<bool> {
    Err(std::io::Error::other("--socket requires a unix platform"))
}

fn run() -> Result<bool, Exit> {
    let args = SERVE.args()?;
    let base = ServeConfig::default();
    let config = ServeConfig {
        workers: args.count("--workers").map_or(base.workers, |n| n.max(1)),
        queue: args.count("--queue").map_or(base.queue, |n| n.max(1)),
        cache: args.count("--cache").unwrap_or(base.cache),
        retries: args.count("--retries").map_or(base.retries, |n| n as u32),
        limits: ooo_serve::protocol::Limits {
            max_request_bytes: args
                .count("--max-request-bytes")
                .unwrap_or(base.limits.max_request_bytes),
            max_layers: args.count("--max-layers").unwrap_or(base.limits.max_layers),
        },
        degrade_hot: args.count("--degrade-hot").or(base.degrade_hot),
    };
    let served = match (args.mode(), args.text("--socket")) {
        ("--daemon", Some(path)) => serve_socket(&config, path),
        (mode, _) => serve_stdio(&config, mode == "--oneshot"),
    };
    served.map_err(|e| SERVE.fail(2, e))
}

fn main() -> ExitCode {
    finish(run())
}
