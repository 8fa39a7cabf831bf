//! Regenerates the paper's tables and figures on the simulated
//! substrates.
//!
//! Usage:
//!
//! ```text
//! figures            # everything, in paper order
//! figures fig7 fig10 # a subset
//! figures --list     # available ids
//! ```
//!
//! Exit 0 on success, 2 on an unknown id (usage on stderr).

use std::process::ExitCode;

const USAGE: &str = "usage: figures [ID ...]\n\
                     \x20      figures --list";

fn main() -> ExitCode {
    let args = match ooo_core::cli::argv() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("figures: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ids = ooo_bench::all_ids();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for id in ids {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&str> = if args.is_empty() {
        ids.clone()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match ids.iter().copied().find(|&i| i == a) {
                Some(id) => sel.push(id),
                None => {
                    eprintln!("figures: unknown figure id '{a}'; try --list\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        sel
    };
    for id in selected {
        let report = ooo_bench::generate(id);
        println!("{}", report.render());
    }
    ExitCode::SUCCESS
}
