//! `axiombase` — an interactive schema-evolution shell over the axiomatic
//! model of Peters & Özsu (ICDE'95).
//!
//! Usage:
//!
//! ```text
//! axiombase                # interactive REPL (reads stdin line by line)
//! axiombase run SCRIPT     # execute a command script, then exit
//! axiombase check SNAPSHOT # load a snapshot, run the nine axiom checks
//! axiombase lint FILE...   # static analysis (L1-L11) of snapshots/scripts
//! axiombase analyze [TRACE|DIR] [--plan] [--impact] [--mc-bound N]  # trace certification + model check
//! axiombase apply [TRACE|DIR] [--plan]  # execute a trace (batched or planned)
//! axiombase journal-init DIR [SNAPSHOT|SCRIPT]  # create a crash-safe journal
//! axiombase recover DIR [--salvage|--quarantine] [--json] [--trace-spans]  # replay + repair
//! axiombase checkpoint DIR [--json]      # recover, then force a checkpoint
//! axiombase log DIR [--json]             # read-only journal listing
//! axiombase stats DIR [--salvage] [--json]  # recover + metrics snapshot
//! axiombase doctor DIR [--json]          # read-only health diagnosis
//! axiombase at DIR --seq N [--json]      # read-only time-travel snapshot
//! axiombase branch DIR NEW_DIR [--at-seq N] [--json]  # fork a journal
//! axiombase merge DIR OTHER [--json]     # certificate-checked merge
//! axiombase append DIR SCRIPT            # grow a branch from a script
//! ```
//!
//! The command language is documented by `help` (see `command.rs`); the lint
//! subcommand's flags are documented in [`lint`], the journal subcommands
//! in [`journal_cmd`], and the versioned-history subcommands (time-travel
//! reads, branching, certificate-checked merge) in [`versioned_cmd`].

mod analyze;
mod apply;
mod command;
mod exec;
mod journal_cmd;
mod lint;
mod versioned_cmd;

use std::io::{BufRead, Write};

use exec::{Flow, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        [] => repl(),
        ["run", path] => run_script(path),
        ["check", path] => check_snapshot(path),
        ["lint", rest @ ..] => lint::run(rest),
        ["analyze", rest @ ..] => analyze::run(rest),
        ["apply", rest @ ..] => apply::run(rest),
        ["journal-init", rest @ ..] => journal_cmd::init(rest),
        ["recover", rest @ ..] => journal_cmd::recover(rest),
        ["checkpoint", rest @ ..] => journal_cmd::checkpoint(rest),
        ["log", rest @ ..] => journal_cmd::log(rest),
        ["stats", rest @ ..] => journal_cmd::stats(rest),
        ["doctor", rest @ ..] => journal_cmd::doctor(rest),
        ["at", rest @ ..] => versioned_cmd::at(rest),
        ["branch", rest @ ..] => versioned_cmd::branch(rest),
        ["merge", rest @ ..] => versioned_cmd::merge(rest),
        ["append", rest @ ..] => versioned_cmd::append(rest),
        _ => {
            eprintln!(
                "usage: axiombase [run SCRIPT | check SNAPSHOT | lint FILE... | \
                 analyze TRACE|DIR | apply TRACE|DIR [--plan] | \
                 journal-init DIR [SNAPSHOT|SCRIPT] | recover DIR | \
                 checkpoint DIR | log DIR | stats DIR | doctor DIR | \
                 at DIR --seq N | branch DIR NEW_DIR [--at-seq N] | \
                 merge DIR OTHER | append DIR SCRIPT]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn repl() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut session = Session::new();
    let _ = writeln!(
        out,
        "axiombase — axiomatic dynamic schema evolution (type `help`)"
    );
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match session.execute_line(&line, &mut out) {
            Ok(Flow::Quit) => break,
            Ok(Flow::Continue) => {}
            Err(e) => {
                let _ = writeln!(out, "io error: {e}");
                return 1;
            }
        }
        let _ = out.flush();
    }
    0
}

fn run_script(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut session = Session::new();
    for line in text.lines() {
        match session.execute_line(line, &mut out) {
            Ok(Flow::Quit) => break,
            Ok(Flow::Continue) => {}
            Err(e) => {
                eprintln!("io error: {e}");
                return 1;
            }
        }
    }
    // Scripts end with an implicit `check`: a script that leaves the schema
    // in violation fails loudly.
    let violations = session.schema().verify();
    if violations.is_empty() {
        0
    } else {
        for v in violations {
            eprintln!("VIOLATION: {v}");
        }
        1
    }
}

fn check_snapshot(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    match axiombase_core::Schema::from_snapshot(&text) {
        Ok(schema) => {
            let violations = schema.verify();
            if violations.is_empty() {
                println!(
                    "{path}: {} types, {} properties — all nine axioms hold",
                    schema.type_count(),
                    schema.prop_count()
                );
                0
            } else {
                for v in violations {
                    eprintln!("VIOLATION: {v}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}
