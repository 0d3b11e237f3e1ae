//! Journal subcommands: initialise, recover, checkpoint, and inspect a
//! crash-safe evolution journal (see `axiombase-core`'s `journal` module).
//!
//! ```text
//! axiombase journal-init DIR [SNAPSHOT]   # new journal (from a snapshot, or fresh)
//! axiombase recover DIR [--salvage|--quarantine] [--json] [--trace-spans]
//! axiombase checkpoint DIR [--json]       # recover, then force a checkpoint
//! axiombase log DIR [--json]              # read-only listing of the durable history
//! axiombase stats DIR [--salvage] [--json] # recover + full metrics snapshot
//! axiombase doctor DIR [--json]           # read-only health diagnosis
//! ```
//!
//! `recover`, `checkpoint`, and `stats` repair the directory (truncating a
//! torn tail); `log` and `doctor` never write. Every one of them reads the
//! directory by the journal's one set of read rules, so `log`'s tail and
//! `doctor`'s verdict are exactly what `recover` would find. All exit 0 on
//! success, 1 on failure, 2 on usage errors — except `doctor`, whose exit
//! code reports serviceability, and `stats`, which degrades to a health
//! report (exit 0) when the journal cannot be opened. `--salvage` and
//! `--quarantine` rename a damaged newer checkpoint to `*.quar`;
//! `--quarantine` also renames a corrupt WAL segment to `*.quar` and
//! re-checkpoints instead of refusing recovery.
//! `--trace-spans` replays recovery through an `EvolveTracer` and prints
//! the structured span events after the report (as text, or as a JSON
//! array on its own line after the JSON report).

use std::path::Path;
use std::sync::Arc;

use axiombase_core::journal::io::StdIo;
use axiombase_core::journal::wire::encode_op;
use axiombase_core::journal::Journal;
use axiombase_core::{
    json_escape, EvolveObs, EvolveTracer, LatticeConfig, MetricsRegistry, RecoveryMode, Schema,
};

use crate::versioned_cmd::parse;

/// `axiombase journal-init DIR [SNAPSHOT|SCRIPT]` — create a fresh
/// journal. With a snapshot file, the first checkpoint carries that
/// schema and no history; with a command script, the journal starts
/// from the script's initial schema and the script's operations are
/// replayed *as journaled history* (so `log`, `at --seq N`, and
/// `branch --at-seq N` can see every step). With no source, the
/// journal starts from the default rooted schema.
pub fn init(rest: &[&str]) -> i32 {
    let usage = "axiombase journal-init DIR [SNAPSHOT|SCRIPT]";
    let (dir, source) = match rest {
        [dir] => (*dir, None),
        [dir, src] => (*dir, Some(*src)),
        _ => {
            eprintln!("usage: {usage}");
            return 2;
        }
    };
    let is_snapshot = source.is_some_and(|path| {
        std::fs::read_to_string(path).is_ok_and(|text| {
            text.lines()
                .map(str::trim)
                .find(|l| !l.is_empty())
                .is_some_and(|l| l.starts_with("axiombase "))
        })
    });
    let (schema, trace) = match source {
        None => {
            let mut s = Schema::new(LatticeConfig::default());
            s.add_root_type("T_object").expect("fresh schema");
            (s, Vec::new())
        }
        Some(path) if is_snapshot => match Schema::load_from(Path::new(path)) {
            Ok(s) => (s, Vec::new()),
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                return 1;
            }
        },
        Some(path) => match crate::analyze::load_trace(path) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                return 1;
            }
        },
    };
    if trace.is_empty() {
        return match Journal::create(Path::new(dir), Arc::new(StdIo), &schema) {
            Ok(j) => {
                println!(
                    "initialised journal in {dir} ({} types, sequence {})",
                    schema.type_count(),
                    j.seq()
                );
                0
            }
            Err(e) => {
                eprintln!("journal-init failed: {e}");
                1
            }
        };
    }
    let opts = axiombase_core::JournalOptions {
        checkpoint_every: 0,
    };
    let js = match axiombase_core::JournaledSchema::create(
        Path::new(dir),
        Arc::new(StdIo),
        schema,
        opts,
    ) {
        Ok(js) => js,
        Err(e) => {
            eprintln!("journal-init failed: {e}");
            return 1;
        }
    };
    match js.apply_trace(&trace) {
        Ok(n) => {
            println!(
                "initialised journal in {dir} ({} types, {n} op(s) journaled, sequence {})",
                js.snapshot().type_count(),
                js.seq()
            );
            0
        }
        Err(e) => {
            eprintln!("journal-init failed: {e}");
            1
        }
    }
}

/// `axiombase recover DIR [--salvage|--quarantine] [--json]
/// [--trace-spans]` — run recovery and print the report. Strict mode
/// refuses corrupt (checksummed-but-wrong) records; `--salvage` truncates
/// them instead and reports what was dropped; `--quarantine` renames the
/// corrupt segment to `*.quar` (preserving its bytes for forensics) and
/// re-checkpoints at the recovered sequence. `--trace-spans` additionally
/// prints the structured span events recovery replay emitted.
pub fn recover(rest: &[&str]) -> i32 {
    let usage = "axiombase recover DIR [--salvage|--quarantine] [--json] [--trace-spans]";
    let (pos, flags, _) = match parse(
        rest,
        1,
        &["--salvage", "--quarantine", "--json", "--trace-spans"],
        &[],
        usage,
    ) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    if flags.contains(&"--salvage") && flags.contains(&"--quarantine") {
        eprintln!("--salvage and --quarantine are mutually exclusive\nusage: {usage}");
        return 2;
    }
    let mode = if flags.contains(&"--quarantine") {
        RecoveryMode::Quarantine
    } else if flags.contains(&"--salvage") {
        RecoveryMode::Salvage
    } else {
        RecoveryMode::Strict
    };
    let json = flags.contains(&"--json");
    let trace = flags.contains(&"--trace-spans");
    let tracer = Arc::new(EvolveTracer::new());
    let result = if trace {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Arc::new(EvolveObs::with_tracer(registry, Arc::clone(&tracer)));
        Journal::open_observed(Path::new(dir), Arc::new(StdIo), mode, obs)
    } else {
        Journal::open(Path::new(dir), Arc::new(StdIo), mode)
    };
    match result {
        Ok((_journal, schema, report)) => {
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
                println!(
                    "schema: {} types, {} properties, fingerprint {:016x}",
                    schema.type_count(),
                    schema.prop_count(),
                    schema.fingerprint()
                );
            }
            if trace {
                if json {
                    println!("{}", tracer.to_json());
                } else {
                    println!("spans:");
                    print!("{}", tracer.to_text());
                }
            }
            0
        }
        Err(e) => {
            eprintln!("recover failed: {e}");
            1
        }
    }
}

/// `axiombase stats DIR [--salvage] [--json]` — recover the journal with a
/// fresh metrics registry attached and print the complete metrics
/// snapshot: `recovery.*` accounting, the `engine.*` recomputation work
/// replay performed, per-operation-kind `ops.*` counters, and `journal.*`
/// I/O counts. Deterministic for a given journal directory.
///
/// When the journal cannot be opened (corrupt segment, unreadable
/// directory), `stats` does not error out: it falls back to the read-only
/// [`Journal::diagnose`] health report — durability status, last error,
/// and repair advice — and still exits 0, so monitoring that polls `stats`
/// keeps getting structured output from a broken deployment.
pub fn stats(rest: &[&str]) -> i32 {
    let usage = "axiombase stats DIR [--salvage] [--json]";
    let (pos, flags, _) = match parse(rest, 1, &["--salvage", "--json"], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    let mode = if flags.contains(&"--salvage") {
        RecoveryMode::Salvage
    } else {
        RecoveryMode::Strict
    };
    let json = flags.contains(&"--json");
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
    match Journal::open_observed(Path::new(dir), Arc::new(StdIo), mode, obs) {
        Ok((_journal, schema, _report)) => {
            if json {
                println!("{}", registry.snapshot().to_json());
            } else {
                print!("{}", registry.snapshot().to_text());
                println!(
                    "schema: {} types, {} properties, fingerprint {:016x}",
                    schema.type_count(),
                    schema.prop_count(),
                    schema.fingerprint()
                );
            }
            0
        }
        Err(e) => {
            let health = Journal::diagnose(Path::new(dir), &StdIo);
            if json {
                println!(
                    "{{\"error\":\"{}\",\"health\":{}}}",
                    json_escape(&e.to_string()),
                    health.to_json()
                );
            } else {
                println!("stats unavailable: {e}");
                print!("{}", health.to_text());
            }
            0
        }
    }
}

/// `axiombase doctor DIR [--json]` — read-only health diagnosis of a
/// journal directory: status (`healthy` / `repairable` / `corrupt` /
/// `uninitialized` / `unreadable`), checkpoint and durable sequence
/// numbers, segment counts, the tail where the walk stopped, strict
/// recovery's error, and repair advice. Never modifies anything. The
/// diagnosis is strict recovery without the writes, so it exits 0 exactly
/// when `recover DIR` (strict) succeeds — and reports the sequence that
/// recovery reaches — and 1 otherwise.
pub fn doctor(rest: &[&str]) -> i32 {
    let usage = "axiombase doctor DIR [--json]";
    let (pos, flags, _) = match parse(rest, 1, &["--json"], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    let health = Journal::diagnose(Path::new(dir), &StdIo);
    if flags.contains(&"--json") {
        println!("{}", health.to_json());
    } else {
        print!("{}", health.to_text());
    }
    if health.is_serviceable() {
        0
    } else {
        1
    }
}

/// `axiombase checkpoint DIR [--json]` — recover (strict), then write a
/// fresh checkpoint at the recovered sequence and prune obsolete files.
pub fn checkpoint(rest: &[&str]) -> i32 {
    let usage = "axiombase checkpoint DIR [--json]";
    let (pos, flags, _) = match parse(rest, 1, &["--json"], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    let (mut journal, schema, report) =
        match Journal::open(Path::new(dir), Arc::new(StdIo), RecoveryMode::Strict) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("checkpoint failed: {e}");
                return 1;
            }
        };
    if let Err(e) = journal.checkpoint(&schema) {
        eprintln!("checkpoint failed: {e}");
        return 1;
    }
    if flags.contains(&"--json") {
        println!(
            "{{\"checkpoint_seq\": {}, \"replayed\": {}, \"fingerprint\": \"{:016x}\"}}",
            journal.seq(),
            report.replayed,
            schema.fingerprint()
        );
    } else {
        println!(
            "checkpointed {dir} at sequence {} ({} replayed records folded in)",
            journal.seq(),
            report.replayed
        );
    }
    0
}

/// `axiombase log DIR [--json]` — read-only listing of the journal's
/// durable history, read by the rules recovery reads it by: the newest
/// verified checkpoint (and any newer damaged one, listed as skipped),
/// every chained WAL record on top of it, and the tail where the walk
/// stopped — torn, corrupt, a sequence gap — reported but left untouched.
pub fn log(rest: &[&str]) -> i32 {
    let usage = "axiombase log DIR [--json]";
    let (pos, flags, _) = match parse(rest, 1, &["--json"], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    let ins = match Journal::inspect(Path::new(dir), &StdIo) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("log failed: {e}");
            return 1;
        }
    };
    if flags.contains(&"--json") {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"checkpoint_file\": \"{}\", \"checkpoint_seq\": {}, \"skipped_checkpoints\": [",
            json_escape(&ins.checkpoint_file),
            ins.checkpoint_seq
        ));
        for (i, s) in ins.skipped_checkpoints.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": \"{}\", \"detail\": \"{}\"}}",
                json_escape(&s.file),
                json_escape(&s.detail)
            ));
        }
        out.push_str("], \"entries\": [");
        for (i, e) in ins.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"seq\": {}, \"file\": \"{}\", \"offset\": {}, \"op\": \"{}\"}}",
                e.seq,
                json_escape(&e.file),
                e.offset,
                json_escape(&encode_op(&e.op))
            ));
        }
        out.push_str("], \"tail\": ");
        match &ins.tail {
            None => out.push_str("null"),
            Some(t) => out.push_str(&format!(
                "{{\"file\": \"{}\", \"offset\": {}, \"bytes\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                json_escape(&t.file),
                t.offset,
                t.bytes,
                t.kind,
                json_escape(&t.detail)
            )),
        }
        out.push('}');
        println!("{out}");
    } else {
        println!(
            "checkpoint {} (sequence {})",
            ins.checkpoint_file, ins.checkpoint_seq
        );
        for s in &ins.skipped_checkpoints {
            println!("skipped damaged checkpoint {}: {}", s.file, s.detail);
        }
        for e in &ins.entries {
            println!(
                "{:>8}  {}@{}  {}",
                e.seq,
                e.file,
                e.offset,
                encode_op(&e.op)
            );
        }
        match &ins.tail {
            None => println!("tail: clean"),
            Some(t) => println!(
                "tail: {} — {} bytes at {}@{} ({})",
                t.kind, t.bytes, t.file, t.offset, t.detail
            ),
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("axb-journal-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn init_recover_checkpoint_log_happy_path() {
        let dir = tmp_dir("happy");
        let d = dir.to_str().unwrap();
        assert_eq!(init(&[d]), 0);
        assert_eq!(init(&[d]), 1, "double init must fail");
        assert_eq!(recover(&[d]), 0);
        assert_eq!(recover(&[d, "--json"]), 0);
        assert_eq!(log(&[d]), 0);
        assert_eq!(log(&[d, "--json"]), 0);
        assert_eq!(checkpoint(&[d]), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_and_trace_spans_happy_path() {
        let dir = tmp_dir("stats");
        let d = dir.to_str().unwrap();
        assert_eq!(init(&[d]), 0);
        assert_eq!(stats(&[d]), 0);
        assert_eq!(stats(&[d, "--json"]), 0);
        assert_eq!(stats(&[d, "--salvage"]), 0);
        assert_eq!(recover(&[d, "--trace-spans"]), 0);
        assert_eq!(recover(&[d, "--json", "--trace-spans"]), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(recover(&[]), 2);
        assert_eq!(recover(&["somewhere", "--bogus"]), 2);
        assert_eq!(recover(&["somewhere", "--salvage", "--quarantine"]), 2);
        assert_eq!(checkpoint(&[]), 2);
        assert_eq!(log(&[]), 2);
        assert_eq!(init(&[]), 2);
        assert_eq!(stats(&[]), 2);
        assert_eq!(stats(&["somewhere", "--trace-spans"]), 2);
        assert_eq!(doctor(&[]), 2);
        assert_eq!(doctor(&["somewhere", "--salvage"]), 2);
    }

    #[test]
    fn recover_on_missing_dir_fails_cleanly() {
        let dir = tmp_dir("missing");
        let d = dir.to_str().unwrap();
        assert_eq!(recover(&[d]), 1);
        assert_eq!(log(&[d]), 1);
        // `stats` degrades to a health report instead of erroring; `doctor`
        // reports unserviceable via its exit code.
        assert_eq!(stats(&[d]), 0);
        assert_eq!(stats(&[d, "--json"]), 0);
        assert_eq!(doctor(&[d]), 1);
    }

    #[test]
    fn doctor_reports_healthy_after_init() {
        let dir = tmp_dir("doctor");
        let d = dir.to_str().unwrap();
        assert_eq!(init(&[d]), 0);
        assert_eq!(doctor(&[d]), 0);
        assert_eq!(doctor(&[d, "--json"]), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
