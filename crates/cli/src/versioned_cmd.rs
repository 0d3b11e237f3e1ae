//! Versioned-history subcommands: time-travel reads, branching, and
//! certificate-checked merging over journal directories.
//!
//! ```text
//! axiombase at DIR --seq N [--json]        # read-only as-of snapshot summary
//! axiombase branch DIR NEW_DIR [--at-seq N] [--json]  # fork DIR into NEW_DIR
//! axiombase merge DIR OTHER [--json]       # merge OTHER's suffix into DIR
//! axiombase append DIR SCRIPT              # extend DIR's history from a script
//! ```
//!
//! `at` never writes. `branch` writes only the new directory. `merge`
//! appends to `DIR` only after the cross-branch certificate has been
//! issued *and* independently re-verified; a refused merge (exit 1)
//! modifies neither directory and prints the witnessed conflicting pair
//! with both footprints — as text, or structured under `"conflict"`
//! with `--json`. `append` replays the script, checks that a prefix of
//! it reproduces the journal's exact current state, and appends the
//! remaining suffix (the script-driven way to grow a forked branch).
//! Exit codes follow the journal subcommands: 0 success, 1 failure,
//! 2 usage.

use std::path::Path;
use std::sync::Arc;

use axiombase_core::analysis::{ConflictVerdict, Footprint};
use axiombase_core::journal::io::StdIo;
use axiombase_core::journal::Journal;
use axiombase_core::{json_escape, Branch, JournalOptions, MergeError, RecoveryMode};

/// Parsed arguments: `(positionals, boolean flags, valued flags)`.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Parse `DIR [EXTRA] [flags...]` where `valued` flags consume the next
/// argument. Returns `(positionals, flags, values)` or a usage message.
fn parse<'a>(
    rest: &[&'a str],
    positional: usize,
    allowed: &[&str],
    valued: &[&str],
    usage: &str,
) -> Result<ParsedArgs<'a>, String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut values = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            if valued.contains(a) {
                match it.next() {
                    Some(v) => values.push((*a, *v)),
                    None => return Err(format!("{a} needs a value\nusage: {usage}")),
                }
            } else if allowed.contains(a) {
                flags.push(*a);
            } else {
                return Err(format!("unknown flag {a}\nusage: {usage}"));
            }
        } else if pos.len() < positional {
            pos.push(*a);
        } else {
            return Err(format!("unexpected argument {a}\nusage: {usage}"));
        }
    }
    if pos.len() != positional {
        return Err(format!("usage: {usage}"));
    }
    Ok((pos, flags, values))
}

fn parse_seq(values: &[(&str, &str)], key: &str, usage: &str) -> Result<Option<u64>, String> {
    match values.iter().find(|(k, _)| *k == key) {
        None => Ok(None),
        Some((_, v)) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{key} takes a sequence number, got {v:?}\nusage: {usage}")),
    }
}

fn cells_json(set: &std::collections::BTreeSet<axiombase_core::analysis::Cell>) -> String {
    let items: Vec<String> = set
        .iter()
        .map(|c| format!("\"{}\"", json_escape(&format!("{c:?}"))))
        .collect();
    format!("[{}]", items.join(","))
}

fn cells_text(set: &std::collections::BTreeSet<axiombase_core::analysis::Cell>) -> String {
    let items: Vec<String> = set.iter().map(|c| format!("{c:?}")).collect();
    format!("{{{}}}", items.join(", "))
}

fn footprint_json(fp: &Footprint) -> String {
    format!(
        "{{\"reads\": {}, \"writes\": {}}}",
        cells_json(&fp.reads),
        cells_json(&fp.writes)
    )
}

/// `axiombase at DIR --seq N [--json]` — read-only time-travel summary:
/// reconstruct the schema exactly as of sequence `N` and print its
/// shape and fingerprints. Exits 1 with the typed refusal when `N` is
/// past the durable tip or predates the oldest surviving checkpoint.
pub fn at(rest: &[&str]) -> i32 {
    let usage = "axiombase at DIR --seq N [--json]";
    let (pos, flags, values) = match parse(rest, 1, &["--json"], &["--seq"], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let seq = match parse_seq(&values, "--seq", usage) {
        Ok(Some(n)) => n,
        Ok(None) => {
            eprintln!("--seq is required\nusage: {usage}");
            return 2;
        }
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let dir = pos[0];
    match Journal::replay_at(Path::new(dir), &StdIo, seq) {
        Ok(schema) => {
            if flags.contains(&"--json") {
                println!(
                    "{{\"seq\": {seq}, \"types\": {}, \"properties\": {}, \
                     \"fingerprint\": \"{:016x}\", \"canonical_fingerprint\": \"{:016x}\"}}",
                    schema.type_count(),
                    schema.prop_count(),
                    schema.fingerprint(),
                    schema.canonical_fingerprint()
                );
            } else {
                println!(
                    "as of sequence {seq}: {} types, {} properties, fingerprint {:016x}",
                    schema.type_count(),
                    schema.prop_count(),
                    schema.fingerprint()
                );
            }
            0
        }
        Err(e) => {
            eprintln!("at failed: {e}");
            1
        }
    }
}

/// `axiombase branch DIR NEW_DIR [--at-seq N] [--json]` — fork the
/// journal in `DIR` at sequence `N` (default: its durable tip) into a
/// fresh journal directory `NEW_DIR`, recording the parent pointer,
/// fork sequence, and fork-point snapshot in `NEW_DIR/fork.axbmeta`.
pub fn branch(rest: &[&str]) -> i32 {
    let usage = "axiombase branch DIR NEW_DIR [--at-seq N] [--json]";
    let (pos, flags, values) = match parse(rest, 2, &["--json"], &["--at-seq"], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let at_seq = match parse_seq(&values, "--at-seq", usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (dir, new_dir) = (pos[0], pos[1]);
    let opts = JournalOptions {
        checkpoint_every: 0,
    };
    let parent = match Branch::open(Path::new(dir), Arc::new(StdIo), RecoveryMode::Strict, opts) {
        Ok((b, _)) => b,
        Err(e) => {
            eprintln!("branch failed: {e}");
            return 1;
        }
    };
    match parent.fork(Path::new(new_dir), at_seq) {
        Ok(forked) => {
            let meta = forked.meta().expect("forked branch carries meta");
            if flags.contains(&"--json") {
                println!(
                    "{{\"parent\": \"{}\", \"branch\": \"{}\", \"fork_seq\": {}, \
                     \"fingerprint\": \"{:016x}\"}}",
                    json_escape(dir),
                    json_escape(new_dir),
                    meta.fork_seq,
                    forked.snapshot().fingerprint()
                );
            } else {
                println!("forked {dir} at sequence {} into {new_dir}", meta.fork_seq);
            }
            0
        }
        Err(e) => {
            eprintln!("branch failed: {e}");
            1
        }
    }
}

/// `axiombase merge DIR OTHER [--json]` — merge `OTHER`'s post-fork
/// suffix into `DIR`, certificate-checked. Exits 0 with the certificate
/// summary when every cross-branch pair commutes; exits 1 with the
/// structured witnessed conflict (pair, kinds, footprints, witness
/// permutation) when any pair does not — without modifying either
/// directory.
pub fn merge(rest: &[&str]) -> i32 {
    let usage = "axiombase merge DIR OTHER [--json]";
    let (pos, flags, _) = match parse(rest, 2, &["--json"], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (dir, other_dir) = (pos[0], pos[1]);
    let json = flags.contains(&"--json");
    let opts = JournalOptions {
        checkpoint_every: 0,
    };
    let ours = match Branch::open(Path::new(dir), Arc::new(StdIo), RecoveryMode::Strict, opts) {
        Ok((b, _)) => b,
        Err(e) => {
            eprintln!("merge failed: {e}");
            return 1;
        }
    };
    let theirs = match Branch::open(
        Path::new(other_dir),
        Arc::new(StdIo),
        RecoveryMode::Strict,
        opts,
    ) {
        Ok((b, _)) => b,
        Err(e) => {
            eprintln!("merge failed: {e}");
            return 1;
        }
    };
    match ours.merge(&theirs) {
        Ok(report) => {
            if json {
                println!(
                    "{{\"merged\": true, \"fork_seq\": {}, \"ours\": {}, \"theirs\": {}, \
                     \"cross_pairs\": {}, \"checked\": {}, \
                     \"merged_seq\": {}, \"canonical_fingerprint\": \"{:016x}\"}}",
                    report.fork_seq,
                    report.ours,
                    report.theirs,
                    report.certificate.cross_pairs(),
                    report.check.cross_pairs,
                    report.merged_seq,
                    report.canonical_fingerprint
                );
            } else {
                println!(
                    "merged {other_dir} into {dir}: {} op(s) adopted on top of {} \
                     (fork point {})",
                    report.theirs, report.ours, report.fork_seq
                );
                println!(
                    "certificate: {} cross pair(s) commute, re-verified independently",
                    report.certificate.cross_pairs()
                );
                println!(
                    "merged sequence {}, canonical fingerprint {:016x}",
                    report.merged_seq, report.canonical_fingerprint
                );
            }
            0
        }
        Err(MergeError::Conflict(c)) => {
            if json {
                let witness = match &c.verdict {
                    ConflictVerdict::Witnessed { kind, witness } => {
                        let order: Vec<String> =
                            witness.order.iter().map(|&x| (x + 1).to_string()).collect();
                        format!(
                            "\"verdict\": \"{}\", \"witness\": {{\"order\": [{}], \
                             \"prefix\": {}, \"note\": \"{}\"}}",
                            kind.tag(),
                            order.join(","),
                            witness.prefix,
                            json_escape(&witness.note)
                        )
                    }
                    ConflictVerdict::Constraint { note } => format!(
                        "\"verdict\": \"order-constraint\", \"note\": \"{}\"",
                        json_escape(note)
                    ),
                };
                println!(
                    "{{\"merged\": false, \"conflict\": {{\"a_index\": {}, \"b_index\": {}, \
                     \"a_kind\": \"{}\", \"b_kind\": \"{}\", \"a_footprint\": {}, \
                     \"b_footprint\": {}, {witness}}}}}",
                    c.a_index + 1,
                    c.b_index + 1,
                    c.a_kind,
                    c.b_kind,
                    footprint_json(&c.a_footprint),
                    footprint_json(&c.b_footprint),
                );
            } else {
                eprintln!("merge refused: cross-branch pair is not order-independent");
                eprintln!(
                    "  ours:   op {} {} reads {} writes {}",
                    c.a_index + 1,
                    c.a_kind,
                    cells_text(&c.a_footprint.reads),
                    cells_text(&c.a_footprint.writes)
                );
                eprintln!(
                    "  theirs: op {} {} reads {} writes {}",
                    c.b_index + 1,
                    c.b_kind,
                    cells_text(&c.b_footprint.reads),
                    cells_text(&c.b_footprint.writes)
                );
                match &c.verdict {
                    ConflictVerdict::Witnessed { kind, witness } => {
                        let order: Vec<String> =
                            witness.order.iter().map(|&x| (x + 1).to_string()).collect();
                        eprintln!("  verdict: {} conflict", kind.tag());
                        eprintln!(
                            "  witness permutation: [{}] (diverges within {} op(s))",
                            order.join(" "),
                            witness.prefix
                        );
                        eprintln!("  {}", witness.note);
                    }
                    ConflictVerdict::Constraint { note } => {
                        eprintln!("  verdict: not certifiable — {note}");
                    }
                }
                eprintln!("neither journal was modified");
            }
            1
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            1
        }
    }
}

/// `axiombase append DIR SCRIPT` — extend a journal's history from a
/// command script. The script is replayed from scratch; some prefix of
/// it must reproduce the journal's exact current state (same
/// fingerprint), and the remaining suffix is appended as journaled
/// operations. This is how a freshly forked branch is grown from a
/// committed script: the script carries the full history, the journal
/// already holds the shared prefix.
pub fn append(rest: &[&str]) -> i32 {
    let usage = "axiombase append DIR SCRIPT";
    let (pos, _, _) = match parse(rest, 2, &[], &[], usage) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (dir, script) = (pos[0], pos[1]);
    let (initial, ops) = match crate::analyze::load_trace(script) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("append failed: {e}");
            return 1;
        }
    };
    let opts = JournalOptions {
        checkpoint_every: 0,
    };
    let (js, _) = match axiombase_core::JournaledSchema::open(
        Path::new(dir),
        Arc::new(StdIo),
        RecoveryMode::Strict,
        opts,
    ) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("append failed: {e}");
            return 1;
        }
    };
    let want = js.snapshot().fingerprint();
    // Find the script prefix that reproduces the journal's current state
    // (replay is deterministic, so fingerprint equality is exact).
    let mut replica = initial.clone();
    let mut prefix = None;
    if replica.fingerprint() == want {
        prefix = Some(0);
    } else {
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = op.apply(&mut replica) {
                eprintln!("append failed: script op {} rejected: {e}", i + 1);
                return 1;
            }
            if replica.fingerprint() == want {
                prefix = Some(i + 1);
                break;
            }
        }
    }
    let Some(k) = prefix else {
        eprintln!(
            "append failed: no prefix of {script} reproduces the current state of {dir}; \
             the script does not extend this journal's history"
        );
        return 1;
    };
    let suffix = &ops[k..];
    if suffix.is_empty() {
        println!("nothing to append: {dir} already holds the whole script");
        return 0;
    }
    match js.apply_trace(suffix) {
        Ok(n) => {
            println!("appended {n} op(s) to {dir} (sequence {})", js.seq());
            0
        }
        Err(e) => {
            eprintln!("append failed: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal_cmd;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("axb-versioned-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn usage_errors_exit_2() {
        assert_eq!(at(&[]), 2);
        assert_eq!(at(&["somewhere"]), 2, "--seq is required");
        assert_eq!(at(&["somewhere", "--seq", "x"]), 2);
        assert_eq!(at(&["somewhere", "--seq"]), 2, "--seq needs a value");
        assert_eq!(branch(&["only-one"]), 2);
        assert_eq!(branch(&["a", "b", "--at-seq", "nope"]), 2);
        assert_eq!(merge(&["a"]), 2);
        assert_eq!(merge(&["a", "b", "--bogus"]), 2);
        assert_eq!(append(&["a"]), 2);
    }

    #[test]
    fn branch_at_merge_round_trip() {
        let root = tmp_dir("round-root");
        let alpha = tmp_dir("round-alpha");
        let beta = tmp_dir("round-beta");
        let script = tmp_dir("round-script").with_extension("axb");
        std::fs::write(
            &script,
            "type add PA\ntype add PB\ntype add C under PA PB\ntype add D under PB\n",
        )
        .unwrap();
        let (r, s, a, b) = (
            root.to_str().unwrap(),
            script.to_str().unwrap(),
            alpha.to_str().unwrap(),
            beta.to_str().unwrap(),
        );
        assert_eq!(journal_cmd::init(&[r, s]), 0);
        assert_eq!(branch(&[r, a]), 0);
        assert_eq!(branch(&[r, b, "--json"]), 0);

        // Disjoint-row drops: one per branch, certified on merge.
        let alpha_script = tmp_dir("round-ascript").with_extension("axb");
        std::fs::write(
            &alpha_script,
            "type add PA\ntype add PB\ntype add C under PA PB\ntype add D under PB\n\
             edge drop C PA\n",
        )
        .unwrap();
        let beta_script = tmp_dir("round-bscript").with_extension("axb");
        std::fs::write(
            &beta_script,
            "type add PA\ntype add PB\ntype add C under PA PB\ntype add D under PB\n\
             edge drop D PB\n",
        )
        .unwrap();
        assert_eq!(append(&[a, alpha_script.to_str().unwrap()]), 0);
        assert_eq!(append(&[b, beta_script.to_str().unwrap()]), 0);
        assert_eq!(merge(&[a, b, "--json"]), 0);
        assert_eq!(at(&[r, "--seq", "2"]), 0, "root keeps full history");
        assert_eq!(
            at(&[a, "--seq", "6", "--json"]),
            0,
            "pre-merge branch state"
        );
        assert_eq!(at(&[a, "--seq", "99"]), 1, "past the tip is typed");
        assert_eq!(
            at(&[a, "--seq", "1"]),
            1,
            "before the fork checkpoint is typed"
        );

        for d in [&root, &alpha, &beta] {
            std::fs::remove_dir_all(d).ok();
        }
        std::fs::remove_file(&script).ok();
        std::fs::remove_file(&alpha_script).ok();
        std::fs::remove_file(&beta_script).ok();
    }
}
