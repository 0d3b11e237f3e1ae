//! `gates` — the consolidated source-hygiene gate runner.
//!
//! CI used to enforce its architectural invariants with seven ad-hoc
//! `grep` pipelines scattered across workflow jobs. Each was subtly
//! different (some exempted comment lines, some matched whole files),
//! none were unit-tested, and a typo in a path silently turned a gate
//! into a no-op. This binary replaces all of them with one audited
//! registry: every gate names the files it scans, the substrings it
//! forbids, and the reason the invariant exists — and a missing scan
//! root is a hard error, so a file rename can never disarm a gate.
//!
//! ```text
//! gates --list            # show every gate and why it exists
//! gates --all             # run the full registry
//! gates NAME...           # run the named gates
//! ```
//!
//! Exit codes: 0 all gates clean, 1 violations found, 2 bad usage or a
//! misconfigured gate (unknown name, missing scan root).
//!
//! The registry (see [`registry`]) covers:
//!
//! | gate | invariant |
//! |---|---|
//! | `prover-purity` | analysis provers never execute an op or rebuild an engine |
//! | `prover-isolation` | planner/merge/impact certifiers touch no I/O, threads, or object stores |
//! | `journal-io` | all journal I/O flows through the `JournalIo` trait (`io.rs`) |
//! | `journal-reader` | only `wire.rs` and the reader (`read.rs`) decode frames or parse checkpoints |
//! | `panic-isolation` | `heal.rs` is the only `catch_unwind` site in the journal |
//! | `wall-clock` | core reads time only through the injectable clock in `heal.rs` |
//! | `static-atomic` | all counters live in `core::obs`, not ad-hoc globals |

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One source-hygiene invariant: a set of files that must not contain a
/// set of substrings.
struct GateSpec {
    /// CLI name (`gates NAME`).
    name: &'static str,
    /// One-line rationale, shown by `--list` and on failure.
    why: &'static str,
    /// Scan roots, repo-root-relative. A root may be a file, a
    /// directory (walked recursively for `.rs` files), or contain a
    /// single `*` segment expanded against the directory tree. Literal
    /// roots must exist; wildcard expansions may come up empty per
    /// candidate but the expansion as a whole must match something.
    roots: &'static [&'static str],
    /// Path substrings that exempt a file from this gate.
    exempt: &'static [&'static str],
    /// Forbidden substrings.
    patterns: &'static [&'static str],
    /// `true`: a line violates only if it contains *every* pattern
    /// (conjunction). `false`: any single pattern on a line violates.
    conjunctive: bool,
    /// Skip lines that are pure `//` comments (the prose-mention
    /// exemption some gates historically carried).
    skip_comment_lines: bool,
}

/// A single forbidden-substring hit.
#[derive(Debug)]
struct Violation {
    path: PathBuf,
    line: usize,
    text: String,
}

/// The full gate registry. Order is presentation order for `--list`
/// and `--all`.
fn registry() -> Vec<GateSpec> {
    vec![
        GateSpec {
            name: "prover-purity",
            why: "analysis provers reason about traces statically: op application and \
                  engine recomputation must never appear in a prover file (mc.rs is \
                  exempt — exhaustive execution is the model checker's job)",
            roots: &[
                "crates/core/src/bits.rs",
                "crates/core/src/analysis/mod.rs",
                "crates/core/src/analysis/footprint.rs",
                "crates/core/src/analysis/commute.rs",
                "crates/core/src/analysis/contrast.rs",
                "crates/core/src/analysis/optimize.rs",
                "crates/core/src/analysis/plan.rs",
                "crates/core/src/analysis/merge.rs",
                "crates/core/src/analysis/impact.rs",
                "crates/core/src/lint/trace.rs",
            ],
            exempt: &[],
            patterns: &[
                concat!("RecordedOp", "::apply"),
                concat!(".apply", "("),
                concat!("apply", "_trace"),
                concat!("re", "compute"),
            ],
            conjunctive: false,
            // Doc prose may *name* the recompute kernel; code may not
            // call it.
            skip_comment_lines: true,
        },
        GateSpec {
            name: "prover-isolation",
            why: "certificate builders and their independent checkers are pure functions \
                  of (schema, trace, certificate): no filesystem, no threads, and no \
                  object-store types — otherwise a certificate cannot be re-verified \
                  from its inputs alone",
            roots: &[
                "crates/core/src/analysis/plan.rs",
                "crates/core/src/analysis/merge.rs",
                "crates/core/src/analysis/impact.rs",
            ],
            exempt: &[],
            patterns: &[
                concat!("std", "::fs"),
                concat!("std", "::thread"),
                concat!("Object", "Store"),
            ],
            conjunctive: false,
            skip_comment_lines: true,
        },
        GateSpec {
            name: "journal-io",
            why: "all journal I/O must flow through the JournalIo trait so the fault \
                  injector sees every call; io.rs is the only journal file allowed to \
                  touch the filesystem",
            roots: &["crates/core/src/journal"],
            exempt: &["journal/io.rs"],
            patterns: &[concat!("std", "::fs")],
            conjunctive: false,
            skip_comment_lines: false,
        },
        GateSpec {
            name: "journal-reader",
            why: "every reader of a journal directory (recovery, time travel, inspect, \
                  diagnose, tail repair, merge, the trace loaders) walks it by the one set \
                  of read rules in read.rs, so the next rule — a commit marker for multi-op \
                  appends — lands in one place; only wire.rs and read.rs may decode a frame \
                  or parse a checkpoint",
            roots: &["crates/core/src/journal"],
            exempt: &["journal/wire.rs", "journal/read.rs"],
            patterns: &[
                concat!("read_", "frame("),
                concat!("parse_", "checkpoint("),
                concat!("parse_header(", "\"checkpoint\""),
            ],
            conjunctive: false,
            skip_comment_lines: true,
        },
        GateSpec {
            name: "panic-isolation",
            why: "heal::isolate is the single place a writer panic is caught and \
                  re-raised as a typed error; a second catch site could swallow a panic \
                  without degrading the machine",
            roots: &["crates/core/src/journal"],
            exempt: &["journal/heal.rs"],
            patterns: &[concat!("catch_", "unwind")],
            conjunctive: false,
            skip_comment_lines: true,
        },
        GateSpec {
            name: "wall-clock",
            why: "retry/backoff timing flows through the injectable Clock so chaos \
                  schedules replay in virtual time; a direct wall-clock read or sleep \
                  elsewhere in core makes the sweeps nondeterministic",
            roots: &["crates/core/src"],
            exempt: &["journal/heal.rs"],
            patterns: &[
                concat!("Instant", "::now"),
                concat!("SystemTime", "::now"),
                concat!("thread", "::sleep"),
            ],
            conjunctive: false,
            skip_comment_lines: true,
        },
        GateSpec {
            name: "static-atomic",
            why: "all instrumentation lives in the core::obs registry so every count is \
                  snapshot-able and resettable per test; ad-hoc global counters are \
                  exactly the state the determinism suite cannot isolate",
            roots: &["crates/*/src", "crates/*/tests", "crates/*/benches"],
            exempt: &["core/src/obs/"],
            // Built with concat! so this binary's own pattern table can
            // never trip the conjunction it enforces.
            patterns: &[concat!("stat", "ic "), concat!("Ato", "mic")],
            conjunctive: true,
            skip_comment_lines: false,
        },
    ]
}

/// Repo root, resolved from this crate's manifest so the binary works
/// from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Expand a root that may contain one `*` path segment.
fn expand_root(base: &Path, root: &str) -> Result<Vec<PathBuf>, String> {
    if let Some((prefix, suffix)) = root.split_once('*') {
        let prefix = prefix.trim_end_matches('/');
        let suffix = suffix.trim_start_matches('/');
        let dir = base.join(prefix);
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot expand {root}: {prefix}: {e}"))?;
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot expand {root}: {e}"))?;
            let candidate = entry.path().join(suffix);
            if candidate.exists() {
                out.push(candidate);
            }
        }
        if out.is_empty() {
            return Err(format!("wildcard root {root} expanded to nothing"));
        }
        out.sort();
        Ok(out)
    } else {
        let p = base.join(root);
        if !p.exists() {
            // A vanished root means the gate no longer guards anything:
            // fail loudly instead of passing vacuously.
            return Err(format!("scan root {root} does not exist"));
        }
        Ok(vec![p])
    }
}

/// Collect every `.rs` file under `path` (or `path` itself if a file).
fn collect_rs(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    let entries = fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan one file's text against a gate, appending violations.
fn scan_text(spec: &GateSpec, path: &Path, text: &str, out: &mut Vec<Violation>) {
    for (i, line) in text.lines().enumerate() {
        if spec.skip_comment_lines && line.trim_start().starts_with("//") {
            continue;
        }
        let hit = if spec.conjunctive {
            spec.patterns.iter().all(|p| line.contains(p))
        } else {
            spec.patterns.iter().any(|p| line.contains(p))
        };
        if hit {
            out.push(Violation {
                path: path.to_path_buf(),
                line: i + 1,
                text: line.trim().to_owned(),
            });
        }
    }
}

/// Run one gate. Returns (files scanned, violations) or a
/// configuration error.
fn run_gate(spec: &GateSpec, base: &Path) -> Result<(usize, Vec<Violation>), String> {
    let mut files = Vec::new();
    for root in spec.roots {
        for expanded in expand_root(base, root)? {
            collect_rs(&expanded, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    files.retain(|f| {
        let s = f.to_string_lossy().replace('\\', "/");
        !spec.exempt.iter().any(|e| s.contains(e))
    });
    if files.is_empty() {
        return Err(format!("gate {} matched no files at all", spec.name));
    }
    let mut violations = Vec::new();
    for f in &files {
        let text =
            fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        scan_text(spec, f, &text, &mut violations);
    }
    Ok((files.len(), violations))
}

fn usage() -> ExitCode {
    eprintln!("usage: gates [--list] [--all] [NAME...]");
    eprintln!("gates:");
    for g in registry() {
        eprintln!("  {}", g.name);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = registry();
    if args.is_empty() {
        return usage();
    }
    if args.iter().any(|a| a == "--list") {
        for g in &all {
            println!("{}: {}", g.name, g.why);
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&GateSpec> = if args.iter().any(|a| a == "--all") {
        all.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match all.iter().find(|g| g.name == a) {
                Some(g) => sel.push(g),
                None => {
                    eprintln!("gates: unknown gate `{a}`");
                    return usage();
                }
            }
        }
        sel
    };

    let base = repo_root();
    let mut failed = false;
    for spec in selected {
        match run_gate(spec, &base) {
            Ok((files, violations)) if violations.is_empty() => {
                println!("gate {}: OK ({files} file(s) scanned)", spec.name);
            }
            Ok((_, violations)) => {
                failed = true;
                println!(
                    "gate {}: FAIL — {} violation(s)",
                    spec.name,
                    violations.len()
                );
                println!("  invariant: {}", spec.why);
                for v in &violations {
                    let rel = v
                        .path
                        .strip_prefix(&base)
                        .unwrap_or(&v.path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    println!("  {rel}:{}: {}", v.line, v.text);
                }
            }
            Err(e) => {
                eprintln!("gates: {}: {e}", spec.name);
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(patterns: &'static [&'static str], conjunctive: bool, skip: bool) -> GateSpec {
        GateSpec {
            name: "test",
            why: "test",
            roots: &[],
            exempt: &[],
            patterns,
            conjunctive,
            skip_comment_lines: skip,
        }
    }

    #[test]
    fn disjunctive_matching_flags_any_pattern() {
        let s = spec(&["alpha", "beta"], false, false);
        let mut v = Vec::new();
        scan_text(
            &s,
            Path::new("f.rs"),
            "x\nhas alpha\nhas beta\nneither\n",
            &mut v,
        );
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert_eq!(v[0].text, "has alpha");
    }

    #[test]
    fn conjunctive_matching_needs_every_pattern_on_one_line() {
        let s = spec(&["alpha", "beta"], true, false);
        let mut v = Vec::new();
        scan_text(
            &s,
            Path::new("f.rs"),
            "alpha only\nbeta only\nalpha and beta\n",
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn comment_lines_are_exempt_only_when_asked() {
        let text = "// alpha in prose\n  // indented alpha\nlet alpha = 1; // code\n";
        let strict = spec(&["alpha"], false, false);
        let mut v = Vec::new();
        scan_text(&strict, Path::new("f.rs"), text, &mut v);
        assert_eq!(v.len(), 3);
        let lenient = spec(&["alpha"], false, true);
        let mut v = Vec::new();
        scan_text(&lenient, Path::new("f.rs"), text, &mut v);
        assert_eq!(v.len(), 1, "only the code line should remain");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn registry_names_are_unique_and_impact_is_gated() {
        let all = registry();
        let mut names: Vec<&str> = all.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate gate names");
        // The impact analyzer must sit in BOTH prover gates: it neither
        // executes ops nor touches stores/threads/disk.
        for gate in ["prover-purity", "prover-isolation"] {
            let g = all.iter().find(|g| g.name == gate).unwrap();
            assert!(
                g.roots.iter().any(|r| r.ends_with("analysis/impact.rs")),
                "{gate} does not scan impact.rs"
            );
        }
    }

    #[test]
    fn prover_purity_flags_an_op_applied_by_method() {
        let all = registry();
        let g = all.iter().find(|g| g.name == "prover-purity").unwrap();
        let text = "// op.apply(&mut s) named in prose\n\
                    op.apply(&mut s)?;\n\
                    RecordedOp::apply(op, &mut s)?;\n\
                    let pre = state.supertypes(t);\n";
        let mut v = Vec::new();
        scan_text(g, Path::new("analysis/contrast.rs"), text, &mut v);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            [2, 3],
            "{v:?}"
        );
        for file in ["lint/trace.rs", "analysis/contrast.rs"] {
            assert!(
                g.roots.iter().any(|r| r.ends_with(file)),
                "{file} is not scanned"
            );
        }
    }

    #[test]
    fn journal_reader_gate_flags_a_second_reader() {
        let all = registry();
        let g = all.iter().find(|g| g.name == "journal-reader").unwrap();
        let text = "// read_frame( named in prose\n\
                    match read_frame(&data, off) {\n\
                    let schema = parse_checkpoint(&data, seq)?;\n\
                    let (seq, body) = parse_header(\"checkpoint\", &data)?;\n\
                    let (seq, body) = parse_header(\"fork\", &data)?;\n";
        let mut v = Vec::new();
        scan_text(g, Path::new("journal/mod.rs"), text, &mut v);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            [2, 3, 4],
            "{v:?}"
        );
        assert!(g.exempt.iter().any(|e| e.ends_with("journal/read.rs")));
    }

    #[test]
    fn missing_literal_root_is_a_hard_error() {
        let all = registry();
        let g = all.iter().find(|g| g.name == "journal-io").unwrap();
        let err = run_gate(g, Path::new("/nonexistent-gate-base")).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn wildcard_roots_expand_against_the_real_tree() {
        let base = repo_root();
        let crates = expand_root(&base, "crates/*/src").unwrap();
        assert!(crates.len() >= 5, "expected every crate's src dir");
        assert!(expand_root(&base, "crates/*/no-such-dir").is_err());
    }

    #[test]
    fn every_registered_gate_passes_on_this_tree() {
        // The real enforcement run: CI calls the binary, but the test
        // suite proves the tree is clean even before the workflow does.
        let base = repo_root();
        for g in registry() {
            let (files, violations) = run_gate(&g, &base).unwrap();
            assert!(files > 0, "{}: no files scanned", g.name);
            assert!(
                violations.is_empty(),
                "{}: {:?}",
                g.name,
                violations
                    .iter()
                    .map(|v| format!("{}:{}", v.path.display(), v.line))
                    .collect::<Vec<_>>()
            );
        }
    }
}
