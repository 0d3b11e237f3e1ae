//! The `axiombase analyze` subcommand: static semantic analysis of
//! evolution traces — footprints, commutativity certificates, trace
//! minimization, the Orion OP4 contrast, and the bounded axiom model
//! checker.
//!
//! ```text
//! axiombase analyze [--json] [--certify-order-independence] [--minimize]
//!                   [--plan] [--impact] [--tail N] [--mc-bound N] [TRACE|DIR]
//! ```
//!
//! `TRACE` is a command script (executed in a fresh [`Session`] to record
//! its operation trace; the *analysis* itself never executes an op) or a
//! journal directory (read via the read-only `Journal::read_history` —
//! the checkpoint supplies the initial schema and the chained WAL suffix
//! supplies the trace). The analyzers assume a recorded, known-successful
//! trace, so a journal directory is read by strict recovery's rules: a
//! damaged checkpoint, a corrupt record, a sequence gap or a suffix op that
//! does not replay on its checkpoint is refused with the error `recover`
//! gives, and a torn tail, never acknowledged, is left out. Snapshot files
//! carry no trace and are rejected.
//!
//! `--tail N` analyses only the last `N` recorded operations; the prefix
//! is replayed first to build the initial schema (a migration script
//! usually *constructs* the lattice before the drops under scrutiny —
//! construction allocates identities, which is inherently
//! order-sensitive, so certification questions are asked of the suffix).
//!
//! `--certify-order-independence` makes the exit code meaningful: 0 only
//! if every pair of trace operations is certified commuting (one
//! certificate then covers all `n!` permutations). `--minimize` reports
//! the optimizer's semantics-preserving rewrites, each differentially
//! re-checked by replay ([`axiombase_core::traces_equivalent`]).
//! `--mc-bound N` runs the bounded model checker (with no trace argument
//! it runs alone); a failed check exits 1. `--plan` compiles the analysis
//! into a certified reordering plan (stages of slot-disjoint
//! classes) and re-verifies its certificate with the independent checker
//! `plan::check`; a certificate the checker refuses also exits 1.
//! `--impact` classifies every op by its effect on stored instances
//! (preserving / extending / refining / destructive), folds the verdicts
//! into per-type conversion obligations and a propagation plan, and
//! re-verifies the certificate with the independent `impact::check` —
//! again without ever executing an op or opening an object store.
//!
//! When the trace contains two or more essential-supertype drops the
//! report also re-derives the §5 contrast statically: the same drop list
//! under Orion's OP4 relink semantics, with a concrete divergent pair
//! when one exists ([`analysis::contrast_drop_orders`]).

use std::path::Path;

use axiombase_core::analysis::{self, mc};
use axiombase_core::journal::io::StdIo;
use axiombase_core::journal::Journal;
use axiombase_core::{json_escape, RecordedOp, Schema, TypeId};

use crate::exec::Session;

/// Parsed `analyze` invocation.
struct Options {
    json: bool,
    certify: bool,
    minimize: bool,
    plan: bool,
    impact: bool,
    tail: Option<usize>,
    mc_bound: Option<usize>,
    input: Option<String>,
}

fn usage() -> i32 {
    eprintln!(
        "usage: axiombase analyze [--json] [--certify-order-independence] [--minimize] \
         [--plan] [--impact] [--tail N] [--mc-bound N] [TRACE|DIR]"
    );
    2
}

fn parse_args(args: &[&str]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        certify: false,
        minimize: false,
        plan: false,
        impact: false,
        tail: None,
        mc_bound: None,
        input: None,
    };
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--json" => opts.json = true,
            "--certify-order-independence" => opts.certify = true,
            "--minimize" => opts.minimize = true,
            "--plan" => opts.plan = true,
            "--impact" => opts.impact = true,
            "--tail" => match it.next() {
                Some(&n) => {
                    opts.tail = Some(n.parse().map_err(|_| format!("bad --tail {n:?}"))?);
                }
                None => return Err("--tail expects a number".into()),
            },
            "--mc-bound" => match it.next() {
                Some(&n) => {
                    let n: usize = n.parse().map_err(|_| format!("bad --mc-bound {n:?}"))?;
                    if n > 6 {
                        return Err(format!(
                            "--mc-bound {n} is too large (enumeration is exponential; max 6)"
                        ));
                    }
                    opts.mc_bound = Some(n);
                }
                None => return Err("--mc-bound expects a number".into()),
            },
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ if opts.input.is_none() => opts.input = Some(arg.to_owned()),
            _ => return Err(format!("unexpected extra argument `{arg}`")),
        }
    }
    if opts.input.is_none() && opts.mc_bound.is_none() {
        return Err("nothing to do: pass a TRACE/DIR and/or --mc-bound N".into());
    }
    Ok(opts)
}

/// Load the (initial schema, trace) pair from a script file or journal
/// directory.
pub(crate) fn load_trace(path: &str) -> Result<(Schema, Vec<RecordedOp>), String> {
    let p = Path::new(path);
    if p.is_dir() {
        // The durable history, read as strict recovery reads it: refused
        // with recovery's error, torn tail left out.
        let (_, initial, ops) = Journal::read_history(p, &StdIo).map_err(|e| e.to_string())?;
        return Ok((initial, ops));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.starts_with("axiombase "))
    {
        return Err(
            "snapshot files carry no operation trace; pass a command script or a journal \
             directory"
                .into(),
        );
    }
    let mut session = Session::new();
    let mut sink = Vec::new();
    for line in text.lines() {
        session
            .execute_line(line, &mut sink)
            .map_err(|e| format!("io error: {e}"))?;
    }
    let initial = session
        .history()
        .as_of(0)
        .map_err(|e| format!("cannot reconstruct initial schema: {e}"))?;
    Ok((initial, session.history().ops().to_vec()))
}

/// The drop list a trace embeds, with the schema state just before the
/// first drop (for resolving the rows the §5 contrast reads).
fn drop_context(initial: &Schema, ops: &[RecordedOp]) -> Option<(Schema, Vec<(TypeId, TypeId)>)> {
    let first = ops
        .iter()
        .position(|op| matches!(op, RecordedOp::DropEssentialSupertype { .. }))?;
    let drops: Vec<(TypeId, TypeId)> = ops
        .iter()
        .filter_map(|op| match op {
            RecordedOp::DropEssentialSupertype { t, s } => Some((*t, *s)),
            _ => None,
        })
        .collect();
    if drops.len() < 2 {
        return None;
    }
    let mut pre = initial.clone();
    for op in &ops[..first] {
        op.apply(&mut pre).ok()?;
    }
    Some((pre, drops))
}

/// Entry point for `axiombase analyze ARGS...`.
pub fn run(args: &[&str]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("analyze: {e}");
            return usage();
        }
    };

    let mut failed = false;
    let mut json_parts: Vec<String> = Vec::new();

    if let Some(input) = &opts.input {
        let (mut initial, mut ops) = match load_trace(input) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("analyze: {e}");
                return 2;
            }
        };
        if let Some(tail) = opts.tail {
            if tail > ops.len() {
                eprintln!("analyze: --tail {tail} exceeds trace length {}", ops.len());
                return 2;
            }
            let cut = ops.len() - tail;
            for op in &ops[..cut] {
                if let Err(e) = op.apply(&mut initial) {
                    eprintln!("analyze: replaying trace prefix failed: {e}");
                    return 2;
                }
            }
            ops.drain(..cut);
        }
        let analysis = analysis::analyze_trace(&initial, &ops);
        if opts.certify && !analysis.certified {
            failed = true;
        }
        if opts.json {
            json_parts.push(format!("\"trace\":{}", analysis.to_json()));
        } else {
            print!("{}", analysis.to_text());
        }

        if opts.minimize {
            let optimized = analysis::optimize_trace(&initial, &ops);
            let equivalent = optimized.ops.len() == ops.len()
                || axiombase_core::traces_equivalent(&initial, &ops, &optimized.ops);
            if opts.json {
                let rewrites: Vec<String> = optimized
                    .rewrites
                    .iter()
                    .map(|r| {
                        let removed: Vec<String> =
                            r.removed.iter().map(|i| (i + 1).to_string()).collect();
                        format!(
                            "{{\"kind\":\"{}\",\"removed\":[{}]}}",
                            r.kind.tag(),
                            removed.join(",")
                        )
                    })
                    .collect();
                json_parts.push(format!(
                    "\"minimize\":{{\"original\":{},\"minimized\":{},\"rewrites\":[{}],\
                     \"replay_equivalent\":{equivalent}}}",
                    ops.len(),
                    optimized.ops.len(),
                    rewrites.join(",")
                ));
            } else {
                println!(
                    "minimize: {} op(s) -> {} op(s), {} rewrite(s); differential replay: {}",
                    ops.len(),
                    optimized.ops.len(),
                    optimized.rewrites.len(),
                    if equivalent {
                        "equivalent"
                    } else {
                        "NOT equivalent (optimizer bug)"
                    }
                );
                for r in &optimized.rewrites {
                    let removed: Vec<String> =
                        r.removed.iter().map(|i| (i + 1).to_string()).collect();
                    println!(
                        "  - {} removes op(s) {}: {}",
                        r.kind.tag(),
                        removed.join(", "),
                        r.note
                    );
                }
            }
            if !equivalent {
                failed = true;
            }
        }

        if opts.plan {
            let plan = analysis::plan::build_plan(&analysis);
            match analysis::plan::check(&initial, &ops, &plan.certificate) {
                Ok(verdict) => {
                    if opts.json {
                        json_parts.push(format!(
                            "\"plan\":{{\"certificate\":{},\"check\":{{\"ok\":true,\
                             \"interfering_pairs\":{}}}}}",
                            plan.to_json(),
                            verdict.interfering_pairs
                        ));
                    } else {
                        print!("{}", plan.to_text());
                        println!(
                            "plan check: OK ({} interfering pair(s) order-preserved, \
                             re-verified independently of the planner)",
                            verdict.interfering_pairs
                        );
                    }
                }
                Err(why) => {
                    // A planner emitting an uncheckable certificate is a
                    // bug worth failing loudly on.
                    failed = true;
                    if opts.json {
                        json_parts.push(format!(
                            "\"plan\":{{\"certificate\":{},\"check\":{{\"ok\":false,\
                             \"error\":\"{}\"}}}}",
                            plan.to_json(),
                            json_escape(&why)
                        ));
                    } else {
                        print!("{}", plan.to_text());
                        println!("plan check: FAILED — {why}");
                    }
                }
            }
        }

        if opts.impact {
            let ia = analysis::impact::analyze(&initial, &ops);
            match analysis::impact::check(&initial, &ops, &ia.certificate) {
                Ok(verdict) => {
                    if opts.json {
                        json_parts.push(format!(
                            "\"impact\":{{\"report\":{},\"check\":{{\"ok\":true,\"ops\":{},\
                             \"obligations\":{},\"guarded\":{}}}}}",
                            ia.to_json(),
                            verdict.ops,
                            verdict.obligations,
                            verdict.guarded
                        ));
                    } else {
                        print!("{}", ia.to_text());
                        println!(
                            "impact check: OK ({} op(s), {} obligation(s), {} guarded, \
                             re-derived independently of the analyzer)",
                            verdict.ops, verdict.obligations, verdict.guarded
                        );
                    }
                }
                Err(why) => {
                    // The analyzer emitting a certificate its own checker
                    // refuses is a bug worth failing loudly on.
                    failed = true;
                    if opts.json {
                        json_parts.push(format!(
                            "\"impact\":{{\"report\":{},\"check\":{{\"ok\":false,\
                             \"error\":\"{}\"}}}}",
                            ia.to_json(),
                            json_escape(&why)
                        ));
                    } else {
                        print!("{}", ia.to_text());
                        println!("impact check: FAILED — {why}");
                    }
                }
            }
        }

        if let Some((pre, drops)) = drop_context(&initial, &ops) {
            let report = analysis::contrast_drop_orders(&pre, &drops);
            if opts.json {
                let witness = match report.first_witness() {
                    Some(w) => format!("{{\"a\":{},\"b\":{}}}", w.a + 1, w.b + 1),
                    None => "null".to_owned(),
                };
                json_parts.push(format!(
                    "\"orion_contrast\":{{\"drops\":{},\"order_dependent\":{},\
                     \"first_witness\":{witness}}}",
                    drops.len(),
                    report.order_dependent
                ));
            } else {
                print!("{}", report.to_text(&pre, &drops));
            }
        }
    }

    if let Some(bound) = opts.mc_bound {
        let cert = mc::check_bounded(bound);
        if !cert.passed() {
            failed = true;
        }
        if opts.json {
            json_parts.push(format!("\"model_check\":{}", cert.to_json()));
        } else {
            print!("{}", cert.to_text());
        }
    }

    if opts.json {
        println!("{{{},\"failed\":{failed}}}", json_parts.join(","));
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let o = parse_args(&[
            "--json",
            "--certify-order-independence",
            "--minimize",
            "--mc-bound",
            "3",
            "trace.axs",
        ])
        .unwrap();
        assert!(o.json && o.certify && o.minimize);
        assert_eq!(o.mc_bound, Some(3));
        assert_eq!(o.tail, None);
        assert_eq!(o.input.as_deref(), Some("trace.axs"));
        let o = parse_args(&["--tail", "5", "t"]).unwrap();
        assert_eq!(o.tail, Some(5));
        let o = parse_args(&["--plan", "t"]).unwrap();
        assert!(o.plan && !o.json);
        let o = parse_args(&["--impact", "t"]).unwrap();
        assert!(o.impact && !o.plan);

        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["--mc-bound", "9", "t"]).is_err());
        assert!(parse_args(&["--mc-bound", "x"]).is_err());
        assert!(parse_args(&["a", "b"]).is_err());
        // --mc-bound alone is a complete invocation.
        assert!(parse_args(&["--mc-bound", "2"]).is_ok());
    }

    #[test]
    fn snapshot_input_is_rejected() {
        let dir = std::env::temp_dir().join(format!("axb-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.axb");
        std::fs::write(&path, "axiombase v1\nconfig rooted open\nengine naive\n").unwrap();
        let err = load_trace(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no operation trace"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn script_trace_loads_and_certifies() {
        let dir = std::env::temp_dir().join(format!("axb-analyze2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.axs");
        std::fs::write(
            &path,
            "type add PA\ntype add PB\ntype add D under PA PB\ntype add E under PA PB\n\
             edge drop D PA\nedge drop E PB\n",
        )
        .unwrap();
        let (initial, ops) = load_trace(path.to_str().unwrap()).unwrap();
        // The script ops themselves allocate; the drops at the tail are
        // what certification is about — analyze the drop suffix.
        let drops = &ops[ops.len() - 2..];
        let mut pre = initial.clone();
        for op in &ops[..ops.len() - 2] {
            op.apply(&mut pre).unwrap();
        }
        let analysis = analysis::analyze_trace(&pre, drops);
        assert!(analysis.certified, "{}", analysis.to_text());
        std::fs::remove_dir_all(&dir).ok();
    }
}
