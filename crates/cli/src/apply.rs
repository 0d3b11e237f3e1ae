//! The `axiombase apply` subcommand: execute a recorded trace against
//! its initial schema — batched, or through a certified plan.
//!
//! ```text
//! axiombase apply [--json] [--plan] [TRACE|DIR]
//! ```
//!
//! `TRACE` is a command script or journal directory, loaded exactly like
//! `axiombase analyze` (see [`crate::analyze`]). Plain `apply` replays
//! the trace as one batch ([`Schema::apply_trace`]). `--plan` statically
//! analyses the trace, compiles it into a certified
//! [`EvolutionPlan`](axiombase_core::EvolutionPlan), and executes it with
//! [`Schema::apply_plan`], which re-verifies the certificate with the
//! independent checker and then runs the classes in certified stage
//! order as one batch. A certificate the checker refuses exits 1 without
//! touching the schema.

use axiombase_core::analysis;
use axiombase_core::Schema;

/// Parsed `apply` invocation.
struct Options {
    json: bool,
    plan: bool,
    input: String,
}

fn usage() -> i32 {
    eprintln!("usage: axiombase apply [--json] [--plan] [TRACE|DIR]");
    2
}

fn parse_args(args: &[&str]) -> Result<Options, String> {
    let mut json = false;
    let mut plan = false;
    let mut input = None;
    for &arg in args {
        match arg {
            "--json" => json = true,
            "--plan" => plan = true,
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ if input.is_none() => input = Some(arg.to_owned()),
            _ => return Err(format!("unexpected extra argument `{arg}`")),
        }
    }
    Ok(Options {
        json,
        plan,
        input: input.ok_or("missing TRACE/DIR argument")?,
    })
}

/// Entry point for `axiombase apply ARGS...`.
pub fn run(args: &[&str]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("apply: {e}");
            return usage();
        }
    };
    let (mut schema, ops) = match crate::analyze::load_trace(&opts.input) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("apply: {e}");
            return 2;
        }
    };

    if !opts.plan {
        match schema.apply_trace(&ops) {
            Ok(applied) => {
                report_ok(&opts, &schema, applied, None);
                0
            }
            Err(e) => {
                eprintln!("apply: trace rejected: {e}");
                1
            }
        }
    } else {
        let analysis = analysis::analyze_trace(&schema, &ops);
        let plan = analysis::plan::build_plan(&analysis);
        match schema.apply_plan(&ops, &plan) {
            Ok(done) => {
                report_ok(&opts, &schema, done.ops, Some(&done));
                0
            }
            Err(e) => {
                eprintln!("apply: {e}");
                1
            }
        }
    }
}

fn report_ok(
    opts: &Options,
    schema: &Schema,
    applied: usize,
    plan: Option<&axiombase_core::PlanCheck>,
) {
    let fp = schema.canonical_fingerprint();
    if opts.json {
        let plan_json = match plan {
            Some(p) => format!(
                "{{\"stages\":{},\"classes\":{},\"max_parallelism\":{}}}",
                p.stages, p.classes, p.max_parallelism
            ),
            None => "null".to_owned(),
        };
        println!(
            "{{\"applied\":{applied},\"version\":{},\"fingerprint\":\"{fp:016x}\",\
             \"plan\":{plan_json}}}",
            schema.version()
        );
    } else {
        match plan {
            Some(p) => println!(
                "applied {applied} op(s) via certified plan: {} stage(s), {} class(es), \
                 max parallelism {}; version {}, fingerprint {fp:016x}",
                p.stages,
                p.classes,
                p.max_parallelism,
                schema.version()
            ),
            None => println!(
                "applied {applied} op(s) batched; version {}, fingerprint {fp:016x}",
                schema.version()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let o = parse_args(&["--json", "--plan", "t.axs"]).unwrap();
        assert!(o.json && o.plan);
        assert_eq!(o.input, "t.axs");
        let o = parse_args(&["t"]).unwrap();
        assert!(!o.json && !o.plan);
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["--bogus", "t"]).is_err());
        assert!(parse_args(&["a", "b"]).is_err());
        // `--parallel[=N]` is not a flag: a usage error.
        assert!(parse_args(&["--parallel", "t"]).is_err());
        assert!(parse_args(&["--parallel=2", "t"]).is_err());
        assert_eq!(run(&["--parallel", "t"]), 2);
    }
}
