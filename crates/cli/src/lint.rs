//! The `axiombase lint` subcommand: static analysis of snapshot files and
//! command scripts with axiom-referenced diagnostics.
//!
//! ```text
//! axiombase lint [--format text|json] [--deny RULE]... [--fix] FILE...
//! ```
//!
//! Each `FILE` is sniffed by its header: a file whose first non-blank line
//! starts with `axiombase ` is a snapshot (linted statically, rules L1–L4);
//! anything else is a command script, which is executed in a fresh
//! [`Session`] and linted as a history (schema rules plus the trace rules
//! L5–L8, L10 and L11 over the recorded operations).
//!
//! `--deny RULE` (repeatable; `RULE` is a code like `L3`, a kebab-case name,
//! or `all`) turns findings of that rule into failures: the process exits 1
//! if any denied finding remains. `--fix` applies the semantics-preserving
//! fix-its to snapshot files in place ([`axiombase_core::canonicalize`];
//! every derived interface `I(t)` is left untouched) and lints the result.
//! Exit codes: 0 clean (or only undenied findings), 1 denied findings,
//! 2 usage or load errors.

use std::collections::BTreeSet;

use axiombase_core::{canonicalize, json_escape, lint_history, lint_schema, Schema};
use axiombase_core::{Diagnostic, Location, RuleId};

use crate::exec::Session;

/// Output format for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Parsed `lint` invocation.
struct Options {
    format: Format,
    deny: BTreeSet<RuleId>,
    fix: bool,
    files: Vec<String>,
}

fn usage() -> i32 {
    eprintln!("usage: axiombase lint [--format text|json] [--deny RULE|all]... [--fix] FILE...");
    eprintln!("       RULE is a code (L1..L8, L10, L11) or name (e.g. name-conflict-hazard)");
    2
}

fn parse_args(args: &[&str]) -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        deny: BTreeSet::new(),
        fix: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--format" => match it.next() {
                Some(&"text") => opts.format = Format::Text,
                Some(&"json") => opts.format = Format::Json,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--deny" => match it.next() {
                Some(&"all") => opts.deny.extend(RuleId::ALL),
                Some(&rule) => match RuleId::parse(rule) {
                    Some(r) => {
                        opts.deny.insert(r);
                    }
                    None => return Err(format!("unknown rule `{rule}`")),
                },
                None => return Err("--deny expects a rule".into()),
            },
            "--fix" => opts.fix = true,
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ => opts.files.push(arg.to_owned()),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(opts)
}

/// What one input file produced.
struct FileReport {
    path: String,
    kind: &'static str,
    fixes_applied: usize,
    diags: Vec<Diagnostic>,
    /// Final schema, for resolving ids to names in renderers.
    schema: Schema,
}

/// Entry point for `axiombase lint ARGS...`.
pub fn run(args: &[&str]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint: {e}");
            return usage();
        }
    };

    let mut reports = Vec::new();
    for path in &opts.files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lint: cannot read {path}: {e}");
                return 2;
            }
        };
        match lint_one(path, &text, opts.fix) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("lint: {path}: {e}");
                return 2;
            }
        }
    }

    let denied: usize = reports
        .iter()
        .flat_map(|r| &r.diags)
        .filter(|d| opts.deny.contains(&d.rule))
        .count();

    match opts.format {
        Format::Text => render_text(&reports, &opts.deny),
        Format::Json => println!("{}", render_json(&reports, &opts.deny, denied)),
    }

    if denied > 0 {
        1
    } else {
        0
    }
}

fn is_snapshot(text: &str) -> bool {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.starts_with("axiombase "))
}

fn lint_one(path: &str, text: &str, fix: bool) -> Result<FileReport, String> {
    if is_snapshot(text) {
        let mut schema = Schema::from_snapshot(text).map_err(|e| e.to_string())?;
        let fixes_applied = if fix {
            let n = canonicalize(&mut schema);
            // Only touch the file when its bytes would actually change: a
            // fix round that lands back on the original text (or a repeat
            // run on an already-fixed file) must not churn the inode with
            // a no-op atomic rename.
            let fixed = schema.to_snapshot();
            if n > 0 && fixed != text {
                axiombase_core::journal::io::atomic_write_file(
                    std::path::Path::new(path),
                    fixed.as_bytes(),
                )
                .map_err(|e| format!("cannot write fixed snapshot: {e}"))?;
            }
            n
        } else {
            0
        };
        Ok(FileReport {
            path: path.to_owned(),
            kind: "snapshot",
            fixes_applied,
            diags: lint_schema(&schema),
            schema,
        })
    } else {
        if fix {
            return Err(
                "--fix applies to snapshot files only (a command script cannot be rewritten \
                 mechanically)"
                    .into(),
            );
        }
        // Execute the script quietly; rejections are fine (the trace they
        // leave behind is exactly what the trace rules analyse).
        let mut session = Session::new();
        let mut sink = Vec::new();
        for line in text.lines() {
            session
                .execute_line(line, &mut sink)
                .map_err(|e| format!("io error: {e}"))?;
        }
        Ok(FileReport {
            path: path.to_owned(),
            kind: "script",
            fixes_applied: 0,
            diags: lint_history(session.history()),
            schema: session.schema().clone(),
        })
    }
}

fn type_name(schema: &Schema, t: axiombase_core::TypeId) -> String {
    schema
        .type_name(t)
        .map_or_else(|_| format!("{t}"), str::to_owned)
}

fn prop_name(schema: &Schema, p: axiombase_core::PropId) -> String {
    schema
        .prop_name(p)
        .map_or_else(|_| format!("{p}"), str::to_owned)
}

fn location_text(schema: &Schema, loc: Location) -> String {
    match loc {
        Location::Type(t) => format!("type {}", type_name(schema, t)),
        Location::Prop(p) => format!("property `{}`", prop_name(schema, p)),
        Location::Op(i) => format!("op {}", i + 1),
        Location::OpRange(a, b) => format!("ops {}-{}", a + 1, b + 1),
        Location::Schema => "schema".to_owned(),
    }
}

fn render_text(reports: &[FileReport], deny: &BTreeSet<RuleId>) {
    for r in reports {
        if r.fixes_applied > 0 {
            println!(
                "{}: applied {} semantics-preserving input edit(s)",
                r.path, r.fixes_applied
            );
        }
        if r.diags.is_empty() {
            println!("{}: clean ({})", r.path, r.kind);
            continue;
        }
        println!("{}: {} finding(s) ({})", r.path, r.diags.len(), r.kind);
        for d in &r.diags {
            let denied = if deny.contains(&d.rule) {
                " [denied]"
            } else {
                ""
            };
            let fixable = if d.fix.is_some() { " (fixable)" } else { "" };
            println!(
                "  {} {} at {}: {} [{}]{}{}",
                d.severity,
                d.rule,
                location_text(&r.schema, d.location),
                d.message,
                d.reference,
                fixable,
                denied,
            );
        }
    }
}

fn json_str_list(items: impl IntoIterator<Item = String>) -> String {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json_escape(&s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn diagnostic_json(schema: &Schema, d: &Diagnostic, denied: bool) -> String {
    let location = match d.location {
        Location::Type(t) => format!(
            "{{\"kind\":\"type\",\"name\":\"{}\"}}",
            json_escape(&type_name(schema, t))
        ),
        Location::Prop(p) => format!(
            "{{\"kind\":\"prop\",\"name\":\"{}\"}}",
            json_escape(&prop_name(schema, p))
        ),
        Location::Op(i) => format!("{{\"kind\":\"op\",\"index\":{}}}", i + 1),
        Location::OpRange(a, b) => format!(
            "{{\"kind\":\"op-range\",\"start\":{},\"end\":{}}}",
            a + 1,
            b + 1
        ),
        Location::Schema => "{\"kind\":\"schema\"}".to_owned(),
    };
    let fix = match &d.fix {
        Some(f) => format!("\"{}\"", json_escape(&f.title)),
        None => "null".to_owned(),
    };
    format!(
        "{{\"rule\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"location\":{},\
         \"types\":{},\"props\":{},\"reference\":\"{}\",\"message\":\"{}\",\
         \"fix\":{},\"denied\":{}}}",
        d.rule.code(),
        d.rule.name(),
        d.severity.as_str(),
        location,
        json_str_list(d.types.iter().map(|&t| type_name(schema, t))),
        json_str_list(d.props.iter().map(|&p| prop_name(schema, p))),
        json_escape(&d.reference.to_string()),
        json_escape(&d.message),
        fix,
        denied,
    )
}

fn render_json(reports: &[FileReport], deny: &BTreeSet<RuleId>, denied: usize) -> String {
    let files: Vec<String> = reports
        .iter()
        .map(|r| {
            let diags: Vec<String> = r
                .diags
                .iter()
                .map(|d| diagnostic_json(&r.schema, d, deny.contains(&d.rule)))
                .collect();
            format!(
                "{{\"path\":\"{}\",\"kind\":\"{}\",\"fixes_applied\":{},\"diagnostics\":[{}]}}",
                json_escape(&r.path),
                r.kind,
                r.fixes_applied,
                diags.join(",")
            )
        })
        .collect();
    let total: usize = reports.iter().map(|r| r.diags.len()).sum();
    format!(
        "{{\"files\":[{}],\"total\":{total},\"denied\":{denied}}}",
        files.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_rules() {
        let o = parse_args(&[
            "--format",
            "json",
            "--deny",
            "L3",
            "--deny",
            "churn-or-no-op",
            "f",
        ])
        .unwrap();
        assert_eq!(o.format, Format::Json);
        assert!(o.deny.contains(&RuleId::NameConflictHazard));
        assert!(o.deny.contains(&RuleId::ChurnNoOp));
        assert_eq!(o.files, vec!["f"]);

        let o = parse_args(&["--deny", "all", "x", "y"]).unwrap();
        assert_eq!(o.deny.len(), 10);
        assert_eq!(o.files.len(), 2);

        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["--deny", "L9", "f"]).is_err());
        assert!(parse_args(&["--deny", "L12", "f"]).is_err());
        assert!(parse_args(&["--format", "xml", "f"]).is_err());
    }

    #[test]
    fn sniffs_snapshots_by_header() {
        assert!(is_snapshot("axiombase v1\nconfig rooted pointed\n"));
        assert!(is_snapshot("\n  axiombase v1\n"));
        assert!(!is_snapshot("# a script\ntype add A\n"));
        assert!(!is_snapshot(""));
    }

    #[test]
    fn script_lint_reports_trace_and_schema_findings() {
        // `B` redeclares a redundant edge (L1) and the rename is a no-op
        // churn entry (L6).
        let script = "type add A\ntype add B under A\nedge add B T_object\n";
        let report = lint_one("mem.axb", script, false).unwrap();
        assert_eq!(report.kind, "script");
        assert!(
            report
                .diags
                .iter()
                .any(|d| d.rule == RuleId::RedundantEssentialSupertype),
            "{:?}",
            report.diags
        );
    }

    #[test]
    fn snapshot_lint_is_static_only() {
        let mut s = Schema::new(axiombase_core::LatticeConfig::default());
        let root = s.add_root_type("T_object").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        s.define_property_on(a, "x").unwrap();
        let b = s.add_type("B", [a, root], []).unwrap();
        s.define_property_on(b, "y").unwrap();
        let text = s.to_snapshot();
        let report = lint_one("mem-snapshot.axb", &text, false).unwrap();
        assert_eq!(report.kind, "snapshot");
        assert!(report
            .diags
            .iter()
            .any(|d| d.rule == RuleId::RedundantEssentialSupertype));
        assert!(report.diags.iter().all(|d| !d.rule.is_trace_rule()));
    }
}
