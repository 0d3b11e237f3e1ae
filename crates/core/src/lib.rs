//! # axiombase-core — the axiomatic model of dynamic schema evolution
//!
//! A faithful, executable implementation of the axiomatic model of
//! *Peters & Özsu, "Axiomatization of Dynamic Schema Evolution in
//! Objectbases", ICDE 1995*.
//!
//! A [`Schema`] is driven entirely by two designer inputs per type — the
//! essential supertypes `P_e(t)` and essential properties `N_e(t)` — from
//! which the nine axioms of the paper's Table 2 derive the immediate
//! supertypes `P(t)`, the supertype lattice `PL(t)`, the native properties
//! `N(t)`, the inherited properties `H(t)`, and the interface `I(t)`.
//! Schema-evolution operations are edits of `P_e`/`N_e`; the model "takes
//! care of rearranging the schema to conform to these two inputs".
//!
//! ## Quick start
//!
//! ```
//! use axiombase_core::{Schema, LatticeConfig};
//!
//! // The paper's Figure 1 lattice.
//! let mut s = Schema::new(LatticeConfig::default());
//! let object = s.add_root_type("T_object")?;
//! let person = s.add_type("T_person", [object], [])?;
//! let tax = s.add_type("T_taxSource", [object], [])?;
//! let student = s.add_type("T_student", [person], [])?;
//! let employee = s.add_type("T_employee", [person, tax], [])?;
//! let ta = s.add_type("T_teachingAssistant", [student, employee], [])?;
//!
//! // Declaring redundant essentials does not bloat the immediate supertypes:
//! s.add_essential_supertype(ta, person)?;
//! assert_eq!(s.immediate_supertypes(ta)?.len(), 2); // student, employee
//!
//! // Dropping the employee link loses tax-source-ness, keeps person-ness:
//! s.drop_essential_supertype(ta, employee)?;
//! assert!(!s.is_supertype_of(tax, ta)?);
//! assert!(s.is_supertype_of(person, ta)?);
//!
//! assert!(s.verify().is_empty()); // all nine axioms hold
//! # Ok::<(), axiombase_core::SchemaError>(())
//! ```
//!
//! ## Module map
//!
//! | module | paper section |
//! |---|---|
//! | [`ids`], [`model`] | Table 1 (notation and terms) |
//! | [`bits`] | the dense word-parallel set kernel behind Table 1's terms |
//! | [`applyall`] | the apply-all operation `α_x(f, T')` |
//! | [`axioms`] | Table 2 (the nine axioms, as executable checks) |
//! | [`ops`] | §2/§3.3 (schema-evolution operations; batched and certified-plan execution) |
//! | [`engine`] | §2 "optimizations" + §6 future work (naive vs incremental) |
//! | [`oracle`] | Theorems 2.1/2.2 (soundness & completeness reference) |
//! | [`config`] | Axioms 3/4 relaxation (rooted/forest, pointed/open) |
//! | [`concurrent`] | "dynamic" = evolution while the system is in operation |
//! | [`snapshot`] | persistence of the designer inputs |
//! | [`journal`] | crash-safe durability: WAL + atomic checkpoints + recovery |
//! | [`lint`] | §5 (minimality & order-independence as static-analysis rules) |
//! | [`analysis`] | §5 semantics: effect footprints, commutativity certificates, bounded model checking, certified reordering plans |
//! | [`obs`] | observability: metrics registry + structured evolution tracing |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod applyall;
pub mod axioms;
pub mod bits;
pub mod concurrent;
pub mod config;
pub mod conflicts;
pub mod diff;
pub mod dot;
pub mod engine;
pub mod error;
pub mod history;
pub mod ids;
pub mod journal;
pub mod lint;
pub mod model;
pub mod obs;
pub mod ops;
pub mod oracle;
pub mod project;
pub mod snapshot;

pub use analysis::merge::{MergeCertificate, MergeCheck, MergeConflict};
pub use analysis::{
    analyze_trace, build_plan, check_bounded, ConversionObligation, EvolutionPlan, ImpactAnalysis,
    ImpactCertificate, ImpactCheck, ImpactLevel, IndependenceClass, McCertificate, OptimizedTrace,
    PairVerdict, PlanCertificate, PlanCheck, PropagationPlan, TraceAnalysis,
};
pub use axioms::{Axiom, AxiomViolation};
pub use bits::{IdxSet, PropSet, TypeSet};
pub use concurrent::SharedSchema;
pub use config::{LatticeConfig, Pointedness, Rootedness};
pub use conflicts::{NameConflict, Resolution};
pub use diff::{diff, DiffEntry, SchemaDiff};
pub use engine::{EngineKind, EngineStats};
pub use error::{Result, SchemaError};
pub use history::versioned::{Branch, MergeError, MergeReport};
pub use history::{traces_equivalent, History, HistoryError, RecordedOp};
pub use ids::{PropId, TypeId};
pub use journal::{
    ForkMeta, JournalError, JournalOptions, JournaledSchema, RecoveryMode, RecoveryReport,
};
pub use lint::{
    apply_fixes, canonicalize, lint_history, lint_schema, lint_trace, Diagnostic, FixEdit, FixIt,
    Lint, Location, Reference, Registry, RuleId, Severity,
};
pub use model::{DerivedType, Schema};
pub use obs::{
    EvolveObs, EvolveTracer, MetricsRegistry, MetricsSnapshot, RecomputeScope, SpanData, SpanEvent,
};
pub use ops::PlanApply;

/// Escape `s` for use inside a JSON string literal: `"` and `\`, and
/// every character below U+0020 (`\n`, `\r` and `\t` by name, the rest
/// as `\u00XX`). Type, property, snapshot and checkpoint names may carry
/// any of them; the analysis reports and the CLI's JSON output all escape
/// through this one function.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("§5 ⊤⊥"), "§5 ⊤⊥");
        assert_eq!(json_escape("X\u{1}Y\t"), "X\\u0001Y\\t");
    }
}
