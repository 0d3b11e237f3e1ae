//! Static analysis of schemas and operation traces (`axiombase lint`).
//!
//! The nine axiom checkers of [`crate::axioms`] answer "is this schema
//! *legal*?" — this module answers "is it *healthy*?". §5 of the paper
//! argues that the **minimality** of `P`/`N` is what makes conflict
//! resolution and lattice display cheap, and that drop-subtype sequences are
//! **order-independent** under the axioms but order-dependent in Orion.
//! Both are statically checkable properties of the designer inputs
//! (`P_e`/`N_e`) or of an operation trace, and most real schema-evolution
//! defects are exactly such latent, mechanically detectable smells.
//!
//! The subsystem is organised as:
//!
//! * ten rules, each a plain function: L1–L4 inspect a [`Schema`], the
//!   others a recorded trace of [`RecordedOp`]s, statically (L10 and L11
//!   read the trace's one instance-impact analysis);
//! * a structured [`Diagnostic`] carrying the rule id, severity, offending
//!   [`TypeId`]/[`PropId`]s, the Table-2 axiom or §5 claim it derives from
//!   ([`Reference`]), and an optional machine-applicable [`FixIt`];
//! * drivers [`lint_schema`] / [`lint_trace`] / [`lint_history`], which
//!   run the rules in code order, and the fix-it appliers
//!   [`apply_fixes`] / [`canonicalize`].
//!
//! Every fix-it is **semantics-preserving**: canonicalising `P_e`/`N_e` to
//! minimal form leaves every derived interface `I(t)` (and `P`, `PL`, `N`,
//! `H`) exactly as it was — property-tested over random workload traces on
//! both derivation engines.
//!
//! | rule | smell | grounded in |
//! |---|---|---|
//! | L1 | redundant essential supertype (`P_e` non-minimal) | §5 minimality |
//! | L2 | shadowed essential property (`N_e ∩ H ≠ ∅`) | Axiom 8 |
//! | L3 | name-conflict hazard (homonyms visible at a type) | §3.1/§5 |
//! | L4 | disconnected type / dangling property | §2 |
//! | L5 | order-dependent drop-subtype sequence under Orion | §5 |
//! | L6 | churn: add-then-drop pairs, drops of unreferenced properties | §2 |
//! | L7 | dead ops the trace optimizer proves removable | §5 |
//! | L8 | redundant ordering constraints between certified-commuting drops | §5 |
//! | L10 | destructive op with no preceding snapshot/branch guard | §3.3 |
//! | L11 | destruction a trace rewrite downgrades to a convertible re-key | §5 |

mod rules;
mod semantic;
mod trace;

use std::collections::BTreeSet;

use crate::analysis;
use crate::axioms::Axiom;
use crate::history::{History, RecordedOp};
use crate::ids::{PropId, TypeId};
use crate::model::Schema;

/// Identifies one of the ten lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// L1 — `P_e(t)` is non-minimal: an essential supertype is reachable
    /// through another essential supertype (§5 minimality).
    RedundantEssentialSupertype,
    /// L2 — `N_e(t) ∩ H(t) ≠ ∅`: Axiom 8 erases the property from `N(t)`.
    ShadowedEssentialProperty,
    /// L3 — two distinct properties with the same name are visible at one
    /// type (the Orion-style conflict the name view must resolve).
    NameConflictHazard,
    /// L4 — a type linked only through `⊤`/`⊥` with an empty interface, or
    /// a live property referenced by no `N_e`.
    DisconnectedOrDangling,
    /// L5 — a drop-subtype sequence whose Orion (OP4 relink) semantics
    /// diverge between orderings; the axiomatic result is order-independent.
    OrderDependenceHazard,
    /// L6 — add-then-drop pairs with no intervening use, and drops of
    /// properties no `N_e` references.
    ChurnNoOp,
    /// L7 — operations the static trace optimizer proves removable, with
    /// a differential replay-equivalence guarantee (`core::analysis`).
    DeadOp,
    /// L8 — edge drops whose mutual ordering the commutativity engine
    /// certifies as irrelevant: any sequencing constraint is redundant.
    RedundantDropOrdering,
    /// L10 — an op the impact analyzer classifies destructive (slot or
    /// extent lost) runs with no snapshot/branch point anywhere before it
    /// in the trace: the lost data is unrecoverable.
    DestructiveOpUnguarded,
    /// L11 — a type's conversion obligation is sequentially destructive
    /// but nets out to a re-key or better: a trace rewrite (reusing the
    /// original property, or converting once from the pre-trace
    /// representation) downgrades the loss to a convertible change.
    ConvertibleAsExtending,
}

impl RuleId {
    /// All ten rules, in code order (L9 is retired; L10 and L11
    /// keep their codes).
    pub const ALL: [RuleId; 10] = [
        RuleId::RedundantEssentialSupertype,
        RuleId::ShadowedEssentialProperty,
        RuleId::NameConflictHazard,
        RuleId::DisconnectedOrDangling,
        RuleId::OrderDependenceHazard,
        RuleId::ChurnNoOp,
        RuleId::DeadOp,
        RuleId::RedundantDropOrdering,
        RuleId::DestructiveOpUnguarded,
        RuleId::ConvertibleAsExtending,
    ];

    /// The short code (`"L1"` … `"L11"`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::RedundantEssentialSupertype => "L1",
            RuleId::ShadowedEssentialProperty => "L2",
            RuleId::NameConflictHazard => "L3",
            RuleId::DisconnectedOrDangling => "L4",
            RuleId::OrderDependenceHazard => "L5",
            RuleId::ChurnNoOp => "L6",
            RuleId::DeadOp => "L7",
            RuleId::RedundantDropOrdering => "L8",
            RuleId::DestructiveOpUnguarded => "L10",
            RuleId::ConvertibleAsExtending => "L11",
        }
    }

    /// The kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::RedundantEssentialSupertype => "redundant-essential-supertype",
            RuleId::ShadowedEssentialProperty => "shadowed-essential-property",
            RuleId::NameConflictHazard => "name-conflict-hazard",
            RuleId::DisconnectedOrDangling => "disconnected-type-or-dangling-property",
            RuleId::OrderDependenceHazard => "order-dependence-hazard",
            RuleId::ChurnNoOp => "churn-or-no-op",
            RuleId::DeadOp => "dead-op",
            RuleId::RedundantDropOrdering => "redundant-drop-ordering",
            RuleId::DestructiveOpUnguarded => "destructive-op-unguarded",
            RuleId::ConvertibleAsExtending => "convertible-as-extending",
        }
    }

    /// Does the rule analyse traces (as opposed to static schemas)?
    pub fn is_trace_rule(self) -> bool {
        matches!(
            self,
            RuleId::OrderDependenceHazard
                | RuleId::ChurnNoOp
                | RuleId::DeadOp
                | RuleId::RedundantDropOrdering
                | RuleId::DestructiveOpUnguarded
                | RuleId::ConvertibleAsExtending
        )
    }

    /// Parse a rule code (`"L1"`) or name (case-insensitive); `None` for
    /// unknown rules.
    pub fn parse(s: &str) -> Option<RuleId> {
        let lower = s.to_ascii_lowercase();
        RuleId::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(&lower) || r.name() == lower)
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: worth knowing, rarely worth acting on.
    Info,
    /// A latent smell that will cost something later (performance, clarity,
    /// surprising evolution behaviour).
    Warning,
    /// The schema or trace is structurally suspect.
    Error,
}

impl Severity {
    /// Lower-case label (`"info"`, `"warning"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a diagnostic derives from: a Table-2 axiom or a prose claim of the
/// paper (by section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// A Table-2 axiom, by its [`Axiom`] identity.
    Axiom(Axiom),
    /// A prose claim, quoted/abbreviated with its section number.
    Claim(&'static str),
}

impl std::fmt::Display for Reference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reference::Axiom(a) => write!(f, "Axiom {} ({})", a.number(), a.name()),
            Reference::Claim(c) => f.write_str(c),
        }
    }
}

/// Where a diagnostic anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// A specific type.
    Type(TypeId),
    /// A specific property.
    Prop(PropId),
    /// A single trace operation (0-based index into the op log).
    Op(usize),
    /// A contiguous range of trace operations (0-based, inclusive).
    OpRange(usize, usize),
    /// The schema as a whole.
    Schema,
}

/// One machine-applicable input edit. All edits are *semantics-preserving*:
/// they change the designer inputs (`P_e`/`N_e`/the property registry)
/// without changing any derived term of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixEdit {
    /// Remove a redundant `s` from `P_e(t)` (leaves `P`, `PL`, `H`, `I`
    /// unchanged by Axiom 5).
    DropEssentialSupertype {
        /// The subtype whose input is edited.
        t: TypeId,
        /// The redundant essential supertype.
        s: TypeId,
    },
    /// Remove a shadowed `p` from `N_e(t)` (leaves `N = N_e − H` unchanged
    /// by Axiom 8).
    DropEssentialProperty {
        /// The type whose input is edited.
        t: TypeId,
        /// The shadowed essential property.
        p: PropId,
    },
    /// Delete an unreferenced property from the registry (no `N_e` mentions
    /// it, so no `I(t)` can).
    DeleteProperty {
        /// The dangling property.
        p: PropId,
    },
}

impl FixEdit {
    /// Apply the edit through the public schema operations. Returns `Ok`
    /// even when the edit has already been superseded (e.g. a previous fix
    /// removed the same input) — fix application is idempotent.
    pub fn apply(self, schema: &mut Schema) -> crate::error::Result<()> {
        use crate::error::SchemaError;
        let r = match self {
            FixEdit::DropEssentialSupertype { t, s } => schema.drop_essential_supertype(t, s),
            FixEdit::DropEssentialProperty { t, p } => schema.drop_essential_property(t, p),
            FixEdit::DeleteProperty { p } => schema.drop_property(p).map(|_| ()),
        };
        match r {
            Ok(()) => Ok(()),
            // Already gone: an earlier edit (or user action) superseded us.
            Err(SchemaError::NotAnEssentialSupertype { .. })
            | Err(SchemaError::NotAnEssentialProperty { .. })
            | Err(SchemaError::UnknownProp(_))
            | Err(SchemaError::UnknownType(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// A machine-applicable fix: a titled batch of [`FixEdit`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixIt {
    /// Human-readable description of what applying the fix does.
    pub title: String,
    /// The input edits, applicable in order.
    pub edits: Vec<FixEdit>,
}

/// One finding: a rule, where it fired, what it derives from, and an
/// optional machine-applicable fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where the finding anchors.
    pub location: Location,
    /// The offending types (beyond the location), if any.
    pub types: Vec<TypeId>,
    /// The offending properties, if any.
    pub props: Vec<PropId>,
    /// The Table-2 axiom or §5 claim the rule derives from.
    pub reference: Reference,
    /// Human-readable explanation (uses schema names, not raw ids).
    pub message: String,
    /// A semantics-preserving fix, when one is machine-applicable.
    pub fix: Option<FixIt>,
}

impl Diagnostic {
    fn sort_key(&self) -> (u8, usize, &'static str) {
        let (kind, ix) = match self.location {
            Location::Op(i) => (0, i),
            Location::OpRange(i, _) => (0, i),
            Location::Type(t) => (1, t.index()),
            Location::Prop(p) => (2, p.index()),
            Location::Schema => (3, 0),
        };
        (kind, ix, self.rule.code())
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {} [{}]",
            self.severity,
            self.rule.code(),
            self.message,
            self.reference
        )
    }
}

/// Sort diagnostics by location, then rule code, for deterministic output
/// (stable: one rule's findings at one location keep their order).
fn sorted(mut out: Vec<Diagnostic>) -> Vec<Diagnostic> {
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Lint a static schema with the schema rules L1–L4 (the trace rules have
/// nothing to say about a schema alone).
pub fn lint_schema(schema: &Schema) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rules::redundant_essential_supertype(schema, &mut out);
    rules::shadowed_essential_property(schema, &mut out);
    rules::name_conflict_hazard(schema, &mut out);
    rules::disconnected_or_dangling(schema, &mut out);
    sorted(out)
}

/// Lint a recorded operation trace from `initial` with the trace rules
/// L5–L8, L10 and L11. No op is executed: every rule reads the symbolic
/// shadow of the inputs or facts the analyzers derive from it. The
/// trace's instance-impact analysis is computed once and read by both
/// L10 and L11.
pub fn lint_trace(initial: &Schema, ops: &[RecordedOp]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    trace::trace_rules(initial, ops, &mut out);
    semantic::dead_op(initial, ops, &mut out);
    semantic::redundant_drop_ordering(initial, ops, &mut out);
    let impact = analysis::impact::analyze(initial, ops);
    semantic::destructive_op_unguarded(&impact, &mut out);
    semantic::convertible_as_extending(&impact, &mut out);
    sorted(out)
}

/// Lint a [`History`]: trace rules over its recorded ops plus schema rules
/// over its current state.
pub fn lint_history(history: &History) -> Vec<Diagnostic> {
    let mut out = match history.as_of(0) {
        Ok(initial) => lint_trace(&initial, history.ops()),
        Err(_) => Vec::new(),
    };
    out.extend(lint_schema(history.schema()));
    sorted(out)
}

/// Apply every machine-applicable fix in `diags` to `schema`. Returns the
/// number of input edits performed. Edits that have been superseded by an
/// earlier edit are skipped silently (application is idempotent).
pub fn apply_fixes(schema: &mut Schema, diags: &[Diagnostic]) -> usize {
    let mut applied = 0;
    for d in diags {
        if let Some(fix) = &d.fix {
            for &edit in &fix.edits {
                if edit.apply(schema).is_ok() {
                    applied += 1;
                }
            }
        }
    }
    applied
}

/// Canonicalize the designer inputs to minimal form: repeatedly lint and
/// apply fixes until no fixable finding remains. Returns the total number of
/// input edits. Every derived term of Table 1 — in particular every
/// interface `I(t)` — is left exactly as it was.
pub fn canonicalize(schema: &mut Schema) -> usize {
    let mut total = 0;
    // Two passes suffice in practice (the fixes are independent); the bound
    // guards against a hypothetical pathological rule.
    for _ in 0..8 {
        let diags = lint_schema(schema);
        if diags.iter().all(|d| d.fix.is_none()) {
            break;
        }
        let n = apply_fixes(schema, &diags);
        if n == 0 {
            break;
        }
        total += n;
    }
    total
}

/// The set of property ids mentioned by any live type's `N_e` — the inputs'
/// notion of "referenced" (contrast [`Schema::referenced_properties`], which
/// ranges over derived interfaces).
pub(crate) fn essential_property_support(schema: &Schema) -> BTreeSet<PropId> {
    let mut out = BTreeSet::new();
    for t in schema.iter_types() {
        out.extend(
            schema
                .essential_properties(t)
                .expect("live type")
                .iter()
                .copied(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    #[test]
    fn rule_ids_roundtrip_codes_and_names() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.code()), Some(r));
            assert_eq!(RuleId::parse(&r.code().to_lowercase()), Some(r));
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("L9"), None);
        assert_eq!(RuleId::parse("L12"), None);
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn clean_schema_has_no_findings() {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let root = s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        s.define_property_on(a, "x").unwrap();
        assert!(lint_schema(&s).is_empty(), "{:?}", lint_schema(&s));
        assert_eq!(canonicalize(&mut s), 0);
    }

    #[test]
    fn severity_and_reference_display() {
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert!(Reference::Axiom(Axiom::Nativeness)
            .to_string()
            .contains("Axiom 8"));
        assert_eq!(Reference::Claim("§5").to_string(), "§5");
        assert_eq!(
            RuleId::RedundantEssentialSupertype.to_string(),
            "L1 (redundant-essential-supertype)"
        );
    }
}
