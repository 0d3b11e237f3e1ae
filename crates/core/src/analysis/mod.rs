//! `core::analysis` — semantic static analysis of evolution traces.
//!
//! Everything here works from the *designer inputs* alone (`P_e`/`N_e`
//! rows, names, liveness, freezing) via a symbolic shadow of the schema;
//! no operation is ever executed and no derivation is ever run. The
//! submodules:
//!
//! - [`footprint`] — per-op read/write sets over input cells, inferred in
//!   one forward pass over a symbolic shadow of the designer inputs;
//! - [`commute`] — the commutativity/conflict engine: pair verdicts with
//!   axiom-referenced justifications, witness permutations for certified
//!   conflicts, and honest order constraints for everything else;
//! - [`optimize`] — semantics-preserving trace rewrites (dead and
//!   idempotent ops, cancelling pairs, superseded renames);
//! - [`mc`] — the bounded model checker (the one deliberately *dynamic*
//!   resident: it enumerates every small essential-input schema and
//!   machine-checks the nine axioms, engine agreement, and drop-edge
//!   permutation invariance);
//! - [`plan`] — certified reordering plans: compiles the independence
//!   partition into a DAG of stages whose intra-stage classes carry
//!   slot-disjointness certificates, re-verified by an independent
//!   checker ([`plan::check`]) that trusts nothing from the planner;
//! - [`merge`] and [`impact`] — the merge certifier for two branch
//!   suffixes and the instance-impact analyzer, each with its own
//!   independent checker.
//!
//! The headline consumer is order-independence certification
//! ([`TraceAnalysis::certified`]): when every unordered pair of a trace
//! commutes, **all `n!` permutations** of the trace produce the identical
//! final schema — one certificate covers them all, statically. The
//! [`IndependenceClass`]es partition a trace: ops in different classes
//! commute, and the planner seeds its classes from them.

pub mod commute;
pub mod footprint;
pub mod impact;
pub mod mc;
pub mod merge;
pub mod optimize;
pub mod plan;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::history::RecordedOp;
use crate::json_escape;
use crate::model::Schema;

pub use commute::{CommuteReason, ConflictKind, PairReport, PairVerdict, Witness};
pub use footprint::{Cell, Footprint, SymbolicState};
pub use impact::{
    ConversionObligation, ImpactAnalysis, ImpactCertificate, ImpactCheck, ImpactLevel, OpImpact,
    PlanStep, PropagationPlan, Strategies, Strategy, TypeImpact,
};
pub use mc::{check_bounded, McAxiomRow, McCertificate};
pub use merge::{ConflictVerdict, CrossPairProof, MergeCertificate, MergeCheck, MergeConflict};
pub use optimize::{optimize_trace, OptimizedTrace, RewriteKind, TraceRewrite};
pub use plan::{build_plan, EvolutionPlan, OrderEdge, PlanCertificate, PlanCheck, PlanClass, Slot};

/// A set of trace positions that must stay together: every pair that is
/// not certified commuting lands in the same class, so ops in *different*
/// classes are certified order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndependenceClass {
    /// Member trace positions, ascending.
    pub ops: Vec<usize>,
}

/// The complete static analysis of one trace.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Per-op footprints against their pre-states.
    pub footprints: Vec<Footprint>,
    /// Per-op kind names (from [`RecordedOp::kind_name`]).
    pub kinds: Vec<&'static str>,
    /// All unordered pair verdicts.
    pub pairs: Vec<PairReport>,
    /// The independence partition.
    pub classes: Vec<IndependenceClass>,
    /// Was the union edge graph acyclic (MT-ASR cycle guards vacuous in
    /// every permutation)?
    pub union_acyclic: bool,
    /// Whole-trace certificate: every pair commutes.
    pub certified: bool,
    /// Pairs certified commuting.
    pub commuting: usize,
    /// Pairs that are certified conflicts (witnessed).
    pub conflicting: usize,
    /// Pairs left as conservative order constraints.
    pub constrained: usize,
    /// Type arena labels (final names) for rendering.
    pub type_labels: Vec<String>,
    /// Property arena labels for rendering.
    pub prop_labels: Vec<String>,
}

/// `n!` as a decimal string (saturating at u128).
fn factorial_string(n: usize) -> String {
    let mut acc: u128 = 1;
    for k in 2..=(n as u128) {
        match acc.checked_mul(k) {
            Some(v) => acc = v,
            None => return format!("more than 2^128 ({n}!)"),
        }
    }
    acc.to_string()
}

/// Statically analyse `ops` as a trace evolving `initial`: footprints,
/// pairwise commutativity with certificates/witnesses, and the
/// independence partition. Never executes an operation.
pub fn analyze_trace(initial: &Schema, ops: &[RecordedOp]) -> TraceAnalysis {
    let commute::PairAnalysis {
        footprints,
        pairs,
        union_acyclic,
        last,
    } = commute::analyze_pairs(initial, ops);

    // Final-state labels for rendering (dead slots keep their names).
    let type_labels: Vec<String> = last.types.into_iter().map(|t| t.name).collect();
    let prop_labels: Vec<String> = last.props.into_iter().map(|p| p.name).collect();

    // Union-find over non-commuting pairs.
    let n = ops.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != c {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    let mut commuting = 0;
    let mut conflicting = 0;
    let mut constrained = 0;
    for pair in &pairs {
        match &pair.verdict {
            PairVerdict::Commutes { .. } => commuting += 1,
            other => {
                if matches!(other, PairVerdict::Conflicts { .. }) {
                    conflicting += 1;
                } else {
                    constrained += 1;
                }
                let (ra, rb) = (find(&mut parent, pair.a), find(&mut parent, pair.b));
                if ra != rb {
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        by_root.entry(r).or_default().push(i);
    }
    let classes: Vec<IndependenceClass> = by_root
        .into_values()
        .map(|ops| IndependenceClass { ops })
        .collect();
    let certified = n > 0 && conflicting == 0 && constrained == 0;

    let kinds = ops.iter().map(RecordedOp::kind_name).collect();
    TraceAnalysis {
        footprints,
        kinds,
        pairs,
        classes,
        union_acyclic,
        certified,
        commuting,
        conflicting,
        constrained,
        type_labels,
        prop_labels,
    }
}

impl TraceAnalysis {
    /// Number of ops analysed.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The first certified conflict, if any.
    pub fn first_conflict(&self) -> Option<&PairReport> {
        self.pairs.iter().find(|p| p.verdict.conflicts())
    }

    /// How many permutations one certificate covers (only meaningful when
    /// [`TraceAnalysis::certified`]).
    pub fn permutations_covered(&self) -> String {
        factorial_string(self.len())
    }

    /// Per-justification counts over commuting pairs, and per-kind over
    /// conflicts.
    fn verdict_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist: BTreeMap<&'static str, usize> = BTreeMap::new();
        for p in &self.pairs {
            let tag = match &p.verdict {
                PairVerdict::Commutes { reason, .. } => reason.tag(),
                PairVerdict::Conflicts { kind, .. } => kind.tag(),
                PairVerdict::OrderConstraint { .. } => "order-constraint",
            };
            *hist.entry(tag).or_default() += 1;
        }
        hist
    }

    /// Human-readable report: footprint table, pair summary, independence
    /// partition, and the order-independence certificate (or the first
    /// witnessed conflict).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} op(s)", self.len());
        for (i, kind) in self.kinds.iter().enumerate() {
            let fp = &self.footprints[i];
            let cells = |set: &BTreeSet<Cell>| {
                set.iter()
                    .map(|c| footprint::cell_label(c, &self.type_labels, &self.prop_labels))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "  op {:>3} {:<28} reads {{{}}} writes {{{}}}",
                i + 1,
                kind,
                cells(&fp.reads),
                cells(&fp.writes)
            );
        }
        let _ = writeln!(
            out,
            "pairs: {} total — {} commute, {} conflict, {} order-constrained",
            self.pairs.len(),
            self.commuting,
            self.conflicting,
            self.constrained
        );
        for (tag, count) in self.verdict_histogram() {
            let _ = writeln!(out, "  {tag}: {count}");
        }
        let _ = writeln!(
            out,
            "union edge graph: {}",
            if self.union_acyclic {
                "acyclic (cycle guards vacuous in every order)"
            } else {
                "cyclic (cycle guards order-sensitive; adds constrained)"
            }
        );
        let _ = writeln!(out, "independence classes: {}", self.classes.len());
        for (i, class) in self.classes.iter().enumerate() {
            let ops: Vec<String> = class.ops.iter().map(|&x| (x + 1).to_string()).collect();
            let _ = writeln!(out, "  class {}: ops [{}]", i + 1, ops.join(" "));
        }
        if self.certified {
            let _ = writeln!(out, "certificate: ORDER-INDEPENDENT");
            let _ = writeln!(
                out,
                "  all {} permutations of the {} ops produce the identical final schema;",
                self.permutations_covered(),
                self.len()
            );
            let _ = writeln!(
                out,
                "  certified statically from input footprints — no permutation was executed"
            );
        } else {
            let _ = writeln!(out, "certificate: NOT order-independent");
            if let Some(pair) = self.first_conflict() {
                if let PairVerdict::Conflicts { kind, witness } = &pair.verdict {
                    let _ = writeln!(
                        out,
                        "  conflicting pair: ops {} and {} ({})",
                        pair.a + 1,
                        pair.b + 1,
                        kind.tag()
                    );
                    let order: Vec<String> =
                        witness.order.iter().map(|&x| (x + 1).to_string()).collect();
                    let _ = writeln!(
                        out,
                        "  witness permutation: [{}] (diverges within {} op(s))",
                        order.join(" "),
                        witness.prefix
                    );
                    let _ = writeln!(out, "  {}", witness.note);
                }
            }
        }
        out
    }

    /// JSON report. Pair details are emitted only for non-commuting pairs
    /// (the commuting ones are summarised by the histogram).
    pub fn to_json(&self) -> String {
        let ops: Vec<String> = self
            .kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let fp = &self.footprints[i];
                let cells = |set: &BTreeSet<Cell>| {
                    set.iter()
                        .map(|c| {
                            format!(
                                "\"{}\"",
                                json_escape(&footprint::cell_label(
                                    c,
                                    &self.type_labels,
                                    &self.prop_labels
                                ))
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "{{\"index\":{},\"kind\":\"{kind}\",\"reads\":[{}],\"writes\":[{}]}}",
                    i + 1,
                    cells(&fp.reads),
                    cells(&fp.writes)
                )
            })
            .collect();
        let details: Vec<String> = self
            .pairs
            .iter()
            .filter(|p| !p.verdict.commutes())
            .map(|p| {
                let (verdict, extra) = match &p.verdict {
                    PairVerdict::Conflicts { kind, witness } => {
                        let order: Vec<String> =
                            witness.order.iter().map(|&x| (x + 1).to_string()).collect();
                        (
                            kind.tag(),
                            format!(
                                ",\"witness\":{{\"order\":[{}],\"prefix\":{},\"note\":\"{}\"}}",
                                order.join(","),
                                witness.prefix,
                                json_escape(&witness.note)
                            ),
                        )
                    }
                    PairVerdict::OrderConstraint { note } => (
                        "order-constraint",
                        format!(",\"note\":\"{}\"", json_escape(note)),
                    ),
                    PairVerdict::Commutes { .. } => unreachable!("filtered"),
                };
                format!(
                    "{{\"a\":{},\"b\":{},\"verdict\":\"{verdict}\"{extra}}}",
                    p.a + 1,
                    p.b + 1
                )
            })
            .collect();
        let hist: Vec<String> = self
            .verdict_histogram()
            .into_iter()
            .map(|(tag, count)| format!("\"{tag}\":{count}"))
            .collect();
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                let ops: Vec<String> = c.ops.iter().map(|&x| (x + 1).to_string()).collect();
                format!("{{\"ops\":[{}],\"size\":{}}}", ops.join(","), c.ops.len())
            })
            .collect();
        let witnessed = self
            .pairs
            .iter()
            .filter(|p| matches!(&p.verdict, PairVerdict::Conflicts { .. }))
            .count();
        format!(
            "{{\"ops\":[{}],\"pairs\":{{\"total\":{},\"commuting\":{},\"conflicting\":{},\
             \"constrained\":{},\"witnessed\":{witnessed},\"histogram\":{{{}}},\
             \"details\":[{}]}},\
             \"classes\":[{}],\"union_acyclic\":{},\"certified\":{},\"permutations\":\"{}\"}}",
            ops.join(","),
            self.pairs.len(),
            self.commuting,
            self.conflicting,
            self.constrained,
            hist.join(","),
            details.join(","),
            classes.join(","),
            self.union_acyclic,
            self.certified,
            if self.certified {
                self.permutations_covered()
            } else {
                "1".to_owned()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    /// The §5 diamond: five redundant edges, each child keeping another
    /// parent — certified order-independent.
    fn diamond() -> (Schema, Vec<RecordedOp>) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let p3 = s.add_type("p3", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        let c2 = s.add_type("c2", [p1, p3], []).unwrap();
        let c3 = s.add_type("c3", [p2, p3], []).unwrap();
        let drops = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c2, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c3, s: p2 },
        ];
        (s, drops)
    }

    #[test]
    fn diamond_drops_certified_independent() {
        let (s, ops) = diamond();
        let a = analyze_trace(&s, &ops);
        assert!(a.certified, "{}", a.to_text());
        assert!(a.union_acyclic);
        assert_eq!(a.classes.len(), 3);
        assert_eq!(a.permutations_covered(), "6");
    }

    #[test]
    fn same_row_drops_certified_via_row_check() {
        // Both edges of one row dropped: the row empties and relinks to ⊤
        // canonically in *both* orders — certified by the row check.
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let b = s.add_type("b", [], []).unwrap();
        let c = s.add_type("c", [a, b], []).unwrap();
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: c, s: a },
            RecordedOp::DropEssentialSupertype { t: c, s: b },
        ];
        let analysis = analyze_trace(&s, &ops);
        assert!(analysis.certified, "{}", analysis.to_text());
        let PairVerdict::Commutes { reason, .. } = &analysis.pairs[0].verdict else {
            panic!("expected commute: {:?}", analysis.pairs[0].verdict);
        };
        assert_eq!(*reason, CommuteReason::RowPermutationCheck);
    }

    #[test]
    fn add_then_drop_same_edge_is_witnessed_conflict() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let c = s.add_type("c", [], []).unwrap();
        let ops = vec![
            RecordedOp::AddEssentialSupertype { t: c, s: a },
            RecordedOp::DropEssentialSupertype { t: c, s: a },
        ];
        let analysis = analyze_trace(&s, &ops);
        assert!(!analysis.certified);
        let pair = analysis.first_conflict().expect("conflict reported");
        let PairVerdict::Conflicts { kind, witness } = &pair.verdict else {
            panic!("expected conflict");
        };
        assert_eq!(*kind, ConflictKind::Certain);
        assert_eq!(witness.order, vec![1, 0]);
        assert_eq!(analysis.classes.len(), 1);
    }

    #[test]
    fn alloc_pairs_conflict_but_cross_arena_allocs_commute() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let ops = vec![
            RecordedOp::AddProperty { name: "x".into() },
            RecordedOp::AddProperty { name: "y".into() },
            RecordedOp::AddType {
                name: "t".into(),
                supers: vec![],
                props: vec![],
            },
        ];
        let analysis = analyze_trace(&s, &ops);
        // props x/y: same arena → allocation-order conflict.
        let pair01 = &analysis.pairs[0];
        assert!(matches!(
            &pair01.verdict,
            PairVerdict::Conflicts {
                kind: ConflictKind::AllocationOrder,
                ..
            }
        ));
        // prop vs type: independent arenas → commute.
        assert!(analysis
            .pairs
            .iter()
            .any(|p| p.a == 0 && p.b == 2 && p.verdict.commutes()));
    }

    #[test]
    fn identical_ops_commute() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let ops = vec![
            RecordedOp::AddProperty { name: "x".into() },
            RecordedOp::AddProperty { name: "x".into() },
        ];
        let analysis = analyze_trace(&s, &ops);
        assert!(analysis.certified);
    }

    #[test]
    fn mention_before_drop_type_is_witnessed() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let t = s.add_type("t", [a], []).unwrap();
        s.drop_essential_supertype(t, a).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: a, p },
            RecordedOp::DropEssentialProperty { t: a, p },
            RecordedOp::DropType { t: a },
        ];
        let analysis = analyze_trace(&s, &ops);
        assert!(!analysis.certified);
        // The prop ops conflict with the later DT by mention.
        let pair = analysis
            .pairs
            .iter()
            .find(|pr| pr.a == 0 && pr.b == 2)
            .unwrap();
        assert!(pair.verdict.conflicts(), "{:?}", pair.verdict);
        assert_eq!(analysis.classes.len(), 1);
    }

    #[test]
    fn optimizer_cancels_pairs_and_preserves_replay() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let c = s.add_type("c", [a], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: c, p },
            RecordedOp::DropEssentialProperty { t: c, p },
            RecordedOp::RenameType {
                t: c,
                name: "c2".into(),
            },
            RecordedOp::RenameType {
                t: c,
                name: "c3".into(),
            },
            RecordedOp::FreezeType { t: a },
            RecordedOp::FreezeType { t: a },
        ];
        let optimized = optimize_trace(&s, &ops);
        assert!(optimized.removed_count() >= 4, "{:?}", optimized.rewrites);
        assert!(crate::history::traces_equivalent(&s, &ops, &optimized.ops));
        // Allocating ops are never removed.
        assert!(optimized
            .ops
            .iter()
            .zip(&optimized.kept)
            .all(|(op, &k)| *op == ops[k]));
    }

    #[test]
    fn json_and_text_render() {
        let (s, ops) = diamond();
        let analysis = analyze_trace(&s, &ops);
        let text = analysis.to_text();
        assert!(text.contains("ORDER-INDEPENDENT"), "{text}");
        let json = analysis.to_json();
        assert!(json.contains("\"certified\":true"), "{json}");
        assert!(json.contains("\"permutations\":\"6\""));
    }
}
