//! The built-in semantic trace rules L7, L8, L10 and L11.
//!
//! Unlike L5/L6 (which replay the trace), these rules consume facts from
//! `core::analysis`: the trace optimizer's semantics-preserving rewrites
//! (L7), the commutativity engine's pair certificates (L8), and the
//! instance-impact analyzer's verdicts and obligations (L10/L11). All
//! are purely static — the trace is never executed.

use super::{Diagnostic, Lint, Location, Severity};
use crate::analysis;
use crate::history::RecordedOp;
use crate::model::Schema;

/// L7 — operations the static optimizer proves removable.
///
/// Runs [`analysis::optimize_trace`] and reports each rewrite: cancelling
/// add/drop pairs whose cell is untouched in between, idempotent re-adds,
/// renames that change nothing or are superseded before the name is ever
/// read, and double freezes. Every rewrite carries the axiom or §-claim
/// that justifies it, and the optimizer's differential guarantee (replay
/// equivalence under [`crate::history::traces_equivalent`]) makes the
/// diagnostic safe to act on: deleting the flagged ops cannot change the
/// final schema.
pub struct DeadOp;

impl Lint for DeadOp {
    fn id(&self) -> super::RuleId {
        super::RuleId::DeadOp
    }

    fn check_trace(&self, initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
        let optimized = analysis::optimize_trace(initial, ops);
        for rewrite in &optimized.rewrites {
            let Some(&first) = rewrite.removed.first() else {
                continue;
            };
            let location = match rewrite.removed.last() {
                Some(&last) if last != first => Location::OpRange(first, last),
                _ => Location::Op(first),
            };
            let positions: Vec<String> = rewrite
                .removed
                .iter()
                .map(|i| (i + 1).to_string())
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                location,
                types: Vec::new(),
                props: Vec::new(),
                reference: rewrite.reference,
                message: format!(
                    "op(s) {} are dead ({}): {} — removing them provably leaves the final \
                     schema unchanged",
                    positions.join(", "),
                    rewrite.kind.tag(),
                    rewrite.note
                ),
                fix: None,
            });
        }
    }
}

/// L8 — an ordering constraint on edge drops that certification makes
/// redundant.
///
/// When a trace contains two or more `DropEssentialSupertype` operations
/// and the analyzer certifies *every* pair among them as commuting, any
/// care taken to sequence those drops (migration-script ordering comments,
/// staged rollouts, manual "drop X before Y" runbooks) is unnecessary:
/// one certificate covers all their interleavings. Advisory only — it
/// fires on certainty, never on a guess.
pub struct RedundantDropOrdering;

impl Lint for RedundantDropOrdering {
    fn id(&self) -> super::RuleId {
        super::RuleId::RedundantDropOrdering
    }

    fn check_trace(&self, initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
        let drops: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, RecordedOp::DropEssentialSupertype { .. }))
            .map(|(i, _)| i)
            .collect();
        if drops.len() < 2 {
            return;
        }
        let analysis = analysis::analyze_trace(initial, ops);
        // Every pair *involving* a drop must commute: a drop pinned in
        // place by a conflicting neighbour is not freely reorderable even
        // if the drops commute among themselves.
        let all_commute = analysis
            .pairs
            .iter()
            .all(|p| !(drops.contains(&p.a) || drops.contains(&p.b)) || p.verdict.commutes());
        if !all_commute {
            return;
        }
        let (&first, &last) = (drops.first().unwrap(), drops.last().unwrap());
        out.push(Diagnostic {
            rule: self.id(),
            severity: Severity::Info,
            location: Location::OpRange(first, last),
            types: Vec::new(),
            props: Vec::new(),
            reference: super::Reference::Claim(
                "§5: essential-supertype drops are order-independent under the axioms",
            ),
            message: format!(
                "all {} edge drops in this trace are pairwise certified commuting — any \
                 ordering constraint between them is redundant (one certificate covers all \
                 {} interleavings of the drops)",
                drops.len(),
                {
                    let mut f: u128 = 1;
                    for k in 2..=(drops.len() as u128) {
                        f = f.saturating_mul(k);
                    }
                    f
                }
            ),
            fix: None,
        });
    }
}

/// L10 — a destructive schema change with no preceding guard.
///
/// Runs the instance-impact analyzer ([`analysis::impact::analyze`]) and
/// fires once per op classified **destructive**: a slot or a whole extent
/// is lost, and a plain op trace offers no snapshot/branch point that
/// would keep the lost data reachable. The fix is procedural (traces
/// cannot encode guards): split the trace before the destructive op and
/// take a journal snapshot/branch there, then run the destructive suffix
/// against the guarded copy.
pub struct DestructiveOpUnguarded;

impl Lint for DestructiveOpUnguarded {
    fn id(&self) -> super::RuleId {
        super::RuleId::DestructiveOpUnguarded
    }

    fn check_trace(&self, initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
        let ia = analysis::impact::analyze(initial, ops);
        for (i, op) in ia.certificate.ops.iter().enumerate() {
            if op.level != analysis::ImpactLevel::Destructive {
                continue;
            }
            let types: Vec<crate::ids::TypeId> = op
                .affected
                .iter()
                .map(crate::ids::TypeId::from_index)
                .collect();
            let names: Vec<String> = op
                .affected
                .iter()
                .map(|t| {
                    ia.certificate
                        .type_labels
                        .get(t)
                        .cloned()
                        .unwrap_or_else(|| format!("#{t}"))
                })
                .collect();
            let extent = op.deltas.iter().any(|d| d.extent_lost);
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Warning,
                location: Location::Op(i),
                types,
                props: Vec::new(),
                reference: super::Reference::Claim(
                    "§3.3: the objects managed by a dropped type (and the values stored \
                     under a dropped property) are dropped with it",
                ),
                message: format!(
                    "op {} ({}) is destructive for {{{}}} — {} is lost and no snapshot or \
                     branch point precedes it in the trace",
                    i + 1,
                    ia.certificate.kinds[i],
                    names.join(", "),
                    if extent {
                        "a whole extent"
                    } else {
                        "stored slot data"
                    }
                ),
                fix: Some(super::FixIt {
                    title: format!(
                        "split the trace before op {} and take a journal snapshot/branch \
                         there, so the destructive suffix runs against a guarded copy",
                        i + 1
                    ),
                    edits: Vec::new(),
                }),
            });
        }
    }
}

/// L11 — destruction that a trace rewrite downgrades to a convertible
/// change.
///
/// Fires on conversion obligations whose sequential join is destructive
/// while the *net* birth→final delta is a re-key or better: the data loss
/// is an artifact of the op sequencing (typically drop-property followed
/// by re-adding a same-named replacement), not of the final schema.
/// Rewriting the trace to reuse the original property — or converting
/// instances once, from the pre-trace representation against the final
/// schema — downgrades the change to refining/extending and makes a
/// value-carrying conversion function admissible.
pub struct ConvertibleAsExtending;

impl Lint for ConvertibleAsExtending {
    fn id(&self) -> super::RuleId {
        super::RuleId::ConvertibleAsExtending
    }

    fn check_trace(&self, initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
        let ia = analysis::impact::analyze(initial, ops);
        for o in &ia.certificate.obligations {
            if o.trace_level != analysis::ImpactLevel::Destructive
                || o.level >= analysis::ImpactLevel::Destructive
            {
                continue;
            }
            let ty = crate::ids::TypeId::from_index(o.type_index);
            let name = ia
                .certificate
                .type_labels
                .get(o.type_index)
                .cloned()
                .unwrap_or_else(|| format!("#{}", o.type_index));
            let rekeys: Vec<String> = o
                .rekeyed
                .iter()
                .map(|&(p, q)| {
                    let label = |i: usize| {
                        ia.certificate
                            .prop_labels
                            .get(i)
                            .cloned()
                            .unwrap_or_else(|| format!("#{i}"))
                    };
                    format!("{}#{p}→#{q}", label(q))
                })
                .collect();
            out.push(Diagnostic {
                rule: self.id(),
                severity: Severity::Info,
                location: Location::Op(o.first_op),
                types: vec![ty],
                props: o
                    .rekeyed
                    .iter()
                    .map(|&(p, _)| crate::ids::PropId::from_index(p))
                    .collect(),
                reference: super::Reference::Claim(
                    "§5: behaviour-preserving rewrites — the net schema change, not the \
                     op sequencing, determines what a conversion must destroy",
                ),
                message: format!(
                    "type {name} is sequentially destructive (first at op {}) but its net \
                     change is {} — a trace rewrite{} downgrades the loss to a convertible \
                     change",
                    o.first_op + 1,
                    o.level.tag(),
                    if rekeys.is_empty() {
                        String::new()
                    } else {
                        format!(" (re-key {})", rekeys.join(", "))
                    }
                ),
                fix: Some(super::FixIt {
                    title: format!(
                        "reuse the original property instead of dropping and re-adding a \
                         same-named replacement, or convert {name} once from the pre-trace \
                         representation against the final schema"
                    ),
                    edits: Vec::new(),
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::lint::Reference;

    fn base() -> Schema {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        s
    }

    #[test]
    fn dead_op_flags_cancelling_pair_with_reference() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: a, p },
            RecordedOp::DropEssentialProperty { t: a, p },
        ];
        let mut out = Vec::new();
        DeadOp.check_trace(&s, &ops, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Warning);
        assert!(matches!(
            out[0].reference,
            Reference::Axiom(_) | Reference::Claim(_)
        ));
        assert!(out[0].message.contains("dead"));
    }

    #[test]
    fn dead_op_quiet_on_effective_trace() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![RecordedOp::AddEssentialProperty { t: a, p }];
        let mut out = Vec::new();
        DeadOp.check_trace(&s, &ops, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn redundant_ordering_fires_only_on_full_certification() {
        let mut s = base();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        let c2 = s.add_type("c2", [p1, p2], []).unwrap();
        let certified = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c2, s: p2 },
        ];
        let mut out = Vec::new();
        RedundantDropOrdering.check_trace(&s, &certified, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Info);

        // An add/drop of the same edge is not certified → silent.
        let uncertified = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::AddEssentialSupertype { t: c1, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
        ];
        out.clear();
        RedundantDropOrdering.check_trace(&s, &uncertified, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn destructive_op_unguarded_fires_with_split_fixit() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.define_property_on(a, "x").unwrap();
        let ops = vec![
            RecordedOp::FreezeType { t: a },
            RecordedOp::DropProperty { p },
        ];
        let mut out = Vec::new();
        DestructiveOpUnguarded.check_trace(&s, &ops, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Warning);
        assert_eq!(out[0].location, Location::Op(1));
        assert_eq!(out[0].types, vec![a]);
        assert!(out[0].message.contains("destructive"), "{out:?}");
        let fix = out[0].fix.as_ref().expect("L10 carries a fix-it");
        assert!(fix.title.contains("before op 2"), "{fix:?}");
        assert!(fix.edits.is_empty());
    }

    #[test]
    fn destructive_op_unguarded_quiet_on_preserving_and_extending() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: a, p },
            RecordedOp::RenameType {
                t: a,
                name: "b".into(),
            },
        ];
        let mut out = Vec::new();
        DestructiveOpUnguarded.check_trace(&s, &ops, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn convertible_as_extending_flags_drop_then_readd() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let p = s.define_property_on(a, "x").unwrap();
        let minted = crate::ids::PropId::from_index(s.prop_count());
        let ops = vec![
            RecordedOp::DropProperty { p },
            RecordedOp::AddProperty { name: "x".into() },
            RecordedOp::AddEssentialProperty { t: a, p: minted },
        ];
        let mut out = Vec::new();
        ConvertibleAsExtending.check_trace(&s, &ops, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].severity, Severity::Info);
        assert_eq!(out[0].location, Location::Op(0));
        assert!(out[0].message.contains("refining"), "{out:?}");
        let fix = out[0].fix.as_ref().expect("L11 carries a fix-it");
        assert!(fix.title.contains("reuse the original property"), "{fix:?}");

        // A plain destructive drop nets out destructive too → L11 silent.
        let plain = vec![RecordedOp::DropProperty { p }];
        out.clear();
        ConvertibleAsExtending.check_trace(&s, &plain, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
