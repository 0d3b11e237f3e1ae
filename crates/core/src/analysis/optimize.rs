//! Trace optimization: semantics-preserving rewrites of a recorded trace.
//!
//! Every rewrite is justified statically (the removed ops' effects are
//! invisible to every later guard and to the final designer inputs) and is
//! intended to be checked differentially by the caller against
//! `canonical_fingerprint` (see `history::traces_equivalent`) — the
//! optimizer itself never executes an operation.
//!
//! Allocating operations (PT, AT, RT-add, BT-add) are **never** removed:
//! later trace entries reference arena slots by raw id, and eliminating an
//! allocation would rebind every subsequent id. This keeps both the
//! id-level and the name-canonical fingerprint of the optimized replay
//! identical to the original's.

use std::collections::BTreeSet;

use crate::axioms::Axiom;
use crate::history::RecordedOp;
use crate::lint::Reference;
use crate::model::Schema;

use super::footprint::{Cell, Footprint, TracePass};

/// What a rewrite did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteKind {
    /// MT-ASR + MT-DSR (or MT-DSR + MT-ASR) of the same edge with no
    /// intervening access to the row; net effect on `P_e(t)` is identity.
    CancellingEdgePair,
    /// MT-AB + MT-DB (or MT-DB + MT-AB) of the same `N_e` bit with no
    /// intervening access to the cell.
    CancellingPropPair,
    /// MT-AB of a property already essential on the type (idempotent).
    IdempotentReAdd,
    /// MT-RT/PR to the name the slot already carries.
    NoOpRename,
    /// A rename whose name is overwritten by a later rename of the same
    /// slot before anything reads it.
    SupersededRename,
    /// A freeze of an already-frozen type (idempotent).
    DoubleFreeze,
}

impl RewriteKind {
    /// Short machine-readable tag.
    pub fn tag(self) -> &'static str {
        match self {
            RewriteKind::CancellingEdgePair => "cancelling-edge-pair",
            RewriteKind::CancellingPropPair => "cancelling-prop-pair",
            RewriteKind::IdempotentReAdd => "idempotent-readd",
            RewriteKind::NoOpRename => "no-op-rename",
            RewriteKind::SupersededRename => "superseded-rename",
            RewriteKind::DoubleFreeze => "double-freeze",
        }
    }
}

/// One applied rewrite, reported against *original* trace positions.
#[derive(Debug, Clone)]
pub struct TraceRewrite {
    /// Classification.
    pub kind: RewriteKind,
    /// Original trace indexes removed by this rewrite.
    pub removed: Vec<usize>,
    /// Axiom or claim justifying semantic preservation.
    pub reference: Reference,
    /// Human-readable account.
    pub note: String,
}

/// Result of [`optimize_trace`].
#[derive(Debug)]
pub struct OptimizedTrace {
    /// Rewrites applied, in application order.
    pub rewrites: Vec<TraceRewrite>,
    /// Original indexes of the surviving ops, ascending.
    pub kept: Vec<usize>,
    /// The minimized trace (the kept ops, in order).
    pub ops: Vec<RecordedOp>,
}

impl OptimizedTrace {
    /// Ops removed in total.
    pub fn removed_count(&self) -> usize {
        self.rewrites.iter().map(|r| r.removed.len()).sum()
    }
}

/// Does any op in `ops[range]` read or write `cell`?
fn range_touches(footprints: &[Footprint], range: std::ops::Range<usize>, cell: &Cell) -> bool {
    footprints[range]
        .iter()
        .any(|f| f.reads.contains(cell) || f.writes.contains(cell))
}

/// The cancellation table. Per edit that a later op can undo: the cell it
/// edits, the op that undoes it, the rewrite's kind and axiom, and what
/// the pair does (the note after "ops i and j"). MT-AB and MT-DB toggle one
/// `N_e` bit, MT-ASR and MT-DSR one `P_e` edge; other ops have no row.
fn cancellation(op: &RecordedOp) -> Option<(Cell, RecordedOp, RewriteKind, Axiom, &'static str)> {
    use RecordedOp::{
        AddEssentialProperty as AddProp, AddEssentialSupertype as AddEdge,
        DropEssentialProperty as DropProp, DropEssentialSupertype as DropEdge,
    };
    use RewriteKind::{CancellingEdgePair as EdgePair, CancellingPropPair as PropPair};
    Some(match *op {
        AddProp { t, p } => (
            Cell::NeCell(t.index(), p.index()),
            DropProp { t, p },
            PropPair,
            Axiom::Nativeness,
            "add and drop the same N_e bit with no intervening access",
        ),
        DropProp { t, p } => (
            Cell::NeCell(t.index(), p.index()),
            AddProp { t, p },
            PropPair,
            Axiom::Nativeness,
            "drop and restore the same N_e bit with no intervening access",
        ),
        AddEdge { t, s } => (
            Cell::PeRow(t.index()),
            DropEdge { t, s },
            EdgePair,
            Axiom::Supertypes,
            "add and drop the same essential edge with no intervening access to P_e",
        ),
        DropEdge { t, s } => (
            Cell::PeRow(t.index()),
            AddEdge { t, s },
            EdgePair,
            Axiom::Supertypes,
            "drop and restore the same essential edge with no intervening access to P_e",
        ),
        _ => return None,
    })
}

/// Find one applicable rewrite in `ops` (current trace), or `None`.
/// `orig` maps current positions to original trace indexes.
fn find_rewrite(initial: &Schema, ops: &[RecordedOp], orig: &[usize]) -> Option<TraceRewrite> {
    // The one forward pass: pre-states and footprints. No rule below
    // reads the cycle-guard cell the pass may add.
    let mut states = Vec::with_capacity(ops.len());
    let fps = TracePass::run(initial, ops, |_, _, pre| states.push(pre.clone())).footprints;

    for (i, op) in ops.iter().enumerate() {
        let st = &states[i];
        match op {
            RecordedOp::RenameType { t, name } => {
                let ti = t.index();
                if st.type_name(ti) == Some(name.as_str()) {
                    return Some(TraceRewrite {
                        kind: RewriteKind::NoOpRename,
                        removed: vec![orig[i]],
                        reference: Reference::Claim(
                            "renaming to the current name leaves every designer input unchanged",
                        ),
                        note: format!("op {} renames a type to its own name", orig[i] + 1),
                    });
                }
                // Superseded by a later rename of the same slot?
                for (j, later) in ops.iter().enumerate().skip(i + 1) {
                    if let RecordedOp::RenameType { t: t2, .. } = later {
                        if t2.index() == ti {
                            let old = st.type_name(ti).unwrap_or_default().to_owned();
                            let unread = !range_touches(&fps, i + 1..j, &Cell::TypeNameCell(ti))
                                && !range_touches(&fps, i + 1..j, &Cell::Name(name.clone()))
                                && !range_touches(&fps, i + 1..j, &Cell::Name(old));
                            if unread {
                                return Some(TraceRewrite {
                                    kind: RewriteKind::SupersededRename,
                                    removed: vec![orig[i]],
                                    reference: Reference::Claim(
                                        "a name overwritten before any guard reads it is dead",
                                    ),
                                    note: format!(
                                        "op {} is overwritten by the rename at op {}",
                                        orig[i] + 1,
                                        orig[j] + 1
                                    ),
                                });
                            }
                            break;
                        }
                    }
                    // Any touch of the involved name cells blocks the scan.
                    if fps[j].reads.contains(&Cell::TypeNameCell(ti))
                        || fps[j].writes.contains(&Cell::TypeNameCell(ti))
                    {
                        break;
                    }
                }
            }
            RecordedOp::RenameProperty { p, name } => {
                let pi = p.index();
                if st.prop_name(pi) == Some(name.as_str()) {
                    return Some(TraceRewrite {
                        kind: RewriteKind::NoOpRename,
                        removed: vec![orig[i]],
                        reference: Reference::Claim(
                            "renaming to the current name leaves every designer input unchanged",
                        ),
                        note: format!("op {} renames a property to its own name", orig[i] + 1),
                    });
                }
                for (j, later) in ops.iter().enumerate().skip(i + 1) {
                    if let RecordedOp::RenameProperty { p: p2, .. } = later {
                        if p2.index() == pi
                            && !range_touches(&fps, i + 1..j, &Cell::PropNameCell(pi))
                        {
                            return Some(TraceRewrite {
                                kind: RewriteKind::SupersededRename,
                                removed: vec![orig[i]],
                                reference: Reference::Claim(
                                    "a name overwritten before any guard reads it is dead",
                                ),
                                note: format!(
                                    "op {} is overwritten by the rename at op {}",
                                    orig[i] + 1,
                                    orig[j] + 1
                                ),
                            });
                        }
                    }
                    if fps[j].reads.contains(&Cell::PropNameCell(pi))
                        || fps[j].writes.contains(&Cell::PropNameCell(pi))
                    {
                        break;
                    }
                }
            }
            RecordedOp::FreezeType { t } if st.is_frozen(t.index()) => {
                return Some(TraceRewrite {
                    kind: RewriteKind::DoubleFreeze,
                    removed: vec![orig[i]],
                    reference: Reference::Claim("freezing a frozen type is idempotent"),
                    note: format!("op {} re-freezes a frozen type", orig[i] + 1),
                });
            }
            RecordedOp::AddEssentialProperty { t, p } if st.has_property(t.index(), p.index()) => {
                return Some(TraceRewrite {
                    kind: RewriteKind::IdempotentReAdd,
                    removed: vec![orig[i]],
                    reference: Reference::Axiom(Axiom::Nativeness),
                    note: format!(
                        "op {} re-declares an already-essential property",
                        orig[i] + 1
                    ),
                });
            }
            // Relink safety: a drop that empties its row may relink it to
            // ⊤, which restoring the edge does not undo, so it never cancels.
            RecordedOp::DropEssentialSupertype { t, .. }
                if st.supertypes(t.index()).count() < 2 =>
            {
                continue;
            }
            _ => {}
        }
        // The cancellation rule: an edit whose cell is next accessed by
        // the op that undoes it cancels with that op.
        let Some((cell, inverse, kind, axiom, note)) = cancellation(op) else {
            continue;
        };
        let next = ((i + 1)..ops.len()).find(|&j| range_touches(&fps, j..j + 1, &cell));
        if let Some(j) = next.filter(|&j| ops[j] == inverse) {
            return Some(TraceRewrite {
                kind,
                removed: vec![orig[i], orig[j]],
                reference: Reference::Axiom(axiom),
                note: format!("ops {} and {} {note}", orig[i] + 1, orig[j] + 1),
            });
        }
    }
    None
}

/// Minimize `ops` by repeatedly applying the first applicable rewrite
/// until none remains. Pure static analysis: no op is ever executed.
pub fn optimize_trace(initial: &Schema, ops: &[RecordedOp]) -> OptimizedTrace {
    let mut current: Vec<RecordedOp> = ops.to_vec();
    let mut orig: Vec<usize> = (0..ops.len()).collect();
    let mut rewrites = Vec::new();
    while let Some(rw) = find_rewrite(initial, &current, &orig) {
        let removed: BTreeSet<usize> = rw.removed.iter().copied().collect();
        let mut next_ops = Vec::with_capacity(current.len() - removed.len());
        let mut next_orig = Vec::with_capacity(orig.len() - removed.len());
        for (op, &o) in current.iter().zip(&orig) {
            if !removed.contains(&o) {
                next_ops.push(op.clone());
                next_orig.push(o);
            }
        }
        current = next_ops;
        orig = next_orig;
        rewrites.push(rw);
    }
    OptimizedTrace {
        rewrites,
        kept: orig,
        ops: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::ids::{PropId, TypeId};

    /// ⊤ `obj`; `a` and `b` under it; `c` under `a` alone, `d` under both;
    /// `x` essential on `c` and `d`, `y` on nothing.
    fn lattice() -> (Schema, [TypeId; 4], [PropId; 2]) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let b = s.add_type("b", [], []).unwrap();
        let x = s.add_property("x");
        let y = s.add_property("y");
        let c = s.add_type("c", [a], [x]).unwrap();
        let d = s.add_type("d", [a, b], [x]).unwrap();
        (s, [a, b, c, d], [x, y])
    }

    /// The rewrites `optimize_trace` reports, as comparable tuples.
    fn rewrites(
        s: &Schema,
        ops: &[RecordedOp],
    ) -> Vec<(RewriteKind, Vec<usize>, Reference, String)> {
        let optimized = optimize_trace(s, ops);
        assert!(crate::history::traces_equivalent(s, ops, &optimized.ops));
        optimized
            .rewrites
            .into_iter()
            .map(|r| (r.kind, r.removed, r.reference, r.note))
            .collect()
    }

    #[test]
    fn each_cancelling_direction_reports_its_pair() {
        let (s, [a, b, c, d], [x, y]) = lattice();
        let nativeness = Reference::Axiom(Axiom::Nativeness);
        let supertypes = Reference::Axiom(Axiom::Supertypes);
        // An op on another cell in between does not block the pair.
        let add_drop_bit = [
            RecordedOp::AddEssentialProperty { t: c, p: y },
            RecordedOp::AddEssentialProperty { t: a, p: y },
            RecordedOp::DropEssentialProperty { t: c, p: y },
        ];
        assert_eq!(
            rewrites(&s, &add_drop_bit),
            [(
                RewriteKind::CancellingPropPair,
                vec![0, 2],
                nativeness,
                "ops 1 and 3 add and drop the same N_e bit with no intervening access".to_owned()
            )]
        );
        let drop_restore_bit = [
            RecordedOp::DropEssentialProperty { t: c, p: x },
            RecordedOp::AddEssentialProperty { t: c, p: x },
        ];
        assert_eq!(
            rewrites(&s, &drop_restore_bit),
            [(
                RewriteKind::CancellingPropPair,
                vec![0, 1],
                nativeness,
                "ops 1 and 2 drop and restore the same N_e bit with no intervening access"
                    .to_owned()
            )]
        );
        let add_drop_edge = [
            RecordedOp::AddEssentialSupertype { t: c, s: b },
            RecordedOp::DropEssentialSupertype { t: c, s: b },
        ];
        assert_eq!(
            rewrites(&s, &add_drop_edge),
            [(
                RewriteKind::CancellingEdgePair,
                vec![0, 1],
                supertypes,
                "ops 1 and 2 add and drop the same essential edge with no intervening \
                 access to P_e"
                    .to_owned()
            )]
        );
        let drop_restore_edge = [
            RecordedOp::DropEssentialSupertype { t: d, s: b },
            RecordedOp::AddEssentialSupertype { t: d, s: b },
        ];
        assert_eq!(
            rewrites(&s, &drop_restore_edge),
            [(
                RewriteKind::CancellingEdgePair,
                vec![0, 1],
                supertypes,
                "ops 1 and 2 drop and restore the same essential edge with no intervening \
                 access to P_e"
                    .to_owned()
            )]
        );
    }

    #[test]
    fn an_access_in_between_blocks_the_pair() {
        let (s, [_, b, c, _], [_, y]) = lattice();
        let ops = [
            RecordedOp::AddEssentialSupertype { t: c, s: b },
            RecordedOp::AddEssentialProperty { t: c, p: y },
            RecordedOp::DropType { t: b },
            RecordedOp::DropEssentialProperty { t: c, p: y },
        ];
        // The type drop reads and writes `P_e(c)`, so only the N_e pair goes.
        assert_eq!(
            rewrites(&s, &ops),
            [(
                RewriteKind::CancellingPropPair,
                vec![1, 3],
                Reference::Axiom(Axiom::Nativeness),
                "ops 2 and 4 add and drop the same N_e bit with no intervening access".to_owned()
            )]
        );
    }

    #[test]
    fn a_re_declaration_is_idempotent() {
        let (s, [_, _, c, _], [x, _]) = lattice();
        let ops = [RecordedOp::AddEssentialProperty { t: c, p: x }];
        assert_eq!(
            rewrites(&s, &ops),
            [(
                RewriteKind::IdempotentReAdd,
                vec![0],
                Reference::Axiom(Axiom::Nativeness),
                "op 1 re-declares an already-essential property".to_owned()
            )]
        );
    }

    #[test]
    fn a_last_edge_drop_and_its_re_add_are_kept() {
        // Dropping `c`'s only edge relinks it to ⊤, which re-adding the
        // edge does not undo: the pair is not an identity.
        let (s, [a, _, c, _], _) = lattice();
        let ops = [
            RecordedOp::DropEssentialSupertype { t: c, s: a },
            RecordedOp::AddEssentialSupertype { t: c, s: a },
        ];
        assert!(rewrites(&s, &ops).is_empty());
        assert!(!crate::history::traces_equivalent(&s, &ops, &[]));
    }
}
