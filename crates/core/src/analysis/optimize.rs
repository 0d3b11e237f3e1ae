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

use super::footprint::{footprint, Cell, SymbolicState};

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
fn range_touches(
    footprints: &[super::footprint::Footprint],
    range: std::ops::Range<usize>,
    cell: &Cell,
) -> bool {
    footprints[range]
        .iter()
        .any(|f| f.reads.contains(cell) || f.writes.contains(cell))
}

/// Find one applicable rewrite in `ops` (current trace), or `None`.
/// `orig` maps current positions to original trace indexes.
#[allow(clippy::too_many_lines)]
fn find_rewrite(initial: &Schema, ops: &[RecordedOp], orig: &[usize]) -> Option<TraceRewrite> {
    // Forward symbolic pass: pre-states and footprints.
    let mut sim = SymbolicState::capture(initial);
    let mut fps = Vec::with_capacity(ops.len());
    let mut states = Vec::with_capacity(ops.len());
    for op in ops {
        fps.push(footprint(op, &sim));
        states.push(sim.clone());
        sim.step(op);
    }

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
            RecordedOp::AddEssentialProperty { t, p } => {
                let (ti, pi) = (t.index(), p.index());
                if st.has_property(ti, pi) {
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
                // Cancelled by the next access to the same cell being MT-DB?
                if let Some(j) = ((i + 1)..ops.len()).find(|&j| {
                    let cell = Cell::NeCell(ti, pi);
                    fps[j].reads.contains(&cell) || fps[j].writes.contains(&cell)
                }) {
                    if matches!(&ops[j], RecordedOp::DropEssentialProperty { t: t2, p: p2 }
                        if t2.index() == ti && p2.index() == pi)
                    {
                        return Some(TraceRewrite {
                            kind: RewriteKind::CancellingPropPair,
                            removed: vec![orig[i], orig[j]],
                            reference: Reference::Axiom(Axiom::Nativeness),
                            note: format!(
                                "ops {} and {} add and drop the same N_e bit with no \
                                 intervening access",
                                orig[i] + 1,
                                orig[j] + 1
                            ),
                        });
                    }
                }
            }
            RecordedOp::DropEssentialProperty { t, p } => {
                let (ti, pi) = (t.index(), p.index());
                if let Some(j) = ((i + 1)..ops.len()).find(|&j| {
                    let cell = Cell::NeCell(ti, pi);
                    fps[j].reads.contains(&cell) || fps[j].writes.contains(&cell)
                }) {
                    if matches!(&ops[j], RecordedOp::AddEssentialProperty { t: t2, p: p2 }
                        if t2.index() == ti && p2.index() == pi)
                    {
                        return Some(TraceRewrite {
                            kind: RewriteKind::CancellingPropPair,
                            removed: vec![orig[i], orig[j]],
                            reference: Reference::Axiom(Axiom::Nativeness),
                            note: format!(
                                "ops {} and {} drop and restore the same N_e bit with no \
                                 intervening access",
                                orig[i] + 1,
                                orig[j] + 1
                            ),
                        });
                    }
                }
            }
            RecordedOp::AddEssentialSupertype { t, s } => {
                let (ti, si) = (t.index(), s.index());
                if let Some(j) = ((i + 1)..ops.len()).find(|&j| {
                    let cell = Cell::PeRow(ti);
                    fps[j].reads.contains(&cell) || fps[j].writes.contains(&cell)
                }) {
                    if matches!(&ops[j], RecordedOp::DropEssentialSupertype { t: t2, s: s2 }
                        if t2.index() == ti && s2.index() == si)
                    {
                        return Some(TraceRewrite {
                            kind: RewriteKind::CancellingEdgePair,
                            removed: vec![orig[i], orig[j]],
                            reference: Reference::Axiom(Axiom::Supertypes),
                            note: format!(
                                "ops {} and {} add and drop the same essential edge with no \
                                 intervening access to P_e",
                                orig[i] + 1,
                                orig[j] + 1
                            ),
                        });
                    }
                }
            }
            RecordedOp::DropEssentialSupertype { t, s } => {
                let (ti, si) = (t.index(), s.index());
                // Relink safety: restoring only reverses the drop when the
                // drop did not relink (row kept ≥ 1 other member).
                let row_len = st.supertypes(ti).count();
                if row_len < 2 {
                    continue;
                }
                if let Some(j) = ((i + 1)..ops.len()).find(|&j| {
                    let cell = Cell::PeRow(ti);
                    fps[j].reads.contains(&cell) || fps[j].writes.contains(&cell)
                }) {
                    if matches!(&ops[j], RecordedOp::AddEssentialSupertype { t: t2, s: s2 }
                        if t2.index() == ti && s2.index() == si)
                    {
                        return Some(TraceRewrite {
                            kind: RewriteKind::CancellingEdgePair,
                            removed: vec![orig[i], orig[j]],
                            reference: Reference::Axiom(Axiom::Supertypes),
                            note: format!(
                                "ops {} and {} drop and restore the same essential edge with \
                                 no intervening access to P_e",
                                orig[i] + 1,
                                orig[j] + 1
                            ),
                        });
                    }
                }
            }
            _ => {}
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
