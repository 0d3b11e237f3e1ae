//! The commutativity/conflict engine: certifies operation pairs (and whole
//! traces) as order-independent, statically.
//!
//! Soundness rests on *state-independent* commutation arguments only —
//! facts that hold in **every** interleaving, not just the recorded one —
//! because a whole-trace certificate quantifies over all `n!` permutations
//! (any permutation is reachable from the recorded order by adjacent
//! transpositions, each of which must preserve the outcome):
//!
//! 1. **Disjoint footprints** (Bernstein's condition) over the designer
//!    input cells of [`super::footprint`]. The cycle guard of MT-ASR reads
//!    global reachability, so it is footprinted only when the trace's
//!    *union* edge graph (initial edges ∪ every added edge ∪ all possible
//!    relink edges to ⊤) is cyclic; when that union is acyclic, every
//!    graph any permutation can produce is a subgraph of an acyclic graph,
//!    and the guard is vacuous in every order. The union is collected
//!    inside the analysis's own forward pass ([`TracePass`]): the live
//!    edges once at capture, then after each step only the rows that op
//!    can have given an edge. Footprints are inferred without the guard
//!    cell, and once the verdict is known it is added to the five op kinds
//!    that carry it (AT, ABT, DT, MT-ASR, MT-DSR).
//! 2. **Row-local permutation check**: all writers of one `P_e(t)` row
//!    that are row-local edge ops (MT-ASR/MT-DSR on `t`) form a group; the
//!    row's evolution under any interleaving is the composition of the
//!    group's row functions on the row's base value, so exhaustively
//!    evaluating all `k!` group orders *symbolically* (guards included —
//!    duplicate-edge, absent-edge, root-edge-drop, and the canonical
//!    relink-to-⊤) decides commutativity exactly.
//! 3. **Cell-local permutation check**: the same argument for one
//!    `N_e(t) ∋ p` bit under MT-AB/MT-DB (MT-AB is idempotent; MT-DB
//!    requires presence).
//!
//! Anything not certified by these is either a **conflict** with a
//! concrete witness permutation (replaying it must diverge in fingerprint
//! or reject an operation) or a conservative **order constraint** — an
//! honest "could not certify", never claimed as a proven conflict.

use std::collections::{BTreeMap, BTreeSet};

use crate::axioms::Axiom;
use crate::history::RecordedOp;
use crate::lint::Reference;
use crate::model::Schema;

use super::footprint::{Cell, Footprint, SymbolicState, TracePass};

/// Largest row/cell writer group checked exhaustively (`k! ≤ 720`).
const GROUP_CAP: usize = 6;

/// Why a pair is certified as commuting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommuteReason {
    /// The two operations are byte-identical; swapping them is the
    /// identity permutation.
    IdenticalOps,
    /// Disjoint read/write footprints (Bernstein's condition).
    DisjointFootprints,
    /// The enclosing `P_e`-row writer group passed the exhaustive
    /// symbolic permutation check.
    RowPermutationCheck,
    /// The enclosing `N_e`-cell writer group passed the exhaustive
    /// symbolic permutation check.
    CellPermutationCheck,
}

impl CommuteReason {
    /// Short machine-readable tag.
    pub fn tag(self) -> &'static str {
        match self {
            CommuteReason::IdenticalOps => "identical-ops",
            CommuteReason::DisjointFootprints => "disjoint-footprints",
            CommuteReason::RowPermutationCheck => "row-permutation-check",
            CommuteReason::CellPermutationCheck => "cell-permutation-check",
        }
    }
}

/// What kind of certified conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Reordering provably changes the input state or the accept/reject
    /// pattern.
    Certain,
    /// Both operations allocate from the same arena: permuting them
    /// rebinds raw ids, so replay under the permutation diverges at the
    /// id level (or rejects when later ops reference the rebound ids).
    AllocationOrder,
}

impl ConflictKind {
    /// Short machine-readable tag.
    pub fn tag(self) -> &'static str {
        match self {
            ConflictKind::Certain => "certain",
            ConflictKind::AllocationOrder => "allocation-order",
        }
    }
}

/// A concrete witness that a pair is order-dependent: a full permutation
/// of the trace and the prefix length after which replaying it must have
/// diverged from the recorded order (different `fingerprint()`) or
/// rejected an operation.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The witness permutation (indexes into the original trace).
    pub order: Vec<usize>,
    /// Replay this many ops of the permutation before comparing.
    pub prefix: usize,
    /// Human-readable account of the predicted divergence.
    pub note: String,
}

/// The verdict for one unordered pair of trace positions.
#[derive(Debug, Clone)]
pub enum PairVerdict {
    /// Certified order-independent.
    Commutes {
        /// Which theorem certified it.
        reason: CommuteReason,
        /// Axiom or paper-claim justification.
        reference: Reference,
    },
    /// Certified order-dependent, with a witness.
    Conflicts {
        /// Conflict classification.
        kind: ConflictKind,
        /// The witness permutation.
        witness: Witness,
    },
    /// Not certified either way: the scheduler must preserve the
    /// recorded order of this pair. Explicitly *not* a proven conflict.
    OrderConstraint {
        /// Why certification was declined.
        note: String,
    },
}

impl PairVerdict {
    /// Is this pair certified as commuting?
    pub fn commutes(&self) -> bool {
        matches!(self, PairVerdict::Commutes { .. })
    }

    /// Is this pair a certified conflict?
    pub fn conflicts(&self) -> bool {
        matches!(self, PairVerdict::Conflicts { .. })
    }
}

/// One analysed pair `(a, b)` with `a < b` in trace order.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Earlier trace position.
    pub a: usize,
    /// Later trace position.
    pub b: usize,
    /// The verdict.
    pub verdict: PairVerdict,
}

/// Output of the pairwise analysis (consumed by `mod.rs`).
#[derive(Debug)]
pub struct PairAnalysis {
    /// Per-op footprints against their pre-states.
    pub footprints: Vec<Footprint>,
    /// All unordered pairs, lexicographic by `(a, b)`.
    pub pairs: Vec<PairReport>,
    /// Was the union edge graph acyclic (cycle guards vacuous in every
    /// order)?
    pub union_acyclic: bool,
    /// The shadow after the last op (final labels for rendering).
    pub last: SymbolicState,
}

/// A `P_e`-row step, symbolically.
#[derive(Debug, Clone, Copy)]
enum RowStep {
    Add(usize),
    Drop(usize),
}

/// Evaluate one order of a row group on the base row. `None` = some guard
/// rejected (duplicate edge, absent edge, or root-edge drop).
fn eval_row_order(
    base: &BTreeSet<usize>,
    steps: &[RowStep],
    row_t: usize,
    root: Option<usize>,
    rooted: bool,
) -> Option<BTreeSet<usize>> {
    let mut row = base.clone();
    for step in steps {
        match *step {
            RowStep::Add(s) => {
                if !row.insert(s) {
                    return None;
                }
            }
            RowStep::Drop(s) => {
                if !row.contains(&s) {
                    return None;
                }
                if Some(s) == root && row.len() == 1 {
                    return None;
                }
                row.remove(&s);
                if row.is_empty() && rooted && Some(row_t) != root {
                    row.insert(root?);
                }
            }
        }
    }
    Some(row)
}

/// Evaluate one order of an `N_e`-cell group on the base bit. MT-AB is
/// idempotent; MT-DB requires presence.
fn eval_cell_order(base: bool, steps: &[bool]) -> Option<bool> {
    let mut bit = base;
    for &add in steps {
        if add {
            bit = true;
        } else {
            if !bit {
                return None;
            }
            bit = false;
        }
    }
    Some(bit)
}

/// All permutations of `0..k` (Heap's algorithm; `k ≤ GROUP_CAP`).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, xs: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(xs.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, xs, out);
            if k.is_multiple_of(2) {
                xs.swap(i, k - 1);
            } else {
                xs.swap(0, k - 1);
            }
        }
    }
    let mut xs: Vec<usize> = (0..k).collect();
    let mut out = Vec::new();
    heap(k, &mut xs, &mut out);
    out
}

/// Outcome of checking one writer group.
#[derive(Debug, Clone)]
enum GroupCheck {
    /// All `k!` orders applicable with identical final value.
    Uniform,
    /// Orders diverge; per-pair divergence decided by swap evaluation.
    Divergent,
    /// Not checkable (contaminated row, over cap, cycle-guard hazard).
    Skipped(String),
}

/// A row or cell writer group with its check result.
#[derive(Debug)]
struct Group {
    members: Vec<usize>,
    check: GroupCheck,
    /// Per unordered member pair: does exchanging the two members (all
    /// other members in recorded order) change the outcome? Only
    /// populated for `Divergent`.
    swaps: BTreeMap<(usize, usize), bool>,
}

/// Is `op` a row-local edge op, and on which row?
fn edge_row(op: &RecordedOp) -> Option<(usize, RowStep)> {
    match op {
        RecordedOp::AddEssentialSupertype { t, s } => Some((t.index(), RowStep::Add(s.index()))),
        RecordedOp::DropEssentialSupertype { t, s } => Some((t.index(), RowStep::Drop(s.index()))),
        _ => None,
    }
}

/// Is `op` an `N_e`-cell op, and on which cell? `bool` = is-add.
fn prop_cell(op: &RecordedOp) -> Option<((usize, usize), bool)> {
    match op {
        RecordedOp::AddEssentialProperty { t, p } => Some(((t.index(), p.index()), true)),
        RecordedOp::DropEssentialProperty { t, p } => Some(((t.index(), p.index()), false)),
        _ => None,
    }
}

/// Check one writer group exhaustively.
fn check_group<F>(members: &[usize], eval: F) -> Group
where
    F: Fn(&[usize]) -> Option<u64>,
{
    if members.len() > GROUP_CAP {
        return Group {
            members: members.to_vec(),
            check: GroupCheck::Skipped(format!(
                "{} writers exceed the exhaustive-check cap of {GROUP_CAP}",
                members.len()
            )),
            swaps: BTreeMap::new(),
        };
    }
    let k = members.len();
    let mut reference: Option<u64> = None;
    let mut uniform = true;
    for perm in permutations(k) {
        let outcome = eval(&perm);
        match (outcome, reference) {
            (Some(v), None) => reference = Some(v),
            (Some(v), Some(r)) if v == r => {}
            _ => {
                uniform = false;
                break;
            }
        }
    }
    if uniform && reference.is_some() {
        return Group {
            members: members.to_vec(),
            check: GroupCheck::Uniform,
            swaps: BTreeMap::new(),
        };
    }
    // Divergent: decide each unordered pair by exchanging exactly the two
    // members within the recorded member order.
    let mut swaps = BTreeMap::new();
    let identity: Vec<usize> = (0..k).collect();
    let base = eval(&identity);
    for x in 0..k {
        for y in (x + 1)..k {
            let mut swapped = identity.clone();
            swapped.swap(x, y);
            let other = eval(&swapped);
            swaps.insert((members[x], members[y]), base != other);
        }
    }
    Group {
        members: members.to_vec(),
        check: GroupCheck::Divergent,
        swaps,
    }
}

/// Hash a row outcome for uniformity comparison (`None` = rejection gets
/// its own bucket).
fn hash_row(row: Option<BTreeSet<usize>>) -> Option<u64> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    row.map(|r| {
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
    })
}

/// Run the full pairwise analysis: one [`TracePass`] (one capture of
/// `initial`), then the writer-group checks and every pair's verdict.
pub fn analyze_pairs(initial: &Schema, ops: &[RecordedOp]) -> PairAnalysis {
    // Forward pass: footprints against pre-states, plus the base value of
    // every row/cell a writer group touches.
    let mut row_groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut row_base: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut cell_groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    let mut cell_base: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    let pass = TracePass::run(initial, ops, |i, op, sim| {
        if let Some((t, _)) = edge_row(op) {
            row_base
                .entry(t)
                .or_insert_with(|| sim.types.get(t).map(|s| s.pe.clone()).unwrap_or_default());
            row_groups.entry(t).or_default().push(i);
        }
        if let Some((cell, _)) = prop_cell(op) {
            cell_base.entry(cell).or_insert_with(|| {
                sim.types
                    .get(cell.0)
                    .is_some_and(|s| s.ne.contains(&cell.1))
            });
            cell_groups.entry(cell).or_default().push(i);
        }
    });
    let footprints = pass.footprints;
    let cyclic = !pass.union_acyclic;
    let rooted = pass.last.rooted;
    let root = pass.last.root; // stable across the trace unless AddRootType ran

    // Check each row group (unless contaminated by a non-row-local
    // writer, over cap, or cycle-guard-hazardous).
    let mut checked_rows: BTreeMap<usize, Group> = BTreeMap::new();
    for (&t, members) in &row_groups {
        if members.len() < 2 {
            continue;
        }
        let contaminated = footprints
            .iter()
            .enumerate()
            .any(|(i, f)| !members.contains(&i) && f.writes.contains(&Cell::PeRow(t)));
        let has_add = members
            .iter()
            .any(|&i| matches!(ops[i], RecordedOp::AddEssentialSupertype { .. }));
        let group = if contaminated {
            Group {
                members: members.clone(),
                check: GroupCheck::Skipped(
                    "row has non-row-local writers (e.g. a DT relink)".into(),
                ),
                swaps: BTreeMap::new(),
            }
        } else if cyclic && has_add {
            Group {
                members: members.clone(),
                check: GroupCheck::Skipped(
                    "union edge graph is cyclic; MT-ASR cycle guards are order-sensitive".into(),
                ),
                swaps: BTreeMap::new(),
            }
        } else {
            let steps: Vec<RowStep> = members
                .iter()
                .map(|&i| edge_row(&ops[i]).expect("group member is an edge op").1)
                .collect();
            let base = row_base.get(&t).cloned().unwrap_or_default();
            check_group(members, |perm| {
                let ordered: Vec<RowStep> = perm.iter().map(|&x| steps[x]).collect();
                hash_row(eval_row_order(&base, &ordered, t, root, rooted))
            })
        };
        checked_rows.insert(t, group);
    }

    let mut checked_cells: BTreeMap<(usize, usize), Group> = BTreeMap::new();
    for (&cell, members) in &cell_groups {
        if members.len() < 2 {
            continue;
        }
        let contaminated = footprints.iter().enumerate().any(|(i, f)| {
            !members.contains(&i) && f.writes.contains(&Cell::NeCell(cell.0, cell.1))
        });
        let group = if contaminated {
            Group {
                members: members.clone(),
                check: GroupCheck::Skipped("cell has non-cell-local writers (e.g. PD)".into()),
                swaps: BTreeMap::new(),
            }
        } else {
            let steps: Vec<bool> = members
                .iter()
                .map(|&i| prop_cell(&ops[i]).expect("group member is a prop op").1)
                .collect();
            let base = cell_base.get(&cell).copied().unwrap_or(false);
            check_group(members, |perm| {
                let ordered: Vec<bool> = perm.iter().map(|&x| steps[x]).collect();
                eval_cell_order(base, &ordered).map(u64::from)
            })
        };
        checked_cells.insert(cell, group);
    }

    // Pair verdicts.
    let n = ops.len();
    let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            let verdict = pair_verdict(ops, &footprints, a, b, &checked_rows, &checked_cells);
            pairs.push(PairReport { a, b, verdict });
        }
    }

    PairAnalysis {
        footprints,
        pairs,
        union_acyclic: pass.union_acyclic,
        last: pass.last,
    }
}

/// Build the swap witness permutation for positions `a < b`.
fn swap_witness(n: usize, a: usize, b: usize, prefix: usize, note: String) -> Witness {
    let mut order: Vec<usize> = (0..n).collect();
    order.swap(a, b);
    Witness {
        order,
        prefix,
        note,
    }
}

/// Does `op` reference type arena index `t` in any operand position?
fn mentions_type(op: &RecordedOp, t: usize) -> bool {
    match op {
        RecordedOp::AddType { supers, .. } => supers.iter().any(|s| s.index() == t),
        RecordedOp::DropType { t: x }
        | RecordedOp::RenameType { t: x, .. }
        | RecordedOp::FreezeType { t: x } => x.index() == t,
        RecordedOp::AddEssentialSupertype { t: x, s }
        | RecordedOp::DropEssentialSupertype { t: x, s } => x.index() == t || s.index() == t,
        RecordedOp::AddEssentialProperty { t: x, .. }
        | RecordedOp::DropEssentialProperty { t: x, .. } => x.index() == t,
        _ => false,
    }
}

/// Does `op` reference property arena index `p`?
fn mentions_prop(op: &RecordedOp, p: usize) -> bool {
    match op {
        RecordedOp::RenameProperty { p: x, .. } | RecordedOp::DropProperty { p: x } => {
            x.index() == p
        }
        RecordedOp::AddType { props, .. } => props.iter().any(|x| x.index() == p),
        RecordedOp::AddEssentialProperty { p: x, .. }
        | RecordedOp::DropEssentialProperty { p: x, .. } => x.index() == p,
        _ => false,
    }
}

fn group_pair_verdict(
    group: &Group,
    a: usize,
    b: usize,
    row_reason: CommuteReason,
    reference: Reference,
    n: usize,
) -> PairVerdict {
    match &group.check {
        GroupCheck::Uniform => PairVerdict::Commutes {
            reason: row_reason,
            reference,
        },
        GroupCheck::Divergent => {
            let prefix = group.members.iter().copied().max().unwrap_or(b) + 1;
            if group.swaps.get(&(a, b)).copied().unwrap_or(false) {
                PairVerdict::Conflicts {
                    kind: ConflictKind::Certain,
                    witness: swap_witness(
                        n,
                        a,
                        b,
                        prefix,
                        "exchanging the pair changes the symbolic row/cell outcome \
                         (value or accept/reject pattern)"
                            .into(),
                    ),
                }
            } else {
                PairVerdict::OrderConstraint {
                    note: "writer group is order-sensitive overall; this pair's exchange is \
                           neutral but certification requires group uniformity"
                        .into(),
                }
            }
        }
        GroupCheck::Skipped(why) => PairVerdict::OrderConstraint { note: why.clone() },
    }
}

fn pair_verdict(
    ops: &[RecordedOp],
    footprints: &[Footprint],
    a: usize,
    b: usize,
    rows: &BTreeMap<usize, Group>,
    cells: &BTreeMap<(usize, usize), Group>,
) -> PairVerdict {
    let n = ops.len();
    if ops[a] == ops[b] {
        return PairVerdict::Commutes {
            reason: CommuteReason::IdenticalOps,
            reference: Reference::Claim("exchanging identical operations is the identity"),
        };
    }
    if footprints[a].disjoint(&footprints[b]) {
        let edge = |op: &RecordedOp| {
            matches!(
                op,
                RecordedOp::AddEssentialSupertype { .. }
                    | RecordedOp::DropEssentialSupertype { .. }
            )
        };
        let propop = |op: &RecordedOp| {
            matches!(
                op,
                RecordedOp::AddEssentialProperty { .. } | RecordedOp::DropEssentialProperty { .. }
            )
        };
        let reference = if edge(&ops[a]) && edge(&ops[b]) {
            Reference::Axiom(Axiom::Supertypes)
        } else if propop(&ops[a]) && propop(&ops[b]) {
            Reference::Axiom(Axiom::Nativeness)
        } else {
            Reference::Claim("disjoint designer-input footprints (Bernstein's condition)")
        };
        return PairVerdict::Commutes {
            reason: CommuteReason::DisjointFootprints,
            reference,
        };
    }

    // Same P_e row: the group permutation check decides exactly.
    if let (Some((ta, _)), Some((tb, _))) = (edge_row(&ops[a]), edge_row(&ops[b])) {
        if ta == tb {
            if let Some(group) = rows.get(&ta) {
                // Drops relink canonically to ⊤ (Rootedness); the check
                // covers adds through union-graph acyclicity.
                return group_pair_verdict(
                    group,
                    a,
                    b,
                    CommuteReason::RowPermutationCheck,
                    Reference::Axiom(Axiom::Rootedness),
                    n,
                );
            }
        }
    }

    // Same N_e cell.
    if let (Some((ca, _)), Some((cb, _))) = (prop_cell(&ops[a]), prop_cell(&ops[b])) {
        if ca == cb {
            if let Some(group) = cells.get(&ca) {
                return group_pair_verdict(
                    group,
                    a,
                    b,
                    CommuteReason::CellPermutationCheck,
                    Reference::Axiom(Axiom::Nativeness),
                    n,
                );
            }
        }
    }

    // A later DT/PD over a type/property the earlier op references:
    // swapping makes the earlier op run against a dead slot and reject.
    if let RecordedOp::DropType { t } = &ops[b] {
        if mentions_type(&ops[a], t.index())
            || (footprints[a].allocates
                && footprints[a].writes.contains(&Cell::TypeLive(t.index())))
        {
            return PairVerdict::Conflicts {
                kind: ConflictKind::Certain,
                witness: swap_witness(
                    n,
                    a,
                    b,
                    b + 1,
                    format!(
                        "swapped order applies op {} after DT has killed its operand type",
                        a + 1
                    ),
                ),
            };
        }
    }
    if let RecordedOp::DropProperty { p } = &ops[b] {
        if mentions_prop(&ops[a], p.index())
            || (footprints[a].allocates
                && footprints[a].writes.contains(&Cell::PropLive(p.index())))
        {
            return PairVerdict::Conflicts {
                kind: ConflictKind::Certain,
                witness: swap_witness(
                    n,
                    a,
                    b,
                    b + 1,
                    format!(
                        "swapped order applies op {} after PD has killed its operand property",
                        a + 1
                    ),
                ),
            };
        }
    }

    // A later freeze over a type the earlier op structurally edits:
    // swapping puts the edit behind the frozen guard.
    if let RecordedOp::FreezeType { t } = &ops[b] {
        if footprints[a].reads.contains(&Cell::Frozen(t.index())) {
            return PairVerdict::Conflicts {
                kind: ConflictKind::Certain,
                witness: swap_witness(
                    n,
                    a,
                    b,
                    b + 1,
                    format!("swapped order applies op {} to a frozen type", a + 1),
                ),
            };
        }
    }

    // Two allocations from the same arena (non-identical): raw-id
    // rebinding. (Type and property arenas are independent.)
    let both_type_alloc = footprints[a].writes.contains(&Cell::TypeArena)
        && footprints[b].writes.contains(&Cell::TypeArena);
    let both_prop_alloc = footprints[a].writes.contains(&Cell::PropArena)
        && footprints[b].writes.contains(&Cell::PropArena);
    if both_type_alloc || both_prop_alloc {
        return PairVerdict::Conflicts {
            kind: ConflictKind::AllocationOrder,
            witness: swap_witness(
                n,
                a,
                b,
                b + 1,
                "permuted replay binds the two arena slots in the opposite order; the \
                 id-level fingerprint diverges (or a later raw-id reference rejects)"
                    .into(),
            ),
        };
    }

    // Honest refusal: name one overlapping cell.
    let overlap = footprints[a]
        .writes
        .iter()
        .find(|c| footprints[b].writes.contains(*c) || footprints[b].reads.contains(*c))
        .or_else(|| {
            footprints[a]
                .reads
                .iter()
                .find(|c| footprints[b].writes.contains(*c))
        });
    PairVerdict::OrderConstraint {
        note: match overlap {
            Some(c) => format!("unclassified overlap on cell {c:?}"),
            None => "unclassified interaction".to_owned(),
        },
    }
}
