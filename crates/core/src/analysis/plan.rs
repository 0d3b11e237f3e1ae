//! `analysis::plan` — certified reordering plans.
//!
//! A purely static pass that compiles a [`TraceAnalysis`] into an
//! [`EvolutionPlan`]: a DAG of *stages* whose intra-stage
//! [`PlanClass`]es carry non-interference certificates — pairwise
//! disjoint `P_e`/`N_e` slot footprints (Bernstein's condition lifted
//! from cells to arena slots) — and whose inter-stage [`OrderEdge`]s
//! carry witnessed order constraints. Classes in one stage are pairwise
//! independent, so they may run in any order; stages run in order. A plan
//! is a reordering of the trace and nothing more: `Schema::apply_plan`
//! admits a certificate through [`check`] and then runs the classes in
//! stage order as one batch, with one derivation at the end.
//!
//! The module follows the repo's planner/checker discipline (like the
//! bounded model checker `mc` and the optimizer's differential replay):
//! the *planner* ([`build_plan`]) is untrusted, and the *checker*
//! ([`check`]) independently re-verifies a [`PlanCertificate`] from the
//! trace and the initial schema alone, using only the footprint kernel.
//! The checker proves conflict-serializability with order preservation:
//!
//! 1. the classes partition the trace, each keeping trace order, and no
//!    class claims a stage at or past the class count;
//! 2. every op's real slot footprint is covered by its class's claimed
//!    footprint;
//! 3. classes sharing a stage have pairwise disjoint claimed footprints
//!    (writes vs reads∪writes);
//! 4. every slot-interfering op pair (a shared slot with at least one
//!    write) executes in trace order — same class, or strictly
//!    increasing stage.
//!
//! Together these imply that any stage-ordered execution, with stage-mates
//! in any order, leaves the designer inputs exactly as the original trace
//! does — with **no** appeal to the planner's grouping logic or the
//! commutativity engine's verdicts. The derived lattice is a function of
//! the final inputs, so one derivation after the batch finishes the job.
//! The checker captures the initial schema once: one
//! [`footprint::TracePass`] yields the footprints and the cycle-guard
//! verdict.
//!
//! No operation is ever executed here and no derivation is ever run;
//! a CI grep-gate keeps this module (and the whole analysis layer) free
//! of execution, threading, and filesystem calls.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::history::RecordedOp;
use crate::json_escape;
use crate::model::Schema;

use super::footprint::{self, Cell, Footprint, Labels};
use super::TraceAnalysis;

/// One unit of designer-input state as a plan certificate counts it.
/// Coarser than [`Cell`] — e.g. every `N_e(t, p)` bit of one type lands
/// in that type's slot — which keeps certificates small; a coarser unit
/// can only make more pairs interfere, never fewer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    /// One type-arena slot: liveness, name label, frozen flag, the whole
    /// `P_e` row and every `N_e` bit of that type.
    Type(usize),
    /// One property-arena slot: liveness and name label.
    Prop(usize),
    /// The global unique-type-name table entry for one string.
    Name(String),
    /// The root (⊤) designation.
    Root,
    /// The base (⊥) designation.
    Base,
    /// The type-arena allocation cursor.
    TypeArena,
    /// The property-arena allocation cursor.
    PropArena,
    /// Whole-graph upward reachability (cycle guard; only materialised
    /// when the trace's union edge graph is cyclic).
    CycleGuard,
}

/// The slot a cell lives in.
pub fn slot_of(cell: &Cell) -> Slot {
    match cell {
        Cell::TypeLive(t)
        | Cell::Frozen(t)
        | Cell::TypeNameCell(t)
        | Cell::PeRow(t)
        | Cell::NeCell(t, _) => Slot::Type(*t),
        Cell::PropLive(p) | Cell::PropNameCell(p) => Slot::Prop(*p),
        Cell::Name(s) => Slot::Name(s.clone()),
        Cell::RootCell => Slot::Root,
        Cell::BaseCell => Slot::Base,
        Cell::TypeArena => Slot::TypeArena,
        Cell::PropArena => Slot::PropArena,
        Cell::CycleGuard => Slot::CycleGuard,
    }
}

/// Render a slot for humans, resolving arena indexes to the names in
/// `labels`.
pub fn slot_label(slot: &Slot, labels: &Labels) -> String {
    match slot {
        Slot::Type(t) => format!("type({})", labels.type_label(*t)),
        Slot::Prop(p) => format!("prop({})", labels.prop_label(*p)),
        Slot::Name(s) => format!("name({s})"),
        Slot::Root => "root".into(),
        Slot::Base => "base".into(),
        Slot::TypeArena => "type-arena".into(),
        Slot::PropArena => "prop-arena".into(),
        Slot::CycleGuard => "cycle-guard".into(),
    }
}

/// One unit of the reordering: trace positions that run together, in
/// trace order, with the class's *claimed* slot footprint. The claims are
/// what the certificate is about — the checker verifies they cover the
/// real footprints and are pairwise disjoint within a stage.
/// Over-claiming only serialises more; it can never make a certified plan
/// unsafe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanClass {
    /// Member trace positions, strictly ascending.
    pub ops: Vec<usize>,
    /// 0-based stage this class runs in.
    pub stage: usize,
    /// Claimed union of the members' read slots.
    pub reads: BTreeSet<Slot>,
    /// Claimed union of the members' written slots.
    pub writes: BTreeSet<Slot>,
}

impl PlanClass {
    /// First (smallest) member position; orders classes deterministically.
    pub fn first_op(&self) -> usize {
        self.ops.first().copied().unwrap_or(usize::MAX)
    }
}

/// A witnessed inter-stage order constraint between two classes
/// (indexes into [`PlanCertificate::classes`]). The witness is a concrete
/// slot-interfering op pair: `earlier_op` precedes `later_op` in the
/// trace and they share `slot` with at least one side writing, so their
/// trace order must be preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderEdge {
    /// The class that runs in the earlier stage.
    pub from_class: usize,
    /// The class that runs in the later stage.
    pub to_class: usize,
    /// Trace position of the earlier op.
    pub earlier_op: usize,
    /// Trace position of the later op.
    pub later_op: usize,
    /// A shared slot with at least one write.
    pub slot: Slot,
}

/// The self-contained certificate of an [`EvolutionPlan`]: everything
/// [`check`] needs to re-verify the plan against a trace, with no
/// reference to how the planner produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCertificate {
    /// Number of trace operations the plan covers.
    pub ops_len: usize,
    /// The classes, sorted by (stage, first op).
    pub classes: Vec<PlanClass>,
    /// Witnessed order constraints between classes.
    pub edges: Vec<OrderEdge>,
}

impl PlanCertificate {
    /// Number of stages (1 + highest stage index; 0 for an empty plan).
    pub fn stage_count(&self) -> usize {
        self.classes.iter().map(|c| c.stage + 1).max().unwrap_or(0)
    }

    /// Class indexes grouped by stage, stages ascending, classes in
    /// certificate order within each stage.
    pub fn stage_table(&self) -> Vec<Vec<usize>> {
        let mut table: Vec<Vec<usize>> = vec![Vec::new(); self.stage_count()];
        for (ci, class) in self.classes.iter().enumerate() {
            table[class.stage].push(ci);
        }
        table
    }

    /// The widest stage: the most classes the certificate proves mutually
    /// reorderable at one point of the trace.
    pub fn max_parallelism(&self) -> usize {
        self.stage_table().iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A certified reordering plan for one trace: the certificate plus final
/// arena labels for rendering.
#[derive(Debug, Clone)]
pub struct EvolutionPlan {
    /// The self-contained certificate (what [`check`] consumes).
    pub certificate: PlanCertificate,
    /// Final arena labels for rendering, shared with the analysis's.
    pub labels: Labels,
}

impl EvolutionPlan {
    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.certificate.stage_count()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.certificate.classes.len()
    }

    /// The widest stage.
    pub fn max_parallelism(&self) -> usize {
        self.certificate.max_parallelism()
    }

    /// Human-readable plan + certificate.
    pub fn to_text(&self) -> String {
        let cert = &self.certificate;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {} op(s) in {} class(es) over {} stage(s), max parallelism {}",
            cert.ops_len,
            cert.classes.len(),
            cert.stage_count(),
            cert.max_parallelism()
        );
        let slots = |set: &BTreeSet<Slot>| {
            set.iter()
                .map(|s| slot_label(s, &self.labels))
                .collect::<Vec<_>>()
                .join(", ")
        };
        for (si, stage) in cert.stage_table().iter().enumerate() {
            let _ = writeln!(out, "  stage {}:", si + 1);
            for &ci in stage {
                let class = &cert.classes[ci];
                let ops: Vec<String> = class.ops.iter().map(|&x| (x + 1).to_string()).collect();
                let _ = writeln!(
                    out,
                    "    class {}: ops [{}] writes {{{}}} reads {{{}}}",
                    ci + 1,
                    ops.join(" "),
                    slots(&class.writes),
                    slots(&class.reads)
                );
            }
        }
        if !cert.edges.is_empty() {
            let _ = writeln!(out, "order constraints ({} witnessed):", cert.edges.len());
            for edge in &cert.edges {
                let _ = writeln!(
                    out,
                    "  class {} -> class {}: ops {} < {} share {} (trace order kept)",
                    edge.from_class + 1,
                    edge.to_class + 1,
                    edge.earlier_op + 1,
                    edge.later_op + 1,
                    slot_label(&edge.slot, &self.labels)
                );
            }
        }
        let _ = writeln!(
            out,
            "certificate: intra-stage classes are pairwise slot-disjoint (Bernstein); \
             every interfering pair keeps trace order"
        );
        out
    }

    /// JSON plan + certificate.
    pub fn to_json(&self) -> String {
        let cert = &self.certificate;
        let slots = |set: &BTreeSet<Slot>| {
            set.iter()
                .map(|s| format!("\"{}\"", json_escape(&slot_label(s, &self.labels))))
                .collect::<Vec<_>>()
                .join(",")
        };
        let classes: Vec<String> = cert
            .classes
            .iter()
            .map(|c| {
                let ops: Vec<String> = c.ops.iter().map(|&x| (x + 1).to_string()).collect();
                format!(
                    "{{\"stage\":{},\"ops\":[{}],\"writes\":[{}],\"reads\":[{}]}}",
                    c.stage + 1,
                    ops.join(","),
                    slots(&c.writes),
                    slots(&c.reads)
                )
            })
            .collect();
        let edges: Vec<String> = cert
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"from\":{},\"to\":{},\"kind\":\"interference\",\"earlier\":{},\
                     \"later\":{},\"slot\":\"{}\"}}",
                    e.from_class + 1,
                    e.to_class + 1,
                    e.earlier_op + 1,
                    e.later_op + 1,
                    json_escape(&slot_label(&e.slot, &self.labels))
                )
            })
            .collect();
        format!(
            "{{\"ops\":{},\"classes\":[{}],\"stages\":{},\"max_parallelism\":{},\
             \"edges\":[{}]}}",
            cert.ops_len,
            classes.join(","),
            cert.stage_count(),
            cert.max_parallelism(),
            edges.join(",")
        )
    }
}

/// Per-op read and write slot sets of `footprints`.
fn slot_footprints(footprints: &[Footprint]) -> (Vec<BTreeSet<Slot>>, Vec<BTreeSet<Slot>>) {
    let slots = |cells: &BTreeSet<Cell>| cells.iter().map(slot_of).collect();
    footprints
        .iter()
        .map(|f| (slots(&f.reads), slots(&f.writes)))
        .unzip()
}

/// First shared slot between op `i` and op `j` with at least one side
/// writing, if any: the slot an order edge names for its witness pair.
fn interferes(
    reads: &[BTreeSet<Slot>],
    writes: &[BTreeSet<Slot>],
    i: usize,
    j: usize,
) -> Option<Slot> {
    for s in &writes[i] {
        if writes[j].contains(s) || reads[j].contains(s) {
            return Some(s.clone());
        }
    }
    for s in &writes[j] {
        if reads[i].contains(s) {
            return Some(s.clone());
        }
    }
    None
}

/// Compile a [`TraceAnalysis`] into a certified reordering plan.
///
/// The planner seeds its classes from the analysis's independence
/// partition, then works purely at slot level:
///
/// 1. every slot-interfering class pair (a shared slot with a write) gets
///    a directed order edge in trace order of its first interfering op
///    pair;
/// 2. if those edges form a cycle among some classes, the cyclic residue
///    is conservatively merged into one sequential class (trace order is
///    then trivially preserved inside it);
/// 3. classes are staged along the resulting DAG (longest-path
///    levelling), so intra-stage classes end up slot-disjoint.
///
/// The output certificate is exactly what [`check`] re-verifies; the
/// planner holds no authority of its own.
pub fn build_plan(analysis: &TraceAnalysis) -> EvolutionPlan {
    let n = analysis.footprints.len();
    let (op_reads, op_writes) = slot_footprints(&analysis.footprints);
    // Only a slot-interfering op pair (a shared slot with a write) can
    // order two classes.
    let interfering = footprint::interfering_pairs(op_reads.iter().zip(&op_writes));

    // Seed groups from the independence partition; merge any cyclic
    // residue of the interference order graph.
    let mut groups: Vec<Vec<usize>> = analysis.classes.iter().map(|c| c.ops.clone()).collect();
    let mut owner = vec![0usize; n];
    let (groups, fwd, stage) = loop {
        let m = groups.len();
        for (g, ops) in groups.iter().enumerate() {
            for &i in ops {
                owner[i] = g;
            }
        }
        // Directed interference edges between groups, keyed (earlier,
        // later); a pair of groups may contribute edges in *both*
        // directions. Each keeps as its witness the least interfering op
        // pair in (op of the lower-index group, op of the higher) order:
        // the first a scan of the group pairs, each group in trace
        // order, meets.
        let mut fwd: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
        for &(i, j) in &interfering {
            let (gi, gj) = (owner[i], owner[j]);
            if gi == gj {
                continue;
            }
            let witness = if gi < gj { (i, j) } else { (j, i) };
            fwd.entry((gi, gj))
                .and_modify(|w| *w = (*w).min(witness))
                .or_insert(witness);
        }
        // Kahn's algorithm on the group graph: a full topological order
        // means the edges are satisfiable by staging alone. The same pass
        // stages each group at its longest-path level, which does not
        // depend on the order groups leave the queue. Every pair of
        // classes that must keep their order already carries an order
        // edge (a slot witness), so levelling alone yields stages whose
        // classes are pairwise independent.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut in_degree = vec![0usize; m];
        for &(a, b) in fwd.keys() {
            adj[a].push(b);
            in_degree[b] += 1;
        }
        let mut ready: Vec<usize> = (0..m).filter(|&g| in_degree[g] == 0).collect();
        let mut popped = vec![false; m];
        let mut stage = vec![0usize; m];
        let mut count = 0usize;
        while let Some(g) = ready.pop() {
            popped[g] = true;
            count += 1;
            for &h in &adj[g] {
                stage[h] = stage[h].max(stage[g] + 1);
                in_degree[h] -= 1;
                if in_degree[h] == 0 {
                    ready.push(h);
                }
            }
        }
        if count == m {
            break (groups, fwd, stage);
        }
        // Order-cycle: merge the whole cyclic residue into one class that
        // runs its members sequentially in trace order. Conservative (it
        // may fold in classes merely downstream of the cycle) but
        // deterministic and always sound.
        let mut merged: Vec<usize> = Vec::new();
        let mut keep: Vec<Vec<usize>> = Vec::new();
        for (g, ops) in groups.into_iter().enumerate() {
            if popped[g] {
                keep.push(ops);
            } else {
                merged.extend(ops);
            }
        }
        merged.sort_unstable();
        keep.push(merged);
        groups = keep;
    };

    // Assemble classes sorted by (stage, first op) and remap edges.
    let m = groups.len();
    let group_first: Vec<usize> = groups.iter().map(|g| g[0]).collect();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&g| (stage[g], group_first[g]));
    let mut pos = vec![0usize; m];
    for (ci, &g) in order.iter().enumerate() {
        pos[g] = ci;
    }
    let classes: Vec<PlanClass> = order
        .iter()
        .map(|&g| {
            let mut reads = BTreeSet::new();
            let mut writes = BTreeSet::new();
            for &i in &groups[g] {
                reads.extend(op_reads[i].iter().cloned());
                writes.extend(op_writes[i].iter().cloned());
            }
            PlanClass {
                ops: groups[g].clone(),
                stage: stage[g],
                reads,
                writes,
            }
        })
        .collect();
    let mut edges: Vec<OrderEdge> = fwd
        .into_iter()
        .map(|((a, b), (x, y))| OrderEdge {
            from_class: pos[a],
            to_class: pos[b],
            earlier_op: x.min(y),
            later_op: x.max(y),
            slot: interferes(&op_reads, &op_writes, x, y).expect("the witness pair interferes"),
        })
        .collect();
    edges.sort_by_key(|e| (e.from_class, e.to_class));

    EvolutionPlan {
        certificate: PlanCertificate {
            ops_len: n,
            classes,
            edges,
        },
        labels: analysis.labels.clone(),
    }
}

/// Statistics of a successful certificate re-verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCheck {
    /// Trace operations covered.
    pub ops: usize,
    /// Classes in the plan.
    pub classes: usize,
    /// Stages in the plan.
    pub stages: usize,
    /// Widest stage.
    pub max_parallelism: usize,
    /// Slot-interfering op pairs whose trace order the plan was proven to
    /// preserve.
    pub interfering_pairs: usize,
}

/// Cheap structural verdict for a **trivially sequential** certificate:
/// exactly one class, stage 0, no order edges, covering the whole trace
/// in trace order. Such a plan reorders nothing — executing it *is* the
/// recorded serialization — and the executor never consults the claimed
/// footprints, so the only obligation the certificate still carries is the
/// partition/order one, discharged here in O(n). Re-deriving footprints
/// for it would be verification effort spent on a reordering the plan
/// does not claim: checking cost stays proportional to the claimed
/// reordering.
///
/// Returns `None` for any certificate that claims structure (several
/// classes, a later stage, order edges) or fails the structural
/// obligation — callers fall back to the full [`check`], which also
/// produces the proper rejection message. `interfering_pairs` is
/// reported as 0: the sequential schedule preserves every pair's trace
/// order syntactically, so none needed proving.
pub fn check_sequential(ops_len: usize, cert: &PlanCertificate) -> Option<PlanCheck> {
    if cert.ops_len != ops_len || !cert.edges.is_empty() || ops_len == 0 {
        return None;
    }
    let [class] = cert.classes.as_slice() else {
        return None;
    };
    if class.stage != 0 || class.ops.len() != ops_len {
        return None;
    }
    if !class.ops.iter().enumerate().all(|(k, &i)| k == i) {
        return None;
    }
    Some(PlanCheck {
        ops: ops_len,
        classes: 1,
        stages: 1,
        max_parallelism: 1,
        interfering_pairs: 0,
    })
}

/// Independently re-verify a [`PlanCertificate`] against `ops` evolving
/// `initial`. Trusts nothing from the planner: footprints are re-derived
/// from the symbolic shadow, and the four obligations listed in the
/// module docs are checked from scratch. `Err` carries the first
/// violated obligation.
pub fn check(
    initial: &Schema,
    ops: &[RecordedOp],
    cert: &PlanCertificate,
) -> Result<PlanCheck, String> {
    let n = ops.len();
    if cert.ops_len != n {
        return Err(format!(
            "certificate covers {} op(s) but the trace has {n}",
            cert.ops_len
        ));
    }

    // Obligation 1: the classes partition 0..n, each in trace order, and
    // each sits in a stage a levelled DAG of these classes can have (k
    // classes have fewer than k stages) — checked before anything sizes
    // a stage table.
    let mut owner = vec![usize::MAX; n];
    for (ci, class) in cert.classes.iter().enumerate() {
        if class.ops.is_empty() {
            return Err(format!("class {} is empty", ci + 1));
        }
        if class.stage >= cert.classes.len() {
            return Err(format!(
                "class {} claims stage {} but a plan of {} class(es) has at most {} stage(s)",
                ci + 1,
                class.stage.saturating_add(1),
                cert.classes.len(),
                cert.classes.len()
            ));
        }
        let mut prev: Option<usize> = None;
        for &i in &class.ops {
            if i >= n {
                return Err(format!(
                    "class {} references op {} beyond the trace",
                    ci + 1,
                    i + 1
                ));
            }
            if owner[i] != usize::MAX {
                return Err(format!("op {} is claimed by two classes", i + 1));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err(format!("class {} does not keep trace order", ci + 1));
            }
            owner[i] = ci;
            prev = Some(i);
        }
    }
    if let Some(i) = owner.iter().position(|&c| c == usize::MAX) {
        return Err(format!("op {} is not covered by any class", i + 1));
    }

    // Re-derive the real footprints from the shared, trusted kernel —
    // nothing the planner computed is reused.
    let fps = footprint::TracePass::run(initial, ops, |_, _, _| {}).footprints;
    let (op_reads, op_writes) = slot_footprints(&fps);

    // Obligation 2: claimed footprints cover the real ones.
    for i in 0..n {
        let class = &cert.classes[owner[i]];
        for s in &op_writes[i] {
            if !class.writes.contains(s) {
                return Err(format!(
                    "op {} writes a slot outside its class's claimed write set",
                    i + 1
                ));
            }
        }
        for s in &op_reads[i] {
            if !class.reads.contains(s) && !class.writes.contains(s) {
                return Err(format!(
                    "op {} reads a slot outside its class's claimed footprint",
                    i + 1
                ));
            }
        }
    }

    // Obligation 3: intra-stage non-interference on the claims, over one
    // pair index of each stage's claims; the first refusal is the least
    // interfering class pair of any stage.
    let mut clash: Option<(usize, usize)> = None;
    for stage in cert.stage_table() {
        let claims = stage
            .iter()
            .map(|&c| (&cert.classes[c].reads, &cert.classes[c].writes));
        if let Some(&(x, y)) = footprint::interfering_pairs(claims).first() {
            let pair = (stage[x], stage[y]);
            clash = Some(clash.map_or(pair, |first| first.min(pair)));
        }
    }
    if let Some((a, b)) = clash {
        return Err(format!(
            "classes {} and {} share stage {} but their claimed slot footprints interfere",
            a + 1,
            b + 1,
            cert.classes[a].stage + 1
        ));
    }

    // Obligation 4: every slot-interfering pair (a shared slot with a
    // write) keeps trace order.
    let interfering = footprint::interfering_pairs(op_reads.iter().zip(&op_writes));
    for &(i, j) in &interfering {
        let (ci, cj) = (owner[i], owner[j]);
        if ci != cj && cert.classes[ci].stage >= cert.classes[cj].stage {
            return Err(format!(
                "ops {} and {} interfere but the plan does not keep their trace order",
                i + 1,
                j + 1
            ));
        }
    }

    Ok(PlanCheck {
        ops: n,
        classes: cert.classes.len(),
        stages: cert.stage_count(),
        max_parallelism: cert.max_parallelism(),
        interfering_pairs: interfering.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_trace;
    use crate::config::LatticeConfig;

    /// Two row-disjoint drops on separate diamonds: one wide stage.
    fn disjoint_drops() -> (Schema, Vec<RecordedOp>) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        let c2 = s.add_type("c2", [p1, p2], []).unwrap();
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c2, s: p2 },
        ];
        (s, ops)
    }

    #[test]
    fn disjoint_drops_plan_is_one_parallel_stage() {
        let (s, ops) = disjoint_drops();
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);
        assert_eq!(plan.class_count(), 2);
        assert_eq!(plan.stage_count(), 1, "{}", plan.to_text());
        assert_eq!(plan.max_parallelism(), 2);
        let verdict = check(&s, &ops, &plan.certificate).expect("certificate must re-verify");
        assert_eq!(verdict.classes, 2);
        assert_eq!(verdict.stages, 1);
        assert_eq!(verdict.max_parallelism, 2);
    }

    #[test]
    fn interfering_ops_are_staged_in_trace_order() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        // Same row: drop then re-add — interfering, single class.
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::AddEssentialSupertype { t: c1, s: p1 },
        ];
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);
        assert_eq!(plan.class_count(), 1);
        assert_eq!(plan.max_parallelism(), 1);
        check(&s, &ops, &plan.certificate).expect("chain certificate must re-verify");
    }

    #[test]
    fn order_edges_keep_the_first_witness_of_each_class_pair() {
        // Three independence classes whose ops write different N_e cells of
        // the types t1 and t3, so every class pair interferes at slot level
        // through several op pairs: B = {1, 2, 3} gives q to t1 and t3 and
        // drops it; A = {0, 4, 5} allocates p and gives it to t3 and t1;
        // C = {6, 7} adds r to t1 and drops it. A's first op precedes B's,
        // but A's later ops follow them, so the edge B -> A runs against
        // the class order and its witness is the first pair the planner
        // meets with A's op first: (4, 2), not the trace-first (1, 5).
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let t1 = s.add_type("t1", [], []).unwrap();
        let t3 = s.add_type("t3", [], []).unwrap();
        let q = s.add_property("q");
        let r = s.add_property("r");
        let p = crate::ids::PropId::from_index(2);
        let ops = vec![
            RecordedOp::AddProperty { name: "p".into() },
            RecordedOp::AddEssentialProperty { t: t1, p: q },
            RecordedOp::AddEssentialProperty { t: t3, p: q },
            RecordedOp::DropProperty { p: q },
            RecordedOp::AddEssentialProperty { t: t3, p },
            RecordedOp::AddEssentialProperty { t: t1, p },
            RecordedOp::AddEssentialProperty { t: t1, p: r },
            RecordedOp::DropEssentialProperty { t: t1, p: r },
        ];
        let analysis = analyze_trace(&s, &ops);
        let classes: Vec<&[usize]> = analysis.classes.iter().map(|c| &c.ops[..]).collect();
        assert_eq!(classes, [&[0, 4, 5][..], &[1, 2, 3], &[6, 7]]);
        let plan = build_plan(&analysis);
        let cert = &plan.certificate;
        let staged: Vec<(usize, &[usize])> =
            cert.classes.iter().map(|c| (c.stage, &c.ops[..])).collect();
        assert_eq!(staged, [(0, &[1, 2, 3][..]), (1, &[0, 4, 5]), (2, &[6, 7])]);
        let edge = |from_class, to_class, earlier_op, later_op, t: crate::ids::TypeId| OrderEdge {
            from_class,
            to_class,
            earlier_op,
            later_op,
            slot: Slot::Type(t.index()),
        };
        assert_eq!(
            cert.edges,
            [
                edge(0, 1, 2, 4, t3),
                edge(0, 2, 1, 6, t1),
                edge(1, 2, 5, 6, t1)
            ]
        );
        let verdict = check(&s, &ops, cert).expect("the certificate re-verifies");
        assert_eq!(verdict.interfering_pairs, 15);
    }

    #[test]
    fn checker_rejects_interfering_stage_mates() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::AddEssentialSupertype { t: c1, s: p1 },
        ];
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);
        // Tamper: split the single class into two same-stage classes.
        let mut cert = plan.certificate.clone();
        assert_eq!(cert.classes.len(), 1);
        let class = cert.classes.remove(0);
        for &i in &class.ops {
            cert.classes.push(PlanClass {
                ops: vec![i],
                stage: 0,
                reads: class.reads.clone(),
                writes: class.writes.clone(),
            });
        }
        let err = check(&s, &ops, &cert).unwrap_err();
        assert!(err.contains("interfere"), "{err}");
    }

    #[test]
    fn checker_rejects_understated_claims_and_bad_partitions() {
        let (s, ops) = disjoint_drops();
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);

        // Understate a write claim.
        let mut cert = plan.certificate.clone();
        cert.classes[0].writes.clear();
        let err = check(&s, &ops, &cert).unwrap_err();
        assert!(err.contains("claimed write set"), "{err}");

        // Drop an op from the partition.
        let mut cert = plan.certificate.clone();
        cert.classes[0].ops.clear();
        cert.classes[0].ops.push(0);
        cert.classes[1].ops = vec![0, 1];
        let err = check(&s, &ops, &cert).unwrap_err();
        assert!(err.contains("two classes"), "{err}");

        // Wrong length.
        let mut cert = plan.certificate.clone();
        cert.ops_len = 7;
        assert!(check(&s, &ops, &cert).is_err());
    }

    #[test]
    fn checker_refuses_a_stage_past_the_class_count() {
        let (s, ops) = disjoint_drops();
        let ops = &ops[..1];
        let plan = build_plan(&analyze_trace(&s, ops));
        assert_eq!(plan.certificate.classes.len(), 1);
        // A levelled DAG of k classes has fewer than k stages; these would
        // size a stage table of 2^40 entries or overflow its length.
        for stage in [1usize << 40, usize::MAX] {
            let mut cert = plan.certificate.clone();
            cert.classes[0].stage = stage;
            let err = check(&s, ops, &cert).unwrap_err();
            assert!(err.contains("claims stage"), "{err}");
        }
    }

    #[test]
    fn renderings_report_stages_and_width() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let c1 = s.add_type("c1", [p1, p2], []).unwrap();
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
            RecordedOp::AddEssentialSupertype { t: c1, s: p1 },
            RecordedOp::DropEssentialSupertype { t: c1, s: p1 },
        ];
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);
        let text = plan.to_text();
        assert!(text.contains("stage 1"), "{text}");
        let json = plan.to_json();
        assert!(json.contains("\"max_parallelism\":1"), "{json}");

        let (s2, ops2) = disjoint_drops();
        let plan2 = build_plan(&analyze_trace(&s2, &ops2));
        assert!(plan2.to_json().contains("\"max_parallelism\":2"));
    }

    #[test]
    fn empty_trace_has_empty_plan() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let analysis = analyze_trace(&s, &[]);
        let plan = build_plan(&analysis);
        assert_eq!(plan.class_count(), 0);
        assert_eq!(plan.stage_count(), 0);
        let verdict = check(&s, &[], &plan.certificate).unwrap();
        assert_eq!(verdict.ops, 0);
    }
}
