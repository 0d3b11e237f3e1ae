//! `analysis::plan` — certified parallel evolution planning.
//!
//! A purely static pass that compiles a [`TraceAnalysis`] into an
//! [`EvolutionPlan`]: a DAG of *stages* whose intra-stage
//! [`PlanClass`]es carry non-interference certificates — pairwise
//! disjoint `P_e`/`N_e` slot footprints (Bernstein's condition lifted
//! from cells to arena slots) plus reverse-index reach separation — and
//! whose inter-stage [`OrderEdge`]s carry witnessed order constraints.
//! Classes in one stage can run concurrently on private copy-on-write
//! shards and be merged slot-by-slot; stages run in order.
//!
//! The module follows the repo's planner/checker discipline (like the
//! bounded model checker `mc` and the optimizer's differential replay):
//! the *planner* ([`build_plan`]) is untrusted, and the *checker*
//! ([`check`]) independently re-verifies a [`PlanCertificate`] from the
//! trace and the initial schema alone, using only the footprint kernel.
//! The checker proves conflict-serializability with order preservation:
//!
//! 1. the classes partition the trace, each keeping trace order;
//! 2. every op's real slot/reach footprint is covered by its class's
//!    claimed footprint;
//! 3. classes sharing a stage have pairwise disjoint claimed footprints
//!    (writes vs reads∪writes) and disjoint derivation reach (the rows
//!    each class's private derivation pass merges back);
//! 4. every interfering op pair executes in trace order — same class,
//!    or strictly increasing stage. Interference is slot-level (a
//!    shared slot with at least one write) *or* derivation-level: one
//!    op touches — re-derives or essentially rewrites — a row in the
//!    other's derivation-input frontier (its reach rows plus their
//!    union-parent-graph `P_e` parents, whose derived rows a scoped
//!    derivation pass re-reads).
//!
//! Together these imply that any stage-ordered, intra-stage-concurrent
//! execution is equivalent to the original trace — with **no** appeal to
//! the planner's grouping logic or the commutativity engine's verdicts.
//! No operation is ever executed here and no derivation is ever run;
//! a CI grep-gate keeps this module (and the whole analysis layer) free
//! of execution, threading, and filesystem calls.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::bits::IdxSet;
use crate::history::RecordedOp;
use crate::model::Schema;

use super::commute;
use super::footprint::{self, Cell, Footprint, SymbolicState};
use super::TraceAnalysis;

/// One mergeable unit of schema state: the granularity at which a
/// parallel executor can copy a class's effects back into the master
/// schema. Coarser than [`Cell`] — e.g. every `N_e(t, p)` bit of one
/// type lands in that type's slot — because slot copies are what the
/// merge can actually perform.
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

/// Render a slot for humans, resolving arena indexes to names where
/// labels are known.
pub fn slot_label(slot: &Slot, type_labels: &[String], prop_labels: &[String]) -> String {
    let tn = |i: usize| {
        type_labels
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("#{i}"))
    };
    let pn = |i: usize| {
        prop_labels
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("#{i}"))
    };
    match slot {
        Slot::Type(t) => format!("type({})", tn(*t)),
        Slot::Prop(p) => format!("prop({})", pn(*p)),
        Slot::Name(s) => format!("name({s})"),
        Slot::Root => "root".into(),
        Slot::Base => "base".into(),
        Slot::TypeArena => "type-arena".into(),
        Slot::PropArena => "prop-arena".into(),
        Slot::CycleGuard => "cycle-guard".into(),
    }
}

/// One parallel execution unit: trace positions run sequentially (in
/// trace order) on one worker, with the class's *claimed* slot and reach
/// footprint. The claims are what the certificate is about — the checker
/// verifies they cover the real footprints and are pairwise disjoint
/// within a stage. Over-claiming only serialises more; it can never make
/// a certified plan unsafe.
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
    /// Claimed union of the members' derivation reach (type arena
    /// indexes a scoped derivation pass seeded by this class would
    /// visit). Dense, so the checker's overlap probes are word ops.
    pub reach: IdxSet,
}

impl PlanClass {
    /// First (smallest) member position; orders classes deterministically.
    pub fn first_op(&self) -> usize {
        self.ops.first().copied().unwrap_or(usize::MAX)
    }

    /// Slot-level Bernstein condition on the claims: neither class
    /// reads or writes a slot the other writes.
    pub fn independent_of(&self, other: &PlanClass) -> bool {
        self.writes.is_disjoint(&other.writes)
            && self.writes.is_disjoint(&other.reads)
            && self.reads.is_disjoint(&other.writes)
    }
}

/// Why one class must run in an earlier stage than another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderReason {
    /// A concrete slot-interfering op pair (the witness): `earlier_op`
    /// precedes `later_op` in the trace and they share `slot` with at
    /// least one side writing, so their trace order must be preserved.
    Interference {
        /// Trace position of the earlier op.
        earlier_op: usize,
        /// Trace position of the later op.
        later_op: usize,
        /// A shared slot with at least one write.
        slot: Slot,
    },
    /// The classes' scoped derivations are coupled at this type index:
    /// one class touches (re-derives or essentially rewrites) a row in
    /// the other's derivation-input frontier, so their private
    /// derivation passes must not run concurrently and must keep trace
    /// order.
    ReachOverlap {
        /// A witnessing type arena index: touched by one class, inside
        /// the other's reach or input frontier.
        type_index: usize,
    },
}

/// A witnessed inter-stage order constraint between two classes
/// (indexes into [`PlanCertificate::classes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderEdge {
    /// The class that runs in the earlier stage.
    pub from_class: usize,
    /// The class that runs in the later stage.
    pub to_class: usize,
    /// The witness justifying the constraint.
    pub reason: OrderReason,
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

    /// The widest stage — the parallelism a plan-driven executor can use.
    pub fn max_parallelism(&self) -> usize {
        self.stage_table().iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// A certified parallel plan for one trace: the certificate plus final
/// arena labels for rendering.
#[derive(Debug, Clone)]
pub struct EvolutionPlan {
    /// The self-contained certificate (what [`check`] consumes).
    pub certificate: PlanCertificate,
    /// Type arena labels (final names) for rendering.
    pub type_labels: Vec<String>,
    /// Property arena labels for rendering.
    pub prop_labels: Vec<String>,
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

    /// Is the plan a pure serial chain of single-op stages? Such a plan
    /// offers zero parallelism — executing it buys nothing over one plain
    /// batch, while still paying for certification (lint rule L9).
    pub fn is_serial_chain(&self) -> bool {
        self.certificate.ops_len >= 2
            && self.certificate.classes.len() == self.certificate.ops_len
            && self.certificate.classes.iter().all(|c| c.ops.len() == 1)
            && self.stage_count() == self.certificate.ops_len
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
                .map(|s| slot_label(s, &self.type_labels, &self.prop_labels))
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
                    "    class {}: ops [{}] writes {{{}}} reads {{{}}} reach {}",
                    ci + 1,
                    ops.join(" "),
                    slots(&class.writes),
                    slots(&class.reads),
                    class.reach.len()
                );
            }
        }
        if !cert.edges.is_empty() {
            let _ = writeln!(out, "order constraints ({} witnessed):", cert.edges.len());
            for edge in &cert.edges {
                match &edge.reason {
                    OrderReason::Interference {
                        earlier_op,
                        later_op,
                        slot,
                    } => {
                        let _ = writeln!(
                            out,
                            "  class {} -> class {}: ops {} < {} share {} (trace order kept)",
                            edge.from_class + 1,
                            edge.to_class + 1,
                            earlier_op + 1,
                            later_op + 1,
                            slot_label(slot, &self.type_labels, &self.prop_labels)
                        );
                    }
                    OrderReason::ReachOverlap { type_index } => {
                        let _ = writeln!(
                            out,
                            "  class {} -> class {}: derivations couple at {} \
                             (trace order kept)",
                            edge.from_class + 1,
                            edge.to_class + 1,
                            self.type_labels
                                .get(*type_index)
                                .cloned()
                                .unwrap_or_else(|| format!("#{type_index}"))
                        );
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "certificate: intra-stage classes are pairwise slot-disjoint (Bernstein) with \
             disjoint, input-separated derivations; every interfering pair keeps trace order"
        );
        out
    }

    /// JSON plan + certificate.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let cert = &self.certificate;
        let slots = |set: &BTreeSet<Slot>| {
            set.iter()
                .map(|s| {
                    format!(
                        "\"{}\"",
                        esc(&slot_label(s, &self.type_labels, &self.prop_labels))
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let classes: Vec<String> = cert
            .classes
            .iter()
            .map(|c| {
                let ops: Vec<String> = c.ops.iter().map(|&x| (x + 1).to_string()).collect();
                format!(
                    "{{\"stage\":{},\"ops\":[{}],\"writes\":[{}],\"reads\":[{}],\"reach\":{}}}",
                    c.stage + 1,
                    ops.join(","),
                    slots(&c.writes),
                    slots(&c.reads),
                    c.reach.len()
                )
            })
            .collect();
        let edges: Vec<String> = cert
            .edges
            .iter()
            .map(|e| match &e.reason {
                OrderReason::Interference {
                    earlier_op,
                    later_op,
                    slot,
                } => format!(
                    "{{\"from\":{},\"to\":{},\"kind\":\"interference\",\"earlier\":{},\
                     \"later\":{},\"slot\":\"{}\"}}",
                    e.from_class + 1,
                    e.to_class + 1,
                    earlier_op + 1,
                    later_op + 1,
                    esc(&slot_label(slot, &self.type_labels, &self.prop_labels))
                ),
                OrderReason::ReachOverlap { type_index } => format!(
                    "{{\"from\":{},\"to\":{},\"kind\":\"reach-overlap\",\"type\":\"{}\"}}",
                    e.from_class + 1,
                    e.to_class + 1,
                    esc(&self
                        .type_labels
                        .get(*type_index)
                        .cloned()
                        .unwrap_or_else(|| format!("#{type_index}")))
                ),
            })
            .collect();
        format!(
            "{{\"ops\":{},\"classes\":[{}],\"stages\":{},\"max_parallelism\":{},\
             \"edges\":[{}],\"serial_chain\":{}}}",
            cert.ops_len,
            classes.join(","),
            cert.stage_count(),
            cert.max_parallelism(),
            edges.join(","),
            self.is_serial_chain()
        )
    }
}

/// Per-op derivation-coupling facts, computed identically by the planner
/// (from the analysis) and the checker (from its own re-derivation) —
/// the data behind the derivation half of the interference relation.
///
/// A parallel executor runs each class's scoped derivation on a private
/// copy of the pre-stage schema. That pass re-derives the rows in the
/// op's *reach* and re-reads the derived rows of those rows' `P_e`
/// parents (the input frontier; deeper ancestors are already folded into
/// the parents' derived rows) plus the essential state of the reach rows
/// themselves. Two ops can therefore only run in one stage if neither
/// *touches* — re-derives or essentially rewrites — a row in the other's
/// input frontier. The frontier is taken over the trace's union parent
/// graph, which over-approximates the parents at every certified
/// execution point.
struct DerivationFacts {
    /// Rows the op touches: its derivation reach plus every type row its
    /// slot writes land on (a renamed/frozen/killed row may re-derive
    /// nothing, but stage-mates must still not read it mid-flight).
    touched: Vec<IdxSet>,
    /// Derivation-input frontier: the reach rows plus their union-graph
    /// parents. Redesignating ⊤/⊥ rewires the whole lattice, so a
    /// `Root`/`Base` slot write widens the frontier to every row.
    din: Vec<IdxSet>,
}

impl DerivationFacts {
    fn compute(
        fps: &[Footprint],
        op_writes: &[BTreeSet<Slot>],
        uparents: &[IdxSet],
    ) -> DerivationFacts {
        let nrows = uparents.len();
        let mut touched = Vec::with_capacity(fps.len());
        let mut din = Vec::with_capacity(fps.len());
        for (i, fp) in fps.iter().enumerate() {
            let mut t = fp.reach.clone();
            let mut universal = false;
            for s in &op_writes[i] {
                match s {
                    Slot::Type(r) => {
                        t.insert(*r);
                    }
                    Slot::Root | Slot::Base => universal = true,
                    _ => {}
                }
            }
            let d = if universal {
                IdxSet::full(nrows)
            } else {
                let mut d = fp.reach.clone();
                for r in fp.reach.iter() {
                    if let Some(ps) = uparents.get(r) {
                        d.union_with(ps);
                    }
                }
                d
            };
            touched.push(t);
            din.push(d);
        }
        DerivationFacts { touched, din }
    }

    /// A row witnessing that ops `i` and `j` are derivation-coupled —
    /// one touches a row in the other's input frontier — or `None` when
    /// their scoped derivations are independent in either order.
    fn couples(&self, i: usize, j: usize) -> Option<usize> {
        if let Some(w) = self.touched[i].first_common(&self.din[j]) {
            return Some(w);
        }
        if let Some(w) = self.touched[j].first_common(&self.din[i]) {
            return Some(w);
        }
        None
    }
}

/// First shared slot between op `i` and op `j` with at least one side
/// writing, if any — the slot-level interference test.
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

/// Compile a [`TraceAnalysis`] into a certified parallel plan.
///
/// The planner seeds its classes from the analysis's independence
/// partition, then works purely at slot and row level:
///
/// 1. every interfering class pair — slot-interfering (a shared slot
///    with a write) or derivation-coupled (one op touches a row in the
///    other's derivation-input frontier) — gets a directed order edge in
///    trace order of its first interfering op pair;
/// 2. if those edges form a cycle among some classes, the cyclic residue
///    is conservatively merged into one sequential class (trace order is
///    then trivially preserved inside it);
/// 3. classes are staged along the resulting DAG (longest-path
///    levelling) — intra-stage classes end up slot-disjoint *and*
///    derivation-separated, so each can derive on a private copy.
///
/// The output certificate is exactly what [`check`] re-verifies; the
/// planner holds no authority of its own.
pub fn build_plan(analysis: &TraceAnalysis) -> EvolutionPlan {
    let n = analysis.footprints.len();
    let op_reads: Vec<BTreeSet<Slot>> = analysis
        .footprints
        .iter()
        .map(|f| f.reads.iter().map(slot_of).collect())
        .collect();
    let op_writes: Vec<BTreeSet<Slot>> = analysis
        .footprints
        .iter()
        .map(|f| f.writes.iter().map(slot_of).collect())
        .collect();

    let facts = DerivationFacts::compute(&analysis.footprints, &op_writes, &analysis.union_parents);

    // Seed groups from the independence partition; merge any cyclic
    // residue of the interference order graph.
    let mut groups: Vec<Vec<usize>> = analysis.classes.iter().map(|c| c.ops.clone()).collect();
    let (groups, fwd) = loop {
        let m = groups.len();
        // Directed interference edges between groups, keyed (earlier,
        // later) by the trace order of the first interfering pair found;
        // a pair of groups may contribute edges in *both* directions.
        let mut fwd: BTreeMap<(usize, usize), OrderReason> = BTreeMap::new();
        for a in 0..m {
            for b in (a + 1)..m {
                for &i in &groups[a] {
                    for &j in &groups[b] {
                        let reason = if let Some(slot) = interferes(&op_reads, &op_writes, i, j) {
                            OrderReason::Interference {
                                earlier_op: i.min(j),
                                later_op: i.max(j),
                                slot,
                            }
                        } else if let Some(type_index) = facts.couples(i, j) {
                            OrderReason::ReachOverlap { type_index }
                        } else {
                            continue;
                        };
                        let (ga, gb) = if i < j { (a, b) } else { (b, a) };
                        fwd.entry((ga, gb)).or_insert(reason);
                    }
                }
            }
        }
        // Kahn's algorithm on the group graph: a full topological order
        // means the edges are satisfiable by staging alone.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut indeg = vec![0usize; m];
        for &(a, b) in fwd.keys() {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut ready: BTreeSet<usize> = (0..m).filter(|&g| indeg[g] == 0).collect();
        let mut popped = vec![false; m];
        let mut count = 0usize;
        while let Some(&g) = ready.iter().next() {
            ready.remove(&g);
            popped[g] = true;
            count += 1;
            for &h in &adj[g] {
                indeg[h] -= 1;
                if indeg[h] == 0 && !popped[h] {
                    ready.insert(h);
                }
            }
        }
        if count == m {
            break (groups, fwd);
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

    // Stage assignment: longest-path level over the DAG. Every pair of
    // classes that must not run concurrently already carries an order
    // edge (slot or derivation witness), so levelling alone yields
    // stages whose classes are pairwise independent.
    let m = groups.len();
    let group_first: Vec<usize> = groups.iter().map(|g| g[0]).collect();
    let group_reach: Vec<IdxSet> = groups
        .iter()
        .map(|g| {
            let mut reach = IdxSet::new();
            for &i in g {
                reach.union_with(&analysis.footprints[i].reach);
            }
            reach
        })
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut indeg = vec![0usize; m];
    for &(a, b) in fwd.keys() {
        adj[a].push(b);
        indeg[b] += 1;
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = (0..m)
        .filter(|&g| indeg[g] == 0)
        .map(|g| Reverse((group_first[g], g)))
        .collect();
    let mut stage = vec![0usize; m];
    let mut min_stage = vec![0usize; m];
    while let Some(Reverse((_, g))) = heap.pop() {
        stage[g] = min_stage[g];
        for &h in &adj[g] {
            min_stage[h] = min_stage[h].max(stage[g] + 1);
            indeg[h] -= 1;
            if indeg[h] == 0 {
                heap.push(Reverse((group_first[h], h)));
            }
        }
    }
    let raw_edges: Vec<(usize, usize, OrderReason)> = fwd
        .into_iter()
        .map(|((a, b), reason)| (a, b, reason))
        .collect();

    // Assemble classes sorted by (stage, first op) and remap edges.
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
                reach: group_reach[g].clone(),
            }
        })
        .collect();
    let mut edges: Vec<OrderEdge> = raw_edges
        .into_iter()
        .map(|(a, b, reason)| OrderEdge {
            from_class: pos[a],
            to_class: pos[b],
            reason,
        })
        .collect();
    edges.sort_by_key(|e| (e.from_class, e.to_class));

    EvolutionPlan {
        certificate: PlanCertificate {
            ops_len: n,
            classes,
            edges,
        },
        type_labels: analysis.type_labels.clone(),
        prop_labels: analysis.prop_labels.clone(),
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
    /// Interfering op pairs (slot-level or derivation-level) whose trace
    /// order the plan was proven to preserve.
    pub interfering_pairs: usize,
}

/// Cheap structural verdict for a **trivially sequential** certificate:
/// exactly one class, stage 0, no order edges, covering the whole trace
/// in trace order. Such a plan reorders nothing — executing it *is* the
/// recorded serialization — and the executor never consults the claimed
/// footprints, so the only obligation the certificate still carries is the
/// partition/order one, discharged here in O(n). Re-deriving footprints
/// for it would be verification effort spent on parallelism the plan
/// does not claim: checking cost stays proportional to claimed
/// parallelism.
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

    // Obligation 1: the classes partition 0..n, each in trace order.
    let mut owner = vec![usize::MAX; n];
    for (ci, class) in cert.classes.iter().enumerate() {
        if class.ops.is_empty() {
            return Err(format!("class {} is empty", ci + 1));
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

    // Re-derive the real footprints and the union parent graph from the
    // shared, trusted kernel — nothing the planner computed is reused.
    let mut sim = SymbolicState::capture(initial);
    let cyclic = commute::union_graph_cyclic(&sim, ops);
    let mut fps: Vec<Footprint> = Vec::with_capacity(n);
    let mut uparents: Vec<IdxSet> = Vec::new();
    sim.accumulate_union_parents(&mut uparents);
    for op in ops {
        let fp = footprint::footprint(op, &sim, cyclic);
        sim.step(op);
        // Only rows whose `P_e` the op writes can have changed.
        sim.accumulate_union_parents_of(
            fp.writes.iter().filter_map(|c| match c {
                Cell::PeRow(t) => Some(*t),
                _ => None,
            }),
            &mut uparents,
        );
        fps.push(fp);
    }
    let op_reads: Vec<BTreeSet<Slot>> = fps
        .iter()
        .map(|f| f.reads.iter().map(slot_of).collect())
        .collect();
    let op_writes: Vec<BTreeSet<Slot>> = fps
        .iter()
        .map(|f| f.writes.iter().map(slot_of).collect())
        .collect();

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
        if !fps[i].reach.is_subset(&class.reach) {
            return Err(format!(
                "op {}'s derivation reach exceeds its class's claim",
                i + 1
            ));
        }
    }

    // Obligation 3: intra-stage non-interference on the claims.
    for (a, ca) in cert.classes.iter().enumerate() {
        for (b, cb) in cert.classes.iter().enumerate().skip(a + 1) {
            if ca.stage != cb.stage {
                continue;
            }
            if !ca.independent_of(cb) {
                return Err(format!(
                    "classes {} and {} share stage {} but their claimed slot footprints \
                     interfere",
                    a + 1,
                    b + 1,
                    ca.stage + 1
                ));
            }
            if !ca.reach.is_disjoint(&cb.reach) {
                return Err(format!(
                    "classes {} and {} share stage {} but their derivation reaches overlap",
                    a + 1,
                    b + 1,
                    ca.stage + 1
                ));
            }
        }
    }

    // Obligation 4: every interfering pair — slot-level (a shared slot
    // with a write) or derivation-level (coupled scoped derivations: one
    // op touches a row in the other's derivation-input frontier) — keeps
    // trace order. The derivation half would license running each class's
    // derivation pass on a private pre-stage copy (no stage-mate may move
    // a row whose derived value that pass re-reads). `Schema::apply_plan`
    // derives once after the whole batch, so this half guards no executor
    // step; it stays so the certificates stay unchanged.
    let facts = DerivationFacts::compute(&fps, &op_writes, &uparents);
    let mut interfering = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if interferes(&op_reads, &op_writes, i, j).is_none() && facts.couples(i, j).is_none() {
                continue;
            }
            interfering += 1;
            let (ci, cj) = (owner[i], owner[j]);
            if ci != cj && cert.classes[ci].stage >= cert.classes[cj].stage {
                return Err(format!(
                    "ops {} and {} interfere but the plan does not keep their trace order",
                    i + 1,
                    j + 1
                ));
            }
        }
    }

    Ok(PlanCheck {
        ops: n,
        classes: cert.classes.len(),
        stages: cert.stage_count(),
        max_parallelism: cert.max_parallelism(),
        interfering_pairs: interfering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_trace;
    use crate::config::LatticeConfig;

    /// Two row-disjoint drops on separate diamonds: one stage, parallel.
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
                reach: class.reach.clone(),
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
    fn reach_overlapping_classes_never_share_a_stage() {
        // Two drops on different rows sharing a descendant: commuting
        // (separate classes) but their derivation reaches overlap, so the
        // plan must separate the stages.
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let p1 = s.add_type("p1", [], []).unwrap();
        let p2 = s.add_type("p2", [], []).unwrap();
        let a = s.add_type("a", [p1, p2], []).unwrap();
        let b = s.add_type("b", [p1, p2], []).unwrap();
        s.add_type("shared", [a, b], []).unwrap();
        let ops = vec![
            RecordedOp::DropEssentialSupertype { t: a, s: p1 },
            RecordedOp::DropEssentialSupertype { t: b, s: p2 },
        ];
        let analysis = analyze_trace(&s, &ops);
        let plan = build_plan(&analysis);
        let cert = &plan.certificate;
        if cert.classes.len() == 2 {
            assert_ne!(
                cert.classes[0].stage,
                cert.classes[1].stage,
                "overlapping reach must be stage-separated: {}",
                plan.to_text()
            );
            assert!(cert
                .edges
                .iter()
                .any(|e| matches!(e.reason, OrderReason::ReachOverlap { .. })));
        }
        check(&s, &ops, cert).expect("certificate must re-verify");
    }

    #[test]
    fn serial_chain_detection_and_renderings() {
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
        // One class of three ops is NOT a serial chain of 1-op stages.
        assert!(!plan.is_serial_chain());
        let text = plan.to_text();
        assert!(text.contains("stage 1"), "{text}");
        let json = plan.to_json();
        assert!(json.contains("\"max_parallelism\":1"), "{json}");
        assert!(json.contains("\"serial_chain\":false"), "{json}");

        let (s2, ops2) = disjoint_drops();
        let plan2 = build_plan(&analyze_trace(&s2, &ops2));
        assert!(!plan2.is_serial_chain());
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
