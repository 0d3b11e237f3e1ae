//! Footprint inference: the read/write set of each [`RecordedOp`] over the
//! designer-input cells (`P_e` rows, `N_e` cells, names, liveness,
//! freezing, allocation cursors), computed *statically* from a symbolic
//! shadow of the inputs — no operation is ever applied to a [`Schema`].
//!
//! The symbolic state mirrors exactly the input-level edits the paper's
//! primitives perform (including the canonical relink-to-⊤ of MT-DSR and
//! DT), and maintains two reverse indexes *structurally*: subtypes per
//! type, so a type drop enumerates the rows it relinks without consulting
//! the engine, and live holders per property, so a property drop walks
//! its holder row instead of the whole arena.
//!
//! [`TracePass`] is the one forward pass every analyzer runs: one
//! capture, then per op a footprint against the pre-state and a step.
//! The same pass collects the trace's union parent graph — after each
//! step it re-reads only the `P_e` rows the op writes — and decides the
//! MT-ASR cycle-guard question from it once the trace is done, so the
//! cycle test costs O(initial edges + edges the trace writes).

use std::collections::BTreeSet;

use crate::bits::IdxSet;
use crate::history::RecordedOp;
use crate::model::Schema;

/// One addressable unit of designer-input state. Two operations can only
/// interact through a shared cell; disjoint footprints are the first (and
/// cheapest) commutation theorem (Bernstein's condition).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    /// Liveness of the type slot at this arena index.
    TypeLive(usize),
    /// Liveness of the property slot at this arena index.
    PropLive(usize),
    /// The frozen flag of a type.
    Frozen(usize),
    /// The name label stored in a type slot.
    TypeNameCell(usize),
    /// The name label stored in a property slot.
    PropNameCell(usize),
    /// The global unique-type-name table entry for one string.
    Name(String),
    /// A whole `P_e(t)` row (essential supertypes of `t`).
    PeRow(usize),
    /// One `N_e(t)` membership bit for property `p` on type `t`.
    NeCell(usize, usize),
    /// The root (⊤) designation.
    RootCell,
    /// The base (⊥) designation.
    BaseCell,
    /// Whole-graph upward reachability, read by the cycle guard of
    /// MT-ASR. Only materialised when the trace's *union* edge graph is
    /// cyclic; when it is acyclic the guard is vacuous in every order
    /// (a subgraph of an acyclic graph is acyclic) and no op reads this.
    /// [`footprint`] never emits it: [`TracePass`] adds it to the ops
    /// that carry it once the trace's verdict is known.
    CycleGuard,
    /// The type-arena allocation cursor (every type-creating op).
    TypeArena,
    /// The property-arena allocation cursor.
    PropArena,
}

/// The statically inferred effect of one operation.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Cells the op's guards and edits read.
    pub reads: BTreeSet<Cell>,
    /// Cells the op mutates.
    pub writes: BTreeSet<Cell>,
    /// Does this op allocate a fresh arena slot (and therefore bind a
    /// raw id that later ops may reference)?
    pub allocates: bool,
}

impl Footprint {
    /// Bernstein's condition: neither op reads or writes a cell the
    /// other writes.
    pub fn disjoint(&self, other: &Footprint) -> bool {
        self.writes.is_disjoint(&other.writes)
            && self.writes.is_disjoint(&other.reads)
            && self.reads.is_disjoint(&other.writes)
    }
}

/// Symbolic shadow of one type slot's designer inputs.
#[derive(Debug, Clone)]
pub struct SymType {
    /// Slot liveness.
    pub live: bool,
    /// Frozen flag.
    pub frozen: bool,
    /// Current name.
    pub name: String,
    /// `P_e(t)` as arena indexes.
    pub pe: BTreeSet<usize>,
    /// `N_e(t)` as property arena indexes.
    pub ne: BTreeSet<usize>,
}

/// Symbolic shadow of one property slot.
#[derive(Debug, Clone)]
pub struct SymProp {
    /// Slot liveness.
    pub live: bool,
    /// Current name.
    pub name: String,
}

/// A pure shadow of the designer inputs: everything the operation guards
/// read and the operation edits touch, and nothing the engine derives.
/// Stepping it through a recorded (i.e. known-successful) trace mirrors
/// each primitive's input-level edit without executing the primitive.
#[derive(Debug, Clone)]
pub struct SymbolicState {
    /// Is the configuration rooted (⊤ maintained)?
    pub rooted: bool,
    /// Is the configuration pointed (⊥ maintained)?
    pub pointed: bool,
    /// Arena index of the root, if designated.
    pub root: Option<usize>,
    /// Arena index of the base, if designated.
    pub base: Option<usize>,
    /// Type arena (index-aligned with the schema's).
    pub types: Vec<SymType>,
    /// Property arena (index-aligned with the schema's).
    pub props: Vec<SymProp>,
    /// Structural reverse-subtype index: `rev[s]` = essential subtypes
    /// of `s` (types whose `P_e` row contains `s`), maintained
    /// incrementally exactly like the engine's index, but from inputs
    /// alone.
    pub rev: Vec<IdxSet>,
    /// Live holders index: `holders[p]` = live types with `p ∈ N_e`,
    /// maintained by [`Self::step`]. A property drop clears exactly
    /// these cells.
    pub holders: Vec<IdxSet>,
    /// The *captured* state an op's enumeration must also cover (never
    /// stepped). Ops whose effect enumerates current structure
    /// (`DropType` detaching subtypes, `DropProperty` clearing `N_e`
    /// cells, `AddBaseType` reading all liveness) must claim the union of
    /// the current and the captured enumeration: a trace-earlier op that
    /// removed structure may be *reordered after* this one by a plan that
    /// found the two disjoint, and then the removed rows are touched for
    /// real. The union keeps every footprint an over-approximation under
    /// any interference-preserving reordering (see [`footprint`]). Only
    /// what those three enumerations read is kept: liveness, and the
    /// [`Self::rev0`] and [`Self::holders0`] rows.
    pub live0: IdxSet,
    /// The captured reverse-subtype index (see [`Self::live0`]).
    pub rev0: Vec<IdxSet>,
    /// The captured live holders index (see [`Self::live0`]).
    pub holders0: Vec<IdxSet>,
}

impl SymbolicState {
    /// Capture the designer inputs of a live schema.
    pub fn capture(schema: &Schema) -> SymbolicState {
        let types: Vec<SymType> = schema
            .types
            .iter()
            .map(|t| SymType {
                live: t.alive,
                frozen: t.frozen,
                name: t.name.clone(),
                pe: t.pe.iter().map(super::super::ids::TypeId::index).collect(),
                ne: t.ne.iter().map(super::super::ids::PropId::index).collect(),
            })
            .collect();
        let props: Vec<SymProp> = schema
            .props
            .iter()
            .map(|p| SymProp {
                live: p.alive,
                name: p.name.clone(),
            })
            .collect();
        let mut rev = vec![IdxSet::new(); types.len()];
        let mut holders = vec![IdxSet::new(); props.len()];
        let mut live0 = IdxSet::new();
        for (t, slot) in types.iter().enumerate().filter(|(_, s)| s.live) {
            live0.insert(t);
            for &s in &slot.pe {
                if let Some(set) = rev.get_mut(s) {
                    set.insert(t);
                }
            }
            for &p in &slot.ne {
                if let Some(set) = holders.get_mut(p) {
                    set.insert(t);
                }
            }
        }
        SymbolicState {
            rooted: schema.config().is_rooted(),
            pointed: schema.config().is_pointed(),
            root: schema.root().map(crate::ids::TypeId::index),
            base: schema.base().map(crate::ids::TypeId::index),
            types,
            props,
            rev0: rev.clone(),
            rev,
            holders0: holders.clone(),
            holders,
            live0,
        }
    }

    fn push_type(&mut self, name: &str, pe: BTreeSet<usize>, ne: BTreeSet<usize>) -> usize {
        let id = self.types.len();
        for &s in &pe {
            if let Some(set) = self.rev.get_mut(s) {
                set.insert(id);
            }
        }
        for &p in &ne {
            if let Some(set) = self.holders.get_mut(p) {
                set.insert(id);
            }
        }
        self.types.push(SymType {
            live: true,
            frozen: false,
            name: name.to_owned(),
            pe,
            ne,
        });
        self.rev.push(IdxSet::new());
        id
    }

    /// Row-local canonical drop: remove `s` from `P_e(t)` and relink an
    /// emptied row to ⊤ (the axiomatic MT-DSR edit).
    fn drop_edge(&mut self, t: usize, s: usize) {
        self.types[t].pe.remove(&s);
        if let Some(set) = self.rev.get_mut(s) {
            set.remove(t);
        }
        if self.types[t].pe.is_empty() && self.rooted && Some(t) != self.root {
            if let Some(root) = self.root {
                self.types[t].pe.insert(root);
                self.rev[root].insert(t);
            }
        }
    }

    /// Mirror one recorded (known-successful) operation's input edits.
    /// Must be called on ops in their recorded order.
    pub fn step(&mut self, op: &RecordedOp) {
        match op {
            RecordedOp::AddProperty { name } => {
                self.props.push(SymProp {
                    live: true,
                    name: name.clone(),
                });
                self.holders.push(IdxSet::new());
            }
            RecordedOp::RenameProperty { p, name } => {
                self.props[p.index()].name.clone_from(name);
            }
            RecordedOp::DropProperty { p } => {
                let pi = p.index();
                for t in std::mem::take(&mut self.holders[pi]).iter() {
                    self.types[t].ne.remove(&pi);
                }
                self.props[pi].live = false;
            }
            RecordedOp::AddRootType { name } => {
                let id = self.push_type(name, BTreeSet::new(), BTreeSet::new());
                self.root = Some(id);
            }
            RecordedOp::AddBaseType { name } => {
                let pe: BTreeSet<usize> = self
                    .types
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.live)
                    .map(|(i, _)| i)
                    .collect();
                let id = self.push_type(name, pe, BTreeSet::new());
                self.base = Some(id);
            }
            RecordedOp::AddType {
                name,
                supers,
                props,
            } => {
                let mut pe: BTreeSet<usize> = supers.iter().map(|s| s.index()).collect();
                if pe.is_empty() && self.rooted {
                    if let Some(root) = self.root {
                        pe.insert(root);
                    }
                }
                let ne = props.iter().map(|p| p.index()).collect();
                let id = self.push_type(name, pe, ne);
                if self.pointed {
                    if let Some(base) = self.base {
                        self.types[base].pe.insert(id);
                        self.rev[id].insert(base);
                    }
                }
            }
            RecordedOp::DropType { t } => {
                let ti = t.index();
                let subs: Vec<usize> = self.rev[ti].iter().collect();
                for c in subs {
                    self.drop_edge(c, ti);
                }
                let slot = &mut self.types[ti];
                for s in std::mem::take(&mut slot.pe) {
                    if let Some(set) = self.rev.get_mut(s) {
                        set.remove(ti);
                    }
                }
                // Like the engine, a dead slot keeps no `N_e` row.
                for p in std::mem::take(&mut slot.ne) {
                    if let Some(set) = self.holders.get_mut(p) {
                        set.remove(ti);
                    }
                }
                slot.live = false;
            }
            RecordedOp::RenameType { t, name } => {
                self.types[t.index()].name.clone_from(name);
            }
            RecordedOp::FreezeType { t } => {
                self.types[t.index()].frozen = true;
            }
            RecordedOp::AddEssentialSupertype { t, s } => {
                self.types[t.index()].pe.insert(s.index());
                self.rev[s.index()].insert(t.index());
            }
            RecordedOp::DropEssentialSupertype { t, s } => {
                self.drop_edge(t.index(), s.index());
            }
            RecordedOp::AddEssentialProperty { t, p } => {
                self.types[t.index()].ne.insert(p.index());
                self.holders[p.index()].insert(t.index());
            }
            RecordedOp::DropEssentialProperty { t, p } => {
                self.types[t.index()].ne.remove(&p.index());
                self.holders[p.index()].remove(t.index());
            }
        }
    }

    /// Essential subtypes of `s` in this state (structural reverse index).
    pub fn subtypes_of(&self, s: usize) -> IdxSet {
        self.rev.get(s).cloned().unwrap_or_default()
    }

    /// Essential subtypes of `s` in the *captured* state — the reordering
    /// guard half of a drop's subtype enumeration (see [`Self::live0`]).
    pub fn initial_subtypes_of(&self, s: usize) -> IdxSet {
        self.rev0.get(s).cloned().unwrap_or_default()
    }
}

/// Infer the footprint of `op` against the pre-state `state` (the
/// symbolic shadow *before* the op runs), without [`Cell::CycleGuard`]:
/// whether an op carries that cell depends on the whole trace, so
/// [`TracePass`] adds it afterwards.
///
/// **Order robustness.** The footprint must over-approximate the op's
/// effect not just at its recorded position but under *any* reordering
/// that preserves the trace order of footprint-interfering pairs (that is
/// what a certified plan executes). Effects that enumerate current
/// structure can only have *grown* at such a reordered position through
/// ops that interfere here anyway (adding a subtype/holder reads this
/// row), so taking the union of the current and the captured enumeration
/// (see [`SymbolicState::live0`]) restores the over-approximation where
/// a trace-earlier removal would otherwise have shrunk it.
pub fn footprint(op: &RecordedOp, state: &SymbolicState) -> Footprint {
    let mut f = Footprint::default();
    match op {
        RecordedOp::AddProperty { .. } => {
            f.allocates = true;
            let id = state.props.len();
            f.reads.insert(Cell::PropArena);
            f.writes.insert(Cell::PropArena);
            f.writes.insert(Cell::PropLive(id));
            f.writes.insert(Cell::PropNameCell(id));
        }
        RecordedOp::RenameProperty { p, name } => {
            let _ = name;
            f.reads.insert(Cell::PropLive(p.index()));
            f.writes.insert(Cell::PropNameCell(p.index()));
        }
        RecordedOp::DropProperty { p } => {
            let pi = p.index();
            f.reads.insert(Cell::PropLive(pi));
            f.writes.insert(Cell::PropLive(pi));
            f.writes.insert(Cell::PropNameCell(pi));
            // Current ∪ captured holders: a trace-earlier cell clear that a
            // plan reorders after this drop makes the captured cell real.
            for rows in [&state.holders, &state.holders0] {
                for t in rows.get(pi).into_iter().flat_map(IdxSet::iter) {
                    f.writes.insert(Cell::NeCell(t, pi));
                }
            }
        }
        RecordedOp::AddRootType { name } => {
            f.allocates = true;
            let id = state.types.len();
            f.reads.insert(Cell::TypeArena);
            f.reads.insert(Cell::RootCell);
            f.reads.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::TypeArena);
            f.writes.insert(Cell::TypeLive(id));
            f.writes.insert(Cell::TypeNameCell(id));
            f.writes.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::RootCell);
        }
        RecordedOp::AddBaseType { name } => {
            f.allocates = true;
            let id = state.types.len();
            f.reads.insert(Cell::TypeArena);
            f.reads.insert(Cell::BaseCell);
            f.reads.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::TypeArena);
            f.writes.insert(Cell::TypeLive(id));
            f.writes.insert(Cell::TypeNameCell(id));
            f.writes.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::BaseCell);
            f.writes.insert(Cell::PeRow(id));
            // P_e(⊥) = every live type: the row edit reads all liveness.
            // Current ∪ captured liveness — a trace-earlier type drop that a
            // plan reorders after this op leaves the captured row readable.
            for (t, slot) in state.types.iter().enumerate() {
                if slot.live || state.live0.contains(t) {
                    f.reads.insert(Cell::TypeLive(t));
                }
            }
        }
        RecordedOp::AddType {
            name,
            supers,
            props,
        } => {
            f.allocates = true;
            let id = state.types.len();
            f.reads.insert(Cell::TypeArena);
            f.reads.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::TypeArena);
            f.writes.insert(Cell::TypeLive(id));
            f.writes.insert(Cell::TypeNameCell(id));
            f.writes.insert(Cell::Name(name.clone()));
            f.writes.insert(Cell::PeRow(id));
            for s in supers {
                f.reads.insert(Cell::TypeLive(s.index()));
                f.reads.insert(Cell::Frozen(s.index()));
            }
            if supers.is_empty() && state.rooted {
                f.reads.insert(Cell::RootCell);
            }
            for p in props {
                f.reads.insert(Cell::PropLive(p.index()));
                f.writes.insert(Cell::NeCell(id, p.index()));
            }
            if state.pointed {
                f.reads.insert(Cell::BaseCell);
                if let Some(base) = state.base {
                    f.writes.insert(Cell::PeRow(base));
                }
            }
        }
        RecordedOp::DropType { t } => {
            let ti = t.index();
            f.reads.insert(Cell::TypeLive(ti));
            f.reads.insert(Cell::Frozen(ti));
            f.reads.insert(Cell::RootCell);
            f.reads.insert(Cell::BaseCell);
            f.reads.insert(Cell::PeRow(ti));
            f.writes.insert(Cell::TypeLive(ti));
            f.writes.insert(Cell::TypeNameCell(ti));
            f.writes.insert(Cell::PeRow(ti));
            if let Some(slot) = state.types.get(ti) {
                f.writes.insert(Cell::Name(slot.name.clone()));
            }
            // Current ∪ captured subtypes: a trace-earlier detach of a child
            // that a plan reorders after this drop makes the captured
            // child's row edit (and possible ⊤-relink) real.
            let mut subs = state.subtypes_of(ti);
            subs.union_with(&state.initial_subtypes_of(ti));
            for c in subs.iter() {
                f.reads.insert(Cell::PeRow(c));
                f.writes.insert(Cell::PeRow(c));
            }
        }
        RecordedOp::RenameType { t, name } => {
            let ti = t.index();
            f.reads.insert(Cell::TypeLive(ti));
            f.reads.insert(Cell::TypeNameCell(ti));
            let same = state.types.get(ti).is_some_and(|s| &s.name == name);
            if !same {
                f.reads.insert(Cell::Name(name.clone()));
                f.writes.insert(Cell::Name(name.clone()));
                if let Some(slot) = state.types.get(ti) {
                    f.writes.insert(Cell::Name(slot.name.clone()));
                }
                f.writes.insert(Cell::TypeNameCell(ti));
            }
        }
        RecordedOp::FreezeType { t } => {
            f.reads.insert(Cell::TypeLive(t.index()));
            f.writes.insert(Cell::Frozen(t.index()));
        }
        RecordedOp::AddEssentialSupertype { t, s } => {
            let (ti, si) = (t.index(), s.index());
            f.reads.insert(Cell::TypeLive(ti));
            f.reads.insert(Cell::TypeLive(si));
            f.reads.insert(Cell::Frozen(ti));
            f.reads.insert(Cell::BaseCell);
            f.reads.insert(Cell::PeRow(ti));
            f.writes.insert(Cell::PeRow(ti));
        }
        RecordedOp::DropEssentialSupertype { t, s } => {
            let (ti, si) = (t.index(), s.index());
            f.reads.insert(Cell::TypeLive(ti));
            f.reads.insert(Cell::TypeLive(si));
            f.reads.insert(Cell::Frozen(ti));
            f.reads.insert(Cell::RootCell);
            f.reads.insert(Cell::BaseCell);
            f.reads.insert(Cell::PeRow(ti));
            f.writes.insert(Cell::PeRow(ti));
        }
        RecordedOp::AddEssentialProperty { t, p } => {
            f.reads.insert(Cell::TypeLive(t.index()));
            f.reads.insert(Cell::PropLive(p.index()));
            f.writes.insert(Cell::NeCell(t.index(), p.index()));
        }
        RecordedOp::DropEssentialProperty { t, p } => {
            f.reads.insert(Cell::TypeLive(t.index()));
            f.reads.insert(Cell::PropLive(p.index()));
            f.writes.insert(Cell::NeCell(t.index(), p.index()));
        }
    }
    f
}

/// Add the [`Cell::CycleGuard`] cells `op` carries when the trace's union
/// edge graph is cyclic: MT-ASR reads and writes the guard, and the other
/// ops that can give a `P_e` row an edge — AT, ABT, DT (its ⊤-relinks)
/// and MT-DSR (its ⊤-relink) — write it, conservatively serialising every
/// cycle-guard-sensitive pair.
fn guard_cycle(op: &RecordedOp, f: &mut Footprint) {
    match op {
        RecordedOp::AddEssentialSupertype { .. } => {
            f.reads.insert(Cell::CycleGuard);
            f.writes.insert(Cell::CycleGuard);
        }
        RecordedOp::AddType { .. }
        | RecordedOp::AddBaseType { .. }
        | RecordedOp::DropType { .. }
        | RecordedOp::DropEssentialSupertype { .. } => {
            f.writes.insert(Cell::CycleGuard);
        }
        _ => {}
    }
}

/// What one forward pass over a recorded trace derives from a single
/// capture of its initial schema: everything the commutativity engine
/// and the plan checker read, so each captures exactly once.
#[derive(Debug)]
pub struct TracePass {
    /// Per-op footprints against their pre-states, with their
    /// [`Cell::CycleGuard`] cells when the union edge graph is cyclic.
    pub footprints: Vec<Footprint>,
    /// The trace's **union parent graph** over the final type arena:
    /// every essential edge present in *any* intermediate state —
    /// initial edges, op-introduced edges, and canonical ⊤-relinks alike.
    /// The MT-ASR cycle test searches it (plus an edge from every slot to
    /// the final ⊤) to decide [`Self::union_acyclic`].
    pub union_parents: Vec<IdxSet>,
    /// Was the union edge graph acyclic (MT-ASR cycle guards vacuous in
    /// every order)?
    pub union_acyclic: bool,
    /// The shadow after the last op (final labels and designations).
    pub last: SymbolicState,
}

impl TracePass {
    /// Capture `initial` once and walk `ops` (a recorded, known-successful
    /// trace): `pre` sees each op with its pre-state, then the op's
    /// footprint is inferred and the shadow stepped.
    ///
    /// The union parent graph starts as the captured rows and, after each
    /// step, re-reads only the rows the op writes a `P_e` cell of: a
    /// newborn row, the row of an MT-ASR/MT-DSR, the subtypes a DT
    /// relinks, and ⊥ when a pointed lattice links it to a new type. No
    /// other row can gain an edge, so the union is exact at
    /// O(initial edges + edges the trace writes).
    pub fn run(
        initial: &Schema,
        ops: &[RecordedOp],
        mut pre: impl FnMut(usize, &RecordedOp, &SymbolicState),
    ) -> TracePass {
        let mut sim = SymbolicState::capture(initial);
        let captured = sim.types.len();
        let mut union_parents: Vec<IdxSet> = sim
            .types
            .iter()
            .map(|slot| slot.pe.iter().copied().collect())
            .collect();
        let mut footprints = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            pre(i, op, &sim);
            let fp = footprint(op, &sim);
            sim.step(op);
            union_parents.resize(sim.types.len(), IdxSet::new());
            for cell in &fp.writes {
                if let Cell::PeRow(t) = *cell {
                    union_parents[t].extend(sim.types[t].pe.iter().copied());
                }
            }
            footprints.push(fp);
        }
        let union_acyclic = !union_graph_cyclic(&sim, captured, &union_parents);
        if !union_acyclic {
            for (op, fp) in ops.iter().zip(&mut footprints) {
                guard_cycle(op, fp);
            }
        }
        TracePass {
            footprints,
            union_parents,
            union_acyclic,
            last: sim,
        }
    }
}

/// Does the union edge graph — every edge any permutation of the trace
/// can materialise — contain a cycle? Its edges are the union parent
/// graph's, except the rows of slots already dead at capture (the first
/// `captured` slots not in [`SymbolicState::live0`]), which hold no live
/// edge and which no op re-reads; plus an edge from every slot but ⊤
/// itself to the final ⊤, covering the relink any drop can make in any
/// order.
fn union_graph_cyclic(last: &SymbolicState, captured: usize, union_parents: &[IdxSet]) -> bool {
    let none = IdxSet::new();
    let successors = |t: usize| {
        let row = if t < captured && !last.live0.contains(t) {
            &none
        } else {
            &union_parents[t]
        };
        row.iter().chain(last.root.filter(|&r| r != t))
    };
    // Iterative three-colour DFS.
    let n = union_parents.len();
    let mut colour = vec![0u8; n];
    for start in 0..n {
        if colour[start] != 0 {
            continue;
        }
        colour[start] = 1;
        let mut stack = vec![(start, successors(start))];
        while let Some((node, next)) = stack.last_mut() {
            match next.next() {
                Some(child) => match colour[child] {
                    0 => {
                        colour[child] = 1;
                        stack.push((child, successors(child)));
                    }
                    1 => return true,
                    _ => {}
                },
                None => {
                    colour[*node] = 2;
                    stack.pop();
                }
            }
        }
    }
    false
}

/// Render a cell for humans, resolving arena indexes to names where the
/// labels are known.
pub fn cell_label(cell: &Cell, type_names: &[String], prop_names: &[String]) -> String {
    let tn = |i: usize| {
        type_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("#{i}"))
    };
    let pn = |i: usize| {
        prop_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("#{i}"))
    };
    match cell {
        Cell::TypeLive(i) => format!("live({})", tn(*i)),
        Cell::PropLive(i) => format!("live(prop {})", pn(*i)),
        Cell::Frozen(i) => format!("frozen({})", tn(*i)),
        Cell::TypeNameCell(i) => format!("name({})", tn(*i)),
        Cell::PropNameCell(i) => format!("name(prop {})", pn(*i)),
        Cell::Name(s) => format!("name-table[\"{s}\"]"),
        Cell::PeRow(i) => format!("P_e({})", tn(*i)),
        Cell::NeCell(t, p) => format!("N_e({})∋{}", tn(*t), pn(*p)),
        Cell::RootCell => "root(⊤)".to_owned(),
        Cell::BaseCell => "base(⊥)".to_owned(),
        Cell::CycleGuard => "reach(≤)".to_owned(),
        Cell::TypeArena => "type-arena".to_owned(),
        Cell::PropArena => "prop-arena".to_owned(),
    }
}
