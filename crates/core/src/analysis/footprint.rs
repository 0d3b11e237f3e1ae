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
//! **The shadow is a version of the schema.** Its type and property
//! arenas and its subtype index are the schema's own copy-on-write input
//! spines (`Spine<TypeSlot>`, `Spine<PropRecord>`, `Spine<TypeSet>`): a
//! capture copies one pointer per 64-slot leaf, and a step copies the
//! leaf and the record it writes, each only while the captured schema
//! still shares it. The captured version is kept, unstepped, as the
//! initial state the reordering guards read. So a capture costs
//! O(leaves) and a trace costs the rows it writes, whatever the arena's
//! history. The holders index is built on first use: only a property
//! drop reads it. The subtype index is the one `Schema` maintains on
//! every `P_e` edit; the tests check it against the index folded from the
//! live `P_e` rows, at capture and after every step, so the shadow still
//! answers from the inputs alone.
//!
//! [`TracePass`] is the one forward pass every analyzer runs: one
//! capture, then per op a footprint against the pre-state and a step.
//! The same pass collects the trace's union parent graph — rows only for
//! the `P_e` rows the trace writes, every other row read from the shadow
//! — and decides the MT-ASR cycle-guard question from it once the trace
//! is done, so the cycle test costs O(initial edges + edges the trace
//! writes).

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::bits::{PropSet, TypeSet};
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::model::{PropRecord, Schema, Spine, TypeSlot};

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

/// The pair index: given each op's read and write sets over an ordered
/// key, every op pair `(a, b)` with `a < b` that shares a key with a write
/// on at least one side — exactly the pairs that fail Bernstein's
/// condition — in ascending order.
///
/// Each key some op writes gets two bit rows over the ops: the ops that
/// touch it and the ops that write it (a key no op writes joins no pair).
/// Op `a`'s partners are then the union of the touch rows of the keys it
/// writes and the write rows of the keys it only reads, so the index
/// costs one sort of the accesses and one row union per access, never a
/// test per pair.
pub(crate) fn interfering_pairs<'k, K, R, W>(
    ops: impl IntoIterator<Item = (R, W)>,
) -> Vec<(usize, usize)>
where
    K: Ord + 'k,
    R: IntoIterator<Item = &'k K>,
    W: IntoIterator<Item = &'k K>,
{
    let mut accesses: Vec<(&K, usize, bool)> = Vec::new();
    let mut n = 0;
    for (op, (reads, writes)) in ops.into_iter().enumerate() {
        accesses.extend(reads.into_iter().map(|k| (k, op, false)));
        accesses.extend(writes.into_iter().map(|k| (k, op, true)));
        n = op + 1;
    }
    accesses.sort_unstable_by(|x, y| x.0.cmp(y.0));
    let words = n.div_ceil(64);
    // Per written key, its touch row then its write row; per access to a
    // written key, (op, the row it unions into op's partners).
    let mut rows: Vec<u64> = Vec::new();
    let mut touches: Vec<(usize, usize)> = Vec::new();
    for group in accesses.chunk_by(|x, y| x.0 == y.0) {
        if !group.iter().any(|&(_, _, write)| write) {
            continue;
        }
        let touch = rows.len();
        rows.resize(touch + 2 * words, 0);
        for &(_, op, write) in group {
            let bit = 1u64 << (op % 64);
            rows[touch + op / 64] |= bit;
            if write {
                rows[touch + words + op / 64] |= bit;
            }
            touches.push((op, if write { touch } else { touch + words }));
        }
    }
    touches.sort_unstable();
    let mut pairs = Vec::new();
    let mut partners = vec![0u64; words];
    for group in touches.chunk_by(|x, y| x.0 == y.0) {
        let a = group[0].0;
        // Only later ops pair with `a`: start at the word holding a + 1.
        let from = (a + 1) / 64;
        let later = &mut partners[from..];
        later.fill(0);
        for &(_, row) in group {
            for (word, bits) in later.iter_mut().zip(&rows[row + from..row + words]) {
                *word |= bits;
            }
        }
        if let Some(first) = later.first_mut() {
            *first &= u64::MAX << ((a + 1) % 64);
        }
        for (w, &word) in later.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                pairs.push((a, (from + w) * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
    }
    pairs
}

/// A pure shadow of the designer inputs: everything the operation guards
/// read and the operation edits touch, and nothing the engine derives.
/// Stepping it through a recorded (i.e. known-successful) trace mirrors
/// each primitive's input-level edit without executing the primitive.
///
/// It is a copy-on-write version of the captured schema's input spines
/// (see the module docs), read through the accessors below.
#[derive(Debug, Clone)]
pub struct SymbolicState {
    rooted: bool,
    pointed: bool,
    root: Option<usize>,
    base: Option<usize>,
    /// Type arena (index-aligned with the schema's).
    types: Spine<TypeSlot>,
    /// Property arena (index-aligned with the schema's).
    props: Spine<PropRecord>,
    /// Structural reverse-subtype index: `rev[s]` = essential subtypes of
    /// `s` (live types whose `P_e` row contains `s`), stepped with every
    /// `P_e` edit.
    rev: Spine<TypeSet>,
    /// Live holders index: `holders[p]` = live types with `p ∈ N_e`, built
    /// on first use and stepped from then on. A property drop clears
    /// exactly these cells.
    holders: OnceCell<Vec<TypeSet>>,
    /// The captured version, never stepped.
    initial: Arc<Initial>,
}

/// The *captured* state an op's enumeration must also cover. Ops whose
/// effect enumerates current structure (`DropType` detaching subtypes,
/// `DropProperty` clearing `N_e` cells, `AddBaseType` reading all
/// liveness) must claim the union of the current and the captured
/// enumeration: a trace-earlier op that removed structure may be
/// *reordered after* this one by a plan that found the two disjoint, and
/// then the removed rows are touched for real. The union keeps every
/// footprint an over-approximation under any interference-preserving
/// reordering (see [`footprint`]).
#[derive(Debug)]
struct Initial {
    /// The captured type arena: liveness and the holders rows.
    types: Spine<TypeSlot>,
    /// The captured reverse-subtype index.
    rev: Spine<TypeSet>,
    /// Property slots at capture.
    props: usize,
    /// The captured live holders index, built on first use.
    holders: OnceLock<Vec<TypeSet>>,
}

/// The live holders index of a type arena over `props` property slots.
fn holders_of_arena(types: &Spine<TypeSlot>, props: usize) -> Vec<TypeSet> {
    let mut holders = vec![TypeSet::new(); props];
    for (t, slot) in types.iter().enumerate().filter(|(_, s)| s.alive) {
        for p in slot.ne.iter() {
            if let Some(set) = holders.get_mut(p.index()) {
                set.insert(TypeId::from_index(t));
            }
        }
    }
    holders
}

impl SymbolicState {
    /// Capture the designer inputs of a live schema: one pointer per
    /// spine leaf, whatever the arena's size.
    pub fn capture(schema: &Schema) -> SymbolicState {
        SymbolicState {
            rooted: schema.config().is_rooted(),
            pointed: schema.config().is_pointed(),
            root: schema.root().map(TypeId::index),
            base: schema.base().map(TypeId::index),
            types: schema.types.clone(),
            props: schema.props.clone(),
            rev: schema.rev.clone(),
            holders: OnceCell::new(),
            initial: Arc::new(Initial {
                types: schema.types.clone(),
                rev: schema.rev.clone(),
                props: schema.props.len(),
                holders: OnceLock::new(),
            }),
        }
    }

    /// Is the configuration rooted (⊤ maintained)?
    pub fn rooted(&self) -> bool {
        self.rooted
    }

    /// Is the configuration pointed (⊥ maintained)?
    pub fn pointed(&self) -> bool {
        self.pointed
    }

    /// Arena index of the root, if designated.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// Arena index of the base, if designated.
    pub fn base(&self) -> Option<usize> {
        self.base
    }

    /// Type arena slots, dead ones included.
    pub fn type_slots(&self) -> usize {
        self.types.len()
    }

    /// Property arena slots, dead ones included.
    pub fn prop_slots(&self) -> usize {
        self.props.len()
    }

    /// Is type slot `t` live?
    pub fn is_live(&self, t: usize) -> bool {
        self.types.get(t).is_some_and(|s| s.alive)
    }

    /// Was type slot `t` live at capture?
    pub fn was_live(&self, t: usize) -> bool {
        self.initial.types.get(t).is_some_and(|s| s.alive)
    }

    /// The frozen flag of type slot `t`.
    pub fn is_frozen(&self, t: usize) -> bool {
        self.types.get(t).is_some_and(|s| s.frozen)
    }

    /// The name in type slot `t` (dead slots keep their last name).
    pub fn type_name(&self, t: usize) -> Option<&str> {
        self.types.get(t).map(|s| s.name.as_str())
    }

    /// The name in property slot `p`.
    pub fn prop_name(&self, p: usize) -> Option<&str> {
        self.props.get(p).map(|r| r.name.as_str())
    }

    /// `P_e(t)` as arena indexes, ascending.
    pub fn supertypes(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.types
            .get(t)
            .into_iter()
            .flat_map(|s| s.pe.iter().map(TypeId::index))
    }

    /// `N_e(t)` as property arena indexes, ascending.
    pub fn properties(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.types
            .get(t)
            .into_iter()
            .flat_map(|s| s.ne.iter().map(PropId::index))
    }

    /// Is `p ∈ N_e(t)`?
    pub fn has_property(&self, t: usize, p: usize) -> bool {
        self.types
            .get(t)
            .is_some_and(|s| s.ne.contains(PropId::from_index(p)))
    }

    /// Essential subtypes of `s` in this state (structural reverse index).
    pub fn subtypes(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        rev_row(&self.rev, s)
    }

    /// Essential subtypes of `s` in the *captured* state — the reordering
    /// guard half of a drop's subtype enumeration.
    pub fn initial_subtypes(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        rev_row(&self.initial.rev, s)
    }

    /// Live types with `p ∈ N_e` in this state.
    pub fn holders_of(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.holders
            .get_or_init(|| holders_of_arena(&self.types, self.props.len()))
            .get(p)
            .into_iter()
            .flat_map(|row| row.iter().map(TypeId::index))
    }

    /// Live types with `p ∈ N_e` in the *captured* state.
    pub fn initial_holders_of(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let initial = &self.initial;
        initial
            .holders
            .get_or_init(|| holders_of_arena(&initial.types, initial.props))
            .get(p)
            .into_iter()
            .flat_map(|row| row.iter().map(TypeId::index))
    }

    /// The names of every arena slot in this state, shared, not copied.
    pub fn labels(&self) -> Labels {
        Labels {
            types: self.types.clone(),
            props: self.props.clone(),
        }
    }

    /// Type slot `t`, for writing: copies its leaf, then the slot, each
    /// only while another version still shares it.
    fn slot_mut(&mut self, t: usize) -> &mut TypeSlot {
        self.types.make_mut(&None, t)
    }

    fn rev_insert(&mut self, s: usize, t: usize) {
        if s < self.rev.len() {
            self.rev.make_mut(&None, s).insert(TypeId::from_index(t));
        }
    }

    fn rev_remove(&mut self, s: usize, t: usize) {
        if s < self.rev.len() {
            self.rev.make_mut(&None, s).remove(TypeId::from_index(t));
        }
    }

    /// The holders index, built now if no read has built it yet.
    fn holders_mut(&mut self) -> &mut Vec<TypeSet> {
        if self.holders.get().is_none() {
            let built = holders_of_arena(&self.types, self.props.len());
            let _ = self.holders.set(built);
        }
        self.holders.get_mut().expect("built above")
    }

    fn push_type(&mut self, name: &str, pe: TypeSet, ne: PropSet) -> usize {
        let id = self.types.len();
        for s in pe.iter() {
            self.rev_insert(s.index(), id);
        }
        if let Some(holders) = self.holders.get_mut() {
            for p in ne.iter() {
                if let Some(set) = holders.get_mut(p.index()) {
                    set.insert(TypeId::from_index(id));
                }
            }
        }
        self.types.push(
            &None,
            TypeSlot {
                name: name.to_owned(),
                alive: true,
                frozen: false,
                pe,
                ne,
            },
        );
        self.rev.push(&None, TypeSet::new());
        id
    }

    /// Row-local canonical drop: remove `s` from `P_e(t)` and relink an
    /// emptied row to ⊤ (the axiomatic MT-DSR edit).
    fn drop_edge(&mut self, t: usize, s: usize) {
        let (rooted, root) = (self.rooted, self.root);
        let slot = self.slot_mut(t);
        slot.pe.remove(TypeId::from_index(s));
        let relink = slot.pe.is_empty() && rooted && Some(t) != root;
        if let (true, Some(root)) = (relink, root) {
            slot.pe.insert(TypeId::from_index(root));
        }
        self.rev_remove(s, t);
        if let (true, Some(root)) = (relink, root) {
            self.rev_insert(root, t);
        }
    }

    /// Mirror one recorded (known-successful) operation's input edits.
    /// Must be called on ops in their recorded order.
    pub fn step(&mut self, op: &RecordedOp) {
        match op {
            RecordedOp::AddProperty { name } => {
                self.props.push(
                    &None,
                    PropRecord {
                        name: name.clone(),
                        alive: true,
                    },
                );
                if let Some(holders) = self.holders.get_mut() {
                    holders.push(TypeSet::new());
                }
            }
            RecordedOp::RenameProperty { p, name } => {
                self.props.make_mut(&None, p.index()).name.clone_from(name);
            }
            RecordedOp::DropProperty { p } => {
                let pi = p.index();
                for t in std::mem::take(&mut self.holders_mut()[pi]).iter() {
                    self.slot_mut(t.index()).ne.remove(*p);
                }
                self.props.make_mut(&None, pi).alive = false;
            }
            RecordedOp::AddRootType { name } => {
                let id = self.push_type(name, TypeSet::new(), Default::default());
                self.root = Some(id);
            }
            RecordedOp::AddBaseType { name } => {
                let pe: TypeSet = (0..self.types.len())
                    .filter(|&t| self.is_live(t))
                    .map(TypeId::from_index)
                    .collect();
                let id = self.push_type(name, pe, Default::default());
                self.base = Some(id);
            }
            RecordedOp::AddType {
                name,
                supers,
                props,
            } => {
                let mut pe: TypeSet = supers.iter().copied().collect();
                if pe.is_empty() && self.rooted {
                    if let Some(root) = self.root {
                        pe.insert(TypeId::from_index(root));
                    }
                }
                let ne = props.iter().copied().collect();
                let id = self.push_type(name, pe, ne);
                if self.pointed {
                    if let Some(base) = self.base {
                        self.slot_mut(base).pe.insert(TypeId::from_index(id));
                        self.rev_insert(id, base);
                    }
                }
            }
            RecordedOp::DropType { t } => {
                let ti = t.index();
                let subs: Vec<usize> = self.subtypes(ti).collect();
                for c in subs {
                    self.drop_edge(c, ti);
                }
                let slot = self.slot_mut(ti);
                let pe = std::mem::take(&mut slot.pe);
                // Like the engine, a dead slot keeps no `N_e` row.
                let ne = std::mem::take(&mut slot.ne);
                slot.alive = false;
                for s in pe.iter() {
                    self.rev_remove(s.index(), ti);
                }
                if let Some(holders) = self.holders.get_mut() {
                    for p in ne.iter() {
                        if let Some(set) = holders.get_mut(p.index()) {
                            set.remove(*t);
                        }
                    }
                }
            }
            RecordedOp::RenameType { t, name } => {
                self.slot_mut(t.index()).name.clone_from(name);
            }
            RecordedOp::FreezeType { t } => {
                self.slot_mut(t.index()).frozen = true;
            }
            RecordedOp::AddEssentialSupertype { t, s } => {
                self.slot_mut(t.index()).pe.insert(*s);
                self.rev_insert(s.index(), t.index());
            }
            RecordedOp::DropEssentialSupertype { t, s } => {
                self.drop_edge(t.index(), s.index());
            }
            RecordedOp::AddEssentialProperty { t, p } => {
                self.slot_mut(t.index()).ne.insert(*p);
                if let Some(holders) = self.holders.get_mut() {
                    holders[p.index()].insert(*t);
                }
            }
            RecordedOp::DropEssentialProperty { t, p } => {
                self.slot_mut(t.index()).ne.remove(*p);
                if let Some(holders) = self.holders.get_mut() {
                    holders[p.index()].remove(*t);
                }
            }
        }
    }
}

/// Row `s` of a reverse-subtype index as arena indexes.
fn rev_row(rev: &Spine<TypeSet>, s: usize) -> impl Iterator<Item = usize> + '_ {
    rev.get(s)
        .into_iter()
        .flat_map(|row| row.iter().map(TypeId::index))
}

/// The names of every type and property arena slot of one version of the
/// designer inputs (dead slots keep their last name), for rendering: a
/// shared handle on that version's spines, so taking the labels of a
/// shadow copies one pointer per leaf, not one string per slot. Equality
/// compares names; leaves both sides share are equal without a look.
#[derive(Clone)]
pub struct Labels {
    types: Spine<TypeSlot>,
    props: Spine<PropRecord>,
}

impl Labels {
    /// The name in type slot `t`.
    pub fn type_name(&self, t: usize) -> Option<&str> {
        self.types.get(t).map(|s| s.name.as_str())
    }

    /// The name in property slot `p`.
    pub fn prop_name(&self, p: usize) -> Option<&str> {
        self.props.get(p).map(|r| r.name.as_str())
    }

    /// Type slot `t`'s name, or `#t` past the arena.
    pub fn type_label(&self, t: usize) -> String {
        self.type_name(t)
            .map_or_else(|| format!("#{t}"), str::to_owned)
    }

    /// Property slot `p`'s name, or `#p` past the arena.
    pub fn prop_label(&self, p: usize) -> String {
        self.prop_name(p)
            .map_or_else(|| format!("#{p}"), str::to_owned)
    }
}

impl PartialEq for Labels {
    fn eq(&self, other: &Labels) -> bool {
        self.types.eq_by(&other.types, |a, b| a.name == b.name)
            && self.props.eq_by(&other.props, |a, b| a.name == b.name)
    }
}

impl Eq for Labels {}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Labels")
            .field(
                "types",
                &self.types.iter().map(|s| &s.name).collect::<Vec<_>>(),
            )
            .field(
                "props",
                &self.props.iter().map(|r| &r.name).collect::<Vec<_>>(),
            )
            .finish()
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
/// ([`SymbolicState::was_live`], [`SymbolicState::initial_subtypes`],
/// [`SymbolicState::initial_holders_of`]) restores the over-approximation
/// where a trace-earlier removal would otherwise have shrunk it.
pub fn footprint(op: &RecordedOp, state: &SymbolicState) -> Footprint {
    let mut f = Footprint::default();
    match op {
        RecordedOp::AddProperty { .. } => {
            f.allocates = true;
            let id = state.prop_slots();
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
            for t in state.holders_of(pi).chain(state.initial_holders_of(pi)) {
                f.writes.insert(Cell::NeCell(t, pi));
            }
        }
        RecordedOp::AddRootType { name } => {
            f.allocates = true;
            let id = state.type_slots();
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
            let id = state.type_slots();
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
            for t in 0..state.type_slots() {
                if state.is_live(t) || state.was_live(t) {
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
            let id = state.type_slots();
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
            if supers.is_empty() && state.rooted() {
                f.reads.insert(Cell::RootCell);
            }
            for p in props {
                f.reads.insert(Cell::PropLive(p.index()));
                f.writes.insert(Cell::NeCell(id, p.index()));
            }
            if state.pointed() {
                f.reads.insert(Cell::BaseCell);
                if let Some(base) = state.base() {
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
            if let Some(name) = state.type_name(ti) {
                f.writes.insert(Cell::Name(name.to_owned()));
            }
            // Current ∪ captured subtypes: a trace-earlier detach of a child
            // that a plan reorders after this drop makes the captured
            // child's row edit (and possible ⊤-relink) real.
            for c in state.subtypes(ti).chain(state.initial_subtypes(ti)) {
                f.reads.insert(Cell::PeRow(c));
                f.writes.insert(Cell::PeRow(c));
            }
        }
        RecordedOp::RenameType { t, name } => {
            let ti = t.index();
            f.reads.insert(Cell::TypeLive(ti));
            f.reads.insert(Cell::TypeNameCell(ti));
            let current = state.type_name(ti);
            if current != Some(name.as_str()) {
                f.reads.insert(Cell::Name(name.clone()));
                f.writes.insert(Cell::Name(name.clone()));
                if let Some(current) = current {
                    f.writes.insert(Cell::Name(current.to_owned()));
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
    /// Was the trace's union edge graph acyclic (MT-ASR cycle guards
    /// vacuous in every order)?
    pub union_acyclic: bool,
    /// The shadow after the last op (final labels and designations).
    pub last: SymbolicState,
}

impl TracePass {
    /// Capture `initial` once and walk `ops` (a recorded, known-successful
    /// trace): `pre` sees each op with its pre-state, then the op's
    /// footprint is inferred and the shadow stepped.
    ///
    /// The union parent graph is every essential edge present in *any*
    /// intermediate state — initial edges, op-introduced edges, and
    /// canonical ⊤-relinks alike. It keeps a row only for each row the
    /// trace writes a `P_e` cell of (a newborn row, the row of an
    /// MT-ASR/MT-DSR, the subtypes a DT relinks, and ⊥ when a pointed
    /// lattice links it to a new type): the captured row, then after each
    /// step the row as the op left it. No other row can gain an edge, so
    /// every other row of the union is the shadow's own, and the union is
    /// exact at O(edges the trace writes) beside the shared spines.
    pub fn run(
        initial: &Schema,
        ops: &[RecordedOp],
        mut pre: impl FnMut(usize, &RecordedOp, &SymbolicState),
    ) -> TracePass {
        let mut sim = SymbolicState::capture(initial);
        let mut written: BTreeMap<usize, TypeSet> = BTreeMap::new();
        let mut footprints = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            pre(i, op, &sim);
            let fp = footprint(op, &sim);
            sim.step(op);
            for cell in &fp.writes {
                if let Cell::PeRow(t) = *cell {
                    let captured = sim.initial.types.get(t).map(|s| &s.pe);
                    let row = written
                        .entry(t)
                        .or_insert_with(|| captured.cloned().unwrap_or_default());
                    if let Some(slot) = sim.types.get(t) {
                        row.union_with(&slot.pe);
                    }
                }
            }
            footprints.push(fp);
        }
        let union_acyclic = !union_graph_cyclic(&sim, &written);
        if !union_acyclic {
            for (op, fp) in ops.iter().zip(&mut footprints) {
                guard_cycle(op, fp);
            }
        }
        TracePass {
            footprints,
            union_acyclic,
            last: sim,
        }
    }
}

/// Does the union edge graph — every edge any permutation of the trace
/// can materialise — contain a cycle? A row the trace writes contributes
/// its union `written` row; every other row is unchanged since capture,
/// so it contributes the shadow's row, except that slots already dead at
/// capture hold no edge. On top of those, an edge runs from every slot
/// but ⊤ itself to the final ⊤, covering the relink any drop can make in
/// any order.
fn union_graph_cyclic(last: &SymbolicState, written: &BTreeMap<usize, TypeSet>) -> bool {
    let none = TypeSet::new();
    let successors = |t: usize| {
        let row = match written.get(&t) {
            Some(row) => row,
            None if last.was_live(t) => last.types.get(t).map_or(&none, |s| &s.pe),
            None => &none,
        };
        row.iter()
            .map(TypeId::index)
            .chain(last.root.filter(|&r| r != t))
    };
    // Iterative three-colour DFS from the written rows alone: the captured
    // graph is acyclic, and ⊤'s row holds no edge unless the trace writes
    // it (so no edge into ⊤ closes a cycle), hence every cycle of the
    // union graph runs through a written row.
    let mut colour = vec![0u8; last.type_slots()];
    for &start in written.keys() {
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

/// Render a cell for humans, resolving arena indexes to the names in
/// `labels`.
pub fn cell_label(cell: &Cell, labels: &Labels) -> String {
    let tn = |i: usize| labels.type_label(i);
    let pn = |i: usize| labels.prop_label(i);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    /// A 1,000-type lattice: every type under one or two earlier types,
    /// a fresh essential property on every third.
    fn thousand() -> Schema {
        let mut s = Schema::new(LatticeConfig::default());
        let mut types = vec![s.add_root_type("T0").unwrap()];
        let mut x: u64 = 7;
        for i in 1..1000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = types[(x >> 33) as usize % types.len()];
            let b = types[(x >> 17) as usize % types.len()];
            let props = if i % 3 == 0 {
                vec![s.add_property(format!("p{i}"))]
            } else {
                Vec::new()
            };
            types.push(s.add_type(format!("T{i}"), [a, b], props).unwrap());
        }
        s
    }

    /// The subtype index folded from the live `P_e` rows.
    fn folded_rev(sim: &SymbolicState) -> Vec<TypeSet> {
        let mut rev = vec![TypeSet::new(); sim.type_slots()];
        for (t, slot) in sim.types.iter().enumerate().filter(|(_, s)| s.alive) {
            for s in slot.pe.iter() {
                rev[s.index()].insert(TypeId::from_index(t));
            }
        }
        rev
    }

    /// The shadow's subtype index and (when built) holders index equal the
    /// ones folded from its live input rows.
    fn assert_indexes_folded(sim: &SymbolicState, at: usize) {
        let rev: Vec<TypeSet> = sim.rev.iter().cloned().collect();
        assert_eq!(rev, folded_rev(sim), "subtype index after {at} step(s)");
        if let Some(holders) = sim.holders.get() {
            assert_eq!(
                holders,
                &holders_of_arena(&sim.types, sim.prop_slots()),
                "holders index after {at} step(s)"
            );
        }
    }

    #[test]
    fn a_capture_shares_every_leaf_and_a_trace_unshares_what_it_writes() {
        let schema = thousand();
        let sim = SymbolicState::capture(&schema);
        assert_eq!(sim.types.unshared_with(&schema.types), (0, 0));
        assert_eq!(sim.props.unshared_with(&schema.props), (0, 0));
        assert_eq!(sim.rev.unshared_with(&schema.rev), (0, 0));
        assert_indexes_folded(&sim, 0);

        let p = schema.iter_props().next().unwrap();
        let two_parents: Vec<(TypeId, TypeId)> = schema
            .iter_types()
            .filter_map(|t| {
                let pe = schema.essential_supertypes(t).unwrap();
                (pe.len() == 2).then(|| (t, *pe.iter().next().unwrap()))
            })
            .collect();
        for k in [1usize, 7, 40] {
            // k `N_e` rows written: k type records, nothing else.
            let mut sim = SymbolicState::capture(&schema);
            for i in 0..k {
                let t = TypeId::from_index(1 + 23 * i);
                sim.step(&RecordedOp::AddEssentialProperty { t, p });
            }
            let (leaves, records) = sim.types.unshared_with(&schema.types);
            assert!(leaves <= k && records == k, "{k}: ({leaves}, {records})");
            assert_eq!(sim.props.unshared_with(&schema.props), (0, 0));
            assert_eq!(sim.rev.unshared_with(&schema.rev), (0, 0));

            // k `P_e` rows written: k type records, and at most one
            // subtype-index record per dropped edge.
            let mut sim = SymbolicState::capture(&schema);
            for (i, &(t, s)) in two_parents.iter().take(k).enumerate() {
                sim.step(&RecordedOp::DropEssentialSupertype { t, s });
                assert_indexes_folded(&sim, i + 1);
            }
            let (leaves, records) = sim.types.unshared_with(&schema.types);
            assert!(leaves <= k && records == k, "{k}: ({leaves}, {records})");
            let (leaves, records) = sim.rev.unshared_with(&schema.rev);
            assert!(leaves <= k && records <= k, "{k}: ({leaves}, {records})");
        }
        // The captured schema never saw a write.
        assert_eq!(schema.fingerprint(), thousand().fingerprint());
    }

    /// Read and write key sets for `n` ops. Case 0 draws a few keys per
    /// op; case 1 adds one key every op writes; in case 2 every op reads
    /// keys no op writes and writes only a key of its own, beside every
    /// fifth op's drawn keys; in case 3 every third op has an empty
    /// footprint.
    fn pair_index_case(n: usize, case: u32) -> Vec<(BTreeSet<u32>, BTreeSet<u32>)> {
        let mut x = 0x9e37_79b9_7f4a_7c15 ^ (n as u64) ^ (u64::from(case) << 32);
        let mut draw = |k: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % k
        };
        (0..n)
            .map(|op| {
                let mut reads: BTreeSet<u32> = (0..draw(4)).map(|_| draw(48) as u32).collect();
                let mut writes: BTreeSet<u32> = (0..draw(3)).map(|_| draw(48) as u32).collect();
                match case {
                    1 => {
                        writes.insert(999);
                    }
                    2 => {
                        if op % 5 != 0 {
                            reads.clear();
                            writes.clear();
                        }
                        reads.extend([500, 501]);
                        writes.insert(1000 + op as u32);
                    }
                    3 if op % 3 == 0 => {
                        reads.clear();
                        writes.clear();
                    }
                    _ => {}
                }
                (reads, writes)
            })
            .collect()
    }

    #[test]
    fn pair_index_equals_the_brute_force() {
        for n in [0usize, 1, 63, 64, 65, 130, 200] {
            for case in 0..4 {
                let ops = pair_index_case(n, case);
                let shares = |a: &BTreeSet<u32>, b: &BTreeSet<u32>| !a.is_disjoint(b);
                let want: Vec<(usize, usize)> = (0..n)
                    .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                    .filter(|&(a, b)| {
                        let ((ra, wa), (rb, wb)) = (&ops[a], &ops[b]);
                        shares(wa, wb) || shares(wa, rb) || shares(ra, wb)
                    })
                    .collect();
                let got = interfering_pairs(ops.iter().map(|(r, w)| (r, w)));
                assert_eq!(got, want, "{n} ops, case {case}");
                match case {
                    1 => assert_eq!(got.len(), n * n.saturating_sub(1) / 2),
                    2 => assert!(got.iter().all(|&(a, b)| a % 5 == 0 && b % 5 == 0)),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn stepped_indexes_equal_the_folded_ones() {
        let schema = thousand();
        let p = |i: usize| PropId::from_index(i);
        let t = |i: usize| TypeId::from_index(i);
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: t(5), p: p(0) },
            RecordedOp::AddProperty { name: "q".into() },
            RecordedOp::AddType {
                name: "fresh".into(),
                supers: vec![t(5), t(9)],
                props: vec![p(0), p(3)],
            },
            RecordedOp::DropType { t: t(9) },
            RecordedOp::DropEssentialProperty { t: t(5), p: p(0) },
            RecordedOp::AddEssentialSupertype {
                t: t(1000),
                s: t(12),
            },
            RecordedOp::DropProperty { p: p(3) },
            RecordedOp::DropType { t: t(5) },
            RecordedOp::DropProperty { p: p(0) },
        ];
        // Holders built at capture, then stepped; or built first by the
        // property drop mid-trace.
        for eager in [true, false] {
            let mut sim = SymbolicState::capture(&schema);
            if eager {
                assert_eq!(sim.holders_of(0).count(), 1);
            }
            for (i, op) in ops.iter().enumerate() {
                sim.step(op);
                assert_indexes_folded(&sim, i + 1);
            }
            assert!(
                sim.holders.get().is_some(),
                "a property drop builds the holders"
            );
            // The property drops read the captured holders too.
            assert_eq!(sim.initial_holders_of(3).count(), 1);
        }
    }

    #[test]
    fn union_cycles_are_found_from_the_written_rows_among_dead_slots() {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        // 600 dead slots below and above the live types.
        let dead = |s: &mut Schema, tag: &str| {
            for i in 0..300 {
                let t = s.add_type(format!("{tag}{i}"), [], []).unwrap();
                s.drop_type(t).unwrap();
            }
        };
        dead(&mut s, "early");
        let a = s.add_type("a", [], []).unwrap();
        let b = s.add_type("b", [], []).unwrap();
        let c = s.add_type("c", [a], []).unwrap();
        let d = s.add_type("d", [c], []).unwrap();
        dead(&mut s, "late");
        let acyclic = |ops: &[RecordedOp]| {
            // A trace is equivalent to itself only if it replays.
            assert!(crate::history::traces_equivalent(&s, ops, ops));
            TracePass::run(&s, ops, |_, _, _| {}).union_acyclic
        };
        // `c` leaves `a`, then `a` goes under `d`: the union holds
        // a → d → c → a, through the unwritten row of `d`.
        let cyclic = [
            RecordedOp::DropEssentialSupertype { t: c, s: a },
            RecordedOp::AddEssentialSupertype { t: a, s: d },
        ];
        assert!(!acyclic(&cyclic));
        // `c` leaves `a` for `b`: no row ever points back.
        let moved = [
            RecordedOp::DropEssentialSupertype { t: c, s: a },
            RecordedOp::AddEssentialSupertype { t: c, s: b },
        ];
        assert!(acyclic(&moved));
    }
}
