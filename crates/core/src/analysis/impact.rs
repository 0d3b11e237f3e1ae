//! Instance-impact analysis: classify every op of a recorded trace by its
//! effect on **stored instances**, fold the per-op verdicts into per-type
//! conversion obligations, and synthesize a propagation plan naming the
//! admissible conversion strategies — all statically, from the symbolic
//! shadow of the designer inputs ([`SymbolicState`]). No operation is ever
//! executed, no derivation pass is run, and no object store is ever opened.
//!
//! The classification lattice (ordered; the fold along a trace is `max`):
//!
//! - **preserving** — the type's interface `I(t)` is unchanged; stored
//!   representations stay valid byte-for-byte.
//! - **extending** — new properties enter `I(t)`; old objects remain
//!   readable as-is (a missing slot screens to `Null`), so screening and
//!   lazy upcast are both admissible alongside eager conversion.
//! - **refining** — a property leaves `I(t)` while a *same-named*
//!   replacement enters it: the representation must be re-keyed by a
//!   conversion function (screening cannot carry a value across property
//!   identities), so only eager and lazy conversion remain admissible.
//! - **destructive** — a slot leaves `I(t)` with no replacement, or the
//!   type's whole extent dies with it. The only admissible strategy is a
//!   guarded eager conversion: the trace should pass a snapshot/branch
//!   point first so the lost data stays reachable (lint L10).
//!
//! Affected extents are found through the structural reverse-subtype
//! index: an input edit to type `t` can only change interfaces in the
//! down-set of `t` (`I` is inherited along `H`), walked as dense
//! [`IdxSet`] rows. In pointed configurations `⊥ = T_null` is excluded
//! throughout — its sole instance is the undefined object, so it has no
//! storable extent (and its `P_e` row churns on every type creation).
//!
//! Everything ends in a self-contained [`ImpactCertificate`] plus a
//! [`PropagationPlan`], and — following the repo's certificate discipline
//! ([`super::plan::check`], [`super::merge::check`]) — an independent
//! [`check`] that trusts *nothing* inside the certificate: it re-derives
//! every verdict and obligation from the raw trace and compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bits::IdxSet;
use crate::history::RecordedOp;
use crate::json_escape;
use crate::model::Schema;

use super::footprint::SymbolicState;

/// Severity of a schema change as seen by the stored instances of one
/// type. Ordered: folding a trace takes the per-type maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ImpactLevel {
    /// Interface unchanged — representations stay valid as stored.
    Preserving,
    /// Interface grew — old representations readable via screening.
    Extending,
    /// A slot was re-keyed to a same-named replacement property — a
    /// conversion function must carry the value across.
    Refining,
    /// A slot or the whole extent is lost — must be guarded.
    Destructive,
}

impl ImpactLevel {
    /// Stable lower-case tag for rendering and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            ImpactLevel::Preserving => "preserving",
            ImpactLevel::Extending => "extending",
            ImpactLevel::Refining => "refining",
            ImpactLevel::Destructive => "destructive",
        }
    }
}

/// The slot-level interface delta one op inflicts on one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeImpact {
    /// Type arena index of the affected type.
    pub type_index: usize,
    /// Verdict for this type at this op.
    pub level: ImpactLevel,
    /// Properties newly entering the interface (arena indexes).
    pub added: Vec<usize>,
    /// `(old, new)` pairs: a departing slot whose value a conversion
    /// function can carry into a same-named replacement property.
    pub rekeyed: Vec<(usize, usize)>,
    /// Properties leaving the interface with no replacement.
    pub lost: Vec<usize>,
    /// Did the type itself die here (whole extent lost)?
    pub extent_lost: bool,
}

/// Verdict for one trace position: the join over its per-type deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpImpact {
    /// Maximum level over [`OpImpact::deltas`] (`Preserving` when empty).
    pub level: ImpactLevel,
    /// Types with a non-preserving delta at this op (arena indexes).
    pub affected: IdxSet,
    /// The non-preserving per-type deltas, ascending by type index.
    pub deltas: Vec<TypeImpact>,
}

/// Which conversion strategies remain admissible for one obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategies {
    /// Leave stored representations untouched; reads screen missing
    /// slots to `Null`. Admissible only while no slot is re-keyed or lost.
    pub screening: bool,
    /// Convert every stored instance at evolution time.
    pub eager: bool,
    /// Convert each instance on first touch. Inadmissible once data is
    /// destroyed (the loss must be confronted at a guarded point, not
    /// deferred to an arbitrary later read).
    pub lazy: bool,
}

impl Strategies {
    /// The admissible set for a fold level.
    pub fn for_level(level: ImpactLevel) -> Strategies {
        match level {
            ImpactLevel::Preserving | ImpactLevel::Extending => Strategies {
                screening: true,
                eager: true,
                lazy: true,
            },
            ImpactLevel::Refining => Strategies {
                screening: false,
                eager: true,
                lazy: true,
            },
            ImpactLevel::Destructive => Strategies {
                screening: false,
                eager: true,
                lazy: false,
            },
        }
    }

    /// Render as a stable list, e.g. `screening, eager, lazy`.
    pub fn list(&self) -> String {
        let mut parts = Vec::new();
        if self.screening {
            parts.push("screening");
        }
        if self.eager {
            parts.push("eager");
        }
        if self.lazy {
            parts.push("lazy");
        }
        parts.join(", ")
    }
}

/// The whole-trace obligation one affected type carries: the *net* slot
/// delta between the interface its instances were born under and the
/// final interface, classified as the one-shot conversion an executor
/// must perform — plus the sequential join of the per-op verdicts.
///
/// The two levels answer different questions. [`Self::level`] classifies
/// the net birth→final conversion (what a [`PropagationPlan`] executor
/// working from the pre-trace representation must do); [`Self::trace_level`]
/// is the join of the per-op verdicts (what applying the ops one at a
/// time with naive per-op conversion would inflict). `trace_level ≥
/// level` always: a property dropped and later re-added nets out to a
/// re-key (`level = Refining`), but the sequential story really does
/// destroy the value in between (`trace_level = Destructive`) — lint
/// L11 flags exactly that gap as a rewrite opportunity, and lint L10
/// guards the destructive op itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversionObligation {
    /// Type arena index.
    pub type_index: usize,
    /// Level of the net birth→final conversion (drives strategies and
    /// the guard).
    pub level: ImpactLevel,
    /// Join of the per-op levels for this type (sequential severity;
    /// always ≥ [`Self::level`]).
    pub trace_level: ImpactLevel,
    /// Trace position (0-based) of the first op that raised the type to
    /// [`Self::trace_level`].
    pub first_op: usize,
    /// Net new slots (final interface minus birth interface).
    pub added: Vec<usize>,
    /// Net `(old, new)` re-keys matched by final-state property name.
    pub rekeyed: Vec<(usize, usize)>,
    /// Net lost slots with no same-named replacement.
    pub lost: Vec<usize>,
    /// Did the type die during the trace?
    pub extent_lost: bool,
    /// Admissible strategies for [`ConversionObligation::level`].
    pub strategies: Strategies,
    /// Destructive obligations must be guarded by a snapshot/branch
    /// point before the destructive op runs.
    pub guard_required: bool,
}

/// Self-contained result of one impact analysis, bound to the initial
/// schema by fingerprint. [`check`] trusts none of these fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpactCertificate {
    /// Fingerprint of the schema the trace was analysed against.
    pub initial_fingerprint: u64,
    /// Number of ops analysed.
    pub op_count: usize,
    /// Per-op kind names.
    pub kinds: Vec<&'static str>,
    /// Per-op verdicts, trace order.
    pub ops: Vec<OpImpact>,
    /// Per-type obligations, ascending by type index.
    pub obligations: Vec<ConversionObligation>,
    /// Final-state type arena labels for rendering.
    pub type_labels: Vec<String>,
    /// Final-state property arena labels for rendering.
    pub prop_labels: Vec<String>,
}

impl ImpactCertificate {
    /// Per-level op counts, indexed `[preserving, extending, refining,
    /// destructive]`.
    pub fn level_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for op in &self.ops {
            counts[op.level as usize] += 1;
        }
        counts
    }

    /// Obligations that require a guard (destructive fold level).
    pub fn guarded_obligations(&self) -> usize {
        self.obligations.iter().filter(|o| o.guard_required).count()
    }
}

/// One concrete conversion strategy a plan recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Keep stored bytes; screen missing slots on read.
    Screening,
    /// Convert all instances at evolution time.
    Eager,
    /// Convert on first touch.
    Lazy,
}

impl Strategy {
    /// Stable lower-case tag.
    pub fn tag(self) -> &'static str {
        match self {
            Strategy::Screening => "screening",
            Strategy::Eager => "eager",
            Strategy::Lazy => "lazy",
        }
    }
}

/// The conversion work one affected type needs: recommended strategy plus
/// the minimal slot-level delta an executor must apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Type arena index.
    pub type_index: usize,
    /// Recommended strategy (cheapest admissible: screening for
    /// extending, lazy for refining, guarded eager for destructive).
    pub strategy: Strategy,
    /// Must a snapshot/branch guard precede execution?
    pub guarded: bool,
    /// Slots to create (reading `Null` until written).
    pub add_slots: Vec<usize>,
    /// Slot values to carry across a property re-key.
    pub rekey_slots: Vec<(usize, usize)>,
    /// Slots whose values are dropped.
    pub drop_slots: Vec<usize>,
    /// Is the whole extent dropped?
    pub drop_extent: bool,
}

/// The per-type conversion schedule synthesized from the obligations —
/// the input an eager/lazy conversion executor consumes unchanged.
/// Preserving types carry no step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PropagationPlan {
    /// Steps ascending by type index.
    pub steps: Vec<PlanStep>,
}

impl PropagationPlan {
    /// Deterministically derive the plan from obligations: every
    /// non-preserving obligation becomes one step carrying its net slot
    /// delta and the cheapest admissible strategy.
    pub fn from_obligations(obligations: &[ConversionObligation]) -> PropagationPlan {
        let steps = obligations
            .iter()
            .filter(|o| o.level > ImpactLevel::Preserving)
            .map(|o| PlanStep {
                type_index: o.type_index,
                strategy: match o.level {
                    ImpactLevel::Preserving | ImpactLevel::Extending => Strategy::Screening,
                    ImpactLevel::Refining => Strategy::Lazy,
                    ImpactLevel::Destructive => Strategy::Eager,
                },
                guarded: o.guard_required,
                add_slots: o.added.clone(),
                rekey_slots: o.rekeyed.clone(),
                drop_slots: o.lost.clone(),
                drop_extent: o.extent_lost,
            })
            .collect();
        PropagationPlan { steps }
    }
}

/// Certificate plus plan: everything `analyze` produces.
#[derive(Debug, Clone)]
pub struct ImpactAnalysis {
    /// The per-op/per-type verdicts, checkable by [`check`].
    pub certificate: ImpactCertificate,
    /// The conversion schedule derived from the obligations.
    pub plan: PropagationPlan,
}

/// Summary counts an accepted certificate re-derivation returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImpactCheck {
    /// Ops re-classified.
    pub ops: usize,
    /// Obligations re-derived.
    pub obligations: usize,
    /// Obligations requiring a guard.
    pub guarded: usize,
}

/// Shared derivation core: both [`analyze`] and [`check`] run exactly
/// this (the checker on its own symbolic shadow, trusting nothing).
struct Derived {
    ops: Vec<OpImpact>,
    obligations: Vec<ConversionObligation>,
    type_labels: Vec<String>,
    prop_labels: Vec<String>,
}

/// Dense interface rows `I(t) = ⋃ { N_e(u) : u ∈ PL(t) }` for every live
/// non-base type, maintained *incrementally* while the shadow steps.
/// Interface growth (new essentials, new supertype edges) flows down the
/// reverse-subtype index as word-parallel row unions; interface shrinkage
/// re-folds exactly the candidate rows, children after parents. The
/// analyzer therefore prices each op by the rows it touches, like the
/// `core::bits` kernel, instead of re-walking the `P_e` up-set of every
/// candidate — the difference between microseconds and milliseconds per
/// destructive op on a thousand-type lattice.
struct IfaceRows {
    /// `rows[t]` = property arena indexes in `I(t)`; empty for dead
    /// types and for ⊥ (whose row is never read — nothing sits below it
    /// and it holds no storable extent).
    rows: Vec<IdxSet>,
    /// Scratch in-degree buffer for the topological re-fold.
    indeg: Vec<u32>,
}

impl IfaceRows {
    /// Fold the captured shadow once, top-down over the whole lattice.
    fn capture(sim: &SymbolicState) -> IfaceRows {
        let mut iface = IfaceRows {
            rows: vec![IdxSet::new(); sim.types.len()],
            indeg: Vec::new(),
        };
        let all: IdxSet = (0..sim.types.len())
            .filter(|&t| sim.types[t].live && Some(t) != sim.base)
            .collect();
        iface.refold(sim, &all);
        iface
    }

    /// Append rows for types the shadow minted since the last step:
    /// a newborn's interface is its `N_e` plus its parents' rows.
    fn grow(&mut self, sim: &SymbolicState) {
        while self.rows.len() < sim.types.len() {
            let t = self.rows.len();
            let mut row = IdxSet::new();
            if sim.types[t].live && Some(t) != sim.base {
                row.extend(sim.types[t].ne.iter().copied());
                for &s in &sim.types[t].pe {
                    if let Some(parent) = self.rows.get(s) {
                        row.union_with(parent);
                    }
                }
            }
            self.rows.push(row);
        }
    }

    /// Change-propagation for interface shrinkage: re-fold the directly
    /// edited rows and walk the change down the reverse index, visiting a
    /// child only when a parent's row *actually* changed. Returns each
    /// touched type's pre-op row (dead types always included, so extent
    /// loss is never silent). On a DAG this chaotic iteration reaches the
    /// same fixpoint as a full topological re-fold, at the cost of the
    /// changed frontier — typically a handful of rows — instead of the
    /// whole down-set.
    fn propagate_removal(
        &mut self,
        sim: &SymbolicState,
        direct: &[usize],
    ) -> BTreeMap<usize, IdxSet> {
        let mut changed = BTreeMap::new();
        let mut queue: Vec<usize> = direct.to_vec();
        while let Some(u) = queue.pop() {
            if Some(u) == sim.base {
                continue;
            }
            let slot = &sim.types[u];
            if !slot.live {
                let old = std::mem::take(&mut self.rows[u]);
                changed.entry(u).or_insert(old);
                continue;
            }
            let mut row: IdxSet = slot.ne.iter().copied().collect();
            for &s in &slot.pe {
                if sim.types[s].live {
                    row.union_with(&self.rows[s]);
                }
            }
            if row == self.rows[u] {
                continue;
            }
            for c in sim.rev[u].iter() {
                queue.push(c);
            }
            let old = std::mem::replace(&mut self.rows[u], row);
            changed.entry(u).or_insert(old);
        }
        changed
    }

    /// Re-derive the rows in `cands` from the current shadow, children
    /// after parents (Kahn over the candidate-internal `P_e` edges;
    /// parents outside `cands` kept their rows, so reading them is
    /// sound). Dead and ⊥ rows are cleared. Used for the one-time
    /// whole-lattice fold at capture.
    fn refold(&mut self, sim: &SymbolicState, cands: &IdxSet) {
        self.indeg.clear();
        self.indeg.resize(sim.types.len(), 0);
        let mut ready = Vec::new();
        for t in cands.iter() {
            if !sim.types[t].live || Some(t) == sim.base {
                self.rows[t] = IdxSet::new();
                continue;
            }
            let d = sim.types[t]
                .pe
                .iter()
                .filter(|&&s| cands.contains(s) && sim.types[s].live)
                .count() as u32;
            self.indeg[t] = d;
            if d == 0 {
                ready.push(t);
            }
        }
        while let Some(t) = ready.pop() {
            let mut row: IdxSet = sim.types[t].ne.iter().copied().collect();
            for &s in &sim.types[t].pe {
                if sim.types[s].live {
                    row.union_with(&self.rows[s]);
                }
            }
            self.rows[t] = row;
            for c in sim.rev[t].iter() {
                if cands.contains(c) && sim.types[c].live && Some(c) != sim.base {
                    self.indeg[c] -= 1;
                    if self.indeg[c] == 0 {
                        ready.push(c);
                    }
                }
            }
        }
    }
}

/// Types whose interface this op *could* change, read off the pre-state:
/// the down-set of the edited rows (interfaces are inherited along `H`,
/// so an input edit at `t` reaches exactly `↓t`), walked over the
/// structural reverse-subtype index. Ops that only allocate, rename, or
/// freeze touch no existing interface. A dropped property's seeds are
/// its live holders ([`SymbolicState::holders`]).
fn interface_candidates(sim: &SymbolicState, op: &RecordedOp) -> IdxSet {
    let mut seeds = IdxSet::new();
    match op {
        RecordedOp::DropProperty { p } => {
            if let Some(h) = sim.holders.get(p.index()) {
                seeds = h.clone();
            }
        }
        RecordedOp::AddEssentialSupertype { t, .. }
        | RecordedOp::AddEssentialProperty { t, .. } => {
            seeds.insert(t.index());
        }
        // Shrinking ops don't walk the down-set up front: their deltas
        // come out of [`IfaceRows::propagate_removal`], which visits only
        // the rows that actually change.
        RecordedOp::DropType { .. }
        | RecordedOp::DropEssentialSupertype { .. }
        | RecordedOp::DropEssentialProperty { .. }
        | RecordedOp::AddProperty { .. }
        | RecordedOp::RenameProperty { .. }
        | RecordedOp::AddRootType { .. }
        | RecordedOp::AddBaseType { .. }
        | RecordedOp::AddType { .. }
        | RecordedOp::RenameType { .. }
        | RecordedOp::FreezeType { .. } => {}
    }
    let mut work: Vec<usize> = seeds.iter().collect();
    while let Some(t) = work.pop() {
        for c in sim.rev.get(t).into_iter().flat_map(IdxSet::iter) {
            if seeds.insert(c) {
                work.push(c);
            }
        }
    }
    seeds
}

/// Match departing slots against arriving ones by (post-state) property
/// name, FIFO over ascending indexes: each match is a re-key a conversion
/// function can honour; leftovers on the departing side are real losses.
/// `arriving` and `departing` must be ascending (a raw interface diff).
fn split_delta(
    sim: &SymbolicState,
    arriving: &[usize],
    departing: &[usize],
) -> (Vec<usize>, Vec<(usize, usize)>, Vec<usize>) {
    let mut arrivals: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &q in arriving {
        if let Some(prop) = sim.props.get(q) {
            arrivals.entry(prop.name.as_str()).or_default().push(q);
        }
    }
    let mut rekeyed = Vec::new();
    let mut lost = Vec::new();
    for &p in departing {
        let name = sim.props.get(p).map_or("", |prop| prop.name.as_str());
        match arrivals.get_mut(name) {
            Some(queue) if !queue.is_empty() => rekeyed.push((p, queue.remove(0))),
            _ => lost.push(p),
        }
    }
    let added: Vec<usize> = arrivals.into_values().flatten().collect();
    (added, rekeyed, lost)
}

fn classify(added: &[usize], rekeyed: &[(usize, usize)], lost: &[usize]) -> ImpactLevel {
    if !lost.is_empty() {
        ImpactLevel::Destructive
    } else if !rekeyed.is_empty() {
        ImpactLevel::Refining
    } else if !added.is_empty() {
        ImpactLevel::Extending
    } else {
        ImpactLevel::Preserving
    }
}

/// Walk the trace once over a symbolic shadow, classifying each op
/// against the candidate types' pre/post interfaces and folding the
/// per-type obligation state.
fn derive(initial: &Schema, ops: &[RecordedOp]) -> Derived {
    let mut sim = SymbolicState::capture(initial);
    let mut iface = IfaceRows::capture(&sim);
    // Interface each type's instances are born under: capture-time for
    // initial types, post-creation for trace-minted ones. `None` for the
    // base (⊥ has no storable extent) and for dead slots.
    let mut born: Vec<Option<IdxSet>> = (0..sim.types.len())
        .map(|t| (sim.types[t].live && Some(t) != sim.base).then(|| iface.rows[t].clone()))
        .collect();
    // Per-type fold: (level, first op reaching it, extent lost).
    let mut fold: Vec<Option<(ImpactLevel, usize, bool)>> = vec![None; sim.types.len()];

    let mut op_impacts = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let candidates: Vec<usize> = interface_candidates(&sim, op)
            .iter()
            .filter(|&t| sim.types[t].live && Some(t) != sim.base)
            .collect();
        // Rows a shrinking op edits directly: the target, plus — for a
        // type drop — its current subtypes, whose `P_e` rows the drop
        // rewrites (read before the step; the edges are gone after).
        let direct: Vec<usize> = match op {
            RecordedOp::DropType { t } => {
                let ti = t.index();
                let mut d: Vec<usize> = sim.rev[ti].iter().collect();
                d.push(ti);
                d
            }
            RecordedOp::DropEssentialSupertype { t, .. }
            | RecordedOp::DropEssentialProperty { t, .. } => vec![t.index()],
            _ => Vec::new(),
        };

        sim.step(op);

        // A type-creating op grew the arena: extend the side tables and
        // record the newborn's birth interface (base excluded).
        iface.grow(&sim);
        while born.len() < sim.types.len() {
            let t = born.len();
            born.push((sim.types[t].live && Some(t) != sim.base).then(|| iface.rows[t].clone()));
            fold.push(None);
        }

        let mut affected = IdxSet::new();
        let mut deltas: Vec<TypeImpact> = Vec::new();
        let mut record = |delta: TypeImpact| {
            let t = delta.type_index;
            affected.insert(t);
            match &mut fold[t] {
                Some((level, first, extent)) => {
                    if delta.level > *level {
                        *level = delta.level;
                        *first = i;
                    }
                    *extent |= delta.extent_lost;
                }
                slot => *slot = Some((delta.level, i, delta.extent_lost)),
            }
            deltas.push(delta);
        };
        match op {
            // A dropped property leaves every covering interface with no
            // replacement; the rows just lose one bit.
            RecordedOp::DropProperty { p } => {
                let pi = p.index();
                for &t in &candidates {
                    if iface.rows[t].remove(pi) {
                        record(TypeImpact {
                            type_index: t,
                            level: ImpactLevel::Destructive,
                            added: Vec::new(),
                            rekeyed: Vec::new(),
                            lost: vec![pi],
                            extent_lost: false,
                        });
                    }
                }
            }
            // Interface growth: flows down `↓t` as one bit (new
            // essential) or one row union (new supertype edge, which
            // contributes exactly `I(s)`).
            RecordedOp::AddEssentialProperty { p, .. } => {
                let pi = p.index();
                for &t in &candidates {
                    if iface.rows[t].insert(pi) {
                        record(TypeImpact {
                            type_index: t,
                            level: ImpactLevel::Extending,
                            added: vec![pi],
                            rekeyed: Vec::new(),
                            lost: Vec::new(),
                            extent_lost: false,
                        });
                    }
                }
            }
            RecordedOp::AddEssentialSupertype { s, .. } => {
                let reach = iface.rows[s.index()].clone();
                for &t in &candidates {
                    let mut arriving_set = reach.clone();
                    arriving_set.subtract(&iface.rows[t]);
                    if arriving_set.is_empty() {
                        continue;
                    }
                    iface.rows[t].union_with(&reach);
                    record(TypeImpact {
                        type_index: t,
                        level: ImpactLevel::Extending,
                        added: arriving_set.iter().collect(),
                        rekeyed: Vec::new(),
                        lost: Vec::new(),
                        extent_lost: false,
                    });
                }
            }
            // Interface shrinkage (an edge or essential went away, maybe
            // with the type itself): propagate the change from the
            // directly edited rows and diff each touched row against its
            // returned pre-op value.
            RecordedOp::DropType { .. }
            | RecordedOp::DropEssentialSupertype { .. }
            | RecordedOp::DropEssentialProperty { .. } => {
                let changed = iface.propagate_removal(&sim, &direct);
                for (&t, pre_row) in &changed {
                    if !sim.types[t].live {
                        record(TypeImpact {
                            type_index: t,
                            level: ImpactLevel::Destructive,
                            added: Vec::new(),
                            rekeyed: Vec::new(),
                            lost: Vec::new(),
                            extent_lost: true,
                        });
                        continue;
                    }
                    let post_row = &iface.rows[t];
                    let mut arr = post_row.clone();
                    arr.subtract(pre_row);
                    let mut dep = pre_row.clone();
                    dep.subtract(post_row);
                    if arr.is_empty() && dep.is_empty() {
                        continue;
                    }
                    let arriving: Vec<usize> = arr.iter().collect();
                    let departing: Vec<usize> = dep.iter().collect();
                    let (added, rekeyed, lost) = split_delta(&sim, &arriving, &departing);
                    let level = classify(&added, &rekeyed, &lost);
                    if level == ImpactLevel::Preserving {
                        continue;
                    }
                    record(TypeImpact {
                        type_index: t,
                        level,
                        added,
                        rekeyed,
                        lost,
                        extent_lost: false,
                    });
                }
            }
            // Allocation, rename, and freeze ops seed no candidates.
            _ => {}
        }
        let level = deltas
            .iter()
            .map(|d| d.level)
            .max()
            .unwrap_or(ImpactLevel::Preserving);
        op_impacts.push(OpImpact {
            level,
            affected,
            deltas,
        });
    }

    // Fold the per-type state into obligations: the *net* slot delta
    // (birth interface vs final interface, names resolved in the final
    // state) classifies the one-shot conversion, while the trace join
    // records sequential severity — see the [`ConversionObligation`] doc.
    let mut obligations = Vec::new();
    for (t, state) in fold.iter().enumerate() {
        let Some((trace_level, first_op, extent_lost)) = *state else {
            continue;
        };
        let (added, rekeyed, lost) = if extent_lost {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            let birth = born[t].clone().unwrap_or_default();
            let fin = &iface.rows[t];
            let arriving: Vec<usize> = fin.iter().filter(|&q| !birth.contains(q)).collect();
            let departing: Vec<usize> = birth.iter().filter(|&q| !fin.contains(q)).collect();
            split_delta(&sim, &arriving, &departing)
        };
        let level = if extent_lost {
            ImpactLevel::Destructive
        } else {
            classify(&added, &rekeyed, &lost)
        };
        obligations.push(ConversionObligation {
            type_index: t,
            level,
            trace_level,
            first_op,
            added,
            rekeyed,
            lost,
            extent_lost,
            strategies: Strategies::for_level(level),
            guard_required: level == ImpactLevel::Destructive,
        });
    }

    Derived {
        ops: op_impacts,
        obligations,
        type_labels: sim.types.iter().map(|t| t.name.clone()).collect(),
        prop_labels: sim.props.iter().map(|p| p.name.clone()).collect(),
    }
}

/// Statically classify `ops` as a trace evolving `initial` and derive
/// the per-type conversion obligations and propagation plan. Never
/// executes an operation and never touches stored objects.
pub fn analyze(initial: &Schema, ops: &[RecordedOp]) -> ImpactAnalysis {
    let derived = derive(initial, ops);
    let certificate = ImpactCertificate {
        initial_fingerprint: initial.fingerprint(),
        op_count: ops.len(),
        kinds: ops.iter().map(RecordedOp::kind_name).collect(),
        ops: derived.ops,
        obligations: derived.obligations,
        type_labels: derived.type_labels,
        prop_labels: derived.prop_labels,
    };
    let plan = PropagationPlan::from_obligations(&certificate.obligations);
    ImpactAnalysis { certificate, plan }
}

/// Independently re-verify an [`ImpactCertificate`] against the raw
/// trace. Trusts nothing inside the certificate: every verdict, delta,
/// and obligation is re-derived from `initial` and `ops` on a fresh
/// symbolic shadow and compared field-for-field. Any mismatch refuses
/// the certificate with the first violation found.
pub fn check(
    initial: &Schema,
    ops: &[RecordedOp],
    cert: &ImpactCertificate,
) -> Result<ImpactCheck, String> {
    if cert.op_count != ops.len() {
        return Err(format!(
            "certificate covers {} op(s), trace has {}",
            cert.op_count,
            ops.len()
        ));
    }
    let got_fp = initial.fingerprint();
    if cert.initial_fingerprint != got_fp {
        return Err(format!(
            "certificate bound to initial fingerprint {:#018x}, schema has {:#018x}",
            cert.initial_fingerprint, got_fp
        ));
    }
    if cert.kinds.len() != ops.len() || cert.ops.len() != ops.len() {
        return Err(format!(
            "certificate records {} kind(s) and {} verdict(s) for {} op(s)",
            cert.kinds.len(),
            cert.ops.len(),
            ops.len()
        ));
    }
    for (i, op) in ops.iter().enumerate() {
        if cert.kinds[i] != op.kind_name() {
            return Err(format!(
                "op {} is {} but the certificate says {}",
                i + 1,
                op.kind_name(),
                cert.kinds[i]
            ));
        }
    }

    let derived = derive(initial, ops);
    for (i, (got, want)) in cert.ops.iter().zip(&derived.ops).enumerate() {
        if got.level != want.level {
            return Err(format!(
                "op {} re-derives as {} but the certificate claims {}",
                i + 1,
                want.level.tag(),
                got.level.tag()
            ));
        }
        if got.affected != want.affected {
            return Err(format!(
                "op {} affected set diverges from the re-derivation ({} vs {} type(s))",
                i + 1,
                got.affected.len(),
                want.affected.len()
            ));
        }
        if got.deltas != want.deltas {
            return Err(format!(
                "op {} per-type deltas diverge from the re-derivation",
                i + 1
            ));
        }
    }
    if cert.obligations.len() != derived.obligations.len() {
        return Err(format!(
            "certificate carries {} obligation(s), re-derivation finds {}",
            cert.obligations.len(),
            derived.obligations.len()
        ));
    }
    for (got, want) in cert.obligations.iter().zip(&derived.obligations) {
        if got != want {
            return Err(format!(
                "obligation for type index {} diverges from the re-derivation \
                 (claimed {}, re-derived {})",
                got.type_index,
                got.level.tag(),
                want.level.tag()
            ));
        }
    }
    if cert.type_labels != derived.type_labels || cert.prop_labels != derived.prop_labels {
        return Err("certificate labels diverge from the final symbolic state".to_owned());
    }

    Ok(ImpactCheck {
        ops: ops.len(),
        obligations: derived.obligations.len(),
        guarded: derived
            .obligations
            .iter()
            .filter(|o| o.guard_required)
            .count(),
    })
}

fn label(labels: &[String], i: usize) -> String {
    labels.get(i).cloned().unwrap_or_else(|| format!("#{i}"))
}

fn delta_text(
    prop_labels: &[String],
    added: &[usize],
    rekeyed: &[(usize, usize)],
    lost: &[usize],
    extent_lost: bool,
) -> String {
    let mut parts = Vec::new();
    if extent_lost {
        parts.push("extent lost".to_owned());
    }
    if !lost.is_empty() {
        let names: Vec<String> = lost.iter().map(|&p| label(prop_labels, p)).collect();
        parts.push(format!("lost {{{}}}", names.join(", ")));
    }
    if !rekeyed.is_empty() {
        let names: Vec<String> = rekeyed
            .iter()
            .map(|&(p, q)| format!("{}#{p}→#{q}", label(prop_labels, p)))
            .collect();
        parts.push(format!("rekey {{{}}}", names.join(", ")));
    }
    if !added.is_empty() {
        let names: Vec<String> = added.iter().map(|&p| label(prop_labels, p)).collect();
        parts.push(format!("add {{{}}}", names.join(", ")));
    }
    parts.join("; ")
}

impl ImpactAnalysis {
    /// Human-readable report: per-op verdicts, obligations, and plan.
    pub fn to_text(&self) -> String {
        let cert = &self.certificate;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "impact: {} op(s), {} affected type(s)",
            cert.op_count,
            cert.obligations.len()
        );
        for (i, op) in cert.ops.iter().enumerate() {
            let mut line = format!(
                "  op {:>3} {:<28} {:<11}",
                i + 1,
                cert.kinds[i],
                op.level.tag()
            );
            if !op.affected.is_empty() {
                let names: Vec<String> = op
                    .affected
                    .iter()
                    .map(|t| label(&cert.type_labels, t))
                    .collect();
                let _ = write!(line, " affected {{{}}}", names.join(", "));
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        let _ = writeln!(out, "obligations: {}", cert.obligations.len());
        for o in &cert.obligations {
            let delta = delta_text(
                &cert.prop_labels,
                &o.added,
                &o.rekeyed,
                &o.lost,
                o.extent_lost,
            );
            let mut line = format!(
                "  {}: {} (first at op {})",
                label(&cert.type_labels, o.type_index),
                o.level.tag(),
                o.first_op + 1
            );
            if o.trace_level > o.level {
                let _ = write!(line, " [sequentially {}]", o.trace_level.tag());
            }
            if !delta.is_empty() {
                let _ = write!(line, " — {delta}");
            }
            let _ = write!(line, "; strategies {{{}}}", o.strategies.list());
            if o.guard_required {
                let _ = write!(line, "; GUARD REQUIRED");
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "plan: {} step(s)", self.plan.steps.len());
        for s in &self.plan.steps {
            let delta = delta_text(
                &cert.prop_labels,
                &s.add_slots,
                &s.rekey_slots,
                &s.drop_slots,
                s.drop_extent,
            );
            let mut line = format!(
                "  {}: {}",
                label(&cert.type_labels, s.type_index),
                s.strategy.tag()
            );
            if s.guarded {
                let _ = write!(line, ", guarded");
            }
            if !delta.is_empty() {
                let _ = write!(line, " — {delta}");
            }
            let _ = writeln!(out, "{line}");
        }
        let [p, e, r, d] = cert.level_counts();
        let _ = writeln!(
            out,
            "summary: {p} preserving, {e} extending, {r} refining, {d} destructive"
        );
        out
    }

    /// JSON report (one object; the CLI embeds it under `"impact"`).
    pub fn to_json(&self) -> String {
        let cert = &self.certificate;
        let prop_list = |props: &[usize]| {
            props
                .iter()
                .map(|&p| format!("\"{}\"", json_escape(&label(&cert.prop_labels, p))))
                .collect::<Vec<_>>()
                .join(",")
        };
        let rekey_list = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(p, q)| {
                    format!(
                        "{{\"from\":{p},\"to\":{q},\"name\":\"{}\"}}",
                        json_escape(&label(&cert.prop_labels, q))
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let ops: Vec<String> = cert
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let affected: Vec<String> = op
                    .affected
                    .iter()
                    .map(|t| format!("\"{}\"", json_escape(&label(&cert.type_labels, t))))
                    .collect();
                format!(
                    "{{\"index\":{},\"kind\":\"{}\",\"level\":\"{}\",\"affected\":[{}]}}",
                    i + 1,
                    cert.kinds[i],
                    op.level.tag(),
                    affected.join(",")
                )
            })
            .collect();
        let obligations: Vec<String> = cert
            .obligations
            .iter()
            .map(|o| {
                let strategies: Vec<String> = o
                    .strategies
                    .list()
                    .split(", ")
                    .filter(|s| !s.is_empty())
                    .map(|s| format!("\"{s}\""))
                    .collect();
                format!(
                    "{{\"type\":\"{}\",\"type_index\":{},\"level\":\"{}\",\
                     \"trace_level\":\"{}\",\"first_op\":{},\
                     \"added\":[{}],\"rekeyed\":[{}],\"lost\":[{}],\"extent_lost\":{},\
                     \"strategies\":[{}],\"guard_required\":{}}}",
                    json_escape(&label(&cert.type_labels, o.type_index)),
                    o.type_index,
                    o.level.tag(),
                    o.trace_level.tag(),
                    o.first_op + 1,
                    prop_list(&o.added),
                    rekey_list(&o.rekeyed),
                    prop_list(&o.lost),
                    o.extent_lost,
                    strategies.join(","),
                    o.guard_required
                )
            })
            .collect();
        let steps: Vec<String> = self
            .plan
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{{\"type\":\"{}\",\"strategy\":\"{}\",\"guarded\":{},\"add\":[{}],\
                     \"rekey\":[{}],\"drop\":[{}],\"drop_extent\":{}}}",
                    json_escape(&label(&cert.type_labels, s.type_index)),
                    s.strategy.tag(),
                    s.guarded,
                    prop_list(&s.add_slots),
                    rekey_list(&s.rekey_slots),
                    prop_list(&s.drop_slots),
                    s.drop_extent
                )
            })
            .collect();
        let [p, e, r, d] = cert.level_counts();
        format!(
            "{{\"ops\":[{}],\"obligations\":[{}],\"plan\":[{}],\
             \"summary\":{{\"preserving\":{p},\"extending\":{e},\"refining\":{r},\
             \"destructive\":{d},\"guarded\":{}}}}}",
            ops.join(","),
            obligations.join(","),
            steps.join(","),
            cert.guarded_obligations()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::ids::PropId;

    fn base() -> Schema {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        s
    }

    #[test]
    fn preserving_ops_carry_no_obligation() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let ops = vec![
            RecordedOp::RenameType {
                t: a,
                name: "a2".into(),
            },
            RecordedOp::FreezeType { t: a },
            RecordedOp::AddProperty { name: "x".into() },
        ];
        let ia = analyze(&s, &ops);
        assert!(ia
            .certificate
            .ops
            .iter()
            .all(|o| o.level == ImpactLevel::Preserving));
        assert!(ia.certificate.obligations.is_empty());
        assert!(ia.plan.steps.is_empty());
        check(&s, &ops, &ia.certificate).expect("clean certificate accepted");
    }

    #[test]
    fn add_essential_property_extends_the_down_set() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let student = s.add_type("student", [person], []).unwrap();
        let age = s.add_property("age");
        let ops = vec![RecordedOp::AddEssentialProperty { t: person, p: age }];
        let ia = analyze(&s, &ops);
        assert_eq!(ia.certificate.ops[0].level, ImpactLevel::Extending);
        assert!(ia.certificate.ops[0].affected.contains(person.index()));
        assert!(ia.certificate.ops[0].affected.contains(student.index()));
        assert_eq!(ia.certificate.obligations.len(), 2);
        for o in &ia.certificate.obligations {
            assert_eq!(o.level, ImpactLevel::Extending);
            assert_eq!(o.added, vec![age.index()]);
            assert!(o.strategies.screening && o.strategies.eager && o.strategies.lazy);
            assert!(!o.guard_required);
        }
        assert_eq!(ia.plan.steps.len(), 2);
        assert_eq!(ia.plan.steps[0].strategy, Strategy::Screening);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn drop_property_is_destructive_for_every_holder_subtype() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let student = s.add_type("student", [person], []).unwrap();
        let ops = vec![RecordedOp::DropProperty { p: name }];
        let ia = analyze(&s, &ops);
        assert_eq!(ia.certificate.ops[0].level, ImpactLevel::Destructive);
        assert!(ia.certificate.ops[0].affected.contains(student.index()));
        for o in &ia.certificate.obligations {
            assert_eq!(o.level, ImpactLevel::Destructive);
            assert_eq!(o.lost, vec![name.index()]);
            assert!(o.guard_required);
            assert!(!o.strategies.screening && o.strategies.eager && !o.strategies.lazy);
        }
        assert_eq!(ia.plan.steps[0].strategy, Strategy::Eager);
        assert!(ia.plan.steps[0].guarded);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn drop_type_loses_the_extent() {
        let mut s = base();
        let a = s.add_type("a", [], []).unwrap();
        let ops = vec![RecordedOp::DropType { t: a }];
        let ia = analyze(&s, &ops);
        let o = &ia.certificate.obligations[0];
        assert_eq!(o.type_index, a.index());
        assert!(o.extent_lost);
        assert_eq!(o.level, ImpactLevel::Destructive);
        assert!(ia.plan.steps[0].drop_extent);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn drop_then_readd_rekeys_but_stays_destructive() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let x = s.define_property_on(person, "x").unwrap();
        let minted = PropId::from_index(s.prop_count());
        let ops = vec![
            RecordedOp::DropProperty { p: x },
            RecordedOp::AddProperty { name: "x".into() },
            RecordedOp::AddEssentialProperty {
                t: person,
                p: minted,
            },
        ];
        let ia = analyze(&s, &ops);
        assert_eq!(ia.certificate.ops[0].level, ImpactLevel::Destructive);
        assert_eq!(ia.certificate.ops[2].level, ImpactLevel::Extending);
        let o = &ia.certificate.obligations[0];
        // The net birth→final conversion is a re-key (refining), but the
        // sequential join records that applying the ops one at a time
        // destroys the stored value between the drop and the re-add.
        assert_eq!(o.rekeyed, vec![(x.index(), minted.index())]);
        assert!(o.lost.is_empty() && o.added.is_empty());
        assert_eq!(o.level, ImpactLevel::Refining);
        assert_eq!(o.trace_level, ImpactLevel::Destructive);
        assert_eq!(o.first_op, 0);
        assert!(!o.strategies.screening && o.strategies.eager && o.strategies.lazy);
        assert!(!o.guard_required);
        let step = &ia.plan.steps[0];
        assert_eq!(step.strategy, Strategy::Lazy);
        assert_eq!(step.rekey_slots, vec![(x.index(), minted.index())]);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn pointed_base_row_is_never_obligated() {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        s.add_root_type("obj").unwrap();
        s.add_base_type("null").unwrap();
        let person = s.add_type("person", [], []).unwrap();
        let age = s.add_property("age");
        let base_ix = s.base().unwrap().index();
        let ops = vec![
            RecordedOp::AddType {
                name: "t".into(),
                supers: vec![],
                props: vec![],
            },
            RecordedOp::AddEssentialProperty { t: person, p: age },
        ];
        let ia = analyze(&s, &ops);
        assert!(ia
            .certificate
            .obligations
            .iter()
            .all(|o| o.type_index != base_ix));
        assert!(ia
            .certificate
            .ops
            .iter()
            .all(|o| !o.affected.contains(base_ix)));
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn tampered_certificates_are_refused() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let age = s.add_property("age");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: person, p: age },
            RecordedOp::DropProperty { p: name },
        ];
        let ia = analyze(&s, &ops);
        check(&s, &ops, &ia.certificate).expect("clean certificate accepted");

        let mut bad = ia.certificate.clone();
        bad.initial_fingerprint ^= 1;
        assert!(check(&s, &ops, &bad).unwrap_err().contains("fingerprint"));

        let mut bad = ia.certificate.clone();
        bad.ops[1].level = ImpactLevel::Extending;
        assert!(check(&s, &ops, &bad)
            .unwrap_err()
            .contains("re-derives as destructive"));

        let mut bad = ia.certificate.clone();
        bad.ops[1].affected = IdxSet::new();
        assert!(check(&s, &ops, &bad).unwrap_err().contains("affected"));

        let mut bad = ia.certificate.clone();
        bad.obligations.pop();
        assert!(check(&s, &ops, &bad).unwrap_err().contains("obligation"));

        let mut bad = ia.certificate.clone();
        bad.obligations[0].strategies.screening = true;
        assert!(check(&s, &ops, &bad).unwrap_err().contains("diverges"));

        let mut bad = ia.certificate.clone();
        bad.op_count = 1;
        assert!(check(&s, &ops, &bad).unwrap_err().contains("covers"));
    }

    #[test]
    fn text_and_json_render() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let age = s.add_property("age");
        let ops = vec![
            RecordedOp::AddEssentialProperty { t: person, p: age },
            RecordedOp::DropProperty { p: name },
        ];
        let ia = analyze(&s, &ops);
        let text = ia.to_text();
        assert!(text.contains("GUARD REQUIRED"), "{text}");
        assert!(text.contains("destructive"), "{text}");
        let json = ia.to_json();
        assert!(json.contains("\"guard_required\":true"), "{json}");
        assert!(json.contains("\"strategy\":\"eager\""), "{json}");
    }
}
