//! Instance-impact analysis: classify every op of a recorded trace by its
//! effect on **stored instances**, fold the per-op verdicts into per-type
//! conversion obligations, and synthesize a propagation plan naming the
//! admissible conversion strategies — all statically, from the symbolic
//! shadow of the designer inputs ([`SymbolicState`]) and the interface rows
//! `I(t)` the captured schema already derived. No operation is ever
//! executed, no derivation pass is run, and no object store is ever opened:
//! the store executes the plan (`ObjectStore::apply_plan` in
//! `axiombase-store`).
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
//! down-set of `t` (`I` is inherited along `H`), walked as a dense
//! [`TypeSet`]. In pointed configurations `⊥ = T_null` is excluded
//! throughout — its sole instance is the undefined object, so it has no
//! storable extent (and its `P_e` row churns on every type creation).
//!
//! Everything ends in a self-contained [`ImpactCertificate`] plus a
//! [`PropagationPlan`], and — following the repo's certificate discipline
//! ([`super::plan::check`], [`super::merge::check`]) — an independent
//! [`check`] that trusts *nothing* inside the certificate: it re-derives
//! every delta and obligation from the raw trace and compares. The
//! certificate stores only those primary facts; an op's level and affected
//! set, and an obligation's strategies and guard, are derived from them on
//! demand, so they cannot disagree with what they are derived from.
//!
//! **Cost.** Each of [`analyze`] and [`check`] captures the schema once
//! (a copy-on-write version of its input spines: one pointer per 64-slot
//! leaf) and copies its derived interface rows once; every op then costs
//! the rows it touches. A type's *birth* row — the interface its stored
//! instances were created under — is kept only for the types an op
//! actually affects, taken as the pre-op row the first time one does
//! (every interface change is recorded as a delta, so that row is still
//! the birth row). The certificate's labels are a shared handle on the
//! final shadow's name spines, and the checker compares them by content,
//! looking only at the leaves the two versions do not share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bits::{PropSet, TypeSet};
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::json_escape;
use crate::model::Schema;

use super::footprint::{Labels, SymbolicState};

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

/// The slot-level interface delta one op inflicts on one type. A single
/// op only grows rows or only shrinks them, so a delta either adds slots
/// or loses them (or the whole extent); re-keys appear only in the net
/// delta of a [`ConversionObligation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeImpact {
    /// Type arena index of the affected type.
    pub type_index: usize,
    /// Properties newly entering the interface (arena indexes).
    pub added: Vec<usize>,
    /// Properties leaving the interface.
    pub lost: Vec<usize>,
    /// Did the type itself die here (whole extent lost)?
    pub extent_lost: bool,
}

impl TypeImpact {
    /// Verdict for this type at this op: `Destructive` if anything is
    /// lost, else `Extending`.
    pub fn level(&self) -> ImpactLevel {
        if self.extent_lost || !self.lost.is_empty() {
            ImpactLevel::Destructive
        } else {
            ImpactLevel::Extending
        }
    }
}

/// Verdict for one trace position: its per-type deltas, from which the
/// level and the affected set follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpImpact {
    /// The non-preserving per-type deltas, ascending by type index.
    pub deltas: Vec<TypeImpact>,
}

impl OpImpact {
    /// The join of the per-type levels (`Preserving` when no type is
    /// affected).
    pub fn level(&self) -> ImpactLevel {
        self.deltas
            .iter()
            .map(TypeImpact::level)
            .max()
            .unwrap_or(ImpactLevel::Preserving)
    }

    /// Types with a non-preserving delta at this op (arena indexes,
    /// ascending).
    pub fn affected(&self) -> impl Iterator<Item = usize> + '_ {
        self.deltas.iter().map(|d| d.type_index)
    }
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
    /// Level of the net birth→final conversion (drives
    /// [`Self::strategies`] and [`Self::guard_required`]).
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
}

impl ConversionObligation {
    /// Admissible strategies for [`Self::level`].
    pub fn strategies(&self) -> Strategies {
        Strategies::for_level(self.level)
    }

    /// Destructive obligations must be guarded by a snapshot/branch
    /// point before the destructive op runs.
    pub fn guard_required(&self) -> bool {
        self.level == ImpactLevel::Destructive
    }
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
    /// Final-state arena labels for rendering, shared with the final
    /// shadow.
    pub labels: Labels,
}

impl ImpactCertificate {
    /// Per-level op counts, indexed `[preserving, extending, refining,
    /// destructive]`.
    pub fn level_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for op in &self.ops {
            counts[op.level() as usize] += 1;
        }
        counts
    }

    /// Obligations that require a guard (destructive fold level).
    pub fn guarded_obligations(&self) -> usize {
        guarded(&self.obligations)
    }
}

/// How many of `obligations` require a guard.
fn guarded(obligations: &[ConversionObligation]) -> usize {
    obligations.iter().filter(|o| o.guard_required()).count()
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
/// the input the store's executor (`ObjectStore::apply_plan` in
/// `axiombase-store`) consumes unchanged. Preserving types carry no step.
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
                guarded: o.guard_required(),
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
    labels: Labels,
}

/// Dense interface rows `I(t) = ⋃ { N_e(u) : u ∈ PL(t) }` for every live
/// non-base type, maintained *incrementally* while the shadow steps.
/// They start as the captured schema's derived `I(t)` rows: the axioms
/// define them from the same inputs, and the certificate's fingerprint
/// binds them (it hashes `N(t)` and `H(t)`, whose union is `I(t)`).
/// Each op applies one of two rules ([`RowRule`]): growth flows down the
/// reverse-subtype index as one word-parallel row union per type, and
/// shrinkage re-folds the edited rows and walks each actual change down.
/// The analyzer therefore prices each op by the rows it touches, like the
/// `core::bits` kernel, instead of re-walking the `P_e` up-set of every
/// type below the edit — the difference between microseconds and
/// milliseconds per destructive op on a thousand-type lattice.
struct IfaceRows {
    /// `rows[t]` = the properties in `I(t)`; empty for dead types and
    /// for ⊥ (whose row is never read — nothing sits below it and it
    /// holds no storable extent).
    rows: Vec<PropSet>,
}

/// Is `t` a live type other than ⊥ — a type with a storable extent?
fn storable(sim: &SymbolicState, t: usize) -> bool {
    sim.is_live(t) && Some(t) != sim.base()
}

impl IfaceRows {
    /// The interface rows `initial` derived, for the shadow captured from
    /// it: one word-span copy per storable type.
    fn capture(initial: &Schema, sim: &SymbolicState) -> IfaceRows {
        let rows = (0..sim.type_slots())
            .map(|t| {
                if storable(sim, t) {
                    initial.derived[t].iface.clone()
                } else {
                    PropSet::new()
                }
            })
            .collect();
        IfaceRows { rows }
    }

    /// `N_e(t)` united with the rows of `t`'s live parents.
    fn fold_row(&self, sim: &SymbolicState, t: usize) -> PropSet {
        let mut row: PropSet = sim.properties(t).map(PropId::from_index).collect();
        for s in sim.supertypes(t) {
            if sim.is_live(s) {
                if let Some(parent) = self.rows.get(s) {
                    row.union_with(parent);
                }
            }
        }
        row
    }

    /// Append rows for types the shadow minted since the last step:
    /// a newborn's interface is its `N_e` plus its parents' rows.
    fn grow(&mut self, sim: &SymbolicState) {
        while self.rows.len() < sim.type_slots() {
            let t = self.rows.len();
            let row = if storable(sim, t) {
                self.fold_row(sim, t)
            } else {
                PropSet::new()
            };
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
    ) -> BTreeMap<usize, PropSet> {
        let mut changed = BTreeMap::new();
        let mut queue: Vec<usize> = direct.to_vec();
        while let Some(u) = queue.pop() {
            if Some(u) == sim.base() {
                continue;
            }
            if !sim.is_live(u) {
                let old = std::mem::take(&mut self.rows[u]);
                changed.entry(u).or_insert(old);
                continue;
            }
            let row = self.fold_row(sim, u);
            if row == self.rows[u] {
                continue;
            }
            queue.extend(sim.subtypes(u));
            let old = std::mem::replace(&mut self.rows[u], row);
            changed.entry(u).or_insert(old);
        }
        changed
    }
}

/// How one op changes the interface rows. By the axioms an op edits one
/// `P_e` or `N_e` row (or drops a property or type outright), so it can
/// only grow the interfaces below the edited row or shrink them: a row
/// it changes is extended or loses slots, never re-keyed (re-keys arise
/// only in the net birth→final obligations). Read off the pre-step
/// shadow: the edges and holders a drop removes are gone after the step.
enum RowRule {
    /// A new essential `p` or supertype edge `s` at `t`: `reach` (`{p}`,
    /// or `I(s)` before the step) joins every row of `below`, the
    /// storable types of `↓t` in ascending order.
    Grow { below: Vec<usize>, reach: PropSet },
    /// A dropped edge, essential, property or type: re-fold the `seeds`
    /// rows the op edits and walk each actual change down
    /// ([`IfaceRows::propagate_removal`]). Ops that only allocate, rename
    /// or freeze edit no existing row and seed nothing.
    Shrink(Vec<usize>),
}

impl RowRule {
    fn of(sim: &SymbolicState, iface: &IfaceRows, op: &RecordedOp) -> RowRule {
        let grow = |t: usize, reach: PropSet| RowRule::Grow {
            below: down_set(sim, t),
            reach,
        };
        match op {
            RecordedOp::AddEssentialProperty { t, p } => {
                grow(t.index(), std::iter::once(*p).collect())
            }
            RecordedOp::AddEssentialSupertype { t, s } => {
                grow(t.index(), iface.rows[s.index()].clone())
            }
            // A type drop also rewrites the `P_e` rows of its subtypes.
            RecordedOp::DropType { t } => {
                let ti = t.index();
                RowRule::Shrink(sim.subtypes(ti).chain([ti]).collect())
            }
            RecordedOp::DropEssentialSupertype { t, .. }
            | RecordedOp::DropEssentialProperty { t, .. } => RowRule::Shrink(vec![t.index()]),
            RecordedOp::DropProperty { p } => RowRule::Shrink(sim.holders_of(p.index()).collect()),
            RecordedOp::AddProperty { .. }
            | RecordedOp::RenameProperty { .. }
            | RecordedOp::AddRootType { .. }
            | RecordedOp::AddBaseType { .. }
            | RecordedOp::AddType { .. }
            | RecordedOp::RenameType { .. }
            | RecordedOp::FreezeType { .. } => RowRule::Shrink(Vec::new()),
        }
    }
}

/// The storable types of `↓t`, ascending: an input edit at `t` can change
/// only these interfaces (`I` is inherited along `H`), walked over the
/// structural reverse-subtype index.
fn down_set(sim: &SymbolicState, t: usize) -> Vec<usize> {
    let mut below: TypeSet = std::iter::once(TypeId::from_index(t)).collect();
    let mut work = vec![t];
    while let Some(u) = work.pop() {
        for c in sim.subtypes(u) {
            if below.insert(TypeId::from_index(c)) {
                work.push(c);
            }
        }
    }
    below
        .iter()
        .map(TypeId::index)
        .filter(|&u| storable(sim, u))
        .collect()
}

/// The net delta from the `birth` row to the `fin` row: departing slots
/// are matched against arriving ones by (post-state) property name, FIFO
/// over ascending indexes. Each match is a re-key a conversion function
/// can honour; leftovers on the departing side are real losses.
fn split_delta(
    sim: &SymbolicState,
    birth: &PropSet,
    fin: &PropSet,
) -> (Vec<usize>, Vec<(usize, usize)>, Vec<usize>) {
    let (mut arriving, mut departing) = (fin.clone(), birth.clone());
    arriving.subtract(birth);
    departing.subtract(fin);
    let mut arrivals: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for q in arriving.iter().map(PropId::index) {
        if let Some(name) = sim.prop_name(q) {
            arrivals.entry(name).or_default().push(q);
        }
    }
    let mut rekeyed = Vec::new();
    let mut lost = Vec::new();
    for p in departing.iter().map(PropId::index) {
        let name = sim.prop_name(p).unwrap_or("");
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

/// One affected type's fold along the trace.
struct Fold {
    /// Join of its per-op levels.
    level: ImpactLevel,
    /// First op reaching that level.
    first_op: usize,
    /// Did its extent die?
    extent_lost: bool,
    /// The interface its instances were born under: the row at capture,
    /// or right after creation for a trace-minted type.
    birth: PropSet,
}

/// Walk the trace once over a symbolic shadow, classifying each op
/// against the pre/post interfaces of the rows its [`RowRule`] changes
/// and folding the per-type obligation state.
fn derive(initial: &Schema, ops: &[RecordedOp]) -> Derived {
    let mut sim = SymbolicState::capture(initial);
    let mut iface = IfaceRows::capture(initial, &sim);
    // Per affected type, ascending. Every change to a row is recorded as
    // a delta, so the pre-op row of a type's first delta is still the row
    // its instances were born under.
    let mut fold: BTreeMap<usize, Fold> = BTreeMap::new();

    let mut op_impacts = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let rule = RowRule::of(&sim, &iface, op);
        sim.step(op);

        // A type-creating op grew the arena: fold the newborn's row.
        iface.grow(&sim);

        let mut deltas: Vec<TypeImpact> = Vec::new();
        let mut record = |delta: TypeImpact, pre_row: &dyn Fn() -> PropSet| {
            let (t, level) = (delta.type_index, delta.level());
            fold.entry(t)
                .and_modify(|f| {
                    if level > f.level {
                        f.level = level;
                        f.first_op = i;
                    }
                    f.extent_lost |= delta.extent_lost;
                })
                .or_insert_with(|| Fold {
                    level,
                    first_op: i,
                    extent_lost: delta.extent_lost,
                    birth: pre_row(),
                });
            deltas.push(delta);
        };
        match rule {
            RowRule::Grow { below, reach } => {
                for t in below {
                    if reach.is_subset(&iface.rows[t]) {
                        continue;
                    }
                    let mut added = reach.clone();
                    added.subtract(&iface.rows[t]);
                    iface.rows[t].union_with(&reach);
                    let row = &iface.rows[t];
                    record(
                        TypeImpact {
                            type_index: t,
                            added: added.iter().map(PropId::index).collect(),
                            lost: Vec::new(),
                            extent_lost: false,
                        },
                        &|| {
                            let mut pre = row.clone();
                            pre.subtract(&added);
                            pre
                        },
                    );
                }
            }
            // Rows only shrink here, so every row the shrinkage touched
            // lost slots, or its whole extent with the type.
            RowRule::Shrink(seeds) => {
                for (t, pre_row) in iface.propagate_removal(&sim, &seeds) {
                    let extent_lost = !sim.is_live(t);
                    let lost = if extent_lost {
                        Vec::new()
                    } else {
                        let mut lost = pre_row.clone();
                        lost.subtract(&iface.rows[t]);
                        lost.iter().map(PropId::index).collect()
                    };
                    record(
                        TypeImpact {
                            type_index: t,
                            added: Vec::new(),
                            lost,
                            extent_lost,
                        },
                        &|| pre_row.clone(),
                    );
                }
            }
        }
        op_impacts.push(OpImpact { deltas });
    }

    // Fold the per-type state into obligations: the *net* slot delta
    // (birth interface vs final interface, names resolved in the final
    // state) classifies the one-shot conversion, while the trace join
    // records sequential severity — see the [`ConversionObligation`] doc.
    let mut obligations = Vec::with_capacity(fold.len());
    for (t, f) in fold {
        let (added, rekeyed, lost) = if f.extent_lost {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            split_delta(&sim, &f.birth, &iface.rows[t])
        };
        let level = if f.extent_lost {
            ImpactLevel::Destructive
        } else {
            classify(&added, &rekeyed, &lost)
        };
        obligations.push(ConversionObligation {
            type_index: t,
            level,
            trace_level: f.level,
            first_op: f.first_op,
            added,
            rekeyed,
            lost,
            extent_lost: f.extent_lost,
        });
    }

    Derived {
        ops: op_impacts,
        obligations,
        labels: sim.labels(),
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
        labels: derived.labels,
    };
    let plan = PropagationPlan::from_obligations(&certificate.obligations);
    ImpactAnalysis { certificate, plan }
}

/// Independently re-verify an [`ImpactCertificate`] against the raw
/// trace. Trusts nothing inside the certificate: every delta, obligation
/// and label is re-derived from `initial` and `ops` on a fresh symbolic
/// shadow and compared field-for-field (each op's level and affected set
/// are functions of its deltas). Any mismatch refuses the certificate
/// with the first violation found.
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
    if cert.labels != derived.labels {
        return Err("certificate labels diverge from the final symbolic state".to_owned());
    }

    Ok(ImpactCheck {
        ops: ops.len(),
        obligations: derived.obligations.len(),
        guarded: guarded(&derived.obligations),
    })
}

fn delta_text(
    labels: &Labels,
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
        let names: Vec<String> = lost.iter().map(|&p| labels.prop_label(p)).collect();
        parts.push(format!("lost {{{}}}", names.join(", ")));
    }
    if !rekeyed.is_empty() {
        let names: Vec<String> = rekeyed
            .iter()
            .map(|&(p, q)| format!("{}#{p}→#{q}", labels.prop_label(p)))
            .collect();
        parts.push(format!("rekey {{{}}}", names.join(", ")));
    }
    if !added.is_empty() {
        let names: Vec<String> = added.iter().map(|&p| labels.prop_label(p)).collect();
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
                op.level().tag()
            );
            if !op.deltas.is_empty() {
                let names: Vec<String> = op.affected().map(|t| cert.labels.type_label(t)).collect();
                let _ = write!(line, " affected {{{}}}", names.join(", "));
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        let _ = writeln!(out, "obligations: {}", cert.obligations.len());
        for o in &cert.obligations {
            let delta = delta_text(&cert.labels, &o.added, &o.rekeyed, &o.lost, o.extent_lost);
            let mut line = format!(
                "  {}: {} (first at op {})",
                cert.labels.type_label(o.type_index),
                o.level.tag(),
                o.first_op + 1
            );
            if o.trace_level > o.level {
                let _ = write!(line, " [sequentially {}]", o.trace_level.tag());
            }
            if !delta.is_empty() {
                let _ = write!(line, " — {delta}");
            }
            let _ = write!(line, "; strategies {{{}}}", o.strategies().list());
            if o.guard_required() {
                let _ = write!(line, "; GUARD REQUIRED");
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "plan: {} step(s)", self.plan.steps.len());
        for s in &self.plan.steps {
            let delta = delta_text(
                &cert.labels,
                &s.add_slots,
                &s.rekey_slots,
                &s.drop_slots,
                s.drop_extent,
            );
            let mut line = format!(
                "  {}: {}",
                cert.labels.type_label(s.type_index),
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
                .map(|&p| format!("\"{}\"", json_escape(&cert.labels.prop_label(p))))
                .collect::<Vec<_>>()
                .join(",")
        };
        let rekey_list = |pairs: &[(usize, usize)]| {
            pairs
                .iter()
                .map(|&(p, q)| {
                    format!(
                        "{{\"from\":{p},\"to\":{q},\"name\":\"{}\"}}",
                        json_escape(&cert.labels.prop_label(q))
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
                    .affected()
                    .map(|t| format!("\"{}\"", json_escape(&cert.labels.type_label(t))))
                    .collect();
                format!(
                    "{{\"index\":{},\"kind\":\"{}\",\"level\":\"{}\",\"affected\":[{}]}}",
                    i + 1,
                    cert.kinds[i],
                    op.level().tag(),
                    affected.join(",")
                )
            })
            .collect();
        let obligations: Vec<String> = cert
            .obligations
            .iter()
            .map(|o| {
                let strategies: Vec<String> = o
                    .strategies()
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
                    json_escape(&cert.labels.type_label(o.type_index)),
                    o.type_index,
                    o.level.tag(),
                    o.trace_level.tag(),
                    o.first_op + 1,
                    prop_list(&o.added),
                    rekey_list(&o.rekeyed),
                    prop_list(&o.lost),
                    o.extent_lost,
                    strategies.join(","),
                    o.guard_required()
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
                    json_escape(&cert.labels.type_label(s.type_index)),
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
            .all(|o| o.level() == ImpactLevel::Preserving));
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
        assert_eq!(ia.certificate.ops[0].level(), ImpactLevel::Extending);
        assert!(ia.certificate.ops[0]
            .affected()
            .any(|t| t == person.index()));
        assert!(ia.certificate.ops[0]
            .affected()
            .any(|t| t == student.index()));
        assert_eq!(ia.certificate.obligations.len(), 2);
        for o in &ia.certificate.obligations {
            assert_eq!(o.level, ImpactLevel::Extending);
            assert_eq!(o.added, vec![age.index()]);
            assert!(o.strategies().screening && o.strategies().eager && o.strategies().lazy);
            assert!(!o.guard_required());
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
        assert_eq!(ia.certificate.ops[0].level(), ImpactLevel::Destructive);
        assert!(ia.certificate.ops[0]
            .affected()
            .any(|t| t == student.index()));
        for o in &ia.certificate.obligations {
            assert_eq!(o.level, ImpactLevel::Destructive);
            assert_eq!(o.lost, vec![name.index()]);
            assert!(o.guard_required());
            assert!(!o.strategies().screening && o.strategies().eager && !o.strategies().lazy);
        }
        assert_eq!(ia.plan.steps[0].strategy, Strategy::Eager);
        assert!(ia.plan.steps[0].guarded);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn drop_property_held_by_a_type_and_its_subtype_loses_one_slot_each() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let student = s.add_type("student", [person], [name]).unwrap();
        let grad = s.add_type("grad", [student], []).unwrap();
        let ops = vec![RecordedOp::DropProperty { p: name }];
        let ia = analyze(&s, &ops);
        // The shrink rule re-folds `student` only once `person`'s row has
        // lost the slot, and `grad` only once `student`'s has.
        let deltas = &ia.certificate.ops[0].deltas;
        let types: Vec<usize> = deltas.iter().map(|d| d.type_index).collect();
        assert_eq!(types, vec![person.index(), student.index(), grad.index()]);
        for d in deltas {
            assert_eq!(d.level(), ImpactLevel::Destructive);
            assert_eq!(d.lost, vec![name.index()]);
            assert!(d.added.is_empty() && !d.extent_lost);
        }
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn obligation_added_slots_follow_property_names() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let zeta = s.add_property("zeta");
        let alpha = s.add_property("alpha");
        let mid = s.add_property("mid");
        let ops: Vec<RecordedOp> = [zeta, alpha, mid]
            .into_iter()
            .map(|p| RecordedOp::AddEssentialProperty { t: person, p })
            .collect();
        let ia = analyze(&s, &ops);
        // Arena order is zeta, alpha, mid; the net delta lists arrivals by
        // name, as `split_delta` matches them.
        let o = &ia.certificate.obligations[0];
        assert_eq!(o.added, vec![alpha.index(), mid.index(), zeta.index()]);
        assert_eq!(ia.plan.steps[0].add_slots, o.added);
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn add_essential_property_already_inherited_is_preserving() {
        let mut s = base();
        let person = s.add_type("person", [], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let student = s.add_type("student", [person], []).unwrap();
        let ops = vec![RecordedOp::AddEssentialProperty {
            t: student,
            p: name,
        }];
        let ia = analyze(&s, &ops);
        assert_eq!(ia.certificate.ops[0].level(), ImpactLevel::Preserving);
        assert!(ia.certificate.ops[0].deltas.is_empty());
        assert!(ia.certificate.obligations.is_empty());
        check(&s, &ops, &ia.certificate).expect("accepted");
    }

    #[test]
    fn add_essential_supertype_extends_a_diamond_once_per_type() {
        let mut s = base();
        let named = s.add_type("named", [], []).unwrap();
        let x = s.define_property_on(named, "x").unwrap();
        let y = s.define_property_on(named, "y").unwrap();
        let top = s.add_type("top", [], []).unwrap();
        let left = s.add_type("left", [top], []).unwrap();
        let right = s.add_type("right", [top], [y]).unwrap();
        let bottom = s.add_type("bottom", [left, right], []).unwrap();
        let ops = vec![RecordedOp::AddEssentialSupertype { t: top, s: named }];
        let ia = analyze(&s, &ops);
        let op = &ia.certificate.ops[0];
        assert_eq!(op.level(), ImpactLevel::Extending);
        // `bottom` sits below both arms but gets one delta; `right` and
        // `bottom` already hold `y`, so only `x` arrives there.
        let got: Vec<(usize, Vec<usize>)> = op
            .deltas
            .iter()
            .map(|d| (d.type_index, d.added.clone()))
            .collect();
        let both = vec![x.index(), y.index()];
        assert_eq!(
            got,
            vec![
                (top.index(), both.clone()),
                (left.index(), both),
                (right.index(), vec![x.index()]),
                (bottom.index(), vec![x.index()]),
            ]
        );
        assert!(op
            .deltas
            .iter()
            .all(|d| d.level() == ImpactLevel::Extending));
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
        assert_eq!(ia.certificate.ops[0].level(), ImpactLevel::Destructive);
        assert_eq!(ia.certificate.ops[2].level(), ImpactLevel::Extending);
        let o = &ia.certificate.obligations[0];
        // The net birth→final conversion is a re-key (refining), but the
        // sequential join records that applying the ops one at a time
        // destroys the stored value between the drop and the re-add.
        assert_eq!(o.rekeyed, vec![(x.index(), minted.index())]);
        assert!(o.lost.is_empty() && o.added.is_empty());
        assert_eq!(o.level, ImpactLevel::Refining);
        assert_eq!(o.trace_level, ImpactLevel::Destructive);
        assert_eq!(o.first_op, 0);
        assert!(!o.strategies().screening && o.strategies().eager && o.strategies().lazy);
        assert!(!o.guard_required());
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
            .all(|o| !o.affected().any(|t| t == base_ix)));
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

        // A delta that no longer loses its slot, or that names another
        // type, is refused; so is a dropped delta.
        let mut bad = ia.certificate.clone();
        bad.ops[1].deltas[0].lost.clear();
        assert!(check(&s, &ops, &bad)
            .unwrap_err()
            .contains("op 2 per-type deltas"));

        let mut bad = ia.certificate.clone();
        bad.ops[1].deltas[0].type_index = 0;
        assert!(check(&s, &ops, &bad)
            .unwrap_err()
            .contains("op 2 per-type deltas"));

        let mut bad = ia.certificate.clone();
        bad.ops[0].deltas.clear();
        assert!(check(&s, &ops, &bad)
            .unwrap_err()
            .contains("op 1 per-type deltas"));

        let mut bad = ia.certificate.clone();
        bad.obligations.pop();
        assert!(check(&s, &ops, &bad).unwrap_err().contains("obligation"));

        // An obligation claiming a lower level (and so other strategies
        // and no guard) is refused.
        let mut bad = ia.certificate.clone();
        bad.obligations[0].level = ImpactLevel::Extending;
        assert!(check(&s, &ops, &bad)
            .unwrap_err()
            .contains("(claimed extending, re-derived destructive)"));

        let mut bad = ia.certificate.clone();
        bad.op_count = 1;
        assert!(check(&s, &ops, &bad).unwrap_err().contains("covers"));

        // Labels are compared by content: the final names of a shadow that
        // shares no leaf with the checker's, but holds the same names, pass;
        // one renamed slot does not.
        let labels_after = |schema: &Schema| {
            let mut sim = SymbolicState::capture(schema);
            for op in &ops {
                sim.step(op);
            }
            sim.labels()
        };
        let mut copied = s.clone();
        copied.rename_type(person, "someone").unwrap();
        copied.rename_type(person, "person").unwrap();
        copied.rename_property(age, "age").unwrap();
        let mut same = ia.certificate.clone();
        same.labels = labels_after(&copied);
        check(&s, &ops, &same).expect("the same names from unshared leaves are accepted");
        let mut renamed = s.clone();
        renamed.rename_type(person, "someone").unwrap();
        let mut bad = ia.certificate.clone();
        bad.labels = labels_after(&renamed);
        assert!(check(&s, &ops, &bad).unwrap_err().contains("labels"));
        let mut renamed = s.clone();
        renamed.rename_property(age, "years").unwrap();
        let mut bad = ia.certificate.clone();
        bad.labels = labels_after(&renamed);
        assert!(check(&s, &ops, &bad).unwrap_err().contains("labels"));
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
