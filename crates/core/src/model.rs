//! The schema: designer inputs `P_e` / `N_e` and the derived terms of
//! Table 1.
//!
//! A [`Schema`] holds, for every live type `t ∈ T`:
//!
//! * the **designer inputs** — essential supertypes `P_e(t)` and essential
//!   properties `N_e(t)` ("All schema evolution operations can be handled
//!   through these two terms", §2), and
//! * the **derived state** — immediate supertypes `P(t)`, the supertype
//!   lattice `PL(t)`, native properties `N(t)`, inherited properties `H(t)`,
//!   and the interface `I(t)`, instantiated by the axioms of Table 2 after
//!   every change.
//!
//! Mutations live in [`crate::ops`]; the derivation engines live in
//! [`crate::engine`]; the axiom checkers in [`crate::axioms`].
//!
//! # Structural sharing
//!
//! Per-slot storage lives in chunked persistent spines (`Spine<TypeSlot>`,
//! `Spine<DerivedType>`, …: `Arc`'d cells in `Arc`'d 64-slot leaves) and
//! the type names in a sharded `NameIndex` (64 `Arc`'d hash shards); see
//! the `sharing` submodule. Cloning a [`Schema`], the heart of the
//! copy-on-write versioning in [`crate::concurrent`], therefore copies one
//! pointer per 64 slots and per shard, not one per slot, and no name or
//! derived set. A later mutation pays for what it changes, at leaf and
//! shard granularity: the first write to a slot copies its 64-slot leaf
//! (pointers only) and then the slot's record, each only while an older
//! version still shares it; a type add, drop or rename copies the one name
//! shard it touches. A version thus costs O(|T|/64) pointer copies plus
//! O(leaves and shards the change touches).

mod sharing;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::bits::{PropSet, TypeSet};
use crate::config::LatticeConfig;
use crate::engine::{self, BatchState, EngineKind, EngineStats};
use crate::error::{Result, SchemaError};
use crate::ids::{PropId, TypeId};
use crate::obs::EvolveObs;

pub(crate) use sharing::{NameIndex, Spine};

/// A property in the registry.
///
/// Identity is the [`PropId`] (the paper's "given semantics"); the name is a
/// human label and need not be unique — name clashes are exactly what
/// Orion-style conflict resolution deals with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropRecord {
    pub(crate) name: String,
    pub(crate) alive: bool,
}

/// Designer-controlled state of one type: the two inputs of the axiomatic
/// model plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TypeSlot {
    pub(crate) name: String,
    pub(crate) alive: bool,
    /// Frozen types (TIGUKAT primitives) reject structural drops.
    pub(crate) frozen: bool,
    /// `P_e(t)` — essential supertypes (dense bitset over the type arena).
    pub(crate) pe: TypeSet,
    /// `N_e(t)` — essential properties (dense bitset over the prop arena).
    pub(crate) ne: PropSet,
}

/// Derived state of one type, instantiated by Axioms 5–9.
///
/// Stored as dense bitsets (the `core::bits` lattice kernel, DESIGN.md
/// §12): the axiom operators are word-parallel `|`/`&`/`&!` and a
/// copy-on-write clone of a row is a `memcpy`. The public Table-1
/// accessors on [`Schema`] still hand out `BTreeSet`s — thin, ordered
/// conversions — so rendered snapshots, diffs, and fingerprints are
/// byte-identical to the pre-kernel representation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DerivedType {
    /// `P(t)` — immediate supertypes (Axiom of Supertypes).
    pub p: TypeSet,
    /// `PL(t)` — supertype lattice, including `t` (Axiom of Supertype Lattice).
    pub pl: TypeSet,
    /// `N(t)` — native properties (Axiom of Nativeness).
    pub n: PropSet,
    /// `H(t)` — inherited properties (Axiom of Inheritance).
    pub h: PropSet,
    /// `I(t)` — interface (Axiom of Interface). Cached as `N ∪ H`.
    pub iface: PropSet,
}

/// An objectbase schema under the axiomatic model of dynamic schema
/// evolution.
///
/// # Example
///
/// ```
/// use axiombase_core::{Schema, LatticeConfig};
///
/// let mut s = Schema::new(LatticeConfig::TIGUKAT);
/// let object = s.add_root_type("T_object").unwrap();
/// let name = s.add_property("name");
/// let person = s.add_type("T_person", [object], [name]).unwrap();
/// let student = s.add_type("T_student", [person], []).unwrap();
/// assert!(s.interface(student).unwrap().contains(&name)); // inherited
/// assert!(s.verify().is_empty()); // all nine axioms hold
/// ```
#[derive(Debug)]
pub struct Schema {
    pub(crate) config: LatticeConfig,
    pub(crate) types: Spine<TypeSlot>,
    pub(crate) props: Spine<PropRecord>,
    pub(crate) by_name: NameIndex,
    pub(crate) root: Option<TypeId>,
    pub(crate) base: Option<TypeId>,
    pub(crate) derived: Spine<DerivedType>,
    /// Reverse essential-subtype adjacency: `rev[s]` is the set of live
    /// types with `s ∈ P_e(t)` (the paper's `sub_e`). Maintained
    /// incrementally by every `P_e` edit so down-set discovery never scans
    /// all of `T`.
    pub(crate) rev: Spine<TypeSet>,
    /// Live-type membership `T` as a dense bitset: the word-iterable twin
    /// of the per-slot `alive` flags. Serves `iter_types`/`type_count`/
    /// `is_live` without chasing one `Arc` per arena slot.
    pub(crate) live: TypeSet,
    /// Live-property membership, ditto for the property registry.
    pub(crate) live_props: PropSet,
    pub(crate) engine: EngineKind,
    /// Monotone version counter, bumped on every successful mutation.
    pub(crate) version: u64,
    pub(crate) stats: EngineStats,
    /// Pending batched-evolution state: while `Some`, recomputation is
    /// deferred and change seeds accumulate here (see `Schema::evolve_batch`).
    pub(crate) batch: Option<BatchState>,
    /// Optional observer: when attached, the engine and copy-on-write
    /// helpers report recompute scopes, affected-set sizes, lattice depth,
    /// and actual leaf, cell and shard copies into its metrics registry.
    pub(crate) obs: Option<Arc<EvolveObs>>,
    /// [`Schema::fingerprint`] of this version, once something asked for
    /// it. Outside a batch, every successful mutation clears it
    /// (`bump_version`), and so does every derivation
    /// (`engine::recompute_all`, `engine::recompute_after_many`). A batch
    /// neither reads nor sets it, and its end clears it
    /// (`engine::finish_batch`, which a mid-batch clone runs too).
    pub(crate) fingerprint_memo: OnceLock<u64>,
}

impl Clone for Schema {
    fn clone(&self) -> Self {
        let mut out = Schema {
            config: self.config,
            types: self.types.clone(),
            props: self.props.clone(),
            by_name: self.by_name.clone(),
            root: self.root,
            base: self.base,
            derived: self.derived.clone(),
            rev: self.rev.clone(),
            live: self.live.clone(),
            live_props: self.live_props.clone(),
            engine: self.engine,
            version: self.version,
            stats: self.stats,
            // Pending batch state is never carried into a clone: a clone is
            // a fresh, internally consistent version of its own.
            batch: None,
            obs: self.obs.clone(),
            fingerprint_memo: self.fingerprint_memo.clone(),
        };
        // If the source was cloned *mid-batch* (recomputation deferred,
        // seeds outstanding), the clone must finalize that work itself:
        // otherwise its derived state stays stale and its stats — including
        // `noop_recomputes` for batches that cancel out — silently lose the
        // batch outcome along with the discarded `BatchState`.
        if let Some(b) = &self.batch {
            engine::finish_batch(&mut out, b);
        }
        out
    }
}

impl Schema {
    /// Create an empty schema using the default (incremental) engine.
    pub fn new(config: LatticeConfig) -> Self {
        Self::with_engine(config, EngineKind::Incremental)
    }

    /// Create an empty schema with an explicit derivation engine. The naive
    /// engine interprets the axioms of Table 2 literally through the
    /// apply-all combinator; the incremental engine recomputes only affected
    /// types. They always agree (property-tested).
    pub fn with_engine(config: LatticeConfig, engine: EngineKind) -> Self {
        Schema {
            config,
            types: Spine::new(),
            props: Spine::new(),
            by_name: NameIndex::new(),
            root: None,
            base: None,
            derived: Spine::new(),
            rev: Spine::new(),
            live: TypeSet::new(),
            live_props: PropSet::new(),
            engine,
            version: 0,
            stats: EngineStats::default(),
            batch: None,
            obs: None,
            fingerprint_memo: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The lattice configuration in force.
    #[inline]
    pub fn config(&self) -> LatticeConfig {
        self.config
    }

    /// The derivation engine in use.
    #[inline]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Switch derivation engines. The derived state is fully recomputed so
    /// the switch is observationally transparent.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
        self.recompute_all();
    }

    /// Schema version counter: bumped once per successful mutation.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cumulative engine statistics (types re-derived, set operations).
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Reset the engine statistics (used by benchmarks between phases).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Attach an observer: from now on the engine reports recompute scope,
    /// affected-set size, and lattice depth, and the copy-on-write helpers
    /// report actual leaf, cell and shard copies, into `obs`'s metrics
    /// registry (and span events to its tracer, if any). Clones of this
    /// schema inherit the observer.
    pub fn attach_obs(&mut self, obs: Arc<EvolveObs>) {
        self.obs = Some(obs);
    }

    /// Detach and return the observer, if one was attached.
    pub fn detach_obs(&mut self) -> Option<Arc<EvolveObs>> {
        self.obs.take()
    }

    /// The attached observer, if any.
    #[inline]
    pub fn obs(&self) -> Option<&Arc<EvolveObs>> {
        self.obs.as_ref()
    }

    /// The designated root `⊤`, if any.
    #[inline]
    pub fn root(&self) -> Option<TypeId> {
        self.root
    }

    /// The designated base `⊥`, if any.
    #[inline]
    pub fn base(&self) -> Option<TypeId> {
        self.base
    }

    /// Number of live types `|T|`.
    pub fn type_count(&self) -> usize {
        self.live.len()
    }

    /// Number of live properties in the registry.
    pub fn prop_count(&self) -> usize {
        self.live_props.len()
    }

    /// Iterate over all live types in creation order.
    pub fn iter_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.live.iter()
    }

    /// Iterate over all live properties in creation order.
    pub fn iter_props(&self) -> impl Iterator<Item = PropId> + '_ {
        self.live_props.iter()
    }

    /// Does `t` refer to a live type?
    #[inline]
    pub fn is_live(&self, t: TypeId) -> bool {
        self.live.contains(t)
    }

    /// Does `p` refer to a live property?
    #[inline]
    pub fn is_live_prop(&self, p: PropId) -> bool {
        self.props.get(p.index()).is_some_and(|r| r.alive)
    }

    /// Is `t` frozen (a primitive type that rejects structural changes)?
    pub fn is_frozen(&self, t: TypeId) -> bool {
        self.types
            .get(t.index())
            .is_some_and(|s| s.alive && s.frozen)
    }

    /// Name of a live type.
    pub fn type_name(&self, t: TypeId) -> Result<&str> {
        self.slot(t).map(|s| s.name.as_str())
    }

    /// Name of a live property.
    pub fn prop_name(&self, p: PropId) -> Result<&str> {
        match self.props.get(p.index()) {
            Some(r) if r.alive => Ok(r.name.as_str()),
            _ => Err(SchemaError::UnknownProp(p)),
        }
    }

    /// Look up a live type by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).filter(|&t| self.is_live(t))
    }

    /// Look up live properties by name (names need not be unique).
    pub fn props_by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = PropId> + 'a {
        self.iter_props()
            .filter(move |&p| self.props[p.index()].name == name)
    }

    // ------------------------------------------------------------------
    // The terms of Table 1
    // ------------------------------------------------------------------

    /// `P_e(t)` — the essential supertypes of `t` (designer input).
    ///
    /// Returned as an ordered `BTreeSet` — a thin conversion from the
    /// dense bitset row, kept for rendering and diffing stability.
    /// Hot paths inside the crate work on the bitsets directly.
    pub fn essential_supertypes(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.slot(t).map(|s| s.pe.to_btree())
    }

    /// `N_e(t)` — the essential properties of `t` (designer input).
    pub fn essential_properties(&self, t: TypeId) -> Result<BTreeSet<PropId>> {
        self.slot(t).map(|s| s.ne.to_btree())
    }

    /// `P(t)` — the immediate supertypes of `t` (Axiom of Supertypes):
    /// exactly the essential supertypes that cannot be reached indirectly
    /// through some other essential supertype.
    pub fn immediate_supertypes(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].p.to_btree())
    }

    /// `PL(t)` — the supertype lattice of `t`, including `t` itself (Axiom
    /// of Supertype Lattice).
    pub fn super_lattice(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].pl.to_btree())
    }

    /// `N(t)` — the native properties of `t` (Axiom of Nativeness):
    /// `N_e(t) − H(t)`.
    pub fn native_properties(&self, t: TypeId) -> Result<BTreeSet<PropId>> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].n.to_btree())
    }

    /// `H(t)` — the inherited properties of `t` (Axiom of Inheritance): the
    /// union of the interfaces of the immediate supertypes.
    pub fn inherited_properties(&self, t: TypeId) -> Result<BTreeSet<PropId>> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].h.to_btree())
    }

    /// `I(t)` — the interface of `t` (Axiom of Interface): `N(t) ∪ H(t)`.
    pub fn interface(&self, t: TypeId) -> Result<BTreeSet<PropId>> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].iface.to_btree())
    }

    /// The full derived record of `t` (all of Table 1 at once).
    pub fn derived(&self, t: TypeId) -> Result<&DerivedType> {
        self.check_live(t)?;
        Ok(&self.derived[t.index()])
    }

    /// Is `s` a supertype of `t` (i.e. `s ∈ PL(t)`)? Reflexive.
    pub fn is_supertype_of(&self, s: TypeId, t: TypeId) -> Result<bool> {
        self.check_live(t)?;
        Ok(self.derived[t.index()].pl.contains(s))
    }

    /// Immediate subtypes of `t`: the inverse of `P` ("TIGUKAT does define a
    /// `B_subtypes` behavior for types, so finding all subtypes of a dropped
    /// type is trivial", §3.3). Answered from the reverse-subtype index:
    /// O(|sub_e(t)|), since `P(c) ⊆ P_e(c)` for every type.
    pub fn immediate_subtypes(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.check_live(t)?;
        Ok(self.rev[t.index()]
            .iter()
            .filter(|&c| self.derived[c.index()].p.contains(t))
            .collect())
    }

    /// All subtypes of `t` (types whose supertype lattice contains `t`),
    /// excluding `t` itself. Downward reachability over the reverse-subtype
    /// index — O(size of the down-set), not O(|T|). (Reachability over
    /// `P_e` edges equals reachability over `P` edges: Axiom 5 removes an
    /// essential supertype from `P` only when it stays reachable through
    /// another, so the transitive closures coincide.)
    pub fn all_subtypes(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.check_live(t)?;
        let mut out = TypeSet::new();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            for c in self.rev[x.index()].iter() {
                // The `c != t` guard keeps `t` out of `out` on every path
                // (the lattice is acyclic, so no descendant re-reaches `t`);
                // no trailing removal is needed.
                if c != t && out.insert(c) {
                    stack.push(c);
                }
            }
        }
        Ok(out.to_btree())
    }

    /// Types that list `t` among their *essential* supertypes (inverse of
    /// `P_e`, the paper's `sub_e`). These are the types whose inputs mention
    /// `t` and must be edited when `t` is dropped. Served directly from the
    /// reverse-subtype index — O(|sub_e(t)|).
    pub fn essential_subtypes(&self, t: TypeId) -> Result<BTreeSet<TypeId>> {
        self.check_live(t)?;
        Ok(self.rev[t.index()].to_btree())
    }

    /// All live properties referenced by some type's interface — the
    /// axiomatic analogue of TIGUKAT's behavior-schema-object set `BSO`
    /// (`⋃_t I(t)`, which equals `I(⊥)` on a pointed lattice). A single
    /// word-parallel union over the interface rows: O(|T| · words), no
    /// per-element tree inserts.
    pub fn referenced_properties(&self) -> BTreeSet<PropId> {
        let mut out = PropSet::new();
        for t in self.iter_types() {
            out.union_with(&self.derived[t.index()].iface);
        }
        out.to_btree()
    }

    /// A structural fingerprint of the live schema: names, inputs, and
    /// derived sets. Two schemas with equal fingerprints are structurally
    /// identical — used by the order-independence experiments (§5).
    ///
    /// The bitset rows hash exactly like the `BTreeSet`s they replaced
    /// (length prefix, then ascending `u32` ids), so fingerprints are
    /// byte-identical across the representation change — the committed
    /// goldens pin this.
    ///
    /// A version hashes once: the value is kept until the schema next
    /// changes. Mid-batch, while derived rows are stale, the rows are
    /// hashed as they stand and nothing is kept.
    pub fn fingerprint(&self) -> u64 {
        if self.batch.is_some() {
            return self.hash_fingerprint();
        }
        let fp = *self
            .fingerprint_memo
            .get_or_init(|| self.hash_fingerprint());
        debug_assert_eq!(fp, self.hash_fingerprint(), "stale fingerprint memo");
        fp
    }

    /// The fingerprint's fold: for each live type in ascending id order,
    /// its name (bytes, then `0xff`), then `P_e`, `N_e`, `P`, `PL`, `N`
    /// and `H` (each a `usize` length, then its `u32` ids), all through
    /// `Hash` into one `DefaultHasher` behind a [`BufferedHasher`].
    fn hash_fingerprint(&self) -> u64 {
        let mut h = BufferedHasher::new();
        for t in self.iter_types() {
            let slot = &self.types[t.index()];
            slot.name.hash(&mut h);
            slot.pe.hash(&mut h);
            slot.ne.hash(&mut h);
            let d = &self.derived[t.index()];
            d.p.hash(&mut h);
            d.pl.hash(&mut h);
            d.n.hash(&mut h);
            d.h.hash(&mut h);
        }
        h.finish()
    }

    /// A name-based structural fingerprint, independent of `TypeId` /
    /// `PropId` assignment order: every id is replaced by its name and the
    /// per-type records are sorted before hashing. Two schemas built along
    /// different construction paths (e.g. an Orion reduction vs a direct
    /// simulation) that are structurally identical up to renaming of ids
    /// get equal canonical fingerprints.
    pub fn canonical_fingerprint(&self) -> u64 {
        let tname = |t: TypeId| self.types[t.index()].name.clone();
        let pname = |p: PropId| self.props[p.index()].name.clone();
        let tset = |set: &TypeSet| {
            let mut v: Vec<String> = set.iter().map(tname).collect();
            v.sort();
            v
        };
        let pset = |set: &PropSet| {
            let mut v: Vec<String> = set.iter().map(pname).collect();
            v.sort();
            v
        };
        let mut records: Vec<_> = self
            .iter_types()
            .map(|t| {
                let slot = &self.types[t.index()];
                let d = &self.derived[t.index()];
                (
                    slot.name.clone(),
                    tset(&slot.pe),
                    pset(&slot.ne),
                    tset(&d.p),
                    tset(&d.pl),
                    pset(&d.n),
                    pset(&d.h),
                )
            })
            .collect();
        records.sort();
        let mut h = DefaultHasher::new();
        records.hash(&mut h);
        h.finish()
    }

    // ------------------------------------------------------------------
    // Internal helpers shared with ops/engine/axioms
    // ------------------------------------------------------------------

    pub(crate) fn slot(&self, t: TypeId) -> Result<&TypeSlot> {
        match self.types.get(t.index()) {
            Some(s) if s.alive => Ok(s),
            _ => Err(SchemaError::UnknownType(t)),
        }
    }

    /// Mutable access to a live slot. Copy-on-write: the slot's leaf, then
    /// the slot, is cloned here only while an older schema version still
    /// shares it, so mutation cost is proportional to what actually changes.
    pub(crate) fn slot_mut(&mut self, t: TypeId) -> Result<&mut TypeSlot> {
        self.check_live(t)?;
        Ok(self.types.make_mut(&self.obs, t.index()))
    }

    pub(crate) fn check_live(&self, t: TypeId) -> Result<()> {
        self.slot(t).map(|_| ())
    }

    pub(crate) fn check_live_prop(&self, p: PropId) -> Result<()> {
        match self.props.get(p.index()) {
            Some(r) if r.alive => Ok(()),
            _ => Err(SchemaError::UnknownProp(p)),
        }
    }

    /// Recompute the derived state for the whole lattice with the configured
    /// engine.
    pub(crate) fn recompute_all(&mut self) {
        engine::recompute_all(self);
    }

    /// Note that the inputs of `changed` types were edited. Outside a batch
    /// this recomputes immediately; inside [`Schema::evolve_batch`] the
    /// seeds are absorbed and one recomputation runs at batch end.
    pub(crate) fn note_change(&mut self, changed: &[TypeId], kind: engine::ChangeKind) {
        if let Some(b) = self.batch.as_mut() {
            b.absorb(changed, kind);
        } else {
            engine::recompute_after_many(self, changed, kind);
        }
    }

    /// Register `sub ∈ sub_e(sup)` in the reverse-subtype index.
    pub(crate) fn rev_insert(&mut self, sup: TypeId, sub: TypeId) {
        self.rev.make_mut(&self.obs, sup.index()).insert(sub);
    }

    /// Remove `sub` from `sub_e(sup)` in the reverse-subtype index.
    pub(crate) fn rev_remove(&mut self, sup: TypeId, sub: TypeId) {
        self.rev.make_mut(&self.obs, sup.index()).remove(sub);
    }

    /// Rebuild the reverse-subtype index from scratch (snapshot loads and
    /// wholesale projections; O(|P_e edges|)). Normal operations maintain it
    /// incrementally via [`Schema::rev_insert`]/[`Schema::rev_remove`].
    pub(crate) fn rebuild_subtype_index(&mut self) {
        let mut rev: Vec<TypeSet> = vec![TypeSet::new(); self.types.len()];
        for (i, slot) in self.types.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            let t = TypeId::from_index(i);
            for s in slot.pe.iter() {
                rev[s.index()].insert(t);
            }
        }
        self.rev = rev.into_iter().collect();
    }

    /// Is `target` in the reflexive upward `P_e`-closure of `from`? This is
    /// the input-level equivalent of `target ∈ PL(from)` (the closures of
    /// `P_e` and `P` coincide), usable even while derived state is stale
    /// mid-batch.
    pub(crate) fn reaches_upward(&self, from: TypeId, target: TypeId) -> bool {
        if from == target {
            return true;
        }
        let mut seen = TypeSet::new();
        seen.insert(from);
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for s in self.types[x.index()].pe.iter() {
                if s == target {
                    return true;
                }
                if seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    }

    pub(crate) fn bump_version(&mut self) {
        self.version += 1;
        // Mid-batch the memo is left alone: the batch's end clears it.
        if self.batch.is_none() {
            self.fingerprint_memo.take();
        }
    }
}

/// A `DefaultHasher` fed through a fixed-size buffer: the hash of a byte
/// stream does not depend on how the stream is split into `write`s, so
/// this hashes to exactly what one `write` per field would, with one
/// hasher call per buffer and per name instead of one per id.
struct BufferedHasher {
    inner: DefaultHasher,
    buf: [u8; 512],
    len: usize,
}

impl BufferedHasher {
    fn new() -> Self {
        BufferedHasher {
            inner: DefaultHasher::new(),
            buf: [0; 512],
            len: 0,
        }
    }

    fn flush(&mut self) {
        self.inner.write(&self.buf[..self.len]);
        self.len = 0;
    }

    /// Append one integer's bytes. Their count is a compile-time
    /// constant, so an id costs one store (with a copy of run-time
    /// length, the buffered fold ran slower than one `write` per id).
    #[inline]
    fn push<const N: usize>(&mut self, bytes: [u8; N]) {
        if self.len + N > self.buf.len() {
            self.flush();
        }
        self.buf[self.len..self.len + N].copy_from_slice(&bytes);
        self.len += N;
    }
}

impl Hasher for BufferedHasher {
    /// A name's bytes: once per type, so they go straight through.
    fn write(&mut self, bytes: &[u8]) {
        self.flush();
        self.inner.write(bytes);
    }

    // The same bytes as the provided methods (`to_ne_bytes`), appended
    // at a fixed size.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(i.to_ne_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(i.to_ne_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i.to_ne_bytes());
    }

    fn finish(&self) -> u64 {
        let mut h = self.inner.clone();
        h.write(&self.buf[..self.len]);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    fn tiny() -> (Schema, TypeId, TypeId, TypeId) {
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("T_object").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        (s, root, a, b)
    }

    #[test]
    fn empty_schema_has_no_types() {
        let s = Schema::new(LatticeConfig::default());
        assert_eq!(s.type_count(), 0);
        assert_eq!(s.prop_count(), 0);
        assert!(s.root().is_none());
        assert_eq!(s.iter_types().count(), 0);
    }

    #[test]
    fn table1_accessors_work_on_chain() {
        let (s, root, a, b) = tiny();
        assert_eq!(s.immediate_supertypes(b).unwrap(), BTreeSet::from([a]));
        assert_eq!(s.super_lattice(b).unwrap(), BTreeSet::from([root, a, b]));
        assert!(s.is_supertype_of(root, b).unwrap());
        assert!(!s.is_supertype_of(b, root).unwrap());
        assert_eq!(s.immediate_subtypes(root).unwrap(), BTreeSet::from([a]));
        assert_eq!(s.all_subtypes(root).unwrap(), BTreeSet::from([a, b]));
    }

    #[test]
    fn unknown_type_errors() {
        let (s, ..) = tiny();
        let bogus = TypeId::from_index(99);
        assert_eq!(
            s.super_lattice(bogus).unwrap_err(),
            SchemaError::UnknownType(bogus)
        );
        assert!(!s.is_live(bogus));
    }

    #[test]
    fn name_lookup() {
        let (s, _, a, _) = tiny();
        assert_eq!(s.type_by_name("A"), Some(a));
        assert_eq!(s.type_by_name("nope"), None);
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let (s1, ..) = tiny();
        let (mut s2, ..) = tiny();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        let p = s2.add_property("x");
        let b = s2.type_by_name("B").unwrap();
        s2.add_essential_property(b, p).unwrap();
        assert_ne!(s1.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn clone_mid_batch_finalizes_pending_recompute() {
        // Regression: `Clone` discards the pending `BatchState`, and used
        // to discard the deferred recomputation with it — the clone kept
        // stale derived state and its stats (scoped/noop counts) silently
        // lost the batch outcome. A mid-batch clone must finalize the
        // deferred work itself.
        let (mut s, _, a, _) = tiny();
        let p = s.add_property("x");
        s.evolve_batch(|s| {
            s.add_essential_property(a, p)?;
            let before = s.stats().scoped_recomputes;
            let clone = s.clone();
            // Derived state reflects the batched edit (the original's is
            // still legitimately stale until the batch finalizes)...
            assert!(clone.interface(a)?.contains(&p));
            assert!(clone.verify().is_empty());
            // ...and the recompute the original deferred is counted.
            assert_eq!(clone.stats().scoped_recomputes, before + 1);
            Ok(())
        })
        .unwrap();
        assert!(s.interface(a).unwrap().contains(&p));
    }

    #[test]
    fn clone_mid_batch_counts_noop_recompute() {
        // The add-then-drop batch whose affected set is empty: the clone
        // must record it as a no-op recompute, not lose it.
        let (mut s, root, ..) = tiny();
        s.evolve_batch(|s| {
            let t = s.add_type("Tmp", [root], [])?;
            s.drop_type(t)?;
            let before = s.stats().noop_recomputes;
            let clone = s.clone();
            assert_eq!(clone.stats().noop_recomputes, before + 1);
            assert!(clone.verify().is_empty());
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn clean_clone_copies_stats_verbatim() {
        let (mut s, _, a, _) = tiny();
        let p = s.add_property("x");
        s.add_essential_property(a, p).unwrap();
        let clone = s.clone();
        assert_eq!(clone.stats(), s.stats());
        assert_eq!(clone.fingerprint(), s.fingerprint());
    }

    #[test]
    fn canonical_fingerprint_ignores_id_assignment_order() {
        // Same structure, different construction order → different TypeIds
        // but equal canonical fingerprints (plain fingerprints differ or
        // not, depending on hashing details — canonical must be equal).
        let build = |flip: bool| {
            let mut s = Schema::new(LatticeConfig::default());
            let root = s.add_root_type("root").unwrap();
            if flip {
                let b = s.add_type("B", [root], []).unwrap();
                let a = s.add_type("A", [root], []).unwrap();
                s.add_type("C", [a, b], []).unwrap();
            } else {
                let a = s.add_type("A", [root], []).unwrap();
                let b = s.add_type("B", [root], []).unwrap();
                s.add_type("C", [a, b], []).unwrap();
            }
            s
        };
        assert_eq!(
            build(false).canonical_fingerprint(),
            build(true).canonical_fingerprint()
        );
        // And it is still structure-sensitive.
        let mut changed = build(false);
        let c = changed.type_by_name("C").unwrap();
        let a = changed.type_by_name("A").unwrap();
        changed.drop_essential_supertype(c, a).unwrap();
        assert_ne!(
            build(false).canonical_fingerprint(),
            changed.canonical_fingerprint()
        );
    }

    #[test]
    fn version_bumps_on_mutation() {
        let (mut s, _, a, _) = tiny();
        let v = s.version();
        let p = s.add_property("x");
        s.add_essential_property(a, p).unwrap();
        assert!(s.version() > v);
    }

    #[test]
    fn referenced_properties_covers_inheritance() {
        let (mut s, _, a, b) = tiny();
        let p = s.add_property("x");
        s.add_essential_property(a, p).unwrap();
        // p referenced by both a (native) and b (inherited); set has it once.
        assert!(s.referenced_properties().contains(&p));
        assert!(s.interface(b).unwrap().contains(&p));
    }
}
