//! Schema-evolution operations on the axiomatic model.
//!
//! "All schema evolution operations can be handled through these two terms
//! [`P_e` and `N_e`] ... The axiomatic model takes care of rearranging the
//! schema to conform to these two inputs" (§2). Every mutation here is an
//! edit of `P_e`/`N_e` (plus type/property creation and deletion) followed
//! by recomputation under the axioms. The operations correspond to the
//! TIGUKAT operation suite of §3.3 as follows:
//!
//! | paper op | method |
//! |---|---|
//! | MT-AB  | [`Schema::add_essential_property`] |
//! | MT-DB  | [`Schema::drop_essential_property`] |
//! | MT-ASR | [`Schema::add_essential_supertype`] |
//! | MT-DSR | [`Schema::drop_essential_supertype`] |
//! | AT     | [`Schema::add_type`] / [`Schema::add_root_type`] / [`Schema::add_base_type`] |
//! | DT     | [`Schema::drop_type`] |
//! | DB     | [`Schema::drop_property`] |
//!
//! (AC/DC, MB-CA, DF, AL/DL concern classes, functions, and collections —
//! constructs of the full objectbase, implemented in `axiombase-tigukat` on
//! top of this model.)
//!
//! **Failure atomicity**: every operation validates all its rejection rules
//! *before* mutating; a returned error implies the schema is unchanged. The
//! failure-injection tests pin this with fingerprint comparisons.

use crate::analysis::plan::{self, EvolutionPlan, PlanCheck};
use crate::bits::{ensure_arena_index, ArenaKind, PropSet, TypeSet};
use crate::engine::{BatchState, ChangeKind};
use crate::error::{Result, SchemaError};
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::model::{DerivedType, PropRecord, Schema, TypeSlot};
use crate::obs::names;

impl Schema {
    // ------------------------------------------------------------------
    // Property registry
    // ------------------------------------------------------------------

    /// Define a new property (the paper's AB: "defining a new behavior does
    /// not affect the schema because behaviors don't become part of the
    /// schema until after they are added as essential behaviors of some
    /// type"). Names need not be unique — identity is the returned
    /// [`PropId`].
    pub fn add_property(&mut self, name: impl Into<String>) -> PropId {
        let id = PropId::from_index(self.props.len());
        self.props.push(
            &self.obs,
            PropRecord {
                name: name.into(),
                alive: true,
            },
        );
        self.live_props.insert(id);
        id
    }

    /// Rename a property (labels only; identity is unchanged).
    pub fn rename_property(&mut self, p: PropId, name: impl Into<String>) -> Result<()> {
        self.check_live_prop(p)?;
        self.props.make_mut(&self.obs, p.index()).name = name.into();
        self.bump_version();
        Ok(())
    }

    /// Drop a property in its entirety (the paper's DB): it is removed from
    /// the `N_e` of every type that declared it essential, then deleted from
    /// the registry. Returns the types whose inputs were edited.
    pub fn drop_property(&mut self, p: PropId) -> Result<Vec<TypeId>> {
        self.check_live_prop(p)?;
        let holders: Vec<TypeId> = self
            .iter_types()
            .filter(|&t| self.types[t.index()].ne.contains(p))
            .collect();
        for &t in &holders {
            self.types.make_mut(&self.obs, t.index()).ne.remove(p);
        }
        self.props.make_mut(&self.obs, p.index()).alive = false;
        self.live_props.remove(p);
        if !holders.is_empty() {
            self.note_change(&holders, ChangeKind::PropsOnly);
        }
        self.bump_version();
        Ok(holders)
    }

    // ------------------------------------------------------------------
    // Type creation (AT)
    // ------------------------------------------------------------------

    /// Create the root type `⊤` of a rooted lattice. Must be the first step
    /// on a [`crate::Rootedness::Rooted`] schema; rejected if a root exists.
    /// On a forest, this simply creates a parentless type.
    pub fn add_root_type(&mut self, name: impl Into<String>) -> Result<TypeId> {
        let name = name.into();
        if let Some(r) = self.root {
            if self.config.is_rooted() {
                return Err(SchemaError::RootAlreadyDesignated(r));
            }
        }
        self.check_fresh_name(&name)?;
        let t = self.push_type(name, Default::default(), Default::default())?;
        if self.config.is_rooted() && self.root.is_none() {
            self.root = Some(t);
        }
        self.note_change(&[t], ChangeKind::Edges);
        self.bump_version();
        Ok(t)
    }

    /// Create the base type `⊥` of a pointed lattice (TIGUKAT's `T_null`).
    /// Every existing type becomes an essential supertype of the base ("all
    /// types are essential supertypes of this base type", §3.3), and every
    /// type created afterwards is added to `P_e(⊥)` automatically.
    pub fn add_base_type(&mut self, name: impl Into<String>) -> Result<TypeId> {
        if let Some(b) = self.base {
            return Err(SchemaError::BaseAlreadyDesignated(b));
        }
        let name = name.into();
        self.check_fresh_name(&name)?;
        if self.config.is_rooted() && self.root.is_none() {
            return Err(SchemaError::NoRoot);
        }
        // Every existing type (possibly none, on an empty forest) goes into
        // P_e of the new base.
        let pe: TypeSet = self.iter_types().collect();
        let t = self.push_type(name, pe, Default::default())?;
        self.base = Some(t);
        self.note_change(&[t], ChangeKind::Edges);
        self.bump_version();
        Ok(t)
    }

    /// AT — create a new type with the given essential supertypes and
    /// essential properties. "If no supertypes are specified, `T_object` is
    /// assumed" (§3.3): on a rooted lattice an empty `supertypes` list
    /// defaults to `{⊤}`. On a pointed lattice the new type is added to
    /// `P_e(⊥)`.
    pub fn add_type(
        &mut self,
        name: impl Into<String>,
        supertypes: impl IntoIterator<Item = TypeId>,
        properties: impl IntoIterator<Item = PropId>,
    ) -> Result<TypeId> {
        let name = name.into();
        self.check_fresh_name(&name)?;
        let mut pe = TypeSet::new();
        for s in supertypes {
            self.check_live(s)?;
            if Some(s) == self.base && self.config.is_pointed() {
                return Err(SchemaError::SubtypeOfBase(s));
            }
            pe.insert(s);
        }
        let mut ne = PropSet::new();
        for p in properties {
            self.check_live_prop(p)?;
            ne.insert(p);
        }
        if self.config.is_rooted() {
            let root = self.root.ok_or(SchemaError::NoRoot)?;
            if pe.is_empty() {
                pe.insert(root);
            }
        }
        let t = self.push_type(name, pe, ne)?;
        let mut changed = vec![t];
        if self.config.is_pointed() {
            if let Some(b) = self.base {
                self.types.make_mut(&self.obs, b.index()).pe.insert(t);
                self.rev_insert(t, b);
                changed.push(b);
            }
        }
        self.note_change(&changed, ChangeKind::Edges);
        self.bump_version();
        Ok(t)
    }

    /// Rename a type (Orion's OP8). Identity (`TypeId`) and all
    /// relationships are unchanged — "there is no notion of renaming objects
    /// in TIGUKAT because objects are created with a unique, immutable
    /// object identity" (§5); the name here is merely a reference label.
    pub fn rename_type(&mut self, t: TypeId, new_name: impl Into<String>) -> Result<()> {
        let new_name = new_name.into();
        self.check_live(t)?;
        if self.type_name(t)? == new_name {
            return Ok(());
        }
        self.check_fresh_name(&new_name)?;
        let old = std::mem::replace(
            &mut self.types.make_mut(&self.obs, t.index()).name,
            new_name.clone(),
        );
        self.by_name.remove(&self.obs, &old);
        self.by_name.insert(&self.obs, new_name, t);
        self.bump_version();
        Ok(())
    }

    /// Mark a type as frozen: it can no longer be dropped or structurally
    /// re-parented (TIGUKAT: "the primitive types of the model cannot be
    /// dropped", §3.3). Property evolution remains allowed — the uniform
    /// model lets users extend primitive types with new behaviors.
    pub fn freeze_type(&mut self, t: TypeId) -> Result<()> {
        self.slot_mut(t)?.frozen = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Type deletion (DT)
    // ------------------------------------------------------------------

    /// Validate the preconditions of [`Schema::drop_type`] without mutating
    /// anything. Composite operations (e.g. TIGUKAT's DT, which also drops
    /// the class and extent) call this first so the whole step is atomic.
    pub fn check_droppable(&self, t: TypeId) -> Result<()> {
        self.check_live(t)?;
        if self.types[t.index()].frozen {
            return Err(SchemaError::FrozenType(t));
        }
        if self.config.is_rooted() && Some(t) == self.root {
            return Err(SchemaError::CannotDropRoot(t));
        }
        if self.config.is_pointed() && Some(t) == self.base {
            return Err(SchemaError::CannotDropBase(t));
        }
        Ok(())
    }

    /// DT — drop a type: "the type is removed from `C_type` and from the
    /// `P_e` of all subtypes of `t`" (§3.3). Subtypes stay attached to
    /// whatever else they declared essential; under rootedness a subtype
    /// whose `P_e` would become empty is re-linked to `⊤`. Essential
    /// properties that were inherited through the dropped type are adopted
    /// as native automatically by the Axiom of Nativeness. Returns the
    /// types whose `P_e` was edited.
    pub fn drop_type(&mut self, t: TypeId) -> Result<Vec<TypeId>> {
        self.check_droppable(t)?;
        let subtypes: Vec<TypeId> = self.essential_subtypes(t)?.into_iter().collect();
        let relink_root = if self.config.is_rooted() {
            self.root
        } else {
            None
        };
        let mut relinked: Vec<TypeId> = Vec::new();
        for &c in &subtypes {
            let slot = self.types.make_mut(&self.obs, c.index());
            slot.pe.remove(t);
            if slot.pe.is_empty() {
                if let Some(root) = relink_root {
                    slot.pe.insert(root);
                    relinked.push(c);
                }
            }
        }
        for &c in &relinked {
            // relink_root is Some whenever relinked is non-empty.
            self.rev_insert(relink_root.expect("relink implies root"), c);
        }
        // t leaves the index: as a subtype of its own supertypes...
        let pe_of_t: Vec<TypeId> = self.types[t.index()].pe.iter().collect();
        for s in pe_of_t {
            self.rev_remove(s, t);
        }
        // ...and as a supertype (its subtypes just dropped their t-edges).
        self.rev.set(&self.obs, t.index(), TypeSet::new());
        let slot = self.types.make_mut(&self.obs, t.index());
        slot.alive = false;
        slot.pe.clear();
        slot.ne.clear();
        let name = slot.name.clone();
        self.live.remove(t);
        self.by_name.remove(&self.obs, &name);
        self.derived
            .set(&self.obs, t.index(), DerivedType::default());
        if !subtypes.is_empty() {
            self.note_change(&subtypes, ChangeKind::Edges);
        }
        self.bump_version();
        Ok(subtypes)
    }

    // ------------------------------------------------------------------
    // Subtype relationships (MT-ASR / MT-DSR)
    // ------------------------------------------------------------------

    /// MT-ASR — add `s` as an essential supertype of `t`. "Due to the axiom
    /// of acyclicity, the addition of a type as a supertype of another type
    /// is rejected if it introduces a cycle into the lattice" (§3.3).
    /// Whether `s` also becomes an *immediate* supertype is decided by the
    /// Axiom of Supertypes ("it is added to `P(t)` if and only if
    /// `s ∉ PL(t)` [through another path]", §2).
    pub fn add_essential_supertype(&mut self, t: TypeId, s: TypeId) -> Result<()> {
        self.check_live(t)?;
        self.check_live(s)?;
        if t == s {
            return Err(SchemaError::SelfSupertype(t));
        }
        if self.types[t.index()].frozen {
            return Err(SchemaError::FrozenType(t));
        }
        if self.config.is_pointed() && Some(s) == self.base {
            return Err(SchemaError::SubtypeOfBase(s));
        }
        if self.types[t.index()].pe.contains(s) {
            return Err(SchemaError::DuplicateSupertype {
                subtype: t,
                supertype: s,
            });
        }
        // Cycle check: s must not already have t above it. Outside a batch
        // the cached lattice answers this; mid-batch the derived state is
        // stale, so the equivalent input-level reachability query is used
        // (the upward closures of P_e and P coincide).
        let cyclic = if self.batch.is_some() {
            self.reaches_upward(s, t)
        } else {
            self.derived[s.index()].pl.contains(t)
        };
        if cyclic {
            return Err(SchemaError::WouldCreateCycle {
                subtype: t,
                supertype: s,
            });
        }
        self.types.make_mut(&self.obs, t.index()).pe.insert(s);
        self.rev_insert(s, t);
        self.note_change(&[t], ChangeKind::Edges);
        self.bump_version();
        Ok(())
    }

    /// MT-DSR — drop `s` as an essential supertype of `t`.
    ///
    /// On a rooted lattice, dropping the root edge is rejected when it is
    /// the *last* essential supertype — that would disconnect `t` and break
    /// the Axiom of Rootedness. A redundant direct root edge (other
    /// essential supertypes remain, and each of them reaches `⊤` by the
    /// rootedness invariant) may be dropped; Orion's OP4 relies on this.
    /// TIGUKAT's stricter policy — "a subtype relationship to `T_object`
    /// cannot be dropped" at all (§3.3) — is enforced by
    /// `axiombase-tigukat`'s MT-DSR on top of this rule. If the drop empties
    /// `P_e(t)`, the type is re-linked to `⊤` (rootedness preservation).
    pub fn drop_essential_supertype(&mut self, t: TypeId, s: TypeId) -> Result<()> {
        self.check_live(t)?;
        self.check_live(s)?;
        if self.types[t.index()].frozen {
            return Err(SchemaError::FrozenType(t));
        }
        if !self.types[t.index()].pe.contains(s) {
            return Err(SchemaError::NotAnEssentialSupertype {
                subtype: t,
                supertype: s,
            });
        }
        if self.config.is_rooted() && Some(s) == self.root && self.types[t.index()].pe.len() == 1 {
            return Err(SchemaError::RootEdgeDrop { subtype: t });
        }
        if self.config.is_pointed() && Some(t) == self.base {
            return Err(SchemaError::BaseEdgeDrop { supertype: s });
        }
        self.types.make_mut(&self.obs, t.index()).pe.remove(s);
        self.rev_remove(s, t);
        if self.types[t.index()].pe.is_empty() {
            if let (true, Some(root)) = (self.config.is_rooted(), self.root) {
                self.types.make_mut(&self.obs, t.index()).pe.insert(root);
                self.rev_insert(root, t);
            }
        }
        self.note_change(&[t], ChangeKind::Edges);
        self.bump_version();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Essential properties (MT-AB / MT-DB)
    // ------------------------------------------------------------------

    /// MT-AB — add `p` to `N_e(t)`; `N`, `H`, `I` are recomputed. Returns
    /// `true` if `N_e(t)` actually changed (re-adding is idempotent:
    /// "defining an already inherited property on a type would not include
    /// the property in `N`, but would include it in `N_e`", §2).
    pub fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<bool> {
        self.check_live(t)?;
        self.check_live_prop(p)?;
        let inserted = self.types.make_mut(&self.obs, t.index()).ne.insert(p);
        if inserted {
            self.note_change(&[t], ChangeKind::PropsOnly);
            self.bump_version();
        }
        Ok(inserted)
    }

    /// Convenience: define a fresh property and add it as essential to `t`.
    pub fn define_property_on(&mut self, t: TypeId, name: impl Into<String>) -> Result<PropId> {
        self.check_live(t)?;
        let p = self.add_property(name);
        self.add_essential_property(t, p)?;
        Ok(p)
    }

    /// MT-DB — remove `p` from `N_e(t)`; `N`, `H`, `I` are recomputed.
    /// "Note that this may not actually remove `b` from the interface of `t`
    /// because `b` may be inherited from one or more supertypes of `t`"
    /// (§3.3). Dropping a property that is not essential on `t` is an error.
    pub fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<()> {
        self.check_live(t)?;
        self.check_live_prop(p)?;
        if !self.types[t.index()].ne.contains(p) {
            return Err(SchemaError::NotAnEssentialProperty { ty: t, prop: p });
        }
        self.types.make_mut(&self.obs, t.index()).ne.remove(p);
        self.note_change(&[t], ChangeKind::PropsOnly);
        self.bump_version();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn check_fresh_name(&self, name: &str) -> Result<()> {
        match self.type_by_name(name) {
            Some(_) => Err(SchemaError::DuplicateTypeName(name.to_string())),
            None => Ok(()),
        }
    }

    fn push_type(&mut self, name: String, pe: TypeSet, ne: PropSet) -> Result<TypeId> {
        // The one arena-bound check on the type-allocation path: the kernel
        // validates the slot index fits the u32 id/bit space and the typed
        // error surfaces on the public `Result` paths instead of a panic.
        let raw = ensure_arena_index(self.types.len(), ArenaKind::Types)?;
        let t = TypeId::from_u32(raw);
        self.by_name.insert(&self.obs, name.clone(), t);
        let parents: Vec<TypeId> = pe.iter().collect();
        self.types.push(
            &self.obs,
            TypeSlot {
                name,
                alive: true,
                frozen: false,
                pe,
                ne,
            },
        );
        self.derived.push(&self.obs, DerivedType::default());
        self.rev.push(&self.obs, TypeSet::new());
        self.live.insert(t);
        for s in parents {
            self.rev_insert(s, t);
        }
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Batched evolution
    // ------------------------------------------------------------------

    /// Run many evolution steps with **one** recomputation at the end.
    ///
    /// Inside the closure every operation validates and applies its
    /// input edits (`P_e`/`N_e`) exactly as usual — all rejection rules are
    /// input-level, so acceptance decisions are identical to running the
    /// same operations un-batched — but the derivation of Axioms 5–9 is
    /// deferred: change seeds accumulate and a single
    /// `recompute_after_many` over their union runs when the closure
    /// returns. A trace of `k` edits over a down-set of size `d` thus costs
    /// one scoped derivation instead of `k` (the amortization the paper's
    /// "efficient algorithms" future work asks for).
    ///
    /// **No verdict reads a derived row.** Every rejection rule reads the
    /// inputs, the name index and the arena only; mid-batch, the cycle
    /// check of [`Schema::add_essential_supertype`] walks `P_e` instead of
    /// the cached `PL`. That is what lets a checkpoint load skip its own
    /// derivation: the journal readers replay their frames on the parsed
    /// inputs, with no derived row at all, in a batch whose end is the one
    /// full derivation. An operation that reads derived state for its
    /// verdict would break that replay; keep every rule input-level.
    ///
    /// **Mid-batch staleness:** while the closure runs, derived accessors
    /// (`interface`, `super_lattice`, `verify`, …) reflect the state at
    /// batch entry, not the pending edits; input accessors
    /// (`essential_supertypes`, `essential_subtypes`, `type_by_name`, …)
    /// are always current. Nested calls are flattened into the outer batch.
    ///
    /// **Errors:** if the closure fails mid-way, the already-applied input
    /// edits remain (a plain `Schema` has no rollback) and the schema is
    /// still recomputed to a consistent state before the error is returned.
    /// For all-or-nothing semantics evolve a copy — exactly what
    /// [`crate::SharedSchema::evolve_batch`] does: on `Err` the staged
    /// clone is discarded and nothing is published.
    pub fn evolve_batch<F, R>(&mut self, f: F) -> Result<R>
    where
        F: FnOnce(&mut Schema) -> Result<R>,
    {
        if self.batch.is_some() {
            // Re-entrant: inner batches join the outer one.
            return f(self);
        }
        self.batch = Some(BatchState::new());
        let out = f(self);
        let st = self.batch.take().expect("batch state set above");
        crate::engine::finish_batch(self, &st);
        out
    }

    /// Apply a recorded operation trace as one batch (one recomputation).
    /// Returns the number of operations applied; stops at the first
    /// rejection (see [`Schema::evolve_batch`] for error semantics).
    pub fn apply_trace(&mut self, ops: &[RecordedOp]) -> Result<usize> {
        self.evolve_batch(|s| {
            for op in ops {
                op.apply(s)?;
            }
            Ok(ops.len())
        })
    }

    /// Execute a certified evolution plan over `ops`.
    ///
    /// The certificate is re-verified before anything executes, and a
    /// plan that fails returns [`SchemaError::PlanRejected`] with the
    /// schema untouched. A trivially sequential certificate (one class,
    /// whole trace, trace order) reorders nothing, so it is admitted on
    /// the O(n) structural obligation alone ([`plan::check_sequential`]);
    /// anything claiming structure goes through the independent
    /// [`plan::check`]. Success returns the admitted [`PlanCheck`]: every
    /// one of its `ops` applied.
    ///
    /// The admitted plan runs as one [`Schema::evolve_batch`], joining an
    /// outer batch if there is one: classes in certified stage order, each
    /// class's ops in trace order, and one scoped derivation at the end.
    /// That is exact. Every rejection rule reads inputs (`P_e`/`N_e`) only,
    /// the certificate proves every interfering pair keeps trace order,
    /// and the derived lattice is a function of the final inputs. So the
    /// fingerprint, version and metrics (apart from the `plan.*` counters)
    /// are those of [`Schema::apply_trace`] on the same trace.
    ///
    /// On a rejected op the applied prefix, in stage order, stays applied
    /// and recomputed (as in [`Schema::apply_trace`]); wrap in
    /// [`SharedSchema::apply_plan`](crate::SharedSchema::apply_plan) for
    /// all-or-nothing publication.
    pub fn apply_plan(&mut self, ops: &[RecordedOp], plan: &EvolutionPlan) -> Result<PlanCheck> {
        let cert = &plan.certificate;
        let verdict = match plan::check_sequential(ops.len(), cert) {
            Some(v) => v,
            None => plan::check(self, ops, cert).map_err(|why| {
                if let Some(obs) = &self.obs {
                    obs.registry().add(names::PLAN_CHECKS_FAILED, 1);
                }
                SchemaError::PlanRejected(why)
            })?,
        };
        if let Some(obs) = &self.obs {
            obs.registry().fold_plan_check(&verdict);
        }
        // The admitted classes partition the trace, so success applies it all.
        self.evolve_batch(|s| {
            for ci in cert.stage_table().into_iter().flatten() {
                for &i in &cert.classes[ci].ops {
                    ops[i].apply(s)?;
                }
            }
            Ok(())
        })?;
        if let Some(obs) = &self.obs {
            obs.registry().add(names::PLAN_APPLIES, 1);
            obs.registry().add(names::PLAN_OPS, verdict.ops as u64);
        }
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatticeConfig, Pointedness, Rootedness};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn rooted() -> (Schema, TypeId) {
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("T_object").unwrap();
        (s, root)
    }

    #[test]
    fn at_defaults_to_root_supertype() {
        let (mut s, root) = rooted();
        let t = s.add_type("A", [], []).unwrap();
        assert_eq!(s.essential_supertypes(t).unwrap(), BTreeSet::from([root]));
        assert_eq!(s.immediate_supertypes(t).unwrap(), BTreeSet::from([root]));
    }

    #[test]
    fn at_requires_root_on_rooted_lattice() {
        let mut s = Schema::new(LatticeConfig::default());
        assert_eq!(s.add_type("A", [], []).unwrap_err(), SchemaError::NoRoot);
    }

    #[test]
    fn second_root_rejected_when_rooted() {
        let (mut s, root) = rooted();
        assert_eq!(
            s.add_root_type("again").unwrap_err(),
            SchemaError::RootAlreadyDesignated(root)
        );
    }

    #[test]
    fn forest_allows_many_roots() {
        let mut s = Schema::new(LatticeConfig::RELAXED);
        let a = s.add_root_type("A").unwrap();
        let b = s.add_root_type("B").unwrap();
        assert_ne!(a, b);
        assert!(s.root().is_none());
        // Parentless add_type is fine on a forest.
        let c = s.add_type("C", [], []).unwrap();
        assert!(s.essential_supertypes(c).unwrap().is_empty());
    }

    #[test]
    fn pointed_lattice_tracks_new_types_in_base() {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let root = s.add_root_type("T_object").unwrap();
        let base = s.add_base_type("T_null").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        // AT adds the new type to P_e(T_null).
        assert!(s.essential_supertypes(base).unwrap().contains(&a));
        assert!(s.super_lattice(base).unwrap().contains(&a));
        // Pointedness: base is below everything.
        assert!(s.is_supertype_of(a, base).unwrap());
        // And nothing may subtype the base.
        assert_eq!(
            s.add_type("B", [base], []).unwrap_err(),
            SchemaError::SubtypeOfBase(base)
        );
    }

    #[test]
    fn cycle_rejected_and_schema_unchanged() {
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        let fp = s.fingerprint();
        assert_eq!(
            s.add_essential_supertype(a, b).unwrap_err(),
            SchemaError::WouldCreateCycle {
                subtype: a,
                supertype: b
            }
        );
        assert_eq!(s.fingerprint(), fp, "rejected op must not mutate");
        assert_eq!(
            s.add_essential_supertype(a, a).unwrap_err(),
            SchemaError::SelfSupertype(a)
        );
    }

    #[test]
    fn root_edge_drop_rejected() {
        let (mut s, root) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        assert_eq!(
            s.drop_essential_supertype(a, root).unwrap_err(),
            SchemaError::RootEdgeDrop { subtype: a }
        );
    }

    #[test]
    fn drop_last_non_root_supertype_relinks_to_root() {
        let (mut s, root) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        s.drop_essential_supertype(b, a).unwrap();
        assert_eq!(s.essential_supertypes(b).unwrap(), BTreeSet::from([root]));
    }

    #[test]
    fn drop_type_edits_subtype_inputs() {
        let (mut s, root) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        let edited = s.drop_type(a).unwrap();
        assert_eq!(edited, vec![b]);
        assert!(!s.is_live(a));
        assert_eq!(s.essential_supertypes(b).unwrap(), BTreeSet::from([root]));
        assert_eq!(s.type_by_name("A"), None);
        // Dangling accessors error.
        assert_eq!(s.super_lattice(a).unwrap_err(), SchemaError::UnknownType(a));
    }

    #[test]
    fn drop_root_and_frozen_rejected() {
        let (mut s, root) = rooted();
        assert_eq!(
            s.drop_type(root).unwrap_err(),
            SchemaError::CannotDropRoot(root)
        );
        let a = s.add_type("A", [], []).unwrap();
        s.freeze_type(a).unwrap();
        assert_eq!(s.drop_type(a).unwrap_err(), SchemaError::FrozenType(a));
        let b = s.add_type("B", [], []).unwrap();
        assert_eq!(
            s.add_essential_supertype(a, b).unwrap_err(),
            SchemaError::FrozenType(a)
        );
        // Frozen types may still gain properties (uniform extensibility).
        let p = s.add_property("x");
        assert!(s.add_essential_property(a, p).unwrap());
    }

    #[test]
    fn essential_property_adoption_on_supertype_drop() {
        // The paper's §2 example: "taxBracket" defined on T_taxSource,
        // declared essential on T_employee; deleting T_taxSource adopts it
        // as native on T_employee.
        let (mut s, _root) = rooted();
        let tax = s.add_type("T_taxSource", [], []).unwrap();
        let bracket = s.define_property_on(tax, "taxBracket").unwrap();
        let employee = s.add_type("T_employee", [tax], []).unwrap();
        s.add_essential_property(employee, bracket).unwrap();
        assert!(s.inherited_properties(employee).unwrap().contains(&bracket));
        assert!(!s.native_properties(employee).unwrap().contains(&bracket));
        s.drop_type(tax).unwrap();
        assert!(s.native_properties(employee).unwrap().contains(&bracket));
        assert!(s.interface(employee).unwrap().contains(&bracket));
    }

    #[test]
    fn drop_property_everywhere() {
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        let p = s.define_property_on(a, "x").unwrap();
        s.add_essential_property(b, p).unwrap();
        let holders = s.drop_property(p).unwrap();
        assert_eq!(holders, vec![a, b]);
        assert!(!s.is_live_prop(p));
        assert!(!s.interface(b).unwrap().contains(&p));
        assert_eq!(s.drop_property(p).unwrap_err(), SchemaError::UnknownProp(p));
    }

    #[test]
    fn mt_db_keeps_inherited_property_visible() {
        // "this may not actually remove b from the interface of t because b
        // may be inherited" (§3.3).
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        let p = s.define_property_on(a, "x").unwrap();
        s.add_essential_property(b, p).unwrap();
        s.drop_essential_property(b, p).unwrap();
        assert!(s.interface(b).unwrap().contains(&p), "still inherited");
        // Dropping the defining link removes it entirely.
        s.drop_essential_property(a, p).unwrap();
        assert!(!s.interface(b).unwrap().contains(&p));
    }

    #[test]
    fn rename_type_preserves_structure() {
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let fp_struct = s.super_lattice(a).unwrap();
        s.rename_type(a, "A2").unwrap();
        assert_eq!(s.type_by_name("A2"), Some(a));
        assert_eq!(s.type_by_name("A"), None);
        assert_eq!(s.super_lattice(a).unwrap(), fp_struct);
        // Renaming to an existing name fails.
        let b = s.add_type("B", [], []).unwrap();
        assert_eq!(
            s.rename_type(b, "A2").unwrap_err(),
            SchemaError::DuplicateTypeName("A2".into())
        );
        // Renaming to own name is a no-op.
        s.rename_type(b, "B").unwrap();
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut s, root) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        assert_eq!(
            s.add_essential_supertype(a, root).unwrap_err(),
            SchemaError::DuplicateSupertype {
                subtype: a,
                supertype: root
            }
        );
    }

    #[test]
    fn add_property_is_idempotent_on_readd() {
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let p = s.add_property("x");
        assert!(s.add_essential_property(a, p).unwrap());
        assert!(!s.add_essential_property(a, p).unwrap());
        assert_eq!(
            s.drop_essential_property(a, PropId::from_index(99))
                .unwrap_err(),
            SchemaError::UnknownProp(PropId::from_index(99))
        );
    }

    #[test]
    fn evolve_batch_matches_op_by_op() {
        let body = |s: &mut Schema| -> Result<()> {
            let p = s.add_property("x");
            let a = s.add_type("A", [], [p])?;
            let b = s.add_type("B", [a], [])?;
            let c = s.add_type("C", [a], [])?;
            s.add_essential_supertype(c, b)?;
            s.drop_essential_supertype(c, a)?;
            s.add_essential_property(b, p)?;
            s.drop_type(a)?;
            Ok(())
        };
        let (mut plain, _) = rooted();
        body(&mut plain).unwrap();
        let (mut batched, _) = rooted();
        batched.evolve_batch(body).unwrap();
        assert_eq!(plain.fingerprint(), batched.fingerprint());
        assert!(batched.verify().is_empty());
        assert!(crate::oracle::check_schema(&batched).is_empty());
    }

    #[test]
    fn batch_performs_single_scoped_recompute() {
        let (mut s, _) = rooted();
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        s.reset_stats();
        let p = s
            .evolve_batch(|s| {
                let p = s.add_property("x");
                s.add_essential_property(a, p)?;
                let q = s.add_property("y");
                s.add_essential_property(b, q)?;
                s.drop_essential_property(b, q)?;
                Ok(p)
            })
            .unwrap();
        assert_eq!(s.stats().scoped_recomputes, 1, "one recompute per batch");
        assert_eq!(s.stats().full_recomputes, 0);
        assert!(s.interface(b).unwrap().contains(&p));
    }

    #[test]
    fn empty_affected_set_counts_as_noop_recompute() {
        // A batch that adds and then drops the same type leaves no live
        // seed: derive_scoped touches zero types. That must be recorded as
        // a no-op, not inflate scoped_recomputes (which would skew the
        // work-per-recompute ablation ratio).
        let (mut s, _) = rooted();
        s.reset_stats();
        s.evolve_batch(|s| {
            let x = s.add_type("X", [], [])?;
            s.drop_type(x)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(s.stats().noop_recomputes, 1);
        assert_eq!(s.stats().scoped_recomputes, 0);
        assert_eq!(s.stats().last_types_derived, 0);
        assert!(s.verify().is_empty());
    }

    #[test]
    fn cycle_rejected_mid_batch_via_input_reachability() {
        // Mid-batch the cached lattices are stale, so the cycle check runs
        // on the inputs; the rejection must be identical to the un-batched
        // one, and the schema must come out of the batch consistent.
        let (mut s, _) = rooted();
        let err = s
            .evolve_batch(|s| {
                let a = s.add_type("A", [], [])?;
                let b = s.add_type("B", [a], [])?;
                s.add_essential_supertype(a, b)
            })
            .unwrap_err();
        assert!(matches!(err, SchemaError::WouldCreateCycle { .. }));
        // The failed batch still finalized into a consistent (if not rolled
        // back) schema: A and B exist and all axioms hold.
        assert!(s.type_by_name("A").is_some());
        assert!(s.verify().is_empty());
        assert!(crate::oracle::check_schema(&s).is_empty());
    }

    #[test]
    fn nested_batches_flatten_into_outer() {
        let (mut s, _) = rooted();
        s.reset_stats();
        s.evolve_batch(|s| {
            let a = s.add_type("A", [], [])?;
            s.evolve_batch(|s| s.add_type("B", [a], []).map(|_| ()))?;
            s.add_type("C", [a], []).map(|_| ())
        })
        .unwrap();
        assert_eq!(
            s.stats().scoped_recomputes + s.stats().full_recomputes,
            1,
            "inner batch must not recompute on its own"
        );
        assert!(s.verify().is_empty());
    }

    #[test]
    fn apply_trace_is_one_batch() {
        use crate::history::RecordedOp;
        let (mut s, _) = rooted();
        s.reset_stats();
        let n = s
            .apply_trace(&[
                RecordedOp::AddProperty { name: "x".into() },
                RecordedOp::AddType {
                    name: "A".into(),
                    supers: vec![],
                    props: vec![PropId::from_index(0)],
                },
                RecordedOp::AddType {
                    name: "B".into(),
                    supers: vec![TypeId::from_index(1)],
                    props: vec![],
                },
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(s.stats().scoped_recomputes, 1);
        let b = s.type_by_name("B").unwrap();
        assert!(s.interface(b).unwrap().contains(&PropId::from_index(0)));
    }

    #[test]
    fn unpointed_unrooted_combo() {
        let cfg = LatticeConfig {
            rootedness: Rootedness::Forest,
            pointedness: Pointedness::Open,
        };
        let mut s = Schema::new(cfg);
        let a = s.add_type("A", [], []).unwrap();
        let b = s.add_type("B", [a], []).unwrap();
        // Dropping the only supertype leaves B parentless on a forest.
        s.drop_essential_supertype(b, a).unwrap();
        assert!(s.essential_supertypes(b).unwrap().is_empty());
    }

    /// A lattice with four disjoint diamonds, each contributing one
    /// redundant-edge drop: four slot-disjoint classes in one stage.
    fn four_diamonds() -> (Schema, Vec<RecordedOp>) {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let mut ops = Vec::new();
        for d in 0..4 {
            let p1 = s.add_type(format!("p1_{d}"), [], []).unwrap();
            let p2 = s.add_type(format!("p2_{d}"), [], []).unwrap();
            let c = s.add_type(format!("c_{d}"), [p1, p2], []).unwrap();
            ops.push(RecordedOp::DropEssentialSupertype { t: c, s: p1 });
        }
        (s, ops)
    }

    fn plan_for(s: &Schema, ops: &[RecordedOp]) -> EvolutionPlan {
        plan::build_plan(&crate::analysis::analyze_trace(s, ops))
    }

    #[test]
    fn plan_apply_matches_sequential() {
        let (mut s, ops) = four_diamonds();
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        assert_eq!(plan.stage_count(), 1, "{}", plan.to_text());
        assert_eq!(plan.max_parallelism(), 4);
        let done = s.apply_plan(&ops, &plan).unwrap();
        assert_eq!(done.ops, 4);
        assert_eq!(done.classes, 4);
        assert_eq!(
            s.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert_eq!(s.version(), sequential.version());
        assert!(s.verify().is_empty());
    }

    #[test]
    fn stage_mates_sharing_a_descendant_apply_like_the_trace() {
        // Drops on rows `a` and `b`, which share the descendant `shared`:
        // slot-disjoint, so one stage, though both change `shared`'s
        // derived rows. One derivation after the batch covers both.
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
        let plan = plan_for(&s, &ops);
        assert_eq!(plan.class_count(), 2, "{}", plan.to_text());
        assert_eq!(plan.stage_count(), 1, "{}", plan.to_text());
        plan::check(&s, &ops, &plan.certificate).expect("the checker admits the plan");
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        s.apply_plan(&ops, &plan).unwrap();
        assert_eq!(
            s.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert_eq!(s.version(), sequential.version());
        assert!(s.verify().is_empty());
    }

    #[test]
    fn sequential_plan_fast_path_matches_batched_apply() {
        // Every pair of toggles on one edge conflicts → the planner
        // emits a single whole-trace class, which the executor admits on
        // the structural obligation alone.
        let (s, _) = four_diamonds();
        let t = s.type_by_name("c_0").unwrap();
        let p2 = s.type_by_name("p2_0").unwrap();
        let ops: Vec<RecordedOp> = (0..6)
            .map(|k| {
                if k % 2 == 0 {
                    RecordedOp::DropEssentialSupertype { t, s: p2 }
                } else {
                    RecordedOp::AddEssentialSupertype { t, s: p2 }
                }
            })
            .collect();
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        assert_eq!(plan.class_count(), 1, "{}", plan.to_text());
        assert!(
            plan::check_sequential(ops.len(), &plan.certificate).is_some(),
            "whole-trace single class must qualify for the fast path"
        );
        let mut fast = s.clone();
        let done = fast.apply_plan(&ops, &plan).unwrap();
        assert_eq!(done.ops, ops.len());
        assert_eq!((done.stages, done.classes), (1, 1));
        assert_eq!(
            fast.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert_eq!(fast.version(), sequential.version());
        assert!(fast.verify().is_empty());

        // A structurally broken "sequential" certificate does not
        // qualify and is refused by the full checker, schema untouched.
        let mut bad = plan.clone();
        bad.certificate.classes[0].ops.swap(0, 1);
        assert!(plan::check_sequential(ops.len(), &bad.certificate).is_none());
        let mut s2 = s.clone();
        let before = (s2.canonical_fingerprint(), s2.version());
        let err = s2.apply_plan(&ops, &bad).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!((s2.canonical_fingerprint(), s2.version()), before);
    }

    #[test]
    fn plan_apply_handles_interference_and_allocation() {
        // Mixed trace: allocation, property churn and same-row edits —
        // multiple stages, arena growth inside the one batch.
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("obj").unwrap();
        let a = s.add_type("a", [], []).unwrap();
        let b = s.add_type("b", [], []).unwrap();
        let c = s.add_type("c", [a, b], []).unwrap();
        let p = s.add_property("x");
        let ops = vec![
            RecordedOp::AddProperty { name: "y".into() },
            RecordedOp::AddType {
                name: "t_new".into(),
                supers: vec![a],
                props: vec![],
            },
            RecordedOp::AddEssentialProperty { t: c, p },
            RecordedOp::DropEssentialProperty { t: c, p },
            RecordedOp::RenameType {
                t: b,
                name: "b2".into(),
            },
        ];
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        let done = s.apply_plan(&ops, &plan).unwrap();
        assert_eq!(done.ops, ops.len());
        assert_eq!(
            s.canonical_fingerprint(),
            sequential.canonical_fingerprint(),
            "{}",
            plan.to_text()
        );
        assert_eq!(s.version(), sequential.version());
        assert!(s.verify().is_empty());
    }

    #[test]
    fn tampered_certificate_is_refused_untouched() {
        let (mut s, ops) = four_diamonds();
        let plan = plan_for(&s, &ops);
        let before_fp = s.canonical_fingerprint();
        let before_v = s.version();
        // Tamper: claim op 0 twice.
        let mut bad = EvolutionPlan {
            certificate: plan::PlanCertificate {
                ops_len: plan.certificate.ops_len,
                classes: plan.certificate.classes.clone(),
                edges: vec![],
            },
            labels: plan.labels.clone(),
        };
        bad.certificate.classes[1].ops = vec![0];
        let err = s.apply_plan(&ops, &bad).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!(s.canonical_fingerprint(), before_fp);
        assert_eq!(s.version(), before_v);
    }

    #[test]
    fn out_of_range_stage_is_refused_untouched() {
        let (mut s, ops) = four_diamonds();
        let one_op = &ops[..1];
        let plan = plan_for(&s, one_op);
        assert_eq!(plan.certificate.classes.len(), 1);
        let before_fp = s.canonical_fingerprint();
        let before_v = s.version();
        for stage in [1usize << 40, usize::MAX] {
            let mut bad = plan.clone();
            bad.certificate.classes[0].stage = stage;
            let err = s.apply_plan(one_op, &bad).unwrap_err();
            assert!(
                matches!(&err, SchemaError::PlanRejected(why) if why.contains("claims stage")),
                "{err}"
            );
            assert_eq!(s.canonical_fingerprint(), before_fp);
            assert_eq!(s.version(), before_v);
        }
    }

    #[test]
    fn plan_metrics_equal_batched_apply() {
        let run = |planned: bool| {
            let registry = Arc::new(crate::obs::MetricsRegistry::new());
            let (mut s, ops) = four_diamonds();
            let plan = plan_for(&s, &ops);
            s.attach_obs(Arc::new(crate::obs::EvolveObs::new(registry.clone())));
            if planned {
                s.apply_plan(&ops, &plan).unwrap();
            } else {
                s.apply_trace(&ops).unwrap();
            }
            registry.snapshot()
        };
        let mut planned = run(true);
        assert_eq!(planned.counters.get(names::PLAN_CHECKS), Some(&1));
        assert_eq!(planned.counters.get(names::PLAN_APPLIES), Some(&1));
        assert_eq!(planned.counters.get(names::PLAN_OPS), Some(&4));
        let mut batched = run(false);
        for snap in [&mut planned, &mut batched] {
            snap.counters
                .retain(|name, _| name != names::ENGINE_COW_COPIES && !name.starts_with("plan."));
        }
        assert_eq!(planned, batched);
        assert_eq!(planned.counters.get(names::ENGINE_SCOPED), Some(&1));
    }

    #[test]
    fn mid_batch_plan_joins_outer_batch() {
        let (mut s, ops) = four_diamonds();
        let mut sequential = s.clone();
        sequential.apply_trace(&ops).unwrap();
        let plan = plan_for(&s, &ops);
        s.evolve_batch(|inner| {
            let done = inner.apply_plan(&ops, &plan)?;
            assert_eq!(done.ops, 4);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            s.canonical_fingerprint(),
            sequential.canonical_fingerprint()
        );
        assert!(s.verify().is_empty());
    }

    #[test]
    fn mutated_trace_is_refused_untouched() {
        let (mut s, mut ops) = four_diamonds();
        let plan = plan_for(&s, &ops);
        let before_fp = s.canonical_fingerprint();
        // Point one drop at an edge that does not exist: c_2's partner is
        // replaced by another type on purpose.
        if let RecordedOp::DropEssentialSupertype { t, .. } = &mut ops[2] {
            *t = TypeId::from_index(1);
        }
        // The certificate no longer matches the mutated trace, so the
        // checker itself must refuse — the schema stays untouched.
        let err = s.apply_plan(&ops, &plan).unwrap_err();
        assert!(matches!(err, SchemaError::PlanRejected(_)), "{err}");
        assert_eq!(s.canonical_fingerprint(), before_fp);
    }

    #[test]
    fn rejected_op_keeps_the_applied_prefix() {
        // The checker reasons over inputs only, so it certifies a plan
        // whose last op (a duplicate type name) is refused at execution.
        let (base, mut ops) = four_diamonds();
        ops.push(RecordedOp::AddType {
            name: "c_0".into(),
            supers: vec![],
            props: vec![],
        });
        let plan = plan_for(&base, &ops);
        let mut prefix = base.clone();
        prefix.apply_trace(&ops[..4]).unwrap();

        let mut s = base.clone();
        let err = s.apply_plan(&ops, &plan).unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateTypeName(_)), "{err}");
        assert_eq!(s.canonical_fingerprint(), prefix.canonical_fingerprint());
        assert!(s.verify().is_empty(), "the applied prefix is recomputed");

        let shared = crate::SharedSchema::new(base.clone());
        assert!(shared.apply_plan(&ops, &plan, None).is_err());
        assert_eq!(shared.version(), base.version(), "nothing is published");
        assert_eq!(
            shared.snapshot().canonical_fingerprint(),
            base.canonical_fingerprint()
        );
    }
}
