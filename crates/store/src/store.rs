//! The object store: instances, extents, and propagation-aware access.
//!
//! A class "is responsible for managing all instances of a particular type
//! (i.e., the type extent)" (§3.1). [`ObjectStore`] manages those extents
//! and coerces instances across schema changes according to the configured
//! [`Policy`]. It is deliberately schema-agnostic: every access takes the
//! current [`Schema`] so the store always judges conformance against the
//! live interface — the essence of *dynamic* schema evolution.
//!
//! Every access reads the type's interface as the schema's own `PropSet`
//! row ([`Schema::derived`]), so no access materialises an interface.
//!
//! **Layout.** The object table hashes an [`Oid`] to its record, whose
//! [`Slots`] are one vector in ascending property order; an extent is an
//! ascending vector of oids. Finding a record costs one hash lookup, a
//! slot read one binary search over the record's slots, and reconciling
//! a record with its type's interface one merge of the two ascending
//! sequences. The table is hashed rather than indexed by oid because a
//! loaded store may name any `u64` identity: it allocates by the records
//! it holds, and a deleted object leaves no hole.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hasher};

use axiombase_core::analysis::PropagationPlan;
use axiombase_core::{PropId, PropSet, Schema, SchemaError, TypeId};

use crate::object::{Conformance, ObjectRecord, Oid, Slots};
use crate::propagation::{Policy, PropagationStats};
use crate::value::Value;

/// Errors raised by instance-level operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// No object with this identity exists (or it was deleted).
    UnknownObject(Oid),
    /// The object's type does not expose this property in its *current*
    /// interface.
    NotInInterface {
        /// The object accessed.
        oid: Oid,
        /// The property that is not in the interface.
        prop: PropId,
    },
    /// The filtering policy rejected access to a non-conforming instance.
    FilteredOut(Oid),
    /// A propagation plan's step does not fit the schema it runs against:
    /// the step keeps the extent of a dead type, or drops the extent of a
    /// live one.
    PlanMismatch(TypeId),
    /// A schema-level error surfaced during an instance operation.
    Schema(SchemaError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownObject(o) => write!(f, "unknown object {o}"),
            StoreError::NotInInterface { oid, prop } => {
                write!(
                    f,
                    "property {prop} is not in the current interface of {oid}'s type"
                )
            }
            StoreError::FilteredOut(o) => {
                write!(
                    f,
                    "object {o} does not conform to the current schema (filtering policy)"
                )
            }
            StoreError::PlanMismatch(t) => {
                write!(f, "the plan's step for type {t} does not fit the schema")
            }
            StoreError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SchemaError> for StoreError {
    fn from(e: SchemaError) -> Self {
        StoreError::Schema(e)
    }
}

/// Result alias for store operations.
pub type Result<T, E = StoreError> = std::result::Result<T, E>;

/// What [`ObjectStore::apply_plan`] does with the instances of a type the
/// plan drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrphanAction {
    /// Delete them ("the extent managed by a dropped class is also
    /// dropped", §3.3).
    Delete,
    /// Migrate them to another (live) type, preserving shared slots
    /// ("instances can be ported to some other type prior to being
    /// dropped", §3.3).
    MigrateTo(TypeId),
}

/// Outcome counters from [`ObjectStore::apply_plan`]. Its conversions
/// also count in [`ObjectStore::stats`], as conversions at schema-change
/// time, with the slots they add and drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Instances reconciled with their type's interface.
    pub converted: usize,
    /// Slot values carried to their same-named replacement property.
    pub rekeyed: usize,
    /// Instances of dropped types deleted.
    pub orphans_deleted: usize,
    /// Instances of dropped types migrated.
    pub orphans_migrated: usize,
}

/// The object table's hash. A block of 64 consecutive identities keeps
/// its order in the table: the block number goes through one keyed
/// 128-bit multiply, folded to 64 bits, and the identity's low six bits
/// sit below that and are mixed into the top seven bits, which the table
/// compares first. Records created together therefore sit together, so a
/// pass over them (marking a type stale, reading what a migration
/// changed) touches the same memory however many other records the table
/// holds. The keys are drawn per table from [`RandomState`], so no store
/// file can choose identities that collide.
#[derive(Debug, Clone)]
struct OidHash {
    k0: u64,
    k1: u64,
}

impl Default for OidHash {
    fn default() -> Self {
        let key = |salt: u64| RandomState::new().hash_one(salt);
        OidHash {
            k0: key(0),
            k1: key(1) | 1,
        }
    }
}

impl BuildHasher for OidHash {
    type Hasher = OidHasher;

    fn build_hasher(&self) -> OidHasher {
        OidHasher {
            keys: (self.k0, self.k1),
            state: 0,
        }
    }
}

/// The hasher [`OidHash`] builds.
#[derive(Debug)]
struct OidHasher {
    keys: (u64, u64),
    state: u64,
}

impl Hasher for OidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let (block, low) = (n >> 6, n & 63);
        let m = u128::from(self.state ^ block ^ self.keys.0) * u128::from(self.keys.1);
        let b = (m as u64) ^ ((m >> 64) as u64);
        self.state = (b << 6 | low) ^ (low << 57);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// An instance store with per-type extents and a change-propagation policy.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: HashMap<Oid, ObjectRecord, OidHash>,
    /// Per type, its instances' oids, ascending.
    extents: HashMap<TypeId, Vec<Oid>>,
    /// Per type, the oids that turned `Conforming` since the type was last
    /// marked stale. **Invariant:** every `Conforming` record of type `t`
    /// is listed under `t`. Entries may be stale (the record was deleted,
    /// migrated or marked since), so [`Self::on_schema_change`] re-checks
    /// each one it drains. [`list_conforming`] keeps a list within twice
    /// its extent.
    conforming: HashMap<TypeId, Vec<Oid>>,
    next: u64,
    policy: Policy,
    stats: PropagationStats,
}

impl ObjectStore {
    /// Create an empty store with the given propagation policy.
    pub fn new(policy: Policy) -> Self {
        ObjectStore {
            policy,
            ..Default::default()
        }
    }

    /// The propagation policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Cumulative propagation statistics.
    pub fn stats(&self) -> &PropagationStats {
        &self.stats
    }

    /// Reset the propagation statistics.
    pub fn reset_stats(&mut self) {
        self.stats = PropagationStats::default();
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Create an instance of `ty`, with one `Null` slot per interface
    /// property, and add it to the type's extent.
    pub fn create(&mut self, schema: &Schema, ty: TypeId) -> Result<Oid> {
        let slots = Slots::nulls(&schema.derived(ty)?.iface);
        let oid = Oid::from_raw(self.next);
        self.next += 1;
        self.objects
            .insert(oid, ObjectRecord::new(ty, slots, schema.version()));
        add_to_extent(&mut self.extents, ty, oid);
        list_conforming(&mut self.conforming, &self.extents, ty, oid);
        Ok(oid)
    }

    /// Delete an object and remove it from its extent.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let rec = self
            .objects
            .remove(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        remove_from_extent(&mut self.extents, rec.ty, oid);
        Ok(())
    }

    /// The raw record (no propagation handling) — for inspection and tests.
    pub fn record(&self, oid: Oid) -> Result<&ObjectRecord> {
        self.objects.get(&oid).ok_or(StoreError::UnknownObject(oid))
    }

    /// The type an object was created from.
    pub fn type_of(&self, oid: Oid) -> Result<TypeId> {
        self.record(oid).map(|r| r.ty)
    }

    // ------------------------------------------------------------------
    // Propagation-aware access
    // ------------------------------------------------------------------

    /// Read a slot through the propagation policy. For a stale object this
    /// converts (lazy), masks (screening), or rejects (filtering) before the
    /// read; properties outside the *current* interface are never readable.
    pub fn get(&mut self, schema: &Schema, oid: Oid, prop: PropId) -> Result<Value> {
        let (rec, iface) = self.admit(schema, oid)?;
        if !iface.contains(prop) {
            return Err(StoreError::NotInInterface { oid, prop });
        }
        match rec.slots.get(&prop) {
            Some(v) => Ok(v.clone()),
            // Screening: slot materially absent but in interface → Null.
            None => {
                self.stats.screened_reads += 1;
                Ok(Value::Null)
            }
        }
    }

    /// Write a slot through the propagation policy. Writes to properties
    /// outside the current interface are rejected.
    pub fn set(&mut self, schema: &Schema, oid: Oid, prop: PropId, value: Value) -> Result<()> {
        let (rec, iface) = self.admit(schema, oid)?;
        if !iface.contains(prop) {
            return Err(StoreError::NotInInterface { oid, prop });
        }
        rec.slots.insert(prop, value);
        Ok(())
    }

    /// Find `oid`'s record once and apply the policy's handling of a stale
    /// record before an access: convert it (eager, lazy), leave it for the
    /// interface mask (screening), or refuse it (filtering). Returns the
    /// record with its type's current interface row. Screening reads count
    /// against the mask in [`Self::get`].
    fn admit<'a>(
        &'a mut self,
        schema: &'a Schema,
        oid: Oid,
    ) -> Result<(&'a mut ObjectRecord, &'a PropSet)> {
        let rec = self
            .objects
            .get_mut(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        if rec.conformance == Conformance::Stale {
            match self.policy {
                Policy::Eager | Policy::Lazy => {
                    let iface = &schema.derived(rec.ty)?.iface;
                    conform(rec, iface, schema.version(), &mut self.stats);
                    list_conforming(&mut self.conforming, &self.extents, rec.ty, oid);
                    self.stats.lazy_conversions += 1;
                }
                Policy::Screening => {
                    // Leave the record as-is; get/set mask through the interface.
                }
                Policy::Filtering => {
                    self.stats.filtered_rejections += 1;
                    return Err(StoreError::FilteredOut(oid));
                }
            }
        }
        let iface = &schema.derived(rec.ty)?.iface;
        Ok((rec, iface))
    }

    /// Coerce an object's slots to its type's current interface: drop slots
    /// for removed properties, add `Null` slots for new ones, and mark the
    /// object conforming. Explicit conversion is always allowed, under any
    /// policy (it is how filtered-out objects are repaired). Converting a
    /// stale record counts in [`PropagationStats::lazy_conversions`].
    pub fn convert(&mut self, schema: &Schema, oid: Oid) -> Result<()> {
        let rec = self
            .objects
            .get_mut(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        let iface = &schema.derived(rec.ty)?.iface;
        if conform(rec, iface, schema.version(), &mut self.stats) {
            list_conforming(&mut self.conforming, &self.extents, rec.ty, oid);
            self.stats.lazy_conversions += 1;
        }
        Ok(())
    }

    /// Notify the store that the schema changed and the interfaces of
    /// `affected_types` (typically the changed type's down-set, as reported
    /// by the schema operations) may have moved. Eager conversion coerces
    /// every affected instance now; the other policies mark them stale.
    ///
    /// **Cost.** Eager conversion walks the affected types' extents. The
    /// deferring policies visit only what they mark: they drain each
    /// affected type's conforming list (see the `conforming` field) and
    /// mark every entry whose record still exists, still has that type
    /// and is still `Conforming` — O(marked objects, plus the list entries
    /// deletions and migrations left), never O(stored objects).
    pub fn on_schema_change(&mut self, schema: &Schema, affected_types: &[TypeId]) {
        match self.policy {
            Policy::Eager => {
                let affected: BTreeSet<TypeId> = affected_types.iter().copied().collect();
                for t in affected {
                    let Some(extent) = self.extents.get(&t).filter(|e| !e.is_empty()) else {
                        continue;
                    };
                    let iface = &schema
                        .derived(t)
                        .expect("an affected type with instances is live")
                        .iface;
                    for oid in extent {
                        let rec = self.objects.get_mut(oid).expect("extent member exists");
                        if conform(rec, iface, schema.version(), &mut self.stats) {
                            list_conforming(&mut self.conforming, &self.extents, t, *oid);
                        }
                        // Only count real work: conversion touches every record.
                        self.stats.eager_conversions += 1;
                    }
                }
            }
            Policy::Lazy | Policy::Screening | Policy::Filtering => {
                for t in affected_types {
                    let Some(listed) = self.conforming.remove(t) else {
                        continue;
                    };
                    for oid in listed {
                        if let Some(rec) = self.objects.get_mut(&oid) {
                            if rec.ty == *t && rec.conformance == Conformance::Conforming {
                                rec.conformance = Conformance::Stale;
                                self.stats.marked_stale += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Extents
    // ------------------------------------------------------------------

    /// The shallow extent of `ty`, ascending: objects created from
    /// exactly this type.
    pub fn extent(&self, ty: TypeId) -> Vec<Oid> {
        self.extents.get(&ty).cloned().unwrap_or_default()
    }

    /// The deep extent of `ty`, ascending: instances of `ty` and of every
    /// subtype (classes are "homogeneous up to inclusion polymorphism",
    /// §3.1).
    pub fn deep_extent(&self, schema: &Schema, ty: TypeId) -> Result<Vec<Oid>> {
        let mut out = self.extent(ty);
        for sub in schema.all_subtypes(ty)? {
            out.extend(self.extents.get(&sub).into_iter().flatten());
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Objects whose type is `ty`, removed wholesale — the instance-level
    /// effect of DT/DC: "The extent managed by a dropped class is also
    /// dropped" (§3.3). Returns the deleted oids, ascending.
    pub fn drop_extent(&mut self, ty: TypeId) -> Vec<Oid> {
        let oids = self.extents.remove(&ty).unwrap_or_default();
        for oid in &oids {
            self.objects.remove(oid);
        }
        self.conforming.remove(&ty);
        oids
    }

    /// Migrate an object to another type, preserving slot values for
    /// properties shared by both interfaces ("with the use of object
    /// migration techniques, the instances can be ported to some other type
    /// prior to being dropped", §3.3).
    pub fn migrate(&mut self, schema: &Schema, oid: Oid, new_ty: TypeId) -> Result<()> {
        let iface = &schema.derived(new_ty)?.iface;
        let rec = self
            .objects
            .get_mut(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        let old_ty = rec.ty;
        rec.slots.conform_to(iface);
        rec.ty = new_ty;
        rec.conformance = Conformance::Conforming;
        rec.conforms_to_version = schema.version();
        remove_from_extent(&mut self.extents, old_ty, oid);
        add_to_extent(&mut self.extents, new_ty, oid);
        list_conforming(&mut self.conforming, &self.extents, new_ty, oid);
        Ok(())
    }

    /// Execute a certified propagation plan (`impact::analyze` over the
    /// trace that evolved the schema to `schema`) in one pass over the
    /// extents it names. A step that drops its type's extent applies
    /// `orphans` through [`Self::drop_extent`] or [`Self::migrate`].
    /// Every other step moves each re-keyed value to its same-named
    /// replacement property, then reconciles the record with its type's
    /// interface in `schema`, as every conversion does, so a record an
    /// earlier change left stale conforms too. Instances of types the plan
    /// does not name are untouched.
    ///
    /// A plan that does not fit `schema` is refused before any record
    /// changes: a step whose type's liveness contradicts its
    /// `drop_extent` ([`StoreError::PlanMismatch`]), and a `MigrateTo`
    /// target that is not live.
    pub fn apply_plan(
        &mut self,
        schema: &Schema,
        plan: &PropagationPlan,
        orphans: OrphanAction,
    ) -> Result<PlanStats> {
        for step in &plan.steps {
            let t = TypeId::from_index(step.type_index);
            if schema.is_live(t) == step.drop_extent {
                return Err(StoreError::PlanMismatch(t));
            }
        }
        if let OrphanAction::MigrateTo(target) = orphans {
            if !schema.is_live(target) {
                return Err(SchemaError::UnknownType(target).into());
            }
        }
        let mut stats = PlanStats::default();
        for step in &plan.steps {
            let t = TypeId::from_index(step.type_index);
            if step.drop_extent {
                match orphans {
                    OrphanAction::Delete => stats.orphans_deleted += self.drop_extent(t).len(),
                    OrphanAction::MigrateTo(target) => {
                        for oid in self.extent(t) {
                            self.migrate(schema, oid, target)?;
                            stats.orphans_migrated += 1;
                        }
                    }
                }
                continue;
            }
            let Some(extent) = self.extents.get(&t) else {
                continue;
            };
            let iface = &schema.derived(t)?.iface;
            for oid in extent {
                let rec = self.objects.get_mut(oid).expect("extent member exists");
                for &(p, q) in &step.rekey_slots {
                    if let Some(v) = rec.slots.remove(PropId::from_index(p)) {
                        rec.slots.insert(PropId::from_index(q), v);
                        stats.rekeyed += 1;
                    }
                }
                if conform(rec, iface, schema.version(), &mut self.stats) {
                    list_conforming(&mut self.conforming, &self.extents, t, *oid);
                }
                self.stats.eager_conversions += 1;
                stats.converted += 1;
            }
        }
        Ok(stats)
    }

    /// All live object identities, ascending.
    pub fn iter_oids(&self) -> impl Iterator<Item = Oid> + '_ {
        let mut oids: Vec<Oid> = self.objects.keys().copied().collect();
        oids.sort_unstable();
        oids.into_iter()
    }

    /// The OID high-water mark (next identity to assign). Used by the
    /// persistence layer so identities are never reused after a reload.
    pub(crate) fn next_oid(&self) -> u64 {
        self.next
    }

    pub(crate) fn set_next_oid(&mut self, next: u64) {
        // Never move the high-water mark below an existing identity.
        let floor = self.objects.keys().max().map_or(0, |o| o.raw() + 1);
        self.next = next.max(floor);
    }

    /// Install a deserialized record under an explicit identity
    /// (persistence layer only).
    pub(crate) fn install_record(&mut self, oid: Oid, rec: ObjectRecord) -> Result<(), String> {
        if self.objects.contains_key(&oid) {
            return Err(format!("duplicate oid {oid}"));
        }
        add_to_extent(&mut self.extents, rec.ty, oid);
        if rec.conformance == Conformance::Conforming {
            list_conforming(&mut self.conforming, &self.extents, rec.ty, oid);
        }
        self.objects.insert(oid, rec);
        Ok(())
    }
}

/// Coerce `rec`'s slots to `iface`: drop slots outside it, add `Null`
/// slots for its new properties, and mark the record conforming at
/// `version`. Returns whether the record was stale.
fn conform(
    rec: &mut ObjectRecord,
    iface: &PropSet,
    version: u64,
    stats: &mut PropagationStats,
) -> bool {
    let (added, dropped) = rec.slots.conform_to(iface);
    stats.slots_added += added;
    stats.slots_dropped += dropped;
    rec.conforms_to_version = version;
    std::mem::replace(&mut rec.conformance, Conformance::Conforming) == Conformance::Stale
}

/// Append `oid`, an instance of `ty` that just turned `Conforming`, to
/// `ty`'s conforming list. A list that outgrows twice its extent keeps
/// only the extent's members, once each, so deletions and migrations
/// cannot grow it without bound: compaction leaves at most one entry per
/// instance, and the next one waits for as many pushes again.
fn list_conforming(
    lists: &mut HashMap<TypeId, Vec<Oid>>,
    extents: &HashMap<TypeId, Vec<Oid>>,
    ty: TypeId,
    oid: Oid,
) {
    let list = lists.entry(ty).or_default();
    list.push(oid);
    let extent = extents.get(&ty).map_or(&[][..], Vec::as_slice);
    if list.len() > 2 * extent.len() {
        list.sort_unstable();
        list.dedup();
        list.retain(|o| extent.binary_search(o).is_ok());
    }
}

/// Add `oid` to `ty`'s ascending extent. A new identity exceeds every
/// stored one, so creation appends.
fn add_to_extent(extents: &mut HashMap<TypeId, Vec<Oid>>, ty: TypeId, oid: Oid) {
    let extent = extents.entry(ty).or_default();
    match extent.last() {
        Some(&last) if last >= oid => {
            if let Err(at) = extent.binary_search(&oid) {
                extent.insert(at, oid);
            }
        }
        _ => extent.push(oid),
    }
}

/// Remove `oid` from `ty`'s ascending extent.
fn remove_from_extent(extents: &mut HashMap<TypeId, Vec<Oid>>, ty: TypeId, oid: Oid) {
    if let Some(extent) = extents.get_mut(&ty) {
        if let Ok(at) = extent.binary_search(&oid) {
            extent.remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axiombase_core::analysis::impact;
    use axiombase_core::{History, LatticeConfig};

    fn schema() -> (Schema, TypeId, TypeId, PropId) {
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("T_object").unwrap();
        let person = s.add_type("T_person", [root], []).unwrap();
        let name = s.define_property_on(person, "name").unwrap();
        let employee = s.add_type("T_employee", [person], []).unwrap();
        (s, person, employee, name)
    }

    #[test]
    fn create_initialises_interface_slots() {
        let (s, person, employee, name) = schema();
        let mut store = ObjectStore::new(Policy::Eager);
        let o = store.create(&s, employee).unwrap();
        assert_eq!(store.get(&s, o, name).unwrap(), Value::Null);
        store.set(&s, o, name, "Ada".into()).unwrap();
        assert_eq!(store.get(&s, o, name).unwrap(), Value::Str("Ada".into()));
        assert!(store.extent(employee).contains(&o));
        assert!(store.deep_extent(&s, person).unwrap().contains(&o));
        assert!(!store.extent(person).contains(&o));
    }

    #[test]
    fn eager_policy_converts_at_change_time() {
        let (mut s, person, employee, _) = schema();
        let mut store = ObjectStore::new(Policy::Eager);
        let o = store.create(&s, employee).unwrap();
        let salary = s.define_property_on(person, "salary").unwrap();
        store.on_schema_change(&s, &[person, employee]);
        assert_eq!(store.stats().eager_conversions, 1);
        assert_eq!(
            store.record(o).unwrap().slots.get(&salary),
            Some(&Value::Null)
        );
    }

    #[test]
    fn lazy_policy_converts_on_access() {
        let (mut s, person, employee, _) = schema();
        let mut store = ObjectStore::new(Policy::Lazy);
        let o = store.create(&s, employee).unwrap();
        let salary = s.define_property_on(person, "salary").unwrap();
        store.on_schema_change(&s, &[person, employee]);
        assert_eq!(store.stats().marked_stale, 1);
        assert!(!store.record(o).unwrap().slots.contains_key(&salary));
        assert_eq!(store.get(&s, o, salary).unwrap(), Value::Null);
        assert_eq!(store.stats().lazy_conversions, 1);
        assert!(store.record(o).unwrap().slots.contains_key(&salary));
    }

    #[test]
    fn screening_masks_without_rewriting() {
        let (mut s, person, employee, name) = schema();
        let mut store = ObjectStore::new(Policy::Screening);
        let o = store.create(&s, employee).unwrap();
        store.set(&s, o, name, "Ada".into()).unwrap();
        let salary = s.define_property_on(person, "salary").unwrap();
        store.on_schema_change(&s, &[person, employee]);
        // Read of the new property is masked to Null; record not rewritten.
        assert_eq!(store.get(&s, o, salary).unwrap(), Value::Null);
        assert!(!store.record(o).unwrap().slots.contains_key(&salary));
        assert!(store.stats().screened_reads >= 1);
        // Dropped properties become unreadable even though the slot remains.
        s.drop_essential_property(person, name).unwrap();
        store.on_schema_change(&s, &[person, employee]);
        assert!(matches!(
            store.get(&s, o, name).unwrap_err(),
            StoreError::NotInInterface { .. }
        ));
        assert!(store.record(o).unwrap().slots.contains_key(&name));
    }

    #[test]
    fn filtering_rejects_until_converted() {
        let (mut s, person, employee, _) = schema();
        let mut store = ObjectStore::new(Policy::Filtering);
        let o = store.create(&s, employee).unwrap();
        let salary = s.define_property_on(person, "salary").unwrap();
        store.on_schema_change(&s, &[person, employee]);
        assert_eq!(
            store.get(&s, o, salary).unwrap_err(),
            StoreError::FilteredOut(o)
        );
        assert_eq!(store.stats().filtered_rejections, 1);
        store.convert(&s, o).unwrap();
        assert_eq!(store.stats().total_conversions(), 1);
        assert_eq!(store.get(&s, o, salary).unwrap(), Value::Null);
    }

    #[test]
    fn migrate_preserves_shared_slots() {
        let (mut s, person, employee, name) = schema();
        let salary = s.define_property_on(employee, "salary").unwrap();
        let mut store = ObjectStore::new(Policy::Eager);
        let o = store.create(&s, employee).unwrap();
        store.set(&s, o, name, "Ada".into()).unwrap();
        store.set(&s, o, salary, Value::Int(100)).unwrap();
        store.migrate(&s, o, person).unwrap();
        assert_eq!(store.type_of(o).unwrap(), person);
        assert_eq!(store.get(&s, o, name).unwrap(), Value::Str("Ada".into()));
        // salary is gone with the interface.
        assert!(matches!(
            store.get(&s, o, salary).unwrap_err(),
            StoreError::NotInInterface { .. }
        ));
        assert!(store.extent(person).contains(&o));
        assert!(!store.extent(employee).contains(&o));
    }

    #[test]
    fn drop_extent_removes_instances() {
        let (s, _, employee, _) = schema();
        let mut store = ObjectStore::new(Policy::Lazy);
        let a = store.create(&s, employee).unwrap();
        let b = store.create(&s, employee).unwrap();
        let dropped = store.drop_extent(employee);
        assert_eq!(dropped.len(), 2);
        assert!(store.record(a).is_err());
        assert!(store.record(b).is_err());
        assert_eq!(store.object_count(), 0);
    }

    #[test]
    fn delete_and_unknown_object_errors() {
        let (s, _, employee, name) = schema();
        let mut store = ObjectStore::new(Policy::Lazy);
        let o = store.create(&s, employee).unwrap();
        store.delete(o).unwrap();
        assert_eq!(store.delete(o).unwrap_err(), StoreError::UnknownObject(o));
        assert!(store.get(&s, o, name).is_err());
        // Oids are never reused.
        let o2 = store.create(&s, employee).unwrap();
        assert_ne!(o, o2);
    }

    #[test]
    fn identities_and_extents_stay_ascending_after_deletes_and_migrations() {
        let (s, person, employee, _) = schema();
        let mut store = ObjectStore::new(Policy::Lazy);
        let o: Vec<Oid> = (0..8)
            .map(|i| store.create(&s, [person, employee][i % 2]).unwrap())
            .collect();
        store.delete(o[2]).unwrap();
        store.delete(o[5]).unwrap();
        store.migrate(&s, o[7], person).unwrap();
        store.migrate(&s, o[1], person).unwrap();
        store.migrate(&s, o[4], employee).unwrap();
        store.migrate(&s, o[0], employee).unwrap();
        assert_eq!(
            store.iter_oids().collect::<Vec<_>>(),
            [o[0], o[1], o[3], o[4], o[6], o[7]]
        );
        assert_eq!(
            store.extent(person).into_iter().collect::<Vec<_>>(),
            [o[1], o[6], o[7]]
        );
        assert_eq!(
            store.extent(employee).into_iter().collect::<Vec<_>>(),
            [o[0], o[3], o[4]]
        );
        assert_eq!(
            store
                .deep_extent(&s, person)
                .unwrap()
                .into_iter()
                .collect::<Vec<_>>(),
            [o[0], o[1], o[3], o[4], o[6], o[7]]
        );
        assert_eq!(store.drop_extent(employee), [o[0], o[3], o[4]]);
        assert_eq!(store.iter_oids().collect::<Vec<_>>(), [o[1], o[6], o[7]]);
    }

    /// Root, `A{x}` and `B` under `A`, recorded; a lazy store holds three
    /// instances of each, every `x` set to a distinct value.
    fn planned() -> (History, ObjectStore, TypeId, TypeId, PropId) {
        let mut h = History::new(LatticeConfig::default());
        let root = h.add_root_type("T_object").unwrap();
        let a = h.add_type("A", [root], []).unwrap();
        let x = h.define_property_on(a, "x").unwrap();
        let b = h.add_type("B", [a], []).unwrap();
        let mut store = ObjectStore::new(Policy::Lazy);
        for i in 0..6 {
            let o = store.create(h.schema(), [a, b][i % 2]).unwrap();
            store.set(h.schema(), o, x, Value::Int(i as i64)).unwrap();
        }
        (h, store, a, b, x)
    }

    /// The plan for the ops `h` recorded since version `from`.
    fn plan_since(h: &History, from: usize) -> PropagationPlan {
        impact::analyze(&h.as_of(from).unwrap(), &h.ops()[from..]).plan
    }

    fn records(store: &ObjectStore) -> Vec<(Oid, ObjectRecord)> {
        store
            .iter_oids()
            .map(|o| (o, store.record(o).unwrap().clone()))
            .collect()
    }

    #[test]
    fn apply_plan_of_a_preserving_trace_changes_nothing() {
        let (mut h, mut store, a, ..) = planned();
        let from = h.len();
        h.rename_type(a, "A2").unwrap();
        let ia = impact::analyze(&h.as_of(from).unwrap(), &h.ops()[from..]);
        assert!(ia.plan.steps.is_empty());
        assert!(ia.to_text().contains("plan: 0 step(s)"));
        let before = records(&store);
        let stats = store
            .apply_plan(h.schema(), &ia.plan, OrphanAction::Delete)
            .unwrap();
        assert_eq!(stats, PlanStats::default());
        assert_eq!(records(&store), before);
    }

    #[test]
    fn apply_plan_converts_and_deletes_orphans() {
        let (mut h, mut store, a, b, x) = planned();
        let from = h.len();
        let y = h.define_property_on(a, "y").unwrap();
        h.drop_type(b).unwrap();
        let plan = plan_since(&h, from);
        let stats = store
            .apply_plan(h.schema(), &plan, OrphanAction::Delete)
            .unwrap();
        assert_eq!((stats.converted, stats.orphans_deleted), (3, 3));
        assert_eq!(store.object_count(), 3);
        assert_eq!(store.stats().eager_conversions, 3);
        assert_eq!(store.stats().slots_added, 3);
        for (_, rec) in records(&store) {
            assert_eq!(rec.slots.keys().copied().collect::<Vec<_>>(), [x, y]);
            assert!(!rec.slots[&x].is_null(), "x keeps its value");
        }
    }

    #[test]
    fn apply_plan_migrates_orphans() {
        let (mut h, mut store, a, b, x) = planned();
        let from = h.len();
        h.drop_type(b).unwrap();
        let plan = plan_since(&h, from);
        let stats = store
            .apply_plan(h.schema(), &plan, OrphanAction::MigrateTo(a))
            .unwrap();
        assert_eq!(stats.orphans_migrated, 3);
        assert_eq!(store.object_count(), 6);
        assert_eq!(store.extent(a).len(), 6);
        let xs: Vec<Value> = records(&store)
            .into_iter()
            .map(|(_, r)| r.slots[&x].clone())
            .collect();
        assert_eq!(xs, (0..6).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn apply_plan_carries_rekeyed_values() {
        // Dropping `x` and attaching a new `x` to `A` re-keys the slot: the
        // plan carries each value across, where a drop then an add of
        // `Null` would lose it.
        let (mut h, mut store, a, _, x) = planned();
        let from = h.len();
        let before = records(&store);
        h.drop_property(x).unwrap();
        let x2 = h.define_property_on(a, "x").unwrap();
        let plan = plan_since(&h, from);
        assert!(plan
            .steps
            .iter()
            .all(|s| s.rekey_slots == [(x.index(), x2.index())]));
        let stats = store
            .apply_plan(h.schema(), &plan, OrphanAction::Delete)
            .unwrap();
        assert_eq!((stats.converted, stats.rekeyed), (6, 6));
        for ((_, old), (_, new)) in before.iter().zip(records(&store)) {
            assert_eq!(new.slots, Slots::from_iter([(x2, old.slots[&x].clone())]));
        }
    }

    #[test]
    fn apply_plan_conforms_records_an_earlier_change_left_stale() {
        let (mut h, mut store, a, b, x) = planned();
        let y = h.define_property_on(a, "y").unwrap();
        store.on_schema_change(h.schema(), &[a, b]);
        assert_eq!(store.stats().marked_stale, 6);
        let from = h.len();
        let z = h.define_property_on(a, "z").unwrap();
        let plan = plan_since(&h, from);
        store
            .apply_plan(h.schema(), &plan, OrphanAction::Delete)
            .unwrap();
        for (oid, rec) in records(&store) {
            assert_eq!(rec.conformance, Conformance::Conforming);
            assert_eq!(rec.conforms_to_version, h.schema().version());
            assert_eq!(rec.slots.keys().copied().collect::<Vec<_>>(), [x, y, z]);
            assert_eq!(store.get(h.schema(), oid, y).unwrap(), Value::Null);
        }
        assert_eq!(store.stats().screened_reads, 0);
        // A later change marks every record stale again: each one was back
        // on its type's conforming list.
        h.define_property_on(a, "w").unwrap();
        store.on_schema_change(h.schema(), &[a, b]);
        assert_eq!(store.stats().marked_stale, 12);
    }

    #[test]
    fn apply_plan_refuses_plans_that_do_not_fit_before_any_change() {
        let (mut h, mut store, a, b, _) = planned();
        let from = h.len();
        h.define_property_on(a, "y").unwrap();
        let grow = plan_since(&h, from);
        let (mid, from) = (h.schema().clone(), h.len());
        h.drop_type(b).unwrap();
        let drop = plan_since(&h, from);
        let before = records(&store);
        // `grow` keeps B's extent, but B is dead in the final schema; A's
        // step comes first and still converts nothing.
        assert_eq!(
            store.apply_plan(h.schema(), &grow, OrphanAction::Delete),
            Err(StoreError::PlanMismatch(b))
        );
        // `drop` drops B's extent, but B still lives in `mid`.
        assert_eq!(
            store.apply_plan(&mid, &drop, OrphanAction::Delete),
            Err(StoreError::PlanMismatch(b))
        );
        // The orphans' target is dead.
        assert_eq!(
            store.apply_plan(h.schema(), &drop, OrphanAction::MigrateTo(b)),
            Err(StoreError::Schema(SchemaError::UnknownType(b)))
        );
        assert_eq!(records(&store), before);
    }
}
