//! Versioned schema history: record, time-travel, undo.
//!
//! TIGUKAT's change propagation "uses the temporality of the model" (§3,
//! citing Goralwalla & Özsu): old schema versions remain addressable so
//! instances created under them can be interpreted and coerced later. This
//! module supplies that temporal substrate at the schema level:
//! a [`History`] wraps a [`Schema`], records every successful operation,
//! and can materialise **any** past version by deterministic replay.
//!
//! Replay is sound because the whole model is deterministic: identities are
//! assigned in arena order and every operation is a pure function of the
//! current inputs, so replaying the same operation sequence from the same
//! initial snapshot reproduces bit-identical schemas — including the
//! [`TypeId`]/[`PropId`] values recorded in the log (pinned by tests and
//! used by the §5 experiments, which rely on the same determinism).
//!
//! Rejected operations are never recorded, so a history is always a valid
//! evolution path: every prefix satisfies the axioms.

pub mod versioned;

use crate::error::{Result, SchemaError};
use crate::ids::{PropId, TypeId};
use crate::model::Schema;
use crate::snapshot::SnapshotError;

/// One recorded (successful) schema operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedOp {
    /// `add_property`.
    AddProperty {
        /// Property name.
        name: String,
    },
    /// `rename_property`.
    RenameProperty {
        /// Target property.
        p: PropId,
        /// New name.
        name: String,
    },
    /// `drop_property` (DB).
    DropProperty {
        /// Target property.
        p: PropId,
    },
    /// `add_root_type`.
    AddRootType {
        /// Root name.
        name: String,
    },
    /// `add_base_type`.
    AddBaseType {
        /// Base name.
        name: String,
    },
    /// `add_type` (AT).
    AddType {
        /// Type name.
        name: String,
        /// Essential supertypes.
        supers: Vec<TypeId>,
        /// Essential properties.
        props: Vec<PropId>,
    },
    /// `drop_type` (DT).
    DropType {
        /// Target type.
        t: TypeId,
    },
    /// `rename_type`.
    RenameType {
        /// Target type.
        t: TypeId,
        /// New name.
        name: String,
    },
    /// `freeze_type`.
    FreezeType {
        /// Target type.
        t: TypeId,
    },
    /// `add_essential_supertype` (MT-ASR).
    AddEssentialSupertype {
        /// Subtype.
        t: TypeId,
        /// New essential supertype.
        s: TypeId,
    },
    /// `drop_essential_supertype` (MT-DSR).
    DropEssentialSupertype {
        /// Subtype.
        t: TypeId,
        /// Dropped essential supertype.
        s: TypeId,
    },
    /// `add_essential_property` (MT-AB).
    AddEssentialProperty {
        /// Target type.
        t: TypeId,
        /// Property.
        p: PropId,
    },
    /// `drop_essential_property` (MT-DB).
    DropEssentialProperty {
        /// Target type.
        t: TypeId,
        /// Property.
        p: PropId,
    },
}

impl RecordedOp {
    /// Apply this operation to a schema — the replay interpreter used by
    /// [`History::as_of`] and by trace analyses such as [`crate::lint`].
    /// Replay is deterministic: identities are assigned in arena order, so
    /// applying the same log to the same snapshot reproduces bit-identical
    /// schemas.
    pub fn apply(&self, schema: &mut Schema) -> Result<()> {
        match self {
            RecordedOp::AddProperty { name } => {
                schema.add_property(name.clone());
                Ok(())
            }
            RecordedOp::RenameProperty { p, name } => schema.rename_property(*p, name.clone()),
            RecordedOp::DropProperty { p } => schema.drop_property(*p).map(|_| ()),
            RecordedOp::AddRootType { name } => schema.add_root_type(name.clone()).map(|_| ()),
            RecordedOp::AddBaseType { name } => schema.add_base_type(name.clone()).map(|_| ()),
            RecordedOp::AddType {
                name,
                supers,
                props,
            } => schema
                .add_type(name.clone(), supers.iter().copied(), props.iter().copied())
                .map(|_| ()),
            RecordedOp::DropType { t } => schema.drop_type(*t).map(|_| ()),
            RecordedOp::RenameType { t, name } => schema.rename_type(*t, name.clone()),
            RecordedOp::FreezeType { t } => schema.freeze_type(*t),
            RecordedOp::AddEssentialSupertype { t, s } => schema.add_essential_supertype(*t, *s),
            RecordedOp::DropEssentialSupertype { t, s } => schema.drop_essential_supertype(*t, *s),
            RecordedOp::AddEssentialProperty { t, p } => {
                schema.add_essential_property(*t, *p).map(|_| ())
            }
            RecordedOp::DropEssentialProperty { t, p } => schema.drop_essential_property(*t, *p),
        }
    }

    /// Stable snake_case name of this operation kind — the suffix of the
    /// per-kind `ops.*` metric counters (e.g. `ops.add_type`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            RecordedOp::AddProperty { .. } => "add_property",
            RecordedOp::RenameProperty { .. } => "rename_property",
            RecordedOp::DropProperty { .. } => "drop_property",
            RecordedOp::AddRootType { .. } => "add_root_type",
            RecordedOp::AddBaseType { .. } => "add_base_type",
            RecordedOp::AddType { .. } => "add_type",
            RecordedOp::DropType { .. } => "drop_type",
            RecordedOp::RenameType { .. } => "rename_type",
            RecordedOp::FreezeType { .. } => "freeze_type",
            RecordedOp::AddEssentialSupertype { .. } => "add_essential_supertype",
            RecordedOp::DropEssentialSupertype { .. } => "drop_essential_supertype",
            RecordedOp::AddEssentialProperty { .. } => "add_essential_property",
            RecordedOp::DropEssentialProperty { .. } => "drop_essential_property",
        }
    }
}

/// A schema with its full evolution history.
///
/// ```
/// use axiombase_core::{history::History, LatticeConfig};
///
/// let mut h = History::new(LatticeConfig::default());
/// let root = h.add_root_type("T_object")?;
/// let a = h.add_type("A", [root], [])?;
/// let v_before = h.len();
/// h.drop_type(a)?;
///
/// // Time travel: the schema as of the version before the drop.
/// let old = h.as_of(v_before)?;
/// assert!(old.type_by_name("A").is_some());
/// assert!(h.schema().type_by_name("A").is_none());
///
/// // Undo the drop in place.
/// h.undo_to(v_before)?;
/// assert!(h.schema().type_by_name("A").is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct History {
    initial: String,
    ops: Vec<RecordedOp>,
    schema: Schema,
}

impl History {
    /// Start a history from an empty schema.
    pub fn new(config: crate::config::LatticeConfig) -> Self {
        Self::from_schema(Schema::new(config))
    }

    /// Start a history from an existing schema (its current state becomes
    /// version 0).
    pub fn from_schema(schema: Schema) -> Self {
        History {
            initial: schema.to_snapshot(),
            ops: Vec::new(),
            schema,
        }
    }

    /// The current schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Switch the live schema's derivation engine. Not recorded: the
    /// engines are observationally equivalent (property-tested), so replay
    /// is engine-independent.
    pub fn set_engine(&mut self, engine: crate::engine::EngineKind) {
        self.schema.set_engine(engine);
    }

    /// Attach an observer to the live schema (see [`Schema::attach_obs`]).
    /// Not recorded: observation never changes evolution semantics.
    pub fn attach_obs(&mut self, obs: std::sync::Arc<crate::obs::EvolveObs>) {
        self.schema.attach_obs(obs);
    }

    /// Number of recorded operations (= the current version index).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// No operations recorded yet?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operation log.
    pub fn ops(&self) -> &[RecordedOp] {
        &self.ops
    }

    /// Materialise the schema as of version `v` (0 = the initial snapshot,
    /// `len()` = the current state) by replaying the log prefix as one
    /// batch ([`Schema::apply_trace`]: one derivation for the whole prefix).
    pub fn as_of(&self, v: usize) -> std::result::Result<Schema, HistoryError> {
        if v > self.ops.len() {
            return Err(HistoryError::NoSuchVersion {
                requested: v,
                latest: self.ops.len(),
            });
        }
        let mut schema = Schema::from_snapshot(&self.initial)?;
        schema
            .apply_trace(&self.ops[..v])
            .map_err(HistoryError::ReplayFailed)?;
        Ok(schema)
    }

    /// Rewind the live schema to version `v`, discarding later operations.
    /// The currently selected derivation engine is preserved (engine choice
    /// is not part of the recorded history).
    pub fn undo_to(&mut self, v: usize) -> std::result::Result<(), HistoryError> {
        let engine = self.schema.engine();
        let mut schema = self.as_of(v)?;
        if schema.engine() != engine {
            schema.set_engine(engine);
        }
        self.schema = schema;
        self.ops.truncate(v);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recorded mutations (mirror the Schema operations)
    // ------------------------------------------------------------------

    fn record<T>(&mut self, r: Result<T>, op: RecordedOp) -> Result<T> {
        if r.is_ok() {
            self.ops.push(op);
        }
        r
    }

    /// Recorded `add_property`.
    pub fn add_property(&mut self, name: impl Into<String>) -> PropId {
        let name = name.into();
        let p = self.schema.add_property(name.clone());
        self.ops.push(RecordedOp::AddProperty { name });
        p
    }

    /// Recorded `rename_property`.
    pub fn rename_property(&mut self, p: PropId, name: impl Into<String>) -> Result<()> {
        let name = name.into();
        let r = self.schema.rename_property(p, name.clone());
        self.record(r, RecordedOp::RenameProperty { p, name })
    }

    /// Recorded `drop_property` (DB).
    pub fn drop_property(&mut self, p: PropId) -> Result<Vec<TypeId>> {
        let r = self.schema.drop_property(p);
        self.record(r, RecordedOp::DropProperty { p })
    }

    /// Recorded `add_root_type`.
    pub fn add_root_type(&mut self, name: impl Into<String>) -> Result<TypeId> {
        let name = name.into();
        let r = self.schema.add_root_type(name.clone());
        self.record(r, RecordedOp::AddRootType { name })
    }

    /// Recorded `add_base_type`.
    pub fn add_base_type(&mut self, name: impl Into<String>) -> Result<TypeId> {
        let name = name.into();
        let r = self.schema.add_base_type(name.clone());
        self.record(r, RecordedOp::AddBaseType { name })
    }

    /// Recorded `add_type` (AT).
    pub fn add_type(
        &mut self,
        name: impl Into<String>,
        supers: impl IntoIterator<Item = TypeId>,
        props: impl IntoIterator<Item = PropId>,
    ) -> Result<TypeId> {
        let name = name.into();
        let supers: Vec<TypeId> = supers.into_iter().collect();
        let props: Vec<PropId> = props.into_iter().collect();
        let r = self
            .schema
            .add_type(name.clone(), supers.iter().copied(), props.iter().copied());
        self.record(
            r,
            RecordedOp::AddType {
                name,
                supers,
                props,
            },
        )
    }

    /// Recorded `drop_type` (DT).
    pub fn drop_type(&mut self, t: TypeId) -> Result<Vec<TypeId>> {
        let r = self.schema.drop_type(t);
        self.record(r, RecordedOp::DropType { t })
    }

    /// Recorded `rename_type`.
    pub fn rename_type(&mut self, t: TypeId, name: impl Into<String>) -> Result<()> {
        let name = name.into();
        let r = self.schema.rename_type(t, name.clone());
        self.record(r, RecordedOp::RenameType { t, name })
    }

    /// Recorded `freeze_type`.
    pub fn freeze_type(&mut self, t: TypeId) -> Result<()> {
        let r = self.schema.freeze_type(t);
        self.record(r, RecordedOp::FreezeType { t })
    }

    /// Recorded `add_essential_supertype` (MT-ASR).
    pub fn add_essential_supertype(&mut self, t: TypeId, s: TypeId) -> Result<()> {
        let r = self.schema.add_essential_supertype(t, s);
        self.record(r, RecordedOp::AddEssentialSupertype { t, s })
    }

    /// Recorded `drop_essential_supertype` (MT-DSR).
    pub fn drop_essential_supertype(&mut self, t: TypeId, s: TypeId) -> Result<()> {
        let r = self.schema.drop_essential_supertype(t, s);
        self.record(r, RecordedOp::DropEssentialSupertype { t, s })
    }

    /// Recorded `add_essential_property` (MT-AB). Only recorded if it
    /// actually changed `N_e` (re-adding is an idempotent no-op).
    pub fn add_essential_property(&mut self, t: TypeId, p: PropId) -> Result<bool> {
        match self.schema.add_essential_property(t, p) {
            Ok(true) => {
                self.ops.push(RecordedOp::AddEssentialProperty { t, p });
                Ok(true)
            }
            other => other,
        }
    }

    /// Recorded `drop_essential_property` (MT-DB).
    pub fn drop_essential_property(&mut self, t: TypeId, p: PropId) -> Result<()> {
        let r = self.schema.drop_essential_property(t, p);
        self.record(r, RecordedOp::DropEssentialProperty { t, p })
    }

    /// Recorded convenience `define_property_on`.
    pub fn define_property_on(&mut self, t: TypeId, name: impl Into<String>) -> Result<PropId> {
        self.schema.check_live(t)?;
        let p = self.add_property(name);
        self.add_essential_property(t, p)?;
        Ok(p)
    }

    /// Replay a trace of recorded operations as **one** batched evolution
    /// step (a single shared recomputation — see [`Schema::apply_trace`]),
    /// recording each operation that applied. Returns the number applied.
    ///
    /// On error the successfully applied prefix stays both applied and
    /// recorded, so the log keeps mirroring the schema exactly; replay via
    /// [`History::as_of`] reproduces the same state because batched and
    /// op-by-op application are observationally equivalent.
    pub fn apply_trace(&mut self, ops: &[RecordedOp]) -> Result<usize> {
        let mut applied = 0usize;
        let r = self.schema.evolve_batch(|s| {
            for op in ops {
                op.apply(s)?;
                applied += 1;
            }
            Ok(())
        });
        self.ops.extend(ops[..applied].iter().cloned());
        r.map(|()| applied)
    }
}

/// Do `a` and `b` evolve `initial` to observationally identical schemas?
///
/// Both traces are replayed op-by-op on clones of `initial`; the final
/// states are compared by [`Schema::canonical_fingerprint`] (identity-
/// insensitive, so renumbered-but-isomorphic results still count as
/// equal). Returns `false` if either replay rejects an op — a rewrite
/// that turns a runnable trace into a failing one is not
/// semantics-preserving. This is the differential check backing
/// `analysis::optimize_trace`.
pub fn traces_equivalent(initial: &Schema, a: &[RecordedOp], b: &[RecordedOp]) -> bool {
    let run = |ops: &[RecordedOp]| -> Option<u64> {
        let mut s = initial.clone();
        for op in ops {
            op.apply(&mut s).ok()?;
        }
        Some(s.canonical_fingerprint())
    };
    match (run(a), run(b)) {
        (Some(fa), Some(fb)) => fa == fb,
        _ => false,
    }
}

/// Errors raised by history operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryError {
    /// Requested version exceeds the log length.
    NoSuchVersion {
        /// The version asked for.
        requested: usize,
        /// The latest version available.
        latest: usize,
    },
    /// The initial snapshot failed to parse (should be impossible for
    /// histories created through this module).
    BadInitialSnapshot(SnapshotError),
    /// Replay hit a rejection (should be impossible: only successful ops
    /// are recorded, and replay is deterministic).
    ReplayFailed(SchemaError),
}

impl From<SnapshotError> for HistoryError {
    fn from(e: SnapshotError) -> Self {
        HistoryError::BadInitialSnapshot(e)
    }
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::NoSuchVersion { requested, latest } => {
                write!(f, "no version {requested} (latest is {latest})")
            }
            HistoryError::BadInitialSnapshot(e) => write!(f, "bad initial snapshot: {e}"),
            HistoryError::ReplayFailed(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;

    fn evolved() -> (History, TypeId, TypeId, PropId) {
        let mut h = History::new(LatticeConfig::default());
        let root = h.add_root_type("T_object").unwrap();
        let a = h.add_type("A", [root], []).unwrap();
        let p = h.define_property_on(a, "x").unwrap();
        let b = h.add_type("B", [a], []).unwrap();
        (h, a, b, p)
    }

    #[test]
    fn replay_reproduces_current_state_exactly() {
        let (h, ..) = evolved();
        let replayed = h.as_of(h.len()).unwrap();
        assert_eq!(replayed.fingerprint(), h.schema().fingerprint());
        // Including identities, thanks to determinism.
        assert_eq!(replayed.type_by_name("B"), h.schema().type_by_name("B"));
    }

    #[test]
    fn every_version_satisfies_the_axioms() {
        let (mut h, a, b, p) = evolved();
        h.drop_essential_property(a, p).unwrap();
        h.drop_essential_supertype(b, a).unwrap();
        h.drop_type(a).unwrap();
        for v in 0..=h.len() {
            let s = h.as_of(v).unwrap();
            assert!(s.verify().is_empty(), "version {v}");
            assert!(crate::oracle::check_schema(&s).is_empty(), "version {v}");
        }
    }

    #[test]
    fn time_travel_sees_dropped_types() {
        let (mut h, a, _b, _p) = evolved();
        let before_drop = h.len();
        h.drop_type(a).unwrap();
        assert!(h.schema().type_by_name("A").is_none());
        let old = h.as_of(before_drop).unwrap();
        assert!(old.type_by_name("A").is_some());
        assert!(old.interface(a).is_ok());
    }

    #[test]
    fn undo_restores_and_truncates() {
        let (mut h, a, _b, p) = evolved();
        let v = h.len();
        h.drop_essential_property(a, p).unwrap();
        h.drop_type(a).unwrap();
        assert_eq!(h.len(), v + 2);
        h.undo_to(v).unwrap();
        assert_eq!(h.len(), v);
        assert!(h.schema().type_by_name("A").is_some());
        assert!(h.schema().native_properties(a).unwrap().contains(&p));
        // Evolution continues cleanly after an undo.
        h.rename_type(a, "A2").unwrap();
        assert_eq!(
            h.as_of(h.len()).unwrap().fingerprint(),
            h.schema().fingerprint()
        );
    }

    #[test]
    fn rejected_ops_are_not_recorded() {
        let (mut h, a, b, _p) = evolved();
        let v = h.len();
        assert!(h.add_essential_supertype(a, b).is_err()); // cycle
        assert!(h.drop_type(TypeId::from_index(99)).is_err());
        assert_eq!(h.len(), v);
        // Idempotent re-add is not recorded either.
        let p2 = h.add_property("y");
        assert!(h.add_essential_property(a, p2).unwrap());
        let v2 = h.len();
        assert!(!h.add_essential_property(a, p2).unwrap());
        assert_eq!(h.len(), v2);
    }

    #[test]
    fn undo_preserves_engine_selection() {
        let (mut h, a, ..) = evolved();
        let v = h.len();
        h.set_engine(crate::engine::EngineKind::Naive);
        h.drop_type(a).unwrap();
        h.undo_to(v).unwrap();
        assert_eq!(h.schema().engine(), crate::engine::EngineKind::Naive);
        assert!(h.schema().type_by_name("A").is_some());
    }

    #[test]
    fn no_such_version_errors() {
        let (h, ..) = evolved();
        match h.as_of(h.len() + 1) {
            Err(HistoryError::NoSuchVersion { requested, latest }) => {
                assert_eq!(requested, h.len() + 1);
                assert_eq!(latest, h.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn apply_trace_records_batched_ops_replayably() {
        let (mut h, a, _b, _p) = evolved();
        let n = h
            .apply_trace(&[
                RecordedOp::AddProperty { name: "y".into() },
                RecordedOp::AddType {
                    name: "C".into(),
                    supers: vec![a],
                    props: vec![],
                },
            ])
            .unwrap();
        assert_eq!(n, 2);
        // The batched ops are in the log and op-by-op replay reproduces the
        // batched result exactly.
        assert_eq!(
            h.as_of(h.len()).unwrap().fingerprint(),
            h.schema().fingerprint()
        );
        assert!(h.schema().type_by_name("C").is_some());
    }

    #[test]
    fn failed_apply_trace_keeps_applied_prefix_recorded() {
        let (mut h, a, b, _p) = evolved();
        let v = h.len();
        let err = h
            .apply_trace(&[
                RecordedOp::AddType {
                    name: "C".into(),
                    supers: vec![a],
                    props: vec![],
                },
                RecordedOp::AddEssentialSupertype { t: a, s: b }, // cycle
            ])
            .unwrap_err();
        assert!(matches!(err, SchemaError::WouldCreateCycle { .. }));
        // The prefix stays applied AND recorded: log mirrors schema.
        assert_eq!(h.len(), v + 1);
        assert!(h.schema().type_by_name("C").is_some());
        assert_eq!(
            h.as_of(h.len()).unwrap().fingerprint(),
            h.schema().fingerprint()
        );
        assert!(h.schema().verify().is_empty());
    }

    #[test]
    fn history_from_nonempty_schema() {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let fp0 = s.fingerprint();
        let mut h = History::from_schema(s);
        h.add_type("X", [], []).unwrap();
        assert_eq!(h.as_of(0).unwrap().fingerprint(), fp0);
        assert_eq!(h.as_of(1).unwrap().fingerprint(), h.schema().fingerprint());
    }

    #[test]
    fn diff_between_versions_explains_changes() {
        let (mut h, a, _b, _p) = evolved();
        let v = h.len();
        h.define_property_on(a, "extra").unwrap();
        let old = h.as_of(v).unwrap();
        let d = crate::diff::diff(&old, h.schema());
        assert_eq!(d.len(), 1);
        assert!(d.to_string().contains("extra") || d.to_string().contains("N_e"));
    }
}
