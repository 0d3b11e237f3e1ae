//! Observability for the evolution pipeline: metrics + structured tracing.
//!
//! This module is the *only* place in the workspace that owns counters —
//! every other layer (engine, ops, concurrent, journal, history) takes an
//! optional [`EvolveObs`] handle and reports through it. `EvolveObs`
//! pre-resolves its counter/histogram handles from a shared
//! [`MetricsRegistry`] at construction time, so the hot paths pay one
//! `Option` check plus an atomic add — no locks, no map lookups, no
//! allocation.
//!
//! Determinism guarantee: with a single writer on `MemIo` (or any
//! deterministic I/O), every counter, histogram bucket, and span event is
//! a pure function of the operation sequence. The conformance and
//! determinism test suites rely on this to assert *exact* counts; see
//! DESIGN.md §9 for the metric catalog.

mod metrics;
mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{EvolveTracer, RecomputeScope, SpanData, SpanEvent};

use std::sync::Arc;

use crate::history::RecordedOp;
use crate::journal::RecoveryReport;

/// Canonical metric names used by the evolution pipeline.
///
/// Counters unless noted; `engine.affected_set_size` and
/// `engine.lattice_depth` are histograms. `ops.<kind>` counters (one per
/// [`RecordedOp`] variant, e.g.
/// `ops.add_type`) are registered lazily as operations flow through an
/// observed journal.
pub mod names {
    /// Whole-lattice recomputations.
    pub const ENGINE_FULL: &str = "engine.full_recomputes";
    /// Scoped (down-set) recomputations that derived ≥ 1 type.
    pub const ENGINE_SCOPED: &str = "engine.scoped_recomputes";
    /// Scoped recomputations whose affected set was empty.
    pub const ENGINE_NOOP: &str = "engine.noop_recomputes";
    /// Total per-type derivations across all recomputations.
    pub const ENGINE_TYPES_DERIVED: &str = "engine.types_derived";
    /// Copy-on-write copies actually performed on storage a schema version
    /// shares with another: spine leaves, spine cells and name shards.
    pub const ENGINE_COW_COPIES: &str = "engine.cow_copies";
    /// Histogram: types re-derived per recomputation.
    pub const ENGINE_AFFECTED: &str = "engine.affected_set_size";
    /// Histogram: longest derivation chain per recomputation.
    pub const ENGINE_DEPTH: &str = "engine.lattice_depth";
    /// `SharedSchema::snapshot` calls.
    pub const SHARED_SNAPSHOTS: &str = "shared.snapshots";
    /// Schema versions published (successful commits).
    pub const SHARED_PUBLISHES: &str = "shared.publishes";
    /// Evolutions rejected before publish (closure or commit error).
    pub const SHARED_REJECTED: &str = "shared.rejected";
    /// `append_all` batches written to the WAL.
    pub const JOURNAL_APPEND_BATCHES: &str = "journal.append_batches";
    /// Records appended to the WAL.
    pub const JOURNAL_APPENDED_RECORDS: &str = "journal.appended_records";
    /// Encoded WAL bytes appended.
    pub const JOURNAL_APPENDED_BYTES: &str = "journal.appended_bytes";
    /// Successful `fsync`/`fsync_dir` calls through the journal I/O.
    pub const JOURNAL_FSYNCS: &str = "journal.fsyncs";
    /// Checkpoints written.
    pub const JOURNAL_CHECKPOINTS: &str = "journal.checkpoints";
    /// Checkpoint bytes written.
    pub const JOURNAL_CHECKPOINT_BYTES: &str = "journal.checkpoint_bytes";
    /// Durability state transitions.
    pub const DURABILITY_TRANSITIONS: &str = "durability.transitions";
    /// Commit retry attempts (after initial failures).
    pub const DURABILITY_RETRIES: &str = "durability.retries";
    /// Commits that succeeded on a retry attempt.
    pub const DURABILITY_RETRY_SUCCESSES: &str = "durability.retry_successes";
    /// Transitions into the degraded read-only state.
    pub const DURABILITY_DEGRADATIONS: &str = "durability.degradations";
    /// Probe appends admitted after a degraded cooldown.
    pub const DURABILITY_PROBES: &str = "durability.probes";
    /// Successful probes (degraded → recovered re-arms).
    pub const DURABILITY_REARMS: &str = "durability.rearms";
    /// Appends rejected fast with `Unavailable` while degraded.
    pub const DURABILITY_UNAVAILABLE: &str = "durability.unavailable_rejections";
    /// Checkpoint GCs run to reclaim space after `ENOSPC`.
    pub const DURABILITY_DISK_FULL_GCS: &str = "durability.disk_full_gcs";
    /// Writer panics caught and converted to typed errors.
    pub const DURABILITY_PANICS_ISOLATED: &str = "durability.panics_isolated";
    /// Corrupt WAL segments renamed to `*.quar` during recovery.
    pub const DURABILITY_QUARANTINED: &str = "durability.quarantined_segments";
    /// WAL records replayed during recovery.
    pub const RECOVERY_REPLAYED: &str = "recovery.replayed";
    /// Damaged checkpoints skipped during salvage recovery.
    pub const RECOVERY_SKIPPED_CHECKPOINTS: &str = "recovery.skipped_checkpoints";
    /// Invalid WAL tails dropped during salvage recovery.
    pub const RECOVERY_DROPPED_TAILS: &str = "recovery.dropped_tails";
    /// Bytes dropped with salvaged WAL tails.
    pub const RECOVERY_DROPPED_BYTES: &str = "recovery.dropped_bytes";
    /// Prefix of the per-operation-kind counters (`ops.add_type`, …).
    pub const OPS_PREFIX: &str = "ops.";
    /// Plan certificates re-verified successfully by `plan::check`.
    pub const PLAN_CHECKS: &str = "plan.checks";
    /// Plan certificates rejected by `plan::check`.
    pub const PLAN_CHECKS_FAILED: &str = "plan.checks_failed";
    /// Stages across all checked plans.
    pub const PLAN_STAGES: &str = "plan.stages";
    /// Classes across all checked plans.
    pub const PLAN_CLASSES: &str = "plan.classes";
    /// Sum of widest-stage widths across all checked plans.
    pub const PLAN_MAX_PARALLELISM: &str = "plan.max_parallelism";
    /// Certified plans executed to completion by `apply_plan`.
    pub const PLAN_APPLIES: &str = "plan.applies";
    /// Operations applied through certified plans.
    pub const PLAN_OPS: &str = "plan.ops_applied";
    /// Successful time-travel opens (`open_at` / `replay_at`).
    pub const TIMETRAVEL_OPENS: &str = "timetravel.opens";
    /// WAL operations replayed on top of checkpoints by time-travel opens.
    pub const TIMETRAVEL_REPLAYED_OPS: &str = "timetravel.replayed_ops";
    /// Time-travel opens rejected (out of range, pruned, or corrupt).
    pub const TIMETRAVEL_REJECTED: &str = "timetravel.rejected";
    /// Merge attempts (certified or not).
    pub const MERGE_ATTEMPTS: &str = "merge.attempts";
    /// Merges certified commuting and applied.
    pub const MERGE_CERTIFIED: &str = "merge.certified";
    /// Merges rejected with a witnessed cross-branch conflict.
    pub const MERGE_CONFLICTS: &str = "merge.conflicts";
    /// Cross-branch pairs examined across all merge attempts.
    pub const MERGE_CROSS_PAIRS: &str = "merge.cross_pairs";
    /// Operations adopted from the other branch by certified merges.
    pub const MERGE_OPS_MERGED: &str = "merge.ops_merged";
    /// Impact analyses run.
    pub const IMPACT_ANALYSES: &str = "impact.analyses";
    /// Ops classified by the impact analyzer.
    pub const IMPACT_OPS: &str = "impact.ops_classified";
    /// Ops classified preserving.
    pub const IMPACT_PRESERVING: &str = "impact.ops_preserving";
    /// Ops classified extending.
    pub const IMPACT_EXTENDING: &str = "impact.ops_extending";
    /// Ops classified refining.
    pub const IMPACT_REFINING: &str = "impact.ops_refining";
    /// Ops classified destructive.
    pub const IMPACT_DESTRUCTIVE: &str = "impact.ops_destructive";
    /// Conversion obligations derived.
    pub const IMPACT_OBLIGATIONS: &str = "impact.obligations";
    /// Obligations requiring a guard.
    pub const IMPACT_GUARDED: &str = "impact.obligations_guarded";
    /// Impact certificates re-verified.
    pub const IMPACT_CHECKS: &str = "impact.checks";
    /// Impact certificates refused by the checker.
    pub const IMPACT_CHECKS_FAILED: &str = "impact.checks_failed";
}

/// The observer handle threaded through the evolution pipeline.
///
/// Wraps a shared [`MetricsRegistry`] (handles pre-resolved) and an
/// optional [`EvolveTracer`]. Attach one to a
/// [`Schema`](crate::model::Schema) with
/// [`Schema::attach_obs`](crate::model::Schema::attach_obs), or thread it
/// through the journal with
/// [`Journal::open_observed`](crate::journal::Journal::open_observed) /
/// [`JournaledSchema::open_observed`](crate::journal::JournaledSchema::open_observed).
#[derive(Debug)]
pub struct EvolveObs {
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<EvolveTracer>>,
    full: Arc<Counter>,
    scoped: Arc<Counter>,
    noop: Arc<Counter>,
    types_derived: Arc<Counter>,
    cow_copies: Arc<Counter>,
    affected: Arc<Histogram>,
    depth: Arc<Histogram>,
    snapshots: Arc<Counter>,
    publishes: Arc<Counter>,
    rejected: Arc<Counter>,
    append_batches: Arc<Counter>,
    appended_records: Arc<Counter>,
    appended_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    durability_transitions: Arc<Counter>,
    durability_retries: Arc<Counter>,
    durability_retry_successes: Arc<Counter>,
    durability_degradations: Arc<Counter>,
    durability_probes: Arc<Counter>,
    durability_rearms: Arc<Counter>,
    durability_unavailable: Arc<Counter>,
    durability_disk_full_gcs: Arc<Counter>,
    durability_panics_isolated: Arc<Counter>,
    durability_quarantined: Arc<Counter>,
    timetravel_opens: Arc<Counter>,
    timetravel_replayed_ops: Arc<Counter>,
    timetravel_rejected: Arc<Counter>,
    merge_attempts: Arc<Counter>,
    merge_certified: Arc<Counter>,
    merge_conflicts: Arc<Counter>,
    merge_cross_pairs: Arc<Counter>,
    merge_ops_merged: Arc<Counter>,
}

impl EvolveObs {
    /// An observer counting into `registry`, with no tracer.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self::build(registry, None)
    }

    /// An observer counting into `registry` and emitting span events to
    /// `tracer`.
    pub fn with_tracer(registry: Arc<MetricsRegistry>, tracer: Arc<EvolveTracer>) -> Self {
        Self::build(registry, Some(tracer))
    }

    fn build(registry: Arc<MetricsRegistry>, tracer: Option<Arc<EvolveTracer>>) -> Self {
        EvolveObs {
            full: registry.counter(names::ENGINE_FULL),
            scoped: registry.counter(names::ENGINE_SCOPED),
            noop: registry.counter(names::ENGINE_NOOP),
            types_derived: registry.counter(names::ENGINE_TYPES_DERIVED),
            cow_copies: registry.counter(names::ENGINE_COW_COPIES),
            affected: registry.histogram(names::ENGINE_AFFECTED),
            depth: registry.histogram(names::ENGINE_DEPTH),
            snapshots: registry.counter(names::SHARED_SNAPSHOTS),
            publishes: registry.counter(names::SHARED_PUBLISHES),
            rejected: registry.counter(names::SHARED_REJECTED),
            append_batches: registry.counter(names::JOURNAL_APPEND_BATCHES),
            appended_records: registry.counter(names::JOURNAL_APPENDED_RECORDS),
            appended_bytes: registry.counter(names::JOURNAL_APPENDED_BYTES),
            fsyncs: registry.counter(names::JOURNAL_FSYNCS),
            checkpoints: registry.counter(names::JOURNAL_CHECKPOINTS),
            checkpoint_bytes: registry.counter(names::JOURNAL_CHECKPOINT_BYTES),
            durability_transitions: registry.counter(names::DURABILITY_TRANSITIONS),
            durability_retries: registry.counter(names::DURABILITY_RETRIES),
            durability_retry_successes: registry.counter(names::DURABILITY_RETRY_SUCCESSES),
            durability_degradations: registry.counter(names::DURABILITY_DEGRADATIONS),
            durability_probes: registry.counter(names::DURABILITY_PROBES),
            durability_rearms: registry.counter(names::DURABILITY_REARMS),
            durability_unavailable: registry.counter(names::DURABILITY_UNAVAILABLE),
            durability_disk_full_gcs: registry.counter(names::DURABILITY_DISK_FULL_GCS),
            durability_panics_isolated: registry.counter(names::DURABILITY_PANICS_ISOLATED),
            durability_quarantined: registry.counter(names::DURABILITY_QUARANTINED),
            timetravel_opens: registry.counter(names::TIMETRAVEL_OPENS),
            timetravel_replayed_ops: registry.counter(names::TIMETRAVEL_REPLAYED_OPS),
            timetravel_rejected: registry.counter(names::TIMETRAVEL_REJECTED),
            merge_attempts: registry.counter(names::MERGE_ATTEMPTS),
            merge_certified: registry.counter(names::MERGE_CERTIFIED),
            merge_conflicts: registry.counter(names::MERGE_CONFLICTS),
            merge_cross_pairs: registry.counter(names::MERGE_CROSS_PAIRS),
            merge_ops_merged: registry.counter(names::MERGE_OPS_MERGED),
            registry,
            tracer,
        }
    }

    /// The registry this observer counts into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The span-event sink, if one was attached.
    pub fn tracer(&self) -> Option<&Arc<EvolveTracer>> {
        self.tracer.as_ref()
    }

    #[inline]
    fn span(&self, data: SpanData) {
        if let Some(t) = &self.tracer {
            t.record(data);
        }
    }

    /// A recomputation finished: `affected` types re-derived, longest
    /// derivation chain `depth`.
    pub(crate) fn on_recompute(&self, scope: RecomputeScope, affected: u64, depth: u64) {
        match scope {
            RecomputeScope::Full => self.full.inc(),
            RecomputeScope::Scoped => self.scoped.inc(),
            RecomputeScope::Noop => self.noop.inc(),
        }
        self.types_derived.add(affected);
        self.affected.observe(affected);
        self.depth.observe(depth);
        self.span(SpanData::Recompute {
            scope,
            affected,
            depth,
        });
    }

    /// A copy-on-write edit copied a shared spine leaf, spine cell or name
    /// shard.
    #[inline]
    pub(crate) fn on_cow_copy(&self) {
        self.cow_copies.inc();
    }

    /// A reader took a `SharedSchema` snapshot.
    #[inline]
    pub(crate) fn on_snapshot(&self) {
        self.snapshots.inc();
    }

    /// A new schema version was published.
    pub(crate) fn on_publish(&self, version: u64) {
        self.publishes.inc();
        self.span(SpanData::Publish { version });
    }

    /// An evolution was rejected before publish.
    #[inline]
    pub(crate) fn on_reject(&self) {
        self.rejected.inc();
    }

    /// A recorded operation is about to be applied (journal append or
    /// recovery replay), at journal sequence `seq`.
    pub(crate) fn on_op(&self, seq: u64, op: &RecordedOp) {
        self.registry
            .add(&format!("{}{}", names::OPS_PREFIX, op.kind_name()), 1);
        if self.tracer.is_some() {
            self.span(SpanData::OpStart {
                seq,
                op: crate::journal::wire::encode_op(op),
            });
        }
    }

    /// A WAL append batch succeeded.
    pub(crate) fn on_journal_append(&self, records: u64, bytes: u64) {
        self.append_batches.inc();
        self.appended_records.add(records);
        self.appended_bytes.add(bytes);
        self.span(SpanData::JournalAppend { records, bytes });
    }

    /// A journal I/O fsync (file or directory) succeeded.
    #[inline]
    pub(crate) fn on_fsync(&self) {
        self.fsyncs.inc();
    }

    /// A checkpoint of `bytes` encoded bytes was written.
    pub(crate) fn on_checkpoint(&self, bytes: u64) {
        self.checkpoints.inc();
        self.checkpoint_bytes.add(bytes);
    }

    /// The durability machine moved from `from` to `to` (span-traced with
    /// the reason; the counter tracks total transitions).
    pub(crate) fn on_durability_transition(
        &self,
        from: &'static str,
        to: &'static str,
        reason: &str,
    ) {
        self.durability_transitions.inc();
        if self.tracer.is_some() {
            self.span(SpanData::Durability {
                from,
                to,
                reason: reason.to_string(),
            });
        }
    }

    /// A commit retry attempt started.
    #[inline]
    pub(crate) fn on_durability_retry(&self) {
        self.durability_retries.inc();
    }

    /// A commit succeeded on a retry attempt.
    #[inline]
    pub(crate) fn on_durability_retry_success(&self) {
        self.durability_retry_successes.inc();
    }

    /// The journal degraded to read-only.
    #[inline]
    pub(crate) fn on_durability_degraded(&self) {
        self.durability_degradations.inc();
    }

    /// A probe append was admitted after a degraded cooldown.
    #[inline]
    pub(crate) fn on_durability_probe(&self) {
        self.durability_probes.inc();
    }

    /// A probe succeeded: the journal re-armed.
    #[inline]
    pub(crate) fn on_durability_rearm(&self) {
        self.durability_rearms.inc();
    }

    /// An append was rejected fast with `Unavailable` while degraded.
    #[inline]
    pub(crate) fn on_durability_unavailable(&self) {
        self.durability_unavailable.inc();
    }

    /// A checkpoint GC ran to reclaim space after `ENOSPC`.
    #[inline]
    pub(crate) fn on_durability_disk_full_gc(&self) {
        self.durability_disk_full_gcs.inc();
    }

    /// A writer panic was caught and isolated.
    #[inline]
    pub(crate) fn on_durability_panic_isolated(&self) {
        self.durability_panics_isolated.inc();
    }

    /// Recovery quarantined `segments` corrupt WAL files.
    #[inline]
    pub(crate) fn on_durability_quarantine(&self, segments: u64) {
        self.durability_quarantined.add(segments);
    }

    /// A time-travel open succeeded after replaying `replayed` WAL ops
    /// on top of the checkpoint.
    #[inline]
    pub(crate) fn on_timetravel_open(&self, replayed: u64) {
        self.timetravel_opens.inc();
        self.timetravel_replayed_ops.add(replayed);
    }

    /// A time-travel open was rejected (out of range, pruned history,
    /// or a corrupt journal).
    #[inline]
    pub(crate) fn on_timetravel_rejected(&self) {
        self.timetravel_rejected.inc();
    }

    /// A merge attempt examined `cross_pairs` cross-branch pairs and
    /// either certified (adopting `ops_merged` ops) or witnessed a
    /// conflict.
    #[inline]
    pub(crate) fn on_merge(&self, cross_pairs: u64, certified: bool, ops_merged: u64) {
        self.merge_attempts.inc();
        self.merge_cross_pairs.add(cross_pairs);
        if certified {
            self.merge_certified.inc();
            self.merge_ops_merged.add(ops_merged);
        } else {
            self.merge_conflicts.inc();
        }
    }

    /// Fold a recovery report into the `recovery.*` counters.
    pub(crate) fn fold_recovery(&self, report: &RecoveryReport) {
        self.registry.fold_recovery(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::Schema;

    #[test]
    fn attached_schema_mirrors_engine_stats_and_counts_cow() {
        let reg = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(EvolveTracer::new());
        let obs = Arc::new(EvolveObs::with_tracer(
            Arc::clone(&reg),
            Arc::clone(&tracer),
        ));
        let mut s = Schema::new(LatticeConfig::default());
        s.attach_obs(Arc::clone(&obs));
        let root = s.add_root_type("root").unwrap();
        let a = s.add_type("a", [root], []).unwrap();
        s.add_type("b", [a], []).unwrap();

        let stats = *s.stats();
        assert_eq!(reg.get(names::ENGINE_FULL), stats.full_recomputes);
        assert_eq!(reg.get(names::ENGINE_SCOPED), stats.scoped_recomputes);
        assert_eq!(reg.get(names::ENGINE_NOOP), stats.noop_recomputes);
        assert_eq!(reg.get(names::ENGINE_TYPES_DERIVED), stats.types_derived);

        // The affected-set histogram counted one observation per recompute.
        let snap = reg.snapshot();
        let hist = &snap.histograms[names::ENGINE_AFFECTED];
        assert_eq!(
            hist.count,
            stats.full_recomputes + stats.scoped_recomputes + stats.noop_recomputes
        );
        assert_eq!(hist.sum, stats.types_derived);

        // Nothing was copied while this schema was the sole owner of its
        // storage; editing next to a live clone copies exactly then.
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 0);
        let keep = s.clone();
        let p = s.add_property("x");
        s.add_essential_property(a, p).unwrap();
        assert!(reg.get(names::ENGINE_COW_COPIES) > 0);
        drop(keep);

        // Recompute spans were traced with monotonic sequence numbers.
        let events = tracer.events();
        assert!(events.iter().any(|e| e.data.kind() == "recompute"));
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
    }

    #[test]
    fn cow_copies_count_leaf_and_cell_copies_of_a_clone_only() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("root").unwrap();
        let a = s.add_type("a", [root], []).unwrap();
        let b = s.add_type("b", [root], []).unwrap();
        s.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&reg))));

        // Uniquely owned: the write edits its leaf and cell in place.
        s.freeze_type(a).unwrap();
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 0);

        // Freshly cloned: the write copies the shared leaf, then the cell.
        let keep = s.clone();
        s.freeze_type(b).unwrap();
        assert_eq!(reg.get(names::ENGINE_COW_COPIES), 2);
        assert!(!keep.is_frozen(b) && s.is_frozen(b));
    }

    #[test]
    fn depth_histogram_tracks_invalidation_chain() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Arc::new(EvolveObs::new(Arc::clone(&reg)));
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("root").unwrap();
        let mut prev = root;
        for i in 0..4 {
            prev = s.add_type(format!("c{i}"), [prev], []).unwrap();
        }
        s.attach_obs(Arc::clone(&obs));
        let c0 = s.type_by_name("c0").unwrap();
        let p = s.add_property("x");
        // Seeding at c0 invalidates the chain c0..c3: 4 types, depth 4.
        s.add_essential_property(c0, p).unwrap();
        let snap = reg.snapshot();
        let depth = &snap.histograms[names::ENGINE_DEPTH];
        assert_eq!(depth.count, 1);
        assert_eq!(depth.sum, 4);
        let affected = &snap.histograms[names::ENGINE_AFFECTED];
        assert_eq!(affected.sum, 4);
    }
}
