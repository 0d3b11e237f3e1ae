//! Dynamic schema evolution: changing the schema *while the system is in
//! operation*.
//!
//! The paper defines dynamic schema evolution as "the management of schema
//! changes while the system is in operation" (§1). [`SharedSchema`] makes
//! that concrete for a concurrent objectbase: readers obtain immutable,
//! consistent snapshots of the schema ([`SharedSchema::snapshot`]) and keep
//! resolving interfaces against them while a writer evolves the schema
//! through [`SharedSchema::evolve`].
//!
//! # Version publishing
//!
//! The implementation is copy-on-write with all mutation staged **off the
//! lock**. Writers serialize on a dedicated mutex; the read–write lock on
//! the current version is held only long enough to clone an `Arc` (taking
//! the base snapshot) or to swap a pointer (publishing). An evolution step:
//!
//! 1. takes the writer mutex (serializing writers, not readers),
//! 2. clones the current version — one pointer copy per 64 slots and per
//!    name shard, because [`Schema`] keeps its storage in chunked
//!    persistent spines (see [`crate::model`]); step 3's edits then copy
//!    only the 64-slot leaves, records and name shards they touch,
//! 3. runs the mutation closure, including all lattice recomputation, on
//!    that private clone with **no lock held**,
//! 4. on `Ok`, publishes the clone with a single pointer swap; on `Err`,
//!    drops it.
//!
//! Readers are therefore never blocked by recomputation — however expensive
//! an in-flight evolution step is, `snapshot()` only ever waits for a
//! pointer read. They see either the old or the new schema version, never a
//! torn one, and a failed (rejected) operation never publishes a partially
//! evolved schema — the same failure-atomicity the single-threaded
//! operations guarantee, lifted to the concurrent setting. In particular a
//! failed [`SharedSchema::evolve_batch`] publishes *nothing*, restoring the
//! all-or-nothing semantics that the plain [`Schema::evolve_batch`]
//! (which keeps successfully applied inputs on error) cannot give by
//! itself.
//!
//! # Writer panics
//!
//! A panic inside an evolve closure unwinds while only the *staged clone*
//! is being mutated — the published version is untouched — and the locks
//! used here are non-poisoning, so after the unwind readers keep
//! snapshotting and other writers keep evolving as if the failed step had
//! simply been rejected (regression-tested below with `catch_unwind` and a
//! panicking writer thread).

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::Result;
use crate::history::RecordedOp;
use crate::model::Schema;
use crate::obs::EvolveObs;

/// A concurrently shared, snapshot-versioned schema handle.
///
/// ```
/// use axiombase_core::{Schema, SharedSchema, LatticeConfig};
///
/// let mut s = Schema::new(LatticeConfig::default());
/// let root = s.add_root_type("T_object")?;
/// let shared = SharedSchema::new(s);
///
/// let snap = shared.snapshot();          // reader's consistent view
/// shared.evolve(|s| s.add_type("A", [], []).map(|_| ()))?;
/// assert_eq!(snap.type_count(), 1);      // old snapshot is unchanged
/// assert_eq!(shared.snapshot().type_count(), 2);
/// # let _ = root;
/// # Ok::<(), axiombase_core::SchemaError>(())
/// ```
#[derive(Debug)]
pub struct SharedSchema {
    /// The published version. Locked only for `Arc` clone / pointer swap.
    current: RwLock<Arc<Schema>>,
    /// Serializes writers so staged clones never race each other (a lost
    /// update would silently drop a published evolution step).
    writer: Mutex<()>,
    /// Adopted from the wrapped schema (or [`SharedSchema::with_obs`]):
    /// counts snapshot / publish / reject traffic on this handle.
    obs: Option<Arc<EvolveObs>>,
}

impl SharedSchema {
    /// Wrap a schema for shared use. If the schema carries an observer
    /// (see [`Schema::attach_obs`]) the handle adopts it and reports
    /// snapshot/publish/reject counts through it too.
    pub fn new(schema: Schema) -> Self {
        let obs = schema.obs().cloned();
        SharedSchema {
            current: RwLock::new(Arc::new(schema)),
            writer: Mutex::new(()),
            obs,
        }
    }

    /// Wrap a schema for shared use, attaching `obs` to the schema (and
    /// this handle) in one step.
    pub fn with_obs(mut schema: Schema, obs: Arc<EvolveObs>) -> Self {
        schema.attach_obs(obs);
        Self::new(schema)
    }

    /// A consistent snapshot of the current schema version. Cheap (an `Arc`
    /// clone); the snapshot remains valid and immutable regardless of later
    /// evolution, and never waits on an in-flight [`SharedSchema::evolve`].
    pub fn snapshot(&self) -> Arc<Schema> {
        if let Some(o) = &self.obs {
            o.on_snapshot();
        }
        self.current.read().clone()
    }

    /// Current schema version counter.
    pub fn version(&self) -> u64 {
        self.current.read().version()
    }

    /// Apply a schema-evolution step. The closure runs on a private clone
    /// with no lock on the published version held — concurrent readers keep
    /// snapshotting the old version while the closure (and its lattice
    /// recomputation) runs. The result is published atomically only on
    /// `Ok`; on `Err` the shared schema is untouched and the error is
    /// returned.
    pub fn evolve<F, R>(&self, f: F) -> Result<R>
    where
        F: FnOnce(&mut Schema) -> Result<R>,
    {
        self.evolve_commit(f, |_| Ok(()))
    }

    /// Like [`SharedSchema::evolve`], but with a commit hook that runs
    /// after the mutation succeeds and **before** the new version is
    /// published. If the hook fails nothing is published — this is the
    /// write-ahead ordering hook the durability layer
    /// ([`crate::journal::JournaledSchema`]) uses to append and fsync an
    /// operation's journal record before any reader can observe its
    /// effects.
    pub fn evolve_commit<F, C, R, E>(&self, f: F, commit: C) -> std::result::Result<R, E>
    where
        F: FnOnce(&mut Schema) -> std::result::Result<R, E>,
        C: FnOnce(&Schema) -> std::result::Result<(), E>,
    {
        let _writer = self.writer.lock();
        // Read lock held only for the Arc clone inside `snapshot()`.
        let mut next = (*self.snapshot()).clone();
        let out = match f(&mut next) {
            Ok(out) => out,
            Err(e) => {
                if let Some(o) = &self.obs {
                    o.on_reject();
                }
                return Err(e);
            }
        };
        if let Err(e) = commit(&next) {
            if let Some(o) = &self.obs {
                o.on_reject();
            }
            return Err(e);
        }
        let version = next.version();
        // Publish: a single pointer swap under the write lock.
        *self.current.write() = Arc::new(next);
        if let Some(o) = &self.obs {
            o.on_publish(version);
        }
        Ok(out)
    }

    /// Apply many operations as one batched evolution step: the closure's
    /// edits share a single scoped recomputation (see
    /// [`Schema::evolve_batch`]) and publish as **one** new version. On
    /// `Err` nothing is published at all — the strongest form of the batch's
    /// failure semantics.
    pub fn evolve_batch<F, R>(&self, f: F) -> Result<R>
    where
        F: FnOnce(&mut Schema) -> Result<R>,
    {
        self.evolve(|s| s.evolve_batch(f))
    }

    /// Replay a recorded trace as one batched, atomically published
    /// evolution step. Returns the number of operations applied.
    pub fn apply_trace(&self, ops: &[RecordedOp]) -> Result<usize> {
        self.evolve(|s| s.apply_trace(ops))
    }

    /// Execute a certified evolution plan (see [`Schema::apply_plan`]) on
    /// a private clone and publish the result atomically. On `Err` —
    /// including a certificate the independent checker refuses — nothing
    /// is published at all, upgrading the plain schema's applied-prefix
    /// semantics to all-or-nothing.
    ///
    /// `_threads` is ignored: the plan runs as one batch. It stays in the
    /// signature only because the end-to-end benchmark (`perfbench/`)
    /// still passes a worker count.
    pub fn apply_plan(
        &self,
        ops: &[RecordedOp],
        plan: &crate::analysis::plan::EvolutionPlan,
        _threads: Option<usize>,
    ) -> Result<crate::ops::PlanApply> {
        self.evolve(|s| s.apply_plan(ops, plan))
    }

    /// Consume the handle, returning the final schema (clones if snapshots
    /// are still outstanding).
    pub fn into_inner(self) -> Schema {
        let arc = self.current.into_inner();
        Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone())
    }
}

impl From<Schema> for SharedSchema {
    fn from(s: Schema) -> Self {
        SharedSchema::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::error::SchemaError;

    fn shared() -> SharedSchema {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("T_object").unwrap();
        SharedSchema::new(s)
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let sh = shared();
        let before = sh.snapshot();
        sh.evolve(|s| s.add_type("A", [], []).map(|_| ())).unwrap();
        assert_eq!(before.type_count(), 1);
        assert_eq!(sh.snapshot().type_count(), 2);
        assert!(sh.version() > before.version());
    }

    #[test]
    fn failed_evolution_publishes_nothing() {
        let sh = shared();
        let v = sh.version();
        let err = sh
            .evolve(|s| {
                let a = s.add_type("A", [], [])?;
                let b = s.add_type("B", [a], [])?;
                // This rejection must roll back the whole step, including
                // the two adds above.
                s.add_essential_supertype(a, b)
            })
            .unwrap_err();
        assert!(matches!(err, SchemaError::WouldCreateCycle { .. }));
        assert_eq!(sh.version(), v);
        assert_eq!(sh.snapshot().type_count(), 1);
    }

    #[test]
    fn snapshot_never_waits_on_in_flight_evolve() {
        // Regression test for the off-lock staging contract. The evolve
        // closure parks itself mid-step on a channel; under the old
        // implementation (closure ran under the write lock on `current`)
        // the snapshot below would deadlock instead of returning the old
        // version.
        use std::sync::mpsc;
        let sh = Arc::new(shared());
        let v0 = sh.version();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let sh2 = Arc::clone(&sh);
        let writer = std::thread::spawn(move || {
            sh2.evolve(move |s| {
                entered_tx.send(()).unwrap();
                // Simulate an arbitrarily slow recomputation.
                release_rx.recv().unwrap();
                s.add_type("A", [], []).map(|_| ())
            })
            .unwrap();
        });
        entered_rx.recv().unwrap();
        // The evolve step is now in flight and blocked. Readers must not be.
        let snap = sh.snapshot();
        assert_eq!(snap.version(), v0);
        assert_eq!(snap.type_count(), 1);
        assert_eq!(sh.version(), v0);
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(sh.snapshot().type_count(), 2);
    }

    #[test]
    fn evolve_batch_is_one_version_and_one_recompute() {
        let sh = shared();
        let v0 = sh.version();
        sh.evolve(|s| {
            s.reset_stats();
            Ok(())
        })
        .unwrap();
        sh.evolve_batch(|s| {
            let a = s.add_type("A", [], [])?;
            let b = s.add_type("B", [a], [])?;
            let p = s.add_property("x");
            s.add_essential_property(a, p)?;
            let _ = b;
            Ok(())
        })
        .unwrap();
        let snap = sh.snapshot();
        assert_eq!(
            snap.stats().scoped_recomputes + snap.stats().full_recomputes,
            1
        );
        assert!(snap.version() > v0);
        assert!(snap.verify().is_empty());
    }

    #[test]
    fn failed_batch_publishes_nothing() {
        // Plain `Schema::evolve_batch` keeps already-applied inputs on
        // error; lifted through SharedSchema the whole staged clone is
        // discarded, so the failure becomes all-or-nothing.
        let sh = shared();
        let v0 = sh.version();
        let err = sh
            .evolve_batch(|s| {
                let a = s.add_type("A", [], [])?;
                let b = s.add_type("B", [a], [])?;
                s.add_essential_supertype(a, b)
            })
            .unwrap_err();
        assert!(matches!(err, SchemaError::WouldCreateCycle { .. }));
        assert_eq!(sh.version(), v0);
        assert!(sh.snapshot().type_by_name("A").is_none());
        assert_eq!(sh.snapshot().type_count(), 1);
    }

    #[test]
    fn concurrent_readers_see_consistent_versions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sh = Arc::new(shared());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sh = sh.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = sh.snapshot();
                    // Every published version satisfies all axioms.
                    assert!(snap.verify().is_empty());
                    // And the oracle agrees with the engine.
                    assert!(crate::oracle::check_schema(&snap).is_empty());
                }
            }));
        }
        for i in 0..50 {
            sh.evolve(|s| s.add_type(format!("T{i}"), [], []).map(|_| ()))
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sh.snapshot().type_count(), 51);
    }

    #[test]
    fn panicking_writer_neither_poisons_nor_publishes() {
        // Satellite: a panic during evolve must not poison the writer
        // mutex or leave readers unable to snapshot(). Exercised two ways:
        // same-thread catch_unwind and a panicking writer thread.
        let sh = Arc::new(shared());
        let v0 = sh.version();

        let sh2 = Arc::clone(&sh);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            sh2.evolve(|s| {
                s.add_type("half-done", [], [])?;
                panic!("writer died mid-evolution");
                #[allow(unreachable_code)]
                Ok(())
            })
            .unwrap();
        }));
        assert!(r.is_err(), "the panic must propagate");

        let sh3 = Arc::clone(&sh);
        let t = std::thread::spawn(move || {
            sh3.evolve(|_| -> Result<()> { panic!("thread writer died") })
                .unwrap();
        });
        assert!(t.join().is_err());

        // Readers still work and saw nothing of the doomed steps.
        let snap = sh.snapshot();
        assert_eq!(snap.version(), v0);
        assert!(snap.type_by_name("half-done").is_none());
        // The writer path still works: the mutex was not poisoned.
        sh.evolve(|s| s.add_type("after", [], []).map(|_| ()))
            .unwrap();
        assert!(sh.snapshot().type_by_name("after").is_some());
    }

    #[test]
    fn evolve_commit_failure_publishes_nothing() {
        let sh = shared();
        let v0 = sh.version();
        let err = sh
            .evolve_commit(
                |s| s.add_type("staged", [], []).map(|_| ()).map_err(|_| "op"),
                |_next| Err("commit hook refused"),
            )
            .unwrap_err();
        assert_eq!(err, "commit hook refused");
        assert_eq!(sh.version(), v0);
        assert!(sh.snapshot().type_by_name("staged").is_none());

        // And when the hook accepts, the step publishes normally.
        sh.evolve_commit::<_, _, _, &str>(
            |s| s.add_type("ok", [], []).map(|_| ()).map_err(|_| "op"),
            |next| {
                assert!(
                    next.type_by_name("ok").is_some(),
                    "hook sees the staged state"
                );
                Ok(())
            },
        )
        .unwrap();
        assert!(sh.snapshot().type_by_name("ok").is_some());
    }

    #[test]
    fn into_inner_returns_final_schema() {
        let sh = shared();
        sh.evolve(|s| s.add_type("A", [], []).map(|_| ())).unwrap();
        let s = sh.into_inner();
        assert_eq!(s.type_count(), 2);
    }
}
