//! Stress test for the observability layer: concurrent readers polling
//! schema snapshots and metric snapshots while a writer evolves through a
//! fault-injected journal, plus the post-recovery accounting invariants.
//!
//! What "no torn metric snapshots" means here:
//!
//! - **Ordered handle reads.** The writer counts a journal append before
//!   the corresponding publish, and a recompute before its histogram
//!   observation is *preceded* by the scope counter. A reader that loads
//!   the handles in the opposite order (publishes before appends,
//!   histogram before scope counters) must therefore never observe an
//!   inversion — all counters are `SeqCst`.
//! - **Monotonicity.** Every counter a reader polls repeatedly is
//!   non-decreasing.
//! - **Quiescent equality.** Once the writer has stopped, two consecutive
//!   registry snapshots are identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use axiombase_core::journal::fault::ChaosIo;
use axiombase_core::journal::io::{JournalIo, MemIo};
use axiombase_core::journal::{JournalOptions, JournaledSchema, RecoveryMode};
use axiombase_core::obs::{names, EvolveObs, MetricsRegistry};
use axiombase_core::{LatticeConfig, RecordedOp, Schema};

fn base_schema() -> Schema {
    let mut s = Schema::new(LatticeConfig::default());
    s.add_root_type("T_object").unwrap();
    s
}

fn add_op(i: usize, root: axiombase_core::TypeId) -> RecordedOp {
    RecordedOp::AddType {
        name: format!("T_{i}"),
        supers: vec![root],
        props: vec![],
    }
}

#[test]
fn readers_never_observe_torn_metrics_and_publishes_match_acked_ops() {
    let dir = std::path::Path::new("/stress-journal");
    let mem = Arc::new(MemIo::new());
    // Fail the 60th mutating I/O call, tearing it after 7 bytes (less than
    // any frame, so the torn suffix is unacknowledged by construction).
    let fault: Arc<dyn JournalIo> =
        Arc::new(ChaosIo::crash_at(mem.clone() as Arc<dyn JournalIo>, 60, 7));

    let registry = Arc::new(MetricsRegistry::new());
    let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
    let base = base_schema();
    let root = base.root().unwrap();
    let expected_base = base.clone();
    let js = Arc::new(
        JournaledSchema::create_observed(
            dir,
            fault,
            base,
            JournalOptions {
                checkpoint_every: 0,
            },
            obs,
        )
        .expect("journal creation happens before the injected fault"),
    );

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let js = Arc::clone(&js);
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            // Resolve handles once, like a real metrics poller.
            let publishes = registry.counter(names::SHARED_PUBLISHES);
            let appends = registry.counter(names::JOURNAL_APPENDED_RECORDS);
            let full = registry.counter(names::ENGINE_FULL);
            let scoped = registry.counter(names::ENGINE_SCOPED);
            let noop = registry.counter(names::ENGINE_NOOP);
            let affected = registry.histogram(names::ENGINE_AFFECTED);
            let mut last_publishes = 0u64;
            let mut last_appends = 0u64;
            let mut polls = 0u64;
            loop {
                let finished = done.load(Ordering::SeqCst);
                // Schema snapshots stay internally consistent (axioms
                // hold) regardless of writer progress.
                let snap = js.snapshot();
                assert!(snap.verify().is_empty(), "torn schema snapshot");

                // Publishes read BEFORE appends: the writer appends (and
                // counts) before it publishes (and counts), so this order
                // can only under-read publishes — never observe more
                // publishes than appended records.
                let p = publishes.get();
                let a = appends.get();
                assert!(p <= a, "publish count {p} overtook append count {a}");
                assert!(p >= last_publishes, "publish counter went backwards");
                assert!(a >= last_appends, "append counter went backwards");
                last_publishes = p;
                last_appends = a;

                // Histogram read BEFORE the scope counters, for the same
                // reason (counter bumps precede the observation).
                let h = affected.snapshot().count;
                let recomputes = full.get() + scoped.get() + noop.get();
                assert!(
                    h <= recomputes,
                    "histogram count {h} overtook recompute count {recomputes}"
                );

                polls += 1;
                if finished {
                    break;
                }
            }
            polls
        }));
    }

    // Writer: apply ops until the injected (permanent) fault degrades the
    // journal to read-only.
    let mut attempted: Vec<RecordedOp> = Vec::new();
    let mut acked = 0usize;
    for i in 0..1000 {
        let op = add_op(i, root);
        attempted.push(op.clone());
        match js.apply(&op) {
            Ok(()) => acked += 1,
            Err(_) => break,
        }
    }
    done.store(true, Ordering::SeqCst);
    for r in readers {
        let polls = r.join().expect("reader panicked");
        assert!(polls > 0);
    }
    assert!(acked > 0, "fault fired before any op was acknowledged");
    assert!(acked < attempted.len(), "fault never fired");

    // Quiescent: two consecutive snapshots are identical, and the writer's
    // accounting is exact — one publish per acknowledged op (journal
    // creation and the failed op publish nothing).
    let s1 = registry.snapshot();
    let s2 = registry.snapshot();
    assert_eq!(s1, s2, "torn snapshot under quiescence");
    assert_eq!(s1.counters[names::SHARED_PUBLISHES], acked as u64);
    assert_eq!(s1.counters[names::JOURNAL_APPENDED_RECORDS], acked as u64);
    // The BrokenPipe fault is classified permanent: exactly one
    // degradation, no inline retries burned on a dead process.
    assert_eq!(s1.counters[names::DURABILITY_DEGRADATIONS], 1);
    assert_eq!(s1.counters[names::DURABILITY_RETRIES], 0);

    // Recovery from the underlying (no longer faulting) store: the
    // recovered sequence covers at least the acknowledged prefix (an
    // appended-but-unacknowledged op may legitimately survive if the fault
    // hit the fsync rather than the append), and the schema equals the
    // base plus exactly that prefix of the attempted ops.
    let recovery_registry = Arc::new(MetricsRegistry::new());
    let recovery_obs = Arc::new(EvolveObs::new(Arc::clone(&recovery_registry)));
    let (recovered, report) = JournaledSchema::open_observed(
        dir,
        mem as Arc<dyn JournalIo>,
        RecoveryMode::Strict,
        JournalOptions {
            checkpoint_every: 0,
        },
        recovery_obs,
    )
    .expect("recovery succeeds on the underlying store");
    let seq = report.seq as usize;
    assert!(seq >= acked, "recovery lost acknowledged ops");
    assert!(seq <= attempted.len());

    let mut expected = expected_base;
    for op in &attempted[..seq] {
        op.apply(&mut expected).unwrap();
    }
    assert_eq!(recovered.snapshot().fingerprint(), expected.fingerprint());

    // Replay was counted op-for-op in the fresh registry, and recovery
    // publishes nothing.
    assert_eq!(
        recovery_registry.snapshot().counters[names::RECOVERY_REPLAYED],
        report.replayed as u64
    );
    assert_eq!(recovery_registry.get(names::SHARED_PUBLISHES), 0);
    assert_eq!(
        recovery_registry.get(&format!("{}add_type", names::OPS_PREFIX)),
        report.replayed as u64
    );
}
