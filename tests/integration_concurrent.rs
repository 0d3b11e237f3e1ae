//! Cross-crate integration: dynamic ("while the system is in operation")
//! schema evolution under real concurrency, via crossbeam.

use axiombase_core::{oracle, EngineKind, LatticeConfig, SharedSchema};
use axiombase_workload::{apply_random_ops, apply_random_ops_batched, LatticeGen, OpMix};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Reader threads in the reader/writer stress tests.
const READERS: usize = 3;

/// One reader: verify every version it observes — monotone, all nine
/// axioms, the brute-force oracle — counting each into `checked`. It
/// verifies a first version before waiting on `start`, and the writer
/// waits there too, so every reader checks at least one version however
/// the threads are scheduled; after `stop` it verifies the last one.
fn verifying_reader(
    shared: &SharedSchema,
    start: &Barrier,
    stop: &AtomicBool,
    checked: &AtomicU64,
) {
    let mut last: Option<u64> = None;
    let mut observe = || {
        let snap = shared.snapshot();
        let version = snap.version();
        assert!(
            last.is_none_or(|l| version >= l),
            "versions must be monotone"
        );
        if last != Some(version) {
            last = Some(version);
            assert!(snap.verify().is_empty());
            assert!(oracle::check_schema(&snap).is_empty());
            checked.fetch_add(1, Ordering::Relaxed);
        }
    };
    observe();
    start.wait();
    while !stop.load(Ordering::Relaxed) {
        observe();
    }
    observe();
}

/// Readers never observe a torn or axiom-violating schema while a writer
/// evolves it; versions observed by each reader are monotone.
#[test]
fn readers_see_consistent_monotone_versions() {
    let base = LatticeGen {
        types: 40,
        seed: 7,
        ..Default::default()
    }
    .generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
    let shared = SharedSchema::new(base.schema);
    let (start, stop, checked) = (
        Barrier::new(READERS + 1),
        AtomicBool::new(false),
        AtomicU64::new(0),
    );

    crossbeam::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|_| verifying_reader(&shared, &start, &stop, &checked));
        }
        start.wait();
        // Writer.
        for step in 0..150u64 {
            shared
                .evolve(|s| {
                    apply_random_ops(s, 2, OpMix::BALANCED, step);
                    Ok(())
                })
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    })
    .unwrap();

    assert!(
        checked.load(Ordering::Relaxed) >= READERS as u64,
        "every reader verified at least one version"
    );
    assert!(shared.snapshot().verify().is_empty());
}

/// Failed evolution steps under concurrency publish nothing: a writer that
/// always fails leaves every reader on the initial version.
#[test]
fn failed_steps_publish_nothing_concurrently() {
    let mut s = axiombase_core::Schema::new(LatticeConfig::default());
    let root = s.add_root_type("T_object").unwrap();
    let a = s.add_type("A", [root], []).unwrap();
    let shared = Arc::new(SharedSchema::new(s));
    let v0 = shared.version();

    crossbeam::scope(|scope| {
        for _ in 0..2 {
            let shared = Arc::clone(&shared);
            scope.spawn(move |_| {
                for _ in 0..200 {
                    // Every step builds some state and then hits a rejection.
                    let r = shared.evolve(|s| {
                        let tmp = s.add_type("tmp", [a], [])?;
                        s.add_essential_supertype(a, tmp) // cycle -> Err
                    });
                    assert!(r.is_err());
                }
            });
        }
    })
    .unwrap();

    assert_eq!(shared.version(), v0);
    assert_eq!(shared.snapshot().type_count(), 2);
    assert!(shared.snapshot().type_by_name("tmp").is_none());
}

/// Stress: a writer publishing *batched* evolution steps (many operations,
/// one recomputation, one version each) while readers continuously verify
/// every version they observe against the axioms and the brute-force
/// oracle. The batched path must give readers exactly the same guarantees
/// as op-by-op evolution: monotone versions, never a torn or stale lattice.
#[test]
fn batched_writer_readers_verify_every_version() {
    let base = LatticeGen {
        types: 30,
        seed: 11,
        ..Default::default()
    }
    .generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
    let shared = SharedSchema::new(base.schema);
    let (start, stop, checked) = (
        Barrier::new(READERS + 1),
        AtomicBool::new(false),
        AtomicU64::new(0),
    );

    crossbeam::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|_| verifying_reader(&shared, &start, &stop, &checked));
        }
        start.wait();
        // Writer: 40 batches of 8 operations each; readers snapshotting
        // mid-batch must only ever see the pre-batch version.
        for step in 0..40u64 {
            shared
                .evolve_batch(|s| {
                    apply_random_ops(s, 8, OpMix::BALANCED, 0x00B5 ^ step);
                    Ok(())
                })
                .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    })
    .unwrap();

    assert!(
        checked.load(Ordering::Relaxed) >= READERS as u64,
        "every reader verified at least one version"
    );
    let final_schema = shared.snapshot();
    assert!(final_schema.verify().is_empty());
    assert!(oracle::check_schema(&final_schema).is_empty());
}

/// The shared batched replay publishes the same schema the plain in-place
/// batched replay produces — concurrency plumbing adds no divergence.
#[test]
fn shared_batched_replay_matches_local() {
    let gen = LatticeGen {
        types: 25,
        seed: 3,
        ..Default::default()
    };
    let mut local = gen.generate(LatticeConfig::TIGUKAT, EngineKind::Incremental);
    apply_random_ops_batched(&mut local.schema, 60, OpMix::BALANCED, 42);

    let shared = SharedSchema::new(
        gen.generate(LatticeConfig::TIGUKAT, EngineKind::Incremental)
            .schema,
    );
    shared
        .evolve_batch(|s| {
            apply_random_ops(s, 60, OpMix::BALANCED, 42);
            Ok(())
        })
        .unwrap();
    assert_eq!(local.schema.fingerprint(), shared.snapshot().fingerprint());
}

/// Two writers interleave safely: every published version is a superset of
/// some prior version's type count plus at most the in-flight additions, and
/// all invariants hold at the end.
#[test]
fn two_writers_interleave_safely() {
    let mut s = axiombase_core::Schema::new(LatticeConfig::default());
    s.add_root_type("T_object").unwrap();
    let shared = Arc::new(SharedSchema::new(s));

    crossbeam::scope(|scope| {
        for w in 0..2u64 {
            let shared = Arc::clone(&shared);
            scope.spawn(move |_| {
                for i in 0..100u64 {
                    shared
                        .evolve(|s| s.add_type(format!("w{w}_t{i}"), [], []).map(|_| ()))
                        .unwrap();
                }
            });
        }
    })
    .unwrap();

    let final_schema = shared.snapshot();
    assert_eq!(final_schema.type_count(), 201, "no lost updates");
    assert!(final_schema.verify().is_empty());
    assert!(oracle::check_schema(&final_schema).is_empty());
}
