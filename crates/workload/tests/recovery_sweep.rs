//! Crash-point sweep: kill the journal's I/O at **every** injected fault
//! point of a journaled evolution run, recover, and check that the
//! recovered schema's fingerprint equals the oracle applied-prefix
//! fingerprint (ISSUE 3 acceptance criterion).
//!
//! The oracle is exact because the trace is deterministic and replay is
//! bit-identical (`History` docs): if recovery reports sequence `n`, the
//! recovered schema must fingerprint-match `base + ops[..n]`, and `n` may
//! differ from the number of *acknowledged* operations by at most the one
//! operation that was in flight when the fault fired.

use std::sync::Arc;

use axiombase_core::journal::fault::ChaosIo;
use axiombase_core::journal::io::{CrashKeep, JournalIo, MemIo};
use axiombase_core::journal::{
    Journal, JournalError, JournalOptions, JournaledSchema, RecoveryMode,
};
use axiombase_core::{EngineKind, LatticeConfig, RecordedOp, Schema};
use axiombase_workload::lattice::LatticeGen;
use axiombase_workload::trace::{generate_trace, OpMix};

const SEED: u64 = 0xC0FFEE;
const GEN_STEPS: usize = 200;
const CHECKPOINT_EVERY: usize = 32;

fn base_schema() -> Schema {
    LatticeGen {
        types: 14,
        seed: SEED,
        ..Default::default()
    }
    .generate(LatticeConfig::TIGUKAT, EngineKind::Incremental)
    .schema
}

fn trace() -> (Schema, Vec<RecordedOp>) {
    let base = base_schema();
    let (ops, stats) = generate_trace(&base, GEN_STEPS, OpMix::BALANCED, SEED ^ 0xD15C);
    assert!(
        stats.applied >= 100,
        "the sweep needs a substantial trace, got {stats:?}"
    );
    (base, ops)
}

fn opts() -> JournalOptions {
    JournalOptions {
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// Oracle: the fingerprint of `base` with exactly `ops[..n]` applied.
fn oracle_fingerprint(base: &Schema, ops: &[RecordedOp], n: usize) -> u64 {
    let mut s = base.clone();
    let applied = s.apply_trace(&ops[..n]).expect("prefixes are valid");
    assert_eq!(applied, n);
    s.fingerprint()
}

/// Set up a journal on a clean in-memory fs, then run the whole trace
/// through `io`, returning the number of *acknowledged* operations (the
/// journaled apply returned `Ok`).
fn run_journaled(mem: &MemIo, io: Arc<dyn JournalIo>, base: &Schema, ops: &[RecordedOp]) -> usize {
    let dir = std::path::Path::new("/j");
    JournaledSchema::create(dir, Arc::new(mem.clone()), base.clone(), opts()).unwrap();
    let (js, report) = match JournaledSchema::open(dir, io, RecoveryMode::Strict, opts()) {
        Ok(x) => x,
        Err(_) => return 0, // fault fired during open; nothing acked
    };
    assert_eq!(report.seq, 0);
    let mut acked = 0usize;
    for op in ops {
        match js.apply(op) {
            Ok(()) => acked += 1,
            Err(
                JournalError::Io(_)
                | JournalError::TransientIo(_)
                | JournalError::DiskFull(_)
                | JournalError::Unavailable { .. },
            ) => break,
            Err(other) => panic!("unexpected journal error: {other}"),
        }
    }
    acked
}

/// One sweep iteration: crash at mutating I/O call `fail_at`, tearing the
/// failing write after `torn` bytes, then power-cut with `keep` and
/// recover on healthy I/O. Returns the number of fault points the full
/// (non-failing) run has when `fail_at == 0`.
fn sweep_point(
    base: &Schema,
    ops: &[RecordedOp],
    fail_at: u64,
    torn: usize,
    keep: CrashKeep,
) -> u64 {
    let mem = MemIo::new();
    let fault = Arc::new(ChaosIo::crash_at(Arc::new(mem.clone()), fail_at, torn));
    let acked = run_journaled(&mem, fault.clone(), base, ops);
    let mutations = fault.mutations();
    if fail_at == 0 {
        assert_eq!(acked, ops.len(), "clean run must ack everything");
        return mutations;
    }
    assert!(fault.is_dead(), "fault {fail_at} must have fired");

    mem.crash(keep);
    // `doctor` is strict recovery without the writes: it must call the
    // crashed directory serviceable, at the sequence recovery reaches.
    let health = Journal::diagnose(std::path::Path::new("/j"), &mem);
    assert!(
        health.is_serviceable(),
        "doctor after fault {fail_at} ({keep:?}, torn {torn}): {health:?}"
    );
    let (js, report) = JournaledSchema::open(
        std::path::Path::new("/j"),
        Arc::new(mem.clone()),
        RecoveryMode::Strict,
        opts(),
    )
    .unwrap_or_else(|e| panic!("recovery after fault {fail_at} ({keep:?}, torn {torn}): {e}"));

    assert_eq!(
        health.durable_seq,
        Some(report.seq),
        "doctor after fault {fail_at} ({keep:?}, torn {torn})"
    );
    let n = usize::try_from(report.seq).unwrap();
    assert!(
        n == acked || n == acked + 1,
        "fault {fail_at} ({keep:?}, torn {torn}): acked {acked} but recovered seq {n}"
    );
    let recovered = js.snapshot();
    assert_eq!(
        recovered.fingerprint(),
        oracle_fingerprint(base, ops, n),
        "fault {fail_at} ({keep:?}, torn {torn}): recovered schema is not the applied prefix"
    );
    assert!(
        recovered.verify().is_empty(),
        "axioms must hold after recovery"
    );

    // The recovered journal accepts new work.
    js.apply(&ops[n.min(ops.len() - 1)]).ok();
    mutations
}

#[test]
fn every_failpoint_recovers_to_the_applied_prefix() {
    let (base, ops) = trace();

    // Phase A — count the fault points of a clean run. This doubles as the
    // CI failpoint-count assertion: if journal I/O ever bypasses the
    // JournalIo trait, the count collapses and this fails loudly.
    let total = sweep_point(&base, &ops, 0, 0, CrashKeep::Synced);
    assert!(
        total >= 2 * ops.len() as u64,
        "expected at least append+fsync per op through JournalIo, got {total} \
         mutating calls for {} ops — is something bypassing the trait?",
        ops.len()
    );

    // Phase B — kill the run at every single fault point (pessimistic
    // power cut: only fsynced bytes survive).
    for fail_at in 1..=total {
        sweep_point(&base, &ops, fail_at, 0, CrashKeep::Synced);
    }
}

#[test]
fn torn_writes_and_optimistic_crashes_also_recover() {
    let (base, ops) = trace();
    let total = sweep_point(&base, &ops, 0, 0, CrashKeep::Synced);
    // Strided sweeps over the two other crash models: half the unsynced
    // tail survives (torn page flush), and everything survives but the
    // namespace reverts (lost rename).
    let mut fail_at = 1;
    while fail_at <= total {
        sweep_point(&base, &ops, fail_at, 0, CrashKeep::Torn);
        sweep_point(&base, &ops, fail_at + 1, 5, CrashKeep::All);
        sweep_point(&base, &ops, fail_at + 2, 7, CrashKeep::Torn);
        fail_at += 3;
    }
}

#[test]
fn recovery_is_idempotent_mid_trace() {
    let (base, ops) = trace();
    let total = sweep_point(&base, &ops, 0, 0, CrashKeep::Synced);
    // Crash somewhere in the middle of the run, then recover twice.
    let mem = MemIo::new();
    let fault = Arc::new(ChaosIo::crash_at(Arc::new(mem.clone()), total / 2, 3));
    run_journaled(&mem, fault, &base, &ops);
    mem.crash(CrashKeep::Torn);

    let dir = std::path::Path::new("/j");
    let io: Arc<dyn JournalIo> = Arc::new(mem.clone());
    let (js1, r1) = JournaledSchema::open(dir, io.clone(), RecoveryMode::Strict, opts()).unwrap();
    let fp1 = js1.snapshot().fingerprint();
    drop(js1);
    let sizes_after_first: Vec<(String, Option<usize>)> = mem
        .list(dir)
        .unwrap()
        .into_iter()
        .map(|n| {
            let len = mem.len(&dir.join(&n));
            (n, len)
        })
        .collect();

    let (js2, r2) = JournaledSchema::open(dir, io, RecoveryMode::Strict, opts()).unwrap();
    assert_eq!(js2.snapshot().fingerprint(), fp1);
    assert_eq!(r1.seq, r2.seq);
    assert!(
        r2.dropped_tail.is_none(),
        "second recovery must find a clean log"
    );
    let sizes_after_second: Vec<(String, Option<usize>)> = mem
        .list(dir)
        .unwrap()
        .into_iter()
        .map(|n| {
            let len = mem.len(&dir.join(&n));
            (n, len)
        })
        .collect();
    assert_eq!(
        sizes_after_first, sizes_after_second,
        "recovering twice must not grow or shrink any journal file"
    );
}
