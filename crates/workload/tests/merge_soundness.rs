//! Property test: certificate-checked merges over branched journals are
//! *sound* on random fork scenarios — 1000 of them.
//!
//! Two suffix families × two engines × 250 seeds = 1000 fork/branch-pair
//! scenarios (in-memory journals):
//!
//! * **disjoint** — each branch drops essential-supertype edges on its
//!   own set of multi-parent types: mostly certifiable merges;
//! * **random** — two independent [`generate_trace`] mixes from the
//!   same fork point, allocations and all: a blend of certifiable and
//!   genuinely conflicting pairs.
//!
//! Per scenario, whatever [`Branch::merge`] decides is verified against
//! first principles:
//!
//! 1. **Certified ⇒ order-free.** The merged journal's canonical
//!    fingerprint equals a batched replay of `ours ++ theirs` on the
//!    fork-point schema, [`traces_equivalent`] confirms
//!    `ours ++ theirs ≡ theirs ++ ours`, and the batched replay of both
//!    orders produces the *identical metrics snapshot* (the
//!    permutation-invariance result of `order_independence.rs`, now
//!    across a fork).
//! 2. **Certificates survive only intact.** The issued
//!    [`MergeCertificate`] re-verifies via [`merge::check`], and every
//!    tampering — flipped base fingerprint, a forged pair reason, a
//!    truncated proof list — is refused.
//! 3. **Rejected ⇒ reproducible witness.** The reported conflicting
//!    pair must actually fail pairwise certification when re-derived
//!    from scratch with [`commute::analyze_pairs`] on the merged trace,
//!    and the refused merge must not have advanced the target branch.
//!
//! Vacuousness guards assert the sweep really exercised *both*
//! outcomes, in volume, for every engine.

use std::path::Path;
use std::sync::Arc;

use axiombase_core::analysis::commute;
use axiombase_core::analysis::merge::{self, MergeCertificate};
use axiombase_core::journal::io::MemIo;
use axiombase_core::obs::names;
use axiombase_core::obs::{EvolveObs, MetricsRegistry};
use axiombase_core::{
    traces_equivalent, Branch, EngineKind, JournalOptions, LatticeConfig, MergeError,
    MetricsSnapshot, RecordedOp, Schema,
};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};

/// Seeds per engine; 250 × 2 engines × 2 families = 1000 scenarios.
const SEEDS: u64 = 250;

fn opts() -> JournalOptions {
    JournalOptions {
        checkpoint_every: 0,
    }
}

/// Batched replay with a fresh registry; returns the canonical
/// fingerprint and the normalized metrics snapshot.
fn replay_measured(base: &Schema, ops: &[RecordedOp], ctx: &str) -> (u64, MetricsSnapshot) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut s = base.clone();
    s.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&registry))));
    let applied = s
        .apply_trace(ops)
        .unwrap_or_else(|e| panic!("{ctx}: certified merge order failed to replay: {e}"));
    assert_eq!(applied, ops.len(), "{ctx}");
    s.detach_obs();
    let mut snapshot = registry.snapshot();
    // COW slot copies are memory bookkeeping, order-sensitive by design;
    // every semantic counter must be exact (see plan_soundness.rs).
    snapshot.counters.remove(names::ENGINE_COW_COPIES);
    (s.canonical_fingerprint(), snapshot)
}

/// Family "disjoint": each branch gets edge drops on its own multi-parent
/// types — the §5 shape that should usually certify.
fn disjoint_suffixes(base: &Schema) -> (Vec<RecordedOp>, Vec<RecordedOp>) {
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    for (i, t) in base.iter_types().enumerate() {
        let Ok(pe) = base.essential_supertypes(t) else {
            continue;
        };
        if pe.len() < 2 {
            continue;
        }
        let s = *pe.iter().next().expect("non-empty");
        let op = RecordedOp::DropEssentialSupertype { t, s };
        if i % 2 == 0 { &mut ours } else { &mut theirs }.push(op);
        if ours.len() == 3 && theirs.len() == 3 {
            break;
        }
    }
    (ours, theirs)
}

/// Family "random": two independent generated mixes from the fork point.
fn random_suffixes(base: &Schema, mix: OpMix, seed: u64) -> (Vec<RecordedOp>, Vec<RecordedOp>) {
    let (mut ours, _) = generate_trace(base, 8, mix, seed ^ 0x5eed_a11c);
    let (mut theirs, _) = generate_trace(base, 8, mix, seed ^ 0x0dd_c0de);
    ours.truncate(4);
    theirs.truncate(4);
    (ours, theirs)
}

/// Every way a certificate can be forged, and the checker's answer.
fn tamper_certificate(
    base: &Schema,
    ours: &[RecordedOp],
    theirs: &[RecordedOp],
    cert: &MergeCertificate,
    ctx: &str,
) {
    merge::check(base, ours, theirs, cert)
        .unwrap_or_else(|e| panic!("{ctx}: intact certificate refused: {e}"));

    let mut forged = cert.clone();
    forged.base_fingerprint ^= 0xdead_beef;
    assert!(
        merge::check(base, ours, theirs, &forged).is_err(),
        "{ctx}: checker accepted a wrong base fingerprint"
    );

    if let Some(first) = cert.proofs.first() {
        use axiombase_core::analysis::CommuteReason::*;
        let mut forged = cert.clone();
        forged.proofs[0].reason = match first.reason {
            IdenticalOps => DisjointFootprints,
            _ => IdenticalOps,
        };
        assert!(
            merge::check(base, ours, theirs, &forged).is_err(),
            "{ctx}: checker accepted a forged pair reason"
        );

        let mut forged = cert.clone();
        forged.proofs.clear();
        assert!(
            merge::check(base, ours, theirs, &forged).is_err(),
            "{ctx}: checker accepted a truncated proof list"
        );
    }
}

/// Run one fork/merge scenario; returns (certified?, rejected?).
fn one_scenario(
    base: &Schema,
    ours_ops: &[RecordedOp],
    theirs_ops: &[RecordedOp],
    ctx: &str,
) -> (bool, bool) {
    let io = Arc::new(MemIo::new());
    let root = Branch::create(Path::new("/root"), io.clone(), base.clone(), opts())
        .unwrap_or_else(|e| panic!("{ctx}: create root: {e}"));
    let alpha = root.fork(Path::new("/alpha"), None).unwrap();
    let beta = root.fork(Path::new("/beta"), None).unwrap();
    alpha
        .journaled()
        .apply_trace(ours_ops)
        .unwrap_or_else(|e| panic!("{ctx}: ours suffix must apply from the fork point: {e}"));
    beta.journaled()
        .apply_trace(theirs_ops)
        .unwrap_or_else(|e| panic!("{ctx}: theirs suffix must apply from the fork point: {e}"));

    let fork_schema = alpha
        .meta()
        .expect("forked")
        .base_schema()
        .expect("snapshot");
    let seq_before = alpha.seq();
    match alpha.merge(&beta) {
        Ok(report) => {
            // Claim 1: the merged state IS the replay of ours ++ theirs,
            // and the opposite interleaving is observationally equal —
            // fingerprints and batched metrics alike.
            let ab = merge::merged_trace(ours_ops, theirs_ops);
            let ba = merge::merged_trace(theirs_ops, ours_ops);
            let (fp_ab, metrics_ab) = replay_measured(&fork_schema, &ab, ctx);
            let (fp_ba, metrics_ba) = replay_measured(&fork_schema, &ba, ctx);
            assert_eq!(
                report.canonical_fingerprint, fp_ab,
                "{ctx}: merged journal diverged from replay(ours ++ theirs)"
            );
            assert_eq!(
                fp_ab, fp_ba,
                "{ctx}: certified merge is order-dependent on fingerprints"
            );
            assert_eq!(
                metrics_ab, metrics_ba,
                "{ctx}: certified merge is order-dependent on batched metrics"
            );
            assert!(
                traces_equivalent(&fork_schema, &ab, &ba),
                "{ctx}: traces_equivalent refutes the certificate"
            );
            assert_eq!(
                report.merged_seq,
                seq_before + theirs_ops.len() as u64,
                "{ctx}: adopted op count"
            );

            // Claim 2: the certificate is honest and tamper-evident.
            assert_eq!(
                report.certificate.cross_pairs(),
                ours_ops.len() * theirs_ops.len(),
                "{ctx}: certificate does not cover every cross pair"
            );
            tamper_certificate(&fork_schema, ours_ops, theirs_ops, &report.certificate, ctx);
            (true, false)
        }
        Err(MergeError::Conflict(conflict)) => {
            // Claim 3: the witness pair really fails certification when
            // re-derived from scratch, and nothing was written.
            let merged = merge::merged_trace(ours_ops, theirs_ops);
            let analysis = commute::analyze_pairs(&fork_schema, &merged);
            let pair = analysis
                .pairs
                .iter()
                .find(|p| p.a == conflict.a_index && p.b == ours_ops.len() + conflict.b_index)
                .unwrap_or_else(|| panic!("{ctx}: witness pair not in the pairwise analysis"));
            // The pair must re-derive as unmergeable: either genuinely
            // non-commuting, or the identical op recorded on both
            // branches (order-free as a permutation, but a sequential
            // merge would apply it twice — refused by design).
            let duplicated = matches!(
                pair.verdict,
                axiombase_core::analysis::PairVerdict::Commutes {
                    reason: axiombase_core::analysis::CommuteReason::IdenticalOps,
                    ..
                }
            );
            assert!(
                !pair.verdict.commutes() || duplicated,
                "{ctx}: reported conflict pair re-derives as commuting: {:?}",
                pair.verdict
            );
            assert_eq!(alpha.seq(), seq_before, "{ctx}: rejected merge wrote ops");
            (false, true)
        }
        Err(other) => panic!("{ctx}: unexpected merge failure: {other}"),
    }
}

fn sweep(engine: EngineKind) {
    let mut certified = 0usize;
    let mut rejected = 0usize;
    for seed in 0..SEEDS {
        let gen = LatticeGen {
            types: 8,
            max_parents: 3,
            props_per_type: 1.0,
            redeclare_prob: 0.2,
            seed,
        };
        let base = gen.generate(LatticeConfig::default(), engine).schema;
        let mix = match seed % 3 {
            0 => OpMix::BALANCED,
            1 => OpMix::PROPERTY_CHURN,
            _ => OpMix::LATTICE_CHURN,
        };
        for (tag, (ours, theirs)) in [
            ("disjoint", disjoint_suffixes(&base)),
            ("random", random_suffixes(&base, mix, seed)),
        ] {
            let ctx = format!("seed {seed} {tag} ({engine:?})");
            let (ok, no) = one_scenario(&base, &ours, &theirs, &ctx);
            certified += usize::from(ok);
            rejected += usize::from(no);
        }
    }
    // Vacuousness guards: the sweep must have exercised real certified
    // merges AND real witnessed rejections, not just one of the two.
    assert!(
        certified >= 100,
        "({engine:?}) only {certified} certified merges — sweep too narrow"
    );
    assert!(
        rejected >= 100,
        "({engine:?}) only {rejected} witnessed rejections — sweep too narrow"
    );
}

#[test]
fn merges_are_sound_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn merges_are_sound_incremental_engine() {
    sweep(EngineKind::Incremental);
}

/// The §5 Orion-flavoured order-dependent pair, end to end: dropping the
/// edge `C -> PA` on one branch while the other drops the type `PA`
/// outright must be refused with the swapped-order witness, and that
/// witness must be reproducible by independent re-derivation.
#[test]
fn sec5_orion_pair_is_rejected_with_reproducible_witness() {
    use axiombase_core::analysis::ConflictVerdict;

    let mut s = Schema::new(LatticeConfig::default());
    s.add_root_type("T_object").unwrap();
    let pa = s.add_type("PA", [], []).unwrap();
    let pb = s.add_type("PB", [], []).unwrap();
    let c = s.add_type("C", [pa, pb], []).unwrap();

    let io = Arc::new(MemIo::new());
    let root = Branch::create(Path::new("/root"), io.clone(), s.clone(), opts()).unwrap();
    let alpha = root.fork(Path::new("/alpha"), None).unwrap();
    let beta = root.fork(Path::new("/beta"), None).unwrap();
    alpha
        .journaled()
        .apply(&RecordedOp::DropEssentialSupertype { t: c, s: pa })
        .unwrap();
    beta.journaled()
        .apply(&RecordedOp::DropType { t: pa })
        .unwrap();

    let err = alpha.merge(&beta).expect_err("order-dependent pair");
    let MergeError::Conflict(conflict) = err else {
        panic!("expected a witnessed conflict, got: {err}");
    };
    assert_eq!(conflict.a_kind, "drop_essential_supertype");
    assert_eq!(conflict.b_kind, "drop_type");
    let ConflictVerdict::Witnessed { witness, .. } = &conflict.verdict else {
        panic!("expected a concrete witness: {:?}", conflict.verdict);
    };
    assert_eq!(
        witness.order(),
        vec![1, 0],
        "the swapped order is the witness"
    );
    assert_eq!(witness.prefix, 2);

    // Reproducible: pairwise analysis of the merged trace, recomputed
    // from nothing but the fork-point schema, reports the same pair as
    // non-commuting.
    let merged = vec![
        RecordedOp::DropEssentialSupertype { t: c, s: pa },
        RecordedOp::DropType { t: pa },
    ];
    let analysis = commute::analyze_pairs(&s, &merged);
    let pair = analysis
        .pairs
        .iter()
        .find(|p| (p.a, p.b) == (0, 1))
        .unwrap();
    assert!(!pair.verdict.commutes());
}
