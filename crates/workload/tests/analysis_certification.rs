//! Property test: `core::analysis` certificates are *sound* on random
//! traces — no false independence, and every certified conflict carries a
//! working witness.
//!
//! Two trace families × two engines × 250 seeds = 1000 traces:
//!
//! - **random** — a short random operation mix recorded against a small
//!   random lattice (exercises the conflict/constraint tiers: allocation
//!   pairs, add/drop interference);
//! - **drops** — row-disjoint essential-supertype drops harvested from
//!   the same lattice (exercises the commuting tier; usually certified).
//!
//! Per trace the analyzer runs once, statically. Then:
//!
//! 1. If the trace is **certified** order-independent, *every* permutation
//!    (`n ≤ 5` ⇒ at most 120) must replay without rejection to the same
//!    `canonical_fingerprint`, and the batched replay must produce an
//!    identical [`MetricsSnapshot`] for every order — the certificate
//!    covers cost determinism, not just the final schema.
//! 2. Every `Conflicts` verdict must come with a witness that *works*:
//!    replaying `witness.order()` for `witness.prefix` ops either rejects an
//!    op or lands on a different identity-sensitive `fingerprint()` than
//!    the recorded order's same-length prefix.
//!
//! Vacuousness guards assert both tiers were actually exercised across
//! the sweep (hundreds of certified traces, hundreds of witnesses). On
//! every trace, the symbolic shadow's subtype index (the schema's own,
//! stepped copy-on-write) must equal the index folded from its live `P_e`
//! rows, at capture and after every step.
//!
//! A second sweep pins the MT-ASR cycle-guard verdict, which the analyzers
//! decide from edges collected inside their own forward pass, against a
//! full rescan written here: every live `P_e` edge of every intermediate
//! state, plus an edge from every slot to the final ⊤. Both
//! `TraceAnalysis::union_acyclic` and the plan checker (which re-derives
//! the verdict and must accept the planner's certificate, and must
//! refuse it once its cycle-guard claims are stripped from a cyclic
//! trace) must agree with the rescan. Lattice churn on small lattices and
//! 200-op migration mixes on a 1,000-type base produce both verdicts, with
//! floors on each.

use std::collections::BTreeSet;
use std::sync::Arc;

use axiombase_core::analysis::{plan, CommuteReason, Slot, SymbolicState};
use axiombase_core::obs::{names, EvolveObs, MetricsRegistry};
use axiombase_core::{
    analyze_trace, build_plan, EngineKind, LatticeConfig, MetricsSnapshot, PairVerdict, RecordedOp,
    Schema, TraceAnalysis,
};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};

/// Seeds per engine; 250 × 2 engines × 2 families = 1000 traces.
const SEEDS: u64 = 250;

/// Longest trace we permute exhaustively (5! = 120 replays).
const MAX_OPS: usize = 5;

/// All permutations of `0..n` (Heap's algorithm).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, xs: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(xs.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, xs, out);
            if k.is_multiple_of(2) {
                xs.swap(i, k - 1);
            } else {
                xs.swap(0, k - 1);
            }
        }
    }
    let mut xs: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n, &mut xs, &mut out);
    out
}

/// Replay `ops` in the given order op-by-op; `None` on any rejection.
fn replay(base: &Schema, ops: &[RecordedOp], order: &[usize]) -> Option<Schema> {
    let mut s = base.clone();
    for &i in order {
        ops[i].apply(&mut s).ok()?;
    }
    Some(s)
}

/// Replay the whole order inside one `evolve_batch` with a fresh metrics
/// registry attached; returns the canonical fingerprint and the snapshot.
fn replay_batched(base: &Schema, ops: &[RecordedOp], order: &[usize]) -> (u64, MetricsSnapshot) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut s = base.clone();
    s.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&registry))));
    s.evolve_batch(|s| {
        for &i in order {
            ops[i].apply(s)?;
        }
        Ok(())
    })
    .expect("certified trace rejected inside a batch");
    s.detach_obs();
    let mut snapshot = registry.snapshot();
    // Copy-on-write slot copies are memory bookkeeping, not derivation
    // work: which arena slots get cloned depends on the touch *order*
    // even when the schema-level effects commute. The certificate covers
    // semantic effects and derivation cost (recomputes, types derived,
    // affected-set/depth histograms) — normalize the COW counter out.
    snapshot.counters.remove(names::ENGINE_COW_COPIES);
    (s.canonical_fingerprint(), snapshot)
}

/// Check claim 1 on a certified trace; returns the permutation count.
fn check_certified(base: &Schema, ops: &[RecordedOp], seed: u64, tag: &str) -> usize {
    let perms = permutations(ops.len());
    let identity: Vec<usize> = (0..ops.len()).collect();
    let reference = replay(base, ops, &identity)
        .unwrap_or_else(|| panic!("seed {seed} {tag}: recorded order must replay"));
    let ref_fp = reference.canonical_fingerprint();
    let (ref_bfp, ref_metrics) = replay_batched(base, ops, &identity);
    assert_eq!(ref_fp, ref_bfp, "seed {seed} {tag}: batched ≠ op-by-op");

    for p in &perms {
        let s = replay(base, ops, p).unwrap_or_else(|| {
            panic!("seed {seed} {tag}: certified trace rejected under order {p:?}")
        });
        assert_eq!(
            s.canonical_fingerprint(),
            ref_fp,
            "seed {seed} {tag}: FALSE INDEPENDENCE — order {p:?} diverged"
        );
        let (bfp, metrics) = replay_batched(base, ops, p);
        assert_eq!(
            bfp, ref_fp,
            "seed {seed} {tag}: batched order {p:?} diverged"
        );
        assert_eq!(
            metrics, ref_metrics,
            "seed {seed} {tag}: batched metrics diverged for order {p:?}"
        );
    }
    perms.len()
}

/// Check claim 2 on every `Conflicts` verdict; returns how many were checked.
fn check_witnesses(
    base: &Schema,
    ops: &[RecordedOp],
    analysis: &TraceAnalysis,
    seed: u64,
    tag: &str,
) -> usize {
    // Id-level state: `fingerprint()` covers the type arena (slot-sensitive)
    // but not the property arena, so an allocation-order swap of two
    // *unreferenced* properties is invisible to it — extend with the live
    // `(PropId, name)` bindings to make every slot-binding divergence
    // observable.
    let fp_prefix = |order: &[usize]| -> Option<(u64, Vec<(usize, String)>)> {
        let mut s = base.clone();
        for &i in order {
            ops[i].apply(&mut s).ok()?;
        }
        let props: Vec<(usize, String)> = s
            .iter_props()
            .map(|p| (p.index(), s.prop_name(p).expect("live").to_owned()))
            .collect();
        Some((s.fingerprint(), props))
    };
    let mut checked = 0;
    for pair in &analysis.pairs {
        let PairVerdict::Conflicts { witness, .. } = &pair.verdict else {
            continue;
        };
        let k = witness.prefix;
        let order = witness.order();
        assert!(
            k <= order.len(),
            "seed {seed} {tag}: witness prefix out of range"
        );
        let identity: Vec<usize> = (0..k).collect();
        let recorded = fp_prefix(&identity)
            .unwrap_or_else(|| panic!("seed {seed} {tag}: recorded prefix must replay"));
        match fp_prefix(&order[..k]) {
            // A rejection under the permuted order is itself the
            // divergence the witness promised.
            None => {}
            Some(permuted) => assert_ne!(
                recorded, permuted,
                "seed {seed} {tag}: pair ({},{}) witness failed to diverge — {}",
                pair.a, pair.b, witness.note
            ),
        }
        checked += 1;
    }
    checked
}

/// The pairs `analysis.pairs` holds with a verdict other than
/// disjoint-footprints are exactly the pairs `a < b` whose ops are
/// identical or whose footprints fail Bernstein's condition (brute force
/// over every pair), in ascending order; and the three verdict counts
/// cover all n(n−1)/2 pairs.
fn check_judged_pairs(ops: &[RecordedOp], analysis: &TraceAnalysis, tag: &str) {
    let n = ops.len();
    let fps = &analysis.footprints;
    let want: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|&(a, b)| ops[a] == ops[b] || !fps[a].disjoint(&fps[b]))
        .collect();
    let got: Vec<(usize, usize)> = analysis
        .pairs
        .iter()
        .filter(|p| {
            !matches!(
                p.verdict,
                PairVerdict::Commutes {
                    reason: CommuteReason::DisjointFootprints,
                    ..
                }
            )
        })
        .map(|p| (p.a, p.b))
        .collect();
    assert_eq!(got, want, "{tag}: judged pairs differ from the brute force");
    assert_eq!(
        analysis.commuting + analysis.conflicting + analysis.constrained,
        n * n.saturating_sub(1) / 2,
        "{tag}: the verdict counts do not cover every pair"
    );
}

/// Family "random": a short recorded mix against a small random lattice.
fn random_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
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
    let (mut ops, _) = generate_trace(&base, 8, mix, seed ^ 0x5eed);
    ops.truncate(MAX_OPS);
    (base, ops)
}

/// Family "drops": one droppable essential edge per multi-parent type.
fn drop_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 9,
        max_parents: 4,
        props_per_type: 0.5,
        redeclare_prob: 0.0,
        seed: seed ^ 0xd809,
    };
    let base = gen.generate(LatticeConfig::default(), engine).schema;
    let mut ops = Vec::new();
    for t in base.iter_types() {
        let Ok(pe) = base.essential_supertypes(t) else {
            continue;
        };
        if pe.len() >= 2 {
            let s = *pe.iter().next().expect("non-empty");
            ops.push(RecordedOp::DropEssentialSupertype { t, s });
        }
        if ops.len() == MAX_OPS {
            break;
        }
    }
    (base, ops)
}

/// Analyze one trace and discharge both soundness claims against it.
/// Returns `(certified?, witnesses checked)`.
fn one_trace(base: &Schema, ops: &[RecordedOp], seed: u64, tag: &str) -> (bool, usize) {
    if ops.len() < 2 {
        return (false, 0);
    }
    let analysis = analyze_trace(base, ops);
    check_judged_pairs(ops, &analysis, &format!("seed {seed} {tag}"));
    if analysis.certified {
        check_certified(base, ops, seed, tag);
    }
    let witnesses = check_witnesses(base, ops, &analysis, seed, tag);
    (analysis.certified, witnesses)
}

fn sweep(engine: EngineKind) {
    let mut certified = 0usize;
    let mut witnesses = 0usize;
    for seed in 0..SEEDS {
        for (tag, (base, ops)) in [
            ("random", random_family(engine, seed)),
            ("drops", drop_family(engine, seed)),
        ] {
            check_rev_along(&base, &ops, &format!("seed {seed} {tag}"));
            let (cert, wit) = one_trace(&base, &ops, seed, tag);
            certified += usize::from(cert);
            witnesses += wit;
        }
    }
    // Vacuousness guards: both tiers must have been exercised for real.
    assert!(
        certified >= 100,
        "({engine:?}) only {certified} certified traces — commuting tier under-exercised"
    );
    assert!(
        witnesses >= 100,
        "({engine:?}) only {witnesses} conflict witnesses — conflict tier under-exercised"
    );
}

#[test]
fn certificates_are_sound_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn certificates_are_sound_incremental_engine() {
    sweep(EngineKind::Incremental);
}

/// The shadow's subtype index — the schema's own, stepped copy-on-write —
/// must equal the index folded from the shadow's live `P_e` rows.
fn assert_rev_is_folded(state: &SymbolicState, tag: &str, at: usize) {
    let n = state.type_slots();
    let mut folded = vec![BTreeSet::new(); n];
    for t in (0..n).filter(|&t| state.is_live(t)) {
        for s in state.supertypes(t) {
            folded[s].insert(t);
        }
    }
    for (s, want) in folded.iter().enumerate() {
        let got: BTreeSet<usize> = state.subtypes(s).collect();
        assert_eq!(
            &got, want,
            "{tag}: after {at} step(s), the subtypes of {s} differ from the folded P_e rows"
        );
    }
}

/// [`assert_rev_is_folded`] at capture and after every step of `ops`.
fn check_rev_along(base: &Schema, ops: &[RecordedOp], tag: &str) {
    let mut sim = SymbolicState::capture(base);
    assert_rev_is_folded(&sim, tag, 0);
    for (i, op) in ops.iter().enumerate() {
        sim.step(op);
        assert_rev_is_folded(&sim, tag, i + 1);
    }
}

/// The union edge graph's cycle verdict by full rescan: the live `P_e`
/// edges of the captured state and of the state after every step, plus
/// an edge from every slot to the final ⊤ (any drop may relink there).
/// Along the way, the shadow's subtype index must equal the index folded
/// from its live `P_e` rows, at capture and after every step.
fn rescan_union_cyclic(base: &Schema, ops: &[RecordedOp]) -> bool {
    fn collect(state: &SymbolicState, edges: &mut BTreeSet<(usize, usize)>) {
        for t in (0..state.type_slots()).filter(|&t| state.is_live(t)) {
            edges.extend(state.supertypes(t).map(|s| (t, s)));
        }
    }
    let mut sim = SymbolicState::capture(base);
    let mut edges = BTreeSet::new();
    collect(&sim, &mut edges);
    assert_rev_is_folded(&sim, "rescan", 0);
    for (i, op) in ops.iter().enumerate() {
        sim.step(op);
        collect(&sim, &mut edges);
        assert_rev_is_folded(&sim, "rescan", i + 1);
    }
    let n = sim.type_slots();
    if let Some(root) = sim.root() {
        edges.extend((0..n).filter(|&t| t != root).map(|t| (t, root)));
    }
    let mut adj = vec![Vec::new(); n];
    for (t, s) in edges {
        adj[t].push(s);
    }
    // Kahn's algorithm: a cycle leaves nodes with positive in-degree.
    let mut in_degree = vec![0usize; n];
    for &s in adj.iter().flatten() {
        in_degree[s] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&t| in_degree[t] == 0).collect();
    let mut seen = 0;
    while let Some(t) = ready.pop() {
        seen += 1;
        for &s in &adj[t] {
            in_degree[s] -= 1;
            if in_degree[s] == 0 {
                ready.push(s);
            }
        }
    }
    seen < n
}

/// Check one trace's cycle verdict three ways; returns the rescan's.
fn check_cycle_verdict(base: &Schema, ops: &[RecordedOp], tag: &str) -> bool {
    let cyclic = rescan_union_cyclic(base, ops);
    let analysis = analyze_trace(base, ops);
    check_judged_pairs(ops, &analysis, tag);
    assert_eq!(
        analysis.union_acyclic, !cyclic,
        "{tag}: analyzer's union-graph verdict differs from the rescan"
    );
    let evo = build_plan(&analysis);
    let claims_guard = evo
        .certificate
        .classes
        .iter()
        .any(|c| c.writes.contains(&Slot::CycleGuard));
    assert_eq!(claims_guard, cyclic, "{tag}: plan's cycle-guard claims");
    plan::check(base, ops, &evo.certificate)
        .unwrap_or_else(|e| panic!("{tag}: checker refused the planner's certificate: {e}"));
    if cyclic {
        // The checker re-derives the verdict itself: claims without the
        // guard no longer cover its footprints.
        let mut cert = evo.certificate.clone();
        for class in &mut cert.classes {
            class.reads.remove(&Slot::CycleGuard);
            class.writes.remove(&Slot::CycleGuard);
        }
        assert!(
            plan::check(base, ops, &cert).is_err(),
            "{tag}: checker accepted a cyclic trace's certificate without cycle-guard claims"
        );
    }
    cyclic
}

/// perfbench's size-neutral migration mix.
const MIGRATION_MIX: OpMix = OpMix {
    add_type: 2,
    drop_type: 2,
    add_edge: 2,
    drop_edge: 2,
    add_prop: 3,
    drop_prop: 3,
};

#[test]
fn union_cycle_verdict_matches_a_full_rescan() {
    let (mut cyclic, mut acyclic) = (0usize, 0usize);
    let mut count = |c: bool| {
        if c {
            cyclic += 1;
        } else {
            acyclic += 1;
        }
    };
    // Lattice churn on small lattices, under every lattice configuration
    // (a pointed one links ⊥ to each new type; a forest has no ⊤).
    for seed in 0..SEEDS {
        for config in [
            LatticeConfig::ORION,
            LatticeConfig::TIGUKAT,
            LatticeConfig::RELAXED,
        ] {
            let gen = LatticeGen {
                types: 6,
                max_parents: 2,
                props_per_type: 0.5,
                redeclare_prob: 0.0,
                seed,
            };
            let base = gen.generate(config, EngineKind::Incremental).schema;
            let (ops, _) = generate_trace(&base, 24, OpMix::LATTICE_CHURN, seed ^ 0xc7c1e);
            count(check_cycle_verdict(
                &base,
                &ops,
                &format!("churn seed {seed} {config:?}"),
            ));
        }
    }
    // Chained 200-op migration mixes: each migration is generated on the
    // schema the previous ones left, as perfbench's `migrate` does.
    for types in [1000, 100] {
        let mut base = LatticeGen {
            types,
            max_parents: 3,
            props_per_type: 1.5,
            redeclare_prob: 0.1,
            seed: 7,
        }
        .generate(LatticeConfig::ORION, EngineKind::Incremental)
        .schema;
        for seed in 0..12 {
            let (mut ops, _) = generate_trace(&base, 300, MIGRATION_MIX, seed);
            ops.truncate(200);
            count(check_cycle_verdict(
                &base,
                &ops,
                &format!("migration {types} seed {seed}"),
            ));
            base.apply_trace(&ops).expect("recorded migration replays");
        }
    }
    println!("union-graph verdicts: {cyclic} cyclic, {acyclic} acyclic");
    assert!(
        cyclic >= 100,
        "only {cyclic} cyclic verdicts — cyclic side under-exercised"
    );
    assert!(
        acyclic >= 100,
        "only {acyclic} acyclic verdicts — acyclic side under-exercised"
    );
}
