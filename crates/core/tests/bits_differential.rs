//! Differential evidence for the dense bitset lattice kernel
//! (`core::bits`, DESIGN.md §12).
//!
//! The kernel swapped every derived set (`P`, `PL`, `N`, `H`, `I`) and
//! both designer inputs (`P_e`, `N_e`) from `BTreeSet` to dense word
//! arrays. These tests retain a from-scratch **`BTreeSet` reference
//! implementation** of Axioms 5–9 — fed only by the public essential-input
//! accessors — and drive 1000 seeded random traces through the real
//! engines, asserting after every trace that:
//!
//! * every derived set equals the reference derivation,
//! * `fingerprint` / `canonical_fingerprint` agree across both engines
//!   (the committed goldens pin them to the pre-kernel encoding),
//! * the `engine.*` metrics of two identical replays agree exactly — the
//!   representation may change the cost of a derivation, never how many
//!   derivations happen.
//!
//! Word-boundary unit tests pin lattices of exactly 63/64/65 and
//! 127/128/129 types, where set sizes straddle one- and two-word storage.

use std::collections::{BTreeMap, BTreeSet};

use axiombase_core::obs::names;
use axiombase_core::{
    EngineKind, EvolveObs, LatticeConfig, MetricsRegistry, PropId, Schema, TypeId,
};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Reference implementation: Axioms 5–9 over BTreeSets, from P_e / N_e.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq)]
struct RefDerived {
    p: BTreeSet<TypeId>,
    pl: BTreeSet<TypeId>,
    n: BTreeSet<PropId>,
    h: BTreeSet<PropId>,
    iface: BTreeSet<PropId>,
}

/// Derive every live type from the public essential inputs alone, in
/// dependency order, with plain ordered-set algebra.
fn ref_derive(s: &Schema) -> BTreeMap<TypeId, RefDerived> {
    let live: Vec<TypeId> = s.iter_types().collect();
    let pe: BTreeMap<TypeId, BTreeSet<TypeId>> = live
        .iter()
        .map(|&t| (t, s.essential_supertypes(t).expect("live")))
        .collect();
    // Kahn topological order over the P_e edges (supertypes first).
    let mut in_degree: BTreeMap<TypeId, usize> = live.iter().map(|&t| (t, pe[&t].len())).collect();
    let mut queue: Vec<TypeId> = live.iter().copied().filter(|t| in_degree[t] == 0).collect();
    let mut order = Vec::new();
    while let Some(t) = queue.pop() {
        order.push(t);
        for &c in &live {
            if pe[&c].contains(&t) {
                let d = in_degree.get_mut(&c).expect("live");
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
    }
    assert_eq!(order.len(), live.len(), "P_e graph must be acyclic");

    let mut out: BTreeMap<TypeId, RefDerived> = BTreeMap::new();
    for t in order {
        let ne = s.essential_properties(t).expect("live");
        // Axiom 5: keep the essentials not reachable through another.
        let p: BTreeSet<TypeId> = pe[&t]
            .iter()
            .copied()
            .filter(|&x| !pe[&t].iter().any(|&y| y != x && out[&y].pl.contains(&x)))
            .collect();
        // Axiom 6: PL(t) = {t} ∪ ⋃ PL(x), x ∈ P(t).
        let mut pl = BTreeSet::from([t]);
        for x in &p {
            pl.extend(out[x].pl.iter().copied());
        }
        // Axiom 9: H(t) = ⋃ I(x), x ∈ P(t).
        let mut h = BTreeSet::new();
        for x in &p {
            h.extend(out[x].iface.iter().copied());
        }
        // Axiom 8: N(t) = N_e(t) − H(t).
        let n: BTreeSet<PropId> = ne.difference(&h).copied().collect();
        // Axiom 7: I(t) = N(t) ∪ H(t).
        let iface: BTreeSet<PropId> = n.union(&h).copied().collect();
        out.insert(t, RefDerived { p, pl, n, h, iface });
    }
    out
}

/// Every public derived accessor must equal the reference derivation.
fn assert_matches_reference(s: &Schema) {
    let reference = ref_derive(s);
    for (t, want) in &reference {
        let got = RefDerived {
            p: s.immediate_supertypes(*t).expect("live"),
            pl: s.super_lattice(*t).expect("live"),
            n: s.native_properties(*t).expect("live"),
            h: s.inherited_properties(*t).expect("live"),
            iface: s.interface(*t).expect("live"),
        };
        assert_eq!(&got, want, "derived sets diverge at {t}");
    }
}

// ---------------------------------------------------------------------
// Seeded trace driver (self-contained xorshift; no dev-dep on workload).
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*: deterministic, dependency-free.
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Apply one random operation; the paper's documented rejections count as
/// no-ops, like the proptest driver in `proptests.rs`.
fn random_op(s: &mut Schema, rng: &mut Rng, fresh: &mut u32) {
    let live: Vec<TypeId> = s.iter_types().collect();
    let props: Vec<PropId> = s.iter_props().collect();
    let pick = |rng: &mut Rng, v: &Vec<TypeId>| v[rng.below(v.len())];
    match rng.below(7) {
        0 => {
            *fresh += 1;
            let mut parents = BTreeSet::new();
            for _ in 0..rng.below(3) {
                if !live.is_empty() {
                    parents.insert(pick(rng, &live));
                }
            }
            let _ = s.add_type(format!("d{fresh}"), parents, []);
        }
        1 => {
            *fresh += 1;
            s.add_property(format!("q{fresh}"));
        }
        2 if !live.is_empty() => {
            let (t, x) = (pick(rng, &live), pick(rng, &live));
            let _ = s.add_essential_supertype(t, x);
        }
        3 if !live.is_empty() => {
            let t = pick(rng, &live);
            let pe: Vec<TypeId> = s
                .essential_supertypes(t)
                .expect("live")
                .into_iter()
                .collect();
            if !pe.is_empty() {
                let x = pe[rng.below(pe.len())];
                let _ = s.drop_essential_supertype(t, x);
            }
        }
        4 if !live.is_empty() && !props.is_empty() => {
            let t = pick(rng, &live);
            let p = props[rng.below(props.len())];
            let _ = s.add_essential_property(t, p);
        }
        5 if !live.is_empty() => {
            let t = pick(rng, &live);
            let ne: Vec<PropId> = s
                .essential_properties(t)
                .expect("live")
                .into_iter()
                .collect();
            if !ne.is_empty() {
                let p = ne[rng.below(ne.len())];
                let _ = s.drop_essential_property(t, p);
            }
        }
        6 if live.len() > 2 => {
            let t = pick(rng, &live);
            let _ = s.drop_type(t);
        }
        _ => {}
    }
}

fn engine_counters(snap: &axiombase_core::MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

// ---------------------------------------------------------------------
// 1000-trace differential run.
// ---------------------------------------------------------------------

#[test]
fn thousand_traces_agree_with_btreeset_reference() {
    for seed in 0..1000u64 {
        let mk = |engine| {
            let mut s = Schema::with_engine(LatticeConfig::default(), engine);
            s.add_root_type("root").expect("root");
            s
        };
        let mut naive = mk(EngineKind::Naive);
        let mut incr = mk(EngineKind::Incremental);
        // An observed twin of the incremental replica: identical trace,
        // with every engine.* counter landing in a registry.
        let reg_a = Arc::new(MetricsRegistry::new());
        let reg_b = Arc::new(MetricsRegistry::new());
        let mut obs_a = mk(EngineKind::Incremental);
        let mut obs_b = mk(EngineKind::Incremental);
        obs_a.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&reg_a))));
        obs_b.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&reg_b))));

        // The same seeded decision stream on every replica.
        for replica in [&mut naive, &mut incr, &mut obs_a, &mut obs_b] {
            let mut rng = Rng(seed | 1);
            let mut fresh = 0;
            for _ in 0..24 {
                random_op(replica, &mut rng, &mut fresh);
            }
        }

        // Representation differential: every derived set equals the
        // BTreeSet reference derivation (checked on both engines every
        // 50th seed — the reference is quadratic — and always on the
        // engine-agreement fingerprints).
        if seed % 50 == 0 {
            assert_matches_reference(&naive);
            assert_matches_reference(&incr);
        }
        assert_eq!(
            naive.fingerprint(),
            incr.fingerprint(),
            "engines diverge at seed {seed}"
        );
        assert_eq!(
            naive.canonical_fingerprint(),
            incr.canonical_fingerprint(),
            "canonical fingerprints diverge at seed {seed}"
        );
        assert!(incr.verify().is_empty(), "axioms violated at seed {seed}");

        // Metric differential: identical replays produce identical
        // engine.* counters — derivation *counts* are representation-
        // independent even though derivation *cost* is not.
        let (a, b) = (reg_a.snapshot(), reg_b.snapshot());
        assert_eq!(
            engine_counters(&a),
            engine_counters(&b),
            "engine.* metrics diverge at seed {seed}"
        );
        assert!(
            a.counters.contains_key(names::ENGINE_SCOPED)
                || a.counters.contains_key(names::ENGINE_FULL)
                || a.counters.contains_key(names::ENGINE_NOOP),
            "observed replay recorded no engine counters at seed {seed}"
        );
        assert_eq!(
            obs_a.stats(),
            obs_b.stats(),
            "EngineStats diverge at seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Word-boundary lattices: 63/64/65 and 127/128/129 types.
// ---------------------------------------------------------------------

/// A chain of `n` types (each under its predecessor) so `PL` of the last
/// type holds every id `0..n` — the set that straddles the word boundary.
fn chain(n: usize) -> Schema {
    let mut s = Schema::new(LatticeConfig::default());
    let mut prev = s.add_root_type("t0").expect("root");
    for i in 1..n {
        let p = s.add_property(format!("p{i}"));
        prev = s.add_type(format!("t{i}"), [prev], [p]).expect("chain");
    }
    s
}

#[test]
fn word_boundary_chains_match_reference() {
    for n in [63usize, 64, 65, 127, 128, 129] {
        let s = chain(n);
        assert_eq!(s.type_count(), n);
        let last = s.type_by_name(&format!("t{}", n - 1)).expect("last");
        let pl = s.super_lattice(last).expect("live");
        assert_eq!(pl.len(), n, "PL must span all {n} ids");
        let iface = s.interface(last).expect("live");
        assert_eq!(iface.len(), n - 1, "one property per non-root type");
        assert_matches_reference(&s);
        assert!(s.verify().is_empty());
    }
}

#[test]
fn word_boundary_edits_at_the_last_id() {
    // Mutate exactly at ids 63/64/65 and 127/128/129: drop and re-add
    // the final chain edge, where the set bit sits at a word edge.
    for n in [64usize, 65, 128, 129] {
        let mut s = chain(n);
        let last = s.type_by_name(&format!("t{}", n - 1)).expect("last");
        let parent = s.type_by_name(&format!("t{}", n - 2)).expect("parent");
        let root = s.type_by_name("t0").expect("root");
        // Keep the type rooted while the chain edge toggles.
        s.add_essential_supertype(last, root).expect("re-anchor");
        s.drop_essential_supertype(last, parent).expect("drop");
        assert_eq!(
            s.super_lattice(last).expect("live"),
            BTreeSet::from([root, last]),
            "n={n}: PL collapses to the re-anchored pair"
        );
        s.add_essential_supertype(last, parent).expect("re-add");
        assert_eq!(
            s.super_lattice(last).expect("live").len(),
            n,
            "n={n}: PL spans the chain again"
        );
        assert_matches_reference(&s);
        assert!(s.verify().is_empty());
    }
}
