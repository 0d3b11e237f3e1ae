//! The optimized engine: dirty-set recomputation.
//!
//! The paper defers its "efficient algorithms for schema evolution" to
//! future work (§6); this engine is our realisation. Two observations make
//! the scoped recomputation sound:
//!
//! 1. **Downward locality.** Every derived term of a type `t` (`P`, `PL`,
//!    `N`, `H`, `I`) is a function of `t`'s own inputs and the derived terms
//!    of types *above* `t`. A change to the inputs of a type `c` can
//!    therefore only affect `c` itself and types that have `c` in their
//!    supertype lattice — `c`'s down-set.
//! 2. **The reverse-subtype index finds the down-set.** The affected set is
//!    the downward reachability closure of the seeds over the inverse of
//!    `P_e` (the index `sub_e` that [`crate::model::Schema`] maintains on
//!    every input edit). Reachability over `P_e` edges equals reachability
//!    over `P` edges — Axiom 5 removes an essential supertype from `P` only
//!    when it stays reachable through another — so this BFS visits exactly
//!    the types whose supertype lattice can mention a seed. Because the
//!    index reflects the *post-mutation* graph, a type left outside the BFS
//!    provably has no seed above it and its cached derived state is still
//!    valid; this argument survives batches of many compounded edits, since
//!    every edited type is itself a seed.
//!
//! Additionally, a change that touches only `N_e` (MT-AB / MT-DB) cannot
//! alter `P` or `PL` of anything, so the property-only path reuses the
//! cached lattices and re-derives just `N`/`H`/`I`.
//!
//! Per-type derivation reads the supertypes' derived records through shared
//! reborrows (no set cloning), and writes a type's new record into the
//! derived spine — an unshared record is updated in place, a record still
//! shared with an older schema version is replaced wholesale (its leaf is
//! copied first while an older version shares it).
//!
//! The per-type kernel itself runs on the dense bitset rows of
//! `core::bits`: the Axiom 6/9 unions, the Axiom 8 difference, and the
//! Axiom 7 union are word-parallel `|`/`&!` over `u64` words, and only
//! the tiny Axiom 5 pruning loop (over `P_e`, typically 1–3 elements)
//! iterates per element.

use std::sync::Arc;

use crate::bits::{PropSet, TypeSet};
use crate::ids::TypeId;
use crate::model::{DerivedType, Spine, TypeSlot};
use crate::obs::EvolveObs;

use super::{down_set, ChangeKind, ACYCLIC_MSG};

/// Re-derive every live type, in the topological `order` of all of them
/// (full rebuilds: engine switches and snapshot loads).
pub(crate) fn derive_full(
    types: &Spine<TypeSlot>,
    derived: &mut Spine<DerivedType>,
    obs: &Option<Arc<EvolveObs>>,
    order: &[TypeId],
) {
    for &t in order {
        derive_one_in_place(types, derived, obs, t, ChangeKind::Edges);
    }
}

/// Re-derive only the down-set of `seeds`. Returns the number of per-type
/// derivations (the scope size — surfaced in [`super::EngineStats`]) and
/// the longest derivation chain inside the affected subgraph (the lattice
/// depth the invalidation propagated through, 1 for a flat set of
/// unrelated seeds, 0 for an empty affected set).
pub(crate) fn derive_scoped(
    types: &Spine<TypeSlot>,
    rev: &Spine<TypeSet>,
    derived: &mut Spine<DerivedType>,
    obs: &Option<Arc<EvolveObs>>,
    seeds: &[TypeId],
    kind: ChangeKind,
) -> (usize, u64) {
    let affected = down_set(types, rev, seeds);
    if affected.is_empty() {
        return (0, 0);
    }
    // Derive affected types in topological order; unaffected supertypes
    // keep their cached derived state. Kahn's algorithm runs on the
    // *affected subgraph only* (edges whose both ends are affected), so the
    // per-operation cost tracks the down-set size, not |T| — the whole
    // point of the incremental engine. Membership tests against the
    // affected set are single word probes on the bitset.
    let affected_vec: Vec<TypeId> = affected.iter().collect();
    let n = affected_vec.len();
    // Bitset iteration is ascending, so `affected_vec` is sorted and a
    // member's rank is found by binary search — no side map to build.
    let rank = |t: TypeId| affected_vec.binary_search(&t).expect("member of affected");
    let mut remaining = vec![0usize; n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, &t) in affected_vec.iter().enumerate() {
        for s in types[t.index()].pe.iter() {
            if affected.contains(s) {
                remaining[i] += 1;
                children[rank(s)].push(i as u32);
            }
        }
    }
    let mut queue: Vec<u32> = (0..n)
        .filter(|&i| remaining[i] == 0)
        .map(|i| i as u32)
        .collect();
    let mut head = 0;
    let mut count = 0;
    // Longest-path level per node: the Kahn relaxation below computes, for
    // free, how many derivation "waves" the invalidation needed — the
    // `engine.lattice_depth` histogram observed by the metrics layer.
    let mut level = vec![1u64; n];
    let mut depth = 0u64;
    while head < queue.len() {
        let i = queue[head] as usize;
        head += 1;
        derive_one_in_place(types, derived, obs, affected_vec[i], kind);
        count += 1;
        depth = depth.max(level[i]);
        for &c in &children[i] {
            let c = c as usize;
            level[c] = level[c].max(level[i] + 1);
            remaining[c] -= 1;
            if remaining[c] == 0 {
                queue.push(c as u32);
            }
        }
    }
    // Release-mode check, shared with `topo_order`'s failure path: a cycle
    // in the affected subgraph would otherwise silently leave stale derived
    // state behind (satisfying no axiom). Unreachable through `ops` (cycles
    // are rejected up front) — this guards hand-forged inputs.
    assert_eq!(count, n, "{ACYCLIC_MSG}");
    (count, depth)
}

/// Derive one type, writing into `derived[t]`. Supertypes of `t` must
/// already hold correct derived state.
///
/// All reads of supertype records are plain shared reborrows of `derived`
/// — no cloning of `P` is needed to satisfy the borrow checker, because the
/// new sets are accumulated in locals and written back in one step.
fn derive_one_in_place(
    types: &Spine<TypeSlot>,
    derived: &mut Spine<DerivedType>,
    obs: &Option<Arc<EvolveObs>>,
    t: TypeId,
    kind: ChangeKind,
) {
    let slot = &types[t.index()];

    if kind == ChangeKind::Edges {
        // Axiom 5: keep essential supertypes not reachable through another.
        // `P_e` is tiny (typically ≤3), so the pruning pair loop stays per
        // element; each reachability probe is a single word test on the
        // candidate's cached `PL` bitset.
        let mut p = TypeSet::new();
        for s in slot.pe.iter() {
            let shadowed = slot
                .pe
                .iter()
                .any(|x| x != s && derived[x.index()].pl.contains(s));
            if !shadowed {
                p.insert(s);
            }
        }

        // Axiom 6: PL(t) = {t} ∪ ⋃ PL(x), and
        // Axiom 9: H(t) = ⋃ I(x), both for x ∈ P(t) — word-parallel unions
        // of the supertypes' cached rows.
        let mut pl = TypeSet::new();
        pl.insert(t);
        let mut h = PropSet::new();
        for x in p.iter() {
            let dx = &derived[x.index()];
            pl.union_with(&dx.pl);
            h.union_with(&dx.iface);
        }

        // Axiom 8: N(t) = N_e(t) − H(t) — one word-parallel difference.
        let mut n = slot.ne.clone();
        n.subtract(&h);
        // Axiom 7: I(t) = N(t) ∪ H(t) (= N_e(t) ∪ H(t)) — one word-parallel
        // union.
        let mut iface = slot.ne.clone();
        iface.union_with(&h);

        // The whole record changed: replace it outright (cheaper than
        // make_mut when the old record is shared with a previous version).
        derived.set(obs, t.index(), DerivedType { p, pl, n, h, iface });
    } else {
        // PropsOnly: P/PL are cached and untouched; re-derive N/H/I.
        let mut h = PropSet::new();
        for x in derived[t.index()].p.iter() {
            h.union_with(&derived[x.index()].iface);
        }
        let mut n = slot.ne.clone();
        n.subtract(&h);
        let mut iface = slot.ne.clone();
        iface.union_with(&h);
        let d = derived.make_mut(obs, t.index());
        d.h = h;
        d.n = n;
        d.iface = iface;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::LatticeConfig;
    use crate::engine::EngineKind;
    use crate::Schema;
    use std::collections::BTreeSet;

    /// A five-level chain with a side branch; mutations at each level should
    /// re-derive exactly the level's down-set.
    fn chain() -> Schema {
        let mut s = Schema::with_engine(LatticeConfig::default(), EngineKind::Incremental);
        let root = s.add_root_type("root").unwrap();
        let mut prev = root;
        for i in 0..5 {
            prev = s.add_type(format!("c{i}"), [prev], []).unwrap();
        }
        s.add_type("side", [root], []).unwrap();
        s
    }

    #[test]
    fn scope_is_down_set_only() {
        let mut s = chain();
        let c2 = s.type_by_name("c2").unwrap();
        let p = s.add_property("x");
        s.reset_stats();
        s.add_essential_property(c2, p).unwrap();
        // c2, c3, c4 affected; root/c0/c1/side untouched.
        assert_eq!(s.stats().last_types_derived, 3);
        assert_eq!(s.stats().scoped_recomputes, 1);
        assert_eq!(s.stats().full_recomputes, 0);
    }

    #[test]
    fn property_change_propagates_down_chain() {
        let mut s = chain();
        let c0 = s.type_by_name("c0").unwrap();
        let c4 = s.type_by_name("c4").unwrap();
        let p = s.add_property("x");
        s.add_essential_property(c0, p).unwrap();
        assert!(s.inherited_properties(c4).unwrap().contains(&p));
        s.drop_essential_property(c0, p).unwrap();
        assert!(!s.interface(c4).unwrap().contains(&p));
    }

    #[test]
    fn matches_naive_after_mixed_trace() {
        // Apply the same mutation trace on both engines; all derived state
        // must match (the broad version of this is a proptest).
        let build = |engine| {
            let mut s = Schema::with_engine(LatticeConfig::default(), engine);
            let root = s.add_root_type("root").unwrap();
            let pa = s.add_property("a");
            let pb = s.add_property("b");
            let x = s.add_type("x", [root], [pa]).unwrap();
            let y = s.add_type("y", [root], [pb]).unwrap();
            let z = s.add_type("z", [x, y], []).unwrap();
            let w = s.add_type("w", [z], [pa]).unwrap();
            s.drop_essential_supertype(z, x).unwrap();
            s.add_essential_supertype(w, y).unwrap();
            s.drop_essential_property(y, pb).unwrap();
            s.drop_type(z).unwrap();
            s
        };
        let a = build(EngineKind::Naive);
        let b = build(EngineKind::Incremental);
        let ids: Vec<_> = a.iter_types().collect();
        assert_eq!(ids, b.iter_types().collect::<Vec<_>>());
        for t in ids {
            assert_eq!(a.derived(t).unwrap(), b.derived(t).unwrap(), "{t}");
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn forged_cycle_fails_loudly_not_silently() {
        // A cycle smuggled past the ops layer (hand-edited inputs) must
        // panic with the shared acyclicity message in release builds too —
        // never return normally with stale derived state (the old
        // debug_assert-only path did exactly that).
        let mut s = chain();
        let c0 = s.type_by_name("c0").unwrap();
        let c1 = s.type_by_name("c1").unwrap();
        s.types.make_mut(&None, c0.index()).pe.insert(c1);
        s.rebuild_subtype_index();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::engine::recompute_after_many(&mut s, &[c0], crate::engine::ChangeKind::Edges);
        }));
        let msg = *r
            .expect_err("cyclic affected subgraph must panic")
            .downcast::<String>()
            .expect("panic payload is the formatted message");
        assert!(msg.contains("Axiom 2"), "{msg}");
    }

    #[test]
    fn dropping_middle_type_relinks_via_essentials() {
        // The §2 narrative: essential supertypes survive the loss of an
        // intermediate link.
        let mut s = chain();
        let root = s.type_by_name("root").unwrap();
        let c1 = s.type_by_name("c1").unwrap();
        let c2 = s.type_by_name("c2").unwrap();
        let c3 = s.type_by_name("c3").unwrap();
        // Declare c1 essential on c3 (in addition to c2).
        s.add_essential_supertype(c3, c1).unwrap();
        s.drop_type(c2).unwrap();
        // c3 reattaches to c1 because it was essential.
        assert_eq!(s.immediate_supertypes(c3).unwrap(), BTreeSet::from([c1]));
        assert!(s.super_lattice(c3).unwrap().contains(&root));
    }
}
