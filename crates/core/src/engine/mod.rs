//! Derivation engines: instantiating Axioms 5–9 after a schema change.
//!
//! "The axioms provide a consistent and automatic mechanism for re-computing
//! the entire type lattice structure after a change is made to either the
//! essential supertypes `P_e` or the essential properties `N_e` of a type"
//! (§2). The paper notes that "several simplifications ... and several
//! optimizations can be made to the way in which the axioms generate their
//! results" but defers them; its future work calls for "efficient algorithms
//! for schema evolution" and "empirical evidence of performance
//! characteristics" (§6). This module realises both ends:
//!
//! * `naive` — the *specification* engine: re-derives every type from
//!   scratch through the literal apply-all combinators of Table 2.
//! * `incremental` — the *optimized* engine: re-derives only the changed
//!   type's down-set (its transitive subtypes), reading cached derived state
//!   for everything else, and skips lattice recomputation for property-only
//!   changes.
//!
//! The two engines must produce identical derived state on every reachable
//! schema; this is pinned by unit tests here and by property tests over
//! random operation traces.

pub(crate) mod incremental;
pub(crate) mod naive;

use crate::bits::TypeSet;
use crate::ids::TypeId;
use crate::model::{DerivedType, Schema, Spine, TypeSlot};
use crate::obs::RecomputeScope;

/// Shared failure message for a `P_e` cycle reaching a derivation engine.
/// Operations reject cycles up front and snapshot loads validate before
/// install, so hitting this means internal state was corrupted (e.g. a
/// hand-forged input graph) — both engines fail loudly rather than leave
/// silently stale derived state.
pub(crate) const ACYCLIC_MSG: &str = "schema inputs must be acyclic (Axiom 2)";

/// Which derivation engine a [`Schema`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Literal interpretation of Table 2 over the whole lattice on every
    /// change. O(|T|·work) per operation; serves as the executable spec.
    Naive,
    /// Dirty-set recomputation of the changed type's down-set only.
    #[default]
    Incremental,
}

/// Cumulative counters exposed for the engine-ablation experiments
/// (`ablation_engines` harness, `bench_engines` Criterion bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of whole-lattice recomputations performed.
    pub full_recomputes: u64,
    /// Number of scoped (down-set) recomputations that derived at least one
    /// type. Recomputations whose affected set turned out empty are counted
    /// in [`EngineStats::noop_recomputes`] instead, so the ablation ratio
    /// `types_derived / scoped_recomputes` is not skewed by no-ops.
    pub scoped_recomputes: u64,
    /// Scoped recomputations whose affected set was empty (e.g. a batch
    /// that adds and then drops the same type): no type was re-derived.
    pub noop_recomputes: u64,
    /// Total number of per-type derivations across all recomputations.
    pub types_derived: u64,
    /// Per-type derivations in the most recent recomputation.
    pub last_types_derived: u64,
}

/// The kind of change that triggered a recomputation; lets the incremental
/// engine skip `P`/`PL` work when only properties changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChangeKind {
    /// `P_e` of some type changed (or a type was added/dropped): lattice and
    /// properties must be re-derived.
    Edges,
    /// Only `N_e` changed: `P`/`PL` are unaffected.
    PropsOnly,
}

/// Accumulated change seeds of an in-flight `Schema::evolve_batch`: instead
/// of recomputing after every operation, each operation's seeds and change
/// kind are absorbed here and a single recomputation (one down-set BFS, one
/// scoped derivation) runs when the batch finalizes.
#[derive(Debug, Clone)]
pub(crate) struct BatchState {
    /// Union of the change seeds of all absorbed operations.
    pub(crate) seeds: TypeSet,
    /// Worst change kind seen: any `Edges` op upgrades the whole batch.
    pub(crate) kind: ChangeKind,
    /// Whether any operation asked for a recomputation at all.
    pub(crate) dirty: bool,
}

impl BatchState {
    pub(crate) fn new() -> Self {
        BatchState {
            seeds: TypeSet::new(),
            kind: ChangeKind::PropsOnly,
            dirty: false,
        }
    }

    pub(crate) fn absorb(&mut self, changed: &[TypeId], kind: ChangeKind) {
        self.seeds.extend(changed.iter().copied());
        if kind == ChangeKind::Edges {
            self.kind = ChangeKind::Edges;
        }
        self.dirty = true;
    }
}

/// Recompute the whole lattice with the configured engine.
pub(crate) fn recompute_all(schema: &mut Schema) {
    schema.derived = Spine::repeat(schema.types.len(), DerivedType::default());
    let (types, derived, obs) = (&schema.types, &mut schema.derived, &schema.obs);
    let n = match schema.engine {
        EngineKind::Naive => naive::derive_all(types, derived, obs),
        EngineKind::Incremental => incremental::derive_full(types, derived, obs),
    };
    schema.stats.full_recomputes += 1;
    schema.stats.types_derived += n as u64;
    schema.stats.last_types_derived = n as u64;
    if let Some(obs) = &schema.obs {
        // The depth walk is only paid for when someone is listening.
        let depth = lattice_depth(&schema.types);
        obs.on_recompute(RecomputeScope::Full, n as u64, depth);
    }
}

/// Recompute after changes to several types at once (a type drop edits
/// `P_e` of every essential subtype; a finalized batch carries the seeds of
/// all its operations).
///
/// Called *after* the input mutation: the affected set is found by walking
/// the reverse-subtype index downward from the seeds; see the module docs
/// of `incremental` for why that covers every affected type.
pub(crate) fn recompute_after_many(schema: &mut Schema, changed: &[TypeId], kind: ChangeKind) {
    match schema.engine {
        EngineKind::Naive => {
            schema.derived = Spine::repeat(schema.types.len(), DerivedType::default());
            let n = naive::derive_all(&schema.types, &mut schema.derived, &schema.obs);
            schema.stats.full_recomputes += 1;
            schema.stats.types_derived += n as u64;
            schema.stats.last_types_derived = n as u64;
            if let Some(obs) = &schema.obs {
                let depth = lattice_depth(&schema.types);
                obs.on_recompute(RecomputeScope::Full, n as u64, depth);
            }
        }
        EngineKind::Incremental => {
            debug_assert_eq!(schema.derived.len(), schema.types.len());
            let (n, depth) = incremental::derive_scoped(
                &schema.types,
                &schema.rev,
                &mut schema.derived,
                &schema.obs,
                changed,
                kind,
            );
            if n == 0 {
                schema.stats.noop_recomputes += 1;
            } else {
                schema.stats.scoped_recomputes += 1;
                schema.stats.types_derived += n as u64;
            }
            schema.stats.last_types_derived = n as u64;
            if let Some(obs) = &schema.obs {
                let scope = if n == 0 {
                    RecomputeScope::Noop
                } else {
                    RecomputeScope::Scoped
                };
                obs.on_recompute(scope, n as u64, depth);
            }
        }
    }
}

/// Longest `P_e` chain among the live types (1 for a flat set of roots, 0
/// for an empty schema) — the full-recompute analogue of the per-scope
/// depth the incremental engine reports. Only computed when an observer is
/// attached.
pub(crate) fn lattice_depth(types: &Spine<TypeSlot>) -> u64 {
    let order = topo_order(types).expect(ACYCLIC_MSG);
    let mut level = vec![0u64; types.len()];
    let mut depth = 0u64;
    for &t in &order {
        let base = types[t.index()]
            .pe
            .iter()
            .map(|s| level[s.index()])
            .max()
            .unwrap_or(0);
        level[t.index()] = base + 1;
        depth = depth.max(base + 1);
    }
    depth
}

/// Topological order of the live types: every type appears after all of its
/// essential supertypes. Returns `None` if the `P_e` graph has a cycle
/// (never the case for schemas built through [`crate::ops`], which reject
/// cycles up front; deserialized snapshots are validated before install).
pub(crate) fn topo_order(types: &Spine<TypeSlot>) -> Option<Vec<TypeId>> {
    let n = types.len();
    let mut remaining: Vec<usize> = vec![0; n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut live = 0usize;
    for (i, slot) in types.iter().enumerate() {
        if !slot.alive {
            continue;
        }
        live += 1;
        for s in slot.pe.iter() {
            debug_assert!(types[s.index()].alive, "P_e references dead type");
            remaining[i] += 1;
            children[s.index()].push(i as u32);
        }
    }
    let mut queue: Vec<u32> = (0..n)
        .filter(|&i| types[i].alive && remaining[i] == 0)
        .map(|i| i as u32)
        .collect();
    let mut order = Vec::with_capacity(live);
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head] as usize;
        head += 1;
        order.push(TypeId::from_index(i));
        for &c in &children[i] {
            remaining[c as usize] -= 1;
            if remaining[c as usize] == 0 {
                queue.push(c);
            }
        }
    }
    (order.len() == live).then_some(order)
}

/// The down-set of `seeds` over the reverse-subtype index: every live type
/// reachable from a seed by walking `sub_e` edges downward, plus the live
/// seeds themselves. These are exactly the types whose derived state may
/// change — O(size of the down-set), not O(|T|).
///
/// Soundness: a type `d ≠ seed` is affected only if some seed is reachable
/// upward from `d` over the *post-mutation* `P_e` graph (derived terms of
/// `d` depend only on `d`'s inputs and the derived terms of types above
/// it). The index reflects exactly that post-mutation graph, so the
/// downward BFS from the seeds visits every such `d`. Types outside the
/// BFS have no seed above them; their cached derived state is unaffected.
/// This holds for compounded batches too: each absorbed operation's own
/// seeds cover the edge(s) it changed, and edges *below* a seed are
/// traversed as they are now, after all edits.
pub(crate) fn down_set(types: &Spine<TypeSlot>, rev: &Spine<TypeSet>, seeds: &[TypeId]) -> TypeSet {
    let mut out = TypeSet::new();
    let mut stack: Vec<TypeId> = Vec::new();
    for &t in seeds {
        if types.get(t.index()).is_some_and(|s| s.alive) && out.insert(t) {
            stack.push(t);
        }
    }
    while let Some(t) = stack.pop() {
        for c in rev[t.index()].iter() {
            if types[c.index()].alive && out.insert(c) {
                stack.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::Schema;

    fn diamond() -> Schema {
        // root -> a, b -> c (diamond)
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("root").unwrap();
        let a = s.add_type("a", [root], []).unwrap();
        let b = s.add_type("b", [root], []).unwrap();
        s.add_type("c", [a, b], []).unwrap();
        s
    }

    #[test]
    fn topo_order_respects_supertypes() {
        let s = diamond();
        let order = topo_order(&s.types).expect("acyclic");
        let pos = |name: &str| {
            let t = s.type_by_name(name).unwrap();
            order.iter().position(|&x| x == t).unwrap()
        };
        assert!(pos("root") < pos("a"));
        assert!(pos("root") < pos("b"));
        assert!(pos("a") < pos("c"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn topo_order_detects_cycles() {
        let mut s = diamond();
        // Forge a cycle directly in the inputs (ops would reject this).
        let a = s.type_by_name("a").unwrap();
        let c = s.type_by_name("c").unwrap();
        s.types.make_mut(&None, a.index()).pe.insert(c);
        assert!(topo_order(&s.types).is_none());
    }

    #[test]
    fn engines_agree_on_diamond() {
        let mut naive = Schema::with_engine(LatticeConfig::default(), EngineKind::Naive);
        let mut inc = Schema::with_engine(LatticeConfig::default(), EngineKind::Incremental);
        for s in [&mut naive, &mut inc] {
            let root = s.add_root_type("root").unwrap();
            let p = s.add_property("x");
            let a = s.add_type("a", [root], [p]).unwrap();
            let b = s.add_type("b", [root], []).unwrap();
            s.add_type("c", [a, b], []).unwrap();
        }
        for t in naive.iter_types() {
            assert_eq!(naive.derived(t).unwrap(), inc.derived(t).unwrap());
        }
    }

    #[test]
    fn down_set_covers_subtypes() {
        let s = diamond();
        let a = s.type_by_name("a").unwrap();
        let c = s.type_by_name("c").unwrap();
        let ds = down_set(&s.types, &s.rev, &[a]);
        assert!(ds.contains(a));
        assert!(ds.contains(c));
        assert!(!ds.contains(s.type_by_name("b").unwrap()));
        assert!(!ds.contains(s.type_by_name("root").unwrap()));
    }

    #[test]
    fn down_set_ignores_dead_seeds() {
        let mut s = diamond();
        let c = s.type_by_name("c").unwrap();
        s.drop_type(c).unwrap();
        assert!(down_set(&s.types, &s.rev, &[c]).is_empty());
    }

    #[test]
    fn subtype_index_matches_input_scan() {
        let mut s = diamond();
        let a = s.type_by_name("a").unwrap();
        let b = s.type_by_name("b").unwrap();
        let c = s.type_by_name("c").unwrap();
        s.drop_essential_supertype(c, a).unwrap();
        s.drop_type(b).unwrap();
        s.add_type("d", [a], []).unwrap();
        for t in s.iter_types() {
            let scanned: std::collections::BTreeSet<TypeId> = s
                .iter_types()
                .filter(|&x| s.essential_supertypes(x).unwrap().contains(&t))
                .collect();
            assert_eq!(s.essential_subtypes(t).unwrap(), scanned, "{t}");
        }
    }

    #[test]
    fn stats_track_recompute_scope() {
        let mut s = Schema::with_engine(LatticeConfig::default(), EngineKind::Incremental);
        let root = s.add_root_type("root").unwrap();
        let a = s.add_type("a", [root], []).unwrap();
        let _b = s.add_type("b", [root], []).unwrap();
        s.reset_stats();
        let p = s.add_property("x");
        s.add_essential_property(a, p).unwrap();
        // Only `a` (no subtypes) should have been re-derived.
        assert_eq!(s.stats().last_types_derived, 1);
    }
}
