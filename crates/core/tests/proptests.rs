//! Property-based evidence for the paper's theorems and claims.
//!
//! * Theorems 2.1/2.2 (soundness & completeness): after any valid operation
//!   trace, the engine-derived `P`, `PL`, `N`, `H`, `I` equal the
//!   brute-force oracle's specification.
//! * Engine agreement: the literal (naive) interpretation of Table 2 and
//!   the incremental engine produce identical schemas on identical traces.
//! * Axiom preservation: every reachable schema satisfies all nine axioms.
//! * §5 order-independence: dropping a set of subtype edges produces the
//!   same lattice under every order.
//! * Snapshot round-trip: persistence preserves the observable schema.
//! * Structural sharing: a published version never sees a later version's
//!   write, across spine-leaf and name-shard boundaries.
//! * The analysis shadow, a copy-on-write version of a captured schema,
//!   steps through a recorded history exactly as the schema evolves.

use axiombase_core::{oracle, EngineKind, LatticeConfig, PropId, Schema, SchemaError, TypeId};
use proptest::prelude::*;

/// An abstract operation with free indices; [`apply`] maps the indices onto
/// live targets so most generated operations are applicable, and treats the
/// paper's documented rejections as no-ops.
#[derive(Debug, Clone)]
enum Op {
    AddType { parents: Vec<u8>, props: Vec<u8> },
    NewProp,
    AddEdge(u8, u8),
    DropEdge(u8, u8),
    AddProp(u8, u8),
    DropProp(u8, u8),
    DropType(u8),
    DropPropertyEverywhere(u8),
    Rename(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (proptest::collection::vec(any::<u8>(), 0..3), proptest::collection::vec(any::<u8>(), 0..3))
            .prop_map(|(parents, props)| Op::AddType { parents, props }),
        2 => Just(Op::NewProp),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::DropEdge(a, b)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddProp(a, b)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::DropProp(a, b)),
        1 => any::<u8>().prop_map(Op::DropType),
        1 => any::<u8>().prop_map(Op::DropPropertyEverywhere),
        1 => any::<u8>().prop_map(Op::Rename),
    ]
}

fn pick_type(s: &Schema, ix: u8) -> Option<TypeId> {
    let live: Vec<TypeId> = s.iter_types().collect();
    if live.is_empty() {
        None
    } else {
        Some(live[ix as usize % live.len()])
    }
}

fn pick_prop(s: &Schema, ix: u8) -> Option<PropId> {
    let live: Vec<PropId> = s.iter_props().collect();
    if live.is_empty() {
        None
    } else {
        Some(live[ix as usize % live.len()])
    }
}

/// Apply one abstract op; documented rejections (cycles, root-edge drops,
/// duplicates, …) are tolerated, anything else would fail the test.
fn apply(s: &mut Schema, op: &Op, counter: &mut u32) {
    let tolerate = |r: Result<(), SchemaError>| match r {
        Ok(())
        | Err(SchemaError::WouldCreateCycle { .. })
        | Err(SchemaError::SelfSupertype(_))
        | Err(SchemaError::RootEdgeDrop { .. })
        | Err(SchemaError::DuplicateSupertype { .. })
        | Err(SchemaError::NotAnEssentialSupertype { .. })
        | Err(SchemaError::NotAnEssentialProperty { .. })
        | Err(SchemaError::CannotDropRoot(_))
        | Err(SchemaError::CannotDropBase(_))
        | Err(SchemaError::SubtypeOfBase(_))
        | Err(SchemaError::BaseEdgeDrop { .. })
        | Err(SchemaError::FrozenType(_)) => {}
        Err(other) => panic!("unexpected rejection: {other}"),
    };
    match op {
        Op::AddType { parents, props } => {
            let ps: Vec<TypeId> = parents.iter().filter_map(|&i| pick_type(s, i)).collect();
            let ns: Vec<PropId> = props.iter().filter_map(|&i| pick_prop(s, i)).collect();
            *counter += 1;
            let name = format!("ty_{counter}");
            // Dedup parents via set semantics happens inside add_type.
            tolerate(s.add_type(name, ps, ns).map(|_| ()));
        }
        Op::NewProp => {
            *counter += 1;
            let _ = s.add_property(format!("prop_{counter}"));
        }
        Op::AddEdge(a, b) => {
            if let (Some(t), Some(sup)) = (pick_type(s, *a), pick_type(s, *b)) {
                tolerate(s.add_essential_supertype(t, sup));
            }
        }
        Op::DropEdge(a, b) => {
            if let Some(t) = pick_type(s, *a) {
                let pe: Vec<TypeId> = s.essential_supertypes(t).unwrap().iter().copied().collect();
                if !pe.is_empty() {
                    let sup = pe[*b as usize % pe.len()];
                    tolerate(s.drop_essential_supertype(t, sup));
                }
            }
        }
        Op::AddProp(a, b) => {
            if let (Some(t), Some(p)) = (pick_type(s, *a), pick_prop(s, *b)) {
                tolerate(s.add_essential_property(t, p).map(|_| ()));
            }
        }
        Op::DropProp(a, b) => {
            if let Some(t) = pick_type(s, *a) {
                let ne: Vec<PropId> = s.essential_properties(t).unwrap().iter().copied().collect();
                if !ne.is_empty() {
                    let p = ne[*b as usize % ne.len()];
                    tolerate(s.drop_essential_property(t, p));
                }
            }
        }
        Op::DropType(a) => {
            if let Some(t) = pick_type(s, *a) {
                tolerate(s.drop_type(t).map(|_| ()));
            }
        }
        Op::DropPropertyEverywhere(a) => {
            if let Some(p) = pick_prop(s, *a) {
                tolerate(s.drop_property(p).map(|_| ()));
            }
        }
        Op::Rename(a) => {
            if let Some(t) = pick_type(s, *a) {
                *counter += 1;
                tolerate(s.rename_type(t, format!("renamed_{counter}")));
            }
        }
    }
}

fn build(config: LatticeConfig, engine: EngineKind, trace: &[Op]) -> Schema {
    let mut s = Schema::with_engine(config, engine);
    if config.is_rooted() {
        s.add_root_type("T_object").unwrap();
    }
    if config.is_pointed() {
        s.add_base_type("T_null").unwrap();
    }
    let mut counter = 0;
    for op in trace {
        apply(&mut s, op, &mut counter);
    }
    s
}

fn configs() -> impl Strategy<Value = LatticeConfig> {
    prop_oneof![
        Just(LatticeConfig::TIGUKAT),
        Just(LatticeConfig::ORION),
        Just(LatticeConfig::RELAXED),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorems 2.1 & 2.2: engine output equals the oracle specification on
    /// every reachable schema (soundness = ⊆, completeness = ⊇; we check
    /// equality).
    #[test]
    fn soundness_and_completeness(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let s = build(config, EngineKind::Incremental, &trace);
        prop_assert!(oracle::check_schema(&s).is_empty());
    }

    /// Naive (spec) and incremental (optimized) engines agree on every trace.
    #[test]
    fn engines_agree(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let a = build(config, EngineKind::Naive, &trace);
        let b = build(config, EngineKind::Incremental, &trace);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        let ids: Vec<TypeId> = a.iter_types().collect();
        prop_assert_eq!(&ids, &b.iter_types().collect::<Vec<_>>());
        for t in ids {
            prop_assert_eq!(a.derived(t).unwrap(), b.derived(t).unwrap());
        }
    }

    /// Every reachable schema satisfies all nine axioms.
    #[test]
    fn axioms_preserved(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let s = build(config, EngineKind::Incremental, &trace);
        let violations = s.verify();
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// §5: "In TIGUKAT, the ordering is irrelevant and the same lattice is
    /// produced no matter the order in which [edges] are dropped."
    #[test]
    fn edge_drops_are_order_independent(
        trace in proptest::collection::vec(op_strategy(), 0..40),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 2..5),
        perm_seed in any::<u64>(),
    ) {
        let base = build(LatticeConfig::ORION, EngineKind::Incremental, &trace);
        // Select distinct droppable edges (non-root) from the built schema.
        let root = base.root();
        let mut edges: Vec<(TypeId, TypeId)> = Vec::new();
        for (a, b) in picks {
            if let Some(t) = pick_type(&base, a) {
                let pe: Vec<TypeId> =
                    base.essential_supertypes(t).unwrap().iter().copied().collect();
                if pe.is_empty() { continue; }
                let sup = pe[b as usize % pe.len()];
                if Some(sup) != root && !edges.contains(&(t, sup)) {
                    edges.push((t, sup));
                }
            }
        }
        prop_assume!(edges.len() >= 2);

        let drop_all = |order: &[(TypeId, TypeId)]| {
            let mut s = base.clone();
            for &(t, sup) in order {
                // A drop may have become a no-op error if a prior drop
                // emptied P_e(t) and re-linking replaced it; tolerate that —
                // the *final* lattice equality is what the claim is about.
                match s.drop_essential_supertype(t, sup) {
                    Ok(())
                    | Err(SchemaError::NotAnEssentialSupertype { .. })
                    | Err(SchemaError::BaseEdgeDrop { .. }) => {}
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            s.fingerprint()
        };

        let forward = drop_all(&edges);
        let mut reversed = edges.clone();
        reversed.reverse();
        prop_assert_eq!(forward, drop_all(&reversed));
        // One pseudo-random permutation as well.
        let mut perm = edges.clone();
        let mut state = perm_seed | 1;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        prop_assert_eq!(forward, drop_all(&perm));
    }

    /// Snapshot round-trip preserves the observable schema.
    #[test]
    fn snapshot_roundtrip(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..50),
    ) {
        let s = build(config, EngineKind::Incremental, &trace);
        let r = Schema::from_snapshot(&s.to_snapshot()).unwrap();
        prop_assert_eq!(s.fingerprint(), r.fingerprint());
        prop_assert_eq!(s.type_count(), r.type_count());
        prop_assert!(r.verify().is_empty());
    }

    /// Rejected operations never mutate the schema (failure atomicity),
    /// probed by re-running each trace and attempting a forced failure after
    /// every step.
    #[test]
    fn rejections_leave_schema_unchanged(
        trace in proptest::collection::vec(op_strategy(), 0..30),
    ) {
        let mut s = Schema::with_engine(LatticeConfig::TIGUKAT, EngineKind::Incremental);
        s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let mut counter = 0;
        for op in &trace {
            apply(&mut s, op, &mut counter);
            let fp = s.fingerprint();
            let root = s.root().unwrap();
            let base = s.base().unwrap();
            // Forced rejections:
            prop_assert!(s.drop_type(root).is_err());
            prop_assert!(s.drop_type(base).is_err());
            prop_assert!(s.add_essential_supertype(root, root).is_err());
            let other = s.iter_types().find(|&t| t != root && t != base);
            if let Some(t) = other {
                let root_name = s.type_name(root).unwrap().to_string();
                prop_assert!(s.add_type(root_name, [t], []).is_err());
                // Cycle: root cannot become a subtype of t.
                prop_assert!(s.add_essential_supertype(root, t).is_err());
            }
            prop_assert_eq!(s.fingerprint(), fp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched evolution is observationally equivalent to op-by-op
    /// application: on both engines, running a whole trace inside
    /// `evolve_batch` (one deferred recomputation) produces a schema with a
    /// fingerprint identical to applying the same trace one operation at a
    /// time (one recomputation each). The operation guards read only
    /// designer inputs, so accept/reject decisions cannot diverge mid-batch.
    #[test]
    fn batched_trace_matches_op_by_op(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        for engine in [EngineKind::Naive, EngineKind::Incremental] {
            let single = build(config, engine, &trace);
            let mut batched = Schema::with_engine(config, engine);
            if config.is_rooted() {
                batched.add_root_type("T_object").unwrap();
            }
            if config.is_pointed() {
                batched.add_base_type("T_null").unwrap();
            }
            batched.reset_stats();
            batched
                .evolve_batch(|s| {
                    let mut counter = 0;
                    for op in &trace {
                        apply(s, op, &mut counter);
                    }
                    Ok(())
                })
                .unwrap();
            prop_assert_eq!(
                single.fingerprint(),
                batched.fingerprint(),
                "engine {:?}",
                engine
            );
            let st = batched.stats();
            prop_assert!(
                st.scoped_recomputes + st.full_recomputes + st.noop_recomputes <= 1,
                "one deferred recomputation at most: {st:?}"
            );
            prop_assert!(batched.verify().is_empty());
            prop_assert!(oracle::check_schema(&batched).is_empty());
        }
    }
}

/// History ops mirror schema ops; drive a `History` with the same kind of
/// randomized trace and check replay fidelity at every prefix.
mod history_props {
    use super::*;
    use axiombase_core::analysis::SymbolicState;
    use axiombase_core::History;
    use std::collections::BTreeSet;

    fn drive(h: &mut History, op: &Op, counter: &mut u32) {
        // A compact mirror of `apply` over the recorded API (subset: the
        // operations History exposes).
        let live: Vec<TypeId> = h.schema().iter_types().collect();
        let props: Vec<PropId> = h.schema().iter_props().collect();
        let pick_t = |ix: u8| live.get(ix as usize % live.len().max(1)).copied();
        let pick_p = |ix: u8| props.get(ix as usize % props.len().max(1)).copied();
        match op {
            Op::AddType { parents, props } => {
                let ps: Vec<TypeId> = parents.iter().filter_map(|&i| pick_t(i)).collect();
                let ns: Vec<PropId> = props.iter().filter_map(|&i| pick_p(i)).collect();
                *counter += 1;
                let _ = h.add_type(format!("h_{counter}"), ps, ns);
            }
            Op::NewProp => {
                *counter += 1;
                let _ = h.add_property(format!("hp_{counter}"));
            }
            Op::AddEdge(a, b) => {
                if let (Some(t), Some(s)) = (pick_t(*a), pick_t(*b)) {
                    let _ = h.add_essential_supertype(t, s);
                }
            }
            Op::DropEdge(a, b) => {
                if let Some(t) = pick_t(*a) {
                    let pe: Vec<TypeId> = h
                        .schema()
                        .essential_supertypes(t)
                        .unwrap()
                        .iter()
                        .copied()
                        .collect();
                    if !pe.is_empty() {
                        let s = pe[*b as usize % pe.len()];
                        let _ = h.drop_essential_supertype(t, s);
                    }
                }
            }
            Op::AddProp(a, b) => {
                if let (Some(t), Some(p)) = (pick_t(*a), pick_p(*b)) {
                    let _ = h.add_essential_property(t, p);
                }
            }
            Op::DropProp(a, b) => {
                if let Some(t) = pick_t(*a) {
                    let ne: Vec<PropId> = h
                        .schema()
                        .essential_properties(t)
                        .unwrap()
                        .iter()
                        .copied()
                        .collect();
                    if !ne.is_empty() {
                        let _ = h.drop_essential_property(t, ne[*b as usize % ne.len()]);
                    }
                }
            }
            Op::DropType(a) => {
                if let Some(t) = pick_t(*a) {
                    let _ = h.drop_type(t);
                }
            }
            Op::DropPropertyEverywhere(a) => {
                if let Some(p) = pick_p(*a) {
                    let _ = h.drop_property(p);
                }
            }
            Op::Rename(a) => {
                if let Some(t) = pick_t(*a) {
                    *counter += 1;
                    let _ = h.rename_type(t, format!("hr_{counter}"));
                }
            }
        }
    }

    /// The analysis shadow, read through its accessors, equals the live
    /// schema read through its public API: live types, names, `P_e` and
    /// `N_e` rows, the subtype index, and (when `holders` is set) the
    /// holders of every live property.
    fn shadow_agrees(sim: &SymbolicState, s: &Schema, holders: bool) {
        let live: Vec<usize> = (0..sim.type_slots()).filter(|&t| sim.is_live(t)).collect();
        assert_eq!(live, s.iter_types().map(TypeId::index).collect::<Vec<_>>());
        assert_eq!(sim.root(), s.root().map(TypeId::index));
        assert_eq!(sim.base(), s.base().map(TypeId::index));
        let ids = |set: BTreeSet<TypeId>| set.into_iter().map(TypeId::index).collect::<Vec<_>>();
        for t in s.iter_types() {
            let i = t.index();
            assert_eq!(sim.type_name(i), s.type_name(t).ok());
            assert_eq!(
                sim.supertypes(i).collect::<Vec<_>>(),
                ids(s.essential_supertypes(t).unwrap())
            );
            assert_eq!(
                sim.subtypes(i).collect::<Vec<_>>(),
                ids(s.essential_subtypes(t).unwrap())
            );
            let ne: Vec<usize> = s
                .essential_properties(t)
                .unwrap()
                .into_iter()
                .map(PropId::index)
                .collect();
            assert_eq!(sim.properties(i).collect::<Vec<_>>(), ne);
        }
        for p in s.iter_props() {
            assert_eq!(sim.prop_name(p.index()), s.prop_name(p).ok());
            if holders {
                let want: Vec<usize> = s
                    .iter_types()
                    .filter(|&t| s.essential_properties(t).unwrap().contains(&p))
                    .map(TypeId::index)
                    .collect();
                assert_eq!(sim.holders_of(p.index()).collect::<Vec<_>>(), want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A shadow captured mid-history and stepped through every op the
        /// history records afterwards agrees with the live schema after
        /// each op. With `eager` unset, the holders index is first built
        /// by whichever op or check needs it.
        #[test]
        fn symbolic_shadow_steps_like_the_schema(
            prefix in proptest::collection::vec(op_strategy(), 0..24),
            trace in proptest::collection::vec(op_strategy(), 0..40),
            eager in any::<bool>(),
        ) {
            let mut h = History::new(LatticeConfig::ORION);
            h.add_root_type("T_object").unwrap();
            let mut counter = 0;
            for op in &prefix {
                drive(&mut h, op, &mut counter);
            }
            let mut sim = SymbolicState::capture(h.schema());
            shadow_agrees(&sim, h.schema(), eager);
            let mut done = h.len();
            for op in &trace {
                drive(&mut h, op, &mut counter);
                for rec in &h.ops()[done..] {
                    sim.step(rec);
                }
                done = h.len();
                shadow_agrees(&sim, h.schema(), eager);
            }
            shadow_agrees(&sim, h.schema(), true);
        }

        #[test]
        fn replay_matches_live_at_every_prefix(
            trace in proptest::collection::vec(op_strategy(), 0..40),
        ) {
            let mut h = History::new(LatticeConfig::ORION);
            h.add_root_type("T_object").unwrap();
            let mut counter = 0;
            let mut checkpoints: Vec<(usize, u64)> = vec![(h.len(), h.schema().fingerprint())];
            for op in &trace {
                drive(&mut h, op, &mut counter);
                checkpoints.push((h.len(), h.schema().fingerprint()));
            }
            // Full replay equals the live schema.
            prop_assert_eq!(
                h.as_of(h.len()).unwrap().fingerprint(),
                h.schema().fingerprint()
            );
            // Every recorded checkpoint is reproducible.
            for (v, fp) in checkpoints {
                let replayed = h.as_of(v).unwrap();
                prop_assert_eq!(replayed.fingerprint(), fp, "version {}", v);
                prop_assert!(replayed.verify().is_empty());
            }
            // Undo to the midpoint, then verify the truncated history still
            // replays.
            let mid = h.len() / 2;
            let expect = h.as_of(mid).unwrap().fingerprint();
            h.undo_to(mid).unwrap();
            prop_assert_eq!(h.schema().fingerprint(), expect);
            prop_assert_eq!(h.as_of(h.len()).unwrap().fingerprint(), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Projection commutes with derivation: for any reachable schema and any
    /// seed set, every type kept by the projection has identical derived
    /// state, and the projection satisfies the axioms.
    #[test]
    fn projection_commutes_with_derivation(
        config in configs(),
        trace in proptest::collection::vec(op_strategy(), 0..40),
        seeds in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let s = build(config, EngineKind::Incremental, &trace);
        let live: Vec<TypeId> = s.iter_types().collect();
        prop_assume!(!live.is_empty());
        let chosen: Vec<TypeId> = seeds
            .iter()
            .map(|&i| live[i as usize % live.len()])
            .collect();
        let p = s.project(chosen.iter().copied()).unwrap();
        for t in p.iter_types() {
            prop_assert_eq!(s.derived(t).unwrap(), p.derived(t).unwrap());
        }
        prop_assert!(p.verify().is_empty());
        prop_assert!(oracle::check_schema(&p).is_empty());
        // The closure really is closed: every kept type's PL is kept.
        for t in p.iter_types() {
            for sup in p.super_lattice(t).unwrap() {
                prop_assert!(p.is_live(sup));
            }
        }
    }
}

/// Versions share storage in 64-slot spine leaves and 64 name shards; a
/// write to a new version must never show through an older one.
mod version_sharing {
    use super::*;
    use axiombase_core::history::History;
    use axiombase_core::{RecordedOp, SharedSchema};
    use axiombase_workload::{record_random_ops, LatticeGen, OpMix};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// splitmix64 of `(seed, salt)`: the test's own picks.
    fn mix(seed: u64, salt: u64) -> u64 {
        let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A trace from the seeded generator behind `generate_trace`, run in
    /// chunks on one recording history, with one extra op after each
    /// chunk: a rename, a drop followed by re-adding the same name (a new
    /// slot under the old name), or a freeze.
    fn trace(base: &Schema, seed: u64) -> Vec<RecordedOp> {
        let mut h = History::from_schema(base.clone());
        for chunk in 0..9u64 {
            record_random_ops(&mut h, 12, OpMix::BALANCED, mix(seed, chunk));
            let s = h.schema();
            let plain: Vec<TypeId> = s
                .iter_types()
                .filter(|&t| Some(t) != s.root() && Some(t) != s.base() && !s.is_frozen(t))
                .collect();
            if plain.is_empty() {
                continue;
            }
            let t = plain[(mix(seed, 100 + chunk) % plain.len() as u64) as usize];
            match chunk % 3 {
                0 => h.rename_type(t, format!("renamed_{chunk}")).unwrap(),
                1 => {
                    let name = s.type_name(t).unwrap().to_string();
                    let supers: Vec<TypeId> =
                        s.essential_supertypes(t).unwrap().into_iter().collect();
                    h.drop_type(t).unwrap();
                    h.add_type(name, supers, []).unwrap();
                }
                _ => h.freeze_type(t).unwrap(),
            }
        }
        h.ops().to_vec()
    }

    /// `type_by_name` for every name in `names`.
    fn probe(s: &Schema, names: &BTreeSet<String>) -> Vec<Option<TypeId>> {
        names.iter().map(|n| s.type_by_name(n)).collect()
    }

    /// A published version and what it showed when it was published.
    struct Kept {
        version: Arc<Schema>,
        text: String,
        fingerprint: u64,
        probed: Vec<Option<TypeId>>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Bases of 60–140 types, so the trace's adds cross the 64- and
        /// 128-slot leaf edges. Every `every`-th published version is kept
        /// with its snapshot text, fingerprint and name probes; after the
        /// whole trace each still shows exactly those, and the head equals
        /// an in-place replay on a uniquely owned schema.
        #[test]
        fn old_versions_never_see_a_later_write(
            config in configs(),
            types in 60usize..140,
            seed in any::<u64>(),
            every in 1usize..6,
        ) {
            let base = LatticeGen { types, seed, ..LatticeGen::default() }
                .generate(config, EngineKind::Incremental)
                .schema;
            let ops = trace(&base, seed);
            let mut names: BTreeSet<String> =
                base.iter_types().map(|t| base.type_name(t).unwrap().to_string()).collect();
            for op in &ops {
                if let RecordedOp::AddType { name, .. } | RecordedOp::RenameType { name, .. } = op {
                    names.insert(name.clone());
                }
            }
            // Both replays start from a parse of the base, so they share
            // nothing with it or with each other.
            let base_text = base.to_snapshot();
            let shared = SharedSchema::new(Schema::from_snapshot(&base_text).unwrap());
            let mut kept = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                shared.evolve(|s| op.apply(s)).unwrap();
                if i % every == 0 {
                    let version = shared.snapshot();
                    kept.push(Kept {
                        text: version.to_snapshot(),
                        fingerprint: version.fingerprint(),
                        probed: probe(&version, &names),
                        version,
                    });
                }
            }
            for k in &kept {
                prop_assert_eq!(&k.version.to_snapshot(), &k.text);
                prop_assert_eq!(k.version.fingerprint(), k.fingerprint);
                prop_assert_eq!(&probe(&k.version, &names), &k.probed);
            }
            let mut own = Schema::from_snapshot(&base_text).unwrap();
            for op in &ops {
                op.apply(&mut own).unwrap();
            }
            let head = shared.snapshot();
            prop_assert_eq!(head.to_snapshot(), own.to_snapshot());
            prop_assert_eq!(head.fingerprint(), own.fingerprint());
            prop_assert_eq!(head.version(), own.version());
        }
    }
}
