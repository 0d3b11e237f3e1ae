//! Reference sweep: `lint_trace`'s L5 and L6 findings against an
//! executing reference.
//!
//! L5 flags an adjacent pair of essential-supertype drops whose two orders
//! land on different schemas under Orion's OP4 relink; L6 flags add-then-
//! drop churn and drops of properties no `N_e` references. The reference
//! below answers both questions by execution:
//!
//! * an engine replay of the trace, one op at a time, from a clone of the
//!   initial schema;
//! * OP4 run through `add_essential_supertype`/`drop_essential_supertype`
//!   on two more clones per adjacent drop pair, compared by fingerprint;
//! * a property drop is a no-op when the fingerprint before and after it
//!   is the same.
//!
//! The sweep covers 3 lattice configurations (ORION, TIGUKAT, RELAXED) ×
//! 2 engines × 3 op mixes (`BALANCED`, `LATTICE_CHURN` and a drop-edge-heavy
//! mix) × 60 seeds = 1,080 traces, each 60 generated ops on a random
//! lattice of 12–40 types. `DropProperty` ops are spliced in at seeded
//! positions wherever the trace still replays: drops of held properties,
//! of properties no `N_e` references, and of freshly staged ones (with
//! and without a use in between). Per trace, the L5 and L6 findings
//! (rule, location, types, message) must equal the reference's, in
//! `lint_trace`'s order. Floors on the L5 and L6 counts per engine keep
//! both rules exercised.

use std::collections::HashMap;

use axiombase_core::{
    lint_trace, EngineKind, LatticeConfig, Location, PropId, RecordedOp, RuleId, Schema,
    SchemaError, TypeId,
};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds per (configuration, mix, engine): 60 × 3 × 3 × 2 = 1,080 traces.
const SEEDS: u64 = 60;

/// Generated ops per trace, before the splices.
const OPS: usize = 60;

/// Least L5 and L6 findings one engine's sweep must produce, about half
/// of what it reads (103 and 1,019).
const L5_FLOOR: usize = 50;
const L6_FLOOR: usize = 500;

/// A mix dominated by essential-supertype drops, so that adjacent drop
/// pairs (L5's subject) are common.
const DROP_EDGE_HEAVY: OpMix = OpMix {
    add_type: 2,
    drop_type: 1,
    add_edge: 3,
    drop_edge: 8,
    add_prop: 2,
    drop_prop: 1,
};

/// One finding as compared: rule, location, types and message.
type Finding = (RuleId, Location, Vec<TypeId>, String);

fn tn(schema: &Schema, t: TypeId) -> String {
    schema
        .type_name(t)
        .map_or_else(|_| format!("{t}"), str::to_owned)
}

fn pn(schema: &Schema, p: PropId) -> String {
    schema
        .prop_name(p)
        .map_or_else(|_| format!("{p}"), str::to_owned)
}

/// Apply one Orion OP4 drop to `schema` through the engine's edge ops.
/// Returns `false` when the op is inapplicable: edge absent, last edge
/// to the root, frozen subtype.
fn orion_op4(schema: &mut Schema, t: TypeId, s: TypeId) -> bool {
    if !schema.is_live(t) || !schema.is_live(s) {
        return false;
    }
    let pe = schema.essential_supertypes(t).expect("live type").clone();
    if !pe.contains(&s) {
        return false;
    }
    if pe.len() == 1 {
        if Some(s) == schema.root() {
            return false; // OP4 REJECT: last edge to OBJECT.
        }
        let parents: Vec<TypeId> = schema
            .essential_supertypes(s)
            .expect("live type")
            .iter()
            .copied()
            .collect();
        for parent in parents {
            match schema.add_essential_supertype(t, parent) {
                Ok(()) | Err(SchemaError::DuplicateSupertype { .. }) => {}
                Err(_) => return false,
            }
        }
    }
    schema.drop_essential_supertype(t, s).is_ok()
}

/// Run a sequence of OP4 drops from `base`; `None` if any is inapplicable.
fn orion_sim(base: &Schema, drops: &[(TypeId, TypeId)]) -> Option<u64> {
    let mut schema = base.clone();
    for &(t, s) in drops {
        if !orion_op4(&mut schema, t, s) {
            return None;
        }
    }
    Some(schema.fingerprint())
}

/// L5 by execution: each adjacent drop pair, OP4 in both orders from the
/// replayed state before the pair.
fn order_dependence_hazard(initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Finding>) {
    let mut schema = initial.clone();
    for (i, op) in ops.iter().enumerate() {
        if let (
            RecordedOp::DropEssentialSupertype { t: t1, s: s1 },
            Some(RecordedOp::DropEssentialSupertype { t: t2, s: s2 }),
        ) = (op, ops.get(i + 1))
        {
            let ab = orion_sim(&schema, &[(*t1, *s1), (*t2, *s2)]);
            let ba = orion_sim(&schema, &[(*t2, *s2), (*t1, *s1)]);
            if let (Some(fa), Some(fb)) = (ab, ba) {
                if fa != fb {
                    let mut types = vec![*t1, *s1, *t2, *s2];
                    types.dedup();
                    out.push((
                        RuleId::OrderDependenceHazard,
                        Location::OpRange(i, i + 1),
                        types,
                        format!(
                            "ops {}-{} (drop {} from P_e({}); drop {} from P_e({})) \
                             give different schemas under Orion OP4 semantics \
                             depending on their order; the axiomatic result is \
                             order-independent",
                            i + 1,
                            i + 2,
                            tn(&schema, *s1),
                            tn(&schema, *t1),
                            tn(&schema, *s2),
                            tn(&schema, *t2),
                        ),
                    ));
                }
            }
        }
        if op.apply(&mut schema).is_err() {
            return;
        }
    }
}

/// One L6 finding.
fn churn(location: Location, message: String) -> Finding {
    (RuleId::ChurnNoOp, location, Vec::new(), message)
}

/// L6 by execution: created ids from the replay, no-op drops by
/// fingerprint.
fn churn_no_op(initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Finding>) {
    let mut schema = initial.clone();
    let mut created_types: HashMap<TypeId, usize> = HashMap::new();
    let mut created_props: HashMap<PropId, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            RecordedOp::AddProperty { name } => {
                let p = schema.add_property(name.clone());
                created_props.insert(p, i);
                continue;
            }
            RecordedOp::AddType {
                name,
                supers,
                props,
            } => {
                match schema.add_type(name.clone(), supers.iter().copied(), props.iter().copied()) {
                    Ok(t) => {
                        created_types.insert(t, i);
                    }
                    Err(_) => return,
                }
                continue;
            }
            RecordedOp::DropType { t } => {
                if let Some(&j) = created_types.get(t) {
                    let uses = |o: &RecordedOp| {
                        !matches!(o, RecordedOp::DropType { .. }) && o.mentions_type(*t)
                    };
                    if !ops[j + 1..i].iter().any(uses) {
                        out.push(churn(
                            Location::OpRange(j, i),
                            format!(
                                "type {} is added at op {} and dropped at op {} \
                                 with no intervening use",
                                tn(&schema, *t),
                                j + 1,
                                i + 1
                            ),
                        ));
                    }
                }
            }
            RecordedOp::DropProperty { p } => {
                let name = pn(&schema, *p);
                if let Some(&j) = created_props.get(p) {
                    let uses = |o: &RecordedOp| {
                        !matches!(o, RecordedOp::DropProperty { .. }) && o.mentions_prop(*p)
                    };
                    if !ops[j + 1..i].iter().any(uses) {
                        out.push(churn(
                            Location::OpRange(j, i),
                            format!(
                                "property `{name}` is added at op {} and dropped \
                                 at op {} with no intervening use",
                                j + 1,
                                i + 1
                            ),
                        ));
                        if op.apply(&mut schema).is_err() {
                            return;
                        }
                        continue;
                    }
                }
                let before = schema.fingerprint();
                if op.apply(&mut schema).is_err() {
                    return;
                }
                if schema.fingerprint() == before {
                    out.push(churn(
                        Location::Op(i),
                        format!(
                            "op {}: drops property `{name}`, which no N_e \
                             references — the schema is unchanged",
                            i + 1
                        ),
                    ));
                }
                continue;
            }
            _ => {}
        }
        if op.apply(&mut schema).is_err() {
            return;
        }
    }
}

/// The first op a finding anchors at.
fn start(location: Location) -> usize {
    match location {
        Location::Op(i) | Location::OpRange(i, _) => i,
        other => panic!("a trace finding anchored at {other:?}"),
    }
}

/// The reference's L5 and L6 findings, in `lint_trace`'s order (by first
/// op, then rule code; stable).
fn reference(initial: &Schema, ops: &[RecordedOp]) -> Vec<Finding> {
    let mut out = Vec::new();
    order_dependence_hazard(initial, ops, &mut out);
    churn_no_op(initial, ops, &mut out);
    out.sort_by_key(|f| (start(f.1), f.0.code()));
    out
}

/// `lint_trace`'s L5 and L6 findings, in its order.
fn linted(initial: &Schema, ops: &[RecordedOp]) -> Vec<Finding> {
    lint_trace(initial, ops)
        .into_iter()
        .filter(|d| matches!(d.rule, RuleId::OrderDependenceHazard | RuleId::ChurnNoOp))
        .map(|d| (d.rule, d.location, d.types, d.message))
        .collect()
}

/// Does `ops` replay onto `base` without a rejection?
fn replays(base: &Schema, ops: &[RecordedOp]) -> bool {
    let mut s = base.clone();
    ops.iter().all(|op| op.apply(&mut s).is_ok())
}

/// A block of ops that ends in a `DropProperty`, recorded against `s`:
/// the drop of a held property, of a property no `N_e` references, or
/// of a freshly staged one (right away, after a use that leaves it held,
/// or after a use that is undone). `None` when `s` has nothing to drop.
fn drop_block(s: &Schema, rng: &mut SmallRng, name: String) -> Option<Vec<RecordedOp>> {
    let types: Vec<TypeId> = s.iter_types().collect();
    let held: Vec<(TypeId, PropId)> = types
        .iter()
        .flat_map(|&t| {
            let ne = s.essential_properties(t).expect("live");
            ne.into_iter().map(move |p| (t, p))
        })
        .collect();
    match rng.gen_range(0..5) {
        0 if !held.is_empty() => {
            let (_, p) = held[rng.gen_range(0..held.len())];
            Some(vec![RecordedOp::DropProperty { p }])
        }
        1 => {
            let unheld: Vec<PropId> = s
                .iter_props()
                .filter(|p| held.iter().all(|(_, q)| q != p))
                .collect();
            let p = *unheld.get(rng.gen_range(0..unheld.len().max(1)))?;
            Some(vec![RecordedOp::DropProperty { p }])
        }
        k => {
            let p = s.clone().add_property(name.clone());
            let mut block = vec![RecordedOp::AddProperty { name }];
            if k >= 3 && !types.is_empty() {
                let t = types[rng.gen_range(0..types.len())];
                block.push(RecordedOp::AddEssentialProperty { t, p });
                if k == 4 {
                    block.push(RecordedOp::DropEssentialProperty { t, p });
                }
            }
            block.push(RecordedOp::DropProperty { p });
            Some(block)
        }
    }
}

/// One trace: `OPS` generated ops on a 12–40-type lattice, with up to
/// four [`drop_block`]s spliced in at seeded cuts where the trace still
/// replays, or else appended.
fn trace(
    engine: EngineKind,
    config: LatticeConfig,
    mix: OpMix,
    seed: u64,
) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 12 + (seed % 29) as usize,
        max_parents: 3,
        props_per_type: 1.0,
        redeclare_prob: 0.2,
        seed: seed ^ 0x15e5,
    };
    let base = gen.generate(config, engine).schema;
    let (mut ops, _) = generate_trace(&base, OPS, mix, seed ^ 0x7ace);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd20b);
    for k in 0..rng.gen_range(1..=4) {
        let cut = rng.gen_range(0..=ops.len());
        let mut s = base.clone();
        for op in &ops[..cut] {
            op.apply(&mut s).expect("a recorded prefix replays");
        }
        let name = format!("staged{seed:x}_{k}");
        let Some(block) = drop_block(&s, &mut rng, name) else {
            continue;
        };
        let mut spliced = ops[..cut].to_vec();
        spliced.extend(block);
        spliced.extend_from_slice(&ops[cut..]);
        if replays(&base, &spliced) {
            ops = spliced;
            continue;
        }
        for op in &ops[cut..] {
            op.apply(&mut s).expect("a recorded trace replays");
        }
        let name = format!("staged{seed:x}_{k}_end");
        if let Some(block) = drop_block(&s, &mut rng, name) {
            ops.extend(block);
        }
    }
    assert!(replays(&base, &ops), "seed {seed}: the trace must replay");
    (base, ops)
}

fn sweep(engine: EngineKind) {
    let mixes = [
        ("balanced", OpMix::BALANCED),
        ("lattice-churn", OpMix::LATTICE_CHURN),
        ("drop-edge-heavy", DROP_EDGE_HEAVY),
    ];
    let (mut l5, mut l6, mut traces) = (0, 0, 0);
    for config in [
        LatticeConfig::ORION,
        LatticeConfig::TIGUKAT,
        LatticeConfig::RELAXED,
    ] {
        for (mix_name, mix) in mixes {
            for seed in 0..SEEDS {
                let (base, ops) = trace(engine, config, mix, seed);
                let want = reference(&base, &ops);
                let got = linted(&base, &ops);
                assert_eq!(
                    got, want,
                    "{engine:?} {config:?} {mix_name} seed {seed}: lint_trace's L5/L6 \
                     findings differ from the executing reference"
                );
                l5 += want
                    .iter()
                    .filter(|f| f.0 == RuleId::OrderDependenceHazard)
                    .count();
                l6 += want.iter().filter(|f| f.0 == RuleId::ChurnNoOp).count();
                traces += 1;
            }
        }
    }
    println!("({engine:?}) {traces} traces: {l5} L5 and {l6} L6 findings");
    assert!(
        l5 >= L5_FLOOR,
        "({engine:?}) only {l5} L5 findings (floor {L5_FLOOR})"
    );
    assert!(
        l6 >= L6_FLOOR,
        "({engine:?}) only {l6} L6 findings (floor {L6_FLOOR})"
    );
}

#[test]
fn l5_and_l6_match_the_executing_reference_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn l5_and_l6_match_the_executing_reference_incremental_engine() {
    sweep(EngineKind::Incremental);
}
