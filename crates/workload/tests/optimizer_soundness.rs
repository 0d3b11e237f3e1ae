//! Property test: `optimize_trace` is sound — deleting the ops it flags,
//! which lint L7 reports as dead, leaves the final schema unchanged.
//!
//! Two engines × three lattice configurations (ORION, TIGUKAT, RELAXED) ×
//! 200 seeds = 1,200 traces. Each base is a small random lattice, so a
//! generated trace keeps landing on the same `P_e` rows and `N_e` cells.
//! The trace generator emits only AT, DT, MT-ASR, MT-DSR, MT-AB and MT-DB,
//! so every trace also gets ops it never emits — no-op renames,
//! superseded renames, double freezes and idempotent re-adds — spliced in
//! at a seeded position where the trace still replays, or else appended.
//!
//! Per trace:
//!
//! 1. the optimized trace replays to the original's canonical fingerprint
//!    (`history::traces_equivalent`);
//! 2. every kept op equals the original op at its position, and the kept
//!    and removed positions partition the trace;
//! 3. no allocating op (PT, AT, RT-add, BT-add) is removed.
//!
//! A floor per [`RewriteKind`] keeps every rewrite exercised.

use std::collections::BTreeMap;

use axiombase_core::analysis::{optimize_trace, RewriteKind};
use axiombase_core::{traces_equivalent, EngineKind, LatticeConfig, RecordedOp, Schema};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds per engine and configuration; 200 × 3 × 2 engines = 1,200 traces.
const SEEDS: u64 = 200;

/// Every kind the optimizer reports, with the least number of rewrites of
/// that kind one engine's sweep must produce.
const FLOORS: [(RewriteKind, usize); 6] = [
    (RewriteKind::CancellingEdgePair, 20),
    (RewriteKind::CancellingPropPair, 200),
    (RewriteKind::IdempotentReAdd, 100),
    (RewriteKind::NoOpRename, 100),
    (RewriteKind::SupersededRename, 100),
    (RewriteKind::DoubleFreeze, 100),
];

/// Apply `op` to `s`; keep it in `ops` only if the schema accepts it.
fn push_if_applies(s: &mut Schema, ops: &mut Vec<RecordedOp>, op: RecordedOp) {
    if op.apply(s).is_ok() {
        ops.push(op);
    }
}

/// Up to five ops the generator never emits, recorded against `s` (which
/// they step): no-op and superseded renames of a type or a property, a
/// double freeze, and a re-declaration of an essential property. A schema
/// with no live type gets none.
fn extras(s: &mut Schema, rng: &mut SmallRng, seed: u64) -> Vec<RecordedOp> {
    let mut ops = Vec::new();
    for k in 0..rng.gen_range(2..=5) {
        let types: Vec<_> = s.iter_types().collect();
        let props: Vec<_> = s.iter_props().collect();
        if types.is_empty() {
            break;
        }
        let t = types[rng.gen_range(0..types.len())];
        let p = (!props.is_empty()).then(|| props[rng.gen_range(0..props.len())]);
        match (rng.gen_range(0..6), p) {
            (0, _) => {
                let name = s.type_name(t).expect("live").to_owned();
                push_if_applies(s, &mut ops, RecordedOp::RenameType { t, name });
            }
            (1, Some(p)) => {
                let name = s.prop_name(p).expect("live").to_owned();
                push_if_applies(s, &mut ops, RecordedOp::RenameProperty { p, name });
            }
            (2, _) => {
                for step in ["draft", "final"] {
                    let name = format!("r{seed:x}_{k}_{step}");
                    push_if_applies(s, &mut ops, RecordedOp::RenameType { t, name });
                }
            }
            (3, Some(p)) => {
                for step in ["draft", "final"] {
                    let name = format!("q{seed:x}_{k}_{step}");
                    push_if_applies(s, &mut ops, RecordedOp::RenameProperty { p, name });
                }
            }
            (4, _) => {
                for _ in 0..2 {
                    push_if_applies(s, &mut ops, RecordedOp::FreezeType { t });
                }
            }
            _ => {
                let held = types
                    .iter()
                    .flat_map(|&t| {
                        let ne = s.essential_properties(t).expect("live");
                        ne.into_iter().map(move |p| (t, p))
                    })
                    .collect::<Vec<_>>();
                if !held.is_empty() {
                    let (t, p) = held[rng.gen_range(0..held.len())];
                    push_if_applies(s, &mut ops, RecordedOp::AddEssentialProperty { t, p });
                }
            }
        }
    }
    ops
}

/// Does `ops` replay onto `base` without a rejection?
fn replays(base: &Schema, ops: &[RecordedOp]) -> bool {
    let mut s = base.clone();
    ops.iter().all(|op| op.apply(&mut s).is_ok())
}

/// One trace: a generated mix on a small lattice with [`extras`] spliced
/// in at a seeded cut, or appended when the spliced trace does not replay
/// (a freeze or a rename can refuse a later generated op).
fn trace(engine: EngineKind, config: LatticeConfig, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 6,
        max_parents: 2,
        props_per_type: 1.0,
        redeclare_prob: 0.2,
        seed,
    };
    let base = gen.generate(config, engine).schema;
    let mix = match seed % 3 {
        0 => OpMix::BALANCED,
        1 => OpMix::PROPERTY_CHURN,
        _ => OpMix::LATTICE_CHURN,
    };
    let (ops, _) = generate_trace(&base, 20, mix, seed ^ 0x0971);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5911ce);
    let cut = rng.gen_range(0..=ops.len());
    let mut s = base.clone();
    for op in &ops[..cut] {
        op.apply(&mut s).expect("a recorded prefix replays");
    }
    let mut spliced = ops[..cut].to_vec();
    spliced.extend(extras(&mut s, &mut rng, seed));
    spliced.extend_from_slice(&ops[cut..]);
    if replays(&base, &spliced) {
        return (base, spliced);
    }
    let mut s = base.clone();
    for op in &ops {
        op.apply(&mut s).expect("a recorded trace replays");
    }
    let mut appended = ops.clone();
    appended.extend(extras(&mut s, &mut rng, seed));
    (base, appended)
}

fn allocates(op: &RecordedOp) -> bool {
    matches!(
        op,
        RecordedOp::AddProperty { .. }
            | RecordedOp::AddRootType { .. }
            | RecordedOp::AddBaseType { .. }
            | RecordedOp::AddType { .. }
    )
}

/// Optimize one trace and check claims 1–3; returns the rewrites' kinds.
fn check_trace(base: &Schema, ops: &[RecordedOp], tag: &str) -> Vec<RewriteKind> {
    let optimized = optimize_trace(base, ops);
    assert!(
        traces_equivalent(base, ops, &optimized.ops),
        "{tag}: the optimized trace diverges from the original: {:?}",
        optimized.rewrites
    );
    assert_eq!(optimized.ops.len(), optimized.kept.len(), "{tag}");
    for (op, &k) in optimized.ops.iter().zip(&optimized.kept) {
        assert_eq!(op, &ops[k], "{tag}: kept op {} was altered", k + 1);
    }
    let mut positions = optimized.kept.clone();
    for rewrite in &optimized.rewrites {
        for &r in &rewrite.removed {
            assert!(
                !allocates(&ops[r]),
                "{tag}: {} removed allocating op {}",
                rewrite.kind.tag(),
                r + 1
            );
        }
        positions.extend(&rewrite.removed);
    }
    positions.sort_unstable();
    assert_eq!(
        positions,
        (0..ops.len()).collect::<Vec<_>>(),
        "{tag}: kept and removed positions do not partition the trace"
    );
    optimized.rewrites.iter().map(|r| r.kind).collect()
}

fn sweep(engine: EngineKind) {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut traces = 0usize;
    for config in [
        LatticeConfig::ORION,
        LatticeConfig::TIGUKAT,
        LatticeConfig::RELAXED,
    ] {
        for seed in 0..SEEDS {
            let (base, ops) = trace(engine, config, seed);
            let tag = format!("{engine:?} {config:?} seed {seed}");
            for kind in check_trace(&base, &ops, &tag) {
                *counts.entry(kind.tag()).or_default() += 1;
            }
            traces += 1;
        }
    }
    println!("({engine:?}) {traces} traces, rewrites by kind: {counts:?}");
    for (kind, floor) in FLOORS {
        let got = counts.get(kind.tag()).copied().unwrap_or(0);
        assert!(
            got >= floor,
            "({engine:?}) only {got} {} rewrites (floor {floor}) — kind under-exercised",
            kind.tag()
        );
    }
}

#[test]
fn optimizer_rewrites_are_sound_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn optimizer_rewrites_are_sound_incremental_engine() {
    sweep(EngineKind::Incremental);
}
