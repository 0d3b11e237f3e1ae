//! Identity sweep: `generate_trace` returns exactly the ops and the
//! [`TraceStats`] that `record_random_ops` records op by op into a
//! [`History`] started from the same base.
//!
//! `record_random_ops` is the reference: every op runs through the
//! history's recorded mutations, each derived after it. The generator may
//! take any route to its trace, but its picks and verdicts must be the
//! reference's, op for op.
//!
//! Cases:
//!
//! - **small** — four op mixes (`BALANCED`, `PROPERTY_CHURN`,
//!   `LATTICE_CHURN`, and the benchmark's size-neutral mix copied below)
//!   × the ORION and TIGUKAT configurations × both engines × 63 seeds =
//!   1,008 runs of 120 attempts on 30-type random lattices;
//! - **benchmark-shaped** — the benchmark's 1,000-type ORION base at 300
//!   and 3,375 attempts (one migration's and one journal's draw), 20
//!   chained 200-op migrations (each generated on the schema the previous
//!   one produced), and one 100,000-attempt run (the `online` writer's
//!   draw).
//!
//! Every case whose mix draws an edge op or a type drop must see some
//! ops rejected. `PROPERTY_CHURN` draws only type adds and property adds
//! and drops, none of which the paper's rules ever reject, so its cases
//! are held to having applied some ops instead.

use axiombase_core::{EngineKind, History, LatticeConfig, Schema};
use axiombase_workload::{generate_trace, record_random_ops, LatticeGen, OpMix, TraceStats};

/// The benchmark's size-neutral mix (`perfbench/src/common.rs`, `MIX`).
const SIZE_NEUTRAL: OpMix = OpMix {
    add_type: 2,
    drop_type: 2,
    add_edge: 2,
    drop_edge: 2,
    add_prop: 3,
    drop_prop: 3,
};

const MIXES: [(&str, OpMix); 4] = [
    ("balanced", OpMix::BALANCED),
    ("property-churn", OpMix::PROPERTY_CHURN),
    ("lattice-churn", OpMix::LATTICE_CHURN),
    ("size-neutral", SIZE_NEUTRAL),
];

/// Seeds per mix, configuration and engine: 63 × 4 × 2 × 2 = 1,008.
const SEEDS: u64 = 63;

/// Attempts per small case.
const SMALL_ATTEMPTS: usize = 120;

/// Ops per benchmark-shaped migration.
const MIGRATION_OPS: usize = 200;

/// Assert that `generate_trace` matches the op-by-op reference on `base`,
/// and return the reference's ops and stats.
fn same_as_reference(
    label: &str,
    base: &Schema,
    n: usize,
    mix: OpMix,
    seed: u64,
) -> (Vec<axiombase_core::RecordedOp>, TraceStats) {
    let mut h = History::from_schema(base.clone());
    let want = record_random_ops(&mut h, n, mix, seed);
    let (ops, stats) = generate_trace(base, n, mix, seed);
    assert_eq!(stats, want, "{label}: stats differ");
    assert_eq!(ops.len(), h.ops().len(), "{label}: op counts differ");
    if let Some(i) = ops.iter().zip(h.ops()).position(|(a, b)| a != b) {
        panic!(
            "{label}: op {i} differs: generated {:?}, reference {:?}",
            ops[i],
            h.ops()[i]
        );
    }
    (ops, stats)
}

/// Does `mix` draw an op kind that a rule can reject?
fn can_reject(mix: OpMix) -> bool {
    mix.drop_type + mix.add_edge + mix.drop_edge > 0
}

fn check_outcome(label: &str, mix: OpMix, stats: TraceStats) {
    if can_reject(mix) {
        assert!(stats.rejected > 0, "{label}: no op was rejected: {stats:?}");
    } else {
        assert!(stats.applied > 0, "{label}: no op applied: {stats:?}");
    }
}

#[test]
fn small_cases_match_the_reference() {
    let mut cases = 0usize;
    for (name, mix) in MIXES {
        for config in [LatticeConfig::ORION, LatticeConfig::TIGUKAT] {
            for engine in [EngineKind::Naive, EngineKind::Incremental] {
                for seed in 0..SEEDS {
                    let base = LatticeGen {
                        types: 30,
                        seed: seed ^ 0x1D3A,
                        ..Default::default()
                    }
                    .generate(config, engine)
                    .schema;
                    let label = format!("{name} {config:?} {engine:?} seed {seed}");
                    let (_, stats) =
                        same_as_reference(&label, &base, SMALL_ATTEMPTS, mix, seed ^ 0x9E37);
                    check_outcome(&label, mix, stats);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 1_008);
}

/// The benchmark's base: 1,000 types under ORION, incremental engine.
fn thousand() -> Schema {
    LatticeGen {
        types: 1000,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: 0x5EED_0001,
    }
    .generate(LatticeConfig::ORION, EngineKind::Incremental)
    .schema
}

#[test]
fn benchmark_shaped_draws_match_the_reference() {
    let base = thousand();
    for (attempts, seed) in [(300, 11), (3_375, 12)] {
        let label = format!("1,000 types, {attempts} attempts");
        let (_, stats) = same_as_reference(&label, &base, attempts, SIZE_NEUTRAL, seed);
        check_outcome(&label, SIZE_NEUTRAL, stats);
    }
}

#[test]
fn chained_migrations_match_the_reference() {
    // As the `migrate` workload builds its inputs: each migration is the
    // first 200 ops of a trace generated on the previous one's result.
    let mut cur = thousand();
    for k in 0..20u64 {
        let mut attempts = MIGRATION_OPS * 3 / 2;
        let ops = loop {
            let label = format!("migration {k}, {attempts} attempts");
            let (ops, stats) = same_as_reference(&label, &cur, attempts, SIZE_NEUTRAL, 100 + k);
            check_outcome(&label, SIZE_NEUTRAL, stats);
            if ops.len() >= MIGRATION_OPS {
                break ops[..MIGRATION_OPS].to_vec();
            }
            attempts *= 2;
        };
        cur.apply_trace(&ops)
            .expect("a generated migration replays");
    }
}

#[test]
fn a_long_draw_matches_the_reference() {
    let label = "1,000 types, 100,000 attempts";
    let (_, stats) = same_as_reference(label, &thousand(), 100_000, SIZE_NEUTRAL, 21);
    check_outcome(label, SIZE_NEUTRAL, stats);
}
