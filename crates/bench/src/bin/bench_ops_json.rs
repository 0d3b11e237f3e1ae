//! Machine-readable smoke benchmark for the batch-evolution API: per-op
//! latency of a balanced 200-op trace on a 1000-type lattice, replayed
//! op-by-op (one recomputation per mutation) versus inside one
//! `evolve_batch` (one shared recomputation), on both engines.
//!
//! Emits `BENCH_ops.json` (path overridable via the first CLI argument) in
//! a stable committed format, and fails loudly if the headline claim does
//! not hold: batched replay on the incremental engine must be at least 5x
//! faster than op-by-op replay on the naive engine.
//!
//! The `analysis` block records what the static analyzer certifies on a
//! 64-op drop-only trace (order-independent, one independence class per
//! drop) and on a worst-case 256-op toggle trace (one class).
//!
//! The `plan` block prices certified plans, the one certified execution
//! path: `build_plan` once (compile-time, outside the timer — a
//! certificate is compiled once and executed on many replicas), then
//! `Schema::apply_plan`, which re-checks the certificate on every run and
//! executes the classes in stage order as one batch. Gate: planned apply
//! stays within 10% of batched on the single-class toggle trace (hard;
//! the certificate may cost analysis, not execution). The wide diamond
//! trace (one slot-disjoint class per drop) is recorded with its
//! planned-vs-batched ratio and no bound: its gap is the independent
//! `plan::check`, which a sequential certificate skips.
//!
//! The `impact` block prices the *static* instance-impact analysis
//! (`analysis::impact`): classifying a 1000-op migration versus just
//! applying the same trace in one `evolve_batch`. The analyzer never
//! touches an object store; the soft target is per-op analysis within
//! 1.5x of the batched apply it predicts (WARN above that), with a hard
//! ceiling of [`IMPACT_HARD_CEILING`]x — the certificate carries ~15
//! per-type deltas per op, so some constant factor over a bare apply is
//! the price of the evidence.
//!
//! The `migration` block prices the static analysis a 200-op migration
//! pays before it commits: `analyze_trace`, `plan::check` of the plan
//! built from it, `impact::analyze` and `impact::check`, each against one
//! batched apply of the same trace (perfbench's size-neutral mix on the
//! 1,000-type base), as a paired median of ratios. `analyze_trace` and
//! `plan::check` carry a hard ceiling of [`MIGRATION_CEILING`]x; the two
//! impact ratios are recorded without a bound.
//!
//! The `versions` block prices a published schema version: a 1,100-op
//! size-neutral trace runs through `SharedSchema::evolve` (clone, edit,
//! publish, release of the old version, per op) and through
//! `RecordedOp::apply` on a uniquely owned schema, on the 1,000-type and
//! the 10,000-type base, as a paired median of ratios. Hard ceilings:
//! [`VERSIONS_CEILING_1K`]x at 1,000 types and [`VERSIONS_CEILING_10K`]x at
//! 10,000; the soft target at 1,000 types is [`VERSIONS_TARGET_1K`]x. There
//! is deliberately no gate tying staging at 10,000 types to staging at
//! 1,000: in-place apply itself grows ~23x between those sizes (down-sets
//! grow with the lattice), and an edit's derived writes, which staging
//! copies leaf by leaf, grow with it. Staging scales with what changes,
//! not with the schema's size, and the two ratios gate exactly that.
//!
//! Run: `cargo run --release -p axiombase-bench --bin bench_ops_json`

use axiombase_bench::expect;
use axiombase_core::analysis::{impact, plan};
use axiombase_core::journal::io::MemIo;
use axiombase_core::obs::names;
use axiombase_core::{
    analyze_trace, build_plan, EngineKind, EvolutionPlan, EvolveObs, JournalOptions,
    JournaledSchema, LatticeConfig, MetricsRegistry, MetricsSnapshot, PlanApply, RecordedOp,
    Schema, SharedSchema,
};
use axiombase_workload::{
    apply_random_ops, apply_random_ops_batched, generate_trace, LatticeGen, OpMix,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const TYPES: usize = 1000;
const OPS: usize = 200;

/// Attempted ops for the static impact-analysis cell (guard-rejected
/// attempts are not recorded): long enough that per-op folding (net
/// deltas, obligation joins) dominates setup.
const IMPACT_OPS: usize = 1000;

/// Hard ceiling for analyze-vs-batched-apply (the 1.5x soft target
/// prints a WARN instead of failing). The analyzer emits a full delta
/// certificate (~17k per-type slot deltas on the balanced trace) where
/// the apply just mutates in place, so parity is not expected; the
/// incremental interface-row rewrite holds the measured ratio near 10x,
/// and 32x is the regression tripwire (the pre-rewrite analyzer sat at
/// ~1000x).
const IMPACT_HARD_CEILING: f64 = 32.0;
/// Ops per migration in the `migration` cell (perfbench's migration size).
const MIGRATION_OPS: usize = 200;

/// perfbench's size-neutral op mix: type and edge adds balance their
/// drops, so the base keeps its size across migrations and traces.
const SIZE_NEUTRAL_MIX: OpMix = OpMix {
    add_type: 2,
    drop_type: 2,
    add_edge: 2,
    drop_edge: 2,
    add_prop: 3,
    drop_prop: 3,
};

/// Hard ceiling for `analyze_trace` and `plan::check` against batched
/// apply on the 200-op migration. Each pass captures the schema once
/// and tests the union graph for cycles in O(initial + written edges);
/// the quadratic rescan it replaced read ~18x here.
const MIGRATION_CEILING: f64 = 8.0;
/// Ops per trace in the `versions` cell.
const VERSIONS_OPS: usize = 1_100;
/// Hard ceiling for `SharedSchema::evolve` against in-place apply at
/// 1,000 types. Flat per-slot `Arc` spines, copied whole on every clone,
/// read ~5.4x here.
const VERSIONS_CEILING_1K: f64 = 2.5;
/// Soft target for the same ratio at 1,000 types.
const VERSIONS_TARGET_1K: f64 = 2.0;
/// Hard ceiling for the same ratio at 10,000 types (flat spines: ~3.1x).
const VERSIONS_CEILING_10K: f64 = 2.0;
const TRACE_SEED: u64 = 0xBA7C;
const ITERATIONS: usize = 5;

/// Committed incremental/batched ns/op at 1000 types *before* the dense
/// bitset lattice kernel (`core::bits`) — the baseline the `bits` BENCH
/// cell gates its >=5x improvement against.
const PRE_KERNEL_BATCHED_INCR_NS: u128 = 42_175;

fn base(engine: EngineKind) -> Schema {
    LatticeGen {
        types: TYPES,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: 42,
    }
    .generate(LatticeConfig::ORION, engine)
    .schema
}

/// Best-of-N wall-clock for one (engine, mode) cell; returns ns/op plus the
/// final fingerprint so all four cells can be cross-checked for agreement.
fn measure(engine: EngineKind, batched: bool) -> (u128, u64) {
    let template = base(engine);
    // Untimed warmup replay: the first clone's mutations pay one-time
    // copy-on-write and cache-fill costs that belong to neither cell.
    {
        let mut s = template.clone();
        apply_random_ops(&mut s, OPS, OpMix::BALANCED, TRACE_SEED);
    }
    let mut best = u128::MAX;
    let mut fp = 0;
    for _ in 0..ITERATIONS {
        let mut s = template.clone();
        let start = Instant::now();
        if batched {
            apply_random_ops_batched(&mut s, OPS, OpMix::BALANCED, TRACE_SEED);
        } else {
            apply_random_ops(&mut s, OPS, OpMix::BALANCED, TRACE_SEED);
        }
        best = best.min(start.elapsed().as_nanos() / OPS as u128);
        fp = s.fingerprint();
    }
    (best, fp)
}

/// One replay of `ops` through a bare [`SharedSchema`] (copy-on-write
/// publish, no durability): per-op ns plus the final fingerprint.
fn run_unjournaled(base: &Schema, ops: &[RecordedOp]) -> (u128, u64) {
    let shared = SharedSchema::new(base.clone());
    let start = Instant::now();
    for op in ops {
        shared
            .evolve(|s| s.apply_trace(std::slice::from_ref(op)))
            .expect("trace replays");
    }
    let ns = start.elapsed().as_nanos() / ops.len() as u128;
    (ns, shared.snapshot().fingerprint())
}

/// Same replay through a [`JournaledSchema`] on in-memory I/O: each op pays
/// frame encoding, a checksummed append, an fsync, and the periodic
/// checkpoint, isolating the journaling overhead from disk speed.
fn run_journaled(base: &Schema, ops: &[RecordedOp]) -> (u128, u64) {
    let mem = Arc::new(MemIo::new());
    let dir = std::path::Path::new("/bench-journal");
    let js = JournaledSchema::create(dir, mem, base.clone(), JournalOptions::default())
        .expect("fresh in-memory journal");
    let start = Instant::now();
    for op in ops {
        js.apply(op).expect("journaled trace replays");
    }
    let ns = start.elapsed().as_nanos() / ops.len() as u128;
    (ns, js.snapshot().fingerprint())
}

/// Journaling overhead, measured honestly: a shared untimed warmup replay
/// down *each* path first (so neither timed cell eats the cold-cache /
/// first-touch cost — the bug that let the committed report claim a 0.87x
/// "overhead", i.e. the durable path benchmarking faster than the bare
/// one), then best-of-N with the two paths interleaved inside each
/// iteration so clock/allocator drift lands on both cells evenly. Every
/// pairing also cross-checks the two fingerprints.
fn measure_journal_overhead(base: &Schema, ops: &[RecordedOp]) -> (u128, u128, u64, u64) {
    let (_, warm_plain_fp) = run_unjournaled(base, ops);
    let (_, warm_journal_fp) = run_journaled(base, ops);
    expect(
        warm_plain_fp == warm_journal_fp,
        "warmup replays agree before any timed iteration",
    );
    let (mut plain_best, mut journal_best) = (u128::MAX, u128::MAX);
    let (mut plain_fp, mut journal_fp) = (0, 0);
    for _ in 0..ITERATIONS {
        let (ns, fp) = run_unjournaled(base, ops);
        plain_best = plain_best.min(ns);
        plain_fp = fp;
        let (ns, fp) = run_journaled(base, ops);
        journal_best = journal_best.min(ns);
        journal_fp = fp;
    }
    (plain_best, journal_best, plain_fp, journal_fp)
}

/// The 100k-type cell: a clustered forest (100 hubs, each a hub type, a
/// mid type under it, and 998 leaves under both) built type-by-type on
/// the incremental engine, then a 100-drop batched trace. Clusters keep
/// every derived set's id spread inside one hub's arena window, so the
/// offset-trimmed bitsets stay a few words per row — the shape the dense
/// kernel is built for; the pointer-chasing BTreeSet representation did
/// not complete this cell in budget.
fn measure_100k() -> (u128, u128, usize, usize) {
    const HUBS: usize = 100;
    const PER_HUB: usize = 1000;
    let start = Instant::now();
    let mut s = Schema::with_engine(LatticeConfig::RELAXED, EngineKind::Incremental);
    let mut drops = Vec::new();
    for h in 0..HUBS {
        let hub = s.add_type(format!("hub_{h}"), [], []).expect("hub");
        let area = s.add_property(format!("area_{h}"));
        let mid = s.add_type(format!("mid_{h}"), [hub], [area]).expect("mid");
        for k in 0..PER_HUB - 2 {
            let c = s
                .add_type(format!("leaf_{h}_{k}"), [hub, mid], [])
                .expect("leaf");
            if k == 0 {
                // Redundant edge (hub is reachable through mid): a real
                // MT-DSR with a one-row derivation reach.
                drops.push(RecordedOp::DropEssentialSupertype { t: c, s: hub });
            }
        }
    }
    let build_ns = start.elapsed().as_nanos() / (HUBS * PER_HUB) as u128;
    let start = Instant::now();
    s.evolve_batch(|s| s.apply_trace(&drops))
        .expect("100k-lattice drop trace replays");
    let drop_ns = start.elapsed().as_nanos() / drops.len() as u128;
    (build_ns, drop_ns, s.type_count(), drops.len())
}

/// One observed journaled replay of the trace: every engine, journal, and
/// publish counter lands in a fresh registry, whose snapshot becomes the
/// report's `metrics` block.
fn measure_metrics(base: &Schema, ops: &[RecordedOp]) -> MetricsSnapshot {
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
    let mem = Arc::new(MemIo::new());
    let js = JournaledSchema::create_observed(
        std::path::Path::new("/bench-journal"),
        mem,
        base.clone(),
        JournalOptions::default(),
        obs,
    )
    .expect("fresh in-memory journal");
    for op in ops {
        js.apply(op).expect("observed trace replays");
    }
    registry.snapshot()
}

/// A drop-only trace over `base`'s redundant fan-in: one essential-edge
/// drop per multi-parent type (row-disjoint, so the analyzer certifies
/// the whole trace order-independent), capped at `max` ops.
fn harvest_drops(base: &Schema, max: usize) -> Vec<RecordedOp> {
    let mut ops = Vec::new();
    for t in base.iter_types() {
        let Ok(pe) = base.essential_supertypes(t) else {
            continue;
        };
        if pe.len() >= 2 {
            let s = *pe.iter().next().expect("non-empty");
            ops.push(RecordedOp::DropEssentialSupertype { t, s });
        }
        if ops.len() == max {
            break;
        }
    }
    ops
}

/// A worst-case single-class trace: `len` alternating drop/re-add
/// toggles of one essential edge. Every pair conflicts, so the analyzer
/// folds the whole trace into one independence class — the planned path
/// gets zero structure to exploit and must not pay for the structure it
/// did not find.
fn harvest_toggles(base: &Schema, len: usize) -> Vec<RecordedOp> {
    for t in base.iter_types() {
        let Ok(pe) = base.essential_supertypes(t) else {
            continue;
        };
        if pe.len() >= 2 {
            let s = *pe.iter().next().expect("non-empty");
            return (0..len)
                .map(|k| {
                    if k % 2 == 0 {
                        RecordedOp::DropEssentialSupertype { t, s }
                    } else {
                        RecordedOp::AddEssentialSupertype { t, s }
                    }
                })
                .collect();
        }
    }
    Vec::new()
}

/// A schema of `diamonds` disjoint diamonds (c_d ⊑ {p1_d, p2_d}), each
/// carrying a `depth`-deep chain of subtypes under c_d and `props`
/// essential properties on c_d, plus one essential property *per chain
/// row* — so the row at depth `k` inherits `props + k` properties and
/// re-deriving a whole chain costs Θ(depth²) set work. The drops' slot
/// footprints are pairwise disjoint across diamonds, so the planner packs
/// every drop into one wide stage and the certificate has to be checked
/// in full.
fn diamond_trace(diamonds: usize, depth: usize, props: usize) -> (Schema, Vec<RecordedOp>) {
    let mut s = Schema::with_engine(LatticeConfig::default(), EngineKind::Incremental);
    s.add_root_type("obj").expect("root");
    let mut ops = Vec::new();
    for d in 0..diamonds {
        let p1 = s.add_type(format!("p1_{d}"), [], []).expect("p1");
        let p2 = s.add_type(format!("p2_{d}"), [], []).expect("p2");
        let ps: Vec<_> = (0..props)
            .map(|k| s.add_property(format!("x_{d}_{k}")))
            .collect();
        let c = s.add_type(format!("c_{d}"), [p1, p2], ps).expect("c");
        let _ = (0..depth).fold(c, |parent, k| {
            let q = s.add_property(format!("q_{d}_{k}"));
            s.add_type(format!("sub_{d}_{k}"), [parent], [q])
                .expect("sub")
        });
        ops.push(RecordedOp::DropEssentialSupertype { t: c, s: p1 });
    }
    (s, ops)
}

/// Paired measurement of `Schema::apply_plan` against the uncertified
/// whole-trace `evolve_batch` reference: warmup down both paths, then
/// interleaved best-of-N with alternating leg order. The reported cells
/// are best-of-N; `mean_ratio` (batched mean / planned mean) is what the
/// gates use — minima of two near-equal paths flip on lucky tails.
struct PlanCells {
    plan_ns: u128,
    batch_ns: u128,
    mean_ratio: f64,
    plan_fp: u64,
    batch_fp: u64,
    report: PlanApply,
}

/// Median of paired per-iteration ratios. The reported cells are
/// best-of-N, but the ratio gates use the median of per-iteration
/// pairings: minima of two same-cost paths flip on lucky tails, and
/// run-long drift biases a mean — the two legs of one iteration are
/// adjacent in time, so their ratio sees neither.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    xs[xs.len() / 2]
}

/// Time-travel read at the tip versus a full recovery: build a journal
/// whose checkpoint sits mid-trace (half the ops in the checkpoint, half
/// in the WAL behind it), then time `Journal::replay_at(tip)` — the
/// read-only reconstruction `at --seq` and `branch --at-seq` pay —
/// against `Journal::open`, the recovery path that replays the same
/// checkpoint-plus-suffix but also re-arms the journal for writing.
/// Interleaved legs with alternating order; the gate uses the [`median`]
/// of per-iteration ratios.
///
/// Returns `(open_at_ns_per_op, recover_ns_per_op, ratio, wal_ops)`.
fn measure_timetravel(base: &Schema, ops: &[RecordedOp]) -> (u128, u128, f64, usize) {
    use axiombase_core::journal::Journal;
    use axiombase_core::RecoveryMode;
    let io: Arc<MemIo> = Arc::new(MemIo::new());
    let dir = std::path::Path::new("/bench-tt");
    let js = JournaledSchema::create(
        dir,
        io.clone(),
        base.clone(),
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("create journal");
    let half = ops.len() / 2;
    for op in &ops[..half] {
        js.apply(op).expect("pre-checkpoint op");
    }
    js.checkpoint().expect("mid-trace checkpoint");
    for op in &ops[half..] {
        js.apply(op).expect("post-checkpoint op");
    }
    let tip = js.seq();
    let wal_ops = ops.len() - half;
    drop(js);

    // Untimed warmup down both paths.
    let warm_fp = Journal::replay_at(dir, io.as_ref(), tip)
        .expect("warmup time-travel read")
        .fingerprint();
    {
        let (_, schema, _) =
            Journal::open(dir, io.clone(), RecoveryMode::Strict).expect("warmup recovery");
        expect(
            schema.fingerprint() == warm_fp,
            "time-travel read at the tip equals full recovery",
        );
    }
    let (mut open_at_ns, mut recover_ns) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::new();
    for i in 0..ITERATIONS * 3 {
        let open_at_first = i % 2 == 0;
        let (mut open_at_i, mut recover_i) = (0u128, 0u128);
        for leg in 0..2 {
            if (leg == 0) == open_at_first {
                let start = Instant::now();
                let s = Journal::replay_at(dir, io.as_ref(), tip).expect("time-travel read");
                open_at_i = start.elapsed().as_nanos() / wal_ops as u128;
                open_at_ns = open_at_ns.min(open_at_i);
                assert_eq!(s.fingerprint(), warm_fp);
            } else {
                let start = Instant::now();
                let (_, s, _) =
                    Journal::open(dir, io.clone(), RecoveryMode::Strict).expect("recovery");
                recover_i = start.elapsed().as_nanos() / wal_ops as u128;
                recover_ns = recover_ns.min(recover_i);
                assert_eq!(s.fingerprint(), warm_fp);
            }
        }
        ratios.push(open_at_i as f64 / recover_i.max(1) as f64);
    }
    (open_at_ns, recover_ns, median(&mut ratios), wal_ops)
}

/// Best-of-N per-op latency of `Schema::apply_plan` over a prebuilt
/// certificate. The plan is compiled once outside the timer; the in-timer
/// cost is what every run of a certified plan pays — the certificate
/// re-check and one batch with one scoped recomputation.
fn measure_plan(base: &Schema, ops: &[RecordedOp], plan: &EvolutionPlan) -> PlanCells {
    {
        let mut s = base.clone();
        s.apply_plan(ops, plan).expect("warmup planned replay");
        let mut s = base.clone();
        s.evolve_batch(|s| s.apply_trace(ops))
            .expect("warmup batched replay");
    }
    let (mut plan_ns, mut batch_ns) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::new();
    let (mut plan_fp, mut batch_fp) = (0, 0);
    let mut done = None;
    for i in 0..ITERATIONS * 3 {
        let plan_first = i % 2 == 0;
        let (mut plan_i, mut batch_i) = (0u128, 0u128);
        for leg in 0..2 {
            if (leg == 0) == plan_first {
                let mut s = base.clone();
                let start = Instant::now();
                let report = s.apply_plan(ops, plan).expect("certified plan executes");
                plan_i = start.elapsed().as_nanos() / ops.len() as u128;
                plan_ns = plan_ns.min(plan_i);
                plan_fp = s.fingerprint();
                done = Some(report);
            } else {
                let mut s = base.clone();
                let start = Instant::now();
                s.evolve_batch(|s| s.apply_trace(ops))
                    .expect("batched reference replays");
                batch_i = start.elapsed().as_nanos() / ops.len() as u128;
                batch_ns = batch_ns.min(batch_i);
                batch_fp = s.fingerprint();
            }
        }
        ratios.push(batch_i as f64 / plan_i.max(1) as f64);
    }
    PlanCells {
        plan_ns,
        batch_ns,
        mean_ratio: median(&mut ratios),
        plan_fp,
        batch_fp,
        report: done.expect("at least one iteration"),
    }
}

/// Best-of-N per-op cost of `impact::analyze` against a batched apply of
/// the same trace. The warmup run also pays for the independent `check`
/// re-derivation once (so the certificate being priced is a *verified*
/// one), but the timed leg is the analysis alone — that is the cost a
/// caller pays per trace to get a report. Returns
/// `(impact_ns, batch_ns, median ratio, obligations, guarded)`.
fn measure_impact(base: &Schema, ops: &[RecordedOp]) -> (u128, u128, f64, usize, usize) {
    let warm = impact::analyze(base, ops);
    let verdict = impact::check(base, ops, &warm.certificate).expect("warmup certificate verifies");
    assert_eq!(verdict.ops, ops.len());
    {
        let mut s = base.clone();
        s.evolve_batch(|s| s.apply_trace(ops))
            .expect("warmup batched replay");
    }
    let obligations = warm.certificate.obligations.len();
    let guarded = warm.certificate.guarded_obligations();
    let (impact_ns, batch_ns, ratio) = paired_vs_batched(base, ops, || {
        let ia = impact::analyze(base, ops);
        assert_eq!(ia.certificate.ops.len(), ops.len());
    });
    (impact_ns, batch_ns, ratio, obligations, guarded)
}

/// Paired cost of `f` against one batched apply of `ops`: per-op
/// best-of-N cells for both, and the median of per-iteration ratios
/// (legs alternate order; same rationale as `measure_analysis`).
/// Returns `(f_ns_per_op, batch_ns_per_op, median ratio)`.
fn paired_vs_batched(base: &Schema, ops: &[RecordedOp], mut f: impl FnMut()) -> (u128, u128, f64) {
    let (mut f_ns, mut batch_ns) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::new();
    for i in 0..ITERATIONS * 3 {
        let f_first = i % 2 == 0;
        let (mut f_i, mut batch_i) = (0u128, 0u128);
        for leg in 0..2 {
            if (leg == 0) == f_first {
                let start = Instant::now();
                f();
                f_i = start.elapsed().as_nanos() / ops.len() as u128;
                f_ns = f_ns.min(f_i);
            } else {
                let mut s = base.clone();
                let start = Instant::now();
                s.evolve_batch(|s| s.apply_trace(ops))
                    .expect("batched reference replays");
                batch_i = start.elapsed().as_nanos() / ops.len() as u128;
                batch_ns = batch_ns.min(batch_i);
            }
        }
        ratios.push(f_i as f64 / batch_i.max(1) as f64);
    }
    (f_ns, batch_ns, median(&mut ratios))
}

/// One `migration` row: the analysis step's per-op cost and its paired
/// ratio to batched apply.
struct MigrationRow {
    name: &'static str,
    ns: u128,
    batch_ns: u128,
    ratio: f64,
}

/// The `migration` cell: the four static analyses of a 200-op
/// size-neutral migration on `base`, each paired against batched apply.
/// The certificates are verified once, untimed, before anything is
/// timed.
fn measure_migration(base: &Schema) -> (usize, Vec<MigrationRow>) {
    let ops = size_neutral_trace(base, MIGRATION_OPS, TRACE_SEED ^ 0x316);
    let evo_plan = build_plan(&analyze_trace(base, &ops));
    plan::check(base, &ops, &evo_plan.certificate).expect("the migration plan re-verifies");
    let ia = impact::analyze(base, &ops);
    impact::check(base, &ops, &ia.certificate).expect("the impact certificate re-verifies");
    {
        let mut s = base.clone();
        s.evolve_batch(|s| s.apply_trace(&ops))
            .expect("warmup batched replay");
    }
    let mut rows = Vec::new();
    let mut row = |name: &'static str, f: &mut dyn FnMut()| {
        let (ns, batch_ns, ratio) = paired_vs_batched(base, &ops, f);
        rows.push(MigrationRow {
            name,
            ns,
            batch_ns,
            ratio,
        });
    };
    row("analyze_trace", &mut || {
        assert_eq!(analyze_trace(base, &ops).len(), ops.len());
    });
    row("plan_check", &mut || {
        assert!(plan::check(base, &ops, &evo_plan.certificate).is_ok());
    });
    row("impact_analyze", &mut || {
        assert_eq!(impact::analyze(base, &ops).certificate.ops.len(), ops.len());
    });
    row("impact_check", &mut || {
        assert!(impact::check(base, &ops, &ia.certificate).is_ok());
    });
    (ops.len(), rows)
}

/// The first `n` recorded ops of a seeded size-neutral trace on `base`.
fn size_neutral_trace(base: &Schema, n: usize, seed: u64) -> Vec<RecordedOp> {
    let mut attempts = n * 3 / 2;
    loop {
        let (ops, _) = generate_trace(base, attempts, SIZE_NEUTRAL_MIX, seed);
        if ops.len() >= n {
            return ops[..n].to_vec();
        }
        attempts *= 2;
    }
}

/// One `versions` row: per-op cost of publishing a version per op
/// against applying the same op in place, on one base size.
struct VersionsRow {
    types: usize,
    evolve_ns: u128,
    in_place_ns: u128,
    ratio: f64,
}

/// The `versions` cell on a `types`-type base: one untimed warmup pair,
/// then [`ITERATIONS`] pairs with alternating leg order. Both legs start
/// from a schema parsed from the base's snapshot, so neither shares
/// storage with anything when its timer starts. Returns best-of-N per-op
/// cells and the median of per-pair ratios; the two legs' fingerprints
/// must match.
fn measure_versions(types: usize) -> VersionsRow {
    let base = LatticeGen {
        types,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: 42,
    }
    .generate(LatticeConfig::ORION, EngineKind::Incremental)
    .schema;
    let ops = size_neutral_trace(&base, VERSIONS_OPS, TRACE_SEED ^ 0x7E5);
    let text = base.to_snapshot();
    drop(base);
    let fresh = || Schema::from_snapshot(&text).expect("the base round-trips");
    let per_op = |start: Instant| start.elapsed().as_nanos() / ops.len() as u128;
    let (mut evolve_ns, mut in_place_ns) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::new();
    let mut agree = true;
    for i in 0..=ITERATIONS {
        let evolve_first = i % 2 == 0;
        let (mut evolve_i, mut in_place_i) = (0u128, 0u128);
        let (mut evolve_fp, mut in_place_fp) = (0, 0);
        for leg in 0..2 {
            if (leg == 0) == evolve_first {
                let shared = SharedSchema::new(fresh());
                let start = Instant::now();
                for op in &ops {
                    shared.evolve(|s| op.apply(s)).expect("trace op publishes");
                }
                evolve_i = per_op(start);
                evolve_fp = shared.snapshot().fingerprint();
            } else {
                let mut s = fresh();
                let start = Instant::now();
                for op in &ops {
                    op.apply(&mut s).expect("trace op applies in place");
                }
                in_place_i = per_op(start);
                in_place_fp = s.fingerprint();
            }
        }
        agree &= evolve_fp == in_place_fp;
        if i > 0 {
            evolve_ns = evolve_ns.min(evolve_i);
            in_place_ns = in_place_ns.min(in_place_i);
            ratios.push(evolve_i as f64 / in_place_i.max(1) as f64);
        }
    }
    expect(
        agree,
        &format!("versions at {types} types: evolve and in-place apply agree"),
    );
    VersionsRow {
        types,
        evolve_ns,
        in_place_ns,
        ratio: median(&mut ratios),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ops.json".into());

    let mut cells = Vec::new();
    for engine in [EngineKind::Naive, EngineKind::Incremental] {
        for batched in [false, true] {
            let (ns_per_op, fp) = measure(engine, batched);
            let engine_name = match engine {
                EngineKind::Naive => "naive",
                EngineKind::Incremental => "incremental",
            };
            let mode = if batched { "batched" } else { "single" };
            println!("{engine_name:>11} / {mode:<7} {ns_per_op:>12} ns/op");
            cells.push((engine_name, mode, ns_per_op, fp));
        }
    }

    let first_fp = cells[0].3;
    expect(
        cells.iter().all(|c| c.3 == first_fp),
        "all four engine/mode cells produce identical schemas",
    );

    let single_naive = cells
        .iter()
        .find(|c| c.0 == "naive" && c.1 == "single")
        .unwrap()
        .2;
    let batched_incr = cells
        .iter()
        .find(|c| c.0 == "incremental" && c.1 == "batched")
        .unwrap()
        .2;
    let speedup = single_naive as f64 / batched_incr.max(1) as f64;
    println!("speedup (batched incremental vs single naive): {speedup:.1}x");
    expect(
        speedup >= 5.0,
        "batched incremental is at least 5x faster than op-by-op naive",
    );

    // Durability overhead: the same recorded trace through a bare
    // SharedSchema versus a JournaledSchema on in-memory I/O (isolating
    // framing + checksum + append + checkpoint cost from disk speed).
    let jbase = base(EngineKind::Incremental);
    let (ops, _stats) = generate_trace(&jbase, OPS, OpMix::BALANCED, TRACE_SEED);
    let (plain_ns, journaled_ns, plain_fp, journaled_fp) = measure_journal_overhead(&jbase, &ops);
    let overhead = journaled_ns as f64 / plain_ns.max(1) as f64;
    println!("{:>11} / {:<7} {plain_ns:>12} ns/op", "shared", "plain");
    println!(
        "{:>11} / {:<7} {journaled_ns:>12} ns/op",
        "shared", "journal"
    );
    println!("journaling overhead (in-memory I/O): {overhead:.2}x");
    expect(
        plain_fp == journaled_fp,
        "journaled and unjournaled replay produce identical schemas",
    );
    expect(
        overhead >= 0.95,
        "journaling overhead is physically plausible (>= 0.95x; below \
         means the measurement itself is biased)",
    );
    expect(
        overhead < 5.0,
        "journaling costs less than 5x on in-memory I/O (soft gate)",
    );

    // Dense-kernel gate: the incremental/batched cell against the
    // committed pre-kernel measurement, plus the 100k-type lattice cell.
    let bits_speedup = PRE_KERNEL_BATCHED_INCR_NS as f64 / batched_incr.max(1) as f64;
    println!("bits kernel: batched incremental {batched_incr} ns/op vs pre-kernel {PRE_KERNEL_BATCHED_INCR_NS} = {bits_speedup:.1}x");
    if bits_speedup >= 5.0 {
        println!("ok   bitset kernel improves batched incremental >=5x over the pre-kernel cell");
    } else {
        println!(
            "WARN soft gate: bits speedup {bits_speedup:.1}x below the 5x target \
             (quiet-machine floor is well above it; noisy runs may dip)"
        );
    }
    expect(
        bits_speedup >= 3.0,
        "bitset kernel keeps >=3x over the committed pre-kernel cell (hard floor under the 5x soft gate)",
    );
    let (build_100k_ns, drop_100k_ns, types_100k, drops_100k) = measure_100k();
    println!(
        "bits kernel: 100k-type lattice built at {build_100k_ns} ns/type, \
         {drops_100k}-drop batch at {drop_100k_ns} ns/op"
    );
    expect(
        types_100k == 100_000,
        "the 100k-type lattice cell completes in budget",
    );

    // Metrics: one more observed journaled replay of the same trace. On
    // MemIo with a fixed trace every count is deterministic, so gate on the
    // exact totals before embedding the snapshot in the report.
    let metrics = measure_metrics(&jbase, &ops);
    expect(
        metrics.counters[names::SHARED_PUBLISHES] == ops.len() as u64,
        "one publish per applied op",
    );
    expect(
        metrics.counters[names::JOURNAL_APPENDED_RECORDS] == ops.len() as u64,
        "one journal record per applied op",
    );
    let recomputes = metrics
        .counters
        .get(names::ENGINE_FULL)
        .copied()
        .unwrap_or(0)
        + metrics
            .counters
            .get(names::ENGINE_SCOPED)
            .copied()
            .unwrap_or(0)
        + metrics
            .counters
            .get(names::ENGINE_NOOP)
            .copied()
            .unwrap_or(0);
    expect(recomputes > 0, "the trace triggered recomputations");
    expect(
        metrics.histograms[names::ENGINE_AFFECTED].count == recomputes,
        "affected-set histogram observed once per recomputation",
    );

    // Static certification: a row-disjoint drop trace the analyzer
    // certifies order-independent, and a worst-case single-class toggle
    // trace (every pair conflicts) that the `plan` block prices below.
    let drops = harvest_drops(&jbase, 64);
    expect(drops.len() >= 16, "lattice yields a non-trivial drop trace");
    let drop_analysis = analyze_trace(&jbase, &drops);
    let (certified, classes) = (drop_analysis.certified, drop_analysis.classes.len());
    println!(
        "certified drop trace: {} ops, {classes} independence class(es)",
        drops.len()
    );
    expect(certified, "the drop trace is certified order-independent");
    let toggles = harvest_toggles(&jbase, 256);
    expect(toggles.len() == 256, "lattice yields a toggle trace");
    let tog_analysis = analyze_trace(&jbase, &toggles);
    let tog_classes = tog_analysis.classes.len();
    expect(tog_classes == 1, "the toggle trace folds into one class");

    // Certified plans. Compile once per trace; every timed run pays the
    // certificate re-check plus execution.
    let threads_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let tog_plan = build_plan(&tog_analysis);
    let tog_cells = measure_plan(&jbase, &toggles, &tog_plan);
    let tog_plan_ns = tog_cells.plan_ns;
    let (tog_plan_ratio, tog_done) = (tog_cells.mean_ratio, tog_cells.report);
    println!("{:>11} / {:<7} {tog_plan_ns:>12} ns/op", "plan", "1-class");
    println!("single-class planned vs batched: {tog_plan_ratio:.2}x");
    expect(
        tog_done.stages == 1 && tog_done.classes == 1,
        "the single-class plan is one stage of one class",
    );
    expect(
        tog_cells.plan_fp == tog_cells.batch_fp,
        "single-class planned replay matches batched",
    );
    expect(
        tog_plan_ratio >= 0.9,
        "planned apply stays within 10% of batched on a 1-class trace",
    );

    // The diamond schema keeps every drop's slots disjoint, so its
    // certificate claims one wide stage and is checked in full. No bound
    // on the ratio: it prices `plan::check`.
    let (dbase, dops) = diamond_trace(8, 210, 8);
    expect(dops.len() >= 4, "diamond schema yields a wide trace");
    let drop_plan = build_plan(&analyze_trace(&dbase, &dops));
    let diamond = measure_plan(&dbase, &dops, &drop_plan);
    let (plan_seq_ns, diamond_done) = (diamond.plan_ns, diamond.report);
    let (diamond_batch_ns, diamond_ratio) = (diamond.batch_ns, diamond.mean_ratio);
    println!(
        "{:>11} / {:<7} {diamond_batch_ns:>12} ns/op",
        "plan", "batch"
    );
    println!("{:>11} / {:<7} {plan_seq_ns:>12} ns/op", "plan", "seq");
    println!("diamond planned vs batched: {diamond_ratio:.2}x (recorded, not gated)");
    expect(
        diamond_done.classes == dops.len() && diamond_done.stages == 1,
        "the diamond plan is one wide stage of per-op classes",
    );
    expect(
        diamond.plan_fp == diamond.batch_fp,
        "planned replay matches batched on the diamond trace",
    );

    // Time-travel reads: `open_at` at the tip must not cost more than
    // the recovery path that replays the same checkpoint-plus-suffix
    // (soft-gated at 1.2x — replay_at does strictly less work: no
    // truncation, no re-arming, no fsync).
    let (open_at_ns, recover_ns, tt_ratio, tt_wal_ops) = measure_timetravel(&jbase, &ops);
    println!(
        "{:>11} / {:<7} {open_at_ns:>12} ns/op",
        "timetravel", "open_at"
    );
    println!(
        "{:>11} / {:<7} {recover_ns:>12} ns/op",
        "timetravel", "recover"
    );
    println!("open_at(tip) vs checkpoint-replay recovery: {tt_ratio:.2}x");
    expect(
        tt_ratio <= 1.2,
        "open_at at the tip stays within 1.2x of checkpoint-replay recovery (soft gate)",
    );

    // Static impact analysis: `impact::analyze` on a fresh 1000-op trace
    // versus one batched apply of the same trace (the certificate is
    // independently `check`ed once in warmup, untimed). The soft target
    // is analysis within 1.5x of execution — "run the analyzer first"
    // should be free advice — with a hard regression ceiling above the
    // measured ~10x that the delta-dense certificate actually costs.
    let (iops, _) = generate_trace(&jbase, IMPACT_OPS, OpMix::BALANCED, TRACE_SEED ^ 0x1417);
    expect(
        iops.len() >= IMPACT_OPS / 2,
        "the impact trace records at least half its attempted ops",
    );
    let (impact_ns, impact_batch_ns, impact_ratio, obligations, guarded) =
        measure_impact(&jbase, &iops);
    println!(
        "impact trace: {} op(s) recorded of {IMPACT_OPS} attempted, \
         {obligations} obligation(s), {guarded} guarded",
        iops.len()
    );
    println!("{:>11} / {:<7} {impact_ns:>12} ns/op", "impact", "analyze");
    println!(
        "{:>11} / {:<7} {impact_batch_ns:>12} ns/op",
        "impact", "batch"
    );
    println!("static impact analyze vs batched apply: {impact_ratio:.2}x");
    expect(
        obligations > 0,
        "the balanced 1000-op trace produces conversion obligations",
    );
    if impact_ratio <= 1.5 {
        println!("ok   static impact analysis within 1.5x of batched apply");
    } else {
        println!(
            "WARN soft gate: impact analysis {impact_ratio:.2}x of batched apply, above the \
             1.5x target (the certificate records ~15 per-type deltas per op; apply just mutates)"
        );
    }
    expect(
        impact_ratio <= IMPACT_HARD_CEILING,
        "static impact analysis stays under the hard ceiling vs batched apply (regression tripwire under the 1.5x soft gate)",
    );

    // Static analysis of one migration: the two analyzers a certified
    // commit runs are hard-gated against the batch they certify; the
    // impact pair is recorded.
    let (migration_ops, migration) = measure_migration(&jbase);
    for r in &migration {
        println!("{:>11} / {:<14} {:>12} ns/op", "migration", r.name, r.ns);
        println!(
            "migration {} vs batched apply ({} ns/op): {:.2}x",
            r.name, r.batch_ns, r.ratio
        );
    }
    for r in migration.iter().filter(|r| !r.name.starts_with("impact")) {
        expect(
            r.ratio <= MIGRATION_CEILING,
            &format!(
                "migration {} stays within {MIGRATION_CEILING}x of batched apply (hard ceiling)",
                r.name
            ),
        );
    }

    // Published versions: staging (clone, edit, publish, release) against
    // the same edits in place, at two base sizes.
    let versions = [1_000, 10_000].map(measure_versions);
    for r in &versions {
        println!(
            "{:>11} / {:<7} {:>12} ns/op evolve, {} ns/op in place: {:.2}x",
            "versions", r.types, r.evolve_ns, r.in_place_ns, r.ratio
        );
    }
    let [v1k, v10k] = &versions;
    if v1k.ratio <= VERSIONS_TARGET_1K {
        println!("ok   evolve within {VERSIONS_TARGET_1K}x of in-place apply at 1,000 types");
    } else {
        println!(
            "WARN soft gate: evolve {:.2}x of in-place apply at 1,000 types, above the \
             {VERSIONS_TARGET_1K}x target",
            v1k.ratio
        );
    }
    expect(
        v1k.ratio <= VERSIONS_CEILING_1K,
        &format!("evolve stays within {VERSIONS_CEILING_1K}x of in-place apply at 1,000 types (hard ceiling)"),
    );
    expect(
        v10k.ratio <= VERSIONS_CEILING_10K,
        &format!("evolve stays within {VERSIONS_CEILING_10K}x of in-place apply at 10,000 types (hard ceiling)"),
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"ops_single_vs_batched\",");
    let _ = writeln!(json, "  \"lattice_types\": {TYPES},");
    let _ = writeln!(json, "  \"ops\": {OPS},");
    let _ = writeln!(json, "  \"mix\": \"balanced\",");
    json.push_str("  \"results\": [\n");
    for (i, (engine, mode, ns, _)) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{engine}\", \"mode\": \"{mode}\", \"ns_per_op\": {ns}}}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_batched_incremental_vs_single_naive\": {speedup:.1},"
    );
    json.push_str("  \"journal\": {\n");
    let _ = writeln!(json, "    \"unjournaled_ns_per_op\": {plain_ns},");
    let _ = writeln!(json, "    \"journaled_ns_per_op\": {journaled_ns},");
    let _ = writeln!(json, "    \"overhead\": {overhead:.2}");
    json.push_str("  },\n");
    json.push_str("  \"bits\": {\n");
    let _ = writeln!(
        json,
        "    \"pre_kernel_batched_incremental_ns_per_op\": {PRE_KERNEL_BATCHED_INCR_NS},"
    );
    let _ = writeln!(
        json,
        "    \"batched_incremental_ns_per_op\": {batched_incr},"
    );
    let _ = writeln!(json, "    \"speedup_vs_pre_kernel\": {bits_speedup:.1},");
    json.push_str("    \"lattice_100k\": {\n");
    let _ = writeln!(json, "      \"types\": {types_100k},");
    let _ = writeln!(json, "      \"build_ns_per_type\": {build_100k_ns},");
    let _ = writeln!(json, "      \"drop_ops\": {drops_100k},");
    let _ = writeln!(json, "      \"batched_drop_ns_per_op\": {drop_100k_ns}");
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"analysis\": {\n");
    let _ = writeln!(json, "    \"drop_ops\": {},", drops.len());
    let _ = writeln!(json, "    \"certified\": {certified},");
    let _ = writeln!(json, "    \"independence_classes\": {classes},");
    json.push_str("    \"single_class\": {\n");
    let _ = writeln!(json, "      \"ops\": {},", toggles.len());
    let _ = writeln!(json, "      \"independence_classes\": {tog_classes}");
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"plan\": {\n");
    let _ = writeln!(json, "    \"threads_available\": {threads_available},");
    json.push_str("    \"single_class\": {\n");
    let _ = writeln!(json, "      \"ops\": {},", toggles.len());
    let _ = writeln!(json, "      \"classes\": {},", tog_done.classes);
    let _ = writeln!(json, "      \"stages\": {},", tog_done.stages);
    let _ = writeln!(json, "      \"sequential_ns_per_op\": {tog_plan_ns},");
    let _ = writeln!(json, "      \"ratio_vs_batched\": {tog_plan_ratio:.2}");
    json.push_str("    },\n");
    json.push_str("    \"diamond\": {\n");
    let _ = writeln!(json, "      \"ops\": {},", dops.len());
    let _ = writeln!(json, "      \"classes\": {},", diamond_done.classes);
    let _ = writeln!(json, "      \"stages\": {},", diamond_done.stages);
    let _ = writeln!(json, "      \"batched_ns_per_op\": {diamond_batch_ns},");
    let _ = writeln!(
        json,
        "      \"max_parallelism\": {},",
        diamond_done.max_parallelism
    );
    let _ = writeln!(json, "      \"sequential_ns_per_op\": {plan_seq_ns},");
    let _ = writeln!(json, "      \"ratio_vs_batched\": {diamond_ratio:.2}");
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"timetravel\": {\n");
    let _ = writeln!(json, "    \"wal_ops_behind_checkpoint\": {tt_wal_ops},");
    let _ = writeln!(json, "    \"open_at_tip_ns_per_op\": {open_at_ns},");
    let _ = writeln!(json, "    \"recovery_ns_per_op\": {recover_ns},");
    let _ = writeln!(json, "    \"ratio_vs_recovery\": {tt_ratio:.2}");
    json.push_str("  },\n");
    json.push_str("  \"impact\": {\n");
    let _ = writeln!(json, "    \"ops\": {},", iops.len());
    let _ = writeln!(json, "    \"obligations\": {obligations},");
    let _ = writeln!(json, "    \"guarded\": {guarded},");
    let _ = writeln!(json, "    \"analyze_ns_per_op\": {impact_ns},");
    let _ = writeln!(json, "    \"batched_apply_ns_per_op\": {impact_batch_ns},");
    let _ = writeln!(json, "    \"ratio_vs_batched\": {impact_ratio:.2}");
    json.push_str("  },\n");
    json.push_str("  \"migration\": {\n");
    let _ = writeln!(json, "    \"ops\": {migration_ops},");
    let _ = writeln!(json, "    \"ceiling\": {MIGRATION_CEILING:.1},");
    for (i, r) in migration.iter().enumerate() {
        let comma = if i + 1 < migration.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"ns_per_op\": {}, \"batched_apply_ns_per_op\": {}, \
             \"ratio_vs_batched\": {:.2}}}{comma}",
            r.name, r.ns, r.batch_ns, r.ratio
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"versions\": {\n");
    let _ = writeln!(json, "    \"ops\": {VERSIONS_OPS},");
    let _ = writeln!(json, "    \"soft_target_1k\": {VERSIONS_TARGET_1K:.1},");
    for (r, ceiling, comma) in [
        (v1k, VERSIONS_CEILING_1K, ","),
        (v10k, VERSIONS_CEILING_10K, ""),
    ] {
        let _ = writeln!(
            json,
            "    \"types_{}\": {{\"evolve_ns_per_op\": {}, \"in_place_ns_per_op\": {}, \
             \"ratio_vs_in_place\": {:.2}, \"ceiling\": {ceiling:.1}}}{comma}",
            r.types, r.evolve_ns, r.in_place_ns, r.ratio
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"metrics\": {}", metrics.to_json());
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
    println!("bench_ops_json: all checks passed");
}
