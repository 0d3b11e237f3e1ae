//! Property test: certified evolution plans are *sound* on random
//! traces — planned execution is observationally equal to a sequential
//! batched replay, metrics included.
//!
//! Two trace families × two engines × 250 seeds = 1000 traces (same
//! families as `analysis_certification.rs`, but longer random mixes —
//! the planner needs no permutation enumeration):
//!
//! Per trace:
//!
//! 1. **Planner soundness** — the certificate `build_plan` emits must be
//!    re-verified by the independent checker `analysis::plan::check`
//!    (which recomputes footprints from scratch and trusts nothing the
//!    planner claimed).
//! 2. **Executor soundness** — `Schema::apply_plan` must land on the
//!    same `canonical_fingerprint` and version as a sequential batched
//!    `apply_trace`, and its attached [`MetricsSnapshot`] must equal the
//!    batched run's once the `plan.*` counters (which only the planned
//!    run has) are set aside.
//! 3. **Shuffle invariance** — permuting the certificate's class list
//!    (which permutes intra-stage execution order) still checks and
//!    still produces the same fingerprint and the same metrics.
//! 4. **Tamper rejection** — collapsing a witnessed inter-stage order
//!    edge into one stage must be refused by the checker, and
//!    `apply_plan` must reject the plan leaving the schema untouched.
//!
//! Vacuousness guards assert the sweep really exercised wide plans, really
//! rejected tampered ones, and really ran stage-mates whose written type
//! rows share a descendant: both move that descendant's derived rows, and
//! the one derivation after the batch must still land on the batch's
//! fingerprint.

use std::sync::Arc;

use axiombase_core::analysis::plan::{self, Slot};
use axiombase_core::obs::{names, EvolveObs, MetricsRegistry};
use axiombase_core::{
    analyze_trace, build_plan, EngineKind, EvolutionPlan, LatticeConfig, MetricsSnapshot,
    RecordedOp, Schema,
};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};

/// Seeds per engine; 250 × 2 engines × 2 families = 1000 traces.
const SEEDS: u64 = 250;

/// Random-family trace length (no permutation enumeration here, so the
/// traces can be longer than the certification sweep's).
const RANDOM_OPS: usize = 8;

/// Deterministic splittable generator for shuffles and tamper choices.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Fisher–Yates over `n` indices.
    fn shuffle(&mut self, n: usize) -> Vec<usize> {
        let mut xs: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() as usize) % (i + 1);
            xs.swap(i, j);
        }
        xs
    }
}

/// One run on a fresh schema clone with a fresh registry attached:
/// `plan` executes the certified plan, `None` the batched reference
/// replay. Returns the fingerprint, version, and normalized snapshot.
fn run(
    base: &Schema,
    ops: &[RecordedOp],
    plan: Option<&EvolutionPlan>,
    seed: u64,
    tag: &str,
) -> (u64, u64, MetricsSnapshot) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut s = base.clone();
    s.attach_obs(Arc::new(EvolveObs::new(Arc::clone(&registry))));
    let applied = match plan {
        Some(evo) => {
            s.apply_plan(ops, evo)
                .unwrap_or_else(|e| panic!("seed {seed} {tag}: certified plan rejected: {e}"))
                .applied
        }
        None => s.apply_trace(ops).expect("recorded trace must replay"),
    };
    s.detach_obs();
    assert_eq!(applied, ops.len(), "seed {seed} {tag}");
    let mut snapshot = registry.snapshot();
    // COW slot copies are memory bookkeeping, order- and clone-sensitive;
    // every semantic counter must be exact (see analysis_certification.rs).
    // The `plan.*` counters describe the certificate, which only the
    // planned run has.
    snapshot
        .counters
        .retain(|name, _| name != names::ENGINE_COW_COPIES && !name.starts_with("plan."));
    (s.canonical_fingerprint(), s.version(), snapshot)
}

/// Family "random": a recorded mix against a small random lattice.
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
    let (mut ops, _) = generate_trace(&base, 12, mix, seed ^ 0x91a7);
    ops.truncate(RANDOM_OPS);
    (base, ops)
}

/// Family "drops": one droppable essential edge per multi-parent type —
/// mostly disjoint rows, so plans here are genuinely wide.
fn drop_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 10,
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
        if ops.len() == 6 {
            break;
        }
    }
    (base, ops)
}

/// Does the plan put two classes in one stage that write type rows with
/// a common descendant in `base` (read off the public `super_lattice`)?
fn stage_mates_share_a_descendant(base: &Schema, evo: &EvolutionPlan) -> bool {
    let cert = &evo.certificate;
    let stages = cert.stage_table();
    base.iter_types().any(|d| {
        let above: Vec<usize> = base
            .super_lattice(d)
            .expect("live type")
            .iter()
            .map(|t| t.index())
            .collect();
        let writes_above = |ci: &usize| {
            cert.classes[*ci]
                .writes
                .iter()
                .any(|slot| matches!(slot, Slot::Type(t) if above.contains(t)))
        };
        stages
            .iter()
            .any(|stage| stage.iter().filter(|ci| writes_above(ci)).count() >= 2)
    })
}

/// Discharge all four claims on one trace. Returns
/// `(max_parallelism, tampered-and-rejected?, stage-mates share a
/// descendant?)`.
fn one_trace(base: &Schema, ops: &[RecordedOp], seed: u64, tag: &str) -> (usize, bool, bool) {
    if ops.is_empty() {
        return (0, false, false);
    }
    let analysis = analyze_trace(base, ops);
    let evo = build_plan(&analysis);

    // Claim 1: the untrusted planner's certificate re-verifies.
    let verdict = plan::check(base, ops, &evo.certificate)
        .unwrap_or_else(|e| panic!("seed {seed} {tag}: built certificate refused: {e}"));
    assert_eq!(verdict.ops, ops.len());

    // Claim 2: planned == sequential batched replay, metrics included.
    let (ref_fp, ref_version, ref_metrics) = run(base, ops, None, seed, tag);
    let (fp, version, metrics) = run(base, ops, Some(&evo), seed, tag);
    assert_eq!(
        fp, ref_fp,
        "seed {seed} {tag}: planned run diverged from batch"
    );
    assert_eq!(version, ref_version, "seed {seed} {tag}: version drifted");
    assert_eq!(
        metrics, ref_metrics,
        "seed {seed} {tag}: planned run's metrics differ from the batch's"
    );
    let mut rng = Lcg(seed ^ 0x9e3779b97f4a7c15);
    // This draw once picked a worker count; it is kept so each seed's
    // shuffle and tampered edge stay the same.
    rng.next();

    // Claim 3: shuffling the certificate's class list (intra-stage
    // execution order) changes nothing observable.
    if evo.certificate.classes.len() >= 2 {
        let mut shuffled = evo.clone();
        let order = rng.shuffle(shuffled.certificate.classes.len());
        shuffled.certificate.classes = order
            .iter()
            .map(|&i| evo.certificate.classes[i].clone())
            .collect();
        plan::check(base, ops, &shuffled.certificate)
            .unwrap_or_else(|e| panic!("seed {seed} {tag}: shuffled certificate refused: {e}"));
        let (fp, version, snap) = run(base, ops, Some(&shuffled), seed, tag);
        assert_eq!(fp, ref_fp, "seed {seed} {tag}: shuffled plan diverged");
        assert_eq!(version, ref_version, "seed {seed} {tag}");
        assert_eq!(
            snap, ref_metrics,
            "seed {seed} {tag}: shuffled plan's metrics diverged"
        );
    }

    // Claim 4: collapsing a witnessed order edge into one stage is an
    // interference the checker must catch, and the executor must refuse
    // the plan without touching the schema.
    let mut tampered_rejected = false;
    if !evo.certificate.edges.is_empty() {
        let edge = &evo.certificate.edges[(rng.next() as usize) % evo.certificate.edges.len()];
        let mut bad = evo.clone();
        let from_stage = bad.certificate.classes[edge.from_class].stage;
        bad.certificate.classes[edge.to_class].stage = from_stage;
        assert!(
            plan::check(base, ops, &bad.certificate).is_err(),
            "seed {seed} {tag}: checker accepted a collapsed order edge"
        );
        let mut s = base.clone();
        let before = (s.canonical_fingerprint(), s.version());
        assert!(
            s.apply_plan(ops, &bad).is_err(),
            "seed {seed} {tag}: executor ran an uncheckable plan"
        );
        assert_eq!(
            (s.canonical_fingerprint(), s.version()),
            before,
            "seed {seed} {tag}: rejected plan still mutated the schema"
        );
        tampered_rejected = true;
    }

    (
        evo.max_parallelism(),
        tampered_rejected,
        stage_mates_share_a_descendant(base, &evo),
    )
}

fn sweep(engine: EngineKind) {
    let mut wide_plans = 0usize;
    let mut tampered = 0usize;
    let mut shared_descendants = 0usize;
    for seed in 0..SEEDS {
        for (tag, (base, ops)) in [
            ("random", random_family(engine, seed)),
            ("drops", drop_family(engine, seed)),
        ] {
            let (width, rejected, shared) = one_trace(&base, &ops, seed, tag);
            wide_plans += usize::from(width >= 2);
            tampered += usize::from(rejected);
            shared_descendants += usize::from(shared);
        }
    }
    // Vacuousness guards: the sweep must have exercised real parallelism
    // and real tamper rejection, not just 1-op serial chains.
    assert!(
        wide_plans >= 100,
        "({engine:?}) only {wide_plans} plans with parallelism ≥ 2 — sweep too narrow"
    );
    assert!(
        tampered >= 50,
        "({engine:?}) only {tampered} tampered certificates exercised"
    );
    assert!(
        shared_descendants >= 100,
        "({engine:?}) only {shared_descendants} plans ran stage-mates sharing a descendant"
    );
    println!(
        "({engine:?}) wide plans {wide_plans}, tampered rejected {tampered}, \
         stage-mates sharing a descendant {shared_descendants}"
    );
}

#[test]
fn plans_are_sound_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn plans_are_sound_incremental_engine() {
    sweep(EngineKind::Incremental);
}
