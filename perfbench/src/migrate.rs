//! `migrate`: a DBA session applying 200-op migrations to a live schema
//! that backs a 100k-object store.
//!
//! Each migration was generated in set-up against the schema the previous
//! migrations left, and runs: `analyze_trace` and `build_plan`;
//! `impact::analyze` and `impact::check`; a durable commit as one batch
//! (`JournaledSchema::apply_trace`); a rollout to a replica with
//! `SharedSchema::apply_plan` on 2 workers; propagation into the store
//! under lazy conversion; inserts into the types the migration created,
//! which keep the object count near its start; and 1,000 seeded reads of
//! live objects. Most real class changes are instance-compatible, so the
//! store converts objects lazily as they are read rather than all at once.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use axiombase_core::analysis::{impact, plan};
use axiombase_core::journal::io::{JournalIo, StdIo};
use axiombase_core::{
    analyze_trace, build_plan, JournalOptions, JournaledSchema, PropId, RecordedOp, Schema,
    SharedSchema, TypeId,
};
use axiombase_store::{Conformance, ObjectStore, Oid, Policy};
use axiombase_workload::generate_trace;

use crate::common::{
    base_lattice, median_secs, Calibration, Digest, Outcome, Rng, Timing, MIX, MS, TAIL, US,
};
use crate::io::TimingIo;
use crate::trace;
use crate::Args;

/// Objects in the store at the start.
const OBJECTS: usize = 100_000;
/// Ops per migration.
const MIGRATION_OPS: usize = 200;
/// Object reads per migration.
const READS: usize = 1000;
/// Migrations generated per measured second: about 1.2x what fits today,
/// so the inputs outlast the run.
const MIGRATIONS_PER_SECOND: f64 = 7.0;
/// Workers of the replica's plan executor (`nproc` is 2).
const WORKERS: usize = 2;

struct Migration {
    ops: Vec<RecordedOp>,
    /// Oracle: fingerprint after this migration.
    fp_after: u64,
    /// Types of the objects inserted after this migration, in order.
    inserts: Vec<TypeId>,
    /// Seeded reads after this migration.
    reads: Vec<(Oid, PropId)>,
    /// Oracle: live objects after this migration's inserts.
    objects_after: usize,
}

struct Inputs {
    base: Schema,
    placement: Vec<TypeId>,
    migrations: Vec<Migration>,
    digest: u64,
}

fn make_inputs(seed: u64, seconds: f64) -> Inputs {
    let (base, types) = base_lattice(Rng::new(seed, 1).next_u64());
    let mut rng = Rng::new(seed, 4);
    let placement: Vec<TypeId> = (0..OBJECTS)
        .map(|_| types[rng.below(types.len())])
        .collect();
    // A model of the store: live (oid, type) pairs, in creation order.
    let mut live: Vec<(u64, TypeId)> = placement
        .iter()
        .enumerate()
        .map(|(i, &t)| (i as u64, t))
        .collect();
    let mut next_oid = OBJECTS as u64;
    let mut deficit = 0usize;
    let mut cur = base.clone();
    let count = (MIGRATIONS_PER_SECOND * seconds).ceil() as usize;
    let mut migrations = Vec::with_capacity(count);
    for k in 0..count {
        let mut attempts = MIGRATION_OPS * 3 / 2;
        let ops = loop {
            let (ops, _) = generate_trace(
                &cur,
                attempts,
                MIX,
                Rng::new(seed, 100 + k as u64).next_u64(),
            );
            if ops.len() >= MIGRATION_OPS {
                break ops[..MIGRATION_OPS].to_vec();
            }
            attempts *= 2;
        };
        let pre = cur.clone();
        cur.apply_trace(&ops).expect("generated migration replays");
        let before = live.len();
        live.retain(|&(_, t)| cur.is_live(t));
        deficit += before - live.len();
        let created: Vec<TypeId> = cur.iter_types().filter(|&t| !pre.is_live(t)).collect();
        let mut inserts = Vec::new();
        if !created.is_empty() {
            for _ in 0..deficit {
                let t = created[rng.below(created.len())];
                inserts.push(t);
                live.push((next_oid, t));
                next_oid += 1;
            }
            deficit = 0;
        }
        let mut reads = Vec::with_capacity(READS);
        while reads.len() < READS {
            let (oid, t) = live[rng.below(live.len())];
            let iface = cur.interface(t).expect("live object type");
            if iface.is_empty() {
                continue;
            }
            let p = *iface
                .iter()
                .nth(rng.below(iface.len()))
                .expect("index below len");
            reads.push((Oid::from_raw(oid), p));
        }
        migrations.push(Migration {
            ops,
            fp_after: cur.fingerprint(),
            inserts,
            reads,
            objects_after: live.len(),
        });
    }
    let mut d = Digest::default();
    d.u64(base.fingerprint());
    for t in &placement {
        d.u64(t.index() as u64);
    }
    for m in &migrations {
        d.ops(&m.ops);
        for t in &m.inserts {
            d.u64(t.index() as u64);
        }
        for (o, p) in &m.reads {
            d.u64(o.raw());
            d.u64(p.index() as u64);
        }
    }
    Inputs {
        base,
        placement,
        migrations,
        digest: d.value(),
    }
}

/// The systems a migration touches.
struct Live {
    primary: JournaledSchema,
    replica: SharedSchema,
    store: ObjectStore,
}

fn journal_dir(work: &Path, name: &str) -> PathBuf {
    let d = work.join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn make_live(inp: &Inputs, dir: &Path, io: Arc<dyn JournalIo>) -> Live {
    let primary = JournaledSchema::create(dir, io, inp.base.clone(), JournalOptions::default())
        .expect("create journal");
    let mut store = ObjectStore::new(Policy::Lazy);
    for &t in &inp.placement {
        store.create(&inp.base, t).expect("base type is live");
    }
    Live {
        primary,
        replica: SharedSchema::new(inp.base.clone()),
        store,
    }
}

#[derive(Default)]
struct PhaseOut {
    /// Untraced migration latencies, ns.
    migration: Vec<u64>,
    /// Traced migration latencies, ns.
    traced: Vec<u64>,
    reads: Vec<u64>,
    migrated_ops: u64,
    done: usize,
    attempted: u64,
    failed: u64,
    // Traced-run counts.
    pairs: u64,
    classes: u64,
    stages: u64,
    obligations: u64,
    scanned: u64,
    marked_stale: u64,
    lazy_conversions: u64,
    cal: Calibration,
}

/// Run migrations until `seconds` pass or the inputs run out. In a traced
/// run every second migration is traced, so traced and untraced ones
/// alternate along the same drift of store and schema state.
fn phase(
    out: &mut Outcome,
    live: &mut Live,
    inp: &Inputs,
    seconds: f64,
    traced_run: bool,
) -> PhaseOut {
    let mut p = PhaseOut::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (k, m) in inp.migrations.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        p.cal.tick();
        let traced = traced_run && k % 2 == 1;
        trace::set_enabled(traced);
        p.done = k + 1;
        p.attempted += 1;
        let req = k as u64;
        let t0 = Instant::now();
        let span = trace::top(req, "migration");
        let pre = live.primary.snapshot();
        let analysis = {
            let _s = trace::child("analysis.commute");
            analyze_trace(&pre, &m.ops)
        };
        let evo_plan = {
            let _s = trace::child("plan.build");
            build_plan(&analysis)
        };
        let imp = {
            let _s = trace::child("impact.analyze");
            impact::analyze(&pre, &m.ops)
        };
        let certified = {
            let _s = trace::child("impact.check");
            impact::check(&pre, &m.ops, &imp.certificate)
        };
        let committed = certified.is_ok() && {
            let _s = trace::child("commit");
            live.primary.apply_trace(&m.ops).is_ok()
        };
        let rolled_out = committed && {
            let _s = trace::child("parallel.apply_plan");
            live.replica
                .apply_plan(&m.ops, &evo_plan, Some(WORKERS))
                .is_ok()
        };
        if !rolled_out {
            drop(span);
            p.failed += 1;
            out.problem(format!(
                "migration {k}: {}",
                match certified {
                    Err(e) => format!("impact certificate refused: {e}"),
                    Ok(_) if !committed => "durable commit failed".into(),
                    Ok(_) => "replica refused the plan".into(),
                }
            ));
            break;
        }
        let post = live.primary.snapshot();
        let objects_before = live.store.object_count() as u64;
        let stats0 = *live.store.stats();
        {
            let _s = trace::child("store.propagate");
            let mut changed = Vec::with_capacity(imp.plan.steps.len());
            for step in &imp.plan.steps {
                let t = TypeId::from_index(step.type_index);
                if step.drop_extent {
                    live.store.drop_extent(t);
                } else {
                    changed.push(t);
                }
            }
            live.store.on_schema_change(&post, &changed);
        }
        let mut insert_failed = false;
        for &t in &m.inserts {
            let _s = trace::child("store.insert");
            insert_failed |= live.store.create(&post, t).is_err();
        }
        let mut read_failed = 0u64;
        for &(oid, prop) in &m.reads {
            let name = if traced {
                match live.store.record(oid).map(|r| r.conformance) {
                    Ok(Conformance::Stale) => "store.get_converting",
                    _ => "store.get_conforming",
                }
            } else {
                "store.get"
            };
            let r0 = Instant::now();
            let got = {
                let _s = trace::child(name);
                live.store.get(&post, oid, prop)
            };
            p.reads.push(r0.elapsed().as_nanos() as u64);
            if black_box(got).is_err() {
                read_failed += 1;
            }
        }
        drop(span);
        let took = t0.elapsed().as_nanos() as u64;
        if traced {
            p.traced.push(took);
        } else {
            p.migration.push(took);
        }
        p.migrated_ops += m.ops.len() as u64;
        p.attempted += (m.inserts.len() + m.reads.len()) as u64;
        p.failed += read_failed + u64::from(insert_failed);

        if traced {
            // Repeat, on identical input and outside the migration span:
            // the plan check `apply_plan` runs inside, and the batch apply
            // the parallel executor is compared against.
            {
                let _s = trace::top(req, "plan.check");
                if plan::check(&pre, &m.ops, &evo_plan.certificate).is_err() {
                    out.problem(format!(
                        "migration {k}: plan::check refused the certificate"
                    ));
                }
            }
            let mut copy = (*pre).clone();
            {
                let _s = trace::top(req, "engine.batch_apply");
                if copy.evolve_batch(|s| s.apply_trace(&m.ops)).is_err() {
                    out.problem(format!("migration {k}: batch apply on a copy failed"));
                }
            }
            drop(copy);
            let st = live.store.stats();
            p.pairs += analysis.pairs.len() as u64;
            p.classes += evo_plan.certificate.classes.len() as u64;
            p.stages += evo_plan.certificate.stage_count() as u64;
            p.obligations += imp.certificate.obligations.len() as u64;
            p.scanned += objects_before;
            p.marked_stale += st.marked_stale - stats0.marked_stale;
            p.lazy_conversions += st.lazy_conversions - stats0.lazy_conversions;
        }

        // Oracles, outside the timed span.
        let fp = post.fingerprint();
        if fp != m.fp_after || live.replica.snapshot().fingerprint() != m.fp_after {
            out.problem(format!(
                "migration {k}: primary, replica and set-up oracle disagree"
            ));
        }
        if live.store.object_count() != m.objects_after {
            out.problem(format!(
                "migration {k}: store holds {} objects, the set-up model {}",
                live.store.object_count(),
                m.objects_after
            ));
        }
        for &(oid, _) in &m.reads {
            let ok = live.store.record(oid).is_ok_and(|r| {
                r.conformance == Conformance::Conforming
                    && post
                        .interface(r.ty)
                        .is_ok_and(|iface| r.slots.keys().eq(iface.iter()))
            });
            if !ok {
                out.problem(format!(
                    "migration {k}: object {oid} read back without its current interface"
                ));
                break;
            }
        }
    }
    trace::set_enabled(false);
    p
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The traced run writes its journal through the timing wrapper; its
    // untraced migrations pay only the wrapper's counters.
    let tio = Arc::new(TimingIo::new(Arc::new(StdIo)));
    let io: Arc<dyn JournalIo> = if args.trace {
        Arc::clone(&tio) as Arc<dyn JournalIo>
    } else {
        Arc::new(StdIo)
    };
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut ready = None;
    for rep in 0..3 {
        // Drop the previous set-up before making the next.
        drop(ready.take());
        let t0 = Instant::now();
        let inp = make_inputs(args.seed, args.seconds);
        let dir = journal_dir(&args.work, &format!("migrate-{rep}"));
        let live = make_live(&inp, &dir, Arc::clone(&io));
        setups.push(t0.elapsed());
        digests.push(inp.digest);
        ready = Some((inp, live));
    }
    let (inp, mut live) = ready.expect("three set-ups ran");
    out.digest = inp.digest;
    if digests.iter().any(|&d| d != inp.digest) {
        out.problem(format!("set-up produced different inputs: {digests:x?}"));
    }
    out.line(format!(
        "inputs: {} migrations x {MIGRATION_OPS} ops over a {}-type base, {OBJECTS} objects, {READS} reads per migration",
        inp.migrations.len(),
        inp.base.type_count()
    ));

    let io0 = tio.stats();
    let b = phase(&mut out, &mut live, &inp, args.seconds, args.trace);
    let io = tio.stats().since(&io0);
    if b.done == inp.migrations.len() {
        out.line("all generated migrations ran before the time was up".into());
    }
    out.attempted = b.attempted;
    out.failed = b.failed;
    let mut ma = b.migration.clone();
    let untraced = Timing::of(&mut ma, TAIL);
    if !args.trace {
        let mut reads = b.reads.clone();
        let reads = Timing::of(&mut reads, TAIL);
        let ops_per_s = b.migrated_ops as f64 / (b.migration.iter().sum::<u64>() as f64 / 1e9);
        out.timing_line("migration (ms)", &untraced, MS, "ms");
        out.timing_line("object_read (ObjectStore::get, us)", &reads, US, "us");
        out.line(format!(
            "migrate_ops_per_s: {ops_per_s:.1} ({} ops)",
            b.migrated_ops
        ));
        crate::end_to_end(
            &mut out,
            &b.cal,
            &untraced,
            ops_per_s,
            &reads,
            median_secs(&setups),
        );
        return out;
    }

    let spans = trace::take_all();
    if let Err(e) = trace::write_tsv(
        &args.out.join(format!("spans-migrate-{}.tsv", args.seed)),
        &spans,
    ) {
        out.line(format!("could not write spans: {e}"));
    }
    let agg = trace::aggregate(&spans);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let n = b.traced.len().max(1) as f64;
    let mig = get("migration");
    let commit = get("commit");
    let batch = get("engine.batch_apply");
    let par = get("parallel.apply_plan");
    let conv = get("store.get_converting");
    let conf = get("store.get_conforming");
    let reads = (conv.count + conf.count).max(1) as f64;
    let mut mb = b.traced.clone();
    let traced = Timing::of(&mut mb, TAIL);

    out.metric("concurrent.commit_ms", commit.self_ns as f64 / n / MS, "ms");
    out.metric("engine.batch_apply_ms", batch.mean_ns() / MS, "ms");
    crate::io_metrics(&mut out, &io, b.migrated_ops.max(1) as f64, 0.0);
    out.metric(
        "analysis.commute_ms",
        get("analysis.commute").mean_ns() / MS,
        "ms",
    );
    out.metric("analysis.pairs", b.pairs as f64 / n, "count");
    out.metric(
        "analysis.plan.build_ms",
        get("plan.build").mean_ns() / MS,
        "ms",
    );
    out.metric(
        "analysis.plan.check_ms",
        get("plan.check").mean_ns() / MS,
        "ms",
    );
    out.metric("analysis.plan.classes", b.classes as f64 / n, "count");
    out.metric("analysis.plan.stages", b.stages as f64 / n, "count");
    out.metric(
        "analysis.impact_ms",
        get("impact.analyze").mean_ns() / MS,
        "ms",
    );
    out.metric(
        "analysis.impact.check_ms",
        get("impact.check").mean_ns() / MS,
        "ms",
    );
    out.metric(
        "analysis.impact.obligations",
        b.obligations as f64 / n,
        "count",
    );
    out.metric("parallel.apply_plan_ms", par.mean_ns() / MS, "ms");
    out.metric(
        "parallel.vs_batch",
        if batch.total_ns == 0 {
            0.0
        } else {
            par.total_ns as f64 / batch.total_ns as f64
        },
        "ratio",
    );
    out.metric(
        "store.propagate_ms",
        get("store.propagate").mean_ns() / MS,
        "ms",
    );
    out.metric("store.objects_scanned", b.scanned as f64 / n, "count");
    out.metric("store.marked_stale", b.marked_stale as f64 / n, "count");
    out.metric("store.insert_us", get("store.insert").mean_ns() / US, "us");
    out.metric("store.read_converting_us", conv.mean_ns() / US, "us");
    out.metric("store.read_conforming_us", conf.mean_ns() / US, "us");
    out.metric(
        "store.lazy_conversions_per_read",
        b.lazy_conversions as f64 / reads,
        "ratio",
    );
    out.metric("migration.span_ms", mig.mean_ns() / MS, "ms");
    out.metric("calibration.factor", b.cal.factor(), "ratio");
    out.metric("migration.other_ms", mig.self_ns as f64 / n / MS, "ms");
    crate::overhead_metrics(&mut out, &untraced, &traced);

    let parts = [
        ("analysis.commute", get("analysis.commute")),
        ("analysis.plan.build", get("plan.build")),
        ("analysis.impact", get("impact.analyze")),
        ("analysis.impact.check", get("impact.check")),
        ("concurrent.commit", commit),
        ("parallel.apply_plan", par),
        ("store.propagate", get("store.propagate")),
        ("store.insert", get("store.insert")),
        (
            "store.get",
            trace::Agg {
                count: conv.count + conf.count,
                total_ns: conv.total_ns + conf.total_ns,
                self_ns: conv.self_ns + conf.self_ns,
            },
        ),
    ];
    let mut text = format!(
        "reconcile migration (mean ms/migration over {} traced migrations):",
        b.traced.len()
    );
    for (name, a) in &parts {
        let ms = if *name == "concurrent.commit" {
            a.self_ns
        } else {
            a.total_ns
        } as f64
            / n
            / MS;
        text.push_str(&format!(" {name} {ms:.3} +"));
    }
    text.push_str(&format!(
        " journal.io {:.3} + migration.other {:.3} = span {:.3}",
        (commit.total_ns - commit.self_ns) as f64 / n / MS,
        mig.self_ns as f64 / n / MS,
        mig.mean_ns() / MS
    ));
    out.line(text);
    out.line(format!(
        "parallel.vs_batch = apply_plan {:.3} ms / batch apply {:.3} ms per migration",
        par.mean_ns() / MS,
        batch.mean_ns() / MS
    ));
    out
}
