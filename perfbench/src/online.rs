//! `online`: schema evolution while the objectbase keeps serving.
//!
//! One closed-loop writer applies a seeded trace one op per
//! `JournaledSchema::apply`, waiting for each acknowledgement the way a
//! DDL session does. One open-loop reader sends a request every 0.5 ms
//! (2,000/s): `snapshot()` plus 16 derived-set lookups on seeded live
//! types, timed from the request's due time. The reader sleeps and then
//! spins the last 150 µs before each due time; sleeping alone added
//! ~60 µs of wake-up lag to a ~30 µs read.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use axiombase_core::journal::io::{JournalIo, StdIo};
use axiombase_core::journal::wire::encode_frame;
use axiombase_core::obs::names;
use axiombase_core::{
    EvolveObs, JournalOptions, JournaledSchema, MetricsRegistry, RecordedOp, RecoveryMode, Schema,
    TypeId,
};
use axiombase_workload::generate_trace;

use crate::common::{
    base_lattice, median_secs, Calibration, Digest, Outcome, Rng, Timing, MIX, MS, TAIL, US,
};
use crate::io::TimingIo;
use crate::trace;
use crate::Args;

/// Reader period: one request every 0.5 ms.
const READ_PERIOD: Duration = Duration::from_micros(500);
/// Derived-set lookups per reader request.
const LOOKUPS: usize = 16;
/// The reader spins, rather than sleeps, this long before a due time.
const SPIN: Duration = Duration::from_micros(150);
/// Trace attempts generated per measured second: the writer acknowledges
/// about 2,200 ops per second over a run today (4,000 at its start), so
/// the trace outlasts the run.
const ATTEMPTS_PER_SECOND: f64 = 4000.0;
/// Request ids of reader requests start here (writer ops use their index).
const READER_REQ: u64 = 1 << 40;

/// Generated inputs of one run.
struct Inputs {
    base: Schema,
    ops: Vec<RecordedOp>,
    /// Type-arena size after the first `i` ops (entry `i`).
    arena: Vec<u32>,
    /// Seeded draws for the reader, `LOOKUPS` per request.
    picks: Vec<u64>,
    digest: u64,
}

fn make_inputs(seed: u64, seconds: f64) -> Inputs {
    let (base, _) = base_lattice(Rng::new(seed, 1).next_u64());
    let attempts = (ATTEMPTS_PER_SECOND * seconds) as usize;
    let (ops, _) = generate_trace(&base, attempts, MIX, Rng::new(seed, 2).next_u64());
    let mut arena = Vec::with_capacity(ops.len() + 1);
    let mut size = base
        .iter_types()
        .map(|t| t.index() as u32 + 1)
        .max()
        .unwrap_or(0);
    arena.push(size);
    for op in &ops {
        if matches!(
            op,
            RecordedOp::AddType { .. }
                | RecordedOp::AddRootType { .. }
                | RecordedOp::AddBaseType { .. }
        ) {
            size += 1;
        }
        arena.push(size);
    }
    let requests = (seconds / READ_PERIOD.as_secs_f64()).ceil() as usize + 1;
    let mut rng = Rng::new(seed, 3);
    let picks: Vec<u64> = (0..requests * LOOKUPS).map(|_| rng.next_u64()).collect();
    let mut d = Digest::default();
    d.u64(base.fingerprint());
    d.ops(&ops);
    for &p in &picks {
        d.u64(p);
    }
    Inputs {
        base,
        ops,
        arena,
        picks,
        digest: d.value(),
    }
}

/// The `k`-th live type at or after `r mod hint`, wrapping below `hint`.
fn live_type(s: &Schema, r: u64, hint: u32) -> Option<TypeId> {
    let n = hint as usize;
    let start = (r % hint as u64) as usize;
    (0..n)
        .map(|k| TypeId::from_index((start + k) % n))
        .find(|&t| s.is_live(t))
}

/// One reader request's derived-set lookups on `snap`. `None` if a
/// lookup failed.
fn lookups(snap: &Schema, picks: &[u64], hint: u32) -> Option<usize> {
    let mut acc = 0usize;
    for (k, &r) in picks.iter().enumerate() {
        let t = live_type(snap, r, hint)?;
        acc ^= match k % 3 {
            0 => snap.interface(t).ok()?.len(),
            1 => {
                let s = live_type(snap, r.rotate_left(29), hint)?;
                usize::from(snap.is_supertype_of(s, t).ok()?)
            }
            _ => snap.all_subtypes(t).ok()?.len(),
        };
    }
    Some(acc)
}

#[derive(Default)]
struct WriterOut {
    lat: Vec<u64>,
    acked: usize,
    failed: u64,
    busy: Duration,
    checkpoints: u64,
    encoded_bytes: u64,
    shadow_failed: bool,
    cal: Calibration,
}

#[derive(Default)]
struct ReaderOut {
    lat: Vec<u64>,
    late: Vec<u64>,
    requests: u64,
    failed: u64,
    went_backwards: bool,
    last_holder: u64,
}

/// What the traced writer needs: the io wrapper (to see checkpoints) and
/// a uniquely owned copy of the pre-op schema to repeat `apply` on.
struct TracedWriter<'a> {
    tio: &'a TimingIo,
    shadow: Schema,
}

fn writer(
    js: &JournaledSchema,
    inp: &Inputs,
    from: usize,
    deadline: Instant,
    hint: &AtomicU32,
    mut traced: Option<&mut TracedWriter<'_>>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut frame = Vec::new();
    let begin = Instant::now();
    for (i, op) in inp.ops.iter().enumerate().skip(from) {
        if Instant::now() >= deadline {
            break;
        }
        let renames = traced.as_ref().map(|t| t.tio.stats().rename.calls);
        let t0 = Instant::now();
        let mut span = trace::top(i as u64, "evolve");
        let res = js.apply(op);
        let checkpointed = match (&traced, renames) {
            (Some(t), Some(r)) => t.tio.stats().rename.calls > r,
            _ => false,
        };
        if checkpointed {
            span.rename("evolve.checkpoint");
        }
        drop(span);
        out.lat.push(t0.elapsed().as_nanos() as u64);
        if res.is_err() {
            out.failed += 1;
            break;
        }
        out.acked += 1;
        hint.store(inp.arena[i + 1], Ordering::Release);
        out.cal.tick();
        if let Some(t) = traced.as_deref_mut() {
            // Repeat the steps `apply` does internally on identical input,
            // as siblings of the evolve span.
            {
                let _s = trace::top(i as u64, "engine.apply");
                if op.apply(&mut t.shadow).is_err() {
                    out.shadow_failed = true;
                }
            }
            {
                let _s = trace::top(i as u64, "wire.encode");
                frame.clear();
                encode_frame(&mut frame, i as u64 + 1, op);
            }
            out.encoded_bytes += frame.len() as u64;
            if checkpointed {
                out.checkpoints += 1;
                let _s = trace::top(i as u64, "snapshot.render");
                black_box(t.shadow.to_snapshot());
            }
        }
    }
    out.busy = begin.elapsed() - out.cal.spent;
    out
}

fn reader(
    js: &JournaledSchema,
    picks: &[u64],
    start: Instant,
    deadline: Instant,
    hint: &AtomicU32,
    req_base: u64,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut last_version = 0u64;
    for (i, picks) in picks.chunks_exact(LOOKUPS).enumerate() {
        let due = start + READ_PERIOD * i as u32;
        if due >= deadline {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > SPIN + Duration::from_micros(50) {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let began = Instant::now();
        let req = req_base + i as u64;
        let ok = {
            let _r = trace::top(req, "read");
            let hint = hint.load(Ordering::Acquire);
            let snap = {
                let _s = trace::child("snapshot");
                js.snapshot()
            };
            let version = snap.version();
            if version < last_version {
                out.went_backwards = true;
            }
            last_version = version;
            let got = {
                let _s = trace::child("lookup");
                lookups(&snap, picks, hint)
            };
            black_box(got);
            if Arc::strong_count(&snap) == 1 {
                out.last_holder += 1;
            }
            let _s = trace::child("release");
            drop(snap);
            got.is_some()
        };
        let done = Instant::now();
        out.late.push((began - due).as_nanos() as u64);
        out.lat.push((done - due).as_nanos() as u64);
        out.requests += 1;
        if !ok {
            out.failed += 1;
        }
    }
    out
}

/// Run writer and reader together until `seconds` have passed.
fn phase(
    js: &JournaledSchema,
    inp: &Inputs,
    from: usize,
    seconds: f64,
    traced: Option<&mut TracedWriter<'_>>,
) -> (WriterOut, ReaderOut) {
    let on = traced.is_some();
    let hint = AtomicU32::new(inp.arena[from]);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|sc| {
        let r = sc.spawn(|| {
            trace::set_enabled(on);
            let out = reader(js, &inp.picks, start, deadline, &hint, READER_REQ);
            trace::flush_thread();
            out
        });
        trace::set_enabled(on);
        let w = writer(js, inp, from, deadline, &hint, traced);
        trace::set_enabled(false);
        trace::flush_thread();
        (w, r.join().expect("reader thread panicked"))
    })
}

fn journal_dir(work: &Path, name: &str) -> PathBuf {
    let d = work.join(name);
    // A leftover from an interrupted run would make `create` refuse.
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, timed three times; the last one is used.
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut ready = None;
    for rep in 0..3 {
        // Drop the previous set-up before making the next.
        drop(ready.take());
        let t0 = Instant::now();
        let inp = make_inputs(args.seed, args.seconds);
        let dir = journal_dir(&args.work, &format!("online-{rep}"));
        let js = JournaledSchema::create(
            &dir,
            Arc::new(StdIo),
            inp.base.clone(),
            JournalOptions::default(),
        )
        .expect("create journal");
        setups.push(t0.elapsed());
        digests.push(inp.digest);
        ready = Some((inp, js, dir));
    }
    let (inp, js, dir) = ready.expect("three set-ups ran");
    out.digest = inp.digest;
    if digests.iter().any(|&d| d != inp.digest) {
        out.problem(format!("set-up produced different inputs: {digests:x?}"));
    }
    out.line(format!(
        "inputs: {} ops over a {}-type base, {} reader requests x {LOOKUPS} lookups",
        inp.ops.len(),
        inp.base.type_count(),
        inp.picks.len() / LOOKUPS
    ));

    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (w, r) = phase(&js, &inp, 0, untraced_secs, None);
    let mut oracle = inp.base.clone();
    check_phase(
        &mut out,
        &js,
        &dir,
        &inp,
        &mut oracle,
        0,
        w.acked,
        &w,
        &r,
        "untraced",
    );
    drop(js);

    let mut evolve_lat = w.lat.clone();
    let untraced = Timing::of(&mut evolve_lat, TAIL);
    if !args.trace {
        let mut read_lat = r.lat.clone();
        let reads = Timing::of(&mut read_lat, TAIL);
        let mut late = r.late.clone();
        let late = Timing::of(&mut late, 99.0);
        let ops_per_s = w.acked as f64 / w.busy.as_secs_f64();
        out.timing_line("evolve (JournaledSchema::apply, us)", &untraced, US, "us");
        out.timing_line("schema_read (from due time, us)", &reads, US, "us");
        out.timing_line("reader lateness (us)", &late, US, "us");
        out.line(format!(
            "evolve_ops_per_s: {ops_per_s:.1} ({} acked in {:.3} s of writer time)",
            w.acked,
            w.busy.as_secs_f64()
        ));
        crate::end_to_end(
            &mut out,
            &w.cal,
            &untraced,
            ops_per_s,
            &reads,
            median_secs(&setups),
        );
        out.attempted = (w.acked as u64 + w.failed) + r.requests;
        out.failed = w.failed + r.failed;
        return out;
    }

    // Traced half: a fresh observed journal, through the timing wrapper,
    // that replays the same ops from the base again. Both halves then
    // see the same growth of the type arena, which per-op cost follows,
    // so trace.overhead compares like with like.
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Arc::new(EvolveObs::new(Arc::clone(&registry)));
    let tio = Arc::new(TimingIo::new(Arc::new(StdIo)));
    let dir_b = journal_dir(&args.work, "online-traced");
    let state = inp.base.clone();
    let js = JournaledSchema::create_observed(
        &dir_b,
        Arc::clone(&tio) as Arc<dyn JournalIo>,
        state.clone(),
        JournalOptions::default(),
        obs,
    )
    .expect("create traced journal");
    let mut tw = TracedWriter {
        tio: &tio,
        shadow: state,
    };
    let io0 = tio.stats();
    let cow0 = registry.get(names::ENGINE_COW_COPIES);
    let derived0 = registry.get(names::ENGINE_TYPES_DERIVED);
    let (wb, rb) = phase(&js, &inp, 0, args.seconds / 2.0, Some(&mut tw));
    let io = tio.stats().since(&io0);
    let cow = registry.get(names::ENGINE_COW_COPIES) - cow0;
    let derived = registry.get(names::ENGINE_TYPES_DERIVED) - derived0;
    if wb.shadow_failed {
        out.problem("repeating an acknowledged op on the pre-op copy failed".into());
    }
    let mut oracle = inp.base.clone();
    check_phase(
        &mut out,
        &js,
        &dir_b,
        &inp,
        &mut oracle,
        0,
        wb.acked,
        &wb,
        &rb,
        "traced",
    );
    if tw.shadow.fingerprint() != oracle.fingerprint() {
        out.problem("the repeated-apply copy diverged from the oracle".into());
    }
    drop(js);
    let spans = trace::take_all();
    if let Err(e) = trace::write_tsv(
        &args.out.join(format!("spans-online-{}.tsv", args.seed)),
        &spans,
    ) {
        out.line(format!("could not write spans: {e}"));
    }
    let agg = trace::aggregate(&spans);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();

    let ops = wb.acked.max(1) as f64;
    let evolve = get("evolve");
    let ckpt = get("evolve.checkpoint");
    let span_ns = evolve.total_ns + ckpt.total_ns;
    let self_ns = evolve.self_ns + ckpt.self_ns;
    let apply = get("engine.apply");
    let encode = get("wire.encode");
    let render = get("snapshot.render");
    let stage_ns =
        self_ns as f64 - apply.total_ns as f64 - encode.total_ns as f64 - render.total_ns as f64;
    let io_ns = span_ns - self_ns;

    let mut tb = wb.lat.clone();
    let traced = Timing::of(&mut tb, TAIL);
    let mut late = rb.late.clone();
    let late = Timing::of(&mut late, 99.0);
    let read = get("read");
    let snap = get("snapshot");
    let lookup = get("lookup");
    let release = get("release");
    let reqs = rb.requests.max(1) as f64;

    out.metric("concurrent.stage_us", stage_ns / ops / US, "us");
    out.metric("concurrent.snapshot_us", snap.mean_ns() / US, "us");
    out.metric("concurrent.release_us", release.mean_ns() / US, "us");
    out.metric(
        "concurrent.last_holder_releases",
        rb.last_holder as f64 * 1000.0 / reqs,
        "count",
    );
    out.metric("engine.apply_us", apply.mean_ns() / US, "us");
    out.metric("engine.cow_copies_per_op", cow as f64 / ops, "count");
    out.metric("engine.types_derived_per_op", derived as f64 / ops, "count");
    out.metric("engine.lookup_us", lookup.mean_ns() / US, "us");
    out.metric("journal.wire.encode_us", encode.mean_ns() / US, "us");
    out.metric(
        "journal.wire.bytes_per_op",
        wb.encoded_bytes as f64 / ops,
        "bytes",
    );
    crate::io_metrics(&mut out, &io, ops, 0.0);
    out.metric("journal.checkpoint_ms", ckpt.mean_ns() / MS, "ms");
    out.metric(
        "journal.checkpoint_bytes",
        if wb.checkpoints == 0 {
            0.0
        } else {
            io.checkpoint_bytes as f64 / wb.checkpoints as f64
        },
        "bytes",
    );
    out.metric(
        "journal.checkpoints_per_kop",
        wb.checkpoints as f64 * 1000.0 / ops,
        "count",
    );
    out.metric("snapshot.render_ms", render.mean_ns() / MS, "ms");
    out.metric("reader.lateness_p99_us", late.tail_ns as f64 / US, "us");
    out.metric("calibration.factor", wb.cal.factor(), "ratio");
    out.metric("evolve.span_us", span_ns as f64 / ops / US, "us");
    out.metric("schema_read.span_us", read.mean_ns() / US, "us");
    out.metric(
        "schema_read.other_us",
        read.self_ns as f64 / reqs / US,
        "us",
    );
    crate::overhead_metrics(&mut out, &untraced, &traced);

    out.line(format!(
        "reconcile evolve (mean us/op over {} ops): io {:.2} + engine.apply {:.2} + wire.encode {:.3} + snapshot.render {:.2} + concurrent.stage (remainder) {:.2} = span {:.2}",
        wb.acked,
        io_ns as f64 / ops / US,
        apply.total_ns as f64 / ops / US,
        encode.total_ns as f64 / ops / US,
        render.total_ns as f64 / ops / US,
        stage_ns / ops / US,
        span_ns as f64 / ops / US,
    ));
    out.line(format!(
        "reconcile schema_read (mean us/request over {} requests): snapshot {:.2} + lookup {:.2} + release {:.2} + schema_read.other {:.2} = span {:.2}",
        rb.requests,
        snap.total_ns as f64 / reqs / US,
        lookup.total_ns as f64 / reqs / US,
        release.total_ns as f64 / reqs / US,
        read.self_ns as f64 / reqs / US,
        read.mean_ns() / US,
    ));
    out.line(format!(
        "engine counters over {} ops: {cow} cow copies, {derived} types derived; {} checkpoints",
        wb.acked, wb.checkpoints
    ));
    out.attempted = (w.acked + wb.acked) as u64 + w.failed + wb.failed + r.requests + rb.requests;
    out.failed = w.failed + wb.failed + r.failed + rb.failed;
    out
}

/// The `online` oracles for one phase: the live fingerprint and the
/// fingerprint after reopening both equal an in-memory replay of the same
/// ops, and reader versions never went backwards. Advances `oracle` past
/// the phase's ops.
#[allow(clippy::too_many_arguments)]
fn check_phase(
    out: &mut Outcome,
    js: &JournaledSchema,
    dir: &Path,
    inp: &Inputs,
    oracle: &mut Schema,
    from: usize,
    acked: usize,
    w: &WriterOut,
    r: &ReaderOut,
    label: &str,
) {
    if oracle.apply_trace(&inp.ops[from..from + acked]).is_err() {
        out.problem(format!(
            "{label}: the in-memory replay rejected an acknowledged op"
        ));
        return;
    }
    let want = oracle.fingerprint();
    if js.snapshot().fingerprint() != want {
        out.problem(format!(
            "{label}: live fingerprint differs from the in-memory replay"
        ));
    }
    match JournaledSchema::open(
        dir,
        Arc::new(StdIo),
        RecoveryMode::Strict,
        JournalOptions::default(),
    ) {
        Ok((reopened, _)) if reopened.snapshot().fingerprint() == want => {}
        Ok(_) => out.problem(format!(
            "{label}: reopened fingerprint differs from the in-memory replay"
        )),
        Err(e) => out.problem(format!("{label}: reopening the journal failed: {e}")),
    }
    if r.went_backwards {
        out.problem(format!(
            "{label}: the reader saw a snapshot version go backwards"
        ));
    }
    if w.failed > 0 {
        out.line(format!("{label}: {} evolve(s) failed", w.failed));
    }
}
