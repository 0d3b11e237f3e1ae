//! `restart`: an operator reopening the database and auditing its history.
//!
//! Set-up writes four journals, each a checkpoint of its own base lattice
//! plus a WAL suffix of 2,250 `online`-style ops, one frame per op, with
//! no checkpoint after the first. The timed loop alternates
//! `Journal::open(Strict)` with `Journal::replay_at(seq)` at seeded
//! sequence numbers, cycling through the journals. A recovery costs the
//! sum of its ops, whose cost is heavy-tailed, so one journal's recovery
//! time varied by 1.5x between seeds; four per run average that out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use axiombase_core::journal::io::{JournalIo, StdIo};
use axiombase_core::journal::wire::{crc32, read_frame, FrameResult, WAL_MAGIC};
use axiombase_core::journal::Journal;
use axiombase_core::obs::names;
use axiombase_core::{
    EvolveObs, JournalOptions, JournaledSchema, MetricsRegistry, RecordedOp, RecoveryMode, Schema,
};
use axiombase_workload::generate_trace;

use crate::common::{
    base_lattice, median_secs, Calibration, Digest, Outcome, Rng, Timing, MIX, MS, TAIL, US,
};
use crate::io::TimingIo;
use crate::trace;
use crate::Args;

/// WAL suffix length, in ops.
const SUFFIX: usize = 2250;
/// Journals per run.
const JOURNALS: usize = 4;
/// Seeded `replay_at` targets drawn per journal (more than a run uses).
const SEQS: usize = 256;

/// One journal and its oracles.
struct Log {
    dir: PathBuf,
    ops: Vec<RecordedOp>,
    seqs: Vec<u64>,
    /// Fingerprint after each seq in `seqs` (and after the whole suffix).
    prefix_fp: BTreeMap<u64, u64>,
    checkpoint: Vec<u8>,
    wal: Vec<u8>,
}

struct Inputs {
    logs: Vec<Log>,
    digest: u64,
}

fn make_inputs(seed: u64, dir: &Path) -> Inputs {
    let mut d = Digest::default();
    let logs: Vec<Log> = (0..JOURNALS)
        .map(|k| {
            let log = make_log(
                Rng::new(seed, 10 + k as u64).next_u64(),
                &dir.join(format!("j{k}")),
            );
            d.ops(&log.ops);
            for &q in &log.seqs {
                d.u64(q);
            }
            log
        })
        .collect();
    Inputs {
        logs,
        digest: d.value(),
    }
}

fn make_log(seed: u64, dir: &Path) -> Log {
    let (base, _) = base_lattice(Rng::new(seed, 1).next_u64());
    let mut attempts = SUFFIX * 3 / 2;
    let ops = loop {
        let (ops, _) = generate_trace(&base, attempts, MIX, Rng::new(seed, 2).next_u64());
        if ops.len() >= SUFFIX {
            break ops[..SUFFIX].to_vec();
        }
        attempts *= 2;
    };
    let mut rng = Rng::new(seed, 3);
    let seqs: Vec<u64> = (0..SEQS).map(|_| rng.below(SUFFIX + 1) as u64).collect();

    let mut prefix_fp = BTreeMap::new();
    let wanted: std::collections::BTreeSet<u64> =
        seqs.iter().copied().chain([SUFFIX as u64]).collect();
    let mut s = base.clone();
    let mut at = 0u64;
    for &q in &wanted {
        s.apply_trace(&ops[at as usize..q as usize])
            .expect("generated trace replays");
        at = q;
        prefix_fp.insert(q, s.fingerprint());
    }

    // One batch append writes the same frames, one per op, as 2,250
    // single appends would, with one fsync instead of 2,250.
    let js = JournaledSchema::create(
        dir,
        Arc::new(StdIo),
        base,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("create journal");
    js.apply_trace(&ops).expect("write the WAL suffix");
    drop(js);
    let mut checkpoint = Vec::new();
    let mut wal = Vec::new();
    for e in std::fs::read_dir(dir).expect("list journal") {
        let p = e.expect("journal entry").path();
        let name = p
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if name.starts_with("checkpoint-") {
            checkpoint = std::fs::read(&p).expect("read checkpoint");
        } else if name.starts_with("wal-") {
            wal = std::fs::read(&p).expect("read wal");
        }
    }

    Log {
        dir: dir.to_path_buf(),
        ops,
        seqs,
        prefix_fp,
        checkpoint,
        wal,
    }
}

#[derive(Default)]
struct PhaseOut {
    /// Untraced recovery and time-travel latencies, ns.
    recover: Vec<u64>,
    open_at: Vec<u64>,
    /// Traced recovery latencies, ns.
    traced_recover: Vec<u64>,
    /// Ops replayed by untraced recoveries, and by traced ones.
    replayed: u64,
    traced_replayed: u64,
    attempted: u64,
    failed: u64,
    /// Ops replayed by the sibling repeats, and the decode/replay failures.
    sibling_ops: u64,
    sibling_failed: bool,
    cal: Calibration,
}

/// Repeat the steps of one `open` / `replay_at` on the same bytes, as
/// sibling spans of request `req`: checkpoint parse, frame decode over the
/// whole WAL, and single-op replay of the frames up to `upto`.
fn siblings(req: u64, inp: &Log, upto: u64, out: &mut PhaseOut) {
    let schema = {
        let _s = trace::top(req, "recover.parse");
        let text = std::str::from_utf8(&inp.checkpoint).ok();
        let body = text.and_then(|t| t.split_once('\n')).map(|(_, b)| b);
        body.and_then(|b| {
            black_box(crc32(&[b.as_bytes()]));
            Schema::from_snapshot(b).ok()
        })
    };
    let ops = {
        let _s = trace::top(req, "recover.decode");
        let mut ops = Vec::with_capacity(inp.ops.len());
        let mut off = WAL_MAGIC.len();
        while let FrameResult::Record(f) = read_frame(&inp.wal, off) {
            off = f.next;
            ops.push((f.seq, f.op));
        }
        ops
    };
    let Some(mut schema) = schema else {
        out.sibling_failed = true;
        return;
    };
    let _s = trace::top(req, "recover.replay");
    for (_, op) in ops.iter().take_while(|(s, _)| *s <= upto) {
        if op.apply(&mut schema).is_err() {
            out.sibling_failed = true;
            return;
        }
        out.sibling_ops += 1;
    }
}

/// The io and observer a traced request uses.
struct Traced {
    io: Arc<dyn JournalIo>,
    obs: Arc<EvolveObs>,
}

/// Alternate recoveries and time-travel reads until `seconds` pass. In a
/// traced run every second pair is traced, so traced and untraced pairs
/// interleave.
fn phase(
    out_lines: &mut Outcome,
    inputs: &Inputs,
    seconds: f64,
    traced_run: Option<&Traced>,
) -> PhaseOut {
    let bare: Arc<dyn JournalIo> = Arc::new(StdIo);
    let mut out = PhaseOut::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pair = 0u64;
    while Instant::now() < deadline {
        out.cal.tick();
        let traced = traced_run.filter(|_| pair % 2 == 1);
        trace::set_enabled(traced.is_some());
        let io = traced.map_or(&bare, |t| &t.io);
        let inp = &inputs.logs[pair as usize % JOURNALS];
        let dir = inp.dir.as_path();
        let want_tip = inp.prefix_fp[&(SUFFIX as u64)];
        let seq = inp.seqs[pair as usize / JOURNALS % inp.seqs.len()];
        let req = 2 * pair;
        pair += 1;

        // Recovery.
        out.attempted += 1;
        let t0 = Instant::now();
        let got = {
            let _s = trace::top(req, "recover");
            match traced {
                Some(t) => Journal::open_observed(
                    dir,
                    Arc::clone(io),
                    RecoveryMode::Strict,
                    Arc::clone(&t.obs),
                ),
                None => Journal::open(dir, Arc::clone(io), RecoveryMode::Strict),
            }
        };
        let took = t0.elapsed().as_nanos() as u64;
        match got {
            Ok((_, schema, report)) => {
                if traced.is_some() {
                    out.traced_recover.push(took);
                    out.traced_replayed += report.replayed as u64;
                } else {
                    out.recover.push(took);
                    out.replayed += report.replayed as u64;
                }
                if schema.fingerprint() != want_tip || report.replayed != SUFFIX {
                    out_lines.problem(format!(
                        "recovery replayed {} ops to a state other than the written one",
                        report.replayed
                    ));
                }
            }
            Err(e) => {
                out.failed += 1;
                out_lines.line(format!("recovery failed: {e}"));
            }
        }
        if traced.is_some() {
            siblings(req, inp, SUFFIX as u64, &mut out);
        }

        // Time-travel read.
        out.attempted += 1;
        let t0 = Instant::now();
        let got = {
            let _s = trace::top(req + 1, "open_at");
            Journal::replay_at(dir, io.as_ref(), seq)
        };
        if traced.is_none() {
            out.open_at.push(t0.elapsed().as_nanos() as u64);
        }
        match got {
            Ok(schema) => {
                if schema.fingerprint() != inp.prefix_fp[&seq] {
                    out_lines.problem(format!("replay_at({seq}) differs from the prefix oracle"));
                }
            }
            Err(e) => {
                out.failed += 1;
                out_lines.line(format!("replay_at({seq}) failed: {e}"));
            }
        }
        if traced.is_some() {
            siblings(req + 1, inp, seq, &mut out);
        }
    }
    trace::set_enabled(false);
    out
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut ready = None;
    for rep in 0..3 {
        let dir = args.work.join(format!("restart-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let inp = make_inputs(args.seed, &dir);
        setups.push(t0.elapsed());
        digests.push(inp.digest);
        ready = Some(inp);
    }
    let inp = ready.expect("three set-ups ran");
    out.digest = inp.digest;
    if digests.iter().any(|&d| d != inp.digest) {
        out.problem(format!("set-up produced different inputs: {digests:x?}"));
    }
    for (k, log) in inp.logs.iter().enumerate() {
        out.line(format!(
            "inputs: journal {k}: checkpoint {} bytes + WAL {} bytes ({} frames); {} seeded replay_at targets",
            log.checkpoint.len(),
            log.wal.len(),
            log.ops.len(),
            log.seqs.len()
        ));
    }

    let registry = Arc::new(MetricsRegistry::new());
    let tio = Arc::new(TimingIo::new(Arc::new(StdIo)));
    let traced_io = Traced {
        io: Arc::clone(&tio) as Arc<dyn JournalIo>,
        obs: Arc::new(EvolveObs::new(Arc::clone(&registry))),
    };
    let b = phase(
        &mut out,
        &inp,
        args.seconds,
        args.trace.then_some(&traced_io),
    );
    out.attempted = b.attempted;
    out.failed = b.failed;
    let mut ra = b.recover.clone();
    let untraced = Timing::of(&mut ra, TAIL);

    if !args.trace {
        let mut oa = b.open_at.clone();
        let open_at = Timing::of(&mut oa, TAIL);
        let recover_s: f64 = b.recover.iter().sum::<u64>() as f64 / 1e9;
        let ops_per_s = b.replayed as f64 / recover_s;
        out.timing_line("recover (Journal::open, ms)", &untraced, MS, "ms");
        out.timing_line("open_at (Journal::replay_at, ms)", &open_at, MS, "ms");
        out.line(format!(
            "recovery replay rate: {ops_per_s:.1} ops/s ({} ops in {recover_s:.3} s)",
            b.replayed
        ));
        crate::end_to_end(
            &mut out,
            &b.cal,
            &untraced,
            ops_per_s,
            &open_at,
            median_secs(&setups),
        );
        return out;
    }

    let iost = tio.stats();
    if b.sibling_failed {
        out.problem("repeating parse/decode/replay on the journal bytes failed".into());
    }
    let spans = trace::take_all();
    if let Err(e) = trace::write_tsv(
        &args.out.join(format!("spans-restart-{}.tsv", args.seed)),
        &spans,
    ) {
        out.line(format!("could not write spans: {e}"));
    }
    let agg = trace::aggregate(&spans);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let rec = get("recover");
    let oat = get("open_at");
    let parse = get("recover.parse");
    let decode = get("recover.decode");
    let replay = get("recover.replay");
    let reqs = (rec.count + oat.count).max(1) as f64;
    let span_ns = (rec.total_ns + oat.total_ns) as f64;
    let io_ns = span_ns - (rec.self_ns + oat.self_ns) as f64;
    let other_ns = (rec.self_ns + oat.self_ns) as f64
        - (parse.total_ns + decode.total_ns + replay.total_ns) as f64;
    let cow = registry.get(names::ENGINE_COW_COPIES);
    let derived = registry.get(names::ENGINE_TYPES_DERIVED);
    let rec_ops = b.traced_replayed.max(1) as f64;

    let mut rb = b.traced_recover.clone();
    let traced = Timing::of(&mut rb, TAIL);
    out.metric(
        "engine.apply_us",
        if b.sibling_ops == 0 {
            0.0
        } else {
            replay.total_ns as f64 / b.sibling_ops as f64 / US
        },
        "us",
    );
    out.metric("engine.cow_copies_per_op", cow as f64 / rec_ops, "count");
    out.metric(
        "engine.types_derived_per_op",
        derived as f64 / rec_ops,
        "count",
    );
    out.metric("journal.wire.decode_ms", decode.mean_ns() / MS, "ms");
    crate::io_metrics(&mut out, &iost, 0.0, reqs);
    out.metric("journal.recover.parse_ms", parse.mean_ns() / MS, "ms");
    out.metric("journal.recover.replay_ms", replay.mean_ns() / MS, "ms");
    out.metric(
        "journal.recover.replayed_ops",
        b.sibling_ops as f64 / reqs,
        "count",
    );
    out.metric("journal.recover.other_ms", other_ns / reqs / MS, "ms");
    out.metric("recover.span_ms", rec.mean_ns() / MS, "ms");
    out.metric("calibration.factor", b.cal.factor(), "ratio");
    out.metric("open_at.span_ms", oat.mean_ns() / MS, "ms");
    crate::overhead_metrics(&mut out, &untraced, &traced);
    out.line(format!(
        "reconcile restart (mean ms/request over {} recover + {} open_at): io {:.3} + parse {:.3} + decode {:.3} + replay {:.3} + journal.recover.other {:.3} = span {:.3}",
        rec.count,
        oat.count,
        io_ns / reqs / MS,
        parse.total_ns as f64 / reqs / MS,
        decode.total_ns as f64 / reqs / MS,
        replay.total_ns as f64 / reqs / MS,
        other_ns / reqs / MS,
        span_ns / reqs / MS,
    ));
    out
}
