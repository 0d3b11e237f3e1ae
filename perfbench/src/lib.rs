//! End-to-end benchmark of axiombase, driven only through its public API.
//!
//! Three seeded workloads each load a different layer and leave others
//! idle: `online` (durable single-op evolution under a paced reader),
//! `migrate` (analysed, certified, replicated and propagated 200-op
//! migrations over a 100k-object store) and `restart` (recovery and
//! time-travel reads of 2,250-op WALs). An untraced run reports the
//! end-to-end metrics; a traced run times each call into a layer as a
//! span and reports the per-layer metrics, its reconciliation against the
//! end-to-end span, and the tracing overhead. `run.py` builds and drives
//! this crate; `layers.json` says which metric each layer should move.

pub mod common;
pub mod io;
pub mod migrate;
pub mod online;
pub mod restart;
pub mod trace;

use std::path::PathBuf;

use common::{Calibration, Outcome, Timing, MS, US};
use io::IoStats;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Directory the journals are written under.
    pub work: PathBuf,
    /// Directory for span dumps.
    pub out: PathBuf,
}

/// End-to-end metrics of the result line: every workload reports each of
/// them for its own operations (see `BENCHMARK.json`). Throughput, tails
/// and reads are printed in the report only: on a shared 2-vCPU VM they
/// moved by more than 25% between runs of the same code in noisy phases,
/// while these held.
pub const END_TO_END: &[(&str, &str)] = &[("step_p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics of the traced run. A workload that leaves a layer
/// idle reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("concurrent.stage_us", "us"),
    ("concurrent.snapshot_us", "us"),
    ("concurrent.release_us", "us"),
    ("concurrent.last_holder_releases", "count"),
    ("concurrent.commit_ms", "ms"),
    ("engine.apply_us", "us"),
    ("engine.cow_copies_per_op", "count"),
    ("engine.types_derived_per_op", "count"),
    ("engine.lookup_us", "us"),
    ("engine.batch_apply_ms", "ms"),
    ("journal.wire.encode_us", "us"),
    ("journal.wire.bytes_per_op", "bytes"),
    ("journal.wire.decode_ms", "ms"),
    ("journal.io.append_us", "us"),
    ("journal.io.fsync_us", "us"),
    ("journal.io.fsyncs_per_op", "count"),
    ("journal.io.bytes_written_per_op", "bytes"),
    ("journal.io.read_ms", "ms"),
    ("journal.io.bytes_read", "bytes"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.checkpoint_bytes", "bytes"),
    ("journal.checkpoints_per_kop", "count"),
    ("journal.recover.parse_ms", "ms"),
    ("journal.recover.replay_ms", "ms"),
    ("journal.recover.replayed_ops", "count"),
    ("journal.recover.other_ms", "ms"),
    ("snapshot.render_ms", "ms"),
    ("analysis.commute_ms", "ms"),
    ("analysis.pairs", "count"),
    ("analysis.plan.build_ms", "ms"),
    ("analysis.plan.check_ms", "ms"),
    ("analysis.plan.classes", "count"),
    ("analysis.plan.stages", "count"),
    ("analysis.impact_ms", "ms"),
    ("analysis.impact.check_ms", "ms"),
    ("analysis.impact.obligations", "count"),
    ("parallel.apply_plan_ms", "ms"),
    ("parallel.vs_batch", "ratio"),
    ("store.propagate_ms", "ms"),
    ("store.objects_scanned", "count"),
    ("store.marked_stale", "count"),
    ("store.insert_us", "us"),
    ("store.read_converting_us", "us"),
    ("store.read_conforming_us", "us"),
    ("store.lazy_conversions_per_read", "ratio"),
    ("reader.lateness_p99_us", "us"),
    ("evolve.span_us", "us"),
    ("schema_read.span_us", "us"),
    ("schema_read.other_us", "us"),
    ("migration.span_ms", "ms"),
    ("migration.other_ms", "ms"),
    ("recover.span_ms", "ms"),
    ("open_at.span_ms", "ms"),
    ("calibration.factor", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
];

/// The `journal.io.*` metrics from the wrapper's totals: write-side
/// figures per committed schema op, read-side figures per request.
/// A zero divisor means the workload leaves that side idle.
pub fn io_metrics(out: &mut Outcome, io: &IoStats, ops: f64, requests: f64) {
    let per = |v: f64, n: f64| if n > 0.0 { v / n } else { 0.0 };
    out.metric(
        "journal.io.append_us",
        per(io.append.ns as f64, io.append.calls as f64) / US,
        "us",
    );
    out.metric(
        "journal.io.fsync_us",
        per(io.fsync.ns as f64, io.fsync.calls as f64) / US,
        "us",
    );
    out.metric(
        "journal.io.fsyncs_per_op",
        per(io.fsyncs() as f64, ops),
        "count",
    );
    out.metric(
        "journal.io.bytes_written_per_op",
        per(io.bytes_written() as f64, ops),
        "bytes",
    );
    out.metric(
        "journal.io.read_ms",
        per(io.read.ns as f64, requests) / MS,
        "ms",
    );
    out.metric(
        "journal.io.bytes_read",
        per(io.read.bytes as f64, requests),
        "bytes",
    );
}

/// The end-to-end metrics of an untraced run, scaled to the reference
/// machine speed by `cal` (see [`Calibration`]), plus report lines with
/// the raw values and the scaled tails and reads.
pub fn end_to_end(
    out: &mut Outcome,
    cal: &Calibration,
    step: &Timing,
    ops_per_s: f64,
    read: &Timing,
    setup_s: f64,
) {
    let f = cal.factor();
    out.line(cal.line());
    out.line(format!(
        "raw: step p50 {:.4} ms, p{} {:.4} ms, {ops_per_s:.1} ops/s; read p50 {:.3} us, p{} {:.3} us; setup {setup_s:.4} s",
        step.p50_ns as f64 / MS,
        step.tail_q,
        step.tail_ns as f64 / MS,
        read.p50_ns as f64 / US,
        read.tail_q,
        read.tail_ns as f64 / US,
    ));
    out.line(format!(
        "scaled, report only: step p{} {:.4} ms, {:.1} ops/s; read p50 {:.3} us, p{} {:.3} us",
        step.tail_q,
        step.tail_ns as f64 / MS * f,
        ops_per_s / f,
        read.p50_ns as f64 / US * f,
        read.tail_q,
        read.tail_ns as f64 / US * f,
    ));
    out.metric("step_p50_ms", step.p50_ns as f64 / MS * f, "ms");
    out.metric("setup_s", setup_s * f, "s");
}

/// `trace.overhead`, traced ÷ untraced median of the workload's step,
/// with both medians as its base.
pub fn overhead_metrics(out: &mut Outcome, untraced: &Timing, traced: &Timing) {
    let ratio = if untraced.p50_ns == 0 {
        0.0
    } else {
        traced.p50_ns as f64 / untraced.p50_ns as f64
    };
    out.metric("trace.overhead", ratio, "ratio");
    out.metric("trace.untraced_p50_ms", untraced.p50_ns as f64 / MS, "ms");
    out.metric("trace.traced_p50_ms", traced.p50_ns as f64 / MS, "ms");
    out.line(format!(
        "trace.overhead = {ratio:.4} (traced step p50 {:.4} ms over untraced step p50 {:.4} ms, n={} and n={})",
        traced.p50_ns as f64 / MS,
        untraced.p50_ns as f64 / MS,
        traced.n,
        untraced.n
    ));
}

/// Run the workload `args` names. `None` for an unknown name.
pub fn run(args: &Args) -> Option<Outcome> {
    match args.workload.as_str() {
        "online" => Some(online::run(args)),
        "migrate" => Some(migrate::run(args)),
        "restart" => Some(restart::run(args)),
        _ => None,
    }
}

/// Render the result line: every declared metric of the run's kind, in
/// declaration order. A declared metric the workload did not measure is a
/// layer it leaves idle and reads 0; an undeclared or non-finite one is a
/// bug and makes the run incorrect.
pub fn result_line(args: &Args, out: &mut Outcome) -> String {
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for m in &out.metrics {
        if !declared.iter().any(|&(n, u)| n == m.name && u == m.unit) {
            out.problems
                .push(format!("metric {} ({}) is not declared", m.name, m.unit));
        }
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| if m.value.is_finite() { m.value } else { 0.0 });
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

/// A finite `f64` as a JSON number with all its digits (`Debug` prints
/// the shortest form that reads back exactly).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}
