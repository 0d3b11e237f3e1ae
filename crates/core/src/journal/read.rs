//! The journal's read rules: how every reader walks a journal directory.
//!
//! Recovery in all three [`RecoveryMode`](super::RecoveryMode)s, time
//! travel ([`Journal::replay_at`]), [`Journal::inspect`] (the CLI `log`),
//! [`Journal::diagnose`] (`doctor`), the append path's
//! [`Journal::repair_tail`], merge's suffix read and the CLI's trace
//! loaders ([`Journal::read_history`]) all read through the two rules
//! below. They differ only in the visitor they pass and in what they do
//! with each [`Stop`] the walk reports.
//!
//! 1. **One checkpoint.** [`Layout::read`] selects the newest
//!    `checkpoint-*.axb` whose file name, header, checksum and snapshot
//!    agree. It is parsed and validated once, into [`Inputs`] that nothing
//!    has derived. A reader that needs a schema replays its frames on those
//!    inputs as one batch whose end is the only derivation, a full one
//!    ([`Inputs::build`]); a reader that needs only verdicts derives
//!    nothing ([`Inputs::check`]). Newer checkpoints that fail a check come
//!    back as skipped.
//! 2. **One chained walk.** [`walk`] reads the WAL segments in base order,
//!    each once, and decodes each frame once. Frames the checkpoint (or an
//!    earlier segment) covers are skipped; a frame with `seq == cur + 1`
//!    goes to the visitor. Anything else ends the segment as a [`Stop`]:
//!
//! | finding | repairable |
//! |---|---|
//! | torn frame in the last segment (crash mid-append) | yes: truncate it |
//! | torn WAL magic (crash mid-create) | yes: rewrite the magic |
//! | foreign WAL magic | no |
//! | corrupt frame (checksum, decode, implausible length) | no |
//! | torn frame in a non-final segment | no |
//! | sequence gap | no |
//! | frame the visitor refuses (its op does not replay) | no |
//!
//! A repairable finding never holds an acknowledged record, so every
//! reader goes on past it. Strict recovery repairs it and refuses every
//! other finding (and every skipped checkpoint) with the error
//! [`Stop::error`] names; [`Journal::diagnose`] is strict recovery without
//! the writes, so `doctor` calls a directory serviceable exactly when a
//! strict open succeeds, at the same durable sequence. DESIGN.md §8 has
//! what salvage and quarantine do with each finding.

use std::path::Path;

use crate::error::SchemaError;
use crate::history::RecordedOp;
use crate::json_escape;
use crate::model::Schema;
use crate::snapshot::Inputs;

use super::io::JournalIo;
use super::wire::{parse_header, read_frame, Frame, FrameResult, WAL_MAGIC};
use super::{parse_name, Journal, JournalError};

/// Why a log suffix was dropped during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// The file ended inside a frame — a crash mid-append. The record was
    /// never acknowledged, so nothing durable is lost.
    TornTail,
    /// A complete frame failed its checksum or did not decode (salvage
    /// mode only — strict mode refuses instead).
    Corrupt,
    /// Valid records whose sequence numbers do not chain onto the
    /// recovered prefix (salvage mode only).
    SequenceGap,
    /// A logged operation was rejected by the schema during replay
    /// (salvage mode only).
    ReplayRejected,
}

impl std::fmt::Display for DropKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropKind::TornTail => "torn tail",
            DropKind::Corrupt => "corrupt record",
            DropKind::SequenceGap => "sequence gap",
            DropKind::ReplayRejected => "replay rejected",
        };
        f.write_str(s)
    }
}

/// The log suffix recovery dropped, reported byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedTail {
    /// WAL file the suffix was dropped from.
    pub file: String,
    /// Byte offset the file was truncated to.
    pub offset: usize,
    /// Number of bytes dropped.
    pub bytes: usize,
    /// Why the suffix was invalid.
    pub kind: DropKind,
    /// Human-readable detail (checksum values, decode error, …).
    pub detail: String,
}

impl std::fmt::Display for DroppedTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (bytes, file, offset) = (self.bytes, &self.file, self.offset);
        write!(
            f,
            "{bytes} byte(s) at {file}+{offset} ({}): {}",
            self.kind, self.detail
        )
    }
}

impl DroppedTail {
    /// Render as a JSON object.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"offset\":{},\"bytes\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(&self.file),
            self.offset,
            self.bytes,
            self.kind,
            json_escape(&self.detail)
        )
    }
}

/// A damaged checkpoint the reader skipped over: strict recovery refuses
/// it, salvage and quarantine renamed it to `<file>.quar`.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCheckpoint {
    /// The damaged checkpoint file.
    pub file: String,
    /// What was wrong with it.
    pub detail: String,
}

/// One chained WAL entry (used by [`Journal::inspect`] / the CLI `log`
/// subcommand).
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Global sequence number of the operation.
    pub seq: u64,
    /// The operation.
    pub op: RecordedOp,
    /// WAL file the record lives in.
    pub file: String,
    /// Byte offset of the frame within that file.
    pub offset: usize,
}

/// A read-only listing of a journal directory (see [`Journal::inspect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Inspection {
    /// Base sequence number of the newest verified checkpoint.
    pub checkpoint_seq: u64,
    /// Its file name.
    pub checkpoint_file: String,
    /// Newer checkpoints that failed verification, newest first.
    pub skipped_checkpoints: Vec<SkippedCheckpoint>,
    /// The chained WAL entries on top of the checkpoint, in sequence
    /// order: the history recovery replays.
    pub entries: Vec<LogEntry>,
    /// Where the walk stopped short of the end of the log, if it did. A
    /// read-only scan reports it but modifies nothing.
    pub tail: Option<DroppedTail>,
}

/// A read-only health diagnosis of a journal directory (the CLI `doctor`
/// subcommand and the `stats` degraded fallback). Never modifies anything.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Health {
    /// One of `healthy`, `repairable`, `corrupt`, `uninitialized`,
    /// `unreadable`.
    pub status: &'static str,
    /// Base sequence of the checkpoint strict recovery starts from, if any.
    pub checkpoint_seq: Option<u64>,
    /// Last sequence number strict recovery replays up to, if it gets
    /// past the checkpoint.
    pub durable_seq: Option<u64>,
    /// WAL segment files present (`wal-*.log`).
    pub wal_files: usize,
    /// Quarantined files present (`*.quar`: segments and checkpoints).
    pub quarantined_files: usize,
    /// Where the walk stopped short of the end of the log, if it did.
    pub tail: Option<DroppedTail>,
    /// Why strict recovery refuses the directory (or could not read it).
    pub error: Option<String>,
    /// What to do about it.
    pub advice: String,
}

impl Health {
    /// `true` when the journal can serve appends after (at most) a normal
    /// recovery open — `healthy` or `repairable`.
    pub fn is_serviceable(&self) -> bool {
        matches!(self.status, "healthy" | "repairable")
    }

    /// Render as human-readable text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "status: {}", self.status);
        if let Some(s) = self.checkpoint_seq {
            let _ = writeln!(out, "checkpoint seq: {s}");
        }
        if let Some(s) = self.durable_seq {
            let _ = writeln!(out, "durable seq: {s}");
        }
        let _ = writeln!(
            out,
            "wal files: {} ({} quarantined)",
            self.wal_files, self.quarantined_files
        );
        if let Some(t) = &self.tail {
            let _ = writeln!(out, "invalid tail: {t}");
        }
        if let Some(e) = &self.error {
            let _ = writeln!(out, "error: {e}");
        }
        let _ = writeln!(out, "advice: {}", self.advice);
        out
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!("\"status\":\"{}\"", json_escape(self.status)));
        match self.checkpoint_seq {
            Some(s) => out.push_str(&format!(",\"checkpoint_seq\":{s}")),
            None => out.push_str(",\"checkpoint_seq\":null"),
        }
        match self.durable_seq {
            Some(s) => out.push_str(&format!(",\"durable_seq\":{s}")),
            None => out.push_str(",\"durable_seq\":null"),
        }
        out.push_str(&format!(
            ",\"wal_files\":{},\"quarantined_files\":{}",
            self.wal_files, self.quarantined_files
        ));
        match &self.tail {
            Some(t) => out.push_str(&format!(",\"tail\":{}", t.to_json())),
            None => out.push_str(",\"tail\":null"),
        }
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":\"{}\"", json_escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(&format!(",\"advice\":\"{}\"", json_escape(&self.advice)));
        out.push('}');
        out
    }
}

/// A checkpoint whose file name, header, checksum and snapshot agree.
pub(crate) struct Checkpoint {
    /// Its base sequence number.
    pub(crate) seq: u64,
    /// Its file name.
    pub(crate) file: String,
    /// The validated inputs it holds, not yet derived: where every read
    /// starts.
    pub(crate) inputs: Inputs,
}

/// A journal directory as the read rules select it.
pub(crate) struct Layout {
    /// The newest verified checkpoint.
    pub(crate) checkpoint: Checkpoint,
    /// Newer checkpoints that failed verification, newest first.
    pub(crate) skipped: Vec<SkippedCheckpoint>,
    /// The WAL segments, `(base, name)` in base order.
    pub(crate) wals: Vec<(u64, String)>,
}

impl Layout {
    /// List `dir` and load its checkpoint, newest first, stopping at the
    /// first that verifies. Without one, the newest damaged checkpoint is
    /// the error (`NoCheckpoint` when there is none at all).
    pub(crate) fn read(io: &dyn JournalIo, dir: &Path) -> Result<Layout, JournalError> {
        let names = io.list(dir)?;
        let files = |prefix: &str, suffix: &str| {
            let mut files: Vec<(u64, String)> = names
                .iter()
                .filter_map(|n| parse_name(n, prefix, suffix).map(|s| (s, n.clone())))
                .collect();
            files.sort();
            files
        };
        let mut skipped = Vec::new();
        for (seq, file) in files("checkpoint-", ".axb").into_iter().rev() {
            match parse_checkpoint(&io.read(&dir.join(&file))?, seq) {
                Ok(inputs) => {
                    let checkpoint = Checkpoint { seq, file, inputs };
                    let wals = files("wal-", ".log");
                    return Ok(Layout {
                        checkpoint,
                        skipped,
                        wals,
                    });
                }
                Err(detail) => skipped.push(SkippedCheckpoint { file, detail }),
            }
        }
        Err(skipped
            .into_iter()
            .next()
            .map_or(JournalError::NoCheckpoint, refuse))
    }

    /// Strict recovery's rule for checkpoints: a damaged newer one is
    /// refused, not skipped.
    pub(crate) fn strict(mut self) -> Result<Layout, JournalError> {
        if self.skipped.is_empty() {
            return Ok(self);
        }
        Err(refuse(self.skipped.swap_remove(0)))
    }
}

/// Strict recovery's refusal of a damaged checkpoint.
fn refuse(skipped: SkippedCheckpoint) -> JournalError {
    JournalError::BadCheckpoint {
        file: skipped.file,
        detail: skipped.detail,
    }
}

/// Verify a checkpoint file against the sequence its name carries:
/// header, checksum, then snapshot. The error is a skipped checkpoint's
/// detail. A snapshot whose inputs validate always derives, so the
/// derivation is left to the reader.
fn parse_checkpoint(data: &[u8], seq: u64) -> Result<Inputs, String> {
    let (header_seq, body) = parse_header("checkpoint", data)?;
    if header_seq != seq {
        return Err(format!(
            "header seq {header_seq} does not match file name seq {seq}"
        ));
    }
    Inputs::parse(body).map_err(|e| format!("bad snapshot: {e}"))
}

/// What ended the walk of one segment.
#[derive(Debug)]
pub(crate) enum Finding {
    /// The last segment ends inside a frame of this many bytes.
    TornTail { bytes: usize },
    /// The segment's bytes are a proper prefix of the WAL magic.
    TornMagic,
    /// The segment does not start with the WAL magic.
    ForeignMagic,
    /// A complete frame failed its checksum or did not decode, or a
    /// non-final segment ends inside a frame.
    Corrupt(String),
    /// A frame's sequence number does not chain.
    Gap { expected: u64, found: u64 },
    /// The visitor refused the chained frame `seq`.
    Rejected { seq: u64, source: SchemaError },
}

/// A finding, where it is: the segment, the offset, the segment's length.
#[derive(Debug)]
pub(crate) struct Stop {
    pub(crate) file: String,
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) finding: Finding,
}

impl Stop {
    /// A torn frame in the last segment or a torn magic: neither holds an
    /// acknowledged record, so every mode repairs it and goes on.
    pub(crate) fn repairable(&self) -> bool {
        matches!(self.finding, Finding::TornTail { .. } | Finding::TornMagic)
    }

    pub(crate) fn detail(&self) -> String {
        match &self.finding {
            Finding::TornTail { bytes } => format!("incomplete frame of {bytes} byte(s)"),
            Finding::TornMagic | Finding::ForeignMagic => "bad wal magic".into(),
            Finding::Corrupt(detail) => detail.clone(),
            Finding::Gap { expected, found } => {
                format!("sequence gap: expected {expected} found {found}")
            }
            Finding::Rejected { seq, source } => format!("op {seq} rejected: {source}"),
        }
    }

    /// The bytes from the finding to the end of its segment: what salvage
    /// drops and what the read-only readers report.
    pub(crate) fn tail(&self) -> DroppedTail {
        let kind = match self.finding {
            Finding::TornTail { .. } | Finding::TornMagic => DropKind::TornTail,
            Finding::ForeignMagic | Finding::Corrupt(_) => DropKind::Corrupt,
            Finding::Gap { .. } => DropKind::SequenceGap,
            Finding::Rejected { .. } => DropKind::ReplayRejected,
        };
        DroppedTail {
            file: self.file.clone(),
            offset: self.offset,
            bytes: self.len - self.offset,
            kind,
            detail: self.detail(),
        }
    }

    /// Strict recovery's refusal of this finding.
    pub(crate) fn error(&self) -> JournalError {
        match &self.finding {
            Finding::Rejected { seq, source } => JournalError::Replay {
                seq: *seq,
                source: source.clone(),
            },
            _ => JournalError::Corrupt {
                file: self.file.clone(),
                offset: self.offset,
                detail: self.detail(),
            },
        }
    }
}

/// Walk the WAL segments `wals` of `dir` on top of the checkpoint at
/// `from`. Each chained frame goes to `visit` with its segment and offset;
/// each [`Stop`] goes to `on_stop`, which repairs what its caller repairs.
/// The walk goes on past a repairable stop, and past any other only when
/// `on_stop` set its segment aside (returns `true`).
///
/// Returns the last chained sequence number and, for each segment read,
/// in order, the bytes before its finding (never fewer than the magic):
/// what recovery leaves of it.
pub(crate) fn walk(
    io: &dyn JournalIo,
    dir: &Path,
    wals: &[(u64, String)],
    from: u64,
    mut visit: impl FnMut(&str, usize, Frame) -> Result<(), SchemaError>,
    mut on_stop: impl FnMut(Stop) -> Result<bool, JournalError>,
) -> Result<(u64, Vec<u64>), JournalError> {
    let (mut seq, mut kept) = (from, Vec::new());
    for (i, (_, name)) in wals.iter().enumerate() {
        let data = io.read(&dir.join(name))?;
        let last = i + 1 == wals.len();
        let Some(stop) = walk_segment(&data, name, last, &mut seq, &mut visit) else {
            kept.push(data.len() as u64);
            continue;
        };
        kept.push(stop.offset.max(WAL_MAGIC.len()) as u64);
        let repairable = stop.repairable();
        if !on_stop(stop)? && !repairable {
            break;
        }
    }
    Ok((seq, kept))
}

/// [`walk`] without writing anything. Returns the last chained sequence
/// number and the last finding.
pub(crate) fn read_walk(
    io: &dyn JournalIo,
    dir: &Path,
    wals: &[(u64, String)],
    from: u64,
    visit: impl FnMut(&str, usize, Frame) -> Result<(), SchemaError>,
) -> Result<(u64, Option<Stop>), JournalError> {
    let mut last = None;
    let (seq, _) = walk(io, dir, wals, from, visit, |stop| {
        last = Some(stop);
        Ok(false)
    })?;
    Ok((seq, last))
}

/// Walk one segment's bytes from the chain position `cur`, advancing it
/// past each frame `visit` accepts. Returns the finding that ended the
/// segment, if any; `last` says whether a torn frame is a torn tail.
pub(crate) fn walk_segment(
    data: &[u8],
    file: &str,
    last: bool,
    cur: &mut u64,
    visit: &mut impl FnMut(&str, usize, Frame) -> Result<(), SchemaError>,
) -> Option<Stop> {
    let stop = |offset: usize, finding: Finding| {
        Some(Stop {
            file: file.to_string(),
            offset,
            len: data.len(),
            finding,
        })
    };
    if !data.starts_with(WAL_MAGIC) {
        if WAL_MAGIC.starts_with(data) {
            return stop(0, Finding::TornMagic);
        }
        return stop(0, Finding::ForeignMagic);
    }
    let mut off = WAL_MAGIC.len();
    loop {
        let frame = match read_frame(data, off) {
            FrameResult::End => return None,
            FrameResult::Record(frame) => frame,
            FrameResult::TornTail { offset, bytes } if last => {
                return stop(offset, Finding::TornTail { bytes })
            }
            FrameResult::TornTail { offset, bytes } => {
                let detail = format!("incomplete frame of {bytes} byte(s) in non-final wal");
                return stop(offset, Finding::Corrupt(detail));
            }
            FrameResult::Corrupt { offset, detail } => {
                return stop(offset, Finding::Corrupt(detail))
            }
        };
        let (at, seq) = (off, frame.seq);
        off = frame.next;
        if seq <= *cur {
            // Covered by the checkpoint or an earlier segment.
            continue;
        }
        if seq != *cur + 1 {
            let (expected, found) = (*cur + 1, seq);
            return stop(at, Finding::Gap { expected, found });
        }
        if let Err(source) = visit(file, at, frame) {
            return stop(at, Finding::Rejected { seq, source });
        }
        *cur = seq;
    }
}

/// Strict recovery without the writes: the checkpoint it starts from, the
/// chained operations on top of it (replayed on a copy of its inputs, so a
/// frame whose op does not replay ends the walk; nothing is derived), and
/// the last finding.
fn read_chain(
    io: &dyn JournalIo,
    dir: &Path,
) -> Result<(Checkpoint, Vec<RecordedOp>, Option<Stop>), JournalError> {
    let layout = Layout::read(io, dir)?.strict()?;
    let (from, mut ops) = (layout.checkpoint.seq, Vec::new());
    let (_, stop) = layout.checkpoint.inputs.check(|s| {
        read_walk(io, dir, &layout.wals, from, |_, _, f| {
            f.op.apply(s)?;
            ops.push(f.op);
            Ok(())
        })
    })?;
    Ok((layout.checkpoint, ops, stop))
}

/// [`read_chain`] by the history readers' rule: a finding strict recovery
/// refuses is the error, and a repairable tail, never acknowledged, is
/// left out.
fn durable_chain(
    io: &dyn JournalIo,
    dir: &Path,
) -> Result<(Checkpoint, Vec<RecordedOp>), JournalError> {
    match read_chain(io, dir)? {
        (_, _, Some(stop)) if !stop.repairable() => Err(stop.error()),
        (checkpoint, ops, _) => Ok((checkpoint, ops)),
    }
}

impl Journal {
    /// Read-only listing of a journal directory: the newest verified
    /// checkpoint (and any newer damaged ones), the chained WAL entries
    /// on top of it, and where the walk stopped — without modifying
    /// anything (no truncation, no WAL creation).
    pub fn inspect(dir: &Path, io: &dyn JournalIo) -> Result<Inspection, JournalError> {
        let layout = Layout::read(io, dir)?;
        let mut entries = Vec::new();
        let from = layout.checkpoint.seq;
        let (_, stop) = read_walk(io, dir, &layout.wals, from, |file, offset, f| {
            entries.push(LogEntry {
                seq: f.seq,
                op: f.op,
                file: file.to_string(),
                offset,
            });
            Ok(())
        })?;
        Ok(Inspection {
            checkpoint_seq: layout.checkpoint.seq,
            checkpoint_file: layout.checkpoint.file,
            skipped_checkpoints: layout.skipped,
            entries,
            tail: stop.map(|s| s.tail()),
        })
    }

    /// The durable history of `dir`, read by strict recovery's rules
    /// without writing anything: the checkpoint's base sequence and
    /// schema, and the chained operations on top of it, replayed in
    /// memory on the checkpoint's inputs. Whatever strict recovery refuses
    /// is refused with the same error; a repairable tail, never
    /// acknowledged, is left out. The checkpoint schema is derived once.
    pub fn read_history(
        dir: &Path,
        io: &dyn JournalIo,
    ) -> Result<(u64, Schema, Vec<RecordedOp>), JournalError> {
        let (checkpoint, ops) = durable_chain(io, dir)?;
        let (schema, ()) = checkpoint.inputs.build(None, |_| ());
        Ok((checkpoint.seq, schema, ops))
    }

    /// [`Journal::read_history`] without the schema: the checkpoint's base
    /// sequence and the chained operations on top of it, read by the same
    /// rules, with nothing derived.
    pub(crate) fn read_history_ops(
        dir: &Path,
        io: &dyn JournalIo,
    ) -> Result<(u64, Vec<RecordedOp>), JournalError> {
        durable_chain(io, dir).map(|(checkpoint, ops)| (checkpoint.seq, ops))
    }

    /// Time-travel read: reconstruct the schema exactly *as of* sequence
    /// `seq` from the checkpoint strict recovery starts from and the
    /// chained WAL prefix up to (and including) `seq`. Strictly read-only
    /// — a torn tail is never truncated, no WAL is created, nothing is
    /// checkpointed.
    ///
    /// Typed failures instead of silent approximations:
    /// - `seq` past the journal's durable maximum (including the case
    ///   where it points into a torn/corrupt tail) is
    ///   [`JournalError::SeqOutOfRange`] — *not* the tip state;
    /// - `seq` before the oldest surviving checkpoint (pruned history)
    ///   is [`JournalError::SeqBeforeCheckpoint`];
    /// - a damaged newest checkpoint, or a frame at or before `seq`
    ///   whose op does not replay, is refused as strict recovery refuses
    ///   it.
    pub fn replay_at(dir: &Path, io: &dyn JournalIo, seq: u64) -> Result<Schema, JournalError> {
        Self::replay_at_counted(dir, io, seq).map(|(schema, _)| schema)
    }

    /// [`Journal::replay_at`] plus the number of WAL ops replayed on top
    /// of the checkpoint (for `timetravel.*` observability).
    pub(crate) fn replay_at_counted(
        dir: &Path,
        io: &dyn JournalIo,
        seq: u64,
    ) -> Result<(Schema, u64), JournalError> {
        let layout = Layout::read(io, dir)?.strict()?;
        let base = layout.checkpoint.seq;
        if seq < base {
            return Err(JournalError::SeqBeforeCheckpoint {
                requested: seq,
                checkpoint_seq: base,
            });
        }
        // The wanted frames are one batch on the checkpoint's inputs,
        // exactly as in recovery, ended by the one derivation; frames past
        // `seq` are only chained, to find the durable maximum.
        let (schema, walked) = layout.checkpoint.inputs.build(None, |s| {
            read_walk(io, dir, &layout.wals, base, |_, _, f| {
                if f.seq <= seq {
                    f.op.apply(s)
                } else {
                    Ok(())
                }
            })
        });
        let (max, stop) = walked?;
        match stop {
            Some(stop) if matches!(stop.finding, Finding::Rejected { .. }) => Err(stop.error()),
            _ if seq > max => Err(JournalError::SeqOutOfRange {
                requested: seq,
                max,
            }),
            _ => Ok((schema, seq - base)),
        }
    }

    /// Read-only health diagnosis of `dir`: what state the journal is in
    /// and what to do about it, without modifying anything. It is strict
    /// recovery without the writes — the same checkpoint, the same walk,
    /// the chained suffix replayed in memory — so the journal is
    /// serviceable exactly when a strict [`Journal::open`] succeeds, and
    /// `durable_seq` is the sequence that open recovers. Unlike the open,
    /// this never errors: the refusal *is* the diagnosis.
    pub fn diagnose(dir: &Path, io: &dyn JournalIo) -> Health {
        let names = match io.list(dir) {
            Ok(names) => names,
            Err(e) => {
                return Health {
                    status: "unreadable",
                    error: Some(e.to_string()),
                    advice: "directory could not be listed; check the path and permissions".into(),
                    ..Health::default()
                }
            }
        };
        let mut health = Health {
            wal_files: names
                .iter()
                .filter(|n| parse_name(n, "wal-", ".log").is_some())
                .count(),
            quarantined_files: names.iter().filter(|n| n.ends_with(".quar")).count(),
            ..Health::default()
        };
        let (status, advice) = match read_chain(io, dir) {
            Err(JournalError::NoCheckpoint) => (
                "uninitialized",
                "no journal here; `journal-init` creates one",
            ),
            Err(e) => {
                health.error = Some(e.to_string());
                (
                    "corrupt",
                    "no checkpoint strict recovery can start from; `recover --salvage` falls back \
                     to the newest intact checkpoint and keeps damaged ones as `*.quar`, `recover \
                     --quarantine` additionally isolates corrupt segments",
                )
            }
            Ok((checkpoint, ops, stop)) => {
                health.checkpoint_seq = Some(checkpoint.seq);
                health.durable_seq = Some(checkpoint.seq + ops.len() as u64);
                health.tail = stop.as_ref().map(Stop::tail);
                let refused = stop.filter(|s| !s.repairable());
                health.error = refused.as_ref().map(|s| s.error().to_string());
                match (health.tail.is_some(), refused.map(|s| s.finding)) {
                    (false, _) => ("healthy", "checkpoint and log are clean; no action needed"),
                    (true, None) => (
                        "repairable",
                        "torn tail found (crash mid-append); `recover` truncates it and the \
                         journal continues",
                    ),
                    (_, Some(Finding::Rejected { .. })) => (
                        "corrupt",
                        "a logged op does not replay on its checkpoint; `recover --salvage` \
                         truncates the log before it, `recover --quarantine` isolates the \
                         segment and keeps its bytes",
                    ),
                    (_, Some(Finding::Gap { .. })) => (
                        "corrupt",
                        "a record does not chain onto the one before it; `recover --salvage` \
                         truncates the log at it, `recover --quarantine` isolates the segment \
                         and keeps its bytes",
                    ),
                    (_, Some(_)) => (
                        "corrupt",
                        "corrupt record found; `recover --salvage` truncates it, `recover \
                         --quarantine` isolates the segment and keeps its bytes",
                    ),
                }
            }
        };
        health.status = status;
        health.advice = advice.into();
        health
    }
}
