//! Crash-safe durability for schema evolution: WAL + atomic checkpoints.
//!
//! The paper's central reduction makes durability cheap to *specify*: since
//! every schema change is an edit of the designer inputs `P_e`/`N_e` and the
//! axioms re-derive everything else (§2, §4), a log of operations plus an
//! occasional inputs-only snapshot is a complete, auditable record of the
//! objectbase. This module makes it cheap to *get right*:
//!
//! - an **append-only WAL** of length-framed, CRC32-checksummed
//!   [`RecordedOp`] records (the same vocabulary [`crate::History`] replays) —
//!   see [`wire`];
//! - **atomic checkpoints** of the inputs-only snapshot format (write
//!   `*.tmp`, fsync file, rename, fsync directory) so the previous good
//!   checkpoint is never damaged by a crash mid-checkpoint;
//! - a **recovery routine** ([`Journal::open`]) that loads the newest valid
//!   checkpoint, replays the valid log prefix as one batch (one derivation
//!   for the whole suffix), and truncates a torn tail;
//!   [`RecoveryMode::Salvage`] additionally drops a *corrupt* suffix and
//!   reports exactly which bytes were dropped, mirroring
//!   [`crate::History::apply_trace`]'s applied-prefix semantics.
//!
//! # On-disk layout
//!
//! A journal directory holds `checkpoint-<seq:016x>.axb` files (a one-line
//! checksummed header followed by a [`crate::snapshot`] text) and
//! `wal-<seq:016x>.log` files (the [`wire::WAL_MAGIC`] line followed by
//! frames). The hex field is the **base sequence number**: the checkpoint
//! captures the schema after operation `seq`, and the WAL created alongside
//! it holds operations `> seq`. Sequence numbers are global and never
//! reused, so replay can always skip records already covered by a
//! checkpoint — recovery is idempotent and immune to the crash window
//! between a checkpoint rename and the WAL switch-over.
//!
//! # The applied-prefix guarantee
//!
//! [`JournaledSchema`] appends to the WAL and fsyncs **before** publishing
//! a new schema version (write-ahead order), and a crash at any I/O point
//! loses at most the *unacknowledged* suffix: after recovery the schema
//! equals the initial schema plus exactly the acknowledged prefix of
//! operations — the crash-time analogue of the applied-prefix semantics
//! that `History::apply_trace` gives for rejected operations. The
//! crash-point sweep in `workload/tests/recovery_sweep.rs` asserts this
//! fingerprint-for-fingerprint at every injected I/O failure point.
//!
//! All file I/O goes through the [`JournalIo`] trait ([`io`]), so the same
//! code path that runs in production is the one the fault-injection tests
//! crash at every opportunity.
//!
//! # Self-healing
//!
//! I/O failures no longer wedge the journal. Every append/checkpoint runs
//! under the typed durability state machine in [`heal`]
//! (`Healthy → Retrying → Degraded → Recovered | Quarantined`): transient
//! errors retry on a bounded, deterministic backoff schedule; `ENOSPC`
//! triggers a checkpoint GC that prunes obsolete segments and retries;
//! permanent errors degrade the journal to **read-only** (snapshots keep
//! serving, appends fail fast with [`JournalError::Unavailable`]) until a
//! cooldown elapses and a probe append re-arms it. Corrupt WAL segments
//! can be **quarantined** ([`RecoveryMode::Quarantine`]): renamed to
//! `*.quar`, re-checkpointed past, and the journal continues on a fresh
//! segment. Writer panics are isolated (`catch_unwind` in [`heal`]) into
//! typed [`JournalError::Panicked`] errors with no poisoned state. The
//! fault-schedule harness in [`fault`] drives all of this under seeded
//! chaos; see DESIGN.md §13.

pub mod fault;
pub mod heal;
pub mod io;
pub mod wire;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::concurrent::SharedSchema;
use crate::error::SchemaError;
use crate::history::RecordedOp;
use crate::model::Schema;
use crate::obs::EvolveObs;

use io::{atomic_write, JournalIo, ObservedIo};
use wire::{crc32, encode_frame, read_frame, FrameResult, WAL_MAGIC};

/// Errors raised by the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// An underlying I/O operation failed permanently (message only,
    /// keeping the error `Clone`/`PartialEq`).
    Io(String),
    /// An underlying I/O operation failed with a *transient* error
    /// (interrupted, timed out, would-block) — retried internally; this
    /// surfaces only when the retry budget is exhausted.
    TransientIo(String),
    /// The device (or the journal's configured WAL budget) is out of
    /// space. Retryable after a checkpoint GC reclaims obsolete segments.
    DiskFull(String),
    /// The journal is degraded to read-only after repeated failures.
    /// Snapshots keep serving; retry the write after `retry_after_ms`.
    Unavailable {
        /// Cooldown remaining before the next probe append is admitted.
        retry_after_ms: u64,
        /// The error that caused the degradation.
        last_error: String,
    },
    /// The writer closure panicked; the panic was isolated and no state
    /// was published or appended beyond the durable prefix.
    Panicked(String),
    /// A complete WAL record failed its checksum or did not decode.
    Corrupt {
        /// File the corruption was found in.
        file: String,
        /// Byte offset of the corrupt frame.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint file is damaged (bad header, checksum, or snapshot).
    BadCheckpoint {
        /// The checkpoint file.
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// The directory holds no (valid) checkpoint to recover from.
    NoCheckpoint,
    /// [`Journal::create`] found an existing journal in the directory.
    AlreadyExists,
    /// A schema operation was rejected (the journal is untouched).
    Schema(SchemaError),
    /// A logged operation was rejected during replay — the log does not
    /// match the checkpoint it claims to extend.
    Replay {
        /// Sequence number of the failing record.
        seq: u64,
        /// The rejection.
        source: SchemaError,
    },
    /// A time-travel read asked for a sequence number past the journal's
    /// durable maximum. Naively replaying "as much as is there" would
    /// silently serve the tip as if it were the requested state; the
    /// request is refused instead.
    SeqOutOfRange {
        /// The sequence number asked for.
        requested: u64,
        /// The last durable sequence number actually reconstructible.
        max: u64,
    },
    /// A time-travel read asked for a sequence number *before* the oldest
    /// surviving checkpoint. Checkpoints prune the WAL prefix they cover,
    /// so states older than the checkpoint base are no longer
    /// reconstructible from this directory (fork a branch before
    /// checkpointing to keep one).
    SeqBeforeCheckpoint {
        /// The sequence number asked for.
        requested: u64,
        /// Base sequence of the oldest checkpoint still on disk.
        checkpoint_seq: u64,
    },
    /// The fork-metadata record (`fork.axbmeta`) is damaged: bad header,
    /// checksum mismatch, or an unparseable snapshot body.
    BadForkMeta {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(d) => write!(f, "journal io error: {d}"),
            JournalError::TransientIo(d) => write!(f, "journal io error (transient): {d}"),
            JournalError::DiskFull(d) => write!(f, "journal disk full: {d}"),
            JournalError::Unavailable {
                retry_after_ms,
                last_error,
            } => write!(
                f,
                "journal degraded (read-only): retry after {retry_after_ms}ms; last error: {last_error}"
            ),
            JournalError::Panicked(d) => write!(f, "journal writer panicked (isolated): {d}"),
            JournalError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "corrupt record in {file} at byte {offset}: {detail}"),
            JournalError::BadCheckpoint { file, detail } => {
                write!(f, "bad checkpoint {file}: {detail}")
            }
            JournalError::NoCheckpoint => write!(f, "no valid checkpoint found"),
            JournalError::AlreadyExists => write!(f, "journal already exists"),
            JournalError::Schema(e) => write!(f, "schema operation rejected: {e}"),
            JournalError::Replay { seq, source } => {
                write!(f, "replay of op {seq} rejected: {source}")
            }
            JournalError::SeqOutOfRange { requested, max } => {
                write!(
                    f,
                    "sequence {requested} is out of range: the journal's durable maximum is {max}"
                )
            }
            JournalError::SeqBeforeCheckpoint {
                requested,
                checkpoint_seq,
            } => {
                write!(
                    f,
                    "sequence {requested} predates the oldest surviving checkpoint (base \
                     {checkpoint_seq}); earlier states were pruned"
                )
            }
            JournalError::BadForkMeta { detail } => {
                write!(f, "bad fork metadata: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalError {
    /// The retry classification of this error, if it is an I/O-shaped
    /// failure the durability machine can act on. Non-I/O errors
    /// (corruption, schema rejections, ...) return `None` and are treated
    /// as permanent by the retry loop.
    #[must_use]
    pub fn class(&self) -> Option<heal::ErrorClass> {
        match self {
            JournalError::TransientIo(_) => Some(heal::ErrorClass::Transient),
            JournalError::DiskFull(_) => Some(heal::ErrorClass::DiskFull),
            JournalError::Io(_) => Some(heal::ErrorClass::Permanent),
            _ => None,
        }
    }
}

impl From<SchemaError> for JournalError {
    fn from(e: SchemaError) -> Self {
        JournalError::Schema(e)
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        match heal::classify(&e) {
            heal::ErrorClass::Transient => JournalError::TransientIo(e.to_string()),
            heal::ErrorClass::DiskFull => JournalError::DiskFull(e.to_string()),
            heal::ErrorClass::Permanent => JournalError::Io(e.to_string()),
        }
    }
}

/// How recovery treats *corruption* (torn tails are always truncated —
/// they are unacknowledged by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// A corrupt record or checkpoint is an error: recovery refuses and
    /// reports exactly where. Nothing is modified.
    #[default]
    Strict,
    /// Recover the longest valid prefix: skip damaged checkpoints, truncate
    /// the log at the first corrupt record, and report exactly which
    /// suffix was dropped.
    Salvage,
    /// Like [`RecoveryMode::Salvage`], but corrupt WAL segments are
    /// *quarantined* — renamed to `<name>.quar` (contents preserved for
    /// forensics) — and the journal re-checkpoints at the recovered
    /// sequence so it continues on a fresh segment.
    Quarantine,
}

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

/// A checkpoint file salvage-mode recovery skipped over.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCheckpoint {
    /// The damaged checkpoint file.
    pub file: String,
    /// What was wrong with it.
    pub detail: String,
}

/// A corrupt WAL segment renamed out of the way by
/// [`RecoveryMode::Quarantine`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSegment {
    /// The original WAL file name.
    pub file: String,
    /// The name it was renamed to (`<file>.quar`).
    pub quarantined_as: String,
    /// Size of the segment in bytes at quarantine time.
    pub bytes: usize,
    /// Why it was quarantined.
    pub detail: String,
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The checkpoint file recovery started from.
    pub checkpoint_file: String,
    /// Its base sequence number.
    pub checkpoint_seq: u64,
    /// Number of WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// The recovered sequence number (`checkpoint_seq` + replayed records,
    /// counting records skipped as already covered).
    pub seq: u64,
    /// Damaged checkpoints skipped (salvage mode).
    pub skipped_checkpoints: Vec<SkippedCheckpoint>,
    /// The invalid suffix dropped from the log, if any.
    pub dropped_tail: Option<DroppedTail>,
    /// Corrupt segments renamed to `*.quar` (quarantine mode only).
    pub quarantined: Vec<QuarantinedSegment>,
}

impl RecoveryReport {
    /// Render the report as human-readable text (the CLI's default output).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "recovered from {} (seq {}), replayed {} op(s), now at seq {}",
            self.checkpoint_file, self.checkpoint_seq, self.replayed, self.seq
        );
        for s in &self.skipped_checkpoints {
            let _ = writeln!(out, "skipped damaged checkpoint {}: {}", s.file, s.detail);
        }
        for q in &self.quarantined {
            let _ = writeln!(
                out,
                "quarantined {} -> {} ({} byte(s)): {}",
                q.file, q.quarantined_as, q.bytes, q.detail
            );
        }
        if let Some(d) = &self.dropped_tail {
            let _ = writeln!(
                out,
                "dropped {} byte(s) at {}+{} ({}): {}",
                d.bytes, d.file, d.offset, d.kind, d.detail
            );
        } else {
            let _ = writeln!(out, "log tail clean: nothing dropped");
        }
        out
    }

    /// Render the report as a JSON object (the CLI's `--json` output).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!(
            "\"checkpoint_file\":{:?},\"checkpoint_seq\":{},\"replayed\":{},\"seq\":{}",
            self.checkpoint_file, self.checkpoint_seq, self.replayed, self.seq
        ));
        out.push_str(",\"skipped_checkpoints\":[");
        for (i, s) in self.skipped_checkpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{:?},\"detail\":{:?}}}",
                s.file, s.detail
            ));
        }
        out.push(']');
        out.push_str(",\"quarantined\":[");
        for (i, q) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{:?},\"quarantined_as\":{:?},\"bytes\":{},\"detail\":{:?}}}",
                q.file, q.quarantined_as, q.bytes, q.detail
            ));
        }
        out.push(']');
        match &self.dropped_tail {
            Some(d) => out.push_str(&format!(
                ",\"dropped_tail\":{{\"file\":{:?},\"offset\":{},\"bytes\":{},\"kind\":\"{}\",\"detail\":{:?}}}",
                d.file, d.offset, d.bytes, d.kind, d.detail
            )),
            None => out.push_str(",\"dropped_tail\":null"),
        }
        out.push('}');
        out
    }
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:016x}.axb")
}

/// Rename a corrupt WAL segment to `<name>.quar` (contents preserved; the
/// suffix no longer parses as a WAL name, so replay and pruning both skip
/// it) and record what happened.
fn quarantine_segment(
    io: &Arc<dyn JournalIo>,
    dir: &Path,
    name: &str,
    bytes: usize,
    detail: String,
) -> Result<QuarantinedSegment, JournalError> {
    let quar = format!("{name}.quar");
    io.rename(&dir.join(name), &dir.join(&quar))?;
    io.fsync_dir(dir)?;
    Ok(QuarantinedSegment {
        file: name.to_string(),
        quarantined_as: quar,
        bytes,
        detail,
    })
}

/// What the recovery scan replayed and repaired (see [`replay_wals`]).
struct WalReplay {
    /// Sequence number of the last replayed record.
    seq: u64,
    /// Records replayed on top of the checkpoint.
    replayed: usize,
    /// The invalid suffix dropped where the scan stopped, if any.
    dropped_tail: Option<DroppedTail>,
    /// Segments renamed to `*.quar`.
    quarantined: Vec<QuarantinedSegment>,
    /// Every segment the scan kept, with its length as the scan left it.
    kept: Vec<(String, u64)>,
}

/// How the recovery scan left one WAL segment.
enum SegmentEnd {
    /// Kept at this many bytes; the scan goes on with the next segment.
    Kept(u64),
    /// An invalid suffix was dropped, leaving this many bytes; the scan
    /// stops here.
    Dropped(DroppedTail, u64),
    /// Renamed to `*.quar`; the scan goes on with the next segment.
    Quarantined(QuarantinedSegment),
}

/// The recovery scan: replay the chained frames of `wals` on top of the
/// checkpoint at `checkpoint_seq`, and repair what `mode` allows. It only
/// edits inputs; [`Journal::open`] runs it inside one
/// [`Schema::evolve_batch`], so derivation runs once when it returns.
fn replay_wals(
    schema: &mut Schema,
    io: &Arc<dyn JournalIo>,
    dir: &Path,
    wals: &[(u64, String)],
    checkpoint_seq: u64,
    mode: RecoveryMode,
    obs: Option<&EvolveObs>,
) -> Result<WalReplay, JournalError> {
    let mut r = WalReplay {
        seq: checkpoint_seq,
        replayed: 0,
        dropped_tail: None,
        quarantined: Vec::new(),
        kept: Vec::new(),
    };
    for (i, (_base, name)) in wals.iter().enumerate() {
        let path = dir.join(name);
        let data = io.read(&path)?;
        let is_last = i + 1 == wals.len();

        // A truncate-to-offset that also records what was dropped.
        let drop_suffix =
            |offset: usize, kind: DropKind, detail: String| -> Result<SegmentEnd, JournalError> {
                io.truncate(&path, offset as u64)?;
                io.fsync(&path)?;
                let tail = DroppedTail {
                    file: name.clone(),
                    offset,
                    bytes: data.len() - offset,
                    kind,
                    detail,
                };
                Ok(SegmentEnd::Dropped(tail, offset as u64))
            };
        // What `mode` does with an invalid suffix at `offset`: strict
        // refuses, salvage drops it, quarantine renames the segment.
        let invalid = |offset: usize,
                       kind: DropKind,
                       detail: String|
         -> Result<SegmentEnd, JournalError> {
            match mode {
                RecoveryMode::Strict => Err(JournalError::Corrupt {
                    file: name.clone(),
                    offset,
                    detail,
                }),
                RecoveryMode::Salvage => drop_suffix(offset, kind, detail),
                RecoveryMode::Quarantine => quarantine_segment(io, dir, name, data.len(), detail)
                    .map(SegmentEnd::Quarantined),
            }
        };

        let end = if !data.starts_with(WAL_MAGIC) {
            if WAL_MAGIC.starts_with(&data[..]) {
                // Torn WAL creation: the file was never acknowledged
                // with any record. Rewrite the magic and use it.
                io.write(&path, WAL_MAGIC)?;
                io.fsync(&path)?;
                SegmentEnd::Kept(WAL_MAGIC.len() as u64)
            } else if mode == RecoveryMode::Salvage {
                // Reset the file to an empty WAL; everything in it is
                // unreadable.
                io.write(&path, WAL_MAGIC)?;
                io.fsync(&path)?;
                let tail = DroppedTail {
                    file: name.clone(),
                    offset: 0,
                    bytes: data.len(),
                    kind: DropKind::Corrupt,
                    detail: "bad wal magic".into(),
                };
                SegmentEnd::Dropped(tail, WAL_MAGIC.len() as u64)
            } else {
                invalid(0, DropKind::Corrupt, "bad wal magic".into())?
            }
        } else {
            let mut off = WAL_MAGIC.len();
            loop {
                match read_frame(&data, off) {
                    FrameResult::End => break SegmentEnd::Kept(data.len() as u64),
                    FrameResult::Record(frame) => {
                        if frame.seq <= r.seq {
                            // Already covered by the checkpoint (or an
                            // earlier WAL file); skip.
                            off = frame.next;
                            continue;
                        }
                        if frame.seq != r.seq + 1 {
                            let detail =
                                format!("sequence gap: expected {} found {}", r.seq + 1, frame.seq);
                            break invalid(off, DropKind::SequenceGap, detail)?;
                        }
                        if let Some(o) = obs {
                            o.on_op(frame.seq, &frame.op);
                        }
                        if let Err(e) = frame.op.apply(schema) {
                            if mode == RecoveryMode::Strict {
                                return Err(JournalError::Replay {
                                    seq: frame.seq,
                                    source: e,
                                });
                            }
                            let detail = format!("op {} rejected: {e}", frame.seq);
                            break invalid(off, DropKind::ReplayRejected, detail)?;
                        }
                        r.seq = frame.seq;
                        r.replayed += 1;
                        off = frame.next;
                    }
                    FrameResult::TornTail { offset, bytes } => {
                        // Torn tails are unacknowledged by construction and
                        // truncated in every mode — but only the *last* WAL
                        // file can legitimately have one.
                        if is_last {
                            let detail = format!("incomplete frame of {bytes} byte(s)");
                            break drop_suffix(offset, DropKind::TornTail, detail)?;
                        }
                        let detail =
                            format!("incomplete frame of {bytes} byte(s) in non-final wal");
                        break invalid(offset, DropKind::Corrupt, detail)?;
                    }
                    FrameResult::Corrupt { offset, detail } => {
                        break invalid(offset, DropKind::Corrupt, detail)?
                    }
                }
            }
        };
        match end {
            SegmentEnd::Kept(len) => r.kept.push((name.clone(), len)),
            SegmentEnd::Dropped(tail, len) => {
                r.kept.push((name.clone(), len));
                r.dropped_tail = Some(tail);
                break;
            }
            SegmentEnd::Quarantined(q) => r.quarantined.push(q),
        }
    }
    Ok(r)
}

/// The time-travel scan: apply every chained frame up to `upto`, and
/// count the chain past it to find the durable maximum — the longest
/// chained prefix on top of the checkpoint, exactly as `diagnose` computes
/// it; gapped records and torn/corrupt tails are not durable history.
/// Returns `(max, applied)`. Like [`replay_wals`] it only edits inputs;
/// [`Journal::replay_at`] runs it inside one [`Schema::evolve_batch`].
fn replay_chain(
    schema: &mut Schema,
    io: &dyn JournalIo,
    dir: &Path,
    wals: &[(u64, String)],
    checkpoint_seq: u64,
    upto: u64,
) -> Result<(u64, u64), JournalError> {
    let mut max = checkpoint_seq;
    let mut applied = 0u64;
    'files: for (_base, name) in wals {
        let data = io.read(&dir.join(name))?;
        if !data.starts_with(WAL_MAGIC) {
            break 'files;
        }
        let mut off = WAL_MAGIC.len();
        loop {
            match read_frame(&data, off) {
                FrameResult::End => break,
                FrameResult::Record(f) => {
                    if f.seq == max + 1 {
                        max = f.seq;
                        if f.seq <= upto {
                            f.op.apply(schema).map_err(|err| JournalError::Replay {
                                seq: f.seq,
                                source: err,
                            })?;
                            applied += 1;
                        }
                    }
                    off = f.next;
                }
                FrameResult::TornTail { .. } | FrameResult::Corrupt { .. } => break 'files,
            }
        }
    }
    Ok((max, applied))
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Render a checkpoint file: checksummed header + inputs-only snapshot.
fn render_checkpoint(seq: u64, schema: &Schema) -> Vec<u8> {
    let body = schema.to_snapshot();
    let crc = crc32(&[body.as_bytes()]);
    let mut out = format!("axbcheckpoint v1 seq {seq} crc {crc:08x}\n").into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parse and validate a checkpoint file read from `file`.
fn parse_checkpoint(file: &str, data: &[u8]) -> Result<(u64, Schema), JournalError> {
    let bad = |detail: String| JournalError::BadCheckpoint {
        file: file.to_string(),
        detail,
    };
    let text = std::str::from_utf8(data).map_err(|e| bad(format!("not UTF-8: {e}")))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| bad("missing header line".into()))?;
    let words: Vec<&str> = header.split_whitespace().collect();
    let (seq, crc_hex) = match words.as_slice() {
        ["axbcheckpoint", "v1", "seq", seq, "crc", crc] => (*seq, *crc),
        _ => return Err(bad(format!("bad header {header:?}"))),
    };
    let seq: u64 = seq
        .parse()
        .map_err(|_| bad(format!("bad seq {seq:?} in header")))?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| bad(format!("bad crc {crc_hex:?}")))?;
    let got = crc32(&[body.as_bytes()]);
    if got != want {
        return Err(bad(format!(
            "checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    let schema = Schema::from_snapshot(body).map_err(|e| bad(format!("bad snapshot: {e}")))?;
    Ok((seq, schema))
}

/// Name of the fork-metadata record a branched journal carries.
pub const FORK_META_FILE: &str = "fork.axbmeta";

/// The fork-metadata record of a branched journal directory: where the
/// branch came from, at which sequence it diverged, and the exact
/// fork-point snapshot (so a merge can reconstruct the common base even
/// after both branches have checkpointed past it).
///
/// On disk (`fork.axbmeta`), checksummed like a checkpoint:
///
/// ```text
/// axbfork v1 seq <fork_seq> crc <crc32-of-everything-after-this-line>
/// parent <parent-journal-path>
/// <inputs-only snapshot of the fork-point schema>
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ForkMeta {
    /// The parent journal directory, as given at fork time.
    pub parent: String,
    /// Sequence number of the fork point: the branch's first checkpoint
    /// has this base, and both branches share history up to (and
    /// including) this sequence.
    pub fork_seq: u64,
    /// Inputs-only snapshot text of the schema at the fork point.
    pub snapshot: String,
}

impl ForkMeta {
    /// Parse the fork-point snapshot back into a [`Schema`].
    pub fn base_schema(&self) -> Result<Schema, JournalError> {
        Schema::from_snapshot(&self.snapshot).map_err(|e| JournalError::BadForkMeta {
            detail: format!("bad fork-point snapshot: {e}"),
        })
    }
}

fn render_fork_meta(meta: &ForkMeta) -> Vec<u8> {
    let body = format!("parent {}\n{}", meta.parent, meta.snapshot);
    let crc = crc32(&[body.as_bytes()]);
    let mut out = format!("axbfork v1 seq {} crc {crc:08x}\n", meta.fork_seq).into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn parse_fork_meta(data: &[u8]) -> Result<ForkMeta, JournalError> {
    let bad = |detail: String| JournalError::BadForkMeta { detail };
    let text = std::str::from_utf8(data).map_err(|e| bad(format!("not UTF-8: {e}")))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| bad("missing header line".into()))?;
    let words: Vec<&str> = header.split_whitespace().collect();
    let (seq, crc_hex) = match words.as_slice() {
        ["axbfork", "v1", "seq", seq, "crc", crc] => (*seq, *crc),
        _ => return Err(bad(format!("bad header {header:?}"))),
    };
    let fork_seq: u64 = seq
        .parse()
        .map_err(|_| bad(format!("bad seq {seq:?} in header")))?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| bad(format!("bad crc {crc_hex:?}")))?;
    let got = crc32(&[body.as_bytes()]);
    if got != want {
        return Err(bad(format!(
            "checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    let (parent_line, snapshot) = body
        .split_once('\n')
        .ok_or_else(|| bad("missing parent line".into()))?;
    let parent = parent_line
        .strip_prefix("parent ")
        .ok_or_else(|| bad(format!("bad parent line {parent_line:?}")))?;
    Ok(ForkMeta {
        parent: parent.to_string(),
        fork_seq,
        snapshot: snapshot.to_string(),
    })
}

/// Durably write `meta` as the directory's fork record (atomic:
/// tmp → fsync → rename → fsync dir). Checkpoint pruning never touches
/// it, so the record survives for the branch's whole lifetime.
pub fn write_fork_meta(
    dir: &Path,
    io: &dyn JournalIo,
    meta: &ForkMeta,
) -> Result<(), JournalError> {
    Ok(atomic_write(
        io,
        &dir.join(FORK_META_FILE),
        &render_fork_meta(meta),
    )?)
}

/// Read the directory's fork record, if one exists. `Ok(None)` means the
/// journal is a root (never forked); a present-but-damaged record is a
/// typed [`JournalError::BadForkMeta`] error, never silently ignored.
pub fn read_fork_meta(dir: &Path, io: &dyn JournalIo) -> Result<Option<ForkMeta>, JournalError> {
    let names = io.list(dir)?;
    if !names.iter().any(|n| n == FORK_META_FILE) {
        return Ok(None);
    }
    let data = io.read(&dir.join(FORK_META_FILE))?;
    parse_fork_meta(&data).map(Some)
}

/// One decoded WAL entry (used by [`Journal::inspect`] / the CLI `log`
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

/// A read-only scan of a journal directory (see [`Journal::inspect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Inspection {
    /// Base sequence number of the newest readable checkpoint.
    pub checkpoint_seq: u64,
    /// Its file name.
    pub checkpoint_file: String,
    /// All decodable WAL entries, in file/offset order (including records
    /// already covered by the checkpoint, flagged by `seq <=
    /// checkpoint_seq`).
    pub entries: Vec<LogEntry>,
    /// Torn or corrupt bytes found at the end of the scan, if any. A
    /// read-only scan reports them but modifies nothing.
    pub tail: Option<DroppedTail>,
}

/// A read-only health diagnosis of a journal directory (the CLI `doctor`
/// subcommand and the `stats` degraded fallback). Never modifies anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Health {
    /// One of `healthy`, `repairable`, `corrupt`, `uninitialized`,
    /// `unreadable`.
    pub status: &'static str,
    /// Base sequence of the newest readable checkpoint, if any.
    pub checkpoint_seq: Option<u64>,
    /// Last sequence number recoverable by replay, if a checkpoint exists.
    pub durable_seq: Option<u64>,
    /// WAL segment files present (`wal-*.log`).
    pub wal_files: usize,
    /// Quarantined segment files present (`*.quar`).
    pub quarantined_files: usize,
    /// Invalid tail found by the scan, if any.
    pub tail: Option<DroppedTail>,
    /// The error that prevented a full scan, if any.
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
            let _ = writeln!(
                out,
                "invalid tail: {} byte(s) at {}+{} ({}): {}",
                t.bytes, t.file, t.offset, t.kind, t.detail
            );
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
        out.push_str(&format!("\"status\":{:?}", self.status));
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
            Some(t) => out.push_str(&format!(
                ",\"tail\":{{\"file\":{:?},\"offset\":{},\"bytes\":{},\"kind\":\"{}\",\"detail\":{:?}}}",
                t.file, t.offset, t.bytes, t.kind, t.detail
            )),
            None => out.push_str(",\"tail\":null"),
        }
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":{e:?}")),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(&format!(",\"advice\":{:?}", self.advice));
        out.push('}');
        out
    }
}

/// An open, append-able evolution journal.
///
/// Low-level handle: it sequences and persists operations but does not
/// apply them to any schema — [`JournaledSchema`] couples it to a
/// [`SharedSchema`] with write-ahead ordering. All I/O goes through the
/// [`JournalIo`] passed at creation.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    io: Arc<dyn JournalIo>,
    /// Sequence number of the last durable operation.
    seq: u64,
    /// Base sequence of the active WAL file (its name).
    wal_base: u64,
    /// Bytes currently in the active WAL file (tracked so the budget
    /// guard below never needs an extra I/O call on the append path).
    wal_len: u64,
    /// Optional soft cap on active-WAL bytes. Appends that would exceed
    /// it fail with [`JournalError::DiskFull`] *before* touching the
    /// device — the durability machine's checkpoint GC then reclaims the
    /// segment and retries. The typed analogue of `SchemaError::ArenaFull`.
    wal_budget: Option<u64>,
    /// Optional observer for `journal.*` metrics and span events.
    obs: Option<Arc<EvolveObs>>,
}

impl Journal {
    /// Initialise a new journal in `dir` holding `schema` as its first
    /// checkpoint (sequence 0). Fails with [`JournalError::AlreadyExists`]
    /// if the directory already contains a checkpoint.
    pub fn create(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: &Schema,
    ) -> Result<Journal, JournalError> {
        Self::create_impl(dir, io, schema, 0, None)
    }

    /// Initialise a new journal in `dir` whose first checkpoint carries
    /// sequence `base_seq` instead of 0. This is how a *branch* is
    /// seeded: the fork-point schema is checkpointed at the fork
    /// sequence, so sequence numbers stay globally comparable across the
    /// parent and all of its branches.
    pub fn create_at(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: &Schema,
        base_seq: u64,
    ) -> Result<Journal, JournalError> {
        Self::create_impl(dir, io, schema, base_seq, None)
    }

    /// Like [`Journal::create`], but observed: `io` is wrapped so fsyncs
    /// are counted, and every append/checkpoint/wedge reports to `obs`.
    pub fn create_observed(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: &Schema,
        obs: Arc<EvolveObs>,
    ) -> Result<Journal, JournalError> {
        let io: Arc<dyn JournalIo> = Arc::new(ObservedIo::new(io, Arc::clone(&obs)));
        Self::create_impl(dir, io, schema, 0, Some(obs))
    }

    fn create_impl(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: &Schema,
        base_seq: u64,
        obs: Option<Arc<EvolveObs>>,
    ) -> Result<Journal, JournalError> {
        io.create_dir_all(dir)?;
        let existing = io.list(dir)?;
        if existing
            .iter()
            .any(|n| parse_name(n, "checkpoint-", ".axb").is_some())
        {
            return Err(JournalError::AlreadyExists);
        }
        let mut j = Journal {
            dir: dir.to_path_buf(),
            io,
            seq: base_seq,
            wal_base: base_seq,
            wal_len: 0,
            wal_budget: None,
            obs,
        };
        j.write_checkpoint(schema)?;
        Ok(j)
    }

    /// Recover a journal from `dir`: load the newest valid checkpoint,
    /// replay the valid log prefix, truncate a torn tail, and return the
    /// journal handle, the recovered schema, and a byte-accurate report.
    /// See [`RecoveryMode`] for how corruption (as opposed to tearing) is
    /// treated.
    pub fn open(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
    ) -> Result<(Journal, Schema, RecoveryReport), JournalError> {
        Self::open_impl(dir, io, mode, None)
    }

    /// Like [`Journal::open`], but observed: `io` is wrapped so fsyncs are
    /// counted, the recovered schema has `obs` attached (the one recompute
    /// that ends the replay is counted), each replayed record bumps its
    /// `ops.*` counter, and the final [`RecoveryReport`] is folded into
    /// the `recovery.*` counters.
    pub fn open_observed(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        obs: Arc<EvolveObs>,
    ) -> Result<(Journal, Schema, RecoveryReport), JournalError> {
        let io: Arc<dyn JournalIo> = Arc::new(ObservedIo::new(io, Arc::clone(&obs)));
        Self::open_impl(dir, io, mode, Some(obs))
    }

    fn open_impl(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        obs: Option<Arc<EvolveObs>>,
    ) -> Result<(Journal, Schema, RecoveryReport), JournalError> {
        let names = io.list(dir)?;

        // Newest valid checkpoint.
        let mut checkpoints: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "checkpoint-", ".axb").map(|s| (s, n.clone())))
            .collect();
        checkpoints.sort();
        let mut skipped_checkpoints = Vec::new();
        let mut start: Option<(u64, String, Schema)> = None;
        for (seq, name) in checkpoints.iter().rev() {
            let data = io.read(&dir.join(name))?;
            match parse_checkpoint(name, &data) {
                Ok((hdr_seq, schema)) if hdr_seq == *seq => {
                    start = Some((*seq, name.clone(), schema));
                    break;
                }
                Ok((hdr_seq, _)) => {
                    let detail = format!("header seq {hdr_seq} does not match file name seq {seq}");
                    match mode {
                        RecoveryMode::Strict => {
                            return Err(JournalError::BadCheckpoint {
                                file: name.clone(),
                                detail,
                            })
                        }
                        RecoveryMode::Salvage | RecoveryMode::Quarantine => {
                            skipped_checkpoints.push(SkippedCheckpoint {
                                file: name.clone(),
                                detail,
                            });
                        }
                    }
                }
                Err(e) => match mode {
                    RecoveryMode::Strict => return Err(e),
                    RecoveryMode::Salvage | RecoveryMode::Quarantine => {
                        let detail = match &e {
                            JournalError::BadCheckpoint { detail, .. } => detail.clone(),
                            other => other.to_string(),
                        };
                        skipped_checkpoints.push(SkippedCheckpoint {
                            file: name.clone(),
                            detail,
                        });
                    }
                },
            }
        }
        let (checkpoint_seq, checkpoint_file, mut schema) =
            start.ok_or(JournalError::NoCheckpoint)?;
        if let Some(o) = &obs {
            // Attached before replay, so the one recomputation that ends
            // the replay batch (and the copies the edits make) is counted.
            schema.attach_obs(Arc::clone(o));
        }

        // Replay WAL files in base order, skipping records the checkpoint
        // already covers (sequence numbers are global, so this is exact).
        let mut wals: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "wal-", ".log").map(|s| (s, n.clone())))
            .collect();
        wals.sort();
        // The whole suffix is one batch. Whether a frame's op is accepted
        // depends only on the inputs `P_e`/`N_e`, so deferring derivation
        // changes no decision; a rejected frame leaves the applied prefix,
        // which the batch recomputes before the scan's outcome is used.
        let WalReplay {
            seq,
            replayed,
            dropped_tail,
            quarantined,
            kept,
        } = schema.evolve_batch(|s| {
            let obs = obs.as_deref();
            Ok(replay_wals(s, &io, dir, &wals, checkpoint_seq, mode, obs))
        })??;

        // Ensure an active WAL file exists to append to (the crash window
        // between checkpoint rename and WAL creation leaves none for the
        // new base). Quarantined segments no longer exist under their WAL
        // names, so they cannot be the active file.
        let live_wals: Vec<&(u64, String)> = wals
            .iter()
            .filter(|(_, n)| !quarantined.iter().any(|q| q.file == *n))
            .collect();
        let wal_base = match live_wals.last() {
            Some((base, _)) => *base,
            None => checkpoint_seq,
        };
        let wal_base = if live_wals.is_empty() || wal_base < checkpoint_seq && seq == checkpoint_seq
        {
            checkpoint_seq
        } else {
            wal_base
        };
        // The scan knows the length of every segment it kept; only a
        // segment it never reached is read here. Only a missing file is
        // created: any other read error is returned, because overwriting
        // the file would drop acknowledged records.
        let active = wal_name(wal_base);
        let wal_path = dir.join(&active);
        let wal_len = match kept.iter().find(|(name, _)| *name == active) {
            Some(&(_, len)) => len,
            None => match io.read(&wal_path) {
                Ok(d) => d.len() as u64,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    io.write(&wal_path, WAL_MAGIC)?;
                    io.fsync(&wal_path)?;
                    io.fsync_dir(dir)?;
                    WAL_MAGIC.len() as u64
                }
                Err(e) => return Err(e.into()),
            },
        };

        let mut journal = Journal {
            dir: dir.to_path_buf(),
            io,
            seq,
            wal_base,
            wal_len,
            wal_budget: None,
            obs,
        };
        if !quarantined.is_empty() {
            // Re-checkpoint at the recovered sequence so every surviving
            // op is covered by the checkpoint and the journal continues
            // on a fresh segment past the quarantined ones.
            journal.write_checkpoint(&schema)?;
        }
        let report = RecoveryReport {
            checkpoint_file,
            checkpoint_seq,
            replayed,
            seq,
            skipped_checkpoints,
            dropped_tail,
            quarantined,
        };
        if let Some(o) = &journal.obs {
            o.fold_recovery(&report);
        }
        Ok((journal, schema, report))
    }

    /// Read-only scan of a journal directory: newest readable checkpoint,
    /// every decodable WAL entry, and any invalid tail — without modifying
    /// anything (no truncation, no WAL creation).
    pub fn inspect(dir: &Path, io: &dyn JournalIo) -> Result<Inspection, JournalError> {
        let names = io.list(dir)?;
        let mut checkpoints: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "checkpoint-", ".axb").map(|s| (s, n.clone())))
            .collect();
        checkpoints.sort();
        let mut found: Option<(u64, String)> = None;
        for (seq, name) in checkpoints.iter().rev() {
            let data = io.read(&dir.join(name))?;
            if matches!(parse_checkpoint(name, &data), Ok((s, _)) if s == *seq) {
                found = Some((*seq, name.clone()));
                break;
            }
        }
        let (checkpoint_seq, checkpoint_file) = found.ok_or(JournalError::NoCheckpoint)?;

        let mut wals: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "wal-", ".log").map(|s| (s, n.clone())))
            .collect();
        wals.sort();
        let mut entries = Vec::new();
        let mut tail = None;
        'files: for (_base, name) in &wals {
            let data = io.read(&dir.join(name))?;
            if !data.starts_with(WAL_MAGIC) {
                tail = Some(DroppedTail {
                    file: name.clone(),
                    offset: 0,
                    bytes: data.len(),
                    kind: if WAL_MAGIC.starts_with(&data[..]) {
                        DropKind::TornTail
                    } else {
                        DropKind::Corrupt
                    },
                    detail: "bad wal magic".into(),
                });
                break 'files;
            }
            let mut off = WAL_MAGIC.len();
            loop {
                match read_frame(&data, off) {
                    FrameResult::End => break,
                    FrameResult::Record(f) => {
                        entries.push(LogEntry {
                            seq: f.seq,
                            op: f.op,
                            file: name.clone(),
                            offset: off,
                        });
                        off = f.next;
                    }
                    FrameResult::TornTail { offset, bytes } => {
                        tail = Some(DroppedTail {
                            file: name.clone(),
                            offset,
                            bytes,
                            kind: DropKind::TornTail,
                            detail: format!("incomplete frame of {bytes} byte(s)"),
                        });
                        break 'files;
                    }
                    FrameResult::Corrupt { offset, detail } => {
                        tail = Some(DroppedTail {
                            file: name.clone(),
                            offset,
                            bytes: data.len() - offset,
                            kind: DropKind::Corrupt,
                            detail,
                        });
                        break 'files;
                    }
                }
            }
        }
        Ok(Inspection {
            checkpoint_seq,
            checkpoint_file,
            entries,
            tail,
        })
    }

    /// Time-travel read: reconstruct the schema exactly *as of* sequence
    /// `seq` by loading the newest checkpoint and replaying the chained
    /// WAL prefix up to (and including) `seq`. Strictly read-only — a
    /// torn tail is never truncated, no WAL is created, nothing is
    /// checkpointed.
    ///
    /// Typed failures instead of silent approximations:
    /// - `seq` past the journal's durable maximum (including the case
    ///   where it points into a torn/corrupt tail) is
    ///   [`JournalError::SeqOutOfRange`] — *not* the tip state;
    /// - `seq` before the oldest surviving checkpoint (pruned history)
    ///   is [`JournalError::SeqBeforeCheckpoint`].
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
        // Single-pass scan, cost-matched to recovery: the newest valid
        // checkpoint is parsed exactly once (the validation parse IS the
        // starting schema), and each WAL frame is decoded exactly once —
        // applied while wanted, merely chain-counted past `seq` to
        // establish the durable maximum (see `replay_chain`).
        let names = io.list(dir)?;
        let mut checkpoints: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "checkpoint-", ".axb").map(|s| (s, n.clone())))
            .collect();
        checkpoints.sort();
        let mut found: Option<(u64, Schema)> = None;
        for (cseq, name) in checkpoints.iter().rev() {
            let data = io.read(&dir.join(name))?;
            if let Ok((hdr_seq, schema)) = parse_checkpoint(name, &data) {
                if hdr_seq == *cseq {
                    found = Some((*cseq, schema));
                    break;
                }
            }
        }
        let (checkpoint_seq, mut schema) = found.ok_or(JournalError::NoCheckpoint)?;
        if seq < checkpoint_seq {
            return Err(JournalError::SeqBeforeCheckpoint {
                requested: seq,
                checkpoint_seq,
            });
        }

        let mut wals: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_name(n, "wal-", ".log").map(|s| (s, n.clone())))
            .collect();
        wals.sort();
        // The wanted frames are one batch, exactly as in recovery: one
        // derivation when the scan ends, however many frames it applied.
        let (max, replayed) =
            schema.evolve_batch(|s| Ok(replay_chain(s, io, dir, &wals, checkpoint_seq, seq)))??;
        if seq > max {
            return Err(JournalError::SeqOutOfRange {
                requested: seq,
                max,
            });
        }
        Ok((schema, replayed))
    }

    /// Read-only health diagnosis of `dir`: what state the journal is in
    /// and what to do about it, without modifying anything. Unlike
    /// [`Journal::open`], this never errors on a corrupt or wedged
    /// journal — that *is* the diagnosis.
    pub fn diagnose(dir: &Path, io: &dyn JournalIo) -> Health {
        let names = match io.list(dir) {
            Ok(n) => n,
            Err(e) => {
                return Health {
                    status: "unreadable",
                    checkpoint_seq: None,
                    durable_seq: None,
                    wal_files: 0,
                    quarantined_files: 0,
                    tail: None,
                    error: Some(e.to_string()),
                    advice: "directory could not be listed; check the path and permissions".into(),
                }
            }
        };
        let wal_files = names
            .iter()
            .filter(|n| parse_name(n, "wal-", ".log").is_some())
            .count();
        let quarantined_files = names.iter().filter(|n| n.ends_with(".quar")).count();
        let has_checkpoint_files = names
            .iter()
            .any(|n| parse_name(n, "checkpoint-", ".axb").is_some());
        match Self::inspect(dir, io) {
            Ok(insp) => {
                // Longest chained prefix on top of the checkpoint — gapped
                // records decode but do not replay, so they do not count.
                let mut durable_seq = insp.checkpoint_seq;
                for e in &insp.entries {
                    if e.seq == durable_seq + 1 {
                        durable_seq += 1;
                    }
                }
                // A torn tail (crash mid-append) is repaired by any
                // recovery open; a checksummed-but-wrong record is refused
                // by strict mode and needs an explicit salvage or
                // quarantine decision.
                let (status, advice) = match &insp.tail {
                    Some(t) if t.kind == DropKind::Corrupt => (
                        "corrupt",
                        "corrupt record found; `recover --salvage` truncates it, `recover \
                         --quarantine` isolates the segment and keeps its bytes"
                            .to_string(),
                    ),
                    Some(_) => (
                        "repairable",
                        "torn tail found (crash mid-append); `recover` truncates it and the \
                         journal continues"
                            .to_string(),
                    ),
                    None => (
                        "healthy",
                        "checkpoint and log are clean; no action needed".to_string(),
                    ),
                };
                Health {
                    status,
                    checkpoint_seq: Some(insp.checkpoint_seq),
                    durable_seq: Some(durable_seq),
                    wal_files,
                    quarantined_files,
                    tail: insp.tail,
                    error: None,
                    advice,
                }
            }
            Err(JournalError::NoCheckpoint) if !has_checkpoint_files => Health {
                status: "uninitialized",
                checkpoint_seq: None,
                durable_seq: None,
                wal_files,
                quarantined_files,
                tail: None,
                error: None,
                advice: "no journal here; `journal-init` creates one".into(),
            },
            Err(e) => Health {
                status: "corrupt",
                checkpoint_seq: None,
                durable_seq: None,
                wal_files,
                quarantined_files,
                tail: None,
                error: Some(e.to_string()),
                advice: "no readable checkpoint; `recover --salvage` recovers the longest valid \
                         prefix, `recover --quarantine` additionally isolates corrupt segments"
                    .into(),
            },
        }
    }

    /// Sequence number of the last durable operation.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured WAL byte budget, if any.
    pub fn wal_budget(&self) -> Option<u64> {
        self.wal_budget
    }

    /// Cap the active WAL at `bytes` (`None` = unlimited). Appends that
    /// would cross the cap fail with [`JournalError::DiskFull`] *before*
    /// any I/O; a checkpoint resets the active WAL to its magic header,
    /// so the durability machine's disk-full GC path clears the condition.
    pub fn set_wal_budget(&mut self, bytes: Option<u64>) {
        self.wal_budget = bytes;
    }

    /// Durably append `ops` (frame, append, fsync) and advance the
    /// sequence. On I/O failure the on-disk suffix is unknown; callers
    /// (the durability machine in [`heal`]) repair the tail with
    /// [`Journal::repair_tail`] before retrying.
    pub fn append_all(&mut self, ops: &[RecordedOp]) -> Result<(), JournalError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_frame(&mut buf, self.seq + 1 + i as u64, op);
        }
        if let Some(budget) = self.wal_budget {
            if self.wal_len + buf.len() as u64 > budget {
                return Err(JournalError::DiskFull(format!(
                    "wal budget exceeded: {} + {} > {} byte(s); checkpoint to reclaim",
                    self.wal_len,
                    buf.len(),
                    budget
                )));
            }
        }
        let path = self.dir.join(wal_name(self.wal_base));
        self.io.append(&path, &buf)?;
        self.io.fsync(&path)?;
        self.seq += ops.len() as u64;
        self.wal_len += buf.len() as u64;
        if let Some(o) = &self.obs {
            o.on_journal_append(ops.len() as u64, buf.len() as u64);
        }
        Ok(())
    }

    /// Repair the active WAL after a failed append left its suffix
    /// unknown: rescan the file and truncate everything past the last
    /// *acknowledged* record (`seq <= self.seq`), so a retry appends onto
    /// a clean tail and durable replay equals the published prefix.
    pub fn repair_tail(&mut self) -> Result<(), JournalError> {
        let path = self.dir.join(wal_name(self.wal_base));
        let data = match self.io.read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The active WAL is missing (e.g. it was never created
                // after a failed checkpoint switch) — recreate it empty.
                // Any other read error is returned for the durability
                // machine to classify: overwriting the file would drop
                // acknowledged records.
                self.io.write(&path, WAL_MAGIC)?;
                self.io.fsync(&path)?;
                self.io.fsync_dir(&self.dir)?;
                self.wal_len = WAL_MAGIC.len() as u64;
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        if !data.starts_with(WAL_MAGIC) {
            if WAL_MAGIC.starts_with(&data[..]) {
                // Torn creation: rewrite the magic.
                self.io.write(&path, WAL_MAGIC)?;
                self.io.fsync(&path)?;
                self.wal_len = WAL_MAGIC.len() as u64;
                return Ok(());
            }
            return Err(JournalError::Corrupt {
                file: wal_name(self.wal_base),
                offset: 0,
                detail: "bad wal magic".into(),
            });
        }
        let mut off = WAL_MAGIC.len();
        let mut good_end = off;
        loop {
            match read_frame(&data, off) {
                FrameResult::Record(frame) if frame.seq <= self.seq => {
                    off = frame.next;
                    good_end = off;
                }
                // Anything else — an unacknowledged record (the failed
                // append may have partially landed), a torn frame, or
                // garbage — is past the acknowledged prefix: drop it.
                _ => break,
            }
        }
        if good_end < data.len() {
            self.io.truncate(&path, good_end as u64)?;
            self.io.fsync(&path)?;
        }
        self.wal_len = good_end as u64;
        Ok(())
    }

    /// Write an atomic checkpoint of `schema` at the current sequence,
    /// switch to a fresh WAL, and prune files the new checkpoint obsoletes.
    /// `schema` must be the state produced by exactly the operations
    /// appended so far ([`JournaledSchema`] guarantees this coupling).
    /// On I/O failure the on-disk state is recoverable as-is (the old
    /// checkpoint chain stays authoritative); callers may simply retry.
    pub fn checkpoint(&mut self, schema: &Schema) -> Result<(), JournalError> {
        self.write_checkpoint(schema)
    }

    /// The observer attached at construction, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<EvolveObs>> {
        self.obs.as_ref()
    }

    fn write_checkpoint(&mut self, schema: &Schema) -> Result<(), JournalError> {
        let seq = self.seq;
        let data = render_checkpoint(seq, schema);
        let checkpoint_bytes = data.len() as u64;
        // 1. Checkpoint file, atomically: tmp → fsync → rename → fsync dir.
        //    A crash before the rename leaves the old checkpoint authoritative.
        atomic_write(&*self.io, &self.dir.join(checkpoint_name(seq)), &data)?;
        // 2. Fresh WAL for the new base. A crash before this is harmless:
        //    recovery skips old-WAL records with seq <= checkpoint seq and
        //    recreates the missing file.
        let wal_path = self.dir.join(wal_name(seq));
        self.io.write(&wal_path, WAL_MAGIC)?;
        self.io.fsync(&wal_path)?;
        self.io.fsync_dir(&self.dir)?;
        // 3. Prune files the new checkpoint obsoletes. Only removed once
        //    the new checkpoint and WAL are durable (step 2's fsync_dir),
        //    so the recovery chain is never broken by a crash mid-prune.
        for name in self.io.list(&self.dir)? {
            let obsolete = parse_name(&name, "checkpoint-", ".axb").is_some_and(|s| s < seq)
                || parse_name(&name, "wal-", ".log").is_some_and(|s| s < seq)
                || name.ends_with(".tmp");
            if obsolete {
                self.io.remove(&self.dir.join(name))?;
            }
        }
        self.io.fsync_dir(&self.dir)?;
        self.wal_base = seq;
        self.wal_len = WAL_MAGIC.len() as u64;
        if let Some(o) = &self.obs {
            o.on_checkpoint(checkpoint_bytes);
        }
        Ok(())
    }
}

/// Configuration for [`JournaledSchema`].
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// Take an automatic checkpoint once this many operations have been
    /// appended since the last one (0 = only on explicit
    /// [`JournaledSchema::checkpoint`] calls).
    pub checkpoint_every: usize,
}

impl Default for JournalOptions {
    fn default() -> Self {
        JournalOptions {
            checkpoint_every: 256,
        }
    }
}

struct JournalCell {
    journal: Journal,
    machine: heal::DurabilityMachine,
    since_checkpoint: usize,
}

impl JournalCell {
    fn new(journal: Journal, obs: Option<Arc<EvolveObs>>, quarantined: u64) -> JournalCell {
        let mut machine = heal::DurabilityMachine::new(
            heal::RetryPolicy::default(),
            Arc::new(heal::SystemClock::new()),
        );
        if let Some(o) = obs {
            machine.attach_obs(o);
        }
        if quarantined > 0 {
            machine.note_quarantine(quarantined);
        }
        JournalCell {
            journal,
            machine,
            since_checkpoint: 0,
        }
    }
}

impl std::fmt::Debug for JournalCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalCell")
            .field("journal", &self.journal)
            .field("machine", &self.machine)
            .field("since_checkpoint", &self.since_checkpoint)
            .finish()
    }
}

/// [`heal::HealOps`] for the append path: retry the framed append, repair
/// the WAL tail between attempts, and reclaim space with a checkpoint of
/// the *published* (pre-evolve) snapshot on `ENOSPC`.
struct AppendOps<'a> {
    journal: &'a mut Journal,
    shared: &'a SharedSchema,
    ops: &'a [RecordedOp],
}

impl heal::HealOps for AppendOps<'_> {
    type Out = ();

    fn attempt(&mut self) -> Result<(), JournalError> {
        self.journal.append_all(self.ops)
    }

    fn repair(&mut self) -> Result<(), JournalError> {
        self.journal.repair_tail()
    }

    fn gc(&mut self) -> Result<(), JournalError> {
        // The failed append acknowledged nothing, so the published
        // snapshot is exactly the state at the journal's sequence —
        // checkpointing it prunes every obsolete segment and resets the
        // active WAL (clearing any WAL-budget pressure too).
        let snap = self.shared.snapshot();
        self.journal.checkpoint(&snap)
    }
}

/// [`heal::HealOps`] for an explicit checkpoint: the checkpoint *is* the
/// GC, so `gc` is a no-op.
struct CheckpointOps<'a> {
    journal: &'a mut Journal,
    snap: &'a Schema,
}

impl heal::HealOps for CheckpointOps<'_> {
    type Out = ();

    fn attempt(&mut self) -> Result<(), JournalError> {
        self.journal.checkpoint(self.snap)
    }

    fn repair(&mut self) -> Result<(), JournalError> {
        self.journal.repair_tail()
    }

    fn gc(&mut self) -> Result<(), JournalError> {
        Ok(())
    }
}

/// A [`SharedSchema`] whose every evolution step is journaled with
/// write-ahead ordering: operations are framed, appended, and fsynced
/// **before** the new schema version is published, so an acknowledged
/// operation is always recoverable and an unacknowledged one is never
/// observable — the applied-prefix guarantee (module docs).
///
/// ```no_run
/// use std::sync::Arc;
/// use axiombase_core::journal::{io::StdIo, JournaledSchema, JournalOptions, RecoveryMode};
/// use axiombase_core::{LatticeConfig, RecordedOp, Schema};
///
/// let mut s = Schema::new(LatticeConfig::default());
/// s.add_root_type("T_object")?;
/// let dir = std::path::Path::new("objectbase.journal");
/// let js = JournaledSchema::create(dir, Arc::new(StdIo), s, JournalOptions::default())?;
/// js.apply(&RecordedOp::AddType {
///     name: "T_person".into(),
///     supers: vec![js.snapshot().root().unwrap()],
///     props: vec![],
/// })?;
/// js.checkpoint()?;
/// drop(js);
///
/// // After a crash: recover the acknowledged prefix.
/// let (js, report) = JournaledSchema::open(
///     dir, Arc::new(StdIo), RecoveryMode::Strict, JournalOptions::default())?;
/// assert!(js.snapshot().type_by_name("T_person").is_some());
/// assert!(report.dropped_tail.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct JournaledSchema {
    shared: SharedSchema,
    cell: Mutex<JournalCell>,
    opts: JournalOptions,
}

impl JournaledSchema {
    /// Initialise a fresh journal in `dir` with `schema` as its first
    /// checkpoint.
    pub fn create(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: Schema,
        opts: JournalOptions,
    ) -> Result<JournaledSchema, JournalError> {
        let journal = Journal::create(dir, io, &schema)?;
        Ok(JournaledSchema {
            shared: SharedSchema::new(schema),
            cell: Mutex::new(JournalCell::new(journal, None, 0)),
            opts,
        })
    }

    /// Initialise a fresh journal in `dir` whose first checkpoint carries
    /// sequence `base_seq` instead of 0 — branch seeding (see
    /// [`Journal::create_at`]).
    pub fn create_at(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: Schema,
        base_seq: u64,
        opts: JournalOptions,
    ) -> Result<JournaledSchema, JournalError> {
        let journal = Journal::create_at(dir, io, &schema, base_seq)?;
        Ok(JournaledSchema {
            shared: SharedSchema::new(schema),
            cell: Mutex::new(JournalCell::new(journal, None, 0)),
            opts,
        })
    }

    /// Like [`JournaledSchema::create`], but observed end-to-end: `obs` is
    /// attached to the schema (engine + copy-on-write metrics), adopted by
    /// the shared handle (snapshot/publish/reject metrics), and threaded
    /// through the journal (append/fsync/checkpoint metrics, `ops.*`
    /// counters, span events).
    pub fn create_observed(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mut schema: Schema,
        opts: JournalOptions,
        obs: Arc<EvolveObs>,
    ) -> Result<JournaledSchema, JournalError> {
        schema.attach_obs(Arc::clone(&obs));
        let journal = Journal::create_observed(dir, io, &schema, Arc::clone(&obs))?;
        Ok(JournaledSchema {
            shared: SharedSchema::new(schema),
            cell: Mutex::new(JournalCell::new(journal, Some(obs), 0)),
            opts,
        })
    }

    /// Recover a journaled schema from `dir` (see [`Journal::open`]).
    pub fn open(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        opts: JournalOptions,
    ) -> Result<(JournaledSchema, RecoveryReport), JournalError> {
        let (journal, schema, report) = Journal::open(dir, io, mode)?;
        Ok((
            JournaledSchema {
                shared: SharedSchema::new(schema),
                cell: Mutex::new(JournalCell::new(
                    journal,
                    None,
                    report.quarantined.len() as u64,
                )),
                opts,
            },
            report,
        ))
    }

    /// Like [`JournaledSchema::open`], but observed end-to-end (see
    /// [`JournaledSchema::create_observed`] and [`Journal::open_observed`]
    /// for exactly what is counted, including during recovery replay).
    pub fn open_observed(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        opts: JournalOptions,
        obs: Arc<EvolveObs>,
    ) -> Result<(JournaledSchema, RecoveryReport), JournalError> {
        let (journal, schema, report) = Journal::open_observed(dir, io, mode, Arc::clone(&obs))?;
        Ok((
            JournaledSchema {
                // `schema` already carries the observer (attached before
                // replay), so the shared handle adopts it here.
                shared: SharedSchema::new(schema),
                cell: Mutex::new(JournalCell::new(
                    journal,
                    Some(obs),
                    report.quarantined.len() as u64,
                )),
                opts,
            },
            report,
        ))
    }

    /// A consistent snapshot of the current schema version (cheap; see
    /// [`SharedSchema::snapshot`]).
    pub fn snapshot(&self) -> Arc<Schema> {
        self.shared.snapshot()
    }

    /// Sequence number of the last durable (acknowledged) operation.
    pub fn seq(&self) -> u64 {
        self.cell.lock().journal.seq()
    }

    /// Apply one operation with write-ahead journaling.
    pub fn apply(&self, op: &RecordedOp) -> Result<(), JournalError> {
        self.apply_trace(std::slice::from_ref(op)).map(|_| ())
    }

    /// Apply a trace of operations as **one** journaled, atomically
    /// published evolution step: either every operation is validated,
    /// durably appended, and published together, or none is (the
    /// all-or-nothing lifting of [`SharedSchema::apply_trace`]). Returns
    /// the number of operations applied (always `ops.len()` on success).
    pub fn apply_trace(&self, ops: &[RecordedOp]) -> Result<usize, JournalError> {
        // One lock for the whole mutate→append→publish→checkpoint span:
        // the journal's sequence always matches the published schema.
        let mut cell = self.cell.lock();
        let cell = &mut *cell;
        // Degraded + cooldown running → typed fast rejection; after the
        // cooldown this call is the probe that may re-arm the journal.
        let admission = cell.machine.admit()?;
        if let Some(o) = cell.journal.obs() {
            // `op_start` events carry the journal sequence each op will
            // get if the step commits (validation may still reject it).
            let base = cell.journal.seq();
            for (i, op) in ops.iter().enumerate() {
                o.on_op(base + 1 + i as u64, op);
            }
        }
        let wal_base_before = cell.journal.wal_base;
        let shared = &self.shared;
        let result = {
            let JournalCell {
                journal, machine, ..
            } = cell;
            // The single panic-isolation point: a panic inside mutation,
            // append, or publish degrades the machine and surfaces as a
            // typed error — never a poisoned lock or a torn publish.
            heal::isolate(move || {
                shared.evolve_commit(
                    |s| s.apply_trace(ops).map_err(JournalError::from),
                    |_next| {
                        let mut hops = AppendOps {
                            journal,
                            shared,
                            ops,
                        };
                        heal::guarded_commit(machine, admission, &mut hops)
                    },
                )
            })
        };
        match result {
            Ok(r) => r?,
            Err(msg) => {
                cell.machine.note_panic(&msg);
                return Err(JournalError::Panicked(msg));
            }
        };
        if cell.journal.wal_base != wal_base_before {
            // A disk-full GC checkpointed mid-retry; the cadence restarts.
            cell.since_checkpoint = 0;
        }
        cell.since_checkpoint += ops.len();
        if self.opts.checkpoint_every > 0 && cell.since_checkpoint >= self.opts.checkpoint_every {
            // The ops are durable and published; an auto-checkpoint
            // failure must not fail the apply. The machine records it
            // (degrading if needed) and the cadence retries next time.
            let snap = shared.snapshot();
            let ckpt = {
                let JournalCell {
                    journal, machine, ..
                } = cell;
                let mut hops = CheckpointOps {
                    journal,
                    snap: &snap,
                };
                heal::isolate(move || {
                    heal::guarded_commit(machine, heal::Admission::Normal, &mut hops)
                })
            };
            match ckpt {
                Ok(Ok(())) => cell.since_checkpoint = 0,
                Ok(Err(_)) => {}
                Err(msg) => cell.machine.note_panic(&msg),
            }
        }
        Ok(ops.len())
    }

    /// Take a checkpoint of the current schema now (guarded: retried,
    /// degraded, or rejected `Unavailable` exactly like an append).
    pub fn checkpoint(&self) -> Result<(), JournalError> {
        let mut cell = self.cell.lock();
        let cell = &mut *cell;
        let admission = cell.machine.admit()?;
        // Mutations hold the cell lock across publish, so this snapshot is
        // exactly the state at the journal's current sequence.
        let snap = self.shared.snapshot();
        let result = {
            let JournalCell {
                journal, machine, ..
            } = cell;
            let mut hops = CheckpointOps {
                journal,
                snap: &snap,
            };
            heal::isolate(move || heal::guarded_commit(machine, admission, &mut hops))
        };
        match result {
            Ok(r) => r?,
            Err(msg) => {
                cell.machine.note_panic(&msg);
                return Err(JournalError::Panicked(msg));
            }
        }
        cell.since_checkpoint = 0;
        Ok(())
    }

    /// The current durability state, counters, and last error.
    pub fn durability(&self) -> heal::DurabilityReport {
        self.cell.lock().machine.report()
    }

    /// The attached observer, if this handle was opened observed.
    pub(crate) fn attached_obs(&self) -> Option<Arc<EvolveObs>> {
        self.cell.lock().journal.obs().cloned()
    }

    /// Swap the retry policy and clock driving the durability machine
    /// (state and counters are preserved). Tests inject a
    /// [`heal::ManualClock`] here so fault schedules run in virtual time.
    pub fn set_heal(&self, policy: heal::RetryPolicy, clock: Arc<dyn heal::Clock>) {
        self.cell.lock().machine.reconfigure(policy, clock);
    }

    /// Cap the active WAL at `bytes` (see [`Journal::set_wal_budget`]).
    pub fn set_wal_budget(&self, bytes: Option<u64>) {
        self.cell.lock().journal.set_wal_budget(bytes);
    }

    /// Time-travel read: reconstruct the schema exactly *as of* sequence
    /// `seq` from the durable journal (newest checkpoint + chained WAL
    /// prefix up to `seq`), without disturbing the live handle. Holding
    /// the cell lock for the duration pins the on-disk layout — no
    /// concurrent append or checkpoint can race the read.
    ///
    /// See [`Journal::replay_at`] for the typed out-of-range /
    /// before-checkpoint failures.
    pub fn open_at(&self, seq: u64) -> Result<Schema, JournalError> {
        let cell = self.cell.lock();
        let journal = &cell.journal;
        let result = Journal::replay_at_counted(&journal.dir, journal.io.as_ref(), seq);
        if let Some(o) = journal.obs() {
            match &result {
                Ok((_, replayed)) => o.on_timetravel_open(*replayed),
                Err(_) => o.on_timetravel_rejected(),
            }
        }
        result.map(|(schema, _)| schema)
    }

    /// Consume the handle, returning the final schema.
    pub fn into_inner(self) -> Schema {
        self.shared.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::heal::Clock;
    use super::io::{CrashKeep, MemIo};
    use super::*;
    use crate::config::LatticeConfig;

    fn base_schema() -> Schema {
        let mut s = Schema::new(LatticeConfig::default());
        s.add_root_type("T_object").unwrap();
        s
    }

    fn add(name: &str, supers: Vec<crate::ids::TypeId>) -> RecordedOp {
        RecordedOp::AddType {
            name: name.into(),
            supers,
            props: vec![],
        }
    }

    fn dir() -> PathBuf {
        PathBuf::from("/j")
    }

    #[test]
    fn create_append_recover_roundtrip() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        let want = js.snapshot().fingerprint();
        drop(js);

        io.crash(CrashKeep::Synced); // acknowledged ops must survive
        let (js2, report) =
            JournaledSchema::open(&dir(), io, RecoveryMode::Strict, JournalOptions::default())
                .unwrap();
        assert_eq!(js2.snapshot().fingerprint(), want);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.seq, 2);
        assert!(report.dropped_tail.is_none());
        assert!(report.skipped_checkpoints.is_empty());
    }

    #[test]
    fn create_refuses_existing_journal() {
        let io = Arc::new(MemIo::new());
        Journal::create(&dir(), io.clone(), &base_schema()).unwrap();
        assert!(matches!(
            Journal::create(&dir(), io, &base_schema()),
            Err(JournalError::AlreadyExists)
        ));
    }

    #[test]
    fn open_empty_dir_is_no_checkpoint() {
        let io = Arc::new(MemIo::new());
        assert!(matches!(
            Journal::open(&dir(), io, RecoveryMode::Strict),
            Err(JournalError::NoCheckpoint)
        ));
    }

    #[test]
    fn checkpoint_prunes_and_chain_survives() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.checkpoint().unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        let want = js.snapshot().fingerprint();
        drop(js);

        // Old generation pruned.
        let names = io.list(&dir()).unwrap();
        assert!(names.contains(&checkpoint_name(1)), "{names:?}");
        assert!(!names.contains(&checkpoint_name(0)), "{names:?}");
        assert!(!names.contains(&wal_name(0)), "{names:?}");

        io.crash(CrashKeep::Synced);
        let (_, schema, report) = Journal::open(&dir(), io, RecoveryMode::Strict).unwrap();
        assert_eq!(schema.fingerprint(), want);
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.seq, 2);
    }

    #[test]
    fn torn_tail_is_truncated_in_strict_mode() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        drop(js);
        // Simulate a torn append: half a frame beyond the acknowledged log.
        let wal = dir().join(wal_name(0));
        io.append(&wal, &[0x07, 0x00, 0x00]).unwrap();
        let len_before = io.len(&wal).unwrap();

        let (journal, schema, report) =
            Journal::open(&dir(), io.clone(), RecoveryMode::Strict).unwrap();
        assert_eq!(journal.seq(), 1);
        assert!(schema.type_by_name("A").is_some());
        let tail = report.dropped_tail.expect("tail must be reported");
        assert_eq!(tail.kind, DropKind::TornTail);
        assert_eq!(tail.bytes, 3);
        assert_eq!(tail.offset, len_before - 3);
        assert_eq!(io.len(&wal).unwrap(), len_before - 3);
    }

    #[test]
    fn corrupt_record_strict_rejects_salvage_truncates() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        let offset_b = io.len(&dir().join(wal_name(0))).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        js.apply(&add("C", vec![root])).unwrap();
        drop(js);
        // Flip a payload bit in the middle record ("B").
        let wal = dir().join(wal_name(0));
        io.corrupt(&wal, offset_b + wire::FRAME_HEADER + 1, 0x01);

        // Strict: refuse, naming the exact offset.
        match Journal::open(&dir(), io.clone(), RecoveryMode::Strict) {
            Err(JournalError::Corrupt { file, offset, .. }) => {
                assert_eq!(file, wal_name(0));
                assert_eq!(offset, offset_b);
            }
            other => panic!("{other:?}"),
        }

        // Salvage: keep the valid prefix (A), drop B *and* C, report bytes.
        let total = io.len(&wal).unwrap();
        let (journal, schema, report) =
            Journal::open(&dir(), io.clone(), RecoveryMode::Salvage).unwrap();
        assert_eq!(journal.seq(), 1);
        assert!(schema.type_by_name("A").is_some());
        assert!(schema.type_by_name("B").is_none());
        assert!(schema.type_by_name("C").is_none());
        let tail = report.dropped_tail.expect("salvage must report the drop");
        assert_eq!(tail.kind, DropKind::Corrupt);
        assert_eq!(tail.offset, offset_b);
        assert_eq!(tail.bytes, total - offset_b);
        assert_eq!(io.len(&wal).unwrap(), offset_b);
        assert!(schema.verify().is_empty());
    }

    #[test]
    fn corrupt_checkpoint_salvage_falls_back_to_older() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        drop(js);
        // Forge a newer, damaged checkpoint.
        io.write(
            &dir().join(checkpoint_name(9)),
            b"axbcheckpoint v1 seq 9 crc 00000000\ngarbage",
        )
        .unwrap();

        assert!(matches!(
            Journal::open(&dir(), io.clone(), RecoveryMode::Strict),
            Err(JournalError::BadCheckpoint { .. })
        ));

        let (_, schema, report) = Journal::open(&dir(), io, RecoveryMode::Salvage).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.skipped_checkpoints.len(), 1);
        assert_eq!(report.skipped_checkpoints[0].file, checkpoint_name(9));
        assert!(schema.type_by_name("A").is_some());
    }

    #[test]
    fn recovery_is_idempotent() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        drop(js);
        io.append(&dir().join(wal_name(0)), &[1, 2, 3, 4, 5])
            .unwrap();

        let (_, s1, r1) = Journal::open(&dir(), io.clone(), RecoveryMode::Strict).unwrap();
        let len_after_first = io.len(&dir().join(wal_name(0))).unwrap();
        let (_, s2, r2) = Journal::open(&dir(), io.clone(), RecoveryMode::Strict).unwrap();
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(r1.seq, r2.seq);
        assert!(r1.dropped_tail.is_some());
        assert!(
            r2.dropped_tail.is_none(),
            "second recovery finds a clean log"
        );
        assert_eq!(
            io.len(&dir().join(wal_name(0))).unwrap(),
            len_after_first,
            "recovery must not grow the log"
        );
    }

    #[test]
    fn permanent_failure_degrades_read_only_until_reopened() {
        use super::io::FaultIo;
        let mem = Arc::new(MemIo::new());
        let js = JournaledSchema::create(
            &dir(),
            mem.clone(),
            base_schema(),
            JournalOptions::default(),
        )
        .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        drop(js);

        // Reopen through a FaultIo that dies on the 1st mutating call
        // (recovery itself only reads).
        let fault = Arc::new(FaultIo::new(mem.clone(), 1, 0));
        let (js, _) = JournaledSchema::open(
            &dir(),
            fault,
            RecoveryMode::Strict,
            JournalOptions::default(),
        )
        .unwrap();
        let clock = Arc::new(heal::ManualClock::new());
        js.set_heal(heal::RetryPolicy::default(), clock.clone());
        let fp = js.snapshot().fingerprint();

        // The dead process surfaces as a permanent I/O error: the journal
        // degrades to read-only instead of wedging.
        match js.apply(&add("B", vec![root])) {
            Err(JournalError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
        let d = js.durability();
        assert_eq!(d.state, heal::DurabilityState::Degraded);
        assert_eq!(d.counters.degradations, 1);
        // Snapshots keep serving the pre-failure state.
        assert_eq!(js.snapshot().fingerprint(), fp);

        // Inside the cooldown: typed fast rejection, not an I/O attempt.
        match js.apply(&add("C", vec![root])) {
            Err(JournalError::Unavailable { .. }) => {}
            other => panic!("{other:?}"),
        }

        // After the cooldown the next apply is the probe; the device is
        // still dead, so it re-degrades with a doubled cooldown.
        clock.advance(js.durability().retry_after_ms.unwrap() + 1);
        match js.apply(&add("D", vec![root])) {
            Err(JournalError::Unavailable { .. }) => {}
            other => panic!("{other:?}"),
        }
        let d = js.durability();
        assert_eq!(d.counters.probes, 1);
        assert_eq!(d.counters.rearms, 0);

        // Recovery with healthy I/O starts a fresh, healthy machine.
        mem.crash(CrashKeep::Synced);
        let (js2, _) =
            JournaledSchema::open(&dir(), mem, RecoveryMode::Strict, JournalOptions::default())
                .unwrap();
        assert_eq!(js2.durability().state, heal::DurabilityState::Healthy);
        js2.apply(&add("E", vec![root])).unwrap();
        assert!(js2.snapshot().type_by_name("E").is_some());
    }

    #[test]
    fn transient_failure_retries_inline_and_recovers() {
        use super::fault::{ChaosIo, FaultKind, FaultPlan, FaultSpec};
        let mem = Arc::new(MemIo::new());
        let clock = Arc::new(heal::ManualClock::new());
        let chaos = Arc::new(ChaosIo::new(
            mem.clone(),
            FaultPlan {
                specs: vec![FaultSpec::FailNth {
                    nth: 1,
                    kind: FaultKind::Transient,
                    torn_bytes: 0,
                }],
            },
            clock.clone(),
        ));
        let js = JournaledSchema::create(
            &dir(),
            chaos.clone(),
            base_schema(),
            JournalOptions::default(),
        )
        .unwrap();
        js.set_heal(heal::RetryPolicy::default(), clock.clone());
        let root = js.snapshot().root().unwrap();
        chaos.arm();

        // First mutating call fails transiently once; the guarded commit
        // repairs the tail, retries on the virtual clock, and succeeds.
        js.apply(&add("A", vec![root])).unwrap();
        assert!(js.snapshot().type_by_name("A").is_some());
        let d = js.durability();
        assert_eq!(d.state, heal::DurabilityState::Recovered);
        assert_eq!(d.counters.retries, 1);
        assert_eq!(d.counters.retry_successes, 1);
        assert_eq!(d.counters.degradations, 0);
        assert!(clock.now_ms() > 0, "backoff ran on the injected clock");

        // Durable: a crash + strict reopen replays the op.
        drop(js);
        mem.crash(CrashKeep::Synced);
        let (js2, report) =
            JournaledSchema::open(&dir(), mem, RecoveryMode::Strict, JournalOptions::default())
                .unwrap();
        assert_eq!(report.seq, 1);
        assert!(js2.snapshot().type_by_name("A").is_some());
    }

    #[test]
    fn wal_budget_guard_is_cleared_by_checkpoint_gc() {
        let io = Arc::new(MemIo::new());
        let clock = Arc::new(heal::ManualClock::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        js.set_heal(heal::RetryPolicy::default(), clock);
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        let used = io.len(&dir().join(wal_name(0))).unwrap() as u64;
        // Tight budget: the next append would cross it, triggering the
        // disk-full GC (checkpoint) and then succeeding on the fresh WAL.
        js.set_wal_budget(Some(used + 8));
        js.apply(&add("B", vec![root])).unwrap();
        let d = js.durability();
        assert_eq!(d.counters.disk_full_gcs, 1);
        assert_eq!(d.state, heal::DurabilityState::Recovered);
        assert!(js.snapshot().type_by_name("B").is_some());
        // The GC checkpointed at the pre-append sequence.
        let names = io.list(&dir()).unwrap();
        assert!(names.contains(&checkpoint_name(1)), "{names:?}");
    }

    #[test]
    fn quarantine_mode_isolates_corrupt_segment_and_continues() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        drop(js);
        // Corrupt the first record's payload: strict refuses, quarantine
        // renames the segment and re-checkpoints at the recovered seq.
        io.corrupt(&dir().join(wal_name(0)), WAL_MAGIC.len() + 10, 0xFF);
        assert!(Journal::open(&dir(), io.clone(), RecoveryMode::Strict).is_err());

        let (js, report) = JournaledSchema::open(
            &dir(),
            io.clone(),
            RecoveryMode::Quarantine,
            JournalOptions::default(),
        )
        .unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].file, wal_name(0));
        assert_eq!(
            report.quarantined[0].quarantined_as,
            format!("{}.quar", wal_name(0))
        );
        assert_eq!(report.seq, 0, "both records were past the corruption");
        let d = js.durability();
        assert_eq!(d.state, heal::DurabilityState::Quarantined);
        assert_eq!(d.counters.quarantined_segments, 1);

        // The quarantined file is preserved; the journal accepts ops and
        // heals to Recovered on the first success.
        let names = io.list(&dir()).unwrap();
        assert!(
            names.contains(&format!("{}.quar", wal_name(0))),
            "{names:?}"
        );
        js.apply(&add("C", vec![root])).unwrap();
        assert_eq!(js.durability().state, heal::DurabilityState::Recovered);

        // Idempotent: a second quarantine open finds nothing new to do.
        drop(js);
        let (_, report2) = JournaledSchema::open(
            &dir(),
            io,
            RecoveryMode::Quarantine,
            JournalOptions::default(),
        )
        .unwrap();
        assert!(report2.quarantined.is_empty());
    }

    #[test]
    fn auto_checkpoint_by_cadence() {
        let io = Arc::new(MemIo::new());
        let js = JournaledSchema::create(
            &dir(),
            io.clone(),
            base_schema(),
            JournalOptions {
                checkpoint_every: 2,
            },
        )
        .unwrap();
        let root = js.snapshot().root().unwrap();
        for name in ["A", "B", "C"] {
            js.apply(&add(name, vec![root])).unwrap();
        }
        drop(js);
        let names = io.list(&dir()).unwrap();
        assert!(
            names.contains(&checkpoint_name(2)),
            "cadence-2 checkpoint after two ops: {names:?}"
        );
        let (_, schema, report) = Journal::open(&dir(), io, RecoveryMode::Strict).unwrap();
        assert_eq!(report.checkpoint_seq, 2);
        assert_eq!(report.seq, 3);
        assert!(schema.type_by_name("C").is_some());
    }

    #[test]
    fn inspect_reports_entries_without_modifying() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        drop(js);
        io.append(&dir().join(wal_name(0)), &[9, 9]).unwrap();
        let len = io.len(&dir().join(wal_name(0))).unwrap();

        let insp = Journal::inspect(&dir(), &*io).unwrap();
        assert_eq!(insp.checkpoint_seq, 0);
        assert_eq!(insp.entries.len(), 2);
        assert_eq!(insp.entries[0].seq, 1);
        assert_eq!(insp.entries[1].seq, 2);
        assert!(matches!(
            insp.tail,
            Some(DroppedTail {
                kind: DropKind::TornTail,
                bytes: 2,
                ..
            })
        ));
        // Read-only: the torn bytes are still there.
        assert_eq!(io.len(&dir().join(wal_name(0))).unwrap(), len);
    }

    #[test]
    fn recovery_survives_missing_wal_after_checkpoint() {
        // Crash window between checkpoint rename and new-WAL creation:
        // simulate by deleting the active WAL (its records are all covered
        // by the checkpoint).
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.checkpoint().unwrap();
        let want = js.snapshot().fingerprint();
        drop(js);
        io.remove(&dir().join(wal_name(1))).unwrap();

        let (journal, schema, report) =
            Journal::open(&dir(), io.clone(), RecoveryMode::Strict).unwrap();
        assert_eq!(schema.fingerprint(), want);
        assert_eq!(report.seq, 1);
        assert_eq!(journal.seq(), 1);
        // The WAL was recreated so appends work immediately.
        let names = io.list(&dir()).unwrap();
        assert!(names.contains(&wal_name(1)), "{names:?}");
    }

    #[test]
    fn replay_at_reconstructs_every_prefix_and_rejects_past_the_tip() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        let mut wants = vec![js.snapshot().fingerprint()];
        for i in 0..4 {
            js.apply(&add(&format!("T_{i}"), vec![root])).unwrap();
            wants.push(js.snapshot().fingerprint());
        }
        for (n, want) in wants.iter().enumerate() {
            let schema = js.open_at(n as u64).unwrap();
            assert_eq!(schema.fingerprint(), *want, "as of seq {n}");
        }
        // The bugfix: past the tip is a typed refusal, NOT the tip state.
        // A naive prefix replay (`take while seq <= n`) would silently
        // return the tip here.
        assert_eq!(
            js.open_at(5).unwrap_err(),
            JournalError::SeqOutOfRange {
                requested: 5,
                max: 4
            }
        );
        assert_eq!(
            Journal::replay_at(&dir(), io.as_ref(), 99).unwrap_err(),
            JournalError::SeqOutOfRange {
                requested: 99,
                max: 4
            }
        );
    }

    #[test]
    fn replay_at_handles_checkpoint_boundaries_and_pruned_history() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        let at_ckpt = js.snapshot().fingerprint();
        js.checkpoint().unwrap(); // checkpoint at seq 2, prunes seq 1-2 WAL
        js.apply(&add("C", vec![root])).unwrap();
        let after = js.snapshot().fingerprint();

        // Exactly on the boundary, and just after it.
        assert_eq!(js.open_at(2).unwrap().fingerprint(), at_ckpt);
        assert_eq!(js.open_at(3).unwrap().fingerprint(), after);
        // Just before the boundary: that history was pruned — typed.
        assert_eq!(
            js.open_at(1).unwrap_err(),
            JournalError::SeqBeforeCheckpoint {
                requested: 1,
                checkpoint_seq: 2
            }
        );
    }

    #[test]
    fn replay_at_refuses_seq_inside_a_torn_tail() {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        drop(js);
        // Tear the last record: seq 2 is no longer durable.
        let wal = dir().join(wal_name(0));
        let mut bytes = io.read(&wal).unwrap();
        bytes.truncate(bytes.len() - 3);
        io.write(&wal, &bytes).unwrap();
        let got = Journal::replay_at(&dir(), io.as_ref(), 2).unwrap_err();
        assert_eq!(
            got,
            JournalError::SeqOutOfRange {
                requested: 2,
                max: 1
            }
        );
        // The surviving prefix is still addressable, read-only.
        assert!(Journal::replay_at(&dir(), io.as_ref(), 1).is_ok());
    }

    /// A journal whose WAL holds `A` (seq 1), `B` (seq 2), a CRC-valid
    /// frame whose op the schema rejects (seq 3: a second type named `A`)
    /// and a valid `D` (seq 4). Returns the I/O, the rejected frame's
    /// offset, and the accepted prefix `[A, B]`.
    fn rejected_frame_journal() -> (Arc<MemIo>, usize, Vec<RecordedOp>) {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        let prefix = vec![add("A", vec![root]), add("B", vec![root])];
        for op in &prefix {
            js.apply(op).unwrap();
        }
        drop(js);
        let wal = dir().join(wal_name(0));
        let offset = io.len(&wal).unwrap();
        let mut frames = Vec::new();
        encode_frame(&mut frames, 3, &add("A", vec![root]));
        encode_frame(&mut frames, 4, &add("D", vec![root]));
        io.append(&wal, &frames).unwrap();
        (io, offset, prefix)
    }

    /// Fingerprint of the base schema plus `ops`, applied one at a time.
    fn op_by_op(ops: &[RecordedOp]) -> u64 {
        let mut s = base_schema();
        for op in ops {
            op.apply(&mut s).unwrap();
        }
        s.fingerprint()
    }

    #[test]
    fn replay_at_rejected_frame_strict_recovery_refuses_with_its_seq() {
        let (io, _, _) = rejected_frame_journal();
        let wal = dir().join(wal_name(0));
        let before = io.read(&wal).unwrap();
        assert!(matches!(
            Journal::open(&dir(), io.clone(), RecoveryMode::Strict),
            Err(JournalError::Replay { seq: 3, .. })
        ));
        assert_eq!(io.read(&wal).unwrap(), before, "strict modifies nothing");
    }

    #[test]
    fn replay_at_rejected_frame_salvage_truncates_at_it() {
        let (io, offset, prefix) = rejected_frame_journal();
        let wal = dir().join(wal_name(0));
        let total = io.len(&wal).unwrap();
        let (journal, schema, report) =
            Journal::open(&dir(), io.clone(), RecoveryMode::Salvage).unwrap();
        let tail = report.dropped_tail.expect("salvage reports the drop");
        assert_eq!(tail.kind, DropKind::ReplayRejected);
        assert_eq!(tail.offset, offset);
        assert_eq!(tail.bytes, total - offset);
        assert!(tail.detail.starts_with("op 3 rejected"), "{}", tail.detail);
        assert_eq!(io.len(&wal).unwrap(), offset);
        assert_eq!((journal.seq(), report.replayed), (2, 2));
        assert_eq!(schema.fingerprint(), op_by_op(&prefix));
        assert!(schema.verify().is_empty());
    }

    #[test]
    fn replay_at_rejected_frame_quarantine_isolates_the_segment() {
        let (io, _, prefix) = rejected_frame_journal();
        let (journal, schema, report) =
            Journal::open(&dir(), io.clone(), RecoveryMode::Quarantine).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].file, wal_name(0));
        assert!(report.quarantined[0].detail.starts_with("op 3 rejected"));
        assert_eq!((journal.seq(), report.replayed), (2, 2));
        assert_eq!(schema.fingerprint(), op_by_op(&prefix));
        assert!(schema.verify().is_empty());
        // The segment is kept under `*.quar` and the accepted prefix is
        // re-checkpointed, so a strict reopen starts from it.
        let names = io.list(&dir()).unwrap();
        assert!(
            names.contains(&format!("{}.quar", wal_name(0))),
            "{names:?}"
        );
        assert!(names.contains(&checkpoint_name(2)), "{names:?}");
        let (_, again, report) = Journal::open(&dir(), io, RecoveryMode::Strict).unwrap();
        assert_eq!((report.checkpoint_seq, report.seq), (2, 2));
        assert_eq!(again.fingerprint(), op_by_op(&prefix));
    }

    #[test]
    fn replay_at_rejected_frame_is_refused_at_and_past_it() {
        let (io, _, prefix) = rejected_frame_journal();
        for seq in 0..=2 {
            let schema = Journal::replay_at(&dir(), io.as_ref(), seq).unwrap();
            assert_eq!(schema.fingerprint(), op_by_op(&prefix[..seq as usize]));
            assert!(schema.verify().is_empty());
        }
        for seq in [3, 4] {
            assert!(matches!(
                Journal::replay_at(&dir(), io.as_ref(), seq),
                Err(JournalError::Replay { seq: 3, .. })
            ));
        }
    }

    #[test]
    fn recovery_derives_once_for_the_whole_suffix() {
        use crate::obs::{names, MetricsRegistry};
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        let id = |name: &str| js.snapshot().type_by_name(name).unwrap();
        // Twelve frames of eight op kinds.
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![id("A")])).unwrap();
        js.apply(&add("C", vec![root])).unwrap();
        js.apply(&RecordedOp::AddProperty { name: "x".into() })
            .unwrap();
        let x = js.snapshot().props_by_name("x").next().unwrap();
        let (a, b, c) = (id("A"), id("B"), id("C"));
        js.apply(&RecordedOp::AddEssentialProperty { t: a, p: x })
            .unwrap();
        js.apply(&RecordedOp::AddEssentialSupertype { t: b, s: c })
            .unwrap();
        let rename = RecordedOp::RenameType {
            t: c,
            name: "C2".into(),
        };
        js.apply(&rename).unwrap();
        js.apply(&add("D", vec![b])).unwrap();
        js.apply(&RecordedOp::DropEssentialProperty { t: a, p: x })
            .unwrap();
        js.apply(&RecordedOp::DropEssentialSupertype { t: b, s: c })
            .unwrap();
        js.apply(&RecordedOp::DropType { t: id("D") }).unwrap();
        js.apply(&add("E", vec![root])).unwrap();
        let want = js.snapshot().fingerprint();
        let k = js.seq();
        assert_eq!(k, 12);
        drop(js);

        let reg = Arc::new(MetricsRegistry::new());
        let obs = Arc::new(EvolveObs::new(Arc::clone(&reg)));
        let (_, schema, report) =
            Journal::open_observed(&dir(), io, RecoveryMode::Strict, obs).unwrap();
        assert_eq!(schema.fingerprint(), want);
        assert!(schema.verify().is_empty());
        let recomputes: u64 = [names::ENGINE_FULL, names::ENGINE_SCOPED, names::ENGINE_NOOP]
            .iter()
            .map(|n| reg.get(n))
            .sum();
        assert_eq!(recomputes, 1, "one derivation for {k} replayed frames");
        assert_eq!(report.replayed as u64, k);
        assert_eq!(reg.get(names::RECOVERY_REPLAYED), k);
        let ops: u64 = reg
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(names::OPS_PREFIX))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(ops, k);
    }

    /// Delegates to a [`MemIo`], but every read of a WAL segment after the
    /// first fails with `Interrupted`.
    #[derive(Debug)]
    struct FlakyWalReads {
        inner: Arc<MemIo>,
        wal_reads: std::sync::atomic::AtomicUsize,
    }

    impl JournalIo for FlakyWalReads {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            let is_wal = path.extension().is_some_and(|e| e == "log");
            if is_wal
                && self
                    .wal_reads
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                    > 0
            {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.inner.read(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, data)
        }
        fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.append(path, data)
        }
        fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn fsync(&self, path: &Path) -> std::io::Result<()> {
            self.inner.fsync(path)
        }
        fn fsync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.fsync_dir(dir)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            self.inner.list(dir)
        }
    }

    #[test]
    fn recovery_reads_each_wal_once_and_never_blanks_it() {
        let mem = Arc::new(MemIo::new());
        let js = JournaledSchema::create(
            &dir(),
            mem.clone(),
            base_schema(),
            JournalOptions::default(),
        )
        .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        let want = js.snapshot().fingerprint();
        drop(js);
        let wal = dir().join(wal_name(0));
        let before = mem.read(&wal).unwrap();

        let flaky = Arc::new(FlakyWalReads {
            inner: mem.clone(),
            wal_reads: 0.into(),
        });
        let recovered = Journal::open(&dir(), flaky.clone(), RecoveryMode::Strict);
        assert_eq!(
            mem.read(&wal).unwrap(),
            before,
            "a failed re-read must not blank acknowledged records"
        );
        let (_, schema, _) = recovered.expect("each WAL is read once");
        assert_eq!(schema.fingerprint(), want);
        assert_eq!(flaky.wal_reads.load(std::sync::atomic::Ordering::SeqCst), 1);

        mem.crash(CrashKeep::Synced);
        let (_, schema, report) = Journal::open(&dir(), mem, RecoveryMode::Strict).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(schema.fingerprint(), want);
    }

    #[test]
    fn repair_tail_returns_read_errors_and_never_blanks_the_wal() {
        let mem = Arc::new(MemIo::new());
        let js = JournaledSchema::create(
            &dir(),
            mem.clone(),
            base_schema(),
            JournalOptions::default(),
        )
        .unwrap();
        let root = js.snapshot().root().unwrap();
        js.apply(&add("A", vec![root])).unwrap();
        js.apply(&add("B", vec![root])).unwrap();
        let want = js.snapshot().fingerprint();
        drop(js);
        let wal = dir().join(wal_name(0));
        let before = mem.read(&wal).unwrap();

        // Recovery reads the WAL once; the repair's re-read is the one
        // that fails.
        let flaky = Arc::new(FlakyWalReads {
            inner: mem.clone(),
            wal_reads: 0.into(),
        });
        let (mut journal, _, _) = Journal::open(&dir(), flaky, RecoveryMode::Strict).unwrap();
        let err = journal.repair_tail().unwrap_err();
        assert_eq!(err.class(), Some(heal::ErrorClass::Transient), "{err}");
        assert_eq!(
            mem.read(&wal).unwrap(),
            before,
            "a failed re-read must not blank acknowledged records"
        );

        let (_, schema, report) = Journal::open(&dir(), mem, RecoveryMode::Strict).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(schema.fingerprint(), want);
    }

    #[test]
    fn fork_meta_round_trips_and_rejects_damage() {
        let io = MemIo::new();
        let meta = ForkMeta {
            parent: "/parent".into(),
            fork_seq: 7,
            snapshot: base_schema().to_snapshot(),
        };
        let d = PathBuf::from("/fork-meta");
        io.create_dir_all(&d).unwrap();
        assert_eq!(read_fork_meta(&d, &io).unwrap(), None);
        write_fork_meta(&d, &io, &meta).unwrap();
        assert_eq!(read_fork_meta(&d, &io).unwrap(), Some(meta.clone()));
        assert_eq!(
            meta.base_schema().unwrap().fingerprint(),
            base_schema().fingerprint()
        );
        // Any flipped byte is a typed BadForkMeta, never a silent parse.
        let path = d.join(FORK_META_FILE);
        let mut bytes = io.read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0xFF;
        io.write(&path, &bytes).unwrap();
        assert!(matches!(
            read_fork_meta(&d, &io),
            Err(JournalError::BadForkMeta { .. })
        ));
    }

    #[test]
    fn report_text_and_json_render() {
        let report = RecoveryReport {
            checkpoint_file: checkpoint_name(0),
            checkpoint_seq: 0,
            replayed: 2,
            seq: 2,
            skipped_checkpoints: vec![SkippedCheckpoint {
                file: checkpoint_name(9),
                detail: "checksum mismatch".into(),
            }],
            dropped_tail: Some(DroppedTail {
                file: wal_name(0),
                offset: 100,
                bytes: 7,
                kind: DropKind::TornTail,
                detail: "incomplete frame of 7 byte(s)".into(),
            }),
            quarantined: vec![QuarantinedSegment {
                file: wal_name(5),
                quarantined_as: format!("{}.quar", wal_name(5)),
                bytes: 321,
                detail: "frame checksum mismatch".into(),
            }],
        };
        let text = report.to_text();
        assert!(text.contains("replayed 2"));
        assert!(text.contains("dropped 7 byte(s)"));
        assert!(text.contains("quarantined"));
        let json = report.to_json();
        assert!(json.contains("\"replayed\":2"));
        assert!(json.contains("\"kind\":\"torn tail\""));
        assert!(json.contains("\"offset\":100"));
        assert!(json.contains("\"quarantined\":[{\"file\""));
        assert!(json.contains("\"bytes\":321"));
    }
}
