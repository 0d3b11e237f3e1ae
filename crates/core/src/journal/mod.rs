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
//! # One set of read rules
//!
//! Every reader of a journal directory — recovery in all three modes,
//! time travel ([`Journal::replay_at`], [`JournaledSchema::open_at`]),
//! [`Journal::inspect`] (`log`), [`Journal::diagnose`] (`doctor`),
//! [`Journal::repair_tail`], merge's suffix read and
//! [`Journal::read_history`] (the CLI's trace loaders) — walks it through
//! the private `read` module: one checkpoint loader (the newest
//! `checkpoint-*.axb` whose name, header, checksum and snapshot agree;
//! newer damaged ones come back as skipped) and one chained frame walk
//! (covered frames skipped, `seq == cur + 1` handed to the caller's
//! visitor, anything else a finding that is either repairable — a torn
//! frame in the last segment, a torn magic — or not). Callers differ only
//! in their visitor and in what they do with a finding: recovery adds its
//! mode's repair actions, and `diagnose` is strict recovery without the
//! writes, so `doctor` calls a directory serviceable exactly when a strict
//! open succeeds, at the same durable sequence. Salvage and quarantine
//! rename a damaged newer checkpoint to `<name>.quar`, so a strict open
//! afterwards starts where they did. DESIGN.md §8 tabulates the rules.
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
mod read;
pub mod wire;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::concurrent::SharedSchema;
use crate::error::SchemaError;
use crate::history::RecordedOp;
use crate::json_escape;
use crate::model::Schema;
use crate::obs::EvolveObs;

use io::{atomic_write, JournalIo, ObservedIo};
pub use read::{DropKind, DroppedTail, Health, Inspection, LogEntry, SkippedCheckpoint};
use read::{Finding, Layout};
use wire::{encode_frame, parse_header, render_header, WAL_MAGIC};

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
    /// Recover the longest valid prefix: skip damaged checkpoints (renamed
    /// to `<name>.quar`, so a later strict open starts where this one did),
    /// truncate the log at the first corrupt record, and report exactly
    /// which suffix was dropped.
    Salvage,
    /// Like [`RecoveryMode::Salvage`], but corrupt WAL segments are
    /// *quarantined* — renamed to `<name>.quar` (contents preserved for
    /// forensics) — and the journal re-checkpoints at the recovered
    /// sequence so it continues on a fresh segment.
    Quarantine,
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
    /// Damaged checkpoints skipped and renamed to `<file>.quar` (salvage
    /// and quarantine modes).
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
            let _ = writeln!(out, "dropped {d}");
        } else {
            let _ = writeln!(out, "log tail clean: nothing dropped");
        }
        out
    }

    /// Render the report as a JSON object (the CLI's `--json` output).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let file = json_escape(&self.checkpoint_file);
        out.push_str(&format!(
            "\"checkpoint_file\":\"{file}\",\"checkpoint_seq\":{},\"replayed\":{},\"seq\":{}",
            self.checkpoint_seq, self.replayed, self.seq
        ));
        out.push_str(",\"skipped_checkpoints\":[");
        for (i, s) in self.skipped_checkpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (file, detail) = (json_escape(&s.file), json_escape(&s.detail));
            out.push_str(&format!("{{\"file\":\"{file}\",\"detail\":\"{detail}\"}}"));
        }
        out.push(']');
        out.push_str(",\"quarantined\":[");
        for (i, q) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (file, detail) = (json_escape(&q.file), json_escape(&q.detail));
            let quarantined_as = json_escape(&q.quarantined_as);
            out.push_str(&format!(
                "{{\"file\":\"{file}\",\"quarantined_as\":\"{quarantined_as}\",\"bytes\":{},\"detail\":\"{detail}\"}}",
                q.bytes
            ));
        }
        out.push(']');
        match &self.dropped_tail {
            Some(d) => out.push_str(&format!(",\"dropped_tail\":{}", d.to_json())),
            None => out.push_str(",\"dropped_tail\":null"),
        }
        out.push('}');
        out
    }
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:016x}.axb")
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

/// Rename a damaged file to `<name>.quar` (contents preserved; the suffix
/// no longer parses as a checkpoint or WAL name, so every reader and the
/// pruning both skip it) and return the new name.
fn set_aside(io: &Arc<dyn JournalIo>, dir: &Path, name: &str) -> Result<String, JournalError> {
    let quar = format!("{name}.quar");
    io.rename(&dir.join(name), &dir.join(&quar))?;
    io.fsync_dir(dir)?;
    Ok(quar)
}

/// `io`, counting its fsyncs into `obs` when the journal is observed.
fn observed_io(io: Arc<dyn JournalIo>, obs: &Option<Arc<EvolveObs>>) -> Arc<dyn JournalIo> {
    match obs {
        Some(o) => Arc::new(ObservedIo::new(io, Arc::clone(o))),
        None => io,
    }
}

/// Lay down a fresh WAL `dir/name`: the magic, fsynced, and its name made
/// durable. Returns its length.
fn new_wal(io: &dyn JournalIo, dir: &Path, name: &str) -> std::io::Result<u64> {
    let path = dir.join(name);
    io.write(&path, WAL_MAGIC)?;
    io.fsync(&path)?;
    io.fsync_dir(dir)?;
    Ok(WAL_MAGIC.len() as u64)
}

/// Cut the segment at `path` back to `offset` bytes, durably. A cut at 0
/// is a torn magic: the magic is rewritten.
fn cut_wal(io: &dyn JournalIo, path: &Path, offset: usize) -> std::io::Result<()> {
    if offset == 0 {
        io.write(path, WAL_MAGIC)?;
    } else {
        io.truncate(path, offset as u64)?;
    }
    io.fsync(path)
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
    render_header("fork", meta.fork_seq, &body)
}

fn parse_fork_meta(data: &[u8]) -> Result<ForkMeta, JournalError> {
    let bad = |detail: String| JournalError::BadForkMeta { detail };
    let (fork_seq, body) = parse_header("fork", data).map_err(bad)?;
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

    /// [`Journal::create`] with the first checkpoint at `base_seq` (see
    /// [`JournaledSchema::create_at`]), observed when `obs` is given.
    fn create_impl(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: &Schema,
        base_seq: u64,
        obs: Option<Arc<EvolveObs>>,
    ) -> Result<Journal, JournalError> {
        let io = observed_io(io, &obs);
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
        j.checkpoint(schema)?;
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
        Self::open_impl(dir, io, mode, Some(obs))
    }

    fn open_impl(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        obs: Option<Arc<EvolveObs>>,
    ) -> Result<(Journal, Schema, RecoveryReport), JournalError> {
        let io = observed_io(io, &obs);
        let mut layout = Layout::read(&*io, dir)?;
        if mode == RecoveryMode::Strict {
            layout = layout.strict()?;
        }
        // Salvage and quarantine set damaged newer checkpoints aside, so
        // that a later strict open starts from the checkpoint this one did.
        for skipped in &layout.skipped {
            set_aside(&io, dir, &skipped.file)?;
        }
        let checkpoint_seq = layout.checkpoint.seq;
        let wals = &layout.wals;

        // The whole suffix is one batch on the checkpoint's inputs, and its
        // end is the schema's only derivation, a full one. Whether a
        // frame's op is accepted depends only on the inputs `P_e`/`N_e`,
        // so deferring derivation changes no decision; a rejected frame
        // leaves the applied prefix, which the batch derives before the
        // walk's outcome is used. The observer is attached before the
        // batch, so it counts that derivation and the copies the edits
        // make.
        let mut dropped_tail = None;
        let mut quarantined: Vec<QuarantinedSegment> = Vec::new();
        let (schema, walked) = layout.checkpoint.inputs.build(obs.clone(), |s| {
            let visit = |_: &str, _, f: wire::Frame| {
                if let Some(o) = &obs {
                    o.on_op(f.seq, &f.op);
                }
                f.op.apply(s)
            };
            // Every mode repairs a repairable finding and goes on. Any
            // other finding: strict refuses, salvage cuts the log there
            // and ends, quarantine renames the segment and goes on.
            let on_stop = |stop: read::Stop| {
                match (stop.repairable(), mode) {
                    (false, RecoveryMode::Strict) => return Err(stop.error()),
                    (false, RecoveryMode::Quarantine) => {
                        quarantined.push(QuarantinedSegment {
                            quarantined_as: set_aside(&io, dir, &stop.file)?,
                            bytes: stop.len,
                            detail: stop.detail(),
                            file: stop.file,
                        });
                        return Ok(true);
                    }
                    _ => {}
                }
                cut_wal(&*io, &dir.join(&stop.file), stop.offset)?;
                // A torn magic held no record: nothing was dropped.
                if !matches!(stop.finding, Finding::TornMagic) {
                    dropped_tail = Some(stop.tail());
                }
                Ok(false)
            };
            read::walk(&*io, dir, wals, checkpoint_seq, visit, on_stop)
        });
        let (seq, kept) = walked?;

        // Ensure an active WAL file exists to append to (the crash window
        // between checkpoint rename and WAL creation leaves none for the
        // new base). Quarantined segments no longer exist under their WAL
        // names, so they cannot be the active file.
        let wal_base = wals
            .iter()
            .rev()
            .find(|(_, n)| !quarantined.iter().any(|q| q.file == *n))
            .map(|(base, _)| *base)
            .filter(|&base| base >= checkpoint_seq || seq > checkpoint_seq)
            .unwrap_or(checkpoint_seq);
        // The walk knows the length of every segment it read, as the
        // repairs above left it; only a segment it never reached is read
        // here. Only a missing file is created: any other read error is
        // returned, because overwriting the file would drop acknowledged
        // records.
        let active = wal_name(wal_base);
        let known = wals.iter().position(|(_, name)| *name == active);
        let wal_len = match known.and_then(|i| kept.get(i)) {
            Some(&len) => len,
            None => match io.read(&dir.join(&active)) {
                Ok(d) => d.len() as u64,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => new_wal(&*io, dir, &active)?,
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
            journal.checkpoint(&schema)?;
        }
        let report = RecoveryReport {
            checkpoint_file: layout.checkpoint.file,
            checkpoint_seq,
            replayed: (seq - checkpoint_seq) as usize,
            seq,
            skipped_checkpoints: layout.skipped,
            dropped_tail,
            quarantined,
        };
        if let Some(o) = &journal.obs {
            o.fold_recovery(&report);
        }
        Ok((journal, schema, report))
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
    /// unknown: walk the file and truncate everything past the last
    /// *acknowledged* chained record (`seq <= self.seq`), so a retry
    /// appends onto a clean tail and durable replay equals the published
    /// prefix.
    pub fn repair_tail(&mut self) -> Result<(), JournalError> {
        let name = wal_name(self.wal_base);
        let path = self.dir.join(&name);
        let data = match self.io.read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The active WAL is missing (e.g. it was never created
                // after a failed checkpoint switch) — recreate it empty.
                // Any other read error is returned for the durability
                // machine to classify: overwriting the file would drop
                // acknowledged records.
                self.wal_len = new_wal(&*self.io, &self.dir, &name)?;
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        // Anything past the last acknowledged record — an unacknowledged
        // one (the failed append may have partially landed), a torn
        // frame, or garbage — is dropped.
        let (acked, mut cur) = (self.seq, self.wal_base);
        let mut good_end = WAL_MAGIC.len();
        let stop = read::walk_segment(&data, &name, true, &mut cur, &mut |_, _, f| {
            if f.seq <= acked {
                good_end = f.next;
            }
            Ok(())
        });
        match stop.as_ref().map(|s| &s.finding) {
            Some(Finding::ForeignMagic) => return Err(stop.expect("matched").error()),
            Some(Finding::TornMagic) => cut_wal(&*self.io, &path, 0)?,
            _ if good_end < data.len() => cut_wal(&*self.io, &path, good_end)?,
            _ => {}
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
        let seq = self.seq;
        // Checksummed header + inputs-only snapshot.
        let data = render_header("checkpoint", seq, &schema.to_snapshot());
        let checkpoint_bytes = data.len() as u64;
        // 1. Checkpoint file, atomically: tmp → fsync → rename → fsync dir.
        //    A crash before the rename leaves the old checkpoint authoritative.
        atomic_write(&*self.io, &self.dir.join(checkpoint_name(seq)), &data)?;
        // 2. Fresh WAL for the new base. A crash before this is harmless:
        //    recovery skips old-WAL records with seq <= checkpoint seq and
        //    recreates the missing file.
        let wal_len = new_wal(&*self.io, &self.dir, &wal_name(seq))?;
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
        self.wal_len = wal_len;
        if let Some(o) = &self.obs {
            o.on_checkpoint(checkpoint_bytes);
        }
        Ok(())
    }

    /// The observer attached at construction, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<EvolveObs>> {
        self.obs.as_ref()
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

#[derive(Debug)]
struct JournalCell {
    journal: Journal,
    machine: heal::DurabilityMachine,
    since_checkpoint: usize,
}

impl JournalCell {
    fn new(journal: Journal, quarantined: u64) -> JournalCell {
        let mut machine = heal::DurabilityMachine::new(
            heal::RetryPolicy::default(),
            Arc::new(heal::SystemClock::new()),
        );
        if let Some(o) = journal.obs() {
            machine.attach_obs(Arc::clone(o));
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

    /// Run `commit` as the single panic-isolation point: a panic inside
    /// mutation, append, checkpoint or publish degrades the machine and
    /// surfaces as a typed error — never a poisoned lock or a torn publish.
    fn isolated<R>(
        &mut self,
        commit: impl FnOnce(&mut Journal, &mut heal::DurabilityMachine) -> Result<R, JournalError>,
    ) -> Result<R, JournalError> {
        let JournalCell {
            journal, machine, ..
        } = self;
        heal::isolate(move || commit(journal, machine)).unwrap_or_else(|msg| {
            self.machine.note_panic(&msg);
            Err(JournalError::Panicked(msg))
        })
    }

    /// Checkpoint `snap`, the state at the journal's sequence, under the
    /// machine; success restarts the cadence.
    fn checkpoint(
        &mut self,
        admission: heal::Admission,
        snap: &Schema,
    ) -> Result<(), JournalError> {
        self.isolated(|journal, machine| {
            heal::guarded_commit(machine, admission, &mut CheckpointOps { journal, snap })
        })?;
        self.since_checkpoint = 0;
        Ok(())
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

/// Where a [`JournaledSchema`] constructor gets its journal from.
enum Origin {
    /// A fresh journal whose first checkpoint holds the schema at a base
    /// sequence.
    Create(Box<Schema>, u64),
    /// Recovery of an existing journal.
    Open(RecoveryMode),
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
        Ok(Self::build(dir, io, Origin::Create(schema.into(), 0), opts, None)?.0)
    }

    /// Initialise a fresh journal in `dir` whose first checkpoint carries
    /// sequence `base_seq` instead of 0. This is how a *branch* is
    /// seeded: the fork-point schema is checkpointed at the fork
    /// sequence, so sequence numbers stay globally comparable across the
    /// parent and all of its branches.
    pub fn create_at(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: Schema,
        base_seq: u64,
        opts: JournalOptions,
    ) -> Result<JournaledSchema, JournalError> {
        Ok(Self::build(dir, io, Origin::Create(schema.into(), base_seq), opts, None)?.0)
    }

    /// Like [`JournaledSchema::create`], but observed end-to-end: `obs` is
    /// attached to the schema (engine + copy-on-write metrics), adopted by
    /// the shared handle (snapshot/publish/reject metrics), and threaded
    /// through the journal (append/fsync/checkpoint metrics, `ops.*`
    /// counters, span events).
    pub fn create_observed(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        schema: Schema,
        opts: JournalOptions,
        obs: Arc<EvolveObs>,
    ) -> Result<JournaledSchema, JournalError> {
        Ok(Self::build(dir, io, Origin::Create(schema.into(), 0), opts, Some(obs))?.0)
    }

    /// Recover a journaled schema from `dir` (see [`Journal::open`]).
    pub fn open(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        mode: RecoveryMode,
        opts: JournalOptions,
    ) -> Result<(JournaledSchema, RecoveryReport), JournalError> {
        let (js, report) = Self::build(dir, io, Origin::Open(mode), opts, None)?;
        Ok((js, report.expect("recovery reports")))
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
        let (js, report) = Self::build(dir, io, Origin::Open(mode), opts, Some(obs))?;
        Ok((js, report.expect("recovery reports")))
    }

    /// The one construction body: the journal from `origin`, observed
    /// when `obs` is given, coupled to a shared handle on its schema.
    fn build(
        dir: &Path,
        io: Arc<dyn JournalIo>,
        origin: Origin,
        opts: JournalOptions,
        obs: Option<Arc<EvolveObs>>,
    ) -> Result<(JournaledSchema, Option<RecoveryReport>), JournalError> {
        let (journal, schema, report) = match origin {
            Origin::Create(schema, base_seq) => {
                let mut schema = *schema;
                if let Some(o) = &obs {
                    schema.attach_obs(Arc::clone(o));
                }
                let journal = Journal::create_impl(dir, io, &schema, base_seq, obs)?;
                (journal, schema, None)
            }
            Origin::Open(mode) => {
                let (journal, schema, report) = Journal::open_impl(dir, io, mode, obs)?;
                (journal, schema, Some(report))
            }
        };
        let quarantined = report.as_ref().map_or(0, |r| r.quarantined.len() as u64);
        let js = JournaledSchema {
            // An observed schema already carries the observer (attached
            // before replay), so the shared handle adopts it here.
            shared: SharedSchema::new(schema),
            cell: Mutex::new(JournalCell::new(journal, quarantined)),
            opts,
        };
        Ok((js, report))
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
        cell.isolated(|journal, machine| {
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
        })?;
        if cell.journal.wal_base != wal_base_before {
            // A disk-full GC checkpointed mid-retry; the cadence restarts.
            cell.since_checkpoint = 0;
        }
        cell.since_checkpoint += ops.len();
        if self.opts.checkpoint_every > 0 && cell.since_checkpoint >= self.opts.checkpoint_every {
            // The ops are durable and published; an auto-checkpoint
            // failure must not fail the apply. The machine records it
            // (degrading if needed) and the cadence retries next time.
            let _ = cell.checkpoint(heal::Admission::Normal, &shared.snapshot());
        }
        Ok(ops.len())
    }

    /// Take a checkpoint of the current schema now (guarded: retried,
    /// degraded, or rejected `Unavailable` exactly like an append).
    pub fn checkpoint(&self) -> Result<(), JournalError> {
        let mut cell = self.cell.lock();
        let admission = cell.machine.admit()?;
        // Mutations hold the cell lock across publish, so this snapshot is
        // exactly the state at the journal's current sequence.
        cell.checkpoint(admission, &self.shared.snapshot())
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

        let (_, schema, report) = Journal::open(&dir(), io.clone(), RecoveryMode::Salvage).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.skipped_checkpoints.len(), 1);
        assert_eq!(report.skipped_checkpoints[0].file, checkpoint_name(9));
        assert!(schema.type_by_name("A").is_some());

        // The damaged checkpoint sits past the recovered seq, so no later
        // prune would remove it: salvage sets it aside with its bytes, and
        // a strict open then starts where the salvage did.
        let quar = dir().join(format!("{}.quar", checkpoint_name(9)));
        assert_eq!(
            io.read(&quar).unwrap(),
            b"axbcheckpoint v1 seq 9 crc 00000000\ngarbage"
        );
        let (_, again, strict) = Journal::open(&dir(), io, RecoveryMode::Strict).unwrap();
        assert_eq!((strict.checkpoint_seq, strict.seq), (0, report.seq));
        assert_eq!(again.fingerprint(), schema.fingerprint());
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
        use super::fault::ChaosIo;
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

        // Reopen through an I/O that dies on the 1st mutating call
        // (recovery itself only reads).
        let fault = Arc::new(ChaosIo::crash_at(mem.clone(), 1, 0));
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
        rejected_frame_journal_named("A")
    }

    /// [`rejected_frame_journal`] with the type `A` named `a`.
    fn rejected_frame_journal_named(a: &str) -> (Arc<MemIo>, usize, Vec<RecordedOp>) {
        let io = Arc::new(MemIo::new());
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        let prefix = vec![add(a, vec![root]), add("B", vec![root])];
        for op in &prefix {
            js.apply(op).unwrap();
        }
        drop(js);
        let wal = dir().join(wal_name(0));
        let offset = io.len(&wal).unwrap();
        let mut frames = Vec::new();
        encode_frame(&mut frames, 3, &add(a, vec![root]));
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
    fn json_reports_escape_control_characters_in_type_names() {
        // The rejected frame's detail names its type, control byte and all.
        let (io, _, _) = rejected_frame_journal_named("A\u{1}");
        let health = Journal::diagnose(&dir(), &*io).to_json();
        let (_, _, report) = Journal::open(&dir(), io, RecoveryMode::Salvage).unwrap();
        for json in [report.to_json(), health] {
            assert!(json.contains("\\u0001"), "{json}");
            assert!(!json.contains("\\u{"), "not JSON: {json}");
        }
    }

    /// A journal of twelve frames of eight op kinds on [`base_schema`]'s
    /// checkpoint; returns the tip fingerprint.
    fn twelve_frame_journal(io: &Arc<MemIo>) -> u64 {
        let js =
            JournaledSchema::create(&dir(), io.clone(), base_schema(), JournalOptions::default())
                .unwrap();
        let root = js.snapshot().root().unwrap();
        let id = |name: &str| js.snapshot().type_by_name(name).unwrap();
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
        assert_eq!(js.seq(), 12);
        js.snapshot().fingerprint()
    }

    /// `s` was derived exactly once, in full: one recomputation in all,
    /// over every live type.
    fn assert_derived_once(s: &Schema, what: &str) {
        let st = s.stats();
        let recomputes = st.full_recomputes + st.scoped_recomputes + st.noop_recomputes;
        assert_eq!(recomputes, 1, "{what}: one recomputation ({st:?})");
        assert_eq!(st.full_recomputes, 1, "{what}: a full one ({st:?})");
        assert_eq!(st.types_derived, s.type_count() as u64, "{what}: ({st:?})");
    }

    #[test]
    fn recovery_derives_once_for_the_whole_suffix() {
        use crate::obs::{names, MetricsRegistry};
        let io = Arc::new(MemIo::new());
        let want = twelve_frame_journal(&io);
        let k = 12;

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
        assert_derived_once(&schema, "recovery");
        assert_eq!(
            reg.get(names::ENGINE_TYPES_DERIVED),
            schema.type_count() as u64,
            "the observed derivation covers every live type"
        );
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

    #[test]
    fn time_travel_and_history_reads_derive_once() {
        let io = Arc::new(MemIo::new());
        let want = twelve_frame_journal(&io);
        for seq in [0, 5, 12] {
            let s = Journal::replay_at(&dir(), io.as_ref(), seq).unwrap();
            assert_derived_once(&s, &format!("replay_at({seq})"));
            if seq == 12 {
                assert_eq!(s.fingerprint(), want);
            }
        }
        let builds = crate::snapshot::builds();
        let (base, checkpoint, ops) = Journal::read_history(&dir(), io.as_ref()).unwrap();
        assert_eq!((base, ops.len()), (0, 12));
        assert_derived_once(&checkpoint, "read_history");
        assert_eq!(crate::snapshot::builds(), builds + 1);
        // The ops alone: the same history, with nothing derived.
        let builds = crate::snapshot::builds();
        let (base_only, ops_only) = Journal::read_history_ops(&dir(), io.as_ref()).unwrap();
        assert_eq!((base_only, ops_only), (base, ops));
        assert_eq!(
            crate::snapshot::builds(),
            builds,
            "read_history_ops derives nothing"
        );
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

    /// A byte-for-byte copy of every file in `dir()` on a fresh `MemIo`.
    fn copy_of(io: &MemIo) -> Arc<MemIo> {
        let copy = Arc::new(MemIo::new());
        for name in io.list(&dir()).unwrap() {
            let path = dir().join(name);
            copy.write(&path, &io.read(&path).unwrap()).unwrap();
        }
        copy
    }

    /// One directory per read finding: its name, the directory, and the
    /// file strict recovery refuses (`None`: strict recovery opens it).
    fn verdict_rows() -> Vec<(&'static str, MemIo, Option<String>)> {
        // checkpoint-0 + wal-0 holding A, B, C (seqs 1..=3), and its root.
        let base = || {
            let io = MemIo::new();
            let opts = JournalOptions::default();
            let js =
                JournaledSchema::create(&dir(), Arc::new(io.clone()), base_schema(), opts).unwrap();
            let root = js.snapshot().root().unwrap();
            for name in ["A", "B", "C"] {
                js.apply(&add(name, vec![root])).unwrap();
            }
            (io, root)
        };
        let frame = |seq: u64, op: &RecordedOp| {
            let mut frame = Vec::new();
            encode_frame(&mut frame, seq, op);
            frame
        };
        let wal0 = dir().join(wal_name(0));
        let frame_offset = |io: &MemIo, n: usize| {
            let data = io.read(&wal0).unwrap();
            let mut off = WAL_MAGIC.len();
            for _ in 0..n {
                let len = u32::from_le_bytes(data[off + 8..off + 12].try_into().unwrap());
                off += wire::FRAME_HEADER + len as usize;
            }
            off
        };
        let mut rows = Vec::new();

        let (io, _) = base();
        rows.push(("clean", io, None));

        let (io, _) = base();
        io.append(&wal0, &[0x07, 0x00, 0x00]).unwrap();
        rows.push(("torn tail", io, None));

        let (io, _) = base();
        io.write(&wal0, &WAL_MAGIC[..4]).unwrap();
        rows.push(("torn wal magic", io, None));

        let (io, _) = base();
        io.corrupt(&wal0, 0, 0x20);
        rows.push(("foreign wal magic", io, Some(wal_name(0))));

        let (io, _) = base();
        io.corrupt(&wal0, frame_offset(&io, 1) + wire::FRAME_HEADER + 1, 0x01);
        rows.push(("corrupt frame", io, Some(wal_name(0))));

        let (io, _) = base();
        let t = crate::ids::TypeId::from_index(999_999);
        io.append(&wal0, &frame(4, &RecordedOp::DropType { t }))
            .unwrap();
        rows.push(("frame that does not replay", io, Some(wal_name(0))));

        let (io, root) = base();
        io.append(&wal0, &frame(5, &add("E", vec![root]))).unwrap();
        rows.push(("sequence gap", io, Some(wal_name(0))));

        let (io, _) = base();
        let damaged = b"axbcheckpoint v1 seq 2 crc 00000000\ngarbage";
        io.write(&dir().join(checkpoint_name(2)), damaged).unwrap();
        rows.push(("damaged newest checkpoint", io, Some(checkpoint_name(2))));

        // wal-0 ends inside a frame, and wal-2 holds seq 3 after it.
        let (io, _) = base();
        let third = frame_offset(&io, 2);
        let data = io.read(&wal0).unwrap();
        let wal2 = [WAL_MAGIC, &data[third..]].concat();
        io.write(&dir().join(wal_name(2)), &wal2).unwrap();
        io.write(&wal0, &[&data[..third], &[0x07, 0x00, 0x00]].concat())
            .unwrap();
        rows.push(("torn frame in a non-final segment", io, Some(wal_name(0))));
        rows
    }

    #[test]
    fn one_verdict_per_directory() {
        for (row, io, refused) in verdict_rows() {
            let health = Journal::diagnose(&dir(), &*copy_of(&io));
            let strict = Journal::open(&dir(), copy_of(&io), RecoveryMode::Strict);
            assert_eq!(
                health.is_serviceable(),
                strict.is_ok(),
                "{row}: doctor {health:?} vs strict {:?}",
                strict.as_ref().err()
            );
            assert_eq!(strict.is_ok(), refused.is_none(), "{row}: {health:?}");
            match (strict, refused) {
                (Ok((_, schema, report)), _) => {
                    assert_eq!(health.durable_seq, Some(report.seq), "{row}");
                    // Time travel reads the same history, read-only.
                    let at = Journal::replay_at(&dir(), &io, report.seq).unwrap();
                    assert_eq!(at.fingerprint(), schema.fingerprint(), "{row}");
                }
                (Err(e), Some(file)) => {
                    assert_eq!(health.status, "corrupt", "{row}");
                    assert_eq!(health.error, Some(e.to_string()), "{row}");
                    let tail_file = health.tail.as_ref().map(|t| t.file.as_str());
                    let names_it = tail_file == Some(file.as_str())
                        || health.error.as_ref().is_some_and(|e| e.contains(&file));
                    assert!(names_it, "{row}: doctor does not name {file}: {health:?}");
                }
                (Err(e), None) => unreachable!("{row}: {e}"),
            }
            // After a salvage or quarantine open, strict recovery opens the
            // directory, at the same sequence — except that salvage ends
            // where it cuts the log and leaves a later segment it never
            // reached in place, which the strict open then replays.
            for mode in [RecoveryMode::Salvage, RecoveryMode::Quarantine] {
                let copy = copy_of(&io);
                let (_, _, repaired) = Journal::open(&dir(), copy.clone(), mode)
                    .unwrap_or_else(|e| panic!("{row}: {mode:?}: {e}"));
                let (_, _, again) = Journal::open(&dir(), copy.clone(), RecoveryMode::Strict)
                    .unwrap_or_else(|e| panic!("{row}: strict after {mode:?}: {e}"));
                let later_segment =
                    mode == RecoveryMode::Salvage && row == "torn frame in a non-final segment";
                assert_eq!(again.seq > repaired.seq, later_segment, "{row}: {mode:?}");
                assert!(again.seq >= repaired.seq, "{row}: {mode:?}");
                let health = Journal::diagnose(&dir(), &*copy);
                assert!(health.is_serviceable(), "{row}: {mode:?}: {health:?}");
                assert_eq!(health.durable_seq, Some(again.seq), "{row}: {mode:?}");
            }
        }
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
