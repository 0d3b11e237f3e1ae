//! Corruption fuzzing for the schema snapshot parser and the journal wire
//! format: hostile bytes must come back as `Err`, never as a panic, a hang,
//! or a stack overflow (ISSUE 3, satellite 2).
//!
//! Two input families per parser: fully arbitrary bytes (smoke) and
//! mutations of a *valid* document (byte flips, truncations, line drops,
//! line duplications) — the latter reach much deeper into the grammar.
//!
//! The journal's readers get the same treatment: a mutated `fork.axbmeta`
//! is read or refused as `BadForkMeta`, and a journal directory with
//! flipped or truncated checkpoint or WAL bytes goes through every reader
//! — `diagnose`, `inspect`, `replay_at` at every sequence, and `open` in
//! each mode — without a panic, and gets one verdict from all of them.

use std::path::Path;
use std::sync::Arc;

use axiombase_core::journal::io::{JournalIo, MemIo};
use axiombase_core::journal::wire::{read_frame, FrameResult};
use axiombase_core::journal::{
    read_fork_meta, write_fork_meta, ForkMeta, Journal, JournalError, JournalOptions,
    JournaledSchema, RecoveryMode,
};
use axiombase_core::{LatticeConfig, RecordedOp, Schema};
use proptest::prelude::*;

/// A small but representative schema: multiple types, subtyping, native and
/// inherited properties, a dropped type leaving a tombstone.
fn valid_snapshot() -> String {
    let mut s = Schema::new(LatticeConfig::default());
    let root = s.add_root_type("T_object").unwrap();
    let a = s.add_type("A", [root], []).unwrap();
    let b = s.add_type("B", [a], []).unwrap();
    let c = s.add_type("C\"quoted\\name", [a], []).unwrap();
    s.define_property_on(a, "p_base").unwrap();
    s.define_property_on(b, "p_leaf").unwrap();
    s.drop_type(c).unwrap();
    s.to_snapshot()
}

/// Deterministic mutation of `text` driven by fuzz inputs: flip bytes,
/// truncate, drop and duplicate lines. Always yields a string (lossy UTF-8).
fn mutate(text: &str, flips: &[(u16, u8)], trunc: u16, drop_line: u8, dup_line: u8) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    if !lines.is_empty() {
        let d = drop_line as usize % (lines.len() + 1);
        if d < lines.len() {
            lines.remove(d);
        }
    }
    if !lines.is_empty() {
        let d = dup_line as usize % lines.len();
        let l = lines[d];
        lines.insert(d, l);
    }
    let mut bytes = lines.join("\n").into_bytes();
    bytes.push(b'\n');
    for &(pos, xor) in flips {
        if !bytes.is_empty() {
            let i = pos as usize % bytes.len();
            bytes[i] ^= xor;
        }
    }
    let keep = trunc as usize % (bytes.len() + 1);
    bytes.truncate(keep);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Scan a byte buffer as a WAL body the way recovery does: walk frames
/// until the scan terminates. Must terminate and never panic.
fn scan_frames(buf: &[u8]) {
    let mut offset = 0usize;
    while let FrameResult::Record(frame) = read_frame(buf, offset) {
        assert!(frame.next > offset, "scan must make progress");
        offset = frame.next;
    }
}

fn journal_dir() -> &'static Path {
    Path::new("/fuzz")
}

/// A valid journal: `checkpoint-0` and one WAL segment of `frames` ops.
fn valid_journal(frames: usize) -> MemIo {
    let io = MemIo::new();
    let mut base = Schema::new(LatticeConfig::default());
    let root = base.add_root_type("T_object").unwrap();
    let opts = JournalOptions {
        checkpoint_every: 0,
    };
    let js = JournaledSchema::create(journal_dir(), Arc::new(io.clone()), base, opts).unwrap();
    for i in 0..frames {
        js.apply(&RecordedOp::AddType {
            name: format!("T_{i}"),
            supers: vec![root],
            props: vec![],
        })
        .unwrap();
    }
    io
}

/// A byte-for-byte copy of every file in the journal directory.
fn copy_of(io: &MemIo) -> Arc<MemIo> {
    let copy = Arc::new(MemIo::new());
    for name in io.list(journal_dir()).unwrap() {
        let path = journal_dir().join(name);
        copy.write(&path, &io.read(&path).unwrap()).unwrap();
    }
    copy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_fork_meta_is_read_or_refused(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        trunc in any::<u16>(),
        drop_line in any::<u8>(),
        dup_line in any::<u8>(),
    ) {
        let io = MemIo::new();
        let meta = ForkMeta {
            parent: "/parent".into(),
            fork_seq: 7,
            snapshot: valid_snapshot(),
        };
        write_fork_meta(journal_dir(), &io, &meta).unwrap();
        let path = journal_dir().join(axiombase_core::journal::FORK_META_FILE);
        let text = String::from_utf8(io.read(&path).unwrap()).unwrap();
        let bad = mutate(&text, &flips, trunc, drop_line, dup_line);
        io.write(&path, bad.as_bytes()).unwrap();
        match read_fork_meta(journal_dir(), &io) {
            Ok(_) | Err(JournalError::BadForkMeta { .. }) => {}
            Err(e) => prop_assert!(false, "untyped refusal: {e}"),
        }
    }

    #[test]
    fn damaged_journals_get_one_verdict_from_every_reader(
        frames in 3usize..=5,
        in_wal in any::<bool>(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        truncate in any::<bool>(),
        trunc in any::<u16>(),
    ) {
        let io = valid_journal(frames);
        let name = if in_wal { "wal-0000000000000000.log" } else { "checkpoint-0000000000000000.axb" };
        let path = journal_dir().join(name);
        let mut bytes = io.read(&path).unwrap();
        for &(pos, xor) in &flips {
            if !bytes.is_empty() {
                let i = pos as usize % bytes.len();
                bytes[i] ^= xor;
            }
        }
        if truncate {
            bytes.truncate(trunc as usize % (bytes.len() + 1));
        }
        io.write(&path, &bytes).unwrap();

        // The read-only readers, on the damaged directory itself.
        let health = Journal::diagnose(journal_dir(), &io);
        let _ = Journal::inspect(journal_dir(), &io);
        for seq in 0..=frames as u64 {
            let _ = Journal::replay_at(journal_dir(), &io, seq);
        }
        // One verdict: doctor is serviceable exactly when strict recovery
        // opens a copy, at the sequence it recovers.
        let strict = Journal::open(journal_dir(), copy_of(&io), RecoveryMode::Strict);
        prop_assert_eq!(health.is_serviceable(), strict.is_ok(), "{:?}", health);
        if let Ok((_, schema, report)) = &strict {
            prop_assert_eq!(health.durable_seq, Some(report.seq));
            let at = Journal::replay_at(journal_dir(), &io, report.seq).unwrap();
            prop_assert_eq!(at.fingerprint(), schema.fingerprint());
        }
        // A strict open succeeds after any successful salvage or
        // quarantine open.
        for mode in [RecoveryMode::Salvage, RecoveryMode::Quarantine] {
            let copy = copy_of(&io);
            if Journal::open(journal_dir(), copy.clone(), mode).is_ok() {
                let again = Journal::open(journal_dir(), copy.clone(), RecoveryMode::Strict);
                prop_assert!(again.is_ok(), "strict after {:?}: {:?}", mode, again.err());
                prop_assert!(Journal::diagnose(journal_dir(), &*copy).is_serviceable());
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_snapshot_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Schema::from_snapshot(&text);
    }

    #[test]
    fn mutated_snapshots_never_panic(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        trunc in any::<u16>(),
        drop_line in any::<u8>(),
        dup_line in any::<u8>(),
    ) {
        let text = mutate(&valid_snapshot(), &flips, trunc, drop_line, dup_line);
        if let Ok(s) = Schema::from_snapshot(&text) {
            // Anything the parser accepts must still satisfy the axioms —
            // from_snapshot re-verifies, so a success here is a real schema.
            prop_assert!(s.verify().is_empty());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_scanner(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        scan_frames(&bytes);
    }

    #[test]
    fn arbitrary_text_never_panics_the_op_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = axiombase_core::journal::wire::decode_op(&text);
    }
}
