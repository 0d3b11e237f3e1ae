//! End-to-end durability CLI coverage on real files: the quarantine
//! recovery round-trip (`recover --quarantine`), `doctor`'s serviceability
//! exit code, the `stats` degraded fallback on a corrupt journal, and a
//! checksummed frame whose op does not replay.
//!
//! The quarantine assertion is inode-pinned: the corrupt segment must be
//! *renamed* to `*.quar` (same inode, bytes preserved for forensics), not
//! copied or rewritten.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use axiombase_core::journal::io::StdIo;
use axiombase_core::journal::wire::{encode_frame, WAL_MAGIC};
use axiombase_core::{JournalOptions, JournaledSchema, LatticeConfig, RecordedOp, Schema, TypeId};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axb-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_axiombase"))
        .args(args)
        .output()
        .expect("run axiombase");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// Create a journal with `n` appended ops in `dir` and return the op names.
fn build_journal(dir: &Path, n: usize) -> Vec<String> {
    let mut base = Schema::new(LatticeConfig::default());
    base.add_root_type("T_object").unwrap();
    let js = JournaledSchema::create(
        dir,
        Arc::new(StdIo),
        base,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("create journal");
    let root = js.snapshot().root().unwrap();
    let mut names = Vec::new();
    for i in 0..n {
        let name = format!("T_{i}");
        js.apply(&RecordedOp::AddType {
            name: name.clone(),
            supers: vec![root],
            props: vec![],
        })
        .expect("op journals");
        names.push(name);
    }
    names
}

/// The single WAL segment of a freshly built journal.
fn wal_path(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let n = p.file_name().unwrap().to_str().unwrap();
            n.starts_with("wal-") && n.ends_with(".log")
        })
        .collect();
    assert_eq!(wals.len(), 1, "fresh journal has one WAL segment");
    wals.pop().unwrap()
}

#[test]
fn quarantine_round_trip_preserves_the_corrupt_segment_inode() {
    let dir = scratch("quarantine");
    build_journal(&dir, 6);

    // Corrupt the first record's payload: the CRC mismatch makes strict
    // recovery refuse the whole directory.
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let off = WAL_MAGIC.len() + 10;
    bytes[off] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();
    let inode = std::fs::metadata(&wal).unwrap().ino();

    let d = dir.to_str().unwrap();
    let (code, _, stderr) = run(&["recover", d]);
    assert_eq!(code, 1, "strict recovery refuses the corrupt segment");
    assert!(stderr.contains("recover failed"), "{stderr}");

    // Quarantine mode renames the segment aside and re-checkpoints.
    let (code, stdout, _) = run(&["recover", d, "--quarantine"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("quarantined"), "{stdout}");

    let quar = dir.join(format!(
        "{}.quar",
        wal.file_name().unwrap().to_str().unwrap()
    ));
    assert!(quar.exists(), "corrupt segment parked as *.quar");
    let meta = quar.metadata().unwrap();
    assert_eq!(meta.ino(), inode, "quarantine must rename, not rewrite");
    assert_eq!(meta.len() as usize, bytes.len(), "bytes preserved");
    // Re-checkpointing recreated a fresh active segment under the same
    // name — a different file (inode), back to its magic-only size.
    let fresh = wal.metadata().unwrap();
    assert_ne!(fresh.ino(), inode, "active segment is a new file");
    assert!(
        fresh.len() < bytes.len() as u64,
        "active segment restarted empty"
    );

    // The journal is serviceable again: doctor says so, stats serves a
    // full snapshot, and new appends land.
    let (code, stdout, _) = run(&["doctor", d, "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"quarantined_files\":1"), "{stdout}");
    let (code, _, _) = run(&["stats", d]);
    assert_eq!(code, 0);

    let (js, _) = JournaledSchema::open(
        &dir,
        Arc::new(StdIo),
        axiombase_core::RecoveryMode::Strict,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("post-quarantine open is clean");
    let root = js.snapshot().root().unwrap();
    js.apply(&RecordedOp::AddType {
        name: "T_after".into(),
        supers: vec![root],
        props: vec![],
    })
    .expect("journal accepts appends after quarantine");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_degrades_to_a_health_report_on_a_corrupt_journal() {
    let dir = scratch("stats-degraded");
    build_journal(&dir, 4);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let off = WAL_MAGIC.len() + 10;
    bytes[off] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();

    let d = dir.to_str().unwrap();
    let (code, stdout, _) = run(&["stats", d]);
    assert_eq!(code, 0, "stats never hard-fails: {stdout}");
    assert!(stdout.contains("stats unavailable"), "{stdout}");
    assert!(stdout.contains("status: corrupt"), "{stdout}");
    assert!(stdout.contains("advice:"), "{stdout}");

    let (code, stdout, _) = run(&["stats", d, "--json"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"status\":\"corrupt\""), "{stdout}");
    assert!(stdout.contains("\"error\":"), "{stdout}");

    let (code, stdout, _) = run(&["doctor", d]);
    assert_eq!(code, 1, "corrupt journal is not serviceable");
    assert!(stdout.contains("status: corrupt"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_reports_a_frame_that_does_not_replay_as_corrupt() {
    let dir = scratch("unreplayable");
    build_journal(&dir, 1);
    // A CRC-valid frame for seq 2 whose op no replay can apply.
    let wal = wal_path(&dir);
    let mut frame = Vec::new();
    let t = TypeId::from_index(999_999);
    encode_frame(&mut frame, 2, &RecordedOp::DropType { t });
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&frame);
    std::fs::write(&wal, &bytes).unwrap();

    let d = dir.to_str().unwrap();
    let (code, _, stderr) = run(&["recover", d]);
    assert_eq!(code, 1, "strict recovery refuses the frame");
    assert!(
        stderr.contains("replay of op 2 rejected: unknown or dropped type t999999"),
        "{stderr}"
    );

    let (code, stdout, _) = run(&["doctor", d]);
    assert_eq!(
        code, 1,
        "a journal recovery refuses is not serviceable: {stdout}"
    );
    assert!(stdout.contains("status: corrupt"), "{stdout}");
    assert!(stdout.contains("durable seq: 1"), "{stdout}");
    assert!(stdout.contains("replay of op 2 rejected"), "{stdout}");
    assert!(stdout.contains("recover --salvage"), "{stdout}");
    assert!(stdout.contains("recover --quarantine"), "{stdout}");

    let (code, stdout, _) = run(&["doctor", d, "--json"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("\"status\":\"corrupt\""), "{stdout}");
    assert!(stdout.contains("\"durable_seq\":1"), "{stdout}");

    let (code, stdout, _) = run(&["stats", d]);
    assert_eq!(code, 0, "stats never hard-fails: {stdout}");
    assert!(
        stdout.contains("stats unavailable: replay of op 2 rejected"),
        "{stdout}"
    );
    assert!(stdout.contains("status: corrupt"), "{stdout}");

    // The advice holds: salvage drops the frame and doctor is satisfied.
    let (code, stdout, _) = run(&["recover", d, "--salvage"]);
    assert_eq!(code, 0, "{stdout}");
    let (code, stdout, _) = run(&["doctor", d]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("status: healthy"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
