//! The timing wrapper changes nothing on disk: a journal created,
//! appended, checkpointed and recovered through `TimingIo` leaves
//! byte-identical files and the same fingerprint as through bare `StdIo`,
//! and the wrapper saw every call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use axiombase_core::journal::io::{JournalIo, StdIo};
use axiombase_core::{JournalOptions, JournaledSchema, RecoveryMode};
use axiombase_workload::generate_trace;
use perfbench::common::{base_lattice, MIX};
use perfbench::io::TimingIo;

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list journal")
        .map(|e| {
            let p = e.expect("entry").path();
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read journal file"))
        })
        .collect()
}

/// Create, append op by op across two automatic checkpoints, checkpoint
/// explicitly, append a batch (which checkpoints again), append a few more
/// ops that stay in the WAL, then recover; returns the files and the
/// recovered fingerprint.
fn exercise(dir: &Path, io: Arc<dyn JournalIo>) -> (BTreeMap<String, Vec<u8>>, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let (base, _) = base_lattice(7);
    let (ops, _) = generate_trace(&base, 400, MIX, 8);
    assert!(
        ops.len() > 200,
        "the trace spans both checkpoints and the batch"
    );
    let opts = JournalOptions {
        checkpoint_every: 64,
    };
    let js = JournaledSchema::create(dir, Arc::clone(&io), base, opts).expect("create");
    for op in &ops[..150] {
        js.apply(op).expect("apply");
    }
    js.checkpoint().expect("checkpoint");
    let tail = ops.len() - 10;
    js.apply_trace(&ops[150..tail]).expect("apply batch");
    for op in &ops[tail..] {
        js.apply(op).expect("apply");
    }
    let live = js.snapshot().fingerprint();
    drop(js);
    let (js, report) = JournaledSchema::open(dir, io, RecoveryMode::Strict, opts).expect("recover");
    assert!(report.dropped_tail.is_none());
    let fp = js.snapshot().fingerprint();
    assert_eq!(fp, live, "recovery reproduces the live state");
    (files(dir), fp)
}

#[test]
fn wrapper_leaves_identical_files_and_fingerprint() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("timing_io");
    let tio = Arc::new(TimingIo::new(Arc::new(StdIo)));
    let (bare_files, bare_fp) = exercise(&root.join("bare"), Arc::new(StdIo));
    let (wrapped_files, wrapped_fp) = exercise(
        &root.join("wrapped"),
        Arc::clone(&tio) as Arc<dyn JournalIo>,
    );
    assert_eq!(bare_fp, wrapped_fp);
    assert_eq!(
        bare_files.keys().collect::<Vec<_>>(),
        wrapped_files.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &bare_files {
        assert!(wrapped_files[name] == *bytes, "{name} differs");
    }

    let st = tio.stats();
    // 160 single appends plus one batch; each fsynced.
    assert_eq!(st.append.calls, 161);
    assert!(st.fsync.calls >= st.append.calls);
    assert!(st.fsync_dir.calls > 0 && st.rename.calls >= 3);
    assert!(st.read.calls > 0 && st.read.bytes > 0);
    assert!(st.checkpoint_bytes > 0);
    assert_eq!(st.bytes_written(), st.write.bytes + st.append.bytes);
    let _ = std::fs::remove_dir_all(&root);
}
