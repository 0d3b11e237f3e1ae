//! Golden-snapshot tests for the journal-facing CLI: `stats` (text and
//! JSON) and `recover --json` / `recover --trace-spans` output over a
//! committed fixture journal is byte-compared against committed golden
//! files.
//!
//! The fixture lives in `examples/snapshots/journal_fixture/` and the
//! goldens next to it as `golden_*.txt|json`. Both are regenerated — not
//! compared — when `AXB_REGEN_GOLDEN=1` is set:
//!
//! ```text
//! AXB_REGEN_GOLDEN=1 cargo test -p axiombase-cli --test golden_cli
//! ```
//!
//! Every compared output is path-free (the report names journal files only
//! by basename), so the bytes are machine-independent; recovery work and
//! fingerprints are deterministic, so they are run-independent too. The
//! commands are always run on a scratch *copy* of the fixture because
//! recovery may repair (write to) the directory it opens.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};

use axiombase_core::journal::io::StdIo;
use axiombase_core::{
    JournalOptions, JournaledSchema, LatticeConfig, RecordedOp, RecoveryMode, Schema,
};

fn snapshots_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/snapshots")
}

fn fixture_dir() -> PathBuf {
    snapshots_dir().join("journal_fixture")
}

fn regen() -> bool {
    std::env::var("AXB_REGEN_GOLDEN").as_deref() == Ok("1")
}

/// The deterministic operation trace the fixture journal records: a small
/// story exercising six of the op kinds (so `ops.*` counters in the golden
/// stats are non-trivial).
fn fixture_ops(base: &Schema) -> Vec<RecordedOp> {
    let mut sim = base.clone();
    let mut ops: Vec<RecordedOp> = Vec::new();
    let push = |sim: &mut Schema, ops: &mut Vec<RecordedOp>, op: RecordedOp| {
        op.apply(sim).expect("fixture op applies");
        ops.push(op);
    };
    let root = sim.root().expect("rooted base");
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddType {
            name: "pigment".into(),
            supers: vec![root],
            props: vec![],
        },
    );
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddType {
            name: "paint".into(),
            supers: vec![root],
            props: vec![],
        },
    );
    let pigment = sim.type_by_name("pigment").unwrap();
    let paint = sim.type_by_name("paint").unwrap();
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddType {
            name: "crimson".into(),
            supers: vec![pigment],
            props: vec![],
        },
    );
    let crimson = sim.type_by_name("crimson").unwrap();
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddEssentialSupertype {
            t: crimson,
            s: paint,
        },
    );
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddType {
            name: "scarlet".into(),
            supers: vec![crimson],
            props: vec![],
        },
    );
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddProperty { name: "hue".into() },
    );
    push(
        &mut sim,
        &mut ops,
        RecordedOp::DropEssentialSupertype {
            t: crimson,
            s: paint,
        },
    );
    let scarlet = sim.type_by_name("scarlet").unwrap();
    push(
        &mut sim,
        &mut ops,
        RecordedOp::RenameType {
            t: scarlet,
            name: "vermilion".into(),
        },
    );
    push(
        &mut sim,
        &mut ops,
        RecordedOp::AddType {
            name: "ochre".into(),
            supers: vec![pigment, paint],
            props: vec![],
        },
    );
    let ochre = sim.type_by_name("ochre").unwrap();
    push(&mut sim, &mut ops, RecordedOp::DropType { t: ochre });
    ops
}

/// Under `AXB_REGEN_GOLDEN=1`, rebuild the fixture once per process. The
/// tests run in parallel and share the fixture directory, so whichever
/// gets here first builds it and the others wait for it.
fn ensure_fixture() {
    static BUILT: OnceLock<()> = OnceLock::new();
    if regen() {
        BUILT.get_or_init(|| build_fixture(&fixture_dir()));
    }
}

/// (Re)build the fixture journal on real files, deterministically.
fn build_fixture(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let mut base = Schema::new(LatticeConfig::default());
    base.add_root_type("T_object").unwrap();
    let ops = fixture_ops(&base);
    let js = JournaledSchema::create(
        dir,
        Arc::new(StdIo),
        base,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("create fixture journal");
    for op in &ops {
        js.apply(op).expect("fixture op journals");
    }
}

/// Copy the fixture into a scratch dir (recovery may write to the
/// directory it opens; the committed fixture must stay pristine).
fn scratch_copy(tag: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("axb-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(fixture_dir())
        .expect("fixture exists — run with AXB_REGEN_GOLDEN=1 to create it")
    {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_axiombase"))
        .args(args)
        .output()
        .expect("run axiombase");
    assert!(
        out.status.success(),
        "axiombase {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Byte-compare `actual` against the committed golden, or rewrite the
/// golden when regenerating.
fn check_golden(name: &str, actual: &str) {
    let path = snapshots_dir().join(name);
    if regen() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with AXB_REGEN_GOLDEN=1"));
    assert_eq!(
        actual, &expected,
        "{name} drifted; if intentional, regenerate with AXB_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_stats_and_recover_outputs() {
    ensure_fixture();

    let cases: &[(&str, &[&str])] = &[
        ("golden_stats.txt", &["stats"]),
        ("golden_stats.json", &["stats", "--json"]),
        ("golden_recover.json", &["recover", "--json"]),
        ("golden_recover_trace.txt", &["recover", "--trace-spans"]),
    ];
    for (i, (golden, args)) in cases.iter().enumerate() {
        let dir = scratch_copy(&format!("case{i}"));
        let mut argv: Vec<&str> = vec![args[0], dir.to_str().unwrap()];
        argv.extend(&args[1..]);
        let out = run_cli(&argv);
        assert!(
            !out.contains(dir.to_str().unwrap()),
            "{golden}: output leaks the journal path"
        );
        check_golden(golden, &out);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The fixture itself round-trips: replaying it yields a schema whose
/// axioms hold and whose shape matches the recorded story.
#[test]
fn fixture_journal_replays_clean() {
    ensure_fixture();
    let dir = scratch_copy("replay");
    let (js, report) = JournaledSchema::open(
        &dir,
        Arc::new(StdIo),
        RecoveryMode::Strict,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("fixture recovers");
    assert_eq!(report.replayed, 10);
    let s = js.snapshot();
    assert!(s.verify().is_empty());
    assert!(s.type_by_name("vermilion").is_some());
    assert!(s.type_by_name("ochre").is_none());
    std::fs::remove_dir_all(&dir).ok();
}
