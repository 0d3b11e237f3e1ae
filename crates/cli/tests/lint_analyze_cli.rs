//! Regression tests for `axiombase lint` exit/rewrite behaviour and
//! golden coverage for `axiombase analyze`.
//!
//! Pins three contracts:
//!
//! 1. `--deny` findings drive a non-zero exit for **both** output formats
//!    (JSON must not swallow the failure);
//! 2. `--fix` never rewrites a file whose bytes would not change (no
//!    no-op atomic-rename churn — checked by inode identity);
//! 3. `analyze` on the committed §5 fixture produces the expected
//!    certificate + Orion contrast, byte-compared against a golden
//!    (regenerate with `AXB_REGEN_GOLDEN=1`).

use std::path::{Path, PathBuf};
use std::process::Command;

use axiombase_core::{LatticeConfig, Schema};

fn snapshots_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/snapshots")
}

fn scripts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scripts")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axb-lintcli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_axiombase"))
        .args(args)
        .output()
        .expect("run axiombase");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A snapshot with an L1 finding (redundant essential supertype) that
/// `--fix` can canonicalize away.
fn redundant_snapshot() -> String {
    let mut s = Schema::new(LatticeConfig::default());
    let root = s.add_root_type("T_object").unwrap();
    let a = s.add_type("A", [root], []).unwrap();
    // B ⊑ {A, ⊤}: the root edge is reachable through A → redundant.
    s.add_type("B", [a, root], []).unwrap();
    s.to_snapshot()
}

#[test]
fn deny_exits_nonzero_in_json_and_text() {
    let dir = scratch("deny");
    let path = dir.join("r.axb");
    std::fs::write(&path, redundant_snapshot()).unwrap();
    let p = path.to_str().unwrap();

    let (code, stdout, _) = run_cli(&["lint", "--format", "json", "--deny", "all", p]);
    assert_eq!(code, 1, "json --deny must exit 1 on findings: {stdout}");
    assert!(stdout.contains("\"denied\":"), "{stdout}");

    let (code, _, _) = run_cli(&["lint", "--format", "text", "--deny", "all", p]);
    assert_eq!(code, 1);

    // Undenied findings exit 0 either way.
    let (code, _, _) = run_cli(&["lint", "--format", "json", p]);
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fix_does_not_rewrite_unchanged_files() {
    use std::os::unix::fs::MetadataExt;
    let dir = scratch("fixchurn");
    let path = dir.join("r.axb");
    std::fs::write(&path, redundant_snapshot()).unwrap();
    let p = path.to_str().unwrap();

    // First --fix applies the L1 edit and rewrites the file.
    let ino_before_fix = std::fs::metadata(&path).unwrap().ino();
    let (code, stdout, _) = run_cli(&["lint", "--fix", p]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("applied 1 semantics-preserving"),
        "{stdout}"
    );
    let fixed = std::fs::read_to_string(&path).unwrap();
    let ino_fixed = std::fs::metadata(&path).unwrap().ino();
    assert_ne!(ino_before_fix, ino_fixed, "first fix must rewrite");

    // Second --fix finds nothing to change: the file must not be touched
    // (same bytes, same inode — atomic_write_file would replace the inode).
    let (code, stdout, _) = run_cli(&["lint", "--fix", p]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("applied"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), fixed);
    assert_eq!(
        std::fs::metadata(&path).unwrap().ino(),
        ino_fixed,
        "no-op fix must not churn the inode"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn check_golden(name: &str, actual: &str) {
    let path = snapshots_dir().join(name);
    if std::env::var("AXB_REGEN_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name}; regenerate with AXB_REGEN_GOLDEN=1"));
    assert_eq!(actual, want, "golden {name} drifted");
}

#[test]
fn analyze_sec5_fixture_matches_golden_and_certifies() {
    let script = scripts_dir().join("sec5_drops.axb");
    let (code, stdout, stderr) = run_cli(&[
        "analyze",
        "--tail",
        "5",
        "--certify-order-independence",
        script.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "certification must succeed: {stderr}");
    assert!(
        stdout.contains("certificate: ORDER-INDEPENDENT"),
        "{stdout}"
    );
    assert!(stdout.contains("all 120 permutations"), "{stdout}");
    assert!(stdout.contains("ORDER-DEPENDENT under OP4"), "{stdout}");
    check_golden("golden_analyze_sec5.txt", &stdout);

    // The full trace (with the allocating prefix) is NOT certified —
    // allocation order is identity-visible — and --certify reflects that
    // in the exit code.
    let (code, stdout, _) = run_cli(&[
        "analyze",
        "--certify-order-independence",
        script.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains("certificate: NOT order-independent"),
        "{stdout}"
    );
}

#[test]
fn analyze_json_and_model_check() {
    let script = scripts_dir().join("sec5_drops.axb");
    let (code, stdout, _) = run_cli(&[
        "analyze",
        "--tail",
        "5",
        "--json",
        "--mc-bound",
        "3",
        script.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"certified\":true"), "{stdout}");
    assert!(stdout.contains("\"permutations\":\"120\""), "{stdout}");
    assert!(stdout.contains("\"order_dependent\":true"), "{stdout}");
    assert!(stdout.contains("\"passed\":true"), "{stdout}");
    assert!(stdout.contains("\"failed\":false"), "{stdout}");
}

#[test]
fn analyze_json_reports_class_sizes_and_witness_counts() {
    use std::os::unix::fs::MetadataExt;
    let script = scripts_dir().join("sec5_drops.axb");
    let ino_before = std::fs::metadata(&script).unwrap().ino();
    let (code, stdout, _) =
        run_cli(&["analyze", "--tail", "5", "--json", script.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    // Every independence class reports its size alongside its ops...
    assert!(stdout.contains("\"size\":"), "{stdout}");
    // ...and the pair summary counts the conflict witnesses.
    assert!(stdout.contains("\"witnessed\":"), "{stdout}");
    // The sec5 tail is fully certified: zero witnessed conflicts.
    assert!(stdout.contains("\"witnessed\":0"), "{stdout}");
    // Analysis is read-only: the input file must be untouched (same inode).
    assert_eq!(
        std::fs::metadata(&script).unwrap().ino(),
        ino_before,
        "analyze must never rewrite its input"
    );
}

#[test]
fn analyze_plan_renders_certificate_and_check_in_both_formats() {
    let script = scripts_dir().join("sec5_drops.axb");
    let (code, stdout, stderr) =
        run_cli(&["analyze", "--tail", "5", "--plan", script.to_str().unwrap()]);
    assert_eq!(code, 0, "plan check must pass: {stdout}\n{stderr}");
    assert!(stdout.contains("plan check: OK"), "{stdout}");
    assert!(stdout.contains("stage"), "{stdout}");

    let (code, stdout, _) = run_cli(&[
        "analyze",
        "--tail",
        "5",
        "--plan",
        "--json",
        script.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\"plan\":{\"certificate\":"), "{stdout}");
    assert!(stdout.contains("\"serial_chain\":"), "{stdout}");
    assert!(stdout.contains("\"check\":{\"ok\":true"), "{stdout}");
}

/// Pull `"fingerprint":"..."` out of an `apply --json` report.
fn fingerprint_of(json: &str) -> String {
    let tag = "\"fingerprint\":\"";
    let start = json.find(tag).map(|i| i + tag.len()).expect(json);
    json[start..][..16].to_owned()
}

#[test]
fn apply_parallel_plan_matches_batched_apply() {
    let script = scripts_dir().join("sec5_drops.axb");
    let p = script.to_str().unwrap();

    let (code, batched, stderr) = run_cli(&["apply", "--json", p]);
    assert_eq!(code, 0, "{batched}\n{stderr}");
    assert!(batched.contains("\"plan\":null"), "{batched}");

    // The full §5 script starts from an empty schema, so allocation
    // order chains every op into one class: the certificate is trivially
    // sequential.
    let (code, planned, stderr) = run_cli(&["apply", "--json", "--plan", p]);
    assert_eq!(code, 0, "{planned}\n{stderr}");
    assert!(planned.contains("\"plan\":{"), "{planned}");
    assert!(planned.contains("\"max_parallelism\":1"), "{planned}");

    // Certified (degenerate) planned execution still equals the batch.
    assert_eq!(fingerprint_of(&batched), fingerprint_of(&planned));

    // Text mode narrates the plan shape.
    let (code, stdout, _) = run_cli(&["apply", "--plan", p]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("via certified plan"), "{stdout}");
}

/// A journal directory whose checkpoint holds four disjoint diamonds and
/// whose WAL tail holds one edge drop per diamond — the tail is what
/// `apply` replays, so the plan is genuinely wide.
fn wide_journal(tag: &str) -> PathBuf {
    use axiombase_core::journal::io::StdIo;
    use axiombase_core::{JournalOptions, JournaledSchema, RecordedOp};

    let mut s = Schema::new(LatticeConfig::default());
    s.add_root_type("obj").unwrap();
    let mut drops = Vec::new();
    for d in 0..4 {
        let p1 = s.add_type(format!("p1_{d}"), [], []).unwrap();
        let p2 = s.add_type(format!("p2_{d}"), [], []).unwrap();
        let c = s.add_type(format!("c_{d}"), [p1, p2], []).unwrap();
        drops.push(RecordedOp::DropEssentialSupertype { t: c, s: p1 });
    }
    let dir = scratch(tag).join("journal");
    let js = JournaledSchema::create(
        &dir,
        std::sync::Arc::new(StdIo),
        s,
        JournalOptions {
            checkpoint_every: 0,
        },
    )
    .expect("create journal");
    for op in &drops {
        js.apply(op).expect("journal drop");
    }
    dir
}

#[test]
fn apply_plan_runs_a_wide_certified_stage_like_the_batch() {
    let dir = wide_journal("widepar");
    let p = dir.to_str().unwrap();

    let (code, batched, stderr) = run_cli(&["apply", "--json", p]);
    assert_eq!(code, 0, "{batched}\n{stderr}");

    let (code, planned, stderr) = run_cli(&["apply", "--json", "--plan", p]);
    assert_eq!(code, 0, "{planned}\n{stderr}");
    assert!(planned.contains("\"stages\":1"), "{planned}");
    assert!(planned.contains("\"classes\":4"), "{planned}");
    assert!(planned.contains("\"max_parallelism\":4"), "{planned}");

    // Certified planned execution is observationally equal to the batch.
    assert_eq!(fingerprint_of(&batched), fingerprint_of(&planned));
}

#[test]
fn analyze_minimize_reports_rewrites() {
    let dir = scratch("minimize");
    let path = dir.join("churn.axb");
    std::fs::write(
        &path,
        "type add A\nprop add x on A\nprop drop x on A\ntype freeze A\ntype freeze A\n",
    )
    .unwrap();
    let (code, stdout, _) = run_cli(&["analyze", "--minimize", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("differential replay: equivalent"),
        "{stdout}"
    );
    assert!(stdout.contains("rewrite"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
