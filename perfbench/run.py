#!/usr/bin/env python3
"""Build and run one workload of the axiombase end-to-end benchmark.

    python3 perfbench/run.py --workload online|migrate|restart \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), stamps the machine,
runs the workload, checks that its inputs digest matches every earlier run
of the same workload and seed in this checkout, and prints the result as
one JSON line, the last line of standard output. Journals are written under
the build directory and removed afterwards. Exits non-zero, printing no
result, if the build, the run or the result is broken.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
FLUSH_POLICY = (
    "one fsync per acknowledged append (JournaledSchema default); "
    "checkpoint every 256 ops in online and migrate, none after the first in restart"
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_digest(target, workload, seed, digest):
    """Record the inputs digest of (workload, seed); False if it differs
    from the one an earlier run in this checkout recorded."""
    path = os.path.join(target, "perfbench", "digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}:{seed}"
    entry = seen.setdefault(key, {"digest": digest, "runs": 0})
    same = entry["digest"] == digest
    entry["runs"] += 1
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return same, entry["runs"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["online", "migrate", "restart"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")

    for needed in ("crates/core/Cargo.toml", "crates/store/Cargo.toml",
                   "crates/workload/Cargo.toml", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")

    base = os.path.join(target, "perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    out_dir = os.path.join(base, "out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)

    print(f"machine: nproc {len(os.sched_getaffinity(0))}; cpu {cpu_model()}; "
          f"{rustc_version()}; profile release; journal fs {fs_type(work)}")
    print(f"flush policy: {FLUSH_POLICY}")
    sys.stdout.flush()

    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--out", out_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"the run exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the run printed nothing")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = declared_metrics(args.trace == 1)
    with open(os.path.join(HERE, "layers.json")) as f:
        unmapped = set(declared_metrics(True)) - set(json.load(f)["per_layer"])
    if unmapped:
        problems.append(f"per-layer metrics without an entry in layers.json: {sorted(unmapped)}")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append("printed metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest: ")), None)
    if digest is None:
        problems.append("no inputs digest printed")
    else:
        same, runs = check_digest(target, args.workload, args.seed, digest)
        if same:
            print(f"digest check: {digest} matches all {runs} run(s) of {args.workload} seed {args.seed}")
        else:
            problems.append(f"inputs digest {digest} differs from an earlier run of the same seed")
    for p in problems:
        print(f"RESULT CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
