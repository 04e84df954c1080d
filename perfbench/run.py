#!/usr/bin/env python3
"""Build and run the NVOverlay host-performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds nvo_perfbench (perfbench/CMakeLists.txt, which
compiles the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench-<key> (default .bench_build/perfbench-<key>,
<key> a hash of the checkout's path), runs
one workload for about --seconds seconds, and prints its
report. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run
also writes its spans to <build dir>/spans/<workload>-seed<n>.jsonl.

--selftest runs the byte-identity check of the outside timers (plain,
sliced and traced runs must produce identical statistics) and the
correctness pass on every workload at a small size.

Exit status: 0 on success; 1 when a correctness check failed (the
report is still printed); 2 when the build or the arguments fail; 3 on
timeout; 4 when the report does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kmeans_paper", "hashtable_hifreq", "btree_crash")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    """A CMake build tree is tied to the absolute path of its sources,
    so the directory is keyed by the checkout's path: two checkouts that
    share CARGO_TARGET_DIR never build each other's src/."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"perfbench-{key}"


def run_quiet(cmd, timeout):
    """Run a build step; on failure show the tail of its output."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log(f"command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.returncode == 0


def build(bdir):
    """Configure once, then build incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return None
    if not (bdir / "CMakeCache.txt").is_file():
        bdir.mkdir(parents=True, exist_ok=True)
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(bdir), "-j", jobs,
                      "--target", "nvo_perfbench"], BUILD_TIMEOUT_S):
        return None
    return bdir / "nvo_perfbench"


def bench_env():
    """Back the benchmark's heap with transparent huge pages where the
    kernel allows it (madvise mode). With 4 KiB pages the simulator's
    random walks over hundreds of MB of tables ran about 1.5x slower
    and spread wider between runs on a virtual machine."""
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    tunables.append("glibc.malloc.hugetlb=1")
    env["GLIBC_TUNABLES"] = ":".join(tunables)
    return env


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_report(line, trace):
    """nvo_perfbench's last line must be the result object the benchmark
    declares: exactly its metrics, each with a numeric value."""
    try:
        report = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(report)}"
    want = expected_metrics(trace)
    got = report["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in got.items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 3
    if binary is None:
        return 2

    if args.selftest:
        try:
            return subprocess.run([str(binary), "--selftest"],
                                  timeout=SELFTEST_TIMEOUT_S,
                                  check=False).returncode
        except subprocess.TimeoutExpired:
            log("selftest timed out")
            return 3

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = bdir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=bench_env(), timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    err = check_report(lines[-1], args.trace) if lines[-1] else "no output"
    if err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"bad report: {err}")
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
