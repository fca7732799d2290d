#!/usr/bin/env python3
"""Runs one workload of the vnskit benchmark and checks its result.

Run from the repository root:

    python3 perfbench/run.py --workload full_build --seed 1 --seconds 16 --trace 0

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark program in perfbench/src/) into .bench_build/perfbench; later
calls rebuild only what changed.  `--workload all` runs the three workloads
in turn, one process each.  The program's JSON lines are passed through,
followed by a run-identity line, and the result object is printed last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  --out FILE appends the whole record (identity, detail,
result) as one JSON line, the input format of perfbench/compare.py.

Exit status: 0 when every output check passed, 1 when a check failed or the
build or run broke, 2 on bad arguments or a checkout without the sources.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "vns_perfbench"
WORKLOADS = ("full_build", "paper_churn", "paper_campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--out", default=None, help="append the full record to this JSONL file")
    args = parser.parse_args()
    if args.seed < 0 or not (0 < args.seconds <= 3600):
        fail("--seed must be >= 0 and --seconds in (0, 3600]", 2)
    return args


def run_logged(command, log, timeout):
    with open(log, "ab") as out:
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def build():
    if not (ROOT / "src" / "measure" / "workbench.hpp").is_file():
        fail(f"vnskit sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    log.write_bytes(b"")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    ok = (run_logged(configure, log, BUILD_TIMEOUT_S)
          and run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs], log, BUILD_TIMEOUT_S))
    if not ok or not BINARY.is_file():
        tail = log.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build failed (log: {log})")


def source_identity():
    """Commit when the checkout is a git work tree, and a digest of the sources either way."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return commit, digest.hexdigest()


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode, if it is present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    listed = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in listed}


def check_result(result, trace):
    """Problems with the result's shape; an empty list when it is well formed."""
    problems = []
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}"]
    metrics = result["metrics"]
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
        elif not trace and value <= 0:
            problems.append(f"end-to-end metric {name} is {value}, not positive")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: entry.get("unit") for name, entry in metrics.items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                            f"unlisted {extra}, unit mismatch {units}")
    if result["attempted"] < 1:
        problems.append("no operation was attempted")
    return problems


def run_workload(args, workload):
    """Runs one workload, prints its lines with the result last; returns the exit status."""
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode not in (0, 1) or not lines:
        fail(f"vns_perfbench exited with status {done.returncode}")
    records = [json.loads(line) for line in lines]
    result = records[-1]
    problems = check_result(result, args.trace == "1")
    if problems:
        fail("; ".join(problems))

    commit, source_digest = source_identity()
    identity = dict(next((r for r in records if r.get("type") == "run"), {}))
    identity.update({"type": "identity", "commit": commit, "source_digest": source_digest,
                     "started_at": started_at})
    detail = next((r for r in records if r.get("type") == "detail"), {})
    for record in records[:-1]:
        if record.get("type") != "run":
            print(json.dumps(record))
    print(json.dumps(identity))
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"identity": identity, "detail": detail, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 and done.returncode == 0 else 1


def main():
    args = parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run_workload(args, workload) for workload in workloads))


if __name__ == "__main__":
    main()
