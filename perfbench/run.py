#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload write|read|smallbank \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the CCF
libraries and the benchmark program under .bench_build/perfbench
(RelWithDebInfo, the top-level default); later runs rebuild only what
changed. The program's output is relayed; its last line, a JSON object with
the keys correct, attempted, failed and metrics, is checked and printed
last. The exit code is the program's: non-zero when the build fails, a
correctness check fails, or the program does not produce a result.
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
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build():
    # Configuring an already configured tree is a quick no-op, and running it
    # every time recovers from an earlier failed configure.
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tests", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_mhz():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cpu MHz"):
                return float(line.split(":")[1])
    except OSError:
        pass
    return 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["write", "read", "smallbank"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    stamp = {"nproc": os.cpu_count(), "cpu_mhz": cpu_mhz(),
             "build": BUILD_TYPE, "commit": source_id(),
             "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace}
    print("machine: " + json.dumps(stamp), flush=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return proc.returncode if result["correct"] else (proc.returncode or 1)


if __name__ == "__main__":
    sys.exit(main())
