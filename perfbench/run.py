#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and through it the
library sources) into .bench_build/perfbench with CMake, then runs the
measuring program, passing it the exact counters of perfbench/expected.json.
The program prints the result object as the last line of stdout; build
output goes to stderr.  Exits non-zero without a result when the build
or the run fails.

Self-test options (perfbench/selftest.py): --tiny selects small sizes;
--expect FIELD=VALUE overrides one expected counter.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD = pathlib.Path(".bench_build") / "perfbench"
PROGRAM = BUILD / "shc_perfbench"
RUN_TIMEOUT_S = 175


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "shc_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return PROGRAM.exists()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--expect", action="append", default=[], metavar="FIELD=VALUE")
    args = ap.parse_args()

    expected = json.loads((HERE / "expected.json").read_text())
    table = expected["tiny" if args.tiny else "full"]
    if args.workload not in table:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not build():
        return 1

    cmd = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    for field, value in table[args.workload].items():
        cmd += ["--expect", f"{field}={value}"]
    for override in args.expect:
        cmd += ["--expect", override]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the measuring program timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"run.py: the measuring program exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
