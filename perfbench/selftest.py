#!/usr/bin/env python3
"""Self-test of the repo benchmark on tiny sizes.

    python3 perfbench/selftest.py        # from the repository root

For every workload and both trace modes it runs perfbench/run.py with
--tiny and checks the result object: exactly the keys correct /
attempted / failed / metrics, a correct run with no failed operation,
and exactly the metrics BENCHMARK.json lists for that mode, each with a
numeric value and the unit BENCHMARK.json gives it, under a name
matching [A-Za-z0-9_.-]+.  Then it feeds each designed workload one
deliberately wrong expected counter and checks that the run reports
itself incorrect.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, table in tables.items():
            res = run(w, trace)
            where = f"{w} --trace {trace}"
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{where}: correct={res.get('correct')} failed={res.get('failed')}")
            want = {m["name"]: m["unit"] for m in table}
            got = res.get("metrics", {})
            if sorted(got) != sorted(want):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                if not NAME.match(name):
                    problems.append(f"{where}: bad metric name {name!r}")
                if not isinstance(m.get("value"), (int, float)) or m.get("unit") != want.get(name):
                    problems.append(f"{where}: {name} = {m}")
        if w.startswith("designed-"):
            res = run(w, 0, "--expect", "groups=1")
            if res.get("correct") is not False or res.get("failed", 0) < 1:
                problems.append(f"{w}: a wrong expected counter went unnoticed")
    for p in problems:
        print("selftest:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
