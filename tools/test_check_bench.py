#!/usr/bin/env python3
"""Self-test for bench/check_bench.py — the perf-trajectory gate.

The gate is CI's only guard on the committed construct(63, 10) counters;
a silent regression in the gate itself (a row that stops being compared,
a drift that stops failing) would let the trajectory rot unnoticed.
Each test builds fixture artifacts on disk and runs check_bench.main()
against them, covering the missing-row, counter-drift, tolerance, noise
floor, skip, and unreadable-artifact paths."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "bench")
)

import check_bench  # noqa: E402


def schedule_artifact(rows: dict[str, dict], num_cpus: int | None = None) -> dict:
    art = {"benchmarks": [dict(name=name, **row) for name, row in rows.items()]}
    if num_cpus is not None:
        art["context"] = {"num_cpus": num_cpus}
    return art


BASE_SCHED = {
    "BM_SymbolicCertify/63": {
        "calls": 9.223372036854776e18, "groups": 63.0, "minimum_time": 1.0,
        "real_time": 2.0,
    },
    "BM_SymbolicGossip/33": {"exchanges": 1.0, "groups": 33.0, "real_time": 0.1},
    "BM_SymbolicCertify/48": {
        "calls": 2.0 ** 48, "groups": 48.0, "minimum_time": 1.0,
        "real_time": 10.0,
    },
    "BM_SymbolicCertifyDesigned/63": {
        "calls": 9.223372036854776e18, "groups": 630.0, "minimum_time": 1.0,
        "real_time": 100.0,
    },
    "BM_SymbolicCertifyThreads/1": {
        "groups": 47.0, "peak_frontier_subcubes": 7.0,
        "occupancy_claims": 11.0, "minimum_time": 1.0, "real_time": 8.0,
    },
    "BM_SymbolicCertifyThreads/4": {
        "groups": 47.0, "peak_frontier_subcubes": 7.0,
        "occupancy_claims": 11.0, "minimum_time": 1.0, "real_time": 3.0,
    },
}
BASE_SWEEP = [
    {"engine": "symbolic", "n": 40, "k": 1, "rounds": 40, "calls": 1.0,
     "groups": 40, "minimum_time": 1, "ok": True, "seconds": 3.0},
]


class GateHarness(unittest.TestCase):
    def run_gate(
        self,
        fresh_sched: dict | None,
        fresh_sweep: list | None,
        base_sched: dict | None = None,
        base_sweep: list | None = None,
        extra_args: list[str] | None = None,
        unreadable: bool = False,
        fresh_cpus: int | None = None,
    ) -> tuple[int, str]:
        base_sched = BASE_SCHED if base_sched is None else base_sched
        base_sweep = BASE_SWEEP if base_sweep is None else base_sweep
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            paths = {
                "--fresh-schedule": root / "fresh_sched.json",
                "--baseline-schedule": root / "base_sched.json",
                "--fresh-sweep": root / "fresh_sweep.jsonl",
                "--baseline-sweep": root / "base_sweep.jsonl",
            }
            if not unreadable:
                paths["--fresh-schedule"].write_text(
                    json.dumps(schedule_artifact(fresh_sched or {}, fresh_cpus)))
            paths["--baseline-schedule"].write_text(
                json.dumps(schedule_artifact(base_sched)))
            paths["--fresh-sweep"].write_text(
                "\n".join(json.dumps(r) for r in (fresh_sweep or [])))
            paths["--baseline-sweep"].write_text(
                "\n".join(json.dumps(r) for r in base_sweep))
            argv = [a for k, v in paths.items() for a in (k, str(v))]
            argv += extra_args or []
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = check_bench.main(argv)
            return status, out.getvalue() + err.getvalue()


class SchedulePaths(GateHarness):
    def test_identical_artifacts_pass(self) -> None:
        status, out = self.run_gate(dict(BASE_SCHED), list(BASE_SWEEP))
        self.assertEqual(status, 0, out)
        self.assertIn("OK", out)

    def test_missing_gated_row_fails(self) -> None:
        fresh = {k: v for k, v in BASE_SCHED.items()
                 if k != "BM_SymbolicCertify/63"}
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 1, out)
        self.assertIn("missing from the fresh recording", out)

    def test_counter_drift_fails(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertify/63"]["calls"] = 12345.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 1, out)
        self.assertIn("drifted", out)
        self.assertIn("calls", out)

    def test_time_regression_beyond_tolerance_fails(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertify/63"]["real_time"] = 3.0  # 2.0s -> 3.0s
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 1, out)
        self.assertIn("regressed", out)

    def test_time_regression_within_widened_tolerance_passes(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertify/63"]["real_time"] = 3.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP),
                                    extra_args=["--tolerance", "0.60"])
        self.assertEqual(status, 0, out)

    def test_noise_floor_exempts_fast_rows(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        # 0.1s baseline is under the 0.5s floor: a 10x "regression" passes.
        fresh["BM_SymbolicGossip/33"]["real_time"] = 1.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 0, out)

    def test_improvement_always_passes(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertify/63"]["real_time"] = 0.5
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 0, out)


class ThreadRows(GateHarness):
    def test_thread_row_time_is_never_gated(self) -> None:
        # 8.0s -> 80.0s on the threads row: wall time there measures the
        # host's cores, so only counters are gated.
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyThreads/1"]["real_time"] = 80.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 0, out)

    def test_scaling_gate_skips_below_four_cpus(self) -> None:
        # 4 threads no faster than 1: fine on a runner with 1 or 2 CPUs,
        # which cannot show the speedup — the skip is announced.
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyThreads/4"]["real_time"] = 8.0
        for cpus in (None, 1, 2):
            status, out = self.run_gate(fresh, list(BASE_SWEEP), fresh_cpus=cpus)
            self.assertEqual(status, 0, out)
            self.assertIn("scaling gate", out)
            self.assertIn("skipped", out)

    def test_scaling_gate_binds_on_four_cpus(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyThreads/4"]["real_time"] = 6.5  # 0.81x
        status, out = self.run_gate(fresh, list(BASE_SWEEP), fresh_cpus=4)
        self.assertEqual(status, 1, out)
        self.assertIn("scaling gate", out)
        self.assertIn("0.81x", out)
        fresh["BM_SymbolicCertifyThreads/4"]["real_time"] = 6.0  # 0.75x
        status, out = self.run_gate(fresh, list(BASE_SWEEP), fresh_cpus=8)
        self.assertEqual(status, 0, out)
        self.assertNotIn("skipped", out)

    def test_scaling_gate_needs_both_rows_on_four_cpus(self) -> None:
        fresh = {k: v for k, v in BASE_SCHED.items()
                 if k != "BM_SymbolicCertifyThreads/4"}
        status, out = self.run_gate(fresh, list(BASE_SWEEP), fresh_cpus=4)
        self.assertEqual(status, 1, out)
        self.assertIn("must both be recorded", out)

    def test_thread_counter_divergence_fails(self) -> None:
        # threads=4 reporting different groups than threads=1 is a
        # determinism bug even if both match their own baselines... but
        # drift vs baseline already fails; make the rows agree with the
        # baseline being stale instead: fresh rows diverge from each
        # other only.
        fresh = json.loads(json.dumps(BASE_SCHED))
        base = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyThreads/4"]["groups"] = 48.0
        base["BM_SymbolicCertifyThreads/4"]["groups"] = 48.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP), base_sched=base)
        self.assertEqual(status, 1, out)
        self.assertIn("thread invariance", out)
        self.assertIn("bit-for-bit", out)


class RatioGate(GateHarness):
    def test_ratio_regression_fails_even_with_widened_tolerance(self) -> None:
        # Designed-63 slows from 100s to 300s while the 48 row holds:
        # the 10.0 committed ratio becomes 30.0.  A widened absolute
        # tolerance (CI's 1.5) lets the absolute row through; the ratio
        # gate must still fail.
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyDesigned/63"]["real_time"] = 300.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP),
                                    extra_args=["--tolerance", "2.5"])
        self.assertEqual(status, 1, out)
        self.assertIn("ratio gate", out)
        self.assertIn("machine-independent", out)

    def test_uniform_slowdown_passes_the_ratio_gate(self) -> None:
        # A 2x-slower runner moves both rows together: absolute times
        # need the widened tolerance, the ratio needs nothing.
        fresh = json.loads(json.dumps(BASE_SCHED))
        for row in ("BM_SymbolicCertify/48", "BM_SymbolicCertifyDesigned/63",
                    "BM_SymbolicCertify/63"):
            fresh[row]["real_time"] *= 2.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP),
                                    extra_args=["--tolerance", "1.5"])
        self.assertEqual(status, 0, out)

    def test_ratio_improvement_passes(self) -> None:
        fresh = json.loads(json.dumps(BASE_SCHED))
        fresh["BM_SymbolicCertifyDesigned/63"]["real_time"] = 40.0
        status, out = self.run_gate(fresh, list(BASE_SWEEP))
        self.assertEqual(status, 0, out)


class SweepPaths(GateHarness):
    def test_missing_sweep_row_fails(self) -> None:
        status, out = self.run_gate(dict(BASE_SCHED), [])
        self.assertEqual(status, 1, out)
        self.assertIn("missing from the fresh sweep", out)

    def test_sweep_counter_drift_fails(self) -> None:
        fresh = json.loads(json.dumps(BASE_SWEEP))
        fresh[0]["ok"] = False
        status, out = self.run_gate(dict(BASE_SCHED), fresh)
        self.assertEqual(status, 1, out)
        self.assertIn("'ok' drifted", out)

    def test_ungated_engine_ignored(self) -> None:
        base = list(BASE_SWEEP) + [{"engine": "toy", "n": 5, "k": 1,
                                    "rounds": 99}]
        status, out = self.run_gate(dict(BASE_SCHED), list(BASE_SWEEP),
                                    base_sweep=base)
        self.assertEqual(status, 0, out)


class EscapeHatches(GateHarness):
    def test_skip_flag_short_circuits(self) -> None:
        status, out = self.run_gate(None, None, extra_args=["--skip"],
                                    unreadable=True)
        self.assertEqual(status, 0, out)
        self.assertIn("SKIPPED", out)

    def test_unreadable_artifact_is_exit_2(self) -> None:
        status, out = self.run_gate(None, list(BASE_SWEEP), unreadable=True)
        self.assertEqual(status, 2, out)
        self.assertIn("cannot read schedule artifact", out)


if __name__ == "__main__":
    unittest.main()
