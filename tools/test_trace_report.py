#!/usr/bin/env python3
"""Self-test for tools/trace_report.py — renders synthetic per-round
JSONL rows and checks the table, the phase breakdown, and the error
paths, so the report stays trustworthy without a live trace."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import trace_report  # noqa: E402


def rows_to_file(tmp: str, rows: list[dict]) -> str:
    path = pathlib.Path(tmp) / "t.rounds.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return str(path)


def run_main(path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = trace_report.main([path])
    return status, out.getvalue(), err.getvalue()


SAMPLE = [
    {"round": 1, "ts_ms": 1.0, "wall_ms": 1.0,
     "counters": {"round_groups": 10, "frontier_subcubes": 4},
     "phases_ms": {"caller_tiling": 0.6, "frontier_insert": 0.2}},
    {"round": 2, "ts_ms": 3.0, "wall_ms": 2.0,
     "counters": {"round_groups": 2000, "frontier_subcubes": 9},
     "phases_ms": {"caller_tiling": 1.5}},
    {"round": 3, "ts_ms": 3.5, "wall_ms": 0.5,
     "counters": {"round_groups": 50, "frontier_subcubes": 7},
     "phases_ms": {"sampled_replay": 0.4}},
    {"round": -1, "ts_ms": 4.0, "wall_ms": 0.5,
     "counters": {}, "phases_ms": {"endgame": 0.5}},
]


class Render(unittest.TestCase):
    def test_table_and_summary(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0, err)
        # One table line per real round; the tail row is summarized.
        self.assertIn("rounds: 3 (+1 endgame window)", out)
        self.assertIn("total wall: 4.00 ms", out)
        # Groups/sec: round 2 checked 2000 groups in 2 ms -> 1M/s.
        self.assertIn("1.00M", out)
        # Frontier growth is a delta against the previous round.
        self.assertIn("+5", out)
        self.assertIn("-2", out)

    def test_phase_breakdown_sorted_by_time(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, _ = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0)
        breakdown = out.split("phase breakdown:")[1]
        self.assertLess(breakdown.index("caller_tiling"),
                        breakdown.index("endgame"))
        self.assertLess(breakdown.index("endgame"),
                        breakdown.index("sampled_replay"))

    def test_self_time_next_to_inclusive_time(self) -> None:
        # A gossip-shaped round: apply_round encloses the three
        # knowledge-class phases, so inclusive percentages add up past
        # 100 % while self percentages stay within the round's wall.
        rows = [{"round": 1, "ts_ms": 10.0, "wall_ms": 10.0,
                 "counters": {},
                 "phases_ms": {"apply_round": 9.0, "kc_union": 4.0,
                               "kc_merge": 3.0, "kc_refine": 1.5},
                 "self_ms": {"apply_round": 0.5, "kc_union": 4.0,
                             "kc_merge": 3.0, "kc_refine": 1.5}}]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0, err)
        breakdown = out.split("phase breakdown:")[1].split("top-5")[0]
        self.assertIn("inclusive", out)
        self.assertIn("self", out)
        lines = {ln.split()[0]: ln.split() for ln in breakdown.splitlines()[1:]
                 if ln.strip()}
        # name, incl ms, "ms", incl %, self ms, "ms", self %
        self.assertEqual(lines["apply_round"][1], "9.00")
        self.assertEqual(lines["apply_round"][3], "90.0%")
        self.assertEqual(lines["apply_round"][4], "0.50")
        self.assertEqual(lines["apply_round"][6], "5.0%")
        incl = sum(float(v[3].rstrip("%")) for v in lines.values())
        own = sum(float(v[6].rstrip("%")) for v in lines.values())
        self.assertGreater(incl, 100.0)
        self.assertLessEqual(own, 100.0)

    def test_traces_without_self_times_show_dashes(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0, err)
        breakdown = out.split("phase breakdown:")[1].split("top-5")[0]
        line = [ln for ln in breakdown.splitlines() if "caller_tiling" in ln][0]
        self.assertEqual(line.split()[-2:], ["-", "-"])

    def test_top5_slowest(self) -> None:
        rows = [{"round": r, "ts_ms": float(r), "wall_ms": float(r),
                 "counters": {}, "phases_ms": {}} for r in range(1, 9)]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, _ = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0)
        top = out.split("top-5 slowest rounds:")[1]
        for r in (8, 7, 6, 5, 4):
            self.assertIn(f"round    {r}", top)
        self.assertNotIn("round    3", top)

    def test_rows_without_optional_counters(self) -> None:
        rows = [{"round": 0, "ts_ms": 0.1, "wall_ms": 0.1,
                 "counters": {"rss_hwm_kb": 1024}, "phases_ms": {}}]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0, err)
        self.assertIn("rounds: 1", out)


class Errors(unittest.TestCase):
    def test_missing_file(self) -> None:
        status, _, err = run_main("/nonexistent/t.jsonl")
        self.assertEqual(status, 1)
        self.assertIn("trace_report:", err)

    def test_malformed_json(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "bad.jsonl"
            path.write_text('{"round": 1\n', encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("not JSON", err)

    def test_row_without_round_key(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "bad.jsonl"
            path.write_text('{"wall_ms": 1.0}\n', encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("not a per-round row", err)

    def test_empty_file(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "empty.jsonl"
            path.write_text("", encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("no per-round rows", err)

    def test_usage(self) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = trace_report.main([])
        self.assertEqual(status, 2)
        self.assertIn("Usage", err.getvalue())


class FmtCount(unittest.TestCase):
    def test_scales(self) -> None:
        self.assertEqual(trace_report.fmt_count(7), "7")
        self.assertEqual(trace_report.fmt_count(1536), "1.54k")
        self.assertEqual(trace_report.fmt_count(2.5e6), "2.50M")
        self.assertEqual(trace_report.fmt_count(3e9), "3.00G")


if __name__ == "__main__":
    unittest.main()
