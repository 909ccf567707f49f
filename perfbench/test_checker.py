"""Tests of the artifact checker on hand-built good and bad artifacts.

Run from the root of a checkout with ``python3 -m unittest discover -s
perfbench -p 'test_*.py'``; stdlib only, hetqc is not needed.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import checker

COLUMNS = "t_start_s duration_s kind module lane label qubits error"

# a clean two-qubit schedule: gates on one core, q1 written to memory,
# stored, and read back before its next gate
GOOD_EVENTS = [
    "0.0 2e-06 gate qpu0 qpu0:core0 CNOT 0,1 1e-07",
    "2e-06 1e-06 transfer_write stqm0 stqm0:q1 write 1 1e-08",
    "2e-06 1e-06 gate qpu0 qpu0:core0 H 0 1e-08",
    "3e-06 2e-06 idle_buffer stqm0 stqm0:q1 stored 1 0.0",
    "3e-06 1e-06 t_inject qpu0 qpu0:core0 T 0 1e-06",
    "5e-06 1e-06 transfer_read stqm0 stqm0:q1 read 1 1e-08",
    "6e-06 2e-06 gate qpu0 qpu0:core0 CNOT 0,1 1e-07",
]
GOOD_MAKESPAN = 8e-06
COUNTERS = {"cnot_count": 2, "st_count": 2, "swap_count": 0, "t_count": 1}


def schedule_text(events, makespan=GOOD_MAKESPAN, counters=COUNTERS):
    head = ["circuit c on X", f"makespan_s {makespan!r}",
            " ".join(f"{k}={v}" for k, v in sorted(counters.items())),
            COLUMNS]
    return "\n".join(head + list(events)) + "\n"


BUDGET_ROWS = [("qpu_idle", 0.0), ("qm_idle", 0.0), ("gate_1q", 1e-08),
               ("gate_2q", 2e-07), ("gate_t", 1e-06), ("transfer", 2e-08),
               ("measure", 0.0)]


def budget_text(rows=BUDGET_ROWS, total=None):
    if total is None:
        total = sum(v for _, v in rows)
    lines = ["category,error_prob"] + [f"{c},{v!r}" for c, v in rows]
    return "\r\n".join(lines + [f"total,{total!r}"]) + "\r\n"


class Case(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return path

    def schedule_problems(self, events, **kw):
        path = self.write("schedule.txt", schedule_text(events, **kw))
        return checker.check_schedule(path)[1]

    def replaced(self, index, line):
        events = list(GOOD_EVENTS)
        events[index] = line
        return events


class ScheduleTest(Case):
    def test_good_schedule_passes(self):
        facts, problems = checker.check_schedule(
            self.write("schedule.txt", schedule_text(GOOD_EVENTS)))
        self.assertEqual(problems, [])
        self.assertEqual(facts["events"], len(GOOD_EVENTS))
        self.assertEqual(facts["makespan_s"], GOOD_MAKESPAN)
        self.assertEqual(facts["counters"], COUNTERS)

    def test_touching_events_within_rounding_pass(self):
        events = list(GOOD_EVENTS)
        events[1:3] = [
            "1.9999999999999e-06 1e-06 gate qpu0 qpu0:core0 H 0 1e-08",
            GOOD_EVENTS[1]]
        self.assertEqual(self.schedule_problems(events), [])

    def test_lane_overlap_rejected(self):
        events = self.replaced(
            2, "1.5e-06 1e-06 gate qpu0 qpu0:core0 H 2 1e-08")
        problems = self.schedule_problems(events)
        self.assertTrue(any("same lane" in p for p in problems), problems)

    def test_qubit_overlap_across_lanes_rejected(self):
        # q0 gated on core1 while core0 still runs CNOT(0,1)
        events = list(GOOD_EVENTS)
        events.insert(1, "1e-06 1e-06 gate qpu0 qpu0:core1 H 0 1e-08")
        problems = self.schedule_problems(events)
        self.assertTrue(any("q0 starts" in p for p in problems), problems)

    def test_idle_overlapping_a_gate_on_its_qubit_is_allowed(self):
        events = list(GOOD_EVENTS)
        events.insert(1, "0.0 8e-06 idle_buffer qpu0 qpu0:q7 mapped_idle 0 "
                         "1e-09")
        self.assertEqual(self.schedule_problems(events), [])

    def test_read_before_write_rejected(self):
        events = [e for e in GOOD_EVENTS if "transfer_write" not in e]
        problems = self.schedule_problems(events)
        self.assertTrue(any("expected transfer_write" in p
                            for p in problems), problems)

    def test_two_writes_without_read_rejected(self):
        events = self.replaced(
            5, "5e-06 1e-06 transfer_write stqm0 stqm0:q1 write 1 1e-08")
        problems = self.schedule_problems(events)
        self.assertTrue(any("expected transfer_read" in p
                            for p in problems), problems)

    def test_pairing_is_per_module(self):
        # a write to another memory does not pair with stqm0's read
        events = self.replaced(
            1, "2e-06 1e-06 transfer_write raqm0 raqm0:q1 write 1 1e-08")
        problems = self.schedule_problems(events)
        self.assertTrue(any("stqm0 q1 has transfer_read" in p
                            for p in problems), problems)

    def test_error_outside_unit_interval_rejected(self):
        for bad in ("1.5", "-0.1", "nan"):
            events = self.replaced(
                4, f"3e-06 1e-06 t_inject qpu0 qpu0:core0 T 0 {bad}")
            problems = self.schedule_problems(events)
            self.assertTrue(any("outside [0, 1]" in p for p in problems),
                            (bad, problems))

    def test_bad_duration_rejected(self):
        for bad in ("-1e-06", "inf", "nan"):
            events = self.replaced(
                4, f"3e-06 {bad} t_inject qpu0 qpu0:core0 T 0 1e-06")
            problems = self.schedule_problems(events)
            self.assertTrue(any("duration" in p for p in problems),
                            (bad, problems))

    def test_event_past_makespan_rejected(self):
        problems = self.schedule_problems(GOOD_EVENTS, makespan=7e-06)
        self.assertTrue(any("after makespan" in p for p in problems),
                        problems)

    def test_events_out_of_order_rejected(self):
        events = list(GOOD_EVENTS)
        events[2], events[3] = events[3], events[2]
        problems = self.schedule_problems(events)
        self.assertTrue(any("before the previous event" in p
                            for p in problems), problems)

    def test_malformed_lines_rejected(self):
        events = self.replaced(2, "2e-06 1e-06 gate qpu0 qpu0:core0 H")
        self.assertTrue(self.schedule_problems(events))
        events = self.replaced(2, "x 1e-06 gate qpu0 qpu0:core0 H 0 1e-08")
        self.assertTrue(self.schedule_problems(events))
        path = self.write("schedule.txt", "circuit c on X\n")
        self.assertTrue(checker.check_schedule(path)[1])


class RunDirTest(Case):
    def write_run(self, events=GOOD_EVENTS, budget=None, **summary_kw):
        rows = dict(BUDGET_ROWS)
        total = sum(rows.values())
        summary = {"n_events_count": len(events),
                   "makespan_s": GOOD_MAKESPAN, "total_error_prob": total,
                   "counters_count": COUNTERS, "n_gates_count": 4}
        summary.update(summary_kw)
        self.write("summary.json", json.dumps(summary))
        self.write("schedule.txt", schedule_text(events))
        self.write("budget.csv", budget if budget is not None
                   else budget_text())

    def test_consistent_artifacts_pass(self):
        self.write_run()
        facts, problems = checker.check_run_dir(self.dir)
        self.assertEqual(problems, [])
        self.assertEqual(facts["gates"], 4)

    def test_budget_not_summing_to_total_rejected(self):
        self.write_run(budget=budget_text(total=0.5))
        problems = checker.check_run_dir(self.dir)[1]
        self.assertTrue(any("sum to" in p for p in problems), problems)

    def test_budget_category_out_of_range_rejected(self):
        rows = list(BUDGET_ROWS)
        rows[0] = ("qpu_idle", -0.25)
        rows[1] = ("qm_idle", 0.25)
        total, problems = checker.check_budget(
            self.write("budget.csv", budget_text(rows)))
        self.assertTrue(any("outside [0, 1]" in p for p in problems),
                        problems)

    def test_summary_disagreeing_with_schedule_rejected(self):
        self.write_run(n_events_count=3)
        self.assertTrue(checker.check_run_dir(self.dir)[1])
        self.write_run(makespan_s=1.0)
        self.assertTrue(checker.check_run_dir(self.dir)[1])
        self.write_run(total_error_prob=0.5)
        self.assertTrue(checker.check_run_dir(self.dir)[1])

    def test_missing_artifact_rejected(self):
        self.write_run()
        (self.dir / "budget.csv").unlink()
        self.assertTrue(checker.check_run_dir(self.dir)[1])


class SweepAndRefusalTest(Case):
    FIELDS = "arch,status,makespan_s,total_error"

    def write_sweep(self, rows):
        self.write("comparison.csv",
                   "\n".join([self.FIELDS] + rows) + "\n")
        self.write("summary.json", json.dumps({"rows": rows}))

    def test_ok_sweep_passes(self):
        self.write_sweep(["A1,ok,0.5,1e-3", "A2,ok,0.25,1e-4"])
        rows, problems = checker.check_sweep_dir(self.dir, ["A1", "A2"])
        self.assertEqual(problems, [])
        self.assertEqual(len(rows), 2)

    def test_failed_row_rejected(self):
        self.write_sweep(["A1,ok,0.5,1e-3", "A2,failed: no cell,,"])
        problems = checker.check_sweep_dir(self.dir, ["A1", "A2"])[1]
        self.assertTrue(any("status" in p for p in problems), problems)

    def test_missing_row_rejected(self):
        self.write_sweep(["A1,ok,0.5,1e-3"])
        self.assertTrue(checker.check_sweep_dir(self.dir, ["A1", "A2"])[1])

    def test_refusal(self):
        msg = "error: compilation failed: no reachable memory cell\n"
        self.assertEqual(checker.check_refusal(4, msg, self.dir), [])
        self.assertTrue(checker.check_refusal(0, msg, self.dir))
        self.assertTrue(checker.check_refusal(4, "error: other\n", self.dir))
        self.write("schedule.txt", schedule_text(GOOD_EVENTS))
        self.assertTrue(checker.check_refusal(4, msg, self.dir))


if __name__ == "__main__":
    unittest.main()
