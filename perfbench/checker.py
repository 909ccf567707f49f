"""Independent checks on hetqc's artifacts, read the way a user reads them.

Stdlib only: nothing here imports hetqc, so a defect in the compiler cannot
hide itself by also breaking the check.  Each ``check_*`` function returns a
list of problems; an empty list means the artifact passed.

``schedule.txt`` is read as a stream in file order.  The format promises
events sorted by start time, so overlap on a lane or a qubit reduces to
comparing each start with the latest end seen so far on that lane or qubit,
and memory stays proportional to lanes and qubits, not to events.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

#: event kinds that occupy their qubits for the whole event
QUBIT_EXCLUSIVE_KINDS = frozenset({"gate", "t_inject", "ccz_inject"})
TRANSFER_KINDS = ("transfer_write", "transfer_read")
EVENT_COLUMNS = "t_start_s duration_s kind module lane label qubits error"

#: at most this many problems are listed per artifact
MAX_PROBLEMS = 20


def _tolerance(makespan: float) -> float:
    # start/end times are sums of many cycle times; allow rounding in the
    # last digits, far below one compute cycle
    return 1e-12 + 1e-12 * abs(makespan)


class _Problems(list):
    def add(self, text: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(text)


def _parse_header(lines: list[str]) -> tuple[dict, list[str]]:
    """First four lines of ``schedule.txt`` -> (header fields, problems)."""
    problems: list[str] = []
    head: dict = {}
    key, _, value = lines[1].partition(" ")
    try:
        head["makespan_s"] = float(value) if key == "makespan_s" else None
    except ValueError:
        head["makespan_s"] = None
    if head["makespan_s"] is None or not math.isfinite(head["makespan_s"]) \
            or head["makespan_s"] < 0:
        problems.append(f"bad makespan line {lines[1]!r}")
    counters = {}
    for item in lines[2].split():
        name, eq, num = item.partition("=")
        if not eq or not num.lstrip("-").isdigit():
            problems.append(f"bad counter {item!r}")
            continue
        counters[name] = int(num)
    head["counters"] = counters
    if lines[3] != EVENT_COLUMNS:
        problems.append(f"unexpected column header {lines[3]!r}")
    return head, problems


def check_schedule(path: Path) -> tuple[dict, list[str]]:
    """Check one ``schedule.txt``; returns (fingerprint facts, problems).

    Rejects overlapping events on one lane, overlapping gate / t_inject /
    ccz_inject events on one qubit, transfer writes and reads per (module,
    qubit) that do not alternate starting with a write, an error outside
    [0, 1], a negative or non-finite time, an event that ends after the
    makespan, and events out of start-time order.
    """
    problems = _Problems()
    with open(path, encoding="utf-8") as fh:
        header_lines = [fh.readline().rstrip("\n") for _ in range(4)]
        head, head_problems = _parse_header(header_lines)
        for p in head_problems:
            problems.add(p)
        makespan = head.get("makespan_s") or 0.0
        tol = _tolerance(makespan)
        lane_end: dict[str, tuple[float, str]] = {}
        qubit_end: dict[int, tuple[float, str]] = {}
        last_transfer: dict[tuple[str, int], str] = {}
        prev_start = -math.inf
        n_events = 0
        for lineno, raw in enumerate(fh, start=5):
            line = raw.rstrip("\n")
            if not line:
                continue
            n_events += 1
            fields = line.split(" ")
            if len(fields) != 8:
                problems.add(f"line {lineno}: {len(fields)} fields, want 8")
                continue
            t_s, d_s, kind, module, lane, label, qs, e_s = fields
            try:
                start, dur, err = float(t_s), float(d_s), float(e_s)
                qubits = [int(q) for q in qs.split(",")] if qs else []
            except ValueError:
                problems.add(f"line {lineno}: unparseable event {line!r}")
                continue
            where = f"line {lineno} ({kind} {lane})"
            if not (math.isfinite(start) and start >= 0):
                problems.add(f"{where}: start {start!r}")
                continue
            if not (math.isfinite(dur) and dur >= 0):
                problems.add(f"{where}: duration {dur!r}")
                continue
            if not 0.0 <= err <= 1.0:  # also false for NaN
                problems.add(f"{where}: error {err!r} outside [0, 1]")
            end = start + dur
            if end > makespan + tol:
                problems.add(f"{where}: ends at {end!r} after makespan "
                             f"{makespan!r}")
            if start < prev_start:
                problems.add(f"{where}: starts at {start!r}, before the "
                             f"previous event at {prev_start!r}")
            prev_start = max(prev_start, start)

            seen = lane_end.get(lane)
            if seen is not None and start < seen[0] - tol:
                problems.add(f"{where}: starts at {start!r} inside "
                             f"{seen[1]} on the same lane (ends {seen[0]!r})")
            if seen is None or end > seen[0]:
                lane_end[lane] = (end, f"{kind}@{start!r}")

            if kind in QUBIT_EXCLUSIVE_KINDS:
                for q in qubits:
                    seen = qubit_end.get(q)
                    if seen is not None and start < seen[0] - tol:
                        problems.add(f"{where}: q{q} starts at {start!r} "
                                     f"inside {seen[1]} (ends {seen[0]!r})")
                    if seen is None or end > seen[0]:
                        qubit_end[q] = (end, f"{kind} on {lane}@{start!r}")

            if kind in TRANSFER_KINDS:
                if len(qubits) != 1:
                    problems.add(f"{where}: transfer moves {len(qubits)} "
                                 "qubits, want 1")
                    continue
                key = (module, qubits[0])
                expect = ("transfer_read"
                          if last_transfer.get(key) == "transfer_write"
                          else "transfer_write")
                if kind != expect:
                    problems.add(f"{where}: {module} q{qubits[0]} has "
                                 f"{kind}, expected {expect}")
                last_transfer[key] = kind
    facts = {"makespan_s": makespan, "events": n_events,
             "counters": head.get("counters", {})}
    return facts, list(problems)


def check_budget(path: Path) -> tuple[float | None, list[str]]:
    """``budget.csv``: every category in [0, 1] and the rows sum to total."""
    problems: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["category", "error_prob"]:
        return None, ["budget.csv has no category,error_prob header"]
    cats: dict[str, float] = {}
    total = None
    for row in rows[1:]:
        if len(row) != 2:
            problems.append(f"budget row {row!r} has {len(row)} fields")
            continue
        try:
            value = float(row[1])
        except ValueError:
            problems.append(f"budget row {row!r} is not a number")
            continue
        if not 0.0 <= value <= 1.0:
            problems.append(f"budget {row[0]} = {value!r} outside [0, 1]")
        if row[0] == "total":
            total = value
        else:
            cats[row[0]] = value
    if total is None:
        problems.append("budget.csv has no total row")
    elif not math.isclose(math.fsum(cats.values()), total, rel_tol=1e-9,
                          abs_tol=1e-300):
        problems.append(f"budget categories sum to "
                        f"{math.fsum(cats.values())!r}, total is {total!r}")
    return total, problems


def check_run_dir(out: Path) -> tuple[dict, list[str]]:
    """Artifacts of one successful ``hetqc run --out``, cross-checked."""
    problems: list[str] = []
    try:
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        facts, sched_problems = check_schedule(out / "schedule.txt")
        total, budget_problems = check_budget(out / "budget.csv")
    except (OSError, ValueError) as exc:
        return {}, [f"unreadable artifact: {exc}"]
    problems += sched_problems + budget_problems
    if summary.get("n_events_count") != facts["events"]:
        problems.append(f"summary counts {summary.get('n_events_count')} "
                        f"events, schedule.txt holds {facts['events']}")
    if summary.get("makespan_s") != facts["makespan_s"]:
        problems.append(f"summary makespan {summary.get('makespan_s')!r} "
                        f"!= schedule.txt {facts['makespan_s']!r}")
    if total is not None and summary.get("total_error_prob") != total:
        problems.append(f"summary error {summary.get('total_error_prob')!r} "
                        f"!= budget.csv total {total!r}")
    if summary.get("counters_count") != facts["counters"]:
        problems.append("summary counters differ from schedule.txt header")
    facts["total_error"] = total
    facts["gates"] = summary.get("n_gates_count")
    return facts, problems


def check_sweep_dir(out: Path, archs: list[str]) -> tuple[list[dict],
                                                          list[str]]:
    """``hetqc sweep --out``: one ``ok`` row per architecture, in order."""
    problems: list[str] = []
    try:
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out / "summary.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [], [f"unreadable artifact: {exc}"]
    if [r.get("arch") for r in rows] != archs:
        problems.append(f"sweep rows {[r.get('arch') for r in rows]} "
                        f"!= requested {archs}")
    if len(summary.get("rows", [])) != len(rows):
        problems.append("summary.json and comparison.csv differ in rows")
    for r in rows:
        if r.get("status") != "ok":
            problems.append(f"sweep row {r.get('arch')}: status "
                            f"{r.get('status')!r}")
            continue
        try:
            makespan = float(r["makespan_s"])
            err = float(r["total_error"])
        except (KeyError, ValueError):
            problems.append(f"sweep row {r.get('arch')}: unparseable numbers")
            continue
        if not (math.isfinite(makespan) and makespan > 0):
            problems.append(f"sweep row {r['arch']}: makespan {makespan!r}")
        if not 0.0 <= err <= 1.0:
            problems.append(f"sweep row {r['arch']}: error {err!r}")
    return rows, problems


def check_refusal(code: int, stderr: str, out: Path) -> list[str]:
    """A compile that cannot fit: exit 4, the message, and no schedule."""
    problems = []
    if code != 4:
        problems.append(f"exit code {code}, expected 4")
    if "compilation failed" not in stderr:
        problems.append("no 'compilation failed' message on stderr")
    if (out / "schedule.txt").exists():
        problems.append("schedule.txt written for a refused compile")
    return problems
