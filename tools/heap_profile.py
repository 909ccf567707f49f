#!/usr/bin/env python3
"""Print the traced Python heap and the wall time of each stage of one
hetqc compile, or of one sweep over several architectures.

Usage, from the root of a checkout:

    python3 tools/heap_profile.py --workload aqft:n=1000,k_th=9 --arch A1
    python3 tools/heap_profile.py --workload hubbard:lx=16,ly=16,steps=2 \
        --arch baseline1000,A1,A2,A3

The workload takes the same form as in ``hetqc run``, and ``--arch`` a
builtin name or config path, or a comma-separated list of them as in
``hetqc sweep --archs``.  Under ``tracemalloc``, the compile runs once,
then its error budget, its schedule order and its schedule text.  After
each stage one line gives the heap still in use (``current``) and the
highest heap reached during that stage (``peak``), both in MB.  The stages
are lower (with validation and the scheduler's cores and memories before
it), consolidate, assign/tables (the rest of the modular scheduler's plan:
block assignment and the per-gate tables), simulate, budget, order and
``lines()``; the grid model, used on an architecture without memories,
reports lower and simulate only.  Two summary lines follow: the peak of
``schedule()`` and the order's peak above the heap before it, per event.

Given more than one architecture, it profiles ``compare_architectures``,
the ``sweep`` command's table, in place of one compile.  Its stages come
in the order they run: lower and the plan's stages wherever a lowering or
a plan is first built, and per architecture one ``simulate`` row named
after it, then its budget and its resource count (``count``).  The
summary gives the sweep's peak.

The same stages then run five more times without ``tracemalloc``; the
last column gives each stage's wall time in ms, the best of those five
passes, and a line the best total of the compile stages (of the whole
sweep).  Last comes one ``repeats`` line per schedule, read off the
finished program, untimed: how many schedule lines start where the line
before does, and how many router decisions its audit holds on how many
distinct (core, gap) pairs.  The hetqc imported is the one under this
checkout's ``src``.  Stdlib only.

``tracemalloc`` counts the tuples on CPython's free lists, up to 2,000 of
each length, as heap in use.  So a stage that frees many small tuples
reads as if it kept up to that many: after a run whose router cache of
2,369 (memory, gap, legs) keys had been freed, a snapshot still counted
1,999 3-tuples (125 KiB) at the cache's key line.  Compare a stage's
``current`` over changes that make or free many small tuples with that
in mind.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hetqc import compiler, estimator  # noqa: E402
from hetqc.arch import load_architecture  # noqa: E402
from hetqc.cli import build_workload  # noqa: E402

MB = 1 << 20
TIMED_PASSES = 5


def repeats(prog: compiler.ScheduledProgram) -> str:
    """The ``repeats`` line of a finished schedule.

    Its starts are sorted as the schedule text lists them, so a line
    repeats the previous line's start when the sorted neighbours are equal.
    Every record of the audit is a router decision.
    """
    starts = sorted(prog.events.start)
    same = sum(map(operator.eq, starts[1:], starts))
    audit = prog.audit
    pairs = {(audit.keys[k][0], gap)
             for k, gap in zip(audit.key, audit.gap_cycles)}
    return (f"repeats {prog.arch_name}: {same} of {len(starts)} schedule "
            f"lines ({same / max(len(starts), 1):.1%}) start as the line "
            f"before; {len(audit)} router decisions on {len(pairs)} "
            "distinct (core, gap) pairs")


class StageLog:
    """Readings taken at the end of each stage, in call order: the traced
    heap, both 0 when ``tracemalloc`` is off, and the wall time since the
    previous reading; the events of the schedules simulated, and, without
    ``tracemalloc``, their ``repeats`` lines."""

    def __init__(self):
        self.rows: list[tuple[str, int, int, float]] = []
        self.clock = time.perf_counter()
        self.events = 0
        self.repeats: list[str] = []

    def mark(self, stage: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        now = time.perf_counter()
        self.rows.append((stage, current, peak, now - self.clock))
        tracemalloc.reset_peak()
        self.clock = time.perf_counter()

    def after(self, stage, fn):
        """``fn`` wrapped to mark ``stage`` when it returns; a callable
        ``stage`` gives the name from ``fn``'s arguments."""
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            program = isinstance(result, compiler.ScheduledProgram)
            if program:
                self.events += len(result.events)
            self.mark(stage(*args) if callable(stage) else stage)
            if program and not tracemalloc.is_tracing():
                # off the clock, and never in a traced heap reading
                self.repeats.append(repeats(result))
                self.clock = time.perf_counter()
            return result
        return marked


def profile(workload: str, arch_names: list[str],
            traced: bool = True) -> StageLog:
    """The stage log of one compile, or of a sweep when there are several
    architectures, under ``tracemalloc`` if ``traced``."""
    circuit = build_workload(workload)
    archs = [load_architecture(name) for name in arch_names]
    sweep = len(archs) > 1
    log = StageLog()
    patches = [(compiler, "lower_circuit", "lower"),
               (compiler, "consolidate_blocks", "consolidate"),
               (compiler, "_build_plan", "assign/tables")]
    # both models take (front, job), so one stage name serves either
    simulate = (lambda front, job: f"simulate {job.arch.name}") if sweep \
        else "simulate"
    patches += [(compiler, "_schedule_grid", simulate),
                (compiler, "_schedule_modular", simulate)]
    if sweep:
        patches += [(estimator, "error_budget", "budget"),
                    (estimator, "count_architecture", "count")]
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    for owner, name, stage in patches:
        setattr(owner, name, log.after(stage, getattr(owner, name)))
    if traced:
        tracemalloc.start()
    log.clock = time.perf_counter()
    try:
        if sweep:
            estimator.compare_architectures(circuit, archs)
            log.mark("table")
        else:
            prog = compiler.schedule(circuit, archs[0])
            compiler.error_budget(prog)
            log.mark("budget")
            prog.events.order()
            log.mark("order")
            n_bytes = sum(map(len, prog.lines()))
            log.mark(f"lines() {n_bytes} B")
    finally:
        tracemalloc.stop()
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return log


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", required=True,
                   help="an architecture, or a comma-separated list")
    args = p.parse_args(argv)
    arch_names = [a.strip() for a in args.arch.split(",") if a.strip()]
    if not arch_names:
        p.error("--arch names no architecture")
    sweep = len(arch_names) > 1
    log = profile(args.workload, arch_names)
    logs = [profile(args.workload, arch_names, traced=False)
            for _ in range(TIMED_PASSES)]
    timed = [untraced.rows for untraced in logs]
    wall = [min(rows[i][3] for rows in timed) for i in range(len(log.rows))]
    print(f"{args.workload} on {args.arch}: {log.events} events")
    print(f"{'stage':<24} {'current MB':>10} {'peak MB':>10} {'wall ms':>8}")
    for (stage, current, peak, _), secs in zip(log.rows, wall):
        print(f"{stage:<24} {current / MB:>10.2f} {peak / MB:>10.2f} "
              f"{secs * 1e3:>8.1f}")
    stages = [row[0] for row in log.rows]
    n_compile = len(stages) if sweep else stages.index("budget")
    what = "compare_architectures()" if sweep else "schedule()"
    compile_rows = log.rows[:n_compile]
    print(f"{what} peak {max(r[2] for r in compile_rows) / MB:.2f} MB")
    best = min(sum(r[3] for r in rows[:n_compile]) for rows in timed)
    print(f"{what} wall {best * 1e3:.1f} ms, best of {TIMED_PASSES}")
    if not sweep:
        before = log.rows[stages.index("order") - 1][1]
        order_peak = log.rows[stages.index("order")][2]
        print(f"order peak {(order_peak - before) / max(log.events, 1):.1f} "
              "B/event above the heap before it")
    print("\n".join(logs[0].repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
