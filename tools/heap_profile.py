#!/usr/bin/env python3
"""Print the traced Python heap after each stage of one hetqc compile.

Usage, from the root of a checkout:

    python3 tools/heap_profile.py --workload aqft:n=1000,k_th=9 --arch A1

The workload and the architecture take the same forms as in ``hetqc run``.
Under ``tracemalloc``, the compile runs once, then its error budget, its
schedule order and its schedule text.  After each stage one line gives the
heap still in use (``current``) and the highest heap reached during that
stage (``peak``), both in MB.  The stages are lower, consolidate,
assign/tables (the rest of the modular scheduler's set-up), simulate,
budget, order and ``lines()``; the grid model, used on an architecture
without memories, reports lower and simulate only.  Two summary lines
follow: the peak of ``schedule()`` and the order's peak above the heap
before it, per event.  The hetqc imported is the one under this checkout's
``src``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hetqc import compiler  # noqa: E402
from hetqc.arch import load_architecture  # noqa: E402
from hetqc.cli import build_workload  # noqa: E402

MB = 1 << 20


class StageLog:
    """Heap readings taken at the end of each stage, in call order."""

    def __init__(self):
        self.rows: list[tuple[str, int, int]] = []

    def mark(self, stage: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.rows.append((stage, current, peak))
        tracemalloc.reset_peak()

    def after(self, stage: str, fn):
        """``fn`` wrapped to mark ``stage`` when it returns."""
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mark(stage)
            return result
        return marked


def profile(workload: str, arch_name: str) -> tuple[StageLog, int]:
    """The stage log of one compile and its event count."""
    circuit = build_workload(workload)
    arch = load_architecture(arch_name)
    log = StageLog()
    patches = [(compiler, "lower_circuit", "lower"),
               (compiler, "consolidate_blocks", "consolidate"),
               (compiler._Scheduler, "__init__", "assign/tables"),
               (compiler._Scheduler, "run", "simulate"),
               (compiler, "schedule_baseline", "simulate")]
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    for owner, name, stage in patches:
        setattr(owner, name, log.after(stage, getattr(owner, name)))
    tracemalloc.start()
    try:
        prog = compiler.schedule(circuit, arch)
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
    return log, len(prog.events)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", required=True)
    args = p.parse_args(argv)
    log, n_events = profile(args.workload, args.arch)
    print(f"{args.workload} on {args.arch}: {n_events} events")
    print(f"{'stage':<24} {'current MB':>10} {'peak MB':>10}")
    for stage, current, peak in log.rows:
        print(f"{stage:<24} {current / MB:>10.2f} {peak / MB:>10.2f}")
    stages = [row[0] for row in log.rows]
    compile_rows = log.rows[:stages.index("budget")]
    print(f"schedule() peak {max(r[2] for r in compile_rows) / MB:.2f} MB")
    before = log.rows[stages.index("order") - 1][1]
    order_peak = log.rows[stages.index("order")][2]
    print(f"order peak {(order_peak - before) / max(n_events, 1):.1f} "
          "B/event above the heap before it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
