"""Spans around the calls into each hetqc layer, recorded from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` in
the namespace where its caller looks it up (``hetqc.cli.schedule``,
``hetqc.compiler.transfer_transversal``, ``ScheduledProgram.to_text``, ...)
with a wrapper that records one span per call: layer name, start, end and
the enclosing span.  All spans of one op share the op id.  Spans are kept in
flat arrays while the benchmark runs and written out once at the end.

A layer's self time is its span's duration minus the durations of its
direct child spans; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: (layer, namespace, attribute); the namespace is a module path or
#: ``module:Class``.  The same layer may be looked up in several places.
TARGETS = (
    ("cli", "hetqc.cli", "main"),
    ("generators", "hetqc.cli", "generate_aqft"),
    ("generators", "hetqc.cli", "generate_cuccaro_adder"),
    ("generators", "hetqc.cli", "generate_fermi_hubbard_step"),
    ("generators", "hetqc.cli", "generate_rsa_subroutine"),
    ("circuits.from_text", "hetqc.circuits:LogicalCircuit", "from_text"),
    ("arch.load", "hetqc.cli", "load_architecture"),
    ("arch.validate", "hetqc.cli", "validate"),
    ("arch.validate", "hetqc.compiler", "validate"),
    ("compiler.lower", "hetqc.compiler", "lower_circuit"),
    ("compiler.consolidate", "hetqc.compiler", "consolidate_blocks"),
    ("compiler.schedule", "hetqc.cli", "schedule"),
    ("compiler.schedule", "hetqc.estimator", "schedule"),
    ("compiler.schedule_baseline", "hetqc.cli", "schedule_baseline"),
    ("compiler.schedule_baseline", "hetqc.estimator", "schedule_baseline"),
    ("compiler.error_budget", "hetqc.cli", "error_budget"),
    ("compiler.error_budget", "hetqc.estimator", "error_budget"),
    ("compiler.to_text", "hetqc.compiler:ScheduledProgram", "to_text"),
    ("qec.transfer", "hetqc.compiler", "transfer_transversal"),
    ("qec.transfer", "hetqc.compiler", "transfer_lattice_surgery"),
    ("qec.idle_error", "hetqc.compiler", "idle_error"),
    ("resources.patch_layout", "hetqc.compiler", "transfer_patch_layout"),
    ("estimator.compare", "hetqc.cli", "compare_architectures"),
)


def _namespace(path: str):
    """The module or class named by ``path``; None once hetqc drops it."""
    module, _, cls = path.partition(":")
    obj = sys.modules.get(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        #: (op, counter) -> value, counted at the layer boundaries
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        #: (scan, op, result) for counts that need a scan of a result, done
        #: after the op's spans have closed
        self._deferred: list[tuple] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        after = _AFTER.get(layer)
        clock = time.perf_counter
        stack = self._stack
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self) -> None:
        for layer, path, attr in TARGETS:
            owner = _namespace(path)
            # a class's own dict keeps a classmethod unbound
            raw = vars(owner).get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if raw is None:
                if f"{path}.{attr}" not in self.missing:
                    self.missing.append(f"{path}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def defer(self, scan, result) -> None:
        self._deferred.append((scan, self.op, result))

    def finish_op(self) -> None:
        """Scan the results kept during the op, outside every span."""
        for scan, op, result in self._deferred:
            scan(self.counts, op, result)
        self._deferred.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """(op, layer) -> summed self time in seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict[tuple[int, str], float] = defaultdict(float)
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            out[(self.span_op[i], self.names[self.span_name[i]])] += \
                dur - child[i]
        return out

    def calls(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for i in range(len(self.span_start)):
            out[(self.span_op[i], self.names[self.span_name[i]])] += 1
        return out

    def write(self, path: Path) -> None:
        """One CSV row per span: op, span, parent, layer, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]},{i},{self.span_parent[i]},"
                         f"{names[self.span_name[i]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r}\n")


# Counts taken at a boundary.  Anything that scans a result is deferred to
# ``finish_op`` so that the scan is not charged to an enclosing span.

def _after_lower(tr: Tracer, gates) -> None:
    tr.counts[(tr.op, "compiler.lower.gates_out")] += len(gates)


def _after_consolidate(tr: Tracer, blocks) -> None:
    tr.counts[(tr.op, "compiler.consolidate.blocks")] += len(blocks)


def _after_schedule(tr: Tracer, prog) -> None:
    tr.counts[(tr.op, "compiler.schedule.events")] += len(prog.events)
    tr.counts[(tr.op, "compiler.schedule.transfers")] += \
        prog.counters.get("st_count", 0)
    tr.defer(_scan_router, prog.audit)


def _after_baseline(tr: Tracer, prog) -> None:
    tr.defer(_scan_swaps, prog.events)


def _after_to_text(tr: Tracer, text) -> None:
    # the schedule format is ASCII, so characters are bytes
    tr.counts[(tr.op, "compiler.to_text.bytes")] += len(text)


_AFTER = {
    "compiler.lower": _after_lower,
    "compiler.consolidate": _after_consolidate,
    "compiler.schedule": _after_schedule,
    "compiler.schedule_baseline": _after_baseline,
    "compiler.to_text": _after_to_text,
}


def _scan_router(counts, op, audit) -> None:
    counts[(op, "compiler.router.moved")] += sum(1 for d in audit if d.moved)
    counts[(op, "compiler.router.decisions")] += len(audit)


def _scan_swaps(counts, op, events) -> None:
    counts[(op, "compiler.schedule_baseline.swaps")] += sum(
        1 for ev in events if ev.kind == "swap_route")

