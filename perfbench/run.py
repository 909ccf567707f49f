#!/usr/bin/env python3
"""Benchmark of hetqc's compile pipeline through its real entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload aqft1000-A1 --seed 1 --seconds 30 \
        --trace 0

Each op is one ``hetqc.cli.main`` call in this process, exactly as
``hetqc run`` / ``hetqc sweep`` would make it, with artifacts written to a
scratch directory under ``.perfbench_work/``.  The load is a closed loop:
one client, one thread, the next op issued only after the previous one
returned.  Ops repeat in whole passes over the workload's op list until
``--seconds`` have gone by.  Every op's artifacts are checked by
``checker.py``, which imports nothing from hetqc, and ops on identical input
must produce byte-identical artifacts.

Between ops, every ``REF_EVERY_S`` seconds of op time, the runner times
the fixed job of ``hostref.py``, repeated to cover ``REF_SHARE`` of that op
time; each op is also reported divided by the mean of the reference times
measured just before and just after it, which takes out most of the shared
host's speed phases.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice back to back, once untraced and once with ``spans.Tracer`` wrapped
around each layer's public functions, writes the span file and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# perfbench/ is on sys.path as the script's directory
import checker
import hostref
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: fresh interpreters started per run to time set-up, spread evenly over the
#: run between ops so that they meet the same host phases as the ops; the
#: median is reported
SETUP_PROBES = 15
#: whole passes a run makes at least, by traced-ness: (single-op workloads,
#: corpus); every input runs at least twice, so determinism is checked
MIN_PASSES = {False: (3, 2), True: (2, 1)}
#: seconds of op time between two reference measurements
REF_EVERY_S = 0.2
#: a reference measurement repeats the job until it takes about this share of
#: the op time since the last one, so that an op of seconds is not divided by
#: two snapshots of a tenth of a second
REF_SHARE = 0.1


def _import_hetqc():
    """Import ``hetqc.cli`` from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "hetqc" / "cli.py").is_file():
        raise SystemExit(f"error: no hetqc sources under {src}")
    sys.path.insert(0, str(src))
    import hetqc.cli as cli
    if Path(cli.__file__).resolve().parent != src / "hetqc":
        raise SystemExit(f"error: imported hetqc from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dir_digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())}


class Runner:
    """Runs ops, checks their artifacts and keeps per-op records."""

    def __init__(self, cli, ops, scratch: Path, input_gates: dict):
        self.cli = cli
        self.ops = ops
        self.scratch = scratch
        #: op argv -> gates of its input circuit, for sweeps and refusals
        self.input_gates = input_gates
        self.records: list[dict] = []
        #: op argv -> outcome of the first op on that input
        self.first: dict[tuple, dict] = {}
        self.tracer = None
        #: reference time last measured, and the records measured since
        self.ref_s = None
        self.unreferenced: list[dict] = []

    def run(self, budget_s: float, traced: bool, probe=None,
            probes: int = 0) -> None:
        """Whole passes over the ops until ``budget_s`` has gone by.

        Traced, each op runs untraced and traced back to back, first one
        way round and in the next pass the other, so that both samples
        cover the same host phases.  ``probe()`` is called ``probes``
        times, between ops and evenly over the budget; its time is not
        counted against the budget.
        """
        min_passes = MIN_PASSES[traced][len(self.ops) > 1]
        hostref.measure()  # warm-up
        self.measure_ref()
        t0 = time.monotonic()
        passes = probed = 0
        while passes < min_passes or time.monotonic() - t0 < budget_s:
            modes = ((False, True) if passes % 2 == 0 else (True, False)) \
                if traced else (False,)
            for op in self.ops:
                for mode in modes:
                    self.run_op(op, mode)
                    if sum(r["seconds"] for r in self.unreferenced) \
                            >= REF_EVERY_S:
                        self.measure_ref()
                due = probes * min(1.0, (time.monotonic() - t0) / budget_s)
                if probed < due:
                    self.measure_ref()
                    paused = time.monotonic()
                    while probed < due:
                        probe()
                        probed += 1
                    t0 += time.monotonic() - paused
                    self.ref_s = hostref.measure()
            passes += 1
        self.measure_ref()
        for _ in range(probed, probes):
            probe()

    def measure_ref(self) -> None:
        """Time the reference job; the ops since the last one get the mean
        of the two as their ``ref_s``."""
        op_s = sum(r["seconds"] for r in self.unreferenced)
        ref_s = hostref.measure(
            max(1, round(REF_SHARE * op_s / self.ref_s)) if self.ref_s else 1)
        for rec in self.unreferenced:
            rec["ref_s"] = (self.ref_s + ref_s) / 2
        self.unreferenced = []
        self.ref_s = ref_s

    def run_op(self, op, traced: bool = False) -> None:
        index = len(self.records)
        out = self.scratch / f"op{index}"
        argv = list(op.argv) + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.op = index
            self.tracer.install()
        gc.collect()  # the previous op's garbage is not this op's time
        crash = None
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # an op that crashes is a failed op, not a stop
                code = None
                crash = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            self.tracer.finish_op()
        rec = {"op": op, "seconds": seconds, "traced": traced,
               "artifact_bytes": sum(p.stat().st_size for p in out.iterdir())
               if out.is_dir() else 0}
        if crash is not None:
            rec.update(ok=False, problems=[f"crashed: {crash}"], gates=0)
        else:
            self._judge(op, out, code, stderr.getvalue(), rec)
        shutil.rmtree(out, ignore_errors=True)
        self.records.append(rec)
        self.unreferenced.append(rec)

    def _judge(self, op, out: Path, code, stderr: str, rec: dict) -> None:
        if op.expect == "refuse":
            digests = {"exit+stderr": _digest(f"{code}\n{stderr}".encode())}
        else:
            digests = _dir_digests(out)
        first = self.first.get(op.argv)
        if first is not None:
            ok = first["ok"] and digests == first["digests"]
            problems = [] if digests == first["digests"] else [
                "artifacts differ from an earlier op on identical input"]
            rec.update(ok=ok, problems=problems, gates=first["gates"])
            return
        if op.expect == "refuse":
            problems = checker.check_refusal(code, stderr, out)
            facts = {"exit": code, "message": stderr.strip()}
            gates = self.input_gates[op.argv]
        elif code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
            facts, gates = {}, 0
        elif op.expect == "sweep":
            rows, problems = checker.check_sweep_dir(out,
                                                     op.arch.split(","))
            facts = {"rows": rows}
            gates = self.input_gates[op.argv] * sum(
                r.get("status") == "ok" for r in rows)
        else:
            facts, problems = checker.check_run_dir(out)
            gates = facts.get("gates") or 0
        self.first[op.argv] = {"op": op, "ok": not problems,
                               "digests": digests, "facts": facts,
                               "gates": gates}
        rec.update(ok=not problems, problems=problems, gates=gates)


# ------------------------------------------------------------------ metrics

def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or p75.

    Below 100 samples the ten-beyond percentile falls under p90 (under the
    median below 20).  The single-op workloads make 6-15 ops a run, where
    p90 is the largest or second-largest op and moves with one slow op, so
    below 100 samples the nearest-rank p75 is reported instead.
    """
    s = sorted(values)
    idx = len(s) - 11 if len(s) >= 100 else math.ceil(0.75 * len(s)) - 1
    return s[idx], (f"p{100.0 * (idx + 1) / len(s):.1f} (nearest rank) of "
                    f"{len(s)}")


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, list]:
    secs = [r["seconds"] for r in records]
    rels = [r["seconds"] / r["ref_s"] for r in records]
    tail_s, _ = tail(secs)
    tail_rel, tail_at = tail(rels)
    passed = [r for r in records if r["ok"]]
    gates = sum(r["gates"] for r in passed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ref.p50": (statistics.median(rels), "ref"),
        "op_ref.tail": (tail_rel, "ref"),
        "gates_per_ref": (gates / sum(rels), "gates/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_ratio": (len(passed) / len(records), "1"),
    }
    notes = [f"setup_s is the median of {len(setup)} fresh interpreters "
             f"(min {min(setup)!r} s, max {max(setup)!r} s)",
             f"op_ref.tail is the {tail_at} ops",
             f"ok_ratio = {len(passed)} passed / {len(records)} attempted",
             "wall time, not divided by the reference job: op_s.p50 "
             f"{statistics.median(secs)!r} s, op_s.tail {tail_s!r} s, "
             f"gates_per_s {gates / sum(secs)!r} gates/s; reference job "
             f"ref_s.p50 {statistics.median(r['ref_s'] for r in records)!r}"
             " s"]
    return metrics, notes


#: per-layer metric -> (source, layer or counter, unit).  Sources: ``self``
#: is summed span self time, ``calls`` the span count, ``count`` a counter
#: taken at the layer boundary; all are means per traced op.
LAYER_METRICS = (
    ("cli.self_s", "self", "cli", "s"),
    ("cli.artifact_bytes", "count", "cli.artifact_bytes", "bytes"),
    ("generators.self_s", "self", "generators", "s"),
    ("circuits.from_text.self_s", "self", "circuits.from_text", "s"),
    ("arch.load.calls", "calls", "arch.load", "count"),
    ("arch.load.self_s", "self", "arch.load", "s"),
    ("arch.validate.self_s", "self", "arch.validate", "s"),
    ("compiler.lower.self_s", "self", "compiler.lower", "s"),
    ("compiler.lower.gates_out", "count", "compiler.lower.gates_out",
     "count"),
    ("compiler.consolidate.self_s", "self", "compiler.consolidate", "s"),
    ("compiler.consolidate.blocks", "count", "compiler.consolidate.blocks",
     "count"),
    ("compiler.schedule.self_s", "self", "compiler.schedule", "s"),
    ("compiler.schedule.events", "count", "compiler.schedule.events",
     "count"),
    ("compiler.schedule.transfers", "count", "compiler.schedule.transfers",
     "count"),
    ("compiler.schedule_baseline.self_s", "self",
     "compiler.schedule_baseline", "s"),
    ("compiler.schedule_baseline.swaps", "count",
     "compiler.schedule_baseline.swaps", "count"),
    ("compiler.error_budget.self_s", "self", "compiler.error_budget", "s"),
    ("compiler.to_text.self_s", "self", "compiler.to_text", "s"),
    ("compiler.to_text.bytes", "count", "compiler.to_text.bytes", "bytes"),
    ("qec.transfer.calls", "calls", "qec.transfer", "count"),
    ("qec.transfer.self_s", "self", "qec.transfer", "s"),
    ("qec.idle_error.calls", "calls", "qec.idle_error", "count"),
    ("qec.idle_error.self_s", "self", "qec.idle_error", "s"),
    ("resources.patch_layout.calls", "calls", "resources.patch_layout",
     "count"),
    ("resources.patch_layout.self_s", "self", "resources.patch_layout", "s"),
    ("estimator.compare.self_s", "self", "estimator.compare", "s"),
)


def per_layer(tracer, records: list[dict]) -> tuple[dict, list]:
    traced = [i for i, r in enumerate(records) if r["traced"]]
    untraced_p50 = statistics.median(r["seconds"] for r in records
                                     if not r["traced"])
    for i in traced:
        tracer.counts[(i, "cli.artifact_bytes")] = records[i]["artifact_bytes"]
    tables = {"self": tracer.self_times(), "calls": tracer.calls(),
              "count": tracer.counts}
    n = len(traced)
    m = {name: (sum(tables[src].get((i, key), 0) for i in traced) / n, unit)
         for name, src, key, unit in LAYER_METRICS}
    moved, decisions = (
        sum(tracer.counts.get((i, f"compiler.router.{c}"), 0)
            for i in traced) for c in ("moved", "decisions"))
    m["compiler.router.move_ratio"] = (
        moved / decisions if decisions else 0.0, "1")
    traced_p50 = statistics.median(records[i]["seconds"] for i in traced)
    m["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    layer_sum = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    traced_mean = statistics.fmean(records[i]["seconds"] for i in traced)
    notes = [
        f"per-layer values are means per op over {n} traced ops, each "
        "run back to back with the same op untraced",
        f"compiler.router.move_ratio = {moved} moved / {decisions} "
        "router decisions",
        f"op_s.p50 untraced {untraced_p50!r} s, traced {traced_p50!r} s",
        f"layer self times sum to {layer_sum!r} s per op; traced op time "
        f"mean {traced_mean!r} s (unaccounted {traced_mean - layer_sum!r} "
        f"s), p50 {traced_p50!r} s",
    ]
    if tracer.missing:
        notes.append("not traced (no longer in hetqc): "
                     + ", ".join(tracer.missing))
    return m, notes


# ------------------------------------------------------------------ report

def fingerprint_lines(runner: Runner) -> list[str]:
    """Simulated results, which a speed change must leave unchanged."""
    lines = []
    for first in runner.first.values():
        op = first["op"]
        facts = first["facts"]
        if op.expect == "refuse":
            lines.append(f"fingerprint {op.label}: exit {facts['exit']} "
                         f"message {facts['message']!r}")
        elif op.expect == "sweep":
            lines.append(f"fingerprint {op.label}: sha256(comparison.csv)="
                         f"{first['digests'].get('comparison.csv')}")
            for r in facts.get("rows", []):
                lines.append(
                    f"fingerprint   {r.get('arch')}: makespan_s="
                    f"{r.get('makespan_s')} total_error={r.get('total_error')}"
                    f" cnot={r.get('cnot_count')} st={r.get('st_count')} "
                    f"t={r.get('t_count')} swap={r.get('swap_count')}")
        else:
            counters = ",".join(f"{k}={v}" for k, v in
                                sorted(facts.get("counters", {}).items()))
            lines.append(
                f"fingerprint {op.label}: sha256(schedule.txt)="
                f"{first['digests'].get('schedule.txt')} makespan_s="
                f"{facts.get('makespan_s')!r} total_error="
                f"{facts.get('total_error')!r} events={facts.get('events')} "
                f"{counters}")
    return lines


def failure_lines(records: list[dict]) -> list[str]:
    failed = [r for r in records if not r["ok"]]
    if not failed:
        return []
    by_arch = Counter(r["op"].arch for r in failed)
    lines = ["failed ops by arch: " + ", ".join(
        f"{a}={n}" for a, n in sorted(by_arch.items()))]
    shown = set()
    for r in failed:
        if r["op"].argv in shown:
            continue
        shown.add(r["op"].argv)
        lines.append(f"FAILED {r['op'].label}: " + "; ".join(
            r["problems"][:3]))
    return lines


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter to the first op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-only"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    cli = _import_hetqc()
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, scratch)
        if args.setup_only:
            print(repr(time.monotonic()))
            return 0
        return bench(args, cli, ops, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bench(args, cli, ops, scratch: Path) -> int:
    # the sweep and the refusal report no gate count of their own
    input_gates = {op.argv: len(cli.build_workload(op.argv[2]).ops)
                   for op in ops if op.expect != "run"}
    runner = Runner(cli, ops, scratch, input_gates)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} op(s) per "
          f"pass, closed loop, 1 client")
    if not args.trace:
        setup = []
        runner.run(args.seconds, traced=False,
                   probe=lambda: setup.append(setup_probe(args)),
                   probes=SETUP_PROBES)
        metrics, notes = end_to_end(runner.records, setup)
    else:
        from spans import Tracer
        runner.tracer = Tracer()
        try:
            runner.run(args.seconds, traced=True)
        finally:
            runner.tracer.uninstall()
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        runner.tracer.write(span_file)
        metrics, notes = per_layer(runner.tracer, runner.records)
        notes.append(f"spans: {len(runner.tracer.span_start)} in "
                     f"{span_file.relative_to(ROOT)}")

    records = runner.records
    for line in fingerprint_lines(runner) + failure_lines(records) + notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
