"""The profiling tool's counts, against the schedule they describe."""

import importlib.util
from pathlib import Path

import pytest

from hetqc.arch import builtin_architecture
from hetqc.compiler import schedule
from hetqc.generators import generate_aqft

_HEAP_PROFILE = Path(__file__).resolve().parent.parent / "tools" \
    / "heap_profile.py"


def _heap_profile():
    spec = importlib.util.spec_from_file_location("heap_profile",
                                                  _HEAP_PROFILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeats_line_counts_the_schedule_text():
    prog = schedule(generate_aqft(60, k_th=5), builtin_architecture("A1"))
    starts = [line.split(" ", 1)[0] for line in prog.lines()][4:]
    same = sum(a == b for a, b in zip(starts, starts[1:]))
    decisions = list(prog.audit)
    pairs = {(d.core, d.gap_cycles) for d in decisions}
    assert 0 < same < len(starts) and 0 < len(pairs) < len(decisions)
    assert _heap_profile().repeats(prog) == (
        f"repeats A1: {same} of {len(starts)} schedule lines "
        f"({same / len(starts):.1%}) start as the line before; "
        f"{len(decisions)} router decisions on {len(pairs)} distinct "
        "(core, gap) pairs")


@pytest.mark.parametrize("archs, simulated", [
    (["A1"], ["simulate"]),
    (["baseline1000"], ["simulate"]),
    (["baseline1000", "A1"], ["simulate baseline1000", "simulate A1"]),
])
def test_heap_profile_marks_the_simulate_stage_of_each_model(archs,
                                                             simulated):
    # both models are patched by name: a renamed one would drop its row
    log = _heap_profile().profile("aqft:n=20,k_th=5", archs, traced=False)
    stages = [row[0] for row in log.rows]
    assert [s for s in stages if s.startswith("simulate")] == simulated
    assert log.events > 0
