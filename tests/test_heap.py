"""Heap bounds of one compile and of its schedule order.

The ``tracemalloc`` bounds are set on the 200-qubit AQFT on A1, a compile
of 24,233 events.  A scheduler that kept its unitary blocks, a record per
router decision and list-backed gate tables peaked at 6.0 MB there, and a
sort holding a (start, fields) pair per event at 141 B/event.  Kept blocks
are also looked for directly.  A memory's swap distances are bounded by
its cells, not by its reach: the whole patch at ``k_swap = 300`` peaked at
2.9 MB for 10 cells.
"""

import gc
import tracemalloc

from hetqc import compiler
from hetqc.arch import builtin_architecture
from hetqc.compiler import UnitaryBlock, schedule
from hetqc.generators import generate_aqft

MB = 1 << 20


def _traced_peak(fn):
    """(result, peak bytes above the heap at the call) of ``fn()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_compile_and_order_heap_bounds():
    circuit = generate_aqft(200, k_th=9)
    arch = builtin_architecture("A1")
    prog, peak = _traced_peak(lambda: schedule(circuit, arch))
    assert peak < 4.5 * MB, f"schedule() peaked at {peak / MB:.2f} MB"
    store = prog.events
    _, peak = _traced_peak(store.order)
    per_event = peak / len(store)
    assert per_event <= 110, f"order() peaked at {per_event:.1f} B/event"


def _live_blocks() -> int:
    gc.collect()
    return sum(type(o) is UnitaryBlock for o in gc.get_objects())


def test_scheduler_keeps_no_blocks():
    before = _live_blocks()
    circuit, arch = generate_aqft(30, k_th=5), builtin_architecture("A1")
    front = compiler._FrontEnd(circuit, [arch])
    job = front.jobs[0]
    plan = front.plan(job, front.lowering(job).gates)
    assert plan.n_blocks > 0
    assert _live_blocks() == before


def test_swap_distances_heap_does_not_grow_with_reach():
    dists, peak = _traced_peak(lambda: compiler._swap_distances(10, 300))
    assert dists == [0] + [1] * 8 + [2]
    assert peak < 64 * 1024, f"_swap_distances peaked at {peak} B"
