"""What the compiles of one sweep share, and what they must not.

``compare_architectures`` validates its circuit once, lowers it once per
(factory state, eps_magic) and builds the modular model's plan once per
compute side.  A seeded property test draws architecture lists with
repeats and with edits to every field a plan reads: each row must be the
row of a compile of its own.  The other tests count the shared work, check
that no model writes what it shares, and check that a sweep refuses the
same way a single compile does.
"""

import dataclasses
import random
from array import array
from collections import Counter

import pytest

from hetqc import compiler
from hetqc.arch import (BUILTIN_NAMES, apply_override,
                        builtin_architecture, validate)
from hetqc.circuits import GateOp, LogicalCircuit
from hetqc.cli import build_workload
from hetqc.compiler import InvalidCircuit, schedule
from hetqc.estimator import compare_architectures
from hetqc.generators import generate_cuccaro_adder

from oracles import random_circuit

#: event kinds of a lowered gate
GATE_KINDS = ("gate", "t_inject", "ccz_inject")

#: columns that a row reads off the sweep's first clean row
RATIO_FIELDS = ("error_ratio", "log_error_ratio", "makespan_ratio")

#: override -> values drawn for it; together they reach every field of a
#: core that a plan reads (capacity, lane, t_cycle_s, costs) and both
#: fields of the lowering key
EDITS = {
    "qpu0.logical_qubits": (2, 3, 4, 6, 12),
    "qpu0.cores": (1, 2, 3),
    "qpu0.code_distance": (13, 15, 19),
    "qpu0.p_phys": (3e-4, 5e-4, 1e-3),
    "qpu0.t_cycle_s": (5e-7, 1e-6, 4e-6),
    "qsf0.eps_magic": (1e-12, 2.1e-9, 1e-5),
    "qsf0.injection_cycles": (1, 30, 38),
    "qsf0.state": ("T", "CCZ"),
}
N_SEEDS = 120


def _drawn_circuit(rng: random.Random) -> LogicalCircuit:
    """A random circuit with some ops tagged for the ASQPU cores, or a
    Cuccaro adder, whose ops carry the ``adder`` tag."""
    if rng.random() < 0.3:
        return generate_cuccaro_adder(rng.randint(1, 4))
    circuit = random_circuit(rng, rng.randint(1, 10), rng.randint(0, 50))
    circuit.ops = [dataclasses.replace(op, tag=rng.choice(
        (None, None, "adder", "lookup"))) for op in circuit.ops]
    return circuit


def _drawn_archs(rng: random.Random) -> list:
    """3-6 builtins from two names, so that some repeat, each with up to
    two edits; repeats share a lowering and a plan unless an edit splits
    them."""
    names = rng.sample(BUILTIN_NAMES, 2)
    specs = []
    for _ in range(rng.randint(3, 6)):
        spec = builtin_architecture(rng.choice(names))
        for key in rng.sample(sorted(EDITS), rng.choice((0, 0, 1, 2))):
            apply_override(spec, f"{key}={rng.choice(EDITS[key])}")
        specs.append(spec)
    return specs


def _without_ratios(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in RATIO_FIELDS}


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_sweep_rows_match_single_compiles(seed):
    rng = random.Random(7300 + seed)
    circuit = _drawn_circuit(rng)
    specs = _drawn_archs(rng)
    rows = compare_architectures(circuit, specs)
    singles = [compare_architectures(circuit, [spec])[0] for spec in specs]
    assert [_without_ratios(r) for r in rows] == \
        [_without_ratios(r) for r in singles]


def _b2_stretched():
    """B2 with a 4-cell cache and a stretched RAQM: capacity write-outs,
    swap legs and clock pads on the compute side of stock B2."""
    spec = builtin_architecture("B2")
    for override in ("cache0.logical_qubits=4", "raqm0.t_cycle_s=1.5e-6",
                     "raqm0.t_cycle_min_s=1.5e-6",
                     "raqm0.t_cycle_max_s=1.5e-6"):
        apply_override(spec, override)
    return spec


def _emitted(prog) -> tuple:
    """A schedule's events in emission order, each with its key, and its
    router decisions."""
    store = prog.events
    return ([store.keys[k] for k in store.key], store.start.tobytes(),
            store.dur.tobytes(), store.err.tobytes(), list(prog.audit))


@pytest.mark.parametrize("workload, specs", [
    ("hubbard:lx=4,ly=4", lambda: [builtin_architecture(name)
                                   for name in ("A1", "A2", "A3")]),
    ("rsa:kind=adder33", lambda: [builtin_architecture(name)
                                  for name in ("B5", "B6")]),
    ("hubbard:lx=4,ly=4", lambda: [builtin_architecture("B2"),
                                   _b2_stretched()]),
])
def test_sweep_compiles_match_lone_compiles_event_for_event(
        monkeypatch, workload, specs):
    # the compiles share one plan, its gate keys included, and each must
    # append the events and decisions that a compile of its own appends
    circuit, specs = build_workload(workload), specs()
    plans = _counted(monkeypatch, "_build_plan")
    front = compiler._FrontEnd(circuit, specs)
    progs = [front.schedule(i) for i in range(len(specs))]
    assert len(plans) == 1
    for prog, spec in zip(progs, specs):
        assert _emitted(prog) == _emitted(schedule(circuit, spec))


@pytest.mark.parametrize("name", ["A1", "B1", "B2", "B3", "B4", "B5", "B6"])
def test_plan_gate_keys_are_the_gates_event_keys(name):
    # single-core, multi-core and ASQPU plans: each gate's key id names the
    # key of the event it gets on the core that runs it
    circuit = build_workload("hubbard:lx=4,ly=4")
    front = compiler._FrontEnd(circuit, [builtin_architecture(name)])
    job = front.jobs[0]
    lowered = front.lowering(job).gates
    plan = front.plan(job, lowered)
    assert len(plan.gate_key) == len(lowered)
    want = []
    for gi, g in enumerate(lowered):
        core = job.cores[plan.core_of_gate[gi]]
        key = (compiler._INJECT_KINDS.get(g.cost_key, "gate"),
               core.module.id, core.lane, g.qubits, g.label, g.category)
        assert plan.gate_keys[plan.gate_key[gi]] == key
        want.append(key)
    # distinct keys, in the order the streams first use them
    stream_order = [want[gi] for stream in plan.streams for gi in stream]
    assert plan.gate_keys == list(dict.fromkeys(stream_order))
    # and the schedule on the plan gives each gate one event, by that key
    store = front.schedule(0).events
    gate_events = Counter(store.keys[k] for k in store.key
                          if store.keys[k][0] in GATE_KINDS)
    assert gate_events == Counter(want)


def _counted(monkeypatch, name: str) -> list:
    calls = []
    fn = getattr(compiler, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(compiler, name, counted)
    return calls


def test_sweep_lowers_and_consolidates_once(monkeypatch):
    circuit = build_workload("hubbard:lx=4,ly=4")
    lowered = _counted(monkeypatch, "lower_circuit")
    consolidated = _counted(monkeypatch, "consolidate_blocks")
    rows = compare_architectures(circuit, ["baseline1000", "A1", "A2", "A3"])
    assert [r["status"] for r in rows] == ["ok"] * 4
    # the grid model and the three modular ones, which share one compute
    # side, read one lowering; the three share one plan
    assert len(lowered) == 1
    assert len(consolidated) == 1


def test_front_end_keeps_only_what_a_later_compile_reads():
    circuit = build_workload("hubbard:lx=4,ly=4")
    # A1, A2 and baseline1000 share a T-factory lowering, Mono and B2 a
    # CCZ-factory one; A1 and A2 share a plan
    front = compiler._FrontEnd(circuit, [builtin_architecture(name) for name
                                         in ("A1", "Mono", "A2",
                                             "baseline1000", "B2")])
    read: set = set()
    for i, job in enumerate(front.jobs):
        front.schedule(i)
        read.update(job.keys)
        later = {key for j in front.jobs[i + 1:] for key in j.keys}
        assert set(front._kept) == read & later
    assert not front._kept


def _snapshot(value):
    """A deep copy of a lowering's or a plan's contents."""
    if isinstance(value, array):
        return value.typecode, value.tobytes()
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_snapshot(v) for v in value]
    return value


def test_models_write_nothing_they_share(monkeypatch):
    built = []
    for name in ("_lowering", "_build_plan"):
        fn = getattr(compiler, name)

        def kept(*args, fn=fn):
            shared = fn(*args)
            built.append((shared, _snapshot(shared)))
            return shared

        monkeypatch.setattr(compiler, name, kept)
    circuit = build_workload("hubbard:lx=4,ly=4")
    rows = compare_architectures(circuit, ["baseline1000", "A1", "A2", "A3",
                                           "B2", "B5", "B6"])
    assert [r["status"] for r in rows] == ["ok"] * 7
    plans = [shared for shared, _ in built
             if isinstance(shared, compiler._Plan)]
    assert len(plans) == 3  # one for A1-A3, one for B2, one for B5 and B6
    for shared, before in built:
        assert _snapshot(shared) == before
    for plan in plans:
        assert all(isinstance(t, array) for t in plan.streams)
        assert all(isinstance(t, array) for t in (
            plan.core_of_gate, plan.cycle_at, plan.gate_key, plan.first_slot,
            plan.prev_gate, plan.next_gate, *plan.touches.values()))


def test_too_wide_circuit_in_sweep_is_never_lowered(monkeypatch):
    def never(*args):
        raise AssertionError("lowered a circuit that cannot fit")

    monkeypatch.setattr(compiler, "lower_circuit", never)
    monkeypatch.setattr(compiler, "consolidate_blocks", never)
    circuit = LogicalCircuit("wide", 1100)
    for q in range(1100):
        circuit.add("H", q)
    rows = compare_architectures(circuit, ["A1", "baseline1000", "A2", "A1"])
    no_home = ("failed: 1100 qubits stay live to the end but the "
               "architecture holds 3 compute slots and 1000 reachable "
               "memory cells; compute capacity exhausted")
    assert [r["status"] for r in rows] == [
        no_home, "failed: 1100 qubits exceed the device's 1000", no_home,
        no_home]


def test_invalid_circuit_fails_every_row_as_alone():
    bad = LogicalCircuit("bad", 2, [GateOp("CNOT", (0, 5))])
    unlinked = builtin_architecture("A1")
    unlinked.links = []
    specs = [builtin_architecture("A1"), builtin_architecture("Mono"),
             unlinked, builtin_architecture("A1")]
    rows = compare_architectures(bad, specs)
    problems = "; ".join(bad.validate())
    for row, spec in zip(rows, specs):
        with pytest.raises(InvalidCircuit) as alone:
            schedule(bad, spec)
        assert row["status"] == f"failed: {alone.value}"
        assert row["status"] == "failed: " + "; ".join(
            [problems] + validate(spec))
    assert rows[2]["status"].startswith(f"failed: {problems}; module ")
