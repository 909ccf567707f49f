"""What the compiles of one sweep share, and what they must not.

``compare_architectures`` validates its circuit once, lowers it once per
(factory state, eps_magic) and builds the modular model's plan once per
compute side.  A seeded property test draws architecture lists with
repeats and with edits to every field a plan reads: each row must be the
row of a compile of its own.  The other tests count the shared work, check
that no model writes what it shares, and check that a sweep refuses the
same way a single compile does, and that it drops each row's schedule
before it runs the next.  Three more pin what a compile must do the same
way wherever it does it: the grid model keys a gate's event by the rule
of a plan, each transfer looks its hop up once, and each transfer to a
stretched memory waits for a compute cycle at the core's idle rate, in
causal order, with no pad made of the float residue of a cycle boundary.
"""

import dataclasses
import hashlib
import random
import weakref
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
from hetqc.qec import idle_error

from oracles import check_causality, random_circuit

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
    assert _gate_events(front.schedule(0)) == Counter(want)


@pytest.mark.parametrize("name", ["baseline1000", "Mono"])
def test_grid_gate_keys_follow_the_plan_rule(name):
    # the grid model keys each gate by the rule that _build_plan applies
    circuit = build_workload("hubbard:lx=4,ly=4")
    front = compiler._FrontEnd(circuit, [builtin_architecture(name)])
    job = front.jobs[0]
    want = Counter((compiler._INJECT_KINDS.get(g.cost_key, "gate"),
                    job.qpu.id, "qpu0:core0", g.qubits, g.label, g.category)
                   for g in front.lowering(job).gates)
    assert _gate_events(front.schedule(0)) == want


def _gate_events(prog) -> Counter:
    """How many events of each key a schedule gives its gates."""
    store = prog.events
    return Counter(store.keys[k] for k in store.key
                   if store.keys[k][0] in GATE_KINDS)


def test_stretched_memory_pads_each_transfer_to_a_compute_cycle():
    circuit, spec = build_workload("hubbard:lx=4,ly=4"), _b2_stretched()
    front = compiler._FrontEnd(circuit, [spec])
    t_qpu = front.jobs[0].qpu.t_cycle_s
    idle = {c.module.id: (c.eps_cycle, c.t_cycle) for c in front.jobs[0].cores}
    prog = front.schedule(0)
    events = list(prog.events)
    hops = [ev for ev in events if ev.module == "raqm0"
            and ev.kind in ("transfer_write", "transfer_read")]
    assert hops
    for ev in hops:
        cycles = ev.t_start_s / t_qpu
        assert cycles == pytest.approx(round(cycles), abs=1e-6)
    pads = [ev for ev in events if ev.kind == "qec_cycle_stretch"]
    assert len(pads) == 33
    assert len({(ev.module, ev.lane, ev.qubits) for ev in pads}) == 15
    hop_starts = {(ev.lane, ev.t_start_s) for ev in hops}
    for pad in pads:
        assert (pad.label, pad.category) == ("clock_pad", "qpu_idle")
        assert (pad.lane, pad.t_end_s) in hop_starts
        eps_cycle, t_cycle = idle[pad.module]
        assert pad.error == idle_error(eps_cycle, pad.duration_s / t_cycle)
    assert hashlib.sha256(prog.to_text().encode()).hexdigest() == (
        "d95c15e45b6117130fbd7c189a665a89f9a44e75703d1e4ccfcb14a2be014581")
    assert check_causality(prog) == []


@pytest.mark.parametrize("workload", ["hubbard:lx=4,ly=4",
                                      "hubbard:lx=8,ly=8,steps=2",
                                      "cuccaro:bits=128"])
def test_stretched_memory_pads_no_float_residue(workload):
    # a transfer that ends a sum of whole cycles sits on a cycle boundary
    # up to float residue, and waits for none: each pad is a real wait
    circuit, spec = build_workload(workload), _b2_stretched()
    front = compiler._FrontEnd(circuit, [spec])
    t_qpu = front.jobs[0].qpu.t_cycle_s
    prog = front.schedule(0)
    pads = [ev.duration_s for ev in prog.events
            if ev.kind == "qec_cycle_stretch"]
    assert pads and min(pads) > 1e-9 * t_qpu and min(pads) > 1e-12
    assert check_causality(prog) == []


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


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_each_transfer_looks_its_hop_up_once(monkeypatch, name):
    hops = _counted(monkeypatch, "_hop")
    prog = schedule(build_workload("hubbard:lx=4,ly=4"),
                    builtin_architecture(name))
    assert prog.counters["st_count"] > 0
    assert len(hops) == prog.counters["st_count"]


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
    circuit.add("CNOT", 0, 1)
    # room for every qubit, but three cores share A1's three slots
    narrow = builtin_architecture("A1")
    for override in ("qpu.cores=3", "stqm.n=1200"):
        apply_override(narrow, override)
    rows = compare_architectures(circuit, ["A1", "baseline1000", "A2", "A1",
                                           narrow])
    no_home = ("failed: 1100 qubits stay live to the end but the "
               "architecture holds 3 compute slots and 1000 reachable "
               "memory cells; compute capacity exhausted")
    assert [r["status"] for r in rows] == [
        no_home, "failed: 1100 qubits exceed the device's 1000", no_home,
        no_home, "failed: gate CNOT needs 2 slots, core qpu0:core0 holds 1"]


def test_sweep_frees_each_row_schedule_before_the_next(monkeypatch):
    # a row keeps numbers only, so no earlier row's schedule may be alive
    # while the next row is scheduled
    programs = []
    schedule_row = compiler._FrontEnd.schedule

    def tracked(front, i):
        assert [ref for ref in programs if ref() is not None] == []
        prog = schedule_row(front, i)
        programs.append(weakref.ref(prog))
        return prog

    monkeypatch.setattr(compiler._FrontEnd, "schedule", tracked)
    rows = compare_architectures(build_workload("hubbard:lx=4,ly=4"),
                                 ["baseline1000", "A1", "A2", "A3"])
    assert [row["status"] for row in rows] == ["ok"] * 4
    assert len(programs) == 4


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
