"""Randomized invariant checks over both schedulers.

A seeded corpus of circuits (up to 64 logical qubits) is spread round-robin
over the three memory-backed builtins A1-A3, and a second one over the
other eight.  Every schedule must be reproducible, keep each lane
exclusive, start each gate and write after its qubits' previous gate or
read, run each memory cell's events in the order of its cycle, keep each
qubit in one place at a time, pair writes with reads, never read a qubit
into a core only to write it out again unused, and route only when the
move is cheaper than idling.  Where no memory has swap legs and the grid
model is not used, the only swaps are the ones the circuit asks for.

On the multi-core builtins B1-B6, a seeded random corpus, the golden
random circuit and an 8x8 Fermi-Hubbard, whose operands pass between
cores, read no qubit back unused.

On every builtin, a random circuit and a small AQFT use every key they
intern, and their transfer counter counts their transfer events; the
golden random circuit and an 8x8 Fermi-Hubbard leave no qubit on a core.
On B2 and B3 a 128-bit Cuccaro adder, which outgrows the cache, moves a
qubit by the router only at a cost that covers its cell's swap legs, and
keeps its events in causal order.

A property test then draws physical parameters on every builtin: every
config that ``validate`` accepts compiles to finite numbers or is refused
cleanly, and its resource count and factoring-run estimate are finite.
"""

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hetqc import compiler
from hetqc.arch import BUILTIN_NAMES, builtin_architecture, validate
from hetqc.cli import build_workload
from hetqc.compiler import CompileError, EVENT_KINDS, error_budget, schedule
from hetqc.estimator import rsa_estimate
from hetqc.resources import count_architecture

from oracles import (check_causality, check_lane_exclusive,
                     check_no_read_back, check_no_routing_swaps,
                     check_qubit_locations, check_router_audit,
                     check_router_prices_legs, check_transfer_pairing,
                     random_circuit)

#: the memory-backed builtins of acceptance criterion 9, and the others
HET_NAMES = ("A1", "A2", "A3")
OTHER_NAMES = tuple(a for a in BUILTIN_NAMES if a not in HET_NAMES)
N_CASES = 102
N_OTHER_CASES = 12 * len(OTHER_NAMES)
MULTI_CORE_NAMES = ("B1", "B2", "B3", "B4", "B5", "B6")


def _case(index, arch_names=HET_NAMES):
    rng = random.Random(20_000 + index)
    n_qubits = rng.randint(2, 64)
    n_gates = rng.randint(1, 160)
    return (random_circuit(rng, n_qubits, n_gates),
            arch_names[index % len(arch_names)])


@pytest.mark.parametrize("index", range(N_CASES))
def test_random_schedule_invariants(index):
    _check_invariants(*_case(index))


@pytest.mark.parametrize("index", range(N_OTHER_CASES))
def test_random_schedule_invariants_other_builtins(index):
    _check_invariants(*_case(N_CASES + index, OTHER_NAMES))


@pytest.mark.parametrize("arch_name", MULTI_CORE_NAMES)
def test_no_read_back_between_cores(arch_name):
    # a core reads ahead only an operand whose previous gate has run, so
    # no other core is left waiting for it
    rng = random.Random(41_000 + MULTI_CORE_NAMES.index(arch_name))
    circuits = [random_circuit(rng, rng.randint(2, 64), rng.randint(1, 160))
                for _ in range(8)]
    circuits += [random_circuit(random.Random(7001), 40, 120),
                 build_workload("hubbard:lx=8,ly=8,steps=2")]
    for circuit in circuits:
        prog = schedule(circuit, builtin_architecture(arch_name))
        assert check_no_read_back(prog) == []
        assert check_qubit_locations(prog) == []


@pytest.mark.parametrize("arch_name", BUILTIN_NAMES)
def test_keys_interned_on_use_and_transfers_counted(arch_name):
    # a gate's key comes from the plan, which holds only keys that some
    # gate uses, and any other key is interned right before its first
    # event, so every key has events; the transfer counter, kept apart
    # during the run, is added once at its end
    rng = random.Random(31_000 + BUILTIN_NAMES.index(arch_name))
    for circuit in (random_circuit(rng, rng.randint(2, 64),
                                   rng.randint(1, 160)),
                    build_workload("aqft:n=32,k_th=5")):
        prog = schedule(circuit, builtin_architecture(arch_name))
        store = prog.events
        assert len(set(store.key)) == len(store.keys)
        kinds = Counter(store.keys[key_id][0] for key_id in store.key)
        assert prog.counters["st_count"] == \
            kinds["transfer_write"] + kinds["transfer_read"]


@pytest.mark.parametrize("arch_name", BUILTIN_NAMES)
def test_no_core_holds_a_qubit_at_the_end(arch_name):
    # after its last gate an operand is measured out or written out
    # terminal, and one whose next gate is on another core is written out
    # cross_core; a read lands only for a gate of its own core, which takes
    # it.  So a run ends with no resident idle to charge, and ``residents``
    # also holds each read in flight.
    for circuit in (random_circuit(random.Random(7001), 40, 120),
                    build_workload("hubbard:lx=8,ly=8,steps=2")):
        front = compiler._FrontEnd(circuit,
                                   [builtin_architecture(arch_name)])
        job = front.jobs[0]
        if job.cores is None:  # the grid model has no cores
            assert arch_name in ("baseline1000", "Mono")
            continue
        compiler._schedule_modular(front, job)
        assert [(core.lane, core.residents) for core in job.cores
                if core.residents] == []


@pytest.mark.parametrize("arch_name", ("B2", "B3"))
def test_router_prices_the_legs_of_the_cell_it_writes(arch_name):
    # a 128-bit adder outgrows the 145-cell cache, so the router sends
    # qubits into RAQM cells with swap legs, and must price those legs
    # before the write claims the cell
    prog = schedule(build_workload("cuccaro:bits=128"),
                    builtin_architecture(arch_name))
    assert any(ev.label.startswith("legs_in") for ev in prog.events)
    assert check_router_prices_legs(prog) == []
    assert check_router_audit(prog) == []
    assert check_causality(prog) == []


def _check_invariants(circuit, arch_name):
    arch = builtin_architecture(arch_name)
    prog = schedule(circuit, arch)
    again = schedule(circuit, builtin_architecture(arch_name))
    assert prog.to_text() == again.to_text()

    assert check_lane_exclusive(prog) == []
    assert check_causality(prog) == []
    assert check_qubit_locations(prog) == []
    assert check_transfer_pairing(prog) == []
    assert check_no_read_back(prog) == []
    assert check_router_audit(prog) == []
    memories = arch.memory_modules()
    if memories and all(m.k_swap == 0 for m in memories):
        assert check_no_routing_swaps(prog) == []
        # the only swaps on the books are the ones the input program asked
        # for
        assert prog.counters["swap_count"] == sum(
            op.kind == "SWAP" for op in circuit.ops)

    for ev in prog.events:
        assert ev.kind in EVENT_KINDS
        assert ev.duration_s >= 0.0
        assert 0.0 <= ev.error <= 1.0
        assert ev.t_end_s <= prog.makespan_s + 1e-12
        assert all(0 <= q < circuit.n_qubits for q in ev.qubits
                   if ev.kind == "gate")


# ------------------------------------------- validated configs stay finite

#: per field, edge values (zero, subnormal, huge) mixed with plausible ones
_MODULE_FIELDS = {
    "p_phys": st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 5.99e-3]),
                        st.floats(1e-12, 2e-2)),
    "t2_s": st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300]),
                      st.floats(1e-9, 1e5)),
    "t_cycle_s": st.one_of(st.sampled_from([5e-324, 1e-300, 1e-12, 1e3]),
                           st.floats(1e-9, 1e-1)),
    "code_distance": st.integers(1, 61),
}
#: a memory's capacity, from none through too few cells to plenty
_MEMORY_SIZE = st.one_of(st.sampled_from([0, 1]), st.integers(1, 4000))
_EPS_TELE = st.one_of(st.sampled_from([0.0, 0.999999]),
                      st.floats(0.0, 1.0, exclude_max=True))
#: a factory's count per QPU, from negative through none to an overflow
_N_MF = st.one_of(st.sampled_from([-1.0, 0.0, 1e300]), st.floats(0.5, 10.0))
#: a RAQM's swap reach, up to far beyond what its cells can use
_K_SWAP = st.one_of(st.sampled_from([0, 10**6]), st.integers(0, 10**6))


@st.composite
def _drawn_config(draw):
    spec = builtin_architecture(draw(st.sampled_from(BUILTIN_NAMES)))
    keys = sorted(_MODULE_FIELDS)
    if spec.links:
        keys += ["eps_tele", "n_logical"]
    if spec.by_kind("QSF"):
        keys.append("n_mf_per_qpu")
    if spec.by_kind("RAQM"):
        keys.append("k_swap")
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(keys))
        if key == "eps_tele":
            draw(st.sampled_from(spec.links)).eps_tele = draw(_EPS_TELE)
            continue
        if key == "n_logical":
            memory = draw(st.sampled_from(spec.memory_modules()))
            memory.n_logical = draw(_MEMORY_SIZE)
            continue
        if key == "n_mf_per_qpu":
            spec.by_kind("QSF")[0].n_mf_per_qpu = draw(_N_MF)
            continue
        if key == "k_swap":
            spec.by_kind("RAQM")[0].k_swap = draw(_K_SWAP)
            continue
        m = draw(st.sampled_from(spec.modules))
        value = draw(_MODULE_FIELDS[key])
        if key == "code_distance":
            m.code = dataclasses.replace(m.code, distance=value)
        elif key == "t_cycle_s":
            # widen a synchronization window so the nominal cycle stays in it
            m.t_cycle_s = value
            if m.t_cycle_min_s is not None:
                m.t_cycle_min_s = min(m.t_cycle_min_s, value)
            if m.t_cycle_max_s is not None:
                m.t_cycle_max_s = max(m.t_cycle_max_s, value)
        else:
            m.modality = dataclasses.replace(m.modality, **{key: value})
    rng = random.Random(draw(st.integers(0, 2**32)))
    circuit = random_circuit(rng, draw(st.integers(1, 12)),
                             draw(st.integers(0, 40)))
    return spec, circuit


@settings(max_examples=600, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_drawn_config())
def test_validated_config_schedules_finite(config):
    spec, circuit = config
    if validate(spec):
        return
    counts = count_architecture(spec)
    assert counts.total_qubits > 0 and counts.total_couplers >= 0
    est = rsa_estimate(spec)
    assert all(math.isfinite(x) and x > 0 for x in (
        est.shot_s, est.runtime_days, est.qubit_cost_mdays,
        est.coupler_cost_mdays))
    try:
        prog = schedule(circuit, spec)
    except CompileError:
        return
    assert math.isfinite(prog.makespan_s) and prog.makespan_s >= 0.0
    assert 0.0 <= error_budget(prog).total <= 1.0
