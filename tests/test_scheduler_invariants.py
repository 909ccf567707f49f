"""Randomized invariant checks over both schedulers.

A seeded corpus of circuits (up to 64 logical qubits) is spread round-robin
over the three memory-backed builtins A1-A3, and a second one over the
other eight.  Every schedule must be reproducible, keep each lane
exclusive, keep each qubit in one place at a time, pair writes with reads
and route only when the move is cheaper than idling.  Where no memory has
swap legs and the grid model is not used, the only swaps are the ones the
circuit asks for.

On every builtin, a random circuit and a small AQFT use every key they
intern, and their transfer counter counts their transfer events.

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

from hetqc.arch import BUILTIN_NAMES, builtin_architecture, validate
from hetqc.cli import build_workload
from hetqc.compiler import CompileError, EVENT_KINDS, error_budget, schedule
from hetqc.estimator import rsa_estimate
from hetqc.qec import TransferInfeasible
from hetqc.resources import count_architecture

from oracles import (check_lane_exclusive, check_no_routing_swaps,
                     check_qubit_locations, check_router_audit,
                     check_transfer_pairing, random_circuit)

#: the memory-backed builtins of acceptance criterion 9, and the others
HET_NAMES = ("A1", "A2", "A3")
OTHER_NAMES = tuple(a for a in BUILTIN_NAMES if a not in HET_NAMES)
N_CASES = 102
N_OTHER_CASES = 12 * len(OTHER_NAMES)


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


def _check_invariants(circuit, arch_name):
    arch = builtin_architecture(arch_name)
    prog = schedule(circuit, arch)
    again = schedule(circuit, builtin_architecture(arch_name))
    assert prog.to_text() == again.to_text()

    assert check_lane_exclusive(prog) == []
    assert check_qubit_locations(prog) == []
    assert check_transfer_pairing(prog) == []
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


@st.composite
def _drawn_config(draw):
    spec = builtin_architecture(draw(st.sampled_from(BUILTIN_NAMES)))
    keys = sorted(_MODULE_FIELDS)
    if spec.links:
        keys += ["eps_tele", "n_logical"]
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(keys))
        if key == "eps_tele":
            draw(st.sampled_from(spec.links)).eps_tele = draw(_EPS_TELE)
            continue
        if key == "n_logical":
            memory = draw(st.sampled_from(spec.memory_modules()))
            memory.n_logical = draw(_MEMORY_SIZE)
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
    except (CompileError, TransferInfeasible):
        return
    assert math.isfinite(prog.makespan_s) and prog.makespan_s >= 0.0
    assert 0.0 <= error_budget(prog).total <= 1.0
