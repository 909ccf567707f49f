"""Lowering, block grouping, clock alignment, budgets, and scheduling."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hetqc import compiler
from hetqc.arch import apply_override, builtin_architecture, validate
from hetqc.circuits import GATE_ARITY, LogicalCircuit
from hetqc.cli import build_workload
from hetqc.compiler import (CATEGORIES, CompileError, ErrorBudget, EVENT_KINDS,
                            LoweredGate, RouterDecision, ScheduledEvent,
                            ScheduledProgram,
                            consolidate_blocks, error_budget, lower_circuit,
                            rz_t_count, schedule, synchronize_clocks)
from hetqc.generators import generate_aqft, generate_cuccaro_adder
from hetqc.qec import TransferInfeasible
from hetqc.resources import transfer_patch_layout

import oracles
from oracles import (consolidate_blocks_linear, error_budget_uncached,
                     product_error, random_circuit, touch_neighbours_bisect)


def test_rz_t_count():
    # ceil(3 * log2(1 / 2.1e-9))
    assert rz_t_count(2.1e-9) == 87
    assert rz_t_count(0.5) == 3
    with pytest.raises(ValueError):
        rz_t_count(0.0)
    with pytest.raises(ValueError):
        rz_t_count(1.0)


def _lowered(kind, *qubits, factory="T", angle=None, n=4):
    c = LogicalCircuit("t", n)
    c.add(kind, *qubits, angle=angle)
    return lower_circuit(c, factory, 2.1e-9)


def test_lowering_shapes():
    assert [g.label for g in _lowered("H", 0)] == ["H"]
    t, = _lowered("T", 0)
    assert (t.cost_key, t.magic, t.n_t) == ("t", 1, 1)
    rz, = _lowered("Rz", 0, angle=0.1)
    assert (rz.cost_key, rz.magic) == ("rz", 87)
    assert [g.label for g in _lowered("CPhase", 0, 1, angle=0.1)] == \
        ["Rz", "Rz", "CNOT", "Rz", "CNOT"]
    swap = _lowered("SWAP", 0, 1)
    assert [g.label for g in swap] == ["CNOT", "CNOT", "CNOT"]
    assert swap[0].qubits == (0, 1)
    assert swap[1].qubits == (1, 0)
    assert sum(g.n_swap for g in swap) == 1
    m, = _lowered("Measure", 0)
    assert m.category == "measure"


def test_lowering_nonclifford_follows_factory_state():
    # a T-state factory runs Toffoli natively and flips CCZ into it
    tof, = _lowered("Toffoli", 0, 1, 2, factory="T")
    assert (tof.cost_key, tof.magic) == ("toffoli_t", 4)
    ccz = _lowered("CCZ", 0, 1, 2, factory="T")
    assert [g.label for g in ccz] == ["H", "Toffoli", "H"]
    assert ccz[0].qubits == ccz[2].qubits == (2,)
    # a CCZ factory is the mirror image
    ccz2, = _lowered("CCZ", 0, 1, 2, factory="CCZ")
    assert (ccz2.cost_key, ccz2.magic) == ("ccz", 1)
    tof2 = _lowered("Toffoli", 0, 1, 2, factory="CCZ")
    assert [g.label for g in tof2] == ["H", "CCZ", "H"]
    # every lowered gate carries its op's tag
    assert all(g.tag == "adder" for g in lower_circuit(
        generate_cuccaro_adder(2), "T", 2.1e-9))


def test_lowering_shares_recurring_records():
    c = LogicalCircuit("t", 3)
    c.add("CPhase", 0, 1, angle=0.1)
    c.add("CCZ", 0, 1, 2)
    cphase, ccz = c.ops
    g = lower_circuit(c, "T", 2.1e-9)
    assert [x.qubits for x in g[:5]] == [(0,), (1,), (0, 1), (1,), (0, 1)]
    # a recurring gate is one immutable record, listed twice, and a gate on
    # all of its op's qubits holds the op's own tuple
    assert g[1] is g[3] and g[2] is g[4]
    assert [x.label for x in g[5:]] == ["H", "Toffoli", "H"]
    assert g[5] is g[7]
    assert g[2].qubits is cphase.qubits and g[6].qubits is ccz.qubits


def test_lowering_requires_factory_for_magic():
    c = LogicalCircuit("t", 1)
    c.add("T", 0)
    with pytest.raises(CompileError):
        lower_circuit(c, None, 2.1e-9)
    clifford = LogicalCircuit("t", 2)
    clifford.add("H", 0)
    clifford.add("CNOT", 0, 1)
    assert len(lower_circuit(clifford, None, 2.1e-9)) == 2


@pytest.mark.parametrize("factory", ["T", "CCZ", None])
def test_lowering_matches_per_op_reference(factory):
    # each kind untagged and tagged, on qubits out of order; without a
    # factory only the kinds that take no magic state
    magic = {"T", "Tdg", "Rz", "CPhase", "Toffoli", "CCZ"}
    c = LogicalCircuit("every", 8)
    for kind, arity in GATE_ARITY.items():
        if factory is None and kind in magic:
            continue
        for tag in (None, "adder"):
            c.add(kind, *(6, 1, 4)[:arity], tag=tag,
                  angle=0.1 if kind in ("Rz", "CPhase") else None)
    lowered = lower_circuit(c, factory, 2.1e-9)
    t_per_rz = rz_t_count(2.1e-9) if factory else 0
    at = 0
    for op in c.ops:
        want = oracles.lower_op_reference(op, factory, t_per_rz)
        got, at = lowered[at:at + len(want)], at + len(want)
        assert got == want and all(type(g) is LoweredGate for g in got)
        # the same records recur, and the same ones hold the op's tuple
        assert [[a is b for b in got] for a in got] == \
            [[a is b for b in want] for a in want]
        assert [g.qubits is op.qubits for g in got] == \
            [w[2] is op.qubits for w in want]
    assert at == len(lowered)
    assert {op.kind for op in c.ops} == (
        set(GATE_ARITY) - magic if factory is None else set(GATE_ARITY))


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 16), st.integers(1, 80),
       st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_consolidation_properties(seed, n_qubits, n_gates, max_qubits):
    c = random_circuit(random.Random(seed), n_qubits, n_gates)
    lowered = lower_circuit(c, "T", 2.1e-9)
    blocks = consolidate_blocks(lowered, max_qubits)
    bound = max(max_qubits, max(len(g.qubits) for g in lowered))
    block_of = {}
    for b in blocks:
        assert b.gates == sorted(b.gates)
        assert len(b.qubits) <= bound
        for gi in b.gates:
            assert lowered[gi].tag == b.tag
            assert set(lowered[gi].qubits) <= b.qubits
            block_of[gi] = b.index
        assert all(d < b.index for d in b.deps)
    assert sorted(block_of) == list(range(len(lowered)))
    # a gate never lands before an earlier gate that shares a qubit
    last = {}
    for gi, g in enumerate(lowered):
        for q in g.qubits:
            if q in last:
                assert block_of[gi] >= block_of[last[q]]
            last[q] = gi


def _random_lowered(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        arity = rng.randint(1, min(3, n_qubits))
        gates.append(LoweredGate("1q", "G",
                                 tuple(rng.sample(range(n_qubits), arity)),
                                 "gate_1q",
                                 tag=rng.choice((None, "adder", "lookup"))))
    return gates


@pytest.mark.parametrize("capacity", [1, 2, 3, 4, 5, 6, 7, 8, 1000])
def test_consolidation_matches_linear_scan(capacity):
    rng = random.Random(capacity)
    for _ in range(150):
        lowered = _random_lowered(rng, rng.randint(1, 12), rng.randint(0, 80))
        blocks = consolidate_blocks(lowered, capacity)
        assert [(b.index, b.gates, b.qubits, b.tag, b.deps)
                for b in blocks] \
            == consolidate_blocks_linear(lowered, capacity)


@pytest.mark.parametrize("spec", ["aqft:n=64,k_th=9",
                                  "hubbard:lx=4,ly=4,steps=1",
                                  "rsa:kind=adder33", "rsa:kind=lookup6",
                                  "rsa:kind=phaseup6"])
def test_consolidation_matches_linear_scan_on_workloads(spec):
    # lowered as on A1 (T factory) and on the B family (CCZ factory)
    circuit = build_workload(spec)
    for state in ("T", "CCZ"):
        lowered = lower_circuit(circuit, state, 2.1e-9)
        for capacity in (1, 2, 3, 50):
            blocks = consolidate_blocks(lowered, capacity)
            assert [(b.index, b.gates, b.qubits, b.tag, b.deps)
                    for b in blocks] \
                == consolidate_blocks_linear(lowered, capacity)


def test_synchronize_clocks_cases():
    eff, stretched = synchronize_clocks(5e-5, 1e-6, 5e-5, 1e-3)
    assert eff == pytest.approx(5e-5)
    assert not stretched
    # halfway between 50 and 51 compute cycles: round up
    eff, stretched = synchronize_clocks(50.5e-6, 1e-6, 5e-5, 1e-3)
    assert eff == pytest.approx(51e-6)
    assert not stretched
    eff, _ = synchronize_clocks(50.3e-6, 1e-6, 5e-5, 1e-3)
    assert eff == pytest.approx(50e-6)
    # no whole multiple inside the window: keep nominal, flag a stretch
    eff, stretched = synchronize_clocks(0.5e-6, 1e-6, 0.2e-6, 0.4e-6)
    assert (eff, stretched) == (0.5e-6, True)
    with pytest.raises(ValueError):
        synchronize_clocks(0.0, 1e-6, 0.0, 1.0)


def test_error_budget_masses():
    prog = schedule(generate_aqft(12, k_th=5), builtin_architecture("A1"))
    budget = error_budget(prog)
    assert budget.total == pytest.approx(
        product_error([ev.error for ev in prog.events]), rel=1e-9)
    assert math.fsum(budget.categories.values()) == pytest.approx(
        budget.total, rel=1e-12)
    assert all(v >= 0.0 for v in budget.categories.values())
    assert budget.categories[budget.dominant()] == max(
        budget.categories.values())


def test_error_budget_empty():
    budget = ErrorBudget.from_events([])
    assert budget.total == 0.0
    assert set(c for c, _ in budget.rows()) == {
        "qpu_idle", "qm_idle", "gate_1q", "gate_2q", "gate_t", "transfer",
        "measure"}


def test_error_budget_matches_uncached_reference():
    rng = random.Random(31)
    # repeats, both zeros, 1.0 and the clamp edge, so cache hits abound
    pool = [0.0, -0.0, 1.0, 1 - 1e-16, 5e-324, 1e-12, 3.3e-7, 0.25] + \
        [rng.random() * 1e-3 for _ in range(6)]
    for _ in range(40):
        events = [ScheduledEvent(rng.random(), 1e-6, "gate", "qpu0",
                                 "qpu0:core0", (0,), "H", rng.choice(pool),
                                 rng.choice(CATEGORIES))
                  for _ in range(rng.randint(0, 300))]
        budget = ErrorBudget.from_events(events)
        total, categories = error_budget_uncached(events, CATEGORIES)
        assert budget.total.hex() == total.hex()
        assert {c: v.hex() for c, v in budget.categories.items()} == \
            {c: v.hex() for c, v in categories.items()}


def test_error_budget_rejects_nan():
    ev = ScheduledEvent(0.0, 1e-6, "gate", "qpu0", "qpu0:core0", (0,), "H",
                        math.nan, "gate_1q")
    with pytest.raises(ValueError, match="NaN"):
        ErrorBudget.from_events([ev])


def _check_program(prog, n_qubits):
    assert prog.makespan_s >= 0.0
    for ev in prog.events:
        assert ev.kind in EVENT_KINDS
        assert ev.duration_s >= 0.0
        assert 0.0 <= ev.error <= 1.0
        assert ev.t_end_s <= prog.makespan_s + 1e-12
    starts = [ev.t_start_s for ev in prog.events]
    assert starts == sorted(starts)


@pytest.mark.parametrize("arch_name", ["A1", "A2", "A3"])
def test_schedule_deterministic(arch_name):
    c = generate_aqft(10, k_th=4)
    arch = builtin_architecture(arch_name)
    first = schedule(c, arch)
    second = schedule(c, builtin_architecture(arch_name))
    assert first.to_text() == second.to_text()
    _check_program(first, c.n_qubits)
    assert first.counters["swap_count"] == 0


def test_schedule_counts_t_states():
    c = LogicalCircuit("t", 2)
    c.add("T", 0)
    c.add("Rz", 1, angle=0.3)
    prog = schedule(c, builtin_architecture("A1"))
    assert prog.counters["t_count"] == 1 + 87
    # both qubits retire to memory once finished: two state transfers
    assert prog.counters["st_count"] == 2


def test_schedule_rejects_overflow():
    c = LogicalCircuit("big", 1500)
    for q in range(1500):
        c.add("H", q)
    with pytest.raises(CompileError):
        schedule(c, builtin_architecture("A1"))  # 3 + 1000 slots available


def test_capacity_check_refuses_before_consolidation(monkeypatch):
    def never(*args):
        raise AssertionError("lowered a circuit that cannot fit")

    # the check reads the circuit's ops, so nothing is lowered either
    monkeypatch.setattr(compiler, "lower_circuit", never)
    monkeypatch.setattr(compiler, "consolidate_blocks", never)
    c = LogicalCircuit("wide", 1100)
    for q in range(1100):
        c.add("H", q)
    c.add("Measure", 0)  # a measured qubit needs no home at the end
    with pytest.raises(CompileError, match="1099 qubits stay live"):
        schedule(c, builtin_architecture("A1"))  # 3 slots + 1000 cells


def test_capacity_refusal_wins_over_missing_factory():
    # both checks would refuse; the capacity check runs before lowering
    arch = builtin_architecture("A1")
    arch.modules = [m for m in arch.modules if m.kind != "QSF"]
    assert validate(arch) == []
    c = LogicalCircuit("wide_t", 1100)
    for q in range(1100):
        c.add("T", q)
    with pytest.raises(CompileError, match="1100 qubits stay live"):
        schedule(c, arch)
    with pytest.raises(CompileError, match="no factory module"):
        schedule(generate_aqft(8), arch)


def test_infeasible_hop_raises_only_when_used():
    arch = builtin_architecture("A1")
    arch.links[0].eps_tele = 0.05  # teleportation above the code threshold
    assert validate(arch) == []
    c = LogicalCircuit("lazy", 2)
    for kind, *qs in (("H", 0), ("CNOT", 0, 1), ("H", 0), ("H", 1), ("H", 0),
                      ("Measure", 0), ("Measure", 1)):
        c.add(kind, *qs)
    prog = schedule(c, arch)
    router = [d for d in prog.audit if d.reason == "router"]
    assert router and all(d.cost_move == math.inf for d in router)
    # hash of the schedule made without the hop cache
    assert hashlib.sha256(prog.to_text().encode()).hexdigest() == \
        "9dedac526fa6ebca1663571557cd8873433fb308684a30d2a346ba01af3bab9c"
    with pytest.raises(TransferInfeasible):
        schedule(generate_aqft(8), arch)


def test_infeasible_hop_stays_with_its_module_pair():
    # B5 links cache0 to both qpu0 and the adder core asqpu0; only the
    # asqpu0 hop is made infeasible
    stock = builtin_architecture("B5")
    arch = builtin_architecture("B5")
    arch.links = [dataclasses.replace(link, eps_tele=0.05)
                  if {link.a, link.b} == {"asqpu0", "cache0"} else link
                  for link in arch.links]
    assert arch.links != stock.links and validate(arch) == []
    with pytest.raises(TransferInfeasible):
        schedule(build_workload("rsa:kind=adder33"), arch)
    lookup = build_workload("rsa:kind=lookup6")
    assert hashlib.sha256(schedule(lookup, arch).to_text().encode()) \
        .hexdigest() == hashlib.sha256(
            schedule(lookup, stock).to_text().encode()).hexdigest()


def test_unlinked_memory_refuses_the_move_and_the_read():
    # on B5 and B6 the adder core asqpu0 links to cache0 only: once its
    # cells are full the QPU writes to raqm0, which asqpu0 cannot read
    c = LogicalCircuit("cross", 200)
    for q in range(200):
        c.add("H", q)
    for q in range(190, 199):
        c.add("CNOT", q, q + 1, tag="adder")
    for q in range(200):
        c.add("H", q)
    for name in ("B5", "B6"):
        with pytest.raises(CompileError, match="qubit 190 is stored in "
                           "raqm0, which asqpu0:core0 has no link to"):
            schedule(c, builtin_architecture(name))
        front = compiler._FrontEnd(c, [builtin_architecture(name)])
        sched = compiler._Scheduler(front, front.jobs[0])
        adder, = [core for core in sched.cores
                  if core.module.id == "asqpu0"]
        raqm, = [mm for mm in sched.memories if mm.module.id == "raqm0"]
        cost_keep, cost_move = sched._route_costs(adder, raqm, 7, 0.0)
        assert cost_keep == -math.expm1(7 * adder.log_keep)
        assert cost_move == math.inf


def test_factory_pool_throttles_magic():
    arch = builtin_architecture("A1")
    apply_override(arch, "qsf.n=1")
    c = LogicalCircuit("t_burst", 2)
    for i in range(20):
        c.add("T", i % 2)
    prog = schedule(c, arch)
    qsf = arch.module("qsf0")
    floor = 19 * qsf.production_cycles * qsf.t_cycle_s
    assert prog.makespan_s >= floor


def test_baseline_serial_makespan():
    arch = builtin_architecture("baseline1000")
    c = LogicalCircuit("serial", 4)
    for q in range(4):
        c.add("H", q)
    for q in range(4):
        c.add("T", q)
    prog = schedule(c, arch)
    qsf = arch.module("qsf0")
    cycles = 4 * 1 + 4 * qsf.injection_cycles
    assert prog.makespan_s == pytest.approx(cycles * 1e-6)
    assert prog.counters["swap_count"] == 0
    _check_program(prog, 4)


def test_baseline_routes_distant_pairs():
    arch = builtin_architecture("baseline1000")
    c = LogicalCircuit("corners", 9)
    c.add("CNOT", 0, 8)  # opposite corners of the 3x3 grid
    prog = schedule(c, arch)
    assert prog.counters["swap_count"] >= 1
    assert prog.counters["cnot_count"] >= 1
    assert any(ev.kind == "swap_route" for ev in prog.events)


def _grid_routing_swaps(prog):
    """(gate qubits, its routing swaps' moved qubits) per grid gate, read
    in emission order: a gate's swaps are the ones right before it."""
    keys, pending = prog.events.keys, []
    for key_id in prog.events.key:
        kind, _, _, qubits, _, _ = keys[key_id]
        if kind == "swap_route":
            pending.append(qubits)
        elif kind != "idle_buffer":
            yield qubits, pending
            pending = []
    assert not pending


@pytest.mark.parametrize("arch_name", ["Mono", "baseline1000"])
def test_grid_router_never_moves_a_placed_operand(arch_name):
    # each routing step goes toward the gate's first operand and lands at
    # distance >= its stop, so the first operand and a placed second one
    # are never swapped away, and the router needs no detour
    arch = builtin_architecture(arch_name)
    rng = random.Random(13)
    n_swaps = 0
    for n in (3, 5, 9, 10, 24, 37, 64, 90):
        for _ in range(4):
            c = LogicalCircuit(f"grid{n}", n)
            for _ in range(rng.randint(1, 60)):
                kind = rng.choice(("CNOT", "Toffoli", "CCZ"))
                c.add(kind, *rng.sample(range(n), 2 if kind == "CNOT" else 3))
            prog = schedule(c, arch)
            for qubits, swaps in _grid_routing_swaps(prog):
                n_swaps += len(swaps)
                # the second operand's swaps, then the third's; each swap
                # moves one of them, into the cell of another qubit or none
                movers = [moved[0] for moved in swaps]
                assert movers == sorted(movers, key=qubits.index)
                for moved in swaps:
                    assert moved[0] in qubits[1:]
                    assert qubits[0] not in moved
                    if moved[0] == qubits[-1] and len(qubits) == 3:
                        assert qubits[1] not in moved
            assert prog.counters["swap_count"] == sum(
                ev.kind == "swap_route" for ev in prog.events)
    assert n_swaps > 1000


def test_baseline_rejects_oversized_circuit(monkeypatch):
    def never(*args):
        raise AssertionError("lowered a circuit that cannot fit")

    monkeypatch.setattr(compiler, "lower_circuit", never)
    c = LogicalCircuit("big", 1001)
    c.add("H", 1000)
    with pytest.raises(CompileError):
        schedule(c, builtin_architecture("baseline1000"))


def test_touch_tables_match_bisection():
    for seed in range(150):
        rng = random.Random(4100 + seed)
        circuit = random_circuit(rng, rng.randint(1, 30), rng.randint(0, 120))
        lowered = lower_circuit(circuit, rng.choice(["T", "CCZ"]), 2.1e-9)
        touches, first, prev, nxt = compiler._touch_tables(lowered)
        assert len(first) == len(lowered) + 1
        # the tables are arrays, compared here as lists
        assert [(prev[first[gi]:first[gi + 1]].tolist(),
                 nxt[first[gi]:first[gi + 1]].tolist())
                for gi in range(len(lowered))] == \
            touch_neighbours_bisect(lowered)
        assert {q: gis.tolist() for q, gis in touches.items()} == \
            {q: [gi for gi, g in enumerate(lowered) if q in g.qubits]
             for q in touches}
        assert set(touches) == {q for g in lowered for q in g.qubits}


def test_drain_runs_every_call_in_order():
    seen = []
    assert compiler._drain(map(seen.append, range(1000))) is None
    assert seen == list(range(1000))


@pytest.mark.parametrize("k", range(7))
def test_swap_distances_match_patch_layout(k):
    quota = 2 * k * k + 6 * k + 1
    for n in sorted({1, max(quota - 1, 1), quota, quota + 1, 1254, 1260}):
        assert compiler._swap_distances(n, k) == \
            transfer_patch_layout(n, k).storage_distances, (n, k)


@pytest.mark.parametrize("arch_name", ["B2", "B3", "B5", "B6"])
def test_scheduler_swap_distances_match_patch_layout(arch_name):
    arch = builtin_architecture(arch_name)
    circuit = generate_aqft(4)
    front = compiler._FrontEnd(circuit, [arch])
    sched = compiler._Scheduler(front, front.jobs[0])
    mems = [mm for mm in sched.memories if mm.module.k_swap > 0]
    assert mems
    for mm in sched.memories:
        m = mm.module
        assert mm.swap_dist == transfer_patch_layout(
            m.n_logical, m.k_swap).storage_distances


# ------------------------------------------------------------ record contract

def test_records_are_immutable():
    ev = ScheduledEvent(0.1, 0.2, "gate", "qpu0", "qpu0:core0", (1, 2),
                        "CNOT", 1e-9, "gate_2q")
    assert ev.t_end_s == 0.1 + 0.2
    dec = RouterDecision(0.5, "qpu0:core0", 1, 3, 1e-9, 2e-9, False, "router")
    gate = LoweredGate("2q", "CNOT", (1, 2), "gate_2q", n_cnot=1)
    for record, name in ((ev, "t_start_s"), (ev, "qubits"), (dec, "moved"),
                         (gate, "cost_key"), (gate, "tag")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert (gate.magic, gate.n_t, gate.n_swap, gate.tag) == (0, 0, 0, None)


def _hex_fields(ev):
    return tuple(v.hex() if isinstance(v, float) else v for v in ev)


def _seeded_emission(rng, n):
    """Fields of ``n`` events with few distinct values per field: many
    start-time ties, and keys that share (module, lane, kind, qubits) but
    differ in label or category."""
    lanes = ["qpu0:core0", "stqm0:q3", "stqm0:q12"]
    errors = [0.0, -0.0, -1e-9, 1.0, 1 - 1e-16, 5e-324, 1e-12, 3.3e-7, 0.25]
    return [(rng.choice([0.0, -0.0, 1e-6, 2.5e-6, 3e-6]),
             rng.choice([0.0, 1e-6, rng.random()]),
             rng.choice(["gate", "idle_buffer", "transfer_read"]),
             rng.choice(["qpu0", "stqm0"]), rng.choice(lanes),
             tuple(rng.sample(range(4), rng.randint(1, 2))),
             rng.choice(["x", "y"]), rng.choice(errors + [rng.random()]),
             rng.choice(CATEGORIES))
            for _ in range(n)]


def test_event_store_matches_record_list():
    rng = random.Random(2024)
    for n in [0, 1, 2, 7, 40, 300, 3000]:
        store, ref = compiler.EventStore(), oracles.EventListReference()
        for fields in _seeded_emission(rng, n):
            store.add(*fields)
            ref.add(*fields)
        if n >= 40:
            assert len(store.keys) < n  # keys do repeat
        ordered = [_hex_fields(ev) for ev in ref.ordered()]
        assert [_hex_fields(ev) for ev in store] == ordered
        assert [_hex_fields(store[i]) for i in range(n)] == ordered
        assert [_hex_fields(ev) for ev in store[1::3]] == ordered[1::3]
        assert all(type(ev) is ScheduledEvent for ev in store)
        prog = ScheduledProgram("c", "a", store, store.makespan(), {}, [], 0)
        assert list(prog.lines())[4:] == ref.body_lines()
        assert store.makespan().hex() == ref.makespan().hex()
        budget = error_budget(prog)
        total, categories = error_budget_uncached(ref.events, CATEGORIES)
        assert budget.total.hex() == total.hex()
        assert {c: v.hex() for c, v in budget.categories.items()} == \
            {c: v.hex() for c, v in categories.items()}


def test_schedule_text_formats_each_start_as_given():
    # equal starts sit next to each other in schedule order; 0.0 and -0.0
    # are equal but print apart, so a start text reused on equality alone
    # would print one of them wrong
    starts = [0.0, -0.0, 0.0, 2.5e-6, 2.5e-6, 2.5e-6, 1e-6, -0.0, 1e-6]
    store, ref = compiler.EventStore(), oracles.EventListReference()
    for q, t in enumerate(starts):
        fields = (t, 1e-6 if q % 3 else 0.0, "gate", "qpu0", "qpu0:core0",
                  (q,), "H", 3.3e-7 if q % 2 else 0.0, "gate_1q")
        store.add(*fields)
        ref.add(*fields)
    body = ref.body_lines()
    assert [line.split()[0] for line in body[:4]] == \
        ["0.0", "-0.0", "0.0", "-0.0"]
    prog = ScheduledProgram("c", "a", store, store.makespan(), {}, [], 0)
    assert list(prog.lines())[4:] == body


def test_event_store_by_id_matches_by_fields():
    # the schedulers' path: a store that starts from some keys, as from a
    # plan's gate keys, interns the rest right before their first event
    # and appends every event to its columns by id; the ids differ from a
    # store filled by fields, and nothing read off the store may show it
    rng = random.Random(2025)
    for n in [0, 1, 2, 7, 40, 300, 3000]:
        emission = _seeded_emission(rng, n)
        seeded = list(dict.fromkeys((*key, category)
                                    for _, _, *key, _, category in emission
                                    if key[0] == "gate"))
        rng.shuffle(seeded)
        by_fields, by_id = compiler.EventStore(), compiler.EventStore(seeded)
        add_key, add_start, add_dur, add_err = by_id.appends()
        ids = by_id.ids
        for start, dur, *key, err, category in emission:
            by_fields.add(start, dur, *key, err, category)
            add_key(ids.setdefault((*key, category), len(ids)))
            add_start(start)
            add_dur(dur)
            add_err(err)
        assert by_id.keys[:len(seeded)] == seeded
        assert sorted(by_id.keys) == sorted(by_fields.keys)
        assert [by_id.keys[k] for k in by_id.key] == \
            [by_fields.keys[k] for k in by_fields.key]
        assert sorted(set(by_id.key)) == list(range(len(by_id.keys)))
        assert list(by_id.order()) == list(by_fields.order())
        progs = [ScheduledProgram("c", "a", st, st.makespan(), {}, [], 0)
                 for st in (by_fields, by_id)]
        assert list(progs[1].lines()) == list(progs[0].lines())
        assert by_id.makespan().hex() == by_fields.makespan().hex()
        budgets = [error_budget(prog) for prog in progs]
        assert budgets[1].total.hex() == budgets[0].total.hex()
        assert [v.hex() for v in budgets[1].categories.values()] == \
            [v.hex() for v in budgets[0].categories.values()]


def test_schedule_keys_all_have_events():
    # gates take their keys from the plan, where each is a key some gate
    # uses; cells and residents intern theirs on first use, not on claim
    for spec, name in (("aqft:n=40,k_th=9", "A1"), ("aqft:n=40,k_th=9", "A3"),
                       ("rsa:kind=adder33", "B5")):
        store = schedule(build_workload(spec), builtin_architecture(name)) \
            .events
        assert sorted(set(store.key)) == list(range(len(store.keys)))


def test_event_store_nan_names_first_in_schedule_order():
    rng = random.Random(77)
    for _ in range(30):
        store, ref = compiler.EventStore(), oracles.EventListReference()
        fields = _seeded_emission(rng, 60)
        for i in rng.sample(range(60), 3):
            fields[i] = fields[i][:6] + (f"nan{i}", math.nan) + fields[i][8:]
        for f in fields:
            store.add(*f)
            ref.add(*f)
        ev = ref.first_nan()
        with pytest.raises(ValueError) as exc:
            ErrorBudget.from_events(store)
        assert str(exc.value) == (f"NaN error on {ev.kind} event {ev.label} "
                                  f"at {ev.t_start_s!r} s on {ev.lane}")


def test_event_count_builds_no_record(monkeypatch):
    prog = schedule(generate_aqft(12, k_th=5), builtin_architecture("A1"))
    n = len(list(prog.events))

    def boom(*args):
        raise AssertionError("built a record or sorted the events")

    monkeypatch.setattr(compiler, "ScheduledEvent", boom)
    monkeypatch.setattr(compiler.EventStore, "order", boom)
    assert len(prog.events) == n > 0


def _seeded_decisions(rng, n):
    """Fields of ``n`` router decisions: infinite and signed-zero costs,
    and few distinct (core, moved, reason) triples."""
    costs = [0.0, -0.0, math.inf, 1e-12, 5e-324, 0.25]
    return [(rng.choice([0.0, -0.0, 1e-6, rng.random()]),
             rng.choice(["qpu0:core0", "qpu0:core1"]), rng.randrange(2000),
             rng.choice([0, 3, 1 << 40]),
             rng.choice(costs + [rng.random()]),
             rng.choice(costs + [rng.random()]), rng.choice([True, False]),
             rng.choice(["router", "capacity", "cross_core", "terminal"]))
            for _ in range(n)]


def test_audit_store_matches_record_list():
    rng = random.Random(3031)
    for n in [0, 1, 2, 9, 200, 2000]:
        store = compiler.AuditStore()
        ref = []
        for fields in _seeded_decisions(rng, n):
            store.add(*fields)
            ref.append(RouterDecision(*fields))
        if n >= 200:
            assert len(store.kinds) < n  # (core, moved, reason) repeats
        want = [_hex_fields(d) for d in ref]
        assert len(store) == n
        assert [_hex_fields(d) for d in store] == want
        assert [_hex_fields(store[i]) for i in range(n)] == want
        assert [_hex_fields(store[i]) for i in range(-n, 0)] == want
        for sl in (slice(None), slice(1, None, 3), slice(None, None, -2),
                   slice(-5, -1)):
            assert [_hex_fields(d) for d in store[sl]] == want[sl]
        assert all(type(d) is RouterDecision for d in store)
        with pytest.raises(IndexError):
            store[n]


def test_audit_count_builds_no_record(monkeypatch):
    prog = schedule(generate_aqft(12, k_th=5), builtin_architecture("A1"))
    n = len(list(prog.audit))

    def boom(*args):
        raise AssertionError("built a router record")

    monkeypatch.setattr(compiler, "RouterDecision", boom)
    assert len(prog.audit) == n > 0
