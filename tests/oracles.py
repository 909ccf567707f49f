"""Independent reference implementations used to check the package.

Deliberately dumb and slow: dense matrices built entry by entry, classical
truth tables, breadth-first search on the raw lattice.  Nothing here imports
from the compiler or resource modules beyond plain data types; the store
fillers take the store to fill as an argument.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

import numpy as np

_SQ2 = 1 / math.sqrt(2)

_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "Tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
}


def _gate_matrix(kind: str, qubits: tuple[int, ...], angle: float | None):
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind == "Rz":
        return np.diag([1, np.exp(1j * angle)])
    if kind == "CNOT":
        # low-bit-first indexing: flips bit 1 when bit 0 (the control) is set
        return np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "CPhase":
        return np.diag([1, 1, 1, np.exp(1j * angle)])
    if kind == "SWAP":
        return np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    if kind == "Toffoli":
        # flips bit 2 when bits 0 and 1 (the controls) are set
        m = np.eye(8, dtype=complex)
        m[[3, 7], :] = m[[7, 3], :]
        return m
    if kind == "CCZ":
        return np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
    raise ValueError(f"no dense matrix for {kind}")


def _embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a k-qubit matrix to the full 2**n space, basis bit q = (i>>q)&1.

    qubits[0] is the low-order bit of the small matrix index, so for CNOT
    qubits = (control, target) with the usual convention.
    """
    dim = 1 << n
    rest = [q for q in range(n) if q not in qubits]
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ii = sum(((i >> q) & 1) << pos for pos, q in enumerate(qubits))
        for j in range(dim):
            if any(((i >> r) & 1) != ((j >> r) & 1) for r in rest):
                continue
            jj = sum(((j >> q) & 1) << pos for pos, q in enumerate(qubits))
            full[i, j] = u[ii, jj]
    return full


def dense_unitary(circuit) -> np.ndarray:
    """Full 2**n matrix of a unitary circuit (no Prep/Measure), n <= 10."""
    n = circuit.n_qubits
    if n > 10:
        raise ValueError("dense oracle limited to 10 qubits")
    u = np.eye(1 << n, dtype=complex)
    for op in circuit.ops:
        if op.kind in ("Prep", "Measure"):
            raise ValueError("dense oracle handles unitary gates only")
        g = _gate_matrix(op.kind, op.qubits, op.angle)
        u = _embed(g, op.qubits, n) @ u
    return u


def classical_state(circuit, state: int) -> int:
    """Propagate a computational-basis state through X/CNOT/Toffoli/SWAP."""
    for op in circuit.ops:
        k, q = op.kind, op.qubits
        if k == "X":
            state ^= 1 << q[0]
        elif k == "CNOT":
            if (state >> q[0]) & 1:
                state ^= 1 << q[1]
        elif k == "Toffoli":
            if (state >> q[0]) & 1 and (state >> q[1]) & 1:
                state ^= 1 << q[2]
        elif k == "SWAP":
            a, b = (state >> q[0]) & 1, (state >> q[1]) & 1
            if a != b:
                state ^= (1 << q[0]) | (1 << q[1])
        else:
            raise ValueError(f"{k} is not a classical gate")
    return state


# ------------------------------------------------------------ lattice BFS

def bfs_distance_to_block(cell: tuple[int, int], anchor: tuple[int, int],
                          obstacles: frozenset[tuple[int, int]],
                          limit: int) -> int | None:
    """Steps from ``cell`` to the 2x2 block at ``anchor`` on the free lattice.

    Obstacles (other patches' blocks) cannot be entered.  Returns None when
    the block is farther than ``limit`` steps.
    """
    ax, ay = anchor
    block = {(ax + dx, ay + dy) for dx in (0, 1) for dy in (0, 1)}
    if cell in block:
        return 0
    seen = {cell}
    frontier = deque([(cell, 0)])
    while frontier:
        (x, y), d = frontier.popleft()
        if d >= limit:
            continue
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (nx, ny) in block:
                return d + 1
            if (nx, ny) in seen or (nx, ny) in obstacles:
                continue
            seen.add((nx, ny))
            frontier.append(((nx, ny), d + 1))
    return None


# ----------------------------------------------------- slow error formulas

def product_error(errors) -> float:
    """1 - prod(1 - e_i), accumulated without the log-domain shortcut."""
    keep = 1.0
    for e in errors:
        keep *= 1.0 - e
    return 1.0 - keep


def slow_logical_error(p: float, p_th: float, d: int, a: float = 0.03):
    return a * (p / p_th) ** ((d + 1) / 2)


# ------------------------------------------------------------ gate lowering

def lower_op_reference(op, factory_state, t_per_rz: int) -> list[tuple]:
    """The lowered gates of one op, each a plain tuple of a lowered gate's
    fields (cost_key, label, qubits, category, magic, n_cnot, n_t, n_swap,
    tag), built by keyword per gate, one branch per op kind.

    A gate that recurs within the op is one tuple listed twice, and a gate
    on all of the op's qubits, in their order, holds the op's own tuple.
    """
    def g(key, label, qubits, cat, magic=0, n_cnot=0, n_t=0, n_swap=0):
        return (key, label, qubits, cat, magic, n_cnot, n_t, n_swap, op.tag)

    k, q = op.kind, op.qubits
    if k in ("H", "S", "X", "Z", "Prep"):
        return [g("1q", k, q, "gate_1q")]
    if k in ("T", "Tdg"):
        return [g("t", k, q, "gate_t", magic=1, n_t=1)]
    if k == "Rz":
        return [g("rz", "Rz", q, "gate_t", magic=t_per_rz, n_t=t_per_rz)]
    if k in ("CNOT", "CZ"):
        return [g("2q", k, q, "gate_2q", n_cnot=1)]
    if k == "SWAP":
        a, b = q
        return [g("2q", "CNOT", q, "gate_2q", n_cnot=1, n_swap=1),
                g("2q", "CNOT", (b, a), "gate_2q", n_cnot=1),
                g("2q", "CNOT", q, "gate_2q", n_cnot=1)]
    if k == "CPhase":
        a, b = q
        rz_b = g("rz", "Rz", (b,), "gate_t", magic=t_per_rz, n_t=t_per_rz)
        cnot = g("2q", "CNOT", q, "gate_2q", n_cnot=1)
        return [g("rz", "Rz", (a,), "gate_t", magic=t_per_rz, n_t=t_per_rz),
                rz_b, cnot, rz_b, cnot]
    if k in ("Toffoli", "CCZ"):
        if factory_state == "CCZ":
            core = [g("ccz", "CCZ", q, "gate_t", magic=1)]
            needs_basis_flip = k == "Toffoli"
        else:
            core = [g("toffoli_t", "Toffoli", q, "gate_t",
                      magic=4, n_t=4, n_cnot=3)]
            needs_basis_flip = k == "CCZ"
        if needs_basis_flip:
            flip = g("1q", "H", (q[2],), "gate_1q")
            return [flip] + core + [flip]
        return core
    if k == "Measure":
        return [g("measure", "Measure", q, "measure")]
    raise ValueError(f"no reference lowering for {k!r}")


# ------------------------------------------------------ block consolidation

def consolidate_blocks_linear(lowered, max_qubits) -> list[tuple]:
    """Earliest-fit grouping by a plain scan from the dependency frontier.

    Each gate tries every block from the frontier on with the exact union
    test, quadratic in the block count.  The bound is ``max_qubits``, an
    int for every tag or a dict by tag, raised to the largest gate arity.
    Returns one ``(index, gates, qubits, tag, deps)`` tuple per block.
    """
    max_arity = max((len(g.qubits) for g in lowered), default=1)

    def bound(tag):
        return max(max_qubits if isinstance(max_qubits, int)
                   else max_qubits[tag], max_arity)

    blocks: list[tuple] = []
    last_touch: dict[int, int] = {}
    for gi, g in enumerate(lowered):
        frontier = max((last_touch.get(q, 0) for q in g.qubits), default=0)
        chosen = None
        for b in blocks[frontier:]:
            if b[3] == g.tag and len(b[2] | set(g.qubits)) <= bound(g.tag):
                chosen = b
                break
        if chosen is None:
            chosen = (len(blocks), [], set(), g.tag, set())
            blocks.append(chosen)
        index, gates, qubits, _, deps = chosen
        gates.append(gi)
        qubits.update(g.qubits)
        for q in g.qubits:
            prev = last_touch.get(q)
            if prev is not None and prev != index:
                deps.add(prev)
            last_touch[q] = index
    return blocks


# ------------------------------------------------------ gate neighbourhood

def touch_neighbours_bisect(lowered) -> list[tuple[list[int], list[int]]]:
    """Per gate: (previous, next) gate touching each operand, -1 for none.

    Found by bisection in each qubit's ascending list of touching gates,
    one lookup per operand, as the scheduler once did per gate.
    """
    touches: dict[int, list[int]] = {}
    for gi, g in enumerate(lowered):
        for q in g.qubits:
            touches.setdefault(q, []).append(gi)
    out = []
    for gi, g in enumerate(lowered):
        prev, nxt = [], []
        for q in g.qubits:
            lst = touches[q]
            i = bisect_right(lst, gi - 1)
            prev.append(lst[i - 1] if i > 0 else -1)
            j = bisect_right(lst, gi)
            nxt.append(lst[j] if j < len(lst) else -1)
        out.append((prev, nxt))
    return out


# ------------------------------------------------------------ error budget

def error_budget_uncached(events, categories) -> tuple[float, dict]:
    """(total, per-category mass), one ``-log1p`` per positive event error."""
    parts = {c: [] for c in categories}
    for ev in events:
        if ev.error > 0.0:
            parts[ev.category].append(-math.log1p(-min(ev.error, 1 - 1e-16)))
    logs = {c: math.fsum(parts[c]) for c in categories}
    log_total = math.fsum(logs.values())
    if log_total == 0.0:
        return 0.0, {c: 0.0 for c in categories}
    total = -math.expm1(-log_total)
    return total, {c: total * (logs[c] / log_total) for c in categories}


# ------------------------------------------------------------- event list

class RefEvent(NamedTuple):
    t_start_s: float
    duration_s: float
    kind: str
    module: str
    lane: str
    qubits: tuple
    label: str
    error: float
    category: str


class EventListReference:
    """A schedule kept as one named tuple per event, sorted on request.

    Schedule order is a sort on (start, module, lane, kind, qubits) with
    ties in emission order, each line formats every field afresh.
    """

    def __init__(self):
        self.events: list[RefEvent] = []

    def add(self, *fields) -> None:
        self.events.append(RefEvent(*fields))

    def ordered(self) -> list[RefEvent]:
        return sorted(self.events, key=lambda ev: (
            ev.t_start_s, ev.module, ev.lane, ev.kind, ev.qubits))

    def makespan(self) -> float:
        return max((ev.t_start_s + ev.duration_s for ev in self.events),
                   default=0.0)

    def body_lines(self) -> list[str]:
        """The schedule text's event lines."""
        return [f"{ev.t_start_s!r} {ev.duration_s!r} {ev.kind} {ev.module} "
                f"{ev.lane} {ev.label} {','.join(str(q) for q in ev.qubits)} "
                f"{ev.error!r}\n" for ev in self.ordered()]

    def first_nan(self) -> RefEvent | None:
        """The first event in schedule order whose error is NaN."""
        return next((ev for ev in self.ordered() if math.isnan(ev.error)),
                    None)


# ------------------------------------------------------------ store filling

def fill_events(store, events):
    """``store``, an empty event store, filled with ``events`` (tuples of a
    ScheduledEvent's fields) as the schedulers fill one: through its
    bound ``appends()``, by ids interned with ``ids.setdefault``."""
    add_key, add_start, add_dur, add_err = store.appends()
    ids = store.ids
    for start, dur, kind, module, lane, qubits, label, err, category in events:
        add_key(ids.setdefault((kind, module, lane, qubits, label, category),
                               len(ids)))
        add_start(start)
        add_dur(dur)
        add_err(err)
    return store


def fill_audit(store, decisions):
    """``store``, an empty audit store, filled with ``decisions`` (tuples of
    a RouterDecision's fields) through its bound ``appends()``."""
    add_key, add_t, add_qubit, add_gap, add_keep, add_move = store.appends()
    ids = store.ids
    for t, core, qubit, gap, keep, move, moved, reason in decisions:
        add_key(ids.setdefault((core, moved, reason), len(ids)))
        add_t(t)
        add_qubit(qubit)
        add_gap(gap)
        add_keep(keep)
        add_move(move)
    return store


# ------------------------------------------------- schedule invariant checks

def check_lane_exclusive(program) -> list[str]:
    """Events sharing a lane must not overlap in time."""
    problems = []
    lanes: dict[str, list] = {}
    for ev in program.events:
        lanes.setdefault(ev.lane, []).append(ev)
    for lane, evs in lanes.items():
        evs.sort(key=lambda e: (e.t_start_s, e.t_end_s))
        for prev, cur in zip(evs, evs[1:]):
            if cur.t_start_s < prev.t_end_s - 1e-12:
                problems.append(
                    f"lane {lane}: {prev.kind}@{prev.t_start_s:.9f} overlaps "
                    f"{cur.kind}@{cur.t_start_s:.9f}")
    return problems


def check_transfer_pairing(program) -> list[str]:
    """Per qubit and memory module: write before read, alternating."""
    problems = []
    seqs: dict[tuple[str, int], list] = {}
    for ev in program.events:
        if ev.kind in ("transfer_write", "transfer_read"):
            seqs.setdefault((ev.module, ev.qubits[0]), []).append(ev)
    for (module, q), evs in seqs.items():
        evs.sort(key=lambda e: e.t_start_s)
        expect = "transfer_write"
        for ev in evs:
            if ev.kind != expect:
                problems.append(f"{module} q{q}: {ev.kind} at "
                                f"{ev.t_start_s:.9f}, expected {expect}")
                break
            expect = ("transfer_read" if expect == "transfer_write"
                      else "transfer_write")
    return problems


def check_qubit_locations(program) -> list[str]:
    """Each qubit is in one place at a time, from the events alone.

    Gates on a qubit never overlap.  A qubit written to memory is read
    back before its next gate and is not written again meanwhile.  Between
    gates on two different cores the qubit goes through memory: it is never
    on two cores at once, nor on a core and in a memory cell at once.  A
    read does not name its core, so the next gate places the qubit.
    """
    per_qubit: dict[int, list] = {}
    for ev in program.events:
        on_core = ev.lane.rpartition(":")[2].startswith("core")
        if on_core or ev.kind in ("transfer_write", "transfer_read"):
            for q in ev.qubits:
                per_qubit.setdefault(q, []).append(ev)
    problems = []
    for q, evs in sorted(per_qubit.items()):
        evs.sort(key=lambda e: (e.t_start_s, e.t_end_s))
        where = None  # a core lane, "memory" or "read" (arriving somewhere)
        last_gate = None
        for ev in evs:
            at = f"q{q} at {ev.t_start_s:.9f}: {ev.kind} on {ev.lane}"
            problem = None
            if ev.kind == "transfer_write":
                if where == "memory":
                    problem = f"{at} while already in a memory cell"
                where = "memory"
            elif ev.kind == "transfer_read":
                if where != "memory":
                    problem = f"{at} while not in a memory cell"
                where = "read"
            else:
                if where == "memory":
                    problem = f"{at} while in a memory cell"
                elif where not in (None, "read", ev.lane):
                    problem = f"{at} while on {where}"
                elif last_gate is not None \
                        and ev.t_start_s < last_gate.t_end_s - 1e-12:
                    problem = f"{at} overlaps the gate at " \
                              f"{last_gate.t_start_s:.9f}"
                where, last_gate = ev.lane, ev
            if problem:
                problems.append(problem)
                break
    return problems


def check_no_read_back(program) -> list[str]:
    """No qubit is read into a core and written out again before a gate
    uses it: a read is followed, among the qubit's gates, reads and
    writes, by a gate."""
    per_qubit: dict[int, list] = {}
    for ev in program.events:
        on_core = ev.lane.rpartition(":")[2].startswith("core")
        if on_core or ev.kind in ("transfer_write", "transfer_read"):
            for q in ev.qubits:
                per_qubit.setdefault(q, []).append(ev)
    problems = []
    for q, evs in sorted(per_qubit.items()):
        evs.sort(key=lambda e: (e.t_start_s, e.t_end_s))
        for prev, ev in zip(evs, evs[1:]):
            if prev.kind == "transfer_read" and ev.kind == "transfer_write":
                problems.append(f"q{q}: read at {prev.t_start_s:.9f} and "
                                f"written out at {ev.t_start_s:.9f} unused")
    return problems


#: the place of each event of a memory cell's cycle, by (kind, label head)
_CELL_STAGE = {("transfer_write", "write"): 0, ("swap_route", "legs_in"): 1,
               ("idle_buffer", "stored"): 2, ("swap_route", "legs_out"): 3,
               ("transfer_read", "read"): 4}
_READ_STAGE = 4


def check_causality(program) -> list[str]:
    """Events that touch a qubit or a memory cell follow one another.

    Each gate, an event on a core lane, and each ``transfer_write`` starts
    no earlier than the end of the previous gate or read on each of its
    qubits.  A cell lane, one that carries a write, repeats the cycle
    write, legs in, stored dwell, legs out, read; the legs and the dwell
    may be missing, and a clock pad may come right before a write or a
    read.  Each of its events starts no earlier than the previous one
    ends, to within 1e-12 s: an event's end is its start plus its
    duration, which can round one ulp past the next event's start.
    Events are taken in order of start, then end, so a cycle's zero-length
    dwell sorts after the legs in that end where it starts.
    """
    per_qubit: dict[int, list] = {}
    per_cell: dict[str, list] = {}
    cell_lanes = {ev.lane for ev in program.events
                  if ev.kind == "transfer_write"}
    for ev in program.events:
        if ev.lane in cell_lanes:
            per_cell.setdefault(ev.lane, []).append(ev)
        if ev.lane.rpartition(":")[2].startswith("core") \
                or ev.kind in ("transfer_write", "transfer_read"):
            for q in ev.qubits:
                per_qubit.setdefault(q, []).append(ev)
    problems = []
    for q, evs in sorted(per_qubit.items()):
        evs.sort(key=lambda e: (e.t_start_s, e.t_end_s))
        ready, after = 0.0, None
        for ev in evs:
            if ev.kind != "transfer_read" and ev.t_start_s < ready - 1e-12:
                problems.append(f"q{q}: {ev.kind} {ev.label} on {ev.lane} "
                                f"at {ev.t_start_s!r} before the "
                                f"{after.kind} {after.label} on "
                                f"{after.lane} ends at {ready!r}")
                break
            if ev.kind != "transfer_write":
                ready, after = ev.t_end_s, ev
    for lane, evs in sorted(per_cell.items()):
        evs.sort(key=lambda e: (e.t_start_s, e.t_end_s))
        stage, padded, end, problem = _READ_STAGE, False, 0.0, None
        for ev in evs:
            at = f"{lane}: {ev.kind} {ev.label} at {ev.t_start_s!r}"
            if ev.t_start_s < end - 1e-12:
                problem = f"{at} before the previous event ends at {end!r}"
            elif ev.kind == "qec_cycle_stretch":
                if padded:
                    problem = f"{at} after another pad"
                padded = True
            else:
                now = _CELL_STAGE.get((ev.kind, ev.label.partition(":")[0]))
                if now is None:
                    problem = f"{at} is no event of a cell"
                elif not (stage == _READ_STAGE if now == 0 else stage < now):
                    problem = f"{at} out of its cell's cycle"
                elif padded and now not in (0, _READ_STAGE):
                    problem = f"{at} after a clock pad"
                stage, padded = now, False
            if problem:
                problems.append(problem)
                break
            end = ev.t_end_s
    return problems


def check_router_audit(program) -> list[str]:
    problems = []
    for dec in program.audit:
        if dec.reason != "router":
            continue
        if dec.moved and not dec.cost_move < dec.cost_keep:
            problems.append(f"moved q{dec.qubit} at {dec.t_s:.9f} with "
                            f"move {dec.cost_move} >= keep {dec.cost_keep}")
        if not dec.moved and dec.cost_move < dec.cost_keep:
            problems.append(f"kept q{dec.qubit} at {dec.t_s:.9f} with "
                            f"move {dec.cost_move} < keep {dec.cost_keep}")
    return problems


def check_router_prices_legs(program) -> list[str]:
    """A router move costs at least the two swap legs of the cell its
    write lands in: the legs in after the write and the equal legs out
    before the read.  The legs in are the event that follows the write on
    the cell's lane; a qubit's writes pair in time order with its moves in
    the audit."""
    lanes: dict[str, list] = {}
    for ev in program.events:
        if ev.kind in ("transfer_write", "swap_route"):
            lanes.setdefault(ev.lane, []).append(ev)
    writes: dict[int, list[float]] = {}  # qubit -> legs-in error per write
    for evs in lanes.values():
        evs.sort(key=lambda e: e.t_start_s)
        for ev, nxt in zip(evs, evs[1:] + [None]):
            if ev.kind != "transfer_write":
                continue
            legs = nxt is not None and nxt.label.startswith("legs_in")
            writes.setdefault(ev.qubits[0], []).append(
                nxt.error if legs else 0.0)
    seen: dict[int, int] = {}
    problems = []
    for dec in program.audit:
        if not dec.moved:
            continue
        i = seen[dec.qubit] = seen.get(dec.qubit, -1) + 1
        leg_err = writes[dec.qubit][i]
        if dec.reason == "router" and dec.cost_move < 2 * leg_err:
            problems.append(f"moved q{dec.qubit} at {dec.t_s:.9f} for "
                            f"{dec.cost_move} into a cell whose legs cost "
                            f"{leg_err} each")
    return problems


def check_no_routing_swaps(program) -> list[str]:
    n = sum(1 for ev in program.events if ev.kind == "swap_route")
    return [f"{n} routing swaps in a heterogeneous schedule"] if n else []


# ------------------------------------------------------------ random corpus

_GATE_POOL = (("H", 1), ("S", 1), ("X", 1), ("Z", 1), ("T", 1), ("Tdg", 1),
              ("Rz", 1), ("CNOT", 2), ("CZ", 2), ("SWAP", 2), ("CPhase", 2),
              ("Toffoli", 3), ("CCZ", 3))


def random_circuit(rng, n_qubits: int, n_gates: int):
    """Seeded random logical circuit over the full input gate set."""
    from hetqc.circuits import LogicalCircuit

    c = LogicalCircuit(f"rand_{n_qubits}q_{n_gates}g", n_qubits)
    pool = [(k, a) for k, a in _GATE_POOL if a <= n_qubits]
    for _ in range(n_gates):
        kind, arity = pool[rng.randrange(len(pool))]
        qs = rng.sample(range(n_qubits), arity)
        if kind in ("Rz", "CPhase"):
            angle = rng.choice([math.pi / 4, math.pi / 8, -math.pi / 2])
            c.add(kind, *qs, angle=angle)
        else:
            c.add(kind, *qs)
    if rng.random() < 0.5:
        for q in range(0, n_qubits, 2):
            c.add("Measure", q)
    return c
