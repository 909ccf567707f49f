"""Compilation and scheduling of logical circuits onto an architecture.

Pipeline: lower the input gates to the device's native set, consolidate
them into unitary blocks, assign blocks to compute cores, then run a
deterministic in-order simulation per core.  Operands stream through core
slots; a cost router decides after every gate whether an operand stays
resident or moves to memory.  Writes do not block the core, reads do.

The per-lane rule: events that share a lane string never overlap in time.
Core lanes carry gates; a memory cell lane carries the write, the stored
dwell, any swap legs, and the read for one qubit, in that order.

Both schedulers append their events to one :class:`EventStore`: columns
of start, duration and error plus an interned key per event.  They append
to the columns, and the modular one its router decisions to an
:class:`AuditStore`, through ``array.append``s bound once per compile,
with no method call per event.  The modular one appends a gate by the key
id its plan holds, and each memory cell's and each resident's events by
key ids it keeps; the grid model interns each key inline.  A
:class:`ScheduledProgram` is built on that store; its ``events``
is the store itself, a lazy read-only sequence of :class:`ScheduledEvent`
records in schedule order.  The makespan, the event count and the error
budget read the columns and never sort; only the schedule text and reading
the records do.  Its ``audit`` is likewise an :class:`AuditStore`, a lazy
read-only columnar sequence of the router's :class:`RouterDecision` records.

Each stage keeps only what a later one reads: the modular scheduler frees
its unitary blocks once they are assigned to cores, keeping their count,
and holds its per-gate tables as arrays rather than lists of ints.  The
per-gate loops do only per-event work: each core's cycle time and
``log1p(-eps_cycle)`` and each (memory, compute module) pair's bare hop
and passive storage constants are bound once.  The grid model routes on
flat positions and needs no detour (:func:`_schedule_grid`).

The compiles of one circuit on several architectures share their front
end (:class:`_FrontEnd`): the circuit is validated once and lowered once
per factory, and the modular model's read-only plan (its core streams,
per-gate tables and the gates' interned event keys) is built once per
compute side.  A lone ``schedule`` call takes the same path with nothing
to share.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from operator import add, itemgetter
from typing import NamedTuple, NoReturn

from .arch import (ASQPU_FACTORY_UNITS, ArchitectureSpec, LinkSpec,
                   ModuleSpec, validate)
from .circuits import LogicalCircuit
from .qec import (TransferInfeasible, TransferParams, TransferResult,
                  idle_error, logical_error_per_cycle, stqm_storage_valid,
                  transfer_lattice_surgery, transfer_transversal,
                  transversal_error)

#: budget categories, in reporting order
CATEGORIES = ("qpu_idle", "qm_idle", "gate_1q", "gate_2q", "gate_t",
              "transfer", "measure")

EVENT_KINDS = frozenset({"gate", "t_inject", "ccz_inject", "transfer_write",
                         "transfer_read", "swap_route", "idle_buffer",
                         "qec_cycle_stretch"})

#: event kind of a lowered gate by its cost key; every other key is a "gate"
_INJECT_KINDS = {"t": "t_inject", "rz": "t_inject", "toffoli_t": "t_inject",
                 "ccz": "ccz_inject"}

_FAR = 1 << 60
#: router costs a core keeps, for the first (memory, gap, legs) it meets:
#: a 1000-qubit AQFT on A1 meets 44, a 16x16 Hubbard 2369 worth 0.5 MB
_ROUTE_KEYS = 64


class CompileError(RuntimeError):
    """Raised when a circuit cannot be scheduled on an architecture."""


class InvalidCircuit(CompileError):
    """Raised when the circuit itself fails validation."""


def rz_t_count(eps_magic: float) -> int:
    """T states for one synthesized rotation at the factory's output error."""
    if not 0 < eps_magic < 1:
        raise ValueError("eps_magic outside (0, 1)")
    return math.ceil(3 * math.log2(1 / eps_magic))


# Records made once per gate or event are named tuples: immutable like a
# frozen dataclass, at about a quarter of its construction cost.

class ScheduledEvent(NamedTuple):
    t_start_s: float
    duration_s: float
    kind: str
    module: str
    lane: str
    qubits: tuple[int, ...]
    label: str
    error: float
    category: str

    @property
    def t_end_s(self) -> float:
        return self.t_start_s + self.duration_s


class RouterDecision(NamedTuple):
    t_s: float
    core: str
    qubit: int
    gap_cycles: int
    cost_keep: float
    cost_move: float
    moved: bool
    reason: str  # router | capacity | cross_core | terminal


#: a key's sort fields after the start time: (module, lane, kind, qubits)
_SORT_FIELDS = itemgetter(1, 2, 0, 3)
_CATEGORY = itemgetter(5)
_CYCLES = itemgetter(0)    # of a (cycles, error) cost


def _drain(calls: Iterator[None]) -> None:
    """Run ``calls``, a ``map`` of a method that returns None, to its end.

    ``any`` reads every None at C speed and allocates nothing.  The usual
    ``deque(calls, maxlen=0)`` mallocs a 528-byte block per call, and the
    last one freed in a compile stays in glibc's per-thread cache wherever
    it landed: high in a heap spread out by the compile's columns, it
    splits the freed space, so the next large allocation extends the heap
    instead, and peak RSS differs from one run to the next.
    """
    any(calls)


class EventStore(Sequence):
    """The events of one schedule, kept as columns.

    An event's start, duration and error go to ``array('d')`` columns, and
    the rest, (kind, module, lane, qubits, label, category), to ``key`` as
    the id that ``ids`` maps that key to, interned right before its first
    event.  A schedule repeats few such keys over many events.  A store
    made from ``keys`` starts with them interned, in their order.  The
    columns stay in emission order.

    ``add`` appends one event by its fields.  The schedulers append to the
    columns themselves, through the bound ``append``s of :meth:`appends`,
    by ids they intern with ``ids.setdefault(key, len(ids))``.

    As a sequence the store is read-only and holds :class:`ScheduledEvent`
    records in schedule order: by start time, then module, lane, kind and
    qubits, with ties in emission order.  That order is worked out on the
    first read of an element, never for ``len`` or the makespan.  So the
    ids themselves are never seen: two stores that append the same events
    by different ids read the same.
    """

    __slots__ = ("start", "dur", "err", "key", "ids", "_keys", "_order")

    def __init__(self, keys: Iterable[tuple] = ()):
        self.start = array("d")
        self.dur = array("d")
        self.err = array("d")
        self.key = array("i")
        self.ids: dict[tuple, int] = dict(zip(keys, count()))
        self._keys: list[tuple] = []
        self._order = array("i")

    def add(self, t_start_s: float, duration_s: float, kind: str,
            module: str, lane: str, qubits: tuple[int, ...], label: str,
            error: float, category: str) -> None:
        """Append one event; the arguments are a ScheduledEvent's fields."""
        ids = self.ids
        self.key.append(ids.setdefault(
            (kind, module, lane, qubits, label, category), len(ids)))
        self.start.append(t_start_s)
        self.dur.append(duration_s)
        self.err.append(error)

    def appends(self) -> tuple:
        """The bound ``append`` of the key, start, duration and error
        columns, in that order; an event goes to all four."""
        return (self.key.append, self.start.append, self.dur.append,
                self.err.append)

    @property
    def keys(self) -> list[tuple]:
        """Each distinct (kind, module, lane, qubits, label, category)."""
        if len(self._keys) != len(self.ids):
            self._keys = list(self.ids)
        return self._keys

    def makespan(self) -> float:
        """The latest event end, 0.0 for no events."""
        return max(map(add, self.start, self.dur), default=0.0)

    def order(self) -> array:
        """Column indices of the events in schedule order."""
        if len(self._order) != len(self.key):
            # two stable sorts, least significant key first, and no tuple
            # per event: each event's index goes to the bucket of its
            # sort fields, the buckets are joined in field order, and that
            # list is sorted by start time.  Keys with equal fields share
            # one bucket, so their events stay in emission order.
            keys = self.keys
            fields = list(map(_SORT_FIELDS, keys))
            bucket_of: list = [None] * len(keys)
            buckets: list[list[int]] = []
            last = None
            for k in sorted(range(len(keys)), key=fields.__getitem__):
                if not buckets or fields[k] != last:
                    last = fields[k]
                    buckets.append([])
                bucket_of[k] = buckets[-1]
            # list.append(bucket, index) per event, at C speed
            _drain(map(list.append, map(bucket_of.__getitem__, self.key),
                       range(len(self.key))))
            del fields, last, bucket_of
            order = list(chain.from_iterable(buckets))
            del buckets
            order.sort(key=self.start.__getitem__)
            self._order = array("i", order)
        return self._order

    def record(self, i: int) -> ScheduledEvent:
        """The event in column ``i``, counted in emission order."""
        kind, module, lane, qubits, label, category = self.keys[self.key[i]]
        return ScheduledEvent(self.start[i], self.dur[i], kind, module, lane,
                              qubits, label, self.err[i], category)

    def __len__(self) -> int:
        return len(self.key)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in self.order()[i]]
        return self.record(self.order()[i])

    def __iter__(self) -> Iterator[ScheduledEvent]:
        return map(self.record, self.order())


class AuditStore(Sequence):
    """The router's keep-or-move decisions of one schedule, kept as columns.

    A decision's time and its two costs go to ``array('d')`` columns, its
    qubit and gap to ``array('q')`` ones, and (core, moved, reason) to
    ``kind`` as the id that ``ids`` maps it to, interned on first use.
    ``add`` appends one decision by its fields; the modular scheduler
    appends to the columns itself, by ids it interns once per core.  As a
    sequence the store is read-only and holds :class:`RouterDecision`
    records in the order they were added; ``len`` builds none.
    """

    __slots__ = ("t_s", "qubit", "gap_cycles", "cost_keep", "cost_move",
                 "kind", "ids", "_kinds")

    def __init__(self):
        self.t_s = array("d")
        self.qubit = array("q")
        self.gap_cycles = array("q")
        self.cost_keep = array("d")
        self.cost_move = array("d")
        self.kind = array("i")
        self.ids: dict[tuple[str, bool, str], int] = {}
        self._kinds: list[tuple[str, bool, str]] = []

    def add(self, t_s: float, core: str, qubit: int, gap_cycles: int,
            cost_keep: float, cost_move: float, moved: bool,
            reason: str) -> None:
        """Append one decision; the arguments are a RouterDecision's fields."""
        ids = self.ids
        self.kind.append(ids.setdefault((core, moved, reason), len(ids)))
        self.t_s.append(t_s)
        self.qubit.append(qubit)
        self.gap_cycles.append(gap_cycles)
        self.cost_keep.append(cost_keep)
        self.cost_move.append(cost_move)

    def appends(self) -> tuple:
        """The bound ``append`` of the kind, time, qubit, gap and two cost
        columns, in that order; a decision goes to all six."""
        return (self.kind.append, self.t_s.append, self.qubit.append,
                self.gap_cycles.append, self.cost_keep.append,
                self.cost_move.append)

    @property
    def kinds(self) -> list[tuple[str, bool, str]]:
        """Each distinct (core, moved, reason)."""
        if len(self._kinds) != len(self.ids):
            self._kinds = list(self.ids)
        return self._kinds

    def record(self, i: int) -> RouterDecision:
        core, moved, reason = self.kinds[self.kind[i]]
        return RouterDecision(self.t_s[i], core, self.qubit[i],
                              self.gap_cycles[i], self.cost_keep[i],
                              self.cost_move[i], moved, reason)

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(len(self))[i]]
        return self.record(range(len(self))[i])

    def __iter__(self) -> Iterator[RouterDecision]:
        return map(self.record, range(len(self)))


@dataclass
class ScheduledProgram:
    """A schedule; ``events`` is the store both schedulers fill, ``audit``
    the router's decisions."""

    circuit_name: str
    arch_name: str
    events: EventStore
    makespan_s: float
    counters: dict[str, int]
    audit: AuditStore
    n_blocks: int
    warnings: list[str] = field(default_factory=list)

    def lines(self) -> Iterator[str]:
        """The lines of :meth:`to_text`, each ending in a newline.

        A schedule repeats few durations, errors and keys across many
        events, so each distinct one is formatted once.  The events come
        sorted by start, so equal starts are adjacent: a start is formatted
        where it changes, and a zero every time, since ``0.0 == -0.0``.
        """
        yield f"circuit {self.circuit_name} on {self.arch_name}\n"
        yield f"makespan_s {self.makespan_s!r}\n"
        yield " ".join(f"{k}={v}" for k, v in sorted(self.counters.items())) \
            + "\n"
        yield "t_start_s duration_s kind module lane label qubits error\n"
        store = self.events
        middles = [f"{kind} {module} {lane} {label} {','.join(map(str, qs))}"
                   for kind, module, lane, qs, label, _ in store.keys]
        reprs, last, text = _Reprs(), None, ""
        start, dur, err, key = store.start, store.dur, store.err, store.key
        for i in store.order():
            if (t := start[i]) != last or not t:
                last, text = t, repr(t)
            yield f"{text} {reprs[dur[i]]} {middles[key[i]]} {reprs[err[i]]}\n"

    def to_text(self) -> str:
        return "".join(self.lines())


class _Reprs(dict):
    """float -> its ``repr``, formatted on first lookup.

    Zeros are not kept: ``0.0 == -0.0`` would make them share one entry.
    """

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            self[x] = text
        return text


class _Logs(dict):
    """error -> ``-log1p(-error)``, clamped below 1, taken on first lookup.

    An error that is not positive counts as a log of 0.0, which leaves an
    ``fsum`` as it was; a NaN one also sets ``nan``.
    """

    nan = False

    def __missing__(self, err: float) -> float:
        if err > 0.0:
            log = self[err] = -math.log1p(-min(err, 1 - 1e-16))
            return log
        if err != err:
            self.nan = True
        return 0.0


@dataclass
class ErrorBudget:
    """Total failure probability split over the seven fixed categories.

    Masses are log-domain shares of the total, so they stay additive no
    matter how many events each category holds and they sum to the total.
    """

    total: float
    categories: dict[str, float]

    @classmethod
    def from_events(cls, events: Iterable[ScheduledEvent]) -> "ErrorBudget":
        """Budget of any events; a schedule's store is read as it is.

        One pass over the key and error columns files each event's
        ``-log1p(-error)``, taken once per distinct error, under the
        category of its key.  ``fsum`` rounds correctly, so the sums do not
        depend on the order of the events.
        """
        if not isinstance(events, EventStore):
            store = EventStore()
            for ev in events:
                store.add(*ev)
            events = store
        parts: dict[str, list[float]] = {c: [] for c in CATEGORIES}
        part_of_key = list(map(parts.__getitem__,
                               map(_CATEGORY, events.keys)))
        logs_of = _Logs()
        # list.append(part, log) per event, at C speed
        _drain(map(list.append, map(part_of_key.__getitem__, events.key),
                   map(logs_of.__getitem__, events.err)))
        if logs_of.nan:
            ev = next(ev for ev in events if math.isnan(ev.error))
            raise ValueError(f"NaN error on {ev.kind} event {ev.label} "
                             f"at {ev.t_start_s!r} s on {ev.lane}")
        logs = {c: math.fsum(parts[c]) for c in CATEGORIES}
        log_total = math.fsum(logs.values())
        if log_total == 0.0:
            return cls(0.0, {c: 0.0 for c in CATEGORIES})
        total = -math.expm1(-log_total)
        return cls(total, {c: total * (logs[c] / log_total)
                           for c in CATEGORIES})

    def rows(self) -> list[tuple[str, float]]:
        return [(c, self.categories[c]) for c in CATEGORIES]

    def dominant(self) -> str:
        return max(CATEGORIES, key=lambda c: self.categories[c])


def error_budget(program: ScheduledProgram) -> ErrorBudget:
    return ErrorBudget.from_events(program.events)


def synchronize_clocks(t_qm_s: float, t_qpu_s: float, t_min_s: float,
                       t_max_s: float) -> tuple[float, bool]:
    """Align a memory cycle to a whole number of compute cycles.

    Returns the effective memory cycle and a stretch flag.  The nearest
    multiple of ``t_qpu_s`` inside [t_min_s, t_max_s] wins, ties round up
    (50.5 us aligns to 51 us for a 1 us core).  When no multiple fits the
    window the nominal cycle is kept and the flag is set; the scheduler then
    pads each transfer to the next compute-cycle boundary.
    """
    if t_qm_s <= 0 or t_qpu_s <= 0:
        raise ValueError("cycle times must be positive")
    ratio = t_qm_s / t_qpu_s
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) < 1e-9:
        return nearest * t_qpu_s, False
    slack = 1e-9 * t_qpu_s
    cands = [n for n in (math.floor(ratio), math.floor(ratio) + 1)
             if n >= 1 and t_min_s - slack <= n * t_qpu_s <= t_max_s + slack]
    if not cands:
        return t_qm_s, True
    best = min(cands, key=lambda n: (abs(n * t_qpu_s - t_qm_s), -n))
    return best * t_qpu_s, False


# ------------------------------------------------------------- gate lowering

class LoweredGate(NamedTuple):
    cost_key: str  # 1q | 2q | measure | t | rz | ccz | toffoli_t
    label: str
    qubits: tuple[int, ...]
    category: str
    magic: int = 0
    n_cnot: int = 0
    n_t: int = 0
    n_swap: int = 0
    tag: str | None = None


#: op kinds whose lowering takes magic states
_MAGIC_KINDS = frozenset({"T", "Tdg", "Rz", "CPhase", "Toffoli", "CCZ"})


def _lowering_templates(factory_state: str | None,
                        t_per_rz: int) -> dict[str, tuple]:
    """op kind -> (rows, order): each row a :class:`LoweredGate` but for
    its tag, its qubits a slice of the op's or None for the op's own tuple,
    and ``order`` picking the rows' records in sequence, None for each row
    once.  A gate that recurs in an op is one row, so one record."""
    g = LoweredGate
    cnot = g("2q", "CNOT", None, "gate_2q", n_cnot=1)
    rz = [g("rz", "Rz", qs, "gate_t", magic=t_per_rz, n_t=t_per_rz)
          for qs in (None, slice(0, 1), slice(1, 2))]
    # the factory's state runs natively; the other three-qubit kind flips
    # its target's basis around it
    if factory_state == "CCZ":
        native, flipped = g("ccz", "CCZ", None, "gate_t", magic=1), "Toffoli"
    else:
        native, flipped = g("toffoli_t", "Toffoli", None, "gate_t", magic=4,
                            n_cnot=3, n_t=4), "CCZ"
    rows = [g("1q", k, None, "gate_1q") for k in ("H", "S", "X", "Z", "Prep")]
    rows += [g("t", k, None, "gate_t", magic=1, n_t=1) for k in ("T", "Tdg")]
    rows += [g("2q", k, None, "gate_2q", n_cnot=1) for k in ("CNOT", "CZ")]
    rows += [rz[0], native, g("measure", "Measure", None, "measure")]
    templates = {row.label: ((row,), None) for row in rows}
    templates["SWAP"] = ((cnot._replace(n_swap=1), cnot._replace(
        qubits=slice(None, None, -1)), cnot), None)
    templates["CPhase"] = ((rz[1], rz[2], cnot), itemgetter(0, 1, 2, 1, 2))
    templates[flipped] = ((g("1q", "H", slice(2, 3), "gate_1q"), native),
                          itemgetter(0, 1, 0))
    return templates


def lower_circuit(circuit: LogicalCircuit, factory_state: str | None,
                  eps_magic: float) -> list[LoweredGate]:
    """Translate circuit ops to device-native lowered gates, in order, by
    the templates of :func:`_lowering_templates`."""
    ops = circuit.ops
    kinds = {op.kind for op in ops}
    needs_magic = not kinds.isdisjoint(_MAGIC_KINDS)
    if needs_magic and factory_state is None:
        raise CompileError("circuit needs magic states but the architecture "
                           "has no factory module")
    templates = _lowering_templates(
        factory_state, rz_t_count(eps_magic) if needs_magic else 0)
    if not kinds <= templates.keys():
        k = next(op.kind for op in ops if op.kind not in templates)
        raise CompileError(f"no lowering for gate kind {k!r}")
    new, out = tuple.__new__, []
    for op in ops:
        rows, order = templates[op.kind]
        q, tag = op.qubits, op.tag
        made = []
        for key, label, qs, cat, magic, n_cnot, n_t, n_swap, _ in rows:
            made.append(new(LoweredGate, (key, label,
                                          q if qs is None else q[qs], cat,
                                          magic, n_cnot, n_t, n_swap, tag)))
        out += made if order is None else order(made)
    return out


def _lowering_key(qsf: ModuleSpec | None) -> tuple[str | None, float]:
    """The (factory state, eps_magic) that lowering reads of a factory."""
    return (qsf.state, qsf.eps_magic) if qsf else (None, 2.1e-9)


class _Lowering(NamedTuple):
    """A circuit's lowered gates, and the counters of a schedule of them
    before its transfers and routing swaps, as (name, count) pairs."""

    gates: list[LoweredGate]
    counters: tuple[tuple[str, int], ...]


def _lowering(circuit: LogicalCircuit, factory_state: str | None,
              eps_magic: float) -> _Lowering:
    lowered = lower_circuit(circuit, factory_state, eps_magic)
    n_cnot, n_t, n_swap = (sum(map(itemgetter(i), lowered))
                           for i in range(5, 8))  # their n_ fields
    return _Lowering(lowered, (("cnot_count", n_cnot), ("st_count", 0),
                               ("t_count", n_t), ("swap_count", n_swap)))


def _module_costs(module: ModuleSpec,
                  qsf: ModuleSpec | None) -> dict[str, tuple[int, float]]:
    """cost_key -> (cycles on this module, error per execution)."""
    d = module.code.distance
    eps = logical_error_per_cycle(module.modality.p_phys,
                                  module.modality.p_th, d)
    eps_2q = idle_error(eps, d)
    costs = {"1q": (1, eps), "2q": (d, eps_2q), "measure": (d, eps_2q)}
    if qsf is not None:
        inj = qsf.injection_cycles
        em = qsf.eps_magic
        n_rz = rz_t_count(em)
        costs["t"] = (inj, em)
        costs["rz"] = (n_rz * inj, -math.expm1(n_rz * math.log1p(-em)))
        costs["ccz"] = (inj, em)
        costs["toffoli_t"] = (
            4 * inj + 3 * d,
            -math.expm1(4 * math.log1p(-em) + 3 * math.log1p(-eps_2q)))
    return costs


# ------------------------------------------------------- block consolidation

@dataclass
class UnitaryBlock:
    index: int
    gates: list[int]
    qubits: set[int]
    tag: str | None
    deps: set[int] = field(default_factory=set)


def consolidate_blocks(lowered: list[LoweredGate],
                       max_qubits: int) -> list[UnitaryBlock]:
    """Group gates into tag-uniform blocks of bounded support.

    Earliest-fit: a gate joins the first block at or after its dependency
    frontier whose tag matches and whose support stays within the bound.

    ``last_touch`` never decreases, so no block past the frontier holds any
    of the gate's qubits and there a fit is a matter of free room alone.
    Only the frontier block needs the union test; the first fitting block
    after it comes from a per-tag index of open blocks, found by bisection.
    Room is counted only up to the largest gate arity, so the index costs
    the same whatever the core capacity.
    """
    max_arity = max((len(g.qubits) for g in lowered), default=1)
    max_qubits = max(max_qubits, max_arity)
    blocks: list[UnitaryBlock] = []
    last_touch: dict[int, int] = {}
    touched = last_touch.get
    # tag -> [need] -> ascending indices of blocks with room >= need
    open_blocks: dict[str | None, list[list[int]]] = {}
    for gi, g in enumerate(lowered):
        qubits, tag = g.qubits, g.tag
        frontier = 0
        for q in qubits:
            b = touched(q, 0)
            if b > frontier:
                frontier = b
        chosen = None
        if frontier < len(blocks):
            b = blocks[frontier]
            if b.tag == tag:
                # the union test: room for the qubits b does not hold yet
                held = b.qubits
                room = max_qubits - len(held)
                for q in qubits:
                    if q not in held:
                        room -= 1
                if room >= 0:
                    chosen = b
        by_room = open_blocks.get(tag)
        if chosen is None and by_room is not None:
            # operands are distinct, so the gate needs one slot for each
            fits = by_room[len(qubits)]
            i = bisect_right(fits, frontier)
            if i < len(fits):
                chosen = blocks[fits[i]]
        if chosen is None:
            chosen = UnitaryBlock(len(blocks), [], set(), tag)
            blocks.append(chosen)
            if by_room is None:
                by_room = open_blocks[tag] = [[] for _ in
                                              range(max_arity + 1)]
            for fits in by_room:
                fits.append(chosen.index)
        index, held = chosen.index, chosen.qubits
        before = len(held)
        chosen.gates.append(gi)
        held.update(qubits)
        free = max_qubits - len(held)
        if free < max_arity and len(held) > before:
            # drop the block from the lists of needs it no longer meets
            for need in range(free + 1,
                              min(max_qubits - before, max_arity) + 1):
                fits = by_room[need]
                del fits[bisect_left(fits, index)]
        for q in qubits:
            prev = touched(q)
            if prev is not None and prev != index:
                chosen.deps.add(prev)
            last_touch[q] = index
    return blocks


# ------------------------------------------------------------ runtime model

def _touch_tables(lowered: list[LoweredGate]
                  ) -> tuple[dict[int, array], array, array, array]:
    """(touches, first_slot, prev_gate, next_gate) of a lowered gate list.

    ``touches`` maps each qubit to its gates in ascending order.  The other
    three are flat tables, not one record per gate: gate ``gi``'s operands
    own the slots ``first_slot[gi]`` up to ``first_slot[gi + 1]``, in the
    order of its qubits, and for each slot ``prev_gate`` holds the gate
    that touched that qubit last before ``gi`` and ``next_gate`` the one
    that touches it next after ``gi``, -1 for none.  All are ``array('i')``,
    four bytes an entry.
    """
    # filled as lists, whose appends cost a third of an array's, and
    # copied to arrays once at the end
    touches: dict[int, list[int]] = {}
    first, prev, nxt = [0], [], []
    last_slot: dict[int, int] = {}  # qubit -> slot of its latest touch
    for gi, g in enumerate(lowered):
        for q in g.qubits:
            s = last_slot.get(q)
            if s is None:
                mine = touches[q] = []
                prev.append(-1)
            else:
                mine = touches[q]
                prev.append(mine[-1])
                nxt[s] = gi
            mine.append(gi)
            last_slot[q] = len(nxt)
            nxt.append(-1)
        first.append(len(nxt))
    return ({q: array("i", gis) for q, gis in touches.items()},
            array("i", first), array("i", prev), array("i", nxt))


def _swap_distances(n: int, k: int) -> list[int]:
    """Swap distance of each of ``n`` memory cells at reach ``k``.

    Equal to ``transfer_patch_layout(n, k).storage_distances`` without
    placing any cell: patches fill in turn, and each stores one qubit on
    itself and ``4d + 4`` at each swap distance ``d`` from 1 to ``k``.
    """
    patch = [0]
    for d in range(1, k + 1):
        patch += [d] * (4 * d + 4)
    return (patch * (n // len(patch) + 1))[:n]


@dataclass
class _Pool:
    """Magic-state supply of ``units`` factories, ``prod`` cycles per state.

    A gate that takes ``n`` states adds them to ``consumed`` and waits
    until ``consumed * prod * t_cycle / units``, when the last is ready;
    each model's gate loop takes them so, in that order of operations.
    """

    units: int
    prod: int
    t_cycle: float
    consumed: int = 0


def _factory_pool(qsf: ModuleSpec) -> _Pool:
    return _Pool(max(qsf.n_logical, 1), qsf.production_cycles, qsf.t_cycle_s)


@dataclass
class _Core:
    module: ModuleSpec
    index: int  # in dispatch order
    lane: str
    capacity: int
    costs: dict[str, tuple[int, float]]
    eps_cycle: float
    t_cycle: float
    log_keep: float  # log1p(-eps_cycle), see _log_keep
    t_free: float = 0.0
    residents: dict[int, float] = field(default_factory=dict)  # q -> busy end
    incoming: dict[int, float] = field(default_factory=dict)   # q -> arrival
    stream: array | None = None  # its gates in order, the plan's
    pos: int = 0
    pool: _Pool | None = None  # magic-state supply
    idle_ids: dict[int, int] = field(default_factory=dict)  # q -> idle key id
    # audit kind ids of its decisions, interned on first use: a kept
    # operand's, and a moved one's by reason
    kept_id: int = -1
    moved_ids: dict[str, int] = field(default_factory=dict)


def _log_keep(eps_cycle: float) -> float:
    """``log1p(-eps_cycle)``, checked as in :func:`idle_error`, so that
    ``-math.expm1(cycles * log)`` is ``idle_error(eps_cycle, cycles)``."""
    if not 0 <= eps_cycle < 1:
        raise ValueError("eps_cycle outside [0, 1)")
    return math.log1p(-eps_cycle)


def _build_cores(arch: ArchitectureSpec,
                 qsf: ModuleSpec | None) -> list[_Core]:
    """The compute cores of a validated architecture, in dispatch order:
    specialty cores first, so that an estimate tie dispatches to them."""
    cores: list[_Core] = []
    shared = _factory_pool(qsf) if qsf is not None else None
    for m in sorted(arch.compute_modules(),
                    key=lambda m: (m.specialty is None, m.id)):
        costs = _module_costs(m, qsf)
        # an ASQPU's cores share its own magic-state pool
        pool = shared if m.kind != "ASQPU" else _Pool(
            ASQPU_FACTORY_UNITS, 4 * m.code.distance, m.t_cycle_s)
        eps, log_keep = costs["1q"][1], _log_keep(costs["1q"][1])
        for ci in range(m.cores):
            cores.append(_Core(m, len(cores), f"{m.id}:core{ci}",
                               m.capacity_per_core, costs, eps, m.t_cycle_s,
                               log_keep, pool=pool))
    return cores


# ------------------------------------------------------------------ the plan

class _Plan(NamedTuple):
    """The modular model's set-up of one lowering on one compute side.

    ``streams`` holds each core's gates in order, cores in dispatch order;
    ``core_of_gate`` each gate's core, as its index in that order, and
    ``cycle_at`` the cycles of its core's stream before it.  ``gate_keys``
    lists the distinct (kind, module, lane, qubits, label, category) keys
    of the gates' events on their cores, in the order of the streams, and
    ``gate_key`` gives each gate's key as its index there.  The touch
    tables are those of :func:`_touch_tables`.  A plan is read-only: every
    compile that shares it reads these arrays and writes none of them.
    """

    n_blocks: int
    streams: tuple[array, ...]
    core_of_gate: array
    cycle_at: array
    gate_key: array
    gate_keys: list[tuple]
    touches: dict[int, array]
    first_slot: array
    prev_gate: array
    next_gate: array


def _plan_key(cores: list[_Core], lowering_key: tuple) -> tuple:
    """All that :func:`_build_plan` reads of ``cores``, and the lowering."""
    return lowering_key, tuple(
        (c.lane, c.module.kind, c.module.specialty, c.capacity,
         c.module.t_cycle_s, tuple(c.costs.items())) for c in cores)


def _assign_blocks(cores: list[_Core], lowered: list[LoweredGate],
                   blocks: list[UnitaryBlock]) -> tuple[list[array], int]:
    """(each core's stream, the block count): every block's gates go to
    the stream of the eligible core estimated to finish it first."""
    streams = [array("i") for _ in cores]
    finish: dict[int, float] = {}
    free = [0.0] * len(cores)
    for b in blocks:
        best = None
        for core in cores:
            if core.module.kind == "ASQPU" \
                    and b.tag != core.module.specialty:
                continue
            cyc = sum(core.costs[lowered[gi].cost_key][0] for gi in b.gates)
            start = max([free[core.index]] + [finish[d] for d in b.deps])
            est = start + cyc * core.module.t_cycle_s
            if best is None or est < best[0]:
                best = (est, core)
        # the QPU's cores take any block
        est, core = best
        finish[b.index] = est
        free[core.index] = est
        streams[core.index].extend(b.gates)
    return streams, len(blocks)


def _build_plan(cores: list[_Core], lowered: list[LoweredGate]) -> _Plan:
    """The plan of ``lowered`` on ``cores``, read through :func:`_plan_key`."""
    # the blocks are read only here, and freed once assigned
    streams, n_blocks = _assign_blocks(cores, lowered, consolidate_blocks(
        lowered, max(c.capacity for c in cores)))
    # the touch tables first: their lists peak above the arrays they leave
    tables = _touch_tables(lowered)
    n = len(lowered)
    core_of_gate = array("i", bytes(4 * n))
    cycle_at = array("q", bytes(8 * n))
    gate_key = array("i", bytes(4 * n))
    key_ids = defaultdict(count().__next__)  # key -> id, in order of use
    for core, stream in zip(cores, streams):
        # per gate of the stream, at C speed: one pass for each field read
        by_cycles, by_kind, labels, qubits, categories = (
            map(itemgetter(i), map(lowered.__getitem__, stream))
            for i in (0, 0, 1, 2, 3))
        costs = map(core.costs.__getitem__, by_cycles)
        _drain(map(cycle_at.__setitem__, stream,
                   accumulate(map(_CYCLES, costs), initial=0)))
        _drain(map(core_of_gate.__setitem__, stream, repeat(core.index)))
        keys = zip(map(_INJECT_KINDS.get, by_kind, repeat("gate")),
                   repeat(core.module.id), repeat(core.lane), qubits, labels,
                   categories)
        _drain(map(gate_key.__setitem__, stream,
                   map(key_ids.__getitem__, keys)))
    return _Plan(n_blocks, tuple(streams), core_of_gate, cycle_at, gate_key,
                 list(key_ids), *tables)


# ------------------------------------------------------------- the front end

class _Job(NamedTuple):
    """One compile of a :class:`_FrontEnd`: its architecture and either the
    error that refuses it or its QPU, factory and cores (None on the grid
    model), and the keys of the lowering and plan it reads."""

    arch: ArchitectureSpec
    error: CompileError | None
    qpu: ModuleSpec | None = None
    qsf: ModuleSpec | None = None
    cores: list[_Core] | None = None
    keys: tuple = ()


class _FrontEnd:
    """The compiles of one circuit on a list of architectures, each run
    once, by :meth:`schedule`; a job's cores hold that one run's state.

    All validation happens here, up front: the circuit's once, and each
    architecture's once.  An invalid circuit raises
    :class:`InvalidCircuit` at every compile, with the circuit's problems
    and then the architecture's; an invalid architecture raises
    :class:`CompileError`.  The circuit is lowered once per (factory
    state, eps_magic) and a :class:`_Plan` is built once per compute side
    and lowering.  Each is kept only until the last compile that reads it
    has run; the two kinds of key never compare equal.
    """

    def __init__(self, circuit: LogicalCircuit,
                 archs: Sequence[ArchitectureSpec]):
        self.circuit = circuit
        circuit_problems = circuit.validate()
        self.jobs = [self._job(arch, circuit_problems) for arch in archs]
        # how many compiles still to run read each lowering and plan
        self._uses = Counter(key for job in self.jobs for key in job.keys)
        self._kept: dict[tuple, _Lowering | _Plan] = {}
        self._live: int | None = None

    @staticmethod
    def _job(arch: ArchitectureSpec, circuit_problems: list[str]) -> _Job:
        problems = circuit_problems + validate(arch)
        if problems:
            error = InvalidCircuit if circuit_problems else CompileError
            return _Job(arch, error("; ".join(problems)))
        qpu, qsf = arch.by_kind("QPU")[0], (arch.by_kind("QSF") or [None])[0]
        lowering_key = _lowering_key(qsf)
        if not arch.memory_modules():
            return _Job(arch, None, qpu, qsf, None, (lowering_key,))
        cores = _build_cores(arch, qsf)
        return _Job(arch, None, qpu, qsf, cores,
                    (lowering_key, _plan_key(cores, lowering_key)))

    def schedule(self, i: int) -> ScheduledProgram:
        """The schedule of the ``i``-th architecture.

        Without memory modules it runs on the grid model, otherwise on the
        modular scheduler.
        """
        job = self.jobs[i]
        try:
            if job.error is not None:
                raise job.error
            if job.cores is None:
                return _schedule_grid(self, job)
            return _Scheduler(self, job).run()
        finally:
            for key in job.keys:
                self._uses[key] -= 1
                if not self._uses[key]:
                    self._kept.pop(key, None)

    def live_qubits(self) -> int:
        """Qubits that some op touches and that are not measured last.

        Read from the ops, before lowering: every op touches all of its
        qubits in some lowered gate, and ``Measure`` is the only op that
        lowers to a ``measure`` gate, so the count is the same.
        """
        if self._live is None:
            last_kind: dict[int, str] = {}
            for op in self.circuit.ops:
                for q in op.qubits:
                    last_kind[q] = op.kind
            self._live = sum(kind != "Measure"
                             for kind in last_kind.values())
        return self._live

    def lowering(self, job: _Job) -> _Lowering:
        return self._shared(job.keys[0], _lowering, self.circuit,
                            *job.keys[0])

    def plan(self, job: _Job, lowered: list[LoweredGate]) -> _Plan:
        return self._shared(job.keys[1], _build_plan, job.cores, lowered)

    def _shared(self, key: tuple, build, *args):
        """What ``key`` names, built by ``build(*args)`` on first use."""
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = build(*args)
        return kept


class _InfeasibleHop(TransferInfeasible):
    """A refused hop; reading its error or duration raises a fresh copy."""

    @property
    def error(self) -> float:
        raise TransferInfeasible(*self.args)

    duration_s = error


class _Cell:
    """A claimed memory cell; its event key ids are -1 until first used."""

    __slots__ = ("lane", "qs", "dist", "leg_dur", "leg_err", "write_id",
                 "legs_in_id", "stored_id", "legs_out_id", "read_id")

    def __init__(self, lane: str, qs: tuple[int], dist: int, leg_dur: float,
                 leg_err: float):
        self.lane, self.qs = lane, qs
        self.dist, self.leg_dur, self.leg_err = dist, leg_dur, leg_err
        self.write_id = self.legs_in_id = self.stored_id = -1
        self.legs_out_id = self.read_id = -1


@dataclass
class _Memory:
    module: ModuleSpec
    links: dict[str, LinkSpec]             # compute module id -> link
    t_qm_eff: float
    stretched: bool
    eps_cycle: float | None                # None when storage is passive
    log_keep: float | None                 # log1p(-eps_cycle), or None
    swap_dist: list[int]                   # per cell, all zero if k_swap == 0
    cells: dict[int, _Cell] = field(default_factory=dict)  # qubit -> cell
    write_end: dict[int, float] = field(default_factory=dict)
    # linked compute module id -> its bare boundary hop, resolved up front
    hops: dict[str, TransferResult | _InfeasibleHop] = field(
        default_factory=dict)
    # passive storage: linked compute module id -> (eps_qpu, d_qpu, eps_th,
    # eps_tele, t2_s, bare hop error), the error None for a refused hop
    passive: dict[str, tuple] = field(default_factory=dict)

    # transfer legs: physical transport inside the memory lattice before and
    # after the boundary hop, three memory CNOTs per swap step
    def legs(self, cell: int) -> tuple[int, float, float]:
        """(swap steps, duration_s, error) of each leg of a cell's transfer."""
        dist = self.swap_dist[cell]
        if dist == 0 or self.eps_cycle is None:
            return 0, 0.0, 0.0
        d_qm = self.module.code.distance
        eps_cnot = idle_error(self.eps_cycle, d_qm)
        err = -math.expm1(3 * dist * math.log1p(-eps_cnot))
        return dist, 3 * dist * d_qm * self.t_qm_eff, err


class _Scheduler:
    """The modular model; ``validate`` links each core to some memory.

    It is built on a job of a :class:`_FrontEnd`, whose cores it runs, and
    reads the front end's shared lowering and plan.
    """

    def __init__(self, front: _FrontEnd, job: _Job):
        self.circuit = front.circuit
        self.arch = job.arch
        self.t_qpu = job.qpu.t_cycle_s
        self.audit = AuditStore()
        self.warnings: list[str] = []
        self.cores = job.cores
        self.memories = self._build_memories()
        self._check_capacity(front.live_qubits())
        lowering = front.lowering(job)
        self.lowered = lowering.gates
        self.counters = dict(lowering.counters)
        plan = front.plan(job, self.lowered)
        self.n_blocks = plan.n_blocks
        for core, stream in zip(self.cores, plan.streams):
            core.stream = stream
        self.plan = plan
        # the gates' keys first, so that a gate appends its plan's key id
        self.events = EventStore(plan.gate_keys)
        self.q_mem: dict[int, _Memory] = {}

    # -- construction ------------------------------------------------------

    def _build_memories(self) -> list[_Memory]:
        mems = []
        for m in self.arch.memory_modules():
            links = {link.a: link for link in self.arch.links_of(m.id)}
            if m.kind == "STQM":
                t_eff, stretched = m.t_cycle_s, False
                eps_cycle = None
            else:
                t_eff, stretched = synchronize_clocks(
                    m.t_cycle_s, self.t_qpu,
                    m.t_cycle_min_s if m.t_cycle_min_s is not None
                    else m.t_cycle_s,
                    m.t_cycle_max_s if m.t_cycle_max_s is not None
                    else m.t_cycle_s)
                eps_cycle = logical_error_per_cycle(
                    m.modality.p_phys, m.modality.p_th, m.code.distance)
            mem = _Memory(m, links, t_eff, stretched, eps_cycle,
                          None if eps_cycle is None else _log_keep(eps_cycle),
                          _swap_distances(m.n_logical, m.k_swap))
            for core in self.cores:
                mid, c = core.module.id, core.module
                if mid in links and mid not in mem.hops:
                    hop = mem.hops[mid] = self._bare_hop(mem, core)
                    if eps_cycle is None:
                        mem.passive[mid] = (
                            core.eps_cycle, c.code.distance, c.modality.p_th,
                            links[mid].eps_tele, m.modality.t2_s,
                            None if isinstance(hop, _InfeasibleHop)
                            else hop.error)
            mems.append(mem)
        # short-term memory is the preferred eviction target
        mems.sort(key=lambda mm: (mm.module.kind != "STQM", mm.module.id))
        return mems

    def _check_capacity(self, live: int) -> None:
        """Refuse a circuit whose ``live`` qubits cannot all find a home.

        Every touched qubit that is not measured last ends the run in a core
        slot or in a memory cell, and cells are never released, so this is
        necessary for success; it spares a doomed compile its lowering and
        its full run.
        """
        slots = sum(c.capacity for c in self.cores)
        cells = sum(mm.module.n_logical for mm in self.memories)
        if live > slots + cells:
            raise CompileError(
                f"{live} qubits stay live to the end but the architecture "
                f"holds {slots} compute slots and {cells} reachable memory "
                "cells; compute capacity exhausted")

    # -- helpers -----------------------------------------------------------

    def _probe_memory(self, core: _Core) -> _Memory | None:
        """A reachable memory with a free cell."""
        for mm in self.memories:
            if core.module.id in mm.links \
                    and len(mm.cells) < mm.module.n_logical:
                return mm
        return None

    def _bare_hop(self, mem: _Memory,
                  core: _Core) -> TransferResult | _InfeasibleHop:
        """The boundary hop between a memory and a linked core's module.

        An infeasible hop raises at every use, not when the scheduler is
        built, so a circuit that never transfers still compiles.
        """
        link, m = mem.links[core.module.id], core.module
        try:
            if link.protocol == "transversal":
                return transfer_transversal(TransferParams(
                    eps_qpu=core.eps_cycle, d_qpu=m.code.distance,
                    t_qpu_s=m.t_cycle_s, eps_th=m.modality.p_th,
                    eps_tele=link.eps_tele))
            return transfer_lattice_surgery(TransferParams(
                eps_qpu=core.eps_cycle, d_qpu=m.code.distance,
                t_qpu_s=m.t_cycle_s, eps_qm=mem.eps_cycle,
                d_qm=mem.module.code.distance, t_qm_s=mem.t_qm_eff))
        except TransferInfeasible as exc:
            return _InfeasibleHop(*exc.args)

    def _storage_error(self, mem: _Memory, core: _Core,
                       dwell_s: float) -> float:
        """Error a read adds to its bare hop after ``dwell_s`` in the cell."""
        # the arithmetic of idle_error, or of transversal_error below
        if mem.log_keep is not None:
            return -math.expm1(dwell_s / mem.t_qm_eff * mem.log_keep)
        # passive store, linked transversally: the dwell's physical error
        # rides through the hop and is corrected on arrival; charge only
        # the residue
        eps_qpu, d, eps_th, eps_tele, t2_s, hop_err = \
            mem.passive[core.module.id]
        residue = dwell_s / t2_s + eps_tele
        if eps_th <= 0 or residue >= eps_th:
            # refused, as a refused hop is at any dwell: this raises
            transversal_error(eps_qpu, d, eps_th, eps_tele, dwell_s / t2_s)
        return max(2 * eps_qpu + (residue / eps_th) ** ((d + 1) / 2)
                   - hop_err, 0.0)

    @staticmethod
    def _unlinked(mem: _Memory, core: _Core, q: int) -> NoReturn:
        """Refuse to move qubit ``q`` between ``mem`` and an unlinked core."""
        raise CompileError(f"qubit {q} is stored in {mem.module.id}, "
                           f"which {core.lane} has no link to")

    def _route_costs(self, core: _Core, mem: _Memory, gap: int,
                     leg_err: float) -> tuple[float, float]:
        """(cost_keep, cost_move) of a ``gap``-cycle gap on ``core`` for a
        qubit in ``mem`` with legs of error ``leg_err``; a move, a write and
        a read over the bare hop, costs inf if refused or unlinked."""
        cost_keep = -math.expm1(gap * core.log_keep)
        hop = mem.hops.get(core.module.id)
        if hop is not None:
            try:
                hop_err = hop.error
                return cost_keep, hop_err + hop_err + self._storage_error(
                    mem, core, gap * core.t_cycle) + 2 * leg_err
            except TransferInfeasible:
                pass
        return cost_keep, math.inf

    def _align(self, t: float) -> tuple[float, float]:
        """(t rounded up to a compute boundary, pad) on a stretched memory."""
        n = math.ceil(t / self.t_qpu - 1e-9)
        return n * self.t_qpu, max(n * self.t_qpu - t, 0.0)

    # -- main loop ---------------------------------------------------------

    def run(self) -> ScheduledProgram:
        """Run the cores' streams, visiting the cores in turn.

        A gate runs once each operand's previous gate has.  Per gate the
        loop fetches the operands, charges their idle time, appends the
        gate, reads the next gate's operands ahead and keeps or moves each
        operand.  A core's fields and its router costs, cached per (memory,
        gap, legs), are bound once per visit; ``pos`` is stored back before
        any call that can evict, since ``force_slot`` reads it.

        Events and decisions go straight to the stores' columns, through
        ``append``s bound once here: a gate by its plan's key id, any other
        event by an id interned right before its first use.  Each event of
        a resident or a memory cell is appended in one place, a closure of
        this run: ``charge_idle`` a resident's idle, ``write_out`` a cell's
        write and legs in, ``read_in`` its legs out and read,
        ``store_dwell`` its stored dwell and ``clock_pad`` the pad of a
        transfer to a compute cycle boundary.
        """
        lowered, q_mem, plan, cores = (self.lowered, self.q_mem, self.plan,
                                       self.cores)
        first, prev, next_gate = plan.first_slot, plan.prev_gate, \
            plan.next_gate
        core_of_gate, cycle_at, gate_key = plan.core_of_gate, \
            plan.cycle_at, plan.gate_key
        events, audit, warnings = self.events, self.audit, self.warnings
        add_key, add_start, add_dur, add_err = events.appends()
        ids = events.ids
        intern = ids.setdefault  # intern(key, len(ids)) is the key's id
        add_kind, add_t, add_qubit, add_gap, add_keep, add_move = \
            audit.appends()
        audit_ids = audit.ids
        probe_memory, storage_error, align = (
            self._probe_memory, self._storage_error, self._align)
        n_transfers = n_leg_swaps = 0  # added to the counters at the end

        def charge_idle(core: _Core, q: int, last: float,
                        until: float) -> None:
            """Charge resident q's idle on ``core`` from ``last`` to
            ``until``; the caller checks that the gap is not nil."""
            key_id = core.idle_ids.get(q)
            if key_id is None:
                mid = core.module.id
                key_id = core.idle_ids[q] = intern((
                    "idle_buffer", mid, f"{mid}:q{q}", (q,), "resident_idle",
                    "qpu_idle"), len(ids))
            dur = until - last
            add_key(key_id)
            add_start(last)
            add_dur(dur)
            add_err(-math.expm1(dur / core.t_cycle * core.log_keep))

        def clock_pad(core: _Core, cell: _Cell, t: float, pad: float) -> None:
            """The ``pad`` from ``t`` that aligns a transfer of ``cell``'s
            qubit to a compute cycle boundary, charged to ``core``."""
            add_key(intern(("qec_cycle_stretch", core.module.id, cell.lane,
                            cell.qs, "clock_pad", "qpu_idle"), len(ids)))
            add_start(t)
            add_dur(pad)
            add_err(-math.expm1(pad / core.t_cycle * core.log_keep))

        def store_dwell(mem: _Memory, cell: _Cell, t0: float, dwell: float,
                        err: float) -> None:
            """The dwell of ``cell``'s qubit from ``t0``, with its error."""
            if cell.stored_id < 0:
                cell.stored_id = intern((
                    "idle_buffer", mem.module.id, cell.lane, cell.qs,
                    "stored", "qm_idle"), len(ids))
            add_key(cell.stored_id)
            add_start(t0)
            add_dur(dwell)
            add_err(err)

        def write_out(core: _Core, q: int, t: float, reason: str,
                      gap_cycles: int = 0, cost_keep: float = math.inf,
                      cost_move: float = 0.0, mem: _Memory | None = None,
                      cell: _Cell | None = None) -> None:
            """Move resident q from ``core`` to memory at ``t``.

            ``mem`` and ``cell`` are q's memory and cell where the caller
            holds them; a memory without a cell for q yet is the one q
            claims a cell in.
            """
            nonlocal n_transfers, n_leg_swaps
            if mem is None:
                mem = q_mem.get(q) or probe_memory(core)
                if mem is None:
                    raise CompileError(
                        f"no reachable memory cell for qubit {q} from "
                        f"{core.lane}; compute capacity exhausted")
            if cell is None:
                cell = mem.cells.get(q)
                if cell is None:  # first write: claim a free cell
                    q_mem[q] = mem
                    cell = mem.cells[q] = _Cell(
                        f"{mem.module.id}:q{q}", (q,),
                        *mem.legs(len(mem.cells)))
            last = core.residents.pop(q)
            if t > last + 1e-15:
                charge_idle(core, q, last, t)
            t0 = t
            if mem.stretched:
                t0, pad = align(t)
                if pad > 0:
                    clock_pad(core, cell, t0 - pad, pad)
            hop = mem.hops.get(core.module.id) or self._unlinked(mem, core, q)
            hop_dur = hop.duration_s
            if cell.write_id < 0:
                cell.write_id = intern((
                    "transfer_write", mem.module.id, cell.lane, cell.qs,
                    "write", "transfer"), len(ids))
            add_key(cell.write_id)
            add_start(t0)
            add_dur(hop_dur)
            add_err(hop.error)
            n_transfers += 1
            t_cell = t0 + hop_dur
            if cell.dist:
                if cell.legs_in_id < 0:
                    cell.legs_in_id = intern((
                        "swap_route", mem.module.id, cell.lane, cell.qs,
                        f"legs_in:{cell.dist}", "qm_idle"), len(ids))
                add_key(cell.legs_in_id)
                add_start(t_cell)
                add_dur(cell.leg_dur)
                add_err(cell.leg_err)
                n_leg_swaps += cell.dist
                t_cell += cell.leg_dur
            mem.write_end[q] = t_cell
            kind_id = core.moved_ids.get(reason)
            if kind_id is None:
                kind_id = core.moved_ids[reason] = audit_ids.setdefault(
                    (core.lane, True, reason), len(audit_ids))
            add_kind(kind_id)
            add_t(t)
            add_qubit(q)
            add_gap(gap_cycles)
            add_keep(cost_keep)
            add_move(cost_move)

        def read_in(core: _Core, q: int, mem: _Memory, t_issue: float,
                    target_s: float | None) -> float:
            """Read q, stored in ``mem``, into ``core``, issued no earlier
            than ``t_issue``; returns its arrival.

            With a target the read is issued just in time for the patch to
            arrive then, so the dwell stays in the cell instead of turning
            into compute-side idle.
            """
            nonlocal n_transfers, n_leg_swaps
            cell = mem.cells[q]
            hop = mem.hops.get(core.module.id) or self._unlinked(mem, core, q)
            hop_dur = hop.duration_s
            stored = mem.write_end.pop(q)
            t0 = stored if stored > t_issue else t_issue
            if target_s is not None:
                just_in_time = target_s - hop_dur - cell.leg_dur
                if just_in_time > t0:
                    t0 = just_in_time
            dwell = t0 - stored
            if mem.eps_cycle is None and not stqm_storage_valid(
                    mem.module.modality, dwell, core.module.modality.p_phys):
                warnings.append(
                    f"qubit {q}: stored {dwell:.3e} s, beyond the consumer's "
                    f"physical rate {core.module.modality.p_phys}")
            storage_err = storage_error(mem, core, dwell)
            if dwell > 0 or storage_err > 0:
                store_dwell(mem, cell, stored, dwell, storage_err)
            t_read = t0
            if cell.dist:
                if cell.legs_out_id < 0:
                    cell.legs_out_id = intern((
                        "swap_route", mem.module.id, cell.lane, cell.qs,
                        f"legs_out:{cell.dist}", "qm_idle"), len(ids))
                add_key(cell.legs_out_id)
                add_start(t_read)
                add_dur(cell.leg_dur)
                add_err(cell.leg_err)
                n_leg_swaps += cell.dist
                t_read += cell.leg_dur
            if mem.stretched:
                t_legs = t_read
                t_read, pad = align(t_legs)
                if pad > 0:
                    clock_pad(core, cell, t_legs, pad)
            if cell.read_id < 0:
                cell.read_id = intern((
                    "transfer_read", mem.module.id, cell.lane, cell.qs,
                    "read", "transfer"), len(ids))
            add_key(cell.read_id)
            add_start(t_read)
            add_dur(hop_dur)
            add_err(hop.error)
            n_transfers += 1
            t_arrive = core.incoming[q] = t_read + hop_dur
            return t_arrive

        def force_slot(core: _Core, t: float,
                       protected: tuple[int, ...]) -> None:
            """Write out the resident of ``core``, none of ``protected``,
            whose next touch is latest."""
            victims = [q for q in core.residents if q not in protected]
            if not victims:
                raise CompileError(f"core {core.lane} has no evictable slot "
                                   f"(capacity {core.capacity})")
            gate_now = core.stream[core.pos]

            def farness(q: int):
                # the latest next touch first, and none latest of all
                touches = plan.touches[q]
                i = bisect_right(touches, gate_now)
                return (-(touches[i] if i < len(touches) else _FAR), q)

            victim = min(victims, key=farness)
            write_out(core, victim, max(t, core.residents[victim]),
                      "capacity")

        def ensure_operand(core: _Core, q: int, t_issue: float,
                           protected: tuple[int, ...]) -> float:
            """Make q, not yet on this core, available there for a gate on
            the ``protected`` qubits, none of which may be evicted; returns
            q's ready time."""
            owner = next((c for c in cores
                          if q in c.residents or q in c.incoming), None)
            if owner is not None:
                # another core holds q; a read still in flight to it lands
                # before the write-out
                arrival = owner.incoming.pop(q, None)
                if arrival is not None:
                    owner.residents[q] = arrival
                write_out(owner, q, max(t_issue, owner.residents[q]),
                          "cross_core")
            while len(core.residents) + len(core.incoming) >= core.capacity:
                force_slot(core, t_issue, protected)
            mem = q_mem.get(q)
            if mem is not None and q in mem.write_end:
                return read_in(core, q, mem, t_issue, None)
            # first touch: the patch is prepared directly in a compute slot
            core.residents[q] = t_issue
            return t_issue

        route_costs = [{} for _ in cores]
        done, total = 0, len(lowered)
        # one flag per gate plus a set one at the end, which a previous
        # gate of -1 (none) reads
        scheduled = bytearray(total + 1)
        scheduled[total] = 1
        while done < total:
            done_before = done
            for core in cores:
                stream, pos, n_stream = core.stream, core.pos, len(core.stream)
                residents, incoming = core.residents, core.incoming
                costs, capacity, pool = core.costs, core.capacity, core.pool
                lane, index, kept_id = core.lane, core.index, core.kept_id
                t_cyc, t_free, routes = core.t_cycle, core.t_free, \
                    route_costs[index]
                while pos < n_stream:
                    gi = stream[pos]
                    slot = first[gi]
                    blocked = False
                    for s in range(slot, first[gi + 1]):
                        if not scheduled[prev[s]]:
                            blocked = True
                            break
                    if blocked:
                        break
                    g = lowered[gi]
                    qubits = g.qubits
                    if len(qubits) > capacity:
                        raise CompileError(
                            f"gate {g.label} needs {len(qubits)} slots, "
                            f"core {lane} holds {capacity}")
                    start = t_free
                    for q in qubits:
                        ready = residents.get(q, incoming.get(q))
                        if ready is None:
                            core.pos = pos
                            ready = ensure_operand(core, q, t_free, qubits)
                        if ready > start:
                            start = ready
                    cost_key = g.cost_key
                    cycles, err = costs[cost_key]
                    if g.magic and pool is not None:
                        pool.consumed += g.magic
                        ready = pool.consumed * pool.prod * pool.t_cycle \
                            / pool.units
                        if ready > start:
                            start = ready
                    for q in qubits:
                        last = incoming.pop(q, None)
                        if last is None:
                            last = residents[q]
                        if start > last + 1e-15:
                            charge_idle(core, q, last, start)
                    dur = cycles * t_cyc
                    add_key(gate_key[gi])
                    add_start(start)
                    add_dur(dur)
                    add_err(err)
                    end = t_free = start + dur
                    for q in qubits:
                        residents[q] = end
                    # read the next gate's stored operands ahead
                    if pos + 1 < n_stream:
                        for q in lowered[stream[pos + 1]].qubits:
                            mem = q_mem.get(q)
                            if (mem is not None and q in mem.write_end
                                    and len(residents) + len(incoming)
                                    < capacity):
                                read_in(core, q, mem, start, end)
                    # keep or move each operand
                    end_cycle = cycle_at[gi] + cycles
                    for s, q in enumerate(qubits, slot):
                        nxt = next_gate[s]
                        if nxt < 0:
                            if cost_key == "measure":
                                # measured out: the slot is simply released
                                del residents[q]
                            else:
                                write_out(core, q, end, "terminal")
                            continue
                        if core_of_gate[nxt] != index:
                            write_out(core, q, end, "cross_core")
                            continue
                        gap = cycle_at[nxt] - end_cycle
                        if gap <= 0:
                            continue
                        mem = q_mem.get(q) or probe_memory(core)
                        if mem is None:
                            continue
                        cell = mem.cells.get(q)
                        leg_err = cell.leg_err if cell is not None else 0.0
                        key = (mem.module.id, gap, leg_err)
                        route = routes.get(key)
                        if route is None:
                            route = self._route_costs(core, mem, gap, leg_err)
                            if len(routes) < _ROUTE_KEYS:
                                routes[key] = route
                        cost_keep, cost_move = route
                        if cost_move < cost_keep:
                            write_out(core, q, end, "router", gap, cost_keep,
                                      cost_move, mem, cell)
                            continue
                        if kept_id < 0:
                            kept_id = core.kept_id = audit_ids.setdefault(
                                (lane, False, "router"), len(audit_ids))
                        add_kind(kept_id)
                        add_t(end)
                        add_qubit(q)
                        add_gap(gap)
                        add_keep(cost_keep)
                        add_move(cost_move)
                    scheduled[gi] = 1
                    pos += 1
                    done += 1
                core.pos, core.t_free = pos, t_free
            if done == done_before:
                raise CompileError("scheduler stalled on a dependency cycle")
        # freed before the run's last events, where its heap peaks
        route_costs = routes = scheduled = None
        makespan, n_run = events.makespan(), len(events)
        for core in cores:
            residents = core.residents
            for q in sorted(residents):
                last = residents[q]
                if makespan > last + 1e-15:
                    charge_idle(core, q, last, makespan)
        # what memory still holds at the end dwells there until then
        for mem in self.memories:
            readers = [c for c in cores if c.module.id in mem.links]
            consumer = next((c for c in readers if c.module.kind == "QPU"),
                            readers[0])
            for q, t0 in sorted(mem.write_end.items()):
                dwell = makespan - t0
                if dwell <= 0:
                    continue
                try:
                    err = storage_error(mem, consumer, dwell)
                except TransferInfeasible:
                    err = 1.0 - 1e-16
                    warnings.append(
                        f"qubit {q}: terminal dwell {dwell:.3e} s "
                        "exceeds the recoverable storage window")
                store_dwell(mem, mem.cells[q], t0, dwell, err)
        # the scan of all the ends, resumed at the events appended since
        ends = (events.start[i] + events.dur[i]
                for i in range(n_run, len(events)))
        makespan = max(chain((makespan,), ends))
        self.counters["st_count"] += n_transfers
        self.counters["swap_count"] += n_leg_swaps
        return ScheduledProgram(self.circuit.name, self.arch.name,
                                events, makespan, self.counters,
                                audit, self.n_blocks, warnings)


def schedule(circuit: LogicalCircuit,
             arch: ArchitectureSpec) -> ScheduledProgram:
    """Compile and schedule a circuit; deterministic for identical inputs.

    The one entry point of a compile.  It validates the circuit and the
    architecture once; then an architecture without memory modules runs on
    the grid model, every other one on the modular scheduler.
    """
    return _FrontEnd(circuit, [arch]).schedule(0)


# ---------------------------------------------------------------- grid model

def _schedule_grid(front: _FrontEnd, job: _Job) -> ScheduledProgram:
    """Monolithic reference: square grid, persistent map, swap routing.

    Gates run as one serial stream on the job's QPU, fed by its factory if
    any; every mapped qubit is charged idle error over the whole makespan
    outside its own gate time.  ``schedule`` runs this model on a validated
    architecture without memory modules: one QPU and at most one factory.

    A gate's second and third operands are swapped, a step at a time, to
    within distance 1 and 2 of its first: along the column while the rows
    differ, then along the row.  A step lands at distance d - 1 >= stop, so
    it never swaps the first operand (at 0) or a placed second (at most 1)
    and needs no detour.  Positions are flat ``row * side + col`` ints.
    """
    circuit, arch, qpu, qsf = front.circuit, job.arch, job.qpu, job.qsf
    if circuit.n_qubits > qpu.n_logical:
        raise CompileError(f"{circuit.n_qubits} qubits exceed the device's "
                           f"{qpu.n_logical}")
    lowering = front.lowering(job)
    costs = _module_costs(qpu, qsf)
    t_cyc = qpu.t_cycle_s
    n = circuit.n_qubits
    side = math.isqrt(n - 1) + 1 if n else 1
    pos = list(range(n))  # qubit -> flat position, row-major from 0
    cell = pos + [-1] * (side * side - n)  # flat position -> qubit, or -1
    events = EventStore()
    # each event goes to the columns through these, by its key's id
    add_key, add_start, add_dur, add_err = events.appends()
    ids = events.ids
    intern = ids.setdefault  # intern(key, len(ids)) is the key's id
    busy = [0.0] * n
    mid, lane = qpu.id, f"{qpu.id}:core0"
    t = 0.0
    pool = _factory_pool(qsf) if qsf is not None else None
    swap_dur = 3 * qpu.code.distance * t_cyc
    swap_err = -math.expm1(3 * math.log1p(-costs["2q"][1]))
    for g in lowering.gates:
        qubits = g.qubits
        if len(qubits) >= 2:
            ar, ac = divmod(pos[qubits[0]], side)
            for mover, stop in zip(qubits[1:], (1, 2)):
                p = pos[mover]
                mr, mc = divmod(p, side)
                for _ in range(abs(mr - ar) + abs(mc - ac) - stop):
                    if mr != ar:
                        step = side if ar > mr else -side
                        mr += step // side
                    else:  # stops short of column ac, so never turns
                        step = 1 if ac > mc else -1
                    occupant = cell[p + step]
                    add_key(intern((
                        "swap_route", mid, lane,
                        (mover, occupant) if occupant >= 0 else (mover,),
                        "swap", "gate_2q"), len(ids)))
                    add_start(t)
                    add_dur(swap_dur)
                    add_err(swap_err)
                    busy[mover] += swap_dur
                    if occupant >= 0:
                        busy[occupant] += swap_dur
                        pos[occupant] = p
                    cell[p] = occupant
                    p += step
                    cell[p] = mover
                    t += swap_dur
                pos[mover] = p
        cycles, err = costs[g.cost_key]
        if g.magic and pool is not None:
            pool.consumed += g.magic
            t = max(t, pool.consumed * pool.prod * pool.t_cycle / pool.units)
        dur = cycles * t_cyc
        add_key(intern((_INJECT_KINDS.get(g.cost_key, "gate"), mid, lane,
                        qubits, g.label, g.category), len(ids)))
        add_start(t)
        add_dur(dur)
        add_err(err)
        for q in qubits:
            busy[q] += dur
        t += dur

    makespan = t
    n_swaps = len(events) - len(lowering.gates)  # the other events
    counters = dict(lowering.counters)
    counters["swap_count"] += n_swaps
    counters["cnot_count"] += 3 * n_swaps
    for q in range(n):
        dur = makespan - busy[q]
        if dur <= 0:
            continue
        add_key(intern(("idle_buffer", mid, f"{mid}:q{q}", (q,),
                        "mapped_idle", "qpu_idle"), len(ids)))
        add_start(0.0)
        add_dur(dur)
        add_err(idle_error(costs["1q"][1], dur / t_cyc))
    return ScheduledProgram(circuit.name, arch.name, events, makespan,
                            counters, AuditStore(), 1, [])


__all__ = [
    "CATEGORIES", "EVENT_KINDS", "ASQPU_FACTORY_UNITS", "CompileError",
    "InvalidCircuit", "rz_t_count", "ScheduledEvent", "RouterDecision",
    "AuditStore", "EventStore", "ScheduledProgram", "ErrorBudget",
    "error_budget", "synchronize_clocks",
    "LoweredGate", "lower_circuit", "UnitaryBlock", "consolidate_blocks",
    "schedule",
]
