"""Logical-circuit intermediate representation.

A circuit is an ordered list of gate operations on integer-indexed logical
qubits.  Program order doubles as a topological order of the data-dependency
DAG, so passes can scan ops front to back without re-sorting.  A small text
format (one op per line) makes circuits diffable and round-trippable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

GATE_ARITY = {
    "H": 1,
    "S": 1,
    "X": 1,
    "Z": 1,
    "T": 1,
    "Tdg": 1,
    "Rz": 1,
    "CNOT": 2,
    "CZ": 2,
    "SWAP": 2,
    "CPhase": 2,
    "Toffoli": 3,
    "CCZ": 3,
    "Measure": 1,
    "Prep": 1,
}

PARAMETRIC_KINDS = frozenset({"Rz", "CPhase"})

#: Gates diagonal in the computational basis; they commute with each other
#: and with the control slots of CNOT / Toffoli.
DIAGONAL_KINDS = frozenset({"Z", "S", "T", "Tdg", "Rz", "CZ", "CPhase", "CCZ"})

#: Operand positions that act as controls (state untouched in the Z basis).
CONTROL_SLOTS = {"CNOT": (0,), "Toffoli": (0, 1)}

#: Pairs (a, b) such that a followed by b on identical operands is identity.
#: Parametric kinds cancel when angles are exact negations.
_INVERSE_PAIRS = frozenset(
    {("H", "H"), ("X", "X"), ("Z", "Z"), ("CNOT", "CNOT"), ("CZ", "CZ"),
     ("SWAP", "SWAP"), ("Toffoli", "Toffoli"), ("CCZ", "CCZ"),
     ("T", "Tdg"), ("Tdg", "T")}
)


class CircuitError(ValueError):
    """Raised for malformed circuits or unparseable circuit text."""


@dataclass(frozen=True)
class GateOp:
    """A single logical operation.

    :param kind: one of the keys of :data:`GATE_ARITY`.
    :param qubits: operand ids, length must equal the kind's arity.
    :param angle: rotation angle in radians, only for Rz / CPhase.
    :param tag: free-form label used by block/core matching (e.g. ``adder``).
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    tag: str | None = None

    def inverse_of(self, other: "GateOp") -> bool:
        """True if ``other`` followed by ``self`` is the identity."""
        if self.qubits != other.qubits:
            return False
        if (other.kind, self.kind) in _INVERSE_PAIRS:
            return True
        if self.kind == other.kind and self.kind in PARAMETRIC_KINDS:
            return self.angle is not None and other.angle is not None \
                and self.angle == -other.angle
        return False


@dataclass
class LogicalCircuit:
    """Ordered gate list over ``n_qubits`` logical qubits."""

    name: str
    n_qubits: int
    ops: list[GateOp] = field(default_factory=list)

    def add(self, kind: str, *qubits: int, angle: float | None = None,
            tag: str | None = None) -> None:
        op = GateOp(kind, tuple(qubits), angle, tag)
        problem = _check_op(op, self.n_qubits)
        if problem:
            raise CircuitError(problem)
        self.ops.append(op)

    def validate(self) -> list[str]:
        """Return a list of diagnostics; empty means well formed.  Every
        op is checked again although :meth:`add` checks each one: ``ops``
        is a public mutable list, and ``LogicalCircuit(name, n, ops)``
        skips :meth:`add`."""
        out = []
        if self.n_qubits < 0:
            out.append("negative qubit count")
        for i, op in enumerate(self.ops):
            problem = _check_op(op, self.n_qubits)
            if problem:
                out.append(f"op {i}: {problem}")
        return out

    def to_text(self) -> str:
        lines = [f"name {self.name}", f"qubits {self.n_qubits}"]
        for op in self.ops:
            parts = [op.kind] + [f"q{q}" for q in op.qubits]
            if op.angle is not None:
                parts.append(f"angle={op.angle!r}")
            if op.tag is not None:
                parts.append(f"tag={op.tag}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LogicalCircuit":
        name = "circuit"
        n_qubits = None
        ops: list[GateOp] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            if head == "name":
                name = rest.strip()
                continue
            if head == "qubits":
                try:
                    n_qubits = int(rest)
                except ValueError:
                    raise CircuitError(f"line {lineno}: bad qubit count {rest!r}")
                continue
            if n_qubits is None:
                raise CircuitError(f"line {lineno}: op before 'qubits' header")
            ops.append(_parse_op(head, rest, lineno))
        if n_qubits is None:
            raise CircuitError("missing 'qubits' header")
        circuit = cls(name, n_qubits, ops)
        problems = circuit.validate()
        if problems:
            raise CircuitError("; ".join(problems))
        return circuit


def _check_op(op: GateOp, n_qubits: int) -> str | None:
    arity = GATE_ARITY.get(op.kind)
    if arity is None:
        return f"unknown gate kind {op.kind!r}"
    if len(op.qubits) != arity:
        return f"{op.kind} expects {arity} operand(s), got {len(op.qubits)}"
    if len(set(op.qubits)) != len(op.qubits):
        return f"{op.kind} has repeated operands {op.qubits}"
    for q in op.qubits:
        if not 0 <= q < n_qubits:
            return f"operand q{q} outside register of size {n_qubits}"
    if op.kind in PARAMETRIC_KINDS:
        if op.angle is None:
            return f"{op.kind} requires an angle"
        if not math.isfinite(op.angle):
            return f"{op.kind} angle must be finite"
    elif op.angle is not None:
        return f"{op.kind} takes no angle"
    if op.tag is not None and (" " in op.tag or "=" in op.tag):
        return f"tag {op.tag!r} may not contain spaces or '='"
    return None


def _parse_op(kind: str, rest: str, lineno: int) -> GateOp:
    qubits = []
    angle = None
    tag = None
    for token in rest.split():
        if token.startswith("q") and token[1:].isdigit():
            qubits.append(int(token[1:]))
        elif token.startswith("angle="):
            try:
                angle = float(token[6:])
            except ValueError:
                raise CircuitError(f"line {lineno}: bad angle {token!r}")
        elif token.startswith("tag="):
            tag = token[4:]
        else:
            raise CircuitError(f"line {lineno}: unexpected token {token!r}")
    return GateOp(kind, tuple(qubits), angle, tag)


def control_slots(op: GateOp) -> tuple[int, ...]:
    """Operand positions of ``op`` that are pure controls."""
    if op.kind in DIAGONAL_KINDS:
        return tuple(range(len(op.qubits)))
    return CONTROL_SLOTS.get(op.kind, ())


__all__ = [
    "GATE_ARITY", "PARAMETRIC_KINDS", "DIAGONAL_KINDS", "CircuitError",
    "GateOp", "LogicalCircuit", "control_slots",
]
