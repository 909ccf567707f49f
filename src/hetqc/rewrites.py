"""Peephole depth reduction.

Cancels adjacent inverse pairs and lets diagonal gates commute through the
control side of CNOT/Toffoli to reach a cancellation partner.  Conservative:
two ops are only commuted when every shared qubit is acted on diagonally by
both (diagonal kind, or a control slot), which is sufficient for operator
commutation.
"""

from __future__ import annotations

from .circuits import GateOp, LogicalCircuit, control_slots


def _diagonal_on(op: GateOp, qubit: int) -> bool:
    return any(op.qubits[s] == qubit for s in control_slots(op))


def _commutes(a: GateOp, b: GateOp) -> bool:
    shared = set(a.qubits) & set(b.qubits)
    return all(_diagonal_on(a, q) and _diagonal_on(b, q) for q in shared)


def _one_pass(ops: list[GateOp]) -> tuple[list[GateOp], bool]:
    out: list[GateOp | None] = []
    changed = False
    for op in ops:
        cancelled = False
        for j in range(len(out) - 1, -1, -1):
            prev = out[j]
            if prev is None:
                continue
            if not set(prev.qubits) & set(op.qubits):
                continue
            if op.inverse_of(prev):
                out[j] = None
                cancelled = True
                changed = True
                break
            if not _commutes(prev, op):
                break
        if not cancelled:
            out.append(op)
    return [op for op in out if op is not None], changed


def rewrite_depth_reduce(circuit: LogicalCircuit) -> LogicalCircuit:
    """Return an equivalent circuit with inverse pairs cancelled.

    Runs passes to a fixpoint; the result never has more ops than the input
    and preserves the unitary up to global phase (Measure/Prep block all
    reordering, so measured semantics are untouched).
    """
    ops = list(circuit.ops)
    while True:
        ops, changed = _one_pass(ops)
        if not changed:
            break
    return LogicalCircuit(circuit.name, circuit.n_qubits, ops)


__all__ = ["rewrite_depth_reduce"]
