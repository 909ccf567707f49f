"""Peephole depth reduction against the dense-matrix oracle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetqc.circuits import LogicalCircuit
from hetqc.rewrites import rewrite_depth_reduce

from oracles import classical_state, dense_unitary, random_circuit


def _ops(circuit):
    return [(op.kind, op.qubits) for op in circuit.ops]


def test_adjacent_inverse_pairs_cancel():
    c = LogicalCircuit("t", 2)
    c.add("H", 0)
    c.add("H", 0)
    c.add("T", 1)
    c.add("Tdg", 1)
    c.add("Rz", 0, angle=0.7)
    c.add("Rz", 0, angle=-0.7)
    r = rewrite_depth_reduce(c)
    assert r.ops == []
    assert (r.name, r.n_qubits) == (c.name, c.n_qubits)
    assert len(c.ops) == 6  # input untouched


def test_same_sign_rotations_survive():
    c = LogicalCircuit("t", 1)
    c.add("Rz", 0, angle=0.7)
    c.add("Rz", 0, angle=0.7)
    assert len(rewrite_depth_reduce(c).ops) == 2


def test_cancellation_through_a_control():
    c = LogicalCircuit("t", 2)
    c.add("T", 0)
    c.add("CNOT", 0, 1)  # q0 is the control: T slides past
    c.add("Tdg", 0)
    r = rewrite_depth_reduce(c)
    assert _ops(r) == [("CNOT", (0, 1))]


def test_target_blocks_commutation():
    c = LogicalCircuit("t", 2)
    c.add("X", 1)
    c.add("CNOT", 0, 1)  # q1 is the target: nothing moves past it
    c.add("X", 1)
    assert len(rewrite_depth_reduce(c).ops) == 3


def test_hadamard_blocks_commutation():
    c = LogicalCircuit("t", 2)
    c.add("H", 0)
    c.add("CNOT", 0, 1)
    c.add("H", 0)
    assert len(rewrite_depth_reduce(c).ops) == 3


def test_measure_is_a_barrier():
    c = LogicalCircuit("t", 1)
    c.add("H", 0)
    c.add("Measure", 0)
    c.add("H", 0)
    assert len(rewrite_depth_reduce(c).ops) == 3


def test_fixpoint_unwinds_nesting():
    c = LogicalCircuit("t", 1)
    c.add("H", 0)
    c.add("X", 0)
    c.add("X", 0)
    c.add("H", 0)
    assert rewrite_depth_reduce(c).ops == []


def test_disjoint_qubits_do_not_interact():
    c = LogicalCircuit("t", 3)
    c.add("H", 0)
    c.add("CNOT", 1, 2)
    c.add("H", 0)
    r = rewrite_depth_reduce(c)
    assert _ops(r) == [("CNOT", (1, 2))]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_rewrite_preserves_unitary(seed, n_qubits, n_gates):
    raw = random_circuit(random.Random(seed), n_qubits, n_gates)
    c = LogicalCircuit(raw.name, raw.n_qubits,
                       [op for op in raw.ops if op.kind != "Measure"])
    r = rewrite_depth_reduce(c)
    assert len(r.ops) <= len(c.ops)
    assert np.allclose(dense_unitary(r), dense_unitary(c), atol=1e-9)


def test_oracles_agree_on_classical_gates():
    # the dense matrix of a reversible circuit is the permutation that the
    # truth-table propagator computes, so the two oracles must match
    rng = random.Random(11)
    pool = (("X", 1), ("CNOT", 2), ("Toffoli", 3), ("SWAP", 2))
    for _ in range(25):
        c = LogicalCircuit("perm", 4)
        for _ in range(rng.randint(1, 12)):
            kind, arity = pool[rng.randrange(len(pool))]
            c.add(kind, *rng.sample(range(4), arity))
        u = dense_unitary(c)
        for state in range(16):
            assert u[classical_state(c, state), state] == pytest.approx(1.0)


def test_rewrite_never_grows():
    rng = random.Random(7)
    for _ in range(20):
        c = random_circuit(rng, 4, 30)
        assert len(rewrite_depth_reduce(c).ops) <= len(c.ops)
