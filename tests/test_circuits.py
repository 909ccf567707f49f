"""Circuit IR and workload-generator tests."""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from hetqc.arch import builtin_architecture
from hetqc.circuits import (CircuitError, GateOp, LogicalCircuit,
                            control_slots)
from hetqc.compiler import InvalidCircuit, schedule
from hetqc.generators import (default_truncation, generate_aqft,
                              generate_cuccaro_adder,
                              generate_fermi_hubbard_step,
                              generate_rsa_subroutine)

from oracles import random_circuit


def test_add_rejects_malformed_ops():
    c = LogicalCircuit("t", 3)
    with pytest.raises(CircuitError):
        c.add("CNOT", 0)               # arity
    with pytest.raises(CircuitError):
        c.add("Hadamard", 0)           # unknown kind
    with pytest.raises(CircuitError):
        c.add("CNOT", 1, 1)            # repeated operand
    with pytest.raises(CircuitError):
        c.add("H", 3)                  # out of range
    with pytest.raises(CircuitError):
        c.add("Rz", 0)                 # missing angle
    with pytest.raises(CircuitError):
        c.add("Rz", 0, angle=math.inf)
    with pytest.raises(CircuitError):
        c.add("H", 0, angle=0.5)       # angle on a fixed gate
    with pytest.raises(CircuitError):
        c.add("H", 0, tag="a b")
    assert c.ops == []


def test_validate_reports_every_bad_op():
    c = LogicalCircuit("t", 2)
    c.ops.append(GateOp("H", (0,)))
    c.ops.append(GateOp("CNOT", (0, 5)))
    c.ops.append(GateOp("Nope", (1,)))
    problems = c.validate()
    assert len(problems) == 2
    assert problems[0].startswith("op 1:")
    assert problems[1].startswith("op 2:")


def test_negative_qubit_count_is_refused():
    circuit = LogicalCircuit("neg", -1)
    assert circuit.validate() == ["negative qubit count"]
    with pytest.raises(InvalidCircuit, match="negative qubit count"):
        schedule(circuit, builtin_architecture("A1"))


def test_inverse_pairs():
    h = GateOp("H", (0,))
    assert h.inverse_of(GateOp("H", (0,)))
    assert not h.inverse_of(GateOp("H", (1,)))
    assert GateOp("Tdg", (2,)).inverse_of(GateOp("T", (2,)))
    assert GateOp("T", (2,)).inverse_of(GateOp("Tdg", (2,)))
    assert not GateOp("T", (2,)).inverse_of(GateOp("T", (2,)))
    rz = GateOp("Rz", (0,), angle=0.25)
    assert GateOp("Rz", (0,), angle=-0.25).inverse_of(rz)
    assert not GateOp("Rz", (0,), angle=0.25).inverse_of(rz)
    assert not GateOp("Rz", (1,), angle=-0.25).inverse_of(rz)


def test_control_slots():
    assert control_slots(GateOp("CNOT", (3, 4))) == (0,)
    assert control_slots(GateOp("Toffoli", (0, 1, 2))) == (0, 1)
    assert control_slots(GateOp("CZ", (0, 1))) == (0, 1)
    assert control_slots(GateOp("CPhase", (0, 1), angle=0.1)) == (0, 1)
    assert control_slots(GateOp("H", (0,))) == ()
    assert control_slots(GateOp("SWAP", (0, 1))) == ()


def test_text_round_trip_preserves_ops():
    c = LogicalCircuit("demo", 4)
    c.add("H", 0)
    c.add("CPhase", 0, 1, angle=math.pi / 8)
    c.add("Rz", 2, angle=-1.25e-3)
    c.add("Toffoli", 0, 1, 3, tag="adder")
    c.add("Measure", 0)
    back = LogicalCircuit.from_text(c.to_text())
    assert back.name == "demo"
    assert back.n_qubits == 4
    assert back.ops == c.ops
    assert back.to_text() == c.to_text()


def test_from_text_errors():
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("name x\nH q0\n")      # op before header
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("name x\n")            # no header at all
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("qubits two\n")
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("qubits 2\nRz q0 angle=abc\n")
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("qubits 2\nH q0 huh\n")
    with pytest.raises(CircuitError):
        LogicalCircuit.from_text("qubits 1\nCNOT q0 q1\n")


def test_from_text_skips_blanks_and_comments():
    c = LogicalCircuit.from_text("# header\n\nqubits 2\n  H q1\n")
    assert c.ops == [GateOp("H", (1,))]


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 60))
def test_text_round_trip_random(seed, n_qubits, n_gates):
    import random
    c = random_circuit(random.Random(seed), n_qubits, n_gates)
    back = LogicalCircuit.from_text(c.to_text())
    assert back.ops == c.ops
    assert back.n_qubits == c.n_qubits


def test_default_truncation_value():
    # pi/2^31 = 1.46e-9 >= 1e-9 > pi/2^32
    assert default_truncation(1e-9) == 32
    assert default_truncation(0.5) == 3
    with pytest.raises(ValueError):
        default_truncation(0.0)
    with pytest.raises(ValueError):
        default_truncation(1.5)


def test_aqft_counts():
    c = generate_aqft(1000, k_th=9)
    kinds = Counter(op.kind for op in c.ops)
    assert c.n_qubits == 1000
    assert kinds["H"] == 1000
    # sum_{i=1}^{999} min(i, 8) = 28 + 8 * 992
    assert kinds["CPhase"] == 7964
    assert c.validate() == []


def test_aqft_full_qft_limit():
    c = generate_aqft(10, k_th=10)
    angles = [op.angle for op in c.ops if op.kind == "CPhase"]
    assert len(angles) == 45
    # every angle is pi / 2^k for k in [1, k_th)
    assert set(angles) == {math.pi / 2.0 ** k for k in range(1, 10)}


def test_aqft_truncation_monotone():
    counts = [sum(op.kind == "CPhase" for op in generate_aqft(40, k_th=k).ops)
              for k in range(1, 45)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] == 0
    assert counts[-1] == 40 * 39 // 2


def test_aqft_determinism():
    assert generate_aqft(64, k_th=9).to_text() == \
        generate_aqft(64, k_th=9).to_text()


def test_aqft_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_aqft(0)
    with pytest.raises(ValueError):
        generate_aqft(4, k_th=0)


def test_cuccaro_shape():
    bits = 4
    c = generate_cuccaro_adder(bits)
    assert c.n_qubits == 2 * bits + 2
    # qubit 0 is the carry-in ancilla: only the first MAJ (on a0, b0) and
    # the last UMA use it
    a0, b0 = 1, bits + 1
    assert [(op.kind, op.qubits) for op in c.ops if 0 in op.qubits] == [
        ("CNOT", (a0, 0)), ("Toffoli", (0, b0, a0)),
        ("Toffoli", (0, b0, a0)), ("CNOT", (a0, 0)), ("CNOT", (0, b0))]
    kinds = Counter(op.kind for op in c.ops)
    assert kinds["Toffoli"] == 2 * bits
    assert kinds["CNOT"] == 4 * bits + 1
    assert all(op.tag == "adder" for op in c.ops)
    assert c.validate() == []
    with pytest.raises(ValueError):
        generate_cuccaro_adder(0)


def test_hubbard_shape():
    c = generate_fermi_hubbard_step(2, 2, trotter_steps=2)
    assert c.n_qubits == 8
    kinds = Counter(op.kind for op in c.ops)
    assert kinds["Rz"] == 2 * 4 * 2       # spins * bonds * steps
    assert kinds["CPhase"] == 4 * 2       # sites * steps
    assert kinds["CNOT"] == 2 * 2 * 4 * 2
    assert c.validate() == []
    with pytest.raises(ValueError):
        generate_fermi_hubbard_step(0, 2)


def test_rsa_subroutines():
    adder = generate_rsa_subroutine("adder33")
    assert adder.n_qubits == 68
    assert adder.name == "rsa_adder33"
    assert sum(op.kind == "Toffoli" for op in adder.ops) == 66

    lookup = generate_rsa_subroutine("lookup6")
    assert lookup.n_qubits == 70
    assert sum(op.kind == "Toffoli" for op in lookup.ops) == 63
    assert all(op.tag == "lookup" for op in lookup.ops)
    assert lookup.validate() == []

    phaseup = generate_rsa_subroutine("phaseup6")
    assert phaseup.n_qubits == 14
    assert sum(op.kind == "CCZ" for op in phaseup.ops) == 63
    assert phaseup.validate() == []

    with pytest.raises(ValueError):
        generate_rsa_subroutine("grover")
