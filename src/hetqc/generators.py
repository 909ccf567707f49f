"""Workload generators.

Each generator is a pure function of its parameters, so identical calls
serialize to byte-identical text.  Angles are exact binary floats derived
from ``math.pi``; no generator draws randomness.
"""

from __future__ import annotations

import math

from .circuits import LogicalCircuit

#: hopping and interaction angle of one Fermi-Hubbard Trotter step
HUBBARD_ANGLE = math.pi / 8

#: non-Clifford gates of the lookup and phase-update skeletons, one per
#: non-trivial 6-bit address
RSA_SKELETON_COUNT = 63


def default_truncation(eps_2q: float = 1e-9) -> int:
    """Smallest k such that a controlled phase of pi/2^k is below ``eps_2q``.

    Rotations finer than the two-qubit gate error are dropped rather than
    synthesized; see :func:`generate_aqft`.
    """
    if not 0 < eps_2q < 1:
        raise ValueError("eps_2q must be in (0, 1)")
    k = 1
    while math.pi / 2.0 ** k >= eps_2q:
        k += 1
    return k


def generate_aqft(n: int, k_th: int | None = None) -> LogicalCircuit:
    """Approximate quantum Fourier transform on ``n`` qubits.

    Controlled phases of angle pi/2^k with k >= ``k_th`` are omitted.  When
    ``k_th`` is None it defaults to :func:`default_truncation`.  The terminal
    qubit-reversal SWAP layer is not emitted; downstream consumers relabel.

    :param n: register width, n >= 1.
    :param k_th: truncation depth; CPhase count is sum_{i=1}^{n-1} min(i, k_th-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k_th is None:
        k_th = default_truncation()
    if k_th < 1:
        raise ValueError("k_th must be >= 1")
    c = LogicalCircuit(f"aqft_n{n}_k{k_th}", n)
    for i in range(n):
        c.add("H", i)
        for j in range(i + 1, min(n, i + k_th)):
            # CPhase(pi / 2^(j-i)) between target row i and qubit j
            c.add("CPhase", i, j, angle=math.pi / 2.0 ** (j - i))
    return c


def generate_cuccaro_adder(bits: int) -> LogicalCircuit:
    """Ripple-carry adder computing b := a + b on two ``bits``-wide registers.

    Uses the MAJ/UMA construction: one carry-in ancilla, registers a and b,
    and a carry-out qubit, 2*bits + 2 logical qubits in total.  The only
    non-Clifford gates are Toffolis (2 per bit position).  Layout:

    ==========  =================
    qubit       meaning
    ==========  =================
    0           carry-in ancilla
    1..bits     a[0..bits-1]
    bits+1..    b[0..bits-1]
    2*bits+1    carry out
    ==========  =================
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    n = 2 * bits + 2
    c = LogicalCircuit(f"cuccaro_adder_{bits}", n)
    a = [1 + i for i in range(bits)]
    b = [1 + bits + i for i in range(bits)]
    z = 2 * bits + 1

    def maj(x: int, y: int, w: int) -> None:
        c.add("CNOT", w, y, tag="adder")
        c.add("CNOT", w, x, tag="adder")
        c.add("Toffoli", x, y, w, tag="adder")

    def uma(x: int, y: int, w: int) -> None:
        c.add("Toffoli", x, y, w, tag="adder")
        c.add("CNOT", w, x, tag="adder")
        c.add("CNOT", x, y, tag="adder")

    carries = [0] + a[:-1]
    for i in range(bits):
        maj(carries[i], b[i], a[i])
    c.add("CNOT", a[-1], z, tag="adder")
    for i in reversed(range(bits)):
        uma(carries[i], b[i], a[i])
    return c


def generate_fermi_hubbard_step(lx: int, ly: int,
                                trotter_steps: int = 1) -> LogicalCircuit:
    """Trotterized Fermi-Hubbard step on an ``lx`` x ``ly`` open lattice.

    Two spin species per site (2*lx*ly qubits).  Per step: hopping terms on
    every lattice bond, split into even/odd sublayers per direction, each as
    CNOT - Rz - CNOT for both spins; then one CPhase interaction per site.
    Both rotations take :data:`HUBBARD_ANGLE`.
    """
    if lx < 1 or ly < 1 or trotter_steps < 1:
        raise ValueError("lx, ly, trotter_steps must be >= 1")
    n = 2 * lx * ly
    c = LogicalCircuit(f"fermi_hubbard_{lx}x{ly}_s{trotter_steps}", n)

    def up(x: int, y: int) -> int:
        return 2 * (y * lx + x)

    def dn(x: int, y: int) -> int:
        return 2 * (y * lx + x) + 1

    bonds: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for parity in (0, 1):  # even then odd horizontal sublayer
        for y in range(ly):
            for x in range(parity, lx - 1, 2):
                bonds.append(((x, y), (x + 1, y)))
    for parity in (0, 1):  # even then odd vertical sublayer
        for y in range(parity, ly - 1, 2):
            for x in range(lx):
                bonds.append(((x, y), (x, y + 1)))

    for _ in range(trotter_steps):
        for (x0, y0), (x1, y1) in bonds:
            for spin in (up, dn):
                i, j = spin(x0, y0), spin(x1, y1)
                c.add("CNOT", i, j)
                c.add("Rz", j, angle=HUBBARD_ANGLE)
                c.add("CNOT", i, j)
        for y in range(ly):
            for x in range(lx):
                c.add("CPhase", up(x, y), dn(x, y), angle=HUBBARD_ANGLE)
    return c


def generate_rsa_subroutine(kind: str) -> LogicalCircuit:
    """Factoring-workload subroutines: ``adder33``, ``lookup6``, ``phaseup6``.

    ``adder33`` is the 33-bit ripple adder (68 logical qubits).  ``lookup6``
    and ``phaseup6`` are schedule-shape skeletons of a 6-bit-address table
    lookup (70 qubits) and a phase-update network (14 qubits), with
    :data:`RSA_SKELETON_COUNT` Toffolis and CCZs respectively, one per
    non-trivial address.  The skeletons reproduce register sizes, gate mix,
    and dependency topology, not the semantic table contents.
    """
    if kind == "adder33":
        c = generate_cuccaro_adder(33)
        c.name = "rsa_adder33"
        return c
    if kind == "lookup6":
        c = LogicalCircuit("rsa_lookup6", 70)
        addr = list(range(6))
        unary = list(range(6, 11))
        target = list(range(11, 70))
        c.add("CNOT", addr[0], unary[0], tag="lookup")
        for i in range(RSA_SKELETON_COUNT):
            a = addr[i % 6]
            u0 = unary[i % 5]
            u1 = unary[(i + 2) % 5]
            c.add("Toffoli", a, u0, u1, tag="lookup")
            c.add("CNOT", u1, target[i % 59], tag="lookup")
        return c
    if kind == "phaseup6":
        c = LogicalCircuit("rsa_phaseup6", 14)
        for i in range(RSA_SKELETON_COUNT):
            c.add("CCZ", i % 6, 6 + i % 8, 6 + (i + 3) % 8, tag="phaseup")
        return c
    raise ValueError(f"unknown subroutine kind {kind!r}")


__all__ = [
    "HUBBARD_ANGLE", "RSA_SKELETON_COUNT", "default_truncation",
    "generate_aqft", "generate_cuccaro_adder",
    "generate_fermi_hubbard_step", "generate_rsa_subroutine",
]
