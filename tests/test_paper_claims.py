"""The source paper's headline numbers, one test per figure in its abstract.

Each figure is checked to within ``TOLERANCE`` of the abstract's value,
which the abstract rounds to two or three significant digits (4.874 days
shows as 4.9, 138.6x as 138x).  Every assert message carries the paper's
number next to the one hetqc produced.
"""

import math

import pytest

from hetqc.arch import builtin_architecture
from hetqc.cli import build_workload
from hetqc.compiler import error_budget, schedule
from hetqc.estimator import rsa_estimate
from hetqc.resources import count_architecture

#: relative deviation allowed from each abstract figure
TOLERANCE = 0.01


def _check(got, paper, what):
    assert abs(got / paper - 1.0) <= TOLERANCE, \
        f"{what}: hetqc {got:,.4g}, paper {paper:,} " \
        f"(tolerance {TOLERANCE:.0%})"


def test_physical_qubit_reduction_138x():
    monolithic = count_architecture(builtin_architecture("baseline1000"))
    heterogeneous = count_architecture(builtin_architecture("A2"))
    _check(monolithic.total_qubits / heterogeneous.total_qubits, 138,
           "baseline1000 / A2 physical qubits")


def test_logical_error_reduction_551x():
    # the ratio of expected logical-error counts, -log1p(-P), which does
    # not saturate the way the total failure probabilities P do near 1
    circuit = build_workload("hubbard:lx=16,ly=16,steps=2")
    base, het = (error_budget(schedule(circuit, builtin_architecture(arch)))
                 for arch in ("baseline1000", "A1"))
    ratio = math.log1p(-base.total) / math.log1p(-het.total)
    _check(ratio, 551, "16x16 Hubbard logical error, baseline1000 / A1")


@pytest.mark.parametrize(("arch", "qubits", "days", "what"), [
    ("B2", 381_000, 9.2, "RSA-2048 on grid coupling"),
    ("B5", 439_000, 4.9, "RSA-2048 with the Adder accelerator"),
])
def test_rsa_2048_qubits_and_days(arch, qubits, days, what):
    est = rsa_estimate(arch)
    _check(est.qubits_total, qubits, f"{what} ({arch}) physical qubits")
    _check(est.runtime_days, days, f"{what} ({arch}) days")


def test_rsa_2048_qldpc_memory_190k_qubits():
    est = rsa_estimate("B3")
    _check(est.qubits_total, 190_000, "RSA-2048 with qLDPC memory (B3) "
           "physical qubits")
    assert est.runtime_days < 10, \
        f"B3 runtime: hetqc {est.runtime_days:.4g} days, paper under 10 days"
