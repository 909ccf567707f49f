"""Closed-form error and timing model.

Logical failure per QEC cycle follows the standard sub-threshold scaling
``PREFACTOR * (p/p_th)^((d+1)/2)``; the prefactor 0.03 is calibrated
against the worked operating points encoded in the builtin architectures.
Transfer protocols between modules come in two flavors: transversal
teleportation (fast, limited by teleportation fidelity) and lattice surgery
across a code boundary (clocked by the slower module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arch import ModalitySpec

PREFACTOR = 0.03


class TransferInfeasible(ValueError):
    """Transfer inputs violate the sub-threshold requirement."""


def logical_error_per_cycle(p: float, p_th: float, d: int) -> float:
    """Logical failure probability per QEC cycle of a distance-``d`` patch.

    :param p: physical error rate, must satisfy 0 < p < p_th.
    :param p_th: code threshold.
    :param d: code distance, >= 1.
    """
    if not 0 < p < p_th:
        raise ValueError(f"p={p} must lie below threshold {p_th}")
    if d < 1:
        raise ValueError("distance must be >= 1")
    return PREFACTOR * (p / p_th) ** ((d + 1) / 2)


def idle_error(eps_cycle: float, cycles: float) -> float:
    """Accumulated idle failure over ``cycles`` cycles at ``eps_cycle`` each.

    Computed as 1 - (1 - eps)^cycles, which is additive under composition:
    idling a then b cycles equals idling a+b cycles exactly.
    """
    if not 0 <= eps_cycle < 1:
        raise ValueError("eps_cycle outside [0, 1)")
    if cycles < 0:
        raise ValueError("negative cycle count")
    return -math.expm1(cycles * math.log1p(-eps_cycle))


def equivalent_memory_distance(p: float, d_a: int, kappa: float,
                               r: float) -> float:
    """Distance a slower memory needs to match a faster tier's idle error.

    A patch at distance ``d_a`` cycled ``r`` times as often as the memory is
    matched by distance ``d_b = 2*log(p^((d_a+1)/2) * r) / log(p/kappa) - 1``,
    where ``kappa`` rescales the memory's threshold ratio and ``r`` is the
    cycle-rate ratio.  Returns the (real-valued) break-even distance.
    """
    if not 0 < p < 1:
        raise ValueError("p outside (0, 1)")
    if r <= 0 or kappa <= 0:
        raise ValueError("r and kappa must be positive")
    num = math.log(p ** ((d_a + 1) / 2) * r)
    den = math.log(p / kappa)
    return 2 * num / den - 1


@dataclass(frozen=True)
class TransferParams:
    """Inputs for one compute-memory transfer.

    ``eps_qpu``/``eps_qm`` are logical errors per cycle of the respective
    tier; ``eps_th`` is the memory-side physical threshold (transversal
    protocol); ``eps_eff_idle`` the physical idle error accumulated in the
    memory before retrieval.
    """

    eps_qpu: float
    d_qpu: int
    t_qpu_s: float
    eps_qm: float = 0.0
    d_qm: int = 0
    t_qm_s: float = 0.0
    eps_th: float = 0.0
    eps_tele: float = 0.0
    eps_eff_idle: float = 0.0


@dataclass(frozen=True)
class TransferResult:
    error: float
    duration_s: float


def transversal_error(eps_qpu: float, d_qpu: int, eps_th: float,
                      eps_tele: float, eps_eff_idle: float) -> float:
    """Error of one transversal teleportation, as :func:`transfer_transversal`.

    The scalar form prices a dwell's idle error ``eps_eff_idle``, 0.0 for a
    bare hop, without building a :class:`TransferParams`.
    """
    if eps_th <= 0:
        raise TransferInfeasible("memory threshold not set")
    residue = eps_eff_idle + eps_tele
    if residue >= eps_th:
        raise TransferInfeasible(
            f"idle+teleportation error {residue:.3e} reaches threshold "
            f"{eps_th:.3e}")
    return 2 * eps_qpu + (residue / eps_th) ** ((d_qpu + 1) / 2)


def transfer_transversal(tp: TransferParams) -> TransferResult:
    """Transversal teleportation across a photonic link.

    Error: 2*eps_qpu plus the corrected residue of idle and teleportation
    noise, ((eps_eff_idle + eps_tele)/eps_th)^((d_qpu+1)/2).  Duration: two
    compute cycles.  Raises :class:`TransferInfeasible` when the physical
    noise is not below threshold.
    """
    error = transversal_error(tp.eps_qpu, tp.d_qpu, tp.eps_th, tp.eps_tele,
                              tp.eps_eff_idle)
    return TransferResult(error, 2 * tp.t_qpu_s)


def transfer_lattice_surgery(tp: TransferParams) -> TransferResult:
    """Lattice-surgery merge/split across a boundary, clocked by the memory.

    Error: 2*d_time*(eps_qm + eps_qpu*(t_qm/t_qpu)) with
    d_time = max(d_qpu, d_qm).  Duration: 2*d_time*t_qm.
    """
    if tp.t_qpu_s <= 0 or tp.t_qm_s <= 0:
        raise ValueError("cycle times must be positive")
    if tp.d_qm < 1:
        raise ValueError("memory distance must be >= 1")
    d_time = max(tp.d_qpu, tp.d_qm)
    error = 2 * d_time * (tp.eps_qm + tp.eps_qpu * (tp.t_qm_s / tp.t_qpu_s))
    return TransferResult(error, 2 * d_time * tp.t_qm_s)


def stqm_storage_valid(modality: ModalitySpec, dwell_s: float,
                       consumer_p_phys: float) -> bool:
    """True while stored error stays within the consuming QPU's physical rate."""
    return dwell_s / modality.t2_s <= consumer_p_phys


__all__ = [
    "PREFACTOR", "TransferInfeasible", "logical_error_per_cycle",
    "idle_error", "equivalent_memory_distance", "TransferParams",
    "TransferResult", "transversal_error", "transfer_transversal",
    "transfer_lattice_surgery", "stqm_storage_valid",
]
