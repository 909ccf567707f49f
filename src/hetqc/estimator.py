"""Workload-level runtime, fidelity, and hardware-cost estimates.

Two layers: closed-form factoring-run arithmetic from fixed call counts and
per-call durations, and a comparison driver that compiles one circuit onto
several architectures and tabulates the schedules side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .arch import ArchitectureSpec, load_architecture
from .circuits import LogicalCircuit
from .compiler import CompileError, _FrontEnd, error_budget, schedule
from .generators import generate_rsa_subroutine
from .resources import CostWeights, count_architecture, space_cost

SECONDS_PER_DAY = 86400.0

#: calls per shot for the three dominant subroutines of a 2048-bit factoring
#: run (windowed-arithmetic circuit; the rest of the gate volume is noise)
RSA_CALLS = {"adder": 10_621_207, "lookup": 7_646_081, "phaseup": 1_581_186}

#: subroutine circuit generators behind the call counters
RSA_SUBROUTINES = {"adder": "adder33", "lookup": "lookup6",
                   "phaseup": "phaseup6"}

#: reference per-call durations in seconds; the adder drops to 2 ms when an
#: arithmetic-specialty core executes it
RSA_TAU_REFERENCE = {"adder": 5.2e-3, "lookup": 2.2e-3, "phaseup": 0.15e-3}
RSA_TAU_ASQPU_ADDER = 2.0e-3
#: monolithic-device durations for the same three calls
RSA_TAU_MONOLITHIC = {"adder": 2.0e-3, "lookup": 2.0e-3, "phaseup": 1.0e-3}

RSA_ATTEMPTS = 9.2          # expected shots until a useful outcome
RSA_RETRY_OVERHEAD = 1.14   # schedule padding between attempts
RSA_SHOT_FIDELITY = 0.954   # pinned per-shot success probability


def rsa_shot_time(tau_s: dict[str, float] | None = None) -> float:
    """Wall time of one factoring shot from per-call durations; ``tau_s``
    overrides entries of the reference row."""
    taus = dict(RSA_TAU_REFERENCE)
    if tau_s:
        unknown = set(tau_s) - set(RSA_CALLS)
        if unknown:
            raise ValueError(f"unknown subroutines: {sorted(unknown)}")
        taus.update(tau_s)
    return math.fsum(RSA_CALLS[k] * taus[k] for k in RSA_CALLS)


def rsa_runtime_days(shot_s: float,
                     fidelity: float = RSA_SHOT_FIDELITY) -> float:
    """Expected calendar time for the full run, in days."""
    if shot_s <= 0:
        raise ValueError("shot time must be positive")
    if not 0 < fidelity <= 1:
        raise ValueError("fidelity outside (0, 1]")
    return (shot_s * RSA_ATTEMPTS * RSA_RETRY_OVERHEAD / fidelity
            / SECONDS_PER_DAY)


@dataclass(frozen=True, slots=True)
class RsaEstimate:
    arch: str
    shot_s: float
    runtime_days: float
    fidelity: float
    qubits_total: int
    qubit_cost_mdays: float       # 1e6 qubit-days
    coupler_cost_mdays: float     # weighted-coupler days, 1e6 units
    tau_s: dict[str, float]
    fidelity_compiled: float | None = None
    tau_compiled_s: dict[str, float] | None = None
    # log10 of fidelity_compiled, finite where the product underflows to 0
    fidelity_compiled_log10: float | None = None


def rsa_estimate(arch: str | ArchitectureSpec,
                 tau_s: dict[str, float] | None = None,
                 fidelity: float = RSA_SHOT_FIDELITY) -> RsaEstimate:
    """Closed-form run estimate for one architecture.

    Durations default to the reference row (with the 2 ms adder whenever an
    ASQPU's specialty is ``adder``, the tag of the adder generator's gates,
    so that it runs them), or the monolithic row
    for an architecture without memory modules, the same test by which
    ``schedule`` picks its model; ``tau_s`` overrides individual entries.
    An architecture that ``validate`` rejects raises ``ValueError`` from
    ``count_architecture``.
    """
    spec = load_architecture(arch) if isinstance(arch, str) else arch
    monolithic = not spec.memory_modules()
    taus = dict(RSA_TAU_MONOLITHIC) if monolithic else dict(RSA_TAU_REFERENCE)
    if any(m.specialty == "adder" for m in spec.by_kind("ASQPU")):
        taus["adder"] = RSA_TAU_ASQPU_ADDER
    if tau_s:
        taus.update(tau_s)
    shot = rsa_shot_time(taus)
    days = rsa_runtime_days(shot, fidelity)
    counts = count_architecture(spec)
    weights = CostWeights()
    coupler_weighted = (counts.couplers_local * weights.w_local
                        + counts.couplers_nonlocal * weights.w_nonlocal
                        + counts.interconnects * weights.w_inter)
    return RsaEstimate(spec.name, shot, days, fidelity, counts.total_qubits,
                       counts.total_qubits * days / 1e6,
                       coupler_weighted * days / 1e6, taus)


def rsa_estimate_compiled(arch: str | ArchitectureSpec,
                          fidelity: float = RSA_SHOT_FIDELITY) -> RsaEstimate:
    """Run estimate with per-call durations measured by compilation.

    Each subroutine circuit is scheduled on the architecture with the model
    ``schedule`` picks for it; its makespan replaces the reference duration.
    The compiled shot fidelity (the product of per-call success
    probabilities over all calls) is reported separately and does not feed
    the runtime, which stays pinned to ``fidelity`` so that runs remain
    comparable across architectures.  Its log10 is reported too, because
    over millions of calls the product itself can underflow to 0.
    """
    spec = load_architecture(arch) if isinstance(arch, str) else arch
    taus: dict[str, float] = {}
    log_f = 0.0
    for name, circ_kind in RSA_SUBROUTINES.items():
        prog = schedule(generate_rsa_subroutine(circ_kind), spec)
        taus[name] = prog.makespan_s
        err = min(error_budget(prog).total, 1.0 - 1e-16)
        log_f += RSA_CALLS[name] * math.log1p(-err)
    base = rsa_estimate(spec, tau_s=taus, fidelity=fidelity)
    return replace(base, fidelity_compiled=math.exp(log_f),
                   tau_compiled_s=taus,
                   fidelity_compiled_log10=log_f / math.log(10))


# --------------------------------------------------------- comparison table

COMPARISON_FIELDS = ("arch", "status", "makespan_s", "total_error",
                     "dominant", "error_ratio", "log_error_ratio",
                     "makespan_ratio",
                     "cnot_count", "st_count", "t_count", "swap_count",
                     "qubits_total", "space_cost")


def _error_count(total: float) -> float:
    """Expected logical errors, ``-log1p(-total)``, of a failure total."""
    return math.inf if total >= 1.0 else -math.log1p(-total)


def compare_architectures(circuit: LogicalCircuit,
                          archs: list[str | ArchitectureSpec]) -> list[dict]:
    """Compile one circuit onto each architecture and tabulate the results.

    The first architecture that compiles cleanly is the reference for the
    ratio columns (reference error / this error, this makespan / reference
    makespan).  ``log_error_ratio`` divides expected logical-error counts,
    ``-log1p(-total)``, which do not saturate near 1 the way the totals of
    ``error_ratio`` do.  A failing architecture contributes a diagnostic row
    with the failure text in ``status`` instead of aborting the table.

    The rows share the front end's work, so each comes out as a compile of
    its own would give it: the circuit is validated once, lowered once per
    (factory state, eps_magic), and consolidated and assigned to cores once
    per compute side.  Only the memories, the simulation, the budget and
    the resource count run for every architecture.
    """
    specs = [load_architecture(arch) if isinstance(arch, str) else arch
             for arch in archs]
    front = _FrontEnd(circuit, specs)
    rows: list[dict] = []
    ref: dict | None = None
    for i, spec in enumerate(specs):
        row: dict = {k: None for k in COMPARISON_FIELDS}
        row["arch"] = spec.name
        try:
            prog = front.schedule(i)
            budget = error_budget(prog)
            counts = count_architecture(spec)
        except (CompileError, ValueError) as exc:
            row["status"] = f"failed: {exc}"
            rows.append(row)
            continue
        row.update(status="ok", makespan_s=prog.makespan_s,
                   total_error=budget.total, dominant=budget.dominant(),
                   qubits_total=counts.total_qubits,
                   space_cost=space_cost(counts),
                   **{k: prog.counters[k] for k in
                      ("cnot_count", "st_count", "t_count", "swap_count")})
        del prog  # freed before the next row is scheduled
        if ref is None:
            ref = row
            row["error_ratio"] = 1.0
            row["log_error_ratio"] = 1.0
            row["makespan_ratio"] = 1.0
        else:
            if row["total_error"] > 0:
                row["error_ratio"] = ref["total_error"] / row["total_error"]
                row["log_error_ratio"] = (_error_count(ref["total_error"])
                                          / _error_count(row["total_error"]))
            row["makespan_ratio"] = (row["makespan_s"] / ref["makespan_s"]
                                     if ref["makespan_s"] > 0 else None)
        rows.append(row)
    return rows


__all__ = [
    "RSA_CALLS", "RSA_SUBROUTINES", "RSA_TAU_REFERENCE",
    "RSA_TAU_ASQPU_ADDER", "RSA_TAU_MONOLITHIC", "RSA_ATTEMPTS",
    "RSA_RETRY_OVERHEAD", "RSA_SHOT_FIDELITY", "rsa_shot_time",
    "rsa_runtime_days", "RsaEstimate", "rsa_estimate",
    "rsa_estimate_compiled", "COMPARISON_FIELDS", "compare_architectures",
]
