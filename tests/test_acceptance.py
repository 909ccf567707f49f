"""Release gate: one test per acceptance criterion, one printed line each.

Each test prints `[criterion N] label: PASS/FAIL` on the live terminal and
then asserts, so a full `pytest tests/test_acceptance.py` run shows the
scorecard even when everything is green.  Numeric targets are the worked
design points with their stated tolerances; see README for the list.
"""

import math
import random
import time

import numpy as np
import pytest

from hetqc.arch import builtin_architecture
from hetqc.circuits import LogicalCircuit
from hetqc.compiler import error_budget, schedule
from hetqc.estimator import (RSA_TAU_ASQPU_ADDER, RSA_TAU_REFERENCE,
                             rsa_estimate, rsa_estimate_compiled,
                             rsa_runtime_days, rsa_shot_time)
from hetqc.generators import generate_aqft, generate_cuccaro_adder
from hetqc.qec import (TransferParams, equivalent_memory_distance, idle_error,
                       logical_error_per_cycle, transfer_lattice_surgery,
                       transfer_transversal)
from hetqc.resources import (count_architecture, count_homogeneous,
                             place_transfer_patches)
from hetqc.rewrites import rewrite_depth_reduce

from oracles import (check_causality, check_lane_exclusive,
                     check_no_routing_swaps, check_router_audit,
                     check_transfer_pairing, classical_state, dense_unitary,
                     random_circuit)
from test_resources import _layout_problems
from test_scheduler_invariants import N_CASES, _case


def _report(capsys, num, label, failures, extra=""):
    mark = "PASS" if not failures else "FAIL"
    detail = f" [{extra}]" if extra else ""
    with capsys.disabled():
        print(f"[criterion {num:2d}] {label}: {mark}{detail}")
    assert not failures, "; ".join(failures)


def _best_of(fn, repeats=5):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _dev(value, target):
    return abs(value / target - 1.0)


def test_criterion_01_homogeneous_tally(capsys):
    rc, elapsed = _best_of(
        lambda: count_homogeneous(1000, 15, c_anc=1.0, n_mf_per_qpu=3,
                                  n_dist=72))
    failures = []
    if rc.total_qubits != 49_140_000:
        failures.append(f"qubits {rc.total_qubits} != 49,140,000")
    if rc.total_couplers != 98_280_000:
        failures.append(f"couplers {rc.total_couplers} != 98,280,000")
    if elapsed >= 1e-3:
        failures.append(f"took {elapsed * 1e3:.2f} ms")
    _report(capsys, 1, "homogeneous device tally", failures,
            f"{rc.total_qubits:,} qubits in {elapsed * 1e6:.0f} us")


def test_criterion_02_heterogeneous_tallies(capsys):
    failures = []
    a1, t1 = _best_of(lambda: count_architecture(builtin_architecture("A1")))
    a2, t2 = _best_of(lambda: count_architecture(builtin_architecture("A2")))
    checks = [
        ("A1 total", a1.total_qubits, 0.825e6, 0.015),
        ("A1 interconnects", a1.interconnects, 0.453e6, 0.01),
        ("A1 local couplers", a1.couplers_local, 0.229e6, 0.01),
        ("A2 total", a2.total_qubits, 0.354e6, 0.01),
        ("A2 local couplers", a2.couplers_local, 0.336e6, 0.01),
    ]
    for name, got, want, tol in checks:
        if _dev(got, want) > tol:
            failures.append(f"{name} {got:,} vs {want:,.0f} (>{tol:.1%})")
    if a2.interconnects != 45_270:
        failures.append(f"A2 interconnects {a2.interconnects} != 45,270")
    for name, t in (("A1", t1), ("A2", t2)):
        if t >= 1e-3:
            failures.append(f"{name} took {t * 1e3:.2f} ms")
    _report(capsys, 2, "heterogeneous device tallies", failures,
            f"A1 {a1.total_qubits:,} / A2 {a2.total_qubits:,}")


def test_criterion_03_error_calibration(capsys):
    failures = []
    fast = logical_error_per_cycle(5e-4, 6e-3, 15)   # ratio 1/12
    slow = logical_error_per_cycle(1e-4, 6e-3, 9)    # ratio 1/60
    if _dev(fast, 7e-11) > 0.03:
        failures.append(f"d=15 point {fast:.3e} off 7e-11 by >3%")
    if _dev(slow, 3.8e-11) > 0.03:
        failures.append(f"d=9 point {slow:.3e} off 3.8e-11 by >3%")
    _report(capsys, 3, "per-cycle error calibration", failures,
            f"{fast:.2e} / {slow:.2e}")


def test_criterion_04_memory_break_even(capsys):
    failures = []
    lo, hi = 1e4, 1e7  # cycle-rate ratio bracketing the distance-9 crossing
    if not (equivalent_memory_distance(1 / 12, 25, 5, lo) > 9
            > equivalent_memory_distance(1 / 12, 25, 5, hi)):
        failures.append("crossing not bracketed")
    else:
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if equivalent_memory_distance(1 / 12, 25, 5, mid) > 9:
                lo = mid
            else:
                hi = mid
    rt_s = hi * 1e-6  # slowest admissible memory cycle on a 1 us compute tier
    if not 0.130 <= rt_s <= 0.140:
        failures.append(f"minimal cycle product {rt_s * 1e3:.1f} ms outside "
                        "[130, 140] ms")
    eps_mem = logical_error_per_cycle(1 / 12, 5.0, 9)
    one_s_slow = idle_error(eps_mem, 1.0 / rt_s)
    one_s_fast = idle_error(eps_mem, 1.0 / 0.25)
    if _dev(one_s_slow, 3.33e-10) > 0.20:
        failures.append(f"1-s idle {one_s_slow:.3e} off 3.33e-10 by >20%")
    if _dev(one_s_fast, 1.54e-10) > 0.20:
        failures.append(f"1-s idle {one_s_fast:.3e} off 1.54e-10 by >20%")
    _report(capsys, 4, "memory break-even window", failures,
            f"{rt_s * 1e3:.1f} ms")


def test_criterion_05_transfer_design_points(capsys):
    failures = []
    eps15 = logical_error_per_cycle(5e-4, 6e-3, 15)
    tele = transfer_transversal(TransferParams(
        eps_qpu=eps15, d_qpu=15, t_qpu_s=1e-6, eps_th=6e-3, eps_tele=1e-4))
    if _dev(tele.error, 1.4e-10) > 0.05:
        failures.append(f"teleport error {tele.error:.3e} off 1.4e-10 by >5%")
    if not math.isclose(tele.duration_s, 2e-6, rel_tol=1e-12):
        failures.append(f"teleport duration {tele.duration_s} != 2 us")
    eps9 = logical_error_per_cycle(1e-4, 6e-3, 9)
    surgery = transfer_lattice_surgery(TransferParams(
        eps_qpu=eps15, d_qpu=15, t_qpu_s=1e-6,
        eps_qm=eps9, d_qm=9, t_qm_s=1e-3))
    if _dev(surgery.error, 2.1e-6) > 0.05:
        failures.append(f"surgery error {surgery.error:.3e} off 2.1e-6 by >5%")
    if not math.isclose(surgery.duration_s, 30e-3, rel_tol=1e-12):
        failures.append(f"surgery duration {surgery.duration_s} != 30 ms")
    _report(capsys, 5, "transfer protocol design points", failures,
            f"{tele.error:.2e} @ 2 us, {surgery.error:.2e} @ 30 ms")


def test_criterion_06_patch_placement(capsys):
    failures = []
    if place_transfer_patches(1254, 4) != 22:
        failures.append(f"1254/4 -> {place_transfer_patches(1254, 4)} != 22")
    ns = sorted(set(range(1, 41)) | set(range(50, 2001, 130)) | {1254, 2000})
    checked = 0
    for k in range(7):
        for n in ns:
            problems = _layout_problems(n, k)
            checked += 1
            if problems:
                failures.append(f"layout n={n} k={k}: {problems[0]}")
                break
        if failures:
            break
    _report(capsys, 6, "transfer patch placement", failures,
            f"22 patches; {checked} layouts BFS-checked")


def test_criterion_07_factoring_arithmetic(capsys):
    failures = []
    (shot, t_shot) = _best_of(rsa_shot_time)
    days = rsa_runtime_days(shot)
    asqpu_days = rsa_runtime_days(
        rsa_shot_time({"adder": RSA_TAU_ASQPU_ADDER}))
    b2, t_b2 = _best_of(lambda: rsa_estimate("B2"))
    b3 = rsa_estimate("B3")
    b6 = rsa_estimate("B6")
    checks = [
        ("shot time", shot, 72_289.0, 0.001),
        ("runtime", days, 9.2, 0.02),
        ("accelerated runtime", asqpu_days, 4.9, 0.02),
        ("B2 qubits", b2.qubits_total, 0.38e6, 0.03),
        ("B3 qubits", b3.qubits_total, 0.19e6, 0.03),
        ("B6 cost", b6.qubit_cost_mdays, 1.22, 0.05),
    ]
    for name, got, want, tol in checks:
        if _dev(got, want) > tol:
            failures.append(f"{name} {got:,.4g} vs {want:,.4g} (>{tol:.1%})")
    if max(t_shot, t_b2) >= 10e-3:
        failures.append(f"estimate took {max(t_shot, t_b2) * 1e3:.1f} ms")
    # advisory: the per-call durations that compiling on B5 gives, beside
    # the pinned ones
    pinned = dict(RSA_TAU_REFERENCE, adder=RSA_TAU_ASQPU_ADDER)
    compiled = rsa_estimate_compiled("B5").tau_compiled_s
    taus = ", ".join(f"{k} {compiled[k] * 1e3:.3g} vs {pinned[k] * 1e3:.3g}"
                     for k in pinned)
    _report(capsys, 7, "factoring-run arithmetic", failures,
            f"{shot:,.0f} s/shot, {days:.2f} d, {asqpu_days:.2f} d "
            f"accelerated; advisory compiled tau on B5 in ms: {taus}")


def test_criterion_08_end_to_end_compile(capsys):
    t0 = time.perf_counter()
    workload = generate_aqft(1000, k_th=9)
    base = schedule(workload, builtin_architecture("baseline1000"))
    het = schedule(workload, builtin_architecture("A1"))
    far = schedule(workload, builtin_architecture("A3"))
    elapsed = time.perf_counter() - t0

    budget_base = error_budget(base)
    budget_het = error_budget(het)
    budget_far = error_budget(far)
    ratio = budget_base.total / budget_het.total
    # expected logical-error counts, which do not saturate near 1
    log_ratio = math.log1p(-budget_base.total) / math.log1p(-budget_het.total)
    span_ratio = het.makespan_s / base.makespan_s

    failures = []
    if ratio < 10.0:
        failures.append(f"error improvement {ratio:.1f}x < 10x")
    if budget_base.dominant() != "qpu_idle":
        failures.append(f"baseline dominated by {budget_base.dominant()}")
    if budget_far.dominant() != "transfer":
        failures.append(f"slow-memory run dominated by "
                        f"{budget_far.dominant()}")
    if not 0.5 <= span_ratio <= 2.0:
        failures.append(f"makespan ratio {span_ratio:.2f} outside [0.5, 2]")
    if elapsed >= 300.0:
        failures.append(f"compile took {elapsed:.0f} s")

    # advisory count comparison (reported, never asserted): swap expansion
    # inflates the baseline CNOT tally and retirement writes inflate the
    # transfer tally relative to the coarse design-point figures
    advisory = (f"advisory counts: base cnot {base.counters['cnot_count']:,} "
                f"vs 46,690 ({_dev(base.counters['cnot_count'], 46_690):+.0%})"
                f", het cnot {het.counters['cnot_count']:,} vs 15,930 "
                f"({_dev(het.counters['cnot_count'], 15_930):+.0%}), "
                f"het st {het.counters['st_count']:,} vs 34,840 "
                f"({_dev(het.counters['st_count'], 34_840):+.0%})")
    _report(capsys, 8, "1000-qubit end-to-end compile", failures,
            f"{ratio:.0f}x lower error ({log_ratio:.0f}x in expected "
            f"error counts), span ratio {span_ratio:.2f}, "
            f"{elapsed:.0f} s; {advisory}")


def test_criterion_09_scheduler_invariants(capsys):
    failures = []
    for index in range(N_CASES):
        circuit, arch_name = _case(index)
        prog = schedule(circuit, builtin_architecture(arch_name))
        again = schedule(circuit, builtin_architecture(arch_name))
        problems = []
        if prog.to_text() != again.to_text():
            problems.append("nondeterministic schedule")
        problems += check_lane_exclusive(prog)
        problems += check_causality(prog)
        problems += check_transfer_pairing(prog)
        problems += check_router_audit(prog)
        problems += check_no_routing_swaps(prog)
        if problems:
            failures.append(f"case {index} ({circuit.name} on {arch_name}): "
                            + problems[0])
            break
    _report(capsys, 9, "scheduler invariants on random corpus", failures,
            f"{N_CASES} circuits across A1/A2/A3")


def test_criterion_10_small_instance_semantics(capsys):
    failures = []
    checked = 0
    for seed in range(60):
        rng = random.Random(40_000 + seed)
        raw = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 40))
        circuit = LogicalCircuit(raw.name, raw.n_qubits,
                                 [op for op in raw.ops
                                  if op.kind != "Measure"])
        reduced = rewrite_depth_reduce(circuit)
        if not np.allclose(dense_unitary(reduced), dense_unitary(circuit),
                           atol=1e-9):
            failures.append(f"rewrite changed the unitary (seed {seed})")
            break
        checked += 1

    for bits in (1, 2):
        n = 2 * bits + 2
        adder = generate_cuccaro_adder(bits)
        for a in range(2 ** bits):
            for b in range(2 ** bits):
                for carry in (0, 1):
                    packed = carry | (a << 1) | (b << (1 + bits))
                    got = classical_state(adder, packed)
                    total = a + b + carry
                    want = (carry | (a << 1)
                            | ((total % 2 ** bits) << (1 + bits))
                            | ((total >> bits) << (n - 1)))
                    checked += 1
                    if got != want:
                        failures.append(
                            f"{bits}-bit adder: a={a} b={b} c={carry} "
                            f"-> {got:0{n}b}, want {want:0{n}b}")
    _report(capsys, 10, "small-instance semantics", failures,
            f"{checked} equivalence checks")
