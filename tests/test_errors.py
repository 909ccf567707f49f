"""Error-model unit tests: per-cycle scaling, idling, transfers, storage."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from hetqc.qec import (TransferInfeasible, TransferParams,
                       equivalent_memory_distance, idle_error,
                       logical_error_per_cycle, stqm_storage_valid,
                       transfer_lattice_surgery, transfer_transversal,
                       transversal_error)
from hetqc.arch import ModalitySpec

from oracles import product_error, slow_logical_error


def test_per_cycle_calibration_points():
    # 0.03 * (1/12)**8 and 0.03 * (1/60)**5, worked out by hand
    assert logical_error_per_cycle(5e-4, 6e-3, 15) == pytest.approx(
        6.9771e-11, rel=1e-4)
    assert logical_error_per_cycle(1e-4, 6e-3, 9) == pytest.approx(
        3.8580e-11, rel=1e-4)


@given(st.floats(1e-6, 0.9), st.integers(1, 40))
def test_per_cycle_matches_slow_form(ratio, d):
    got = logical_error_per_cycle(ratio * 6e-3, 6e-3, d)
    assert got == pytest.approx(slow_logical_error(ratio * 6e-3, 6e-3, d))


def test_per_cycle_monotonic_in_distance():
    vals = [logical_error_per_cycle(5e-4, 6e-3, d) for d in range(3, 31, 2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_per_cycle_rejects_above_threshold():
    with pytest.raises(ValueError):
        logical_error_per_cycle(6e-3, 6e-3, 15)
    with pytest.raises(ValueError):
        logical_error_per_cycle(7e-3, 6e-3, 15)
    with pytest.raises(ValueError):
        logical_error_per_cycle(5e-4, 6e-3, 0)


def test_idle_error_small_counts():
    eps = 1e-10
    assert idle_error(eps, 0) == 0.0
    assert idle_error(eps, 1) == pytest.approx(eps, rel=1e-9)
    assert idle_error(eps, 7) == pytest.approx(7 * eps, rel=1e-6)


@given(st.floats(1e-12, 0.2), st.floats(0, 1e5), st.floats(0, 1e5))
def test_idle_error_additive(eps, a, b):
    combined = idle_error(eps, a + b)
    split = product_error([idle_error(eps, a), idle_error(eps, b)])
    # the dumb product oracle cancels near 1 - keep, so the bar is loose
    assert split == pytest.approx(combined, rel=1e-3, abs=1e-15)


def test_idle_error_validates():
    with pytest.raises(ValueError):
        idle_error(-0.1, 5)
    with pytest.raises(ValueError):
        idle_error(1e-3, -1)


def test_transversal_transfer_design_point():
    eps = logical_error_per_cycle(5e-4, 6e-3, 15)
    res = transfer_transversal(TransferParams(
        eps_qpu=eps, d_qpu=15, t_qpu_s=1e-6, eps_th=6e-3, eps_tele=1e-4))
    # 2*eps + (1e-4/6e-3)**8, within 5% of the worked value 1.4e-10
    assert res.error == pytest.approx(1.4e-10, rel=0.05)
    assert res.duration_s == 2e-6


def test_transversal_residue_term_grows_with_stored_idle():
    eps = logical_error_per_cycle(5e-4, 6e-3, 15)
    base = TransferParams(eps_qpu=eps, d_qpu=15, t_qpu_s=1e-6, eps_th=6e-3,
                          eps_tele=1e-4)
    lo = transfer_transversal(base).error
    hi = transfer_transversal(TransferParams(
        eps_qpu=eps, d_qpu=15, t_qpu_s=1e-6, eps_th=6e-3, eps_tele=1e-4,
        eps_eff_idle=1e-3)).error
    assert hi > lo
    expect = 2 * eps + ((1e-3 + 1e-4) / 6e-3) ** 8
    assert hi == pytest.approx(expect, rel=1e-12)


def test_transversal_infeasible_cases():
    with pytest.raises(TransferInfeasible):
        transfer_transversal(TransferParams(eps_qpu=1e-10, d_qpu=15,
                                            t_qpu_s=1e-6))
    with pytest.raises(TransferInfeasible):
        transfer_transversal(TransferParams(
            eps_qpu=1e-10, d_qpu=15, t_qpu_s=1e-6, eps_th=6e-3,
            eps_tele=5e-3, eps_eff_idle=2e-3))


def _transversal_draw(rng):
    """Random transversal inputs, a share of them at or past threshold."""
    eps_th = rng.choice([0.0, -1e-3, rng.uniform(1e-3, 1e-2)])
    if rng.random() < 0.7:
        eps_th = rng.uniform(1e-3, 1e-2)
    eps_tele = rng.uniform(0.0, 5e-3)
    eps_eff_idle = rng.choice([0.0, rng.uniform(0.0, 1e-2)])
    if eps_th > 0 and rng.random() < 0.1:
        eps_eff_idle = eps_th - eps_tele  # residue exactly at threshold
    return dict(eps_qpu=rng.uniform(0.0, 1e-6), d_qpu=rng.randrange(1, 40),
                t_qpu_s=rng.uniform(1e-7, 1e-5), eps_th=eps_th,
                eps_tele=eps_tele, eps_eff_idle=eps_eff_idle)


def test_transversal_error_matches_transfer_transversal():
    # the scheduler prices each passive-store read with the scalar form
    rng = random.Random(4242)
    outcomes = {"ok": 0, "threshold not set": 0, "reaches threshold": 0}
    for _ in range(400):
        kw = _transversal_draw(rng)
        scalar_kw = {k: kw[k] for k in ("eps_qpu", "d_qpu", "eps_th",
                                        "eps_tele", "eps_eff_idle")}
        try:
            expect = transfer_transversal(TransferParams(**kw)).error
        except TransferInfeasible as exc:
            with pytest.raises(TransferInfeasible) as got:
                transversal_error(**scalar_kw)
            assert got.value.args == exc.args
            outcomes["threshold not set" if kw["eps_th"] <= 0
                     else "reaches threshold"] += 1
            continue
        assert transversal_error(**scalar_kw).hex() == expect.hex()
        outcomes["ok"] += 1
    assert min(outcomes.values()) >= 30, outcomes
    # the dwell's idle error has no default: a bare hop passes 0.0
    with pytest.raises(TypeError):
        transversal_error(1e-9, 9, 1e-2, 1e-3)


def test_lattice_surgery_design_point():
    eps_a = logical_error_per_cycle(5e-4, 6e-3, 15)
    eps_b = logical_error_per_cycle(1e-4, 6e-3, 9)
    res = transfer_lattice_surgery(TransferParams(
        eps_qpu=eps_a, d_qpu=15, t_qpu_s=1e-6,
        eps_qm=eps_b, d_qm=9, t_qm_s=1e-3))
    # 2*15*(eps_b + eps_a*1000), worked value 2.1e-6; clocked by the memory
    assert res.error == pytest.approx(2.1e-6, rel=0.05)
    assert res.duration_s == pytest.approx(30e-3)


def test_lattice_surgery_validates():
    with pytest.raises(ValueError):
        transfer_lattice_surgery(TransferParams(
            eps_qpu=1e-10, d_qpu=15, t_qpu_s=1e-6, d_qm=0, t_qm_s=1e-3))
    with pytest.raises(ValueError):
        transfer_lattice_surgery(TransferParams(
            eps_qpu=1e-10, d_qpu=15, t_qpu_s=1e-6, d_qm=9, t_qm_s=0))


_NV = ModalitySpec("nv_ensemble", p_phys=1e-4, p_th=6e-3, t1_s=3.6e4,
                   t2_s=3.6e4)


def test_storage_validity_window():
    limit = 5e-4 * _NV.t2_s  # 18 s: dwell / T2 reaches the consumer's rate
    assert stqm_storage_valid(_NV, limit * 0.999, 5e-4)
    assert not stqm_storage_valid(_NV, limit * 1.001, 5e-4)


def test_memory_distance_crossing():
    # bisect the cycle-rate ratio where the break-even distance hits 9
    lo, hi = 1e4, 1e7
    assert equivalent_memory_distance(1 / 12, 25, 5, lo) > 9
    assert equivalent_memory_distance(1 / 12, 25, 5, hi) < 9
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if equivalent_memory_distance(1 / 12, 25, 5, mid) > 9:
            lo = mid
        else:
            hi = mid
    rt_min_s = hi * 1e-6  # memory cycle at the 1 us compute tier
    assert 0.130 <= rt_min_s <= 0.140


def test_memory_distance_monotone_in_rate():
    vals = [equivalent_memory_distance(1 / 12, 25, 5, r)
            for r in (1e4, 1e5, 1e6)]
    assert vals[0] > vals[1] > vals[2]


def test_one_second_idle_design_points():
    # memory tier at kappa=5 (ratio 1/60), distance 9
    eps_mem = logical_error_per_cycle(1 / 12, 5.0, 9)
    at_crossing = idle_error(eps_mem, 1.0 / 0.13760)
    quarter_second = idle_error(eps_mem, 1.0 / 0.25)
    assert at_crossing == pytest.approx(3.33e-10, rel=0.20)
    assert quarter_second == pytest.approx(1.54e-10, rel=0.20)
