"""Factoring-run arithmetic and the architecture comparison driver."""

import json
import math

import pytest

from hetqc.arch import apply_override, builtin_architecture
from hetqc.circuits import LogicalCircuit
from hetqc.cli import build_parser, main
from hetqc.compiler import schedule
from hetqc.estimator import (COMPARISON_FIELDS, RSA_ATTEMPTS, RSA_CALLS,
                             RSA_RETRY_OVERHEAD, RSA_SHOT_FIDELITY,
                             RSA_TAU_ASQPU_ADDER, RSA_TAU_MONOLITHIC,
                             RSA_TAU_REFERENCE, compare_architectures,
                             rsa_estimate, rsa_estimate_compiled,
                             rsa_runtime_days, rsa_shot_time)
from hetqc.generators import generate_aqft, generate_rsa_subroutine


def test_shot_time_reference_row():
    assert rsa_shot_time() == pytest.approx(72_288.8325, rel=1e-6)
    assert rsa_shot_time({"adder": RSA_TAU_ASQPU_ADDER}) == pytest.approx(
        38_300.9701, rel=1e-6)
    assert rsa_shot_time(tau_s=RSA_TAU_MONOLITHIC) == pytest.approx(
        38_115.762, rel=1e-6)


def test_shot_time_overrides():
    base = rsa_shot_time()
    only_adder_free = rsa_shot_time(tau_s={"adder": 0.0})
    assert only_adder_free == pytest.approx(base - RSA_CALLS["adder"] * 5.2e-3)
    with pytest.raises(ValueError):
        rsa_shot_time(tau_s={"grover": 1.0})


def test_runtime_days():
    shot = rsa_shot_time()
    days = rsa_runtime_days(shot)
    assert days == pytest.approx(9.1982, rel=1e-4)
    assert days == pytest.approx(shot * RSA_ATTEMPTS * RSA_RETRY_OVERHEAD
                                 / RSA_SHOT_FIDELITY / 86400.0)
    assert rsa_runtime_days(rsa_shot_time(
        {"adder": RSA_TAU_ASQPU_ADDER})) == pytest.approx(4.8735, rel=1e-4)
    with pytest.raises(ValueError):
        rsa_runtime_days(0.0)
    with pytest.raises(ValueError):
        rsa_runtime_days(1.0, fidelity=0.0)
    with pytest.raises(ValueError):
        rsa_runtime_days(1.0, fidelity=1.5)


def test_estimate_picks_duration_row_by_architecture():
    b2 = rsa_estimate("B2")
    assert b2.shot_s == pytest.approx(72_288.8325, rel=1e-6)
    assert b2.runtime_days == pytest.approx(9.1982, rel=1e-4)

    b6 = rsa_estimate("B6")  # arithmetic-specialty core: 2 ms adder
    assert b6.shot_s == pytest.approx(38_300.9701, rel=1e-6)
    assert b6.runtime_days == pytest.approx(4.8735, rel=1e-4)

    mono = rsa_estimate("Mono")
    assert mono.shot_s == pytest.approx(38_115.762, rel=1e-6)
    assert mono.runtime_days == pytest.approx(4.8499, rel=1e-4)


def test_estimate_takes_the_fast_adder_only_from_an_adder_core():
    b4 = builtin_architecture("B4")
    assert rsa_estimate(b4).tau_s["adder"] == RSA_TAU_ASQPU_ADDER
    apply_override(b4, "asqpu0.specialty=lookup")
    est = rsa_estimate(b4)
    assert est.tau_s == RSA_TAU_REFERENCE
    assert est.shot_s == rsa_shot_time()
    # nor does the compiled adder run on that core
    prog = schedule(generate_rsa_subroutine("adder33"), b4)
    assert prog.events and all(ev.module != "asqpu0" for ev in prog.events)


def test_rsa_fidelity_default_is_the_estimators():
    assert build_parser().parse_args(["rsa"]).fidelity == RSA_SHOT_FIDELITY


def test_estimate_hardware_costs():
    rows = {name: rsa_estimate(name)
            for name in ("B1", "B2", "B3", "B4", "B6")}
    assert rows["B1"].qubits_total == 1_036_754
    assert rows["B2"].qubits_total == 380_912
    assert rows["B3"].qubits_total == 189_764
    assert rows["B4"].qubits_total == 1_094_609
    assert rows["B6"].qubits_total == 247_619
    assert rows["B2"].qubit_cost_mdays == pytest.approx(3.5037, rel=1e-3)
    assert rows["B3"].qubit_cost_mdays == pytest.approx(1.7455, rel=1e-3)
    assert rows["B6"].qubit_cost_mdays == pytest.approx(1.2068, rel=1e-3)
    assert rows["B6"].coupler_cost_mdays == pytest.approx(1.8185, rel=1e-3)
    # identity between the reported pieces
    for est in rows.values():
        assert est.qubit_cost_mdays == pytest.approx(
            est.qubits_total * est.runtime_days / 1e6)


def test_estimate_compiled_measures_durations():
    est = rsa_estimate_compiled("B2")
    assert est.tau_compiled_s is not None
    assert est.tau_compiled_s["adder"] == pytest.approx(5.2e-3, rel=0.15)
    assert 0.0 < est.fidelity_compiled <= 1.0
    # runtime stays pinned to the shared fidelity, durations are measured
    assert est.fidelity == RSA_SHOT_FIDELITY
    assert est.shot_s == pytest.approx(
        math.fsum(RSA_CALLS[k] * est.tau_compiled_s[k] for k in RSA_CALLS))


def test_estimate_compiled_matches_run_on_grid(tmp_path, capsys):
    # one rule picks the model: the Mono adder costs the same in both paths
    est = rsa_estimate_compiled("Mono")
    out = tmp_path / "run"
    assert main(["run", "--workload", "rsa:kind=adder33", "--arch", "Mono",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert est.tau_compiled_s["adder"] == summary["makespan_s"]
    assert summary["makespan_s"] == pytest.approx(38.857e-3, rel=1e-4)


def test_estimate_compiled_log_fidelity_survives_underflow(tmp_path, capsys):
    # millions of baseline1000 calls: the product underflows, its log does not
    est = rsa_estimate_compiled("baseline1000")
    assert est.fidelity_compiled == 0.0
    assert math.isfinite(est.fidelity_compiled_log10)
    assert est.fidelity_compiled_log10 < 0.0
    out = tmp_path / "rsa"
    assert main(["rsa", "--compiled", "--archs", "baseline1000",
                 "--out", str(out)]) == 0
    assert f"(log10 {est.fidelity_compiled_log10:.6g})" \
        in capsys.readouterr().out
    payload = json.loads((out / "rsa.json").read_text())
    assert payload[0]["fidelity_compiled_log10"] \
        == est.fidelity_compiled_log10


def test_compare_architectures_rows():
    circuit = generate_aqft(10, k_th=4)
    rows = compare_architectures(circuit, ["baseline1000", "A1"])
    assert [r["arch"] for r in rows] == ["baseline1000", "A1"]
    assert all(set(r) == set(COMPARISON_FIELDS) for r in rows)
    ref, het = rows
    assert ref["status"] == het["status"] == "ok"
    assert ref["error_ratio"] == ref["makespan_ratio"] == 1.0
    assert het["error_ratio"] == pytest.approx(
        ref["total_error"] / het["total_error"])
    assert ref["log_error_ratio"] == 1.0
    assert het["log_error_ratio"] == pytest.approx(
        math.log1p(-ref["total_error"]) / math.log1p(-het["total_error"]))
    assert het["log_error_ratio"] > het["error_ratio"]
    assert het["makespan_ratio"] == pytest.approx(
        het["makespan_s"] / ref["makespan_s"])
    assert het["st_count"] > 0
    assert ref["st_count"] == 0


def test_compare_architectures_reports_failures():
    big = LogicalCircuit("too_big", 1500)
    for q in range(1500):
        big.add("H", q)
    rows = compare_architectures(big, ["A1"])
    assert rows[0]["status"].startswith("failed:")
    assert rows[0]["makespan_s"] is None


def test_compare_architectures_failed_reference_skipped():
    circuit = generate_aqft(8, k_th=4)
    spec = builtin_architecture("A1")
    spec.module("qpu0").n_logical = 0  # invalid on purpose
    rows = compare_architectures(circuit, [spec, "A2"])
    assert rows[0]["status"].startswith("failed:")
    assert rows[1]["status"] == "ok"
    assert rows[1]["error_ratio"] == 1.0  # first clean row is the reference
