"""CLI subcommands: exit codes, artifacts, determinism."""

import csv
import dataclasses
import json

import pytest

from hetqc import cli, compiler
from hetqc.arch import builtin_architecture, parse_config_text, to_config_text
from hetqc.circuits import GateOp, LogicalCircuit
from hetqc.cli import build_workload, main
from hetqc.generators import generate_aqft, generate_cuccaro_adder


def test_build_workload_kinds(tmp_path):
    assert build_workload("aqft:n=12,k_th=4").n_qubits == 12
    assert build_workload("cuccaro:bits=3").n_qubits == 8
    assert build_workload("hubbard:lx=2,ly=2").n_qubits == 8
    assert build_workload("rsa:kind=phaseup6").n_qubits == 14
    assert build_workload("rsa:").name == "rsa_adder33"
    path = tmp_path / "c.txt"
    path.write_text(generate_cuccaro_adder(2).to_text())
    assert build_workload(f"file:{path}").n_qubits == 6


@pytest.mark.parametrize("bad", [
    "aqft:k_th=4",            # missing n
    "aqft:n=twelve",
    "aqft:n=8,bogus=1",
    "warp:n=8",
    "aqft:n",                 # not key=value
    "file:",
    "file:/no/such/file",
    "rsa:kind=warp",
    # each a generator refuses; they once ended in a traceback
    "aqft:n=0",
    "aqft:n=4,k_th=0",
    "cuccaro:bits=0",
    "hubbard:lx=0,ly=2",
    "hubbard:lx=2,ly=2,steps=0",
])
def test_build_workload_rejects(bad):
    from hetqc.cli import _CliError
    with pytest.raises(_CliError) as exc:
        build_workload(bad)
    assert exc.value.code == 2


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", "--workload", "aqft:n=10,k_th=4", "--arch", "A1",
                 "--out", str(out)])
    assert code == 0
    assert "makespan" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text())
    assert summary["arch"] == "A1"
    assert summary["n_qubits_count"] == 10
    assert summary["makespan_s"] > 0
    assert summary["dominant_category"] in summary["budget_prob"]

    schedule_text = (out / "schedule.txt").read_text()
    assert schedule_text.startswith("circuit aqft_n10_k4 on A1")

    with (out / "budget.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["category", "error_prob"]
    assert rows[-1][0] == "total"
    assert float(rows[-1][1]) == pytest.approx(summary["total_error_prob"])


def test_run_artifacts_deterministic(tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["run", "--workload", "cuccaro:bits=3", "--arch", "A2",
                     "--out", str(out)]) == 0
        outs.append((out / "summary.json").read_text()
                    + (out / "schedule.txt").read_text())
    assert outs[0] == outs[1]


def test_run_memoryless_arch_uses_grid(tmp_path):
    out = tmp_path / "b"
    assert main(["run", "--workload", "aqft:n=9,k_th=3", "--arch",
                 "baseline1000", "--out", str(out)]) == 0
    text = (out / "schedule.txt").read_text()
    assert "transfer_write" not in text
    assert "mapped_idle" in text


def test_run_exit_codes():
    assert main(["run", "--workload", "aqft:n=oops", "--arch", "A1"]) == 2
    assert main(["run", "--workload", "aqft:n=8", "--arch", "A9"]) == 2
    assert main(["run", "--workload", "aqft:n=8", "--arch", "A1",
                 "--override", "qpu.d=14"]) == 3
    assert main(["run", "--workload", "aqft:n=2000", "--arch", "A1"]) == 4


def test_run_rejects_invalid_circuit(monkeypatch, capsys):
    # generators only build valid circuits; this one bypasses the checks
    bad = LogicalCircuit("bad", 2, [GateOp("CNOT", (0, 5))])
    monkeypatch.setattr(cli, "generate_aqft", lambda n, k_th=None: bad)
    for arch in ("A1", "Mono"):  # modular scheduler and grid model
        assert main(["run", "--workload", "aqft:n=2", "--arch", arch]) == 3
        err = capsys.readouterr().err
        assert "invalid circuit: op 0:" in err


def test_run_validates_circuit_once(monkeypatch, capsys):
    calls = []
    validate = LogicalCircuit.validate

    def counted(self):
        calls.append(self.name)
        return validate(self)

    monkeypatch.setattr(LogicalCircuit, "validate", counted)
    assert main(["run", "--workload", "aqft:n=6", "--arch", "A1"]) == 0
    capsys.readouterr()
    assert calls == [generate_aqft(6).name]


def _circuit_file(tmp_path, n_qubits, ops):
    path = tmp_path / "c.txt"
    path.write_text("\n".join(["name wide", f"qubits {n_qubits}", *ops])
                    + "\n")
    return f"file:{path}"


def test_run_measured_qubits_do_not_count_against_capacity(tmp_path, capsys):
    # 1200 qubits on A1's 3 slots + 1000 cells: each is measured out
    ops = [line for q in range(1200) for line in (f"H q{q}", f"Measure q{q}")]
    assert main(["run", "--workload", _circuit_file(tmp_path, 1200, ops),
                 "--arch", "A1"]) == 0
    capsys.readouterr()


def test_run_untouched_qubits_do_not_count_against_capacity(tmp_path, capsys):
    spec = _circuit_file(tmp_path, 1200, ["H q0", "CNOT q0 q1"])
    assert main(["run", "--workload", spec, "--arch", "A1"]) == 0
    capsys.readouterr()


def test_run_refuses_a_read_from_an_unlinked_memory(tmp_path, capsys):
    # the B5/B6 adder core reads only cache0; qubit 190 lands in raqm0
    ops = [f"H q{q}" for q in range(200)]
    ops += [f"CNOT q{q} q{q + 1} tag=adder" for q in range(190, 199)]
    spec = _circuit_file(tmp_path, 200, ops + ops[:200])
    for arch in ("B5", "B6"):
        assert main(["run", "--workload", spec, "--arch", arch,
                     "--out", str(tmp_path / arch)]) == 4
        err = capsys.readouterr().err
        assert "qubit 190 is stored in raqm0, which asqpu0:core0" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("arch", ["B5", "B6"])
def test_run_refuses_when_every_linked_memory_is_full(capsys, arch):
    # the adder core links only to the 145-cell cache; raqm0's cells stay
    # free, so the refusal names the full memories, not compute capacity
    assert main(["run", "--workload", "cuccaro:bits=128",
                 "--arch", arch]) == 4
    err = capsys.readouterr().err
    assert ("every memory linked to asqpu0:core0 is full: no cell for "
            "qubit 201") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(("workload", "arch", "override", "refusal"), [
    # B4's QPU cores hold two slots each: the adder's three-qubit gates
    # fit only the ASQPU, which runs them, and the lookup's fit no core
    ("rsa:kind=adder33", "B4", "qpu.n=4", None),
    ("rsa:kind=lookup6", "B4", "qpu.n=4",
     "gate Toffoli needs 3 slots, core qpu0:core0 holds 2"),
    # three cores share A1's three slots, one each
    ("<cnot>", "A1", "qpu.cores=3",
     "gate CNOT needs 2 slots, core qpu0:core0 holds 1"),
], ids=["adder-fits-asqpu", "lookup-fits-no-core", "cnot-on-one-slot"])
def test_run_refuses_a_gate_wider_than_every_core_of_its_tag(
        tmp_path, capsys, workload, arch, override, refusal):
    if workload == "<cnot>":
        workload = _circuit_file(tmp_path, 2, ["CNOT q0 q1"])
    code = main(["run", "--workload", workload, "--arch", arch,
                 "--override", override])
    err = capsys.readouterr().err
    assert code == (0 if refusal is None else 4)
    if refusal is not None:
        assert refusal in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override", [
    "qpu0.t_cycle_s=nan",
    "qpu0.t_cycle_s=inf",
    "stqm0.t2_s=nan",
    "stqm0.t1_s=inf",
    "qpu0.code_anc_fraction=nan",
])
def test_run_rejects_non_finite_override(override):
    assert main(["run", "--workload", "aqft:n=8,k_th=3", "--arch", "A1",
                 "--override", override]) == 3


@pytest.mark.parametrize(("arch", "override", "message"), [
    ("A3", "qpu0.p_phys=0", "p_phys 0.0 not positive"),
    ("A1", "stqm0.t2_s=0", "non-positive T1 or T2"),
    ("A2", "qpu0.t_cycle_s=5e-324", "cycle time 5e-324 s outside"),
])
def test_run_rejects_override_that_would_crash(capsys, arch, override,
                                              message):
    # each once reached the compiler and ended in a traceback
    assert main(["run", "--workload", "aqft:n=8,k_th=3", "--arch", arch,
                 "--override", override]) == 3
    assert message in capsys.readouterr().err


def test_run_override_applies(capsys):
    assert main(["run", "--workload", "aqft:n=8,k_th=3", "--arch", "A2",
                 "--override", "raqm.n=900"]) == 0
    capsys.readouterr()


def test_sweep_writes_comparison(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--workload", "aqft:n=10,k_th=4",
                 "--archs", "baseline1000,A1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "baseline1000" in printed and "A1" in printed

    with (out / "comparison.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["arch"] for r in rows] == ["baseline1000", "A1"]
    assert all(r["status"] == "ok" for r in rows)
    assert float(rows[1]["error_ratio"]) > 0

    assert main(["sweep", "--workload", "aqft:n=4", "--archs", " , "]) == 2
    assert main(["rsa", "--archs", ",,"]) == 2
    assert "no architectures given" in capsys.readouterr().err


def test_rsa_refuses_an_estimate_that_does_not_compile(capsys):
    # two slots per core cannot hold a Toffoli: exit 4, no traceback
    assert main(["rsa", "--compiled", "--archs", "A1",
                 "--override", "qpu.n=2"]) == 4
    err = capsys.readouterr().err
    assert err == ("error: estimate failed for A1: gate Toffoli needs 3 "
                   "slots, core qpu0:core0 holds 2\n")


def test_sweep_prints_a_failed_row(tmp_path, capsys):
    # 1001 qubits exceed the grid device but not A1, where one is touched
    path = tmp_path / "wide.txt"
    path.write_text("name wide\nqubits 1001\nH q0\n", encoding="utf-8")
    assert main(["sweep", "--workload", f"file:{path}",
                 "--archs", "baseline1000,A1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["baseline1000", "failed", "-", "-", "-", "-"]
    assert lines[2] == "    failed: 1001 qubits exceed the device's 1000"
    assert lines[3].split()[:2] == ["A1", "ok"]


def test_run_prints_warnings_to_stderr(tmp_path, capsys):
    # qubit 0 is written out after its one gate and dwells in a memory
    # whose T2 is cut to 1 us until the T gates on qubit 1 end
    path = tmp_path / "lonely.txt"
    path.write_text("name lonely\nqubits 2\nH q0\n" + "T q1\n" * 4,
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--workload", f"file:{path}", "--arch", "A1",
                 "--override", "stqm.t2_s=1e-6", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    warning = "qubit 0: terminal dwell 1.257e-04 s exceeds the recoverable " \
        "storage window"
    assert captured.err == f"warning: {warning}\n"
    assert not any(line.startswith("warning")
                   for line in captured.out.splitlines())
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["warnings"] == [warning]


def test_run_rejects_a_malformed_circuit_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("name bad\nqubits two\n", encoding="utf-8")
    assert main(["run", "--workload", f"file:{path}", "--arch", "A1"]) == 2
    assert "bad circuit file: line 2: bad qubit count 'two'" in \
        capsys.readouterr().err


def _a1_unlinked():
    spec = builtin_architecture("A1")
    spec.links = []
    return spec


def _a1_second_factory():
    spec = builtin_architecture("A1")
    ccz = builtin_architecture("Mono").module("qsf0")
    spec.modules.append(dataclasses.replace(ccz, id="qsf1"))
    return spec


def _a1_second_stqm():
    # once scheduled on both memories but priced as A1 alone
    spec = builtin_architecture("A1")
    spec.modules.append(dataclasses.replace(spec.module("stqm0"), id="stqm1"))
    spec.links.append(dataclasses.replace(spec.links[0], b="stqm1"))
    return spec


def _a2_second_raqm():
    spec = builtin_architecture("A2")
    spec.modules.append(dataclasses.replace(spec.module("raqm0"), id="raqm1"))
    spec.links.append(dataclasses.replace(spec.links[0], b="raqm1"))
    return spec


@pytest.mark.parametrize("make", [_a1_unlinked, _a1_second_factory,
                                  _a1_second_stqm, _a2_second_raqm])
@pytest.mark.parametrize("command", [
    ["run", "--workload", "aqft:n=2", "--arch"],
    ["sweep", "--workload", "aqft:n=2", "--archs"],
    ["rsa", "--archs"],
], ids=["run", "sweep", "rsa"])
def test_commands_reject_architecture_shape(tmp_path, capsys, make,
                                            command):
    # each once compiled on part of the machine, priced it by another
    # formula or ended in a traceback
    path = tmp_path / "arch.cfg"
    path.write_text(to_config_text(make()))
    assert main(command + [str(path)]) == 3
    assert "invalid architecture" in capsys.readouterr().err


def _boom(*args):
    raise AssertionError("built an event record or sorted the events")


def test_sweep_never_sorts_events(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(compiler.EventStore, "order", _boom)
    monkeypatch.setattr(compiler, "ScheduledEvent", _boom)
    assert main(["sweep", "--workload", "cuccaro:bits=3",
                 "--archs", "baseline1000,A1,B2", "--out",
                 str(tmp_path)]) == 0
    assert "failed" not in capsys.readouterr().out


def test_run_builds_no_event_record(tmp_path, capsys, monkeypatch):
    prog = compiler.schedule(build_workload("cuccaro:bits=3"),
                             builtin_architecture("A2"))
    monkeypatch.setattr(compiler, "ScheduledEvent", _boom)
    assert main(["run", "--workload", "cuccaro:bits=3", "--arch", "A2",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_events_count"] == len(prog.events) > 0
    assert (tmp_path / "schedule.txt").read_text() == prog.to_text()


def test_rsa_outputs(tmp_path, capsys):
    out = tmp_path / "rsa"
    code = main(["rsa", "--archs", "B2,B3,Mono", "--out", str(out)])
    assert code == 0
    assert "Mqubit-days" in capsys.readouterr().out
    payload = json.loads((out / "rsa.json").read_text())
    assert [row["arch"] for row in payload] == ["B2", "B3", "Mono"]
    assert payload[0]["shot_s"] == pytest.approx(72_288.8325, rel=1e-6)
    assert payload[0]["qubits_count"] == 380_912
    assert payload[2]["runtime_days"] == pytest.approx(4.8499, rel=1e-4)


@pytest.mark.parametrize("fidelity", ["0", "1.5", "nan"])
def test_rsa_rejects_bad_fidelity(capsys, fidelity):
    # an unusable argument, refused before any estimate
    assert main(["rsa", "--archs", "B2", "--fidelity", fidelity]) == 2
    err = capsys.readouterr().err
    assert "--fidelity must be in (0, 1]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    ["qsf.n_mf_per_qpu=-1"],
    ["qsf.n_mf_per_qpu=1e303"],
    ["qsf.n_mf_per_qpu=1e300", "qpu.d=61"],
    ["qsf.n_mf_per_qpu=1e300", "qpu.d=41"],
])
def test_rsa_rejects_a_factory_count_it_cannot_tally(capsys, overrides):
    # a negative count once printed negative qubits, and a huge one an
    # OverflowError from the resource count or the estimate
    options = [x for ov in overrides for x in ("--override", ov)]
    assert main(["rsa", "--archs", "baseline1000,Mono", *options]) == 3
    err = capsys.readouterr().err
    assert "invalid architecture: module qsf0:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(("argv", "out"), [
    (["run", "--workload", "aqft:n=8,k_th=3", "--arch", "A1"], "file"),
    (["sweep", "--workload", "aqft:n=8,k_th=3", "--archs", "A1"], "file"),
    (["rsa", "--archs", "B2"], "file"),
    (["arch", "--name", "A1"], "missing/x.cfg"),
], ids=["run", "sweep", "rsa", "arch"])
def test_unusable_out_exits_2_before_any_compile(tmp_path, monkeypatch,
                                                 capsys, argv, out):
    def never(*args, **kwargs):
        raise AssertionError("compiled for an --out that cannot be written")

    for name in ("schedule", "compare_architectures", "rsa_estimate"):
        monkeypatch.setattr(cli, name, never)
    (tmp_path / "file").write_text("in the way\n")
    path = tmp_path / out
    assert main(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def test_arch_dump_round_trips(tmp_path, capsys):
    assert main(["arch", "--name", "A3"]) == 0
    text = capsys.readouterr().out
    assert parse_config_text(text).modules == \
        builtin_architecture("A3").modules

    path = tmp_path / "a3.cfg"
    assert main(["arch", "--name", "A3", "--out", str(path)]) == 0
    assert path.read_text() == to_config_text(builtin_architecture("A3"))
    assert main(["run", "--workload", "aqft:n=8,k_th=3",
                 "--arch", str(path)]) == 0
    capsys.readouterr()
