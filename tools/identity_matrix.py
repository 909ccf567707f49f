#!/usr/bin/env python3
"""Print a fingerprint of hetqc's output on a fixed matrix of compiles.

Usage, from the root of a checkout:

    python3 tools/identity_matrix.py > identity.txt

Each ``run`` and ``sweep`` case prints its exit code, the sha256 of every
artifact it wrote, its standard output and its standard error; the
``arch`` case prints its standard output and error.  A sweep's standard
output rounds its numbers, so only the hashes of its ``comparison.csv``
and ``summary.json`` show a changed last bit.  Run it on two commits and
diff the two files: no difference means the change left every byte of
output as it was.  The hetqc imported is the one under this checkout's
``src``.

The cases are the 1000-qubit AQFT on A1, A2 and A3, the 16x16 Fermi-Hubbard
on A2, A3 and baseline1000, every RSA subroutine on every builtin, the
8x8 Fermi-Hubbard on B1, whose operands pass between its cores, five runs
at the edge of what fits (:data:`FIT_CASES`), six runs that reach a
memory cell's swap legs, a stretched memory's clock pads or a refused
transfer (:data:`TRANSFER_CASES`), a circuit file whose qubits end in a
measurement (:data:`MEASURED`) on B1, the Fermi-Hubbard sweep over
baseline1000, A1, A2 and A3, an 8-bit Cuccaro adder swept over B1-B6, A1,
A2 and Mono, and two ``rsa`` estimates (:data:`RSA_CASES`): the pinned
one over every builtin and the compiled one over B1-B6, Mono and A1, each
with the sha256 of its ``rsa.json``.  Together they reach both schedulers,
every memory kind, the swap legs of a cell, the clock pads of a stretched
memory, a slot released by a measurement, the multi-core and the
specialty-core builtins, each of the front end's three refusals of a
circuit that does not fit, a refused transfer, every resource-count
formula, and in a sweep the architectures that share one lowering or one
modular plan: B1-B3 and B4-B6 with their multi-core and ASQPU plans, the
CCZ and the T factory, and the grid model.  Two more cases, printed last,
reach the config path: a ``run`` with ``--override`` options, and one on
an architecture read back from the config file that ``hetqc arch --out``
wrote.  Stdlib only; about ten seconds on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hetqc.arch import BUILTIN_NAMES  # noqa: E402
from hetqc.cli import main  # noqa: E402

AQFT = "aqft:n=1000,k_th=9"
HUBBARD = "hubbard:lx=16,ly=16,steps=2"
#: a multi-core run: its operands are handed from core to core
HANDBACK = ("hubbard:lx=8,ly=8,steps=2", "B1")
#: (workload, arch, overrides) of runs at the edge of what fits: a gate
#: wider than every core, too many live qubits for the modular and the
#: grid model, full memories, and an adder whose three-qubit gates leave
#: a two-slot ASQPU for the QPU's cores
FIT_CASES = (
    (AQFT, "A1", ("qpu.cores=3",)),
    ("aqft:n=1100,k_th=9", "A1", ()),
    ("aqft:n=1100,k_th=9", "baseline1000", ()),
    ("cuccaro:bits=128", "B5", ()),
    ("cuccaro:bits=8", "B4", ("asqpu.n=2",)),
)
#: (workload, arch, overrides) of runs through a memory cell's swap legs,
#: on B2's surface-code and B3's gross-code RAQM at two adder widths, of a
#: run refused for a transfer over threshold, and of B2 with a 4-cell
#: cache and a RAQM stretched to a cycle of 1.5 us, whose hops wait for
#: clock pads
TRANSFER_CASES = (
    ("cuccaro:bits=128", "B2", ()),
    ("cuccaro:bits=128", "B3", ()),
    ("cuccaro:bits=600", "B2", ()),
    ("cuccaro:bits=600", "B3", ()),
    ("aqft:n=20,k_th=5", "A1", ("stqm0.t2_s=1e-3",)),
    ("hubbard:lx=4,ly=4", "B2",
     ("cache0.logical_qubits=4", "raqm0.t_cycle_s=1.5e-6",
      "raqm0.t_cycle_min_s=1.5e-6", "raqm0.t_cycle_max_s=1.5e-6")),
)
#: a circuit file, run on B1 and shown as file:<circuit>, whose qubits
#: end in a measurement: each releases its slot instead of a write-out
MEASURED = """name measured
qubits 3
H q0
CNOT q0 q1
CNOT q1 q2
T q2
Measure q0
Measure q1
Measure q2
"""
RSA_KINDS = ("adder33", "lookup6", "phaseup6")
ARTIFACTS = ("schedule.txt", "summary.json", "budget.csv")
SWEEP_ARTIFACTS = ("comparison.csv", "summary.json")
#: (workload, --archs) of every ``sweep`` case, in printing order
SWEEP_CASES = (
    (HUBBARD, "baseline1000,A1,A2,A3"),
    ("cuccaro:bits=8", "B1,B2,B3,B4,B5,B6,A1,A2,Mono"),
)
#: options of every ``rsa`` case, in printing order: the pinned estimate
#: over every builtin, and the compiled one
RSA_CASES = (
    ["--archs", ",".join(BUILTIN_NAMES)],
    ["--compiled", "--archs", "B1,B2,B3,B4,B5,B6,Mono,A1"],
)

#: the ``arch`` call that writes the config file, shown as <cfg>, and the
#: ``run`` cases of the config path
ARCH_EXPORT = ["arch", "--name", "B5", "--override", "raqm.k_swap=2"]
CONFIG_CASES = (
    ["--workload", "hubbard:lx=4,ly=4", "--arch", "A3",
     "--override", "qpu.d=17", "--override", "raqm.t_cycle_s=5e-4"],
    ["--workload", "rsa:kind=adder33", "--arch", "<cfg>"],
)


def run_cases() -> list[tuple[str, str, tuple[str, ...]]]:
    """(workload, arch, overrides) of every ``run`` case, in printing
    order."""
    cases = [(AQFT, arch) for arch in ("A1", "A2", "A3")]
    cases += [(HUBBARD, arch) for arch in ("A2", "A3", "baseline1000")]
    cases += [(f"rsa:kind={kind}", arch)
              for kind in RSA_KINDS for arch in BUILTIN_NAMES]
    cases.append(HANDBACK)
    return [(w, a, ()) for w, a in cases] + list(FIT_CASES) \
        + list(TRANSFER_CASES)


def _call(argv: list[str], out: Path | None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call, its out dir shown as
    <out>."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv + (["--out", str(out)] if out else []))
    texts = buf.getvalue(), err.getvalue()
    if out:
        texts = tuple(text.replace(str(out), "<out>") for text in texts)
    return (code, *texts)


def _sha256(path: Path) -> str:
    if not path.is_file():
        return "-"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _print_output(stdout: str, stderr: str) -> None:
    for line in stdout.splitlines():
        print(f"  | {line}")
    for line in stderr.splitlines():
        print(f"  ! {line}")


def _print_call(command: str, args: list[str], out: Path, shown: str,
                artifacts: tuple[str, ...]) -> None:
    code, stdout, stderr = _call([command] + args, out)
    print(f"{command} {shown} exit={code}")
    for name in artifacts:
        print(f"  {name} {_sha256(out / name)}")
    _print_output(stdout, stderr)


def _print_run(args: list[str], out: Path, shown: str) -> None:
    _print_call("run", args, out, shown, ARTIFACTS)


def main_matrix() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for i, (workload, arch, overrides) in enumerate(run_cases()):
            options = [x for ov in overrides for x in ("--override", ov)]
            _print_run(["--workload", workload, "--arch", arch, *options],
                       Path(tmp) / str(i),
                       " ".join([workload, arch, *options]))
        circuit = Path(tmp) / "measured.txt"
        circuit.write_text(MEASURED, encoding="utf-8")
        _print_run(["--workload", f"file:{circuit}", "--arch", "B1"],
                   Path(tmp) / "measured", "file:<circuit> B1")
        for i, (workload, archs) in enumerate(SWEEP_CASES):
            _print_call("sweep", ["--workload", workload, "--archs", archs],
                        Path(tmp) / f"sweep{i}", f"{workload} {archs}",
                        SWEEP_ARTIFACTS)
        for i, args in enumerate(RSA_CASES):
            _print_call("rsa", args, Path(tmp) / f"rsa{i}", " ".join(args),
                        ("rsa.json",))
        cfg = Path(tmp) / "arch.cfg"
        code, stdout, stderr = _call(ARCH_EXPORT, cfg)
        print(f"{' '.join(ARCH_EXPORT)} --out <cfg> exit={code} "
              f"sha256={_sha256(cfg)}")
        _print_output(stdout.replace("<out>", "<cfg>"),
                      stderr.replace("<out>", "<cfg>"))
        for i, args in enumerate(CONFIG_CASES):
            _print_run([str(cfg) if a == "<cfg>" else a for a in args],
                       Path(tmp) / f"config{i}", " ".join(args))


if __name__ == "__main__":
    main_matrix()
