#!/usr/bin/env python3
"""Print a fingerprint of hetqc's output on a fixed matrix of compiles.

Usage, from the root of a checkout:

    python3 tools/identity_matrix.py > identity.txt

Each ``run`` case prints its exit code, the sha256 of every artifact it
wrote and its standard output; the ``sweep`` and ``arch`` cases print their
standard output.  Run it on two commits and diff the two files: no
difference means the change left every byte of output as it was.  The hetqc
imported is the one under this checkout's ``src``.

The cases are the 1000-qubit AQFT on A1, A2 and A3, the 16x16 Fermi-Hubbard
on A2, A3 and baseline1000, every RSA subroutine on every builtin, and the
Fermi-Hubbard sweep over baseline1000, A1, A2 and A3.  Together they reach
both schedulers, every memory kind, the multi-core and the specialty-core
builtins.  Two more cases, printed last, reach the config path: a ``run``
with ``--override`` options, and one on an architecture read back from the
config file that ``hetqc arch --out`` wrote.  Stdlib only; about ten
seconds on one core.
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
RSA_KINDS = ("adder33", "lookup6", "phaseup6")
ARTIFACTS = ("schedule.txt", "summary.json", "budget.csv")

#: the ``arch`` call that writes the config file, shown as <cfg>, and the
#: ``run`` cases of the config path
ARCH_EXPORT = ["arch", "--name", "B5", "--override", "raqm.k_swap=2"]
CONFIG_CASES = (
    ["--workload", "hubbard:lx=4,ly=4", "--arch", "A3",
     "--override", "qpu.d=17", "--override", "raqm.t_cycle_s=5e-4"],
    ["--workload", "rsa:kind=adder33", "--arch", "<cfg>"],
)


def run_cases() -> list[tuple[str, str]]:
    """(workload, arch) of every ``run`` case, in printing order."""
    cases = [(AQFT, arch) for arch in ("A1", "A2", "A3")]
    cases += [(HUBBARD, arch) for arch in ("A2", "A3", "baseline1000")]
    cases += [(f"rsa:kind={kind}", arch)
              for kind in RSA_KINDS for arch in BUILTIN_NAMES]
    return cases


def _call(argv: list[str], out: Path | None) -> tuple[int, str]:
    """(exit code, stdout) of one CLI call, its out dir shown as <out>."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + (["--out", str(out)] if out else []))
    text = buf.getvalue()
    return code, text.replace(str(out), "<out>") if out else text


def _sha256(path: Path) -> str:
    if not path.is_file():
        return "-"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _print_stdout(stdout: str) -> None:
    for line in stdout.splitlines():
        print(f"  | {line}")


def _print_run(args: list[str], out: Path, shown: str) -> None:
    code, stdout = _call(["run"] + args, out)
    print(f"run {shown} exit={code}")
    for name in ARTIFACTS:
        print(f"  {name} {_sha256(out / name)}")
    _print_stdout(stdout)


def main_matrix() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for i, (workload, arch) in enumerate(run_cases()):
            _print_run(["--workload", workload, "--arch", arch],
                       Path(tmp) / str(i), f"{workload} {arch}")
        archs = "baseline1000,A1,A2,A3"
        code, stdout = _call(["sweep", "--workload", HUBBARD,
                              "--archs", archs], None)
        print(f"sweep {HUBBARD} {archs} exit={code}")
        _print_stdout(stdout)
        cfg = Path(tmp) / "arch.cfg"
        code, stdout = _call(ARCH_EXPORT, cfg)
        print(f"{' '.join(ARCH_EXPORT)} --out <cfg> exit={code} "
              f"sha256={_sha256(cfg)}")
        _print_stdout(stdout.replace("<out>", "<cfg>"))
        for i, args in enumerate(CONFIG_CASES):
            _print_run([str(cfg) if a == "<cfg>" else a for a in args],
                       Path(tmp) / f"config{i}", " ".join(args))


if __name__ == "__main__":
    main_matrix()
