"""Golden artifacts: sha256 of the bytes that ``run`` and ``sweep`` write.

The hashes pin the scheduler's output byte for byte on a small set of
workloads, covering the grid model (baseline1000, Mono), both memory
kinds (A1 passive, A2/A3 active), and the multi-core B family with and
without the adder core.  A refactor must leave every hash unchanged; a
model change that moves one must say so where it is recorded.
"""

import hashlib

import pytest

from hetqc.cli import main

SCHEDULE_SHA256 = {
    ("aqft:n=32,k_th=5", "A1"):
        "ece416305f445374152fa3d5621c5ee84846fbffb569b7fff7e46c7b612257a7",
    ("aqft:n=32,k_th=5", "A2"):
        "a3e6ec04613d16f71265e364a89973bbf9672067f47b777b1dae5a8b6b94e0ba",
    ("aqft:n=32,k_th=5", "A3"):
        "cfaeed8d553d70c8770078d2e20189b01e54897cad22f55e302d7d9e5baa45f5",
    ("aqft:n=32,k_th=5", "baseline1000"):
        "dc4dde640935141f62325af9e6d8ed69a81911c09885198e743314a12ccf83af",
    ("aqft:n=32,k_th=5", "Mono"):
        "662c787d08eae92be686a53ef8a49849d32ac83a0e23f0872efbc0aa09b8d164",
    ("rsa:kind=adder33", "B2"):
        "08a321d744ed4d4e7d289d5b5e4bc2cafd820e8eeed26aad0077f1c0388677cf",
    ("rsa:kind=adder33", "B5"):
        "29c2a0cb1e9f27d84e55e1eea99aa7bc5f99ce36e6f6ed9dcc2de62debb24597",
    # medium cases: block consolidation past the dependency frontier at
    # volume, and lattice-surgery hops into active memory
    ("aqft:n=200,k_th=9", "A1"):
        "fe4dcae987d5bbf73c9f8279168e5a0567a85fc66f7fecd0428e0c816add847b",
    ("hubbard:lx=6,ly=6,steps=1", "A2"):
        "15ffd4e7916e8cb0abc4e3f2b95e51e9f5dfa103ba7e6f113fc292515417449e",
}

COMPARISON_SHA256 = \
    "e60a6c0db6f9d86194cc2e3fec93cedb68708f9eb30f2f83d8189c10667b9881"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(("workload", "arch"), list(SCHEDULE_SHA256))
def test_run_schedule_golden(tmp_path, capsys, workload, arch):
    out = tmp_path / "out"
    assert main(["run", "--workload", workload, "--arch", arch,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out / "schedule.txt") == SCHEDULE_SHA256[(workload, arch)]


def test_sweep_comparison_golden(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--workload", "cuccaro:bits=4",
                 "--archs", "baseline1000,A1,A2,A3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out / "comparison.csv") == COMPARISON_SHA256
