"""Golden artifacts: sha256 of the bytes that ``run`` and ``sweep`` write.

The hashes pin the scheduler's output byte for byte on a small set of
workloads, covering the grid model (baseline1000, Mono), both memory
kinds (A1 passive, A2/A3 active), and the multi-core B family with and
without the adder core.  Each ``run`` case pins all three of its artifacts
(``schedule.txt``, ``summary.json``, ``budget.csv``); the modular runs also
pin the router's audit, which no artifact holds.  A refactor must leave
every hash unchanged; a model change that moves one must say so where it is
recorded.
"""

import hashlib
import random

import pytest

from hetqc.arch import load_architecture
from hetqc.cli import build_workload, main
from hetqc.compiler import schedule

from oracles import random_circuit

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

#: (summary.json, budget.csv) of the same runs
SUMMARY_BUDGET_SHA256 = {
    ("aqft:n=32,k_th=5", "A1"):
        ("2f417559662c06df883123a2e3f96b4fac2a38d1ca9fb01f443361007c7235e9",
         "aed873ad35bcde66a39f5efe30cb076b3fc07891f605809677d993351d94702b"),
    ("aqft:n=32,k_th=5", "A2"):
        ("292a594e060e30d8e10309ae9503146963ce160ed1e905a686c5814d0e46cf03",
         "83ab5f30cf3440f16043e419f0ebcbffef326a234a5675c72b2f0763e0ea37cb"),
    ("aqft:n=32,k_th=5", "A3"):
        ("e1c6adcc2c46863a7e5d7f005ad10b6411f067b3eba91c4855e8b72240820e3f",
         "e14b74a6365404497ee460da5a3254aaa14264c034884df072e8449e1162e2b7"),
    ("aqft:n=32,k_th=5", "baseline1000"):
        ("5893f5cdb8112d5c5a26d7b3bd268916cde590927162320763ff1969b39a73ab",
         "f2799f55e7515ef1b81b3e3cb4d4360ab22ca8101fcf660bc0286888fc6e7dab"),
    ("aqft:n=32,k_th=5", "Mono"):
        ("b8089240af02705b4581c1fd2ef7dca4ea08f2777b3a92dff0f9605ab5acb407",
         "0e80914ab177f7b607e65c1de13058ea677a48402a2bcc74e1e1a5ff9a798441"),
    ("rsa:kind=adder33", "B2"):
        ("5db44d2124b25d1076fa11954f64e1a20dfab5fd6d5ae2b9345bbfa7742492ba",
         "6994d12770e84158eab057e94f8cf7d0ca0b09af54a84b353db2e14d54206ecb"),
    ("rsa:kind=adder33", "B5"):
        ("f850d38577397c8ee664be566e350f90a7b1959fe8f419cc522badff1029c11b",
         "6994d12770e84158eab057e94f8cf7d0ca0b09af54a84b353db2e14d54206ecb"),
    ("aqft:n=200,k_th=9", "A1"):
        ("7a1584ffbb7a3950a5f7d1bfd68b7ae3154adf6312396378c71a2ec87e934606",
         "b3149a7f7d0f946758efbc3b7c672651877abd03c77a5c5c93594058d834aea7"),
    ("hubbard:lx=6,ly=6,steps=1", "A2"):
        ("651a1cbf11b187554429b3eff2a8aa2d6d17f64a3ea307ce5333c4eb655a4c47",
         "f707e2d12de56e62fd33bdfc95f49094a1034429e12a3ce0814bb9a588dd8555"),
}

#: the router audit of the modular-scheduler runs above, one ``repr`` of a
#: RouterDecision a line; no artifact holds it
AUDIT_SHA256 = {
    ("aqft:n=32,k_th=5", "A1"):
        "613d62e5cff79e4f11efd56e021019130cc45e6d81a4ddabd774c18b938574f5",
    ("aqft:n=32,k_th=5", "A2"):
        "ea1f3cf5c7d1c5d78c5275b30dfd95fc522813f6ffe405258645076fd6bde583",
    ("aqft:n=32,k_th=5", "A3"):
        "34ed7193e6108272b191d16b02540ac9e5399da6ac48edc503f454c283a4d26f",
    ("rsa:kind=adder33", "B2"):
        "e11b0c3e642a6bb116ec76d4ac9853fd848a0319679eb45374fb6249648c08e7",
    ("rsa:kind=adder33", "B5"):
        "4c04d89c035e177221fb856e9a738c7c39865ab222cd2fe03958504f8a5e149e",
    ("aqft:n=200,k_th=9", "A1"):
        "7ad8b42c4cdc1247655657ea560a156682e98e4867882e2522438030a62749bf",
    ("hubbard:lx=6,ly=6,steps=1", "A2"):
        "e10b1f2e084f9dbb6796f1df3a60383f8ab861b3619378fe14a75d02efb351c2",
}

#: the ``file:`` text of ``random_circuit(random.Random(7001), 40, 120)``:
#: on A3 the router evicts for capacity, on B1 it writes out across cores,
#: two paths the cases above never take.  On B1 a core reads ahead only an
#: operand whose previous gate has run, which moved its hashes.
RANDOM_FILE_SHA256 = {
    "A3": ("b2a644c30ba5d795641cdda4d118f0183eb54e3f1629f4dacf0b5fea0e499087",
           "63b9f96b38268c4ce837a745d6a9eb6e490af841b838f8a33774720ac2a239d9",
           "1f20eb30db56f8ed667be15d4c9f50cc3d754257c2cfc406b16709c6c9a5ecad"),
    "B1": ("7e72d20b3b005162564c87dc57af49c12559d0519e4116facaa3e7f0a74073ae",
           "870df416aac7121575e5ad9fdb10cc6b45f6f078d32c8a515c0c259ea3058ce6",
           "e2585e0c4228dbb76e066a192edcf9468dff13ee4bdce9402df6f1029db5deca"),
}

COMPARISON_SHA256 = \
    "3343cf935a5930f7f7e4a07a92abe37e79c2f2fab0fb3b1be4ed084258cda6d1"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(("workload", "arch"), list(SCHEDULE_SHA256))
def test_run_schedule_golden(tmp_path, capsys, workload, arch):
    out = tmp_path / "out"
    assert main(["run", "--workload", workload, "--arch", arch,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out / "schedule.txt") == SCHEDULE_SHA256[(workload, arch)]
    assert (_sha256(out / "summary.json"), _sha256(out / "budget.csv")) == \
        SUMMARY_BUDGET_SHA256[(workload, arch)]
    _assert_streamed_as_to_text(out, workload, arch)


@pytest.mark.parametrize(("workload", "arch"), list(AUDIT_SHA256))
def test_router_audit_golden(workload, arch):
    prog = schedule(build_workload(workload), load_architecture(arch))
    text = "".join(f"{d!r}\n" for d in prog.audit)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        AUDIT_SHA256[(workload, arch)]


def _assert_streamed_as_to_text(out, workload, arch):
    """``run`` streams schedule.txt; the bytes are those of ``to_text``."""
    prog = schedule(build_workload(workload), load_architecture(arch))
    assert (out / "schedule.txt").read_bytes() == \
        prog.to_text().encode("utf-8")


@pytest.mark.parametrize("arch", list(RANDOM_FILE_SHA256))
def test_run_random_file_golden(tmp_path, capsys, arch):
    path = tmp_path / "circuit.txt"
    path.write_text(random_circuit(random.Random(7001), 40, 120).to_text(),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--workload", f"file:{path}", "--arch", arch,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert tuple(_sha256(out / name) for name in
                 ("schedule.txt", "summary.json", "budget.csv")) == \
        RANDOM_FILE_SHA256[arch]
    _assert_streamed_as_to_text(out, f"file:{path}", arch)


@pytest.mark.parametrize("arch", ["A1", "Mono"])
def test_run_streams_empty_schedule(tmp_path, capsys, arch):
    path = tmp_path / "empty.txt"
    path.write_text("name empty\nqubits 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--workload", f"file:{path}", "--arch", arch,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_streamed_as_to_text(out, f"file:{path}", arch)
    assert (out / "schedule.txt").read_text(encoding="utf-8") == (
        f"circuit empty on {arch}\nmakespan_s 0.0\n"
        "cnot_count=0 st_count=0 swap_count=0 t_count=0\n"
        "t_start_s duration_s kind module lane label qubits error\n")


def test_sweep_comparison_golden(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--workload", "cuccaro:bits=4",
                 "--archs", "baseline1000,A1,A2,A3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out / "comparison.csv") == COMPARISON_SHA256
