"""The benchmark workloads and their seeded inputs.

An op is one ``hetqc`` CLI invocation.  Every workload is a list of ops
that the runner repeats in whole passes; hetqc only ever receives the
generated specs and circuit files, never the seed.

Why these (see README.md for the layer -> metric -> workload map):

* ``aqft1000-A1`` is the paper's headline compile and the one big compile in
  which every per-gate layer works hard.
* ``hubbard-sweep`` is the architecture comparison the tool exists for, the
  only workload with lattice-surgery transfers into active memory at scale
  and with the grid-SWAP baseline router on a large circuit; it writes no
  ``schedule.txt``.
* ``corpus-builtins`` is many small compiles over all eleven builtins, where
  per-compile fixed cost dominates; it is the only workload that reaches the
  multi-core B1-B3, the ASQPU B4-B6 and the memory-less paths.  It reports
  the known B1-B3 defect (ROADMAP item 1): most random circuits on B1-B3
  fail the checks, so it is run by hand, not listed in ``BENCHMARK.json``.
* ``corpus-clean`` is the same draw with the random circuits dealt over the
  eight builtins that schedule them correctly; the RSA subroutines, which
  pass on B1-B3, still run on all eleven.  It is the listed corpus workload,
  because a timed workload must be one on which no op fails.
* ``aqft2000-refuse`` is the only workload whose right answer is a refusal
  (exit code 4).  It is run by hand, not listed in ``BENCHMARK.json``: its
  layers are those of ``aqft1000-A1``, and leaving it out buys the listed
  workloads longer, steadier runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("aqft1000-A1", "hubbard-sweep", "corpus-clean",
             "corpus-builtins", "aqft2000-refuse")

#: the builtin architectures, fixed here so that a builtin added to hetqc
#: later does not change the corpus drawn for a seed
BUILTINS = ("baseline1000", "A1", "A2", "A3", "Mono",
            "B1", "B2", "B3", "B4", "B5", "B6")
RSA_KINDS = ("adder33", "lookup6", "phaseup6")
#: builtins whose 2-core QPU lets both cores use one qubit at once and
#: repeats transfer writes without a read (ROADMAP item 1): random circuits
#: fail the checks there, the RSA subroutines do not
DEFECT_ARCHS = ("B1", "B2", "B3")

#: the full input gate set with arities
GATE_SET = (("H", 1), ("S", 1), ("X", 1), ("Z", 1), ("T", 1), ("Tdg", 1),
            ("Rz", 1), ("CNOT", 2), ("CZ", 2), ("SWAP", 2), ("CPhase", 2),
            ("Toffoli", 3), ("CCZ", 3))
ANGLES = (math.pi / 4, math.pi / 8, -math.pi / 2)

#: each (builtin, RSA subroutine) pair appears this often per corpus pass,
#: and as many random circuits are drawn
RSA_REPEATS = 5

SWEEP_ARCHS = ("baseline1000", "A1", "A2", "A3")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` omits ``--out``, which the runner adds.

    ``expect`` is ``run`` (artifacts of a successful compile), ``sweep``
    (one ok row per architecture) or ``refuse`` (exit code 4).
    """

    label: str
    argv: tuple[str, ...]
    expect: str
    arch: str


def random_circuit_text(rng: random.Random, name: str, n: int,
                        n_gates: int) -> str:
    """Mixed-gate circuit in hetqc's text format over the full input gate
    set, measured on even qubits half the time."""
    lines = [f"name {name}", f"qubits {n}"]
    pool = [(k, a) for k, a in GATE_SET if a <= n]
    for _ in range(n_gates):
        kind, arity = pool[rng.randrange(len(pool))]
        parts = [kind] + [f"q{q}" for q in rng.sample(range(n), arity)]
        if kind in ("Rz", "CPhase"):
            parts.append(f"angle={rng.choice(ANGLES)!r}")
        lines.append(" ".join(parts))
    if rng.random() < 0.5:
        lines += [f"Measure q{q}" for q in range(0, n, 2)]
    return "\n".join(lines) + "\n"


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers in [lo, hi], one from each of n equal strata, shuffled."""
    out = [lo + int((hi - lo + 1) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(out)
    return out


def corpus_ops(seed: int, workdir: Path,
               file_archs: tuple[str, ...] = BUILTINS) -> list[Op]:
    """Seeded, stratified draw of many small compiles.

    Half the ops run an RSA subroutine, every (builtin, subroutine) pair
    equally often.  The other half run random circuits written to
    ``workdir``: 2-64 qubits and 1-160 gates, each drawn from equal strata,
    on architectures dealt evenly over ``file_archs``.  Stratifying keeps
    the mix of op sizes, and so the median and tail op time, nearly the same
    from seed to seed while the circuits themselves differ.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    specs = [(f"rsa:kind={kind}", f"rsa:kind={kind}", arch)
             for arch in BUILTINS for kind in RSA_KINDS] * RSA_REPEATS
    n_files = len(specs)
    archs = [file_archs[i % len(file_archs)] for i in range(n_files)]
    rng.shuffle(archs)
    for i, (n, n_gates, arch) in enumerate(zip(
            _stratified(rng, 2, 64, n_files),
            _stratified(rng, 1, 160, n_files), archs)):
        name = f"corpus{i:04d}"
        path = workdir / f"{name}.txt"
        path.write_text(random_circuit_text(rng, name, n, n_gates),
                        encoding="utf-8")
        specs.append((f"file:{path}", f"file:{name}", arch))
    rng.shuffle(specs)
    return [Op(f"{label} on {arch}", ("run", "--workload", spec, "--arch",
                                      arch), "run", arch)
            for spec, label, arch in specs]


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Ops of one pass of workload ``name``."""
    if name == "aqft1000-A1":
        spec = "aqft:n=1000,k_th=9"
        return [Op(f"{spec} on A1",
                   ("run", "--workload", spec, "--arch", "A1"), "run", "A1")]
    if name == "hubbard-sweep":
        spec = "hubbard:lx=16,ly=16,steps=2"
        archs = ",".join(SWEEP_ARCHS)
        return [Op(f"{spec} on {archs}",
                   ("sweep", "--workload", spec, "--archs", archs), "sweep",
                   archs)]
    if name == "corpus-builtins":
        return corpus_ops(seed, workdir / "corpus")
    if name == "corpus-clean":
        return corpus_ops(seed, workdir / "corpus", tuple(
            a for a in BUILTINS if a not in DEFECT_ARCHS))
    if name == "aqft2000-refuse":
        spec = "aqft:n=2000,k_th=9"
        return [Op(f"{spec} on A1",
                   ("run", "--workload", spec, "--arch", "A1"), "refuse",
                   "A1")]
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
