"""Physical resource counting and space cost.

Counts physical qubits, couplers, and interconnect rails per architecture
family.  Each count function states each tier row (name -> qubits) once,
as active, static or rail, and ``_tally`` alone derives the totals of the
:class:`ResourceCounts` from those rows: active qubits are the active plus
the rail rows, static qubits the static rows, interconnects the rail rows,
and the breakdown holds every row.  ``count_architecture`` picks one of
three formulas: the homogeneous device, the cryptanalysis plant, or
``count_heterogeneous`` for a compute core with one memory.  Counting
conventions:

* every actively corrected tier of a homogeneous device carries two local
  couplers per qubit (tunable couplers both sides), so local couplers are
  2x total qubits there;
* heterogeneous devices double only the compute tier and add one coupler
  per interconnect rail;
* interconnect rails are pumped, so they appear both in active qubits and
  in the interconnect column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .arch import (ASQPU_FACTORY_UNITS, ArchitectureSpec, GROSS_BLOCK_LOGICAL,
                   GROSS_BLOCK_PHYSICAL, ModuleSpec, derive_boundary,
                   validate)


@dataclass
class ResourceCounts:
    qubits_active: int = 0
    qubits_static: int = 0
    couplers_local: int = 0
    couplers_nonlocal: int = 0
    interconnects: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)

    @property
    def total_qubits(self) -> int:
        return self.qubits_active + self.qubits_static

    @property
    def total_couplers(self) -> int:
        return self.couplers_local + self.couplers_nonlocal


@dataclass(frozen=True)
class CostWeights:
    """Weights of the linear space-cost functional.

    Defaults: static qubits half the weight of active ones; non-local
    couplers four times local; interconnect rails half local.
    """

    w_active: float = 1.0
    w_static: float = 0.5
    w_local: float = 1.0
    w_nonlocal: float = 4.0
    w_inter: float = 0.5


def space_cost(rc: ResourceCounts, w: CostWeights = CostWeights()) -> float:
    """Linear functional over the five resource classes."""
    return (w.w_active * rc.qubits_active + w.w_static * rc.qubits_static
            + w.w_local * rc.couplers_local
            + w.w_nonlocal * rc.couplers_nonlocal
            + w.w_inter * rc.interconnects)


def _compute_tiers(n: int, d: int, c_anc: float, n_edges: int,
                   distill: tuple[float, int] | None) -> dict[str, int]:
    """Qubits of a compute tier: logical patches n*(1+c_anc)*d^2,
    lattice-surgery routing 2*n_edges*d, state injection 2*d*n and, given
    ``distill`` = (n_mf_per_qpu, n_dist), distillation
    n_mf_per_qpu*n_dist*n*d^2."""
    tiers = {"qubits_logical": round(n * (1 + c_anc) * d * d),
             "qubits_surgery": 2 * n_edges * d,
             "qubits_injection": 2 * d * n}
    if distill is not None:
        n_mf_per_qpu, n_dist = distill
        tiers["qubits_distillation"] = round(n_mf_per_qpu * n_dist * n * d * d)
    return tiers


def _tally(active: dict[str, int], static: dict[str, int],
           rails: dict[str, int], local: int, nonlocal_: int) -> ResourceCounts:
    """Counts of tier rows (name -> qubits) and the two coupler totals,
    summed by the rule of the module docstring."""
    return ResourceCounts(
        qubits_active=sum(active.values()) + sum(rails.values()),
        qubits_static=sum(static.values()),
        couplers_local=local, couplers_nonlocal=nonlocal_,
        interconnects=sum(rails.values()),
        breakdown={**active, **static, **rails})


def count_homogeneous(n: int, d: int, c_anc: float = 1.0,
                      n_edges: int | None = None,
                      n_mf_per_qpu: float = 3.0, n_dist: int = 72) -> ResourceCounts:
    """Single-tier surface-code device with on-chip factories.

    Its tiers are those of :func:`_compute_tiers`, ``n_edges`` 2n by
    default, all actively corrected with two local couplers per qubit.
    """
    tiers = _compute_tiers(n, d, c_anc, 2 * n if n_edges is None else n_edges,
                           (n_mf_per_qpu, n_dist))
    couplers = {"couplers" + k[6:]: 2 * v for k, v in tiers.items()}
    rc = _tally(tiers, {}, {}, sum(couplers.values()), 0)
    rc.breakdown.update(couplers)
    return rc


def count_heterogeneous(spec: ArchitectureSpec) -> ResourceCounts:
    """Compute core + one memory, joined by the memory's link.

    * STQM, a passive short-term memory joined transversally: memory
      patches are stored at the compute distance without readout ancillas
      (static).  Interconnect rails: one per boundary qubit times
      (1 + n_anc_pump) pump ancillas.
    * RAQM, an actively corrected memory joined by lattice surgery:
      interconnect rails n_bdry * d_bdry * (2 + n_buf + n_anc_pump),
      covering merge ancillas, Bell buffers, and pump ancillas.
    """
    qpu = spec.by_kind("QPU")[0]
    qsf = (spec.by_kind("QSF") or [None])[0]
    memory = spec.memory_modules()[0]
    link = spec.links_of(memory.id)[0]
    bdry = derive_boundary(spec, link)
    d = qpu.code.distance
    active = _compute_tiers(
        qpu.n_logical, d, qpu.code.c_anc,
        qpu.n_logical if qpu.n_edges is None else qpu.n_edges,
        qsf and (qsf.n_mf_per_qpu, qsf.n_dist))
    static: dict[str, int] = {}
    local = 2 * active["qubits_logical"]
    if memory.kind == "STQM":
        static["qubits_memory"] = memory.n_logical * d * d
        rails = bdry.n_bdry * d * d * (1 + link.n_anc_pump)
        local += bdry.n_bdry * d * d
    else:
        d_qm = memory.code.distance
        active["qubits_memory"] = round(
            memory.n_logical * (1 + memory.code.c_anc) * d_qm * d_qm)
        rails = bdry.n_bdry * bdry.d_bdry * (2 + link.n_buf + link.n_anc_pump)
        local += 2 * active["qubits_memory"] + bdry.n_bdry * bdry.d_bdry
    return _tally(active, static, {"qubits_interconnect": rails}, local, 0)


def count_rsa_architecture(spec: ArchitectureSpec) -> ResourceCounts:
    """Cryptanalysis-shaped plant: QPU cores + cache + optional LTS/ASQPU.

    Per-tier rows (d the QPU distance): QPU 2N d^2 qubits, 4N d^2 local
    couplers, 2N d Clifford routing, 2N(4d^2+2d) CCZ factories, cache
    interconnect (2N_qpu+N_cache) d^2; cache N_cache d^2 static plus one
    coupler each; surface LTS 2N d_lts^2 + 2N_tr d^2 (double for couplers);
    gross LTS 24N + 2N_tr d^2 qubits, 48N local + 24N non-local couplers;
    ASQPU 2N d^2 with its own rails and one 12-unit factory block.  The
    rows of several ASQPUs add up.

    The CCZ factories are priced from the QPU alone: the plant reads no
    field of the QSF.  So an override of ``qsf.n_mf_per_qpu`` or
    ``qsf.n_dist`` leaves the counts of B1-B6 as they are, although
    ``validate`` still checks those fields.
    """
    qpu = spec.by_kind("QPU")[0]
    n, d = qpu.n_logical, qpu.code.distance
    d2 = d * d
    active = Counter({"qubits_logical": 2 * n * d2,
                      "qubits_clifford": 2 * n * d,
                      "qubits_factory": 2 * n * (4 * d2 + 2 * d)})
    static: dict[str, int] = {}
    rails: Counter[str] = Counter()
    local, nonlocal_ = 4 * n * d2, 0

    for cache in spec.by_kind("STQM"):
        static["qubits_cache"] = cache.n_logical * d2
        local += cache.n_logical * d2
        rails["qubits_cache_interconnect"] = (2 * n + cache.n_logical) * d2

    for raqm in spec.by_kind("RAQM"):
        n_tr = resolved_transfer_patches(raqm)
        if raqm.code.family == "gross":
            per_logical = GROSS_BLOCK_PHYSICAL // GROSS_BLOCK_LOGICAL
            active["qubits_lts"] = per_logical * raqm.n_logical + 2 * n_tr * d2
            local += 2 * per_logical * raqm.n_logical + 4 * n_tr * d2
            nonlocal_ += per_logical * raqm.n_logical
            active["qubits_lts_clifford"] = 0
        else:
            d_lts = raqm.code.distance
            active["qubits_lts"] = (2 * raqm.n_logical * d_lts * d_lts
                                    + 2 * n_tr * d2)
            local += (4 * raqm.n_logical * d_lts * d_lts + 4 * n_tr * d2)
            active["qubits_lts_clifford"] = 2 * raqm.n_logical * d_lts
        rails["qubits_lts_interconnect"] = n_tr * d2

    for asqpu in spec.by_kind("ASQPU"):
        m, da = asqpu.n_logical, asqpu.code.distance
        active["qubits_asqpu"] += 2 * m * da * da
        active["qubits_asqpu_factory"] += (ASQPU_FACTORY_UNITS
                                           * (4 * da * da + 2 * da))
        rails["qubits_asqpu_interconnect"] += m * da * da
        local += 4 * m * da * da

    return _tally(active, static, rails, local, nonlocal_)


def count_architecture(spec: ArchitectureSpec) -> ResourceCounts:
    """Counts of an architecture, by the formula of its family.

    Without memory it is the homogeneous device, as in ``schedule``.  With
    memory, a CCZ factory, an ASQPU or both memory kinds (two memories,
    as ``validate`` allows one of each) pick the cryptanalysis plant;
    otherwise :func:`count_heterogeneous` counts its one memory.  An
    architecture that ``validate`` rejects raises ``ValueError`` with its
    problems, since the formulas rely on the shape it checks.
    """
    problems = validate(spec)
    if problems:
        raise ValueError("invalid architecture: " + "; ".join(problems))
    qpu = spec.by_kind("QPU")[0]
    qsf = (spec.by_kind("QSF") or [None])[0]
    if not spec.memory_modules():
        return count_homogeneous(
            qpu.n_logical, qpu.code.distance, qpu.code.c_anc, qpu.n_edges,
            qsf.n_mf_per_qpu if qsf else 0.0, qsf.n_dist if qsf else 0)
    if (qsf is not None and qsf.state == "CCZ") or spec.by_kind("ASQPU") \
            or len(spec.memory_modules()) > 1:
        return count_rsa_architecture(spec)
    return count_heterogeneous(spec)


# ------------------------------------------------- transfer-patch placement

def place_transfer_patches(n: int, k: int) -> int:
    """Patches needed so no stored qubit is more than ``k`` swaps away.

    Each patch serves itself plus the 2k^2+6k cells within k swaps of its
    2x2 footprint, hence ceil(n / (2k^2+6k+1)).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if n == 0:
        return 0
    return math.ceil(n / (2 * k * k + 6 * k + 1))


def resolved_transfer_patches(raqm: ModuleSpec) -> int:
    """Module's explicit patch count, else the placement formula."""
    if raqm.n_transfer is not None:
        return raqm.n_transfer
    return place_transfer_patches(raqm.n_logical, raqm.k_swap)


@dataclass
class PatchLayout:
    """Concrete 2D placement; coordinates are memory-lattice cells."""

    k: int
    patch_cells: list[list[tuple[int, int]]]
    storage_cells: list[tuple[int, int]]
    storage_distances: list[int]

    @property
    def n_patches(self) -> int:
        return len(self.patch_cells)


def _lattice_points(count: int) -> list[tuple[int, int]]:
    pts: list[tuple[int, int]] = []
    ring = 0
    while len(pts) < count:
        ring_pts = sorted(
            (i, j)
            for i in range(-ring, ring + 1)
            for j in range(-ring, ring + 1)
            if max(abs(i), abs(j)) == ring)
        pts.extend(ring_pts)
        ring += 1
    return pts[:count]


def transfer_patch_layout(n: int, k: int) -> PatchLayout:
    """Placement achieving max swap distance <= k with the formula's count.

    Patches are 2x2 blocks anchored on the lattice spanned by (k+2, k+1)
    and (-(k+1), k+2); block separation is at least 2k+1, so the radius-k
    neighborhoods of distinct patches are disjoint and each patch fills its
    full quota of 2k^2+6k+1 slots (one on the patch itself).
    """
    m = place_transfer_patches(n, k)
    if k == 0:
        cells = [(i, 0) for i in range(n)]
        return PatchLayout(0, [[c] for c in cells], list(cells), [0] * n)
    quota = 2 * k * k + 6 * k + 1
    patches: list[list[tuple[int, int]]] = []
    storage: list[tuple[int, int]] = []
    dists: list[int] = []
    for (i, j) in _lattice_points(m):
        ax = i * (k + 2) - j * (k + 1)
        ay = i * (k + 1) + j * (k + 2)
        block = [(ax, ay), (ax + 1, ay), (ax, ay + 1), (ax + 1, ay + 1)]
        patches.append(block)
        if len(storage) >= n:
            continue
        storage.append((ax, ay))  # the patch stores one qubit itself
        dists.append(0)
        ring_cells = []
        for dx in range(-k, k + 2):
            for dy in range(-k, k + 2):
                cx, cy = ax + dx, ay + dy
                dist = _block_distance(cx, cy, ax, ay)
                if 1 <= dist <= k:
                    ring_cells.append((dist, cy, cx))
        ring_cells.sort()
        for dist, cy, cx in ring_cells[:quota - 1]:
            if len(storage) >= n:
                break
            storage.append((cx, cy))
            dists.append(dist)
    if len(storage) < n:
        raise AssertionError("placement under-filled; lattice packing broken")
    return PatchLayout(k, patches, storage, dists)


def _block_distance(x: int, y: int, ax: int, ay: int) -> int:
    dx = 0 if ax <= x <= ax + 1 else min(abs(x - ax), abs(x - ax - 1))
    dy = 0 if ay <= y <= ay + 1 else min(abs(y - ay), abs(y - ay - 1))
    return dx + dy


__all__ = [
    "ResourceCounts", "CostWeights", "space_cost", "count_homogeneous",
    "count_heterogeneous", "count_rsa_architecture", "count_architecture",
    "place_transfer_patches", "resolved_transfer_patches", "PatchLayout",
    "transfer_patch_layout",
]
