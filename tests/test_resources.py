"""Hardware counting: device tallies, cost weights, transfer-patch layout."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from hetqc.arch import (BUILTIN_NAMES, LinkSpec, apply_override,
                        builtin_architecture)
from hetqc.estimator import rsa_estimate
from hetqc.resources import (CostWeights, ResourceCounts, count_architecture,
                             count_homogeneous, place_transfer_patches,
                             space_cost, transfer_patch_layout)

from oracles import bfs_distance_to_block


def test_homogeneous_reference_device():
    rc = count_homogeneous(1000, 15, c_anc=1.0, n_mf_per_qpu=3, n_dist=72)
    assert rc.total_qubits == 49_140_000
    assert rc.total_couplers == 98_280_000
    b = rc.breakdown
    assert b["qubits_logical"] == 450_000
    assert b["qubits_surgery"] == 60_000
    assert b["qubits_injection"] == 30_000
    assert b["qubits_distillation"] == 48_600_000


def test_homogeneous_couplers_track_qubits():
    rc = count_homogeneous(64, 9)
    assert rc.total_couplers == 2 * rc.total_qubits
    assert rc.qubits_static == 0


def test_monolithic_builtin_total():
    rc = count_architecture(builtin_architecture("Mono"))
    assert rc.total_qubits == 2_048_600


def test_stqm_builtin_counts():
    rc = count_architecture(builtin_architecture("A1"))
    assert rc.qubits_active == 600_030
    assert rc.qubits_static == 225_000
    assert rc.total_qubits == 825_030
    assert rc.interconnects == 452_700
    assert rc.couplers_local == 229_050
    # published rounded values with their stated slack
    assert rc.total_qubits == pytest.approx(0.825e6, rel=0.015)
    assert rc.interconnects == pytest.approx(0.453e6, rel=0.01)
    assert rc.couplers_local == pytest.approx(0.229e6, rel=0.01)


def test_raqm_builtin_counts():
    rc = count_architecture(builtin_architecture("A2"))
    assert rc.total_qubits == 354_600
    assert rc.interconnects == 45_270
    assert rc.couplers_local == 335_754
    assert rc.total_qubits == pytest.approx(0.354e6, rel=0.01)
    assert rc.couplers_local == pytest.approx(0.336e6, rel=0.01)


@pytest.mark.parametrize("name,total", [
    ("B1", 1_036_754),
    ("B2", 380_912),
    ("B3", 189_764),
    ("B4", 1_094_609),
    ("B6", 247_619),
])
def test_factoring_architecture_totals(name, total):
    rc = count_architecture(builtin_architecture(name))
    assert rc.total_qubits == total


#: (qubits_active, qubits_static, couplers_local, couplers_nonlocal,
#: interconnects) of every builtin
BUILTIN_COUNTS = {
    "baseline1000": (49_140_000, 0, 98_280_000, 0, 0),
    "A1": (600_030, 225_000, 229_050, 0, 452_700),
    "A2": (354_600, 0, 335_754, 0, 45_270),
    "A3": (354_600, 0, 335_754, 0, 45_270),
    "Mono": (2_048_600, 0, 4_097_200, 0, 0),
    "B1": (531_715, 505_039, 513_703, 0, 509_371),
    "B2": (328_567, 52_345, 499_073, 0, 64_619),
    "B3": (137_419, 52_345, 159_033, 30_240, 66_063),
    "B4": (589_570, 505_039, 567_131, 0, 522_728),
    "B5": (386_422, 52_345, 552_501, 0, 77_976),
    "B6": (195_274, 52_345, 212_461, 30_240, 79_420),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_counts_sum_their_tier_rows(name):
    rc = count_architecture(builtin_architecture(name))
    assert (rc.qubits_active, rc.qubits_static, rc.couplers_local,
            rc.couplers_nonlocal, rc.interconnects) == BUILTIN_COUNTS[name]
    rows = rc.breakdown
    assert sum(v for k, v in rows.items()
               if k.startswith("qubits_")) == rc.total_qubits
    assert sum(v for k, v in rows.items()
               if k.endswith("interconnect")) == rc.interconnects


@pytest.mark.parametrize("name", ["B1", "B2", "B3", "B4", "B5", "B6"])
def test_factoring_plant_reads_no_factory_field(name):
    # the plant prices its CCZ factories from the QPU alone
    arch = builtin_architecture(name)
    apply_override(arch, "qsf.n_mf_per_qpu=7")
    apply_override(arch, "qsf.n_dist=200")
    assert count_architecture(arch) == \
        count_architecture(builtin_architecture(name))


@pytest.mark.parametrize("links,problem", [
    # reversed, the link once priced A1 at 1,273,680 qubits
    ([LinkSpec("stqm0", "qpu0", "transversal")],
     "link stqm0-qpu0: must join a compute module (first) to a memory "
     "module (second)"),
    # unlinked, A1 once raised IndexError
    ([], "module qpu0: has no link; module stqm0: has no link"),
])
def test_count_refuses_invalid_architecture(links, problem):
    spec = builtin_architecture("A1")
    spec.links = links
    with pytest.raises(ValueError, match="invalid architecture: .*") as exc:
        count_architecture(spec)
    assert problem in str(exc.value)
    with pytest.raises(ValueError, match="invalid architecture"):
        rsa_estimate(spec)


def test_count_refuses_a_second_memory_of_a_kind():
    # A1 with a second linked 1000-cell STQM once priced 825,030 qubits,
    # as A1 alone, though the scheduler used both memories
    spec = builtin_architecture("A1")
    spec.modules.append(dataclasses.replace(spec.module("stqm0"), id="stqm1",
                                            n_logical=1000))
    spec.links.append(LinkSpec("qpu0", "stqm1", "transversal"))
    with pytest.raises(ValueError, match="more than one STQM module"):
        count_architecture(spec)


def test_count_adds_the_rows_of_two_asqpus():
    # the breakdown once held the second ASQPU's rows alone, so its rows
    # summed to 1,059,953 qubits against the total's 1,117,808
    spec = builtin_architecture("B4")
    spec.modules.append(dataclasses.replace(spec.module("asqpu0"),
                                            id="asqpu1", n_logical=5))
    spec.links += [dataclasses.replace(link, a="asqpu1")
                   for link in spec.links_of("asqpu0")]
    rc = count_architecture(spec)
    assert rc.total_qubits == 1_117_808
    assert rc.interconnects == 524_533
    rows = rc.breakdown
    assert sum(v for k, v in rows.items()
               if k.startswith("qubits_")) == rc.total_qubits
    assert sum(v for k, v in rows.items()
               if k.endswith("interconnect")) == rc.interconnects


def test_space_cost_weighting():
    rc = ResourceCounts(qubits_active=10, qubits_static=4, couplers_local=6,
                        couplers_nonlocal=2, interconnects=8)
    w = CostWeights(w_active=1.0, w_static=0.5, w_local=1.0, w_nonlocal=4.0,
                    w_inter=0.5)
    assert space_cost(rc, w) == pytest.approx(10 + 2 + 6 + 8 + 4)


@given(st.floats(0, 10), st.floats(0, 10))
def test_space_cost_linear_in_active_weight(w1, w2):
    rc = ResourceCounts(qubits_active=7, qubits_static=3)
    a = space_cost(rc, CostWeights(w_active=w1))
    b = space_cost(rc, CostWeights(w_active=w2))
    assert (b - a) == pytest.approx(7 * (w2 - w1), abs=1e-9)


# ------------------------------------------------------------ patch layout

def test_patch_count_reference_point():
    assert place_transfer_patches(1254, 4) == 22


def test_patch_count_formula():
    # quota per patch is 2k^2 + 6k + 1
    assert place_transfer_patches(57, 4) == 1
    assert place_transfer_patches(58, 4) == 2
    assert place_transfer_patches(1, 0) == 1
    assert place_transfer_patches(5, 0) == 5
    assert place_transfer_patches(0, 4) == 0
    with pytest.raises(ValueError):
        place_transfer_patches(-1, 4)
    with pytest.raises(ValueError):
        place_transfer_patches(10, -1)


def _layout_groups(layout):
    """Split the flat cell list back into per-patch runs (anchor first)."""
    groups, idx = [], 0
    for _ in range(layout.n_patches):
        if idx >= len(layout.storage_cells):
            break
        assert layout.storage_distances[idx] == 0, "group must open at 0"
        cells = [(layout.storage_cells[idx], 0)]
        idx += 1
        while (idx < len(layout.storage_cells)
               and layout.storage_distances[idx] != 0):
            cells.append((layout.storage_cells[idx],
                          layout.storage_distances[idx]))
            idx += 1
        groups.append(cells)
    assert idx == len(layout.storage_cells)
    return groups


def _layout_problems(n, k):
    layout = transfer_patch_layout(n, k)
    quota = 2 * k * k + 6 * k + 1
    problems = []
    if layout.n_patches != place_transfer_patches(n, k):
        problems.append("patch count mismatch")
    if len(layout.storage_cells) != n:
        problems.append("cell total mismatch")
    if len(set(layout.storage_cells)) != n:
        problems.append("storage cells collide")
    blocks = {c for block in layout.patch_cells for c in block}
    anchor_only = set(layout.storage_cells) & blocks
    anchors = {block[0] for block in layout.patch_cells}
    if anchor_only - anchors:
        problems.append("storage cell inside a foreign patch block")
    groups = _layout_groups(layout)
    for pi, cells in enumerate(groups):
        if len(cells) > quota:
            problems.append(f"patch {pi} over quota")
        block = layout.patch_cells[pi]
        anchor = block[0]
        if cells[0][0] != anchor:
            problems.append(f"patch {pi} does not store on itself first")
        if k == 0:
            continue
        obstacles = frozenset(blocks - set(block))
        for cell, want in cells[1:]:
            got = bfs_distance_to_block(cell, anchor, obstacles, k)
            if got is None:
                problems.append(f"patch {pi} cell {cell} beyond reach {k}")
            elif got > k:
                problems.append(f"patch {pi} cell {cell} distance {got} > k")
            elif got != want:
                problems.append(
                    f"patch {pi} cell {cell}: stored {want}, bfs {got}")
    return problems


@pytest.mark.parametrize("n,k", [
    (1, 1), (9, 1), (10, 1), (57, 4), (58, 4), (109, 6), (110, 6),
    (500, 3), (1254, 4), (1999, 5), (2000, 6), (64, 2), (7, 0),
])
def test_patch_layout_bfs_verified(n, k):
    assert _layout_problems(n, k) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 6))
def test_patch_layout_random_points(n, k):
    assert _layout_problems(n, k) == []


def test_patch_layout_zero_reach_is_flat():
    layout = transfer_patch_layout(5, 0)
    assert layout.n_patches == 5
    assert len(layout.storage_cells) == 5
    assert layout.storage_distances == [0] * 5
