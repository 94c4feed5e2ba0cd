import json
import math
import sys

import numpy as np
import pytest

from powertour import constructions, mst, sekanina, structures
from powertour.errors import CertificateError
from powertour.geometry import point_set, power_cost
from powertour.greedy import greedy_ham_path
from powertour.mst import build_mst, build_threshold_forest
from powertour.sekanina import mst_sekanina_cycle, tree_to_cycle_cost_bound
from powertour.structures import close_path, validate
from powertour.two_phase import two_phase_tour

from conftest import random_points, traced_peak


def test_sparse_points_reduce_to_plain_greedy():
    # all pairwise distances exceed the cutoff: phase 1 is vacuous
    pts = point_set([[0.0, 0.0], [0.0, 0.9], [0.9, 0.0], [0.9, 0.9]])
    k = 2
    tour, report = two_phase_tour(pts, k, cutoff=0.5)
    assert all(s == 1 for s in report.tree_sizes)
    path, _ = greedy_ham_path(pts)
    reference = close_path(path, pts)
    assert tour.order == reference.order
    assert power_cost(tour.edges, k).unscaled == pytest.approx(
        power_cost(reference.edges, k).unscaled)


def test_single_cluster_matches_tree_cycle_bound():
    rng = np.random.default_rng(5)
    pts = point_set(0.45 + 0.02 * rng.uniform(size=(18, 3)))
    k = 3
    tour, report = two_phase_tour(pts, k, cutoff=0.5)
    assert len(report.tree_sizes) == 1
    assert report.greedy_added == 0
    mst = build_mst(pts)
    _t, _c, bound = tree_to_cycle_cost_bound(mst, pts, k)
    assert power_cost(tour.edges, k).unscaled <= bound * (1 + 1e-9)


def test_random_instances_within_certified_bound(rng):
    for k in (3, 6, 9, 10):
        bound = 3 * math.sqrt(5) * (2 / 3) ** (1 / k) * math.sqrt(k)
        for seed in range(8):
            n = int(rng.integers(2, 200))
            pts = random_points(seed + 1000, n, k)
            tour, report = two_phase_tour(pts, k)
            assert validate(tour, pts) == []
            assert power_cost(tour.edges, k).scaled <= bound * (1 + 1e-9)


def test_path_system_within_forest_cycle_budget(rng):
    for seed in range(8):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(10, 150))
        pts = random_points(seed + 1100, n, k)
        # generous cutoff so phase 1 produces real trees
        tour, report = two_phase_tour(pts, k, cutoff=0.6 * math.sqrt(k))
        if any(s > 1 for s in report.tree_sizes):
            budget = k * math.log(3.0) + report.forest_cost.log_unscaled
            assert report.path_system_cost.log_unscaled <= budget + 1e-9


def test_degenerate_inputs():
    pts = point_set([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    tour, _ = two_phase_tour(pts, 2)
    assert validate(tour, pts) == []
    assert power_cost(tour.edges, 2).unscaled == 0.0

    two = point_set([[0.1, 0.1], [0.9, 0.9]])
    tour, report = two_phase_tour(two, 2)
    assert len(tour.edges) == 2


def test_two_vertex_forest_trees_are_certified(monkeypatch):
    """A 2-vertex forest tree goes through the cube-cycle walk: its doubled
    edge minus the heavier copy is the tree's edge, and a checker that
    reports a problem stops the tour."""
    pts = point_set([[0.1, 0.1], [0.15, 0.1], [0.9, 0.9]])
    _tour, report = two_phase_tour(pts, 2, cutoff=0.2)
    assert report.tree_sizes == (2, 1)
    assert report.path_system_cost.unscaled == report.forest_cost.unscaled
    monkeypatch.setattr(sekanina, "verify_double_cover", lambda *_a: ["forged"])
    with pytest.raises(CertificateError, match="forged"):
        two_phase_tour(pts, 2, cutoff=0.2)


def test_default_cutoff_and_report_shape(rng):
    pts = random_points(21, 40, 4)
    tour, report = two_phase_tour(pts, 4)
    assert report.cutoff == pytest.approx(4 ** -0.25)
    assert sum(report.tree_sizes) == 40
    body = report.to_dict()
    json.dumps(body)  # serializable
    assert body["tree_count"] == len(report.tree_sizes)
    assert body["tour"]["s_k"] == pytest.approx(power_cost(tour.edges, 4).scaled)


@pytest.mark.parametrize("make, trees", [
    (lambda: constructions.uniform_cube(3, 300, 0), 1),
    (lambda: constructions.clustered(8, 300, 8, 0.05, 0), 7),
], ids=["uniform-k3-one-tree", "clustered-k8"])
def test_warm_edges_inserted_once_and_never_validated(monkeypatch, make, trees):
    """Each warm edge and each greedy join is inserted into the one path
    system exactly once, n - 1 insertions in all, and no module re-checks
    the warm start with ``validate``."""
    calls = {"add": 0, "validate": 0}
    add, check = structures.PathSystem.add_path_edge, structures.validate

    def counted_add(self, u, v):
        calls["add"] += 1
        return add(self, u, v)

    def counted_validate(*args):
        calls["validate"] += 1
        return check(*args)

    monkeypatch.setattr(structures.PathSystem, "add_path_edge", counted_add)
    binders = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "powertour" and getattr(m, "validate", None) is check]
    for module in binders:
        monkeypatch.setattr(module, "validate", counted_validate)
    pts = make()
    _tour, report = two_phase_tour(pts, pts.k)
    assert len(report.tree_sizes) == trees
    assert report.greedy_added == trees - 1
    assert calls == {"add": pts.n - 1, "validate": 0}


@pytest.mark.parametrize("run", [
    build_mst,
    lambda pts: build_threshold_forest(pts, pts.k ** -0.25),
    greedy_ham_path,
    lambda pts: two_phase_tour(pts, pts.k),
], ids=["mst", "forest", "greedy", "two-phase"])
@pytest.mark.parametrize("make", [
    lambda: constructions.uniform_cube(3, 2000, 1),
    lambda: constructions.cube_vertex_subset(12, 2000, 1),
    lambda: point_set(np.full((2000, 2), 0.5)),
], ids=["uniform-k3", "cube-vertex-k12", "all-equal"])
def test_pipelines_allocate_no_quadratic_array(make, run):
    """No pipeline builds an n x n array: at n = 2000 each entry point's
    traced peak, on a fresh point set, stays under a quarter of one n x n
    float matrix (8 n^2 / 4 bytes), on equal points too, where every Gram
    entry passes the filter."""
    points = make()
    n = points.n
    assert traced_peak(lambda: run(points)) < 8 * n * n / 4


@pytest.mark.parametrize("n", [80, 280])
def test_one_mst_scan_per_point_set(monkeypatch, n):
    """mst-sekanina and then two-phase on one point set scan it once: the
    forest is the cut of the MST the cycle was built on."""
    pts = constructions.clustered(8, n, 8, 0.05, 3)
    scans = []
    prim = mst._prim

    def watched(points):
        scans.append("_prim")
        return prim(points)

    monkeypatch.setattr(mst, "_prim", watched)
    mst_sekanina_cycle(pts)
    _tour, report = two_phase_tour(pts, pts.k)
    assert max(report.tree_sizes) > 1
    assert scans == ["_prim"]
