import json
import math
import sys

import numpy as np
import pytest

from powertour import constructions, geometry, mst, structures
from powertour.geometry import point_set, power_cost
from powertour.greedy import greedy_ham_path
from powertour.mst import build_mst
from powertour.sekanina import tree_to_cycle_cost_bound
from powertour.structures import close_path, validate
from powertour.two_phase import two_phase_tour

from conftest import random_points


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
        if report.forest_cost.edge_count:
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


def count_pairwise_sq(monkeypatch):
    """Count ``pairwise_sq`` calls through every module that binds it;
    returns the list of each call's point count."""
    calls = []
    original = geometry.pairwise_sq

    def counted(coords):
        calls.append(len(coords))
        return original(coords)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "powertour" and getattr(module, "pairwise_sq", None) is original:
            monkeypatch.setattr(module, "pairwise_sq", counted)
    return calls


@pytest.mark.parametrize("n", [200, mst._PRIM_ABOVE + 200],
                         ids=["filter-kruskal", "prim"])
def test_one_distance_matrix_per_run(monkeypatch, n):
    """Two-phase builds one d^2 matrix for its forest and its greedy; the
    MST and the greedy alone build one each."""
    pts = constructions.clustered(8, n, 8, 0.05, 3)
    calls = count_pairwise_sq(monkeypatch)
    _tour, report = two_phase_tour(pts, pts.k)
    assert report.greedy_added > 0
    assert calls == [n]
    calls.clear()
    build_mst(pts)
    assert calls == [n]
    calls.clear()
    greedy_ham_path(pts)
    assert calls == [n]
