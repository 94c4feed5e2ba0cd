import math
from dataclasses import dataclass

import numpy as np
import pytest

from powertour.constructions import (cube_vertex_subset, diagonal_pair, k3_code4,
                                     k4_even_weight_code, midball_reach_extremal_pair,
                                     uniform_cube)
from powertour.errors import InputError
from powertour.geometry import PowerCost, leq, pairwise_sq, point_set, power_cost
from powertour.greedy import greedy_ham_path
from powertour.planar import newman_square_tour
from powertour.sekanina import mst_sekanina_tour
from powertour.structures import close_path
import powertour.verifiers
from powertour.verifiers import (MIDBALL_COEFF, bound_report, hamming_min_distance,
                                 midball_reach_batch, midball_reach_check, singleton_check)

from conftest import traced_peak


def test_midball_tight_pair_equality():
    u, v = midball_reach_extremal_pair(5)
    lhs, rhs, ok = midball_reach_check(u, v)
    assert ok
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(1.25, rel=1e-12)


def test_midball_center_pair():
    k = 9
    lhs, rhs, ok = midball_reach_check(np.zeros(k), np.zeros(k))
    assert ok and lhs == 0.0


def test_midball_batch_clean():
    for k in (2, 5, 11):
        bad, worst = midball_reach_batch(k, 20000, seed=4)
        assert bad == 0
        assert worst <= 0


def one_shot_midball_reach_batch(k, trials, seed=0, rel_tol=1e-9):
    """The unblocked body: every u, then every v, in one draw each."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    u = rng.uniform(-0.5, 0.5, size=(trials, k))
    v = rng.uniform(-0.5, 0.5, size=(trials, k))
    lhs = np.linalg.norm(u + v, axis=1) / 2.0 + np.linalg.norm(u - v, axis=1) / 4.0
    margin = lhs - MIDBALL_COEFF * math.sqrt(k)
    return int(np.sum(margin > rel_tol)), float(margin.max())


@pytest.mark.parametrize("block", [None, 1, 3])
def test_midball_batch_blocks_equal_one_shot(monkeypatch, block):
    """Blocks draw the one-shot stream: the count and the worst margin are
    bit-equal for every block size, including ragged last blocks.  A
    negative tolerance makes the count nonzero, so it is checked too."""
    if block is not None:
        monkeypatch.setattr(powertour.verifiers, "_MIDBALL_BLOCK", block)
    for trials in (1, 1023, 1024, 1025, 3079):
        for k in (1, 2, 7, 20):
            for seed in (0, 11):
                for tol in (1e-9, -0.4):
                    got = midball_reach_batch(k, trials, seed=seed, rel_tol=tol)
                    want = one_shot_midball_reach_batch(k, trials, seed=seed, rel_tol=tol)
                    assert got[0] == want[0]
                    assert got[1].hex() == want[1].hex()


def test_midball_batch_memory_does_not_grow_with_trials():
    """The one-shot draw traced 127 MB here; blocks of rows stay small."""
    assert traced_peak(lambda: midball_reach_batch(20, 200_000)) < 4 * 2 ** 20


def test_midball_rejects_outside_halfcube():
    with pytest.raises(InputError):
        midball_reach_check(np.array([0.7, 0.0]), np.zeros(2))


def test_hamming_min_distance_codes():
    assert hamming_min_distance(k3_code4()) == 2
    assert hamming_min_distance(k4_even_weight_code()) == 2
    assert hamming_min_distance(diagonal_pair(6)) == 6
    with pytest.raises(InputError):
        hamming_min_distance(point_set([[0.5, 0.5], [0.0, 1.0]]))


def test_singleton_bounds_on_codes():
    sc = singleton_check(4, 2, 8)
    assert sc.bound == 8 and sc.ok
    assert sc.improved_bound == pytest.approx(2 ** (4 - 3 + 2)) and sc.ok_improved
    sc3 = singleton_check(3, 2, 4)
    assert sc3.bound == 4 and sc3.ok
    # improved form only applies under d < 2k/3
    assert singleton_check(3, 2, 4).improved_bound is None
    assert singleton_check(6, 4, 2).improved_bound is None


def test_singleton_on_measured_random_subsets():
    for seed in range(6):
        pts = cube_vertex_subset(10, 20, seed)
        d = hamming_min_distance(pts)
        sc = singleton_check(10, d, pts.n)
        assert sc.ok
        if sc.improved_bound is not None:
            assert sc.ok_improved


@dataclass(frozen=True)
class NearestNeighborCheck:
    nn_sq_sum: float
    tour_cost: float
    ok_vs_tour: bool
    ok_le_4: bool


def nearest_neighbor_sum_check(points, tour, rel_tol: float = 1e-9) -> NearestNeighborCheck:
    """Sum of squared nearest-neighbor distances in the plane.

    The sum never exceeds S_2 of any tour (each vertex's nearest neighbor
    is at most its outgoing tour edge away), and is at most 4 whenever the
    tour cost is (e.g. the constructive unit-square tour).
    """
    if points.k != 2:
        raise InputError("nearest-neighbor check is for planar point sets")
    d2 = pairwise_sq(points.coords)
    np.fill_diagonal(d2, np.inf)
    nn_sum = float(d2.min(axis=1).sum())
    s2 = float(sum(e.weight ** 2 for e in tour.edges))
    return NearestNeighborCheck(
        nn_sq_sum=nn_sum,
        tour_cost=s2,
        ok_vs_tour=leq(nn_sum, s2, rel_tol=rel_tol),
        ok_le_4=leq(nn_sum, 4.0, rel_tol=rel_tol),
    )


def test_nearest_neighbor_square_corners(square_corners):
    tour = newman_square_tour(square_corners)
    res = nearest_neighbor_sum_check(square_corners, tour)
    assert res.nn_sq_sum == pytest.approx(4.0)
    assert res.ok_vs_tour and res.ok_le_4


def test_nearest_neighbor_two_points():
    pts = point_set([[0.1, 0.1], [0.7, 0.9]])
    tour = newman_square_tour(pts)
    res = nearest_neighbor_sum_check(pts, tour)
    d2 = float(np.sum((pts.coords[0] - pts.coords[1]) ** 2))
    assert res.nn_sq_sum == pytest.approx(2 * d2)
    assert res.ok_le_4


def test_nearest_neighbor_random():
    rng = np.random.default_rng(20)
    for trial in range(20):
        pts = point_set(rng.uniform(size=(int(rng.integers(2, 300)), 2)))
        tour = newman_square_tour(pts)
        res = nearest_neighbor_sum_check(pts, tour)
        assert res.ok_vs_tour and res.ok_le_4


def test_nearest_neighbor_requires_planar():
    pts = uniform_cube(3, 5, 0)
    with pytest.raises(InputError):
        nearest_neighbor_sum_check(pts, mst_sekanina_tour(pts, 3)[0])


def test_bound_report_diagonal_pair_respects_lower_bound():
    pts = diagonal_pair(5)
    results = {}
    tour, _ = mst_sekanina_tour(pts, 5)
    results["mst-sekanina"] = power_cost(tour.edges, 5)
    path, _ = greedy_ham_path(pts)
    results["greedy"] = power_cost(close_path(path, pts).edges, 5)
    report = bound_report(pts, 5, results)
    for algo, entry in report.algorithms.items():
        row = {r["name"]: r for r in entry["bounds"]}
        assert row["cycle_lower_conjectured"]["satisfied"]
        assert row["cycle_upper_improved"]["satisfied"]
    assert report.certified_failures() == []


def test_bound_report_empty_results():
    pts = uniform_cube(4, 10, 1)
    report = bound_report(pts, 4, {})
    assert report.algorithms == {}
    assert report.bounds["cycle_upper_improved"] == pytest.approx(
        3 * math.sqrt(5) * (2 / 3) ** 0.25 * 2)
    body = report.to_dict()
    assert body["schema_version"] == 1


def test_bound_report_flags_certified_failure():
    pts = diagonal_pair(3)
    too_big = PowerCost(log_unscaled=100.0, unscaled=math.exp(100),
                        scaled=math.exp(100 / 3))
    report = bound_report(pts, 3, {"mst-sekanina": too_big})
    assert report.certified_failures() == ["mst-sekanina: cycle_upper_improved"]
