import itertools
import math

import numpy as np
import pytest

from powertour.constructions import (cube_vertex_subset, diagonal_pair, k3_code4,
                                     k4_even_weight_code, square_tight_sets, uniform_cube)
from powertour.errors import InputError, SizeError
from powertour.geometry import point_set, power_cost
from powertour.oracle import (closest_pair_bound_check, exact_min_matching,
                              exact_min_path, exact_min_tour, max_pairwise_square_sum)
from powertour.structures import validate

from conftest import random_points


def brute_tour_cost(points, k):
    """Fully independent tour enumeration (no canonicalization tricks)."""
    n = points.n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(
            np.linalg.norm(points.coords[perm[i]] - points.coords[perm[(i + 1) % n]]) ** k
            for i in range(n))
        best = min(best, cost)
    return best


def test_tour_k3_code():
    tour, cost = exact_min_tour(k3_code4(), 3)
    assert cost.unscaled == pytest.approx(4 * 2 ** 1.5, rel=1e-9)
    assert cost.scaled == pytest.approx(2 ** (7 / 6), rel=1e-9)


def test_tour_k4_even_weight():
    tour, cost = exact_min_tour(k4_even_weight_code(), 4)
    assert cost.unscaled == pytest.approx(32.0, rel=1e-9)


def test_tour_square_sets():
    for ps in square_tight_sets():
        _t, cost = exact_min_tour(ps, 2)
        assert cost.unscaled == pytest.approx(4.0, rel=1e-9)


def test_tour_matches_independent_enumeration():
    for seed in range(5):
        pts = random_points(seed + 1200, 7, 3)
        _t, cost = exact_min_tour(pts, 3)
        assert cost.unscaled == pytest.approx(brute_tour_cost(pts, 3), rel=1e-9)


def test_tour_deterministic_tie_break():
    ps = square_tight_sets()[0]
    t1, _ = exact_min_tour(ps, 2)
    t2, _ = exact_min_tour(ps, 2)
    assert t1.order == t2.order


def first_optimum_reference(points, closed):
    """Pure-Python canonical enumeration over cube vertices under k = 4.

    |u - v|^4 is the squared Hamming distance, so every cost is an exact
    integer and ties are exact.  Permutations run in lexicographic order,
    closed orders fix the pivot 0, one order per reversal pair is kept
    (first permuted entry below the last) and the first strict minimum wins.
    """
    n = points.n
    bits = [[int(x) for x in row] for row in points.coords]
    w = [[sum(a != b for a, b in zip(bits[i], bits[j])) ** 2 for j in range(n)]
         for i in range(n)]
    best_cost, best_order = None, None
    for perm in itertools.permutations(range(1, n) if closed else range(n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm if closed else perm
        cost = sum(w[order[i]][order[i + 1]] for i in range(n - 1))
        if closed:
            cost += w[order[-1]][order[0]]
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    return best_cost, best_order


@pytest.mark.parametrize("n", [8, 9])
def test_ties_keep_first_optimum_in_lexicographic_order(n):
    for seed in (0, 1):
        pts = cube_vertex_subset(4, n, seed)
        for closed, oracle in ((True, exact_min_tour), (False, exact_min_path)):
            structure, cost = oracle(pts, 4)
            want_cost, want_order = first_optimum_reference(pts, closed)
            assert structure.order == want_order
            assert cost.unscaled == pytest.approx(want_cost, rel=1e-12)


def test_tour_size_limits():
    with pytest.raises(SizeError):
        exact_min_tour(uniform_cube(2, 13, 0), 2)
    with pytest.raises(InputError):
        exact_min_tour(point_set([[0.5, 0.5]]), 2)


def test_path_diagonal_pair():
    for k in (3, 5, 7):
        _p, cost = exact_min_path(diagonal_pair(k), k)
        assert cost.unscaled == pytest.approx(k ** (k / 2), rel=1e-9)


def test_path_square_corners(square_corners):
    _p, cost = exact_min_path(square_corners, 2)
    assert cost.unscaled == pytest.approx(3.0, rel=1e-9)
    assert cost.scaled == pytest.approx(math.sqrt(3), rel=1e-9)


def test_path_k3_code_conjectured_value():
    _p, cost = exact_min_path(k3_code4(), 3)
    assert cost.unscaled == pytest.approx(3 * 2 ** 1.5, rel=1e-9)
    assert cost.scaled == pytest.approx(3 ** (1 / 3) * math.sqrt(2), rel=1e-9)


def test_matching_square_corners(square_corners):
    _m, cost = exact_min_matching(square_corners, 2)
    assert cost.unscaled == pytest.approx(2.0, rel=1e-9)


def test_matching_k3_code():
    matching, cost = exact_min_matching(k3_code4(), 3)
    assert validate(matching, k3_code4()) == []
    assert cost.unscaled == pytest.approx(2 * 2 ** 1.5, rel=1e-9)


def test_matching_by_direct_enumeration():
    pts = random_points(77, 6, 2)
    _m, cost = exact_min_matching(pts, 2)
    best = math.inf

    # direct: enumerate all 15 perfect matchings of K6 explicitly
    def all_matchings(verts):
        if not verts:
            yield []
            return
        u = verts[0]
        for i in range(1, len(verts)):
            v = verts[i]
            rest = verts[1:i] + verts[i + 1:]
            for m in all_matchings(rest):
                yield [(u, v)] + m
    for m in all_matchings(list(range(6))):
        c = sum(np.linalg.norm(pts.coords[a] - pts.coords[b]) ** 2 for a, b in m)
        best = min(best, c)
    assert cost.unscaled == pytest.approx(best, rel=1e-9)


def test_matching_parity_and_size_errors():
    with pytest.raises(InputError):
        exact_min_matching(uniform_cube(2, 5, 0), 2)
    with pytest.raises(SizeError):
        exact_min_matching(uniform_cube(2, 16, 0), 2)


def test_pair_sum_formula_all_m():
    for m in range(1, 15):
        val, wit = max_pairwise_square_sum(m)
        assert val == (m // 2) * ((m + 1) // 2)
        assert len(wit) == m and set(wit) <= {0, 1}
    with pytest.raises(SizeError):
        max_pairwise_square_sum(15)


def test_pair_sum_witness_m4():
    _val, wit = max_pairwise_square_sum(4)
    assert wit == (0, 0, 1, 1)


def test_pair_sum_witness_is_balanced():
    for m in (5, 9, 12):
        val, wit = max_pairwise_square_sum(m)
        ones = sum(wit)
        assert ones * (m - ones) == val


def test_closest_pair_bound_m3():
    for seed in range(6):
        k = 2 + seed
        pts = random_points(seed + 1300, 20, k)
        ok, _pair, min_sq, bound = closest_pair_bound_check(pts, 3)
        assert ok
        assert bound == pytest.approx(2 / 3 * k)


def test_closest_pair_square_corners(square_corners):
    ok, pair, min_sq, bound = closest_pair_bound_check(square_corners, 4)
    assert ok
    assert min_sq == pytest.approx(1.0)
    assert bound == pytest.approx(4 / 6 * 2)


def test_closest_pair_m200():
    pts = uniform_cube(4, 200, 5)
    ok, _pair, _min_sq, _bound = closest_pair_bound_check(pts, 200)
    assert ok


def test_closest_pair_box_form():
    rng = np.random.default_rng(6)
    coords = rng.uniform(size=(30, 6))
    coords[:, :4] *= 0.2
    pts = point_set(coords, "unconstrained")
    ok, _pair, min_sq, bound = closest_pair_bound_check(pts, 10, box=(0.2, 1.0, 4, 2))
    assert ok
    assert bound == pytest.approx((25 / 45) * (0.04 * 4 + 2))


def test_oracle_dominance_over_constructions():
    from powertour.greedy import greedy_ham_path
    from powertour.sekanina import mst_sekanina_tour
    from powertour.structures import close_path
    from powertour.two_phase import two_phase_tour

    for seed in range(4):
        pts = random_points(seed + 1400, 7, 3)
        _t, opt = exact_min_tour(pts, 3)
        for tour in (mst_sekanina_tour(pts, 3)[0], two_phase_tour(pts, 3)[0],
                     close_path(greedy_ham_path(pts)[0], pts)):
            assert power_cost(tour.edges, 3).unscaled >= opt.unscaled * (1 - 1e-9)
