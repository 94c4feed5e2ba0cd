import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertour.geometry
import powertour.greedy
import powertour.mst
from powertour.constructions import clustered, cube_vertex_subset, uniform_cube
from powertour.errors import InputError, SizeError
from powertour.geometry import (MAX_DENSE_POINTS, Container, Edge, euclidean_distance,
                                named_bounds, pairwise_sq,
                                point_set, power_cost_from_weights, symmetric_sq)

# extended-precision evaluation of 3*sqrt(5)*(2/3)^(1/3)*sqrt(3)
IMPROVED_BOUND_K3 = 10.150087774487463


def test_distance_cube_diagonal():
    assert euclidean_distance([0, 0, 0], [1, 1, 1]) == pytest.approx(math.sqrt(3))


def test_distance_code_pair():
    assert euclidean_distance([0, 0, 0], [0, 1, 1]) == pytest.approx(math.sqrt(2))


def test_distance_identical_points():
    assert euclidean_distance([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        euclidean_distance([0, 0], [0, 0, 0])


def test_power_cost_unit_square_sides():
    c = power_cost_from_weights([1.0, 1.0, 1.0, 1.0], 2)
    assert c.unscaled == pytest.approx(4.0, rel=1e-9)
    assert c.scaled == pytest.approx(2.0, rel=1e-9)


def test_power_cost_two_diagonals():
    c = power_cost_from_weights([math.sqrt(3)] * 2, 3)
    assert c.unscaled == pytest.approx(2 * 3 ** 1.5, rel=1e-9)


def test_power_cost_empty():
    c = power_cost_from_weights([], 7)
    assert c.unscaled == 0.0
    assert c.scaled == 0.0
    assert c.log_unscaled == -math.inf


def test_power_cost_zero_edges_excluded():
    c = power_cost_from_weights([0.0, 2.0, 0.0], 3)
    assert c.zero_edges == 2
    assert len(c.log_terms) == 1
    assert c.unscaled == pytest.approx(8.0)


def test_power_cost_huge_exponent_no_overflow_in_scaled():
    k = 1000
    c = power_cost_from_weights([math.sqrt(k)] * 5, k)
    assert c.overflow
    assert c.unscaled == math.inf
    # s_k = 5^(1/k) * sqrt(k)
    assert c.scaled == pytest.approx(5 ** (1 / k) * math.sqrt(k), rel=1e-9)


def test_power_cost_dict_block():
    c = power_cost_from_weights([0.5, 2.0], 2)
    assert c.to_dict() == {"S_k": 4.25, "s_k": c.scaled, "log_S_k": c.log_unscaled,
                           "overflow": False}
    big = power_cost_from_weights([math.sqrt(1000)] * 5, 1000)
    assert big.to_dict()["S_k"] is None
    assert big.to_dict()["overflow"]


def test_power_cost_log_consistency():
    rng = np.random.default_rng(1)
    for k in (1, 2, 5, 11):
        w = rng.uniform(0.01, 2.0, size=20)
        c = power_cost_from_weights(w, k)
        assert math.exp(k * math.log(c.scaled)) == pytest.approx(c.unscaled, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=0, max_size=30),
       st.integers(min_value=1, max_value=40),
       st.randoms(use_true_random=False))
def test_power_cost_permutation_bitstable(weights, k, rand):
    base = power_cost_from_weights(weights, k)
    shuffled = list(weights)
    rand.shuffle(shuffled)
    other = power_cost_from_weights(shuffled, k)
    assert base.log_terms == other.log_terms
    assert base.unscaled == other.unscaled
    assert base.scaled == other.scaled


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=0, max_size=20),
       st.floats(min_value=0.0, max_value=5.0),
       st.integers(min_value=1, max_value=20))
def test_scaled_cost_monotone_under_adding_edges(weights, extra, k):
    before = power_cost_from_weights(weights, k).scaled
    after = power_cost_from_weights(weights + [extra], k).scaled
    assert after >= before - 1e-12


def test_named_bounds_k2_is_exact_newman_constant():
    nb = named_bounds(2, 10)
    assert nb.cycle_lower_conjectured == pytest.approx(2.0, rel=1e-12)
    assert nb.square_tour_upper == 2.0
    assert nb.cycle_upper_classic is None


def test_named_bounds_k3_values():
    nb = named_bounds(3, 4)
    assert nb.dim3_cycle_lower == pytest.approx(2 ** (7 / 6), rel=1e-12)
    assert nb.dim3_cycle_lower == pytest.approx(2.2449, rel=1e-4)
    assert nb.cycle_upper_improved == pytest.approx(IMPROVED_BOUND_K3, rel=1e-12)


def test_named_bounds_classic_identity():
    # 9*(2/3)^(1/k) == 3^(2-1/k) * 2^(1/k)
    for k in range(3, 40):
        nb = named_bounds(k, 5)
        other = 3 ** (2 - 1 / k) * 2 ** (1 / k) * math.sqrt(k)
        assert nb.cycle_upper_classic == pytest.approx(other, rel=1e-12)


def test_named_bounds_ordering():
    for k in range(2, 101):
        nb = named_bounds(k, 3)
        assert nb.cycle_lower_conjectured <= nb.cycle_upper_improved


def test_named_bounds_path_conjecture_values():
    assert named_bounds(2, 4).path_conjectured == pytest.approx(math.sqrt(3))
    assert named_bounds(3, 4).path_conjectured == pytest.approx(3 ** (1 / 3) * math.sqrt(2))
    assert named_bounds(6, 4).path_conjectured == pytest.approx(31 ** (1 / 6) * math.sqrt(2))
    assert named_bounds(7, 4).path_conjectured == pytest.approx(math.sqrt(7))


def test_named_bounds_requires_k_at_least_2():
    with pytest.raises(InputError):
        named_bounds(1, 5)


def test_point_set_container_validation():
    with pytest.raises(InputError):
        point_set([[0.5, 1.5]], Container.UNIT_CUBE)
    ps = point_set([[-0.5, 0.5]], Container.HALF_CUBE)
    assert ps.k == 2
    with pytest.raises(InputError):
        point_set([[0.1, 0.2, 0.3]], Container.PLANAR_TRIANGLE)
    point_set([[5.0, -3.0]], Container.UNCONSTRAINED)


def test_point_set_is_immutable():
    ps = point_set([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 0.9


def test_edge_rejects_loops():
    with pytest.raises(InputError):
        Edge(3, 3, 0.0)


def test_dense_cap_leaves_room_above_benchmark_sizes():
    assert MAX_DENSE_POINTS >= 5 * 2000


@pytest.mark.parametrize("build", [
    powertour.mst.build_mst,
    lambda pts: powertour.mst.build_threshold_forest(pts, 0.5),
    powertour.greedy.greedy_ham_path,
], ids=["mst", "forest", "greedy"])
def test_dense_paths_refuse_points_beyond_the_cap_before_allocating(monkeypatch, build):
    def no_matrix(coords):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 10)
    monkeypatch.setattr(powertour.geometry, "pairwise_sq", no_matrix)
    pts = point_set(np.random.default_rng(0).uniform(size=(11, 3)))
    with pytest.raises(SizeError) as info:
        build(pts)
    assert "n = 11" in str(info.value)
    assert f"about {8 * 11 * 11 + 24 * 55:,} bytes" in str(info.value)
    monkeypatch.undo()
    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 11)
    build(pts)


SQ_INPUTS = pytest.mark.parametrize("make", [
    lambda: point_set([[0.25, 0.5]]),
    lambda: uniform_cube(3, 300, 0),
    lambda: clustered(8, 600, 8, 0.05, 1),
    lambda: cube_vertex_subset(12, 520, 2),
], ids=["one-point", "uniform-k3", "clustered-k8", "cube-vertex-k12"])


@SQ_INPUTS
def test_pairwise_sq_matches_whole_matrix_expression(make):
    """The strip-wise build gives the bits of the whole-matrix formula."""
    coords = make().coords
    sq = np.einsum("ij,ij->i", coords, coords)
    want = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T), 0.0)
    assert np.array_equal(pairwise_sq(coords).view(np.int64), want.view(np.int64))


@SQ_INPUTS
def test_symmetric_sq_mirrors_the_upper_triangle(make):
    """Every row holds the upper-triangle entries bit for bit, whatever the
    BLAS gives below the diagonal; the diagonal is +inf and the matrix is
    read-only, so its readers cannot change it for one another."""
    coords = make().coords
    d2 = symmetric_sq(coords)
    iu, iv = np.triu_indices(len(coords), k=1)
    assert np.array_equal(d2[iu, iv], pairwise_sq(coords)[iu, iv])
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diagonal(d2) == np.inf)
    with pytest.raises(ValueError):
        d2[0, 0] = 0.0
