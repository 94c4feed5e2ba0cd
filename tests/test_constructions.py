import itertools
import json
import math

import numpy as np
import pytest

from powertour.constructions import (clustered, cube_vertex_subset, diagonal_pair,
                                     even_weight_code, k3_code4, k4_even_weight_code,
                                     load_point_set, midball_reach_extremal_pair,
                                     save_point_set, square_tight_sets, uniform_cube)
from powertour.errors import InputError
from powertour.geometry import Container, edge_lengths
from powertour.verifiers import hamming_min_distance


def test_diagonal_pair_basic():
    ps = diagonal_pair(3)
    assert ps.n == 2 and ps.k == 3
    assert edge_lengths(ps, 0, 1) == pytest.approx(math.sqrt(3))
    one_d = diagonal_pair(1)
    assert edge_lengths(one_d, 0, 1) == pytest.approx(1.0)


def test_diagonal_pair_one_dimension_tour_cost():
    from powertour.oracle import exact_min_tour

    _t, cost = exact_min_tour(diagonal_pair(1), 1)
    assert cost.unscaled == pytest.approx(2.0)


def test_k3_code_pairwise_distances():
    ps = k3_code4()
    for i, j in itertools.combinations(range(4), 2):
        assert edge_lengths(ps, i, j) == pytest.approx(math.sqrt(2))


def test_k4_code_pairwise_squares():
    ps = k4_even_weight_code()
    assert ps.n == 8
    squares = set()
    for i, j in itertools.combinations(range(8), 2):
        squares.add(round(edge_lengths(ps, i, j) ** 2))
    assert squares == {2, 4}
    assert ps.n <= 2 ** (4 - 2 + 1)  # size vs distance-2 code bound


def test_even_weight_code_matches_named_set():
    assert np.array_equal(even_weight_code(4).coords, k4_even_weight_code().coords)
    assert np.array_equal(even_weight_code(3).coords, k3_code4().coords)


@pytest.mark.parametrize("k", range(2, 9))
def test_even_weight_code_distance_and_size(k):
    ps = even_weight_code(k)
    assert ps.n == 2 ** (k - 1)
    assert hamming_min_distance(ps) == 2


def test_square_tight_sets_containers():
    for ps in square_tight_sets():
        assert ps.container == Container.UNIT_CUBE
        assert ps.k == 2


def test_extremal_pair_values():
    u, v = midball_reach_extremal_pair(5)
    val = np.linalg.norm(u + v) / 2 + np.linalg.norm(u - v) / 4
    assert val == pytest.approx(1.25, rel=1e-12)
    u10, v10 = midball_reach_extremal_pair(10)
    val10 = np.linalg.norm(u10 + v10) / 2 + np.linalg.norm(u10 - v10) / 4
    assert val10 == pytest.approx(math.sqrt(5) / 4 * math.sqrt(10), rel=1e-12)
    # swapping the two vectors leaves the value unchanged
    swapped = np.linalg.norm(v10 + u10) / 2 + np.linalg.norm(v10 - u10) / 4
    assert swapped == val10
    with pytest.raises(InputError):
        midball_reach_extremal_pair(7)


def test_uniform_cube_deterministic():
    a = uniform_cube(3, 100, 42)
    b = uniform_cube(3, 100, 42)
    assert np.array_equal(a.coords, b.coords)
    c = uniform_cube(3, 100, 43)
    assert not np.array_equal(a.coords, c.coords)


def test_cube_vertex_subset_distinct():
    ps = cube_vertex_subset(30, 1000, 7)
    assert ps.n == 1000
    assert len({row.tobytes() for row in ps.coords}) == 1000
    assert set(np.unique(ps.coords)) <= {0.0, 1.0}
    again = cube_vertex_subset(30, 1000, 7)
    assert np.array_equal(ps.coords, again.coords)


def test_cube_vertex_subset_small_dimension_exhaustive():
    ps = cube_vertex_subset(3, 8, 0)
    assert ps.n == 8
    with pytest.raises(InputError):
        cube_vertex_subset(3, 9, 0)


def test_clustered_inside_cube():
    ps = clustered(4, 60, 5, 0.08, 11)
    assert ps.n == 60
    assert ps.coords.min() >= 0 and ps.coords.max() <= 1


def test_json_roundtrip(tmp_path):
    ps = uniform_cube(5, 37, 3)
    target = tmp_path / "pts.json"
    save_point_set(ps, target)
    back = load_point_set(target)
    assert back.container == ps.container
    assert np.array_equal(back.coords, ps.coords)
    body = json.loads(target.read_text())
    assert body["k"] == 5 and body["container"] == "unit_cube"


def test_csv_roundtrip(tmp_path):
    ps = uniform_cube(3, 21, 9)
    target = tmp_path / "pts.csv"
    save_point_set(ps, target)
    back = load_point_set(target)
    assert np.array_equal(back.coords, ps.coords)
    assert back.container == Container.UNIT_CUBE


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2}))
    with pytest.raises(InputError):
        load_point_set(bad)


@pytest.mark.parametrize("make", [
    lambda seed: uniform_cube(3, 10, seed),
    lambda seed: cube_vertex_subset(6, 10, seed),
    lambda seed: clustered(3, 10, 2, 0.05, seed),
], ids=["uniform", "cube-vertices", "clustered"])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_generators_refuse_a_seed_that_is_not_a_nonnegative_integer(make, seed):
    with pytest.raises(InputError, match=r"seed must be an integer >= 0"):
        make(seed)


def test_generators_take_numpy_integer_seeds():
    assert np.array_equal(uniform_cube(3, 10, np.int64(7)).coords,
                          uniform_cube(3, 10, 7).coords)


@pytest.mark.parametrize("radius", [-0.05, math.inf, -math.inf, math.nan])
def test_clustered_refuses_a_negative_or_non_finite_radius(radius):
    with pytest.raises(InputError, match="radius must be finite and >= 0"):
        clustered(3, 10, 2, radius, 0)
