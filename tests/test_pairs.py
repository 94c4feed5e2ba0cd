"""The key engine: exact difference-form keys, Gram products as their filter
and the margin that makes the filter safe."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour import pairs
from powertour.constructions import clustered, cube_vertex_subset, uniform_cube
from powertour.geometry import point_set, sq_lengths

from conftest import plain_sq, random_points


coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda k: st.lists(st.lists(coordinates, min_size=k, max_size=k), min_size=1, max_size=12)))
def test_sq_lengths_equal_the_left_to_right_reference_bit_for_bit(rows):
    """Pair by pair, as a block of rows against columns and one pair at a
    time, the key has the plain reference's bits."""
    points = point_set(rows, "unconstrained")
    n = points.n
    coords = points.coords.tolist()
    want = np.array([[plain_sq(x, y) for y in coords] for x in coords])
    index = np.arange(n)
    block = sq_lengths(points, index[:, None], index)
    assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
    iu, iv = np.triu_indices(n, k=1)
    assert np.array_equal(sq_lengths(points, iu, iv).view(np.uint64),
                          want[iu, iv].view(np.uint64))
    assert all(float(sq_lengths(points, u, v)).hex() == want[u, v].hex()
               for u, v in zip(iu.tolist(), iv.tolist()))


def far_clusters(k, n, extent, seed):
    """Two tight clusters of extent ``extent`` at opposite corners of
    [0.2, 0.8]^k: the translation cannot make both small."""
    gen = np.random.default_rng(seed)
    centre = np.where(np.arange(n)[:, None] < n // 2, 0.2, 0.8)
    return point_set(centre + extent * gen.uniform(-1.0, 1.0, size=(n, k)))


MARGIN_INPUTS = {
    "uniform-k3": lambda: uniform_cube(3, 300, 1),
    "uniform-k12": lambda: uniform_cube(12, 300, 2),
    "clustered-k8": lambda: clustered(8, 300, 8, 0.05, 3),
    "cube-vertex-k12": lambda: cube_vertex_subset(12, 300, 4),
    "tight-k3": lambda: point_set(0.5 + 1e-7 * np.random.default_rng(5).uniform(
        -1.0, 1.0, size=(200, 3))),
    "far-clusters-k8": lambda: far_clusters(8, 200, 1e-9, 6),
    "offset-unconstrained": lambda: point_set(
        1e6 + np.random.default_rng(7).uniform(size=(200, 4)), "unconstrained"),
    "underflow-k3": lambda: point_set(
        1e-158 * np.random.default_rng(9).uniform(size=(200, 3)), "unconstrained"),
}


@pytest.mark.parametrize("name", MARGIN_INPUTS)
def test_gram_values_lie_within_the_margin_of_the_exact_keys(name):
    """The margin bounds |Gram - exact key| on every pair, far from the
    origin, on tight clusters and where the products underflow too; the
    integer cube vertices have exact Gram values."""
    points = MARGIN_INPUTS[name]()
    gram = pairs.Gram(points)
    index = np.arange(points.n)
    error = np.abs(gram.left @ gram.right - sq_lengths(points, index[:, None], index))
    assert error.max() <= gram.margin
    if name == "cube-vertex-k12":
        assert error.max() == 0.0


@pytest.mark.parametrize("make", [
    lambda: random_points(3, 40, 3),
    lambda: point_set(np.repeat(list(itertools.product(np.linspace(0.0, 1.0, 7),
                                                        repeat=2)), 2, axis=0)),
    lambda: cube_vertex_subset(6, 50, 41),
    lambda: far_clusters(3, 40, 1e-9, 8),
], ids=["uniform", "grid-duplicates", "cube-vertex", "far-clusters"])
def test_any_pair_within_matches_every_pair(make):
    """Whether some pair's exact key is at most the bound, at every key the
    points have and just below it."""
    points = make()
    iu, iv = np.triu_indices(points.n, k=1)
    keys = np.unique(sq_lengths(points, iu, iv))
    for key in itertools.chain(keys[:5], keys[-2:]):
        assert pairs.any_pair_within(points, float(key))
        below = float(np.nextafter(key, -np.inf))
        assert pairs.any_pair_within(points, below) == bool((keys <= below).any())
