"""One length per pair: every edge weight is ``geometry.edge_lengths`` of
its pair, so a cycle hop and its tree path are measured by one formula and
near-coincident points certify like any others."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour.cli import main
from powertour.constructions import clustered, cube_vertex_subset, save_point_set, uniform_cube
from powertour.geometry import edge_lengths, point_set
from powertour.greedy import greedy_ham_path
from powertour.mst import build_mst, build_threshold_forest
from powertour.oracle import exact_min_matching
from powertour.sekanina import mst_sekanina_tour
from powertour.structures import (close_path, path_from_order, tour_from_order,
                                  tree_from_pairs, validate)
from powertour.two_phase import two_phase_tour

from conftest import make_edge, random_points


def reference_length(x, y) -> float:
    """sqrt of sum_c (x_c - y_c)^2, in plain Python, columns left to right."""
    acc = 0.0
    for a, b in zip(x, y):
        d = a - b
        acc += d * d
    return math.sqrt(acc)


def hex_lengths(points, pairs):
    us, vs = zip(*pairs)
    return [float(w).hex() for w in edge_lengths(points, list(us), list(vs))]


coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda k: st.lists(st.lists(coordinates, min_size=k, max_size=k), min_size=2, max_size=12)))
def test_edge_lengths_equal_the_left_to_right_reference_bit_for_bit(rows):
    points = point_set(rows, "unconstrained")
    n = points.n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    coords = points.coords.tolist()
    assert hex_lengths(points, pairs) == [
        reference_length(coords[u], coords[v]).hex() for u, v in pairs]
    # symmetric in (u, v), and one pair alone has the bits it has in a batch
    assert hex_lengths(points, pairs) == hex_lengths(points, [(v, u) for u, v in pairs])
    assert [float(edge_lengths(points, u, v)).hex() for u, v in pairs] == \
        hex_lengths(points, pairs)


def test_edge_lengths_are_exactly_zero_on_duplicates():
    gen = np.random.default_rng(3)
    base = gen.uniform(size=(6, 7))
    points = point_set(np.vstack([base, base]))
    assert edge_lengths(points, np.arange(6), np.arange(6, 12)).tolist() == [0.0] * 6
    assert make_edge(points, 2, 8).weight == 0.0


def near_coincident(k, n, spread, seed, duplicate=False):
    """n points within ``spread`` of a random center in [0.1, 0.9]^k; with
    ``duplicate`` the last point repeats the first exactly."""
    gen = np.random.default_rng(np.random.SeedSequence([seed, k, n]))
    center = gen.uniform(0.1, 0.9, size=k)
    coords = center + spread * gen.uniform(-1.0, 1.0, size=(n, k))
    if duplicate:
        coords[-1] = coords[0]
    return point_set(coords)


WEIGHT_INPUTS = {
    "uniform-k3": lambda: uniform_cube(3, 60, 1),
    "uniform-k8": lambda: random_points(2, 40, 8),
    "clustered-1e-4": lambda: clustered(3, 80, 4, 1e-4, 1),
    "near-coincident-1e-9": lambda: near_coincident(5, 30, 1e-9, 4, duplicate=True),
    "cube-vertex-k6": lambda: cube_vertex_subset(6, 40, 5),
}


def assert_weighed_by_the_helper(edges, points):
    edges = list(edges)
    if edges:
        assert [e.weight.hex() for e in edges] == hex_lengths(points, [(e.u, e.v) for e in edges])


@pytest.mark.parametrize("name", WEIGHT_INPUTS)
def test_every_weight_is_the_helper_on_its_pair(name):
    points = WEIGHT_INPUTS[name]()
    n = points.n
    mst = build_mst(points)
    assert_weighed_by_the_helper(mst.edges, points)
    for cutoff in (0.0, 1e-6, 0.3, math.sqrt(points.k)):
        for tree in build_threshold_forest(points, cutoff):
            assert_weighed_by_the_helper(tree.edges, points)
    path, trace = greedy_ham_path(points)
    assert_weighed_by_the_helper(trace, points)
    assert_weighed_by_the_helper(path.edges, points)
    order = np.random.default_rng(n).permutation(n).tolist()
    assert_weighed_by_the_helper(tour_from_order(points, order).edges, points)
    assert_weighed_by_the_helper(path_from_order(points, order).edges, points)
    assert_weighed_by_the_helper(close_path(path, points).edges, points)
    pairs = [(e.u, e.v) for e in mst.edges]
    assert_weighed_by_the_helper(tree_from_pairs(points, pairs).edges, points)
    assert_weighed_by_the_helper([make_edge(points, u, v) for u, v in pairs], points)
    even = point_set(points.coords[:10], points.container)
    matching, _cost = exact_min_matching(even, 3)
    assert_weighed_by_the_helper(matching.edges, even)


def run_tour(tmp_path, points, algo):
    src = tmp_path / "points.json"
    save_point_set(points, src)
    out = tmp_path / f"{algo}.json"
    code = main(["tour", str(src), "--algo", algo, "--no-timestamp", "-o", str(out)])
    return code, json.loads(out.read_text())


REPRODUCERS = {
    "clustered-radius-1e-4": lambda: clustered(3, 200, 4, 0.0001, 1),
    "four-points": lambda: point_set([[.5, .5, .5], [.5 + 1e-9, .5, .5],
                                      [.5, .5 + 2e-9, .5], [.9, .1, .3]]),
}


@pytest.mark.parametrize("algo", ["mst-sekanina", "two-phase"])
@pytest.mark.parametrize("name", REPRODUCERS)
def test_near_coincident_reproducers_certify(tmp_path, name, algo):
    """``gen clustered --k 3 --n 200 --radius 0.0001 --seed 1`` and four
    points a few 1e-9 apart exit 0 with their certified row satisfied."""
    code, body = run_tour(tmp_path, REPRODUCERS[name](), algo)
    assert code == 0
    rows = {r["name"]: r for r in body["algorithms"][algo]["bounds"]}
    assert rows["cycle_upper_improved"]["certified"]
    assert rows["cycle_upper_improved"]["satisfied"]


clusters = st.tuples(st.integers(2, 8), st.integers(3, 40), st.integers(-12, -3),
                     st.integers(0, 2 ** 32 - 1), st.booleans())


@settings(max_examples=60, deadline=None)
@given(clusters)
def test_near_coincident_clusters_certify_and_validate(case):
    """Spreads 1e-12..1e-3, some with an exact duplicate: no pipeline raises
    CertificateError, and every tree, forest tree, path and tour validates."""
    k, n, exponent, seed, duplicate = case
    points = near_coincident(k, n, 10.0 ** exponent, seed, duplicate)
    assert validate(build_mst(points), points) == []
    for tree in build_threshold_forest(points, k ** -0.25):
        assert validate(tree, points) == []
    for cutoff in (0.0, 10.0 ** exponent):
        for tree in build_threshold_forest(points, cutoff):
            assert validate(tree, points) == []
    tour, report = mst_sekanina_tour(points, k)
    assert validate(tour, points) == []
    assert report.certified_failures() == []
    tour, _phase = two_phase_tour(points, k)
    assert validate(tour, points) == []
    path, _trace = greedy_ham_path(points)
    assert validate(path, points) == []
    assert validate(close_path(path, points), points) == []
