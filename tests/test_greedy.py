import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour.constructions import cube_vertex_subset, diagonal_pair, k4_even_weight_code
from powertour.errors import InputError
from powertour.geometry import pairwise_sq, point_set, power_cost
from powertour.greedy import classify_edges, greedy_edge_count_by_length, greedy_ham_path
from powertour.structures import PathSystem, validate

from conftest import joinable, make_edge, random_points


def minimum_join_edge(points, system):
    """Replay oracle: the minimum joinable edge over the current endpoint
    pairs, recomputed from scratch.

    Tie-break: smallest (weight, min index, max index).  Returns None when
    a single path remains.  O(p^2) over the path count p; this is the
    step-by-step reference the fast scan must reproduce.
    """
    ends = [v for v, far in enumerate(system.other_end) if far >= 0]
    best = None
    coords = points.coords
    for i, u in enumerate(ends):
        for v in ends[i + 1:]:
            if not joinable(system, u, v):
                continue
            d = float(np.linalg.norm(coords[u] - coords[v]))
            key = (d, u, v)
            if best is None or key < best:
                best = key
    return best


def sorted_scan_greedy(points, warm_start=()):
    """Reference engine: sort all pairs once by (d^2, min, max) and scan.

    Returns the vertex walk and the trace, each trace pair weighed by
    ``make_edge``; ``greedy_ham_path`` must match both exactly, weights bit
    for bit.
    """
    n = points.n
    system = PathSystem.from_pairs(n, warm_start)
    trace = []
    needed = system.component_count() - 1
    if needed > 0:
        d2 = pairwise_sq(points.coords)
        iu, iv = np.triu_indices(n, k=1)
        flat = d2[iu, iv]
        for idx in np.lexsort((iv, iu, flat)):
            u, v = int(iu[idx]), int(iv[idx])
            if not joinable(system, u, v):
                continue
            system.add_path_edge(u, v)
            trace.append(make_edge(points, u, v))
            needed -= 1
            if needed == 0:
                break
    (walk,) = system.paths()
    return tuple(walk), trace


def mixed_warm_start(n, seed):
    """Paths of 1-4 vertices over a shuffled half of the vertices: interior
    degree-2 vertices, path ends and singletons all occur."""
    gen = np.random.default_rng(seed)
    perm = gen.permutation(n)[: n // 2].tolist()
    warm = PathSystem(n)
    i = 0
    while i < len(perm):
        size = int(gen.integers(1, 5))
        chunk = perm[i:i + size]
        for a, b in zip(chunk, chunk[1:]):
            warm.add_path_edge(a, b)
        i += size
    return warm


def assert_matches_sorted_scan(points, warm_start=()):
    path, trace = greedy_ham_path(points, warm_start=warm_start)
    ref_walk, ref_trace = sorted_scan_greedy(points, warm_start)
    assert trace == ref_trace
    assert [e.weight.hex() for e in trace] == [e.weight.hex() for e in ref_trace]
    assert path.order == ref_walk


def grid_subset(side, n, k, seed):
    gen = np.random.default_rng(seed)
    cells = gen.permutation(side ** k)[:n]
    coords = np.stack(np.unravel_index(cells, (side,) * k), axis=1) / (side - 1)
    return point_set(coords)


def tripled(points, seed):
    gen = np.random.default_rng(seed)
    return point_set(np.repeat(points.coords, 3, axis=0)[gen.permutation(3 * points.n)])


EQUALITY_INPUTS = [
    pytest.param(lambda: cube_vertex_subset(4, 16, 1), id="cube-k4-all"),
    pytest.param(lambda: cube_vertex_subset(6, 50, 2), id="cube-k6"),
    pytest.param(lambda: cube_vertex_subset(12, 120, 3), id="cube-k12"),
    pytest.param(lambda: cube_vertex_subset(12, 600, 4), id="cube-k12-n600"),
    pytest.param(lambda: grid_subset(9, 70, 2, 5), id="grid-2d"),
    pytest.param(lambda: grid_subset(5, 90, 3, 6), id="grid-3d"),
    pytest.param(lambda: tripled(random_points(7, 30, 2), 7), id="tripled-2d"),
    pytest.param(lambda: tripled(cube_vertex_subset(5, 20, 8), 8), id="tripled-cube"),
    pytest.param(lambda: random_points(9, 150, 3), id="uniform-k3"),
    pytest.param(lambda: random_points(10, 80, 8), id="uniform-k8"),
]


@pytest.mark.parametrize("make", EQUALITY_INPUTS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_heap_engine_matches_sorted_scan(make, warm):
    points = make()
    assert_matches_sorted_scan(points,
                               mixed_warm_start(points.n, points.n).edge_pairs if warm else ())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_heap_engine_matches_sorted_scan_on_ties(k, n, seed, warm):
    """Coordinates on a 3-level lattice: many equal distances and repeats."""
    gen = np.random.default_rng(seed)
    points = point_set(gen.integers(0, 3, size=(n, k)) / 2.0)
    assert_matches_sorted_scan(points, mixed_warm_start(n, seed).edge_pairs if warm else ())


def test_square_corners_path(square_corners):
    path, trace = greedy_ham_path(square_corners)
    assert validate(path, square_corners) == []
    assert power_cost(path.edges, 2).unscaled == pytest.approx(3.0)
    assert all(e.weight == pytest.approx(1.0) for e in trace)


def test_code_square_any_path():
    pts = point_set([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    path, _ = greedy_ham_path(pts)
    assert power_cost(path.edges, 3).unscaled == pytest.approx(3 * 2 ** 1.5, rel=1e-9)


def test_two_points():
    pts = point_set([[0.1, 0.9], [0.8, 0.3]])
    path, trace = greedy_ham_path(pts)
    assert len(trace) == 1
    assert path.order in ((0, 1), (1, 0))


def test_replay_against_stepwise_minimum(rng):
    """The fast scan must reproduce the per-step minimum-edge choice."""
    for seed in range(12):
        n = int(rng.integers(3, 25))
        pts = random_points(seed + 800, n, 3)
        path, trace = greedy_ham_path(pts)
        system = PathSystem(n)
        for e in trace:
            best = minimum_join_edge(pts, system)
            assert best is not None
            d, u, v = best
            assert (u, v) == e.key()
            assert d == pytest.approx(e.weight, rel=1e-12)
            system.add_path_edge(e.u, e.v)
        assert minimum_join_edge(pts, system) is None


def test_replay_with_warm_start(rng):
    for seed in range(6):
        n = int(rng.integers(6, 20))
        pts = random_points(seed + 850, n, 2)
        warm = PathSystem(n)
        warm.add_path_edge(0, 1)
        warm.add_path_edge(3, 4)
        _path, trace = greedy_ham_path(pts, warm_start=warm.edge_pairs)
        system = PathSystem.from_pairs(n, warm.edge_pairs)
        for e in trace:
            best = minimum_join_edge(pts, system)
            assert best is not None and (best[1], best[2]) == e.key()
            system.add_path_edge(e.u, e.v)


def test_warm_start_respected(rng):
    pts = random_points(13, 12, 2)
    warm = PathSystem(12)
    warm.add_path_edge(0, 5)
    warm.add_path_edge(5, 7)
    warm.add_path_edge(2, 3)
    path, trace = greedy_ham_path(pts, warm_start=warm.edge_pairs)
    assert validate(path, pts) == []
    assert len(trace) == 12 - 1 - 3
    path_keys = {e.key() for e in path.edges}
    for pair in [(0, 5), (5, 7), (2, 3)]:
        assert tuple(sorted(pair)) in path_keys
    # the original warm start object is untouched
    assert len(warm.edge_pairs) == 3


def test_path_system_and_greedy_need_no_union_find(monkeypatch):
    """``PathSystem`` tracks paths by their endpoint map alone: with the
    package's union-find disabled, joins, queries and a warm-started greedy
    run still work."""
    import powertour.structures as structures

    class NoDSU:
        def __init__(self, *args, **kwargs):
            raise AssertionError("PathSystem built a DSU")

    monkeypatch.setattr(structures, "DSU", NoDSU)
    warm = mixed_warm_start(16, 5)
    assert len(warm.paths()) == warm.component_count()
    assert PathSystem.from_pairs(16, warm.edge_pairs).endpoints() == warm.endpoints()
    pts = random_points(15, 16, 3)
    path, trace = greedy_ham_path(pts, warm_start=warm.edge_pairs)
    assert validate(path, pts) == []
    assert len(trace) == warm.component_count() - 1


def test_invalid_warm_start_rejected():
    pts = random_points(14, 6, 2)
    with pytest.raises(InputError):
        greedy_ham_path(pts, warm_start=[(4, 6)])
    bad = PathSystem(6)
    bad.add_path_edge(0, 1)
    bad.edge_pairs.append((0, 2))
    bad.neighbors[0].append(2)
    bad.neighbors[2].append(0)
    bad.edge_pairs.append((0, 3))
    bad.neighbors[0].append(3)
    bad.neighbors[3].append(0)
    with pytest.raises(InputError):
        greedy_ham_path(pts, warm_start=bad.edge_pairs)


@pytest.mark.parametrize("pairs", [[(0, 6)], [(0, 1), (0, 2), (0, 3)],
                                   [(0, 1), (1, 2), (2, 0)]],
                         ids=["out-of-range", "degree-3-star", "3-cycle"])
def test_invalid_warm_pairs_rejected_before_distances(monkeypatch, pairs):
    """Building the path system from the pairs is the warm start's only
    check, and it runs before the d^2 matrix is computed."""
    import powertour.geometry

    def no_distances(coords):
        raise AssertionError("pairwise_sq called before the warm start was checked")

    monkeypatch.setattr(powertour.geometry, "pairwise_sq", no_distances)
    with pytest.raises(InputError):
        greedy_ham_path(random_points(17, 6, 2), warm_start=pairs)


def test_trace_edges_below_two_thirds_threshold(rng):
    for seed in range(25):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(3, 60))
        pts = random_points(seed + 900, n, k)
        _, trace = greedy_ham_path(pts)
        cap = math.sqrt(2 * k / 3)
        assert all(e.weight <= cap * (1 + 1e-9) for e in trace[:-1])
        assert trace[-1].weight <= math.sqrt(k) * (1 + 1e-9)


def test_edge_count_all_edges():
    pts = random_points(15, 9, 3)
    _, trace = greedy_ham_path(pts)
    assert greedy_edge_count_by_length(trace, 0.0) == 8


def test_edge_count_diagonal_pair():
    k = 6
    _, trace = greedy_ham_path(diagonal_pair(k))
    assert greedy_edge_count_by_length(trace, k) == 1


def test_edge_count_even_weight_code():
    _, trace = greedy_ham_path(k4_even_weight_code())
    assert greedy_edge_count_by_length(trace, 5) == 0


def test_edge_counts_below_code_size_bound(rng):
    for seed in range(10):
        k = int(rng.integers(4, 13))
        n = int(rng.integers(3, min(2 ** k, 120) + 1))
        pts = cube_vertex_subset(k, n, seed)
        _, trace = greedy_ham_path(pts)
        for j in range(1, k + 1):
            assert greedy_edge_count_by_length(trace, j) < 2 ** (k - j + 1)


def test_classify_all_short():
    k = 10
    edges = [type("E", (), {"weight": math.sqrt(k / 10)})() for _ in range(5)]
    counts = classify_edges(edges, k)
    assert counts == {"short": 5, "medium": 0, "long": 0, "very_long": 0}


def test_classify_diagonal_very_long():
    k = 6
    path, _ = greedy_ham_path(diagonal_pair(k))
    counts = classify_edges(path, k)
    assert counts["very_long"] == 1


def test_at_most_one_very_long_edge_on_cube_vertices(rng):
    for seed in range(25):
        k = int(rng.integers(3, 12))
        n = int(rng.integers(3, min(2 ** k, 100) + 1))
        pts = cube_vertex_subset(k, n, seed + 31)
        path, _ = greedy_ham_path(pts)
        assert classify_edges(path, k)["very_long"] <= 1


@pytest.mark.parametrize("pair", [(0.5, 1), (1.0, 2), ("1", 2)],
                         ids=["fraction", "integral-float", "string"])
def test_warm_start_refuses_non_integer_vertex_ids(pair):
    """A vertex id is never truncated or parsed: the pair is named."""
    with pytest.raises(InputError, match=re.escape(f"path edge {pair!r} needs integer")):
        greedy_ham_path(random_points(35, 6, 2), [pair])


def test_warm_start_takes_numpy_integer_ids():
    points = random_points(35, 6, 2)
    ids = [(np.int64(0), np.int64(1)), (np.int32(3), np.intp(4))]
    assert greedy_ham_path(points, ids) == greedy_ham_path(points, [(0, 1), (3, 4)])
