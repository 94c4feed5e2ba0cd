import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertour.greedy as greedy
import powertour.pairs as pairs
from powertour.constructions import (clustered, cube_vertex_subset, diagonal_pair,
                                     k4_even_weight_code, uniform_cube)
from powertour.errors import CertificateError, InputError
from powertour.geometry import point_set, power_cost, sq_lengths
from powertour.greedy import classify_edges, greedy_edge_count_by_length, greedy_ham_path
from powertour.mst import build_mst
from powertour.structures import EdgeList, PathSystem, validate
from powertour.two_phase import two_phase_tour

from conftest import joinable, make_edge, pair_keys, random_points, traced_peak


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
    """Reference engine: sort all pairs once by (d^2, min, max), d^2 the
    exact key ``sq_lengths``, and scan.

    Returns the vertex walk and the trace, each trace pair weighed by
    ``make_edge``; ``greedy_ham_path`` must match both exactly, weights bit
    for bit.
    """
    n = points.n
    system = PathSystem.from_pairs(n, warm_start)
    trace = []
    needed = system.component_count() - 1
    if needed > 0:
        iu, iv = np.triu_indices(n, k=1)
        flat = sq_lengths(points, iu, iv)
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
    rows = zip(trace.u.tolist(), trace.v.tolist(), map(float.hex, trace.weights.tolist()))
    assert list(rows) == [(e.u, e.v, e.weight.hex()) for e in ref_trace]
    assert path.order == ref_walk


def grid_subset(side, n, k, seed):
    gen = np.random.default_rng(seed)
    cells = gen.permutation(side ** k)[:n]
    coords = np.stack(np.unravel_index(cells, (side,) * k), axis=1) / (side - 1)
    return point_set(coords)


def tripled(points, seed):
    gen = np.random.default_rng(seed)
    return point_set(np.repeat(points.coords, 3, axis=0)[gen.permutation(3 * points.n)])


def doubled(points, seed):
    gen = np.random.default_rng(seed)
    return point_set(np.repeat(points.coords, 2, axis=0)[gen.permutation(2 * points.n)])


def eight_sites(n, seed):
    """n random vertices of {0,1}^3: eight classes of exact duplicates."""
    return point_set(np.random.default_rng(seed).integers(0, 2, size=(n, 3)).astype(float))


EQUALITY_INPUTS = [
    pytest.param(lambda: cube_vertex_subset(4, 16, 1), id="cube-k4-all"),
    pytest.param(lambda: cube_vertex_subset(6, 50, 2), id="cube-k6"),
    pytest.param(lambda: cube_vertex_subset(12, 120, 3), id="cube-k12"),
    pytest.param(lambda: cube_vertex_subset(12, 600, 4), id="cube-k12-n600"),
    pytest.param(lambda: grid_subset(9, 70, 2, 5), id="grid-2d"),
    pytest.param(lambda: grid_subset(5, 90, 3, 6), id="grid-3d"),
    pytest.param(lambda: tripled(random_points(7, 30, 2), 7), id="tripled-2d"),
    pytest.param(lambda: tripled(cube_vertex_subset(5, 20, 8), 8), id="tripled-cube"),
    pytest.param(lambda: doubled(grid_subset(4, 30, 3, 11), 11), id="doubled-grid"),
    pytest.param(lambda: point_set(np.full((40, 3), 0.25)), id="all-equal"),
    # duplicate classes far over the prefix's pair budget: many rounds
    pytest.param(lambda: point_set(np.full((300, 3), 0.5)), id="all-equal-n300"),
    pytest.param(lambda: eight_sites(300, 2), id="eight-sites-n300"),
    pytest.param(lambda: random_points(9, 150, 3), id="uniform-k3"),
    pytest.param(lambda: random_points(10, 80, 8), id="uniform-k8"),
]


def force_prefix(monkeypatch, prefix):
    """Make the sorted prefix take no pair, every joinable pair, the pairs
    under its default bound cut down by a budget of one pair per endpoint,
    or that budget with one row per strip, so the cut crosses strips."""
    if prefix == "none":
        monkeypatch.setattr(pairs, "_prefix_bound", lambda nearest: -1.0)
    elif prefix == "all":
        monkeypatch.setattr(pairs, "_prefix_bound", lambda nearest: math.inf)
        monkeypatch.setattr(pairs, "_PAIRS_PER_END", 10 ** 9)
    elif prefix in ("budget", "strip"):
        monkeypatch.setattr(pairs, "_PAIRS_PER_END", 1)
        if prefix == "strip":
            monkeypatch.setattr(pairs, "_STRIP", 1)


@pytest.mark.parametrize("make", EQUALITY_INPUTS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_heap_engine_matches_sorted_scan(make, warm):
    points = make()
    assert_matches_sorted_scan(points,
                               mixed_warm_start(points.n, points.n).edge_pairs if warm else ())


@pytest.mark.parametrize("make", EQUALITY_INPUTS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("prefix", ["none", "all", "budget", "strip"])
def test_any_prefix_matches_sorted_scan(make, warm, prefix, monkeypatch):
    """Path and trace equal the sorted scan's whatever the prefix takes
    (the test above runs the default prefix).  A prefix forced empty joins
    nothing in its round, and the greedy raises ``CertificateError``
    instead of looping."""
    force_prefix(monkeypatch, prefix)
    points = make()
    warm_start = mixed_warm_start(points.n, points.n).edge_pairs if warm else ()
    if prefix == "none":
        with pytest.raises(CertificateError, match="joined none"):
            greedy_ham_path(points, warm_start)
    else:
        assert_matches_sorted_scan(points, warm_start)


def sorted_joinable(points, far_end):
    """Every joinable pair u < v in (exact d^2, u, v) order."""
    iu, iv = np.triu_indices(points.n, k=1)
    ok = (far_end[iu] >= 0) & (far_end[iv] >= 0) & (far_end[iu] != iv)
    iu, iv = iu[ok], iv[ok]
    order = np.lexsort((iv, iu, sq_lengths(points, iu, iv)))
    return list(zip(iu[order].tolist(), iv[order].tolist()))


@pytest.mark.parametrize("make", EQUALITY_INPUTS)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_short_pairs_is_an_exact_prefix_of_the_full_sort(make, warm):
    """The prefix is the full sort's first joinable pairs by exact key,
    never empty while a pair is joinable."""
    points = make()
    n = points.n
    far_end = np.array(PathSystem.from_pairs(
        n, mixed_warm_start(n, 5).edge_pairs if warm else ()).other_end)
    got = list(zip(*pairs.short_pairs(points, far_end)))
    assert 0 < len(got) and got == sorted_joinable(points, far_end)[:len(got)]


def count_rounds(monkeypatch, run):
    """``run()``'s result and the joinable endpoints at the start of each
    round of the sorted prefix it makes in the greedy."""
    ends = []
    short_pairs = greedy.short_pairs

    def counted(points, far_end):
        ends.append(int(np.count_nonzero(far_end >= 0)))
        return short_pairs(points, far_end)

    with monkeypatch.context() as patch:
        patch.setattr(greedy, "short_pairs", counted)
        result = run()
    return result, ends


@pytest.mark.parametrize("make, rounds", [
    (lambda: uniform_cube(3, 600, 1), 4),
    (lambda: cube_vertex_subset(12, 600, 1), 3),
    (lambda: point_set(np.full((2000, 2), 0.5)), 220),
    (lambda: eight_sites(2000, 1), 28),
], ids=["uniform-k3-n600", "cube-vertex-k12-n600", "all-equal-n2000", "eight-sites-n2000"])
def test_greedy_rounds(make, rounds, monkeypatch):
    """A cold run takes a few rounds, the first from all n points.  On exact
    duplicates a round holds at most 16 pairs per endpoint, about nine
    joins on equal points, so there are many rounds; a change in the
    prefix's bound or cut changes the pinned count."""
    points = make()
    _, ends = count_rounds(monkeypatch, lambda: greedy_ham_path(points))
    assert len(ends) == rounds and ends[0] == points.n


def test_two_phase_warm_start_rounds(monkeypatch):
    """Two-phase's warm start on the clustered k = 8 tour-large input leaves
    5 paths, 10 endpoints: two rounds join them, and a budget of one pair
    per endpoint gives the same tour.  The point set's MST, whose scan
    makes a pass of its own, is built first."""
    points = clustered(8, 2000, 8, 0.05, 1)
    build_mst(points)
    (tour, _report), ends = count_rounds(monkeypatch, lambda: two_phase_tour(points, 8))
    assert ends == [10, 4]
    force_prefix(monkeypatch, "budget")
    assert two_phase_tour(points, 8)[0].order == tour.order


@pytest.mark.parametrize("make", [
    lambda: uniform_cube(3, 2000, 2),
    lambda: cube_vertex_subset(12, 2000, 3),
    lambda: point_set(np.full((2000, 2), 0.5)),
], ids=["uniform-k3", "cube-vertex-k12", "all-equal"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_prefix_allocates_no_quadratic_array(make, warm):
    """The prefix holds one Gram strip of 2^16 entries, the Gram factors
    and O(n) pairs, never an n x n array: even on equal points, where all
    n^2 / 2 pairs tie at d^2 = 0 and every entry of a strip is a hit until
    the pair budget cuts the prefix to its first pairs, its traced peak
    stays under a quarter of one n x n float matrix."""
    points = make()
    n = points.n
    far_end = np.array(PathSystem.from_pairs(
        n, mixed_warm_start(n, 5).edge_pairs if warm else ()).other_end)
    assert traced_peak(lambda: pairs.short_pairs(points, far_end)) < 2 * n * n


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
    assert trace.weights.tolist() == pytest.approx([1.0] * 3)


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
        for key, w in zip(pair_keys(trace), trace.weights.tolist()):
            best = minimum_join_edge(pts, system)
            assert best is not None
            d, u, v = best
            assert (u, v) == key
            assert d == pytest.approx(w, rel=1e-12)
            system.add_path_edge(u, v)
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
        for key in pair_keys(trace):
            best = minimum_join_edge(pts, system)
            assert best is not None and (best[1], best[2]) == key
            system.add_path_edge(*key)


def test_warm_start_respected(rng):
    pts = random_points(13, 12, 2)
    warm = PathSystem(12)
    warm.add_path_edge(0, 5)
    warm.add_path_edge(5, 7)
    warm.add_path_edge(2, 3)
    path, trace = greedy_ham_path(pts, warm_start=warm.edge_pairs)
    assert validate(path, pts) == []
    assert len(trace) == 12 - 1 - 3
    path_keys = set(pair_keys(path))
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
    check, and it runs before any pair is scanned."""
    def no_distances(points):
        raise AssertionError("pairs scanned before the warm start was checked")

    monkeypatch.setattr("powertour.pairs.Gram", no_distances)
    with pytest.raises(InputError):
        greedy_ham_path(random_points(17, 6, 2), warm_start=pairs)


def test_trace_edges_below_two_thirds_threshold(rng):
    for seed in range(25):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(3, 60))
        pts = random_points(seed + 900, n, k)
        _, trace = greedy_ham_path(pts)
        cap = math.sqrt(2 * k / 3)
        assert np.all(trace.weights[:-1] <= cap * (1 + 1e-9))
        assert trace.weights[-1] <= math.sqrt(k) * (1 + 1e-9)


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


def count_by_length_per_edge(edges, j):
    """The per-``Edge`` count the weights-array path must reproduce."""
    return sum(1 for e in edges if e.weight * e.weight >= j - 1e-9)


def classify_per_edge(edges, k):
    """The per-``Edge`` if-chain the weights-array path must reproduce."""
    t1, t2, t3 = (c * k for c in (1.0 / 5.0, 3.0 / 5.0, 2.0 / 3.0))
    counts = {"short": 0, "medium": 0, "long": 0, "very_long": 0}
    for e in edges:
        sq = e.weight * e.weight
        if sq <= t1 + 1e-9:
            counts["short"] += 1
        elif sq <= t2 + 1e-9:
            counts["medium"] += 1
        elif sq <= t3 + 1e-9:
            counts["long"] += 1
        else:
            counts["very_long"] += 1
    return counts


def test_counts_from_weights_equal_the_per_edge_counts():
    """Counting from a trace's or path's ``weights`` gives the per-``Edge``
    counts on cube-vertex traces, whose squared lengths are integers, so
    many weights sit exactly at a threshold (j, or k/5 at k = 5 and 10)."""
    at_threshold = 0
    for k in range(4, 13):
        path, trace = greedy_ham_path(cube_vertex_subset(k, min(2 ** k, 150), k))
        for j in range(0, k + 2):
            want = count_by_length_per_edge(trace.edges, j)
            assert greedy_edge_count_by_length(trace, j) == want
            at_threshold += sum(abs(e.weight ** 2 - j) < 1e-9 for e in trace.edges)
        for edges in (trace, path):
            want = classify_per_edge(edges.edges, k)
            assert classify_edges(edges, k) == want
    assert at_threshold > 0
    assert classify_edges(EdgeList(), 5) == classify_per_edge([], 5)
    assert greedy_edge_count_by_length(EdgeList(), 0.0) == 0


def test_classify_all_short():
    k = 10
    edges = EdgeList(u=range(5), v=range(1, 6), weights=[math.sqrt(k / 10)] * 5)
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
