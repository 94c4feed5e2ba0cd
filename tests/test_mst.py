import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour import mst
from powertour.constructions import clustered, cube_vertex_subset, uniform_cube
from powertour.geometry import pairwise_sq, point_set, symmetric_sq
from powertour.mst import build_mst, build_threshold_forest, mst_ball_packing_check
from powertour.structures import DSU, SpanningTree, tree_from_pairs, validate

from conftest import arrays_of, make_edge, pair_keys, random_points


def brute_force_min_tree_weight(points):
    """Minimum spanning-tree weight by enumerating all edge subsets of
    size n-1 that form a spanning tree."""
    n = points.n
    coords = points.coords
    pairs = list(itertools.combinations(range(n), 2))
    best = math.inf
    for subset in itertools.combinations(pairs, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            w = sum(float(np.linalg.norm(coords[u] - coords[v])) for u, v in subset)
            best = min(best, w)
    return best


def test_mst_square_corners_weight_three(square_corners):
    tree = build_mst(square_corners)
    assert tree.total_weight() == pytest.approx(3.0)
    assert tree.total_weight() == pytest.approx(brute_force_min_tree_weight(square_corners))


def test_mst_square_corners_tie_break(square_corners):
    tree = build_mst(square_corners)
    assert sorted(pair_keys(tree)) == [(0, 1), (0, 3), (1, 2)]


def test_mst_matches_brute_force_random():
    for seed in range(8):
        pts = random_points(seed, 6, 3)
        tree = build_mst(pts)
        assert validate(tree, pts) == []
        assert tree.total_weight() == pytest.approx(brute_force_min_tree_weight(pts))


def test_mst_below_random_spanning_trees():
    from powertour.suites import random_tree_pairs

    for seed in range(5):
        pts = random_points(seed + 50, 8, 3)
        best = build_mst(pts).total_weight()
        gen = np.random.default_rng(seed)
        for _ in range(60):
            pairs = random_tree_pairs(8, gen)
            w = sum(float(np.linalg.norm(pts.coords[u] - pts.coords[v]))
                    for u, v in pairs)
            assert best <= w + 1e-12


def test_mst_two_points():
    pts = point_set([[0.1, 0.1], [0.9, 0.2]])
    tree = build_mst(pts)
    assert len(tree.edges) == 1


def test_mst_collinear_points():
    pts = point_set([[0.0], [0.5], [1.0]])
    tree = build_mst(pts)
    assert sorted(pair_keys(tree)) == [(0, 1), (1, 2)]
    assert tree.total_weight() == pytest.approx(1.0)


def test_mst_single_point():
    tree = build_mst(point_set([[0.3, 0.3]]))
    assert tree.n == 1 and tree.edges == ()


def sorted_pairs(points, cutoff=math.inf):
    """Every pair u < v of length <= cutoff with its squared length, in
    (d^2, u, v) order, from one sort of all n(n-1)/2 pairs."""
    iu, iv = np.triu_indices(points.n, k=1)
    d2 = pairwise_sq(points.coords)[iu, iv]
    order = np.lexsort((iv, iu, d2))
    iu, iv, d2 = iu[order], iv[order], d2[order]
    keep = d2 <= cutoff * cutoff
    return zip(iu[keep].tolist(), iv[keep].tolist(), d2[keep].tolist())


def full_scan_mst(points):
    """Reference MST: Kruskal over the full sort of every pair, each
    accepted pair weighed by ``make_edge``."""
    n = points.n
    dsu = DSU(n)
    edges = []
    for u, v, _dd in sorted_pairs(points):
        if len(edges) == n - 1:
            break
        if dsu.union(u, v):
            edges.append(make_edge(points, u, v))
    return SpanningTree(tuple(range(n)), **arrays_of(edges))


def full_scan_forest(points, cutoff):
    """Reference forest: Kruskal over every pair of weight <= cutoff, with
    no early stop; each final component lists its edges in scan order,
    each weighed by ``make_edge``."""
    n = points.n
    dsu = DSU(n)
    edges = [make_edge(points, u, v) for u, v, _dd in sorted_pairs(points, cutoff)
             if dsu.union(u, v)]
    groups = {}
    for v in range(n):
        groups.setdefault(dsu.find(v), []).append(v)
    trees = [SpanningTree(tuple(sorted(members)),
                          **arrays_of(e for e in edges if dsu.find(e.u) == root))
             for root, members in groups.items()]
    trees.sort(key=lambda t: t.vertices[0])
    return trees


def tree_key(tree):
    """Vertices, edge order and exact weights of a tree."""
    return tree.vertices, [(e.u, e.v, e.weight.hex()) for e in tree.edges]


def repeated(points, copies, seed):
    gen = np.random.default_rng(seed)
    coords = np.repeat(points.coords, copies, axis=0)
    return point_set(coords[gen.permutation(len(coords))])


def grid(k, m, copies, seed):
    """The (m x ... x m) lattice of the unit cube, each point ``copies``
    times, shuffled."""
    axis = np.linspace(0.0, 1.0, m)
    return repeated(point_set(list(itertools.product(axis, repeat=k))), copies, seed)


def watch_sorts(monkeypatch, calls=None):
    """Replace ``np.lexsort`` with a wrapper that fails on an empty sort (a
    filter round that takes no pair would repeat forever) and appends each
    call's (min index, max index, d^2) keys to ``calls`` when given."""
    lexsort = np.lexsort

    def watched(keys):
        v, u, d2 = keys
        assert len(d2), "a round took no pair"
        if calls is not None:
            calls.append((u.tolist(), v.tolist(), d2.tolist()))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", watched)


def use_many_rounds(monkeypatch):
    """One pair per point: many rounds, and ties at the pivot on lattices
    and cube vertices."""
    monkeypatch.setattr(mst, "_ROUND_PER_POINT", 1)


#: The scan's paths: Filter-Kruskal with its rounds as shipped ("default")
#: or with ``use_many_rounds`` ("many"), and Prim.
ENGINES = ("default", "many", "prim")


def use_engine(monkeypatch, engine):
    """Run ``engine`` at every n, by patching ``mst._PRIM_ABOVE``, the size
    above which the shipped scan runs Prim."""
    monkeypatch.setattr(mst, "_PRIM_ABOVE", 0 if engine == "prim" else math.inf)
    if engine == "many":
        use_many_rounds(monkeypatch)


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Each of ``ENGINES``, with ``watch_sorts``."""
    use_engine(monkeypatch, request.param)
    watch_sorts(monkeypatch)
    return request.param


TIED_INPUTS = {
    "cube-vertex-k4": lambda: cube_vertex_subset(4, 16, 40),
    "cube-vertex-k6": lambda: cube_vertex_subset(6, 50, 41),
    "cube-vertex-k12": lambda: cube_vertex_subset(12, 300, 42),
    "grid-2d-duplicates": lambda: grid(2, 7, 2, 43),
    "grid-3d-duplicates": lambda: grid(3, 4, 2, 44),
    "tripled": lambda: repeated(random_points(45, 40, 3), 3, 45),
    "clustered": lambda: clustered(4, 200, 5, 0.05, 46),
}

#: The tour-large benchmark inputs (n = 2000), by generator and seed.
TOUR_LARGE = {
    f"{name}-seed{seed}": functools.partial(make, seed=seed)
    for seed in (1, 5)
    for name, make in (
        ("uniform-k3", lambda seed: uniform_cube(3, 2000, seed)),
        ("clustered-k8", lambda seed: clustered(8, 2000, 8, 0.05, seed)),
        ("cube-vertex-k12", lambda seed: cube_vertex_subset(12, 2000, seed)),
    )
}


@functools.lru_cache(maxsize=None)
def tour_large_reference(name):
    """Input, reference MST and reference forest at the two-phase default
    cutoff k^(-1/4), computed once per input."""
    points = TOUR_LARGE[name]()
    cutoff = points.k ** -0.25
    return points, cutoff, full_scan_mst(points), full_scan_forest(points, cutoff)


@pytest.mark.parametrize("name", TIED_INPUTS)
def test_mst_matches_full_sort_on_tied_inputs(name, engine):
    points = TIED_INPUTS[name]()
    assert tree_key(build_mst(points)) == tree_key(full_scan_mst(points))


@pytest.mark.parametrize("name", TOUR_LARGE)
def test_mst_and_forest_match_full_sort_on_tour_large_inputs(name, engine):
    points, cutoff, ref_mst, ref_forest = tour_large_reference(name)
    assert tree_key(build_mst(points)) == tree_key(ref_mst)
    assert [tree_key(t) for t in build_threshold_forest(points, cutoff)] == \
        [tree_key(t) for t in ref_forest]


def test_scan_runs_prim_above_the_size_constant(monkeypatch):
    """The path depends on n alone: Filter-Kruskal up to ``_PRIM_ABOVE``
    points, Prim above."""
    calls = []
    prim = mst._prim

    def watched(d2, cut2):
        calls.append(len(d2))
        return prim(d2, cut2)

    monkeypatch.setattr(mst, "_prim", watched)
    for n in (mst._PRIM_ABOVE, mst._PRIM_ABOVE + 1):
        build_mst(uniform_cube(3, n, 7))
        build_threshold_forest(uniform_cube(3, n, 7), 0.1)
    assert calls == [mst._PRIM_ABOVE + 1] * 2


lattices_with_repeats = st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(
    lambda km: st.tuples(
        st.lists(st.tuples(*[st.integers(0, km[1])] * km[0]), min_size=1, max_size=40)
        .map(lambda cells: point_set(np.array(cells, dtype=float) / km[1])),
        st.integers(0, km[0] * km[1] ** 2).map(lambda j: math.sqrt(j) / km[1]),
        st.sampled_from(ENGINES)))


@settings(max_examples=80, deadline=None)
@given(lattices_with_repeats)
def test_mst_and_forest_match_full_sort_on_lattice_property(case):
    """Lattice points with repeats tie everywhere; the cutoff lands on a
    lattice distance."""
    points, cutoff, engine = case
    want_mst = tree_key(full_scan_mst(points))
    want_forest = [tree_key(t) for t in full_scan_forest(points, cutoff)]
    with pytest.MonkeyPatch.context() as mp:
        use_engine(mp, engine)
        watch_sorts(mp)
        assert tree_key(build_mst(points)) == want_mst
        assert [tree_key(t) for t in build_threshold_forest(points, cutoff)] == want_forest


@pytest.mark.parametrize("name", [*TIED_INPUTS, "clustered-k8-seed1"])
@pytest.mark.parametrize("cut", [math.inf, 1.0])
def test_each_round_sorts_only_joinable_pairs_heavier_than_the_last(monkeypatch, name, cut):
    """One pair per point and no floor.  Every pair a round sorts is
    heavier than all pairs of earlier rounds (ties are never split) and
    joins two components that earlier rounds left apart (the filter used
    the roots after the last scan)."""
    points = TIED_INPUTS[name]() if name in TIED_INPUTS else TOUR_LARGE[name]()
    use_engine(monkeypatch, "many")
    calls = []
    watch_sorts(monkeypatch, calls)
    accepted, seen = [], []
    kruskal = mst._kruskal(symmetric_sq(points.coords), DSU(points.n), cut * cut)
    while True:
        before = len(calls)
        pair = next(kruskal, None)
        # a round's sort happens before its first accepted pair
        seen.extend([len(accepted)] * (len(calls) - before))
        if pair is None:
            break
        accepted.append(pair)
    monkeypatch.undo()
    assert calls, "nothing was sorted"
    dsu = DSU(points.n)
    done, heaviest = 0, -math.inf
    for (us, vs, d2s), joined in zip(calls, seen):
        for u, v, _ in accepted[done:joined]:
            dsu.union(u, v)
        done = joined
        assert min(d2s) > heaviest
        heaviest = max(d2s)
        assert all(dsu.find(u) != dsu.find(v) for u, v in zip(us, vs))


@pytest.mark.parametrize("name, cutoff", [("clustered-k8-seed1", 8 ** -0.25),
                                          ("cube-vertex-k12-seed1", 1.0)],
                         ids=["clustered-k8", "cube-vertex-k12"])
def test_forest_makes_each_union_once(monkeypatch, engine, name, cutoff):
    """The Filter-Kruskal forest reads its components from the scan's own
    DSU: one successful union per forest edge, none replayed.  Prim labels
    its trees as it grows them and makes no union at all."""
    points = TOUR_LARGE[name]()
    union = DSU.union
    results = []

    def counted(self, a, b):
        results.append(union(self, a, b))
        return results[-1]

    monkeypatch.setattr(DSU, "union", counted)
    edges = sum(len(t.edges) for t in build_threshold_forest(points, cutoff))
    assert edges > 0
    assert results.count(True) == (0 if engine == "prim" else edges)


def sorted_pair_count(monkeypatch, build):
    calls = []
    watch_sorts(monkeypatch, calls)
    build()
    monkeypatch.undo()
    return sum(len(u) for u, _v, _d2 in calls)


@pytest.mark.parametrize("name", ["uniform-k3-seed1", "clustered-k8-seed1"])
def test_mst_sorts_under_a_tenth_of_the_pairs(monkeypatch, name):
    """A fall-back to one full sort of all pairs fails here."""
    points = TOUR_LARGE[name]()
    use_engine(monkeypatch, "default")
    pairs = points.n * (points.n - 1) // 2
    assert sorted_pair_count(monkeypatch, lambda: build_mst(points)) < 0.1 * pairs


def test_forest_on_cube_vertices_below_unit_distance_sorts_nothing(monkeypatch):
    """Cube vertices lie at distance >= 1; the two-phase cutoff 12^(-1/4) < 1
    drops every pair before the first round."""
    points = TOUR_LARGE["cube-vertex-k12-seed1"]()
    use_engine(monkeypatch, "default")
    trees = []
    assert sorted_pair_count(
        monkeypatch, lambda: trees.extend(build_threshold_forest(points, 12 ** -0.25))) == 0
    assert len(trees) == points.n


def test_forest_with_no_pair_within_the_cutoff_runs_no_scan(monkeypatch):
    """Cube vertices lie at distance >= 1, above two-phase's cutoff
    12^(-1/4): one pass over d^2 finds that, and the n singletons come back
    with no Prim step and no sort."""
    points = cube_vertex_subset(12, 1200, 5)
    assert points.n > mst._PRIM_ABOVE
    calls = []
    monkeypatch.setattr(mst, "_prim", lambda *args: calls.append(args))
    watch_sorts(monkeypatch, calls)
    trees = build_threshold_forest(points, 12 ** -0.25)
    assert calls == []
    assert [(t.vertices, t.edges) for t in trees] == [((v,), ()) for v in range(points.n)]


forest_inputs = pytest.mark.parametrize("make", [
    lambda: random_points(30, 60, 3),
    lambda: repeated(random_points(31, 40, 2), 2, 31),
    lambda: repeated(cube_vertex_subset(5, 20, 32), 2, 32),
    lambda: clustered(4, 120, 5, 0.05, 33),
    lambda: cube_vertex_subset(8, 90, 34),
], ids=["uniform", "duplicated", "duplicated-cube", "clustered", "cube-vertex"])
forest_cutoffs = pytest.mark.parametrize("cutoff", [0.0, 0.1, 0.5, 1.0, "diameter"])


def assert_forest_matches_full_scan(points, cutoff):
    if cutoff == "diameter":
        cutoff = math.sqrt(points.k)
    trees = build_threshold_forest(points, cutoff)
    assert trees == full_scan_forest(points, cutoff)
    # the cut is on the scan's key, d^2, not on the measured weight
    kept = sorted(key for key in pair_keys(build_mst(points))
                  if points.sq[key] <= cutoff * cutoff)
    assert sorted(key for t in trees for key in pair_keys(t)) == kept


@forest_inputs
@forest_cutoffs
def test_threshold_forest_matches_full_scan(make, cutoff):
    """Early stop and one-pass regrouping keep the trees, their order and
    each tree's edge order; the forest is the MST restricted to the cutoff.
    Both paths, Filter-Kruskal and Prim."""
    points = make()
    for engine in ("default", "prim"):
        with pytest.MonkeyPatch.context() as mp:
            use_engine(mp, engine)
            assert_forest_matches_full_scan(points, cutoff)


@forest_inputs
@forest_cutoffs
def test_threshold_forest_matches_full_scan_in_many_rounds(monkeypatch, make, cutoff):
    use_engine(monkeypatch, "many")
    watch_sorts(monkeypatch)
    assert_forest_matches_full_scan(make(), cutoff)


def test_threshold_forest_zero_cutoff(rng):
    pts = random_points(4, 12, 3)
    trees = build_threshold_forest(pts, 0.0)
    assert len(trees) == 12
    assert all(t.n == 1 for t in trees)


def test_threshold_forest_full_cutoff_equals_mst():
    """At a cutoff of at least the diameter the forest is the MST itself,
    edge order included: both list their edges in the scan's order.  Both
    paths, Filter-Kruskal and Prim."""
    inputs = [random_points(5, 20, 4)] + [uniform_cube(3, 200, seed) for seed in range(5)]
    for engine in ("default", "prim"):
        with pytest.MonkeyPatch.context() as mp:
            use_engine(mp, engine)
            for pts in inputs:
                assert build_threshold_forest(pts, math.sqrt(pts.k)) == [build_mst(pts)]


def test_threshold_forest_two_clusters():
    rng = np.random.default_rng(9)
    a = 0.05 + rng.uniform(0, 0.1, size=(6, 2))
    b = np.array([0.9, 0.9]) + rng.uniform(-0.05, 0.05, size=(5, 2))
    pts = point_set(np.vstack([a, b]))
    trees = build_threshold_forest(pts, 0.5)
    assert len(trees) == 2
    assert sorted(len(t.vertices) for t in trees) == [5, 6]


def test_threshold_forest_is_mst_restriction(rng):
    for seed in range(6):
        pts = random_points(seed + 100, 25, 3)
        mst = build_mst(pts)
        cutoff = float(np.median(mst.weights))
        trees = build_threshold_forest(pts, cutoff)
        forest_keys = sorted(key for t in trees for key in pair_keys(t))
        kept = sorted(key for key, w in zip(pair_keys(mst), mst.weights.tolist())
                      if w <= cutoff)
        assert forest_keys == kept
        # every inter-component distance exceeds the cutoff
        comp = {}
        for i, t in enumerate(trees):
            for v in t.vertices:
                comp[v] = i
        for u in range(pts.n):
            for v in range(u + 1, pts.n):
                if comp[u] != comp[v]:
                    assert np.linalg.norm(pts.coords[u] - pts.coords[v]) > cutoff


def test_ball_packing_clean_on_msts(rng):
    for seed in range(30):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(3, 40))
        pts = random_points(seed + 200, n, k)
        tree = build_mst(pts)
        assert mst_ball_packing_check(tree, pts) == []


def test_ball_packing_flags_bad_tree():
    # star at the far end: midballs of the two edges overlap
    pts = point_set([[0.0, 0.0], [0.9, 0.0], [1.0, 0.0]])
    bad = tree_from_pairs(pts, [(0, 1), (0, 2)])
    assert mst_ball_packing_check(bad, pts) != []
    good = build_mst(pts)
    assert mst_ball_packing_check(good, pts) == []


def test_ball_packing_single_edge():
    pts = point_set([[0.0, 0.0], [1.0, 1.0]])
    assert mst_ball_packing_check(build_mst(pts), pts) == []


def test_ball_packing_tolerates_duplicate_points():
    # the zero-length edge's open ball is empty, hence disjoint from all
    pts = point_set([[0.2, 0.2], [0.2, 0.2], [0.8, 0.2]])
    tree = build_mst(pts)
    assert any(e.weight == 0.0 for e in tree.edges)
    assert mst_ball_packing_check(tree, pts) == []
