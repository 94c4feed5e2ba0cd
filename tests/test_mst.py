import functools
import gc
import inspect
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour import mst, pairs
from powertour.constructions import clustered, cube_vertex_subset, k3_code4, uniform_cube
from powertour.geometry import edge_lengths, point_set, power_cost, sq_lengths
from powertour.greedy import greedy_ham_path
from powertour.mst import build_mst, build_threshold_forest, mst_ball_packing_check
from powertour.oracle import exact_min_tour
from powertour.sekanina import mst_sekanina_cycle
from powertour.structures import DSU, SpanningTree, close_path, tree_from_pairs, validate
from powertour.two_phase import two_phase_tour

from conftest import arrays_of, make_edge, pair_keys, plain_sq, random_points, traced_peak


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


def test_mst_is_built_once_per_point_set_and_read_only():
    pts = random_points(7, 30, 3)
    tree = build_mst(pts)
    assert build_mst(pts) is tree
    for a in (tree.u, tree.v, tree.weights):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        tree.weights[0] = 0.0
    # a copy is the caller's to edit
    mine = SpanningTree(tree.vertices, u=tree.u.copy(), v=tree.v.copy(),
                        weights=tree.weights.copy())
    mine.weights[0] = 0.0
    assert build_mst(pts).weights[0] > 0.0


def test_kept_mst_is_released_with_its_point_set():
    pts = random_points(8, 30, 3)
    tree = weakref.ref(build_mst(pts))
    points = weakref.ref(pts)
    del pts
    gc.collect()
    assert points() is None
    assert tree() is None


def test_only_the_forest_takes_a_cutoff():
    """The scan builds the whole tree; the cut is the forest's."""
    takes_cut = {name for name, fn in inspect.getmembers(mst, inspect.isfunction)
                 if fn.__module__ == mst.__name__
                 and any("cut" in p for p in inspect.signature(fn).parameters)}
    assert takes_cut == {"build_threshold_forest"}
    assert list(inspect.signature(mst._prim).parameters) == ["points"]


LOWER_BOUND_INPUTS = [
    *[(f"uniform-k2-{s}", lambda s=s: uniform_cube(2, 3 + s % 8, s)) for s in range(30)],
    *[(f"uniform-k3-{s}", lambda s=s: uniform_cube(3, 3 + s % 8, s)) for s in range(30)],
    *[(f"cube-vertex-k4-{s}", lambda s=s: cube_vertex_subset(4, 3 + s % 8, s)) for s in range(30)],
    ("k3-code4", k3_code4),
]


def test_mst_cost_bounds_every_tour_from_below():
    """Dropping a tour edge leaves a spanning tree, and the MST minimises
    every sum of an increasing function of the weights, so S_k(MST) is at
    most S_k of the exact optimum tour and of every construction's tour
    (k the dimension, n <= 10).  The largest S_k(MST) / S_k(OPT) here is
    0.9, on 10 cube vertices: 9 unit edges against 10."""
    for name, make in LOWER_BOUND_INPUTS:
        pts = make()
        k = pts.k
        lower = power_cost(build_mst(pts), k).log_unscaled
        tours = {
            "optimum": exact_min_tour(pts, k)[1].log_unscaled,
            "mst-sekanina": power_cost(mst_sekanina_cycle(pts), k).log_unscaled,
            "two-phase": two_phase_tour(pts, k)[1].tour_cost.log_unscaled,
            "greedy": power_cost(close_path(greedy_ham_path(pts)[0], pts), k).log_unscaled,
        }
        assert all(lower <= cost for cost in tours.values()), (name, lower, tours)


def kruskal_over_lengths(points):
    """Total weight of a Kruskal scan over every pair sorted by its
    ``edge_lengths`` weight: the MST weight, with no d^2 key involved."""
    iu, iv = np.triu_indices(points.n, k=1)
    w = edge_lengths(points, iu, iv)
    order = np.lexsort((iv, iu, w))
    dsu = DSU(points.n)
    return sum(x for a, b, x in zip(iu[order].tolist(), iv[order].tolist(), w[order].tolist())
               if dsu.union(a, b))


def test_forest_at_cutoff_zero_joins_every_duplicate():
    """Each of 40 points given twice: 40 trees at cutoff 0, as every
    duplicate pair's exact key is 0 (its Gram value |x|^2 + |y|^2 - 2 x.y
    need not be)."""
    coords = uniform_cube(6, 40, 3).coords
    assert len(build_threshold_forest(point_set(np.vstack([coords, coords])), 0.0)) == 40


@pytest.mark.parametrize("seed", range(5))
def test_mst_is_minimal_on_a_tight_cluster(seed):
    """30 points within 1e-12 of 0.5 in k = 4: Gram values are noise there
    (a tree picked on them was 2.2 to 2.6 times heavier than the MST), but
    only exact keys are compared."""
    gen = np.random.default_rng(seed)
    pts = point_set(0.5 + 1e-12 * gen.uniform(-1.0, 1.0, size=(30, 4)))
    assert build_mst(pts).total_weight() <= kruskal_over_lengths(pts) * (1 + 1e-9)


def tight_clusters(case, seed):
    """One of four tight-cluster families, by ``case``: extent 1e-7 at
    k = 3, 1e-9 at k = 8, 1e-12 at k = 4, and two clusters of extent 1e-9
    at opposite corners of [0.2, 0.8]^k."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 40))
    k, extent = ((3, 1e-7), (8, 1e-9), (4, 1e-12), (int(gen.integers(2, 9)), 1e-9))[case]
    if case == 3:
        centre = np.where(np.arange(n)[:, None] < n // 2, 0.2, 0.8)
    else:
        centre = gen.uniform(0.1, 0.9, size=k)
    return point_set(centre + extent * gen.uniform(-1.0, 1.0, size=(n, k)))


def test_mst_weight_equals_kruskal_over_lengths_on_tight_clusters():
    """On 100 tight clusters the tree's weights are those of a Kruskal scan
    over ``edge_lengths``, as a multiset and bit for bit: the exact keys
    order pairs as their lengths do."""
    for seed in range(100):
        pts = tight_clusters(seed % 4, seed)
        iu, iv = np.triu_indices(pts.n, k=1)
        w = edge_lengths(pts, iu, iv)
        dsu = DSU(pts.n)
        want = sorted(x for a, b, x in zip(*(arr[np.lexsort((iv, iu, w))].tolist()
                                              for arr in (iu, iv, w)))
                      if dsu.union(a, b))
        assert sorted(build_mst(pts).weights.tolist()) == want, seed


def sorted_pairs(points, cutoff=math.inf):
    """Every pair u < v of length <= cutoff with its exact key
    ``sq_lengths``, in (d^2, u, v) order, from one sort of all n(n-1)/2
    pairs."""
    iu, iv = np.triu_indices(points.n, k=1)
    d2 = sq_lengths(points, iu, iv)
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


def watch_sorts(monkeypatch, calls):
    """Replace ``np.lexsort`` with a wrapper that appends to ``calls`` the
    number of pairs each call sorts."""
    lexsort = np.lexsort

    def watched(keys):
        calls.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", watched)


#: The sorted prefix's settings: as shipped ("default"); cut short by a
#: budget of one pair per row, so the budget cut runs on every input that
#: holds more and Prim joins the many components left ("prim"); with no
#: pair in it, so every component is one vertex and Prim takes n - 1 steps
#: ("prim-no-prefix"); and with every pair in it, so Kruskal builds the
#: whole tree and Prim is not set up ("prim-all-prefix").
ENGINES = ("default", "prim", "prim-no-prefix", "prim-all-prefix")


def watch_scans(monkeypatch) -> list[str]:
    """Wrap ``mst._prim``; the returned list gets its name each time the
    scan starts."""
    ran = []
    prim = mst._prim

    def watched(points):
        ran.append("_prim")
        return prim(points)

    monkeypatch.setattr(mst, "_prim", watched)
    return ran


def use_engine(monkeypatch, engine) -> list[str]:
    """Run the scan with ``engine``'s prefix, by patching the prefix's
    bound and budget, and return ``watch_scans``' list.  Each point set
    keeps its first MST, so a test that compares engines builds a fresh
    point set for each."""
    if engine == "prim":
        monkeypatch.setattr(pairs, "_PAIRS_PER_END", 1)
    elif engine == "prim-no-prefix":
        monkeypatch.setattr(pairs, "_prefix_bound", lambda nearest: -1.0)
    elif engine == "prim-all-prefix":
        monkeypatch.setattr(pairs, "_prefix_bound", lambda nearest: math.inf)
        monkeypatch.setattr(pairs, "_PAIRS_PER_END", 10 ** 9)
    return watch_scans(monkeypatch)


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Each of ``ENGINES``: the engine's name and the list of scans run."""
    return request.param, use_engine(monkeypatch, request.param)


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
    assert engine[1] == ["_prim"]


#: Tie-heavy families at every n from 1 to 120, seeded by n.
SMALL_FAMILIES = {
    "all-equal": lambda n: point_set(np.full((n, 3), 0.25)),
    "cube-vertex-k7": lambda n: cube_vertex_subset(7, n, n),
    "lattice-3-level": lambda n: point_set(
        np.random.default_rng(n).integers(0, 3, size=(n, 3)) / 2.0),
    "tripled": lambda n: point_set(
        repeated(random_points(n, (n + 2) // 3, 3), 3, n).coords[:n]),
    "tight-clusters": lambda n: point_set(
        np.random.default_rng(n).integers(1, 4, size=(n, 1)) * 0.2
        + 1e-7 * np.random.default_rng(n + 1).uniform(-1.0, 1.0, size=(n, 3))),
}


@functools.lru_cache(maxsize=None)
def small_family_reference(name):
    """Coordinates and reference tree of each n from 1 to 120."""
    return [(points.coords, tree_key(full_scan_mst(points)))
            for points in map(SMALL_FAMILIES[name], range(1, 121))]


@pytest.mark.parametrize("name", SMALL_FAMILIES)
def test_mst_matches_full_sort_at_every_small_n(name, engine):
    """Every n up to 120, where the prefix often spans, on equal points,
    cube vertices, lattices, repeats and clusters of extent 1e-7."""
    for coords, want in small_family_reference(name):
        assert tree_key(build_mst(point_set(coords))) == want
    assert engine[1] == ["_prim"] * 120


@pytest.mark.parametrize("name", TOUR_LARGE)
def test_mst_and_forest_match_full_sort_on_tour_large_inputs(name, engine):
    """The reference's point set is shared across engines, so each engine
    gets a fresh copy and scans it once, for the MST and the forest
    together (the cube-vertex forest is all singletons)."""
    shared, cutoff, ref_mst, ref_forest = tour_large_reference(name)
    points = point_set(shared.coords)
    assert tree_key(build_mst(points)) == tree_key(ref_mst)
    assert [tree_key(t) for t in build_threshold_forest(points, cutoff)] == \
        [tree_key(t) for t in ref_forest]
    assert engine[1] == ["_prim"]


def spy_keys(monkeypatch) -> list:
    """Record every (points, u, v, key) the scans take from ``sq_lengths``."""
    calls = []

    def recorded(points, u, v):
        out = sq_lengths(points, u, v)
        calls.append((points, *np.broadcast_arrays(u, v, out)))
        return out

    monkeypatch.setattr(pairs, "sq_lengths", recorded)
    monkeypatch.setattr(mst, "sq_lengths", recorded)
    return calls


@pytest.mark.parametrize("name", ["cube-vertex-k4", "grid-2d-duplicates", "grid-3d-duplicates",
                                  "tripled", "clustered"])
def test_every_compared_key_is_the_difference_form(monkeypatch, name):
    """Every key the prefix, Prim, the forest's check and cut, and the
    greedy's cold and warm rounds compare has the plain reference's bits."""
    calls = spy_keys(monkeypatch)
    points = TIED_INPUTS[name]()
    build_mst(points)
    build_threshold_forest(points, 0.3)
    build_threshold_forest(point_set(points.coords), 0.3)
    greedy_ham_path(points)
    greedy_ham_path(points, [(0, 1), (2, 3)])
    assert calls
    coords = points.coords.tolist()
    for pts, u, v, out in calls:
        assert pts.coords.tolist() == coords
        want = [plain_sq(coords[a], coords[b])
                for a, b in zip(u.ravel().tolist(), v.ravel().tolist())]
        assert np.array_equal(out.ravel().view(np.uint64), np.array(want).view(np.uint64))


def test_a_zero_margin_breaks_a_tie_heavy_input(monkeypatch):
    """The margin is load-bearing: on a 7 x 7 grid, each point twice, the
    Gram values of tied pairs differ in their last bits, and with no margin
    the filter drops tied pairs and the tree leaves the full sort's."""
    make = TIED_INPUTS["grid-2d-duplicates"]
    want = tree_key(full_scan_mst(make()))
    assert tree_key(build_mst(make())) == want
    monkeypatch.setattr(pairs, "_U", 0.0)
    assert tree_key(build_mst(make())) != want


def test_build_mst_runs_one_scan_at_every_n(monkeypatch):
    """There is one scan, ``_prim``, at every n, and each point set runs it
    once."""
    sizes = []
    prim = mst._prim

    def watched(points):
        sizes.append(points.n)
        return prim(points)

    monkeypatch.setattr(mst, "_prim", watched)
    ns = (1, 2, 3, 80, 81, 200)
    for n in ns:
        points = uniform_cube(3, n, 7)
        build_mst(points)
        build_threshold_forest(points, 1.0)
    assert sizes == list(ns)


@pytest.mark.parametrize("make", [
    lambda: point_set(np.full((2000, 2), 0.5)),
    k3_code4,
    lambda: point_set(list(itertools.product([0.0, 1.0], repeat=3))),
    lambda: uniform_cube(3, 20, 2),
], ids=["all-equal-n2000", "k3-code4", "cube-k3", "uniform-k3-n20"])
def test_spanning_prefix_is_the_tree(monkeypatch, make):
    """When Kruskal over the sorted prefix makes n - 1 unions, its pairs,
    already in (d^2, u, v) order, are the tree: Prim is not set up and
    ``_lower`` never runs."""
    points = make()
    union, unions = DSU.union, []

    def counted(self, a, b):
        unions.append(union(self, a, b))
        return unions[-1]

    def unreachable(*args):
        raise AssertionError("_lower called though the prefix spans")

    monkeypatch.setattr(mst, "_lower", unreachable)
    monkeypatch.setattr(DSU, "union", counted)
    tree = build_mst(points)
    monkeypatch.undo()
    assert unions.count(True) == points.n - 1
    assert tree_key(tree) == tree_key(full_scan_mst(points))


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
        ran = use_engine(mp, engine)
        assert tree_key(build_mst(points)) == want_mst
        assert [tree_key(t) for t in build_threshold_forest(points, cutoff)] == want_forest
    assert ran == ["_prim"]


@pytest.mark.parametrize("name, cutoff", [("clustered-k8-seed1", 8 ** -0.25),
                                          ("cube-vertex-k12-seed1", 1.0)],
                         ids=["clustered-k8", "cube-vertex-k12"])
def test_forest_makes_each_union_once(monkeypatch, engine, name, cutoff):
    """The forest's trees come from one MST scan and one grouping pass:
    the scan makes one union per pair its prefix accepts (n less the
    prefix's components), then the forest makes one union per kept pair.
    A second forest on the same point set reads the kept tree: one more
    grouping pass, no scan."""
    points = TOUR_LARGE[name]()
    union = DSU.union
    results = []

    def counted(self, a, b):
        results.append(union(self, a, b))
        return results[-1]

    monkeypatch.setattr(DSU, "union", counted)
    edges = sum(len(t.u) for t in build_threshold_forest(points, cutoff))
    assert edges > 0
    scan = {"default": points.n - PREFIX_COMPONENTS[name],
            "prim": points.n - SHORT_PREFIX_COMPONENTS[name], "prim-no-prefix": 0,
            "prim-all-prefix": points.n - 1}[engine[0]]
    assert results.count(True) == scan + edges
    assert sum(len(t.u) for t in build_threshold_forest(points, cutoff)) == edges
    assert results.count(True) == scan + 2 * edges
    assert engine[1] == ["_prim"]


#: Components left by Kruskal over the sorted prefix on the tour-large
#: seed-1 inputs: Prim takes one step per component after the first.
PREFIX_COMPONENTS = {"uniform-k3-seed1": 67, "clustered-k8-seed1": 43,
                     "cube-vertex-k12-seed1": 1}

#: The same under the "prim" engine's budget of one pair per row, which
#: keeps the first n // 2 pairs.
SHORT_PREFIX_COMPONENTS = {"clustered-k8-seed1": 629, "cube-vertex-k12-seed1": 1330}


@pytest.mark.parametrize("name", PREFIX_COMPONENTS)
def test_prefix_leaves_few_components(monkeypatch, name):
    """The prefix's Kruskal makes n - c unions for c components; a silent
    fall-back to one Prim step per vertex changes the pinned count."""
    points = TOUR_LARGE[name]()
    union, unions = DSU.union, []

    def counted(self, a, b):
        unions.append(union(self, a, b))
        return unions[-1]

    monkeypatch.setattr(DSU, "union", counted)
    build_mst(points)
    assert points.n - unions.count(True) == PREFIX_COMPONENTS[name]


def test_equal_points_leave_one_prefix_component(monkeypatch):
    """On 2000 equal points every pair ties at d^2 = 0, far over the pair
    budget; the budget keeps the first pairs by (u, v), (0, 1) to (0, 1999)
    among them, so Kruskal over the prefix builds the whole tree, the star
    at 0, and Prim takes no step."""
    points = point_set(np.full((2000, 2), 0.5))
    union, unions = DSU.union, []

    def counted(self, a, b):
        unions.append(union(self, a, b))
        return unions[-1]

    monkeypatch.setattr(DSU, "union", counted)
    tree = build_mst(points)
    assert points.n - unions.count(True) == 1
    assert tree_key(tree) == tree_key(full_scan_mst(points))
    assert set(tree.u.tolist()) == {0}


@pytest.mark.parametrize("make", [
    *(TOUR_LARGE[name] for name in PREFIX_COMPONENTS),
    lambda: point_set(np.full((2000, 2), 0.5)),
    lambda: uniform_cube(3, 80, 1),
    lambda: point_set(np.full((80, 2), 0.5)),
], ids=[*PREFIX_COMPONENTS, "all-equal", "uniform-k3-n80", "all-equal-n80"])
def test_mst_allocates_no_quadratic_array(make):
    """The scan holds the prefix's O(n) pairs, one Gram strip of about 2^16
    entries, O(n) keys and the Gram factors, never an n x n array: its
    traced peak stays under a quarter of one n x n float matrix, on equal
    points too, where every pair ties and the pair budget cuts the prefix
    inside the tie.  At n = 80 the whole triangle is smaller than one
    strip, so there the bound is the strip: ``mst._STRIP`` float entries."""
    points = make()
    n = points.n
    bound = 2 * n * n if n * n > mst._STRIP else 8 * mst._STRIP
    assert traced_peak(lambda: build_mst(points)) < bound


@pytest.mark.parametrize("n", [200, 300, 500])
def test_all_hit_strips_hold_no_more_than_the_budget(n):
    """Every Gram entry of n equal points passes the filter, so every
    strip is all hits.  Its pairs are taken a few rows at a time, at most
    about the budget's worth at once: the scan peaks under 1.5 MiB, where
    indexing whole strips took 2.3 / 4.2 / 5.0 MB."""
    points = point_set(np.full((n, 2), 0.5))
    assert traced_peak(lambda: build_mst(points)) < 1.5 * 2 ** 20


def sorted_pair_count(monkeypatch, build):
    calls = []
    watch_sorts(monkeypatch, calls)
    build()
    monkeypatch.undo()
    return sum(calls)


@pytest.mark.parametrize("name", ["uniform-k3-seed1", "clustered-k8-seed1"])
def test_mst_sorts_under_a_tenth_of_the_pairs(monkeypatch, name):
    """A fall-back to one full sort of all pairs fails here."""
    points = TOUR_LARGE[name]()
    pairs = points.n * (points.n - 1) // 2
    assert sorted_pair_count(monkeypatch, lambda: build_mst(points)) < 0.1 * pairs


def test_forest_on_cube_vertices_below_unit_distance_sorts_nothing(monkeypatch):
    """Cube vertices lie at distance >= 1; at the two-phase cutoff
    12^(-1/4) < 1 the forest returns before any scan."""
    points = TOUR_LARGE["cube-vertex-k12-seed1"]()
    trees = []
    assert sorted_pair_count(
        monkeypatch, lambda: trees.extend(build_threshold_forest(points, 12 ** -0.25))) == 0
    assert len(trees) == points.n


def test_forest_with_no_pair_within_the_cutoff_runs_no_scan(monkeypatch):
    """Cube vertices lie at distance >= 1, above two-phase's cutoff
    12^(-1/4): one pass over d^2 finds that, and the n singletons come back
    with no Prim step and no sort."""
    points = cube_vertex_subset(12, 1200, 5)
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
                  if sq_lengths(points, *key) <= cutoff * cutoff)
    assert sorted(key for t in trees for key in pair_keys(t)) == kept


@forest_inputs
@forest_cutoffs
def test_threshold_forest_matches_full_scan(make, cutoff):
    """The MST's cut keeps the trees, their order and each tree's edge
    order of a Kruskal scan over the pairs within the cutoff.  Every
    engine, each on a fresh point set."""
    coords = make().coords
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as mp:
            ran = use_engine(mp, engine)
            assert_forest_matches_full_scan(point_set(coords), cutoff)
        assert ran == ["_prim"]


def test_threshold_forest_zero_cutoff(rng):
    pts = random_points(4, 12, 3)
    trees = build_threshold_forest(pts, 0.0)
    assert len(trees) == 12
    assert all(t.n == 1 for t in trees)


def test_threshold_forest_full_cutoff_equals_mst():
    """At a cutoff of at least the diameter the forest is the MST itself,
    edge order included: both list their edges in the scan's order.  Every
    engine."""
    inputs = [random_points(5, 20, 4)] + [uniform_cube(3, 200, seed) for seed in range(5)]
    for engine in ENGINES:
        with pytest.MonkeyPatch.context() as mp:
            ran = use_engine(mp, engine)
            for pts in inputs:
                fresh = point_set(pts.coords)
                assert build_threshold_forest(fresh, math.sqrt(pts.k)) == [build_mst(fresh)]
        assert ran == ["_prim"] * len(inputs)


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
    """One edge, or none, has no pair of balls to check."""
    pts = point_set([[0.0, 0.0], [1.0, 1.0]])
    assert mst_ball_packing_check(build_mst(pts), pts) == []
    assert mst_ball_packing_check(tree_from_pairs(pts, [], vertices=[1]), pts) == []
    dup = point_set([[0.4, 0.4], [0.4, 0.4]])
    assert mst_ball_packing_check(build_mst(dup), dup) == []


def test_ball_packing_tolerates_duplicate_points():
    # the zero-length edge's open ball is empty, hence disjoint from all
    pts = point_set([[0.2, 0.2], [0.2, 0.2], [0.8, 0.2]])
    tree = build_mst(pts)
    assert any(e.weight == 0.0 for e in tree.edges)
    assert mst_ball_packing_check(tree, pts) == []
