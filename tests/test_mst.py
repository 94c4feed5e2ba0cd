import itertools
import math

import numpy as np
import pytest

from powertour.constructions import clustered, cube_vertex_subset
from powertour.geometry import Edge, pairwise_sq, point_set
from powertour.mst import _DSU, build_mst, build_threshold_forest, mst_ball_packing_check
from powertour.structures import SpanningTree, tree_from_pairs, validate

from conftest import random_points


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
    assert sorted(e.key() for e in tree.edges) == [(0, 1), (0, 3), (1, 2)]


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
    assert sorted(e.key() for e in tree.edges) == [(0, 1), (1, 2)]
    assert tree.total_weight() == pytest.approx(1.0)


def test_mst_single_point():
    tree = build_mst(point_set([[0.3, 0.3]]))
    assert tree.n == 1 and tree.edges == ()


def full_scan_forest(points, cutoff):
    """Reference forest: Kruskal over every pair of weight <= cutoff, with
    no early stop, edges regrouped per final root by a scan over roots."""
    n = points.n
    d2 = pairwise_sq(points.coords)
    iu, iv = np.triu_indices(n, k=1)
    d2 = d2[iu, iv]
    order = np.lexsort((iv, iu, d2))
    iu, iv, d2 = iu[order], iv[order], d2[order]
    keep = d2 <= cutoff * cutoff
    dsu = _DSU(n)
    comp_edges = {}
    for u, v, dd in zip(iu[keep].tolist(), iv[keep].tolist(), d2[keep].tolist()):
        if dsu.union(u, v):
            comp_edges.setdefault(dsu.find(u), []).append(Edge(u, v, math.sqrt(dd)))
    groups = {}
    for v in range(n):
        groups.setdefault(dsu.find(v), []).append(v)
    trees = []
    for root, members in groups.items():
        edges = []
        for r, es in comp_edges.items():
            if dsu.find(r) == root:
                edges.extend(es)
        trees.append(SpanningTree(tuple(sorted(members)), tuple(edges)))
    trees.sort(key=lambda t: t.vertices[0])
    return trees


def duplicated(points, seed):
    gen = np.random.default_rng(seed)
    coords = np.repeat(points.coords, 2, axis=0)
    return point_set(coords[gen.permutation(len(coords))])


@pytest.mark.parametrize("make", [
    lambda: random_points(30, 60, 3),
    lambda: duplicated(random_points(31, 40, 2), 31),
    lambda: duplicated(cube_vertex_subset(5, 20, 32), 32),
    lambda: clustered(4, 120, 5, 0.05, 33),
    lambda: cube_vertex_subset(8, 90, 34),
], ids=["uniform", "duplicated", "duplicated-cube", "clustered", "cube-vertex"])
@pytest.mark.parametrize("cutoff", [0.0, 0.1, 0.5, 1.0, "diameter"])
def test_threshold_forest_matches_full_scan(make, cutoff):
    """Early stop and one-pass regrouping keep the trees, their order and
    each tree's edge order; the forest is the MST restricted to the cutoff."""
    points = make()
    if cutoff == "diameter":
        cutoff = math.sqrt(points.k)
    trees = build_threshold_forest(points, cutoff)
    assert trees == full_scan_forest(points, cutoff)
    kept = sorted(e.key() for e in build_mst(points).edges if e.weight <= cutoff)
    assert sorted(e.key() for t in trees for e in t.edges) == kept


def test_threshold_forest_zero_cutoff(rng):
    pts = random_points(4, 12, 3)
    trees = build_threshold_forest(pts, 0.0)
    assert len(trees) == 12
    assert all(t.n == 1 for t in trees)


def test_threshold_forest_full_cutoff_equals_mst(rng):
    pts = random_points(5, 20, 4)
    trees = build_threshold_forest(pts, math.sqrt(4))
    assert len(trees) == 1
    mst_keys = sorted(e.key() for e in build_mst(pts).edges)
    assert sorted(e.key() for e in trees[0].edges) == mst_keys


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
        cutoff = float(np.median([e.weight for e in mst.edges]))
        trees = build_threshold_forest(pts, cutoff)
        forest_keys = sorted(e.key() for t in trees for e in t.edges)
        kept = sorted(e.key() for e in mst.edges if e.weight <= cutoff)
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
