import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

import powertour.sekanina
from powertour.constructions import clustered, cube_vertex_subset, diagonal_pair, uniform_cube
from powertour.errors import CertificateError, InputError
from powertour.geometry import point_set, power_cost
from powertour.greedy import greedy_ham_path
from powertour.mst import build_mst, build_threshold_forest
from powertour.oracle import exact_min_tour
from powertour.sekanina import (UsageCertificate, mst_sekanina_cycle, mst_sekanina_tour,
                                tree_cube_cycle, tree_to_cycle_cost_bound,
                                verify_double_cover)
from powertour.structures import SpanningTree, close_path, tree_from_pairs, validate
from powertour.suites import random_tree_pairs
from powertour.two_phase import two_phase_tour

from conftest import pair_keys, random_points


def tree_distance(pairs, n, u, v):
    adj = {i: [] for i in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen[y] = seen[x] + 1
                    nxt.append(y)
        frontier = nxt
    return seen[v]


def hop_usage(t, cert):
    """How many hops of ``cert`` run over each edge of ``t``."""
    count = Counter(eid for path in cert.hops for eid in path)
    return tuple(count[i] for i in range(len(t.edges)))


def walk_end(t, start, path):
    """Where the tree-edge ids ``path`` lead from ``start``."""
    at = start
    for eid in path:
        e = t.edges[eid]
        assert at in (e.u, e.v)
        at = e.v if at == e.u else e.u
    return at


def test_three_vertex_path_tree():
    pts = point_set([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]])
    t = tree_from_pairs(pts, [(0, 1), (1, 2)])
    tour, cert = tree_cube_cycle(t, pts, anchor=0)
    assert sorted(tour.order) == [0, 1, 2]
    assert hop_usage(t, cert) == (2, 2)
    assert max(len(p) for p in cert.hops) <= 3


def admits_double_cover(pairs, n, cycle_order):
    """Tree paths are unique, so a cycle admits exactly one hop
    assignment; check it covers every tree edge exactly twice with
    hops of length <= 3."""
    adj = {i: [] for i in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)

    def tree_path(u, v):
        stack = [(u, None, [])]
        while stack:
            x, prev, acc = stack.pop()
            if x == v:
                return acc
            for y in adj[x]:
                if y != prev:
                    stack.append((y, x, acc + [tuple(sorted((x, y)))]))
        raise AssertionError("disconnected tree")

    usage = {tuple(sorted(p)): 0 for p in pairs}
    for i in range(len(cycle_order)):
        u, v = cycle_order[i], cycle_order[(i + 1) % len(cycle_order)]
        path = tree_path(u, v)
        if len(path) > 3:
            return False
        for e in path:
            usage[e] += 1
    return all(c == 2 for c in usage.values())


def test_star_tree():
    pts = point_set([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    pairs = [(0, 1), (0, 2), (0, 3)]
    t = tree_from_pairs(pts, pairs)
    tour, cert = tree_cube_cycle(t, pts, anchor=0)
    assert verify_double_cover(t, cert) == []
    assert hop_usage(t, cert) == (2, 2, 2)
    assert sum(len(p) for p in cert.hops) == 2 * 3
    # enumeration oracle: among the 3 Hamiltonian cycles of K4 at least
    # one admits a valid double-cover assignment, and ours is one of them
    valid = [order for order in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
             if admits_double_cover(pairs, 4, order)]
    assert valid
    canon = {tuple(tour.order), tuple(reversed(tour.order))}
    rotations = set()
    for order in valid:
        for s in range(4):
            rot = order[s:] + order[:s]
            rotations.add(rot)
            rotations.add(tuple(reversed(rot)))
    assert canon & rotations


def test_seven_vertex_branching_tree():
    pts = random_points(7, 7, 3)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    t = tree_from_pairs(pts, pairs)
    tour, cert = tree_cube_cycle(t, pts, anchor=0)
    assert verify_double_cover(t, cert) == []
    assert all(u == 2 for u in hop_usage(t, cert))
    # every tree edge is used by two different cycle edges
    users = {i: set() for i in range(len(pairs))}
    for key, path in zip(pair_keys(tour), cert.hops):
        for eid in path:
            users[eid].add(key)
    assert all(len(s) == 2 for s in users.values())


def test_rejects_tiny_trees():
    """A single vertex is refused; two vertices give the doubled edge."""
    pts = point_set([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InputError, match="need at least 2 vertices, got 1"):
        tree_cube_cycle(tree_from_pairs(pts, [], vertices=[1]), pts, anchor=1)
    tour, _cert = tree_cube_cycle(tree_from_pairs(pts, [(0, 1)]), pts)
    assert tour.n == 2


@pytest.mark.parametrize("coords", [[[0.0, 0.0], [1.0, 1.0]], [[0.3, 0.7], [0.3, 0.7]]],
                         ids=["diagonal", "coincident"])
@pytest.mark.parametrize("anchor", [0, 1])
def test_two_vertex_tree_gives_the_doubled_edge(coords, anchor):
    """Both hops of a 2-vertex cycle are the one tree edge, read in the
    cycle's direction; the checker accepts them and the triangle check
    holds with equality."""
    pts = point_set(coords)
    t = tree_from_pairs(pts, [(0, 1)])
    tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
    assert tour.order == cert.order == (anchor, 1 - anchor)
    assert cert.hops == ((0,), (0,))
    assert cert.anchor == anchor
    assert verify_double_cover(t, cert) == []
    assert validate(tour, pts) == []
    assert tour.weights.tolist() == [t.weights[0]] * 2


def test_forest_subtree_without_vertex_zero():
    pts = clustered(3, 60, 4, 0.05, 11)
    subtrees = [t for t in build_threshold_forest(pts, 0.3)
                if t.n >= 3 and 0 not in t.vertices]
    assert subtrees
    for t in subtrees:
        for anchor in (t.vertices[0], t.vertices[-1]):
            tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
            assert sorted(tour.order) == list(t.vertices)
            assert tour.order[0] == anchor
            assert verify_double_cover(t, cert) == []


def test_rejects_tree_vertex_outside_point_set():
    pts = random_points(5, 6, 2)
    t = tree_from_pairs(pts, [(3, 4), (4, 5)], vertices=[3, 4, 5])
    with pytest.raises(InputError, match="out of range"):
        tree_cube_cycle(t, point_set(pts.coords[:5]), anchor=3)
    negative = SpanningTree((-1,) + t.vertices, u=t.u, v=t.v, weights=t.weights)
    with pytest.raises(InputError, match="out of range"):
        tree_cube_cycle(negative, pts, anchor=3)


def test_hops_are_tree_paths_of_bounded_span(rng):
    for seed in range(40):
        n = int(rng.integers(3, 60))
        pts = random_points(seed + 300, n, 3)
        gen = np.random.default_rng(seed)
        pairs = random_tree_pairs(n, gen)
        t = tree_from_pairs(pts, pairs)
        anchor = int(gen.integers(0, n))
        tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
        assert validate(tour, pts) == []
        assert verify_double_cover(t, cert) == []
        assert sum(hop_usage(t, cert)) == 2 * (n - 1)
        # consecutive tour vertices sit at tree distance <= 3
        for e in tour.edges:
            assert tree_distance(pairs, n, e.u, e.v) <= 3
        # anchor meets a tree edge on the cycle
        anchor_hops = [path for e, path in zip(tour.edges, cert.hops)
                       if anchor in (e.u, e.v)]
        assert any(len(path) == 1 for path in anchor_hops)


def test_cycle_edge_at_most_its_tree_path(rng):
    for seed in range(15):
        n = int(rng.integers(3, 40))
        pts = random_points(seed + 400, n, 4)
        gen = np.random.default_rng(seed + 41)
        t = tree_from_pairs(pts, random_tree_pairs(n, gen))
        tour, cert = tree_cube_cycle(t, pts)
        for e, path in zip(tour.edges, cert.hops):
            span = sum(t.edges[i].weight for i in path)
            assert e.weight <= span * (1 + 1e-9) + 1e-12


def test_certificate_rejects_tampering():
    pts = random_points(17, 9, 2)
    t = tree_from_pairs(pts, random_tree_pairs(9, np.random.default_rng(2)))
    tour, cert = tree_cube_cycle(t, pts)
    hops = (cert.hops[0] + cert.hops[0],) + cert.hops[1:]  # duplicate tree edges in a hop
    assert verify_double_cover(t, dataclasses.replace(cert, hops=hops)) != []
    assert verify_double_cover(t, dataclasses.replace(cert, hops=cert.hops[1:])) != []


# The path 0-1-2-3-4 (edge i joins i and i + 1) and its certificate from
# anchor 0; each case swaps in one field and pins every message it draws.
PATH_PTS = point_set([[0.1 * i, 0.0] for i in range(5)])
PATH_TREE = tree_from_pairs(PATH_PTS, [(0, 1), (1, 2), (2, 3), (3, 4)])
PATH_CERT = UsageCertificate((0, 1, 3, 4, 2), ((0,), (1, 2), (3,), (3, 2), (1, 0)), 0)


def with_hop(i, path):
    hops = list(PATH_CERT.hops)
    hops[i] = path
    return tuple(hops)


def test_path_certificate_comes_from_the_construction():
    tour, cert = tree_cube_cycle(PATH_TREE, PATH_PTS, anchor=0)
    assert cert == PATH_CERT
    assert verify_double_cover(PATH_TREE, cert) == []


@pytest.mark.parametrize("change, problems", [
    ({"order": (0, 1, 3, 4)}, ["cycle order covers 4 of 5 vertices"]),
    ({"order": (0, 1, 3, 4, 1)}, ["cycle revisits vertex 1"]),
    ({"order": (0, 1, 3, 4, 9)}, ["cycle vertex 9 leaves the vertex set"]),
    ({"hops": PATH_CERT.hops[:-1]}, ["cycle has 4 edges, expected 5"]),
    ({"hops": with_hop(0, ())}, ["hop (0, 1) uses 0 tree edges",
                                 "tree edge (0, 1) used 1 times, expected 2",
                                 "no length-1 cycle edge at anchor 0"]),
    ({"hops": with_hop(1, (1, 2, 3, 3))}, ["hop (1, 3) uses 4 tree edges",
                                           "tree edge (1, 2) used 1 times, expected 2",
                                           "tree edge (2, 3) used 1 times, expected 2"]),
    ({"hops": with_hop(1, (2, 1))}, ["hop (1, 3) is not a tree walk to its endpoint",
                                     "tree edge (1, 2) used 1 times, expected 2",
                                     "tree edge (2, 3) used 1 times, expected 2"]),
    # 0 -> 1 -> 2 -> 1 ends at the hop's end, over edge 1 twice
    ({"hops": with_hop(0, (0, 1, 1))}, ["hop (0, 1) is not a tree walk to its endpoint",
                                        "tree edge (0, 1) used 1 times, expected 2",
                                        "no length-1 cycle edge at anchor 0"]),
    # id -1 would index edge 3, this hop's own edge
    ({"hops": with_hop(2, (-1,))}, ["hop (3, 4) is not a tree walk to its endpoint",
                                    "tree edge (3, 4) used 1 times, expected 2"]),
    ({"hops": with_hop(2, (4,))}, ["hop (3, 4) is not a tree walk to its endpoint",
                                   "tree edge (3, 4) used 1 times, expected 2"]),
    ({"anchor": 2}, ["no length-1 cycle edge at anchor 2"]),
], ids=["order-misses-vertex", "order-repeats-vertex", "order-leaves-vertex-set",
        "hop-count", "hop-of-0-edges", "hop-of-4-edges", "reversed-hop", "repeated-edge-id",
        "edge-id-minus-1", "edge-id-past-end", "anchor-without-tree-edge"])
def test_double_cover_rejections(change, problems):
    cert = dataclasses.replace(PATH_CERT, **change)
    assert verify_double_cover(PATH_TREE, cert) == problems


def test_double_cover_counts_each_edge_exactly_twice():
    """Every cycle crosses each tree edge an even number of times, so odd
    counts need an edge listed twice: each copy then carries its own count."""
    once = tree_from_pairs(PATH_PTS, [(0, 1), (1, 2), (1, 2)], vertices=[0, 1, 2])
    cert = UsageCertificate((0, 1, 2), ((0,), (1,), (2, 0)), 0)
    assert verify_double_cover(once, cert) == [
        "tree edge (1, 2) used 1 times, expected 2"] * 2
    thrice = tree_from_pairs(PATH_PTS, [(0, 1), (1, 2), (1, 2), (2, 3)],
                             vertices=[0, 1, 2, 3])
    cert = UsageCertificate((0, 2, 1, 3), ((0, 1), (1,), (1, 3), (3, 2, 0)), 1)
    assert verify_double_cover(thrice, cert) == [
        "tree edge (1, 2) used 3 times, expected 2",
        "tree edge (1, 2) used 1 times, expected 2"]


def test_cost_bound_collinear():
    d = 0.3
    pts = point_set([[0.0, 0.0], [d, 0.0], [2 * d, 0.0]])
    t = tree_from_pairs(pts, [(0, 1), (1, 2)])
    tour, cost, bound = tree_to_cycle_cost_bound(t, pts, 2)
    assert cost.unscaled == pytest.approx(6 * d * d, rel=1e-9)
    assert bound == pytest.approx((2 / 3) * 9 * 2 * d * d, rel=1e-9)
    assert cost.unscaled <= bound


def test_cost_bound_star_unit_legs():
    pts = point_set([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                    container="unconstrained")
    t = tree_from_pairs(pts, [(0, 1), (0, 2), (0, 3)])
    tour, cost, bound = tree_to_cycle_cost_bound(t, pts, 2)
    assert bound == pytest.approx((2 / 3) * 9 * 3.0, rel=1e-9)
    assert cost.unscaled <= bound + 1e-9


def test_cost_bound_random_msts(rng):
    for seed in range(25):
        pts = random_points(seed + 500, 20, 4)
        t = build_mst(pts)
        tour, cost, bound = tree_to_cycle_cost_bound(t, pts, 4)
        assert cost.unscaled <= bound * (1 + 1e-9)


def test_mst_tour_two_point_diagonal():
    """Opposite corners of the cube: every pipeline's tour is the doubled
    diagonal, S_k = 2 * k^(k/2), and s_k is the conjectured lower bound."""
    for k in range(2, 9):
        pts = diagonal_pair(k)
        tour, report = mst_sekanina_tour(pts, k)
        s = power_cost(tour.edges, k).scaled
        assert s == pytest.approx(2 ** (1 / k) * math.sqrt(k), rel=1e-9)
        assert not report.certified_failures()
        assert report.algorithms["mst-sekanina"]["s_k"] == pytest.approx(
            report.bounds["cycle_lower_conjectured"], rel=1e-12)
        tours = {"mst-sekanina": tour,
                 "two-phase": two_phase_tour(pts, k)[0],
                 "greedy": close_path(greedy_ham_path(pts)[0], pts),
                 "oracle": exact_min_tour(pts, k)[0]}
        for name, t in tours.items():
            assert t.order == (0, 1), name
            assert power_cost(t, k).unscaled == pytest.approx(2.0 * k ** (k / 2.0), rel=1e-12)


def test_cost_bound_two_points():
    for coords in ([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[0.2, 0.4, 0.6], [0.2, 0.4, 0.6]]):
        pts = point_set(coords)
        t = build_mst(pts)
        tour, cost, bound = tree_to_cycle_cost_bound(t, pts, 3)
        assert tour.order == (0, 1)
        assert cost.unscaled == pytest.approx(2 * power_cost(t, 3).unscaled, rel=1e-12)
        assert cost.unscaled <= bound


def test_two_point_tour_is_certified(monkeypatch):
    """Two points go through the cube-cycle walk, so a checker that
    reports a problem stops the tour."""
    monkeypatch.setattr(powertour.sekanina, "verify_double_cover", lambda *_a: ["forged"])
    with pytest.raises(CertificateError, match="forged"):
        mst_sekanina_cycle(diagonal_pair(3))


def test_mst_tour_random_within_bound(rng):
    bound3 = 3 * math.sqrt(5) * (2 / 3) ** (1 / 3) * math.sqrt(3)
    for seed in range(10):
        pts = random_points(seed + 600, 100, 3)
        tour, report = mst_sekanina_tour(pts, 3)
        assert validate(tour, pts) == []
        s = power_cost(tour.edges, 3).scaled
        assert s <= bound3 * (1 + 1e-9)
        assert not report.certified_failures()


def test_mst_tour_three_points(rng):
    for seed in range(10):
        pts = random_points(seed + 700, 3, 4)
        tour, report = mst_sekanina_tour(pts, 4)
        assert validate(tour, pts) == []
        assert not report.certified_failures()


@pytest.mark.parametrize("k", [0, 1])
def test_mst_tour_rejects_exponent_below_two_before_work(monkeypatch, k):
    def fail(*_args, **_kwargs):
        raise AssertionError("build_mst called")

    monkeypatch.setattr(powertour.sekanina, "build_mst", fail)
    with pytest.raises(InputError, match="exponent"):
        mst_sekanina_tour(random_points(9, 20, 3), k)


def adversarial_trees(n):
    """Hand-shaped trees that exercise every splice case."""
    path = [(i, i + 1) for i in range(n - 1)]
    star = [(0, i) for i in range(1, n)]
    # caterpillar: spine with a leaf off every spine vertex
    spine = n // 2
    caterpillar = [(i, i + 1) for i in range(spine - 1)]
    caterpillar += [(i, spine + i) for i in range(n - spine)]
    # broom: long handle ending in a fan
    handle = n // 2
    broom = [(i, i + 1) for i in range(handle)]
    broom += [(handle, j) for j in range(handle + 1, n)]
    # complete binary tree
    binary = [((i - 1) // 2, i) for i in range(1, n)]
    return {"path": path, "star": star, "caterpillar": caterpillar,
            "broom": broom, "binary": binary}


@pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "broom", "binary"])
def test_adversarial_tree_shapes(shape):
    for n in (3, 4, 5, 6, 7, 12, 33, 64):
        pts = random_points(n, n, 3)
        pairs = adversarial_trees(n)[shape]
        t = tree_from_pairs(pts, pairs)
        for anchor in {0, n // 2, n - 1}:
            tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
            assert validate(tour, pts) == []
            assert verify_double_cover(t, cert) == []
            for e in tour.edges:
                assert tree_distance(pairs, n, e.u, e.v) <= 3


# Reference: the designated-edge worklist construction the parity walk
# replaced.  Root the tree at the anchor and induct over a designated edge
# (v, c) from a vertex to an unprocessed child; each side of the split is
# solved for a designated edge of its own and the two open paths are
# spliced across (v, c).


def tree_adjacency(t):
    """Sorted neighbours of each vertex of a spanning tree."""
    adj = {v: [] for v in t.vertices}
    for e in t.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def worklist_root_tree(adj, anchor):
    """Children lists (sorted ascending) and subtree sizes, iteratively."""
    children = {}
    parent = {anchor: None}
    order = [anchor]
    stack = [anchor]
    while stack:
        v = stack.pop()
        kids = sorted(w for w in adj[v] if w != parent[v])
        children[v] = kids
        for w in kids:
            parent[w] = v
            order.append(w)
            stack.append(w)
    size = {v: 1 for v in order}
    for v in reversed(order):
        for w in children[v]:
            size[v] += size[w]
    return children, size


def worklist_cube_cycle(t, anchor):
    """Hops of the worklist construction: normalized cycle-edge pair ->
    tree path as indices into ``t.edges``."""
    children, size = worklist_root_tree(tree_adjacency(t), anchor)
    n = size[anchor]
    edge_id = {key: i for i, key in enumerate(pair_keys(t))}
    hops = {}

    def pair(a, b):
        return (a, b) if a < b else (b, a)

    def te(a, b):
        return edge_id[pair(a, b)]

    def add(a, b, path):
        hops[pair(a, b)] = path

    ptr = {v: 0 for v in children}
    # frames: ("B", v, c, comp_size) build the cycle for v's current
    # component with designated edge (v, c); "LX"/"LY" re-insert a leaf
    # after the child build; "SP" splices the two side paths.
    work = [("B", anchor, children[anchor][0], n)]
    while work:
        frame = work.pop()
        op = frame[0]
        if op == "B":
            _, v, c, comp = frame
            sy = size[c]
            sx = comp - sy
            if sx == 1:
                cp = children[c][0]
                if sy == 2:
                    add(v, c, (te(v, c),))
                    add(c, cp, (te(c, cp),))
                    add(cp, v, (te(cp, c), te(c, v)))
                else:
                    work.append(("LX", v, c, cp))
                    work.append(("B", c, cp, sy))
            elif sy == 1:
                ptr[v] += 1
                c2 = children[v][ptr[v]]
                if sx == 2:
                    add(v, c, (te(v, c),))
                    add(v, c2, (te(v, c2),))
                    add(c2, c, (te(c2, v), te(v, c)))
                else:
                    work.append(("LY", v, c, c2))
                    work.append(("B", v, c2, sx))
            else:
                ptr[v] += 1
                c2 = children[v][ptr[v]]
                cp = children[c][0]
                work.append(("SP", v, c, c2, cp, sx, sy))
                if sy >= 3:
                    work.append(("B", c, cp, sy))
                if sx >= 3:
                    work.append(("B", v, c2, sx))
        elif op == "LX":
            # v is alone on its side: thread it between c and c's child.
            _, v, c, cp = frame
            del hops[pair(c, cp)]
            add(v, c, (te(v, c),))
            add(v, cp, (te(v, c), te(c, cp)))
        elif op == "LY":
            # c is a leaf: thread it between v and v's next child.
            _, v, c, c2 = frame
            del hops[pair(v, c2)]
            add(v, c, (te(v, c),))
            add(c, c2, (te(c, v), te(v, c2)))
        else:  # "SP"
            _, v, c, c2, cp, sx, sy = frame
            if sx >= 3:
                del hops[pair(v, c2)]  # opens the v-side cycle into a path v..c2
            else:
                add(v, c2, (te(v, c2),))  # the 2-vertex side is a bare edge
            if sy >= 3:
                del hops[pair(c, cp)]
            else:
                add(c, cp, (te(c, cp),))
            add(v, c, (te(v, c),))
            add(cp, c2, (te(cp, c), te(c, v), te(v, c2)))
    return hops


def worklist_cycle_order(hops, anchor):
    """The cycle whose edges are the keys of ``hops``, walked from ``anchor``
    towards its smaller neighbour."""
    cyc = {}
    for a, b in hops:
        cyc.setdefault(a, []).append(b)
        cyc.setdefault(b, []).append(a)
    order = [anchor]
    prev, cur = anchor, min(cyc[anchor])
    while cur != anchor:
        order.append(cur)
        x, y = cyc[cur]
        prev, cur = cur, y if x == prev else x
    return order


# Reference: the climbing walk the one-pass walk replaced.  The same parity
# walk records each vertex's parent, depth and parent edge; a second pass
# then rebuilds every hop by climbing out of its deeper end.


def reference_parity_walk(t, anchor):
    adj = {v: [] for v in t.vertices}
    for i, e in enumerate(t.edges):
        if e.u not in adj or e.v not in adj:
            raise InputError(f"tree edge ({e.u}, {e.v}) leaves the vertex set")
        adj[e.u].append((e.v, i))
        adj[e.v].append((e.u, i))
    if anchor not in adj:
        raise InputError(f"anchor {anchor} not a tree vertex")
    up = {anchor: (anchor, -1)}  # vertex -> (parent, parent-edge id)
    depth = {anchor: 0}
    order = []
    stack = [(anchor, False)]  # (vertex, leaving)
    while stack:
        v, leaving = stack.pop()
        if leaving:
            order.append(v)
            continue
        odd = depth[v] % 2
        if odd:
            stack.append((v, True))
        else:
            order.append(v)
        kids = sorted((w, i) for w, i in adj[v] if i != up[v][1])
        for w, i in (reversed(kids) if odd else kids):
            if w in depth:
                raise InputError(f"tree vertex {w} reached twice from anchor {anchor}: "
                                 "the edges hold a cycle or a repeated edge")
            up[w] = (v, i)
            depth[w] = depth[v] + 1
            stack.append((w, False))
    if len(order) != t.n:
        raise InputError(f"tree is disconnected: the walk from anchor {anchor} "
                         f"reaches {len(order)} of {t.n} vertices")
    if order[1] > order[-1]:
        order[1:] = order[:0:-1]
    hops = []
    for a, b in zip(order, order[1:] + order[:1]):
        x, y, rise, fall = a, b, [], []
        while x != y:
            if depth[x] >= depth[y]:
                x, i = up[x]
                rise.append(i)
            else:
                y, i = up[y]
                fall.append(i)
        hops.append(tuple(rise + fall[::-1]))
    return UsageCertificate(tuple(order), tuple(hops), anchor)


def assert_matches_worklist(t, pts, anchor):
    """The walk's certificate equals the climbing walk's, and its order,
    cycle edges, id tuples and usage equal the worklist construction's;
    hop i is read from the tour's i-th vertex to the next, one hop per tour
    edge."""
    tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
    assert cert == reference_parity_walk(t, anchor)
    ref = worklist_cube_cycle(t, anchor)
    assert list(tour.order) == worklist_cycle_order(ref, anchor)
    assert cert.order == tour.order
    assert len(cert.hops) == len(tour.edges)
    assert set(pair_keys(tour)) == set(ref)
    for key, a, b, path in zip(pair_keys(tour), cert.order, cert.order[1:] + cert.order[:1],
                               cert.hops):
        assert path in (ref[key], ref[key][::-1])
        assert walk_end(t, a, path) == b
    usage = [0] * len(t.edges)
    for path in ref.values():
        for eid in path:
            usage[eid] += 1
    assert hop_usage(t, cert) == tuple(usage)


@pytest.mark.parametrize("shape", ["path", "star", "caterpillar", "broom", "binary"])
def test_walk_matches_worklist_on_adversarial_shapes_at_every_anchor(shape):
    for n in (3, 4, 5, 6, 7, 12, 33, 64):
        pts = random_points(n, n, 3)
        t = tree_from_pairs(pts, adversarial_trees(n)[shape])
        for anchor in range(n):
            assert_matches_worklist(t, pts, anchor)


def test_walk_matches_worklist_on_random_trees():
    gen = np.random.default_rng(2024)
    for trial in range(300):
        n = int(gen.integers(3, 81))
        pts = random_points(trial + 900, n, 2)
        t = tree_from_pairs(pts, random_tree_pairs(n, gen))
        for anchor in (0, n // 2, n - 1):
            assert_matches_worklist(t, pts, anchor)


def test_walk_matches_worklist_over_non_contiguous_vertex_ids():
    pts = clustered(3, 60, 4, 0.05, 11)
    trees = [t for t in build_threshold_forest(pts, 0.3) if t.n >= 3]
    assert any(t.vertices != tuple(range(t.vertices[0], t.vertices[0] + t.n))
               for t in trees)
    for t in trees:
        for anchor in t.vertices:
            assert_matches_worklist(t, pts, anchor)
    sparse = tree_from_pairs(pts, [(41, 7), (7, 19), (19, 3), (7, 58), (58, 30)],
                             vertices=[3, 7, 19, 30, 41, 58])
    for anchor in sparse.vertices:
        assert_matches_worklist(sparse, pts, anchor)


@pytest.mark.parametrize("shape", ["path", "caterpillar"])
def test_walk_does_not_recurse_on_deep_trees(shape):
    """20 000 vertices deep, far past the interpreter's recursion limit."""
    n = 20_000
    pts = random_points(5, n, 2)
    t = tree_from_pairs(pts, adversarial_trees(n)[shape])
    assert_matches_worklist(t, pts, 0)


def test_walk_matches_references_on_random_labelled_trees():
    gen = np.random.default_rng(2025)
    for trial in range(120):
        n = int(gen.integers(3, 400))
        pts = random_points(trial + 1200, n, 2)
        t = tree_from_pairs(pts, random_tree_pairs(n, gen))
        for anchor in gen.integers(0, n, size=3).tolist():
            assert_matches_worklist(t, pts, anchor)


@pytest.mark.parametrize("make", [
    lambda: uniform_cube(3, 2000, 0),
    lambda: clustered(8, 2000, 8, 0.05, 0),
    lambda: cube_vertex_subset(12, 2000, 0),
], ids=["uniform-k3", "clustered-k8", "cube-vertex-k12"])
def test_walk_matches_references_on_tour_large_msts(make):
    pts = make()
    t = build_mst(pts)
    for anchor in (0, 1999):
        assert_matches_worklist(t, pts, anchor)


@pytest.mark.parametrize("pairs, vertices, anchor", [
    ([(0, 1), (1, 2), (1, 2)], None, 0),
    ([(0, 1), (0, 1), (1, 2)], None, 2),
    ([(0, 1), (1, 2), (2, 0)], None, 3),
    ([(0, 1), (1, 2), (2, 3), (3, 1)], None, 0),
    ([(0, 1), (2, 3), (3, 4)], None, 0),
    ([(0, 1), (2, 3), (3, 4)], None, 4),
    ([(0, 1), (1, 2), (2, 3)], [0, 1, 2], 0),
    ([(0, 1), (1, 2), (2, 3), (3, 4)], None, 7),
], ids=["repeated-edge", "repeated-edge-at-anchor", "cycle", "cycle-off-anchor",
        "disconnected", "disconnected-far-part", "edge-out-of-set", "missing-anchor"])
def test_walk_refuses_malformed_trees_as_the_reference_does(pairs, vertices, anchor):
    pts = random_points(34, 5, 2)
    t = tree_from_pairs(pts, pairs, vertices=vertices)
    with pytest.raises(InputError) as want:
        reference_parity_walk(t, anchor)
    with pytest.raises(InputError) as got:
        tree_cube_cycle(t, pts, anchor=anchor)
    assert str(got.value) == str(want.value)


def refuse_certificate(monkeypatch):
    """Fail the test if a construction reaches its certificate or its tour."""
    def fail(*_args, **_kwargs):
        raise AssertionError("a malformed tree reached the certificate")

    monkeypatch.setattr(powertour.sekanina, "verify_double_cover", fail)
    monkeypatch.setattr(powertour.sekanina, "tour_from_order", fail)


def test_edge_leaving_the_vertex_set_is_an_input_error(monkeypatch):
    pts = random_points(31, 4, 2)
    t = tree_from_pairs(pts, [(0, 1), (1, 2), (2, 3)], vertices=[0, 1, 2])
    refuse_certificate(monkeypatch)
    with pytest.raises(InputError, match=r"edge \(2, 3\) leaves the vertex set"):
        tree_cube_cycle(t, pts)


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2), (2, 0)],  # a cycle, with n - 1 edges over 4 vertices
    [(0, 1), (1, 2), (1, 2)],  # a repeated edge
], ids=["cycle", "repeated-edge"])
def test_vertex_reached_twice_is_an_input_error(monkeypatch, pairs):
    pts = random_points(32, 4, 2)
    t = tree_from_pairs(pts, pairs)
    refuse_certificate(monkeypatch)
    with pytest.raises(InputError, match="reached twice"):
        tree_cube_cycle(t, pts)


def test_disconnected_tree_is_an_input_error(monkeypatch):
    pts = random_points(33, 5, 2)
    t = tree_from_pairs(pts, [(0, 1), (2, 3), (3, 4)])
    refuse_certificate(monkeypatch)
    for anchor, reached in ((0, 2), (3, 3)):
        with pytest.raises(InputError, match=f"disconnected.* reaches {reached} of 5"):
            tree_cube_cycle(t, pts, anchor=anchor)


# The tuple walk and checker that the array forms replaced, kept as the
# slow-path oracle: they read the tree's ``Edge`` values one by one.

def tuple_parity_walk(t, anchor):
    """The parity walk over adjacency lists built from ``t.edges``."""
    adj = {v: [] for v in t.vertices}
    for i, e in enumerate(t.edges):
        if e.u not in adj or e.v not in adj:
            raise InputError(f"tree edge ({e.u}, {e.v}) leaves the vertex set")
        adj[e.u].append((e.v, i))
        adj[e.v].append((e.u, i))
    if anchor not in adj:
        raise InputError(f"anchor {anchor} not a tree vertex")
    seen = {anchor}
    order, hops, hop = [], [], []
    stack = [(anchor, -1, False, False)]
    while stack:
        v, pe, odd, leaving = stack.pop()
        if pe >= 0 and not leaving:
            hop.append(pe)
            stack.append((v, pe, odd, True))
        if leaving == odd:
            if order:
                hops.append(tuple(hop))
                hop = []
            order.append(v)
        if leaving:
            hop.append(pe)
            continue
        kids = sorted((w, i) for w, i in adj[v] if i != pe)
        for w, i in (reversed(kids) if odd else kids):
            if w in seen:
                raise InputError(f"tree vertex {w} reached twice from anchor {anchor}: "
                                 "the edges hold a cycle or a repeated edge")
            seen.add(w)
            stack.append((w, i, not odd, False))
    hops.append(tuple(hop))
    if len(order) != t.n:
        raise InputError(f"tree is disconnected: the walk from anchor {anchor} "
                         f"reaches {len(order)} of {t.n} vertices")
    if order[1] > order[-1]:
        order[1:] = order[:0:-1]
        hops = [h[::-1] for h in reversed(hops)]
    return UsageCertificate(tuple(order), tuple(hops), anchor)


def tuple_verify_double_cover(tree, cert):
    """The hop-by-hop checker: each hop walked alone over ``tree.edges``."""
    order, hops, edges = cert.order, cert.hops, tree.edges
    verts = set(tree.vertices)
    seen = set()
    for v in order:
        if v not in verts:
            return [f"cycle vertex {v} leaves the vertex set"]
        if v in seen:
            return [f"cycle revisits vertex {v}"]
        seen.add(v)
    if len(seen) != tree.n:
        return [f"cycle order covers {len(seen)} of {tree.n} vertices"]
    if len(hops) != tree.n:
        return [f"cycle has {len(hops)} edges, expected {tree.n}"]

    def end(start, path):
        at = start
        for eid in path:
            if not 0 <= eid < len(edges) or at not in (edges[eid].u, edges[eid].v):
                return None
            at = edges[eid].v if at == edges[eid].u else edges[eid].u
        return at

    out, usage, anchor_tree_edge = [], [0] * len(edges), False
    for a, b, path in zip(order, order[1:] + order[:1], hops):
        if not 1 <= len(path) <= 3:
            out.append(f"hop ({a}, {b}) uses {len(path)} tree edges")
            continue
        if end(a, path) != b or len(set(path)) != len(path):
            out.append(f"hop ({a}, {b}) is not a tree walk to its endpoint")
            continue
        for eid in path:
            usage[eid] += 1
        anchor_tree_edge |= len(path) == 1 and cert.anchor in (a, b)
    for e, c in zip(edges, usage):
        if c != 2:
            out.append(f"tree edge ({e.u}, {e.v}) used {c} times, expected 2")
    if not anchor_tree_edge:
        out.append(f"no length-1 cycle edge at anchor {cert.anchor}")
    return out


def lattice(k, m, copies, seed):
    """The m^k lattice of the unit cube, each point ``copies`` times, shuffled."""
    axis = np.linspace(0.0, 1.0, m)
    coords = np.repeat(np.array(list(itertools.product(axis, repeat=k))), copies, axis=0)
    return point_set(coords[np.random.default_rng(seed).permutation(len(coords))])


TIE_HEAVY = {
    "grid-2d": lambda: lattice(2, 6, 1, 1),
    "grid-3d-duplicates": lambda: lattice(3, 4, 2, 2),
    "cube-vertex-k6": lambda: cube_vertex_subset(6, 50, 3),
    "cube-vertex-k12": lambda: cube_vertex_subset(12, 300, 4),
    "duplicates": lambda: point_set(np.repeat(random_points(5, 30, 3).coords, 3, axis=0)),
    "clustered": lambda: clustered(4, 200, 6, 0.05, 6),
}


@pytest.mark.parametrize("name", TIE_HEAVY)
def test_array_walk_equals_the_tuple_walk_on_tie_heavy_inputs(name):
    """Order and hops equal the tuple walk's on the MST at several anchors,
    and on every forest tree of 3 or more vertices from its smallest
    vertex, as two-phase runs them."""
    pts = TIE_HEAVY[name]()
    mst = build_mst(pts)
    cases = [(mst, a) for a in (0, 1, pts.n // 2, pts.n - 1)]
    for cutoff in (0.1, 0.3, 1.0, float(np.median(mst.weights))):
        cases += [(t, t.vertices[0]) for t in build_threshold_forest(pts, cutoff) if t.n >= 3]
    for t, anchor in cases:
        tour, cert = tree_cube_cycle(t, pts, anchor=anchor)
        assert cert == tuple_parity_walk(t, anchor)
        assert tour.order == cert.order
        assert tuple_verify_double_cover(t, cert) == verify_double_cover(t, cert) == []


def tampered(cert, gen, m):
    """``cert`` with a few random hop edits: ids dropped, repeated, out of
    range, swapped between hops or reversed, and hops of 0 to 5 ids."""
    hops = list(cert.hops)
    for _ in range(int(gen.integers(1, 4))):
        i = int(gen.integers(len(hops)))
        kind = int(gen.integers(6))
        if kind == 0:
            hops[i] = hops[i][1:]
        elif kind == 1:
            hops[i] = hops[i] + hops[i][:1]
        elif kind == 2:
            hops[i] = tuple(int(x) for x in gen.integers(-2, m + 2, size=gen.integers(0, 6)))
        elif kind == 3:
            j = int(gen.integers(len(hops)))
            hops[i], hops[j] = hops[j], hops[i]
        elif kind == 4:
            hops[i] = hops[i][::-1]
        else:
            hops[i] = (int(gen.integers(m)),)
    return dataclasses.replace(cert, hops=tuple(hops))


def test_checker_equals_the_tuple_checker_on_tampered_certificates():
    """Every message, in order, on 600 randomly tampered certificates."""
    gen = np.random.default_rng(28)
    for trial in range(600):
        n = int(gen.integers(3, 40))
        pts = random_points(trial + 1000, n, 2)
        t = tree_from_pairs(pts, random_tree_pairs(n, gen))
        _tour, cert = tree_cube_cycle(t, pts, anchor=int(gen.integers(n)))
        bad = tampered(cert, gen, n - 1)
        if gen.random() < 0.2:
            bad = dataclasses.replace(bad, anchor=int(gen.integers(n)))
        assert verify_double_cover(t, bad) == tuple_verify_double_cover(t, bad)


def test_a_hop_longer_than_its_tree_path_raises(monkeypatch):
    """Lengthen one cycle edge just past the triangle check's slack: the
    certificate check names that edge."""
    pts = random_points(41, 30, 3)
    t = build_mst(pts)
    _tour, cert = tree_cube_cycle(t, pts)
    j = 7
    span = sum(t.edges[i].weight for i in cert.hops[j])
    real = powertour.sekanina.tour_from_order

    def lengthened(points, order):
        tour = real(points, order)
        tour.weights[j] = span * (1.0 + 2e-9) + 2e-12
        return tour

    monkeypatch.setattr(powertour.sekanina, "tour_from_order", lengthened)
    a, b = cert.order[j], cert.order[j + 1]
    with pytest.raises(CertificateError,
                       match=rf"cycle edge \({a}, {b}\) longer than its tree path"):
        tree_cube_cycle(t, pts)
