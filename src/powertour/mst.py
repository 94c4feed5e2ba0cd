"""Euclidean minimum spanning trees and threshold-restricted forests.

Kruskal over all n(n-1)/2 pairs, O(n^2 log n); desk scale targets
n <= 5000.  Tie-breaking among equal-weight edges is lexicographic by
(weight, min index, max index) so trees are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import Edge, PointSet, pairwise_sq
from .structures import SpanningTree


#: Pairs converted to Python scalars at a time by ``_sorted_pairs``.
_BLOCK = 1 << 13


def _sorted_pairs(points: PointSet):
    """Yield all index pairs u < v with squared distances, in (d, u, v) order.

    Pairs become Python scalars one block at a time, so a Kruskal scan
    that stops early pays only for the blocks it reaches.
    """
    n = points.n
    d2 = pairwise_sq(points.coords)
    iu, iv = np.triu_indices(n, k=1)
    d2 = d2[iu, iv]
    order = np.lexsort((iv, iu, d2))
    iu, iv, d2 = iu[order], iv[order], d2[order]
    for s in range(0, len(d2), _BLOCK):
        block = slice(s, s + _BLOCK)
        yield from zip(iu[block].tolist(), iv[block].tolist(), d2[block].tolist())


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights."""
    n = points.n
    if n == 1:
        return SpanningTree((0,), ())
    dsu = _DSU(n)
    edges = []
    for u, v, dd in _sorted_pairs(points):
        if dsu.union(u, v):
            edges.append(Edge(u, v, math.sqrt(dd)))
            if len(edges) == n - 1:
                break
    return SpanningTree(tuple(range(n)), tuple(edges))


def build_threshold_forest(points: PointSet, cutoff: float) -> list[SpanningTree]:
    """Kruskal restricted to edges of weight <= cutoff.

    Returns one SpanningTree per resulting component (ordered by smallest
    member vertex); every inter-component distance exceeds the cutoff.
    Component-wise this equals the subgraph of the full MST with edges
    <= cutoff (standard exchange property).  The scan stops at the cutoff
    or after n - 1 unions, when a single tree spans every point and no
    later pair can be accepted.
    """
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    n = points.n
    cut2 = cutoff * cutoff
    dsu = _DSU(n)
    comp_edges: dict[int, list[Edge]] = {}
    if n > 1:
        unions = 0
        for u, v, dd in _sorted_pairs(points):
            if dd > cut2:
                break
            if dsu.union(u, v):
                comp_edges.setdefault(dsu.find(u), []).append(Edge(u, v, math.sqrt(dd)))
                unions += 1
                if unions == n - 1:
                    break
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(dsu.find(v), []).append(v)
    # a tree lists its roots' edge lists in the order those roots got their first edge
    tree_edges: dict[int, list[Edge]] = {}
    for r, es in comp_edges.items():
        tree_edges.setdefault(dsu.find(r), []).extend(es)
    # groups were opened in increasing order of their smallest member
    return [SpanningTree(tuple(members), tuple(tree_edges.get(root, ())))
            for root, members in groups.items()]


def mst_ball_packing_check(t: SpanningTree, points: PointSet,
                           rel_tol: float = 1e-9) -> list[tuple[int, int]]:
    """Check pairwise disjointness of the open balls of radius |e|/4
    centered at each tree edge's midpoint.

    For a genuine MST the result is empty.  Returns the violating edge
    index pairs: (i, j) with |center_i - center_j| < (|e_i| + |e_j|) / 4.
    Tangent balls (equality) are disjoint because the balls are open.
    """
    m = len(t.edges)
    if m < 2:
        return []
    coords = points.coords
    centers = np.empty((m, points.k))
    radii = np.empty(m)
    for i, e in enumerate(t.edges):
        centers[i] = 0.5 * (coords[e.u] + coords[e.v])
        radii[i] = 0.25 * e.weight
    dist = np.sqrt(pairwise_sq(centers))
    need = radii[:, None] + radii[None, :]
    slack = rel_tol * np.maximum(dist, need) + 1e-15
    bad = dist + slack < need
    # a zero-length edge has an empty open ball, disjoint from everything
    empty = radii == 0.0
    bad[empty, :] = False
    bad[:, empty] = False
    out = []
    for i, j in zip(*np.nonzero(np.triu(bad, k=1))):
        out.append((int(i), int(j)))
    return out
