"""Euclidean minimum spanning trees and threshold-restricted forests.

Both are Kruskal scans in (weight, min index, max index) order, so trees
are reproducible under ties.  The scan is Filter-Kruskal (Osipov, Sanders
and Singler, ALENEX 2009): it sorts only the pairs Kruskal can still
accept.  The upper-triangle pairs come once from the dense ``pairwise_sq``
matrix (the forest drops those above its cutoff there); then each round

* finds with ``np.partition`` the pivot weight of the lightest
  ``max(_ROUND_PER_POINT * n, _ROUND_FLOOR)`` remaining pairs,
* takes every remaining pair of weight <= pivot, so a tie is never split
  across two rounds, sorts them by (d^2, min, max) and scans them with
  the DSU,
* computes every point's DSU root and drops each remaining pair whose
  ends share one: the scan would reject it, as connectivity only grows.

Every later round holds only pairs heavier than every pair of this one,
and the dropped pairs are exactly rejections, so the accepted sequence is
the full sort's.  The scan stops after n - 1 unions or when no pair is
left.  Memory stays O(n^2) (the matrix plus 24 bytes per pair); time is
O(n^2) per round plus the sort of the pairs the rounds reach, a small
fraction of all pairs on uniform and clustered inputs.  Inputs of at
most ``_ROUND_FLOOR`` pairs (n <= 91) sort in one round, as a full sort
does.

The union-find is ``structures.DSU``, and this module is its only user.
The caller owns it and hands it to the scan, which makes every union; the
forest then reads its components and roots from that same DSU.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import Edge, PointSet, check_dense_size, pairwise_sq
from .structures import DSU, SpanningTree


#: Pairs sorted per filter round: this many per point, and at least
#: ``_ROUND_FLOOR``.
_ROUND_PER_POINT = 4
_ROUND_FLOOR = 4096


def _kruskal(points: PointSet, dsu: DSU, cut2: float = math.inf):
    """Yield each pair (u, v, d^2), u < v, that Kruskal accepts over the
    pairs of squared length <= ``cut2``, in (d^2, u, v) order.

    ``dsu`` starts with every point alone; the pair is joined in it before
    it is yielded."""
    n = points.n
    iu, iv = np.triu_indices(n, k=1)
    w = pairwise_sq(points.coords)[iu, iv]
    if cut2 < math.inf:
        keep = w <= cut2
        iu, iv, w = iu[keep], iv[keep], w[keep]
    m = max(_ROUND_PER_POINT * n, _ROUND_FLOOR)
    unions = 0
    while len(w):
        if len(w) > m:
            take = w <= np.partition(w, m - 1)[m - 1]
            u, v, d = iu[take], iv[take], w[take]
        else:
            u, v, d = iu, iv, w
        order = np.lexsort((v, u, d))
        for a, b, dd in zip(u[order].tolist(), v[order].tolist(), d[order].tolist()):
            if dsu.union(a, b):
                yield a, b, dd
                unions += 1
                if unions == n - 1:
                    return
        if len(d) == len(w):
            return  # no pair remains
        # every taken pair now joins one component, so this drops them too
        root = np.array([dsu.find(x) for x in range(n)])
        keep = root[iu] != root[iv]
        iu, iv, w = iu[keep], iv[keep], w[keep]


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights."""
    n = points.n
    check_dense_size(n)
    edges = tuple(Edge(u, v, math.sqrt(dd)) for u, v, dd in _kruskal(points, DSU(n)))
    return SpanningTree(tuple(range(n)), edges)


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
    check_dense_size(n)
    dsu = DSU(n)
    comp_edges: dict[int, list[Edge]] = {}
    for u, v, dd in _kruskal(points, dsu, cutoff * cutoff):
        comp_edges.setdefault(dsu.find(u), []).append(Edge(u, v, math.sqrt(dd)))
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
