"""Euclidean minimum spanning trees and threshold-restricted forests.

Both are Kruskal scans in (weight, min index, max index) order, so trees
are reproducible under ties.  Both read the points' d^2 matrix from
``geometry.symmetric_sq`` and never write to it.  The scan has two paths,
picked on n alone, and both accept the full sort's pairs in its order.

Up to ``_PRIM_ABOVE`` points the scan is Filter-Kruskal (Osipov, Sanders
and Singler, ALENEX 2009): it sorts only the pairs Kruskal can still
accept.  The upper-triangle pairs come once from the matrix (the forest
drops those above its cutoff there); then each round

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
left.  Time is O(n^2) per round plus the sort of the pairs the rounds
reach, a small fraction of all pairs on uniform and clustered inputs.
Inputs of at most ``_ROUND_FLOOR`` pairs (n <= 91) sort in one round, as a
full sort does.

Above ``_PRIM_ABOVE`` points the scan is Prim (1957) with exact keys.
Each unreached vertex keeps its lightest pair to the reached set, keyed
(d^2, min, max), and the vertex of smallest key is reached next.  That key
is a total order on the pairs, so the MST is unique and Prim finds the full
sort's tree.  With a cutoff, a vertex whose key exceeds it starts a new
tree, so Prim finds exactly the MST pairs <= cutoff: the forest, by the
exchange property.  Its pairs are then sorted by (d^2, u, v) and scanned
as one round, so the DSU makes the same unions in the same order.  Time
is O(n^2) in n - 1 vectorised row steps.

The size constant is the measured crossover.  With one BLAS thread on a
2-core x86 machine, the scan alone for the MST plus the two-phase forest,
best of 5, summed over uniform k = 3, clustered k = 8 and cube-vertex
k = 12 inputs, took 43 / 139 / 518 ms by Filter-Kruskal and 48 / 126 /
274 ms by Prim at n = 500 / 1000 / 2000.  Prim wins on the uniform inputs
and the clustered MST from n = 500, the clustered forest is about even up
to n = 1500, and Filter-Kruskal stays faster on cube vertices (60 vs
74 ms for the MST at n = 2000).

Memory: the n x n float64 matrix (8 n^2 bytes) on both paths.
Filter-Kruskal adds 24 bytes per pair for its index and weight arrays
(up to 12 MB at n = 1000); Prim adds O(n).

The union-find is ``structures.DSU``, and this module is its only user.
The caller owns it and hands it to the scan, which makes every union; the
forest then reads its components and roots from that same DSU.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import Edge, PointSet, check_dense_size, pairwise_sq, symmetric_sq
from .structures import DSU, SpanningTree


#: Pairs sorted per filter round: this many per point, and at least
#: ``_ROUND_FLOOR``.
_ROUND_PER_POINT = 4
_ROUND_FLOOR = 4096

#: Above this many points the scan runs Prim; at or below it, Filter-Kruskal.
_PRIM_ABOVE = 1000


def _kruskal(d2: np.ndarray, dsu: DSU, cut2: float = math.inf):
    """Yield each pair (u, v, d^2), u < v, that Kruskal accepts over the
    pairs of squared length <= ``cut2``, in (d^2, u, v) order.

    ``d2`` is ``symmetric_sq`` of the points and ``dsu`` starts with every
    point alone; the pair is joined in it before it is yielded."""
    n = len(d2)
    rounds = [_prim(d2, cut2)] if n > _PRIM_ABOVE else _filter_rounds(d2, dsu, cut2)
    unions = 0
    for u, v, d in rounds:
        if not len(d):
            return
        order = np.lexsort((v, u, d))
        for a, b, dd in zip(u[order].tolist(), v[order].tolist(), d[order].tolist()):
            if dsu.union(a, b):
                yield a, b, dd
                unions += 1
                if unions == n - 1:
                    return


def _filter_rounds(d2: np.ndarray, dsu: DSU, cut2: float):
    """Filter-Kruskal's rounds of pairs (u, v, d^2), unsorted; each round is
    drawn after ``_kruskal`` has scanned the one before into ``dsu``."""
    n = len(d2)
    iu, iv = np.triu_indices(n, k=1)
    w = d2[iu, iv]
    if cut2 < math.inf:
        keep = w <= cut2
        iu, iv, w = iu[keep], iv[keep], w[keep]
    m = max(_ROUND_PER_POINT * n, _ROUND_FLOOR)
    while len(w):
        if len(w) > m:
            take = w <= np.partition(w, m - 1)[m - 1]
            yield iu[take], iv[take], w[take]
            if take.all():
                return
        else:
            yield iu, iv, w
            return
        # every taken pair now joins one component, so this drops them too
        root = np.array([dsu.find(x) for x in range(n)])
        keep = root[iu] != root[iv]
        iu, iv, w = iu[keep], iv[keep], w[keep]


def _prim(d2: np.ndarray, cut2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MST pairs of squared length <= ``cut2`` as arrays (u, v, d^2),
    u < v, in the order Prim reaches them.

    Each unreached vertex w keeps its lightest pair to the reached set,
    keyed (d^2, min, max): for one w, a tie on d^2 goes to the smaller
    other end.  The next vertex is the one of smallest key.  When that key exceeds
    ``cut2``, every pair leaving the reached set does too, and the vertex
    starts a new tree with no pair.  The unreached vertices are kept
    packed at the front of ``ids``, so the work shrinks as they do."""
    n = len(d2)
    ids = np.arange(1, n)  # ids[:m] are the m unreached vertices
    key = d2[0, 1:].copy()  # their lightest pair's d^2 ...
    par = np.zeros(n - 1, dtype=np.intp)  # ... and its other end
    us, vs, ds = [], [], []
    for m in range(n - 1, 0, -1):
        live = key[:m]
        i = int(live.argmin())
        dd = float(live[i])
        if dd <= cut2:
            tie = np.flatnonzero(live == dd)
            if len(tie) > 1:
                a, b = ids[tie], par[tie]
                i = int(tie[(np.minimum(a, b) * n + np.maximum(a, b)).argmin()])
            w, p = int(ids[i]), int(par[i])
            us.append(min(w, p))
            vs.append(max(w, p))
            ds.append(dd)
        else:
            w = int(ids[i])
        # fill w's slot with the last unreached vertex
        last = m - 1
        ids[i], key[i], par[i] = ids[last], key[last], par[last]
        row = d2[w].take(ids[:last])
        live, near = key[:last], par[:last]
        closer = (row < live) | ((row == live) & (near > w))
        np.copyto(live, row, where=closer)
        np.copyto(near, w, where=closer)
    return np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp), np.array(ds)


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights."""
    n = points.n
    check_dense_size(n)
    d2 = symmetric_sq(points.coords)
    edges = tuple(Edge(u, v, math.sqrt(dd)) for u, v, dd in _kruskal(d2, DSU(n)))
    return SpanningTree(tuple(range(n)), edges)


def check_cutoff(cutoff: float) -> None:
    """Raise ``InputError`` for a negative or non-finite forest cutoff."""
    if not math.isfinite(cutoff) or cutoff < 0:
        raise InputError(f"cutoff must be finite and nonnegative, got {cutoff}")


def build_threshold_forest(points: PointSet, cutoff: float) -> list[SpanningTree]:
    """Kruskal restricted to edges of weight <= cutoff.

    Returns one SpanningTree per resulting component (ordered by smallest
    member vertex); every inter-component distance exceeds the cutoff.
    Component-wise this equals the subgraph of the full MST with edges
    <= cutoff (standard exchange property).  The scan stops at the cutoff
    or after n - 1 unions, when a single tree spans every point and no
    later pair can be accepted.  A negative or non-finite cutoff raises
    ``InputError``.
    """
    check_cutoff(cutoff)
    check_dense_size(points.n)
    return forest_from_sq(symmetric_sq(points.coords), cutoff)


def forest_from_sq(d2: np.ndarray, cutoff: float) -> list[SpanningTree]:
    """``build_threshold_forest`` on ``d2``, the points' ``symmetric_sq``
    matrix, for a caller that reads the matrix too (``two_phase_tour``).
    The caller checks the cutoff and the size."""
    n = len(d2)
    dsu = DSU(n)
    comp_edges: dict[int, list[Edge]] = {}
    for u, v, dd in _kruskal(d2, dsu, cutoff * cutoff):
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
