"""Euclidean minimum spanning trees and threshold-restricted forests.

Both are Kruskal scans in (weight, min index, max index) order, so trees
are reproducible under ties, and every tree lists its edges in that scan
order.  Both read the points' own d^2 matrix, ``PointSet.sq``, which also
refuses a point set too large for it, and never write to it.  The scan
has two paths, picked on n alone, and both accept the full sort's pairs
in its order.  d^2 orders pairs; ``edge_lengths`` measures them: each
tree's weights come from one call over its accepted pairs.

Up to ``_PRIM_ABOVE`` points the scan is Filter-Kruskal (Osipov, Sanders
and Singler, ALENEX 2009): it sorts only the pairs Kruskal can still
accept.  The upper-triangle pairs come once from the matrix (the forest
drops those above its cutoff there); then each round

* finds with ``np.partition`` the pivot weight of the lightest
  ``_ROUND_PER_POINT * n`` remaining pairs,
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
The round size has no floor: as a round takes every pair up to its pivot,
a small round splits no tie either.

Above ``_PRIM_ABOVE`` points the scan is Prim (1957) with exact keys.
Each unreached vertex keeps its lightest pair to the reached set, keyed
(d^2, min, max), and the vertex of smallest key is reached next.  That key
is a total order on the pairs, so the MST is unique and Prim finds the full
sort's tree.  With a cutoff, a vertex whose key exceeds it starts a new
tree, so Prim finds exactly the MST pairs <= cutoff: the forest, by the
exchange property.  Its pairs are acyclic already, so they are lexsorted
by (d^2, u, v) straight into the tree's arrays, with no DSU pass, and the
forest's trees are the trees Prim grows.  Time is O(n^2) in n - 1
vectorised row steps; each step lowers the keys with ``np.minimum`` and
moves the parents that change with one boolean assignment.

Before either path, the forest makes one pass over d^2: when no pair lies
within the cutoff it returns the n singletons with no scan.  Two-phase
meets this on every cube-vertex input, whose pairs are at distance >= 1
above its cutoff k^(-1/4) < 1.

The size constant is the measured crossover.  With one BLAS thread on a
2-core x86 machine, the scan alone for the MST plus the two-phase forest,
best of 5, summed over uniform k = 3, clustered k = 8 and cube-vertex
k = 12 inputs, took 43 / 139 / 518 ms by Filter-Kruskal and 48 / 126 /
274 ms by Prim at n = 500 / 1000 / 2000.  Prim wins on the uniform inputs
and the clustered MST from n = 500, the clustered forest is about even up
to n = 1500, and Filter-Kruskal stays faster on cube vertices (60 vs
74 ms for the MST at n = 2000).

Memory: the n x n float64 matrix (8 n^2 bytes), which the point set keeps,
on both paths.  Filter-Kruskal adds 24 bytes per pair for its index and
weight arrays (up to 12 MB at n = 1000); Prim adds O(n).

The union-find is ``structures.DSU``, and Filter-Kruskal is its only
user.  ``_scan`` owns it and hands it to the rounds, which make every
union; the forest then names each point's tree by its root in that same
DSU.  Each tree's weights come from one ``edge_lengths`` call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .geometry import PointSet, edge_lengths, pairwise_sq
from .structures import DSU, SpanningTree


#: Pairs sorted per filter round: this many per point.
_ROUND_PER_POINT = 4

#: Above this many points the scan runs Prim; at or below it, Filter-Kruskal.
_PRIM_ABOVE = 1000


def _scan(d2: np.ndarray, cut2: float = math.inf):
    """The pairs (u, v), u < v, that Kruskal accepts over the pairs of
    squared length <= ``cut2``, as two arrays in (d^2, u, v) order, and a
    function naming each point's tree: equal names, one tree.

    ``d2`` is the points' ``PointSet.sq``.  Prim's pairs are lexsorted
    straight into that order and its trees are named as it grows them;
    the Filter-Kruskal scan names a point by its DSU root."""
    n = len(d2)
    if n > _PRIM_ABOVE:
        u, v, d, tree = _prim(d2, cut2)
        if len(d):
            order = np.lexsort((v, u, d))
            u, v = u[order], v[order]
        return u, v, tree.tolist().__getitem__
    dsu = DSU(n)
    pairs = np.array([(a, b) for a, b, _dd in _kruskal(d2, dsu, cut2)], dtype=np.intp)
    return *pairs.reshape(-1, 2).T, dsu.find


def _kruskal(d2: np.ndarray, dsu: DSU, cut2: float = math.inf):
    """Yield each pair (u, v, d^2), u < v, that Filter-Kruskal accepts over
    the pairs of squared length <= ``cut2``, in (d^2, u, v) order.

    ``d2`` is the points' ``PointSet.sq`` and ``dsu`` starts with every
    point alone; the pair is joined in it before it is yielded."""
    n = len(d2)
    unions = 0
    for u, v, d in _filter_rounds(d2, dsu, cut2):
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
    m = _ROUND_PER_POINT * n
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


def _prim(d2: np.ndarray, cut2: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The MST pairs of squared length <= ``cut2`` as arrays (u, v, d^2),
    u < v, in the order Prim reaches them, and each point's tree, numbered
    in the order Prim starts them.

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
    tree = np.zeros(n, dtype=np.intp)
    trees = 0
    us, vs, ds = [], [], []
    for m in range(n - 1, 0, -1):
        live = key[:m]
        i = live.argmin()
        dd = live[i]
        if dd <= cut2:
            tie = (live == dd).nonzero()[0]
            if len(tie) > 1:
                a, b = ids[tie], par[tie]
                i = tie[(np.minimum(a, b) * n + np.maximum(a, b)).argmin()]
            w, p = int(ids[i]), int(par[i])
            us.append(min(w, p))
            vs.append(max(w, p))
            ds.append(dd)
        else:
            w = int(ids[i])
            trees += 1
        tree[w] = trees
        # fill w's slot with the last unreached vertex
        last = m - 1
        ids[i] = ids[last]
        key[i] = key[last]
        par[i] = par[last]
        row = d2[w].take(ids[:last])
        live, near = key[:last], par[:last]
        near[(row < live) | ((row == live) & (near > w))] = w
        np.minimum(live, row, out=live)
    return (np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp),
            np.array(ds, dtype=np.float64), tree)


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights."""
    u, v, _tree_of = _scan(points.sq)
    return SpanningTree(range(points.n), u=u, v=v, weights=edge_lengths(points, u, v))


def build_threshold_forest(points: PointSet, cutoff: float) -> list[SpanningTree]:
    """Kruskal restricted to edges of weight <= cutoff.

    Returns one SpanningTree per resulting component (ordered by smallest
    member vertex), each listing its edges in the scan's (d^2, u, v) order;
    every inter-component distance exceeds the cutoff.  Component-wise this
    equals the subgraph of the full MST with edges <= cutoff (standard
    exchange property), so a cutoff of at least the diameter gives exactly
    ``[build_mst(points)]``.  When no pair lies within the cutoff (cube
    vertices below unit distance) one pass over d^2 finds that, and the n
    singletons come back without a scan.  A negative or non-finite cutoff
    raises ``InputError``.
    """
    if not math.isfinite(cutoff) or cutoff < 0:
        raise InputError(f"cutoff must be finite and nonnegative, got {cutoff}")
    d2 = points.sq
    if d2.min() > cutoff * cutoff:
        return [SpanningTree((x,)) for x in range(points.n)]
    u, v, tree_of = _scan(d2, cutoff * cutoff)
    # groups open in increasing order of their smallest member
    groups: dict[int, tuple[list[int], list[int]]] = {}  # members, edge indices
    for x in range(points.n):
        groups.setdefault(tree_of(x), ([], []))[0].append(x)
    for i, a in enumerate(u.tolist()):
        groups[tree_of(a)][1].append(i)
    w = edge_lengths(points, u, v)
    return [SpanningTree(members, u=u[es], v=v[es], weights=w[es]) if es else
            SpanningTree(members) for members, es in groups.values()]


def mst_ball_packing_check(t: SpanningTree, points: PointSet,
                           rel_tol: float = 1e-9) -> list[tuple[int, int]]:
    """Check pairwise disjointness of the open balls of radius |e|/4
    centered at each tree edge's midpoint.

    For a genuine MST the result is empty.  Returns the violating edge
    index pairs: (i, j) with |center_i - center_j| < (|e_i| + |e_j|) / 4.
    Tangent balls (equality) are disjoint because the balls are open.
    """
    if len(t.u) < 2:
        return []
    coords = points.coords
    centers = 0.5 * (coords[t.u] + coords[t.v])
    radii = 0.25 * t.weights
    dist = np.sqrt(pairwise_sq(centers))
    need = radii[:, None] + radii[None, :]
    slack = rel_tol * np.maximum(dist, need) + 1e-15
    bad = dist + slack < need
    # a zero-length edge has an empty open ball, disjoint from everything
    empty = radii == 0.0
    bad[empty, :] = False
    bad[:, empty] = False
    return list(zip(*(ix.tolist() for ix in np.nonzero(np.triu(bad, k=1)))))
