"""Euclidean minimum spanning trees and threshold forests.

A point set has one MST.  ``build_mst`` builds it on its first call and
keeps it, read-only, for as long as the point set lives, as ``PointSet.sq``
keeps the d^2 matrix; mst-sekanina's tree, two-phase's forest and the
suites on one point set all read that one tree.  The threshold forest is
its cut: the MST pairs of d^2 <= cutoff^2, which by Kruskal's exchange
property are exactly the pairs Kruskal accepts among those within the
cutoff, grouped into trees.  Only ``build_threshold_forest`` takes a
cutoff; the scan engines below build the whole tree.

The tree is the one a Kruskal scan over all pairs sorted by (d^2, min
index, max index) accepts, so it is reproducible under ties, and it lists
its edges in that order; so does every forest tree.  d^2 is the points'
own matrix, ``PointSet.sq``, which also refuses a point set too large for
it, and is never written.  d^2 orders pairs; ``edge_lengths`` measures
them: the tree's weights come from one call over its pairs, and the
forest's are a slice of them.

Up to ``_PRIM_ABOVE`` points the scan is Filter-Kruskal (Osipov, Sanders
and Singler, ALENEX 2009): it sorts only the pairs Kruskal can still
accept.  The upper-triangle pairs come once from the matrix; then each
round

* finds with ``np.partition`` the pivot weight of the lightest
  ``_ROUND_PER_POINT * n`` remaining pairs,
* takes every remaining pair of weight <= pivot, so a tie is never split
  across two rounds, sorts them by (d^2, min, max) and scans them with
  the DSU,
* computes every point's DSU root and drops each remaining pair whose
  ends share one: the scan would reject it, as connectivity only grows.

Every later round holds only pairs heavier than every pair of this one,
and the dropped pairs are exactly rejections, so the accepted sequence is
the full sort's.  The scan stops after n - 1 unions.  Time is O(n^2) per
round plus the sort of the pairs the rounds reach, a small fraction of
all pairs on uniform and clustered inputs.  The round size has no floor:
as a round takes every pair up to its pivot, a small round splits no tie
either.

Above ``_PRIM_ABOVE`` points the scan is Prim (1957) with exact keys.
Each unreached vertex keeps its lightest pair to the reached set, keyed
(d^2, min, max), and the vertex of smallest key is reached next.  That key
is a total order on the pairs, so the MST is unique and Prim finds the full
sort's tree; its pairs are lexsorted by (d^2, u, v) into the tree's
arrays.  Time is O(n^2) in n - 1 vectorised row steps; each step lowers
the keys with ``np.minimum`` and moves the parents that change with one
boolean assignment.

Before reading the tree, the forest makes one pass over d^2: when no pair
lies within the cutoff it returns the n singletons with no MST.  Two-phase
meets this on every cube-vertex input, whose pairs are at distance >= 1
above its cutoff k^(-1/4) < 1.

The size constant is the measured crossover for the MST alone.  With one
BLAS thread on a 2-core x86 machine, the scan summed over uniform k = 3,
clustered k = 8 and cube-vertex k = 12 inputs (three seeds each, best of
7, two runs) took 12-18 / 21-30 / 33-35 / 47-51 / 88-95 / 198-231 ms by
Filter-Kruskal and 15-27 / 24-40 / 32-41 / 43-49 / 67-70 / 114-149 ms by
Prim at n = 200 / 300 / 400 / 500 / 700 / 1000.  Prim wins the clustered
inputs at every n and the uniform ones from about n = 500; Filter-Kruskal
stays faster on cube vertices, whose keys tie in hundreds.

Memory: the n x n float64 matrix (8 n^2 bytes), which the point set keeps,
on both paths.  Filter-Kruskal adds 24 bytes per pair for its index and
weight arrays (3 MB at n = 500); Prim adds O(n).  The kept tree is O(n).

The union-find is ``structures.DSU``: Filter-Kruskal's rounds make their
unions in one, and the forest groups the kept pairs into trees with
another.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import InputError
from .geometry import PointSet, edge_lengths, pairwise_sq
from .structures import DSU, SpanningTree


#: Pairs sorted per filter round: this many per point.
_ROUND_PER_POINT = 4

#: Above this many points the MST scan runs Prim; at or below it, Filter-Kruskal.
_PRIM_ABOVE = 500

#: Each point set's MST, built by its first ``build_mst`` call and dropped with it.
_TREES: weakref.WeakKeyDictionary[PointSet, SpanningTree] = weakref.WeakKeyDictionary()


def _kruskal(d2: np.ndarray):
    """Yield each MST pair (u, v), u < v, in (d^2, u, v) order, as
    Filter-Kruskal accepts it.  ``d2`` is the points' ``PointSet.sq``."""
    n = len(d2)
    dsu = DSU(n)
    unions = 0
    for u, v, d in _filter_rounds(d2, dsu):
        order = np.lexsort((v, u, d))
        for a, b in zip(u[order].tolist(), v[order].tolist()):
            if dsu.union(a, b):
                yield a, b
                unions += 1
                if unions == n - 1:
                    return


def _filter_rounds(d2: np.ndarray, dsu: DSU):
    """Filter-Kruskal's rounds of pairs (u, v, d^2), unsorted; each round is
    drawn after ``_kruskal`` has scanned the one before into ``dsu``."""
    n = len(d2)
    iu, iv = np.triu_indices(n, k=1)
    w = d2[iu, iv]
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


def _prim(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MST pairs as arrays (u, v), u < v, lexsorted into (d^2, u, v)
    order from the order Prim reaches them.

    Each unreached vertex w keeps its lightest pair to the reached set,
    keyed (d^2, min, max): for one w, a tie on d^2 goes to the smaller
    other end.  The next vertex is the one of smallest key.  The unreached
    vertices are kept packed at the front of ``ids``, so the work shrinks
    as they do."""
    n = len(d2)
    ids = np.arange(1, n)  # ids[:m] are the m unreached vertices
    key = d2[0, 1:].copy()  # their lightest pair's d^2 ...
    par = np.zeros(n - 1, dtype=np.intp)  # ... and its other end
    us, vs, ds = [], [], []
    for m in range(n - 1, 0, -1):
        live = key[:m]
        i = live.argmin()
        dd = live[i]
        tie = (live == dd).nonzero()[0]
        if len(tie) > 1:
            a, b = ids[tie], par[tie]
            i = tie[(np.minimum(a, b) * n + np.maximum(a, b)).argmin()]
        w, p = int(ids[i]), int(par[i])
        us.append(min(w, p))
        vs.append(max(w, p))
        ds.append(dd)
        # fill w's slot with the last unreached vertex
        last = m - 1
        ids[i] = ids[last]
        key[i] = key[last]
        par[i] = par[last]
        row = d2[w].take(ids[:last])
        live, near = key[:last], par[:last]
        near[(row < live) | ((row == live) & (near > w))] = w
        np.minimum(live, row, out=live)
    u, v = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    order = np.lexsort((v, u, ds)) if n > 1 else slice(None)
    return u[order], v[order]


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights,
    its edges in (d^2, u, v) order.  The first call builds it; later calls
    on the same point set return that tree, whose arrays are read-only."""
    tree = _TREES.get(points)
    if tree is None:
        if points.n > _PRIM_ABOVE:
            u, v = _prim(points.sq)
        else:
            u, v = np.array(list(_kruskal(points.sq)), dtype=np.intp).reshape(-1, 2).T
        tree = SpanningTree(range(points.n), u=u, v=v, weights=edge_lengths(points, u, v))
        for a in (tree.u, tree.v, tree.weights):
            a.flags.writeable = False
        _TREES[points] = tree
    return tree


def build_threshold_forest(points: PointSet, cutoff: float) -> list[SpanningTree]:
    """The MST's pairs of d^2 <= cutoff^2, as one SpanningTree per
    component (ordered by smallest member vertex), each listing its edges
    in the MST's (d^2, u, v) order.

    By Kruskal's exchange property this is Kruskal restricted to the pairs
    within the cutoff, so every inter-component distance exceeds it, and a
    cutoff of at least the diameter gives exactly ``[build_mst(points)]``.
    The cut compares the key, ``points.sq``, with cutoff^2, not the weights
    with the cutoff, so a pair on the boundary falls where a Kruskal scan
    over the keys puts it.  When no pair lies within
    the cutoff (cube vertices below unit distance) one pass over d^2 finds
    that, and the n singletons come back with no MST.  A negative or
    non-finite cutoff raises ``InputError``.
    """
    if not math.isfinite(cutoff) or cutoff < 0:
        raise InputError(f"cutoff must be finite and nonnegative, got {cutoff}")
    d2 = points.sq
    if d2.min() > cutoff * cutoff:
        return [SpanningTree((x,)) for x in range(points.n)]
    tree = build_mst(points)
    keep = (d2[tree.u, tree.v] <= cutoff * cutoff).nonzero()[0]
    u, v = tree.u[keep].tolist(), tree.v[keep].tolist()
    dsu = DSU(points.n)
    for a, b in zip(u, v):
        dsu.union(a, b)
    # groups open in increasing order of their smallest member
    groups: dict[int, tuple[list[int], list[int]]] = {}  # members, edge indices
    for x in range(points.n):
        groups.setdefault(dsu.find(x), ([], []))[0].append(x)
    for i, a in zip(keep.tolist(), u):
        groups[dsu.find(a)][1].append(i)
    return [SpanningTree(members, u=tree.u[es], v=tree.v[es], weights=tree.weights[es])
            if es else SpanningTree(members) for members, es in groups.values()]


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
