"""Euclidean minimum spanning trees and threshold forests.

A point set has one MST.  ``build_mst`` builds it on its first call and
keeps it, read-only, for as long as the point set lives, as ``PointSet.sq``
keeps the d^2 matrix; mst-sekanina's tree, two-phase's forest and the
suites on one point set all read that one tree.  The threshold forest is
its cut: the MST pairs of d^2 <= cutoff^2, which by Kruskal's exchange
property are exactly the pairs Kruskal accepts among those within the
cutoff, grouped into trees.  Only ``build_threshold_forest`` takes a
cutoff; the scan below builds the whole tree.

The tree is the one a Kruskal scan over all pairs sorted by (d^2, min
index, max index) accepts, so it is reproducible under ties, and it lists
its edges in that order; so does every forest tree.  d^2 is the points'
own matrix, ``PointSet.sq``, which also refuses a point set too large for
it, and is never written.  d^2 orders pairs; ``edge_lengths`` measures
them: the tree's weights come from one call over its pairs, and the
forest's are a slice of them.

At every n the scan is Kruskal over the sorted prefix, then Prim (1957)
over the prefix's components.  The prefix is ``pairs.short_pairs``, the
greedy's too: the first pairs in (d^2, u, v) order, the full sort's exact
prefix.  So Kruskal over it accepts the MST's pairs up to the prefix's last
pair, in order, and every pair between the components it leaves comes
after the prefix's last pair in that order.  When it leaves one component
the scan returns the prefix's pairs as they are, with no Prim setup: on
equal points, whose prefix's first pairs are (0, 1) to (0, n - 1), on the
cube-vertex k = 12 input at n = 2000 and on most small inputs (231 of the
300 of the lemma1 mix, n = 3..50).  Otherwise it leaves few: 67 / 43 on
the uniform k = 3 / clustered k = 8 inputs at n = 2000, seed 1.  Prim then
reaches one whole component per step, with exact keys: each unreached
vertex keeps its lightest pair to the reached set, keyed (d^2, min, max),
and the component of the vertex of smallest key is reached next.  Its
members' rows, ascending and in strips of about ``_STRIP`` entries (the
rows of the unreached vertices instead, when they are fewer), lower the
keys; on a tie ``argmin`` takes the first row, the smallest member.  That
key is a total order on the pairs, so the MST is unique and the scan finds
the full sort's tree; Prim's pairs are lexsorted by (d^2, u, v) behind the
prefix's.  A one-vertex component is one row step, so with an empty prefix
the scan would be plain Prim, n - 1 row steps.  Time is O(n^2): one pass
over the upper triangle for the prefix, then each unreached key lowered
once per row reached.

Before reading the tree, the forest makes one pass over d^2: when no pair
lies within the cutoff it returns the n singletons with no MST.  Two-phase
meets this on every cube-vertex input, whose pairs are at distance >= 1
above its cutoff k^(-1/4) < 1.

At n = 2000 (seeds 1 to 3, best of 7 to 15, one BLAS thread on a 2-core
x86 machine) the scan takes 7-12 / 12-20 / 6-11 ms on the tour-large inputs
(uniform / clustered / cube vertices), where plain Prim took 25-45 / 25-38
/ 33-54 ms; the low ends are from a quiet machine, the high ends from a
loaded one.  Clustered inputs cost most: Prim reads the rows of every
component but the last, about 1700 of 2000.

Memory: the n x n float64 matrix (8 n^2 bytes), which the point set keeps.
The scan adds O(n): the prefix's pairs (at most 16 per point, 2 to 4 on
the inputs above), one strip of rows (the whole matrix below about 256
points) and the keys.  The kept tree is O(n).

The union-find is ``structures.DSU``: the prefix's Kruskal makes its
unions in one, and the forest joins the kept pairs in another; each reads
all roots at once off ``DSU.roots``.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import InputError
from .geometry import PointSet, edge_lengths, pairwise_sq
from .pairs import short_pairs
from .structures import DSU, SpanningTree


#: d^2 entries per strip of component rows (32 rows at n = 2000).
_STRIP = 2 ** 16

#: Each point set's MST, built by its first ``build_mst`` call and dropped with it.
_TREES: weakref.WeakKeyDictionary[PointSet, SpanningTree] = weakref.WeakKeyDictionary()


def _prim(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MST pairs as arrays (u, v), u < v, in (d^2, u, v) order: Kruskal
    over the sorted prefix, then Prim over the prefix's components.

    The prefix is the full sort's up to its last pair, so Kruskal over it
    accepts the MST's pairs up to that pair, in order, and every pair
    between its components comes after it.  Prim then reaches one whole
    component per step.  Each unreached vertex w keeps its lightest pair to
    the reached set, keyed (d^2, min, max): for one w, a tie on d^2 goes to
    the smaller other end.  The next component is the one holding the
    vertex of smallest key.  The unreached vertices are kept packed at the
    front of ``ids``, so the work shrinks as they do.  When the prefix
    spans, its pairs are the tree, and Prim is not set up."""
    n = len(d2)
    dsu = DSU(n)
    us, vs = [], []
    for a, b in zip(*short_pairs(d2, np.arange(n))):
        if dsu.union(a, b):
            us.append(a)
            vs.append(b)
            if len(us) == n - 1:
                break
    if len(us) == n - 1:
        return np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    comp = dsu.roots()
    label = comp.tolist()
    size = np.bincount(comp, minlength=n)
    grouped = np.argsort(comp, kind="stable")  # each component's members, ascending
    end, size = np.cumsum(size).tolist(), size.tolist()
    r = label[0]
    ids = np.flatnonzero(comp != r)  # ids[:m] are the m unreached vertices
    m = len(ids)
    key = np.full(m, np.inf)  # their lightest pair's d^2 ...
    par = np.zeros(m, dtype=np.intp)  # ... and its other end
    _lower(d2, grouped[end[r] - size[r]:end[r]], ids, key, par)
    pu, pv, ds = [], [], []
    while m:
        live = key[:m]
        i = live.argmin()
        dd = live[i]
        tie = (live == dd).nonzero()[0]
        if len(tie) > 1:
            a, b = ids[tie], par[tie]
            i = tie[(np.minimum(a, b) * n + np.maximum(a, b)).argmin()]
        w, p = int(ids[i]), int(par[i])
        pu.append(min(w, p))
        pv.append(max(w, p))
        ds.append(dd)
        r = label[w]
        if size[r] == 1:
            # fill w's slot with the last unreached vertex, and lower by row w
            m -= 1
            ids[i], key[i], par[i] = ids[m], key[m], par[m]
            row = d2[w].take(ids[:m])
            live, near = key[:m], par[:m]
            near[(row < live) | ((row == live) & (near > w))] = w
            np.minimum(live, row, out=live)
        else:
            keep = (comp.take(ids[:m]) != r).nonzero()[0]
            m = len(keep)
            ids[:m], key[:m], par[:m] = ids[keep], key[keep], par[keep]
            _lower(d2, grouped[end[r] - size[r]:end[r]], ids[:m], key[:m], par[:m])
    pu, pv = np.array(pu, dtype=np.intp), np.array(pv, dtype=np.intp)
    order = np.lexsort((pv, pu, ds))
    return (np.concatenate((np.array(us, dtype=np.intp), pu[order])),
            np.concatenate((np.array(vs, dtype=np.intp), pv[order])))


def _lower(d2: np.ndarray, reach: np.ndarray, ids: np.ndarray, key: np.ndarray,
           par: np.ndarray) -> None:
    """Lower the keys ``key`` and other ends ``par`` of the unreached
    vertices ``ids`` by the rows of ``reach``, the ascending members of the
    component just reached.  The rows are read in strips of about
    ``_STRIP`` entries, rows of whichever side is smaller, and ``argmin``'s
    first minimum is the smallest member on a tie."""
    step = max(1, _STRIP // len(d2))
    if len(reach) <= len(ids):
        for i in range(0, len(reach), step):
            rows = reach[i:i + step]
            block = d2.take(rows, axis=0)
            best = block.min(axis=0).take(ids)
            hit = (best <= key).nonzero()[0]
            near = rows[block.take(ids[hit], axis=1).argmin(axis=0)]
            best = best[hit]
            take = (best < key[hit]) | (par[hit] > near)
            par[hit[take]] = near[take]
            key[hit] = best
    else:
        for i in range(0, len(ids), step):
            block = d2.take(ids[i:i + step], axis=0).take(reach, axis=1)
            j = block.argmin(axis=1)
            best, near = block[np.arange(len(j)), j], reach[j]
            live, far = key[i:i + step], par[i:i + step]
            take = (best < live) | ((best == live) & (far > near))
            far[take] = near[take]
            np.minimum(live, best, out=live)


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights,
    its edges in (d^2, u, v) order.  The first call builds it; later calls
    on the same point set return that tree, whose arrays are read-only."""
    tree = _TREES.get(points)
    if tree is None:
        u, v = _prim(points.sq)
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
    root = dsu.roots().tolist()
    groups: dict[int, tuple[list[int], list[int]]] = {}  # members, edge indices
    for x, r in enumerate(root):
        groups.setdefault(r, ([], []))[0].append(x)
    for i, a in zip(keep.tolist(), u):
        groups[root[a]][1].append(i)
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
