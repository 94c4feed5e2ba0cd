"""Euclidean minimum spanning trees and threshold forests.

A point set has one MST.  ``build_mst`` builds it on its first call and
keeps it, read-only, for as long as the point set lives; mst-sekanina's
tree, two-phase's forest and the suites on one point set all read that one
tree.  The threshold forest is its cut: the MST pairs of d^2 <= cutoff^2,
which by Kruskal's exchange property are exactly the pairs Kruskal accepts
among those within the cutoff, grouped into trees.  Only
``build_threshold_forest`` takes a cutoff; the scan below builds the whole
tree.

The tree is the one a Kruskal scan over all pairs sorted by (d^2, min
index, max index) accepts, so it is reproducible under ties, and it lists
its edges in that order; so does every forest tree.  d^2 is the exact key
``geometry.sq_lengths``, whose square root ``edge_lengths`` gives the
tree's weights; candidates come from Gram products (``pairs.Gram``), and
only exact keys are compared, so duplicates key to exactly 0 and the tree
does not depend on the BLAS or on how the blocks are cut.

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
reaches one whole component per step: each unreached vertex keeps its
lightest pair to the reached set, keyed (d^2, min, max), and the component
of the vertex of smallest key is reached next.  The Gram block of its
members against the unreached vertices, in strips of about ``_STRIP``
entries, lowers the keys: per unreached vertex, the entries within twice
the margin of the strip's Gram minimum and within the margin of its key
are re-keyed exactly, and the least (d^2, other end) wins.  That key is a
total order on the pairs, so the MST is unique and the scan finds the full
sort's tree; Prim's pairs are lexsorted by (d^2, u, v) behind the
prefix's.  A one-vertex component is one Gram row, so with an empty prefix
the scan would be plain Prim, n - 1 row steps.  Time is O(n^2): one pass
over the upper triangle for the prefix, then each unreached key lowered
once per vertex reached.

Before reading the tree, the forest asks ``pairs.any_pair_within`` whether
any pair lies within the cutoff, one Gram strip at a time, stopping at the
first strip that holds one; when none does it returns the n singletons with
no MST.  Two-phase meets this on every cube-vertex input, whose pairs are
at distance >= 1 above its cutoff k^(-1/4) < 1.  A point set whose MST is
already kept skips the check.

At n = 2000 (seeds 0 and 1, best of 7, one BLAS thread on a 2-core x86
machine) ``build_mst`` takes 9.5-10 / 19-26 / 9.5-10 ms on the tour-large
inputs (uniform / clustered / cube vertices), where the Gram matrix and a
scan over its rows took 23-25 / 27-40 / 24-25 ms on the same runs.
Clustered inputs cost most: Prim opens the block of every component but
the last, about 1700 of 2000 rows.

Memory: O(n) beside one strip of about ``_STRIP`` Gram entries: the
prefix's pairs (at most 16 per point, 2 to 4 on the inputs above), the
Gram factors (2 n (k + 2) floats), the keys, and the candidates of one
strip.  No n x n array is built.  The kept tree is O(n).

The union-find is ``structures.DSU``: the prefix's Kruskal makes its
unions in one, and the forest joins the kept pairs in another; each reads
all roots at once off ``DSU.roots``.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import InputError
from .geometry import PointSet, edge_lengths, pairwise_sq, sq_lengths
from .pairs import Gram, any_pair_within, short_pairs
from .structures import DSU, SpanningTree


#: Gram entries per strip of a component block (32 rows at n = 2000).
_STRIP = 2 ** 16

#: Each point set's MST, built by its first ``build_mst`` call and dropped with it.
_TREES: weakref.WeakKeyDictionary[PointSet, SpanningTree] = weakref.WeakKeyDictionary()


def _prim(points: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The MST pairs as arrays (u, v), u < v, in (d^2, u, v) order: Kruskal
    over the sorted prefix, then Prim over the prefix's components.

    The prefix is the full sort's up to its last pair, so Kruskal over it
    accepts the MST's pairs up to that pair, in order, and every pair
    between its components comes after it.  Prim then reaches one whole
    component per step.  Each unreached vertex w keeps its lightest pair to
    the reached set, keyed (d^2, min, max) on exact keys: for one w, a tie
    on d^2 goes to the smaller other end.  The next component is the one
    holding the vertex of smallest key.  The unreached vertices are kept
    packed at the front of ``ids``, with their columns of the Gram factor
    ``right`` beside them, so the work shrinks as they do.  When the prefix
    spans, its pairs are the tree, and Prim is not set up."""
    n = points.n
    dsu = DSU(n)
    us, vs = [], []
    for a, b in zip(*short_pairs(points, np.arange(n))):
        if dsu.union(a, b):
            us.append(a)
            vs.append(b)
            if len(us) == n - 1:
                break
    if len(us) == n - 1:
        return np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    gram = Gram(points)
    comp = dsu.roots()
    label = comp.tolist()
    size = np.bincount(comp, minlength=n)
    grouped = np.argsort(comp, kind="stable")  # each component's members, ascending
    end, size = np.cumsum(size).tolist(), size.tolist()
    r = label[0]
    ids = np.flatnonzero(comp != r)  # ids[:m] are the m unreached vertices
    m = len(ids)
    right = gram.right[:, ids]
    key = np.full(m, np.inf)  # their lightest pair's exact d^2 ...
    par = np.zeros(m, dtype=np.intp)  # ... and its other end
    _lower(points, gram, grouped[end[r] - size[r]:end[r]], ids, right, key, par)
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
            # fill w's slot with the last unreached vertex, and lower by w alone
            m -= 1
            ids[i], key[i], par[i], right[:, i] = ids[m], key[m], par[m], right[:, m]
            gram_row = gram.left[w] @ right[:, :m]
            j = (gram_row <= gram.limit(key[:m])).nonzero()[0]
            _settle(points, ids, key, par, j, np.full(len(j), w))
        else:
            keep = (comp.take(ids[:m]) != r).nonzero()[0]
            m = len(keep)
            ids[:m], key[:m], par[:m] = ids[keep], key[keep], par[keep]
            right[:, :m] = right[:, keep]
            _lower(points, gram, grouped[end[r] - size[r]:end[r]], ids[:m], right[:, :m],
                   key[:m], par[:m])
    pu, pv = np.array(pu, dtype=np.intp), np.array(pv, dtype=np.intp)
    order = np.lexsort((pv, pu, ds))
    return (np.concatenate((np.array(us, dtype=np.intp), pu[order])),
            np.concatenate((np.array(vs, dtype=np.intp), pv[order])))


def _lower(points: PointSet, gram: Gram, reach: np.ndarray, ids: np.ndarray, right: np.ndarray,
           key: np.ndarray, par: np.ndarray) -> None:
    """Lower the exact keys ``key`` and other ends ``par`` of the unreached
    vertices ``ids`` (Gram columns ``right``) by the pairs to ``reach``, the
    ascending members of the component just reached.

    The Gram block of ``reach`` against ``ids`` is taken in strips of about
    ``_STRIP`` entries, run over the smaller side, each taking the larger
    side whole.  Per unreached vertex, its exact least pair to the strip
    has a Gram value within twice the margin of the strip's Gram minimum,
    and a pair that can lower or tie its key one within the margin of that
    key: only the entries within both are re-keyed (``_settle``)."""
    m = len(ids)
    if len(reach) <= m:
        rows, cols = max(1, _STRIP // m), m
    else:
        rows, cols = len(reach), max(1, _STRIP // len(reach))
    for a in range(0, len(reach), rows):
        near = reach[a:a + rows]
        left = gram.left[near]
        for b in range(0, m, cols):
            block = left @ right[:, b:b + cols]
            low = block.min(axis=0)
            hit = (low <= gram.limit(key[b:b + cols])).nonzero()[0]
            lim = np.minimum(gram.limit(low[hit], 2), gram.limit(key[hit + b]))
            r, c = (block[:, hit] <= lim).nonzero()
            _settle(points, ids, key, par, hit[c] + b, near[r])


def _settle(points: PointSet, ids: np.ndarray, key: np.ndarray, par: np.ndarray,
            j: np.ndarray, near: np.ndarray) -> None:
    """Re-key the candidate pairs (``ids[j]``, ``near``) exactly, and give
    each unreached slot j the least of its candidates and its own key,
    ordered by (d^2, other end)."""
    d2 = sq_lengths(points, ids[j], near)
    order = np.lexsort((near, d2, j))
    j, d2, near = j[order], d2[order], near[order]
    first = np.ones(len(j), dtype=bool)
    first[1:] = j[1:] != j[:-1]
    j, d2, near = j[first], d2[first], near[first]
    take = (d2 < key[j]) | ((d2 == key[j]) & (near < par[j]))
    key[j[take]] = d2[take]
    par[j[take]] = near[take]


def build_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the whole point set under Euclidean weights,
    its edges in (d^2, u, v) order.  The first call builds it; later calls
    on the same point set return that tree, whose arrays are read-only."""
    tree = _TREES.get(points)
    if tree is None:
        u, v = _prim(points)
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
    The cut compares the exact key ``sq_lengths`` with cutoff^2, not the
    weights with the cutoff, so a pair on the boundary falls where a
    Kruskal scan over the keys puts it, and a duplicate pair (key 0) is
    kept at cutoff 0.  When no MST is kept and no pair lies within the
    cutoff (cube vertices below unit distance), ``any_pair_within`` finds
    that in one streamed pass, and the n singletons come back with no MST.
    A negative or non-finite cutoff raises ``InputError``.
    """
    if not math.isfinite(cutoff) or cutoff < 0:
        raise InputError(f"cutoff must be finite and nonnegative, got {cutoff}")
    if points not in _TREES and not any_pair_within(points, cutoff * cutoff):
        return [SpanningTree((x,)) for x in range(points.n)]
    tree = build_mst(points)
    keep = (sq_lengths(points, tree.u, tree.v) <= cutoff * cutoff).nonzero()[0]
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
