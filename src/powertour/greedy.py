"""Greedy minimum-edge path merging.

Starting from a collection of vertex-disjoint paths (by default: all
singletons; optionally warm-start paths given as a list of edge pairs),
repeatedly insert the cheapest edge joining endpoints of two distinct
paths until a single Hamiltonian path remains.  Ties break by (distance,
min index, max index).

The engine keeps a lazy heap with one entry per path endpoint u: u's
nearest joinable partner v, keyed by (d^2, min(u, v), max(u, v)).  It
reads endpoints and far ends from the system's own endpoint map,
``PathSystem.other_end``, and keeps no copy of it.  A popped entry whose
u is no longer an endpoint is dropped; one whose partner is no longer
joinable is recomputed from u's row and pushed back; otherwise the pair
is inserted.  This is exact because a pair, once invalid (an endpoint
became interior, or the paths merged), never becomes valid again:
degrees only grow and paths only merge.  So every stored key is a lower
bound on its endpoint's current best key, and the first valid
pop is the global minimum - the same sequence as recomputing the minimum
per step, which ``minimum_join_edge`` in ``tests/test_greedy.py``
implements as the replay oracle.  Within one row, ``argmin`` returns the
first minimum, the smallest partner index, which is also the smallest
(min, max) pair.

Cost: the points' one dense d^2 matrix, ``PointSet.sq``: ``pairwise_sq``
with its upper triangle mirrored onto the lower one, so that row u holds
d2[min(u, v), max(u, v)] for every v - every key and tie then matches a
scan of the sorted upper triangle bit for bit.  The greedy only reads it,
and only while two or more paths remain, so in ``two_phase_tour`` it reads
the matrix the threshold forest built.  No triangle-index or sort arrays;
each recomputed entry costs one O(n) row and an ``argmin``.  d^2 orders
pairs; ``edge_lengths`` measures them: the trace's weights come from one
call over the inserted pairs.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from .errors import InputError
# pairwise_sq stays bound here: the benchmark's tracer test reads greedy.pairwise_sq
from .geometry import Edge, PointSet, pairwise_sq  # noqa: F401
from .structures import EdgeList, HamPath, PathSystem, edge_arrays, path_from_order


def greedy_ham_path(points: PointSet, warm_start: Iterable[tuple[int, int]] = ()
                    ) -> tuple[HamPath, EdgeList]:
    """Run the greedy path-merging construction to a Hamiltonian path.

    ``warm_start`` is a list of (u, v) edge pairs that form vertex-disjoint
    paths; the greedy joins those paths and the remaining singletons.  A
    pair with a non-integer id or one out of range, a self-loop, or one that
    would give a vertex degree 3 or close a cycle raises ``InputError``
    before any distance is computed.
    Returns the path and the trace of inserted edges in insertion order,
    an ``EdgeList`` (warm-start edges are not part of the trace).  Each
    trace edge was minimal among all edges joining endpoints of distinct
    paths at its step.
    """
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    system = PathSystem.from_pairs(n, warm_start)
    warm = len(system.edge_pairs)
    needed = system.component_count() - 1
    if needed > 0:
        d2 = points.sq
        far = system.other_end
        # added to a row: inf masks the interior vertices
        blocked = np.array([0.0 if f >= 0 else np.inf for f in far])

        def nearest(u: int) -> tuple[float, int, int, int, int]:
            """Heap entry (d^2, min, max, u, v) for u's nearest joinable v."""
            row = d2[u] + blocked
            row[far[u]] = np.inf
            v = int(row.argmin())
            return (float(d2[u, v]), *((u, v) if u < v else (v, u)), u, v)

        heap = [nearest(v) for v in range(n) if far[v] >= 0]
        heapq.heapify(heap)
        while needed > 0:
            _dd, a, b, u, v = heapq.heappop(heap)
            if far[u] < 0:
                continue
            if far[v] < 0 or far[u] == v:
                heapq.heappush(heap, nearest(u))
                continue
            system.add_path_edge(a, b)
            needed -= 1
            for w in (u, v):
                if far[w] < 0:
                    blocked[w] = np.inf
            if far[u] >= 0 and needed > 0:
                heapq.heappush(heap, nearest(u))

    (walk,) = system.paths()
    return path_from_order(points, walk), EdgeList(**edge_arrays(points, system.edge_pairs[warm:]))


def greedy_edge_count_by_length(trace: Iterable[Edge], j: float) -> int:
    """Number of trace edges with squared length >= j.

    On cube-vertex inputs squared lengths are integers, so the comparison
    carries a 1e-9 slack against float noise.
    """
    return sum(1 for e in trace if e.weight * e.weight >= j - 1e-9)


#: Squared-length thresholds, as fractions of k, between the four buckets.
CLASS_THRESHOLDS = (1.0 / 5.0, 3.0 / 5.0, 2.0 / 3.0)


def classify_edges(edges, k: int) -> dict[str, int]:
    """Bucket edges by squared length: short <= k/5 < medium <= 3k/5 <
    long <= 2k/3 < very_long.  Diagnostic only."""
    if hasattr(edges, "edges"):
        edges = edges.edges
    t1, t2, t3 = (c * k for c in CLASS_THRESHOLDS)
    counts = {"short": 0, "medium": 0, "long": 0, "very_long": 0}
    for e in edges:
        sq = e.weight * e.weight
        if sq <= t1 + 1e-9:
            counts["short"] += 1
        elif sq <= t2 + 1e-9:
            counts["medium"] += 1
        elif sq <= t3 + 1e-9:
            counts["long"] += 1
        else:
            counts["very_long"] += 1
    return counts
