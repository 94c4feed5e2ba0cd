"""Greedy minimum-edge path merging.

Starting from a collection of vertex-disjoint paths (by default: all
singletons; optionally warm-start paths given as a list of edge pairs),
repeatedly insert the cheapest edge joining endpoints of two distinct
paths until a single Hamiltonian path remains.  Ties break by (distance,
min index, max index).  That is a scan of all pairs sorted by (d^2, min,
max) that inserts each pair still joinable - Kruskal's scan with a degree
rule - and ``sorted_scan_greedy`` in ``tests/test_greedy.py`` is that scan,
the engine's oracle.  The engine runs it in two stages.

The sorted prefix, ``pairs.short_pairs``, which the MST scan also starts
from: every pair u < v of path endpoints with d^2 <= tau that is joinable
at the start, in (d^2, u, v) order; each pair still joinable is inserted.
That is exactly the scan's prefix up to tau: a pair that is not joinable
once (an endpoint became interior, or the two paths merged) never becomes
joinable again, since degrees only grow and paths only merge, so the pairs
left out and the pairs skipped are ones the scan skips too; and afterwards
every joinable pair has d^2 > tau.  So the path and the trace do not
depend on tau, nor on whether the prefix is taken at all: below 32
endpoints (a warm start of a few long paths, as in two-phase on clustered
inputs) it is empty and the heap does every join.  On uniform, clustered
and cube-vertex inputs most paths are joined here.

The lazy heap finishes the scan, with one entry per path endpoint u: u's
nearest joinable partner v, keyed by (d^2, min(u, v), max(u, v)).  It
reads endpoints and far ends from the system's own endpoint map,
``PathSystem.other_end``, and keeps no copy of it.  A popped entry whose
u is no longer an endpoint is dropped; one whose partner is no longer
joinable is recomputed from u's row and pushed back; otherwise the pair
is inserted.  By the same rule every stored key is a lower bound on its
endpoint's current best key, so the first valid pop is the global minimum
- the same sequence as recomputing the minimum per step, which
``minimum_join_edge`` in ``tests/test_greedy.py`` implements as the replay
oracle.  Within one row, ``argmin`` returns the first minimum, the
smallest partner index, which is also the smallest (min, max) pair.

Cost: the points' one dense d^2 matrix, ``PointSet.sq``: ``pairwise_sq``,
which is exactly symmetric as built, so row u holds d2[min(u, v), max(u, v)]
for every v - every key and tie then matches a scan of the sorted upper
triangle bit for bit.  The greedy only reads it, and only while two or more
paths remain, so in ``two_phase_tour`` it reads the matrix the threshold
forest built.  The prefix reads the upper triangle of the endpoint rows
once and holds one strip of about 2^16 entries and O(n) pairs (see
``pairs``).  Each heap entry costs one O(n) row and an ``argmin``: at
n = 2000 the heap makes about 400-1300 such scans after the prefix,
against 5300-8200 without it, and a cold run takes about 12-15 ms, 5-6 of
them in the prefix, against 28-40 ms for the heap alone (2-core x86-64,
one BLAS thread).  d^2 orders
pairs; ``edge_lengths`` measures them: the trace's weights come from one
call over the inserted pairs.  The trace is an ``EdgeList``, and the
counters below read its ``weights`` array, as they do a path's or a tour's.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

import numpy as np

from .errors import InputError
# pairwise_sq stays bound here: the benchmark's tracer test reads greedy.pairwise_sq
from .geometry import PointSet, pairwise_sq  # noqa: F401
from .pairs import short_pairs
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
        far_end = np.fromiter(far, np.intp, n)
        # added to a row: inf masks the interior vertices
        blocked = np.where(far_end < 0, np.inf, 0.0)
        # the sorted prefix: the scan up to tau
        for a, b in zip(*short_pairs(d2, blocked, far_end)):
            if far[a] < 0 or far[b] < 0 or far[a] == b:
                continue
            system.add_path_edge(a, b)
            needed -= 1
            if needed == 0:
                break
        blocked[np.fromiter(far, np.intp, n) < 0] = np.inf

        # the lazy heap: the rest of the scan
        heap = [_scan_row(d2, blocked, far, v) for v in range(n) if far[v] >= 0] if needed else []
        heapq.heapify(heap)
        while needed > 0:
            _dd, a, b, u, v = heapq.heappop(heap)
            if far[u] < 0:
                continue
            if far[v] < 0 or far[u] == v:
                heapq.heappush(heap, _scan_row(d2, blocked, far, u))
                continue
            system.add_path_edge(a, b)
            needed -= 1
            for w in (u, v):
                if far[w] < 0:
                    blocked[w] = np.inf
            if far[u] >= 0 and needed > 0:
                heapq.heappush(heap, _scan_row(d2, blocked, far, u))

    (walk,) = system.paths()
    return path_from_order(points, walk), EdgeList(**edge_arrays(points, system.edge_pairs[warm:]))


def _scan_row(d2: np.ndarray, blocked: np.ndarray, far: list[int], u: int
              ) -> tuple[float, int, int, int, int]:
    """Heap entry (d^2, min, max, u, v) for u's nearest joinable v: one
    full-row scan."""
    row = d2[u] + blocked
    row[far[u]] = np.inf
    v = int(row.argmin())
    return (float(d2[u, v]), *((u, v) if u < v else (v, u)), u, v)


def greedy_edge_count_by_length(trace: EdgeList, j: float) -> int:
    """Number of trace edges with squared length >= j, read off the
    trace's (or any structure's) ``weights``.

    On cube-vertex inputs squared lengths are integers, so the comparison
    carries a 1e-9 slack against float noise.
    """
    return int(np.count_nonzero(trace.weights * trace.weights >= j - 1e-9))


#: Squared-length thresholds, as fractions of k, between the four buckets.
CLASS_THRESHOLDS = (1.0 / 5.0, 3.0 / 5.0, 2.0 / 3.0)


def classify_edges(edges, k: int) -> dict[str, int]:
    """Bucket a structure's edges by squared length, read off its
    ``weights``: short <= k/5 < medium <= 3k/5 < long <= 2k/3 < very_long.
    Diagnostic only."""
    sq = edges.weights * edges.weights
    bucket = np.full(len(sq), 3)
    for i in (2, 1, 0):  # the first threshold an edge is under wins
        bucket[sq <= CLASS_THRESHOLDS[i] * k + 1e-9] = i
    counts = np.bincount(bucket, minlength=4).tolist()
    return dict(zip(("short", "medium", "long", "very_long"), counts))
