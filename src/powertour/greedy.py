"""Greedy minimum-edge path merging.

Starting from a collection of vertex-disjoint paths (by default: all
singletons; optionally warm-start paths given as a list of edge pairs),
repeatedly insert the cheapest edge joining endpoints of two distinct
paths until a single Hamiltonian path remains.  Ties break by (distance,
min index, max index).  That is a scan of all pairs sorted by (d^2, min,
max) that inserts each pair still joinable - Kruskal's scan with a degree
rule - and ``sorted_scan_greedy`` in ``tests/test_greedy.py`` is that scan,
the engine's oracle; ``minimum_join_edge`` there recomputes the minimum
per step, the replay oracle.

The engine runs the scan in rounds of the sorted prefix,
``pairs.short_pairs``, which the MST scan also starts from.  A round reads
the endpoints and far ends off the system's own endpoint map,
``PathSystem.other_end``, takes the prefix - the first pairs u < v, in
(d^2, u, v) order, of those joinable at the round's start - and inserts
each pair still joinable, in order.  A pair that is not joinable once (an
endpoint became interior, or the two paths merged) never becomes joinable
again, since degrees only grow and paths only merge.  So the pairs a round
skips, and the pairs before its last one that it never held, are ones the
scan skips too, and the next round continues the scan exactly where this
one stopped: the path and the trace do not depend on where a prefix ends.
A round's first pair is the smallest joinable pair, so every round joins
two paths; one that joins none raises ``CertificateError``.  A cold run
at n = 2000 takes 3 to 5 rounds on uniform, clustered and cube-vertex
inputs.  Exact duplicates take more, since a prefix holds at most 16 pairs
per endpoint: 220 rounds on 2000 equal points, 28 on 2000 random vertices
of {0,1}^3.

Cost: no n x n array.  Each round is one ``short_pairs`` call: the Gram
product of the upper triangle of the endpoint rows, at most once, in
strips of about 2^16 entries, O(n) pairs, and exact keys
``geometry.sq_lengths`` for the candidates, so every key and tie matches a
scan of the full sort bit for bit.  In ``two_phase_tour`` the warm start
leaves few endpoints, and its rounds read only their rows.  At n = 2000 a
cold run takes about 9.5-14 ms on those inputs (0.5 s on equal points),
where reading a prebuilt Gram matrix with its build took 26-29 ms (2-core
x86-64, one BLAS thread).  The trace's weights come from one
``edge_lengths`` call over the inserted pairs, the square roots of the
keys the rounds compared.  The trace is an ``EdgeList``, and the counters
below read its ``weights`` array, as they do a path's or a tour's.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import CertificateError, InputError
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
    far = system.other_end
    while needed > 0:
        # one round: the scan's next pairs, from where the last round stopped
        far_end = np.fromiter(far, np.intp, n)
        left = needed
        for a, b in zip(*short_pairs(points, far_end)):
            if far[a] < 0 or far[b] < 0 or far[a] == b:
                continue
            system.add_path_edge(a, b)
            needed -= 1
            if needed == 0:
                break
        if needed == left:
            raise CertificateError(f"a round of the sorted prefix joined none of {left + 1} paths")
    (walk,) = system.paths()
    return path_from_order(points, walk), EdgeList(**edge_arrays(points, system.edge_pairs[warm:]))


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
