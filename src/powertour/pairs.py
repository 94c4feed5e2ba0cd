"""The sorted prefix of a pair scan: the first joinable pairs, in scan order.

The MST and the greedy both scan all pairs sorted by (d^2, min index, max
index) and act on each pair still joinable: Kruskal joins two trees, the
greedy two paths.  Both scans take their pairs from ``short_pairs``, after
Filter-Kruskal's idea (sort only the pairs that can still matter, Osipov,
Sanders and Singler, ALENEX 2009): the MST once, then Prim where the
prefix does not span; the greedy in rounds until one path is left.  One
pass over d^2, one strip of rows at a time, collects every pair u < v of
joinable rows with d^2 <= tau that is not the pair ``far_end`` forbids;
they come in (u, v) order, so a stable sort by d^2 puts them in (d^2, u,
v) order.  That is exactly a prefix of the full sort, so the caller's
result does not depend on where it ends.

tau starts at about the 98th percentile of the nearest joinable d^2 of a
strided sample of at most about 256 rows (far ends masked), taken with
``np.partition``.  While more than 16 pairs per row are held, the budget
cut keeps the first half of them by (d^2, u, v) rank - a stable argsort,
which keeps each d^2's pairs in (u, v) order - and sets tau just below the
last kept d^2.  Later strips hold larger u, so of their pairs only the
lighter ones come before the last kept pair: the pairs stay an exact
prefix, even when one tie holds far more pairs than the budget.  So the
prefix holds O(n) pairs, and it always holds the smallest joinable pair:
on n equal points it is the first 8n pairs in (u, v) order, and tau falls
below 0, where the pass ends (d^2 is never negative).  On uniform,
clustered and cube-vertex inputs it holds about 2 to 4 pairs per row, and
no cut is made.

Cost: the upper triangle of the joinable rows, read at most once and in
place where the rows are consecutive (every MST and every cold greedy
run), plus the sampled rows; one strip of about 2^16 entries and the pairs
held.  At n = 2000 the pass takes about 4-6 ms (2-core x86-64, one BLAS
thread).
"""

from __future__ import annotations

import numpy as np

#: d^2 entries per strip of rows (32 rows, 0.5 MiB, at n = 2000), and per
#: strip of sampled rows, which are copied and so kept smaller.
_STRIP = 2 ** 16
_SAMPLE_STRIP = 2 ** 14

#: Rows whose nearest joinable d^2 set the prefix's bound.
_BOUND_SAMPLE = 256

#: Most pairs the prefix holds, per joinable row.
_PAIRS_PER_END = 16


def _prefix_bound(nearest: np.ndarray) -> float:
    """The prefix's d^2 bound: about the 98th percentile of ``nearest``, the
    sampled rows' nearest joinable d^2.  ``np.partition``, not
    ``np.quantile``, whose first call grows peak RSS by about 1.2 MiB."""
    i = len(nearest) * 49 // 50
    return float(np.partition(nearest, i)[i])


def short_pairs(d2: np.ndarray, far_end: np.ndarray) -> tuple[list[int], list[int]]:
    """The first joinable pairs u < v in (d^2, u, v) order, at least one
    when any pair is joinable, as a list of the u and one of the v.

    ``d2`` is the points' ``PointSet.sq``.  Row u is joinable where
    ``far_end[u]`` is not -1, as in ``PathSystem.other_end``, and a
    joinable pair is one of two joinable rows other than (u,
    ``far_end[u]``); ``far_end[u]`` is u itself where no partner is
    barred."""
    n = len(d2)
    blocked = np.where(far_end < 0, np.inf, 0.0)  # added to a sampled row: masks interior rows
    ends = np.flatnonzero(far_end >= 0)
    sample = ends[::max(1, len(ends) // _BOUND_SAMPLE)]
    nearest = []
    step = max(1, _SAMPLE_STRIP // n)
    for i in range(0, len(sample), step):
        rows = sample[i:i + step]
        block = d2[rows]
        block += blocked
        block[np.arange(len(rows)), far_end[rows]] = np.inf
        nearest.append(block.min(axis=1))
    tau = _prefix_bound(np.concatenate(nearest))

    budget = _PAIRS_PER_END * len(ends)
    dd, us, vs = [np.empty(0)], [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    held = 0
    step = max(1, _STRIP // n)
    for i in range(0, len(ends), step):
        if tau < 0:  # d^2 is never negative: no strip holds a pair
            break
        rows = ends[i:i + step]
        lo, hi = int(rows[0]), int(rows[-1])
        # only v > u >= lo can join
        upper = d2[lo:hi + 1, lo + 1:] if hi - lo == len(rows) - 1 else d2[rows, lo + 1:]
        # flatnonzero: a 2-d np.nonzero is about ten times slower
        r, c = np.divmod(np.flatnonzero(upper <= tau), upper.shape[1])
        u, v = rows[r], c + (lo + 1)
        hit = (v > u) & (far_end[v] >= 0) & (far_end[u] != v)
        dd.append(upper[r[hit], c[hit]])
        us.append(u[hit])
        vs.append(v[hit])
        held += len(dd[-1])
        if held > budget:
            # keep the first budget // 2 pairs by (d^2, u, v) rank; later
            # strips hold larger u, so they add only lighter pairs
            dd, us, vs = map(np.concatenate, (dd, us, vs))
            keep = np.argsort(dd, kind="stable")[:budget // 2]
            dd, us, vs = [dd[keep]], [us[keep]], [vs[keep]]
            tau = np.nextafter(dd[0][-1], -np.inf)
            held = len(dd[0])
    # stable: each d^2's pairs come in (u, v) order
    order = np.argsort(np.concatenate(dd), kind="stable")
    return np.concatenate(us)[order].tolist(), np.concatenate(vs)[order].tolist()
