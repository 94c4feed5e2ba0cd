"""The sorted prefix of a pair scan: every short joinable pair, in scan order.

The MST and the greedy both scan all pairs sorted by (d^2, min index, max
index) and act on each pair still joinable: Kruskal joins two trees, the
greedy two paths.  Both scans begin with ``short_pairs``, after
Filter-Kruskal's idea (sort only the pairs that can still matter, Osipov,
Sanders and Singler, ALENEX 2009): one pass over d^2, one strip of rows at
a time, collects every pair u < v of joinable rows with d^2 <= tau that is
not the pair ``far_end`` forbids; they come in (u, v) order, so a stable
sort by d^2 puts them in (d^2, u, v) order.  That is exactly the full
sort's prefix up to tau, so the caller's result does not depend on tau.

tau is about the 98th percentile of the nearest joinable d^2 of a strided
sample of at most about 256 rows (far ends masked), taken with
``np.partition``; it is lowered while more than 16 pairs per row would be
held, so the prefix holds O(n) pairs even when d^2 has a few huge ties.  A
tie that large usually shows in the last sampled rows already, which then
cut tau before any strip is read: on equal points tau falls below 0 and,
d^2 being never negative, the pass ends with no pair.  On uniform,
clustered and cube-vertex inputs the prefix holds about 2 to 4 pairs per
row.  Below ``_MIN_ENDS`` joinable rows there is no pass: the prefix is
empty, and the caller's own scan does all the work, as it does for the
pairs above tau.  At n = 2000 a warm start of random paths with 8 to 32
endpoints took 2.9-3.1 ms in the greedy without the pass against 3.0-4.1
ms with it (the heap alone stays faster up to about 500 endpoints there),
while cold runs gain from the pass from about 16 points on (15 inputs at
n = 16 / 24 / 32: 1.97 / 2.47 / 2.63 ms with it, 2.15 / 3.14 / 3.82 ms
without); the cut-off gives up at most 0.05 ms per cold run at n = 16 to
31.

Cost: the upper triangle of the joinable rows, read once in place where
the rows are consecutive (every MST and every cold greedy run), plus the
sampled rows; one strip of about 2^16 entries and the pairs held.  At
n = 2000 the pass takes about 4-6 ms (2-core x86-64, one BLAS thread).
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

#: Fewest joinable rows for which the prefix makes its pass.
_MIN_ENDS = 32


def _prefix_bound(nearest: np.ndarray) -> float:
    """The prefix's d^2 bound: about the 98th percentile of ``nearest``, the
    sampled rows' nearest joinable d^2.  ``np.partition``, not
    ``np.quantile``, whose first call grows peak RSS by about 1.2 MiB."""
    i = len(nearest) * 49 // 50
    return float(np.partition(nearest, i)[i])


def short_pairs(d2: np.ndarray, blocked: np.ndarray, far_end: np.ndarray
                ) -> tuple[list[int], list[int]]:
    """Every joinable pair u < v with d^2 <= tau, sorted by (d^2, u, v), as
    a list of the u and one of the v.

    ``d2`` is the points' ``PointSet.sq``.  Row u is joinable where
    ``blocked[u]`` is 0 (it is +inf elsewhere), and a joinable pair is one
    of two joinable rows other than (u, ``far_end[u]``); ``far_end[u]`` is
    u itself where no partner is barred.  With fewer than ``_MIN_ENDS``
    joinable rows both lists are empty."""
    n = len(d2)
    ends = np.flatnonzero(blocked == 0)
    if len(ends) < _MIN_ENDS:
        return [], []
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
    # a tie larger than the budget (all points equal) shows in the last
    # sampled rows: cut tau on them, as below, before any strip is read
    cap = _PAIRS_PER_END * len(rows)
    if np.count_nonzero(block <= tau) > cap:
        tau = np.nextafter(np.partition(block, cap, axis=None)[cap], -np.inf)

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
        hit = (v > u) & (blocked[v] == 0) & (far_end[u] != v)
        dd.append(upper[r[hit], c[hit]])
        us.append(u[hit])
        vs.append(v[hit])
        held += len(dd[-1])
        if held > budget:
            # keep only the pairs below the (budget / 2)-th smallest d^2
            dd, us, vs = map(np.concatenate, (dd, us, vs))
            tau = np.nextafter(np.partition(dd, budget // 2)[budget // 2], -np.inf)
            keep = dd <= tau
            dd, us, vs = [dd[keep]], [us[keep]], [vs[keep]]
            held = len(dd[0])
    order = np.argsort(np.concatenate(dd), kind="stable")  # the pairs come in (u, v) order
    return np.concatenate(us)[order].tolist(), np.concatenate(vs)[order].tolist()
