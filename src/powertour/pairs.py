"""Pair scans over exact keys, with Gram products as their filter.

Every key a scan compares is ``geometry.sq_lengths``, the difference-form
d^2 sum_c (x_uc - x_vc)^2 added in column order.  Computing it for all
n(n - 1)/2 pairs costs k passes over them, so the scans find their
candidates with Gram products first: ``Gram`` holds two factors whose
product, for a block of rows against a set of columns, has its entries
within ``Gram.margin`` of the exact keys.  A scan keeps the entries whose Gram
value is within the margin of its bound, re-keys them exactly and compares
only those keys.  The margin is a proved bound for any summation order
(see ``Gram``), so the pairs kept, the order they are compared in and the
ties do not depend on the BLAS, its thread count or the block shapes.
Nothing quadratic is allocated: one block of about ``_STRIP`` entries at a
time.

``short_pairs`` is the sorted prefix of a pair scan.  The MST and the
greedy both scan all pairs sorted by (d^2, min index, max index) and act on
each pair still joinable: Kruskal joins two trees, the greedy two paths.
Both take their pairs from here, after Filter-Kruskal's idea (sort only the
pairs that can still matter, Osipov, Sanders and Singler, ALENEX 2009): the
MST once, then Prim where the prefix does not span; the greedy in rounds
until one path is left.  One pass over the upper triangle of the joinable
rows, one strip of rows at a time, collects every pair u < v of joinable
rows with d^2 <= tau that is not the pair ``far_end`` forbids; they come in
(u, v) order, so a stable sort by d^2 puts them in (d^2, u, v) order.  That
is exactly a prefix of the full sort, so the caller's result does not
depend on where it ends.

tau starts at about the 98th percentile of the nearest joinable Gram value
of a strided sample of at most about 256 rows (far ends masked), taken with
``np.partition``, plus the margin: the nearest sampled pair's exact key is
at most its Gram value plus the margin, so it is always in the prefix.
While more than 16 pairs per row are held, the budget cut keeps the first
half of them by exact (d^2, u, v) rank - a stable argsort, which keeps each
d^2's pairs in (u, v) order - and sets tau just below the last kept d^2.
Later strips hold larger u, so of their pairs only the lighter ones come
before the last kept pair: the pairs stay an exact prefix, even when one
tie holds far more pairs than the budget.  So the prefix holds O(n) pairs,
and it always holds the smallest joinable pair: on n equal points it is the
first 8n pairs in (u, v) order, and tau falls below 0, where the pass ends
(d^2 is never negative).  A strip whose every entry passes the filter is
re-keyed a few rows at a time, so no more pair indices than the budget are
held at once.  On uniform, clustered and cube-vertex inputs the prefix
holds about 2 to 4 pairs per row, and no cut is made.

Cost: the Gram product of the upper triangle of the joinable rows, at most
once, plus the sampled rows: about n^2 (k + 2) multiply-adds, in strips of
about 2^16 entries.  The candidates are re-keyed once per call (and once
per budget cut), k passes over a few pairs per row.
"""

from __future__ import annotations

import numpy as np

from .geometry import PointSet, check_dense_size, sq_lengths

#: Entries per strip of a Gram block (32 rows at n = 2000, 0.5 MiB).
_STRIP = 2 ** 16

#: Rows whose nearest joinable Gram value sets the prefix's bound.
_BOUND_SAMPLE = 256

#: Most pairs the prefix holds, per joinable row.
_PAIRS_PER_END = 16

#: The unit roundoff of float64.
_U = 2.0 ** -53


class Gram:
    """Gram blocks of a point set and their proved distance to the exact keys.

    The coordinates are first translated by their per-column minimum, so a
    tight cluster has small norms: x' = fl(x - m), every x'_c >= 0.  With
    N_x = fl(|x'|^2) (any order), ``left`` holds the rows [x', N_x, 1] and
    ``right``, (k + 2) x n, the columns [-2 y', 1, N_y], so one product of
    length k + 2 is the Gram value G = N_x + N_y - 2 x'.y' of a pair, and a
    block is ``left[rows] @ right[:, columns]`` (OpenBLAS took the same
    product with a transposed right factor 1.4 times slower on one thread,
    and six times slower on two, on 250 points at k = 12).

    The margin.  Let u = 2^-53, g_j = j u / (1 - j u) and A = |x'|^2 +
    |y'|^2.  The bounds below are Higham's for inner products (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1): they
    hold for any summation order and with or without FMA.  D' is the exact
    |x' - y'|^2, D the exact |x - y|^2 and E = ``sq_lengths`` the key.

    1. Norms: |N_x - |x'|^2| <= g_k |x'|^2, so N_x + N_y <= (1 + g_k) A.
       The product's rounding is at most g_{k+2} times the sum of its
       terms' magnitudes, N_x + N_y + 2 sum_c x'_c y'_c <= (2 + g_k) A.
       With the norms' own error: |G - D'| <= (g_k + (2 + g_k) g_{k+2}) A.
    2. Translation: x'_c = (x_c - m_c)(1 + e), |e| <= u, and likewise y'_c,
       so |(x'_c - y'_c)^2 - (x_c - y_c)^2| <= u (2 + u) (a + b)^2 with a,
       b the exact translated values; summed, |D' - D| <= 2 u (2 + u) A /
       (1 - u)^2.
    3. Key: each term of E carries at most k + 2 roundings (the difference,
       the square, k - 1 additions), so |E - D| <= g_{k+2} D, and D <=
       2 (|x - m|^2 + |y - m|^2) <= 2 A / (1 - u)^2.
    4. Underflow: the bounds above are for normal numbers.  A product that
       underflows adds at most 2^-1075 beside its relative error, and sums
       and differences of subnormals are exact.  G with its two norms and
       E take 4k products: at most 2k 2^-1074 in all.

    To first order |G - E| <= ((k + 2k + 4) + 4 + (2k + 4)) u A = (5k +
    12) u A.  ``margin`` is (5k + 16) u * 2 max N_x + (4k + 8) 2^-1074: the
    extra 4 u A covers the second-order terms, A <= 2 max |x'|^2 against
    the computed norms, and the rounding of the margin itself, for any k
    below 10^6, and the last term covers underflow twice over (it vanishes
    in the sum unless every norm is below about 2^-970).  So every pair
    has |G - E| <= margin.  A scan then compares G with a bound b + j
    margin rounded up (``limit``), which is at least the exact sum: E <= b
    implies G <= b + margin, and the filter drops no pair that can matter.
    The margin is 2e-14 on the unit cube at k = 3 and 2e-13 at k = 12.
    Integer coordinates (cube vertices) give exact Gram values, so the
    filter admits exactly the integer ties.
    """

    def __init__(self, points: PointSet):
        check_dense_size(points.n)
        x = points.coords - points.coords.min(axis=0)
        n, k = x.shape
        norms = np.einsum("ij,ij->i", x, x)
        self.left = np.empty((n, k + 2))
        self.left[:, :k] = x
        self.left[:, k] = norms
        self.left[:, k + 1] = 1.0
        self.right = np.empty((k + 2, n))
        np.multiply(x.T, -2.0, out=self.right[:k])
        self.right[k] = 1.0
        self.right[k + 1] = norms
        self.margin = float((5 * k + 16) * _U * 2.0 * norms.max() + (4 * k + 8) * 2.0 ** -1074)

    def limit(self, d2, margins: int = 1):
        """``d2`` plus ``margins`` times the margin, rounded up: the largest
        Gram value a pair can have whose exact key is at most ``d2`` (one
        margin), or ties the least exact key of a block whose least Gram
        value is ``d2`` (two)."""
        return np.nextafter(d2 + margins * self.margin, np.inf)


def _prefix_bound(nearest: np.ndarray) -> float:
    """The prefix's Gram bound: about the 98th percentile of ``nearest``,
    the sampled rows' nearest joinable Gram value.  ``np.partition``, not
    ``np.quantile``, whose first call grows peak RSS by about 1.2 MiB."""
    i = len(nearest) * 49 // 50
    return float(np.partition(nearest, i)[i])


def _hit_groups(hit: np.ndarray, cap: int):
    """The (row, column) positions of ``hit``'s true entries, in row-major
    order, in groups of at most ``cap`` entries' worth of rows (one row at
    least) when it holds more than ``cap`` of them."""
    width = hit.shape[1]
    rows = len(hit) if np.count_nonzero(hit) <= cap else max(1, cap // width)
    for a in range(0, len(hit), rows):
        r, c = np.divmod(np.flatnonzero(hit[a:a + rows]), width)
        yield r + a, c


def _keyed(points: PointSet, us: list, vs: list, tau: float):
    """The pairs (u, v) of ``us`` and ``vs``, concatenated, with exact key
    at most ``tau``, and their keys; the order is kept."""
    none = np.empty(0, np.intp)
    u, v = np.concatenate([none, *us]), np.concatenate([none, *vs])
    d2 = sq_lengths(points, u, v)
    keep = d2 <= tau
    return d2[keep], u[keep], v[keep]


def short_pairs(points: PointSet, far_end: np.ndarray) -> tuple[list[int], list[int]]:
    """The first joinable pairs u < v in exact (d^2, u, v) order, at least
    one when any pair is joinable, as a list of the u and one of the v.

    Row u is joinable where ``far_end[u]`` is not -1, as in
    ``PathSystem.other_end``, and a joinable pair is one of two joinable
    rows other than (u, ``far_end[u]``); ``far_end[u]`` is u itself where no
    partner is barred."""
    gram = Gram(points)
    ends = np.flatnonzero(far_end >= 0)
    m = len(ends)
    left, right = gram.left[ends], gram.right[:, ends]
    step = max(1, _STRIP // m)

    sample = np.arange(0, m, max(1, m // _BOUND_SAMPLE))
    nearest = []
    for i in range(0, len(sample), step):
        at = sample[i:i + step]
        block = left[at] @ right
        own = np.arange(len(at))
        block[own, at] = np.inf
        block[own, np.searchsorted(ends, far_end[ends[at]])] = np.inf
        nearest.append(block.min(axis=1))
    tau = float(gram.limit(_prefix_bound(np.concatenate(nearest))))

    budget = _PAIRS_PER_END * m
    kept = (np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))
    us, vs = [], []  # candidates not yet keyed, in (u, v) order
    held = 0
    for i in range(0, m, step):
        if tau < 0:  # d^2 is never negative: no strip holds a pair
            break
        # rows ends[i:i + step] against the columns ends[i + 1:]
        hit = left[i:i + step] @ right[:, i + 1:] <= gram.limit(tau)
        for r, c in _hit_groups(hit, budget // 2):
            u, v = ends[r + i], ends[c + i + 1]
            ok = (c >= r) & (far_end[u] != v)  # v > u, not u's far end
            us.append(u[ok])
            vs.append(v[ok])
            held += len(us[-1])
            if held > budget:
                # keep the first budget // 2 pairs by exact (d^2, u, v) rank;
                # later rows are larger, so they add only lighter pairs
                d2, u, v = map(np.concatenate, zip(kept, _keyed(points, us, vs, tau)))
                keep = np.argsort(d2, kind="stable")
                if len(keep) > budget // 2:
                    keep = keep[:budget // 2]
                    tau = float(np.nextafter(d2[keep[-1]], -np.inf))
                kept, us, vs = (d2[keep], u[keep], v[keep]), [], []
                held = len(keep)
                if tau < 0:
                    break
    d2, u, v = map(np.concatenate, zip(kept, _keyed(points, us, vs, tau)))
    order = np.argsort(d2, kind="stable")  # stable: each d^2's pairs in (u, v) order
    return u[order].tolist(), v[order].tolist()


def any_pair_within(points: PointSet, bound: float) -> bool:
    """Whether some pair has exact key ``sq_lengths`` at most ``bound``.
    Strips of the upper triangle's Gram product, one at a time, stop at the
    first strip that holds one."""
    gram = Gram(points)
    left, right = gram.left, gram.right
    limit = gram.limit(bound)
    n = points.n
    step = max(1, _STRIP // n)
    for i in range(0, n, step):
        hit = left[i:i + step] @ right[:, i + 1:] <= limit
        for r, c in _hit_groups(hit, 8 * n):
            ok = c >= r
            if (sq_lengths(points, r[ok] + i, c[ok] + i + 1) <= bound).any():
                return True
    return False
