"""Exact optimization for small instances.

Method.  The power table ``dk[u, v] = |u - v|^k`` is the exact key
``sq_lengths`` of every pair raised to k/2 (n <= 16 here), so duplicate
points have exactly equal rows and the BLAS plays no part.  A Held-Karp
table ``g[S, v]`` holds the cheapest way to start at v, visit every vertex
of the bitmask S and, for tours, close back to the pivot 0.  It is filled
one popcount layer of S at a time: ``g[S, v] = min over u in S of dk[v,
u] + g[S - u, u]``, taken over the members u of S only, O(n^2 2^n) work.  Each layer's masks, members and
``S - u`` indices depend on n alone, so they are built once per n and
kept, read-only, in a small cache.  A depth-first search then walks the
canonical orders in lexicographic order and keeps a prefix only while its
cost plus the table's bound for the rest stays within OPT * (1 + 1e-9).
The orders it reaches are the near-optimal candidates.  Matchings use a
table ``h[S]`` over the free vertices, pairing the lowest free vertex with
each other member, from its own cache of layers, and the same search.

Tie contract.  The result is the first minimum, in lexicographic order,
over the canonical orders: tours put the pivot 0 first and permute
1..n-1, paths permute 0..n-1, and an order is skipped when its last
entry is below the first permuted one, so of each reversal pair only the
order whose first permuted entry is below its last counts.  An order o
costs the numpy row sum ``dk[o[:-1], o[1:]].sum(axis=1)`` over a row of
n - 1 terms, plus ``dk[o[-1], 0]`` for tours.  The table and the search
add in another order, so they only select candidates.  Every candidate is
re-costed with that row sum and the first argmin wins.  The tolerance is
far above the few-n-ulp gap between the two ways of adding non-negative
terms, so the first minimum is always a candidate.  Matchings pair the
lowest free vertex with each free vertex in increasing order, add the
pair costs left to right, and keep the first strict minimum.

Duplicate rule.  Two points are copies when exchanging them leaves the
power matrix unchanged, as for identical points or the corners of a
regular simplex.  The search visits the copies of a point in increasing
index order.  Exchanging two copies in an order changes none of its cost
terms, and putting the lower index first gives a canonical order that is
lexicographically earlier, so the rule never changes the answer.  Without
it, m copies of a point multiply the tied candidates by m!.

Limit.  Time grows with the number of near-optimal orders.  That number
is small for generic inputs but not for every symmetric one: the 16 words
of the even-weight code in {0,1}^5 tie in millions of tours, and no two
words are copies.  A search that reaches more than ``MAX_CANDIDATES``
candidates raises SizeError.  The cap is the number of canonical tours at
n = 12, so no tour up to n = 12 and no path up to n = 11 is ever refused.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import InputError, SizeError
from .geometry import (PointSet, PowerCost, check_dense_size, check_exponent, power_cost,
                       sq_lengths)
from .structures import (HamPath, Matching, Tour, edge_arrays, path_from_order,
                         tour_from_order)

MAX_EXACT_TOUR = 16
MAX_EXACT_PATH = 16
MAX_EXACT_MATCHING = 14
MAX_PAIR_SUM = 14
MAX_CANDIDATES = math.factorial(11) // 2

_TOL = 1e-9
_BLOCK = 10_000
#: Codes per block in ``max_pairwise_square_sum``.
_PAIR_SUM_BLOCK = 1024
#: Exact keys per strip in ``_closest_pair``.
_PAIR_STRIP = 2 ** 16
#: Each point set's closest pair, kept by ``_closest_pair`` and dropped with it.
_CLOSEST: weakref.WeakKeyDictionary[PointSet, tuple[float, int, int]] = \
    weakref.WeakKeyDictionary()


def _power_matrix(points: PointSet, k: int) -> np.ndarray:
    """|u - v|^k for every pair, from the exact keys ``sq_lengths`` of all
    pairs (n <= 16 here); the diagonal is +inf and never read."""
    d2 = sq_lengths(points, np.s_[:, None], np.s_[:])
    np.fill_diagonal(d2, np.inf)
    return d2 ** (k / 2.0)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, as cached values are shared by all calls."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _by_size(n: int, low: int, sizes: range) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per c in ``sizes``: the subsets S of low..n-1 of size c as bitmasks,
    and their members in increasing order as a (c, L) array, one column per
    S.  Each S of size c grows from one of size c - 1 by a member above its
    largest."""
    u = np.arange(low, n)[None]
    for c in range(1, sizes.stop):
        if c > 1:
            top = u[-1]
            more = n - 1 - top
            parent = np.repeat(np.arange(len(top)), more)
            above = np.arange(len(parent)) - np.repeat(np.cumsum(more) - more, more)
            u = np.vstack([u[:, parent], top[parent] + 1 + above])
        if c in sizes:
            yield (1 << u).sum(axis=0), u


@lru_cache(maxsize=8)
def _walk_layers(n: int, closed: bool) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per size c = 1..n-1 of S, read-only: the masks S (tours leave the
    pivot 0 out), their members u (c, L) and the flat index
    (S - u) * n + u of g[S - u, u]."""
    return tuple(_frozen(masks, u, (masks ^ (1 << u)) * n + u)
                 for masks, u in _by_size(n, int(closed), range(1, n)))


@lru_cache(maxsize=8)
def _pair_layers(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per even size c of S, read-only: the masks S, the flat index
    low * n + p of dk[low, p] for the lowest member low and each partner p
    (c - 1, L), and the rest masks S - low - p."""
    return tuple(_frozen(masks, u[:1] * n + u[1:], masks ^ (1 << u[:1]) ^ (1 << u[1:]))
                 for masks, u in _by_size(n, 0, range(2, n + 1, 2)))


def _limit(opt: float) -> float:
    limit = float(opt) * (1.0 + _TOL)
    if not math.isfinite(limit):
        raise InputError(f"power costs are not finite in float64 (optimum {opt})")
    return limit


def _suffix_table(dk: np.ndarray, closed: bool) -> np.ndarray:
    """g[S, v] for v outside S: the cheapest walk from v through all of S,
    then back to the pivot 0 for tours.  Tours never put the pivot in S.
    Entries with v in S are filled too but never read."""
    n = len(dk)
    dk_t = np.ascontiguousarray(dk.T)
    g = np.full((1 << n, n), np.inf)
    g[0] = dk[:, 0] if closed else 0.0
    g_flat = g.reshape(-1)
    for masks, u, after in _walk_layers(n, closed):
        # dk[v, u] + g[S - u, u] as a (c, L, n) block, least over the members u
        walks = dk_t.take(u, axis=0)
        walks += g_flat.take(after)[:, :, None]
        g[masks] = walks.min(axis=0)
    return g


def _earlier_copies(dk: np.ndarray) -> list[int]:
    """Bit of the nearest lower-index copy of each vertex, or 0.

    Exchanging u and v leaves dk unchanged exactly when rows u and v agree
    and columns u and v agree off positions u and v, dk[u, u] == dk[v, v]
    and dk[u, v] == dk[v, u]; all pairs are compared at once."""
    n = len(dk)
    index = np.arange(n)
    lines = np.concatenate([dk, dk.T], axis=1)  # row x, then column x
    own = np.concatenate([index[:, None] == index] * 2, axis=1)  # position x in line x
    same = ((lines[:, None] == lines) | own[:, None] | own).all(axis=2)
    diagonal = dk.diagonal()
    same &= (diagonal[:, None] == diagonal) & (dk == dk.T)
    nearest = np.where(same & (index[:, None] < index), index[:, None], -1).max(axis=0)
    return [1 << int(u) if u >= 0 else 0 for u in nearest]


def _search_orders(dk: np.ndarray, g: np.ndarray, closed: bool,
                   limit: float) -> Iterator[tuple[int, ...]]:
    """Yield, in lexicographic order, every canonical order each of whose
    prefixes costs at most ``limit`` with the table's bound for the rest."""
    n = len(dk)
    w = dk.tolist()
    w.append([0.0] * n)  # paths start from a free virtual vertex n
    bound = memoryview(g.reshape(-1))  # g[S, v] as a Python float at S * n + v
    vertices = list(zip(range(n), [1 << v for v in range(n)], _earlier_copies(dk)))
    order = [0] if closed else []

    def extend(last: int, first: int, left: int, cost: float) -> Iterator[tuple[int, ...]]:
        if not left:
            yield tuple(order)
            return
        row = w[last]
        for v, b, earlier in vertices:
            if not left & b or left & earlier:
                continue
            rest = left ^ b
            f = v if first < 0 else first
            # one order per reversal pair: skip it when the last entry is below the
            # first permuted one; a 2-point tour's lone permuted entry is both
            if (rest >> (f + 1) == 0) if rest else v < f:
                continue
            step = cost + row[v]
            if step + bound[rest * n + v] <= limit:
                order.append(v)
                yield from extend(v, f, rest, step)
                order.pop()

    full = (1 << n) - 1
    if closed:
        yield from extend(0, -1, full ^ 1, 0.0)
    else:
        yield from extend(n, -1, full, 0.0)


def _first_best_order(dk: np.ndarray, closed: bool) -> tuple[int, ...]:
    """First minimum-cost canonical order under the module's tie contract.

    Candidates are re-costed in blocks, so memory stays bounded when many
    orders tie: a 12-point subset of the 5-bit even-weight code has about
    two million optimal paths.  More than ``MAX_CANDIDATES`` candidates
    raise SizeError.
    """
    n = len(dk)
    g = _suffix_table(dk, closed)
    full = (1 << n) - 1
    if closed:
        opt = g[full ^ 1, 0]
    else:
        ends = np.arange(n)
        opt = g[full ^ (1 << ends), ends].min()
    orders = _search_orders(dk, g, closed, _limit(opt))
    best_cost = math.inf
    best_order: tuple[int, ...] = ()
    seen = 0
    while block := list(islice(orders, _BLOCK)):
        seen += len(block)
        if seen > MAX_CANDIDATES:
            raise SizeError(f"more than {MAX_CANDIDATES} near-optimal orders at n = {n}; "
                            "the input is too symmetric for the exact oracle")
        arr = np.array(block, dtype=np.intp)
        costs = dk[arr[:, :-1], arr[:, 1:]].sum(axis=1)
        if closed:
            costs += dk[arr[:, -1], 0]
        i = int(np.argmin(costs))
        if costs[i] < best_cost:  # strict, so an earlier block keeps a tie
            best_cost = float(costs[i])
            best_order = tuple(int(x) for x in arr[i])
    return best_order


def _matching_table(dk: np.ndarray) -> np.ndarray:
    """h[S]: the cheapest perfect matching of the vertices in S (even size)."""
    n = len(dk)
    h = np.full(1 << n, np.inf)
    h[0] = 0.0
    dk_flat = dk.reshape(-1)
    for masks, pair, rest in _pair_layers(n):
        h[masks] = (dk_flat.take(pair) + h.take(rest)).min(axis=0)
    return h


def _first_best_pairs(dk: np.ndarray) -> list[tuple[int, int]]:
    """First strict minimum in the order of the recursion that pairs the
    lowest free vertex with each free vertex in increasing order.  ``acc``
    adds the pair costs left to right as that recursion does, so a leaf's
    ``acc`` is already its re-costed value."""
    n = len(dk)
    h = _matching_table(dk)
    limit = _limit(h[-1])
    bound = memoryview(h)
    w = dk.tolist()
    best_cost = math.inf
    best_pairs: list[tuple[int, int]] = []
    pairs: list[tuple[int, int]] = []

    def extend(free: int, acc: float) -> None:
        nonlocal best_cost, best_pairs
        if not free:
            if acc < best_cost:
                best_cost = acc
                best_pairs = list(pairs)
            return
        u = (free & -free).bit_length() - 1
        for v in range(u + 1, n):
            if free >> v & 1:
                rest = free ^ (1 << u) ^ (1 << v)
                step = acc + w[u][v]
                if step + bound[rest] <= limit:
                    pairs.append((u, v))
                    extend(rest, step)
                    pairs.pop()

    extend((1 << n) - 1, 0.0)
    return best_pairs


def exact_min_tour(points: PointSet, k: int) -> tuple[Tour, PowerCost]:
    """Globally minimal power-k tour (n <= 16, at most MAX_CANDIDATES
    near-optimal orders)."""
    check_exponent(k)
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_TOUR:
        raise SizeError(f"exact tours capped at n = {MAX_EXACT_TOUR}, got {n}")
    best_order = _first_best_order(_power_matrix(points, k), closed=True)
    tour = tour_from_order(points, best_order)
    return tour, power_cost(tour, k)


def exact_min_path(points: PointSet, k: int) -> tuple[HamPath, PowerCost]:
    """Globally minimal power-k Hamiltonian path (n <= 16, at most
    MAX_CANDIDATES near-optimal orders)."""
    check_exponent(k)
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_PATH:
        raise SizeError(f"exact paths capped at n = {MAX_EXACT_PATH}, got {n}")
    best_order = _first_best_order(_power_matrix(points, k), closed=False)
    path = path_from_order(points, best_order)
    return path, power_cost(path, k)


def exact_min_matching(points: PointSet, k: int) -> tuple[Matching, PowerCost]:
    """Globally minimal power-k perfect matching (n even, n <= 14)."""
    check_exponent(k)
    n = points.n
    if n < 2 or n % 2 != 0:
        raise InputError(f"perfect matchings need even n >= 2, got {n}")
    if n > MAX_EXACT_MATCHING:
        raise SizeError(f"exact matchings capped at n = {MAX_EXACT_MATCHING}, got {n}")
    best_pairs = _first_best_pairs(_power_matrix(points, k))
    matching = Matching(**edge_arrays(points, best_pairs))
    return matching, power_cost(matching, k)


def max_pairwise_square_sum(m: int) -> tuple[int, tuple[int, ...]]:
    """Maximize sum over pairs of |q_i - q_j|^2 for q in [0, 1]^m.

    The objective is convex in each coordinate separately, so the optimum
    sits at a 0/1 extreme assignment; the oracle nevertheless evaluates the
    pair sum literally over all 2^m extreme assignments, in blocks of
    ``_PAIR_SUM_BLOCK`` codes so memory does not grow with 2^m.  The maximum is
    floor(m/2) * ceil(m/2); the returned witness is the first maximizer in
    ascending binary order (most significant bit = q_1).
    """
    if m < 1:
        raise InputError("m must be >= 1")
    if m > MAX_PAIR_SUM:
        raise SizeError(f"pair-sum oracle capped at m = {MAX_PAIR_SUM}, got {m}")
    shifts = np.arange(m - 1, -1, -1)
    iu, iv = np.triu_indices(m, k=1)
    best_sum, best_bits = -1, None
    for lo in range(0, 2 ** m, _PAIR_SUM_BLOCK):
        codes = np.arange(lo, min(lo + _PAIR_SUM_BLOCK, 2 ** m), dtype=np.uint32)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        # literal evaluation of the pair sum; for 0/1 values (q_i - q_j)^2 = q_i XOR q_j
        sums = (bits[:, iu] != bits[:, iv]).sum(axis=1)
        top = int(np.argmax(sums))
        if sums[top] > best_sum:  # strict: the first maximizer wins across blocks
            best_sum, best_bits = int(sums[top]), bits[top]
    return best_sum, tuple(int(b) for b in best_bits)


def _closest_pair(points: PointSet) -> tuple[float, int, int]:
    """The least pair u < v by (exact d^2, u, v) and its key, from strips of
    about 2^16 exact keys ``sq_lengths``, whole rows at a time.  In row
    order the first least entry has u < v: its mirror (v, u) is met in an
    earlier row, and the strict comparison keeps an earlier strip's tie.
    More than ``MAX_DENSE_POINTS`` points raise SizeError first.  The pair
    is kept for as long as the point set lives, so checks of several m on
    one point set key its pairs once."""
    best = _CLOSEST.get(points)
    if best is not None:
        return best
    n = points.n
    check_dense_size(n)
    best = (math.inf, 0, 1)
    step = max(1, _PAIR_STRIP // n)
    for lo in range(0, n, step):
        d2 = sq_lengths(points, np.s_[lo:lo + step, None], np.s_[:])
        own = np.arange(len(d2))
        d2[own, own + lo] = np.inf
        r, c = divmod(int(np.argmin(d2)), n)
        if d2[r, c] < best[0]:
            best = (float(d2[r, c]), lo + r, c)
    _CLOSEST[points] = best
    return best


def closest_pair_bound_check(points: PointSet, m: int,
                             box: tuple[float, float, int, int] | None = None,
                             rel_tol: float = 1e-9):
    """Verify that some pair is at squared distance at most
    (floor(m/2)*ceil(m/2) / C(m,2)) * (delta^2*k1 + gamma^2*k2).

    Default box is the unit cube: delta = gamma = 1, k1 = k, k2 = 0.
    Returns (ok, (u, v), min_sq, bound) with (u, v) the minimizing pair.
    """
    n = points.n
    if m < 2 or n < m:
        raise InputError(f"need |X| >= m >= 2, got |X| = {n}, m = {m}")
    if box is None:
        delta, gamma, k1, k2 = 1.0, 1.0, points.k, 0
    else:
        delta, gamma, k1, k2 = box
        if k1 + k2 != points.k:
            raise InputError("box split k1 + k2 must equal the dimension")
    min_sq, u, v = _closest_pair(points)
    ratio = ((m // 2) * ((m + 1) // 2)) / math.comb(m, 2)
    bound = ratio * (delta * delta * k1 + gamma * gamma * k2)
    ok = min_sq <= bound * (1.0 + rel_tol) + 1e-12
    return ok, (min(u, v), max(u, v)), min_sq, bound
