"""Exact optimization for small instances.

Method.  A Held-Karp table ``g[S, v]`` holds the cheapest way to start at
v, visit every vertex of the bitmask S and, for tours, close back to the
pivot 0.  It is filled one popcount layer of S at a time, O(n^2 2^n) work.
A depth-first search then walks the canonical orders in lexicographic
order and keeps a prefix only while its cost plus the table's bound for
the rest stays within OPT * (1 + 1e-9).  The orders it reaches are the
near-optimal candidates.  Matchings use a table ``h[S]`` over the free
vertices, pairing the lowest free vertex first, and the same search.

Tie contract.  The result is the first minimum, in lexicographic order,
over the canonical orders: tours put the pivot 0 first and permute
1..n-1, paths permute 0..n-1, and of each reversal pair only the order
whose first permuted entry is below its last entry counts.  An order o
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
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .errors import InputError, SizeError
from .geometry import PointSet, PowerCost, make_edge, pairwise_sq, power_cost
from .structures import HamPath, Matching, Tour, path_from_order, tour_from_order

MAX_EXACT_TOUR = 16
MAX_EXACT_PATH = 16
MAX_EXACT_MATCHING = 14
MAX_PAIR_SUM = 14
MAX_CANDIDATES = math.factorial(11) // 2

_TOL = 1e-9
_BLOCK = 10_000


def _power_matrix(points: PointSet, k: int) -> np.ndarray:
    d2 = pairwise_sq(points.coords)
    return d2 ** (k / 2.0)


def _subsets(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bitmask over n vertices, its membership rows and its size."""
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    return masks, member, member.sum(axis=1)


def _limit(opt: float) -> float:
    limit = float(opt) * (1.0 + _TOL)
    if not math.isfinite(limit):
        raise InputError(f"power costs are not finite in float64 (optimum {opt})")
    return limit


def _suffix_table(dk: np.ndarray, closed: bool) -> np.ndarray:
    """g[S, v] for v outside S: the cheapest walk from v through all of S,
    then back to the pivot 0 for tours.  Tours never put the pivot in S."""
    n = len(dk)
    masks, member, size = _subsets(n)
    bit = 1 << np.arange(n)
    pivot = 1 if closed else 0
    g = np.full((1 << n, n), np.inf)
    g[0] = dk[:, 0] if closed else 0.0
    for c in range(1, n):
        layer = masks[(size == c) & ((masks & pivot) == 0)]
        # after[s, u]: the rest of the walk once it steps to u in S
        after = np.where(member[layer], g[layer[:, None] ^ bit, np.arange(n)], np.inf)
        g[layer] = (dk + after[:, None, :]).min(axis=2)
    return g


def _earlier_copies(dk: np.ndarray) -> list[int]:
    """Bit of the nearest lower-index copy of each vertex, or 0."""
    n = len(dk)
    earlier = [0] * n
    for v in range(n):
        for u in range(v - 1, -1, -1):
            swap = np.arange(n)
            swap[[u, v]] = v, u
            if np.array_equal(dk[swap][:, swap], dk):
                earlier[v] = 1 << u
                break
    return earlier


def _search_orders(dk: np.ndarray, g: np.ndarray, closed: bool,
                   limit: float) -> Iterator[tuple[int, ...]]:
    """Yield, in lexicographic order, every canonical order each of whose
    prefixes costs at most ``limit`` with the table's bound for the rest."""
    n = len(dk)
    w = dk.tolist()
    w.append([0.0] * n)  # paths start from a free virtual vertex n
    earlier = _earlier_copies(dk)
    order = [0] if closed else []

    def extend(last: int, first: int, left: int, cost: float) -> Iterator[tuple[int, ...]]:
        if not left:
            yield tuple(order)
            return
        for v in range(n):
            b = 1 << v
            if not left & b or left & earlier[v]:
                continue
            rest = left ^ b
            f = v if first < 0 else first
            # one order per reversal pair: the last entry exceeds the first permuted one
            if (rest >> (f + 1) == 0) if rest else v <= f:
                continue
            step = cost + w[last][v]
            if step + g[rest, v] <= limit:
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
    masks, member, size = _subsets(n)
    bit = 1 << np.arange(n)
    h = np.full(1 << n, np.inf)
    h[0] = 0.0
    for c in range(2, n + 1, 2):
        layer = masks[size == c]
        low = member[layer].argmax(axis=1)
        partner = member[layer] & (np.arange(n) != low[:, None])
        rest = layer[:, None] ^ bit[low][:, None] ^ bit
        h[layer] = np.where(partner, dk[low] + h[rest], np.inf).min(axis=1)
    return h


def _first_best_pairs(dk: np.ndarray) -> list[tuple[int, int]]:
    """First strict minimum in the order of the recursion that pairs the
    lowest free vertex with each free vertex in increasing order.  ``acc``
    adds the pair costs left to right as that recursion does, so a leaf's
    ``acc`` is already its re-costed value."""
    n = len(dk)
    h = _matching_table(dk)
    limit = _limit(h[-1])
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
                if step + h[rest] <= limit:
                    pairs.append((u, v))
                    extend(rest, step)
                    pairs.pop()

    extend((1 << n) - 1, 0.0)
    return best_pairs


def exact_min_tour(points: PointSet, k: int) -> tuple[Tour, PowerCost]:
    """Globally minimal power-k tour (n <= 16, at most MAX_CANDIDATES
    near-optimal orders)."""
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_TOUR:
        raise SizeError(f"exact tours capped at n = {MAX_EXACT_TOUR}, got {n}")
    if n == 2:
        tour = tour_from_order(points, (0, 1))
        return tour, power_cost(tour.edges, k)
    best_order = _first_best_order(_power_matrix(points, k), closed=True)
    tour = tour_from_order(points, best_order)
    return tour, power_cost(tour.edges, k)


def exact_min_path(points: PointSet, k: int) -> tuple[HamPath, PowerCost]:
    """Globally minimal power-k Hamiltonian path (n <= 16, at most
    MAX_CANDIDATES near-optimal orders)."""
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_PATH:
        raise SizeError(f"exact paths capped at n = {MAX_EXACT_PATH}, got {n}")
    best_order = _first_best_order(_power_matrix(points, k), closed=False)
    path = path_from_order(points, best_order)
    return path, power_cost(path.edges, k)


def exact_min_matching(points: PointSet, k: int) -> tuple[Matching, PowerCost]:
    """Globally minimal power-k perfect matching (n even, n <= 14)."""
    n = points.n
    if n < 2 or n % 2 != 0:
        raise InputError(f"perfect matchings need even n >= 2, got {n}")
    if n > MAX_EXACT_MATCHING:
        raise SizeError(f"exact matchings capped at n = {MAX_EXACT_MATCHING}, got {n}")
    best_pairs = _first_best_pairs(_power_matrix(points, k))
    edges = tuple(make_edge(points, u, v) for u, v in best_pairs)
    matching = Matching(edges)
    return matching, power_cost(edges, k)


def max_pairwise_square_sum(m: int) -> tuple[int, tuple[int, ...]]:
    """Maximize sum over pairs of |q_i - q_j|^2 for q in [0, 1]^m.

    The objective is convex in each coordinate separately, so the optimum
    sits at a 0/1 extreme assignment; the oracle nevertheless evaluates the
    pair sum literally over all 2^m extreme assignments.  The maximum is
    floor(m/2) * ceil(m/2); the returned witness is the first maximizer in
    ascending binary order (most significant bit = q_1).
    """
    if m < 1:
        raise InputError("m must be >= 1")
    if m > MAX_PAIR_SUM:
        raise SizeError(f"pair-sum oracle capped at m = {MAX_PAIR_SUM}, got {m}")
    codes = np.arange(2 ** m, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int8)
    # literal evaluation of the pair sum; for 0/1 values (q_i - q_j)^2 = q_i XOR q_j
    diffs = (bits[:, :, None] != bits[:, None, :])
    iu, iv = np.triu_indices(m, k=1)
    sums = diffs[:, iu, iv].sum(axis=1)
    best = int(np.argmax(sums))
    return int(sums[best]), tuple(int(b) for b in bits[best])


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
    d2 = pairwise_sq(points.coords)
    np.fill_diagonal(d2, np.inf)
    flat = int(np.argmin(d2))
    u, v = divmod(flat, n)
    min_sq = float(d2[u, v])
    ratio = ((m // 2) * ((m + 1) // 2)) / math.comb(m, 2)
    bound = ratio * (delta * delta * k1 + gamma * gamma * k2)
    ok = min_sq <= bound * (1.0 + rel_tol) + 1e-12
    return ok, (min(u, v), max(u, v)), min_sq, bound
