"""Exact brute-force optimization for small instances.

Tours enumerate (n-1)!/2 cyclic orders, paths n!/2 open orders (both with
the reversal representative fixed by requiring the entry after the pivot
to precede the final entry), matchings the (n-1)!! pairings.  Enumeration
is in lexicographic order and ties keep the first optimum, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError, SizeError
from .geometry import PointSet, PowerCost, make_edge, pairwise_sq, power_cost
from .structures import HamPath, Matching, Tour, path_from_order, tour_from_order

MAX_EXACT_TOUR = 12
MAX_EXACT_PATH = 12
MAX_EXACT_MATCHING = 14
MAX_PAIR_SUM = 14

_CHUNK = 100_000


def _power_matrix(points: PointSet, k: int) -> np.ndarray:
    d2 = pairwise_sq(points.coords)
    return d2 ** (k / 2.0)


def _first_best_order(dk: np.ndarray, n: int, closed: bool) -> tuple[int, ...]:
    """First minimum-cost order over 0..n-1 in lexicographic enumeration.

    Closed orders fix the pivot 0 and permute 1..n-1, adding the closing
    term after the open sum; open orders permute 0..n-1.  Of each reversal
    pair only the order whose first permuted entry precedes its last is
    costed.  Ties keep the earliest order: first argmin within a chunk,
    strict < across chunks.
    """
    best_cost = math.inf
    best_order: tuple[int, ...] | None = None
    perms = itertools.permutations(range(1 if closed else 0, n))
    while True:
        chunk = list(itertools.islice(perms, _CHUNK))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.intp)
        arr = arr[arr[:, 0] < arr[:, -1]]  # one representative per reversal pair
        if arr.size == 0:
            continue
        if closed:
            arr = np.concatenate([np.zeros((arr.shape[0], 1), dtype=np.intp), arr], axis=1)
        costs = dk[arr[:, :-1], arr[:, 1:]].sum(axis=1)
        if closed:
            costs += dk[arr[:, -1], 0]
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_order = tuple(int(x) for x in arr[i])
    return best_order


def exact_min_tour(points: PointSet, k: int) -> tuple[Tour, PowerCost]:
    """Globally minimal power-k tour by exhaustive enumeration (n <= 12)."""
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_TOUR:
        raise SizeError(f"exact tours capped at n = {MAX_EXACT_TOUR}, got {n}")
    if n == 2:
        tour = tour_from_order(points, (0, 1))
        return tour, power_cost(tour.edges, k)
    best_order = _first_best_order(_power_matrix(points, k), n, closed=True)
    tour = tour_from_order(points, best_order)
    return tour, power_cost(tour.edges, k)


def exact_min_path(points: PointSet, k: int) -> tuple[HamPath, PowerCost]:
    """Globally minimal power-k Hamiltonian path (n <= 12)."""
    n = points.n
    if n < 2:
        raise InputError("need at least 2 points")
    if n > MAX_EXACT_PATH:
        raise SizeError(f"exact paths capped at n = {MAX_EXACT_PATH}, got {n}")
    best_order = _first_best_order(_power_matrix(points, k), n, closed=False)
    path = path_from_order(points, best_order)
    return path, power_cost(path.edges, k)


def exact_min_matching(points: PointSet, k: int) -> tuple[Matching, PowerCost]:
    """Globally minimal power-k perfect matching (n even, n <= 14)."""
    n = points.n
    if n < 2 or n % 2 != 0:
        raise InputError(f"perfect matchings need even n >= 2, got {n}")
    if n > MAX_EXACT_MATCHING:
        raise SizeError(f"exact matchings capped at n = {MAX_EXACT_MATCHING}, got {n}")
    dk = _power_matrix(points, k)
    best_cost = math.inf
    best_pairs: list[tuple[int, int]] | None = None
    pairs: list[tuple[int, int]] = []

    def recurse(free: list[int], acc: float) -> None:
        nonlocal best_cost, best_pairs
        if not free:
            if acc < best_cost:
                best_cost = acc
                best_pairs = list(pairs)
            return
        u = free[0]
        for j in range(1, len(free)):
            v = free[j]
            pairs.append((u, v))
            recurse(free[1:j] + free[j + 1:], acc + dk[u, v])
            pairs.pop()

    recurse(list(range(n)), 0.0)
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
