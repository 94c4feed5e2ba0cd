"""Points, distances and power-cost arithmetic over finite point sets.

The cost of an edge set E under a positive integer exponent k is

    unscaled   S_k(E) = sum over edges of |e|^k
    scaled     s_k(E) = S_k(E) ** (1/k)

where |e| is the Euclidean length of the edge.  Accumulation is routed
through the log domain so that exponents up to ~1000 and edge lengths up
to sqrt(k) never overflow; when S_k exceeds the float range the scaled
cost is still exact and the unscaled value is flagged as overflowed.

d^2 orders pairs; ``edge_lengths`` measures them.  ``PointSet.sq`` (the
Gram form, fast but noisy for close pairs) picks trees, paths and ties;
every edge weight, and so every cost and certificate check, comes from
``edge_lengths``, one coordinate-difference formula.  Structures hold
those weights as arrays, and ``power_cost`` reads them there; the cost
still takes ``math.log`` of one weight at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InputError, SizeError

# Default comparison tolerances; callers may override per call.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Slack used when ingesting coordinates against a declared container box.
CONTAINMENT_TOL = 1e-9


def leq(a: float, b: float, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """a <= b up to relative/absolute tolerance."""
    return a <= b + max(abs_tol, rel_tol * max(abs(a), abs(b)))


def close(a: float, b: float, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(abs_tol, rel_tol * max(abs(a), abs(b)))


class Container(str, Enum):
    """Declared container of a point set.

    Cube membership is checked on ingestion but carried as a flag, not an
    assumption: the planar constructions use triangle / region containers
    whose geometry lives with the construction itself.
    """

    UNIT_CUBE = "unit_cube"
    HALF_CUBE = "half_cube"  # [-1/2, 1/2]^k
    PLANAR_TRIANGLE = "planar_triangle"
    PLANAR_REGION = "planar_region"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered list of n points in R^k plus the declared container.

    ``sq`` is the points' one d^2 matrix: every dense reader (the MST, the
    threshold forest, the greedy, the oracle tables, the closest-pair
    check) takes it from here, so a point set that several of them read
    builds it once.  It orders pairs; ``edge_lengths`` weighs them.  It is
    built on first read and lives as long as the point set does.  Point
    sets compare and hash by identity, as each owns its own matrix.
    """

    coords: np.ndarray
    container: Container = Container.UNIT_CUBE

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise InputError(f"coords must be a 2-d array, got shape {coords.shape}")
        n, k = coords.shape
        if n < 1:
            raise InputError("a point set needs at least one point")
        if k < 1:
            raise InputError("dimension must be at least 1")
        if not np.all(np.isfinite(coords)):
            raise InputError("coordinates must be finite")
        lo, hi = _container_box(self.container)
        if lo is not None:
            if coords.min() < lo - CONTAINMENT_TOL or coords.max() > hi + CONTAINMENT_TOL:
                raise InputError(
                    f"coordinates outside {self.container.value} box [{lo}, {hi}]"
                )
        if self.container in (Container.PLANAR_TRIANGLE, Container.PLANAR_REGION) and k != 2:
            raise InputError(f"{self.container.value} requires dimension 2, got {k}")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def sq(self) -> np.ndarray:
        """``symmetric_sq`` of the coordinates, read-only.  A point set over
        ``MAX_DENSE_POINTS`` raises ``SizeError`` on every read, before any
        matrix is allocated."""
        check_dense_size(self.n)
        return symmetric_sq(self.coords)


def _container_box(container: Container):
    if container == Container.UNIT_CUBE:
        return 0.0, 1.0
    if container == Container.HALF_CUBE:
        return -0.5, 0.5
    return None, None


def point_set(coords, container: Container | str = Container.UNIT_CUBE) -> PointSet:
    """Build a PointSet from any 2-d array-like of coordinates."""
    if isinstance(container, str):
        container = Container(container)
    return PointSet(np.asarray(coords, dtype=np.float64), container)


@dataclass(frozen=True)
class Edge:
    """An edge between two point indices, weighted by Euclidean distance:
    an entry of a structure's read-only ``edges`` view.  Structures are
    built from index and weight arrays, never from ``Edge`` values."""

    u: int
    v: int
    weight: float

    def __post_init__(self):
        if self.u == self.v:
            raise InputError(f"degenerate edge at vertex {self.u}")
        if self.weight < 0:
            raise InputError("edge weight must be nonnegative")


def edge_lengths(points: PointSet, u, v) -> np.ndarray:
    """Euclidean lengths |x_u - x_v| of the pairs (u[i], v[i]): the square
    root of sum_c (x_uc - x_vc)^2, the columns added left to right.

    Every step is elementwise IEEE arithmetic, so a pair gets the same bits
    in any call and on any BLAS, the result is symmetric in (u, v), and a
    duplicate pair is exactly 0.  ``u`` and ``v`` are equal-length index
    lists or arrays, or two single indices; memory is O(len(u) k).  Every
    edge weight in the package comes from here: d^2 (``PointSet.sq``)
    orders pairs, ``edge_lengths`` measures them.
    """
    cols = points.coords.T
    sq = cols[:, u] - cols[:, v]
    sq *= sq
    acc = sq[0]
    for term in sq[1:]:
        acc += term
    return np.sqrt(acc)


#: Most points ``PointSet.sq`` accepts, and so the dense paths that read it
#: (``build_mst``, ``build_threshold_forest``, ``greedy_ham_path``): the
#: n x n float matrix is 0.8 GB at the cap.  Filter-Kruskal's pair arrays
#: take 24 bytes per pair besides, but only up to ``mst._PRIM_ABOVE``
#: points; above it the MST and the forest run Prim, which needs O(n)
#: beside the matrix.
MAX_DENSE_POINTS = 10_000


def check_dense_size(n: int) -> None:
    """Raise SizeError, before anything is allocated, when n points exceed
    ``MAX_DENSE_POINTS``.  The message names the 8 n^2 bytes of the n x n
    matrix: every refused n is above ``mst._PRIM_ABOVE``, where no pair
    array is made."""
    if n > MAX_DENSE_POINTS:
        raise SizeError(f"dense paths capped at n = {MAX_DENSE_POINTS}, got n = {n} "
                        f"(an n x n matrix of about {8 * n * n:,} bytes)")


#: Rows per strip in ``pairwise_sq``; a strip at n = 2000 is 0.5 MiB.
_STRIP = 32


def pairwise_sq(coords: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances (clipped at 0).

    Entry (i, j) is max((|x_i|^2 + |x_j|^2) - 2 (x_i . x_j), 0), with the
    dot products from one ``coords @ coords.T``, the only n x n array: the
    rest runs in place on one strip of rows at a time while it is in cache,
    the row-norm sums in one reused block.  numpy computes ``a @ a.T`` for
    a C-contiguous ``a`` as a syrk and copies its upper triangle onto the
    lower one, and the norm sum commutes, so the matrix is exactly
    symmetric as built and needs no mirror pass.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    sq = np.einsum("ij,ij->i", coords, coords)
    # Before the product: freed, it widens the heap hole a freed matrix
    # leaves, so the next point set's small arrays and matrix both fit in it.
    norms = np.empty((_STRIP, len(sq)))
    d2 = coords @ coords.T
    for i in range(0, len(d2), _STRIP):
        strip = d2[i:i + _STRIP]
        block = norms[:len(strip)]
        np.add(sq[i:i + _STRIP, None], sq, out=block)
        np.multiply(strip, 2.0, out=strip)
        np.subtract(block, strip, out=strip)
        np.maximum(strip, 0.0, out=strip)
    return d2


def symmetric_sq(coords: np.ndarray) -> np.ndarray:
    """Read-only ``pairwise_sq`` matrix, +inf on the diagonal.

    ``pairwise_sq`` is already exactly symmetric (see there), so row u
    holds d2[min(u, v), max(u, v)] for every v, bit for bit, with no
    mirror pass.
    """
    d2 = pairwise_sq(coords)
    np.fill_diagonal(d2, np.inf)
    d2.flags.writeable = False
    return d2


@dataclass(frozen=True)
class PowerCost:
    """Power-k cost of an edge set, in log domain and linear form."""

    log_unscaled: float  # ln S_k, -inf for an empty cost
    unscaled: float  # S_k; math.inf with overflow=True when not representable
    scaled: float  # s_k = S_k ** (1/k)
    overflow: bool = False

    def to_dict(self) -> dict:
        """The JSON cost block; S_k is None when it overflows and ln S_k is
        None for an empty or all-zero cost (ln 0), as JSON has no
        infinities."""
        return {"S_k": None if self.overflow else self.unscaled, "s_k": self.scaled,
                "log_S_k": None if self.log_unscaled == -math.inf else self.log_unscaled,
                "overflow": self.overflow}


def power_cost_from_weights(weights, k: int) -> PowerCost:
    """PowerCost of a multiset of edge lengths, an array or any iterable of
    floats, under exponent k.

    ln S_k is the log-sum-exp of the terms k*ln|e| over the nonzero edges;
    zero-length edges add exactly 0.  Each term takes ``math.log`` of one
    weight, and ``math.fsum`` is correctly rounded, so the cost has the same
    bits in any edge order.  An exponent that is not a positive integer
    (nan and inf included) raises ``InputError``, as does a weight that is
    negative or not finite.
    """
    if not (k >= 1 and float(k).is_integer()):
        raise InputError(f"exponent must be a positive integer, got {k}")
    k = int(k)
    w = weights.tolist() if isinstance(weights, np.ndarray) else [float(x) for x in weights]
    bad = [x for x in w if not 0 <= x < math.inf]  # nan fails too
    if bad:
        raise InputError("negative edge weight" if -math.inf < bad[0] < 0
                         else "edge weight must be finite")
    terms = [k * math.log(x) for x in w if x > 0]
    if not terms:
        return PowerCost(-math.inf, 0.0, 0.0)
    m = max(terms)
    log_s = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    unscaled = math.exp(log_s) if log_s < 709.0 else math.inf
    return PowerCost(log_s, unscaled, math.exp(log_s / k), unscaled == math.inf)


def power_cost(edges, k: int) -> PowerCost:
    """PowerCost under exponent k of a structure's ``weights`` (a tree,
    tour, path, matching or trace), or of an iterable of ``Edge`` values.
    The package passes structures only; the ``Edge`` form stays for callers
    that cost a structure's read-only ``edges`` view, such as the checks in
    ``perfbench/``."""
    weights = getattr(edges, "weights", None)
    return power_cost_from_weights([e.weight for e in edges] if weights is None else weights, k)


@dataclass(frozen=True)
class NamedBounds:
    """Numeric values of the named scaled-cost bounds for dimension k.

    All values are for the scaled cost s_k.  ``cycle_upper_improved`` is the
    constructive guarantee realized by the MST-based tour; it is certified
    for k >= 3.  Conjectured values are informational.
    """

    k: int
    n: int
    cycle_lower_conjectured: float  # 2^(1/k) * sqrt(k)
    cycle_upper_classic: float | None  # 9 * (2/3)^(1/k) * sqrt(k), k >= 3
    cycle_upper_improved: float  # 3*sqrt(5) * (2/3)^(1/k) * sqrt(k)
    dim3_cycle_lower: float | None  # 2^(7/6), only at k = 3
    square_tour_upper: float | None  # 2, only at k = 2 (S_2 <= 4)
    path_conjectured: float
    matching_upper: float | None  # 3*sqrt(5) * (1/3)^(1/k) * sqrt(k), k >= 3


def cycle_upper_improved(k: int) -> float:
    """The certified scaled bound 3*sqrt(5) * (2/3)^(1/k) * sqrt(k)."""
    return 3.0 * math.sqrt(5.0) * (2.0 / 3.0) ** (1.0 / k) * math.sqrt(k)


def conjectured_path_bound(k: int) -> float:
    if k == 2:
        return math.sqrt(3.0)
    if 3 <= k <= 6:
        return (2.0 ** (k - 1) - 1.0) ** (1.0 / k) * math.sqrt(2.0)
    return math.sqrt(float(k))


def named_bounds(k: int, n: int) -> NamedBounds:
    """Evaluate every named bound for dimension k and instance size n."""
    if k < 2:
        raise InputError(f"named bounds need k >= 2, got {k}")
    sqrt_k = math.sqrt(k)
    return NamedBounds(
        k=k,
        n=n,
        cycle_lower_conjectured=2.0 ** (1.0 / k) * sqrt_k,
        cycle_upper_classic=(9.0 * (2.0 / 3.0) ** (1.0 / k) * sqrt_k) if k >= 3 else None,
        cycle_upper_improved=cycle_upper_improved(k),
        dim3_cycle_lower=2.0 ** (7.0 / 6.0) if k == 3 else None,
        square_tour_upper=2.0 if k == 2 else None,
        path_conjectured=conjectured_path_bound(k),
        matching_upper=(3.0 * math.sqrt(5.0) * (1.0 / 3.0) ** (1.0 / k) * sqrt_k)
        if k >= 3 else None,
    )
