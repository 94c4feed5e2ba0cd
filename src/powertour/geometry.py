"""Points, distances and power-cost arithmetic over finite point sets.

The cost of an edge set E under a positive integer exponent k is

    unscaled   S_k(E) = sum over edges of |e|^k
    scaled     s_k(E) = S_k(E) ** (1/k)

where |e| is the Euclidean length of the edge.  Accumulation is routed
through the log domain so that exponents up to ~1000 and edge lengths up
to sqrt(k) never overflow; when S_k exceeds the float range the scaled
cost is still exact and the unscaled value is flagged as overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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


# A Point is a length-k float vector; numpy arrays and sequences both work.
Point = np.ndarray


@dataclass(frozen=True)
class PointSet:
    """An ordered list of n points in R^k plus the declared container."""

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

    def point(self, i: int) -> Point:
        return self.coords[i]


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
    """An edge between two point indices, weighted by Euclidean distance."""

    u: int
    v: int
    weight: float

    def __post_init__(self):
        if self.u == self.v:
            raise InputError(f"degenerate edge at vertex {self.u}")
        if self.weight < 0:
            raise InputError("edge weight must be nonnegative")

    def key(self) -> tuple[int, int]:
        """Normalized (min, max) endpoint pair."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


def euclidean_distance(a, b) -> float:
    """Euclidean norm of a - b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def make_edge(points: PointSet, u: int, v: int) -> Edge:
    return Edge(u, v, euclidean_distance(points.coords[u], points.coords[v]))


#: Most points the dense paths accept (``build_mst``, ``build_threshold_forest``,
#: ``greedy_ham_path``): each holds an n x n float matrix, 0.8 GB at the cap.
#: Filter-Kruskal's pair arrays take 24 bytes per pair besides, but only up
#: to ``mst._PRIM_ABOVE`` points; above it the MST and the forest run Prim,
#: which needs O(n) beside the matrix.
MAX_DENSE_POINTS = 10_000


def check_dense_size(n: int) -> None:
    """Raise SizeError, before anything is allocated, when n points exceed
    ``MAX_DENSE_POINTS``.  The estimate is the Filter-Kruskal path's need:
    8 n^2 bytes of matrix and 24 bytes per pair, so above
    ``mst._PRIM_ABOVE`` points, where Prim runs and no pair array is
    made, it is an overestimate (the greedy needs the matrix)."""
    if n > MAX_DENSE_POINTS:
        need = 8 * n * n + 24 * (n * (n - 1) // 2)
        raise SizeError(f"dense paths capped at n = {MAX_DENSE_POINTS}, got n = {n} "
                        f"(up to about {need:,} bytes)")


#: Rows per strip in ``pairwise_sq`` and ``symmetric_sq``; a strip of
#: n = 2000 rows fits in cache.
_STRIP = 256
_STRICT_LOWER = np.tri(_STRIP, k=-1, dtype=bool)


def pairwise_sq(coords: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances (clipped at 0).

    Entry (i, j) is max((|x_i|^2 + |x_j|^2) - 2 (x_i . x_j), 0), with the
    dot products from one full gemm.  The rest is elementwise and runs in
    place one strip of rows at a time, so the gemm's output is the only
    n x n array: with whole-matrix temporaries it took 1.6-1.8 times as
    long at n = 2000.
    """
    coords = np.asarray(coords, dtype=np.float64)
    sq = np.einsum("ij,ij->i", coords, coords)
    d2 = coords @ coords.T
    for i in range(0, len(d2), _STRIP):
        strip = d2[i:i + _STRIP]
        np.multiply(strip, 2.0, out=strip)
        np.subtract(sq[i:i + _STRIP, None] + sq[None, :], strip, out=strip)
    np.maximum(d2, 0.0, out=d2)
    return d2


def symmetric_sq(coords: np.ndarray) -> np.ndarray:
    """Read-only ``pairwise_sq`` matrix, exactly symmetric, +inf on the diagonal.

    The upper triangle is copied onto the lower one, so row u holds
    d2[min(u, v), max(u, v)] for every v, bit for bit, whatever the BLAS
    gives below the diagonal.  The copy runs one strip of rows at a time:
    a whole-matrix transpose runs at memory speed, several times slower
    at n = 2000.
    """
    d2 = pairwise_sq(coords)
    n = len(d2)
    for i in range(0, n, _STRIP):
        j = i + _STRIP
        block = d2[i:j, i:j]
        m = len(block)
        np.copyto(block, block.T, where=_STRICT_LOWER[:m, :m])
        d2[j:, i:j] = d2[i:j, j:].T
    np.fill_diagonal(d2, np.inf)
    d2.flags.writeable = False
    return d2


@dataclass(frozen=True)
class PowerCost:
    """Power-k cost of an edge set, kept both in log domain and linear form.

    ``log_terms`` holds k*ln|e| per nonzero edge, sorted descending so the
    fixed-order accumulation below is bit-stable under edge permutations.
    Zero-length edges contribute exactly 0 and are counted separately.
    """

    exponent: int
    log_terms: tuple[float, ...]
    zero_edges: int
    log_unscaled: float  # ln S_k, -inf for an empty cost
    unscaled: float  # S_k; math.inf with overflow=True when not representable
    scaled: float  # s_k = S_k ** (1/k)
    overflow: bool = False

    @property
    def edge_count(self) -> int:
        return len(self.log_terms) + self.zero_edges

    def to_dict(self) -> dict:
        """The JSON cost block; S_k is None when it overflows."""
        return {"S_k": None if self.overflow else self.unscaled, "s_k": self.scaled,
                "log_S_k": self.log_unscaled, "overflow": self.overflow}


def _logsumexp_desc(terms: Sequence[float]) -> float:
    """Log-sum-exp over terms already sorted descending (fixed order)."""
    if not terms:
        return -math.inf
    m = terms[0]
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def power_cost_from_weights(weights: Iterable[float], k: int) -> PowerCost:
    """PowerCost of a multiset of edge lengths under exponent k."""
    if k < 1 or int(k) != k:
        raise InputError(f"exponent must be a positive integer, got {k}")
    k = int(k)
    zero = 0
    terms: list[float] = []
    for w in weights:
        w = float(w)
        if w < 0:
            raise InputError("negative edge weight")
        if w == 0.0:
            zero += 1
        else:
            terms.append(k * math.log(w))
    terms.sort(reverse=True)
    log_s = _logsumexp_desc(terms)
    if log_s == -math.inf:
        return PowerCost(k, tuple(terms), zero, log_s, 0.0, 0.0)
    unscaled = math.exp(log_s) if log_s < 709.0 else math.inf
    overflow = not math.isfinite(unscaled)
    scaled = math.exp(log_s / k)
    return PowerCost(k, tuple(terms), zero, log_s, math.inf if overflow else unscaled,
                     scaled, overflow)


def power_cost(edges: Iterable[Edge], k: int) -> PowerCost:
    """PowerCost of an edge list under exponent k (routed via log domain)."""
    return power_cost_from_weights((e.weight for e in edges), k)


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

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "cycle_lower_conjectured": self.cycle_lower_conjectured,
            "cycle_upper_classic": self.cycle_upper_classic,
            "cycle_upper_improved": self.cycle_upper_improved,
            "dim3_cycle_lower": self.dim3_cycle_lower,
            "square_tour_upper": self.square_tour_upper,
            "path_conjectured": self.path_conjectured,
            "matching_upper": self.matching_upper,
        }


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
