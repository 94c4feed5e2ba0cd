"""Instance-level checkers for the package's inequalities and code facts.

Everything here is a pure checker: it recomputes the quantity in question
and compares against a closed-form bound.  The BoundReport assembles the
named bounds next to achieved algorithm costs with stable JSON field
names (see README for the schema).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (PointSet, PowerCost, leq, named_bounds, pairwise_sq)
from .structures import Tour

SCHEMA_VERSION = 1

# Radius bound constant: the farthest point of an edge midball from the
# cube center is at most (sqrt(5)/4) * sqrt(k) for edges inside the
# half-cube [-1/2, 1/2]^k.
MIDBALL_COEFF = math.sqrt(5.0) / 4.0


def midball_reach(u, v) -> float:
    """|u+v|/2 + |u-v|/4: how far the open midball of edge uv reaches
    from the origin (midpoint norm plus ball radius)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.linalg.norm(u + v) / 2.0 + np.linalg.norm(u - v) / 4.0)


def midball_reach_check(u, v, rel_tol: float = 1e-9) -> tuple[float, float, bool]:
    """Verify the half-cube midball reach bound for one pair.

    Both points must lie in [-1/2, 1/2]^k (tolerance 1e-12).  Returns
    (lhs, rhs, ok) with lhs = |u+v|/2 + |u-v|/4 and rhs = (sqrt5/4)*sqrt(k).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise InputError("u and v must be equal-length vectors")
    for w in (u, v):
        if np.max(np.abs(w)) > 0.5 + 1e-12:
            raise InputError("points must lie in the half-cube [-1/2, 1/2]^k")
    k = u.shape[0]
    lhs = midball_reach(u, v)
    rhs = MIDBALL_COEFF * math.sqrt(k)
    return lhs, rhs, lhs <= rhs + rel_tol


def check_trials(count: int, what: str = "trials") -> None:
    """Reject a trial count below 1 before any trial runs."""
    if count < 1:
        raise InputError(f"{what} must be >= 1, got {count}")


def check_tol(tol: float) -> None:
    """Reject a tolerance that is negative, NaN or infinite before any trial
    runs: every comparison with NaN is false, inf passes every bound, and a
    negative tolerance fails results that meet their bound exactly."""
    if not math.isfinite(tol) or tol < 0:
        raise InputError(f"tol must be finite and >= 0, got {tol}")


def midball_reach_batch(k: int, trials: int, seed: int = 0,
                        rel_tol: float = 1e-9) -> tuple[int, float]:
    """Vectorized random verification over ``trials`` half-cube pairs.

    Returns (violations, worst_margin) where worst_margin = max(lhs - rhs).
    """
    if k < 1:
        raise InputError(f"dimension must be >= 1, got {k}")
    check_trials(trials)
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    u = rng.uniform(-0.5, 0.5, size=(trials, k))
    v = rng.uniform(-0.5, 0.5, size=(trials, k))
    lhs = np.linalg.norm(u + v, axis=1) / 2.0 + np.linalg.norm(u - v, axis=1) / 4.0
    rhs = MIDBALL_COEFF * math.sqrt(k)
    margin = lhs - rhs
    return int(np.sum(margin > rel_tol)), float(margin.max())


def hamming_min_distance(points: PointSet) -> int:
    """Exact minimum pairwise Hamming distance of a cube-vertex point set."""
    coords = points.coords
    if coords.shape[0] < 2:
        raise InputError("need at least 2 points")
    if np.max(np.abs(coords - np.round(coords))) > 1e-9 or \
       coords.min() < -1e-9 or coords.max() > 1 + 1e-9:
        raise InputError("coordinates must be binary (0/1)")
    bits = np.round(coords).astype(np.uint8)
    n, kdim = bits.shape
    sentinel = kdim + 1
    best = sentinel
    step = max(1, 2_000_000 // max(1, n * kdim))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        d = (bits[lo:hi, None, :] != bits[None, :, :]).sum(axis=2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = sentinel  # mask self-pairs
        best = min(best, int(d.min()))
    return best


@dataclass(frozen=True)
class SingletonCheck:
    """Size bounds for a binary code of length k and minimum distance d."""

    kdim: int
    d: int
    size: int
    bound: float  # 2^(k - d + 1)
    improved_bound: float | None  # 2^(k - 1.5 d + 2) when d < 2k/3
    ok: bool
    ok_improved: bool | None


def singleton_check(kdim: int, d: int, size: int) -> SingletonCheck:
    """Compare a claimed code size against the distance-based size bounds."""
    if kdim < 1 or d < 1:
        raise InputError("need kdim >= 1 and d >= 1")
    bound = 2.0 ** (kdim - d + 1)
    improved = 2.0 ** (kdim - 1.5 * d + 2) if d < 2 * kdim / 3 else None
    return SingletonCheck(
        kdim, d, size, bound, improved,
        ok=size <= bound,
        ok_improved=(size <= improved) if improved is not None else None,
    )


@dataclass(frozen=True)
class NearestNeighborCheck:
    nn_sq_sum: float
    tour_cost: float
    ok_vs_tour: bool
    ok_le_4: bool


def nearest_neighbor_sum_check(points: PointSet, tour: Tour,
                               rel_tol: float = 1e-9) -> NearestNeighborCheck:
    """Sum of squared nearest-neighbor distances in the plane.

    The sum never exceeds S_2 of any tour (each vertex's nearest neighbor
    is at most its outgoing tour edge away), and is at most 4 whenever the
    tour cost is (e.g. the constructive unit-square tour).
    """
    if points.k != 2:
        raise InputError("nearest-neighbor check is for planar point sets")
    d2 = pairwise_sq(points.coords)
    np.fill_diagonal(d2, np.inf)
    nn_sum = float(d2.min(axis=1).sum())
    s2 = float(sum(e.weight ** 2 for e in tour.edges))
    return NearestNeighborCheck(
        nn_sq_sum=nn_sum,
        tour_cost=s2,
        ok_vs_tour=leq(nn_sum, s2, rel_tol=rel_tol),
        ok_le_4=leq(nn_sum, 4.0, rel_tol=rel_tol),
    )


# Which algorithm's scaled cost is constructively guaranteed under which
# named bound (everything else in a report is informational).
CERTIFIED_UPPER = {
    "mst-sekanina": "cycle_upper_improved",
    "two-phase": "cycle_upper_improved",
    "newman2d": "square_tour_upper",
}


@dataclass(frozen=True)
class BoundReport:
    """Comparison of achieved costs against the named bounds."""

    instance: dict
    k: int
    n: int
    algorithms: dict
    bounds: dict
    wall_time_s: float | None = None

    def certified_failures(self) -> list[str]:
        out = []
        for algo, entry in self.algorithms.items():
            for row in entry["bounds"]:
                if row["certified"] and not row["satisfied"]:
                    out.append(f"{algo}: {row['name']}")
        return out

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "instance": self.instance,
            "k": self.k,
            "n": self.n,
            "bounds": self.bounds,
            "algorithms": self.algorithms,
        }
        if self.wall_time_s is not None:
            d["wall_time_s"] = self.wall_time_s
        return d


def bound_report(points: PointSet, k: int, results: dict[str, PowerCost],
                 instance: dict | None = None, rel_tol: float = 1e-9,
                 wall_time_s: float | None = None) -> BoundReport:
    """Assemble the bound-comparison table for achieved costs.

    ``results`` maps an algorithm label to its tour PowerCost.  Upper
    bounds are marked satisfied when s_k <= bound; the conjectured lower
    bound row is informational (individual instances may beat it) and is
    marked satisfied when s_k >= bound.
    """
    nb = named_bounds(k, points.n)
    bounds = nb.as_dict()
    algorithms = {}
    # the constructive guarantees assume cost exponent == dimension
    exponent_matches_dim = k == points.k
    for algo, cost in results.items():
        certified_name = CERTIFIED_UPPER.get(algo)
        rows = []
        for name in ("cycle_upper_improved", "cycle_upper_classic",
                     "square_tour_upper", "cycle_lower_conjectured"):
            value = bounds.get(name)
            if value is None:
                continue
            if name == "cycle_lower_conjectured":
                satisfied = cost.scaled >= value * (1.0 - rel_tol)
            else:
                satisfied = leq(cost.scaled, value, rel_tol=rel_tol)
            certified = (name == certified_name) and exponent_matches_dim and (
                k >= 3 or name == "square_tour_upper")
            rows.append({"name": name, "value": value,
                         "certified": certified, "satisfied": bool(satisfied)})
        algorithms[algo] = {**cost.to_dict(), "bounds": rows}
    inst = {"n": points.n, "k": points.k, "container": points.container.value}
    if instance:
        inst.update(instance)
    return BoundReport(inst, k, points.n, algorithms, bounds, wall_time_s)
