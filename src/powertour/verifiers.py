"""Instance-level checkers for the package's inequalities and code facts.

Everything here is a pure checker: it recomputes the quantity in question
and compares against a closed-form bound.  The BoundReport assembles the
named bounds next to achieved algorithm costs with stable JSON field
names (see README for the schema).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .geometry import CONTAINMENT_TOL, PointSet, PowerCost, leq, named_bounds

SCHEMA_VERSION = 1

# Radius bound constant: the farthest point of an edge midball from the
# cube center is at most (sqrt(5)/4) * sqrt(k) for edges inside the
# half-cube [-1/2, 1/2]^k.
MIDBALL_COEFF = math.sqrt(5.0) / 4.0

#: Relative slack of ``midball_reach_check`` and the rows of ``bound_report``.
_REL_TOL = 1e-9

#: Trials per block in ``midball_reach_batch``.
_MIDBALL_BLOCK = 1024


def midball_reach(u, v) -> float:
    """|u+v|/2 + |u-v|/4: how far the open midball of edge uv reaches
    from the origin (midpoint norm plus ball radius)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.linalg.norm(u + v) / 2.0 + np.linalg.norm(u - v) / 4.0)


def midball_reach_check(u, v) -> tuple[float, float, bool]:
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
    return lhs, rhs, lhs <= rhs + _REL_TOL


def check_trials(count: int, what: str = "trials") -> None:
    """Reject a trial count below 1 before any trial runs."""
    if count < 1:
        raise InputError(f"{what} must be >= 1, got {count}")


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer >= 0 before any draw."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")


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
    The pairs are those of one draw of u, shape (trials, k), followed by one
    of v from ``default_rng(SeedSequence([seed, k]))``.  They are checked in
    blocks of ``_MIDBALL_BLOCK`` rows, so memory does not grow with
    ``trials``: u and v come from two generators on that seed, v's moved
    past u's ``trials * k`` draws, and each block reads exactly the numbers
    of the one-shot draw.
    """
    if k < 1:
        raise InputError(f"dimension must be >= 1, got {k}")
    check_trials(trials)
    seq = np.random.SeedSequence([seed, k])
    gen_u = np.random.Generator(np.random.PCG64(seq))
    gen_v = np.random.Generator(np.random.PCG64(seq))
    gen_v.bit_generator.advance(trials * k)  # one 64-bit step per double
    rhs = MIDBALL_COEFF * math.sqrt(k)
    bad, worst = 0, -math.inf
    for lo in range(0, trials, _MIDBALL_BLOCK):
        rows = min(_MIDBALL_BLOCK, trials - lo)
        u = gen_u.uniform(-0.5, 0.5, size=(rows, k))
        v = gen_v.uniform(-0.5, 0.5, size=(rows, k))
        lhs = np.linalg.norm(u + v, axis=1) / 2.0 + np.linalg.norm(u - v, axis=1) / 4.0
        margin = lhs - rhs
        bad += int(np.sum(margin > rel_tol))
        worst = max(worst, float(margin.max()))
    return bad, worst


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
                 instance: dict | None = None, wall_time_s: float | None = None) -> BoundReport:
    """Assemble the bound-comparison table for achieved costs.

    ``results`` maps an algorithm label to its tour PowerCost.  Upper
    bounds are marked satisfied when s_k <= bound; the conjectured lower
    bound row is informational (individual instances may beat it) and is
    marked satisfied when s_k >= bound.  A row is certified only when k is
    the dimension and every coordinate's extent (max - min) is at most 1,
    up to ``CONTAINMENT_TOL``: the guarantees hold for points in a unit
    cube, and a set that fits in one fits in a translate of ``[0, 1]^k``.
    """
    bounds = asdict(named_bounds(k, points.n))
    algorithms = {}
    applies = k == points.k and float(np.ptp(points.coords, axis=0).max()) <= (
        1.0 + CONTAINMENT_TOL)
    for algo, cost in results.items():
        certified_name = CERTIFIED_UPPER.get(algo)
        rows = []
        for name in ("cycle_upper_improved", "cycle_upper_classic",
                     "square_tour_upper", "cycle_lower_conjectured"):
            value = bounds.get(name)
            if value is None:
                continue
            if name == "cycle_lower_conjectured":
                satisfied = cost.scaled >= value * (1.0 - _REL_TOL)
            else:
                satisfied = leq(cost.scaled, value, rel_tol=_REL_TOL)
            certified = (name == certified_name) and applies and (
                k >= 3 or name == "square_tour_upper")
            rows.append({"name": name, "value": value,
                         "certified": certified, "satisfied": bool(satisfied)})
        algorithms[algo] = {**cost.to_dict(), "bounds": rows}
    inst = {"n": points.n, "k": points.k, "container": points.container.value}
    if instance:
        inst.update(instance)
    return BoundReport(inst, k, points.n, algorithms, bounds, wall_time_s)
