"""Two-phase tour: threshold forest, per-tree cycles, warm-started greedy.

Phase 1 cuts the point set's one MST at ``cutoff`` (default k^(-1/4)):
its edges within the cutoff form the threshold forest, which by Kruskal's
exchange property is Kruskal restricted to those edges.  It converts each
tree with >= 2 vertices into a certified cube-of-tree cycle, removes the
maximum-weight edge of each cycle, and collects the resulting open paths
(a 2-vertex tree's doubled edge leaves its single edge, singletons stay
isolated) into a path system F0, kept as a list of weighted edges.
Phase 2 hands F0's edge pairs to the greedy minimum-edge merging as its
warm start and closes the final path into a tour.  The phases are the
public steps ``build_threshold_forest``, ``tree_cube_cycle`` and
``greedy_ham_path``; the forest and the greedy both read the points' one
d^2 matrix, ``PointSet.sq``, and the forest reads the one MST that
mst-sekanina builds on the same point set.  d^2 orders pairs;
``edge_lengths`` measures them: F0's weights are read off the forest's and
the cycles' own edges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InputError
from .geometry import PointSet, PowerCost, check_exponent, power_cost, power_cost_from_weights
from .greedy import greedy_ham_path
from .mst import build_threshold_forest
from .sekanina import tree_cube_cycle
from .structures import Tour, close_path


@dataclass(frozen=True)
class PhaseReport:
    """Per-phase costs of one two-phase run (all under the same exponent)."""

    k: int
    cutoff: float
    tree_sizes: tuple[int, ...]
    forest_cost: PowerCost
    path_system_cost: PowerCost
    greedy_added: int
    path_cost: PowerCost
    closing_weight: float
    tour_cost: PowerCost
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "cutoff": self.cutoff,
            "tree_count": len(self.tree_sizes),
            "tree_sizes": list(self.tree_sizes),
            "forest": self.forest_cost.to_dict(),
            "path_system": self.path_system_cost.to_dict(),
            "greedy_added": self.greedy_added,
            "final_path": self.path_cost.to_dict(),
            "closing_weight": self.closing_weight,
            "tour": self.tour_cost.to_dict(),
            "elapsed_s": self.elapsed_s,
        }


def two_phase_tour(points: PointSet, k: int, cutoff: float | None = None
                   ) -> tuple[Tour, PhaseReport]:
    """Run both phases and return the tour plus per-phase cost report."""
    check_exponent(k)
    if points.n < 2:
        raise InputError("need at least 2 points")
    if cutoff is None:
        cutoff = float(k) ** -0.25
    start = time.perf_counter()
    trees = build_threshold_forest(points, cutoff)
    f0: list[tuple[float, int, int]] = []  # F0's edges as (weight, min, max)
    for tree in trees:
        if tree.n < 2:
            continue
        s = tree_cube_cycle(tree, points, anchor=tree.vertices[0])[0]
        rows = [(w, min(a, b), max(a, b))
                for a, b, w in zip(s.u.tolist(), s.v.tolist(), s.weights.tolist())]
        # drop the heaviest cycle edge (ties: lexicographically smallest pair)
        rows.remove(min(rows, key=lambda r: (-r[0], r[1], r[2])))
        f0 += rows

    forest_cost = power_cost_from_weights(np.concatenate([t.weights for t in trees]), k)
    path_system_cost = power_cost_from_weights([w for w, _a, _b in f0], k)

    # the per-tree conversion guarantees S_k(F0) <= 3^k * sum_i S_k(T_i)
    log_budget = k * math.log(3.0) + forest_cost.log_unscaled
    if path_system_cost.log_unscaled > log_budget + 1e-9:
        raise CertificateError("path system cost exceeds the per-tree cycle budget")

    ham_path, trace = greedy_ham_path(points, [(a, b) for _w, a, b in f0])
    tour = close_path(ham_path, points)
    path_cost = power_cost(ham_path, k)
    tour_cost = power_cost(tour, k)
    report = PhaseReport(
        k=k,
        cutoff=cutoff,
        tree_sizes=tuple(t.n for t in trees),
        forest_cost=forest_cost,
        path_system_cost=path_system_cost,
        greedy_added=len(trace),
        path_cost=path_cost,
        closing_weight=float(tour.weights[-1]),
        tour_cost=tour_cost,
        elapsed_s=time.perf_counter() - start,
    )
    return tour, report
