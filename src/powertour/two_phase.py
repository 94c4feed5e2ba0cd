"""Two-phase tour: threshold forest, per-tree cycles, warm-started greedy.

Phase 1 builds a forest with Kruskal restricted to edges of weight at most
``cutoff`` (default k^(-1/4)), converts each tree with >= 3 vertices into
a certified cube-of-tree cycle, removes the maximum-weight edge of each
cycle, and collects the resulting open paths (2-vertex trees contribute
their single edge, singletons stay isolated) into a path system F0, kept
as a list of weighted edges.  Phase 2 hands F0's edge pairs to the greedy
minimum-edge merging as its warm start and closes the final path into a
tour.  Both phases read one d^2 matrix, ``geometry.symmetric_sq``, built
once per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import CertificateError, InputError
from .geometry import (PointSet, PowerCost, check_dense_size, power_cost,
                       power_cost_from_weights, symmetric_sq)
from .greedy import join_paths
from .mst import check_cutoff, forest_from_sq
from .sekanina import tree_cube_cycle
from .structures import PathSystem, Tour, close_path


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
    if points.n < 2:
        raise InputError("need at least 2 points")
    if k < 1:
        raise InputError("exponent must be positive")
    if cutoff is None:
        cutoff = float(k) ** -0.25
    check_cutoff(cutoff)
    check_dense_size(points.n)
    start = time.perf_counter()
    coords = points.coords

    def weighed(a: int, b: int) -> tuple[float, int, int]:
        return float(math.dist(coords[a], coords[b])), a, b

    # one d^2 matrix, read by the forest and by the greedy
    d2 = symmetric_sq(coords)
    trees = forest_from_sq(d2, cutoff)
    path_edges: list[tuple[float, int, int]] = []  # F0 as (weight, a, b)
    for tree in trees:
        if tree.n <= 1:
            continue
        if tree.n == 2:
            path_edges.append(weighed(*tree.vertices))
            continue
        _cycle, cert = tree_cube_cycle(tree, points, anchor=tree.vertices[0])
        cycle_edges = [weighed(a, b) for a, b in cert.hops]
        # drop the heaviest cycle edge (ties: lexicographically smallest pair)
        drop = max(cycle_edges, key=lambda t: (t[0], (-t[1], -t[2])))
        path_edges.extend(e for e in cycle_edges if e != drop)

    forest_cost = power_cost_from_weights(
        [e.weight for t in trees for e in t.edges], k)
    path_system_cost = power_cost_from_weights([w for w, _a, _b in path_edges], k)

    # the per-tree conversion guarantees S_k(F0) <= 3^k * sum_i S_k(T_i)
    log_budget = k * math.log(3.0) + forest_cost.log_unscaled
    if path_system_cost.log_unscaled > log_budget + 1e-9:
        raise CertificateError("path system cost exceeds the per-tree cycle budget")

    system = PathSystem.from_pairs(points.n, [(a, b) for _w, a, b in path_edges])
    ham_path, trace = join_paths(points, system, d2)
    tour = close_path(ham_path, points)
    path_cost = power_cost(ham_path.edges, k)
    tour_cost = power_cost(tour.edges, k)
    report = PhaseReport(
        k=k,
        cutoff=cutoff,
        tree_sizes=tuple(t.n for t in trees),
        forest_cost=forest_cost,
        path_system_cost=path_system_cost,
        greedy_added=len(trace),
        path_cost=path_cost,
        closing_weight=tour.edges[-1].weight,
        tour_cost=tour_cost,
        elapsed_s=time.perf_counter() - start,
    )
    return tour, report
