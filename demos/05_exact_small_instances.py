"""Exact optimization on small instances, and the extremal configurations.

The exact solvers find the optimal tour / path / perfect matching with a
Held-Karp table over vertex subsets, so they are the ground truth the
constructions are measured against.
The named point sets below are the ones that pin the known bounds.
"""

from powertour import (cycle_to_matchings, diagonal_pair, exact_min_matching,
                       exact_min_path, exact_min_tour, k3_code4,
                       k4_even_weight_code, power_cost, uniform_cube)

print("== the 4-point code in {0,1}^3 (all pairwise distances sqrt(2)) ==")
pts = k3_code4()
tour, cost = exact_min_tour(pts, 3)
print(f"best tour S_3 = {cost.unscaled:.6f} = 4 * 2^1.5;"
      f"  s_3 = {cost.scaled:.6f} = 2^(7/6)")
print("-> beats the cube diagonal pair (S_3 = 10.3923...), so for k = 3 the")
print("   diagonal is NOT the extremal configuration.")

print("\n== two point sets in {0,1}^4 with the same optimal cost 32 ==")
_t, c_diag = exact_min_tour(diagonal_pair(4), 4)
_t, c_code = exact_min_tour(k4_even_weight_code(), 4)
print(f"diagonal pair:     S_4 = {c_diag.unscaled:.1f}")
print(f"even-weight code:  S_4 = {c_code.unscaled:.1f}  (8 points, 2520 distinct tours)")

print("\n== paths lose the closing edge ==")
_p, c = exact_min_path(k3_code4(), 3)
print(f"best path through the 3-bit code: S_3 = {c.unscaled:.6f} = 3 * 2^1.5")

print("\n== matchings from cycles ==")
pts = uniform_cube(2, 10, seed=2)
tour, tour_cost = exact_min_tour(pts, 2)
m1, m2 = cycle_to_matchings(tour, 2)
_m, best = exact_min_matching(pts, 2)
s1 = power_cost(m1, 2).unscaled
s2 = power_cost(m2, 2).unscaled
print(f"optimal tour S_2 = {tour_cost.unscaled:.4f} splits into alternating")
print(f"matchings costing {s1:.4f} + {s2:.4f}; the cheaper half is within a")
print(f"factor {s1 / best.unscaled:.3f} of the true optimal matching {best.unscaled:.4f}")
