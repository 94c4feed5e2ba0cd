"""Planar constructions with tight squared-length budgets.

The unit-square tour splits the square along a diagonal, routes an
extended path through each right triangle (cost at most the squared
hypotenuse), and splices them with shortcuts at the two corners.  The
budget telescopes to 2 + 2 = 4 regardless of how many points there are.
"""

import numpy as np

from powertour import (RightTriangle, envelope_path, newman_square_tour,
                       non_obtuse_cycle, point_set, power_cost, right_triangle_path,
                       square_tight_sets)

print("== the three sets whose best tours all cost exactly 4 ==")
labels = ("four corners (1+1+1+1)", "diagonal pair (2+2)",
          "corners + center (1+1+1+1/2+1/2)")
for label, ps in zip(labels, square_tight_sets()):
    tour = newman_square_tour(ps)
    s2 = power_cost(tour, 2).unscaled
    print(f"{label:<34} order {tour.order}  S_2 = {s2}")

print("\n== random instances never exceed 4 ==")
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(2000):
    n = int(rng.integers(2, 400))
    tour = newman_square_tour(point_set(rng.uniform(size=(n, 2))))
    worst = max(worst, power_cost(tour, 2).unscaled)
print(f"worst S_2 over 2000 instances (n up to 400): {worst:.4f}")

print("\n== the right-triangle primitive ==")
tri = RightTriangle(A=np.array([1.0, 0.0]), B=np.array([0.0, 1.0]),
                    C=np.array([0.0, 0.0]))
X = rng.uniform(size=(120, 2))
X = X[X.sum(axis=1) <= 1.0]
path = right_triangle_path(tri, X)
print(f"extended path through {len(X)} points of a right triangle: "
      f"sum |e|^2 = {path.cost_sq(X):.4f} <= c^2 = 2")

print("\n== non-obtuse triangles and the square minus a corner wedge ==")
eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
pts = point_set(eq, "planar_triangle")
tour = non_obtuse_cycle(eq, pts)
print(f"equilateral vertices: cycle cost {power_cost(tour, 2).unscaled:.4f}"
      " (tight at a^2 + b^2 + c^2 = 3)")

corners = point_set([[0, 0], [1, 0], [1, 1], [0, 1]], "planar_region")
ep = envelope_path(corners, side="bottom")
print(f"square minus center-bottom triangle, 4 corners: path cost "
      f"{ep.cost_sq(corners):.4f} <= 3")
