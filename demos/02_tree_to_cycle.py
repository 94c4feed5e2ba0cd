"""From a spanning tree to a certified Hamiltonian cycle.

Any spanning tree T can be traversed into a Hamiltonian cycle whose hops
each span at most 3 tree edges, with every tree edge charged exactly
twice.  That double-cover accounting is what turns a tree cost bound into
a cycle cost bound: S_k(H) <= (2/3) * 3^k * S_k(T).
"""

from collections import Counter

from powertour import (build_mst, mst_sekanina_tour, power_cost, tree_cube_cycle,
                       tree_to_cycle_cost_bound, uniform_cube, verify_double_cover)

pts = uniform_cube(k=3, n=12, seed=4)
tree = build_mst(pts)
print(f"MST over {pts.n} points in [0,1]^3, total weight {tree.total_weight():.4f}")

tour, cert = tree_cube_cycle(tree, pts, anchor=0)
print(f"\ncycle order: {tour.order}")
print("hop lengths (tree edges used per cycle edge):", [len(p) for p in cert.hops])
usage = Counter(eid for path in cert.hops for eid in path)
print("usage per tree edge (must all be 2):", [usage[i] for i in range(len(tree.weights))])
print("certificate validates:", verify_double_cover(tree, cert) == [])

k = 3
tour, cost, bound = tree_to_cycle_cost_bound(tree, pts, k)
tree_cost = power_cost(tree, k)
print(f"\nS_{k}(T) = {tree_cost.unscaled:.4f}")
print(f"S_{k}(H) = {cost.unscaled:.4f} <= (2/3)*3^{k}*S_{k}(T) = {bound:.4f}")

print("\n== full pipeline on a larger instance ==")
pts = uniform_cube(k=5, n=300, seed=9)
tour, report = mst_sekanina_tour(pts, 5)
entry = report.algorithms["mst-sekanina"]
row = next(r for r in entry["bounds"] if r["name"] == "cycle_upper_improved")
print(f"n = {pts.n}, k = 5: s_5 = {entry['s_k']:.4f}, certified bound "
      f"{row['value']:.4f}, satisfied: {row['satisfied']}")
