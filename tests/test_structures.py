import numpy as np
import pytest

from powertour.errors import InputError
from powertour.geometry import edge_lengths, point_set, power_cost
from powertour.structures import (DSU, HamPath, Matching, PathSystem, SpanningTree, Tour,
                                  close_path, edge_arrays,
                                  cycle_to_matchings, path_from_order, tour_from_order,
                                  tree_from_pairs, validate)

from conftest import joinable, random_points


def test_close_path_square(square_corners):
    p = path_from_order(square_corners, (0, 1, 2, 3))
    assert sum(e.weight ** 2 for e in p.edges) == pytest.approx(3.0)
    t = close_path(p, square_corners)
    assert sum(e.weight ** 2 for e in t.edges) == pytest.approx(4.0)
    assert len(t.edges) == 4


def test_close_path_two_points():
    pts = point_set([[0.0, 0.0], [0.6, 0.8]])
    t = close_path(path_from_order(pts, (0, 1)), pts)
    assert len(t.edges) == 2
    assert power_cost(t.edges, 3).unscaled == pytest.approx(2.0, rel=1e-9)


def test_close_path_code_square():
    pts = point_set([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    t = close_path(path_from_order(pts, (0, 1, 2, 3)), pts)
    assert power_cost(t.edges, 3).unscaled == pytest.approx(4 * 2 ** 1.5, rel=1e-9)


def test_close_path_rejects_single_point():
    pts = point_set([[0.5, 0.5]])
    with pytest.raises(InputError):
        close_path(path_from_order(pts, (0,)), pts)


def test_close_then_reopen_recovers_cost(rng):
    pts = random_points(3, 9, 4)
    p = path_from_order(pts, tuple(rng.permutation(9)))
    t = close_path(p, pts)
    reopened = t.edges[:-1]
    assert [e.weight for e in reopened] == [e.weight for e in p.edges]


def test_cycle_to_matchings_square(square_corners):
    t = tour_from_order(square_corners, (0, 1, 2, 3))
    m1, m2 = cycle_to_matchings(t)
    assert sum(e.weight ** 2 for e in m1.edges) == pytest.approx(2.0)
    assert sum(e.weight ** 2 for e in m2.edges) == pytest.approx(2.0)
    assert m1.is_perfect(4) and m2.is_perfect(4)


def test_cycle_to_matchings_two_points():
    pts = point_set([[0.2, 0.2], [0.9, 0.4]])
    t = tour_from_order(pts, (0, 1))
    m1, m2 = cycle_to_matchings(t)
    d = t.edges[0].weight
    for m in (m1, m2):
        assert len(m.edges) == 1
        assert m.edges[0].weight == pytest.approx(d)


def test_cycle_to_matchings_conserves_terms(rng):
    pts = random_points(11, 8, 3)
    t = tour_from_order(pts, tuple(rng.permutation(8)))
    m1, m2 = cycle_to_matchings(t, k=3)
    merged = sorted(e.weight for e in m1.edges + m2.edges)
    assert merged == sorted(e.weight for e in t.edges)
    s_t = power_cost(t.edges, 3).unscaled
    s_1 = power_cost(m1.edges, 3).unscaled
    # alternating classes computed independently from the tour edge list
    even = power_cost(t.edges[0::2], 3).unscaled
    odd = power_cost(t.edges[1::2], 3).unscaled
    assert s_1 == pytest.approx(min(even, odd), rel=1e-12)
    assert s_1 <= s_t / 2 + 1e-12


def test_cycle_to_matchings_rejects_odd():
    pts = point_set([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(InputError):
        cycle_to_matchings(tour_from_order(pts, (0, 1, 2)))


def test_validate_clean_tour(square_corners):
    t = tour_from_order(square_corners, (0, 2, 1, 3))
    assert validate(t, square_corners) == []


def test_validate_repeated_vertex(square_corners):
    t = tour_from_order(square_corners, (0, 1, 2, 3))
    bad = type(t)(order=(0, 3, 3, 2), u=t.u, v=t.v, weights=t.weights)
    msgs = validate(bad, square_corners)
    assert any("order not a permutation: vertex 3" in m for m in msgs)


def test_validate_degree_three():
    ps = PathSystem(8)
    ps.add_path_edge(7, 0)
    ps.add_path_edge(7, 1)
    ps.edge_pairs.append((7, 2))  # corrupt past the guard
    ps.neighbors[7].append(2)
    ps.neighbors[2].append(7)
    msgs = validate(ps, point_set(np.zeros((8, 2)), "unconstrained"))
    assert any("degree > 2 at vertex 7" in m for m in msgs)


def test_validate_endpoint_map_pairs_one_path():
    ps = PathSystem.from_pairs(6, [(0, 1), (1, 2)])
    assert validate(ps, point_set(np.zeros((6, 2)), "unconstrained")) == []
    ps.other_end[3], ps.other_end[4] = 4, 3  # two singletons paired, past the guard
    msgs = validate(ps, point_set(np.zeros((6, 2)), "unconstrained"))
    assert msgs == ["endpoint map pairs 3 and 4 from different paths"]


def test_validate_matching_duplicate(square_corners):
    m = Matching(u=[0, 1], v=[1, 2], weights=[1.0, 1.0])
    msgs = validate(m, square_corners)
    assert any("vertex 1 matched twice" in m_ for m_ in msgs)


def test_validate_bad_weight(square_corners):
    t = tour_from_order(square_corners, (0, 1, 2, 3))
    weights = t.weights.copy()
    weights[0] = 0.5
    msgs = validate(type(t)(order=t.order, u=t.u, v=t.v, weights=weights), square_corners)
    assert any("weight" in m for m in msgs)


def test_validate_tree(square_corners):
    t = tree_from_pairs(square_corners, [(0, 1), (1, 2), (2, 3)])
    assert validate(t, square_corners) == []
    cyclic = tree_from_pairs(square_corners, [(0, 1), (1, 2), (0, 2)])
    msgs = validate(cyclic, square_corners)
    assert any("cycle" in m for m in msgs)
    assert any("disconnected" in m for m in msgs)


def test_path_system_components_drop_by_one(rng):
    ps = PathSystem(10)
    comps = ps.component_count()
    assert comps == 10
    order = rng.permutation(10)
    for i in range(9):
        ps.add_path_edge(int(order[i]), int(order[i + 1]))
        assert ps.component_count() == comps - 1
        comps -= 1
    assert len(ps.paths()) == 1


def test_path_system_rejects_illegal_joins():
    ps = PathSystem(4)
    ps.add_path_edge(0, 1)
    with pytest.raises(InputError):
        ps.add_path_edge(0, 1)  # same component
    ps.add_path_edge(1, 2)
    with pytest.raises(InputError):
        ps.add_path_edge(0, 2)  # would close a cycle
    ps.add_path_edge(2, 3)
    with pytest.raises(InputError):
        ps.add_path_edge(1, 3)  # degree at 1 is already 2


def test_path_system_endpoints_track_merges():
    ps = PathSystem(5)
    ps.add_path_edge(1, 2)
    ps.add_path_edge(2, 3)
    ends = sorted(ps.endpoints().values())
    assert (1, 3) in ends or (3, 1) in [tuple(reversed(e)) for e in ends]
    singles = [e for e in ends if e[0] == e[1]]
    assert len(singles) == 2  # vertices 0 and 4


class ReferencePathSystem:
    """The endpoint bookkeeping ``PathSystem`` replaced: a ``DSU`` over the
    vertices plus a registry from each path's root to its two endpoints."""

    def __init__(self, n):
        self.n = n
        self.neighbors = [[] for _ in range(n)]
        self.edge_count = 0
        self.dsu = DSU(n)
        self.ends = {v: (v, v) for v in range(n)}

    def can_join(self, u, v):
        if u == v or len(self.neighbors[u]) >= 2 or len(self.neighbors[v]) >= 2:
            return False
        return self.dsu.find(u) != self.dsu.find(v)

    def add_path_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError("out of range")
        if u == v:
            raise InputError("self-loop")
        ru, rv = self.dsu.find(u), self.dsu.find(v)
        if ru == rv:
            raise InputError("cycle")
        if len(self.neighbors[u]) >= 2 or len(self.neighbors[v]) >= 2:
            raise InputError("degree")
        ends_u, ends_v = self.ends.pop(ru), self.ends.pop(rv)
        new_u = ends_u[0] if ends_u[1] == u else ends_u[1]
        new_v = ends_v[0] if ends_v[1] == v else ends_v[1]
        self.dsu.union(ru, rv)
        self.neighbors[u].append(v)
        self.neighbors[v].append(u)
        self.edge_count += 1
        self.ends[rv] = (new_u, new_v)

    def paths(self):
        out = set()
        for a, b in self.ends.values():
            walk, prev = [min(a, b)], -1
            while True:
                nxt = [w for w in self.neighbors[walk[-1]] if w != prev]
                if not nxt:
                    break
                prev = walk[-1]
                walk.append(nxt[0])
            out.add(tuple(walk))
        return out


def join_attempts(n, gen):
    """Mostly joins between current endpoints, plus same-path, interior,
    self-loop and out-of-range attempts."""
    for _ in range(4 * n):
        kind = gen.random()
        if kind < 0.1:
            u = int(gen.integers(0, n))
            yield u, u
        elif kind < 0.2:
            yield int(gen.integers(-2, n + 2)), int(gen.choice([-1, n, n + 1]))
        else:
            yield int(gen.integers(0, n)), int(gen.integers(0, n))


def unordered_endpoints(system):
    return sorted(tuple(sorted(pair)) for pair in system.endpoints().values())


@pytest.mark.parametrize("seed", range(40))
def test_path_system_matches_the_union_find_reference(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 13))
    ps, ref = PathSystem(n), ReferencePathSystem(n)
    pts = point_set(np.zeros((n, 2)), "unconstrained")
    rejected = 0
    for u, v in join_attempts(n, gen):
        outcomes = []
        for system in (ps, ref):
            try:
                system.add_path_edge(u, v)
                outcomes.append(True)
            except InputError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1], (u, v)
        rejected += not outcomes[0]
        assert [[joinable(ps, a, b) for b in range(n)] for a in range(n)] == \
               [[ref.can_join(a, b) for b in range(n)] for a in range(n)]
        assert unordered_endpoints(ps) == \
               sorted(tuple(sorted(pair)) for pair in ref.ends.values())
        assert ps.component_count() == n - ref.edge_count
        assert {tuple(w) for w in ps.paths()} == ref.paths()
        assert validate(ps, pts) == []
    assert rejected > 0


@pytest.mark.parametrize("seed", range(20))
def test_dsu_roots_equal_find_after_random_unions(seed):
    """``roots`` gives ``find`` of every vertex, between unions too, and
    leaves the roots the later unions and finds see unchanged."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 200))
    dsu, ref = DSU(n), DSU(n)
    for _ in range(4):
        for a, b in gen.integers(0, n, size=(int(gen.integers(0, n + 1)), 2)).tolist():
            assert dsu.union(a, b) == ref.union(a, b)
        roots = dsu.roots()
        assert roots.dtype == np.intp
        assert roots.tolist() == [ref.find(x) for x in range(n)]
    assert [dsu.find(x) for x in range(n)] == [ref.find(x) for x in range(n)]


def test_path_system_reports_interior_before_cycle():
    """Edge (1, 2) touches interior vertex 1 and joins a path to itself:
    the degree violation is the one reported."""
    ps = PathSystem.from_pairs(4, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="degree 2"):
        ps.add_path_edge(1, 2)
    with pytest.raises(InputError, match="close a cycle"):
        ps.add_path_edge(0, 2)
    assert ps.paths() == [[0, 1, 2], [3]]
    assert ps.other_end == [2, -1, 0, 3]


def test_validate_path_edge_count_and_edges(square_corners):
    p = path_from_order(square_corners, (0, 1, 2, 3))
    short = type(p)(order=p.order, u=p.u[:2], v=p.v[:2], weights=p.weights[:2])
    assert validate(short, square_corners) == ["path has 2 edges, expected 3"]
    i = [0, 2, 1]
    swapped = type(p)(order=p.order, u=p.u[i], v=p.v[i], weights=p.weights[i])
    assert validate(swapped, square_corners) == [
        "edge 1 is (2, 3), expected (1, 2)", "edge 2 is (1, 2), expected (2, 3)"]


@pytest.mark.parametrize("bad", [-1, -4, 4, 99])
@pytest.mark.parametrize("build", [tour_from_order, path_from_order])
def test_walks_refuse_vertex_ids_out_of_range(square_corners, build, bad):
    """A negative id is not read from the end, and an id of n or more is
    named, not left to a bare IndexError."""
    with pytest.raises(InputError, match=f"vertex {bad} out of range for 4 points"):
        build(square_corners, (0, bad, 2, 3, 1))


@pytest.mark.parametrize("bad", [-1, 4])
def test_pair_builders_refuse_vertex_ids_out_of_range(square_corners, bad):
    """Pairs get the orders' check: -1 does not wrap to the last point."""
    with pytest.raises(InputError, match=f"vertex {bad} out of range for 4 points"):
        tree_from_pairs(square_corners, [(0, 1), (1, 2), (2, bad)])
    with pytest.raises(InputError, match=f"vertex {bad} out of range for 4 points"):
        edge_arrays(square_corners, [(bad, 0)])


@pytest.mark.parametrize("build", [
    tour_from_order, path_from_order,
    lambda points, ids: tree_from_pairs(points, zip(ids, ids[1:])),
], ids=["tour", "path", "tree"])
def test_builders_refuse_non_integer_vertex_ids(square_corners, build):
    """An id is taken with ``operator.index``: 1.9 is not read as 1."""
    for ids in ([0, 1.9, 2, 3], [0, 1.0, 2, 3], [0, "1", 2, 3]):
        with pytest.raises(InputError, match="vertex ids must be integers"):
            build(square_corners, ids)


def test_builders_take_integer_ids_of_any_type(square_corners):
    ids = np.array([0, 1, 3, 2])
    tour = tour_from_order(square_corners, ids)
    assert tour.order == (0, 1, 3, 2) and all(type(x) is int for x in tour.order)
    assert tree_from_pairs(square_corners, zip(ids, ids[1:])) == \
        tree_from_pairs(square_corners, [(0, 1), (1, 3), (3, 2)])


@pytest.mark.parametrize("bad", [-1, 4])
def test_validate_names_edge_ends_out_of_range(square_corners, bad):
    """Each end outside 0..n-1 is one violation naming its edge, for every
    kind, and the in-range edges' weights are still checked."""
    pts = square_corners
    out = f"has end {bad} outside 0..3"

    def weights(u, v):
        """The true lengths of (u, v), then 1 for the out-of-range edge."""
        return edge_lengths(pts, u, v).tolist() + [1.0]

    tree = SpanningTree(range(4), u=[0, 1, 2], v=[1, 2, bad], weights=weights([0, 1], [1, 2]))
    assert validate(tree, pts) == [f"edge (2, {bad}) leaves the vertex set",
                                   "tree is disconnected: 2 components", f"edge (2, {bad}) {out}"]
    tour = Tour((0, 1, 2, 3), u=[0, 1, 2, 3], v=[1, 2, 3, bad],
                weights=weights([0, 1, 2], [1, 2, 3]))
    assert validate(tour, pts) == [f"edge 3 is (3, {bad}), expected (3, 0)",
                                   f"edge (3, {bad}) {out}"]
    path = HamPath((0, 1, 2, 3), u=[0, 1, 2], v=[1, 2, bad], weights=weights([0, 1], [1, 2]))
    assert validate(path, pts) == [f"edge 2 is (2, {bad}), expected (2, 3)",
                                   f"edge (2, {bad}) {out}"]
    matching = Matching(u=[bad, 1], v=[0, 2], weights=[1.0, 0.5])
    assert validate(matching, pts) == [f"edge ({bad}, 0) {out}",
                                       "edge (1, 2) weight 0.5 != distance 1.0"]
    both = Matching(u=[-1], v=[4], weights=[1.0])
    assert validate(both, pts) == ["edge (-1, 4) has end -1 outside 0..3",
                                   "edge (-1, 4) has end 4 outside 0..3"]
