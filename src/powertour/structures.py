"""Combinatorial structures over point indices.

Spanning trees, tours, Hamiltonian paths, disjoint path systems (which
track each path's endpoints in one map) and matchings, the ``DSU``
union-find of the MST scan, plus the cycle -> matching decomposition and
a uniform ``validate`` entry point that reports every violated invariant.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InputError
from .geometry import (Edge, PointSet, close, edge_lengths, make_edge, make_edges,
                       power_cost)

WEIGHT_REL_TOL = 1e-12  # edge weights must match recomputed distances this tightly


@dataclass(frozen=True)
class SpanningTree:
    """A tree spanning ``vertices`` (a sorted subset of point indices)."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def total_weight(self) -> float:
        return float(sum(e.weight for e in self.edges))


@dataclass(frozen=True)
class Tour:
    """A closed visiting order: edges include the wrap-around closure."""

    order: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class HamPath:
    """An open visiting order with n-1 consecutive edges."""

    order: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def endpoints(self) -> tuple[int, int]:
        return self.order[0], self.order[-1]


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edges; perfect iff 2*|edges| == n."""

    edges: tuple[Edge, ...]

    def is_perfect(self, n: int) -> bool:
        return 2 * len(self.edges) == n


class DSU:
    """Union-find over 0..n-1 with path compression.

    ``union(a, b)`` hangs a's root under b's, so the roots depend only on
    the sequence of unions, never on which ``find`` calls came between.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def tree_from_pairs(points: PointSet, pairs, vertices=None) -> SpanningTree:
    verts = tuple(sorted(vertices)) if vertices is not None else tuple(range(points.n))
    return SpanningTree(verts, tuple(make_edges(points, pairs)))


def _consecutive_edges(points: PointSet, order: tuple[int, ...], closed: bool):
    idx = order + order[:1] if closed else order
    return tuple(make_edges(points, list(zip(idx, idx[1:]))))


def path_from_order(points: PointSet, order) -> HamPath:
    order = tuple(int(v) for v in order)
    return HamPath(order, _consecutive_edges(points, order, closed=False))


def tour_from_order(points: PointSet, order) -> Tour:
    order = tuple(int(v) for v in order)
    if len(order) < 2:
        raise InputError("a tour needs at least 2 points")
    return Tour(order, _consecutive_edges(points, order, closed=True))


def close_path(p: HamPath, points: PointSet) -> Tour:
    """Close a Hamiltonian path into a tour by joining its endpoints.

    For n = 2 the result is the doubled edge, cost 2*d^k.
    """
    if p.n < 2:
        raise InputError("cannot close a path on fewer than 2 points")
    a, b = p.endpoints()
    return Tour(p.order, p.edges + (make_edge(points, b, a),))


def cycle_to_matchings(t: Tour, k: int = 2) -> tuple[Matching, Matching]:
    """Split a tour's edges into the two alternating perfect matchings.

    Requires an even number of vertices.  The two matchings partition the
    tour's edge multiset, so S_k(M1) + S_k(M2) == S_k(t) term by term.
    Returned cheaper-first under exponent k.
    """
    n = t.n
    if n % 2 != 0:
        raise InputError(f"cycle of odd length {n} has no perfect matching split")
    if n < 2:
        raise InputError("need at least 2 vertices")
    m1 = Matching(t.edges[0::2])
    m2 = Matching(t.edges[1::2])
    c1 = power_cost(m1.edges, k).log_unscaled
    c2 = power_cost(m2.edges, k).log_unscaled
    return (m1, m2) if c1 <= c2 else (m2, m1)


class PathSystem:
    """A vertex-disjoint union of simple paths over n vertices.

    Maintains per-vertex neighbor lists (degree <= 2) and one endpoint map,
    ``other_end``: for a vertex of degree < 2 it holds the far endpoint of
    that vertex's path (the vertex itself for a singleton), and -1 once the
    vertex is interior.  Every edge joins two path endpoints, so u and v lie
    on one path exactly when each is the other's far end.
    """

    def __init__(self, n: int):
        if n < 1:
            raise InputError("need at least one vertex")
        self.n = n
        self.neighbors: list[list[int]] = [[] for _ in range(n)]
        self.edge_pairs: list[tuple[int, int]] = []
        self.other_end: list[int] = list(range(n))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "PathSystem":
        ps = cls(n)
        for u, v in pairs:
            try:
                a, b = operator.index(u), operator.index(v)
            except TypeError:
                raise InputError(f"path edge ({u!r}, {v!r}) needs integer vertex ids") from None
            ps.add_path_edge(a, b)
        return ps

    def component_count(self) -> int:
        return self.n - len(self.edge_pairs)

    def endpoints(self) -> dict[int, tuple[int, int]]:
        """Smaller endpoint -> its two path endpoints (equal for singletons)."""
        return {a: (a, b) for a, b in enumerate(self.other_end) if a <= b}

    def add_path_edge(self, u: int, v: int) -> None:
        """Insert edge (u, v); both must be endpoints of distinct paths."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"vertex out of range: ({u}, {v})")
        if u == v:
            raise InputError(f"degenerate edge at vertex {u}")
        far = self.other_end
        fu, fv = far[u], far[v]
        if fu < 0 or fv < 0:
            raise InputError(f"edge ({u}, {v}) would exceed degree 2")
        if fu == v:
            raise InputError(f"edge ({u}, {v}) would close a cycle")
        far[fu], far[fv] = fv, fu
        for x, y in ((u, v), (v, u)):
            if self.neighbors[x]:
                far[x] = -1  # x had degree 1 and is now interior
            self.neighbors[x].append(y)
        self.edge_pairs.append((u, v))

    def paths(self) -> list[list[int]]:
        """Each component as an ordered vertex walk, smaller endpoint first,
        ordered by that endpoint."""
        out = []
        for start, far in enumerate(self.other_end):
            if far < start:
                continue  # interior, or the larger endpoint of its path
            walk = [start]
            prev, cur = -1, start
            while cur != far:
                ns = self.neighbors[cur]
                prev, cur = cur, ns[1] if ns[0] == prev else ns[0]
                walk.append(cur)
            out.append(walk)
        return out


def _check_edge_weights(structure, points: PointSet, violations: list[str]) -> None:
    edges = structure.edges
    lengths = edge_lengths(points, [e.u for e in edges], [e.v for e in edges])
    for e, d in zip(edges, lengths.tolist()):
        if not close(e.weight, d, rel_tol=WEIGHT_REL_TOL, abs_tol=1e-12):
            violations.append(f"edge ({e.u}, {e.v}) weight {e.weight} != distance {d}")


def _check_permutation(order, n: int, violations: list[str]) -> bool:
    seen: dict[int, int] = {}
    ok = True
    for v in order:
        seen[v] = seen.get(v, 0) + 1
    for v, c in sorted(seen.items()):
        if c > 1:
            violations.append(f"order not a permutation: vertex {v} appears {c} times")
            ok = False
    if len(order) != n or set(seen) != set(range(n)):
        violations.append(f"order visits {len(order)} of {n} vertices")
        ok = False
    return ok


def validate(structure, points: PointSet) -> list[str]:
    """Return [] iff every type invariant of ``structure`` holds.

    Each violation names the broken invariant and the offending indices.
    """
    v: list[str] = []
    n = points.n
    if isinstance(structure, (Tour, HamPath)):
        kind, m = ("tour", n) if isinstance(structure, Tour) else ("path", n - 1)
        if _check_permutation(structure.order, n, v):
            if len(structure.edges) != m:
                v.append(f"{kind} has {len(structure.edges)} edges, expected {m}")
            else:
                for i in range(m):
                    a, b = structure.order[i], structure.order[(i + 1) % n]
                    e = structure.edges[i]
                    if {e.u, e.v} != {a, b}:
                        v.append(f"edge {i} is ({e.u}, {e.v}), expected ({a}, {b})")
        _check_edge_weights(structure, points, v)
    elif isinstance(structure, SpanningTree):
        verts = set(structure.vertices)
        if len(structure.edges) != len(verts) - 1:
            v.append(f"tree has {len(structure.edges)} edges for {len(verts)} vertices")
        parent = {x: x for x in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in structure.edges:
            if e.u not in verts or e.v not in verts:
                v.append(f"edge ({e.u}, {e.v}) leaves the vertex set")
                continue
            ru, rv = find(e.u), find(e.v)
            if ru == rv:
                v.append(f"edge ({e.u}, {e.v}) closes a cycle")
            else:
                parent[ru] = rv
        roots = {find(x) for x in verts}
        if len(roots) > 1:
            v.append(f"tree is disconnected: {len(roots)} components")
        _check_edge_weights(structure, points, v)
    elif isinstance(structure, PathSystem):
        deg = [0] * structure.n
        for (a, b) in structure.edge_pairs:
            deg[a] += 1
            deg[b] += 1
        for x, d in enumerate(deg):
            if d > 2:
                v.append(f"degree > 2 at vertex {x}")
        parent = list(range(structure.n))

        def pfind(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b) in structure.edge_pairs:
            ra, rb = pfind(a), pfind(b)
            if ra == rb:
                v.append(f"cycle through edge ({a}, {b})")
            else:
                parent[ra] = rb
        for a, b in structure.endpoints().values():
            if pfind(a) != pfind(b):
                v.append(f"endpoint map pairs {a} and {b} from different paths")
            for x in {a, b}:
                if deg[x] > 1:
                    v.append(f"endpoint map lists {x}, which has degree {deg[x]}")
    elif isinstance(structure, Matching):
        seen: set[int] = set()
        for e in structure.edges:
            for x in (e.u, e.v):
                if x in seen:
                    v.append(f"vertex {x} matched twice")
                seen.add(x)
        _check_edge_weights(structure, points, v)
    else:
        raise InputError(f"cannot validate object of type {type(structure).__name__}")
    return v

