"""Combinatorial structures over point indices.

Spanning trees, tours, Hamiltonian paths, matchings and edge lists (the
greedy's trace) are built from arrays only: ends ``u`` and ``v`` and
``weights``, each structure's weights from one ``edge_lengths`` call.
Their ``edges`` tuple of ``Edge`` values is a read-only view, built only
when read, so no pipeline, comparison or check here builds an ``Edge``.
Every builder takes vertex ids through one check: integers in 0..n-1.
Disjoint path systems track each path's endpoints in one map.  Also here:
the ``DSU`` union-find of the MST scans, the cycle -> matching
decomposition and a uniform ``validate`` entry point that reports every
violated invariant.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .errors import InputError
from .geometry import Edge, PointSet, close, edge_lengths, power_cost

WEIGHT_REL_TOL = 1e-12  # edge weights must match recomputed distances this tightly


class _EdgeArrays:
    """Edges held as arrays: ends ``u`` and ``v`` and ``weights``, one entry
    per edge.

    ``edges`` holds the same values as ``Edge`` objects, a view built on
    first read.  Structures of one type compare by their ``vertices`` or
    ``order`` and their three arrays.  Arrays of unequal lengths raise
    InputError.
    """

    u = v = np.empty(0, dtype=np.intp)  # no edges: shared, never written
    weights = np.empty(0)

    def __init__(self, *, u=None, v=None, weights=None):
        if u is not None:
            self.u = np.asarray(u, dtype=np.intp)
            self.v = np.asarray(v, dtype=np.intp)
            self.weights = np.asarray(weights, dtype=np.float64)
            if not len(self.u) == len(self.v) == len(self.weights):
                raise InputError(f"edge arrays differ in length: u {len(self.u)}, "
                                 f"v {len(self.v)}, weights {len(self.weights)}")

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self.u.tolist(), self.v.tolist(), self.weights.tolist()))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f, ()), getattr(other, f, ()))
            for f in ("vertices", "order", "u", "v", "weights"))


class SpanningTree(_EdgeArrays):
    """A tree spanning ``vertices`` (a sorted subset of point indices)."""

    def __init__(self, vertices, **arrays):
        self.vertices = tuple(vertices)
        super().__init__(**arrays)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def total_weight(self) -> float:
        return float(sum(self.weights.tolist()))


class _Walk(_EdgeArrays):
    """A visiting ``order`` and the edges between consecutive entries."""

    def __init__(self, order, **arrays):
        self.order = tuple(order)
        super().__init__(**arrays)

    @property
    def n(self) -> int:
        return len(self.order)


class Tour(_Walk):
    """A closed visiting order: edges include the wrap-around closure."""


class HamPath(_Walk):
    """An open visiting order with n-1 consecutive edges."""

    def endpoints(self) -> tuple[int, int]:
        return self.order[0], self.order[-1]


class Matching(_EdgeArrays):
    """Vertex-disjoint edges; perfect iff 2*|edges| == n."""

    def is_perfect(self, n: int) -> bool:
        return 2 * len(self.u) == n


class EdgeList(_EdgeArrays):
    """Edges in a given order, such as the greedy's trace."""

    def __len__(self) -> int:
        return len(self.u)


class DSU:
    """Union-find over 0..n-1: ``find`` compresses paths, ``union`` halves
    them.

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
        """Join the sets of a and b; False when they were one set already.
        Each walk to a root points every vertex it passes at its
        grandparent, in line: the scans call this once per pair, and two
        ``find`` calls more cost about as much again."""
        p = self.parent
        while p[a] != a:
            p[a] = a = p[p[a]]
        while p[b] != b:
            p[b] = b = p[p[b]]
        if a == b:
            return False
        p[a] = b
        return True

    def roots(self) -> np.ndarray:
        """Every vertex's root, ``find(x)`` for each x, as one int array, by
        pointer jumping over a copy of ``parent`` (each pass halves every
        path); ``parent`` itself is left as it is."""
        root = np.array(self.parent, dtype=np.intp)
        while True:
            up = root[root]
            if (up == root).all():
                return root
            root = up


def _vertex_ids(points: PointSet, ids) -> list[int]:
    """``ids`` as a list of ints, taken with ``operator.index``.  A
    non-integer id or one outside 0..n-1 raises InputError."""
    try:
        ids = [operator.index(x) for x in ids]
    except TypeError as e:
        raise InputError(f"vertex ids must be integers: {e}") from None
    if ids and not 0 <= min(ids) <= max(ids) < points.n:
        bad = next(x for x in ids if not 0 <= x < points.n)
        raise InputError(f"vertex {bad} out of range for {points.n} points")
    return ids


def edge_arrays(points: PointSet, pairs) -> dict[str, np.ndarray]:
    """The arrays ``u``, ``v`` and ``weights`` of (u, v) pairs, the
    weights from one ``edge_lengths`` call.  Ids are checked as
    ``_vertex_ids`` does."""
    ends = _vertex_ids(points, (x for pair in pairs for x in pair))
    u, v = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    return {"u": u, "v": v, "weights": edge_lengths(points, u, v)}


def tree_from_pairs(points: PointSet, pairs, vertices=None) -> SpanningTree:
    verts = sorted(vertices) if vertices is not None else range(points.n)
    return SpanningTree(verts, **edge_arrays(points, pairs))


def _walk_arrays(points: PointSet, order, closed: bool) -> tuple[tuple[int, ...], dict]:
    """``order`` as a tuple of ints, checked as ``_vertex_ids`` does, and
    the arrays of its consecutive pairs."""
    order = tuple(_vertex_ids(points, order))
    ids = np.array(order, dtype=np.intp)
    u, v = (ids, np.concatenate((ids[1:], ids[:1]))) if closed else (ids[:-1], ids[1:])
    return order, {"u": u, "v": v, "weights": edge_lengths(points, u, v)}


def path_from_order(points: PointSet, order) -> HamPath:
    order, arrays = _walk_arrays(points, order, closed=False)
    return HamPath(order, **arrays)


def tour_from_order(points: PointSet, order) -> Tour:
    order, arrays = _walk_arrays(points, order, closed=True)
    if len(order) < 2:
        raise InputError("a tour needs at least 2 points")
    return Tour(order, **arrays)


def close_path(p: HamPath, points: PointSet) -> Tour:
    """Close a Hamiltonian path into a tour by joining its endpoints.

    For n = 2 the result is the doubled edge, cost 2*d^k.
    """
    if p.n < 2:
        raise InputError("cannot close a path on fewer than 2 points")
    a, b = p.endpoints()
    return Tour(p.order, u=np.append(p.u, b), v=np.append(p.v, a),
                weights=np.append(p.weights, edge_lengths(points, b, a)))


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
    m1, m2 = (Matching(u=t.u[i::2], v=t.v[i::2], weights=t.weights[i::2]) for i in (0, 1))
    c1 = power_cost(m1, k).log_unscaled
    c2 = power_cost(m2, k).log_unscaled
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
    """Each edge end outside 0..n-1 is one violation; the other edges'
    weights must match their recomputed lengths."""
    n = points.n
    u, v = structure.u, structure.v
    inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    for a, b in zip(u[~inside].tolist(), v[~inside].tolist()):
        violations.extend(f"edge ({a}, {b}) has end {x} outside 0..{n - 1}"
                          for x in (a, b) if not 0 <= x < n)
    u, v, weights = u[inside], v[inside], structure.weights[inside]
    for a, b, w, d in zip(u.tolist(), v.tolist(), weights.tolist(),
                          edge_lengths(points, u, v).tolist()):
        if not close(w, d, rel_tol=WEIGHT_REL_TOL, abs_tol=1e-12):
            violations.append(f"edge ({a}, {b}) weight {w} != distance {d}")


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


def _root(parent, x: int) -> int:
    """x's root under ``parent`` (a list or a dict), halving the path; the
    independent union-find of ``validate``."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def validate(structure, points: PointSet) -> list[str]:
    """Return [] iff every type invariant of ``structure`` holds.

    Each violation names the broken invariant and the offending indices.
    """
    v: list[str] = []
    n = points.n
    if isinstance(structure, (Tour, HamPath)):
        kind, m = ("tour", n) if isinstance(structure, Tour) else ("path", n - 1)
        if _check_permutation(structure.order, n, v):
            if len(structure.u) != m:
                v.append(f"{kind} has {len(structure.u)} edges, expected {m}")
            else:
                for i, (x, y) in enumerate(zip(structure.u.tolist(), structure.v.tolist())):
                    a, b = structure.order[i], structure.order[(i + 1) % n]
                    if {x, y} != {a, b}:
                        v.append(f"edge {i} is ({x}, {y}), expected ({a}, {b})")
    elif isinstance(structure, SpanningTree):
        verts = set(structure.vertices)
        if len(structure.u) != len(verts) - 1:
            v.append(f"tree has {len(structure.u)} edges for {len(verts)} vertices")
        parent = {x: x for x in verts}
        for a, b in zip(structure.u.tolist(), structure.v.tolist()):
            if a not in verts or b not in verts:
                v.append(f"edge ({a}, {b}) leaves the vertex set")
                continue
            ra, rb = _root(parent, a), _root(parent, b)
            if ra == rb:
                v.append(f"edge ({a}, {b}) closes a cycle")
            else:
                parent[ra] = rb
        roots = {_root(parent, x) for x in verts}
        if len(roots) > 1:
            v.append(f"tree is disconnected: {len(roots)} components")
    elif isinstance(structure, PathSystem):
        deg = [0] * structure.n
        for (a, b) in structure.edge_pairs:
            deg[a] += 1
            deg[b] += 1
        for x, d in enumerate(deg):
            if d > 2:
                v.append(f"degree > 2 at vertex {x}")
        parent = list(range(structure.n))
        for (a, b) in structure.edge_pairs:
            ra, rb = _root(parent, a), _root(parent, b)
            if ra == rb:
                v.append(f"cycle through edge ({a}, {b})")
            else:
                parent[ra] = rb
        for a, b in structure.endpoints().values():
            if _root(parent, a) != _root(parent, b):
                v.append(f"endpoint map pairs {a} and {b} from different paths")
            for x in {a, b}:
                if deg[x] > 1:
                    v.append(f"endpoint map lists {x}, which has degree {deg[x]}")
    elif isinstance(structure, Matching):
        seen: set[int] = set()
        for pair in zip(structure.u.tolist(), structure.v.tolist()):
            for x in pair:
                if x in seen:
                    v.append(f"vertex {x} matched twice")
                seen.add(x)
    else:
        raise InputError(f"cannot validate object of type {type(structure).__name__}")
    if isinstance(structure, _EdgeArrays):
        _check_edge_weights(structure, points, v)
    return v

