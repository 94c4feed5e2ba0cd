"""Hamiltonian cycles in the cube of a spanning tree.

Given a tree T with n >= 3 vertices, T^3 (vertices joined when their tree
distance is <= 3) contains a Hamiltonian cycle H such that every tree edge
lies on the tree paths of exactly two cycle edges, and some cycle edge
incident to a chosen anchor vertex is itself a tree edge.  This module
constructs such a cycle together with an independently checkable
UsageCertificate, and derives the cost guarantee

    S_k(H) <= (2/3) * 3^k * S_k(T)

realized by any cycle with those properties (each cycle hop is at most the
sum of <= 3 tree edges, and each tree edge is charged exactly twice).

Construction: root the tree at the anchor and induct over a designated
edge (v, c) from a vertex to an unprocessed child.  Splitting the current
component on (v, c) leaves v's remaining component and c's subtree; each
side is solved for a designated edge of its own and the two open paths are
spliced across (v, c).  All splice shapes touch O(1) cycle edges, so the
whole construction runs on an explicit worklist in O(n) time and never
grows the machine stack (safe for n up to 1e5).  The certificate is
re-verified from scratch after every construction; a failure raises
CertificateError and signals a bug, never bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CertificateError, InputError
from .geometry import PointSet, PowerCost, power_cost
from .structures import SpanningTree, Tour, tour_from_order
from .verifiers import BoundReport, bound_report


@dataclass(frozen=True)
class UsageCertificate:
    """Maps each cycle edge to the tree path it uses (as tree-edge ids).

    ``hops`` is keyed by the normalized cycle-edge pair; ``usage`` counts,
    per tree edge id, how many cycle hops traverse it (every count must be
    exactly 2).  ``anchor`` is the vertex at which a cycle edge must
    coincide with a tree edge.
    """

    hops: dict[tuple[int, int], tuple[int, ...]]
    usage: tuple[int, ...]
    anchor: int

    def max_hop_length(self) -> int:
        return max(len(p) for p in self.hops.values())

    def validate(self, tree: SpanningTree) -> list[str]:
        return verify_double_cover(tree, self.hops, self.anchor)


def verify_double_cover(tree: SpanningTree,
                        hops: dict[tuple[int, int], tuple[int, ...]],
                        anchor: int) -> list[str]:
    """Independently re-check a cycle-over-tree certificate.

    Checks: the hop keys form a single Hamiltonian cycle over the tree's
    vertex set; every hop is a genuine tree path of length <= 3 between its
    endpoints; every tree edge is used by exactly two hops; some hop of
    length 1 touches the anchor.
    """
    out: list[str] = []
    verts = list(tree.vertices)
    n = len(verts)
    edge_by_id = {i: e for i, e in enumerate(tree.edges)}
    # cycle structure
    deg: dict[int, list[int]] = {v: [] for v in verts}
    for (a, b) in hops:
        if a not in deg or b not in deg:
            out.append(f"cycle edge ({a}, {b}) leaves the vertex set")
            return out
        deg[a].append(b)
        deg[b].append(a)
    if len(hops) != n:
        out.append(f"cycle has {len(hops)} edges, expected {n}")
    bad_deg = [v for v, ns in deg.items() if len(ns) != 2]
    if bad_deg:
        out.append(f"cycle degree != 2 at vertices {bad_deg[:5]}")
    if out:
        return out
    start = verts[0]
    seen = {start}
    prev, cur = None, start
    for _ in range(n - 1):
        nxt = [w for w in deg[cur] if w != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        if cur in seen:
            out.append(f"cycle revisits vertex {cur}")
            return out
        seen.add(cur)
    if len(seen) != n:
        out.append(f"cycle walk covers {len(seen)} of {n} vertices")
        return out
    # hop paths
    usage = [0] * len(tree.edges)
    anchor_tree_edge = False
    def walks(path, src, dst) -> bool:
        at = src
        used_here = set()
        for eid in path:
            if eid in used_here or eid not in edge_by_id:
                return False
            used_here.add(eid)
            e = edge_by_id[eid]
            if e.u == at:
                at = e.v
            elif e.v == at:
                at = e.u
            else:
                return False
        return at == dst

    for (a, b), path in hops.items():
        if not 1 <= len(path) <= 3:
            out.append(f"hop ({a}, {b}) uses {len(path)} tree edges")
            continue
        if not (walks(path, a, b) or walks(tuple(reversed(path)), a, b)):
            out.append(f"hop ({a}, {b}) is not a tree walk to its endpoint")
            continue
        for eid in path:
            usage[eid] += 1
        if len(path) == 1 and anchor in (a, b):
            anchor_tree_edge = True
    for eid, c in enumerate(usage):
        if c != 2:
            e = edge_by_id[eid]
            out.append(f"tree edge ({e.u}, {e.v}) used {c} times, expected 2")
    if not anchor_tree_edge:
        out.append(f"no length-1 cycle edge at anchor {anchor}")
    return out


def _root_tree(adj: dict[int, tuple[int, ...]], anchor: int):
    """Children lists (sorted ascending) and subtree sizes, iteratively."""
    children: dict[int, list[int]] = {}
    parent = {anchor: None}
    order = [anchor]
    stack = [anchor]
    while stack:
        v = stack.pop()
        kids = sorted(w for w in adj[v] if w != parent[v])
        children[v] = kids
        for w in kids:
            parent[w] = v
            order.append(w)
            stack.append(w)
    size = {v: 1 for v in order}
    for v in reversed(order):
        for w in children[v]:
            size[v] += size[w]
    return children, size


def _cube_cycle(t: SpanningTree, anchor: int):
    """Core worklist machine over global vertex ids.

    Returns ``hops``, which maps each normalized cycle-edge pair to the
    tree path it uses, as a tuple of indices into ``t.edges``; its keys are
    the cycle itself.  Requires the component of ``anchor`` to have >= 3
    vertices.
    """
    adj = t.adjacency
    if anchor not in adj:
        raise InputError(f"anchor {anchor} not a tree vertex")
    children, size = _root_tree(adj, anchor)
    n = size[anchor]
    if n < 3:
        raise InputError(f"tree-cube cycles need >= 3 vertices, got {n}")

    edge_id = {e.key(): i for i, e in enumerate(t.edges)}
    hops: dict[tuple[int, int], tuple[int, ...]] = {}

    def pair(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def te(a: int, b: int) -> int:
        return edge_id[pair(a, b)]

    def add(a: int, b: int, path: tuple[int, ...]):
        hops[pair(a, b)] = path

    ptr = {v: 0 for v in children}
    # frames: ("B", v, c, comp_size) build the cycle for v's current
    # component with designated edge (v, c); "LX"/"LY" re-insert a leaf
    # after the child build; "SP" splices the two side paths.
    work: list[tuple] = [("B", anchor, children[anchor][0], n)]
    while work:
        frame = work.pop()
        op = frame[0]
        if op == "B":
            _, v, c, comp = frame
            sy = size[c]
            sx = comp - sy
            if sx == 1:
                cp = children[c][0]
                if sy == 2:
                    add(v, c, (te(v, c),))
                    add(c, cp, (te(c, cp),))
                    add(cp, v, (te(cp, c), te(c, v)))
                else:
                    work.append(("LX", v, c, cp))
                    work.append(("B", c, cp, sy))
            elif sy == 1:
                ptr[v] += 1
                c2 = children[v][ptr[v]]
                if sx == 2:
                    add(v, c, (te(v, c),))
                    add(v, c2, (te(v, c2),))
                    add(c2, c, (te(c2, v), te(v, c)))
                else:
                    work.append(("LY", v, c, c2))
                    work.append(("B", v, c2, sx))
            else:
                ptr[v] += 1
                c2 = children[v][ptr[v]]
                cp = children[c][0]
                work.append(("SP", v, c, c2, cp, sx, sy))
                if sy >= 3:
                    work.append(("B", c, cp, sy))
                if sx >= 3:
                    work.append(("B", v, c2, sx))
        elif op == "LX":
            # v is alone on its side: thread it between c and c's child.
            _, v, c, cp = frame
            del hops[pair(c, cp)]
            add(v, c, (te(v, c),))
            add(v, cp, (te(v, c), te(c, cp)))
        elif op == "LY":
            # c is a leaf: thread it between v and v's next child.
            _, v, c, c2 = frame
            del hops[pair(v, c2)]
            add(v, c, (te(v, c),))
            add(c, c2, (te(c, v), te(v, c2)))
        else:  # "SP"
            _, v, c, c2, cp, sx, sy = frame
            if sx >= 3:
                del hops[pair(v, c2)]  # opens the v-side cycle into a path v..c2
            else:
                add(v, c2, (te(v, c2),))  # the 2-vertex side is a bare edge
            if sy >= 3:
                del hops[pair(c, cp)]
            else:
                add(c, cp, (te(c, cp),))
            add(v, c, (te(v, c),))
            add(cp, c2, (te(cp, c), te(c, v), te(v, c2)))
    return hops


def _cycle_order(hops: dict[tuple[int, int], tuple[int, ...]], anchor: int) -> list[int]:
    """The cycle whose edges are the keys of ``hops``, walked from ``anchor``
    towards its smaller neighbour."""
    cyc: dict[int, list[int]] = {}
    for a, b in hops:
        cyc.setdefault(a, []).append(b)
        cyc.setdefault(b, []).append(a)
    order = [anchor]
    prev, cur = anchor, min(cyc[anchor])
    while cur != anchor:
        order.append(cur)
        x, y = cyc[cur]
        prev, cur = cur, y if x == prev else x
    return order


def tree_cube_cycle(t: SpanningTree, points: PointSet, anchor: int = 0
                    ) -> tuple[Tour, UsageCertificate]:
    """Hamiltonian cycle of T^3 using every tree edge exactly twice.

    ``t`` may be any tree whose vertices index ``points``, such as one tree
    of a threshold forest; the returned tour visits exactly ``t.vertices``.
    ``anchor`` selects the vertex guaranteed to meet a cycle edge that is
    itself a tree edge.  The returned certificate has been re-verified, as
    has every hop's triangle inequality; any internal inconsistency raises
    CertificateError.
    """
    bad = [v for v in t.vertices if not 0 <= v < points.n]
    if bad:
        raise InputError(f"tree vertex {bad[0]} out of range for {points.n} points")
    if t.n < 3:
        raise InputError(f"need at least 3 vertices, got {t.n}")
    hops = _cube_cycle(t, anchor)
    cert = UsageCertificate(hops, _usage_counts(hops, len(t.edges)), anchor)
    problems = cert.validate(t)
    if problems:
        raise CertificateError("; ".join(problems))
    # the tour walks exactly the hop keys the check above accepted
    tour = tour_from_order(points, _cycle_order(hops, anchor))
    # triangle inequality per hop: each cycle edge is at most its tree path
    for e in tour.edges:
        path = hops[e.key()]
        span = sum(t.edges[i].weight for i in path)
        if e.weight > span * (1.0 + 1e-9) + 1e-12:
            raise CertificateError(
                f"cycle edge ({e.u}, {e.v}) longer than its tree path")
    return tour, cert


def _usage_counts(hops: dict[tuple[int, int], tuple[int, ...]], m: int) -> tuple[int, ...]:
    usage = [0] * m
    for path in hops.values():
        for eid in path:
            usage[eid] += 1
    return tuple(usage)


def tree_to_cycle_cost_bound(t: SpanningTree, points: PointSet, k: int
                             ) -> tuple[Tour, PowerCost, float]:
    """Convert a tree to a cycle and certify S_k(H) <= (2/3) * 3^k * S_k(T).

    Returns the cycle, its PowerCost, and the bound value (inf when the
    linear form overflows; the comparison itself is done in log domain).
    """
    tour, _cert = tree_cube_cycle(t, points, anchor=0)
    cost_h = power_cost(tour.edges, k)
    cost_t = power_cost(t.edges, k)
    log_bound = math.log(2.0 / 3.0) + k * math.log(3.0) + cost_t.log_unscaled
    if cost_h.log_unscaled > log_bound + 1e-9:
        raise CertificateError(
            f"cycle cost exceeds (2/3)*3^k*S_k(T): log {cost_h.log_unscaled} > {log_bound}")
    bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    return tour, cost_h, bound


def mst_sekanina_tour(points: PointSet, k: int) -> tuple[Tour, BoundReport]:
    """Full pipeline: MST, then the certified tree-cube cycle.

    For n = 2 the tour is the doubled edge.  The report compares the scaled
    cost against the named bounds; the improved cycle bound
    3*sqrt(5)*(2/3)^(1/k)*sqrt(k) is certified for k >= 3.
    """
    from .mst import build_mst

    if points.n < 2:
        raise InputError("need at least 2 points")
    if k < 2:
        raise InputError(f"exponent must be >= 2 for the bound report, got {k}")
    if points.n == 2:
        tour = tour_from_order(points, (0, 1))
    else:
        tree = build_mst(points)
        tour, _cert = tree_cube_cycle(tree, points, anchor=0)
    cost = power_cost(tour.edges, k)
    report = bound_report(points, k, {"mst-sekanina": cost})
    return tour, report
