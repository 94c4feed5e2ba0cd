"""Hamiltonian cycles in the cube of a spanning tree.

Given a tree T with n >= 3 vertices, T^3 (vertices joined when their tree
distance is <= 3) contains a Hamiltonian cycle H such that every tree edge
lies on the tree paths of exactly two cycle edges, and some cycle edge
incident to a chosen anchor vertex is itself a tree edge.  This module
constructs such a cycle together with an independently checkable
UsageCertificate (the cycle order and, per cycle edge, its tree path read
from the edge's first end to its second), and derives the cost guarantee

    S_k(H) <= (2/3) * 3^k * S_k(T)

realized by any cycle with those properties (each cycle hop is at most the
sum of <= 3 tree edges, and each tree edge is charged exactly twice).

Construction (Sekanina 1960): one depth-first walk from the anchor, on
an explicit stack, so deep trees never grow the machine stack.  An
even-depth vertex is listed when the walk enters it and visits its
children in descending index order; an odd-depth vertex is listed when the
walk leaves it and visits its children in ascending order.  The list is
the cycle:

- the walk crosses every tree edge exactly twice, once down and once up,
  and consecutive listings cut those crossings into stretches, one per
  cycle hop, so every tree edge lies on exactly two hops;
- each stretch spans at most 3 tree edges: after an even vertex the next
  listing is at most 2 edges away, and after an odd vertex the walk climbs
  to its (listed) parent and then passes at most one unlisted vertex;
- the anchor visits its smallest child last, and that child, listed on
  leaving, ends the list, so the closing hop is a tree edge at the anchor.

The walk writes each hop as it crosses it: entering and leaving a vertex
append its parent edge to the open hop, and each listing after the first
closes it.  A vertex is listed between its down and up crossings, so a hop
crosses each edge at most once: its crossings are its tree path, and no
second pass climbs the tree.  If the list's second entry exceeds its last,
everything after the anchor is reversed, hops included, so the cycle
leaves the anchor towards its smaller neighbour.  The walk raises
InputError on an edge set that is not a tree over the vertex set.
The certificate is re-verified after every construction, hop by hop in the
cycle's own order and direction, without walking the cycle again; a
failure raises CertificateError and signals a bug, never bad input.

The walk's adjacency lists, the checker and the per-hop triangle check
read the tree's and the tour's index and weight arrays, the only form a
structure is built from; nothing here reads the ``edges`` view.  The
checker and the triangle check loop over Python lists: the numpy forms of
both cost about 150 and 30 us per call in fixed overhead, several times a
whole check at n <= 50, and saved about 1 ms per cycle at n = 2000
(2-core x86, one BLAS thread).  Each tree path's
weights are added left to right, as ``sum`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CertificateError, InputError
from .geometry import PointSet, PowerCost, power_cost
from .mst import build_mst
from .structures import SpanningTree, Tour, tour_from_order
from .verifiers import BoundReport, bound_report


@dataclass(frozen=True)
class UsageCertificate:
    """A cycle over a tree and the tree path of each of its hops.

    ``order`` is the cycle, starting at ``anchor``.  ``hops[i]`` holds the
    tree-edge ids (indices into the tree's edges) on the path from
    ``order[i]`` to ``order[i + 1]``, cyclically, read in that direction.
    ``anchor`` is the vertex at which a cycle edge must coincide with a
    tree edge.
    """

    order: tuple[int, ...]
    hops: tuple[tuple[int, ...], ...]
    anchor: int


def verify_double_cover(tree: SpanningTree, cert: UsageCertificate) -> list[str]:
    """Independently re-check a cycle-over-tree certificate.

    Checks: the order visits every tree vertex exactly once; there is one
    hop per cycle edge, and each is a walk of 1 to 3 distinct tree edges
    from its cycle edge's first end to its second; every tree edge is used
    by exactly two hops; some one-edge hop touches the anchor.  A hop that
    fails its own check counts towards no edge's usage.
    """
    order, hops = cert.order, cert.hops
    verts = set(tree.vertices)
    seen: set[int] = set()
    for v in order:
        if v not in verts:
            return [f"cycle vertex {v} leaves the vertex set"]
        if v in seen:
            return [f"cycle revisits vertex {v}"]
        seen.add(v)
    if len(seen) != tree.n:
        return [f"cycle order covers {len(seen)} of {tree.n} vertices"]
    if len(hops) != tree.n:
        return [f"cycle has {len(hops)} edges, expected {tree.n}"]
    ends = list(zip(tree.u.tolist(), tree.v.tolist()))
    m = len(ends)
    out: list[str] = []
    usage = [0] * m
    anchor_tree_edge = False
    for a, b, path in zip(order, order[1:] + order[:1], hops):
        if not 1 <= len(path) <= 3:
            out.append(f"hop ({a}, {b}) uses {len(path)} tree edges")
            continue
        at = a  # None once an id is out of range or its edge does not continue the walk
        for eid in path:
            x, y = ends[eid] if 0 <= eid < m else (None, None)
            at = y if at == x else x if at == y else None
        if at != b or len(set(path)) != len(path):
            out.append(f"hop ({a}, {b}) is not a tree walk to its endpoint")
            continue
        for eid in path:
            usage[eid] += 1
        anchor_tree_edge |= len(path) == 1 and cert.anchor in (a, b)
    for (x, y), c in zip(ends, usage):
        if c != 2:
            out.append(f"tree edge ({x}, {y}) used {c} times, expected 2")
    if not anchor_tree_edge:
        out.append(f"no length-1 cycle edge at anchor {cert.anchor}")
    return out


def _parity_walk(t: SpanningTree, anchor: int) -> UsageCertificate:
    """The cycle order and its oriented hops, from one walk.

    Raises InputError unless the edges of ``t`` (its ``u`` and ``v``)
    form a tree over exactly ``t.vertices``: no edge may leave the vertex set, no vertex may be
    reached twice (a cycle or a repeated edge) and none may be missed.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in t.vertices}
    for i, (a, b) in enumerate(zip(t.u.tolist(), t.v.tolist())):
        if a not in adj or b not in adj:
            raise InputError(f"tree edge ({a}, {b}) leaves the vertex set")
        adj[a].append((b, i))
        adj[b].append((a, i))
    if anchor not in adj:
        raise InputError(f"anchor {anchor} not a tree vertex")
    seen = {anchor}
    order: list[int] = []
    hops: list[tuple[int, ...]] = []
    hop: list[int] = []  # the open hop: the tree-edge ids crossed since the last listing
    stack = [(anchor, -1, False, False)]  # (vertex, parent-edge id, odd depth, leaving)
    while stack:
        v, pe, odd, leaving = stack.pop()
        if pe >= 0 and not leaving:  # every vertex but the anchor is entered and left
            hop.append(pe)
            stack.append((v, pe, odd, True))
        if leaving == odd:  # even depths are listed on entering, odd on leaving
            if order:
                hops.append(tuple(hop))
                hop = []
            order.append(v)
        if leaving:
            hop.append(pe)
            continue
        kids = sorted((w, i) for w, i in adj[v] if i != pe)
        # the stack pops the last push first: odd depths visit ascending
        for w, i in (reversed(kids) if odd else kids):
            if w in seen:
                raise InputError(f"tree vertex {w} reached twice from anchor {anchor}: "
                                 "the edges hold a cycle or a repeated edge")
            seen.add(w)
            stack.append((w, i, not odd, False))
    hops.append(tuple(hop))  # the closing hop, back to the anchor
    if len(order) != t.n:
        raise InputError(f"tree is disconnected: the walk from anchor {anchor} "
                         f"reaches {len(order)} of {t.n} vertices")
    if order[1] > order[-1]:  # leave the anchor towards its smaller neighbour
        order[1:] = order[:0:-1]
        hops = [h[::-1] for h in reversed(hops)]
    return UsageCertificate(tuple(order), tuple(hops), anchor)


def tree_cube_cycle(t: SpanningTree, points: PointSet, anchor: int = 0
                    ) -> tuple[Tour, UsageCertificate]:
    """Hamiltonian cycle of T^3 using every tree edge exactly twice.

    ``t`` may be any tree whose vertices index ``points``, such as one tree
    of a threshold forest; the returned tour visits exactly ``t.vertices``.
    ``anchor`` selects the vertex guaranteed to meet a cycle edge that is
    itself a tree edge; the tour starts there and steps to its smaller
    cycle neighbour, and the certificate's hops follow the tour's edges.  An edge
    set that is not a tree over ``t.vertices`` (an edge leaving it, a cycle,
    a repeated edge or a disconnected part) raises InputError before any hop
    is built.  The returned certificate has been re-verified, as has every
    hop's triangle inequality; any internal inconsistency raises
    CertificateError.
    """
    if t.vertices and not 0 <= min(t.vertices) <= max(t.vertices) < points.n:
        bad = next(v for v in t.vertices if not 0 <= v < points.n)
        raise InputError(f"tree vertex {bad} out of range for {points.n} points")
    if t.n < 3:
        raise InputError(f"need at least 3 vertices, got {t.n}")
    cert = _parity_walk(t, anchor)
    problems = verify_double_cover(t, cert)
    if problems:
        raise CertificateError("; ".join(problems))
    tour = tour_from_order(points, cert.order)
    # triangle inequality per hop: each cycle edge is at most its tree path
    w = t.weights.tolist()
    for i, (x, path) in enumerate(zip(tour.weights.tolist(), cert.hops)):
        if x > sum([w[j] for j in path]) * (1.0 + 1e-9) + 1e-12:
            raise CertificateError(
                f"cycle edge ({tour.u[i]}, {tour.v[i]}) longer than its tree path")
    return tour, cert


def tree_to_cycle_cost_bound(t: SpanningTree, points: PointSet, k: int
                             ) -> tuple[Tour, PowerCost, float]:
    """Convert a tree to a cycle and certify S_k(H) <= (2/3) * 3^k * S_k(T).

    Returns the cycle, its PowerCost, and the bound value (inf when the
    linear form overflows; the comparison itself is done in log domain).
    """
    tour, _cert = tree_cube_cycle(t, points, anchor=0)
    cost_h = power_cost(tour, k)
    cost_t = power_cost(t, k)
    log_bound = math.log(2.0 / 3.0) + k * math.log(3.0) + cost_t.log_unscaled
    if cost_h.log_unscaled > log_bound + 1e-9:
        raise CertificateError(
            f"cycle cost exceeds (2/3)*3^k*S_k(T): log {cost_h.log_unscaled} > {log_bound}")
    bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
    return tour, cost_h, bound


def mst_sekanina_cycle(points: PointSet) -> Tour:
    """MST, then the certified tree-cube cycle; for n = 2 the doubled edge."""
    if points.n < 2:
        raise InputError("need at least 2 points")
    if points.n == 2:
        return tour_from_order(points, (0, 1))
    tour, _cert = tree_cube_cycle(build_mst(points), points, anchor=0)
    return tour


def mst_sekanina_tour(points: PointSet, k: int) -> tuple[Tour, BoundReport]:
    """``mst_sekanina_cycle`` and its bound report.

    The report compares the scaled cost against the named bounds; the
    improved cycle bound 3*sqrt(5)*(2/3)^(1/k)*sqrt(k) is certified for
    k >= 3.
    """
    if k < 2:
        raise InputError(f"exponent must be >= 2 for the bound report, got {k}")
    tour = mst_sekanina_cycle(points)
    return tour, bound_report(points, k, {"mst-sekanina": power_cost(tour, k)})
