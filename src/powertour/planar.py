"""Planar constructions with tight squared-length budgets.

All costs here are sums of squared edge lengths (exponent 2).  The core
primitive is the extended path through a right triangle: a path between
the two hypotenuse endpoints, visiting every input point, whose squared
cost never exceeds the squared hypotenuse.  It splits the triangle along
the altitude through the right-angle vertex, over and over, on an
explicit worklist (a skinny triangle nests the splits far deeper than
Python's recursion limit); the two sub-paths are concatenated at that
vertex and the junction is removed by a shortcut, which is valid because
the angle spanned there never exceeds 90 degrees (so the chord is no
longer than the two replaced edges, squared).

One function, ``_splice``, chains such paths: a construction lists its
right-triangle legs and labels each point with its leg, and ``_splice``
collapses coincident points, runs each leg and shortcuts every shared
vertex (and a closed chain's start).  The constructions on top of it,
each two legs spliced at a shared vertex:

* extended paths through non-obtuse triangles with budget a^2 + b^2 and
  cycles with budget a^2 + b^2 + c^2,
* extended paths through the unit square minus the inner triangle over
  one side (budget 3),
* closed tours through the unit square with budget 4, obtained by
  splitting along a diagonal and splicing the two triangle paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InputError
from .geometry import PointSet
from .structures import Tour, tour_from_order

SHORTCUT_DOT_TOL = 1e-12
COST_REL_TOL = 1e-9
COST_ABS_TOL = 1e-12


@dataclass(frozen=True)
class RightTriangle:
    """Right triangle with the right angle at C and hypotenuse AB."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64)
        C = np.asarray(self.C, dtype=np.float64)
        if A.shape != (2,) or B.shape != (2,) or C.shape != (2,):
            raise InputError("triangle vertices must be planar points")
        a2 = float(np.dot(B - C, B - C))
        b2 = float(np.dot(A - C, A - C))
        c2 = float(np.dot(A - B, A - B))
        if abs(a2 + b2 - c2) > 1e-9 * max(c2, 1e-30):
            raise InputError("not a right angle at C")
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "C", _frozen(C))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _planar_coords(points) -> np.ndarray:
    """Coerce a PointSet or array-like (possibly empty) to an (m, 2) array."""
    if isinstance(points, PointSet):
        coords = points.coords
    else:
        coords = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InputError("planar construction requires 2-dimensional points")
    return coords


@dataclass(frozen=True)
class ExtendedPath:
    """A path between two anchor locations (possibly not input points)
    visiting every input point exactly once."""

    start: np.ndarray
    end: np.ndarray
    order: tuple[int, ...]

    def chain(self, points) -> np.ndarray:
        coords = _planar_coords(points)
        mid = coords[list(self.order)] if self.order else np.empty((0, 2))
        return np.vstack([self.start[None, :], mid, self.end[None, :]])

    def cost_sq(self, points) -> float:
        ch = self.chain(points)
        diffs = np.diff(ch, axis=0)
        return float(np.einsum("ij,ij->", diffs, diffs))


def _sq(a, b) -> float:
    d = a - b
    return float(np.dot(d, d))


def _assert_budget(cost: float, budget: float) -> None:
    if cost > budget * (1.0 + COST_REL_TOL) + COST_ABS_TOL:
        raise CertificateError(f"path cost {cost} exceeds budget {budget}")


def _rt_seq(coords, A, B, C, idx: list[int]) -> tuple[list[int], float]:
    """Extended-path order through the points ``idx`` of a right triangle
    (right angle at C, hypotenuse AB), plus the chain cost A -> ... -> B.

    ``coords`` is a list of (x, y) tuples; A, B, C are (x, y) tuples.  A
    triangle with two or more points is split along the altitude through
    C; points on it go to the A-side half.  The split runs on an explicit
    worklist, since skinny triangles nest splits about 10^5 deep: a split
    pushes its join, then the C-B half, then the A-C half, and the join
    shortcuts the two finished halves at C.  The inductive budget
    cost <= |AB|^2 is asserted at every join and leaf.  ``_splice``
    collapses coincident points beforehand (they are threaded
    consecutively at zero cost when re-expanded).
    """
    order: list[int] = []  # leaves finish left to right
    done: list[tuple[int, int, float]] = []  # order[start:end] and cost per finished triangle
    work: list[tuple] = [(A, B, C, idx)]
    while work:
        A, B, C, idx = work.pop()
        (ax, ay), (bx, by), (cx, cy) = A, B, C
        abx = bx - ax
        aby = by - ay
        c2 = abx * abx + aby * aby
        if idx is None:  # join frame: both halves are done
            start_r, end_r, cost_r = done.pop()
            start_l, end_l, cost_l = done.pop()
            u = coords[order[end_l - 1]] if end_l > start_l else A
            w = coords[order[start_r]] if end_r > start_r else B
            _check_shortcut(u, C, w, "a junction")
            (ux, uy), (wx, wy) = u, w
            cost = (cost_l + cost_r
                    - ((ux - cx) ** 2 + (uy - cy) ** 2)
                    - ((cx - wx) ** 2 + (cy - wy) ** 2)
                    + ((ux - wx) ** 2 + (uy - wy) ** 2))
            _assert_budget(cost, c2)
            done.append((start_l, end_r, cost))
            continue
        if len(idx) > 1 and c2 > 1e-30:
            # altitude foot from C onto AB
            t = ((cx - ax) * abx + (cy - ay) * aby) / c2
            hx = ax + t * abx
            hy = ay + t * aby
            if (cx - hx) ** 2 + (cy - hy) ** 2 > 1e-18 * c2:  # else collinear
                left: list[int] = []
                right: list[int] = []
                for i in idx:
                    px, py = coords[i]
                    if (px - hx) * abx + (py - hy) * aby <= 0.0:
                        left.append(i)  # A's side of the altitude line, ties included
                    else:
                        right.append(i)
                H = (hx, hy)
                work += [(A, B, C, None), (C, B, H, right), (A, C, H, left)]
                continue
        seq, cost = _rt_leaf(coords, A, B, idx)
        done.append((len(order), len(order) + len(seq), cost))
        order += seq
    return order, done[0][2]


def _rt_leaf(coords, A, B, idx: list[int]) -> tuple[list[int], float]:
    """Order and checked chain cost for a right triangle that is not split:
    at most one point, or every point on the hypotenuse AB."""
    (ax, ay), (bx, by) = A, B
    abx = bx - ax
    aby = by - ay
    c2 = abx * abx + aby * aby
    if not idx:
        return [], c2
    if len(idx) == 1:
        px, py = coords[idx[0]]
        cost = ((px - ax) ** 2 + (py - ay) ** 2
                + (bx - px) ** 2 + (by - py) ** 2)
        _assert_budget(cost, c2)
        return list(idx), cost
    if c2 <= 1e-30:
        seq = list(idx)  # collapsed triangle: every point coincides with the anchors
    else:
        # degenerate (collinear) triangle: sweep along the segment
        seq = sorted(idx, key=lambda i: ((coords[i][0] - ax) * abx
                                         + (coords[i][1] - ay) * aby, i))
    ch = [A] + [coords[i] for i in seq] + [B]
    cost = float(sum((ch[i][0] - ch[i + 1][0]) ** 2 + (ch[i][1] - ch[i + 1][1]) ** 2
                     for i in range(len(ch) - 1)))
    _assert_budget(cost, c2)
    return seq, cost


def _check_shortcut(u, j, w, where: str) -> None:
    """Certify the shortcut u -> w past the junction j (all (x, y) pairs):
    the angle at j in u -> j -> w must be at most 90 degrees."""
    if (u[0] - j[0]) * (w[0] - j[0]) + (u[1] - j[1]) * (w[1] - j[1]) < -SHORTCUT_DOT_TOL:
        raise CertificateError(f"shortcut angle exceeds 90 degrees at {where}")


def _splice(coords, legs, leg_of, where: str | None, closed: bool = False) -> list[int]:
    """Order through ``coords`` of the chain that runs the right-triangle
    extended paths ``legs`` one after another.

    Each leg is an (A, B, C) triple of (x, y) pairs, right angle at C, and
    its B is the next leg's A; ``leg_of`` labels each point with its leg.
    Coincident points are collapsed to one and threaded back at zero cost.
    Each shared vertex is shortcut, in chain order, against its nearest
    points on either side (the chain's own ends where a side has none) and
    certified as ``where``.  A ``closed`` chain, which must hold a point,
    ends where it starts; its start is then shortcut against its last and
    first points.
    """
    reps, expand = _collapse_duplicates(coords)
    pts = list(map(tuple, coords.tolist()))
    labels = leg_of.tolist()  # Python scalars: numpy ones index lists slowly
    members: list[list[int]] = [[] for _ in legs]
    for i in reps:
        members[labels[i]].append(i)
    chain: list[int] = []
    ends = []  # chain length at the end of each leg
    for (A, B, C), idx in zip(legs, members):
        chain += _rt_seq(pts, A, B, C, idx)[0]
        ends.append(len(chain))
    start, end = legs[0][0], legs[-1][1]
    for (_A, J, _C), e in zip(legs[:-1], ends):
        _check_shortcut(pts[chain[e - 1]] if e else start, J,
                        pts[chain[e]] if e < len(chain) else end, where)
    if closed:
        _check_shortcut(pts[chain[-1]], start, pts[chain[0]], where)
    return [j for i in chain for j in expand[i]]


def _in_triangle(coords, v0, v1, v2, tol: float) -> np.ndarray:
    """Mask of the rows of ``coords`` inside or on the triangle v0 v1 v2:
    a barycentric sign test with absolute slack ``tol``, or the distance
    to its two sides from v0 when the triangle is degenerate."""
    mat = np.array([[v1[0] - v0[0], v2[0] - v0[0]],
                    [v1[1] - v0[1], v2[1] - v0[1]]])
    if abs(float(np.linalg.det(mat))) < 1e-30:
        return ((_dist_to_segment(coords, v0, v1) <= tol)
                | (_dist_to_segment(coords, v0, v2) <= tol))
    l1, l2 = np.linalg.solve(mat, (coords - v0).T)
    return (l1 >= -tol) & (l2 >= -tol) & (l1 + l2 <= 1.0 + tol)


def _dist_to_segment(coords, a, b) -> np.ndarray:
    """Distance from each row of ``coords`` to the segment ab."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return np.linalg.norm(coords - a, axis=1)
    t = np.clip((coords - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(coords - (a + t[:, None] * ab), axis=1)


def _require(inside: np.ndarray, what: str) -> None:
    """Reject the first point outside the region whose mask is ``inside``."""
    if not inside.all():
        raise InputError(f"point {int(np.argmin(inside))} lies {what}")


def right_triangle_path(tri: RightTriangle, points) -> ExtendedPath:
    """Extended path from A to B through all points, cost at most c^2.

    ``points`` is a PointSet or an array-like of planar coordinates (an
    empty array yields the bare hypotenuse edge).  Every point must lie
    inside or on the triangle (tolerance 1e-9).
    """
    coords = _planar_coords(points)
    _require(_in_triangle(coords, tri.A, tri.B, tri.C, 1e-9), "outside the triangle")
    legs = ((_t2(tri.A), _t2(tri.B), _t2(tri.C)),)
    order = _splice(coords, legs, np.zeros(len(coords), dtype=int), None)
    path = ExtendedPath(tri.A, tri.B, tuple(order))
    _assert_budget(path.cost_sq(coords), _sq(tri.A, tri.B))
    return path


def _t2(arr) -> tuple[float, float]:
    return (float(arr[0]), float(arr[1]))


def _collapse_duplicates(coords: np.ndarray):
    """Representative index per distinct location + expansion lists."""
    seen: dict[bytes, int] = {}
    expand: dict[int, list[int]] = {}
    reps: list[int] = []
    for i in range(coords.shape[0]):
        key = coords[i].tobytes()
        if key in seen:
            expand[seen[key]].append(i)
        else:
            seen[key] = i
            expand[i] = [i]
            reps.append(i)
    return reps, expand


def _longest_side_labels(v0, v1, v2):
    """Vertices relabeled (P, Q, R) with PQ the longest side, R opposite."""
    pts = [np.asarray(x, dtype=np.float64) for x in (v0, v1, v2)]
    sides = [(_sq(pts[(i + 1) % 3], pts[(i + 2) % 3]), i) for i in range(3)]
    _c2, i = max(sides)
    return pts[(i + 1) % 3], pts[(i + 2) % 3], pts[i]


def _is_obtuse(v0, v1, v2, tol: float = 1e-12) -> bool:
    pts = [np.asarray(x, dtype=np.float64) for x in (v0, v1, v2)]
    for i in range(3):
        d = float(np.dot(pts[(i + 1) % 3] - pts[i], pts[(i + 2) % 3] - pts[i]))
        scale = max(_sq(pts[(i + 1) % 3], pts[i]), _sq(pts[(i + 2) % 3], pts[i]), 1e-30)
        if d < -tol * scale:
            return True
    return False


def non_obtuse_path(tri, points) -> ExtendedPath:
    """Extended path between the endpoints of the longest side of a
    non-obtuse triangle, with squared cost at most a^2 + b^2.

    ``tri`` is any representation of three vertices (sequence of three
    planar points).  Splits along the altitude onto the longest side and
    shortcuts the apex junction.
    """
    v0, v1, v2 = _triangle_vertices(tri)
    if _is_obtuse(v0, v1, v2):
        raise InputError("triangle must be non-obtuse")
    P, Q, R = _longest_side_labels(v0, v1, v2)
    coords = _planar_coords(points)
    _require(_in_triangle(coords, v0, v1, v2, 1e-9), "outside the triangle")
    pq = Q - P
    H = P + float(np.dot(R - P, pq)) / _sq(P, Q) * pq
    legs = ((_t2(P), _t2(R), _t2(H)), (_t2(R), _t2(Q), _t2(H)))
    order = _splice(coords, legs, (coords - H) @ pq > 0.0, "the apex")  # ties: P's side
    path = ExtendedPath(P, Q, tuple(order))
    budget = _sq(P, R) + _sq(R, Q)  # = a^2 + b^2
    _assert_budget(path.cost_sq(coords), budget)
    return path


def non_obtuse_cycle(tri, points: PointSet) -> Tour:
    """Hamiltonian cycle in a non-obtuse triangle, squared cost at most
    a^2 + b^2 + c^2."""
    if points.n < 2:
        raise InputError("need at least 2 points for a cycle")
    path = non_obtuse_path(tri, points)
    tour = tour_from_order(points, path.order)
    v0, v1, v2 = _triangle_vertices(tri)
    budget = _sq(v0, v1) + _sq(v1, v2) + _sq(v2, v0)
    _assert_budget(sum(w ** 2 for w in tour.weights.tolist()), budget)
    return tour


def _triangle_vertices(tri):
    if isinstance(tri, RightTriangle):
        return tri.A, tri.B, tri.C
    arr = np.asarray(tri, dtype=np.float64)
    if arr.shape != (3, 2):
        raise InputError("triangle must be three planar vertices")
    return arr[0], arr[1], arr[2]


#: Quarter turns (each -90 degrees about the center) taking a side of the
#: unit square onto the bottom side.
_SIDE_TURNS = {"bottom": 0, "right": 1, "top": 2, "left": 3}

_SQUARE_CENTER = np.array([0.5, 0.5])


def _quarter_turns(xy, turns: int) -> np.ndarray:
    """``xy`` rotated by -90 degrees ``turns`` times (mod 4) about the center."""
    p = np.asarray(xy, dtype=np.float64)
    if turns % 4 == 0:
        return p
    p = p - _SQUARE_CENTER
    for _ in range(turns % 4):
        p = np.stack([p[..., 1], -p[..., 0]], axis=-1)
    return p + _SQUARE_CENTER


def envelope_path(points, side: str = "bottom") -> ExtendedPath:
    """Extended path through the unit square minus the open triangle
    spanned by the square's center and one side, squared cost at most 3.

    Anchors are the two corners of the excluded side.  Points must lie in
    the closed region (square minus open center triangle).
    """
    if side not in _SIDE_TURNS:
        raise InputError(f"unknown square side {side!r}")
    turns = _SIDE_TURNS[side]
    # canonical frame: excluded side at the bottom
    coords = _quarter_turns(_planar_coords(points), turns)
    tol = 1e-9
    if coords.size and (coords.min() < -tol or coords.max() > 1.0 + tol):
        raise InputError("points must lie in the unit square")
    ca = np.array([0.0, 0.0])
    cb = np.array([1.0, 0.0])
    c_far = np.array([1.0, 1.0])
    corner = np.array([0.0, 1.0])
    # the closed region is exactly the union of the two right triangles
    _require(_in_triangle(coords, ca, corner, c_far, tol)
             | _in_triangle(coords, c_far, cb, _SQUARE_CENTER, tol),
             "inside the excluded triangle")
    # split along the diagonal ca -> c_far, on which the center lies, with
    # the same tol as the membership test: a rotated point on the excluded
    # triangle's boundary may land a rounding error below the diagonal
    legs = (((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)), ((1.0, 1.0), (1.0, 0.0), (0.5, 0.5)))
    below = coords[:, 1] - coords[:, 0] < -tol
    order = tuple(_splice(coords, legs, below, "the far corner"))
    path = ExtendedPath(_quarter_turns(ca, -turns), _quarter_turns(cb, -turns), order)
    _assert_budget(path.cost_sq(_planar_coords(points)), 3.0)
    return path


def newman_square_tour(points: PointSet, diagonal: str = "main") -> Tour:
    """Closed tour through n >= 2 points of the unit square with S_2 <= 4.

    Splits the square along a diagonal into two right triangles, builds
    both extended paths along the shared diagonal, concatenates them into
    a closed chain and shortcuts the two (virtual) diagonal endpoints.
    Points exactly on the diagonal belong to the lower triangle.
    """
    if points.k != 2:
        raise InputError("the square tour requires 2-dimensional points")
    if points.n < 2:
        raise InputError("need at least 2 points")
    coords = points.coords
    tol = 1e-9
    if coords.min() < -tol or coords.max() > 1.0 + tol:
        raise InputError("points must lie in the unit square")
    if diagonal == "main":
        work = coords
    elif diagonal == "anti":
        work = np.column_stack([1.0 - coords[:, 0], coords[:, 1]])
    else:
        raise InputError(f"unknown diagonal {diagonal!r}")

    # cyclic chain (0, 0) -> lower triangle -> (1, 1) -> upper triangle -> (0, 0)
    legs = (((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)), ((1.0, 1.0), (0.0, 0.0), (0.0, 1.0)))
    above = work[:, 1] > work[:, 0]  # ties: lower
    tour = tour_from_order(points, _splice(work, legs, above, "a corner", closed=True))
    _assert_budget(sum(w ** 2 for w in tour.weights.tolist()), 4.0)
    return tour
