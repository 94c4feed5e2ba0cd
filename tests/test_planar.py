import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertour import planar
from powertour.errors import CertificateError, InputError
from powertour.geometry import Container, point_set
from powertour.planar import (SHORTCUT_DOT_TOL, RightTriangle, _assert_budget,
                              _check_shortcut, envelope_path, newman_square_tour,
                              non_obtuse_cycle, non_obtuse_path, right_triangle_path)
from powertour.structures import validate

RT = RightTriangle(A=np.array([1.0, 0.0]), B=np.array([0.0, 1.0]), C=np.array([0.0, 0.0]))


def sample_in_triangle(v0, v1, v2, n, rng):
    a = rng.uniform(size=(n, 1))
    b = rng.uniform(size=(n, 1))
    flip = (a + b) > 1
    a[flip] = 1 - a[flip]
    b[flip] = 1 - b[flip]
    return v0 + a * (v1 - v0) + b * (v2 - v0)


def shortcut_ok(p, q, r) -> bool:
    """Whether the junction check certifies the shortcut p -> r past q."""
    try:
        _check_shortcut(p, q, r, "a test junction")
    except CertificateError:
        return False
    return True


def test_shortcut_right_angle():
    assert shortcut_ok((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))


def test_shortcut_obtuse():
    with pytest.raises(CertificateError, match="at a test junction"):
        _check_shortcut((0.0, 0.0), (0.5, 0.1), (1.0, 0.0), "a test junction")


def test_shortcut_degenerate_vertex():
    assert shortcut_ok((0.3, 0.7), (0.3, 0.7), (1.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=6, max_size=6))
def test_shortcut_certifies_chord_bound(vals):
    p, q, r = tuple(vals[:2]), tuple(vals[2:4]), tuple(vals[4:])
    if shortcut_ok(p, q, r):
        c2 = (p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2
        a2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        b2 = (q[0] - r[0]) ** 2 + (q[1] - r[1]) ** 2
        assert c2 <= a2 + b2 + 1e-9


def test_right_triangle_rejects_a_non_right_angle():
    with pytest.raises(InputError, match="not a right angle at C"):
        RightTriangle(np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.4, 0.4]))


def test_right_triangle_path_empty():
    empty = np.empty((0, 2))
    ep = right_triangle_path(RT, empty)
    assert ep.order == ()
    assert ep.cost_sq(empty) == pytest.approx(2.0, rel=1e-12)  # bare hypotenuse


def test_non_obtuse_path_empty():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    ep = non_obtuse_path(eq, np.empty((0, 2)))
    assert ep.order == ()
    assert ep.cost_sq(np.empty((0, 2))) <= 2.0 + 1e-9


def test_right_triangle_single_interior_points():
    rng = np.random.default_rng(8)
    X = sample_in_triangle(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                           np.array([0.0, 0.0]), 50, rng)
    for row in X:
        pts = point_set([row], Container.PLANAR_TRIANGLE)
        ep = right_triangle_path(RT, pts)
        assert ep.order == (0,)
        assert ep.cost_sq(pts) <= 2.0 + 1e-9


def test_right_triangle_random_bulk():
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(1, 80))
        X = sample_in_triangle(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                               np.array([0.0, 0.0]), n, rng)
        pts = point_set(X, Container.PLANAR_TRIANGLE)
        ep = right_triangle_path(RT, pts)
        assert sorted(ep.order) == list(range(n))
        assert ep.cost_sq(pts) <= 2.0 + 1e-9


def test_right_triangle_rejects_outsiders():
    with pytest.raises(InputError):
        right_triangle_path(RT, point_set([[0.9, 0.9]], Container.PLANAR_TRIANGLE))


def test_right_triangle_duplicates_threaded():
    pts = point_set([[0.2, 0.2]] * 4 + [[0.1, 0.6]], Container.PLANAR_TRIANGLE)
    ep = right_triangle_path(RT, pts)
    assert sorted(ep.order) == [0, 1, 2, 3, 4]
    pos = [ep.order.index(i) for i in range(4)]
    assert max(pos) - min(pos) == 3  # copies are consecutive
    assert ep.cost_sq(pts) <= 2.0 + 1e-9


def test_right_triangle_grid_extremum_is_right_angle_vertex():
    """Single-point placements over a grid: the worst case of
    |Ap|^2 + |pB|^2 is attained at the right-angle vertex with value c^2."""
    worst, arg = -1.0, None
    A, B, C = RT.A, RT.B, RT.C
    for i in range(21):
        for j in range(21 - i):
            p = np.array([i / 20, j / 20])
            cost = float(np.dot(A - p, A - p) + np.dot(p - B, p - B))
            if cost > worst:
                worst, arg = cost, p
    assert worst == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(arg, C)


def test_non_obtuse_equilateral_vertices():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    pts = point_set(eq, Container.PLANAR_TRIANGLE)
    ep = non_obtuse_path(eq, pts)
    assert ep.cost_sq(pts) <= 2.0 + 1e-9
    tour = non_obtuse_cycle(eq, pts)
    assert sum(e.weight ** 2 for e in tour.edges) == pytest.approx(3.0, rel=1e-9)


def test_non_obtuse_single_point_degenerate_x():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    pts = point_set([[0.5, 0.3]], Container.PLANAR_TRIANGLE)
    ep = non_obtuse_path(eq, pts)
    assert ep.cost_sq(pts) <= 2.0 + 1e-9


def test_non_obtuse_random_cycles():
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    rng = np.random.default_rng(10)
    for trial in range(30):
        n = int(rng.integers(2, 40))
        X = sample_in_triangle(eq[0], eq[1], eq[2], n, rng)
        pts = point_set(X, Container.PLANAR_TRIANGLE)
        tour = non_obtuse_cycle(eq, pts)
        assert validate(tour, pts) == []
        assert sum(e.weight ** 2 for e in tour.edges) <= 3.0 + 1e-9


def test_non_obtuse_rejects_obtuse_triangle():
    obtuse = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.1]])
    with pytest.raises(InputError):
        non_obtuse_path(obtuse, point_set([[0.5, 0.05]], Container.PLANAR_TRIANGLE))


def test_envelope_square_corners():
    pts = point_set([[0, 0], [1, 0], [1, 1], [0, 1]], Container.PLANAR_REGION)
    ep = envelope_path(pts, side="bottom")
    assert sorted(ep.order) == [0, 1, 2, 3]
    assert ep.cost_sq(pts) <= 3.0 + 1e-9
    assert np.allclose(ep.start, [0, 0]) and np.allclose(ep.end, [1, 0])


def test_envelope_two_far_corners():
    pts = point_set([[0, 1], [1, 1]], Container.PLANAR_REGION)
    ep = envelope_path(pts)
    assert ep.cost_sq(pts) <= 3.0 + 1e-9


def test_envelope_random():
    rng = np.random.default_rng(11)
    done = 0
    while done < 40:
        n = int(rng.integers(2, 50))
        raw = rng.uniform(size=(n, 2))
        inside = raw[:, 1] < np.minimum(raw[:, 0], 1 - raw[:, 0]) - 1e-12
        raw = raw[~inside]
        if len(raw) < 2:
            continue
        pts = point_set(raw, Container.PLANAR_REGION)
        ep = envelope_path(pts, side="bottom")
        assert ep.cost_sq(pts) <= 3.0 + 1e-9
        assert sorted(ep.order) == list(range(len(raw)))
        done += 1


def test_envelope_rejects_excluded_triangle_interior():
    pts = point_set([[0.5, 0.2]], Container.PLANAR_REGION)
    with pytest.raises(InputError):
        envelope_path(pts, side="bottom")


def test_envelope_all_sides():
    for side, (a, b) in (("bottom", ([0, 0], [1, 0])), ("top", ([1, 1], [0, 1])),
                         ("left", ([0, 1], [0, 0])), ("right", ([1, 0], [1, 1]))):
        pts = point_set([[0, 0], [1, 0], [1, 1], [0, 1]], Container.PLANAR_REGION)
        ep = envelope_path(pts, side=side)
        assert np.allclose(ep.start, a) and np.allclose(ep.end, b)
        assert ep.cost_sq(pts) <= 3.0 + 1e-9


DEGENERATE_RT = RightTriangle(A=np.array([0.0, 0.0]), B=np.array([1.0, 0.0]),
                              C=np.array([0.0, 0.0]))


def test_degenerate_right_triangle_is_its_hypotenuse(monkeypatch):
    """With C = A the membership test falls back to the distance from the
    sides: points on AB are swept along it, copies threaded, and a point
    off it is refused."""
    calls = []
    dist = planar._dist_to_segment
    monkeypatch.setattr(planar, "_dist_to_segment", lambda *a: calls.append(a) or dist(*a))
    X = np.array([[0.3, 0.0], [0.7, 0.0], [0.3, 0.0]])
    ep = right_triangle_path(DEGENERATE_RT, X)
    assert ep.order == (0, 2, 1)
    assert ep.cost_sq(X) == pytest.approx(0.34, rel=1e-12)
    ends = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    assert right_triangle_path(DEGENERATE_RT, ends).order == (1, 2, 0)
    with pytest.raises(InputError, match="^point 0 lies outside the triangle$"):
        right_triangle_path(DEGENERATE_RT, [[0.3, 0.01]])
    assert calls


@pytest.mark.parametrize("build, X, want", [
    (lambda X: newman_square_tour(point_set(X)), [[0.2, 0.6], [0.4, 0.9]],
     [((0.0, 0.0), (1.0, 1.0), (0.4, 0.9), "a corner"),
      ((0.2, 0.6), (0.0, 0.0), (0.4, 0.9), "a corner")]),
    (lambda X: newman_square_tour(point_set(X)), [[0.6, 0.2], [0.9, 0.4]],
     [((0.9, 0.4), (1.0, 1.0), (0.0, 0.0), "a corner"),
      ((0.9, 0.4), (0.0, 0.0), (0.6, 0.2), "a corner")]),
    (envelope_path, [[0.9, 0.5]], [((0.0, 0.0), (1.0, 1.0), (0.9, 0.5), "the far corner")]),
    (envelope_path, [[0.1, 0.5]], [((0.1, 0.5), (1.0, 1.0), (1.0, 0.0), "the far corner")]),
], ids=["square-upper-only", "square-lower-only", "envelope-lower-only", "envelope-upper-only"])
def test_shared_vertex_shortcuts_reach_past_an_empty_leg(monkeypatch, build, X, want):
    """A shared vertex whose leg on one side is empty is shortcut against
    the nearest point beyond it, or the chain's own end."""
    calls = []
    check = planar._check_shortcut

    def record(u, j, w, where):
        if where != "a junction":  # the joins inside one leg
            calls.append((tuple(u), tuple(j), tuple(w), where))
        check(u, j, w, where)

    monkeypatch.setattr(planar, "_check_shortcut", record)
    build(X)
    assert calls == want


def test_square_tour_tight_sets_exact():
    from powertour.constructions import square_tight_sets
    for ps in square_tight_sets():
        tour = newman_square_tour(ps)
        assert sum(e.weight ** 2 for e in tour.edges) == pytest.approx(4.0, rel=1e-9)


def test_square_tour_five_point_center_between_adjacent_corners():
    pts = point_set([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    tour = newman_square_tour(pts)
    sq = sorted(round(e.weight ** 2, 6) for e in tour.edges)
    assert sq == [0.5, 0.5, 1.0, 1.0, 1.0]


def test_square_tour_random_sweep():
    rng = np.random.default_rng(12)
    for trial in range(300):
        n = int(rng.integers(2, 200))
        pts = point_set(rng.uniform(size=(n, 2)))
        tour = newman_square_tour(pts)
        assert validate(tour, pts) == []
        assert sum(e.weight ** 2 for e in tour.edges) <= 4.0 + 1e-9


def test_square_tour_degenerate_sets():
    dup = point_set([[0.3, 0.3]] * 5)
    tour = newman_square_tour(dup)
    assert sum(e.weight ** 2 for e in tour.edges) == 0.0
    collinear = point_set([[x / 10, x / 10] for x in range(11)])
    tour = newman_square_tour(collinear)
    assert validate(tour, collinear) == []
    assert sum(e.weight ** 2 for e in tour.edges) <= 4.0 + 1e-9


def test_square_tour_anti_diagonal():
    rng = np.random.default_rng(13)
    pts = point_set(rng.uniform(size=(40, 2)))
    tour = newman_square_tour(pts, diagonal="anti")
    assert validate(tour, pts) == []
    assert sum(e.weight ** 2 for e in tour.edges) <= 4.0 + 1e-9
    with pytest.raises(InputError):
        newman_square_tour(pts, diagonal="sideways")


def test_square_tour_needs_two_points():
    with pytest.raises(InputError):
        newman_square_tour(point_set([[0.5, 0.5]]))


def test_square_tour_requires_planar():
    with pytest.raises(InputError):
        newman_square_tour(point_set([[0.5, 0.5, 0.5], [0.1, 0.1, 0.1]]))


@pytest.mark.parametrize("side, xy", [
    ("left", (1 / 7, 6 / 7)), ("left", (0.3, 0.7)), ("left", (1 / 3, 2 / 3)),
    ("left", (3 / 7, 4 / 7)), ("right", (0.8, 0.2)), ("right", (9 / 11, 2 / 11)),
])
def test_envelope_point_on_excluded_triangle_boundary(side, xy):
    """The quarter turn puts these a rounding error below the canonical
    diagonal; they still belong to the upper triangle."""
    ep = envelope_path([xy], side=side)
    assert ep.order == (0,)
    assert ep.cost_sq(np.array([xy])) <= 3.0 + 1e-9


def test_envelope_accepts_every_lattice_point_of_the_region():
    for side in ("bottom", "right", "top", "left"):
        for m in range(1, 12):
            cells = np.array([(i, j) for i in range(m + 1) for j in range(m + 1)]) / m
            for xy in _outside_envelope_hole(cells, side):
                ep = envelope_path([xy], side=side)
                assert ep.cost_sq(np.array([xy])) <= 3.0 + 1e-9


def recursive_rt_seq(coords, A, B, C, idx):
    """Reference engine: the altitude recursion that ``planar._rt_seq``
    runs on a worklist.  Same arguments and result; orders must match
    exactly and costs bit for bit."""
    ax, ay = A
    bx, by = B
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
        seq = list(idx)
        cost = _reference_chain_cost(coords, A, B, seq)
        _assert_budget(cost, max(c2, 0.0))
        return seq, cost
    cx, cy = C
    t = ((cx - ax) * abx + (cy - ay) * aby) / c2
    hx = ax + t * abx
    hy = ay + t * aby
    height_sq = (cx - hx) ** 2 + (cy - hy) ** 2
    if height_sq <= 1e-18 * c2:
        seq = sorted(idx, key=lambda i: ((coords[i][0] - ax) * abx
                                         + (coords[i][1] - ay) * aby, i))
        cost = _reference_chain_cost(coords, A, B, seq)
        _assert_budget(cost, c2)
        return seq, cost
    left, right = [], []
    for i in idx:
        px, py = coords[i]
        if (px - hx) * abx + (py - hy) * aby <= 0.0:
            left.append(i)
        else:
            right.append(i)
    H = (hx, hy)
    seq_l, cost_l = recursive_rt_seq(coords, A, C, H, left)
    seq_r, cost_r = recursive_rt_seq(coords, C, B, H, right)
    ux, uy = coords[seq_l[-1]] if seq_l else A
    wx, wy = coords[seq_r[0]] if seq_r else B
    if (ux - cx) * (wx - cx) + (uy - cy) * (wy - cy) < -SHORTCUT_DOT_TOL:
        raise CertificateError("shortcut angle exceeds 90 degrees at a junction")
    cost = (cost_l + cost_r
            - ((ux - cx) ** 2 + (uy - cy) ** 2)
            - ((cx - wx) ** 2 + (cy - wy) ** 2)
            + ((ux - wx) ** 2 + (uy - wy) ** 2))
    _assert_budget(cost, c2)
    return seq_l + seq_r, cost


def _reference_chain_cost(coords, A, B, seq):
    ch = [A] + [coords[i] for i in seq] + [B]
    return float(sum((ch[i][0] - ch[i + 1][0]) ** 2 + (ch[i][1] - ch[i + 1][1]) ** 2
                     for i in range(len(ch) - 1)))


LOWER_RT = RightTriangle(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0]))
ISO_RT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # apex altitude: the diagonal
EQ = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])


def _inside(X, tri):
    return X[planar._in_triangle(X, *tri, 1e-9)]


def _outside_envelope_hole(X, side):
    Y = planar._quarter_turns(X, planar._SIDE_TURNS[side])
    return X[~(Y[:, 1] < np.minimum(Y[:, 0], 1.0 - Y[:, 0]) - 1e-12)]


def _outcome(build, pts):
    """(order, cost as float.hex) of one construction, or what it raised."""
    try:
        out = build()
    except CertificateError as ex:
        return ("raised", str(ex))
    if isinstance(out, planar.ExtendedPath):
        return (out.order, out.cost_sq(pts).hex(), out.start.tobytes(), out.end.tobytes())
    return (out.order, sum(e.weight ** 2 for e in out.edges).hex())


def all_constructions(X):
    """Outcome of every public planar construction on the parts of the
    unit-square sample ``X`` that each one accepts."""
    out = {}
    if len(X) >= 2:
        ps = point_set(X)
        for d in ("main", "anti"):
            out["square-" + d] = _outcome(lambda: newman_square_tour(ps, d), X)
    L = X[X[:, 1] <= X[:, 0]]
    out["right"] = _outcome(lambda: right_triangle_path(LOWER_RT, L), L)
    for name, tri in (("iso", ISO_RT), ("eq", EQ)):
        T = _inside(X, tri)
        out["non-obtuse-" + name] = _outcome(lambda: non_obtuse_path(tri, T), T)
    for side in ("bottom", "right", "top", "left"):
        E = _outside_envelope_hole(X, side)
        out["envelope-" + side] = _outcome(lambda: envelope_path(E, side), E)
    return out


def assert_matches_recursive_reference(monkeypatch, X):
    got = all_constructions(X)
    with monkeypatch.context() as m:
        m.setattr(planar, "_rt_seq", recursive_rt_seq)
        want = all_constructions(X)
    assert got == want


def _lattice(rng, n, m):
    return rng.integers(0, m + 1, size=(n, 2)) / m


def test_worklist_engine_matches_recursion_bit_for_bit():
    rng = np.random.default_rng(21)
    A, B, C = (0.0, 0.0), (1.0, 1.0), (1.0, 0.0)
    for trial in range(60):
        n = int(rng.integers(0, 90))
        X = rng.uniform(size=(n, 2)) if trial % 2 else _lattice(rng, n, int(rng.integers(1, 9)))
        X = np.sort(X, axis=1)[:, ::-1]  # x >= y: inside the triangle
        pts = [(float(x), float(y)) for x, y in X]
        idx = sorted({p: i for i, p in enumerate(pts)}.values())  # one index per location
        seq, cost = planar._rt_seq(pts, A, B, C, idx)
        ref_seq, ref_cost = recursive_rt_seq(pts, A, B, C, idx)
        assert seq == ref_seq
        assert cost.hex() == ref_cost.hex()


def test_constructions_match_reference_on_random_points(monkeypatch):
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(2, 120))
        assert_matches_recursive_reference(monkeypatch, rng.uniform(size=(n, 2)))


def test_constructions_match_reference_on_lattices_with_repeats(monkeypatch):
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        assert_matches_recursive_reference(monkeypatch, _lattice(rng, n, int(rng.integers(1, 9))))


def test_constructions_match_reference_on_diagonals_and_altitudes(monkeypatch):
    t = np.linspace(0.0, 1.0, 21)
    diagonal = np.column_stack([t, t])  # main diagonal: lower triangle, iso altitude
    anti = np.column_stack([t, 1.0 - t])  # anti-diagonal: LOWER_RT's altitude
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    for X in (diagonal, anti, np.vstack([diagonal, anti]), np.vstack([diagonal, corners]),
              np.repeat(anti[::4], 3, axis=0)):
        assert_matches_recursive_reference(monkeypatch, X)


lattice_samples = st.integers(1, 8).flatmap(
    lambda m: st.lists(st.tuples(st.integers(0, m), st.integers(0, m)), min_size=2, max_size=40)
    .map(lambda cells: np.array(cells, dtype=float) / m))


@settings(max_examples=60, deadline=None)
@given(lattice_samples)
def test_constructions_match_reference_on_lattice_property(X):
    with pytest.MonkeyPatch.context() as mp:
        assert_matches_recursive_reference(mp, X)


def test_right_triangle_path_skinny_triangle_deep_splits():
    """Legs in ratio 1:200: the altitude splits nest far beyond Python's
    recursion limit, so only an explicit worklist finishes."""
    eps = 0.005
    A, B = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    C = np.array([eps * eps, eps * math.sqrt(1.0 - eps * eps)])
    X = sample_in_triangle(A, B, C, 50, np.random.default_rng(0))
    ep = right_triangle_path(RightTriangle(A, B, C), X)
    assert sorted(ep.order) == list(range(50))
    assert ep.cost_sq(X) <= 1.0 + 1e-9


@settings(max_examples=80, deadline=None)
@given(lattice_samples, st.sampled_from(["bottom", "right", "top", "left"]))
def test_envelope_path_on_lattice_property_all_sides(X, side):
    E = _outside_envelope_hole(X, side)
    if len(E):
        ep = envelope_path(E, side=side)
        assert sorted(ep.order) == list(range(len(E)))
        assert ep.cost_sq(E) <= 3.0 + 1e-9
