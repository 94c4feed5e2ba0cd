"""Trees, tours, paths, matchings and traces are built from index and
weight arrays only, and build their ``Edge`` values only when the read-only
``edges`` view is read.  The eager build they replaced, one ``Edge`` per
pair, stays here as the oracle."""

import pytest

from powertour.cli import main
from powertour.constructions import clustered, cube_vertex_subset, save_point_set, uniform_cube
from powertour.errors import InputError
from powertour.geometry import Edge, point_set
from powertour.greedy import classify_edges, greedy_edge_count_by_length, greedy_ham_path
from powertour.mst import build_mst, build_threshold_forest
from powertour.oracle import exact_min_matching, exact_min_path, exact_min_tour
from powertour.sekanina import mst_sekanina_cycle, tree_cube_cycle
from powertour.structures import (EdgeList, Matching, SpanningTree, Tour, close_path,
                                  cycle_to_matchings, tree_from_pairs, validate)
from powertour.two_phase import two_phase_tour

from conftest import arrays_of, make_edge, random_points

N = 1200

INPUTS = {
    "uniform-k3": lambda: uniform_cube(3, N, 1),
    "clustered-k8": lambda: clustered(8, N, 8, 0.05, 2),
    "cube-vertex-k12": lambda: cube_vertex_subset(12, N, 3),
}


def eager_edges(points, pairs):
    """The eager build: one ``Edge`` per pair, each weighed alone."""
    return tuple(make_edge(points, u, v) for u, v in pairs)


def walk_pairs(order, closed):
    ends = order + order[:1] if closed else order
    return list(zip(ends, ends[1:]))


def count_edges(monkeypatch):
    """Count every ``Edge`` constructed from here on."""
    made = [0]
    check = Edge.__post_init__

    def counted(self):
        made[0] += 1
        check(self)

    monkeypatch.setattr(Edge, "__post_init__", counted)
    return made


@pytest.mark.parametrize("algo", ["mst-sekanina", "two-phase", "greedy"])
@pytest.mark.parametrize("name", INPUTS)
def test_tour_command_builds_no_edge_objects(tmp_path, monkeypatch, name, algo):
    src = tmp_path / "in.json"
    save_point_set(INPUTS[name](), src)
    made = count_edges(monkeypatch)
    assert main(["tour", str(src), "--algo", algo, "--no-timestamp",
                 "-o", str(tmp_path / "out.json")]) == 0
    assert made == [0]


def rebuilt(structure, **arrays):
    """A new structure of ``structure``'s type, vertices or order, built
    from ``arrays``: by default, copies of its own."""
    arrays = arrays or {f: getattr(structure, f).copy() for f in ("u", "v", "weights")}
    head = [getattr(structure, f) for f in ("vertices", "order") if hasattr(structure, f)]
    return type(structure)(*head, **arrays)


def assert_eager(structure, points, pairs):
    """``structure.edges`` equals the eager build over ``pairs``, bit for
    bit, and a structure made from that build's arrays equals it."""
    want = eager_edges(points, pairs)
    assert [(e.u, e.v, e.weight.hex()) for e in structure.edges] == \
        [(e.u, e.v, e.weight.hex()) for e in want]
    assert all(type(e.u) is int and type(e.v) is int and type(e.weight) is float
               for e in structure.edges)
    again = rebuilt(structure, **arrays_of(want))
    assert again == structure
    assert again.weights.tolist() == structure.weights.tolist()


@pytest.mark.parametrize("name", INPUTS)
def test_every_structure_reads_as_the_eager_build(name):
    points = INPUTS[name]()
    k = points.k
    mst = build_mst(points)
    assert_eager(mst, points, zip(mst.u.tolist(), mst.v.tolist()))
    for cutoff in (k ** -0.25, 0.3):
        for tree in build_threshold_forest(points, cutoff):
            assert_eager(tree, points, zip(tree.u.tolist(), tree.v.tolist()))
    tour, _cert = tree_cube_cycle(mst, points, anchor=N - 1)
    assert_eager(tour, points, walk_pairs(tour.order, closed=True))
    tour = mst_sekanina_cycle(points)
    assert_eager(tour, points, walk_pairs(tour.order, closed=True))
    for m in cycle_to_matchings(tour, k):
        assert_eager(m, points, zip(m.u.tolist(), m.v.tolist()))
    path, trace = greedy_ham_path(points)
    assert_eager(path, points, walk_pairs(path.order, closed=False))
    assert_eager(trace, points, zip(trace.u.tolist(), trace.v.tolist()))
    assert_eager(close_path(path, points), points, walk_pairs(path.order, closed=True))
    tour, _report = two_phase_tour(points, k)
    assert_eager(tour, points, walk_pairs(tour.order, closed=True))


def test_small_structures_read_as_the_eager_build():
    points = random_points(3, 10, 3)
    pairs = [(0, 4), (4, 2), (2, 9), (1, 9)]
    assert_eager(tree_from_pairs(points, pairs, vertices=[0, 4, 2, 9, 1]), points, pairs)
    for structure, _cost in (exact_min_tour(points, 3), exact_min_path(points, 3)):
        assert_eager(structure, points, walk_pairs(structure.order, isinstance(structure, Tour)))
    matching, _cost = exact_min_matching(points, 3)
    assert_eager(matching, points, zip(matching.u.tolist(), matching.v.tolist()))
    two = point_set([[0.1, 0.2], [0.7, 0.9]])
    assert_eager(mst_sekanina_cycle(two), two, [(0, 1), (1, 0)])


def test_trace_is_an_edge_list_of_arrays():
    """The trace reads as its eager ``Edge`` values only through ``edges``.
    It is no sequence of them: it compares by its arrays, with lists of
    the same ``Edge`` values unequal to it."""
    points = random_points(4, 12, 2)
    _path, trace = greedy_ham_path(points)
    edges = eager_edges(points, zip(trace.u.tolist(), trace.v.tolist()))
    assert isinstance(trace, EdgeList) and not isinstance(trace, Matching)
    assert len(trace) == 11 and trace.edges == edges
    assert trace == EdgeList(**arrays_of(edges)) and trace != list(edges)
    assert trace != EdgeList(**arrays_of(edges[:-1]))
    assert not hasattr(trace, "__getitem__") and not hasattr(trace, "__iter__")


@pytest.mark.parametrize("name", INPUTS)
def test_checks_and_counters_build_no_edge_objects(monkeypatch, name):
    """``validate``, ``==`` and the greedy's counters read the arrays: on
    the tour-sized inputs they build no ``Edge``."""
    points = INPUTS[name]()
    k = points.k
    tour = mst_sekanina_cycle(points)
    path, trace = greedy_ham_path(points)
    checked = [build_mst(points), *build_threshold_forest(points, 0.3), tour, path,
               close_path(path, points), *cycle_to_matchings(tour, k)]
    twins = [rebuilt(s) for s in checked + [trace]]
    made = count_edges(monkeypatch)
    assert [validate(s, points) for s in checked] == [[]] * len(checked)
    assert twins == checked + [trace]
    for j in range(k + 1):
        greedy_edge_count_by_length(trace, j)
    classify_edges(trace, k)
    classify_edges(path, k)
    assert made == [0]


@pytest.mark.parametrize("make", [
    lambda arrays: SpanningTree(range(4), **arrays),
    lambda arrays: Tour((0, 1, 2, 3), **arrays),
    lambda arrays: Matching(**arrays),
    lambda arrays: EdgeList(**arrays),
], ids=["tree", "tour", "matching", "edge-list"])
@pytest.mark.parametrize("lengths", [(3, 3, 1), (3, 2, 3), (2, 3, 3)])
def test_unequal_edge_arrays_are_refused(make, lengths):
    """Arrays of unequal lengths raise InputError naming the three lengths,
    where ``edges`` would keep the shortest and ``validate`` would fail on
    the mask."""
    arrays = {"u": [0, 1, 2][:lengths[0]], "v": [1, 2, 3][:lengths[1]],
              "weights": [0.1, 0.2, 0.3][:lengths[2]]}
    with pytest.raises(InputError) as info:
        make(arrays)
    assert str(info.value) == ("edge arrays differ in length: "
                               "u {}, v {}, weights {}".format(*lengths))
