import csv
import itertools
import json
import math
import re

import numpy as np
import pytest

from powertour.constructions import (_cube_vertices, clustered, cube_vertex_subset,
                                     diagonal_pair, dumps_indent1, even_weight_code,
                                     k3_code4, k4_even_weight_code, load_point_set,
                                     midball_reach_extremal_pair, save_point_set,
                                     square_tight_sets, uniform_cube)
from powertour.errors import InputError
from powertour.geometry import Container, PointSet, edge_lengths
from powertour.verifiers import hamming_min_distance


def test_diagonal_pair_basic():
    ps = diagonal_pair(3)
    assert ps.n == 2 and ps.k == 3
    assert edge_lengths(ps, 0, 1) == pytest.approx(math.sqrt(3))
    one_d = diagonal_pair(1)
    assert edge_lengths(one_d, 0, 1) == pytest.approx(1.0)


def test_diagonal_pair_one_dimension_tour_cost():
    from powertour.oracle import exact_min_tour

    _t, cost = exact_min_tour(diagonal_pair(1), 1)
    assert cost.unscaled == pytest.approx(2.0)


def test_k3_code_pairwise_distances():
    ps = k3_code4()
    for i, j in itertools.combinations(range(4), 2):
        assert edge_lengths(ps, i, j) == pytest.approx(math.sqrt(2))


def test_k4_code_pairwise_squares():
    ps = k4_even_weight_code()
    assert ps.n == 8
    squares = set()
    for i, j in itertools.combinations(range(8), 2):
        squares.add(round(edge_lengths(ps, i, j) ** 2))
    assert squares == {2, 4}
    assert ps.n <= 2 ** (4 - 2 + 1)  # size vs distance-2 code bound


def test_even_weight_code_matches_named_set():
    assert np.array_equal(even_weight_code(4).coords, k4_even_weight_code().coords)
    assert np.array_equal(even_weight_code(3).coords, k3_code4().coords)


@pytest.mark.parametrize("k", range(2, 9))
def test_even_weight_code_distance_and_size(k):
    ps = even_weight_code(k)
    assert ps.n == 2 ** (k - 1)
    assert hamming_min_distance(ps) == 2


def product_vertices(k):
    """The reference vertex table: every vector of {0, 1}^k in
    ``itertools.product`` order."""
    return np.array(list(itertools.product((0.0, 1.0), repeat=k)))


@pytest.mark.parametrize("k", range(1, 15))
def test_vertex_tables_match_itertools_product(k):
    table = product_vertices(k)
    assert np.array_equal(_cube_vertices(np.arange(2 ** k), k), table)
    even = even_weight_code(k).coords
    assert even.dtype == np.float64
    assert np.array_equal(even, table[table.sum(axis=1) % 2 == 0])


@pytest.mark.parametrize("k, n, seed", [(1, 1, 0), (1, 2, 3), (3, 8, 0), (4, 9, 2),
                                        (6, 40, 6), (12, 1024, 13), (14, 4096, 1)])
def test_cube_vertex_subset_picks_rows_of_the_product_table(k, n, seed):
    """Below 4n vertices the subset is the sorted pick of seeded indices into
    the ``itertools.product`` table."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k, n, 1]))
    pick = rng.choice(2 ** k, size=n, replace=False)
    assert np.array_equal(cube_vertex_subset(k, n, seed).coords,
                          product_vertices(k)[np.sort(pick)])


def test_square_tight_sets_containers():
    for ps in square_tight_sets():
        assert ps.container == Container.UNIT_CUBE
        assert ps.k == 2


def test_extremal_pair_values():
    u, v = midball_reach_extremal_pair(5)
    val = np.linalg.norm(u + v) / 2 + np.linalg.norm(u - v) / 4
    assert val == pytest.approx(1.25, rel=1e-12)
    u10, v10 = midball_reach_extremal_pair(10)
    val10 = np.linalg.norm(u10 + v10) / 2 + np.linalg.norm(u10 - v10) / 4
    assert val10 == pytest.approx(math.sqrt(5) / 4 * math.sqrt(10), rel=1e-12)
    # swapping the two vectors leaves the value unchanged
    swapped = np.linalg.norm(v10 + u10) / 2 + np.linalg.norm(v10 - u10) / 4
    assert swapped == val10
    with pytest.raises(InputError):
        midball_reach_extremal_pair(7)


def test_uniform_cube_deterministic():
    a = uniform_cube(3, 100, 42)
    b = uniform_cube(3, 100, 42)
    assert np.array_equal(a.coords, b.coords)
    c = uniform_cube(3, 100, 43)
    assert not np.array_equal(a.coords, c.coords)


def test_cube_vertex_subset_distinct():
    ps = cube_vertex_subset(30, 1000, 7)
    assert ps.n == 1000
    assert len({row.tobytes() for row in ps.coords}) == 1000
    assert set(np.unique(ps.coords)) <= {0.0, 1.0}
    again = cube_vertex_subset(30, 1000, 7)
    assert np.array_equal(ps.coords, again.coords)


def test_cube_vertex_subset_small_dimension_exhaustive():
    ps = cube_vertex_subset(3, 8, 0)
    assert ps.n == 8
    with pytest.raises(InputError):
        cube_vertex_subset(3, 9, 0)


def test_clustered_inside_cube():
    ps = clustered(4, 60, 5, 0.08, 11)
    assert ps.n == 60
    assert ps.coords.min() >= 0 and ps.coords.max() <= 1


def test_json_roundtrip(tmp_path):
    ps = uniform_cube(5, 37, 3)
    target = tmp_path / "pts.json"
    save_point_set(ps, target)
    back = load_point_set(target)
    assert back.container == ps.container
    assert np.array_equal(back.coords, ps.coords)
    body = json.loads(target.read_text())
    assert body["k"] == 5 and body["container"] == "unit_cube"


def test_csv_roundtrip(tmp_path):
    ps = uniform_cube(3, 21, 9)
    target = tmp_path / "pts.csv"
    save_point_set(ps, target)
    back = load_point_set(target)
    assert np.array_equal(back.coords, ps.coords)
    assert back.container == Container.UNIT_CUBE


SPECIAL = [-0.0, 5e-324, 1e-7, 0.1, 1 / 3, 0.0, 1.0]


def writer_cases():
    """Point sets in every container, at n = 1, k = 1, k = 12 and with
    coordinates whose shortest round-trip text is unusual."""
    rng = np.random.default_rng(17)
    yield "n1-k1", PointSet(np.array([[0.25]]))
    yield "k1", PointSet(rng.uniform(size=(9, 1)))
    yield "k12", PointSet(rng.uniform(size=(30, 12)))
    yield "special-unit-cube", PointSet(np.array(SPECIAL).reshape(-1, 1))
    yield "special-unconstrained", PointSet(np.array(SPECIAL + [1e16]).reshape(4, 2),
                                            Container.UNCONSTRAINED)
    yield "half-cube", PointSet(np.array([[-0.5, -0.0, 0.5], [0.1, -1 / 3, 5e-324]]),
                                Container.HALF_CUBE)
    for container in (Container.PLANAR_TRIANGLE, Container.PLANAR_REGION):
        yield container.value, PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 1 / 3]]),
                                        container)


def test_writer_cases_cover_every_container():
    assert {ps.container for _name, ps in writer_cases()} == set(Container)


@pytest.mark.parametrize("ps", [pytest.param(ps, id=name) for name, ps in writer_cases()])
def test_json_file_is_json_dumps_indent1_byte_for_byte(ps, tmp_path):
    target = tmp_path / "pts.json"
    save_point_set(ps, target)
    body = {"k": ps.k, "container": ps.container.value, "points": ps.coords.tolist()}
    assert target.read_text() == json.dumps(body, indent=1) + "\n"
    back = load_point_set(target)
    assert back.container == ps.container
    assert back.coords.tobytes() == ps.coords.tobytes()  # -0.0 and 5e-324 included


@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (0, 3), (2, 0), (1, 1), (4, 3),
                                   (2, 3, 2)])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_dumps_indent1_matches_json_dumps(shape, sort_keys):
    """Int and float arrays of any shape, empty ones included, beside a body
    with nested values and keys on both sides of the arrays' keys."""
    size = math.prod(shape)
    body = {"z": [1, {"b": None, "a": "\0x"}], "a": 0.5, "m": "é"}
    arrays = {"ints": np.arange(size).reshape(shape) - 3,
              "floats": np.array((SPECIAL * size)[:size]).reshape(shape)}
    want = json.dumps({**body, **{key: a.tolist() for key, a in arrays.items()}},
                      indent=1, sort_keys=sort_keys)
    assert dumps_indent1(body, arrays, sort_keys=sort_keys) == want


def test_load_refuses_a_declared_k_other_than_the_row_width(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 3, "points": [[0.1, 0.2], [0.3, 0.4]]}))
    with pytest.raises(InputError, match=rf"{re.escape(str(bad))}: declares k = 3 but "
                                         r"its rows have 2 coordinates"):
        load_point_set(bad)
    for body in ({"k": 2, "points": [[0.1, 0.2]]}, {"points": [[0.1, 0.2]]}):
        bad.write_text(json.dumps(body))
        assert load_point_set(bad).k == 2


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 2}))
    with pytest.raises(InputError):
        load_point_set(bad)


@pytest.mark.parametrize("points, cell", [
    ([[True, "0.5"], [0.1, 0.2]], "true"),
    ([[0.1, 0.2], [0.3, False]], "false"),
    ([[0.1, 0.2], [0.3, "0.4"]], '"0.4"'),
    ([[0.1, 0.2], [0.3, None]], "null"),
    ([[0.1, 0.2], [{"x": 1}, 0.4]], '{"x": 1}'),
])
@pytest.mark.parametrize("layout", ["indent1", "compact", "points-first", "escaped"])
def test_load_refuses_cells_that_are_not_numbers(tmp_path, points, cell, layout):
    """``np.array`` would read true as 1.0 and "0.4" as 0.4; the loader
    names the file and the first such cell, whatever the layout: after the
    other keys, before them, or behind an escaped key."""
    body = {"k": 2, "container": "unit_cube", "points": points}
    text = {"indent1": lambda: json.dumps(body, indent=1),
            "compact": lambda: json.dumps(body),
            "points-first": lambda: json.dumps({"points": points, "k": 2}),
            # the key escaped, and "points" again as a later value
            "escaped": lambda: json.dumps({"k": 2, "points": points, "c": "points"}).replace(
                '"points"', '"p\\u006fints"', 1)}[layout]()
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(InputError, match=re.escape(f"malformed point-set file {bad}: cell "
                                                   f"{cell} is not a JSON number")):
        load_point_set(bad)


@pytest.mark.parametrize("text", [
    '{"points": [[1, 0.5], [0, 1e-1]], "container": "unit_cube"}',
    '{"container": "unit\\u005fcube", "points": [[1, 0.5], [0, 1e-1]]}',
    '{"k": 2, "points": [[1, 0.5], [0, 1E-1]]}',
])
def test_load_takes_number_cells_in_any_layout(tmp_path, text):
    """Ints, exponents, keys after the points and escapes elsewhere take the
    cell-by-cell check, and pass it."""
    good = tmp_path / "good.json"
    good.write_text(text)
    assert load_point_set(good).coords.tolist() == [[1.0, 0.5], [0.0, 0.1]]


def csv_writer_file(ps, target):
    """The CSV writer this file format was defined by: ``csv.writer`` over
    ``repr(float(x))`` of each numpy cell."""
    with target.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in ps.coords:
            writer.writerow([repr(float(x)) for x in row])


@pytest.mark.parametrize("ps", [
    PointSet(np.array([[5e-324, 1e-300], [-0.0, 0.1 + 0.2], [1e16, 0.5]]),
             Container.UNCONSTRAINED),
    PointSet(np.array([[0.25]])),
    uniform_cube(12, 30, 4),
], ids=["special", "n1-k1", "k12"])
def test_csv_file_is_the_csv_writers_byte_for_byte(ps, tmp_path):
    target, want = tmp_path / "pts.csv", tmp_path / "want.csv"
    save_point_set(ps, target)
    csv_writer_file(ps, want)
    assert target.read_bytes() == want.read_bytes()
    assert load_point_set(target).coords.tobytes() == ps.coords.tobytes()


@pytest.mark.parametrize("make", [
    lambda seed: uniform_cube(3, 10, seed),
    lambda seed: cube_vertex_subset(6, 10, seed),
    lambda seed: clustered(3, 10, 2, 0.05, seed),
], ids=["uniform", "cube-vertices", "clustered"])
@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_generators_refuse_a_seed_that_is_not_a_nonnegative_integer(make, seed):
    with pytest.raises(InputError, match=r"seed must be an integer >= 0"):
        make(seed)


def test_generators_take_numpy_integer_seeds():
    assert np.array_equal(uniform_cube(3, 10, np.int64(7)).coords,
                          uniform_cube(3, 10, 7).coords)


@pytest.mark.parametrize("radius", [-0.05, math.inf, -math.inf, math.nan])
def test_clustered_refuses_a_negative_or_non_finite_radius(radius):
    with pytest.raises(InputError, match="radius must be finite and >= 0"):
        clustered(3, 10, 2, radius, 0)
