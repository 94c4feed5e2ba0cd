import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powertour.geometry
import powertour.greedy
import powertour.mst
import powertour.oracle
from powertour.constructions import clustered, cube_vertex_subset, uniform_cube
from powertour.errors import InputError, SizeError
from powertour.geometry import (MAX_DENSE_POINTS, Container, Edge, check_dense_size,
                                edge_lengths, named_bounds, pairwise_sq,
                                point_set, power_cost_from_weights, symmetric_sq)

from conftest import traced_peak

# extended-precision evaluation of 3*sqrt(5)*(2/3)^(1/3)*sqrt(3)
IMPROVED_BOUND_K3 = 10.150087774487463


def test_distance_cube_diagonal():
    assert edge_lengths(point_set([[0, 0, 0], [1, 1, 1]]), 0, 1) == math.sqrt(3)


def test_distance_code_pair():
    assert edge_lengths(point_set([[0, 0, 0], [0, 1, 1]]), 0, 1) == math.sqrt(2)


def test_distance_identical_points():
    assert edge_lengths(point_set([[0.3, 0.7], [0.3, 0.7]]), 0, 1) == 0.0


def test_power_cost_unit_square_sides():
    c = power_cost_from_weights([1.0, 1.0, 1.0, 1.0], 2)
    assert c.unscaled == pytest.approx(4.0, rel=1e-9)
    assert c.scaled == pytest.approx(2.0, rel=1e-9)


def test_power_cost_two_diagonals():
    c = power_cost_from_weights([math.sqrt(3)] * 2, 3)
    assert c.unscaled == pytest.approx(2 * 3 ** 1.5, rel=1e-9)


def test_power_cost_empty():
    c = power_cost_from_weights([], 7)
    assert c.unscaled == 0.0
    assert c.scaled == 0.0
    assert c.log_unscaled == -math.inf


def test_power_cost_zero_edges_excluded():
    c = power_cost_from_weights([0.0, 2.0, 0.0], 3)
    assert cost_bits(c) == cost_bits(power_cost_from_weights([2.0], 3))
    assert c.unscaled == pytest.approx(8.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_cost_refuses_non_finite_weights(bad):
    with pytest.raises(InputError, match="edge weight must be finite"):
        power_cost_from_weights([1.0, bad, 2.0], 2)


@pytest.mark.parametrize("k", [2.5, math.nan, math.inf, -math.inf, 0, -3])
@pytest.mark.parametrize("weights", [[1.0, 2.0], np.array([1.0, 2.0])], ids=["list", "array"])
def test_power_cost_refuses_an_exponent_that_is_not_a_positive_integer(weights, k):
    with pytest.raises(InputError, match=f"exponent must be a positive integer, got {k}"):
        power_cost_from_weights(weights, k)


@pytest.mark.parametrize("weights, message", [
    ([1.0, -2.0, math.nan], "negative edge weight"),
    ([1.0, -math.inf, -2.0], "edge weight must be finite"),
    ([math.nan, -2.0], "edge weight must be finite"),
])
def test_power_cost_names_the_first_bad_weight(weights, message):
    for form in (weights, np.array(weights), iter(weights)):
        with pytest.raises(InputError, match=message):
            power_cost_from_weights(form, 2)


def test_power_cost_of_an_array_has_the_bits_of_its_list():
    """The array form keeps ``math.log`` per term and the max-shifted
    ``math.fsum``, so it reproduces the per-edge loop bit for bit."""
    gen = np.random.default_rng(8)
    for k in (2, 3, 7, 40):
        w = gen.uniform(0.0, 2.0, size=300)
        w[::17] = 0.0
        terms = [k * math.log(x) for x in w.tolist() if x > 0]
        m = max(terms)
        log_s = m + math.log(math.fsum(math.exp(t - m) for t in terms))
        for form in (w, w.tolist(), (x for x in w.tolist())):
            assert power_cost_from_weights(form, k).log_unscaled.hex() == log_s.hex()


def test_power_cost_huge_exponent_no_overflow_in_scaled():
    k = 1000
    c = power_cost_from_weights([math.sqrt(k)] * 5, k)
    assert c.overflow
    assert c.unscaled == math.inf
    # s_k = 5^(1/k) * sqrt(k)
    assert c.scaled == pytest.approx(5 ** (1 / k) * math.sqrt(k), rel=1e-9)


def test_power_cost_dict_block():
    c = power_cost_from_weights([0.5, 2.0], 2)
    assert c.to_dict() == {"S_k": 4.25, "s_k": c.scaled, "log_S_k": c.log_unscaled,
                           "overflow": False}
    big = power_cost_from_weights([math.sqrt(1000)] * 5, 1000)
    assert big.to_dict()["S_k"] is None
    assert big.to_dict()["overflow"]


def test_power_cost_log_consistency():
    rng = np.random.default_rng(1)
    for k in (1, 2, 5, 11):
        w = rng.uniform(0.01, 2.0, size=20)
        c = power_cost_from_weights(w, k)
        assert math.exp(k * math.log(c.scaled)) == pytest.approx(c.unscaled, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=0, max_size=30),
       st.integers(min_value=1, max_value=40),
       st.randoms(use_true_random=False))
def test_power_cost_permutation_bitstable(weights, k, rand):
    base = power_cost_from_weights(weights, k)
    shuffled = list(weights)
    rand.shuffle(shuffled)
    other = power_cost_from_weights(shuffled, k)
    assert cost_bits(base) == cost_bits(other)


def sorted_power_cost(weights, k):
    """Reference cost: the log terms sorted descending, each shifted by the
    first (the largest), exponentiated and added by ``math.fsum`` in that
    order, then the same overflow rule."""
    terms = sorted((k * math.log(w) for w in map(float, weights) if w > 0.0), reverse=True)
    if not terms:
        return -math.inf, 0.0, 0.0, False
    m = terms[0]
    log_s = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    unscaled = math.exp(log_s) if log_s < 709.0 else math.inf
    return log_s, unscaled, math.exp(log_s / k), unscaled == math.inf


def cost_bits(cost):
    """(log S_k, S_k, s_k) as hex strings, and the overflow flag."""
    if not isinstance(cost, tuple):
        cost = (cost.log_unscaled, cost.unscaled, cost.scaled, cost.overflow)
    *values, overflow = cost
    return [float(x).hex() for x in values] + [overflow]


weight_lists = st.lists(
    st.one_of(st.just(0.0), st.just(5e-324), st.just(1e-300),
              st.floats(min_value=0.0, max_value=1e-300),  # subnormals among them
              st.floats(min_value=0.0, max_value=10.0),
              st.sampled_from([0.25, 0.5, 1.0, math.sqrt(2.0), math.sqrt(3.0)]),
              st.floats(min_value=1e-200, max_value=1e200)),
    min_size=0, max_size=40)


@settings(max_examples=300, deadline=None)
@given(weight_lists, st.one_of(st.integers(1, 40), st.integers(41, 1000)),
       st.randoms(use_true_random=False))
# ln S_k on both sides of 709, where the overflow flag flips
@example([2.0], 1022, random.Random(0))
@example([2.0], 1023, random.Random(0))
@example([0.0, 5e-324, math.sqrt(5.0)], 1000, random.Random(0))
# terms under half an ulp of the largest, which a plain running sum drops
@example([1.0] + [1e-16] * 10, 1, random.Random(0))
def test_power_cost_equals_the_sorted_sum_bit_for_bit(weights, k, rand):
    """Shuffled or not, the max-then-fsum cost has the bits of the sorted
    sum, through zeros, subnormals, ties and overflow at large k."""
    want = cost_bits(sorted_power_cost(weights, k))
    assert cost_bits(power_cost_from_weights(weights, k)) == want
    rand.shuffle(weights)
    assert cost_bits(power_cost_from_weights(weights, k)) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=0, max_size=20),
       st.floats(min_value=0.0, max_value=5.0),
       st.integers(min_value=1, max_value=20))
def test_scaled_cost_monotone_under_adding_edges(weights, extra, k):
    before = power_cost_from_weights(weights, k).scaled
    after = power_cost_from_weights(weights + [extra], k).scaled
    assert after >= before - 1e-12


def test_named_bounds_k2_is_exact_newman_constant():
    nb = named_bounds(2, 10)
    assert nb.cycle_lower_conjectured == pytest.approx(2.0, rel=1e-12)
    assert nb.square_tour_upper == 2.0
    assert nb.cycle_upper_classic is None


def test_named_bounds_k3_values():
    nb = named_bounds(3, 4)
    assert nb.dim3_cycle_lower == pytest.approx(2 ** (7 / 6), rel=1e-12)
    assert nb.dim3_cycle_lower == pytest.approx(2.2449, rel=1e-4)
    assert nb.cycle_upper_improved == pytest.approx(IMPROVED_BOUND_K3, rel=1e-12)


def test_named_bounds_classic_identity():
    # 9*(2/3)^(1/k) == 3^(2-1/k) * 2^(1/k)
    for k in range(3, 40):
        nb = named_bounds(k, 5)
        other = 3 ** (2 - 1 / k) * 2 ** (1 / k) * math.sqrt(k)
        assert nb.cycle_upper_classic == pytest.approx(other, rel=1e-12)


def test_named_bounds_ordering():
    for k in range(2, 101):
        nb = named_bounds(k, 3)
        assert nb.cycle_lower_conjectured <= nb.cycle_upper_improved


def test_named_bounds_path_conjecture_values():
    assert named_bounds(2, 4).path_conjectured == pytest.approx(math.sqrt(3))
    assert named_bounds(3, 4).path_conjectured == pytest.approx(3 ** (1 / 3) * math.sqrt(2))
    assert named_bounds(6, 4).path_conjectured == pytest.approx(31 ** (1 / 6) * math.sqrt(2))
    assert named_bounds(7, 4).path_conjectured == pytest.approx(math.sqrt(7))


def test_named_bounds_requires_k_at_least_2():
    with pytest.raises(InputError):
        named_bounds(1, 5)


def test_point_set_container_validation():
    with pytest.raises(InputError):
        point_set([[0.5, 1.5]], Container.UNIT_CUBE)
    ps = point_set([[-0.5, 0.5]], Container.HALF_CUBE)
    assert ps.k == 2
    with pytest.raises(InputError):
        point_set([[0.1, 0.2, 0.3]], Container.PLANAR_TRIANGLE)
    point_set([[5.0, -3.0]], Container.UNCONSTRAINED)


def test_point_set_is_immutable():
    ps = point_set([[0.1, 0.2]])
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 0.9


def test_point_sets_compare_and_hash_by_identity():
    """Each point set owns its own d^2 matrix, so two with equal
    coordinates are two objects."""
    a = point_set([[0.1, 0.2], [0.3, 0.4]])
    b = point_set([[0.1, 0.2], [0.3, 0.4]])
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_edge_rejects_loops():
    with pytest.raises(InputError):
        Edge(3, 3, 0.0)


def test_dense_cap_leaves_room_above_benchmark_sizes():
    assert MAX_DENSE_POINTS >= 5 * 2000


@pytest.mark.parametrize("build", [
    lambda pts: pts.sq,
    powertour.mst.build_mst,
    lambda pts: powertour.mst.build_threshold_forest(pts, 0.5),
    powertour.greedy.greedy_ham_path,
    lambda pts: powertour.oracle.closest_pair_bound_check(pts, 2),
], ids=["accessor", "mst", "forest", "greedy", "closest-pair"])
def test_dense_paths_refuse_points_beyond_the_cap_before_allocating(monkeypatch, build):
    """The refusal comes from ``PointSet.sq`` before it allocates, and it
    is not cached: a second read raises again."""
    def no_matrix(coords):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 10)
    monkeypatch.setattr(powertour.geometry, "pairwise_sq", no_matrix)
    pts = point_set(np.random.default_rng(0).uniform(size=(11, 3)))
    for _ in range(2):
        with pytest.raises(SizeError) as info:
            build(pts)
        assert "n = 11" in str(info.value)
        assert f"about {8 * 11 * 11:,} bytes" in str(info.value)
    monkeypatch.undo()
    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 11)
    build(pts)


def test_dense_size_message_names_the_matrix_at_the_cap():
    """Every refused n runs Prim, which builds no pair array, so the
    message counts the n x n matrix alone."""
    assert MAX_DENSE_POINTS > powertour.mst._PRIM_ABOVE
    check_dense_size(MAX_DENSE_POINTS)
    with pytest.raises(SizeError) as info:
        check_dense_size(10_001)
    assert str(info.value) == ("dense paths capped at n = 10000, got n = 10001 "
                               "(an n x n matrix of about 800,160,008 bytes)")


SQ_INPUTS = pytest.mark.parametrize("make", [
    lambda: point_set([[0.25, 0.5]]),
    lambda: uniform_cube(3, 300, 0),
    lambda: clustered(8, 600, 8, 0.05, 1),
    lambda: cube_vertex_subset(12, 520, 2),
], ids=["one-point", "uniform-k3", "clustered-k8", "cube-vertex-k12"])


@SQ_INPUTS
def test_pairwise_sq_matches_whole_matrix_expression(make):
    """The strip-wise build gives the bits of the whole-matrix formula."""
    coords = make().coords
    sq = np.einsum("ij,ij->i", coords, coords)
    want = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T), 0.0)
    assert np.array_equal(pairwise_sq(coords).view(np.int64), want.view(np.int64))


@SQ_INPUTS
def test_symmetric_sq_mirrors_the_upper_triangle(make):
    """Every row holds the upper-triangle entries bit for bit, with no mirror
    pass; the diagonal is +inf and the matrix is read-only, so its readers
    cannot change it for one another."""
    coords = make().coords
    d2 = symmetric_sq(coords)
    iu, iv = np.triu_indices(len(coords), k=1)
    assert np.array_equal(d2[iu, iv], pairwise_sq(coords)[iu, iv])
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diagonal(d2) == np.inf)
    with pytest.raises(ValueError):
        d2[0, 0] = 0.0


def mirrored_sq(coords):
    """The earlier two-pass build, kept as the reference: the whole-matrix
    formula, clipped, then the upper triangle copied onto the lower one."""
    sq = np.einsum("ij,ij->i", coords, coords)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T), 0.0)
    iu, iv = np.triu_indices(len(coords), k=1)
    d2[iv, iu] = d2[iu, iv]
    np.fill_diagonal(d2, np.inf)
    return d2


def sq_input(kind, n, k, seed):
    gen = np.random.default_rng(seed)
    if kind == "uniform":
        return gen.random((n, k))
    if kind == "lattice":
        return gen.integers(0, 5, size=(n, k)) / 4.0
    half = gen.random(((n + 1) // 2, k))
    return np.concatenate([half, half])[gen.permutation(n)]


@pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicated"])
def test_point_set_matrix_equals_the_mirrored_build(kind, k):
    """``PointSet.sq``, built in one pass per strip, has the mirrored build's
    bits and equals its own transpose: below, at and above the strip height
    and the old 256-row strip, and at the n = 2000 of the benchmark."""
    for n in [*range(1, 71), 255, 256, 257, 999, 1000, 1001, 2000]:
        coords = sq_input(kind, n, k, 1000 * k + n)
        d2 = point_set(coords, "unconstrained").sq
        assert np.array_equal(d2.view(np.uint64), mirrored_sq(coords).view(np.uint64)), n
        assert np.array_equal(d2.view(np.uint64), d2.T.view(np.uint64)), n


@pytest.mark.parametrize("layout", ["fortran", "column-strided", "row-strided"])
def test_symmetric_sq_is_symmetric_for_any_memory_layout(layout):
    """A non-contiguous array gives the bits of its C-contiguous copy, so the
    product runs as a syrk and the matrix is symmetric (a column-strided
    view taken as a gemm is not, at n = 1999)."""
    wide = np.random.default_rng(5).random((2 * 1999, 16))
    coords = {"fortran": np.asfortranarray(wide[:1999, :8]),
              "column-strided": wide[:1999, ::2],
              "row-strided": wide[::2, :8]}[layout]
    d2 = symmetric_sq(coords)
    assert np.array_equal(d2.view(np.uint64), d2.T.view(np.uint64))
    assert np.array_equal(d2.view(np.uint64),
                          symmetric_sq(np.ascontiguousarray(coords)).view(np.uint64))


def test_point_set_matrix_needs_no_full_size_scratch():
    """Building the n = 2000 matrix allocates the matrix and at most 1 MiB
    besides: the row-norm sums go into one reused strip-sized block."""
    n = 2000
    pts = uniform_cube(3, n, 0)
    assert traced_peak(lambda: pts.sq) <= 8 * n * n + 2 ** 20


@SQ_INPUTS
def test_point_set_owns_one_read_only_matrix(make):
    """``PointSet.sq`` is ``symmetric_sq`` of the coordinates bit for bit,
    built once and read-only; the point set cannot be handed another."""
    pts = make()
    d2 = pts.sq
    assert d2 is pts.sq
    assert np.array_equal(d2.view(np.uint64), symmetric_sq(pts.coords).view(np.uint64))
    assert not d2.flags.writeable
    with pytest.raises(ValueError):
        d2[0, 0] = 0.0
    with pytest.raises(AttributeError):
        pts.sq = np.zeros_like(d2)
