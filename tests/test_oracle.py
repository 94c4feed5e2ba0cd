import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powertour.oracle
from powertour.constructions import (cube_vertex_subset, diagonal_pair, even_weight_code,
                                     k3_code4, k4_even_weight_code, square_tight_sets, uniform_cube)
from powertour.errors import InputError, SizeError
from powertour.geometry import pairwise_sq, point_set, power_cost
from powertour.oracle import (closest_pair_bound_check, exact_min_matching,
                              exact_min_path, exact_min_tour, max_pairwise_square_sum)
from powertour.structures import path_from_order, tour_from_order, validate

from conftest import make_edge, random_points


def brute_first_best_order(dk, n, closed):
    """The enumeration the exact tour and path oracles must reproduce.

    Closed orders fix the pivot 0 and permute 1..n-1, adding the closing
    term after the open sum; open orders permute 0..n-1.  An order whose
    last entry is below its first permuted one is skipped, so of each
    reversal pair only one order is costed, and a lone permuted entry (a
    2-point tour) is kept.  Ties keep the earliest order: first argmin within a chunk,
    strict < across chunks.
    """
    best_cost = math.inf
    best_order = None
    perms = itertools.permutations(range(1 if closed else 0, n))
    while True:
        chunk = list(itertools.islice(perms, 100_000))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.intp)
        arr = arr[arr[:, 0] <= arr[:, -1]]  # one representative per reversal pair
        if arr.size == 0:
            continue
        if closed:
            arr = np.concatenate([np.zeros((arr.shape[0], 1), dtype=np.intp), arr], axis=1)
        costs = dk[arr[:, :-1], arr[:, 1:]].sum(axis=1)
        if closed:
            costs += dk[arr[:, -1], 0]
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_order = tuple(int(x) for x in arr[i])
    return best_order


def recursive_first_best_pairs(dk, n):
    """The recursion the exact matching oracle must reproduce: pair the
    lowest free vertex with each free vertex in turn, add left to right,
    keep the first strict minimum."""
    best_cost = math.inf
    best_pairs = None
    pairs = []

    def recurse(free, acc):
        nonlocal best_cost, best_pairs
        if not free:
            if acc < best_cost:
                best_cost = acc
                best_pairs = list(pairs)
            return
        u = free[0]
        for j in range(1, len(free)):
            v = free[j]
            pairs.append((u, v))
            recurse(free[1:j] + free[j + 1:], acc + dk[u, v])
            pairs.pop()

    recurse(list(range(n)), 0.0)
    return best_pairs


def reference_subsets(n):
    """Every bitmask over n vertices, its membership rows and its size."""
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    return masks, member, member.sum(axis=1)


def reference_suffix_table(dk, closed):
    """The Held-Karp table the member-only layers must reproduce: every
    layer is an (L, n, n) block with inf for the u outside S."""
    n = len(dk)
    masks, member, size = reference_subsets(n)
    bit = 1 << np.arange(n)
    pivot = 1 if closed else 0
    g = np.full((1 << n, n), np.inf)
    g[0] = dk[:, 0] if closed else 0.0
    for c in range(1, n):
        layer = masks[(size == c) & ((masks & pivot) == 0)]
        after = np.where(member[layer], g[layer[:, None] ^ bit, np.arange(n)], np.inf)
        g[layer] = (dk + after[:, None, :]).min(axis=2)
    return g


def reference_matching_table(dk):
    """The matching table over every vertex, inf for the non-partners."""
    n = len(dk)
    masks, member, size = reference_subsets(n)
    bit = 1 << np.arange(n)
    h = np.full(1 << n, np.inf)
    h[0] = 0.0
    for c in range(2, n + 1, 2):
        layer = masks[size == c]
        low = member[layer].argmax(axis=1)
        partner = member[layer] & (np.arange(n) != low[:, None])
        rest = layer[:, None] ^ bit[low][:, None] ^ bit
        h[layer] = np.where(partner, dk[low] + h[rest], np.inf).min(axis=1)
    return h


def reference_earlier_copies(dk):
    """The copy rule by definition: try every exchange of two vertices."""
    n = len(dk)
    earlier = [0] * n
    for v in range(n):
        for u in range(v - 1, -1, -1):
            swap = np.arange(n)
            swap[[u, v]] = v, u
            if np.array_equal(dk[swap][:, swap], dk):
                earlier[v] = 1 << u
                break
    return earlier


def assert_matches_references(points, k):
    """Orders and pairs equal to the enumeration's, costs equal bit for bit."""
    n = points.n
    dk = powertour.oracle._power_matrix(points, k)
    checks = [(exact_min_path, False, path_from_order), (exact_min_tour, True, tour_from_order)]
    for oracle, closed, build in checks:
        structure, cost = oracle(points, k)
        want = brute_first_best_order(dk, n, closed)
        assert structure.order == want
        assert cost.unscaled.hex() == power_cost(build(points, want).edges, k).unscaled.hex()
    if n % 2 == 0 and n <= 12:
        matching, cost = exact_min_matching(points, k)
        want = recursive_first_best_pairs(dk, n)
        assert [(e.u, e.v) for e in matching.edges] == want
        want_edges = [make_edge(points, u, v) for u, v in want]
        assert cost.unscaled.hex() == power_cost(want_edges, k).unscaled.hex()


def half_grid(n, seed):
    cells = np.array([(i, j) for i in range(3) for j in range(3)], dtype=float) / 2
    pick = np.random.default_rng(seed).choice(9, size=n, replace=n > 9)
    return point_set(cells[pick])


def few_points_repeated(distinct, n, seed):
    gen = np.random.default_rng(np.random.SeedSequence([seed, distinct, n]))
    base = gen.uniform(size=(distinct, 3))
    return point_set(base[gen.integers(0, distinct, size=n)])


REFERENCE_INPUTS = {
    "uniform-k3": (lambda n, s: random_points(s + 1500, n, 3), 3),
    "uniform-k8": (lambda n, s: random_points(s + 1600, n, 8), 8),
    "cube-vertex-k4": (lambda n, s: cube_vertex_subset(4, n, s), 4),
    "cube-vertex-k6": (lambda n, s: cube_vertex_subset(6, n, s), 6),
    "half-grid-k2": (half_grid, 2),
    "two-points-repeated": (lambda n, s: few_points_repeated(2, n, s), 3),
    "three-points-repeated": (lambda n, s: few_points_repeated(3, n, s), 3),
}


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_tours_paths_and_matchings_match_the_enumeration(name):
    make, k = REFERENCE_INPUTS[name]
    for n in range(2, 10):
        for seed in (0, 1):
            assert_matches_references(make(n, seed), k)


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_matchings_match_the_recursion_up_to_n_12(name):
    make, k = REFERENCE_INPUTS[name]
    for n in (10, 12):
        points = make(n, 2)
        matching, _cost = exact_min_matching(points, k)
        assert [(e.u, e.v) for e in matching.edges] == \
            recursive_first_best_pairs(powertour.oracle._power_matrix(points, k), n)


def pairwise_power_matrix(points, k):
    """A power matrix from ``pairwise_sq`` as it comes: a diagonal near 0,
    not +inf."""
    return pairwise_sq(points.coords) ** (k / 2.0)


def oracle_answers(points, k):
    """Each exact oracle's order or pairs, and the bits of its cost."""
    n = points.n
    runs = [exact_min_path, exact_min_tour] + [exact_min_matching] * (n % 2 == 0)
    out = []
    for oracle in runs:
        structure, cost = oracle(points, k)
        answer = structure.order if hasattr(structure, "order") else structure.edges
        out.append((answer, cost.log_unscaled.hex(), cost.unscaled.hex(), cost.scaled.hex()))
    return out


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_answers_unchanged_by_reading_the_point_sets_matrix(name, monkeypatch):
    """The read-only, +inf-diagonal matrix of ``PointSet.sq`` gives every
    answer, bit for bit, that a plain ``pairwise_sq`` matrix gives."""
    make, k = REFERENCE_INPUTS[name]
    cases = [make(n, seed) for n in range(2, 13) for seed in (0, 1, 2)]
    got = [oracle_answers(points, k) for points in cases]
    monkeypatch.setattr(powertour.oracle, "_power_matrix", pairwise_power_matrix)
    assert got == [oracle_answers(points, k) for points in cases]


def read_entries(n, closed):
    """The (S, v) the search reads: v outside S, and S without the pivot
    for tours."""
    masks, member, _size = reference_subsets(n)
    read = ~member
    if closed:
        read[masks & 1 == 1] = False
    return read


def assert_tables_equal_bit_for_bit(dk):
    n = len(dk)
    for closed in (True, False):
        read = read_entries(n, closed)
        got = powertour.oracle._suffix_table(dk, closed)[read]
        want = reference_suffix_table(dk, closed)[read]
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
    if n % 2 == 0:
        even = reference_subsets(n)[2] % 2 == 0
        got = powertour.oracle._matching_table(dk)[even]
        want = reference_matching_table(dk)[even]
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_member_only_tables_equal_the_full_blocks_bit_for_bit(name):
    make, k = REFERENCE_INPUTS[name]
    for n in range(2, 13):
        assert_tables_equal_bit_for_bit(powertour.oracle._power_matrix(make(n, 3), k))


def test_member_only_tables_keep_the_direction_of_each_step():
    """dk[v, u] prices the step from v to u; an unsymmetric matrix shows
    a table that reads dk[u, v] instead."""
    for n in range(2, 11):
        assert_tables_equal_bit_for_bit(np.random.default_rng(n).uniform(size=(n, n)))


def copy_inputs():
    """Repeated points, regular-simplex corners and the n = 16 copy groups."""
    gen = np.random.default_rng(5)
    for n in range(2, 12):
        for distinct in (1, 2, 3):
            yield few_points_repeated(distinct, n, n), 3
    for k in range(2, 9):
        yield point_set(np.eye(k)), 3
        yield point_set(np.vstack([np.eye(k), np.zeros(k)])), k
        yield point_set(np.vstack([np.eye(k), np.eye(k)[:2]])), 2
    for groups in (1, 2, 3, 4):
        yield point_set(np.repeat(gen.uniform(size=(groups, 3)), 16 // groups, axis=0)), 3
        yield point_set(gen.uniform(size=(groups, 3))[gen.integers(0, groups, size=16)]), 3


def test_copies_match_the_exchange_loop():
    for points, k in copy_inputs():
        dk = powertour.oracle._power_matrix(points, k)
        assert powertour.oracle._earlier_copies(dk) == reference_earlier_copies(dk)


def test_copies_match_the_exchange_loop_on_unsymmetric_matrices():
    """Few distinct values make many exchanges nearly work; one entry off
    the symmetric pattern, or on the diagonal, must break them."""
    gen = np.random.default_rng(7)
    for _ in range(300):
        n = int(gen.integers(2, 8))
        dk = gen.integers(0, 2, size=(n, n)).astype(float)
        if gen.random() < 0.7:
            dk = np.maximum(dk, dk.T)
        if gen.random() < 0.5:
            np.fill_diagonal(dk, 0.0)
        assert powertour.oracle._earlier_copies(dk) == reference_earlier_copies(dk)


def test_layer_caches_are_read_only_and_bounded():
    caches = (powertour.oracle._walk_layers, powertour.oracle._pair_layers)
    for n in range(2, 13):
        for closed in (True, False):
            layers = powertour.oracle._walk_layers(n, closed)
            assert len(layers) == n - 1
            for arrays in layers:
                for a in arrays:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[...] = 0
        for arrays in powertour.oracle._pair_layers(n):
            assert all(not a.flags.writeable for a in arrays)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 8 and info.currsize <= info.maxsize


lattices_with_repeats = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda dm: st.tuples(
        st.lists(st.tuples(*[st.integers(0, dm[1])] * dm[0]), min_size=2, max_size=8)
        .map(lambda cells: point_set(np.array(cells, dtype=float) / dm[1])),
        st.integers(2, 5)))


@settings(max_examples=80, deadline=None)
@given(lattices_with_repeats)
def test_matches_the_enumeration_on_lattice_property(case):
    """Lattice points tie exactly at even k and repeat often."""
    points, k = case
    assert_matches_references(points, k)


def test_ties_across_recost_blocks_keep_the_first(monkeypatch):
    """With blocks of two candidates, a tie in a later block must not win."""
    monkeypatch.setattr(powertour.oracle, "_BLOCK", 2)
    for seed in (0, 1):
        assert_matches_references(cube_vertex_subset(4, 9, seed), 4)
        assert_matches_references(half_grid(8, seed), 2)


@pytest.mark.parametrize("length", range(2, 17))
def test_row_sums_do_not_depend_on_which_rows_are_summed(length):
    """Re-costing sums a few candidate rows where the enumeration summed
    whole chunks.  numpy's pairwise row reduction must give each row the
    same bits either way; IEEE arithmetic alone does not promise this."""
    gen = np.random.default_rng(length)
    terms = gen.uniform(size=(300, length)) ** 3 * 10.0 ** gen.integers(-3, 4, size=(300, length))
    full = terms.sum(axis=1)
    subsets = [np.array([7]), np.arange(0, 300, 3), gen.choice(300, size=41, replace=False),
               np.arange(5, 6 + length)]
    for rows in subsets:
        assert (terms[rows].sum(axis=1).view(np.uint64) == full[rows].view(np.uint64)).all()


def brute_tour_cost(points, k):
    """Fully independent tour enumeration (no canonicalization tricks)."""
    n = points.n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(
            np.linalg.norm(points.coords[perm[i]] - points.coords[perm[(i + 1) % n]]) ** k
            for i in range(n))
        best = min(best, cost)
    return best


def test_tour_k3_code():
    tour, cost = exact_min_tour(k3_code4(), 3)
    assert cost.unscaled == pytest.approx(4 * 2 ** 1.5, rel=1e-9)
    assert cost.scaled == pytest.approx(2 ** (7 / 6), rel=1e-9)


def test_tour_k4_even_weight():
    tour, cost = exact_min_tour(k4_even_weight_code(), 4)
    assert cost.unscaled == pytest.approx(32.0, rel=1e-9)


def test_tour_square_sets():
    for ps in square_tight_sets():
        _t, cost = exact_min_tour(ps, 2)
        assert cost.unscaled == pytest.approx(4.0, rel=1e-9)


def test_tour_matches_independent_enumeration():
    for seed in range(5):
        pts = random_points(seed + 1200, 7, 3)
        _t, cost = exact_min_tour(pts, 3)
        assert cost.unscaled == pytest.approx(brute_tour_cost(pts, 3), rel=1e-9)


def test_tour_deterministic_tie_break():
    ps = square_tight_sets()[0]
    t1, _ = exact_min_tour(ps, 2)
    t2, _ = exact_min_tour(ps, 2)
    assert t1.order == t2.order


def first_optimum_reference(points, closed):
    """Pure-Python canonical enumeration over cube vertices under k = 4.

    |u - v|^4 is the squared Hamming distance, so every cost is an exact
    integer and ties are exact.  Permutations run in lexicographic order,
    closed orders fix the pivot 0, one order per reversal pair is kept
    (first permuted entry below the last) and the first strict minimum wins.
    """
    n = points.n
    bits = [[int(x) for x in row] for row in points.coords]
    w = [[sum(a != b for a, b in zip(bits[i], bits[j])) ** 2 for j in range(n)]
         for i in range(n)]
    best_cost, best_order = None, None
    for perm in itertools.permutations(range(1, n) if closed else range(n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm if closed else perm
        cost = sum(w[order[i]][order[i + 1]] for i in range(n - 1))
        if closed:
            cost += w[order[-1]][order[0]]
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    return best_cost, best_order


@pytest.mark.parametrize("n", [8, 9])
def test_ties_keep_first_optimum_in_lexicographic_order(n):
    for seed in (0, 1):
        pts = cube_vertex_subset(4, n, seed)
        for closed, oracle in ((True, exact_min_tour), (False, exact_min_path)):
            structure, cost = oracle(pts, 4)
            want_cost, want_order = first_optimum_reference(pts, closed)
            assert structure.order == want_order
            assert cost.unscaled == pytest.approx(want_cost, rel=1e-12)


def test_tour_size_limits():
    with pytest.raises(SizeError):
        exact_min_tour(uniform_cube(2, 17, 0), 2)
    with pytest.raises(SizeError):
        exact_min_path(uniform_cube(2, 17, 0), 2)
    with pytest.raises(InputError):
        exact_min_tour(point_set([[0.5, 0.5]]), 2)


def test_too_many_near_optimal_orders_raise_size_error(monkeypatch):
    """The 16 words of the 5-bit even-weight code tie in millions of tours
    and paths, and no two words are copies; the search must stop."""
    monkeypatch.setattr(powertour.oracle, "MAX_CANDIDATES", 25_000)
    points = even_weight_code(5)
    for oracle in (exact_min_tour, exact_min_path):
        with pytest.raises(SizeError, match="more than 25000 near-optimal orders at n = 16"):
            oracle(points, 5)


@pytest.mark.parametrize("groups", [1, 2])
def test_copies_at_n_16_give_valid_tours_and_paths(groups):
    """16 points in one or two groups of identical copies: every order of a
    group's copies ties, and the copies are visited in index order."""
    gen = np.random.default_rng(groups)
    points = point_set(np.repeat(gen.uniform(size=(groups, 3)), 16 // groups, axis=0))
    edge = float(np.sum((points.coords[0] - points.coords[-1]) ** 2)) ** 1.5
    tour, tour_cost = exact_min_tour(points, 3)
    path, path_cost = exact_min_path(points, 3)
    assert validate(tour, points) == [] and validate(path, points) == []
    assert tour.order == path.order == tuple(range(16))
    assert tour_cost.unscaled == pytest.approx(2 * edge)
    assert path_cost.unscaled == pytest.approx(edge)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_costs_rejected():
    points = point_set([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [1e200, 1e200]],
                       "unconstrained")
    for oracle in (exact_min_tour, exact_min_path, exact_min_matching):
        with pytest.raises(InputError):
            oracle(points, 2)


def test_path_diagonal_pair():
    for k in (3, 5, 7):
        _p, cost = exact_min_path(diagonal_pair(k), k)
        assert cost.unscaled == pytest.approx(k ** (k / 2), rel=1e-9)


def test_path_square_corners(square_corners):
    _p, cost = exact_min_path(square_corners, 2)
    assert cost.unscaled == pytest.approx(3.0, rel=1e-9)
    assert cost.scaled == pytest.approx(math.sqrt(3), rel=1e-9)


def test_path_k3_code_conjectured_value():
    _p, cost = exact_min_path(k3_code4(), 3)
    assert cost.unscaled == pytest.approx(3 * 2 ** 1.5, rel=1e-9)
    assert cost.scaled == pytest.approx(3 ** (1 / 3) * math.sqrt(2), rel=1e-9)


def test_matching_square_corners(square_corners):
    _m, cost = exact_min_matching(square_corners, 2)
    assert cost.unscaled == pytest.approx(2.0, rel=1e-9)


def test_matching_k3_code():
    matching, cost = exact_min_matching(k3_code4(), 3)
    assert validate(matching, k3_code4()) == []
    assert cost.unscaled == pytest.approx(2 * 2 ** 1.5, rel=1e-9)


def test_matching_by_direct_enumeration():
    pts = random_points(77, 6, 2)
    _m, cost = exact_min_matching(pts, 2)
    best = math.inf

    # direct: enumerate all 15 perfect matchings of K6 explicitly
    def all_matchings(verts):
        if not verts:
            yield []
            return
        u = verts[0]
        for i in range(1, len(verts)):
            v = verts[i]
            rest = verts[1:i] + verts[i + 1:]
            for m in all_matchings(rest):
                yield [(u, v)] + m
    for m in all_matchings(list(range(6))):
        c = sum(np.linalg.norm(pts.coords[a] - pts.coords[b]) ** 2 for a, b in m)
        best = min(best, c)
    assert cost.unscaled == pytest.approx(best, rel=1e-9)


def test_matching_parity_and_size_errors():
    with pytest.raises(InputError):
        exact_min_matching(uniform_cube(2, 5, 0), 2)
    with pytest.raises(SizeError):
        exact_min_matching(uniform_cube(2, 16, 0), 2)


def test_pair_sum_formula_all_m():
    for m in range(1, 15):
        val, wit = max_pairwise_square_sum(m)
        assert val == (m // 2) * ((m + 1) // 2)
        assert len(wit) == m and set(wit) <= {0, 1}
    with pytest.raises(SizeError):
        max_pairwise_square_sum(15)


def one_shot_max_pairwise_square_sum(m):
    """The unblocked body over the 2^m x m x m difference cube."""
    codes = np.arange(2 ** m, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(np.int8)
    diffs = (bits[:, :, None] != bits[:, None, :])
    iu, iv = np.triu_indices(m, k=1)
    sums = diffs[:, iu, iv].sum(axis=1)
    best = int(np.argmax(sums))
    return int(sums[best]), tuple(int(b) for b in bits[best])


@pytest.mark.parametrize("block", [1, 2, 1024])
def test_pair_sum_blocks_equal_one_shot(monkeypatch, block):
    """Blocks keep the first maximizer in ascending binary order."""
    monkeypatch.setattr(powertour.oracle, "_PAIR_SUM_BLOCK", block)
    for m in range(1, 15):
        assert max_pairwise_square_sum(m) == one_shot_max_pairwise_square_sum(m)


def test_pair_sum_witness_m4():
    _val, wit = max_pairwise_square_sum(4)
    assert wit == (0, 0, 1, 1)


def test_pair_sum_witness_is_balanced():
    for m in (5, 9, 12):
        val, wit = max_pairwise_square_sum(m)
        ones = sum(wit)
        assert ones * (m - ones) == val


def test_closest_pair_bound_m3():
    for seed in range(6):
        k = 2 + seed
        pts = random_points(seed + 1300, 20, k)
        ok, _pair, min_sq, bound = closest_pair_bound_check(pts, 3)
        assert ok
        assert bound == pytest.approx(2 / 3 * k)


def test_closest_pair_square_corners(square_corners):
    ok, pair, min_sq, bound = closest_pair_bound_check(square_corners, 4)
    assert ok
    assert min_sq == pytest.approx(1.0)
    assert bound == pytest.approx(4 / 6 * 2)


def test_closest_pair_m200():
    pts = uniform_cube(4, 200, 5)
    ok, _pair, _min_sq, _bound = closest_pair_bound_check(pts, 200)
    assert ok


def test_closest_pair_box_form():
    rng = np.random.default_rng(6)
    coords = rng.uniform(size=(30, 6))
    coords[:, :4] *= 0.2
    pts = point_set(coords, "unconstrained")
    ok, _pair, min_sq, bound = closest_pair_bound_check(pts, 10, box=(0.2, 1.0, 4, 2))
    assert ok
    assert bound == pytest.approx((25 / 45) * (0.04 * 4 + 2))


def test_oracle_dominance_over_constructions():
    from powertour.greedy import greedy_ham_path
    from powertour.sekanina import mst_sekanina_tour
    from powertour.structures import close_path
    from powertour.two_phase import two_phase_tour

    for seed in range(4):
        pts = random_points(seed + 1400, 7, 3)
        _t, opt = exact_min_tour(pts, 3)
        for tour in (mst_sekanina_tour(pts, 3)[0], two_phase_tour(pts, 3)[0],
                     close_path(greedy_ham_path(pts)[0], pts)):
            assert power_cost(tour.edges, 3).unscaled >= opt.unscaled * (1 - 1e-9)
