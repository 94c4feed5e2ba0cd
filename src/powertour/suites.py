"""Named verification suites driving the checkers on randomized instances.

Each suite returns a JSON-serializable summary dict with a ``failures``
count; 0 means the suite passed.  Suites are deterministic under a seed.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Sequence

import numpy as np

from .constructions import (cube_vertex_subset, diagonal_pair, k3_code4,
                            k4_even_weight_code, midball_reach_extremal_pair,
                            square_tight_sets)
from .errors import InputError
from .geometry import check_dense_size, cycle_upper_improved, point_set, power_cost
from .greedy import greedy_edge_count_by_length, greedy_ham_path
from .mst import build_mst, mst_ball_packing_check
from .oracle import (closest_pair_bound_check, exact_min_matching, exact_min_tour,
                     max_pairwise_square_sum)
from .planar import newman_square_tour
from .sekanina import mst_sekanina_cycle, tree_cube_cycle
from .structures import tree_from_pairs
from .two_phase import two_phase_tour
from .verifiers import (MIDBALL_COEFF, check_seed, check_tol, check_trials, midball_reach,
                        midball_reach_batch)

DEFAULT_TRIALS = 1000
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0

#: Largest instance of ``newman_random_sweep`` and ``sekanina_certificate_sweep``;
#: sizes are drawn skewed towards the small end.
SWEEP_N_MAX = 500


def random_tree_pairs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A uniformly random labeled tree (decoded from a random sequence)."""
    if n == 1:
        return []
    seq = rng.integers(0, n, size=n - 2)
    deg = np.ones(n, dtype=np.int64)
    for s in seq:
        deg[s] += 1
    leaves = [int(v) for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(s)))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leaves, int(s))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def suite_lemma1(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                 tol: float = DEFAULT_TOL) -> dict:
    """Midballs of MST edges are pairwise disjoint on random instances."""
    check_trials(trials)

    def one(t: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        k = int(rng.integers(2, 11))
        n = int(rng.integers(3, 51))
        pts = point_set(rng.uniform(size=(n, k)))
        tree = build_mst(pts)
        return len(mst_ball_packing_check(tree, pts, rel_tol=tol))

    failures = sum(map(one, range(trials)))
    return {"suite": "lemma1", "trials": trials, "failures": failures,
            "ok": failures == 0}


def suite_lemma5(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                 tol: float = DEFAULT_TOL, ks: Sequence[int] = range(2, 21)) -> dict:
    """Half-cube midball reach bound, batched per dimension, plus exact
    equality of the extremal pairs."""
    if min(ks, default=1) < 1:
        raise InputError(f"dimensions must be >= 1, got {min(ks)}")
    failures = 0
    worst = -math.inf
    for k in ks:
        bad, margin = midball_reach_batch(k, trials, seed=seed, rel_tol=tol)
        failures += bad
        worst = max(worst, margin)
    tight_bad = []
    for k in range(5, 55, 5):
        u, v = midball_reach_extremal_pair(k)
        lhs = midball_reach(u, v)
        rhs = MIDBALL_COEFF * math.sqrt(k)
        if abs(lhs - rhs) > 1e-9 * rhs:
            tight_bad.append(k)
    return {"suite": "lemma5", "trials_per_k": trials, "ks": [int(k) for k in ks],
            "failures": failures + len(tight_bad), "worst_margin": worst,
            "tight_pair_failures": tight_bad, "ok": failures == 0 and not tight_bad}


def suite_lemma7(trials: int = 0, seed: int = DEFAULT_SEED,
                 tol: float = DEFAULT_TOL) -> dict:
    """Brute-force pair-sum maximum equals floor(m/2)*ceil(m/2), m <= 14."""
    bad = []
    for m in range(1, 15):
        val, _wit = max_pairwise_square_sum(m)
        if val != (m // 2) * ((m + 1) // 2):
            bad.append(m)
    return {"suite": "lemma7", "ms": list(range(1, 15)), "failures": len(bad),
            "bad_ms": bad, "ok": not bad}


def suite_lemma9(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                 tol: float = DEFAULT_TOL) -> dict:
    """Closest-pair bound on random instances, symmetric and box forms."""
    check_trials(trials)

    def one(t: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t, 9]))
        k = int(rng.integers(2, 13))
        n = int(rng.integers(3, 60))
        pts = point_set(rng.uniform(size=(n, k)))
        bad = 0
        for m in {3, n, int(rng.integers(2, n + 1))}:
            if m < 2 or m > n:
                continue
            ok, _pair, _msq, _bound = closest_pair_bound_check(pts, m, rel_tol=tol)
            bad += 0 if ok else 1
        # box form: split coordinates, scale the first block down
        k1 = int(rng.integers(0, k + 1))
        delta = float(rng.uniform(0.05, 1.0))
        coords = pts.coords.copy()
        coords[:, :k1] *= delta
        boxed = point_set(coords, "unconstrained")
        ok, _p, _m2, _b = closest_pair_bound_check(
            boxed, min(n, 5), box=(delta, 1.0, k1, k - k1), rel_tol=tol)
        return bad + (0 if ok else 1)

    failures = sum(map(one, range(trials)))
    return {"suite": "lemma9", "trials": trials, "failures": failures,
            "ok": failures == 0}


def suite_bincode(trials: int = 200, seed: int = DEFAULT_SEED,
                  tol: float = DEFAULT_TOL) -> dict:
    """On cube-vertex greedy runs, the count of path edges with squared
    length >= j stays below 2^(k-j+1) (and the sharpened size bound when
    j < 2k/3) for every j in [1, k]."""
    check_trials(trials)

    def one(t: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t, 77]))
        k = int(rng.integers(4, 17))
        n = int(rng.integers(3, min(2 ** k, 260) + 1))
        pts = cube_vertex_subset(k, n, int(rng.integers(0, 2 ** 31)))
        _path, trace = greedy_ham_path(pts)
        bad = 0
        for j in range(1, k + 1):
            count = greedy_edge_count_by_length(trace, j)
            if count >= 2.0 ** (k - j + 1):
                bad += 1
            if j < 2 * k / 3 and count >= 2.0 ** (k - 1.5 * j + 2):
                bad += 1
        return bad

    failures = sum(map(one, range(trials)))
    return {"suite": "bincode", "trials": trials, "failures": failures,
            "ok": failures == 0}


def suite_bounds_sweep(trials: int = 50, seed: int = DEFAULT_SEED,
                       tol: float = DEFAULT_TOL, ks: Sequence[int] = range(3, 9),
                       n_lo: int = 2, n_hi: int = 200) -> dict:
    """Certified-bound sweep: the MST tour and the two-phase tour stay
    below 3*sqrt(5)*(2/3)^(1/k)*sqrt(k); greedy trace edges except the
    last stay below sqrt(2k/3)."""
    check_trials(trials)
    if min(ks, default=2) < 2:
        raise InputError(f"dimensions must be >= 2, got {min(ks)}")
    if n_lo < 2:
        raise InputError(f"instance sizes must be >= 2, got {n_lo}")
    if n_lo > n_hi:
        raise InputError(f"empty instance-size range {n_lo}..{n_hi}")
    check_dense_size(n_hi)
    rows = []
    failures = 0
    for k in ks:
        bound = cycle_upper_improved(k)

        def one(t: int, k=k, bound=bound) -> tuple[int, float, float]:
            rng = np.random.default_rng(np.random.SeedSequence([seed, k, t, 6]))
            n = int(rng.integers(n_lo, n_hi + 1))
            pts = point_set(rng.uniform(size=(n, k)))
            bad = 0
            s_mst = power_cost(mst_sekanina_cycle(pts), k).scaled
            if s_mst > bound * (1 + tol):
                bad += 1
            _tour2, phase = two_phase_tour(pts, k)
            s_two = phase.tour_cost.scaled
            if s_two > bound * (1 + tol):
                bad += 1
            _path, trace = greedy_ham_path(pts)
            cap = math.sqrt(2.0 * k / 3.0) * (1 + tol)
            if (trace.weights[:-1] > cap).any():
                bad += 1
            return bad, s_mst, s_two

        results = [one(t) for t in range(trials)]
        bad_k = sum(r[0] for r in results)
        failures += bad_k
        rows.append({"k": k, "bound": bound, "failures": bad_k,
                     "max_s_mst": max(r[1] for r in results),
                     "max_s_two_phase": max(r[2] for r in results)})
    return {"suite": "bounds-sweep", "trials_per_k": trials, "rows": rows,
            "failures": failures, "ok": failures == 0}


def suite_tight_examples(trials: int = 0, seed: int = DEFAULT_SEED,
                         tol: float = DEFAULT_TOL) -> dict:
    """Exact optima of the named configurations (oracle + constructions)."""
    checks = []

    def check(name: str, got: float, want: float):
        ok = abs(got - want) <= tol * max(abs(got), abs(want)) + 1e-12
        checks.append({"name": name, "got": got, "want": want, "ok": bool(ok)})

    corners4, corners2, five = square_tight_sets()
    for name, ps in (("square_corners4", corners4), ("square_diagonal2", corners2),
                     ("square_five", five)):
        _t, c = exact_min_tour(ps, 2)
        check(f"oracle_{name}_S2", c.unscaled, 4.0)
        tour = newman_square_tour(ps)
        check(f"square_tour_{name}_S2",
              sum(w ** 2 for w in tour.weights.tolist()), 4.0)
    _t, c = exact_min_tour(k3_code4(), 3)
    check("oracle_k3_code_S3", c.unscaled, 4.0 * 2.0 ** 1.5)
    check("oracle_k3_code_s3", c.scaled, 2.0 ** (7.0 / 6.0))
    _t, c = exact_min_tour(k4_even_weight_code(), 4)
    check("oracle_k4_code_S4", c.unscaled, 32.0)
    for k in (2, 3, 4, 5, 6):
        _t, c = exact_min_tour(diagonal_pair(k), k)
        check(f"oracle_diagonal_k{k}_Sk", c.unscaled, 2.0 * k ** (k / 2.0))
    _m, c = exact_min_matching(corners4, 2)
    check("oracle_corner_matching_S2", c.unscaled, 2.0)
    failures = sum(1 for c in checks if not c["ok"])
    return {"suite": "tight-examples", "checks": checks, "failures": failures,
            "ok": failures == 0}


def newman_random_sweep(instances: int, seed: int = DEFAULT_SEED,
                        tol: float = DEFAULT_TOL) -> dict:
    """Random unit-square tours; S_2 must stay at most 4 on every instance."""
    check_trials(instances, "instances")
    check_seed(seed)

    def one(t: int) -> tuple[int, float]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t, 2]))
        n = 2 + int((SWEEP_N_MAX - 2) * rng.random() ** 2)
        pts = point_set(rng.uniform(size=(n, 2)))
        tour = newman_square_tour(pts)
        s2 = sum(w ** 2 for w in tour.weights.tolist())
        return (0 if s2 <= 4.0 * (1 + tol) else 1), s2

    results = [one(t) for t in range(instances)]
    failures = sum(r[0] for r in results)
    return {"suite": "newman-sweep", "instances": instances, "failures": failures,
            "worst_S2": max(r[1] for r in results), "ok": failures == 0}


def sekanina_certificate_sweep(trees: int, seed: int = DEFAULT_SEED,
                               tol: float = DEFAULT_TOL) -> dict:
    """Random spanning trees (not necessarily minimal): the cycle
    certificate must validate (``tree_cube_cycle`` raises CertificateError
    unless every hop spans at most 3 tree edges and every tree edge is used
    exactly twice), and S_k(H) <= (2/3)*3^k*S_k(T)."""
    check_trials(trees, "trees")
    check_seed(seed)

    def one(t: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence([seed, t, 3]))
        n = 2 + int((SWEEP_N_MAX - 2) * rng.random() ** 2)
        k = int(rng.integers(2, 7))
        pts = point_set(rng.uniform(size=(n, k)))
        pairs = random_tree_pairs(n, rng)
        tree = tree_from_pairs(pts, pairs)
        anchor = int(rng.integers(0, n))
        tour, _cert = tree_cube_cycle(tree, pts, anchor=anchor)
        log_h = power_cost(tour, k).log_unscaled
        log_bound = math.log(2.0 / 3.0) + k * math.log(3.0) + power_cost(tree, k).log_unscaled
        return 1 if log_h > log_bound + tol else 0

    failures = sum(map(one, range(trees)))
    return {"suite": "sekanina-sweep", "trees": trees, "failures": failures,
            "ok": failures == 0}


SUITES = {
    "lemma1": suite_lemma1,
    "lemma5": suite_lemma5,
    "lemma7": suite_lemma7,
    "lemma9": suite_lemma9,
    "bincode": suite_bincode,
    "bounds-sweep": suite_bounds_sweep,
    "tight-examples": suite_tight_examples,
}


def run_suite(name: str, trials: int | None = None, seed: int = DEFAULT_SEED,
              tol: float = DEFAULT_TOL, ks: Sequence[int] | None = None,
              n_range: tuple[int, int] | None = None) -> dict:
    """Dispatch a named suite.  ``ks`` narrows the dimension sweep for the
    per-dimension suites (lemma5, bounds-sweep); ``n_range`` narrows the
    instance sizes of bounds-sweep."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    start = time.perf_counter()
    check_seed(seed)
    check_tol(tol)
    kwargs = {"seed": seed, "tol": tol}
    if trials is not None:
        check_trials(trials)
        kwargs["trials"] = trials
    if ks is not None:
        if name not in ("lemma5", "bounds-sweep"):
            raise InputError(f"suite {name!r} does not take a dimension range")
        kwargs["ks"] = ks
    if n_range is not None:
        if name != "bounds-sweep":
            raise InputError(f"suite {name!r} does not take an instance-size range")
        kwargs["n_lo"], kwargs["n_hi"] = n_range
    result = fn(**kwargs)
    result["elapsed_s"] = time.perf_counter() - start
    return result
