"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported trend table.  Tolerances are fixed here and match
the library defaults (relative 1e-9 unless stated otherwise).
"""

import math
import time

import numpy as np
import pytest

from powertour.constructions import cube_vertex_subset, uniform_cube
from powertour.geometry import cycle_upper_improved, point_set, power_cost
from powertour.greedy import greedy_ham_path
from powertour.oracle import exact_min_matching, exact_min_tour
from powertour.planar import newman_square_tour
from powertour.sekanina import mst_sekanina_tour
from powertour.structures import close_path, cycle_to_matchings
from powertour.suites import (newman_random_sweep, sekanina_certificate_sweep,
                              suite_lemma1, suite_lemma5, suite_lemma7,
                              suite_tight_examples)
from powertour.two_phase import two_phase_tour

REL_TOL = 1e-9


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_tight_example_exactness():
    start = time.perf_counter()
    result = suite_tight_examples(tol=REL_TOL)
    elapsed = time.perf_counter() - start
    ok = result["failures"] == 0 and elapsed < 5.0
    report(1, ok, f"tight-example optima exact ({len(result['checks'])} checks, "
                  f"{elapsed:.2f}s < 5s)")


def test_criterion_2_square_tour_bound():
    start = time.perf_counter()
    result = newman_random_sweep(instances=10_000, seed=2026, tol=REL_TOL)
    # make sure the maximum size is actually represented
    big = point_set(np.random.default_rng(0).uniform(size=(500, 2)))
    tour = newman_square_tour(big)
    s2 = sum(e.weight ** 2 for e in tour.edges)
    elapsed = time.perf_counter() - start
    ok = result["failures"] == 0 and s2 <= 4.0 * (1 + REL_TOL) and elapsed < 60.0
    report(2, ok, f"unit-square tours: S_2 <= 4 on 10001 instances "
                  f"(worst {max(result['worst_S2'], s2):.6f}, {elapsed:.1f}s < 60s)")


def test_criterion_3_tree_cycle_certificates():
    result = sekanina_certificate_sweep(trees=1200, seed=11, tol=REL_TOL)
    ok = result["failures"] == 0
    report(3, ok, "1200 random trees: every tree edge used exactly twice, "
                  "hops span <= 3, cycle cost within (2/3)*3^k of the tree")


def test_criterion_4_certified_scaled_bounds():
    start = time.perf_counter()
    failures = 0
    worst = {}
    for k in range(3, 9):
        bound = cycle_upper_improved(k)
        worst_k = 0.0
        rng = np.random.default_rng(np.random.SeedSequence([2024, k]))
        for _trial in range(1000):
            n = int(rng.integers(2, 201))
            pts = point_set(rng.uniform(size=(n, k)))
            s1 = power_cost(mst_sekanina_tour(pts, k)[0].edges, k).scaled
            s2 = power_cost(two_phase_tour(pts, k)[0].edges, k).scaled
            worst_k = max(worst_k, s1, s2)
            if s1 > bound * (1 + REL_TOL) or s2 > bound * (1 + REL_TOL):
                failures += 1
        worst[k] = (worst_k, bound)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    detail = ", ".join(f"k={k}: {w:.2f}<={b:.2f}" for k, (w, b) in worst.items())
    report(4, ok, f"1000 trials per k in 3..8 within 3*sqrt(5)*(2/3)^(1/k)*sqrt(k) "
                  f"({detail}; {elapsed:.0f}s < 300s)")


def test_criterion_5_mst_ball_packing():
    result = suite_lemma1(trials=1000, seed=5, tol=REL_TOL)
    report(5, result["failures"] == 0,
           "1000 random MSTs: edge midballs pairwise disjoint")


def test_criterion_6_half_cube_reach_bound():
    result = suite_lemma5(trials=100_000, seed=6, tol=REL_TOL, ks=range(2, 21))
    ok = result["failures"] == 0 and not result["tight_pair_failures"]
    report(6, ok, f"100000 half-cube pairs per k in 2..20 within (sqrt5/4)sqrt(k) "
                  f"(worst margin {result['worst_margin']:.2e}); extremal pairs "
                  f"exact for k in 5..50")


def test_criterion_7_pair_sum_oracle():
    result = suite_lemma7()
    report(7, result["failures"] == 0,
           "pair-sum brute force equals floor(m/2)*ceil(m/2) for m in 1..14")


def test_criterion_8_greedy_claims():
    rng = np.random.default_rng(8)
    bad_cap = 0
    for _trial in range(1000):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(3, 80))
        pts = point_set(rng.uniform(size=(n, k)))
        _path, trace = greedy_ham_path(pts)
        cap = math.sqrt(2 * k / 3) * (1 + REL_TOL)
        if any(e.weight > cap for e in trace[:-1]):
            bad_cap += 1

    bad_cube = 0
    sizes = [int(3 + 297 * rng.random() ** 2) for _ in range(85)]
    sizes += [int(rng.integers(301, 1001)) for _ in range(12)]
    sizes += [1200, 1600, 2000]
    for i, n in enumerate(sizes):
        k = 29 + (i % 2)
        pts = cube_vertex_subset(k, min(n, 2 ** k), int(rng.integers(0, 2 ** 31)))
        path, _trace = greedy_ham_path(pts)
        tour = close_path(path, pts)
        log_cost = power_cost(tour.edges, k).log_unscaled
        log_bound = math.log(2.0) + (k / 2) * math.log(k)
        if log_cost > log_bound + REL_TOL:
            bad_cube += 1
    ok = bad_cap == 0 and bad_cube == 0
    report(8, ok, f"greedy: 1000 trials with all but the last edge <= sqrt(2k/3); "
                  f"{len(sizes)} cube-vertex subsets (k=29,30, n up to 2000) with "
                  f"closed-tour S_k <= 2k^(k/2) in log domain")


def test_criterion_9_oracle_dominance():
    rng = np.random.default_rng(9)
    bad = 0
    checked = 0
    for n in range(2, 11):
        for k in (2, 3):
            for rep in range(2):
                pts = point_set(rng.uniform(size=(n, k)))
                _t, opt = exact_min_tour(pts, k)
                tours = [mst_sekanina_tour(pts, k)[0],
                         two_phase_tour(pts, k)[0],
                         close_path(greedy_ham_path(pts)[0], pts)]
                if k == 2:
                    tours.append(newman_square_tour(pts))
                for tour in tours:
                    checked += 1
                    if power_cost(tour.edges, k).unscaled < opt.unscaled * (1 - REL_TOL):
                        bad += 1
                if n % 2 == 0:
                    _m, opt_match = exact_min_matching(pts, k)
                    for tour in tours:
                        m1, _m2 = cycle_to_matchings(tour, k)
                        if power_cost(m1.edges, k).unscaled < \
                                opt_match.unscaled * (1 - REL_TOL):
                            bad += 1
                    if k == 2:
                        cheap, _ = cycle_to_matchings(newman_square_tour(pts), 2)
                        if power_cost(cheap.edges, 2).unscaled > 2.0 * (1 + REL_TOL):
                            bad += 1
    report(9, bad == 0, f"oracle dominance on {checked} construction runs (n <= 10); "
                        f"cheaper matching half <= 2 on unit-square instances")


def test_criterion_10_trend_table_reported():
    print("\n  two-phase scaled cost per sqrt(k)  (n = 100, seed 0; reported only)")
    print("  k   s_k/sqrt(k)")
    rows = []
    for k in range(3, 65):
        pts = uniform_cube(k, 100, 0)
        tour, _rep = two_phase_tour(pts, k)
        ratio = power_cost(tour.edges, k).scaled / math.sqrt(k)
        rows.append((k, ratio))
        print(f"  {k:<3d} {ratio:.4f}")
    ok = all(math.isfinite(r) and r > 0 for _, r in rows) and len(rows) == 62
    trend = rows[-1][1] < rows[0][1]
    report(10, ok, f"trend table produced for k in 3..64 "
                   f"(ratio {rows[0][1]:.3f} at k=3 -> {rows[-1][1]:.3f} at k=64, "
                   f"decreasing overall: {trend}; asymptotic constants reported, "
                   f"not asserted)")
