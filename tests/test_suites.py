import numpy as np
import pytest

from powertour import suites
from powertour.errors import InputError
from powertour.suites import (SUITES, newman_random_sweep, random_tree_pairs, run_suite,
                              sekanina_certificate_sweep, suite_bincode, suite_bounds_sweep,
                              suite_lemma1, suite_lemma5, suite_lemma9)
from powertour.verifiers import midball_reach_batch


def test_suite_registry_complete():
    assert set(SUITES) == {"lemma1", "lemma5", "lemma7", "lemma9", "bincode",
                           "bounds-sweep", "tight-examples"}


def test_lemma9_suite_small():
    result = suite_lemma9(trials=40, seed=1)
    assert result["failures"] == 0


def test_bincode_suite_small():
    result = suite_bincode(trials=40, seed=2)
    assert result["failures"] == 0


def test_bounds_sweep_small():
    result = suite_bounds_sweep(trials=5, seed=3, ks=range(3, 5), n_hi=60)
    assert result["failures"] == 0
    assert [row["k"] for row in result["rows"]] == [3, 4]
    for row in result["rows"]:
        assert row["max_s_mst"] <= row["bound"]


def test_random_tree_pairs_of_two_points_draw_nothing():
    """Two points decode the empty sequence to their one edge and leave
    the generator where it was."""
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    assert random_tree_pairs(2, rng) == [(0, 1)]
    assert rng.random() == twin.random()


def test_certificate_sweep_reaches_two_vertex_trees(monkeypatch):
    """The sweep draws its sizes from n = 2 on, so 2-vertex trees go
    through the certified walk too."""
    sizes = []
    real = suites.tree_cube_cycle

    def recorded(tree, points, anchor):
        sizes.append(tree.n)
        return real(tree, points, anchor=anchor)

    monkeypatch.setattr(suites, "tree_cube_cycle", recorded)
    assert sekanina_certificate_sweep(60, seed=0)["failures"] == 0
    assert min(sizes) == 2


def test_run_suite_unknown_name():
    with pytest.raises(InputError):
        run_suite("nonsense")



@pytest.mark.parametrize("call", [
    lambda: run_suite("lemma1", trials=0),
    lambda: run_suite("tight-examples", trials=-1),
    lambda: midball_reach_batch(3, 0),
    lambda: midball_reach_batch(0, 10),
    lambda: suite_bounds_sweep(trials=0),
    lambda: suite_bounds_sweep(trials=1, ks=[3, 1]),
    lambda: suite_bounds_sweep(trials=1, n_lo=1),
    lambda: suite_bounds_sweep(trials=1, n_lo=60, n_hi=2),
    lambda: suite_lemma5(trials=10, ks=[4, 0]),
    lambda: newman_random_sweep(0),
    lambda: sekanina_certificate_sweep(0),
    lambda: suite_lemma1(trials=0),
    lambda: suite_lemma9(trials=-1),
    lambda: suite_bincode(trials=0),
], ids=["run-suite", "run-suite-ignored-trials", "midball-trials", "midball-k",
        "bounds-sweep-trials", "bounds-sweep-k", "bounds-sweep-n",
        "bounds-sweep-n-reversed", "lemma5-k",
        "newman-sweep", "sekanina-sweep", "lemma1-trials", "lemma9-trials",
        "bincode-trials"])
def test_counts_and_dimensions_below_range_are_input_errors(call):
    with pytest.raises(InputError):
        call()


def test_bounds_sweep_reads_costs_from_the_pipelines(monkeypatch):
    """Two-phase already costs its tour, and the sweep takes s_k from its
    report; the MST cycle is costed once per trial, with no bound report."""
    import powertour.sekanina as sekanina
    import powertour.suites as suites

    calls = {"power_cost": 0}
    real = suites.power_cost

    def counted(*args, **kwargs):
        calls["power_cost"] += 1
        return real(*args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("a bound report was built")

    monkeypatch.setattr(suites, "power_cost", counted)
    monkeypatch.setattr(sekanina, "bound_report", unreachable)
    result = suite_bounds_sweep(trials=3, seed=4, ks=[3, 4], n_hi=40)
    assert result["failures"] == 0
    assert calls == {"power_cost": 6}


@pytest.mark.parametrize("run", [
    lambda: run_suite("lemma1", trials=1, seed=-1),
    lambda: run_suite("tight-examples", seed=-2),
    lambda: newman_random_sweep(1, seed=-1),
    lambda: sekanina_certificate_sweep(1, seed=-1),
], ids=["run-suite", "run-suite-seedless", "newman-sweep", "sekanina-sweep"])
def test_negative_seed_is_an_input_error(run):
    with pytest.raises(InputError, match=r"seed must be an integer >= 0, got -\d"):
        run()
