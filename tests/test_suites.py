import pytest

from powertour.errors import InputError
from powertour.suites import (SUITES, run_suite, suite_bincode, suite_bounds_sweep,
                              suite_lemma9)


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


def test_run_suite_unknown_name():
    with pytest.raises(InputError):
        run_suite("nonsense")

