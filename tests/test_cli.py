import json

import numpy as np
import pytest

import powertour.geometry
import powertour.mst
import powertour.oracle
from powertour.cli import main
from powertour.constructions import (cube_vertex_subset, k3_code4, load_point_set,
                                     save_point_set, uniform_cube)
from powertour.geometry import point_set


def run_cli(*args):
    return main(list(args))


def test_gen_named_set(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli("gen", "k3-code4", "-o", str(out)) == 0
    ps = load_point_set(out)
    assert np.array_equal(ps.coords, k3_code4().coords)


def test_gen_uniform_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen", "uniform", "--k", "3", "--n", "50", "--seed", "42",
                   "-o", str(a)) == 0
    assert run_cli("gen", "uniform", "--k", "3", "--n", "50", "--seed", "42",
                   "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_cube_vertices(tmp_path):
    out = tmp_path / "v.csv"
    assert run_cli("gen", "cube-vertices", "--k", "30", "--n", "1000", "--seed", "7",
                   "-o", str(out)) == 0
    ps = load_point_set(out)
    assert ps.n == 1000
    assert len({row.tobytes() for row in ps.coords}) == 1000


def test_tour_oracle_even_weight(tmp_path, capsys):
    src = tmp_path / "code.json"
    run_cli("gen", "k4-even-weight", "-o", str(src))
    out = tmp_path / "tour.json"
    code = run_cli("tour", str(src), "--algo", "oracle", "--k", "4",
                   "--no-timestamp", "-o", str(out))
    assert code == 0
    body = json.loads(out.read_text())
    assert body["algorithms"]["oracle"]["S_k"] == pytest.approx(32.0, rel=1e-9)


@pytest.mark.parametrize("dim, k_args", [(1, ()), (3, ("--k", "1"))],
                         ids=["1d-file", "k1-on-3d-file"])
def test_tour_rejects_exponent_below_two_before_work(tmp_path, monkeypatch, capsys,
                                                     dim, k_args):
    def fail(*_args, **_kwargs):
        raise AssertionError("build_mst called")

    monkeypatch.setattr(powertour.mst, "build_mst", fail)
    src = tmp_path / "pts.json"
    save_point_set(uniform_cube(dim, 20, 0), src)
    out = tmp_path / "tour.json"
    code = run_cli("tour", str(src), "--algo", "mst-sekanina", *k_args,
                   "--no-timestamp", "-o", str(out))
    assert code == 1
    assert not out.exists()
    assert "exponent must be >= 2" in capsys.readouterr().err


def test_tour_newman_five_points(tmp_path):
    src = tmp_path / "five.json"
    run_cli("gen", "square-corners-center", "-o", str(src))
    out = tmp_path / "tour.json"
    assert run_cli("tour", str(src), "--algo", "newman2d", "--no-timestamp",
                   "-o", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["algorithms"]["newman2d"]["S_k"] == pytest.approx(4.0, rel=1e-9)
    rows = {r["name"]: r for r in body["algorithms"]["newman2d"]["bounds"]}
    assert rows["square_tour_upper"]["certified"]
    assert rows["square_tour_upper"]["satisfied"]


def test_tour_mst_sekanina_bound_value(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "6", "--n", "200", "--seed", "1", "-o", str(src))
    out = tmp_path / "t.json"
    assert run_cli("tour", str(src), "--algo", "mst-sekanina", "--no-timestamp",
                   "-o", str(out)) == 0
    body = json.loads(out.read_text())
    rows = {r["name"]: r for r in body["algorithms"]["mst-sekanina"]["bounds"]}
    expect = 3 * 5 ** 0.5 * (2 / 3) ** (1 / 6) * 6 ** 0.5
    assert rows["cycle_upper_improved"]["value"] == pytest.approx(expect, rel=1e-12)
    assert rows["cycle_upper_improved"]["certified"]
    assert rows["cycle_upper_improved"]["satisfied"]


def test_tour_two_phase_has_phase_report(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "4", "--n", "60", "--seed", "3", "-o", str(src))
    out = tmp_path / "t.json"
    assert run_cli("tour", str(src), "--algo", "two-phase", "--no-timestamp",
                   "-o", str(out)) == 0
    body = json.loads(out.read_text())
    assert "phase_report" in body
    assert sum(body["phase_report"]["tree_sizes"]) == 60
    assert "elapsed_s" not in body["phase_report"]


def test_tour_two_phase_cutoff_flag(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "4", "--n", "30", "--seed", "2", "-o", str(src))
    out = tmp_path / "t.json"
    assert run_cli("tour", str(src), "--algo", "two-phase", "--cutoff", "0.33",
                   "--no-timestamp", "-o", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["phase_report"]["cutoff"] == pytest.approx(0.33)


@pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf", "-0.1"])
def test_tour_two_phase_rejects_bad_cutoff_before_work(monkeypatch, capsys, tmp_path,
                                                       cutoff):
    """A NaN or infinite cutoff would be written as NaN or Infinity, which
    is not JSON; it is refused with nothing written and no distance
    computed."""
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "30", "--seed", "2", "-o", str(src))
    capsys.readouterr()

    def no_matrix(coords):
        raise AssertionError("distances computed before the cutoff was checked")

    monkeypatch.setattr(powertour.geometry, "pairwise_sq", no_matrix)
    assert run_cli("tour", str(src), "--algo", "two-phase", f"--cutoff={cutoff}",
                   "--no-timestamp") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cutoff must be finite")


def test_bench_newman_rows(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("bench", "--k", "2", "--n", "10,40", "--algos", "newman2d",
                   "--no-timestamp", "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        s_k = float(line.split(",")[4])
        assert s_k <= 2.0 + 1e-9


def test_tour_deterministic_bytes(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "40", "--seed", "5", "-o", str(src))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("tour", str(src), "--algo", "two-phase", "--no-timestamp", "-o", str(a))
    run_cli("tour", str(src), "--algo", "two-phase", "--no-timestamp", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_tour_newman_rejects_3d(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "10", "--seed", "0", "-o", str(src))
    assert run_cli("tour", str(src), "--algo", "newman2d") == 1


def test_tour_oracle_size_guard(tmp_path):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "2", "--n", "17", "--seed", "0", "-o", str(src))
    assert run_cli("tour", str(src), "--algo", "oracle") == 1


def test_tour_oracle_candidate_guard(tmp_path, monkeypatch, capsys):
    src = tmp_path / "code.json"
    run_cli("gen", "even-weight", "--k", "5", "-o", str(src))
    monkeypatch.setattr(powertour.oracle, "MAX_CANDIDATES", 25_000)
    assert run_cli("tour", str(src), "--algo", "oracle", "--k", "5") == 1
    assert "more than 25000 near-optimal orders at n = 16" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["mst-sekanina", "two-phase", "greedy"])
def test_tour_dense_size_guard(tmp_path, monkeypatch, capsys, algo):
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "13", "--seed", "0", "-o", str(src))
    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 12)
    assert run_cli("tour", str(src), "--algo", algo) == 1
    assert "dense paths capped at n = 12, got n = 13" in capsys.readouterr().err


def test_tour_missing_file():
    assert run_cli("tour", "/nonexistent/file.json", "--algo", "greedy") == 1


def test_usage_error_exit_code():
    assert run_cli("tour", "x.json", "--algo", "does-not-exist") == 1
    assert run_cli("frobnicate") == 1


def test_verify_tight_examples(capsys):
    assert run_cli("verify", "tight-examples", "--no-timestamp") == 0
    body = json.loads(capsys.readouterr().out)
    assert body["failures"] == 0
    assert body["suite"] == "tight-examples"


def test_verify_lemma7(capsys):
    assert run_cli("verify", "lemma7", "--no-timestamp") == 0
    body = json.loads(capsys.readouterr().out)
    assert body["ok"]


def test_verify_lemma5_custom_trials(capsys):
    assert run_cli("verify", "lemma5", "--trials", "2000", "--no-timestamp") == 0
    body = json.loads(capsys.readouterr().out)
    assert body["failures"] == 0
    assert body["trials_per_k"] == 2000


def test_bench_row_count_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ("bench", "--k", "3..4", "--n", "10,20", "--algos",
            "mst-sekanina,greedy,two-phase", "--trials", "2", "--seed", "9",
            "--no-timestamp")
    assert run_cli(*args, "-o", str(a)) == 0
    assert run_cli(*args, "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "k,n,algo,S_k,s_k,time_s"
    assert len(lines) == 1 + 2 * 2 * 3 * 2  # header + |k|*|n|*|algos|*trials


def test_bench_oracle_guard():
    assert run_cli("bench", "--k", "2", "--n", "20", "--algos", "oracle") == 1


def test_bench_checks_whole_grid_before_any_row(monkeypatch, capsys):
    import powertour.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("a row was computed before the grid was checked")

    monkeypatch.setattr(cli, "_run_algo", unreachable)
    for grid in (("--k", "2..3", "--n", "5,30", "--algos", "mst-sekanina,greedy,oracle"),
                 ("--k", "2..3", "--n", "5", "--algos", "newman2d"),
                 ("--k", "2,1", "--n", "5", "--algos", "greedy,mst-sekanina")):
        assert run_cli("bench", *grid, "--no-timestamp") == 1
        assert capsys.readouterr().out == ""
    monkeypatch.setattr(powertour.geometry, "MAX_DENSE_POINTS", 12)
    for algo in ("mst-sekanina", "greedy", "two-phase"):
        assert run_cli("bench", "--k", "3", "--n", "5,13", "--algos", algo,
                       "--no-timestamp") == 1
        assert capsys.readouterr().out == ""


def test_bench_rejects_bad_trials_and_grid_values_before_any_row(monkeypatch, capsys):
    import powertour.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("a row was computed before the arguments were checked")

    monkeypatch.setattr(cli, "_run_algo", unreachable)
    for args in (("--k", "3", "--n", "10", "--trials", "-2"),
                 ("--k", "3", "--n", "10", "--trials", "0"),
                 ("--k", "3", "--n", "20,1", "--algos", "mst-sekanina"),
                 ("--k", "3,0", "--n", "10", "--algos", "greedy")):
        assert run_cli("bench", *args, "--no-timestamp") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def test_verify_bounds_sweep_with_ranges(capsys):
    assert run_cli("verify", "bounds-sweep", "--k", "3..4", "--n", "2..40",
                   "--trials", "5", "--no-timestamp") == 0
    body = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in body["rows"]] == [3, 4]
    assert body["failures"] == 0


def test_verify_range_flag_rejected_where_meaningless():
    assert run_cli("verify", "lemma7", "--k", "3..4") == 1


def fail_before_work(monkeypatch):
    """Make every trial body of lemma1, lemma5 and bounds-sweep raise, so a
    rejected argument must be caught before the first trial."""
    import powertour.suites as suites

    def unreachable(*args, **kwargs):
        raise AssertionError("a trial ran before the arguments were checked")

    monkeypatch.setattr(suites, "build_mst", unreachable)
    monkeypatch.setattr(suites, "midball_reach_batch", unreachable)
    monkeypatch.setattr(suites, "mst_sekanina_tour", unreachable)


@pytest.mark.parametrize("args", [
    ("lemma5", "--trials", "0"),
    ("bounds-sweep", "--trials", "0"),
    ("lemma1", "--trials", "-3"),
    ("lemma7", "--trials", "0"),
    ("lemma5", "--k", "0..2"),
    ("bounds-sweep", "--k", "1..3"),
    ("bounds-sweep", "--k", "3", "--n", "1..5"),
    ("lemma1", "--tol", "nan"),
    ("lemma1", "--tol=-1"),
    ("lemma5", "--tol", "inf"),
    ("bounds-sweep", "--tol=-1e-9"),
], ids=["lemma5-trials-0", "bounds-sweep-trials-0", "lemma1-trials-negative",
        "lemma7-trials-0", "lemma5-k-0", "bounds-sweep-k-1", "bounds-sweep-n-1",
        "lemma1-tol-nan", "lemma1-tol-negative", "lemma5-tol-inf",
        "bounds-sweep-tol-negative"])
def test_verify_rejects_bad_arguments_before_work(monkeypatch, capsys, args):
    fail_before_work(monkeypatch)
    assert run_cli("verify", *args, "--no-timestamp") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_k_list_runs_exactly_those_dimensions(capsys):
    assert run_cli("verify", "lemma5", "--trials", "50", "--k", "5,3,5",
                   "--no-timestamp") == 0
    assert json.loads(capsys.readouterr().out)["ks"] == [3, 5]
    assert run_cli("verify", "lemma5", "--trials", "50", "--k", "3..5",
                   "--no-timestamp") == 0
    assert json.loads(capsys.readouterr().out)["ks"] == [3, 4, 5]


def cube6_inputs():
    """k = 6 cube vertices at n = 60: 60 distinct ones, and 30 distinct
    ones twice each in a shuffled order."""
    twice = np.repeat(cube_vertex_subset(6, 30, 1).coords, 2, axis=0)
    return {"distinct": cube_vertex_subset(6, 60, 1),
            "duplicated": point_set(twice[np.random.default_rng(7).permutation(60)])}


TOUR_RUNS = {"mst-sekanina": ("--algo", "mst-sekanina"), "greedy": ("--algo", "greedy"),
             "two-phase": ("--algo", "two-phase"),
             "two-phase-1.5": ("--algo", "two-phase", "--cutoff", "1.5")}

#: ``order`` of ``tour --no-timestamp`` on the two k = 6 cube-vertex inputs of
#: ``cube6_inputs``; the two-phase rows at the default cutoff see only
#: singletons (distinct) or 2-vertex trees (duplicated), at 1.5 one tree.
PINNED_ORDERS = {
    ("distinct", "mst-sekanina"): [
        0, 1, 45, 16, 23, 53, 38, 9, 13, 41, 57, 27, 20, 49, 34, 5, 7, 43, 36, 29, 59,
        51, 22, 11, 55, 25, 18, 47, 32, 3, 2, 31, 46, 17, 24, 54, 39, 10, 14, 42, 58,
        28, 21, 50, 35, 6, 4, 33, 48, 19, 26, 56, 40, 12, 8, 52, 37, 15, 44, 30
    ],
    ("distinct", "greedy"): [
        55, 43, 59, 29, 51, 47, 45, 44, 46, 50, 48, 49, 57, 56, 40, 42, 35, 36, 32, 31,
        30, 33, 34, 41, 38, 37, 39, 54, 24, 28, 26, 27, 20, 19, 21, 17, 15, 16, 18, 22,
        7, 3, 1, 0, 2, 6, 4, 5, 13, 12, 14, 10, 8, 9, 11, 25, 23, 53, 52, 58
    ],
    ("distinct", "two-phase"): [
        55, 43, 59, 29, 51, 47, 45, 44, 46, 50, 48, 49, 57, 56, 40, 42, 35, 36, 32, 31,
        30, 33, 34, 41, 38, 37, 39, 54, 24, 28, 26, 27, 20, 19, 21, 17, 15, 16, 18, 22,
        7, 3, 1, 0, 2, 6, 4, 5, 13, 12, 14, 10, 8, 9, 11, 25, 23, 53, 52, 58
    ],
    ("distinct", "two-phase-1.5"): [
        11, 55, 25, 18, 47, 32, 3, 2, 31, 46, 17, 24, 54, 39, 10, 14, 42, 58, 28, 21,
        50, 35, 6, 4, 33, 48, 19, 26, 56, 40, 12, 8, 52, 37, 15, 44, 30, 0, 1, 45, 16,
        23, 53, 38, 9, 13, 41, 57, 27, 20, 49, 34, 5, 7, 43, 36, 29, 59, 51, 22
    ],
    ("duplicated", "mst-sekanina"): [
        0, 1, 38, 57, 17, 5, 11, 47, 2, 41, 9, 40, 28, 49, 29, 33, 36, 24, 12, 52, 32,
        53, 44, 45, 55, 13, 48, 35, 7, 43, 15, 4, 39, 10, 30, 56, 26, 8, 59, 46, 27, 3,
        54, 31, 23, 14, 20, 34, 6, 18, 50, 42, 25, 19, 22, 58, 21, 51, 16, 37
    ],
    ("duplicated", "greedy"): [
        55, 45, 58, 21, 19, 22, 51, 16, 18, 50, 25, 42, 43, 15, 5, 7, 35, 48, 32, 53,
        57, 17, 38, 1, 0, 37, 39, 4, 26, 56, 10, 30, 20, 14, 34, 6, 3, 23, 54, 31, 12,
        52, 47, 11, 44, 13, 2, 41, 36, 33, 40, 9, 24, 29, 28, 49, 46, 27, 8, 59
    ],
    ("duplicated", "two-phase"): [
        55, 45, 58, 21, 19, 22, 51, 16, 18, 50, 25, 42, 43, 15, 5, 7, 35, 48, 32, 53,
        57, 17, 38, 1, 0, 37, 39, 4, 26, 56, 10, 30, 20, 14, 34, 6, 3, 23, 54, 31, 12,
        52, 47, 11, 44, 13, 2, 41, 36, 33, 40, 9, 24, 29, 28, 49, 46, 27, 8, 59
    ],
    ("duplicated", "two-phase-1.5"): [
        3, 54, 31, 23, 14, 20, 34, 6, 18, 50, 42, 25, 19, 22, 58, 21, 51, 16, 37, 0, 1,
        38, 57, 17, 5, 11, 47, 2, 41, 9, 40, 28, 49, 29, 33, 36, 24, 12, 52, 32, 53, 44,
        45, 55, 13, 48, 35, 7, 43, 15, 4, 39, 10, 30, 56, 26, 8, 59, 46, 27
    ],
}


@pytest.mark.parametrize("name, run", sorted(PINNED_ORDERS))
def test_tour_orders_pinned(tmp_path, name, run):
    """Squared distances between cube vertices are integers, so every tie
    and every order below is the same on any platform."""
    src = tmp_path / "pts.json"
    save_point_set(cube6_inputs()[name], src)
    out = tmp_path / "tour.json"
    assert run_cli("tour", str(src), *TOUR_RUNS[run], "--no-timestamp", "-o", str(out)) == 0
    assert json.loads(out.read_text())["order"] == PINNED_ORDERS[(name, run)]


def test_certificate_failure_exit_code(tmp_path, monkeypatch):
    import powertour.cli as cli
    from powertour.errors import CertificateError

    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "10", "--seed", "0", "-o", str(src))

    def boom(*args, **kwargs):
        raise CertificateError("synthetic failure")

    monkeypatch.setattr(cli, "mst_sekanina_tour", boom)
    assert run_cli("tour", str(src), "--algo", "mst-sekanina") == 3


def count_cost_and_bound_calls(monkeypatch):
    """Calls to ``power_cost`` from the CLI and the MST pipeline, and to
    ``named_bounds``, counted in the returned dict."""
    import powertour.cli as cli
    import powertour.sekanina as sekanina
    import powertour.verifiers as verifiers

    calls = {"power_cost": 0, "named_bounds": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(cli, "power_cost")
    count(sekanina, "power_cost")
    count(verifiers, "named_bounds")
    return calls


def test_tour_costs_and_bounds_once(tmp_path, monkeypatch):
    """mst-sekanina's own bound report is the one printed, not rebuilt."""
    calls = count_cost_and_bound_calls(monkeypatch)
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "60", "--seed", "0", "-o", str(src))
    for algo in ("mst-sekanina", "greedy"):
        calls.update(power_cost=0, named_bounds=0)
        assert run_cli("tour", str(src), "--algo", algo, "--no-timestamp",
                       "-o", str(tmp_path / "out.json")) == 0
        assert calls == {"power_cost": 1, "named_bounds": 1}


def test_bench_costs_each_row_once(monkeypatch, capsys):
    """An mst-sekanina row takes S_k and s_k from the pipeline's report."""
    calls = count_cost_and_bound_calls(monkeypatch)
    assert run_cli("bench", "--k", "3", "--n", "20", "--algos", "mst-sekanina,greedy",
                   "--trials", "2", "--no-timestamp") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert calls == {"power_cost": 4, "named_bounds": 2}
