import json

import numpy as np
import pytest

import powertour.geometry
import powertour.oracle
import powertour.sekanina
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

    monkeypatch.setattr(powertour.sekanina, "build_mst", fail)
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


@pytest.mark.parametrize("case", ["tour-input", "tour-output", "gen-output"])
def test_unreadable_path_gives_one_error_line(tmp_path, capsys, case):
    """A directory where a file belongs exits 1 with one ``error:`` line
    naming it, not a traceback."""
    src = tmp_path / "f.json"
    save_point_set(uniform_cube(2, 5, 1), src)
    argv = {"tour-input": ("tour", str(tmp_path), "--algo", "greedy"),
            "tour-output": ("tour", str(src), "--algo", "greedy", "-o", str(tmp_path)),
            "gen-output": ("gen", "uniform", "-o", str(tmp_path))}[case]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


@pytest.mark.parametrize("name, body", [
    ("truncated.json", '{"k": 2, "points": [[0.1, 0.2], [0.3'),
    ("ragged.csv", "0.1,0.2\n0.3\n"),
    ("word.csv", "0.1,0.2\n0.3,abc\n"),
    ("binary.csv", b"\xff\xfe\x00"),
], ids=["truncated-json", "ragged-csv-row", "non-numeric-csv-cell", "undecodable-csv"])
def test_malformed_point_set_file_is_an_input_error(tmp_path, capsys, name, body):
    src = tmp_path / name
    if isinstance(body, bytes):
        src.write_bytes(body)
    else:
        src.write_text(body)
    assert run_cli("tour", str(src), "--algo", "greedy") == 1
    err = capsys.readouterr().err
    assert f"malformed point-set file {src}" in err


@pytest.mark.parametrize("name, body, message", [
    ("empty.json", '{"points": []}', "coords must be a 2-d array, got shape (0,)"),
    ("flat.json", '{"points": [0.1, 0.2]}', "coords must be a 2-d array, got shape (2,)"),
    ("nan.csv", "0.1,0.2\n0.3,nan\n", "coordinates must be finite"),
], ids=["no-points", "one-flat-row", "nan-coordinate"])
def test_point_set_errors_name_the_file(tmp_path, capsys, name, body, message):
    """The point set's own checks, reached through the loader, name the file."""
    src = tmp_path / name
    src.write_text(body)
    assert run_cli("tour", str(src), "--algo", "greedy") == 1
    assert capsys.readouterr().err == f"error: malformed point-set file {src}: {message}\n"


def test_usage_error_exit_code():
    assert run_cli("tour", "x.json", "--algo", "does-not-exist") == 1
    assert run_cli("frobnicate") == 1


BAD_ALGO_STDERR = """\
usage: powertour tour [-h] --algo
                      {mst-sekanina,greedy,two-phase,newman2d,oracle} [--k K]
                      [--cutoff CUTOFF] [--diagonal {main,anti}]
                      [--no-timestamp] [-o OUTPUT]
                      input
powertour tour: error: argument --algo: invalid choice: 'bogus' (choose from \
'mst-sekanina', 'greedy', 'two-phase', 'newman2d', 'oracle')
"""


def test_one_parser_per_process_with_unchanged_usage_errors(monkeypatch, capsys):
    """``main`` builds its parser once: two calls parse with one object, and
    a bad ``--algo`` exits 1 with argparse's usage and message each time."""
    import powertour.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    used = []
    original = cli._Parser.parse_args

    def recorded(self, *args, **kwargs):
        used.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    for _ in range(2):
        assert run_cli("tour", "x.json", "--algo", "bogus") == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", BAD_ALGO_STDERR)
    assert len(used) == 2 and used[0] is used[1] is cli.build_parser()


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


@pytest.mark.parametrize("args", [
    ("bench", "--k", "5..3,4", "--n", "10", "--algos", "greedy"),
    ("verify", "lemma5", "--k", "5..3,4", "--trials", "5"),
], ids=["bench", "verify"])
def test_reversed_range_is_refused_and_writes_nothing(tmp_path, capsys, args):
    out = tmp_path / "out.txt"
    assert run_cli(*args, "--no-timestamp", "-o", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty range '5..3'" in captured.err
    assert not out.exists()


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


@pytest.mark.parametrize("args, part", [
    (("bench", "--k", "abc", "--n", "10"), "'abc'"),
    (("bench", "--k", "3", "--n", "10,2..x"), "'2..x'"),
    (("verify", "lemma5", "--k", "3..x"), "'3..x'"),
], ids=["bench-k-word", "bench-n-range", "verify-k-range"])
def test_bad_integer_list_is_an_input_error(monkeypatch, capsys, args, part):
    """A malformed --k/--n list exits 1 with one error line naming the bad
    part, before any row or trial."""
    import powertour.cli as cli

    fail_before_work(monkeypatch)
    monkeypatch.setattr(cli, "_run_algo", lambda *a, **kw: pytest.fail("a row ran"))
    assert run_cli(*args, "--no-timestamp") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: ") and part in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args, message", [
    (("gen", "uniform", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("gen", "cube-vertices", "--k", "12", "--n", "50", "--seed", "-3"),
     "seed must be an integer >= 0, got -3"),
    (("gen", "clustered", "--radius", "-0.05"), "radius must be finite and >= 0, got -0.05"),
    (("gen", "clustered", "--radius", "inf"), "radius must be finite and >= 0, got inf"),
    (("verify", "lemma1", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("bench", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
], ids=["gen-uniform", "gen-cube-vertices", "gen-negative-radius", "gen-infinite-radius",
        "verify", "bench"])
def test_negative_seed_and_bad_radius_are_input_errors(tmp_path, capsys, args, message):
    """Exit 1 with one error line, no traceback and no output file."""
    out = tmp_path / "out.json"
    assert run_cli(*args, "-o", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


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
    monkeypatch.setattr(suites, "mst_sekanina_cycle", unreachable)


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
    ("bounds-sweep", "--k", "3", "--n", "9000..20000", "--trials", "3"),
], ids=["lemma5-trials-0", "bounds-sweep-trials-0", "lemma1-trials-negative",
        "lemma7-trials-0", "lemma5-k-0", "bounds-sweep-k-1", "bounds-sweep-n-1",
        "lemma1-tol-nan", "lemma1-tol-negative", "lemma5-tol-inf",
        "bounds-sweep-tol-negative", "bounds-sweep-n-oversize"])
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

    monkeypatch.setattr(cli, "mst_sekanina_cycle", boom)
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
    """Every algorithm's tour is costed and bounded once, by the CLI."""
    calls = count_cost_and_bound_calls(monkeypatch)
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "60", "--seed", "0", "-o", str(src))
    for algo in ("mst-sekanina", "greedy"):
        calls.update(power_cost=0, named_bounds=0)
        assert run_cli("tour", str(src), "--algo", algo, "--no-timestamp",
                       "-o", str(tmp_path / "out.json")) == 0
        assert calls == {"power_cost": 1, "named_bounds": 1}


def test_bench_costs_each_row_once(monkeypatch, capsys):
    """Every row costs its tour once and builds no bound report."""
    calls = count_cost_and_bound_calls(monkeypatch)
    assert run_cli("bench", "--k", "3", "--n", "20", "--algos", "mst-sekanina,greedy",
                   "--trials", "2", "--no-timestamp") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert calls == {"power_cost": 4, "named_bounds": 0}


def test_bench_builds_one_matrix_per_instance(monkeypatch, capsys):
    """The MST tour, the greedy and two-phase on one generated instance
    share its one d^2 matrix."""
    calls = []
    original = powertour.geometry.symmetric_sq

    def counted(coords):
        calls.append(len(coords))
        return original(coords)

    monkeypatch.setattr(powertour.geometry, "symmetric_sq", counted)
    assert run_cli("bench", "--k", "3", "--n", "10,30", "--algos",
                   "mst-sekanina,greedy,two-phase", "--trials", "2", "--no-timestamp") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3 * 2
    assert calls == [10, 10, 30, 30]


def strict_json(text):
    """``json.loads`` that refuses the non-JSON constants NaN and +-Infinity."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def cost_blocks(body):
    """Every cost block of a tour report, the phase report's included."""
    blocks = list(body["algorithms"].values())
    phase = body.get("phase_report", {})
    return blocks + [phase[key] for key in ("forest", "path_system", "final_path", "tour")
                     if key in phase]


@pytest.mark.parametrize("algo", ["mst-sekanina", "two-phase", "greedy", "oracle"])
def test_zero_cost_blocks_are_json(tmp_path, algo):
    """Five copies of one point cost 0: ln S_k is null, like an overflowed
    S_k, not -Infinity."""
    src = tmp_path / "same.json"
    src.write_text(json.dumps({"points": [[0.3, 0.4, 0.5]] * 5}))
    out = tmp_path / "tour.json"
    assert run_cli("tour", str(src), "--algo", algo, "--no-timestamp", "-o", str(out)) == 0
    blocks = cost_blocks(strict_json(out.read_text()))
    assert blocks and all(b["log_S_k"] is None and b["S_k"] == 0.0 for b in blocks)


def test_singleton_forest_cost_blocks_are_json(tmp_path):
    """Cube vertices lie at least 1 apart, so at the default cutoff 6^(-1/4)
    every forest tree is a singleton and phase 1 costs 0."""
    src = tmp_path / "cube.json"
    save_point_set(cube6_inputs()["distinct"], src)
    out = tmp_path / "tour.json"
    assert run_cli("tour", str(src), "--algo", "two-phase", "--no-timestamp",
                   "-o", str(out)) == 0
    phase = strict_json(out.read_text())["phase_report"]
    assert phase["forest"]["log_S_k"] is None and phase["path_system"]["log_S_k"] is None
    assert phase["tour"]["log_S_k"] > 0


def spread_points():
    """40 points in [0, 10]^3: too wide for any unit cube."""
    return np.random.default_rng(11).uniform(0.0, 10.0, size=(40, 3))


def write_points(path, coords):
    if path.suffix == ".json":
        path.write_text(json.dumps({"container": "unconstrained", "points": coords.tolist()}))
    else:
        path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                for row in coords))


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("algo", ["mst-sekanina", "two-phase"])
def test_rows_certified_only_for_points_that_fit_a_unit_cube(tmp_path, capsys, suffix, algo):
    """The guarantees are for a unit cube: a wider set reports its bound
    rows uncertified and exits 0; the same set scaled into [0, 1]^3 stays
    certified."""
    for scale, certified in ((1.0, False), (0.1, True)):
        src = tmp_path / f"spread-{scale}{suffix}"
        write_points(src, spread_points() * scale)
        out = tmp_path / "tour.json"
        assert run_cli("tour", str(src), "--algo", algo, "--no-timestamp",
                       "-o", str(out)) == 0
        rows = json.loads(out.read_text())["algorithms"][algo]["bounds"]
        assert any(r["certified"] for r in rows) == certified
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("order", [(0, 1), (2, 0, 1), tuple(range(9, -1, -1))])
def test_report_json_lays_out_the_tour_as_json_dumps_does(order):
    """The order and edge lists, written by joins, match ``json.dumps`` with
    indent 1 and sorted keys, around any body, odd source names included."""
    import powertour.cli as cli
    from powertour.structures import tour_from_order

    tour = tour_from_order(point_set(np.random.default_rng(3).uniform(size=(10, 2))), order)
    body = {"algorithms": {"greedy": {"s_k": 0.5, "S_k": None}}, "n": 10,
            "instance": {"source": 'we"ird\\nameé order edges \\u0000order'},
            "phase_report": {"tree_sizes": [1, 2], "forest": {"overflow": False}}}
    want = json.dumps({**body, "order": list(tour.order),
                       "edges": [[e.u, e.v] for e in tour.edges]}, indent=1, sort_keys=True)
    assert cli._report_json(body, tour) == want
