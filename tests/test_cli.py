import json

import numpy as np
import pytest

import powertour.geometry
import powertour.mst
import powertour.oracle
from powertour.cli import main
from powertour.constructions import k3_code4, load_point_set, save_point_set, uniform_cube


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


def test_verify_bounds_sweep_with_ranges(capsys):
    assert run_cli("verify", "bounds-sweep", "--k", "3..4", "--n", "2..40",
                   "--trials", "5", "--no-timestamp") == 0
    body = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in body["rows"]] == [3, 4]
    assert body["failures"] == 0


def test_verify_range_flag_rejected_where_meaningless():
    assert run_cli("verify", "lemma7", "--k", "3..4") == 1


def test_certificate_failure_exit_code(tmp_path, monkeypatch):
    import powertour.cli as cli
    from powertour.errors import CertificateError

    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "10", "--seed", "0", "-o", str(src))

    def boom(*args, **kwargs):
        raise CertificateError("synthetic failure")

    monkeypatch.setattr(cli, "mst_sekanina_tour", boom)
    assert run_cli("tour", str(src), "--algo", "mst-sekanina") == 3


def test_tour_costs_and_bounds_once(tmp_path, monkeypatch):
    """mst-sekanina's own bound report is the one printed, not rebuilt."""
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
    src = tmp_path / "u.json"
    run_cli("gen", "uniform", "--k", "3", "--n", "60", "--seed", "0", "-o", str(src))
    for algo in ("mst-sekanina", "greedy"):
        calls.update(power_cost=0, named_bounds=0)
        assert run_cli("tour", str(src), "--algo", algo, "--no-timestamp",
                       "-o", str(tmp_path / "out.json")) == 0
        assert calls == {"power_cost": 1, "named_bounds": 1}
