import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import harness
import powertour.geometry
import powertour.greedy
import powertour.mst
import powertour.suites
import workloads
from workloads import Op, Verdict

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tour-large": lambda: workloads.TourLarge(n=12),
    "verify-suites": lambda: workloads.VerifySuites(
        suites=tuple((name, 1) for name, _ in workloads.VerifySuites.suites),
        sweeps=tuple((name, 1) for name, _ in workloads.VerifySuites.sweeps)),
    "oracle-exact": lambda: workloads.OracleExact(
        calls=(("exact_min_tour", (5,)), ("exact_min_path", (4,)),
               ("exact_min_matching", (4,)))),
}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_reports_every_named_metric(name):
    run = harness.run_workload(TINY[name](), seed=3, seconds=0, trace=False)
    assert all(s.ok for s in run.samples), [s.problem for s in run.samples if not s.ok]
    values = harness.end_to_end(run)
    for metric in SPEC["end_to_end"]:
        assert values[metric["name"]] > 0, metric["name"]
    assert values["error_rate"] == 0

    traced = harness.run_workload(TINY[name](), seed=3, seconds=0, trace=True)
    values = harness.per_layer(traced)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert values["cli.main.calls" if name != "oracle-exact" else "oracle.exact_min_tour.calls"] > 0


class _Flaky:
    name = "flaky"
    pass_seconds = 1.0
    min_passes = 2

    def setup(self, seed):
        pass

    def pass_ops(self, index):
        def boom():
            raise RuntimeError("boom")

        return [Op("ok", lambda: 1, lambda r: Verdict(True, b"1", (0.5,))),
                Op("raises", boom, lambda r: Verdict(True, b"")),
                Op("bad output", lambda: 2, lambda r: Verdict(False, b"2", problem="wrong"))]


def test_raising_op_counts_in_error_rate_and_run_goes_on():
    run = harness.run_workload(_Flaky(), seed=0, seconds=0, trace=False)
    assert run.passes == 2
    assert len(run.samples) == 6
    assert [s.ok for s in run.samples[:3]] == [True, False, False]
    assert "boom" in run.samples[1].problem
    values = harness.end_to_end(run)
    assert values["error_rate"] == pytest.approx(2 / 3)
    assert values["cost_ratio_mean"] == 0.5


def test_self_times_sum_to_root_duration():
    run = harness.run_workload(TINY["tour-large"](), seed=1, seconds=0, trace=True)
    tracer = run.tracer
    self_s = tracer.self_times()
    per_op = defaultdict(float)
    roots = {}
    for i, op in enumerate(tracer.op):
        per_op[op] += self_s[i]
        if tracer.parent[i] == -1:
            roots[op] = tracer.end[i] - tracer.start[i]
    assert len(roots) == 1 + len(run.samples) // 2  # set-up plus each traced op
    for op, duration in roots.items():
        assert per_op[op] == pytest.approx(duration, rel=1e-9, abs=1e-12)
    assert all(s >= -1e-9 for s in self_s)


def test_wrappers_cover_every_binding_and_are_removed():
    from tracing import Tracer

    original = powertour.geometry.pairwise_sq
    suite = powertour.suites.SUITES["lemma7"]
    tracer = Tracer()
    with tracer.op_scope("op", 0):
        assert powertour.mst.pairwise_sq is not original
        assert powertour.greedy.pairwise_sq is powertour.mst.pairwise_sq
        assert powertour.suites.SUITES["lemma7"] is powertour.suites.suite_lemma7
        assert powertour.suites.suite_lemma7 is not suite
        powertour.mst.pairwise_sq(powertour.constructions.uniform_cube(2, 5, 0).coords)
    assert powertour.mst.pairwise_sq is original
    assert powertour.greedy.pairwise_sq is original
    assert powertour.suites.SUITES["lemma7"] is suite
    metrics = tracer.layer_metrics()
    assert metrics["geometry.pairwise_sq.calls"] == 1
    assert metrics["geometry.pairwise_sq.bytes_computed"] == 8 * 5 * 5
    assert metrics["constructions.uniform_cube.calls"] == 1


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert harness.tail(xs) == (90.0, 90.0)
    assert harness.tail(xs[:5]) == (5.0, 100.0)
    # too few samples for a percentile above the median with ten beyond it
    assert harness.tail(xs[:18]) == (18.0, 100.0)
    assert harness.tail(xs[:21]) == (21.0, 100.0)
    assert harness.tail(xs[:36]) == (26.0, pytest.approx(100 * 26 / 36))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-exact",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
