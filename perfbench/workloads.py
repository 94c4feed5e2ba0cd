"""The benchmark's three workloads: tour-large, verify-suites, oracle-exact.

A workload makes its inputs from the seed in ``setup`` and hands the harness
one pass of ops at a time.  ``pass_seconds`` is about what one pass takes on
a 2-core x86-64 sandbox; it turns ``--seconds`` into a pass count, which is
at least ``min_passes``.  An op is
a zero-argument call, which the harness times, and a check of its result,
which the harness runs outside the timed span.  File names are relative to the working directory, so the
``--no-timestamp`` outputs are byte-identical wherever the run happens.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import powertour.cli
import powertour.greedy
import powertour.oracle
import powertour.sekanina
import powertour.suites
from powertour import constructions, structures
from powertour.geometry import PointSet, cycle_upper_improved, power_cost

REL_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    output: bytes  # canonical bytes of the op's output, hashed into the digest
    cost_ratios: tuple[float, ...] = ()  # s_k / cycle_upper_improved(k) per result
    problem: str = ""


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]


def _generate(generator: str, k: int, n: int, seed: int) -> PointSet:
    if generator == "uniform_cube":
        return constructions.uniform_cube(k, n, seed)
    if generator == "clustered":
        return constructions.clustered(k, n, 8, 0.05, seed)
    return constructions.cube_vertex_subset(k, n, seed)


def _write_input(generator: str, k: int, n: int, seed: int) -> tuple[str, PointSet]:
    """Generate, write and read back one input; the check uses what was read."""
    path = f"{generator}-k{k}-n{n}.json"
    constructions.save_point_set(_generate(generator, k, n, seed), path)
    return path, constructions.load_point_set(path)


def _cost_problem(got: float, want: float, what: str) -> str:
    return "" if math.isclose(got, want, rel_tol=REL_TOL) else f"{what} {got} != {want}"


class TourLarge:
    """Each op is one in-process ``powertour tour`` at n = 2000.

    The dense pair build, the sort and the DSU/greedy scan do almost all the
    work.  The inputs give two-phase three shapes: one tree (uniform), a few
    trees joined by a few greedy steps (clustered), and n singletons with
    heavy distance ties (cube vertices), which sort all pairs twice.
    """

    name = "tour-large"
    pass_seconds = 15.0
    min_passes = 2
    inputs = (("uniform_cube", 3), ("clustered", 8), ("cube_vertex_subset", 12))
    algos = ("mst-sekanina", "two-phase", "greedy")
    certified = ("mst-sekanina", "two-phase")

    def __init__(self, n: int = 2000):
        self.n = n
        self.points: dict[str, PointSet] = {}

    def setup(self, seed: int) -> None:
        self.points = dict(_write_input(g, k, self.n, seed) for g, k in self.inputs)

    def pass_ops(self, index: int) -> list[Op]:
        return [self._op(path, algo) for path in self.points for algo in self.algos]

    def _op(self, path: str, algo: str) -> Op:
        out = f"tour-{algo}-{path}"
        argv = ["tour", path, "--algo", algo, "--no-timestamp", "-o", out]

        def check(code: int) -> Verdict:
            data = Path(out).read_bytes()
            if code != 0:
                return Verdict(False, data, problem=f"exit code {code}")
            body = json.loads(data)
            points = self.points[path]
            tour = structures.tour_from_order(points, body["order"])
            problems = structures.validate(tour, points)
            k = points.k
            s_k = power_cost(tour.edges, k).scaled
            problems.append(_cost_problem(s_k, body["algorithms"][algo]["s_k"], "s_k"))
            bound = cycle_upper_improved(k)
            if algo in self.certified and s_k > bound * (1 + REL_TOL):
                problems.append(f"s_k {s_k} above the certified bound {bound}")
            problem = "; ".join(p for p in problems if p)
            return Verdict(not problem, data, (s_k / bound,), problem)

        return Op(f"tour {algo} {path}", lambda: powertour.cli.main(argv), check)


class VerifySuites:
    """Each op is one in-process ``powertour verify`` (or one of the two
    sweeps the CLI does not register), at n <= 260.

    Edge objects, DSU, PathSystem and certificate re-checks dominate here,
    not the sort, so a change that wins on tour-large by adding per-call cost
    shows up as a loss.  Trial counts make each op last about 0.01-0.3 s;
    the suite seed advances each pass.
    """

    name = "verify-suites"
    pass_seconds = 1.5
    min_passes = 2
    suites = (("lemma1", 300), ("lemma5", 20000), ("lemma7", 1), ("lemma9", 400),
              ("bincode", 40), ("bounds-sweep", 2), ("tight-examples", 1))
    sweeps = (("newman_random_sweep", 60), ("sekanina_certificate_sweep", 40))

    def __init__(self, suites=None, sweeps=None):
        self.suites = suites or self.suites
        self.sweeps = sweeps or self.sweeps
        self.seed = 0

    def setup(self, seed: int) -> None:
        self.seed = seed
        plan = {"seed": seed, "suites": self.suites, "sweeps": self.sweeps}
        Path("plan.json").write_text(json.dumps(plan) + "\n")

    def pass_ops(self, index: int) -> list[Op]:
        seed = self.seed * 1000 + index
        return ([self._suite_op(name, trials, seed) for name, trials in self.suites]
                + [self._sweep_op(name, trials, seed) for name, trials in self.sweeps])

    def _suite_op(self, suite: str, trials: int, seed: int) -> Op:
        out = f"verify-{suite}.json"
        argv = ["verify", suite, "--trials", str(trials), "--seed", str(seed),
                "--no-timestamp", "-o", out]

        def check(code: int) -> Verdict:
            data = Path(out).read_bytes()
            body = json.loads(data)
            ratios = tuple(row[key] / row["bound"] for row in body.get("rows", ())
                           for key in ("max_s_mst", "max_s_two_phase"))
            if code != 0 or body["failures"] != 0:
                return Verdict(False, data, problem=f"exit code {code}, "
                               f"{body['failures']} failures (seed {seed})")
            return Verdict(True, data, ratios)

        return Op(f"verify {suite}", lambda: powertour.cli.main(argv), check)

    def _sweep_op(self, sweep: str, trials: int, seed: int) -> Op:
        def check(result: dict) -> Verdict:
            data = json.dumps(result, sort_keys=True).encode()
            if result["failures"] != 0:
                return Verdict(False, data, problem=f"{result['failures']} failures (seed {seed})")
            return Verdict(True, data)

        return Op(f"suites.{sweep}",
                  lambda: getattr(powertour.suites, sweep)(trials, seed=seed), check)


class OracleExact:
    """Each op is one direct call to an exact oracle.

    Enumeration is almost all the time and no large pair sort runs.  The
    cube-vertex input has distance ties, which test the "first optimum in
    lexicographic order" contract.
    """

    name = "oracle-exact"
    pass_seconds = 15.0
    # With 3 passes the tail percentile lands on the n = 11 tours and n = 10
    # paths, and the median on 18 light ops, not 12.
    min_passes = 3
    inputs = (("uniform_cube", 3), ("cube_vertex_subset", 4))
    calls = (("exact_min_tour", (10, 11)), ("exact_min_path", (9, 10)),
             ("exact_min_matching", (12, 14)))

    def __init__(self, calls=None):
        self.calls = calls or self.calls
        self.points: dict[str, PointSet] = {}
        self._reference: dict[tuple[str, str], float] = {}

    def setup(self, seed: int) -> None:
        sizes = sorted({n for _fn, ns in self.calls for n in ns})
        self.points = dict(_write_input(g, k, n, seed) for g, k in self.inputs for n in sizes)
        self._reference = {}

    def pass_ops(self, index: int) -> list[Op]:
        return [self._op(fn, f"{g}-k{k}-n{n}.json")
                for g, k in self.inputs for fn, ns in self.calls for n in ns]

    def _op(self, fn: str, path: str) -> Op:
        points = self.points[path]
        k = points.k

        def check(result) -> Verdict:
            structure, cost = result
            output = json.dumps({"edges": [[e.u, e.v] for e in structure.edges],
                                 "S_k": cost.unscaled}).encode()
            problems = structures.validate(structure, points)
            if fn == "exact_min_matching" and not structure.is_perfect(points.n):
                problems.append("matching is not perfect")
            problems.append(_cost_problem(power_cost(structure.edges, k).unscaled,
                                          cost.unscaled, "S_k"))
            reference = self._reference_cost(fn, path)
            if cost.unscaled > reference * (1 + REL_TOL):
                problems.append(f"S_k {cost.unscaled} above the heuristic's {reference}")
            problem = "; ".join(p for p in problems if p)
            return Verdict(not problem, output, (cost.scaled / cycle_upper_improved(k),),
                           problem)

        return Op(f"oracle {fn} {path}",
                  lambda: getattr(powertour.oracle, fn)(points, k), check)

    def _reference_cost(self, fn: str, path: str) -> float:
        """S_k of the heuristic the oracle must not lose to: the greedy path
        for paths, the MST tour for tours, and the cheaper alternating half
        of the MST tour for matchings."""
        key = (fn, path)
        if key not in self._reference:
            points = self.points[path]
            k = points.k
            if fn == "exact_min_path":
                edges = powertour.greedy.greedy_ham_path(points)[0].edges
            else:
                tour, _report = powertour.sekanina.mst_sekanina_tour(points, k)
                edges = tour.edges
                if fn == "exact_min_matching":
                    edges = structures.cycle_to_matchings(tour, k)[0].edges
            self._reference[key] = power_cost(edges, k).unscaled
        return self._reference[key]


WORKLOADS = {w.name: w for w in (TourLarge, VerifySuites, OracleExact)}
