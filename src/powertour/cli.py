"""Command-line harness.

Subcommands:
  gen     write a generated point set to a JSON/CSV file
  tour    run a tour algorithm on a point-set file, print the report JSON
  verify  run a named verification suite, print the summary JSON
  bench   sweep a (k, n, algo) grid, print CSV rows

Exit codes: 0 success, 1 usage/input error, 2 certified-bound violation,
3 internal certificate failure.  With --no-timestamp the JSON/CSV output
is byte-identical across runs of the same command and seed (timing fields
are suppressed together with the timestamp).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from datetime import datetime, timezone
from functools import cache

from . import constructions
from .errors import CertificateError, InputError
from .geometry import PointSet, check_dense_size, power_cost
from .greedy import greedy_ham_path
from .oracle import MAX_EXACT_TOUR, exact_min_tour
from .planar import newman_square_tour
from .sekanina import mst_sekanina_cycle
from .structures import Tour, close_path
from .suites import SUITES, run_suite
from .two_phase import two_phase_tour
from .verifiers import SCHEMA_VERSION, bound_report, check_trials

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_CERTIFICATE = 3

GENERATORS = {
    "uniform": lambda a: constructions.uniform_cube(a.k, a.n, a.seed),
    "cube-vertices": lambda a: constructions.cube_vertex_subset(a.k, a.n, a.seed),
    "clustered": lambda a: constructions.clustered(a.k, a.n, a.clusters, a.radius, a.seed),
    "diagonal-pair": lambda a: constructions.diagonal_pair(a.k),
    "k3-code4": lambda a: constructions.k3_code4(),
    "k4-even-weight": lambda a: constructions.k4_even_weight_code(),
    "even-weight": lambda a: constructions.even_weight_code(a.k),
    "square-corners": lambda a: constructions.square_tight_sets()[0],
    "square-corners-center": lambda a: constructions.square_tight_sets()[2],
}

ALGORITHMS = ("mst-sekanina", "greedy", "two-phase", "newman2d", "oracle")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_int_list(text: str) -> list[int]:
    """Accept '3..8' ranges and '3,5,7' lists (combinable by commas); a
    reversed range such as '5..3' is refused, not read as empty."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ends = part.split("..", 1)
        try:
            lo, hi = int(ends[0]), int(ends[-1])
        except ValueError:
            raise InputError(f"bad integer {part!r} in {text!r}") from None
        if lo > hi:
            raise InputError(f"empty range {part!r} in {text!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise InputError(f"empty integer list {text!r}")
    return out


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="powertour",
                     description="Power-cost tours, trees and matchings in the unit cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a point set file")
    g.add_argument("generator", choices=sorted(GENERATORS))
    g.add_argument("--k", type=int, default=3, help="dimension (default 3)")
    g.add_argument("--n", type=int, default=100, help="number of points (default 100)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--clusters", type=int, default=4)
    g.add_argument("--radius", type=float, default=0.05)
    g.add_argument("-o", "--output", required=True,
                   help="output path; .json or .csv by extension")

    t = sub.add_parser("tour", help="run a tour algorithm on a point-set file")
    t.add_argument("input", help="point-set file (JSON or CSV)")
    t.add_argument("--algo", choices=ALGORITHMS, required=True)
    t.add_argument("--k", type=int, default=None,
                   help="cost exponent (default: the dimension)")
    t.add_argument("--cutoff", type=float, default=None,
                   help="two-phase threshold (default k^(-1/4))")
    t.add_argument("--diagonal", choices=("main", "anti"), default="main")
    t.add_argument("--no-timestamp", action="store_true",
                   help="suppress timestamp and timing fields (deterministic output)")
    t.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--trials", type=int, default=None,
                   help="trial count (suite-specific default, typically 1000)")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--k", default=None,
                   help="dimensions for lemma5/bounds-sweep, e.g. 3..8 or 3,5")
    v.add_argument("--n", default=None,
                   help="instance-size range for bounds-sweep, e.g. 2..200")
    v.add_argument("--no-timestamp", action="store_true")
    v.add_argument("-o", "--output", default=None)

    b = sub.add_parser("bench", help="sweep a (k, n, algo) grid, emit CSV")
    b.add_argument("--k", default="3..5", help="dimensions, e.g. 3..8 or 3,5,7")
    b.add_argument("--n", default="10,100", help="instance sizes")
    b.add_argument("--algos", default="mst-sekanina,greedy,two-phase")
    b.add_argument("--trials", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--no-timestamp", action="store_true",
                   help="zero the time column for byte-identical output")
    b.add_argument("-o", "--output", default=None)
    return parser


def _run_algo(algo: str, points: PointSet, k: int, cutoff: float | None,
              diagonal: str) -> tuple[Tour, dict | None]:
    """The tour and, for two-phase, its phase report."""
    if algo == "mst-sekanina":
        return mst_sekanina_cycle(points), None
    if algo == "greedy":
        path, _trace = greedy_ham_path(points)
        return close_path(path, points), None
    if algo == "two-phase":
        tour, phase = two_phase_tour(points, k, cutoff=cutoff)
        return tour, phase.to_dict()
    if algo == "newman2d":
        if points.k != 2:
            raise InputError("newman2d requires 2-dimensional input")
        return newman_square_tour(points, diagonal=diagonal), None
    if algo == "oracle":
        tour, _cost = exact_min_tour(points, k)
        return tour, None
    raise InputError(f"unknown algorithm {algo!r}")


def _report_json(body: dict, tour: Tour) -> str:
    """``json.dumps`` of ``body`` plus the tour's ``order`` and ``edges``,
    indent 1 and keys sorted.  The two long lists are written straight from
    the tour's arrays, one join each, in the layout ``json.dumps`` gives
    them: the encoder that ``indent`` selects is pure Python, and took
    4.4 ms of a report at n = 2000 where the joins take under 1 ms (2-core
    x86-64, best of 30)."""
    rows = {"order": ",\n  ".join(map(str, tour.order)),
            "edges": ",\n  ".join(f"[\n   {u},\n   {v}\n  ]"
                                   for u, v in zip(tour.u.tolist(), tour.v.tolist()))}
    text = json.dumps({**body, **{key: f"\0{key}" for key in rows}}, indent=1, sort_keys=True)
    for key, items in rows.items():  # a tour has at least 2 points, so no list is empty
        text = text.replace(f'"\\u0000{key}"', f"[\n  {items}\n ]")
    return text


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    points = GENERATORS[args.generator](args)
    constructions.save_point_set(points, args.output)
    return EXIT_OK


def cmd_tour(args) -> int:
    points = constructions.load_point_set(args.input)
    k = args.k if args.k is not None else points.k
    if k < 2:
        raise InputError(f"exponent must be >= 2 for the bound report, got {k}")
    start = time.perf_counter()
    tour, phase = _run_algo(args.algo, points, k, args.cutoff, args.diagonal)
    elapsed = time.perf_counter() - start
    report = bound_report(points, k, {args.algo: power_cost(tour, k)},
                          instance={"source": args.input},
                          wall_time_s=None if args.no_timestamp else elapsed)
    body = report.to_dict()
    if phase is not None:
        if args.no_timestamp:
            phase.pop("elapsed_s", None)
        body["phase_report"] = phase
    if not args.no_timestamp:
        body["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(_report_json(body, tour) + "\n", args.output)
    if report.certified_failures():
        print("certified bound failed: " + ", ".join(report.certified_failures()),
              file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def cmd_verify(args) -> int:
    ks = None
    if args.k is not None:
        ks = sorted(set(_parse_int_list(args.k)))
    n_range = None
    if args.n is not None:
        vals = _parse_int_list(args.n)
        n_range = (min(vals), max(vals))
    result = run_suite(args.suite, trials=args.trials, seed=args.seed, tol=args.tol,
                       ks=ks, n_range=n_range)
    result["schema_version"] = SCHEMA_VERSION
    if args.no_timestamp:
        result.pop("elapsed_s", None)
    else:
        result["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit(json.dumps(result, indent=1, sort_keys=True) + "\n", args.output)
    return EXIT_OK if result["failures"] == 0 else EXIT_BOUND


def cmd_bench(args) -> int:
    ks = _parse_int_list(args.k)
    ns = _parse_int_list(args.n)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}")
    # check every row before computing any, so a bad grid writes no rows
    check_trials(args.trials)
    if min(ks) < 1:
        raise InputError(f"bench dimensions must be >= 1, got k = {min(ks)}")
    if min(ns) < 2:
        raise InputError(f"bench rows need at least 2 points, got n = {min(ns)}")
    for k, n, algo in itertools.product(ks, ns, algos):
        if algo == "mst-sekanina" and k < 2:
            raise InputError("mst-sekanina rows require k >= 2")
        if algo == "newman2d" and k != 2:
            raise InputError("newman2d rows require k = 2")
        if algo == "oracle" and n > MAX_EXACT_TOUR:
            raise InputError(f"oracle rows require n <= {MAX_EXACT_TOUR}")
        if algo in ("mst-sekanina", "greedy", "two-phase"):
            check_dense_size(n)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "algo", "S_k", "s_k", "time_s"])
    for k in ks:
        for n in ns:
            for trial in range(args.trials):
                points = constructions.uniform_cube(k, n, args.seed + trial)
                for algo in algos:
                    start = time.perf_counter()
                    tour, _phase = _run_algo(algo, points, k, None, "main")
                    elapsed = time.perf_counter() - start
                    cost = power_cost(tour, k).to_dict()
                    writer.writerow([
                        k, n, algo,
                        "" if cost["S_k"] is None else repr(cost["S_k"]),
                        repr(cost["s_k"]),
                        "0" if args.no_timestamp else f"{elapsed:.6f}",
                    ])
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "tour":
            return cmd_tour(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as ex:
        print(f"internal certificate failure: {ex}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except FileNotFoundError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
