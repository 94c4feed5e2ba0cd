"""The golden-output corpus: a fixed list of ``powertour`` commands and their
pinned ``--no-timestamp`` stdout, stderr and exit codes.

``tests/golden/manifest.json`` holds each case's argv, exit code and stderr,
the SHA-256 of every input file, and the numpy, BLAS and libc versions the
corpus was written on; ``tests/golden/<case>.stdout`` holds its stdout.
``tests/test_golden.py`` rewrites the inputs, checks their digests, replays
every case and compares the bytes.  A change that is meant to move
output bytes regenerates the corpus and says why:

    PYTHONPATH=src python tests/golden.py

Every case runs in-process, in one temporary directory that ``write_inputs``
fills first, so the ``source`` paths in the reports are the bare file names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent / "golden"
MANIFEST = HERE / "manifest.json"

#: (file name, ``powertour gen`` arguments) for every generated input.
GENERATED = (
    ("u2.json", ["uniform", "--k", "2", "--n", "24", "--seed", "3"]),
    ("u2-small.json", ["uniform", "--k", "2", "--n", "8", "--seed", "7"]),
    ("u3.json", ["uniform", "--k", "3", "--n", "40", "--seed", "4"]),
    ("u3-small.json", ["uniform", "--k", "3", "--n", "9", "--seed", "8"]),
    ("cl8.json", ["clustered", "--k", "8", "--n", "60", "--clusters", "4",
                  "--radius", "0.05", "--seed", "5"]),
    ("cv6.json", ["cube-vertices", "--k", "6", "--n", "40", "--seed", "6"]),
    ("cv4-small.json", ["cube-vertices", "--k", "4", "--n", "9", "--seed", "2"]),
    ("u3-1001.json", ["uniform", "--k", "3", "--n", "1001", "--seed", "11"]),
    ("cl8-1001.json", ["clustered", "--k", "8", "--n", "1001", "--clusters", "8",
                       "--radius", "0.05", "--seed", "12"]),
    ("cv12-1001.json", ["cube-vertices", "--k", "12", "--n", "1001", "--seed", "13"]),
    # benchmark size: the greedy takes several rounds of the sorted prefix
    ("u3-2000.json", ["uniform", "--k", "3", "--n", "2000", "--seed", "14"]),
    ("cv12-2000.json", ["cube-vertices", "--k", "12", "--n", "2000", "--seed", "15"]),
    # near-coincident points, once a certificate failure
    ("near-coincident.json", ["clustered", "--k", "3", "--n", "200", "--radius", "0.0001",
                              "--seed", "1"]),
    ("code4.json", ["k3-code4"]),
    # the smallest instance of the lower bound: opposite corners of the cube
    ("diag3.json", ["diagonal-pair", "--k", "3"]),
    ("corners.csv", ["square-corners"]),
)

#: Hand-written inputs: exact duplicates, a grid full of ties, four points
#: two of which lie 1e-9 apart, and two coincident points.
WRITTEN = {
    "dups.json": [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.7, 0.2, 0.9], [0.5, 0.5, 0.5],
                  [0.7, 0.2, 0.9], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5], [0.1, 0.2, 0.3],
                  [1.0, 1.0, 1.0]],
    "grid.json": [[0.25 * i, 0.25 * j] for i in range(5) for j in range(5)],
    "four.json": [[0.5, 0.5, 0.5], [0.5 + 1e-9, 0.5, 0.5], [0.5, 0.5 + 2e-9, 0.5],
                  [0.9, 0.1, 0.3]],
    "pair-dup.json": [[0.3, 0.6, 0.2], [0.3, 0.6, 0.2]],
}

ALGOS = ("mst-sekanina", "greedy", "two-phase")


def _tour(path: str, algo: str, *extra: str) -> list[str]:
    return ["tour", path, "--algo", algo, *extra, "--no-timestamp"]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for path in ("u2.json", "u3.json", "cl8.json", "cv6.json", "dups.json", "grid.json",
                 "u3-1001.json", "cl8-1001.json", "cv12-1001.json", "near-coincident.json",
                 "four.json", "code4.json"):
        for algo in ALGOS:
            cases[f"tour-{algo}-{path}"] = _tour(path, algo)
    for path in ("u2.json", "grid.json", "corners.csv"):
        cases[f"tour-newman2d-{path}"] = _tour(path, "newman2d")
    cases["tour-newman2d-anti-u2.json"] = _tour("u2.json", "newman2d", "--diagonal", "anti")
    cases["tour-newman2d-u3.json"] = _tour("u3.json", "newman2d")  # refused: not planar
    for path in ("u2-small.json", "u3-small.json", "cv4-small.json", "dups.json",
                 "four.json", "corners.csv"):
        cases[f"tour-oracle-{path}"] = _tour(path, "oracle")
    cases["tour-two-phase-cutoff-u3.json"] = _tour("u3.json", "two-phase", "--cutoff", "0.3")
    for path in ("u3-2000.json", "cv12-2000.json"):
        cases[f"tour-greedy-{path}"] = _tour(path, "greedy")
    # a warm start with many path ends
    cases["tour-two-phase-cutoff-u3-2000.json"] = _tour("u3-2000.json", "two-phase",
                                                        "--cutoff", "0.05")
    cases["tour-two-phase-cutoff0-dups.json"] = _tour("dups.json", "two-phase",
                                                      "--cutoff", "0")
    cases["tour-mst-sekanina-k5-u3.json"] = _tour("u3.json", "mst-sekanina", "--k", "5")
    cases["tour-two-phase-k2-cv6.json"] = _tour("cv6.json", "two-phase", "--k", "2")
    # two points: the doubled edge through every pipeline
    for path in ("diag3.json", "pair-dup.json"):
        for algo in (*ALGOS, "oracle"):
            cases[f"tour-{algo}-{path}"] = _tour(path, algo)
    # one 2-vertex forest tree
    cases["tour-two-phase-cutoff2-diag3.json"] = _tour("diag3.json", "two-phase",
                                                       "--cutoff", "2")
    cases["tour-missing-file"] = _tour("missing.json", "greedy")
    suites = {"lemma1": "20", "lemma5": "200", "lemma7": "2", "lemma9": "50",
              "bincode": "10", "bounds-sweep": "2", "tight-examples": "1"}
    for suite, trials in suites.items():
        cases[f"verify-{suite}"] = ["verify", suite, "--trials", trials, "--seed", "3",
                                    "--no-timestamp"]
    cases["verify-bounds-sweep-grid"] = ["verify", "bounds-sweep", "--trials", "1",
                                         "--k", "3..5", "--n", "2..60", "--no-timestamp"]
    cases["bench-default-algos"] = ["bench", "--k", "3,4", "--n", "8,40", "--trials", "2",
                                    "--seed", "1", "--no-timestamp"]
    cases["bench-planar-oracle"] = ["bench", "--k", "2", "--n", "6,9",
                                    "--algos", "newman2d,oracle,mst-sekanina",
                                    "--no-timestamp"]
    cases["bench-bad-grid"] = ["bench", "--k", "3", "--n", "1", "--no-timestamp"]
    return cases


CASES = _cases()


def environment() -> dict:
    """The versions the bytes may depend on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "libc": " ".join(platform.libc_ver())}


@contextlib.contextmanager
def inside(directory):
    """Run the body in ``directory`` (``contextlib.chdir`` before 3.11)."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def write_inputs(directory: Path) -> None:
    """Write every input file into ``directory`` with the CLI's own ``gen``."""
    from powertour import cli

    for name, args in WRITTEN.items():
        (directory / name).write_text(json.dumps({"k": len(args[0]), "points": args}) + "\n")
    with inside(directory):
        for name, args in GENERATED:
            code = cli.main(["gen", *args, "-o", name])
            if code != 0:
                raise RuntimeError(f"gen {name} exited {code}")


def input_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every input file in ``directory``, by name."""
    names = [*WRITTEN, *(name for name, _args in GENERATED)]
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``powertour`` run in
    the current directory."""
    from powertour import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def regenerate() -> None:
    """Rewrite the manifest and every stdout file from the current code."""
    for old in HERE.glob("*.stdout"):
        old.unlink()
    manifest = {"environment": environment(), "inputs": {}, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        manifest["inputs"] = input_digests(Path(tmp))
        with inside(tmp):
            for name, argv in CASES.items():
                code, out, err = run_case(argv)
                (HERE / f"{name}.stdout").write_text(out)
                manifest["cases"][name] = {"argv": argv, "exit": code, "stderr": err}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    HERE.mkdir(exist_ok=True)
    regenerate()
    print(f"wrote {len(CASES)} cases to {HERE}", file=sys.stderr)
