"""powertour benchmark: closed-loop workloads with one caller.

    python3 perfbench/run.py --workload tour-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

A run prints a readable report and, as its last line, one JSON object with
the metrics BENCHMARK.json names: the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  The program under test is imported from
``src/`` next to this directory and nowhere else.  Outputs, ``result.json``
and (traced) ``spans.npz`` go to ``perfbench/out/<workload>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# Pinned before numpy is imported: one caller, one BLAS thread.
PINNED = {"POWERTOUR_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tour-large", "verify-suites", "oracle-exact")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="run length; sets the pass count through each workload's "
                        "nominal pass time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_powertour():
    """Import the package from SRC; exit 2 when it is not there."""
    if not (SRC / "powertour" / "__init__.py").is_file():
        sys.exit(f"error: no powertour sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import powertour

    if Path(powertour.__file__).resolve().parent != SRC / "powertour":
        sys.exit(f"error: imported powertour from {powertour.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": {k: os.environ[k] for k in PINNED},
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def report(run, values: dict, declared: list[dict], trace: bool) -> None:
    import harness

    failed = [s for s in run.samples if not s.ok]
    print(f"{run.workload}  seed {run.seed}  passes {run.passes}  ops {len(run.samples)}"
          f"  failed {len(failed)}")
    rows = [(m["name"], m["unit"]) for m in declared]
    if trace:
        notes = {}
    else:
        timed = [s for s in run.samples if not s.traced]
        n = len(timed)
        _value, pct = harness.tail([s.latency_s for s in timed])
        ratios = sum(len(s.cost_ratios) for s in timed if s.ok)
        notes = {
            "setup_s": f"median of {len(run.setup_s)} set-ups",
            "throughput_ops_s": f"{n - len(failed)} passed ops in "
                                f"{sum(s.latency_s for s in timed):.3f} s of op time",
            "latency_p50_s": f"n={n}",
            "latency_tail_s": f"p{pct:.1f}, n={n}",
            "peak_rss_mb": "ru_maxrss of this process",
            "cost_ratio_mean": f"mean s_k/cycle_upper_improved(k) of {ratios} results",
            "error_rate": f"{len(failed)} of {n} ops failed",
        }
        rows.append(("error_rate", "ratio"))
    for name, unit in rows:
        print(f"  {name:44s} {values[name]:<22.10g} {unit:8s} {notes.get(name, '')}")
    print(f"  digest sha256:{run.digest}  ({run.digest_outputs} outputs of the first pass)")
    for s in failed[:5]:
        print(f"  FAILED {s.key}: {s.problem}")


def run_one(args, spec: dict) -> int:
    import_powertour()
    import harness
    import workloads

    workdir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    trace = bool(args.trace)
    run = harness.run_workload(workloads.WORKLOADS[args.workload](), args.seed,
                               args.seconds, trace)
    if trace:
        values, declared = harness.per_layer(run), spec["per_layer"]
        run.tracer.write("spans.npz")
    else:
        values, declared = harness.end_to_end(run), spec["end_to_end"]
    env = environment(args)
    report(run, values, declared, trace)
    print(f"  env {json.dumps(env, sort_keys=True)}")
    failed = sum(not s.ok for s in run.samples)
    result = {"correct": failed == 0, "attempted": len(run.samples), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {"workload": run.workload, "env": env, "passes": run.passes,
              "setup_s": run.setup_s, "digest": run.digest, "metrics": values,
              "samples": [[s.key, s.latency_s, s.traced, s.ok, s.problem]
                          for s in run.samples]}
    Path("result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
