"""Closed loop with one caller: set-up, timed passes, output gate, metrics.

A run sets the workload up ``SETUP_REPS`` times and reports the median, then
runs whole passes of its ops.  ``seconds`` sets how many: seconds divided by
the workload's nominal pass time, at least its ``min_passes``.  A fixed count,
not a deadline, keeps the sample count, and with it the tail percentile, the
same from run to run and from commit to commit; a faster commit finishes
sooner.  Each op is timed alone, after a garbage collection, so it is not
charged for the previous op's check; its own check runs after the clock
stops.  An op that raises or fails its check counts as failed and the run
goes on.

In a traced run each op runs twice in a row, untraced and traced, the first
of the two alternating from op to op, so the tracing overhead compares like
with like; it makes half as many passes, so it lasts about as long.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import powertour

from tracing import Tracer
from workloads import Op, Verdict

SETUP_REPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETUP_OP = -1

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import powertour; print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Sample:
    key: str
    latency_s: float
    traced: bool
    ok: bool
    cost_ratios: tuple[float, ...]
    problem: str


@dataclass
class Run:
    workload: str
    seed: int
    setup_s: list[float]
    samples: list[Sample]
    passes: int
    digest: str
    digest_outputs: int
    tracer: Tracer | None


def import_seconds() -> float:
    """Time ``import powertour`` in a fresh interpreter."""
    src = str(Path(powertour.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, src],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _set_up(workload, seed: int, tracer: Tracer | None) -> float:
    """One set-up: import, inputs from the seed, input files, one warm-up op."""
    seconds = import_seconds()
    with tracer.op_scope("setup", SETUP_OP) if tracer else nullcontext():
        start = time.perf_counter()
        workload.setup(seed)
        warm = workload.pass_ops(0)[0]
        try:
            warm.run()
        except Exception as ex:  # the timed passes count it; set-up goes on
            print(f"warm-up {warm.key} raised {ex!r}", file=sys.stderr)
        return seconds + time.perf_counter() - start


def _execute(op: Op, tracer: Tracer | None, op_id: int) -> tuple[Sample, bytes]:
    gc.collect()
    with tracer.op_scope("op", op_id) if tracer else nullcontext():
        start = time.perf_counter()
        try:
            result, error = op.run(), ""
        except Exception as ex:
            result, error = None, f"raised {ex!r}"
        latency = time.perf_counter() - start
    if error:
        verdict = Verdict(False, b"", problem=error)
    else:
        try:
            verdict = op.check(result)
        except Exception as ex:
            verdict = Verdict(False, b"", problem=f"check raised {ex!r}")
    sample = Sample(op.key, latency, tracer is not None, verdict.ok, verdict.cost_ratios,
                    verdict.problem)
    return sample, verdict.output


def run_workload(workload, seed: int, seconds: float, trace: bool) -> Run:
    tracer = Tracer() if trace else None
    setup_s = [_set_up(workload, seed, tracer) for _ in range(SETUP_REPS)]
    samples: list[Sample] = []
    digest = hashlib.sha256()
    digest_outputs = 0
    passes = max(workload.min_passes, round(seconds / workload.pass_seconds))
    if trace:
        passes = max(1, passes // 2)
    for index in range(passes):
        for i, op in enumerate(workload.pass_ops(index)):
            modes = (False,)
            if trace:
                modes = (True, False) if (index + i) % 2 else (False, True)
            for traced in modes:
                sample, output = _execute(op, tracer if traced else None, len(samples))
                samples.append(sample)
                if index == 0 and not traced:
                    digest.update(f"{op.key}\n{len(output)}\n".encode() + output)
                    digest_outputs += 1
    return Run(workload.name, seed, setup_s, samples, passes, digest.hexdigest(),
               digest_outputs, tracer)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  When that percentile would not lie above the
    median, which takes more than 2 * TAIL_BEYOND + 1 samples, the maximum
    at 100 instead."""
    xs = sorted(latencies)
    if len(xs) <= 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def _throughput(samples: list[Sample]) -> float:
    return sum(s.ok for s in samples) / sum(s.latency_s for s in samples)


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics, from the untraced ops."""
    timed = [s for s in run.samples if not s.traced]
    latencies = [s.latency_s for s in timed]
    ratios = [r for s in timed if s.ok for r in s.cost_ratios]
    failed = sum(not s.ok for s in run.samples)
    return {
        "setup_s": statistics.median(run.setup_s),
        "throughput_ops_s": _throughput(timed),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / len(run.samples),
        "cost_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
    }


def per_layer(run: Run) -> dict[str, float]:
    """The tracer's per-layer metrics plus the tracing overhead."""
    out = run.tracer.layer_metrics()
    traced = _throughput([s for s in run.samples if s.traced])
    untraced = _throughput([s for s in run.samples if not s.traced])
    out["tracing.throughput_ops_s"] = traced
    out["tracing.untraced_throughput_ops_s"] = untraced
    out["tracing.overhead_ratio"] = untraced / traced - 1.0 if traced else 0.0
    return out
