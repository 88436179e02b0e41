"""One workload in one fresh process; started by run.py.

Prints ``ready`` as soon as pushfwd is imported and the workload's inputs
are generated (run.py times set-up up to that line).  Without
``--setup-only`` it then runs the workload and prints one JSON object:
``attempted``, ``failed``, ``metrics`` (name -> value and unit) and
``detail`` (facts about the run that are not metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

# workloads goes first: it puts the checkout's src/ on the import path.
from workloads import CAMPAIGN_NAMES, WORKLOADS, Tally
from layers import Tracer  # noqa: E402

import numpy as np  # noqa: E402
import pushfwd  # noqa: E402
import pushfwd.linalg  # noqa: E402

# The tail latency is the highest of these percentiles that leaves at
# least ten samples beyond it.  p99.9 is left out: on this closed loop it
# mostly measures collector pauses and neighbours on a shared machine, and
# its run-to-run spread was wider than any useful regression bound.
TAIL_PERCENTILES = (99.0, 90.0)

# Rounds per second of each workload on the current code (2-core x86-64 VM,
# Python 3.11, numpy backend).  A traced run replays a fixed number of
# rounds, seconds / 2 of them at this rate, so its counts repeat exactly
# for a given seed and length.
NOMINAL_ROUNDS_PER_S = {"campaigns": 320.0, "deep": 1.5, "sweep": 0.43}

PER_LAYER_UNITS = {
    "linalg.elim.calls": "count",
    "linalg.elim.busy_s": "s",
    "linalg.elim.cells": "count",
    "linalg.elim.max_rows": "count",
    "expansions.point_series.calls": "count",
    "expansions.point_series.busy_s": "s",
    "expansions.series_mul.calls": "count",
    "expansions.series_mul.busy_s": "s",
    "hyperelliptic.rows.self_s": "s",
    "hyperelliptic.rr.calls": "count",
    "hyperelliptic.rr.busy_s": "s",
    "hyperelliptic.rr.repeat_share": "ratio",
    "hyperelliptic.divisor.built": "count",
    "hyperelliptic.divisor.busy_s": "s",
    "splitting.window.calls": "count",
    "splitting.window.probes": "count",
    "splitting.window.useful_ratio": "ratio",
    "splitting.window.self_s": "s",
    "splitting.window.walk_limit_rejects": "count",
    "closed_forms.busy_s": "s",
    **{f"campaigns.{c}.instances_per_s": "1/s" for c in CAMPAIGN_NAMES},
    "trace.overhead_share": "ratio",
}


def run_for(workload, tally: Tally, seconds: float) -> int:
    """Run whole rounds until ``seconds`` have passed; return how many."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        workload.run_round(r, tally)
        r += 1
    return r


def tail_latency(latencies: np.ndarray) -> tuple[float, float]:
    """(percentile, value) of the tail; the maximum if samples are few."""
    for pct in TAIL_PERCENTILES:
        if len(latencies) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(latencies, pct))
    return 100.0, float(latencies.max())


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": pushfwd.linalg.HAVE_NUMBA,
        "backend": pushfwd.active_backend(),
    }


def timed_run(workload, seconds: float) -> dict:
    tally = Tally()
    start = time.perf_counter()
    rounds = run_for(workload, tally, seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = np.array(tally.latencies)
    pct, tail = tail_latency(lat)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "ops_per_s": {"value": tally.attempted / float(lat.sum()), "unit": "1/s"},
            "latency_p50_ms": {"value": float(np.percentile(lat, 50)) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "detail": {
            "latency_tail_percentile": pct,
            "latency_samples": tally.attempted,
            "fail_share": tally.failed / tally.attempted,
            "failures": tally.failures,
            "rounds": rounds,
            "wall_s": wall,
        },
    }


def traced_run(name: str, workload, seconds: float) -> dict:
    """The same fixed rounds twice: untraced, then traced."""
    rounds = max(1, round(seconds / 2 * NOMINAL_ROUNDS_PER_S[name]))
    plain = Tally()
    for r in range(rounds):
        workload.run_round(r, plain)
    tracer = Tracer()
    traced = Tally(tracer)
    tracer.install()
    try:
        for r in range(rounds):
            workload.run_round(r, traced)
    finally:
        tracer.uninstall()

    values = tracer.metrics()
    for campaign in CAMPAIGN_NAMES:
        busy = plain.busy_by_label.get(campaign, 0.0)
        values[f"campaigns.{campaign}.instances_per_s"] = (
            plain.count_by_label[campaign] / busy if busy else 0.0)
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    failures = plain.failures + traced.failures
    rejects = 0
    if hasattr(workload, "walk_limit_rejects"):
        rejects, problems = workload.walk_limit_rejects()
        probes_answered = len(workload.WALK_LIMIT_PROBES) - rejects
        attempted += probes_answered
        failed += bool(problems)
        failures += problems
    values["splitting.window.walk_limit_rejects"] = rejects
    plain_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    values["trace.overhead_share"] = traced_s / plain_s - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                    for name, value in values.items()},
        "detail": {
            "rounds_per_pass": rounds,
            "untraced_op_s": plain_s,
            "traced_op_s": traced_s,
            "failures": failures,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(args.workload, workload, args.seconds)
    else:
        result = timed_run(workload, args.seconds)
    result["detail"]["machine"] = machine_facts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
