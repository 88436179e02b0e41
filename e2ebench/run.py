#!/usr/bin/env python3
"""End-to-end benchmark of pushfwd, one workload per invocation.

    python3 e2ebench/run.py --workload {campaigns,deep,sweep} --seed N \\
        --seconds S --trace {0,1}

Closed loop, one client, one thread: each op starts when the previous op
and the check of its answer are done.  The workload runs in a fresh
worker process (worker.py), so set-up includes the cold import and no
workload warms another's caches or inflates its memory.

--trace 0 reports the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_tail_ms, peak_rss_mb from the worker, and setup_s, the median of
SETUP_SAMPLES fresh-interpreter set-ups (the worker's own and those of
processes that stop after set-up).  --trace 1 reports the per-layer
metrics of a traced pass and the tracing overhead against an untraced
pass over the same rounds.  Every answer is checked; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaigns", "deep", "sweep")
SETUP_SAMPLES = 5
# Kills a worker that outlives this; a whole run must end within 180 s.
WORKER_DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless ``setup_only``,
    its result.  The worker is stopped and waited for in every case."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            raise WorkerFailed("worker stopped before its inputs were ready")
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise WorkerFailed(f"worker exited with code {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pushfwd" / "__init__.py").is_file():
        print(f"benchmark: no pushfwd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, True, deadline)[0])
        setup_s, result = run_worker(args, False, deadline)
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    metrics = result["metrics"]
    detail = result["detail"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_samples_s"] = setups
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
