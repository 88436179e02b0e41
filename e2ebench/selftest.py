#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute):

    python3 e2ebench/selftest.py

1. Wrong answers fed through the answer checker count as failed ops, and
   right answers do not.
2. A one-second run of every workload, untraced and traced, emits every
   metric BENCHMARK.json names, with its unit, and nothing else.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# workloads goes first: it puts the checkout's src/ on the import path.
from workloads import Tally, check_campaign, check_pushforward
from pushfwd import (  # noqa: E402
    ComposedMap,
    SplittingType,
    curve_from_string,
    divisor_from_string,
    pushforward,
)
from pushfwd.campaigns import CampaignReport  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def perturbed(image: SplittingType) -> SplittingType:
    """Same rank and degree, different splitting: move one unit of degree
    from the smallest summand to the largest."""
    twists = list(image.twists)
    twists[0] += 1
    twists[-1] -= 1
    return SplittingType(tuple(twists))


def check_checker() -> None:
    cases = [  # (curve, divisor, m, which check should catch the perturbation)
        ("p=5; f=0,1,0,0,0,1", "inf:7; pt:2,2:1", 2, "stable form"),
        ("p=7; f=1,1,0,1", "inf:3", 1, "genus-1 closed form"),
        ("p=5; f=0,1,0,0,0,1", "inf:1", 1, "h0"),
    ]
    for curve_text, divisor_text, m, catcher in cases:
        divisor = divisor_from_string(curve_from_string(curve_text), divisor_text)
        cover = ComposedMap(m)
        image = pushforward(divisor, cover)
        tally = Tally()
        tally.run("right", lambda: (divisor, cover, image), lambda a: check_pushforward(*a))
        expect(tally.failed == 0, f"right answer on {divisor_text}, m={m} passes")
        wrong = perturbed(image)
        tally.run("wrong", lambda: (divisor, cover, wrong), lambda a: check_pushforward(*a))
        expect(tally.failed == 1 and catcher in tally.failures[0],
               f"{wrong} on {divisor_text}, m={m} fails the {catcher} check")
        dropped = SplittingType(image.twists[:-1])
        tally.run("rank", lambda: (divisor, cover, dropped), lambda a: check_pushforward(*a))
        expect(tally.failed == 2, f"{dropped} on {divisor_text}, m={m} fails the rank check")

    tally = Tally()
    tally.run("raises", lambda: 1 // 0, lambda a: [])
    expect(tally.failed == 1 and tally.attempted == 1, "an op that raises is a failed op")
    report = CampaignReport("duality", 7, 1, 0, 1, 0.0,
                            failures=[{"index": 0, "expected": "a", "actual": "b"}])
    tally.run("campaign", lambda: report, check_campaign)
    expect(tally.failed == 2, "a campaign's own failure is a failed op")


def last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = last_json_line(proc.stdout)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                expect(False, f"{what} exits 0 with a result: {proc.stderr.strip()[-300:]}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} prints exactly correct, attempted, failed, metrics")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what} answers every op correctly")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what} emits the {key} metrics with their units")
            if got != wanted:
                print(f"     emitted {got}")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{what} values are finite numbers")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cmd = spec["command"] + ["--workload", "campaigns", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and last_json_line(proc.stdout) is None,
           "without the pushfwd sources the benchmark fails without a result")


def main() -> int:
    check_checker()
    check_metrics()
    check_fails_without_sources()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
