"""Inputs, operations and answer checks of the end-to-end benchmark.

Importing this module puts the checkout's ``src`` directory first on the
import path and imports pushfwd from there, so the benchmark always
measures the sources next to it and never an installed copy.

A workload is a sequence of rounds.  A round is a short, fixed list of
operations (ops); the timed loop runs whole rounds, so every run of a
workload executes the same mix of ops whatever its length.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "pushfwd" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no pushfwd sources at {SRC}")
sys.path.insert(0, str(SRC))

import pushfwd  # noqa: E402
from pushfwd import (  # noqa: E402
    AtiyahBundleSpec,
    ComposedMap,
    Divisor,
    HyperellipticCurve,
    InvalidSequence,
    direct_image_g1,
    h0,
    is_exceptional_class,
    pushforward,
    rr_space_dim,
    run_campaign,
    stable_form,
)
from pushfwd.campaigns import CAMPAIGNS  # noqa: E402
from pushfwd.expansions import poly_eval, poly_is_squarefree  # noqa: E402

if Path(pushfwd.__file__).resolve().parent != SRC / "pushfwd":
    raise SystemExit(f"benchmark: pushfwd imported from {pushfwd.__file__}, not {SRC}")

CAMPAIGN_NAMES = tuple(CAMPAIGNS)


# ---------------------------------------------------------------- checks

def check_pushforward(divisor: Divisor, cover: ComposedMap, image) -> list[str]:
    """Problems with an answered ``pushforward(divisor, cover)``; empty if none.

    Rank and degree follow from Riemann-Roch (the Euler characteristic is
    preserved), h0 must match the oracle's dim L(D), and where a closed
    form applies the answer must equal it.  Every dimension asked for here
    was already asked for by the pushforward itself, so the oracle's memo
    answers them.
    """
    curve = divisor.curve
    g, n, d = curve.genus, cover.degree, divisor.degree
    problems = []
    if image.rank != n:
        problems.append(f"rank {image.rank}, expected {n}")
    if image.degree != d + 1 - g - n:
        problems.append(f"degree {image.degree}, expected {d + 1 - g - n}")
    if h0(image) != rr_space_dim(divisor):
        problems.append(f"h0 {h0(image)}, expected dim L(D) = {rr_space_dim(divisor)}")
    if g == 1:
        flag = is_exceptional_class(divisor, cover) if d % n == 0 else None
        expected = direct_image_g1(n, AtiyahBundleSpec(1, d, flag))
        if image != expected:
            problems.append(f"{image} differs from the genus-1 closed form {expected}")
    elif n > 2 * g - 2:
        q = d // n
        h0q = rr_space_dim(divisor.shift_infinity(-n * q))
        h1q = h0q - (d - n * q + 1 - g)  # Riemann-Roch
        expected = stable_form(n, h0q, h1q, q)
        if image != expected:
            problems.append(f"{image} differs from the stable form {expected}")
    return problems


def check_campaign(report) -> list[str]:
    """Problems with a one-instance campaign report; empty if none.

    The campaign's own failures come first; every scan row that carries a
    splitting must also have rank n and degree d + 1 - g - n.
    """
    problems = [f"{report.campaign} seed {report.seed}: {f}" for f in report.failures]
    for row in report.rows:
        if not row["splitting"]:
            continue
        twists = [int(t) for t in row["splitting"].split()]
        n, d, g = row["n"], row["d"], row["g"]
        if len(twists) != n or sum(twists) != d + 1 - g - n:
            problems.append(f"{report.campaign} seed {report.seed}: row {row} breaks Riemann-Roch")
    return problems


class Tally:
    """Latencies and outcomes of the ops of one pass.

    ``tracer`` (optional) is paused while answers are checked, so traced
    layer time covers the ops only.
    """

    MAX_EXEMPLARS = 5

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.busy_by_label: dict[str, float] = {}
        self.count_by_label: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, label: str, op, check) -> None:
        """Time ``op()``, then check its answer with ``check``.  An op that
        raises or whose answer fails the check is a failed op."""
        start = time.perf_counter()
        try:
            answer = op()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            elapsed = time.perf_counter() - start
            problems = [f"{label}: {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            if self.tracer is None:
                problems = check(answer)
            else:
                with self.tracer.paused():
                    problems = check(answer)
        self.latencies.append(elapsed)
        self.busy_by_label[label] = self.busy_by_label.get(label, 0.0) + elapsed
        self.count_by_label[label] = self.count_by_label.get(label, 0) + 1
        if problems:
            self.failed += 1
            if len(self.failures) < self.MAX_EXEMPLARS:
                self.failures.append("; ".join(problems))


# ---------------------------------------------------------------- inputs

def random_curve(rng: random.Random, prime: int, genus: int) -> tuple[int, ...]:
    """Coefficients of a random monic squarefree f of degree 2g + 1."""
    while True:
        coeffs = [rng.randrange(prime) for _ in range(2 * genus + 1)] + [1]
        if poly_is_squarefree(coeffs, prime):
            return tuple(coeffs)


def random_point(rng: random.Random, prime: int, coeffs) -> tuple[int, int]:
    """A random affine point with y != 0; needs prime = 3 mod 4."""
    while True:
        x = rng.randrange(prime)
        rhs = poly_eval(coeffs, x, prime)
        if rhs and pow(rhs, (prime - 1) // 2, prime) == 1:
            y = pow(rhs, (prime + 1) // 4, prime)
            return x, (y if rng.random() < 0.5 else prime - y)


# ------------------------------------------------------------- workloads

class Campaigns:
    """All six seeded campaigns at primes 5-17, max genus 4, max m 4.

    One op is one campaign instance: ``run_campaign(name, s, 1, ...)``.
    A round runs one instance of each campaign; round r of seed S uses
    instance seed S * 1_000_003 + r for every campaign.
    """

    def __init__(self, seed: int):
        self.base = seed * 1_000_003

    def run_round(self, r: int, tally: Tally) -> None:
        for name in CAMPAIGN_NAMES:
            tally.run(name, lambda: run_campaign(name, self.base + r, 1, max_genus=4, max_m=4),
                      check_campaign)


class Deep:
    """A fresh random curve per op over F_10007, genus 10-40, with 5-10
    affine points of multiplicity up to +-10 and m in {1, 2}.

    The shape of each op (genus, multiplicities, m) comes from the fixed
    list SHAPES, one round per pass over it, so runs with different seeds
    do the same amount of work.  The seed draws the curves and the points
    of POOL_ROUNDS rounds; later rounds reuse them, each op building its
    curve afresh, so no op finds another's memo.
    """

    PRIME = 10007
    POOL_ROUNDS = 8
    SHAPES = tuple(
        (10 + 2 * i,
         tuple((1 + (3 * i + 7 * j) % 10) * (1 if (i + j) % 3 else -1)
               for j in range(5 + i % 6)),
         1 + i % 2)
        for i in range(16)
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(self.POOL_ROUNDS):
            ops = []
            for genus, mults, m in self.SHAPES:
                coeffs = random_curve(rng, self.PRIME, genus)
                points = {}
                while len(points) < len(mults):
                    x, y = random_point(rng, self.PRIME, coeffs)
                    if all(px != x for px, _ in points):
                        points[(x, y)] = mults[len(points)]
                ops.append((coeffs, tuple(points.items()), m))
            self.pool.append(ops)

    def run_round(self, r: int, tally: Tally) -> None:
        for coeffs, points, m in self.pool[r % len(self.pool)]:
            tally.run(f"g{(len(coeffs) - 2) // 2}", lambda: self.op(coeffs, points, m),
                      lambda answer: check_pushforward(*answer))

    def op(self, coeffs, points, m):
        curve = HyperellipticCurve(self.PRIME, coeffs)
        divisor = Divisor(curve, 0, {curve.point(x, y): e for (x, y), e in points})
        cover = ComposedMap(m)
        return divisor, cover, pushforward(divisor, cover)


class Sweep:
    """Scan traffic on one fixed genus-2 curve.

    A round is one scan session: a freshly constructed curve (so the
    oracle's per-curve memo starts empty) queried line by line in scan
    order over D = c*inf + k*P, c stepping by the cover degree n = 2m.
    Consecutive queries of a line share all but one of their window
    probes.  The seed draws the curve and the point P (y != 0).  The
    prime is large so that, whatever the seed, local series have few
    zero coefficients, which the series arithmetic would skip.
    """

    PRIME = 10007
    # (k, m, first c, step sign, queries).  Of the 250 queries of a
    # session, two first-of-line queries (k = 6 and k = 80) are far slower
    # than the rest, and the four later k = 80 queries come next; the 99th
    # percentile then falls among those four, 4 samples a session, not on
    # the edge between two kinds of query.
    LINES = (
        (0, 1, 1500, 1, 30),
        (6, 1, 400, 1, 30),
        (24, 2, 24, 1, 20),
        (80, 4, 40, 1, 5),
        (12, 1, -1200, -1, 80),
        (0, 3, -4000, -1, 85),
    )
    # Valid divisors c*inf that the window walk's step limit rejects in the
    # current oracle; counted by walk_limit_rejects, never timed ops.
    WALK_LIMIT_PROBES = (-30000, -25000, -22000)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.coeffs = random_curve(rng, self.PRIME, 2)
        self.point = random_point(rng, self.PRIME, self.coeffs)

    def run_round(self, r: int, tally: Tally) -> None:
        curve = HyperellipticCurve(self.PRIME, self.coeffs)
        point = curve.point(*self.point)
        for k, m, c0, sign, count in self.LINES:
            cover = ComposedMap(m)
            for i in range(count):
                c = c0 + sign * i * cover.degree
                tally.run(f"k{k}m{m}", lambda: self.op(curve, c, point, k, cover),
                          lambda answer: check_pushforward(*answer))

    @staticmethod
    def op(curve, c, point, k, cover):
        divisor = Divisor(curve, c, {point: k})
        return divisor, cover, pushforward(divisor, cover)

    def walk_limit_rejects(self) -> tuple[int, list[str]]:
        """How many WALK_LIMIT_PROBES are rejected, and the check problems
        of any that are answered."""
        rejects, problems = 0, []
        cover = ComposedMap(1)
        for c in self.WALK_LIMIT_PROBES:
            divisor = Divisor(HyperellipticCurve(self.PRIME, self.coeffs), c)
            try:
                image = pushforward(divisor, cover)
            except InvalidSequence:
                rejects += 1
            else:
                problems += check_pushforward(divisor, cover, image)
        return rejects, problems


WORKLOADS = {"campaigns": Campaigns, "deep": Deep, "sweep": Sweep}
