"""Seeded verification campaigns cross-checking formulas against the oracle.

Each campaign draws reproducible random instances and checks one family of
identities; a report carries pass/fail counts, failure exemplars with both
computed values, and per-instance scan rows for CSV emission.

The campaigns check closed forms against splittings extracted from
computed h0 windows, not against ``pushforward``, which reads them off the
reduced basis.  A failing oracle instance's exemplar also holds each such
window, the read-out splitting of the same input, and the pole cap and
pole orders that both are read from.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import SingularCurve
from .genus0 import direct_image_g0, direct_image_g0_bundle, g0_oracle_sequence
from .genus1 import AtiyahBundleSpec, direct_image_g1
from .hyperelliptic import (
    ComposedMap,
    Divisor,
    HyperellipticCurve,
    _pole_orders,
    canonical_divisor,
    divisor_to_string,
    h0_sequence,
    is_exceptional_class,
    pushforward,
    rr_space_dim,
)
from .splitting import (
    MAX_LISTED_SUMMANDS,
    _integer,
    serre_dual,
    splitting_from_h0_sequence,
    splitting_text,
    spread,
    twist,
)
from .stabilization import CurveMapContext, spread_bound, stable_form, verify_duality

CAMPAIGN_PRIMES = (5, 7, 11, 13, 17)

SCAN_COLUMNS = (
    "p", "g", "curve", "divisor", "m", "n", "d",
    "splitting", "spread", "bound", "within_bound",
)


@dataclass
class CampaignReport:
    """Outcome of one campaign run; reproducible from (campaign, seed, trials)."""

    campaign: str
    seed: int
    trials: int
    passed: int
    failed: int
    wall_time_s: float
    failures: list[dict] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    def payload(self) -> dict:
        """JSON-ready summary (scan rows are emitted separately as CSV)."""
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "failed": self.failed,
            "wall_time_s": round(self.wall_time_s, 6),
            "failures": self.failures,
        }


def sample_curve(rng: random.Random, genus: int, prime: int | None = None) -> HyperellipticCurve:
    """A random curve of the given genus: monic coefficients, rejection
    until squarefree."""
    p = prime if prime is not None else rng.choice(CAMPAIGN_PRIMES)
    while True:
        coeffs = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
        try:
            return HyperellipticCurve(p, coeffs)
        except SingularCurve:
            continue


def sample_divisor(rng: random.Random, curve: HyperellipticCurve) -> Divisor:
    """Coefficient at infinity uniform in [-(2g+2), 2g+2], plus up to three
    affine points with multiplicities in [-2, 2].  The curve listed the
    points, so they are stamped with it and not checked again."""
    g = curve.genus
    at_inf = rng.randint(-(2 * g + 2), 2 * g + 2)
    coords = curve.affine_coordinates()
    count = rng.randint(0, min(3, len(coords)))
    chosen = rng.sample(coords, count)
    affine = {curve._stamped(x, y): rng.choice((-2, -1, 1, 2)) for x, y in chosen}
    return Divisor(curve, at_inf, affine)


def _scan_row(*, p="", g="", curve="", divisor="", m="", n="", d="",
              splitting=None, bound=None) -> dict:
    row = dict.fromkeys(SCAN_COLUMNS, "")
    row.update(p=p, g=g, curve=curve, divisor=divisor, m=m, n=n, d=d)
    if splitting is not None:
        row["splitting"] = splitting_text(splitting)
        row["spread"] = spread(splitting)
        if bound is not None:
            row["bound"] = str(bound.bound)
            row["within_bound"] = spread(splitting) <= bound.floor()
    return row


def _oracle_row(curve, divisor, cover, image, bound=None) -> dict:
    return _scan_row(
        p=curve.prime, g=curve.genus, curve=curve.to_string(),
        divisor=divisor_to_string(divisor), m=cover.exponent,
        n=cover.degree, d=divisor.degree, splitting=image, bound=bound,
    )


def _extracted(divisor, cover):
    """The direct image extracted from the computed h0 window."""
    return splitting_from_h0_sequence(h0_sequence(divisor, cover))


def _window_record(divisor, cover) -> dict:
    """The extracted h0 window of one oracle input, the splitting
    ``pushforward`` reads off the reduced basis for it, and the pole cap
    and the two pole orders of that basis, from which both follow."""
    seq = h0_sequence(divisor, cover)
    cap, orders = _pole_orders(divisor)
    return {"divisor": divisor_to_string(divisor), "m": cover.exponent,
            "lo": seq.lo, "values": list(seq.values),
            "read_out": splitting_text(pushforward(divisor, cover)),
            "cap": cap, "orders": list(orders)}


def _genus0_instance(rng, max_genus, max_m):
    n = rng.randint(1, 8)
    m = rng.randint(-20, 20)
    closed = direct_image_g0(n, m)
    extracted = splitting_from_h0_sequence(g0_oracle_sequence(n, m))
    ok = (
        extracted == closed
        and serre_dual(closed) == direct_image_g0(n, -2 - m)
        and direct_image_g0(n, m + n) == twist(closed, 1)
    )
    inputs = {"n": n, "m": m}
    row = _scan_row(g=0, n=n, d=m, splitting=closed)
    return ok, inputs, splitting_text(closed), splitting_text(extracted), row, ()


def _genus1_instance(rng, max_genus, max_m):
    curve = sample_curve(rng, 1)
    divisor = sample_divisor(rng, curve)
    cover = ComposedMap(rng.randint(1, max_m))
    n = cover.degree
    flag = is_exceptional_class(divisor, cover) if divisor.degree % n == 0 else None
    expected = direct_image_g1(n, AtiyahBundleSpec(1, divisor.degree, flag))
    actual = _extracted(divisor, cover)
    inputs = {
        "curve": curve.to_string(), "divisor": divisor_to_string(divisor),
        "m": cover.exponent, "exceptional": flag,
    }
    row = _oracle_row(curve, divisor, cover, actual)
    return (actual == expected, inputs, splitting_text(expected), splitting_text(actual), row,
            ((divisor, cover),))


def _duality_instance(rng, max_genus, max_m):
    curve = sample_curve(rng, rng.randint(1, max_genus))
    divisor = sample_divisor(rng, curve)
    cover = ComposedMap(rng.randint(1, max_m))
    dual = canonical_divisor(curve) - divisor
    push = _extracted(divisor, cover)
    push_dual = _extracted(dual, cover)
    ok = verify_duality(push, push_dual)
    inputs = {"curve": curve.to_string(), "divisor": divisor_to_string(divisor),
              "m": cover.exponent}
    row = _oracle_row(curve, divisor, cover, push)
    return (ok, inputs, splitting_text(serre_dual(push)), splitting_text(push_dual), row,
            ((divisor, cover), (dual, cover)))


def _stabilization_instance(rng, max_genus, max_m):
    g = rng.randint(2, max_genus)
    curve = sample_curve(rng, g)
    divisor = sample_divisor(rng, curve)
    cover = ComposedMap(rng.randint(1, max_m))
    n = cover.degree
    push = _extracted(divisor, cover)
    bound = spread_bound(CurveMapContext(g, n, 1, divisor.degree), "any")
    ok = spread(push) <= bound.floor()
    expected = f"spread <= {bound.floor()}"
    actual = f"spread = {spread(push)}"
    if n > 2 * g - 2:
        q = divisor.degree // n
        shifted = divisor.shift_infinity(-n * q)
        h0q = rr_space_dim(shifted)
        h1q = rr_space_dim(canonical_divisor(curve) - shifted)
        stable = stable_form(n, h0q, h1q, q)
        ok = ok and push == stable
        expected += f"; stable form {splitting_text(stable)}"
        actual += f"; image {splitting_text(push)}"
    inputs = {"curve": curve.to_string(), "divisor": divisor_to_string(divisor),
              "m": cover.exponent}
    row = _oracle_row(curve, divisor, cover, push, bound)
    return ok, inputs, expected, actual, row, ((divisor, cover),)


def _composition_instance(rng, max_genus, max_m):
    curve = sample_curve(rng, rng.randint(1, max_genus))
    divisor = sample_divisor(rng, curve)
    exponent = rng.randint(2, max_m)
    cover, double = ComposedMap(exponent), ComposedMap(1)
    one_shot = _extracted(divisor, cover)
    staged = direct_image_g0_bundle(exponent, _extracted(divisor, double))
    inputs = {"curve": curve.to_string(), "divisor": divisor_to_string(divisor),
              "m": exponent}
    row = _oracle_row(curve, divisor, cover, one_shot)
    return (one_shot == staged, inputs, splitting_text(staged), splitting_text(one_shot), row,
            ((divisor, cover), (divisor, double)))


def _riemann_roch_instance(rng, max_genus, max_m):
    curve = sample_curve(rng, rng.randint(1, max_genus))
    divisor = sample_divisor(rng, curve)
    lhs = rr_space_dim(divisor) - rr_space_dim(canonical_divisor(curve) - divisor)
    rhs = divisor.degree + 1 - curve.genus
    inputs = {"curve": curve.to_string(), "divisor": divisor_to_string(divisor)}
    row = _scan_row(p=curve.prime, g=curve.genus, curve=curve.to_string(),
                    divisor=divisor_to_string(divisor), d=divisor.degree)
    return lhs == rhs, inputs, str(rhs), str(lhs), row, ()


CAMPAIGNS = {
    "genus0": _genus0_instance,
    "genus1": _genus1_instance,
    "duality": _duality_instance,
    "stabilization": _stabilization_instance,
    "composition": _composition_instance,
    "riemann-roch": _riemann_roch_instance,
}

MAX_FAILURE_EXEMPLARS = 25


def run_campaign(name: str, seed: int, trials: int,
                 max_genus: int = 3, max_m: int = 3) -> CampaignReport:
    """Run ``trials`` seeded instances of the named campaign."""
    try:
        instance = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; choose from {', '.join(sorted(CAMPAIGNS))}"
        ) from None
    trials, max_genus, max_m = (_integer(trials, "trials"), _integer(max_genus, "max_genus"),
                                _integer(max_m, "max_m"))
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if max_genus < 1:
        raise ValueError(f"max_genus must be at least 1, got {max_genus}")
    if max_m < 1:
        raise ValueError(f"max_m must be at least 1, got {max_m}")
    if 2 * max_m > MAX_LISTED_SUMMANDS:
        raise ValueError(f"max_m must be at most {MAX_LISTED_SUMMANDS // 2}, got {max_m}: "
                         "a scan row lists every summand of a degree-2m image")
    if name == "stabilization" and max_genus < 2:
        raise ValueError(f"campaign stabilization samples genus 2 and up: "
                         f"max_genus must be at least 2, got {max_genus}")
    if name == "composition" and max_m < 2:
        raise ValueError(f"campaign composition samples m 2 and up: "
                         f"max_m must be at least 2, got {max_m}")
    rng = random.Random(seed)
    start = time.perf_counter()
    passed = failed = 0
    failures: list[dict] = []
    rows: list[dict] = []
    for index in range(trials):
        ok, inputs, expected, actual, row, windows = instance(rng, max_genus, max_m)
        rows.append(row)
        if ok:
            passed += 1
        else:
            failed += 1
            if len(failures) < MAX_FAILURE_EXEMPLARS:
                failure = {"index": index, "inputs": inputs,
                           "expected": expected, "actual": actual}
                if windows:
                    failure["windows"] = [_window_record(d, c) for d, c in windows]
                failures.append(failure)
    wall = time.perf_counter() - start
    return CampaignReport(name, seed, trials, passed, failed, wall, failures, rows)
