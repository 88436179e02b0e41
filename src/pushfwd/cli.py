"""Command-line interface: single computations, verification campaigns,
and machine-readable emission (text, JSON, CSV).

Exit status: 0 on success, 1 when a verification campaign reports
failures, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import floor

from .campaigns import SCAN_COLUMNS, _oracle_row, run_campaign
from .errors import PushforwardError
from .genus0 import direct_image_g0
from .genus1 import AtiyahBundleSpec, direct_image_g1
from .hyperelliptic import (
    ComposedMap,
    curve_from_string,
    divisor_from_string,
    divisor_to_string,
    pushforward,
)
from .splitting import (
    CohSequence,
    SplittingType,
    h0,
    h0_sequence_of,
    h1,
    splitting_from_h0_sequence,
    splitting_text,
    spread,
)
from .stabilization import CurveMapContext, spread_bound


def splitting_payload(bundle: SplittingType) -> dict:
    return {
        "splitting": [{"twist": t, "mult": m} for t, m in bundle.pairs()],
        "rank": bundle.rank,
        "degree": bundle.degree,
        "h0": h0(bundle),
        "h1": h1(bundle),
        "spread": spread(bundle),
    }


def _splitting_lines(bundle: SplittingType) -> list[str]:
    payload = splitting_payload(bundle)
    lines = ["splitting: " + splitting_text(bundle)]
    lines += [f"{key}: {payload[key]}" for key in ("rank", "degree", "h0", "h1", "spread")]
    return lines


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, args) -> None:
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # malformed input, not a failed campaign
            reason = exc.strerror or exc
            raise ValueError(f"cannot write --out {args.out!r}: {reason}") from None
    else:
        sys.stdout.write(text)


def _emit_splitting(bundle: SplittingType, args) -> None:
    if args.format == "json":
        _emit(_json_text(splitting_payload(bundle)), args)
    elif args.format == "csv":
        payload = splitting_payload(bundle)
        payload["splitting"] = splitting_text(bundle)
        _emit(_csv_text(("splitting", "rank", "degree", "h0", "h1", "spread"),
                        [payload]), args)
    else:
        _emit("\n".join(_splitting_lines(bundle)) + "\n", args)


def _cmd_g0(args) -> int:
    _emit_splitting(direct_image_g0(args.n, args.m), args)
    return 0


def _cmd_g1(args) -> int:
    flag = {None: None, "yes": True, "no": False}[args.exceptional]
    spec = AtiyahBundleSpec(args.r, args.d, flag)
    _emit_splitting(direct_image_g1(args.n, spec), args)
    return 0


def _cmd_extract(args) -> int:
    try:
        values = tuple(int(v) for v in args.h0.split(","))
    except ValueError:
        raise ValueError(f"--h0 must be a comma-separated integer list, got {args.h0!r}")
    seq = CohSequence(args.lo, values, args.rank)
    _emit_splitting(splitting_from_h0_sequence(seq), args)
    return 0


def _cmd_bounds(args) -> int:
    if args.mode == "degree" and args.d is None:
        raise ValueError("--mode degree requires --d <bundle degree>")
    ctx = CurveMapContext(args.g, args.n, 1, args.d if args.d is not None else 0)
    result = spread_bound(ctx, args.mode)
    payload = {
        "g": args.g,
        "n": args.n,
        "d": args.d,
        "mode": args.mode,
        "bound": str(result.bound),
        "floor": floor(result.bound),
        "case": result.case_tag,
        "equality_condition": result.equality_condition,
    }
    if args.format == "json":
        _emit(_json_text(payload), args)
    elif args.format == "csv":
        cols = ("g", "n", "d", "mode", "bound", "floor", "case", "equality_condition")
        _emit(_csv_text(cols, [payload]), args)
    else:
        lines = [f"spread bound: {payload['bound']} (floor {payload['floor']})",
                 f"case: {payload['case']}"]
        if payload["equality_condition"]:
            lines.append(f"equality: {payload['equality_condition']}")
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_hyper_push(args) -> int:
    curve = curve_from_string(args.curve)
    divisor = divisor_from_string(curve, args.divisor)
    cover = ComposedMap(args.m)
    bundle = pushforward(divisor, cover)
    seq = h0_sequence_of(bundle)  # the minimal window, as the oracle's walk finds it
    payload = splitting_payload(bundle)
    payload.update({
        "curve": curve.to_string(),
        "divisor": divisor_to_string(divisor),
        "p": curve.prime,
        "g": curve.genus,
        "m": cover.exponent,
        "n": cover.degree,
        "d": divisor.degree,
        "h0_sequence": {"lo": seq.lo, "hi": seq.hi, "values": list(seq.values)},
    })
    if args.format == "json":
        _emit(_json_text(payload), args)
    elif args.format == "csv":
        bound = None
        if curve.genus >= 2:
            bound = spread_bound(CurveMapContext(curve.genus, cover.degree, 1, divisor.degree))
        row = _oracle_row(curve, divisor, cover, bundle, bound)
        _emit(_csv_text(SCAN_COLUMNS, [row]), args)
    else:
        lines = _splitting_lines(bundle)
        lines.append(
            f"h0 sequence on [{seq.lo}, {seq.hi}]: "
            + " ".join(str(v) for v in seq.values)
        )
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_verify(args) -> int:
    report = run_campaign(args.campaign, args.seed, args.trials,
                          max_genus=args.max_genus, max_m=args.max_m)
    if args.format == "json":
        _emit(_json_text(report.payload()), args)
    elif args.format == "csv":
        _emit(_csv_text(SCAN_COLUMNS, report.rows), args)
    else:
        lines = [
            f"campaign {report.campaign}: {report.trials} instances, "
            f"{report.passed} passed, {report.failed} failed "
            f"(seed {report.seed}, {report.wall_time_s:.2f}s)"
        ]
        for failure in report.failures:
            lines.append(f"  failure #{failure['index']}: {failure['inputs']}")
            lines.append(f"    expected: {failure['expected']}")
            lines.append(f"    actual:   {failure['actual']}")
        _emit("\n".join(lines) + "\n", args)
    return 1 if report.failed else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="emission format (default text)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the emission to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushfwd",
        description="Splitting types of direct images of bundles under maps "
                    "of curves to the projective line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g0 = sub.add_parser("g0", help="direct image of O(m) under a degree-n self-map of the line")
    g0.add_argument("--n", type=int, required=True, help="map degree")
    g0.add_argument("--m", type=int, required=True, help="twist of the source line bundle")
    _add_common(g0)
    g0.set_defaults(handler=_cmd_g0)

    g1 = sub.add_parser("g1", help="direct image of an indecomposable bundle on an elliptic curve")
    g1.add_argument("--n", type=int, required=True, help="map degree")
    g1.add_argument("--r", type=int, required=True, help="bundle rank")
    g1.add_argument("--d", type=int, required=True, help="bundle degree")
    g1.add_argument("--exceptional", choices=("yes", "no"), default=None,
                    help="whether the degree-zero twist is the class with a section")
    _add_common(g1)
    g1.set_defaults(handler=_cmd_g1)

    extract = sub.add_parser("extract", help="recover a splitting type from an h0 sequence")
    extract.add_argument("--h0", required=True, help="comma-separated values, lowest degree first")
    extract.add_argument("--lo", type=int, required=True, help="degree of the first value")
    extract.add_argument("--rank", type=int, required=True, help="expected rank")
    _add_common(extract)
    extract.set_defaults(handler=_cmd_extract)

    bounds = sub.add_parser("bounds", help="exact rational bound on the spread of summand degrees")
    bounds.add_argument("--g", type=int, required=True, help="curve genus (>= 2)")
    bounds.add_argument("--n", type=int, required=True, help="map degree")
    bounds.add_argument("--d", type=int, default=None, help="line bundle degree (degree mode)")
    bounds.add_argument("--mode", choices=("generic", "any", "degree"), default="any")
    _add_common(bounds)
    bounds.set_defaults(handler=_cmd_bounds)

    hyper = sub.add_parser("hyper", help="hyperelliptic oracle computations")
    hyper_sub = hyper.add_subparsers(dest="hyper_command", required=True)
    push = hyper_sub.add_parser("push", help="direct image of O(D) under the degree-2m composed cover")
    push.add_argument("--curve", required=True, help='e.g. "p=5; f=0,1,0,0,0,1"')
    push.add_argument("--divisor", required=True, help='e.g. "inf:2; pt:1,2:3"')
    push.add_argument("--m", type=int, required=True, help="power-map exponent; cover degree is 2m")
    _add_common(push)
    push.set_defaults(handler=_cmd_hyper_push)

    verify = sub.add_parser("verify", help="run a seeded verification campaign")
    verify.add_argument("--campaign", required=True,
                        choices=("genus0", "genus1", "duality", "stabilization",
                                 "composition", "riemann-roch"))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--max-genus", type=int, default=3, dest="max_genus")
    verify.add_argument("--max-m", type=int, default=3, dest="max_m")
    _add_common(verify)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PushforwardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
