"""Command-line front end.

Reads polynomial / curve / line instance files (or aliases), runs the
requested operation, and writes a JSON report whose ``config_echo`` block
records every tolerance in effect.  Exit codes: 0 success (and bound holds),
1 a bound-violation report, 2 input error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .crossings import CIRCLE_TOL, MERGE_RADIUS, Line, count_preimages
from .curves import JordanCurve
from .errors import BoundaryCoefficientZero, DegreeZero, ZerowindError
from .harness import HarnessConfig, replay, run_harness, save_replay
from .polynomials import ROOT_TOL, Polynomial, _json_coeffs, classify_roots, winding_count
from .verify import verify_detour, verify_main, verify_piecewise, verify_trig

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _read(what: str, parse, obj):
    """``parse(obj)``, with every malformed value in ``obj`` an input error that starts with ``what``."""
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _InputError(f"{what}: {exc}") from exc


def _file_or_alias(source: str):
    return _load_json(source) if source.endswith(".json") else source


def _listed_coeffs(obj) -> tuple[complex, ...]:
    """The coefficients as the file lists them, refused wherever a ``Polynomial`` refuses them."""
    coeffs = _json_coeffs(obj)
    Polynomial(coeffs)
    return coeffs


def _load_poly(path: str) -> Polynomial:
    return _read(f"bad polynomial file {path}", Polynomial.from_json, _load_json(path))


def _load_curve(source: str) -> JordanCurve:
    return _read(f"bad curve {source!r}", JordanCurve.from_json, _file_or_alias(source))


def _load_line(source: str) -> Line:
    return _read(f"bad line {source!r}", Line.from_json, _file_or_alias(source))


def _instance(args) -> tuple[Polynomial, JordanCurve, Line]:
    return _load_poly(args.poly), _load_curve(args.curve), _load_line(args.line)


def _verdict(report) -> tuple[dict, bool]:
    return report.to_json(), report.holds


def _count_zeros(args):
    return classify_roots(_load_poly(args.poly), _load_curve(args.curve), args.delta).to_json(), True


def _winding(args):
    return {"winding": winding_count(_load_poly(args.poly), _load_curve(args.curve), band=args.delta)}, True


def _crossings(args):
    return count_preimages(*_instance(args), band=args.delta).to_json(), True


def _verify(args):
    return _verdict(verify_main(*_instance(args), band=args.delta))


def _verify_piecewise(args):
    return _verdict(verify_piecewise(*_instance(args), band=args.delta))


def _detour(args):
    schedule = (args.epsilon,) if args.epsilon is not None else None
    return _verdict(verify_detour(*_instance(args), eps_schedule=schedule, band=args.delta)[0])


def _trig_check(args):
    coeffs = _read(f"bad polynomial file {args.poly}", _listed_coeffs, _load_json(args.poly))
    report = verify_trig(coeffs, band=args.delta)
    return report.to_json(), report.identity_holds and report.bound_holds


def _harness(args):
    if bool(args.config) == bool(args.replay):
        raise _InputError("harness needs exactly one of --config or --replay")
    if args.replay:
        if args.seed is not None:
            raise _InputError("--seed goes with --config only")
        verdict = _read(f"bad replay file {args.replay}", replay, _load_json(args.replay))
        return {"replay": verdict}, verdict["holds"]
    hcfg = _read("bad harness config", HarnessConfig.from_json, _load_json(args.config))
    if args.seed is not None:
        hcfg = replace(hcfg, seed=args.seed)
    report = run_harness(hcfg)
    if args.out:
        for i, v in enumerate(report.violations):
            save_replay(v["instance"], f"{args.out}.violation{i}.json")
    return {**report.to_json(), "config_echo": {"seed": hcfg.seed}}, report.all_hold


def _emit_samples(args):
    poly, curve = _load_poly(args.poly), _load_curve(args.curve)
    line = _load_line(args.line) if args.line else Line.real_axis()
    n = args.resolution
    if n <= 0:
        raise _InputError("resolution must be positive")
    ts = np.arange(n) / n
    pts = curve.points(ts)
    vals = poly(pts)
    h = line.residual(vals)
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write("t,re_gamma,im_gamma,re_f,im_f,h\n")
        for t, p_, v_, h_ in zip(ts, pts, vals, h):
            row = (float(t), float(p_.real), float(p_.imag), float(v_.real), float(v_.imag), float(h_))
            fh.write(",".join(repr(x) for x in row) + "\n")
    return {"rows": n, "csv": args.csv}, True


def _report(args, payload: dict, holds: bool) -> int:
    """Write a command's payload, with its ``config_echo`` block, as JSON to ``--out`` or stdout.

    The echo records the band (``--delta``, or null) and the fixed tolerances,
    plus whatever the command put in the payload's own ``config_echo``.
    """
    payload["config_echo"] = {
        "band": getattr(args, "delta", None),
        "root_tol": ROOT_TOL,
        "circle_tol": CIRCLE_TOL,
        "merge_radius": MERGE_RADIUS,
        **payload.get("config_echo", {}),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if holds else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zerowind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_, curve=True, line=False, delta=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--poly", required=True, help="polynomial JSON file")
        if curve:
            p.add_argument("--curve", required=True, help="curve JSON file or alias")
        if line:
            p.add_argument("--line", required=True, help="line JSON file or alias")
        if delta:
            p.add_argument("--delta", type=float, help="on-curve band override")
        p.add_argument("--out", help="report output path (default stdout)")
        return p

    add("count-zeros", _count_zeros, "classify the polynomial's roots against the curve")
    add("winding", _winding, "winding number of f along the curve")
    add("crossings", _crossings, "distinct curve points mapped onto the line", line=True)
    add("verify", _verify, "check measured >= 2m + lambda on a smooth curve", line=True)
    add("verify-piecewise", _verify_piecewise, "check the interior-angle bound on a cornered curve", line=True)
    p = add("detour", _detour, "reroute around on-curve zeros and verify counts", line=True)
    p.add_argument("--epsilon", type=float, help="pin a single detour radius")

    add("trig-check", _trig_check, "cosine-sum zero counts and the 2n bound", curve=False)

    p = sub.add_parser("harness", help="randomized planted-instance property runs")
    p.set_defaults(run=_harness)
    p.add_argument("--config", help="harness config JSON file")
    p.add_argument("--replay", help="replay a serialized instance file")
    p.add_argument("--seed", type=int, help="seed override (with --config)")
    p.add_argument("--out", help="report output path")

    p = add("emit-samples", _emit_samples, "write t,re_gamma,im_gamma,re_f,im_f,h rows as CSV", delta=False)
    p.add_argument("--line", help="line for the h column (default real-axis)")
    p.add_argument("--resolution", type=int, default=4096, help="number of rows, at t = i / resolution")
    p.add_argument("--csv", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _report(args, *args.run(args))
    except (_InputError, ValueError, BoundaryCoefficientZero, DegreeZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZerowindError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
