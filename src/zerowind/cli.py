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
from .curves import JordanCurve, curve_from_alias
from .errors import ZerowindError
from .harness import HarnessConfig, replay, run_harness, save_replay
from .polynomials import ROOT_TOL, Polynomial, classify_roots, winding_count
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


def _load_poly(path: str) -> Polynomial:
    try:
        return Polynomial.from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad polynomial file {path}: {exc}") from exc


def _load_curve(source: str) -> JordanCurve:
    try:
        if source.endswith(".json"):
            return JordanCurve.from_json(_load_json(source))
        return curve_from_alias(source)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad curve {source!r}: {exc}") from exc


def _load_line(source: str) -> Line:
    try:
        if source.endswith(".json"):
            return Line.from_json(_load_json(source))
        return Line.from_json(source)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad line {source!r}: {exc}") from exc


def _config_echo(band: float | None, **extra) -> dict:
    echo = {
        "band": band,
        "root_tol": ROOT_TOL,
        "circle_tol": CIRCLE_TOL,
        "merge_radius": MERGE_RADIUS,
    }
    echo.update(extra)
    return echo


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zerowind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, curve=True, line=False, delta=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--poly", required=True, help="polynomial JSON file")
        if curve:
            p.add_argument("--curve", required=True, help="curve JSON file or alias")
        if line:
            p.add_argument("--line", required=True, help="line JSON file or alias")
        if delta:
            p.add_argument("--delta", type=float, help="on-curve band override")
        p.add_argument("--out", help="report output path (default stdout)")
        return p

    add("count-zeros", "classify the polynomial's roots against the curve")
    add("winding", "winding number of f along the curve")
    add("crossings", "distinct curve points mapped onto the line", line=True)
    add("verify", "check measured >= 2m + lambda on a smooth curve", line=True)
    add("verify-piecewise", "check the interior-angle bound on a cornered curve", line=True)
    p = add("detour", "reroute around on-curve zeros and verify counts", line=True)
    p.add_argument("--epsilon", type=float, help="pin a single detour radius")

    p = add("trig-check", "cosine-sum zero counts and the 2n bound", curve=False)

    p = sub.add_parser("harness", help="randomized planted-instance property runs")
    p.add_argument("--config", help="harness config JSON file")
    p.add_argument("--replay", help="replay a serialized instance file")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--out", help="report output path")

    p = add("emit-samples", "write t,re_gamma,im_gamma,re_f,im_f,h rows as CSV", delta=False)
    p.add_argument("--line", help="line for the h column (default real-axis)")
    p.add_argument("--resolution", type=int, default=4096, help="number of rows, at t = i / resolution")
    p.add_argument("--csv", required=True, help="CSV output path")
    return parser


def _run(args) -> int:
    cmd = args.command

    if cmd == "harness":
        if bool(args.config) == bool(args.replay):
            raise _InputError("harness needs exactly one of --config or --replay")
        if args.replay:
            instance = _load_json(args.replay)
            try:
                verdict = replay(instance)
            except (KeyError, TypeError, ValueError) as exc:
                raise _InputError(f"bad replay file {args.replay}: {exc}") from exc
            _emit({"replay": verdict, "config_echo": _config_echo(None)}, args.out)
            return EXIT_OK if verdict["holds"] else EXIT_VIOLATION
        raw = _load_json(args.config)
        try:
            hcfg = HarnessConfig.from_json(raw)
        except (TypeError, ValueError) as exc:
            raise _InputError(f"bad harness config: {exc}") from exc
        if args.seed is not None:
            hcfg = replace(hcfg, seed=args.seed)
        report = run_harness(hcfg)
        payload = report.to_json()
        payload["config_echo"] = _config_echo(None, seed=hcfg.seed)
        _emit(payload, args.out)
        if report.violations and args.out:
            for i, v in enumerate(report.violations):
                save_replay(v["instance"], f"{args.out}.violation{i}.json")
        return EXIT_OK if report.all_hold else EXIT_VIOLATION

    if cmd == "trig-check":
        poly = _load_poly(args.poly)
        report = verify_trig(poly.coeffs, band=args.delta)
        payload = report.to_json()
        payload["config_echo"] = _config_echo(args.delta)
        _emit(payload, args.out)
        return EXIT_OK if (report.identity_holds and report.bound_holds) else EXIT_VIOLATION

    poly = _load_poly(args.poly)
    curve = _load_curve(args.curve)
    band = getattr(args, "delta", None)

    if cmd == "count-zeros":
        report = classify_roots(poly, curve, band)
        payload = report.to_json()
        payload["config_echo"] = _config_echo(band)
        _emit(payload, args.out)
        return EXIT_OK

    if cmd == "winding":
        w = winding_count(poly, curve, band=band)
        _emit({"winding": w, "config_echo": _config_echo(band)}, args.out)
        return EXIT_OK

    if cmd == "emit-samples":
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
        _emit({"rows": n, "csv": args.csv, "config_echo": _config_echo(band)}, args.out)
        return EXIT_OK

    line = _load_line(args.line)

    if cmd == "crossings":
        pre = count_preimages(poly, curve, line, band=band)
        payload = pre.to_json()
        payload["config_echo"] = _config_echo(band)
        _emit(payload, args.out)
        return EXIT_OK

    if cmd == "verify":
        report = verify_main(poly, curve, line, band=band)
    elif cmd == "verify-piecewise":
        report = verify_piecewise(poly, curve, line, band=band)
    elif cmd == "detour":
        schedule = (args.epsilon,) if args.epsilon is not None else None
        dreport, _ = verify_detour(poly, curve, line, eps_schedule=schedule, band=band)
        payload = dreport.to_json()
        payload["config_echo"] = _config_echo(band)
        _emit(payload, args.out)
        return EXIT_OK if dreport.holds else EXIT_VIOLATION
    else:  # pragma: no cover
        raise _InputError(f"unknown command {cmd!r}")

    payload = report.to_json()
    payload["config_echo"] = _config_echo(band)
    _emit(payload, args.out)
    return EXIT_OK if report.holds else EXIT_VIOLATION


def main(argv=None) -> int:
    from .errors import BoundaryCoefficientZero, DegreeZero

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (_InputError, ValueError, BoundaryCoefficientZero, DegreeZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZerowindError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
