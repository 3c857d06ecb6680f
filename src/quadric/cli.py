"""Command-line interface.

Subcommands::

    quadric-verify verify ambient --m 4
    quadric-verify verify tube --k 2 --r 0.6
    quadric-verify scan tube --k 3 --r-min 0.1 --r-max 1.5 --steps 30
    quadric-verify nonexistence --m 3 --alpha-samples 25
    quadric-verify classify data.json
    quadric-verify spectrum data.json

Reports are deterministic JSON written to stdout or to ``--json PATH``.
Exit codes: 0 all checks passed / certificate obtained; 1 a check failed or
the data is outside the classification hypotheses; 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import QuadricError
from .hypersurface import HypersurfaceData, from_dict
from .report import CheckReport, report_to_json
from . import suites

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _emit(report: CheckReport, json_path: str | None, verdict_line: str | None) -> None:
    """Write the report to ``json_path`` or stdout, after any verdict line.

    The verdict line goes to stdout only once the report file is written, so
    a refused ``--json PATH`` prints nothing there.
    """
    text = report_to_json(report)
    if json_path:
        try:
            Path(json_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise QuadricError(f"cannot write {json_path}: {exc}") from exc
        text = ""
    if verdict_line is not None:
        text = verdict_line + "\n" + text
    sys.stdout.write(text)


def _load_hypersurface(path: str) -> HypersurfaceData:
    """Read a hypersurface JSON payload and rebuild its data with :func:`from_dict`."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise QuadricError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise QuadricError(
            f"malformed JSON in {path}: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    except RecursionError as exc:
        raise QuadricError(f"JSON in {path} is nested too deeply") from exc
    if not isinstance(payload, dict):
        raise QuadricError(f"expected a JSON object in {path}")
    return from_dict(payload)


def _tol(text: str) -> float:
    """``--tol``: a finite number > 0; ``inf`` would pass every check."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, as ``np.random.default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _add_common(parser: argparse.ArgumentParser, default_tol: float | None) -> None:
    """``--seed`` and ``--json``, plus ``--tol`` where the command reads one."""
    if default_tol is not None:
        parser.add_argument("--tol", type=_tol, default=default_tol, help="residual tolerance")
    parser.add_argument("--seed", type=_seed, default=7, help="seed for all sampling")
    parser.add_argument("--json", metavar="PATH", default=None, help="write the report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadric-verify",
        description="Pointwise verification suites for hypersurface geometry in the complex quadric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify_sub = verify.add_subparsers(dest="target", required=True)

    amb = verify_sub.add_parser("ambient", help="ambient structure and Jacobi spectra")
    amb.add_argument("--m", type=int, required=True, help="complex dimension")
    _add_common(amb, 1e-10)

    tube = verify_sub.add_parser("tube", help="tube identity suite at one radius")
    tube.add_argument("--k", type=int, required=True, help="half the complex dimension")
    tube.add_argument("--r", type=float, required=True, help="tube radius in (0, pi/2)")
    tube.add_argument(
        "--non-vanishing",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="refuse the radius with vanishing Reeb curvature (pi/4)",
    )
    _add_common(tube, 1e-11)

    scan = sub.add_parser("scan", help="run a suite over a parameter grid")
    scan_sub = scan.add_subparsers(dest="target", required=True)
    scan_tube = scan_sub.add_parser("tube", help="tube suite over a radius grid")
    scan_tube.add_argument("--k", type=int, required=True)
    scan_tube.add_argument("--r-min", type=float, required=True)
    scan_tube.add_argument("--r-max", type=float, required=True)
    scan_tube.add_argument("--steps", type=int, required=True)
    _add_common(scan_tube, 1e-11)

    nonex = sub.add_parser("nonexistence", help="principal-normal nonexistence certificate")
    nonex.add_argument("--m", type=int, required=True)
    nonex.add_argument(
        "--alpha-samples", type=int, default=25, help="number of random nonzero Reeb curvatures"
    )
    _add_common(nonex, None)

    cls = sub.add_parser("classify", help="classify serialized hypersurface data")
    cls.add_argument("input", help="path to hypersurface JSON")
    _add_common(cls, 1e-8)

    spec = sub.add_parser("spectrum", help="spectra of serialized hypersurface data")
    spec.add_argument("input", help="path to hypersurface JSON")
    _add_common(spec, None)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Building the parser costs about a millisecond, which in-process callers
    # of main would pay on every call; parse_args keeps no state between calls.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)

    verdict_line = None
    try:
        # Finite input can still overflow (a shape operator with entries of
        # order 1e200, say); that is refused like a non-finite entry, not
        # carried into the residuals as inf or nan.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "verify" and args.target == "ambient":
                report = suites.verify_ambient(args.m, tol=args.tol, seed=args.seed)
            elif args.command == "verify" and args.target == "tube":
                report = suites.verify_tube(
                    args.k, args.r, tol=args.tol, seed=args.seed, non_vanishing=args.non_vanishing
                )
            elif args.command == "scan" and args.target == "tube":
                report = suites.scan_tube(
                    args.k, args.r_min, args.r_max, args.steps, tol=args.tol, seed=args.seed
                )
            elif args.command == "nonexistence":
                report = suites.nonexistence(args.m, samples=args.alpha_samples, seed=args.seed)
            elif args.command == "classify":
                h = _load_hypersurface(args.input)
                report, verdict_line = suites.classify_report(h, tol=args.tol, seed=args.seed)
            else:  # argparse admits only "spectrum" here
                report = suites.spectrum_report(_load_hypersurface(args.input), seed=args.seed)
        _emit(report, args.json, verdict_line)
    except QuadricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: {exc} (input outside the floating-point range)", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.all_passed else EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
