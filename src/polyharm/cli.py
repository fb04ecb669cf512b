"""Command-line entry point.

Exit codes: 0 all expected verdicts, 1 verdict or invariant mismatch,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import report, verifier
from .errors import ConfigError, PolyharmError
from .rationals import EXACT, FLOAT
from .residuals import DEFAULT_FLOAT_TOL

OUT_DIR_ENV = "POLYHARM_OUT_DIR"


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    """Flags of the commands that draw sample points (not ``selftest``)."""
    parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    parser.add_argument("--points", type=int, default=None, help="sample points per instance")


def _tol(text: str) -> float:
    """``--tol``'s type: for any value not strictly between 0 and 1, nan and
    text that is no number included, argparse names the flag and exits 2."""
    try:
        if 0 < float(text) < 1:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    parser.add_argument("--out", type=Path, default=None, help="write the report to this file")
    parser.add_argument("--format", choices=("json", "csv", "table"), default=None)
    parser.add_argument("--tol", type=_tol, default=None, help="relative zero threshold (float mode only)")
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyharm",
        description=(
            "Exact verification of conformal biharmonic and polyharmonic "
            "classifications between space forms"
        ),
        epilog="Flags follow the command: polyharm selftest -v, not polyharm -v selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate residuals for configured instances")
    p_check.add_argument("config", type=Path)
    _add_sampling(p_check)
    _add_common(p_check)
    p_check.set_defaults(run=_check)

    p_bh = sub.add_parser("sweep-biharmonic", help="verdict table over (m, curvatures, branch)")
    p_bh.add_argument("--m-min", type=int, default=3)
    p_bh.add_argument("--m-max", type=int, default=8)
    p_bh.add_argument("--trials", type=int, default=3)
    _add_sampling(p_bh)
    _add_common(p_bh)
    p_bh.set_defaults(run=_sweep_biharmonic, seed=0, points=5)

    p_ph = sub.add_parser("sweep-polyharmonic", help="iterated-Laplacian table over (order, m)")
    p_ph.add_argument("--k-min", type=int, default=1)
    p_ph.add_argument("--k-max", type=int, default=5)
    p_ph.add_argument("--m-min", type=int, default=3)
    p_ph.add_argument("--m-max", type=int, default=12)
    p_ph.add_argument("--trials", type=int, default=1)
    _add_sampling(p_ph)
    _add_common(p_ph)
    p_ph.set_defaults(run=_sweep_polyharmonic, seed=0, points=1)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    _add_common(p_self)
    p_self.set_defaults(run=_selftest)

    return parser


# Each subcommand's ``run`` returns (report seed, report body, all as expected).


def _check(args, tol):
    from . import check  # here, not at the top: the sweeps never compile it
    configured, plan = check.load_config(args.config)
    if plan.points is not None and (args.seed is not None or args.points is not None):
        raise ConfigError("--seed and --points do not apply: the config lists explicit sample.points")
    plan = plan.with_overrides(seed=args.seed, count=args.points)
    body = check.check_report_body(configured, plan, mode=args.mode, tol=tol)
    return plan.seed, body, body["all_match"]


def _sweep_biharmonic(args, tol):
    body = verifier.sweep_biharmonic(
        m_values=range(args.m_min, args.m_max + 1),
        trials=args.trials,
        seed=args.seed,
        points=args.points,
        mode=args.mode,
        tol=tol,
    )
    return args.seed, body, body["all_match"]


def _sweep_polyharmonic(args, tol):
    body = verifier.sweep_polyharmonic(
        orders=range(args.k_min, args.k_max + 1),
        m_values=range(args.m_min, args.m_max + 1),
        trials=args.trials,
        seed=args.seed,
        points=args.points,
        mode=args.mode,
        tol=tol,
    )
    return args.seed, body, body["all_match"]


def _selftest(args, tol):
    from . import selftest  # nor this
    body = selftest.selftest(mode=args.mode, tol=tol)
    return None, body, body["all_ok"]


def _run(args) -> int:
    """Run one subcommand and print or write its report; returns the exit code."""
    if args.tol is not None and args.mode != FLOAT:
        raise ConfigError("--tol only applies to --mode float")
    tol = DEFAULT_FLOAT_TOL if args.tol is None else args.tol
    seed, body, ok = args.run(args, tol)
    result = report.ResidualReport(
        kind=args.command,
        mode=args.mode,
        seed=seed,
        body=body,
        exit_code=0 if ok else 1,
        tol=tol if args.mode == FLOAT else None,
    )
    fmt = args.format or (args.out.suffix.lstrip(".") if args.out and args.out.suffix in (".json", ".csv") else None)
    if args.out is not None:
        out = args.out
        if not out.is_absolute() and os.environ.get(OUT_DIR_ENV):
            out = Path(os.environ[OUT_DIR_ENV]) / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.render_report(result, fmt or "json"))
        print(f"report written to {out}")
    else:
        print(report.render_report(result, fmt or "table"), end="")
    return result.exit_code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0)
        return exc.code
    if args.verbose:
        import logging  # only here: without -v nothing logs but check's skip warning
        logging.basicConfig(level=logging.INFO)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PolyharmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
