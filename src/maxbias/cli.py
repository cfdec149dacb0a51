"""Command-line front end: emits every curve, table and diagnostic as text data.

Subcommands: curve, phi, tune, dominance, table, check.  Output is CSV (or
flat key=value for dominance reports) with 9-significant-digit formatting,
so identical flags always produce byte-identical files.  Exit codes:
0 success, 1 invalid input, 2 numerical failure, 3 eps grid outside the
breakdown domain.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from ._io import fmt
from .curves import (
    bias_curve,
    breakdown_point,
    cm_estimate,
    mm_estimate,
    s_estimate,
    write_curve_csv,
)
from .dominance import dominance_report, write_c_profile_csv, write_report
from .efficiency import (
    LAW_NAMES,
    avar_table,
    reference_estimators,
    tune,
    write_avar_csv,
)
from .errors import DomainError, MaxbiasError, TargetRangeError
from .gfunction import GFunction, cauchy_model, gaussian_model, write_phi_csv
from .rho import ALPHA_QUANTILE, BIWEIGHT, alpha_quantile, biweight, validate_loss

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_BREAKDOWN = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _CliError(message)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _CliError(f"grid must be numeric, got {text!r}") from exc
    if step <= 0 or stop < start:
        raise _CliError(f"grid needs step > 0 and stop >= start, got {text!r}")
    n = int(round((stop - start) / step)) + 1
    grid = [start + i * step for i in range(n)]
    return [e for e in grid if e <= stop + 1e-12]


def _rho_from(args):
    if args.rho == BIWEIGHT:
        return biweight(args.k)
    return alpha_quantile(args.k)


def _model_from(args):
    return cauchy_model() if args.model == "cauchy" else gaussian_model()


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="maxbias", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="maximum bias curve over an eps grid")
    c.add_argument("--estimator", required=True, choices=("s", "mm", "cm"))
    c.add_argument("--rho", default=BIWEIGHT, choices=(BIWEIGHT, ALPHA_QUANTILE))
    c.add_argument("--k", type=float, default=1.0, help="loss cutoff (s/cm)")
    c.add_argument("--k1", type=float, help="first-loss cutoff (mm)")
    c.add_argument("--k2", type=float, help="second-loss cutoff (mm)")
    c.add_argument("--b", type=float, required=True)
    c.add_argument("--c", type=float, help="CM tuning constant")
    c.add_argument("--model", default="gaussian", choices=("gaussian", "cauchy"))
    c.add_argument("--grid", required=True, help="eps grid start:stop:step")
    c.add_argument("--out", help="output CSV path (default stdout)")

    f = sub.add_parser("phi", help="phi(s) = -s g'(s) profile on a log grid")
    f.add_argument("--rho", default=BIWEIGHT, choices=(BIWEIGHT, ALPHA_QUANTILE))
    f.add_argument("--k", type=float, default=1.0)
    f.add_argument("--model", default="gaussian", choices=("gaussian", "cauchy"))
    f.add_argument("--smin", type=float, default=1e-2)
    f.add_argument("--smax", type=float, default=1e2)
    f.add_argument("--n", type=int, default=200)
    f.add_argument("--out", help="output CSV path (default stdout)")

    t = sub.add_parser("tune", help="solve for a tuning constant")
    t.add_argument("--estimator", required=True, choices=("s", "mm", "cm"))
    t.add_argument("--b", type=float)
    t.add_argument("--k", type=float)
    t.add_argument("--target-eff", type=float, dest="target_eff")

    d = sub.add_parser("dominance", help="CM-vs-S dominance report (Gaussian model)")
    d.add_argument("--rho", default=BIWEIGHT, choices=(BIWEIGHT, ALPHA_QUANTILE))
    d.add_argument("--k", type=float, default=1.0)
    d.add_argument("--b", type=float, required=True)
    d.add_argument("--out", help="report path (default stdout)")
    d.add_argument("--profile-out", dest="profile_out", help="c(eps) profile CSV path")

    a = sub.add_parser("table", help="slope-variance table of the reference estimates")
    a.add_argument("--out", help="output CSV path (default stdout)")

    k = sub.add_parser("check", help="loss/phi/convexity validation for a (rho, model) pair")
    k.add_argument("--rho", default=BIWEIGHT, choices=(BIWEIGHT, ALPHA_QUANTILE))
    k.add_argument("--k", type=float, default=1.0)
    k.add_argument("--model", default="gaussian", choices=("gaussian", "cauchy"))
    return p


def _run_curve(args) -> int:
    if args.estimator == "s":
        spec = s_estimate(_rho_from(args), args.b)
    elif args.estimator == "cm":
        if args.c is None:
            raise _CliError("cm curves need --c")
        spec = cm_estimate(_rho_from(args), args.b, args.c)
    else:
        if args.k1 is None or args.k2 is None:
            raise _CliError("mm curves need --k1 and --k2")
        spec = mm_estimate(biweight(args.k1), biweight(args.k2), args.b)
    grid = _parse_grid(args.grid)
    bp = breakdown_point(spec)
    if any(not 0.0 < e < bp for e in grid):
        print(
            f"error: eps grid must lie strictly inside (0, {bp:g}) for b = {spec.b:g}",
            file=sys.stderr,
        )
        return EXIT_BREAKDOWN
    curve = bias_curve(spec, _model_from(args), grid)
    write_curve_csv(curve, args.out or sys.stdout)
    return EXIT_OK


def _run_phi(args) -> int:
    if args.smin <= 0 or args.smax <= args.smin or args.n < 2:
        raise _CliError("phi grid needs 0 < smin < smax and n >= 2")
    gf = GFunction(_rho_from(args), _model_from(args))
    grid = np.logspace(np.log10(args.smin), np.log10(args.smax), args.n)
    write_phi_csv(gf, grid, args.out or sys.stdout)
    return EXIT_OK


def _run_tune(args) -> int:
    kind = args.estimator
    try:
        value = tune(kind, b=args.b, k=args.k, target_eff=args.target_eff)
    except TargetRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    name = {"s": "k" if args.k is None else "b", "mm": "k2", "cm": "c"}[kind]
    print(f"{name} = {fmt(value)}")
    return EXIT_OK


def _run_dominance(args) -> int:
    gf = GFunction(_rho_from(args), gaussian_model())
    report = dominance_report(gf, args.b)
    write_report(report, args.out or sys.stdout)
    if args.profile_out:
        write_c_profile_csv(report, args.profile_out)
    return EXIT_OK


def _run_table(args) -> int:
    cells = avar_table(reference_estimators(), LAW_NAMES)
    write_avar_csv(cells, args.out or sys.stdout)
    return EXIT_OK


def _run_check(args) -> int:
    rho = _rho_from(args)
    gf = GFunction(rho, _model_from(args))
    ok = True
    for result in validate_loss(rho):
        ok &= result.passed
        print(f"loss:{result.name}: {'pass' if result.passed else 'FAIL'} ({result.detail})")
    uni = gf.check_phi_unimodal()
    ok &= uni.ok
    print(f"phi-unimodal: {'pass' if uni.ok else 'FAIL'}")
    convex = gf.check_g_convex()
    ok &= convex
    print(f"g-convex: {'pass' if convex else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


_RUNNERS = {
    "curve": _run_curve,
    "phi": _run_phi,
    "tune": _run_tune,
    "dominance": _run_dominance,
    "table": _run_table,
    "check": _run_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call (not at import) and then reused."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except (_CliError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MaxbiasError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
