"""Command-line interface.

Subcommands:
  verify run   run named identity checks and emit a report
  reduce       reduce an expression to the canonical basis
  aw-poly      print Askey-Wilson (or shifted) polynomial coefficients
  catalog      list every check id with its mathematical statement
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import aw3, ncalg, polyrep, reports, verify
from .checks import CHECK_CATALOG
from .errors import ConfigError, DegenerateParameters, KernelError, ParseError
from .expression import parse_expression
from .params import Params, make_params


def _add_param_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--params",
        metavar="q=Q,a=A,b=B,c=C,d=D",
        help="exact rational parameter values (fractions allowed, e.g. q=3/2)",
    )
    group.add_argument(
        "--symbolic",
        action="store_true",
        help="work with formal parameters (default)",
    )


def _params_from_args(args) -> Params | None:
    if getattr(args, "params", None):
        assignments = reports.parse_param_assignments(args.params)
        return make_params("specialized", assignments)
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank1daha",
        description=(
            "Exact kernel for the rank-one double affine Hecke algebra, the "
            "Askey-Wilson q-commutator algebra, and their polynomial "
            "representation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="identity verification")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_run = verify_sub.add_parser("run", help="run checks and emit a report")
    p_run.add_argument("--config", metavar="FILE", help="key = value config file")
    p_run.add_argument(
        "--checks",
        metavar="id1,id2|all",
        help="comma-separated check ids (default: all)",
    )
    p_run.add_argument(
        "--mode",
        choices=["exact", "prob"],
        help="force one mode for every check: exact (at --params, else symbolic) or "
        "prob (at --trials random points of GF(2^61-1)); default: exact at a "
        "--params point, else per-check",
    )
    p_run.add_argument("--seed", type=int, metavar="N")
    p_run.add_argument("--trials", type=int, metavar="N")
    p_run.add_argument("--max-mn", type=int, metavar="N", dest="max_mn",
                       help="at least 1; bounds nothing, as (1, 1) decides every step row")
    p_run.add_argument("--max-degree", type=int, metavar="N", dest="max_degree")
    p_run.add_argument("--max-n", type=int, metavar="N", dest="max_n")
    _add_param_options(p_run)
    p_run.add_argument("--out", metavar="PATH", help="write the report to PATH")
    p_run.add_argument("--format", choices=["json", "text"], default=None)

    p_reduce = sub.add_parser(
        "reduce", help="reduce an expression to the basis Z^m Y^n T1^i"
    )
    p_reduce.add_argument("expr", metavar="EXPR")
    p_reduce.add_argument(
        "--alphabet",
        choices=["daha", "aw"],
        default="daha",
        help="generator alphabet of EXPR (aw words are embedded first)",
    )
    _add_param_options(p_reduce)

    p_poly = sub.add_parser(
        "aw-poly", help="print polynomial coefficients as 'k: coef' lines"
    )
    p_poly.add_argument("--n", type=int, required=True, metavar="N")
    p_poly.add_argument(
        "--shifted",
        action="store_true",
        help="print the shifted family member Q_n instead of P_n",
    )
    _add_param_options(p_poly)

    sub.add_parser("catalog", help="print every check id with its statement")
    return parser


def _cmd_verify_run(args) -> int:
    options: dict[str, str] = {}
    if args.config:
        options.update(reports.parse_config_file(args.config))
    # CLI flags override the file
    if args.checks is not None:
        options["checks"] = args.checks
    if args.mode is not None:
        options["mode"] = args.mode
    for key in reports._INT_OPTIONS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            options[key] = str(value)
    if args.symbolic:
        options["symbolic"] = "true"
        options.pop("params", None)
    elif args.params:
        options["params"] = args.params
        options.pop("symbolic", None)
    if args.format is not None:
        options["format"] = args.format
    if args.out is not None:
        options["out"] = args.out
    config = reports.config_from_options(options)

    out_format = options.get("format") or "text"
    if out_format not in ("json", "text"):
        raise ConfigError(f"unknown format {out_format!r}")
    out_path = options.get("out")

    report = verify.run_checks(config)
    if out_path:
        verify.emit_report(report, out_path, out_format)
        sys.stdout.write(f"report written to {out_path}\n")
        sys.stdout.write(f"overall {report.overall}\n")
    else:
        sys.stdout.write(reports.render_report(report, out_format))
    return 0 if report.overall == "pass" else 1


def _cmd_reduce(args) -> int:
    params = _params_from_args(args) or make_params("symbolic")
    element = parse_expression(args.expr, args.alphabet, params)
    if args.alphabet == "aw":
        nf = aw3.embed_aw(element, params)
    else:
        nf = ncalg.reduce(element, params)
    sys.stdout.write(str(nf) + "\n")
    return 0


def _cmd_aw_poly(args) -> int:
    params = _params_from_args(args) or make_params("symbolic")
    if args.n < 0:
        raise ConfigError("--n must be nonnegative")
    poly = (
        polyrep.shifted_qn(args.n, params)
        if args.shifted
        else polyrep.askey_wilson(args.n, params)
    )
    for k in range(-args.n, args.n + 1):
        sys.stdout.write(f"{k}: {poly.coeff(k)}\n")
    return 0


def _cmd_catalog(args) -> int:
    for spec in CHECK_CATALOG:
        sys.stdout.write(f"{spec.id}\n    {spec.statement}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify_run(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "aw-poly":
            return _cmd_aw_poly(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ConfigError, DegenerateParameters) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KernelError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
