"""Command-line front end.

Every subcommand prints exactly one JSON document (CSV where noted) on
standard output and is deterministic: all randomness derives from --seed,
so identical flags produce byte-identical output.  Exit status is 0 on
success, 1 when a computation rejects its input (precondition violations,
exhausted budgets), and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .expansion import (
    DEFAULT_BUDGET,
    SET_KINDS,
    _check_budget,
    degenerate_demo,
    draw_sets,
    expansion_report,
)
from .incidence import build_instance, full_report
from .moment import distinct_volumes, moment_summary, volume_expansion_report
from .parsing import parse
from .poly import _CHUNK, VarSet, _as_scalar, _decimal, _from_decimal
from .rank import rank
from .reduction import DEFAULT_MAX_ATTEMPTS, grid_reduce, reduce
from .special import is_special

SPEC_VERSION = "1"


def _default_budget() -> int:
    env = os.environ.get("POLYRANK_BUDGET")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"POLYRANK_BUDGET must be an integer, got {env!r}") from None
        if value <= 0:
            raise ValueError("POLYRANK_BUDGET must be positive")
        return value
    return DEFAULT_BUDGET


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _epsilon(text: str) -> float:
    """argparse type for the incidence bound's slack: the bound holds for
    every eps > 0, and n^(... + eps) stays a finite float for eps <= 1."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value <= 1:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")
    return value


def _parse_vars(text: str) -> VarSet:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    return VarSet(names)


def _parse_sets(text: str, vars: VarSet, seed: int, budget: int | None = None) -> list[tuple]:
    """Either 'kind:n' (one recipe for every variable, drawn by
    :func:`draw_sets`) or explicit '|'-separated value lists, one per
    variable, each sorted with integral values as ``int``.  A 'kind:n'
    grid over ``budget`` tuples is refused before any set is drawn."""
    if "|" in text or ":" not in text:
        groups = [tuple(sorted(map(_as_scalar, _parse_list(group, "--sets", _rational, "rationals"))))
                  for group in text.split("|")]
        if len(groups) != vars.k:
            raise ValueError(f"need {vars.k} explicit sets separated by '|', got {len(groups)}")
        for values in groups:
            if len(set(values)) != len(values):
                raise ValueError(f"explicit set {', '.join(map(str, values))} must list {len(values)} distinct values")
        return groups
    kind, _, n_text = text.partition(":")
    if kind not in SET_KINDS:
        raise ValueError(f"unknown set kind {kind!r} (expected one of {', '.join(SET_KINDS)})")
    try:
        n = int(n_text)
    except ValueError:
        raise ValueError(f"set size must be an integer, got {n_text!r}") from None
    if budget is not None and n > 0:
        _check_budget(n**vars.k, budget)
    return draw_sets(kind, n, vars.k, seed)


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, with integers and ratios of digits of any length
    read by :func:`_from_decimal`, past Python's int/str digit limit."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        return Fraction(text)
    sign, numerator, denominator = match.groups()
    value = Fraction(_from_decimal(numerator), _from_decimal(denominator or "1"))
    return -value if sign == "-" else value


def _parse_list(text: str, flag: str, kind: type, noun: str) -> list:
    """The values of a comma-separated ``flag`` value (``--n``, ``--points``,
    an explicit ``--sets`` group),
    each read by ``kind``; ``noun`` names them in the error message."""
    try:
        return [kind(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be comma-separated {noun}, got {text!r}") from None


def _parse_sizes(text: str, smallest: int, fewest: int) -> list[int]:
    """``--n``: ``fewest`` or more strictly increasing sizes >= ``smallest``."""
    sizes = _parse_list(text, "--n", int, "integers")
    if sizes != sorted(set(sizes)) or sizes[0] < smallest:
        raise ValueError(f"--n must be strictly increasing set sizes of at least {smallest}, got {text!r}")
    if len(sizes) < fewest:
        raise ValueError(f"--n needs at least {fewest} set sizes for the exponent fit, got {text!r}")
    return sizes


def _emit(document: dict) -> None:
    """Print ``document`` as one JSON line.  Each int of over 512 digits is
    dumped as a placeholder string "\\0<i>" and its digits (:func:`_decimal`)
    are spliced in: ``json.dumps`` stops at the int/str digit limit."""
    long_ints: list[int] = []

    def dumpable(value: object) -> object:
        if isinstance(value, dict):
            return {key: dumpable(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return list(map(dumpable, value))
        if isinstance(value, int) and not -_CHUNK < value < _CHUNK:
            long_ints.append(value)
            return f"\0{len(long_ints) - 1}"
        return value

    text = json.dumps(dumpable({"spec_version": SPEC_VERSION, **document}))
    for i, n in enumerate(long_ints):
        text = text.replace(f'"\\u0000{i}"', _decimal(n), 1)
    sys.stdout.write(text + "\n")


def _cmd_rank(args: argparse.Namespace) -> int:
    vars = _parse_vars(args.vars)
    f = parse(args.poly, vars)
    report = rank(f, method=args.method, trials=args.trials, seed=args.seed)
    _emit(report.to_json_dict())
    return 0


def _cmd_special(args: argparse.Namespace) -> int:
    vars = _parse_vars(args.vars)
    f = parse(args.poly, vars)
    verdict = is_special(f, method=args.method, seed=args.seed)
    _emit(verdict.to_json_dict())
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    vars = _parse_vars(args.vars)
    f = parse(args.poly, vars)
    if args.sets:
        sets = _parse_sets(args.sets, vars, args.seed)
        result = grid_reduce(f, args.pivot, sets, seed=args.seed, max_attempts=args.max_attempts)
    else:
        result = reduce(f, args.pivot, seed=args.seed, max_attempts=args.max_attempts)
    _emit(result.to_json_dict())
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    if args.degenerate is not None:
        n_values = _parse_list(args.n, "--n", int, "integers") if args.n else []
        if len(n_values) != 1:
            raise ValueError("--degenerate expects exactly one value in --n")
        _emit(degenerate_demo(args.degenerate, n_values[0], seed=args.seed, budget=budget))
        return 0
    if not args.poly or not args.vars or not args.n:
        raise ValueError("--poly, --vars and --n are required unless --degenerate is given")
    vars = _parse_vars(args.vars)
    f = parse(args.poly, vars)
    n_list = _parse_sizes(args.n, 1, 3)
    report = expansion_report(f, args.sets, n_list, seed=args.seed, budget=budget)
    if args.output == "csv":
        sys.stdout.write(report.to_csv_text())
    else:
        _emit(report.to_json_dict())
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    budget = args.budget if args.budget is not None else _default_budget()
    vars = _parse_vars(args.vars)
    f = parse(args.poly, vars)
    sets = _parse_sets(args.sets, vars, args.seed, budget)
    inst = build_instance(f, sets, budget=budget)
    _emit(full_report(inst, eps=args.eps))
    return 0


def _cmd_moment(args: argparse.Namespace) -> int:
    # the parser admits exactly one of --summary, --points and --n
    if args.summary:
        _emit(moment_summary(args.d))
    elif args.points is not None:
        params = _parse_list(args.points, "--points", _rational, "rationals")
        if len(set(params)) != len(params):
            raise ValueError(f"--points must be distinct rationals, got {args.points!r}")
        if len(params) <= args.d:
            raise ValueError(f"--points needs at least d+1 = {args.d + 1} rationals, got {args.points!r}")
        _emit(distinct_volumes(params, args.d, signed=args.signed).to_json_dict())
    else:
        n_list = _parse_sizes(args.n, args.d + 1, 1)
        _emit(volume_expansion_report(n_list, args.sets, args.d, seed=args.seed, signed=args.signed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrank",
        description="Rank, special forms, and expansion experiments for multivariate polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"polyrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_args(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--poly", required=required, help="polynomial expression, e.g. 'x1*x3 + x2*x3^2'")
        p.add_argument("--vars", required=required, help="comma-separated variable names fixing the ambient k")

    p_rank = sub.add_parser("rank", help="per-variable and overall rank")
    add_poly_args(p_rank)
    p_rank.add_argument("--method", choices=("exact", "randomized"), default="randomized")
    p_rank.add_argument("--trials", type=_positive_int, default=5)
    p_rank.add_argument("--seed", type=int, default=0)

    p_special = sub.add_parser("special", help="rank-1 special-form verdict")
    add_poly_args(p_special)
    p_special.add_argument(
        "--method",
        choices=("exact", "randomized"),
        default="exact",
        help="identity-testing mode (randomized avoids expanding large products)",
    )
    p_special.add_argument("--trials", type=_positive_int, default=5,
                           help="accepted for compatibility and ignored: rank 1 is decided exactly")
    p_special.add_argument("--seed", type=int, default=0)

    p_reduce = sub.add_parser("reduce", help="rank-preserving variable reduction")
    add_poly_args(p_reduce)
    p_reduce.add_argument("--pivot", required=True, help="pivot variable")
    p_reduce.add_argument("--seed", type=int, default=0)
    p_reduce.add_argument("--max-attempts", type=_positive_int, default=DEFAULT_MAX_ATTEMPTS)
    p_reduce.add_argument(
        "--sets",
        help="draw fixed values from these sets: 'kind:n' or explicit 'a,b|c,d|...'",
    )

    p_expand = sub.add_parser("expand", help="exact image sizes and fitted growth exponent")
    add_poly_args(p_expand, required=False)
    p_expand.add_argument("--n", help="comma-separated strictly increasing set sizes")
    p_expand.add_argument("--sets", choices=SET_KINDS, default="random_int",
                          help="set generator recipe")
    p_expand.add_argument("--seed", type=int, default=0)
    p_expand.add_argument("--budget", type=_positive_int, default=None,
                          help="max grid tuples (default POLYRANK_BUDGET or 10^8)")
    p_expand.add_argument("--workers", type=_positive_int, default=1,
                          help="accepted for compatibility and ignored: the sweep runs in one process")
    p_expand.add_argument("--output", choices=("json", "csv"), default="json")
    p_expand.add_argument("--degenerate", type=int, default=None, metavar="K",
                          help="run the many-variables collapse demo with K extra variables")

    p_inc = sub.add_parser("incidence", help="surface-set split and incidence counts")
    add_poly_args(p_inc)
    p_inc.add_argument("--sets", required=True, help="'kind:n' or explicit 'a,b|c,d|...'")
    p_inc.add_argument("--seed", type=int, default=0)
    p_inc.add_argument("--budget", type=_positive_int, default=None)
    p_inc.add_argument("--eps", type=_epsilon, default=0.1)

    p_moment = sub.add_parser("moment", help="moment-curve simplex volumes")
    p_moment.add_argument("--d", type=_positive_int, required=True, help="ambient dimension")
    mode = p_moment.add_mutually_exclusive_group(required=True)
    mode.add_argument("--points", help="comma-separated distinct parameters")
    mode.add_argument("--n", help="comma-separated sizes for an expansion report")
    mode.add_argument("--summary", action="store_true", help="verify the symbolic identities")
    p_moment.add_argument("--sets", choices=SET_KINDS, default="random_int")
    p_moment.add_argument("--seed", type=int, default=0)
    p_moment.add_argument("--signed", action="store_true", help="count both orientations")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it
    costs more than parsing most command lines."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at each call, so that a replaced handler is the one called
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, ZeroDivisionError, RuntimeError) as exc:
        print(f"polyrank: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("polyrank: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
