"""Exact measurement of image sizes |f(A_1 x ... x A_k)| over finite sets.

The image is computed by exhaustive enumeration of the grid with exact
arithmetic, collecting values into a deduplicating set.  Rational values
hash by their canonical lowest-terms integer pair (the ``Fraction``
contract, consistent with plain ``int``), so no collision can corrupt a
count.

With D_i the lcm of the denominators in A_i and c that of the
coefficients, the sweep enumerates the integer grid
D_1*A_1 x ... x D_k*A_k under F(y) = D * f(y_1/D_1, ..., y_k/D_k), where
D = c * prod D_i^deg_i(f) makes every coefficient of F an integer.
Dividing by D is injective, so :func:`image_size` counts the values of F
in integers; only :func:`image_values` divides each distinct value by D,
once at the end.  No other module clears a grid.

The sweep runs in one process and does not recurse.  The innermost
variable is the one with the most distinct values (then of lowest degree
in f, then in the fewest terms, then of lowest index); a variable f does
not contain drops out.  The outer variables are substituted one at a
time, with C-level ``map`` over tiled columns: a row holds the
coefficients of f in the variables left, and rows an earlier prefix gave
are dropped, so on intervals and geometric progressions, where partial
sums repeat, few rows are left.  The last rows, coefficients of
polynomials in the innermost variable, are grouped by their nonconstant
part, each group holding a set of constants.  Each part is evaluated
once over the innermost set, parts with equal constant sets are merged,
and the constants are added from the smaller side.  On random sets few
rows repeat, so the largest set goes innermost.

Fitted growth exponents (least squares on log-log data) are compared to
the theoretical exponent (5r - 4) / (2r) attached to a polynomial of rank
r; the fit is a desk-scale trend indicator, not a proof of anything.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from collections import defaultdict
from itertools import chain, repeat
from operator import add as _add, mul as _mul
from typing import Sequence

from .parsing import parse
from .poly import Polynomial, Scalar, VarSet, _cleared, _over
from .rank import rank

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """The requested grid has more tuples than the evaluation budget."""


def _check_budget(tuples: int, budget: int) -> None:
    """Refuse a grid of ``tuples`` tuples when that is over ``budget``."""
    if tuples > budget:
        raise BudgetExceededError(f"grid has {tuples} tuples, over the budget of {budget}")


def theoretical_exponent(r: int) -> Fraction:
    """The growth exponent (5r - 4) / (2r) attached to rank r >= 1."""
    if r < 1:
        raise ValueError(f"the exponent formula needs rank >= 1, got {r}")
    return Fraction(5 * r - 4, 2 * r)


SET_KINDS = ("interval", "geometric", "random_int")


def generate_set(kind: str, n: int, seed: int = 0) -> tuple[int, ...]:
    """The sorted set of n distinct integers that recipe ``kind``, one of
    :data:`SET_KINDS`, gives: 1..n, the powers 2^0..2^(n-1), or n values
    drawn without replacement from 0..n^3 by ``random.Random(seed)``,
    where :func:`draw_sets` passes set i the seed ``seed * 7919 + i``."""
    if n < 1:
        raise ValueError("set size must be >= 1")
    if kind == "interval":
        return tuple(range(1, n + 1))
    if kind == "geometric":
        return tuple(1 << i for i in range(n))
    if kind == "random_int":
        return tuple(sorted(random.Random(seed).sample(range(0, n**3 + 1), n)))
    raise ValueError(f"unknown set kind {kind!r}")


def draw_sets(kind: str, n: int, count: int, seed: int = 0) -> list[tuple[int, ...]]:
    """``count`` sets of recipe ``kind`` and size n, one per variable: set i
    is ``generate_set(kind, n, seed * 7919 + i)``.  This stream rule is
    the library's only one, so a seed names the same sets in every
    command that draws them."""
    return [generate_set(kind, n, seed * 7919 + i) for i in range(count)]


def _column(pairs: Sequence[tuple[int, int]], powers: dict[int, list[int]], n: int) -> list[int]:
    """``sum(c * v**e for e, c in pairs)`` for each of the n values v whose
    powers ``powers[e]`` lists, evaluated column-wise in C-level ``map``."""
    out: list[int] = [0] * n
    for j, (e, c) in enumerate(pairs):
        scaled = map(c.__mul__, powers[e]) if e else repeat(c, n)
        out = list(scaled) if j == 0 else list(map(_add, out, scaled))
    return out


def _groups(terms: dict[tuple[int, ...], int], outer: Sequence[Sequence[int]]) -> tuple[list[int], dict]:
    """Substitute the outer variables of ``terms`` one at a time, and group
    the rows left (see the module docstring) by their nonconstant
    coefficients in the innermost variable.  Returns the innermost
    exponents > 0, in key order, and {key: set of constants}."""
    columns: dict[tuple[int, ...], Sequence[int]] = {m: (c,) for m, c in terms.items()}
    for p, values in enumerate(outer):
        if p:  # a row an earlier prefix gave adds no values
            columns = dict(zip(columns, zip(*set(zip(*columns.values())))))
        rest: dict[tuple[int, ...], list[int]] = {}
        for (e, *m), column in columns.items():
            # each row once per value of this variable, in that order
            run = list(chain.from_iterable(map(repeat, column, repeat(len(values)))))
            if e:
                run = list(map(_mul, run, [v**e for v in values] * len(column)))
            acc = rest.get(tuple(m))
            rest[tuple(m)] = run if acc is None else list(map(_add, acc, run))
        columns = rest
    consts = columns.pop((0,), None) or [0] * len(next(iter(columns.values())))
    exponents = sorted(e for (e,) in columns)
    groups: defaultdict[tuple[int, ...], set[int]] = defaultdict(set)
    for key, const in zip(zip(*(columns[e,] for e in exponents)), consts):
        groups[key].add(const)
    return exponents, groups


def _integer_image(
    terms: dict[tuple[int, ...], int], outer: Sequence[Sequence[int]], inner: Sequence[int]
) -> set[int]:
    """Image of an integer polynomial over an integer grid.  ``terms`` has
    exponent tuples in sweep order, the outer variables first and the
    innermost last; ``outer`` lists the distinct values of each outer
    variable and ``inner`` those of the innermost."""
    exponents, groups = _groups(terms, outer)  # its columns are freed before the image grows
    n = len(inner)
    inner_powers = {e: [v**e for v in inner] for e in exponents}
    # Parts sharing one set of constants are merged first: the image is the
    # union, over distinct constant sets C, of C + (values of those parts).
    merged: dict[frozenset[int], set[int]] = {}
    for key, consts in groups.items():
        part = [(e, c) for e, c in zip(exponents, key) if c]
        values = _column(part, inner_powers, n) if part else (0,)
        merged.setdefault(frozenset(consts), set()).update(values)
    out: set[int] = set()
    for consts, values in merged.items():
        few, many = (consts, values) if len(consts) <= len(values) else (values, consts)
        for c in few:
            out.update(map(c.__add__, many) if c else many)
    return out


def _cleared_grid(f: Polynomial, sets: Sequence[Sequence[Scalar]], budget: int) -> tuple[Polynomial, Sequence, int]:
    """``(F, grids, D)`` with F(y) = D * f(y_1 / D_1, ..., y_k / D_k) over
    the integer grids D_i * A_i (see the module docstring); ``(f, sets, 1)``
    when both are integral already.  Checks the grid against ``budget``.
    Private to :func:`image_values` and :func:`image_size`."""
    k = f.vars.k
    if len(sets) != k:
        raise ValueError(f"need {k} sets, got {len(sets)}")
    if not all(sets):
        raise ValueError("empty input set")
    _check_budget(math.prod(map(len, sets)), budget)
    if Fraction not in map(type, f.terms.values()) and not any(Fraction in map(type, s) for s in sets):
        return f, sets, 1
    degrees = [max((m[i] for m in f.terms), default=0) for i in range(k)]
    cleared = [_cleared(s) for s in sets]  # (D_i * A_i, D_i)
    coeffs, scale = _cleared(f.terms.values())
    scale *= math.prod(d**e for (_, d), e in zip(cleared, degrees))
    terms = {m: c * math.prod(d ** (e - m_i) for (_, d), e, m_i in zip(cleared, degrees, m))
             for m, c in zip(f.terms, coeffs)}
    return Polynomial._raw(f.vars, terms), [grid for grid, _ in cleared], scale


def image_values(
    f: Polynomial,
    sets: Sequence[Sequence[Scalar]],
    budget: int = DEFAULT_BUDGET,
) -> set:
    """The exact image set {f(a_1, ..., a_k) : a_i in A_i}.

    Values are ``int`` when integral and ``Fraction`` otherwise.
    """
    f, grids, scale = _cleared_grid(f, sets, budget)
    if f.is_zero:
        return {0}
    k = f.vars.k
    degrees = [max(m[i] for m in f.terms) for i in range(k)]
    active = [i for i in range(k) if degrees[i]]  # f ignores the others
    if not active:
        return set(f.terms.values()) if scale == 1 else {_over(c, scale) for c in f.terms.values()}

    # Innermost: the most distinct values, then the lowest degree, then the
    # fewest terms, then the lowest index; the others keep their order.
    values = {i: list(dict.fromkeys(grids[i])) for i in active}
    inner = min(active, key=lambda i: (-len(values[i]), degrees[i], sum(1 for m in f.terms if m[i]), i))
    order = [i for i in active if i != inner] + [inner]
    terms = {tuple(m[i] for i in order): c for m, c in f.terms.items()}
    out = _integer_image(terms, [values[i] for i in order[:-1]], values[inner])
    return out if scale == 1 else set(map(_over, out, repeat(scale)))


def image_size(
    f: Polynomial,
    sets: Sequence[Sequence[Scalar]],
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """Exact cardinality of the image of the grid under f.

    Dividing by D is injective, so this counts the image of F in integers.
    ``workers`` is accepted for compatibility and ignored (one process).
    """
    f, grids, _ = _cleared_grid(f, sets, budget)
    return len(image_values(f, grids, budget=budget))


def _check_fit_points(count: int) -> None:
    if count < 3:
        raise ValueError("exponent fit needs at least 3 data points")


def fit_exponent(rows: Sequence[tuple[int, int]]) -> float:
    """Least-squares slope of log(image size) against log(n)."""
    _check_fit_points(len(rows))
    xs = [math.log(n) for n, _ in rows]
    ys = [math.log(size) for _, size in rows]
    return statistics.linear_regression(xs, ys).slope


@dataclass(frozen=True)
class ExpansionReport:
    poly: str
    rank: int
    rows: tuple[tuple[int, int, float], ...]  # (n, image_size, elapsed seconds)
    fitted_exponent: float
    theoretical_exponent: Fraction
    lower_bound_respected: bool
    generator: str
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly,
            "rank": self.rank,
            "theoretical_exponent": str(self.theoretical_exponent),
            "fitted_exponent": self.fitted_exponent,
            "lower_bound_respected": self.lower_bound_respected,
            "generator": self.generator,
            "seed": self.seed,
        }

    def to_csv_text(self) -> str:
        lines = ["n,image_size,elapsed_ms"]
        for n, size, elapsed in self.rows:
            lines.append(f"{n},{size},{elapsed * 1000.0:.3f}")
        return "\n".join(lines) + "\n"


def expansion_report(
    f: Polynomial,
    generator: str,
    n_list: Sequence[int],
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ExpansionReport:
    """Measure |f(A_1, ..., A_k)| for each n in ``n_list`` and fit the
    growth exponent.

    ``generator`` names the set recipe, one of :data:`SET_KINDS`, and
    :func:`draw_sets` draws the k sets of each size from ``seed``.  The
    ``lower_bound_respected`` flag checks the largest measurement against
    n^(theoretical - 0.25); the 0.25 slack absorbs the unspecified
    constant, so the flag is a sanity indicator, not a test of the bound.
    Every size's grid of n^k tuples is checked against ``budget`` before
    f is ranked or any set drawn.
    """
    if list(n_list) != sorted(set(n_list)) or not n_list:
        raise ValueError("n_list must be nonempty and strictly increasing")
    _check_fit_points(len(n_list))
    for n in n_list:
        _check_budget(n**f.vars.k, budget)
    report = rank(f, seed=seed)
    r = report.overall
    theo = theoretical_exponent(r)
    rows = []
    for n in n_list:
        sets = draw_sets(generator, n, f.vars.k, seed)
        started = time.perf_counter()
        size = image_size(f, sets, budget=budget)
        rows.append((n, size, time.perf_counter() - started))
    fitted = fit_exponent([(n, size) for n, size, _ in rows])
    n_max, size_max, _ = rows[-1]
    respected = size_max >= n_max ** (float(theo) - 0.25)
    return ExpansionReport(
        poly=str(f),
        rank=r,
        rows=tuple(rows),
        fitted_exponent=fitted,
        theoretical_exponent=theo,
        lower_bound_respected=respected,
        generator=generator,
        seed=seed,
    )


def degenerate_demo(k: int, n: int, seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    """Exhibit a (k+2)-variate polynomial that expands no faster than a
    trivariate one.

    f(x, y, z_1, ..., z_k) = x*y + z_1 + ... + z_k over random A, B and
    interval sets C_i = {1..n} has exactly the same image as
    g(x, y, z) = x*y + z over A, B and the sumset C_1 + ... + C_k =
    {k, ..., k*n}.  Both images are computed exhaustively and compared.
    The grid of n^(k+2) tuples is checked against ``budget`` before any set
    is drawn.
    """
    if k < 1:
        raise ValueError("need k >= 1 auxiliary variables")
    if n < 1:
        raise ValueError("need n >= 1")
    _check_budget(n ** (k + 2), budget)
    zs = tuple(f"z{i}" for i in range(1, k + 1))
    f = parse(" + ".join(("x*y",) + zs), VarSet(("x", "y") + zs))

    a, b = draw_sets("random_int", n, 2, seed)
    interval = generate_set("interval", n)
    full_image = image_values(f, [a, b] + [interval] * k, budget=budget)

    g = parse("x*y + z", VarSet(("x", "y", "z")))
    sumset = tuple(range(k, k * n + 1))
    reduced_image = image_values(g, [a, b, sumset], budget=budget)

    return {
        "k": k,
        "n": n,
        "seed": seed,
        "image_size_full": len(full_image),
        "image_size_reduced": len(reduced_image),
        "equal": full_image == reduced_image,
        "sumset_size": len(sumset),
    }
