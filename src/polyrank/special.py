"""Detection of rank-1 special forms via identities of first-order partials.

A polynomial that depends on every one of its k >= 3 variables has rank 1
exactly when it is a univariate composition of a sum or of a product of
univariate polynomials, i.e. h(p_1(x_1) + ... + p_k(x_k)) or
h(p_1(x_1) * ... * p_k(x_k)).  Such polynomials satisfy two families of
identities of R = P / Q, P = df/dx_i and Q = df/dx_j, stated with P and Q
at constants c, c' that leave every restricted factor nonzero:

* independence, R free of a third variable x_m, is R = R|_{x_m=c}:

      P * Q|_{x_m=c} == Q * P|_{x_m=c}

* separation, R an x_i-part times an x_j-part (d_i d_j log R = 0), is
  R * R|_{x_i=c',x_j=c} = R|_{x_j=c} * R|_{x_i=c'}:

      P * Q|_{x_j=c} * Q|_{x_i=c'} * P|_{x_i=c',x_j=c}
          == Q * P|_{x_j=c} * P|_{x_i=c'} * Q|_{x_i=c',x_j=c}

  If d_j log R does not involve x_i, R / R|_{x_i=c'} is free of x_j,
  which gives the equation; conversely, it writes R as such a product.

``is_special`` decides them in this order, building each object once:

1. One randomized rank trial per pivot x_m screens the Jacobian J_m of
   the coefficient map in x_m; a rank of 2 or more there is proved.  The
   screen hands the Jacobians it built to the verdict; its report keeps
   none.
2. Each pivot the screen puts at rank <= 1 gets an exact test that the
   screen's J_m has rank <= 1: rank's Bareiss elimination over the
   polynomial ring.  At k = 3, J_m has two columns, so only its first,
   division-free step eliminates anything; at k >= 4 a pivot the screen
   wrongly put at <= 1 runs the full exact elimination.  ``rank1`` is a
   pass at every pivot: J_m is never zero when f depends on every
   variable (f would involve x_m alone), so the passes prove rank(f) = 1,
   and a screen at 2 or a failed test proves rank(f) >= 2.  A screen that
   misses a rank-2 pivot only sends it to the exact test, so no verdict
   depends on chance.  The passes also certify identities:
   rank J_m <= 1 makes f_i = Lambda(x_m, ...) * u_i for every i != m, so
   f_i / f_j = u_i / u_j is free of x_m; rank J_i, rank J_j <= 1 make
   f_i / f_j = (f_i / f_m) / (f_j / f_m) an x_j-free part over an x_i-free
   part, so its mixed logarithmic derivative vanishes.  When ``rank1``
   holds every pair check is certified; the identities left make the
   per-pair report.
3. The identities left read P and Q under restrictions from one table
   per verdict, built on the cleared multiple D*f, D the lcm of f's
   coefficient denominators, as rank clears f (both identities are
   homogeneous in f, so clearing changes no verdict).  One chooser takes
   each constant as the first of 0, 1, -1, 2, -2, ... that leaves every
   restricted factor nonzero; it always ends, since a nonzero factor
   vanishes at no more constants than its degree.  The passes restrict
   the identities further: a pass at a pivot x_m other than the
   identity's own variables makes R free of x_m (step 2), so x_m is fixed
   through the same chooser and no verdict changes.
4. Every identity is evaluated at the same seeded random integer points,
   drawn for the one degree bound 4 * deg f, which bounds the degree of
   every side; a restricted factor's value is f_v at the point with its
   restricted coordinates set, computed once.  As in rank's trials on
   D*f, values are residues modulo the prime 2^61 - 1, or exact rationals
   when it divides D; a mismatch proves the sides differ
   (Schwartz-Zippel).  The default ``exact`` mode uses one point and then
   expands the restricted sides of the identities that survive; a
   ``randomized`` mode uses 20 points, and a match everywhere is then the
   probabilistic verdict "identical".

No attempt is made to recover the composition (h, p_1, ..., p_k) or to
distinguish the additive from the multiplicative shape; the verdict only
reports whether the polynomial is special.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Collection

from .poly import Polynomial, Scalar
from .rank import MOD_PRIME, POLYNOMIALS, RATIONALS, PolyMatrix, _cleared_multiple, bareiss, rank, sample_point

#: Trials used by the randomized identity mode.
RANDOMIZED_IDENTITY_TRIALS = 20


@dataclass(frozen=True)
class PairCheck:
    independence_ok: bool
    separation_ok: bool


@dataclass(frozen=True)
class SpecialFormVerdict:
    """Outcome of the special-form test.

    ``verdict`` is one of ``special``, ``not_special``, ``degenerate``;
    degenerate means the polynomial does not depend on all its variables,
    so the characterization does not apply.
    """

    rank1: bool
    depends_on_all: bool
    pair_checks: dict[tuple[str, str], PairCheck]
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "rank1": self.rank1,
            "depends_on_all": self.depends_on_all,
            "pairs": [
                {
                    "i": i,
                    "j": j,
                    "independence_ok": check.independence_ok,
                    "separation_ok": check.separation_ok,
                }
                for (i, j), check in sorted(self.pair_checks.items())
            ],
            "verdict": self.verdict,
        }


def depends_on_all(f: Polynomial) -> bool:
    """True iff every partial derivative of f is nonzero."""
    return all(not f.partial(v).is_zero for v in f.vars)


def _check_identity_method(method: str) -> None:
    if method not in ("exact", "randomized"):
        raise ValueError(f"unknown identity method {method!r} (expected 'exact' or 'randomized')")


#: A restriction: the (variable, constant) pairs it fixes.
Restriction = frozenset[tuple[str, int]]


class _Derivatives:
    """The partials f_v of f under restrictions, and their values at seeded
    points, each computed once.

    f is cleared to D*f as rank clears it, and the values live in the ring
    of rank's trials on D*f: Z/PRIME, or Q when PRIME divides D.  Trial t
    evaluates at ``sample_point(seed, t, k, 4 * deg f)`` with the
    restricted coordinates set.
    """

    def __init__(self, f: Polynomial, seed: int):
        self._f, _, self._modulus = _cleared_multiple(f)
        self.ring = MOD_PRIME if self._modulus else RATIONALS
        self._seed = seed
        self.degree = 4 * max(self._f.total_degree(), 0)
        self._polys: dict[tuple[str, Restriction], Polynomial] = {}
        self._points: dict[int, list[int]] = {}
        self._values: dict[tuple[int, str, Restriction], Scalar] = {}

    def poly(self, v: str, r: Restriction = frozenset()) -> Polynomial:
        """f_v with the variables of ``r`` fixed."""
        p = self._polys.get((v, r))
        if p is None:
            p = self._polys[v, r] = self.poly(v).substitute(dict(r)) if r else self._f.partial(v)
        return p

    def value(self, trial: int, v: str, r: Restriction) -> Scalar:
        """The value of f_v under ``r`` at the point of ``trial``."""
        value = self._values.get((trial, v, r))
        if value is None:
            if trial not in self._points:
                self._points[trial] = sample_point(self._seed, trial, self._f.vars.k, self.degree)
            point = list(self._points[trial])
            for name, c in r:
                point[self._f.vars.index(name)] = c
            value = self._values[trial, v, r] = self.poly(v).eval(point, self._modulus)
        return value


def _bind(table: _Derivatives, i: str, j: str, restrictions: list[Restriction], name: str) -> list[Restriction]:
    """``restrictions`` with ``name`` fixed to the first of 0, 1, -1, 2, -2,
    ... that leaves f_i and f_j, where nonzero, nonzero under each of them.

    A nonzero value at trial 0 proves a factor nonzero; only a zero value
    gets it substituted.  The at most four factors are nonzero before
    ``name`` is fixed, and each vanishes at fewer than deg f constants, so
    one of the first 4 * deg f is found.
    """
    factors = [v for v in (i, j) if not table.poly(v).is_zero]
    for n in range(table.degree):
        c = (n + 1) // 2 if n % 2 else -(n // 2)
        bound = [r | {(name, c)} for r in restrictions]
        if all(table.value(0, v, r) or not table.poly(v, r).is_zero for r in bound for v in factors):
            return bound
    raise AssertionError(f"no constant for {name} leaves f_{i} and f_{j} nonzero")


def _identity_holds(
    table: _Derivatives, i: str, j: str, own: tuple[str, ...], method: str, fixed: Collection[str] = (),
) -> bool:
    """Does R = f_i / f_j satisfy prod_S R|_S^((-1)^|S|) = 1, S over the
    subsets of ``own`` and R|_S fixing them?

    ``own`` = (x_m,) states independence of x_m, (x_j, x_i) separation;
    cleared of denominators, each side is a ``_sides`` product of factors
    f_i|_S and f_j|_S.  Each variable of ``fixed``, then of ``own``, gets
    its constant from ``_bind``; R is certified free of ``fixed``, so
    fixing it changes no verdict (see the module docstring).

    Both methods first compare the sides' values at the table's seeded
    points; a mismatch proves the sides differ.  ``exact`` uses one point
    (trial 0 of ``randomized``) and then expands the restricted sides of
    the identities that survive it.  ``randomized`` uses
    ``RANDOMIZED_IDENTITY_TRIALS`` points and expands nothing.
    """
    _check_identity_method(method)
    restrictions = [frozenset()]
    for name in sorted(fixed):
        restrictions = _bind(table, i, j, restrictions, name)
    for name in own:
        restrictions += _bind(table, i, j, restrictions, name)
    # f_i|_S goes left when |S| is even, f_j|_S when it is odd
    odd = [(len(r) - len(fixed)) % 2 for r in restrictions]
    keys = ([(j if o else i, r) for r, o in zip(restrictions, odd)]
            + [(i if o else j, r) for r, o in zip(restrictions, odd)])
    for t in range(1 if method == "exact" else RANDOMIZED_IDENTITY_TRIALS):
        lhs, rhs = _sides([table.value(t, v, r) for v, r in keys])
        if not table.ring.is_zero(lhs - rhs):
            return False
    if method == "randomized":
        return True
    lhs, rhs = _sides([table.poly(v, r) for v, r in keys])
    return lhs == rhs


def _sides(factors: list) -> tuple:
    """The products of the two halves of ``factors``."""
    n = len(factors) // 2
    return reduce(mul, factors[:n]), reduce(mul, factors[n:])


def ratio_independent_of(
    f: Polynomial, i: str, j: str, m: str, method: str = "exact", seed: int = 0,
    *, _table: _Derivatives | None = None, _fixed: Collection[str] = (),
) -> bool:
    """Does (df/dx_i)/(df/dx_j) not involve x_m?

    Tested on D*f as P * Q|_{x_m=c} == Q * P|_{x_m=c}, P = df/dx_i and
    Q = df/dx_j (see the module docstring).  ``is_special`` passes its
    verdict's table as ``_table``, and as ``_fixed`` the pivots other than
    x_i, x_j, x_m whose rank certificate makes the ratio free of them.
    """
    if len({i, j, m}) != 3:
        raise ValueError(f"variables must be distinct, got ({i}, {j}, {m})")
    table = _Derivatives(f, seed) if _table is None else _table
    if table.poly(j).is_zero:
        raise ValueError(f"denominator derivative d/d{j} is zero")
    return _identity_holds(table, i, j, (m,), method, _fixed)


def ratio_separated(
    f: Polynomial, i: str, j: str, method: str = "exact", seed: int = 0,
    *, _table: _Derivatives | None = None, _fixed: Collection[str] = (),
) -> bool:
    """Does the ratio (df/dx_i)/(df/dx_j) split into x_i-part * x_j-part?

    Tested on D*f as the separation identity of the module docstring, with
    ``_table`` and ``_fixed`` (here the certified pivots other than x_i,
    x_j) as in :func:`ratio_independent_of`.
    """
    if i == j:
        raise ValueError("variables must be distinct")
    table = _Derivatives(f, seed) if _table is None else _table
    if table.poly(i).is_zero or table.poly(j).is_zero:
        raise ValueError("both partial derivatives must be nonzero")
    return _identity_holds(table, i, j, (j, i), method, _fixed)


def is_special(f: Polynomial, method: str = "exact", seed: int = 0) -> SpecialFormVerdict:
    """Full special-form verdict for a polynomial in at least 3 variables.

    ``rank1`` is the exact certificate: every pivot passes the rank <= 1
    test of the Jacobian that one randomized rank trial per pivot built,
    after that trial has screened out the pivots it proves to have rank 2
    or more.  ``special`` is ``rank1`` on a polynomial that depends on
    every variable.  The pair checks are the per-pair report: identities
    the passes certify hold, and the rest read f_i and f_j at constant
    restrictions from one table, with the variables of the other passes
    fixed too, are refuted at the verdict's seeded points modulo a prime
    and, in ``exact`` mode, expanded if they survive (see the module
    docstring).
    """
    _check_identity_method(method)
    if f.vars.k < 3:
        raise ValueError("special-form detection needs at least 3 variables")
    names = f.vars.names
    table = _Derivatives(f, seed)
    if any(table.poly(v).is_zero for v in names):
        return SpecialFormVerdict(
            rank1=False, depends_on_all=False, pair_checks={}, verdict="degenerate"
        )
    jacobians: dict[str, PolyMatrix] = {}
    screen = rank(f, method="randomized", trials=1, seed=seed, _jacobians=jacobians)
    low = {m for m in names if screen.per_variable[m] <= 1
           and bareiss([list(row) for row in jacobians[m].entries], POLYNOMIALS)[0] <= 1}
    checks: dict[tuple[str, str], PairCheck] = {}
    for i, j in combinations(names, 2):
        indep = all(
            m in low or ratio_independent_of(f, i, j, m, method=method, seed=seed, _table=table,
                                             _fixed=low - {i, j, m})
            for m in names
            if m not in (i, j)
        )
        sep = (i in low and j in low) or ratio_separated(f, i, j, method=method, seed=seed, _table=table,
                                                         _fixed=low - {i, j})
        checks[(i, j)] = PairCheck(independence_ok=indep, separation_ok=sep)
    rank1 = len(low) == len(names)
    verdict = "special" if rank1 else "not_special"
    return SpecialFormVerdict(
        rank1=rank1, depends_on_all=True, pair_checks=checks, verdict=verdict
    )
