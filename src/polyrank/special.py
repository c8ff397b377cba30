"""Detection of rank-1 special forms via separated-derivative identities.

A polynomial that depends on every one of its k >= 3 variables has rank 1
exactly when it is a univariate composition of a sum or of a product of
univariate polynomials, i.e. h(p_1(x_1) + ... + p_k(x_k)) or
h(p_1(x_1) * ... * p_k(x_k)).  Such polynomials satisfy two families of
derivative identities, both checkable with pure polynomial arithmetic
after clearing denominators:

* independence: the ratio (df/dx_i) / (df/dx_j) does not involve any third
  variable x_m, equivalently

      (d2f/dx_i dx_m) * (df/dx_j) - (df/dx_i) * (d2f/dx_j dx_m) == 0

* separation: the mixed logarithmic derivative of the same ratio in x_i
  and x_j vanishes, equivalently, with g = df/dx_i and h = df/dx_j,

      (g * g_ij - g_i * g_j) * h^2 == (h * h_ij - h_i * h_j) * g^2

  where subscripts denote further partials in x_i and x_j.

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
3. The identities left read their derivatives from one table per
   verdict, keyed by the sorted multi-index (f_i, f_ij, f_iij, ...).  The
   table is built on the cleared multiple D*f, D the lcm of f's
   coefficient denominators, unless the prime 2^61 - 1 divides D.  Both
   identities are homogeneous in f, of degree 2 and 4, so clearing
   changes no verdict, and the derivatives have integer coefficients.
   Every identity is evaluated at the same seeded random integer points,
   drawn for the one degree bound 4 * deg f, which bounds the degree of
   every identity's sides; each distinct derivative is evaluated once per
   point.  Values are residues modulo the prime (exact rationals when it
   divides D), and a mismatch proves the sides differ (Schwartz-Zippel).
   The default ``exact`` mode uses one point, a ``randomized`` mode 20,
   and a match everywhere is then the probabilistic verdict "identical".
4. In ``exact`` mode the identities that survive are expanded
   symbolically and their sides compared, on a restriction that the
   passes certify.  Both sides differ by a power of f_i and f_j times a
   derivative of the ratio f_i / f_j: g^2 h^2 d_i d_j log(g / h) for
   separation, f_j^2 d_m (f_i / f_j) for independence.  Every pass at a
   pivot x_m other than the identity's own variables makes that ratio,
   and so its derivative, free of x_m (step 2).  Fixing all those x_m to
   the first c in 0, 1, -1, 2, -2 that leaves f_i and f_j nonzero
   therefore leaves the difference zero exactly when it was zero, and
   only the restricted factors are expanded.  When no c does, or no pass
   applies, the identity is expanded over all variables.

No attempt is made to recover the composition (h, p_1, ..., p_k) or to
distinguish the additive from the multiplicative shape; the verdict only
reports whether the polynomial is special.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection, Iterable

from .poly import Polynomial, Scalar
from .rank import POLYNOMIALS, RATIONALS, PolyMatrix, Ring, _cleared_multiple, bareiss, rank, sample_point, trial_values

#: Trials used by the randomized identity mode.
RANDOMIZED_IDENTITY_TRIALS = 20

#: A sorted multi-index of variable names: ("x1", "x1", "x2") is d3f/dx1^2 dx2.
Key = tuple[str, ...]


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


def _degree_or_zero(p: Polynomial) -> int:
    d = p.total_degree()
    return d if isinstance(d, int) else 0


class _Derivatives:
    """The partial derivatives of f and their values at seeded points, each
    computed once.

    f is cleared to D*f unless PRIME divides D, as rank does; a derivative
    is keyed by its sorted multi-index and built from the one whose key
    drops the last name.  Trial t evaluates at
    ``sample_point(seed, t, k, 4 * deg f)``.
    """

    def __init__(self, f: Polynomial, seed: int):
        # With PRIME dividing D, f stays as given and every value is exact:
        # some of its derivatives have residues and some do not.
        f, _, self._modular = _cleared_multiple(f)
        self._polys: dict[Key, Polynomial] = {(): f}
        self._seed = seed
        self._degree = 4 * _degree_or_zero(f)
        self._trials: dict[int, tuple[list[int], dict[Key, Scalar]]] = {}
        # The ring of every value: ``trial_values`` picks the same one for
        # every batch of derivatives with integer coefficients.
        self._ring: Ring = RATIONALS

    def __getitem__(self, key: Iterable[str]) -> Polynomial:
        key = tuple(sorted(key))
        p = self._polys.get(key)
        if p is None:
            p = self._polys[key] = self[key[:-1]].partial(key[-1])
        return p

    def values(self, trial: int, keys: Iterable[Key]) -> tuple[list[Scalar], Ring]:
        """The values of the derivatives ``keys`` at the point of ``trial``,
        and the ring they live in."""
        keys = [tuple(sorted(key)) for key in keys]
        if trial not in self._trials:
            base = self._polys[()]
            self._trials[trial] = (sample_point(self._seed, trial, base.vars.k, self._degree), {})
        point, known = self._trials[trial]
        missing = [key for key in dict.fromkeys(keys) if key not in known]
        if missing:
            polys = [self[key] for key in missing]
            if self._modular:
                values, self._ring = trial_values(polys, point)
            else:
                values = [p.eval(point) for p in polys]
            known.update(zip(missing, values))
        return [known[key] for key in keys], self._ring


#: The values tried, in order, for the variables an exact identity is
#: restricted on.
_RESTRICTION_VALUES = (0, 1, -1, 2, -2)


def _identity_holds(
    table: _Derivatives, keys: tuple[Key, ...], sides: Callable[..., tuple], method: str,
    fixed: Collection[str] = (),
) -> bool:
    """Are the two sides ``sides(*factors)`` equal, the factors being the
    derivatives ``keys`` of ``table``?

    Both methods first apply ``sides`` to the factors' values at the
    table's seeded points; a mismatch proves the sides differ.  ``exact``
    uses one point (trial 0 of ``randomized``) and then compares the
    expanded symbolic sides, so only identities that survive the point are
    expanded.  ``randomized`` uses ``RANDOMIZED_IDENTITY_TRIALS`` points
    and expands nothing.

    ``fixed`` names variables that the ratio of the order-one factors f_i
    and f_j is certified free of.  ``exact`` then expands the factors with
    every ``fixed`` variable set to the first of ``_RESTRICTION_VALUES``
    that leaves f_i and f_j nonzero, over all variables if none does (see
    the module docstring).
    """
    _check_identity_method(method)
    trials = 1 if method == "exact" else RANDOMIZED_IDENTITY_TRIALS
    for t in range(trials):
        values, ring = table.values(t, keys)
        lhs, rhs = sides(*values)
        if not ring.is_zero(lhs - rhs):
            return False
    if method == "randomized":
        return True
    factors = _restriction({key: table[key] for key in keys}, fixed)
    lhs, rhs = sides(*(factors[key] for key in keys))
    return lhs == rhs


def _restriction(factors: dict[Key, Polynomial], fixed: Collection[str]) -> dict[Key, Polynomial]:
    """``factors`` with every ``fixed`` variable set to the first of
    ``_RESTRICTION_VALUES`` that leaves each order-one factor nonzero, or
    unchanged if none does."""
    for c in _RESTRICTION_VALUES:
        bindings = dict.fromkeys(fixed, c)
        restricted = {key: p.substitute(bindings) for key, p in factors.items()}
        if not any(p.is_zero for key, p in restricted.items() if len(key) == 1):
            return restricted
    return factors


def ratio_independent_of(
    f: Polynomial, i: str, j: str, m: str, method: str = "exact", seed: int = 0,
    *, _table: _Derivatives | None = None, _fixed: Collection[str] = (),
) -> bool:
    """Does (df/dx_i)/(df/dx_j) not involve x_m?

    Tested as the cleared-denominator identity
    (d2f/di dm) * (df/dj) == (df/di) * (d2f/dj dm) on D*f (see the module
    docstring).  ``is_special`` passes its verdict's derivative table as
    ``_table``; a call without one builds its own for f and ``seed``.  It
    also passes as ``_fixed`` the pivots other than x_i, x_j, x_m whose
    rank certificate makes the ratio free of them; ``exact`` mode expands
    the identity with those variables fixed to a constant.
    """
    if len({i, j, m}) != 3:
        raise ValueError(f"variables must be distinct, got ({i}, {j}, {m})")
    table = _Derivatives(f, seed) if _table is None else _table
    if table[(j,)].is_zero:
        raise ValueError(f"denominator derivative d/d{j} is zero")
    return _identity_holds(table, ((i, m), (j,), (i,), (j, m)), _independence_sides, method, _fixed)


def _independence_sides(fi_m, fj, fi, fj_m):
    return fi_m * fj, fi * fj_m


def ratio_separated(
    f: Polynomial, i: str, j: str, method: str = "exact", seed: int = 0,
    *, _table: _Derivatives | None = None, _fixed: Collection[str] = (),
) -> bool:
    """Does the ratio (df/dx_i)/(df/dx_j) split into x_i-part / x_j-part?

    Equivalent to the mixed second logarithmic derivative in (x_i, x_j)
    vanishing; tested after clearing denominators as
    (g*g_ij - g_i*g_j) * h^2 == (h*h_ij - h_i*h_j) * g^2 on D*f, with
    g = df/dx_i, h = df/dx_j, and ``_table`` and ``_fixed`` (here the
    certified pivots other than x_i, x_j) as in
    :func:`ratio_independent_of`.
    """
    if i == j:
        raise ValueError("variables must be distinct")
    table = _Derivatives(f, seed) if _table is None else _table
    if table[(i,)].is_zero or table[(j,)].is_zero:
        raise ValueError("both partial derivatives must be nonzero")
    keys = ((i,), (i, i, j), (i, i), (i, j), (j,), (i, j, j), (i, j), (j, j))
    return _identity_holds(table, keys, _separation_sides, method, _fixed)


def _separation_sides(g, g_ij, g_i, g_j, h, h_ij, h_i, h_j):
    return (g * g_ij - g_i * g_j) * (h * h), (h * h_ij - h_i * h_j) * (g * g)


def is_special(f: Polynomial, method: str = "exact", seed: int = 0) -> SpecialFormVerdict:
    """Full special-form verdict for a polynomial in at least 3 variables.

    ``rank1`` is the exact certificate: every pivot passes the rank <= 1
    test of the Jacobian that one randomized rank trial per pivot built,
    after that trial has screened out the pivots it proves to have rank 2
    or more.  ``special`` is ``rank1`` on a polynomial that depends on
    every variable.  The pair checks are the per-pair report: identities
    the passes certify hold, and the rest read one derivative table, are
    refuted at the verdict's seeded points modulo a prime and, in
    ``exact`` mode, expanded if they survive, with the variables of the
    other passes fixed (see the module docstring).
    """
    _check_identity_method(method)
    if f.vars.k < 3:
        raise ValueError("special-form detection needs at least 3 variables")
    names = f.vars.names
    table = _Derivatives(f, seed)
    if any(table[(v,)].is_zero for v in names):
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
