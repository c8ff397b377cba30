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

``is_special`` decides them in this order:

1. One randomized rank trial per pivot x_m screens the Jacobian J_m of
   the coefficient map in x_m; a rank of 2 or more there is proved.
2. Each pivot the screen puts at rank <= 1 gets an exact test that J_m
   has rank <= 1.  ``rank1`` is a pass at every pivot: J_m is never zero
   when f depends on every variable (f would involve x_m alone), so the
   passes prove rank(f) = 1, and a screen at 2 or a failed test proves
   rank(f) >= 2.  A screen that misses a rank-2 pivot only sends it to
   the exact test, so no verdict depends on chance.  The passes also
   certify identities: rank J_m <= 1 makes f_i = Lambda(x_m, ...) * u_i
   for every i != m, so f_i / f_j = u_i / u_j is free of x_m;
   rank J_i, rank J_j <= 1 make f_i / f_j = (f_i / f_m) / (f_j / f_m) an
   x_j-free part over an x_i-free part, so its mixed logarithmic
   derivative vanishes.  When ``rank1`` holds every pair check is
   certified; the identities left make the per-pair report.
3. Each identity left is evaluated at seeded random integer points,
   comparing residues modulo the prime 2^61 - 1 (exact rationals when the
   prime divides a coefficient's denominator); a mismatch proves the
   sides differ (Schwartz-Zippel).  The default ``exact`` mode uses one
   point, a ``randomized`` mode 20, and a match everywhere is then the
   probabilistic verdict "identical".
4. In ``exact`` mode the identities that survive are expanded
   symbolically and their sides compared.

No attempt is made to recover the composition (h, p_1, ..., p_k) or to
distinguish the additive from the multiplicative shape; the verdict only
reports whether the polynomial is special.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .poly import Polynomial
from .rank import coefficient_map, jacobian, rank, sample_point, trial_values

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


def _identity_holds(
    factors: tuple[Polynomial, ...], sides: Callable[..., tuple], degree: int, method: str, seed: int
) -> bool:
    """Are the two sides ``sides(*factors)`` equal?

    Both methods first apply ``sides`` to the values of ``factors`` at
    seeded points drawn for ``degree``, the degree of the sides; a mismatch
    proves the sides differ.  ``exact`` uses one point (trial 0 of
    ``randomized``) and then compares the expanded symbolic sides, so only
    identities that survive the point are expanded.  ``randomized`` uses
    ``RANDOMIZED_IDENTITY_TRIALS`` points and expands nothing.
    """
    _check_identity_method(method)
    k = factors[0].vars.k
    trials = 1 if method == "exact" else RANDOMIZED_IDENTITY_TRIALS
    for t in range(trials):
        values, ring = trial_values(factors, sample_point(seed, t, k, degree))
        lhs, rhs = sides(*values)
        if not ring.is_zero(lhs - rhs):
            return False
    if method == "randomized":
        return True
    lhs, rhs = sides(*factors)
    return lhs == rhs


def ratio_independent_of(f: Polynomial, i: str, j: str, m: str, method: str = "exact", seed: int = 0) -> bool:
    """Does (df/dx_i)/(df/dx_j) not involve x_m?

    Tested as the cleared-denominator identity
    (d2f/di dm) * (df/dj) == (df/di) * (d2f/dj dm).
    """
    if len({i, j, m}) != 3:
        raise ValueError(f"variables must be distinct, got ({i}, {j}, {m})")
    fi = f.partial(i)
    fj = f.partial(j)
    if fj.is_zero:
        raise ValueError(f"denominator derivative d/d{j} is zero")
    factors = (fi.partial(m), fj, fi, fj.partial(m))
    degree = 2 * max(map(_degree_or_zero, factors))
    return _identity_holds(factors, _independence_sides, degree, method, seed)


def _independence_sides(fi_m, fj, fi, fj_m):
    return fi_m * fj, fi * fj_m


def _degree_or_zero(p: Polynomial) -> int:
    d = p.total_degree()
    return d if isinstance(d, int) else 0


def ratio_separated(f: Polynomial, i: str, j: str, method: str = "exact", seed: int = 0) -> bool:
    """Does the ratio (df/dx_i)/(df/dx_j) split into x_i-part / x_j-part?

    Equivalent to the mixed second logarithmic derivative in (x_i, x_j)
    vanishing; tested after clearing denominators as
    (g*g_ij - g_i*g_j) * h^2 == (h*h_ij - h_i*h_j) * g^2.
    """
    if i == j:
        raise ValueError("variables must be distinct")
    g = f.partial(i)
    h = f.partial(j)
    if g.is_zero or h.is_zero:
        raise ValueError("both partial derivatives must be nonzero")
    g_i, g_j = g.partial(i), g.partial(j)
    h_i, h_j = h.partial(i), h.partial(j)
    g_ij, h_ij = g_i.partial(j), h_i.partial(j)
    degree = 2 * (_degree_or_zero(g) + _degree_or_zero(h))
    return _identity_holds((g, g_ij, g_i, g_j, h, h_ij, h_i, h_j), _separation_sides, degree, method, seed)


def _separation_sides(g, g_ij, g_i, g_j, h, h_ij, h_i, h_j):
    return (g * g_ij - g_i * g_j) * (h * h), (h * h_ij - h_i * h_j) * (g * g)


def _rank_at_most_one(f: Polynomial, m: str) -> bool:
    """Is the exact rank of f's coefficient-map Jacobian in pivot ``m`` at
    most 1?

    Every 2x2 minor through the first nonzero entry must vanish; the test
    multiplies and never divides.  Entries before that one, in row-major
    order, are zero, so only the rows below it can break the rank.
    """
    rows = jacobian(coefficient_map(f, m)).entries
    pivot = next(((r, c) for r, row in enumerate(rows) for c, p in enumerate(row) if not p.is_zero), None)
    if pivot is None:
        return True
    pr, pc = pivot
    top, lead = rows[pr], rows[pr][pc]
    return all(
        lead * row[c] == top[c] * row[pc]
        for row in rows[pr + 1:]
        for c in range(len(row))
        if c != pc
    )


def is_special(f: Polynomial, method: str = "exact", seed: int = 0) -> SpecialFormVerdict:
    """Full special-form verdict for a polynomial in at least 3 variables.

    ``rank1`` is the exact certificate: every pivot passes the rank <= 1
    test of its Jacobian, after one randomized rank trial per pivot has
    screened out the pivots it proves to have rank 2 or more.  ``special``
    is ``rank1`` on a polynomial that depends on every variable.  The pair
    checks are the per-pair report: identities the passes certify hold,
    and the rest are refuted modulo a prime and, in ``exact`` mode,
    expanded if they survive (see the module docstring).
    """
    _check_identity_method(method)
    if f.vars.k < 3:
        raise ValueError("special-form detection needs at least 3 variables")
    dep = depends_on_all(f)
    if not dep:
        return SpecialFormVerdict(
            rank1=False, depends_on_all=False, pair_checks={}, verdict="degenerate"
        )
    names = f.vars.names
    screen = rank(f, method="randomized", trials=1, seed=seed)
    low = {m for m in names if screen.per_variable[m] <= 1 and _rank_at_most_one(f, m)}
    checks: dict[tuple[str, str], PairCheck] = {}
    for i, j in combinations(names, 2):
        indep = all(
            m in low or ratio_independent_of(f, i, j, m, method=method, seed=seed)
            for m in names
            if m not in (i, j)
        )
        sep = (i in low and j in low) or ratio_separated(f, i, j, method=method, seed=seed)
        checks[(i, j)] = PairCheck(independence_ok=indep, separation_ok=sep)
    rank1 = len(low) == len(names)
    verdict = "special" if rank1 else "not_special"
    return SpecialFormVerdict(
        rank1=rank1, depends_on_all=True, pair_checks=checks, verdict=verdict
    )
