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

Identity testing is fully symbolic by default.  For large inputs a
randomized mode evaluates both sides at random integer points instead of
expanding the products (Schwartz-Zippel, 20 trials by default), comparing
residues modulo the prime 2^61 - 1 (exact rationals when the prime divides
a coefficient's denominator).  A mismatch of residues proves the sides
differ; a match everywhere is the probabilistic verdict "identical".

No attempt is made to recover the composition (h, p_1, ..., p_k) or to
distinguish the additive from the multiplicative shape; the verdict only
reports whether the polynomial is special.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

from .poly import Polynomial
from .rank import rank, sample_point, trial_values

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


def _product_identity_holds(
    left: tuple[Polynomial, ...], right: tuple[Polynomial, ...], method: str, seed: int
) -> bool:
    """Check prod(left) == prod(right); the randomized mode never expands
    the products symbolically."""
    if method == "exact":
        return functools.reduce(operator.mul, left) == functools.reduce(operator.mul, right)
    if method != "randomized":
        raise ValueError(f"unknown identity method {method!r} (expected 'exact' or 'randomized')")
    total = max(map(_degree_or_zero, left + right)) * max(len(left), len(right))
    k = left[0].vars.k
    for t in range(RANDOMIZED_IDENTITY_TRIALS):
        values, ring = trial_values(left + right, sample_point(seed, t, k, total))
        if not ring.is_zero(math.prod(values[:len(left)]) - math.prod(values[len(left):])):
            return False
    return True


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
    return _product_identity_holds((fi.partial(m), fj), (fi, fj.partial(m)), method, seed)


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
    g_i, g_j, g_ij = g.partial(i), g.partial(j), g.partial(i).partial(j)
    h_i, h_j, h_ij = h.partial(i), h.partial(j), h.partial(i).partial(j)
    if method == "exact":
        lhs = g * g_ij - g_i * g_j
        rhs = h * h_ij - h_i * h_j
        return lhs * h * h == rhs * g * g
    if method != "randomized":
        raise ValueError(f"unknown identity method {method!r} (expected 'exact' or 'randomized')")
    # evaluate every factor and combine numerically; nothing is expanded
    dg, dh = _degree_or_zero(g), _degree_or_zero(h)
    total = 2 * (dg + dh)
    k = f.vars.k
    for t in range(RANDOMIZED_IDENTITY_TRIALS):
        values, ring = trial_values((g, g_ij, g_i, g_j, h, h_ij, h_i, h_j), sample_point(seed, t, k, total))
        gv, g_ijv, g_iv, g_jv, hv, h_ijv, h_iv, h_jv = values
        left = (gv * g_ijv - g_iv * g_jv) * hv * hv
        right = (hv * h_ijv - h_iv * h_jv) * gv * gv
        if not ring.is_zero(left - right):
            return False
    return True


def is_special(
    f: Polynomial,
    method: str = "exact",
    rank_method: str = "randomized",
    trials: int = 5,
    seed: int = 0,
) -> SpecialFormVerdict:
    """Full special-form verdict for a polynomial in at least 3 variables.

    ``special`` requires rank(f) == 1, dependence on every variable, and
    every pairwise independence/separation identity to hold.  For inputs
    depending on all variables the identity checks agree with rank(f) == 1,
    so a disagreement would indicate a bug rather than a boundary case.
    """
    if f.vars.k < 3:
        raise ValueError("special-form detection needs at least 3 variables")
    dep = depends_on_all(f)
    if not dep:
        return SpecialFormVerdict(
            rank1=False, depends_on_all=False, pair_checks={}, verdict="degenerate"
        )
    names = f.vars.names
    checks: dict[tuple[str, str], PairCheck] = {}
    all_ok = True
    for i, j in combinations(names, 2):
        indep = all(
            ratio_independent_of(f, i, j, m, method=method, seed=seed)
            for m in names
            if m not in (i, j)
        )
        sep = ratio_separated(f, i, j, method=method, seed=seed)
        checks[(i, j)] = PairCheck(independence_ok=indep, separation_ok=sep)
        all_ok = all_ok and indep and sep
    rank1 = rank(f, method=rank_method, trials=trials, seed=seed).overall == 1
    verdict = "special" if (rank1 and all_ok) else "not_special"
    return SpecialFormVerdict(
        rank1=rank1, depends_on_all=True, pair_checks=checks, verdict=verdict
    )
