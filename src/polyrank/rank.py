"""Coefficient maps, polynomial matrices, and the rank of a polynomial.

Writing f = sum_i alpha_i(other vars) * v^i collects the coefficients of f
with respect to a pivot variable v into the *coefficient map*
T : (other vars) -> (alpha_0, ..., alpha_d).  The rank of f with respect
to v is the generic rank of the Jacobian of T, i.e. its rank as a matrix
over the field of rational functions, and rank(f) is the maximum over all
choices of pivot variable.  It always lies in [0, k-1] for a k-variate f.

The map is stored sparsely: only the nonzero alpha_i are kept, labelled by
their exponents i, so its Jacobian has one row per nonzero alpha_i rather
than one per power of v up to deg_v(f).  A zero alpha_i only adds a zero
row, which changes no rank; witness rows are reported as exponent labels,
which are the row indices of the dense Jacobian over alpha_0..alpha_d.

Ranks, determinants and the special-form test of rank <= 1 come from one
fraction-free Bareiss routine (Bareiss 1968) that takes its ring as four
operations: multiply, subtract, exact divide and is-zero.  Two rank
methods are provided:

* ``exact``: eliminate over the polynomial ring.
* ``randomized``: evaluate the matrix at seeded random integer points
  modulo the prime p = 2^61 - 1, eliminate over Z/p, and take the maximum
  rank over trials; values stay below p whatever the degree.  The pivot
  minor of the best trial is an exact certificate: its determinant at the
  trial point is nonzero mod p, hence a nonzero rational, so the symbolic
  determinant is nonzero and the reported rank is a proved lower bound
  (the generic rank whenever it hits min(rows, cols)).  Reduction mod p
  can only lower the rank at a point, so a trial misses the generic rank
  with probability at most deg / (2B + 1) (Schwartz-Zippel) plus about
  (number of pivots) / p.

Both methods rank a rational f as its cleared multiple D*f, D the lcm of
its coefficient denominators.  D is a unit of Q, and scaling a matrix by
a unit scales each r-minor by D^r: every minor that was zero stays zero
and no other becomes zero, so the elimination takes the same pivots and
reports the same rank and witness, while the coefficient map, its
partials, the evaluations and the elimination see integers only.  The
trials run mod p when D is a unit of Z/p too, and over Q when p divides D.

The degree of the polynomial entries never changes the contracts, only
the running time.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from .poly import NEG_INF, Polynomial, Scalar, VarSet, _integral, exact_div

#: Sampling half-width multiplier for randomized evaluation: coordinates are
#: drawn from [-B, B] with B = 2^16 * (total degree + 1), keeping the
#: per-trial failure probability below deg / (2B + 1) (see ``sample_point``).
SAMPLE_SCALE = 1 << 16

#: The prime modulus of randomized trials, 2^61 - 1.
PRIME = (1 << 61) - 1


class Witness(NamedTuple):
    """Row and column indices of a minor whose determinant is nonzero."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class CoefficientMap:
    """The nonzero coefficients alpha_i of f in a chosen pivot variable.

    ``exponents`` lists, in ascending order, the powers i of the pivot
    with alpha_i != 0, and ``alphas`` the matching coefficients.
    """

    pivot_var: str
    exponents: tuple[int, ...]
    alphas: tuple[Polynomial, ...]

    @property
    def degree(self) -> int:
        return self.exponents[-1]

    @property
    def vars(self) -> VarSet:
        return self.alphas[0].vars


def coefficient_map(f: Polynomial, v: str) -> CoefficientMap:
    """Split f by powers of the pivot variable ``v``, keeping the nonzero
    coefficients only.

    The alphas stay expressed over the full variable set of f (they simply
    do not involve the pivot), which keeps downstream bookkeeping simple.
    The cost follows the number of terms of f, not deg_v(f).
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no coefficient map")
    if f.vars.k < 2:
        raise ValueError("coefficient map requires at least 2 ambient variables")
    i = f.vars.index(v)
    # Distinct terms of f with the same pivot exponent have distinct
    # stripped monomials, so every group is already a canonical term map.
    groups: dict[int, dict[tuple[int, ...], Scalar]] = {}
    for m, c in f.terms.items():
        groups.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = c
    exponents = tuple(sorted(groups))
    alphas = tuple(Polynomial._raw(f.vars, groups[e]) for e in exponents)
    return CoefficientMap(pivot_var=v, exponents=exponents, alphas=alphas)


class PolyMatrix:
    """A rectangular matrix of polynomials over a shared variable set."""

    __slots__ = ("vars", "entries")

    def __init__(self, vars: VarSet, entries: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged matrix")
            for row in rows:
                for p in row:
                    if p.vars != vars:
                        raise ValueError("matrix entries must share the variable set")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyMatrix instances are immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def total_degree(self) -> int:
        """Max total degree over entries (0 for an all-zero or empty matrix)."""
        best = 0
        for row in self.entries:
            for p in row:
                d = p.total_degree()
                if d is not NEG_INF and d > best:
                    best = int(d)
        return best

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(self.vars, [[self.entries[i][j] for j in cols] for i in rows])

    def determinant(self) -> Polynomial:
        """Fraction-free Bareiss determinant (square matrices only): the
        last pivot, signed by the row and column swaps."""
        n = self.rows
        if n != self.cols:
            raise ValueError(f"determinant of a non-square {self.rows}x{self.cols} matrix")
        if n == 0:
            return Polynomial.constant(self.vars, 1)
        a = [list(row) for row in self.entries]
        r, _, sign = bareiss(a, POLYNOMIALS)
        if r < n:
            return Polynomial.zero(self.vars)
        return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.entries) + "]"

    __repr__ = __str__


def jacobian(cm: CoefficientMap) -> PolyMatrix:
    """Jacobian of the coefficient map: one row per nonzero alpha, in
    exponent order (row j belongs to ``cm.exponents[j]``; a constant alpha
    gives a zero row), columns the non-pivot variables in variable-set
    order."""
    vars = cm.vars
    non_pivot = [name for name in vars.names if name != cm.pivot_var]
    rows = [[alpha.partial(name) for name in non_pivot] for alpha in cm.alphas]
    return PolyMatrix(vars, rows)


class Ring(NamedTuple):
    """The four operations fraction-free elimination needs; ``div`` is
    exact division."""

    mul: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    div: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]


#: The polynomials over Q, for exact rank and determinants.  ``exact_div``
#: is looked up at each call, so a wrapper bound to the module name (as the
#: perfbench tracer installs) sees every division.
POLYNOMIALS = Ring(operator.mul, operator.sub, lambda a, b: exact_div(a, b), operator.attrgetter("is_zero"))
#: The field Q, for the trials of a D*f whose D is divisible by PRIME.
RATIONALS = Ring(operator.mul, operator.sub, operator.truediv, operator.not_)
#: The field Z/PRIME, for randomized trials; ``is_zero`` accepts any int.
MOD_PRIME = Ring(lambda a, b: a * b % PRIME, lambda a, b: (a - b) % PRIME,
                 lambda a, b: a * pow(b, -1, PRIME) % PRIME, lambda a: not a % PRIME)


def bareiss(a: list[list[Any]], ring: Ring) -> tuple[int, Witness, int]:
    """Fraction-free Bareiss elimination of ``a``, in place, over ``ring``.

    Pivots are the first nonzero entry of the trailing submatrix in
    row-major order, swapped into place.  After step r every trailing entry
    is an (r+1)-minor of the input, so dividing by the previous pivot is
    exact, and the pivots are leading minors of the permuted input: the
    last one of a square matrix of full rank is its determinant up to sign.
    Returns the rank, the pivot minor as a witness (its rows and columns
    sorted) and the sign of the row and column swaps.
    """
    mul, sub, div, is_zero = ring
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    row_ids = list(range(n_rows))
    col_ids = list(range(n_cols))
    sign = 1
    prev = None
    r = 0
    while r < n_rows and r < n_cols:
        pivot = next(((i, j) for i in range(r, n_rows) for j in range(r, n_cols)
                      if not is_zero(a[i][j])), None)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            row_ids[r], row_ids[pi] = row_ids[pi], row_ids[r]
            sign = -sign
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            col_ids[r], col_ids[pj] = col_ids[pj], col_ids[r]
            sign = -sign
        top = a[r]
        piv = top[r]
        for row in a[r + 1:]:
            lead = row[r]
            for j in range(r + 1, n_cols):
                num = sub(mul(piv, row[j]), mul(lead, top[j]))
                row[j] = num if prev is None else div(num, prev)
        prev = piv
        r += 1
    return r, Witness(rows=tuple(sorted(row_ids[:r])), cols=tuple(sorted(col_ids[:r]))), sign


def generic_rank_exact(m: PolyMatrix) -> tuple[int, Witness]:
    """Rank of ``m`` over the rational-function field, with a certifying
    minor (the pivot rows/columns of the elimination)."""
    r, witness, _ = bareiss([list(row) for row in m.entries], POLYNOMIALS)
    return r, witness


def sample_point(seed: int, trial: int, count: int, degree: int) -> list[int]:
    """``count`` integers from [-B, B], B = SAMPLE_SCALE * (degree + 1).

    Each trial gets its own generator, seeded from (seed, trial) alone, so
    a trial's draw does not depend on how many trials ran before it.
    """
    bound = SAMPLE_SCALE * (degree + 1)
    rng = random.Random(seed * 1_000_003 + trial)
    return [rng.randint(-bound, bound) for _ in range(count)]


def _cleared_multiple(f: Polynomial) -> tuple[Polynomial, int, int | None]:
    """``(D*f, D, modulus)``, D the lcm of f's coefficient denominators and
    ``modulus`` that of its randomized trials: PRIME, or None when PRIME
    divides D (see the module docstring).  An integral f is returned as it
    is."""
    terms, scale = _integral(f.terms)
    cleared = f if scale == 1 else Polynomial._raw(f.vars, terms)
    return cleared, scale, PRIME if scale % PRIME else None


def _randomized_rank(m: PolyMatrix, trials: int, seed: int, modulus: int | None = PRIME) -> tuple[int, Witness]:
    """Max rank over trials of ``m`` at seeded points, each evaluated and
    eliminated mod PRIME, or over Q when ``modulus`` is None; stops at full
    rank.

    A trial's pivot minor is nonzero at its point, mod PRIME or over Q, so
    it is nonzero over Q: the witness proves rank >= r.  Reduction mod PRIME can only lower the
    rank at a point, so the result never exceeds the generic rank.  Each
    trial misses with probability at most deg / (2B + 1) for the draw
    plus about (number of pivots) / PRIME for the reduction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    degree = m.total_degree()
    ring = MOD_PRIME if modulus else RATIONALS
    best = 0
    best_witness = Witness((), ())
    for t in range(trials):
        point = sample_point(seed, t, m.vars.k, degree)
        r, witness, _ = bareiss([[p.eval(point, modulus) for p in row] for row in m.entries], ring)
        if r > best:
            best, best_witness = r, witness
            if best == min(m.rows, m.cols):
                break
    return best, best_witness


def rank_in(f: Polynomial, v: str, method: str = "randomized", trials: int = 5, seed: int = 0) -> int:
    """rank of f with respect to pivot variable ``v``: the generic rank of
    the Jacobian of its coefficient map."""
    return _rank_in_with_witness(f, v, method, trials, seed)[0]


def _rank_in_with_witness(
    f: Polynomial, v: str, method: str, trials: int, seed: int
) -> tuple[int, Witness, PolyMatrix, CoefficientMap, int]:
    """:func:`rank_in`, its pivot minor (rows labelled by pivot exponent,
    columns indexing the non-pivot variables in order), the Jacobian it
    ranked, that Jacobian's coefficient map and the scale D of the ranked
    D*f (see the module docstring)."""
    f, scale, modulus = _cleared_multiple(f)
    cm = coefficient_map(f, v)
    m = jacobian(cm)
    if method == "exact":
        r, witness = generic_rank_exact(m)
    elif method == "randomized":
        # The witness is self-certifying: full pivoting only ever selects a
        # minor whose determinant is nonzero at the sample point (mod PRIME
        # or over Q), which proves the symbolic determinant is nonzero.
        r, witness = _randomized_rank(m, trials, seed, modulus)
    else:
        raise ValueError(f"unknown rank method {method!r} (expected 'exact' or 'randomized')")
    return r, witness._replace(rows=tuple(cm.exponents[i] for i in witness.rows)), m, cm, scale


@dataclass(frozen=True)
class RankReport:
    """Per-variable ranks, their maximum, and how they were obtained."""

    vars: tuple[str, ...]
    per_variable: dict[str, int]
    overall: int
    method: str
    trials: int
    seed: int
    witness_var: str | None
    witness: Witness | None

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "var": self.witness_var,
                "rows": list(self.witness.rows),
                "cols": list(self.witness.cols),
            }
        return {
            "vars": list(self.vars),
            "per_variable": {v: self.per_variable[v] for v in self.vars},
            "overall": self.overall,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
            "witness": witness,
        }


def rank(
    f: Polynomial, method: str = "randomized", trials: int = 5, seed: int = 0,
    *, _jacobians: dict[str, PolyMatrix] | None = None,
) -> RankReport:
    """rank(f) = max over pivot variables of rank_in(f, v).

    The witness records a full-rank minor of the Jacobian for the first
    pivot variable attaining the overall rank; its rows are labelled by
    the pivot exponents of their alphas.  A ``_jacobians`` dict is filled
    with the Jacobian each pivot was ranked on (that of the cleared D*f),
    so a caller that goes on to test those matrices does not build them
    again; the report keeps none of them.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no rank")
    if f.vars.k < 2:
        raise ValueError("rank requires at least 2 ambient variables")
    per: dict[str, int] = {}
    witness_var: str | None = None
    witness: Witness | None = None
    overall = -1
    for offset, v in enumerate(f.vars.names):
        r, w, jac, *_ = _rank_in_with_witness(f, v, method, trials, seed + offset)
        if _jacobians is not None:
            _jacobians[v] = jac
        per[v] = r
        if r > overall:
            overall = r
            witness_var, witness = v, w
    return RankReport(
        vars=f.vars.names,
        per_variable=per,
        overall=overall,
        method=method,
        trials=trials if method == "randomized" else 0,
        seed=seed,
        witness_var=witness_var,
        witness=witness,
    )
