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

Two rank methods are provided:

* ``exact``: fraction-free Bareiss elimination over the polynomial ring.
  Pivots are chosen as the first nonzero entry in row-major order; the
  intermediate entries are minors of the original matrix, so dividing by
  the previous pivot is always exact.
* ``randomized``: evaluate the matrix at random integer points and take
  the maximum rank over trials (exact rational Gaussian elimination per
  point).  This never exceeds the generic rank and equals it with high
  probability by the Schwartz-Zippel bound.  The pivot minor of the best
  trial doubles as an exact certificate: its determinant evaluated at the
  trial point is a nonzero rational, which proves the determinant is not
  the zero polynomial, so the reported rank is always a proved lower
  bound (and exactly the generic rank whenever it hits min(rows, cols)).

The degree of the polynomial entries never changes the contracts, only
the running time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .poly import NEG_INF, Polynomial, Scalar, VarSet, exact_div

#: Sampling half-width multiplier for randomized evaluation: coordinates are
#: drawn from [-B, B] with B = 2^16 * (total degree + 1), keeping the
#: per-trial failure probability below deg / (2B + 1) (see ``sample_point``).
SAMPLE_SCALE = 1 << 16


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

    def reconstruct(self) -> Polynomial:
        """Sum alpha_i * pivot^i; recovers the original polynomial exactly."""
        v = Polynomial.variable(self.vars, self.pivot_var)
        total = Polynomial.zero(self.vars)
        for e, alpha in zip(self.exponents, self.alphas):
            total = total + alpha * v**e
        return total


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

    def __getitem__(self, key: tuple[int, int]) -> Polynomial:
        i, j = key
        return self.entries[i][j]

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

    def evaluate(self, point: Sequence[Scalar]) -> list[list[Fraction]]:
        return [[p.eval(point) for p in row] for row in self.entries]

    def determinant(self) -> Polynomial:
        """Fraction-free Bareiss determinant (square matrices only)."""
        n = self.rows
        if n != self.cols:
            raise ValueError(f"determinant of a non-square {self.rows}x{self.cols} matrix")
        if n == 0:
            return Polynomial.constant(self.vars, 1)
        a = [list(row) for row in self.entries]
        sign = 1
        prev: Polynomial | None = None
        for step in range(n - 1):
            # full pivoting inside the trailing submatrix
            pivot = None
            for i in range(step, n):
                for j in range(step, n):
                    if not a[i][j].is_zero:
                        pivot = (i, j)
                        break
                if pivot:
                    break
            if pivot is None:
                return Polynomial.zero(self.vars)
            pi, pj = pivot
            if pi != step:
                a[step], a[pi] = a[pi], a[step]
                sign = -sign
            if pj != step:
                for row in a:
                    row[step], row[pj] = row[pj], row[step]
                sign = -sign
            piv = a[step][step]
            for i in range(step + 1, n):
                for j in range(step + 1, n):
                    num = piv * a[i][j] - a[i][step] * a[step][j]
                    a[i][j] = exact_div(num, prev) if prev is not None else num
                a[i][step] = Polynomial.zero(self.vars)
            prev = piv
        det = a[n - 1][n - 1]
        return det if sign > 0 else -det

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


def _bareiss_rank(m: PolyMatrix) -> tuple[int, Witness, tuple[int, ...]]:
    """Fraction-free elimination; returns (rank, witness, pivot cols in
    the order they were chosen)."""
    n_rows, n_cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    row_ids = list(range(n_rows))
    col_ids = list(range(n_cols))
    prev: Polynomial | None = None
    r = 0
    while r < n_rows and r < n_cols:
        pivot = None
        for i in range(r, n_rows):
            for j in range(r, n_cols):
                if not a[i][j].is_zero:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            row_ids[r], row_ids[pi] = row_ids[pi], row_ids[r]
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            col_ids[r], col_ids[pj] = col_ids[pj], col_ids[r]
        piv = a[r][r]
        for i in range(r + 1, n_rows):
            for j in range(r + 1, n_cols):
                num = piv * a[i][j] - a[i][r] * a[r][j]
                a[i][j] = exact_div(num, prev) if prev is not None else num
            a[i][r] = Polynomial.zero(m.vars)
        prev = piv
        r += 1
    witness = Witness(rows=tuple(sorted(row_ids[:r])), cols=tuple(sorted(col_ids[:r])))
    return r, witness, tuple(col_ids[:r])


def generic_rank_exact(m: PolyMatrix) -> tuple[int, Witness]:
    """Rank of ``m`` over the rational-function field, with a certifying
    minor (the pivot rows/columns of the elimination)."""
    r, witness, _ = _bareiss_rank(m)
    return r, witness


def _rational_rank(rows: list[list[Fraction]]) -> tuple[int, Witness]:
    """Exact Gaussian elimination over Q, tracking original pivot indices."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    a = [row[:] for row in rows]
    row_ids = list(range(n_rows))
    col_ids = list(range(n_cols))
    r = 0
    while r < n_rows and r < n_cols:
        pivot = None
        for i in range(r, n_rows):
            for j in range(r, n_cols):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            row_ids[r], row_ids[pi] = row_ids[pi], row_ids[r]
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            col_ids[r], col_ids[pj] = col_ids[pj], col_ids[r]
        piv = a[r][r]
        for i in range(r + 1, n_rows):
            factor = a[i][r] / piv
            if factor:
                for j in range(r, n_cols):
                    a[i][j] -= factor * a[r][j]
        r += 1
    return r, Witness(rows=tuple(sorted(row_ids[:r])), cols=tuple(sorted(col_ids[:r])))


def sample_point(seed: int, trial: int, count: int, degree: int) -> list[int]:
    """``count`` integers from [-B, B], B = SAMPLE_SCALE * (degree + 1).

    Each trial gets its own generator, seeded from (seed, trial) alone, so
    a trial's draw does not depend on how many trials ran before it.
    """
    bound = SAMPLE_SCALE * (degree + 1)
    rng = random.Random(seed * 1_000_003 + trial)
    return [rng.randint(-bound, bound) for _ in range(count)]


def _randomized_rank(m: PolyMatrix, trials: int, seed: int) -> tuple[int, Witness]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    degree = m.total_degree()
    best = 0
    best_witness = Witness((), ())
    for t in range(trials):
        r, witness = _rational_rank(m.evaluate(sample_point(seed, t, m.vars.k, degree)))
        if r > best:
            best, best_witness = r, witness
            if best == min(m.rows, m.cols):
                break
    return best, best_witness


def generic_rank_randomized(m: PolyMatrix, trials: int = 5, seed: int = 0) -> int:
    """Max rank of ``m`` over random integer evaluations.

    Never exceeds the generic rank; equals it with probability at least
    1 - (deg / (2B + 1))^trials.
    """
    r, _ = _randomized_rank(m, trials, seed)
    return r


def _rank_with_witness(m: PolyMatrix, method: str, trials: int, seed: int) -> tuple[int, Witness]:
    if method == "exact":
        return generic_rank_exact(m)
    if method != "randomized":
        raise ValueError(f"unknown rank method {method!r} (expected 'exact' or 'randomized')")
    # The returned witness is self-certifying: full pivoting only ever
    # selects a minor whose determinant is nonzero at the sample point,
    # which proves the symbolic determinant is nonzero.
    return _randomized_rank(m, trials, seed)


def rank_in(f: Polynomial, v: str, method: str = "randomized", trials: int = 5, seed: int = 0) -> int:
    """rank of f with respect to pivot variable ``v``: the generic rank of
    the Jacobian of its coefficient map."""
    r, _ = _rank_in_with_witness(f, v, method, trials, seed)
    return r


def _rank_in_with_witness(
    f: Polynomial, v: str, method: str, trials: int, seed: int
) -> tuple[int, Witness]:
    cm = coefficient_map(f, v)
    r, witness = _rank_with_witness(jacobian(cm), method, trials, seed)
    return r, witness._replace(rows=tuple(cm.exponents[i] for i in witness.rows))


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


def rank(f: Polynomial, method: str = "randomized", trials: int = 5, seed: int = 0) -> RankReport:
    """rank(f) = max over pivot variables of rank_in(f, v).

    The witness records a full-rank minor of the Jacobian for the first
    pivot variable attaining the overall rank; its rows are labelled by
    the pivot exponents of their alphas.
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
        r, w = _rank_in_with_witness(f, v, method, trials, seed + offset)
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
