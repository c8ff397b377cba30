"""Simplex volumes on the moment curve t -> (t, t^2, ..., t^d).

The d-dimensional volume of the simplex spanned by curve points with
parameters x_1, ..., x_{d+1} is (1/d!) times the (d+1) x (d+1) Vandermonde
determinant, i.e. (1/d!) * prod_{i<j} (x_j - x_i).  Factoring out the part
independent of x_{d+1} leaves prod_k (x_{d+1} - x_k), whose coefficients
s_0, ..., s_d are signed elementary symmetric polynomials; the d x d matrix
M of their partials in x_1..x_d has determinant +-prod_{i<j<=d}(x_j - x_i),
so the volume polynomial has full rank d with respect to x_{d+1}.

The summary checks these identities in Z on the products
V_n = prod_{i<j<=n}(x_j - x_i), expanded directly as the Vandermonde
determinant det(x_i^(j-1)), one signed monomial per permutation; the scale
1/d! of f = V_{d+1}/d! changes none of them, and f is only printed, from
V_{d+1}'s integer terms over the fixed denominator d!.  Nothing is
multiplied out and nothing is eliminated; every identity has a certificate:

* Factorization, V_{d+1} = V_d * prod_k (x_{d+1} - x_k), by three linear
  passes over V_{d+1}'s terms (:func:`_factorization_certificate`): the
  x_{d+1}^d slice is V_d, no exponent of x_{d+1} exceeds d, and each
  substitution x_{d+1} -> x_k, one addition per exponent vector packed
  into an int, sums the terms to zero.  In the domain Z[x_1..x_d] a
  polynomial in x_{d+1} of degree <= d with the d distinct roots x_k is
  its leading coefficient times prod_k (x_{d+1} - x_k).  A link check
  writes prod_k (x_{d+1} - x_k) out (2^d terms) and compares it with
  sum_l s_l x_{d+1}^l, so the factorization and M speak of the same s_l.
* det(M) = (-1)^(d(d+1)/2) * V_d, by a product certificate
  (:func:`_det_m_certificate`): with W the d x d Vandermonde matrix with
  rows (1, x_i, ..., x_i^(d-1)), whose determinant is V_d, every entry of
  W*M is a product of linear forms, zero off the diagonal, and each is
  compared with that product written out; det(M) is never expanded.
* Rank d in x_{d+1}, from the two: the coefficients of x_{d+1}^l in
  V_{d+1} are alpha_l = V_d * s_l, with alpha_d = V_d.  Subtracting
  s_l * grad(alpha_d) from grad(alpha_l) leaves the rows V_d * M above
  grad(V_d), and det(V_d * M) = +-V_d^(d+1) is nonzero, so the (d+1) x d
  Jacobian has rank d = min(rows, cols).

Distinct volumes of point sets on the curve are enumerated exactly: every
(d+1)-subset of the parameters contributes (1/d!) * |prod of differences|.
On the sorted parameters cleared to integers over their common denominator
D, every difference is a positive integer; the distinct integer products
are collected and each is divided once by d! * D^(d(d+1)/2), a one-to-one
map.  A signed mode also counts both orientations of each simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, repeat
from operator import add, itemgetter, mul
from typing import Sequence

from .expansion import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SetSpec,
    _set_seed,
    fit_exponent,
    generate_set,
    theoretical_exponent,
)
from .poly import Polynomial, Scalar, VarSet, _cleared, _over
from .rank import PolyMatrix


def volume_vars(d: int) -> VarSet:
    return VarSet(tuple(f"x{i}" for i in range(1, d + 2)))


def _vandermonde(vars: VarSet, count: int) -> Polynomial:
    """prod_{1<=i<j<=count} (x_j - x_i) over the first ``count`` variables,
    expanded as det(x_i^(j-1)) = sum_sigma sgn(sigma) prod_i x_i^sigma(i).

    Each permutation sigma gives its own monomial, so the sum has count!
    terms and no cancellation.  ``permutations`` lists them in lex order,
    and one that starts with the t-th smallest value has t more inversions
    than its tail, so the sign table of n values is n copies of that of
    n - 1 values, alternately negated.
    """
    signs = [1]
    for n in range(2, count + 1):
        signs = (signs + [-s for s in signs]) * (n // 2) + (signs if n & 1 else [])
    monomials = permutations(range(count))
    if count < vars.k:
        monomials = map(add, monomials, repeat((0,) * (vars.k - count)))
    return Polynomial._raw(vars, dict(zip(monomials, signs)))


#: The largest d ``moment_summary`` and ``volume_poly`` take: V_{d+1}
#: has (d+1)! terms, 362,880 at d = 8.
SUMMARY_MAX_D = 8


def _check_dimension(d: int) -> None:
    """Refuse d < 1, and d > :data:`SUMMARY_MAX_D` before expanding anything."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > SUMMARY_MAX_D:
        raise ValueError(f"--d {d} is too large for the summary: its volume polynomial has "
                         f"(d+1)! = {math.factorial(d + 1):,} terms (d <= {SUMMARY_MAX_D})")


def volume_poly(d: int) -> Polynomial:
    """(1/d!) * prod_{i<j<=d+1} (x_j - x_i), the simplex volume polynomial (d <= SUMMARY_MAX_D)."""
    _check_dimension(d)
    v, scale = _vandermonde(volume_vars(d), d + 1), math.factorial(d)
    return Polynomial._raw(v.vars, {m: _over(c, scale) for m, c in v.terms.items()})


def symmetric_polys(d: int) -> tuple[Polynomial, ...]:
    """s_0..s_d: coefficients of prod_k (x_{d+1} - x_k) as a polynomial in
    x_{d+1}, built directly as signed elementary symmetric polynomials
    s_l = (-1)^(d-l) e_(d-l)(x_1..x_d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    vars = volume_vars(d)
    out = []
    for level in range(d + 1):
        m = d - level  # take m of the d roots
        terms: dict[tuple[int, ...], int] = {}
        sign = (-1) ** m
        for subset in combinations(range(d), m):  # each a distinct monomial
            e = [0] * (d + 1)
            for i in subset:
                e[i] = 1
            terms[tuple(e)] = sign
        out.append(Polynomial(vars, terms))
    return tuple(out)


def matrix_m(d: int) -> PolyMatrix:
    """The d x d matrix with entry (i, j) = ds_i / dx_{j+1}, rows i = 0..d-1."""
    vars = volume_vars(d)
    s = symmetric_polys(d)
    rows = [[s[i].partial(vars.names[j]) for j in range(d)] for i in range(d)]
    return PolyMatrix(vars, rows)


def _root_product_terms(k: int, t: int, roots: Sequence[int], sign: int) -> dict[tuple[int, ...], int]:
    """sign * prod_{r in roots} (x_t - x_r) over k variables, written out:
    each subset S of the roots gives the monomial x_t^(|roots| - |S|) *
    prod_{r in S} x_r, with coefficient sign * (-1)^|S|."""
    return {tuple(len(roots) - size if i == t else int(i in subset) for i in range(k)): -sign if size & 1 else sign
            for size in range(len(roots) + 1) for subset in combinations(roots, size)}


def _det_m_certificate(m: PolyMatrix) -> int:
    """The sign s with det(M) = s * V_d, proved by products alone.

    Let W be the d x d matrix with rows (1, x_i, ..., x_i^(d-1)); its
    determinant is V_d, the Leibniz sum :func:`_vandermonde` expands.
    Column j of M holds ds_l/dx_j, and sum_l ds_l/dx_j * t^l is
    d/dx_j prod_k (t - x_k) = -prod_{k != j} (t - x_k), so
    (W*M)_ij = -prod_{k != j} (x_i - x_k): zero off the diagonal, where the
    factor x_i - x_i vanishes.  Each pair i < j gives the diagonal
    -(x_j - x_i)^2, so det(W*M) = (-1)^(d + d(d-1)/2) * V_d^2 and
    det(M) = (-1)^(d(d+1)/2) * V_d.  Every entry of W*M, d shifts of M's
    terms by a power of x_i, is compared exactly with its product written
    out; a mismatch raises.  Nothing is multiplied, divided or eliminated.
    """
    d, vars = m.rows, m.vars
    for i in range(d):
        for j in range(d):
            entry: dict[tuple[int, ...], int] = {}
            for power in range(d):
                for mono, c in m.entries[power][j].terms.items():
                    key = mono[:i] + (mono[i] + power,) + mono[i + 1:]
                    entry[key] = entry.get(key, 0) + c
            expected = _root_product_terms(vars.k, j, [k for k in range(d) if k != j], -1) if i == j else {}
            if {key: c for key, c in entry.items() if c} != expected:
                raise AssertionError(f"(W*M)[{i}][{j}] is not -prod_(k != {j})(x_{i + 1} - x_k) for d={d}")
    return (-1) ** (d * (d + 1) // 2)


def _factorization_certificate(v_next: Polynomial, v_d: Polynomial) -> bool:
    """Is V_{d+1} = V_d * prod_{k<=d} (x_{d+1} - x_k)?  Three linear passes.

    Written as sum_l c_l x_{d+1}^l with c_l in Z[x_1..x_d], ``v_next`` must
    have its x_{d+1}^d slice c_d equal to ``v_d``, no exponent of x_{d+1}
    above d, and a zero sum of terms under each substitution
    x_{d+1} -> x_k.  These suffice: Z[x_1..x_d] is a domain, so a
    polynomial of degree <= d in x_{d+1} with the d distinct roots x_k is
    c_d * prod_k (x_{d+1} - x_k).  Nothing is multiplied.

    Each exponent vector is packed once into the int with digits e_1..e_{d+1}
    in base b = 2e + 1, e the largest exponent of either polynomial; the
    substitution x_{d+1} -> x_k adds e_{d+1} * (b^(k-1) - b^d) to each key,
    and as no digit exceeds 2e, distinct monomials keep distinct keys.
    """
    d = v_next.vars.k - 1
    monomials, coeffs = v_next.terms.keys(), list(v_next.terms.values())
    tops = list(map(itemgetter(d), monomials))
    if max(tops, default=0) > d:
        return False
    base = 2 * max(map(max, chain(monomials, v_d.terms)), default=0) + 1
    digits = [base ** i for i in range(d + 1)]
    keys = [sum(map(mul, mono, digits)) for mono in monomials]
    top = {key: c for key, e, c in zip(keys, tops, coeffs) if e == d}
    if top != {sum(map(mul, mono, digits)) + d * digits[d]: c for mono, c in v_d.terms.items()}:
        return False
    for k in range(d):
        sums: dict[int, Scalar] = {}
        for key, c in zip(map(add, keys, map(mul, tops, repeat(digits[k] - digits[d]))), coeffs):
            sums[key] = sums.get(key, 0) + c
        if any(sums.values()):
            return False
    return True


def _is_root_product(s: Sequence[Polynomial]) -> bool:
    """Is sum_l s_l x_{d+1}^l, each s_l free of x_{d+1}, the expanded
    prod_{k<=d} (x_{d+1} - x_k) (:func:`_root_product_terms`, 2^d terms)?"""
    d = len(s) - 1
    power_sum: dict[tuple[int, ...], Scalar] = {}
    for level, s_l in enumerate(s):
        for mono, c in s_l.terms.items():
            if mono[d]:
                return False
            power_sum[mono[:d] + (level,)] = c
    return power_sum == _root_product_terms(d + 1, d, range(d), 1)


def moment_summary(d: int) -> dict:
    """One-stop summary of the symbolic identities for a given dimension,
    each proved by a certificate (see the module docstring).

    ``factorization_ok``: V_{d+1} = V_d * prod_k (x_{d+1} - x_k) by
    :func:`_factorization_certificate`, and that product is
    sum_l s_l x_{d+1}^l for the s_l of :func:`symmetric_polys`.
    ``det_m_sign``: det(M) = sign * V_d by :func:`_det_m_certificate`,
    which raises on a mismatch.  ``rank_ok``: V_{d+1} has rank d in
    x_{d+1}; it holds only when both certificates do, because then
    alpha_l = V_d * s_l and row operations turn the Jacobian into V_d * M
    above grad(V_d), with det(V_d * M) = +-V_d^(d+1) != 0.  Neither V_d
    times the root product nor any rank is computed.  f = V_{d+1} / d! is
    never formed: V_{d+1} is printed over the denominator d!.  d above
    :data:`SUMMARY_MAX_D` is refused before anything is expanded.
    """
    _check_dimension(d)
    vars = volume_vars(d)
    v_next, v_d = _vandermonde(vars, d + 1), _vandermonde(vars, d)
    factorization_ok = _factorization_certificate(v_next, v_d) and _is_root_product(symmetric_polys(d))
    det_m_sign = _det_m_certificate(matrix_m(d))  # raises unless W*M checks
    return {
        "d": d,
        "volume_poly": v_next._format(math.factorial(d)),
        "factorization_ok": factorization_ok,
        "det_m_sign": det_m_sign,
        "rank_ok": factorization_ok,  # and the W*M certificate, which held
    }


@dataclass(frozen=True)
class VolumeSet:
    """Distinct simplex volumes spanned by parameters on the moment curve."""

    d: int
    parameters: tuple[Scalar, ...]
    volumes: frozenset
    signed: bool

    @property
    def count(self) -> int:
        return len(self.volumes)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": len(self.parameters),
            "count": self.count,
            "theoretical_exponent": str(theoretical_exponent(self.d)),
            "signed_mode": self.signed,
        }


def _check_simplices(n: int, d: int) -> None:
    """Refuse n parameters whose C(n, d+1) simplices are over the budget."""
    count = math.comb(n, d + 1)
    if count > DEFAULT_BUDGET:
        raise BudgetExceededError(f"{n} parameters span {count} simplices, over the budget of {DEFAULT_BUDGET}")


def distinct_volumes(parameters: Sequence[Scalar], d: int, signed: bool = False) -> VolumeSet:
    """Enumerate the volumes of all C(n, d+1) simplices spanned by curve
    points with the given distinct parameters.

    Default counts absolute (geometric) volumes; signed mode counts both
    orientations, i.e. includes -v alongside every v.  More than
    ``DEFAULT_BUDGET`` simplices raise :class:`BudgetExceededError` before
    any is enumerated.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    params = tuple(Fraction(t) for t in parameters)
    if len(set(params)) != len(params):
        raise ValueError("parameters must be distinct")
    if len(params) < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} parameters, got {len(params)}")
    _check_simplices(len(params), d)
    points, scale = _cleared(sorted(params))  # sorted: differences are positive
    pairs = list(combinations(range(d + 1), 2))
    products = set()
    for subset in combinations(points, d + 1):
        prod = 1
        for i, j in pairs:
            prod *= subset[j] - subset[i]
        products.add(prod)
    denominator = math.factorial(d) * scale ** (d * (d + 1) // 2)
    volumes = {_over(prod, denominator) for prod in products}
    if signed:
        volumes |= {-v for v in volumes}
    return VolumeSet(d=d, parameters=params, volumes=frozenset(volumes), signed=signed)


def volume_expansion_report(
    n_list: Sequence[int],
    generator: str,
    d: int,
    seed: int = 0,
    signed: bool = False,
) -> dict:
    """Count distinct volumes for growing parameter sets and fit the
    growth exponent against the theoretical (5d - 4) / (2d).  Every size
    is checked against the simplex budget before the first count."""
    if list(n_list) != sorted(set(n_list)) or not n_list:
        raise ValueError("n_list must be nonempty and strictly increasing")
    for n in n_list:
        _check_simplices(n, d)
    rows = []
    for n in n_list:
        params = generate_set(SetSpec(kind=generator, n=n, seed=_set_seed(seed, 0)))
        rows.append((n, distinct_volumes(params, d, signed=signed).count))
    fitted = fit_exponent(rows) if len(rows) >= 3 else None
    return {
        "d": d,
        "generator": generator,
        "seed": seed,
        "signed_mode": signed,
        "rows": [{"n": n, "count": count} for n, count in rows],
        "theoretical_exponent": str(theoretical_exponent(d)),
        "fitted_exponent": fitted,
    }
