"""Simplex volumes on the moment curve t -> (t, t^2, ..., t^d).

The d-dimensional volume of the simplex spanned by curve points with
parameters x_1, ..., x_{d+1} is (1/d!) times the (d+1) x (d+1) Vandermonde
determinant, i.e. (1/d!) * prod_{i<j} (x_j - x_i).  Factoring out the part
independent of x_{d+1} leaves prod_k (x_{d+1} - x_k), whose coefficients
s_0, ..., s_d are signed elementary symmetric polynomials; the d x d matrix
M of their partials in x_1..x_d has determinant +-prod_{i<j<=d}(x_j - x_i),
so the volume polynomial has full rank d with respect to x_{d+1}.  (The
computed determinant sign depends on d and is recorded; the sign-free
identity det(M)^2 = prod^2 is what gets asserted.)

Distinct volumes of point sets on the curve are enumerated exactly: every
(d+1)-subset of the parameters contributes (1/d!) * |prod of differences|,
deduplicated as exact rationals.  A signed mode also counts both
orientations of each simplex.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .expansion import SetSpec, _set_seed, fit_exponent, generate_set, theoretical_exponent
from .poly import Polynomial, Scalar, VarSet, product
from .rank import PolyMatrix, rank_in


def volume_vars(d: int) -> VarSet:
    return VarSet(tuple(f"x{i}" for i in range(1, d + 2)))


def _difference(vars: VarSet, j: str, i: str) -> Polynomial:
    return Polynomial.variable(vars, j) - Polynomial.variable(vars, i)


def volume_poly(d: int) -> Polynomial:
    """(1/d!) * prod_{1<=i<j<=d+1} (x_j - x_i), the simplex volume polynomial."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    vars = volume_vars(d)
    names = vars.names
    p = product(vars, (_difference(vars, names[j], names[i])
                       for i in range(d + 1) for j in range(i + 1, d + 1)))
    return p * Fraction(1, math.factorial(d))


def vandermonde_matrix(d: int) -> PolyMatrix:
    """The (d+1) x (d+1) matrix with rows (1, x_i, x_i^2, ..., x_i^d)."""
    vars = volume_vars(d)
    rows = []
    for i in range(d + 1):
        x = Polynomial.variable(vars, vars.names[i])
        rows.append([x ** j for j in range(d + 1)])
    return PolyMatrix(vars, rows)


def prefactor(d: int) -> Polynomial:
    """(1/d!) * prod_{1<=i<j<=d} (x_j - x_i): the part without x_{d+1}."""
    vars = volume_vars(d)
    names = vars.names
    p = product(vars, (_difference(vars, names[j], names[i])
                       for i in range(d) for j in range(i + 1, d)))
    return p * Fraction(1, math.factorial(d))


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
        terms: dict[tuple[int, ...], Fraction] = {}
        sign = Fraction(-1) ** m
        for subset in combinations(range(d), m):
            e = [0] * (d + 1)
            for i in subset:
                e[i] = 1
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + sign
        out.append(Polynomial(vars, terms))
    return tuple(out)


def matrix_m(d: int) -> PolyMatrix:
    """The d x d matrix with entry (i, j) = ds_i / dx_{j+1}, rows i = 0..d-1."""
    vars = volume_vars(d)
    s = symmetric_polys(d)
    rows = [[s[i].partial(vars.names[j]) for j in range(d)] for i in range(d)]
    return PolyMatrix(vars, rows)


def det_m(d: int) -> Polynomial:
    return matrix_m(d).determinant()


def det_m_sign(d: int) -> int:
    """Sign relating det(M) to prod_{1<=i<j<=d}(x_j - x_i).

    Both polynomials agree up to sign (their squares are identical); the
    sign itself depends on d and is worth recording since it is easy to
    drop in hand computations.
    """
    vars = volume_vars(d)
    names = vars.names
    vandermonde_d = product(vars, (_difference(vars, names[j], names[i])
                                   for i in range(d) for j in range(i + 1, d)))
    det = det_m(d)
    if det == vandermonde_d:
        return 1
    if det == -vandermonde_d:
        return -1
    raise AssertionError(f"det(M) is not +-Vandermonde for d={d}")


@dataclass(frozen=True)
class MomentInstance:
    """The symbolic cast for one dimension: volume polynomial f, the
    x_{d+1}-free prefactor g, the symmetric coefficients s_0..s_d of the
    root product, and the d x d derivative matrix M."""

    d: int
    f: Polynomial
    g: Polynomial
    s: tuple[Polynomial, ...]
    m: PolyMatrix


def moment_instance(d: int) -> MomentInstance:
    return MomentInstance(d=d, f=volume_poly(d), g=prefactor(d), s=symmetric_polys(d), m=matrix_m(d))


def verify_rank(d: int, method: str = "randomized", trials: int = 5, seed: int = 0) -> bool:
    """Does the volume polynomial have rank d with respect to x_{d+1}?

    The default randomized method is conclusive here: the Jacobian has only
    d columns, so a certified rank-d witness pins the generic rank exactly.
    (The exact method agrees but expands enormous minors for d >= 4.)
    """
    return _has_rank_d(volume_poly(d), d, method, trials, seed)


def _has_rank_d(f: Polynomial, d: int, method: str = "randomized", trials: int = 5, seed: int = 0) -> bool:
    return rank_in(f, f.vars.names[-1], method=method, trials=trials, seed=seed) == d


def moment_summary(d: int) -> dict:
    """One-stop summary of the symbolic identities for a given dimension."""
    inst = moment_instance(d)
    pivot_power = Polynomial.variable(inst.f.vars, inst.f.vars.names[-1])
    reconstruction = Polynomial.zero(inst.f.vars)
    power = Polynomial.constant(inst.f.vars, 1)
    for s_l in inst.s:
        reconstruction = reconstruction + s_l * power
        power = power * pivot_power
    return {
        "d": d,
        "volume_poly": str(inst.f),
        "factorization_ok": inst.g * reconstruction == inst.f,
        "det_m_sign": det_m_sign(d),
        "rank_ok": _has_rank_d(inst.f, d),
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


def distinct_volumes(parameters: Sequence[Scalar], d: int, signed: bool = False) -> VolumeSet:
    """Enumerate the volumes of all C(n, d+1) simplices spanned by curve
    points with the given distinct parameters.

    Default counts absolute (geometric) volumes; signed mode counts both
    orientations, i.e. includes -v alongside every v.
    """
    params = tuple(Fraction(t) for t in parameters)
    if len(set(params)) != len(params):
        raise ValueError("parameters must be distinct")
    if len(params) < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} parameters, got {len(params)}")
    scale = Fraction(1, math.factorial(d))
    volumes = set()
    for subset in combinations(sorted(params), d + 1):
        prod = Fraction(1)
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                prod *= subset[j] - subset[i]
        v = scale * abs(prod)
        volumes.add(v)
        if signed:
            volumes.add(-v)
    return VolumeSet(d=d, parameters=params, volumes=frozenset(volumes), signed=signed)


def volume_expansion_report(
    n_list: Sequence[int],
    generator: str,
    d: int,
    seed: int = 0,
    signed: bool = False,
) -> dict:
    """Count distinct volumes for growing parameter sets and fit the
    growth exponent against the theoretical (5d - 4) / (2d)."""
    if list(n_list) != sorted(set(n_list)) or not n_list:
        raise ValueError("n_list must be nonempty and strictly increasing")
    rows = []
    for n in n_list:
        params = generate_set(SetSpec(kind=generator, n=n, seed=_set_seed(seed, 0)))
        started = time.perf_counter()
        count = distinct_volumes(params, d, signed=signed).count
        rows.append((n, count, time.perf_counter() - started))
    fitted = fit_exponent([(n, count) for n, count, _ in rows]) if len(rows) >= 3 else None
    return {
        "d": d,
        "generator": generator,
        "seed": seed,
        "signed_mode": signed,
        "rows": [{"n": n, "count": count} for n, count, _ in rows],
        "theoretical_exponent": str(theoretical_exponent(d)),
        "fitted_exponent": fitted,
    }
