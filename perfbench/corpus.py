"""Seeded input generators for the benchmark workloads.

The recipes follow the generators of the test suite, but they live here so
that edits to the tests cannot shift benchmark inputs.  Generators draw from
the ``random.Random`` they are given, and those that build polynomials take
the imported ``polyrank`` package as ``api`` (the runner re-imports it for
each set-up repetition); nothing here keeps state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

NONZERO = (-3, -2, -1, 1, 2, 3)


def var_set(api, k: int):
    return api.VarSet(tuple(f"x{i}" for i in range(1, k + 1)))


def dense_polynomial(api, rng: random.Random, vars):
    """Coefficient uniform in [-3, 3] for every monomial with exponents <= 2."""
    while True:
        terms = {}
        for m in iter_product(range(3), repeat=vars.k):
            c = rng.randint(-3, 3)
            if c:
                terms[m] = c
        if terms:
            return api.Polynomial(vars, terms)


def univariate(api, rng: random.Random, vars, name: str, deg: int):
    """A univariate polynomial of degree ``deg`` in ``name`` with every
    coefficient nonzero, so the slot alone fixes its number of terms."""
    x = api.Polynomial.variable(vars, name)
    p = api.Polynomial.constant(vars, rng.choice(NONZERO))
    for j in range(1, deg + 1):
        p = p + rng.choice(NONZERO) * x ** j
    return p


def special(api, rng: random.Random, vars, multiplicative: bool, h_deg: int, p_degs: tuple[int, ...]):
    """h(p_1(x_1) + ... + p_k(x_k)) or h(p_1(x_1) * ... * p_k(x_k)).

    ``p_degs`` is assigned to the variables in a seeded order; ``h`` has
    degree ``h_deg``.  Every p_i and h is nonconstant, so the result is
    special and depends on every variable.
    """
    degs = list(p_degs)
    rng.shuffle(degs)
    inner = api.Polynomial.constant(vars, 1) if multiplicative else api.Polynomial.zero(vars)
    for name, deg in zip(vars.names, degs):
        p = univariate(api, rng, vars, name, deg)
        inner = inner * p if multiplicative else inner + p
    h = api.Polynomial.constant(vars, rng.choice(NONZERO))
    power = api.Polynomial.constant(vars, 1)
    for _ in range(h_deg):
        power = power * inner
        h = h + rng.choice(NONZERO) * power
    return h


def perturbed_special(api, rng: random.Random, vars, multiplicative: bool, h_deg: int,
                      p_degs: tuple[int, ...], seed: int):
    """A special polynomial plus one generic monomial x_a * x_b^2, retried
    until it depends on every variable and the rank engine certifies
    rank >= 2 (a proved lower bound), so it is not special."""
    while True:
        f = special(api, rng, vars, multiplicative, h_deg, p_degs)
        exponents = [0] * vars.k
        exponents[rng.randrange(vars.k)] += 1
        exponents[rng.randrange(vars.k)] += 2
        g = f + api.Polynomial(vars, {tuple(exponents): rng.choice((1, 2, 3))})
        if g.is_zero or not api.depends_on_all(g):
            continue
        if api.rank(g, seed=seed).overall >= 2:
            return g


def embedded_rank_poly(api, rng: random.Random, vars, r: int, variant: int):
    """A polynomial of rank exactly r with respect to the first variable:
    the coefficients of x1^i are univariate compositions of r generically
    independent linear forms in the other variables.

    ``variant`` fixes the shape (the part free of x1, the degree of each
    composition and whether it has a linear term); the seed draws the
    coefficients."""
    pivot, others = vars.names[0], vars.names[1:]
    while True:
        coeff_rows = [[rng.randint(-2, 2) for _ in others] for _ in range(r)]
        const_rows = [[api.Polynomial.constant(vars, c) for c in row] for row in coeff_rows]
        if api.generic_rank_exact(api.PolyMatrix(vars, const_rows))[0] == r:
            break
    carriers = []
    for row in coeff_rows:
        u = api.Polynomial.zero(vars)
        for name, c in zip(others, row):
            if c:
                u = u + c * api.Polynomial.variable(vars, name)
        carriers.append(u)
    x1 = api.Polynomial.variable(vars, pivot)
    choice = variant % 3
    if choice == 0:
        f = api.Polynomial.zero(vars)
    elif choice == 1:
        f = carriers[rng.randrange(r)] * carriers[rng.randrange(r)]
    else:
        f = carriers[rng.randrange(r)] + api.Polynomial.constant(vars, rng.randint(-3, 3))
    for i, u in enumerate(carriers, start=1):
        deg = 1 + (variant // 3 + i) % 2
        p = rng.choice((-2, -1, 1, 2)) * u ** deg
        if deg == 2 and (variant // 6 + i) % 2:
            p = p + rng.choice((-2, -1, 1, 2)) * u
        f = f + p * x1 ** i
    return f


def rational_set(rng: random.Random, n: int) -> tuple:
    """n distinct non-integral rationals p/q with |p| <= 60 and 2 <= q <= 9."""
    values: set = set()
    while len(values) < n:
        v = Fraction(rng.randint(-60, 60), rng.randint(2, 9))
        if v.denominator != 1:
            values.add(v)
    return tuple(sorted(values))


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi).

    Sizes drawn this way cover the range evenly, so the total work of a
    corpus barely depends on the seed."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]
