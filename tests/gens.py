"""Shared deterministic generators and independent oracles for the tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product as iter_product

from polyrank import NEG_INF, PolyMatrix, Polynomial, VarSet, matrix_m, rank
from polyrank.moment import _vandermonde, volume_vars


def var_set(k: int, prefix: str = "x") -> VarSet:
    return VarSet(tuple(f"{prefix}{i}" for i in range(1, k + 1)))


def dense_random_polynomial(rng: random.Random, vars: VarSet, max_deg: int = 2,
                            lo: int = -3, hi: int = 3) -> Polynomial:
    """Coefficient uniform in [lo, hi] for every monomial in the degree box;
    zero coefficients drop terms.  Retries until nonzero."""
    while True:
        terms = {}
        for m in iter_product(range(max_deg + 1), repeat=vars.k):
            c = rng.randint(lo, hi)
            if c:
                terms[m] = c
        p = Polynomial(vars, terms)
        if not p.is_zero:
            return p


def sparse_random_polynomial(rng: random.Random, vars: VarSet, max_deg: int = 3,
                             max_terms: int = 6, lo: int = -9, hi: int = 9) -> Polynomial:
    """A handful of random monomials; may be the zero polynomial."""
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(vars.k))
        terms[m] = terms.get(m, 0) + rng.randint(lo, hi)
    return Polynomial(vars, terms)


def gapped_random_polynomial(rng: random.Random, vars: VarSet, max_deg: int = 60,
                             max_terms: int = 6) -> Polynomial:
    """A few terms whose exponents come from a small per-variable pool of
    {0, 1} and two draws up to ``max_deg``, so coefficient maps have wide
    gaps between nonzero powers and terms often share a power.  Nonzero."""
    pools = [(0, 1, rng.randint(2, max_deg), rng.randint(2, max_deg)) for _ in vars.names]
    while True:
        terms: dict = {}
        for _ in range(rng.randint(2, max_terms)):
            m = tuple(rng.choice(pool) for pool in pools)
            c = rng.choice([-9, -5, -2, -1, 1, 3, 7, Fraction(1, 2), Fraction(-4, 3)])
            terms[m] = terms.get(m, 0) + c
        p = Polynomial(vars, terms)
        if not p.is_zero:
            return p


def random_point(rng: random.Random, k: int, lo: int = -50, hi: int = 50) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(k)]


def random_univariate(rng: random.Random, vars: VarSet, name: str, max_deg: int = 3) -> Polynomial:
    """Nonconstant univariate polynomial in one variable of the ambient set."""
    deg = rng.randint(1, max_deg)
    x = Polynomial.variable(vars, name)
    p = Polynomial.constant(vars, rng.randint(-3, 3))
    for j in range(1, deg):
        p = p + rng.randint(-3, 3) * x ** j
    return p + rng.choice([-3, -2, -1, 1, 2, 3]) * x ** deg


def random_special(rng: random.Random, vars: VarSet, multiplicative: bool,
                   max_deg: int = 3) -> Polynomial:
    """h(p_1(x_1) + ... + p_k(x_k)) or h(p_1(x_1) * ... * p_k(x_k)) with
    nonconstant h and p_i, so the result depends on every variable."""
    if multiplicative:
        inner = Polynomial.constant(vars, 1)
        for name in vars.names:
            inner = inner * random_univariate(rng, vars, name, max_deg)
    else:
        inner = Polynomial.zero(vars)
        for name in vars.names:
            inner = inner + random_univariate(rng, vars, name, max_deg)
    hdeg = rng.randint(1, max_deg)
    h = Polynomial.constant(vars, rng.randint(-3, 3))
    acc = Polynomial.constant(vars, 1)
    for j in range(1, hdeg + 1):
        acc = acc * inner
        c = rng.choice([-3, -2, -1, 1, 2, 3]) if j == hdeg else rng.randint(-3, 3)
        h = h + c * acc
    return h


def perturbed_special(rng: random.Random, vars: VarSet, seed: int, max_deg: int = 2) -> Polynomial:
    """A special polynomial plus a generic monomial, retried until the rank
    engine certifies rank >= 2."""
    while True:
        f = random_special(rng, vars, multiplicative=rng.random() < 0.5, max_deg=max_deg)
        exponents = [0] * vars.k
        exponents[rng.randrange(vars.k)] = 1
        exponents[rng.randrange(vars.k)] += 2
        g = f + Polynomial(vars, {tuple(exponents): rng.choice([1, 2, 3])})
        if g.is_zero:
            continue
        if rank(g, seed=seed).overall >= 2:
            return g


def embedded_rank_poly(rng: random.Random, vars: VarSet, r: int) -> Polynomial:
    """A k-variate polynomial with rank exactly r with respect to the first
    variable: coefficients of x1^i are univariate compositions of r
    generically independent linear carrier forms in the other variables,
    so every Jacobian row lies in the span of the r carrier directions."""
    from polyrank import PolyMatrix, generic_rank_exact

    pivot = vars.names[0]
    others = vars.names[1:]
    while True:
        coeff_rows = [[rng.randint(-2, 2) for _ in others] for _ in range(r)]
        const_rows = [[Polynomial.constant(vars, c) for c in row] for row in coeff_rows]
        if generic_rank_exact(PolyMatrix(vars, const_rows))[0] == r:
            break
    carriers = []
    for row in coeff_rows:
        u = Polynomial.zero(vars)
        for name, c in zip(others, row):
            if c:
                u = u + c * Polynomial.variable(vars, name)
        carriers.append(u)
    x1 = Polynomial.variable(vars, pivot)
    choice = rng.randrange(3)
    if choice == 0:
        alpha0 = Polynomial.zero(vars)
    elif choice == 1:
        alpha0 = carriers[rng.randrange(r)] * carriers[rng.randrange(r)]
    else:
        alpha0 = carriers[rng.randrange(r)] + Polynomial.constant(vars, rng.randint(-3, 3))
    f = alpha0
    for i, u in enumerate(carriers, start=1):
        deg = rng.randint(1, 2)
        p = rng.choice([-2, -1, 1, 2]) * u ** deg
        if deg == 2 and rng.random() < 0.5:
            p = p + rng.randint(-2, 2) * u
        f = f + p * x1 ** i
    return f


def vandermonde_fold(vars: VarSet, count: int) -> Polynomial:
    """prod_{1<=i<j<=count} (x_j - x_i), multiplied out one factor at a time."""
    xs = [Polynomial.variable(vars, name) for name in vars.names[:count]]
    return math.prod((xs[j] - xs[i] for i in range(count) for j in range(i + 1, count)),
                     start=Polynomial.constant(vars, 1))


def vandermonde_matrix(d: int) -> PolyMatrix:
    """The (d+1) x (d+1) matrix with rows (1, x_i, x_i^2, ..., x_i^d)."""
    vars = volume_vars(d)
    rows = []
    for i in range(d + 1):
        x = Polynomial.variable(vars, vars.names[i])
        rows.append([x ** j for j in range(d + 1)])
    return PolyMatrix(vars, rows)


def det_m_sign(d: int) -> int:
    """Sign relating det(M) to prod_{1<=i<j<=d}(x_j - x_i), from the
    Bareiss determinant of :func:`polyrank.matrix_m`.

    Both polynomials agree up to sign (their squares are identical); the
    sign itself depends on d and is worth recording since it is easy to
    drop in hand computations.  ``polyrank.moment._det_m_certificate``
    proves the same sign without the determinant.
    """
    det, vandermonde = matrix_m(d).determinant(), _vandermonde(volume_vars(d), d)
    if det == vandermonde:
        return 1
    if det == -vandermonde:
        return -1
    raise AssertionError(f"det(M) is not +-Vandermonde for d={d}")


def eval_moduli(monkeypatch) -> list:
    """Patch ``Polynomial.eval`` to record the modulus of each call;
    returns the record."""
    moduli = []
    original = Polynomial.eval

    def spy(self, point, modulus=None):
        moduli.append(modulus)
        return original(self, point, modulus)

    monkeypatch.setattr(Polynomial, "eval", spy)
    return moduli


def canonical_types(values) -> bool:
    """int for every integral value, Fraction for every other one."""
    return all(type(v) is (int if Fraction(v).denominator == 1 else Fraction) for v in values)


def brute_image(f: Polynomial, sets) -> set:
    """Independent image oracle: full product enumeration through eval."""
    out = set()
    for point in iter_product(*sets):
        out.add(f.eval(list(point)))
    return out


def permute_polynomial(f: Polynomial, perm: list[int]) -> Polynomial:
    """Relabel variables: position i of every exponent vector moves to
    position perm[i] (same ambient variable set)."""
    out = {}
    for m, c in f.terms.items():
        e = [0] * len(m)
        for i, exp in enumerate(m):
            e[perm[i]] = exp
        out[tuple(e)] = c
    return Polynomial(f.vars, out)


# ------------------------------------------------------------ term-map oracles

def grlex_key(exponents) -> tuple:
    """Graded-lex sort key: total degree first, then the exponent vector."""
    return (sum(exponents), exponents)


def reference_str(p: Polynomial) -> str:
    """The canonical text of p, by ``abs``, comparisons and ``str`` on each
    coefficient: the printer ``str(p)`` must match byte for byte."""
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for m in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[m]
        factors = []
        for name, e in zip(p.vars.names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def degree_in(p: Polynomial, name: str):
    """Largest exponent of ``name`` in p; NEG_INF for the zero polynomial."""
    i = p.vars.index(name)
    return max((m[i] for m in p.terms), default=NEG_INF)


def constant_term(p: Polynomial) -> Fraction:
    return Fraction(p.terms.get((0,) * p.vars.k, 0))


def leading_term(p: Polynomial):
    """(exponents, coefficient) of p's largest term in graded-lex order."""
    m = max(p.terms, key=grlex_key)
    return m, p.terms[m]


def embed(p: Polynomial, target: VarSet) -> Polynomial:
    """p viewed over the larger variable set ``target``."""
    positions = [target.index(name) for name in p.vars.names]
    out = {}
    for m, c in p.terms.items():
        e = [0] * target.k
        for pos, exp in zip(positions, m):
            e[pos] = exp
        out[tuple(e)] = c
    return Polynomial(target, out)


def reconstruct(cm) -> Polynomial:
    """sum alpha_i * pivot^i over a coefficient map: the polynomial it came from."""
    v = Polynomial.variable(cm.vars, cm.pivot_var)
    total = Polynomial.zero(cm.vars)
    for e, alpha in zip(cm.exponents, cm.alphas):
        total = total + alpha * v**e
    return total
