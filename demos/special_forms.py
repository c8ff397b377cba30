#!/usr/bin/env python3
"""Rank-1 polynomials are exactly the sum/product composites.

A polynomial depending on all of its k >= 3 variables has rank 1 if and
only if it is h(p_1(x_1) + ... + p_k(x_k)) or h(p_1(x_1) * ... * p_k(x_k))
for univariate h and p_i.  The detector never reconstructs h or the p_i;
it checks identities of the first-order partials f_i, f_j and their
restrictions to constants, cleared of all denominators, so everything
stays inside exact polynomial arithmetic.
"""

import random

from polyrank import Polynomial, VarSet, is_special, parse, rank

vars3 = VarSet.of("x1", "x2", "x3")

for text in (
    "x1*x2*x3",                      # product composite
    "(x1 + x2^2 + x3^3)^3",          # sum composite under h(t) = t^3
    "x1*x2 + x3",                    # genuinely rank 2
    "x1*x2",                         # does not depend on x3
):
    verdict = is_special(parse(text, vars3))
    print(f"{text:26s} -> {verdict.verdict:12s} (rank1={verdict.rank1})")
print()

# Build random composites and confirm the two routes agree: the identity
# checks say "special" exactly when the rank engine says rank 1.
rng = random.Random(7)


def univariate(name, deg):
    x = Polynomial.variable(vars3, name)
    p = Polynomial.constant(vars3, rng.randint(-3, 3))
    for j in range(1, deg + 1):
        p = p + rng.choice([-2, -1, 1, 2]) * x ** j
    return p


agreements = 0
for trial in range(10):
    inner = Polynomial.zero(vars3)
    for name in vars3.names:
        inner = inner + univariate(name, rng.randint(1, 2))
    f = inner * inner + 3 * inner  # h(t) = t^2 + 3t
    verdict = is_special(f, seed=trial)
    r = rank(f, seed=trial).overall
    agreements += (verdict.verdict == "special") == (r == 1)
    print(f"trial {trial}: rank={r}, verdict={verdict.verdict}")
print(f"\nagreement on {agreements}/10 random composites")

# Perturbing a composite by a lone monomial breaks the structure: the rank
# jumps to 2 and the verdict flips.
f = parse("(x1 + x2 + x3)^2", vars3)
g = f + parse("x1*x2^2", vars3)
print(f"\nperturbed: rank={rank(g).overall}, verdict={is_special(g).verdict}")
