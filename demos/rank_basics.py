#!/usr/bin/env python3
"""Coefficient maps, Jacobians, and the rank of a polynomial.

Writing f as a univariate polynomial in one of its variables collects the
remaining structure into coefficient polynomials; the generic rank of
their Jacobian measures how many independent directions the coefficients
actually move in.  The maximum over pivot variables is the rank of f.
"""

from polyrank import VarSet, coefficient_map, jacobian, parse, rank

vars3 = VarSet.of("x1", "x2", "x3")

f = parse("x1*x3 + x2*x3^2", vars3)
print(f"f = {f}")

cm = coefficient_map(f, "x3")
# only the nonzero coefficients are kept, keyed by their power of x3
print(f"coefficients of powers of x3: {dict(zip(cm.exponents, map(str, cm.alphas)))}")

jac = jacobian(cm)
print(f"Jacobian (rows = nonzero coefficients, columns = x1, x2):\n  {jac}")

report = rank(f, method="exact")
print(f"per-variable ranks: {report.per_variable}  ->  rank(f) = {report.overall}")
print()

# The powers family x1*xk + x2*xk^2 + ... + x_{k-1}*xk^{k-1} is "fully
# k-variate": its rank is the largest possible value, k - 1.
for k in (3, 4, 5, 6):
    names = tuple(f"x{i}" for i in range(1, k + 1))
    text = " + ".join(f"x{i}*x{k}^{i}" for i in range(1, k))
    report = rank(parse(text, VarSet(names)), method="exact")
    print(f"k={k}: rank = {report.overall} (expect {k - 1})")
print()

# A product of all variables collapses to rank 1 no matter how many
# variables are involved; low rank signals a hidden one-dimensional core.
for text in ("x1*x2*x3", "(x1 + x2^2 + x3^3)^3", "x1*x2 + x3"):
    report = rank(parse(text, vars3), method="exact")
    print(f"rank({text}) = {report.overall}")

# The randomized method evaluates the Jacobian at a few seeded integer
# points.  A full-rank evaluation certifies the rank from below, so for
# these examples it returns the same numbers at a fraction of the cost.
report = rank(parse("x1*x3 + x2*x3^2", vars3), method="randomized", seed=0)
print(f"\nrandomized agrees: overall = {report.overall}, witness minor rows (powers of "
      f"{report.witness_var}) {report.witness.rows}")
