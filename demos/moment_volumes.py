#!/usr/bin/env python3
"""Distinct simplex volumes on the moment curve t -> (t, t^2, ..., t^d).

The d-volume spanned by d+1 curve points is a Vandermonde determinant in
their parameters, and that polynomial has full rank d with respect to the
last parameter, so the expansion machinery guarantees many distinct
volumes.  All identities below are verified with exact symbolic algebra.
"""

from polyrank import (
    distinct_volumes,
    matrix_m,
    moment_summary,
    rank_in,
    symmetric_polys,
    volume_expansion_report,
    volume_poly,
)
from polyrank.moment import volume_vars

print("volume polynomial for d = 2 (triangle area up to orientation):")
print(f"  {volume_poly(2)}")
print()

# Splitting off the last variable leaves prod_k (x_{d+1} - x_k), whose
# coefficients are the signed elementary symmetric polynomials.
print("d = 3 symmetric coefficients s_0..s_3:")
for level, s in enumerate(symmetric_polys(3)):
    print(f"  s_{level} = {s}")
print(f"det of their derivative matrix: {matrix_m(3).determinant()}")
print()

for d in (1, 2, 3, 4):
    summary = moment_summary(d)
    pivot = volume_vars(d).names[-1]
    r = rank_in(volume_poly(d), pivot)
    print(f"d={d}: factorization ok={summary['factorization_ok']}, "
          f"det sign {summary['det_m_sign']:+d}, rank_{pivot} = {r}")
print()

# Counting distinct volumes exactly: arithmetic progressions collide a
# lot; generic parameters do not.
print(f"parameters 0,1,2,3 (d=2): volumes {sorted(distinct_volumes([0, 1, 2, 3], 2).volumes)}")
print(f"parameters 0,1,2,...,9 (d=2): {distinct_volumes(range(10), 2).count} "
      f"distinct volumes out of {10 * 9 * 8 // 6} triangles")

report = volume_expansion_report([8, 12, 16, 20], "random_int", 2, seed=3)
print("\nrandom parameters, d = 2:")
for row in report["rows"]:
    print(f"  n={row['n']:3d}  distinct volumes = {row['count']}")
print(f"fitted exponent {report['fitted_exponent']:.2f} vs "
      f"guaranteed {report['theoretical_exponent']}")
