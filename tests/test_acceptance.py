"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from polyrank import (
    Polynomial,
    SetSpec,
    coefficient_map,
    degenerate_demo,
    depends_on_all,
    distinct_volumes,
    generate_set,
    generic_rank_exact,
    grid_reduce,
    image_size,
    image_values,
    is_special,
    jacobian,
    matrix_m,
    parse,
    rank,
    rank_in,
    reduce,
    symmetric_polys,
    theoretical_exponent,
    verify_counts,
    volume_poly,
)
from polyrank.moment import volume_vars
from polyrank.rank import _randomized_rank
from gens import (
    dense_random_polynomial,
    det_m_sign,
    embedded_rank_poly,
    perturbed_special,
    random_special,
    var_set,
    vandermonde_matrix,
)


def report(criterion: int, name: str) -> None:
    print(f"criterion {criterion} ({name}): PASS")


def test_criterion_1_rank_oracle_agreement():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    cases = 0
    for case in range(500):
        k = 3 if case % 2 == 0 else 4
        vars = var_set(k)
        f = dense_random_polynomial(rng, vars, max_deg=2, lo=-3, hi=3)
        for v in vars.names:
            jac = jacobian(coefficient_map(f, v))
            exact, _ = generic_rank_exact(jac)
            randomized = _randomized_rank(jac, 5, case)[0]
            assert randomized == exact, f"case {case}, pivot {v}: {randomized} != {exact}"
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 500
    assert elapsed < 120.0, f"rank agreement suite took {elapsed:.1f}s"
    report(1, f"rank oracle agreement, 500 cases in {elapsed:.1f}s")


def test_criterion_2_power_family_rank():
    for k in (3, 4, 5, 6):
        vars = var_set(k)
        xk = vars.names[-1]
        f = parse(" + ".join(f"x{i}*{xk}^{i}" for i in range(1, k)), vars)
        rep = rank(f, method="exact")
        assert rep.overall == k - 1, f"k={k}: overall {rep.overall}"
        assert rep.per_variable[xk] == k - 1
    report(2, "power family has rank k-1 for k in 3..6")


def test_criterion_3_special_form_consistency():
    vars = var_set(3)
    rng = random.Random(0x5EED)
    disagreements = 0

    for case in range(200):
        f = random_special(rng, vars, multiplicative=case % 2 == 0, max_deg=3)
        rep = rank(f, seed=case)
        verdict = is_special(f, seed=case)
        assert rep.overall == 1, f"special case {case} has rank {rep.overall}"
        assert verdict.verdict == "special", f"special case {case}: {verdict.verdict}"
        if depends_on_all(f) and (rep.overall == 1) != (verdict.verdict == "special"):
            disagreements += 1

    for case in range(200):
        g = perturbed_special(rng, vars, seed=1000 + case, max_deg=2)
        rep = rank(g, seed=1000 + case)
        verdict = is_special(g, seed=1000 + case)
        assert rep.overall >= 2
        assert verdict.verdict == "not_special", f"perturbed case {case}: {verdict.verdict}"
        if depends_on_all(g) and (rep.overall == 1) != (verdict.verdict == "special"):
            disagreements += 1

    assert disagreements == 0
    report(3, "special-form consistency, 200 + 200 cases, zero disagreements")


def test_criterion_4_reduction_certification():
    vars = var_set(5)
    rng = random.Random(0xAB1E)
    grids = None
    for case in range(100):
        r = 1 + case % 3
        f = embedded_rank_poly(rng, vars, r)
        assert rank_in(f, "x1", method="exact") == r
        result = reduce(f, "x1", seed=case)
        assert result.attempts <= 64
        assert result.certified_rank == r
        assert rank_in(result.restricted, "x1", method="exact") == r

        # grid containment, exhaustively on size-4 grids
        grids = [sorted(rng.sample(range(-20, 21), 4)) for _ in range(5)]
        grid_result = grid_reduce(f, "x1", grids, seed=case)
        pools = dict(zip(vars.names, grids))
        restricted_sets = [pools[name] for name in grid_result.restricted.vars.names]
        small = image_values(grid_result.restricted, restricted_sets)
        big = image_values(f, grids)
        assert small <= big, f"case {case}: restricted image escapes the full image"
    report(4, "reduction certified at rank r for 100 embedded cases + grid containment")


def test_criterion_5_expansion_identities():
    f = parse("x1+x2+x3", var_set(3))
    for n in (10, 20, 40, 80):
        sets = [generate_set(SetSpec("interval", n))] * 3
        assert image_size(f, sets) == 3 * n - 2

    for k in (1, 2, 3):
        for n in (4, 6):
            demo = degenerate_demo(k, n, seed=k * 100 + n)
            assert demo["equal"], f"degenerate demo k={k} n={n}"
            assert demo["sumset_size"] == k * n - k + 1

    assert theoretical_exponent(2) == Fraction(3, 2)
    assert theoretical_exponent(3) == Fraction(11, 6)
    report(5, "interval sums are 3n-2; degenerate collapse exact; exponents 3/2 and 11/6")


def test_criterion_6_incidence_identities():
    from polyrank import build_instance

    started = time.perf_counter()
    for text in ("x1*x2 + x3", "x1*x2^2 + x3"):
        f = parse(text, var_set(3))
        for n in (3, 4):
            sets = [generate_set(SetSpec("interval", n))] * 3
            inst = build_instance(f, sets)
            assert inst.s_size == n ** 3
            assert inst.s_size == inst.s0_size + inst.sprime_size
            checks = verify_counts(inst)
            assert checks["lower_ok"] and checks["upper_ok"], checks
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"incidence suite took {elapsed:.1f}s"
    report(6, f"incidence identities at n=3,4 in {elapsed:.2f}s")


def test_criterion_7_moment_curve_suite():
    for d in range(1, 6):
        det = vandermonde_matrix(d).determinant()
        assert volume_poly(d) == det * Fraction(1, math.factorial(d))

        vars = volume_vars(d)
        t = Polynomial.variable(vars, vars.names[-1])
        rebuilt = Polynomial.zero(vars)
        power = Polynomial.constant(vars, 1)
        for s_l in symmetric_polys(d):
            rebuilt = rebuilt + s_l * power
            power = power * t
        roots = Polynomial.constant(vars, 1)
        for name in vars.names[:-1]:
            roots = roots * (t - Polynomial.variable(vars, name))
        assert rebuilt == roots

        vandermonde_d = Polynomial.constant(vars, 1)
        for i in range(d):
            for j in range(i + 1, d):
                vandermonde_d = vandermonde_d * (
                    Polynomial.variable(vars, vars.names[j])
                    - Polynomial.variable(vars, vars.names[i])
                )
        det_matrix = matrix_m(d).determinant()
        assert det_matrix * det_matrix == vandermonde_d * vandermonde_d
        assert det_matrix == det_m_sign(d) * vandermonde_d

    for d in (2, 3, 4):
        f = volume_poly(d)
        assert rank_in(f, f.vars.names[-1]) == d

    assert distinct_volumes([0, 1, 2, 3], 2).count == 2

    rng = random.Random(0xD1CE)
    for _ in range(50):
        params = sorted(rng.sample(range(-40, 40), 5))
        shift = rng.randint(-15, 15)
        base = distinct_volumes(params, 2)
        shifted = distinct_volumes([t + shift for t in params], 2)
        assert shifted.volumes == base.volumes
    report(7, "moment-curve identities for d <= 5, rank d for d in 2..4, volume counts")


def test_criterion_8_cli_determinism():
    commands = [
        ["rank", "--poly", "x1*x3 + x2*x3^2", "--vars", "x1,x2,x3"],
        ["special", "--poly", "x1*x2*x3", "--vars", "x1,x2,x3"],
        ["reduce", "--poly", "x1*x2 + x3 + x4", "--vars", "x1,x2,x3,x4", "--pivot", "x1"],
        ["expand", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--n", "4,6,8",
         "--sets", "random_int", "--workers", "1"],
        ["incidence", "--poly", "x1*x2 + x3", "--vars", "x1,x2,x3", "--sets", "interval:3"],
        ["moment", "--d", "2", "--points", "0,1,2,3"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "polyrank", *argv],
                capture_output=True,
                check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"non-deterministic output: {argv}"
        json.loads(runs[0].stdout)
    report(8, "byte-identical CLI output across repeated runs of all six subcommands")


def test_criterion_9_performance_guard():
    f = parse("x1*x2 + x3", var_set(3))
    sets = [generate_set(SetSpec("random_int", 200, seed=i)) for i in range(3)]
    started = time.perf_counter()
    size = image_size(f, sets)
    elapsed = time.perf_counter() - started
    assert size <= 200 ** 3
    assert size > 200 ** 2  # random sets expand far beyond trivial
    assert elapsed < 60.0, f"8e6-tuple enumeration took {elapsed:.1f}s"
    report(9, f"8x10^6 exact evaluations in {elapsed:.1f}s")
