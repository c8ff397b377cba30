"""Moment-curve volume polynomial, symmetric-coefficient identities, and
distinct-volume enumeration."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from polyrank import (
    BudgetExceededError,
    Polynomial,
    distinct_volumes,
    matrix_m,
    moment_summary,
    parse,
    rank_in,
    symmetric_polys,
    volume_expansion_report,
    volume_poly,
)
from polyrank import moment as moment_module
from polyrank.moment import SUMMARY_MAX_D, _det_m_certificate, _root_product_terms, _vandermonde, volume_vars
from polyrank.rank import PolyMatrix, _randomized_rank, coefficient_map, jacobian

from gens import canonical_types, det_m_sign, vandermonde_fold, vandermonde_matrix


def test_volume_poly_low_dimensions():
    assert volume_poly(1) == parse("x2 - x1", volume_vars(1))
    v2 = volume_vars(2)
    assert volume_poly(2) == parse("1/2*(x2-x1)*(x3-x1)*(x3-x2)", v2)


def test_volume_poly_equals_vandermonde_determinant():
    for d in range(1, 6):
        det = vandermonde_matrix(d).determinant()
        assert volume_poly(d) == det * Fraction(1, math.factorial(d))


def test_vandermonde_det_small_cofactor_oracle():
    # independent 3x3 cofactor expansion for d = 2
    m = vandermonde_matrix(2)
    e = m.entries
    expected = (
        e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
        - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
        + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
    )
    assert m.determinant() == expected


def test_symmetric_polys_signs():
    v2 = volume_vars(2)
    s = symmetric_polys(2)
    assert s[0] == parse("x1*x2", v2)
    assert s[1] == parse("-(x1+x2)", v2)
    assert s[2] == parse("1", v2)
    s1 = symmetric_polys(1)
    assert s1[0] == parse("-x1", volume_vars(1))
    assert s1[1] == parse("1", volume_vars(1))


def test_symmetric_polys_reconstruct_root_product():
    for d in range(1, 7):
        vars = volume_vars(d)
        t = Polynomial.variable(vars, vars.names[-1])
        product_form = Polynomial.constant(vars, 1)
        for name in vars.names[:-1]:
            product_form = product_form * (t - Polynomial.variable(vars, name))
        s = symmetric_polys(d)
        rebuilt = Polynomial.zero(vars)
        power = Polynomial.constant(vars, 1)
        for s_l in s:
            rebuilt = rebuilt + s_l * power
            power = power * t
        assert rebuilt == product_form


def _root_product(vars, s):
    """sum_l s_l x_{d+1}^l, the root product rebuilt from its coefficients."""
    t = Polynomial.variable(vars, vars.names[-1])
    return sum((s_l * t**level for level, s_l in enumerate(s)), Polynomial.zero(vars))


def _prefactor(d):
    """g = (1/d!) * prod_{1<=i<j<=d} (x_j - x_i), the part of f without x_{d+1}."""
    return vandermonde_fold(volume_vars(d), d) * Fraction(1, math.factorial(d))


def test_prefactor_times_root_product_is_volume():
    for d in range(1, 6):
        assert _prefactor(d) * _root_product(volume_vars(d), symmetric_polys(d)) == volume_poly(d)
        assert moment_summary(d)["factorization_ok"]


def test_moment_symbolic_cast():
    # the f, g, s and M that moment_summary checks, for d = 3
    f, g, s, m = volume_poly(3), _prefactor(3), symmetric_polys(3), matrix_m(3)
    assert s[-1] == 1  # leading coefficient of the root product
    assert (m.rows, m.cols) == (3, 3)
    vars = f.vars
    assert g * _root_product(vars, s) == f
    for i in range(3):
        for j in range(3):
            assert m.entries[i][j] == s[i].partial(vars.names[j])


def test_vandermonde_expansion_matches_product():
    wide = volume_vars(7)
    for count in range(8):
        for vars in (wide, volume_vars(max(count - 1, 1))):
            expanded = _vandermonde(vars, count)
            assert expanded == vandermonde_fold(vars, count)
            assert len(expanded.terms) == math.factorial(count)
            assert canonical_types(expanded.terms.values())


def _fraction_summary(d):
    """moment_summary(d) computed on the rational f = V_{d+1}/d! and
    g = V_d/d!, with the products multiplied out and the rank taken on
    the Jacobian of f itself."""
    vars = volume_vars(d)
    scale = Fraction(1, math.factorial(d))
    f, g = vandermonde_fold(vars, d + 1) * scale, vandermonde_fold(vars, d) * scale
    det, v_d = matrix_m(d).determinant(), g * math.factorial(d)
    r, _ = _randomized_rank(jacobian(coefficient_map(f, vars.names[-1])), 5, 0)
    return {
        "d": d,
        "volume_poly": str(f),
        "factorization_ok": g * _root_product(vars, symmetric_polys(d)) == f,
        "det_m_sign": 1 if det == v_d else -1 if det == -v_d else None,
        "rank_ok": r == d,
    }


def test_moment_summary_matches_fraction_reference():
    for d in range(1, 7):
        assert moment_summary(d) == _fraction_summary(d)


def _edited(v, mono, c):
    """v with the coefficient of ``mono`` set to c (0 drops the term)."""
    terms = {**v.terms, mono: c}
    return Polynomial(v.vars, {m: value for m, value in terms.items() if value})


def _missed_root(v):
    # V_d * (x_{d+1} - 2*x_1) * prod_{k>=2}(x_{d+1} - x_k) keeps the top
    # slice and the degree; only the substitution x_{d+1} -> x_1 fails
    d = v.vars.k - 1
    xs = [Polynomial.variable(v.vars, name) for name in v.vars.names]
    roots = [2 * xs[0]] + xs[1:d]
    return [math.prod((xs[d] - root for root in roots), start=vandermonde_fold(v.vars, d))]


def _degree_d_plus_1_multiple(v):
    # adding prod_k (x_{d+1} - x_k) * (x_{d+1} + x_1 + ... + x_d) keeps
    # every root and the x_{d+1}^d slice (s_{d-1} = -(x_1 + ... + x_d)
    # cancels); only the degree bound fails
    d = v.vars.k - 1
    xs = [Polynomial.variable(v.vars, name) for name in v.vars.names]
    return [v + math.prod((xs[d] - x for x in xs[:d]), start=sum(xs, Polynomial.zero(v.vars)))]


def _aliased_high_powers(v):
    # + x_1^(2d+1) - x_2: both terms are free of x_{d+1}, so no substitution
    # moves them, and packed in a base 2d + 1 fixed by d alone they would
    # share one key and cancel in every pass; x_1^(2d+1) - x_2 is no
    # multiple of the root product, so the copy is no factorization
    d = v.vars.k - 1
    return [_edited(_edited(v, (2 * d + 1,) + (0,) * d, 1), (0, 1) + (0,) * (d - 1), -1)]


#: Broken copies of V_{d+1}, none of them V_d * prod_k (x_{d+1} - x_k).
FACTORIZATION_MUTANTS = {
    # every term, in the x_{d+1}^d slice (caught there) and below it
    # (caught by a substitution x_{d+1} -> x_k)
    "dropped_term": lambda v: [_edited(v, mono, 0) for mono in v.terms],
    "flipped_top_term": lambda v: [_edited(v, mono, -c) for mono, c in v.terms.items()
                                   if mono[-1] == v.vars.k - 1],
    "term_above_degree_d": lambda v: [_edited(v, (e,) + (0,) * (v.vars.k - 2) + (v.vars.k,), 1)
                                      for e in (0, 1)],
    "missed_root": _missed_root,
    # 2*V_{d+1} keeps the degree and every root; only the top slice fails
    "multiple": lambda v: [2 * v],
    "degree_d_plus_1_multiple": _degree_d_plus_1_multiple,
    "aliased_high_powers": _aliased_high_powers,
}


def _assert_refuted(summary):
    assert summary["factorization_ok"] is False
    assert summary["rank_ok"] is False


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("mutant", list(FACTORIZATION_MUTANTS))
def test_summary_rejects_a_broken_factorization(monkeypatch, mutant, d):
    for broken in FACTORIZATION_MUTANTS[mutant](_vandermonde(volume_vars(d), d + 1)):
        monkeypatch.setattr(moment_module, "_vandermonde",
                            lambda vars, count: broken if count == d + 1 else _vandermonde(vars, count))
        _assert_refuted(moment_summary(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_summary_links_the_factorization_to_s(monkeypatch, d):
    # the link check ties the certified root product to the s_l behind M;
    # each mutant leaves M, so the W*M certificate holds:
    # s_0 + 1 changes the product; s_0 + x_{d+1} with s_1 - 1 keeps
    # sum_l s_l x_{d+1}^l but puts x_{d+1} into a coefficient; and
    # s_d = x_{d+1} (s_d is not in M) differs from 1 only in x_{d+1}
    vars = volume_vars(d)
    one, t = Polynomial.constant(vars, 1), Polynomial.variable(vars, vars.names[-1])
    for shifts in ({0: one}, {0: t, 1: -one}, {d: t - one}):
        def mutated(dim, shifts=shifts):
            s = list(symmetric_polys(dim))
            for level, shift in shifts.items():
                s[level] = s[level] + shift
            return tuple(s)

        monkeypatch.setattr(moment_module, "symmetric_polys", mutated)
        assert _det_m_certificate(moment_module.matrix_m(d)) == det_m_sign(d)
        _assert_refuted(moment_summary(d))


def test_summary_refuses_large_d_before_expanding(monkeypatch):
    monkeypatch.setattr(moment_module, "_vandermonde", lambda *args: pytest.fail("expanded"))
    monkeypatch.setattr(moment_module, "symmetric_polys", lambda *args: pytest.fail("expanded"))
    for d in (SUMMARY_MAX_D + 1, 12):
        with pytest.raises(ValueError, match=rf"--d {d}\b.*\(d\+1\)! = {math.factorial(d + 1):,} terms"):
            moment_summary(d)


def test_volume_poly_refuses_large_d_before_expanding(monkeypatch):
    monkeypatch.setattr(moment_module, "_vandermonde", lambda *args: pytest.fail("expanded"))
    for d in (SUMMARY_MAX_D + 1, 12):
        with pytest.raises(ValueError, match=rf"--d {d}\b.*\(d\+1\)! = {math.factorial(d + 1):,} terms"):
            volume_poly(d)


@pytest.mark.parametrize("d", range(1, 7))
def test_root_products_written_out_equal_the_products(d):
    # the W*M diagonal -prod_(k != j)(x_j - x_k) and the link check's
    # prod_k (x_{d+1} - x_k), one term per subset of the roots, against
    # Polynomial products
    vars = volume_vars(d)
    xs = [Polynomial.variable(vars, name) for name in vars.names]
    for j in range(d):
        roots = [k for k in range(d) if k != j]
        expected = math.prod((xs[j] - xs[k] for k in roots), start=Polynomial.constant(vars, -1))
        assert _root_product_terms(vars.k, j, roots, -1) == expected.terms
    assert _root_product_terms(vars.k, d, range(d), 1) == math.prod((xs[d] - x for x in xs[:d]), start=xs[0] ** 0).terms


def test_matrix_m_small_cases():
    v2 = volume_vars(2)
    m = matrix_m(2)
    assert m.entries[0] == (parse("x2", v2), parse("x1", v2))
    assert m.entries[1] == (parse("-1", v2), parse("-1", v2))
    assert m.determinant() == parse("x1 - x2", v2)
    assert matrix_m(1).determinant() == parse("-1", volume_vars(1))


def test_det_m_squared_identity():
    for d in range(1, 6):
        vars = volume_vars(d)
        vandermonde_d = Polynomial.constant(vars, 1)
        for i in range(d):
            for j in range(i + 1, d):
                vandermonde_d = vandermonde_d * (
                    Polynomial.variable(vars, vars.names[j]) - Polynomial.variable(vars, vars.names[i])
                )
        det = matrix_m(d).determinant()
        assert det * det == vandermonde_d * vandermonde_d
        assert det_m_sign(d) in (-1, 1)
        assert det == det_m_sign(d) * vandermonde_d


def test_det_m_certificate_sign_is_the_bareiss_sign():
    for d in range(1, 7):
        assert _det_m_certificate(matrix_m(d)) == det_m_sign(d)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_det_m_certificate_rejects_a_dropped_term(d):
    # every entry of M is nonempty; dropping any one of its terms breaks
    # the identity (W*M)_ij = -prod_(k != j)(x_i - x_k) in column j
    m = matrix_m(d)
    for i in range(d):
        for j in range(d):
            for dropped in m.entries[i][j].terms:
                rows = [list(row) for row in m.entries]
                terms = dict(rows[i][j].terms)
                del terms[dropped]
                rows[i][j] = Polynomial(m.vars, terms)
                with pytest.raises(AssertionError, match=r"\(W\*M\)"):
                    _det_m_certificate(PolyMatrix(m.vars, rows))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_det_m_certificate_checks_off_the_diagonal(d):
    # adding the coefficients of t - x_j to column j leaves the diagonal
    # entry (W*M)_jj, where t = x_j, and adds x_i - x_j to every (W*M)_ij
    m = matrix_m(d)
    for j in range(d):
        x_j = Polynomial.variable(m.vars, m.vars.names[j])
        rows = [list(row) for row in m.entries]
        rows[0][j] = rows[0][j] - x_j
        rows[1][j] = rows[1][j] + 1
        with pytest.raises(AssertionError, match=rf"\(W\*M\)\[\d\]\[{j}\]"):
            _det_m_certificate(PolyMatrix(m.vars, rows))


def test_derivative_evaluation_identity():
    # For P(t) = prod_k (t - x_k): sum_k ds_k/dx_j * x_i^k equals 0 when
    # i != j and -prod_{k != j} (x_j - x_k) when i = j.
    rng = random.Random(99)
    for d in range(1, 5):
        vars = volume_vars(d)
        s = symmetric_polys(d)
        for _ in range(5):
            point = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(d + 1)]
            if len(set(point[:d])) != d:
                continue
            for j in range(d):
                for i in range(d):
                    total = sum(
                        s[level].partial(vars.names[j]).eval(point) * point[i] ** level
                        for level in range(d)
                    )
                    if i != j:
                        assert total == 0
                    else:
                        expected = Fraction(-1)
                        for k2 in range(d):
                            if k2 != j:
                                expected *= point[j] - point[k2]
                        assert total == expected


def test_volume_poly_has_full_rank():
    for d in (2, 3, 4):
        f = volume_poly(d)
        assert rank_in(f, f.vars.names[-1]) == d
    # the rank cannot exceed the column count d
    jac_cols = matrix_m(3).cols
    assert jac_cols == 3


# ------------------------------------------------------------ volumes

def test_distinct_volumes_examples():
    assert sorted(distinct_volumes([0, 1, 2, 3], 2).volumes) == [1, 3]
    assert distinct_volumes([0, 1, 2], 2).volumes == frozenset({1})
    assert sorted(distinct_volumes([0, 1, 4], 1).volumes) == [1, 3, 4]


def test_distinct_volumes_match_volume_poly():
    # dual route: enumerate via the volume polynomial's absolute values
    rng = random.Random(4242)
    params = sorted(rng.sample(range(-10, 15), 6))
    d = 2
    f = volume_poly(d)
    expected = set()
    for triple in combinations(params, d + 1):
        expected.add(abs(f.eval(list(triple))))
    assert distinct_volumes(params, d).volumes == expected


def test_distinct_volumes_signed_mode():
    plain = distinct_volumes([0, 1, 2, 3], 2)
    signed = distinct_volumes([0, 1, 2, 3], 2, signed=True)
    assert signed.count == 2 * plain.count
    assert {abs(v) for v in signed.volumes} == set(plain.volumes)


def test_distinct_volumes_validation():
    with pytest.raises(ValueError, match="distinct"):
        distinct_volumes([1, 1, 2], 1)
    with pytest.raises(ValueError, match="d\\+1"):
        distinct_volumes([1, 2], 2)
    for d in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            distinct_volumes([1, 2, 3], d)


def test_simplex_budget_is_checked_before_any_enumeration(monkeypatch):
    for name in ("combinations", "_cleared", "generate_set"):
        monkeypatch.setattr(moment_module, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    # C(400, 6) and C(3000, 4) simplices
    with pytest.raises(BudgetExceededError, match=r"^400 parameters span 5478557838600 simplices, over the budget of 100000000$"):
        distinct_volumes(range(400), 5)
    with pytest.raises(BudgetExceededError, match=r"^3000 parameters span 3368254124250 simplices"):
        distinct_volumes(range(1, 3001), 3)
    # every size is checked before the first count
    with pytest.raises(BudgetExceededError, match=r"^400 parameters span"):
        volume_expansion_report([10, 20, 400], "interval", 5)


def reference_volumes(parameters, d, signed):
    """(1/d!) * |prod of differences| over every (d+1)-subset, in Fraction
    arithmetic throughout."""
    scale = Fraction(1, math.factorial(d))
    volumes = set()
    for subset in combinations(sorted(Fraction(t) for t in parameters), d + 1):
        prod = Fraction(1)
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                prod *= subset[j] - subset[i]
        v = scale * abs(prod)
        volumes.add(v)
        if signed:
            volumes.add(-v)
    return volumes


parameters = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-12, max_value=12, max_denominator=11),
)


@st.composite
def volume_cases(draw):
    """d = 1..4 and at least d+1 distinct int, Fraction or mixed parameters,
    negative ones included, in any order."""
    d = draw(st.integers(1, 4))
    params = draw(st.lists(parameters, min_size=d + 1, max_size=9, unique_by=Fraction))
    return params, d, draw(st.booleans())


@settings(deadline=None, max_examples=300)
@given(volume_cases())
@example(([Fraction(1, 2), -3, Fraction(7, 3), 5], 2, True))
@example(([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], 2, False))
@example(([-2, Fraction(3, 5), 1, 4, Fraction(-7, 2)], 4, False))
def test_distinct_volumes_match_fraction_reference(case):
    params, d, signed = case
    result = distinct_volumes(params, d, signed=signed)
    assert result.volumes == reference_volumes(params, d, signed)
    assert canonical_types(result.volumes)
    assert result.parameters == tuple(Fraction(t) for t in params)
    assert all(type(t) is Fraction for t in result.parameters)


def test_volume_translation_and_scaling_invariance():
    rng = random.Random(31)
    for case in range(10):
        params = sorted(rng.sample(range(-30, 30), 5))
        base = distinct_volumes(params, 2)
        shift = rng.randint(-9, 9)
        shifted = distinct_volumes([t + shift for t in params], 2)
        assert shifted.volumes == base.volumes
        c = rng.choice([2, 3, -2])
        scaled = distinct_volumes([c * t for t in params], 2)
        factor = Fraction(abs(c)) ** 3  # C(3, 2) pairwise differences
        assert scaled.volumes == frozenset(factor * v for v in base.volumes)
        assert scaled.count == base.count


def test_volume_expansion_report():
    report = volume_expansion_report([8, 12, 16], "random_int", 2, seed=5)
    assert report["theoretical_exponent"] == "3/2"
    assert len(report["rows"]) == 3
    assert report["fitted_exponent"] > 1.0
    counts = [row["count"] for row in report["rows"]]
    assert counts == sorted(counts)
