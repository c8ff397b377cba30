"""Image-size enumeration, set generators, and expansion reports."""

import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from polyrank import (
    BudgetExceededError,
    Polynomial,
    SetSpec,
    build_instance,
    degenerate_demo,
    expansion_report,
    generate_set,
    image_size,
    image_values,
    parse,
    theoretical_exponent,
)
from gens import brute_image, canonical_types, sparse_random_polynomial, var_set

V3 = var_set(3)


def P(text, vars=V3):
    return parse(text, vars)


# ------------------------------------------------------------ set generation

def test_interval_set():
    assert generate_set(SetSpec("interval", 5)) == (1, 2, 3, 4, 5)


def test_geometric_set():
    assert generate_set(SetSpec("geometric", 4)) == (1, 2, 4, 8)


def test_random_int_set_is_reproducible_and_distinct():
    a = generate_set(SetSpec("random_int", 100, seed=7))
    b = generate_set(SetSpec("random_int", 100, seed=7))
    c = generate_set(SetSpec("random_int", 100, seed=8))
    assert a == b
    assert a != c
    assert len(set(a)) == 100
    assert all(0 <= v <= 100**3 for v in a)


def test_explicit_set():
    spec = SetSpec("explicit", 3, params=(Fraction(1, 2), 0, 7))
    assert generate_set(spec) == (0, Fraction(1, 2), 7)
    with pytest.raises(ValueError):
        generate_set(SetSpec("explicit", 3, params=(1, 1, 2)))


def test_unknown_kind():
    with pytest.raises(ValueError):
        generate_set(SetSpec("fibonacci", 3))


# ------------------------------------------------------------ image size

def test_sum_image_is_arithmetic_progression():
    f = P("x1+x2+x3")
    for n in (5, 10):
        sets = [generate_set(SetSpec("interval", n))] * 3
        assert image_size(f, sets) == 3 * n - 2
    assert image_size(f, [range(1, 11)] * 3) == 28


def test_product_image_on_tiny_sets():
    assert image_size(P("x1*x2*x3"), [[1, 2]] * 3) == 4  # {1, 2, 4, 8}


def test_mixed_sets_example():
    f = P("x1*x2 + x3")
    values = image_values(f, [[1, 2], [1, 3], [0, 1]])
    assert values == {1, 2, 3, 4, 6, 7}


def test_image_against_brute_oracle():
    rng = random.Random(606)
    for _ in range(25):
        f = sparse_random_polynomial(rng, V3, max_deg=2, max_terms=4)
        sets = [sorted(rng.sample(range(-5, 9), rng.randint(1, 4))) for _ in range(3)]
        assert image_values(f, sets) == brute_image(f, sets)


def test_image_with_rational_inputs():
    f = P("x1*x2 + x3")
    sets = [[Fraction(1, 2), 1], [Fraction(1, 3)], [0]]
    assert image_values(f, sets) == {Fraction(1, 6), Fraction(1, 3)}


def test_image_bounds_and_monotonicity():
    rng = random.Random(707)
    f = P("x1*x2 + x3^2")
    small = [sorted(rng.sample(range(0, 20), 3)) for _ in range(3)]
    big = [sorted(set(s) | {rng.randint(20, 30)}) for s in small]
    size_small = image_size(f, small)
    size_big = image_size(f, big)
    assert 1 <= size_small <= 27
    assert size_small <= size_big


def test_image_permutation_invariance():
    # swapping x1 and x2 in both the polynomial and the sets keeps the image
    f = P("x1*x2^2 + x3")
    g = P("x2*x1^2 + x3")
    a, b, c = [1, 2, 3], [0, 5], [2, 7]
    assert image_values(f, [a, b, c]) == image_values(g, [b, a, c])


def test_special_form_collapse_bound():
    # h(x1+x2+x3) takes at most deg(h) * (kn) + 1 values on interval sets
    h_of_sum = P("(x1+x2+x3)^2 + 3*(x1+x2+x3)")
    for n in (4, 8):
        sets = [generate_set(SetSpec("interval", n))] * 3
        assert image_size(h_of_sum, sets) <= 2 * (3 * n) + 1


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        image_size(P("x1+x2+x3"), [range(100)] * 3, budget=10**5)


def test_zero_polynomial_image():
    assert image_values(P("0"), [[1, 2], [3], [4]]) == {0}


# ------------------------------------------------------------ sweep against the reference

def _plain(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _reference_sweep(terms, value_lists, pow_tables, depth, out):
    """The dense Horner sweep image_values used before the grouped integer
    sweep: outer prefixes substituted into the term map, the last variable
    swept with one Horner step per tuple, in int or Fraction arithmetic."""
    if not terms:
        out.add(0)
        return
    if depth == len(value_lists) - 1:
        dmax = max(e[0] for e in terms)
        coeffs = [0] * (dmax + 1)
        for e, c in terms.items():
            coeffs[e[0]] += c
        if dmax == 0:
            out.add(coeffs[0])
            return
        for val in value_lists[depth]:
            acc = coeffs[dmax]
            for idx in range(dmax - 1, -1, -1):
                acc = acc * val + coeffs[idx]
            out.add(acc)
        return
    for val in value_lists[depth]:
        powers = pow_tables[depth][val]
        sub = {}
        for e, c in terms.items():
            cc = c * powers[e[0]] if e[0] else c
            total = sub.get(e[1:], 0) + cc
            if total:
                sub[e[1:]] = total
            else:
                sub.pop(e[1:], None)
        _reference_sweep(sub, value_lists, pow_tables, depth + 1, out)


def reference_image(f: Polynomial, sets: Sequence[Sequence]) -> set:
    if f.is_zero:
        return {0}
    value_lists = [[_plain(v) for v in s] for s in sets]
    terms = {m: _plain(c) for m, c in f.terms.items()}
    pow_tables = []
    for i, values in enumerate(value_lists):
        top = max(m[i] for m in terms)
        pow_tables.append({v: [v**e for e in range(top + 1)] for v in values})
    out = set()
    _reference_sweep(terms, value_lists, pow_tables, 0, out)
    return out


scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-10, max_value=10, max_denominator=9),
)
coefficients = st.one_of(
    st.integers(-20, 20).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
#: Longest set per k, so a grid stays a few hundred tuples.
MAX_SET = {1: 30, 2: 12, 3: 6, 4: 4}


@st.composite
def image_cases(draw):
    """A polynomial in k = 1..4 variables, some of which it may not contain,
    with gapped exponents up to 40 and int or Fraction coefficients (the
    zero and constant polynomials included), and one list per variable of
    int, Fraction or mixed values, duplicates allowed."""
    k = draw(st.integers(1, 4))
    absent = draw(st.sets(st.integers(0, k - 1), max_size=k))
    exponents = [
        st.just(0) if i in absent else st.one_of(st.integers(0, 3), st.integers(0, 40))
        for i in range(k)
    ]
    terms = draw(st.dictionaries(st.tuples(*exponents), coefficients, max_size=4))
    sets = [draw(st.lists(scalars, min_size=1, max_size=MAX_SET[k])) for _ in range(k)]
    return Polynomial(var_set(k), terms), sets


@settings(deadline=None, max_examples=300)
@given(image_cases())
@example((Polynomial(var_set(2), {}), [[1, Fraction(1, 2)], [3]]))
@example((Polynomial(var_set(3), {(0, 0, 0): Fraction(7, 3)}), [[1], [2, 2], [Fraction(1, 5)]]))
@example((Polynomial(var_set(3), {(0, 0, 0): Fraction(4, 2)}), [[1], [2], [3]]))
@example((Polynomial(var_set(3), {(1, 0, 2): 1, (0, 1, 0): -1}), [[0, 0, 1], [-2, 5], [Fraction(1, 2), -1]]))
# the largest set on a higher-index variable: x3 is innermost
@example((Polynomial(var_set(3), {(1, 0, 2): 2, (0, 1, 1): -3, (1, 1, 0): 1}),
          [[1, -2], [3, 0, 5], [-4, -1, 2, 6, Fraction(7, 2), 9]]))
# x1 = 0 zeroes every coefficient of the innermost x3: the all-zero key
@example((Polynomial(var_set(3), {(1, 0, 1): 1, (1, 0, 3): -2, (0, 2, 0): 1}),
          [[0, 1, -1], [2, 5], [1, 2, 3, 4, 5, 6, 7]]))
@example((Polynomial(var_set(1), {(2,): 1, (1,): -1, (0,): 3}), [[-1, 0, 1, 2, Fraction(1, 2)]]))
def test_image_matches_reference_sweep(case):
    f, sets = case
    image = image_values(f, sets)
    assert image == reference_image(f, sets)
    assert canonical_types(image)


def test_innermost_variable_has_the_most_values(monkeypatch):
    import polyrank.expansion as expansion

    sizes = []
    real_column = expansion._column
    monkeypatch.setattr(expansion, "_column", lambda pairs, powers, n: sizes.append(n) or real_column(pairs, powers, n))
    f = P("x1*x2 + x3")
    sets = [generate_set(SetSpec("random_int", n, seed=i)) for i, n in enumerate((2, 50, 50))]
    assert image_values(f, sets) == reference_image(f, sets)
    assert sizes and set(sizes) == {50}


def test_repeated_rows_are_dropped_after_each_outer_variable(monkeypatch):
    # x1*x2 + x3 + ... + x6 over {1..6}: x1 goes innermost and the outer
    # grid has 6^5 points, but after each outer variable only the distinct
    # rows (x2, partial sum) are kept, so fewer sums than points are formed
    import polyrank.expansion as expansion

    sums = []
    monkeypatch.setattr(expansion, "_add", lambda a, b: sums.append(1) or a + b)
    f = P("x1*x2 + x3 + x4 + x5 + x6", var_set(6))
    sets = [generate_set(SetSpec("interval", 6))] * 6
    assert image_values(f, sets) == reference_image(f, sets)
    assert 0 < len(sums) < 6**5


def test_rational_grid_value_types():
    # x1*x2 over {1/2, 2} x {2, 1/3}: 1 and 4 are integral, 1/6 and 2/3 not
    image = image_values(P("x1*x2", var_set(2)), [[Fraction(1, 2), 2], [2, Fraction(1, 3)]])
    assert image == {1, 4, Fraction(1, 6), Fraction(2, 3)}
    assert canonical_types(image)
    half_x1_plus_x2 = Polynomial(var_set(2), {(1, 0): Fraction(1, 2), (0, 1): 1})
    assert image_values(half_x1_plus_x2, [[2, 4], [Fraction(1, 2)]]) == {
        Fraction(3, 2), Fraction(5, 2)}


def test_large_rational_grid_matches_reference():
    f = Polynomial(V3, {(1, 1, 0): 1, (0, 0, 2): Fraction(1, 3)})
    rng = random.Random(808)
    a = [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(60)]
    b = sorted(rng.sample(range(-500, 500), 60))
    c = [Fraction(rng.randint(-40, 40), 7) for _ in range(60)]
    sets = [a, b, c]
    assert len(a) * len(b) * len(c) == 216_000
    image = image_values(f, sets)
    assert image == reference_image(f, sets)
    assert canonical_types(image)


# ------------------------------------------------------------ counting over the cleared grid

nonintegral = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(
    lambda v: v.denominator > 1)


@st.composite
def rational_grid_cases(draw):
    """An image case whose every set holds at least one non-integral value."""
    f, sets = draw(image_cases())
    return f, [s + [draw(nonintegral)] for s in sets]


@settings(deadline=None, max_examples=150)
@given(rational_grid_cases())
@example((Polynomial(var_set(2), {}), [[0, Fraction(1, 2)], [Fraction(-3, 4)]]))
@example((Polynomial(var_set(3), {(0, 0, 0): Fraction(-7, 3)}), [[Fraction(1, 5)], [0, 2], [Fraction(5, 6)]]))
@example((Polynomial(var_set(3), {(2, 0, 1): Fraction(1, 2), (1, 0, 0): -3}),
          [[0, Fraction(-1, 2), Fraction(2, 3)], [Fraction(1, 7), 9], [Fraction(-5, 4), Fraction(3, 10), 1]]))
def test_image_size_counts_rational_grids(case):
    # covers mixed denominators, negatives, 0, ignored variables, constants
    # and the zero polynomial
    f, sets = case
    assert image_size(f, sets) == len(image_values(f, sets)) == len(brute_image(f, sets))


def test_image_size_on_rational_grid_divides_nothing(monkeypatch):
    import polyrank.expansion as expansion

    calls = []
    real_over = expansion._over
    monkeypatch.setattr(expansion, "_over", lambda n, d: calls.append(d) or real_over(n, d))
    sets = [[Fraction(1, 2), Fraction(-2, 3), 0], [Fraction(1, 3), 5], [Fraction(3, 4), Fraction(1, 9)]]
    fifth_x1_x2 = Polynomial(V3, {(1, 1, 0): Fraction(1, 5), (0, 0, 2): 1})
    for f in (P("x1^2000*x2 + x1*x3"), fifth_x1_x2, Polynomial.constant(V3, Fraction(7, 3)), P("0")):
        assert image_size(f, sets) == len(brute_image(f, sets))
    assert calls == []
    image_values(P("x1*x2"), sets)  # the image itself is divided by D
    assert calls


@pytest.mark.parametrize("call", [image_size, image_values, build_instance])
def test_rational_grid_errors_unchanged(call):
    f = Polynomial(V3, {(1, 1, 0): 1, (0, 0, 1): Fraction(1, 2)})
    half = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]  # a duplicate counts as a tuple
    with pytest.raises(ValueError, match=r"^need 3 sets, got 2$"):
        call(f, [half, half])
    with pytest.raises(ValueError, match=r"^empty input set$"):
        call(f, [half, [], half])
    with pytest.raises(BudgetExceededError, match=r"^grid has 27 tuples, over the budget of 26$"):
        call(f, [half] * 3, budget=26)
    assert call(f, [half] * 3, budget=27)


# ------------------------------------------------------------ exponents & reports

def test_theoretical_exponent_values():
    assert theoretical_exponent(2) == Fraction(3, 2)
    assert theoretical_exponent(3) == Fraction(11, 6)
    with pytest.raises(ValueError):
        theoretical_exponent(0)


def test_expansion_report_interval_sums():
    report = expansion_report(P("x1+x2+x3"), "interval", [10, 20, 40, 80])
    assert [(n, size) for n, size, _ in report.rows] == [(10, 28), (20, 58), (40, 118), (80, 238)]
    assert abs(report.fitted_exponent - 1.0) < 0.05
    assert report.rank == 1
    assert report.theoretical_exponent == Fraction(1, 2)


def test_expansion_report_random_sets_expand_fully():
    report = expansion_report(P("x1*x2 + x3"), "random_int", [10, 20, 40], seed=1)
    assert report.theoretical_exponent == Fraction(3, 2)
    assert report.fitted_exponent > 2.5  # random sets typically expand near n^3
    assert report.lower_bound_respected


def test_expansion_report_validation():
    with pytest.raises(ValueError):
        expansion_report(P("x1+x2+x3"), "interval", [10, 10, 20])
    with pytest.raises(ValueError):
        expansion_report(P("x1+x2+x3"), "interval", [10, 20])  # fit needs 3 points


def test_expansion_report_refuses_two_sizes_before_any_work(monkeypatch):
    import polyrank.expansion as expansion

    for name in ("rank", "image_size"):
        monkeypatch.setattr(expansion, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} was called"))
    with pytest.raises(ValueError, match=r"^exponent fit needs at least 3 data points$"):
        expansion_report(P("x1*x2 + x3"), "random_int", [40, 80])


def test_expansion_report_refuses_an_over_budget_size_before_any_work(monkeypatch):
    import polyrank.expansion as expansion

    for name in ("rank", "generate_set", "image_size"):
        monkeypatch.setattr(expansion, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} was called"))
    # the first size over the budget is named: 500^3 > 10^8
    with pytest.raises(BudgetExceededError, match=r"^grid has 125000000 tuples, over the budget of 100000000$"):
        expansion_report(P("x1*x2 + x3"), "random_int", [10, 20, 500, 2_000_000])
    with pytest.raises(BudgetExceededError, match=r"^grid has 8000 tuples, over the budget of 7999$"):
        expansion_report(P("x1*x2 + x3"), "interval", [10, 20, 40], budget=7999)


def test_expansion_report_serialization():
    report = expansion_report(P("x1+x2+x3"), "interval", [4, 8, 16])
    doc = report.to_json_dict()
    assert list(doc) == [
        "poly",
        "rank",
        "theoretical_exponent",
        "fitted_exponent",
        "lower_bound_respected",
        "generator",
        "seed",
    ]
    csv_text = report.to_csv_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,image_size,elapsed_ms"
    assert len(lines) == 4


# ------------------------------------------------------------ degenerate demo

def test_degenerate_demo_equality():
    for k in (1, 2, 3):
        for n in (4, 6):
            report = degenerate_demo(k, n, seed=k * 10 + n)
            assert report["equal"], report
            assert report["image_size_full"] == report["image_size_reduced"]
            assert report["sumset_size"] == k * n - k + 1


def test_degenerate_demo_validation():
    with pytest.raises(ValueError):
        degenerate_demo(0, 5)
