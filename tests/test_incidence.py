"""Surface-set decomposition, curve families, and incidence counting."""

from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, reject, settings, strategies as st

from polyrank import (
    Polynomial,
    PolyMatrix,
    bound_ratios,
    build_instance,
    coefficient_map,
    generic_rank_exact,
    image_values,
    jacobian,
    parse,
    verify_counts,
)
from gens import constant_term, degree_in, var_set

V3 = var_set(3)


def P(text, vars=V3):
    return parse(text, vars)


def brute_instance(f, sets, minor_rows):
    """Independent oracle: direct enumeration of suffixes, curves, and the
    pairwise point-on-curve test over all of P x C.  The coefficient map is
    built densely here, alpha_0..alpha_d, so ``minor_rows`` (pivot
    exponents) index its Jacobian directly."""
    vars = f.vars
    alphas = [
        Polynomial(vars, {(0,) + m[1:]: c for m, c in f.terms.items() if m[0] == i})
        for i in range(degree_in(f, vars.names[0]) + 1)
    ]
    jac = PolyMatrix(vars, [[alpha.partial(name) for name in vars.names[1:]] for alpha in alphas])
    det = jac.submatrix(minor_rows, range(vars.k - 1)).determinant()
    image = set()
    for point in iter_product(*sets):
        image.add(f.eval(list(point)))
    suffix_sets = sets[1:]
    degenerate = 0
    curves = {}
    for suffix in iter_product(*suffix_sets):
        bindings = dict(zip(vars.names[1:], suffix))
        restricted = det.substitute(bindings)
        if constant_term(restricted) == 0:
            degenerate += 1
            continue
        vector = tuple(constant_term(alpha.substitute(bindings)) for alpha in alphas)
        curves[vector] = curves.get(vector, 0) + 1
    incidences = 0
    for vector in curves:
        for x in sets[0]:
            for y in image:
                value = sum(c * Fraction(x) ** i for i, c in enumerate(vector))
                if value == y:
                    incidences += 1
    a1 = len(sets[0])
    total_suffixes = 1
    for s in suffix_sets:
        total_suffixes *= len(s)
    return {
        "S": a1 * total_suffixes,
        "S0": a1 * degenerate,
        "Sprime": a1 * (total_suffixes - degenerate),
        "curves": dict(curves),
        "incidences": incidences,
    }


# ------------------------------------------------------------ worked instances

def test_bilinear_instance_counts():
    inst = build_instance(P("x1*x2 + x3"), [[1, 2, 3]] * 3)
    assert inst.s_size == 27
    assert inst.s0_size == 0  # the certifying minor has constant determinant
    assert inst.sprime_size == 27
    assert len(inst.curves) == 9  # all (a2, a3) give distinct lines
    assert inst.incidence_count == 27
    assert inst.max_multiplicity == 1


def test_bilinear_matches_brute_oracle():
    f = P("x1*x2 + x3")
    sets = [[1, 2, 3]] * 3
    inst = build_instance(f, sets)
    expected = brute_instance(f, sets, inst.witness_rows)
    assert inst.s_size == expected["S"]
    assert inst.s0_size == expected["S0"]
    assert inst.sprime_size == expected["Sprime"]
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert inst.incidence_count == expected["incidences"]


def test_squared_variable_collapses_curves():
    # x1*x2^2 + x3 over {-1,0,1}: the minor determinant vanishes at x2 = 0,
    # and a2 = +-1 produce the same curve, so multiplicities reach 2.
    f = P("x1*x2^2 + x3")
    sets = [[-1, 0, 1]] * 3
    inst = build_instance(f, sets)
    assert inst.s_size == 27
    assert inst.s0_size == 9
    assert inst.sprime_size == 18
    assert len(inst.curves) == 3
    assert inst.max_multiplicity == 2
    assert inst.incidence_count == 9
    expected = brute_instance(f, sets, inst.witness_rows)
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert inst.incidence_count == expected["incidences"]


def test_gapped_pivot_powers_match_brute_oracle():
    # alpha_0 = alpha_2 = 0: the curves are x -> x2^2*x^3 + x3*x, stored as
    # dense coefficient vectors with zeros at the missing powers
    f = P("x1^3*x2^2 + x1*x3")
    sets = [[-1, 1, 2], [0, 1, 2], [1, 3]]
    inst = build_instance(f, sets)
    assert inst.witness_rows == (1, 3)
    assert all(len(curve) == 4 and curve[0] == curve[2] == 0 for curve in inst.curves)
    expected = brute_instance(f, sets, inst.witness_rows)
    assert inst.s0_size == expected["S0"] == 6  # x2 = 0 kills the minor 2*x2
    assert inst.sprime_size == expected["Sprime"]
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert inst.incidence_count == expected["incidences"]


def test_high_degree_rational_instance_matches_brute_oracle():
    # alpha_1 = x3 and alpha_60 = x2^2, the rest zero; rational x values
    # make the curve values Fractions, and x2 = 0 kills the minor -2*x2
    f = P("x1^60*x2^2 + x1*x3")
    sets = [[Fraction(-1, 2), Fraction(2, 3), 1], [0, Fraction(1, 3), 2], [Fraction(-5, 4), 3]]
    inst = build_instance(f, sets)
    assert inst.witness_rows == (1, 60)
    expected = brute_instance(f, sets, inst.witness_rows)
    assert inst.s0_size == expected["S0"] == 6
    assert inst.sprime_size == expected["Sprime"]
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert inst.incidence_count == expected["incidences"] == inst.sprime_size


def test_rational_coefficients_rank_the_cleared_jacobian(monkeypatch):
    # the minor comes from the Jacobian of D*f, so every partial sees
    # integers; D scales it by D^(k-1), so S0, S' and the curves (from f's
    # own alphas) are those of the oracle on f, whose minor x3^2/3
    # vanishes at x3 = 0
    f = P("1/2*x1*x3 + 2/3*x2*x3^2 - x1^2")
    sets = [[-1, 1, 2], [0, 1, 3], [-2, 0, 1]]
    fraction_partials = []
    original = Polynomial.partial

    def spy(self, name):
        fraction_partials.append(any(isinstance(c, Fraction) for c in self.terms.values()))
        return original(self, name)

    monkeypatch.setattr(Polynomial, "partial", spy)
    inst = build_instance(f, sets)
    monkeypatch.undo()
    assert fraction_partials and not any(fraction_partials)
    assert inst.witness_rows == (0, 1)
    expected = brute_instance(f, sets, inst.witness_rows)
    assert inst.s0_size == expected["S0"] == 9
    assert inst.sprime_size == expected["Sprime"]
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert inst.incidence_count == expected["incidences"]


@pytest.mark.parametrize("f, sets", [
    (P("x1*x2 + x3"), [[Fraction(-1, 2), 0, Fraction(2, 3)], [Fraction(1, 3), -2, 1], [Fraction(3, 4), Fraction(-1, 6)]]),
    (Polynomial(V3, {(2, 1, 0): Fraction(1, 3), (1, 0, 1): 1, (0, 0, 0): Fraction(-5, 2)}),
     [[Fraction(1, 2), 1, Fraction(-3, 5)], [0, Fraction(2, 7), Fraction(-1, 2)], [Fraction(1, 9), 4]]),
    (P("x1^40*x2 + x1*x3"), [[Fraction(-5, 2), -1, Fraction(1, 3), Fraction(7, 8)],
                           [Fraction(1, 2), Fraction(1, 11), 2], [Fraction(1, 4), Fraction(6, 7), 5]]),
])
def test_rational_sets_match_fraction_image(f, sets):
    # build_instance counts the image over the cleared integer grid and takes
    # incidences from the |A_1| * |curves| identity; the reference tests each
    # curve value y in the Fraction image, and every other field must match
    inst = build_instance(f, sets)
    image = image_values(f, sets)
    incidences = sum(
        1 for curve in inst.curves for x in sets[0]
        if sum(c * x**e for e, c in enumerate(curve) if c) in image)
    assert inst == replace(inst, image_size=len(image), points_size=len(sets[0]) * len(image),
                           incidence_count=incidences)
    expected = brute_instance(f, sets, inst.witness_rows)
    assert (inst.s_size, inst.s0_size, inst.sprime_size) == (expected["S"], expected["S0"], expected["Sprime"])
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]
    assert incidences == expected["incidences"]


scalars = st.one_of(st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=6))
coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
)
#: Longest set per k, so the brute oracle's |C| * |A_1| * |B| tests stay small.
MAX_SET = {3: 4, 4: 3}


@st.composite
def incidence_cases(draw):
    """A polynomial in k = 3 or 4 variables with exponents up to 3 and int
    or Fraction coefficients, and one list per variable of int, Fraction
    or mixed values, duplicates allowed."""
    k = draw(st.integers(3, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * k)
    terms = draw(st.dictionaries(exponents, coefficients, min_size=k - 1, max_size=6))
    sets = [draw(st.lists(scalars, min_size=1, max_size=MAX_SET[k])) for _ in range(k)]
    return Polynomial(var_set(k), terms), sets


@settings(deadline=None, max_examples=300)
@given(incidence_cases())
def test_incidence_count_is_a1_times_curves(case):
    # every curve is the graph of x -> f(x, suffix) over A_1, so it meets
    # P = A_1 x B in |A_1| points; the oracle tests every pair instead
    f, sets = case
    try:
        inst = build_instance(f, sets)
    except ValueError as exc:
        if str(exc).startswith("rank with respect to"):  # no certifying minor
            reject()
        raise
    expected = brute_instance(f, sets, inst.witness_rows)
    assert inst.incidence_count == len(sets[0]) * len(inst.curves) == expected["incidences"]
    assert (inst.s_size, inst.s0_size, inst.sprime_size) == (expected["S"], expected["S0"], expected["Sprime"])
    assert dict(zip(inst.curves, inst.multiplicities)) == expected["curves"]


def test_all_degenerate_instance_is_empty():
    # with x2 pinned to 0 every suffix kills the minor determinant
    inst = build_instance(P("x1*x2^2 + x3"), [[1, 2], [0], [1, 2]])
    assert inst.sprime_size == 0
    assert len(inst.curves) == 0
    assert inst.incidence_count == 0
    assert inst.max_multiplicity == 0
    report = verify_counts(inst)
    assert report["all_ok"]


def test_rank_precondition_rejected():
    # rank of x1*(x2 - x3) with respect to x1 is 1 < k-1 = 2
    with pytest.raises(ValueError, match="rank"):
        build_instance(P("x1*(x2 - x3)"), [[1, 2, 3]] * 3)


def test_explicit_witness_rows():
    f = P("x1*x2 + x1^2*x3")
    cm = coefficient_map(f, "x1")
    r, witness = generic_rank_exact(jacobian(cm))
    assert r == 2
    labels = tuple(cm.exponents[i] for i in witness.rows)
    assert labels == (1, 2)
    inst = build_instance(f, [[1, 2]] * 3)
    assert inst.witness_rows == labels


# ------------------------------------------------------------ identities

def test_counting_identities_hold():
    for text, sets in [
        ("x1*x2 + x3", [[1, 2, 3]] * 3),
        ("x1*x2^2 + x3", [[-1, 0, 1], [-1, 0, 1], [0, 2, 5]]),
        ("x1*x2 + x3", [[1, 2], [1, 2, 3], [4, 5]]),
    ]:
        inst = build_instance(P(text), sets)
        sizes = [len(s) for s in sets]
        expected_s = 1
        for v in sizes:
            expected_s *= v
        assert inst.s_size == expected_s
        report = verify_counts(inst)
        assert report["split_ok"] and report["lower_ok"] and report["upper_ok"]


def test_curve_dedup_is_by_coefficient_vector():
    inst = build_instance(P("x1*x2^2 + x3"), [[-1, 0, 1]] * 3)
    assert len(set(inst.curves)) == len(inst.curves)
    assert sum(inst.multiplicities) * 3 == inst.sprime_size  # times |A1|


# ------------------------------------------------------------ bound comparison

def test_bound_ratio_formulas():
    inst = build_instance(P("x1*x2 + x3"), [[1, 2, 3]] * 3)
    report = bound_ratios(inst, eps=0.1)
    m, n = report["points"], report["curves"]
    assert report["family_dimension"] == 2
    # at s = 2 both exponents of the family term are 4/6
    assert abs(report["sz_bound"] - (m ** (4 / 6) * n ** (4 / 6 + 0.1) + report["st_bound"])) < 1e-9
    assert report["st_bound"] == pytest.approx(m ** (2 / 3) * n ** (2 / 3) + m + n)
    assert report["st_ratio"] == pytest.approx(inst.incidence_count / report["st_bound"])


def test_bound_ratio_one_dimensional_family():
    inst = build_instance(P("x1*x2 + x2^2", var_set(2)), [[1, 2, 3], [1, 2, 4]])
    report = bound_ratios(inst, eps=0.5)
    m, n = report["points"], report["curves"]
    assert report["family_dimension"] == 1
    # at s = 1 the family term degenerates to the trivial bound m * n
    assert report["sz_bound"] == pytest.approx(m * n + report["st_bound"])


def test_bound_ratio_empty_instance():
    inst = build_instance(P("x1*x2^2 + x3"), [[1, 2], [0], [1, 2]])
    report = bound_ratios(inst)
    assert report["incidences"] == 0
    assert report["sz_ratio"] == 0.0 or report["sz_ratio"] < 1e-12
