"""Core polynomial arithmetic, parsing, and calculus."""

import random
import re
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyrank import (
    NEG_INF,
    ParseError,
    Polynomial,
    VarSet,
    exact_div,
    parse,
    project,
)
from polyrank import poly
from polyrank.poly import _as_scalar, _collect
from gens import (
    canonical_types,
    constant_term,
    degree_in,
    embed,
    grlex_key,
    leading_term,
    reference_str,
    sparse_random_polynomial,
    var_set,
)

V3 = var_set(3)


def P(text: str, vars: VarSet = V3) -> Polynomial:
    return parse(text, vars)


def test_public_names_are_unique_and_resolve():
    import polyrank

    assert len(set(polyrank.__all__)) == len(polyrank.__all__)
    for name in polyrank.__all__:
        assert hasattr(polyrank, name), name


# ---------------------------------------------------------------- parsing

def test_parse_basic_terms():
    f = P("x1*x3 + x2*x3^2")
    assert f.terms == {(1, 0, 1): 1, (0, 1, 2): 1}


def test_parse_zero():
    assert P("0").is_zero
    assert P("0").terms == {}


def test_parse_binomial_identity():
    f = P("(x1+x2)^2 - x1^2 - 2*x1*x2", var_set(2))
    assert f.terms == {(0, 2): 1}


def test_parse_rational_literals_and_unary_minus():
    f = P("-1/2*x1 + 3/4")
    assert f.terms == {(1, 0, 0): Fraction(-1, 2), (0, 0, 0): Fraction(3, 4)}
    assert P("- x1 - -x2") == P("x2 - x1")


def test_parse_power_of_parenthesized():
    assert P("(x1 + x2)^3") == P("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        P("x1 + * x2")
    assert err.value.position == 5
    with pytest.raises(ParseError, match="unknown variable"):
        P("x1 + y2")
    with pytest.raises(ParseError):
        P("x1 x2")  # implicit multiplication is not allowed
    with pytest.raises(ParseError):
        P("x1^(2)")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        P("x1/2")  # '/' only joins integer literals
    with pytest.raises(ParseError):
        P("1/0")


def test_non_ascii_characters_are_parse_errors():
    # the grammar's digits are 0-9 and its names [A-Za-z][A-Za-z0-9]*
    for text, position in (("\u0663*x1", 0), ("x1^\u00b2", 3), ("\u00b2*x1", 0), ("x\u00e9", 1),
                           ("x\u0661", 1), ("\uff11 + x1", 0), ("x1 + x\u00b2", 6)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            P(text)
        assert err.value.position == position, text


# Valid tokens mixed with non-ASCII digits and letters and other stray
# characters; at most two digits per literal keep every draw fast.
_PARSE_TOKENS = ["x1", "x2", "x3", "x", "y2", "0", "1", "2", "/", "+", "-", "*", "^", "(", ")", " ",
                 "\u00b2", "\u0663", "\u00e9", "_"]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=12).map("".join).filter(
    lambda text: not re.search("[0-9]{3}", text)))
def test_parse_returns_a_polynomial_or_a_positioned_error(text):
    try:
        p = P(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert P(str(p)) == p


def test_vars_must_be_valid():
    with pytest.raises(ValueError):
        VarSet(("x1", "x1"))
    with pytest.raises(ValueError):
        VarSet(("1x",))
    with pytest.raises(ValueError):
        VarSet(())


# ---------------------------------------------------------------- arithmetic

def test_difference_of_squares():
    assert P("(x1+x2)*(x1-x2)") == P("x1^2 - x2^2")


def test_additive_identity():
    f = P("x1*x3 + 5")
    assert f + Polynomial.zero(V3) == f
    assert f + 0 == f


def test_trinomial_square_has_six_terms():
    # (x1+x2+x3)^2 = x1^2+x2^2+x3^2 + 2x1x2 + 2x1x3 + 2x2x3
    assert len(P("(x1+x2+x3)^2").terms) == 6


def test_collect_keeps_term_maps_canonical():
    # a sum that cancels drops its key, and so does a zero on an absent key
    assert _collect([((1, 0), 3), ((0, 1), 2), ((1, 0), -3), ((0, 0), 0)]) == {(0, 1): 2}
    # an integral Fraction sum is stored as int
    half = Fraction(1, 2)
    one = _collect([((1, 1), half), ((1, 1), half)])[(1, 1)]
    assert one == 1 and type(one) is int
    # a given map is updated in place and returned
    out = {(2, 0): 5, (0, 2): 1}
    assert _collect([((2, 0), -5), ((0, 2), half)], out) is out
    assert out == {(0, 2): Fraction(3, 2)}


def test_mismatched_varsets_rejected():
    with pytest.raises(ValueError, match="mismatched"):
        P("x1") + parse("x1", var_set(2))


def test_pow_and_scalar_ops():
    x = Polynomial.variable(V3, "x1")
    assert x ** 0 == 1
    assert x ** 3 == P("x1^3")
    assert 2 * x - x == x
    assert Fraction(1, 2) * (2 * x) == x
    with pytest.raises(ValueError):
        x ** -1


# ---------------------------------------------------------------- calculus

def test_partial_examples():
    f = P("x1*x3 + x2*x3^2")
    assert f.partial("x1") == P("x3")
    assert f.partial("x3") == P("x1 + 2*x2*x3")
    assert P("x1^2").partial("x2").is_zero


def test_partial_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        P("x1").partial("y")


def test_partial_keeps_canonical_coefficient_types():
    # x1^2/2 + x1^3*x2/3 + 5*x1*x2^4/7: d/dx1 gives 1*x1 + 1*x1^2*x2 + 5/7*x2^4
    f = Polynomial(V3, {(2, 0, 0): Fraction(1, 2), (3, 1, 0): Fraction(1, 3), (1, 4, 0): Fraction(5, 7)})
    df = f.partial("x1")
    assert df.terms == {(1, 0, 0): 1, (2, 1, 0): 1, (0, 4, 0): Fraction(5, 7)}
    rng = random.Random(13)
    for _ in range(200):
        g = sparse_random_polynomial(rng, V3) * Fraction(1, rng.randint(1, 12))
        for name in V3.names:
            for c in g.partial(name).terms.values():
                assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def test_substitute_keeps_canonical_coefficient_types():
    # 2*x1*x2 + x2 at x2 = 1/2 is x1 + 1/2: the x1 coefficient is int 1
    V2 = var_set(2)
    g = P("2*x1*x2 + x2", V2).substitute({"x2": Fraction(1, 2)})
    assert g.terms == {(1, 0): 1, (0, 0): Fraction(1, 2)}
    assert type(g.terms[(1, 0)]) is int
    rng = random.Random(17)
    for _ in range(200):
        f = sparse_random_polynomial(rng, V3) * Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        bindings = {name: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for name in rng.sample(V3.names, rng.randint(1, 3))}
        assert canonical_types(f.substitute(bindings).terms.values())


def test_eval_examples():
    f = P("x1*x3 + x2*x3^2")
    assert f.eval([1, 2, 3]) == 21
    g = P("x1*x2 + 7")
    assert g.eval([0, 0, 0]) == constant_term(g) == 7
    # (x2-x1)(x3-x1)(x3-x2) at (0,1,3): 1*3*2 = 6
    assert P("(x2-x1)*(x3-x1)*(x3-x2)").eval([0, 1, 3]) == 6


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        P("x1").eval([1, 2])


def test_substitute_examples():
    f = P("x1*x2 + x3")
    assert f.substitute({"x3": 5}) == P("x1*x2 + 5")
    g = P("x1*x3 + x2*x3^2")
    assert g.substitute({"x3": 0}).is_zero
    # volume polynomial for d=2 restricted to x3 = 0:
    # (1/2)(x2-x1)(0-x1)(0-x2) = (1/2)(x2-x1)*x1*x2
    vol = P("1/2*(x2-x1)*(x3-x1)*(x3-x2)")
    assert vol.substitute({"x3": 0}) == P("1/2*(x2-x1)*x1*x2")


def test_substitute_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        P("x1").substitute({"y": 0})


def test_degree_in_examples():
    f = P("x1*x3 + x2*x3^2")
    assert degree_in(f, "x3") == 2
    assert degree_in(f, "x1") == 1
    assert degree_in(P("7"), "x2") == 0
    assert degree_in(P("0"), "x1") is NEG_INF
    assert P("0").total_degree() is NEG_INF


# ---------------------------------------------------------------- structure ops

def test_project_and_embed_roundtrip():
    f = P("x1*x2 + 3")
    g = project(f, ["x1", "x2"])
    assert g.vars.names == ("x1", "x2")
    assert embed(g, V3) == f
    with pytest.raises(ValueError, match="cannot project"):
        project(P("x1*x3"), ["x1", "x2"])


def test_exact_div():
    f = P("(x1+x2)*(x1-x2+3)")
    assert exact_div(f, P("x1+x2")) == P("x1-x2+3")
    with pytest.raises(ValueError, match="inexact"):
        exact_div(P("x1^2 + 1"), P("x1 + 1"))
    with pytest.raises(ZeroDivisionError):
        exact_div(f, P("0"))


def _spy_on_quotient_steps(monkeypatch):
    """The coefficient divisions of the heap's quotient steps, recorded as
    they are made (the heap divides each leading coefficient by ``divmod``)."""
    steps = []
    monkeypatch.setattr(poly, "divmod", lambda a, b: steps.append((a, b)) or divmod(a, b), raising=False)
    return steps


def test_exact_div_rejects_at_the_trailing_term(monkeypatch):
    # walking down the quotient x1^(2^16-1)/2 - 3*x1^(2^16-2)/4 + ... would
    # take 2^16 steps, each dividing a coefficient by 2; the trailing terms
    # x1^(2^16) and 3 prove the division inexact before the first one
    V1 = var_set(1)
    p, d = P(f"x1^{2**16}", V1), P("2*x1 + 3", V1)
    steps = _spy_on_quotient_steps(monkeypatch)
    with pytest.raises(ValueError, match="inexact"):
        exact_div(p, d)
    assert steps == []


def test_exact_div_rejects_at_the_first_inexact_coefficient(monkeypatch):
    # the trailing terms x2 and 3*x2 pass the trailing-term bound, but the
    # divisor is primitive and its leading 2 does not divide the leading 1:
    # the quotient x1^39/2 - 3*x1^38/4 + ... is not integral, so the first
    # quotient step proves the division inexact before a second is formed
    V2 = var_set(2)
    p, d = P("x1^40*x2 + x2", V2), P("2*x1*x2 + 3*x2", V2)
    steps = _spy_on_quotient_steps(monkeypatch)
    with pytest.raises(ValueError, match="inexact"):
        exact_div(p, d)
    assert steps == [(1, 2)]


def _reference_exact_div(p, divisor):
    """Term map of p / divisor by the plain leading-term loop, which rescans
    the whole remainder for its graded-lex maximum at every step."""
    md, cd = leading_term(divisor)
    quotient = {}
    rem = dict(p.terms)
    while rem:
        mr = max(rem, key=grlex_key)
        cr = rem[mr]
        mq = tuple(a - b for a, b in zip(mr, md))
        if any(e < 0 for e in mq):
            raise ValueError("inexact polynomial division")
        cq = _as_scalar(Fraction(cr) / cd)
        quotient[mq] = quotient.get(mq, 0) + cq
        for m2, c2 in divisor.terms.items():
            key = tuple(a + b for a, b in zip(mq, m2))
            s = rem.get(key, 0) - cq * c2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return {m: c for m, c in quotient.items() if c}


def _typed(terms):
    return {m: (c, type(c)) for m, c in terms.items()}


coefficients = st.one_of(
    st.integers(-50, 50).filter(bool),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
)


@st.composite
def division_cases(draw, max_exponent=2**20):
    """(p, d) over a random k = 1..5, with nonzero p and d.  Exponents up to
    2**20 make the packed fields of exact_div up to 24 bits wide."""
    k = draw(st.integers(1, 5))
    vars = var_set(k)
    exponent = st.one_of(st.integers(0, 3), st.integers(0, max_exponent))

    def poly():
        return Polynomial(vars, draw(st.dictionaries(
            st.tuples(*[exponent] * k), coefficients, min_size=1, max_size=4)))

    return poly(), poly()


@settings(deadline=None, max_examples=150)
@given(division_cases())
# sparse divisors for the heap: one of content 3, one rational
@example((P("x1^5*x2 - 2/3*x2^3 + 7", var_set(2)), P("3*x1^7 - 6*x2^2 + 9*x1", var_set(2))))
@example((P("x1^5*x2 - 2/3*x2^3 + 7", var_set(2)), P("1/2*x1^7 - 4/3*x2^2", var_set(2))))
def test_exact_div_matches_reference(case):
    p, d = case
    # products store integral values as int, so n may mix int and Fraction
    # coefficients and still clear to the same integer map
    n = p * d
    got = exact_div(n, d)
    assert got == p
    assert _typed(got.terms) == _typed(_reference_exact_div(n, d))


@settings(deadline=None, max_examples=150)
@given(division_cases(), st.data())
def test_exact_div_rejects_multiple_plus_monomial(case, data):
    p, d = case
    lead, _ = leading_term(d)
    assume(any(lead))
    # m lies outside the ideal of lead(d), hence outside (d): one of its
    # exponents stays below the leading monomial's
    m = list(data.draw(st.tuples(*[st.integers(0, 2**20)] * p.vars.k)))
    i = data.draw(st.sampled_from([i for i, e in enumerate(lead) if e]))
    m[i] = data.draw(st.integers(0, lead[i] - 1))
    n = p * d + Polynomial(p.vars, {tuple(m): 1})
    with pytest.raises(ValueError, match="inexact"):
        exact_div(n, d)
    with pytest.raises(ValueError, match="inexact"):
        _reference_exact_div(n, d)


@settings(deadline=None)
@given(division_cases())
def test_exact_div_rejects_higher_degree_divisor(case):
    p, d = case
    x1 = Polynomial.variable(p.vars, p.vars.names[0])
    higher = d * x1 ** (int(p.total_degree()) + 1)
    with pytest.raises(ValueError, match="inexact"):
        exact_div(p, higher)
    with pytest.raises(ZeroDivisionError):
        exact_div(p, Polynomial.zero(p.vars))


@st.composite
def dense_division_cases(draw):
    """(p, d) over k = 2..4 with 6-20 terms each and exponents 0..3, so that
    p * d is dense enough for the Kronecker division kernel; d is scaled by
    a non-unit so that it is not primitive and its leading term is
    negative."""
    k = draw(st.integers(2, 4))
    vars = var_set(k)
    exponents = st.tuples(*[st.integers(0, 3)] * k)

    def operand():
        return Polynomial(vars, draw(st.dictionaries(exponents, coefficients, min_size=6, max_size=20)))

    p, d = operand(), operand()
    scale = draw(st.one_of(st.integers(2, 6), st.fractions(min_value=2, max_value=9, max_denominator=5)))
    _, lead = leading_term(d)
    return p, d * (-scale if lead > 0 else scale)


class _HeapRefused(Exception):
    pass


def _dense_kernel_div(n, d):
    """The term map of ``exact_div(n, d)`` with the gate lifted and the heap
    refused, or None where the Kronecker kernel hands the division on."""
    def refuse(*args):
        raise _HeapRefused

    with mock.patch.object(poly, "_DIV_GATE", 10**9), mock.patch.object(poly, "_div_heap", refuse):
        try:
            return exact_div(n, d).terms
        except _HeapRefused:
            return None


@settings(deadline=None, max_examples=150)
@given(dense_division_cases())
def test_dense_exact_div_matches_reference(case):
    p, d = case
    n = p * d
    expected = _typed(_reference_exact_div(n, d))
    assert _typed(exact_div(n, d).terms) == expected
    # with the gate lifted, the kernel runs on every dense case
    quotient = _dense_kernel_div(n, d)
    assert quotient is None or _typed(quotient) == expected


@settings(deadline=None, max_examples=150)
@given(dense_division_cases(), st.data())
def test_dense_div_rejects_by_the_remainder(case, data):
    # a monomial inside the box of p * d added to it: d (of two or more
    # terms) divides no monomial, and the kernel's divmod leaves a remainder
    p, d = case
    n = p * d
    m = tuple(data.draw(st.integers(0, e)) for e in map(max, zip(*n.terms)))
    n = n + Polynomial(n.vars, {m: 1 if n.terms.get(m) != -1 else 2})
    assume(poly._is_dense(n.terms, d.terms))
    with pytest.raises(ValueError, match="inexact"):
        _dense_kernel_div(n, d)
    with pytest.raises(ValueError, match="inexact"):
        exact_div(n, d)


def test_dense_div_zero_remainder_proves_nothing(monkeypatch):
    # P(256) = 63*(1 - 256 + 256^2 - 256^3) + 5*256^4 is a multiple of
    # 257, the packing of x1 + 1 in 1-byte slots, but P(-1) = 257 != 0:
    # the unpacked quotient fails the slot bound and the heap rejects
    V1 = var_set(1)
    p, d = P("63 - 63*x1 + 63*x1^2 - 63*x1^3 + 5*x1^4", V1), P("x1 + 1", V1)
    monkeypatch.setattr(poly, "_is_dense", lambda a, b: True)
    assert poly._slot_width(len(d.terms) * 63) == 1
    assert poly._div_dense(p.terms, d.terms) is None
    with pytest.raises(ValueError, match="inexact"):
        exact_div(p, d)


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 65, 128])
def test_div_coefficients_at_the_slot_bound(bits):
    # (1 + x1 + x1^2 + x1^3) * (c + x1 + x1^2 + x1^3) has largest
    # coefficient c + 3, so the slot width is sized from |D0| * max|P| =
    # 4(c + 3), which has `bits` bits; the quotient is accepted when the
    # bound 4c on the coefficients of q * D0 fits the same slots
    c = (2**bits - 1) // 4 - 3
    assert (4 * (c + 3)).bit_length() == bits
    q, d0 = P("1 + x1 + x1^2 + x1^3"), P(f"{c} + x1 + x1^2 + x1^3")
    for sign in (1, -1):
        n = sign * q * d0
        for d in (d0, -3 * d0):
            assert poly._is_dense(n.terms, d.terms)
            expected = _typed(_reference_exact_div(n, d))
            assert _typed(_dense_kernel_div(n, d)) == expected
            assert _typed(exact_div(n, d).terms) == expected


def test_div_kernel_follows_gate(monkeypatch):
    def refuse(*args):
        raise AssertionError("the other division kernel was expected")

    V1 = var_set(1)
    V2 = var_set(2)
    dense_quotient, dense_divisor = P("(x1 + x2 + 1)^3", V2), P("(x1 - 2*x2 + 3)^2", V2)
    sparse = (P(f"x1^{2**16}", V1), P("2*x1 + 3", V1))
    # 200-bit coefficients: slots of 51 bytes make the schoolbook divmod
    # dearer than the heap's term pairs
    c = 2**200 + 1
    wide_quotient = P(" + ".join(f"{c + i}*x1^{i}" for i in range(12)), V1)
    wide_divisor = P(" + ".join(f"{c - i}*x1^{i}" for i in range(6)), V1)
    wide = wide_quotient * wide_divisor
    assert poly._is_dense(wide.terms, wide_divisor.terms)
    monkeypatch.setattr(poly, "_div_heap", refuse)
    assert exact_div(dense_quotient * dense_divisor, dense_divisor) == dense_quotient
    monkeypatch.undo()
    monkeypatch.setattr(poly, "_kronecker_pack", refuse)
    with pytest.raises(ValueError, match="inexact"):
        exact_div(*sparse)
    assert exact_div(wide, wide_divisor) == wide_quotient


# sympy's polynomials are dense, so this oracle gets small exponents only.
@settings(deadline=None, max_examples=60)
@given(division_cases(max_exponent=6))
def test_exact_div_agrees_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, d = case
    gens = sympy.symbols(p.vars.names)

    def to_sympy(f):
        return sympy.Poly.from_dict({m: sympy.Rational(c) for m, c in f.terms.items()},
                                    *gens, domain="QQ")

    expected = to_sympy(p * d).exquo(to_sympy(d))
    got = exact_div(p * d, d)
    assert got.terms == {
        m: Fraction(int(c.p), int(c.q)) for m, c in expected.as_dict().items()
    }


# ---------------------------------------------------------------- products

def _reference_mul(p, q):
    """Term map of p * q by the plain loop over all term pairs, on the
    stored values, with integral results stored as int."""
    out = {}
    for ma, ca in p.terms.items():
        for mb, cb in q.terms.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return {m: _as_scalar(c) for m, c in out.items()}


# values above 2^64 need Kronecker slots wider than a machine word
wide_coefficients = st.one_of(
    st.integers(-2**90, 2**90).filter(bool),
    st.builds(Fraction, st.integers(-2**70, 2**70).filter(bool), st.integers(1, 2**40)),
)


@st.composite
def product_cases(draw, max_exponent=2**20):
    """(p, q) over a random k = 1..5, nonzero.  Dense cases fill most of a
    box of exponents, so that most of them take the Kronecker kernel;
    sparse cases draw a few terms with exponents up to max_exponent."""
    k = draw(st.integers(1, 5))
    vars = var_set(k)
    coefficient = draw(st.sampled_from([coefficients, wide_coefficients]))
    if draw(st.booleans()):
        degree = (3, 2, 2, 1, 1)[k - 1]
        box = (degree + 1) ** k
        exponents = st.tuples(*[st.integers(0, degree)] * k)
        sizes = {"min_size": box * 2 // 3, "max_size": box}
    else:
        exponents = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, max_exponent))] * k)
        sizes = {"min_size": 1, "max_size": 4}

    def operand():
        return Polynomial(vars, draw(st.dictionaries(exponents, coefficient, **sizes)))

    return operand(), operand()


@settings(deadline=None, max_examples=200)
@given(product_cases())
def test_mul_matches_reference(case):
    p, q = case
    assert _typed((p * q).terms) == _typed(_reference_mul(p, q))
    assert _typed((q * p).terms) == _typed(_reference_mul(p, q))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 5), st.data())
def test_mul_cancelling_slots(k, data):
    # (u + c)^n * (u - c)^n = (u^2 - c^2)^n: every odd power of u cancels
    # to zero; for u = x_i^e and n large enough the Kronecker kernel runs
    vars = var_set(k)
    u = Polynomial.variable(vars, data.draw(st.sampled_from(vars.names))) ** data.draw(st.integers(1, 3))
    c = data.draw(st.one_of(coefficients, wide_coefficients))
    n = data.draw(st.integers(1, 8))
    a, b = (u + c) ** n, (u - c) ** n
    got = a * b
    assert _typed(got.terms) == _typed(_reference_mul(a, b))
    assert len(got.terms) == n + 1


@settings(deadline=None)
@given(st.integers(1, 5), st.one_of(coefficients, wide_coefficients),
       st.one_of(coefficients, wide_coefficients))
def test_mul_of_constants(k, c1, c2):
    vars = var_set(k)
    got = Polynomial.constant(vars, c1) * Polynomial.constant(vars, c2)
    assert _typed(got.terms) == _typed({(0,) * k: _as_scalar(c1 * c2)})


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 65, 72, 128])
def test_mul_coefficients_at_the_slot_bound(bits):
    # c*(1 + x1 + x1^2 + x1^3) squared: the x1^3 coefficient 4c^2 equals
    # the bound min(|a|,|b|) * max|a_c| * max|b_c| the slot width is sized
    # from, and has `bits` bits, so a slot without room for the sign shows
    c = isqrt((2**bits - 1) // 4)
    assert (4 * c * c).bit_length() == bits
    a = P(f"{c} + {c}*x1 + {c}*x1^2 + {c}*x1^3")
    for b in (a, -a):
        assert poly._is_dense(a.terms, b.terms)
        assert _typed((a * b).terms) == _typed(_reference_mul(a, b))


def test_mul_kernel_follows_slots_and_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the other product kernel was expected")

    sparse = (P("x1^100000000*x2"), P("x1^100000000*x2 + 1"))
    sparse_product = P("x1^200000000*x2^2 + x1^100000000*x2")
    # 7 slots + 4 + 4 terms <= 16 pairs
    dense = (P("1 + x1 + x1^2 + x1^3"), P("1 - x1 + x1^2 - x1^3"))
    dense_product = P("1 + x1^2 - x1^4 - x1^6")
    assert not poly._is_dense(sparse[0].terms, sparse[1].terms)
    assert poly._is_dense(dense[0].terms, dense[1].terms)
    monkeypatch.setattr(poly, "_mul_dense", refuse)
    assert sparse[0] * sparse[1] == sparse_product
    monkeypatch.undo()
    monkeypatch.setattr(poly, "_mul_sparse", refuse)
    assert dense[0] * dense[1] == dense_product


# sympy's polynomials are dense, so this oracle gets small exponents only.
@settings(deadline=None, max_examples=60)
@given(product_cases(max_exponent=6))
def test_mul_agrees_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, q = case
    gens = sympy.symbols(p.vars.names)

    def to_sympy(f):
        return sympy.Poly.from_dict({m: sympy.Rational(c) for m, c in f.terms.items()},
                                    *gens, domain="QQ")

    expected = to_sympy(p).mul(to_sympy(q))
    assert (p * q).terms == {
        m: Fraction(int(c.p), int(c.q)) for m, c in expected.as_dict().items()
    }


# ---------------------------------------------------------------- properties

polys = st.builds(
    lambda seed: sparse_random_polynomial(random.Random(seed), V3),
    st.integers(0, 10**9),
)


@settings(deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(polys, polys, st.sampled_from(["x1", "x2", "x3"]))
def test_product_rule(p, q, v):
    assert (p * q).partial(v) == p * q.partial(v) + q * p.partial(v)


@settings(deadline=None)
@given(polys, st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_full_substitution_agrees_with_eval(p, point):
    bound = p.substitute(dict(zip(V3.names, point)))
    assert constant_term(bound) == p.eval(point)
    assert bound.eval([0, 0, 0]) == p.eval(point)


rationals = st.fractions(max_denominator=130).filter(lambda x: abs(x) <= 10**6)
rational_polys = st.builds(
    lambda seed, scale: sparse_random_polynomial(random.Random(seed), V3, max_deg=6) * scale,
    st.integers(0, 10**9),
    st.fractions(min_value=-100, max_value=100, max_denominator=60).filter(bool),
)


@settings(deadline=None)
@given(st.one_of(polys, rational_polys),
       st.lists(st.one_of(st.integers(-10**12, 10**12), rationals), min_size=3, max_size=3),
       st.sampled_from([(1 << 61) - 1, 1_000_003, 61]))
def test_modular_eval_is_the_residue_of_eval(p, point, modulus):
    def residue(x):
        return Fraction(x).numerator * pow(Fraction(x).denominator, -1, modulus) % modulus

    denominators = [Fraction(c).denominator for c in p.terms.values()] + [Fraction(x).denominator for x in point]
    if any(d % modulus == 0 for d in denominators):
        with pytest.raises(ZeroDivisionError):
            p.eval(point, modulus)
        return
    value = p.eval(point, modulus=modulus)
    assert type(value) is int and 0 <= value < modulus
    assert value == residue(p.eval(point))


@settings(deadline=None)
@given(st.one_of(polys, rational_polys), st.one_of(polys, rational_polys))
def test_subtraction_is_adding_the_negation(p, q):
    for a, b in ((p, q), (q, p)):
        diff = a - b
        assert _typed(diff.terms) == _typed((a + (-b)).terms)
        assert canonical_types(diff.terms.values())
    assert (p - p).terms == {}
    assert ((p + q) - q).terms == p.terms
    assert _typed((1 - p).terms) == _typed((Polynomial.constant(p.vars, 1) + (-p)).terms)


@settings(deadline=None)
@given(st.one_of(polys, rational_polys))
def test_print_parse_roundtrip(p):
    assert parse(str(p), V3) == p


def test_print_parse_roundtrip_past_the_int_str_digit_limit():
    # Python limits int <-> str conversion to 4,300 digits by default
    big = "9" * 5000
    f = P(f"3^10000*x1*x2 - {big}/1{'0' * 4400}*x3 + 10^5000*x1 + {big}")
    assert f.terms[(1, 1, 0)] == 3**10000
    assert f.terms[(0, 0, 0)] == 10**5000 - 1
    assert f.terms[(0, 0, 1)] == Fraction(-(10**5000 - 1), 10**4400)
    text = str(f)
    assert f"{big}/1{'0' * 4400}*x3" in text and f"1{'0' * 5000}*x1" in text
    assert parse(text, V3) == f
    assert str(parse(text, V3)) == text
    assert P(f"x1^{big}").terms == {(10**5000 - 1, 0, 0): 1}
    assert str(P(f"-x1^{big}")) == f"-x1^{big}"


@settings(deadline=None)
@given(st.one_of(polys, rational_polys))
@example(Polynomial.zero(V3))
@example(P("-1/2"))
@example(P("-x1^2*x3 + 1"))
@example(P("-7/3*x2 - x3 + 12"))
def test_str_matches_the_reference_printer(p):
    assert str(p) == reference_str(p)


@settings(deadline=None)
@given(st.one_of(polys, rational_polys), st.one_of(st.just(1), st.integers(1, 720)))
@example(P("x1 - x2"), 1)  # scale 1
@example(P("6*x1^2 - 12*x2 + 3"), 3)  # every quotient integral
@example(P("-4*x1 + 2"), 2)  # a quotient of -1 and a constant term
@example(P("-1/2*x3 - 5"), 6)
@example(P("-1"), 720)
def test_scaled_format_matches_printing_the_quotient(p, scale):
    # _format(scale) prints p / scale without forming it: the same text as
    # printing the quotient, whose coefficients are Fractions in lowest terms
    quotient = Polynomial(p.vars, {m: Fraction(c, 1) / scale for m, c in p.terms.items()})
    assert p._format(scale) == str(quotient)


# ---------------------------------------------------------------- parser differential

_leaves = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 12), st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("var"), st.sampled_from(V3.names)),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), kids, kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3)),
    ),
    max_leaves=10,
)

# grammar level of a node's unparenthesized text: expr, term, factor, base, atom
_LEVEL = {"add": 0, "sub": 0, "mul": 1, "neg": 2, "pow": 3, "num": 4, "var": 4}


@st.composite
def rendered_trees(draw):
    """An expression tree and one text for it: parentheses where the
    grammar needs them and, at random, anywhere else; random spacing; and
    sometimes a leading '+'."""
    tree = draw(_trees)

    def render(node, level):
        kind = node[0]
        space = draw(st.sampled_from(["", " "]))
        if kind == "num":
            text = str(node[1]) if node[2] is None else f"{node[1]}/{node[2]}"
        elif kind == "var":
            text = node[1]
        elif kind == "neg":
            text = "-" + render(node[1], 2)
        elif kind == "pow":
            text = f"{render(node[1], 4)}{space}^{space}{node[2]}"
        else:
            op = {"add": "+", "sub": "-", "mul": "*"}[kind]
            right = 1 if kind != "mul" else 2
            text = f"{render(node[1], _LEVEL[kind])}{space}{op}{space}{render(node[2], right)}"
        if _LEVEL[kind] < level or draw(st.integers(0, 5)) == 0:
            text = f"({space}{text}{space})"
        return text

    text = render(tree, 0)
    return tree, ("+" + text if draw(st.booleans()) else text)


def _evaluate(node):
    """The tree's value by Polynomial ring arithmetic."""
    kind = node[0]
    if kind == "num":
        return Polynomial.constant(V3, Fraction(node[1], node[2] or 1))
    if kind == "var":
        return Polynomial.variable(V3, node[1])
    if kind == "neg":
        return -_evaluate(node[1])
    if kind == "pow":
        return _evaluate(node[1]) ** node[2]
    left, right = _evaluate(node[1]), _evaluate(node[2])
    return left + right if kind == "add" else left - right if kind == "sub" else left * right


@settings(deadline=None, max_examples=300)
@given(rendered_trees())
@example((("mul", ("num", 0, None), ("var", "x1")), "0*x1"))
@example((("pow", ("var", "x1"), 0), "x1^0"))
@example((("pow", ("sub", ("var", "x1"), ("var", "x1")), 0), "(x1-x1)^0"))
@example((("mul", ("num", 4, 2), ("pow", ("num", 1, 2), 2)), "4/2*1/2^2"))
@example((("sub", ("var", "x2"), ("neg", ("neg", ("var", "x2")))), "x2 - --x2"))
@example((("add", ("mul", ("num", 1, 2), ("var", "x1")), ("mul", ("num", 1, 2), ("var", "x1"))),
          "1/2*x1 + 1/2*x1"))
@example((("sub", ("sub", ("var", "x1"), ("mul", ("num", 1, 2), ("var", "x1"))),
                  ("mul", ("num", 1, 2), ("var", "x1"))), "x1 - 1/2*x1 - 1/2*x1"))
def test_parse_matches_ring_arithmetic(case):
    tree, text = case
    p = parse(text, V3)
    assert p == _evaluate(tree)
    assert canonical_types(p.terms.values())


@settings(deadline=None)
@given(polys, polys)
def test_canonical_form_is_equality(p, q):
    # equal polynomials have identical term maps (canonical representation)
    if p == q:
        assert p.terms == q.terms
        assert hash(p) == hash(q)
    diff = p - q
    assert diff.is_zero == (p == q)


def test_schwartz_zippel_sanity():
    # A fixed nonzero polynomial of total degree D vanishes on at most a
    # D/|S| fraction of a grid S^k; estimate the fraction by sampling.
    rng = random.Random(2024)
    sample_range = list(range(0, 101))  # |S| = 101
    for trial in range(20):
        p = sparse_random_polynomial(rng, V3, max_deg=2, max_terms=5)
        if p.is_zero:
            continue
        degree = int(p.total_degree())
        zeros = 0
        samples = 400
        for _ in range(samples):
            point = [rng.choice(sample_range) for _ in range(3)]
            if p.eval(point) == 0:
                zeros += 1
        assert zeros / samples <= degree / len(sample_range) + 0.05
