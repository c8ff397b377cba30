"""Core polynomial arithmetic, parsing, and calculus."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyrank import (
    NEG_INF,
    ParseError,
    Polynomial,
    VarSet,
    embed,
    exact_div,
    parse,
    project,
)
from polyrank import poly
from polyrank.poly import _as_scalar, _ratio, grlex_key
from gens import sparse_random_polynomial, var_set

V3 = var_set(3)


def P(text: str, vars: VarSet = V3) -> Polynomial:
    return parse(text, vars)


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


def test_eval_examples():
    f = P("x1*x3 + x2*x3^2")
    assert f.eval([1, 2, 3]) == 21
    g = P("x1*x2 + 7")
    assert g.eval([0, 0, 0]) == g.constant_term() == 7
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
    assert f.degree_in("x3") == 2
    assert f.degree_in("x1") == 1
    assert P("7").degree_in("x2") == 0
    assert P("0").degree_in("x1") is NEG_INF
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


def test_exact_div_rejects_at_the_trailing_term(monkeypatch):
    # walking down the quotient x1^(2^16-1)/2 - 3*x1^(2^16-2)/4 + ... would
    # take 2^16 steps, each dividing a coefficient by 2; the trailing terms
    # x1^(2^16) and 3 prove the division inexact before the first one
    V1 = var_set(1)
    p, d = P(f"x1^{2**16}", V1), P("2*x1 + 3", V1)
    steps = []
    monkeypatch.setattr(poly, "_ratio", lambda *args: steps.append(args) or _ratio(*args))
    with pytest.raises(ValueError, match="inexact"):
        exact_div(p, d)
    assert steps == []


def _reference_exact_div(p, divisor):
    """Term map of p / divisor by the plain leading-term loop, which rescans
    the whole remainder for its graded-lex maximum at every step."""
    md, cd = divisor.leading_term()
    quotient = {}
    rem = dict(p.terms)
    while rem:
        mr = max(rem, key=grlex_key)
        cr = rem[mr]
        mq = tuple(a - b for a, b in zip(mr, md))
        if any(e < 0 for e in mq):
            raise ValueError("inexact polynomial division")
        cq = _ratio(cr, cd)
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
def test_exact_div_matches_reference(case):
    p, d = case
    # products store integral values as int, so an int coefficient of n
    # over a Fraction p reaches the int-by-int inexact coefficient path
    n = p * d
    got = exact_div(n, d)
    assert got == p
    assert _typed(got.terms) == _typed(_reference_exact_div(n, d))


@settings(deadline=None, max_examples=150)
@given(division_cases(), st.data())
def test_exact_div_rejects_multiple_plus_monomial(case, data):
    p, d = case
    lead, _ = d.leading_term()
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
    assert bound.constant_term() == p.eval(point)
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
@given(polys)
def test_print_parse_roundtrip(p):
    assert parse(str(p), V3) == p


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
