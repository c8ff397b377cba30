"""Special-form detection via derivative identities."""

import random
from fractions import Fraction

import pytest

from polyrank import (
    Polynomial,
    depends_on_all,
    is_special,
    parse,
    rank,
    ratio_independent_of,
    ratio_separated,
)
from polyrank import special as special_module
from polyrank.rank import PRIME, RATIONALS
from gens import (
    dense_random_polynomial,
    gapped_random_polynomial,
    perturbed_special,
    random_special,
    sparse_random_polynomial,
    var_set,
)

V3 = var_set(3)


def P(text, vars=V3):
    return parse(text, vars)


# ------------------------------------------------------------ basic checks

def test_depends_on_all():
    assert depends_on_all(P("x1+x2+x3"))
    assert not depends_on_all(P("x1*x2"))
    assert depends_on_all(P("x1*x3 + x2*x3^2"))


def test_ratio_independent_examples():
    # both partials of (x1+x2+x3)^2 equal 2(x1+x2+x3); ratio is 1
    assert ratio_independent_of(P("(x1+x2+x3)^2"), "x1", "x2", "x3")
    # d/dx1 = x2, d/dx3 = x2^2: ratio 1/x2 depends on x2
    assert not ratio_independent_of(P("x1*x2 + x3*x2^2"), "x1", "x3", "x2")
    # d/dx1 = x2x3, d/dx2 = x1x3: ratio x2/x1 free of x3
    assert ratio_independent_of(P("x1*x2*x3"), "x1", "x2", "x3")


def test_ratio_independent_preconditions():
    with pytest.raises(ValueError, match="distinct"):
        ratio_independent_of(P("x1*x2*x3"), "x1", "x1", "x3")
    with pytest.raises(ValueError, match="zero"):
        ratio_independent_of(P("x1*x2"), "x1", "x3", "x2")


def test_ratio_separated_examples():
    assert ratio_separated(P("x1*x2*x3"), "x1", "x2")
    assert ratio_separated(P("(x1+x2+x3)^2"), "x1", "x2")
    assert ratio_separated(P("x1*x2 + x3"), "x1", "x3")
    assert not ratio_separated(parse("x1^2*x2 + x1*x2^2", var_set(2)), "x1", "x2")


def test_ratio_separated_preconditions():
    with pytest.raises(ValueError, match="nonzero"):
        ratio_separated(P("x1*x2"), "x1", "x3")


# ------------------------------------------------------------ verdicts

def test_special_additive_composition():
    verdict = is_special(P("(x1 + x2^2 + x3^3)^3"))
    assert verdict.verdict == "special"
    assert verdict.rank1


def test_special_multiplicative():
    assert is_special(P("x1*x2*x3")).verdict == "special"


def test_not_special():
    verdict = is_special(P("x1*x2 + x3"))
    assert verdict.verdict == "not_special"
    assert not verdict.rank1


def test_degenerate_when_missing_a_variable():
    verdict = is_special(P("x1*x2"))
    assert verdict.verdict == "degenerate"
    assert not verdict.depends_on_all
    assert verdict.pair_checks == {}


def test_requires_three_variables():
    with pytest.raises(ValueError):
        is_special(parse("x1*x2", var_set(2)))


def test_verdict_json_shape():
    doc = is_special(P("x1*x2*x3")).to_json_dict()
    assert set(doc) == {"rank1", "depends_on_all", "pairs", "verdict"}
    assert len(doc["pairs"]) == 3
    assert all(set(p) == {"i", "j", "independence_ok", "separation_ok"} for p in doc["pairs"])


# ------------------------------------------------------------ properties

def test_pair_identities_are_symmetric():
    rng = random.Random(421)
    for i in range(8):
        f = random_special(rng, V3, multiplicative=i % 2 == 0, max_deg=2)
        g = f + (0 if i % 3 else P("x1*x2^2"))
        for a, b in (("x1", "x2"), ("x1", "x3"), ("x2", "x3")):
            assert ratio_separated(g, a, b) == ratio_separated(g, b, a)
            m = next(n for n in V3.names if n not in (a, b))
            assert ratio_independent_of(g, a, b, m) == ratio_independent_of(g, b, a, m)


def test_constructive_converse_suite():
    rng = random.Random(2718)
    for case in range(20):
        f = random_special(rng, V3, multiplicative=case % 2 == 0)
        verdict = is_special(f, seed=case)
        assert verdict.verdict == "special", f"case {case}: {f}"
        assert rank(f, seed=case).overall == 1


def test_perturbation_flips_verdict():
    rng = random.Random(1618)
    for case in range(50):
        g = perturbed_special(rng, V3, seed=case)
        verdict = is_special(g, seed=case)
        assert verdict.verdict in ("not_special", "degenerate")
        if verdict.depends_on_all:
            assert verdict.verdict == "not_special"


def test_rank1_iff_special_on_mixed_corpus():
    # soundness both ways on polynomials depending on all variables
    rng = random.Random(878)
    for case in range(30):
        if case % 2:
            f = random_special(rng, V3, multiplicative=case % 4 == 1, max_deg=2)
        else:
            f = perturbed_special(rng, V3, seed=case)
        if not depends_on_all(f):
            continue
        verdict = is_special(f, seed=case)
        rank1 = rank(f, method="exact").overall == 1
        assert verdict.rank1 == rank1
        assert (verdict.verdict == "special") == rank1


def test_randomized_identities_agree_with_exact():
    rng = random.Random(515)
    for case in range(12):
        if case % 2:
            f = random_special(rng, V3, multiplicative=case % 4 == 1, max_deg=2)
        else:
            f = perturbed_special(rng, V3, seed=case)
        exact = is_special(f, method="exact", seed=case)
        fast = is_special(f, method="randomized", seed=case)
        assert exact.verdict == fast.verdict
        assert exact.pair_checks == fast.pair_checks


def _rational_trial_values(polys, point):
    """Exact Fraction values: the reference for identities checked mod PRIME."""
    return [p.eval(point) for p in polys], RATIONALS


IDENTITY_CORPORA = {
    "special": lambda rng: random_special(rng, V3, multiplicative=rng.random() < 0.5, max_deg=2),
    "perturbed": lambda rng: perturbed_special(rng, V3, seed=rng.randrange(100)),
    "dense": lambda rng: dense_random_polynomial(rng, V3, max_deg=2),
    "sparse": lambda rng: sparse_random_polynomial(rng, V3) or P("x1*x2*x3"),
    "gapped": lambda rng: gapped_random_polynomial(rng, V3),
}


@pytest.mark.parametrize("corpus", sorted(IDENTITY_CORPORA))
def test_modular_identities_match_rational_reference(corpus, monkeypatch):
    rng = random.Random(2606)
    for case in range(8):
        f = IDENTITY_CORPORA[corpus](rng)
        modular = is_special(f, method="randomized", seed=case)
        with monkeypatch.context() as patched:
            patched.setattr(special_module, "trial_values", _rational_trial_values)
            reference = is_special(f, method="randomized", seed=case)
        assert modular.pair_checks == reference.pair_checks
        assert modular.to_json_dict() == reference.to_json_dict()


def test_prime_denominator_identities_take_the_rational_path():
    # (x1 + x2/PRIME + x3)^2 is special; its partials have denominator PRIME
    inner = P("x1 + x3") + Polynomial(V3, {(0, 1, 0): Fraction(1, PRIME)})
    f = inner * inner
    assert is_special(f, method="randomized").to_json_dict() == is_special(f, method="exact").to_json_dict()
    assert is_special(f, method="randomized").verdict == "special"
    g = f + P("x1*x2^2")
    assert is_special(g, method="randomized").to_json_dict() == is_special(g, method="exact").to_json_dict()


def test_randomized_identities_evaluate_modulo_prime(monkeypatch):
    moduli = []
    original = Polynomial.eval

    def spy(self, point, modulus=None):
        moduli.append(modulus)
        return original(self, point, modulus)

    monkeypatch.setattr(Polynomial, "eval", spy)
    rng = random.Random(2607)
    for case in range(6):
        is_special(IDENTITY_CORPORA["special"](rng), method="randomized", seed=case)
        is_special(IDENTITY_CORPORA["dense"](rng), method="randomized", seed=case)
    assert moduli and set(moduli) == {PRIME}
