"""Special-form detection via identities of first-order partials."""

import dataclasses
import importlib
import itertools
import random
from fractions import Fraction

import pytest

from polyrank import (
    Polynomial,
    coefficient_map,
    depends_on_all,
    is_special,
    jacobian,
    parse,
    rank,
    rank_in,
    ratio_independent_of,
    ratio_separated,
)
from polyrank import special as special_module
from polyrank.rank import POLYNOMIALS, PRIME, _cleared_multiple, bareiss
from gens import (
    dense_random_polynomial,
    eval_moduli,
    gapped_random_polynomial,
    perturbed_special,
    random_special,
    random_univariate,
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


@pytest.mark.parametrize("text", ["x1*x2*x3", "x1*x2 + x3"])
def test_unknown_method_is_rejected_before_any_work(monkeypatch, text):
    # x1*x2*x3 is special, so the rank certificate settles every identity
    # and none is left to evaluate: the method is checked up front
    monkeypatch.setattr(special_module, "rank", lambda *args, **kwargs: pytest.fail("rank was called"))
    with pytest.raises(ValueError, match="unknown identity method 'bogus'"):
        is_special(P(text), method="bogus")


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


def _rational_cleared_multiple(f):
    """``_cleared_multiple`` with the modulus None, so every value is an
    exact rational: the reference for identities checked mod PRIME."""
    cleared, scale, _ = _cleared_multiple(f)
    return cleared, scale, None


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
        for method in ("exact", "randomized"):
            modular = is_special(f, method=method, seed=case)
            with monkeypatch.context() as patched:
                patched.setattr(special_module, "_cleared_multiple", _rational_cleared_multiple)
                reference = is_special(f, method=method, seed=case)
            assert modular.pair_checks == reference.pair_checks
            assert modular.to_json_dict() == reference.to_json_dict()


def _prime_denominator_special():
    """(x1 + x2/PRIME + x3)^2: special, with partials of denominator PRIME."""
    inner = P("x1 + x3") + Polynomial(V3, {(0, 1, 0): Fraction(1, PRIME)})
    return inner * inner


def test_prime_denominator_identities_take_the_rational_path(monkeypatch):
    f = _prime_denominator_special()
    assert is_special(f, method="randomized").to_json_dict() == is_special(f, method="exact").to_json_dict()
    g = f + P("x1*x2^2")
    assert is_special(g, method="randomized").to_json_dict() == is_special(g, method="exact").to_json_dict()
    # PRIME divides D: the rank screen and every identity value run over Q
    moduli = eval_moduli(monkeypatch)
    assert is_special(f, method="randomized").verdict == "special"
    assert is_special(g, method="randomized").verdict == "not_special"
    assert moduli and set(moduli) == {None}


def test_randomized_identities_evaluate_modulo_prime(monkeypatch):
    moduli = eval_moduli(monkeypatch)
    rng = random.Random(2607)
    for case in range(6):
        is_special(IDENTITY_CORPORA["special"](rng), method="randomized", seed=case)
        is_special(IDENTITY_CORPORA["dense"](rng), method="randomized", seed=case)
    assert moduli and set(moduli) == {PRIME}


def _exact_differential_inputs():
    rng = random.Random(2608)
    for corpus in sorted(IDENTITY_CORPORA):
        for case in range(6):
            yield f"{corpus}-{case}", IDENTITY_CORPORA[corpus](rng), case
    f = _prime_denominator_special()
    yield "prime-denominator", f, 0
    yield "prime-denominator-perturbed", f + P("x1*x2^2"), 0
    yield "power-12-perturbed", P("(x1+2*x2+x3)^12 + x1*x2^2"), 0


def _count_expansions(monkeypatch):
    """Patch ``_sides`` to record each symbolic expansion (a call on
    polynomials, not on values at a point); returns the record."""
    expanded = []
    sides = special_module._sides

    def counting(factors):
        if isinstance(factors[0], Polynomial):
            expanded.append(factors)
        return sides(factors)

    monkeypatch.setattr(special_module, "_sides", counting)
    return expanded


def test_exact_mode_expands_only_identities_that_hold(monkeypatch):
    # ... and that the exact ranks do not certify: rank_m <= 1 certifies
    # independence through x_m, rank_i, rank_j <= 1 certify separation
    expanded = _count_expansions(monkeypatch)
    held_total = refuted = 0
    for text in ("x1*x2 + x3", "x1*x2 + x3*x2^2", "(x1+2*x2+x3)^12 + x1*x2^2"):
        expanded.clear()
        f = P(text)
        low = {m for m in f.vars.names if rank_in(f, m, method="exact") <= 1}
        verdict = is_special(f, method="exact")
        assert verdict.verdict == "not_special"
        # k = 3: each pair has one independence and one separation identity
        held = uncertified = 0
        for (i, j), c in verdict.pair_checks.items():
            (m,) = set(f.vars.names) - {i, j}
            held += c.independence_ok + c.separation_ok
            uncertified += (c.independence_ok and m not in low) + (c.separation_ok and not {i, j} <= low)
        assert len(expanded) == uncertified, text
        held_total += held
        refuted += 2 * len(verdict.pair_checks) - held
    assert held_total > 0 and refuted > 0


def test_special_input_expands_no_sides(monkeypatch):
    expanded = _count_expansions(monkeypatch)
    for text in ("(x1 + x2^2 + x3^3)^3", "x1*x2*x3", "(x1+2*x2+x3)^20"):
        expanded.clear()
        assert is_special(P(text), method="exact").verdict == "special"
        assert expanded == [], text


def _certificate(f, m):
    """The rank <= 1 test of f's Jacobian in pivot ``m``, as ``is_special``
    runs it."""
    return bareiss([list(row) for row in jacobian(coefficient_map(f, m)).entries], POLYNOMIALS)[0] <= 1


def _minors_vanish(f, m):
    """Independent reference: every 2x2 minor of f's Jacobian in pivot
    ``m`` is zero."""
    rows = jacobian(coefficient_map(f, m)).entries
    return all(a[c] * b[d] == a[d] * b[c]
               for a, b in itertools.combinations(rows, 2)
               for c, d in itertools.combinations(range(len(a)), 2))


def test_rank_certificate_matches_exact_rank():
    rng = random.Random(2609)
    inputs = [IDENTITY_CORPORA[corpus](rng) for corpus in sorted(IDENTITY_CORPORA) for _ in range(10)]
    # a zero first row (constant alpha_0) before a nonzero one; an all-zero Jacobian
    inputs += [P("1 + x1*x2*x3"), P("x3")]
    zero_first_row = zero_first_col = 0
    for f in inputs:
        for m in f.vars.names:
            rows = jacobian(coefficient_map(f, m)).entries
            zero_first_row += all(p.is_zero for p in rows[0])
            zero_first_col += all(row[0].is_zero for row in rows)
            assert _certificate(f, m) == _minors_vanish(f, m) == (rank_in(f, m, method="exact") <= 1), (str(f), m)
    assert zero_first_row > 0 and zero_first_col > 0


def _criterion_3_specials(count):
    """The first ``count`` special inputs of acceptance criterion 3."""
    rng = random.Random(0x5EED)
    for case in range(count):
        yield f"criterion-3-{case}", random_special(rng, V3, multiplicative=case % 2 == 0, max_deg=3), case


V4 = var_set(4)


def _rank1_inputs():
    """Inputs depending on every variable: each IDENTITY_CORPORA draw, the
    first criterion-3 specials and perturbed inputs, and k = 4 draws."""
    rng = random.Random(2610)
    inputs = [(f"{corpus}-{case}", IDENTITY_CORPORA[corpus](rng), case)
              for corpus in sorted(IDENTITY_CORPORA) for case in range(8)]
    inputs += list(_criterion_3_specials(12))
    rng = random.Random(0x5EED)
    inputs += [(f"criterion-3-perturbed-{case}", perturbed_special(rng, V3, seed=1000 + case), 1000 + case)
               for case in range(12)]
    rng = random.Random(2611)
    for case in range(4):
        inputs.append((f"k4-special-{case}", random_special(rng, V4, multiplicative=case % 2 == 0, max_deg=2), case))
        inputs.append((f"k4-perturbed-{case}", perturbed_special(rng, V4, seed=case), case))
        inputs.append((f"k4-dense-{case}", dense_random_polynomial(rng, V4, max_deg=2), case))
    return [(label, f, seed) for label, f, seed in inputs if depends_on_all(f)]


def test_rank1_is_the_exact_rank_and_the_independence_identities():
    # rank J_m <= 1 exactly when the 2x2 minors of J_m vanish, which is
    # each independence identity (i, j, m) in columns i and j; and rank 1
    # is exact, so no identity may contradict it
    inputs = _rank1_inputs()
    assert {label.split("-")[0] for label, _, _ in inputs} >= {"dense", "special", "criterion", "k4"}
    for label, f, seed in inputs:
        rank1 = rank(f, method="exact").overall == 1
        for method in ("exact", "randomized"):
            verdict = is_special(f, method=method, seed=seed)
            assert verdict.rank1 == rank1, (label, method)
            assert verdict.rank1 == all(c.independence_ok for c in verdict.pair_checks.values()), (label, method)
            if rank1:
                assert all(c.separation_ok for c in verdict.pair_checks.values()), (label, method)
            assert verdict.verdict == ("special" if rank1 else "not_special"), (label, method)


def test_rank_screen_is_one_trial(monkeypatch):
    calls = []
    original = special_module.rank

    def spy(*args, _jacobians, **kwargs):
        calls.append(kwargs)
        report = original(*args, _jacobians=_jacobians, **kwargs)
        # the Jacobians go to the verdict only, one per pivot
        assert set(_jacobians) == set(report.vars)
        assert not hasattr(report, "jacobians")
        return report

    monkeypatch.setattr(special_module, "rank", spy)
    for text in ("(x1 + x2^2 + x3^3)^3", "x1*x2 + x3"):
        calls.clear()
        is_special(P(text), seed=7)
        assert calls == [{"method": "randomized", "trials": 1, "seed": 7}], text


@pytest.mark.parametrize("text, vars, divides", [
    # k = 3: J_m has two columns, so the only step is the division-free one
    ("x1*x2 + x3", V3, False),
    # k = 4: J_x1 has three rows and rank 2, so the second step divides
    ("(x2 + x4)*(x1^2 + x3) + x1*x3", V4, True),
])
def test_screen_miss_is_caught_by_the_exact_test(monkeypatch, text, vars, divides):
    original = special_module.rank

    def missing(*args, _jacobians, **kwargs):
        # the screen builds the true Jacobians but puts every pivot at <= 1
        report = original(*args, _jacobians=_jacobians, **kwargs)
        assert report.overall == 2
        return dataclasses.replace(report, per_variable=dict.fromkeys(report.vars, 1), overall=1)

    rank_module = importlib.import_module("polyrank.rank")
    exact_div, divisions = rank_module.exact_div, []

    def counting_div(a, b):
        divisions.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(special_module, "rank", missing)
    monkeypatch.setattr(rank_module, "exact_div", counting_div)
    verdict = is_special(P(text, vars))
    assert not verdict.rank1
    assert verdict.verdict == "not_special"
    assert bool(divisions) == divides


def test_k3_independence_identity_is_the_rank_certificate():
    # f_i / f_j is free of x_m exactly when columns i and j of J_m are
    # proportional, and for k = 3 they are J_m's only columns
    cases = 0
    for label, f, _ in _rank1_inputs() + [(label, f, seed) for label, f, seed in _exact_differential_inputs()
                                          if depends_on_all(f)]:
        if f.vars.k != 3:
            continue
        for m in f.vars.names:
            i, j = (name for name in f.vars.names if name != m)
            assert ratio_independent_of(f, i, j, m) == _certificate(f, m), (label, m)
            cases += 1
    assert cases > 100


def test_k4_certificate_implies_its_independence_identities():
    passes = 0
    for label, f, _ in _rank1_inputs():
        if f.vars.k != 4:
            continue
        for m in f.vars.names:
            if not _certificate(f, m):
                continue
            passes += 1
            for i, j in itertools.combinations([name for name in f.vars.names if name != m], 2):
                assert ratio_independent_of(f, i, j, m), (label, i, j, m)
    assert passes > 0


def _count_work(monkeypatch):
    """Count the calls of ``Polynomial.partial``, ``Polynomial.eval``,
    ``coefficient_map`` and ``jacobian`` (in every module that binds the
    latter two); returns the live counts."""
    counts = dict.fromkeys(("partial", "eval", "coefficient_map", "jacobian"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("partial", "eval"):
        monkeypatch.setattr(Polynomial, name, counting(name, getattr(Polynomial, name)))
    for module in (importlib.import_module("polyrank.rank"), special_module):
        for name in ("coefficient_map", "jacobian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("text, bounds", [
    # the certificate tests the screen's Jacobians: one map and one
    # Jacobian per pivot, and partials for the Jacobians and f_1, f_2, f_3
    ("(x1+x2^2+x3^3)^3", {"coefficient_map": 3, "jacobian": 3, "partial": 27}),
    # the identities take no partial beyond f_1, f_2, f_3
    ("(x1+x2^2+x3^3)^3 + x1*x2^2", {"coefficient_map": 3, "jacobian": 3, "partial": 27}),
])
def test_is_special_builds_each_thing_once(monkeypatch, text, bounds):
    f = P(text)
    counts = _count_work(monkeypatch)
    screen_evals = []
    rank_screen = special_module.rank

    def counting_screen(*args, **kwargs):
        before = counts["eval"]
        report = rank_screen(*args, **kwargs)
        screen_evals.append(counts["eval"] - before)
        return report

    keys = set()
    value = special_module._Derivatives.value

    def recording(self, trial, v, r):
        keys.add((trial, v, r))
        return value(self, trial, v, r)

    monkeypatch.setattr(special_module, "rank", counting_screen)
    monkeypatch.setattr(special_module._Derivatives, "value", recording)
    is_special(f)
    for name, bound in bounds.items():
        assert counts[name] <= bound, (name, counts)
    # each restricted partial the identities read is evaluated exactly once
    # at the verdict's one point
    assert counts["eval"] - sum(screen_evals) == len(keys), (counts, screen_evals)


# ------------------------------------------------------------ derivative reference

def _derivative_independence(f, i, j, m):
    """Reference: f_i / f_j is free of x_m when f_im * f_j == f_i * f_jm,
    expanded over every variable."""
    fi, fj = f.partial(i), f.partial(j)
    return fi.partial(m) * fj == fi * fj.partial(m)


def _derivative_separation(f, i, j):
    """Reference: the mixed logarithmic derivative of g / h, g = f_i and
    h = f_j, vanishes when (g*g_ij - g_i*g_j) * h^2 == (h*h_ij - h_i*h_j) * g^2,
    expanded over every variable."""
    def mixed(p):
        return p * p.partial(i).partial(j) - p.partial(i) * p.partial(j)

    g, h = f.partial(i), f.partial(j)
    return mixed(g) * (h * h) == mixed(h) * (g * g)


def _reference_verdict(f):
    """The JSON of ``is_special(f)`` from the derivative identities alone:
    every pair check expanded, no point check and no certificate, and
    ``rank1`` from the exact rank."""
    names = f.vars.names
    if not depends_on_all(f):
        return special_module.SpecialFormVerdict(False, False, {}, "degenerate").to_json_dict()
    checks = {(i, j): special_module.PairCheck(
                  all(_derivative_independence(f, i, j, m) for m in names if m not in (i, j)),
                  _derivative_separation(f, i, j))
              for i, j in itertools.combinations(names, 2)}
    rank1 = rank(f, method="exact").overall == 1
    return special_module.SpecialFormVerdict(rank1, True, checks, "special" if rank1 else "not_special").to_json_dict()


def _restriction_inputs():
    """The gens corpora, univariate perturbations of specials (whose
    perturbed variable keeps its pass) and a k = 4 input with an
    uncertified independence identity."""
    rng = random.Random(2612)
    for corpus in sorted(IDENTITY_CORPORA):
        for case in range(6):
            yield f"{corpus}-{case}", IDENTITY_CORPORA[corpus](rng), case
    for text in ("(x1+2*x2+x3)^12 + x3^3", "(x1+2*x2+x3)^12 + x1^2", "(x1*x2*x3 + 1)^3 + x2^2",
                 "(x1 + x2^2 + x3^3)^3 + x3", "x3*(x3^2-1)*(x3^2-4)*(x1*x2+1)"):
        yield text, P(text), 0
    for case in range(8):
        special = random_special(rng, V3, multiplicative=case % 2 == 0, max_deg=2)
        name = V3.names[case % 3]
        yield f"univariate-perturbed-{case}", special + random_univariate(rng, V3, name), case
    # x4 * g(x1, x2, x3): the pass at x4 certifies f_1 / f_2 = 1/2 free of x4,
    # and independence (x1, x2) through x3 is left to expand
    yield "k4-scaled", P("x4*((x1+2*x2+x3)^3 + x3^3)", V4), 0


def _spy_identities(monkeypatch):
    """Record (i, j, own, fixed, result) of each ``_identity_holds`` call."""
    calls = []
    original = special_module._identity_holds

    def spy(table, i, j, own, method, fixed=()):
        result = original(table, i, j, own, method, fixed)
        calls.append((i, j, own, set(fixed), result))
        return result

    monkeypatch.setattr(special_module, "_identity_holds", spy)
    return calls


def _assert_matches_reference(f, seed, label):
    """Assert ``is_special(f)`` under both methods equals the derivative
    reference."""
    reference = _reference_verdict(f)
    for method in ("exact", "randomized"):
        assert is_special(f, method=method, seed=seed).to_json_dict() == reference, (label, method)


def test_exact_identities_match_expanded_reference():
    # a residue mismatch proves the sides differ, so refuting mod PRIME
    # before expanding, and expanding only at the chosen constants, must
    # leave every verdict equal to the derivative identities expanded in full
    for label, f, seed in _exact_differential_inputs():
        _assert_matches_reference(f, seed, label)


def test_certified_identities_hold_when_expanded():
    # an identity the rank passes certify is never expanded by is_special;
    # the derivative identities, expanded over every variable, must hold
    certified = 0
    inputs = itertools.chain(_exact_differential_inputs(), _criterion_3_specials(10))
    for label, f, seed in inputs:
        if not depends_on_all(f):
            continue
        names = f.vars.names
        low = {m for m in names if _certificate(f, m)}
        for i, j in itertools.combinations(names, 2):
            for m in low - {i, j}:
                assert _derivative_independence(f, i, j, m), (label, i, j, m)
                certified += 1
            if {i, j} <= low:
                assert _derivative_separation(f, i, j), (label, i, j)
                certified += 1
        if label.startswith("criterion"):
            _assert_matches_reference(f, seed, label)
    assert certified > 0


def test_restricted_identities_match_full_expansion(monkeypatch):
    # the restricted first-order identities are equivalent to the
    # derivative identities whenever every restricted factor is nonzero;
    # at x3 = 0, f_1 = 2*x1*x3 and f_2 = x3^2 of x3*(x1^2 + x2*x3) vanish
    calls = _spy_identities(monkeypatch)
    restricted = set()  # (label, number of own variables) of each restricted expansion
    inputs = itertools.chain(_restriction_inputs(), [("x3*(x1^2 + x2*x3)", P("x3*(x1^2 + x2*x3)"), 0)])
    for label, f, seed in inputs:
        reference = _reference_verdict(f)
        for method in ("exact", "randomized"):
            calls.clear()
            assert is_special(f, method=method, seed=seed).to_json_dict() == reference, (label, method)
            if method == "exact":
                restricted.update((label, len(own)) for _, _, own, fixed, held in calls if fixed and held)
    # separations (two own variables) at k = 3, an independence at k = 4
    assert {("(x1+2*x2+x3)^12 + x3^3", 2), ("k4-scaled", 1)} <= restricted
    assert sum(label.startswith("univariate") for label, _ in restricted) >= 4


def test_identities_fix_exactly_the_other_passes(monkeypatch):
    calls = _spy_identities(monkeypatch)
    fixing = 0
    for label, f, seed in _restriction_inputs():
        if not depends_on_all(f):
            continue
        low = {m for m in f.vars.names if _certificate(f, m)}
        calls.clear()
        is_special(f, seed=seed)
        for i, j, own, fixed, _ in calls:
            assert fixed == low - {i, j, *own}, (label, i, j, own)
            fixing += bool(fixed)
    assert fixing > 10


def test_fixed_constant_skips_the_roots_of_the_factors(monkeypatch):
    # x3 passes and x1, x2 do not, so separation (x1, x2) fixes x3; but
    # f_1 = x2 * g(x3) vanishes at the roots 0, 1, -1, 2, -2 of g, so the
    # first constant that leaves it nonzero is 3
    f = P("x3*(x3^2-1)*(x3^2-4)*(x1*x2+1)")
    assert [m for m in f.vars.names if _certificate(f, m)] == ["x3"]
    chosen = []
    original = special_module._bind

    def spy(table, i, j, restrictions, name):
        bound = original(table, i, j, restrictions, name)
        chosen.append((i, j, name, list(bound)))
        return bound

    monkeypatch.setattr(special_module, "_bind", spy)
    verdict = is_special(f)
    assert ("x1", "x2", "x3", [frozenset({("x3", 3)})]) in chosen
    assert {c for _, _, name, bound in chosen for r in bound for v, c in r if v == "x3"} == {3}
    assert verdict.pair_checks[("x1", "x2")].separation_ok
    assert verdict.to_json_dict() == _reference_verdict(f)


def _no_point_check(monkeypatch):
    """Make every value zero, so that every identity passes its point check
    and only the symbolic step decides."""
    monkeypatch.setattr(special_module._Derivatives, "value", lambda self, trial, v, r: 0)


def test_restriction_needs_the_rank_certificate(monkeypatch):
    # no pass holds, so f_1 / f_2 = (2x1 + x2x3) / (2x2 + x1x3) involves x3,
    # and at x3 = 0 its separation holds though the full identity does not
    f = P("x1^2 + x2^2 + x1*x2*x3")
    assert not any(_certificate(f, m) for m in f.vars.names)
    _no_point_check(monkeypatch)
    table = special_module._Derivatives(f, 0)
    assert special_module._identity_holds(table, "x1", "x2", ("x2", "x1"), "exact", ("x3",))
    assert not special_module._identity_holds(table, "x1", "x2", ("x2", "x1"), "exact")
    assert not ratio_separated(f, "x1", "x2")
    # is_special fixes no variable here, so the symbolic step refutes it
    assert not is_special(f).pair_checks[("x1", "x2")].separation_ok
