"""Coefficient maps, Jacobians, and generic rank (exact and randomized)."""

import importlib
import math
import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from polyrank import (
    Polynomial,
    PolyMatrix,
    RankReport,
    VarSet,
    build_instance,
    coefficient_map,
    generic_rank_exact,
    jacobian,
    parse,
    rank,
    rank_in,
)
from polyrank import poly
from polyrank.rank import (
    MOD_PRIME,
    PRIME,
    RATIONALS,
    Witness,
    _cleared_multiple,
    _randomized_rank,
    bareiss,
    sample_point,
)
from gens import (
    degree_in,
    dense_random_polynomial,
    eval_moduli,
    gapped_random_polynomial,
    permute_polynomial,
    random_point,
    reconstruct,
    sparse_random_polynomial,
    var_set,
)

V2 = var_set(2)
V3 = var_set(3)
V4 = var_set(4)


def P(text, vars=V3):
    return parse(text, vars)


def matrix(rows, vars=V3):
    return PolyMatrix(vars, [[parse(str(e), vars) if not isinstance(e, str) else parse(e, vars) for e in row] for row in rows])


# ------------------------------------------------------------ rational references

def _rational_rank(rows):
    """Exact Gaussian elimination over Q with the engine's pivot rule: the
    reference for the Bareiss routine over Q and over Z/PRIME."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    a = [row[:] for row in rows]
    row_ids = list(range(n_rows))
    col_ids = list(range(n_cols))
    r = 0
    while r < n_rows and r < n_cols:
        pivot = None
        for i in range(r, n_rows):
            for j in range(r, n_cols):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[r], a[pi] = a[pi], a[r]
            row_ids[r], row_ids[pi] = row_ids[pi], row_ids[r]
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
            col_ids[r], col_ids[pj] = col_ids[pj], col_ids[r]
        piv = a[r][r]
        for i in range(r + 1, n_rows):
            factor = a[i][r] / piv
            if factor:
                for j in range(r, n_cols):
                    a[i][j] -= factor * a[r][j]
        r += 1
    return r, Witness(rows=tuple(sorted(row_ids[:r])), cols=tuple(sorted(col_ids[:r])))


def _rational_randomized_rank(m, trials, seed):
    """Randomized rank with every entry evaluated as an exact Fraction and
    eliminated over Q: the reference for the trials modulo PRIME."""
    degree = m.total_degree()
    best, best_witness = 0, Witness((), ())
    for t in range(trials):
        point = sample_point(seed, t, m.vars.k, degree)
        r, witness = _rational_rank([[p.eval(point) for p in row] for row in m.entries])
        if r > best:
            best, best_witness = r, witness
            if best == min(m.rows, m.cols):
                break
    return best, best_witness


def _residues(rows):
    return [[x.numerator * pow(x.denominator, -1, PRIME) % PRIME for x in row] for row in rows]


# ------------------------------------------------------------ coefficient map

def test_coefficient_map_canonical_example():
    cm = coefficient_map(P("x1*x3 + x2*x3^2"), "x3")
    assert cm.degree == 2
    assert cm.exponents == (1, 2)
    assert cm.alphas == (P("x1"), P("x2"))


def test_coefficient_map_linear():
    cm = coefficient_map(P("x1+x2+x3"), "x1")
    assert cm.alphas == (P("x2+x3"), P("1"))


def test_coefficient_map_volume_polynomial():
    f = P("1/2*(x2-x1)*(x3-x1)*(x3-x2)")
    cm = coefficient_map(f, "x3")
    # (x3-x1)(x3-x2) = x3^2 - (x1+x2)x3 + x1x2, times (1/2)(x2-x1)
    assert cm.alphas == (
        P("1/2*(x2-x1)*x1*x2"),
        P("-1/2*(x2-x1)*(x1+x2)"),
        P("1/2*(x2-x1)"),
    )


def test_coefficient_map_preconditions():
    with pytest.raises(ValueError, match="zero polynomial"):
        coefficient_map(P("0"), "x1")
    with pytest.raises(ValueError, match="2 ambient"):
        coefficient_map(parse("x1^2", VarSet(("x1",))), "x1")
    with pytest.raises(ValueError, match="unknown variable"):
        coefficient_map(P("x1"), "y")


def test_coefficient_map_reconstruction_random():
    rng = random.Random(99)
    for _ in range(40):
        f = sparse_random_polynomial(rng, V3)
        if f.is_zero:
            continue
        v = rng.choice(V3.names)
        cm = coefficient_map(f, v)
        assert reconstruct(cm) == f
        assert all(a < b for a, b in zip(cm.exponents, cm.exponents[1:]))
        assert len(cm.exponents) == len(cm.alphas)
        assert not any(alpha.is_zero for alpha in cm.alphas)
        assert all(degree_in(alpha, v) == 0 for alpha in cm.alphas)


def test_coefficient_map_cost_follows_terms_not_degree():
    # a dense map would hold 10^8 + 1 coefficients here
    f = parse("x1^100000000*x2", V2)
    cm = coefficient_map(f, "x1")
    assert cm.exponents == (10**8,)
    assert cm.degree == 10**8
    assert cm.alphas == (parse("x2", V2),)
    assert jacobian(cm).entries == ((Polynomial.constant(V2, 1),),)
    assert reconstruct(cm) == f


# ------------------------------------------------------------ sparse map against the dense map

def _dense_coefficient_map(f, v):
    """The dense map alpha_0..alpha_d, zero alphas included: the reference
    the sparse map must agree with."""
    i = f.vars.index(v)
    buckets = [{} for _ in range(degree_in(f, v) + 1)]
    for m, c in f.terms.items():
        e = m[i]
        stripped = m[:i] + (0,) + m[i + 1:]
        buckets[e][stripped] = buckets[e].get(stripped, Fraction(0)) + c
    return tuple(Polynomial(f.vars, b) for b in buckets)


def _dense_jacobian(f, v):
    """One row per alpha_0..alpha_d, so row i belongs to the pivot power i."""
    non_pivot = [name for name in f.vars.names if name != v]
    return PolyMatrix(f.vars, [[alpha.partial(name) for name in non_pivot] for alpha in _dense_coefficient_map(f, v)])


def _report_json(f, method, trials, seed, rank_of):
    """rank(f, ...).to_json_dict() with ``rank_of(v, seed)`` giving each
    pivot's rank and witness, rows labelled by pivot exponent."""
    per, overall, witness_var, witness = {}, -1, None, None
    for offset, v in enumerate(f.vars.names):
        r, w = rank_of(v, seed + offset)
        per[v] = r
        if r > overall:
            overall, witness_var, witness = r, v, w
    return RankReport(
        vars=f.vars.names, per_variable=per, overall=overall, method=method,
        trials=trials if method == "randomized" else 0, seed=seed,
        witness_var=witness_var, witness=witness,
    ).to_json_dict()


def _dense_rank_json(f, method, trials, seed):
    """rank(f, ...).to_json_dict() computed on dense Jacobians."""
    return _report_json(f, method, trials, seed,
                        lambda v, s: _dense_rank_with_witness(_dense_jacobian(f, v), method, trials, s))


def _dense_rank_with_witness(m, method, trials, seed):
    return generic_rank_exact(m) if method == "exact" else _randomized_rank(m, trials, seed)


def _rational_rank_json(f, trials, seed):
    """rank(f, "randomized", ...).to_json_dict() computed on dense Jacobians
    evaluated as exact Fractions and eliminated over Q."""
    return _report_json(f, "randomized", trials, seed,
                        lambda v, s: _rational_randomized_rank(_dense_jacobian(f, v), trials, s))


def _dense_instance(f, sets):
    """build_instance on the dense map: (to_json_dict, witness rows, curves),
    or None when the rank in the first variable is not full."""
    vars = f.vars
    pivot = vars.names[0]
    jac = _dense_jacobian(f, pivot)
    r, witness = generic_rank_exact(jac)
    if r != vars.k - 1:
        return None
    det = jac.submatrix(witness.rows, range(vars.k - 1)).determinant()
    alphas = _dense_coefficient_map(f, pivot)
    image = {f.eval(list(t)) for t in iter_product(*sets)}
    curves, degenerate = {}, 0
    for suffix in iter_product(*sets[1:]):
        point = [0, *suffix]
        if det.eval(point) == 0:
            degenerate += 1
            continue
        vector = tuple(alpha.eval(point) for alpha in alphas)
        curves[vector] = curves.get(vector, 0) + 1
    incidences = sum(
        sum(c * Fraction(x) ** i for i, c in enumerate(vector)) in image
        for vector in curves for x in sets[0]
    )
    a1, suffixes = len(sets[0]), math.prod(len(s) for s in sets[1:])
    doc = {
        "S": a1 * suffixes,
        "S0": a1 * degenerate,
        "Sprime": a1 * (suffixes - degenerate),
        "points": a1 * len(image),
        "curves": len(curves),
        "incidences": incidences,
        "max_multiplicity": max(curves.values(), default=0),
    }
    return doc, witness.rows, tuple(sorted(curves))


@pytest.mark.parametrize("method", ["exact", "randomized"])
def test_rank_reports_match_dense_reference(method):
    rng = random.Random(2600)
    gapped = 0
    for case in range(24):
        vars = var_set(3 + case % 2)
        f = gapped_random_polynomial(rng, vars)
        gapped += any(len(coefficient_map(f, v).exponents) <= degree_in(f, v) for v in vars.names)
        assert rank(f, method=method, seed=case).to_json_dict() == _dense_rank_json(f, method, 5, case)
    assert gapped == 24


def test_select_columns_match_dense_reference():
    # the witness columns are the variables that reduction keeps
    rng = random.Random(2601)
    for case in range(24):
        vars = var_set(3 + case % 2)
        f = gapped_random_polynomial(rng, vars)
        v = vars.names[case % vars.k]
        _, witness = generic_rank_exact(jacobian(coefficient_map(f, v)))
        assert witness.cols == generic_rank_exact(_dense_jacobian(f, v))[1].cols


def test_incidence_instances_match_dense_reference():
    rng = random.Random(2602)
    full_rank = 0
    for _ in range(30):
        f = gapped_random_polynomial(rng, V3)
        sets = [sorted(rng.sample(range(-2, 4), rng.randint(2, 3))) for _ in range(3)]
        expected = _dense_instance(f, sets)
        if expected is None:
            with pytest.raises(ValueError, match="full rank"):
                build_instance(f, sets)
            continue
        full_rank += 1
        inst = build_instance(f, sets)
        assert (inst.to_json_dict(), inst.witness_rows, inst.curves) == expected
    assert full_rank >= 15


# ------------------------------------------------------------ jacobians

def test_jacobian_of_canonical_example():
    jac = jacobian(coefficient_map(P("x1*x3 + x2*x3^2"), "x3"))
    assert jac.entries == matrix([["1", "0"], ["0", "1"]]).entries


def test_jacobian_of_linear():
    jac = jacobian(coefficient_map(P("x1+x2+x3"), "x1"))
    assert jac.entries == matrix([["1", "1"], ["0", "0"]]).entries


def test_jacobian_of_product():
    jac = jacobian(coefficient_map(P("x1*x2*x3"), "x1"))
    assert jac.entries == matrix([["x3", "x2"]]).entries


# ------------------------------------------------------------ exact rank

def test_exact_rank_constant_matrix():
    r, witness = generic_rank_exact(matrix([["0", "0"], ["1", "0"], ["0", "1"]]))
    assert r == 2
    assert witness.rows == (1, 2)
    assert witness.cols == (0, 1)


def test_exact_rank_deficient():
    r, _ = generic_rank_exact(matrix([["1", "1"], ["0", "0"]]))
    assert r == 1


def test_exact_rank_volume_jacobian():
    jac = jacobian(coefficient_map(P("1/2*(x2-x1)*(x3-x1)*(x3-x2)"), "x3"))
    r, witness = generic_rank_exact(jac)
    assert r == 2
    # the witness minor must have a nonzero determinant
    assert not jac.submatrix(witness.rows, witness.cols).determinant().is_zero


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(15):
        rows = [[sparse_random_polynomial(rng, V3, max_deg=1, max_terms=2) for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(V3, rows)
        # cofactor oracle
        def det2(a, b, c, d):
            return a * d - b * c
        expected = (
            rows[0][0] * det2(rows[1][1], rows[1][2], rows[2][1], rows[2][2])
            - rows[0][1] * det2(rows[1][0], rows[1][2], rows[2][0], rows[2][2])
            + rows[0][2] * det2(rows[1][0], rows[1][1], rows[2][0], rows[2][1])
        )
        assert m.determinant() == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_agrees_with_sympy(n):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(V3.names)
    rng = random.Random(600 + n)

    def entry():
        p = Polynomial.zero(V3)
        while p.is_zero:
            p = sparse_random_polynomial(rng, V3, max_deg=2, max_terms=3)
        return p * Fraction(1, rng.randint(1, 4))

    for trial in range(5):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if trial == 3:  # the pivot search has to look past zero entries
            rows[0][0] = rows[1][1] = Polynomial.zero(V3)
        if trial == 4:  # singular
            rows[-1] = rows[0]
        expected = sympy.Matrix(
            [[sum(sympy.Rational(c) * sympy.prod([g ** e for g, e in zip(gens, m)]) for m, c in p.terms.items())
              for p in row] for row in rows]
        ).det(method="berkowitz")
        expected_terms = sympy.Poly(sympy.expand(expected), *gens, domain="QQ").as_dict()
        assert PolyMatrix(V3, rows).determinant().terms == {
            m: Fraction(int(c.p), int(c.q)) for m, c in expected_terms.items() if c
        }


def test_determinant_agrees_with_sympy_det():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(V3.names)
    rng = random.Random(5)  # the matrices of the cofactor test
    for _ in range(15):
        rows = [[sparse_random_polynomial(rng, V3, max_deg=1, max_terms=2) for _ in range(3)] for _ in range(3)]
        expected = sympy.Matrix(
            [[sum(sympy.Rational(c) * sympy.prod([g ** e for g, e in zip(gens, m)]) for m, c in p.terms.items())
              for p in row] for row in rows]
        ).det()
        expected_terms = sympy.Poly(sympy.expand(expected), *gens, domain="QQ").as_dict()
        assert PolyMatrix(V3, rows).determinant().terms == {
            m: Fraction(int(c.p), int(c.q)) for m, c in expected_terms.items() if c
        }


# ------------------------------------------------------------ randomized rank

def test_randomized_rank_zero_matrix():
    m = matrix([["0", "0"], ["0", "0"]])
    assert _randomized_rank(m, 3, 1)[0] == 0


def test_randomized_rank_nonzero_row():
    assert _randomized_rank(matrix([["x3", "x2"]]), 1, 0)[0] == 1


def test_randomized_never_exceeds_exact_and_agrees():
    rng = random.Random(31415)
    agreements = 0
    cases = 500
    for case in range(cases):
        rows = [[sparse_random_polynomial(rng, V3, max_deg=2, max_terms=3) for _ in range(3)] for _ in range(4)]
        m = PolyMatrix(V3, rows)
        exact, _ = generic_rank_exact(m)
        randomized = _randomized_rank(m, 5, case)[0]
        assert randomized <= exact
        agreements += (randomized == exact)
    assert agreements == cases


def test_randomized_is_deterministic_given_seed():
    m = matrix([["x1", "x2"], ["x3", "1"]])
    assert _randomized_rank(m, 5, 7) == _randomized_rank(m, 5, 7)


def test_sample_point_draws_are_pinned():
    # every randomized report depends on these draws
    assert sample_point(0, 0, 3, 2) == [5371, 23892, -175383]
    assert sample_point(5, 3, 2, 0) == [-40162, -55589]


def _sympy_rank(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]).rank()


def test_rational_rank_agrees_with_sympy():
    """The Bareiss routine over Q and over Z/PRIME, against sympy and the
    Gaussian reference: same rank and same witness."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2603)
    deficient = 0
    for case in range(40):
        vars = var_set(3 + case % 2)
        if case % 2:
            f = dense_random_polynomial(rng, vars, max_deg=2)
        else:
            f = gapped_random_polynomial(rng, vars)
        v = rng.choice(vars.names)
        # small coordinates, so evaluations drop rank now and then
        point = random_point(rng, vars.k, -3, 3)
        for jac in (jacobian(coefficient_map(f, v)), _dense_jacobian(f, v)):
            rows = [[p.eval(point) for p in row] for row in jac.entries]
            if case % 4 == 3:  # a rational combination of two rows
                a, b = Fraction(rng.randint(-5, 5), 3), rng.randint(-5, 5)
                rows = rows + [[a * x + b * y for x, y in zip(rows[0], rows[-1])]]
            expected = _rational_rank(rows)
            r, witness = expected
            assert r == _sympy_rank(sympy, rows)
            deficient += r < min(len(rows), len(rows[0]))
            assert len(witness.rows) == len(witness.cols) == r
            minor = [[rows[i][j] for j in witness.cols] for i in witness.rows]
            assert _sympy_rank(sympy, minor) == r
            for ring, values in ((RATIONALS, rows), (MOD_PRIME, _residues(rows))):
                got, witness, _ = bareiss([row[:] for row in values], ring)
                assert (got, witness) == expected
    assert deficient >= 10


CORPORA = {
    "dense": lambda rng, vars: dense_random_polynomial(rng, vars, max_deg=2),
    "sparse": lambda rng, vars: sparse_random_polynomial(rng, vars) or Polynomial.variable(vars, "x1"),
    "gapped": gapped_random_polynomial,
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_modular_rank_matches_rational_reference(corpus):
    rng = random.Random(2604)
    for case in range(16):
        vars = var_set(3 + case % 2)
        f = CORPORA[corpus](rng, vars)
        for v in vars.names:
            jac = jacobian(coefficient_map(f, v))
            assert _randomized_rank(jac, 5, case) == _rational_randomized_rank(jac, 5, case)
        assert rank(f, seed=case).to_json_dict() == _rational_rank_json(f, 5, case)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_division_kernel_leaves_elimination_unchanged(corpus, monkeypatch):
    # exact ranks, witnesses and determinants with both division kernels
    # against the heap routine alone
    rng = random.Random(2610)
    matrices = []
    for case in range(12):
        vars = var_set(3 + case % 2)
        f = CORPORA[corpus](rng, vars)
        matrices += [jacobian(coefficient_map(f, v)) for v in vars.names]
        matrices.append(PolyMatrix(V3, [[CORPORA[corpus](rng, V3) for _ in range(3)] for _ in range(3)]))

    def results():
        out = []
        for m in matrices:
            n = min(m.rows, m.cols)
            out.append((generic_rank_exact(m), m.submatrix(range(n), range(n)).determinant().terms))
        return out

    kernel_quotients = []
    div_dense = poly._div_dense

    def counted(p, d):
        quotient = div_dense(p, d)
        kernel_quotients.append(quotient is not None)
        return quotient

    monkeypatch.setattr(poly, "_div_dense", counted)
    both = results()
    monkeypatch.setattr(poly, "_div_dense", lambda p, d: None)
    heap = results()
    for (rank_both, det_both), (rank_heap, det_heap) in zip(both, heap):
        assert rank_both == rank_heap
        assert det_both == det_heap
        assert [type(det_both[m]) for m in det_heap] == [type(c) for c in det_heap.values()]
    if corpus == "dense":
        assert sum(kernel_quotients) >= 20


def test_prime_denominator_takes_the_rational_path(monkeypatch):
    # PRIME divides D: the cleared D*f is ranked, every trial over Q
    for denominator in (PRIME, 3 * PRIME):
        f = P("x1*x3 + x2*x3^2") + Polynomial(V3, {(1, 1, 2): Fraction(1, denominator)})
        with pytest.raises(ZeroDivisionError):
            f.eval([1, 2, 3], PRIME)
        cleared, scale, modulus = _cleared_multiple(f)
        assert (scale, modulus) == (denominator, None)
        assert cleared == f * denominator
        jac = jacobian(coefficient_map(f, "x3"))
        cleared_jac = jacobian(coefficient_map(cleared, "x3"))
        for seed in range(3):
            assert _randomized_rank(cleared_jac, 5, seed, modulus) == _rational_randomized_rank(jac, 5, seed)
            with monkeypatch.context() as patched:
                moduli = eval_moduli(patched)
                report = rank(f, seed=seed).to_json_dict()
            assert moduli and set(moduli) == {None}
            assert report == _rational_rank_json(f, 5, seed)


def _uncleared_rank_json(f, method, trials, seed):
    """rank(f, ...).to_json_dict() on the sparse Jacobians of f itself,
    with no clearing of denominators; a randomized Jacobian with an entry
    whose denominator PRIME divides is ranked by the rational reference."""
    def rank_of(v, s):
        cm = coefficient_map(f, v)
        jac = jacobian(cm)
        if method == "randomized" and any(c.denominator % PRIME == 0 for row in jac.entries
                                          for p in row for c in p.terms.values()):
            r, w = _rational_randomized_rank(jac, trials, s)
        else:
            r, w = _dense_rank_with_witness(jac, method, trials, s)
        return r, w._replace(rows=tuple(cm.exponents[i] for i in w.rows))

    return _report_json(f, method, trials, seed, rank_of)


def _rational_corpus():
    rng = random.Random(2612)
    polys = []
    for case in range(12):
        vars = var_set(3 + case % 2)
        f = CORPORA[sorted(CORPORA)[case % 3]](rng, vars)
        scale = Fraction(rng.choice([1, 2, -5, 7]), rng.choice([2, 3, 12, 35, PRIME + 1]))
        term = tuple(rng.randint(0, 3) for _ in vars.names)
        polys.append(f * scale + Polynomial(vars, {term: Fraction(1, rng.choice([4, 9, 10]))}))
    polys += [P("x1*x3 + x2*x3^2") + Polynomial(V3, {(1, 1, 2): Fraction(1, PRIME)}),
              P("1/2*x1^3*x2 + 2/7*x1*x3^2 + 5/3*x2^2*x3") + Polynomial(V3, {(2, 0, 1): Fraction(3, PRIME)})]
    return polys


@pytest.mark.parametrize("method", ["exact", "randomized"])
def test_cleared_rank_matches_uncleared_jacobians(method, monkeypatch):
    # rank clears every rational f to D*f, PRIME | D included; ranks and
    # witnesses must be those of the Jacobians of f itself
    integral_maps = []

    def spy(f, v):
        integral_maps.append(all(type(c) is int for c in f.terms.values()))
        return coefficient_map(f, v)

    monkeypatch.setattr(importlib.import_module("polyrank.rank"), "coefficient_map", spy)
    for case, f in enumerate(_rational_corpus()):
        assert any(type(c) is Fraction for c in f.terms.values())
        integral_maps.clear()
        assert rank(f, method=method, seed=case).to_json_dict() == _uncleared_rank_json(f, method, 5, case)
        assert integral_maps == [True] * f.vars.k


def test_randomized_trials_evaluate_modulo_prime(monkeypatch):
    moduli = eval_moduli(monkeypatch)
    rng = random.Random(2605)
    for case in range(12):
        vars = var_set(3 + case % 2)
        f = CORPORA[sorted(CORPORA)[case % 3]](rng, vars)
        rank(f, method="randomized", seed=case)
        _randomized_rank(jacobian(coefficient_map(f, "x1")), 3, case)
    assert moduli and set(moduli) == {PRIME}


def test_huge_exponent_rank_is_fast():
    f = parse("x1^100000000*x2", V2)
    doc = rank(f).to_json_dict()
    assert doc["per_variable"] == {"x1": 1, "x2": 1}
    assert doc["witness"] == {"var": "x1", "rows": [100000000], "cols": [0]}


# ------------------------------------------------------------ rank_in / rank

def test_rank_in_examples():
    assert rank_in(P("x1*x3 + x2*x3^2"), "x3", method="exact") == 2
    for v in V3.names:
        assert rank_in(P("x1+x2+x3"), v, method="exact") == 1
    assert rank_in(P("x1*x2 + x3"), "x1", method="exact") == 2


def test_rank_power_family():
    # x1*xk + x2*xk^2 + ... + x_{k-1}*xk^{k-1} has rank k-1
    for k in (3, 4, 5):
        vars = var_set(k)
        xk = vars.names[-1]
        text = " + ".join(f"x{i}*{xk}^{i}" for i in range(1, k))
        rep = rank(parse(text, vars), method="exact")
        assert rep.overall == k - 1
        assert rep.per_variable[xk] == k - 1


def test_rank_product_is_one():
    rep = rank(P("x1*x2*x3"), method="exact")
    assert rep.overall == 1
    assert all(r == 1 for r in rep.per_variable.values())


def test_rank_triangular_coefficients():
    # x1*x3 + (x1+x2^2)*x3^2: upper-triangular Jacobian with respect to x3
    rep = rank(P("x1*x3 + (x1+x2^2)*x3^2"), method="exact")
    assert rep.overall == 2


def test_rank_report_shape_and_json():
    f = P("x1*x3 + x2*x3^2")
    rep = rank(f, method="randomized", trials=5, seed=3)
    assert rep.overall == max(rep.per_variable.values())
    doc = rep.to_json_dict()
    assert list(doc) == ["vars", "per_variable", "overall", "method", "trials", "seed", "witness"]
    assert doc["witness"]["rows"]
    # variables the polynomial does not involve still count as columns
    g = parse("x1*x2", V3)
    rep_g = rank(g, method="exact")
    assert rep_g.per_variable["x3"] >= 0


def test_rank_preconditions():
    with pytest.raises(ValueError):
        rank(P("0"))
    with pytest.raises(ValueError):
        rank(parse("x1^2 + 1", VarSet(("x1",))))


# ------------------------------------------------------------ invariants

def test_rank_bounds_random():
    rng = random.Random(7)
    for _ in range(25):
        f = sparse_random_polynomial(rng, V4, max_deg=2, max_terms=5)
        if f.is_zero:
            continue
        rep = rank(f, method="exact")
        for v, r in rep.per_variable.items():
            assert 0 <= r <= V4.k - 1


def test_rank_permutation_invariance():
    rng = random.Random(11)
    for case in range(12):
        f = dense_random_polynomial(rng, V3, max_deg=2)
        perm = list(range(3))
        rng.shuffle(perm)
        g = permute_polynomial(f, perm)
        rep_f = rank(f, method="exact")
        rep_g = rank(g, method="exact")
        assert rep_f.overall == rep_g.overall
        for i, v in enumerate(V3.names):
            assert rep_f.per_variable[v] == rep_g.per_variable[V3.names[perm[i]]]


def test_rank_scaling_invariance():
    rng = random.Random(13)
    for _ in range(10):
        f = sparse_random_polynomial(rng, V3, max_deg=2, max_terms=4)
        if f.is_zero:
            continue
        scales = [rng.choice([1, 2, 3, -1, -2]) for _ in range(3)]
        g = Polynomial(
            V3,
            {
                m: c * Fraction(scales[0]) ** m[0] * Fraction(scales[1]) ** m[1] * Fraction(scales[2]) ** m[2]
                for m, c in f.terms.items()
            },
        )
        assert rank(f, method="exact").overall == rank(g, method="exact").overall


def test_rank_constant_multiple_invariance():
    f = P("x1*x3 + x2*x3^2")
    for c in (2, -3, Fraction(5, 7)):
        assert rank_in(c * f, "x3", method="exact") == rank_in(f, "x3", method="exact")
