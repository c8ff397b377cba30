"""Rank-preserving variable reduction and grid-based reduction."""

import random

import pytest

from polyrank import (
    PolyMatrix,
    ReductionError,
    coefficient_map,
    generic_rank_exact,
    grid_reduce,
    image_values,
    jacobian,
    parse,
    project,
    rank_in,
    reduce,
)
from gens import embed, var_set

V4 = var_set(4)
V5 = var_set(5)


def P(text, vars=V4):
    return parse(text, vars)


def matrix(rows, vars=V4):
    return PolyMatrix(vars, [[parse(e, vars) for e in row] for row in rows])


# ------------------------------------------------------------ column selection
# Reduction keeps the variables of the witness columns of the exact rank.

def test_select_columns_constant_matrix():
    m = matrix([["0", "0"], ["1", "0"], ["0", "1"]])
    assert generic_rank_exact(m)[1].cols == (0, 1)


def test_select_columns_first_pivot():
    m = matrix([["1", "1"], ["0", "0"]])
    assert generic_rank_exact(m)[1].cols == (0,)


def test_select_columns_skips_dependent():
    # f = x1*(x2+x3) + x1^2*x4 over (x1..x4), pivot x1:
    # nonzero alphas (x2+x3, x4) at exponents (1, 2); Jacobian rows
    # [1,1,0], [0,0,1]
    f = P("x1*(x2+x3) + x1^2*x4")
    jac = jacobian(coefficient_map(f, "x1"))
    r, witness = generic_rank_exact(jac)
    assert r == 2 and witness.cols in ((0, 2), (1, 2))
    # the 2x2 minor on the rows of the two nonzero alphas certifies the choice
    assert not jac.submatrix((0, 1), witness.cols).determinant().is_zero
    kept = tuple(("x2", "x3", "x4")[c] for c in witness.cols)
    assert reduce(f, "x1").kept_vars == kept


# ------------------------------------------------------------ reduce

def test_reduce_linear_plus_product():
    f = P("x1*x2 + x3 + x4")
    result = reduce(f, "x1", seed=0)
    assert result.kept_vars == ("x2", "x3")
    assert set(result.fixed_assignment) == {"x4"}
    assert result.certified_rank == 2
    assert result.restricted.vars.names == ("x1", "x2", "x3")
    assert rank_in(result.restricted, "x1", method="exact") == 2
    # restriction agrees with substitute on the original ambient set
    assert embed(result.restricted, V4) == f.substitute(result.fixed_assignment)


def test_reduce_rejects_full_rank():
    with pytest.raises(ValueError, match="no reduction"):
        reduce(parse("x1*x2 + x3", var_set(3)), "x1")


def test_reduce_power_family_keeps_spanning_variables():
    f = parse("x1*x5 + x2*x5^2 + (x3+x4)*x5^3", V5)
    result = reduce(f, "x5", seed=1)
    assert result.certified_rank == 3
    assert set(result.kept_vars) >= {"x1", "x2"}
    assert len(set(result.kept_vars) & {"x3", "x4"}) == 1
    assert rank_in(result.restricted, "x5", method="exact") == 3


def test_reduce_is_deterministic():
    f = P("x1*x2 + x3 + x4")
    a = reduce(f, "x1", seed=9)
    b = reduce(f, "x1", seed=9)
    assert a == b


def test_reduce_rank_zero_polynomial():
    # every coefficient of x1 is constant: rank 0, nothing to keep
    f = P("x1 + x1^2 + 5")
    result = reduce(f, "x1", seed=0)
    assert result.certified_rank == 0
    assert result.kept_vars == ()
    assert set(result.fixed_assignment) == {"x2", "x3", "x4"}
    assert result.restricted.vars.names == ("x1",)
    assert result.restricted == parse("x1 + x1^2 + 5", result.restricted.vars)


# ------------------------------------------------------------ grid_reduce

def test_grid_reduce_interval_sets():
    f = P("x1*x2 + x3 + x4")
    sets = [list(range(1, 11))] * 4
    result = grid_reduce(f, "x1", sets, seed=2)
    assert result.certified_rank == 2
    value = result.fixed_assignment["x4"]
    assert 1 <= value <= 10


def test_grid_reduce_product_pairs():
    f = P("x1*x2 + x3*x4")
    result = grid_reduce(f, "x1", [list(range(1, 11))] * 4, seed=3)
    assert result.certified_rank == 2
    assert rank_in(result.restricted, "x1", method="exact") == 2


def test_grid_reduce_degenerate_singleton_errors():
    # fixing x4 = 0 collapses x1*x2 + x3*x4 to rank 1
    f = P("x1*x2 + x3*x4")
    with pytest.raises(ReductionError):
        grid_reduce(f, "x1", [[1, 2], [1, 2], [1, 2], [0]], seed=0)


def test_grid_reduce_draws_from_a_large_grid():
    # rank 1 in x1 keeps one of x2..x5 and fixes the other three; their
    # grid of 12^3 values exceeds the attempt budget, so values are drawn
    f = P("x1*x2*(x3 - x4*x5) + x1^2*x2^2*(x3 - x4*x5)^2", V5)
    sets = [[i + 5 * j for j in range(12)] for i in range(5)]
    result = grid_reduce(f, "x1", sets, seed=4, max_attempts=20)
    assert len(result.fixed_assignment) == 3
    assert result.certified_rank == 1
    assert rank_in(result.restricted, "x1", method="exact") == 1
    for name, value in result.fixed_assignment.items():
        assert value in sets[f.vars.index(name)]
    assert 1 <= result.attempts <= 20
    assert grid_reduce(f, "x1", sets, seed=4, max_attempts=20) == result


def test_grid_reduce_validates_sets():
    f = P("x1*x2 + x3 + x4")
    with pytest.raises(ValueError, match="empty"):
        grid_reduce(f, "x1", [[1], [1], [], [1]])
    with pytest.raises(ValueError, match="need 4 sets"):
        grid_reduce(f, "x1", [[1], [1]])


# ------------------------------------------------------------ invariants

def test_restricted_image_contained_in_full_image():
    rng = random.Random(44)
    f = P("x1*x2 + x3 + x4")
    sets = [sorted(rng.sample(range(-6, 7), 4)) for _ in range(4)]
    result = grid_reduce(f, "x1", sets, seed=5)
    kept_order = result.restricted.vars.names
    pools = dict(zip(V4.names, sets))
    restricted_sets = [pools[name] for name in kept_order]
    small = image_values(result.restricted, restricted_sets)
    big = image_values(f, sets)
    assert small <= big


def test_reduction_failure_rate_is_tiny():
    rng = random.Random(321)
    total_attempts = 0
    failures = 0
    for case in range(40):
        # embed a rank-2 pattern in k=4: alpha_1 = x_a, alpha_2 = x_b
        a, b = rng.sample([2, 3, 4], 2)
        f = P(f"x1*x{a} + x1^2*x{b}")
        result = reduce(f, "x1", seed=case)
        total_attempts += result.attempts
        failures += result.attempts - 1
    assert failures <= max(1, total_attempts // 1000)
