"""Brute-force instantiation of the point-curve incidence apparatus.

For a polynomial f with designated first (pivot) variable and full rank
k-1 with respect to it, the grid tuples split according to a certifying
(k-1) x (k-1) Jacobian minor of the coefficient map: the surface set S of
all (a_1, ..., a_k, f(a)) has |S| = prod |A_i|, the tuples whose suffix
(a_2, ..., a_k) kills the minor determinant form S_0, and the rest is S'.
Every surviving suffix defines a plane curve y = sum_i alpha_i(suffix) x^i
through its grid points; curves are deduplicated by exact equality of
their coefficient vectors, and the multiplicity of a curve is the number
of surviving suffixes producing it.  Incidences between P = A_1 x B
(B the image of f on the grid) and the curve family are counted
exhaustively with exact arithmetic.

The counts are then compared against the classical point-line incidence
bound m^(2/3) n^(2/3) + m + n and the refined bound for an s-dimensional
curve family, m^(2s/(5s-4)) n^((5s-6)/(5s-4)+eps) plus the classical term.
Both comparisons use constant 1 and are informational only: the true
constants are not specified, so no pass/fail is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expansion import DEFAULT_BUDGET, BudgetExceededError, image_values
from .poly import Polynomial, Scalar
from .rank import coefficient_map, generic_rank_exact, jacobian

CoeffVector = tuple[Scalar, ...]


@dataclass(frozen=True)
class IncidenceInstance:
    f: Polynomial
    set_sizes: tuple[int, ...]
    image_size: int
    witness_rows: tuple[int, ...]
    s_size: int
    s0_size: int
    sprime_size: int
    curves: tuple[CoeffVector, ...]
    multiplicities: tuple[int, ...]
    points_size: int
    incidence_count: int
    max_multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "S": self.s_size,
            "S0": self.s0_size,
            "Sprime": self.sprime_size,
            "points": self.points_size,
            "curves": len(self.curves),
            "incidences": self.incidence_count,
            "max_multiplicity": self.max_multiplicity,
        }


def build_instance(
    f: Polynomial,
    sets: Sequence[Sequence[Scalar]],
    minor_rows: Sequence[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> IncidenceInstance:
    """Build the full S / S_0 / S' decomposition and count incidences.

    ``minor_rows``: pivot exponents i of k-1 coefficients alpha_i whose
    Jacobian minor certifies rank k-1 (the labels rank reports for witness
    rows); found by the exact rank engine when omitted.  An exponent whose
    alpha_i is zero selects a singular minor.
    """
    vars = f.vars
    k = vars.k
    if len(sets) != k:
        raise ValueError(f"need {k} sets, got {len(sets)}")
    pivot = vars.names[0]
    cm = coefficient_map(f, pivot)
    jac = jacobian(cm)
    if minor_rows is None:
        r, witness = generic_rank_exact(jac)
        if r != k - 1:
            raise ValueError(f"rank with respect to {pivot} is {r}, need full rank {k - 1}")
        minor_rows = tuple(cm.exponents[i] for i in witness.rows)
    minor_rows = tuple(sorted(minor_rows))
    if len(minor_rows) != k - 1:
        raise ValueError(f"witness must select {k - 1} coefficient rows")
    row_of = {e: i for i, e in enumerate(cm.exponents)}
    minor_det = Polynomial.zero(vars)  # an exponent with alpha_i = 0 is a zero row
    if all(e in row_of for e in minor_rows):
        minor_det = jac.submatrix([row_of[e] for e in minor_rows], range(k - 1)).determinant()
    if minor_det.is_zero:
        raise ValueError("the selected minor is singular; pick independent coefficient rows")

    suffix_sets = [list(s) for s in sets[1:]]
    suffix_count = 1
    for s in suffix_sets:
        suffix_count *= len(s)
    a1 = list(sets[0])
    s_size = suffix_count * len(a1)
    if s_size > budget:
        raise BudgetExceededError(f"grid has {s_size} tuples, over the budget of {budget}")

    image = image_values(f, sets, budget=budget)

    # Classify suffixes by the minor determinant and collect curves.
    from itertools import product as iter_product

    non_pivot = [name for name in vars.names if name != pivot]
    degenerate_suffixes = 0
    curve_mult: dict[CoeffVector, int] = {}
    dense_zero = [0] * (cm.degree + 1)
    for suffix in iter_product(*suffix_sets):
        bindings = dict(zip(non_pivot, suffix))
        point = [bindings.get(name, 0) for name in vars.names]
        if minor_det.eval(point) == 0:
            degenerate_suffixes += 1
            continue
        # Scatter into the dense coefficient vector that identifies the curve.
        dense = dense_zero[:]
        for e, alpha in zip(cm.exponents, cm.alphas):
            dense[e] = alpha.eval(point)
        coeffs = tuple(dense)
        curve_mult[coeffs] = curve_mult.get(coeffs, 0) + 1

    s0_size = degenerate_suffixes * len(a1)
    sprime_size = (suffix_count - degenerate_suffixes) * len(a1)
    curves = tuple(sorted(curve_mult))
    multiplicities = tuple(curve_mult[c] for c in curves)

    # Exhaustive incidence count between P = A_1 x B and the curves.  Points
    # sharing an x coordinate are tested together: the curve value at x is
    # computed once and membership in {y : (x, y) in P} = B is a hash lookup,
    # which is exactly the |P| * |C| pairwise test, grouped.  A curve is
    # evaluated on its nonzero coefficients only, all at exponents of the map.
    incidence_count = 0
    for coeffs in curves:
        nonzero = [(e, coeffs[e]) for e in cm.exponents if coeffs[e]]
        for x in a1:
            y = 0
            for e, c in nonzero:
                y += c * x**e
            if y in image:
                incidence_count += 1

    return IncidenceInstance(
        f=f,
        set_sizes=tuple(len(s) for s in sets),
        image_size=len(image),
        witness_rows=minor_rows,
        s_size=s_size,
        s0_size=s0_size,
        sprime_size=sprime_size,
        curves=curves,
        multiplicities=multiplicities,
        points_size=len(a1) * len(image),
        incidence_count=incidence_count,
        max_multiplicity=max(multiplicities, default=0),
    )


def verify_counts(inst: IncidenceInstance, multiplicity_cap: int | None = None) -> dict:
    """Check the counting identities tying S' to the incidence count.

    Every S' tuple lands on a curve through a point of P, and a single
    (point, curve) incidence absorbs at most max-multiplicity tuples, so

        incidences <= |S'| <= max_multiplicity * incidences.

    The multiplicity itself is capped by a Bezout-style constant,
    deg(f)^k by default.
    """
    if multiplicity_cap is None:
        degree = inst.f.total_degree()
        multiplicity_cap = max(1, int(degree)) ** inst.f.vars.k if isinstance(degree, int) else 1
    ok_split = inst.s_size == inst.s0_size + inst.sprime_size
    ok_lower = inst.incidence_count <= inst.sprime_size
    ok_upper = inst.sprime_size <= inst.max_multiplicity * inst.incidence_count or inst.sprime_size == 0
    ok_cap = inst.max_multiplicity <= multiplicity_cap
    return {
        "S": inst.s_size,
        "S0": inst.s0_size,
        "Sprime": inst.sprime_size,
        "incidences": inst.incidence_count,
        "max_multiplicity": inst.max_multiplicity,
        "multiplicity_cap": multiplicity_cap,
        "split_ok": ok_split,
        "lower_ok": ok_lower,
        "upper_ok": ok_upper,
        "cap_ok": ok_cap,
        "all_ok": ok_split and ok_lower and ok_upper and ok_cap,
    }


def bound_ratios(inst: IncidenceInstance, eps: float = 0.1) -> dict:
    """Evaluate the incidence-bound formulas at this instance's parameters.

    Uses constant of proportionality 1 and family dimension s = k - 1;
    ratios above/below 1 carry no pass/fail meaning because the bounds'
    true constants are unspecified.
    """
    m = inst.points_size
    n = len(inst.curves)
    s = inst.f.vars.k - 1
    st_bound = m ** (2 / 3) * n ** (2 / 3) + m + n
    if s >= 2:
        family_term = m ** (2 * s / (5 * s - 4)) * n ** ((5 * s - 6) / (5 * s - 4) + eps)
    else:
        family_term = float(m * n)  # s = 1 degenerates; fall back to the trivial bound
    sz_bound = family_term + st_bound
    return {
        "points": m,
        "curves": n,
        "incidences": inst.incidence_count,
        "family_dimension": s,
        "eps": eps,
        "st_bound": st_bound,
        "sz_bound": sz_bound,
        "st_ratio": (inst.incidence_count / st_bound) if st_bound else 0.0,
        "sz_ratio": (inst.incidence_count / sz_bound) if sz_bound else 0.0,
    }


def full_report(inst: IncidenceInstance, eps: float = 0.1) -> dict:
    """Instance counts, identity checks, and bound ratios in one document."""
    report = inst.to_json_dict()
    checks = verify_counts(inst)
    ratios = bound_ratios(inst, eps=eps)
    report["checks"] = {key: checks[key] for key in ("split_ok", "lower_ok", "upper_ok", "cap_ok", "all_ok")}
    report["multiplicity_cap"] = checks["multiplicity_cap"]
    report["st_ratio"] = ratios["st_ratio"]
    report["sz_ratio"] = ratios["sz_ratio"]
    return report
