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
(B the image of f on the grid, counted by
:func:`polyrank.expansion.image_size`) and the curve family follow from
the construction, not from a test of each pair: the curve of a suffix s is
the graph of x -> f(x, s), whose values over A_1 all lie in B, so every
curve meets P in exactly |A_1| points.

The counts are then compared against the classical point-line incidence
bound m^(2/3) n^(2/3) + m + n and the refined bound for an s-dimensional
curve family, m^(2s/(5s-4)) n^((5s-6)/(5s-4)+eps) plus the classical term.
Both comparisons use constant 1 and are informational only: the true
constants are not specified, so no pass/fail is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Sequence

from .expansion import DEFAULT_BUDGET, image_size
from .poly import Polynomial, Scalar, _as_scalar, _over
from .rank import _rank_in_with_witness

CoeffVector = tuple[Scalar, ...]


@dataclass(frozen=True)
class IncidenceInstance:
    f: Polynomial
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
    budget: int = DEFAULT_BUDGET,
) -> IncidenceInstance:
    """Build the full S / S_0 / S' decomposition and count incidences.

    The certifying minor is the pivot minor of exact ``rank_in`` in the
    first variable, nonzero by construction; its rows are reported by the
    pivot exponents i of their alphas (the labels rank reports for witness
    rows).  So the Jacobian is that of the cleared multiple D*f: scaling
    by D scales each minor by D^(k-1), so the witness and the suffixes
    that kill it are those of f, while the partials see integers.  The
    curves are read off that map and divided by D > 0 once each, which
    keeps them distinct and in order.
    """
    vars = f.vars
    k = vars.k
    if len(sets) != k:
        raise ValueError(f"need {k} sets, got {len(sets)}")
    pivot = vars.names[0]
    r, witness, jac, cm, scale = _rank_in_with_witness(f, pivot, "exact", 0, 0)
    if r != k - 1:
        raise ValueError(f"rank with respect to {pivot} is {r}, need full rank {k - 1}")
    minor_det = jac.submatrix([cm.exponents.index(e) for e in witness.rows], range(k - 1)).determinant()

    a1_size = len(sets[0])
    suffix_count = math.prod(len(s) for s in sets[1:])
    image_count = image_size(f, sets, budget=budget)  # |B|

    # Classify suffixes by the minor determinant and collect curves.
    degenerate_suffixes = 0
    curve_mult: dict[CoeffVector, int] = {}
    dense_zero = [0] * (cm.degree + 1)
    for suffix in iter_product(*sets[1:]):
        point = [0, *suffix]  # the pivot is the first variable
        if minor_det.eval(point) == 0:
            degenerate_suffixes += 1
            continue
        # Scatter into the dense coefficient vector that identifies the curve.
        dense = dense_zero[:]
        for e, alpha in zip(cm.exponents, cm.alphas):
            dense[e] = _as_scalar(alpha.eval(point))
        coeffs = tuple(dense)
        curve_mult[coeffs] = curve_mult.get(coeffs, 0) + 1

    if scale != 1:
        curve_mult = {tuple(_over(c, scale) for c in curve): n for curve, n in curve_mult.items()}
    curves = tuple(sorted(curve_mult))
    multiplicities = tuple(curve_mult[c] for c in curves)
    # The curve of a suffix s is the graph of x -> f(x, s), and f(x, s) is in
    # B for every x in A_1, so each curve meets P = A_1 x B in exactly |A_1|
    # points: an identity of this construction, not an incidence algorithm.
    incidence_count = a1_size * len(curves)

    return IncidenceInstance(
        f=f,
        image_size=image_count,
        witness_rows=witness.rows,
        s_size=suffix_count * a1_size,
        s0_size=degenerate_suffixes * a1_size,
        sprime_size=(suffix_count - degenerate_suffixes) * a1_size,
        curves=curves,
        multiplicities=multiplicities,
        points_size=a1_size * image_count,
        incidence_count=incidence_count,
        max_multiplicity=max(multiplicities, default=0),
    )


def verify_counts(inst: IncidenceInstance) -> dict:
    """Check the counting identities tying S' to the incidence count.

    Every S' tuple lands on a curve through a point of P, and a single
    (point, curve) incidence absorbs at most max-multiplicity tuples, so

        incidences <= |S'| <= max_multiplicity * incidences.

    The multiplicity itself is capped by a Bezout-style constant, deg(f)^k.
    """
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
