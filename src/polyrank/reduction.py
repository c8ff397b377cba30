"""Rank-preserving variable reduction.

If f has rank r < k-1 with respect to a pivot variable, then r of the
remaining variables can be kept and the other k-r-1 fixed to constants so
that the restricted (r+1)-variate polynomial still has rank r with respect
to the pivot.  The assignments that break this lie on a proper subvariety,
so a random (or grid-sampled) assignment works with overwhelming
probability.  Rather than expanding the defining polynomial of that bad
set (a sum of squared r x r minors, with exponentially many of them), each
candidate assignment is verified directly by recomputing the exact rank of
the restriction; the first certified assignment wins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Mapping, Sequence

from .poly import Polynomial, Scalar, _as_scalar, _decimal, project
from .rank import _rank_in_with_witness, rank_in, sample_point

DEFAULT_MAX_ATTEMPTS = 64


class ReductionError(RuntimeError):
    """No certified assignment found within the attempt budget."""


@dataclass(frozen=True)
class ReductionResult:
    pivot_var: str
    kept_vars: tuple[str, ...]
    fixed_assignment: dict[str, Scalar]
    restricted: Polynomial
    certified_rank: int
    attempts: int

    def to_json_dict(self) -> dict:
        return {
            "pivot": self.pivot_var,
            "kept": list(self.kept_vars),
            "fixed": {v: _rational_json(c) for v, c in sorted(self.fixed_assignment.items())},
            "restricted": str(self.restricted),
            "certified_rank": self.certified_rank,
            "attempts": self.attempts,
        }


def _rational_json(value: Scalar) -> int | str:
    """An int stays a JSON number; a Fraction, never integral, becomes the
    string "p/q", its digits written by :func:`_decimal` at any length."""
    return value if isinstance(value, int) else f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _prepare(f: Polynomial, v: str) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """Compute r = rank_in(f, v) exactly, the kept variables (the columns of
    its pivot minor) and the fixed ones."""
    k = f.vars.k
    r, witness, *_ = _rank_in_with_witness(f, v, "exact", 0, 0)
    if r > k - 2:
        raise ValueError(f"rank_in(f, {v}) = {r} admits no reduction (need rank <= k-2 = {k - 2})")
    non_pivot = [name for name in f.vars.names if name != v]
    kept_names = {non_pivot[c] for c in witness.cols}
    kept = tuple(name for name in f.vars.names if name in kept_names)
    fixed = tuple(name for name in non_pivot if name not in kept_names)
    return r, kept, fixed


def _certify(f: Polynomial, v: str, kept: tuple[str, ...], assignment: Mapping[str, Scalar], r: int) -> Polynomial | None:
    """Restrict f by the assignment and return the restriction iff its
    exact rank with respect to v is still r."""
    restricted_names = tuple(name for name in f.vars.names if name == v or name in kept)
    restricted = project(f.substitute(assignment), restricted_names)
    if r == 0:
        # Rank 0 means every coefficient is constant in the other variables;
        # any assignment keeps the polynomial (hence the rank) intact.
        return restricted if not restricted.is_zero else None
    if rank_in(restricted, v, method="exact") == r:
        return restricted
    return None


def _first_certified(
    f: Polynomial, v: str, kept: tuple[str, ...], fixed: tuple[str, ...], r: int,
    candidates: Iterable[Sequence[Scalar]], failure: str,
) -> ReductionResult:
    """The first candidate values of the fixed variables that certify, or
    ReductionError with the message ``failure``."""
    for attempt, values in enumerate(candidates, start=1):
        assignment = dict(zip(fixed, values))
        restricted = _certify(f, v, kept, assignment, r)
        if restricted is not None:
            return ReductionResult(v, kept, assignment, restricted, r, attempt)
    raise ReductionError(failure)


def reduce(
    f: Polynomial,
    v: str,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ReductionResult:
    """Fix all but r non-pivot variables at random integers so that the
    restriction keeps rank r with respect to ``v``.

    Values are drawn from [-B, B] with B = 2^16 * (deg f + 1); attempts are
    independently seeded, and the first one whose restriction certifies
    (by an exact rank computation) is returned.
    """
    r, kept, fixed = _prepare(f, v)
    degree = 0 if f.is_zero else int(f.total_degree())
    candidates = (sample_point(seed, attempt, len(fixed), degree) for attempt in range(1, max_attempts + 1))
    return _first_certified(f, v, kept, fixed, r, candidates, (
        f"no assignment certified rank {r} within {max_attempts} attempts; "
        "either exceptional bad luck or a violated precondition"))


def grid_reduce(
    f: Polynomial,
    v: str,
    sets: Sequence[Sequence[Scalar]],
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ReductionResult:
    """Like :func:`reduce`, but fixed values are drawn from the given finite
    sets (one per variable, aligned with the variable order of f).

    The restricted image over the kept sets is then contained in the image
    of f over the full grid, since the fixed coordinates take grid values.
    """
    if len(sets) != f.vars.k:
        raise ValueError(f"need {f.vars.k} sets, got {len(sets)}")
    for name, s in zip(f.vars.names, sets):
        if not s:
            raise ValueError(f"empty set for variable {name}")
    r, kept, fixed = _prepare(f, v)
    pools = {name: list(s) for name, s in zip(f.vars.names, sets)}
    fixed_pools = [pools[name] for name in fixed]
    grid_size = math.prod(map(len, fixed_pools))
    rng = random.Random(seed)
    candidates: list[tuple[Scalar, ...]]
    if grid_size <= max_attempts:
        candidates = list(iter_product(*fixed_pools))
        rng.shuffle(candidates)
    else:
        candidates = [tuple(rng.choice(pool) for pool in fixed_pools) for _ in range(max_attempts)]
    scalars = ([_as_scalar(Fraction(value)) for value in values] for values in candidates[:max_attempts])
    return _first_certified(f, v, kept, fixed, r, scalars,
                            f"no grid point certified rank {r} within {min(grid_size, max_attempts)} attempts")
