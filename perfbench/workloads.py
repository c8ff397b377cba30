"""The four benchmark workloads: corpus, operation, canonical output, oracle.

Each corpus repeats a fixed cycle of op slots.  A slot fixes the shape of
its input (degrees, grid kind, subcommand); the seed draws coefficients and
values, and sizes are stratified across cycles (``corpus.stratified``).
Cycles interleave cheap and costly slots, so any prefix of the corpus,
which is what a time-bounded run completes, has nearly the full mix, and
the run totals barely depend on the seed.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import corpus


@dataclass(frozen=True)
class Op:
    label: str  # slot kind, for per-kind diagnostics
    args: tuple  # exactly what is handed to polyrank
    expect: object  # what the oracle knows from construction


def _json(document) -> str:
    return json.dumps(document, sort_keys=True)


class Workload:
    name = ""
    #: Ops replayed untraced and then traced by ``--trace 1`` (fixed work,
    #: so span counts are comparable between commits).
    trace_ops = 0
    #: Spans the table of predictions says this workload exercises, and
    #: spans it says this workload never reaches.
    must_call: tuple[str, ...] = ()
    must_not_call: tuple[str, ...] = ()
    #: Labels whose first op runs once, untimed, during set-up.
    warmup_labels: tuple[str, ...] = ()

    def build(self, api, seed: int) -> list[Op]:
        raise NotImplementedError

    def run(self, api, op: Op):
        """The timed call into polyrank."""
        raise NotImplementedError

    def canon(self, result) -> str:
        """Deterministic text of a result (outside the timed region)."""
        raise NotImplementedError

    def check(self, op: Op, text: str) -> bool:
        """Oracle: is the canonical output correct for this input?"""
        raise NotImplementedError


# Spans that only the capability or front-end layers reach.
_SPECIAL = ("special.is_special", "special.ratio_separated", "special.ratio_independent_of")
_REDUCTION = ("reduction.reduce", "reduction.grid_reduce")
_CLI_ONLY = ("incidence.build_instance", "moment.moment_summary", "moment.distinct_volumes",
             "rank.determinant", "parsing.parse", "cli.main")


class RankDense(Workload):
    """Dense k=3/4 polynomials, exponents <= 2, coefficients in [-3, 3];
    each op is rank(f, "exact") and rank(f, "randomized")."""

    name = "rank_dense"
    trace_ops = 40
    # One k=3 op per three k=4 ops: the k=4 ops (about 50x dearer) hold
    # both the median and the 90th percentile, away from the class border.
    cycle = (3, 4, 4, 4)
    cycles = 26
    must_call = ("poly.mul", "poly.exact_div", "poly.eval", "poly.partial",
                 "rank.coefficient_map", "rank.jacobian", "rank.generic_rank_exact",
                 "rank.rank.exact", "rank.rank.randomized")
    must_not_call = _SPECIAL + _REDUCTION + _CLI_ONLY + ("expansion.image_values",)
    warmup_labels = ("k3",)

    def build(self, api, seed):
        rng = random.Random(seed)
        ops = []
        for _ in range(self.cycles):
            for k in self.cycle:
                f = corpus.dense_polynomial(api, rng, corpus.var_set(api, k))
                ops.append(Op(f"k{k}", (f, rng.randrange(1 << 16)), None))
        return ops

    def run(self, api, op):
        f, seed = op.args
        return api.rank(f, "exact"), api.rank(f, "randomized", seed=seed)

    def canon(self, result):
        exact, randomized = result
        return _json([exact.to_json_dict(), randomized.to_json_dict()])

    def check(self, op, text):
        exact, randomized = json.loads(text)
        return (exact["per_variable"] == randomized["per_variable"]
                and exact["overall"] == randomized["overall"])


class SpecialForms(Workload):
    """k=3; half special (additive and multiplicative, degrees up to 3),
    half perturbed special; each op is is_special(f) with exact identities."""

    name = "special_forms"
    trace_ops = 48
    # (multiplicative, degree of h, degrees of p_1..p_3) per slot; the
    # largest shapes of the test recipe (seconds per op) are left out so
    # each op runs about ten times in a run.  Sorted by cost, the middle and the
    # top two slots are close, so neither percentile sits on a gap.
    special_slots = ((False, 3, (1, 2, 2)), (True, 2, (1, 1, 2)), (False, 2, (2, 2, 3)),
                     (True, 3, (1, 1, 1)), (False, 3, (1, 1, 2)))
    perturbed_slots = ((False, 2, (1, 2, 2)), (True, 2, (1, 1, 2)), (False, 2, (3, 3, 3)),
                       (True, 3, (1, 1, 1)), (True, 1, (2, 2, 2)))
    cycles = 10
    must_call = ("poly.mul", "poly.partial", "poly.eval", "special.is_special",
                 "special.ratio_separated", "special.ratio_independent_of",
                 "rank.rank.randomized")
    must_not_call = (("poly.exact_div", "rank.rank.exact", "rank.generic_rank_exact")
                     + _REDUCTION + _CLI_ONLY + ("expansion.image_values",))
    warmup_labels = ("perturbed",)

    def build(self, api, seed):
        rng = random.Random(seed)
        vars = corpus.var_set(api, 3)
        ops = []
        for _ in range(self.cycles):
            for shape, perturbed_shape in zip(self.special_slots, self.perturbed_slots):
                f = corpus.special(api, rng, vars, *shape)
                ops.append(Op("special", (f, rng.randrange(1 << 16)), "special"))
                op_seed = rng.randrange(1 << 16)
                g = corpus.perturbed_special(api, rng, vars, *perturbed_shape, seed=op_seed)
                ops.append(Op("perturbed", (g, op_seed), "not_special"))
        return ops

    def run(self, api, op):
        f, seed = op.args
        return api.is_special(f, seed=seed)

    def canon(self, result):
        return _json(result.to_json_dict())

    def check(self, op, text):
        return json.loads(text)["verdict"] == op.expect


def _image_xy_z(a, b, c):
    products = {x * y for x in a for y in b}
    return {p + z for p in products for z in c}


def _image_xz_yz2(a, b, c):
    return {z * (x + y * z) for z in c for y in b for x in a}


def _image_xy_z_w(a, b, c, d):
    products = {x * y for x in a for y in b}
    sums = {z + w for z in c for w in d}
    return {p + s for p in products for s in sums}


class ImageSweep(Workload):
    """image_size(..., workers=1) over integer grids of 1e5-1.4e5 tuples and
    rational (explicit) grids of 6.5e3-8e3 tuples, one op in four."""

    name = "image_sweep"
    trace_ops = 24
    # (text, k, independent oracle built from plain Python arithmetic)
    polys = (("x1*x2 + x3", 3, _image_xy_z),
             ("x1*x3 + x2*x3^2", 3, _image_xz_yz2),
             ("x1*x2 + x3 + x4", 4, _image_xy_z_w))
    slots = ((0, "random_int"), (1, "geometric"), (2, "interval"), (0, "explicit"),
             (1, "random_int"), (2, "geometric"), (0, "interval"), (1, "explicit"),
             (2, "random_int"), (0, "geometric"), (1, "interval"), (2, "explicit"))
    cycles = 9
    tuples = (100_000, 140_000)
    rational_n = {3: 20, 4: 9}
    must_call = ("expansion.image_values",)
    must_not_call = (("poly.mul", "poly.exact_div", "poly.eval", "poly.partial",
                      "poly.substitute", "rank.coefficient_map", "rank.jacobian",
                      "rank.generic_rank_exact", "rank.rank.exact", "rank.rank.randomized")
                     + _SPECIAL + _REDUCTION + _CLI_ONLY)
    warmup_labels = ("interval",)

    def build(self, api, seed):
        rng = random.Random(seed)
        fs = [api.parse(text, corpus.var_set(api, k)) for text, k, _ in self.polys]
        integer_slots = [slot for slot in self.slots if slot[1] != "explicit"]
        sizes = {slot: corpus.stratified(rng, *self.tuples, self.cycles) for slot in integer_slots}
        ops = []
        for cycle in range(self.cycles):
            for position, (p, kind) in enumerate(self.slots):
                k = self.polys[p][1]
                if kind == "explicit":
                    sets = [corpus.rational_set(rng, self.rational_n[k]) for _ in range(k)]
                else:
                    total = sizes[(p, kind)][(cycle + position) % self.cycles]
                    n = round(total ** (1 / k))
                    sets = [self._integer_set(rng, kind, n) for _ in range(k)]
                ops.append(Op(kind, (fs[p], sets), p))
        return ops

    @staticmethod
    def _integer_set(rng, kind, n):
        if kind == "interval":
            return tuple(range(1, n + 1))
        if kind == "geometric":
            return tuple(1 << i for i in range(n))
        return tuple(sorted(rng.sample(range(n ** 3 + 1), n)))

    def run(self, api, op):
        f, sets = op.args
        return api.image_size(f, sets, workers=1)

    def canon(self, result):
        return str(result)

    def check(self, op, text):
        _, sets = op.args
        return int(text) == len(self.polys[op.expect][2](*sets))


class CliMix(Workload):
    """In-process polyrank.cli.main(argv) calls with captured stdout."""

    name = "cli_mix"
    trace_ops = 40
    # Light slots (reduce, incidence, expand, moment --n) are 3/4 of the
    # ops and hold the median; high-degree rank and moment --summary are
    # the rest and hold the 90th percentile.
    cycle = ("reduce", "rank_hi", "incidence", "reduce_sets", "expand",
             "reduce", "moment_n", "rank_hi", "incidence", "reduce_sets",
             "expand", "moment_summary", "reduce", "incidence", "rank_hi",
             "reduce_sets", "moment_n", "expand", "incidence", "rank_hi")
    cycles = 5
    pivot_degrees = (2_000, 14_000)
    expand_polys = (("x1*x2 + x3", 2), ("x1*x3 + x2*x3^2", 2), ("x1 + x2 + x3", 1))
    set_kinds = ("interval", "geometric", "random_int")
    must_call = ("cli.main", "parsing.parse", "reduction.reduce", "reduction.grid_reduce",
                 "incidence.build_instance", "moment.moment_summary", "moment.distinct_volumes",
                 "rank.determinant", "expansion.image_values", "rank.coefficient_map",
                 "rank.jacobian", "rank.generic_rank_exact", "rank.rank.randomized",
                 "poly.mul", "poly.eval", "poly.partial", "poly.substitute")
    must_not_call = _SPECIAL
    warmup_labels = ("reduce", "incidence")

    def build(self, api, seed):
        rng = random.Random(seed)
        vars3, vars5 = corpus.var_set(api, 3), corpus.var_set(api, 5)
        per_cycle = self.cycle.count("rank_hi")
        degrees = corpus.stratified(rng, *self.pivot_degrees, per_cycle * self.cycles)
        seen: dict[str, int] = {}
        ops = []
        # "--poly=TEXT": a polynomial may start with "-", which argparse
        # would read as an option
        for cycle in range(self.cycles):
            for label in self.cycle:
                i = seen[label] = seen.get(label, -1) + 1
                s = str(rng.randrange(1000))
                if label in ("reduce", "reduce_sets"):
                    r = 1 + i % 3
                    f = corpus.embedded_rank_poly(api, rng, vars5, r, i // 3)
                    argv = ["reduce", f"--poly={f}", "--vars", ",".join(vars5.names),
                            "--pivot", "x1", "--seed", s]
                    if label == "reduce_sets":
                        argv += ["--sets", "random_int:12"]
                    ops.append(Op(label, tuple(argv), r))
                elif label == "incidence":
                    f = self._incidence_poly(api, rng, vars3, i // 4)
                    argv = ["incidence", f"--poly={f}", "--vars", "x1,x2,x3",
                            "--sets", f"interval:{3 + i % 4}"]
                    ops.append(Op(label, tuple(argv), None))
                elif label == "expand":
                    text, r = self.expand_polys[i % len(self.expand_polys)]
                    start = 3 + i % 3
                    argv = ["expand", f"--poly={text}", "--vars", "x1,x2,x3",
                            "--n", f"{start},{start + 2},{start + 4}",
                            "--sets", self.set_kinds[cycle % 3], "--seed", s, "--workers", "1"]
                    ops.append(Op(label, tuple(argv), r))
                elif label == "moment_n":
                    d, n_list = ((2, (8, 12, 16)), (3, (6, 8, 10)))[i % 2]
                    argv = ["moment", "--d", str(d), "--n", ",".join(map(str, n_list)),
                            "--sets", self.set_kinds[(cycle + i) % 3], "--seed", s]
                    ops.append(Op(label, tuple(argv), (d, n_list)))
                elif label == "moment_summary":
                    ops.append(Op(label, ("moment", "--summary", "--d", "5"), None))
                else:
                    # strata interleaved so every cycle spans the degree range
                    degree = int(degrees[(i % per_cycle) * self.cycles + i // per_cycle])
                    f = self._high_degree_poly(api, rng, vars3, degree)
                    argv = ["rank", f"--poly={f}", "--vars", "x1,x2,x3", "--seed", s]
                    ops.append(Op(label, tuple(argv), 2))
        return ops

    @staticmethod
    def _incidence_poly(api, rng, vars, variant):
        """a*x1*x3^e1 + b*x2*x3^e2 + c*x1^2: full rank 2 in x1, and on a
        positive grid each suffix gives its own curve.  ``variant`` fixes
        e1 and e2; the seed draws a, b and c."""
        terms = {(1, 0, 1 + variant % 2): rng.choice(corpus.NONZERO),
                 (0, 1, 1 + variant % 3): rng.choice(corpus.NONZERO),
                 (2, 0, 0): rng.choice(corpus.NONZERO)}
        return api.Polynomial(vars, terms)

    @staticmethod
    def _high_degree_poly(api, rng, vars, degree):
        """x1^D*x2 + a*x1*x3 + b*x2*x3^e: rank 2, with a coefficient map of
        D + 1 entries in x1."""
        terms = {(degree, 1, 0): 1,
                 (1, 0, 1): rng.choice(corpus.NONZERO),
                 (0, 1, rng.randint(2, 6)): rng.choice(corpus.NONZERO)}
        return api.Polynomial(vars, terms)

    def run(self, api, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = api.cli.main(list(op.args))
        return code, out.getvalue()

    def canon(self, result):
        code, stdout = result
        return f"{code}\n{stdout}"

    def check(self, op, text):
        code, _, stdout = text.partition("\n")
        if code != "0":
            return False
        doc = json.loads(stdout)
        if op.label in ("reduce", "reduce_sets"):
            return doc["certified_rank"] == op.expect
        if op.label == "incidence":
            return doc["checks"]["all_ok"] is True
        if op.label == "expand":
            return doc["rank"] == op.expect
        if op.label == "moment_n":
            d, n_list = op.expect
            rows = doc["rows"]
            return (doc["d"] == d and [row["n"] for row in rows] == list(n_list)
                    and all(1 <= row["count"] <= math.comb(row["n"], d + 1) for row in rows))
        if op.label == "moment_summary":
            return (doc["factorization_ok"] is True and doc["rank_ok"] is True
                    and doc["det_m_sign"] in (1, -1))
        return doc["overall"] == op.expect and set(doc["per_variable"].values()) <= {0, 1, 2}


WORKLOADS = {w.name: w for w in (RankDense(), SpecialForms(), ImageSweep(), CliMix())}
