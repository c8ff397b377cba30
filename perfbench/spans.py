"""Spans around the public functions of each polyrank module.

The wrappers are installed from the benchmark only; nothing under ``src/``
changes.  A function is patched in every ``polyrank`` module namespace that
holds it (``from .poly import exact_div`` gives ``polyrank.rank`` its own
binding, and the package attribute ``polyrank.rank`` is the *function*), and
a method in its class, so the wrappers see the calls that callers make.

A span is ``(name, start, end, parent, op)``; spans stay in memory until the
run ends.  Self time is a span's duration minus the time its child spans
cover; children of one span never overlap because the run is one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _method_name(base: str):
    def name(args, kwargs) -> str:
        method = args[1] if len(args) > 1 else kwargs.get("method", "randomized")
        return f"{base}.{method}"
    return name


def _mul_pairs(tracer, args, kwargs, result):
    left, right = args[0], args[1]
    other = len(right.terms) if hasattr(right, "terms") else 1
    tracer.counts["poly.mul.term_pairs"] += len(left.terms) * other


def _reduction_attempts(tracer, args, kwargs, result):
    tracer.counts["reduction.attempts"] += result.attempts
    tracer.counts["reduction.certified"] += 1


def _image_tuples(tracer, args, kwargs, result):
    sets = args[1] if len(args) > 1 else kwargs["sets"]
    tracer.counts["expansion.tuples"] += math.prod(len(s) for s in sets)
    tracer.counts["expansion.image_values"] += len(result)


def _simplices(tracer, args, kwargs, result):
    parameters = args[0] if args else kwargs["parameters"]
    d = args[1] if len(args) > 1 else kwargs["d"]
    tracer.counts["moment.simplices"] += math.comb(len(parameters), d + 1)


# (module, attribute path, span name or naming function, counter hook)
TARGETS = (
    ("poly", "Polynomial.__mul__", "poly.mul", _mul_pairs),
    ("poly", "exact_div", "poly.exact_div", None),
    ("poly", "Polynomial.eval", "poly.eval", None),
    ("poly", "Polynomial.partial", "poly.partial", None),
    ("poly", "Polynomial.substitute", "poly.substitute", None),
    ("rank", "coefficient_map", "rank.coefficient_map", None),
    ("rank", "jacobian", "rank.jacobian", None),
    ("rank", "generic_rank_exact", "rank.generic_rank_exact", None),
    ("rank", "rank", _method_name("rank.rank"), None),
    ("rank", "rank_in", "rank.rank_in", None),
    ("rank", "PolyMatrix.determinant", "rank.determinant", None),
    ("special", "is_special", "special.is_special", None),
    ("special", "ratio_separated", "special.ratio_separated", None),
    ("special", "ratio_independent_of", "special.ratio_independent_of", None),
    ("reduction", "reduce", "reduction.reduce", _reduction_attempts),
    ("reduction", "grid_reduce", "reduction.grid_reduce", _reduction_attempts),
    ("expansion", "image_values", "expansion.image_values", _image_tuples),
    ("incidence", "build_instance", "incidence.build_instance", None),
    ("moment", "moment_summary", "moment.moment_summary", None),
    ("moment", "distinct_volumes", "moment.distinct_volumes", _simplices),
    ("parsing", "parse", "parsing.parse", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op: int = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        tracer = self
        fixed_name = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = fixed_name or name(args, kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                tracer.spans[index] = (span_name, start, end, parent[0] if parent else -1, tracer.op)
                tracer.self_s[span_name] += duration - frame[1]
                tracer.total_s[span_name] += duration
                tracer.calls[span_name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the polyrank modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "polyrank" or key.startswith("polyrank.")]
        for module_name, path, name, hook in TARGETS:
            module = importlib.import_module(f"polyrank.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original, holders = owner.__dict__[attr], [owner]
            else:
                original, holders = getattr(module, attr), modules
            wrapper = self._wrap(original, name, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers, keyed by the names BENCHMARK.json lists."""
        out: dict[str, float] = {}
        for span in self.calls:
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.calls"] = self.calls[span]
        out["poly.mul.term_pairs"] = self.counts["poly.mul.term_pairs"]
        attempts = self.counts["reduction.attempts"]
        out["reduction.attempts"] = attempts
        out["reduction.useful_ratio"] = self.counts["reduction.certified"] / attempts if attempts else 0.0
        tuples = self.counts["expansion.tuples"]
        sweep_s = self.total_s["expansion.image_values"]
        out["expansion.tuples"] = tuples
        out["expansion.tuples_per_s"] = tuples / sweep_s if sweep_s else 0.0
        out["expansion.dedup_ratio"] = self.counts["expansion.image_values"] / tuples if tuples else 0.0
        out["moment.simplices"] = self.counts["moment.simplices"]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
