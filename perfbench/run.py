"""Benchmark for polyrank: one workload per run, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: a closed loop (the next op
starts when the last one returns) cycles through the seeded corpus until
``--seconds`` have passed.  Timings are given at a reference host speed:
each measured time is scaled by ``PROBE_REF_S`` over the time of a fixed
reference kernel run right before and right after it (see ``probe``).
``--trace 1`` replays a fixed prefix of the corpus untraced and then
traced, reports per-layer self time and work counts, and writes the spans
to ``.perfbench_out/``.  Every distinct op's output is checked by the
workload's oracle and, for the digest seed, against the digests recorded
in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = HERE / "digests.json"
DIGEST_SEED = 0
#: Set-ups per run, half before the timed loop and half after it, so they
#: are spread over the run like the ops.
SETUP_REPEATS = 10
#: The reference host speed: the one at which ``reference_kernel`` takes
#: this long.  Timings are reported as they would read on such a host.
PROBE_REF_S = 0.0002


def fresh_import():
    """Import polyrank from src/ anew, so every set-up pays for the import."""
    for key in [k for k in sys.modules if k == "polyrank" or k.startswith("polyrank.")]:
        del sys.modules[key]
    importlib.import_module("polyrank.cli")
    return importlib.import_module("polyrank")


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind polyrank's inner loops do: dict
    updates on exponent-tuple keys and integer arithmetic."""
    terms: dict[tuple[int, int], int] = {}
    for i in range(700):
        key = (i % 97, i % 13)
        terms[key] = terms.get(key, 0) + i * 7
    return sum(c * c for c in terms.values())


def probe() -> float:
    """Seconds the reference kernel takes now, the fastest of three runs
    (the first one also refills the caches an op has evicted).

    A virtual machine on a shared host can change speed by up to 2x on its
    own, for seconds to minutes (README, "Machine and noise"); the kernel
    slows with it.  Scaling a time by ``PROBE_REF_S`` over the probes taken
    around it removes the host's speed from the figure and leaves the cost
    of polyrank's code."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2)


def set_up(workload, seed: int):
    """Import, build the corpus and warm up; return the set-up time at the
    reference speed, the imported API and the corpus."""
    before = probe()
    start = time.perf_counter()
    api = fresh_import()
    ops = workload.build(api, seed)
    for label in workload.warmup_labels:
        op = next(op for op in ops if op.label == label)
        workload.run(api, op)
    elapsed = time.perf_counter() - start
    return at_reference_speed(elapsed, before, probe()), api, ops


class Recorder:
    """Outputs per distinct op and the verdict of every execution."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        self.outputs: dict[int, str] = {}
        self.executions: list[tuple[int, bool]] = []  # (op index, same output as first run)

    def execute(self, api, index: int) -> float:
        """Run one op; return its latency in seconds."""
        op = self.ops[index]
        start = time.perf_counter()
        try:
            result = self.workload.run(api, op)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            latency = time.perf_counter() - start
            print(f"op {index} ({op.label}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.executions.append((index, False))
            return latency
        latency = time.perf_counter() - start
        text = self.workload.canon(result)
        first = self.outputs.setdefault(index, text)
        self.executions.append((index, first == text))
        return latency

    def verdicts(self, seed: int) -> dict[int, bool]:
        """Oracle (and, for the digest seed, digest) verdict per distinct op."""
        good = {}
        for index, text in self.outputs.items():
            try:
                good[index] = self.workload.check(self.ops[index], text)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"op {index}: unreadable output ({exc})", file=sys.stderr)
                good[index] = False
        expected = recorded_digests(self.workload.name, seed)
        if expected is not None:
            for index, text in self.outputs.items():
                if index >= len(expected) or expected[index] != op_digest(text):
                    good[index] = False
        return good

    def counts(self, seed: int) -> tuple[int, int]:
        good = self.verdicts(seed)
        failed = sum(1 for index, same in self.executions if not (same and good.get(index, False)))
        return len(self.executions), failed


def op_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digests(name: str, seed: int) -> list[str] | None:
    if seed != DIGEST_SEED or not DIGESTS.exists():
        return None
    with open(DIGESTS) as stream:
        return json.load(stream)["workloads"].get(name, {}).get("per_op")


def timed_loop(api, recorder: Recorder, seconds: float):
    """Closed loop over the corpus, in order and cycling, until ``seconds``
    have passed; the op running at the deadline completes and counts.  A
    probe runs between two ops, outside their timing.  Returns the number
    of ops run, the probe times and, per op, its latencies as measured and
    at the reference speed."""
    n = len(recorder.ops)
    measured: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    started = time.perf_counter()
    probes = [probe()]
    i = 0
    while time.perf_counter() - started < seconds:
        latency = recorder.execute(api, i % n)
        probes.append(probe())
        measured.setdefault(i % n, []).append(latency)
        scaled.setdefault(i % n, []).append(at_reference_speed(latency, *probes[-2:]))
        i += 1
    return i, probes, measured, scaled


def latency_metrics(latencies: dict[int, list[float]]) -> dict[str, float]:
    """Each op's median latency over its executions, which the loop spreads
    over the whole run; then the distribution over the distinct ops."""
    per_op = [statistics.median(values) for values in latencies.values()]
    return {"ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_p90_ms": statistics.quantiles(per_op, n=10)[-1] * 1e3}


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def measure(workload, seed: int, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS // 2):
        setup_s, api, ops = set_up(workload, seed)
        setup_times.append(setup_s)
    recorder = Recorder(workload, ops)
    gc.collect()
    timed, probes, measured, scaled = timed_loop(api, recorder, seconds)
    for index in range(len(ops)):  # the digest covers the whole corpus
        if index not in recorder.outputs:
            recorder.execute(api, index)
    # before the oracles, which rebuild images in plain Python
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        setup_times.append(set_up(workload, seed)[0])
    attempted, failed = recorder.counts(seed)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in latency_metrics(scaled).items()}
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    info = {"workload": workload.name, "seed": seed, "distinct_ops": len(ops), "timed_ops": timed,
            "timed_distinct_ops": len(scaled), "as_measured": latency_metrics(measured),
            "probe_ref_ms": PROBE_REF_S * 1e3,
            "probe_median_ms": statistics.median(probes) * 1e3, "env": environment()}
    return {"info": info, "recorder": recorder, "metrics": metrics,
            "attempted": attempted, "failed": failed, "problems": []}


def measure_traced(workload, seed: int, per_layer: list[dict]) -> dict:
    _, api, ops = set_up(workload, seed)
    recorder = Recorder(workload, ops)
    prefix = range(min(workload.trace_ops, len(ops)))
    gc.collect()
    tracer = Tracer()
    untraced, traced = [], []
    for i in prefix:  # each op untraced, then traced: the pairs share warm state
        untraced.append(recorder.execute(api, i))
        tracer.op = i
        tracer.install()
        try:
            traced.append(recorder.execute(api, i))
        finally:
            tracer.uninstall()
    tracer.write(ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{seed}.jsonl")
    attempted, failed = recorder.counts(seed)

    layer = tracer.layer_metrics()
    layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    problems = [f"span {name} recorded no calls" for name in workload.must_call
                if tracer.calls[name] == 0]
    problems += [f"span {name} recorded {tracer.calls[name]} calls, predicted none"
                 for name in workload.must_not_call if tracer.calls[name]]
    metrics = {m["name"]: (layer.get(m["name"], 0), m["unit"]) for m in per_layer}
    top = sorted(tracer.self_s.items(), key=lambda item: -item[1])[:5]
    info = {"workload": workload.name, "seed": seed, "traced_ops": len(prefix),
            "spans": len(tracer.spans), "top_self_s": {k: round(v, 4) for k, v in top},
            "env": environment()}
    return {"info": info, "recorder": recorder, "metrics": metrics,
            "attempted": attempted, "failed": failed, "problems": problems}


def record_digests(name: str, recorder: Recorder) -> None:
    per_op = [op_digest(recorder.outputs[i]) for i in range(len(recorder.ops))]
    document = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": DIGEST_SEED, "workloads": {}}
    document["workloads"][name] = {"per_op": per_op}
    DIGESTS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's per-op output digests (digest seed only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "polyrank").is_dir():
        print(f"perfbench: no polyrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DIGEST_SEED or args.trace):
        parser.error(f"--record-digests needs --seed {DIGEST_SEED} and --trace 0")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    if args.trace:
        with open(ROOT / "BENCHMARK.json") as stream:
            per_layer = json.load(stream)["per_layer"]
        run = measure_traced(workload, args.seed, per_layer)
    else:
        run = measure(workload, args.seed, args.seconds)
    if args.record_digests:
        record_digests(workload.name, run["recorder"])
        run["attempted"], run["failed"] = run["recorder"].counts(args.seed)

    for problem in run["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = run["failed"] == 0 and not run["problems"]
    print(json.dumps(run["info"]))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
