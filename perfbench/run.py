"""Run one workload of the schurq benchmark and print its metrics.

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run is one closed-loop client in
one process: it sends the next op only when the previous one has
returned.  It makes whole passes over the workload's ops, each pass in an
order drawn from the seed, until at least --seconds have passed and at
least MIN_PASSES passes are done.  schurq's lru_caches are cleared
before every op.  Every op's output is checked (see workloads.gate).
Times are host-normalised (see HostClock).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics:
counts from one traced pass, which must repeat exactly in every other,
and the median self time over the traced passes.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracer import EXACT, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
TAIL_BEYOND = math.ceil(10 / MIN_PASSES)
SETUP_PROBES = 15
REFERENCE_S = 0.0015  # reference_s() on the baseline host (2-core x86-64, Python 3.11) at its fast speed
SHOWN_PROBLEMS = 5


def reference_s() -> float:
    """Time of one fixed pure-Fraction loop: the host's speed right now."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc = acc + Fraction(i, i + 1) * Fraction(i + 2, 3)
    return perf_counter() - start


def calib_ms() -> float:
    """host.calib_ms: the median of 25 reference loops, in ms."""
    return statistics.median(reference_s() for _ in range(25)) * 1e3


class HostClock:
    """Times work in host-normalised seconds.

    The host's speed swings by up to 2x within a second (reference loop
    1.4-2.9 ms; see host.calib_ms); unscaled, the interquartile range of
    ten 20 s runs was 15-38% of their median.
    The reference loop does the same kind of work as schurq (Fraction
    arithmetic in the interpreter), so each timed piece of work is
    scaled by REFERENCE_S over the mean of the loop's time just before
    and just after it.  On a host running at the reference speed the
    result is the wall time.  The loop is not part of any timing.
    """

    def __init__(self):
        self.wall_s = 0.0  # unscaled, for the printed report
        self._last = reference_s()

    def scale(self, wall: float) -> float:
        """Host-normalised seconds of work that just took `wall` seconds."""
        before, self._last = self._last, reference_s()
        self.wall_s += wall
        return wall * REFERENCE_S / ((before + self._last) / 2)


def setup_probe(clock: HostClock, workload: str, seed: int) -> float:
    """Time from launching an interpreter to the moment its first op could start.

    perf_counter is CLOCK_MONOTONIC, which all processes share.
    """
    start = perf_counter()
    probe = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return clock.scale(float(probe.stdout.split()[-1]) - start)


def tail(sorted_latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) of the op with TAIL_BEYOND slower ops beyond it.

    Every op runs in at least MIN_PASSES passes, so at least ten latency
    samples lie beyond it; the rank is fixed per workload, so runs compare.
    """
    rank = len(sorted_latencies) - 1 - TAIL_BEYOND
    return 100 * (rank + 1) / len(sorted_latencies), sorted_latencies[rank]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.ops, self.rng = workloads.build(workload, seed)
        self.expected = workloads.load_expected()
        self.clock = HostClock()
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def run_pass(self, tracer: Tracer | None = None) -> dict[str, float]:
        """One pass over every op; returns each op's host-normalised latency in seconds."""
        order = self.ops[:]
        self.rng.shuffle(order)
        latencies = {}
        for op_id, op in enumerate(order, 1):
            # Each op starts with cold caches, as a fresh `schurq` process
            # does, so its work does not depend on the ops before it.
            workloads.clear_caches()
            if tracer:
                tracer.begin_op(op_id)
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a crash is a failed op, not the end of the run
                latencies[op.key] = self.clock.scale(perf_counter() - start)
                problem = f"raised {exc!r}"
            else:
                latencies[op.key] = self.clock.scale(perf_counter() - start)
                problem = workloads.gate(op, result, self.expected)
                if problem is None:
                    self.digests[op.key] = self.expected[op.key]
            self.attempted += 1
            if problem is not None:
                self.problems.append(f"{op.key}: {problem}")
        return latencies

    def outputs_digest(self) -> str:
        return workloads.digest(sorted(self.digests.items()))


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Every op's work is fixed, so an op's latency is the median of its
    host-normalised latencies over the run's passes.  Set-up is probed
    once after each pass, so the probes meet the same host as the ops.
    """
    samples: dict[str, list[float]] = {op.key: [] for op in runner.ops}
    setups = []
    passes = 0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for key, latency in runner.run_pass().items():
            samples[key].append(latency)
        passes += 1
        setups.append(setup_probe(runner.clock, workload, seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(runner.clock, workload, seed))
    latencies = sorted(statistics.median(v) for v in samples.values())
    percentile, tail_latency = tail(latencies)
    print(f"{workload}: {passes} passes of {len(runner.ops)} ops; an op's latency is its median of {passes}")
    print(f"op_p50_ms and op_tail_ms (p{percentile:.1f}) over {len(latencies)} ops; "
          f"setup_s is the median of {len(setups)} probes")
    print(f"wall clock: {runner.attempted} ops and {len(setups)} probes in {runner.clock.wall_s:.3f} s")
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_latency * 1e3,
        "ok_ratio": 1 - len(runner.problems) / runner.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: int, names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the coverage and repeatability problems found."""
    tracer = Tracer()
    passes: list[dict[str, float]] = []
    overheads = []
    spans_written = False
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        walls = {}
        # alternate which side runs first, so warm-up does not favour one
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                walls[traced] = sum(runner.run_pass(tracer if traced else None).values())
            finally:
                tracer.uninstall()
        overheads.append(walls[True] - walls[False])
        passes.append(dict(tracer.layer_totals()))
        if not spans_written:
            write_spans(tracer, workload, seed)
            spans_written = True
    print(f"{workload}: {len(passes)} traced and {len(passes)} untraced passes of {len(runner.ops)} ops")

    problems = []
    first = passes[0]
    for key in sorted(set().union(*passes)):
        if key.endswith(".calls") or key in EXACT:
            values = {p.get(key, 0) for p in passes}
            if len(values) > 1:
                problems.append(f"{key} differs between traced passes: {sorted(values)}")
    problems += coverage_problems(workload, first)

    def median_of(key):
        return statistics.median(p.get(key, 0.0) for p in passes)

    def ratio(part, whole):
        return first.get(part, 0) / first[whole] if first.get(whole) else 0.0

    derived = {
        "algebra.exact_divide.hit_ratio": ratio("algebra.exact_divide.hits", "algebra.exact_divide.calls"),
        "qfunctions.schur_q.cache_hit_ratio": ratio("qfunctions.schur_q.cache_hits", "qfunctions.schur_q.calls"),
        "trace.overhead_s": statistics.median(overheads),
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith("_s"):
            metrics[name] = median_of(name)
        elif name != "host.calib_ms":
            metrics[name] = first.get(name, 0)
    return metrics, problems


def coverage_problems(workload: str, totals: dict[str, float]) -> list[str]:
    """Counters predicted nonzero must be nonzero, and predicted zero must be zero.

    A wrapper that the program bypasses (a binding left unwrapped) shows
    here as a zero count where work is known to happen.
    """
    problems = []
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    for entry in layers.values():
        counter = entry["counter"]
        value = totals.get(counter, 0)
        if workload in entry["nonzero_on"] and not value:
            problems.append(f"{counter} is 0 on {workload}, predicted nonzero")
        if workload in entry["zero_on"] and value:
            problems.append(f"{counter} is {value} on {workload}, predicted 0")
    return problems


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    """Keep the spans of the first traced pass for attribution."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "spans": ["span_id parent_id op_id name start end self_s".split()] + tracer.spans,
        "sums": [["op_id", "parent_id", "name", "calls", "self_s"]]
        + [[*key, calls, own] for key, (calls, own) in tracer.sums.items()],
    }
    (out / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib_before = calib_ms()
    runner = Runner(args.workload, args.seed)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, problems = per_layer(runner, args.workload, args.seed, args.seconds, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, problems = end_to_end(runner, args.workload, args.seed, args.seconds), []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    calib_after = calib_ms()
    if args.trace:
        metrics["host.calib_ms"] = statistics.median([calib_before, calib_after])

    failed = len(runner.problems)
    print(f"host.calib_ms before {calib_before:.3f} after {calib_after:.3f}")
    print(f"outputs digest {runner.outputs_digest()} over {len(runner.digests)} ops")
    print(f"fail_ratio {failed / runner.attempted:.6f} ({failed} of {runner.attempted} ops)")
    for problem in (runner.problems + problems)[:SHOWN_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
