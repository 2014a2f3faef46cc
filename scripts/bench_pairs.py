#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and apply the gain rule.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload span --workload eigen --pairs 10 --seconds 20 --seed-base 901

--workload may be given more than once; the workloads run one after
another, each with the same pairs and seeds.  Pair i of workload W runs
`python3 perfbench/run.py --workload W --seed B+i --seconds S` in both
checkouts, the parent first when i is even and the change first when it
is odd.  Only the last line of each run's standard output, its JSON
result, is read; this script times nothing itself.  For each workload it
prints one row per run, then one summary table: for every end-to-end
metric of the change's BENCHMARK.json both sides' median and quartiles, the change's wins,
losses and ties, and whether a gain may be claimed: the change wins at
least nine tenths of the pairs (ties count for neither side), and the
medians differ in the better direction by more than the parent's
interquartile range.  Its bound column applies the no-regression rule:
"WORSE(b)" when the change's median is worse than the parent's by more
than b times the parent's median, b the metric's `bound`; otherwise
"unresolved(b)" when the parent's interquartile range is wider than b
times its median and not every change run reads better than every
parent run, since a spread wider than the bound cannot show that nothing
moved; else "ok(b)".
A workload stops at its first run that reports correct: false or a
failed op, or prints no result, and prints no summary table; the next
workload still runs.  The exit status covers every run: 2 when any run
printed no result, else 1 when any run reported correct: false or a
failed op, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(parent: list[float], change: list[float], better: str, bound: float = 0.0) -> dict:
    """The gain and no-regression rules on paired runs: parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1])
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "holds": wins >= WIN_SHARE * len(parent) and gap > pq[2] - pq[0],
        "worse": -gap > bound * abs(pq[1]),
        "unresolved": pq[2] - pq[0] > bound * abs(pq[1]) and not every_run_better,
    }


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in checkout; its JSON result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode or not isinstance(result, dict):
        raise RuntimeError(f"{checkout}: exit {done.returncode}, no result line\n{done.stderr}")
    return result


def workload(args, name: str, better: dict, bound: dict) -> int:
    """Run the pairs of one workload and print its rows and summary table; its exit status."""
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    print(f"workload {name}, {args.pairs} pairs of {args.seconds} s runs, seeds "
          f"{args.seed_base}..{args.seed_base + args.pairs - 1}")
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order, 1):
            try:
                result = run(getattr(args, side), name, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 2
            metrics = {metric: m["value"] for metric, m in result["metrics"].items() if metric in better}
            for metric, value in metrics.items():
                values[side].setdefault(metric, []).append(value)
            cells = " ".join(f"{metric}={value:.6g}" for metric, value in metrics.items())
            print(f"pair {i + 1:2d} seed {seed} {side:6s} run {position} failed {result['failed']}/"
                  f"{result['attempted']} {cells}")
            if not result["correct"] or result["failed"]:
                print(f"error: {name}: {side} run on seed {seed} reports correct={result['correct']}, "
                      f"{result['failed']} failed ops", file=sys.stderr)
                return 1

    print(f"{'metric':12s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'bound':16s} W/L/T gain")
    for metric in better:
        if metric not in values["parent"]:
            continue
        s = summarise(values["parent"][metric], values["change"][metric], better[metric], bound[metric])
        sides = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (s["parent"], s["change"])]
        verdict = "WORSE" if s["worse"] else "unresolved" if s["unresolved"] else "ok"
        verdict = f"{verdict}({bound[metric]:g})"
        print(f"{metric:12s} {sides[0]:34s} {sides[1]:34s} {verdict:16s} {s['wins']}/{s['losses']}/{s['ties']} "
              f"{'holds' if s['holds'] else 'no'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run; give it more than once for several")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m.get("bound", 0.0) for m in spec["end_to_end"]}
    return max([workload(args, name, better, bound) for name in args.workload])


if __name__ == "__main__":
    sys.exit(main())
