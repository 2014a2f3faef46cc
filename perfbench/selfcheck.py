"""Self-check of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selfcheck.py

1. Wrapper coverage: no module of schurq keeps a binding of a traced
   function that the tracer left unwrapped (`from ... import` copies
   such as spectra.schur_q included).  Each workload runs at its
   smallest size with tracing on.  Every counter that layers.json predicts nonzero there must be
   nonzero, and every one predicted zero must be zero; a traced function
   that the program reaches through a binding the tracer missed shows as
   a zero.  The exact counts must repeat in a second traced pass, and
   uninstalling must restore every original binding.
2. Output gate: every op's output matches expected.json, and perturbed,
   inexact or crashing outputs are counted as failures.
3. BENCHMARK.json lists exactly the per-layer metrics that layers.json
   defines.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import workloads
from run import HERE, ROOT, Runner, coverage_problems
from tracer import EXACT, TARGETS, Tracer
from workloads import Op, gate

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def traced_pass(name: str, ops: list[Op]) -> dict:
    runner = Runner(name, 1)
    runner.ops = ops
    tracer = Tracer()
    tracer.install()
    check(not unwrapped_bindings(), f"every binding of a traced function is wrapped {unwrapped_bindings() or ''}")
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    for problem in runner.problems:
        check(False, problem)
    check(not runner.problems, f"{name}: every op passes the output gate")
    return dict(tracer.layer_totals())


def unwrapped_bindings() -> list[str]:
    """Names in schurq's modules that still refer to an unwrapped original."""
    bound = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    originals = {id(fn.__wrapped__ if fn.__module__ == "tracer" else fn) for fn in bound}
    return [
        f"{module.__name__}.{key}"
        for name, module in sys.modules.items() if name.startswith("schurq")
        for key, value in vars(module).items() if id(value) in originals
    ]


def bindings_restored() -> bool:
    modules = [m for k, m in sys.modules.items() if k.startswith("schurq")]
    owners = modules + [owner for owner, _, _ in TARGETS if isinstance(owner, type)]
    return not any(
        getattr(value, "__module__", None) == "tracer"
        for owner in owners
        for value in vars(owner).values()
    )


def coverage() -> None:
    for name in workloads.NAMES:
        ops, _ = workloads.build(name, 1, small=True)
        first = traced_pass(name, ops)
        second = traced_pass(name, ops)
        for problem in coverage_problems(name, first):
            check(False, problem)
        check(not coverage_problems(name, first), f"{name}: counters match the zero/nonzero predictions")
        exact = {k for k in first if k.endswith(".calls") or k in EXACT}
        changed = sorted(k for k in exact if first[k] != second.get(k))
        check(not changed, f"{name}: exact counts repeat in a second pass {changed or ''}")
        check(bindings_restored(), f"{name}: uninstall restores every binding")


def perturbations(expected: dict) -> None:
    def first_op(name: str, key_part: str) -> Op:
        ops, _ = workloads.build(name, 3, small=True)
        return next(op for op in ops if key_part in op.key)

    def caught(op: Op, result, what: str) -> None:
        problem = gate(op, result, expected)
        check(problem is not None, f"{op.key}: {what} is caught ({problem})")

    workloads.clear_caches()
    op = first_op("eigen", "omega5 Q_2,1")
    rep = op.call()
    rep.eigenvalue += 1
    caught(op, rep, "a wrong Omega_5 eigenvalue")
    op = first_op("eigen", "omega3 Q_2,1")
    rep = op.call()
    rep.is_eigen = False
    caught(op, rep, "isEigen false")

    op = first_op("relations", "tilde3 m_(1,)")
    holds, lhs, c = op.call()
    caught(op, (holds, lhs + workloads.RationalFunction.constant(lhs.n, 1), c), "a changed coefficient")
    caught(op, (False, lhs, c), "a relation that fails")
    inexact = lhs.scale(1)
    monomial = next(iter(inexact.num.terms))
    inexact.num.terms[monomial] = float(inexact.num.terms[monomial])
    caught(op, (holds, inexact, c), "a float coefficient")

    op = first_op("qbuild", "qfun --lambda 2,1")
    code, text = op.call()
    obj = json.loads(text)
    obj["terms"][0]["coeff"] = str(int(obj["terms"][0]["coeff"]) + 1)
    caught(op, (code, json.dumps(obj)), "a changed qfun coefficient")
    obj["terms"][0]["coeff"] = "2.0"
    caught(op, (code, json.dumps(obj)), "a float-formatted coefficient")
    op = first_op("qbuild", "verify --suite skew")
    code, text = op.call()
    caught(op, (1, text.replace('"passed": true', '"passed": false')), "a sweep FAIL")
    caught(op, (2, ""), "an error exit with no output")

    op = first_op("span", "expand Q_2")
    expansion = op.call()
    nu = next(iter(expansion))
    caught(op, {**expansion, nu: expansion[nu] + Fraction(1, 3)}, "a changed expansion coefficient")
    caught(op, {**expansion, nu: float(expansion[nu])}, "a float expansion coefficient")

    runner = Runner("span", 1)
    runner.ops = [Op("crashing op", lambda: 1 // 0, lambda r: r)]
    runner.run_pass()
    check(len(runner.problems) == 1 and runner.attempted == 1, "an op that raises counts as failed")


def spec_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    defined = [m for entry in layers["layers"].values() for m in entry["metrics"]] + list(layers["diagnostics"])
    listed = [m["name"] for m in spec["per_layer"]]
    check(listed == defined, "BENCHMARK.json per_layer lists the metrics layers.json defines")


def main() -> int:
    expected = workloads.load_expected()
    coverage()
    perturbations(expected)
    spec_matches()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
