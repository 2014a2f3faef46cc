"""Workloads of the schurq benchmark.

A workload is a list of ops built from a seed.  An op is one call into
schurq's public API; its `judge` turns the call's result into a
canonical JSON object, or raises WrongOutput when the result is
mathematically wrong.  `gate` then compares the object's digest with the
digest that the unoptimised seed commit produced (expected.json).  A
judge calls nothing that the tracer wraps, so traced counts cover the
op's call alone.

Importing this module imports schurq from the `src` directory of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import schurq  # noqa: E402
from schurq import cli, operators, qfunctions, spectra  # noqa: E402
from schurq.algebra import Polynomial, RationalFunction, format_fraction  # noqa: E402

if Path(schurq.__file__).resolve().parent != SRC / "schurq":
    raise ImportError(f"schurq was imported from {schurq.__file__}, not from {SRC}")

# Captured before any tracing wraps them, so cache_clear stays reachable.
CACHED = (qfunctions.q_series, qfunctions.q_two, qfunctions.schur_q)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

NAMES = ("eigen", "relations", "qbuild", "span")

# Lemma 1.21: tilde Omega_k = sum_j coef * Omega_j, keyed by k.
LEMMA_121 = {1: {1: 2}, 2: {1: 2}, 3: {3: 2, 1: 2}, 4: {3: 4, 1: 2}}
MULTIPLIERS = [c for c in range(-9, 10) if c]
RATIONAL = re.compile(r"-?\d+(/\d+)?")


class WrongOutput(Exception):
    """An op returned a mathematically wrong or inexact result."""


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    judge: Callable[[object], object]


def clear_caches() -> None:
    """Empty the lru_caches, so every pass starts as a fresh process does."""
    for fn in CACHED:
        fn.cache_clear()


# ---------------------------------------------------------------------------
# Canonical forms and the output gate
# ---------------------------------------------------------------------------


def _exact(*values) -> None:
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise WrongOutput(f"inexact coefficient {v!r}")


def poly_json(p: Polynomial) -> dict:
    _exact(*p.terms.values())
    return p.to_json_obj()


def rf_json(r: RationalFunction) -> dict:
    den = sorted([f.kind, f.i, f.j, m] for f, m in r.den.items())
    return {"num": poly_json(r.num), "den": den}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def gate(op: Op, result, expected: dict[str, str]) -> str | None:
    """None when the result is right, else the reason it is wrong."""
    try:
        canonical = op.judge(result)
    except WrongOutput as exc:
        return str(exc)
    except Exception as exc:  # output the judge cannot even read
        return f"unreadable output: {exc!r}"
    want = expected.get(op.key)
    if want is None:
        return "no expected digest"
    if digest(canonical) != want:
        return f"digest {digest(canonical)} != expected {want}"
    return None


# ---------------------------------------------------------------------------
# Workloads.  Each op looks its API function up at call time, so that the
# tracer's rebinding of module attributes is seen.
# ---------------------------------------------------------------------------


def _eigen(rng: random.Random, small: bool) -> list[Op]:
    sizes = ((3, 3), (4, 3)) if small else ((3, 7), (4, 4))
    ops = []
    for n, top in sizes:
        for d in range(1, top + 1):
            for lam in qfunctions.strict_partitions(d, max_length=n):
                for name in ("omega1", "omega3", "omega5"):

                    def judge(rep, lam=lam, name=name):
                        if not rep.is_eigen:
                            raise WrongOutput("not an eigenfunction")
                        _exact(rep.eigenvalue)
                        if name == "omega1" and rep.eigenvalue != lam.weight:
                            raise WrongOutput(f"ev(Omega_1) = {rep.eigenvalue}")
                        if name == "omega3" and rep.eigenvalue != spectra.hc_eigenvalue_omega3(lam):
                            raise WrongOutput(f"ev(Omega_3) = {rep.eigenvalue}")
                        return rep.to_json_obj()

                    ops.append(Op(
                        f"eigen n={n} {name} Q_{lam}",
                        lambda lam=lam, name=name, n=n: spectra.eigen_check(lam, name, n),
                        judge,
                    ))
    return ops


def _relations(rng: random.Random, small: bool) -> list[Op]:
    n = 3
    top_mu, top_e = (1, 0) if small else (2, 1)
    ops = []
    for d in range(top_mu + 1):
        for mu in [()] if d == 0 else qfunctions.partitions(d, max_length=n):
            c = rng.choice(MULTIPLIERS)
            base = Polynomial.constant(n, 1) if not mu else qfunctions.monomial_symmetric(mu, n)
            f = base.scale(c)
            for k, combo in LEMMA_121.items():

                def call(f=f, k=k, combo=combo, c=c):
                    lhs = operators.tilde_omega(f, k, n)
                    rhs = RationalFunction.zero(n)
                    for j, coef in combo.items():
                        rhs = rhs + operators.omega(f, j, n).scale(coef)
                    return lhs == rhs, lhs, c

                ops.append(Op(f"lemma121 n={n} tilde{k} m_{mu}", call, _judge_relation))
    for d in range(top_e + 1):
        for e in _exponents(n, d):
            c = rng.choice(MULTIPLIERS)
            f = Polynomial.monomial(n, e, c)

            def call(f=f, c=c):
                lhs = operators.conjugated_apply("omega3-closed", f, n)
                return lhs == operators.euler_cubes(f, n), lhs, c

            ops.append(Op(f"conjugation n={n} x^{e}", call, _judge_relation))
    return ops


def _exponents(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponents(n - 1, d - first):
            yield (first,) + rest


def _judge_relation(result) -> dict:
    holds, lhs, c = result
    if not holds:
        raise WrongOutput("relation does not hold")
    # The operators are linear, so dividing by the seeded multiplier
    # gives a digest that does not depend on the seed.
    return rf_json(lhs.scale(Fraction(1, c)))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _judge_qfun(result) -> dict:
    code, text = result
    if code != 0:
        raise WrongOutput(f"exit code {code}")
    obj = json.loads(text)
    for term in obj["terms"]:
        if not RATIONAL.fullmatch(term["coeff"]):
            raise WrongOutput(f"inexact coefficient {term['coeff']!r}")
    return obj


def _judge_verify(result) -> dict:
    code, text = result
    obj = json.loads(text)
    if code != 0 or not obj["passed"]:
        raise WrongOutput(f"FAIL {obj['failures']}")
    return obj


def _qbuild(rng: random.Random, small: bool) -> list[Op]:
    n, top, suite_max = (4, 3, 2) if small else (4, 7, 4)
    ops = []
    for d in range(1, top + 1):
        for lam in qfunctions.strict_partitions(d, max_length=n):
            argv = ["qfun", "--lambda", str(lam), "--n", str(n)]
            ops.append(Op(f"cli {' '.join(argv)}", lambda argv=argv: _run_cli(argv), _judge_qfun))
    for suite in ("skew", "supersym", "stability"):
        argv = ["verify", "--suite", suite, "--n", str(n), "--max", str(suite_max)]
        ops.append(Op(f"cli {' '.join(argv)}", lambda argv=argv: _run_cli(argv), _judge_verify))
    return ops


def _judge_sweep(report) -> dict:
    if not report.passed:
        raise WrongOutput(f"FAIL {report.failures[:3]}")
    return report.to_json_obj()


def _judge_expand(expansion) -> dict:
    _exact(*expansion.values())
    items = sorted(expansion.items(), key=lambda kv: (kv[0].weight, kv[0].parts))
    return {str(nu): format_fraction(c) for nu, c in items}


def _span(rng: random.Random, small: bool) -> list[Op]:
    sweeps, top = (((3, 3),), 2) if small else (((3, 4), (3, 5), (3, 6), (3, 7), (2, 6), (2, 8), (2, 10)), 5)
    ops = [
        Op(f"uniqueness n={n} max={m}",
           lambda n=n, m=m: spectra.uniqueness_sweep(n, m), _judge_sweep)
        for n, m in sweeps
    ]
    for d in range(1, top + 1):
        for lam in qfunctions.strict_partitions(d):
            # what `schurq expand --lambda <lam>` computes (its default --max is 8)
            ops.append(Op(
                f"expand Q_{lam} n={d} max=8",
                lambda lam=lam, n=d: qfunctions.expand_in_power_sums(qfunctions.schur_q(lam, n), n, 8),
                _judge_expand,
            ))
    return ops


BUILDERS = {"eigen": _eigen, "relations": _relations, "qbuild": _qbuild, "span": _span}


def build(name: str, seed: int, small: bool = False) -> tuple[list[Op], random.Random]:
    """The ops of a workload and the random stream that orders its passes."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, small), rng
