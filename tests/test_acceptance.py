"""Acceptance gate: every criterion exact, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import sys
from fractions import Fraction

import pytest

from schurq import spectra
from schurq.algebra import Polynomial, pfaffian, substitute, T_MINUS, T_PLUS
from schurq.operators import (
    auxiliary_functions,
    conjugated_apply,
    delta_inverse,
    euler_cubes,
    sum_cubes,
)
from schurq.qfunctions import (
    OddCycleType,
    StrictPartition,
    char_map,
    odd_cycle_types,
    power_sum_product,
    q_two,
    schur_q,
    shifted_tableaux_count,
    strict_partitions,
)

from oracles import determinant, rn_eigenvalue, separation_check, shifted_tableaux_enumerate


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    assert ok, name


def test_criterion_1_eigenfunction_suite():
    """Omega_1/3/5 on every Q_lambda, |lambda| <= 8, n in {2,3,4}."""
    ok = True
    for n in (2, 3, 4):
        for d in range(1, 9):
            for lam in strict_partitions(d, max_length=n):
                rep1 = spectra.eigen_check(lam, "omega1", n)
                rep3 = spectra.eigen_check(lam, "omega3", n)
                rep5 = spectra.eigen_check(lam, "omega5", n)
                ok &= rep1.is_eigen and rep1.eigenvalue == lam.weight
                ok &= rep3.is_eigen and rep3.eigenvalue == spectra.hc_eigenvalue_omega3(lam)
                ok &= rep5.is_eigen  # eigenvalue computed, not asserted
    report("1 eigenfunction suite", ok)


def test_criterion_2_skew_symmetry():
    ok = True
    for n in (1, 2, 3, 4):
        for k in range(0, 9):
            for l in range(0, 9):
                if k + l:
                    ok &= q_two(k, l, n) == -q_two(l, k, n)
    report("2 skew-symmetry gate", ok)


def test_criterion_3_conjugation_identity():
    ok = True
    for n in (2, 3):
        def exponent_vectors(total_cap):
            def rec(prefix, remaining):
                if len(prefix) == n:
                    yield tuple(prefix)
                    return
                for e in range(remaining + 1):
                    yield from rec(prefix + [e], remaining - e)

            for total in range(total_cap + 1):
                for v in rec([], total):
                    if sum(v) == total:
                        yield v

        for exps in exponent_vectors(5):
            f = Polynomial.monomial(n, exps)
            ok &= conjugated_apply("omega3-closed", f, n) == euler_cubes(f, n)
        ok &= sum_cubes(delta_inverse(n), n).is_zero()
    report("3 conjugation identity", ok)


def test_criterion_4_tilde_relations():
    ok = True
    for n in (2, 3):
        rep = spectra.lemma_121_sweep(n, 6)
        ok &= rep.passed
    report("4 omega/tilde-omega relations", ok)


def test_criterion_5_auxiliary_identity():
    ok = True
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            phi, psi, theta = auxiliary_functions(i, n)
            expr = (
                theta.scale(24)
                - psi.scale(6)
                - (phi * phi).scale(12)
                - phi.euler(i).scale(6)
            )
            ok &= expr.is_zero()
    report("5 auxiliary-function identity", ok)


def test_criterion_6_uniqueness():
    ok = True
    for n in (1, 2, 3):
        rep = spectra.uniqueness_sweep(n, 8)
        ok &= rep.passed
    # pairwise separation for all strict partitions of weight <= 8
    all_parts = [lam for d in range(1, 9) for lam in strict_partitions(d)]
    n = max(lam.length for lam in all_parts)
    for a in range(len(all_parts)):
        for b in range(a + 1, len(all_parts)):
            w = separation_check(all_parts[a], all_parts[b], n)
            ok &= rn_eigenvalue(w, all_parts[a], n) != rn_eigenvalue(
                w, all_parts[b], n
            )
    report("6 uniqueness at desk scale", ok)


def test_criterion_7_supersymmetry_and_stability():
    ok = True
    for n in (2, 3, 4):
        for d in range(1, 9):
            for lam in strict_partitions(d):
                f = schur_q(lam, n)
                sub = substitute(f, {1: T_PLUS, 2: T_MINUS})
                ok &= sub.degree_in(sub.n) <= 0
                ok &= substitute(schur_q(lam, n + 1), {n + 1: 0}) == f
    report("7 supersymmetry and stability", ok)


def test_criterion_8_characteristic_map():
    ok = True
    for n in (2, 3, 4):
        for w in range(1, 10):
            for nu in odd_cycle_types(w):
                expected = power_sum_product(nu.parts, n).scale(Fraction(2) ** nu.length)
                ok &= char_map(nu, n) == expected
        for w1 in range(1, 5):
            for w2 in range(1, 10 - w1):
                for nu in odd_cycle_types(w1):
                    for mu in odd_cycle_types(w2):
                        union = OddCycleType(nu.parts + mu.parts)
                        ok &= char_map(union, n) == char_map(nu, n) * char_map(mu, n)
    report("8 characteristic map", ok)


def test_criterion_9_tableaux_oracle():
    ok = True
    for d in range(1, 9):
        for lam in strict_partitions(d):
            ok &= shifted_tableaux_count(lam) == shifted_tableaux_enumerate(lam)
    ok &= shifted_tableaux_count(StrictPartition((2, 1))) == 1
    ok &= shifted_tableaux_count(StrictPartition((3, 2, 1))) == 2
    report("9 tableaux oracle", ok)


def test_criterion_10_pfaffian_oracle():
    rng = random.Random(987654321)
    ok = True
    for trial in range(200):
        size = 2 * rng.randint(1, 4)
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                rows[i][j] = v
                rows[j][i] = -v
        ok &= pfaffian([row[a + 1:] for a, row in enumerate(rows)]) ** 2 == determinant(rows)
    report("10 Pfaffian oracle", ok)
