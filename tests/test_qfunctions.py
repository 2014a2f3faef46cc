import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq import linalg, qfunctions
from schurq.algebra import (
    MAX_DEGREE,
    ExponentOverflow,
    Polynomial,
    T_MINUS,
    T_PLUS,
    VariableCountMismatch,
    substitute,
)
from schurq.qfunctions import (
    NotInSpan,
    NotSymmetric,
    OddCycleType,
    StrictPartition,
    _placements,
    char_map,
    expand_in_power_sums,
    is_supersymmetric,
    monomial_symmetric,
    odd_cycle_types,
    partitions,
    power_sum,
    power_sum_product,
    q_series,
    q_two,
    schur_q,
    shifted_tableaux_count,
    strict_partitions,
)

from oracles import marked_shifted_tableaux, rank, shifted_tableaux_enumerate


class TestStrictPartition:
    def test_parse_and_str(self):
        lam = StrictPartition.parse("3,1")
        assert lam.parts == (3, 1)
        assert lam.weight == 4 and lam.length == 2
        assert str(lam) == "3,1"

    def test_rejects_non_strict(self):
        with pytest.raises(ValueError):
            StrictPartition((2, 2))
        with pytest.raises(ValueError):
            StrictPartition((1, 2))
        with pytest.raises(ValueError):
            StrictPartition((2, 0))

    def test_generator_counts(self):
        # distinct-part partition counts of 1..8: 1,1,2,2,3,4,5,6
        counts = [sum(1 for _ in strict_partitions(d)) for d in range(1, 9)]
        assert counts == [1, 1, 2, 2, 3, 4, 5, 6]

    def test_generator_matches_subset_oracle(self):
        # a strict partition is a set of distinct parts; combinations of a
        # decreasing range list each set once, with its parts decreasing
        for d in range(16):
            oracle = sorted(
                (c for k in range(d + 1) for c in combinations(range(d, 0, -1), k) if sum(c) == d),
                reverse=True,
            )
            for max_length in (None, *range(d + 2)):
                got = [lam.parts for lam in strict_partitions(d, max_length)]
                assert got == [c for c in oracle if max_length is None or len(c) <= max_length]


class TestOddCycleType:
    def test_generator_equals_the_filtered_partitions(self):
        # odd_cycle_types builds odd parts only; it keeps the order of partitions(d)
        for d in range(21):
            want = [p for p in partitions(d) if all(part % 2 for part in p)]
            assert [nu.parts for nu in odd_cycle_types(d)] == want, d

    def test_rejects_even_part(self):
        with pytest.raises(ValueError):
            OddCycleType((3, 2))

    def test_sorts_parts(self):
        assert OddCycleType((1, 3)).parts == (3, 1)


def restricted(p, i):
    """p with x_(i+1), .., x_n set to 0."""
    return Polynomial(p.n, {m: c for m, c in p.sorted_terms() if not any(m[i:])})


def reference_q_series(n, maxdeg):
    """q_0..q_maxdeg by the restriction recursion q_series ran before the closed form.

    With p^(i) = p(x_1, .., x_i, 0, .., 0), the factor of x_i in Q(t) gives
    q_d^(i) - q_d^(i-1) = x_i (q_(d-1)^(i-1) + q_(d-1)^(i)), and summing over
    i gives q_d = sum_i x_i (q_(d-1)^(i-1) + q_(d-1)^(i)).
    """
    qs = [Polynomial.constant(n, 1)]
    for _ in range(maxdeg):
        upto = [restricted(qs[-1], i) for i in range(n + 1)]
        q = Polynomial.zero(n)
        for i in range(1, n + 1):
            q = q + Polynomial.monomial(n, tuple(int(j == i - 1) for j in range(n))) * (upto[i] + upto[i - 1])
        qs.append(q)
    return tuple(qs)


class TestQSeries:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_restriction_recursion(self, n):
        # one reference series for every length, so q_series(n, d)[k] is the same for all d >= k
        want = reference_q_series(n, 10)
        for d in range(11):
            assert q_series(n, d) == want[: d + 1]

    @pytest.mark.parametrize("n", [1, 6])
    def test_degree_past_the_width_raises_at_once(self, n):
        # in 6 variables the q_k up to MAX_DEGREE would have about 10^15 terms,
        # so this returns only if the range check comes before any q_k is built
        with pytest.raises(ExponentOverflow):
            q_series(n, MAX_DEGREE + 1)

    def test_q0_is_one(self):
        for n in (1, 2, 3):
            assert q_series(n, 0)[0] == Polynomial.constant(n, 1)

    def test_n1_geometric(self):
        qs = q_series(1, 5)
        for k in range(1, 6):
            assert qs[k] == Polynomial.monomial(1, (k,), 2)

    def test_q1_n2(self):
        assert q_series(2, 1)[1] == Polynomial(2, {(1, 0): 2, (0, 1): 2})

    def test_q1_is_twice_p1(self):
        for n in (1, 2, 3):
            assert q_series(n, 1)[1] == power_sum(1, n).scale(2)


class TestQTwo:
    def test_right_zero_index(self):
        for k in (1, 2, 3):
            for n in (1, 2):
                assert q_two(k, 0, n) == q_series(n, k)[k]

    def test_q21_n2(self):
        assert q_two(2, 1, 2) == Polynomial(2, {(2, 1): 4, (1, 2): 4})

    def test_q11_n1_vanishes(self):
        assert q_two(1, 1, 1).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_doubling_the_short_factor_is_doubling_each_product(self, n):
        for k in range(7):
            for l in range(7):
                if not k + l:
                    continue
                qs = q_series(n, k + l)
                want = qs[k] * qs[l]
                for p in range(1, l + 1):
                    term = (qs[k + p] * qs[l - p]).scale(2)
                    want = want - term if p % 2 else want + term
                assert q_two(k, l, n) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_skew_symmetry(self, n):
        for k in range(0, 9):
            for l in range(0, 9):
                if k + l:
                    assert q_two(k, l, n) == -q_two(l, k, n)


class TestSchurQ:
    def test_single_row(self):
        for k in (1, 2, 3):
            assert schur_q(StrictPartition((k,)), 2) == q_series(2, k)[k]

    def test_21_n2(self):
        assert schur_q(StrictPartition((2, 1)), 2) == Polynomial(2, {(2, 1): 4, (1, 2): 4})

    def test_vanishes_beyond_length(self):
        assert schur_q(StrictPartition((2, 1)), 1).is_zero()
        assert schur_q(StrictPartition((3, 2, 1)), 2).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vanishes_for_every_partition_longer_than_n(self, n):
        # why supersymmetry_sweep stops at l(lambda) = n: past it every check tests 0
        longer = [lam for d in range(1, 11) for lam in strict_partitions(d) if lam.length > n]
        assert longer
        assert all(schur_q(lam, n).is_zero() for lam in longer)

    def test_homogeneous(self):
        for d in range(1, 7):
            for lam in strict_partitions(d):
                p = schur_q(lam, 3)
                assert all(sum(m) == d for m, _ in p.sorted_terms())
                if not p.is_zero():
                    assert p.degree() == d

    def test_stability(self):
        for d in range(1, 7):
            for lam in strict_partitions(d):
                for n in (1, 2, 3):
                    assert substitute(schur_q(lam, n + 1), {n + 1: 0}) == schur_q(lam, n)

    def test_symmetric(self):
        for lam in strict_partitions(5):
            assert schur_q(lam, 3).is_symmetric()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linear_independence_per_degree(self, n):
        for d in range(1, 9):
            basis = [schur_q(lam, n) for lam in strict_partitions(d, max_length=n)]
            if not basis:
                continue
            monomials = sorted({m for b in basis for m in b.terms})
            rows = [[b.terms.get(m, Fraction(0)) for b in basis] for m in monomials]
            assert rank(rows) == len(basis)


class TestCharMap:
    def test_single_cycle(self):
        assert char_map(OddCycleType((3,)), 2) == power_sum(3, 2).scale(2)

    def test_matches_q1(self):
        assert char_map(OddCycleType((1,)), 3) == q_series(3, 1)[1]

    def test_two_cycles(self):
        expected = (power_sum(3, 2) * power_sum(1, 2)).scale(4)
        assert char_map(OddCycleType((3, 1)), 2) == expected

    def test_multiplicative_on_disjoint_types(self):
        for n in (2, 3):
            for w1 in range(1, 5):
                for w2 in range(1, 5):
                    for nu in odd_cycle_types(w1):
                        for mu in odd_cycle_types(w2):
                            union = OddCycleType(nu.parts + mu.parts)
                            assert char_map(union, n) == char_map(nu, n) * char_map(mu, n)


class TestMonomialSymmetric:
    @pytest.mark.parametrize("mu, n", [((1,), 1), ((2, 1), 3), ((2, 2, 1), 5), ((3, 1, 1), 9), ((4,), 12)])
    def test_each_distinct_arrangement_once(self, mu, n):
        # the orbit of mu padded with zeros: n! / prod(multiplicity!) monomials, each with coefficient 1
        exps = mu + (0,) * (n - len(mu))
        size = math.factorial(n)
        for v in set(exps):
            size //= math.factorial(exps.count(v))
        terms = monomial_symmetric(mu, n).sorted_terms()
        assert len(terms) == size
        assert all(tuple(sorted(m, reverse=True)) == exps and c == 1 for m, c in terms)


class TestExpandInPowerSums:
    def test_q1(self):
        e = expand_in_power_sums(schur_q(StrictPartition((1,)), 2), 2, 1)
        assert e == {OddCycleType((1,)): Fraction(2)}

    def test_q2(self):
        e = expand_in_power_sums(schur_q(StrictPartition((2,)), 2), 2, 2)
        assert e == {OddCycleType((1, 1)): Fraction(2)}

    def test_q3(self):
        e = expand_in_power_sums(schur_q(StrictPartition((3,)), 3), 3, 3)
        assert e == {
            OddCycleType((1, 1, 1)): Fraction(4, 3),
            OddCycleType((3,)): Fraction(2, 3),
        }

    def test_series_oracle(self):
        # q_k is the t^k coefficient of exp(2 sum_{odd m} p_m t^m / m);
        # expand that series independently and compare coefficients.
        n, maxdeg = 3, 6
        series = [Polynomial.zero(n) for _ in range(maxdeg + 1)]
        series[0] = Polynomial.constant(n, 1)
        # exponent polynomial E(t) = sum_{odd m} 2 p_m t^m / m
        exps = {m: power_sum(m, n).scale(Fraction(2, m)) for m in range(1, maxdeg + 1, 2)}
        # exp series: s_{k} = 1/k * sum_{m} m * E_m * s_{k-m}  (log-derivative trick)
        for k in range(1, maxdeg + 1):
            acc = Polynomial.zero(n)
            for m, em in exps.items():
                if m <= k:
                    acc = acc + em.scale(m) * series[k - m]
            series[k] = acc.scale(Fraction(1, k))
        for k in range(maxdeg + 1):
            assert series[k] == q_series(n, maxdeg)[k]

    def test_constant_term(self):
        # p_() = 1, so a constant is its own coefficient on the empty cycle type
        n, c = 3, Fraction(5, 2)
        p = Polynomial.constant(n, c) + schur_q(StrictPartition((3,)), n)
        assert expand_in_power_sums(p, n, 3) == {
            OddCycleType(()): c,
            OddCycleType((3,)): Fraction(2, 3),
            OddCycleType((1, 1, 1)): Fraction(4, 3),
        }
        assert expand_in_power_sums(Polynomial.constant(n, 1), n, 0) == {OddCycleType(()): 1}

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            expand_in_power_sums(Polynomial.monomial(2, (1, 0)), 2, 1)

    def test_variable_count_checked_first(self):
        # x_1 is not symmetric either, but the variable count is checked first
        with pytest.raises(VariableCountMismatch):
            expand_in_power_sums(Polynomial.monomial(2, (1, 0)), 3, 1)

    def test_not_in_span(self):
        # e_2 = x1 x2 is symmetric but outside the odd power-sum span
        with pytest.raises(NotInSpan):
            expand_in_power_sums(Polynomial.monomial(2, (1, 1)), 2, 2)

    def test_zero(self):
        assert expand_in_power_sums(Polynomial.zero(3), 3, 0) == {}

    def test_non_homogeneous_input(self):
        # degrees 0, 4 and 5 and none of 1..3: the expansion is the sum of its parts' expansions
        n = 5
        parts = [Polynomial.constant(n, 3), schur_q(StrictPartition((3, 1)), n), schur_q(StrictPartition((5,)), n)]
        want = {}
        for part in parts:
            for nu, c in expand_in_power_sums(part, n, 5).items():
                want[nu] = want.get(nu, 0) + c
        assert len(want) == 1 + 2 + 3
        assert expand_in_power_sums(parts[0] + parts[1] + parts[2], n, 5) == want

    def test_fewer_variables_than_degree(self):
        # the odd power-sum products of degree d span Gamma^d, of dimension the number of
        # strict partitions of d, and in n variables only those with at most n parts count:
        # the coefficients are unique iff n >= k(d), the largest length of a strict partition
        # of d, not iff n >= d (degree 7 needs 3 variables)
        for d in range(1, 13):
            k = max(lam.length for lam in strict_partitions(d))
            q = StrictPartition((d,))
            at_k = expand_in_power_sums(schur_q(q, k), k, d)
            assert at_k == expand_in_power_sums(schur_q(q, k + 1), k + 1, d), d
            if k >= 2:
                with pytest.raises(ValueError, match=f"degree {d} are dependent in {k - 1} variables"):
                    expand_in_power_sums(schur_q(q, k - 1), k - 1, d)
        # at degree 5, k = 2 variables suffice, and the expansion rebuilds Q_(5)
        q5 = schur_q(StrictPartition((5,)), 2)
        e = expand_in_power_sums(q5, 2, 5)
        total = Polynomial.zero(2)
        for nu, c in e.items():
            total = total + char_map(nu, 2).scale(c / 2**nu.length)
        assert total == q5


class TestExpandOnDominantMonomials:
    # the expansion solves on dominant monomials only; check it on every monomial
    @pytest.mark.parametrize("weight", range(1, 7))
    def test_full_polynomial_and_full_row_solve(self, weight):
        nus = list(odd_cycle_types(weight))
        for lam in strict_partitions(weight):
            for n in (weight, weight + 1):
                q = schur_q(lam, n)
                e = expand_in_power_sums(q, n, weight)
                total = Polynomial.zero(n)
                for nu, c in e.items():
                    total = total + power_sum_product(nu.parts, n).scale(c)
                assert total == q, (lam, n)
                basis = [power_sum_product(nu.parts, n) for nu in nus]
                full = [row[0] for row in linalg.coordinates(basis, [q])]
                assert e == {nu: c for nu, c in zip(nus, full) if c}, (lam, n)

    @pytest.mark.parametrize("mu, n", [((1, 1), 3), ((2, 2), 4)])
    def test_symmetric_outside_the_odd_span(self, mu, n):
        with pytest.raises(NotInSpan):
            expand_in_power_sums(monomial_symmetric(mu, n), n, sum(mu))


class TestPlacementCount:
    def test_matches_power_sum_product(self):
        # the coefficient of x^mu in p_nu, on every dominant mu with at most n parts,
        # of nu's weight (expand's rows) or of another (where it is 0)
        for d in range(9):
            memo = {}
            for nu in odd_cycle_types(d):
                for n in range(1, 7):
                    p = power_sum_product(nu.parts, n)
                    for w in range(9):
                        for mu in partitions(w, max_length=n):
                            exps = mu + (0,) * (n - len(mu))
                            assert _placements(nu.parts, mu, memo) == p.coefficient(exps), (nu, mu, n)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, data):
        d = data.draw(st.integers(min_value=0, max_value=6), label="degree")
        n = data.draw(st.integers(min_value=max(d, 1), max_value=7), label="n")
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        nus = [nu for w in range(d + 1) for nu in odd_cycle_types(w)]
        cs = data.draw(st.lists(coeff, min_size=len(nus), max_size=len(nus)), label="c")
        total = Polynomial.zero(n)
        for nu, c in zip(nus, cs):
            total = total + power_sum_product(nu.parts, n).scale(c)
        assert expand_in_power_sums(total, n, d) == {nu: c for nu, c in zip(nus, cs) if c}

    def test_no_product_is_built(self, monkeypatch):
        q = schur_q(StrictPartition((3, 2, 1)), 6)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Polynomial, "__mul__", counted(Polynomial.__mul__))
        monkeypatch.setattr(qfunctions, "power_sum_product", counted(power_sum_product))
        e = expand_in_power_sums(q, 6, 6)
        assert calls == []
        assert e == {
            OddCycleType((5, 1)): Fraction(8, 5),
            OddCycleType((3, 3)): Fraction(-8, 9),
            OddCycleType((3, 1, 1, 1)): Fraction(-8, 9),
            OddCycleType((1,) * 6): Fraction(8, 45),
        }


class TestSupersymmetry:
    def test_q21(self):
        assert is_supersymmetric(schur_q(StrictPartition((2, 1)), 3), 3)

    def test_elementary_symmetric_fails(self):
        e2 = Polynomial.monomial(2, (1, 1))
        assert not is_supersymmetric(e2, 2)

    def test_constant(self):
        assert is_supersymmetric(Polynomial.constant(2, 5), 2)

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetric):
            is_supersymmetric(Polynomial.monomial(2, (1, 0)), 2)

    def test_variable_count_must_match(self):
        # p_2(t, -t) = 2t^2, so a wrong n must not reach the n < 2 shortcut
        assert not is_supersymmetric(power_sum(2, 2), 2)
        with pytest.raises(VariableCountMismatch):
            is_supersymmetric(power_sum(2, 2), 1)

    def test_all_schur_q(self):
        for d in range(1, 7):
            for lam in strict_partitions(d):
                for n in (2, 3):
                    assert is_supersymmetric(schur_q(lam, n), n)


class TestShiftedTableaux:
    def test_single_row(self):
        for k in (1, 3, 7):
            assert shifted_tableaux_count(StrictPartition((k,))) == 1

    def test_known_values(self):
        assert shifted_tableaux_count(StrictPartition((2, 1))) == 1
        assert shifted_tableaux_count(StrictPartition((3, 2, 1))) == 2

    def test_formula_matches_enumeration(self):
        for d in range(1, 9):
            for lam in strict_partitions(d):
                assert shifted_tableaux_count(lam) == shifted_tableaux_enumerate(lam)


class TestMarkedShiftedTableaux:
    def test_q1_and_q21(self):
        assert marked_shifted_tableaux(StrictPartition((1,)), 2) == {(1, 0): 2, (0, 1): 2}
        # Q_(2,1)(x_1, x_2) = 4 x_1 x_2 (x_1 + x_2)
        assert marked_shifted_tableaux(StrictPartition((2, 1)), 2) == {(2, 1): 4, (1, 2): 4}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_schur_q_counts_marked_shifted_tableaux(self, n):
        # shares no code with pfaffian or q_two: the coefficient of x^mu is the
        # number of marked shifted tableaux of shape lambda and weight mu
        for d in range(0, 9):
            for lam in strict_partitions(d):
                assert schur_q(lam, n) == Polynomial(n, marked_shifted_tableaux(lam, n)), lam


def test_monomial_symmetric_basis():
    m = monomial_symmetric((2, 1), 3)
    assert m.is_symmetric()
    assert len(m.terms) == 6
    assert monomial_symmetric((1, 1, 1, 1), 3).is_zero()
