from fractions import Fraction
from itertools import combinations, islice, permutations, product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurq.algebra import Factor, NotDivisible, Polynomial, RationalFunction, exact_divide
from schurq.operators import (
    auxiliary_functions,
    conjugated_apply,
    delta,
    delta_inverse,
    euler_cubes,
    family_levels,
    family_step,
    omega,
    omega3_closed,
    sum_cubes,
    tilde_family_step,
    tilde_levels,
    tilde_omega,
    _lift,
)
from schurq import operators
from schurq.qfunctions import (
    StrictPartition,
    monomial_symmetric,
    partitions,
    schur_q,
    strict_partitions,
)

from schurq.algebra import VariableCountMismatch

from conftest import polynomials
from oracles import coeff_c, coeff_d, coeff_minus, coeff_plus


def x(n, i):
    return Polynomial.monomial(n, (0,) * (i - 1) + (1,) + (0,) * (n - i))


def full_rows(n, c):
    """The coefficient table of an n-component walk: c = 2 for family_step, c = 1 for tilde_family_step."""
    return operators._rows(n, c, symmetric=False)


class TestEulerDerivative:
    def test_monomial(self):
        p = Polynomial.monomial(1, (3,))
        assert _lift(p, p.n).euler(1) == RationalFunction.from_polynomial(p.scale(3))

    def test_constant(self):
        assert _lift(Polynomial.constant(2, 7), 2).euler(1).is_zero()

    def test_quotient_rule(self):
        r = RationalFunction(x(2, 1), {Factor("diff", 1, 2): 1})
        expected = RationalFunction(-(x(2, 1) * x(2, 2)), {Factor("diff", 1, 2): 2})
        assert r.euler(1) == expected

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            _lift(Polynomial.zero(2), 2).euler(3)


class TestDerivativeFamily:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_n1_levels(self, m):
        f = Polynomial.monomial(1, (m,))
        fam1, fam2, fam3 = islice(family_levels(f, 1), 3)
        assert fam1[0] == RationalFunction.from_polynomial(f.scale(m))
        assert fam2[0] == RationalFunction.from_polynomial(f.scale(m * (m - 1)))
        assert fam3[0] == RationalFunction.from_polynomial(f.scale(m * m * (m - 1)))

    def test_constant_input_all_zero(self):
        f = Polynomial.constant(3, 4)
        for level in islice(family_levels(f, 3), 4):
            assert all(v.is_zero() for v in level)


class TestLevelIterators:
    def test_family_levels_follow_the_recursion(self):
        n = 3
        f = schur_q(StrictPartition((3, 1)), n)
        values = [_lift(f, f.n).euler(i) for i in range(1, n + 1)]
        for level, got in enumerate(islice(family_levels(f, n), 5), 1):
            if level > 1:
                values = family_step(values, level, full_rows(n, 2))
            assert got == values

    def test_tilde_levels_follow_the_recursion(self):
        n = 3
        f = schur_q(StrictPartition((3, 1)), n)
        level1 = [_lift(f, f.n).euler(i) for i in range(1, n + 1)]
        pair = level1, level1
        for level, got in enumerate(islice(tilde_levels(f, n), 4), 1):
            if level > 1:
                pair = tilde_family_step(*pair, full_rows(n, 1))
            assert got == pair


def _inputs(n):
    """Q_lambda, m_mu, the constant 1 and a non-symmetric monomial, in n variables."""
    return {
        "Q_31": schur_q(StrictPartition((3, 1)), n),
        "m_21": monomial_symmetric((2, 1), n),
        "1": Polynomial.constant(n, 1),
        "x^e": Polynomial.monomial(n, (2, 1) + (0,) * (n - 2)),
    }


class TestLevelSums:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["Q_31", "m_21", "1", "x^e"])
    def test_omegas_are_the_odd_omegas(self, n, name):
        f = _inputs(n)[name]
        assert list(islice(operators.omegas(f, n), 4)) == [omega(f, k, n) for k in (1, 3, 5, 7)]

    def test_a_level_is_summed_when_it_is_read(self, monkeypatch):
        calls = []
        real = operators._total
        monkeypatch.setattr(operators, "_total", lambda level: calls.append(level) or real(level))
        walk = operators.omegas(schur_q(StrictPartition((2, 1)), 3), 3)
        assert calls == []
        next(walk), next(walk)
        assert len(calls) == 1  # Omega_1 is the Euler derivation of the input, not a level sum


class TestVariableCount:
    # x1*x2*x3 has 3 variables; Omega_1 in 2 of them once returned 2*x1*x2*x3
    F = Polynomial.monomial(3, (1, 1, 1))
    CALLS = {
        "omega": lambda f, n: omega(f, 1, n),
        "omegas": lambda f, n: next(operators.omegas(f, n)),
        "tilde_omega": lambda f, n: tilde_omega(f, 1, n),
        "family_levels": lambda f, n: next(family_levels(f, n)),
        "tilde_levels": lambda f, n: next(tilde_levels(f, n)),
        "sum_cubes": sum_cubes,
        "omega3_closed": omega3_closed,
    }

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_other_variable_counts_are_refused(self, name, n):
        with pytest.raises(VariableCountMismatch):
            self.CALLS[name](self.F, n)
        with pytest.raises(VariableCountMismatch):
            self.CALLS[name](RationalFunction.from_polynomial(self.F), n)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_own_variable_count_is_accepted(self, name):
        assert self.CALLS[name](self.F, 3) is not None

    def test_omega1_is_the_degree_in_three_variables(self):
        assert omega(self.F, 1, 3) == RationalFunction.from_polynomial(self.F.scale(3))


class TestOmega:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            omega(Polynomial.zero(2), 2, 2)

    def test_omega1_is_degree(self):
        for d in range(1, 6):
            for lam in strict_partitions(d, max_length=3):
                f = schur_q(lam, 3)
                assert omega(f, 1, 3) == RationalFunction.from_polynomial(f.scale(d))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_omega3_on_q2(self, n):
        f = schur_q(StrictPartition((2,)), n)
        assert omega(f, 3, n) == RationalFunction.from_polynomial(f.scale(4))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_omega3_kills_q21(self, n):
        f = schur_q(StrictPartition((2, 1)), n)
        assert omega(f, 3, n).is_zero()

    def test_symmetric_image(self):
        from schurq.qfunctions import monomial_symmetric

        f = monomial_symmetric((2, 1), 3)
        for k in (1, 3):
            image = omega(f, k, 3)
            if image.is_polynomial():
                assert image.as_polynomial().is_symmetric()


def level_1_sum(g, n):
    """Omega_1 g by its definition: the sum of the components D_i g of level 1."""
    return operators._total(list(next(family_levels(g, n))))


def rational_functions(n):
    """f over up to three binomials with multiplicities up to 2, f inhomogeneous with Fraction coefficients."""
    binomials = [Factor(kind, i, j) for kind in ("diff", "sum") for i, j in combinations(range(1, n + 1), 2)]
    den = st.dictionaries(st.sampled_from(binomials), st.integers(1, 2), max_size=3)
    return st.builds(RationalFunction, polynomials(n, max_degree=4, max_terms=4), den)


class TestOmega1IsTheEulerDerivation:
    # omega(g, 1, n) reads g alone; level_1_sum builds and adds the n quotient rules D_i g

    @given(st.integers(2, 4).flatmap(rational_functions))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_level_1_sum(self, g):
        image = omega(g, 1, g.n)
        assert image == level_1_sum(g, g.n)
        assert all(type(c) is int or c.denominator > 1 for c in image.num.terms.values())

    def test_delta_times_a_monomial(self):
        n = 3
        g = delta(n) * RationalFunction.from_polynomial(Polynomial.monomial(n, (2, 1, 0)))
        assert omega(g, 1, n) == level_1_sum(g, n)
        assert omega(g, 1, n) == g.scale(3)  # delta has degree 0

    def test_an_inhomogeneous_numerator_gains_a_factor(self):
        # (x1 + x1^2 - x2^2)/(x1 - x2) is reduced; E N - N = x1^2 - x2^2 divides
        n = 2
        x1, x2 = x(n, 1), x(n, 2)
        g = RationalFunction(x1 + x1 * x1 - x2 * x2, {Factor("diff", 1, 2): 1})
        assert g.den == {Factor("diff", 1, 2): 1}
        for image in (omega(g, 1, n), level_1_sum(g, n)):
            assert image.num == x1 + x2 and image.den == {}

    def test_a_squared_factor_counts_twice(self):
        g = RationalFunction(Polynomial.monomial(2, (3, 0)), {Factor("diff", 1, 2): 2})  # degree 3 - 2 = 1
        assert omega(g, 1, 2) == g
        assert level_1_sum(g, 2) == g

    def test_coefficients_stay_canonical(self):
        g = Polynomial(2, {(2, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)})
        image = omega(g, 1, 2)
        assert image == Polynomial(2, {(2, 0): 1, (1, 0): Fraction(1, 3)})
        assert type(image.num.coefficient((2, 0))) is int
        assert image == level_1_sum(g, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("name", ["Q_31", "m_21", "1", "x^e"])
    def test_omegas_yields_the_same_omega1(self, n, name):
        f = _inputs(n)[name]
        first = next(operators.omegas(f, n))
        assert first == omega(f, 1, n) == level_1_sum(f, n)


class TestOmega3Closed:
    def test_constant(self):
        assert omega3_closed(Polynomial.constant(3, 9), 3).is_zero()

    def test_agrees_with_recursion_on_q2(self):
        f = schur_q(StrictPartition((2,)), 2)
        assert omega3_closed(f, 2) == omega(f, 3, 2)

    def test_q3_eigenvalue_18(self):
        f = schur_q(StrictPartition((3,)), 3)
        assert omega3_closed(f, 3) == RationalFunction.from_polynomial(f.scale(18))

    def test_agrees_with_recursion_on_monomials(self):
        # the bare level-3 sum reproduces the closed form, square term included
        n = 3
        for exps in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (3, 0, 1)]:
            f = Polynomial.monomial(n, exps)
            assert omega3_closed(f, n) == omega(f, 3, n)


class TestTildeFamily:
    def test_level_one(self):
        # symmetric inputs build components 2..n by transposition, the others by D_i
        for n in (2, 3, 4):
            inputs = _inputs(n)
            inputs["delta Q_21"] = delta(n) * _lift(schur_q(StrictPartition((2, 1)), n), n)
            for name, f in inputs.items():
                g = _lift(f, n)
                plain, barred = next(tilde_levels(g, n))
                for level in (next(family_levels(g, n)), plain, barred):
                    assert len(level) == n
                    assert all(level[i - 1] == g.euler(i) for i in range(1, n + 1)), (name, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tilde_omega1_is_the_level_1_sum(self, n):
        # tilde Omega_1 = 2E by the definition of level 1 (plain = barred = D_i f), not by Lemma 1.21
        inputs = {
            "Q_31": schur_q(StrictPartition((3, 1)), n),
            "m_21": monomial_symmetric((2, 1), n),
            "x^e": Polynomial.monomial(n, (1, 2) + (0,) * (n - 2)),
            "delta Q_21": delta(n) * _lift(schur_q(StrictPartition((2, 1)), n), n),
        }
        for name, f in inputs.items():
            plain, barred = next(tilde_levels(f, n))
            want = sum((p + b for p, b in zip(plain, barred)), RationalFunction.zero(n))
            assert tilde_omega(f, 1, n) == want, (name, n)

    def test_one_variable_still_walks(self):
        # n = 1: a symmetric walk whose row 1 is empty; Q_(2) = 2x1^2, D^(k) on x1^2 is 2, 2, 4, 4, 8
        f = schur_q(StrictPartition((2,)), 1)
        assert omega(f, 5, 1) == Polynomial.monomial(1, (2,), 16)
        assert tilde_omega(f, 3, 1) == Polynomial.monomial(1, (2,), 24)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_omega_relations(self, n):
        f = schur_q(StrictPartition((2,)), n)
        om1 = omega(f, 1, n)
        om3 = omega(f, 3, n)
        assert tilde_omega(f, 1, n) == om1.scale(2)
        assert tilde_omega(f, 2, n) == om1.scale(2)
        assert tilde_omega(f, 3, n) == om3.scale(2) + om1.scale(2)
        assert tilde_omega(f, 4, n) == om3.scale(4) + om1.scale(2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: monomial_symmetric((1,), n),
            lambda n: monomial_symmetric((2,), n),
            lambda n: monomial_symmetric((1, 1), n),
            lambda n: monomial_symmetric((2, 1), n),
            lambda n: Polynomial.monomial(n, (2, 1) + (0,) * (n - 2)),
            lambda n: Polynomial.monomial(n, (0,) * (n - 1) + (3,)),
        ],
        ids=["m1", "m2", "m11", "m21", "x1^2x2", "xn^3"],
    )
    def test_sum_difference_coordinates(self, n, make):
        # with s = plain + barred and t = barred - plain one tilde step is
        #   s' = s - O(t),  t' = -E(s),
        # O and E the plain family's odd and even steps.  Level 1 has s = 2 D_i f
        # and t = 0, so s_k = sum_j a_k[j] P_(2j+1) over the odd plain levels P,
        # with a_(k+1) = a_k + (a_(k-1) raised by one odd index).
        a = [[2], [2]]  # a[k - 1][j]: the coefficient of P_(2j+1) in s_k
        while len(a) < 4:
            a.append([x + y for x, y in zip_longest(a[-1], [0] + a[-2], fillvalue=0)])
        assert a[2:] == [[2, 2], [2, 4]]  # tilde Omega_3 and tilde Omega_4
        f = make(n)
        plain_levels = list(islice(family_levels(f, n), 3))
        s_prev = t_prev = None
        for k, (plain, barred) in enumerate(islice(tilde_levels(f, n), 4), 1):
            s = [p + b for p, b in zip(plain, barred)]
            t = [b - p for p, b in zip(plain, barred)]
            if k == 1:
                assert all(v.is_zero() for v in t)
            else:
                assert s == [u - v for u, v in zip(s_prev, family_step(t_prev, 3, full_rows(n, 2)))], k
                assert t == [-v for v in family_step(s_prev, 2, full_rows(n, 2))], k
            want = [RationalFunction.zero(n)] * n
            for c, level in zip(a[k - 1], plain_levels[::2]):
                want = [w + v.scale(c) for w, v in zip(want, level)]
            assert s == want, k
            s_prev, t_prev = s, t

    def test_plus_minus_recursions(self):
        # the sum/difference combinations of the pair satisfy:
        #   S_i^{(k)} - S_i^{(k-1)} = D_i M_i^{(k-1)}
        #                             + sum_j 2x_ix_j/(x_i^2-x_j^2)(M_i - M_j)
        #   M_i^{(k)} = (D_i - 1) S_i^{(k-1)}
        #               + sum_j [2x_ix_j/(..) S_i - 2x_i^2/(..) S_j]
        # with S = plain + barred, M = plain - barred.
        n = 2
        f = schur_q(StrictPartition((2,)), n)
        levels = list(islice(tilde_levels(f, n), 4))
        prev_plain, prev_barred = levels[0]
        for k in range(2, 5):
            plain, barred = levels[k - 1]
            s_prev = [a + b for a, b in zip(prev_plain, prev_barred)]
            m_prev = [a - b for a, b in zip(prev_plain, prev_barred)]
            s_new = [a + b for a, b in zip(plain, barred)]
            m_new = [a - b for a, b in zip(plain, barred)]
            for i in range(1, n + 1):
                rhs_s = m_prev[i - 1].euler(i)
                rhs_m = s_prev[i - 1].euler(i) - s_prev[i - 1]
                for j in range(1, n + 1):
                    if j == i:
                        continue
                    rhs_s = rhs_s + coeff_c(n, i, j) * (m_prev[i - 1] - m_prev[j - 1])
                    rhs_m = (
                        rhs_m
                        + coeff_c(n, i, j) * s_prev[i - 1]
                        - coeff_d(n, i, j) * s_prev[j - 1]
                    )
                assert s_new[i - 1] - s_prev[i - 1] == rhs_s, (k, i)
                assert m_new[i - 1] == rhs_m, (k, i)
            prev_plain, prev_barred = plain, barred


class TestCoefficientSigns:
    def test_swapped_pairs(self):
        # each identity fails if a swapped difference does not negate the sign
        n = 4
        one, two = RationalFunction.constant(n, 1), RationalFunction.constant(n, 2)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                assert coeff_c(n, i, j) == -coeff_c(n, j, i)
                assert coeff_d(n, i, j) + coeff_d(n, j, i) == two
                assert coeff_minus(n, i, j) + coeff_minus(n, j, i) == one
                assert coeff_plus(n, i, j) + coeff_plus(n, j, i) == one


class TestPairRows:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_times_inv_are_the_textbook_coefficients(self, n):
        # the rows with i > j run only on the n-component path; there inv
        # alone carries the sign of the reversed difference
        plain, tilde = full_rows(n, 2), full_rows(n, 1)
        for i in range(1, n + 1):
            assert [j for j, *_ in plain[i - 1]] == [j for j in range(1, n + 1) if j != i]
            for (j, cn, dn, inv), (tj, mixed, square, tilde_inv) in zip(plain[i - 1], tilde[i - 1]):
                assert cn * inv == coeff_c(n, i, j), (i, j)
                assert dn * inv == coeff_d(n, i, j), (i, j)
                assert tj == j and tilde_inv == inv
                assert square * inv == coeff_minus(n, i, j) * coeff_plus(n, i, j), (i, j)
                assert mixed * inv == coeff_minus(n, i, j) * coeff_plus(n, j, i), (i, j)


class TestFractionBuilder:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_values_are_reduced_with_their_full_denominator(self, monkeypatch, n):
        # the constructor tries no division on a monomial numerator, so each
        # value must be reduced as built: no factor divides the numerator,
        # which is what trial division in the constructor used to find
        built = []
        original = operators._fraction

        def recorded(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(operators, "_fraction", recorded)
        full_rows(n, 2), full_rows(n, 1)
        rows, built = built, []
        for i in range(1, n + 1):
            auxiliary_functions(i, n)
        omega3_closed(x(n, 1), n)
        pairs, triples = n * (n - 1) // 2, n * (n - 1) * (n - 2) // 2
        assert len(rows) == 2 * 3 * 2 * pairs
        assert len(built) == (2 * 2 * pairs + triples) + (2 * pairs + triples)
        for value in rows + built:
            assert len(value.num.terms) == 1
            for f in value.den:
                with pytest.raises(NotDivisible):
                    exact_divide(value.num, f)
        for value in built:
            assert sum(value.den.values()) == value.num.degree()  # each coefficient has degree 0
        for value in rows:
            assert not value.den or value.num.degree() == 0  # a monomial numerator, or inv

    def test_zero_coefficient(self):
        value = operators._fraction(3, 0, (1, 2), [(2, 1)], [(1, 2)])
        assert value.is_zero() and value.den == {}
        assert value == RationalFunction.zero(3)

    def test_coefficient_rows_make_no_division(self, monkeypatch):
        from schurq import algebra

        counts = {"divisions": 0, "in_rows": 0, "rows": 0}
        in_rows = []
        divide, rows = algebra.exact_divide, operators._rows

        def counted_divide(p, f):
            counts["divisions"] += 1
            counts["in_rows"] += bool(in_rows)
            return divide(p, f)

        def counted_rows(*args, **kwargs):
            counts["rows"] += 1
            in_rows.append(True)
            try:
                return rows(*args, **kwargs)
            finally:
                in_rows.pop()

        monkeypatch.setattr(algebra, "exact_divide", counted_divide)
        monkeypatch.setattr(operators, "_rows", counted_rows)
        q = schur_q(StrictPartition((4, 2, 1)), 4)
        monomial = Polynomial.monomial(3, (2, 1, 0))
        omega(q, 5, 4)
        tilde_omega(q, 3, 4)
        omega(monomial, 3, 3)
        tilde_omega(monomial, 3, 3)
        assert counts["rows"] == 4 and counts["divisions"] > 0
        assert counts["in_rows"] == 0


def symmetric_inputs(n, kind, top):
    """Q_lambda ("Q") or m_mu ("m") in n variables with |lambda|, |mu| <= top."""
    for d in range(1, top + 1):
        if kind == "Q":
            for lam in strict_partitions(d, max_length=n):
                yield f"Q_{lam}", schur_q(lam, n)
        else:
            for mu in partitions(d, max_length=n):
                yield f"m_{mu}", monomial_symmetric(mu, n)


def n_component_walks(f, n):
    """The level-1 vector and the tilde pair, advanced by the two-argument steps."""
    level1 = [_lift(f, f.n).euler(i) for i in range(1, n + 1)]
    return level1, (level1, level1)


def assert_walks_match_n_component_steps(name, f, n, plain_top, tilde_top):
    """Levels 1..top of both walks of f equal the two-argument steps' by ==, component by component."""
    values, pair = n_component_walks(f, n)
    for level, got in enumerate(islice(family_levels(f, n), plain_top), 1):
        if level > 1:
            values = family_step(values, level, full_rows(n, 2))
        for i in range(n):
            assert got[i] == values[i], (name, level, i + 1)
    for level, got in enumerate(islice(tilde_levels(f, n), tilde_top), 1):
        if level > 1:
            pair = tilde_family_step(*pair, full_rows(n, 1))
        for part in (0, 1):
            for i in range(n):
                assert got[part][i] == pair[part][i], (name, level, part, i + 1)


class TestSymmetricPath:
    @pytest.mark.parametrize(
        "n, kind, top, plain_top, tilde_top",
        [
            *((n, kind, 5, 7, 4) for n in (1, 2, 3) for kind in ("Q", "m")),
            (4, "Q", 5, 7, 4),
            (4, "m", 3, 5, 3),
            # the orbit step from n = 1 (no pair) and n = 2 (no transpose)
            # to n = 5; the m_mu components carry denominators.  The
            # n-component reference walk on m_mu is the slow side: it takes
            # minutes past |mu| = 3 at n = 4, and (5, "m") is the longest case
            *((n, "Q", 6, 7 if n <= 4 else 5, 4) for n in (1, 2, 3, 4, 5)),
            (4, "m", 3, 7, 4),
            pytest.param(5, "m", 3, 5, 4, marks=pytest.mark.slow),
        ],
    )
    def test_equals_the_n_component_step(self, n, kind, top, plain_top, tilde_top):
        # the walks take the one-component path on these inputs, computing
        # the (1, 2) pair term of component 1 and its transposes; the
        # two-argument steps compute every component and every pair
        for name, f in symmetric_inputs(n, kind, top):
            assert_walks_match_n_component_steps(name, f, n, plain_top, tilde_top)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_rows_hold_the_pair_1_2_alone(self, n):
        for c in (2, 1):
            rows = operators._rows(n, c, symmetric=True)
            assert [[j for j, *_ in row] for row in rows] == [[2] if n > 1 else []]

    def test_fixed_by_the_stabiliser_of_x1_is_not_symmetric(self, monkeypatch):
        # x_1^2 (x_2 + x_3) is fixed by x_2 <-> x_3, as component 1 of a
        # symmetric walk is, but it is not symmetric: the orbit rule would be
        # wrong on it, so the gate must send it to the n-component step
        n = 3
        f = Polynomial.monomial(n, (2, 1, 0)) + Polynomial.monomial(n, (2, 0, 1))
        assert f.transposed(2, 3) == f and not f.is_symmetric()
        calls = self.count_transposes(monkeypatch)
        assert_walks_match_n_component_steps("x1^2(x2+x3)", f, n, 5, 5)
        assert calls == []

    @pytest.mark.parametrize("build", [coeff_c, coeff_d, coeff_minus, coeff_plus])
    @pytest.mark.parametrize("power", [1, 2])
    def test_transposed_coefficients(self, build, power):
        # the coefficients are built independently by _fraction; a transposition
        # that reverses a difference must negate once per odd multiplicity
        n = 4
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        swap = {a: b, b: a}
                        si, sj = swap.get(i, i), swap.get(j, j)
                        got = build(n, i, j)
                        want = build(n, si, sj)
                        if power == 2:
                            got, want = got * got, want * want
                        assert got.transposed(a, b) == want, (i, j, a, b)

    @staticmethod
    def count_transposes(monkeypatch):
        calls = []
        original = RationalFunction.transposed

        def counted(self, a, b):
            calls.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(RationalFunction, "transposed", counted)
        return calls

    def test_symmetric_input_fills_by_transposition(self, monkeypatch):
        n = 3
        f = schur_q(StrictPartition((2, 1)), n)
        calls = self.count_transposes(monkeypatch)
        omega(f, 5, n)
        # the steps to levels 2..5 read component 2 of levels 1..4, built by
        # x_1 <-> x_2; the orbits of Q_lambda's polynomial values are summed
        # by Polynomial.plus_transposes, so component 3 is never built
        assert calls == [(1, 2)] * 4
        calls.clear()
        tilde_omega(f, 3, n)
        # the step to level 2 reads component 2 of level 1, one object as plain
        # and barred; the step to level 3 that of plain and barred at level 2
        assert calls == [(1, 2)] * 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: Polynomial.monomial(n, (2, 1, 0)),
            lambda n: delta(n) * RationalFunction.from_polynomial(schur_q(StrictPartition((2, 1)), n)),
        ],
        ids=["monomial", "with-denominator"],
    )
    def test_other_inputs_take_the_n_component_step(self, monkeypatch, make):
        n = 3
        f = make(n)
        calls = self.count_transposes(monkeypatch)
        plain = list(islice(family_levels(f, n), 3))
        tilde = list(islice(tilde_levels(f, n), 3))
        assert calls == []
        values, pair = n_component_walks(f, n)
        for level in (2, 3):
            values = family_step(values, level, full_rows(n, 2))
            pair = tilde_family_step(*pair, full_rows(n, 1))
        assert plain[-1] == values and tilde[-1] == pair

    def test_coefficients_are_built_once_per_walk(self, monkeypatch):
        # each walk builds one table: (c, its number of entries); c = 2 plain, c = 1 tilde
        n = 3
        built = []
        original = operators._rows

        def counted(n, c, symmetric):
            rows = original(n, c, symmetric)
            built.append((c, sum(map(len, rows))))
            return rows

        monkeypatch.setattr(operators, "_rows", counted)
        q = schur_q(StrictPartition((3, 1)), n)
        monomial = Polynomial.monomial(n, (1, 2, 0))
        for f in (q, monomial):
            omega(f, 1, n)
            tilde_omega(f, 1, n)
            list(islice(family_levels(f, n), 1))
            list(islice(tilde_levels(f, n), 1))
        assert built == []  # level 1 needs no coefficient
        for f, pairs in ((q, 1), (monomial, n * (n - 1))):
            built.clear()
            omega(f, 5, n)  # four steps
            assert built == [(2, pairs)]
            built.clear()
            tilde_omega(f, 4, n)  # three steps
            assert built == [(1, pairs)]

    def test_symmetric_is_decided_once_per_walk(self, monkeypatch):
        calls = []
        original = operators._symmetric
        monkeypatch.setattr(operators, "_symmetric", lambda g: calls.append(g) or original(g))
        n = 3
        for f in (schur_q(StrictPartition((3, 1)), n), Polynomial.monomial(n, (1, 2, 0))):
            calls.clear()
            omega(f, 1, n), tilde_omega(f, 1, n)
            assert calls == []  # Omega_1 and tilde Omega_1 take no walk
            omega(f, 5, n)
            tilde_omega(f, 4, n)
            list(islice(operators.omegas(f, n), 3))
            assert len(calls) == 3  # one per walk, at level 1


class TestLazyLevel:
    @staticmethod
    def level_of(f, n, k):
        level = next(islice(family_levels(f, n), k - 1, None))
        assert isinstance(level, operators._Level)
        return level

    @pytest.mark.parametrize("kind", ["Q", "m"])
    def test_read_in_any_order_equals_the_eager_transposes(self, monkeypatch, kind):
        # m_(2,1)'s components carry denominators, Q_(3,1)'s do not
        n = 4
        f = schur_q(StrictPartition((3, 1)), n) if kind == "Q" else monomial_symmetric((2, 1), n)
        first = self.level_of(f, n, 3)[0]
        eager = [first] + [first.transposed(1, j) for j in range(2, n + 1)]
        calls = TestSymmetricPath.count_transposes(monkeypatch)
        for order in permutations(range(n)):
            level = operators._Level(first, n)
            calls.clear()
            for i in order + order:
                assert level[i] == eager[i], (order, i)
            assert sorted(calls) == [(1, j) for j in range(2, n + 1)]  # each component once
            assert level[-1] == eager[-1] and level[1:3] == eager[1:3]
            assert level == eager and eager == level and list(level) == eager
        assert operators._Level(first, n) != eager[:3] and operators._Level(first, n) != eager[::-1]
        with pytest.raises(IndexError):
            operators._Level(first, n)[n]

    def test_levels_compare_with_tuples_and_levels(self):
        n = 3
        level = self.level_of(schur_q(StrictPartition((3, 1)), n), n, 3)
        assert level == tuple(level) and level == operators._Level(level[0], n)
        assert level != operators._Level(level[1], n)


def two_product_step(prev, level):
    """family_step in its textbook form, one product per coefficient.

    Odd level:  D_i p_i + sum_j c_ij (p_i - p_j).
    Even level: (D_i - 1) p_i + sum_j c_ij p_i - d_ij p_j.
    """
    n = len(prev)
    out = []
    for i in range(1, n + 1):
        pi = prev[i - 1]
        acc = pi.euler(i) if level % 2 else pi.euler(i) - pi
        for j in range(1, n + 1):
            if j == i:
                continue
            if level % 2:
                acc = acc + coeff_c(n, i, j) * (pi - prev[j - 1])
            else:
                acc = acc + coeff_c(n, i, j) * pi - coeff_d(n, i, j) * prev[j - 1]
        out.append(acc)
    return out


def two_product_tilde_step(plain, barred):
    """tilde_family_step as written in its docstring, one product per coefficient."""
    n = len(plain)
    new_plain, new_barred = [], []
    for i in range(1, n + 1):
        pi, bi = plain[i - 1], barred[i - 1]
        acc_p = pi.euler(i)
        acc_b = pi + bi - bi.euler(i)
        for j in range(1, n + 1):
            if j != i:
                cm, cp = coeff_minus(n, i, j), coeff_plus(n, i, j)
                acc_p = acc_p + cm * (pi - plain[j - 1]) - cp * (pi + barred[j - 1])
                acc_b = acc_b - cm * (bi - barred[j - 1]) + cp * (bi + plain[j - 1])
        new_plain.append(acc_p)
        new_barred.append(acc_b)
    return new_plain, new_barred


N_COMPONENT_INPUTS = pytest.mark.parametrize(
    "make",
    [
        lambda n: Polynomial.monomial(n, (2, 1, 0)),
        lambda n: delta(n) * RationalFunction.from_polynomial(schur_q(StrictPartition((2, 1)), n)),
        lambda n: monomial_symmetric((2, 1), n),
    ],
    ids=["monomial", "with-denominator", "m21"],
)


class TestEvenStep:
    def test_eigenfunction_steps_never_miss_a_division(self, monkeypatch):
        # each pair adds one fraction over (x_i - x_j)(x_i + x_j); on Q_lambda
        # its numerator divides by both binomials, so a step tries no
        # division that fails
        from schurq import algebra

        counts = {"step_calls": 0, "step_misses": 0}
        in_step = []
        divide, step = algebra.exact_divide, operators.family_step

        def counted_divide(p, f):
            counts["step_calls"] += bool(in_step)
            try:
                return divide(p, f)
            except algebra.NotDivisible:
                counts["step_misses"] += bool(in_step)
                raise

        def counted_step(*args):
            in_step.append(True)
            try:
                return step(*args)
            finally:
                in_step.pop()

        monkeypatch.setattr(algebra, "exact_divide", counted_divide)
        monkeypatch.setattr(operators, "family_step", counted_step)
        omega(schur_q(StrictPartition((4, 2, 1)), 4), 5, 4)
        assert counts["step_calls"] > 0
        assert counts["step_misses"] == 0

    @N_COMPONENT_INPUTS
    def test_n_component_step_equals_two_products(self, make):
        # levels 2..5: both parities against the textbook coefficients
        n = 3
        values = [_lift(make(n), n).euler(i) for i in range(1, n + 1)]
        for level in range(2, 6):
            want = two_product_step(values, level)
            values = family_step(values, level, full_rows(n, 2))
            assert values == want, level
            if level == 3:
                assert any(v.den for v in values)


class TestTildeStep:
    @N_COMPONENT_INPUTS
    def test_n_component_step_equals_one_product_per_coefficient(self, make):
        n = 3
        level1 = [_lift(make(n), n).euler(i) for i in range(1, n + 1)]
        pair = level1, list(level1)
        for _ in range(3):
            want = two_product_tilde_step(*pair)
            pair = tilde_family_step(*pair, full_rows(n, 1))
            assert pair == want
        assert any(v.den for v in pair[0] + pair[1])


class TestDelta:
    def test_n1_is_one(self):
        assert delta(1) == RationalFunction.constant(1, 1)

    def test_n2(self):
        expected = RationalFunction(x(2, 1) + x(2, 2), {Factor("diff", 1, 2): 1})
        assert delta(2) == expected

    def test_n3_factor_count(self):
        d = delta(3)
        assert sum(d.den.values()) == 3

    def test_inverse(self):
        for n in (2, 3, 4):
            assert delta(n) * delta_inverse(n) == RationalFunction.constant(n, 1)


class TestConjugation:
    def test_identity_on_x1x2(self):
        n = 2
        f = Polynomial.monomial(n, (1, 1))
        assert conjugated_apply("omega3-closed", f, n) == euler_cubes(f, n)

    def test_on_constant_gives_zero(self):
        # delta^{-1} Omega_3 delta (1) must vanish with Omega_3 the full
        # closed form; the conjugated constant-coefficient operator kills
        # delta^{-1} outright.
        for n in (2, 3):
            one = Polynomial.constant(n, 1)
            assert conjugated_apply("omega3-closed", one, n).is_zero()
            assert euler_cubes(delta_inverse(n), n).is_zero()

    def test_sum_cubes_kills_delta_inverse(self):
        for n in (2, 3):
            assert sum_cubes(delta_inverse(n), n).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_both_sides_commute_with_every_transposition(self, n):
        # why conjugation_sweep checks one x^mu per S_n orbit: the image of
        # x^(sigma e) is sigma applied to the image of x^e, on either side
        grid = [e for e in product(range(4), repeat=n) if sum(e) <= 3]
        sides = {
            "conjugated": lambda f: conjugated_apply("omega3-closed", f, n),
            "euler_cubes": lambda f: euler_cubes(f, n),
        }
        for side, apply in sides.items():
            images = {e: apply(Polynomial.monomial(n, e)) for e in grid}
            for a, b in combinations(range(1, n + 1), 2):
                for e, image in images.items():
                    swapped = list(e)
                    swapped[a - 1], swapped[b - 1] = e[b - 1], e[a - 1]
                    assert images[tuple(swapped)] == image.transposed(a, b), (side, e, a, b)

    def test_unknown_operator(self):
        for op in ("omega5", "euler-cubes"):
            with pytest.raises(ValueError):
                conjugated_apply(op, Polynomial.zero(2), 2)


class TestAuxiliaryFunctions:
    def test_phi_n2(self):
        phi, _, _ = auxiliary_functions(1, 2)
        expected = RationalFunction(
            x(2, 1) * x(2, 2), {Factor("diff", 1, 2): 1, Factor("sum", 1, 2): 1}
        )
        assert phi == expected

    def test_theta_zero_at_n2(self):
        _, _, theta = auxiliary_functions(1, 2)
        assert theta.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity(self, n):
        for i in range(1, n + 1):
            phi, psi, theta = auxiliary_functions(i, n)
            expr = (
                theta.scale(24)
                - psi.scale(6)
                - (phi * phi).scale(12)
                - phi.euler(i).scale(6)
            )
            assert expr.is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            auxiliary_functions(3, 2)
