import ast
import inspect
from collections import Counter
from fractions import Fraction
from itertools import combinations, count

import pytest

from schurq import linalg, operators, qfunctions, spectra
from schurq.algebra import Factor, Polynomial, RationalFunction, VariableCountMismatch
from schurq.qfunctions import StrictPartition, monomial_symmetric, partitions, power_sum, schur_q, strict_partitions
from schurq.spectra import (
    eigen_check,
    hc_eigenvalue_omega3,
    lemma_121_sweep,
    omega_eigenvalue,
    uniqueness_sweep,
)

from oracles import (
    NotInRn,
    RnPolynomial,
    hc_eigenvalue_omega5,
    odd_power_sum_rn,
    pairwise_omega_eigenvalue,
    rn_eigenvalue,
    separation_check,
    tilde_omega_eigenvalue,
)


class TestEigenCheck:
    def test_omega3_on_2(self):
        rep = eigen_check(StrictPartition((2,)), "omega3", 2)
        assert rep.is_eigen and rep.eigenvalue == 4
        assert rep.residual.is_zero()

    def test_omega1_on_1(self):
        rep = eigen_check(StrictPartition((1,)), "omega1", 2)
        assert rep.is_eigen and rep.eigenvalue == 1

    def test_omega3_on_21(self):
        rep = eigen_check(StrictPartition((2, 1)), "omega3", 3)
        assert rep.is_eigen and rep.eigenvalue == 0

    def test_matches_formula(self):
        for d in range(1, 7):
            for lam in strict_partitions(d, max_length=3):
                rep = eigen_check(lam, "omega3", 3)
                assert rep.is_eigen
                assert rep.eigenvalue == hc_eigenvalue_omega3(lam)

    def test_eigenvalues_are_exact(self):
        eigen = 0
        for d in range(6):
            for lam in strict_partitions(d, max_length=3):
                for op in spectra.OPERATORS:
                    rep = eigen_check(lam, op, 3)
                    if rep.is_eigen:
                        eigen += 1
                        assert type(rep.eigenvalue) in (int, Fraction), (lam, op)
        assert eigen == 92

    def test_partition_too_long(self):
        with pytest.raises(ValueError):
            eigen_check(StrictPartition((2, 1)), "omega3", 1)

    @pytest.mark.parametrize("scale", [3, Fraction(3, 2), 0])
    def test_one_extra_monomial_is_the_residual(self, monkeypatch, scale):
        # the image matches c Q_lambda on every monomial of Q_lambda, and the
        # length check must still see the extra constant term
        lam, n = StrictPartition((2, 1)), 3
        extra = Polynomial.constant(n, 5)
        monkeypatch.setattr(spectra, "q_image", lambda op, lam, f, n: f.scale(scale) + extra)
        rep = eigen_check(lam, "omega3", n)
        assert not rep.is_eigen and rep.eigenvalue is None
        assert rep.residual == extra

    def test_non_eigen_reports_keep_their_residuals(self):
        # the residual of a failed check is image - c Q_lambda, c fitted on the lead monomial
        failed = 0
        for d in range(1, 6):
            for lam in strict_partitions(d, max_length=3):
                for op in spectra.OPERATORS:
                    rep = eigen_check(lam, op, 3)
                    if rep.is_eigen:
                        assert rep.residual.is_zero()
                        continue
                    failed += 1
                    f = schur_q(lam, 3)
                    lead_m, lead_c = f.leading_term()
                    c = Fraction(rep.image.coefficient(lead_m), lead_c)
                    assert rep.residual == rep.image - f.scale(c) and not rep.residual.is_zero()
        assert failed > 0

    def test_integral_eigenvalues_are_ints(self):
        rep = eigen_check(StrictPartition((3,)), "omega3", 2)
        assert type(rep.eigenvalue) is int and rep.eigenvalue == 18

    def test_json_shape(self):
        rep = eigen_check(StrictPartition((3,)), "omega3", 2)
        obj = rep.to_json_obj()
        assert obj == {
            "partition": "3",
            "operator": "omega3",
            "eigenvalue": "18",
            "isEigen": True,
        }


class TestOmegaChecks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reports_equal_eigen_check(self, n):
        for d in range(1, 6):
            for lam in strict_partitions(d, max_length=n):
                want = {k: eigen_check(lam, f"omega{k}", n) for k in (1, 3, 5)}
                assert spectra.omega_checks(lam, n) == want

    def test_partition_too_long(self):
        with pytest.raises(ValueError, match="longer than the variable count"):
            spectra.omega_checks(StrictPartition((2, 1)), 1)

    def test_an_image_with_a_denominator_is_refused(self, monkeypatch):
        leaky = RationalFunction.from_polynomial(Polynomial.constant(2, 1)) * operators.delta(2)
        monkeypatch.setattr(operators, "omegas", lambda f, n: iter([leaky]))
        with pytest.raises(spectra.DenominatorLeft):
            spectra.omega_checks(StrictPartition((1,)), 2)


class TestHcEigenvalue:
    def test_values(self):
        assert hc_eigenvalue_omega3(StrictPartition((1,))) == 0
        assert hc_eigenvalue_omega3(StrictPartition((3,))) == 18
        assert hc_eigenvalue_omega3(StrictPartition((3, 2, 1))) == 0

    def test_omega5_values(self):
        for lam in ((1,), (2,), (3,), (2, 1), (3, 1)):
            lam = StrictPartition(lam)
            assert hc_eigenvalue_omega5(lam) == eigen_check(lam, "omega5", 2).eigenvalue

    def test_eigenfunction_sweep_checks_omega5(self, monkeypatch):
        assert spectra.eigenfunction_sweep(2, 3).passed
        right = spectra.omega_eigenvalue
        monkeypatch.setattr(spectra, "omega_eigenvalue", lambda lam, k: right(lam, k) + (k == 5))
        report = spectra.eigenfunction_sweep(2, 3)
        assert not report.passed
        assert all("omega5 eigenvalue" in failure for failure in report.failures)


class TestOmegaEigenvalue:
    def test_equals_eigen_check(self):
        checked = 0
        for n, maxweight in ((2, 8), (3, 8), (4, 7)):
            for d in range(1, maxweight + 1):
                for lam in strict_partitions(d, max_length=n):
                    for k in (1, 3, 5, 7):
                        rep = eigen_check(lam, f"omega{k}", n)
                        assert rep.is_eigen and rep.eigenvalue == omega_eigenvalue(lam, k), (n, lam, k)
                        checked += 1
        assert checked == 4 * (20 + 24 + 18)

    def test_equals_harish_chandra_formulas(self):
        # pure arithmetic: every strict lambda with |lambda| <= 30
        checked = 0
        for d in range(1, 31):
            for lam in strict_partitions(d):
                assert omega_eigenvalue(lam, 1) == lam.weight
                assert omega_eigenvalue(lam, 3) == hc_eigenvalue_omega3(lam), lam
                assert omega_eigenvalue(lam, 5) == hc_eigenvalue_omega5(lam), lam
                checked += 1
        assert checked == 2034

    @pytest.mark.parametrize("k", [0, 2, -1])
    def test_refuses_even_and_nonpositive_k(self, k):
        with pytest.raises(ValueError):
            omega_eigenvalue(StrictPartition((2, 1)), k)

    def test_integral_values_are_ints(self):
        # the c_i can be fractions, 10/3 and 5/3 for lambda = (4, 1), but the sums are integral
        assert omega_eigenvalue(StrictPartition((3,)), 3) == 18
        for d in range(1, 13):
            for lam in strict_partitions(d):
                for k in (1, 3, 5, 7):
                    assert type(omega_eigenvalue(lam, k)) is int, (lam, k)


class TestSpectrumSeries:
    def test_equals_the_pairwise_oracle(self):
        # the series against its own partial fractions, on every strict lambda with |lambda| <= 20
        checked = 0
        for d in range(1, 21):
            for lam in strict_partitions(d):
                for k in range(1, 16, 2):
                    value = omega_eigenvalue(lam, k)
                    assert type(value) is int, (lam, k)
                    assert value == pairwise_omega_eigenvalue(lam, k), (lam, k)
                    checked += 1
        assert checked == 370 * 8

    def test_triangular_in_the_odd_power_sums(self):
        # (9,5,1) and (8,7) share p1 = 15 and p3 = 855, so they tie on Omega_1 and Omega_3;
        # eig(Omega_5) = p5 + a polynomial in p1 and p3, so it differs by p5 alone
        lam, mu = StrictPartition((9, 5, 1)), StrictPartition((8, 7))
        assert [omega_eigenvalue(lam, k) for k in (1, 3, 5)] == [15, 630, 39060]
        assert [omega_eigenvalue(mu, k) for k in (1, 3, 5)] == [15, 630, 26460]
        p5 = [sum(a**5 for a in nu.parts) for nu in (lam, mu)]
        assert p5 == [62175, 49575]
        assert omega_eigenvalue(lam, 5) - omega_eigenvalue(mu, 5) == p5[0] - p5[1] == 12600


class TestTildeSpectrum:
    def test_equals_the_lemma_121_combination(self):
        # tilde Omega_k = sum coef Omega_m (tilde_relation), on eigenvalues
        checked = 0
        for d in range(1, 26):
            for lam in strict_partitions(d):
                for k in range(1, 15):
                    _, combo = spectra.tilde_relation(k)
                    want = sum(c * omega_eigenvalue(lam, m) for m, c in combo.items())
                    assert tilde_omega_eigenvalue(lam, k) == want, (lam, k)
                    checked += 1
        assert checked == 903 * 14

    def test_equals_eigen_check(self):
        # the eigenvalues that `schurq eigen` prints for tilde-omega1..4
        checked = 0
        for n, maxweight in ((2, 7), (3, 7), (4, 5)):
            for d in range(1, maxweight + 1):
                for lam in strict_partitions(d, max_length=n):
                    for k in range(1, spectra.TILDE_LEVELS + 1):
                        rep = eigen_check(lam, f"tilde-omega{k}", n)
                        assert rep.is_eigen and rep.eigenvalue == tilde_omega_eigenvalue(lam, k), (n, lam, k)
                        checked += 1
        assert checked == 172


class TestRnPolynomial:
    def test_odd_power_sum_accepted(self):
        r = odd_power_sum_rn(3, 2)
        assert r.n == 2

    def test_first_power_sum_accepted(self):
        # sum t_i cancels to the free remainder, which is s-free
        r = odd_power_sum_rn(1, 3)
        assert rn_eigenvalue(r, StrictPartition((3, 1)), 3) == 4

    def test_even_power_sum_rejected(self):
        with pytest.raises(NotInRn):
            RnPolynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))  # sum t_i^2

    def test_asymmetric_rejected(self):
        with pytest.raises(NotInRn):
            RnPolynomial(Polynomial.monomial(2, (1, 0)))

    def test_constant_eigenvalue(self):
        one = RnPolynomial(Polynomial.constant(3, 1))
        for parts in [(1,), (3, 2), (4, 2, 1)]:
            assert rn_eigenvalue(one, StrictPartition(parts), 3) == 1

    def test_float_point_refused(self):
        r = odd_power_sum_rn(1, 2)
        with pytest.raises(TypeError):
            r.eval_at([0.5, 0.1])
        with pytest.raises(VariableCountMismatch):
            r.eval_at([1])
        assert r.eval_at([Fraction(1, 2), 3]) == Fraction(7, 2)

    def test_omega5_spectrum(self):
        # ev(Omega_5, Q_lambda) = p5 - 2 p1 p3 + (2/3) p1^3 + (1/3) p3, with p_r = sum lambda_i^r
        checked = 0
        for n, maxweight in ((2, 8), (3, 8), (4, 6)):
            p1, p3, p5 = (power_sum(r, n) for r in (1, 3, 5))
            r = RnPolynomial(
                p5 - (p1 * p3).scale(2) + (p1 * p1 * p1).scale(Fraction(2, 3)) + p3.scale(Fraction(1, 3))
            )
            for d in range(1, maxweight + 1):
                for lam in strict_partitions(d, max_length=n):
                    rep = eigen_check(lam, "omega5", n)
                    assert rep.is_eigen and rn_eigenvalue(r, lam, n) == rep.eigenvalue, (n, lam)
                    checked += 1
        assert checked == 57

    def test_omega7_spectrum(self):
        # ev(Omega_7, Q_lambda) = p7 - 2 p5 p1 - p3^2 + 2 p3 p1^2 - (1/3) p1^4 + p5 - (2/3) p3 p1
        checked = 0
        for n, maxweight in ((2, 8), (3, 8), (4, 6)):
            p1, p3, p5, p7 = (power_sum(r, n) for r in (1, 3, 5, 7))
            r = RnPolynomial(
                p7
                - (p5 * p1).scale(2)
                - p3 * p3
                + (p3 * p1 * p1).scale(2)
                - (p1 * p1 * p1 * p1).scale(Fraction(1, 3))
                + p5
                - (p3 * p1).scale(Fraction(2, 3))
            )
            for d in range(1, maxweight + 1):
                for lam in strict_partitions(d, max_length=n):
                    rep = eigen_check(lam, "omega7", n)
                    assert rep.is_eigen and rn_eigenvalue(r, lam, n) == rep.eigenvalue, (n, lam)
                    checked += 1
        assert checked == 57

    def test_cubes_minus_square_matches_omega3(self):
        # sum t^3 - (sum t)^2 is in the algebra and evaluates like omega3
        n = 2
        p3 = Polynomial(n, {(3, 0): 1, (0, 3): 1})
        e1 = Polynomial(n, {(1, 0): 1, (0, 1): 1})
        r = RnPolynomial(p3 - e1 * e1)
        for parts in [(2,), (2, 1), (3,)]:
            lam = StrictPartition(parts)
            assert rn_eigenvalue(r, lam, n) == hc_eigenvalue_omega3(lam)


class TestSeparation:
    def test_3_vs_21(self):
        w = separation_check(StrictPartition((3,)), StrictPartition((2, 1)), 2)
        a = rn_eigenvalue(w, StrictPartition((3,)), 2)
        b = rn_eigenvalue(w, StrictPartition((2, 1)), 2)
        assert a != b

    def test_1_vs_2(self):
        w = separation_check(StrictPartition((1,)), StrictPartition((2,)), 2)
        assert rn_eigenvalue(w, StrictPartition((1,)), 2) != rn_eigenvalue(
            w, StrictPartition((2,)), 2
        )

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            separation_check(StrictPartition((2,)), StrictPartition((2,)), 2)

    def test_bound_2n_minus_1_is_reached(self):
        # equal weights agree at r = 1, so at n = 2 the witness is r = 3 = 2n - 1
        w = separation_check(StrictPartition((3,)), StrictPartition((2, 1)), 2)
        assert w.poly == power_sum(3, 2)

    def test_witness_is_the_smallest_separating_odd_power_sum(self):
        for n in range(1, 5):
            parts = [lam for d in range(1, 13) for lam in strict_partitions(d, max_length=n)]
            for lam, mu in combinations(parts, 2):
                a = list(lam.parts) + [0] * (n - lam.length)
                b = list(mu.parts) + [0] * (n - mu.length)
                r = next(r for r in count(1, 2) if sum(x**r for x in a) != sum(x**r for x in b))
                assert r <= 2 * n - 1
                assert separation_check(lam, mu, n).poly == power_sum(r, n)

    def test_all_pairs_small(self):
        parts = [
            lam for d in range(1, 6) for lam in strict_partitions(d, max_length=3)
        ]
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                w = separation_check(parts[a], parts[b], 3)
                assert rn_eigenvalue(w, parts[a], 3) != rn_eigenvalue(w, parts[b], 3)


class TestSeparationByOperators:
    def test_one_operator_fails(self, monkeypatch):
        assert spectra.separation_sweep(3, 5).passed
        monkeypatch.setattr(spectra, "UNIQUENESS_OPS", ("omega1",))
        report = spectra.separation_sweep(3, 5)
        assert not report.passed
        assert report.checked == 36  # the 9 strict lambda with l <= 3, |lambda| <= 5, in pairs
        assert any(failure.startswith("3 vs 2,1:") for failure in report.failures)

    def test_checks_every_pair_once(self, monkeypatch):
        calls = count_calls(monkeypatch, spectra, ["eigen_check"])
        report = spectra.separation_sweep(3, 8)
        assert report.passed and report.checked == 24 * 23 // 2
        # one joint spectrum over the 24 lambda: Omega_1 and Omega_3 separate them
        assert calls["eigen_check"] == 2 * 24


class TestSweeps:
    def test_uniqueness_n1(self):
        report = uniqueness_sweep(1, 5)
        assert report.passed

    def test_uniqueness_n2_d3(self):
        report = uniqueness_sweep(2, 3)
        assert report.passed and report.checked >= 3

    def test_uniqueness_fails_on_a_zero_dimensional_eigenspace(self, monkeypatch):
        # only a broken kernel or matrix gives a joint eigenspace no vector; it must not pass
        monkeypatch.setattr(spectra.linalg, "nullspace", lambda rows: [])
        report = uniqueness_sweep(2, 4)
        assert not report.passed
        assert report.failures and all("has dimension 0" in failure for failure in report.failures)

    @pytest.mark.parametrize("sweep", [spectra.supersymmetry_sweep, spectra.stability_sweep])
    def test_q_lambda_longer_than_n_is_not_checked_vacuously(self, sweep):
        # Q_lambda(x_1..x_n) = 0 for l(lambda) > n: supersym checks l <= n, stability
        # l <= n + 1, where its check is that Q_lambda vanishes at x_(n+1) = 0
        extra = sweep is spectra.stability_sweep
        for n in (1, 2, 3):
            want = sum(1 for d in range(1, 11) for _ in strict_partitions(d, max_length=n + extra))
            assert sweep(n, 10).checked == want

    def test_conjugation_counts_every_monomial(self):
        # one x^mu per S_n orbit: the 7 orbits of monomials of degree <= 3 in
        # 3 variables, plus the delta^-1 check
        assert spectra.conjugation_sweep(3, 3).checked == 8

    @pytest.mark.parametrize(
        "target",
        [(6, (2, 3), True), (6, (2, 3), False), (24, (3, 3, 1, 2), True)],
        ids=["c_23", "p_23", "triple-3-12"],
    )
    def test_conjugation_sees_an_index_specific_mutant(self, monkeypatch, target):
        # omega3_closed with one pair's or one triple's coefficient off by one no
        # longer commutes with S_n; one monomial per orbit must still see it
        original = operators._fraction

        def mutant(n, c, xs, diffs=(), sums=()):
            return original(n, c + ((c, tuple(xs), bool(diffs)) == target), xs, diffs, sums)

        monkeypatch.setattr(operators, "_fraction", mutant)
        report = spectra.conjugation_sweep(3, 3)
        assert report.checked == 8
        assert len(report.failures) == 7  # every monomial; the delta^-1 check has no omega3_closed
        assert all(failure.startswith("conjugation fails on x^") for failure in report.failures)

    @staticmethod
    def omega1_mutant(monkeypatch, wrong_degree):
        # Omega_1 with deg(D) replaced by wrong_degree(den): (E N - d' N)/D is the
        # true image plus (deg(D) - d') N/D
        original = RationalFunction.total_euler

        def mutant(g):
            return original(g) + g.scale(sum(g.den.values()) - wrong_degree(g.den))

        monkeypatch.setattr(RationalFunction, "total_euler", mutant)

    def test_conjugation_sees_omega1_without_the_denominator_degree(self, monkeypatch):
        # delta x^mu carries three binomials, so Omega_1^2 inside omega3_closed goes wrong
        self.omega1_mutant(monkeypatch, lambda den: 0)
        report = spectra.conjugation_sweep(3, 3)
        assert len(report.failures) == 7
        assert all(failure.startswith("conjugation fails on x^") for failure in report.failures)

    def test_omega1_counts_a_factor_by_its_multiplicity(self, monkeypatch):
        # delta's factors are simple, so only a squared one tells sum(den.values()) from len(den)
        g = RationalFunction(Polynomial.monomial(2, (3, 0)), {Factor("diff", 1, 2): 2})
        assert operators.omega(g, 1, 2) == g == g.euler(1) + g.euler(2)
        self.omega1_mutant(monkeypatch, len)
        assert spectra.conjugation_sweep(3, 3).passed
        assert operators.omega(g, 1, 2) == g.scale(2)

    def test_lemma121_small(self):
        report = lemma_121_sweep(2, 4)
        assert report.passed
        assert report.checked == 4 * (1 + 2 + 2 + 3)  # partitions of 1..4, len<=2


class TestSweepReport:
    def test_check_counts_and_records_failures(self):
        report = spectra.SweepReport("demo")
        report.check(True, "first")
        report.check(False, "second")
        assert (report.checked, report.failures, report.passed) == (2, ["second"], False)

    def test_json_keeps_the_first_ten_failures(self):
        report = spectra.SweepReport("demo")
        for i in range(12):
            report.check(False, f"failure {i}")
        assert report.to_json_obj()["failures"] == [f"failure {i}" for i in range(10)]

    def test_only_check_counts(self):
        # every sweep counts through SweepReport.check, never by touching checked itself
        tree = ast.parse(inspect.getsource(spectra))
        touched = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "checked"
        }
        assert not touched


class TestTildeRelationRule:
    # the four relations lemma_121_sweep once spelled out by hand, as (name, k, combo)
    HAND_WRITTEN = [
        ("tilde-omega1 = 2 omega1", 1, {1: 2}),
        ("tilde-omega2 = 2 omega1", 2, {1: 2}),
        ("tilde-omega3 = 2 omega3 + 2 omega1", 3, {3: 2, 1: 2}),
        ("tilde-omega4 = 4 omega3 + 2 omega1", 4, {3: 4, 1: 2}),
    ]

    def test_rule_reproduces_the_hand_written_relations(self):
        assert spectra.TILDE_LEVELS == len(self.HAND_WRITTEN)
        for name, k, combo in self.HAND_WRITTEN:
            got_name, got_combo = spectra.tilde_relation(k)
            assert (got_name, got_combo) == (name, combo)
            assert list(got_combo) == list(combo)  # the highest Omega first, as the name reads

    def test_perturbed_coefficient_fails_every_input(self, monkeypatch):
        # one more Omega_1 in every relation leaves |mu| m_mu over on each m_mu;
        # the sweep leaves out m_() = 1, which every operator kills
        original = spectra.tilde_relation

        def perturbed(k):
            name, combo = original(k)
            return name, {**combo, 1: combo[1] + 1}

        monkeypatch.setattr(spectra, "tilde_relation", perturbed)
        report = lemma_121_sweep(2, 3)
        assert report.checked == 4 * 5
        names = [name for name, _, _ in self.HAND_WRITTEN]
        inputs = [(1,), (2,), (1, 1), (3,), (2, 1)]
        assert report.failures == [f"{name} fails on m_{mu}, n=2" for mu in inputs for name in names]

    @pytest.mark.parametrize("n", [2, 3])
    def test_summed_relation_at_desk_size(self, n):
        # Lemma 1.21 as stated, on the operator sums; lemma_121_sweep reads
        # component 1 and relies on the walks' equivariance, this does not
        zero = RationalFunction.zero(n)
        for d in range(5):
            for mu in partitions(d, max_length=n):
                f = monomial_symmetric(mu, n)
                for k in range(1, 5):
                    _, combo = spectra.tilde_relation(k)
                    want = sum((operators.omega(f, m, n).scale(c) for m, c in combo.items()), zero)
                    assert operators.tilde_omega(f, k, n) == want, (mu, k)


def count_calls(monkeypatch, module, names) -> Counter:
    """Wrap module.<name> for each name so that its calls are counted."""
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestComputedOnce:
    def test_uniqueness_applies_each_operator_once(self, monkeypatch):
        calls = count_calls(monkeypatch, spectra, ["apply_operator", "eigen_check"])
        assert uniqueness_sweep(3, 6).passed
        assert calls["eigen_check"] > 0
        assert calls["apply_operator"] == calls["eigen_check"]

    def test_uniqueness_solves_each_operator_matrix_once(self, monkeypatch):
        # one elimination per degree for all its operator matrices, not one per image
        calls = count_calls(monkeypatch, linalg, ["solve"])
        checks = count_calls(monkeypatch, spectra, ["eigen_check"])
        assert uniqueness_sweep(3, 7).passed
        # degrees 1..7 at n = 3: bases of sizes 1, 1, 2, 2, 3, 4, 5; Omega_1 alone
        # separates size 1, Omega_1 and Omega_3 the rest
        assert checks["eigen_check"] == 1 + 1 + 2 * (2 + 2 + 3 + 4 + 5)
        assert calls["solve"] == 7

    def test_omega1_takes_no_step(self, monkeypatch):
        # Omega_1 is the Euler derivation of the input: no walk, no quotient rule, no coefficient rows
        steps = count_calls(monkeypatch, operators, ["family_step", "_rows"])
        eulers = count_calls(monkeypatch, RationalFunction, ["euler"])
        n = 3
        for lam in strict_partitions(4, max_length=n):
            assert eigen_check(lam, "omega1", n).eigenvalue == 4
        operators.omega(Polynomial.monomial(n, (2, 1, 0)), 1, n)
        operators.omega(operators.delta(n), 1, n)
        assert steps == Counter() and eulers == Counter()
        operators.omega(schur_q(StrictPartition((3, 1)), n), 3, n)
        assert steps["family_step"] == 2

    @pytest.mark.parametrize(
        "make",
        [lambda n: schur_q(StrictPartition((3, 1)), n), lambda n: monomial_symmetric((2, 1), n)],
        ids=["Q_31", "m_21"],
    )
    def test_tilde_omega1_takes_no_walk(self, monkeypatch, make):
        # level 1 is D_i f as plain and barred, so tilde Omega_1 = 2E, read from f
        # alone: no walk, no quotient rule, no coefficient row
        n = 4
        f = make(n)
        steps = count_calls(monkeypatch, operators, ["tilde_levels", "_first_level", "_rows"])
        eulers = count_calls(monkeypatch, RationalFunction, ["euler"])
        image = operators.tilde_omega(f, 1, n)
        assert eulers == Counter() and steps == Counter()
        assert image == operators.omega(f, 1, n).scale(2)

    def test_lemma121_walks_each_family_once(self, monkeypatch):
        calls = count_calls(monkeypatch, operators, ["family_step", "tilde_family_step"])
        report = lemma_121_sweep(2, 3)
        assert report.passed
        inputs = 5  # m_mu for mu = 1, 2, 11, 3, 21
        assert report.checked == 4 * inputs
        assert calls["family_step"] == 2 * inputs  # levels 2 and 3
        assert calls["tilde_family_step"] == 3 * inputs  # levels 2, 3 and 4

    def test_eigenfunction_sweep_walks_each_q_lambda_once(self, monkeypatch):
        calls = count_calls(monkeypatch, operators, ["family_step"])
        assert spectra.eigenfunction_sweep(3, 5).passed
        # 9 strict lambda with |lambda| <= 5, l <= 3; Omega_1, 3, 5 from levels 1..5 of one walk
        assert calls["family_step"] == 9 * 4

    def test_lemma121_fills_no_component_past_2(self, monkeypatch):
        # the steps read components 1 and 2 of a symmetric level, and its sums read the orbit of 1
        levels = []
        init = operators._Level.__init__

        def recording(self, first, n):
            init(self, first, n)
            levels.append(self)

        monkeypatch.setattr(operators._Level, "__init__", recording)
        assert lemma_121_sweep(4, 3).passed
        assert levels and all(part is None for level in levels for part in level._parts[2:])

    @pytest.mark.parametrize(
        "parts, entries",
        [((), 0), ((3,), 1), ((4, 2), 1), ((4, 2, 1), 6), ((5, 3, 2, 1), 6)],
        ids=["empty", "3", "4,2", "4,2,1", "5,3,2,1"],
    )
    def test_schur_q_builds_each_entry_once(self, monkeypatch, parts, entries):
        # s(s-1)/2 entries, s = the length rounded up to even: only the strict upper triangle
        qfunctions.schur_q.cache_clear()
        qfunctions.q_two.cache_clear()
        calls = count_calls(monkeypatch, qfunctions, ["q_two"])
        qfunctions.schur_q(StrictPartition(parts), 4)
        assert calls["q_two"] == entries


class TestSpanGuard:
    def test_image_outside_span_raises(self, monkeypatch):
        # an image monomial of degree d+1 lies outside the degree-d Q-span
        n = 2
        leaky_input = schur_q(StrictPartition((2, 1)), n)
        original = spectra.apply_operator

        def leaky(op, f, n):
            image = original(op, f, n)
            if op == "omega1" and f == leaky_input:
                extra = Polynomial.monomial(n, (f.degree() + 1, 0))
                image = image + RationalFunction.from_polynomial(extra)
            return image

        monkeypatch.setattr(spectra, "apply_operator", leaky)
        with pytest.raises(linalg.InconsistentSystem):
            uniqueness_sweep(n, 3)

    def test_later_operator_image_outside_span_raises(self, monkeypatch):
        # degree 3 at n = 2 has two basis elements, so Omega_3 is used too; its
        # columns share the one elimination with Omega_1's and are guarded alike
        n = 2
        leaky_input = schur_q(StrictPartition((2, 1)), n)
        original = spectra.apply_operator
        used = []

        def leaky(op, f, n):
            image = original(op, f, n)
            used.append(op)
            if op == "omega3" and f == leaky_input:
                extra = Polynomial.monomial(n, (f.degree() + 1, 0))
                image = image + RationalFunction.from_polynomial(extra)
            return image

        monkeypatch.setattr(spectra, "apply_operator", leaky)
        with pytest.raises(linalg.InconsistentSystem):
            uniqueness_sweep(n, 3)
        assert "omega3" in used

    def test_one_element_degree_is_checked(self, monkeypatch):
        # degree 1 has the single basis element Q_(1); an image leaking x1^2
        # must reach the span-guarded solve like any other degree
        n = 2
        q1 = schur_q(StrictPartition((1,)), n)
        original = spectra.apply_operator

        def leaky(op, f, n):
            image = original(op, f, n)
            if op == "omega1" and f == q1:
                image = image + RationalFunction.from_polynomial(Polynomial.monomial(n, (2, 0)))
            return image

        assert uniqueness_sweep(n, 1).checked == 1
        monkeypatch.setattr(spectra, "apply_operator", leaky)
        with pytest.raises(linalg.InconsistentSystem):
            uniqueness_sweep(n, 1)

    def test_non_eigen_image_in_span_is_a_fail(self, monkeypatch):
        n = 2
        mixed_input = schur_q(StrictPartition((2, 1)), n)
        other = RationalFunction.from_polynomial(schur_q(StrictPartition((3,)), n))
        original = spectra.apply_operator

        def mixing(op, f, n):
            image = original(op, f, n)
            return image + other if op == "omega1" and f == mixed_input else image

        monkeypatch.setattr(spectra, "apply_operator", mixing)
        report = uniqueness_sweep(n, 3)
        assert not report.passed
        assert "d=3 2,1: not an eigenfunction of omega1" in report.failures

    def test_non_eigen_image_counts_as_a_check(self, monkeypatch):
        # joint_spectrum records a Q_lambda that is not an eigenfunction through report.check,
        # so a failing report counts every check it ran
        n = 2
        mixed_input = schur_q(StrictPartition((2, 1)), n)
        other = RationalFunction.from_polynomial(schur_q(StrictPartition((3,)), n))
        original = spectra.apply_operator

        def mixing(op, f, n):
            image = original(op, f, n)
            return image + other if op == "omega1" and f == mixed_input else image

        assert (uniqueness_sweep(n, 3).checked, spectra.separation_sweep(n, 3).checked) == (4, 6)
        monkeypatch.setattr(spectra, "apply_operator", mixing)
        # uniqueness: one eigenspace per tuple, less the one that holds None, plus the failure;
        # separation: one check per pair of (1), (2), (3), (2,1), plus the failure
        uniqueness, separation = uniqueness_sweep(n, 3), spectra.separation_sweep(n, 3)
        assert (uniqueness.checked, len(uniqueness.failures)) == (3 + 1, 1)
        assert (separation.checked, len(separation.failures)) == (6 + 1, 1)
