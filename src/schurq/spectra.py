"""Eigenvalue extraction, the Omega spectrum, identity sweeps, and desk-scale uniqueness checks.

omega_eigenvalue reads each odd Omega_k's eigenvalue on Q_lambda, an int, from one series.  Uniqueness
and separation read the measured joint_spectrum: the operators' eigenvalues tell the Q_lambda apart.
All sweeps are exact: a pass means zero residual in exact rational arithmetic, never a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Optional

from . import linalg, operators
from .algebra import (
    Polynomial,
    RationalFunction,
    Scalar,
    _coeff,
    format_fraction,
    substitute,
)
from .qfunctions import (
    StrictPartition,
    monomial_symmetric,
    partitions,
    q_two,
    schur_q,
    strict_partitions,
    is_supersymmetric,
)


def _at_level(family: Callable[[Polynomial, int, int], RationalFunction], k: int):
    """The operator f -> family(f, k, n), the sum over level k of one family."""
    return lambda f, n: family(f, k, n)


OPERATORS: dict[str, Callable[[Polynomial, int], RationalFunction]] = {
    **{f"omega{k}": _at_level(operators.omega, k) for k in (1, 3, 5, 7)},
    **{f"tilde-omega{k}": _at_level(operators.tilde_omega, k) for k in (1, 2, 3, 4)},
    "omega3-closed": operators.omega3_closed,
    "euler-cubes": operators.euler_cubes,
}


def apply_operator(op: str, f: Polynomial, n: int) -> RationalFunction:
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    return OPERATORS[op](f, n)


class DenominatorLeft(Exception):
    """Operator image failed to reduce to a polynomial."""


def q_image(op: str, lam: StrictPartition, f: Polynomial, n: int) -> Polynomial:
    """op applied to f = Q_lam, which every registered operator maps to a polynomial."""
    return _polynomial(op, lam, apply_operator(op, f, n))


def _polynomial(op: str, lam: StrictPartition, image: RationalFunction) -> Polynomial:
    """The image of Q_lam under op as a Polynomial; DenominatorLeft when it keeps a denominator."""
    if not image.is_polynomial():
        raise DenominatorLeft(f"{op} Q_{lam} left denominator {image.den}")
    return image.as_polynomial()


@dataclass
class EigenReport:
    partition: StrictPartition
    operator: str
    eigenvalue: Optional[Scalar]
    is_eigen: bool
    residual: Polynomial
    image: Polynomial = field(repr=False)  # op applied to Q_lambda

    def to_json_obj(self) -> dict:
        return {
            "partition": str(self.partition),
            "operator": self.operator,
            "eigenvalue": format_fraction(self.eigenvalue) if self.is_eigen else None,
            "isEigen": self.is_eigen,
        }

    def to_text(self) -> str:
        if self.is_eigen:
            return f"eigenvalue {format_fraction(self.eigenvalue)}"
        return f"not an eigenfunction; residual {self.residual.to_text()}"


def eigen_check(lam: StrictPartition, op: str, n: int) -> EigenReport:
    """Apply op to Q_lambda and test exact proportionality.

    The candidate scalar c is fitted from the grevlex-leading monomial,
    as an int when it is integral, and then verified on every monomial:
    the image must hold exactly the terms of c Q_lambda.  The residual
    image - c Q_lambda is built only when that fails.
    """
    f = _q(lam, n)
    return _fit(lam, op, f, q_image(op, lam, f, n))


def omega_checks(lam: StrictPartition, n: int) -> dict[int, EigenReport]:
    """eigen_check of Omega_1, Omega_3 and Omega_5 on Q_lambda, by k, read from one walk of its levels."""
    f = _q(lam, n)
    return {k: _fit(lam, f"omega{k}", f, _polynomial(f"omega{k}", lam, image))
            for k, image in zip((1, 3, 5), operators.omegas(f, n))}


def _q(lam: StrictPartition, n: int) -> Polynomial:
    """Q_lambda in n variables; ValueError when lambda is longer than n."""
    if lam.length > n:
        raise ValueError("partition longer than the variable count")
    return schur_q(lam, n)


def _fit(lam: StrictPartition, op: str, f: Polynomial, p: Polynomial) -> EigenReport:
    """The report of eigen_check on the image p = op(f), f = Q_lambda."""
    lead_m, lead_c = f.leading_term()
    c = _coeff(Fraction(p.coefficient(lead_m), lead_c))
    image = p.terms
    if c:
        proportional = len(image) == len(f.terms) and all(image.get(m) == v * c for m, v in f.terms.items())
    else:
        proportional = not image
    if proportional:
        return EigenReport(lam, op, c, True, Polynomial.zero(f.n), p)
    return EigenReport(lam, op, None, False, p - f.scale(c), p)


def hc_eigenvalue_omega3(lam: StrictPartition) -> int:
    """sum lambda_i^3 - (sum lambda_i)^2."""
    return sum(p**3 for p in lam.parts) - sum(lam.parts) ** 2


def omega_eigenvalue(lam: StrictPartition, k: int) -> int:
    """The eigenvalue of Omega_k on Q_lambda for odd k = 2m + 1, at any n >= l(lambda); an int.

    With u_i = l_i(l_i - 1), v_i = l_i(l_i + 1) and R(w) = prod_i (w - v_i)/(w - u_i), the spectrum is
    sum_m eig(Omega_(2m+1)) w^(-m-1) = (1 - R(w))/2, so eig = -[t^(m+1)] R(1/t)/2, exact in ints (every
    u_i, v_i is even).  Its partial fractions are the pairwise sum_i c_i u_i^m: c_i = -Res_(w=u_i) R/2
    = l_i prod_(j != i) (u_i - v_j)/(u_i - u_j), as u_i - v_j = (l_i + l_j)(l_i - l_j - 1) and
    u_i - u_j = (l_i - l_j)(l_i + l_j - 1).
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"the Omega spectrum is defined for odd k >= 1, not k={k}")
    series = [1] + [0] * (k // 2 + 1)  # prod_i (1 - v_i t)/(1 - u_i t), up to t^(m+1)
    for a in lam.parts:
        for j in range(len(series) - 1, 0, -1):  # times 1 - v t
            series[j] -= a * (a + 1) * series[j - 1]
        for j in range(1, len(series)):  # over 1 - u t, exact: its constant term is 1
            series[j] += a * (a - 1) * series[j - 1]
    return -series[-1] // 2


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, failure: str) -> None:
        """Count one check, and record failure unless ok."""
        self.checked += 1
        if not ok:
            self.failures.append(failure)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures[:10],
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} checks)"]
        return "\n".join(lines + [f"  {failure}" for failure in self.failures])


UNIQUENESS_OPS = ("omega1", "omega3", "omega5", "omega7")


def joint_spectrum(basis: list[StrictPartition], n: int, report: SweepReport) -> tuple[dict, list]:
    """Each Q_lambda's eigenvalue tuple over UNIQUENESS_OPS, applied in order
    until the tuples are pairwise distinct (or the operators run out).

    Returns the tuples by lambda and the images made on the way, operator by
    operator in basis order.  A Q_lambda that is not an eigenfunction of an
    operator is recorded in report, and None stands for its eigenvalue.
    """
    keys: dict[StrictPartition, tuple] = {lam: () for lam in basis}
    images = []
    for op in UNIQUENESS_OPS:
        reports = [eigen_check(lam, op, n) for lam in basis]
        for lam, rep in zip(basis, reports):
            if not rep.is_eigen:
                report.check(False, f"d={lam.weight} {lam}: not an eigenfunction of {op}")
            keys[lam] += (rep.eigenvalue,)
        images.extend(rep.image for rep in reports)
        if len(set(keys.values())) == len(basis):
            break
    return keys, images


def uniqueness_sweep(n: int, maxdeg: int) -> SweepReport:
    """Confirm one-dimensional joint eigenspaces on each degree's Q-span.

    Takes each degree's joint_spectrum, solves all the images it made in
    one span-guarded elimination (an image outside the span raises), and
    intersects the kernels of M_op - c_op I per eigenvalue tuple.
    """
    report = SweepReport(f"uniqueness(n={n},maxdeg={maxdeg})")
    for d in range(1, maxdeg + 1):
        basis = list(strict_partitions(d, max_length=n))
        if not basis:
            continue
        size = len(basis)
        polys = [schur_q(lam, n) for lam in basis]
        keys, images = joint_spectrum(basis, n, report)
        # each operator's matrix on span{Q_lambda}: column c holds the coordinates of image c
        coords = linalg.coordinates(polys, images)
        matrices = [[row[k:k + size] for row in coords] for k in range(0, len(images), size)]
        groups: dict[tuple, list[StrictPartition]] = {}
        for lam in basis:
            groups.setdefault(keys[lam], []).append(lam)
        # exact joint eigenspaces: intersect kernels of (M_op - c I)
        for key, members in groups.items():
            if None in key:
                continue  # a member is not an eigenfunction, reported above
            stacked = [[m[r][col] - (c if r == col else 0) for col in range(size)]
                       for m, c in zip(matrices, key) for r in range(size)]
            dim = len(linalg.nullspace(stacked))
            report.check(dim == 1, f"d={d}: joint eigenspace {key} has dimension {dim} "
                                   f"(members {[str(m) for m in members]})")
    return report


TILDE_LEVELS = 4  # lemma_121_sweep checks tilde Omega_1 .. tilde Omega_4


def tilde_relation(k: int) -> tuple[str, dict[int, int]]:
    """Lemma 1.21 for tilde Omega_k, named, as {m: the coefficient of Omega_m}.

    tilde Omega_k = 2 sum_j C(k-1-j, j) Omega_(2j+1), the highest Omega first
    (derived in operators.tilde_family_step's docstring).
    """
    combo = {2 * j + 1: 2 * math.comb(k - 1 - j, j) for j in reversed(range((k + 1) // 2))}
    return f"tilde-omega{k} = " + " + ".join(f"{c} omega{m}" for m, c in combo.items()), combo


def lemma_121_sweep(n: int, maxdeg: int) -> SweepReport:
    """Verify tilde_relation(k) for k <= TILDE_LEVELS on every m_mu with 1 <= |mu| <= maxdeg;
    every operator maps m_() = 1 to 0.

    One walk of each family per m_mu, whose levels are [component 1]: plain_k + barred_k
    against sum coef * L_m, L_m the plain level m.  m_mu is symmetric, so component j of
    either walk is component 1 under x_1 <-> x_j (test_equals_the_n_component_step guards
    it): the vector relation holds iff component 1 does, and it implies the summed lemma.
    """
    report = SweepReport(f"lemma121(n={n},maxdeg={maxdeg})")
    relations = [(k, *tilde_relation(k)) for k in range(1, TILDE_LEVELS + 1)]
    top_omega = max(m for _, _, combo in relations for m in combo)
    zero = RationalFunction.zero(n)
    for d in range(1, maxdeg + 1):
        for mu in partitions(d, max_length=n):
            f = monomial_symmetric(mu, n)
            plain = [level[0] for level in islice(operators.family_levels(f, n), top_omega)]
            tildes = [p[0] + b[0] for p, b in islice(operators.tilde_levels(f, n), TILDE_LEVELS)]
            for k, name, combo in relations:
                rhs = sum((plain[m - 1].scale(coef) for m, coef in combo.items()), zero)
                report.check(tildes[k - 1] == rhs, f"{name} fails on m_{mu}, n={n}")
    return report


def eigenfunction_sweep(n: int, maxweight: int) -> SweepReport:
    """Lemma-level eigenfunction sweep: Omega_1, Omega_3 and Omega_5 against omega_eigenvalue."""
    report = SweepReport(f"eigenfunctions(n={n},maxweight={maxweight})")
    for d in range(1, maxweight + 1):
        for lam in strict_partitions(d, max_length=n):
            for k, rep in omega_checks(lam, n).items():
                if rep.is_eigen:
                    report.check(rep.eigenvalue == omega_eigenvalue(lam, k),
                                 f"{lam}: {rep.operator} eigenvalue {rep.eigenvalue}")
                else:
                    report.check(False, f"{lam}: not eigen under {rep.operator}")
    return report


def skew_symmetry_sweep(n: int, maxindex: int) -> SweepReport:
    """Q_{k,l} = -Q_{l,k} for 0 <= k, l <= maxindex, k + l > 0.  maxindex, the suite's --max,
    bounds each index, not the weight as in every other suite, so --max M reaches degree 2M."""
    report = SweepReport(f"skew(n={n},max={maxindex})")
    for k in range(0, maxindex + 1):
        for l in range(0, maxindex + 1):
            if k + l == 0:
                continue
            report.check(q_two(k, l, n) == -q_two(l, k, n), f"Q_{{{k},{l}}} != -Q_{{{l},{k}}} at n={n}")
    return report


def supersymmetry_sweep(n: int, maxweight: int) -> SweepReport:
    report = SweepReport(f"supersym(n={n},maxweight={maxweight})")
    for d in range(1, maxweight + 1):
        for lam in strict_partitions(d, max_length=n):
            report.check(is_supersymmetric(schur_q(lam, n), n), f"Q_{lam} not supersymmetric at n={n}")
    return report


def stability_sweep(n: int, maxweight: int) -> SweepReport:
    """Q_lambda(x_1..x_n, 0) = Q_lambda(x_1..x_n)."""
    report = SweepReport(f"stability(n={n},maxweight={maxweight})")
    for d in range(1, maxweight + 1):
        for lam in strict_partitions(d, max_length=n + 1):
            big = schur_q(lam, n + 1)
            small = schur_q(lam, n)
            report.check(substitute(big, {n + 1: 0}) == small, f"Q_{lam} unstable at n={n}")
    return report


def conjugation_sweep(n: int, maxdeg: int) -> SweepReport:
    """delta^{-1} Omega_3 delta = sum D_i^3 - (sum D_i)^2 on monomials, plus (sum D_i^3) delta^{-1} = 0.

    One x^mu per S_n orbit, mu a partition with at most n parts: both sides commute with
    every permutation (delta's sign cancels in delta^{-1} Omega_3 delta), so x^(sigma e)
    passes exactly when x^e does.
    """
    report = SweepReport(f"conjugation(n={n},maxdeg={maxdeg})")
    for d in range(maxdeg + 1):
        for mu in partitions(d, max_length=n):
            exps = mu + (0,) * (n - len(mu))
            f = Polynomial.monomial(n, exps)
            lhs = operators.conjugated_apply("omega3-closed", f, n)
            rhs = operators.euler_cubes(f, n)
            report.check(lhs == rhs, f"conjugation fails on x^{exps}, n={n}")
    report.check(operators.sum_cubes(operators.delta_inverse(n), n).is_zero(),
                 f"(sum D_i^3) delta^-1 != 0 at n={n}")
    return report


def auxiliary_sweep(n: int) -> SweepReport:
    """24 theta_i - 6 psi_i - 12 phi_i^2 - 6 D_i(phi_i) = 0 for all i."""
    report = SweepReport(f"aux35(n={n})")
    for i in range(1, n + 1):
        phi, psi, theta = operators.auxiliary_functions(i, n)
        expr = (
            theta.scale(24)
            - psi.scale(6)
            - (phi * phi).scale(12)
            - phi.euler(i).scale(6)
        )
        report.check(expr.is_zero(), f"auxiliary identity fails at n={n}, i={i}")
    return report


def separation_sweep(n: int, maxweight: int) -> SweepReport:
    """The Omega eigenvalues tell apart every two Q_lambda with l <= n, |lambda| <= maxweight.

    One joint_spectrum over all of them, then one check per pair: the eigenvalue tuples differ.  By
    log R(1/t) (see omega_eigenvalue), eig(Omega_(2m+1)) = p_(2m+1)(lambda) + a polynomial in p_1, ..,
    p_(2m-1), so Omega_1, .., Omega_(2n-1) fix p_1, .., p_(2n-1), which determine lambda (Macdonald,
    III.8): UNIQUENESS_OPS suffice for l <= 4.  Omega_1 and Omega_3 alone first tie at weight 15.
    """
    report = SweepReport(f"separation(n={n},maxweight={maxweight})")
    all_parts = [lam for d in range(1, maxweight + 1) for lam in strict_partitions(d, max_length=n)]
    keys, _ = joint_spectrum(all_parts, n, report)
    for lam, mu in combinations(all_parts, 2):
        report.check(keys[lam] != keys[mu], f"{lam} vs {mu}: equal eigenvalues {keys[lam]}")
    return report


# ---------------------------------------------------------------------------
# The suite registry behind `schurq verify` and scripts/run_sweeps.py
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    sweep: Callable[[int, Optional[int]], SweepReport]  # (n, max) -> report
    desk_n: tuple[int, ...]  # the desk-scale run: one sweep per n, at desk_max
    desk_max: int | None  # None: the sweep has no size bound


SWEEPS: dict[str, SweepSpec] = {
    "skew": SweepSpec(skew_symmetry_sweep, (2, 3, 4), 8),
    "supersym": SweepSpec(supersymmetry_sweep, (2, 3, 4), 8),
    "stability": SweepSpec(stability_sweep, (2, 3, 4), 8),
    "lemma121": SweepSpec(lemma_121_sweep, (2, 3), 6),
    "lemma123i": SweepSpec(conjugation_sweep, (2, 3), 5),
    "lemma123ii": SweepSpec(eigenfunction_sweep, (2, 3), 8),
    "lemma123iii": SweepSpec(uniqueness_sweep, (2, 3), 8),
    "aux35": SweepSpec(lambda n, _max: auxiliary_sweep(n), (2, 3, 4), None),
    "separation": SweepSpec(separation_sweep, (2, 3), 8),
}

# Sizes admitted without --force, by operator or suite: (largest n, {n: largest size at that n});
# the size is |lambda| for apply and eigen, --max for verify, and cli.MAX_N and MAX_DEG hold
# elsewhere.  Each limit keeps a run within 20 s on 2 cores, by the slower of two runs: the
# closed Omega_3 takes 30.4 s on Q_(8,3,1) at n = 6 (1.2 s at n = 5, the walk's Omega_3 0.4 s),
# lemma121 37.5 s at (n, --max) = (5, 7) and 25.9 s at (6, 2), lemma123i 23.1 s at (5, 3) and
# over 45 s at (6, 0), skew 27.9 s at (5, 11) and 33.5 s at (6, 9).
LIMITS: dict[str, tuple[int, dict[int, int]]] = {
    "omega3-closed": (5, {}),
    "lemma121": (6, {5: 6, 6: 1}),
    "lemma123i": (5, {5: 2}),
    "skew": (6, {5: 10, 6: 8}),
}
