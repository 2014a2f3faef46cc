"""Projective Schur Q-functions and their combinatorial companions.

Builds the q_k from the generating series prod(1+x_i t)/prod(1-x_i t),
the pairs Q_{k,l}, the Pfaffian construction of Q_lambda, power sums,
the characteristic map on odd cycle types, odd-power-sum expansions,
the cancellation (supersymmetry) test, and the product formula for
shifted standard tableaux (the enumeration oracles live in tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import linalg
from .algebra import (
    Polynomial,
    Scalar,
    T_MINUS,
    T_PLUS,
    VariableCountMismatch,
    pfaffian,
    substitute,
)


@dataclass(frozen=True)
class _Parts:
    """A tuple of positive parts; each subclass normalises and checks it in __post_init__."""

    parts: tuple[int, ...]

    @classmethod
    def parse(cls, text: str):
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(s) for s in text.split(",")))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)


@dataclass(frozen=True)
class StrictPartition(_Parts):
    """Strictly decreasing positive parts."""

    def __post_init__(self):
        p = tuple(self.parts)
        object.__setattr__(self, "parts", p)
        if any(x <= 0 for x in p):
            raise ValueError(f"parts must be positive: {p}")
        if any(p[i] <= p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"parts must strictly decrease: {p}")


@dataclass(frozen=True)
class OddCycleType(_Parts):
    """Weakly decreasing odd positive parts (cycle type with odd cycles)."""

    def __post_init__(self):
        p = tuple(sorted(self.parts, reverse=True))
        object.__setattr__(self, "parts", p)
        if any(x <= 0 or x % 2 == 0 for x in p):
            raise ValueError(f"parts must be odd and positive: {p}")


def partitions(weight: int, max_length: int | None = None, odd: bool = False) -> Iterator[tuple[int, ...]]:
    """Ordinary partitions of the given weight (weakly decreasing parts); odd parts only when odd."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if max_length is not None and len(prefix) >= max_length:
            return
        top = min(cap, remaining)
        if odd:
            top -= 1 - top % 2  # the largest odd part <= top
        for part in range(top, 0, -2 if odd else -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(weight, weight, ())


def strict_partitions(weight: int, max_length: int | None = None) -> Iterator[StrictPartition]:
    """Strict partitions of the given weight, decreasing lexicographic."""
    for parts in partitions(weight, max_length):
        if all(a > b for a, b in zip(parts, parts[1:])):
            yield StrictPartition(parts)


def odd_cycle_types(weight: int) -> Iterator[OddCycleType]:
    """The partitions of weight into odd parts, in the order of partitions(weight)."""
    for parts in partitions(weight, odd=True):
        yield OddCycleType(parts)


# ---------------------------------------------------------------------------
# q_k and Q_lambda
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_series(n: int, maxdeg: int) -> tuple[Polynomial, ...]:
    """Coefficients q_0..q_maxdeg of Q(t) = prod(1+x_i t)/prod(1-x_i t).

    Each factor (1+x_i t)/(1-x_i t) is 1 + 2 sum_(e>=1) x_i^e t^e, so
    q_k = sum_(|alpha|=k) 2^#{i: alpha_i > 0} x^alpha (Macdonald, III.8).
    weighted_complete builds every monomial of degree <= maxdeg once,
    degree by degree, with its coefficient, so its parts are the q_k.
    """
    if n < 1 or maxdeg < 0:
        raise ValueError("need n >= 1 and maxdeg >= 0")
    return Polynomial.weighted_complete(n, maxdeg, (1,) + (2,) * maxdeg)


@lru_cache(maxsize=None)
def q_two(k: int, l: int, n: int) -> Polynomial:
    """Q_{k,l} = q_k q_l + 2 sum_p (-1)^p q_{k+p} q_{l-p}; Q_{k,0} = q_k.

    The 2 goes on the factor q_{l-p}, the shorter one when k >= l.
    The alternating sign is what makes Q_{k,l} = -Q_{l,k} for k+l > 0;
    Q_{0,l} = -q_l follows from Q(t)Q(-t) = 1.  Q_{0,0} is 0.
    """
    if k < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    if k == 0 and l == 0:
        return Polynomial.zero(n)
    qs = q_series(n, k + l)
    total = qs[k] * qs[l]
    for p in range(1, l + 1):
        term = qs[k + p] * qs[l - p].scale(2)
        total = total - term if p % 2 else total + term
    return total


@lru_cache(maxsize=None)
def schur_q(lam: StrictPartition, n: int) -> Polynomial:
    """Q_lambda via the Pfaffian of the matrix (Q_{lambda_i lambda_j}).

    Odd length is handled by bordering with a zero part, which turns the
    last column into (q_{lambda_i}).  pfaffian reads the strict upper
    triangle, so each entry q_two builds is one above the diagonal.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    parts = lam.parts + (0,) * (lam.length % 2)
    return pfaffian([[q_two(k, l, n) for l in parts[a + 1:]] for a, k in enumerate(parts)],
                    one=Polynomial.constant(n, 1))


# ---------------------------------------------------------------------------
# Power sums and the characteristic map
# ---------------------------------------------------------------------------


def power_sum(l: int, n: int) -> Polynomial:
    """p_l = sum_i x_i^l."""
    if l < 1:
        raise ValueError("power sum index must be >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    return monomial_symmetric((l,), n)


def power_sum_product(nu, n: int) -> Polynomial:
    out = Polynomial.constant(n, 1)
    for part in nu:
        out = out * power_sum(part, n)
    return out


def char_map(nu: OddCycleType, n: int) -> Polynomial:
    """2^{l(nu)} * p_nu, the image of an odd cycle type."""
    return power_sum_product(nu.parts, n).scale(2**nu.length)


def monomial_symmetric(mu: tuple[int, ...], n: int) -> Polynomial:
    """m_mu: sum of all distinct monomials with exponent multiset mu."""
    if len(mu) > n:
        return Polynomial.zero(n)
    orbit = {()}
    for e in (0,) * (n - len(mu)) + tuple(mu):  # insertion keeps each distinct arrangement once, never n! orders
        orbit = {t[:i] + (e,) + t[i:] for t in orbit for i in range(len(t) + 1)}
    return Polynomial(n, dict.fromkeys(orbit, 1))


class NotSymmetric(Exception):
    pass


class NotInSpan(Exception):
    """Polynomial is outside the span of odd power sums."""


def _placements(nu: tuple[int, ...], mu: tuple[int, ...], memo: dict) -> int:
    """The coefficient of x^mu in p_nu, counted without building p_nu.

    p_nu = p_(nu_1) ... p_(nu_r), so the coefficient counts the ways to put
    each part of nu on a variable with the parts on x_i summing to mu_i.
    nu's last part goes on one of the variables holding a value v >= nu_r
    (v's multiplicity of them), and the rest is the count for the shorter
    nu and the re-sorted remainder; a mu with more parts than nu gets none.
    mu is weakly decreasing with no zero parts, so the count does not
    depend on n.  memo is keyed on
    (prefix of nu, mu): the decreasing odd cycle types of one degree share
    their prefixes, and the remainders repeat across the mu.
    """
    if not nu:
        return int(not mu)
    key = (nu, mu)
    count = memo.get(key)
    if count is None:
        count = 0
        if len(mu) <= len(nu):
            last, rest = nu[-1], nu[:-1]
            for i, v in enumerate(mu):
                if v < last:
                    break
                if i and mu[i - 1] == v:
                    continue
                left = mu[:i] + mu[i + 1:]
                if v > last:
                    left = tuple(sorted(left + (v - last,), reverse=True))
                count += mu.count(v) * _placements(rest, left, memo)
        memo[key] = count
    return count


def expand_in_power_sums(p: Polynomial, n: int, maxweight: int) -> dict[OddCycleType, Scalar]:
    """Exact coefficients c_nu with p = sum c_nu p_nu over odd cycle types.

    Solved degree by degree on the dominant monomials x^mu, mu a partition with
    at most n parts, whose coefficients are read from p in place: p and every
    p_nu are symmetric, and a symmetric polynomial with no dominant monomial is
    zero, so the other rows would decide nothing, and a degree whose dominant
    coefficients are all zero is skipped.  The entry of p_nu on x^mu is a
    placement count (_placements), one memo per degree, so no p_nu is built.
    The p_nu of degree d span Gamma^d, of dimension the number of strict
    partitions of d, those with at most n parts in n variables: so the solve is
    unique iff n >= k(d), the largest length of a strict partition of d.
    """
    if p.n != n:
        raise VariableCountMismatch(f"{p.n} vs {n} variables")
    if not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    if p.degree() > maxweight:
        raise ValueError("degree exceeds maxweight")
    result: dict[OddCycleType, Scalar] = {}
    for d in range(p.degree() + 1):
        dominant = list(partitions(d, max_length=n))
        rhs = [p.coefficient(mu + (0,) * (n - len(mu))) for mu in dominant]
        if not any(rhs):
            continue
        nus = list(odd_cycle_types(d))
        memo: dict = {}
        try:
            coeffs = linalg.solve([[_placements(nu.parts, mu, memo) for nu in nus] for mu in dominant], rhs)
        except linalg.InconsistentSystem as exc:
            raise NotInSpan(f"degree-{d} component not in the odd span") from exc
        except ValueError as exc:
            raise ValueError(
                f"the odd power sums of degree {d} are dependent in {n} variables"
            ) from exc
        for nu, c in zip(nus, coeffs):
            if c:
                result[nu] = c
    return result


def is_supersymmetric(p: Polynomial, n: int) -> bool:
    """True iff p(t, -t, x_3, ..) is independent of t.

    Requires a symmetric input; one substituted pair then suffices.
    """
    if p.n != n:
        raise VariableCountMismatch(f"{p.n} vs {n} variables")
    if not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    if n < 2:
        return True
    sub = substitute(p, {1: T_PLUS, 2: T_MINUS})
    return sub.degree_in(sub.n) <= 0  # t is the last variable


# ---------------------------------------------------------------------------
# Shifted standard tableaux
# ---------------------------------------------------------------------------


def shifted_tableaux_count(lam: StrictPartition) -> int:
    """g_lambda = |lambda|! / prod(lambda_i!) * prod_{i<j} (l_i-l_j)/(l_i+l_j)."""
    parts = lam.parts
    value = Fraction(math.factorial(lam.weight))
    for p in parts:
        value /= math.factorial(p)
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            value *= Fraction(parts[a] - parts[b], parts[a] + parts[b])
    if value.denominator != 1:
        raise AssertionError(f"product formula not integral for {lam}")
    return int(value)
