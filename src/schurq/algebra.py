"""Exact arithmetic substrate.

Sparse multivariate polynomials over arbitrary-precision rationals, each
monomial packed into one int (see _pack), rational functions whose
denominators stay factored over the binomials x_i - x_j and x_i + x_j,
and a generic Pfaffian.

Variable indices are 1-based throughout the public API.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]

# sentinel values for substitute()
T_PLUS = "t"
T_MINUS = "-t"


class VariableCountMismatch(ValueError):
    """Operands live in rings with different variable counts."""


class ExponentOverflow(ValueError):
    """A total degree exceeds MAX_DEGREE, the largest a packed monomial holds."""


def _coeff(c: Scalar) -> Scalar:
    """Canonical coefficient: an int when c is integral, else a Fraction.

    Floats are refused: they are not exact, and Fraction(0.1) is not 1/10.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# A monomial x_1^e_1 ... x_n^e_n is one int: e_i in the _BITS-bit field at
# bit _BITS*(i-1), and the total degree in the field above them, at bit
# _BITS*n.  Every exponent is at most the total degree, so while the degree
# is at most MAX_DEGREE no field can carry into its neighbour, and the key of
# a product is the sum of the keys.  Below the degree field, x_n is the most
# significant exponent, so flipping those bits (m ^ _low(n)) orders keys as
# graded reverse lex: higher degree first, then smaller e_n, then smaller
# e_(n-1), and so on.
_BITS = 10
_MASK = (1 << _BITS) - 1
MAX_DEGREE = _MASK


def _low(n: int) -> int:
    """The exponent fields of an n-variable key, below its degree field."""
    return (1 << _BITS * n) - 1


def _overflow(degree: int) -> ExponentOverflow:
    return ExponentOverflow(f"total degree {degree} exceeds {MAX_DEGREE}, the largest a monomial holds")


def _pack(exps: tuple[int, ...], n: int) -> int:
    """The key of the exponent vector exps, which must have n entries."""
    if len(exps) != n:
        raise VariableCountMismatch(f"monomial {exps} has {len(exps)} entries, expected {n}")
    key = degree = 0
    for e in reversed(exps):
        if type(e) is not int:
            raise TypeError(f"exponent {e!r} in {exps} is not an int")
        if e < 0:
            raise ValueError(f"negative exponent in {exps}")
        key = key << _BITS | e
        degree += e
    if degree > MAX_DEGREE:
        raise _overflow(degree)
    return key | degree << _BITS * n


def _shifts(n: int) -> range:
    """The bit offsets of the exponent fields of an n-variable key, x_1's first."""
    return range(0, _BITS * n, _BITS)


def _unpack(key: int, n: int) -> tuple[int, ...]:
    return tuple([key >> s & _MASK for s in _shifts(n)])


class Polynomial:
    """Sparse polynomial in x_1..x_n with rational coefficients.

    terms maps packed monomial keys (see _pack) to coefficients.  The map
    never stores zero coefficients, and stores each one in canonical form
    (see _coeff): an int when it is integral, else a Fraction with
    denominator > 1.  Exponent tuples appear only at the edges: the
    constructor and coefficient pack them, and leading_term unpacks the
    key it returns; to_json_obj and to_text read exponents straight from
    the ordered keys.  substitute maps each key to its image key.
    Instances are treated as immutable; no method mutates self.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[int, Scalar] = {}
        for exps, coeff in terms.items():
            key = _pack(tuple(exps), n)
            c = _coeff(coeff)
            if c:
                clean[key] = c
        self.n = n
        self.terms = clean

    @staticmethod
    def _from_keys(n: int, terms: dict[int, Scalar]) -> "Polynomial":
        """Wrap a packed term map that is already clean (no zero, canonical coefficients)."""
        out = Polynomial.__new__(Polynomial)
        out.n = n
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, c: Scalar) -> "Polynomial":
        return Polynomial._from_keys(n, {0: c} if (c := _coeff(c)) else {})

    @staticmethod
    def monomial(n: int, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(n, {tuple(exps): coeff})

    @staticmethod
    def weighted_complete(n: int, d: int, w: Sequence[int]) -> tuple["Polynomial", ...]:
        """The parts of degree 0..d of sum over |alpha| <= d of prod_i w[alpha_i] x^alpha, in x_1..x_n.

        The weights w[0..d] are nonzero ints, so every product is a canonical coefficient.  Raising e_i
        by e adds e to its field and to the degree field, so it takes a degree-(k - e) key to degree k.
        """
        if d > MAX_DEGREE:
            raise _overflow(d)
        if n < 0 or d < 0 or len(w) <= d or any(type(c) is not int or not c for c in w):
            raise ValueError(f"need n >= 0, d >= 0 and {d + 1} nonzero int weights")
        top = _BITS * n
        parts: list[dict[int, Scalar]] = [{0: 1}] + [{} for _ in range(d)]  # by degree, in x_1..x_i
        for i in range(n):
            unit = (1 << _BITS * i) + (1 << top)
            parts = [{m + e * unit: c * w[e] for e in range(k + 1) for m, c in parts[k - e].items()}
                     for k in range(d + 1)]
        return tuple(Polynomial._from_keys(n, t) for t in parts)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> Scalar:
        """The coefficient of x^exps (0 when absent)."""
        return self.terms.get(_pack(tuple(exps), self.n), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial (reporting only)."""
        if not self.terms:
            return -1
        return max(self.terms) >> _BITS * self.n

    def degree_in(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        if not self.terms:
            return -1
        return max(m >> _BITS * (i - 1) & _MASK for m in self.terms)

    def is_symmetric(self) -> bool:
        """Invariant under x_1 <-> x_2 and the cycle x_1 -> x_2 -> .. -> x_n -> x_1, which generate S_n.

        The cycle shifts the exponent fields of a key up by one and wraps e_n round to the field of x_1.
        Each generator is a bijection on keys, so it fixes p exactly when it maps every key onto a key
        with an equal coefficient: one lookup per term, and no image is built.
        """
        n, terms = self.n, self.terms
        if n < 2:
            return True
        move = 1 - (1 << _BITS)  # adding (e_2 - e_1) * move swaps the fields of x_1 and x_2
        if not all(terms.get(m + ((m >> _BITS & _MASK) - (m & _MASK)) * move) == c for m, c in terms.items()):
            return False
        if n == 2:
            return True  # the cycle is the swap
        low, at = _low(n), _BITS * (n - 1)
        return all(terms.get(m & ~low | m << _BITS & low | m >> at & _MASK) == c for m, c in terms.items())

    def leading_term(self) -> tuple[tuple[int, ...], Scalar]:
        """Grevlex-leading (monomial, coefficient); error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_low(self.n).__xor__)
        return _unpack(m, self.n), self.terms[m]

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} vs {other.n} variables")

    def __add__(self, other: "Polynomial", op=operator.add) -> "Polynomial":
        """self + other; __sub__ runs the same loop with op=operator.sub."""
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = op(terms.get(m, 0), c)
            if s:
                terms[m] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                terms.pop(m, None)
        return Polynomial._from_keys(self.n, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_keys(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.__add__(other, operator.sub)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self  # the shorter operand in the outer loop
        a, b = self.terms, other.terms
        terms: dict[int, Scalar] = {}
        if not a:
            return Polynomial._from_keys(self.n, terms)
        if a == {0: 1}:
            return other
        shift = _BITS * self.n  # the largest key has the largest degree
        degree = (max(a) >> shift) + (max(b) >> shift)
        if degree > MAX_DEGREE:
            raise _overflow(degree)
        if len(a) == 1:  # one term shifts every key, so no two products meet
            ((m1, c1),) = a.items()
            for m2, c2 in b.items():
                s = c1 * c2
                terms[m1 + m2] = s if type(s) is int or s.denominator != 1 else s.numerator
            return Polynomial._from_keys(self.n, terms)
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                s = terms.get(m, 0) + c1 * c2
                if s:  # _coeff's rule, inlined: this runs once per term pair
                    terms[m] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    terms.pop(m, None)
        return Polynomial._from_keys(self.n, terms)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _coeff(c)
        terms = {m: _coeff(v * c) for m, v in self.terms.items()} if c else {}
        return Polynomial._from_keys(self.n, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------

    def euler(self, i: int) -> "Polynomial":
        """x_i * d/dx_i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        at = _BITS * (i - 1)
        terms = {m: _coeff(c * e) for m, c in self.terms.items() if (e := m >> at & _MASK)}
        return Polynomial._from_keys(self.n, terms)

    def transposed(self, a: int, b: int) -> "Polynomial":
        """p with x_a and x_b exchanged."""
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise IndexError(f"variable indices {a}, {b} out of range 1..{self.n}")
        if a == b:
            return self
        at, bt = _BITS * (a - 1), _BITS * (b - 1)
        move = (1 << at) - (1 << bt)  # adding (e_b - e_a) * move swaps the two fields
        terms = {m + ((m >> bt & _MASK) - (m >> at & _MASK)) * move: c for m, c in self.terms.items()}
        return Polynomial._from_keys(self.n, terms)

    def plus_transposes(self, pairs: Iterable[tuple[int, int]]) -> "Polynomial":
        """self + the sum over (a, b) in pairs of self.transposed(a, b), built in one term map."""
        terms = dict(self.terms)
        for a, b in pairs:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise IndexError(f"variable indices {a}, {b} out of range 1..{self.n}")
            at, bt = _BITS * (a - 1), _BITS * (b - 1)
            move = (1 << at) - (1 << bt)
            for m, c in self.terms.items():
                m += ((m >> bt & _MASK) - (m >> at & _MASK)) * move
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    del terms[m]  # a zero sum means m held -c
        return Polynomial._from_keys(self.n, terms)

    # -- serialization -----------------------------------------------
    # A canonical coefficient (see _coeff) prints under str as format_fraction prints it.

    def _ordered(self) -> list[int]:
        """The keys of self, grevlex-largest first."""
        return sorted(self.terms, key=_low(self.n).__xor__, reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        terms, fields = self.terms, [(s, f"x{i}") for i, s in enumerate(_shifts(self.n), 1)]
        pieces = []
        for m in self._ordered():
            c = terms[m]
            size = abs(c)
            mono = "*".join(x if e == 1 else f"{x}^{e}" for s, x in fields if (e := m >> s & _MASK))
            body = (mono if size == 1 else f"{size}*{mono}") if mono else str(size)
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        text = " ".join(pieces)
        return ("-" if text[0] == "-" else "") + text[2:]

    def to_json_obj(self) -> dict:
        terms, shifts = self.terms, _shifts(self.n)
        return {
            "n": self.n,
            "terms": [{"exp": [m >> s & _MASK for s in shifts], "coeff": str(terms[m])} for m in self._ordered()],
        }

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


def format_fraction(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def substitute(p: Polynomial, assignment: Mapping[int, object]) -> Polynomial:
    """Substitute values for some variables of p.

    assignment maps 1-based variable indices to a Fraction/int, or to the
    sentinels T_PLUS / T_MINUS.  The result lives in the ring over the
    unassigned variables (original order) followed by t as the last
    variable when any t-sentinel is used.
    """
    n = p.n
    for i in assignment:
        if not 1 <= i <= n:
            raise IndexError(f"assigned variable {i} out of range 1..{n}")
    # Each key maps straight to its image key.  A kept field moves down one
    # field per assigned variable below it, so a run of kept variables moves
    # as one masked block.  An assigned field folds into the coefficient (a
    # value) or into the t field, the last one (a sentinel); the degree field
    # loses what the values took.
    runs: list[tuple[int, int]] = []  # (mask of a run of kept fields, its shift down)
    values: list[tuple[int, Scalar]] = []  # (field offset, value)
    signs: list[tuple[int, bool]] = []  # (field offset, negated) of the t-sentinels
    for i in range(1, n + 1):
        at = _BITS * (i - 1)
        if i not in assignment:
            gone = _BITS * (len(values) + len(signs))
            if runs and runs[-1][1] == gone:
                runs[-1] = (runs[-1][0] | _MASK << at, gone)
            else:
                runs.append((_MASK << at, gone))
        elif (v := assignment[i]) in (T_PLUS, T_MINUS):
            signs.append((at, v == T_MINUS))
        else:
            values.append((at, _coeff(v)))
    n_out = n - len(values) - len(signs) + bool(signs)
    t_at, degree_at, top = _BITS * (n_out - 1), _BITS * n_out, _BITS * n
    terms: dict[int, Scalar] = {}
    for m, c in p.terms.items():
        key = 0
        for mask, gone in runs:
            key |= (m & mask) >> gone
        degree = m >> top
        for at, v in values:
            if e := m >> at & _MASK:
                c *= v**e
                degree -= e
        if not c:
            continue
        if signs:
            t = 0
            for at, negated in signs:
                e = m >> at & _MASK
                t += e
                if negated and e & 1:
                    c = -c
            key |= t << t_at
        key |= degree << degree_at
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s if type(s) is int or s.denominator != 1 else s.numerator
        else:
            del terms[key]
    return Polynomial._from_keys(n_out, terms)


# ---------------------------------------------------------------------------
# Factored denominators
# ---------------------------------------------------------------------------


class Factor(namedtuple("Factor", "kind i j")):
    """Denominator atom: x_i - x_j ('diff') or x_i + x_j ('sum'), with 1 <= i < j.

    An immutable (kind, i, j) tuple, hashed, compared and ordered as one.  A
    swapped difference is recorded by the caller negating the overall sign
    (see Factor.ordered).
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int):
        if kind not in ("diff", "sum"):
            raise ValueError(f"bad factor kind {kind!r}")
        if not 1 <= i < j:
            raise ValueError(f"factors require 1 <= i < j, got {i}, {j}")
        return tuple.__new__(cls, (kind, i, j))

    @staticmethod
    def ordered(kind: str, i: int, j: int) -> tuple["Factor", int]:
        """(factor, sign) with x_i -+ x_j = sign * factor: a reversed difference has sign -1."""
        if i < j:
            return Factor(kind, i, j), 1
        return Factor(kind, j, i), -1 if kind == "diff" else 1

    def as_polynomial(self, n: int) -> Polynomial:
        if self.j > n:
            raise IndexError(f"variable index {self.j} out of range 1..{n}")
        top = 1 << _BITS * n
        xi, xj = (1 << _BITS * (self.i - 1)) + top, (1 << _BITS * (self.j - 1)) + top
        return Polynomial._from_keys(n, {xi: 1, xj: -1 if self.kind == "diff" else 1})

    def __str__(self) -> str:
        op = "-" if self.kind == "diff" else "+"
        return f"(x{self.i}{op}x{self.j})"


class NotDivisible(Exception):
    """exact_divide remainder is nonzero (a normal outcome, not a bug)."""


def exact_divide(p: Polynomial, f: Factor) -> Polynomial:
    """Divide p by the factor polynomial exactly, or raise NotDivisible; forms are read in place."""
    # binomial x_i -+ x_j: p splits into binary forms sum_a c_a x_i^a x_j^(e-a),
    # one per exponent vector outside {i, j} and degree e = e_i + e_j.  Each
    # form is divided on its own by synthetic division, d_(a-1) = c_a +- d_a,
    # and divides iff its remainder c_0 +- d_0 is zero.  A form is keyed by its
    # x_i^e term (e_j moved into e_i's field); c_(a-1) is keyed by c_a's key
    # minus move, and the quotient term x_i^(a-1) x_j^(e-a) by c_a's minus drop.
    at, bt = _BITS * (f.i - 1), _BITS * (f.j - 1)
    move = (1 << at) - (1 << bt)
    step = operator.add if f.kind == "diff" else operator.sub
    terms = p.terms
    drop = (1 << at) + (1 << _BITS * p.n)
    quo: dict[int, Scalar] = {}
    for m in {k + (k >> bt & _MASK) * move for k in terms}:
        d = 0
        for _ in range(m >> at & _MASK):
            d = step(terms.get(m, 0), d)
            if d:
                quo[m - drop] = d if type(d) is int else _coeff(d)
            m -= move
        if step(terms.get(m, 0), d):
            raise NotDivisible(str(f))
    return Polynomial._from_keys(p.n, quo)


class RationalFunction:
    """Polynomial numerator over a multiset of Factor denominators.

    Kept reduced: no denominator factor exactly divides the numerator.
    The overall sign is absorbed into the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Optional[Mapping[Factor, int]] = None):
        d = {f: m for f, m in (den or {}).items() if m}
        for f, m in d.items():
            if m < 0:
                raise ValueError("negative factor multiplicity")
            if f.j > num.n:
                raise VariableCountMismatch(f"factor {f} is outside x1..x{num.n}")
        self.num = num
        self.den = d
        self._reduce(list(d))

    @staticmethod
    def _reduced(num: Polynomial, den: dict[Factor, int]) -> "RationalFunction":
        """Wrap a (num, den) pair that is already reduced; den is a map no other value holds."""
        out = RationalFunction.__new__(RationalFunction)
        out.num = num
        out.den = den
        return out

    def _reduce(self, factors: Iterable[Factor]) -> "RationalFunction":
        """Cancel each of factors (all in den) that divides num; return self.

        The factors are pairwise coprime primes, so one sweep suffices.  A
        zero num takes an empty den even when no factor is tried, and a
        monomial num, coprime to every factor, tries none.  The factors
        that can newly divide num, for reduced operands a and b:
        - in RationalFunction(num, den), the entry for values built outside
          the arithmetic, every factor;
        - in a + b, those of equal multiplicity in a.den and b.den: where
          a's is larger, the lift of b carries f and the lift of a does not;
        - in a * b, a factor of one side that the other's den lacks, when
          the other's num has more than one term: f is prime and divides
          neither reduced num, nor any monomial;
        - in a.euler(i), those without x_i: modulo one through x_i the new
          num is +-m num x_i times the other raised factors, which is nonzero;
        - in a.total_euler(), every factor: a homogeneous num of degree e
          maps to (e - deg(den)) num, but an inhomogeneous one can gain any;
        - in -a, a.scale(c) and a.transposed(s, t), none.
        Operands without a denominator skip this: a + b, a * b, a.euler(i)
        and a.transposed(s, t) are then the numerators' operation over {}.
        """
        if not self.num.terms:
            self.den = {}
            return self
        if len(self.num.terms) == 1:
            return self
        for f in factors:
            m = self.den[f]
            try:
                while m:
                    self.num = exact_divide(self.num, f)
                    m -= 1
            except NotDivisible:
                pass
            if m:
                self.den[f] = m
            else:
                del self.den[f]
        return self

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction._reduced(p, {})

    @staticmethod
    def zero(n: int) -> "RationalFunction":
        return RationalFunction._reduced(Polynomial.zero(n), {})

    @staticmethod
    def constant(n: int, c: Scalar) -> "RationalFunction":
        return RationalFunction._reduced(Polynomial.constant(n, c), {})

    # -- predicates --------------------------------------------------

    @property
    def n(self) -> int:
        return self.num.n

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    def as_polynomial(self) -> Polynomial:
        if self.den:
            raise ValueError(f"denominator {self.den} did not clear")
        return self.num

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.n != other.n:
            raise VariableCountMismatch(f"{self.n} vs {other.n} variables")

    def __add__(self, other: "RationalFunction", op=operator.add) -> "RationalFunction":
        """self + other; __sub__ runs the same code with op=operator.sub."""
        self._check(other)  # else lift() can meet a factor beyond self.n and raise IndexError
        if not self.den and not other.den:
            return RationalFunction._reduced(op(self.num, other.num), {})
        # common denominator = factor-wise max multiplicity
        common: dict[Factor, int] = dict(self.den)
        for f, m in other.den.items():
            common[f] = max(common.get(f, 0), m)

        def lift(r: "RationalFunction") -> Polynomial:
            num = r.num
            for f, m in common.items():
                deficit = m - r.den.get(f, 0)
                if deficit:
                    fp = f.as_polynomial(r.n)
                    for _ in range(deficit):
                        num = num * fp
            return num

        same = [f for f, m in self.den.items() if other.den.get(f) == m]
        return RationalFunction._reduced(op(lift(self), lift(other)), common)._reduce(same)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._reduced(-self.num, dict(self.den))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self.__add__(other, operator.sub)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        # no _check: self.num * other.num, on either path, raises the same VariableCountMismatch
        if not self.den and not other.den:
            return RationalFunction._reduced(self.num * other.num, {})
        den: dict[Factor, int] = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        tried = [f for f in self.den if f not in other.den] if len(other.num.terms) > 1 else []
        if len(self.num.terms) > 1:
            tried += [f for f in other.den if f not in self.den]
        return RationalFunction._reduced(self.num * other.num, den)._reduce(tried)

    def scale(self, c: Scalar) -> "RationalFunction":
        num = self.num.scale(c)
        return RationalFunction._reduced(num, dict(self.den) if num.terms else {})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            other = RationalFunction.from_polynomial(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # both sides are reduced, and a reduced (num, den) is unique
        self._check(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # equal to a Polynomial exactly when den is empty, so hash as one then
        return hash((self.num, frozenset(self.den.items()))) if self.den else hash(self.num)

    # -- calculus ----------------------------------------------------

    def euler(self, i: int) -> "RationalFunction":
        """x_i * d/dx_i, by the quotient rule over the factored denominator.

        With D = x_i d/dx_i, D(N / prod f^m) = (D N - N * sum m D(f)/f) / prod f^m.
        Each binomial f through x_i contributes D(f)/f = +-x_i/f, so its power
        in the result's denominator grows by one; the other factors are constant
        under D.
        """
        num = self.num.euler(i)
        if not self.den:
            return RationalFunction._reduced(num, {})
        grown = None  # product of the binomials raised so far, once there is one
        den = dict(self.den)
        for f, m in self.den.items():
            if i in (f.i, f.j):
                fp = f.as_polynomial(self.n)
                term = self.num.scale(m) * fp.euler(i)
                num = num * fp - (term if grown is None else term * grown)
                grown = fp if grown is None else grown * fp
                den[f] += 1
        return RationalFunction._reduced(num, den)._reduce([f for f in self.den if i not in (f.i, f.j)])

    def total_euler(self) -> "RationalFunction":
        """sum_i x_i d/dx_i, the Euler derivation E, in one pass over the numerator.

        Every factor is a binomial of degree 1, so E D = deg(D) D and
        E(N/D) = (E N - deg(D) N)/D, where E scales each term of N by its
        total degree (the key's degree field) and deg(D) sums the factor
        multiplicities.
        """
        shift, deg = _BITS * self.n, sum(self.den.values())
        terms = {m: _coeff(c * k) for m, c in self.num.terms.items() if (k := (m >> shift) - deg)}
        num = Polynomial._from_keys(self.n, terms)
        return RationalFunction._reduced(num, dict(self.den))._reduce(list(self.den))

    def transposed(self, a: int, b: int) -> "RationalFunction":
        """self with x_a and x_b exchanged, reduced as it stands (see _reduce)."""
        num = self.num.transposed(a, b)
        if not self.den:
            return RationalFunction._reduced(num, {})
        swap = {a: b, b: a}
        den: dict[Factor, int] = {}
        for f, m in self.den.items():
            g, sign = Factor.ordered(f.kind, swap.get(f.i, f.i), swap.get(f.j, f.j))
            den[g] = m
            if sign < 0 and m % 2:
                num = -num
        return RationalFunction._reduced(num, den)

    # -- serialization -----------------------------------------------

    def to_text(self) -> str:
        num = self.num.to_text()
        if not self.den:
            return num
        den = "*".join(
            str(f) if m == 1 else f"{f}^{m}"
            for f, m in sorted(self.den.items())
        )
        return f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.to_text()})"


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------


def pfaffian(upper, one=1):
    """Pfaffian of a skew-symmetric matrix, given as its strict upper triangle, by first-row expansion.

    Row a of upper holds the entries (a, b) for b = a+1 .. size-1, so every
    input is skew-symmetric by construction.  Entries may be any ring
    elements supporting +, -, *.  The Pfaffian of a 2x2 block is its upper
    entry, so the expansion stops there.  `one` is the Pfaffian of the empty
    matrix: the scalar 1 by default, to be supplied for other rings (e.g.
    Polynomial matrices).
    """
    size = len(upper)
    if size % 2:
        raise ValueError("Pfaffian requires even size")
    if any(len(row) != size - 1 - a for a, row in enumerate(upper)):
        raise ValueError("rows must form a strict upper triangle")
    if not size:
        return one

    def rec(indices: tuple[int, ...]):
        first, rest = indices[0], indices[1:]
        row = upper[first]  # row[b - first - 1] is the entry (first, b)
        if len(rest) == 1:
            return row[rest[0] - first - 1]
        total = row[rest[0] - first - 1] * rec(rest[1:])
        for pos in range(1, len(rest)):
            term = row[rest[pos] - first - 1] * rec(rest[:pos] + rest[pos + 1 :])
            total = total - term if pos % 2 else total + term
        return total

    return rec(tuple(range(size)))
