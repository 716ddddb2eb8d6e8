"""The root kernel: monic integer polynomials, their exact real roots, and
cyclotomic stripping.

Everything is decided exactly, in integers: cyclotomic factors are removed
by trial division over Z; one primitive remainder sequence over Z per
polynomial p, ending in gcd(p, p'), gives its squarefree part and its Sturm
chain, built once and reused by every count on it; signs at a rational n/d
are read from the integer d^deg p(n/d).  Stripping divides by Phi_n only
when Phi_n(2) divides p(2), as it must when Phi_n divides p.  The largest
real root is a :class:`RootBracket`, one bisection in integers, by Sturm
counts until it holds that root alone and then by signs, in place, to round
the root, or a ratio of integer polynomials at the root, to the nearest
float, and to decide its sign.  Floating point only reports a value.

This is the part of the polynomial code that the lattice commands run (the
dynamical degree and the axis of :mod:`cremlat.spectral`, the steps of
:mod:`cremlat.reduction`); the Salem and Pisot tests and the Salem search
are in :mod:`cremlat.salem`.  Polynomials print through the package's
signed-term printer, :func:`cremlat.format_terms`, in the one variable x.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import format_terms


class IntPolynomial:
    """A monic polynomial with integer coefficients, degree >= 1.

    Coefficients are stored in ascending order; ``coeffs[-1] == 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_reciprocal(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_mul(self.coeffs, other.coeffs))

    def __repr__(self):
        return format_poly(self)


# -- raw coefficient helpers (ascending int lists) ----------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a or [0]


def _divmod_monic(a, b):
    """Divide by a monic divisor; exact integer arithmetic."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        f = a[i + db]
        if f:
            q[i] = f
            for j, y in enumerate(b):
                a[i + j] -= f * y
    return q, a[:db] if db else [0]


def _deriv(a):
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _primitive(a):
    """a divided by its (positive) content; a is not zero."""
    g = math.gcd(*a)
    return [c // g for c in a]


def _prem(a, b):
    """Sign-preserving pseudo-remainder |lc(b)|^(deg a - deg b + 1) * a mod b.

    A positive multiple of the remainder over Q, so it keeps every sign that
    a Sturm count reads.  Needs deg a >= deg b.
    """
    m = abs(b[-1])
    s = 1 if b[-1] > 0 else -1
    db = len(b) - 1
    r = list(a)
    for i in range(len(a) - len(b), -1, -1):
        f = r[i + db] * s
        r = [c * m for c in r[:i + db]]
        for j in range(db):
            r[i + j] -= f * b[j]
    return _trim(r)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), the head of p's Sturm chain."""
    return IntPolynomial(_sturm_chain(p)[0])


# -- cyclotomic polynomials --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by recursive exact division."""
    coeffs = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            coeffs, r = _divmod_monic(coeffs, cyclotomic(d).coeffs)
            if any(r):
                raise ValueError("division is not exact")
    return IntPolynomial(coeffs)


@lru_cache(maxsize=None)
def _cyclotomic_orders(max_phi: int) -> tuple[tuple[int, int], ...]:
    """Every (n, phi(n)) with phi(n) <= max_phi, by ascending n.

    Built from factorizations, phi(prod p^a) = prod p^(a-1) (p - 1): a prime
    p divides such an n only when p - 1 <= max_phi.
    """
    found = [(1, 1)]
    for p in range(2, max_phi + 2):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        for n, phi in list(found):
            pk, phik = p, p - 1
            while phi * phik <= max_phi:
                found.append((n * pk, phi * phik))
                pk, phik = pk * p, phik * p
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _cyclotomic_at_2(n: int) -> int:
    """Phi_n(2), from 2^n - 1 = prod over d | n of Phi_d(2)."""
    divisors = {e for d in range(1, math.isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}
    value = 2 ** n - 1
    for d in divisors - {n}:
        value //= _cyclotomic_at_2(d)
    return value


def strip_cyclotomic(p: IntPolynomial) -> tuple[Optional[IntPolynomial], tuple[int, ...]]:
    """Divide out every cyclotomic factor, with multiplicity.

    Returns the cyclotomic-free part, or None when p is a product of
    cyclotomic polynomials (constant quotient), together with the order n of
    each factor Phi_n divided out, once per multiplicity.  One sweep over the
    orders suffices: each Phi_n is divided out completely before the next,
    and the Phi_n are pairwise coprime.  A division is tried only where it
    can be exact: Phi_n | p in Z[x] forces Phi_n(2) | p(2).
    """
    coeffs = list(p.coeffs)
    at_2 = p(2)
    orders = []
    for n, phi in _cyclotomic_orders(len(coeffs) - 1):
        while len(coeffs) - 1 >= phi and at_2 % _cyclotomic_at_2(n) == 0:
            q, r = _divmod_monic(coeffs, cyclotomic(n).coeffs)
            if any(r):
                break
            coeffs = q
            at_2 //= _cyclotomic_at_2(n)
            orders.append(n)
        if len(coeffs) == 1:
            return None, tuple(orders)
    return IntPolynomial(coeffs), tuple(orders)


# -- Sturm sequences and exact real-root location ---------------------------

def _remainders(a, b) -> list:
    """The signed remainder sequence a, b, -rem(a, b), ... in integers.

    Each remainder is the negated pseudo-remainder of the two members before
    it, made primitive (Collins; Brown-Traub): a positive multiple of the
    sequence over Q, with the same signs everywhere.  It stops at a constant
    or when a division is exact, so its last member is gcd(a, b) up to a
    constant factor.  Needs deg a >= deg b.
    """
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not any(r):
            break
        seq.append(_primitive([-c for c in r]))
    return seq


def _changes_at_infinity(seq) -> tuple[int, int]:
    """Sign changes along seq at -infinity and at +infinity.

    There each member has the sign of its leading term times (+-1)^degree.
    """
    return (_changes(c[-1] if len(c) % 2 else -c[-1] for c in seq),
            _changes(c[-1] for c in seq))


@lru_cache(maxsize=16)
def _sturm_chain(p: IntPolynomial) -> tuple:
    """A Sturm chain of p's distinct roots, in integers, once per polynomial.

    The remainder sequence of p and p' ends in g = gcd(p, p'), monic up to
    sign since p is monic (Gauss's lemma).  A nonconstant g divides every
    member, which keeps each count of sign changes and leaves p's squarefree
    part at the head.  The cache serves the counts that follow one another
    on the same polynomial (a Salem candidate, a bisection).
    """
    seq = _remainders(p.coeffs, _primitive(_deriv(p.coeffs)))
    g = seq[-1] if seq[-1][-1] > 0 else [-c for c in seq[-1]]
    if len(g) > 1:
        seq = [_divmod_monic(c, g)[0] for c in seq]
    return tuple(tuple(c) for c in seq)


def _sign_at(coeffs, n: int, d: int) -> int:
    """Sign of p(n/d), from the integer sum c_i n^i d^(deg - i) (d > 0)."""
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _changes(values) -> int:
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _changes_at(chain, x) -> int:
    """Sign changes along a Sturm chain at the rational x."""
    x = Fraction(x)
    return _changes(_sign_at(c, x.numerator, x.denominator) for c in chain)


def count_real_roots(p: IntPolynomial, lo, hi) -> int:
    """Distinct real roots in (lo, hi], for rationals lo and hi."""
    chain = _sturm_chain(p)
    return _changes_at(chain, lo) - _changes_at(chain, hi)


class RootBracket:
    """The largest real root, above 1, of a squarefree monic integer
    polynomial ``poly`` (ascending), as a bracket (a/den, b/den] in
    integers, from (1, 1 + max |c_i|] (Cauchy's bound) on.  Once isolated
    it holds no other root, a == b once a midpoint hits the root, and poly
    is negative from a/den to the root and positive above it.  Each answer
    halves the bracket in place as far as it needs, and the next starts
    from there.

    :meth:`sign` and :meth:`ratio` answer for r = num/den, num and den
    integer polynomials, at the root.  They need ``poly`` irreducible, so
    that r is 0 exactly when num is 0 modulo poly.  Each polynomial, reduced
    modulo poly, is bounded on the bracket by its positive and its negative
    terms, each increasing for x >= 1.
    """

    def __init__(self, poly):
        self.poly, self.a, self.b, self.den = poly, 1, 1 + max(abs(c) for c in poly[:-1]), 1

    def isolate(self, chain) -> bool:
        """Halve by Sturm counts on ``chain``, a Sturm chain of poly, until
        the bracket holds one root and a/den is none; False if it holds
        none.  The sign changes at b are those at +infinity, which no root
        lies between, and stay so: a half without a root has as many at
        both ends."""
        upper = _changes_at_infinity(chain)[1]
        signs = [_sign_at(c, self.a, self.den) for c in chain]
        count, low = _changes(signs) - upper, signs[0]
        while count > 1 or count and not low:
            mid, self.a, self.b, self.den = self.a + self.b, 2 * self.a, 2 * self.b, 2 * self.den
            signs = [_sign_at(c, mid, self.den) for c in chain]
            if above := _changes(signs) - upper:
                self.a, count, low = mid, above, signs[0]
            elif signs[0]:
                self.b = mid
            else:  # the largest root is mid
                self.a = self.b = mid
                break
        return count > 0

    def halve(self, times: int = 1):
        for _ in range(times):  # in integers: doubling keeps the midpoint one
            mid, self.a, self.b, self.den = self.a + self.b, 2 * self.a, 2 * self.b, 2 * self.den
            sm = _sign_at(self.poly, mid, self.den)
            if sm <= 0:
                self.a = mid
            if sm >= 0:
                self.b = mid

    def nearest(self) -> float:
        """The root, correctly rounded (int true division rounds correctly),
        also a root at the tie of two floats (an integer above 2^53), which
        a midpoint need not hit."""
        def side(t):  # poly is negative below the root
            return -_sign_at(self.poly, t.numerator, t.denominator)

        while (out := _nearest(self.a / self.den, self.b / self.den, side)) is None:
            self.halve()
        return out

    def sign(self, num, den=(1,)) -> int:
        """The sign of r."""
        num = self._reduced(num)
        if not any(num):
            return 0
        return self._decide(num, den, lambda lo, hi: 1 if lo[0] > 0 else -1 if hi[0] < 0 else None)

    def ratio(self, num, den=(1,), sqrt: bool = False) -> float:
        """The float nearest to r, or to sqrt(r) for r >= 0."""
        num, den = self._reduced(num), self._reduced(den)
        rounded = _sqrt_ratio if sqrt else operator.truediv

        def side(t):  # the sign of r - t, or of r - t^2 for sqrt(r)
            s = t * t if sqrt else t
            return self.sign([s.denominator * u - s.numerator * v for u, v in zip(num, den)], den)

        def answer(lo, hi):
            x, y = rounded(max(lo[0], 0) if sqrt else lo[0], lo[1]), rounded(*hi)
            return _nearest(x, y, side)

        return self._decide(num, den, answer)

    def _reduced(self, f) -> list:
        r = _divmod_monic(f, self.poly)[1]
        return r + [0] * (len(self.poly) - 1 - len(r))

    def _decide(self, num, den, answer):
        """answer(lo, hi) for lo[0]/lo[1] <= r <= hi[0]/hi[1] (lo[1], hi[1] > 0),
        halving the bracket, twice as often after each try, until it returns
        a value other than None; num is reduced."""
        den = self._reduced(den)
        if not any(den):
            raise ZeroDivisionError("the denominator vanishes at the root")
        times, k = 1, len(num) - 1
        while True:
            # den^k x^i at x = a/den and x = b/den, i <= k = deg poly - 1
            dens = list(itertools.accumulate([1] + [self.den] * k, operator.mul))[::-1]
            ends = [[u * v for u, v in zip(itertools.accumulate([1] + [x] * k, operator.mul), dens)]
                    for x in (self.a, self.b)]
            (n1, n2), (d1, d2) = _bounds(num, ends), _bounds(den, ends)
            if d2 < 0:
                n1, n2, d1, d2 = -n2, -n1, -d2, -d1
            if d1 > 0:
                out = answer((n1, d2 if n1 >= 0 else d1), (n2, d1 if n2 >= 0 else d2))
                if out is not None:
                    return out
            self.halve(times)
            times *= 2


def _bounds(f, ends) -> tuple:
    """The least and the greatest den^k f on a bracket, from the values
    ``ends`` of den^k x^i at its two ends: the least takes the positive
    terms at the lower end and the negative ones at the upper end."""
    return (sum(c * ends[c < 0][i] for i, c in enumerate(f)),
            sum(c * ends[c > 0][i] for i, c in enumerate(f)))


def dominant_root_bracket(p: IntPolynomial) -> Optional[RootBracket]:
    """The largest real root > 1 of p, as a bracket on p's squarefree part,
    or None."""
    chain = _sturm_chain(p)
    root = RootBracket(chain[0])
    return root if root.isolate(chain) else None


def dominant_real_root(p: IntPolynomial) -> Optional[float]:
    """The largest real root > 1, correctly rounded to a float, or None."""
    root = dominant_root_bracket(p)
    return None if root is None else root.nearest()


def _nearest(x: float, y: float, side) -> Optional[float]:
    """The float nearest to v, x <= v <= y, or None while x and y are not
    adjacent floats: for adjacent ones, x below their tie t, y above it and
    float(t), the even one, at it, where side(t) is the sign of v - t."""
    if x == y:
        return x
    if math.nextafter(x, y) != y:
        return None
    t = (Fraction(x) + Fraction(y)) / 2
    s = side(t)
    return float(t) if s == 0 else y if s > 0 else x


def _sqrt_ratio(n: int, m: int) -> float:
    """sqrt(n / m) for ints n >= 0 and m > 0, rounded once to the nearest
    float: an integer square root with at least 109 bits, the last of them
    set when inexact (round to odd), then one correctly rounded division."""
    k = max(0, 110 - (n.bit_length() - m.bit_length()) // 2)
    n <<= 2 * k
    r = math.isqrt(n // m)
    return (r | (r * r * m != n)) / (1 << k)


def format_poly(p: IntPolynomial) -> str:
    """The text of p, highest power first, which :func:`cremlat.salem.parse_poly`
    reads back."""
    return format_terms({(e,): c for e, c in enumerate(p.coeffs) if c}, "x")
