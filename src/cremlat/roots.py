"""The root kernel: monic integer polynomials, their exact real roots, and
cyclotomic stripping.

Everything is decided exactly, in integers: cyclotomic factors are removed
by trial division over Z; one primitive remainder sequence over Z of p and
p' ends in gcd(p, p') and gives p's squarefree part; real roots on an
interval are counted by Descartes' rule of signs on a Taylor shift of p,
halving the interval until each part holds at most one root
(Collins-Akritas); signs at a rational n/d are read from the integer
d^deg p(n/d).  Stripping divides by Phi_n only when Phi_n(2) divides p(2),
as it must when Phi_n divides p.  The largest real root is a
:class:`RootBracket`, one bisection in integers, by Descartes counts until
it holds that root alone and then by signs, in place, to round the root,
or a ratio of integer polynomials at the root, to the nearest float, and
to decide its sign.  Floating point only reports a value.

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
    a count of sign changes reads.  Needs deg a >= deg b.
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


@lru_cache(maxsize=16)
def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), once per polynomial: gcd(p, p') ends the remainder
    sequence of p and p', monic up to sign as p is monic (Gauss's lemma)."""
    g = _remainders(p.coeffs, _primitive(_deriv(p.coeffs)))[-1]
    return IntPolynomial(_divmod_monic(p.coeffs, g if g[-1] > 0 else [-c for c in g])[0])


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


# -- remainder sequences and exact real-root location -----------------------

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
    """Sign changes along seq at -infinity and at +infinity, where each
    member has the sign of its leading term times (+-1)^degree."""
    return (_changes(c[-1] if len(c) % 2 else -c[-1] for c in seq),
            _changes(c[-1] for c in seq))


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


def _shift(a, t) -> list:
    """The coefficients of a(x + t): each synthetic division by x - t, from
    the top (Horner's rule), leaves the next one as its remainder."""
    step = operator.add if t == 1 else lambda acc, c: acc * t + c
    q, out = a[::-1], []
    while q:
        q = list(itertools.accumulate(q, step))
        out.append(q.pop())
    return out


def _variations(p, a: int, b: int, den: int) -> int:
    """Descartes' bound on p's roots in (a/den, b/den), exact when 0 or 1: the
    sign changes of (y + 1)^n p((a y + b)/(den (y + 1))), whose roots in
    (0, inf) are p's in the interval."""
    n = len(p) - 1
    s = _shift([c * den ** (n - i) for i, c in enumerate(p)], a)  # den^n p((x + a)/den)
    return _changes(_shift([c * (b - a) ** i for i, c in enumerate(s)][::-1], 1))


def _isolating(p, a: int, b: int, den: int):
    """Intervals (a/den, b/den) holding one root of the squarefree p each,
    and (m, m, den) for a root m/den that a midpoint hits, largest first:
    what Descartes' rule leaves of (a/den, b/den) by halving each part with
    more than one sign change, which ends (Vincent)."""
    todo = [(a, b, den)] if a < b else []
    while todo:
        a, b, den = todo.pop()
        count = 1 if a == b else _variations(p, a, b, den)
        if count == 1:
            yield a, b, den
        elif count:
            m, den = a + b, 2 * den
            root = [] if _sign_at(p, m, den) else [(m, m, den)]
            todo += [(2 * a, m, den), *root, (m, 2 * b, den)]


def count_real_roots(p: IntPolynomial, lo, hi) -> int:
    """Distinct real roots in (lo, hi], for rationals lo < hi."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    sf, a, b = squarefree_part(p).coeffs, int(lo * den), int(hi * den)
    return sum(1 for _ in _isolating(sf, a, b, den)) + (not _sign_at(sf, b, den))


class RootBracket:
    """The largest real root, above 1, of a squarefree monic integer
    polynomial ``poly`` (ascending), as a bracket (a/den, b/den] in
    integers.  It starts from (1, b] with b the smaller of Cauchy's bound
    1 + max |c_i| and 2^(1 + max_i ceil(bits(c_i) / (n - i))), a power of
    two above Fujiwara's bound 2 max_i |c_i|^(1 / (n - i)); both lie above
    every root.  Once isolated it holds no other root, a == b once a
    midpoint hits the root, and poly is negative from a/den to the root and
    positive above it.  Each answer halves the bracket in place as far as
    it needs, and the next starts from there.

    :meth:`sign` and :meth:`ratio` answer for r = num/den, num and den
    integer polynomials, at the root.  They need ``poly`` irreducible, so
    that r is 0 exactly when num is 0 modulo poly.  Each polynomial, reduced
    modulo poly, is bounded on the bracket by its positive and its negative
    terms, each increasing for x >= 1.
    """

    def __init__(self, poly):
        n, low = len(poly) - 1, poly[:-1]
        fujiwara = 2 << max(-(-c.bit_length() // (n - i)) for i, c in enumerate(low))
        self.poly, self.a, self.b, self.den = poly, 1, min(1 + max(map(abs, low)), fujiwara), 1

    def isolate(self) -> bool:
        """Whether poly has a root above 1.  Descartes' rule on poly(x + 1)
        counts those roots, exactly when it finds one or none; with more, the
        bracket narrows to the first part that :func:`_isolating` leaves of
        it, which holds the largest root alone."""
        if (count := _changes(_shift(self.poly, 1))) < 2:
            return count == 1
        for self.a, self.b, self.den in _isolating(self.poly, self.a, self.b, self.den):
            return True
        return False

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


def dominant_real_root(p: IntPolynomial) -> Optional[float]:
    """The largest real root > 1, correctly rounded to a float, or None."""
    root = RootBracket(squarefree_part(p).coeffs)
    return root.nearest() if root.isolate() else None


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
