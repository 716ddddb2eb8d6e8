"""Monic integer polynomials: roots, cyclotomic stripping, Salem/Pisot tests.

Every classification is decided exactly, in integers: cyclotomic factors are
removed by trial division over Z; gcds, squarefree parts and Sturm chains
come from primitive remainder sequences over Z, with one chain built per
polynomial and reused by every count on it; signs at a rational n/d are read
from the integer d^deg p(n/d).  Circle roots of reciprocal polynomials are
located through the substitution y = x + 1/x (a root lies on the unit circle
exactly when the transformed polynomial has a real root in (-2, 2)).  Roots
outside the unit circle are counted by the Routh-Hurwitz theorem after the
map w = (z - 1)/(z + 1), with Cauchy indices read off the same kind of
remainder sequence.  Floating point only reports a root's value, as the
float nearest to it.

Two exact prefilters skip work that cannot succeed.  Stripping divides by
Phi_n only when Phi_n(2) divides p(2), as it must when Phi_n divides p.  The
Salem search rejects a candidate Q of degree n before any Sturm chain when
Descartes' rule of signs, applied to (x + 1)^n Q((2x - 2)/(x + 1)), leaves
room for fewer than n - 1 roots in (-2, 2] (Collins-Akritas).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple, Optional, Sequence

from . import InputSyntaxError, join_signed


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


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    q, r = _divmod_monic(a.coeffs, b.coeffs)
    if any(c != 0 for c in r):
        raise ValueError("division is not exact")
    return IntPolynomial(q)


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


def _gcd(a, b):
    """gcd over Z[x] by a primitive remainder sequence (Collins; Brown-Traub).

    The result is primitive with a positive leading coefficient; by Gauss's
    lemma it is therefore monic whenever a or b is monic.  Each divisor is
    made primitive before it divides, which keeps the coefficients small.
    Needs deg a >= deg b and no leading zeros.
    """
    while any(b):
        b = _primitive(b)
        a, b = b, _prem(a, b)
    a = _primitive(a)
    return a if a[-1] > 0 else [-c for c in a]


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    g = _gcd(p.coeffs, _deriv(p.coeffs))
    if len(g) == 1:
        return p
    return exact_div(p, IntPolynomial(g))


# -- cyclotomic polynomials --------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by recursive exact division."""
    result = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            result = exact_div(result, cyclotomic(d))
    return result


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
    it, made primitive: a positive multiple of the sequence over Q, with the
    same signs everywhere.  It stops at a constant or when a division is
    exact.  Needs deg a >= deg b.
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
    """The Sturm chain of p's squarefree part, in integers, once per polynomial.

    The cache serves the counts that follow one another on the same
    polynomial (a Salem candidate, a bisection).
    """
    sf = list(squarefree_part(p).coeffs)
    return tuple(tuple(c) for c in _remainders(sf, _primitive(_deriv(sf))))


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


def count_real_roots(p: IntPolynomial, lo=None, hi=None) -> int:
    """Distinct real roots in (lo, hi]; None endpoints mean +-infinity."""
    chain = _sturm_chain(p)
    at_minus_inf, at_inf = _changes_at_infinity(chain)
    va = _changes_at(chain, lo) if lo is not None else at_minus_inf
    vb = _changes_at(chain, hi) if hi is not None else at_inf
    return va - vb


def cauchy_bound(p: IntPolynomial) -> Fraction:
    return Fraction(1 + max(abs(c) for c in p.coeffs[:-1]))


def dominant_real_root(p: IntPolynomial) -> Optional[float]:
    """The largest real root > 1, correctly rounded to a float, or None.

    Located by exact sign bisection on the squarefree part (a Sturm count
    isolates the largest root when the polynomial does not change sign at 1).
    The bisection stops when both ends of the bracket round to the same
    float, which is then the root's, as rounding is monotone.
    """
    sf = _sturm_chain(p)[0]
    bound = cauchy_bound(IntPolynomial(sf))
    n_gt1 = count_real_roots(p, 1, bound)
    if n_gt1 == 0:
        return None
    lo, hi = Fraction(1), bound
    if n_gt1 > 1:
        # shrink until (lo, hi] holds exactly the largest root
        while count_real_roots(p, lo, hi) > 1:
            mid = (lo + hi) / 2
            if count_real_roots(p, mid, hi) >= 1:
                lo = mid
            else:
                hi = mid
    # now exactly one simple root in (lo, hi]: certified sign bisection
    if _sign_at(sf, hi.numerator, hi.denominator) == 0:
        return float(hi)
    slo = _sign_at(sf, lo.numerator, lo.denominator)
    if slo == 0:
        # lo is a root itself: move it up, but not past the root in (lo, hi]
        step = (hi - lo) / 2
        while count_real_roots(p, lo + step, hi) == 0:
            step /= 2
        lo += step
        slo = _sign_at(sf, lo.numerator, lo.denominator)
    # in integers from here: lo = a/den and hi = b/den, and each step
    # doubles all three so that the midpoint stays an integer; int true
    # division rounds correctly
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    while (x := a / den) != (y := b / den):
        if math.nextafter(x, y) == y:
            # the ends round to adjacent floats: the root rounds to x below
            # their tie t and to y above it, and the sign at t decides, also
            # for a root at t (an integer above 2^53), which a midpoint need not hit
            t = (Fraction(x) + Fraction(y)) / 2
            st = _sign_at(sf, t.numerator, t.denominator)
            return float(t) if st == 0 else y if (st > 0) == (slo > 0) else x
        a, b, den = 2 * a, 2 * b, 2 * den
        mid = (a + b) // 2
        sm = _sign_at(sf, mid, den)
        if sm == 0:
            return mid / den
        if (sm > 0) == (slo > 0):
            a, slo = mid, sm
        else:
            b = mid
    return x


# -- roots outside the unit circle -------------------------------------------

def _count_outside(p) -> int:
    """Roots of p with |z| > 1, with multiplicity; p has none with |z| = 1.

    w = (z - 1)/(z + 1) sends |z| > 1 onto Re w > 0, and p to
    q(w) = (1 - w)^n p((1 + w)/(1 - w)), still of degree n as p(-1) != 0.
    Write q(iy) = A(y) + i B(y), multiplying q by i first if deg B > deg A.
    The argument of q(iy) along the imaginary axis gives the Routh-Hurwitz
    count (n + I(B/A))/2, where the Cauchy index I(B/A) = V(-inf) - V(+inf)
    is read off the remainder sequence of A and B (Gantmacher, ch. XV).
    """
    n = len(p) - 1
    q, down = [p[-1]], [1]
    for c in reversed(p[:-1]):
        # after c = c_j: q = sum over k >= j of c_k (1 + w)^(k - j) (1 - w)^(n - k)
        down = _mul(down, [1, -1])
        q = [x + c * d for x, d in zip(_mul(q, [1, 1]), down)]
    # i^j = (-1)^(j // 2) for even j, i (-1)^(j // 2) for odd j
    s = [c if j % 4 < 2 else -c for j, c in enumerate(q)]
    a = _trim([c if j % 2 == 0 else 0 for j, c in enumerate(s)])
    b = _trim([c if j % 2 else 0 for j, c in enumerate(s)])
    if len(b) > len(a):
        a, b = [-c for c in b], a  # i q(iy) = -B + i A
    at_minus_inf, at_inf = _changes_at_infinity(_remainders(a, b))
    return (n + at_minus_inf - at_inf) // 2


# -- the y = x + 1/x transform for reciprocal polynomials --------------------

def to_trace_poly(p: IntPolynomial) -> IntPolynomial:
    """For palindromic p of even degree 2n, the monic Q with p = x^n Q(x+1/x)."""
    if not p.is_reciprocal() or p.degree % 2 != 0:
        raise ValueError("trace transform needs a palindromic polynomial of even degree")
    n = p.degree // 2
    c = p.coeffs
    # Dickson basis: x^k + x^{-k} = D_k(y) with D_0 = 2, D_1 = y, and
    # D_k = y D_{k-1} - D_{k-2}
    d_prev, d_cur = [2], [0, 1]
    q = [0] * (n + 1)
    q[0] = c[n]
    for k in range(1, n + 1):
        if k > 1:
            d_next = [a - b for a, b in itertools.zip_longest(
                [0] + d_cur, d_prev, fillvalue=0)]
            d_prev, d_cur = d_cur, d_next
        for j, dc in enumerate(d_cur):
            q[j] += c[n + k] * dc
    assert q[n] == 1
    return IntPolynomial(q)


def from_trace_poly(q: IntPolynomial) -> IntPolynomial:
    """Inverse transform: the palindromic p(x) = x^n q(x + 1/x)."""
    n = q.degree
    out = [0] * (2 * n + 1)
    # x^{n-j} (x^2+1)^j expanded
    for j, c in enumerate(q.coeffs):
        if c == 0:
            continue
        for t in range(j + 1):
            out[(n - j) + 2 * t] += c * math.comb(j, t)
    return IntPolynomial(out)


# -- classification -----------------------------------------------------------

def _salem_layout(q: IntPolynomial) -> bool:
    """Whether the trace polynomial q of degree n has n - 1 distinct roots in
    (-2, 2], one in (2, inf) and none in (-inf, -2], the roots of a Salem
    polynomial x^n q(x + 1/x); the infinite ends are read off the leading
    terms."""
    return (count_real_roots(q, -2, 2) == q.degree - 1 and count_real_roots(q, 2) == 1
            and count_real_roots(q, None, -2) == 0)


class NumberClass(NamedTuple):
    kind: str
    dominant_root: float
    stripped: Optional[IntPolynomial]
    notes: tuple = ()


def classify_number(p: IntPolynomial) -> NumberClass:
    """Classify the dominant root of p after removing cyclotomic factors.

    Salem and circle-root decisions on the reciprocal part are exact (Sturm
    counts through the y = x + 1/x transform); only the root value itself is
    a float, the one nearest to the root.  Reciprocal quadratic integers are
    reported as their own kind; by the usual convention they count as Pisot
    numbers.
    """
    notes = []
    stripped, _ = strip_cyclotomic(p)
    if stripped is None:
        return NumberClass("cyclotomic_product", 1.0, None)
    if stripped != p:
        notes.append("cyclotomic factors removed")
    sf = squarefree_part(stripped)
    if sf != stripped:
        notes.append("repeated factors; classifying the squarefree part")
    # pull off x^k (roots at the origin are inside the disk)
    core = list(sf.coeffs)
    shift = 0
    while core[0] == 0:
        core.pop(0)
        shift += 1
    if shift:
        notes.append(f"root at 0 with multiplicity {shift} ignored")
    if len(core) == 1:
        return NumberClass("no_root_gt_one", 1.0, stripped, tuple(notes))
    sf = IntPolynomial(core)
    lam = dominant_real_root(sf)
    if lam is None or lam <= 1:
        return NumberClass("no_root_gt_one", 1.0, stripped, tuple(notes))
    if sf.degree == 2 and sf.is_reciprocal():
        return NumberClass("reciprocal_quadratic", lam, stripped, tuple(notes))
    if sf.is_reciprocal() and sf.degree % 2 == 0:
        # of degree >= 4 here; reciprocal but not a Salem layout is other_perron
        kind = "salem" if _salem_layout(to_trace_poly(sf)) else "other_perron"
        return NumberClass(kind, lam, stripped, tuple(notes))
    # non-reciprocal part.  A circle root z of sf is also a root 1/z = conj z
    # of its reverse, so a trivial gcd rules them out and the count applies.
    # A nontrivial gcd without circle roots holds pairs z, 1/z and so one
    # root outside; its cofactor is monic and nonconstant with a nonzero
    # constant term and no root of unity, so it has another one.
    if len(_gcd(sf.coeffs, sf.coeffs[::-1])) == 1 and _count_outside(sf.coeffs) == 1:
        return NumberClass("pisot", lam, stripped, tuple(notes))
    return NumberClass("other_perron", lam, stripped, tuple(notes))


# -- bounded-degree Salem enumeration ----------------------------------------

class SearchSpaceError(RuntimeError):
    pass


def enumerate_salem(degree_bound: int, upper: float, node_limit: int = 5_000_000):
    """All Salem numbers of degree <= degree_bound with value <= upper.

    The search is exhaustive: a Salem polynomial of degree 2n with root in
    (1, a] is x^n Q(x + 1/x) for a monic integer Q of degree n having one
    root in (2, A], A = a + 1/a, and n - 1 roots in [-2, 2].  Power sums of
    such roots obey s_k in (2^k - (n-1) 2^k, A^k + (n-1) 2^k], which via the
    Newton identities bounds each coefficient of Q given the previous ones;
    this is the symmetric-function coefficient bound made effective.  With
    A = N/D every bound is an integer over D^k, so each node takes floor
    divisions only.  Every candidate surviving the interval pruning is
    checked exactly, first by Descartes' rule and then with Sturm counts, so
    the output is complete and certified.

    Returns (polynomial, root) pairs sorted by root.
    """
    if degree_bound < 4 or degree_bound % 2 != 0:
        raise ValueError("degree bound must be an even integer >= 4")
    if upper <= 1:
        raise ValueError("upper bound must exceed 1")
    a = Fraction(upper).limit_denominator(10 ** 12)
    big_a = a + 1 / a
    big_n, big_d = big_a.numerator, big_a.denominator
    found = {}
    visited = 0
    for n in range(2, degree_bound // 2 + 1):
        # per n, not per node: the power-sum bounds, the upper one times D^k,
        # and the terms N^(n-i) D^i of D^n Q(A) = sum q_i N^(n-i) D^i
        dpow = [big_d ** k for k in range(n + 1)]
        s_lo = [2 ** k - (n - 1) * 2 ** k * (k % 2) for k in range(n + 1)]
        s_hi = [big_n ** k + (n - 1) * 2 ** k * dpow[k] for k in range(n + 1)]
        at_a = [big_n ** (n - i) * dpow[i] for i in range(n + 1)]
        descartes = _descartes_rows(n)

        def extend(qs, ss):
            nonlocal visited
            visited += 1
            if visited > node_limit:
                raise SearchSpaceError(
                    f"search space exceeded {node_limit} nodes; tighten the bounds")
            k = len(qs) + 1
            # newton: s_k = -(k q_k + sum_{i<k} q_i s_{k-i})
            tail = sum(qs[i] * ss[k - 2 - i] for i in range(k - 1))
            q_lo = -((s_hi[k] + tail * dpow[k]) // (k * dpow[k]))
            q_hi = (-s_lo[k] - tail) // k
            if k == n:
                # last coefficient: intersect with sign conditions, linear in
                # q_n.  Q(2) = prod(2 - y_i) <= 0 (one root above 2), Q(A) =
                # prod(A - y_i) >= 0, and Q(-2) = prod(-2 - y_i) has the sign
                # of (-1)^n since every factor is <= 0.
                base2 = 2 ** n + sum(qs[i] * 2 ** (n - 1 - i) for i in range(n - 1))
                basem2 = (-2) ** n + sum(qs[i] * (-2) ** (n - 1 - i) for i in range(n - 1))
                basea = at_a[0] + sum(qs[i] * at_a[i + 1] for i in range(n - 1))
                q_hi = min(q_hi, -base2)
                q_lo = max(q_lo, -(basea // dpow[n]))
                if n % 2 == 1:
                    q_hi = min(q_hi, -basem2)
                else:
                    q_lo = max(q_lo, -basem2)
                for qn in range(q_lo, q_hi + 1):
                    _check_candidate(qs + [qn], big_a, descartes, found)
                return
            for qk in range(q_lo, q_hi + 1):
                sk = -(k * qk + tail)
                extend(qs + [qk], ss + [sk])

        extend([], [])
    result = sorted(found.items(), key=lambda kv: kv[1])
    return [(poly, root) for poly, root in result]


def _descartes_rows(n: int) -> list:
    """Row i gives the x^i coefficient of (x + 1)^n Q((2x - 2)/(x + 1)) as
    a dot product with the coefficients of Q, from y^n down to y^0.

    y = (2x - 2)/(x + 1) sends x in (0, inf) onto y in (-2, 2); the x^n
    coefficient of the transform is Q(2).
    """
    cols = [reduce(_mul, [[-2, 2]] * j + [[1, 1]] * (n - j), [1])
            for j in range(n, -1, -1)]
    return [[col[i] for col in cols] for i in range(n + 1)]


def _band_root_bound(desc, rows) -> int:
    """A bound on Q's distinct roots in (-2, 2], by Descartes' rule of signs.

    desc holds Q's coefficients from y^n down and rows is
    :func:`_descartes_rows`: the sign changes of the transform bound the
    roots in (-2, 2), and a zero x^n coefficient adds the root y = 2.
    """
    transformed = [sum(r * c for r, c in zip(row, desc)) for row in rows]
    return _changes(transformed) + (transformed[-1] == 0)


def _check_candidate(qcoeffs, big_a, descartes, found):
    # qcoeffs = [q1, ..., qn] with Q = y^n + q1 y^{n-1} + ... + qn
    n = len(qcoeffs)
    desc = [1] + qcoeffs
    # the Sturm count below needs n - 1 roots in (-2, 2]
    if _band_root_bound(desc, descartes) < n - 1:
        return
    q = IntPolynomial(desc[::-1])
    if count_real_roots(q, 2, big_a) != 1 or not _salem_layout(q):
        return
    p = from_trace_poly(q)
    if strip_cyclotomic(p)[1]:
        # carries roots of unity; the cyclotomic-free core, if Salem, is
        # found at its own (smaller) degree
        return
    # p is Salem with no further test.  The counts give q n distinct real
    # roots, none at +-2 (p would have the factor (x -+ 1)^2), so p is
    # squarefree with one root > 1, its inverse, and n - 1 conjugate pairs
    # on the unit circle.  p has no cyclotomic factor, so by Kronecker every
    # factor has a root off the circle, and p is irreducible.
    # classify_number(p) would give the same float, the root correctly rounded.
    found.setdefault(p, dominant_real_root(p))


# -- text format --------------------------------------------------------------


class PolynomialSyntaxError(InputSyntaxError):
    """Text that does not parse as an integer polynomial in x."""


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?:(?P<var>x)(?:\s*\^\s*(?P<exp>\d+))?)?"
)


def parse_poly(text: str) -> IntPolynomial:
    """Parse ``x^10 + x^9 - x^7 - ... + 1`` into an IntPolynomial."""
    pos = 0
    terms = []
    text = text.strip()
    if not text:
        raise PolynomialSyntaxError("empty polynomial (at position 0)")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise PolynomialSyntaxError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sign") is None and terms:
            raise PolynomialSyntaxError(f"missing sign before {text[pos:]!r} (position {pos})")
        coeff = m.group("coeff")
        var = m.group("var")
        if coeff is None and var is None:
            raise PolynomialSyntaxError(f"empty term at position {pos}")
        c = int(coeff) if coeff else 1
        if var:
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        terms.append((exp, sign * c))
        pos = m.end()
    deg = max(e for e, _ in terms)
    coeffs = [0] * (deg + 1)
    for exp, c in terms:
        coeffs[exp] += c
    return IntPolynomial(coeffs)


def format_poly(p: IntPolynomial) -> str:
    parts = []
    for exp in range(p.degree, -1, -1):
        c = p.coeffs[exp]
        if c == 0:
            continue
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        elif exp == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{exp}" if mag == 1 else f"{mag}*x^{exp}"
        parts.append((c < 0, body))
    return join_signed(parts)
