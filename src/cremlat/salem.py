"""Salem and Pisot numbers: classification, and the bounded Salem search.

This is the Salem/Pisot layer, which no lattice command runs, over the
root kernel of :mod:`cremlat.roots`.  Every classification is decided
exactly.  Circle roots of reciprocal polynomials are located through the
substitution y = x + 1/x (a root lies on the unit circle exactly when the
transformed polynomial has a real root in (-2, 2)).  Roots outside the unit
circle are counted by the Routh-Hurwitz theorem after the map
w = (z - 1)/(z + 1), with Cauchy indices read off the remainder sequence of
the kernel.  Polynomials are read as text by the package's signed-term
reader, :func:`cremlat.parse_terms`, in the one variable x.

The Salem search rejects a candidate Q of degree n before any exact count
when Descartes' rule of signs, applied to (x + 1)^n Q((2x - 2)/(x + 1)),
leaves room for fewer than n - 1 roots in (-2, 2] (Collins-Akritas).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple, Optional

from . import InputSyntaxError, parse_terms
from .roots import (
    IntPolynomial, _changes, _changes_at_infinity, _deriv, _mul, _primitive, _remainders,
    _shift, _trim, count_real_roots, dominant_real_root, squarefree_part, strip_cyclotomic,
)


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
    polynomial x^n q(x + 1/x): n distinct real roots by the remainder
    sequence of q and q' at +-inf (Sturm), which makes Descartes' rule exact,
    one sign change of q(2x + 2) and none of q(-2x - 2), with q(-2) != 0."""
    c = q.coeffs
    above = _shift([x << i for i, x in enumerate(c)], 1)
    below = _shift([(-x if i % 2 else x) << i for i, x in enumerate(c)], 1)
    return (_changes(above) == 1 and _changes(below) == 0 and below[0] != 0
            and _changes_at_infinity(_remainders(c, _primitive(_deriv(c)))) == (q.degree, 0))


class NumberClass(NamedTuple):
    kind: str
    dominant_root: float
    stripped: Optional[IntPolynomial]
    notes: tuple = ()


def classify_number(p: IntPolynomial) -> NumberClass:
    """Classify the dominant root of p after removing cyclotomic factors.

    Salem and circle-root decisions on the reciprocal part are exact (root
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
    if len(_remainders(sf.coeffs, sf.coeffs[::-1])[-1]) == 1 and _count_outside(sf.coeffs) == 1:
        return NumberClass("pisot", lam, stripped, tuple(notes))
    return NumberClass("other_perron", lam, stripped, tuple(notes))


# -- bounded-degree Salem enumeration ----------------------------------------

class SearchSpaceError(RuntimeError):
    pass


# the nodes that enumerate_salem visits before it gives up, the candidates
# for the last coefficient included
NODE_LIMIT = 5_000_000


def enumerate_salem(degree_bound: int, upper: float):
    """All Salem numbers of degree <= degree_bound with value <= upper.

    The search is exhaustive: a Salem polynomial of degree 2n with root in
    (1, a] is x^n Q(x + 1/x) for a monic integer Q of degree n having one
    root in (2, A], A = a + 1/a, and n - 1 roots in [-2, 2].  Power sums of
    such roots obey s_k in (2^k - (n-1) 2^k, A^k + (n-1) 2^k], which via the
    Newton identities bounds each coefficient of Q given the previous ones;
    this is the symmetric-function coefficient bound made effective.  With
    A = N/D every bound is an integer over D^k, so each node takes floor
    divisions only.  Every candidate surviving the interval pruning is
    checked exactly, first by Descartes' rule and then by the exact root
    layout, so the output is complete and certified.

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

        def visit(nodes):
            nonlocal visited
            visited += nodes
            if visited > NODE_LIMIT:
                raise SearchSpaceError(
                    f"search space exceeded {NODE_LIMIT} nodes; tighten the bounds")

        def extend(qs, ss):
            visit(1)
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
                visit(max(0, q_hi - q_lo + 1))  # each candidate is a node
                for qn in range(q_lo, q_hi + 1):
                    _check_candidate(qs + [qn], big_a, descartes, found)
                return
            for qk in range(q_lo, q_hi + 1):
                sk = -(k * qk + tail)
                extend(qs + [qk], ss + [sk])

        extend([], [])
    return sorted(found.items(), key=lambda kv: kv[1])


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
    # the layout below needs n - 1 roots in (-2, 2]
    if _band_root_bound(desc, descartes) < n - 1:
        return
    q = IntPolynomial(desc[::-1])
    if not _salem_layout(q) or count_real_roots(q, 2, big_a) != 1:
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


# the largest cost degree^2 * max(bits, 10), bits those of the largest
# coefficient, that parse_poly reads: classify_number's remainder sequences
# take about 10 s * (cost / 10^7)^2 (within a factor 3 on 20 inputs).  On a
# 2-vCPU Xeon host, at the limit x^1000 - 3x^999 + 1 took 11.6 s,
# x^1000 - x^999 - 1 9.3 s and x^100 - 10^300*x - 1 8.8 s; past it,
# x^30 - 10^4000*x - 1 took 11.5 s and x^50 - 10^2400*x - 1 29 s
COST_LIMIT = 10 ** 7


def parse_poly(text: str) -> IntPolynomial:
    """Parse ``x^10 + x^9 - x^7 - ... + 1`` (the grammar of
    :func:`cremlat.parse_terms` in x) into an IntPolynomial, of cost at most
    :data:`COST_LIMIT`, read from the terms before any coefficient list."""
    terms = parse_terms(text, "x")
    degree = max((e for e, in terms), default=0)
    cost = degree ** 2 * max([10] + [abs(c.numerator).bit_length() for c in terms.values()])
    if cost > COST_LIMIT:
        raise RuntimeError(f"cost {cost} = degree^2 * max(coefficient bits, 10) "
                           f"is past the limit {COST_LIMIT}")
    coeffs = [0] * (degree + 1)
    for (e,), c in terms.items():
        if c.denominator != 1:
            raise InputSyntaxError(f"the coefficient {c} of x^{e} is not an integer")
        coeffs[e] = c.numerator
    return IntPolynomial(coeffs)
